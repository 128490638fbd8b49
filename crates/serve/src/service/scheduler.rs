//! Scheduling and admission for the service: which ready session a
//! worker runs next (deficit-weighted round-robin across the priority
//! classes), how many evaluations are pending and running, and the
//! graduated admission gate.

use crate::protocol::Priority;
use relm_obs::Obs;
use std::collections::VecDeque;

/// Who runs next, and whether a batch may queue at all: the ready
/// sessions of each priority class under deficit-weighted round-robin,
/// the pending and running counts, and the graduated admission gate.
/// Plain data with no locks or threads; the service drives it under its
/// state lock.
pub(super) struct Scheduler {
    /// Pending-evaluation bound per session.
    session_limit: usize,
    /// Pending-evaluation bound across all sessions.
    global_limit: usize,
    /// Ready sessions (pending work, idle environment), one FIFO queue
    /// per priority class, indexed by [`Priority::index`]. Workers pull
    /// through the deficit-weighted round-robin in
    /// [`Scheduler::pop_ready`].
    ready: [VecDeque<String>; 3],
    /// Remaining scheduling credit per class in the current DWRR round.
    credit: [u64; 3],
    global_pending: usize,
    /// Pending evaluations per priority class, indexed by
    /// [`Priority::index`] — the `serve.queue.class.*` gauges.
    pending_by_class: [usize; 3],
    /// Evaluations currently on workers.
    running: usize,
}

impl Scheduler {
    pub(super) fn new(session_limit: usize, global_limit: usize) -> Self {
        Scheduler {
            session_limit,
            global_limit,
            ready: Default::default(),
            credit: [0; 3],
            global_pending: 0,
            pending_by_class: [0; 3],
            running: 0,
        }
    }

    /// Pending evaluations across all sessions.
    pub(super) fn pending(&self) -> usize {
        self.global_pending
    }

    /// True when no evaluation is pending or running.
    pub(super) fn idle(&self) -> bool {
        self.global_pending == 0 && self.running == 0
    }

    /// The admission gate for `batch` more evaluations on a session of
    /// class `priority` that already holds `session_pending`. `Err`
    /// carries the reason: the session's own bound, or its class's share
    /// of the global bound ([`Priority::admission_share`]), under which
    /// low-priority traffic sees pushback first and high-priority steps
    /// still land until the queue is truly full. A batch is admitted or
    /// rejected whole.
    pub(super) fn gate(
        &self,
        obs: &Obs,
        priority: Priority,
        session_pending: usize,
        batch: usize,
    ) -> Result<(), String> {
        if session_pending + batch > self.session_limit {
            return Err(format!(
                "session queue limit ({}) exceeded",
                self.session_limit
            ));
        }
        let class_limit =
            ((self.global_limit as f64) * priority.admission_share()).floor() as usize;
        let class_limit = class_limit.max(1);
        if self.global_pending + batch > class_limit {
            obs.inc(&format!(
                "serve.rejected.overloaded.class.{}",
                priority.as_str()
            ));
            return Err(format!(
                "global queue limit for {}-priority steps \
                 ({class_limit} of {}) exceeded",
                priority.as_str(),
                self.global_limit
            ));
        }
        Ok(())
    }

    /// Books `batch` admitted evaluations of class `priority`.
    pub(super) fn enqueue(&mut self, priority: Priority, batch: usize) {
        self.global_pending += batch;
        self.pending_by_class[priority.index()] += batch;
    }

    /// Appends a session that has pending work and an idle environment
    /// to the back of its class's ready queue.
    pub(super) fn push_ready(&mut self, priority: Priority, name: String) {
        self.ready[priority.index()].push_back(name);
    }

    /// Picks the next session to run by deficit-weighted round-robin.
    ///
    /// Each round grants every backlogged class its
    /// [`Priority::weight`] in pulls; higher classes spend their credit
    /// first, a class that runs dry forfeits the rest of its round, and
    /// the round replenishes once no backlogged class has credit left.
    /// Within a class, sessions rotate FIFO — with a single class in
    /// play this degenerates to exactly the old fair round-robin.
    pub(super) fn pop_ready(&mut self) -> Option<String> {
        if self.ready.iter().all(|q| q.is_empty()) {
            return None;
        }
        loop {
            for cls in (0..self.ready.len()).rev() {
                if self.credit[cls] == 0 {
                    continue;
                }
                if let Some(name) = self.ready[cls].pop_front() {
                    self.credit[cls] -= 1;
                    return Some(name);
                }
                // Ran dry mid-round: forfeit, don't bank credit.
                self.credit[cls] = 0;
            }
            // No creditable class has work: start a new round.
            for p in Priority::ALL {
                let cls = p.index();
                self.credit[cls] = if self.ready[cls].is_empty() {
                    0
                } else {
                    p.weight()
                };
            }
        }
    }

    /// One pending evaluation of class `priority` moves onto a worker.
    pub(super) fn start(&mut self, priority: Priority) {
        self.global_pending -= 1;
        self.pending_by_class[priority.index()] -= 1;
        self.running += 1;
    }

    /// One running evaluation completed.
    pub(super) fn finish(&mut self) {
        self.running -= 1;
    }

    /// Drops a cancelled session's `discarded` pending evaluations and
    /// takes it out of the ready queue.
    pub(super) fn discard(&mut self, priority: Priority, name: &str, discarded: usize) {
        let cls = priority.index();
        self.ready[cls].retain(|s| s != name);
        self.global_pending -= discarded;
        self.pending_by_class[cls] -= discarded;
    }

    /// Publishes the queue-depth and busy-worker gauges.
    pub(super) fn publish(&self, obs: &Obs) {
        obs.gauge("serve.queue.global", self.global_pending as f64);
        obs.gauge("serve.workers.busy", self.running as f64);
        for p in Priority::ALL {
            obs.gauge(p.queue_gauge(), self.pending_by_class[p.index()] as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With every class backlogged, each deficit-weighted round pulls 4
    /// high, 2 normal and 1 low, in that order, FIFO within a class.
    #[test]
    fn dwrr_pulls_four_two_one_per_round_with_every_class_backlogged() {
        let mut sched = Scheduler::new(8, 64);
        for i in 0..8 {
            for p in Priority::ALL {
                sched.push_ready(p, format!("{}-{i}", p.as_str()));
            }
        }
        let order: Vec<String> = (0..14).map(|_| sched.pop_ready().unwrap()).collect();
        let expected = [
            "high-0", "high-1", "high-2", "high-3", "normal-0", "normal-1", "low-0", //
            "high-4", "high-5", "high-6", "high-7", "normal-2", "normal-3", "low-1",
        ];
        assert_eq!(order, expected);
    }

    #[test]
    fn queue_gauges_append_the_class_label() {
        for p in Priority::ALL {
            assert_eq!(p.queue_gauge(), format!("serve.queue.class.{}", p.as_str()));
        }
    }

    /// A class that runs dry mid-round forfeits the rest of its credit:
    /// readied again in the same round, it waits for the next one.
    #[test]
    fn dwrr_class_that_runs_dry_forfeits_its_remaining_credit() {
        let mut sched = Scheduler::new(8, 64);
        sched.push_ready(Priority::High, "h0".into());
        for name in ["n0", "n1", "n2"] {
            sched.push_ready(Priority::Normal, name.into());
        }
        assert_eq!(sched.pop_ready().as_deref(), Some("h0"));
        // High ran dry with 3 of its 4 pulls left and forfeits them.
        assert_eq!(sched.pop_ready().as_deref(), Some("n0"));
        sched.push_ready(Priority::High, "h1".into());
        assert_eq!(sched.pop_ready().as_deref(), Some("n1"));
        // Normal spent its 2 pulls: the next round starts with high.
        assert_eq!(sched.pop_ready().as_deref(), Some("h1"));
        assert_eq!(sched.pop_ready().as_deref(), Some("n2"));
        assert_eq!(sched.pop_ready(), None);
    }
}
