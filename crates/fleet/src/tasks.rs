//! The center's task table: every evaluation leased from the serving
//! layer, keyed by a fleet-assigned task id, with the state machine that
//! makes reassignment at-most-once.
//!
//! A task moves `Queued → Assigned(worker) → Acked(worker) → committed`
//! (committed tasks leave the table). When a worker dies the task goes
//! back to `Queued` with `attempt + 1`; only the *current* assignee's
//! `Complete` can commit it, so a deposed worker's late result is
//! harmless — the center warms the evaluation cache with it and tells
//! the worker to move on.

use std::collections::BTreeMap;

use relm_serve::{EvalLease, FleetTask, Priority};
use relm_tune::EvalKey;

/// Where a task sits in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting for a worker (fresh, or requeued after a death).
    Queued,
    /// Sent to a worker; not yet acknowledged.
    Assigned(String),
    /// Worker confirmed receipt and is evaluating.
    Acked(String),
}

/// One leased evaluation in flight through the fleet.
#[derive(Debug)]
struct TaskEntry {
    /// The serving-layer lease this task will commit. Present until the
    /// task is taken for commit.
    lease: Option<EvalLease>,
    /// Content-addressed dedup key — identical to the evalcache key the
    /// session env will look up on replay.
    key: EvalKey,
    /// The owning session's scheduling class, snapshotted from the lease
    /// so priorities survive external execution: assignment order prefers
    /// higher classes exactly as the in-process pool runs them first.
    priority: Priority,
    /// 0 on first assignment; +1 per reassignment.
    attempt: u32,
    state: TaskState,
}

/// The table of in-flight fleet tasks.
#[derive(Debug, Default)]
pub struct TaskTable {
    tasks: BTreeMap<u64, TaskEntry>,
    next_id: u64,
}

impl TaskTable {
    /// An empty table.
    pub fn new() -> Self {
        TaskTable::default()
    }

    /// Admits a lease from the serving layer as a new queued task and
    /// returns its id.
    pub fn admit(&mut self, lease: EvalLease) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.tasks.insert(
            id,
            TaskEntry {
                key: lease.key,
                priority: lease.priority,
                lease: Some(lease),
                attempt: 0,
                state: TaskState::Queued,
            },
        );
        id
    }

    /// The next queued task: highest priority class first, then lowest
    /// id (admission order) within a class — so priorities assigned by
    /// the serving layer's deficit-weighted scheduler survive into fleet
    /// assignment order.
    pub fn pop_queued(&self) -> Option<u64> {
        self.tasks
            .iter()
            .filter(|(_, e)| e.state == TaskState::Queued)
            .max_by_key(|(id, e)| (e.priority, std::cmp::Reverse(**id)))
            .map(|(id, _)| *id)
    }

    /// Marks `id` assigned to `worker` and builds the wire-format task.
    /// Panics if the task is not queued — callers route through
    /// [`TaskTable::pop_queued`] under one lock.
    pub fn assign(&mut self, id: u64, worker: &str) -> FleetTask {
        let entry = self.tasks.get_mut(&id).expect("assign: unknown task");
        assert_eq!(entry.state, TaskState::Queued, "assign: task not queued");
        entry.state = TaskState::Assigned(worker.to_string());
        let lease = entry.lease.as_ref().expect("assign: lease already taken");
        FleetTask {
            id,
            attempt: entry.attempt,
            session: lease.session.clone(),
            app: lease.app.clone(),
            cluster: lease.cluster.clone(),
            cost: lease.cost,
            config: lease.config,
            seed: lease.seed,
            retry: lease.retry,
            faults: lease.faults.clone(),
        }
    }

    /// Records the worker's ack. Ignored unless the task is currently
    /// assigned to that worker (a deposed worker's ack is stale).
    pub fn ack(&mut self, id: u64, worker: &str) -> bool {
        match self.tasks.get_mut(&id) {
            Some(entry) if entry.state == TaskState::Assigned(worker.to_string()) => {
                entry.state = TaskState::Acked(worker.to_string());
                true
            }
            _ => false,
        }
    }

    /// The worker the task is currently assigned/acked to.
    pub fn current_assignee(&self, id: u64) -> Option<&str> {
        match self.tasks.get(&id).map(|e| &e.state) {
            Some(TaskState::Assigned(w)) | Some(TaskState::Acked(w)) => Some(w.as_str()),
            _ => None,
        }
    }

    /// Removes the task and hands back its lease for commit. `None` if
    /// the task is unknown (already committed).
    pub fn take_for_commit(&mut self, id: u64) -> Option<EvalLease> {
        self.tasks.remove(&id).and_then(|e| e.lease)
    }

    /// The dedup key of a task, if it is still in the table.
    pub fn key_of(&self, id: u64) -> Option<EvalKey> {
        self.tasks.get(&id).map(|e| e.key)
    }

    /// Borrow of the task's lease (for cache probes before assignment).
    pub fn lease_ref(&self, id: u64) -> Option<&EvalLease> {
        self.tasks.get(&id).and_then(|e| e.lease.as_ref())
    }

    /// Tasks currently waiting for a worker.
    pub fn queued_len(&self) -> usize {
        self.tasks
            .values()
            .filter(|e| e.state == TaskState::Queued)
            .count()
    }

    /// Returns the task to the queue after its assignee died, bumping
    /// the attempt counter. Returns the new attempt number, or `None`
    /// if the task is unknown or already queued.
    pub fn requeue(&mut self, id: u64) -> Option<u32> {
        let entry = self.tasks.get_mut(&id)?;
        if entry.state == TaskState::Queued {
            return None;
        }
        entry.state = TaskState::Queued;
        entry.attempt += 1;
        Some(entry.attempt)
    }

    /// Tasks still in the table (queued or in flight).
    pub fn outstanding(&self) -> usize {
        self.tasks.len()
    }

    /// Current state of a task, for tests and diagnostics.
    pub fn state(&self, id: u64) -> Option<TaskState> {
        self.tasks.get(&id).map(|e| e.state.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relm_serve::{ServeConfig, Service, SessionSpec};

    /// Builds a real lease by starting an External-execution service and
    /// queueing one evaluation.
    fn lease() -> EvalLease {
        let config = ServeConfig {
            execution: relm_serve::Execution::External,
            ..ServeConfig::default()
        };
        let service = Service::start(config, relm_obs::Obs::disabled());
        let spec = SessionSpec::named("WordCount", 7);
        let session = match service.handle(&relm_serve::Request::CreateSession { spec }) {
            relm_serve::Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        service.handle(&relm_serve::Request::StepAuto { session, evals: 1 });
        service.lease_next().expect("one pending evaluation")
    }

    #[test]
    fn lifecycle_queued_assigned_acked_committed() {
        let mut table = TaskTable::new();
        let id = table.admit(lease());
        assert_eq!(table.state(id), Some(TaskState::Queued));
        assert_eq!(table.pop_queued(), Some(id));

        let wire = table.assign(id, "w-0");
        assert_eq!(wire.id, id);
        assert_eq!(wire.attempt, 0);
        assert_eq!(table.current_assignee(id), Some("w-0"));

        // A stale ack from another worker is refused.
        assert!(!table.ack(id, "w-1"));
        assert!(table.ack(id, "w-0"));
        assert_eq!(table.state(id), Some(TaskState::Acked("w-0".into())));

        assert!(table.take_for_commit(id).is_some());
        assert_eq!(table.outstanding(), 0);
        // Double-commit is impossible: the entry is gone.
        assert!(table.take_for_commit(id).is_none());
    }

    #[test]
    fn queued_tasks_assign_in_priority_order() {
        let config = ServeConfig {
            execution: relm_serve::Execution::External,
            ..ServeConfig::default()
        };
        let service = Service::start(config, relm_obs::Obs::disabled());
        for priority in Priority::ALL {
            let spec = SessionSpec::named("WordCount", 7).with_priority(priority);
            let session = match service.handle(&relm_serve::Request::CreateSession { spec }) {
                relm_serve::Response::SessionCreated { session } => session,
                other => panic!("create failed: {other:?}"),
            };
            service.handle(&relm_serve::Request::StepAuto { session, evals: 1 });
        }
        let mut leases = Vec::new();
        while let Some(lease) = service.lease_next() {
            leases.push(lease);
        }
        assert_eq!(leases.len(), 3);
        // Admit in worst-case order (low first) — assignment must still
        // prefer the high-priority task, then normal, then low.
        leases.sort_by_key(|l| l.priority);
        let mut table = TaskTable::new();
        let ids: Vec<u64> = leases.into_iter().map(|l| table.admit(l)).collect();
        let expected = [ids[2], ids[1], ids[0]];
        for id in expected {
            let next = table.pop_queued().expect("queued task");
            assert_eq!(next, id, "fleet assignment must follow priority");
            table.assign(next, "w-0");
            table.ack(next, "w-0");
            table.take_for_commit(next);
        }
        assert_eq!(table.outstanding(), 0);
    }

    #[test]
    fn requeue_bumps_attempt_and_deposes_the_old_assignee() {
        let mut table = TaskTable::new();
        let id = table.admit(lease());
        table.assign(id, "w-0");
        table.ack(id, "w-0");

        assert_eq!(table.requeue(id), Some(1));
        assert_eq!(table.state(id), Some(TaskState::Queued));
        assert_eq!(table.current_assignee(id), None);
        // Requeueing a queued task is a no-op.
        assert_eq!(table.requeue(id), None);

        let wire = table.assign(id, "w-1");
        assert_eq!(wire.attempt, 1);
        // The deposed worker's ack no longer lands.
        assert!(!table.ack(id, "w-0"));
        assert_eq!(table.current_assignee(id), Some("w-1"));
    }
}
