//! The fleet center: the process that owns the sessions and farms their
//! evaluations out to remote workers.
//!
//! The center wraps an [`relm_serve::Service`] running in
//! [`relm_serve::Execution::External`] mode and attaches itself as the service's
//! [`FleetRouter`]. Everything session-shaped (registry, FIFO queues,
//! histories, checkpoints) stays in the service; the center adds only
//! the fleet machinery: the worker [registry](crate::WorkerRegistry),
//! the [task table](crate::TaskTable), a monitor thread that declares
//! silent workers dead, and the at-most-once commit discipline.
//!
//! **At-most-once, spelled out.** A leased evaluation commits into its
//! session exactly once, through one of three mutually exclusive doors:
//!
//! 1. *Worker commit* — the task's **current** assignee delivers
//!    `Complete`; the center takes the lease out of the table (removing
//!    it is what makes a second commit impossible) and replays the
//!    outcome through the shared evaluation cache.
//! 2. *Cache commit* — before assigning, the center probes the shared
//!    cache with the lease's content-addressed key; if the outcome
//!    already landed (a deposed worker's late delivery, or another
//!    session paying for the same cell), the task commits locally with
//!    no worker at all (`fleet.cache_commits`).
//! 3. *Local commit* — during drain, tasks no live worker will take are
//!    run dry in-process (`fleet.local_commits`).
//!
//! A deposed worker's `Complete` hits none of the doors: it only warms
//! the cache (`fleet.late_results`) so the reassigned attempt replays it
//! for free.
//!
//! Lock ordering: center state lock → service locks, never the reverse.
//! The service upholds its side by never calling the router while
//! holding its state lock.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use relm_serve::{EvalLease, FleetRouter, FleetTask, Request, Response, Service};

use crate::monitor::MonitorConfig;
use crate::registry::WorkerRegistry;
use crate::tasks::TaskTable;

/// Registry + task table behind one lock: every fleet-protocol request
/// mutates both together (a heartbeat both proves liveness and may hand
/// out a task), so splitting them would only invite ordering bugs.
#[derive(Default)]
struct CenterState {
    registry: WorkerRegistry,
    tasks: TaskTable,
}

/// What the assignment loop decided under the center lock; the commit
/// (if any) runs after the lock is released.
enum Dispatch {
    /// Task's outcome was already cached — commit locally, look again.
    Commit(EvalLease),
    /// Fresh work for the polling worker.
    Assign(FleetTask),
    /// Nothing queued and no lease ready.
    Idle,
}

/// A worker request the center is handling; see [`Center::begin_request`].
struct InFlight<'a> {
    center: &'a Center,
    worker: &'a str,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        if let Ok(mut st) = self.center.state.lock() {
            st.registry.end_request(self.worker, Instant::now());
        }
    }
}

/// The fleet center. Create with [`Center::start`]; hand workers the
/// service's address (TCP) or the service handle (in-process threads).
pub struct Center {
    service: Arc<Service>,
    monitor: MonitorConfig,
    state: Mutex<CenterState>,
    /// Lifetime task reassignments, mirrored into `fleet.reassignments`.
    reassigned: AtomicUsize,
    stop: AtomicBool,
    monitor_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Center {
    /// Builds the center around an [`Execution::External`] service,
    /// attaches it as the service's router, and spawns the monitor
    /// thread. The monitor holds only a [`Weak`] reference, so dropping
    /// every external `Arc<Center>` lets it exit on its next sweep.
    ///
    /// [`Execution::External`]: relm_serve::Execution::External
    pub fn start(service: Arc<Service>, monitor: MonitorConfig) -> Arc<Center> {
        let center = Arc::new(Center {
            service,
            monitor,
            state: Mutex::new(CenterState::default()),
            reassigned: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            monitor_thread: Mutex::new(None),
        });
        let as_router: Arc<dyn FleetRouter> = Arc::clone(&center) as Arc<dyn FleetRouter>;
        center.service.set_router(Arc::downgrade(&as_router));
        let weak: Weak<Center> = Arc::downgrade(&center);
        let interval = monitor.sweep_interval();
        let handle = std::thread::Builder::new()
            .name("fleet-monitor".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                let Some(center) = weak.upgrade() else { break };
                if center.stop.load(Ordering::Relaxed) {
                    break;
                }
                center.sweep_now();
            })
            .expect("spawn fleet monitor");
        *center.monitor_thread.lock().expect("monitor slot poisoned") = Some(handle);
        center
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops the monitor thread (idempotent). Dropping the last `Arc`
    /// also stops it, one sweep interval later.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self
            .monitor_thread
            .lock()
            .expect("monitor slot poisoned")
            .take()
        {
            let _ = handle.join();
        }
    }

    /// Sweeps the registry once: workers silent past the death timeout
    /// are declared dead and their tasks requeued. Called by the monitor
    /// thread and by drain-assist; safe to call from tests.
    pub fn sweep_now(&self) {
        let obs = self.service.obs().clone();
        let mut st = self.state.lock().expect("center state poisoned");
        let died = st
            .registry
            .sweep(Instant::now(), self.monitor.death_timeout());
        for (worker, orphan) in died {
            obs.inc("fleet.workers_died");
            if let Some(task) = orphan {
                self.requeue_locked(&mut st, task, &worker);
            }
        }
        obs.gauge("fleet.workers_alive", st.registry.alive() as f64);
    }

    /// Test/ops hook: declare `worker` dead immediately and requeue its
    /// task — the deterministic stand-in for "the monitor noticed".
    pub fn force_dead(&self, worker: &str) {
        let obs = self.service.obs().clone();
        let mut st = self.state.lock().expect("center state poisoned");
        let orphan = st.registry.force_dead(worker);
        if st.registry.state(worker).is_some() {
            obs.inc("fleet.workers_died");
        }
        if let Some(task) = orphan {
            self.requeue_locked(&mut st, task, worker);
        }
        obs.gauge("fleet.workers_alive", st.registry.alive() as f64);
    }

    /// Requeues a dead worker's task (attempt + 1) and counts the
    /// reassignment. Caller holds the center lock.
    fn requeue_locked(&self, st: &mut CenterState, task: u64, worker: &str) {
        if st.tasks.requeue(task).is_some() {
            self.reassigned.fetch_add(1, Ordering::Relaxed);
            let obs = self.service.obs();
            obs.inc("fleet.reassignments");
            let _ = worker; // identity carried by the counters' trace context
        }
    }

    /// Lifetime reassignments (also the `fleet.reassignments` counter).
    pub fn reassignment_count(&self) -> usize {
        self.reassigned.load(Ordering::Relaxed)
    }

    /// Tasks currently queued or on workers.
    pub fn outstanding(&self) -> usize {
        self.state
            .lock()
            .expect("center state poisoned")
            .tasks
            .outstanding()
    }

    fn register(&self, worker: &str, capacity: u32) -> Response {
        let obs = self.service.obs().clone();
        {
            let mut st = self.state.lock().expect("center state poisoned");
            let orphan = st.registry.register(worker, capacity, Instant::now());
            if let Some(task) = orphan {
                // A presumed-dead worker re-registering (or an id reused
                // by a restart): its old assignment is orphaned.
                self.requeue_locked(&mut st, task, worker);
            }
            obs.gauge("fleet.workers_alive", st.registry.alive() as f64);
        }
        obs.inc("fleet.workers_registered");
        Response::Registered {
            worker: worker.to_string(),
            heartbeat_ms: self.monitor.heartbeat_ms,
            missed_threshold: self.monitor.missed_threshold,
        }
    }

    fn heartbeat(&self, worker: &str, seq: u64) -> Response {
        let obs = self.service.obs().clone();
        {
            let mut st = self.state.lock().expect("center state poisoned");
            match st.registry.heartbeat(worker, seq, Instant::now()) {
                None => {
                    return Response::Error {
                        message: format!(
                            "worker `{worker}` is not registered or was declared dead"
                        ),
                    }
                }
                Some(gap) if gap > 0 => obs.add("fleet.heartbeats_missed", gap as f64),
                Some(_) => {}
            }
            obs.inc("fleet.heartbeats");
            // A worker mid-evaluation polls too; don't double-assign.
            if st.registry.assigned(worker).is_some() {
                return Response::HeartbeatAck {
                    pending: st.tasks.queued_len(),
                };
            }
        }
        self.next_assignment(worker)
    }

    fn ack(&self, worker: &str, task: u64) -> Response {
        let mut st = self.state.lock().expect("center state poisoned");
        if !st.registry.touch(worker, Instant::now()) {
            return Response::Error {
                message: format!("worker `{worker}` is not registered or was declared dead"),
            };
        }
        if st.tasks.ack(task, worker) {
            Response::HeartbeatAck {
                pending: st.tasks.queued_len(),
            }
        } else {
            // The task was reassigned between Assign and Ack (or already
            // committed); tell the worker to drop it.
            Response::Reassigned { task }
        }
    }

    fn complete(&self, worker: &str, task: u64, outcome: relm_serve::EvalOutcome) -> Response {
        let obs = self.service.obs().clone();
        let lease = {
            let mut st = self.state.lock().expect("center state poisoned");
            st.registry.touch(worker, Instant::now());
            if st.tasks.current_assignee(task) == Some(worker) {
                st.registry.clear_assigned(worker);
                st.tasks.take_for_commit(task)
            } else {
                // Deposed (declared dead, task reassigned) or unknown
                // task: the result must NOT commit — at-most-once — but
                // it is still a perfectly good outcome for its cell, so
                // warm the cache and let the reassigned attempt (or any
                // other session on the same cell) replay it for free.
                let key = st.tasks.key_of(task);
                drop(st);
                if let Some(key) = key {
                    self.service.warm_cache(key, outcome.eval);
                }
                obs.inc("fleet.late_results");
                return Response::Reassigned { task };
            }
        };
        let lease = lease.expect("current assignee's task holds its lease");
        obs.record("fleet.eval_wall_ms", outcome.wall_ms);
        obs.inc("fleet.tasks_completed");
        self.service.commit_lease(lease, Some(outcome.eval));
        // Pipeline: the reply to Complete carries the next assignment,
        // saving a heartbeat round-trip per evaluation.
        self.next_assignment(worker)
    }

    /// Marks `worker`'s request in flight until the returned guard drops,
    /// so the sweep does not count the time the center spends on it (a
    /// commit, a cache replay) as the worker's silence. `None` for unknown
    /// or dead workers.
    fn begin_request<'a>(&'a self, worker: &'a str) -> Option<InFlight<'a>> {
        let mut st = self.state.lock().expect("center state poisoned");
        // Build the guard only on success: dropping one locks the state,
        // which this function still holds.
        if st.registry.begin_request(worker, Instant::now()) {
            Some(InFlight {
                center: self,
                worker,
            })
        } else {
            None
        }
    }

    /// Finds the polling worker its next task. Loops because a queued
    /// task whose outcome is already cached commits locally and never
    /// reaches a worker.
    fn next_assignment(&self, worker: &str) -> Response {
        let obs = self.service.obs().clone();
        loop {
            let dispatch = {
                let mut st = self.state.lock().expect("center state poisoned");
                // The worker may have been forced dead while a commit ran
                // outside this lock (the monitor spares requests in
                // flight, `force_dead` does not). A task handed to a dead
                // worker would strand: tasks are requeued only when their
                // worker dies. Refuse instead, as a heartbeat would be.
                if !st.registry.touch(worker, Instant::now()) {
                    return Response::Error {
                        message: format!(
                            "worker `{worker}` is not registered or was declared dead"
                        ),
                    };
                }
                // Top up the table from the service's ready queue.
                while let Some(lease) = self.service.lease_next() {
                    st.tasks.admit(lease);
                }
                match st.tasks.pop_queued() {
                    None => Dispatch::Idle,
                    Some(id) => {
                        let cached = st
                            .tasks
                            .lease_ref(id)
                            .is_some_and(|lease| self.service.outcome_cached(lease));
                        if cached {
                            let lease = st
                                .tasks
                                .take_for_commit(id)
                                .expect("queued task holds its lease");
                            Dispatch::Commit(lease)
                        } else {
                            let wire = st.tasks.assign(id, worker);
                            st.registry.set_assigned(worker, id);
                            Dispatch::Assign(wire)
                        }
                    }
                }
            };
            match dispatch {
                Dispatch::Commit(lease) => {
                    // Commit outside the center lock: replay may ready
                    // the session's next evaluation, which the top-up
                    // above picks up on the next spin.
                    self.service.commit_lease(lease, None);
                    obs.inc("fleet.cache_commits");
                }
                Dispatch::Assign(task) => {
                    obs.inc("fleet.tasks_assigned");
                    return Response::Assign {
                        task: Box::new(task),
                    };
                }
                Dispatch::Idle => {
                    let st = self.state.lock().expect("center state poisoned");
                    return Response::HeartbeatAck {
                        pending: st.tasks.queued_len(),
                    };
                }
            }
        }
    }
}

impl FleetRouter for Center {
    fn route(&self, request: &Request) -> Response {
        match request {
            Request::Register { worker, capacity } => self.register(worker, *capacity),
            Request::Heartbeat { worker, seq } => {
                let _in_flight = self.begin_request(worker);
                self.heartbeat(worker, *seq)
            }
            Request::Ack { worker, task } => self.ack(worker, *task),
            Request::Complete {
                worker,
                task,
                outcome,
            } => {
                let _in_flight = self.begin_request(worker);
                self.complete(worker, *task, outcome.clone())
            }
            other => Response::Error {
                message: format!("not a fleet request: {}", other.endpoint()),
            },
        }
    }

    /// Drain support: runs every task no live worker will take — queued,
    /// or orphaned by deaths mid-drain — dry in this process, and returns
    /// only when no fleet task is outstanding and the service is
    /// quiescent. Tasks on live workers are waited for, not stolen; a
    /// task in reassignment limbo is committed exactly once like any
    /// other. A draining fleet never drops a leased evaluation.
    fn drain_assist(&self) {
        let obs = self.service.obs().clone();
        loop {
            // Claim everything queued (topping up from the service) under
            // one lock grab; commit after releasing it.
            let leases = {
                let mut st = self.state.lock().expect("center state poisoned");
                while let Some(lease) = self.service.lease_next() {
                    st.tasks.admit(lease);
                }
                let mut leases = Vec::new();
                while let Some(id) = st.tasks.pop_queued() {
                    leases.push(
                        st.tasks
                            .take_for_commit(id)
                            .expect("queued task holds its lease"),
                    );
                }
                leases
            };
            let worked = !leases.is_empty();
            for lease in leases {
                // Cache hit replays (reassignment limbo resolved for
                // free); miss runs the evaluation live, right here.
                self.service.commit_lease(lease, None);
                obs.inc("fleet.local_commits");
            }
            if worked {
                continue; // commits may have readied more evaluations
            }
            if self.outstanding() == 0 && self.service.quiesced() {
                return;
            }
            // Tasks are on workers (or a commit is in flight): declare
            // silent workers dead so their tasks requeue, then wait a
            // beat.
            self.sweep_now();
            std::thread::sleep(self.monitor.sweep_interval() / 2);
        }
    }

    fn reassignments(&self) -> usize {
        self.reassignment_count()
    }
}

impl Drop for Center {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}
