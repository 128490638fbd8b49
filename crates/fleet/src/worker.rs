//! The fleet worker: a stateless evaluation executor.
//!
//! A worker registers with the center, heartbeats on the announced
//! cadence, and polls for work with every beat. An assignment carries a
//! complete [`FleetTask`] — everything the evaluation's outcome is a
//! pure function of — so the worker rebuilds a throwaway
//! [`TuningEnv`] and runs exactly the live evaluation the center would
//! have run in-process. The result ships back as the same [`relm_tune::CachedEval`]
//! the cache-fill path would have stored, which is what lets the center
//! commit it through the shared evaluation cache's replay path,
//! byte-identical to a local run.
//!
//! The transport is a plain closure over the JSON-lines protocol, so the
//! same loop runs over TCP ([`relm_serve::TcpClient`]) or in-process
//! (`|req| Ok(service.handle(req))`) — tests and the load harness use
//! the latter, the `fleet_worker` binary the former.
//!
//! Injected faults ([`WorkerFaultPlan`]) hit three sites:
//!
//! * **Kill** — the worker dies silently right after acking a task (the
//!   mid-evaluation crash). It never speaks again; the monitor notices
//!   the silence and the task is reassigned.
//! * **Heartbeat loss** — a beat is dropped on the wire. The sequence
//!   number still advances, so the center counts the gap.
//! * **Link drop** — a completed result is lost in transit. The worker
//!   retries delivery a bounded number of times (new fault coordinates
//!   each try), then gives up and exits — from the center's point of
//!   view, a death after silence, handled by reassignment. The cell's
//!   cost is not wasted if the retry lands late: a deposed delivery
//!   still warms the center's cache.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use relm_app::Engine;
use relm_faults::WorkerFaultPlan;
use relm_obs::Obs;
use relm_serve::{EvalOutcome, FleetTask, Request, Response};
use relm_tune::{EvalStore, TuningEnv};

/// Worker identity and fault plan.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Registry name, unique per fleet (e.g. `"w-0"`).
    pub id: String,
    /// Seeded fault-injection plan; `None` runs clean.
    pub faults: Option<WorkerFaultPlan>,
    /// Heartbeat-interval override. `None` follows the cadence the
    /// center announces at registration; tests override to speed up.
    pub heartbeat_ms: Option<u64>,
}

impl WorkerConfig {
    /// A clean worker named `id`.
    pub fn named(id: impl Into<String>) -> Self {
        WorkerConfig {
            id: id.into(),
            faults: None,
            heartbeat_ms: None,
        }
    }

    /// Attaches a seeded fault plan.
    pub fn with_faults(mut self, faults: WorkerFaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Overrides the heartbeat cadence (tests).
    pub fn with_heartbeat_ms(mut self, ms: u64) -> Self {
        self.heartbeat_ms = Some(ms);
        self
    }
}

/// Why the worker loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// The stop flag was raised (orderly shutdown).
    Stopped,
    /// An injected kill fired mid-evaluation: silent death.
    Killed,
    /// Delivery retries exhausted after injected link drops.
    LinkDead,
    /// The center refused us (declared dead, or draining away).
    Refused,
    /// The transport failed (center gone).
    Disconnected,
}

/// What one worker did with its life.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// Worker id, echoed for multi-worker harnesses.
    pub id: String,
    /// Evaluations executed to completion (delivered or not).
    pub evaluations: usize,
    /// Heartbeats actually sent.
    pub heartbeats: u64,
    /// Heartbeats suppressed by injected loss.
    pub heartbeats_lost: u64,
    /// Result deliveries suppressed by injected link drops.
    pub link_drops: u64,
    /// Completions answered [`Response::Reassigned`] (we were deposed).
    pub deposed: u64,
    /// Why the loop ended.
    pub exit: WorkerExit,
}

/// Delivery attempts before a link-dropped result is abandoned and the
/// worker exits. Bounded so a fully severed link (drop rate 1.0)
/// converges to a silent death instead of spinning forever.
const DELIVERY_ATTEMPTS: u32 = 4;

/// Runs one worker against a transport until stopped, refused, killed by
/// an injected fault, or disconnected. `transport` sends one request and
/// blocks for its response — `|req| client.request(req)` over TCP,
/// `|req| Ok(service.handle(req))` in-process.
pub fn run_worker<F>(mut transport: F, config: &WorkerConfig, stop: &AtomicBool) -> WorkerReport
where
    F: FnMut(&Request) -> io::Result<Response>,
{
    let mut report = WorkerReport {
        id: config.id.clone(),
        evaluations: 0,
        heartbeats: 0,
        heartbeats_lost: 0,
        link_drops: 0,
        deposed: 0,
        exit: WorkerExit::Stopped,
    };
    let worker = config.id.clone();

    // Register; the center announces the heartbeat cadence.
    let announced = match transport(&Request::Register {
        worker: worker.clone(),
        capacity: 1,
    }) {
        Ok(Response::Registered { heartbeat_ms, .. }) => heartbeat_ms,
        Ok(_) => {
            report.exit = WorkerExit::Refused;
            return report;
        }
        Err(_) => {
            report.exit = WorkerExit::Disconnected;
            return report;
        }
    };
    let beat = Duration::from_millis(config.heartbeat_ms.unwrap_or(announced).max(1));

    let mut seq = 0u64;
    loop {
        if stop.load(Ordering::Relaxed) {
            report.exit = WorkerExit::Stopped;
            return report;
        }
        std::thread::sleep(beat);
        seq += 1;
        if let Some(plan) = &config.faults {
            if plan.heartbeat_loss(&worker, seq) {
                // The beat is lost on the wire: the sequence number still
                // advances, so the center sees the gap.
                report.heartbeats_lost += 1;
                continue;
            }
        }
        report.heartbeats += 1;
        let reply = match transport(&Request::Heartbeat {
            worker: worker.clone(),
            seq,
        }) {
            Ok(reply) => reply,
            Err(_) => {
                report.exit = WorkerExit::Disconnected;
                return report;
            }
        };
        let mut next = match reply {
            Response::Assign { task } => Some(task),
            Response::HeartbeatAck { .. } => None,
            Response::Error { .. } => {
                // Unknown or declared dead: a real deployment would
                // re-register; we exit and let the harness decide.
                report.exit = WorkerExit::Refused;
                return report;
            }
            _ => None,
        };
        // Work loop: the reply to each Complete may carry the next
        // assignment (pipelined), so drain until the center says idle.
        while let Some(task) = next.take() {
            match run_task(&mut transport, config, *task, &mut report, beat, &mut seq) {
                TaskEnd::Next(assign) => next = assign,
                TaskEnd::Idle => {}
                TaskEnd::Exit(exit) => {
                    report.exit = exit;
                    return report;
                }
            }
        }
    }
}

/// How one task ended, from the work loop's point of view.
enum TaskEnd {
    /// Delivered; the center pipelined another assignment. Boxed: the
    /// lease snapshot dwarfs the other variants.
    Next(Option<Box<FleetTask>>),
    /// Delivered (or dropped as stale); back to heartbeating.
    Idle,
    /// The worker is done for (kill, dead link, refusal, disconnect).
    Exit(WorkerExit),
}

fn run_task<F>(
    transport: &mut F,
    config: &WorkerConfig,
    task: FleetTask,
    report: &mut WorkerReport,
    beat: Duration,
    seq: &mut u64,
) -> TaskEnd
where
    F: FnMut(&Request) -> io::Result<Response>,
{
    let worker = &config.id;
    // Confirm receipt before spending anything.
    match transport(&Request::Ack {
        worker: worker.clone(),
        task: task.id,
    }) {
        Ok(Response::Reassigned { .. }) => return TaskEnd::Idle, // stale assign
        Ok(Response::Error { .. }) => return TaskEnd::Exit(WorkerExit::Refused),
        Ok(_) => {}
        Err(_) => return TaskEnd::Exit(WorkerExit::Disconnected),
    }
    // Injected mid-evaluation crash: die silently, never speak again.
    if let Some(plan) = &config.faults {
        if plan.worker_kill(worker, task.id, task.attempt) {
            return TaskEnd::Exit(WorkerExit::Killed);
        }
    }
    // Evaluate on a helper thread while this loop keeps heartbeating —
    // a busy worker must not look dead just because the evaluation
    // outlasts the death timeout.
    let outcome = std::thread::scope(|scope| {
        let eval = scope.spawn(|| evaluate_task(&task));
        while !eval.is_finished() {
            std::thread::sleep(beat);
            *seq += 1;
            if let Some(plan) = &config.faults {
                if plan.heartbeat_loss(worker, *seq) {
                    report.heartbeats_lost += 1;
                    continue;
                }
            }
            report.heartbeats += 1;
            // The center answers a busy worker's beat with a plain ack
            // (it never double-assigns); an Error here means we were
            // declared dead anyway — finish and deliver regardless, the
            // late result still warms the center's cache.
            let _ = transport(&Request::Heartbeat {
                worker: worker.clone(),
                seq: *seq,
            });
        }
        eval.join().expect("evaluation thread panicked")
    });
    report.evaluations += 1;
    // Deliver, retrying through injected link drops. Each attempt uses
    // fresh fault coordinates, so a lossy (but not severed) link
    // eventually lets one through. While the Complete frame is in flight
    // the worker is necessarily silent — the transport is one blocking
    // connection — so the monitor's death timeout must dominate a frame
    // round-trip (the production default of 2s comfortably does).
    for attempt in 0..DELIVERY_ATTEMPTS {
        if let Some(plan) = &config.faults {
            if plan.link_drop(worker, task.id, attempt) {
                report.link_drops += 1;
                // The frame is lost; from here the worker is silent
                // until the next try (no heartbeat — a wedged link and a
                // wedged worker look the same from the center).
                std::thread::sleep(beat);
                continue;
            }
        }
        return match transport(&Request::Complete {
            worker: worker.clone(),
            task: task.id,
            outcome: outcome.clone(),
        }) {
            Ok(Response::Assign { task }) => TaskEnd::Next(Some(task)),
            Ok(Response::HeartbeatAck { .. }) => TaskEnd::Idle,
            Ok(Response::Reassigned { .. }) => {
                report.deposed += 1;
                TaskEnd::Idle
            }
            Ok(Response::Error { .. }) => TaskEnd::Exit(WorkerExit::Refused),
            Ok(_) => TaskEnd::Idle,
            Err(_) => TaskEnd::Exit(WorkerExit::Disconnected),
        };
    }
    TaskEnd::Exit(WorkerExit::LinkDead)
}

/// Executes one task exactly as the center's in-process pool would:
/// rebuild the engine and a throwaway environment from the task's
/// snapshot, evaluate through a private cache so the cache-fill path
/// produces the canonical [`relm_tune::CachedEval`], and ship that.
/// The engine counts on an enabled handle of its own, so the entry
/// carries the live run's counter totals for the center's replay to
/// book; its spans and histograms are dropped with it.
/// Public so fault-injection tests can play a worker by hand.
pub fn evaluate_task(task: &FleetTask) -> EvalOutcome {
    let started = Instant::now();
    let mut engine = Engine::new(task.cluster.clone())
        .with_cost_model(task.cost)
        .with_obs(Obs::enabled());
    if let Some(plan) = &task.faults {
        engine = engine.with_faults(plan.clone());
    }
    let store = EvalStore::new();
    let mut env = TuningEnv::new(engine, task.app.clone(), task.seed)
        .with_retry_policy(task.retry)
        .with_cache(store.clone());
    let key = env.eval_key(&task.config);
    let _ = env.evaluate(&task.config);
    let eval = store
        .get(&key)
        .expect("cache-fill path stores the evaluation it just ran");
    EvalOutcome {
        eval: (*eval).clone(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}
