//! The tuning service: a registry of concurrent sessions multiplexed onto
//! a fixed `std::thread` worker pool, sized once at start.
//!
//! ## Scheduling model
//!
//! Each session owns its own [`TuningEnv`] (engine clone, seed chain,
//! history). Work arrives as per-session FIFO queues of configurations to
//! evaluate. Ready sessions wait in one queue per [`Priority`] class, and
//! workers pull through a *deficit-weighted round-robin*: each replenish
//! round grants every backlogged class its weight in pulls (4 high, 2
//! normal, 1 low), higher classes spend their credit first, and a class
//! that runs dry forfeits the rest of its round. High-priority sessions
//! therefore see proportionally less queueing under load, while every
//! backlogged class still progresses every round — weighted fairness, not
//! strict priority, so a low-priority session can be slowed but never
//! starved. Within a class, sessions round-robin FIFO exactly as before.
//!
//! A worker pops the next scheduled session, takes its environment, runs
//! exactly one evaluation, puts the environment back, and re-enqueues the
//! session at the back of its class if it still has pending work. At most
//! one evaluation of a given session is ever in flight, so a session's
//! history is produced by a serial program — which is the whole
//! determinism argument:
//!
//! * the seed chain advances inside the session's own `TuningEnv`,
//! * fault injection is site-addressed (pure function of plan seed +
//!   site), and
//! * no evaluation reads anything outside its session.
//!
//! Therefore a session's observation history is **byte-identical** whether
//! the pool has 1 worker or 8, whatever other sessions run next to it, and
//! whatever its priority class — scheduling decides *when* an evaluation
//! runs, never *what it computes*.
//!
//! ## Backpressure
//!
//! Admission control is explicit: a bounded pending queue per session,
//! plus *per-class* shares of the global bound
//! ([`Priority::admission_share`]): low-priority steps are rejected once
//! the global queue is half full, normal at three quarters, high may fill
//! it completely. Under sustained overload the service thus degrades in
//! priority order — low-priority clients see [`Response::Overloaded`]
//! first while high-priority traffic still lands — and it never buffers
//! without bound. A rejected batch is rejected whole, and the client
//! learns the queue depths that triggered the rejection.
//!
//! ## Idle-session eviction
//!
//! A session that sits idle while others work is a memory liability, not
//! a correctness hazard — so when [`ServeConfig::evict_after_evals`] is
//! set, the service checkpoints idle sessions to
//! `<checkpoint_dir>/<session>.ckpt.json`, one file each, and unloads
//! their environments. The [`SessionCheckpoint`](relm_tune::SessionCheckpoint)
//! carries the environment's whole state, so the session keeps nothing
//! beside it. The idle clock is *evaluation-count epochs*, never wall
//! time: a session is cold once `evict_after_evals` service-wide
//! completions have passed since it last finished one. An evicted
//! session resumes transparently from its
//! checkpoint on the next request that needs its environment. Eviction
//! drops the session's GP fitter, which the next guided search that needs
//! it rebuilds by replaying the exact fit schedule, so histories and
//! proposals stay byte-identical across any number of evict/resume cycles
//! (`serve.evictions` / `serve.resumes` count them). Resume deletes the
//! session's file. `Drain` resumes every evicted session, then writes all
//! sessions' checkpoints into one log, `<checkpoint_dir>/drain.ckpt.jsonl`,
//! so after a clean drain the log is the directory's only file.
//!
//! ## Layout
//!
//! [`Service`] is the facade. This module holds it, its configuration,
//! the request handlers and the worker loop; each policy lives in a
//! private submodule under the one state lock: `scheduler` (ready queues,
//! DWRR, admission gate), `residency` (eviction and resume), `guided`
//! (GP proposal state and the memo of EI searches) and `drain` (graceful
//! shutdown).

mod drain;
mod guided;
mod residency;
mod scheduler;

use crate::protocol::{
    Priority, Request, Response, SessionSpec, SessionStatus, DEFAULT_MAX_FRAME_BYTES,
};
use crate::slo::SloTracker;
use guided::{guided_home_locked, not_idle, GuidedState, Proposal, ProposalMemo};
use relm_app::{AppSpec, Engine, EngineCostModel};
use relm_cluster::ClusterSpec;
use relm_common::{MemoryConfig, Rng};
use relm_faults::FaultPlan;
use relm_memory::{build_prior, normalize_label, MemoryStore, PriorBundle};
use relm_obs::{trace, FlightEvent, FlightRecorder, Obs, DEFAULT_FLIGHT_CAPACITY};
use relm_tune::{
    recommendation, session_export, CachedEval, ConfigSpace, EvalKey, RetryPolicy, TuningEnv,
};
use residency::{drain_log_path, evict_one_locked, maybe_evict_locked, resume_session};
use scheduler::Scheduler;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Who runs the evaluations the service admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// The classic mode: a bounded in-process `std::thread` pool pulls
    /// ready sessions and evaluates inline.
    InProcess,
    /// Fleet mode: no in-process evaluation threads. An attached
    /// [`FleetRouter`] (the fleet center) leases evaluations via
    /// [`Service::lease_next`], farms them to remote workers, and commits
    /// outcomes via [`Service::commit_lease`] — every commit replays
    /// through the shared evaluation cache, so histories stay
    /// byte-identical to a local run.
    External,
}

/// Service limits and pool sizing.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads evaluating configurations, spawned once by
    /// [`Service::start`]. At least 1 (ignored in [`Execution::External`]
    /// mode, which spawns none).
    pub workers: usize,
    /// Maximum sessions not cancelled. `Cancel` frees a slot; the
    /// cancelled session stays registered, so `Status`, `Result` and
    /// `Drain` still see it.
    pub max_sessions: usize,
    /// Pending-evaluation bound per session.
    pub session_queue_limit: usize,
    /// Pending-evaluation bound across all sessions.
    pub global_queue_limit: usize,
    /// Frame bound for the wire protocol.
    pub max_frame_bytes: usize,
    /// Where session checkpoints land: eviction writes
    /// `<session>.ckpt.json` per evicted session and resume deletes it, and
    /// `Drain` writes every session into one log, `drain.ckpt.jsonl`
    /// ([`SessionCheckpoint::load_log`](relm_tune::SessionCheckpoint::load_log)
    /// reads it). `None` skips checkpointing and disables eviction.
    pub checkpoint_dir: Option<PathBuf>,
    /// Idle-session eviction threshold, in service-wide completed
    /// evaluations (an evaluation-count epoch clock — never wall time, so
    /// the deterministic path stays deterministic): a session that
    /// completed work but has seen `evict_after_evals` other completions
    /// since its own last one is checkpointed to disk and its environment
    /// unloaded. `0` (the default) disables eviction sweeps; explicit
    /// [`Request::Evict`] still works whenever
    /// [`checkpoint_dir`](ServeConfig::checkpoint_dir) is set.
    pub evict_after_evals: usize,
    /// Where flight-recorder dumps land (`results/flightrec/` by
    /// convention): one per faulted evaluation, one per session on
    /// `Drain`, one per explicit `Dump` request. `None` disables dumping
    /// to disk; the in-memory rings and the `Trace` endpoint still work.
    pub flightrec_dir: Option<PathBuf>,
    /// Cross-session tuning memory: the JSONL store `Drain` ingests
    /// session digests into and warm-started sessions
    /// ([`SessionSpec::warm_start`]) retrieve priors from. Loaded once at
    /// startup (a missing file is an empty store); saved atomically on
    /// `Drain`. `None` disables both ingest and retrieval.
    pub memory_store: Option<PathBuf>,
    /// Who evaluates: the in-process pool or an attached fleet center.
    pub execution: Execution,
    /// Per-connection read/idle bound on the TCP frontend: a connection
    /// that sends no complete frame within this window is closed (counted
    /// as `serve.conn_timeouts`), so a hung or half-open client cannot
    /// pin a connection thread forever. `None` disables the bound.
    pub conn_idle_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            max_sessions: 64,
            session_queue_limit: 32,
            global_queue_limit: 256,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            checkpoint_dir: None,
            evict_after_evals: 0,
            flightrec_dir: None,
            memory_store: None,
            execution: Execution::InProcess,
            conn_idle_timeout: Some(Duration::from_secs(600)),
        }
    }
}

/// The fleet center's side of the service↔fleet contract. The service
/// routes fleet-protocol requests (`Register`/`Heartbeat`/`Ack`/
/// `Complete`) to the attached router and asks it to clear reassignment
/// limbo during a drain. Stored as a [`Weak`] so the center (which owns
/// an `Arc<Service>`) never forms a reference cycle.
///
/// Lock-ordering rule: the router may call back into the service
/// ([`Service::lease_next`], [`Service::commit_lease`], …), so the
/// service never invokes the router while holding its state lock.
pub trait FleetRouter: Send + Sync {
    /// Handles one fleet-protocol request.
    fn route(&self, request: &Request) -> Response;
    /// Drain support: run every queued or orphaned task dry — locally if
    /// no live worker will take it — and return only when no fleet task
    /// is outstanding. `Drain` must never drop a task in reassignment
    /// limbo.
    fn drain_assist(&self);
    /// Lifetime task reassignments, reported in the drain tally so it
    /// reconciles against the `fleet.reassignments` counter.
    fn reassignments(&self) -> usize;
}

/// One evaluation leased out of the service's queues for external
/// execution: the session's next queued configuration plus everything the
/// engine's outcome is a pure function of, snapshotted from the session's
/// environment at lease time. The environment stays home (marked
/// running); the lease must eventually come back through
/// [`Service::commit_lease`].
#[derive(Debug)]
pub struct EvalLease {
    /// The session the evaluation belongs to.
    pub session: String,
    /// The configuration to evaluate.
    pub config: MemoryConfig,
    /// The session's seed-chain position for this evaluation.
    pub seed: u64,
    /// The evaluation's content-addressed identity — the fleet's dedup
    /// key: equal keys are the same cell and must be paid for at most
    /// once.
    pub key: EvalKey,
    /// Application under test.
    pub app: AppSpec,
    /// Cluster the engine simulates.
    pub cluster: ClusterSpec,
    /// Engine cost model.
    pub cost: EngineCostModel,
    /// Retry/recovery policy.
    pub retry: RetryPolicy,
    /// The session's seeded fault plan, if any.
    pub faults: Option<FaultPlan>,
    /// The session's scheduling class. The fleet center's task table
    /// orders queued tasks by it, so priorities survive
    /// [`Execution::External`] leasing — a remote fleet assigns
    /// high-priority work first exactly as the in-process pool runs it
    /// first.
    pub priority: Priority,
    /// Trace context of the admitting request, restored at commit.
    trace: u64,
    /// Telemetry-clock enqueue timestamp, for the queue-wait span.
    enqueued_us: u64,
    /// Wall-clock enqueue instant, for the queue-wait cost mirror.
    enqueued_at: Instant,
}

/// Nearest past sessions a warm-started session retrieves from the
/// memory store.
const MEMORY_RETRIEVE_K: usize = 3;

/// One admitted evaluation waiting in a session's FIFO, carrying the
/// trace context of the request that enqueued it so the worker that
/// eventually runs it can re-enter the same trace.
struct QueuedEval {
    config: MemoryConfig,
    /// Trace id of the admitting request (see [`trace::trace_id`]).
    trace: u64,
    /// Telemetry-clock enqueue timestamp ([`Obs::now_us`]) — the start of
    /// the `serve.queue_wait` span the worker closes at dequeue.
    enqueued_us: u64,
    /// Wall-clock enqueue instant, for the session's queue-wait cost
    /// mirror (works even when telemetry is disabled).
    enqueued_at: Instant,
}

/// One registered tuning session.
struct Session {
    name: String,
    /// The creating spec, retained so an evicted session's engine can be
    /// rebuilt at resume exactly as `create_session` built it.
    spec: SessionSpec,
    /// Scheduling class: decides *when* this session's evaluations run
    /// and how soon it sees `Overloaded` pushback — never what its
    /// evaluations compute.
    priority: Priority,
    /// The environment, absent while one of its evaluations is on a
    /// worker — or while the session is evicted to disk.
    env: Option<TuningEnv>,
    /// Whether the environment currently lives on disk as a checkpoint
    /// (`<name>.ckpt.json`) instead of in memory.
    evicted: bool,
    /// Eviction clock: the service-wide evaluation count when this
    /// session last completed an evaluation.
    last_active: usize,
    /// Deterministic sampler behind `StepAuto` — a pure function of the
    /// session spec, never of request timing.
    sampler: Rng,
    /// The tuned space, cloned out of the environment so `StepAuto` can
    /// decode samples while the environment is on a worker.
    space: ConfigSpace,
    /// GP proposal state for `StepGuided`.
    guided: GuidedState,
    /// Seed of the guided proposal stream, folded from the session spec.
    guided_seed: u64,
    /// Normalized workload label, the memory store's retrieval key and
    /// the digest identity `Drain` ingests under.
    workload_label: String,
    /// Base seed of the spec, part of the digest identity.
    base_seed: u64,
    /// Warm-start prior retrieved at creation; empty for cold sessions
    /// and on retrieval miss. A pure function of the spec and the store
    /// contents at creation, so warm sessions stay deterministic. Shared
    /// with each guided proposal computed from it.
    prior: Arc<PriorBundle>,
    pending: VecDeque<QueuedEval>,
    /// Whether the session currently sits in the ready queue.
    queued: bool,
    /// Whether one of its evaluations is currently on a worker.
    running: bool,
    cancelled: bool,
    /// Per-session request sequence — with the session name it derives
    /// each request's deterministic trace id.
    seq: u64,
    /// Flight recorder: recent spans and protocol events for this
    /// session, frozen to disk on faults, drain, or explicit `Dump`.
    flight: Arc<FlightRecorder>,
    // Mirrors of environment state, maintained by the workers so `Status`
    // never has to wait for the environment to come back.
    completed: usize,
    censored: usize,
    best_score_mins: Option<f64>,
    // Cost-attribution mirrors, refreshed by the worker each time the
    // environment comes home.
    stress_time_ms: f64,
    retries: u32,
    evalcache_hits: u64,
    /// Cumulative wall-clock queue wait, telemetry only.
    queue_wait_ms: f64,
}

impl Session {
    fn status(&self) -> SessionStatus {
        SessionStatus {
            session: self.name.clone(),
            priority: self.priority,
            evicted: self.evicted,
            pending: self.pending.len(),
            running: self.running,
            completed: self.completed,
            censored: self.censored,
            best_score_mins: self.best_score_mins,
            cancelled: self.cancelled,
            stress_time_ms: self.stress_time_ms,
            retries: self.retries,
            evalcache_hits: self.evalcache_hits,
            queue_wait_ms: self.queue_wait_ms,
        }
    }
}

/// Mutable service state behind the lock.
struct State {
    sessions: BTreeMap<String, Session>,
    /// Registered sessions not cancelled: what the session-table bound
    /// ([`ServeConfig::max_sessions`]) counts.
    open_sessions: usize,
    /// Ready queues, queue and running counts, and the admission gate.
    sched: Scheduler,
    /// Total evaluations completed across all sessions (lifetime) — also
    /// the eviction epoch clock.
    evaluations: usize,
    /// Lifetime eviction/resume tallies, mirrored by the
    /// `serve.evictions` / `serve.resumes` counters and reported by
    /// `Drain` so scrapes reconcile exactly.
    evictions: usize,
    resumes: usize,
    draining: bool,
    stopped: bool,
    /// Test hook: workers leave the ready queue untouched while paused,
    /// letting scheduling tests stage a backlog deterministically.
    paused: bool,
    next_session: u64,
    /// Sequence for requests that address no session (ping, drain,
    /// metrics, create); their trace ids derive from `"service"` + this.
    next_trace: u64,
}

struct Shared {
    config: ServeConfig,
    obs: Obs,
    /// Shared evaluation cache: one process-wide handle, attached to a
    /// session's environment only when its spec opts in
    /// (`SessionSpec::use_cache`). Instrumented on the service's obs
    /// handle (`evalcache.*`).
    cache: relm_tune::EvalStore,
    /// Memoized EI searches of cache-opted sessions' guided steps: a
    /// repeated step takes its proposal and its post-search RNG from here
    /// instead of searching again. Uninstrumented, so `evalcache.*` keeps
    /// counting evaluations only; it lives as long as the service, like
    /// `cache`, and a session adds one small entry per guided proposal.
    proposals: ProposalMemo,
    state: Mutex<State>,
    /// Windowed SLO instruments fed by the evaluation path.
    slo: SloTracker,
    /// Wakes workers when work arrives or the service stops.
    work: Condvar,
    /// Wakes `Join`/`Drain` waiters when an evaluation completes.
    done: Condvar,
    /// The attached fleet center, if any ([`Execution::External`]).
    router: Mutex<Option<Weak<dyn FleetRouter>>>,
    /// Cross-session tuning memory, present when
    /// [`ServeConfig::memory_store`] is set. Lock-ordering rule: never
    /// held together with the state lock — retrieval happens before
    /// session registration, ingest after the drain tally settles.
    memory: Mutex<Option<MemoryStore>>,
}

impl Shared {
    fn refresh_gauges(&self, state: &State) {
        self.obs
            .gauge("serve.sessions.active", state.sessions.len() as f64);
        state.sched.publish(&self.obs);
    }
}

/// The concurrent tuning service. Cheap to share behind an [`Arc`];
/// dropping the last handle stops and joins the worker pool.
pub struct Service {
    shared: Arc<Shared>,
    /// The worker pool, spawned once in [`Service::start`] and joined on
    /// shutdown.
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool and returns the service handle.
    pub fn start(config: ServeConfig, obs: Obs) -> Self {
        let cache = relm_tune::EvalStore::instrumented(obs.clone());
        // Load the memory store up front: a corrupt store surfaces at
        // startup, not mid-drain, and retrieval never touches disk. A
        // store that fails to load (another kind, a future version, a
        // damaged header) leaves the run without memory: warm starts fall
        // back to cold and the drain never overwrites the file.
        let memory = config.memory_store.as_ref().and_then(|path| {
            MemoryStore::load_or_empty(path, obs.clone())
                .map_err(|_| obs.inc("memory.load_errors"))
                .ok()
        });
        let sched = Scheduler::new(config.session_queue_limit, config.global_queue_limit);
        let shared = Arc::new(Shared {
            config: ServeConfig {
                workers: config.workers.max(1),
                ..config
            },
            obs,
            cache,
            proposals: ProposalMemo::new(),
            state: Mutex::new(State {
                sessions: BTreeMap::new(),
                open_sessions: 0,
                sched,
                evaluations: 0,
                evictions: 0,
                resumes: 0,
                draining: false,
                stopped: false,
                paused: false,
                next_session: 1,
                next_trace: 0,
            }),
            slo: SloTracker::new(),
            work: Condvar::new(),
            done: Condvar::new(),
            router: Mutex::new(None),
            memory: Mutex::new(memory),
        });
        shared.refresh_gauges(&shared.state.lock().expect("service state poisoned"));
        let pool = match shared.config.execution {
            // Fleet mode: evaluations leave through `lease_next`, not an
            // in-process pool.
            Execution::External => 0,
            Execution::InProcess => shared.config.workers,
        };
        let workers = (0..pool)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("relm-serve-worker-{idx}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Service { shared, workers }
    }

    /// Attaches the fleet center. Fleet-protocol requests route to it;
    /// `Drain` asks it to clear reassignment limbo before tallying.
    pub fn set_router(&self, router: Weak<dyn FleetRouter>) {
        *self.shared.router.lock().expect("router slot poisoned") = Some(router);
    }

    /// The attached fleet center, if it is still alive.
    fn router(&self) -> Option<Arc<dyn FleetRouter>> {
        self.shared
            .router
            .lock()
            .expect("router slot poisoned")
            .as_ref()
            .and_then(Weak::upgrade)
    }

    /// The service's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// The configured limits.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Derives the request's deterministic trace id and, for
    /// session-addressed requests, the session's flight recorder. The
    /// id is a pure function of the session name and that session's
    /// request sequence (or of the service-wide sequence for requests
    /// addressing no session) — never of wall clock or randomness, so a
    /// replayed request stream reproduces its trace ids exactly.
    fn begin_trace(&self, request: &Request) -> (u64, Option<Arc<FlightRecorder>>) {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        match request.session() {
            Some(name) => match state.sessions.get_mut(name) {
                Some(sess) => {
                    sess.seq += 1;
                    (
                        trace::trace_id(name, sess.seq),
                        Some(Arc::clone(&sess.flight)),
                    )
                }
                // Unknown session: still a deterministic id, no ring to
                // record into.
                None => (trace::trace_id(name, 0), None),
            },
            None => {
                state.next_trace += 1;
                (trace::trace_id("service", state.next_trace), None)
            }
        }
    }

    /// The flight recorder of `session`, if registered.
    fn flight_of(&self, session: &str) -> Option<Arc<FlightRecorder>> {
        let state = self.shared.state.lock().expect("service state poisoned");
        state.sessions.get(session).map(|s| Arc::clone(&s.flight))
    }

    /// Handles one request — the single dispatch point shared by the
    /// in-process client and the TCP frontend. Enters the request's trace
    /// scope (so every span the request produces on this thread carries
    /// its trace id), records per-endpoint latency
    /// (`serve.endpoint.<name>_ms`) and request counters, and mirrors the
    /// request lifecycle into the session's flight recorder.
    pub fn handle(&self, request: &Request) -> Response {
        let start = Instant::now();
        let (endpoint, requests_counter, latency_histogram) = request.metric_names();
        let obs = &self.shared.obs;
        let (trace_id, flight) = self.begin_trace(request);
        let _scope = trace::enter(trace_id);
        if let Some(flight) = &flight {
            flight.record(FlightEvent::Protocol {
                trace: trace_id,
                event: format!("request.{endpoint}"),
                at_us: obs.now_us(),
                detail: String::new(),
            });
        }
        let mut span = obs.span("serve.request");
        span.set("endpoint", endpoint);
        if let Some(session) = request.session() {
            span.set("session", session);
        }
        let response = self.dispatch(request);
        obs.inc(requests_counter);
        obs.record(latency_histogram, start.elapsed().as_secs_f64() * 1e3);
        if matches!(response, Response::Overloaded { .. }) {
            obs.inc("serve.rejected.overloaded");
            obs.inc(&format!("serve.rejected.overloaded.{endpoint}"));
            self.shared.slo.record_rejection(obs);
        }
        let record = span.finish();
        // `CreateSession` has no ring until dispatch registers one; its
        // accept/response events land in the newborn session's ring.
        let flight = flight.or_else(|| match &response {
            Response::SessionCreated { session } => self.flight_of(session),
            _ => None,
        });
        if let Some(flight) = flight {
            flight.record(FlightEvent::Protocol {
                trace: trace_id,
                event: format!("response.{}", response.label()),
                at_us: obs.now_us(),
                detail: String::new(),
            });
            if let Some(record) = record {
                flight.record_span(record);
            }
        }
        response
    }

    fn dispatch(&self, request: &Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::CreateSession { spec } => self.create_session(spec),
            Request::Step { session, configs } => self.step(session, configs.clone()),
            Request::StepAuto { session, evals } => self.step_auto(session, *evals),
            Request::StepGuided { session, evals } => self.step_guided(session, *evals),
            Request::Status { session } => self.status(session),
            Request::Join { session } => self.join(session),
            Request::Result { session } => self.result(session),
            Request::Cancel { session } => self.cancel(session),
            Request::Evict { session } => self.evict(session),
            Request::Drain => self.drain(),
            Request::Metrics => self.metrics(),
            Request::Trace { session } => self.trace_ring(session),
            Request::Dump { session } => self.dump(session),
            Request::Register { .. }
            | Request::Heartbeat { .. }
            | Request::Ack { .. }
            | Request::Complete { .. } => match self.router() {
                Some(router) => router.route(request),
                None => Response::Error {
                    message: "no fleet center attached".into(),
                },
            },
        }
    }

    /// Live metrics scrape: one snapshot captured from the registry,
    /// shipped both structured and as Prometheus text rendered *from that
    /// same capture* — the two halves cannot disagree. The SLO gauges are
    /// published first, so the scrape reads the live window; that holds
    /// the window's mutex for one summary. Capturing reads the registry
    /// under its shared locks and never blocks the workers.
    fn metrics(&self) -> Response {
        self.shared.slo.publish(&self.shared.obs);
        let snapshot = self.shared.obs.metrics_snapshot();
        let expo = relm_obs::render_prometheus(&snapshot);
        Response::Metrics { snapshot, expo }
    }

    /// The session's flight-recorder ring, without touching disk.
    fn trace_ring(&self, session: &str) -> Response {
        let Some(flight) = self.flight_of(session) else {
            return Response::Error {
                message: format!("unknown session `{session}`"),
            };
        };
        let (events, dropped) = flight.snapshot();
        Response::Trace {
            session: session.to_string(),
            dropped,
            events,
        }
    }

    /// Writes the session's flight recorder to the configured directory.
    fn dump(&self, session: &str) -> Response {
        let Some(dir) = &self.shared.config.flightrec_dir else {
            return Response::Error {
                message: "no flight-recorder directory configured".into(),
            };
        };
        let Some(flight) = self.flight_of(session) else {
            return Response::Error {
                message: format!("unknown session `{session}`"),
            };
        };
        let dump = flight.dump(session, "request");
        match relm_obs::save_dump(dir, &dump) {
            Ok(path) => {
                self.shared.obs.inc("serve.flightrec.dumps");
                Response::Dumped {
                    session: session.to_string(),
                    path: path.display().to_string(),
                    events: dump.events.len(),
                }
            }
            Err(e) => {
                self.shared.obs.inc("serve.flightrec.errors");
                Response::Error {
                    message: format!("flight dump failed: {e}"),
                }
            }
        }
    }

    fn create_session(&self, spec: &SessionSpec) -> Response {
        let env = match build_env(&self.shared, spec) {
            Ok(env) => env,
            Err(message) => return Response::Error { message },
        };
        // The digest identity follows the application actually tuned, so
        // an explicit `app` spec warm-matches sessions of the same app.
        let workload_label = normalize_label(&env.app().name);
        // Warm-start retrieval happens *before* the state lock (the
        // memory and state locks are never held together) and is a pure
        // function of the spec and the store contents, so the prior — and
        // everything guided proposals derive from it — replays
        // byte-identically against the same store.
        let prior = if spec.warm_start {
            let memory = self.shared.memory.lock().expect("memory store poisoned");
            match memory.as_ref() {
                Some(store) => match store.fingerprint_for_workload(&workload_label) {
                    Some(query) => {
                        let hits = store.retrieve(&query, MEMORY_RETRIEVE_K);
                        let prior = build_prior(&hits, env.space(), relm_memory::DEFAULT_PRIOR_CAP);
                        self.shared
                            .obs
                            .add("memory.prior_obs", prior.gp_obs.len() as f64);
                        prior
                    }
                    None => {
                        self.shared.obs.inc("memory.warm_misses");
                        PriorBundle::empty()
                    }
                },
                None => {
                    self.shared.obs.inc("memory.warm_misses");
                    PriorBundle::empty()
                }
            }
        } else {
            PriorBundle::empty()
        };
        let mut state = self.shared.state.lock().expect("service state poisoned");
        if state.draining || state.stopped {
            return Response::Error {
                message: "service is draining".into(),
            };
        }
        if state.open_sessions >= self.shared.config.max_sessions {
            return Response::Overloaded {
                reason: format!(
                    "session table full ({} sessions)",
                    self.shared.config.max_sessions
                ),
                session_pending: 0,
                global_pending: state.sched.pending(),
            };
        }
        let name = format!("s-{:04}", state.next_session);
        state.next_session += 1;
        let space = env.space().clone();
        // The sampler seed folds the base seed with the workload name, so
        // two sessions differing only in workload draw different auto
        // sequences — and the sequence never depends on request timing.
        let sampler = Rng::new(spec.base_seed).fork(str_hash(&spec.workload) | 1);
        // A distinct stream for guided proposals, so interleaving auto and
        // guided steps never couples their draws.
        let guided_seed = spec.base_seed ^ str_hash(&spec.workload) ^ str_hash("guided");
        state.sessions.insert(
            name.clone(),
            Session {
                name: name.clone(),
                spec: spec.clone(),
                priority: spec.priority,
                env: Some(env),
                evicted: false,
                last_active: 0,
                sampler,
                space,
                guided: GuidedState::new(guided_seed),
                guided_seed,
                workload_label,
                base_seed: spec.base_seed,
                prior: Arc::new(prior),
                pending: VecDeque::new(),
                queued: false,
                running: false,
                cancelled: false,
                seq: 0,
                flight: Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
                completed: 0,
                censored: 0,
                best_score_mins: None,
                stress_time_ms: 0.0,
                retries: 0,
                evalcache_hits: 0,
                queue_wait_ms: 0.0,
            },
        );
        state.open_sessions += 1;
        self.shared.obs.inc("serve.sessions.created");
        self.shared.refresh_gauges(&state);
        Response::SessionCreated { session: name }
    }

    /// Admits a batch of evaluations into a session's FIFO, all or
    /// nothing.
    fn admit(&self, session: &str, configs: Vec<MemoryConfig>) -> Response {
        let shared = &self.shared;
        let mut state = shared.state.lock().expect("service state poisoned");
        let response = Self::admit_locked(shared, &mut state, session, configs);
        drop(state);
        if matches!(response, Response::Accepted { .. }) {
            shared.work.notify_all();
        }
        response
    }

    /// The admission path on an already-held state lock, shared by
    /// [`Service::admit`], the auto step (which draws, admits and commits
    /// its sampler under one acquisition, so concurrent requests never
    /// draw from the same sampler state) and the guided step (which checks
    /// under the same acquisition that the history it fitted on has not
    /// moved). The caller notifies `work` after releasing the lock on
    /// acceptance.
    fn admit_locked(
        shared: &Arc<Shared>,
        state: &mut State,
        session: &str,
        configs: Vec<MemoryConfig>,
    ) -> Response {
        if state.draining || state.stopped {
            return Response::Error {
                message: "service is draining".into(),
            };
        }
        let Some(sess) = state.sessions.get_mut(session) else {
            return Response::Error {
                message: format!("unknown session `{session}`"),
            };
        };
        if sess.cancelled {
            return Response::Error {
                message: format!("session `{session}` is cancelled"),
            };
        }
        let (priority, session_pending) = (sess.priority, sess.pending.len());
        if let Err(reason) = state
            .sched
            .gate(&shared.obs, priority, session_pending, configs.len())
        {
            return Response::Overloaded {
                reason,
                session_pending,
                global_pending: state.sched.pending(),
            };
        }
        let enqueued = configs.len();
        // Carry the admitting request's trace context with each queued
        // evaluation, so the worker that eventually runs it re-enters the
        // same trace and the queue-wait span covers enqueue → dequeue.
        let trace = trace::current().unwrap_or(0);
        let enqueued_us = shared.obs.now_us();
        let enqueued_at = Instant::now();
        sess.pending
            .extend(configs.into_iter().map(|config| QueuedEval {
                config,
                trace,
                enqueued_us,
                enqueued_at,
            }));
        if !sess.queued && !sess.running && !sess.pending.is_empty() {
            sess.queued = true;
            state.sched.push_ready(priority, sess.name.clone());
        }
        state.sched.enqueue(priority, enqueued);
        shared.obs.add("serve.enqueued", enqueued as f64);
        shared.refresh_gauges(state);
        Response::Accepted {
            session: session.to_string(),
            enqueued,
        }
    }

    fn step(&self, session: &str, configs: Vec<MemoryConfig>) -> Response {
        if configs.is_empty() {
            return Response::Error {
                message: "step carries no configurations".into(),
            };
        }
        for config in &configs {
            if let Err(e) = config.check() {
                return Response::Error {
                    message: format!("invalid configuration: {e}"),
                };
            }
        }
        self.admit(session, configs)
    }

    fn step_auto(&self, session: &str, evals: u32) -> Response {
        if evals == 0 {
            return Response::Error {
                message: "step carries no configurations".into(),
            };
        }
        // Draw, admit and commit under one lock acquisition, so two
        // requests on one session never draw from the same sampler state.
        // Draws must not be lost on rejection, so sample from a *copy* of
        // the sampler and only commit it on admission.
        let shared = &self.shared;
        let mut state = shared.state.lock().expect("service state poisoned");
        let Some(sess) = state.sessions.get(session) else {
            return Response::Error {
                message: format!("unknown session `{session}`"),
            };
        };
        let mut sampler = sess.sampler.clone();
        let configs: Vec<MemoryConfig> = (0..evals)
            .map(|_| {
                let x = [
                    sampler.uniform(),
                    sampler.uniform(),
                    sampler.uniform(),
                    sampler.uniform(),
                ];
                sess.space.decode(&x)
            })
            .collect();
        let response = Self::admit_locked(shared, &mut state, session, configs);
        if matches!(response, Response::Accepted { .. }) {
            let sess = state
                .sessions
                .get_mut(session)
                .expect("admitted session is registered");
            sess.sampler = sampler;
            drop(state);
            shared.work.notify_all();
        }
        response
    }

    /// Enqueues `evals` GP-proposed configurations.
    ///
    /// The session must be *idle* (nothing pending, nothing running): the
    /// surrogate is fitted on the settled history, so the proposals are a
    /// pure function of the session spec and that history — byte-identical
    /// whether the pool has 1 worker or 8, and however the request
    /// interleaves with other sessions. The GP fit and EI run without the
    /// state lock, between two acquisitions: the first checks the session
    /// and copies its proposal state and its settled history; the second
    /// admits the batch only if the session is still idle on the same
    /// history and fit count, and otherwise refuses it as not idle. The
    /// proposal state commits only on admission, so a rejected or
    /// discarded batch leaves the stream untouched. A cache-opted session
    /// takes each EI search it repeats from the service's proposal memo,
    /// which returns exactly what the search would compute; a batch
    /// answered wholly from it runs no fit either.
    fn step_guided(&self, session: &str, evals: u32) -> Response {
        if evals == 0 {
            return Response::Error {
                message: "step carries no configurations".into(),
            };
        }
        let shared = &self.shared;
        let mut proposal = {
            let mut state = shared.state.lock().expect("service state poisoned");
            if let Err(message) = guided_home_locked(shared, &mut state, session) {
                return Response::Error { message };
            }
            let Some(sess) = state.sessions.get(session) else {
                return Response::Error {
                    message: format!("unknown session `{session}`"),
                };
            };
            if sess.cancelled {
                return Response::Error {
                    message: format!("session `{session}` is cancelled"),
                };
            }
            if sess.running || !sess.pending.is_empty() {
                return not_idle(session);
            }
            match Proposal::prepare(sess) {
                Ok(proposal) => proposal,
                Err(message) => return Response::Error { message },
            }
        };
        // What the proposal is computed from; the batch is admitted only
        // if the session still stands here.
        let (fed, fits) = (proposal.fed(), proposal.guided.feeds.len());
        let configs = match proposal.run(shared, evals) {
            Ok(configs) => configs,
            Err(message) => return Response::Error { message },
        };
        let mut state = shared.state.lock().expect("service state poisoned");
        if let Err(message) = guided_home_locked(shared, &mut state, session) {
            return Response::Error { message };
        }
        // Another request may have stepped the session while the lock was
        // released; a proposal fitted on a superseded history is dropped.
        let moved = state.sessions.get(session).is_some_and(|sess| {
            sess.running
                || !sess.pending.is_empty()
                || sess.env.as_ref().map(|env| env.history().len()) != Some(fed)
                || sess.guided.feeds.len() != fits
        });
        if moved {
            return not_idle(session);
        }
        let response = Self::admit_locked(shared, &mut state, session, configs);
        if matches!(response, Response::Accepted { .. }) {
            let sess = state
                .sessions
                .get_mut(session)
                .expect("admitted session is registered");
            sess.guided = proposal.guided;
            drop(state);
            shared.work.notify_all();
        }
        response
    }

    fn status(&self, session: &str) -> Response {
        let state = self.shared.state.lock().expect("service state poisoned");
        match state.sessions.get(session) {
            Some(sess) => Response::Status(sess.status()),
            None => Response::Error {
                message: format!("unknown session `{session}`"),
            },
        }
    }

    /// Blocks until the session is idle (no pending, nothing running).
    fn join(&self, session: &str) -> Response {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        loop {
            match state.sessions.get(session) {
                None => {
                    return Response::Error {
                        message: format!("unknown session `{session}`"),
                    }
                }
                Some(sess) if !sess.running && sess.pending.is_empty() => {
                    return Response::Status(sess.status());
                }
                Some(_) => {
                    state = self
                        .shared
                        .done
                        .wait(state)
                        .expect("service state poisoned");
                }
            }
        }
    }

    /// Waits for the session to go idle, then exports its history and
    /// recommendation (the best observation so far).
    fn result(&self, session: &str) -> Response {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        loop {
            match state.sessions.get(session) {
                None => {
                    return Response::Error {
                        message: format!("unknown session `{session}`"),
                    }
                }
                Some(sess) if !sess.running && sess.pending.is_empty() => break,
                Some(_) => {
                    state = self
                        .shared
                        .done
                        .wait(state)
                        .expect("service state poisoned");
                }
            }
        }
        // An evicted session's history lives on disk: bring it home
        // before exporting. A live session passes straight through.
        if state.sessions.get(session).is_some_and(|s| s.evicted) {
            if let Err(message) = resume_session(&self.shared, &mut state, session) {
                return Response::Error { message };
            }
        }
        let sess = state.sessions.get(session).expect("checked above");
        let Some(env) = sess.env.as_ref() else {
            // Only a session whose eviction resume failed permanently
            // (and was failed like a cancel) lacks its environment here.
            return Response::Error {
                message: format!("session `{session}` lost its environment"),
            };
        };
        let Some(best) = env.best() else {
            return Response::Error {
                message: format!("session `{session}` has no completed evaluations"),
            };
        };
        let rec = recommendation("serve", env, best.config);
        Response::ResultReady {
            session: session.to_string(),
            export: session_export(env, &rec),
            history: env.history().to_vec(),
        }
    }

    fn cancel(&self, session: &str) -> Response {
        let shared = &self.shared;
        let mut state = shared.state.lock().expect("service state poisoned");
        let Some(discarded) = discard_locked(shared, &mut state, session) else {
            return Response::Error {
                message: format!("unknown session `{session}`"),
            };
        };
        drop(state);
        shared.done.notify_all();
        Response::Cancelled {
            session: session.to_string(),
            discarded,
        }
    }

    /// Explicit operator eviction ([`Request::Evict`]): checkpoint an
    /// idle session to disk and unload its environment. The automatic
    /// sweep ([`ServeConfig::evict_after_evals`]) takes the same path.
    fn evict(&self, session: &str) -> Response {
        let shared = &self.shared;
        let mut state = shared.state.lock().expect("service state poisoned");
        if state.draining || state.stopped {
            return Response::Error {
                message: "service is draining".into(),
            };
        }
        match evict_one_locked(shared, &mut state, session) {
            Ok(path) => Response::Evicted {
                session: session.to_string(),
                path,
            },
            Err(message) => Response::Error { message },
        }
    }

    /// Leases the next ready evaluation for external execution (fleet
    /// mode). Pops the front ready session's next queued configuration,
    /// marks the session running (its environment stays home, so status
    /// and guided-step gating behave exactly as with an in-process
    /// worker), and snapshots everything a remote worker needs. Returns
    /// `None` when nothing is ready or the service has stopped. Every
    /// lease must come back through [`Service::commit_lease`].
    pub fn lease_next(&self) -> Option<EvalLease> {
        let shared = &self.shared;
        let mut state = shared.state.lock().expect("service state poisoned");
        if state.stopped {
            return None;
        }
        let (name, item) = dequeue_locked(shared, &mut state)?;
        let sess = state
            .sessions
            .get_mut(&name)
            .expect("dequeued session is registered");
        let priority = sess.priority;
        let env = sess.env.as_mut().expect("idle session owns its env");
        Some(EvalLease {
            session: name,
            config: item.config,
            seed: env.next_seed(),
            key: env.eval_key(&item.config),
            app: env.app().clone(),
            cluster: env.engine().cluster().clone(),
            cost: *env.engine().cost_model(),
            retry: *env.retry_policy(),
            faults: env.engine().faults().cloned(),
            priority,
            trace: item.trace,
            enqueued_us: item.enqueued_us,
            enqueued_at: item.enqueued_at,
        })
    }

    /// Commits a lease: lands the evaluation in the session's history and
    /// releases the session for its next queued evaluation.
    ///
    /// With `Some(outcome)` — a remote worker's result — the outcome is
    /// first inserted into the shared cache under the lease's key; the
    /// session's environment then *replays* it (seed chain, retry time,
    /// counter totals, re-scoring against the current penalty baseline),
    /// which is byte-identical to having evaluated locally. With `None`
    /// the environment evaluates through the cache directly: a hit
    /// replays an outcome that already landed (cross-worker dedup, or a
    /// reassigned task whose first assignee delivered late); a miss runs
    /// the evaluation live in this process (the drain-assist path).
    ///
    /// Either way the commit is at-most-once *per lease*: the caller (the
    /// fleet center's task table) guarantees a lease enters this method
    /// exactly once, and the content-addressed key guarantees the same
    /// cell is never paid for twice across workers.
    pub fn commit_lease(&self, lease: EvalLease, outcome: Option<CachedEval>) {
        let shared = &self.shared;
        if let Some(eval) = outcome {
            shared.cache.insert(lease.key, eval);
        }
        let (env, flight) = {
            let mut state = shared.state.lock().expect("service state poisoned");
            let sess = state
                .sessions
                .get_mut(&lease.session)
                .expect("leased session is registered");
            (
                sess.env.take().expect("leased session keeps its env"),
                Arc::clone(&sess.flight),
            )
        };
        let item = QueuedEval {
            config: lease.config,
            trace: lease.trace,
            enqueued_us: lease.enqueued_us,
            enqueued_at: lease.enqueued_at,
        };
        run_session_eval(shared, &lease.session, env, item, flight);
    }

    /// True when no evaluation is pending or in flight — the condition
    /// `Drain` waits for. The fleet center's drain-assist polls this to
    /// close the race between a worker's final commit (which may ready
    /// another evaluation) and its own exit check.
    pub fn quiesced(&self) -> bool {
        let state = self.shared.state.lock().expect("service state poisoned");
        state.sched.idle()
    }

    /// True if the lease's outcome already sits in the shared cache —
    /// i.e. committing it needs no worker at all. Probed by the fleet
    /// center before assigning, so two workers never pay for the same
    /// (workload, config, seed, fault-plan) cell.
    pub fn outcome_cached(&self, lease: &EvalLease) -> bool {
        self.shared.cache.contains(&lease.key)
    }

    /// Inserts a late or deposed worker's outcome into the shared cache
    /// without committing anything: the reassigned run of the same cell
    /// will replay it instead of paying again. First write wins — a cell
    /// already present is left untouched.
    pub fn warm_cache(&self, key: EvalKey, eval: CachedEval) {
        if !self.shared.cache.contains(&key) {
            self.shared.cache.insert(key, eval);
        }
    }

    /// Stops the pool (draining first if the caller didn't) and joins the
    /// worker threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("service state poisoned");
            state.stopped = true;
        }
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The worker loop: pull the next scheduled session (deficit-weighted
/// round-robin across priority classes), run exactly one of its pending
/// evaluations, hand the session back to the scheduler.
///
/// The worker re-enters the trace scope carried with the queued item, so
/// the queue-wait and evaluate spans it opens join the spans the handler
/// thread recorded for the same request — one trace stitches TCP accept →
/// admission → queue wait → evaluation across threads.
fn worker_loop(shared: &Shared) {
    loop {
        let (name, env, item, flight) = {
            let mut state = shared.state.lock().expect("service state poisoned");
            loop {
                if state.stopped {
                    return;
                }
                if state.paused {
                    state = shared.work.wait(state).expect("service state poisoned");
                    continue;
                }
                if let Some((name, item)) = dequeue_locked(shared, &mut state) {
                    let sess = state
                        .sessions
                        .get_mut(&name)
                        .expect("dequeued session is registered");
                    let env = sess.env.take().expect("idle session owns its env");
                    let flight = Arc::clone(&sess.flight);
                    break (name, env, item, flight);
                }
                state = shared.work.wait(state).expect("service state poisoned");
            }
        };
        run_session_eval(shared, &name, env, item, flight);
    }
}

/// Pops the next scheduled session and moves its next queued evaluation
/// off the queue, for an in-process worker or a fleet lease alike. An
/// evicted session comes home first (running or leasing needs its
/// environment and seed chain); a failed resume fails the session like a
/// cancel, so joiners wake instead of hanging on lost work. The session
/// is marked running and the queue counts and gauges follow; the caller
/// takes or snapshots the environment.
fn dequeue_locked(shared: &Shared, state: &mut State) -> Option<(String, QueuedEval)> {
    loop {
        let name = state.sched.pop_ready()?;
        if resume_session(shared, state, &name).is_err() {
            discard_locked(shared, state, &name);
            shared.done.notify_all();
            continue;
        }
        let sess = state
            .sessions
            .get_mut(&name)
            .expect("ready session is registered");
        sess.queued = false;
        let item = sess
            .pending
            .pop_front()
            .expect("ready session has pending work");
        sess.running = true;
        state.sched.start(sess.priority);
        shared.refresh_gauges(state);
        return Some((name, item));
    }
}

/// Runs one dequeued evaluation through a session's environment and
/// publishes the completion: spans, SLO accounting, fault dumps, the
/// session's status mirrors, and rescheduling. Shared by the in-process
/// worker pool and the fleet commit path ([`Service::commit_lease`]) —
/// in the latter the "evaluation" is usually a cache replay of a remote
/// worker's outcome, which takes the identical route through
/// `env.evaluate`, so both modes publish completions the same way.
fn run_session_eval(
    shared: &Shared,
    name: &str,
    mut env: TuningEnv,
    item: QueuedEval,
    flight: Arc<FlightRecorder>,
) {
    let _scope = trace::enter(item.trace);
    // The queue-wait span covers enqueue (stamped on the handler
    // thread, carried with the item) to dequeue (now).
    let wait_ms = item.enqueued_at.elapsed().as_secs_f64() * 1e3;
    let wait_span = shared
        .obs
        .span_at("serve.queue_wait", item.enqueued_us)
        .with("session", name);
    if let Some(record) = wait_span.finish() {
        flight.record_span(record);
    }
    shared.obs.record("serve.queue_wait_ms", wait_ms);

    let start = Instant::now();
    let (observation, eval_span) = {
        let mut span = shared.obs.span("serve.evaluate");
        span.set("session", name);
        let observation = env.evaluate(&item.config);
        if observation.is_censored() {
            span.set("aborted", true);
            if let Some(cause) = observation.result.abort_cause {
                span.set("abort_cause", cause.as_str());
            }
        }
        (observation, span.finish())
    };
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(record) = eval_span {
        flight.record_span(record);
    }
    // Ordering matters for scrape consistency: histogram, then the
    // SLO tracker (which bumps `serve.slo.evaluations`), then the
    // cumulative counter — so any concurrent scrape observes
    // `serve.slo.evaluations >= serve.evaluations`.
    shared.obs.record("serve.evaluate_ms", latency_ms);
    shared
        .slo
        .record_eval(&shared.obs, latency_ms, observation.is_censored());
    shared.obs.inc("serve.evaluations");

    // Cost attribution, read while the environment is still in hand.
    let stress_time_ms = env.stress_time().as_ms();
    let retries = env.total_retries();
    let evalcache_hits = env.cache_hits();

    // A censored (abort-cause) evaluation freezes the session's
    // flight recorder — the complete trace of the failed request.
    // Written *before* the completion is published to the session
    // state, so any observer that sees the censored count (a joiner,
    // the drain report, a reconciliation script) can rely on the dump
    // already being on disk. No lock is held during the write.
    if observation.is_censored() {
        flight.record(FlightEvent::Protocol {
            trace: item.trace,
            event: "abort".to_string(),
            at_us: shared.obs.now_us(),
            detail: observation
                .result
                .abort_cause
                .map(|c| c.as_str().to_string())
                .unwrap_or_default(),
        });
        if let Some(dir) = &shared.config.flightrec_dir {
            let dump = flight.dump(name, "fault");
            match relm_obs::save_dump(dir, &dump) {
                Ok(_) => shared.obs.inc("serve.flightrec.dumps"),
                Err(_) => shared.obs.inc("serve.flightrec.errors"),
            }
        }
    }

    let mut state = shared.state.lock().expect("service state poisoned");
    state.sched.finish();
    state.evaluations += 1;
    let epoch = state.evaluations;
    let sess = state
        .sessions
        .get_mut(name)
        .expect("running session is registered");
    sess.completed += 1;
    if observation.is_censored() {
        sess.censored += 1;
    }
    sess.best_score_mins = Some(match sess.best_score_mins {
        Some(best) => best.min(observation.score_mins),
        None => observation.score_mins,
    });
    sess.stress_time_ms = stress_time_ms;
    sess.retries = retries;
    // The checkpoint carries the count, so it stays monotone across
    // evict/resume cycles.
    sess.evalcache_hits = evalcache_hits;
    sess.queue_wait_ms += wait_ms;
    sess.last_active = epoch;
    sess.env = Some(env);
    sess.running = false;
    if !sess.pending.is_empty() && !sess.cancelled && !sess.queued {
        sess.queued = true;
        let (priority, name) = (sess.priority, sess.name.clone());
        state.sched.push_ready(priority, name);
        shared.work.notify_all();
    }
    // Completions advance the eviction epoch clock: sweep for sessions
    // gone cold while this one worked.
    maybe_evict_locked(shared, &mut state);
    shared.refresh_gauges(&state);
    drop(state);
    shared.done.notify_all();
}

/// Builds the per-session engine from a spec — the same construction for
/// a fresh session and for a resume from an eviction checkpoint, so a
/// resumed environment evaluates exactly as the original would have.
fn build_engine(shared: &Shared, spec: &SessionSpec) -> Engine {
    let mut engine = Engine::new(ClusterSpec::cluster_a()).with_obs(shared.obs.clone());
    if let (Some(seed), Some(faults)) = (spec.fault_seed, spec.faults) {
        engine = engine.with_faults(FaultPlan::new(seed, faults));
    }
    engine
}

/// Builds the per-session engine + environment from a spec.
fn build_env(shared: &Shared, spec: &SessionSpec) -> Result<TuningEnv, String> {
    let app = match &spec.app {
        Some(app) => app.clone(),
        None => resolve_workload(&spec.workload)
            .ok_or_else(|| format!("unknown workload `{}`", spec.workload))?,
    };
    let engine = build_engine(shared, spec);
    Ok(attach_spec(
        shared,
        spec,
        TuningEnv::new(engine, app, spec.base_seed),
    ))
}

/// Applies what a spec adds on top of a bare environment, in creation
/// order: its retry policy, then the shared cache. Run at creation and
/// again at resume: a checkpoint carries session state, not the spec.
fn attach_spec(shared: &Shared, spec: &SessionSpec, mut env: TuningEnv) -> TuningEnv {
    if let Some(retry) = spec.retry {
        env = env.with_retry_policy(retry);
    }
    if spec.use_cache || shared.config.execution == Execution::External {
        // Fleet mode rides on the cache unconditionally: remote
        // outcomes land in the shared cache and commit by *replaying*
        // through the session's environment — the same path a warm
        // local run takes, proven byte-identical to a live one.
        env = env.with_cache(shared.cache.clone());
    }
    env
}

/// Cancels a session: its pending work is discarded (so the global
/// queue and joiners move on), it leaves the ready queue, new steps are
/// refused, its GP fitter is dropped, and its slot in the session table
/// is freed and `serve.sessions.cancelled` counts it (each once, however
/// often it is cancelled). Its history and flight
/// ring stay for `Status`, `Result` and `Drain`. Shared by `Cancel` and a
/// permanently failed eviction resume. Returns how many evaluations were
/// discarded, or `None` for an unknown session.
fn discard_locked(shared: &Shared, state: &mut State, name: &str) -> Option<usize> {
    let sess = state.sessions.get_mut(name)?;
    let discarded = sess.pending.len();
    sess.pending.clear();
    if !sess.cancelled {
        state.open_sessions -= 1;
        shared.obs.inc("serve.sessions.cancelled");
    }
    sess.cancelled = true;
    sess.guided.drop_fitter();
    sess.queued = false;
    state.sched.discard(sess.priority, name, discarded);
    shared.obs.add("serve.discarded", discarded as f64);
    shared.refresh_gauges(state);
    Some(discarded)
}

/// Resolves a workload name against the benchmark suite
/// (case-insensitive, punctuation-insensitive: `K-means` == `kmeans`).
pub fn resolve_workload(name: &str) -> Option<relm_app::AppSpec> {
    let key: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    match key.as_str() {
        "wordcount" => Some(relm_workloads::wordcount()),
        "sortbykey" => Some(relm_workloads::sortbykey()),
        "kmeans" => Some(relm_workloads::kmeans()),
        "svm" => Some(relm_workloads::svm()),
        "pagerank" => Some(relm_workloads::pagerank()),
        _ => None,
    }
}

// FNV-1a from `relm_common::hash`, matching the engine's cross-platform
// stable hash construction.
use relm_common::hash::fnv1a64_str as str_hash;

// The worker pool moves `TuningEnv` (engine, seed chain, history) across
// threads; these bindings fail to compile if any layer regresses to a
// non-`Send` type. `Obs` is additionally shared by reference from every
// worker, so it must be `Sync` too.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<TuningEnv>();
    assert_send::<Engine>();
    assert_send::<SessionSpec>();
    assert_send_sync::<Obs>();
    assert_send_sync::<Service>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SessionSpec;
    use relm_surrogate::SparsePolicy;
    use relm_tune::SessionCheckpoint;

    fn svc(workers: usize) -> Service {
        Service::start(
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
            Obs::enabled(),
        )
    }

    fn create(service: &Service, spec: SessionSpec) -> String {
        match service.handle(&Request::CreateSession { spec }) {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        }
    }

    #[test]
    fn create_step_join_result_lifecycle() {
        let service = svc(2);
        let session = create(&service, SessionSpec::named("WordCount", 11));
        match service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 3,
        }) {
            Response::Accepted { enqueued, .. } => assert_eq!(enqueued, 3),
            other => panic!("step rejected: {other:?}"),
        }
        match service.handle(&Request::Join {
            session: session.clone(),
        }) {
            Response::Status(st) => {
                assert_eq!(st.completed, 3);
                assert_eq!(st.pending, 0);
                assert!(!st.running);
                assert!(st.best_score_mins.is_some());
            }
            other => panic!("join failed: {other:?}"),
        }
        match service.handle(&Request::Result { session }) {
            Response::ResultReady {
                export, history, ..
            } => {
                assert_eq!(history.len(), 3);
                assert_eq!(export.metrics.evaluations, 3);
                assert_eq!(export.recommendation.policy, "serve");
            }
            other => panic!("result failed: {other:?}"),
        }
        assert_eq!(service.obs().counter_value("serve.evaluations"), 3.0);
    }

    /// The SLO gauges are published when they are read: after five
    /// evaluations, with no rotation and no rejection, a `Metrics` scrape
    /// already reports the live window.
    #[test]
    fn metrics_scrape_reads_the_live_slo_window() {
        let service = svc(1);
        let session = create(&service, SessionSpec::named("WordCount", 11));
        service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 5,
        });
        service.handle(&Request::Join { session });
        let Response::Metrics { snapshot, .. } = service.handle(&Request::Metrics) else {
            panic!("metrics scrape failed");
        };
        let gauge = |name: &str| {
            snapshot
                .gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(gauge("serve.slo.window.evals"), Some(5.0));
        assert!(gauge("serve.slo.latency_p50_ms").unwrap() > 0.0);
    }

    #[test]
    fn unknown_session_and_workload_are_errors() {
        let service = svc(1);
        assert!(matches!(
            service.handle(&Request::Status {
                session: "s-9999".into()
            }),
            Response::Error { .. }
        ));
        assert!(matches!(
            service.handle(&Request::CreateSession {
                spec: SessionSpec::named("NoSuchWorkload", 1)
            }),
            Response::Error { .. }
        ));
    }

    #[test]
    fn session_queue_bound_rejects_with_overloaded() {
        let service = Service::start(
            ServeConfig {
                workers: 1,
                session_queue_limit: 2,
                ..ServeConfig::default()
            },
            Obs::enabled(),
        );
        let session = create(&service, SessionSpec::named("WordCount", 5));
        // One big batch over the limit: rejected whole, nothing enqueued.
        match service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 3,
        }) {
            Response::Overloaded { reason, .. } => {
                assert!(reason.contains("session queue"), "{reason}")
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(service.obs().counter_value("serve.rejected.overloaded") >= 1.0);
        // A fitting batch still goes through, and the rejected batch did
        // not consume sampler draws (histories must not depend on rejected
        // requests).
        match service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 2,
        }) {
            Response::Accepted { enqueued, .. } => assert_eq!(enqueued, 2),
            other => panic!("step rejected: {other:?}"),
        }
        service.handle(&Request::Join { session });
    }

    #[test]
    fn global_queue_bound_rejects_with_overloaded() {
        let service = Service::start(
            ServeConfig {
                workers: 1,
                session_queue_limit: 8,
                global_queue_limit: 4,
                ..ServeConfig::default()
            },
            Obs::enabled(),
        );
        // Hold the worker so the staged backlog cannot drain mid-test.
        {
            let mut state = service.shared.state.lock().unwrap();
            state.paused = true;
        }
        // High-priority sessions may fill the whole global budget
        // (admission share 1.0); lower classes would hit their share
        // first, which `low_priority_sees_pushback_first` covers.
        let a = create(
            &service,
            SessionSpec::named("WordCount", 1).with_priority(Priority::High),
        );
        let b = create(
            &service,
            SessionSpec::named("WordCount", 2).with_priority(Priority::High),
        );
        // Fill the whole global budget through session a...
        match service.handle(&Request::StepAuto {
            session: a.clone(),
            evals: 4,
        }) {
            Response::Accepted { .. } => {}
            other => panic!("step rejected: {other:?}"),
        }
        // ... so any batch on session b overflows globally, not per-session.
        match service.handle(&Request::StepAuto {
            session: b.clone(),
            evals: 1,
        }) {
            Response::Overloaded {
                reason,
                global_pending,
                ..
            } => {
                assert!(reason.contains("global queue"), "{reason}");
                assert_eq!(global_pending, 4);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        {
            let mut state = service.shared.state.lock().unwrap();
            state.paused = false;
        }
        service.shared.work.notify_all();
        service.handle(&Request::Join { session: a });
        service.handle(&Request::Join { session: b });
    }

    #[test]
    fn cancel_discards_pending_and_blocks_new_steps() {
        let service = svc(1);
        let session = create(&service, SessionSpec::named("WordCount", 3));
        service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 8,
        });
        let discarded = match service.handle(&Request::Cancel {
            session: session.clone(),
        }) {
            Response::Cancelled { discarded, .. } => discarded,
            other => panic!("cancel failed: {other:?}"),
        };
        assert!(matches!(
            service.handle(&Request::StepAuto {
                session: session.clone(),
                evals: 1
            }),
            Response::Error { .. }
        ));
        match service.handle(&Request::Join { session }) {
            Response::Status(st) => {
                assert!(st.cancelled);
                assert_eq!(st.pending, 0);
                // Every admitted evaluation either ran before the cancel or
                // was discarded by it — none linger, none run twice.
                assert_eq!(st.completed + discarded, 8);
            }
            other => panic!("join failed: {other:?}"),
        }
    }

    /// The session table bounds open sessions: a default service refuses
    /// a 65th while 64 are open, takes one once they are cancelled, and
    /// frees one slot, and counts one cancellation, per cancelled session
    /// however often it is cancelled. Cancelled sessions stay visible to
    /// `Status`, `Result` and `Drain`.
    #[test]
    fn cancel_frees_a_session_table_slot() {
        let service = svc(2);
        let limit = service.config().max_sessions;
        assert_eq!(limit, 64);
        let spec = |seed: usize| SessionSpec::named("WordCount", seed as u64);
        let open = |seeds: std::ops::Range<usize>| -> Vec<String> {
            seeds.map(|seed| create(&service, spec(seed))).collect()
        };
        let full = |seed: usize| {
            matches!(
                service.handle(&Request::CreateSession { spec: spec(seed) }),
                Response::Overloaded { .. }
            )
        };
        let finished = open(0..limit);
        for session in &finished {
            service.handle(&Request::StepAuto {
                session: session.clone(),
                evals: 1,
            });
            service.handle(&Request::Join {
                session: session.clone(),
            });
        }
        assert!(full(limit), "64 open sessions fill the table");
        for session in &finished {
            for _ in 0..2 {
                let reply = service.handle(&Request::Cancel {
                    session: session.clone(),
                });
                assert!(matches!(reply, Response::Cancelled { .. }), "{reply:?}");
            }
        }
        // Exactly 64 slots came free, and 64 sessions count, not 128.
        assert_eq!(
            service.obs().counter_value("serve.sessions.cancelled"),
            limit as f64
        );
        let reopened = open(limit..2 * limit);
        assert!(full(2 * limit));
        match service.handle(&Request::Status {
            session: finished[0].clone(),
        }) {
            Response::Status(st) => assert!(st.cancelled && st.completed == 1, "{st:?}"),
            other => panic!("status failed: {other:?}"),
        }
        match service.handle(&Request::Result {
            session: finished[0].clone(),
        }) {
            Response::ResultReady { history, .. } => assert_eq!(history.len(), 1),
            other => panic!("result failed: {other:?}"),
        }
        match service.handle(&Request::Drain) {
            Response::Drained { sessions, .. } => {
                assert_eq!(sessions, finished.len() + reopened.len())
            }
            other => panic!("drain failed: {other:?}"),
        }
    }

    #[test]
    fn drain_completes_backlog_checkpoints_and_stops() {
        let dir = std::env::temp_dir().join(format!("relm_serve_drain_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::start(
            ServeConfig {
                workers: 4,
                checkpoint_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
            Obs::enabled(),
        );
        let mut sessions = Vec::new();
        for i in 0..3 {
            let s = create(&service, SessionSpec::named("WordCount", 100 + i));
            service.handle(&Request::StepAuto {
                session: s.clone(),
                evals: 2,
            });
            sessions.push(s);
        }
        match service.handle(&Request::Drain) {
            Response::Drained {
                sessions: n,
                evaluations,
                checkpointed,
                flight_dumped,
                reassignments,
                evictions,
                resumes,
            } => {
                assert_eq!(n, 3);
                assert_eq!(evaluations, 6, "drain must run the whole backlog");
                assert_eq!(checkpointed, 3);
                // No flight-recorder directory configured in this test.
                assert_eq!(flight_dumped, 0);
                // No fleet attached: nothing to reassign.
                assert_eq!(reassignments, 0);
                // Eviction is off by default.
                assert_eq!(evictions, 0);
                assert_eq!(resumes, 0);
            }
            other => panic!("drain failed: {other:?}"),
        }
        // One log holds every session, in name order, and nothing else
        // was written.
        let log = SessionCheckpoint::load_log(&dir.join("drain.ckpt.jsonl")).expect("log readable");
        let names: Vec<&String> = log.iter().map(|(name, _)| name).collect();
        assert_eq!(names, sessions.iter().collect::<Vec<_>>());
        for (_, ckpt) in &log {
            assert_eq!(ckpt.history.len(), 2, "no lost or duplicated evaluations");
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(service.obs().counter_value("serve.checkpointed"), 3.0);
        // Post-drain requests are refused.
        assert!(matches!(
            service.handle(&Request::CreateSession {
                spec: SessionSpec::named("WordCount", 9)
            }),
            Response::Error { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_robin_alternates_sessions_on_one_worker() {
        let service = svc(1);
        // Hold the worker while both sessions stage their backlogs, so
        // the expected schedule is exact rather than racing admission.
        {
            let mut state = service.shared.state.lock().unwrap();
            state.paused = true;
        }
        let a = create(&service, SessionSpec::named("WordCount", 1));
        let b = create(&service, SessionSpec::named("WordCount", 2));
        for s in [&a, &b] {
            match service.handle(&Request::StepAuto {
                session: s.clone(),
                evals: 3,
            }) {
                Response::Accepted { .. } => {}
                other => panic!("step rejected: {other:?}"),
            }
        }
        {
            let mut state = service.shared.state.lock().unwrap();
            state.paused = false;
        }
        service.shared.work.notify_all();
        for s in [&a, &b] {
            service.handle(&Request::Join { session: s.clone() });
        }
        let snapshot = service.obs().snapshot();
        let order: Vec<String> = snapshot
            .spans
            .iter()
            .filter(|sp| sp.name == "serve.evaluate")
            .filter_map(|sp| {
                sp.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("session", relm_obs::FieldValue::Str(s)) => Some(s.clone()),
                    _ => None,
                })
            })
            .collect();
        // With both backlogs staged before the single worker wakes, a
        // fair scheduler must strictly alternate: a b a b a b.
        let expected: Vec<String> = [&a, &b, &a, &b, &a, &b]
            .iter()
            .map(|s| (*s).clone())
            .collect();
        assert_eq!(order, expected, "unfair schedule");
    }

    /// The graduated admission gate: with a global budget of 4, a
    /// low-priority session may hold at most 2 pending (share 0.5) while
    /// a high-priority session may still fill the remaining budget.
    #[test]
    fn low_priority_sees_pushback_first() {
        let service = Service::start(
            ServeConfig {
                workers: 1,
                session_queue_limit: 8,
                global_queue_limit: 4,
                ..ServeConfig::default()
            },
            Obs::enabled(),
        );
        {
            let mut state = service.shared.state.lock().unwrap();
            state.paused = true;
        }
        let low = create(
            &service,
            SessionSpec::named("WordCount", 1).with_priority(Priority::Low),
        );
        let high = create(
            &service,
            SessionSpec::named("WordCount", 2).with_priority(Priority::High),
        );
        // Low may fill only half the global budget: 3 > 2 rejects whole.
        match service.handle(&Request::StepAuto {
            session: low.clone(),
            evals: 3,
        }) {
            Response::Overloaded { reason, .. } => {
                assert!(reason.contains("global queue"), "{reason}");
                assert!(reason.contains("low"), "{reason}");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(
            service
                .obs()
                .counter_value("serve.rejected.overloaded.class.low"),
            1.0
        );
        match service.handle(&Request::StepAuto {
            session: low.clone(),
            evals: 2,
        }) {
            Response::Accepted { .. } => {}
            other => panic!("low step rejected: {other:?}"),
        }
        // High still lands the rest of the budget on a queue that would
        // already push low away.
        match service.handle(&Request::StepAuto {
            session: high.clone(),
            evals: 2,
        }) {
            Response::Accepted { .. } => {}
            other => panic!("high step rejected: {other:?}"),
        }
        {
            let mut state = service.shared.state.lock().unwrap();
            state.paused = false;
        }
        service.shared.work.notify_all();
        for s in [&low, &high] {
            service.handle(&Request::Join { session: s.clone() });
        }
    }

    /// The deficit-weighted scheduler runs a staged high-priority backlog
    /// ahead of a low-priority one: with weights 4:1, all four high
    /// evaluations clear before the first low one.
    #[test]
    fn high_priority_schedules_ahead_of_low() {
        let service = svc(1);
        {
            let mut state = service.shared.state.lock().unwrap();
            state.paused = true;
        }
        let low = create(
            &service,
            SessionSpec::named("WordCount", 1).with_priority(Priority::Low),
        );
        let high = create(
            &service,
            SessionSpec::named("WordCount", 2).with_priority(Priority::High),
        );
        for (s, evals) in [(&low, 4u32), (&high, 4u32)] {
            match service.handle(&Request::StepAuto {
                session: s.clone(),
                evals,
            }) {
                Response::Accepted { .. } => {}
                other => panic!("step rejected: {other:?}"),
            }
        }
        {
            let mut state = service.shared.state.lock().unwrap();
            state.paused = false;
        }
        service.shared.work.notify_all();
        for s in [&low, &high] {
            service.handle(&Request::Join { session: s.clone() });
        }
        let snapshot = service.obs().snapshot();
        let order: Vec<String> = snapshot
            .spans
            .iter()
            .filter(|sp| sp.name == "serve.evaluate")
            .filter_map(|sp| {
                sp.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("session", relm_obs::FieldValue::Str(s)) => Some(s.clone()),
                    _ => None,
                })
            })
            .collect();
        let expected: Vec<String> = [&high, &high, &high, &high, &low, &low, &low, &low]
            .iter()
            .map(|s| (*s).clone())
            .collect();
        assert_eq!(order, expected, "high-priority work must clear first");
    }

    /// Explicit evict unloads an idle session to disk; the next step
    /// resumes it transparently and the history continues as if nothing
    /// happened. Counters and the checkpoint file reconcile.
    #[test]
    fn explicit_evict_and_transparent_resume() {
        let dir = std::env::temp_dir().join(format!("relm_serve_evict_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Service::start(
            ServeConfig {
                workers: 1,
                checkpoint_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
            Obs::enabled(),
        );
        let session = create(&service, SessionSpec::named("WordCount", 21));
        // Evicting a running/pending session is refused.
        service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 3,
        });
        service.handle(&Request::Join {
            session: session.clone(),
        });
        let path = match service.handle(&Request::Evict {
            session: session.clone(),
        }) {
            Response::Evicted { path, .. } => PathBuf::from(path),
            other => panic!("evict failed: {other:?}"),
        };
        assert!(path.exists(), "eviction checkpoint on disk");
        match service.handle(&Request::Status {
            session: session.clone(),
        }) {
            Response::Status(st) => {
                assert!(st.evicted);
                assert_eq!(st.completed, 3);
            }
            other => panic!("status failed: {other:?}"),
        }
        // Double eviction is refused.
        assert!(matches!(
            service.handle(&Request::Evict {
                session: session.clone(),
            }),
            Response::Error { .. }
        ));
        // The next step resumes transparently; the history continues.
        service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 2,
        });
        match service.handle(&Request::Join {
            session: session.clone(),
        }) {
            Response::Status(st) => {
                assert!(!st.evicted);
                assert_eq!(st.completed, 5);
            }
            other => panic!("join failed: {other:?}"),
        }
        assert!(!path.exists(), "resume consumes the eviction checkpoint");
        assert_eq!(service.obs().counter_value("serve.evictions"), 1.0);
        assert_eq!(service.obs().counter_value("serve.resumes"), 1.0);
        match service.handle(&Request::Result { session }) {
            Response::ResultReady { history, .. } => assert_eq!(history.len(), 5),
            other => panic!("result failed: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn guided_steps_require_history_and_an_idle_session() {
        let service = svc(1);
        let session = create(&service, SessionSpec::named("WordCount", 31));
        // No history yet: the surrogate has nothing to fit.
        match service.handle(&Request::StepGuided {
            session: session.clone(),
            evals: 1,
        }) {
            Response::Error { message } => assert!(message.contains("at least"), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        }
        // Stage a backlog with the worker held: the session is not idle, so
        // a guided step must be refused rather than fitted on a moving
        // history.
        {
            let mut state = service.shared.state.lock().unwrap();
            state.paused = true;
        }
        service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 5,
        });
        match service.handle(&Request::StepGuided {
            session: session.clone(),
            evals: 1,
        }) {
            Response::Error { message } => assert!(message.contains("idle"), "{message}"),
            other => panic!("expected Error, got {other:?}"),
        }
        {
            let mut state = service.shared.state.lock().unwrap();
            state.paused = false;
        }
        service.shared.work.notify_all();
        service.handle(&Request::Join {
            session: session.clone(),
        });
        // Idle with history: proposals flow.
        match service.handle(&Request::StepGuided {
            session: session.clone(),
            evals: 2,
        }) {
            Response::Accepted { enqueued, .. } => assert_eq!(enqueued, 2),
            other => panic!("guided step rejected: {other:?}"),
        }
        match service.handle(&Request::Join { session }) {
            Response::Status(st) => assert_eq!(st.completed, 7),
            other => panic!("join failed: {other:?}"),
        }
        assert!(service.obs().counter_value("serve.guided.batches") >= 1.0);
    }

    /// A guided step on a history past the large-n policy's threshold
    /// fits the inducing subset, and the service's fitter counts it.
    #[test]
    fn a_guided_fit_past_the_sparse_threshold_counts_a_sparse_fit() {
        let service = svc(2);
        let session = create(&service, SessionSpec::named("WordCount", 17));
        let threshold = SparsePolicy::large_n().threshold;
        let mut completed = 0;
        while completed <= threshold {
            let evals = (threshold + 1 - completed).min(32);
            service.handle(&Request::StepAuto {
                session: session.clone(),
                evals: evals as u32,
            });
            service.handle(&Request::Join {
                session: session.clone(),
            });
            completed += evals;
        }
        let obs = service.obs();
        assert_eq!(obs.counter_value("surrogate.sparse_fits"), 0.0);
        match service.handle(&Request::StepGuided {
            session: session.clone(),
            evals: 1,
        }) {
            Response::Accepted { enqueued, .. } => assert_eq!(enqueued, 1),
            other => panic!("guided step rejected: {other:?}"),
        }
        service.handle(&Request::Join { session });
        assert_eq!(obs.counter_value("surrogate.sparse_fits"), 1.0);
        assert_eq!(obs.counter_value("serve.guided.batches"), 1.0);
    }

    /// Drives bootstrap + two guided batches and returns the serialized
    /// history — the byte string the determinism tests compare.
    fn guided_history(workers: usize) -> String {
        let service = svc(workers);
        let session = create(&service, SessionSpec::named("SortByKey", 42));
        service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 5,
        });
        service.handle(&Request::Join {
            session: session.clone(),
        });
        for evals in [3u32, 2] {
            match service.handle(&Request::StepGuided {
                session: session.clone(),
                evals,
            }) {
                Response::Accepted { .. } => {}
                other => panic!("guided step rejected: {other:?}"),
            }
            service.handle(&Request::Join {
                session: session.clone(),
            });
        }
        match service.handle(&Request::Result { session }) {
            Response::ResultReady { history, .. } => {
                assert_eq!(history.len(), 10);
                crate::protocol::encode(&history)
            }
            other => panic!("result failed: {other:?}"),
        }
    }

    #[test]
    fn guided_histories_are_byte_identical_at_any_worker_count() {
        let serial = guided_history(1);
        for workers in [2, 8] {
            assert_eq!(
                serial,
                guided_history(workers),
                "guided history diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn rejected_guided_batch_does_not_advance_the_proposal_stream() {
        let run = |overflow_first: bool| -> String {
            let service = Service::start(
                ServeConfig {
                    workers: 1,
                    session_queue_limit: 2,
                    ..ServeConfig::default()
                },
                Obs::enabled(),
            );
            let session = create(&service, SessionSpec::named("WordCount", 17));
            for _ in 0..3 {
                service.handle(&Request::StepAuto {
                    session: session.clone(),
                    evals: 2,
                });
                service.handle(&Request::Join {
                    session: session.clone(),
                });
            }
            if overflow_first {
                match service.handle(&Request::StepGuided {
                    session: session.clone(),
                    evals: 3,
                }) {
                    Response::Overloaded { .. } => {}
                    other => panic!("expected Overloaded, got {other:?}"),
                }
            }
            match service.handle(&Request::StepGuided {
                session: session.clone(),
                evals: 2,
            }) {
                Response::Accepted { .. } => {}
                other => panic!("guided step rejected: {other:?}"),
            }
            service.handle(&Request::Join {
                session: session.clone(),
            });
            match service.handle(&Request::Result { session }) {
                Response::ResultReady { history, .. } => crate::protocol::encode(&history),
                other => panic!("result failed: {other:?}"),
            }
        };
        // An over-limit guided batch is rejected whole; the next admitted
        // batch must propose exactly what it would have without the
        // rejection (histories must not depend on rejected requests).
        assert_eq!(run(true), run(false));
    }

    /// The configurations queued on a session, in FIFO order.
    fn pending_configs(service: &Service, session: &str) -> Vec<MemoryConfig> {
        let state = service.shared.state.lock().unwrap();
        state.sessions[session]
            .pending
            .iter()
            .map(|q| q.config)
            .collect()
    }

    #[test]
    fn concurrent_auto_steps_queue_the_serial_draws() {
        const ROUNDS: usize = 200;
        const CLIENTS: usize = 4;
        let service = Service::start(
            ServeConfig {
                workers: 1,
                max_sessions: ROUNDS + 1,
                ..ServeConfig::default()
            },
            Obs::enabled(),
        );
        // Nothing runs: every admitted configuration stays queued.
        service.shared.state.lock().unwrap().paused = true;
        let spec = SessionSpec::named("WordCount", 5);
        let serial = create(&service, spec.clone());
        for _ in 0..CLIENTS {
            service.handle(&Request::StepAuto {
                session: serial.clone(),
                evals: 1,
            });
        }
        let want = pending_configs(&service, &serial);
        service.handle(&Request::Cancel { session: serial });
        for _ in 0..ROUNDS {
            let session = create(&service, spec.clone());
            let barrier = std::sync::Barrier::new(CLIENTS);
            std::thread::scope(|s| {
                for _ in 0..CLIENTS {
                    s.spawn(|| {
                        barrier.wait();
                        let reply = service.handle(&Request::StepAuto {
                            session: session.clone(),
                            evals: 1,
                        });
                        assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
                    });
                }
            });
            // Each request drew after the previous one committed: the
            // queue holds exactly the serial sequence, no draw twice.
            assert_eq!(pending_configs(&service, &session), want);
            service.handle(&Request::Cancel { session });
        }
    }

    #[test]
    fn concurrent_guided_steps_admit_one_batch_and_keep_the_history() {
        let run = |concurrent: bool| -> String {
            let service = svc(1);
            let session = create(&service, SessionSpec::named("SortByKey", 42));
            service.handle(&Request::StepAuto {
                session: session.clone(),
                evals: 5,
            });
            service.handle(&Request::Join {
                session: session.clone(),
            });
            // Hold the worker so the admitted batch stays queued: the
            // other request then finds the session busy, however the two
            // interleave.
            service.shared.state.lock().unwrap().paused = true;
            let step = || {
                service.handle(&Request::StepGuided {
                    session: session.clone(),
                    evals: 1,
                })
            };
            let replies: Vec<Response> = if concurrent {
                let barrier = std::sync::Barrier::new(2);
                std::thread::scope(|s| {
                    let clients: Vec<_> = (0..2)
                        .map(|_| {
                            s.spawn(|| {
                                barrier.wait();
                                step()
                            })
                        })
                        .collect();
                    clients.into_iter().map(|c| c.join().unwrap()).collect()
                })
            } else {
                vec![step(), step()]
            };
            let accepted = replies
                .iter()
                .filter(|r| matches!(r, Response::Accepted { .. }))
                .count();
            assert_eq!(accepted, 1, "{replies:?}");
            assert!(
                replies.iter().any(|r| matches!(
                    r,
                    Response::Error { message } if message.contains("must be idle")
                )),
                "{replies:?}"
            );
            service.shared.state.lock().unwrap().paused = false;
            service.shared.work.notify_all();
            service.handle(&Request::Join {
                session: session.clone(),
            });
            match service.handle(&Request::Result { session }) {
                Response::ResultReady { history, .. } => crate::protocol::encode(&history),
                other => panic!("result failed: {other:?}"),
            }
        };
        let serial = run(false);
        for _ in 0..8 {
            assert_eq!(run(true), serial);
        }
    }

    #[test]
    fn fault_plans_compose_with_serving() {
        use relm_faults::FaultConfig;
        let service = svc(4);
        let spec = SessionSpec::named("WordCount", 77).with_faults(9, FaultConfig::uniform(0.2));
        let session = create(&service, spec);
        service.handle(&Request::Step {
            session: session.clone(),
            configs: vec![relm_workloads::max_resource_allocation(
                &ClusterSpec::cluster_a(),
                &relm_workloads::wordcount(),
            )],
        });
        service.handle(&Request::Join {
            session: session.clone(),
        });
        match service.handle(&Request::Result { session }) {
            Response::ResultReady { history, .. } => {
                assert_eq!(history.len(), 1);
                assert!(
                    history[0].result.injected_faults > 0 || history[0].retries > 0,
                    "a 20% plan should fault or retry: {:?}",
                    history[0].result
                );
            }
            other => panic!("result failed: {other:?}"),
        }
    }

    #[test]
    fn unreadable_memory_store_is_never_overwritten() {
        let dir = std::env::temp_dir().join(format!("relm-serve-memv99-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memory.jsonl");
        // A store from a future build: a different file, not a damaged one.
        let future = format!(
            "{{\"kind\":\"relm-memory\",\"version\":99}}\n\
             {{\"key\":\"{:032x}\",\"check\":0,\"value\":{{}}}}\n",
            7
        );
        std::fs::write(&path, &future).unwrap();
        let service = Service::start(
            ServeConfig {
                workers: 1,
                memory_store: Some(path.clone()),
                ..ServeConfig::default()
            },
            Obs::enabled(),
        );
        let session = create(
            &service,
            SessionSpec::named("WordCount", 3).with_warm_start(),
        );
        service.handle(&Request::StepAuto { session, evals: 2 });
        assert!(matches!(
            service.handle(&Request::Drain),
            Response::Drained { evaluations: 2, .. }
        ));
        let obs = service.obs();
        assert_eq!(obs.counter_value("memory.load_errors"), 1.0);
        assert_eq!(obs.counter_value("memory.warm_misses"), 1.0);
        assert_eq!(obs.counter_value("memory.ingested"), 0.0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), future);
        std::fs::remove_dir_all(&dir).ok();
    }
}
