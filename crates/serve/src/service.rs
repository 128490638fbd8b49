//! The tuning service: a registry of concurrent sessions multiplexed onto
//! a bounded `std::thread` worker pool.
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
//! set, the service checkpoints idle sessions via the proven
//! [`SessionCheckpoint`] path and unloads their environments. The idle
//! clock is *evaluation-count epochs*, never wall time: a session is cold
//! once `evict_after_evals` service-wide completions have passed since it
//! last finished one. An evicted session resumes transparently from its
//! checkpoint on the next request that needs its environment; the guided
//! proposal state is rebuilt by replaying the exact fit schedule, so
//! histories and proposals stay byte-identical across any number of
//! evict/resume cycles (`serve.evictions` / `serve.resumes` count them).
//!
//! ## Autoscaling
//!
//! With [`ServeConfig::min_workers`]/[`ServeConfig::max_workers`] set,
//! the in-process pool resizes itself from the same queue-depth signal
//! the gauges export: admission grows the pool while the backlog exceeds
//! [`AUTOSCALE_BACKLOG_FACTOR`] pending evaluations per live worker, and
//! an idle worker retires itself once the queue is empty, down to
//! `min_workers`. Scaling is event-driven (admission and completion
//! edges), so the deterministic path stays wall-clock free — worker count
//! never affects histories, only wall-clock latency.

use crate::protocol::{
    Priority, Request, Response, SessionSpec, SessionStatus, DEFAULT_MAX_FRAME_BYTES,
};
use crate::slo::SloTracker;
use relm_app::{AppSpec, Engine, EngineCostModel};
use relm_cluster::ClusterSpec;
use relm_common::{MemoryConfig, Rng};
use relm_faults::FaultPlan;
use relm_memory::{build_prior, normalize_label, MemoryStore, PriorBundle, SessionDigest};
use relm_obs::{trace, FlightEvent, FlightRecorder, Obs, DEFAULT_FLIGHT_CAPACITY};
use relm_surrogate::{maximize_ei, GpFitter, SparsePolicy};
use relm_tune::space::DIMS;
use relm_tune::{
    recommendation, session_export, CachedEval, ConfigSpace, EvalKey, Observation, RetryPolicy,
    SessionCheckpoint, TuningEnv,
};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Worker threads evaluating configurations. At least 1 (ignored in
    /// [`Execution::External`] mode, which spawns none). With autoscaling
    /// enabled this is the *initial* pool size, clamped into
    /// [`min_workers`, `max_workers`].
    ///
    /// [`min_workers`]: ServeConfig::min_workers
    /// [`max_workers`]: ServeConfig::max_workers
    pub workers: usize,
    /// Autoscale floor: idle workers retire themselves down to this many
    /// once the queue drains (effective floor is at least 1). Only
    /// meaningful when [`max_workers`](ServeConfig::max_workers) enables
    /// autoscaling.
    pub min_workers: usize,
    /// Autoscale ceiling: `0` (the default) disables autoscaling and
    /// keeps the fixed pool of [`workers`](ServeConfig::workers). When
    /// set, admission grows the pool toward this bound while the backlog
    /// exceeds [`AUTOSCALE_BACKLOG_FACTOR`] pending evaluations per live
    /// worker. Ignored in [`Execution::External`] mode.
    pub max_workers: usize,
    /// Maximum registered sessions.
    pub max_sessions: usize,
    /// Pending-evaluation bound per session.
    pub session_queue_limit: usize,
    /// Pending-evaluation bound across all sessions.
    pub global_queue_limit: usize,
    /// Frame bound for the wire protocol.
    pub max_frame_bytes: usize,
    /// Where `Drain` writes one `SessionCheckpoint` per session; `None`
    /// skips checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Idle-session eviction threshold, in service-wide completed
    /// evaluations (an evaluation-count epoch clock — never wall time, so
    /// the deterministic path stays deterministic): a session that
    /// completed work but has seen `evict_after_evals` other completions
    /// since its own last one is checkpointed to disk and its environment
    /// unloaded. `0` (the default) disables eviction sweeps; explicit
    /// [`Request::Evict`] still works whenever an eviction directory is
    /// configured.
    pub evict_after_evals: usize,
    /// Where eviction checkpoints (`<session>.evict.json`) land. `None`
    /// falls back to [`checkpoint_dir`](ServeConfig::checkpoint_dir);
    /// with neither set, eviction is disabled.
    pub evict_dir: Option<PathBuf>,
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
            min_workers: 0,
            max_workers: 0,
            max_sessions: 64,
            session_queue_limit: 32,
            global_queue_limit: 256,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            checkpoint_dir: None,
            evict_after_evals: 0,
            evict_dir: None,
            flightrec_dir: None,
            memory_store: None,
            execution: Execution::InProcess,
            conn_idle_timeout: Some(Duration::from_secs(600)),
        }
    }
}

impl ServeConfig {
    /// The effective autoscale range `(floor, ceiling)`, or `None` when
    /// autoscaling is off (`max_workers == 0`, or fleet mode — an
    /// external fleet scales by registering workers, not threads).
    pub fn autoscale(&self) -> Option<(usize, usize)> {
        if self.max_workers == 0 || self.execution == Execution::External {
            return None;
        }
        let floor = self.min_workers.max(1);
        Some((floor, self.max_workers.max(floor)))
    }

    /// Where eviction checkpoints live: `evict_dir`, falling back to
    /// `checkpoint_dir`. `None` disables eviction entirely.
    fn evict_dir(&self) -> Option<&PathBuf> {
        self.evict_dir.as_ref().or(self.checkpoint_dir.as_ref())
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

/// Completed evaluations a session needs before `StepGuided` can fit its
/// surrogate.
const GUIDED_MIN_HISTORY: usize = 4;
/// Every K-th guided fit re-tunes the GP hyperparameters from scratch; the
/// fits in between extend the stored Cholesky factor incrementally
/// (bit-identical to a from-scratch fit at the retained hyperparameters).
const GUIDED_REFIT_PERIOD: usize = 4;
/// Nearest past sessions a warm-started session retrieves from the
/// memory store.
const MEMORY_RETRIEVE_K: usize = 3;
/// Autoscale growth trigger: admission spawns another worker while the
/// global backlog exceeds this many pending evaluations per live worker
/// (and the pool is below [`ServeConfig::max_workers`]).
pub const AUTOSCALE_BACKLOG_FACTOR: usize = 2;

/// Deterministic GP proposal state behind `StepGuided`.
///
/// A pure function of the session spec and the *settled* history: the
/// fitter ingests encoded observations in history order, and the RNG
/// advances only when a batch is admitted (clone-compute-commit, exactly
/// like the auto sampler) — so rejected requests never shift the stream.
#[derive(Clone)]
struct GuidedState {
    fitter: GpFitter,
    rng: Rng,
    /// Guided fits performed so far — drives the full-vs-incremental
    /// refit schedule.
    fits: usize,
    /// How many *history* observations the fitter has ingested. Tracked
    /// separately from `fitter.len()` because a warm-started fitter also
    /// holds prior observations that are not part of this session's
    /// history.
    fed: usize,
    /// The fit schedule: `feeds[i]` is how much history the fitter had
    /// ingested when fit `i` ran. An evicted session's fitter is rebuilt
    /// by replaying exactly this schedule ([`rebuild_guided`]), which
    /// reproduces the full-vs-incremental refit sequence — and therefore
    /// the proposal stream — bit for bit.
    feeds: Vec<usize>,
}

/// What survives of a [`GuidedState`] across eviction: the fitter (the
/// memory-heavy part — Gram matrices and Cholesky factors) is dropped and
/// rebuilt at resume by replaying the recorded fit schedule against the
/// resumed history; the RNG and schedule carry over verbatim, so the
/// proposal stream continues bit-identically.
#[derive(Clone)]
struct FrozenGuided {
    rng: Rng,
    fits: usize,
    feeds: Vec<usize>,
}

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
    /// Whether the environment currently lives on disk as an eviction
    /// checkpoint (`<name>.evict.json`) instead of in memory.
    evicted: bool,
    /// Eviction clock: the service-wide evaluation count when this
    /// session last completed an evaluation.
    last_active: usize,
    /// Guided-proposal bookkeeping of an evicted session, enough to
    /// rebuild the fitter bit-identically at resume.
    frozen_guided: Option<FrozenGuided>,
    /// Evaluation-cache hits accrued before the last eviction
    /// ([`TuningEnv::restore`] resets the live counter), keeping the
    /// status mirror monotone across evict/resume cycles.
    evalcache_hits_base: u64,
    /// Deterministic sampler behind `StepAuto` — a pure function of the
    /// session spec, never of request timing.
    sampler: Rng,
    /// The tuned space, cloned out of the environment so `StepAuto` can
    /// decode samples while the environment is on a worker.
    space: ConfigSpace,
    /// GP proposal state for `StepGuided`, built on first use.
    guided: Option<GuidedState>,
    /// Seed of the guided proposal stream, folded from the session spec.
    guided_seed: u64,
    /// Normalized workload label, the memory store's retrieval key and
    /// the digest identity `Drain` ingests under.
    workload_label: String,
    /// Base seed of the spec, part of the digest identity.
    base_seed: u64,
    /// Warm-start prior retrieved at creation; empty for cold sessions
    /// and on retrieval miss. A pure function of the spec and the store
    /// contents at creation, so warm sessions stay deterministic.
    prior: PriorBundle,
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
    /// Ready sessions (pending work, idle environment), one FIFO queue
    /// per priority class, indexed by [`Priority::index`]. Workers pull
    /// through the deficit-weighted round-robin in [`State::pop_ready`].
    ready: [VecDeque<String>; 3],
    /// Remaining scheduling credit per class in the current DWRR round.
    credit: [u64; 3],
    global_pending: usize,
    /// Pending evaluations per priority class, indexed by
    /// [`Priority::index`] — the `serve.queue.class.*` gauges.
    pending_by_class: [usize; 3],
    /// Evaluations currently on workers.
    running: usize,
    /// Live in-process worker threads (`serve.workers.alive`). Moves only
    /// under autoscaling; otherwise fixed at the configured pool size.
    alive_workers: usize,
    /// Total evaluations completed across all sessions (lifetime) — also
    /// the eviction epoch clock.
    evaluations: usize,
    /// Lifetime eviction/resume/autoscale tallies, mirrored by the
    /// `serve.evictions` / `serve.resumes` / `serve.autoscale.*` counters
    /// and reported by `Drain` so scrapes reconcile exactly.
    evictions: usize,
    resumes: usize,
    grown: usize,
    shrunk: usize,
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

impl State {
    /// Picks the next session to run by deficit-weighted round-robin.
    ///
    /// Each round grants every backlogged class its
    /// [`Priority::weight`] in pulls; higher classes spend their credit
    /// first, a class that runs dry forfeits the rest of its round, and
    /// the round replenishes once no backlogged class has credit left.
    /// Within a class, sessions rotate FIFO — with a single class in
    /// play this degenerates to exactly the old fair round-robin.
    fn pop_ready(&mut self) -> Option<String> {
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
}

struct Shared {
    config: ServeConfig,
    obs: Obs,
    /// Shared evaluation cache: one process-wide handle, attached to a
    /// session's environment only when its spec opts in
    /// (`SessionSpec::use_cache`). Instrumented on the service's obs
    /// handle (`evalcache.*`).
    cache: relm_tune::EvalStore,
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
    /// Join handles of every worker thread ever spawned (autoscaling
    /// spawns more after startup), drained on shutdown. Lock-ordering
    /// rule: only ever acquired while holding — or after releasing — the
    /// state lock, never the other way around.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Monotone worker-name sequence, so autoscaled threads get distinct
    /// `relm-serve-worker-<n>` names.
    next_worker: AtomicUsize,
}

impl Shared {
    fn refresh_gauges(&self, state: &State) {
        self.obs
            .gauge("serve.queue.global", state.global_pending as f64);
        self.obs
            .gauge("serve.sessions.active", state.sessions.len() as f64);
        self.obs.gauge("serve.workers.busy", state.running as f64);
        self.obs
            .gauge("serve.workers.alive", state.alive_workers as f64);
        for p in Priority::ALL {
            self.obs.gauge(
                &format!("serve.queue.class.{}", p.as_str()),
                state.pending_by_class[p.index()] as f64,
            );
        }
    }
}

/// The concurrent tuning service. Cheap to share behind an [`Arc`];
/// dropping the last handle stops and joins the worker pool.
pub struct Service {
    shared: Arc<Shared>,
}

impl Service {
    /// Starts the worker pool and returns the service handle.
    pub fn start(config: ServeConfig, obs: Obs) -> Self {
        let cache = relm_tune::EvalStore::instrumented(obs.clone());
        // Load the memory store up front: a corrupt store surfaces at
        // startup, not mid-drain, and retrieval never touches disk.
        let memory = match &config.memory_store {
            Some(path) => match MemoryStore::load_or_empty(path, obs.clone()) {
                Ok(store) => Some(store),
                Err(_) => {
                    obs.inc("memory.load_errors");
                    Some(MemoryStore::instrumented(obs.clone()))
                }
            },
            None => None,
        };
        let shared = Arc::new(Shared {
            config: ServeConfig {
                workers: config.workers.max(1),
                ..config
            },
            obs,
            cache,
            state: Mutex::new(State {
                sessions: BTreeMap::new(),
                ready: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                credit: [0; 3],
                global_pending: 0,
                pending_by_class: [0; 3],
                running: 0,
                alive_workers: 0,
                evaluations: 0,
                evictions: 0,
                resumes: 0,
                grown: 0,
                shrunk: 0,
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
            handles: Mutex::new(Vec::new()),
            next_worker: AtomicUsize::new(0),
        });
        let initial = match shared.config.execution {
            // Fleet mode: evaluations leave through `lease_next`, not an
            // in-process pool.
            Execution::External => 0,
            Execution::InProcess => match shared.config.autoscale() {
                Some((floor, ceiling)) => shared.config.workers.clamp(floor, ceiling),
                None => shared.config.workers,
            },
        };
        {
            let mut state = shared.state.lock().expect("service state poisoned");
            state.alive_workers = initial;
            shared.refresh_gauges(&state);
        }
        for _ in 0..initial {
            spawn_worker(&shared);
        }
        Service { shared }
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
        let endpoint = request.endpoint();
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
        obs.inc(&format!("serve.requests.{endpoint}"));
        obs.record(
            &format!("serve.endpoint.{endpoint}_ms"),
            start.elapsed().as_secs_f64() * 1e3,
        );
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
    /// same capture* — the two halves cannot disagree. Never blocks the
    /// workers: capturing reads the registry under its own short locks.
    fn metrics(&self) -> Response {
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
        if state.sessions.len() >= self.shared.config.max_sessions {
            return Response::Overloaded {
                reason: format!(
                    "session table full ({} sessions)",
                    self.shared.config.max_sessions
                ),
                session_pending: 0,
                global_pending: state.global_pending,
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
                frozen_guided: None,
                evalcache_hits_base: 0,
                sampler,
                space,
                guided: None,
                guided_seed,
                workload_label,
                base_seed: spec.base_seed,
                prior,
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
    /// [`Service::admit`] and the guided step (which must propose and admit
    /// under one lock acquisition so the history it fitted on cannot move).
    /// The caller notifies `work` after releasing the lock on acceptance.
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
        let global_pending = state.global_pending;
        let global_limit = shared.config.global_queue_limit;
        let session_limit = shared.config.session_queue_limit;
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
        if sess.pending.len() + configs.len() > session_limit {
            return Response::Overloaded {
                reason: format!("session queue limit ({session_limit}) exceeded"),
                session_pending: sess.pending.len(),
                global_pending,
            };
        }
        // Graduated global gate: each class may fill only its share of
        // the global bound, so under sustained overload low-priority
        // traffic sees pushback first and high-priority steps still land
        // until the queue is truly full.
        let priority = sess.priority;
        let class_limit = ((global_limit as f64) * priority.admission_share()).floor() as usize;
        let class_limit = class_limit.max(1);
        if global_pending + configs.len() > class_limit {
            shared.obs.inc(&format!(
                "serve.rejected.overloaded.class.{}",
                priority.as_str()
            ));
            return Response::Overloaded {
                reason: format!(
                    "global queue limit for {}-priority steps \
                     ({class_limit} of {global_limit}) exceeded",
                    priority.as_str()
                ),
                session_pending: sess.pending.len(),
                global_pending,
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
        let became_ready = !sess.queued && !sess.running && !sess.pending.is_empty();
        if became_ready {
            sess.queued = true;
        }
        let name = sess.name.clone();
        let cls = priority.index();
        if became_ready {
            state.ready[cls].push_back(name);
        }
        state.global_pending += enqueued;
        state.pending_by_class[cls] += enqueued;
        // Autoscale growth rides on admission (the only edge where the
        // backlog rises): spawn while the queue holds more than
        // AUTOSCALE_BACKLOG_FACTOR pending evaluations per live worker.
        if let Some((_floor, ceiling)) = shared.config.autoscale() {
            while state.alive_workers < ceiling
                && state.global_pending > state.alive_workers * AUTOSCALE_BACKLOG_FACTOR
            {
                spawn_worker(shared);
                state.alive_workers += 1;
                state.grown += 1;
                shared.obs.inc("serve.autoscale.grow");
            }
        }
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
        // Draw the batch under the lock, then go through the common
        // admission path. Draws must not be lost on rejection, so sample
        // from a *copy* of the sampler and only commit it on admission.
        let configs = {
            let mut state = self.shared.state.lock().expect("service state poisoned");
            let Some(sess) = state.sessions.get_mut(session) else {
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
            (configs, sampler)
        };
        let (configs, sampler) = configs;
        let response = self.admit(session, configs);
        if matches!(response, Response::Accepted { .. }) {
            let mut state = self.shared.state.lock().expect("service state poisoned");
            if let Some(sess) = state.sessions.get_mut(session) {
                sess.sampler = sampler;
            }
        }
        response
    }

    /// Enqueues `evals` GP-proposed configurations.
    ///
    /// The session must be *idle* (nothing pending, nothing running): the
    /// surrogate is fitted on the settled history, so the proposals are a
    /// pure function of the session spec and that history — byte-identical
    /// whether the pool has 1 worker or 8, and however the request
    /// interleaves with other sessions. Proposing and admitting happen
    /// under one lock acquisition so the history cannot move in between;
    /// the proposal state commits only on admission, so a rejected batch
    /// leaves the stream untouched.
    fn step_guided(&self, session: &str, evals: u32) -> Response {
        if evals == 0 {
            return Response::Error {
                message: "step carries no configurations".into(),
            };
        }
        let shared = &self.shared;
        let mut state = shared.state.lock().expect("service state poisoned");
        if state.draining || state.stopped {
            return Response::Error {
                message: "service is draining".into(),
            };
        }
        // An evicted session must come home before the fitter can see its
        // history. Cheap no-op for live sessions; the idle/cancelled
        // checks below still run against the resumed state.
        if state.sessions.get(session).is_some_and(|s| s.evicted) {
            if let Err(message) = resume_session(shared, &mut state, session) {
                return Response::Error { message };
            }
        }
        let (mut guided, space, tau, guided_seed, incumbent) = {
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
            if sess.running || !sess.pending.is_empty() {
                return Response::Error {
                    message: format!(
                        "session `{session}` must be idle for guided steps (join first)"
                    ),
                };
            }
            let env = sess.env.as_ref().expect("idle session owns its env");
            let history = env.history();
            // A warm-started session's prior observations count toward
            // the fit minimum: with a usable prior, guided steps can run
            // from evaluation zero.
            if history.len() + sess.prior.gp_obs.len() < GUIDED_MIN_HISTORY {
                return Response::Error {
                    message: format!(
                        "guided steps need at least {GUIDED_MIN_HISTORY} completed \
                         evaluations, session `{session}` has {}",
                        history.len()
                    ),
                };
            }
            let mut guided = match &sess.guided {
                Some(g) => g.clone(),
                None => {
                    // Long-lived sessions can accumulate histories in the
                    // hundreds; the large-n policy keeps per-step fit cost
                    // flat there while leaving smaller histories (below the
                    // sparse threshold) byte-identical to the exact path.
                    let mut fitter = GpFitter::default().with_policy(SparsePolicy::large_n());
                    // Seed the surrogate with the retrieved prior before
                    // any history: prior points are part of the fitter
                    // but never of `fed`, which indexes history alone.
                    for (x, y) in &sess.prior.gp_obs {
                        if let Err(e) = fitter.observe(x.clone(), *y) {
                            return Response::Error {
                                message: format!("guided fit failed: {e}"),
                            };
                        }
                    }
                    GuidedState {
                        fitter,
                        rng: Rng::new(sess.guided_seed),
                        fits: 0,
                        fed: 0,
                        feeds: Vec::new(),
                    }
                }
            };
            // Feed the settled observations the fitter has not seen yet, in
            // history order, encoded into the space's unit hypercube.
            for obs in &history[guided.fed..] {
                let x = sess.space.encode(&obs.config).to_vec();
                if let Err(e) = guided.fitter.observe(x, obs.score_mins) {
                    return Response::Error {
                        message: format!("guided fit failed: {e}"),
                    };
                }
            }
            guided.fed = history.len();
            // The EI threshold folds in the prior's best score, so the
            // first warm proposals already aim below what similar past
            // sessions achieved.
            let tau = history
                .iter()
                .fold(sess.prior.best_y().unwrap_or(f64::INFINITY), |t, obs| {
                    t.min(obs.score_mins)
                });
            // Incumbent transfer: before any evaluation has settled, the
            // first warm proposal re-evaluates the prior's best-known
            // point rather than trusting the surrogate to re-discover it.
            let incumbent = if history.is_empty() {
                sess.prior.best_x().map(|x| x.to_vec())
            } else {
                None
            };
            (guided, sess.space.clone(), tau, sess.guided_seed, incumbent)
        };
        let before = guided.fitter.stats();
        let fit_started = Instant::now();
        let full = !guided.fitter.has_fit() || guided.fits.is_multiple_of(GUIDED_REFIT_PERIOD);
        let fitted = if full {
            guided
                .fitter
                .fit_full(guided_seed ^ ((guided.fits as u64) << 8))
        } else {
            guided.fitter.refit()
        };
        let gp = match fitted {
            Ok(gp) => gp,
            Err(e) => {
                return Response::Error {
                    message: format!("guided fit failed: {e}"),
                }
            }
        };
        guided.fits += 1;
        guided.feeds.push(guided.fed);
        shared.obs.record(
            "surrogate.fit_ms",
            fit_started.elapsed().as_secs_f64() * 1e3,
        );
        let stats = guided.fitter.stats();
        shared.obs.add(
            "surrogate.gram_reuse",
            (stats.gram_reused_dims - before.gram_reused_dims) as f64,
        );
        shared.obs.add(
            "surrogate.incremental_fits",
            (stats.incremental_fits - before.incremental_fits) as f64,
        );
        shared.obs.add(
            "surrogate.chol_jitter_retries",
            (stats.chol_jitter_retries - before.chol_jitter_retries) as f64,
        );
        shared.obs.inc("serve.guided.batches");
        let configs: Vec<MemoryConfig> = (0..evals)
            .map(|i| match (i, &incumbent) {
                (0, Some(x)) => space.decode(x),
                _ => {
                    let (x, _ei) = maximize_ei(&gp, DIMS, tau, &mut guided.rng);
                    space.decode(&x)
                }
            })
            .collect();
        let response = Self::admit_locked(shared, &mut state, session, configs);
        if matches!(response, Response::Accepted { .. }) {
            let sess = state
                .sessions
                .get_mut(session)
                .expect("admitted session is registered");
            sess.guided = Some(guided);
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
        let Some(sess) = state.sessions.get_mut(session) else {
            return Response::Error {
                message: format!("unknown session `{session}`"),
            };
        };
        let discarded = sess.pending.len();
        sess.pending.clear();
        sess.cancelled = true;
        sess.queued = false;
        let name = sess.name.clone();
        let cls = sess.priority.index();
        state.ready[cls].retain(|s| *s != name);
        state.global_pending -= discarded;
        state.pending_by_class[cls] -= discarded;
        shared.obs.inc("serve.sessions.cancelled");
        shared.obs.add("serve.discarded", discarded as f64);
        shared.refresh_gauges(&state);
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

    /// Graceful shutdown: stop admitting, run the backlog dry, checkpoint
    /// every session, then stop the workers.
    ///
    /// With a fleet attached, "run the backlog dry" includes tasks in
    /// reassignment limbo: after admission closes, the center's
    /// [`FleetRouter::drain_assist`] runs every queued or orphaned task
    /// to completion (locally if no live worker will take it) before the
    /// tally below — a draining service never drops a leased task.
    fn drain(&self) -> Response {
        let shared = &self.shared;
        {
            let mut state = shared.state.lock().expect("service state poisoned");
            state.draining = true;
        }
        // No state lock held across the router call (lock-ordering rule:
        // the router calls back into `lease_next`/`commit_lease`).
        let router = self.router();
        if let Some(router) = &router {
            router.drain_assist();
        }
        let reassignments = router.map_or(0, |r| r.reassignments());
        let mut state = shared.state.lock().expect("service state poisoned");
        while state.global_pending > 0 || state.running > 0 {
            state = shared.done.wait(state).expect("service state poisoned");
        }
        // Quiescent: every environment is home or evicted to disk. Bring
        // the evicted ones home so the final checkpoint/digest pass sees
        // live environments — the drain report's `resumes` includes
        // these, so `evictions == resumes` holds after a clean drain.
        let evicted: Vec<String> = state
            .sessions
            .values()
            .filter(|s| s.evicted)
            .map(|s| s.name.clone())
            .collect();
        for name in &evicted {
            // A failed resume leaves the session without an environment;
            // the loops below skip it (counted as `serve.resume_errors`).
            let _ = resume_session(shared, &mut state, name);
        }
        let mut checkpointed = 0usize;
        if let Some(dir) = &shared.config.checkpoint_dir {
            if std::fs::create_dir_all(dir).is_ok() {
                for (name, sess) in &state.sessions {
                    let Some(env) = sess.env.as_ref() else {
                        continue;
                    };
                    let ckpt = SessionCheckpoint::capture(env);
                    let path = dir.join(format!("{name}.ckpt.json"));
                    match ckpt.save_tagged(&path, name) {
                        Ok(()) => {
                            checkpointed += 1;
                            shared.obs.inc("serve.checkpointed");
                        }
                        Err(_) => shared.obs.inc("serve.checkpoint_errors"),
                    }
                }
            }
        }
        // Extract one compact digest per session with completed work:
        // written beside the checkpoints (so memory ingest never needs a
        // live session) and merged into the memory store below.
        let mut digests: Vec<SessionDigest> = Vec::new();
        for (name, sess) in &state.sessions {
            let Some(env) = sess.env.as_ref() else {
                continue;
            };
            if env.evaluations() == 0 {
                continue;
            }
            let digest = SessionDigest::from_env(&sess.workload_label, sess.base_seed, env);
            if let Some(dir) = &shared.config.checkpoint_dir {
                match digest.save(&dir.join(format!("{name}.digest.json"))) {
                    Ok(()) => shared.obs.inc("serve.digests_written"),
                    Err(_) => shared.obs.inc("serve.digest_errors"),
                }
            }
            digests.push(digest);
        }
        // Freeze every session's flight recorder alongside the
        // checkpoints — the post-mortem record of the whole run.
        let mut flight_dumped = 0usize;
        if let Some(dir) = &shared.config.flightrec_dir {
            for (name, sess) in &state.sessions {
                let dump = sess.flight.dump(name, "drain");
                match relm_obs::save_dump(dir, &dump) {
                    Ok(_) => {
                        flight_dumped += 1;
                        shared.obs.inc("serve.flightrec.dumps");
                    }
                    Err(_) => shared.obs.inc("serve.flightrec.errors"),
                }
            }
        }
        let sessions = state.sessions.len();
        let evaluations = state.evaluations;
        let evictions = state.evictions;
        let resumes = state.resumes;
        let workers_grown = state.grown;
        let workers_shrunk = state.shrunk;
        let already_stopped = state.stopped;
        state.stopped = true;
        shared.refresh_gauges(&state);
        drop(state);
        // Merge the digests into the cross-session memory store and
        // persist it — after the state lock is gone (lock-ordering rule:
        // the memory and state locks are never held together).
        if let Some(path) = &shared.config.memory_store {
            if !digests.is_empty() {
                let mut memory = shared.memory.lock().expect("memory store poisoned");
                if let Some(store) = memory.as_mut() {
                    for digest in digests {
                        store.ingest(digest);
                    }
                    if store.save(path).is_err() {
                        shared.obs.inc("memory.save_errors");
                    }
                }
            }
        }
        if !already_stopped {
            shared.work.notify_all();
        }
        Response::Drained {
            sessions,
            evaluations,
            checkpointed,
            flight_dumped,
            reassignments,
            evictions,
            resumes,
            workers_grown,
            workers_shrunk,
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
        loop {
            let name = state.pop_ready()?;
            // Leasing snapshots the environment's seed chain, so an
            // evicted session must come home first.
            if let Err(_message) = resume_session(shared, &mut state, &name) {
                fail_session_locked(shared, &mut state, &name);
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
            let priority = sess.priority;
            let env = sess.env.as_mut().expect("idle session owns its env");
            let lease = EvalLease {
                session: name.clone(),
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
            };
            sess.running = true;
            state.global_pending -= 1;
            state.pending_by_class[priority.index()] -= 1;
            state.running += 1;
            shared.refresh_gauges(&state);
            return Some(lease);
        }
    }

    /// Commits a lease: lands the evaluation in the session's history and
    /// releases the session for its next queued evaluation.
    ///
    /// With `Some(outcome)` — a remote worker's result — the outcome is
    /// first inserted into the shared cache under the lease's key; the
    /// session's environment then *replays* it (seed chain, retry time,
    /// counter deltas, re-scoring against the current penalty baseline),
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
        state.global_pending == 0 && state.running == 0
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
        // Admission spawns workers only under the state lock with
        // `stopped` false, so after the store above the handle vector is
        // final (retired autoscale workers join instantly).
        let handles: Vec<JoinHandle<()>> = self
            .shared
            .handles
            .lock()
            .expect("worker handles poisoned")
            .drain(..)
            .collect();
        for worker in handles {
            let _ = worker.join();
        }
    }
}

/// Spawns one worker thread and registers its join handle. The caller
/// accounts for it in `State::alive_workers`.
fn spawn_worker(shared: &Arc<Shared>) {
    let idx = shared.next_worker.fetch_add(1, Ordering::Relaxed);
    let cloned = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("relm-serve-worker-{idx}"))
        .spawn(move || worker_loop(&cloned))
        .expect("spawn worker thread");
    shared
        .handles
        .lock()
        .expect("worker handles poisoned")
        .push(handle);
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
                // Autoscale shrink: an idle worker above the floor
                // retires itself once the whole queue has drained —
                // completion edges, not timers, scale the pool back down.
                if let Some((floor, _ceiling)) = shared.config.autoscale() {
                    if state.alive_workers > floor
                        && state.global_pending == 0
                        && state.running == 0
                    {
                        state.alive_workers -= 1;
                        state.shrunk += 1;
                        shared.obs.inc("serve.autoscale.shrink");
                        shared.refresh_gauges(&state);
                        drop(state);
                        // Wake the other idle workers so retirement
                        // cascades down to the floor without waiting for
                        // the next admission.
                        shared.work.notify_all();
                        return;
                    }
                }
                if let Some(name) = state.pop_ready() {
                    // An evicted session readied by a post-eviction step:
                    // bring its environment home before running. A failed
                    // resume fails the session like a cancel so joiners
                    // wake instead of hanging on lost work.
                    if resume_session(shared, &mut state, &name).is_err() {
                        fail_session_locked(shared, &mut state, &name);
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
                    let env = sess.env.take().expect("idle session owns its env");
                    let flight = Arc::clone(&sess.flight);
                    let cls = sess.priority.index();
                    sess.running = true;
                    state.global_pending -= 1;
                    state.pending_by_class[cls] -= 1;
                    state.running += 1;
                    shared.refresh_gauges(&state);
                    break (name, env, item, flight);
                }
                state = shared.work.wait(state).expect("service state poisoned");
            }
        };
        run_session_eval(shared, &name, env, item, flight);
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
    state.running -= 1;
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
    // The environment's live counter resets on an evict/resume cycle;
    // the base keeps the mirror monotone across any number of them.
    sess.evalcache_hits = sess.evalcache_hits_base + evalcache_hits;
    sess.queue_wait_ms += wait_ms;
    sess.last_active = epoch;
    sess.env = Some(env);
    sess.running = false;
    if !sess.pending.is_empty() && !sess.cancelled && !sess.queued {
        sess.queued = true;
        let name = sess.name.clone();
        let cls = sess.priority.index();
        state.ready[cls].push_back(name);
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
    let mut env = TuningEnv::new(engine, app, spec.base_seed);
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
    Ok(env)
}

/// Checkpoints one idle session to `<dir>/<name>.evict.json` and unloads
/// its environment (and the memory-heavy part of its guided state). On
/// any failure the session is left exactly as it was, environment home.
fn evict_one_locked(shared: &Shared, state: &mut State, name: &str) -> Result<String, String> {
    let Some(dir) = shared.config.evict_dir() else {
        return Err("no eviction directory configured (set evict_dir or checkpoint_dir)".into());
    };
    let dir = dir.clone();
    let Some(sess) = state.sessions.get_mut(name) else {
        return Err(format!("unknown session `{name}`"));
    };
    if sess.evicted {
        return Err(format!("session `{name}` is already evicted"));
    }
    if sess.running || !sess.pending.is_empty() {
        return Err(format!(
            "session `{name}` must be idle to evict (join first)"
        ));
    }
    let Some(env) = sess.env.take() else {
        return Err(format!("session `{name}` owns no environment"));
    };
    if std::fs::create_dir_all(&dir).is_err() {
        sess.env = Some(env);
        shared.obs.inc("serve.evict_errors");
        return Err(format!(
            "cannot create eviction directory `{}`",
            dir.display()
        ));
    }
    let path = dir.join(format!("{name}.evict.json"));
    let ckpt = SessionCheckpoint::capture(&env);
    match ckpt.save_tagged(&path, name) {
        Ok(()) => {
            // The restored environment's cache-hit counter restarts at
            // zero; bank what's accrued so the mirror stays monotone.
            sess.evalcache_hits_base = sess.evalcache_hits;
            sess.frozen_guided = sess.guided.take().map(|g| FrozenGuided {
                rng: g.rng,
                fits: g.fits,
                feeds: g.feeds,
            });
            sess.evicted = true;
            state.evictions += 1;
            shared.obs.inc("serve.evictions");
            Ok(path.display().to_string())
        }
        Err(e) => {
            sess.env = Some(env);
            shared.obs.inc("serve.evict_errors");
            Err(format!("eviction checkpoint failed: {e}"))
        }
    }
}

/// The automatic eviction sweep, run on every completion when
/// [`ServeConfig::evict_after_evals`] is set: any session that completed
/// work but has been idle for a full epoch window is checkpointed out.
/// Purely an epoch-clock policy — no wall time touches the decision.
fn maybe_evict_locked(shared: &Shared, state: &mut State) {
    let window = shared.config.evict_after_evals;
    if window == 0 || shared.config.evict_dir().is_none() {
        return;
    }
    let epoch = state.evaluations;
    let victims: Vec<String> = state
        .sessions
        .values()
        .filter(|s| {
            !s.evicted
                && s.env.is_some()
                && !s.running
                && s.pending.is_empty()
                && s.completed > 0
                && epoch.saturating_sub(s.last_active) >= window
        })
        .map(|s| s.name.clone())
        .collect();
    for name in victims {
        // Failures (checkpoint unwritable) leave the session live and
        // are counted under `serve.evict_errors`.
        let _ = evict_one_locked(shared, state, &name);
    }
}

/// Rebuilds an evicted session's guided-proposal state by replaying its
/// recorded fit schedule against the resumed history: same prior, same
/// observation order, same full-vs-incremental refit sequence, same
/// seeds — so the fitter (and with the carried-over RNG, the proposal
/// stream) comes back bit-identical.
fn rebuild_guided(
    frozen: &FrozenGuided,
    prior: &PriorBundle,
    space: &ConfigSpace,
    guided_seed: u64,
    history: &[Observation],
) -> Result<GuidedState, String> {
    let mut fitter = GpFitter::default().with_policy(SparsePolicy::large_n());
    for (x, y) in &prior.gp_obs {
        fitter
            .observe(x.clone(), *y)
            .map_err(|e| format!("guided rebuild failed: {e}"))?;
    }
    let mut fed = 0usize;
    for (i, &upto) in frozen.feeds.iter().enumerate() {
        for obs in &history[fed..upto] {
            fitter
                .observe(space.encode(&obs.config).to_vec(), obs.score_mins)
                .map_err(|e| format!("guided rebuild failed: {e}"))?;
        }
        fed = upto;
        let full = !fitter.has_fit() || i.is_multiple_of(GUIDED_REFIT_PERIOD);
        let fitted = if full {
            fitter.fit_full(guided_seed ^ ((i as u64) << 8))
        } else {
            fitter.refit()
        };
        if let Err(e) = fitted {
            return Err(format!("guided rebuild failed: {e}"));
        }
    }
    Ok(GuidedState {
        fitter,
        rng: frozen.rng.clone(),
        fits: frozen.fits,
        fed,
        feeds: frozen.feeds.clone(),
    })
}

/// Brings an evicted session home: loads its eviction checkpoint,
/// rebuilds the engine from the retained spec, restores the environment
/// (byte-identical history and seed chain — the [`SessionCheckpoint`]
/// resume guarantee), re-applies the spec's retry policy and cache
/// attachment (which `restore` resets), replays the guided fit schedule,
/// and deletes the checkpoint file. No-op for live sessions. On error
/// the session stays evicted and `serve.resume_errors` counts it; the
/// caller decides whether to fail the session.
fn resume_session(shared: &Shared, state: &mut State, name: &str) -> Result<(), String> {
    let Some(sess) = state.sessions.get_mut(name) else {
        return Err(format!("unknown session `{name}`"));
    };
    if !sess.evicted {
        return Ok(());
    }
    let result = (|| -> Result<(TuningEnv, Option<GuidedState>), String> {
        let dir = shared
            .config
            .evict_dir()
            .ok_or_else(|| "no eviction directory configured".to_string())?;
        let path = dir.join(format!("{name}.evict.json"));
        let ckpt = SessionCheckpoint::load(&path)
            .map_err(|e| format!("cannot load eviction checkpoint: {e}"))?;
        let engine = build_engine(shared, &sess.spec);
        let mut env = ckpt.resume(engine);
        // `restore` resets the retry policy and detaches the cache;
        // re-apply both from the retained spec, in creation order.
        if let Some(retry) = sess.spec.retry {
            env = env.with_retry_policy(retry);
        }
        if sess.spec.use_cache || shared.config.execution == Execution::External {
            env = env.with_cache(shared.cache.clone());
        }
        let guided = match &sess.frozen_guided {
            Some(frozen) => Some(rebuild_guided(
                frozen,
                &sess.prior,
                &sess.space,
                sess.guided_seed,
                env.history(),
            )?),
            None => None,
        };
        Ok((env, guided))
    })();
    match result {
        Ok((env, guided)) => {
            if guided.is_some() {
                sess.guided = guided;
            }
            sess.frozen_guided = None;
            sess.env = Some(env);
            sess.evicted = false;
            if let Some(dir) = shared.config.evict_dir() {
                let _ = std::fs::remove_file(dir.join(format!("{name}.evict.json")));
            }
            state.resumes += 1;
            shared.obs.inc("serve.resumes");
            Ok(())
        }
        Err(message) => {
            shared.obs.inc("serve.resume_errors");
            Err(message)
        }
    }
}

/// Fails a session whose eviction resume is permanently broken, exactly
/// like a cancel: pending work is discarded (so the global queue and
/// joiners move on) and new steps are refused.
fn fail_session_locked(shared: &Shared, state: &mut State, name: &str) {
    let Some(sess) = state.sessions.get_mut(name) else {
        return;
    };
    let discarded = sess.pending.len();
    sess.pending.clear();
    sess.cancelled = true;
    sess.queued = false;
    let cls = sess.priority.index();
    state.global_pending -= discarded;
    state.pending_by_class[cls] -= discarded;
    shared.obs.inc("serve.sessions.cancelled");
    shared.obs.add("serve.discarded", discarded as f64);
    shared.refresh_gauges(state);
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
                workers_grown,
                workers_shrunk,
            } => {
                assert_eq!(n, 3);
                assert_eq!(evaluations, 6, "drain must run the whole backlog");
                assert_eq!(checkpointed, 3);
                // No flight-recorder directory configured in this test.
                assert_eq!(flight_dumped, 0);
                // No fleet attached: nothing to reassign.
                assert_eq!(reassignments, 0);
                // Eviction and autoscaling are off by default.
                assert_eq!(evictions, 0);
                assert_eq!(resumes, 0);
                assert_eq!(workers_grown, 0);
                assert_eq!(workers_shrunk, 0);
            }
            other => panic!("drain failed: {other:?}"),
        }
        for s in &sessions {
            let path = dir.join(format!("{s}.ckpt.json"));
            let ckpt = SessionCheckpoint::load(&path).expect("checkpoint readable");
            assert_eq!(ckpt.history.len(), 2, "no lost or duplicated evaluations");
        }
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
                evict_dir: Some(dir.clone()),
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

    /// With autoscaling on, admission grows the pool under backlog and
    /// idle workers retire back to the floor once the queue drains.
    #[test]
    fn autoscaling_grows_under_backlog_and_shrinks_when_idle() {
        let service = Service::start(
            ServeConfig {
                workers: 1,
                min_workers: 1,
                max_workers: 4,
                ..ServeConfig::default()
            },
            Obs::enabled(),
        );
        let session = create(&service, SessionSpec::named("WordCount", 8));
        service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 12,
        });
        {
            let state = service.shared.state.lock().unwrap();
            assert!(
                state.grown >= 1,
                "a 12-deep backlog on one worker must grow the pool"
            );
            assert!(state.alive_workers <= 4, "ceiling respected");
        }
        service.handle(&Request::Join {
            session: session.clone(),
        });
        // Workers retire on completion edges; the last completion sees
        // the empty queue, so by the time Join returns and we re-lock,
        // retirement has either happened or needs one more wakeup.
        service.shared.work.notify_all();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let state = service.shared.state.lock().unwrap();
                if state.alive_workers == 1 {
                    assert_eq!(state.grown, state.shrunk, "scale-ups all retired");
                    break;
                }
            }
            assert!(Instant::now() < deadline, "pool failed to shrink to floor");
            std::thread::yield_now();
        }
        match service.handle(&Request::Result { session }) {
            Response::ResultReady { history, .. } => assert_eq!(history.len(), 12),
            other => panic!("result failed: {other:?}"),
        }
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
}
