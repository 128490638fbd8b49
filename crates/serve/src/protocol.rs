//! The JSON-lines wire protocol of `relm-serve`.
//!
//! Every request and every response is one JSON object on one line
//! (externally tagged by variant name). The same [`Request`]/[`Response`]
//! pair serves both the in-process client and the TCP frontend, so a
//! session driven over a socket is indistinguishable from one driven
//! in-process.
//!
//! Framing is deliberately strict: a line that does not parse is a
//! *malformed frame* and a line longer than the configured bound is an
//! *oversized frame*. Both are rejected (and counted) instead of being
//! buffered — the service never allocates proportionally to what a
//! misbehaving client sends.

use relm_app::{AppSpec, EngineCostModel};
use relm_cluster::ClusterSpec;
use relm_common::MemoryConfig;
use relm_faults::{FaultConfig, FaultPlan};
use relm_tune::{CachedEval, Observation, RetryPolicy, SessionExport};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Read};

/// Default upper bound on one frame (request or response line), in bytes.
/// Histories of long sessions dominate response size; 8 MiB leaves an
/// order of magnitude of headroom over the largest legitimate frame.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// A session's scheduling class.
///
/// Priorities shape *where the queue bends first*, never *what a session
/// computes*: the worker pool serves ready sessions through a
/// deficit-weighted round-robin (high-priority sessions get proportionally
/// more pulls per round, but every non-empty class makes progress each
/// round), and admission control pushes low-priority work back first as
/// the global queue fills. A session's history stays a pure function of
/// its spec regardless of class — priorities only reorder *between*
/// sessions, and within one session evaluations are always FIFO.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Priority {
    /// Background work: first to be pushed back, fewest pulls per
    /// scheduling round.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive work: may use the full global queue and gets the
    /// most pulls per scheduling round.
    High,
}

impl Priority {
    /// Every class, lowest to highest — index agrees with
    /// [`Priority::index`].
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// Dense index (`Low = 0`, `Normal = 1`, `High = 2`), used for
    /// per-class queues and counters.
    pub fn index(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Pulls per deficit-round-robin replenish: a round with every class
    /// backlogged serves 4 high, 2 normal, and 1 low evaluation.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }

    /// The fraction of the global pending queue this class may fill
    /// before its steps are rejected: low-priority work is pushed back at
    /// half the queue, normal at three quarters, high may use all of it.
    pub fn admission_share(self) -> f64 {
        match self {
            Priority::Low => 0.5,
            Priority::Normal => 0.75,
            Priority::High => 1.0,
        }
    }

    /// Stable lowercase label, used in metric names
    /// (`serve.queue.class.<label>`, …) and overload reasons.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// The class's pending-evaluation gauge,
    /// `serve.queue.class.<label>`.
    pub fn queue_gauge(self) -> &'static str {
        match self {
            Priority::Low => "serve.queue.class.low",
            Priority::Normal => "serve.queue.class.normal",
            Priority::High => "serve.queue.class.high",
        }
    }
}

/// What a session tunes: the application, the seed chain, and the
/// substrate faults it runs against.
///
/// The fault plan rides through the protocol untouched — injection is
/// site-addressed (pure function of plan seed + site), so a session's
/// faults are identical whether it runs alone or interleaved with dozens
/// of others on a worker pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Workload name resolved against the benchmark suite (`WordCount`,
    /// `SortByKey`, `K-means`, `SVM`, `PageRank`), ignored when `app` is
    /// given.
    pub workload: String,
    /// Explicit application spec; overrides `workload` when present.
    pub app: Option<AppSpec>,
    /// Base seed of the session's evaluation seed chain.
    pub base_seed: u64,
    /// Seeded fault plan applied to every evaluation of this session.
    pub fault_seed: Option<u64>,
    /// Fault rates for the plan; `None` (or all-zero rates) disables
    /// injection.
    pub faults: Option<FaultConfig>,
    /// Retry/recovery policy; `None` means [`RetryPolicy::standard`].
    pub retry: Option<RetryPolicy>,
    /// Opt the session into the service's shared evaluation cache:
    /// identical evaluations (same spec inputs, same seed-chain position)
    /// replay a memoized outcome instead of re-simulating, and a guided
    /// step whose fitted GP, EI threshold and RNG state were seen before
    /// takes that EI search's result from the service's proposal memo.
    /// Off by default: the cache and the memo live as long as the
    /// service and keep every entry a session adds, so caching is
    /// something a client asks for.
    pub use_cache: bool,
    /// Warm-start the session from the service's cross-session memory
    /// store: retrieve the nearest past sessions by workload fingerprint
    /// and seed the guided sampler's surrogate with their re-weighted
    /// observations. A retrieval miss (empty store, unknown workload)
    /// degrades to a cold start; it never fails the request.
    pub warm_start: bool,
    /// Scheduling class (see [`Priority`]). Affects only *when* the
    /// session's evaluations run and how early its steps see overload
    /// pushback — never what they compute.
    pub priority: Priority,
}

impl SessionSpec {
    /// A plain fault-free session on a named workload.
    pub fn named(workload: &str, base_seed: u64) -> Self {
        SessionSpec {
            workload: workload.to_string(),
            app: None,
            base_seed,
            fault_seed: None,
            faults: None,
            retry: None,
            use_cache: false,
            warm_start: false,
            priority: Priority::Normal,
        }
    }

    /// Adds a seeded fault plan.
    pub fn with_faults(mut self, fault_seed: u64, faults: FaultConfig) -> Self {
        self.fault_seed = Some(fault_seed);
        self.faults = Some(faults);
        self
    }

    /// Opts into the service's shared evaluation cache.
    pub fn with_cache(mut self) -> Self {
        self.use_cache = true;
        self
    }

    /// Opts into warm-starting from the service's memory store.
    pub fn with_warm_start(mut self) -> Self {
        self.warm_start = true;
        self
    }

    /// Sets the scheduling class (default [`Priority::Normal`]).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// One evaluation leased to a remote fleet worker: everything the
/// engine's outcome is a pure function of, plus the routing identity
/// (`id`, `attempt`, `session`). A worker rebuilds a throwaway
/// [`relm_tune::TuningEnv`] from this and executes exactly the live
/// evaluation the center would have run locally — which is what makes
/// the result safe to commit through the shared cache's replay path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTask {
    /// Center-assigned task id, unique for the service's lifetime.
    pub id: u64,
    /// Assignment attempt (0 on first lease, +1 per reassignment).
    pub attempt: u32,
    /// The session the evaluation belongs to (routing only — the worker
    /// holds no session state).
    pub session: String,
    /// Application under test.
    pub app: AppSpec,
    /// Cluster the engine simulates.
    pub cluster: ClusterSpec,
    /// Engine cost model.
    pub cost: EngineCostModel,
    /// The memory configuration to stress-test.
    pub config: MemoryConfig,
    /// The session's seed-chain position for this evaluation.
    pub seed: u64,
    /// Retry/recovery policy the evaluation runs under.
    pub retry: RetryPolicy,
    /// The session's seeded fault plan, if any.
    pub faults: Option<FaultPlan>,
}

/// What a worker ships back for one completed [`FleetTask`]: the same
/// [`CachedEval`] the cache-fill path would have stored, so the center
/// can insert it into the shared evaluation cache and *replay* it into
/// the session — byte-identical to having run the evaluation locally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// The memoized evaluation outcome (result, Table-6 statistics, retry
    /// accounting, counter totals).
    pub eval: CachedEval,
    /// Wall-clock milliseconds the worker spent. Telemetry only — never
    /// part of the deterministic outputs.
    pub wall_ms: f64,
}

/// A client request. One JSON object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Registers a new tuning session. Rejected with
    /// [`Response::Overloaded`] when the session table is full (it counts
    /// sessions not cancelled).
    CreateSession { spec: SessionSpec },
    /// Enqueues explicit configurations for evaluation, in order.
    /// All-or-nothing: if the batch would overflow the session's or the
    /// service's pending bound, nothing is enqueued and the reply is
    /// [`Response::Overloaded`].
    Step {
        session: String,
        configs: Vec<MemoryConfig>,
    },
    /// Enqueues `evals` server-chosen configurations, drawn from the
    /// session's deterministic sampler (seeded by the session spec, so the
    /// sequence is a pure function of the spec — not of timing).
    StepAuto { session: String, evals: u32 },
    /// Enqueues `evals` server-proposed configurations chosen by a GP
    /// surrogate fitted on the session's settled history (expected
    /// improvement over the encoded observations). Requires an *idle*
    /// session — proposals are a pure function of the settled history, so
    /// the sequence is byte-identical at any worker count.
    StepGuided { session: String, evals: u32 },
    /// Non-blocking progress snapshot.
    Status { session: String },
    /// Blocks until the session has no pending or running evaluations,
    /// then returns its status.
    Join { session: String },
    /// The session's evaluation history and, once at least one evaluation
    /// completed, its exported recommendation.
    Result { session: String },
    /// Discards the session's pending evaluations and frees its slot in
    /// the session table. The in-flight evaluation (if any) completes;
    /// completed history is kept, and `Status`, `Result` and `Drain`
    /// still see the session.
    Cancel { session: String },
    /// Checkpoints the session to `<checkpoint_dir>/<session>.ckpt.json`
    /// and unloads its environment — the operator-initiated form of the
    /// idle-session eviction the service performs on its own epoch policy.
    /// Requires an idle session; the session transparently resumes from the
    /// checkpoint on its next evaluation-bearing request. Answered with
    /// [`Response::Evicted`]; an already-evicted session is an error.
    Evict { session: String },
    /// Graceful shutdown: stop admitting work, run every already-accepted
    /// evaluation to completion, checkpoint every session into one log
    /// (`<checkpoint_dir>/drain.ckpt.jsonl`), dump every session's flight
    /// recorder, stop the workers, and report the tally.
    Drain,
    /// Live metrics scrape: a point-in-time snapshot of every counter,
    /// gauge, and histogram, in both JSON and Prometheus text form.
    /// Answered without pausing workers — scraping mid-load is the point.
    Metrics,
    /// The session's flight-recorder ring (recent spans and protocol
    /// events), without writing anything to disk.
    Trace { session: String },
    /// Writes the session's flight recorder to the configured dump
    /// directory (`reason: "request"`) and reports the path.
    Dump { session: String },
    /// A fleet worker announces itself to the center. `capacity` is how
    /// many evaluations it runs concurrently (currently always 1).
    /// Answered with [`Response::Registered`].
    Register { worker: String, capacity: u32 },
    /// A fleet worker's periodic liveness beat, sequence-numbered so the
    /// center counts wire losses deterministically (a gap in `seq` is a
    /// missed beat even if the next one arrives on time). Doubles as the
    /// work poll: the center answers [`Response::Assign`] when a task is
    /// queued, [`Response::HeartbeatAck`] otherwise.
    Heartbeat { worker: String, seq: u64 },
    /// A fleet worker confirms it accepted an assigned task and is
    /// starting the evaluation.
    Ack { worker: String, task: u64 },
    /// A fleet worker delivers a finished evaluation. Commits at most
    /// once: if the worker was declared dead and the task reassigned,
    /// the outcome only warms the shared cache and the reply is
    /// [`Response::Reassigned`].
    Complete {
        worker: String,
        task: u64,
        outcome: EvalOutcome,
    },
}

impl Request {
    /// Endpoint label used for per-endpoint metrics
    /// (`serve.endpoint.<label>_ms`).
    pub fn endpoint(&self) -> &'static str {
        self.metric_names().0
    }

    /// The endpoint label, its request counter `serve.requests.<label>`
    /// and its handler-latency histogram `serve.endpoint.<label>_ms`,
    /// spelled out at compile time so the request path formats no name.
    pub fn metric_names(&self) -> (&'static str, &'static str, &'static str) {
        macro_rules! names {
            ($label:literal) => {
                (
                    $label,
                    concat!("serve.requests.", $label),
                    concat!("serve.endpoint.", $label, "_ms"),
                )
            };
        }
        match self {
            Request::Ping => names!("ping"),
            Request::CreateSession { .. } => names!("create_session"),
            Request::Step { .. } => names!("step"),
            Request::StepAuto { .. } => names!("step_auto"),
            Request::StepGuided { .. } => names!("step_guided"),
            Request::Status { .. } => names!("status"),
            Request::Join { .. } => names!("join"),
            Request::Result { .. } => names!("result"),
            Request::Cancel { .. } => names!("cancel"),
            Request::Evict { .. } => names!("evict"),
            Request::Drain => names!("drain"),
            Request::Metrics => names!("metrics"),
            Request::Trace { .. } => names!("trace"),
            Request::Dump { .. } => names!("dump"),
            Request::Register { .. } => names!("register"),
            Request::Heartbeat { .. } => names!("heartbeat"),
            Request::Ack { .. } => names!("ack"),
            Request::Complete { .. } => names!("complete"),
        }
    }

    /// The session a request addresses, when it addresses one — the basis
    /// for its deterministic trace id (session name + per-session request
    /// sequence, see [`relm_obs::trace::trace_id`]).
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Step { session, .. }
            | Request::StepAuto { session, .. }
            | Request::StepGuided { session, .. }
            | Request::Status { session }
            | Request::Join { session }
            | Request::Result { session }
            | Request::Cancel { session }
            | Request::Evict { session }
            | Request::Trace { session }
            | Request::Dump { session } => Some(session),
            Request::Ping
            | Request::CreateSession { .. }
            | Request::Drain
            | Request::Metrics
            | Request::Register { .. }
            | Request::Heartbeat { .. }
            | Request::Ack { .. }
            | Request::Complete { .. } => None,
        }
    }
}

/// Progress snapshot of one session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStatus {
    pub session: String,
    /// The session's scheduling class.
    pub priority: Priority,
    /// Whether the session is currently evicted to its checkpoint (its
    /// environment is unloaded; the next evaluation-bearing request
    /// resumes it transparently).
    pub evicted: bool,
    /// Evaluations accepted but not yet started.
    pub pending: usize,
    /// Whether an evaluation is on a worker right now.
    pub running: bool,
    /// Evaluations completed (including censored ones).
    pub completed: usize,
    /// Completed evaluations whose final attempt aborted.
    pub censored: usize,
    /// Best (lowest) score so far, minutes.
    pub best_score_mins: Option<f64>,
    pub cancelled: bool,
    /// Simulated stress-test time this session has burned (its dominant
    /// cost), including failed attempts and retry backoff, milliseconds.
    pub stress_time_ms: f64,
    /// Total retries across the session's completed evaluations.
    pub retries: u32,
    /// Evaluations answered from the shared evaluation cache.
    pub evalcache_hits: u64,
    /// Cumulative wall-clock time the session's evaluations spent queued
    /// behind the worker pool, milliseconds. Telemetry (timing-dependent),
    /// never part of the deterministic outputs.
    pub queue_wait_ms: f64,
}

/// A server response. One JSON object per line, one per request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    Pong,
    SessionCreated {
        session: String,
    },
    /// The step batch was admitted; `enqueued` configurations now wait in
    /// the session's FIFO.
    Accepted {
        session: String,
        enqueued: usize,
    },
    Status(SessionStatus),
    ResultReady {
        session: String,
        export: SessionExport,
        history: Vec<Observation>,
    },
    Cancelled {
        session: String,
        discarded: usize,
    },
    /// Reply to [`Request::Evict`]: the session's state now lives in the
    /// checkpoint at `path` and its environment is unloaded.
    Evicted {
        session: String,
        path: String,
    },
    Drained {
        sessions: usize,
        evaluations: usize,
        /// Records in the drain's checkpoint log: every session that has an
        /// environment, or 0 when the log could not be written (counted as
        /// `serve.checkpoint_errors`) or no checkpoint directory is set.
        checkpointed: usize,
        /// Flight-recorder dumps written during the drain (one per
        /// session when a dump directory is configured, 0 otherwise).
        flight_dumped: usize,
        /// Fleet task reassignments over the service's lifetime (0 when
        /// serving locally). Reported so the drain tally reconciles
        /// against `fleet.reassignments` — every reassigned task must
        /// have been run dry, not dropped.
        reassignments: usize,
        /// Idle-session evictions over the service's lifetime. After a
        /// drain every evicted session has been resumed (histories are
        /// final and checkpointed), so `evictions == resumes` here — the
        /// reconciliation `serve_load --soak` asserts.
        evictions: usize,
        /// Evicted-session resumes over the service's lifetime.
        resumes: usize,
    },
    /// Reply to [`Request::Metrics`]: the snapshot and its Prometheus
    /// text rendering, produced from the *same* capture so the two can
    /// never disagree.
    Metrics {
        snapshot: relm_obs::MetricsSnapshot,
        expo: String,
    },
    /// Reply to [`Request::Trace`]: the session's flight-recorder ring.
    Trace {
        session: String,
        /// Events evicted from the ring before this snapshot.
        dropped: u64,
        events: Vec<relm_obs::FlightEvent>,
    },
    /// Reply to [`Request::Dump`]: where the flight recorder landed.
    Dumped {
        session: String,
        path: String,
        events: usize,
    },
    /// Admission control said no. Nothing was enqueued; the client should
    /// back off and retry. `session_pending`/`global_pending` report the
    /// depths that triggered the rejection.
    Overloaded {
        reason: String,
        session_pending: usize,
        global_pending: usize,
    },
    /// Reply to [`Request::Register`]: the worker is in the registry and
    /// must heartbeat every `heartbeat_ms`; after `missed_threshold`
    /// consecutive silent intervals the monitor declares it dead and
    /// reassigns its task.
    Registered {
        worker: String,
        heartbeat_ms: u64,
        missed_threshold: u32,
    },
    /// The center leases an evaluation to the worker (sent in reply to a
    /// [`Request::Heartbeat`] or [`Request::Complete`] poll). The worker
    /// must [`Request::Ack`] before executing. Boxed: the lease snapshot
    /// dwarfs every other variant.
    Assign {
        task: Box<FleetTask>,
    },
    /// Reply to a [`Request::Heartbeat`] with no work to hand out.
    /// `pending` is the number of queued fleet tasks (backpressure
    /// signal only).
    HeartbeatAck {
        pending: usize,
    },
    /// Reply to a [`Request::Complete`] from a worker that was declared
    /// dead and deposed: the task was already reassigned, so the outcome
    /// was *not* committed (it only warmed the shared cache).
    Reassigned {
        task: u64,
    },
    /// The request was understood but cannot be served (unknown session,
    /// draining service, empty history, …).
    Error {
        message: String,
    },
}

impl Response {
    /// Variant label, used for flight-recorder protocol events.
    pub fn label(&self) -> &'static str {
        match self {
            Response::Pong => "pong",
            Response::SessionCreated { .. } => "session_created",
            Response::Accepted { .. } => "accepted",
            Response::Status(_) => "status",
            Response::ResultReady { .. } => "result_ready",
            Response::Cancelled { .. } => "cancelled",
            Response::Evicted { .. } => "evicted",
            Response::Drained { .. } => "drained",
            Response::Metrics { .. } => "metrics",
            Response::Trace { .. } => "trace",
            Response::Dumped { .. } => "dumped",
            Response::Overloaded { .. } => "overloaded",
            Response::Registered { .. } => "registered",
            Response::Assign { .. } => "assign",
            Response::HeartbeatAck { .. } => "heartbeat_ack",
            Response::Reassigned { .. } => "reassigned",
            Response::Error { .. } => "error",
        }
    }
}

/// Serializes one frame (no trailing newline — the transport adds it).
pub fn encode<T: Serialize>(frame: &T) -> String {
    serde_json::to_string(frame).expect("protocol frames always serialize")
}

/// Why an incoming frame was rejected before reaching the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line exceeded the frame bound. The connection cannot be
    /// re-synchronized and must be closed.
    Oversized { limit: usize },
    /// The line was not a valid frame of the expected type.
    Malformed { message: String },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte bound")
            }
            FrameError::Malformed { message } => write!(f, "malformed frame: {message}"),
        }
    }
}

/// Parses one frame from a line already read off the wire.
pub fn decode<T: Deserialize>(line: &str, limit: usize) -> Result<T, FrameError> {
    if line.len() > limit {
        return Err(FrameError::Oversized { limit });
    }
    serde_json::from_str(line.trim_end()).map_err(|e| FrameError::Malformed {
        message: e.to_string(),
    })
}

/// Reads one newline-terminated frame without ever buffering more than
/// `limit + 1` bytes. Returns `Ok(None)` on clean EOF before any byte of a
/// new frame, `Err(Oversized)` once the line exceeds the bound (the reader
/// is then out of sync and the connection should be dropped).
pub fn read_frame(
    reader: &mut impl BufRead,
    limit: usize,
) -> std::io::Result<Result<Option<String>, FrameError>> {
    let mut line = Vec::with_capacity(256);
    // `take` caps how much one frame may pull off the stream; anything
    // longer is rejected without reading (or allocating) the remainder.
    let mut bounded = reader.take(limit as u64 + 1);
    let n = bounded.read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(Ok(None));
    }
    if line.len() > limit {
        return Ok(Err(FrameError::Oversized { limit }));
    }
    match String::from_utf8(line) {
        Ok(s) => Ok(Ok(Some(s))),
        Err(_) => Ok(Err(FrameError::Malformed {
            message: "frame is not valid UTF-8".to_string(),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_frames_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::CreateSession {
                spec: SessionSpec::named("WordCount", 7),
            },
            Request::StepAuto {
                session: "s-1".into(),
                evals: 4,
            },
            Request::StepGuided {
                session: "s-1".into(),
                evals: 2,
            },
            Request::CreateSession {
                spec: SessionSpec::named("SVM", 3).with_priority(Priority::High),
            },
            Request::Evict {
                session: "s-2".into(),
            },
            Request::Drain,
        ];
        for req in reqs {
            let line = encode(&req);
            assert!(!line.contains('\n'), "frames must be single-line");
            let back: Request = decode(&line, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn metric_names_extend_the_endpoint_label() {
        for req in [
            Request::Ping,
            Request::StepGuided {
                session: "s-1".into(),
                evals: 1,
            },
            Request::Join {
                session: "s-1".into(),
            },
            Request::Drain,
        ] {
            let (label, requests, latency) = req.metric_names();
            assert_eq!(requests, format!("serve.requests.{label}"));
            assert_eq!(latency, format!("serve.endpoint.{label}_ms"));
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        let err = decode::<Request>("{not json", 1024).unwrap_err();
        assert!(matches!(err, FrameError::Malformed { .. }));
        let err = decode::<Request>("{\"NoSuchVariant\":{}}", 1024).unwrap_err();
        assert!(matches!(err, FrameError::Malformed { .. }));
    }

    #[test]
    fn oversized_frames_are_rejected_without_buffering() {
        let line = format!("{}\n", "x".repeat(100));
        let mut reader = BufReader::new(line.as_bytes());
        let out = read_frame(&mut reader, 16).unwrap();
        assert_eq!(out, Err(FrameError::Oversized { limit: 16 }));
    }

    #[test]
    fn read_frame_returns_none_on_eof() {
        let mut reader = BufReader::new(&b""[..]);
        assert_eq!(read_frame(&mut reader, 64).unwrap(), Ok(None));
    }

    #[test]
    fn read_frame_accepts_exact_fit() {
        let line = b"abc\n";
        let mut reader = BufReader::new(&line[..]);
        let got = read_frame(&mut reader, 4).unwrap().unwrap().unwrap();
        assert_eq!(got, "abc\n");
    }
}
