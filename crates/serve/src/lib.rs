//! `relm-serve`: a concurrent tuning service over the RelM pipeline.
//!
//! The paper's tuner is a single-session program: one application, one
//! seed chain, one history. This crate turns it into a *service*: a
//! registry of concurrent tuning sessions multiplexed onto a fixed
//! `std::thread` worker pool, driven through a JSON-lines protocol that
//! works identically in-process ([`Service::handle`]) and over TCP
//! ([`TcpServer`]/[`TcpClient`]).
//!
//! Three properties define the design:
//!
//! 1. **Determinism under concurrency.** Each session owns an isolated
//!    [`relm_tune::TuningEnv`]; per-session FIFO ordering with at most one
//!    in-flight evaluation per session makes every session's history a
//!    pure function of its spec — byte-identical whether the pool runs 1
//!    worker or 8, alone or beside 31 other sessions, evicted to checkpoint mid-run or resident throughout.
//!    Priorities, scheduling weights, and residency decide *when* an
//!    evaluation runs, never what it computes.
//! 2. **Graduated backpressure, not buffering.** Sessions carry a
//!    [`Priority`] class; a deficit-weighted round-robin serves the high
//!    class ~4x as often as low under contention (never starving
//!    anyone), and admission bounds each class to a share of the global
//!    queue, so batches that would overflow are rejected whole with
//!    [`Response::Overloaded`] — low-priority bulk traffic first. Frames
//!    over the configured bound are rejected without being read.
//! 3. **Elastic residency, graceful shutdown.** Idle sessions are
//!    evicted to checkpoint on an evaluation-count epoch clock
//!    ([`ServeConfig::evict_after_evals`]) and resumed transparently.
//!    [`Request::Drain`] stops admission, runs the accepted backlog dry,
//!    resumes anything evicted, checkpoints every session into one
//!    fsynced log via [`relm_tune::SessionCheckpoint::save_log`], and
//!    stops the workers — zero lost or duplicated evaluations, with the
//!    eviction tallies reconciled exactly in the drain report.
//!
//! Everything is instrumented through [`relm_obs`]: per-endpoint latency
//! histograms (`serve.endpoint.*_ms`), queue-depth gauges
//! (`serve.queue.global`, `serve.workers.busy`), and rejection counters
//! (`serve.rejected.*`). Sessions created with
//! [`SessionSpec::with_cache`] additionally share the service's
//! content-addressed evaluation cache (`evalcache.*` counters): identical
//! evaluations replay memoized outcomes instead of re-simulating.
//!
//! ```
//! use relm_serve::{Request, Response, ServeConfig, Service, SessionSpec};
//!
//! let service = Service::start(ServeConfig::default(), relm_obs::Obs::disabled());
//! let spec = SessionSpec::named("WordCount", 7);
//! let session = match service.handle(&Request::CreateSession { spec }) {
//!     Response::SessionCreated { session } => session,
//!     other => panic!("create failed: {other:?}"),
//! };
//! service.handle(&Request::StepAuto { session: session.clone(), evals: 2 });
//! service.handle(&Request::Join { session: session.clone() });
//! match service.handle(&Request::Result { session }) {
//!     Response::ResultReady { history, .. } => assert_eq!(history.len(), 2),
//!     other => panic!("result failed: {other:?}"),
//! }
//! ```

pub mod protocol;
pub mod server;
pub mod service;
pub mod slo;

pub use protocol::{
    decode, encode, read_frame, EvalOutcome, FleetTask, FrameError, Priority, Request, Response,
    SessionSpec, SessionStatus, DEFAULT_MAX_FRAME_BYTES,
};
pub use server::{TcpClient, TcpServer};
pub use service::{resolve_workload, EvalLease, Execution, FleetRouter, ServeConfig, Service};
pub use slo::SLO_EPOCH_EVALS;
