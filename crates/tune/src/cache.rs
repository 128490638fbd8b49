//! Content-addressed memoization of stress-test evaluations.
//!
//! A stress test in this substrate is a pure function of its inputs:
//! application spec, cluster, cost model, memory configuration, the
//! environment's seed-chain position, the engine's fault plan, and the
//! retry policy. [`CachedEval`] captures everything an evaluation changes
//! about the world — the settled run result, its profile's Table-6
//! statistics, the retry accounting, and the counter totals the live run
//! booked — so a cache hit can be *replayed* instead of re-simulated,
//! leaving byte-identical histories and the same counters behind. The
//! live run counts inside [`relm_obs::Obs::tally`], so the totals are its
//! own (`env.*`, `engine.*`, `faults.*`), never another thread's. The
//! profile's timelines are never stored: no tuner reads them.
//!
//! What is deliberately **not** cached: the score. `score_mins` depends on
//! the session's worst-observed-runtime baseline (the ×2 abort penalty of
//! §6.1), which is state of the [`TuningEnv`](crate::TuningEnv), not of
//! the evaluation. Replay re-scores the cached outcome against the current
//! baseline, exactly as a live run would have.

use relm_app::RunResult;
use relm_common::Millis;
use relm_evalcache::EvalCache;
use relm_profile::DerivedStats;
use serde::{Deserialize, Serialize};

/// The memoized outcome of one evaluation (final attempt + retry loop).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedEval {
    /// Metrics of the attempt that settled.
    pub result: RunResult,
    /// The Table-6 statistics of the profile collected alongside it.
    pub stats: DerivedStats,
    /// Extra attempts the retry policy spent.
    pub retries: u32,
    /// Simulated time burned on failed attempts and backoff.
    pub retry_time: Millis,
    /// The live evaluation's own counter totals, one per name,
    /// name-sorted (aborts, injected faults, stress time, …): booked again
    /// on a hit, so warm and cold runs count the same.
    pub counters: Vec<(String, f64)>,
}

/// The concrete cache type the tuning environment shares: one handle per
/// process, cloned into every env/worker/session that opts in.
pub type EvalStore = EvalCache<CachedEval>;
