//! Content-addressed memoization of stress-test evaluations.
//!
//! A stress test in this substrate is a pure function of its inputs:
//! application spec, cluster, cost model, memory configuration, the
//! environment's seed-chain position, the engine's fault plan, and the
//! retry policy. [`CachedEval`] captures everything an evaluation changes
//! about the world — the settled run result, its profile's Table-6
//! statistics, the retry accounting, and the observability counter deltas
//! the live run emitted — so a cache hit can be *replayed* instead of
//! re-simulated, leaving byte-identical histories and reconciling counters
//! behind. The profile's timelines are never stored: no tuner reads them.
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
use std::collections::BTreeMap;

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
    /// Name-sorted counter deltas the live evaluation emitted (aborts,
    /// injected faults, stress time, …), replayed on a hit so warm and
    /// cold runs reconcile to the same telemetry.
    pub counters: Vec<(String, f64)>,
}

/// The concrete cache type the tuning environment shares: one handle per
/// process, cloned into every env/worker/session that opts in.
pub type EvalStore = EvalCache<CachedEval>;

/// Nonzero per-counter deltas between two name-sorted counter snapshots
/// (as returned by [`relm_obs::Obs::counters`]), name-sorted.
pub(crate) fn counter_deltas(
    before: &[(String, f64)],
    after: &[(String, f64)],
) -> Vec<(String, f64)> {
    let before: BTreeMap<&str, f64> = before.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    after
        .iter()
        .filter_map(|(name, value)| {
            let delta = value - before.get(name.as_str()).copied().unwrap_or(0.0);
            (delta != 0.0).then(|| (name.clone(), delta))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_keep_only_changed_counters() {
        let before = vec![("a".to_string(), 1.0), ("b".to_string(), 2.0)];
        let after = vec![
            ("a".to_string(), 1.0),
            ("b".to_string(), 5.0),
            ("c".to_string(), 3.0),
        ];
        assert_eq!(
            counter_deltas(&before, &after),
            vec![("b".to_string(), 3.0), ("c".to_string(), 3.0)]
        );
    }

    #[test]
    fn deltas_are_empty_when_nothing_moved() {
        let snap = vec![("x".to_string(), 4.0)];
        assert!(counter_deltas(&snap, &snap).is_empty());
    }
}
