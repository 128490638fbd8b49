//! Shared helpers for the experiment binaries: the sharded replication
//! runner, run repetition, the exhaustive-search baseline, and "train
//! until top-5%-quality" loops used by the training-overhead figures.

use relm_app::{AppSpec, Engine, RunResult};
use relm_bo::BayesOpt;
use relm_common::{MemoryConfig, Millis};
use relm_ddpg::DdpgTuner;
use relm_tune::{Observation, Tuner, TuningEnv};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs one closure per cell on a bounded worker pool and merges the
/// results back in **cell-index order** — the backbone of every sharded
/// experiment sweep.
///
/// Cells are enumerated up front; workers claim the next unclaimed index
/// from a shared atomic counter, so the pool is busy until the last cell
/// without any static partitioning skew. Because each result lands in its
/// cell's slot, the merged output is byte-identical at any worker count —
/// the experiment binaries assert exactly that in CI (1 worker vs 8).
///
/// `workers` is clamped to `[1, cells.len()]` (an empty cell list returns
/// an empty vec without spawning).
///
/// Panics in a cell closure propagate: the sweep fails loudly rather than
/// silently dropping a cell.
pub fn run_sharded<C, R, F>(cells: Vec<C>, workers: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(usize, &C) -> R + Sync,
{
    if cells.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, cells.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let result = f(i, cell);
                *slots[i].lock().expect("sweep slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .unwrap_or_else(|| panic!("cell {i} produced no result"))
        })
        .collect()
}

/// Parses a `--workers N` style flag shared by the experiment binaries;
/// returns `default` when the flag is absent.
pub fn parse_workers(args: &[String], default: usize) -> usize {
    args.iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .map(|w: usize| w.max(1))
        .unwrap_or(default)
}

/// Runs an application `repeats` times with distinct seeds and returns every
/// result (the paper repeats each stochastic setup 5–10 times).
pub fn repeat_runs(
    engine: &Engine,
    app: &AppSpec,
    config: &MemoryConfig,
    repeats: u64,
    base_seed: u64,
) -> Vec<RunResult> {
    (0..repeats)
        .map(|i| engine.run(app, config, base_seed + i * 7919).0)
        .collect()
}

/// Mean runtime in minutes over a set of runs.
pub fn mean_runtime_mins(results: &[RunResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(RunResult::runtime_mins).sum::<f64>() / results.len() as f64
}

/// Total container failures over a set of runs.
pub fn total_failures(results: &[RunResult]) -> u32 {
    results.iter().map(|r| r.container_failures).sum()
}

/// Number of aborted runs.
pub fn aborted_count(results: &[RunResult]) -> usize {
    results.iter().filter(|r| r.aborted).count()
}

/// The exhaustive-search baseline for an application: every grid
/// observation, the best score, and the top-5-percentile threshold the
/// paper trains black-box policies toward (§6.2).
pub struct ExhaustiveBaseline {
    /// Every grid evaluation.
    pub observations: Vec<Observation>,
    /// Best (lowest) objective over the grid, in minutes.
    pub best_mins: f64,
    /// The 5th-percentile objective over the grid.
    pub top5_mins: f64,
    /// Total stress time of the full grid.
    pub stress_time: Millis,
}

/// Runs the 192-configuration exhaustive search.
pub fn exhaustive_baseline(engine: &Engine, app: &AppSpec, seed: u64) -> ExhaustiveBaseline {
    let mut env = TuningEnv::new(engine.clone(), app.clone(), seed);
    for config in env.space().grid() {
        env.evaluate(&config);
    }
    let mut scores: Vec<f64> = env.history().iter().map(|o| o.score_mins).collect();
    scores.sort_by(|a, b| a.partial_cmp(b).expect("NaN score"));
    let best_mins = scores[0];
    let top5_mins = scores[(scores.len() as f64 * 0.05) as usize];
    ExhaustiveBaseline {
        observations: env.history().to_vec(),
        best_mins,
        top5_mins,
        stress_time: env.stress_time(),
    }
}

/// Outcome of a train-until-quality session.
pub struct TrainingCost {
    /// Stress tests until the first observation met the threshold (the full
    /// budget if it never did).
    pub iterations: usize,
    /// Stress time over those iterations.
    pub stress_time: Millis,
    /// Whether the threshold was met.
    pub converged: bool,
}

/// Trains a policy until its history contains an observation at or below
/// `threshold_mins` (§6.2's procedure: "black-box policies are trained on
/// each application individually until they find a configuration with
/// performance within top 5 percentile of the baseline").
pub fn train_until(
    policy: &mut dyn Tuner,
    env: &mut TuningEnv,
    threshold_mins: f64,
) -> TrainingCost {
    let _ = policy.tune(env);
    let mut stress = Millis::ZERO;
    for (i, obs) in env.history().iter().enumerate() {
        stress += obs.result.runtime;
        if obs.score_mins <= threshold_mins {
            return TrainingCost {
                iterations: i + 1,
                stress_time: stress,
                converged: true,
            };
        }
    }
    TrainingCost {
        iterations: env.evaluations(),
        stress_time: env.stress_time(),
        converged: false,
    }
}

/// A long-budget BO (no early stop) for convergence studies.
pub fn long_bo(seed: u64, guided: bool) -> BayesOpt {
    long_bo_with(seed, guided, relm_surrogate::SparsePolicy::exact())
}

/// [`long_bo`] with the surrogate forced onto the sparse inducing-subset
/// path (threshold low enough that every adaptive fit is sparse). The
/// sparse trace differs from the exact one by design, but is itself
/// bit-identical at any worker count — `fig20_convergence --sparse` proves
/// that end to end.
pub fn long_bo_sparse(seed: u64, guided: bool) -> BayesOpt {
    long_bo_with(
        seed,
        guided,
        relm_surrogate::SparsePolicy {
            threshold: 8,
            inducing: 8,
        },
    )
}

fn long_bo_with(seed: u64, guided: bool, sparse: relm_surrogate::SparsePolicy) -> BayesOpt {
    let base = if guided {
        BayesOpt::guided(seed)
    } else {
        BayesOpt::new(seed)
    };
    base.with_config(relm_bo::BoConfig {
        max_iterations: 28,
        min_adaptive_samples: 28,
        sparse,
        ..relm_bo::BoConfig::default()
    })
}

/// A long-budget DDPG for convergence studies.
pub fn long_ddpg(seed: u64) -> DdpgTuner {
    DdpgTuner::new(seed).with_budget(30)
}

/// Five-number helper re-export for box plots.
pub use relm_common::stats::five_number;

#[cfg(test)]
mod tests {
    use super::*;
    use relm_cluster::ClusterSpec;
    use relm_workloads::{max_resource_allocation, wordcount};

    #[test]
    fn run_sharded_merges_in_index_order_at_any_worker_count() {
        let cells: Vec<u64> = (0..37).collect();
        let serial = run_sharded(cells.clone(), 1, |i, c| (i, c * 3));
        for workers in [2, 5, 8, 64] {
            let parallel = run_sharded(cells.clone(), workers, |i, c| (i, c * 3));
            assert_eq!(parallel, serial, "diverged at {workers} workers");
        }
        assert_eq!(serial[5], (5, 15));
        assert!(run_sharded(Vec::<u64>::new(), 4, |_, _: &u64| 0u64).is_empty());
    }

    #[test]
    fn parse_workers_reads_the_flag() {
        let args: Vec<String> = ["--out", "x.jsonl", "--workers", "6"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_workers(&args, 1), 6);
        assert_eq!(parse_workers(&args[..2], 3), 3);
        let bad: Vec<String> = ["--workers", "zero"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_workers(&bad, 2), 2);
    }

    #[test]
    fn repeat_runs_uses_distinct_seeds() {
        let engine = Engine::new(ClusterSpec::cluster_a());
        let app = wordcount();
        let cfg = max_resource_allocation(engine.cluster(), &app);
        let results = repeat_runs(&engine, &app, &cfg, 3, 1);
        assert_eq!(results.len(), 3);
        assert!(
            results[0].runtime != results[1].runtime || results[1].runtime != results[2].runtime
        );
        assert!(mean_runtime_mins(&results) > 0.0);
    }

    #[test]
    fn train_until_counts_iterations_to_threshold() {
        let engine = Engine::new(ClusterSpec::cluster_a());
        let mut env = TuningEnv::new(engine, wordcount(), 3);
        let mut policy = relm_tune::RandomSearch::new(8, 3);
        // An absurdly lax threshold: the very first sample qualifies.
        let cost = train_until(&mut policy, &mut env, f64::INFINITY);
        assert!(cost.converged);
        assert_eq!(cost.iterations, 1);
        // An impossible threshold: never converges, full budget spent.
        let engine = Engine::new(ClusterSpec::cluster_a());
        let mut env = TuningEnv::new(engine, wordcount(), 3);
        let mut policy = relm_tune::RandomSearch::new(8, 3);
        let cost = train_until(&mut policy, &mut env, 0.0);
        assert!(!cost.converged);
        assert_eq!(cost.iterations, 8);
    }
}
