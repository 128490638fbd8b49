//! Rendering a [`MemoryConfig`] as the concrete Spark/YARN/JVM settings a
//! deployment would apply — the last mile of the tuning pipeline.
//!
//! The mapping follows the paper's Table 1: the container split and heap go
//! to YARN/executor sizing, Cache/Shuffle Capacity to Spark's unified memory
//! manager (`spark.memory.fraction` × `spark.memory.storageFraction`), Task
//! Concurrency to `spark.executor.cores`, and `NewRatio`/`SurvivorRatio` to
//! the executor's JVM options.

use crate::env::{Observation, TuningEnv};
use crate::tuner::Recommendation;
use relm_app::{AppSpec, Engine};
use relm_cluster::ClusterSpec;
use relm_common::{durable, MemoryConfig};
use relm_faults::AbortCause;
use relm_profile::StatsAccumulator;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// One `key = value` property.
pub type Property = (String, String);

/// Renders the configuration as Spark properties plus executor JVM options.
pub fn to_spark_properties(config: &MemoryConfig, cluster: &ClusterSpec) -> Vec<Property> {
    let executors = cluster.total_containers(config.containers_per_node);
    let overhead = cluster.container(config.containers_per_node).phys_cap - config.heap;
    let unified = config.unified_fraction();
    let storage_fraction = if unified > 0.0 {
        config.cache_fraction / unified
    } else {
        0.5
    };

    vec![
        ("spark.executor.instances".into(), executors.to_string()),
        (
            "spark.executor.memory".into(),
            format!("{}m", config.heap.as_mb().round() as u64),
        ),
        (
            "spark.yarn.executor.memoryOverhead".into(),
            format!("{}m", overhead.as_mb().round() as u64),
        ),
        (
            "spark.executor.cores".into(),
            config.task_concurrency.to_string(),
        ),
        ("spark.memory.fraction".into(), format!("{unified:.2}")),
        (
            "spark.memory.storageFraction".into(),
            format!("{storage_fraction:.2}"),
        ),
        (
            "spark.executor.extraJavaOptions".into(),
            format!(
                "-XX:+UseParallelGC -XX:NewRatio={} -XX:SurvivorRatio={}",
                config.new_ratio, config.survivor_ratio
            ),
        ),
    ]
}

/// Renders the properties as a `spark-defaults.conf` fragment.
pub fn to_spark_defaults_conf(config: &MemoryConfig, cluster: &ClusterSpec) -> String {
    to_spark_properties(config, cluster)
        .into_iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect()
}

/// Cost accounting of one tuning session, embedded in every
/// [`SessionExport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionMetrics {
    /// Stress tests the session ran.
    pub evaluations: usize,
    /// How many of those settled aborted (censored, penalty-scored).
    pub aborts: usize,
    /// Per-cause breakdown of the censored observations, `(cause label,
    /// count)`; causes that never fired are omitted. Sums to `aborts`.
    pub abort_causes: Vec<(String, u32)>,
    /// Retries the environment's policy spent across all evaluations.
    pub retries: u32,
    /// Simulated time burned on failed attempts and retry backoff, in
    /// milliseconds (included in `stress_time_ms`).
    pub retry_time_ms: f64,
    /// Total simulated stress-test wall-clock, in milliseconds.
    pub stress_time_ms: f64,
}

impl SessionMetrics {
    /// Gathers the metrics from a finished environment's evaluation
    /// history and accounting.
    pub fn from_env(env: &TuningEnv) -> Self {
        let aborts = env.history().iter().filter(|o| o.result.aborted).count();
        let abort_causes: Vec<(String, u32)> = AbortCause::ALL
            .iter()
            .filter_map(|cause| {
                let n = env
                    .history()
                    .iter()
                    .filter(|o| o.result.aborted && o.result.abort_cause == Some(*cause))
                    .count() as u32;
                (n > 0).then(|| (cause.as_str().to_string(), n))
            })
            .collect();
        SessionMetrics {
            evaluations: env.evaluations(),
            aborts,
            abort_causes,
            retries: env.total_retries(),
            retry_time_ms: env.retry_time().as_ms(),
            stress_time_ms: env.stress_time().as_ms(),
        }
    }
}

/// A complete tuning-session export: the recommendation, its rendered
/// Spark properties, and the session's cost metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionExport {
    pub recommendation: Recommendation,
    pub properties: Vec<Property>,
    pub metrics: SessionMetrics,
}

/// Packages a finished session for serialization.
pub fn session_export(env: &TuningEnv, rec: &Recommendation) -> SessionExport {
    SessionExport {
        recommendation: rec.clone(),
        properties: to_spark_properties(&rec.config, env.engine().cluster()),
        metrics: SessionMetrics::from_env(env),
    }
}

/// Resumable snapshot of a tuning session in progress.
///
/// A session that dies mid-way (node reboot, operator Ctrl-C, the tuning
/// driver itself being preempted) should not forfeit the stress tests it
/// already paid for. The checkpoint captures everything the environment
/// needs to continue *exactly* where it stopped: the application spec, the
/// evaluation history, the seed chain position, the abort-penalty
/// baseline, the retry time, the Table-6 statistics aggregate and the
/// cache-hit count. Because the engine's fault injection is
/// site-addressed (not stateful), a resumed session replays into the same
/// injected faults the uninterrupted one would have seen — resumed and
/// uninterrupted histories are byte-identical.
///
/// On disk it is the checksummed single-record layout of
/// [`relm_common::durable`]: a `{"kind":"relm-checkpoint","version":2,
/// "check":...}` header line, then this struct as one JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// The application under tuning.
    pub app: AppSpec,
    /// The seed the next evaluation will run under.
    pub next_seed: u64,
    /// The abort-penalty baseline (worst observed runtime, minutes).
    pub worst_mins: f64,
    /// Time burned on failed attempts and backoff so far, milliseconds.
    pub retry_time_ms: f64,
    /// Every observation recorded so far, in order.
    pub history: Vec<Observation>,
    /// Running aggregate of the clean evaluations' Table-6 statistics.
    pub stats: StatsAccumulator,
    /// Evaluations answered from the evaluation cache so far.
    pub cache_hits: u64,
}

/// The checkpoint format version written and read by this build.
pub const CHECKPOINT_VERSION: u64 = 2;

const CHECKPOINT_KIND: &str = "relm-checkpoint";

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl SessionCheckpoint {
    /// Captures the resumable state of a session in progress.
    pub fn capture(env: &TuningEnv) -> Self {
        SessionCheckpoint {
            app: env.app().clone(),
            next_seed: env.next_seed(),
            worst_mins: env.worst_mins(),
            retry_time_ms: env.retry_time().as_ms(),
            history: env.history().to_vec(),
            stats: env.stats_accumulator().clone(),
            cache_hits: env.cache_hits(),
        }
    }

    /// Rebuilds a live environment on `engine` that continues where the
    /// captured session stopped, every captured field restored. The engine
    /// should carry the same cluster, cost model, and fault plan as the
    /// original. The retry policy is reset to the default and no cache is
    /// attached: both belong to the caller and can be set afterwards.
    pub fn resume(self, engine: Engine) -> TuningEnv {
        TuningEnv::from_checkpoint(engine, self)
    }

    /// Writes the checkpoint to `path` through
    /// [`relm_common::durable::write_atomic`]: atomic against process
    /// death; not fsynced, so a power loss can leave an empty or stale
    /// file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let payload = serde_json::to_string(self).map_err(invalid)?;
        let head = durable::header(CHECKPOINT_KIND, CHECKPOINT_VERSION);
        durable::write_atomic(path, durable::render_checked(head, &payload).as_bytes())
    }

    /// Loads a checkpoint written by [`SessionCheckpoint::save`]. Another
    /// kind, another version (version 1 included) and a payload that fails
    /// its checksum are each an `InvalidData` error.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let payload = durable::parse_checked(&text, CHECKPOINT_KIND, CHECKPOINT_VERSION)?;
        serde_json::from_str(payload).map_err(invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relm_common::Mem;

    fn config() -> MemoryConfig {
        MemoryConfig {
            containers_per_node: 2,
            heap: Mem::mb(2202.0),
            task_concurrency: 3,
            cache_fraction: 0.4,
            shuffle_fraction: 0.1,
            new_ratio: 5,
            survivor_ratio: 8,
        }
    }

    #[test]
    fn renders_table_1_knobs() {
        let props = to_spark_properties(&config(), &ClusterSpec::cluster_a());
        let get = |k: &str| {
            props
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing property {k}"))
        };
        assert_eq!(get("spark.executor.instances"), "16"); // 8 nodes x 2
        assert_eq!(get("spark.executor.memory"), "2202m");
        assert_eq!(get("spark.executor.cores"), "3");
        assert_eq!(get("spark.memory.fraction"), "0.50");
        assert_eq!(get("spark.memory.storageFraction"), "0.80"); // 0.4 of 0.5
        assert!(get("spark.executor.extraJavaOptions").contains("-XX:NewRatio=5"));
        assert!(get("spark.executor.extraJavaOptions").contains("-XX:SurvivorRatio=8"));
    }

    #[test]
    fn overhead_covers_off_heap_headroom() {
        let props = to_spark_properties(&config(), &ClusterSpec::cluster_a());
        let overhead = props
            .iter()
            .find(|(k, _)| k == "spark.yarn.executor.memoryOverhead")
            .map(|(_, v)| v.trim_end_matches('m').parse::<u64>().unwrap())
            .unwrap();
        assert!(overhead >= 384, "YARN minimum overhead");
    }

    #[test]
    fn conf_fragment_is_line_per_property() {
        let conf = to_spark_defaults_conf(&config(), &ClusterSpec::cluster_a());
        assert_eq!(conf.lines().count(), 7);
        assert!(conf.contains("spark.executor.memory 2202m"));
    }

    #[test]
    fn session_export_embeds_metrics_snapshot() {
        use crate::policies::RandomSearch;
        use crate::tuner::Tuner;
        let engine =
            relm_app::Engine::new(ClusterSpec::cluster_a()).with_obs(relm_obs::Obs::enabled());
        let mut env = crate::env::TuningEnv::new(engine, relm_workloads::wordcount(), 9);
        let rec = RandomSearch::new(4, 2).tune(&mut env).unwrap();
        let export = session_export(&env, &rec);
        assert_eq!(export.metrics.evaluations, 4);
        assert_eq!(export.metrics.stress_time_ms, env.stress_time().as_ms());
        assert!(!export.properties.is_empty());
        let text = serde_json::to_string(&export).unwrap();
        let back: SessionExport = serde_json::from_str(&text).unwrap();
        assert_eq!(export, back);
    }

    #[test]
    fn session_export_works_without_observability() {
        use crate::policies::RandomSearch;
        use crate::tuner::Tuner;
        let export_with = |obs: relm_obs::Obs| {
            let engine = relm_app::Engine::new(ClusterSpec::cluster_a()).with_obs(obs);
            let mut env = crate::env::TuningEnv::new(engine, relm_workloads::wordcount(), 9);
            let rec = RandomSearch::new(3, 2).tune(&mut env).unwrap();
            session_export(&env, &rec)
        };
        let export = export_with(relm_obs::Obs::disabled());
        assert_eq!(export.metrics.evaluations, 3);
        // The export reads nothing from the handle, so a served session's
        // export never carries the service's wall-clock histograms.
        assert_eq!(export_with(relm_obs::Obs::enabled()), export);
    }

    #[test]
    fn checkpoint_resume_replays_identically() {
        use crate::cache::EvalStore;
        use crate::env::TuningEnv;
        use relm_faults::{FaultConfig, FaultPlan};
        use relm_workloads::{max_resource_allocation, wordcount};

        let make_engine = || {
            relm_app::Engine::new(ClusterSpec::cluster_a())
                .with_faults(FaultPlan::new(3, FaultConfig::uniform(0.10)))
        };
        let base = max_resource_allocation(&ClusterSpec::cluster_a(), &wordcount());
        let configs: Vec<MemoryConfig> = (1..=6)
            .map(|p| MemoryConfig {
                task_concurrency: p,
                ..base
            })
            .collect();
        // A cache holding the session's first four evaluations: each
        // session below replays those and runs the last two live.
        let filled_cache = || {
            let cache = EvalStore::new();
            let mut fill = TuningEnv::new(make_engine(), wordcount(), 42).with_cache(cache.clone());
            for c in &configs[..4] {
                fill.evaluate(c);
            }
            cache
        };

        // The uninterrupted session.
        let mut full = TuningEnv::new(make_engine(), wordcount(), 42).with_cache(filled_cache());
        for c in &configs {
            full.evaluate(c);
        }
        assert_eq!(full.cache_hits(), 4);

        // The same session, killed after 3 evaluations, its checkpoint
        // saved and loaded, and resumed on a fresh engine with its cache
        // attached again.
        let cache = filled_cache();
        let mut half = TuningEnv::new(make_engine(), wordcount(), 42).with_cache(cache.clone());
        for c in &configs[..3] {
            half.evaluate(c);
        }
        assert!(!half.stats_accumulator().is_empty(), "no clean evaluation");
        let ckpt = SessionCheckpoint::capture(&half);
        let path =
            std::env::temp_dir().join(format!("relm_ckpt_resume_{}.json", std::process::id()));
        ckpt.save(&path).unwrap();
        let loaded = SessionCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, ckpt);
        let mut resumed = loaded.resume(make_engine()).with_cache(cache);
        for c in &configs[3..] {
            resumed.evaluate(c);
        }

        // Byte-identical histories — including any injected faults,
        // retries, and censored scores — and the same Table-6 aggregate
        // and cache-hit count.
        let a = serde_json::to_string(&full.history().to_vec()).unwrap();
        let b = serde_json::to_string(&resumed.history().to_vec()).unwrap();
        assert_eq!(a, b);
        assert_eq!(full.stress_time(), resumed.stress_time());
        assert_eq!(full.stats_accumulator(), resumed.stats_accumulator());
        assert_eq!(full.mean_stats(), resumed.mean_stats());
        assert_eq!(full.cache_hits(), resumed.cache_hits());
    }

    #[test]
    fn checkpoint_save_load_round_trips_atomically() {
        use crate::env::TuningEnv;
        use relm_workloads::{max_resource_allocation, wordcount};

        let mut env = TuningEnv::new(
            relm_app::Engine::new(ClusterSpec::cluster_a()),
            wordcount(),
            7,
        );
        let cfg = max_resource_allocation(&ClusterSpec::cluster_a(), env.app());
        env.evaluate(&cfg);
        let ckpt = SessionCheckpoint::capture(&env);

        let path = std::env::temp_dir().join(format!("relm_ckpt_test_{}.json", std::process::id()));
        ckpt.save(&path).unwrap();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !std::path::PathBuf::from(tmp).exists(),
            "temporary file must be renamed away"
        );
        let back = SessionCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_never_tear() {
        use crate::env::TuningEnv;
        use relm_workloads::{max_resource_allocation, wordcount};
        use std::sync::Arc;

        // Two sessions sharing one results path (the historical collision:
        // both used `<path>.tmp`). Hammer saves from both threads; every
        // load in between — and the final one — must parse as a complete
        // checkpoint, never a torn or mixed file.
        let make = |seed: u64, evals: usize| {
            let mut env = TuningEnv::new(
                relm_app::Engine::new(ClusterSpec::cluster_a()),
                wordcount(),
                seed,
            );
            let cfg = max_resource_allocation(&ClusterSpec::cluster_a(), env.app());
            for _ in 0..evals {
                env.evaluate(&cfg);
            }
            SessionCheckpoint::capture(&env)
        };
        let a = Arc::new(make(1, 1));
        let b = Arc::new(make(2, 3));
        let path = Arc::new(
            std::env::temp_dir().join(format!("relm_ckpt_race_{}.json", std::process::id())),
        );
        let _ = std::fs::remove_file(path.as_path());

        let threads: Vec<_> = [a.clone(), b.clone()]
            .into_iter()
            .map(|ckpt| {
                let path = Arc::clone(&path);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        ckpt.save(&path).unwrap();
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            if path.exists() {
                let loaded = SessionCheckpoint::load(&path).expect("never torn");
                assert!(loaded == *a || loaded == *b, "mixed checkpoint contents");
            }
        }
        for t in threads {
            t.join().unwrap();
        }
        let final_ckpt = SessionCheckpoint::load(&path).unwrap();
        assert!(final_ckpt == *a || final_ckpt == *b);
        // No temporary files left behind.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.starts_with(&stem) && n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leaked tmp files: {leftovers:?}");
        std::fs::remove_file(path.as_path()).ok();
    }

    #[test]
    fn checkpoint_rejects_unknown_versions() {
        use crate::env::TuningEnv;
        use relm_workloads::wordcount;
        let env = TuningEnv::new(
            relm_app::Engine::new(ClusterSpec::cluster_a()),
            wordcount(),
            7,
        );
        let path =
            std::env::temp_dir().join(format!("relm_ckpt_ver_test_{}.json", std::process::id()));
        SessionCheckpoint::capture(&env).save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (head, payload) = text.split_once('\n').unwrap();
        assert!(head.starts_with("{\"kind\":\"relm-checkpoint\",\"version\":2,\"check\":"));
        // Each copy keeps the payload and its checksum; only the header's
        // kind or version differs.
        for refused in [
            head.replace("\"version\":2", "\"version\":1"),
            head.replace("\"version\":2", "\"version\":999"),
            head.replace("relm-checkpoint", "relm-flightrec"),
        ] {
            std::fs::write(&path, format!("{refused}\n{payload}")).unwrap();
            let err = SessionCheckpoint::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{refused}");
        }
        std::fs::write(&path, &text).unwrap();
        assert!(SessionCheckpoint::load(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_unified_pool_defaults_storage_fraction() {
        let mut cfg = config();
        cfg.cache_fraction = 0.0;
        cfg.shuffle_fraction = 0.0;
        let props = to_spark_properties(&cfg, &ClusterSpec::cluster_a());
        let sf = props
            .iter()
            .find(|(k, _)| k == "spark.memory.storageFraction")
            .map(|(_, v)| v.clone())
            .unwrap();
        assert_eq!(sf, "0.50");
    }
}
