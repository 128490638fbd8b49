//! Table 10: per-iteration algorithm overheads — statistics collection,
//! model fitting, model probing — plus the model's storage footprint.
//! These are actual wall-clock measurements of this implementation
//! (the Criterion benches in `crates/bench` measure the same quantities
//! with statistical rigor).
//!
//! ```text
//! tab10_overheads [--workers N]
//! ```
//!
//! `--workers` shards the four telemetry-validation sessions over a
//! bounded worker pool; it only affects wall-clock, never the measured
//! counters (they are exact atomic sums).

use relm_app::Engine;
use relm_bo::{BayesOpt, BoConfig, SpaceSurrogate};
use relm_cluster::ClusterSpec;
use relm_common::Rng;
use relm_core::{QModel, RelmTuner};
use relm_ddpg::{state_vector, AgentConfig, DdpgAgent, DdpgTuner, Transition, STATE_DIMS};
use relm_experiments::{parse_workers, run_sharded, write_run_telemetry};
use relm_obs::{Event, Obs};
use relm_profile::derive_stats;
use relm_surrogate::{latin_hypercube, maximize_ei, Gp};
use relm_tune::{ConfigSpace, Tuner, TuningEnv};
use relm_workloads::{max_resource_allocation, svm};
use std::time::Instant;

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1000.0
}

/// Runs short instrumented tuning sessions — sharded over `workers`
/// threads, since each session owns an isolated environment and the
/// shared counters are exact atomics — and validates the emitted
/// telemetry: the JSONL file must be non-empty and parse, and the
/// cumulative stress-time counter must agree with the environments'
/// `stress_time()` accounting to within 1%.
fn measured_telemetry(obs: &Obs, workers: usize) {
    let cluster = ClusterSpec::cluster_a();
    let app = svm();
    let short_bo = BoConfig {
        max_iterations: 4,
        min_adaptive_samples: 2,
        ..BoConfig::default()
    };
    let cells: Vec<(&str, u64)> = vec![("BO", 21), ("GBO", 22), ("DDPG", 23), ("RelM", 24)];
    let stress_ms = run_sharded(cells, workers, |_, &(policy, seed)| {
        let mut tuner: Box<dyn Tuner> = match policy {
            "BO" => Box::new(BayesOpt::new(3).with_config(short_bo)),
            "GBO" => Box::new(BayesOpt::guided(3).with_config(short_bo)),
            "DDPG" => Box::new(DdpgTuner::new(3).with_budget(3)),
            _ => Box::new(RelmTuner::default()),
        };
        let engine = Engine::new(cluster.clone()).with_obs(obs.clone());
        let mut env = TuningEnv::new(engine, app.clone(), seed);
        tuner.tune(&mut env).expect("tuning session failed");
        env.stress_time().as_ms()
    });
    let expected_stress_ms: f64 = stress_ms.iter().sum();

    let path = write_run_telemetry(obs, "tab10_overheads")
        .expect("telemetry write failed")
        .expect("observability handle should be enabled here");
    let text = std::fs::read_to_string(&path).expect("telemetry file unreadable");
    assert!(
        !text.trim().is_empty(),
        "telemetry file is empty: {}",
        path.display()
    );
    let events = relm_obs::read_jsonl(&text).expect("telemetry JSONL is invalid");
    assert!(!events.is_empty(), "telemetry stream parsed to zero events");

    let recorded_stress_ms = events
        .iter()
        .find_map(|e| match e {
            Event::Counter { name, value } if name == "env.stress_time_ms" => Some(*value),
            _ => None,
        })
        .expect("env.stress_time_ms counter missing from telemetry");
    let rel_err = (recorded_stress_ms - expected_stress_ms).abs() / expected_stress_ms.max(1e-9);
    assert!(
        rel_err < 0.01,
        "stress-time counter ({recorded_stress_ms:.1}ms) disagrees with \
         TuningEnv::stress_time ({expected_stress_ms:.1}ms) by {:.2}%",
        rel_err * 100.0
    );

    println!("\nmeasured decision latencies (from {}):", path.display());
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>10}",
        "phase", "count", "p50", "p95", "p99"
    );
    let mut histograms: Vec<&relm_obs::HistogramSummary> = events
        .iter()
        .filter_map(|e| match e {
            Event::Histogram(h)
                if h.name.ends_with("_ms")
                    && !h.name.starts_with("engine.")
                    && !h.name.starts_with("env.") =>
            {
                Some(h)
            }
            _ => None,
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(
        !histograms.is_empty(),
        "telemetry contains no decision-latency histograms"
    );
    for h in histograms {
        println!(
            "{:<22} {:>8} {:>8.3}ms {:>8.3}ms {:>8.3}ms",
            h.name, h.count, h.p50, h.p95, h.p99
        );
    }
    println!(
        "stress-time check: counter {recorded_stress_ms:.1}ms vs env accounting \
         {expected_stress_ms:.1}ms ({:.3}% off) — OK",
        rel_err * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = parse_workers(&args, 1);
    let obs = {
        let from_env = relm_experiments::obs_from_env();
        if from_env.is_enabled() {
            from_env
        } else {
            println!("RELM_OBS not set; enabling observability anyway so the");
            println!("telemetry self-check below can run against real data.\n");
            Obs::enabled()
        }
    };

    let engine = Engine::new(ClusterSpec::cluster_a());
    let app = svm();
    let cluster = engine.cluster().clone();
    let cfg = max_resource_allocation(&cluster, &app);
    let (_, profile) = engine.run(&app, &cfg, 42);
    let space = ConfigSpace::for_app(&cluster, &app);

    // Shared: 12 observations to fit models on.
    let mut rng = Rng::new(7);
    let xs = latin_hypercube(12, 4, &mut rng);
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 5.0 + x[0] * 3.0 - x[2] * 2.0 + x[1])
        .collect();

    println!("Table 10: per-iteration algorithm overheads (this implementation)\n");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "component", "DDPG", "BO", "GBO", "RelM"
    );

    // --- Statistics collection ---
    let stats_ms = time_ms(|| {
        let _ = derive_stats(&profile);
    });
    println!(
        "{:<22} {:>8.2}ms {:>10} {:>8.2}ms {:>8.2}ms",
        "statistics collection", stats_ms, "-", stats_ms, stats_ms
    );

    // --- Model fitting ---
    let stats = derive_stats(&profile);
    let qmodel = QModel::new(stats, 0.1);
    let mut agent = DdpgAgent::new(AgentConfig::for_dims(STATE_DIMS, 4), 3);
    let s = state_vector(&profile);
    for i in 0..20 {
        agent.observe(Transition {
            state: s.clone(),
            action: vec![0.2, 0.4, 0.6, 0.8],
            reward: i as f64 * 0.1,
            next_state: s.clone(),
        });
    }
    let ddpg_fit = time_ms(|| agent.train_step());
    let bo_fit = time_ms(|| {
        let _ = Gp::fit(xs.clone(), &ys, 1);
    });
    let xs_guided: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| BayesOpt::features(&space, Some(&qmodel), x))
        .collect();
    let gbo_fit = time_ms(|| {
        let _ = Gp::fit(xs_guided.clone(), &ys, 1);
    });
    let mut relm = RelmTuner::default();
    let relm_fit = time_ms(|| {
        let _ = relm.recommend_from_stats(&cluster, stats);
    });
    println!(
        "{:<22} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.3}ms",
        "model fitting", ddpg_fit, bo_fit, gbo_fit, relm_fit
    );

    // --- Model probing ---
    let gp_plain = Gp::fit(xs.clone(), &ys, 1).expect("gp");
    let gp_guided = Gp::fit(xs_guided, &ys, 1).expect("gp");
    let ddpg_probe = time_ms(|| {
        let _ = agent.act(&s);
    });
    let bo_probe = time_ms(|| {
        let _ = maximize_ei(&gp_plain, 4, 5.0, &mut rng);
    });
    let wrapped = SpaceSurrogate {
        inner: &gp_guided,
        space: &space,
        q: Some(&qmodel),
    };
    let gbo_probe = time_ms(|| {
        let _ = maximize_ei(&wrapped, 4, 5.0, &mut rng);
    });
    let relm_probe = time_ms(|| {
        let _ = relm.candidates_from_stats(&cluster, stats);
    });
    println!(
        "{:<22} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.3}ms",
        "model probing", ddpg_probe, bo_probe, gbo_probe, relm_probe
    );

    // --- Model size ---
    let ddpg_size = agent.parameter_count() * 8;
    let bo_size = xs.len() * (4 + 1) * 8;
    let gbo_size = xs.len() * (7 + 1) * 8;
    println!(
        "{:<22} {:>9}B {:>9}B {:>9}B {:>10}",
        "model size", ddpg_size, bo_size, gbo_size, "-"
    );

    println!("\npaper shape: RelM's analytical evaluation is orders of magnitude cheaper");
    println!("than fitting/probing a GP; GBO pays extra for the added dimensions; DDPG");
    println!("stores fixed-size network weights while BO's model grows with the data.");
    println!("\nScalability note (§6.3): probing RelM over 100 artificial container");
    println!("configurations stays in the ~10ms range:");
    let mut big_cluster = cluster.clone();
    big_cluster.cores_per_node = 400;
    big_cluster.heap_budget_per_node = relm_common::Mem::gb(400.0);
    let t = time_ms(|| {
        let _ = relm.candidates_from_stats(&big_cluster, stats);
    });
    println!("  4-candidate probe above vs large-cluster probe: {t:.3}ms");

    measured_telemetry(&obs, workers);
}
