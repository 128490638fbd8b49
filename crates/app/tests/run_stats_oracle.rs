//! Oracle for the statistics-only engine run: `Engine::run_stats` must
//! return exactly the `RunResult` of `Engine::run` and the statistics
//! `derive_stats` reads off its profile, bit for bit — for every suite
//! application and a TPC-H query, at random configurations and seeds,
//! under fault plans that kill and replace containers, lose whole nodes,
//! and corrupt every profile.

use proptest::prelude::*;
use relm_app::{AppSpec, Engine, RunResult};
use relm_cluster::ClusterSpec;
use relm_faults::{FaultConfig, FaultPlan};
use relm_jvm::GcKind;
use relm_profile::{derive_stats, DerivedStats};
use relm_tune::ConfigSpace;
use relm_workloads::{benchmark_suite, pagerank, tpch_query};

/// Every field of the statistics as raw bits.
fn stats_bits(s: &DerivedStats) -> [u64; 12] {
    [
        s.containers_per_node as u64,
        s.heap.as_mb().to_bits(),
        s.cpu_avg.to_bits(),
        s.disk_avg.to_bits(),
        s.m_i.as_mb().to_bits(),
        s.m_c.as_mb().to_bits(),
        s.m_s.as_mb().to_bits(),
        s.m_u.as_mb().to_bits(),
        s.p as u64,
        s.h.to_bits(),
        s.s.to_bits(),
        s.m_u_from_full_gc as u64,
    ]
}

/// Every field of the result. `Debug` prints each float in its shortest
/// round-trip form, so equal strings mean equal bits.
fn result_bits(r: &RunResult) -> String {
    format!("{r:?}")
}

fn workloads() -> Vec<(ClusterSpec, AppSpec)> {
    let mut out: Vec<(ClusterSpec, AppSpec)> = benchmark_suite()
        .into_iter()
        .map(|app| (ClusterSpec::cluster_a(), app))
        .collect();
    out.push((ClusterSpec::cluster_b(), tpch_query(9)));
    out
}

/// No faults, a mild uniform plan, a plan that kills containers and
/// corrupts every profile, and a plan that loses a whole node on half of
/// all wave attempts, so one attempt replaces several containers at once.
fn fault_plans(seed: u64) -> [Option<FaultPlan>; 4] {
    let always_corrupt = FaultConfig {
        profile_corruption_rate: 1.0,
        ..FaultConfig::uniform(0.2)
    };
    let node_losses = FaultConfig {
        node_loss_rate: 0.5,
        ..FaultConfig::off()
    };
    [
        None,
        Some(FaultPlan::new(seed, FaultConfig::uniform(0.1))),
        Some(FaultPlan::new(seed ^ 0x5A, always_corrupt)),
        Some(FaultPlan::new(seed ^ 0xA5, node_losses)),
    ]
}

fn engine(cluster: &ClusterSpec, plan: Option<FaultPlan>) -> Engine {
    let engine = Engine::new(cluster.clone());
    match plan {
        Some(plan) => engine.with_faults(plan),
        None => engine,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn run_stats_equals_derive_stats_of_run(
        x in proptest::array::uniform4(0.0f64..1.0),
        seed in 0u64..1_000_000,
    ) {
        for (cluster, app) in workloads() {
            let config = ConfigSpace::for_app(&cluster, &app).decode(&x);
            for plan in fault_plans(seed) {
                let engine = engine(&cluster, plan);
                let (want_result, profile) = engine.run(&app, &config, seed);
                let (result, stats) = engine.run_stats(&app, &config, seed);
                prop_assert_eq!(result_bits(&result), result_bits(&want_result));
                prop_assert_eq!(
                    stats_bits(&stats),
                    stats_bits(&derive_stats(&profile)),
                    "{} at {:?}, seed {}",
                    &app.name,
                    config,
                    seed
                );
            }
        }
    }
}

/// The corrupting plan reaches the paths the statistics-only run must
/// replay: replaced containers, and corrupted profiles that lost full-GC
/// events.
#[test]
fn the_corrupting_plan_replaces_containers_and_drops_full_gc_events() {
    let cluster = ClusterSpec::cluster_a();
    let app = pagerank();
    let config = ConfigSpace::for_app(&cluster, &app).decode(&[0.9, 0.9, 0.3, 0.9]);
    let mut replaced = 0;
    let mut dropped = 0;
    for seed in 0..20u64 {
        let [_, _, plan, _] = fault_plans(seed);
        let engine = engine(&cluster, plan);
        let (result, profile) = engine.run(&app, &config, seed);
        replaced += result.container_failures;
        let kept = profile
            .containers
            .iter()
            .flat_map(|c| &c.gc_events)
            .filter(|e| e.kind == GcKind::Full)
            .count();
        dropped += result.full_gcs as usize - kept;
        let (_, stats) = engine.run_stats(&app, &config, seed);
        assert_eq!(stats_bits(&stats), stats_bits(&derive_stats(&profile)));
    }
    assert!(replaced > 0, "no container was replaced");
    assert!(dropped > 0, "corruption dropped no full-GC event");
}

/// The node-loss plan takes down nodes that host several containers, and
/// the statistics-only run still matches.
#[test]
fn the_node_loss_plan_loses_whole_nodes() {
    let cluster = ClusterSpec::cluster_a();
    let app = pagerank();
    let config = ConfigSpace::for_app(&cluster, &app).decode(&[0.9, 0.9, 0.3, 0.9]);
    assert!(config.containers_per_node > 1);
    let mut lost = 0;
    for seed in 0..20u64 {
        let [_, _, _, plan] = fault_plans(seed);
        let engine = engine(&cluster, plan);
        let (result, profile) = engine.run(&app, &config, seed);
        // Node losses are the only faults this plan injects.
        lost += result.injected_faults;
        let (_, stats) = engine.run_stats(&app, &config, seed);
        assert_eq!(stats_bits(&stats), stats_bits(&derive_stats(&profile)));
    }
    assert!(lost > 0, "no node was lost");
}
