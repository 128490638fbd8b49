//! The profiling pipeline across crates: engine run → Profile → Table-6
//! statistics → RelM models → executable configuration.

use relm::prelude::*;
use relm_jvm::GcKind;

#[test]
fn profiles_carry_full_monitoring_data() {
    let engine = Engine::new(ClusterSpec::cluster_a());
    let app = kmeans();
    let cfg = max_resource_allocation(engine.cluster(), &app);
    let (result, profile) = engine.run(&app, &cfg, 31);

    assert_eq!(
        profile.containers.len(),
        engine.cluster().total_containers(cfg.containers_per_node) as usize
    );
    assert_eq!(profile.duration, result.runtime);
    for trace in &profile.containers {
        assert!(!trace.running_tasks.is_empty(), "task timeline missing");
        assert!(!trace.cache_used.is_empty(), "cache timeline missing");
        assert!(!trace.rss.is_empty(), "RSS timeline missing");
        assert!(trace.code_overhead > Mem::ZERO);
        // GC events are time-ordered.
        for pair in trace.gc_events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }
}

#[test]
fn derived_stats_match_ground_truth_footprints() {
    let engine = Engine::new(ClusterSpec::cluster_a());
    let app = pagerank();
    let cfg = max_resource_allocation(engine.cluster(), &app);
    let (result, profile) = engine.run(&app, &cfg, 42);
    let stats = derive_stats(&profile);

    // The tuning path's statistics-only run sees exactly the same row.
    let (stats_result, direct) = engine.run_stats(&app, &cfg, 42);
    assert_eq!(stats_result, result);
    assert_eq!(direct, stats);

    // The PageRank spec plants M_i = 115MB and a coalesce-stage unmanaged
    // footprint of 770MB/task; the profiler should recover both within
    // noise (Table 6's example column).
    assert!(
        (stats.m_i.as_mb() - 115.0).abs() < 10.0,
        "M_i = {}",
        stats.m_i
    );
    assert!(
        (stats.m_u.as_mb() - 770.0).abs() < 120.0,
        "M_u = {} (expected ~770MB)",
        stats.m_u
    );
    assert!(stats.m_u_from_full_gc);
    assert!(stats.h > 0.2 && stats.h < 0.45, "H = {}", stats.h);
    assert_eq!(stats.p, 2);
}

#[test]
fn full_gc_events_appear_under_memory_pressure_only() {
    let engine = Engine::new(ClusterSpec::cluster_a());
    // SVM on a huge heap with minimal concurrency: young collections keep
    // up and full GCs are rare-to-absent — the §6.4 problem case.
    let app = svm();
    let gentle = MemoryConfig {
        containers_per_node: 1,
        heap: engine.cluster().heap_for(1),
        task_concurrency: 1,
        cache_fraction: 0.3,
        shuffle_fraction: 0.0,
        new_ratio: 1,
        survivor_ratio: 8,
    };
    let (_, gentle_profile) = engine.run(&app, &gentle, 5);

    let pressured = MemoryConfig {
        containers_per_node: 4,
        heap: engine.cluster().heap_for(4),
        task_concurrency: 2,
        new_ratio: 8,
        ..gentle
    };
    let (_, pressured_profile) = engine.run(&app, &pressured, 5);

    let full_gcs = |p: &Profile| {
        p.containers
            .iter()
            .flat_map(|c| &c.gc_events)
            .filter(|e| e.kind == GcKind::Full)
            .count()
    };
    assert!(
        full_gcs(&pressured_profile) > full_gcs(&gentle_profile),
        "raising GC pressure must produce more full-GC events"
    );
}

#[test]
fn relm_reprofiles_when_full_gc_events_are_missing() {
    let engine = Engine::new(ClusterSpec::cluster_a());
    // The re-profiling heuristic config raises GC pressure: more
    // containers, more concurrency, higher NewRatio.
    let app = svm();
    let env = TuningEnv::new(engine.clone(), app, 3);
    let base = max_resource_allocation(engine.cluster(), env.app());
    let reprofile = RelmTuner::reprofile_config(&env, &base);
    assert!(reprofile.containers_per_node > base.containers_per_node);
    assert!(reprofile.task_concurrency >= base.task_concurrency);
    assert!(reprofile.new_ratio > base.new_ratio);
    assert!(reprofile.validate().is_ok());
}

#[test]
fn q_model_flags_the_paper_s_bad_regions() {
    let engine = Engine::new(ClusterSpec::cluster_a());
    let app = kmeans();
    let cfg = max_resource_allocation(engine.cluster(), &app);
    let (_, profile) = engine.run(&app, &cfg, 9);
    let q = QModel::new(derive_stats(&profile), 0.1);

    // Observation 5 region: big cache, tiny Old.
    let bad = MemoryConfig {
        cache_fraction: 0.7,
        new_ratio: 1,
        ..cfg
    };
    let good = MemoryConfig {
        cache_fraction: 0.6,
        new_ratio: 5,
        ..cfg
    };
    let qb = q.q(&bad);
    let qg = q.q(&good);
    assert!(qb[1] > qg[1], "q2 must flag Old < cache: {qb:?} vs {qg:?}");

    // Over-packing: q1 > 1 for an obviously unsafe configuration.
    let packed = MemoryConfig {
        cache_fraction: 0.8,
        task_concurrency: 8,
        ..cfg
    };
    assert!(q.q(&packed)[0] > 1.0);
}

#[test]
fn profiles_serialize_to_json() {
    let engine = Engine::new(ClusterSpec::cluster_a());
    let app = wordcount();
    let cfg = max_resource_allocation(engine.cluster(), &app);
    let (_, profile) = engine.run(&app, &cfg, 1);
    let json = serde_json::to_string(&profile).expect("profile serializes");
    let back: Profile = serde_json::from_str(&json).expect("profile deserializes");
    assert_eq!(back.app_name, profile.app_name);
    assert_eq!(back.containers.len(), profile.containers.len());
    let stats_a = derive_stats(&profile);
    let stats_b = derive_stats(&back);
    assert_eq!(stats_a.m_u, stats_b.m_u);
}
