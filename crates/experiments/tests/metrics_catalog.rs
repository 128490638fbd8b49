//! Metrics-catalog drift test: the "Metrics catalog" table in
//! `OPERATIONS.md` must stay in lockstep with what the code actually
//! emits. The test collects the union of metrics from reference runs —
//! three `serve_load` smokes (plain+guided, fleet with a kill, soak with
//! eviction), every tuner policy driven in-process, a
//! memory-store build/warm-start cycle, and an in-process overload +
//! session-lifecycle pass (admission pushback, cancel, cache probes, a
//! replayed guided step and a rebuilt fitter) — then fails on any
//! mismatch in either direction:
//!
//! - an emitted counter/gauge/histogram with no catalog row is an
//!   **undocumented metric** (the failure prints a ready-to-paste row);
//! - a catalog row marked `always` that no reference run emitted is a
//!   **stale catalog entry** (rows marked `rare` are exempt from this
//!   direction: they cover error paths and optional subsystems the
//!   reference runs don't trigger).

use relm_app::Engine;
use relm_bo::{BayesOpt, BoConfig};
use relm_cluster::ClusterSpec;
use relm_core::RelmTuner;
use relm_ddpg::DdpgTuner;
use relm_obs::{MetricsSnapshot, Obs};
use relm_serve::{Priority, Request, Response, ServeConfig, Service, SessionSpec};
use relm_tune::{
    DefaultPolicy, ExhaustiveSearch, RandomSearch, RecursiveRandomSearch, Tuner, TuningEnv,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One parsed catalog row: a (possibly `<placeholder>`-wildcarded) name,
/// its kind, and whether the reference runs are required to emit it.
struct CatalogRow {
    pattern: String,
    kind: Kind,
    always: bool,
}

/// Matches a concrete metric name against a catalog pattern. Patterns
/// are dot-separated; a segment may embed one `<placeholder>` that
/// matches any non-empty run of characters within the segment.
fn pattern_matches(pattern: &str, name: &str) -> bool {
    let ps: Vec<&str> = pattern.split('.').collect();
    let ns: Vec<&str> = name.split('.').collect();
    if ps.len() != ns.len() {
        return false;
    }
    ps.iter().zip(&ns).all(|(p, n)| match p.find('<') {
        Some(start) => {
            let end = p.rfind('>').expect("unclosed placeholder in catalog");
            let (prefix, suffix) = (&p[..start], &p[end + 1..]);
            n.len() > prefix.len() + suffix.len() && n.starts_with(prefix) && n.ends_with(suffix)
        }
        None => p == n,
    })
}

/// Parses the `## Metrics catalog` table out of OPERATIONS.md.
fn parse_catalog(path: &Path) -> Vec<CatalogRow> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let section = text
        .split("## Metrics catalog")
        .nth(1)
        .expect("OPERATIONS.md has a `## Metrics catalog` section");
    let mut rows = Vec::new();
    for line in section.lines() {
        let line = line.trim();
        if !line.starts_with("| `") {
            continue;
        }
        let cells: Vec<&str> = line
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim())
            .collect();
        assert!(
            cells.len() >= 4,
            "catalog row needs name|kind|presence|description: {line}"
        );
        let pattern = cells[0].trim_matches('`').to_string();
        let kind = match cells[1] {
            "counter" => Kind::Counter,
            "gauge" => Kind::Gauge,
            "histogram" => Kind::Histogram,
            other => panic!("unknown kind `{other}` in catalog row: {line}"),
        };
        let always = match cells[2] {
            "always" => true,
            "rare" => false,
            other => panic!("unknown presence `{other}` in catalog row: {line}"),
        };
        rows.push(CatalogRow {
            pattern,
            kind,
            always,
        });
    }
    assert!(
        rows.len() > 50,
        "catalog suspiciously small: {}",
        rows.len()
    );
    rows
}

/// Folds a snapshot's metric names into the emitted set, keyed by kind.
fn fold(emitted: &mut BTreeSet<(Kind, String)>, snapshot: &MetricsSnapshot) {
    for (name, _) in &snapshot.counters {
        emitted.insert((Kind::Counter, name.clone()));
    }
    for (name, _) in &snapshot.gauges {
        emitted.insert((Kind::Gauge, name.clone()));
    }
    for h in &snapshot.histograms {
        emitted.insert((Kind::Histogram, h.name.clone()));
    }
}

/// Runs the serve_load binary with the given flags plus `--metrics-out`,
/// returning its final post-drain snapshot.
fn serve_load_smoke(tmp: &Path, tag: &str, flags: &[&str]) -> MetricsSnapshot {
    let out = tmp.join(format!("{tag}.metrics.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_serve_load"))
        .args(flags)
        .arg("--out")
        .arg(tmp.join(format!("{tag}.jsonl")))
        .arg("--metrics-out")
        .arg(&out)
        .status()
        .expect("spawn serve_load");
    assert!(status.success(), "serve_load {tag} smoke failed");
    let json = std::fs::read_to_string(&out).expect("metrics-out written");
    serde_json::from_str(&json).expect("metrics-out parses as MetricsSnapshot")
}

/// Drives every tuner policy through a short in-process session on one
/// enabled Obs handle, so the policy-side metric families all emit.
fn tuner_policy_snapshot() -> MetricsSnapshot {
    let obs = Obs::enabled();
    let cluster = ClusterSpec::cluster_a();
    let app = relm_workloads::svm();
    let short_bo = BoConfig {
        max_iterations: 4,
        min_adaptive_samples: 2,
        ..BoConfig::default()
    };
    let policies: Vec<Box<dyn Tuner>> = vec![
        Box::new(DefaultPolicy),
        Box::new(ExhaustiveSearch),
        Box::new(RandomSearch::new(6, 11)),
        Box::new(RecursiveRandomSearch::new(8, 12)),
        Box::new(BayesOpt::new(3).with_config(short_bo)),
        Box::new(BayesOpt::guided(3).with_config(short_bo)),
        Box::new(DdpgTuner::new(3).with_budget(3)),
        Box::new(RelmTuner::default()),
    ];
    for (i, mut tuner) in policies.into_iter().enumerate() {
        let engine = Engine::new(cluster.clone()).with_obs(obs.clone());
        let mut env = TuningEnv::new(engine, app.clone(), 7000 + i as u64);
        tuner.tune(&mut env).expect("policy session failed");
    }
    obs.metrics_snapshot()
}

/// Builds a memory store through a drain, then warm-starts new sessions
/// against it, so the `memory.*` family emits end to end.
fn memory_snapshot(tmp: &Path) -> MetricsSnapshot {
    let store = tmp.join("memory.jsonl");
    let obs = Obs::enabled();
    let spec = |i: u64| SessionSpec::named("WordCount", 4400 + i);
    {
        let service = Service::start(
            ServeConfig {
                workers: 2,
                memory_store: Some(store.clone()),
                ..ServeConfig::default()
            },
            obs.clone(),
        );
        for i in 0..2 {
            let name = match service.handle(&Request::CreateSession { spec: spec(i) }) {
                Response::SessionCreated { session } => session,
                other => panic!("create failed: {other:?}"),
            };
            service.handle(&Request::StepAuto {
                session: name,
                evals: 6,
            });
        }
        match service.handle(&Request::Drain) {
            Response::Drained { .. } => {}
            other => panic!("drain failed: {other:?}"),
        }
    }
    let service = Service::start(
        ServeConfig {
            workers: 2,
            memory_store: Some(store),
            ..ServeConfig::default()
        },
        obs.clone(),
    );
    for i in 0..2 {
        let mut warm = spec(i).with_warm_start();
        warm.base_seed += 777;
        let name = match service.handle(&Request::CreateSession { spec: warm }) {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        service.handle(&Request::StepGuided {
            session: name.clone(),
            evals: 2,
        });
        service.handle(&Request::Join { session: name });
    }
    obs.metrics_snapshot()
}

/// Deterministically triggers the admission/lifecycle counters the load
/// smokes don't: per-class pushback (a batch larger than the low and
/// normal class shares of a tiny global queue is always rejected),
/// session cancellation, eval-cache probes (first probes always miss),
/// a guided step replayed from the proposal memo, and a fitter rebuilt
/// after it.
fn overload_and_lifecycle_snapshot() -> MetricsSnapshot {
    let obs = Obs::enabled();
    let service = Service::start(
        ServeConfig {
            workers: 1,
            global_queue_limit: 2,
            session_queue_limit: 4,
            ..ServeConfig::default()
        },
        obs.clone(),
    );
    let create = |priority: Priority, seed: u64, cache: bool| {
        let mut spec = SessionSpec::named("WordCount", seed).with_priority(priority);
        if cache {
            spec = spec.with_cache();
        }
        match service.handle(&Request::CreateSession { spec }) {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        }
    };
    // Low share = floor(2 * 0.5) = 1 and normal share = floor(2 * 0.75)
    // = 1, so a 2-eval batch is pushed back regardless of queue state.
    for (priority, seed) in [(Priority::Low, 300), (Priority::Normal, 301)] {
        let name = create(priority, seed, false);
        match service.handle(&Request::StepAuto {
            session: name,
            evals: 2,
        }) {
            Response::Overloaded { .. } => {}
            other => panic!("expected class pushback, got {other:?}"),
        }
    }
    // The high class gets the full queue: its batch admits, probes the
    // eval cache (cold, so every probe misses), and a post-join cancel
    // registers the cancellation counters.
    let high = create(Priority::High, 302, true);
    match service.handle(&Request::StepAuto {
        session: high.clone(),
        evals: 2,
    }) {
        Response::Accepted { .. } => {}
        other => panic!("high-priority step rejected: {other:?}"),
    }
    service.handle(&Request::Join {
        session: high.clone(),
    });
    match service.handle(&Request::Cancel { session: high }) {
        Response::Cancelled { .. } => {}
        other => panic!("cancel failed: {other:?}"),
    }
    // One cache-opted spec run twice through a guided step: the second
    // session replays the first one's EI search from the proposal memo
    // without a fit, so a further guided step, which the memo does not
    // hold, rebuilds its fitter from the recorded fit schedule.
    for guided_steps in [1, 2] {
        let session = create(Priority::High, 303, true);
        let auto = Request::StepAuto {
            session: session.clone(),
            evals: 2,
        };
        let guided = Request::StepGuided {
            session: session.clone(),
            evals: 1,
        };
        let guided_steps = std::iter::repeat_n(&guided, guided_steps);
        for step in [&auto, &auto].into_iter().chain(guided_steps) {
            match service.handle(step) {
                Response::Accepted { .. } => {}
                other => panic!("step rejected: {other:?}"),
            }
            service.handle(&Request::Join {
                session: session.clone(),
            });
        }
    }
    assert_eq!(obs.counter_value("serve.guided.replays"), 1.0);
    assert_eq!(obs.counter_value("serve.guided.rebuilds"), 1.0);
    obs.metrics_snapshot()
}

#[test]
fn catalog_matches_emitted_metrics_exactly() {
    let tmp = std::env::temp_dir().join(format!("relm_metrics_catalog_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();

    let mut emitted: BTreeSet<(Kind, String)> = BTreeSet::new();
    let flightrec = tmp.join("flightrec");
    let ckpt = tmp.join("ckpt");
    fold(
        &mut emitted,
        &serve_load_smoke(
            &tmp,
            "plain",
            &[
                // 6 sessions x (10 + 2) evals crosses the 64-evaluation
                // SLO window so a rotation is observed.
                "--sessions",
                "6",
                "--steps",
                "10",
                "--guided",
                "2",
                "--clients",
                "2",
                "--workers",
                "2",
                "--scrape",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--flightrec-dir",
                flightrec.to_str().unwrap(),
            ],
        ),
    );
    fold(
        &mut emitted,
        &serve_load_smoke(
            &tmp,
            "fleet",
            &[
                "--fleet",
                "2",
                "--fleet-kill",
                "1",
                "--sessions",
                "4",
                "--steps",
                "3",
                "--clients",
                "2",
            ],
        ),
    );
    let evict = tmp.join("evict");
    fold(
        &mut emitted,
        &serve_load_smoke(
            &tmp,
            "soak",
            &[
                "--soak",
                "--sessions",
                "6",
                "--steps",
                "3",
                "--clients",
                "3",
                "--workers",
                "1",
                "--evict-after",
                "4",
                "--slo-p99-ms",
                "60000",
                "--checkpoint-dir",
                evict.to_str().unwrap(),
            ],
        ),
    );
    fold(&mut emitted, &tuner_policy_snapshot());
    fold(&mut emitted, &memory_snapshot(&tmp));
    fold(&mut emitted, &overload_and_lifecycle_snapshot());

    let catalog_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../OPERATIONS.md");
    let catalog = parse_catalog(&catalog_path);

    // Direction 1: everything emitted is documented (name AND kind).
    let undocumented: Vec<&(Kind, String)> = emitted
        .iter()
        .filter(|(kind, name)| {
            !catalog
                .iter()
                .any(|row| row.kind == *kind && pattern_matches(&row.pattern, name))
        })
        .collect();
    if !undocumented.is_empty() {
        let rows: Vec<String> = undocumented
            .iter()
            .map(|(kind, name)| format!("| `{name}` | {} | always | TODO |", kind.as_str()))
            .collect();
        panic!(
            "{} emitted metrics missing from the OPERATIONS.md catalog:\n{}",
            undocumented.len(),
            rows.join("\n")
        );
    }

    // Direction 2: every `always` row was emitted by the reference runs.
    let stale: Vec<String> = catalog
        .iter()
        .filter(|row| {
            row.always
                && !emitted
                    .iter()
                    .any(|(kind, name)| row.kind == *kind && pattern_matches(&row.pattern, name))
        })
        .map(|row| format!("{} ({})", row.pattern, row.kind.as_str()))
        .collect();
    assert!(
        stale.is_empty(),
        "{} catalog rows are marked `always` but no reference run emitted them — \
         stale entries, or the smokes lost coverage:\n{}",
        stale.len(),
        stale.join("\n")
    );

    // The catalog must not document the same (kind, name) twice.
    for (kind, name) in &emitted {
        let rows = catalog
            .iter()
            .filter(|row| row.kind == *kind && pattern_matches(&row.pattern, name))
            .count();
        assert!(
            rows == 1,
            "{name} ({}) matches {rows} catalog rows; wildcards must not overlap literals",
            kind.as_str()
        );
    }

    std::fs::remove_dir_all(&tmp).ok();
}
