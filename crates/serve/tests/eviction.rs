//! Eviction/resume determinism regression: a session's observation
//! history, and the digest its drain ingests into the memory store, are
//! **byte-identical** whether idle sessions are continually evicted to
//! checkpoint and transparently resumed, or never evicted at all — at any
//! worker count, with guided (surrogate-proposed) batches and fault
//! injection in the mix. Eviction is a residency policy, not a behavior
//! change.

use relm_faults::FaultConfig;
use relm_memory::MemoryStore;
use relm_obs::Obs;
use relm_serve::{Priority, Request, Response, ServeConfig, Service, SessionSpec};
use std::collections::BTreeMap;

const WORKLOADS: [&str; 5] = ["WordCount", "SortByKey", "K-means", "SVM", "PageRank"];
const SESSIONS: u64 = 6;

/// A spec that is a pure function of the session index, cycling priority
/// classes so the deficit-weighted scheduler interleaves with eviction.
fn spec_for(i: u64) -> SessionSpec {
    let priority = match i % 3 {
        0 => Priority::Normal,
        1 => Priority::High,
        _ => Priority::Low,
    };
    let mut spec =
        SessionSpec::named(WORKLOADS[(i % 5) as usize], 5000 + 31 * i).with_priority(priority);
    if i.is_multiple_of(3) {
        spec = spec.with_faults(88 + i, FaultConfig::uniform(0.10));
    }
    spec
}

/// Runs the fleet through interleaved sampled rounds, one guided round,
/// and a final sampled round — joining between rounds so sessions go
/// idle and (with `evict_after > 0`) get swept out to checkpoint while
/// their neighbors advance the epoch clock, then drains into a memory
/// store. Returns each session's serialized history and ingested digest.
fn run(workers: usize, evict_after: usize, tag: &str) -> BTreeMap<String, (String, String)> {
    let dir = std::env::temp_dir().join(format!("relm_serve_evict_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("memory.jsonl");
    let obs = Obs::enabled();
    let service = Service::start(
        ServeConfig {
            workers,
            max_sessions: SESSIONS as usize,
            session_queue_limit: 8,
            global_queue_limit: 48,
            evict_after_evals: evict_after,
            evict_dir: Some(dir.clone()),
            memory_store: Some(store.clone()),
            ..ServeConfig::default()
        },
        obs.clone(),
    );
    let mut names = Vec::new();
    for i in 0..SESSIONS {
        match service.handle(&Request::CreateSession { spec: spec_for(i) }) {
            Response::SessionCreated { session } => names.push(session),
            other => panic!("create failed: {other:?}"),
        }
    }
    let step_round = |guided: bool| {
        for name in &names {
            let req = if guided {
                Request::StepGuided {
                    session: name.clone(),
                    evals: 2,
                }
            } else {
                Request::StepAuto {
                    session: name.clone(),
                    evals: 2,
                }
            };
            match service.handle(&req) {
                Response::Accepted { enqueued, .. } => assert_eq!(enqueued, 2),
                other => panic!("step rejected: {other:?}"),
            }
        }
        for name in &names {
            match service.handle(&Request::Join {
                session: name.clone(),
            }) {
                Response::Status(_) => {}
                other => panic!("join failed: {other:?}"),
            }
        }
    };
    // Three sampled rounds build the guided fit minimum, the guided
    // round exercises surrogate freeze/thaw across eviction, and the
    // final sampled round runs on thawed state.
    for _ in 0..3 {
        step_round(false);
    }
    step_round(true);
    step_round(false);
    let mut histories = BTreeMap::new();
    for name in &names {
        // `Result` transparently resumes sessions evicted after their
        // last round.
        match service.handle(&Request::Result {
            session: name.clone(),
        }) {
            Response::ResultReady { history, .. } => {
                assert_eq!(history.len(), 10, "lost evaluations on {name}");
                histories.insert(name.clone(), serde_json::to_string(&history).unwrap());
            }
            other => panic!("result failed: {other:?}"),
        }
    }
    let evictions = obs.counter_value("serve.evictions");
    let resumes = obs.counter_value("serve.resumes");
    if evict_after > 0 {
        // Every joined round leaves its earliest finisher idle for more
        // than the window, so the sweep must have fired.
        assert!(
            evictions >= 1.0,
            "no evictions despite a {evict_after}-epoch window"
        );
        assert_eq!(
            evictions, resumes,
            "every eviction must resume exactly once"
        );
    } else {
        assert_eq!(evictions, 0.0, "evictions without a window");
        assert_eq!(resumes, 0.0, "resumes without a window");
    }
    assert_eq!(obs.counter_value("serve.evict_errors"), 0.0);
    assert_eq!(obs.counter_value("serve.resume_errors"), 0.0);
    assert_eq!(
        obs.counter_value("serve.evaluations"),
        (SESSIONS * 10) as f64
    );
    match service.handle(&Request::Drain) {
        Response::Drained { sessions, .. } => assert_eq!(sessions, SESSIONS as usize),
        other => panic!("drain failed: {other:?}"),
    }
    let memory = MemoryStore::load(&store, Obs::disabled()).expect("drain saved the memory store");
    let mut runs = BTreeMap::new();
    for (i, name) in names.iter().enumerate() {
        let base_seed = spec_for(i as u64).base_seed;
        let digest = memory
            .sessions()
            .map(|(_, digest)| digest)
            .find(|digest| digest.base_seed == base_seed)
            .unwrap_or_else(|| panic!("drain ingested no digest for {name}"));
        assert_eq!(digest.evaluations, 10, "digest of {name} lost evaluations");
        runs.insert(
            name.clone(),
            (
                histories.remove(name).expect("history collected above"),
                serde_json::to_string(digest).unwrap(),
            ),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    runs
}

#[test]
fn histories_survive_evict_resume_cycles_byte_identically() {
    let baseline = run(1, 0, "w1-off");
    assert_eq!(baseline.len(), SESSIONS as usize);
    for (workers, evict_after, tag) in [(1, 3, "w1-on"), (8, 0, "w8-off"), (8, 3, "w8-on")] {
        let other = run(workers, evict_after, tag);
        for (name, outcome) in &baseline {
            assert_eq!(
                outcome, &other[name],
                "session {name} diverged at workers={workers}, evict_after={evict_after}"
            );
        }
    }
}
