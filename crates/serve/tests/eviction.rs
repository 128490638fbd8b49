//! Eviction/resume determinism regression: a session's observation
//! history, the digest its drain ingests into the memory store, and its
//! reported cache hits are **byte-identical** whether idle sessions are
//! continually evicted to checkpoint and transparently resumed, or never
//! evicted at all — at any worker count, with guided (surrogate-proposed)
//! batches, the proposal memo and fault injection in the mix. Eviction is
//! a residency policy, not a behavior change.

use relm_faults::FaultConfig;
use relm_memory::MemoryStore;
use relm_obs::Obs;
use relm_serve::{Priority, Request, Response, ServeConfig, Service, SessionSpec};
use std::collections::BTreeMap;

const WORKLOADS: [&str; 5] = ["WordCount", "SortByKey", "K-means", "SVM", "PageRank"];
const SESSIONS: u64 = 6;
/// Evaluations per session: six rounds of two.
const EVALS: usize = 12;

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

/// Runs the fleet through interleaved sampled rounds, two guided rounds,
/// and a final sampled round — joining between rounds so sessions go
/// idle and (with `evict_after > 0`) get swept out to checkpoint while
/// their neighbors advance the epoch clock, then drains into a memory
/// store. With `cached`, the sessions opt into the shared cache and the
/// fleet runs twice, the second pass taking every guided proposal from
/// the first pass's memo entries. Returns each spec's serialized history
/// and ingested digest, keyed by spec index, and every session's final
/// `Status.evalcache_hits` in creation order.
fn run(
    workers: usize,
    evict_after: usize,
    cached: bool,
    tag: &str,
) -> (BTreeMap<u64, (String, String)>, Vec<u64>) {
    let dir = std::env::temp_dir().join(format!("relm_serve_evict_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt_dir = dir.join("ckpt");
    let store = dir.join("memory.jsonl");
    let obs = Obs::enabled();
    let passes = if cached { 2 } else { 1 };
    let service = Service::start(
        ServeConfig {
            workers,
            max_sessions: SESSIONS as usize,
            session_queue_limit: 8,
            global_queue_limit: 48,
            evict_after_evals: evict_after,
            checkpoint_dir: Some(ckpt_dir.clone()),
            memory_store: Some(store.clone()),
            ..ServeConfig::default()
        },
        obs.clone(),
    );
    let mut histories = BTreeMap::new();
    let mut all_names = Vec::new();
    let mut hits = Vec::new();
    for pass in 0..passes {
        let fits = obs.histogram("surrogate.fit_ms").map_or(0, |h| h.count());
        let replays = obs.counter_value("serve.guided.replays");
        let mut names = Vec::new();
        for i in 0..SESSIONS {
            let spec = if cached {
                spec_for(i).with_cache()
            } else {
                spec_for(i)
            };
            match service.handle(&Request::CreateSession { spec }) {
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
        // Three sampled rounds build the guided fit minimum. Each joined
        // round leaves its earliest finishers idle long enough to be swept
        // out, so the second guided round resumes some sessions whose
        // fitter the eviction dropped, and the final sampled round runs on
        // state that crossed an eviction.
        for guided in [false, false, false, true, true, false] {
            step_round(guided);
        }
        for (i, name) in names.iter().enumerate() {
            // `Result` transparently resumes sessions evicted after their
            // last round.
            match service.handle(&Request::Result {
                session: name.clone(),
            }) {
                Response::ResultReady { history, .. } => {
                    assert_eq!(history.len(), EVALS, "lost evaluations on {name}");
                    let history = serde_json::to_string(&history).unwrap();
                    if pass > 0 {
                        assert_eq!(histories[&(i as u64)], history, "replay of {name}");
                    }
                    histories.insert(i as u64, history);
                }
                other => panic!("result failed: {other:?}"),
            }
            match service.handle(&Request::Status {
                session: name.clone(),
            }) {
                Response::Status(status) => hits.push(status.evalcache_hits),
                other => panic!("status failed: {other:?}"),
            }
            // Cancelling frees the fill pass's table slots for the replay
            // pass; the drain still sees the cancelled sessions.
            if pass + 1 < passes {
                service.handle(&Request::Cancel {
                    session: name.clone(),
                });
            }
        }
        all_names.extend(names);
        if pass > 0 {
            // Every guided proposal of a repeated pass, evicted or not,
            // comes from the memo, with no fit and no rebuild.
            assert_eq!(
                obs.counter_value("serve.guided.replays") - replays,
                (SESSIONS * 2 * 2) as f64,
                "a repeated guided proposal missed the memo"
            );
            assert_eq!(
                obs.histogram("surrogate.fit_ms").map_or(0, |h| h.count()),
                fits,
                "a repeated guided step ran a fit"
            );
        }
    }
    let rebuilds = obs.counter_value("serve.guided.rebuilds");
    if evict_after > 0 {
        // Every joined round leaves its earliest finishers idle for more
        // than the window, so the sweep must have fired, and a session
        // evicted between the guided rounds rebuilt its fitter from the
        // recorded fit schedule.
        assert!(
            obs.counter_value("serve.evictions") >= 1.0,
            "no evictions despite a {evict_after}-epoch window"
        );
        assert!(rebuilds >= 1.0, "no guided rebuild after an eviction");
    } else {
        assert_eq!(rebuilds, 0.0, "rebuilds without an eviction");
    }
    match service.handle(&Request::Drain) {
        Response::Drained {
            sessions,
            evaluations,
            evictions,
            resumes,
            ..
        } => {
            assert_eq!(sessions, passes * SESSIONS as usize);
            assert_eq!(evaluations, passes * SESSIONS as usize * EVALS);
            // The drain resumes the sessions still evicted, the cancelled
            // fill pass's among them.
            assert_eq!(
                evictions, resumes,
                "every eviction must resume exactly once"
            );
            if evict_after == 0 {
                assert_eq!(evictions, 0, "evictions without a window");
            }
            // A cache replay adds again the counter deltas its live run
            // captured, other sessions' increments included, so only an
            // uncached run's counters reconcile exactly.
            if !cached {
                assert_eq!(obs.counter_value("serve.evaluations"), evaluations as f64);
                assert_eq!(obs.counter_value("serve.evictions"), evictions as f64);
                assert_eq!(obs.counter_value("serve.resumes"), resumes as f64);
            }
        }
        other => panic!("drain failed: {other:?}"),
    }
    assert_eq!(obs.counter_value("serve.evict_errors"), 0.0);
    assert_eq!(obs.counter_value("serve.resume_errors"), 0.0);
    // Eviction and the drain write the same file: every eviction
    // checkpoint was consumed by its resume, and the drain left exactly
    // one checkpoint per session.
    let mut files: Vec<String> = std::fs::read_dir(&ckpt_dir)
        .expect("the drain wrote the checkpoint directory")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut want: Vec<String> = all_names.iter().map(|n| format!("{n}.ckpt.json")).collect();
    want.sort();
    assert_eq!(files, want, "checkpoint directory after the drain");
    let memory = MemoryStore::load(&store, Obs::disabled()).expect("drain saved the memory store");
    let mut runs = BTreeMap::new();
    for i in 0..SESSIONS {
        let base_seed = spec_for(i).base_seed;
        let digest = memory
            .sessions()
            .map(|(_, digest)| digest)
            .find(|digest| digest.base_seed == base_seed)
            .unwrap_or_else(|| panic!("drain ingested no digest for spec {i}"));
        assert_eq!(
            digest.evaluations, EVALS,
            "digest of spec {i} lost evaluations"
        );
        runs.insert(
            i,
            (
                histories.remove(&i).expect("history collected above"),
                serde_json::to_string(digest).unwrap(),
            ),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    (runs, hits)
}

#[test]
fn histories_survive_evict_resume_cycles_byte_identically() {
    let (baseline, _) = run(1, 0, false, "w1-off");
    assert_eq!(baseline.len(), SESSIONS as usize);
    // The cached runs' cache hits are held to a never-evicted cached run:
    // the checkpoint carries the count across every evict/resume cycle.
    let (cached_baseline, cached_hits) = run(8, 0, true, "w8-off-cached");
    assert_eq!(cached_baseline, baseline, "the cache changed a history");
    assert!(
        cached_hits.iter().any(|&h| h > 0),
        "no cache hits to compare"
    );
    for (workers, evict_after, cached, tag) in [
        (1, 3, false, "w1-on"),
        (8, 0, false, "w8-off"),
        (8, 3, false, "w8-on"),
        (1, 3, true, "w1-on-cached"),
        (8, 3, true, "w8-on-cached"),
    ] {
        let (other, hits) = run(workers, evict_after, cached, tag);
        for (spec, outcome) in &baseline {
            assert_eq!(
                outcome, &other[spec],
                "spec {spec} diverged at workers={workers}, evict_after={evict_after}, \
                 cached={cached}"
            );
        }
        if cached {
            assert_eq!(
                hits, cached_hits,
                "cache hits diverged at workers={workers}, evict_after={evict_after}"
            );
        }
    }
}
