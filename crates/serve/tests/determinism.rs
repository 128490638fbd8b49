//! The headline invariant of the serving layer: a session's observation
//! history is **byte-identical** whether it runs serially on one worker or
//! interleaved with 31 other sessions on 8 workers — with fault injection
//! in the mix.

use relm_faults::FaultConfig;
use relm_obs::Obs;
use relm_serve::{Request, Response, ServeConfig, Service, SessionSpec};
use relm_tune::SessionCheckpoint;
use std::collections::BTreeMap;

const WORKLOADS: [&str; 5] = ["WordCount", "SortByKey", "K-means", "SVM", "PageRank"];

/// A session spec that is a pure function of the session index: workload
/// cycles through the suite, seeds derive from the index, and every third
/// session runs under a seeded fault plan.
fn spec_for(i: u64) -> SessionSpec {
    let mut spec = SessionSpec::named(WORKLOADS[(i % 5) as usize], 1000 + 17 * i);
    if i.is_multiple_of(3) {
        spec = spec.with_faults(77 + i, FaultConfig::uniform(0.10));
    }
    spec
}

/// Runs `sessions` sessions of `evals` auto-steps each on a pool of
/// `workers`, returning each session's serialized history and export,
/// keyed by name.
fn run_fleet(workers: usize, sessions: u64, evals: u32) -> BTreeMap<String, (String, String)> {
    let service = Service::start(
        ServeConfig {
            workers,
            max_sessions: sessions as usize,
            session_queue_limit: evals as usize,
            // Double the staged backlog: normal-priority sessions may
            // only fill their admission share (0.75) of the global bound.
            global_queue_limit: (sessions as usize) * (evals as usize) * 2,
            ..ServeConfig::default()
        },
        Obs::enabled(),
    );
    let mut names = Vec::new();
    for i in 0..sessions {
        let name = match service.handle(&Request::CreateSession { spec: spec_for(i) }) {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        match service.handle(&Request::StepAuto {
            session: name.clone(),
            evals,
        }) {
            Response::Accepted { enqueued, .. } => assert_eq!(enqueued, evals as usize),
            other => panic!("step rejected: {other:?}"),
        }
        names.push(name);
    }
    let mut histories = BTreeMap::new();
    for name in names {
        match service.handle(&Request::Result {
            session: name.clone(),
        }) {
            Response::ResultReady {
                history, export, ..
            } => {
                assert_eq!(history.len(), evals as usize);
                histories.insert(
                    name,
                    (
                        serde_json::to_string(&history).unwrap(),
                        serde_json::to_string(&export).unwrap(),
                    ),
                );
            }
            other => panic!("result failed: {other:?}"),
        }
    }
    // Exactly sessions * evals evaluations ran — none lost, none doubled.
    assert_eq!(
        service.obs().counter_value("serve.evaluations"),
        (sessions * evals as u64) as f64
    );
    histories
}

#[test]
fn histories_are_byte_identical_across_worker_counts() {
    let serial = run_fleet(1, 32, 4);
    let parallel = run_fleet(8, 32, 4);
    assert_eq!(serial.len(), 32);
    for (name, (history, export)) in &serial {
        assert_eq!(
            history, &parallel[name].0,
            "session {name} diverged between 1 and 8 workers"
        );
        // The export too: it holds no wall-clock value, and nothing the
        // other sessions on the same service recorded.
        assert_eq!(
            export, &parallel[name].1,
            "session {name}'s export differs between 1 and 8 workers"
        );
    }
    // And the fleet actually exercises distinct histories (different
    // workloads/seeds), so the equality above is not vacuous.
    let distinct: std::collections::BTreeSet<&String> = serial.values().map(|(h, _)| h).collect();
    assert!(distinct.len() > 16, "fleet collapsed to {}", distinct.len());
}

#[test]
fn cached_sessions_replay_identically_and_report_hits() {
    let obs = Obs::enabled();
    let service = Service::start(ServeConfig::default(), obs.clone());
    // Two sessions with identical specs, both opted into the shared
    // cache: the first populates it, the second replays from it.
    let spec = spec_for(3).with_cache(); // index 3 → fault plan in the mix
    let mut histories = Vec::new();
    for _ in 0..2 {
        let name = match service.handle(&Request::CreateSession { spec: spec.clone() }) {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        service.handle(&Request::StepAuto {
            session: name.clone(),
            evals: 4,
        });
        match service.handle(&Request::Join {
            session: name.clone(),
        }) {
            Response::Status(_) => {}
            other => panic!("join failed: {other:?}"),
        }
        match service.handle(&Request::Result { session: name }) {
            Response::ResultReady { history, .. } => {
                histories.push(serde_json::to_string(&history).unwrap());
            }
            other => panic!("result failed: {other:?}"),
        }
    }
    assert_eq!(
        histories[0], histories[1],
        "a cached replayed session must match the live one byte-for-byte"
    );
    assert_eq!(obs.counter_value("evalcache.inserts"), 4.0);
    assert_eq!(obs.counter_value("evalcache.hits"), 4.0);

    // An uncached session with the same spec matches too — the cache is
    // an optimization, never a behavior change.
    let uncached_spec = spec_for(3);
    assert!(!uncached_spec.use_cache);
    let name = match service.handle(&Request::CreateSession {
        spec: uncached_spec,
    }) {
        Response::SessionCreated { session } => session,
        other => panic!("create failed: {other:?}"),
    };
    service.handle(&Request::StepAuto {
        session: name.clone(),
        evals: 4,
    });
    service.handle(&Request::Join {
        session: name.clone(),
    });
    match service.handle(&Request::Result { session: name }) {
        Response::ResultReady { history, .. } => {
            assert_eq!(serde_json::to_string(&history).unwrap(), histories[0]);
        }
        other => panic!("result failed: {other:?}"),
    }
    assert_eq!(
        obs.counter_value("evalcache.hits"),
        4.0,
        "an uncached session must never touch the cache"
    );
}

/// Runs one session of `spec` the way the cost ledger's serve workloads
/// do: a 4-evaluation auto bootstrap, then `guided` joined
/// `StepGuided{1}` (the ledger runs 20). Returns its serialized history
/// and the `serve.guided.replays` it added.
fn run_guided(service: &Service, spec: &SessionSpec, guided: usize) -> (String, f64) {
    let replays = || service.obs().counter_value("serve.guided.replays");
    let before = replays();
    let name = match service.handle(&Request::CreateSession { spec: spec.clone() }) {
        Response::SessionCreated { session } => session,
        other => panic!("create failed: {other:?}"),
    };
    let mut steps = vec![Request::StepAuto {
        session: name.clone(),
        evals: 4,
    }];
    steps.extend((0..guided).map(|_| Request::StepGuided {
        session: name.clone(),
        evals: 1,
    }));
    for step in steps {
        match service.handle(&step) {
            Response::Accepted { .. } => {}
            other => panic!("step rejected: {other:?}"),
        }
        service.handle(&Request::Join {
            session: name.clone(),
        });
    }
    match service.handle(&Request::Result { session: name }) {
        Response::ResultReady { history, .. } => {
            assert_eq!(history.len(), 4 + guided);
            (serde_json::to_string(&history).unwrap(), replays() - before)
        }
        other => panic!("result failed: {other:?}"),
    }
}

/// Samples recorded so far in the histogram `name`.
fn samples(service: &Service, name: &str) -> u64 {
    service.obs().histogram(name).map_or(0, |h| h.count())
}

/// A cache-opted session that repeats another's guided steps takes every
/// proposal from the proposal memo, runs no GP fit and no EI search, and
/// still matches it byte for byte; the first session, and an uncached
/// one with the same spec, never replay.
#[test]
fn cached_guided_sessions_replay_their_proposals() {
    let service = Service::start(ServeConfig::default(), Obs::enabled());
    let spec = spec_for(3).with_cache();
    let (first, first_replays) = run_guided(&service, &spec, 20);
    let (fits, searches) = (
        samples(&service, "surrogate.fit_ms"),
        samples(&service, "surrogate.ei_ms"),
    );
    let (second, second_replays) = run_guided(&service, &spec, 20);
    assert_eq!(
        first, second,
        "replayed proposals must match the searched ones"
    );
    assert_eq!(first_replays, 0.0);
    assert_eq!(second_replays, 20.0);
    assert_eq!(
        samples(&service, "surrogate.fit_ms"),
        fits,
        "a replayed session runs no GP fit"
    );
    assert_eq!(
        samples(&service, "surrogate.ei_ms"),
        searches,
        "a replayed session runs no EI search"
    );

    let (uncached, uncached_replays) = run_guided(&service, &spec_for(3), 20);
    assert_eq!(uncached, first);
    assert_eq!(
        uncached_replays, 0.0,
        "an uncached session never reads the memo"
    );
}

/// A cache-opted session that outruns the memo takes its first 10
/// guided proposals from it without a fit, then rebuilds its fitter
/// once, at the 11th, by replaying the recorded fit schedule; its
/// history matches an uncached run byte for byte.
#[test]
fn a_session_that_outruns_the_memo_rebuilds_its_fitter_once() {
    let service = Service::start(ServeConfig::default(), Obs::enabled());
    let rebuilds = || service.obs().counter_value("serve.guided.rebuilds");
    let spec = spec_for(4).with_cache();
    let (short, _) = run_guided(&service, &spec, 10);
    assert_eq!(rebuilds(), 0.0, "a fitter built once needs no rebuild");
    let fits = samples(&service, "surrogate.fit_ms");
    let (long, replays) = run_guided(&service, &spec, 20);
    assert_eq!(replays, 10.0);
    assert_eq!(rebuilds(), 1.0);
    assert_eq!(
        samples(&service, "surrogate.fit_ms") - fits,
        10,
        "only the 10 steps past the memo fit"
    );
    let (uncached, _) = run_guided(&service, &spec_for(4), 20);
    assert_eq!(long, uncached);
    assert!(
        long.starts_with(&short[..short.len() - 1]),
        "the longer run extends the shorter one"
    );
}

/// Two cache-opted sessions of one spec take turns leading its guided
/// steps: the follower's step is a memo hit on the leader's search,
/// which runs no fit and leaves the follower's fitter behind the
/// schedule, and its next step, as leader, misses and rebuilds the
/// fitter, across full fits as well as incremental ones. Both histories
/// match an uncached run byte for byte.
#[test]
fn sessions_taking_turns_at_the_memo_match_an_uncached_run() {
    let service = Service::start(ServeConfig::default(), Obs::enabled());
    let spec = spec_for(1).with_cache();
    let step = |request: Request| {
        let session = request.session().expect("a session step").to_string();
        match service.handle(&request) {
            Response::Accepted { .. } => {}
            other => panic!("step rejected: {other:?}"),
        }
        service.handle(&Request::Join { session });
    };
    let sessions: Vec<String> = (0..2)
        .map(
            |_| match service.handle(&Request::CreateSession { spec: spec.clone() }) {
                Response::SessionCreated { session } => session,
                other => panic!("create failed: {other:?}"),
            },
        )
        .collect();
    for session in &sessions {
        step(Request::StepAuto {
            session: session.clone(),
            evals: 4,
        });
    }
    for turn in 0..12 {
        let leader = turn % 2;
        for session in [&sessions[leader], &sessions[1 - leader]] {
            step(Request::StepGuided {
                session: session.clone(),
                evals: 1,
            });
        }
    }
    let obs = service.obs();
    assert_eq!(obs.counter_value("serve.guided.replays"), 12.0);
    // Every lead after the first rebuilds, and replays a recorded fit
    // unless its own fit is a full one (fits 4 and 8).
    assert_eq!(obs.counter_value("serve.guided.rebuilds"), 9.0);
    let (uncached, _) = run_guided(&service, &spec_for(1), 12);
    for session in sessions {
        match service.handle(&Request::Result { session }) {
            Response::ResultReady { history, .. } => {
                assert_eq!(serde_json::to_string(&history).unwrap(), uncached);
            }
            other => panic!("result failed: {other:?}"),
        }
    }
}

/// Builds a memory store at `store` by running one session per workload
/// and draining (drain extracts the digests and persists the store).
fn build_store(store: &std::path::Path) {
    let service = Service::start(
        ServeConfig {
            workers: 4,
            memory_store: Some(store.to_path_buf()),
            ..ServeConfig::default()
        },
        Obs::enabled(),
    );
    for i in 0..5 {
        let name = match service.handle(&Request::CreateSession { spec: spec_for(i) }) {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        service.handle(&Request::StepAuto {
            session: name,
            evals: 6,
        });
    }
    match service.handle(&Request::Drain) {
        Response::Drained { sessions, .. } => assert_eq!(sessions, 5),
        other => panic!("drain failed: {other:?}"),
    }
}

/// Runs warm-started sessions (guided from evaluation zero, seeded by the
/// store's priors) and returns their serialized histories.
fn run_warm(workers: usize, store: &std::path::Path) -> BTreeMap<String, String> {
    let obs = Obs::enabled();
    let service = Service::start(
        ServeConfig {
            workers,
            memory_store: Some(store.to_path_buf()),
            ..ServeConfig::default()
        },
        obs.clone(),
    );
    // Guided when the prior (plus local history) clears the fit minimum,
    // auto otherwise — a warm *miss* degrades to a cold start instead of
    // failing. The choice is a pure function of the store contents, so it
    // replays identically at any worker count.
    let step = |name: &str, evals: u32| -> bool {
        match service.handle(&Request::StepGuided {
            session: name.to_string(),
            evals,
        }) {
            Response::Accepted { .. } => true,
            Response::Error { .. } => {
                match service.handle(&Request::StepAuto {
                    session: name.to_string(),
                    evals,
                }) {
                    Response::Accepted { .. } => false,
                    other => panic!("auto fallback rejected: {other:?}"),
                }
            }
            other => panic!("guided step rejected: {other:?}"),
        }
    };
    let mut names = Vec::new();
    let mut guided_from_zero = 0;
    for i in 0..5 {
        // A *new* session (fresh seed) of a workload the store has seen.
        let mut spec = spec_for(i).with_warm_start();
        spec.base_seed += 9999;
        let name = match service.handle(&Request::CreateSession { spec }) {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        if step(&name, 2) {
            guided_from_zero += 1;
        }
        names.push(name);
    }
    // Most workloads warm-start into guided steps with zero local
    // history; a workload whose past runs all aborted has no fingerprint
    // and degrades to auto sampling.
    assert!(
        guided_from_zero >= 3,
        "only {guided_from_zero} sessions warm-started"
    );
    let mut histories = BTreeMap::new();
    for name in names {
        service.handle(&Request::Join {
            session: name.clone(),
        });
        // A second batch, now mixing prior and local history.
        step(&name, 2);
        match service.handle(&Request::Result {
            session: name.clone(),
        }) {
            Response::ResultReady { history, .. } => {
                assert_eq!(history.len(), 4);
                histories.insert(name, serde_json::to_string(&history).unwrap());
            }
            other => panic!("result failed: {other:?}"),
        }
    }
    let retrievals = obs.counter_value("memory.retrievals");
    let misses = obs.counter_value("memory.warm_misses");
    assert_eq!(retrievals + misses, 5.0);
    assert!(retrievals >= 3.0);
    assert!(obs.counter_value("memory.prior_obs") >= retrievals * 4.0);
    histories
}

#[test]
fn warm_started_histories_are_byte_identical_across_worker_counts() {
    let dir = std::env::temp_dir().join(format!("relm_serve_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The store itself is deterministic: two independent cold runs
    // persist byte-identical files.
    let store_a = dir.join("memory-a.jsonl");
    let store_b = dir.join("memory-b.jsonl");
    build_store(&store_a);
    build_store(&store_b);
    assert_eq!(
        std::fs::read(&store_a).unwrap(),
        std::fs::read(&store_b).unwrap(),
        "two cold runs must persist byte-identical memory stores"
    );

    // Warm-started sessions against the same store: byte-identical
    // histories at any worker count — the prior is a pure function of the
    // spec and the store contents, never of scheduling.
    let serial = run_warm(1, &store_a);
    let parallel = run_warm(8, &store_a);
    assert_eq!(serial.len(), 5);
    for (name, history) in &serial {
        assert_eq!(
            history, &parallel[name],
            "warm session {name} diverged between 1 and 8 workers"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_checkpoints_match_live_histories() {
    let dir = std::env::temp_dir().join(format!("relm_serve_det_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = Service::start(
        ServeConfig {
            workers: 8,
            checkpoint_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
        Obs::enabled(),
    );
    let mut names = Vec::new();
    for i in 0..6 {
        let name = match service.handle(&Request::CreateSession { spec: spec_for(i) }) {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        service.handle(&Request::StepAuto {
            session: name.clone(),
            evals: 3,
        });
        names.push(name);
    }
    match service.handle(&Request::Drain) {
        Response::Drained {
            sessions,
            evaluations,
            checkpointed,
            flight_dumped,
            reassignments,
            evictions,
            resumes,
            ..
        } => {
            assert_eq!(sessions, 6);
            assert_eq!(evaluations, 18);
            assert_eq!(checkpointed, 6);
            // No flightrec_dir configured: nothing to dump.
            assert_eq!(flight_dumped, 0);
            // No fleet attached: nothing was ever reassigned.
            assert_eq!(reassignments, 0);
            // Eviction is off by default.
            assert_eq!(evictions, 0);
            assert_eq!(resumes, 0);
        }
        other => panic!("drain failed: {other:?}"),
    }
    // The drain's one log must hold exactly each session's full history —
    // resumable state with zero lost or duplicated evaluations.
    let reference = run_fleet(1, 6, 3);
    let log = SessionCheckpoint::load_log(&dir.join("drain.ckpt.jsonl")).unwrap();
    assert_eq!(log.len(), names.len());
    for (name, ckpt) in &log {
        assert!(names.contains(name), "log holds unknown session {name}");
        assert_eq!(
            serde_json::to_string(&ckpt.history).unwrap(),
            reference[name].0,
            "checkpoint for {name} diverged from the serial reference"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
