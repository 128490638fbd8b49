//! The fleet's acceptance tests: worker death mid-evaluation, at-most-once
//! reassignment, and the standing invariant — per-session histories
//! byte-identical at any fleet size under any injected worker-failure
//! schedule.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use relm_faults::{FaultConfig, WorkerFaultConfig, WorkerFaultPlan};
use relm_fleet::{evaluate_task, run_worker, Center, MonitorConfig, WorkerConfig, WorkerExit};
use relm_obs::Obs;
use relm_serve::{
    Execution, Request, Response, ServeConfig, Service, SessionSpec, TcpClient, TcpServer,
};

/// Session specs used by every run in this file — one clean, one under a
/// seeded engine-level fault plan (so censored evaluations cross the
/// fleet wire too).
fn specs() -> Vec<SessionSpec> {
    vec![
        SessionSpec::named("WordCount", 7),
        SessionSpec::named("PageRank", 11).with_faults(400, FaultConfig::uniform(0.10)),
    ]
}

const STEPS: u32 = 4;

/// Drives the spec set to completion against `service` and returns each
/// session's history serialized to JSON — the byte-comparison currency.
fn drive_sessions(service: &Service) -> Vec<String> {
    let mut names = Vec::new();
    for spec in specs() {
        let session = match service.handle(&Request::CreateSession { spec }) {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        match service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: STEPS,
        }) {
            Response::Accepted { enqueued, .. } => assert_eq!(enqueued, STEPS as usize),
            other => panic!("step failed: {other:?}"),
        }
        names.push(session);
    }
    names
        .into_iter()
        .map(
            |session| match service.handle(&Request::Result { session }) {
                Response::ResultReady { history, .. } => {
                    assert_eq!(history.len(), STEPS as usize, "lost evaluations");
                    serde_json::to_string(&history).expect("history serializes")
                }
                other => panic!("result failed: {other:?}"),
            },
        )
        .collect()
}

/// The 1-worker, no-fleet, no-fault reference run: its histories, and
/// the handle that counted its evaluations.
fn baseline_histories() -> (Vec<String>, Obs) {
    let obs = Obs::enabled();
    let service = Service::start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        obs.clone(),
    );
    (drive_sessions(&service), obs)
}

/// A fleet commit books the worker's live counter totals, so the center
/// counts what the local run counted: the evaluation counters exactly,
/// and the summed stress time to within 1e-9 relative (the sessions'
/// totals may add up in another order).
fn assert_counters_match_local(fleet: &Obs, local: &Obs) {
    for name in ["env.stress_tests", "engine.runs", "faults.injected"] {
        let want = local.counter_value(name);
        assert!(want > 0.0, "the local run counted no {name}");
        assert_eq!(fleet.counter_value(name), want, "{name}");
    }
    let got = fleet.counter_value("env.stress_time_ms");
    let want = local.counter_value("env.stress_time_ms");
    assert!(
        want > 0.0 && ((got - want) / want).abs() <= 1e-9,
        "env.stress_time_ms: fleet {got}, local {want}"
    );
}

/// A fast liveness policy for in-process tests: 10ms beats, dead after 3
/// missed. Only safe where the transport is a function call — over a real
/// socket the worker is necessarily silent for one full frame round-trip
/// while delivering a result, and a 30ms death timeout would depose it.
fn fast_monitor() -> MonitorConfig {
    MonitorConfig {
        heartbeat_ms: 10,
        missed_threshold: 3,
    }
}

/// Liveness policy for the TCP test: still quick beats, but the death
/// timeout (1s) dominates the worst-case serialize/parse time of a large
/// result frame on a debug build, mirroring how the production default
/// (500ms x 4 = 2s) dominates real network delivery.
fn tcp_monitor() -> MonitorConfig {
    MonitorConfig {
        heartbeat_ms: 25,
        missed_threshold: 40,
    }
}

fn external_service(obs: &Obs) -> Arc<Service> {
    Arc::new(Service::start(
        ServeConfig {
            execution: Execution::External,
            ..ServeConfig::default()
        },
        obs.clone(),
    ))
}

/// The tentpole: a 3-worker fleet with one worker armed to die right
/// after acking its first assignment. The killed task must be reassigned
/// (exactly once — one death, one requeue), every session must complete,
/// and the histories must be byte-identical to the 1-worker local run.
#[test]
fn killed_worker_mid_evaluation_reassigns_once_and_history_is_byte_identical() {
    let (baseline, local) = baseline_histories();

    let obs = Obs::enabled();
    let service = external_service(&obs);
    let center = Center::start(Arc::clone(&service), fast_monitor());

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    // w-0, armed for certain death on its first acked assignment, starts
    // alone so it is guaranteed to win a task before dying.
    {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let config = WorkerConfig::named("w-0").with_faults(WorkerFaultPlan::new(
                99,
                WorkerFaultConfig {
                    kill_rate: 1.0,
                    ..WorkerFaultConfig::off()
                },
            ));
            run_worker(|req| Ok(service.handle(req)), &config, &stop)
        }));
    }
    // Queue the work, then wait until w-0 has taken (and died on) a task
    // before the survivors join the fleet.
    let session_names = {
        let mut names = Vec::new();
        for spec in specs() {
            let session = match service.handle(&Request::CreateSession { spec }) {
                Response::SessionCreated { session } => session,
                other => panic!("create failed: {other:?}"),
            };
            match service.handle(&Request::StepAuto {
                session: session.clone(),
                evals: STEPS,
            }) {
                Response::Accepted { enqueued, .. } => assert_eq!(enqueued, STEPS as usize),
                other => panic!("step failed: {other:?}"),
            }
            names.push(session);
        }
        names
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while obs.counter_value("fleet.tasks_assigned") < 1.0 {
        assert!(
            std::time::Instant::now() < deadline,
            "w-0 never took a task"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    for i in 1..3 {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            run_worker(
                |req| Ok(service.handle(req)),
                &WorkerConfig::named(format!("w-{i}")),
                &stop,
            )
        }));
    }

    let histories: Vec<String> = session_names
        .into_iter()
        .map(
            |session| match service.handle(&Request::Result { session }) {
                Response::ResultReady { history, .. } => {
                    assert_eq!(history.len(), STEPS as usize, "lost evaluations");
                    serde_json::to_string(&history).expect("history serializes")
                }
                other => panic!("result failed: {other:?}"),
            },
        )
        .collect();

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let reports: Vec<_> = workers
        .into_iter()
        .map(|t| t.join().expect("worker thread"))
        .collect();
    center.stop();

    // The invariant: distribution and mid-run death are invisible to the
    // deterministic state, and the reassigned task books its counters once.
    assert_eq!(histories, baseline, "fleet history diverged from local run");
    assert_counters_match_local(&obs, &local);

    // The armed worker died exactly once, on its first task.
    let killed = reports.iter().find(|r| r.id == "w-0").expect("w-0 report");
    assert_eq!(killed.exit, WorkerExit::Killed);
    assert_eq!(killed.evaluations, 0, "kill fires before the evaluation");

    // ... and its task was reassigned exactly once.
    assert_eq!(center.reassignment_count(), 1, "exactly one reassignment");
    assert_eq!(obs.counter_value("fleet.reassignments"), 1.0);

    // At-most-once commit: every admitted evaluation committed through
    // exactly one door, and the books balance.
    let total = specs().len() * STEPS as usize;
    assert_eq!(obs.counter_value("serve.evaluations"), total as f64);
    let commits = obs.counter_value("fleet.tasks_completed")
        + obs.counter_value("fleet.cache_commits")
        + obs.counter_value("fleet.local_commits");
    assert_eq!(commits, total as f64, "commit doors don't sum to the total");
    // The survivors did all the work.
    let executed: usize = reports.iter().map(|r| r.evaluations).sum();
    assert_eq!(executed, total, "workers executed a different number");
}

/// At-most-once under deposition: a worker is declared dead mid-task and
/// delivers late. The late result must NOT commit — it only warms the
/// cache, and the reassigned attempt replays it for free (no second
/// evaluation is ever paid for).
#[test]
fn deposed_workers_late_result_warms_cache_but_never_commits() {
    let obs = Obs::enabled();
    let service = external_service(&obs);
    let center = Center::start(Arc::clone(&service), fast_monitor());

    let session = match service.handle(&Request::CreateSession {
        spec: SessionSpec::named("WordCount", 7),
    }) {
        Response::SessionCreated { session } => session,
        other => panic!("create failed: {other:?}"),
    };
    service.handle(&Request::StepAuto {
        session: session.clone(),
        evals: 1,
    });

    // Play worker w-0 by hand: register, poll, ack.
    match service.handle(&Request::Register {
        worker: "w-0".into(),
        capacity: 1,
    }) {
        Response::Registered { .. } => {}
        other => panic!("register failed: {other:?}"),
    }
    let task = match service.handle(&Request::Heartbeat {
        worker: "w-0".into(),
        seq: 1,
    }) {
        Response::Assign { task } => *task,
        other => panic!("expected assignment: {other:?}"),
    };
    match service.handle(&Request::Ack {
        worker: "w-0".into(),
        task: task.id,
    }) {
        Response::HeartbeatAck { .. } => {}
        other => panic!("ack failed: {other:?}"),
    }

    // The monitor (here: the deterministic test hook) declares w-0 dead;
    // its task is requeued.
    center.force_dead("w-0");
    assert_eq!(center.reassignment_count(), 1);

    // w-0, unaware, finishes the evaluation and delivers — late.
    let outcome = evaluate_task(&task);
    match service.handle(&Request::Complete {
        worker: "w-0".into(),
        task: task.id,
        outcome: outcome.clone(),
    }) {
        Response::Reassigned { task: id } => assert_eq!(id, task.id),
        other => panic!("late delivery must be refused: {other:?}"),
    }
    assert_eq!(obs.counter_value("fleet.late_results"), 1.0);
    assert_eq!(
        obs.counter_value("serve.evaluations"),
        0.0,
        "a deposed result must not commit"
    );

    // A dead worker's next heartbeat is refused (it must re-register).
    match service.handle(&Request::Heartbeat {
        worker: "w-0".into(),
        seq: 2,
    }) {
        Response::Error { .. } => {}
        other => panic!("dead worker's beat must be refused: {other:?}"),
    }

    // A fresh worker polls. The requeued task's outcome is already in
    // the cache (warmed by the late delivery), so the center commits it
    // locally — no second evaluation — and the worker stays idle.
    match service.handle(&Request::Register {
        worker: "w-1".into(),
        capacity: 1,
    }) {
        Response::Registered { .. } => {}
        other => panic!("register failed: {other:?}"),
    }
    match service.handle(&Request::Heartbeat {
        worker: "w-1".into(),
        seq: 1,
    }) {
        Response::HeartbeatAck { pending } => assert_eq!(pending, 0),
        other => panic!("expected idle ack: {other:?}"),
    }
    assert_eq!(obs.counter_value("fleet.cache_commits"), 1.0);
    assert_eq!(obs.counter_value("serve.evaluations"), 1.0);
    assert_eq!(
        obs.counter_value("evalcache.hits"),
        1.0,
        "the reassigned attempt replays the warmed cell"
    );

    match service.handle(&Request::Result { session }) {
        Response::ResultReady { history, .. } => assert_eq!(history.len(), 1),
        other => panic!("result failed: {other:?}"),
    }
    center.stop();
}

/// Warm-start meets the fleet: sessions seeded from a cross-session
/// memory store, evaluated by remote workers with one armed to die, must
/// produce histories byte-identical to a 1-worker local warm run against
/// the same store — and the fleet's drain must ingest the warm sessions'
/// digests back into the store.
#[test]
fn warm_started_fleet_run_with_kill_matches_local_warm_run() {
    let dir = std::env::temp_dir().join(format!("relm_fleet_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("memory.jsonl");

    // Phase 1: a cold local run builds the store (drain extracts and
    // persists the digests).
    {
        let service = Service::start(
            ServeConfig {
                workers: 2,
                memory_store: Some(store.clone()),
                ..ServeConfig::default()
            },
            Obs::disabled(),
        );
        drive_sessions(&service);
        match service.handle(&Request::Drain) {
            Response::Drained { sessions, .. } => assert_eq!(sessions, 2),
            other => panic!("drain failed: {other:?}"),
        }
    }

    // Fresh seeds of the same workloads, warm-started from the store.
    let warm_specs = || -> Vec<SessionSpec> {
        specs()
            .into_iter()
            .map(|mut s| {
                s.base_seed += 5000;
                s.with_warm_start()
            })
            .collect()
    };
    // Guided from evaluation zero when the prior clears the fit minimum;
    // a warm miss (workload with no usable fingerprint) degrades to auto
    // sampling. Either way the choice is a pure function of the store.
    let enqueue_warm = |service: &Service| -> Vec<String> {
        let mut names = Vec::new();
        for spec in warm_specs() {
            let session = match service.handle(&Request::CreateSession { spec }) {
                Response::SessionCreated { session } => session,
                other => panic!("create failed: {other:?}"),
            };
            let guided = service.handle(&Request::StepGuided {
                session: session.clone(),
                evals: STEPS,
            });
            match guided {
                Response::Accepted { .. } => {}
                Response::Error { .. } => {
                    match service.handle(&Request::StepAuto {
                        session: session.clone(),
                        evals: STEPS,
                    }) {
                        Response::Accepted { .. } => {}
                        other => panic!("auto fallback failed: {other:?}"),
                    }
                }
                other => panic!("guided step failed: {other:?}"),
            }
            names.push(session);
        }
        names
    };
    let collect = |service: &Service, names: Vec<String>| -> Vec<String> {
        names
            .into_iter()
            .map(
                |session| match service.handle(&Request::Result { session }) {
                    Response::ResultReady { history, .. } => {
                        assert_eq!(history.len(), STEPS as usize, "lost evaluations");
                        serde_json::to_string(&history).expect("history serializes")
                    }
                    other => panic!("result failed: {other:?}"),
                },
            )
            .collect()
    };

    // Local warm reference (1 worker, same store, no drain — the
    // reference must not mutate the store the fleet run reads).
    let local = {
        let service = Service::start(
            ServeConfig {
                workers: 1,
                memory_store: Some(store.clone()),
                ..ServeConfig::default()
            },
            Obs::disabled(),
        );
        let names = enqueue_warm(&service);
        collect(&service, names)
    };

    // Fleet warm run: external execution, 3 workers, w-0 armed to die on
    // its first acked assignment.
    let obs = Obs::enabled();
    let service = Arc::new(Service::start(
        ServeConfig {
            execution: Execution::External,
            memory_store: Some(store.clone()),
            ..ServeConfig::default()
        },
        obs.clone(),
    ));
    let center = Center::start(Arc::clone(&service), fast_monitor());
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let config = WorkerConfig::named("w-0").with_faults(WorkerFaultPlan::new(
                17,
                WorkerFaultConfig {
                    kill_rate: 1.0,
                    ..WorkerFaultConfig::off()
                },
            ));
            run_worker(|req| Ok(service.handle(req)), &config, &stop)
        }));
    }
    let names = enqueue_warm(&service);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while obs.counter_value("fleet.tasks_assigned") < 1.0 {
        assert!(
            std::time::Instant::now() < deadline,
            "w-0 never took a task"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    for i in 1..3 {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            run_worker(
                |req| Ok(service.handle(req)),
                &WorkerConfig::named(format!("w-{i}")),
                &stop,
            )
        }));
    }
    let fleet = collect(&service, names);
    assert_eq!(
        fleet, local,
        "warm fleet histories diverged from the local warm run"
    );
    assert!(
        obs.counter_value("memory.retrievals") >= 1.0,
        "no prior was ever retrieved"
    );

    // Drain the fleet service: the warm sessions' digests flow back into
    // the store through the same path a local drain takes.
    match service.handle(&Request::Drain) {
        Response::Drained { sessions, .. } => assert_eq!(sessions, 2),
        other => panic!("drain failed: {other:?}"),
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for t in workers {
        t.join().expect("worker thread");
    }
    center.stop();

    let merged = relm_memory::MemoryStore::load(&store, Obs::disabled()).unwrap();
    assert_eq!(
        merged.len(),
        4,
        "store must hold the 2 cold and 2 warm session digests"
    );
    assert_eq!(merged.skipped(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Drain-report reconciliation: tasks stranded in reassignment limbo by
/// dead workers are run dry locally by the drain — zero lost sessions,
/// and the drain tally's `reassignments` agrees with the counter.
#[test]
fn drain_runs_reassignment_limbo_dry_and_reconciles() {
    let obs = Obs::enabled();
    let service = external_service(&obs);
    let center = Center::start(Arc::clone(&service), fast_monitor());

    let session = match service.handle(&Request::CreateSession {
        spec: SessionSpec::named("SortByKey", 13),
    }) {
        Response::SessionCreated { session } => session,
        other => panic!("create failed: {other:?}"),
    };
    service.handle(&Request::StepAuto {
        session: session.clone(),
        evals: 3,
    });

    // A worker takes the first task into flight, then dies without a
    // word. The task is now in reassignment limbo with no live worker
    // anywhere to take it.
    match service.handle(&Request::Register {
        worker: "w-0".into(),
        capacity: 1,
    }) {
        Response::Registered { .. } => {}
        other => panic!("register failed: {other:?}"),
    }
    let task = match service.handle(&Request::Heartbeat {
        worker: "w-0".into(),
        seq: 1,
    }) {
        Response::Assign { task } => *task,
        other => panic!("expected assignment: {other:?}"),
    };
    service.handle(&Request::Ack {
        worker: "w-0".into(),
        task: task.id,
    });
    center.force_dead("w-0");

    // Drain must run the limbo task AND the still-queued backlog dry.
    match service.handle(&Request::Drain) {
        Response::Drained {
            sessions,
            evaluations,
            reassignments,
            ..
        } => {
            assert_eq!(sessions, 1, "lost a session in drain");
            assert_eq!(evaluations, 3, "lost evaluations in drain");
            assert_eq!(reassignments, 1, "limbo task reassigned once");
        }
        other => panic!("drain failed: {other:?}"),
    }
    assert_eq!(
        obs.counter_value("fleet.reassignments"),
        1.0,
        "drain tally and counter must agree"
    );
    assert_eq!(obs.counter_value("fleet.local_commits"), 3.0);
    assert_eq!(obs.counter_value("serve.evaluations"), 3.0);
    assert_eq!(center.outstanding(), 0, "nothing left in the task table");
    center.stop();
}

/// Heartbeat-loss accounting is deterministic: sequence gaps tally the
/// missed beats no matter when they arrive.
#[test]
fn heartbeat_sequence_gaps_are_counted() {
    let obs = Obs::enabled();
    let service = external_service(&obs);
    let center = Center::start(Arc::clone(&service), fast_monitor());

    service.handle(&Request::Register {
        worker: "w-0".into(),
        capacity: 1,
    });
    for seq in [1u64, 2, 5, 6, 9] {
        match service.handle(&Request::Heartbeat {
            worker: "w-0".into(),
            seq,
        }) {
            Response::HeartbeatAck { .. } => {}
            other => panic!("beat refused: {other:?}"),
        }
    }
    // Gaps: 3,4 lost (2) + 7,8 lost (2).
    assert_eq!(obs.counter_value("fleet.heartbeats_missed"), 4.0);
    assert_eq!(obs.counter_value("fleet.heartbeats"), 5.0);
    center.stop();
}

/// The whole stack over real sockets: center behind the TCP frontend,
/// one clean TCP worker, histories byte-identical to the local run and
/// counter totals that survive the wire.
#[test]
fn tcp_fleet_round_trip_matches_local_run() {
    let (baseline, local) = baseline_histories();

    let obs = Obs::enabled();
    let service = external_service(&obs);
    let center = Center::start(Arc::clone(&service), tcp_monitor());
    let server = TcpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = TcpClient::connect(addr).expect("worker connect");
            run_worker(
                |req| client.request(req),
                &WorkerConfig::named("w-tcp"),
                &stop,
            )
        })
    };

    let mut client = TcpClient::connect(addr).expect("driver connect");
    let mut names = Vec::new();
    for spec in specs() {
        let session = match client
            .request(&Request::CreateSession { spec })
            .expect("create")
        {
            Response::SessionCreated { session } => session,
            other => panic!("create failed: {other:?}"),
        };
        client
            .request(&Request::StepAuto {
                session: session.clone(),
                evals: STEPS,
            })
            .expect("step");
        names.push(session);
    }
    let histories: Vec<String> = names
        .into_iter()
        .map(|session| {
            match client
                .request(&Request::Result { session })
                .expect("result")
            {
                Response::ResultReady { history, .. } => {
                    serde_json::to_string(&history).expect("history serializes")
                }
                other => panic!("result failed: {other:?}"),
            }
        })
        .collect();
    assert_eq!(histories, baseline, "TCP fleet diverged from local run");
    assert_counters_match_local(&obs, &local);

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let report = worker.join().expect("worker thread");
    assert_eq!(report.evaluations, specs().len() * STEPS as usize);
    assert_eq!(report.exit, WorkerExit::Stopped);
    center.stop();
    drop(server);
}
