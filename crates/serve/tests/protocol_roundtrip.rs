//! Protocol robustness: every request and response variant survives the
//! JSON-lines pivot byte-for-byte, and the framing layer rejects
//! malformed and oversized frames instead of buffering them.

use proptest::prelude::*;
use relm_cluster::ClusterSpec;
use relm_common::{Mem, MemoryConfig};
use relm_faults::{FaultConfig, FaultPlan};
use relm_obs::{FieldValue, FlightEvent, MetricsSnapshot, SpanRecord};
use relm_serve::{
    decode, encode, read_frame, EvalOutcome, FleetTask, FrameError, Priority, Request, Response,
    SessionSpec, SessionStatus, DEFAULT_MAX_FRAME_BYTES,
};
use relm_tune::{recommendation, session_export, EvalStore, RetryPolicy, TuningEnv};
use serde::Serialize;
use std::io::BufReader;
use std::sync::Arc;

fn config(n: u32, p: u32, cache: f64, shuffle: f64) -> MemoryConfig {
    let cfg = MemoryConfig {
        containers_per_node: n,
        heap: Mem::mb(17_616.0 / n as f64),
        task_concurrency: p,
        cache_fraction: cache,
        shuffle_fraction: shuffle,
        new_ratio: 4,
        survivor_ratio: 8,
    };
    assert!(cfg.check().is_ok(), "generated config invalid: {cfg}");
    cfg
}

/// A real (small) session export, so `ResultReady` carries the same
/// payload shapes production responses do.
fn real_export() -> (relm_tune::SessionExport, Vec<relm_tune::Observation>) {
    let engine = relm_app::Engine::new(ClusterSpec::cluster_a());
    let mut env = TuningEnv::new(engine, relm_workloads::wordcount(), 5);
    let cfg = relm_workloads::max_resource_allocation(&ClusterSpec::cluster_a(), env.app());
    env.evaluate(&cfg);
    let rec = recommendation("serve", &env, cfg);
    (session_export(&env, &rec), env.history().to_vec())
}

/// A real fleet lease and its completed outcome, built exactly the way a
/// worker would: the evaluation runs through a cache so the fill path
/// produces the canonical [`relm_tune::CachedEval`] payload.
fn real_task_and_outcome(
    id: u64,
    seed: u64,
    cfg: MemoryConfig,
    faults: Option<FaultPlan>,
    wall_ms: f64,
) -> (FleetTask, EvalOutcome) {
    let cluster = ClusterSpec::cluster_a();
    let cost = *relm_app::Engine::new(cluster.clone()).cost_model();
    let task = FleetTask {
        id,
        attempt: (seed % 3) as u32,
        session: format!("s-{id:04}"),
        app: relm_workloads::wordcount(),
        cluster: cluster.clone(),
        cost,
        config: cfg,
        seed,
        retry: RetryPolicy::standard(),
        faults,
    };
    let mut engine = relm_app::Engine::new(cluster).with_cost_model(cost);
    if let Some(plan) = &task.faults {
        engine = engine.with_faults(plan.clone());
    }
    let store = EvalStore::new();
    let mut env = TuningEnv::new(engine, task.app.clone(), seed)
        .with_retry_policy(task.retry)
        .with_cache(store.clone());
    let key = env.eval_key(&task.config);
    env.evaluate(&task.config);
    let eval = (*store.get(&key).expect("cache-fill stores the eval")).clone();
    (task, EvalOutcome { eval, wall_ms })
}

fn assert_request_round_trips(req: &Request) {
    let line = encode(req);
    // The direct writer and the tree print the same bytes.
    assert_eq!(line, req.to_value().to_string());
    assert!(!line.contains('\n'), "frames must be single-line");
    let back: Request = decode(&line, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(req, &back);
    // Determinism of the wire form itself: re-encoding is byte-identical.
    assert_eq!(encode(&back), line);
}

fn assert_response_round_trips(resp: &Response) {
    let line = encode(resp);
    assert_eq!(line, resp.to_value().to_string());
    assert!(!line.contains('\n'), "frames must be single-line");
    let back: Response = decode(&line, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(resp, &back);
    assert_eq!(encode(&back), line);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn every_request_variant_round_trips(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000,
        rate in 0.0..0.5f64,
        evals in 1u32..64,
        n in 1u32..=4,
        p in 1u32..=8,
        cache in 0.05..0.4f64,
        shuffle in 0.05..0.4f64,
        sid in 0u64..10_000,
    ) {
        let session = format!("s-{sid:04}");
        let spec_plain = SessionSpec::named("WordCount", seed);
        let mut spec_full = SessionSpec::named("K-means", seed)
            .with_priority(Priority::ALL[(seed % 3) as usize])
            .with_faults(fault_seed, FaultConfig::uniform(rate));
        spec_full.retry = Some(RetryPolicy::standard());
        let worker = format!("w-{}", sid % 8);
        // A faulty lease exercises the censored/retry payload shapes in
        // the Complete frame too.
        let (_, outcome) = real_task_and_outcome(
            sid,
            seed,
            config(n, p, cache, shuffle),
            Some(FaultPlan::new(fault_seed, FaultConfig::uniform(rate))),
            rate * 100.0,
        );
        let requests = [
            Request::Ping,
            Request::CreateSession { spec: spec_plain },
            Request::CreateSession { spec: spec_full },
            Request::Step {
                session: session.clone(),
                configs: vec![config(n, p, cache, shuffle), config(n, p, shuffle, cache)],
            },
            Request::StepAuto { session: session.clone(), evals },
            Request::Status { session: session.clone() },
            Request::Join { session: session.clone() },
            Request::Result { session: session.clone() },
            Request::Cancel { session: session.clone() },
            Request::Evict { session: session.clone() },
            Request::Metrics,
            Request::Trace { session: session.clone() },
            Request::Dump { session: session.clone() },
            Request::Drain,
            Request::Register { worker: worker.clone(), capacity: n },
            Request::Heartbeat { worker: worker.clone(), seq: seed },
            Request::Ack { worker: worker.clone(), task: sid },
            Request::Complete { worker, task: sid, outcome },
        ];
        for req in &requests {
            assert_request_round_trips(req);
        }
    }

    #[test]
    fn every_response_variant_round_trips(
        pending in 0usize..100,
        completed in 0usize..100,
        censored in 0usize..10,
        score in 0.1..500.0f64,
        discarded in 0usize..50,
        sessions in 0usize..64,
        evaluations in 0usize..10_000,
        sid in 0u64..10_000,
        best_known in 0u32..2,
    ) {
        let session = format!("s-{sid:04}");
        let status = SessionStatus {
            session: session.clone(),
            priority: Priority::ALL[sid as usize % 3],
            evicted: sid.is_multiple_of(2),
            pending,
            running: pending.is_multiple_of(2),
            completed,
            censored,
            best_score_mins: (best_known == 1).then_some(score),
            cancelled: completed % 2 == 1,
            stress_time_ms: score * 3.0,
            retries: censored as u32,
            evalcache_hits: completed as u64 / 2,
            queue_wait_ms: score / 7.0,
        };
        let (export, history) = real_export();
        let snapshot = MetricsSnapshot {
            counters: vec![
                ("serve.evaluations".into(), completed as f64),
                ("serve.slo.evaluations".into(), completed as f64),
            ],
            gauges: vec![("serve.queue.global".into(), pending as f64)],
            histograms: vec![relm_obs::HistogramSummary {
                name: "serve.evaluate_ms".into(),
                count: completed as u64,
                sum: score * completed as f64,
                min: score / 2.0,
                max: score * 2.0,
                p50: score,
                p95: score * 1.5,
                p99: score * 1.9,
            }],
            dropped_spans: discarded as u64,
        };
        let expo = relm_obs::render_prometheus(&snapshot);
        let events = vec![
            FlightEvent::Protocol {
                trace: sid | 1,
                event: "step_auto".into(),
                at_us: completed as u64 * 17,
                detail: format!("enqueued={pending}"),
            },
            FlightEvent::Span(Arc::new(SpanRecord {
                id: sid,
                parent: (best_known == 1).then_some(sid + 1),
                trace: Some(sid | 1),
                name: "serve.evaluate".into(),
                start_us: 10,
                end_us: 10 + completed as u64,
                fields: vec![
                    ("session".into(), FieldValue::Str(session.clone())),
                    ("aborted".into(), FieldValue::Bool(censored > 0)),
                    ("retries".into(), FieldValue::U64(censored as u64)),
                ],
            })),
        ];
        let (task, _) = real_task_and_outcome(sid, sid.wrapping_mul(31), config(2, 4, 0.2, 0.2), None, score);
        let responses = [
            Response::Pong,
            Response::SessionCreated { session: session.clone() },
            Response::Accepted { session: session.clone(), enqueued: pending },
            Response::Status(status),
            Response::ResultReady { session: session.clone(), export, history },
            Response::Cancelled { session: session.clone(), discarded },
            Response::Drained {
                sessions,
                evaluations,
                checkpointed: sessions,
                flight_dumped: sessions,
                reassignments: discarded,
                evictions: censored,
                resumes: censored,
            },
            Response::Evicted {
                session: session.clone(),
                path: format!("results/ckpt/{session}.ckpt.json"),
            },
            Response::Metrics { snapshot, expo },
            Response::Trace {
                session: session.clone(),
                dropped: discarded as u64,
                events,
            },
            Response::Dumped {
                session: session.clone(),
                path: format!("results/flightrec/{session}-request-1.flight.json"),
                events: completed,
            },
            Response::Overloaded {
                reason: "global queue limit exceeded".into(),
                session_pending: pending,
                global_pending: pending + discarded,
            },
            Response::Registered {
                worker: format!("w-{}", sid % 8),
                heartbeat_ms: 500,
                missed_threshold: censored as u32 + 1,
            },
            Response::Assign { task: Box::new(task) },
            Response::HeartbeatAck { pending },
            Response::Reassigned { task: sid },
            Response::Error { message: format!("unknown session `{session}`") },
        ];
        for resp in &responses {
            assert_response_round_trips(resp);
        }
    }

    #[test]
    fn oversized_frames_reject_at_every_limit(
        limit in 8usize..256,
        excess in 1usize..64,
    ) {
        let line = format!("{}\n", "y".repeat(limit + excess));
        let mut reader = BufReader::new(line.as_bytes());
        let out = read_frame(&mut reader, limit).unwrap();
        prop_assert_eq!(out, Err(FrameError::Oversized { limit }));
        // A frame exactly at the bound passes.
        let fit = format!("{}\n", "y".repeat(limit - 1));
        let mut reader = BufReader::new(fit.as_bytes());
        let got = read_frame(&mut reader, limit).unwrap().unwrap().unwrap();
        prop_assert_eq!(got, fit);
    }
}

#[test]
fn malformed_frames_never_panic() {
    let garbage = [
        "",
        "   ",
        "{",
        "}",
        "null",
        "42",
        "\"Ping\" trailing",
        "{\"CreateSession\":{}}",
        "{\"Step\":{\"session\":5}}",
        "{\"NoSuchVariant\":{}}",
        "[1,2,3]",
        "{\"Status\":{\"session\":\"s-1\"},\"extra\":1}",
        "{\"Register\":{\"worker\":5,\"capacity\":1}}",
        "{\"Heartbeat\":{\"worker\":\"w-0\",\"seq\":-1}}",
        "{\"Ack\":{\"worker\":\"w-0\",\"task\":\"one\"}}",
        "{\"Complete\":{\"worker\":\"w-0\",\"task\":1}}",
    ];
    for line in garbage {
        match decode::<Request>(line, 1024) {
            Ok(Request::Ping) if line.trim() == "\"Ping\"" => {}
            Ok(other) => panic!("garbage {line:?} decoded to {other:?}"),
            Err(FrameError::Malformed { .. }) => {}
            Err(other) => panic!("garbage {line:?} gave {other:?}"),
        }
    }
}

/// Nesting far past the parser's bound is a malformed frame, not a stack
/// overflow that aborts the process.
#[test]
fn deeply_nested_frames_are_malformed() {
    for open in ["[", "{\"a\":"] {
        let line = open.repeat(100_000);
        for err in [
            decode::<Request>(&line, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
            decode::<Response>(&line, DEFAULT_MAX_FRAME_BYTES).unwrap_err(),
        ] {
            assert!(matches!(err, FrameError::Malformed { .. }), "{err}");
        }
    }
}

/// Characters a corrupted frame is most likely to trip a parser on: JSON
/// structure, escape and number syntax, and multi-byte chars that shift
/// char boundaries.
const STRUCTURAL: [&str; 17] = [
    "\"", "\\", "u", "{", "}", "[", "]", ",", ":", "0", "-", "e", ".", "é", "€", "𝄞", "\u{0}",
];

/// Decodes `line` both as a request and as a response; a panic in either
/// fails the test and names the input that caused it.
fn assert_decode_never_panics(line: &str) {
    let decoded = std::panic::catch_unwind(|| {
        let _ = decode::<Request>(line, DEFAULT_MAX_FRAME_BYTES);
        let _ = decode::<Response>(line, DEFAULT_MAX_FRAME_BYTES);
    });
    assert!(decoded.is_ok(), "decoder panicked on {line:?}");
}

/// Real frames cut at every char boundary, then a seeded sample of
/// single-character substitutions and insertions of [`STRUCTURAL`]
/// characters: whatever arrives, the decoder answers `Ok` or `Err`.
#[test]
fn truncated_and_mutated_real_frames_never_panic() {
    const MUTATIONS_PER_FRAME: usize = 1500;
    let mut spec = SessionSpec::named("K-means", 11)
        .with_priority(Priority::High)
        .with_faults(7, FaultConfig::uniform(0.2));
    spec.retry = Some(RetryPolicy::standard());
    let (_, outcome) = real_task_and_outcome(
        3,
        29,
        config(2, 4, 0.2, 0.3),
        Some(FaultPlan::new(7, FaultConfig::uniform(0.2))),
        12.5,
    );
    let (task, _) = real_task_and_outcome(4, 31, config(4, 2, 0.1, 0.2), None, 3.0);
    let (export, history) = real_export();
    let session = "s-0042".to_string();
    let frames = [
        encode(&Request::CreateSession { spec }),
        encode(&Request::Step {
            session: session.clone(),
            configs: vec![config(2, 4, 0.2, 0.3), config(3, 1, 0.35, 0.05)],
        }),
        encode(&Request::StepAuto {
            session: session.clone(),
            evals: 4,
        }),
        encode(&Request::Drain),
        encode(&Request::Complete {
            worker: "w-1".into(),
            task: 3,
            outcome,
        }),
        encode(&Response::ResultReady {
            session,
            export,
            history,
        }),
        encode(&Response::Assign {
            task: Box::new(task),
        }),
    ];
    let mut rng = relm_common::Rng::new(0x5eed);
    for frame in &frames {
        let boundaries: Vec<usize> = frame
            .char_indices()
            .map(|(i, _)| i)
            .chain([frame.len()])
            .collect();
        for &cut in &boundaries {
            assert_decode_never_panics(&frame[..cut]);
        }
        for _ in 0..MUTATIONS_PER_FRAME {
            let at = boundaries[rng.below(boundaries.len())];
            let with = STRUCTURAL[rng.below(STRUCTURAL.len())];
            let rest = match frame[at..].chars().next() {
                // Substitute the char at `at`, or insert before it.
                Some(c) if rng.chance(0.5) => &frame[at + c.len_utf8()..],
                _ => &frame[at..],
            };
            assert_decode_never_panics(&format!("{}{with}{rest}", &frame[..at]));
        }
    }
}

#[test]
fn decode_enforces_the_limit_too() {
    let line = encode(&Request::Ping);
    assert!(matches!(
        decode::<Request>(&line, 3),
        Err(FrameError::Oversized { limit: 3 })
    ));
}
