//! The telemetry plane end-to-end: a worker killed mid-evaluation by the
//! fault plan must freeze a flight-recorder dump whose ring holds the
//! *complete* trace of the doomed request — accept → admission → queue
//! wait → evaluation → abort — stitched across the handler and worker
//! threads by one deterministic trace id. Plus the live-introspection
//! endpoints (`Metrics`, `Trace`, `Dump`) and per-session cost
//! attribution in `Status`.

use relm_faults::FaultConfig;
use relm_obs::{read_dump, FieldValue, FlightEvent, Obs};
use relm_serve::{Request, Response, ServeConfig, Service, SessionSpec};
use relm_tune::RetryPolicy;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relm_flightrec_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn create(service: &Service, spec: SessionSpec) -> String {
    match service.handle(&Request::CreateSession { spec }) {
        Response::SessionCreated { session } => session,
        other => panic!("create failed: {other:?}"),
    }
}

fn eval_config() -> relm_common::MemoryConfig {
    relm_workloads::max_resource_allocation(
        &relm_cluster::ClusterSpec::cluster_a(),
        &relm_workloads::wordcount(),
    )
}

/// The flight recorder's headline contract: kill containers mid-evaluation via
/// `relm-faults` with retries disabled, and the session's fault dump must
/// contain the whole request trace.
#[test]
fn fault_dump_contains_the_complete_trace() {
    let dir = temp_dir("fault");
    let service = Service::start(
        ServeConfig {
            workers: 2,
            flightrec_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
        Obs::enabled(),
    );
    // A certain-death fault plan: every evaluation injects kills, and
    // with retries disabled the first abort is recorded as censored.
    let mut spec = SessionSpec::named("WordCount", 4242).with_faults(7, FaultConfig::uniform(1.0));
    spec.retry = Some(RetryPolicy::disabled());
    let session = create(&service, spec);
    service.handle(&Request::Step {
        session: session.clone(),
        configs: vec![eval_config()],
    });
    service.handle(&Request::Join {
        session: session.clone(),
    });
    let censored = match service.handle(&Request::Status {
        session: session.clone(),
    }) {
        Response::Status(s) => s.censored,
        other => panic!("status failed: {other:?}"),
    };
    assert_eq!(censored, 1, "a 100% kill plan with no retries must censor");

    // Exactly one fault dump for this session, readable and checksummed.
    let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("flightrec dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().contains("-fault-"))
        .collect();
    assert_eq!(
        dumps.len(),
        1,
        "one censored eval, one fault dump: {dumps:?}"
    );
    let dump = read_dump(&dumps[0]).expect("dump parses and verifies");
    assert_eq!(dump.session, session);
    assert_eq!(dump.reason, "fault");
    assert_eq!(dump.dropped, 0);

    // The evaluate span anchors the trace: find it, then demand every
    // stage of the same request shares its trace id.
    let eval_span = dump
        .events
        .iter()
        .find_map(|e| match e {
            FlightEvent::Span(s) if s.name == "serve.evaluate" => Some(s),
            _ => None,
        })
        .expect("evaluate span in ring");
    let trace = eval_span.trace.expect("evaluate span carries a trace id");
    assert!(trace != 0);
    assert!(
        eval_span
            .fields
            .iter()
            .any(|(k, v)| k == "aborted" && *v == FieldValue::Bool(true)),
        "evaluate span flags the abort: {eval_span:?}"
    );
    assert!(
        eval_span.fields.iter().any(|(k, _)| k == "abort_cause"),
        "evaluate span names the cause: {eval_span:?}"
    );

    let protocol_event = |name: &str| {
        dump.events.iter().find_map(|e| match e {
            FlightEvent::Protocol {
                trace,
                event,
                detail,
                at_us,
            } if event == name => Some((*trace, detail.clone(), *at_us)),
            _ => None,
        })
    };
    // Accept: the protocol event recorded when the step request entered
    // the handler, strictly before admission enqueued the work.
    let (step_trace, _, accepted_us) = protocol_event("request.step").expect("step in ring");
    assert_eq!(step_trace, trace, "request accept shares the trace");
    let (abort_trace, cause, abort_us) = protocol_event("abort").expect("abort event in ring");
    assert_eq!(abort_trace, trace, "abort shares the trace");
    assert!(!cause.is_empty(), "abort detail names the cause");

    // Queue: the back-dated wait span the worker recorded when it
    // dequeued the item, on the same trace.
    let wait_span = dump
        .events
        .iter()
        .find_map(|e| match e {
            FlightEvent::Span(s) if s.name == "serve.queue_wait" && s.trace == Some(trace) => {
                Some(s)
            }
            _ => None,
        })
        .expect("queue-wait span shares the trace");
    let ordered = accepted_us <= wait_span.start_us
        && wait_span.start_us <= eval_span.start_us
        && wait_span.end_us <= eval_span.end_us
        && eval_span.end_us <= abort_us;
    assert!(
        ordered,
        "accept -> queue -> evaluate -> abort order on the Obs clock"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_scrape_reconciles_exactly_when_quiescent() {
    let service = Service::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Obs::enabled(),
    );
    let session = create(&service, SessionSpec::named("WordCount", 11));
    service.handle(&Request::StepAuto {
        session: session.clone(),
        evals: 4,
    });
    service.handle(&Request::Join { session });
    let (snapshot, expo) = match service.handle(&Request::Metrics) {
        Response::Metrics { snapshot, expo } => (snapshot, expo),
        other => panic!("metrics failed: {other:?}"),
    };
    // The text half parses back to exactly the structured half.
    assert_eq!(
        relm_obs::parse_prometheus(&expo).expect("own exposition parses"),
        snapshot
    );
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} in snapshot"))
    };
    assert_eq!(counter("serve.evaluations"), 4.0);
    assert_eq!(counter("serve.slo.evaluations"), 4.0);
    let hist = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "serve.evaluate_ms")
        .expect("evaluate histogram");
    assert_eq!(hist.count, 4);
}

#[test]
fn trace_endpoint_exposes_the_ring_in_process() {
    let service = Service::start(ServeConfig::default(), Obs::enabled());
    let session = create(&service, SessionSpec::named("SortByKey", 5));
    service.handle(&Request::StepAuto {
        session: session.clone(),
        evals: 2,
    });
    service.handle(&Request::Join {
        session: session.clone(),
    });
    match service.handle(&Request::Trace {
        session: session.clone(),
    }) {
        Response::Trace {
            session: s,
            dropped,
            events,
        } => {
            assert_eq!(s, session);
            assert_eq!(dropped, 0);
            let evals = events
                .iter()
                .filter(|e| matches!(e, FlightEvent::Span(sp) if sp.name == "serve.evaluate"))
                .count();
            assert_eq!(evals, 2, "both evaluations mirrored into the ring");
            // Every recorded event belongs to *some* trace.
            for e in &events {
                match e {
                    FlightEvent::Protocol { trace, .. } => assert_ne!(*trace, 0),
                    FlightEvent::Span(sp) => assert!(sp.trace.is_some(), "{sp:?}"),
                }
            }
        }
        other => panic!("trace failed: {other:?}"),
    }
    // Unknown sessions are an error, not an empty ring.
    assert!(matches!(
        service.handle(&Request::Trace {
            session: "nope".into()
        }),
        Response::Error { .. }
    ));
}

/// The session's flight ring and the service's span ring share one record
/// per mirrored span: each span in an in-process `Trace` reply is held by
/// the reply, the flight ring and the span ring, and by nothing else.
#[test]
fn flight_ring_shares_each_span_with_the_span_ring() {
    let service = Service::start(ServeConfig::default(), Obs::enabled());
    let session = create(&service, SessionSpec::named("KMeans", 3));
    service.handle(&Request::StepAuto {
        session: session.clone(),
        evals: 2,
    });
    service.handle(&Request::Join {
        session: session.clone(),
    });
    let Response::Trace { events, .. } = service.handle(&Request::Trace { session }) else {
        panic!("trace failed");
    };
    let spans: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            FlightEvent::Span(record) => Some(record),
            FlightEvent::Protocol { .. } => None,
        })
        .collect();
    assert_eq!(
        spans.iter().filter(|s| s.name == "serve.evaluate").count(),
        2
    );
    for record in spans {
        assert_eq!(Arc::strong_count(record), 3, "{record:?}");
    }
}

#[test]
fn explicit_dump_round_trips_through_disk() {
    let dir = temp_dir("dump");
    let service = Service::start(
        ServeConfig {
            flightrec_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
        Obs::enabled(),
    );
    let session = create(&service, SessionSpec::named("K-means", 3));
    service.handle(&Request::StepAuto {
        session: session.clone(),
        evals: 1,
    });
    service.handle(&Request::Join {
        session: session.clone(),
    });
    let (path, events) = match service.handle(&Request::Dump {
        session: session.clone(),
    }) {
        Response::Dumped { path, events, .. } => (path, events),
        other => panic!("dump failed: {other:?}"),
    };
    let dump = read_dump(path.as_ref() as &std::path::Path).expect("explicit dump parses");
    assert_eq!(dump.session, session);
    assert_eq!(dump.reason, "request");
    assert_eq!(dump.events.len(), events);
    assert!(!dump.events.is_empty());
    std::fs::remove_dir_all(&dir).ok();

    // Without a configured directory, Dump is a clean protocol error.
    let bare = Service::start(ServeConfig::default(), Obs::enabled());
    let s2 = create(&bare, SessionSpec::named("K-means", 3));
    assert!(matches!(
        bare.handle(&Request::Dump { session: s2 }),
        Response::Error { .. }
    ));
}

#[test]
fn status_attributes_cost_and_cache_hits_per_session() {
    let service = Service::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Obs::enabled(),
    );
    let run = |seed_tag: &str| {
        let session = create(&service, SessionSpec::named("WordCount", 99).with_cache());
        service.handle(&Request::StepAuto {
            session: session.clone(),
            evals: 3,
        });
        service.handle(&Request::Join {
            session: session.clone(),
        });
        match service.handle(&Request::Status {
            session: session.clone(),
        }) {
            Response::Status(s) => s,
            other => panic!("status {seed_tag} failed: {other:?}"),
        }
    };
    let cold = run("cold");
    assert_eq!(cold.completed, 3);
    assert_eq!(cold.evalcache_hits, 0, "first run populates the cache");
    assert!(
        cold.stress_time_ms > 0.0,
        "simulated stress time accrues: {cold:?}"
    );
    assert!(cold.queue_wait_ms >= 0.0);

    // Identical spec, shared service cache: every evaluation replays.
    let warm = run("warm");
    assert_eq!(warm.completed, 3);
    assert_eq!(
        warm.evalcache_hits, 3,
        "identical session replays every evaluation from the cache: {warm:?}"
    );
}
