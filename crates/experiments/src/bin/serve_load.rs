//! Load generator for `relm-serve`: drives a fleet of concurrent tuning
//! sessions over the TCP frontend and verifies the service's headline
//! guarantees end to end.
//!
//! ```text
//! serve_load [--workers N] [--sessions N] [--steps N] [--guided N]
//!            [--clients N] [--out PATH] [--checkpoint-dir PATH]
//!            [--scrape] [--flightrec-dir PATH]
//!            [--fleet N] [--fleet-kill K]
//!            [--soak] [--evict-after N]
//!            [--slo-p99-ms F] [--metrics-out PATH]
//! ```
//!
//! `--soak` switches to an overload-and-recover schedule that exercises
//! the heavy-traffic hardening end to end: clients run three barrier-
//! separated phases — (A) drive the first half of the sessions to
//! completion, (B) flood the second half so the evaluation-count epoch
//! clock advances far enough that every phase-A session is evicted to
//! its checkpoint in `--checkpoint-dir` (`--evict-after` epochs idle),
//! then (C) collect `Result` for *every* session, transparently resuming
//! the evicted ones. Sessions cycle priority classes (normal/high/low by
//! index), so graduated admission pushes the low class back first while
//! the deficit-weighted scheduler keeps high-priority work moving. The run
//! then reconciles exactly: zero lost sessions, `evictions == resumes >=
//! sessions/2`, drain tallies equal to the `serve.evictions` /
//! `serve.resumes` counters, per-class rejection counters summing to
//! `serve.rejected.overloaded`, and (with `--slo-p99-ms`) the
//! `serve.slo.latency_p99_ms` gauge within bound. The JSONL stays
//! byte-identical to a plain run of the same `--sessions`/`--steps`:
//! eviction and resume never touch simulated history.
//!
//! `--fleet N` switches the service into fleet mode
//! ([`relm_serve::Execution::External`]): no in-process evaluation pool;
//! instead a [`relm_fleet::Center`] farms every evaluation to N worker
//! loops and commits their outcomes through the cache-replay path.
//! `--fleet-kill K` arms K of those workers to crash silently right
//! after acking their first task — the monitor detects the silence,
//! reassigns, and the run must still reconcile exactly: the JSONL output
//! stays **byte-identical** to a plain `--workers` run, the drain
//! tally's `reassignments` equals K and agrees with the
//! `fleet.reassignments` counter, and every admitted evaluation commits
//! through exactly one door.
//!
//! `--scrape` starts a scraper thread that hammers the `Metrics` endpoint
//! over its own TCP connection for the whole run and verifies every
//! response is internally consistent *mid-load*: the Prometheus text
//! parses back to exactly the structured snapshot it shipped with,
//! counters never move backwards between scrapes, and the
//! scrape-ordering invariants hold (`serve.slo.evaluations >=
//! serve.evaluations`, evaluate-histogram count `>= serve.evaluations`).
//! After the drain, one final scrape must reconcile **exactly** against
//! the drain report. `--flightrec-dir` enables the flight recorder; the
//! binary then checks the drain froze one readable dump per session.
//!
//! `--guided N` appends N GP-proposed evaluations per session after the
//! sampled bootstrap (`StepGuided`): the client joins the session so the
//! history is settled, then asks the server to propose. Guided proposals
//! are a pure function of the settled history, so the output file stays
//! byte-identical across `--workers` / `--clients` — now exercising the
//! surrogate hot path end to end.
//!
//! Each session's spec is a pure function of its index (workload cycles
//! through the benchmark suite, seeds derive from the index, every third
//! session runs under a seeded fault plan), so the exported histories are
//! too: the JSONL written to `--out` contains only simulated quantities,
//! keyed and sorted by session index, and is **byte-identical** for any
//! `--workers` / `--clients` values. `scripts/check.sh` runs this binary
//! with 1 worker and 8 workers and diffs the outputs.
//!
//! Before exiting, the binary drains the service and reconciles the
//! books: every admitted evaluation completed exactly once, every session
//! was checkpointed, and the observability counters agree with the
//! protocol-level tallies. Any mismatch aborts the process. Wall-clock
//! throughput and latency quantiles go to stdout only.

use relm_experiments::results_dir;
use relm_faults::{FaultConfig, WorkerFaultConfig, WorkerFaultPlan};
use relm_fleet::{run_worker, Center, MonitorConfig, WorkerConfig, WorkerExit, WorkerReport};
use relm_obs::{parse_prometheus, read_dump, MetricsSnapshot, Obs};
use relm_serve::{
    Execution, Priority, Request, Response, ServeConfig, Service, SessionSpec, TcpClient, TcpServer,
};
use relm_tune::Observation;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const WORKLOADS: [&str; 5] = ["WordCount", "SortByKey", "K-means", "SVM", "PageRank"];

/// One session's exported history — simulated quantities only, keyed by
/// the spec index so the file is independent of scheduling.
#[derive(Debug, Serialize, Deserialize)]
struct SessionRecord {
    index: u64,
    workload: String,
    faulty: bool,
    evaluations: usize,
    censored: usize,
    best_score_mins: f64,
    history: Vec<Observation>,
}

/// The session spec for fleet index `i` — a pure function of `i`.
/// Priority cycles through the classes (the faulty `i % 3 == 0` sessions
/// land in the normal class), so every run exercises the deficit-weighted
/// scheduler and graduated admission without touching simulated history.
fn spec_for(i: u64) -> SessionSpec {
    let priority = match i % 3 {
        0 => Priority::Normal,
        1 => Priority::High,
        _ => Priority::Low,
    };
    let mut spec =
        SessionSpec::named(WORKLOADS[(i % 5) as usize], 9000 + 23 * i).with_priority(priority);
    if i.is_multiple_of(3) {
        spec = spec.with_faults(400 + i, FaultConfig::uniform(0.08));
    }
    spec
}

struct Args {
    workers: usize,
    sessions: u64,
    steps: u32,
    guided: u32,
    clients: usize,
    out: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    scrape: bool,
    flightrec_dir: Option<PathBuf>,
    fleet: usize,
    fleet_kill: usize,
    soak: bool,
    evict_after: usize,
    slo_p99_ms: f64,
    metrics_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: 4,
        sessions: 16,
        steps: 4,
        guided: 0,
        clients: 4,
        out: None,
        checkpoint_dir: None,
        scrape: false,
        flightrec_dir: None,
        fleet: 0,
        fleet_kill: 0,
        soak: false,
        evict_after: 0,
        slo_p99_ms: 0.0,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--workers" => args.workers = value().parse().expect("--workers"),
            "--sessions" => args.sessions = value().parse().expect("--sessions"),
            "--steps" => args.steps = value().parse().expect("--steps"),
            "--guided" => args.guided = value().parse().expect("--guided"),
            "--clients" => args.clients = value().parse().expect("--clients"),
            "--out" => args.out = Some(PathBuf::from(value())),
            "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(value())),
            "--scrape" => args.scrape = true,
            "--flightrec-dir" => args.flightrec_dir = Some(PathBuf::from(value())),
            "--fleet" => args.fleet = value().parse().expect("--fleet"),
            "--fleet-kill" => args.fleet_kill = value().parse().expect("--fleet-kill"),
            "--soak" => args.soak = true,
            "--evict-after" => args.evict_after = value().parse().expect("--evict-after"),
            "--slo-p99-ms" => args.slo_p99_ms = value().parse().expect("--slo-p99-ms"),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value())),
            other => panic!("unknown flag {other}"),
        }
    }
    args.clients = args.clients.clamp(1, args.sessions.max(1) as usize);
    assert!(
        args.guided == 0 || args.steps >= 4,
        "--guided needs a bootstrap of at least 4 steps"
    );
    assert!(
        args.fleet_kill == 0 || args.fleet_kill < args.fleet,
        "--fleet-kill needs at least one surviving worker (--fleet > K)"
    );
    if args.soak {
        assert!(args.guided == 0, "--soak drives sampled steps only");
        assert!(args.fleet == 0, "--soak uses the in-process pool");
        assert!(args.sessions >= 4, "--soak needs at least 4 sessions");
        assert!(
            args.evict_after > 0,
            "--soak needs --evict-after (the idle epoch window)"
        );
        assert!(
            args.checkpoint_dir.is_some(),
            "--soak needs --checkpoint-dir for eviction checkpoints"
        );
        // Phase B must advance the epoch clock past the idle window for
        // every phase-A session, or the eviction guarantee goes soft.
        let phase_b_evals = (args.sessions - args.sessions / 2) as usize * args.steps as usize;
        assert!(
            args.evict_after <= phase_b_evals,
            "--evict-after {} exceeds the phase-B epoch budget {phase_b_evals}",
            args.evict_after
        );
    }
    args
}

/// One client thread: drives every fleet index congruent to `client` over
/// its own TCP connection, returns the per-session records.
fn drive_client(
    addr: std::net::SocketAddr,
    client: usize,
    clients: usize,
    sessions: u64,
    steps: u32,
    guided: u32,
    fleet: bool,
) -> Vec<SessionRecord> {
    let mut conn = TcpClient::connect(addr).expect("connect load client");
    let mut records = Vec::new();
    for index in (client as u64..sessions).step_by(clients) {
        let spec = spec_for(index);
        let name = match conn
            .request(&Request::CreateSession { spec: spec.clone() })
            .expect("create request")
        {
            Response::SessionCreated { session } => session,
            other => panic!("create rejected: {other:?}"),
        };
        // Admission control may push back under a small global queue;
        // back off and retry until the batch is accepted whole.
        loop {
            match conn
                .request(&Request::StepAuto {
                    session: name.clone(),
                    evals: steps,
                })
                .expect("step request")
            {
                Response::Accepted { enqueued, .. } => {
                    assert_eq!(enqueued, steps as usize);
                    break;
                }
                Response::Overloaded { .. } => {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                other => panic!("step rejected: {other:?}"),
            }
        }
        if guided > 0 {
            // Settle the bootstrap, then ask the server to propose. A
            // rejected guided batch never advances the proposal stream, so
            // the retry loop cannot skew the history.
            match conn
                .request(&Request::Join {
                    session: name.clone(),
                })
                .expect("join request")
            {
                Response::Status(_) => {}
                other => panic!("join rejected: {other:?}"),
            }
            loop {
                match conn
                    .request(&Request::StepGuided {
                        session: name.clone(),
                        evals: guided,
                    })
                    .expect("guided step request")
                {
                    Response::Accepted { enqueued, .. } => {
                        assert_eq!(enqueued, guided as usize);
                        break;
                    }
                    Response::Overloaded { .. } => {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    other => panic!("guided step rejected: {other:?}"),
                }
            }
        }
        match conn
            .request(&Request::Result {
                session: name.clone(),
            })
            .expect("result request")
        {
            Response::ResultReady { history, .. } => {
                assert_eq!(
                    history.len(),
                    (steps + guided) as usize,
                    "lost evaluations on {name}"
                );
                records.push(SessionRecord {
                    index,
                    workload: spec.workload.clone(),
                    faulty: spec.faults.is_some(),
                    evaluations: history.len(),
                    censored: history.iter().filter(|o| o.is_censored()).count(),
                    best_score_mins: history
                        .iter()
                        .map(|o| o.score_mins)
                        .fold(f64::INFINITY, f64::min),
                    history,
                });
            }
            other => panic!("result rejected: {other:?}"),
        }
        // Live cost attribution must agree with the settled history: the
        // session did real (simulated) work, waited a non-negative time
        // in queue, and — with no cache configured — replayed nothing.
        match conn
            .request(&Request::Status {
                session: name.clone(),
            })
            .expect("status request")
        {
            Response::Status(status) => {
                let record = records.last().expect("status follows result");
                assert_eq!(status.completed, record.evaluations, "status drift");
                assert_eq!(status.censored, record.censored, "censoring drift");
                assert!(
                    status.stress_time_ms > 0.0,
                    "stress time must accrue: {status:?}"
                );
                assert!(status.queue_wait_ms >= 0.0);
                if fleet {
                    // Fleet commits replay remote outcomes through the
                    // shared cache, so every completion is a hit.
                    assert_eq!(
                        status.evalcache_hits, status.completed as u64,
                        "fleet commits all replay through the cache"
                    );
                } else {
                    assert_eq!(status.evalcache_hits, 0, "no cache configured");
                }
            }
            other => panic!("status rejected: {other:?}"),
        }
    }
    records
}

/// Creates session `index`, drives its sampled steps through admission
/// pushback, and joins it idle. Returns the session's wire name.
fn create_and_settle(conn: &mut TcpClient, index: u64, steps: u32) -> String {
    let spec = spec_for(index);
    let name = match conn
        .request(&Request::CreateSession { spec })
        .expect("create request")
    {
        Response::SessionCreated { session } => session,
        other => panic!("create rejected: {other:?}"),
    };
    // Graduated admission pushes the low class back well before the
    // global bound; retry until the batch lands whole.
    loop {
        match conn
            .request(&Request::StepAuto {
                session: name.clone(),
                evals: steps,
            })
            .expect("step request")
        {
            Response::Accepted { enqueued, .. } => {
                assert_eq!(enqueued, steps as usize);
                break;
            }
            Response::Overloaded { .. } => {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            other => panic!("step rejected: {other:?}"),
        }
    }
    match conn
        .request(&Request::Join {
            session: name.clone(),
        })
        .expect("join request")
    {
        Response::Status(status) => assert_eq!(status.completed, steps as usize),
        other => panic!("join rejected: {other:?}"),
    }
    name
}

/// One soak client: phase A settles the first half of its sessions, phase
/// B floods the second half (advancing the epoch clock so phase-A
/// sessions evict), phase C collects every result — transparently
/// resuming the evicted sessions. The barriers make the phases global, so
/// the eviction guarantee holds for *all* phase-A sessions, not just this
/// client's.
fn drive_soak_client(
    addr: std::net::SocketAddr,
    client: usize,
    clients: usize,
    sessions: u64,
    steps: u32,
    barrier: &Barrier,
) -> Vec<SessionRecord> {
    let mut conn = TcpClient::connect(addr).expect("connect soak client");
    let half = sessions / 2;
    let own = |lo: u64, hi: u64| (lo..hi).filter(move |i| *i % clients as u64 == client as u64);
    let mut names: Vec<(u64, String)> = Vec::new();
    for index in own(0, half) {
        names.push((index, create_and_settle(&mut conn, index, steps)));
    }
    barrier.wait();
    for index in own(half, sessions) {
        names.push((index, create_and_settle(&mut conn, index, steps)));
    }
    barrier.wait();
    let mut records = Vec::new();
    for (index, name) in names {
        let spec = spec_for(index);
        match conn
            .request(&Request::Result {
                session: name.clone(),
            })
            .expect("result request")
        {
            Response::ResultReady { history, .. } => {
                assert_eq!(history.len(), steps as usize, "lost evaluations on {name}");
                records.push(SessionRecord {
                    index,
                    workload: spec.workload.clone(),
                    faulty: spec.faults.is_some(),
                    evaluations: history.len(),
                    censored: history.iter().filter(|o| o.is_censored()).count(),
                    best_score_mins: history
                        .iter()
                        .map(|o| o.score_mins)
                        .fold(f64::INFINITY, f64::min),
                    history,
                });
            }
            other => panic!("result rejected: {other:?}"),
        }
        // `Result` resumed the session if it was evicted: the status must
        // show it live again with its full tally intact.
        match conn
            .request(&Request::Status {
                session: name.clone(),
            })
            .expect("status request")
        {
            Response::Status(status) => {
                assert!(!status.evicted, "{name} still evicted after Result");
                assert_eq!(status.completed, steps as usize, "status drift on {name}");
                assert_eq!(status.evalcache_hits, 0, "no cache configured");
                assert!(status.queue_wait_ms >= 0.0);
            }
            other => panic!("status rejected: {other:?}"),
        }
    }
    records
}

fn counter_of(snapshot: &MetricsSnapshot, name: &str) -> Option<f64> {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
}

fn gauge_of(snapshot: &MetricsSnapshot, name: &str) -> Option<f64> {
    snapshot
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
}

/// Scrapes `Metrics` over one response-checked connection, verifying
/// every scrape's internal consistency, until `stop` flips. Returns the
/// scrape count and the eval counter seen on the last scrape.
fn scrape_loop(addr: std::net::SocketAddr, stop: &AtomicBool) -> (usize, f64) {
    let mut conn = TcpClient::connect(addr).expect("connect scraper");
    let mut scrapes = 0usize;
    let mut last_evals = 0.0f64;
    loop {
        let done = stop.load(Ordering::Relaxed);
        let (snapshot, expo) = match conn.request(&Request::Metrics).expect("metrics request") {
            Response::Metrics { snapshot, expo } => (snapshot, expo),
            other => panic!("metrics rejected: {other:?}"),
        };
        // The text half is a faithful projection of the structured half.
        assert_eq!(
            parse_prometheus(&expo).expect("exposition parses"),
            snapshot,
            "Prometheus text diverged from the JSON snapshot"
        );
        let evals = counter_of(&snapshot, "serve.evaluations").unwrap_or(0.0);
        assert!(
            evals >= last_evals,
            "serve.evaluations went backwards: {last_evals} -> {evals}"
        );
        last_evals = evals;
        if evals > 0.0 {
            // Write ordering (histogram, then SLO tracker, then the
            // cumulative counter) + name-sorted read order make these
            // hold in *every* scrape, including mid-evaluation ones.
            let slo = counter_of(&snapshot, "serve.slo.evaluations")
                .expect("slo counter present once evals ran");
            assert!(slo >= evals, "slo counter behind: {slo} < {evals}");
            let hist = snapshot
                .histograms
                .iter()
                .find(|h| h.name == "serve.evaluate_ms")
                .expect("evaluate histogram present once evals ran");
            assert!(hist.count as f64 >= evals, "histogram behind the counter");
        }
        scrapes += 1;
        if done {
            return (scrapes, last_evals);
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

fn main() {
    let args = parse_args();
    let obs = Obs::enabled();
    let service = Arc::new(Service::start(
        ServeConfig {
            workers: args.workers,
            execution: if args.fleet > 0 {
                Execution::External
            } else {
                Execution::InProcess
            },
            max_sessions: args.sessions as usize,
            session_queue_limit: args.steps.max(args.guided) as usize,
            global_queue_limit: (args.steps as usize) * (args.sessions as usize).min(64),
            checkpoint_dir: args.checkpoint_dir.clone(),
            evict_after_evals: args.evict_after,
            flightrec_dir: args.flightrec_dir.clone(),
            ..ServeConfig::default()
        },
        obs.clone(),
    ));
    // Fleet mode: a center routes every evaluation to in-process worker
    // loops (same loop the fleet_worker binary runs, minus the socket).
    // The death timeout (500ms) is far above any legitimate in-process
    // stall, so the only deaths are the K armed kills — which keeps
    // `fleet.reassignments` deterministic.
    let center = (args.fleet > 0).then(|| {
        Center::start(
            Arc::clone(&service),
            MonitorConfig {
                heartbeat_ms: 20,
                missed_threshold: 25,
            },
        )
    });
    let fleet_stop = Arc::new(AtomicBool::new(false));
    let mut fleet_threads = Vec::new();
    // Armed workers start first: each acks one task and dies silently.
    for k in 0..args.fleet_kill {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&fleet_stop);
        fleet_threads.push(std::thread::spawn(move || {
            let config = WorkerConfig::named(format!("lw-kill-{k}"))
                .with_faults(WorkerFaultPlan::new(
                    7000 + k as u64,
                    WorkerFaultConfig {
                        kill_rate: 1.0,
                        ..WorkerFaultConfig::off()
                    },
                ))
                .with_heartbeat_ms(10);
            run_worker(|req| Ok(service.handle(req)), &config, &stop)
        }));
    }
    let server = TcpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind frontend");
    let addr = server.addr();

    // The concurrent scraper: proves the metrics plane is consistent
    // *while* the load runs, not just at the end.
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper = args.scrape.then(|| {
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || scrape_loop(addr, &stop))
    });

    let started = Instant::now();
    let phase_barrier = Arc::new(Barrier::new(args.clients));
    let threads: Vec<_> = (0..args.clients)
        .map(|c| {
            let (clients, sessions, steps, guided, fleet) = (
                args.clients,
                args.sessions,
                args.steps,
                args.guided,
                args.fleet > 0,
            );
            let barrier = Arc::clone(&phase_barrier);
            let soak = args.soak;
            std::thread::spawn(move || {
                if soak {
                    drive_soak_client(addr, c, clients, sessions, steps, &barrier)
                } else {
                    drive_client(addr, c, clients, sessions, steps, guided, fleet)
                }
            })
        })
        .collect();
    if args.fleet > 0 {
        // With kills armed, hold the survivors back until every armed
        // worker has taken a task, died, and been detected — so each kill
        // contributes exactly one reassignment and none goes hungry.
        if args.fleet_kill > 0 {
            let deadline = Instant::now() + std::time::Duration::from_secs(30);
            while obs.counter_value("fleet.reassignments") < args.fleet_kill as f64 {
                assert!(
                    Instant::now() < deadline,
                    "armed workers never died: reassignments={}",
                    obs.counter_value("fleet.reassignments")
                );
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        for w in 0..args.fleet - args.fleet_kill {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&fleet_stop);
            fleet_threads.push(std::thread::spawn(move || {
                run_worker(
                    |req| Ok(service.handle(req)),
                    &WorkerConfig::named(format!("lw-{w}")).with_heartbeat_ms(10),
                    &stop,
                )
            }));
        }
    }
    let mut records: Vec<SessionRecord> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread panicked"))
        .collect();
    records.sort_by_key(|r| r.index);
    let elapsed = started.elapsed().as_secs_f64();

    // Every client got its Result, so every evaluation is committed: the
    // fleet can retire before the drain (an empty fleet also proves the
    // drain needs no workers to run reassignment limbo dry).
    fleet_stop.store(true, Ordering::Relaxed);
    let fleet_reports: Vec<WorkerReport> = fleet_threads
        .into_iter()
        .map(|t| t.join().expect("fleet worker thread panicked"))
        .collect();

    // Graceful shutdown: every session checkpointed, nothing in flight.
    let mut admin = TcpClient::connect(addr).expect("connect admin client");
    let drained = match admin.request(&Request::Drain).expect("drain request") {
        Response::Drained {
            sessions,
            evaluations,
            checkpointed,
            flight_dumped,
            reassignments,
            evictions,
            resumes,
        } => (
            sessions,
            evaluations,
            checkpointed,
            flight_dumped,
            reassignments,
            evictions,
            resumes,
        ),
        other => panic!("drain rejected: {other:?}"),
    };
    let (
        drained_sessions,
        drained_evals,
        checkpointed,
        flight_dumped,
        drained_reassignments,
        drained_evictions,
        drained_resumes,
    ) = drained;
    scrape_stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.map(|t| t.join().expect("scraper panicked"));

    // Reconciliation: the protocol-level tallies, the drain report, and
    // the observability counters must all agree exactly.
    let expected_evals = args.sessions as usize * (args.steps + args.guided) as usize;
    assert_eq!(records.len(), args.sessions as usize, "lost sessions");
    assert_eq!(drained_sessions, args.sessions as usize, "lost sessions");
    assert_eq!(drained_evals, expected_evals, "lost/duplicated evaluations");
    assert_eq!(
        obs.counter_value("serve.evaluations"),
        expected_evals as f64
    );
    assert_eq!(
        obs.counter_value("serve.sessions.created"),
        args.sessions as f64
    );
    if args.checkpoint_dir.is_some() {
        assert_eq!(checkpointed, args.sessions as usize, "missing checkpoints");
    }

    // Eviction reconciliation: the drain tallies must equal the
    // observability counters exactly, in every mode (both are zero when
    // eviction is off).
    assert_eq!(
        drained_evictions as f64,
        obs.counter_value("serve.evictions"),
        "drain tally and eviction counter disagree"
    );
    assert_eq!(
        drained_resumes as f64,
        obs.counter_value("serve.resumes"),
        "drain tally and resume counter disagree"
    );
    assert_eq!(obs.counter_value("serve.evict_errors"), 0.0);
    assert_eq!(obs.counter_value("serve.resume_errors"), 0.0);
    // Every admission rejection lands in exactly one priority class.
    let class_rejections: f64 = ["low", "normal", "high"]
        .iter()
        .map(|c| obs.counter_value(&format!("serve.rejected.overloaded.class.{c}")))
        .sum();
    assert_eq!(
        class_rejections,
        obs.counter_value("serve.rejected.overloaded"),
        "per-class rejection counters don't sum to the global one"
    );
    if args.soak {
        // Every phase-A session went idle long enough to evict, and every
        // eviction was matched by exactly one transparent resume (phase C
        // collected all results, so nothing stays checkpointed out).
        let half = (args.sessions / 2) as usize;
        assert!(
            drained_evictions >= half,
            "only {drained_evictions} evictions; every phase-A session ({half}) must evict"
        );
        assert!(
            drained_evictions <= args.sessions as usize,
            "more evictions than sessions"
        );
        assert_eq!(
            drained_evictions, drained_resumes,
            "evictions and resumes must pair up"
        );
    } else if args.evict_after == 0 {
        assert_eq!(drained_evictions, 0, "evictions without an eviction window");
        assert_eq!(drained_resumes, 0, "resumes without an eviction window");
    }

    // Fleet reconciliation: the drain tally, the counter, and the armed
    // kill count must all agree, every armed worker died without
    // evaluating, the survivors did all the work, and every admitted
    // evaluation committed through exactly one door.
    assert_eq!(
        drained_reassignments as f64,
        obs.counter_value("fleet.reassignments"),
        "drain tally and reassignment counter disagree"
    );
    if args.fleet > 0 {
        assert_eq!(
            drained_reassignments, args.fleet_kill,
            "each armed kill must cause exactly one reassignment"
        );
        for report in &fleet_reports {
            if report.id.starts_with("lw-kill-") {
                assert_eq!(report.exit, WorkerExit::Killed, "{} survived", report.id);
                assert_eq!(
                    report.evaluations, 0,
                    "{} evaluated before dying",
                    report.id
                );
            } else {
                assert_eq!(report.exit, WorkerExit::Stopped, "{} died", report.id);
                assert_eq!(report.deposed, 0, "{} was falsely deposed", report.id);
            }
        }
        let executed: usize = fleet_reports.iter().map(|r| r.evaluations).sum();
        assert_eq!(
            executed, expected_evals,
            "workers executed a different number"
        );
        let commits = obs.counter_value("fleet.tasks_completed")
            + obs.counter_value("fleet.cache_commits")
            + obs.counter_value("fleet.local_commits");
        assert_eq!(
            commits, expected_evals as f64,
            "commit doors don't sum to the admitted total"
        );
    } else {
        assert_eq!(drained_reassignments, 0, "reassignments without a fleet");
    }
    if let Some(center) = &center {
        assert_eq!(center.outstanding(), 0, "tasks left in the table");
    }

    // Final scrape: now that the service is quiescent, the live metrics
    // plane must reconcile *exactly* against the drain report.
    let final_snapshot = match admin.request(&Request::Metrics).expect("final scrape") {
        Response::Metrics { snapshot, expo } => {
            assert_eq!(
                parse_prometheus(&expo).expect("final exposition parses"),
                snapshot
            );
            snapshot
        }
        other => panic!("final scrape rejected: {other:?}"),
    };
    let final_counter = |name: &str| {
        counter_of(&final_snapshot, name)
            .unwrap_or_else(|| panic!("{name} missing from final scrape"))
    };
    assert_eq!(final_counter("serve.evaluations"), drained_evals as f64);
    assert_eq!(
        final_counter("serve.slo.evaluations"),
        drained_evals as f64,
        "SLO tracker out of step with the drain report"
    );
    let final_hist = final_snapshot
        .histograms
        .iter()
        .find(|h| h.name == "serve.evaluate_ms")
        .expect("evaluate histogram in final scrape");
    assert_eq!(final_hist.count as usize, drained_evals);
    if let Some((scrapes, last_seen)) = scrapes {
        assert!(scrapes > 0, "scraper never ran");
        assert_eq!(
            last_seen, drained_evals as f64,
            "scraper's post-drain view disagrees with the drain report"
        );
    }

    // SLO gate: the windowed p99 latency gauge (fed by every completed
    // evaluation, eviction/resume overhead included) must sit inside the
    // configured bound now that the run is quiescent.
    if args.slo_p99_ms > 0.0 {
        let p99 = gauge_of(&final_snapshot, "serve.slo.latency_p99_ms")
            .expect("SLO p99 gauge in final scrape");
        assert!(
            p99 <= args.slo_p99_ms,
            "SLO violated: serve.slo.latency_p99_ms {p99:.3} > {:.3}",
            args.slo_p99_ms
        );
    }

    // The final snapshot to JSON, for the metrics-catalog drift test.
    if let Some(path) = &args.metrics_out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create metrics-out dir");
        }
        let json = serde_json::to_string_pretty(&final_snapshot).expect("snapshot serializes");
        std::fs::write(path, json).expect("write metrics-out");
    }

    // Flight recorder: the drain froze one readable, checksummed dump per
    // session, and the dump counter reconciles with the files on disk.
    if let Some(dir) = &args.flightrec_dir {
        assert_eq!(flight_dumped, args.sessions as usize, "missed drain dumps");
        let dumps: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("flightrec dir")
            .map(|e| e.expect("flightrec entry").path())
            .filter(|p| p.to_string_lossy().ends_with(".flight.json"))
            .collect();
        assert_eq!(
            dumps.len() as f64,
            obs.counter_value("serve.flightrec.dumps"),
            "dump files on disk disagree with the dump counter"
        );
        assert_eq!(obs.counter_value("serve.flightrec.errors"), 0.0);
        let drain_dumps = dumps
            .iter()
            .filter(|p| p.to_string_lossy().contains("-drain-"))
            .count();
        assert_eq!(drain_dumps, args.sessions as usize, "one drain dump each");
        for path in &dumps {
            let dump = read_dump(path).expect("every dump parses and verifies");
            assert!(!dump.events.is_empty(), "empty flight dump {path:?}");
        }
    } else {
        assert_eq!(flight_dumped, 0, "dumps without a flightrec dir");
    }

    // Histories to JSONL — deterministic, wall-clock free.
    let out = match &args.out {
        Some(path) => path.clone(),
        None => results_dir().expect("results dir").join("serve_load.jsonl"),
    };
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("create output dir");
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(&out).expect("create output"));
    for record in &records {
        let line = serde_json::to_string(record).expect("record serializes");
        writeln!(file, "{line}").expect("write record");
    }
    file.flush().expect("flush output");

    // Wall-clock numbers go to stdout only.
    let q = |p: f64| {
        obs.histogram_quantile("serve.evaluate_ms", p)
            .unwrap_or(0.0)
    };
    println!(
        "serve_load: {} sessions x {}+{} evals on {} workers / {} clients in {:.2}s ({:.0} evals/s)",
        args.sessions,
        args.steps,
        args.guided,
        args.workers,
        args.clients,
        elapsed,
        expected_evals as f64 / elapsed.max(1e-9),
    );
    println!(
        "serve.evaluate_ms: p50={:.3} p95={:.3} p99={:.3}",
        q(0.50),
        q(0.95),
        q(0.99)
    );
    println!(
        "rejected: overloaded={} malformed={} oversized={}",
        obs.counter_value("serve.rejected.overloaded"),
        obs.counter_value("serve.rejected.malformed"),
        obs.counter_value("serve.rejected.oversized"),
    );
    if args.soak {
        println!(
            "soak: evictions={drained_evictions} resumes={drained_resumes} \
             pushback: low={} normal={} high={} slo_p99_ms={:.3}",
            obs.counter_value("serve.rejected.overloaded.class.low"),
            obs.counter_value("serve.rejected.overloaded.class.normal"),
            obs.counter_value("serve.rejected.overloaded.class.high"),
            gauge_of(&final_snapshot, "serve.slo.latency_p99_ms").unwrap_or(0.0),
        );
    }
    if let Some(center) = center {
        println!(
            "fleet: {} workers ({} armed to die), reassignments={}, \
             commits: remote={} cache={} local={}, heartbeats_missed={}",
            args.fleet,
            args.fleet_kill,
            drained_reassignments,
            obs.counter_value("fleet.tasks_completed"),
            obs.counter_value("fleet.cache_commits"),
            obs.counter_value("fleet.local_commits"),
            obs.counter_value("fleet.heartbeats_missed"),
        );
        center.stop();
    }
    if let Some((scrapes, _)) = scrapes {
        println!(
            "scraper: {scrapes} consistent scrapes, flight dumps: {} ({} on drain)",
            obs.counter_value("serve.flightrec.dumps"),
            flight_dumped,
        );
    }
    println!("wrote {}", out.display());
}
