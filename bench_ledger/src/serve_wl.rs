//! `serve_cold` and `serve_replay`: tuning sessions driven over the TCP
//! frontend by a closed loop of client threads, one connection each.
//!
//! Every session runs the same protocol: `CreateSession`, `StepAuto{4}` +
//! `Join` as the bootstrap, 20 × (`StepGuided{1}` + `Join`), then `Result`
//! and `Status`. Sessions opt into the shared evaluation cache. The cold
//! workload gives every session a fresh spec, so every evaluation misses
//! and inserts; the replay workload first runs the first `PREFIX` specs
//! once during set-up, then cycles through them, so every timed evaluation
//! replays from the cache. Both end with a `Drain` into a per-run
//! checkpoint directory.

use crate::layers::{obs_overhead, tune_self_us, LayerRows};
use crate::probes::{self, EnvMode, ProbeSession};
use crate::util::{
    block_median, dir_bytes, geomean, mean, median, micros, mix, peak_rss_mb, per_app_quality,
    quantile, write_spans, Fnv, Span, SpanLog, BLOCKS,
};
use crate::{Opts, Report};
use relm_faults::FaultConfig;
use relm_obs::{MetricsSnapshot, Obs};
use relm_serve::{
    decode, encode, resolve_workload, Priority, Request, Response, ServeConfig, Service,
    SessionSpec, TcpClient, TcpServer, DEFAULT_MAX_FRAME_BYTES,
};
use relm_tune::Observation;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const APPS: [&str; 5] = ["WordCount", "SortByKey", "K-means", "SVM", "PageRank"];
const BOOTSTRAP: u32 = 4;
const GUIDED: u32 = 20;
const EVALS: usize = (BOOTSTRAP + GUIDED) as usize;
/// Sessions every run completes whatever the clock says: the quality
/// metrics and the history hash cover exactly these, and `serve_replay`
/// cycles through their specs.
pub const PREFIX: u64 = 15;
const SETUP_REPS: usize = 3;
/// Sessions after which `peak_rss_mb` is read: a fixed amount of work, so
/// a faster build that completes more sessions in the same time does not
/// read as a memory regression.
const MEMORY_QUOTA: u64 = 3 * PREFIX;
const FAULT_STREAM: u64 = 0xFA17;
const WARM_STREAM: u64 = 0x3A53;

/// The spec of session `i` — a pure function of the run seed and `i`.
/// Apps cycle through the suite, every third session runs under an 8%
/// uniform fault plan, and priorities cycle through the classes, as in
/// `serve_load`.
fn spec_for(seed: u64, i: u64) -> SessionSpec {
    let priority = match i % 3 {
        0 => Priority::Normal,
        1 => Priority::High,
        _ => Priority::Low,
    };
    let app = APPS[((i + seed) % APPS.len() as u64) as usize];
    let mut spec = SessionSpec::named(app, mix(seed, i))
        .with_priority(priority)
        .with_cache();
    if i.is_multiple_of(3) {
        spec = spec.with_faults(mix(seed ^ FAULT_STREAM, i), FaultConfig::uniform(0.08));
    }
    spec
}

/// Client-timed endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ep {
    CreateSession,
    StepAuto,
    StepGuided,
    Join,
    Result,
    Status,
    Drain,
    Metrics,
}

impl Ep {
    const TIMED: [Ep; 7] = [
        Ep::CreateSession,
        Ep::StepAuto,
        Ep::StepGuided,
        Ep::Join,
        Ep::Result,
        Ep::Status,
        Ep::Drain,
    ];

    fn name(self) -> &'static str {
        match self {
            Ep::CreateSession => "create_session",
            Ep::StepAuto => "step_auto",
            Ep::StepGuided => "step_guided",
            Ep::Join => "join",
            Ep::Result => "result",
            Ep::Status => "status",
            Ep::Drain => "drain",
            Ep::Metrics => "metrics",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Ep::CreateSession => "serve.create_session",
            Ep::StepAuto => "serve.step_auto",
            Ep::StepGuided => "serve.step_guided",
            Ep::Join => "serve.join",
            Ep::Result => "serve.result",
            Ep::Status => "serve.status",
            Ep::Drain => "serve.drain",
            Ep::Metrics => "serve.metrics",
        }
    }
}

/// One connection plus everything measured on it.
struct Client {
    conn: TcpClient,
    rtt_ms: Vec<Vec<f64>>,
    /// Guided-step and session latencies in ms, and completed evaluations,
    /// each stamped with the instant it completed.
    step_ms: Vec<(Instant, f64)>,
    session_ms: Vec<(Instant, f64)>,
    evals_done: Vec<(Instant, f64)>,
    log: SpanLog,
    requests: u64,
    overloaded: u64,
    /// Evaluations the service accepted from this connection.
    admitted: usize,
    created: usize,
    /// Request/response pairs of the kept sessions, for the codec probe.
    frames: Vec<(Request, Response)>,
    keep_frames: bool,
}

impl Client {
    fn connect(addr: std::net::SocketAddr, epoch: Instant, tag: u64) -> Result<Self, String> {
        Ok(Client {
            conn: TcpClient::connect(addr).map_err(|e| format!("connect: {e}"))?,
            rtt_ms: vec![Vec::new(); Ep::Metrics as usize + 1],
            step_ms: Vec::new(),
            session_ms: Vec::new(),
            evals_done: Vec::new(),
            log: SpanLog::new(epoch, tag),
            requests: 0,
            overloaded: 0,
            admitted: 0,
            created: 0,
            frames: Vec::new(),
            keep_frames: false,
        })
    }

    /// Forgets what set-up measured; the timed pass starts from zero.
    fn reset_measurements(&mut self) {
        self.rtt_ms.iter_mut().for_each(Vec::clear);
        self.step_ms.clear();
        self.session_ms.clear();
        self.evals_done.clear();
        self.log.spans.clear();
        self.requests = 0;
        self.overloaded = 0;
    }

    fn call(&mut self, ep: Ep, req: &Request, trace: u64, parent: u64) -> Result<Response, String> {
        let start = Instant::now();
        let resp = self
            .conn
            .request(req)
            .map_err(|e| format!("{} request failed: {e}", ep.name()))?;
        let end = Instant::now();
        self.requests += 1;
        self.rtt_ms[ep as usize].push((end - start).as_secs_f64() * 1e3);
        let id = self.log.open();
        self.log.close(id, parent, trace, ep.span(), start, end);
        if matches!(resp, Response::Overloaded { .. }) {
            self.overloaded += 1;
        }
        if self.keep_frames {
            self.frames.push((req.clone(), resp.clone()));
        }
        Ok(resp)
    }

    /// Sends a step until admission accepts it whole.
    fn admit(
        &mut self,
        ep: Ep,
        req: &Request,
        expect: usize,
        trace: u64,
        parent: u64,
    ) -> Result<(), String> {
        for _ in 0..10_000 {
            match self.call(ep, req, trace, parent)? {
                Response::Accepted { enqueued, .. } if enqueued == expect => {
                    self.admitted += expect;
                    return Ok(());
                }
                Response::Overloaded { .. } => std::thread::sleep(Duration::from_millis(1)),
                other => return Err(format!("{} answered {other:?}", ep.name())),
            }
        }
        Err(format!("{} was never admitted", ep.name()))
    }

    fn join(
        &mut self,
        session: &str,
        completed: usize,
        trace: u64,
        parent: u64,
    ) -> Result<(), String> {
        let req = Request::Join {
            session: session.to_string(),
        };
        match self.call(Ep::Join, &req, trace, parent)? {
            Response::Status(s) if s.completed == completed => Ok(()),
            other => Err(format!(
                "join expected {completed} completed, got {other:?}"
            )),
        }
    }
}

/// What one finished session left behind.
struct SessionRun {
    index: u64,
    spec_index: u64,
    history_json: String,
    history: Vec<Observation>,
    best_clean: f64,
    stress_ms: f64,
    hits: u64,
}

/// Best score over the clean observations (over all when every one was
/// censored) — the recommendation the session would export.
fn best_clean(history: &[Observation]) -> f64 {
    let clean = history
        .iter()
        .filter(|o| !o.is_censored())
        .map(|o| o.score_mins)
        .fold(f64::INFINITY, f64::min);
    if clean.is_finite() {
        clean
    } else {
        history
            .iter()
            .map(|o| o.score_mins)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Drives one session through the whole protocol.
fn drive_session(
    client: &mut Client,
    spec: &SessionSpec,
    index: u64,
    spec_index: u64,
    expect_hits: u64,
) -> Result<SessionRun, String> {
    let trace = index;
    let session_span = client.log.open();
    let started = Instant::now();
    let name = match client.call(
        Ep::CreateSession,
        &Request::CreateSession { spec: spec.clone() },
        trace,
        session_span,
    )? {
        Response::SessionCreated { session } => session,
        other => return Err(format!("create answered {other:?}")),
    };
    client.created += 1;
    let auto = Request::StepAuto {
        session: name.clone(),
        evals: BOOTSTRAP,
    };
    client.admit(Ep::StepAuto, &auto, BOOTSTRAP as usize, trace, session_span)?;
    client.join(&name, BOOTSTRAP as usize, trace, session_span)?;
    client
        .evals_done
        .push((Instant::now(), f64::from(BOOTSTRAP)));
    let guided = Request::StepGuided {
        session: name.clone(),
        evals: 1,
    };
    for g in 1..=GUIDED as usize {
        let step_span = client.log.open();
        let step_started = Instant::now();
        client.admit(Ep::StepGuided, &guided, 1, trace, step_span)?;
        client.join(&name, BOOTSTRAP as usize + g, trace, step_span)?;
        let step_ended = Instant::now();
        client
            .step_ms
            .push((step_ended, (step_ended - step_started).as_secs_f64() * 1e3));
        client.evals_done.push((step_ended, 1.0));
        client.log.close(
            step_span,
            session_span,
            trace,
            "session.step",
            step_started,
            step_ended,
        );
    }
    let result = Request::Result {
        session: name.clone(),
    };
    let history = match client.call(Ep::Result, &result, trace, session_span)? {
        Response::ResultReady { history, .. } => history,
        other => return Err(format!("result answered {other:?}")),
    };
    let ended = Instant::now();
    client
        .session_ms
        .push((ended, (ended - started).as_secs_f64() * 1e3));
    client
        .log
        .close(session_span, 0, trace, "session", started, ended);
    if history.len() != EVALS {
        return Err(format!(
            "{name}: {} evaluations, expected {EVALS}",
            history.len()
        ));
    }
    let status = Request::Status {
        session: name.clone(),
    };
    let (stress_ms, hits) = match client.call(Ep::Status, &status, trace, session_span)? {
        Response::Status(s) => {
            let runtime_ms: f64 = history.iter().map(|o| o.result.runtime.as_ms()).sum();
            if s.completed != EVALS || s.evalcache_hits != expect_hits {
                return Err(format!(
                    "{name}: status completed={} hits={}, expected {EVALS} and {expect_hits}",
                    s.completed, s.evalcache_hits
                ));
            }
            if s.stress_time_ms + 1e-6 < runtime_ms {
                return Err(format!("{name}: stress time below the history's runtimes"));
            }
            (s.stress_time_ms, s.evalcache_hits)
        }
        other => return Err(format!("status answered {other:?}")),
    };
    Ok(SessionRun {
        index,
        spec_index,
        history_json: encode(&history),
        best_clean: best_clean(&history),
        stress_ms,
        hits,
        history,
    })
}

/// A running service, its TCP frontend, and the connected clients.
struct Rig {
    server: TcpServer,
    clients: Vec<Client>,
    admin: Client,
    dir: PathBuf,
}

impl Rig {
    fn start(
        opts: &Opts,
        replay: bool,
        obs: Obs,
        dir: PathBuf,
        clients: usize,
    ) -> Result<Rig, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let service = Arc::new(Service::start(
            ServeConfig {
                workers: clients,
                max_sessions: 1 << 20,
                session_queue_limit: BOOTSTRAP as usize,
                global_queue_limit: 4 * BOOTSTRAP as usize * clients,
                checkpoint_dir: Some(dir.join("ckpt")),
                memory_store: replay.then(|| dir.join("memory.jsonl")),
                ..ServeConfig::default()
            },
            obs,
        ));
        let server = TcpServer::start(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = server.addr();
        let clients = (0..clients)
            .map(|c| Client::connect(addr, opts.epoch, c as u64))
            .collect::<Result<Vec<_>, _>>()?;
        let admin = Client::connect(addr, opts.epoch, 255)?;
        Ok(Rig {
            server,
            clients,
            admin,
            dir,
        })
    }

    fn admitted(&self) -> usize {
        self.clients.iter().map(|c| c.admitted).sum()
    }

    fn created(&self) -> usize {
        self.clients.iter().map(|c| c.created).sum()
    }

    /// Drains the service and checks the report against what this rig's
    /// clients were admitted. Returns the drain's round-trip in ms.
    fn drain(&mut self, report: &mut Report) -> f64 {
        let (admitted, created) = (self.admitted(), self.created());
        let start = Instant::now();
        let reply = self.admin.call(Ep::Drain, &Request::Drain, 0, 0);
        let drain_ms = start.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(Response::Drained {
                sessions,
                evaluations,
                checkpointed,
                ..
            }) => {
                report.outcome(evaluations == admitted, || {
                    format!("drain counted {evaluations} evaluations, {admitted} were admitted")
                });
                report.outcome(sessions == created && checkpointed == created, || {
                    format!("drain: {sessions} sessions, {checkpointed} checkpointed, {created} created")
                });
            }
            other => report.outcome(false, || format!("drain answered {other:?}")),
        }
        drain_ms
    }

    fn metrics(&mut self) -> Option<MetricsSnapshot> {
        match self.admin.call(Ep::Metrics, &Request::Metrics, 0, 0) {
            Ok(Response::Metrics { snapshot, .. }) => Some(snapshot),
            _ => None,
        }
    }

    /// Stops the frontend and removes the rig's directory; dropping the
    /// rest closes the connections and joins the worker pool.
    fn shutdown(mut self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// How a pass picks its sessions.
#[derive(Clone, Copy)]
struct PassPlan<'a> {
    seed: u64,
    deadline: Instant,
    /// Sessions run whatever the clock says.
    min_sessions: u64,
    /// Replay: spec index is the session index modulo this.
    period: Option<u64>,
    expect_hits: u64,
    /// Replay: the fill pass's history of each spec index.
    fill: Option<&'a [String]>,
    /// Keep the frames of sessions below `PREFIX` for the codec probe.
    keep_frames: bool,
    /// Set to the memory high-water mark once `MEMORY_QUOTA` sessions have
    /// finished.
    rss_at_quota: Option<&'a OnceLock<f64>>,
}

/// Runs one closed-loop pass: every client pulls the next session index
/// until the deadline has passed and the minimum is done.
fn run_pass(clients: &mut [Client], plan: PassPlan<'_>, report: &mut Report) -> Vec<SessionRun> {
    let next = AtomicU64::new(0);
    let finished = AtomicU64::new(0);
    let outcomes: Vec<Vec<Result<SessionRun, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (next, finished) = (&next, &finished);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= plan.min_sessions && Instant::now() >= plan.deadline {
                            return done;
                        }
                        let spec_index = plan.period.map_or(i, |p| i % p);
                        let spec = spec_for(plan.seed, spec_index);
                        client.keep_frames = plan.keep_frames && i < PREFIX;
                        done.push(drive_session(
                            client,
                            &spec,
                            i,
                            spec_index,
                            plan.expect_hits,
                        ));
                        client.keep_frames = false;
                        let count = finished.fetch_add(1, Ordering::SeqCst) + 1;
                        if let Some(rss) = plan.rss_at_quota.filter(|_| count == MEMORY_QUOTA) {
                            let _ = rss.set(peak_rss_mb());
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut runs = Vec::new();
    for outcome in outcomes.into_iter().flatten() {
        match outcome {
            Ok(run) => {
                report.outcome(true, String::new);
                if let Some(fill) = plan.fill {
                    let same = fill.get(run.spec_index as usize) == Some(&run.history_json);
                    report.outcome(same, || {
                        format!(
                            "session {} replayed a history that differs from spec {}'s fill",
                            run.index, run.spec_index
                        )
                    });
                }
                runs.push(run);
            }
            Err(e) => report.outcome(false, || e),
        }
    }
    runs.sort_by_key(|r| r.index);
    runs
}

/// The fill pass: the first `PREFIX` specs, once, cold.
fn fill_pass(rig: &mut Rig, seed: u64, report: &mut Report) -> Vec<String> {
    let plan = PassPlan {
        seed,
        deadline: Instant::now(),
        min_sessions: PREFIX,
        period: None,
        expect_hits: 0,
        fill: None,
        keep_frames: false,
        rss_at_quota: None,
    };
    let runs = run_pass(&mut rig.clients, plan, report);
    let mut fill = vec![String::new(); PREFIX as usize];
    for run in runs {
        if run.index < PREFIX {
            fill[run.index as usize] = run.history_json;
        }
    }
    fill
}

/// Set-up: start the service, connect, and warm it — a warm-up session
/// for `serve_cold`, the cache-filling pass for `serve_replay`.
fn set_up(
    opts: &Opts,
    replay: bool,
    obs: Obs,
    dir: PathBuf,
    clients: usize,
    rep: u64,
    report: &mut Report,
) -> Option<(Rig, Vec<String>)> {
    let mut rig = match Rig::start(opts, replay, obs, dir, clients) {
        Ok(rig) => rig,
        Err(e) => {
            report.outcome(false, || format!("set-up failed: {e}"));
            return None;
        }
    };
    if replay {
        let fill = fill_pass(&mut rig, opts.seed, report);
        Some((rig, fill))
    } else {
        // The warm-up is the same for every seed, so set-up time does not
        // vary with the workload's inputs.
        let spec = spec_for(WARM_STREAM, rep);
        let warm = drive_session(&mut rig.clients[0], &spec, u64::MAX, rep, 0);
        report.outcome(warm.is_ok(), || {
            format!("warm-up session failed: {:?}", warm.err())
        });
        Some((rig, Vec::new()))
    }
}

fn gather<T: Copy>(clients: &[Client], f: impl Fn(&Client) -> &Vec<T>) -> Vec<T> {
    clients.iter().flat_map(|c| f(c).iter().copied()).collect()
}

fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

/// One Obs-off or Obs-on segment of the overhead measurement: a fresh
/// service, filled first for the replay workload. Returns evals/s.
fn overhead_segment(
    opts: &Opts,
    replay: bool,
    on: bool,
    dir: PathBuf,
    sessions: u64,
    report: &mut Report,
) -> f64 {
    let obs = if on { Obs::enabled() } else { Obs::disabled() };
    let clients = client_count();
    let Some((mut rig, fill)) = set_up(opts, replay, obs, dir, clients, 0, report) else {
        return 0.0;
    };
    let start = Instant::now();
    let plan = PassPlan {
        seed: opts.seed,
        deadline: start,
        min_sessions: sessions,
        period: replay.then_some(PREFIX),
        expect_hits: if replay { EVALS as u64 } else { 0 },
        fill: replay.then_some(fill.as_slice()),
        keep_frames: false,
        rss_at_quota: None,
    };
    let runs = run_pass(&mut rig.clients, plan, report);
    rig.drain(report);
    let rate = (runs.len() * EVALS) as f64 / start.elapsed().as_secs_f64();
    rig.shutdown();
    rate
}

/// Mean per-request codec cost (encode + decode of the request and of its
/// response), plus the `Result` frames' sizes and encode/decode times.
struct Codec {
    per_request_us: f64,
    result_bytes: Vec<f64>,
    result_encode_us: Vec<f64>,
    result_decode_us: Vec<f64>,
}

fn codec_probe(frames: &[(Request, Response)], report: &mut Report) -> Codec {
    let mut per_request = Vec::new();
    let mut codec = Codec {
        per_request_us: 0.0,
        result_bytes: Vec::new(),
        result_encode_us: Vec::new(),
        result_decode_us: Vec::new(),
    };
    for (req, resp) in frames {
        let t = Instant::now();
        let req_line = encode(req);
        let req_encode = micros(t);
        let t = Instant::now();
        let req_back = decode::<Request>(&req_line, DEFAULT_MAX_FRAME_BYTES);
        let req_decode = micros(t);
        let t = Instant::now();
        let resp_line = encode(resp);
        let resp_encode = micros(t);
        let t = Instant::now();
        let resp_back = decode::<Response>(&resp_line, DEFAULT_MAX_FRAME_BYTES);
        let resp_decode = micros(t);
        report.outcome(
            req_back.as_ref() == Ok(req) && resp_back.as_ref() == Ok(resp),
            || format!("{} frame does not round-trip", req.endpoint()),
        );
        per_request.push(req_encode + req_decode + resp_encode + resp_decode);
        if matches!(resp, Response::ResultReady { .. }) {
            codec.result_bytes.push(resp_line.len() as f64);
            codec.result_encode_us.push(resp_encode);
            codec.result_decode_us.push(resp_decode);
        }
    }
    codec.per_request_us = mean(&per_request);
    codec
}

fn histogram(snapshot: &Option<MetricsSnapshot>, name: &str) -> (f64, f64) {
    snapshot
        .as_ref()
        .and_then(|s| s.histograms.iter().find(|h| h.name == name))
        .map_or((0.0, 0.0), |h| (h.p50, h.p99))
}

fn counter(snapshot: &Option<MetricsSnapshot>, name: &str) -> f64 {
    snapshot
        .as_ref()
        .and_then(|s| s.counters.iter().find(|(n, _)| n == name))
        .map_or(0.0, |(_, v)| *v)
}

pub fn run(opts: &Opts, replay: bool, report: &mut Report) {
    let clients = client_count();
    let run_dir = opts.out.join(format!(
        "run-{}-{}-{}",
        opts.workload,
        opts.seed,
        std::process::id()
    ));

    // Set-up runs several times and reports the median. The first rig runs
    // the timed pass; the repeats come after it, so the memory high-water
    // mark holds one set-up's allocations, not three.
    let mut setup_s = Vec::new();
    let started = Instant::now();
    let dir = run_dir.join("setup-0");
    let Some((mut rig, fill)) = set_up(opts, replay, Obs::enabled(), dir, clients, 0, report)
    else {
        return;
    };
    setup_s.push(started.elapsed().as_secs_f64());
    for client in &mut rig.clients {
        client.reset_measurements();
    }

    // The timed pass, through the final drain.
    let rss_at_quota = OnceLock::new();
    let start = Instant::now();
    let plan = PassPlan {
        seed: opts.seed,
        deadline: start + Duration::from_secs_f64(opts.seconds),
        min_sessions: PREFIX,
        period: replay.then_some(PREFIX),
        expect_hits: if replay { EVALS as u64 } else { 0 },
        fill: replay.then_some(fill.as_slice()),
        keep_frames: true,
        rss_at_quota: Some(&rss_at_quota),
    };
    let runs = run_pass(&mut rig.clients, plan, report);
    let drain_ms = rig.drain(report);
    let wall_s = start.elapsed().as_secs_f64();
    // A pass too short to reach the quota reads the mark at its end.
    let peak_rss = rss_at_quota.get().copied().unwrap_or_else(peak_rss_mb);
    for client in &rig.clients {
        report.requests(client.requests, client.overloaded);
    }

    let evaluations = runs.len() * EVALS;
    // Hit ratio from the sessions' own status, not the `evalcache.*`
    // counters: a replay re-adds the counter deltas its live run captured,
    // which include other sessions' misses (see NOTES.md).
    let hits: u64 = runs.iter().map(|r| r.hits).sum();
    let hit_ratio = hits as f64 / evaluations.max(1) as f64;
    let expected_ratio = if replay { 1.0 } else { 0.0 };
    report.outcome(hit_ratio == expected_ratio && evaluations > 0, || {
        format!("evalcache hit ratio {hit_ratio} on the timed pass, expected {expected_ratio}")
    });

    // Quality and the history fingerprint: the fixed prefix only.
    let prefix: Vec<&SessionRun> = runs.iter().filter(|r| r.index < PREFIX).collect();
    report.outcome(prefix.len() == PREFIX as usize, || {
        format!(
            "only {} of the {PREFIX} prefix sessions finished",
            prefix.len()
        )
    });
    let mut fnv = Fnv::default();
    for run in &prefix {
        fnv.write(run.history_json.as_bytes());
    }
    eprintln!(
        "ledger: workload={} seed={} sessions={} evaluations={} wall_s={wall_s:.3} prefix_hash={}",
        opts.workload,
        opts.seed,
        runs.len(),
        evaluations,
        fnv.hex()
    );

    // Latencies and throughput are medians over equal windows of the
    // timed pass; the drain's time is added back to the typical rate, so
    // throughput still runs through the final drain.
    let steps = gather(&rig.clients, |c| &c.step_ms);
    let sessions = gather(&rig.clients, |c| &c.session_ms);
    let evals_done = gather(&rig.clients, |c| &c.evals_done);
    let windowed = |samples: &[(Instant, f64)], stat: &dyn Fn(&[f64]) -> f64| {
        block_median(samples, start, plan.deadline, BLOCKS, stat)
    };
    let window_s = opts.seconds / BLOCKS as f64;
    let rate = windowed(&evals_done, &|w| w.iter().sum::<f64>() / window_s);
    let best = per_app_quality(
        prefix
            .iter()
            .map(|r| (spec_for(opts.seed, r.spec_index).workload, r.best_clean)),
    );
    let stress: Vec<f64> = prefix.iter().map(|r| r.stress_ms / 60_000.0).collect();

    report.set(
        "evals_per_s",
        evaluations as f64 / (evaluations as f64 / rate + drain_ms / 1e3),
    );
    report.set("step_p50_ms", windowed(&steps, &|w| quantile(w, 0.5)));
    report.set("step_p90_ms", windowed(&steps, &|w| quantile(w, 0.9)));
    report.set("session_p50_ms", windowed(&sessions, &|w| quantile(w, 0.5)));
    report.set("session_p90_ms", windowed(&sessions, &|w| quantile(w, 0.9)));
    report.set("best_runtime_min", best);
    report.set("stress_time_min", geomean(&stress));
    report.set("peak_rss_mb", peak_rss);

    if opts.trace {
        let all_steps: Vec<f64> = steps.iter().map(|(_, ms)| *ms).collect();
        report.set("step_p99_ms", quantile(&all_steps, 0.99));
        let snapshot = rig.metrics();
        let checkpoint_bytes = dir_bytes(&rig.dir);
        let mut spans: Vec<Span> = rig
            .clients
            .iter_mut()
            .chain(std::iter::once(&mut rig.admin))
            .flat_map(|c| std::mem::take(&mut c.log.spans))
            .collect();
        for ep in Ep::TIMED {
            let samples = if ep == Ep::Drain {
                vec![drain_ms]
            } else {
                gather(&rig.clients, |c| &c.rtt_ms[ep as usize])
            };
            report.set(&format!("serve.rtt_ms.{}", ep.name()), median(&samples));
        }
        let frames: Vec<(Request, Response)> = rig
            .clients
            .iter_mut()
            .flat_map(|c| std::mem::take(&mut c.frames))
            .collect();
        let codec = codec_probe(&frames, report);
        report.set("serve.result_bytes", median(&codec.result_bytes));
        report.set("serve.encode_us", median(&codec.result_encode_us));
        report.set("serve.decode_us", median(&codec.result_decode_us));
        let (wait_p50, wait_p99) = histogram(&snapshot, "serve.queue_wait_ms");
        let (eval_p50, eval_p99) = histogram(&snapshot, "serve.evaluate_ms");
        report.set("serve.queue_wait_ms.p50", wait_p50);
        report.set("serve.queue_wait_ms.p99", wait_p99);
        report.set("serve.evaluate_ms.p50", eval_p50);
        report.set("serve.evaluate_ms.p99", eval_p99);
        report.set(
            "serve.overloaded",
            counter(&snapshot, "serve.rejected.overloaded"),
        );
        report.set("serve.drain_ms", drain_ms);
        report.set("serve.checkpoint_bytes", checkpoint_bytes as f64);
        report.set("evalcache.hit_ratio", hit_ratio);

        let sessions: Vec<ProbeSession> = prefix
            .iter()
            .map(|r| {
                let spec = spec_for(opts.seed, r.spec_index);
                ProbeSession {
                    app: resolve_workload(&spec.workload).expect("suite workload"),
                    base_seed: spec.base_seed,
                    faults: spec.fault_seed.zip(spec.faults),
                    history: r.history.clone(),
                    guided_from: BOOTSTRAP as usize,
                }
            })
            .collect();
        let traces: Vec<u64> = prefix.iter().map(|r| r.index).collect();
        let mut probe_log = SpanLog::new(opts.epoch, 254);
        let probe = probes::run(&sessions, &traces, EnvMode::Served, &mut probe_log, report);
        spans.append(&mut probe_log.spans);
        spans.sort_by_key(|s| (s.start_us, s.id));
        let path = opts.out.join(format!("spans-{}.jsonl", opts.workload));
        if let Err(e) = write_spans(&path, &spans) {
            report.fail(format!("writing {}: {e}", path.display()));
        }
        report.set("evalcache.bytes_per_entry", mean(&probe.entry_bytes));
        let requests: u64 = rig.clients.iter().map(|c| c.requests).sum::<u64>() + 1;
        let clean = runs
            .iter()
            .map(|r| r.history.iter().filter(|o| !o.is_censored()).count())
            .sum::<usize>() as f64;
        // Engine attempts of the sessions that ran live. Not the
        // `engine.runs` counter: a cache hit replays its live run's
        // counter deltas, so the counter grows on pure replays too.
        let engine_attempts = runs
            .iter()
            .filter(|r| r.hits == 0)
            .flat_map(|r| &r.history)
            .map(|o| 1 + o.retries as usize)
            .sum::<usize>() as f64;
        let rows = LayerRows {
            base_ms: clients as f64 * wall_s * 1e3,
            app_calls: engine_attempts,
            profile_calls: clean,
            tune_calls: evaluations as f64,
            tune_self_us: tune_self_us(&probe, replay),
            surrogate_calls: (runs.len() * GUIDED as usize) as f64,
            serve_calls: requests as f64,
            serve_us: codec.per_request_us,
            extra: Vec::new(),
        };
        rows.report(&probe, report);
        report.absent(&["tune_ms.", "bo.", "gbo.", "core.", "ddpg."]);
        let seg_root = run_dir.join("overhead");
        let seg_sessions = ((runs.len() as f64 / 8.0).round() as u64).max(clients as u64);
        let (overhead, noise) = obs_overhead(|on, k| {
            let dir = seg_root.join(format!("seg-{k}"));
            overhead_segment(opts, replay, on, dir, seg_sessions, report)
        });
        report.set("obs.overhead_frac", overhead);
        report.set("obs.noise_frac", noise);
    }
    rig.shutdown();
    for rep in 1..SETUP_REPS as u64 {
        let started = Instant::now();
        let dir = run_dir.join(format!("setup-{rep}"));
        let Some((mut repeat, _)) = set_up(opts, replay, Obs::enabled(), dir, clients, rep, report)
        else {
            break;
        };
        setup_s.push(started.elapsed().as_secs_f64());
        repeat.drain(report);
        repeat.shutdown();
    }
    report.set("setup_s", median(&setup_s));
    let _ = std::fs::remove_dir_all(&run_dir);
}
