//! `tune_direct`: the paper's own setting. RelM, BO, GBO and DDPG with
//! default configurations, run to completion in-process on the five suite
//! applications, one session at a time. No serve layer, no TCP.

use crate::layers::{obs_overhead, tune_self_us, LayerRows};
use crate::probes::{self, EnvMode, ProbeSession};
use crate::util::{
    block_median, geomean, mean, median, mix, peak_rss_mb, per_app_quality, quantile, write_spans,
    Fnv, SpanLog, BLOCKS,
};
use crate::{Opts, Report};
use relm_app::{AppSpec, Engine};
use relm_bo::BayesOpt;
use relm_cluster::ClusterSpec;
use relm_common::MemoryConfig;
use relm_core::RelmTuner;
use relm_ddpg::DdpgTuner;
use relm_obs::{MetricsSnapshot, Obs};
use relm_tune::{Observation, Tuner, TuningEnv, ABORT_PENALTY_FACTOR};
use std::time::{Duration, Instant};

const FAMILIES: [&str; 4] = ["relm", "bo", "gbo", "ddpg"];
/// Sessions every run completes: one per family × application, the
/// quality metrics and history hash cover exactly these.
pub const PREFIX: u64 = 20;
const SETUP_REPS: usize = 3;
const TUNER_STREAM: u64 = 0x7E57;
const WARM_STREAM: u64 = 0x3A53;
const VALIDATE_STREAM: u64 = 0x5A1D;
/// BO's default bootstrap: proposals from this history length on are
/// surrogate-guided.
const BO_BOOTSTRAP: usize = 4;

fn tuner_for(family: usize, seed: u64) -> Box<dyn Tuner> {
    match family {
        0 => Box::new(RelmTuner::default()),
        1 => Box::new(BayesOpt::new(seed)),
        2 => Box::new(BayesOpt::guided(seed)),
        _ => Box::new(DdpgTuner::new(seed)),
    }
}

/// Session `i` of a run: family cycles fastest, then the application.
fn plan(seed: u64, i: u64) -> (usize, usize, u64, u64) {
    let family = (i % FAMILIES.len() as u64) as usize;
    let app = ((i / FAMILIES.len() as u64 + seed) % 5) as usize;
    (family, app, mix(seed ^ TUNER_STREAM, i), mix(seed, i))
}

struct TuneRun {
    index: u64,
    family: usize,
    app: usize,
    base_seed: u64,
    started: Instant,
    ended: Instant,
    wall_ms: f64,
    evaluations: usize,
    attempts: usize,
    clean: usize,
    history: Vec<Observation>,
    recommended: MemoryConfig,
    stress_min: f64,
}

fn run_session(apps: &[AppSpec], seed: u64, i: u64, obs: &Obs) -> Result<TuneRun, String> {
    let (family, app, tuner_seed, base_seed) = plan(seed, i);
    let engine = Engine::new(ClusterSpec::cluster_a()).with_obs(obs.clone());
    let mut env = TuningEnv::new(engine, apps[app].clone(), base_seed);
    let mut tuner = tuner_for(family, tuner_seed);
    let started = Instant::now();
    let rec = tuner
        .tune(&mut env)
        .map_err(|e| format!("{} on {}: {e}", FAMILIES[family], apps[app].name))?;
    let ended = Instant::now();
    let wall_ms = (ended - started).as_secs_f64() * 1e3;
    if rec.evaluations != env.evaluations() || env.evaluations() == 0 {
        return Err(format!(
            "{} on {}: recommendation counts {} evaluations, env ran {}",
            FAMILIES[family],
            apps[app].name,
            rec.evaluations,
            env.evaluations()
        ));
    }
    let history = env.history().to_vec();
    Ok(TuneRun {
        index: i,
        family,
        app,
        base_seed,
        started,
        ended,
        wall_ms,
        evaluations: history.len(),
        attempts: history.len() + env.total_retries() as usize,
        clean: history.iter().filter(|o| !o.is_censored()).count(),
        history,
        recommended: rec.config,
        stress_min: env.stress_time().as_ms() / 60_000.0,
    })
}

/// Runs sessions `0..` until the deadline has passed and `min` are done.
fn run_loop(
    apps: &[AppSpec],
    seed: u64,
    deadline: Instant,
    min: u64,
    obs: &Obs,
    report: &mut Report,
) -> Vec<TuneRun> {
    let mut runs = Vec::new();
    for i in 0.. {
        if i >= min && Instant::now() >= deadline {
            break;
        }
        match run_session(apps, seed, i, obs) {
            Ok(run) => {
                report.outcome(true, String::new);
                runs.push(run);
            }
            Err(e) => report.outcome(false, || e),
        }
    }
    runs
}

/// The recommendation's quality: its runtime on one clean validation run,
/// penalized like a censored observation if it aborts.
fn validate(apps: &[AppSpec], seed: u64, run: &TuneRun) -> f64 {
    let engine = Engine::new(ClusterSpec::cluster_a());
    let (result, _) = engine.run(
        &apps[run.app],
        &run.recommended,
        mix(seed ^ VALIDATE_STREAM, run.index),
    );
    if result.aborted {
        ABORT_PENALTY_FACTOR * result.runtime_mins()
    } else {
        result.runtime_mins()
    }
}

fn hist_sum(snapshot: &MetricsSnapshot, name: &str) -> (f64, f64) {
    snapshot
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0.0, 0.0), |h| (h.count as f64, h.sum))
}

pub fn run(opts: &Opts, report: &mut Report) {
    // Set-up: build the suite and warm every tuner family once.
    let mut setup_s = Vec::new();
    let mut apps = Vec::new();
    for rep in 0..SETUP_REPS as u64 {
        let started = Instant::now();
        apps = relm_workloads::benchmark_suite();
        for family in 0..FAMILIES.len() as u64 {
            // Seed-independent, so set-up time does not vary with the
            // workload's inputs.
            let warm = run_session(&apps, WARM_STREAM, rep * 4 + family, &Obs::disabled());
            report.outcome(warm.is_ok(), || format!("warm-up failed: {:?}", warm.err()));
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }

    // The timed pass: telemetry off, as the experiment binaries run.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let runs = run_loop(&apps, opts.seed, deadline, PREFIX, &Obs::disabled(), report);
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();

    let prefix: Vec<&TuneRun> = runs.iter().filter(|r| r.index < PREFIX).collect();
    report.outcome(prefix.len() == PREFIX as usize, || {
        format!(
            "only {} of the {PREFIX} prefix sessions finished",
            prefix.len()
        )
    });
    let mut fnv = Fnv::default();
    for run in &prefix {
        fnv.write(
            serde_json::to_string(&run.history)
                .unwrap_or_default()
                .as_bytes(),
        );
        fnv.write(
            serde_json::to_string(&run.recommended)
                .unwrap_or_default()
                .as_bytes(),
        );
    }
    let evaluations: usize = runs.iter().map(|r| r.evaluations).sum();
    eprintln!(
        "ledger: workload={} seed={} sessions={} evaluations={} wall_s={wall_s:.3} prefix_hash={}",
        opts.workload,
        opts.seed,
        runs.len(),
        evaluations,
        fnv.hex()
    );

    // Medians over equal windows of the timed pass, as for serve.
    let steps: Vec<(Instant, f64)> = runs
        .iter()
        .map(|r| (r.ended, r.wall_ms / r.evaluations as f64))
        .collect();
    let walls: Vec<(Instant, f64)> = runs.iter().map(|r| (r.ended, r.wall_ms)).collect();
    let evals_done: Vec<(Instant, f64)> = runs
        .iter()
        .map(|r| (r.ended, r.evaluations as f64))
        .collect();
    let windowed = |samples: &[(Instant, f64)], stat: &dyn Fn(&[f64]) -> f64| {
        block_median(samples, start, deadline, BLOCKS, stat)
    };
    let window_s = opts.seconds / BLOCKS as f64;
    let quality = per_app_quality(
        prefix
            .iter()
            .map(|r| (r.app, validate(&apps, opts.seed, r))),
    );
    let stress: Vec<f64> = prefix.iter().map(|r| r.stress_min).collect();
    report.set("setup_s", median(&setup_s));
    report.set(
        "evals_per_s",
        windowed(&evals_done, &|w| w.iter().sum::<f64>() / window_s),
    );
    report.set("step_p50_ms", windowed(&steps, &|w| quantile(w, 0.5)));
    report.set("step_p90_ms", windowed(&steps, &|w| quantile(w, 0.9)));
    report.set("session_p50_ms", windowed(&walls, &|w| quantile(w, 0.5)));
    report.set("session_p90_ms", windowed(&walls, &|w| quantile(w, 0.9)));
    report.set("best_runtime_min", quality);
    report.set("stress_time_min", geomean(&stress));
    report.set("peak_rss_mb", peak_rss);

    if !opts.trace {
        return;
    }
    let all_steps: Vec<f64> = steps.iter().map(|(_, ms)| *ms).collect();
    report.set("step_p99_ms", quantile(&all_steps, 0.99));
    // Bench-side spans: one per tuning session, all from this thread.
    let mut log = SpanLog::new(opts.epoch, 0);
    for run in &runs {
        let id = log.open();
        log.close(
            id,
            0,
            run.index,
            family_span(run.family),
            run.started,
            run.ended,
        );
    }
    let of_family = |f: usize| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.family == f)
            .map(|r| r.wall_ms)
            .collect()
    };
    for (f, name) in FAMILIES.iter().enumerate() {
        report.set(&format!("tune_ms.{name}"), median(&of_family(f)));
    }

    // Telemetry overhead, on identical fixed-work segments; the Obs-on
    // segments share one handle, whose histograms give the tuners' own
    // per-step costs.
    let on_obs = Obs::enabled();
    let seg_sessions = ((runs.len() as f64 / 8.0).round() as u64).max(FAMILIES.len() as u64);
    let mut on_family = [0usize; 4];
    let (overhead, noise) = obs_overhead(|on, _| {
        let obs = if on { on_obs.clone() } else { Obs::disabled() };
        let t = Instant::now();
        let seg = run_loop(&apps, opts.seed, t, seg_sessions, &obs, report);
        let rate =
            seg.iter().map(|r| r.evaluations).sum::<usize>() as f64 / t.elapsed().as_secs_f64();
        if on {
            for r in &seg {
                on_family[r.family] += 1;
            }
        }
        rate
    });
    report.set("obs.overhead_frac", overhead);
    report.set("obs.noise_frac", noise);
    let snapshot = on_obs.metrics_snapshot();
    let p50 = |name: &str| on_obs.histogram_quantile(name, 0.5).unwrap_or(0.0);
    for name in [
        "bo.fit_ms",
        "bo.acq_ms",
        "gbo.fit_ms",
        "gbo.acq_ms",
        "ddpg.act_ms",
        "ddpg.update_ms",
    ] {
        report.set(name, p50(name));
    }

    // Layer rows: the tuners' own instruments, scaled from the Obs-on
    // segments to the timed pass by sessions per family.
    let main_family = |f: usize| runs.iter().filter(|r| r.family == f).count() as f64;
    let scaled = |families: &[usize], names: &[&str]| -> (f64, f64) {
        let mut calls = 0.0;
        let mut busy = 0.0;
        for &f in families {
            let on = on_family[f].max(1) as f64;
            for name in names {
                let prefix = if f == 2 {
                    name.replacen("bo.", "gbo.", 1)
                } else {
                    name.to_string()
                };
                let (count, sum) = hist_sum(&snapshot, &prefix);
                calls += count / on * main_family(f);
                busy += sum / on * main_family(f);
            }
        }
        (calls, busy)
    };
    let extra = vec![
        ("bo", scaled(&[1, 2], &["bo.fit_ms", "bo.acq_ms"])),
        ("core", scaled(&[0], &["relm.stats_ms", "relm.decide_ms"])),
        ("ddpg", scaled(&[3], &["ddpg.act_ms", "ddpg.update_ms"])),
    ];

    let sessions: Vec<ProbeSession> = prefix
        .iter()
        .map(|r| ProbeSession {
            app: apps[r.app].clone(),
            base_seed: r.base_seed,
            faults: None,
            history: r.history.clone(),
            guided_from: if r.family == 1 || r.family == 2 {
                BO_BOOTSTRAP.min(r.history.len())
            } else {
                r.history.len()
            },
        })
        .collect();
    let traces: Vec<u64> = prefix.iter().map(|r| r.index).collect();
    let mut probe_log = SpanLog::new(opts.epoch, 254);
    let probe = probes::run(&sessions, &traces, EnvMode::Direct, &mut probe_log, report);
    log.spans.append(&mut probe_log.spans);
    log.spans.sort_by_key(|s| (s.start_us, s.id));
    let path = opts.out.join(format!("spans-{}.jsonl", opts.workload));
    if let Err(e) = write_spans(&path, &log.spans) {
        report.fail(format!("writing {}: {e}", path.display()));
    }
    let rows = LayerRows {
        base_ms: wall_s * 1e3,
        app_calls: runs.iter().map(|r| r.attempts).sum::<usize>() as f64,
        profile_calls: runs.iter().map(|r| r.clean).sum::<usize>() as f64,
        tune_calls: evaluations as f64,
        tune_self_us: tune_self_us(&probe, false),
        surrogate_calls: 0.0,
        serve_calls: 0.0,
        serve_us: 0.0,
        extra,
    };
    rows.report(&probe, report);
    report.set("evalcache.hit_ratio", 0.0);
    report.set("evalcache.bytes_per_entry", mean(&probe.entry_bytes));
    report.absent(&["serve."]);
}

fn family_span(family: usize) -> &'static str {
    match family {
        0 => "tune.relm",
        1 => "tune.bo",
        2 => "tune.gbo",
        _ => "tune.ddpg",
    }
}
