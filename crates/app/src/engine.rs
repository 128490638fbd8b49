//! The execution simulator.
//!
//! [`Engine::run`] executes an [`AppSpec`] under a [`MemoryConfig`] on a
//! [`ClusterSpec`] and returns a [`RunResult`] plus the [`Profile`] a
//! monitoring stack would have collected. [`Engine::run_stats`] runs the
//! same simulation but returns only the profile's Table-6 statistics, and
//! never builds the profile. The simulation is deterministic given the
//! seed.
//!
//! ## Statistics without a profile
//!
//! `derive_stats` reads a profile's pool maxima and, at each full-GC event,
//! the cache, shuffle and running-task samples in effect at the event's
//! time. A statistics-only run keeps these per container as it simulates
//! ([`relm_profile::StatsInputs`]), and resolves each full-GC event when
//! the container-wave attempt that logged it commits, with the values that
//! commit would push to the timelines. That is exactly what the timelines
//! give:
//!
//! - An attempt that starts at wave time `T` pushes its samples at `T` and
//!   logs its events in `[T, T + compute)`. The young loop, the
//!   promotion-failure loop and the leftover-spill loop all place events
//!   strictly inside the wave, and clamping an event to the JVM's previous
//!   one never moves it past that.
//! - The container's next samples are pushed no earlier than
//!   `T + compute + gc pause`: the clock advances by at least the
//!   attempt's wall time, whether the wave commits or a later container
//!   fails it.
//! - A container that fails is replaced before it commits, and its JVM's
//!   events go with it: a profile keeps only each container's final JVM's
//!   events, and the statistics-only run drops that JVM's samples.
//!
//! So the timeline lookup at an event's time always reads the commit that
//! follows the event. The samples are collected in the order
//! `derive_stats` visits them, container by container with events in
//! logged order, so even values that compare equal (±0.0) sort as they
//! would from the profile. Profile corruption takes the same draws in both
//! runs.
//!
//! ## Model
//!
//! Tasks are scheduled in waves across `containers × task_concurrency`
//! slots. A wave's wall time is the slowest container's task time:
//! input I/O (disk for HDFS reads, network for shuffle fetches, lineage
//! recomputation for cache misses), CPU work under core contention, spill
//! I/O for external sorts, plus the stop-the-world GC pauses reported by the
//! per-container [`JvmSim`].
//!
//! Failures follow §3.1: the JVM raises `OutOfMemoryError` when the live
//! demand cannot fit the heap (plus a stochastic component when the margin
//! is thin — deserialization and fetch buffers are bursty); the resource
//! manager kills containers whose RSS exceeds the physical cap. A failed
//! container is replaced and the wave retried; after
//! [`EngineCostModel::max_task_retries`] failures of the same wave the
//! application aborts.

use crate::result::RunResult;
use crate::spec::{AppSpec, InputSource, StageSpec};
use relm_cluster::{ClusterSpec, ContainerSpec, ResourceManager};
use relm_common::hash::Fnv64;
use relm_common::{Mem, MemoryConfig, Millis, Rng};
use relm_faults::{AbortCause, FaultPlan, ProfileNoise, StageSites};
use relm_jvm::{GcCostModel, GcSettings, JvmSim, WavePressure};
use relm_obs::Obs;
use relm_profile::{
    ContainerInputs, ContainerTrace, DerivedStats, FullGcSample, Profile, StatsInputs,
};
use serde::{Deserialize, Serialize};

/// Tunable constants of the execution model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineCostModel {
    /// GC pause/promotion constants passed to every container JVM.
    pub gc: GcCostModel,
    /// Number of times a wave is retried after container failures before the
    /// application job aborts (Spark's `spark.task.maxFailures` is 4).
    pub max_task_retries: u32,
    /// Stochastic out-of-memory model: probability scale at zero margin.
    pub soft_oom_coeff: f64,
    /// Stochastic out-of-memory model: margin decay constant.
    pub soft_oom_margin_scale: f64,
    /// Margins above this never fail stochastically.
    pub soft_oom_margin_cutoff: f64,
    /// Relative *transient* noise on a wave's live memory footprint,
    /// re-sampled on every attempt (allocation burstiness).
    pub mem_noise: f64,
    /// Relative *data skew* noise on a wave's live memory footprint, fixed
    /// per (stage, wave, container) across retries — a skewed partition stays
    /// skewed when its task is retried, which is how applications end up
    /// aborted after the task retry limit.
    pub skew_noise: f64,
    /// Unroll slack: memory the block manager keeps free when deciding
    /// whether one more partition can be cached.
    pub unroll_slack: Mem,
    /// Probability per container-wave that sustained promotion-failure
    /// thrashing raises a "GC overhead limit exceeded" OOM.
    pub gc_thrash_oom_prob: f64,
    /// Fraction of spill I/O time that is NOT hidden behind computation.
    pub spill_overlap: f64,
    /// Cost of re-populating one megabyte of cache lost to a container
    /// failure (ms/MB).
    pub recache_ms_per_mb: f64,
    /// Per-wave scheduling overhead.
    pub wave_overhead: Millis,
    /// Fixed startup time (driver, container launch).
    pub startup: Millis,
}

impl Default for EngineCostModel {
    fn default() -> Self {
        EngineCostModel {
            gc: GcCostModel::default(),
            max_task_retries: 4,
            soft_oom_coeff: 0.02,
            soft_oom_margin_scale: 0.02,
            soft_oom_margin_cutoff: 0.06,
            mem_noise: 0.03,
            skew_noise: 0.04,
            unroll_slack: Mem::mb(150.0),
            gc_thrash_oom_prob: 0.008,
            spill_overlap: 0.15,
            recache_ms_per_mb: 12.0,
            wave_overhead: Millis::ms(250.0),
            startup: Millis::secs(8.0),
        }
    }
}

/// What the profiler keeps of one container. The record outlives the
/// container's JVMs: a replacement JVM takes over its predecessor's.
trait Record {
    /// Whether the JVMs keep their profiler timeline: every GC event and
    /// RSS sample, rather than only the full-GC events.
    const TIMELINE: bool;

    /// An empty record for a container whose code overhead is `m_i`.
    fn new(m_i: Mem) -> Self;

    /// Notes a committed container-wave attempt that started at `now`.
    fn commit(&mut self, now: Millis, jvm: &JvmSim, cache_used: Mem, shuffle_live: Mem, tasks: u32);

    /// Notes that `dying` was killed at `now` and is being replaced.
    fn retire(&mut self, dying: &JvmSim, now: Millis);
}

/// [`Engine::run`] keeps the full trace its profile returns.
impl Record for ContainerTrace {
    const TIMELINE: bool = true;

    fn new(m_i: Mem) -> Self {
        ContainerTrace {
            code_overhead: m_i,
            ..Default::default()
        }
    }

    fn commit(&mut self, now: Millis, _: &JvmSim, cache_used: Mem, shuffle_live: Mem, tasks: u32) {
        self.running_tasks.push(now, tasks);
        self.cache_used.push(now, cache_used);
        self.shuffle_used.push(now, shuffle_live);
    }

    /// Flushes the dying JVM's RSS samples into the trace: the fresh
    /// process starts a new sample log. The final sample is the peak that
    /// triggered the failure.
    fn retire(&mut self, dying: &JvmSim, now: Millis) {
        let mut last_t = now;
        for &(t, rss) in dying.rss_samples() {
            self.rss.push_clamped(t, rss);
            last_t = last_t.max(t);
        }
        self.rss.push_clamped(last_t, dying.peak_rss());
    }
}

/// [`Engine::run_stats`] keeps only what the Table-6 statistics read: the
/// pool maxima, and each full-GC event of the current JVM resolved against
/// the values its attempt commits (see the module docs for why that is
/// exactly what `derive_stats` reads off the timelines).
impl Record for ContainerInputs {
    const TIMELINE: bool = false;

    fn new(m_i: Mem) -> Self {
        ContainerInputs {
            code_overhead: m_i,
            ..Default::default()
        }
    }

    fn commit(&mut self, _: Millis, jvm: &JvmSim, cache_used: Mem, shuffle_live: Mem, tasks: u32) {
        self.max_cache_used = self.max_cache_used.max(cache_used);
        self.max_shuffle_used = self.max_shuffle_used.max(shuffle_live);
        // Without a timeline the JVM logs only full-GC events, and every
        // earlier one is already resolved.
        let logged = &jvm.events()[self.full_gcs.len()..];
        self.full_gcs.extend(logged.iter().map(|e| FullGcSample {
            heap_used_after: e.heap_used_after,
            cache_used,
            shuffle_used: shuffle_live,
            running_tasks: tasks,
        }));
    }

    /// A profile keeps only the final JVM's GC events.
    fn retire(&mut self, _: &JvmSim, _: Millis) {
        self.full_gcs.clear();
    }
}

/// Per-container mutable state during a run.
struct ContainerState<R> {
    jvm: JvmSim,
    record: R,
    cache_used: Mem,
    rng: Rng,
}

impl<R: Record> ContainerState<R> {
    /// A fresh JVM that takes over `record`.
    fn new(
        heap: Mem,
        settings: GcSettings,
        gc: GcCostModel,
        m_i: Mem,
        rng: Rng,
        record: R,
    ) -> Self {
        let mut jvm = JvmSim::new(heap, settings, gc).with_timeline(R::TIMELINE);
        jvm.set_code_overhead(m_i);
        ContainerState {
            jvm,
            record,
            cache_used: Mem::ZERO,
            rng,
        }
    }
}

/// The execution simulator for one cluster.
#[derive(Debug, Clone)]
pub struct Engine {
    cluster: ClusterSpec,
    cost: EngineCostModel,
    obs: Obs,
    faults: Option<FaultPlan>,
}

impl Engine {
    /// Creates an engine with the default cost model and observability
    /// disabled.
    pub fn new(cluster: ClusterSpec) -> Self {
        Engine {
            cluster,
            cost: EngineCostModel::default(),
            obs: Obs::disabled(),
            faults: None,
        }
    }

    /// Overrides the cost model.
    pub fn with_cost_model(mut self, cost: EngineCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Attaches an observability handle; every run then records an
    /// `engine.run` span plus run counters and a runtime histogram.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle (a disabled no-op by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attaches a fault plan; every run then suffers the plan's injected
    /// kills, node losses, stragglers, and profile corruption. An off plan
    /// (all rates zero) is dropped so the no-fault path stays untouched.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_off() { None } else { Some(plan) };
        self
    }

    /// The fault plan in effect, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The cluster this engine simulates.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &EngineCostModel {
        &self.cost
    }

    /// Runs the application under `config`, returning the run metrics and
    /// the collected profile. Deterministic given `seed`.
    pub fn run(&self, app: &AppSpec, config: &MemoryConfig, seed: u64) -> (RunResult, Profile) {
        self.simulate(app, config, seed, RunSim::profile)
    }

    /// Runs the application like [`Engine::run`] but returns only the
    /// profile's Table-6 statistics: exactly
    /// `derive_stats(&engine.run(app, config, seed).1)`, and the same
    /// `RunResult`, span and counters. The run records no profile: it
    /// folds the statistics' inputs into the simulation as each wave
    /// attempt commits (see the module docs).
    pub fn run_stats(
        &self,
        app: &AppSpec,
        config: &MemoryConfig,
        seed: u64,
    ) -> (RunResult, DerivedStats) {
        let (result, inputs) = self.simulate(app, config, seed, RunSim::stats_inputs);
        (result, inputs.derive())
    }

    /// One run under the `engine.run` span, keeping an `R` per container;
    /// `collect` turns those records into what the run returns.
    fn simulate<'a, R: Record, T>(
        &'a self,
        app: &'a AppSpec,
        config: &MemoryConfig,
        seed: u64,
        collect: impl FnOnce(&mut RunSim<'a, R>, Summary) -> T,
    ) -> (RunResult, T) {
        let mut span = self.obs.span("engine.run");
        let mut sim = RunSim::new(self, app, config, seed);
        sim.execute();
        let (result, summary) = sim.finish();
        let collected = collect(&mut sim, summary);
        if span.is_recording() {
            span.set("app", app.name.as_str());
            span.set("seed", seed);
            span.set("gc_ms", sim.pause_time.as_ms());
            span.set("spill_mb", sim.spilled_bytes_mb);
            span.set("spill_events", sim.spill_events);
            span.set("aborted", sim.aborted);
            span.set(
                "abort_cause",
                sim.abort_cause.map(|c| c.as_str()).unwrap_or("none"),
            );
            span.set("injected_faults", result.injected_faults as u64);
            self.obs.inc("engine.runs");
            if sim.aborted {
                self.obs.inc("engine.aborts");
            }
            self.obs.record("engine.run_ms", result.runtime.as_ms());
            self.obs.record("engine.gc_ms", sim.pause_time.as_ms());
        }
        (result, collected)
    }
}

/// What one container did during one wave attempt.
struct ContainerWave {
    compute: Millis,
    gc_pause: Millis,
    cache_fill: Mem,
    shuffle_live: Mem,
    cpu_raw_core_ms: f64,
    disk_mb: f64,
    shuffle_mb: f64,
    spilled_mb: f64,
    spill_events: u32,
    tasks: u32,
    failure: Option<FailureKind>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FailureKind {
    Oom,
    RssKill(Mem),
    /// A fault plan killed this container (transient — not the config's
    /// fault).
    Injected,
}

impl FailureKind {
    fn abort_cause(self) -> AbortCause {
        match self {
            FailureKind::Oom => AbortCause::Oom,
            FailureKind::RssKill(_) => AbortCause::RssKill,
            FailureKind::Injected => AbortCause::InjectedKill,
        }
    }
}

enum WaveAttempt {
    Ok,
    ContainerFailed {
        idx: usize,
        kind: FailureKind,
        recovery: Millis,
    },
    /// A fault plan took a whole node down; every container on it dies.
    NodeLost {
        node: u32,
        recovery: Millis,
    },
}

/// The working state of one simulated run.
struct RunSim<'a, R> {
    engine: &'a Engine,
    app: &'a AppSpec,
    config: MemoryConfig,
    container_spec: ContainerSpec,
    containers: Vec<ContainerState<R>>,
    rm: ResourceManager,
    now: Millis,
    aborted: bool,
    abort_cause: Option<AbortCause>,
    /// Injected stragglers + corrupted profiles (container-level injections
    /// are tallied by the resource manager).
    soft_injections: u32,
    spill_events: u64,
    // Aggregates.
    cpu_busy_core_ms: f64,
    disk_bytes_mb: f64,
    busy_time: Millis,
    pause_time: Millis,
    shuffle_bytes_mb: f64,
    spilled_bytes_mb: f64,
    // Cache accounting.
    cache_target_per_container: Mem,
    hit_ratio: f64,
    seed: u64,
}

/// The run-level figures of a profile, corrupted when the fault plan says
/// so.
struct Summary {
    duration: Millis,
    cpu_avg: f64,
    disk_avg: f64,
    cache_hit_ratio: f64,
    spill_fraction: f64,
    gc_overhead: f64,
    /// The corruption's noise, left for the per-container draws.
    noise: Option<ProfileNoise>,
}

/// What one stage's container-waves hash their draws from, computed once
/// per stage.
struct StageHashes {
    /// FNV-1a after the sticky-skew coordinates `(run seed, stage name)`.
    skew: Fnv64,
    /// The fault plan's sites for this stage.
    faults: Option<StageSites>,
}

impl StageHashes {
    fn new(seed: u64, stage: &str, plan: Option<&FaultPlan>) -> Self {
        let mut skew = Fnv64::new();
        skew.write_u64(seed);
        skew.write_str(stage);
        StageHashes {
            skew,
            faults: plan.map(|p| p.stage_sites(seed, stage)),
        }
    }

    /// The seed of a container-wave's sticky skew: the stage prefix plus
    /// `(wave, container)`, so it is deterministic across platforms and
    /// stable across retries of the same wave.
    fn skew_seed(&self, wave: u32, container: usize) -> u64 {
        let mut h = self.skew;
        h.write_bytes(&wave.to_le_bytes());
        h.write_u64(container as u64);
        h.finish()
    }
}

impl<'a, R: Record> RunSim<'a, R> {
    fn new(engine: &'a Engine, app: &'a AppSpec, config: &MemoryConfig, seed: u64) -> Self {
        let cluster = &engine.cluster;
        let container_spec = cluster.container(config.containers_per_node);
        let n_containers = cluster.total_containers(config.containers_per_node);
        let settings = GcSettings::from_config(config);
        let root = Rng::new(seed);
        let containers: Vec<ContainerState<R>> = (0..n_containers)
            .map(|i| {
                ContainerState::new(
                    config.heap,
                    settings,
                    engine.cost.gc,
                    app.code_overhead,
                    root.fork(i as u64 + 1),
                    R::new(app.code_overhead),
                )
            })
            .collect();

        let cache_demand_pc = app.cache_demand() / n_containers as f64;
        // Spark reserves a sliver of the storage pool for unroll memory;
        // usable storage is slightly below the configured capacity.
        let cache_cap = config.cache_capacity() * 0.97;
        // Unroll semantics: a partition is only cached while unrolling it
        // leaves room for the running tasks' working memory. Cache growth
        // stops once task memory would be squeezed out — which is why a
        // too-large Cache Capacity manifests as a lower hit ratio plus
        // memory pressure, not an immediate deterministic OOM (§3.3).
        let layout = relm_jvm::HeapLayout::new(config.heap, &settings);
        let max_unmanaged_mb = app
            .stages
            .iter()
            .map(|s| s.unmanaged_per_task.as_mb())
            .fold(0.0, f64::max);
        let live_bound = Mem::mb(max_unmanaged_mb) * config.task_concurrency.max(1) as f64;
        let fit_bound =
            (layout.usable() - app.code_overhead - live_bound - engine.cost.unroll_slack)
                .clamp_non_negative();
        let cache_target_per_container = cache_demand_pc.min(cache_cap).min(fit_bound);
        let hit_ratio = if cache_demand_pc.is_zero() {
            1.0
        } else {
            cache_target_per_container / cache_demand_pc
        };

        RunSim {
            engine,
            app,
            config: *config,
            container_spec,
            containers,
            rm: ResourceManager::new(),
            now: engine.cost.startup,
            aborted: false,
            abort_cause: None,
            soft_injections: 0,
            spill_events: 0,
            cpu_busy_core_ms: 0.0,
            disk_bytes_mb: 0.0,
            busy_time: Millis::ZERO,
            pause_time: Millis::ZERO,
            shuffle_bytes_mb: 0.0,
            spilled_bytes_mb: 0.0,
            cache_target_per_container,
            hit_ratio,
            seed,
        }
    }

    fn execute(&mut self) {
        let app = self.app;
        for &stage_idx in &app.schedule() {
            self.run_stage(&app.stages[stage_idx]);
            if self.aborted {
                break;
            }
        }
    }

    fn run_stage(&mut self, stage: &StageSpec) {
        let hashes = StageHashes::new(self.seed, &stage.name, self.engine.faults.as_ref());
        let n_containers = self.containers.len() as u32;
        let p = self.config.task_concurrency.max(1);
        let total_slots = n_containers * p;
        let waves = stage.tasks.div_ceil(total_slots);

        for wave in 0..waves {
            let first_task = wave * total_slots;
            let tasks_this_wave = (stage.tasks - first_task).min(total_slots);
            let base = tasks_this_wave / n_containers;
            let extra = tasks_this_wave % n_containers;

            let mut attempts = 0u32;
            loop {
                match self.attempt_wave(stage, &hashes, wave, base, extra, attempts) {
                    WaveAttempt::Ok => break,
                    WaveAttempt::ContainerFailed {
                        idx,
                        kind,
                        recovery,
                    } => {
                        attempts += 1;
                        self.replace_container(idx, kind);
                        self.now += recovery;
                        if attempts >= self.engine.cost.max_task_retries {
                            self.aborted = true;
                            self.abort_cause = Some(kind.abort_cause());
                            return;
                        }
                    }
                    WaveAttempt::NodeLost { node, recovery } => {
                        attempts += 1;
                        // Every container on the node comes back as a fresh
                        // JVM on replacement hardware.
                        let cpn = self.config.containers_per_node.max(1) as usize;
                        let first = node as usize * cpn;
                        for idx in first..(first + cpn).min(self.containers.len()) {
                            self.replace_container(idx, FailureKind::Injected);
                        }
                        self.now += recovery;
                        if attempts >= self.engine.cost.max_task_retries {
                            self.aborted = true;
                            self.abort_cause = Some(AbortCause::NodeLoss);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Simulates what one container does during this wave attempt.
    /// `straggle` is an injected slowdown multiplier (1.0 = healthy): it
    /// stretches the container's compute time and its GC pauses alike.
    fn simulate_container(
        &mut self,
        idx: usize,
        stage: &StageSpec,
        skew_seed: u64,
        tasks: u32,
        straggle: f64,
    ) -> ContainerWave {
        let cost = self.engine.cost;
        let p = self.config.task_concurrency.max(1);
        let n_per_node = self.config.containers_per_node.max(1);
        let cores = self.engine.cluster.cores_per_node as f64;
        let hit_ratio = self.hit_ratio;
        let code_overhead = self.app.code_overhead;
        let noise_level = self.app.noise;
        let cache_target = self.cache_target_per_container;
        let spec = self.container_spec;
        let per_task_shuffle_budget = self.config.shuffle_capacity() / p as f64;
        let now = self.now;

        let m_f = tasks as f64;
        let input_mb = stage.input_per_task.as_mb();

        // The m concurrent tasks share the container's bandwidth slice.
        let disk_mb_s = (spec.disk_mb_per_s_share / m_f).max(1.0);
        let net_mb_s = (spec.net_mb_per_s_share / m_f).max(1.0);

        let (input_time_ms, recompute_cpu_ms, input_disk_mb) = match stage.input {
            InputSource::Hdfs => (input_mb / disk_mb_s * 1000.0, 0.0, input_mb),
            InputSource::ShuffleRead => (input_mb / net_mb_s * 1000.0, 0.0, 0.0),
            InputSource::Cached {
                miss_penalty_ms_per_mb,
            } => {
                let miss = 1.0 - hit_ratio;
                (
                    miss * input_mb / disk_mb_s * 1000.0,
                    miss * input_mb * miss_penalty_ms_per_mb,
                    miss * input_mb,
                )
            }
        };

        // CPU contention: tasks per node vs physical cores.
        let active_per_node = (n_per_node * tasks) as f64;
        let contention = (active_per_node / cores).max(1.0);
        let cpu_raw_ms = input_mb * stage.cpu_ms_per_mb + recompute_cpu_ms;
        let cpu_time_ms = cpu_raw_ms * contention;

        // Shuffle sort/aggregation through the Task Shuffle pool. The sort
        // demand is the *deserialized* data volume (Java object expansion),
        // not the raw shuffle bytes.
        let (
            spill_events,
            spill_batch,
            shuffle_live_per_task,
            sort_live_per_task,
            spill_disk_mb,
            spilled_mb,
        ) = if stage.uses_shuffle_memory && !stage.input_per_task.is_zero() {
            let demand = stage.input_per_task * stage.shuffle_expansion;
            let budget = per_task_shuffle_budget;
            if demand <= budget {
                // Fully in-memory sort: the buffers live for the whole
                // task and tenure to Old.
                (0u32, Mem::ZERO, demand, demand, 0.0, 0.0)
            } else {
                let budget = budget.max(Mem::mb(8.0));
                // External sort: all but the resident buffer is written
                // to spill files and read back during the merge. The
                // resident buffer itself lives for the whole task and
                // tenures to Old just like an in-memory sort's buffer.
                let spills = ((demand / budget).ceil() as u32).saturating_sub(1).max(1);
                let spilled = (demand - budget).min(budget * spills as f64);
                (
                    spills,
                    budget,
                    budget,
                    budget,
                    spilled.as_mb() * 2.0,
                    spilled.as_mb(),
                )
            }
        } else {
            (0, Mem::ZERO, Mem::ZERO, Mem::ZERO, 0.0, 0.0)
        };

        let shuffle_write_mb = stage.shuffle_write_per_task.as_mb();
        // Spill I/O is sequential and substantially overlapped with the
        // sort/merge computation.
        let disk_time_ms =
            (spill_disk_mb * cost.spill_overlap + shuffle_write_mb) / disk_mb_s * 1000.0;

        let sort_live = sort_live_per_task * m_f;
        let state = &mut self.containers[idx];
        let noise = state.rng.noise_factor(noise_level);
        let compute = Millis::ms(
            (input_time_ms + cpu_time_ms + disk_time_ms) * noise * straggle
                + cost.wave_overhead.as_ms(),
        );

        // Cache population: fill toward this container's target.
        let cache_fill = if stage.cache_block_per_task.is_zero() {
            Mem::ZERO
        } else {
            (stage.cache_block_per_task * m_f)
                .min((cache_target - state.cache_used).clamp_non_negative())
        };

        // JVM pressure: sticky skew (fixed per stage/wave/container) plus
        // transient burstiness (re-sampled per attempt). Per-task variation
        // is independent, so the relative noise of the container's combined
        // working set shrinks with √(concurrency) — one big heap shared by
        // many tasks smooths allocation peaks that would sink a small heap
        // running few tasks.
        let noise_scale = 1.0 / m_f.sqrt();
        let skew = Rng::new(skew_seed).noise_factor(cost.skew_noise * noise_scale);
        let state = &mut self.containers[idx];
        let mem_noise = state.rng.noise_factor(cost.mem_noise * noise_scale);
        let working = stage.unmanaged_per_task * m_f * skew * mem_noise;
        let shuffle_live = shuffle_live_per_task * m_f;
        let off_heap_noise = state.rng.noise_factor(0.06);
        let pressure = WavePressure {
            compute_time: compute,
            churn: stage.input_per_task * stage.churn_factor * m_f
                + stage.shuffle_write_per_task * m_f,
            working_set: working,
            tenured_delta: cache_fill,
            shuffle_live,
            spill_batch,
            spill_events: spill_events * tasks,
            // Fetch buffers cycle roughly twice per task: the allocated
            // (and discarded) volume is twice the live pool.
            off_heap_alloc: stage.off_heap_per_task * m_f * 2.0 * off_heap_noise,
            off_heap_live: stage.off_heap_per_task * m_f * off_heap_noise,
            sort_live,
        };

        state.jvm.set_cache_used(state.cache_used);
        state.jvm.set_wave_slowdown(straggle);
        let gc = state.jvm.simulate_wave(now, &pressure);

        // Failure checks.
        let failure = if gc.oom {
            Some(FailureKind::Oom)
        } else {
            let usable = state.jvm.layout().usable();
            let demand = code_overhead + state.cache_used + cache_fill + working + shuffle_live;
            let margin = (usable - demand) / usable;
            let soft_oom = margin < cost.soft_oom_margin_cutoff
                && state.rng.chance(
                    cost.soft_oom_coeff * (-margin.max(0.0) / cost.soft_oom_margin_scale).exp(),
                );
            // Sustained full-GC thrashing eventually surfaces as
            // "GC overhead limit exceeded" out-of-memory errors.
            let thrash_oom = gc.promotion_failure && state.rng.chance(cost.gc_thrash_oom_prob);
            if soft_oom || thrash_oom {
                Some(FailureKind::Oom)
            } else if gc.peak_rss > spec.phys_cap {
                Some(FailureKind::RssKill(gc.peak_rss))
            } else {
                None
            }
        };

        ContainerWave {
            compute,
            gc_pause: gc.gc_pause,
            cache_fill,
            shuffle_live,
            cpu_raw_core_ms: cpu_raw_ms + input_mb * 0.4,
            disk_mb: input_disk_mb + spill_disk_mb + shuffle_write_mb,
            shuffle_mb: if stage.uses_shuffle_memory {
                input_mb * stage.shuffle_expansion
            } else {
                0.0
            },
            spilled_mb,
            spill_events: spill_events * tasks,
            tasks,
            failure,
        }
    }

    /// Simulates one attempt at a wave across all containers.
    fn attempt_wave(
        &mut self,
        stage: &StageSpec,
        hashes: &StageHashes,
        wave_idx: u32,
        base_tasks: u32,
        extra: u32,
        attempt: u32,
    ) -> WaveAttempt {
        let n = self.containers.len();
        let mut wave_wall = Millis::ZERO;
        let sites = hashes.faults.as_ref();

        // Node loss preempts the whole wave: every container on the victim
        // node dies before any task finishes.
        if let Some(node) =
            sites.and_then(|s| s.node_loss(wave_idx, attempt, self.engine.cluster.nodes))
        {
            let cpn = self.config.containers_per_node.max(1);
            let recovery = self.rm.report_node_loss(self.now, cpn);
            self.engine.obs.inc("faults.injected");
            self.engine.obs.inc("faults.injected.node_loss");
            return WaveAttempt::NodeLost { node, recovery };
        }

        for idx in 0..n {
            let tasks = base_tasks + u32::from((idx as u32) < extra);
            if tasks == 0 {
                continue;
            }

            let straggle = sites
                .and_then(|s| s.straggler(wave_idx, idx, attempt))
                .unwrap_or(1.0);
            if straggle > 1.0 {
                self.soft_injections += 1;
                self.engine.obs.inc("faults.injected");
                self.engine.obs.inc("faults.injected.straggler");
            }

            let skew_seed = hashes.skew_seed(wave_idx, idx);
            let mut wave = self.simulate_container(idx, stage, skew_seed, tasks, straggle);

            // An injected kill takes the container down even if the wave
            // would have survived organically; organic failures win the
            // race because they fire first.
            if wave.failure.is_none()
                && sites
                    .and_then(|s| s.container_kill(wave_idx, idx, attempt))
                    .is_some()
            {
                wave.failure = Some(FailureKind::Injected);
            }

            if let Some(kind) = wave.failure {
                // The attempt consumed time up to the failure.
                self.now += wave_wall.max(wave.compute * 0.7);
                let recovery = match kind {
                    FailureKind::Oom => self.rm.report_oom(self.now),
                    FailureKind::RssKill(rss) => self
                        .rm
                        .check_rss(self.now, &self.container_spec, rss)
                        .expect("rss kill failure implies rss above cap"),
                    FailureKind::Injected => {
                        self.engine.obs.inc("faults.injected");
                        self.engine.obs.inc("faults.injected.container_kill");
                        self.rm.report_injected_kill(self.now)
                    }
                };
                return WaveAttempt::ContainerFailed {
                    idx,
                    kind,
                    recovery,
                };
            }

            // Commit.
            let total = wave.compute + wave.gc_pause;
            wave_wall = wave_wall.max(total);
            let m_f = wave.tasks as f64;
            self.cpu_busy_core_ms += wave.cpu_raw_core_ms * m_f;
            self.disk_bytes_mb += wave.disk_mb * m_f;
            self.busy_time += total * m_f;
            self.pause_time += wave.gc_pause * m_f;
            self.shuffle_bytes_mb += wave.shuffle_mb * m_f;
            self.spilled_bytes_mb += wave.spilled_mb * m_f;
            self.spill_events += wave.spill_events as u64;

            let state = &mut self.containers[idx];
            state.cache_used += wave.cache_fill;
            state.record.commit(
                self.now,
                &state.jvm,
                state.cache_used,
                wave.shuffle_live,
                wave.tasks,
            );
        }

        self.now += wave_wall;
        WaveAttempt::Ok
    }

    /// Replaces a failed container with a fresh JVM process. The replacement
    /// keeps the accumulated record (the profiler observes the whole run) and
    /// is assumed to re-populate its cache during the retry (the time cost is
    /// charged in the recovery delay by the caller via `recache_ms_per_mb`).
    fn replace_container(&mut self, idx: usize, _kind: FailureKind) {
        let settings = GcSettings::from_config(&self.config);
        let old = &mut self.containers[idx];
        let lost_cache = old.cache_used;
        let mut record = std::mem::replace(&mut old.record, R::new(self.app.code_overhead));
        record.retire(&old.jvm, self.now);
        let rng = old.rng.fork(0xDEAD_BEEF);
        let mut fresh = ContainerState::new(
            self.config.heap,
            settings,
            self.engine.cost.gc,
            self.app.code_overhead,
            rng,
            record,
        );
        fresh.cache_used = lost_cache;
        self.now += Millis::ms(lost_cache.as_mb() * self.engine.cost.recache_ms_per_mb);
        self.containers[idx] = fresh;
    }

    /// The run's result, and the run-level figures its profile reports.
    fn finish(&mut self) -> (RunResult, Summary) {
        let elapsed = self.now.max(Millis::ms(1.0));
        let cluster = &self.engine.cluster;
        let total_cores = (cluster.nodes * cluster.cores_per_node) as f64;
        let avg_cpu_util =
            (self.cpu_busy_core_ms / (total_cores * elapsed.as_ms())).clamp(0.0, 1.0);
        let total_disk_mb_s = cluster.disk_mb_per_s * cluster.nodes as f64;
        let avg_disk_util =
            (self.disk_bytes_mb / (total_disk_mb_s * elapsed.as_secs())).clamp(0.0, 1.0);

        let gc_overhead = if self.busy_time > Millis::ZERO {
            (self.pause_time / self.busy_time).clamp(0.0, 1.0)
        } else {
            0.0
        };

        let max_heap_util = self
            .containers
            .iter()
            .map(|c| c.jvm.peak_heap_used() / self.config.heap)
            .fold(0.0, f64::max)
            .clamp(0.0, 1.0);

        let spill_fraction = if self.shuffle_bytes_mb == 0.0 {
            0.0
        } else {
            (self.spilled_bytes_mb / self.shuffle_bytes_mb).clamp(0.0, 1.0)
        };

        let young_gcs: u64 = self.containers.iter().map(|c| c.jvm.young_gc_count()).sum();
        let full_gcs: u64 = self.containers.iter().map(|c| c.jvm.full_gc_count()).sum();

        // Decide profile corruption before assembling the result so the
        // injection tally includes it.
        let noise = self
            .engine
            .faults
            .as_ref()
            .and_then(|p| p.profile_corruption(self.seed));
        if noise.is_some() {
            self.soft_injections += 1;
            self.engine.obs.inc("faults.injected");
            self.engine.obs.inc("faults.injected.profile_corruption");
        }

        let result = RunResult {
            runtime: elapsed,
            aborted: self.aborted,
            abort_cause: self.abort_cause,
            container_failures: self.rm.failures(),
            injected_faults: self.rm.injected_failures() + self.soft_injections,
            oom_failures: self.rm.oom_failures(),
            rss_kills: self.rm.rss_kills(),
            max_heap_util,
            avg_cpu_util,
            avg_disk_util,
            gc_overhead,
            cache_hit_ratio: self.hit_ratio,
            spill_fraction,
            young_gcs,
            full_gcs,
        };

        let mut summary = Summary {
            duration: elapsed,
            cpu_avg: avg_cpu_util * 100.0,
            disk_avg: avg_disk_util * 100.0,
            cache_hit_ratio: self.hit_ratio,
            spill_fraction,
            gc_overhead,
            noise,
        };
        summary.corrupt();
        (result, summary)
    }
}

impl RunSim<'_, ContainerTrace> {
    /// The run's profile.
    fn profile(&mut self, mut summary: Summary) -> Profile {
        let containers = self
            .containers
            .iter_mut()
            .map(|c| {
                let mut trace = std::mem::take(&mut c.record);
                trace.gc_events = c.jvm.events().to_vec();
                trace.peak_heap_used = c.jvm.peak_heap_used();
                trace.peak_old_used = c.jvm.peak_old_used();
                for &(t, rss) in c.jvm.rss_samples() {
                    trace.rss.push_clamped(t, rss);
                }
                if let Some(noise) = &mut summary.noise {
                    corrupt_container(
                        noise,
                        &c.jvm,
                        &mut trace.peak_heap_used,
                        &mut trace.peak_old_used,
                        &mut trace.gc_events,
                    );
                }
                trace
            })
            .collect();
        Profile {
            app_name: self.app.name.clone(),
            config: self.config,
            duration: summary.duration,
            cpu_avg: summary.cpu_avg,
            disk_avg: summary.disk_avg,
            cache_hit_ratio: summary.cache_hit_ratio,
            spill_fraction: summary.spill_fraction,
            containers,
            gc_overhead: summary.gc_overhead,
        }
    }
}

impl RunSim<'_, ContainerInputs> {
    /// The inputs of the run's Table-6 statistics.
    fn stats_inputs(&mut self, mut summary: Summary) -> StatsInputs {
        let containers = self
            .containers
            .iter_mut()
            .map(|c| {
                let mut inputs = std::mem::take(&mut c.record);
                debug_assert_eq!(inputs.full_gcs.len(), c.jvm.events().len());
                inputs.peak_old_used = c.jvm.peak_old_used();
                if let Some(noise) = &mut summary.noise {
                    let mut peak_heap_used = c.jvm.peak_heap_used();
                    corrupt_container(
                        noise,
                        &c.jvm,
                        &mut peak_heap_used,
                        &mut inputs.peak_old_used,
                        &mut inputs.full_gcs,
                    );
                }
                inputs
            })
            .collect();
        StatsInputs {
            config: self.config,
            cpu_avg: summary.cpu_avg,
            disk_avg: summary.disk_avg,
            cache_hit_ratio: summary.cache_hit_ratio,
            spill_fraction: summary.spill_fraction,
            containers,
        }
    }
}

// Profile corruption degrades a collected profile the way a flaky
// monitoring stack does: summary statistics drift (clock skew, partial
// sample windows) and individual GC events go missing (log rotation,
// dropped scrapes). The perturbation is multiplicative and clamped into
// each statistic's valid range, so downstream consumers get a *plausible*
// but wrong profile — exactly the failure mode white-box tuning must
// survive. Both runs take the same draws in the same order: five
// profile-level factors (`Summary::corrupt`), then per container one
// factor and one coin per collection (`corrupt_container`).

impl Summary {
    /// The five profile-level corruption draws, when the plan corrupts
    /// this run.
    fn corrupt(&mut self) {
        let Some(noise) = &mut self.noise else {
            return;
        };
        self.cpu_avg = (self.cpu_avg * noise.factor()).clamp(0.0, 100.0);
        self.disk_avg = (self.disk_avg * noise.factor()).clamp(0.0, 100.0);
        self.cache_hit_ratio = (self.cache_hit_ratio * noise.factor()).clamp(0.0, 1.0);
        self.spill_fraction = (self.spill_fraction * noise.factor()).clamp(0.0, 1.0);
        self.gc_overhead = (self.gc_overhead * noise.factor()).clamp(0.0, 1.0);
    }
}

/// One container's corruption draws: one factor for its peaks, then one
/// coin per collection its final JVM ran, young ones included. `events[k]`
/// stands for the event `jvm` logged `k`-th, so a run that kept only the
/// full-GC events drops exactly the ones a timeline run drops.
fn corrupt_container<E>(
    noise: &mut ProfileNoise,
    jvm: &JvmSim,
    peak_heap_used: &mut Mem,
    peak_old_used: &mut Mem,
    events: &mut Vec<E>,
) {
    let f = noise.factor();
    *peak_heap_used = *peak_heap_used * f;
    *peak_old_used = (*peak_old_used * f).min(*peak_heap_used);
    let collections = jvm.young_gc_count() + jvm.full_gc_count();
    let dropped: Vec<bool> = (0..collections).map(|_| noise.chance(0.3)).collect();
    let mut k = 0;
    events.retain(|_| {
        k += 1;
        !dropped[jvm.event_position(k - 1) as usize]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppSpec, StageSpec};

    fn engine() -> Engine {
        Engine::new(ClusterSpec::cluster_a())
    }

    fn default_config() -> MemoryConfig {
        MemoryConfig {
            containers_per_node: 1,
            heap: Mem::mb(4404.0),
            task_concurrency: 2,
            cache_fraction: 0.3,
            shuffle_fraction: 0.3,
            new_ratio: 2,
            survivor_ratio: 8,
        }
    }

    fn simple_app() -> AppSpec {
        let mut map = StageSpec::new("map", 200, Mem::mb(128.0));
        map.cpu_ms_per_mb = 25.0;
        map.unmanaged_per_task = Mem::mb(180.0);
        AppSpec::new("simple", vec![map])
    }

    /// The per-call skew hash that [`StageHashes::skew_seed`] replaced:
    /// FNV-1a over every coordinate, stage name included.
    fn skew_hash(seed: u64, stage: &str, wave: u32, container: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for b in seed.to_le_bytes() {
            eat(b);
        }
        for b in stage.bytes() {
            eat(b);
        }
        for b in wave.to_le_bytes() {
            eat(b);
        }
        for b in (container as u64).to_le_bytes() {
            eat(b);
        }
        h
    }

    #[test]
    fn stage_skew_prefix_matches_the_per_call_hash() {
        let mut rng = Rng::new(3);
        for stage in ["", "map", "reduceByKey", "stage-é日🦀"] {
            for _ in 0..200 {
                let seed = rng.next_u64();
                let wave = rng.next_u64() as u32;
                let container = rng.below(64);
                let hashes = StageHashes::new(seed, stage, None);
                assert_eq!(
                    hashes.skew_seed(wave, container),
                    skew_hash(seed, stage, wave, container),
                    "seed {seed}, stage {stage:?}, wave {wave}, container {container}"
                );
            }
        }
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let e = engine();
        let app = simple_app();
        let cfg = default_config();
        let (r1, _) = e.run(&app, &cfg, 7);
        let (r2, _) = e.run(&app, &cfg, 7);
        assert_eq!(r1, r2);
    }

    #[test]
    fn different_seeds_vary_runtime_slightly() {
        let e = engine();
        let app = simple_app();
        let cfg = default_config();
        let (r1, _) = e.run(&app, &cfg, 1);
        let (r2, _) = e.run(&app, &cfg, 2);
        assert_ne!(r1.runtime, r2.runtime);
        let ratio = r1.runtime / r2.runtime;
        assert!(ratio > 0.7 && ratio < 1.4, "noise too large: {ratio}");
    }

    #[test]
    fn more_containers_speed_up_cpu_bound_work() {
        let e = engine();
        let app = simple_app();
        let mut fat = default_config();
        let mut thin = default_config();
        thin.containers_per_node = 4;
        thin.heap = Mem::mb(1101.0);
        fat.containers_per_node = 1;
        let (r_fat, _) = e.run(&app, &fat, 3);
        let (r_thin, _) = e.run(&app, &thin, 3);
        assert!(
            r_thin.runtime < r_fat.runtime * 0.7,
            "thin {} vs fat {}",
            r_thin.runtime,
            r_fat.runtime
        );
    }

    #[test]
    fn cache_hit_ratio_follows_capacity() {
        let e = engine();
        let mut load = StageSpec::new("load", 160, Mem::mb(128.0));
        load.cache_block_per_task = Mem::mb(200.0); // 32GB demand >> capacity
        let mut iter = StageSpec::new("iter", 160, Mem::mb(200.0));
        iter.in_iteration = true;
        iter.input = InputSource::Cached {
            miss_penalty_ms_per_mb: 30.0,
        };
        let mut app = AppSpec::new("cachey", vec![load, iter]);
        app.iterations = 3;

        let cfg = default_config();
        let (r, _) = e.run(&app, &cfg, 5);
        // Demand per container = 32000/8 = 4000MB; capacity = 0.3*4404*0.97.
        assert!(r.cache_hit_ratio < 0.5, "hit ratio = {}", r.cache_hit_ratio);
        assert!(r.cache_hit_ratio > 0.2);

        let mut big = cfg;
        big.cache_fraction = 0.6;
        big.shuffle_fraction = 0.0;
        big.new_ratio = 5; // keep old large enough for the bigger cache
        let (r2, _) = e.run(&app, &big, 5);
        assert!(r2.cache_hit_ratio > r.cache_hit_ratio);
    }

    #[test]
    fn oversized_working_set_aborts() {
        let e = engine();
        let mut map = StageSpec::new("map", 64, Mem::mb(512.0));
        map.unmanaged_per_task = Mem::mb(3000.0); // cannot fit 2 tasks in 4.4GB
        let app = AppSpec::new("oom", vec![map]);
        let (r, _) = e.run(&app, &default_config(), 1);
        assert!(r.aborted);
        assert!(r.oom_failures > 0);
    }

    #[test]
    fn spills_happen_when_shuffle_pool_is_small() {
        let e = engine();
        let mut map = StageSpec::new("map", 60, Mem::mb(512.0));
        map.shuffle_write_per_task = Mem::mb(512.0);
        map.unmanaged_per_task = Mem::mb(300.0);
        let mut reduce = StageSpec::new("reduce", 60, Mem::mb(512.0));
        reduce.input = InputSource::ShuffleRead;
        reduce.uses_shuffle_memory = true;
        reduce.unmanaged_per_task = Mem::mb(200.0);
        let app = AppSpec::new("sort", vec![map, reduce]);

        let mut small = default_config();
        small.shuffle_fraction = 0.05;
        small.cache_fraction = 0.0;
        let (r_small, _) = e.run(&app, &small, 2);
        assert!(
            r_small.spill_fraction > 0.9,
            "spill = {}",
            r_small.spill_fraction
        );

        let mut big = default_config();
        big.shuffle_fraction = 0.5;
        big.cache_fraction = 0.0;
        let (r_big, _) = e.run(&app, &big, 2);
        assert!(r_big.spill_fraction < r_small.spill_fraction);
    }

    #[test]
    fn profile_contains_all_containers_and_timelines() {
        let e = engine();
        let app = simple_app();
        let cfg = default_config();
        let (_, profile) = e.run(&app, &cfg, 9);
        assert_eq!(profile.containers.len(), 8);
        for c in &profile.containers {
            assert!(!c.running_tasks.is_empty());
            assert_eq!(c.code_overhead, Mem::mb(110.0));
        }
        assert!(profile.duration > Millis::ZERO);
    }

    #[test]
    fn gc_overhead_grows_with_task_concurrency_under_memory_pressure() {
        let e = engine();
        let mut map = StageSpec::new("map", 400, Mem::mb(128.0));
        map.unmanaged_per_task = Mem::mb(380.0);
        map.churn_factor = 4.0;
        let app = AppSpec::new("pressure", vec![map]);
        let mut low = default_config();
        low.task_concurrency = 1;
        let mut high = default_config();
        high.task_concurrency = 6;
        let (r_low, _) = e.run(&app, &low, 4);
        let (r_high, _) = e.run(&app, &high, 4);
        assert!(
            r_high.gc_overhead >= r_low.gc_overhead,
            "gc overhead should not drop with concurrency: {} vs {}",
            r_high.gc_overhead,
            r_low.gc_overhead
        );
    }

    #[test]
    fn fault_injection_is_deterministic() {
        use relm_faults::{FaultConfig, FaultPlan};
        let e = engine().with_faults(FaultPlan::new(99, FaultConfig::uniform(0.10)));
        let app = simple_app();
        let cfg = default_config();
        let (r1, p1) = e.run(&app, &cfg, 7);
        let (r2, p2) = e.run(&app, &cfg, 7);
        assert_eq!(r1, r2);
        assert_eq!(p1.cpu_avg, p2.cpu_avg);
        assert_eq!(p1.cache_hit_ratio, p2.cache_hit_ratio);
    }

    #[test]
    fn injected_faults_slow_the_run_but_are_not_the_configs_fault() {
        use relm_faults::{FaultConfig, FaultPlan};
        let app = simple_app();
        let cfg = default_config();
        let (clean, _) = engine().run(&app, &cfg, 13);
        assert_eq!(clean.injected_faults, 0);

        let faulty = engine().with_faults(FaultPlan::new(5, FaultConfig::uniform(0.15)));
        let (r, _) = faulty.run(&app, &cfg, 13);
        assert!(r.injected_faults > 0, "a 15% plan must inject something");
        assert!(
            r.runtime > clean.runtime,
            "recovery delays must cost wall time: {} vs {}",
            r.runtime,
            clean.runtime
        );
        assert_eq!(r.oom_failures, 0);
        assert_eq!(r.rss_kills, 0);
        assert!(
            r.is_safe(),
            "injected faults must not mark the config unsafe"
        );
    }

    #[test]
    fn off_plan_matches_no_plan_exactly() {
        use relm_faults::{FaultConfig, FaultPlan};
        let app = simple_app();
        let cfg = default_config();
        let (plain, _) = engine().run(&app, &cfg, 21);
        let off = engine().with_faults(FaultPlan::new(1, FaultConfig::off()));
        let (gated, _) = off.run(&app, &cfg, 21);
        assert_eq!(plain, gated);
    }

    #[test]
    fn organic_aborts_carry_a_persistent_cause() {
        use relm_faults::{AbortCause, AbortClass};
        let e = engine();
        let mut map = StageSpec::new("map", 64, Mem::mb(512.0));
        map.unmanaged_per_task = Mem::mb(3000.0);
        let app = AppSpec::new("oom", vec![map]);
        let (r, _) = e.run(&app, &default_config(), 1);
        assert!(r.aborted);
        assert_eq!(r.abort_cause, Some(AbortCause::Oom));
        assert_eq!(r.abort_cause.unwrap().class(), AbortClass::Persistent);
        assert!(!r.is_safe());
    }

    #[test]
    fn utilization_metrics_are_fractions() {
        let e = engine();
        let (r, _) = e.run(&simple_app(), &default_config(), 11);
        for v in [
            r.avg_cpu_util,
            r.avg_disk_util,
            r.max_heap_util,
            r.gc_overhead,
        ] {
            assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
        }
        assert!(r.avg_cpu_util > 0.0);
    }
}
