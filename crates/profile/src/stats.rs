//! The Statistics Generator (§4.1): turns a [`Profile`] into the Table-6
//! statistics that RelM's analytical models consume. The formulas live in
//! [`StatsInputs::derive`]; [`derive_stats`] first reduces a profile to
//! those inputs, which a statistics-only engine run fills directly.
//!
//! The trickiest statistic is the Task Unmanaged memory `M_u`. The
//! application does not track this pool, so it is reconstructed at each
//! *full-GC* event: immediately after a full collection the heap holds only
//! live data, so `heap_after − M_i − cache(t)` is the memory held by the
//! tasks running at `t`, and dividing by the number of running tasks gives a
//! per-task figure (§4.1). When the profile contains no full-GC event, the
//! generator falls back to the maximum Old-pool occupancy — a deliberate
//! over-estimate whose consequences §6.4/Figure 22 studies.

use crate::trace::Profile;
use relm_common::{stats, Mem, MemoryConfig};
use relm_jvm::GcKind;
use serde::{Deserialize, Serialize};

/// The statistics of Table 6, derived from an application profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DerivedStats {
    /// Containers per node of the profiled run (N).
    pub containers_per_node: u32,
    /// Heap size of the profiled run (`M_h`).
    pub heap: Mem,
    /// Average CPU usage, percent.
    pub cpu_avg: f64,
    /// Average disk usage, percent.
    pub disk_avg: f64,
    /// Code Overhead, 90th-percentile across containers (`M_i`).
    pub m_i: Mem,
    /// Cache Storage usage, 90th-percentile of per-container maxima (`M_c`).
    pub m_c: Mem,
    /// Per-task Task Shuffle usage, 90th percentile (`M_s`).
    pub m_s: Mem,
    /// Per-task Task Unmanaged usage, 90th percentile (`M_u`).
    pub m_u: Mem,
    /// Task Concurrency of the profiled run (P).
    pub p: u32,
    /// Cache Hit Ratio (H).
    pub h: f64,
    /// Data Spillage Fraction (S).
    pub s: f64,
    /// Whether `M_u` was derived from full-GC events (accurate) or from the
    /// maximum Old-pool occupancy (over-estimate).
    pub m_u_from_full_gc: bool,
}

/// Derives the Table-6 statistics from a profile: resolves it into
/// [`StatsInputs`], then computes them with [`StatsInputs::derive`].
pub fn derive_stats(profile: &Profile) -> DerivedStats {
    let p = profile.config.task_concurrency.max(1);
    let containers = profile
        .containers
        .iter()
        .map(|c| {
            let full = c.gc_events.iter().filter(|e| e.kind == GcKind::Full);
            let mut full_gcs = Vec::with_capacity(full.clone().count());
            full_gcs.extend(full.map(|e| FullGcSample {
                heap_used_after: e.heap_used_after,
                cache_used: c.cache_used.at(e.time).unwrap_or(Mem::ZERO),
                shuffle_used: c.shuffle_used.at(e.time).unwrap_or(Mem::ZERO),
                running_tasks: c.running_tasks.at(e.time).unwrap_or(p),
            }));
            ContainerInputs {
                code_overhead: c.code_overhead,
                max_cache_used: c.max_cache_used(),
                max_shuffle_used: c.max_shuffle_used(),
                peak_old_used: c.peak_old_used,
                full_gcs,
            }
        })
        .collect();
    StatsInputs {
        config: profile.config,
        cpu_avg: profile.cpu_avg,
        disk_avg: profile.disk_avg,
        cache_hit_ratio: profile.cache_hit_ratio,
        spill_fraction: profile.spill_fraction,
        containers,
    }
    .derive()
}

/// Everything the Table-6 statistics read from one run. [`derive_stats`]
/// resolves a [`Profile`] into these inputs; a statistics-only engine run
/// fills them while it simulates and never records a profile.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsInputs {
    /// The configuration the run used.
    pub config: MemoryConfig,
    /// Average CPU usage, percent.
    pub cpu_avg: f64,
    /// Average disk usage, percent.
    pub disk_avg: f64,
    /// Cache Hit Ratio (H).
    pub cache_hit_ratio: f64,
    /// Data Spillage Fraction (S).
    pub spill_fraction: f64,
    /// One entry per container, in container order.
    pub containers: Vec<ContainerInputs>,
}

/// One container's share of [`StatsInputs`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContainerInputs {
    /// Heap usage at the first task submission (`M_i`).
    pub code_overhead: Mem,
    /// Maximum observed Cache Storage usage.
    pub max_cache_used: Mem,
    /// Maximum observed Task Shuffle usage.
    pub max_shuffle_used: Mem,
    /// Peak Old-generation occupancy, read only when no container kept a
    /// full-GC event.
    pub peak_old_used: Mem,
    /// The full-GC events the profile kept, in logged order.
    pub full_gcs: Vec<FullGcSample>,
}

/// A full-GC event and the pool usage in effect when it was logged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullGcSample {
    /// Heap occupancy right after the collection.
    pub heap_used_after: Mem,
    /// Cache Storage usage.
    pub cache_used: Mem,
    /// Task Shuffle usage.
    pub shuffle_used: Mem,
    /// Concurrently running tasks.
    pub running_tasks: u32,
}

impl StatsInputs {
    /// Computes the Table-6 statistics.
    pub fn derive(&self) -> DerivedStats {
        let m_i = Mem::mb(self.percentile_90(|c| c.code_overhead.as_mb()));
        let m_c = Mem::mb(self.percentile_90(|c| c.max_cache_used.as_mb()));

        let p = self.config.task_concurrency.max(1);

        // Per-task shuffle: assume each running task contributes equally (§4.1).
        let m_s = Mem::mb(self.percentile_90(|c| c.max_shuffle_used.as_mb() / p as f64));

        // Task Unmanaged from full-GC events.
        let samples = self.containers.iter().map(|c| c.full_gcs.len()).sum();
        let mut per_task_samples = Vec::with_capacity(samples);
        per_task_samples.extend(self.containers.iter().flat_map(|c| &c.full_gcs).map(|s| {
            let task_mem =
                (s.heap_used_after - m_i - s.cache_used - s.shuffle_used).clamp_non_negative();
            task_mem.as_mb() / s.running_tasks.max(1) as f64
        }));

        let (m_u, from_full_gc) = if per_task_samples.is_empty() {
            // Fallback (§4.1): base the calculation on the maximum Old-pool
            // occupancy. Old holds the cached partitions and any promoted
            // garbage alongside task objects, and without a full-GC event there
            // is no way to tell them apart — which is exactly why the paper
            // reports this estimate as off by up to two orders of magnitude on
            // the high side, yielding sub-optimal (albeit reliable)
            // recommendations.
            let max_old = Mem::mb(self.percentile_90(|c| c.peak_old_used.as_mb()));
            let estimate = (max_old - m_i).clamp_non_negative() / p as f64;
            (estimate, false)
        } else {
            (Mem::mb(stats::percentile(&per_task_samples, 90.0)), true)
        };

        DerivedStats {
            containers_per_node: self.config.containers_per_node,
            heap: self.config.heap,
            cpu_avg: self.cpu_avg,
            disk_avg: self.disk_avg,
            m_i,
            m_c,
            m_s,
            m_u,
            p,
            h: self.cache_hit_ratio,
            s: self.spill_fraction,
            m_u_from_full_gc: from_full_gc,
        }
    }

    /// The 90th percentile across containers of `mb`.
    fn percentile_90(&self, mb: impl Fn(&ContainerInputs) -> f64) -> f64 {
        let xs: Vec<f64> = self.containers.iter().map(mb).collect();
        stats::percentile(&xs, 90.0)
    }
}

/// Streaming aggregator of [`DerivedStats`] across a session's *clean*
/// (non-aborted) evaluations.
///
/// A tuning session throws its profiles away once each observation is
/// scored; this accumulator is the compact remainder that survives — the
/// running sums needed to reconstruct a mean Table-6 statistics vector at
/// any point, when no live profile exists anymore. `relm-memory`
/// fingerprints workloads from exactly this mean. A `SessionCheckpoint`
/// carries it, so it survives a serve session's eviction and resume and a
/// checkpoint loaded in another process.
///
/// Both the live evaluation path and the cache-replay path feed the same
/// per-observation stats in history order, so an accumulator restored
/// from a replayed session is bit-identical to the live one.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsAccumulator {
    /// Clean evaluations aggregated.
    count: u64,
    containers: f64,
    heap_mb: f64,
    cpu_avg: f64,
    disk_avg: f64,
    m_i_mb: f64,
    m_c_mb: f64,
    m_s_mb: f64,
    m_u_mb: f64,
    p: f64,
    h: f64,
    s: f64,
    /// How many aggregated runs derived `M_u` from a full-GC event.
    full_gc: u64,
}

impl StatsAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        StatsAccumulator::default()
    }

    /// Folds one run's statistics into the running sums.
    pub fn add(&mut self, stats: &DerivedStats) {
        self.count += 1;
        self.containers += stats.containers_per_node as f64;
        self.heap_mb += stats.heap.as_mb();
        self.cpu_avg += stats.cpu_avg;
        self.disk_avg += stats.disk_avg;
        self.m_i_mb += stats.m_i.as_mb();
        self.m_c_mb += stats.m_c.as_mb();
        self.m_s_mb += stats.m_s.as_mb();
        self.m_u_mb += stats.m_u.as_mb();
        self.p += stats.p as f64;
        self.h += stats.h;
        self.s += stats.s;
        if stats.m_u_from_full_gc {
            self.full_gc += 1;
        }
    }

    /// Runs aggregated so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been aggregated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The mean statistics vector, or `None` when nothing was aggregated.
    /// Integer fields round to the nearest profiled value;
    /// `m_u_from_full_gc` reports the majority.
    pub fn mean(&self) -> Option<DerivedStats> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        Some(DerivedStats {
            containers_per_node: ((self.containers / n).round() as u32).max(1),
            heap: Mem::mb(self.heap_mb / n),
            cpu_avg: self.cpu_avg / n,
            disk_avg: self.disk_avg / n,
            m_i: Mem::mb(self.m_i_mb / n),
            m_c: Mem::mb(self.m_c_mb / n),
            m_s: Mem::mb(self.m_s_mb / n),
            m_u: Mem::mb(self.m_u_mb / n),
            p: ((self.p / n).round() as u32).max(1),
            h: self.h / n,
            s: self.s / n,
            m_u_from_full_gc: self.full_gc * 2 >= self.count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ContainerTrace;
    use relm_common::{MemoryConfig, Millis};
    use relm_jvm::GcEvent;

    fn base_config() -> MemoryConfig {
        MemoryConfig {
            containers_per_node: 1,
            heap: Mem::mb(4404.0),
            task_concurrency: 2,
            cache_fraction: 0.4,
            shuffle_fraction: 0.2,
            new_ratio: 2,
            survivor_ratio: 8,
        }
    }

    fn full_gc_event(t: f64, heap_after_mb: f64) -> GcEvent {
        GcEvent {
            time: Millis::secs(t),
            kind: GcKind::Full,
            pause: Millis::ms(300.0),
            heap_used_after: Mem::mb(heap_after_mb),
            old_used_after: Mem::mb(heap_after_mb),
            rss: Mem::mb(4800.0),
        }
    }

    fn trace_with_full_gc() -> ContainerTrace {
        let mut trace = ContainerTrace {
            code_overhead: Mem::mb(115.0),
            peak_old_used: Mem::mb(3200.0),
            ..Default::default()
        };
        trace.cache_used.push(Millis::ZERO, Mem::mb(2300.0));
        trace.running_tasks.push(Millis::ZERO, 2);
        // heap after full GC = 115 (code) + 2300 (cache) + 2*770 (tasks)
        trace
            .gc_events
            .push(full_gc_event(10.0, 115.0 + 2300.0 + 1540.0));
        trace
    }

    fn profile(containers: Vec<ContainerTrace>) -> Profile {
        Profile {
            app_name: "PageRank".into(),
            config: base_config(),
            duration: Millis::mins(60.0),
            cpu_avg: 35.0,
            disk_avg: 2.0,
            cache_hit_ratio: 0.3,
            spill_fraction: 0.0,
            containers,
            gc_overhead: 0.28,
        }
    }

    #[test]
    fn reconstructs_table_6_example() {
        // Mirrors the PageRank example column of Table 6.
        let p = profile(vec![trace_with_full_gc()]);
        let s = derive_stats(&p);
        assert_eq!(s.containers_per_node, 1);
        assert_eq!(s.heap, Mem::mb(4404.0));
        assert_eq!(s.m_i, Mem::mb(115.0));
        assert_eq!(s.m_c, Mem::mb(2300.0));
        assert!((s.m_u.as_mb() - 770.0).abs() < 1.0, "m_u = {}", s.m_u);
        assert!(s.m_u_from_full_gc);
        assert_eq!(s.p, 2);
        assert!((s.h - 0.3).abs() < 1e-12);
    }

    #[test]
    fn no_full_gc_falls_back_to_old_occupancy_and_overestimates() {
        let mut trace = trace_with_full_gc();
        trace.gc_events.clear();
        // Peak old = 3200MB includes promoted garbage.
        let p = profile(vec![trace]);
        let s = derive_stats(&p);
        assert!(!s.m_u_from_full_gc);
        // (3200 - 115) / 2 = 1542.5: a heavy over-estimate of the true 770,
        // because the Old occupancy includes the cached partitions that
        // cannot be told apart from task memory without a full-GC event.
        assert!((s.m_u.as_mb() - 1542.5).abs() < 1.0);
        assert!(s.m_u.as_mb() > 770.0, "the fallback must over-estimate");
    }

    #[test]
    fn shuffle_stat_divides_by_concurrency() {
        let mut trace = ContainerTrace::default();
        trace.shuffle_used.push(Millis::ZERO, Mem::mb(600.0));
        let p = profile(vec![trace]);
        let s = derive_stats(&p);
        assert_eq!(s.m_s, Mem::mb(300.0));
    }

    #[test]
    fn accumulator_mean_reproduces_single_sample_and_averages() {
        let p = profile(vec![trace_with_full_gc()]);
        let s = derive_stats(&p);
        let mut acc = StatsAccumulator::new();
        assert!(acc.mean().is_none());
        acc.add(&s);
        let mean = acc.mean().unwrap();
        assert_eq!(mean.containers_per_node, s.containers_per_node);
        assert!((mean.heap.as_mb() - s.heap.as_mb()).abs() < 1e-9);
        assert!((mean.m_u.as_mb() - s.m_u.as_mb()).abs() < 1e-9);
        assert!(mean.m_u_from_full_gc);

        // A second sample with doubled CPU averages halfway.
        let mut s2 = s;
        s2.cpu_avg = s.cpu_avg * 3.0;
        s2.m_u_from_full_gc = false;
        acc.add(&s2);
        let mean = acc.mean().unwrap();
        assert_eq!(acc.count(), 2);
        assert!((mean.cpu_avg - s.cpu_avg * 2.0).abs() < 1e-9);
        // 1 of 2 from full GC → majority rule keeps it true on the tie.
        assert!(mean.m_u_from_full_gc);
    }

    #[test]
    fn percentile_across_containers_resists_outliers() {
        let mut traces: Vec<ContainerTrace> = (0..10).map(|_| trace_with_full_gc()).collect();
        traces[0].code_overhead = Mem::mb(900.0); // one outlier container
        let p = profile(traces);
        let s = derive_stats(&p);
        assert!(
            s.m_i.as_mb() < 300.0,
            "90th percentile should clip the outlier"
        );
    }

    #[test]
    fn subtracts_shuffle_at_full_gc_time() {
        let mut trace = trace_with_full_gc();
        trace.shuffle_used.push(Millis::ZERO, Mem::mb(200.0));
        // heap after = code + cache + shuffle(200) + tasks(2 * 770)
        trace.gc_events[0].heap_used_after = Mem::mb(115.0 + 2300.0 + 200.0 + 1540.0);
        let p = profile(vec![trace]);
        let s = derive_stats(&p);
        assert!((s.m_u.as_mb() - 770.0).abs() < 1.0);
    }
}
