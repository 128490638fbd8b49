//! The wave-level ParallelGC simulator.
//!
//! One [`JvmSim`] models the heap of a single container. The dataflow engine
//! drives it with one [`WavePressure`] per wave of concurrently running tasks
//! and reads back a [`WaveOutcome`]. The model tracks:
//!
//! * **Eden churn** — short-lived allocations trigger a young collection each
//!   time Eden fills.
//! * **Survivor aging and promotion** — a wave's live working set survives
//!   young collections (copy cost), overflows the survivor space when larger
//!   than it, and tenures to Old after `tenuring_threshold` collections.
//! * **Old-generation pressure** — tenured cache blocks plus promoted
//!   transients fill Old; a full collection runs whenever Old's capacity is
//!   exceeded. When the *stable* tenured set (code overhead + cache) alone
//!   exceeds Old, the JVM enters the *promotion failure* regime of
//!   Observation 5: every young collection degenerates into a full one.
//! * **Shuffle-buffer promotion** — when the live shuffle buffers exceed half
//!   of Eden, every spill's buffer survives a young collection mid-fill and is
//!   promoted, so each spill drags a share of full-GC work behind it
//!   (Observation 7).
//! * **Off-heap reclamation** — native byte buffers are only freed when a
//!   collection runs their cleaners, so infrequent GC lets the resident set
//!   size grow beyond the heap (Observation 6, Figure 11).

use crate::layout::{GcSettings, HeapLayout};
use relm_common::{Mem, Millis};
use serde::{Deserialize, Serialize};

/// Which collector ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GcKind {
    /// Scavenge of the young generation only.
    Young,
    /// Collection and compaction of the entire heap.
    Full,
}

/// One garbage-collection event, as a JMX GC profiler would log it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcEvent {
    /// Simulated time at which the collection finished.
    pub time: Millis,
    /// Collector kind.
    pub kind: GcKind,
    /// Stop-the-world pause.
    pub pause: Millis,
    /// Heap occupancy immediately after the collection.
    pub heap_used_after: Mem,
    /// Old-generation occupancy immediately after the collection.
    pub old_used_after: Mem,
    /// Resident set size of the process at this instant.
    pub rss: Mem,
}

/// Cost constants of the pause/promotion model. The defaults are calibrated
/// to commodity hardware (copying throughput of a few GB/s, full collections
/// of multi-GB heaps taking on the order of a second).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcCostModel {
    /// Fixed cost of a young collection.
    pub young_base: Millis,
    /// Copy cost per MB of live young-generation data.
    pub young_ms_per_mb: f64,
    /// Fixed cost of a full collection.
    pub full_base: Millis,
    /// Scan/compact cost per MB of old-generation occupancy.
    pub full_ms_per_mb: f64,
    /// Extra multiplier applied to full collections triggered by promotion
    /// failure (a failed scavenge precedes the full collection).
    pub promotion_failure_penalty: f64,
    /// Fraction of outstanding off-heap buffers reclaimed by a young GC.
    pub young_offheap_reclaim: f64,
    /// Fraction of outstanding off-heap buffers reclaimed by a full GC.
    pub full_offheap_reclaim: f64,
    /// Constant native overhead of the JVM process (metaspace, code cache,
    /// thread stacks) contributing to RSS beyond the heap.
    pub native_overhead: Mem,
    /// Steady-state fraction of a wave's working set that remains live in the
    /// young generation after the working set has tenured.
    pub steady_young_live_frac: f64,
}

impl Default for GcCostModel {
    fn default() -> Self {
        GcCostModel {
            young_base: Millis::ms(6.0),
            young_ms_per_mb: 0.5,
            full_base: Millis::ms(60.0),
            full_ms_per_mb: 0.45,
            promotion_failure_penalty: 3.0,
            young_offheap_reclaim: 0.65,
            full_offheap_reclaim: 0.9,
            native_overhead: Mem::mb(220.0),
            steady_young_live_frac: 0.25,
        }
    }
}

/// Allocation pressure one wave of concurrent tasks puts on the container.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WavePressure {
    /// GC-free duration of the wave (task compute + I/O time).
    pub compute_time: Millis,
    /// Short-lived allocation volume (deserialization buffers, record
    /// objects, closures) pushed through Eden during the wave.
    pub churn: Mem,
    /// Live task working memory held for the duration of the wave
    /// (task concurrency × per-task unmanaged memory).
    pub working_set: Mem,
    /// New long-lived bytes (cached partitions) allocated during the wave.
    pub tenured_delta: Mem,
    /// Total live shuffle-buffer bytes held by the wave's tasks.
    pub shuffle_live: Mem,
    /// Size of one shuffle buffer fill/drain cycle.
    pub spill_batch: Mem,
    /// Number of shuffle buffer fill/drain cycles during the wave.
    pub spill_events: u32,
    /// Off-heap (native byte buffer) bytes allocated *and discarded* during
    /// the wave; they stay resident until a collection runs their cleaners.
    pub off_heap_alloc: Mem,
    /// Off-heap bytes held live by the wave's running tasks (active fetch
    /// buffers). Contributes to RSS for the duration of the wave.
    pub off_heap_live: Mem,
    /// Long-lived in-memory sort/aggregation buffers held for the whole
    /// task duration. Unlike `shuffle_live` spill batches, these tenure to
    /// the Old generation and create Observation-5-style pressure when they
    /// (together with code overhead and cache) exceed Old's capacity.
    pub sort_live: Mem,
}

impl WavePressure {
    /// A pressure description with no allocation activity.
    pub fn idle(compute_time: Millis) -> Self {
        WavePressure {
            compute_time,
            churn: Mem::ZERO,
            working_set: Mem::ZERO,
            tenured_delta: Mem::ZERO,
            shuffle_live: Mem::ZERO,
            spill_batch: Mem::ZERO,
            spill_events: 0,
            off_heap_alloc: Mem::ZERO,
            off_heap_live: Mem::ZERO,
            sort_live: Mem::ZERO,
        }
    }
}

/// What the JVM did during one wave.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaveOutcome {
    /// Young collections during the wave.
    pub young_gcs: u32,
    /// Full collections during the wave.
    pub full_gcs: u32,
    /// Total stop-the-world pause added to the wave.
    pub gc_pause: Millis,
    /// The live set could not fit in the heap even after collection:
    /// an `OutOfMemoryError` was thrown.
    pub oom: bool,
    /// The stable tenured set exceeds Old capacity (Observation 5 regime).
    pub promotion_failure: bool,
    /// Peak heap occupancy observed during the wave.
    pub peak_heap_used: Mem,
    /// Peak resident set size observed during the wave.
    pub peak_rss: Mem,
}

/// A simulated container JVM.
#[derive(Debug, Clone)]
pub struct JvmSim {
    layout: HeapLayout,
    settings: GcSettings,
    cost: GcCostModel,
    /// Long-lived bytes that survive every collection: code overhead + cache.
    code_overhead: Mem,
    cache_used: Mem,
    /// Promoted transient bytes that are still referenced by running tasks.
    live_transient: Mem,
    /// Promoted transient bytes whose tasks have finished; collected by the
    /// next full GC.
    dead_transient: Mem,
    /// Outstanding off-heap buffer bytes awaiting a GC to run their cleaners.
    off_heap_outstanding: Mem,
    /// Off-heap bytes held live by the currently running tasks (pooled fetch
    /// buffers re-used across waves).
    off_heap_live: Mem,
    /// Eden occupancy carried over between waves: allocation pressure
    /// accumulates across waves, so a collection eventually triggers even
    /// when no single wave fills Eden by itself.
    eden_used: Mem,
    /// Timestamp of the most recent GC event, used to keep the event log
    /// monotone when interleaved collection causes overlap.
    last_event_time: Millis,
    young_gcs: u64,
    full_gcs: u64,
    total_pause: Millis,
    /// Whether the profiler timeline is kept: every GC event and RSS
    /// sample. Without it only full-GC events are logged.
    timeline: bool,
    events: Vec<GcEvent>,
    /// Without a timeline: each logged event's position among all the
    /// collections so far, young and full.
    positions: Vec<u64>,
    rss_samples: Vec<(Millis, Mem)>,
    peak_rss: Mem,
    peak_heap_used: Mem,
    peak_old_used: Mem,
    /// Slowdown requested for the *next* wave (fault injection: a
    /// straggling container's collector threads crawl along with its
    /// mutators). Consumed by `simulate_wave`, then reset to 1.
    wave_slowdown: f64,
    /// Slowdown in effect for the wave currently being simulated.
    active_slowdown: f64,
}

impl JvmSim {
    /// Creates a fresh JVM for a container with the given heap.
    pub fn new(heap: Mem, settings: GcSettings, cost: GcCostModel) -> Self {
        let layout = HeapLayout::new(heap, &settings);
        JvmSim {
            layout,
            settings,
            cost,
            code_overhead: Mem::ZERO,
            cache_used: Mem::ZERO,
            live_transient: Mem::ZERO,
            dead_transient: Mem::ZERO,
            off_heap_outstanding: Mem::ZERO,
            off_heap_live: Mem::ZERO,
            eden_used: Mem::ZERO,
            last_event_time: Millis::ZERO,
            young_gcs: 0,
            full_gcs: 0,
            total_pause: Millis::ZERO,
            timeline: true,
            events: Vec::new(),
            positions: Vec::new(),
            rss_samples: Vec::new(),
            peak_rss: Mem::ZERO,
            peak_heap_used: Mem::ZERO,
            peak_old_used: Mem::ZERO,
            wave_slowdown: 1.0,
            active_slowdown: 1.0,
        }
    }

    /// Keeps (`true`, the default) or drops the profiler timeline. Without
    /// it the JVM logs only full-GC events and no RSS samples, which is
    /// all the Table-6 statistics read; counters, pauses and peaks are
    /// unaffected.
    pub fn with_timeline(mut self, timeline: bool) -> Self {
        self.timeline = timeline;
        self
    }

    /// Applies a straggler slowdown to the next simulated wave: every GC
    /// pause of that wave is stretched by `factor` (clamped to ≥ 1). The
    /// fault injector uses this to model a container whose node is
    /// overloaded — compute and collection both crawl.
    pub fn set_wave_slowdown(&mut self, factor: f64) {
        self.wave_slowdown = factor.max(1.0);
    }

    /// The heap layout in effect.
    pub fn layout(&self) -> &HeapLayout {
        &self.layout
    }

    /// Sets the constant application code overhead (`M_i`), resident in Old.
    pub fn set_code_overhead(&mut self, m_i: Mem) {
        self.code_overhead = m_i;
    }

    /// Updates the cached bytes resident in Old (the application's Cache
    /// Storage pool usage).
    pub fn set_cache_used(&mut self, cache: Mem) {
        self.cache_used = cache;
    }

    /// The stable tenured set: code overhead plus cache.
    pub fn tenured_stable(&self) -> Mem {
        self.code_overhead + self.cache_used
    }

    fn old_used(&self) -> Mem {
        self.tenured_stable() + self.live_transient + self.dead_transient
    }

    /// Current resident set size: committed heap, constant native overhead,
    /// live (pooled) buffers, and collected-but-unreclaimed buffer garbage.
    pub fn rss(&self) -> Mem {
        self.layout.heap
            + self.cost.native_overhead
            + self.off_heap_live
            + self.off_heap_outstanding
    }

    /// Total young collections so far.
    pub fn young_gc_count(&self) -> u64 {
        self.young_gcs
    }

    /// Total full collections so far.
    pub fn full_gc_count(&self) -> u64 {
        self.full_gcs
    }

    /// Cumulative stop-the-world pause.
    pub fn total_pause(&self) -> Millis {
        self.total_pause
    }

    /// GC events logged so far (the JMX timeline of the profiler): every
    /// collection, or only the full ones when the timeline is dropped.
    pub fn events(&self) -> &[GcEvent] {
        &self.events
    }

    /// The position of `events()[k]` among all collections so far, young
    /// and full: `k` itself unless the timeline is dropped.
    pub fn event_position(&self, k: usize) -> u64 {
        if self.timeline {
            k as u64
        } else {
            self.positions[k]
        }
    }

    /// RSS samples logged at GC events and wave boundaries (none when the
    /// timeline is dropped).
    pub fn rss_samples(&self) -> &[(Millis, Mem)] {
        &self.rss_samples
    }

    /// Highest RSS observed.
    pub fn peak_rss(&self) -> Mem {
        self.peak_rss
    }

    /// Highest heap occupancy observed.
    pub fn peak_heap_used(&self) -> Mem {
        self.peak_heap_used
    }

    /// Highest old-generation occupancy observed.
    pub fn peak_old_used(&self) -> Mem {
        self.peak_old_used
    }

    fn note_rss(&mut self, time: Millis) {
        let rss = self.rss();
        self.peak_rss = self.peak_rss.max(rss);
        if self.timeline {
            self.rss_samples.push((time, rss));
        }
    }

    fn note_heap(&mut self, young_live: Mem) {
        let used = self.old_used() + young_live;
        self.peak_heap_used = self.peak_heap_used.max(used.min(self.layout.heap));
        self.peak_old_used = self.peak_old_used.max(self.old_used().min(self.layout.old));
    }

    fn reclaim_off_heap(&mut self, kind: GcKind) {
        let frac = match kind {
            GcKind::Young => self.cost.young_offheap_reclaim,
            GcKind::Full => self.cost.full_offheap_reclaim,
        };
        self.off_heap_outstanding = self.off_heap_outstanding * (1.0 - frac);
    }

    fn record_event(&mut self, time: Millis, kind: GcKind, pause: Millis, young_live: Mem) {
        let time = time.max(self.last_event_time);
        self.last_event_time = time;
        self.total_pause += pause;
        self.reclaim_off_heap(kind);
        let event = GcEvent {
            time,
            kind,
            pause,
            heap_used_after: (self.old_used() + young_live).min(self.layout.heap),
            old_used_after: self.old_used().min(self.layout.old),
            rss: self.rss(),
        };
        if self.timeline {
            self.events.push(event);
        } else if kind == GcKind::Full {
            // Every collection bumps its counter before logging its event.
            self.positions.push(self.young_gcs + self.full_gcs - 1);
            self.events.push(event);
        }
        self.note_rss(time);
        self.note_heap(young_live);
    }

    /// Runs a full collection: collects dead transients, compacts Old.
    fn full_gc(&mut self, time: Millis, promotion_failure: bool) -> Millis {
        self.full_gcs += 1;
        let scanned = self.old_used().min(self.layout.heap);
        let mut pause =
            self.cost.full_base + Millis::ms(self.cost.full_ms_per_mb * scanned.as_mb());
        if promotion_failure {
            pause = pause * self.cost.promotion_failure_penalty;
        }
        pause = pause * self.active_slowdown;
        self.dead_transient = Mem::ZERO;
        self.record_event(time, GcKind::Full, pause, Mem::ZERO);
        pause
    }

    /// Simulates the allocation pressure of one wave.
    ///
    /// Returns the GC activity; the caller adds `gc_pause` to the wave's wall
    /// time and reacts to `oom`.
    pub fn simulate_wave(&mut self, now: Millis, w: &WavePressure) -> WaveOutcome {
        self.active_slowdown = self.wave_slowdown.max(1.0);
        self.wave_slowdown = 1.0;
        let eden = self.layout.eden;
        let survivor = self.layout.survivor;
        let old_cap = self.layout.old;

        // Live (pooled) fetch buffers of the wave's tasks.
        self.off_heap_live = w.off_heap_live;

        // Hard out-of-memory: the live set cannot fit even after perfect
        // collection of all garbage.
        let live_demand = self.tenured_stable()
            + w.tenured_delta
            + w.working_set
            + w.shuffle_live.max(w.sort_live);
        if live_demand > self.layout.usable() {
            self.note_heap(w.working_set + w.shuffle_live);
            return WaveOutcome {
                young_gcs: 0,
                full_gcs: 0,
                gc_pause: Millis::ZERO,
                oom: true,
                promotion_failure: false,
                peak_heap_used: self.peak_heap_used,
                peak_rss: self.peak_rss,
            };
        }

        // New cache blocks tenure immediately (they are long-lived by
        // definition); they also pass through Eden, which is accounted for in
        // the churn traffic below.
        self.cache_used += w.tenured_delta;

        // Observation 5 regime: the long-lived set (code overhead + cache +
        // in-memory sort buffers) does not fit in Old.
        let promotion_failure = self.tenured_stable() + w.sort_live > old_cap;

        // Long-lived sort buffers tenure and occupy Old for the wave's
        // duration, so Old overflows (and full collections trigger) sooner.
        self.live_transient += w.sort_live;

        // Observation 7 regime: live shuffle buffers exceed half of Eden, so
        // buffers survive collections mid-fill and are promoted.
        let shuffle_promotes = w.shuffle_live > eden * 0.5 && w.spill_events > 0;

        let spill_traffic = w.spill_batch * w.spill_events as f64;
        let traffic = w.churn + w.tenured_delta + spill_traffic;
        let n_young = ((self.eden_used + traffic) / eden).floor() as u32;
        self.eden_used = Mem::mb((self.eden_used + traffic).as_mb() % eden.as_mb().max(1.0));

        let young_start = self.young_gcs;
        let full_start = self.full_gcs;
        let pause_start = self.total_pause;

        // Live young data: the working set before it tenures, a steady
        // residue after, plus live shuffle buffers that have not tenured.
        let mut working_in_young = w.working_set;
        let mut age = 0u32;
        let mut spills_done = 0u32;
        let n_events = n_young.max(if shuffle_promotes { 1 } else { 0 });

        for i in 0..n_young {
            let t = now + w.compute_time * ((i + 1) as f64 / (n_events + 1) as f64);

            // Promote the shuffle buffers of the spill events that happened
            // since the previous collection. A buffer that outgrew half of
            // Eden survives the scavenge mid-fill and necessitates a full
            // collection (Observation 7: "a full GC every time a task
            // spills").
            if shuffle_promotes && w.spill_events > 0 {
                let due = (w.spill_events as u64 * (i as u64 + 1) / n_young.max(1) as u64) as u32;
                let newly = due.saturating_sub(spills_done);
                spills_done = due;
                if newly > 0 {
                    self.dead_transient += w.spill_batch * newly as f64;
                    self.full_gc(t, false);
                }
            }

            let shuffle_in_young = if shuffle_promotes {
                Mem::ZERO
            } else {
                w.shuffle_live
            };
            let live_young = working_in_young + shuffle_in_young;
            self.note_heap(live_young + eden);

            // Copy survivors; overflow beyond the survivor space promotes.
            let copied = live_young.min(survivor);
            let overflow = (live_young - survivor).clamp_non_negative();
            if !overflow.is_zero() {
                // Overflow of the working set moves it to Old permanently.
                let from_working = overflow.min(working_in_young);
                working_in_young -= from_working;
                self.live_transient += from_working;
                // Shuffle overflow is transient garbage once drained.
                self.dead_transient += overflow - from_working;
            }

            age += 1;
            if age >= self.settings.tenuring_threshold && !working_in_young.is_zero() {
                self.live_transient += working_in_young;
                working_in_young = Mem::ZERO;
            }

            let pause = (self.cost.young_base
                + Millis::ms(self.cost.young_ms_per_mb * (copied + overflow).as_mb()))
                * self.active_slowdown;
            self.young_gcs += 1;
            self.record_event(t, GcKind::Young, pause, working_in_young + shuffle_in_young);

            // Old overflow (or the promotion-failure regime) forces a full
            // collection.
            if self.old_used() > old_cap || promotion_failure {
                self.full_gc(t, promotion_failure);
            }
        }

        // In the promotion-failure regime the JVM runs back-to-back full
        // collections on every allocation quantum, not just at Eden fills:
        // the young loop above accounts one full GC per young GC, but when
        // Old is overfull even small allocations force collections.
        if promotion_failure {
            let free = (self.layout.heap - self.tenured_stable() - w.working_set - w.sort_live)
                .max(self.layout.heap * 0.03);
            let needed = (traffic / free).ceil() as u32;
            let done = (self.full_gcs - full_start) as u32;
            for i in done..needed.min(done + 64) {
                let t = now + w.compute_time * ((i + 1) as f64 / (needed + 1) as f64);
                self.full_gc(t, true);
            }
        }

        // Spill promotions not yet attributed to a collection (e.g. spills
        // with very little churn).
        if shuffle_promotes && spills_done < w.spill_events {
            let remaining = w.spill_events - spills_done;
            // Group the leftover spills into at most a handful of
            // collections so light waves stay cheap.
            let groups = remaining.min(4);
            for g in 0..groups {
                let t = now + w.compute_time * (0.6 + 0.4 * (g + 1) as f64 / (groups + 1) as f64);
                self.dead_transient += w.spill_batch * (remaining as f64 / groups as f64);
                self.full_gc(t, promotion_failure);
            }
        }

        // Off-heap buffers allocated during the wave: model the outstanding
        // amount as growing between collections. With zero collections the
        // entire allocation stays outstanding.
        let reclaim_events = (self.young_gcs - young_start) + (self.full_gcs - full_start);
        if reclaim_events == 0 {
            self.off_heap_outstanding += w.off_heap_alloc;
        } else {
            // Interleave allocation with the reclamation already applied in
            // `record_event`: approximate by adding the per-interval share
            // and applying the residual decay analytically.
            let per_event = w.off_heap_alloc / (reclaim_events as f64 + 1.0);
            let keep = 1.0 - self.cost.young_offheap_reclaim;
            let extra = per_event;
            let mut acc = Mem::ZERO;
            for _ in 0..reclaim_events.min(64) {
                acc = (acc + extra) * keep;
            }
            self.off_heap_outstanding += acc + per_event;
        }

        // Peak RSS during the wave: the between-collections share of the
        // buffer churn sits on top of the live pool and carried garbage.
        let intra_wave = w.off_heap_alloc / (reclaim_events as f64 + 1.0);
        self.peak_rss = self.peak_rss.max(self.rss() + intra_wave);

        // End of wave: the working set dies; promoted transients become
        // garbage awaiting the next full collection.
        self.dead_transient += self.live_transient;
        self.live_transient = Mem::ZERO;
        self.note_heap(working_in_young + w.shuffle_live);
        self.note_rss(now + w.compute_time);

        WaveOutcome {
            young_gcs: (self.young_gcs - young_start) as u32,
            full_gcs: (self.full_gcs - full_start) as u32,
            gc_pause: self.total_pause - pause_start,
            oom: false,
            promotion_failure,
            peak_heap_used: self.peak_heap_used,
            peak_rss: self.peak_rss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(heap_mb: f64, nr: u32) -> JvmSim {
        let settings = GcSettings {
            new_ratio: nr,
            survivor_ratio: 8,
            tenuring_threshold: 2,
        };
        JvmSim::new(Mem::mb(heap_mb), settings, GcCostModel::default())
    }

    fn wave(compute_s: f64, churn_mb: f64, working_mb: f64) -> WavePressure {
        WavePressure {
            compute_time: Millis::secs(compute_s),
            churn: Mem::mb(churn_mb),
            working_set: Mem::mb(working_mb),
            tenured_delta: Mem::ZERO,
            shuffle_live: Mem::ZERO,
            spill_batch: Mem::ZERO,
            spill_events: 0,
            off_heap_alloc: Mem::ZERO,
            off_heap_live: Mem::ZERO,
            sort_live: Mem::ZERO,
        }
    }

    #[test]
    fn light_wave_triggers_no_gc() {
        let mut jvm = sim(4404.0, 2);
        let out = jvm.simulate_wave(Millis::ZERO, &wave(10.0, 100.0, 50.0));
        assert_eq!(out.young_gcs, 0);
        assert_eq!(out.full_gcs, 0);
        assert!(!out.oom);
        assert_eq!(out.gc_pause, Millis::ZERO);
    }

    #[test]
    fn churn_triggers_young_gcs_proportional_to_eden() {
        let mut jvm = sim(4404.0, 2);
        // Eden is ~1174MB; 5GB of churn should trigger ~4 young GCs.
        let out = jvm.simulate_wave(Millis::ZERO, &wave(10.0, 5000.0, 100.0));
        assert!(
            out.young_gcs >= 3 && out.young_gcs <= 5,
            "young_gcs = {}",
            out.young_gcs
        );
        assert!(out.gc_pause > Millis::ZERO);
    }

    #[test]
    fn smaller_eden_means_more_young_gcs() {
        let mut low = sim(4404.0, 1);
        let mut high = sim(4404.0, 9);
        let w = wave(10.0, 4000.0, 100.0);
        let o_low = low.simulate_wave(Millis::ZERO, &w);
        let o_high = high.simulate_wave(Millis::ZERO, &w);
        assert!(
            o_high.young_gcs > o_low.young_gcs,
            "NR=9 should GC more often: {} vs {}",
            o_high.young_gcs,
            o_low.young_gcs
        );
    }

    #[test]
    fn wave_slowdown_stretches_pauses_and_resets() {
        let w = wave(10.0, 5000.0, 100.0);
        let mut plain = sim(4404.0, 2);
        let baseline = plain.simulate_wave(Millis::ZERO, &w).gc_pause;
        assert!(baseline > Millis::ZERO);

        let mut straggler = sim(4404.0, 2);
        straggler.set_wave_slowdown(3.0);
        let slowed = straggler.simulate_wave(Millis::ZERO, &w).gc_pause;
        assert!(
            (slowed / baseline - 3.0).abs() < 1e-9,
            "slowdown should scale pauses exactly: {slowed} vs {baseline}"
        );

        // The slowdown applies to one wave only.
        let after = straggler.simulate_wave(Millis::secs(30.0), &w).gc_pause;
        let plain_after = plain.simulate_wave(Millis::secs(30.0), &w).gc_pause;
        assert_eq!(after, plain_after);

        // Sub-unity factors are clamped: a "straggler" cannot speed up.
        let mut fast = sim(4404.0, 2);
        fast.set_wave_slowdown(0.1);
        assert_eq!(fast.simulate_wave(Millis::ZERO, &w).gc_pause, baseline);
    }

    #[test]
    fn live_set_exceeding_heap_is_oom() {
        let mut jvm = sim(1101.0, 2);
        jvm.set_code_overhead(Mem::mb(115.0));
        jvm.set_cache_used(Mem::mb(700.0));
        let out = jvm.simulate_wave(Millis::ZERO, &wave(10.0, 500.0, 400.0));
        assert!(out.oom);
    }

    #[test]
    fn cache_exceeding_old_is_promotion_failure_with_full_gc_storm() {
        // NR=2 over 4404MB: Old = 2936MB. Cache of 3100MB overflows Old.
        let mut jvm = sim(4404.0, 2);
        jvm.set_code_overhead(Mem::mb(100.0));
        jvm.set_cache_used(Mem::mb(3100.0));
        let out = jvm.simulate_wave(Millis::ZERO, &wave(20.0, 4000.0, 200.0));
        assert!(out.promotion_failure);
        assert!(
            out.full_gcs >= out.young_gcs,
            "every young GC should degrade to full"
        );
        assert!(out.full_gcs > 0);
    }

    #[test]
    fn raising_new_ratio_fixes_promotion_failure() {
        // Same cache with NR=5: Old = 3670MB, cache fits.
        let mut jvm = sim(4404.0, 5);
        jvm.set_code_overhead(Mem::mb(100.0));
        jvm.set_cache_used(Mem::mb(3100.0));
        let out = jvm.simulate_wave(Millis::ZERO, &wave(20.0, 4000.0, 200.0));
        assert!(!out.promotion_failure);
        assert_eq!(out.full_gcs, 0);
    }

    #[test]
    fn shuffle_buffers_over_half_eden_promote_and_force_full_gcs() {
        let mut jvm = sim(2202.0, 2);
        jvm.set_code_overhead(Mem::mb(100.0));
        // Eden ~ 587MB; live shuffle of 400MB > eden/2.
        let w = WavePressure {
            compute_time: Millis::secs(30.0),
            churn: Mem::mb(3000.0),
            working_set: Mem::mb(100.0),
            tenured_delta: Mem::ZERO,
            shuffle_live: Mem::mb(400.0),
            spill_batch: Mem::mb(400.0),
            spill_events: 8,
            off_heap_alloc: Mem::ZERO,
            off_heap_live: Mem::ZERO,
            sort_live: Mem::ZERO,
        };
        let out = jvm.simulate_wave(Millis::ZERO, &w);
        assert!(
            out.full_gcs > 0,
            "promoted spill batches must force full GCs"
        );
    }

    #[test]
    fn small_shuffle_buffers_do_not_force_full_gcs() {
        let mut jvm = sim(2202.0, 2);
        jvm.set_code_overhead(Mem::mb(100.0));
        let w = WavePressure {
            compute_time: Millis::secs(30.0),
            churn: Mem::mb(3000.0),
            working_set: Mem::mb(100.0),
            tenured_delta: Mem::ZERO,
            shuffle_live: Mem::mb(100.0), // < eden/2
            spill_batch: Mem::mb(100.0),
            spill_events: 8,
            off_heap_alloc: Mem::ZERO,
            off_heap_live: Mem::ZERO,
            sort_live: Mem::ZERO,
        };
        let out = jvm.simulate_wave(Millis::ZERO, &w);
        assert_eq!(out.full_gcs, 0);
    }

    #[test]
    fn off_heap_grows_without_gc_and_shrinks_with_gc() {
        // No churn: no GC, buffers accumulate.
        let mut quiet = sim(4404.0, 2);
        let mut w = wave(10.0, 10.0, 10.0);
        w.off_heap_alloc = Mem::mb(300.0);
        quiet.simulate_wave(Millis::ZERO, &w);
        quiet.simulate_wave(Millis::secs(10.0), &w);
        let quiet_rss = quiet.rss();

        // Heavy churn: frequent GC reclaims buffers.
        let mut busy = sim(4404.0, 2);
        let mut w2 = wave(10.0, 8000.0, 10.0);
        w2.off_heap_alloc = Mem::mb(300.0);
        busy.simulate_wave(Millis::ZERO, &w2);
        busy.simulate_wave(Millis::secs(10.0), &w2);
        let busy_rss = busy.rss();

        assert!(
            quiet_rss > busy_rss,
            "RSS without GC ({quiet_rss}) should exceed RSS with GC ({busy_rss})"
        );
    }

    #[test]
    fn events_are_time_ordered_and_counted() {
        let mut jvm = sim(2202.0, 2);
        jvm.simulate_wave(Millis::ZERO, &wave(10.0, 4000.0, 100.0));
        jvm.simulate_wave(Millis::secs(20.0), &wave(10.0, 4000.0, 100.0));
        let events = jvm.events();
        assert_eq!(
            events.len() as u64,
            jvm.young_gc_count() + jvm.full_gc_count()
        );
        for pair in events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }

    #[test]
    fn dropping_the_timeline_keeps_full_events_at_their_positions() {
        let mut full = sim(2202.0, 1);
        let mut lean = sim(2202.0, 1).with_timeline(false);
        for jvm in [&mut full, &mut lean] {
            jvm.set_code_overhead(Mem::mb(100.0));
            for i in 0..6 {
                jvm.simulate_wave(Millis::secs(i as f64 * 10.0), &wave(10.0, 2000.0, 400.0));
            }
        }
        assert!(full.young_gc_count() > 0 && full.full_gc_count() > 0);
        assert_eq!(lean.young_gc_count(), full.young_gc_count());
        assert_eq!(lean.full_gc_count(), full.full_gc_count());
        assert_eq!(lean.total_pause(), full.total_pause());
        assert_eq!(lean.peak_rss(), full.peak_rss());
        assert_eq!(lean.peak_old_used(), full.peak_old_used());
        assert!(lean.rss_samples().is_empty());
        let kept: Vec<(u64, GcEvent)> = (0..lean.events().len())
            .map(|k| (lean.event_position(k), lean.events()[k]))
            .collect();
        let want: Vec<(u64, GcEvent)> = (0..full.events().len())
            .filter(|&k| full.events()[k].kind == GcKind::Full)
            .map(|k| (full.event_position(k), full.events()[k]))
            .collect();
        assert_eq!(kept, want);
    }

    #[test]
    fn full_gc_collects_dead_transients() {
        let mut jvm = sim(2202.0, 1);
        jvm.set_code_overhead(Mem::mb(100.0));
        // Big working sets promote; several waves accumulate dead transients
        // until a full GC runs. Old cap at NR=1 is 1101MB.
        for i in 0..6 {
            let out = jvm.simulate_wave(Millis::secs(i as f64 * 10.0), &wave(10.0, 2000.0, 400.0));
            assert!(!out.oom);
        }
        assert!(jvm.full_gc_count() > 0);
        // After the last full GC old usage returns near the stable set at
        // some event.
        let min_old_after_full = jvm
            .events()
            .iter()
            .filter(|e| e.kind == GcKind::Full)
            .map(|e| e.old_used_after.as_mb())
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_old_after_full < 700.0,
            "full GC should compact old, saw {min_old_after_full}"
        );
    }

    #[test]
    fn idle_pressure_is_free() {
        let mut jvm = sim(4404.0, 2);
        let out = jvm.simulate_wave(Millis::ZERO, &WavePressure::idle(Millis::secs(5.0)));
        assert_eq!(out.young_gcs, 0);
        assert_eq!(out.full_gcs, 0);
        assert_eq!(out.gc_pause, Millis::ZERO);
        assert!(!out.oom);
    }

    #[test]
    fn eden_pressure_carries_across_waves() {
        // Each wave churns half an Eden; a collection must still trigger
        // roughly every other wave.
        let mut jvm = sim(4404.0, 2); // eden ~1174MB
        let w = wave(5.0, 580.0, 50.0);
        let mut total_young = 0;
        for i in 0..10 {
            let out = jvm.simulate_wave(Millis::secs(i as f64 * 5.0), &w);
            total_young += out.young_gcs;
        }
        assert!(
            (3..=6).contains(&total_young),
            "10 half-Eden waves should trigger ~4-5 young GCs, got {total_young}"
        );
    }

    #[test]
    fn promotion_failure_forces_full_gcs_even_with_low_churn() {
        // Old cannot hold the cache; even sub-Eden churn must trigger full
        // collections (the JVM thrashes on every allocation quantum).
        let mut jvm = sim(4404.0, 1); // old = 2202MB
        jvm.set_code_overhead(Mem::mb(100.0));
        jvm.set_cache_used(Mem::mb(2500.0));
        let out = jvm.simulate_wave(Millis::ZERO, &wave(20.0, 600.0, 100.0));
        assert!(out.promotion_failure);
        assert!(out.full_gcs >= 1, "quantum-driven full GCs expected");
    }

    #[test]
    fn sort_buffers_create_old_pressure() {
        // An in-memory sort whose live buffers exceed Old's headroom must
        // behave like Observation 5.
        let mut jvm = sim(4404.0, 2); // old = 2936MB
        jvm.set_code_overhead(Mem::mb(110.0));
        let mut w = wave(20.0, 2000.0, 200.0);
        w.sort_live = Mem::mb(3000.0);
        let out = jvm.simulate_wave(Millis::ZERO, &w);
        assert!(out.promotion_failure, "sort buffers beyond Old must thrash");
        assert!(out.full_gcs > 0);
    }

    #[test]
    fn peaks_are_monotone_and_bounded() {
        let mut jvm = sim(4404.0, 2);
        jvm.set_code_overhead(Mem::mb(115.0));
        jvm.set_cache_used(Mem::mb(1000.0));
        jvm.simulate_wave(Millis::ZERO, &wave(10.0, 3000.0, 300.0));
        assert!(jvm.peak_heap_used() <= jvm.layout().heap);
        assert!(jvm.peak_heap_used() >= Mem::mb(1115.0));
        assert!(jvm.peak_rss() >= jvm.layout().heap);
    }
}
