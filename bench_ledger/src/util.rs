//! Small helpers shared by the workloads: seed mixing, quantiles, hashing,
//! process memory, and the bench-side span log.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// SplitMix64 finalizer: a bijective scramble of one 64-bit word.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-item seed derived from the run seed and an item index, so every
/// generated input is a pure function of `--seed`.
pub fn mix(seed: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(index.wrapping_add(0xA5A5_5A5A)))
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean: each session weighs the same whatever its application's
/// runtime scale. 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// Windows a timed pass is split into for its latency and throughput
/// medians.
pub const BLOCKS: usize = 5;

/// Splits `[start, end)` into `blocks` equal windows, applies `stat` to the
/// values of the samples stamped in each (samples past `end` count in the
/// last window), and returns the median over the non-empty windows. A
/// disturbance that lasts part of a run moves only the windows it touches.
pub fn block_median(
    samples: &[(Instant, f64)],
    start: Instant,
    end: Instant,
    blocks: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let span = end.saturating_duration_since(start).as_secs_f64().max(1e-9);
    let mut windows = vec![Vec::new(); blocks];
    for (at, value) in samples {
        let offset = at.saturating_duration_since(start).as_secs_f64() / span;
        windows[((offset * blocks as f64) as usize).min(blocks - 1)].push(*value);
    }
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stat(w))
        .collect();
    median(&per_window)
}

/// Recommendation quality of a set of sessions: the median session's
/// score for each application, then the geometric mean over applications.
/// The median drops the one session a fault plan degraded; the geometric
/// mean weighs every application the same whatever its runtime scale.
pub fn per_app_quality<K: Ord>(scores: impl IntoIterator<Item = (K, f64)>) -> f64 {
    let mut by_app: std::collections::BTreeMap<K, Vec<f64>> = Default::default();
    for (app, score) in scores {
        by_app.entry(app).or_default().push(score);
    }
    let medians: Vec<f64> = by_app.values().map(|v| median(v)).collect();
    geomean(&medians)
}

/// Microseconds elapsed since `since`.
pub fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// FNV-1a 64 over a byte stream — the run's history fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
            kb.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One bench-side span: a timed call into a layer, recorded from outside
/// the program. Spans of one tuning session share `trace`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
}

/// Per-thread span recorder. Ids carry the thread's tag in the high bits
/// so logs of several client threads merge without collisions; id 0 is
/// the root (no parent).
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    tag: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, tag: u64) -> Self {
        SpanLog {
            epoch,
            tag: (tag + 1) << 48,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id, for a parent that closes after its children.
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        self.tag | self.next
    }

    pub fn close(
        &mut self,
        id: u64,
        parent: u64,
        trace: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_micros() as u64;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_us: at(start),
            end_us: at(end),
        });
    }
}

/// Writes spans as JSON Lines, one object per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"trace\":{},\"start_us\":{},\"end_us\":{}}}",
            s.name, s.id, s.parent, s.trace, s.start_us, s.end_us
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn block_median_ignores_one_disturbed_window() {
        let start = Instant::now();
        let end = start + std::time::Duration::from_secs(5);
        let samples: Vec<(Instant, f64)> = (0..50)
            .map(|i| {
                let at = start + std::time::Duration::from_millis(100 * i + 50);
                (at, if i < 10 { 100.0 } else { 1.0 })
            })
            .collect();
        assert_eq!(block_median(&samples, start, end, 5, median), 1.0);
        assert_eq!(
            block_median(&samples, start, end, 1, |w| w.len() as f64),
            50.0
        );
    }

    #[test]
    fn mix_is_a_pure_function() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}
