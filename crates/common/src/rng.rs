//! Deterministic random-number generation.
//!
//! The evaluation in the paper repeats every stochastic experiment 5–10 times.
//! To make those repetitions exactly reproducible across platforms this crate
//! ships a small SplitMix64 generator instead of relying on `rand`'s
//! unspecified seeding behaviour. `rand` is still used in higher layers where
//! distribution quality matters more than bit-for-bit stability.

/// A SplitMix64 pseudo-random generator.
///
/// SplitMix64 passes BigCrush, has a 64-bit state, and is trivially
/// `fork`-able into independent streams, which the simulator uses to give
/// every container its own deterministic stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Derives an independent stream for a sub-component (e.g. container `i`
    /// of run `r`). Streams with different `stream` values are decorrelated.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut mixed = self.state ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        mixed = mixed.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        Rng::new(mixed)
    }

    /// The raw 64-bit state. Two generators with equal states draw
    /// identical streams from here on, so the state identifies the
    /// stream's position (content-addressed memo keys hash it).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // Use the high 53 bits for a uniformly distributed double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Rejection-free Lemire-style reduction is overkill here; modulo bias
        // for n << 2^64 is negligible for simulation purposes.
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A multiplicative log-normal-ish noise factor centred at 1.0 with the
    /// given relative spread, clamped away from zero. Used to model run-to-run
    /// variability of task durations.
    pub fn noise_factor(&mut self, relative_std: f64) -> f64 {
        (1.0 + relative_std * self.normal()).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn state_tracks_the_stream_position() {
        let mut a = Rng::new(42);
        let start = a.state();
        a.next_u64();
        assert_ne!(a.state(), start, "a draw advances the state");
        let mut b = a.clone();
        assert_eq!(a.state(), b.state());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        let root = Rng::new(7);
        let mut s1 = root.fork(0);
        let mut s2 = root.fork(1);
        let overlaps = (0..64).filter(|_| s1.next_u64() == s2.next_u64()).count();
        assert_eq!(overlaps, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut rng = Rng::new(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(13);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(5);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn noise_factor_positive() {
        let mut rng = Rng::new(23);
        for _ in 0..1_000 {
            assert!(rng.noise_factor(0.5) > 0.0);
        }
    }
}
