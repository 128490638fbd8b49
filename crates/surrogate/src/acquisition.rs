//! The Expected Improvement acquisition function (Equation 7) and its
//! maximizer (random candidates + coordinate hill climbing, standing in for
//! the paper's "random sampling and standard gradient-based search").
//!
//! [`maximize_ei`] scores the 128-point candidate set as one fused
//! [`Surrogate::predict_batch`] pass (scratch buffers reused across the
//! pool) rather than one `predict` call per candidate, then runs four
//! local hill climbs from the best candidates, each starting from its
//! candidate's scored EI rather than a second prediction. A climb move
//! that the clamp to `[0, 1]` sends back onto the current point is
//! skipped without a prediction: the candidate is the current point bit
//! for bit, scores the current EI exactly, and can never pass the strict
//! `fc > fx` test, so skipping it changes no accepted move, returned value
//! or RNG draw.

use crate::lhs::latin_hypercube;
use crate::Surrogate;
use relm_common::Rng;

/// Standard normal PDF.
fn phi(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (absolute error < 1.5e-7 — ample for acquisition ranking).
fn big_phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Expected improvement of a *minimization* objective at a point with
/// posterior `(mean, variance)`, relative to the incumbent best `tau`
/// (Equation 7: `EI = (τ − μ)Φ(Z) + σφ(Z)` with `Z = (τ − μ)/σ`).
pub fn expected_improvement(mean: f64, variance: f64, tau: f64) -> f64 {
    let sigma = variance.max(0.0).sqrt();
    if sigma < 1e-12 {
        return (tau - mean).max(0.0);
    }
    let z = (tau - mean) / sigma;
    ((tau - mean) * big_phi(z) + sigma * phi(z)).max(0.0)
}

/// Maximizes EI over the unit hypercube: scores a space-filling candidate
/// set, then hill-climbs from the best few candidates coordinate-wise.
/// Returns `(argmax, EI value)`.
pub fn maximize_ei<S: Surrogate + ?Sized>(
    surrogate: &S,
    dims: usize,
    tau: f64,
    rng: &mut Rng,
) -> (Vec<f64>, f64) {
    let ei_at = |x: &[f64]| {
        let (m, v) = surrogate.predict(x);
        expected_improvement(m, v, tau)
    };

    let mut candidates = latin_hypercube(96, dims, rng);
    candidates.extend((0..32).map(|_| (0..dims).map(|_| rng.uniform()).collect::<Vec<f64>>()));

    // One fused batch: `predict_batch` reuses its k*/solve buffers across
    // the whole candidate pool instead of re-allocating per point, and is
    // bit-identical to per-point `predict` by contract.
    let mut scored: Vec<(f64, Vec<f64>)> = surrogate
        .predict_batch(&candidates)
        .into_iter()
        .map(|(m, v)| expected_improvement(m, v, tau))
        .zip(candidates)
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN EI"));

    let mut best = scored[0].clone();
    // A climb starts from its candidate's scored EI: `predict_batch`
    // equals `predict` bit for bit, so predicting the start again would
    // only repeat it.
    for (mut fx, mut x) in scored.into_iter().take(4) {
        let mut step = 0.12;
        while step > 0.005 {
            let mut improved = false;
            for d in 0..dims {
                for dir in [-1.0, 1.0] {
                    let here = x[d];
                    let moved = (here + dir * step).clamp(0.0, 1.0);
                    if moved.to_bits() == here.to_bits() {
                        // Clamped back onto `x`: same bits, same EI as `fx`,
                        // so `fc > fx` cannot hold.
                        continue;
                    }
                    x[d] = moved;
                    let fc = ei_at(&x);
                    if fc > fx {
                        fx = fc;
                        improved = true;
                    } else {
                        x[d] = here;
                    }
                }
            }
            if !improved {
                step *= 0.5;
            }
        }
        if fx > best.0 {
            best = (fx, x);
        }
    }
    (best.1, best.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gp;
    use proptest::prelude::*;

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }

    #[test]
    fn ei_is_zero_for_certainly_worse_points() {
        // Mean far above the incumbent with tiny variance.
        assert!(expected_improvement(10.0, 1e-6, 1.0) < 1e-9);
    }

    #[test]
    fn ei_rewards_low_mean_and_high_variance() {
        let better_mean = expected_improvement(0.5, 0.1, 1.0);
        let worse_mean = expected_improvement(0.9, 0.1, 1.0);
        assert!(better_mean > worse_mean);

        let low_var = expected_improvement(1.2, 0.01, 1.0);
        let high_var = expected_improvement(1.2, 1.0, 1.0);
        assert!(
            high_var > low_var,
            "exploration term must reward uncertainty"
        );
    }

    #[test]
    fn ei_zero_variance_is_plain_improvement() {
        assert_eq!(expected_improvement(0.4, 0.0, 1.0), 0.6);
        assert_eq!(expected_improvement(1.4, 0.0, 1.0), 0.0);
    }

    struct Bowl;
    impl crate::Surrogate for Bowl {
        fn predict(&self, x: &[f64]) -> (f64, f64) {
            // Minimum at (0.7, 0.3) with small uniform uncertainty.
            let d = (x[0] - 0.7).powi(2) + (x[1] - 0.3).powi(2);
            (d, 0.01)
        }
    }

    #[test]
    fn maximizer_finds_the_bowl_minimum() {
        let mut rng = Rng::new(42);
        let (x, ei) = maximize_ei(&Bowl, 2, 0.5, &mut rng);
        assert!(ei > 0.0);
        assert!((x[0] - 0.7).abs() < 0.08, "x0 = {}", x[0]);
        assert!((x[1] - 0.3).abs() < 0.08, "x1 = {}", x[1]);
    }

    /// The maximizer before the climb skipped clamped no-op moves: a fresh
    /// `x.clone()` per candidate, and every candidate scored. Kept verbatim
    /// as the oracle [`maximize_ei`] must match bit for bit.
    fn reference_maximize_ei<S: Surrogate + ?Sized>(
        surrogate: &S,
        dims: usize,
        tau: f64,
        rng: &mut Rng,
    ) -> (Vec<f64>, f64) {
        let ei_at = |x: &[f64]| {
            let (m, v) = surrogate.predict(x);
            expected_improvement(m, v, tau)
        };
        let mut candidates = latin_hypercube(96, dims, rng);
        candidates.extend((0..32).map(|_| (0..dims).map(|_| rng.uniform()).collect::<Vec<f64>>()));
        let mut scored: Vec<(f64, Vec<f64>)> = surrogate
            .predict_batch(&candidates)
            .into_iter()
            .map(|(m, v)| expected_improvement(m, v, tau))
            .zip(candidates)
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN EI"));
        let mut best = scored[0].clone();
        for (_, start) in scored.into_iter().take(4) {
            let mut x = start;
            let mut fx = ei_at(&x);
            let mut step = 0.12;
            while step > 0.005 {
                let mut improved = false;
                for d in 0..dims {
                    for dir in [-1.0, 1.0] {
                        let mut cand = x.clone();
                        cand[d] = (cand[d] + dir * step).clamp(0.0, 1.0);
                        let fc = ei_at(&cand);
                        if fc > fx {
                            x = cand;
                            fx = fc;
                            improved = true;
                        }
                    }
                }
                if !improved {
                    step *= 0.5;
                }
            }
            if fx > best.0 {
                best = (fx, x);
            }
        }
        (best.1, best.0)
    }

    /// A surrogate over 4 raw coordinates backed by a GP over 7 features —
    /// the coordinates plus three deterministic, piecewise functions of them
    /// — shaped like GBO's acquisition adapter in `relm-bo`.
    struct SevenFeatures(Gp);

    impl SevenFeatures {
        fn features(x: &[f64]) -> Vec<f64> {
            let mut f = x.to_vec();
            f.extend([
                (x[0] * x[1]).min(0.6),
                (0.5 * (x[2] + x[3])).max(0.2),
                if x[0] > x[3] { x[0] - x[3] } else { 0.0 },
            ]);
            f
        }
    }

    impl Surrogate for SevenFeatures {
        fn predict(&self, x: &[f64]) -> (f64, f64) {
            self.0.predict(&Self::features(x))
        }

        fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
            let feats: Vec<Vec<f64>> = xs.iter().map(|x| Self::features(x)).collect();
            self.0.predict_batch(&feats)
        }
    }

    /// Training data whose minimum sits at a random corner, so climbs run
    /// into the cube's faces; half the points are snapped to a 0.25 grid,
    /// like configurations decoded and re-encoded by the tuners.
    fn cornered_dataset(n: usize, dims: usize, rng: &mut Rng) -> (Vec<Vec<f64>>, Vec<f64>) {
        let corner: Vec<f64> = (0..dims)
            .map(|_| f64::from(u8::from(rng.chance(0.5))))
            .collect();
        let mut xs = latin_hypercube(n, dims, rng);
        for x in xs.iter_mut().step_by(2) {
            for v in x.iter_mut() {
                *v = (*v * 4.0).round() / 4.0;
            }
        }
        let ys = xs
            .iter()
            .map(|x| {
                1.0 + x
                    .iter()
                    .zip(&corner)
                    .map(|(v, c)| (v - c).powi(2))
                    .sum::<f64>()
            })
            .collect();
        (xs, ys)
    }

    /// Runs [`maximize_ei`] and the reference from the same RNG state and
    /// compares the point's bits, the EI's bits and the RNG's next draw.
    fn assert_climbs_match<S: Surrogate + ?Sized>(s: &S, dims: usize, tau: f64, seed: u64) {
        let (mut fast_rng, mut ref_rng) = (Rng::new(seed), Rng::new(seed));
        let (x, ei) = maximize_ei(s, dims, tau, &mut fast_rng);
        let (want_x, want_ei) = reference_maximize_ei(s, dims, tau, &mut ref_rng);
        let to_bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
        assert_eq!(to_bits(&x), to_bits(&want_x), "point, seed {seed}");
        assert_eq!(ei.to_bits(), want_ei.to_bits(), "EI, seed {seed}");
        assert_eq!(fast_rng.next_u64(), ref_rng.next_u64(), "RNG, seed {seed}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// [`maximize_ei`] equals [`reference_maximize_ei`] bit for bit on a
        /// 4-D GP, on a GBO-shaped 7-feature adapter, and on [`Bowl`].
        #[test]
        fn climb_matches_the_reference_bitwise(seed in 0u64..1000, n in 4usize..=40) {
            let mut rng = Rng::new(seed ^ 0xC11B);
            let (xs, ys) = cornered_dataset(n, 4, &mut rng);
            let tau = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let gp = Gp::fit(xs.clone(), &ys, seed).unwrap();
            assert_climbs_match(&gp, 4, tau, seed);

            let feats: Vec<Vec<f64>> = xs.iter().map(|x| SevenFeatures::features(x)).collect();
            let guided = SevenFeatures(Gp::fit(feats, &ys, seed).unwrap());
            assert_climbs_match(&guided, 4, tau, seed);

            assert_climbs_match(&Bowl, 2, 0.5, seed);
        }
    }
}
