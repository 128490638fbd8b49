//! # relm-surrogate
//!
//! Surrogate models and sampling utilities for the black-box tuners (§5):
//!
//! * [`Gp`] — Gaussian-process regression with a squared-exponential ARD
//!   kernel, Cholesky-based inference, and marginal-likelihood
//!   hyperparameter selection (§5.1's Equation 6). [`GpFitter`] is the
//!   incremental front end: it caches pairwise differences across fits
//!   ([`gram::GramCache`]), assembles every Gram through one memo of the
//!   per-dimension terms, and extends the Cholesky factor row-by-row
//!   between hyperparameter re-tunes — bit-identical to the from-scratch
//!   fit. For n in the hundreds-to-thousands, an opt-in [`SparsePolicy`]
//!   switches the fitter to a subset-of-data approximation over a
//!   deterministic inducing set ([`select_inducing`]), keeping fit+propose
//!   latency flat as histories grow.
//! * [`expected_improvement`] — the EI acquisition function (Equation 7),
//!   plus a maximizer combining random candidates with local hill climbing
//!   ([`maximize_ei`]).
//! * [`latin_hypercube`] — Latin Hypercube Sampling for bootstrap samples
//!   (Table 7).
//! * [`Forest`] — Random-Forest regression (bagged CART trees), the
//!   alternative surrogate of Figure 26.
//!
//! Everything is implemented from first principles on `f64` slices — no
//! external linear-algebra or ML dependencies.
//!
//! ```
//! use relm_surrogate::{expected_improvement, Gp, Surrogate};
//!
//! // Fit a GP to a toy 1-D objective and query it like the tuners do.
//! let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.3).powi(2)).collect();
//! let gp = Gp::fit(xs, &ys, 42).expect("toy data is well-conditioned");
//!
//! // Near a training point the posterior mean tracks the data and the
//! // variance collapses; EI is finite and non-negative everywhere.
//! let (mean, var) = gp.predict(&[2.0 / 7.0]);
//! assert!((mean - (2.0 / 7.0f64 - 0.3).powi(2)).abs() < 0.05);
//! assert!(var < 0.1);
//! let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
//! assert!(expected_improvement(mean, var, best) >= 0.0);
//! ```

pub mod acquisition;
pub mod forest;
pub mod gp;
pub mod gram;
pub mod lhs;
pub mod linalg;
pub mod sparse;

pub use acquisition::{expected_improvement, maximize_ei};
pub use forest::{Forest, ForestParams};
pub use gp::{Gp, GpFitter, GpParams};
pub use gram::GramCache;
pub use lhs::latin_hypercube;
pub use sparse::{select_inducing, SparsePolicy, DEFAULT_INDUCING, DEFAULT_SPARSE_THRESHOLD};

/// A regression surrogate with predictive uncertainty — the interface both
/// the Gaussian Process and the Random Forest implement, letting BO/GBO swap
/// surrogates (Figure 26).
pub trait Surrogate {
    /// Predictive mean and variance at a point.
    fn predict(&self, x: &[f64]) -> (f64, f64);

    /// Predictive mean and variance for a batch of points, in input order.
    /// Implementations may reuse internal buffers across the batch but must
    /// return exactly what per-point [`Surrogate::predict`] calls would.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}
