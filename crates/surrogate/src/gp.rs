//! Gaussian-process regression (§5.1).
//!
//! The prior is `f(x) ~ GP(μ₀, k)` with a constant mean (the sample mean of
//! the standardized observations, i.e. zero) and a squared-exponential ARD
//! kernel. Posterior mean and variance follow Equation 6; hyperparameters
//! (per-dimension lengthscales, signal variance, observation noise) are
//! selected by maximizing the log marginal likelihood over a seeded random
//! search refined by coordinate descent.
//!
//! Fitting is organized around [`GpFitter`], which owns a [`GramCache`] of
//! pairwise differences so the 1 + 24 + 8·(d + 2) likelihood evaluations
//! per fit (73 at d = 4, 97 at d = 7) assemble their Gram matrices with one
//! `exp` per pair, and — between hyperparameter re-tunes — extends the
//! previous Cholesky factor by one row per new observation instead of
//! refactorizing.
//!
//! Prediction is the hot path of EI maximization: one `maximize_ei` call
//! makes hundreds of them. A fitted [`Gp`] stores its training inputs and
//! its Cholesky factor column-major, and one kernel serves both
//! [`Gp::predict`] and [`Gp::predict_batch`]: `k*` accumulates one dimension
//! at a time across all training points, and the forward solve runs column
//! by column, so every loop over training points is contiguous and
//! vectorizable while each entry keeps the operation order of the
//! per-point, row-oriented form.
//!
//! Every path is bit-identical to the original from-scratch fit and
//! prediction; the property tests in this module and the
//! byte-identical-trace gates in `scripts/check.sh` hold it to that.
//!
//! For large histories an opt-in [`SparsePolicy`] (see
//! [`GpFitter::with_policy`]) bounds the fit to a deterministic inducing
//! subset — exact and byte-identical at or below the policy threshold,
//! subset-of-data above it, with cost O(n·m + m³) instead of O(n³).

use crate::gram::GramCache;
use crate::linalg::{dot, Cholesky, Matrix};
use crate::sparse::{select_inducing, SparsePolicy};
use crate::Surrogate;
use relm_common::{Error, Result, Rng};
use relm_obs::Obs;

/// Kernel + noise hyperparameters, stored in log space.
#[derive(Debug, Clone, PartialEq)]
pub struct GpParams {
    /// Per-dimension log lengthscales.
    pub log_lengthscales: Vec<f64>,
    /// Log signal variance.
    pub log_signal_var: f64,
    /// Log observation-noise variance.
    pub log_noise_var: f64,
}

impl GpParams {
    /// A reasonable default for inputs normalized to `[0, 1]`.
    pub fn default_for(dims: usize) -> Self {
        GpParams {
            log_lengthscales: vec![(0.4f64).ln(); dims],
            log_signal_var: 0.0,
            log_noise_var: (1e-2f64).ln(),
        }
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        let mut s = 0.0;
        for ((x, y), log_l) in a.iter().zip(b).zip(&self.log_lengthscales) {
            let l = log_l.exp();
            let d = (x - y) / l;
            s += d * d;
        }
        self.log_signal_var.exp() * (-0.5 * s).exp()
    }
}

/// Standardizes targets: returns `(mean, scale, standardized)`.
fn standardize(y: &[f64]) -> (f64, f64, Vec<f64>) {
    let mut ys = Vec::new();
    let (y_mean, y_scale) = standardize_into(y, &mut ys);
    (y_mean, y_scale, ys)
}

/// [`standardize`] into a reused buffer — the fitter's refit path calls
/// this once per observation batch and must not reallocate each time.
fn standardize_into(y: &[f64], out: &mut Vec<f64>) -> (f64, f64) {
    let y_mean = y.iter().sum::<f64>() / y.len() as f64;
    let var = y.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / y.len() as f64;
    let y_scale = var.sqrt().max(1e-9);
    out.clear();
    out.extend(y.iter().map(|v| (v - y_mean) / y_scale));
    (y_mean, y_scale)
}

/// A fitted Gaussian process.
#[derive(Debug, Clone)]
pub struct Gp {
    /// Training inputs, column-major: `xt[d·n + i] = x_i[d]`, so the
    /// prediction kernel walks one dimension across all training points
    /// contiguously.
    xt: Vec<f64>,
    params: GpParams,
    /// The Cholesky factor `L`, column-major: `lc[j·n + i] = L[i][j]` for
    /// `i ≥ j` (zero above the diagonal), so the forward solve walks one
    /// column at a time.
    lc: Vec<f64>,
    alpha: Vec<f64>,
    y_mean: f64,
    y_scale: f64,
    /// Exponentiated lengthscales, hoisted out of the per-pair kernel loop.
    ls: Vec<f64>,
    /// `exp(log_signal_var)`.
    sv: f64,
    /// `exp(log_noise_var)`.
    noise: f64,
}

impl Gp {
    /// Fits a GP to the observations, selecting hyperparameters by marginal
    /// likelihood. `x` rows must share a dimensionality; `y.len() == x.len()`.
    pub fn fit(x: Vec<Vec<f64>>, y: &[f64], seed: u64) -> Result<Gp> {
        if x.is_empty() || x.len() != y.len() {
            return Err(Error::Numerical(
                "GP needs matching, non-empty inputs".into(),
            ));
        }
        let mut fitter = GpFitter::default();
        for (xi, yi) in x.into_iter().zip(y) {
            fitter.observe(xi, *yi)?;
        }
        fitter.fit_full(seed)
    }

    /// Fits with fixed hyperparameters (no marginal-likelihood search) —
    /// the reference the incremental refit path is tested against.
    pub fn fit_with_params(x: Vec<Vec<f64>>, y: &[f64], params: GpParams) -> Result<Gp> {
        if x.is_empty() || x.len() != y.len() {
            return Err(Error::Numerical(
                "GP needs matching, non-empty inputs".into(),
            ));
        }
        let dims = x[0].len();
        if x.iter().any(|r| r.len() != dims) {
            return Err(Error::Numerical("inconsistent input dimensionality".into()));
        }
        let (y_mean, y_scale, ys) = standardize(y);
        let cache = GramCache::new(&x);
        let mut k = Matrix::zeros(0);
        cache.assemble_fresh_into(&params, &mut k);
        let chol = Cholesky::with_jitter(&k, 1e-8)?;
        let alpha = chol.solve(&ys);
        Ok(Gp::assemble(&x, params, &chol, alpha, y_mean, y_scale))
    }

    /// Builds the struct: transposes the training inputs and the factor
    /// into the column-major layouts the prediction kernel reads, and
    /// hoists the exponentiated hyperparameters.
    fn assemble(
        x: &[Vec<f64>],
        params: GpParams,
        chol: &Cholesky,
        alpha: Vec<f64>,
        y_mean: f64,
        y_scale: f64,
    ) -> Gp {
        let n = x.len();
        let dims = x.first().map_or(0, Vec::len);
        let mut xt = vec![0.0; dims * n];
        for (i, xi) in x.iter().enumerate() {
            for (d, &v) in xi.iter().enumerate() {
                xt[d * n + i] = v;
            }
        }
        let mut lc = vec![0.0; n * n];
        for j in 0..n {
            for i in j..n {
                lc[j * n + i] = chol.get(i, j);
            }
        }
        let ls = params.log_lengthscales.iter().map(|l| l.exp()).collect();
        let sv = params.log_signal_var.exp();
        let noise = params.log_noise_var.exp();
        Gp {
            xt,
            params,
            lc,
            alpha,
            y_mean,
            y_scale,
            ls,
            sv,
            noise,
        }
    }

    /// The kernel with hoisted lengthscales — the same accumulation order as
    /// [`GpParams::kernel`], so the value is identical to the last bit.
    #[inline]
    fn k(&self, a: &[f64], b: &[f64]) -> f64 {
        let mut s = 0.0;
        for ((x, y), l) in a.iter().zip(b).zip(&self.ls) {
            let d = (x - y) / l;
            s += d * d;
        }
        self.sv * (-0.5 * s).exp()
    }

    /// Posterior mean and variance at `x` (Equation 6), in the original
    /// target units.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        self.predict_into(x, &mut vec![0.0; self.len()])
    }

    /// Batched prediction reusing one `k*` buffer across queries.
    /// Bit-identical to calling [`Gp::predict`] per point.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let mut buf = vec![0.0; self.len()];
        xs.iter().map(|q| self.predict_into(q, &mut buf)).collect()
    }

    /// The prediction kernel behind [`Gp::predict`] and
    /// [`Gp::predict_batch`]; `buf` holds `n` doubles. Every entry keeps the
    /// operation order of a per-point [`Gp::k`] followed by a row-oriented
    /// forward substitution, so results are bit-identical to that form;
    /// only the loop nesting changes, which makes every loop over training
    /// points contiguous and vectorizable:
    ///
    /// * `k*`: each point's squared scaled distance accumulates from `0.0`
    ///   one dimension at a time, in ascending dimension order, across all
    ///   points at once;
    /// * the forward solve `L v = k*` runs column by column: `v_j = w_j /
    ///   L[j][j]`, then `w_i −= L[i][j]·v_j` for every `i > j`, so each
    ///   row still subtracts its products in ascending `j`.
    fn predict_into(&self, q: &[f64], buf: &mut [f64]) -> (f64, f64) {
        let n = self.len();
        let w = &mut buf[..n];
        w.fill(0.0);
        for ((col, &qd), &l) in self.xt.chunks_exact(n).zip(q).zip(&self.ls) {
            for (s, &xi) in w.iter_mut().zip(col) {
                let d = (xi - qd) / l;
                *s += d * d;
            }
        }
        for s in w.iter_mut() {
            *s = self.sv * (-0.5 * *s).exp();
        }
        let mean_std = dot(w, &self.alpha);
        // In place: `w` turns from `k*` into `v`, entry j settling at step j.
        for (j, col) in self.lc.chunks_exact(n).enumerate() {
            let (done, rest) = w.split_at_mut(j + 1);
            let vj = done[j] / col[j];
            done[j] = vj;
            for (wi, &lij) in rest.iter_mut().zip(&col[j + 1..]) {
                *wi -= lij * vj;
            }
        }
        let k_xx = self.k(q, q) + self.noise;
        let var_std = (k_xx - dot(w, w)).max(1e-12);
        (
            self.y_mean + self.y_scale * mean_std,
            var_std * self.y_scale * self.y_scale,
        )
    }

    /// The selected hyperparameters.
    pub fn params(&self) -> &GpParams {
        &self.params
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// True when the GP holds no training points (cannot happen after a
    /// successful [`Gp::fit`]).
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }
}

impl Surrogate for Gp {
    fn predict(&self, x: &[f64]) -> (f64, f64) {
        Gp::predict(self, x)
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        Gp::predict_batch(self, xs)
    }
}

/// The previous fit a [`GpFitter`] can cheaply refresh: hyperparameters
/// plus — on the exact path — the factorization to extend incrementally.
#[derive(Debug, Clone)]
struct LastFit {
    params: GpParams,
    /// The exact-path factor ([`None`] after a sparse fit: the subset is
    /// re-selected per refit, so there is nothing to extend).
    chol: Option<Cholesky>,
    /// The seed of the full fit that selected `params` — re-derives the
    /// sparse inducing-set start point on refits.
    seed: u64,
}

/// Incremental GP fitting over a growing dataset.
///
/// Owns the [`GramCache`] so successive fits — BO performs one per
/// iteration on the same (extended) dataset — reuse the pairwise
/// differences, and keeps the last accepted factorization so
/// [`GpFitter::refit`] can append rows in O(n²) instead of re-running the
/// O(n³) hyperparameter search. `refit` is bit-identical to a from-scratch
/// [`Gp::fit_with_params`] at the retained hyperparameters.
///
/// With a non-default [`SparsePolicy`] (see [`GpFitter::with_policy`]),
/// datasets above the policy threshold are fitted on a deterministic
/// inducing subset ([`select_inducing`]) instead of exactly: fit cost
/// stays O(n·m + m³) with `m = policy.inducing` no matter how large the
/// history grows. At or below the threshold the fitter runs the exact
/// path and is byte-identical to a policy-free fitter.
///
/// A fitter counts its own work, `surrogate.{sparse_fits,
/// incremental_fits, gram_reuse, chol_jitter_retries}`, on the handle
/// [`GpFitter::with_obs`] gives it.
#[derive(Debug, Clone)]
pub struct GpFitter {
    cache: GramCache,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    /// Input dimensionality (0 until the first observation).
    dims: usize,
    policy: SparsePolicy,
    scratch: Matrix,
    /// Reused kernel-row buffer for the incremental append path.
    row_scratch: Vec<f64>,
    /// Reused standardized-target buffer.
    ys_scratch: Vec<f64>,
    obs: Obs,
    last: Option<LastFit>,
}

impl Default for GpFitter {
    /// An empty fitter with the exact (never-approximating) policy.
    fn default() -> Self {
        GpFitter {
            cache: GramCache::new(&[]),
            x: Vec::new(),
            y: Vec::new(),
            dims: 0,
            policy: SparsePolicy::exact(),
            scratch: Matrix::zeros(0),
            row_scratch: Vec::new(),
            ys_scratch: Vec::new(),
            obs: Obs::disabled(),
            last: None,
        }
    }
}

impl GpFitter {
    /// [`GpFitter::default`]. The argument was a scoring-thread count and
    /// is ignored: fits are always serial. Kept only because the frozen
    /// ledger benchmark (`bench_ledger/`) calls it; the next change to the
    /// benchmark deletes it.
    #[deprecated(note = "use GpFitter::default()")]
    pub fn new(_threads: usize) -> Self {
        Self::default()
    }

    /// Sets the sparse large-n policy (builder style). The default is
    /// [`SparsePolicy::exact`] — never approximate.
    pub fn with_policy(mut self, policy: SparsePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active sparse policy.
    pub fn policy(&self) -> SparsePolicy {
        self.policy
    }

    /// Counts this fitter's `surrogate.*` work on `obs` (builder style).
    /// The default handle is disabled.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Appends one observation, extending the difference cache in O(n·dims).
    /// Once the dataset outgrows the sparse-policy threshold the pairwise
    /// cache is dropped — the sparse path re-selects its subset per fit, so
    /// keeping the O(n²) difference arrays current would be pure waste.
    pub fn observe(&mut self, x: Vec<f64>, y: f64) -> Result<()> {
        if self.y.is_empty() {
            self.dims = x.len();
        } else if x.len() != self.dims {
            return Err(Error::Numerical("inconsistent input dimensionality".into()));
        }
        if !self.policy.applies(self.y.len() + 1) {
            self.cache.append(&x);
        } else if !self.cache.is_empty() {
            self.cache = GramCache::new(&[]);
        }
        self.x.push(x);
        self.y.push(y);
        Ok(())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Full fit: marginal-likelihood hyperparameter search (24 seeded random
    /// proposals, then coordinate descent over the memoized Gram), final
    /// jittered factorization. Bit-identical to the original `Gp::fit`.
    /// Above the sparse policy threshold the search and fit run on a
    /// deterministic inducing subset instead of the full dataset.
    pub fn fit_full(&mut self, seed: u64) -> Result<Gp> {
        if self.y.is_empty() {
            return Err(Error::Numerical(
                "GP needs matching, non-empty inputs".into(),
            ));
        }
        if self.policy.applies(self.y.len()) {
            return self.fit_sparse_full(seed);
        }
        let GpFitter {
            cache,
            x,
            y,
            scratch,
            ys_scratch,
            obs,
            last,
            ..
        } = self;
        let (y_mean, y_scale) = standardize_into(y, ys_scratch);
        let (best, reused) = search_hyperparams(cache, ys_scratch, seed);
        let reused = reused + cache.assemble_into(&best, scratch);
        let chol = Cholesky::with_jitter(scratch, 1e-8)?;
        count(obs, "surrogate.gram_reuse", reused);
        count(obs, "surrogate.chol_jitter_retries", chol.jitter_retries());
        let alpha = chol.solve(ys_scratch);
        let gp = Gp::assemble(x, best.clone(), &chol, alpha, y_mean, y_scale);
        *last = Some(LastFit {
            params: best,
            chol: Some(chol),
            seed,
        });
        Ok(gp)
    }

    /// The sparse large-n full fit: selects `policy.inducing` points by
    /// seeded greedy max-min ([`select_inducing`]), then runs the exact
    /// hyperparameter search and factorization on the subset alone —
    /// bit-identical to an exact fit of just those observations at the
    /// same seed, and O(n·m + m³) instead of O(n³).
    fn fit_sparse_full(&mut self, seed: u64) -> Result<Gp> {
        let m = self.policy.subset_size(self.y.len());
        let idx = select_inducing(&self.x, m, seed as usize);
        let sub_x: Vec<Vec<f64>> = idx.iter().map(|&i| self.x[i].clone()).collect();
        let sub_y: Vec<f64> = idx.iter().map(|&i| self.y[i]).collect();
        let mut sub_cache = GramCache::new(&sub_x);
        let (y_mean, y_scale) = standardize_into(&sub_y, &mut self.ys_scratch);
        let (best, reused) = search_hyperparams(&mut sub_cache, &self.ys_scratch, seed);
        let reused = reused + sub_cache.assemble_into(&best, &mut self.scratch);
        let chol = Cholesky::with_jitter(&self.scratch, 1e-8)?;
        self.obs.inc("surrogate.sparse_fits");
        count(&self.obs, "surrogate.gram_reuse", reused);
        count(
            &self.obs,
            "surrogate.chol_jitter_retries",
            chol.jitter_retries(),
        );
        let alpha = chol.solve(&self.ys_scratch);
        self.last = Some(LastFit {
            params: best.clone(),
            chol: None,
            seed,
        });
        Ok(Gp::assemble(&sub_x, best, &chol, alpha, y_mean, y_scale))
    }

    /// Incremental refit at the previously selected hyperparameters: appends
    /// one Cholesky row per observation recorded since the last fit (O(n²)
    /// each) and re-solves for the weights. The kernel rows are written into
    /// a reused scratch buffer and the stored factor is extended in place —
    /// the append path allocates nothing per observation once warm. Falls
    /// back to a full jittered refactorization if a row append loses
    /// positive definiteness — either way the result is bit-identical to
    /// [`Gp::fit_with_params`] on the extended dataset. Above the sparse
    /// policy threshold the refit instead re-selects the inducing subset
    /// (new observations can displace old inducing points) and refits it at
    /// the retained hyperparameters. Requires a prior [`GpFitter::fit_full`].
    pub fn refit(&mut self) -> Result<Gp> {
        if self.last.is_none() {
            return Err(Error::Numerical(
                "incremental refit requires a prior full fit".into(),
            ));
        }
        if self.policy.applies(self.y.len()) {
            return self.refit_sparse();
        }
        let GpFitter {
            cache,
            x,
            y,
            scratch,
            row_scratch,
            ys_scratch,
            obs,
            last,
            ..
        } = self;
        let last = last.as_mut().expect("checked above");
        let params = last.params.clone();
        let ls: Vec<f64> = params.log_lengthscales.iter().map(|l| l.exp()).collect();
        let sv = params.log_signal_var.exp();
        let noise = params.log_noise_var.exp();
        let mut appended_ok = last.chol.is_some();
        if let Some(chol) = last.chol.as_mut() {
            for i in chol.n()..cache.len() {
                let diag = cache.kernel_row_into(i, &ls, sv, noise, row_scratch);
                if chol.append_row(row_scratch, diag).is_err() {
                    appended_ok = false;
                    break;
                }
            }
        }
        if !appended_ok {
            let reused = cache.assemble_into(&params, scratch);
            let c = Cholesky::with_jitter(scratch, 1e-8)?;
            count(obs, "surrogate.gram_reuse", reused);
            count(obs, "surrogate.chol_jitter_retries", c.jitter_retries());
            last.chol = Some(c);
        }
        let chol = last.chol.as_ref().expect("factor present after refit");
        obs.inc("surrogate.incremental_fits");
        let (y_mean, y_scale) = standardize_into(y, ys_scratch);
        let alpha = chol.solve(ys_scratch);
        Ok(Gp::assemble(x, params, chol, alpha, y_mean, y_scale))
    }

    /// The sparse refit: re-selects the inducing subset over the grown
    /// dataset (same seeded start as the last full fit) and refits it at
    /// the retained hyperparameters — no search, so O(n·m + m³).
    fn refit_sparse(&mut self) -> Result<Gp> {
        let last = self.last.as_ref().expect("checked by refit");
        let params = last.params.clone();
        let seed = last.seed;
        let m = self.policy.subset_size(self.y.len());
        let idx = select_inducing(&self.x, m, seed as usize);
        let sub_x: Vec<Vec<f64>> = idx.iter().map(|&i| self.x[i].clone()).collect();
        let sub_y: Vec<f64> = idx.iter().map(|&i| self.y[i]).collect();
        let (y_mean, y_scale) = standardize_into(&sub_y, &mut self.ys_scratch);
        let sub_cache = GramCache::new(&sub_x);
        sub_cache.assemble_fresh_into(&params, &mut self.scratch);
        let chol = Cholesky::with_jitter(&self.scratch, 1e-8)?;
        self.obs.inc("surrogate.incremental_fits");
        self.obs.inc("surrogate.sparse_fits");
        count(
            &self.obs,
            "surrogate.chol_jitter_retries",
            chol.jitter_retries(),
        );
        let alpha = chol.solve(&self.ys_scratch);
        Ok(Gp::assemble(&sub_x, params, &chol, alpha, y_mean, y_scale))
    }
}

/// Adds `n` to the named counter on `obs`; a zero registers nothing.
fn count(obs: &Obs, name: &str, n: impl Into<u64>) {
    let n = n.into();
    if n > 0 {
        obs.add(name, n as f64);
    }
}

/// Marginal-likelihood hyperparameter search over a cached dataset: a
/// memoized evaluation of the default parameters, 24 seeded random
/// proposals (strict-`>` fold in draw order), then two coordinate-descent
/// sweeps through the memoized assembly. Identical operation sequence —
/// and therefore identical bits — to the search `fit_full` originally
/// inlined. Also returns the dimensions the memo served.
fn search_hyperparams(cache: &mut GramCache, ys: &[f64], seed: u64) -> (GpParams, u64) {
    let dims = cache.dims();
    let mut scratch = Matrix::zeros(0);
    let mut rng = Rng::new(seed ^ 0x6A09_E667);
    let mut best = GpParams::default_for(dims);
    let mut reused = cache.assemble_into(&best, &mut scratch);
    let mut best_lml = lml_from_gram(&scratch, ys).unwrap_or(f64::NEG_INFINITY);

    // A random proposal changes every lengthscale, so the memo has nothing
    // to offer it; the fresh assembly leaves the memo (and its reuse
    // counters) untouched.
    for _ in 0..24 {
        let cand = GpParams {
            log_lengthscales: (0..dims)
                .map(|_| rng.uniform_in((0.05f64).ln(), (2.0f64).ln()))
                .collect(),
            log_signal_var: rng.uniform_in((0.2f64).ln(), (3.0f64).ln()),
            log_noise_var: rng.uniform_in((1e-4f64).ln(), (0.3f64).ln()),
        };
        cache.assemble_fresh_into(&cand, &mut scratch);
        if let Ok(lml) = lml_from_gram(&scratch, ys) {
            if lml > best_lml {
                best_lml = lml;
                best = cand;
            }
        }
    }

    // Coordinate descent, two sweeps. Each step mutates the incumbent,
    // but each candidate differs from the memo state in at most one
    // lengthscale, so the cache reuses the rest.
    for _ in 0..2 {
        for coord in 0..(dims + 2) {
            for step in [-0.4, 0.4, -0.15, 0.15] {
                let mut cand = best.clone();
                match coord {
                    c if c < dims => cand.log_lengthscales[c] += step,
                    c if c == dims => cand.log_signal_var += step,
                    _ => cand.log_noise_var += step,
                }
                reused += cache.assemble_into(&cand, &mut scratch);
                if let Ok(lml) = lml_from_gram(&scratch, ys) {
                    if lml > best_lml {
                        best_lml = lml;
                        best = cand;
                    }
                }
            }
        }
    }
    (best, reused)
}

/// Builds the Gram matrix directly from raw inputs: lower triangle computed
/// once, mirrored to the upper (the kernel is symmetric to the bit — the
/// squared difference is sign-insensitive).
fn gram(x: &[Vec<f64>], params: &GpParams) -> Matrix {
    let n = x.len();
    let noise = params.log_noise_var.exp();
    let mut k = Matrix::zeros(n);
    for i in 0..n {
        for j in 0..=i {
            let v = params.kernel(&x[i], &x[j]) + if i == j { noise + 1e-10 } else { 0.0 };
            k.set(i, j, v);
            k.set(j, i, v);
        }
    }
    k
}

/// LML of standardized targets given an assembled Gram matrix.
fn lml_from_gram(k: &Matrix, ys: &[f64]) -> Result<f64> {
    let chol = Cholesky::new(k)?;
    let alpha = chol.solve(ys);
    let n = ys.len() as f64;
    Ok(-0.5 * dot(ys, &alpha) - 0.5 * chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln())
}

/// Log marginal likelihood of standardized targets under the kernel.
pub fn log_marginal_likelihood(x: &[Vec<f64>], ys: &[f64], params: &GpParams) -> Result<f64> {
    lml_from_gram(&gram(x, params), ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lhs::latin_hypercube;
    use proptest::prelude::*;
    use relm_common::hash::Fnv128;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|v| (v[0] * 6.0).sin() + 2.0).collect();
        let gp = Gp::fit(x.clone(), &y, 1).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (m, _) = gp.predict(xi);
            assert!((m - yi).abs() < 0.25, "predicted {m} for target {yi}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let x = vec![vec![0.2], vec![0.3], vec![0.4]];
        let y = vec![1.0, 1.2, 1.1];
        let gp = Gp::fit(x, &y, 2).unwrap();
        let (_, var_near) = gp.predict(&[0.3]);
        let (_, var_far) = gp.predict(&[0.95]);
        assert!(
            var_far > var_near,
            "far variance {var_far} <= near {var_near}"
        );
    }

    #[test]
    fn variance_is_non_negative_everywhere() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|v| v[0] * v[0]).collect();
        let gp = Gp::fit(x, &y, 3).unwrap();
        for i in 0..50 {
            let (_, var) = gp.predict(&[i as f64 / 49.0]);
            assert!(var >= 0.0);
        }
    }

    #[test]
    fn fits_multidimensional_smooth_functions() {
        let mut rng = Rng::new(7);
        let x: Vec<Vec<f64>> = (0..40)
            .map(|_| vec![rng.uniform(), rng.uniform(), rng.uniform()])
            .collect();
        let f = |v: &[f64]| 3.0 * v[0] - 2.0 * v[1] * v[1] + (v[2] * 3.0).sin();
        let y: Vec<f64> = x.iter().map(|v| f(v)).collect();
        let gp = Gp::fit(x, &y, 4).unwrap();
        let mut err = 0.0;
        let mut count = 0;
        for _ in 0..30 {
            let p = vec![rng.uniform(), rng.uniform(), rng.uniform()];
            let (m, _) = gp.predict(&p);
            err += (m - f(&p)).abs();
            count += 1;
        }
        assert!(
            err / (count as f64) < 0.5,
            "mean abs error too high: {}",
            err / count as f64
        );
    }

    #[test]
    fn rejects_empty_and_mismatched_inputs() {
        assert!(Gp::fit(vec![], &[], 1).is_err());
        assert!(Gp::fit(vec![vec![0.1]], &[1.0, 2.0], 1).is_err());
        assert!(Gp::fit(vec![vec![0.1], vec![0.1, 0.2]], &[1.0, 2.0], 1).is_err());
    }

    #[test]
    fn handles_duplicate_inputs_gracefully() {
        let x = vec![vec![0.5], vec![0.5], vec![0.5]];
        let y = vec![1.0, 1.1, 0.9];
        let gp = Gp::fit(x, &y, 5).unwrap();
        let (m, v) = gp.predict(&[0.5]);
        assert!((m - 1.0).abs() < 0.2);
        assert!(v.is_finite());
    }

    #[test]
    fn constant_targets_do_not_blow_up() {
        let x = grid_1d(5);
        let y = vec![2.0; 5];
        let gp = Gp::fit(x, &y, 6).unwrap();
        let (m, v) = gp.predict(&[0.33]);
        assert!((m - 2.0).abs() < 1e-3);
        assert!(v.is_finite());
    }

    #[test]
    fn gram_is_symmetric() {
        let mut rng = Rng::new(31);
        let x: Vec<Vec<f64>> = (0..9)
            .map(|_| (0..4).map(|_| rng.uniform()).collect())
            .collect();
        let p = GpParams::default_for(4);
        let k = gram(&x, &p);
        for i in 0..k.n() {
            for j in 0..k.n() {
                assert_eq!(k.get(i, j).to_bits(), k.get(j, i).to_bits());
            }
        }
    }

    /// The pre-cache fit, reconstructed verbatim: direct Gram per candidate
    /// and a serial strict-`>` search. The production path must match it to
    /// the last bit — this is the trace-compatibility contract.
    fn legacy_fit(x: Vec<Vec<f64>>, y: &[f64], seed: u64) -> Gp {
        let dims = x[0].len();
        let (_, _, ys) = standardize(y);
        let mut rng = Rng::new(seed ^ 0x6A09_E667);
        let mut best = GpParams::default_for(dims);
        let mut best_lml = log_marginal_likelihood(&x, &ys, &best).unwrap_or(f64::NEG_INFINITY);
        for _ in 0..24 {
            let cand = GpParams {
                log_lengthscales: (0..dims)
                    .map(|_| rng.uniform_in((0.05f64).ln(), (2.0f64).ln()))
                    .collect(),
                log_signal_var: rng.uniform_in((0.2f64).ln(), (3.0f64).ln()),
                log_noise_var: rng.uniform_in((1e-4f64).ln(), (0.3f64).ln()),
            };
            if let Ok(lml) = log_marginal_likelihood(&x, &ys, &cand) {
                if lml > best_lml {
                    best_lml = lml;
                    best = cand;
                }
            }
        }
        for _ in 0..2 {
            for coord in 0..(dims + 2) {
                for step in [-0.4, 0.4, -0.15, 0.15] {
                    let mut cand = best.clone();
                    match coord {
                        c if c < dims => cand.log_lengthscales[c] += step,
                        c if c == dims => cand.log_signal_var += step,
                        _ => cand.log_noise_var += step,
                    }
                    if let Ok(lml) = log_marginal_likelihood(&x, &ys, &cand) {
                        if lml > best_lml {
                            best_lml = lml;
                            best = cand;
                        }
                    }
                }
            }
        }
        Gp::fit_with_params(x, y, best).unwrap()
    }

    fn random_dataset(n: usize, dims: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = Rng::new(seed);
        let xs = latin_hypercube(n, dims, &mut rng);
        let ys = xs
            .iter()
            .map(|x| {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| (v * (i as f64 + 1.3)).sin())
                    .sum::<f64>()
            })
            .collect();
        (xs, ys)
    }

    fn assert_gps_bitwise_equal(a: &Gp, b: &Gp, probes: &[Vec<f64>], ctx: &str) {
        assert_eq!(a.params(), b.params(), "{ctx}: hyperparameters differ");
        for p in probes {
            let (ma, va) = a.predict(p);
            let (mb, vb) = b.predict(p);
            assert_eq!(ma.to_bits(), mb.to_bits(), "{ctx}: mean differs at {p:?}");
            assert_eq!(va.to_bits(), vb.to_bits(), "{ctx}: var differs at {p:?}");
        }
    }

    #[test]
    fn fit_matches_the_legacy_search_bitwise() {
        for (n, seed) in [(6usize, 1u64), (13, 9), (20, 42)] {
            let (xs, ys) = random_dataset(n, 4, seed);
            let mut rng = Rng::new(seed ^ 77);
            let probes = latin_hypercube(12, 4, &mut rng);
            let fast = Gp::fit(xs.clone(), &ys, seed).unwrap();
            let legacy = legacy_fit(xs, &ys, seed);
            assert_gps_bitwise_equal(&fast, &legacy, &probes, "legacy-vs-cached");
        }
    }

    #[test]
    fn predict_batch_matches_predict_bitwise() {
        let (xs, ys) = random_dataset(15, 4, 3);
        let gp = Gp::fit(xs, &ys, 2).unwrap();
        let mut rng = Rng::new(12);
        let probes = latin_hypercube(25, 4, &mut rng);
        let batch = gp.predict_batch(&probes);
        for (p, (bm, bv)) in probes.iter().zip(&batch) {
            let (m, v) = gp.predict(p);
            assert_eq!(m.to_bits(), bm.to_bits());
            assert_eq!(v.to_bits(), bv.to_bits());
        }
    }

    /// The prediction before the column-major kernel, reconstructed: [`Gp::k`]
    /// per training row, then the row-oriented forward substitution
    /// `Cholesky::solve_l` ran (each row subtracts its products in ascending
    /// column order). The kernel must match it to the last bit.
    fn reference_predict(gp: &Gp, rows: &[Vec<f64>], chol: &Cholesky, q: &[f64]) -> (f64, f64) {
        let k_star: Vec<f64> = rows.iter().map(|xi| gp.k(xi, q)).collect();
        let mean_std = dot(&k_star, &gp.alpha);
        let mut v = vec![0.0; rows.len()];
        for (i, &ki) in k_star.iter().enumerate() {
            let mut sum = ki;
            for (j, vj) in v[..i].iter().enumerate() {
                sum -= chol.get(i, j) * vj;
            }
            v[i] = sum / chol.get(i, i);
        }
        let k_xx = gp.k(q, q) + gp.noise;
        let var_std = (k_xx - dot(&v, &v)).max(1e-12);
        (
            gp.y_mean + gp.y_scale * mean_std,
            var_std * gp.y_scale * gp.y_scale,
        )
    }

    /// Probes for the kernel oracle: the training points themselves, the
    /// all-0 and all-1 corners, random corners, random points on the
    /// cube's faces, and random interior points.
    fn kernel_probes(xs: &[Vec<f64>], dims: usize, rng: &mut Rng) -> Vec<Vec<f64>> {
        let mut probes = xs.to_vec();
        probes.push(vec![0.0; dims]);
        probes.push(vec![1.0; dims]);
        for _ in 0..6 {
            probes.push(
                (0..dims)
                    .map(|_| f64::from(u8::from(rng.chance(0.5))))
                    .collect(),
            );
            let mut face: Vec<f64> = (0..dims).map(|_| rng.uniform()).collect();
            face[rng.below(dims)] = f64::from(u8::from(rng.chance(0.5)));
            probes.push(face);
            probes.push((0..dims).map(|_| rng.uniform()).collect());
        }
        probes
    }

    fn bits((m, v): (f64, f64)) -> (u64, u64) {
        (m.to_bits(), v.to_bits())
    }

    impl Gp {
        /// A 128-bit FNV-1a digest of everything the prediction kernel
        /// reads: `n` and the dimensionality, then the raw bits of the
        /// training inputs, the factor's lower triangle (the upper one is
        /// zero and never read), `alpha`, the exponentiated lengthscales,
        /// `y_mean`, `y_scale`, the signal variance and the noise, each
        /// word fed as its little-endian bytes. Two GPs with equal
        /// fingerprints predict identically, bit for bit (barring a
        /// 128-bit collision), which makes it the tests' bitwise
        /// comparison of two fits. `params` is left out: the kernel reads
        /// it only through the hoisted values.
        fn fingerprint(&self) -> u128 {
            let n = self.len();
            let mut h = Fnv128::new();
            h.write_u64(n as u64);
            h.write_u64(self.ls.len() as u64);
            let lower = (0..n).flat_map(|j| &self.lc[j * n + j..(j + 1) * n]);
            let words = self
                .xt
                .iter()
                .chain(lower)
                .chain(&self.alpha)
                .chain(&self.ls)
                .chain([&self.y_mean, &self.y_scale, &self.sv, &self.noise]);
            for v in words {
                h.write_u64(v.to_bits());
            }
            h.finish()
        }
    }

    /// The fingerprint covers every field the kernel reads, so equal
    /// fingerprints across constructors check the refit invariant field
    /// by field: `fit_full`, then `refit` after more observations, digest
    /// exactly like `fit_with_params` on the same data and parameters.
    #[test]
    fn refit_fingerprint_equals_a_fixed_params_fit() {
        for (seed, n0, appends) in [(1u64, 5usize, 1usize), (8, 9, 3), (42, 14, 6)] {
            let grown = n0 + appends;
            let (xs, ys) = random_dataset(grown + 1, 4, seed);
            let mut fitter = GpFitter::default();
            for (x, y) in xs[..n0].iter().zip(&ys) {
                fitter.observe(x.clone(), *y).unwrap();
            }
            let full = fitter.fit_full(seed).unwrap();
            let params = full.params().clone();
            let fixed = |upto: usize| {
                Gp::fit_with_params(xs[..upto].to_vec(), &ys[..upto], params.clone())
                    .unwrap()
                    .fingerprint()
            };
            assert_eq!(full.fingerprint(), fixed(n0), "fit_full, seed {seed}");
            for (x, y) in xs[n0..grown].iter().zip(&ys[n0..grown]) {
                fitter.observe(x.clone(), *y).unwrap();
            }
            let refit = fitter.refit().unwrap();
            assert_eq!(refit.fingerprint(), fixed(grown), "refit, seed {seed}");
            fitter.observe(xs[grown].clone(), ys[grown]).unwrap();
            assert_ne!(
                fitter.refit().unwrap().fingerprint(),
                refit.fingerprint(),
                "one more observation, seed {seed}"
            );
        }
    }

    /// Flipping the lowest bit of any value the prediction kernel reads
    /// moves the fingerprint; the factor's upper triangle, which it never
    /// reads, is left out.
    #[test]
    fn fingerprint_covers_every_value_the_kernel_reads() {
        let (xs, ys) = random_dataset(6, 3, 4);
        let gp = Gp::fit(xs, &ys, 4).unwrap();
        let base = gp.fingerprint();
        let n = gp.len();
        for field in [
            "xt", "lc", "alpha", "y_mean", "y_scale", "ls", "sv", "noise",
        ] {
            let mut moved = gp.clone();
            let value = match field {
                "xt" => &mut moved.xt[2 * n + 1],
                "lc" => &mut moved.lc[n + 2], // L[2][1]
                "alpha" => &mut moved.alpha[3],
                "y_mean" => &mut moved.y_mean,
                "y_scale" => &mut moved.y_scale,
                "ls" => &mut moved.ls[1],
                "sv" => &mut moved.sv,
                _ => &mut moved.noise,
            };
            *value = f64::from_bits(value.to_bits() ^ 1);
            assert_ne!(moved.fingerprint(), base, "{field}");
        }
        let mut upper = gp.clone();
        upper.lc[n] = 1.0; // L[0][1], above the diagonal
        assert_eq!(upper.fingerprint(), base);
        let probe = [0.3, 0.6, 0.9];
        assert_eq!(bits(upper.predict(&probe)), bits(gp.predict(&probe)));
    }

    #[test]
    fn refit_requires_a_prior_full_fit() {
        let obs = Obs::enabled();
        let mut fitter = GpFitter::default().with_obs(obs.clone());
        fitter.observe(vec![0.3, 0.4], 1.0).unwrap();
        assert!(fitter.refit().is_err());
        fitter.fit_full(1).unwrap();
        fitter.observe(vec![0.6, 0.1], 2.0).unwrap();
        assert!(fitter.refit().is_ok());
        assert_eq!(obs.counter_value("surrogate.incremental_fits"), 1.0);
    }

    #[test]
    fn fitter_rejects_inconsistent_dimensions() {
        let mut fitter = GpFitter::default();
        fitter.observe(vec![0.1, 0.2], 1.0).unwrap();
        assert!(fitter.observe(vec![0.1], 2.0).is_err());
    }

    fn sparse_policy_small() -> SparsePolicy {
        SparsePolicy {
            threshold: 12,
            inducing: 10,
        }
    }

    /// Feeds the same dataset to two fitters and returns their fits.
    fn fit_pair(
        xs: &[Vec<f64>],
        ys: &[f64],
        seed: u64,
        a: &mut GpFitter,
        b: &mut GpFitter,
    ) -> (Gp, Gp) {
        for (x, y) in xs.iter().zip(ys) {
            a.observe(x.clone(), *y).unwrap();
            b.observe(x.clone(), *y).unwrap();
        }
        (a.fit_full(seed).unwrap(), b.fit_full(seed).unwrap())
    }

    #[test]
    fn sparse_fit_equals_exact_fit_of_the_selected_subset() {
        let (xs, ys) = random_dataset(40, 3, 21);
        let policy = sparse_policy_small();
        let seed = 77u64;
        let obs = Obs::enabled();
        let mut fitter = GpFitter::default()
            .with_policy(policy)
            .with_obs(obs.clone());
        for (x, y) in xs.iter().zip(&ys) {
            fitter.observe(x.clone(), *y).unwrap();
        }
        let sparse = fitter.fit_full(seed).unwrap();
        assert_eq!(obs.counter_value("surrogate.sparse_fits"), 1.0);
        assert_eq!(sparse.len(), policy.inducing);

        // The reference: an exact fitter over exactly the inducing subset.
        let idx = select_inducing(&xs, policy.inducing, seed as usize);
        let mut exact = GpFitter::default();
        for &i in &idx {
            exact.observe(xs[i].clone(), ys[i]).unwrap();
        }
        let reference = exact.fit_full(seed).unwrap();
        let mut rng = Rng::new(5);
        let probes = latin_hypercube(10, 3, &mut rng);
        assert_gps_bitwise_equal(&sparse, &reference, &probes, "sparse-vs-subset-exact");
    }

    #[test]
    fn sparse_refit_reselects_at_retained_params() {
        let (xs, ys) = random_dataset(40, 3, 13);
        let obs = Obs::enabled();
        let mut fitter = GpFitter::default()
            .with_policy(sparse_policy_small())
            .with_obs(obs.clone());
        for (x, y) in xs[..30].iter().zip(&ys) {
            fitter.observe(x.clone(), *y).unwrap();
        }
        let full = fitter.fit_full(9).unwrap();
        for (x, y) in xs[30..].iter().zip(&ys[30..]) {
            fitter.observe(x.clone(), *y).unwrap();
        }
        let refit = fitter.refit().unwrap();
        assert_eq!(refit.params(), full.params(), "refit must retain params");
        assert_eq!(obs.counter_value("surrogate.sparse_fits"), 2.0);
        assert_eq!(obs.counter_value("surrogate.incremental_fits"), 1.0);

        // Reference: re-select over the grown dataset, fixed-params fit.
        let idx = select_inducing(&xs, 10, 9);
        let sub_x: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
        let sub_y: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
        let reference = Gp::fit_with_params(sub_x, &sub_y, full.params().clone()).unwrap();
        let mut rng = Rng::new(6);
        let probes = latin_hypercube(8, 3, &mut rng);
        assert_gps_bitwise_equal(&refit, &reference, &probes, "sparse-refit-vs-scratch");
    }

    #[test]
    fn crossing_the_threshold_switches_to_sparse_and_keeps_fitting() {
        let (xs, ys) = random_dataset(16, 3, 99);
        let obs = Obs::enabled();
        let mut fitter = GpFitter::default()
            .with_policy(sparse_policy_small())
            .with_obs(obs.clone());
        for (x, y) in xs[..12].iter().zip(&ys) {
            fitter.observe(x.clone(), *y).unwrap();
        }
        let exact = fitter.fit_full(1).unwrap();
        assert_eq!(
            obs.counter_value("surrogate.sparse_fits"),
            0.0,
            "at threshold: exact"
        );
        assert_eq!(exact.len(), 12);
        for (x, y) in xs[12..].iter().zip(&ys[12..]) {
            fitter.observe(x.clone(), *y).unwrap();
        }
        let sparse = fitter.fit_full(2).unwrap();
        assert_eq!(
            obs.counter_value("surrogate.sparse_fits"),
            1.0,
            "above threshold: sparse"
        );
        assert_eq!(sparse.len(), 10, "capped at the inducing budget");
        assert!(fitter.refit().is_ok(), "sparse refit after crossing");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Satellite: incremental-vs-full equivalence. Fit once, stream in
        /// a random number of extra observations (random values, random
        /// count), refit incrementally after each — predictions must equal
        /// a from-scratch fixed-params fit on the grown dataset bit for bit.
        #[test]
        fn incremental_refit_equals_from_scratch(
            seed in 0u64..1000,
            n0 in 4usize..12,
            appends in 1usize..5,
        ) {
            let dims = 3;
            let (xs, ys) = random_dataset(n0 + appends, dims, seed ^ 0x51AB);
            let mut fitter = GpFitter::default();
            for (x, y) in xs[..n0].iter().zip(&ys) {
                fitter.observe(x.clone(), *y).unwrap();
            }
            let fitted = fitter.fit_full(seed).unwrap();
            let params = fitted.params().clone();
            let mut rng = Rng::new(seed ^ 3);
            let probes = latin_hypercube(8, dims, &mut rng);
            for step in 0..appends {
                let grown = n0 + step + 1;
                fitter
                    .observe(xs[grown - 1].clone(), ys[grown - 1])
                    .unwrap();
                let incremental = fitter.refit().unwrap();
                let scratch = Gp::fit_with_params(
                    xs[..grown].to_vec(),
                    &ys[..grown],
                    params.clone(),
                )
                .unwrap();
                assert_gps_bitwise_equal(
                    &incremental,
                    &scratch,
                    &probes,
                    &format!("seed={seed} n0={n0} step={step}"),
                );
            }
        }

        /// `predict` and `predict_batch` equal [`reference_predict`] bit for
        /// bit on GPs from all three constructors: `fit_full` on the first
        /// half of the data, `refit` after streaming in the rest, and
        /// `fit_with_params` on all of it at the selected hyperparameters.
        #[test]
        fn prediction_kernel_matches_the_row_oriented_reference(
            seed in 0u64..1000,
            n in 1usize..=64,
            dims in 1usize..=8,
        ) {
            let (xs, ys) = random_dataset(n, dims, seed ^ 0x7E57);
            let n0 = n.div_ceil(2);
            let mut fitter = GpFitter::default();
            for (x, y) in xs[..n0].iter().zip(&ys) {
                fitter.observe(x.clone(), *y).unwrap();
            }
            let factor = |f: &GpFitter| f.last.as_ref().and_then(|l| l.chol.clone()).unwrap();
            let full = fitter.fit_full(seed).unwrap();
            let full_chol = factor(&fitter);
            for (x, y) in xs[n0..].iter().zip(&ys[n0..]) {
                fitter.observe(x.clone(), *y).unwrap();
            }
            let refit = fitter.refit().unwrap();
            let refit_chol = factor(&fitter);
            let params = full.params().clone();
            let fixed = Gp::fit_with_params(xs.clone(), &ys, params.clone()).unwrap();
            let mut gram = Matrix::zeros(0);
            GramCache::new(&xs).assemble_fresh_into(&params, &mut gram);
            let fixed_chol = Cholesky::with_jitter(&gram, 1e-8).unwrap();

            let probes = kernel_probes(&xs, dims, &mut Rng::new(seed ^ 0xFACE));
            for (name, gp, rows, chol) in [
                ("fit_full", &full, &xs[..n0], &full_chol),
                ("refit", &refit, &xs[..], &refit_chol),
                ("fit_with_params", &fixed, &xs[..], &fixed_chol),
            ] {
                let batch = gp.predict_batch(&probes);
                for (p, b) in probes.iter().zip(&batch) {
                    let want = bits(reference_predict(gp, rows, chol, p));
                    prop_assert_eq!(bits(gp.predict(p)), want, "{} predict at {:?}", name, p);
                    prop_assert_eq!(bits(*b), want, "{} predict_batch at {:?}", name, p);
                }
            }
        }

        /// Satellite: the sparse policy is invisible at or below its
        /// threshold. A fitter with an armed policy and a policy-free
        /// fitter must produce bitwise-identical fits for every dataset
        /// size up to the bound.
        #[test]
        fn sparse_mode_below_threshold_is_bitwise_exact(
            seed in 0u64..1000,
            n in 3usize..13,
        ) {
            let dims = 3;
            let (xs, ys) = random_dataset(n, dims, seed ^ 0xC0DE);
            let obs = Obs::enabled();
            let mut with_policy = GpFitter::default()
                .with_policy(sparse_policy_small())
                .with_obs(obs.clone());
            let mut exact = GpFitter::default();
            let (a, b) = fit_pair(&xs, &ys, seed, &mut with_policy, &mut exact);
            let mut rng = Rng::new(seed ^ 11);
            let probes = latin_hypercube(6, dims, &mut rng);
            assert_gps_bitwise_equal(&a, &b, &probes, &format!("seed={seed} n={n}"));
            assert_eq!(obs.counter_value("surrogate.sparse_fits"), 0.0, "n <= threshold must stay exact");
        }
    }
}
