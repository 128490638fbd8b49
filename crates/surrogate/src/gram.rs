//! Cached Gram-matrix assembly for the squared-exponential ARD kernel.
//!
//! Hyperparameter selection evaluates the log marginal likelihood for on
//! the order of a hundred candidate parameter sets *on the same dataset*.
//! The naive path recomputes every pairwise kernel from the raw inputs each
//! time — one `exp` per dimension per pair (for the lengthscales) plus the
//! kernel's own `exp`. [`GramCache`] precomputes the per-dimension pairwise
//! coordinate differences once per dataset, hoists the per-candidate
//! `exp(log ℓ_d)` out of the pair loop, and assembles each candidate's Gram
//! as an accumulation of per-dimension scaled squares with a **single**
//! `exp` per pair. A memo of the per-dimension contributions additionally
//! lets coordinate-descent steps that change one lengthscale (or only the
//! signal/noise variances) reuse the other dimensions' work.
//!
//! The differences are stored as one packed pair-array *per dimension*
//! (structure-of-arrays), so every sweep — scaling a dimension, summing
//! dimensions into the pair totals, walking a kernel row — is a
//! contiguous slice-to-slice loop the compiler can unroll and vectorize
//! without bounds checks. [`GramCache::assemble_fresh_into`] additionally
//! blocks the pair range into cache-resident tiles: each tile's
//! per-dimension columns are streamed once while the running sums stay in
//! registers/L1, instead of striding the whole `pairs × dims` array per
//! pair.
//!
//! Everything here is bit-identical to the naive formulation: differences
//! are exact, the division by ℓ_d and the accumulation order (dimension
//! ascending, per pair) match the original `kernel` loop term for term, so
//! hyperparameter search — and therefore every tuning trace downstream —
//! is unchanged to the last bit.

use crate::gp::GpParams;
use crate::linalg::Matrix;

/// Offset of packed pair `(i, j)`, `j <= i`, in a row-major lower triangle.
#[inline]
fn pair_index(i: usize, j: usize) -> usize {
    i * (i + 1) / 2 + j
}

/// Pairs per tile in the blocked fresh assembly: 512 doubles of running
/// sums (4 KiB) stay L1-resident alongside one 4 KiB column slice per
/// dimension.
const TILE: usize = 512;

/// Per-dataset cache of pairwise coordinate differences plus a memo of the
/// last assembled lengthscale state.
#[derive(Debug, Clone)]
pub struct GramCache {
    n: usize,
    dims: usize,
    /// The cached points, row-major (`n × dims`) — kept so rows can be
    /// appended without the caller re-supplying the dataset.
    points: Vec<f64>,
    /// Packed pairwise differences, one column per dimension: entry
    /// `diffs[d][pair_index(i, j)]` holds `x_i[d] − x_j[d]` for `j <= i`.
    diffs: Vec<Vec<f64>>,
    /// Lengthscales (already exponentiated) of the memoized assembly;
    /// empty when the memo is cold.
    memo_ls: Vec<f64>,
    /// Per-dimension scaled squares `((x_i[d] − x_j[d]) / ℓ_d)²`, one packed
    /// array per dimension.
    memo_scaled: Vec<Vec<f64>>,
    /// Per-pair sums of the scaled squares, accumulated in dimension order.
    memo_s: Vec<f64>,
    /// Per-pair `exp(−s/2)` — the only transcendental left per pair.
    memo_e: Vec<f64>,
}

impl GramCache {
    /// Builds the difference cache for a dataset (`x` rows must share the
    /// dimensionality; the caller has validated this).
    pub fn new(x: &[Vec<f64>]) -> Self {
        let dims = x.first().map_or(0, |r| r.len());
        let pairs = x.len() * (x.len() + 1) / 2;
        let mut cache = GramCache {
            n: 0,
            dims,
            points: Vec::with_capacity(x.len() * dims),
            diffs: vec![Vec::with_capacity(pairs); dims],
            memo_ls: Vec::new(),
            memo_scaled: vec![Vec::new(); dims],
            memo_s: Vec::new(),
            memo_e: Vec::new(),
        };
        for row in x {
            cache.append(row);
        }
        cache
    }

    /// Appends one point: extends each dimension's packed difference column
    /// in place (`O(n·dims)`, amortized reallocation), invalidating the
    /// assembly memo.
    pub fn append(&mut self, row: &[f64]) {
        if self.n == 0 {
            self.dims = row.len();
            self.diffs.resize(self.dims, Vec::new());
            self.memo_scaled = vec![Vec::new(); self.dims];
        }
        debug_assert_eq!(row.len(), self.dims);
        // New packed entries per column: pairs (n, 0), …, (n, n−1) followed
        // by the diagonal (n, n), whose difference is exactly 0.0.
        for (d, (col, &v)) in self.diffs.iter_mut().zip(row).enumerate() {
            col.reserve(self.n + 1);
            for j in 0..self.n {
                col.push(v - self.points[j * self.dims + d]);
            }
            col.push(0.0);
        }
        self.points.extend_from_slice(row);
        self.n += 1;
        self.memo_ls.clear();
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no points are cached.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Input dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Assembles the Gram matrix for `params` into `out`, reusing the
    /// per-dimension memo where the lengthscales are unchanged since the
    /// previous call, and returns how many dimensions it reused. Lower
    /// triangle is computed, the upper is mirrored.
    pub fn assemble_into(&mut self, params: &GpParams, out: &mut Matrix) -> u64 {
        let pairs = pair_index(self.n, 0);
        let ls: Vec<f64> = params.log_lengthscales.iter().map(|l| l.exp()).collect();
        let cold = self.memo_ls.is_empty();
        if cold {
            for scaled in &mut self.memo_scaled {
                scaled.clear();
                scaled.resize(pairs, 0.0);
            }
            self.memo_s.clear();
            self.memo_s.resize(pairs, 0.0);
            self.memo_e.clear();
            self.memo_e.resize(pairs, 0.0);
        }
        let mut changed = false;
        let mut reused = 0;
        for (d, &l) in ls.iter().enumerate() {
            if !cold && self.memo_ls[d].to_bits() == l.to_bits() {
                reused += 1;
                continue;
            }
            changed = true;
            // Contiguous column sweep: no strides, no bounds checks.
            for (out_p, &dv) in self.memo_scaled[d].iter_mut().zip(&self.diffs[d]) {
                let t = dv / l;
                *out_p = t * t;
            }
        }
        if changed {
            // Accumulate in dimension order — the same association the
            // per-pair kernel loop used, so the sums are bit-identical.
            self.memo_s.iter_mut().for_each(|s| *s = 0.0);
            for scaled in &self.memo_scaled {
                for (s, t) in self.memo_s.iter_mut().zip(scaled) {
                    *s += t;
                }
            }
            for (e, s) in self.memo_e.iter_mut().zip(&self.memo_s) {
                *e = (-0.5 * s).exp();
            }
        }
        self.memo_ls = ls;
        let sv = params.log_signal_var.exp();
        let noise = params.log_noise_var.exp();
        out.reset(self.n);
        for i in 0..self.n {
            for j in 0..=i {
                let mut k = sv * self.memo_e[pair_index(i, j)];
                if i == j {
                    k += noise + 1e-10;
                }
                out.set(i, j, k);
                out.set(j, i, k);
            }
        }
        reused
    }

    /// Memo-free assembly (same bits as [`GramCache::assemble_into`]):
    /// shared-reference, so one-off parameter sets (random search
    /// proposals, fixed-parameter fits) leave the memo that coordinate
    /// descent relies on untouched. The pair range is processed in
    /// `TILE`-sized (512-pair) blocks — per block, each dimension's column slice is
    /// streamed once into an L1-resident accumulator tile, then a single
    /// `exp` pass finishes the block before it is scattered into `out`.
    pub fn assemble_fresh_into(&self, params: &GpParams, out: &mut Matrix) {
        let ls: Vec<f64> = params.log_lengthscales.iter().map(|l| l.exp()).collect();
        let sv = params.log_signal_var.exp();
        let noise = params.log_noise_var.exp();
        out.reset(self.n);
        let pairs = pair_index(self.n, 0);
        let mut acc = [0.0f64; TILE];
        // Pair cursor: (i, j) of the next packed entry to scatter.
        let (mut i, mut j) = (0usize, 0usize);
        let mut p0 = 0;
        while p0 < pairs {
            let len = TILE.min(pairs - p0);
            let tile = &mut acc[..len];
            tile.fill(0.0);
            // Dimension-ascending accumulation per pair, as the original
            // kernel loop ordered it.
            for (col, &l) in self.diffs.iter().zip(&ls) {
                for (s, &dv) in tile.iter_mut().zip(&col[p0..p0 + len]) {
                    let t = dv / l;
                    *s += t * t;
                }
            }
            for s in tile.iter_mut() {
                *s = sv * (-0.5 * *s).exp();
            }
            for &base in tile.iter() {
                let mut k = base;
                if i == j {
                    k += noise + 1e-10;
                }
                out.set(i, j, k);
                out.set(j, i, k);
                if j == i {
                    i += 1;
                    j = 0;
                } else {
                    j += 1;
                }
            }
            p0 += len;
        }
    }

    /// The covariance row of point `i` against every earlier point, plus its
    /// own (noise-inflated) diagonal — exactly the entries a from-scratch
    /// Gram would place in row `i` of its lower triangle. Feeds
    /// [`crate::linalg::Cholesky::append_row`] on the incremental fit path.
    pub fn kernel_row(&self, i: usize, params: &GpParams) -> (Vec<f64>, f64) {
        let ls: Vec<f64> = params.log_lengthscales.iter().map(|l| l.exp()).collect();
        let sv = params.log_signal_var.exp();
        let noise = params.log_noise_var.exp();
        let mut row = Vec::new();
        let diag = self.kernel_row_into(i, &ls, sv, noise, &mut row);
        (row, diag)
    }

    /// Allocation-free form of [`GramCache::kernel_row`]: the exponentiated
    /// hyperparameters are supplied by the caller (hoisted out of
    /// per-observation append loops) and the row is written into a reused
    /// buffer. Returns the noise-inflated diagonal.
    pub fn kernel_row_into(
        &self,
        i: usize,
        ls: &[f64],
        sv: f64,
        noise: f64,
        row: &mut Vec<f64>,
    ) -> f64 {
        assert!(i < self.n, "kernel_row index out of range");
        // Row i's pairs are contiguous in every column: packed offsets
        // pair_index(i, 0) .. pair_index(i, 0) + i.
        let base = pair_index(i, 0);
        row.clear();
        row.resize(i, 0.0);
        for (col, &l) in self.diffs.iter().zip(ls) {
            for (s, &dv) in row.iter_mut().zip(&col[base..base + i]) {
                let t = dv / l;
                *s += t * t;
            }
        }
        for s in row.iter_mut() {
            *s = sv * (-0.5 * *s).exp();
        }
        // Diagonal: zero squared distance, so the kernel is exactly the
        // signal variance (sv · exp(−0) ≡ sv bitwise).
        sv + (noise + 1e-10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relm_common::Rng;

    /// The pre-cache reference: the per-pair kernel loop the cache replaced.
    fn naive_gram(x: &[Vec<f64>], params: &GpParams) -> Matrix {
        let noise = params.log_noise_var.exp();
        Matrix::from_fn(x.len(), |i, j| {
            let mut s = 0.0;
            for ((a, b), log_l) in x[i].iter().zip(&x[j]).zip(&params.log_lengthscales) {
                let l = log_l.exp();
                let d = (a - b) / l;
                s += d * d;
            }
            params.log_signal_var.exp() * (-0.5 * s).exp()
                + if i == j { noise + 1e-10 } else { 0.0 }
        })
    }

    fn dataset(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| (0..dims).map(|_| rng.uniform()).collect())
            .collect()
    }

    fn params(dims: usize, seed: u64) -> GpParams {
        let mut rng = Rng::new(seed);
        GpParams {
            log_lengthscales: (0..dims)
                .map(|_| rng.uniform_in((0.05f64).ln(), (2.0f64).ln()))
                .collect(),
            log_signal_var: rng.uniform_in((0.2f64).ln(), (3.0f64).ln()),
            log_noise_var: rng.uniform_in((1e-4f64).ln(), (0.3f64).ln()),
        }
    }

    fn assert_bitwise_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.n(), b.n());
        for i in 0..a.n() {
            for j in 0..a.n() {
                assert_eq!(
                    a.get(i, j).to_bits(),
                    b.get(i, j).to_bits(),
                    "gram mismatch at ({i},{j}): {} vs {}",
                    a.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn cached_assembly_is_bitwise_identical_to_naive() {
        for seed in 0..8 {
            let x = dataset(12, 4, seed);
            let p = params(4, seed ^ 0xABCD);
            let mut cache = GramCache::new(&x);
            let mut got = Matrix::zeros(0);
            assert_eq!(cache.assemble_into(&p, &mut got), 0, "a cold memo");
            assert_bitwise_eq(&got, &naive_gram(&x, &p));
            // Second assembly with identical params: full memo reuse.
            assert_eq!(cache.assemble_into(&p, &mut got), 4);
            assert_bitwise_eq(&got, &naive_gram(&x, &p));
        }
    }

    #[test]
    fn memoized_and_fresh_paths_agree_after_partial_changes() {
        let x = dataset(9, 4, 3);
        let mut cache = GramCache::new(&x);
        let mut memo = Matrix::zeros(0);
        let mut fresh = Matrix::zeros(0);
        let mut p = params(4, 17);
        let mut reused = 0;
        for step in 0..6 {
            // Perturb one coordinate at a time, like coordinate descent.
            match step % 3 {
                0 => p.log_lengthscales[step % 4] += 0.4,
                1 => p.log_signal_var -= 0.15,
                _ => p.log_noise_var += 0.15,
            }
            reused += cache.assemble_into(&p, &mut memo);
            cache.assemble_fresh_into(&p, &mut fresh);
            assert_bitwise_eq(&memo, &fresh);
            assert_bitwise_eq(&memo, &naive_gram(&x, &p));
        }
        assert!(
            reused > 0,
            "coordinate steps must reuse unchanged dimensions"
        );
    }

    #[test]
    fn tiled_fresh_assembly_is_bitwise_identical_across_tile_boundaries() {
        // n = 40 gives 820 packed pairs — more than one TILE block — so the
        // blocked path exercises a full tile, the boundary, and the tail.
        let x = dataset(40, 5, 77);
        let p = params(5, 78);
        let cache = GramCache::new(&x);
        let mut fresh = Matrix::zeros(0);
        cache.assemble_fresh_into(&p, &mut fresh);
        assert_bitwise_eq(&fresh, &naive_gram(&x, &p));
    }

    #[test]
    fn append_extends_the_cache_consistently() {
        let x = dataset(10, 3, 5);
        let p = params(3, 9);
        let mut grown = GramCache::new(&x[..6]);
        for row in &x[6..] {
            grown.append(row);
        }
        let scratch = GramCache::new(&x);
        let mut a = Matrix::zeros(0);
        let mut b = Matrix::zeros(0);
        grown.assemble_into(&p, &mut a);
        GramCache::assemble_fresh_into(&scratch, &p, &mut b);
        assert_bitwise_eq(&a, &b);
    }

    #[test]
    fn kernel_row_matches_last_gram_row() {
        let x = dataset(7, 4, 11);
        let p = params(4, 13);
        let cache = GramCache::new(&x);
        let gram = naive_gram(&x, &p);
        for i in [3usize, 6] {
            let (row, diag) = cache.kernel_row(i, &p);
            assert_eq!(row.len(), i);
            for (j, v) in row.iter().enumerate() {
                assert_eq!(v.to_bits(), gram.get(i, j).to_bits());
            }
            assert_eq!(diag.to_bits(), gram.get(i, i).to_bits());
        }
    }

    #[test]
    fn kernel_row_into_reuses_the_buffer() {
        let x = dataset(9, 3, 19);
        let p = params(3, 20);
        let cache = GramCache::new(&x);
        let ls: Vec<f64> = p.log_lengthscales.iter().map(|l| l.exp()).collect();
        let sv = p.log_signal_var.exp();
        let noise = p.log_noise_var.exp();
        let mut buf = Vec::with_capacity(x.len());
        let ptr = buf.as_ptr();
        for i in [8usize, 5, 8] {
            let diag = cache.kernel_row_into(i, &ls, sv, noise, &mut buf);
            let (row, want_diag) = cache.kernel_row(i, &p);
            assert_eq!(buf.len(), i);
            for (a, b) in buf.iter().zip(&row) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(diag.to_bits(), want_diag.to_bits());
        }
        assert_eq!(ptr, buf.as_ptr(), "warm buffer must not reallocate");
    }

    #[test]
    fn assembled_gram_is_symmetric() {
        let x = dataset(11, 4, 21);
        let p = params(4, 22);
        let mut cache = GramCache::new(&x);
        let mut k = Matrix::zeros(0);
        cache.assemble_into(&p, &mut k);
        for i in 0..k.n() {
            for j in 0..k.n() {
                assert_eq!(k.get(i, j).to_bits(), k.get(j, i).to_bits());
            }
        }
    }
}
