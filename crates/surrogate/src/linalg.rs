//! Minimal dense linear algebra: symmetric positive-definite solves via
//! Cholesky factorization — all that Gaussian-process inference needs.
//!
//! The factor is stored as a packed row-major lower triangle (`n(n+1)/2`
//! doubles instead of `n²`), the jitter escalation of [`Cholesky::with_jitter`]
//! is applied arithmetically during the factorization instead of copying the
//! input matrix per attempt, and [`Cholesky::solve`] fuses the forward and
//! backward substitutions into one buffer. All code paths produce results
//! bit-identical to the textbook two-triangle formulation they replaced —
//! the tuning pipeline's byte-identical-history invariant depends on it.
//! GP prediction does not solve through this type: [`crate::Gp`] copies the
//! factor column-major and runs its own column-oriented forward solve.

use relm_common::{Error, Result};

/// A dense square matrix stored row-major.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Builds a matrix from a generator function.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Resets to an `n × n` zero matrix, reusing the allocation when it
    /// already fits.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
    }
}

/// Offset of row `i` in a packed row-major lower triangle.
#[inline]
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Lower-triangular Cholesky factor of a symmetric positive-definite
/// matrix: `A = L Lᵀ`, stored packed (lower triangle only).
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Packed row-major lower triangle of `L`.
    l: Vec<f64>,
    /// Diagonal jitter baked into the factorization (`0` for [`Cholesky::new`]).
    jitter: f64,
    /// Escalation attempts [`Cholesky::with_jitter`] needed beyond the first.
    jitter_retries: u32,
}

impl Cholesky {
    /// Factorizes `a`. Fails with [`Error::Numerical`] if the matrix is not
    /// positive definite (callers typically retry with added jitter).
    pub fn new(a: &Matrix) -> Result<Self> {
        let l = factor(a, 0.0)?;
        Ok(Cholesky {
            n: a.n(),
            l,
            jitter: 0.0,
            jitter_retries: 0,
        })
    }

    /// Factorizes `a + jitter·I`, escalating the jitter until the
    /// factorization succeeds (up to a bound). The jitter is added
    /// arithmetically inside the factorization — `a` is never copied or
    /// mutated, no matter how many escalations are needed.
    pub fn with_jitter(a: &Matrix, base_jitter: f64) -> Result<Self> {
        let mut jitter = base_jitter;
        for attempt in 0..8 {
            if let Ok(l) = factor(a, jitter) {
                return Ok(Cholesky {
                    n: a.n(),
                    l,
                    jitter,
                    jitter_retries: attempt,
                });
            }
            jitter *= 10.0;
        }
        Err(Error::Numerical("Cholesky failed even with jitter".into()))
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `L[i][j]` (zero above the diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if j > i {
            0.0
        } else {
            self.l[row_start(i) + j]
        }
    }

    /// The diagonal jitter the factorization was built with.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// How many jitter escalations [`Cholesky::with_jitter`] consumed.
    pub fn jitter_retries(&self) -> u32 {
        self.jitter_retries
    }

    /// Extends the factor by one row: given the covariances `row` of a new
    /// point against the already-factored points and its variance `diag`
    /// (the factor's jitter is added internally), appends row `n` of the
    /// factor in O(n²). The result is bit-identical to refactorizing the
    /// extended matrix from scratch at the same jitter; fails when the new
    /// pivot is not positive (callers then fall back to a full, possibly
    /// jitter-escalated refactorization).
    pub fn append_row(&mut self, row: &[f64], diag: f64) -> Result<()> {
        assert_eq!(row.len(), self.n, "appended row must cover existing points");
        let n = self.n;
        let start = self.l.len();
        self.l.reserve(n + 1);
        for (j, &rowj) in row.iter().enumerate() {
            let rj = row_start(j);
            // Disjoint contiguous views of the new (partial) row and row j:
            // the inner product runs over two slices with no bounds checks,
            // subtracting term by term in k order exactly as before.
            let (head, tail) = self.l.split_at(start);
            let sum = sub_products(rowj, &tail[..j], &head[rj..rj + j]);
            self.l.push(sum / head[rj + j]);
        }
        let mut sum = diag + self.jitter;
        for &v in &self.l[start..start + n] {
            sum -= v * v;
        }
        if sum <= 0.0 {
            self.l.truncate(start);
            return Err(Error::Numerical(format!(
                "matrix not positive definite at appended pivot {n} (residual {sum})"
            )));
        }
        self.l.push(sum.sqrt());
        self.n += 1;
        Ok(())
    }

    /// Solves `L z = b` (forward substitution) into a caller-owned buffer
    /// (`out.len() == n`), for hot paths that reuse allocations.
    pub fn solve_l_into(&self, b: &[f64], out: &mut [f64]) {
        for (i, &bi) in b[..self.n].iter().enumerate() {
            let ri = row_start(i);
            // Solved prefix vs the entry being solved: disjoint slices, so
            // the row·solution product is a bounds-check-free zip.
            let (done, rest) = out.split_at_mut(i);
            let sum = sub_products(bi, &self.l[ri..ri + i], done);
            rest[0] = sum / self.l[ri + i];
        }
    }

    /// Solves `A x = b` via `L Lᵀ x = b`, fusing the forward and backward
    /// substitutions into a single output buffer (no intermediate vector).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Fused solve into a caller-owned buffer (`out.len() == n`).
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        let n = self.n;
        self.solve_l_into(b, out);
        // Back substitution in place: Lᵀ x = z.
        for i in (0..n).rev() {
            let mut sum = out[i];
            for (k, xk) in out.iter().enumerate().skip(i + 1) {
                sum -= self.l[row_start(k) + i] * xk;
            }
            out[i] = sum / self.l[row_start(i) + i];
        }
    }

    /// `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.n)
            .map(|i| self.l[row_start(i) + i].ln())
            .sum::<f64>()
            * 2.0
    }
}

/// `sum − Σ aₖ·bₖ`, subtracting term by term in index order — the exact
/// update sequence of the textbook loops this module replaced, expressed
/// over two equal-length slices so the compiler drops the bounds checks
/// and unrolls/vectorizes the products.
#[inline]
fn sub_products(mut sum: f64, a: &[f64], b: &[f64]) -> f64 {
    for (x, y) in a.iter().zip(b) {
        sum -= x * y;
    }
    sum
}

/// The packed factorization kernel: factors `a + jitter·I` reading only the
/// lower triangle of `a`. Inner loops run over two contiguous packed rows,
/// split into disjoint slices so the hot products carry no bounds checks.
fn factor(a: &Matrix, jitter: f64) -> Result<Vec<f64>> {
    let n = a.n();
    let mut l = vec![0.0; row_start(n)];
    for i in 0..n {
        let ri = row_start(i);
        // Rows 0..i are finished; row i is being filled. Splitting at the
        // row boundary yields one view of the settled rows and one of the
        // in-progress row — provably disjoint, so both stay slices.
        let (head, row_i) = l.split_at_mut(ri);
        for j in 0..i {
            let rj = row_start(j);
            let sum = sub_products(a.get(i, j), &row_i[..j], &head[rj..rj + j]);
            row_i[j] = sum / head[rj + j];
        }
        let sum = sub_products(a.get(i, i) + jitter, &row_i[..i], &row_i[..i]);
        if sum <= 0.0 {
            return Err(Error::Numerical(format!(
                "matrix not positive definite at pivot {i} (residual {sum})"
            )));
        }
        row_i[i] = sum.sqrt();
    }
    Ok(l)
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for B = [[1,2,0],[0,1,1],[1,0,1]].
        let b = [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]];
        Matrix::from_fn(3, |i, j| {
            let mut s = 0.0;
            for row in b.iter() {
                s += row[i] * row[j];
            }
            s + if i == j { 1.0 } else { 0.0 }
        })
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += c.get(i, k) * c.get(j, k);
                }
                assert!((s - a.get(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let b: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a.get(i, j) * x_true[j]).sum())
            .collect();
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn log_det_matches_product_of_pivots() {
        let a = Matrix::from_fn(2, |i, j| if i == j { 4.0 } else { 0.0 });
        let c = Cholesky::new(&a).unwrap();
        assert!((c.log_det() - (16.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn non_pd_is_rejected_then_fixed_by_jitter() {
        let a = Matrix::from_fn(2, |_, _| 1.0); // rank 1, singular
        assert!(Cholesky::new(&a).is_err());
        let c = Cholesky::with_jitter(&a, 1e-8).unwrap();
        assert!(c.jitter() >= 1e-8);
    }

    #[test]
    fn jitter_escalation_leaves_input_unchanged_and_matches_explicit_copy() {
        // Regression for the old per-attempt matrix rebuild: the in-place
        // escalation must (a) not touch the input and (b) return exactly the
        // factor that factorizing an explicitly jittered copy would produce.
        let a = Matrix::from_fn(3, |i, j| if i == j { 1.0 } else { 1.0 - 1e-12 });
        let before = a.clone();
        let c = Cholesky::with_jitter(&a, 1e-8).unwrap();
        assert_eq!(a, before, "with_jitter must not mutate its input");

        let jittered = Matrix::from_fn(3, |i, j| {
            a.get(i, j) + if i == j { c.jitter() } else { 0.0 }
        });
        let explicit = Cholesky::new(&jittered).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    c.get(i, j).to_bits(),
                    explicit.get(i, j).to_bits(),
                    "factor differs from explicit-copy factorization at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn with_jitter_counts_retries() {
        let easy = spd3();
        assert_eq!(
            Cholesky::with_jitter(&easy, 1e-8).unwrap().jitter_retries(),
            0
        );
        // Indefinite (eigenvalue −1e-3): the first jitter attempts fail.
        let indefinite = Matrix::from_fn(2, |i, j| if i == j { 1.0 } else { 1.001 });
        let c = Cholesky::with_jitter(&indefinite, 1e-8).unwrap();
        assert!(c.jitter_retries() > 0);
        assert!(c.jitter() > 1e-8);
    }

    #[test]
    fn append_row_matches_full_refactorization() {
        // Factor the leading 3×3 block of a 4×4 SPD matrix, append the last
        // row, and compare bitwise against factoring the whole matrix.
        let b = [
            [1.0, 2.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 2.0],
            [1.0, 0.0, 1.0, 0.5],
            [0.5, 1.0, 0.0, 1.0],
        ];
        let full = Matrix::from_fn(4, |i, j| {
            let mut s = 0.0;
            for row in b.iter() {
                s += row[i] * row[j];
            }
            s + if i == j { 1.0 } else { 0.0 }
        });
        let lead = Matrix::from_fn(3, |i, j| full.get(i, j));
        let mut grown = Cholesky::new(&lead).unwrap();
        let row: Vec<f64> = (0..3).map(|j| full.get(3, j)).collect();
        grown.append_row(&row, full.get(3, 3)).unwrap();
        let scratch = Cholesky::new(&full).unwrap();
        assert_eq!(grown.n(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    grown.get(i, j).to_bits(),
                    scratch.get(i, j).to_bits(),
                    "appended factor differs at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn failed_append_leaves_factor_usable() {
        let a = Matrix::from_fn(2, |i, j| if i == j { 1.0 } else { 0.0 });
        let mut c = Cholesky::new(&a).unwrap();
        // A duplicate of row 0 with zero variance cannot extend the factor.
        assert!(c.append_row(&[1.0, 0.0], 1.0).is_err());
        assert_eq!(c.n(), 2, "failed append must roll back");
        let x = c.solve(&[1.0, 2.0]);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn solve_into_reuses_buffers_bitwise() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let b = [0.3, -1.7, 2.2];
        let fresh = c.solve(&b);
        let mut buf = vec![9.0; 3];
        c.solve_into(&b, &mut buf);
        for (x, y) in fresh.iter().zip(&buf) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
