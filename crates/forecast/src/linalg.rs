//! Minimal dense linear algebra used by the forecasting models.
//!
//! The forecasting models in this crate (AR, ARMA, SPAR) are all fit with
//! linear least squares over modest design matrices (tens of columns,
//! thousands of rows), so a small, dependency-free implementation is both
//! sufficient and easy to audit. The solver uses Householder QR, which is
//! numerically robust for the mildly ill-conditioned design matrices that
//! arise when periodic lag columns are strongly correlated.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns a view of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a mutable view of row `r` as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must match columns");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum::<f64>())
            .collect()
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must match");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                let src = other.row(k);
                let dst = out.row_mut(r);
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += a * s;
                }
            }
        }
        out
    }

    /// The transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Error returned when a least-squares system cannot be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The design matrix has fewer rows than columns.
    Underdetermined {
        /// Number of observations (rows).
        rows: usize,
        /// Number of parameters (columns).
        cols: usize,
    },
    /// The design matrix is (numerically) rank deficient.
    RankDeficient {
        /// The column at which a negligible pivot was found.
        column: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Underdetermined { rows, cols } => write!(
                f,
                "least-squares system is underdetermined: {rows} rows < {cols} cols"
            ),
            SolveError::RankDeficient { column } => {
                write!(f, "design matrix is rank deficient at column {column}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Solves the linear least-squares problem `min ||a x - b||` using
/// Householder QR with column-pivot-free elimination.
///
/// Returns the coefficient vector `x` of length `a.cols()`.
///
/// # Errors
/// Returns [`SolveError::Underdetermined`] when there are fewer observations
/// than parameters and [`SolveError::RankDeficient`] when a pivot collapses
/// numerically (collinear regressors).
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    assert_eq!(a.rows(), b.len(), "rhs length must match rows");
    let (m, n) = (a.rows(), a.cols());
    if m < n {
        return Err(SolveError::Underdetermined { rows: m, cols: n });
    }

    // Work on copies: `r` is reduced in place to the upper-triangular factor
    // while the same Householder reflections are applied to `qtb`.
    let mut r = a.clone();
    let mut qtb = b.to_vec();

    for k in 0..n {
        // Householder vector for column k, rows k..m.
        let mut norm = 0.0f64;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm < 1e-12 {
            return Err(SolveError::RankDeficient { column: k });
        }
        let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
        let mut v: Vec<f64> = (k..m).map(|i| r[(i, k)]).collect();
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 < 1e-24 {
            // Column already reduced; just set the diagonal.
            r[(k, k)] = alpha;
            continue;
        }

        // Apply the reflection H = I - 2 v v^T / (v^T v) to the trailing
        // columns of `r` and to `qtb`.
        for c in k..n {
            let mut dot = 0.0;
            for (vi, i) in v.iter().zip(k..m) {
                dot += vi * r[(i, c)];
            }
            let scale = 2.0 * dot / vnorm2;
            for (vi, i) in v.iter().zip(k..m) {
                r[(i, c)] -= scale * vi;
            }
        }
        let mut dot = 0.0;
        for (vi, i) in v.iter().zip(k..m) {
            dot += vi * qtb[i];
        }
        let scale = 2.0 * dot / vnorm2;
        for (vi, i) in v.iter().zip(k..m) {
            qtb[i] -= scale * vi;
        }
    }

    // Back substitution on the upper-triangular system R x = Q^T b.
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let mut s = qtb[k];
        for c in k + 1..n {
            s -= r[(k, c)] * x[c];
        }
        let diag = r[(k, k)];
        if diag.abs() < 1e-12 {
            return Err(SolveError::RankDeficient { column: k });
        }
        x[k] = s / diag;
    }
    Ok(x)
}

/// Solves the ridge-regularised least squares `min ||a x - b||^2 + lambda ||x||^2`.
///
/// Implemented by augmenting the design matrix with `sqrt(lambda) * I`, which
/// keeps the QR path and guarantees full rank for any `lambda > 0`. Useful
/// when periodic lag columns are nearly collinear (e.g. an almost perfectly
/// periodic training signal).
///
/// # Errors
/// Propagates [`SolveError`] from the underlying solver (only possible when
/// `lambda == 0`).
pub fn ridge(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, SolveError> {
    assert!(lambda >= 0.0, "lambda must be non-negative");
    if lambda == 0.0 {
        return lstsq(a, b);
    }
    let (m, n) = (a.rows(), a.cols());
    let mut aug = Matrix::zeros(m + n, n);
    for r in 0..m {
        aug.row_mut(r).copy_from_slice(a.row(r));
    }
    let s = lambda.sqrt();
    for k in 0..n {
        aug[(m + k, k)] = s;
    }
    let mut rhs = b.to_vec();
    rhs.resize(m + n, 0.0);
    lstsq(&aug, &rhs)
}

/// Cholesky factorisation of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular factor `L` with `L L^T = a`, or `None` if the
/// matrix is not positive definite.
pub fn cholesky(a: &Matrix) -> Option<Matrix> {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 {
                    return None;
                }
                l[(i, j)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Some(l)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, clippy::cast_possible_truncation)] // tests assert exact rational arithmetic on tiny values
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn identity_mul_vec_is_noop() {
        let i = Matrix::identity(4);
        let v = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.mul_vec(&v), v);
    }

    #[test]
    fn mul_matches_hand_computed_product() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_rows(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.mul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn lstsq_solves_exact_square_system() {
        // 2x + y = 5; x - y = 1  =>  x = 2, y = 1
        let a = Matrix::from_rows(2, 2, &[2.0, 1.0, 1.0, -1.0]);
        let x = lstsq(&a, &[5.0, 1.0]).unwrap();
        assert_close(x[0], 2.0, 1e-10);
        assert_close(x[1], 1.0, 1e-10);
    }

    #[test]
    fn lstsq_recovers_overdetermined_line_fit() {
        // y = 3x + 2 with exact observations: least squares must recover it.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let mut a = Matrix::zeros(xs.len(), 2);
        let mut b = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            a[(i, 0)] = x;
            a[(i, 1)] = 1.0;
            b.push(3.0 * x + 2.0);
        }
        let coef = lstsq(&a, &b).unwrap();
        assert_close(coef[0], 3.0, 1e-10);
        assert_close(coef[1], 2.0, 1e-10);
    }

    #[test]
    fn lstsq_minimises_residual_on_noisy_fit() {
        // Perturb one observation; the residual of the LS solution must be
        // no larger than that of the true generating coefficients.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let mut a = Matrix::zeros(xs.len(), 2);
        let mut b = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            a[(i, 0)] = x;
            a[(i, 1)] = 1.0;
            b.push(3.0 * x + 2.0 + if i == 2 { 0.5 } else { 0.0 });
        }
        let coef = lstsq(&a, &b).unwrap();
        let resid = |c: &[f64]| -> f64 {
            a.mul_vec(c)
                .iter()
                .zip(&b)
                .map(|(p, y)| (p - y).powi(2))
                .sum()
        };
        assert!(resid(&coef) <= resid(&[3.0, 2.0]) + 1e-12);
    }

    #[test]
    fn lstsq_rejects_underdetermined() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            lstsq(&a, &[0.0, 0.0]),
            Err(SolveError::Underdetermined { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn lstsq_rejects_rank_deficient() {
        // Two identical columns.
        let a = Matrix::from_rows(3, 2, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        assert!(matches!(
            lstsq(&a, &[1.0, 2.0, 3.0]),
            Err(SolveError::RankDeficient { .. })
        ));
    }

    #[test]
    fn ridge_handles_collinear_columns() {
        let a = Matrix::from_rows(3, 2, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let x = ridge(&a, &[2.0, 4.0, 6.0], 1e-6).unwrap();
        // Symmetric problem: both coefficients near 1.
        assert_close(x[0], 1.0, 1e-3);
        assert_close(x[1], 1.0, 1e-3);
    }

    #[test]
    fn cholesky_factorises_spd_matrix() {
        let a = Matrix::from_rows(2, 2, &[4.0, 2.0, 2.0, 3.0]);
        let l = cholesky(&a).unwrap();
        let recon = l.mul(&l.transpose());
        for r in 0..2 {
            for c in 0..2 {
                assert_close(recon[(r, c)], a[(r, c)], 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        assert!(cholesky(&a).is_none());
    }
}
