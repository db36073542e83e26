//! Dense row-major matrix type and elementwise/structural operations.
//!
//! `Mat` is the workhorse dense type for the whole workspace: the SDP solver
//! accumulates `Ψ(t) = Σ xᵢAᵢ` into a `Mat`, the eigensolver factors `Mat`s,
//! and the Taylor engine multiplies blocks of vectors stored as `Mat`s.
//!
//! Storage is row-major `Vec<f64>`; entry `(i, j)` lives at `i * ncols + j`.
//! Rows are therefore contiguous, which is what the parallel kernels in
//! [`crate::gemm`] split on.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Mat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create an `nrows × ncols` zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Mat { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "from_vec: data length {} != {}x{}",
            data.len(),
            nrows,
            ncols
        );
        Mat { nrows, ncols, data }
    }

    /// Create a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Mat { nrows, ncols, data }
    }

    /// Create a diagonal matrix from its diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Build an `nrows × ncols` matrix by calling `f(i, j)` for each entry.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Mat { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Borrow the raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the raw row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.nrows);
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.ncols);
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Set column `j` from a slice.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert_eq!(v.len(), self.nrows);
        for i in 0..self.nrows {
            self[(i, j)] = v[i];
        }
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.nrows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius inner product `A • B = Σᵢⱼ AᵢⱼBᵢⱼ = Tr(AᵀB)`.
    ///
    /// For symmetric `A`, `B` this is the `•` of the paper: `Tr(AB)`.
    pub fn dot(&self, other: &Mat) -> f64 {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols), "dot: shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max absolute entry (∞-norm on entries, not the operator ∞-norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// `self += alpha * other` (elementwise AXPY).
    pub fn axpy(&mut self, alpha: f64, other: &Mat) {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols), "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiply every entry by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Return `alpha * self` as a new matrix.
    pub fn scaled(&self, alpha: f64) -> Mat {
        let mut m = self.clone();
        m.scale(alpha);
        m
    }

    /// Return `self + other`.
    pub fn add(&self, other: &Mat) -> Mat {
        let mut m = self.clone();
        m.axpy(1.0, other);
        m
    }

    /// Return `self - other`.
    pub fn sub(&self, other: &Mat) -> Mat {
        let mut m = self.clone();
        m.axpy(-1.0, other);
        m
    }

    /// `self += alpha * I` (shift the diagonal).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn add_diag(&mut self, alpha: f64) {
        assert!(self.is_square(), "add_diag on non-square matrix");
        for i in 0..self.nrows {
            self[(i, i)] += alpha;
        }
    }

    /// Replace `self` with `(self + selfᵀ)/2`, forcing exact symmetry.
    ///
    /// Numeric pipelines accumulate tiny asymmetries; the eigensolver and the
    /// PSD verifiers assume exact symmetry, so call this at trust boundaries.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize on non-square matrix");
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Maximum asymmetry `maxᵢⱼ |Aᵢⱼ − Aⱼᵢ|`; 0 for exactly symmetric input.
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square());
        let mut worst: f64 = 0.0;
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// True if every entry is finite (no NaN/inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Rank-1 update `self += alpha * v vᵀ`.
    pub fn rank1_update(&mut self, alpha: f64, v: &[f64]) {
        assert!(self.is_square());
        assert_eq!(v.len(), self.nrows);
        let n = self.ncols;
        for i in 0..self.nrows {
            let avi = alpha * v[i];
            let row = &mut self.data[i * n..(i + 1) * n];
            for (r, &vj) in row.iter_mut().zip(v) {
                *r += avi * vj;
            }
        }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        let show_rows = self.nrows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.ncols.min(8);
            for j in 0..show_cols {
                write!(f, "{:>12.5e}", self[(i, j)])?;
                if j + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.ncols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.nrows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(3, 4);
        assert_eq!(z.nrows(), 3);
        assert_eq!(z.ncols(), 4);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Mat::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn trace_and_dot() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.trace(), 6.0);
        // A • I = Tr A
        assert_eq!(a.dot(&b), a.trace());
        // A • A = ||A||_F^2
        assert!((a.dot(&a) - a.fro_norm().powi(2)).abs() < 1e-12);
    }

    #[test]
    fn axpy_scale_add_sub() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::identity(2);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(0, 1)], 2.0);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.scaled(2.0)[(1, 1)], 8.0);
    }

    #[test]
    fn symmetrize_and_asymmetry() {
        let mut m = Mat::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        assert_eq!(m.asymmetry(), 2.0);
        m.symmetrize();
        assert_eq!(m.asymmetry(), 0.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn rank1_update_matches_outer_product() {
        let mut m = Mat::zeros(3, 3);
        let v = [1.0, -2.0, 0.5];
        m.rank1_update(2.0, &v);
        for i in 0..3 {
            for j in 0..3 {
                assert!((m[(i, j)] - 2.0 * v[i] * v[j]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn from_diag_and_add_diag() {
        let mut m = Mat::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(m.trace(), 6.0);
        m.add_diag(1.0);
        assert_eq!(m.trace(), 9.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_length() {
        let _ = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
