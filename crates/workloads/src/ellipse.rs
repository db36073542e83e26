//! 2-D ellipse packing instances — Figure 1 of the paper.
//!
//! The paper's geometric intuition: a 2×2 PSD matrix `A` is the ellipse
//! `{z : zᵀAz ≤ 1}`, and the packing constraint `Σ xᵢAᵢ ⪯ I` asks how much
//! total "ellipse mass" fits in the unit ball. Axis-aligned ellipses
//! (diagonal matrices) are exactly positive LPs; the rotated ellipse `A₃` in
//! Figure 1 is what forces the matrix machinery.

use psdp_linalg::Mat;
use psdp_sparse::PsdMatrix;

/// A 2-D ellipse given by semi-axis lengths and a rotation angle: the PSD
/// matrix `Rᵀ diag(1/a², 1/b²) R` (so the ellipse `zᵀAz ≤ 1` has semi-axes
/// `a`, `b` rotated by `theta`).
#[derive(Debug, Clone, Copy)]
pub struct Ellipse {
    /// First semi-axis length.
    pub a: f64,
    /// Second semi-axis length.
    pub b: f64,
    /// Rotation angle in radians (0 = axis-aligned).
    pub theta: f64,
}

impl Ellipse {
    /// The PSD matrix of this ellipse.
    pub fn matrix(&self) -> Mat {
        assert!(self.a > 0.0 && self.b > 0.0, "semi-axes must be positive");
        let (c, s) = (self.theta.cos(), self.theta.sin());
        let (da, db) = (1.0 / (self.a * self.a), 1.0 / (self.b * self.b));
        // R^T D R with R = [[c, s], [-s, c]].
        let m00 = c * c * da + s * s * db;
        let m11 = s * s * da + c * c * db;
        let m01 = c * s * (da - db);
        Mat::from_rows(&[&[m00, m01], &[m01, m11]])
    }

    /// As a [`PsdMatrix`] constraint (dense; diagonal when axis-aligned).
    pub fn constraint(&self) -> PsdMatrix {
        if self.theta == 0.0 || (self.theta.sin()).abs() < 1e-15 {
            let m = self.matrix();
            PsdMatrix::Diagonal(vec![m[(0, 0)], m[(1, 1)]])
        } else {
            PsdMatrix::Dense(self.matrix())
        }
    }
}

/// The three-ellipse instance sketched in Figure 1: two axis-aligned
/// ellipses `A₁`, `A₂` (whose sum stays axis-aligned) plus a rotated `A₃`
/// that breaks the LP structure.
pub fn figure1_instance() -> Vec<PsdMatrix> {
    let a1 = Ellipse { a: 2.0, b: 0.8, theta: 0.0 };
    let a2 = Ellipse { a: 0.8, b: 2.0, theta: 0.0 };
    let a3 = Ellipse { a: 1.6, b: 0.7, theta: std::f64::consts::FRAC_PI_4 };
    vec![a1.constraint(), a2.constraint(), a3.constraint()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_linalg::sym_eigen;

    #[test]
    fn ellipse_matrix_eigenvalues_are_inverse_square_axes() {
        let e = Ellipse { a: 2.0, b: 0.5, theta: 0.7 };
        let eig = sym_eigen(&e.matrix()).unwrap();
        // Eigenvalues 1/a² = 0.25 and 1/b² = 4, in ascending order.
        assert!((eig.values[0] - 0.25).abs() < 1e-12);
        assert!((eig.values[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn axis_aligned_becomes_diagonal() {
        let e = Ellipse { a: 1.0, b: 2.0, theta: 0.0 };
        assert!(matches!(e.constraint(), PsdMatrix::Diagonal(_)));
        let e = Ellipse { a: 1.0, b: 2.0, theta: 0.3 };
        assert!(matches!(e.constraint(), PsdMatrix::Dense(_)));
    }

    #[test]
    fn rotation_preserves_spectrum() {
        let e0 = Ellipse { a: 1.5, b: 0.6, theta: 0.0 };
        let e1 = Ellipse { a: 1.5, b: 0.6, theta: 1.1 };
        let s0 = sym_eigen(&e0.matrix()).unwrap().values;
        let s1 = sym_eigen(&e1.matrix()).unwrap().values;
        for (a, b) in s0.iter().zip(&s1) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn figure1_mixes_diagonal_and_dense() {
        let mats = figure1_instance();
        assert_eq!(mats.len(), 3);
        assert!(matches!(mats[0], PsdMatrix::Diagonal(_)));
        assert!(matches!(mats[1], PsdMatrix::Diagonal(_)));
        assert!(matches!(mats[2], PsdMatrix::Dense(_)));
        for m in &mats {
            assert!(sym_eigen(&m.to_dense()).unwrap().lambda_min() > 0.0);
        }
    }
}
