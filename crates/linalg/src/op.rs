//! Abstract symmetric linear operators.
//!
//! The Taylor and expm-action engines only ever *apply* `Φ` to vectors or
//! blocks, so they are written against this trait instead of a concrete
//! matrix type. Dense matrices implement it here; sparse CSR matrices
//! implement it in `psdp-sparse`, and the solver's `psdp_core::PsiView` —
//! the maintained dense `Ψ` applied over its fixed sparsity pattern —
//! implements it in `psdp-core`.

use crate::gemm::{matmul, matvec};
use crate::mat::Mat;

/// A symmetric linear operator on `R^dim`.
///
/// Implementations must be `Sync` so blocks can be applied from rayon tasks.
pub trait SymOp: Sync {
    /// Dimension `m` of the (square) operator.
    fn dim(&self) -> usize;

    /// `y = A x`.
    fn apply_vec(&self, x: &[f64]) -> Vec<f64>;

    /// `Y = A X` for a block `X` (`dim × r`). Default loops over columns;
    /// dense implementations override with a single GEMM.
    fn apply_block(&self, x: &Mat) -> Mat {
        assert_eq!(x.nrows(), self.dim(), "apply_block: dim mismatch");
        let mut out = Mat::zeros(self.dim(), x.ncols());
        for j in 0..x.ncols() {
            let col = x.col(j);
            let y = self.apply_vec(&col);
            out.set_col(j, &y);
        }
        out
    }

    /// Number of nonzero entries used by one application (work accounting).
    fn nnz(&self) -> usize {
        self.dim() * self.dim()
    }

    /// Whether row `i` (equivalently column `i`: the operator is
    /// symmetric) is known to be exactly zero, so that `A eᵢ = 0` and any
    /// function `f(A)` maps `eᵢ` to `f(0)·eᵢ` without an application.
    /// `false` means "unknown", which is always sound; the default never
    /// claims a zero row.
    fn is_zero_row(&self, _i: usize) -> bool {
        false
    }

    /// The operator gathered onto the coordinates `keep` (strictly
    /// increasing): `A[keep, keep]` as a [`Gathered`] operator on
    /// `R^|keep|`, each row keeping its columns in this operator's
    /// summation order. On a vector that is zero off `keep`, its products
    /// are bitwise this operator's products read at `keep`, whenever the
    /// rows off `keep` are zero ([`SymOp::is_zero_row`]). `None` means the
    /// operator cannot gather; the default never does.
    fn gather(&self, _keep: &[usize]) -> Option<Gathered> {
        None
    }
}

/// A symmetric operator gathered onto a coordinate subset (from
/// [`SymOp::gather`]): flat CSR over local indices, where row `k` holds
/// the source row `keep[k]` restricted to the columns in `keep`, in the
/// source's order. Each product row is a fold from `+0.0` in that order,
/// so it drops exactly the terms the source's row sum takes against the
/// vector's zeros off `keep` — and adding a `±0.0` term to a fold that
/// started at `+0.0` never changes its bits.
#[derive(Debug, Clone)]
pub struct Gathered {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Gathered {
    /// Gather the rows `keep` (strictly increasing) of a `dim`-dimensional
    /// operator whose row `i` yields its `(column, value)` entries in
    /// summation order; entries in columns off `keep` are dropped.
    pub fn new<R: IntoIterator<Item = (usize, f64)>>(
        dim: usize,
        keep: &[usize],
        row: impl Fn(usize) -> R,
    ) -> Gathered {
        assert!(keep.windows(2).all(|w| w[0] < w[1]), "Gathered: keep must increase");
        let mut local = vec![usize::MAX; dim];
        for (k, &i) in keep.iter().enumerate() {
            local[i] = k;
        }
        let mut row_ptr = Vec::with_capacity(keep.len() + 1);
        row_ptr.push(0);
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for &i in keep {
            for (j, v) in row(i) {
                if local[j] != usize::MAX {
                    col_idx.push(local[j]);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Gathered { row_ptr, col_idx, values }
    }
}

impl SymOp for Gathered {
    fn dim(&self) -> usize {
        self.row_ptr.len() - 1
    }

    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "Gathered: dim mismatch");
        self.row_ptr
            .windows(2)
            .map(|r| (r[0]..r[1]).fold(0.0, |acc, k| acc + self.values[k] * x[self.col_idx[k]]))
            .collect()
    }

    fn nnz(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0.0).count()
    }
}

impl SymOp for Mat {
    fn dim(&self) -> usize {
        assert!(self.is_square(), "SymOp requires a square matrix");
        self.nrows()
    }

    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        matvec(self, x)
    }

    fn apply_block(&self, x: &Mat) -> Mat {
        matmul(self, x)
    }

    fn nnz(&self) -> usize {
        self.as_slice().iter().filter(|&&v| v != 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_symop_applies() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        assert_eq!(a.dim(), 2);
        assert_eq!(a.apply_vec(&[1.0, 0.0]), vec![2.0, 1.0]);
        let x = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let y = a.apply_block(&x);
        assert_eq!(y[(0, 0)], 2.0);
        assert_eq!(y[(1, 1)], 3.0);
    }

    #[test]
    fn default_block_impl_matches_dense() {
        // Wrap a Mat so the default (column-by-column) path is exercised.
        struct Wrapper(Mat);
        impl SymOp for Wrapper {
            fn dim(&self) -> usize {
                self.0.nrows()
            }
            fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
                matvec(&self.0, x)
            }
        }
        let mut a = Mat::from_fn(5, 5, |i, j| (i * j) as f64);
        a.symmetrize();
        let x = Mat::from_fn(5, 3, |i, j| (i + j) as f64);
        let via_default = Wrapper(a.clone()).apply_block(&x);
        let via_gemm = a.apply_block(&x);
        for i in 0..5 {
            for j in 0..3 {
                assert!((via_default[(i, j)] - via_gemm[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn nnz_counts_nonzeros() {
        let a = Mat::from_diag(&[1.0, 0.0, 2.0]);
        assert_eq!(SymOp::nnz(&a), 2);
    }
}
