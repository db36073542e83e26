//! Error type for the dense linear algebra kernels.

use std::fmt;

/// Errors surfaced by factorizations and iterative kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// An iterative method (QL eigensolver, power iteration) failed to
    /// converge within its iteration budget.
    NoConvergence {
        /// Which kernel failed.
        what: &'static str,
        /// Iterations spent before giving up.
        iters: usize,
    },
    /// A PSD check found an eigenvalue below its negative-noise tolerance:
    /// the matrix is not (numerically) positive semidefinite. Carries the
    /// offending index and value.
    NotPositiveDefinite {
        /// Offending index.
        index: usize,
        /// Offending value (the most negative eigenvalue).
        pivot: f64,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Row count of the offending matrix.
        nrows: usize,
        /// Column count of the offending matrix.
        ncols: usize,
    },
    /// Input contained NaN or infinity.
    NotFinite,
    /// A matrix that must be (numerically) symmetric was not.
    NotSymmetric {
        /// Max absolute asymmetry observed.
        asymmetry: f64,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NoConvergence { what, iters } => {
                write!(f, "{what}: no convergence after {iters} iterations")
            }
            LinalgError::NotPositiveDefinite { index, pivot } => {
                write!(f, "matrix not positive definite: pivot {pivot:.3e} at index {index}")
            }
            LinalgError::NotSquare { nrows, ncols } => {
                write!(f, "expected square matrix, got {nrows}x{ncols}")
            }
            LinalgError::NotFinite => write!(f, "input contains NaN or infinite entries"),
            LinalgError::NotSymmetric { asymmetry } => {
                write!(f, "matrix not symmetric: max |A_ij - A_ji| = {asymmetry:.3e}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = LinalgError::NoConvergence { what: "tql2", iters: 60 };
        assert!(e.to_string().contains("tql2"));
        let e = LinalgError::NotPositiveDefinite { index: 3, pivot: -1.0 };
        assert!(e.to_string().contains("index 3"));
        let e = LinalgError::NotSquare { nrows: 2, ncols: 3 };
        assert!(e.to_string().contains("2x3"));
    }
}
