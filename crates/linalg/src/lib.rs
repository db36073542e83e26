//! # psdp-linalg
//!
//! Dense linear algebra for the `positive-sdp` workspace: the numeric
//! substrate that the paper (Peng–Tangwongsan–Zhang, SPAA 2012) assumes as
//! "standard matrix operations".
//!
//! Everything is implemented from scratch on `f64`:
//!
//! * [`mat::Mat`] — dense row-major matrices with elementwise ops,
//! * [`gemm`] — rayon-parallel GEMM / GEMV,
//! * [`eigen`] — symmetric eigendecomposition (Householder + implicit QL),
//! * [`mod@qr`] — Householder QR / orthonormalization,
//! * [`funcs`] — matrix functions `exp`, `√`, pseudo `⁻¹ᐟ²`, PSD factorization,
//! * [`poly`] — the Lemma 4.2 truncated-Taylor operator applied to blocks,
//! * [`expmv`] — restarted-Lanczos / Chebyshev `exp(B)·x` without forming `exp(B)`,
//! * [`norms`] — spectral-norm estimation (power iteration + certified bounds),
//! * [`op`] — the [`op::SymOp`] abstraction the engines are written against.
//!
//! The crate is deliberately dependency-light (rayon only) so every numeric
//! claim in the reproduction is auditable down to scalar loops.

#![warn(missing_docs)]

pub mod eigen;
pub mod error;
pub mod expmv;
pub mod funcs;
pub mod gemm;
pub mod mat;
pub mod norms;
pub mod op;
pub mod poly;
pub mod qr;
pub mod vecops;

pub use eigen::{sym_eigen, sym_eigenvalues, SymEigen};
pub use error::LinalgError;
pub use expmv::{
    chebyshev_exp_block, expm_action_chebyshev, expm_action_lanczos, expm_action_lanczos_gathered,
    ExpmAction,
};
pub use funcs::{expm, inv_sqrt_psd, psd_factor};
pub use gemm::{matmul, matvec, symmul};
pub use mat::Mat;
pub use norms::{lambda_max_estimate, lambda_max_power, lambda_max_upper_bound};
pub use op::{Gathered, SymOp};
pub use poly::{apply_exp_taylor_block, taylor_degree};
pub use qr::{orthonormalize, qr, Qr};
