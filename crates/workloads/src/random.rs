//! Random factorized packing instances with a controllable **width knob**.
//!
//! The width of a packing instance (for the best-response oracle) is
//! `ρ = maxᵢ λmax(Aᵢ)` after normalizing the decision threshold. These
//! generators produce low-rank factorized constraints (`Aᵢ = QᵢQᵢᵀ`, the
//! Theorem 4.1 input format) whose width can be dialed up by inflating a
//! few constraints — the E3 experiment's x-axis.

use psdp_parallel::rng_for;
use psdp_sparse::{Csr, FactorPsd, PsdMatrix};
use rand::Rng;

/// Parameters for the random factorized generator.
#[derive(Debug, Clone, Copy)]
pub struct RandomFactorized {
    /// Matrix dimension `m`.
    pub dim: usize,
    /// Number of constraints `n`.
    pub n: usize,
    /// Rank of each factor (columns of `Qᵢ`).
    pub rank: usize,
    /// Nonzeros per factor column (sparsity; clamped to `dim`).
    pub nnz_per_col: usize,
    /// Width knob: the first constraint is scaled so its `λmax` is `width ×`
    /// the typical one (1.0 = homogeneous instance).
    pub width: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomFactorized {
    fn default() -> Self {
        RandomFactorized { dim: 16, n: 8, rank: 2, nnz_per_col: 4, width: 1.0, seed: 1 }
    }
}

/// Generate the instance described by the parameters.
///
/// Constraints are normalized so the *typical* `λmax` is Θ(1); the first
/// constraint is then inflated by `width`.
pub fn random_factorized(p: &RandomFactorized) -> Vec<PsdMatrix> {
    assert!(p.dim > 0 && p.n > 0 && p.rank > 0);
    assert!(p.width >= 1.0, "width knob must be ≥ 1");
    let nnz_col = p.nnz_per_col.clamp(1, p.dim);
    let mut mats = Vec::with_capacity(p.n);
    for i in 0..p.n {
        let mut rng = rng_for(p.seed, i as u64);
        let mut trip = Vec::with_capacity(p.rank * nnz_col);
        for c in 0..p.rank {
            // Choose nnz_col distinct-ish rows.
            for _ in 0..nnz_col {
                let r = rng.gen_range(0..p.dim);
                let v: f64 = rng.gen_range(0.2..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                trip.push((r, c, v));
            }
        }
        let mut f = FactorPsd::new(Csr::from_triplets(p.dim, p.rank, &trip));
        // Normalize λmax to ~1, then apply the width knob to constraint 0.
        let lam = PsdMatrix::Factor(f.clone()).lambda_max_est().max(1e-12);
        let target = if i == 0 { p.width } else { 1.0 };
        f.scale(target / lam);
        mats.push(PsdMatrix::Factor(f));
    }
    mats
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_linalg::sym_eigen;

    #[test]
    fn generator_is_deterministic() {
        let p = RandomFactorized::default();
        let a = random_factorized(&p);
        let b = random_factorized(&p);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            let (xd, yd) = (x.to_dense(), y.to_dense());
            assert_eq!(xd.as_slice(), yd.as_slice());
        }
    }

    #[test]
    fn constraints_are_psd_and_normalized() {
        let p = RandomFactorized { dim: 10, n: 5, ..Default::default() };
        for a in random_factorized(&p) {
            let eig = sym_eigen(&a.to_dense()).unwrap();
            assert!(eig.lambda_min() > -1e-10, "PSD violated");
            assert!(eig.lambda_max() < 1.6, "λmax {} too large", eig.lambda_max());
            assert!(eig.lambda_max() > 0.4, "λmax {} too small", eig.lambda_max());
        }
    }

    #[test]
    fn width_knob_inflates_first_constraint() {
        let p = RandomFactorized { width: 8.0, ..Default::default() };
        let mats = random_factorized(&p);
        let lam0 = sym_eigen(&mats[0].to_dense()).unwrap().lambda_max();
        let lam1 = sym_eigen(&mats[1].to_dense()).unwrap().lambda_max();
        assert!(lam0 / lam1 > 5.0, "width ratio {} too small", lam0 / lam1);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_factorized(&RandomFactorized { seed: 1, ..Default::default() });
        let b = random_factorized(&RandomFactorized { seed: 2, ..Default::default() });
        let da = a[0].to_dense();
        let db = b[0].to_dense();
        assert_ne!(da.as_slice(), db.as_slice());
    }
}
