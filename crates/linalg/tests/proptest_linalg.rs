//! Property-based tests for the dense kernels: the eigensolver, QR, and
//! the Taylor operator hold their contracts on random inputs.

use proptest::prelude::*;
use psdp_linalg::{
    apply_exp_taylor_block, expm, lambda_max_power, matmul, psd_factor, qr, sym_eigen,
    taylor_degree, Mat,
};

/// Strategy: random symmetric matrix with entries in [-1, 1].
fn sym_mat(max_dim: usize) -> impl Strategy<Value = Mat> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-1.0_f64..1.0, n * n).prop_map(move |data| {
            let mut m = Mat::from_vec(n, n, data);
            m.symmetrize();
            m
        })
    })
}

/// Strategy: random PSD matrix (Gram of a random square matrix, scaled).
fn psd_mat(max_dim: usize) -> impl Strategy<Value = Mat> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-1.0_f64..1.0, n * n).prop_map(move |data| {
            let g = Mat::from_vec(n, n, data);
            let mut a = matmul(&g, &g.transpose());
            a.scale(1.0 / n as f64);
            a.symmetrize();
            a
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// V diag(λ) Vᵀ reconstructs A and V is orthonormal.
    #[test]
    fn eigen_reconstructs(a in sym_mat(8)) {
        let eig = sym_eigen(&a).unwrap();
        let rec = eig.reconstruct();
        let scale = a.max_abs().max(1.0);
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                prop_assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-7 * scale);
            }
        }
        let vtv = matmul(&eig.vectors.transpose(), &eig.vectors);
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                let want = if i == j { 1.0 } else { 0.0 };
                prop_assert!((vtv[(i, j)] - want).abs() < 1e-8);
            }
        }
    }

    /// Trace = Σλ and Frobenius² = Σλ² (spectral identities).
    #[test]
    fn eigen_spectral_identities(a in sym_mat(8)) {
        let eig = sym_eigen(&a).unwrap();
        let tr: f64 = eig.values.iter().sum();
        prop_assert!((tr - a.trace()).abs() < 1e-8 * a.max_abs().max(1.0) * a.nrows() as f64);
        let fro2: f64 = eig.values.iter().map(|l| l * l).sum();
        prop_assert!((fro2 - a.fro_norm().powi(2)).abs() < 1e-6 * (1.0 + fro2));
    }

    /// QR: Q orthonormal, R upper-triangular, QR = A.
    #[test]
    fn qr_contract(a in psd_mat(7)) {
        let f = qr(&a);
        let rec = matmul(&f.q, &f.r);
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                prop_assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-8 * a.max_abs().max(1.0));
            }
        }
    }

    /// psd_factor: QQᵀ = A for PSD A.
    #[test]
    fn psd_factor_reconstructs(a in psd_mat(7)) {
        let q = psd_factor(&a, 1e-10).unwrap();
        let rec = matmul(&q, &q.transpose());
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                prop_assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-6 * a.max_abs().max(1.0));
            }
        }
    }

    /// Power iteration agrees with the eigensolver's λmax on PSD input.
    #[test]
    fn power_iteration_agrees(a in psd_mat(8)) {
        let truth = sym_eigen(&a).unwrap().lambda_max();
        let est = lambda_max_power(&a, 600, 1e-10).value;
        prop_assert!((est - truth).abs() <= 1e-4 * truth.max(1e-6) + 1e-9,
            "power {est} vs eigen {truth}");
    }

    /// Lemma 4.2 sandwich holds on random PSD matrices (checked via the
    /// trace against a random block, a linear functional of the Loewner
    /// order).
    #[test]
    fn taylor_sandwich(a in psd_mat(6), eps in 0.02_f64..0.5) {
        let kappa = sym_eigen(&a).unwrap().lambda_max().max(1e-9);
        let k = taylor_degree(kappa, eps);
        let p = apply_exp_taylor_block(&a, &Mat::identity(a.nrows()), k);
        let e = expm(&a).unwrap();
        // Compare quadratic forms along the coordinate directions.
        for i in 0..a.nrows() {
            let pi = p[(i, i)];
            let ei = e[(i, i)];
            prop_assert!(pi <= ei * (1.0 + 1e-9), "p {pi} > exp {ei}");
            prop_assert!(pi >= ei * (1.0 - eps) - 1e-12, "p {pi} < (1-eps) exp {ei}");
        }
    }
}
