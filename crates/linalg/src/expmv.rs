//! Matrix-exponential *action*: `exp(B)·x` without forming `exp(B)`.
//!
//! The Taylor operator in [`crate::poly`] needs `k = Θ(κ)` operator
//! applications with `k ≈ e²κ ≈ 7.4κ` (Lemma 4.2's one-sided bound forces
//! the long degree). For the engine's *evaluation* side — where a two-sided
//! relative error is enough — Krylov and Chebyshev methods reach the same
//! accuracy in `O(√κ)`–`O(κ)` applications with far smaller constants:
//!
//! * [`expm_action_lanczos`] — restarted Lanczos: time-steps
//!   `exp(B)v = (exp(B/s))^s v` so each substep needs a small Krylov space,
//!   with full reorthogonalization and an a-posteriori convergence check per
//!   substep. Output is kept in log-scale (`unit vector + log‖·‖`), and the
//!   tridiagonal exponential is evaluated in a top-Ritz-shifted frame, so
//!   `κ ≫ 700` cannot overflow — which lets operators with `n ≤ MAX_KRYLOV`
//!   (where the Krylov space is exact) run a *single* time step at any `κ`.
//! * [`chebyshev_exp_block`] — a fixed, data-independent Chebyshev expansion
//!   of `e^{κ(t−1)/2}` on the spectral interval `[0, κ]`, applied to a block
//!   by the three-term recurrence. Returns `e^{−κ}·exp(B)·X`, again so no
//!   intermediate exceeds `‖X‖`. Degree ≈ `κ/2 + O(√κ)` — the Bessel-tail
//!   cutoff — roughly 14× fewer applications than Lemma 4.2 at large `κ`.
//!
//! **Determinism.** Both paths are sequential per vector/block and make no
//! data-dependent parallel decisions; all parallelism lives inside the
//! operator's `apply_vec`/`apply_block` (the blocked GEMM / CSR spmm), which
//! are bitwise thread-count-invariant. The Lanczos start vector is the input
//! vector itself, so the whole computation is a pure function of `(op, x)`.
//!
//! **Drift checks.** Every result carries its a-posteriori residual (Lanczos)
//! or coefficient tail (Chebyshev); callers compare these against the
//! requested tolerance instead of trusting the iteration counts. Lanczos
//! additionally re-splits the time grid (doubling `s`) when a substep fails
//! to converge inside [`MAX_KRYLOV`] applications.

use crate::eigen::sym_eigen;
use crate::error::LinalgError;
use crate::mat::Mat;
use crate::op::SymOp;
use crate::vecops;

/// Target spectral width per Lanczos time step for operators larger than
/// [`MAX_KRYLOV`]: `s = ⌈κ / KAPPA_PER_STEP⌉`. At width 16 a ≲ 30-dimensional
/// Krylov space reaches 1e-12 accuracy per substep. (Overflow is handled by
/// the shifted tridiagonal evaluation, not by the grid; small operators skip
/// the grid entirely and run `s = 1`.)
pub const KAPPA_PER_STEP: f64 = 16.0;

/// Krylov-dimension cap per substep. A substep that has not converged by
/// here triggers a restart with a finer time grid (`s` doubled).
pub const MAX_KRYLOV: usize = 48;

/// How many times the time grid may be refined (each refinement doubles
/// `s`) before returning the best effort with its residual recorded.
pub const MAX_GRID_REFINEMENTS: usize = 4;

/// Hard cap on the Chebyshev expansion degree (reached only for `κ ≳ 4000`,
/// far beyond any workload in this workspace; the tail check reports the
/// truncation error if it triggers).
pub const CHEB_MAX_DEGREE: usize = 2048;

/// `exp(B)·x` in log-scale: the result is `exp(log_norm) · v` with `‖v‖ = 1`.
#[derive(Debug, Clone)]
pub struct ExpmAction {
    /// Unit-norm direction of `exp(B)·x` (all-zero iff `x = 0`).
    pub v: Vec<f64>,
    /// `ln‖exp(B)·x‖` (`−∞` iff `x = 0`).
    pub log_norm: f64,
    /// Total operator applications performed.
    pub matvecs: usize,
    /// Time steps used (`s` in `(exp(B/s))^s`).
    pub steps: usize,
    /// Largest per-substep convergence residual `‖y_k − y_{k−1}‖/‖y_k‖`
    /// encountered; compare against the requested `tol` (drift check).
    pub residual: f64,
}

/// Compute `exp(B)·x` for symmetric PSD `B` with `‖B‖₂ ≤ kappa` by
/// restarted Lanczos. Deterministic; see module docs for the contract.
///
/// `tol` is the per-substep relative convergence target; the end-to-end
/// relative error is `O(s · tol)`. The returned [`ExpmAction::residual`] is
/// the worst substep residual actually achieved.
///
/// # Errors
/// Propagates failures of the small tridiagonal eigensolve.
pub fn expm_action_lanczos(
    op: &dyn SymOp,
    x: &[f64],
    kappa: f64,
    tol: f64,
) -> Result<ExpmAction, LinalgError> {
    expm_action_lanczos_gathered(op, x, kappa, tol, op.dim())
}

/// [`expm_action_lanczos`] on an operator gathered ([`SymOp::gather`]) from
/// one of dimension `ambient` onto coordinates that hold `x` and every
/// vector the run makes from it, so that the dropped coordinates are exact
/// zeros throughout. The time grid's start and the Krylov cap stay keyed on
/// `ambient`: with them, every step adds and multiplies the same nonzero
/// terms in the same order as the run on the source operator, and
/// `log_norm`, `matvecs`, `steps` and `residual` are that run's bit for
/// bit (an exact zero on the way may differ in sign; DESIGN.md §12). `v`
/// is its direction read at the gathered coordinates.
///
/// # Errors
/// Propagates failures of the small tridiagonal eigensolve.
pub fn expm_action_lanczos_gathered(
    op: &dyn SymOp,
    x: &[f64],
    kappa: f64,
    tol: f64,
    ambient: usize,
) -> Result<ExpmAction, LinalgError> {
    let n = op.dim();
    assert_eq!(x.len(), n, "expm_action_lanczos: dim mismatch");
    assert!(n <= ambient, "expm_action_lanczos: gathered dim {n} exceeds ambient {ambient}");
    assert!(kappa >= 0.0 && kappa.is_finite(), "expm_action_lanczos: bad kappa {kappa}");
    if ambient == 0 {
        return Ok(ExpmAction {
            v: Vec::new(),
            log_norm: 0.0,
            matvecs: 0,
            steps: 0,
            residual: 0.0,
        });
    }
    let norm0 = vecops::norm2(x);
    if norm0 == 0.0 || !norm0.is_finite() {
        return Ok(ExpmAction {
            v: vec![0.0; n],
            log_norm: f64::NEG_INFINITY,
            matvecs: 0,
            steps: 0,
            residual: 0.0,
        });
    }

    // Small operators reach an invariant subspace by step `n ≤ MAX_KRYLOV`,
    // where the Krylov answer is exact — no time grid needed (the shifted
    // `exp((T − μI)/s)` evaluation below is overflow-safe at any κ). Large
    // operators start at the spectral-width grid and refine on residual.
    // Both are decided on the ambient dimension, never the gathered one.
    let s0 =
        if ambient <= MAX_KRYLOV { 1 } else { ((kappa / KAPPA_PER_STEP).ceil() as usize).max(1) };
    let mut best: Option<ExpmAction> = None;
    for refinement in 0..=MAX_GRID_REFINEMENTS {
        let s = s0 << refinement;
        let (action, converged) = lanczos_time_grid(op, x, norm0, s, tol, ambient)?;
        let better = best.as_ref().is_none_or(|b| action.residual < b.residual);
        if better {
            best = Some(action);
        }
        if converged {
            break;
        }
    }
    Ok(best.expect("at least one grid attempt"))
}

/// One full pass over a fixed time grid of `s` substeps. Returns the result
/// and whether every substep met `tol` inside [`MAX_KRYLOV`] applications
/// (capped at the `ambient` dimension).
fn lanczos_time_grid(
    op: &dyn SymOp,
    x: &[f64],
    norm0: f64,
    s: usize,
    tol: f64,
    ambient: usize,
) -> Result<(ExpmAction, bool), LinalgError> {
    let n = op.dim();
    let inv_s = 1.0 / s as f64;
    let mut v = x.to_vec();
    vecops::scale(1.0 / norm0, &mut v);
    let mut log_norm = norm0.ln();
    let mut matvecs = 0usize;
    let mut worst_residual = 0.0f64;
    let mut all_converged = true;

    for _ in 0..s {
        let k_cap = MAX_KRYLOV.min(ambient);
        let mut basis: Vec<Vec<f64>> = vec![std::mem::take(&mut v)];
        let mut alphas: Vec<f64> = Vec::with_capacity(k_cap);
        let mut betas: Vec<f64> = Vec::with_capacity(k_cap);
        let mut y_prev: Vec<f64> = Vec::new();
        let mut y: Vec<f64> = Vec::new();
        let mut mu = 0.0f64;
        let mut mu_prev = 0.0f64;
        let mut residual = f64::INFINITY;
        let mut converged = false;

        for step in 0..k_cap {
            let vj = &basis[step];
            let mut w = op.apply_vec(vj);
            matvecs += 1;
            let alpha = vecops::dot(&w, vj);
            alphas.push(alpha);
            vecops::axpy(-alpha, vj, &mut w);
            if step > 0 {
                vecops::axpy(-betas[step - 1], &basis[step - 1], &mut w);
            }
            for b in &basis {
                let c = vecops::dot(&w, b);
                if c != 0.0 {
                    vecops::axpy(-c, b, &mut w);
                }
            }
            let beta = vecops::norm2(&w);

            // y = exp(T_k / s) e₁ for the current tridiagonal restriction.
            let k = alphas.len();
            let mut t = Mat::zeros(k, k);
            for (i, &a) in alphas.iter().enumerate() {
                t[(i, i)] = a;
            }
            for (i, &b) in betas.iter().enumerate().take(k.saturating_sub(1)) {
                t[(i, i + 1)] = b;
                t[(i + 1, i)] = b;
            }
            let eig = sym_eigen(&t)?;
            // Evaluate in a top-Ritz-shifted frame: exp((T − μI)/s)e₁ has
            // entries ≤ 1 at any κ; the shift re-enters `log_norm` after the
            // substep, so even `s = 1` at κ ≫ 700 cannot overflow.
            mu = eig.values.iter().fold(f64::NEG_INFINITY, |m, &l| m.max(l));
            y = vec![0.0; k];
            for (j, &lam) in eig.values.iter().enumerate() {
                let w_j = ((lam - mu) * inv_s).exp() * eig.vectors[(0, j)];
                for (i, yi) in y.iter_mut().enumerate() {
                    *yi += eig.vectors[(i, j)] * w_j;
                }
            }

            let ynorm = vecops::norm2(&y).max(1e-300);
            if !y_prev.is_empty() {
                // Bring the previous iterate into the current frame (the top
                // Ritz value is nondecreasing in k, so the factor is ≤ 1).
                let frame = ((mu_prev - mu) * inv_s).exp();
                let mut diff = 0.0f64;
                for (i, &yi) in y.iter().enumerate() {
                    let p = y_prev.get(i).copied().unwrap_or(0.0) * frame;
                    diff += (yi - p) * (yi - p);
                }
                residual = diff.sqrt() / ynorm;
                if residual <= tol {
                    converged = true;
                    break;
                }
            }
            if beta <= 1e-14 {
                // Invariant subspace: the Krylov answer is exact.
                residual = 0.0;
                converged = true;
                break;
            }
            y_prev = y.clone();
            mu_prev = mu;
            vecops::scale(1.0 / beta, &mut w);
            betas.push(beta);
            basis.push(w);
        }

        // w = Σ y_j · basis_j, then renormalize into log-scale.
        let mut wv = vec![0.0; n];
        for (j, b) in basis.iter().enumerate().take(y.len()) {
            vecops::axpy(y[j], b, &mut wv);
        }
        let wnorm = vecops::norm2(&wv);
        if wnorm == 0.0 || !wnorm.is_finite() {
            return Ok((
                ExpmAction {
                    v: vec![0.0; n],
                    log_norm: f64::NEG_INFINITY,
                    matvecs,
                    steps: s,
                    residual: worst_residual,
                },
                false,
            ));
        }
        log_norm += wnorm.ln() + mu * inv_s;
        vecops::scale(1.0 / wnorm, &mut wv);
        v = wv;
        worst_residual = worst_residual.max(residual.min(1.0));
        all_converged &= converged;
    }

    Ok((ExpmAction { v, log_norm, matvecs, steps: s, residual: worst_residual }, all_converged))
}

/// Result of a Chebyshev block application: `y ≈ e^{−log_scale} · exp(B) · X`.
#[derive(Debug, Clone)]
pub struct ChebApplied {
    /// The scaled block `e^{−log_scale}·exp(B)·X`.
    pub y: Mat,
    /// Log of the factor taken out of the exponential (`= kappa`, or `0`
    /// on the `κ ≈ 0` fast path).
    pub log_scale: f64,
    /// Polynomial degree used (number of operator applications is
    /// `degree − 1`... `degree`, depending on the recurrence tail).
    pub degree: usize,
    /// Largest trailing-coefficient magnitude — the truncation-error drift
    /// check; compare against the requested `tol`.
    pub coeff_tail: f64,
}

/// Chebyshev coefficients of `h(t) = e^{a(t−1)}` on `[−1, 1]` (so that
/// `h((2/κ)B − I) = e^{−κ/2·(… )}`, see [`chebyshev_exp_block`]), computed by
/// Chebyshev–Gauss quadrature with `degree + 8` nodes. `coeffs[0]` is
/// already halved (ready for the Clenshaw/forward recurrence).
fn chebyshev_coeffs(a: f64, degree: usize) -> Vec<f64> {
    let n_nodes = degree + 9;
    // h at the Chebyshev–Gauss nodes cos(θ_l), θ_l = π(l+½)/N.
    let hvals: Vec<f64> = (0..n_nodes)
        .map(|l| {
            let theta = std::f64::consts::PI * (l as f64 + 0.5) / n_nodes as f64;
            (a * (theta.cos() - 1.0)).exp()
        })
        .collect();
    let mut coeffs = Vec::with_capacity(degree + 1);
    for j in 0..=degree {
        let mut c = 0.0f64;
        for (l, &h) in hvals.iter().enumerate() {
            let theta = std::f64::consts::PI * (l as f64 + 0.5) / n_nodes as f64;
            c += h * (j as f64 * theta).cos();
        }
        c *= 2.0 / n_nodes as f64;
        if j == 0 {
            c *= 0.5;
        }
        coeffs.push(c);
    }
    coeffs
}

/// Apply `e^{−κ}·exp(B)` to the block `x` for symmetric PSD `B` with
/// `‖B‖₂ ≤ kappa`, via a degree-adaptive Chebyshev expansion on `[0, κ]`.
///
/// The spectral map is `t ↦ κ(t+1)/2`, so with `L = (2/κ)B − I`
/// (`‖L‖ ≤ 1`) the expansion of `h(t) = e^{κ(t−1)/2}` evaluated at `L` is
/// exactly `e^{−κ}exp(B)`. Every Chebyshev iterate satisfies `‖T_j(L)‖ ≤ 1`,
/// so intermediates never exceed `‖x‖` — the overflow safety that lets the
/// engine run at arbitrary `κ` with `log_scale = κ` carried separately.
///
/// Degree starts at `a + 4√(a+1) + 10` (`a = κ/2`, the Bessel-decay
/// corner) and grows until the trailing coefficients drop below `tol` (or
/// [`CHEB_MAX_DEGREE`]); the achieved tail is reported for drift checking.
pub fn chebyshev_exp_block(op: &dyn SymOp, x: &Mat, kappa: f64, tol: f64) -> ChebApplied {
    assert_eq!(x.nrows(), op.dim(), "chebyshev_exp_block: dim mismatch");
    assert!(kappa >= 0.0 && kappa.is_finite(), "chebyshev_exp_block: bad kappa {kappa}");
    assert!(tol > 0.0, "chebyshev_exp_block: tol must be positive");
    if kappa < 1e-12 {
        // exp(B) = I + O(κ): the identity is within tol for any workload tol.
        return ChebApplied { y: x.clone(), log_scale: 0.0, degree: 1, coeff_tail: kappa };
    }

    let a = kappa * 0.5;
    let mut degree = (a + 4.0 * (a + 1.0).sqrt() + 10.0).ceil() as usize;
    let (coeffs, tail) = loop {
        let degree_now = degree.min(CHEB_MAX_DEGREE);
        let coeffs = chebyshev_coeffs(a, degree_now);
        let tail = coeffs.iter().rev().take(3).fold(0.0f64, |acc, &c| acc.max(c.abs()));
        if tail <= tol || degree_now >= CHEB_MAX_DEGREE {
            break (coeffs, tail);
        }
        degree = degree_now * 3 / 2 + 4;
    };

    // Forward three-term recurrence: P₀ = x, P₁ = L·x, P_{j+1} = 2L·P_j − P_{j−1}.
    let scale = 2.0 / kappa;
    let apply_l = |b: &Mat| -> Mat {
        let mut out = op.apply_block(b);
        out.scale(scale);
        out.axpy(-1.0, b);
        out
    };
    let mut y = x.scaled(coeffs[0]);
    if coeffs.len() > 1 {
        let mut p_prev = x.clone();
        let mut p = apply_l(x);
        y.axpy(coeffs[1], &p);
        for &c in coeffs.iter().skip(2) {
            let mut p_next = apply_l(&p);
            p_next.scale(2.0);
            p_next.axpy(-1.0, &p_prev);
            y.axpy(c, &p_next);
            p_prev = p;
            p = p_next;
        }
    }
    ChebApplied { y, log_scale: kappa, degree: coeffs.len(), coeff_tail: tail }
}

/// Vector convenience wrapper over [`chebyshev_exp_block`]: returns
/// `(e^{−log_scale}·exp(B)·x, log_scale)`.
pub fn expm_action_chebyshev(op: &dyn SymOp, x: &[f64], kappa: f64, tol: f64) -> (Vec<f64>, f64) {
    let mut block = Mat::zeros(op.dim(), 1);
    block.set_col(0, x);
    let applied = chebyshev_exp_block(op, &block, kappa, tol);
    (applied.y.col(0), applied.log_scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcs::expm;

    fn test_psd(m: usize, kappa: f64) -> Mat {
        let mut b = Mat::from_fn(m, m, |i, j| ((i * 7 + j * 5) % 11) as f64 * 0.1);
        b.symmetrize();
        let eig = sym_eigen(&b).unwrap();
        b.add_diag(-eig.lambda_min().min(0.0) + 0.01);
        let lmax = sym_eigen(&b).unwrap().lambda_max();
        b.scale(kappa / lmax);
        b
    }

    fn exact_action(b: &Mat, x: &[f64]) -> Vec<f64> {
        crate::gemm::matvec(&expm(b).unwrap(), x)
    }

    #[test]
    fn lanczos_action_matches_expm_small() {
        let b = test_psd(12, 3.0);
        let x: Vec<f64> = (0..12).map(|i| (i as f64 - 5.0) * 0.3).collect();
        let r = expm_action_lanczos(&b, &x, 3.0, 1e-12).unwrap();
        let truth = exact_action(&b, &x);
        let tnorm = vecops::norm2(&truth);
        assert!((r.log_norm.exp() - tnorm).abs() < 1e-8 * tnorm, "norm mismatch");
        for (i, &ti) in truth.iter().enumerate() {
            let got = r.log_norm.exp() * r.v[i];
            assert!((got - ti).abs() < 1e-7 * tnorm, "entry {i}: {got} vs {ti}");
        }
        assert!(r.residual <= 1e-10, "residual {}", r.residual);
    }

    /// `ln‖exp(diag)·x‖` computed stably by log-sum-exp (diagonal truth).
    fn diag_log_norm(diag: &[f64], x: &[f64]) -> f64 {
        let m = diag.iter().fold(f64::NEG_INFINITY, |a, &d| a.max(d));
        let sum: f64 = diag.iter().zip(x).map(|(&d, &xi)| (2.0 * (d - m)).exp() * xi * xi).sum();
        m + 0.5 * sum.ln()
    }

    #[test]
    fn lanczos_small_dim_single_step_any_kappa() {
        // n ≤ MAX_KRYLOV: the Krylov space is exact, so one time step
        // suffices even at κ = 800 where exp(κ) would overflow — the
        // top-Ritz-shifted tridiagonal evaluation keeps every intermediate
        // bounded, and the shift re-enters through log_norm.
        let diag = [800.0, 500.0, 120.0, 3.0, 0.0];
        let b = Mat::from_diag(&diag);
        let x = [0.5; 5];
        let r = expm_action_lanczos(&b, &x, 800.0, 1e-12).unwrap();
        assert_eq!(r.steps, 1, "small dim should not time-step, got s = {}", r.steps);
        assert!(r.v.iter().all(|v| v.is_finite()));
        let want = diag_log_norm(&diag, &x);
        assert!((r.log_norm - want).abs() < 1e-8, "log norm {} vs {want}", r.log_norm);
        // The top eigendirection dominates by a factor e^{300}.
        assert!((r.v[0].abs() - 1.0).abs() < 1e-10, "got {}", r.v[0]);
    }

    #[test]
    fn lanczos_time_steps_engage_above_krylov_cap() {
        // n > MAX_KRYLOV rules out the exact-subspace fast path, so κ = 40
        // starts the grid at s = ⌈40/16⌉ = 3; diagonal truth in log domain.
        let n = MAX_KRYLOV + 12;
        let diag: Vec<f64> = (0..n).map(|i| 40.0 * i as f64 / (n - 1) as f64).collect();
        let b = Mat::from_diag(&diag);
        let x: Vec<f64> = (0..n).map(|i| 0.3 + ((i * 7) % 5) as f64 * 0.1).collect();
        let r = expm_action_lanczos(&b, &x, 40.0, 1e-12).unwrap();
        assert!(r.steps >= 3, "expected time-stepping, got s = {}", r.steps);
        let want = diag_log_norm(&diag, &x);
        assert!((r.log_norm - want).abs() < 1e-7, "log norm {} vs {want}", r.log_norm);
        for (i, (&d, &xi)) in diag.iter().zip(&x).enumerate() {
            let want_dir = (d - want).exp() * xi;
            assert!((r.v[i] - want_dir).abs() < 1e-7, "entry {i}: {} vs {want_dir}", r.v[i]);
        }
    }

    #[test]
    fn lanczos_action_zero_vector() {
        let b = Mat::from_diag(&[1.0, 2.0]);
        let r = expm_action_lanczos(&b, &[0.0, 0.0], 2.0, 1e-10).unwrap();
        assert_eq!(r.log_norm, f64::NEG_INFINITY);
        assert!(r.v.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lanczos_action_deterministic() {
        let b = test_psd(10, 5.0);
        let x: Vec<f64> = (0..10).map(|i| ((i * 3) % 7) as f64 * 0.2 - 0.5).collect();
        let r1 = expm_action_lanczos(&b, &x, 5.0, 1e-11).unwrap();
        let r2 = expm_action_lanczos(&b, &x, 5.0, 1e-11).unwrap();
        assert_eq!(r1.v, r2.v);
        assert_eq!(r1.log_norm.to_bits(), r2.log_norm.to_bits());
    }

    #[test]
    fn chebyshev_block_matches_expm() {
        let kappa = 6.0;
        let b = test_psd(10, kappa);
        let x = Mat::from_fn(10, 3, |i, j| ((i + 2 * j) % 5) as f64 * 0.25 - 0.4);
        let applied = chebyshev_exp_block(&b, &x, kappa, 1e-12);
        assert_eq!(applied.log_scale, kappa);
        assert!(applied.coeff_tail <= 1e-12, "tail {}", applied.coeff_tail);
        let truth = crate::gemm::matmul(&expm(&b).unwrap(), &x);
        let scale = (-kappa).exp();
        for i in 0..10 {
            for j in 0..3 {
                let want = truth[(i, j)] * scale;
                assert!(
                    (applied.y[(i, j)] - want).abs() < 1e-9,
                    "({i},{j}): {} vs {want}",
                    applied.y[(i, j)]
                );
            }
        }
    }

    #[test]
    fn chebyshev_intermediates_bounded_at_huge_kappa() {
        // kappa = 800 would overflow exp(kappa); the scaled expansion must
        // stay finite and bounded by ~||x||.
        let diag: Vec<f64> = (0..8).map(|i| 100.0 * i as f64).collect();
        let b = Mat::from_diag(&diag);
        let x = Mat::from_fn(8, 1, |_, _| 1.0);
        let applied = chebyshev_exp_block(&b, &x, 700.0, 1e-10);
        assert!(applied.y.all_finite());
        // Entry for the top eigenvalue 700: e^{-700} e^{700} * 1 = 1.
        assert!((applied.y[(7, 0)] - 1.0).abs() < 1e-6, "got {}", applied.y[(7, 0)]);
        // Entry for eigenvalue 0 is e^{-700} ≈ 0 up to the polynomial's
        // absolute accuracy (~tol).
        assert!(applied.y[(0, 0)].abs() < 1e-8, "got {}", applied.y[(0, 0)]);
    }

    #[test]
    fn chebyshev_kappa_zero_fast_path() {
        let b = Mat::zeros(4, 4);
        let x = Mat::from_fn(4, 2, |i, j| (i + j) as f64);
        let applied = chebyshev_exp_block(&b, &x, 0.0, 1e-10);
        assert_eq!(applied.log_scale, 0.0);
        assert_eq!(applied.y.as_slice(), x.as_slice());
    }

    #[test]
    fn chebyshev_vec_wrapper_agrees_with_block() {
        let kappa = 4.0;
        let b = test_psd(7, kappa);
        let x: Vec<f64> = (0..7).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let (y, ls) = expm_action_chebyshev(&b, &x, kappa, 1e-11);
        assert_eq!(ls, kappa);
        let mut block = Mat::zeros(7, 1);
        block.set_col(0, &x);
        let applied = chebyshev_exp_block(&b, &block, kappa, 1e-11);
        assert_eq!(y, applied.y.col(0));
    }

    #[test]
    fn lanczos_and_chebyshev_agree() {
        let kappa = 9.0;
        let b = test_psd(14, kappa);
        let x: Vec<f64> = (0..14).map(|i| ((i * 5) % 9) as f64 * 0.2 - 0.7).collect();
        let lan = expm_action_lanczos(&b, &x, kappa, 1e-12).unwrap();
        let (cheb, ls) = expm_action_chebyshev(&b, &x, kappa, 1e-12);
        // Compare in the common frame: exp(B)x = e^{ls}·cheb = e^{log_norm}·v.
        for (i, &ci) in cheb.iter().enumerate() {
            let a = lan.log_norm.exp() * lan.v[i];
            let c = ls.exp() * ci;
            assert!((a - c).abs() < 1e-7 * lan.log_norm.exp(), "entry {i}: {a} vs {c}");
        }
    }
}
