//! Width-**dependent** MMW packing-SDP solver (Arora–Kale primal–dual
//! style) — the baseline the width-independence experiment (E3) contrasts
//! against.
//!
//! To test "packing OPT ≥ 1" the algorithm plays the MMW game ([`MmwGame`])
//! with the best-response oracle: at each round it puts unit mass on the
//! coordinate minimizing `Aᵢ • P(t)` and incurs the gain
//! `M(t) = A_{i(t)} / ρ`, where `ρ = maxᵢ λmax(Aᵢ)` is the **width**. If the oracle ever fails
//! (`minᵢ Aᵢ•P > 1+ε`), the current `P` is a covering certificate. Otherwise
//! after `T = ⌈c·ρ·ln(m)/ε²⌉` rounds the Theorem 2.1 regret bound makes the
//! average response nearly feasible; feasibility of the returned `x̄` is then
//! certified by measuring `λmax(Σ x̄ᵢAᵢ)` and rescaling. The result carries
//! the final game, so the regret bound itself can be checked on the gains
//! the run played.
//!
//! Iterations scale **linearly with the width ρ** — exactly the dependence
//! the paper's algorithm removes (its Section 1.1 motivation).

use crate::matrix_mw::MmwGame;
use psdp_core::{PackingInstance, PsdpError};
use psdp_linalg::sym_eigen;

/// Outcome of the width-dependent decision procedure.
#[derive(Debug, Clone)]
pub enum AkOutcome {
    /// Feasible dual `x` (scaled) with value `1ᵀx`.
    Dual {
        /// The feasible packing vector.
        x: Vec<f64>,
        /// Its value.
        value: f64,
    },
    /// Covering certificate: `minᵢ Aᵢ•P > 1+ε` for a trace-1 `P ⪰ 0`.
    Primal {
        /// Per-constraint dots `Aᵢ • P`.
        dots: Vec<f64>,
    },
}

/// Result with telemetry.
#[derive(Debug, Clone)]
pub struct AkResult {
    /// Which side was certified.
    pub outcome: AkOutcome,
    /// Iterations executed.
    pub iterations: usize,
    /// The width `ρ = maxᵢ λmax(Aᵢ)` the schedule was built from.
    pub width: f64,
    /// The iteration budget `T` implied by the width.
    pub budget: usize,
    /// The MMW game in its final state, for checking the Theorem 2.1
    /// regret bound on the gains this run played.
    pub game: MmwGame,
}

/// Run the width-dependent decision procedure at threshold 1.
///
/// `budget_cap` truncates the width-implied schedule `T` (useful in
/// experiments; a truncated run can return a weaker dual).
///
/// # Errors
/// Propagates eigensolver failures.
pub fn ak_decision(
    inst: &PackingInstance,
    eps: f64,
    budget_cap: usize,
) -> Result<AkResult, PsdpError> {
    assert!(eps > 0.0 && eps < 1.0, "eps in (0,1)");
    let m = inst.dim();
    let n = inst.n();

    // Width: the oracle plays single coordinates with unit mass.
    let width = inst.mats().iter().map(|a| a.lambda_max_est()).fold(0.0_f64, f64::max).max(1e-12);

    let eps0 = (eps / 4.0).min(0.5);
    let t_sched = (4.0 * width * (m.max(2) as f64).ln() / (eps0 * eps * 0.25)).ceil() as usize;
    let budget = t_sched.clamp(1, budget_cap);

    let mut game = MmwGame::new(m, eps0);
    let mut counts = vec![0.0_f64; n];

    for t in 0..budget {
        let p = game.probability_matrix()?;

        // Best-response oracle.
        let dots: Vec<f64> = inst.mats().iter().map(|a| a.dot_dense(p)).collect();
        let (best, best_dot) =
            dots.iter().copied().enumerate().min_by(|a, b| a.1.total_cmp(&b.1)).expect("nonempty");
        if best_dot > 1.0 + eps {
            return Ok(AkResult {
                outcome: AkOutcome::Primal { dots },
                iterations: t + 1,
                width,
                budget,
                game,
            });
        }
        // Incur gain A_best / ρ (‖M‖ ≤ 1 by the width definition).
        game.play(&inst.mats()[best], 1.0 / width)?;
        counts[best] += 1.0;
    }

    // x̄ = average of unit responses; certify by measured λmax and rescale.
    let total: f64 = counts.iter().sum();
    let mut x: Vec<f64> = counts.iter().map(|c| c / total).collect();
    let psi = inst.weighted_sum(&x);
    let lam = sym_eigen(&psi)?.lambda_max().max(1e-300);
    let scale = lam.max(1.0) * (1.0 + 1e-9);
    for v in &mut x {
        *v /= scale;
    }
    let value = x.iter().sum();
    Ok(AkResult { outcome: AkOutcome::Dual { x, value }, iterations: budget, width, budget, game })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_linalg::Mat;
    use psdp_sparse::PsdMatrix;

    fn diag_instance(rows: &[&[f64]]) -> PackingInstance {
        PackingInstance::new(rows.iter().map(|r| PsdMatrix::Diagonal(r.to_vec())).collect())
            .unwrap()
    }

    #[test]
    fn feasible_instance_returns_good_dual() {
        // OPT = 2 ≥ 1: must find a dual with value near 1 (or better).
        let inst = diag_instance(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let r = ak_decision(&inst, 0.2, 50_000).unwrap();
        match r.outcome {
            AkOutcome::Dual { x, value } => {
                assert!(value >= 0.7, "value {value}");
                let psi = inst.weighted_sum(&x);
                let lam = sym_eigen(&psi).unwrap().lambda_max();
                assert!(lam <= 1.0 + 1e-8);
            }
            AkOutcome::Primal { .. } => panic!("feasible instance certified primal"),
        }
    }

    #[test]
    fn infeasible_instance_returns_primal() {
        // OPT = 1/4 < 1: the oracle fails immediately.
        let inst = diag_instance(&[&[4.0, 4.0]]);
        let r = ak_decision(&inst, 0.2, 50_000).unwrap();
        match r.outcome {
            AkOutcome::Primal { dots } => {
                assert!(dots.iter().all(|&d| d > 1.2));
            }
            AkOutcome::Dual { .. } => panic!("infeasible instance certified dual"),
        }
    }

    #[test]
    fn budget_grows_with_width() {
        // Same structure, scaled-up eigenvalues on one constraint ⇒ larger
        // width ⇒ larger schedule. (The iteration *budget* is the point of
        // the E3 comparison.)
        let narrow = diag_instance(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let wide = diag_instance(&[&[8.0, 0.0], &[0.0, 1.0]]);
        let rn = ak_decision(&narrow, 0.3, usize::MAX).unwrap();
        let rw = ak_decision(&wide, 0.3, usize::MAX).unwrap();
        assert!(rw.width > rn.width * 4.0);
        assert!(rw.budget > rn.budget * 4, "budget {} vs {}", rw.budget, rn.budget);
    }

    #[test]
    fn non_diagonal_instance() {
        let mut a1 = Mat::zeros(2, 2);
        a1.rank1_update(1.0, &[1.0, 1.0]); // λmax = 2
        let mut a2 = Mat::zeros(2, 2);
        a2.rank1_update(1.0, &[1.0, -1.0]);
        let inst = PackingInstance::new(vec![PsdMatrix::Dense(a1), PsdMatrix::Dense(a2)]).unwrap();
        let r = ak_decision(&inst, 0.25, 20_000).unwrap();
        if let AkOutcome::Dual { x, .. } = &r.outcome {
            let psi = inst.weighted_sum(x);
            assert!(sym_eigen(&psi).unwrap().lambda_max() <= 1.0 + 1e-8);
        }
    }
}
