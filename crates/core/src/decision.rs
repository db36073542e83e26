//! `decisionPSDP` — Algorithm 3.1, the paper's core contribution.
//!
//! Solves the ε-decision problem for a normalized packing SDP
//! (`max 1ᵀx` s.t. `Σ xᵢAᵢ ⪯ I`): it returns **either**
//!
//! * a dual `x ≥ 0` with `‖x‖₁ ≥ 1 − O(ε)` and `Σ xᵢAᵢ ⪯ I`
//!   ("the packing optimum is at least 1"), **or**
//! * a primal `Y ⪰ 0` with `Tr Y = 1` and `Aᵢ • Y ≥ 1` for all `i`
//!   ("the covering optimum — hence by duality the packing optimum — is at
//!   most 1").
//!
//! ## The loop (pseudocode from the paper)
//!
//! ```text
//! K = (1+ln n)/ε, α = ε/(K(1+10ε)), R = (32/(εα)) ln n
//! x⁰ᵢ = 1/(n·Tr Aᵢ)
//! while ‖x‖₁ ≤ K and t < R:
//!     W ← exp(Σᵢ xᵢAᵢ)
//!     B ← { i : W • Aᵢ ≤ (1+ε)·Tr W }
//!     x ← x + α·x_B
//! if ‖x‖₁ > K: return x/((1+10ε)K) as dual
//! else:        return Y = avg_τ W(τ)/Tr W(τ) as primal
//! ```
//!
//! ## Where the implementation lives
//!
//! The iterate loop itself is implemented by [`crate::solver::Session`]
//! (see `crate::solver` for the Solver/Session/Observer architecture and
//! the bisection's warm starts); this module keeps the classic
//! one-shot entry point [`decision_psdp`] as a **convenience wrapper**
//! that prepares a [`crate::Solver`], opens a session, and answers the
//! threshold-1 question. Implementation notes that still apply verbatim:
//!
//! * `Ψ(t) = Σ xᵢ(t)Aᵢ` is maintained **incrementally** through
//!   [`crate::psi::PsiMaintainer`]: each round scatter-adds only the
//!   selected coordinates' scaled constraints. A from-scratch `Σᵢ xᵢAᵢ`
//!   happens only at the drift-check cadence
//!   ([`DecisionOptions::psi_rebuild_period`], default every 64 rounds).
//! * [`psdp_expdot::EngineKind::Auto`] resolves against the instance's
//!   storage profile at engine construction; the *resolved* engine name is
//!   what [`crate::SolveStats::engine`] reports.
//! * **Empty `B(t)`**: every constraint has `P•Aᵢ > 1+ε`, so the *current*
//!   `P` is already a feasible primal and is returned immediately (exit
//!   reason [`crate::ExitReason::EmptyEligibleSet`]).
//! * **Certified dual scaling**: strict mode scales by the paper's
//!   `(1+10ε)K` (Lemma 3.2); practical mode scales by the *measured*
//!   `λmax(Σ xᵢAᵢ)`, certifying feasibility unconditionally.

use crate::error::PsdpError;
use crate::instance::PackingInstance;
use crate::options::DecisionOptions;
use crate::solution::Outcome;
use crate::solver::Solver;
use crate::stats::SolveStats;

/// Outcome + telemetry of one decision run.
#[derive(Debug, Clone)]
pub struct DecisionResult {
    /// Which side was certified.
    pub outcome: Outcome,
    /// Telemetry.
    pub stats: SolveStats,
}

/// Run Algorithm 3.1 on a normalized packing instance.
///
/// This is a one-shot convenience over the session API — it builds a
/// [`crate::Solver`] (engine construction and all) for a single threshold-1
/// solve. Callers making several solves on the same instance (bisection,
/// serving) should hold a [`crate::Solver`] and reuse a
/// [`crate::Session`] instead.
///
/// ```
/// use psdp_core::{decision_psdp, DecisionOptions, Outcome, PackingInstance};
/// use psdp_sparse::PsdMatrix;
///
/// // Two orthogonal projectors: packing OPT = 2 ≥ 1, so the ε-decision
/// // procedure certifies the dual side with value ≥ 1−O(ε).
/// let inst = PackingInstance::new(vec![
///     PsdMatrix::Diagonal(vec![1.0, 0.0]),
///     PsdMatrix::Diagonal(vec![0.0, 1.0]),
/// ])?;
/// let res = decision_psdp(&inst, &DecisionOptions::practical(0.2))?;
/// let dual = res.outcome.dual().expect("feasible side");
/// assert!(dual.value >= 0.8);
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
///
/// Constraints can be stored sparse (CSR) or factorized — storage changes
/// cost, not answers — and [`psdp_expdot::EngineKind::Auto`] picks the
/// engine from the storage profile; the telemetry reports what actually
/// ran:
///
/// ```
/// use psdp_core::{decision_psdp, DecisionOptions, EngineKind, PackingInstance};
/// use psdp_sparse::{Csr, PsdMatrix};
///
/// // One sparse edge Laplacian on 3 vertices (λmax = 2, so OPT = 1/2 < 1).
/// let lap = Csr::from_triplets(3, 3, &[(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 1.0)]);
/// let inst = PackingInstance::new(vec![PsdMatrix::Sparse(lap)])?;
/// let opts = DecisionOptions::practical(0.2).with_engine(EngineKind::Auto { eps: 0.2 });
/// let res = decision_psdp(&inst, &opts)?;
/// assert_eq!(res.stats.engine, "exact"); // auto resolved: tiny instance
/// assert!(res.outcome.primal().is_some()); // OPT < 1 ⇒ covering witness
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
///
/// # Errors
/// Instance/option validation failures and linear-algebra errors.
pub fn decision_psdp(
    inst: &PackingInstance,
    opts: &DecisionOptions,
) -> Result<DecisionResult, PsdpError> {
    let solver = Solver::builder(inst).options(*opts).build()?;
    let mut session = solver.session();
    session.solve(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{ConstantsMode, UpdateRule};
    use crate::solution::ExitReason;
    use psdp_linalg::{sym_eigen, Mat};
    use psdp_sparse::PsdMatrix;

    fn diag_instance(rows: &[&[f64]]) -> PackingInstance {
        PackingInstance::new(rows.iter().map(|r| PsdMatrix::Diagonal(r.to_vec())).collect())
            .unwrap()
    }

    /// Feasible case: identity split across 2 diagonal constraints. The
    /// packing optimum of {diag(1,0), diag(0,1)} is 2 > 1, so the decision
    /// procedure must find a dual with value ≥ 1−O(ε).
    #[test]
    fn dual_side_on_easy_feasible_instance() {
        let inst = diag_instance(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let res = decision_psdp(&inst, &DecisionOptions::practical(0.2)).unwrap();
        let d = res.outcome.dual().expect("should certify dual side");
        assert!(d.value >= 0.8, "dual value {}", d.value);
        // Feasibility: Σ x_i A_i ⪯ I, i.e. every diag entry ≤ 1.
        assert!(d.x[0] <= 1.0 + 1e-9 && d.x[1] <= 1.0 + 1e-9);
        assert_eq!(res.stats.exit, ExitReason::DualNormCrossed);
    }

    /// Infeasible case: OPT < 1. With A₁ = diag(4,4) the packing optimum is
    /// 1/4, so the procedure must certify the primal side.
    #[test]
    fn primal_side_on_small_optimum() {
        let inst = diag_instance(&[&[4.0, 4.0]]);
        let res = decision_psdp(&inst, &DecisionOptions::practical(0.2)).unwrap();
        let p = res.outcome.primal().expect("should certify primal side");
        // Y has trace 1 and A•Y = 4 ≥ 1 for any such Y.
        assert!(p.min_dot >= 1.0 - 1e-9, "min dot {}", p.min_dot);
    }

    /// Paper-strict constants on a tiny instance: the loop must stay within
    /// R iterations and produce a certified answer.
    #[test]
    fn strict_mode_terminates_with_certificate() {
        let inst = diag_instance(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let opts = DecisionOptions::strict(0.3);
        let res = decision_psdp(&inst, &opts).unwrap();
        assert!(res.stats.iterations <= res.stats.iteration_cap);
        match res.outcome {
            Outcome::Dual(d) => {
                assert!(d.value >= 1.0 - 10.0 * 0.3 - 1e-9, "value {}", d.value);
            }
            Outcome::Primal(p) => {
                assert!(p.min_dot >= 1.0 - 1e-6);
            }
        }
    }

    /// Claim 3.5: ‖x‖₁ ≤ (1+ε)K at exit (strict constants).
    #[test]
    fn norm_never_overshoots_much() {
        let inst = diag_instance(&[&[0.5, 0.0], &[0.0, 0.5], &[0.25, 0.25]]);
        let opts = DecisionOptions::strict(0.3);
        let res = decision_psdp(&inst, &opts).unwrap();
        let k = res.stats.k_threshold;
        assert!(
            res.stats.final_norm1 <= (1.0 + 0.3) * k + 1e-9,
            "‖x‖ = {} exceeds (1+ε)K = {}",
            res.stats.final_norm1,
            (1.0 + 0.3) * k
        );
    }

    /// The empty-B shortcut: a single constraint with huge eigenvalues makes
    /// every ratio exceed 1+ε immediately.
    #[test]
    fn empty_eligible_set_returns_current_p() {
        let inst = diag_instance(&[&[100.0, 100.0]]);
        let res = decision_psdp(&inst, &DecisionOptions::practical(0.1)).unwrap();
        assert_eq!(res.stats.exit, ExitReason::EmptyEligibleSet);
        let p = res.outcome.primal().unwrap();
        assert!(p.min_dot > 1.1);
        assert_eq!(p.rounds_averaged, 1);
    }

    /// Non-diagonal instance through the dense path.
    #[test]
    fn dense_constraints_work() {
        let mut a1 = Mat::zeros(3, 3);
        a1.rank1_update(1.0, &[1.0, 0.0, 0.0]);
        let mut a2 = Mat::zeros(3, 3);
        a2.rank1_update(1.0, &[0.0, 1.0, 1.0]);
        a2.scale(0.5);
        let inst = PackingInstance::new(vec![PsdMatrix::Dense(a1), PsdMatrix::Dense(a2)]).unwrap();
        let res = decision_psdp(&inst, &DecisionOptions::practical(0.2)).unwrap();
        // Both constraints have λmax ≤ 1, so OPT ≥ 2 > 1: dual side.
        let d = res.outcome.dual().expect("dual expected");
        assert!(d.value >= 0.75, "value {}", d.value);
        // Certify feasibility directly.
        let psi = inst.weighted_sum(&d.x);
        let lam = sym_eigen(&psi).unwrap().lambda_max();
        assert!(lam <= 1.0 + 1e-8, "λmax {lam}");
    }

    /// All update-rule variants return certified outcomes on the same
    /// instance.
    #[test]
    fn update_rule_variants_all_certify() {
        let inst = diag_instance(&[&[1.0, 0.0, 0.5], &[0.0, 1.0, 0.5], &[0.5, 0.5, 0.0]]);
        for rule in [
            UpdateRule::Standard,
            UpdateRule::Bucketed { boost: 4.0 },
            UpdateRule::TopK { k: 1 },
            UpdateRule::Stale { period: 5 },
        ] {
            let opts = DecisionOptions::practical(0.2).with_rule(rule);
            let res = decision_psdp(&inst, &opts).unwrap();
            match res.outcome {
                Outcome::Dual(d) => {
                    let psi = inst.weighted_sum(&d.x);
                    let lam = sym_eigen(&psi).unwrap().lambda_max();
                    assert!(lam <= 1.0 + 1e-8, "{rule:?}: λmax {lam}");
                    assert!(d.value > 0.5, "{rule:?}: value {}", d.value);
                }
                Outcome::Primal(p) => {
                    assert!(p.min_dot >= 0.9, "{rule:?}: min_dot {}", p.min_dot);
                }
            }
        }
    }

    /// The primal matrix, when accumulated, has trace 1 and matches the
    /// reported constraint dots.
    #[test]
    fn primal_matrix_consistent_with_dots() {
        let inst = diag_instance(&[&[2.0, 3.0]]);
        let mut opts = DecisionOptions::practical(0.2);
        opts.early_exit = false;
        opts.mode = ConstantsMode::Practical { alpha_boost: 16.0, max_iters: 40 };
        let res = decision_psdp(&inst, &opts).unwrap();
        if let Outcome::Primal(p) = res.outcome {
            if p.rounds_averaged > 1 {
                let y = p.y.expect("dense Y accumulated");
                assert!((y.trace() - 1.0).abs() < 1e-9);
                let want = inst.mats()[0].dot_dense(&y);
                assert!(
                    (want - p.constraint_dots[0]).abs() < 1e-6,
                    "{want} vs {}",
                    p.constraint_dots[0]
                );
            }
        }
    }
}
