//! Numerical certification of solutions.
//!
//! Every solution the solver returns can be re-checked against the instance
//! with exact (eigensolver-backed) linear algebra, independent of which
//! engine or constants mode produced it. The experiments report these
//! certificates, so a buggy fast path cannot silently inflate results.

use crate::instance::{MixedInstance, PackingInstance};
use crate::solution::{DualSolution, MixedCertificate, MixedFeasible, PrimalSolution};
use psdp_linalg::{sym_eigenvalues, vecops};

/// Result of checking a dual (packing) solution.
#[derive(Debug, Clone, Copy)]
pub struct DualCertificate {
    /// Measured `λmax(Σ xᵢAᵢ)`; feasible iff `≤ 1` (up to `tol`).
    pub lambda_max: f64,
    /// The packing value `1ᵀx`.
    pub value: f64,
    /// Whether the solution passes at the requested tolerance.
    pub feasible: bool,
}

/// Result of checking a primal (covering) solution.
#[derive(Debug, Clone, Copy)]
pub struct PrimalCertificate {
    /// `Tr Y` (should be 1). `NaN` when no dense `Y` was accumulated.
    pub trace: f64,
    /// Measured `minᵢ Aᵢ • Y` (from the dense `Y` if present, otherwise the
    /// solver's reported averages).
    pub min_dot: f64,
    /// Smallest eigenvalue of `Y` (PSD check); `NaN` without a dense `Y`.
    pub lambda_min: f64,
    /// Whether the matrix itself was checked (vs engine-reported averages).
    pub matrix_checked: bool,
    /// Whether the solution passes at the requested tolerance.
    pub feasible: bool,
}

/// Certify a dual solution: `x ≥ 0`, `λmax(Σ xᵢAᵢ) ≤ 1 + tol`.
pub fn verify_dual(inst: &PackingInstance, sol: &DualSolution, tol: f64) -> DualCertificate {
    let nonneg = sol.x.iter().all(|&v| v >= -tol);
    let psi = inst.weighted_sum(&sol.x);
    let lambda_max = match sym_eigenvalues(&psi) {
        Ok(values) => values[values.len() - 1],
        Err(_) => f64::INFINITY,
    };
    let value = vecops::sum(&sol.x);
    DualCertificate { lambda_max, value, feasible: nonneg && lambda_max <= 1.0 + tol }
}

/// Certify a primal solution: `Tr Y = 1`, `Y ⪰ 0`, `Aᵢ • Y ≥ 1 − tol`.
///
/// When the dense `Y` is available the dots are recomputed from it;
/// otherwise the solver-reported averages are used and
/// `matrix_checked = false` records the weaker evidence.
pub fn verify_primal(inst: &PackingInstance, sol: &PrimalSolution, tol: f64) -> PrimalCertificate {
    match &sol.y {
        Some(y) => {
            let trace = y.trace();
            let lambda_min = match sym_eigenvalues(y) {
                Ok(values) => values[0],
                Err(_) => f64::NEG_INFINITY,
            };
            let min_dot = inst.mats().iter().map(|a| a.dot_dense(y)).fold(f64::INFINITY, f64::min);
            let feasible = (trace - 1.0).abs() <= tol && lambda_min >= -tol && min_dot >= 1.0 - tol;
            PrimalCertificate { trace, min_dot, lambda_min, matrix_checked: true, feasible }
        }
        None => {
            let min_dot = sol.min_dot;
            PrimalCertificate {
                trace: f64::NAN,
                min_dot,
                lambda_min: f64::NAN,
                matrix_checked: false,
                feasible: min_dot >= 1.0 - tol,
            }
        }
    }
}

/// Result of checking a mixed feasible point against a
/// [`MixedInstance`] at coverage threshold `sigma`.
#[derive(Debug, Clone, Copy)]
pub struct MixedFeasibleCertificate {
    /// Measured `λmax(Σ xᵢPᵢ)`; packing-feasible iff `≤ 1` (up to `tol`).
    pub pack_lambda_max: f64,
    /// Measured `λmin(Σ xᵢCᵢ)`; covers threshold `sigma` iff
    /// `≥ sigma·(1 − tol)`.
    pub cover_lambda_min: f64,
    /// Whether the point passes both sides at the requested tolerance.
    pub feasible: bool,
}

/// Result of checking a mixed infeasibility certificate.
#[derive(Debug, Clone, Copy)]
pub struct MixedInfeasibleCertificate {
    /// Re-measured pricing margin `minₖ σ·(Pₖ•Y_P)/(Cₖ•Y_C)` (from the
    /// dense weight matrices when both are present, otherwise from the
    /// solver-reported dots).
    pub margin: f64,
    /// The coverage threshold the certificate proves unreachable:
    /// `σ* ≤ σ/margin`.
    pub refuted_threshold: f64,
    /// Whether **both** weight matrices were re-checked (trace 1, PSD,
    /// dots recomputed). Sides without a materialized matrix fall back
    /// to the solver-reported dot products (each side is re-measured
    /// independently whenever its matrix is present).
    pub matrix_checked: bool,
    /// Whether the certificate is valid at the requested tolerance:
    /// margin `> 1` and every present weight matrix is trace-1 PSD.
    pub valid: bool,
}

/// Certify a mixed feasible point: `x ≥ 0`, `λmax(Σ xᵢPᵢ) ≤ 1 + tol`,
/// `λmin(Σ xᵢCᵢ) ≥ sigma·(1 − tol)`. Both aggregates are rebuilt from the
/// instance and measured with the exact eigensolver — the certificate is
/// independent of whichever engine produced `sol`.
pub fn verify_mixed_feasible(
    inst: &MixedInstance,
    sol: &MixedFeasible,
    sigma: f64,
    tol: f64,
) -> MixedFeasibleCertificate {
    let nonneg = sol.x.iter().all(|&v| v >= -tol);
    let psi_p = inst.pack().weighted_sum(&sol.x);
    let pack_lambda_max =
        sym_eigenvalues(&psi_p).ok().and_then(|v| v.last().copied()).unwrap_or(f64::INFINITY);
    let psi_c = inst.cover().weighted_sum(&sol.x);
    let cover_lambda_min =
        sym_eigenvalues(&psi_c).ok().and_then(|v| v.first().copied()).unwrap_or(f64::NEG_INFINITY);
    let feasible =
        nonneg && pack_lambda_max <= 1.0 + tol && cover_lambda_min >= sigma * (1.0 - tol);
    MixedFeasibleCertificate { pack_lambda_max, cover_lambda_min, feasible }
}

/// Certify a mixed infeasibility certificate (see
/// [`MixedCertificate`] for the pricing argument). Each weight matrix is
/// verified independently when present — checked to be trace-1 PSD with
/// its dot products recomputed from the instance — so a sketched packing
/// engine (`y_pack = None`) still gets its covering side re-measured
/// (the covering weights are always materialized). `matrix_checked` is
/// `true` only when *both* sides were re-measured; sides without a
/// matrix fall back to the solver-reported dots. The pricing minimum
/// runs over the certificate's active mask — with Lemma-2.2 pruning in
/// play the certificate refutes the *restricted* instance, and the
/// bisection adds the pruned coordinates' certified coverage slack on
/// top.
pub fn verify_mixed_infeasible(
    inst: &MixedInstance,
    cert: &MixedCertificate,
    tol: f64,
) -> MixedInfeasibleCertificate {
    let sigma = cert.sigma;
    let weight_ok = |y: &psdp_linalg::Mat| {
        (y.trace() - 1.0).abs() <= tol
            && sym_eigenvalues(y).ok().and_then(|v| v.first().copied()).is_some_and(|l| l >= -tol)
    };
    let (pack_dots, pack_checked, pack_ok) = match &cert.y_pack {
        Some(yp) => (
            inst.pack().mats().iter().map(|a| a.dot_dense(yp)).collect::<Vec<f64>>(),
            true,
            weight_ok(yp),
        ),
        None => (cert.pack_dots.clone(), false, true),
    };
    let (cover_dots, cover_checked, cover_ok) = match &cert.y_cover {
        Some(yc) => (
            inst.cover().mats().iter().map(|a| a.dot_dense(yc)).collect::<Vec<f64>>(),
            true,
            weight_ok(yc),
        ),
        None => (cert.cover_dots.clone(), false, true),
    };
    let matrix_checked = pack_checked && cover_checked;
    let matrices_ok = pack_ok && cover_ok;
    let is_active = |k: usize| cert.active.get(k).copied().unwrap_or(true);
    let mut counted = 0usize;
    let margin = pack_dots
        .iter()
        .zip(&cover_dots)
        .enumerate()
        .filter(|&(k, _)| is_active(k))
        .map(|(_, (&p, &c))| {
            counted += 1;
            if c > 0.0 {
                sigma * p / c
            } else {
                f64::INFINITY
            }
        })
        .fold(f64::INFINITY, f64::min);
    // Reject vacuous certificates outright: the pricing minimum must have
    // actually run over every coordinate (short dot vectors would silently
    // truncate the zip) and priced at least one active one. An *infinite*
    // margin (every active covering value 0, so λmin(Σ xC) ≤ 0) is only
    // meaningful when backed by a re-measured trace-1 PSD `Y_C` — from
    // reported numbers alone it is indistinguishable from garbage.
    let structurally_ok = counted > 0
        && pack_dots.len() == inst.pack().n()
        && cover_dots.len() == inst.cover().n()
        && (margin.is_finite() || cover_checked);
    MixedInfeasibleCertificate {
        margin,
        refuted_threshold: sigma / margin.max(1e-300),
        matrix_checked,
        valid: matrices_ok && structurally_ok && margin > 1.0 + tol,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::decision_psdp;
    use crate::options::DecisionOptions;
    use crate::solution::Outcome;
    use psdp_linalg::Mat;
    use psdp_sparse::PsdMatrix;

    fn inst2() -> PackingInstance {
        PackingInstance::new(vec![
            PsdMatrix::Diagonal(vec![1.0, 0.0]),
            PsdMatrix::Diagonal(vec![0.0, 1.0]),
        ])
        .unwrap()
    }

    #[test]
    fn verifies_known_feasible_dual() {
        let inst = inst2();
        let sol = DualSolution { x: vec![0.9, 0.8], value: 1.7, feasibility_scale: 1.0 };
        let c = verify_dual(&inst, &sol, 1e-9);
        assert!(c.feasible);
        assert!((c.lambda_max - 0.9).abs() < 1e-12);
        assert!((c.value - 1.7).abs() < 1e-12);
    }

    #[test]
    fn rejects_infeasible_dual() {
        let inst = inst2();
        let sol = DualSolution { x: vec![1.5, 0.2], value: 1.7, feasibility_scale: 1.0 };
        let c = verify_dual(&inst, &sol, 1e-9);
        assert!(!c.feasible);
    }

    #[test]
    fn rejects_negative_dual() {
        let inst = inst2();
        let sol = DualSolution { x: vec![-0.5, 0.2], value: -0.3, feasibility_scale: 1.0 };
        assert!(!verify_dual(&inst, &sol, 1e-9).feasible);
    }

    #[test]
    fn verifies_primal_with_matrix() {
        let inst = PackingInstance::new(vec![PsdMatrix::Diagonal(vec![2.0, 2.0])]).unwrap();
        let y = Mat::from_diag(&[0.5, 0.5]);
        let sol = PrimalSolution {
            constraint_dots: vec![2.0],
            y: Some(y),
            min_dot: 2.0,
            rounds_averaged: 1,
        };
        let c = verify_primal(&inst, &sol, 1e-9);
        assert!(c.feasible);
        assert!(c.matrix_checked);
        assert!((c.trace - 1.0).abs() < 1e-12);
        assert!((c.min_dot - 2.0).abs() < 1e-12);
    }

    #[test]
    fn primal_without_matrix_uses_reported_dots() {
        let inst = inst2();
        let sol = PrimalSolution {
            constraint_dots: vec![1.2, 1.1],
            y: None,
            min_dot: 1.1,
            rounds_averaged: 5,
        };
        let c = verify_primal(&inst, &sol, 1e-6);
        assert!(c.feasible);
        assert!(!c.matrix_checked);
        assert!(c.trace.is_nan());
    }

    #[test]
    fn mixed_feasible_verification_both_sides() {
        // P = diag(2, 2), C = diag(1, 3): x = 0.4 has λmax(ΣxP) = 0.8,
        // λmin(ΣxC) = 0.4.
        let inst = MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 3.0])],
        )
        .unwrap();
        let sol = MixedFeasible { x: vec![0.4], pack_lambda_max: 0.8, cover_lambda_min: 0.4 };
        let c = verify_mixed_feasible(&inst, &sol, 0.4, 1e-9);
        assert!(c.feasible);
        assert!((c.pack_lambda_max - 0.8).abs() < 1e-12);
        assert!((c.cover_lambda_min - 0.4).abs() < 1e-12);
        // Asking for more coverage than the point delivers must fail.
        assert!(!verify_mixed_feasible(&inst, &sol, 0.6, 1e-9).feasible);
        // Packing violations must fail too.
        let bad = MixedFeasible { x: vec![0.6], pack_lambda_max: 1.2, cover_lambda_min: 0.6 };
        assert!(!verify_mixed_feasible(&inst, &bad, 0.1, 1e-9).feasible);
    }

    #[test]
    fn mixed_infeasible_verification_margin() {
        // P = diag(2, 2), C = diag(1, 1): σ* = 1/2. At σ = 2 the uniform
        // weight pair prices every coordinate out with margin σ·2/1 = 4.
        let inst = MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 1.0])],
        )
        .unwrap();
        let half = Mat::from_diag(&[0.5, 0.5]);
        let cert = MixedCertificate {
            sigma: 2.0,
            y_pack: Some(half.clone()),
            y_cover: Some(half),
            pack_dots: vec![2.0],
            cover_dots: vec![1.0],
            active: vec![true],
            margin: 4.0,
        };
        let v = verify_mixed_infeasible(&inst, &cert, 1e-9);
        assert!(v.valid);
        assert!(v.matrix_checked);
        assert!((v.margin - 4.0).abs() < 1e-12);
        // The refuted threshold bounds the true optimum σ* = 1/2.
        assert!((v.refuted_threshold - 0.5).abs() < 1e-12);

        // A non-trace-1 weight matrix invalidates the certificate.
        let bad = MixedCertificate { y_pack: Some(Mat::from_diag(&[0.5, 0.9])), ..cert.clone() };
        assert!(!verify_mixed_infeasible(&inst, &bad, 1e-9).valid);
    }

    #[test]
    fn mixed_infeasible_rejects_vacuous_certificates() {
        let inst = MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 1.0])],
        )
        .unwrap();
        // All-inactive mask: nothing was priced — not a proof of anything.
        let vacuous = MixedCertificate {
            sigma: 1.0,
            y_pack: None,
            y_cover: None,
            pack_dots: vec![2.0],
            cover_dots: vec![1.0],
            active: vec![false],
            margin: 2.0,
        };
        assert!(!verify_mixed_infeasible(&inst, &vacuous, 1e-9).valid);
        // Truncated dot vectors silently shorten the zip: reject.
        let truncated = MixedCertificate {
            pack_dots: vec![],
            cover_dots: vec![],
            active: vec![true],
            ..vacuous.clone()
        };
        assert!(!verify_mixed_infeasible(&inst, &truncated, 1e-9).valid);
        // An infinite margin from *reported* numbers alone is untrusted…
        let unbacked = MixedCertificate {
            cover_dots: vec![0.0],
            active: vec![true],
            margin: f64::INFINITY,
            ..vacuous.clone()
        };
        assert!(!verify_mixed_infeasible(&inst, &unbacked, 1e-9).valid);
        // …but becomes acceptable when a re-measured Y_C backs it. (Here
        // C•Y_C = 1 ≠ 0, so the margin is finite after re-measurement and
        // the certificate is judged on the re-measured numbers.)
        let backed = MixedCertificate { y_cover: Some(Mat::from_diag(&[0.5, 0.5])), ..unbacked };
        let v = verify_mixed_infeasible(&inst, &backed, 1e-9);
        assert!(v.margin.is_finite(), "re-measured cover dots must replace the reported zeros");
    }

    #[test]
    fn mixed_infeasible_cover_side_checked_without_pack_matrix() {
        // Sketched packing engines leave y_pack = None; the covering
        // matrix must still be independently re-measured.
        let inst = MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 1.0])],
        )
        .unwrap();
        let half = Mat::from_diag(&[0.5, 0.5]);
        let cert = MixedCertificate {
            sigma: 2.0,
            y_pack: None,
            y_cover: Some(half),
            pack_dots: vec![2.0],
            // Inflated reported cover value: the re-measurement from
            // y_cover (C•Y = 1.0) must override it.
            cover_dots: vec![100.0],
            active: vec![true],
            margin: 4.0,
        };
        let v = verify_mixed_infeasible(&inst, &cert, 1e-9);
        assert!(!v.matrix_checked, "only one side had a matrix");
        assert!((v.margin - 4.0).abs() < 1e-12, "cover side not re-measured: {v:?}");
        // A broken covering weight matrix invalidates the certificate
        // even without a packing matrix.
        let bad = MixedCertificate { y_cover: Some(Mat::from_diag(&[0.5, 0.9])), ..cert };
        assert!(!verify_mixed_infeasible(&inst, &bad, 1e-9).valid);
    }

    #[test]
    fn solver_outputs_pass_verification() {
        // End-to-end: whatever side the solver certifies must verify.
        let insts = [
            inst2(),
            PackingInstance::new(vec![PsdMatrix::Diagonal(vec![3.0, 3.0, 3.0])]).unwrap(),
        ];
        for inst in &insts {
            let res = decision_psdp(inst, &DecisionOptions::practical(0.2)).unwrap();
            match res.outcome {
                Outcome::Dual(d) => {
                    assert!(verify_dual(inst, &d, 1e-8).feasible, "dual failed verify");
                }
                Outcome::Primal(p) => {
                    assert!(verify_primal(inst, &p, 1e-6).feasible, "primal failed verify: {p:?}");
                }
            }
        }
    }
}
