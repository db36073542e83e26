//! `approxPSDP` — the `(1+ε)`-approximate optimizer (Theorem 1.1).
//!
//! Lemma 2.2 reduces optimization to `O(log n)` calls of the ε-decision
//! problem via scaling + binary search. For the packing program
//! `OPT = max 1ᵀx` s.t. `Σ xᵢAᵢ ⪯ I`, testing "`OPT ≥ σ`?" is the decision
//! problem on the scaled matrices `σAᵢ` (substituting `x' = x/σ` maps one
//! feasible region onto the other).
//!
//! Bracketing uses the structural bounds
//! `maxᵢ 1/λmax(Aᵢ) ≤ OPT ≤ Σᵢ 1/λmax(Aᵢ)` (each `xᵢ ≤ 1/λmax(Aᵢ)` for any
//! feasible point, and any single coordinate at its cap is feasible), so the
//! initial bracket ratio is at most `n` and geometric bisection needs
//! `O(log(n/ε))` decision calls.
//!
//! Every bracket move is driven by a *certified* quantity: a dual outcome at
//! `σ` yields a feasible original-scale `x` with measured value (new lower
//! bound); a primal outcome yields a covering witness establishing
//! `OPT ≤ σ/min_dot` (new upper bound). Estimate-based initial brackets are
//! therefore self-correcting.
//!
//! The bisection itself is implemented by
//! [`crate::solver::Session::optimize`], which prepares the engine once and
//! warm-starts each bracket from the previous bracket's rescaled iterate
//! (see `crate::solver`); [`solve_packing`] and [`solve_covering`] are kept
//! as one-shot convenience wrappers over that API.

use crate::error::PsdpError;
use crate::instance::{PackingInstance, PositiveSdp};
use crate::normalize::{normalize, Normalized};
use crate::options::DecisionOptions;
use crate::solution::{DualSolution, PrimalSolution};
use crate::solver::Solver;
use crate::stats::{BracketStats, SolveStats};
use psdp_linalg::Mat;

/// Configuration for the optimizer.
#[derive(Debug, Clone, Copy)]
pub struct ApproxOptions {
    /// Target relative accuracy of the returned value bracket.
    pub eps: f64,
    /// Configuration for each decision call (its `eps` is used as-is; pick
    /// something ≤ `eps/4` for the bracket to close).
    pub decision: DecisionOptions,
    /// Cap on decision calls.
    pub max_calls: usize,
    /// Start each bracket after the first with a warm attempt from the
    /// previous bracket's kept iterate, rescaled to the new threshold (see
    /// `crate::solver`; practical constants mode only). The one switch for
    /// warm starts: off, every bracket runs cold. On the tested families
    /// the certified bracket is the same bits either way.
    pub warm_start: bool,
    /// An externally supplied *certified* bracket `(lo, hi)` on OPT for
    /// this exact instance, intersected with the structural bounds before
    /// bisection starts. The caller asserts certification: the serving
    /// layer (`psdp-serve`) passes the bracket a previous `optimize` run on
    /// the same fingerprint certified, so repeat or tightened-accuracy
    /// submissions skip the brackets already resolved. An inconsistent
    /// bracket (empty intersection with the structural bounds) is ignored
    /// rather than trusted. `None` (the default) bisects from the
    /// structural bounds alone. Note: when the injected bracket already
    /// satisfies the accuracy target, the report's bounds come from the
    /// bracket and `best_dual` may be `None` — witnesses live with whoever
    /// certified the bracket.
    pub initial_bracket: Option<(f64, f64)>,
}

impl ApproxOptions {
    /// Default practical configuration at accuracy `eps`.
    pub fn practical(eps: f64) -> Self {
        ApproxOptions {
            eps,
            decision: DecisionOptions::practical(eps / 4.0),
            max_calls: 60,
            warm_start: true,
            initial_bracket: None,
        }
    }

    /// Serving configuration: like [`ApproxOptions::practical`] but with
    /// dense-`Y` accumulation disabled, so no decision call pays for the
    /// `m×m` primal average (experiment E11's configuration). Use when only
    /// the value bracket and the dual certificate are needed.
    pub fn serving(eps: f64) -> Self {
        let mut o = ApproxOptions::practical(eps);
        o.decision.primal_matrix_dim_limit = 0;
        o
    }
}

/// Result of optimizing a packing instance.
#[derive(Debug, Clone)]
pub struct PackingReport {
    /// Certified lower bound on OPT (value of `best_dual`).
    pub value_lower: f64,
    /// Certified upper bound on OPT.
    pub value_upper: f64,
    /// The best feasible dual found, in original scale.
    pub best_dual: Option<DualSolution>,
    /// A primal witness for the upper bound: `(σ, solution)` where the
    /// covering matrix `Z = σ·Y/min_dot` certifies `OPT ≤ σ/min_dot`.
    pub upper_witness: Option<(f64, PrimalSolution)>,
    /// Number of decision calls made.
    pub decision_calls: usize,
    /// Total inner iterations across all calls.
    pub total_iterations: usize,
    /// Whether the bracket closed to `(1+eps)`.
    pub converged: bool,
    /// Largest number of constraints trace-pruned (Lemma 2.2) in any single
    /// decision call (0 = pruning never triggered).
    pub pruned_max: usize,
    /// Per-call solver stats (the *accepted* solve of each bracket;
    /// discarded warm/escalation attempts contribute to
    /// [`PackingReport::total_iterations`], [`PackingReport::total_engine_evals`],
    /// and the per-bracket [`BracketStats`] totals instead).
    pub call_stats: Vec<SolveStats>,
    /// Per-bracket breakdown: the tested `σ`, certified side, bracket after
    /// the move, and the warm-start savings of each call.
    pub brackets: Vec<BracketStats>,
    /// Total live engine evaluations across all solves, **including**
    /// discarded warm attempts and certificate-seeking escalations.
    pub total_engine_evals: usize,
    /// Always 0 and not rendered: nothing is replayed (`crate::solver`).
    /// Kept only because the `perfbench` harness still reads it.
    pub total_replayed: usize,
}

impl PackingReport {
    /// Midpoint estimate of OPT (geometric mean of the bracket).
    pub fn value_estimate(&self) -> f64 {
        (self.value_lower * self.value_upper).sqrt()
    }
}

/// Optimize a normalized packing instance to `(1+ε)` relative accuracy.
///
/// One-shot convenience over [`crate::Solver`] / [`crate::Session`]: the
/// engine is constructed exactly once and every bracket of the bisection
/// reuses it (and continues from the previous bracket's iterate when
/// [`ApproxOptions::warm_start`] is on).
///
/// ```
/// use psdp_core::{solve_packing, ApproxOptions, PackingInstance};
/// use psdp_sparse::PsdMatrix;
///
/// // max x₁+x₂ s.t. x₁·diag(2,0) + x₂·diag(0,4) ⪯ I:  OPT = 1/2 + 1/4.
/// let inst = PackingInstance::new(vec![
///     PsdMatrix::Diagonal(vec![2.0, 0.0]),
///     PsdMatrix::Diagonal(vec![0.0, 4.0]),
/// ])?;
/// let r = solve_packing(&inst, &ApproxOptions::practical(0.1))?;
/// assert!(r.converged);
/// assert!(r.value_lower <= 0.75 && 0.75 <= r.value_upper);
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
///
/// # Errors
/// Instance/option validation or linear-algebra failures. A bracket that
/// fails to close within `max_calls` is **not** an error — the report
/// carries `converged = false` with the certified bracket reached.
pub fn solve_packing(
    inst: &PackingInstance,
    opts: &ApproxOptions,
) -> Result<PackingReport, PsdpError> {
    let solver = Solver::builder(inst).options(opts.decision).build()?;
    // `optimize` consults `opts.warm_start` itself; a fresh session's own
    // flag defaults to on.
    solver.session().optimize(opts)
}

/// Result of optimizing a general covering positive SDP (1.1).
#[derive(Debug, Clone)]
pub struct CoveringReport {
    /// Certified bracket on the optimum `C • Y` (equal to the packing
    /// optimum by strong duality, which the paper assumes).
    pub value_lower: f64,
    /// Upper end of the bracket.
    pub value_upper: f64,
    /// A feasible primal `Y` achieving `C•Y = value_upper` (when a primal
    /// witness with a dense matrix was produced).
    pub y: Option<Mat>,
    /// Original-scale dual multipliers `λ` (feasible for the dual of (1.1)).
    pub lambda: Vec<f64>,
    /// The underlying packing report on the normalized instance.
    pub packing: PackingReport,
    /// Normalization bookkeeping (dropped constraints etc.).
    pub normalized: Normalized,
}

/// Optimize a general positive SDP via Appendix-A normalization +
/// [`solve_packing`].
///
/// # Errors
/// Validation, normalization, or solver failures.
pub fn solve_covering(
    sdp: &PositiveSdp,
    opts: &ApproxOptions,
) -> Result<CoveringReport, PsdpError> {
    let nz = normalize(sdp)?;
    let packing = solve_packing(&nz.instance, opts)?;

    // Primal back-map: Z = σ·Y/min_dot is covering-feasible for the
    // normalized program with Tr Z = σ/min_dot = value_upper.
    let y = packing.upper_witness.as_ref().and_then(|(sigma, p)| {
        p.y.as_ref().map(|ymat| {
            let mut z = ymat.clone();
            z.scale(sigma / p.min_dot.max(1e-12));
            nz.primal_back(&z)
        })
    });

    // Dual back-map: λ_kept = x/b, zeros elsewhere.
    let lambda = match &packing.best_dual {
        Some(d) => nz.dual_back(&d.x, sdp.num_constraints()),
        None => vec![0.0; sdp.num_constraints()],
    };

    Ok(CoveringReport {
        value_lower: packing.value_lower,
        value_upper: packing.value_upper,
        y,
        lambda,
        packing,
        normalized: nz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_sparse::PsdMatrix;

    fn diag(d: &[f64]) -> PsdMatrix {
        PsdMatrix::Diagonal(d.to_vec())
    }

    /// Single constraint: OPT = 1/λmax(A) exactly.
    #[test]
    fn single_constraint_known_optimum() {
        let inst = PackingInstance::new(vec![diag(&[2.0, 0.5])]).unwrap();
        let r = solve_packing(&inst, &ApproxOptions::practical(0.1)).unwrap();
        assert!(r.converged, "bracket [{}, {}]", r.value_lower, r.value_upper);
        // OPT = 1/2.
        assert!(r.value_lower <= 0.5 + 1e-9);
        assert!(r.value_upper >= 0.5 - 1e-9);
        assert!(r.value_upper / r.value_lower <= 1.11);
        let d = r.best_dual.expect("dual found");
        assert!((d.x[0] * 2.0) <= 1.0 + 1e-8, "feasibility");
    }

    /// Orthogonal diagonal constraints: OPT = Σ 1/λmax(Aᵢ).
    #[test]
    fn orthogonal_constraints_sum() {
        let inst = PackingInstance::new(vec![diag(&[2.0, 0.0]), diag(&[0.0, 4.0])]).unwrap();
        let r = solve_packing(&inst, &ApproxOptions::practical(0.1)).unwrap();
        // OPT = 1/2 + 1/4 = 0.75.
        assert!(r.converged);
        assert!(r.value_lower <= 0.75 + 1e-9 && r.value_upper >= 0.75 - 1e-9);
        assert!((r.value_estimate() - 0.75).abs() < 0.08);
    }

    /// Competing constraints on the same coordinate: OPT set by the sum.
    /// A₁ = A₂ = diag(1,1): any x with x₁+x₂ ≤ 1 is feasible, OPT = 1.
    #[test]
    fn shared_direction_caps_sum() {
        let inst = PackingInstance::new(vec![diag(&[1.0, 1.0]), diag(&[1.0, 1.0])]).unwrap();
        let r = solve_packing(&inst, &ApproxOptions::practical(0.1)).unwrap();
        assert!(r.converged);
        assert!((r.value_estimate() - 1.0).abs() < 0.1, "estimate {}", r.value_estimate());
    }

    /// Bracket is always certified: lower by a feasible dual, upper by a
    /// covering witness.
    #[test]
    fn bracket_certificates() {
        let inst = PackingInstance::new(vec![
            diag(&[1.0, 0.3, 0.0]),
            diag(&[0.0, 0.7, 1.0]),
            diag(&[0.5, 0.5, 0.5]),
        ])
        .unwrap();
        let r = solve_packing(&inst, &ApproxOptions::practical(0.15)).unwrap();
        let d = r.best_dual.as_ref().expect("dual");
        let cert = crate::verify::verify_dual(&inst, d, 1e-8);
        assert!(cert.feasible, "λmax {}", cert.lambda_max);
        // The feasible dual certifies the reported lower bound (its value
        // is at least value_lower; quantized bracket moves may report a
        // slightly smaller — still certified — bound than the witness).
        assert!(cert.value >= r.value_lower - 1e-9, "{} < {}", cert.value, r.value_lower);
        assert!(r.decision_calls <= 60);
        // Per-bracket breakdown covers every decision call.
        assert_eq!(r.brackets.len(), r.decision_calls);
    }

    /// Covering wrapper on a diagonal SDP with a known optimum.
    #[test]
    fn covering_diagonal_known() {
        // min C•Y s.t. A•Y ≥ b, all diagonal:
        // C = diag(4,1), A = diag(1,1), b = 2 → OPT = 2 (put mass on j=1).
        let sdp = PositiveSdp {
            objective: diag(&[4.0, 1.0]),
            constraints: vec![diag(&[1.0, 1.0])],
            rhs: vec![2.0],
        };
        let r = solve_covering(&sdp, &ApproxOptions::practical(0.1)).unwrap();
        assert!(
            r.value_lower <= 2.0 + 1e-6 && r.value_upper >= 2.0 - 1e-6,
            "bracket [{}, {}]",
            r.value_lower,
            r.value_upper
        );
        // The primal witness, if materialized, must be covering-feasible
        // and certify a bound inside the reported bracket (the witness may
        // be tighter than the quantized value_upper, never looser).
        if let Some(y) = &r.y {
            let ay = sdp.constraints[0].dot_dense(y);
            assert!(ay >= 2.0 * (1.0 - 1e-6), "A•Y = {ay}");
            let cy = sdp.objective.dot_dense(y);
            assert!(cy <= r.value_upper * (1.0 + 1e-6), "C•Y = {cy} > {}", r.value_upper);
            assert!(cy >= r.value_lower * (1.0 - 1e-6), "C•Y = {cy} < {}", r.value_lower);
        }
        // Dual multipliers feasible: Σ λᵢAᵢ ⪯ C elementwise on the diagonal,
        // i.e. λ₀·1 ≤ C_jj for both j; the binding coordinate is min_j C_jj = 1.
        let c_diag = [4.0, 1.0];
        let bound = c_diag.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(r.lambda[0] <= bound + 1e-9, "λ₀ = {} exceeds {bound}", r.lambda[0]);
    }

    #[test]
    fn rejects_bad_eps() {
        let inst = PackingInstance::new(vec![diag(&[1.0])]).unwrap();
        let mut o = ApproxOptions::practical(0.1);
        o.eps = 0.0;
        assert!(solve_packing(&inst, &o).is_err());
    }

    /// Lemma 2.2 pruning path: an instance with one pathological huge-trace
    /// constraint still brackets the true optimum. With the pathological
    /// coordinate essentially unusable (λmax ≈ trace ≫ 1), OPT is set by the
    /// benign constraints.
    #[test]
    fn pruning_keeps_bracket_valid() {
        let huge = 1e9;
        let inst = PackingInstance::new(vec![
            diag(&[1.0, 0.0, 0.0]),
            diag(&[0.0, 1.0, 0.0]),
            diag(&[huge, huge, huge]),
        ])
        .unwrap();
        // Exact optimum: x₃ ≤ 1/huge ≈ 0, x₁ = x₂ = 1 ⇒ OPT ≈ 2.
        let r = solve_packing(&inst, &ApproxOptions::practical(0.1)).unwrap();
        assert!(r.value_lower <= 2.0 + 1e-6, "lower {}", r.value_lower);
        assert!(r.value_upper >= 2.0 - 1e-6 - 2.0 / huge, "upper {}", r.value_upper);
        assert!(r.converged);
        // The huge constraint must actually have been pruned in some call.
        assert!(r.pruned_max >= 1, "pruning never triggered");
        // And the returned dual keeps it at (near) zero.
        let d = r.best_dual.unwrap();
        assert!(d.x[2] <= 1.0 / huge * 2.0);
    }

    /// `ApproxOptions::warm_start = false` must actually disable warm
    /// starts.
    #[test]
    fn warm_start_option_is_respected() {
        let inst = PackingInstance::new(vec![diag(&[2.0, 0.0]), diag(&[0.0, 4.0])]).unwrap();
        let mut o = ApproxOptions::serving(0.1);
        o.warm_start = false;
        let r = solve_packing(&inst, &o).unwrap();
        assert!(r.call_stats.iter().all(|s| !s.warm_started), "a bracket warm-started");
        assert_eq!(r.total_replayed, 0);
    }

    /// The serving preset disables dense-Y accumulation and returns the
    /// same certified bracket as the practical preset.
    #[test]
    fn serving_matches_practical_bracket() {
        let inst = PackingInstance::new(vec![diag(&[2.0, 0.0]), diag(&[0.0, 4.0])]).unwrap();
        let a = solve_packing(&inst, &ApproxOptions::practical(0.1)).unwrap();
        let b = solve_packing(&inst, &ApproxOptions::serving(0.1)).unwrap();
        assert_eq!(a.value_lower.to_bits(), b.value_lower.to_bits());
        assert_eq!(a.value_upper.to_bits(), b.value_upper.to_bits());
        assert_eq!(a.decision_calls, b.decision_calls);
        assert!(b.call_stats.iter().any(|s| s.warm_started), "serving preset never warm-started");
    }
}
