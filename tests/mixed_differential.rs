//! Differential testing of the mixed packing–covering SDP solver against
//! two independent oracles on diagonal embeddings:
//!
//! * **exact simplex** (`psdp_baselines::mixed_exact_threshold`) — the
//!   ground-truth threshold `t* = max{t : Px ≤ 1, Cx ≥ t·1}`; the mixed
//!   solver's certified bracket must contain it (its bounds are explicit
//!   witnesses, so a violation is a soundness bug, not slack),
//! * **the scalar Young solver** (`psdp_baselines::mixed_packing_covering`)
//!   — an independent width-independent implementation; verdicts at
//!   threshold 1 must agree wherever `t*` is comfortably away from 1,
//! * **the packing optimizer** (`psdp_core::solve_packing`) — packing is
//!   the mixed problem with a 1×1 covering side `Cᵢ = [1]`, so on random
//!   factorized, LP-diagonal and graph instances the packing bracket and
//!   the scalar-cover mixed bracket must overlap, each end re-verified.
//!
//! Every property is exercised at rayon pool sizes {1, 4} and the two
//! runs are compared **bitwise** — the mixed loop's reductions are
//! deterministic in shape, so thread count must not change a single bit
//! of the report (`tests/determinism.rs` holds the packing side to the
//! same bar, and CI runs the whole suite under a two-entry
//! `RAYON_NUM_THREADS` matrix).

use proptest::prelude::*;
use psdp_baselines::{mixed_packing_covering, MixedOutcome as LpOutcome};
use psdp_core::{
    solve_mixed, solve_packing, verify_dual, verify_mixed_feasible, verify_mixed_infeasible,
    verify_primal, ApproxOptions, MixedApproxOptions, MixedInstance, MixedOutcome, MixedSolver,
    PackingInstance,
};
use psdp_parallel::run_with_threads;
use psdp_sparse::PsdMatrix;
use psdp_test_support::{
    arb_mixed_diagonal, diag_lp_with_columns, factorized_instance, mixed_diagonal_case,
    FactorizedSpec, MixedDiagonal,
};
use psdp_workloads::{edge_packing_sparse, gnp};

/// Run the certified bisection at both pool sizes, assert the reports are
/// bitwise identical, and return one of them.
fn bisect_both_pools(case: &MixedDiagonal) -> psdp_core::MixedReport {
    let opts = MixedApproxOptions::practical(0.1);
    let r1 = run_with_threads(1, || solve_mixed(&case.inst, &opts).expect("solve"));
    let r4 = run_with_threads(4, || solve_mixed(&case.inst, &opts).expect("solve"));
    assert_eq!(r1.threshold_lower.to_bits(), r4.threshold_lower.to_bits(), "pool-dependent lo");
    assert_eq!(r1.threshold_upper.to_bits(), r4.threshold_upper.to_bits(), "pool-dependent hi");
    assert_eq!(r1.decision_calls, r4.decision_calls);
    assert_eq!(r1.total_iterations, r4.total_iterations);
    r1
}

/// Soundness of the certified bracket against exact simplex: the bracket
/// bounds are explicit re-verified witnesses, so `lo ≤ t* ≤ hi` must hold
/// up to floating-point noise regardless of convergence.
fn assert_bracket_sound(case: &MixedDiagonal, r: &psdp_core::MixedReport) {
    let ts = case.tstar;
    assert!(
        r.threshold_lower <= ts * (1.0 + 1e-6) + 1e-9,
        "certified lower bound {} exceeds exact t* = {ts}",
        r.threshold_lower
    );
    assert!(
        r.threshold_upper >= ts * (1.0 - 1e-6) - 1e-9,
        "certified upper bound {} undercuts exact t* = {ts}",
        r.threshold_upper
    );
    if let Some(p) = &r.best_point {
        let cert = verify_mixed_feasible(&case.inst, p, r.threshold_lower * (1.0 - 1e-9), 1e-7);
        assert!(cert.feasible, "lower-bound witness failed verify: {cert:?}");
    }
    if let Some(w) = &r.infeasibility_witness {
        let cert = verify_mixed_infeasible(&case.inst, w, 1e-7);
        assert!(cert.valid, "upper-bound witness failed verify: {cert:?}");
        assert!(
            cert.refuted_threshold >= ts * (1.0 - 1e-6) - 1e-9,
            "witness refutes {} below exact t* = {ts}",
            cert.refuted_threshold
        );
    }
}

/// Feasibility verdicts at threshold 1, ours vs the scalar Young solver,
/// with the wide margins both approximate solvers guarantee (their ε-slack
/// lives inside `(0.7, 1.4)`).
fn assert_verdicts_agree(case: &MixedDiagonal) {
    let ts = case.tstar;
    let solver = MixedSolver::builder(&case.inst)
        .options(MixedApproxOptions::practical(0.1).decision)
        .build()
        .expect("build");
    let ours = solver.session().solve(1.0).expect("decision");
    let lp = mixed_packing_covering(&case.pack_cols, &case.cover_cols, 0.1, 400_000);

    match &ours.outcome {
        MixedOutcome::Infeasible(c) => {
            // Our infeasibility certificate is unconditional: t* ≤ 1/margin.
            let v = verify_mixed_infeasible(&case.inst, c, 1e-7);
            assert!(v.valid, "σ=1 certificate failed verify: {v:?}");
            assert!(ts <= v.refuted_threshold * (1.0 + 1e-6), "refuted t* = {ts} incorrectly");
            assert!(ts < 1.4, "declared infeasible at σ=1 but t* = {ts}");
        }
        MixedOutcome::Feasible(f) => {
            // Measured coverage is a certified lower bound on t*.
            assert!(
                f.cover_lambda_min <= ts * (1.0 + 1e-6) + 1e-9,
                "measured coverage {} exceeds exact t* = {ts}",
                f.cover_lambda_min
            );
            if ts >= 1.4 {
                assert!(
                    f.cover_lambda_min >= 1.0 - 0.4,
                    "weak coverage {} on comfortably feasible t* = {ts}",
                    f.cover_lambda_min
                );
            }
        }
    }

    // Two-sided agreement at comfortable margins.
    if ts >= 1.4 {
        assert!(
            matches!(lp.outcome, LpOutcome::Feasible { .. }),
            "scalar solver declared infeasible at t* = {ts}"
        );
        assert!(
            !matches!(ours.outcome, MixedOutcome::Infeasible(_)),
            "mixed SDP solver declared infeasible at t* = {ts}"
        );
    }
    if ts <= 0.7 {
        assert!(
            matches!(lp.outcome, LpOutcome::Infeasible { .. }),
            "scalar solver declared feasible at t* = {ts}"
        );
        assert!(
            matches!(ours.outcome, MixedOutcome::Infeasible(_)),
            "mixed SDP solver failed to certify infeasibility at t* = {ts}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random diagonal mixed instances: certified bracket contains the
    /// exact simplex threshold, bitwise across pool sizes {1, 4}.
    #[test]
    fn bracket_contains_simplex_threshold(case in arb_mixed_diagonal()) {
        let r = bisect_both_pools(&case);
        assert_bracket_sound(&case, &r);
    }

    /// Random diagonal mixed instances: σ=1 feasibility verdicts agree
    /// with the scalar Young solver at comfortable margins, and every
    /// verdict's certificate is sound against exact simplex.
    #[test]
    fn verdicts_agree_with_scalar_solver(case in arb_mixed_diagonal()) {
        assert_verdicts_agree(&case);
    }
}

/// A fixed regression set (one comfortably feasible, one comfortably
/// infeasible, one near-critical) so the differential property also runs
/// deterministically without proptest's sampling.
#[test]
fn fixed_cases_regression() {
    for seed in [1u64, 7, 23, 40] {
        let case = mixed_diagonal_case(5, 3, 4, 0.6, seed);
        if !case.tstar.is_finite() {
            continue;
        }
        let r = bisect_both_pools(&case);
        assert_bracket_sound(&case, &r);
        assert_verdicts_agree(&case);
    }
}

/// Packing `optimize` and mixed `optimize` on the same constraints, the
/// mixed instance covering with `Cᵢ = [1]` (so its threshold is `1ᵀx` and
/// `σ* = OPT`): both brackets are bitwise across pools {1, 4}, every end
/// they report re-verifies, and the two certified brackets overlap.
fn assert_packing_matches_scalar_cover(inst: &PackingInstance, eps: f64) {
    let cover = vec![PsdMatrix::Diagonal(vec![1.0]); inst.n()];
    let mixed = MixedInstance::new(inst.mats().to_vec(), cover).expect("scalar cover");
    let (popts, mopts) = (ApproxOptions::practical(eps), MixedApproxOptions::practical(eps));
    let p = run_with_threads(1, || solve_packing(inst, &popts).expect("packing"));
    let p4 = run_with_threads(4, || solve_packing(inst, &popts).expect("packing"));
    let m = run_with_threads(1, || solve_mixed(&mixed, &mopts).expect("mixed"));
    let m4 = run_with_threads(4, || solve_mixed(&mixed, &mopts).expect("mixed"));
    let bits = |lo: f64, hi: f64| (lo.to_bits(), hi.to_bits());
    assert_eq!(bits(p.value_lower, p.value_upper), bits(p4.value_lower, p4.value_upper));
    assert_eq!(
        bits(m.threshold_lower, m.threshold_upper),
        bits(m4.threshold_lower, m4.threshold_upper)
    );
    let (plo, phi, mlo, mhi) = (p.value_lower, p.value_upper, m.threshold_lower, m.threshold_upper);
    let below = |a: f64, b: f64| a <= b * (1.0 + 1e-6) + 1e-9;
    assert!(below(plo, mhi) && below(mlo, phi), "packing [{plo}, {phi}] vs mixed [{mlo}, {mhi}]");

    // Lower ends: a feasible dual and a feasible point, each reaching its bound.
    let d = p.best_dual.as_ref().expect("packing dual");
    let c = verify_dual(inst, d, 1e-7);
    assert!(c.feasible && c.value >= plo * (1.0 - 1e-9), "packing lower end: {c:?} vs {plo}");
    let point = m.best_point.as_ref().expect("mixed point");
    let c = verify_mixed_feasible(&mixed, point, mlo * (1.0 - 1e-9), 1e-7);
    assert!(c.feasible, "mixed lower end: {c:?}");

    // Upper witnesses: each is a valid certificate whose bound on OPT
    // sits above both lower ends.
    if let Some((sigma, w)) = &p.upper_witness {
        let c = verify_primal(inst, w, 1e-7);
        let bound = if c.matrix_checked {
            assert!((c.trace - 1.0).abs() <= 1e-7 && c.lambda_min >= -1e-7, "{c:?}");
            1.0 / c.min_dot
        } else {
            sigma / w.min_dot
        };
        assert!(below(plo, bound) && below(mlo, bound), "packing witness bounds OPT by {bound}");
    }
    if let Some(w) = &m.infeasibility_witness {
        let c = verify_mixed_infeasible(&mixed, w, 1e-7);
        let bound = c.refuted_threshold;
        assert!(c.valid && below(plo, bound) && below(mlo, bound), "mixed witness: {c:?}");
    }
}

/// ROADMAP's packing/mixed question on small fixtures: random factorized,
/// LP-diagonal and graph (sparse edge Laplacian) instances at ε 0.1 and
/// 0.2.
#[test]
fn packing_and_scalar_cover_mixed_brackets_overlap() {
    let fixtures = [
        factorized_instance(&FactorizedSpec::new(8, 6, 1).with_scale(1.0)),
        factorized_instance(&FactorizedSpec::new(6, 5, 2)),
        diag_lp_with_columns(6, 5, 0.5, 3).0,
        PackingInstance::new(edge_packing_sparse(&gnp(7, 0.5, 4))).expect("graph"),
    ];
    for inst in &fixtures {
        for eps in [0.1, 0.2] {
            assert_packing_matches_scalar_cover(inst, eps);
        }
    }
}
