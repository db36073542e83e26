//! Cross-validation: independent solvers must agree wherever their domains
//! overlap. This is the strongest correctness evidence the reproduction has
//! — four codepaths (matrix MMW solver, scalar Young LP, simplex, geometric
//! n≤2 search) with no shared numerics.

use psdp_baselines::{
    ak_decision, exact_commuting_opt, exact_diagonal_opt, exact_small_opt, young_packing_lp,
    AkOutcome,
};
use psdp_core::{
    decision_psdp, solve_packing, ApproxOptions, DecisionOptions, Outcome, PackingInstance,
};
use psdp_test_support::diag_lp_with_columns;
use psdp_workloads::commuting_family;

/// SDP solver vs simplex vs Young LP on random diagonal instances.
#[test]
fn diagonal_three_way_agreement() {
    for seed in 1..=5u64 {
        let (inst, cols) = diag_lp_with_columns(8, 6, 0.6, seed);

        let exact = exact_diagonal_opt(&inst).unwrap();
        let eps = 0.1;
        let sdp = solve_packing(&inst, &ApproxOptions::practical(eps)).unwrap();
        let lp = young_packing_lp(&cols, eps, 400_000);

        assert!(
            sdp.value_lower <= exact * (1.0 + 1e-9) && sdp.value_upper >= exact * (1.0 - 1e-9),
            "seed {seed}: SDP bracket [{}, {}] misses exact {exact}",
            sdp.value_lower,
            sdp.value_upper
        );
        assert!(
            lp.value >= exact * (1.0 - 3.0 * eps) && lp.value <= exact * (1.0 + 1e-9),
            "seed {seed}: Young LP {} vs exact {exact}",
            lp.value
        );
    }
}

/// SDP solver vs the eigenbasis LP on commuting families.
#[test]
fn commuting_families_match_eigenvalue_lp() {
    for seed in [3u64, 7, 11] {
        let fam = commuting_family(7, 4, 0.25, seed);
        let inst = PackingInstance::new(fam.mats.clone()).unwrap();
        let exact = exact_commuting_opt(&inst, &fam.u).unwrap();
        let r = solve_packing(&inst, &ApproxOptions::practical(0.1)).unwrap();
        assert!(
            r.value_lower <= exact * (1.0 + 1e-9) && r.value_upper >= exact * (1.0 - 1e-9),
            "seed {seed}: bracket [{}, {}] vs exact {exact}",
            r.value_lower,
            r.value_upper
        );
    }
}

/// SDP solver vs the geometric reference on 2-constraint dense instances.
#[test]
fn two_constraint_geometric_agreement() {
    for seed in [2u64, 8] {
        let fam = commuting_family(5, 2, 0.0, seed);
        let inst = PackingInstance::new(fam.mats.clone()).unwrap();
        let exact = exact_small_opt(&inst).unwrap();
        let r = solve_packing(&inst, &ApproxOptions::practical(0.1)).unwrap();
        assert!(
            r.value_lower <= exact * (1.0 + 1e-6) && r.value_upper >= exact * (1.0 - 1e-6),
            "seed {seed}: [{}, {}] vs geometric {exact}",
            r.value_lower,
            r.value_upper
        );
    }
}

/// Our width-independent solver and the width-dependent baseline certify
/// the same side of the same decision instances.
#[test]
fn ours_and_width_dependent_agree_on_side() {
    // Clearly feasible (OPT = 2) and clearly infeasible (OPT = 1/4).
    let feasible = PackingInstance::new(vec![
        psdp_sparse::PsdMatrix::Diagonal(vec![1.0, 0.0]),
        psdp_sparse::PsdMatrix::Diagonal(vec![0.0, 1.0]),
    ])
    .unwrap();
    let infeasible =
        PackingInstance::new(vec![psdp_sparse::PsdMatrix::Diagonal(vec![4.0, 4.0])]).unwrap();

    let ours_f = decision_psdp(&feasible, &DecisionOptions::practical(0.2)).unwrap();
    let ak_f = ak_decision(&feasible, 0.2, 100_000).unwrap();
    assert!(matches!(ours_f.outcome, Outcome::Dual(_)));
    assert!(matches!(ak_f.outcome, AkOutcome::Dual { .. }));

    let ours_i = decision_psdp(&infeasible, &DecisionOptions::practical(0.2)).unwrap();
    let ak_i = ak_decision(&infeasible, 0.2, 100_000).unwrap();
    assert!(matches!(ours_i.outcome, Outcome::Primal(_)));
    assert!(matches!(ak_i.outcome, AkOutcome::Primal { .. }));
}

/// On a diagonal instance the matrix solver's decision run and the scalar
/// Young LP decision procedure (`young_decision`) on the same columns take
/// comparable iteration counts: both are instances of the identical update
/// rule.
#[test]
fn diagonal_iteration_counts_comparable() {
    let (inst, cols) = diag_lp_with_columns(6, 5, 0.7, 42);
    let eps = 0.2;

    // Run both *decision* procedures on the same (unscaled) instance.
    let sdp = decision_psdp(&inst, &DecisionOptions::practical(eps)).unwrap();
    let (_, lp_iters) = psdp_baselines::young_decision(&cols, eps, 400_000);

    let a = sdp.stats.iterations as f64;
    let b = lp_iters as f64;
    let ratio = (a / b).max(b / a);
    assert!(ratio < 3.0, "iteration counts diverged: sdp {a} vs lp {b}");
}
