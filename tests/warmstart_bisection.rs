//! Warm-start equivalence: the session bisection must return the same
//! certified bracket `[lo, hi]` — bitwise — whether brackets are
//! warm-started (iterate continuation) or run cold. See `psdp_core::solver`
//! for why this holds by construction: bracket moves are quantized strong
//! certificates, and every weak-outcome fallback is cold-deterministic.
//! The warm iterate travels with the bisection, so earlier calls on the
//! same session change nothing.

use proptest::prelude::*;
use psdp_core::{ApproxOptions, PackingInstance, Solver};
use psdp_test_support::{
    arb_factorized_instance, arb_sparse_graph_instance, factorized_instance, FactorizedSpec,
};
use psdp_workloads::{random_factorized, RandomFactorized};

/// Warm and cold bisections over the same prepared solver must report the
/// same certified bracket, call count, and convergence flag.
fn assert_warm_equals_cold(inst: &PackingInstance, eps: f64) {
    let opts = ApproxOptions::serving(eps);
    let solver = Solver::builder(inst).options(opts.decision).build().expect("build");

    let cold = solver.session().optimize(&ApproxOptions { warm_start: false, ..opts });
    let cold = cold.expect("cold");
    let warm = solver.session().optimize(&opts).expect("warm");

    prop_assert_eq!(
        cold.value_lower.to_bits(),
        warm.value_lower.to_bits(),
        "lower bounds diverged: cold {} vs warm {}",
        cold.value_lower,
        warm.value_lower
    );
    prop_assert_eq!(
        cold.value_upper.to_bits(),
        warm.value_upper.to_bits(),
        "upper bounds diverged: cold {} vs warm {}",
        cold.value_upper,
        warm.value_upper
    );
    prop_assert_eq!(cold.decision_calls, warm.decision_calls);
    prop_assert_eq!(cold.converged, warm.converged);
    // And both brackets are genuinely certified orderings.
    prop_assert!(warm.value_lower > 0.0 && warm.value_upper >= warm.value_lower);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random factorized instances: warm ≡ cold, bitwise.
    #[test]
    fn warm_bisection_matches_cold_on_factorized(inst in arb_factorized_instance()) {
        assert_warm_equals_cold(&inst, 0.15);
    }

    /// Random sparse (CSR edge-Laplacian) instances: warm ≡ cold, bitwise.
    #[test]
    fn warm_bisection_matches_cold_on_sparse(inst in arb_sparse_graph_instance()) {
        assert_warm_equals_cold(&inst, 0.15);
    }
}

/// The warm run must not just match — it must also do less live work on an
/// instance where the bisection runs several dual-side brackets.
#[test]
fn warm_bisection_saves_iterations() {
    let inst = factorized_instance(&FactorizedSpec::new(8, 6, 9).with_scale(1.0));
    let opts = ApproxOptions::serving(0.1);
    let solver = Solver::builder(&inst).options(opts.decision).build().expect("build");
    let cold = solver.session().optimize(&ApproxOptions { warm_start: false, ..opts });
    let cold = cold.expect("cold");
    let warm = solver.session().optimize(&opts).expect("warm");
    assert_eq!(cold.value_lower.to_bits(), warm.value_lower.to_bits());
    assert_eq!(cold.value_upper.to_bits(), warm.value_upper.to_bits());
    assert!(
        warm.total_iterations < cold.total_iterations,
        "warm {} vs cold {}",
        warm.total_iterations,
        cold.total_iterations
    );
    assert!(warm.call_stats.iter().any(|s| s.warm_started), "no bracket warm-started");
}

/// `optimize` depends on the solver and its options alone: a decision
/// call made earlier on the same session must not seed its first bracket,
/// so the report equals a fresh session's in every count, not only in its
/// certified bracket.
#[test]
fn optimize_ignores_earlier_calls_on_its_session() {
    let spec = RandomFactorized { dim: 24, n: 12, rank: 2, nnz_per_col: 8, width: 1.0, seed: 103 };
    let inst = PackingInstance::new(random_factorized(&spec)).expect("valid");
    let opts = ApproxOptions::practical(0.2);
    let solver = Solver::builder(&inst).options(opts.decision).build().expect("build");
    let fresh = solver.session().optimize(&opts).expect("fresh");

    let mut session = solver.session();
    session.solve(fresh.value_estimate()).expect("solve");
    let reused = session.optimize(&opts).expect("reused");

    assert_eq!(reused.value_lower.to_bits(), fresh.value_lower.to_bits());
    assert_eq!(reused.value_upper.to_bits(), fresh.value_upper.to_bits());
    assert_eq!(reused.decision_calls, fresh.decision_calls);
    assert_eq!(
        reused.total_iterations, fresh.total_iterations,
        "the earlier solve seeded a bracket"
    );
    let warm = |r: &psdp_core::PackingReport| -> Vec<bool> {
        r.brackets.iter().map(|b| b.warm_started).collect()
    };
    assert_eq!(warm(&reused), warm(&fresh));
    assert!(!fresh.brackets[0].warm_started, "the first bracket has nothing to continue from");
}
