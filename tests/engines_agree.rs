//! Engine- and storage-consistency tests: the exact, Taylor, and Taylor+JL
//! engines must drive the solver to the same certified answers (Theorem 4.1
//! says the approximate primitive suffices), and the four constraint
//! storage formats (dense / sparse CSR / factorized / diagonal) must be
//! interchangeable — storage affects cost, never results.

use psdp_core::{
    decision_psdp, solve_packing, verify_dual, verify_primal, ApproxOptions, DecisionOptions,
    EngineKind, Outcome, PackingInstance, PsiMaintainer, Solver,
};
use psdp_expdot::{exp_dot_exact, Engine};
use psdp_linalg::Mat;
use psdp_sparse::{Csr, PsdMatrix};
use psdp_test_support::{det_stream, factorized_instance, FactorizedSpec};
use psdp_workloads::{edge_packing, edge_packing_sparse, gnp};

fn instance(seed: u64) -> PackingInstance {
    factorized_instance(&FactorizedSpec::new(10, 7, seed).with_width(1.5))
}

const ENGINES: [EngineKind; 4] = [
    EngineKind::Exact,
    EngineKind::Taylor { eps: 0.05 },
    EngineKind::TaylorJl { eps: 0.15, sketch_const: 6.0 },
    EngineKind::Expv { eps: 0.15 },
];

/// All engines certify the same side with comparable values.
#[test]
fn engines_agree_on_outcome_and_value() {
    for seed in [1u64, 5] {
        let inst = instance(seed);
        let mut dual_values = Vec::new();
        for kind in ENGINES {
            let opts = DecisionOptions::practical(0.2).with_engine(kind).with_seed(3);
            let res = decision_psdp(&inst, &opts).unwrap();
            match &res.outcome {
                Outcome::Dual(d) => {
                    assert!(verify_dual(&inst, d, 1e-7).feasible, "{kind:?} dual infeasible");
                    dual_values.push(d.value);
                }
                Outcome::Primal(p) => {
                    assert!(
                        verify_primal(&inst, p, 5e-2).feasible,
                        "{kind:?} primal infeasible: {p:?}"
                    );
                }
            }
        }
        // If several engines found duals, their values should be close
        // (within the combined approximation slack).
        if dual_values.len() >= 2 {
            let hi = dual_values.iter().cloned().fold(f64::MIN, f64::max);
            let lo = dual_values.iter().cloned().fold(f64::MAX, f64::min);
            assert!(hi / lo < 1.35, "dual values spread too wide: {dual_values:?}");
        }
    }
}

/// Direct primitive-level agreement on a shared Φ: Taylor within its ε,
/// sketched within a generous statistical band.
#[test]
fn primitive_level_agreement() {
    let inst = instance(2);
    let mats = inst.mats();
    let mut phi = Mat::zeros(inst.dim(), inst.dim());
    for (i, a) in mats.iter().enumerate() {
        a.add_scaled_into(&mut phi, 0.2 + 0.1 * i as f64);
    }
    phi.symmetrize();
    let kappa = psdp_linalg::lambda_max_upper_bound(&phi);

    let exact: Vec<f64> = mats.iter().map(|a| exp_dot_exact(&phi, a).unwrap()).collect();

    let taylor = Engine::new(EngineKind::Taylor { eps: 0.05 }, mats, 0).unwrap();
    let t = taylor.compute(&phi, kappa, mats, 1).unwrap();
    for (g, e) in t.dots.iter().zip(&exact) {
        assert!(*g <= e * (1.0 + 1e-9) && *g >= e * (1.0 - 0.05), "taylor {g} vs {e}");
    }

    let jl = Engine::new(EngineKind::TaylorJl { eps: 0.15, sketch_const: 8.0 }, mats, 7).unwrap();
    let j = jl.compute(&phi, kappa, mats, 1).unwrap();
    for (g, e) in j.dots.iter().zip(&exact) {
        assert!((g - e).abs() < 0.3 * e.max(1e-9), "jl {g} vs {e}");
    }

    // The expm-action engine's dots are sketch-free: they must land on the
    // exact values up to the kernel's 1e-9 floor (plus factorization slack),
    // an order tighter than either Taylor band.
    let expv = Engine::new(EngineKind::Expv { eps: 0.15 }, mats, 7).unwrap();
    let v = expv.compute(&phi, kappa, mats, 1).unwrap();
    let scale = v.log_scale.exp();
    for (g, e) in v.dots.iter().zip(&exact) {
        assert!((g * scale - e).abs() < 1e-6 * e.max(1.0), "expv {} vs {e}", g * scale);
    }
}

/// Dense, sparse-CSR, and factorized storage of the *same* constraint set
/// must produce the same `DecisionResult`: same certified side, same
/// iteration count, and values agreeing to floating-point accuracy.
#[test]
fn storage_formats_agree_on_decision_result() {
    let graph = gnp(12, 0.5, 11);
    let factorized = edge_packing(&graph);
    let sparse = edge_packing_sparse(&graph);
    let dense: Vec<PsdMatrix> = factorized.iter().map(|a| PsdMatrix::Dense(a.to_dense())).collect();

    let opts = DecisionOptions::practical(0.2);
    let mut results = Vec::new();
    for mats in [dense, sparse, factorized] {
        let inst = PackingInstance::new(mats).unwrap().scaled(0.25);
        results.push((decision_psdp(&inst, &opts).unwrap(), inst));
    }

    let (r0, _) = &results[0];
    for (r, inst) in &results[1..] {
        assert_eq!(r.stats.iterations, r0.stats.iterations, "iteration counts diverged");
        assert_eq!(r.stats.exit, r0.stats.exit, "exit reasons diverged");
        match (&r.outcome, &r0.outcome) {
            (Outcome::Dual(d), Outcome::Dual(d0)) => {
                assert!(
                    (d.value - d0.value).abs() <= 1e-6 * d0.value.abs().max(1.0),
                    "dual values diverged: {} vs {}",
                    d.value,
                    d0.value
                );
                for (a, b) in d.x.iter().zip(&d0.x) {
                    assert!((a - b).abs() <= 1e-6 * b.abs().max(1e-12), "{a} vs {b}");
                }
                assert!(verify_dual(inst, d, 1e-7).feasible);
            }
            (Outcome::Primal(p), Outcome::Primal(p0)) => {
                assert!(
                    (p.min_dot - p0.min_dot).abs() <= 1e-6 * p0.min_dot.abs().max(1.0),
                    "primal min dots diverged: {} vs {}",
                    p.min_dot,
                    p0.min_dot
                );
            }
            (a, b) => panic!("outcome sides diverged: {a:?} vs {b:?}"),
        }
    }
}

/// Deterministic multi-round property: however the update schedule mixes
/// storage kinds, batch sizes, and step magnitudes, the incrementally
/// maintained Ψ stays within floating-point tolerance of a from-scratch
/// `weighted_sum` rebuild.
#[test]
fn incremental_psi_tracks_rebuild_across_schedules() {
    for seed in [3u64, 17, 42] {
        let graph = gnp(10, 0.5, seed);
        let mut mats = edge_packing_sparse(&graph);
        // Mix in other storage kinds so every scatter path is exercised.
        mats.extend(edge_packing(&graph).into_iter().take(4));
        mats.push(PsdMatrix::Diagonal((0..10).map(|i| 0.1 + (i % 3) as f64).collect()));
        mats.push(PsdMatrix::Sparse(Csr::from_triplets(
            10,
            10,
            &[(0, 0, 1.0), (0, 9, 0.5), (9, 0, 0.5), (9, 9, 2.0)],
        )));
        let inst = PackingInstance::new(mats).unwrap();
        let n = inst.n();

        let mut x: Vec<f64> = (0..n).map(|i| 0.01 * (1 + (i * seed as usize) % 5) as f64).collect();
        let mut psi = PsiMaintainer::new(&inst, &x, 0);
        let mut next = det_stream(seed);
        for round in 0..300 {
            // Deterministic pseudo-random batch of 1..=5 coordinates.
            let mut deltas = Vec::new();
            let batch = 1 + (round % 5);
            for _ in 0..batch {
                let state = next();
                let i = (state >> 33) as usize % n;
                let d = 1e-3 * ((state >> 20) % 100) as f64;
                x[i] += d;
                deltas.push((i, d));
            }
            psi.apply_updates(&deltas);
        }
        let fresh = inst.weighted_sum(&x);
        let scale = fresh.max_abs().max(1e-300);
        let psi = psi.matrix().expect("dense storage");
        for (a, b) in psi.as_slice().iter().zip(fresh.as_slice()) {
            assert!((a - b).abs() <= 1e-11 * scale, "seed {seed}: {a} vs {b}");
        }
        assert!(psi.asymmetry() <= 1e-12 * scale);
    }
}

/// The Solver/Session API and the legacy free functions are the same code
/// path: `decision_psdp` must equal `Session::solve(1.0)` bitwise, and
/// `solve_packing` must equal `Session::optimize` bitwise, for every
/// engine.
#[test]
fn solver_api_matches_legacy_free_functions() {
    for seed in [1u64, 5] {
        let inst = instance(seed);
        for kind in ENGINES {
            let opts = DecisionOptions::practical(0.2).with_engine(kind).with_seed(3);
            let legacy = decision_psdp(&inst, &opts).unwrap();
            let solver = Solver::builder(&inst).options(opts).build().unwrap();
            let direct = solver.session().solve(1.0).unwrap();
            assert_eq!(legacy.stats.iterations, direct.stats.iterations, "{kind:?}");
            assert_eq!(legacy.stats.exit, direct.stats.exit, "{kind:?}");
            match (&legacy.outcome, &direct.outcome) {
                (Outcome::Dual(a), Outcome::Dual(b)) => {
                    assert_eq!(a.x, b.x, "{kind:?}: dual iterates diverged");
                    assert_eq!(a.value.to_bits(), b.value.to_bits(), "{kind:?}");
                }
                (Outcome::Primal(a), Outcome::Primal(b)) => {
                    assert_eq!(a.constraint_dots, b.constraint_dots, "{kind:?}");
                    assert_eq!(a.min_dot.to_bits(), b.min_dot.to_bits(), "{kind:?}");
                }
                _ => panic!("{kind:?}: outcome sides diverged between APIs"),
            }
        }

        // Optimization: the wrapper and a hand-held session must agree.
        let approx = ApproxOptions::practical(0.15);
        let legacy = solve_packing(&inst, &approx).unwrap();
        let solver = Solver::builder(&inst).options(approx.decision).build().unwrap();
        let direct = solver.session().optimize(&approx).unwrap();
        assert_eq!(legacy.value_lower.to_bits(), direct.value_lower.to_bits());
        assert_eq!(legacy.value_upper.to_bits(), direct.value_upper.to_bits());
        assert_eq!(legacy.decision_calls, direct.decision_calls);
        assert_eq!(legacy.total_iterations, direct.total_iterations);
    }
}

/// Verdict agreement on the E8/E9 experiment workloads: bisection under the
/// expm-action engine must certify the same bracket as the exact engine —
/// overlapping certified intervals of the same relative width — on the
/// diagonal-LP family (E8) and the paper's Figure 1 ellipse-packing
/// instance (E9).
#[test]
fn expv_certifies_same_brackets_as_exact_on_e8_e9_workloads() {
    let mut instances: Vec<(String, PackingInstance)> = Vec::new();
    for seed in [1u64, 2] {
        let mats = psdp_workloads::random_lp_diagonal(8, 6, 0.6, seed);
        instances.push((format!("diagonal(s{seed})"), PackingInstance::new(mats).unwrap()));
    }
    instances.push((
        "figure1".into(),
        PackingInstance::new(psdp_workloads::figure1_instance()).unwrap(),
    ));
    instances.push((
        "edge_packing".into(),
        PackingInstance::new(edge_packing(&gnp(8, 0.4, 7))).unwrap(),
    ));

    let eps = 0.1;
    for (name, inst) in &instances {
        let exact_opts = ApproxOptions::practical(eps);
        let mut expv_opts = ApproxOptions::practical(eps);
        expv_opts.decision =
            expv_opts.decision.with_engine(EngineKind::Expv { eps: 0.05 }).with_seed(3);

        let re = solve_packing(inst, &exact_opts).unwrap();
        let rv = solve_packing(inst, &expv_opts).unwrap();
        assert!(re.converged && rv.converged, "{name}: a bisection failed to converge");
        // Both brackets are *certified* (every bound comes from a verified
        // certificate), so they must overlap…
        assert!(
            rv.value_lower <= re.value_upper && re.value_lower <= rv.value_upper,
            "{name}: disjoint certified brackets: exact [{}, {}] vs expv [{}, {}]",
            re.value_lower,
            re.value_upper,
            rv.value_lower,
            rv.value_upper
        );
        // …and agree on the optimum to the combined bisection accuracy.
        let mid_e = 0.5 * (re.value_lower + re.value_upper);
        let mid_v = 0.5 * (rv.value_lower + rv.value_upper);
        assert!(
            (mid_e - mid_v).abs() <= 2.0 * eps * mid_e.max(1e-12),
            "{name}: bracket centers diverged: {mid_e} vs {mid_v}"
        );
        // The duals each engine certifies must verify on the instance.
        if let (Some(de), Some(dv)) = (&re.best_dual, &rv.best_dual) {
            assert!(verify_dual(inst, de, 1e-7).feasible, "{name}: exact dual");
            assert!(verify_dual(inst, dv, 1e-7).feasible, "{name}: expv dual");
        }
    }
}

/// The Taylor engine's reported degree respects the Lemma 4.2 rule and
/// shrinks when κ shrinks (adaptive degree selection).
#[test]
fn taylor_degree_adapts_to_kappa() {
    let inst = instance(3);
    let mats = inst.mats();
    let mut phi = inst.weighted_sum(&vec![0.01; inst.n()]);
    phi.symmetrize();
    let small_kappa = psdp_linalg::lambda_max_upper_bound(&phi);

    let engine = Engine::new(EngineKind::Taylor { eps: 0.1 }, mats, 0).unwrap();
    let small = engine.compute(&phi, small_kappa, mats, 1).unwrap();

    let mut big_phi = phi.clone();
    big_phi.scale(50.0 / small_kappa.max(1e-12));
    let big = engine.compute(&big_phi, 50.0, mats, 1).unwrap();

    assert!(small.degree < big.degree, "degree did not adapt: {} vs {}", small.degree, big.degree);
    // Lemma 4.2 lower bound on the degree: at least ln(2/eps').
    assert!(small.degree >= 1);
    assert!(big.degree as f64 >= std::f64::consts::E.powi(2) * 25.0 * 0.99);
}
