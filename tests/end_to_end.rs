//! End-to-end pipeline tests: workload generator → (normalization →)
//! solver → certified verification, across every instance family.

use psdp_core::{
    decision_psdp, solve_covering, solve_mixed, solve_packing, verify_dual, verify_primal,
    ApproxOptions, DecisionOptions, EngineKind, MixedApproxOptions, MixedInstance, Outcome,
    PackingInstance, PsdpError, Solver,
};
use psdp_sparse::PsdMatrix;
use psdp_workloads::{
    beamforming_sdp, edge_packing, edge_packing_sparse, figure1_instance, gnp, grid,
    random_factorized, set_cover_packing, Beamforming, RandomFactorized,
};

/// Whatever side the decision procedure certifies must pass independent
/// verification, across families and epsilon values.
#[test]
fn decision_certificates_hold_across_families() {
    let instances: Vec<(&str, PackingInstance)> = vec![
        (
            "random_factorized",
            PackingInstance::new(random_factorized(&RandomFactorized {
                dim: 12,
                n: 8,
                rank: 2,
                nnz_per_col: 4,
                width: 2.0,
                seed: 1,
            }))
            .unwrap(),
        ),
        ("figure1", PackingInstance::new(figure1_instance()).unwrap()),
        ("set_cover", PackingInstance::new(set_cover_packing(10, 6, 3, 2)).unwrap()),
        ("grid_edges", PackingInstance::new(edge_packing(&grid(3, 4))).unwrap()),
    ];
    for (name, inst) in &instances {
        for eps in [0.3, 0.15] {
            let res = decision_psdp(inst, &DecisionOptions::practical(eps))
                .unwrap_or_else(|e| panic!("{name}: solve failed: {e}"));
            match &res.outcome {
                Outcome::Dual(d) => {
                    let c = verify_dual(inst, d, 1e-7);
                    assert!(
                        c.feasible,
                        "{name} eps={eps}: dual infeasible (λmax {})",
                        c.lambda_max
                    );
                    assert!(d.value > 0.0, "{name}: trivial dual");
                }
                Outcome::Primal(p) => {
                    let c = verify_primal(inst, p, 1e-4);
                    assert!(c.feasible, "{name} eps={eps}: primal infeasible ({c:?})");
                }
            }
        }
    }
}

/// approxPSDP brackets close and are internally consistent on packing
/// instances from different generators.
#[test]
fn packing_brackets_close() {
    let instances = vec![
        PackingInstance::new(random_factorized(&RandomFactorized {
            dim: 10,
            n: 6,
            rank: 2,
            nnz_per_col: 3,
            width: 1.0,
            seed: 9,
        }))
        .unwrap(),
        PackingInstance::new(edge_packing(&gnp(12, 0.4, 3))).unwrap(),
    ];
    for inst in &instances {
        let r = solve_packing(inst, &ApproxOptions::practical(0.15)).unwrap();
        assert!(r.converged, "bracket [{}, {}]", r.value_lower, r.value_upper);
        assert!(r.value_lower > 0.0);
        assert!(r.value_upper >= r.value_lower);
        let d = r.best_dual.as_ref().expect("dual witness");
        let c = verify_dual(inst, d, 1e-7);
        assert!(c.feasible, "best dual infeasible: λmax {}", c.lambda_max);
        // The feasible dual certifies the reported lower bound: its value
        // is at least value_lower (quantized bracket moves may report a
        // slightly smaller — still certified — bound than the witness).
        assert!(
            c.value >= r.value_lower * (1.0 - 1e-9),
            "dual value {} below reported lower {}",
            c.value,
            r.value_lower
        );
    }
}

/// Sparse edge Laplacians whose endpoints are congruent mod 11 are
/// orthogonal to the power-iteration start vector of the sparse `λmax`
/// estimate, which used to return 0 for them (48 of 580 constraints of
/// `gnp(64, 0.3)`) and made `optimize` fail on an infinite threshold.
/// Every estimate must lie in `[max diag, λmax]` — for the edge
/// `w·(e_u − e_v)(e_u − e_v)ᵀ` that is `[w, 2w]` — and `Session::optimize`
/// must return a bracket whose ends both verify. The solve runs on a
/// 24-vertex draw with the same defect, which takes well under a second
/// in release where the 64-vertex one takes about 35 s.
#[test]
fn sparse_edge_laplacian_estimates_and_optimize() {
    let congruent =
        |g: &psdp_sparse::Graph| g.edges().iter().filter(|&&(u, v, _)| u % 11 == v % 11).count();
    for g in [gnp(64, 0.3, 1), gnp(24, 0.3, 1)] {
        assert!(congruent(&g) > 0, "the graph must hit the orthogonal start vector");
        for (&(u, v, w), m) in g.edges().iter().zip(&edge_packing_sparse(&g)) {
            let est = m.lambda_max_est();
            assert!(est >= w && est <= 2.0 * w * (1.0 + 1e-9), "edge ({u},{v}) w={w}: {est}");
        }
    }
    let inst = PackingInstance::new(edge_packing_sparse(&gnp(24, 0.3, 1))).unwrap();
    let solver = Solver::builder(&inst).build().unwrap();
    let r = solver.session().optimize(&ApproxOptions::practical(0.3)).unwrap();
    assert!(r.converged && r.value_lower > 0.0, "[{}, {}]", r.value_lower, r.value_upper);
    // Lower end: a feasible dual reaching the bound.
    let d = r.best_dual.as_ref().expect("dual witness");
    let c = verify_dual(&inst, d, 1e-7);
    assert!(c.feasible && c.value >= r.value_lower * (1.0 - 1e-9), "lower end: {c:?}");
    // Upper end: the witness at σ is a trace-1 PSD matrix whose recomputed
    // dots bound OPT by 1 / minᵢ Aᵢ•Y, which may not undercut the lower end.
    let (_, p) = r.upper_witness.as_ref().expect("primal witness");
    let c = verify_primal(&inst, p, 1e-5);
    assert!(c.matrix_checked && (c.trace - 1.0).abs() <= 1e-5 && c.lambda_min >= -1e-5, "{c:?}");
    assert!(1.0 / c.min_dot >= r.value_lower * (1.0 - 1e-9), "upper end: {c:?}");
}

/// Full covering pipeline (Appendix A normalization included) on the
/// beamforming SDP: value bracket, primal feasibility in *original*
/// coordinates, dual nonnegativity.
#[test]
fn covering_pipeline_beamforming() {
    let sdp = beamforming_sdp(&Beamforming {
        antennas: 5,
        users: 4,
        sinr_target: 1.5,
        noise: 0.8,
        spread: 3.0,
        seed: 13,
    });
    let r = solve_covering(&sdp, &ApproxOptions::practical(0.12)).unwrap();
    assert!(r.packing.converged);
    assert!(r.value_lower > 0.0 && r.value_upper >= r.value_lower);

    // Primal mapped back: constraint satisfaction and objective match.
    let y = r.y.as_ref().expect("dense primal witness");
    for ((a, &b), lam) in sdp.constraints.iter().zip(&sdp.rhs).zip(&r.lambda) {
        let dot = a.dot_dense(y);
        assert!(dot >= b * (1.0 - 1e-6), "covering constraint violated: {dot} < {b}");
        assert!(*lam >= 0.0);
    }
    // The witness certifies a bound inside the reported bracket (it may be
    // tighter than the quantized value_upper, never looser).
    let cy = sdp.objective.dot_dense(y);
    assert!(
        cy <= r.value_upper * (1.0 + 1e-6),
        "objective {cy} exceeds reported upper {}",
        r.value_upper
    );
    assert!(
        cy >= r.value_lower * (1.0 - 1e-6),
        "objective {cy} below reported lower {}",
        r.value_lower
    );

    // Y itself must be PSD.
    let eig = psdp_linalg::sym_eigen(y).unwrap();
    assert!(eig.lambda_min() > -1e-8 * eig.lambda_max().max(1.0));
}

/// Dropping eps tightens the bracket (monotone accuracy).
#[test]
fn tighter_eps_tightens_bracket() {
    let inst = PackingInstance::new(random_factorized(&RandomFactorized {
        dim: 8,
        n: 5,
        rank: 2,
        nnz_per_col: 3,
        width: 1.0,
        seed: 4,
    }))
    .unwrap();
    let loose = solve_packing(&inst, &ApproxOptions::practical(0.4)).unwrap();
    let tight = solve_packing(&inst, &ApproxOptions::practical(0.08)).unwrap();
    let loose_ratio = loose.value_upper / loose.value_lower;
    let tight_ratio = tight.value_upper / tight.value_lower;
    assert!(tight_ratio <= loose_ratio + 1e-9, "{tight_ratio} vs {loose_ratio}");
    assert!(tight_ratio <= 1.0 + 0.16, "tight bracket not within (1+2eps): {tight_ratio}");
    // Brackets must overlap (they bound the same OPT).
    assert!(tight.value_lower <= loose.value_upper + 1e-9);
    assert!(loose.value_lower <= tight.value_upper + 1e-9);
}

/// An engine `eps` outside (0,1) (or a non-positive sketch multiplier) is
/// an option error returned before any solving, for the packing and the
/// mixed entry points alike — never a panic inside an engine evaluation.
#[test]
fn out_of_range_engine_parameters_are_rejected_up_front() {
    let inst = PackingInstance::new(random_factorized(&RandomFactorized {
        dim: 8,
        n: 5,
        rank: 2,
        nnz_per_col: 3,
        width: 1.0,
        seed: 4,
    }))
    .unwrap();
    let mixed = MixedInstance::new(
        vec![PsdMatrix::Diagonal(vec![2.0, 1.0])],
        vec![PsdMatrix::Diagonal(vec![1.0, 1.0])],
    )
    .unwrap();
    for engine in [
        EngineKind::Expv { eps: 2.5 },
        EngineKind::Expv { eps: f64::NAN },
        EngineKind::TaylorJl { eps: 2.5, sketch_const: 4.0 },
        EngineKind::Taylor { eps: 0.0 },
        EngineKind::Taylor { eps: f64::NAN },
    ] {
        let mut opts = ApproxOptions::practical(0.2);
        opts.decision = opts.decision.with_engine(engine);
        let err = solve_packing(&inst, &opts).unwrap_err();
        assert!(matches!(err, PsdpError::InvalidInstance(_)), "{engine:?}: {err:?}");

        let mut mopts = MixedApproxOptions::practical(0.2);
        mopts.decision = mopts.decision.with_engine(engine);
        let err = solve_mixed(&mixed, &mopts).unwrap_err();
        assert!(matches!(err, PsdpError::InvalidInstance(_)), "{engine:?}: {err:?}");
    }
}

/// At large `eps` an unbudgeted certificate-seeking escalation scaled the
/// iterate until Ψ's entries reached ~1e155, where the exact engine's
/// eigensolver stops converging. Such a failure must count as a weak
/// escalation (the cold outcome stands), not abort the whole `optimize`.
/// The escalation's budget (its cold solve's iterations) now stops it at
/// ‖x‖₁ ≈ 1e3 on this fixture, so the test pins the end result: every ε
/// still converges with a verified dual.
#[test]
fn failed_escalation_keeps_the_cold_outcome_at_large_eps() {
    let inst = PackingInstance::new(edge_packing(&gnp(12, 0.3, 3))).unwrap();
    for eps in [0.5, 0.8, 0.9, 0.99] {
        let opts = ApproxOptions::practical(eps);
        let solver = Solver::builder(&inst).options(opts.decision).build().unwrap();
        let r = solver
            .session()
            .optimize(&opts)
            .unwrap_or_else(|e| panic!("eps {eps}: optimize failed: {e}"));
        assert!(
            r.converged && r.value_lower > 0.0,
            "eps {eps}: [{}, {}]",
            r.value_lower,
            r.value_upper
        );
        let d = r.best_dual.as_ref().expect("dual witness");
        let c = verify_dual(&inst, d, 1e-7);
        assert!(c.feasible && c.value >= r.value_lower * (1.0 - 1e-9), "eps {eps}: {c:?}");
    }
}
