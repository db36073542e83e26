//! Kernel-equivalence gate for the expm stack (DESIGN.md §12).
//!
//! The PR-7 kernel layer replaced the naive GEMM with a blocked/panelized
//! kernel and added Krylov/Chebyshev expm-action paths. This suite is the
//! differential gate that lets those kernels evolve safely:
//!
//! * the blocked GEMM must be **bitwise** equal to the textbook i-k-j
//!   reference, for every shape and every rayon pool width — the
//!   determinism contract every verdict-certification test leans on;
//! * `symmul` must be bitwise equal to `matmul(S, S)` on symmetric input;
//! * the Lanczos and Chebyshev expm-action paths must agree with the dense
//!   `exp_dot_exact` reference within their documented tolerance (the
//!   `1e-9` kernel floor plus factorization slack — we assert `1e-5`
//!   relative) on random factorized and sparse instances, and be bitwise
//!   pool-width invariant;
//! * the solver's Ψ pattern view (`PsiView`, DESIGN.md §4) must drive the
//!   Expv engine to **bitwise** the dense-Ψ outputs, zero-row probe skips
//!   included, and its `λmax` bound must equal the dense one bit for bit;
//! * the Expv engine on Ψ gathered onto its live support must give every
//!   `ExpDots` field bitwise as the same operator run at full length (the
//!   restricted-vs-full gate), with the Lanczos time grid keyed on m;
//! * the dense eigensolver (`sym_eigen`, `sym_eigenvalues`) must reproduce
//!   its golden bits on a fixed family of matrices.
//!
//! CI runs this file in the fail-fast tier under both entries of the
//! `RAYON_NUM_THREADS ∈ {1, 4}` matrix; the explicit `run_with_threads`
//! comparisons below additionally pin the two pool widths against each
//! other inside one process.

use proptest::prelude::*;
use psdp_core::{PackingInstance, PsiMaintainer, PsiPattern};
use psdp_expdot::{exp_dot_exact, Engine, EngineKind};
use psdp_linalg::{
    chebyshev_exp_block, expm_action_lanczos, lambda_max_upper_bound, matmul, symmul, Mat, SymOp,
};
use psdp_parallel::run_with_threads;
use psdp_sparse::{FactorPsd, PsdMatrix};
use psdp_test_support::{arb_factorized_instance, arb_sparse_graph_instance, det_stream};

/// Textbook i-k-j scalar reference kernel: per output element, terms are
/// added one at a time in increasing `k` order — the exact accumulation
/// order the blocked kernel contracts to preserve.
fn reference_matmul(a: &Mat, b: &Mat) -> Mat {
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    let mut c = Mat::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let aik = a[(i, kk)];
            for j in 0..n {
                c[(i, j)] += aik * b[(kk, j)];
            }
        }
    }
    c
}

/// Deterministic pseudo-random matrix (no RNG: pure hash of indices+salt).
fn pseudo(m: usize, n: usize, salt: u64) -> Mat {
    Mat::from_fn(m, n, |i, j| {
        let h = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
            .wrapping_add(salt.wrapping_mul(2654435761));
        ((h >> 11) % 4000) as f64 / 1999.0 - 1.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked GEMM ≡ reference, bitwise, across pool widths {1, 4}, over
    /// random shapes spanning every dispatch boundary (serial/parallel
    /// cutover, row-chunk size, k-panel size, unroll remainder).
    #[test]
    fn blocked_gemm_bitwise_equals_reference(
        m in 1usize..40,
        k in 1usize..80,
        n in 1usize..24,
        salt in 0u64..1000,
    ) {
        let a = pseudo(m, k, salt);
        let b = pseudo(k, n, salt.wrapping_add(1));
        let want = reference_matmul(&a, &b);
        let c1 = run_with_threads(1, || matmul(&a, &b));
        let c4 = run_with_threads(4, || matmul(&a, &b));
        prop_assert_eq!(c1.as_slice(), want.as_slice(), "pool=1 diverged from reference");
        prop_assert_eq!(c4.as_slice(), want.as_slice(), "pool=4 diverged from reference");
    }

    /// Symmetric-square kernel ≡ general GEMM, bitwise, on symmetric input,
    /// across pool widths.
    #[test]
    fn symmul_bitwise_equals_matmul(m in 1usize..48, salt in 0u64..1000) {
        let mut s = pseudo(m, m, salt);
        s.symmetrize();
        let want = matmul(&s, &s);
        let c1 = run_with_threads(1, || symmul(&s));
        let c4 = run_with_threads(4, || symmul(&s));
        prop_assert_eq!(c1.as_slice(), want.as_slice(), "pool=1 symmul diverged");
        prop_assert_eq!(c4.as_slice(), want.as_slice(), "pool=4 symmul diverged");
    }

    /// The expv engine vs the dense reference on random factorized
    /// instances: dots within the documented 1e-5 relative band (kernel
    /// floor 1e-9 + factorization slack), bitwise pool-width invariant.
    #[test]
    fn expv_engine_matches_exact_on_factorized(inst in arb_factorized_instance()) {
        assert_expv_matches_exact(&inst);
    }

    /// Same gate on random sparse (CSR edge-Laplacian) instances.
    #[test]
    fn expv_engine_matches_exact_on_sparse(inst in arb_sparse_graph_instance()) {
        assert_expv_matches_exact(&inst);
    }

    /// The Ψ pattern view vs the dense Ψ on random factorized instances:
    /// engine outputs and the κ bound bitwise, through incremental updates
    /// and a rebuild, at pool widths {1, 4}.
    #[test]
    fn psi_view_bitwise_equals_dense_on_factorized(
        inst in arb_factorized_instance(),
        salt in 0u64..1000,
    ) {
        assert_view_matches_dense(&inst, salt, 0.2);
    }

    /// Same gate on random sparse (CSR edge-Laplacian) instances.
    #[test]
    fn psi_view_bitwise_equals_dense_on_sparse(
        inst in arb_sparse_graph_instance(),
        salt in 0u64..1000,
    ) {
        assert_view_matches_dense(&inst, salt, 0.2);
    }
}

/// Random iterate for the view gate: positive weights with roughly a
/// quarter of the coordinates at exactly zero.
fn random_x(n: usize, next: &mut impl FnMut() -> u64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let r = next();
            if r.is_multiple_of(4) {
                0.0
            } else {
                0.02 + (r >> 11) as f64 / (1u64 << 53) as f64 * 0.4
            }
        })
        .collect()
}

/// Drive a pattern-carrying maintainer through updates and a rebuild,
/// checking at every state that the κ bound and one Expv evaluation through
/// the view equal the dense path bit for bit. Returns, for the final state,
/// how many rows the view reports as exactly zero and the analytic work of
/// the view and dense evaluations.
fn assert_view_matches_dense(inst: &PackingInstance, salt: u64, eps: f64) -> (usize, f64, f64) {
    let mut next = det_stream(salt);
    let mut x = random_x(inst.n(), &mut next);
    let pattern = PsiPattern::new(inst);
    let mut psi = PsiMaintainer::with_pattern(inst, &x, 0, &pattern);
    let eng = Engine::new(EngineKind::Expv { eps }, inst.mats(), 7).unwrap();
    let mut work = (0.0, 0.0);
    for round in 0..4 {
        match round {
            0 => {}
            3 => psi.rebuild(&x),
            _ => {
                let mut deltas = Vec::new();
                for (i, xi) in x.iter_mut().enumerate() {
                    if next().is_multiple_of(2) {
                        let d = 0.01 + (next() % 100) as f64 * 1e-3;
                        *xi += d;
                        deltas.push((i, d));
                    }
                }
                psi.apply_updates(&deltas);
            }
        }
        let kappa = psi.kappa_bound();
        assert_eq!(
            kappa.to_bits(),
            lambda_max_upper_bound(psi.matrix()).to_bits(),
            "round {round}: κ bound differs over the pattern"
        );
        let view = psi.view().expect("maintainer carries a pattern");
        for threads in [1, 4] {
            let sparse = run_with_threads(threads, || eng.compute_op(&view, kappa, 3));
            let dense = run_with_threads(threads, || {
                eng.compute(psi.matrix(), kappa, inst.mats(), 3).unwrap()
            });
            let ctx = format!("round {round}, pool {threads}, m={}", inst.dim());
            assert_eq!(sparse.tr_w.to_bits(), dense.tr_w.to_bits(), "tr_w: {ctx}");
            assert_eq!(sparse.log_scale.to_bits(), dense.log_scale.to_bits(), "log_scale: {ctx}");
            assert_eq!(sparse.degree, dense.degree, "degree: {ctx}");
            assert_eq!(sparse.dots.len(), dense.dots.len());
            for (a, b) in sparse.dots.iter().zip(&dense.dots) {
                assert_eq!(a.to_bits(), b.to_bits(), "dot: {ctx}");
            }
            assert!(sparse.cost.work <= dense.cost.work, "work grew: {ctx}");
            work = (sparse.cost.work, dense.cost.work);
        }
    }
    let view = psi.view().expect("maintainer carries a pattern");
    let zero_rows = (0..inst.dim()).filter(|&j| view.is_zero_row(j)).count();
    (zero_rows, work.0, work.1)
}

/// The only coordinates of m = 64 that [`scattered_rank1_instance`] touches.
const SCATTERED: [usize; 10] = [3, 7, 12, 20, 25, 33, 41, 50, 58, 63];

/// Ten rank-1 constraints on m = 64 that touch only the 10 coordinates
/// `SCATTERED`.
fn scattered_rank1_instance() -> PackingInstance {
    let m = 64;
    let coords = SCATTERED;
    let mats: Vec<PsdMatrix> = (0..coords.len())
        .map(|k| {
            let mut v = vec![0.0; m];
            v[coords[k]] = 1.0;
            v[coords[(k + 1) % coords.len()]] = -0.5 - 0.1 * k as f64;
            v[coords[(k + 4) % coords.len()]] = 0.25;
            PsdMatrix::Factor(FactorPsd::from_vector(&v))
        })
        .collect();
    PackingInstance::new(mats).unwrap()
}

/// A fixed case where the zero-row skip must engage: at `eps = 0.5` the JL
/// bound exceeds m, so the trace runs identity probes — 54 of them on
/// exactly zero rows. Outputs stay bitwise; only the analytic work drops.
#[test]
fn psi_view_skips_zero_row_probes_bitwise() {
    let inst = scattered_rank1_instance();
    let pattern = PsiPattern::new(&inst);
    assert!(pattern.nnz() <= 100, "pattern has {} entries", pattern.nnz());
    for salt in [1u64, 2, 3] {
        let (zero_rows, view_work, dense_work) = assert_view_matches_dense(&inst, salt, 0.5);
        assert_eq!(zero_rows, inst.dim() - SCATTERED.len(), "salt {salt}");
        assert!(view_work < dense_work, "salt {salt}: {view_work} vs {dense_work}");
    }
}

/// An operator behind a wrapper that cannot gather ([`SymOp::gather`]'s
/// default), so the Expv engine runs every vector at full length.
struct NoGather<'a>(&'a dyn SymOp);

impl SymOp for NoGather<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        self.0.apply_vec(x)
    }

    fn nnz(&self) -> usize {
        self.0.nnz()
    }

    fn is_zero_row(&self, i: usize) -> bool {
        self.0.is_zero_row(i)
    }
}

/// The restricted-vs-full gate: the Expv engine on Ψ gathered onto its
/// live rows and the factor columns' support (here the 10 scattered
/// coordinates of m = 64) against the same view behind [`NoGather`],
/// every `ExpDots` field bitwise, at pool widths 1 and 4. At κ = 40 the
/// Lanczos time grid starts at `s = ⌈20/16⌉ = 2` on m > `MAX_KRYLOV`,
/// where the gathered dimension 10 ≤ `MAX_KRYLOV` would run one step: a
/// grid keyed on the gathered dimension changes the bits.
#[test]
fn gathered_expv_bitwise_equals_full_length() {
    let inst = scattered_rank1_instance();
    assert!(inst.dim() > psdp_linalg::expmv::MAX_KRYLOV);
    let pattern = PsiPattern::new(&inst);
    let eng = Engine::new(EngineKind::Expv { eps: 0.5 }, inst.mats(), 7).unwrap();
    for salt in [1u64, 2, 3] {
        let x = random_x(inst.n(), &mut det_stream(salt));
        let psi = PsiMaintainer::with_pattern(&inst, &x, 0, &pattern);
        let view = psi.view().expect("maintainer carries a pattern");
        assert!(view.gather(&SCATTERED).is_some() && NoGather(&view).gather(&SCATTERED).is_none());
        for kappa in [psi.kappa_bound(), 40.0] {
            for threads in [1, 4] {
                let ctx = format!("salt {salt}, kappa {kappa}, pool {threads}");
                let gathered = run_with_threads(threads, || eng.compute_op(&view, kappa, 3));
                let full = run_with_threads(threads, || eng.compute_op(&NoGather(&view), kappa, 3));
                assert_eq!(gathered.tr_w.to_bits(), full.tr_w.to_bits(), "tr_w: {ctx}");
                assert_eq!(gathered.log_scale.to_bits(), full.log_scale.to_bits(), "{ctx}");
                assert_eq!(gathered.cost.work.to_bits(), full.cost.work.to_bits(), "{ctx}");
                assert_eq!(gathered.cost.depth.to_bits(), full.cost.depth.to_bits(), "{ctx}");
                assert_eq!(
                    (gathered.degree, gathered.sketch_rows),
                    (full.degree, full.sketch_rows),
                    "{ctx}"
                );
                let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&gathered.dots), bits(&full.dots), "dots: {ctx}");
                assert!(gathered.dense_p.is_none() && full.dense_p.is_none());
            }
        }
    }
}

fn assert_expv_matches_exact(inst: &psdp_core::PackingInstance) {
    let n = inst.n();
    // Deterministic dual point with spread-out weights.
    let x: Vec<f64> = (0..n).map(|i| 0.05 + 0.03 * (i % 5) as f64).collect();
    let mut phi = inst.weighted_sum(&x);
    phi.symmetrize();
    let kappa = lambda_max_upper_bound(&phi);

    let eng = Engine::new(EngineKind::Expv { eps: 0.2 }, inst.mats(), 7).unwrap();
    let out1 = run_with_threads(1, || eng.compute(&phi, kappa, inst.mats(), 3).unwrap());
    let out4 = run_with_threads(4, || eng.compute(&phi, kappa, inst.mats(), 3).unwrap());

    // Bitwise pool-width invariance of the full evaluation.
    assert_eq!(out1.tr_w.to_bits(), out4.tr_w.to_bits(), "trace diverged across pools");
    for (a, b) in out1.dots.iter().zip(&out4.dots) {
        assert_eq!(a.to_bits(), b.to_bits(), "a dot diverged across pools");
    }

    // Accuracy against the dense reference (documented tolerance).
    let scale = out1.log_scale.exp();
    for (i, a) in inst.mats().iter().enumerate() {
        let want = exp_dot_exact(&phi, a).unwrap();
        let got = out1.dots[i] * scale;
        assert!(
            (got - want).abs() <= 1e-5 * want.abs().max(1e-8),
            "dot {i}: expv {got} vs exact {want} (m={}, kappa={kappa})",
            inst.dim()
        );
    }
}

/// The two expm-action paths against the dense `expm` reference and each
/// other on a moderately conditioned PSD matrix, including the
/// time-stepping regime (κ > 16 forces multiple Lanczos substeps).
#[test]
fn lanczos_and_chebyshev_match_dense_expm() {
    for (m, kappa) in [(9usize, 2.0f64), (14, 8.0), (11, 24.0)] {
        let mut b = pseudo(m, m, m as u64);
        b.symmetrize();
        let eig = psdp_linalg::sym_eigen(&b).unwrap();
        b.add_diag(-eig.lambda_min().min(0.0) + 0.01);
        let lmax = psdp_linalg::sym_eigen(&b).unwrap().lambda_max();
        b.scale(kappa / lmax);

        let truth = psdp_linalg::expm(&b).unwrap();
        let x: Vec<f64> = (0..m).map(|i| ((i * 3 + 1) % 7) as f64 * 0.2 - 0.5).collect();
        let want = psdp_linalg::matvec(&truth, &x);
        let wnorm = psdp_linalg::vecops::norm2(&want);

        // Lanczos path.
        let lan = expm_action_lanczos(&b, &x, kappa, 1e-11).unwrap();
        assert!(lan.residual <= 1e-10, "m={m} kappa={kappa}: residual {}", lan.residual);
        for (i, &wi) in want.iter().enumerate() {
            let got = lan.log_norm.exp() * lan.v[i];
            assert!(
                (got - wi).abs() <= 1e-7 * wnorm,
                "lanczos m={m} kappa={kappa} entry {i}: {got} vs {wi}"
            );
        }

        // Chebyshev path (block of one column).
        let mut block = Mat::zeros(m, 1);
        block.set_col(0, &x);
        let applied = chebyshev_exp_block(&b, &block, kappa, 1e-11);
        assert!(applied.coeff_tail <= 1e-11, "tail {}", applied.coeff_tail);
        let cheb_scale = applied.log_scale.exp();
        for (i, &wi) in want.iter().enumerate() {
            let got = applied.y[(i, 0)] * cheb_scale;
            assert!(
                (got - wi).abs() <= 1e-6 * wnorm,
                "chebyshev m={m} kappa={kappa} entry {i}: {got} vs {wi}"
            );
        }
    }
}

/// Expm-action kernels are bitwise pool-width invariant (their only
/// parallelism is the operator application, which is).
#[test]
fn expm_action_bitwise_across_thread_counts() {
    let m = 72; // big enough that matvec/matmul take their parallel paths
    let mut b = pseudo(m, m, 5);
    b.symmetrize();
    b.add_diag(2.5);
    let x: Vec<f64> = (0..m).map(|i| ((i * 5 + 2) % 11) as f64 * 0.1 - 0.5).collect();
    let kappa = lambda_max_upper_bound(&b);

    let l1 = run_with_threads(1, || expm_action_lanczos(&b, &x, kappa, 1e-10).unwrap());
    let l4 = run_with_threads(4, || expm_action_lanczos(&b, &x, kappa, 1e-10).unwrap());
    assert_eq!(l1.log_norm.to_bits(), l4.log_norm.to_bits());
    assert_eq!(l1.matvecs, l4.matvecs);
    for (a, c) in l1.v.iter().zip(&l4.v) {
        assert_eq!(a.to_bits(), c.to_bits(), "lanczos vector diverged across pools");
    }

    let block = pseudo(m, 3, 9);
    let c1 = run_with_threads(1, || chebyshev_exp_block(&b, &block, kappa, 1e-10));
    let c4 = run_with_threads(4, || chebyshev_exp_block(&b, &block, kappa, 1e-10));
    assert_eq!(c1.degree, c4.degree);
    for (a, c) in c1.y.as_slice().iter().zip(c4.y.as_slice()) {
        assert_eq!(a.to_bits(), c.to_bits(), "chebyshev block diverged across pools");
    }
}

/// The Taylor engine's dense primal path squares `p(Φ/2)` through `symmul`;
/// this pins the squared block against the general GEMM on the engine's
/// actual (nearly-symmetric) input so the half-flops kernel cannot drift
/// from the semantics it replaced: `symmul(S) = S·Sᵀ`, which for the
/// engine's symmetrized usage equals `S·S` to working precision.
#[test]
fn symmul_tracks_general_gemm_on_taylor_blocks() {
    let m = 24;
    let mut phi = pseudo(m, m, 11);
    phi.symmetrize();
    phi.add_diag(1.5);
    let degree = psdp_linalg::taylor_degree(lambda_max_upper_bound(&phi) * 0.5, 0.05);
    let s = psdp_linalg::apply_exp_taylor_block(&phi.scaled(0.5), &Mat::identity(m), degree);
    let via_symmul = symmul(&s);
    let via_gemm = {
        let mut c = matmul(&s, &s.transpose());
        c.symmetrize();
        c
    };
    let scale = via_gemm.max_abs();
    for (a, b) in via_symmul.as_slice().iter().zip(via_gemm.as_slice()) {
        assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b}");
    }
}

/// FNV-1a over the bit patterns of `xs`, continuing from `h`.
fn fold_bits(mut h: u64, xs: &[f64]) -> u64 {
    for x in xs {
        for byte in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Golden pin for the dense eigensolver: the bits of `sym_eigen`'s values
/// and eigenvectors and of `sym_eigenvalues` over a fixed family of
/// matrices, one hash per kind. Any change to the eigensolver's loops must
/// keep its arithmetic, and so these hashes, unchanged. The kinds are dense
/// pseudo-random matrices, diagonals with ties and zeros, repeated
/// eigenvalues (`c·I` and the complete graph's Laplacian `nI − J`), the
/// zero matrix, and sums of rank-one terms over a few scattered rows with
/// zero rows around them.
#[test]
fn sym_eigen_golden_pin() {
    let sizes = [1usize, 2, 3, 5, 8, 13, 32, 33, 64, 128];
    let mut next = det_stream(0x5EED_E16E);
    let mut kinds: Vec<(&str, Vec<Mat>)> = vec![
        ("dense", vec![]),
        ("diagonal", vec![]),
        ("repeated", vec![]),
        ("zero", vec![]),
        ("scattered", vec![]),
    ];
    for &n in &sizes {
        let mut dense = pseudo(n, n, n as u64);
        dense.symmetrize();
        kinds[0].1.push(dense);
        let diag: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        kinds[1].1.push(Mat::from_diag(&diag));
        kinds[2].1.push(Mat::identity(n).scaled(4.0));
        kinds[2].1.push(Mat::from_fn(n, n, |i, j| if i == j { n as f64 - 1.0 } else { -1.0 }));
        kinds[3].1.push(Mat::zeros(n, n));
        let rows = (n / 4).max(1);
        let support: Vec<usize> = (0..rows).map(|_| next() as usize % n).collect();
        let mut scattered = Mat::zeros(n, n);
        for _ in 0..4 {
            let mut u = vec![0.0; n];
            for _ in 0..3 {
                u[support[next() as usize % rows]] = (next() % 2001) as f64 / 1000.0 - 1.0;
            }
            scattered.rank1_update((next() % 1000) as f64 / 250.0, &u);
        }
        kinds[4].1.push(scattered);
    }
    let pins = [
        ("dense", 0x0022_32d5_e194_4a8a_u64),
        ("diagonal", 0xe8c5_26ea_3066_8078),
        ("repeated", 0x2d86_3058_6746_fb7a),
        ("zero", 0x5478_0e53_488e_7b38),
        ("scattered", 0x0765_8f30_9e13_5f41),
    ];
    for ((kind, mats), (pin_kind, pin)) in kinds.iter().zip(pins) {
        assert_eq!(*kind, pin_kind);
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for a in mats {
            let eig = psdp_linalg::sym_eigen(a).unwrap();
            h = fold_bits(h, &eig.values);
            h = fold_bits(h, eig.vectors.as_slice());
            h = fold_bits(h, &psdp_linalg::sym_eigenvalues(a).unwrap());
        }
        assert_eq!(h, pin, "{kind}: {h:#018x}");
    }
}
