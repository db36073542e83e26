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
use psdp_sparse::{Csr, FactorPsd, PsdMatrix};
use psdp_test_support::{
    arb_factorized_instance, arb_sparse_graph_instance, det_stream, factorized_instance,
    FactorizedSpec,
};

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

/// Drive a pattern-stored maintainer and its dense-stored twin through
/// updates and a rebuild, checking at every state that the κ bound and one
/// Expv evaluation through the view equal the dense path bit for bit.
/// Returns, for the final state, how many rows the view reports as exactly
/// zero and the analytic work of the view and dense evaluations.
fn assert_view_matches_dense(inst: &PackingInstance, salt: u64, eps: f64) -> (usize, f64, f64) {
    let mut next = det_stream(salt);
    let mut x = random_x(inst.n(), &mut next);
    let pattern = PsiPattern::new(inst);
    let mut psi = PsiMaintainer::with_pattern(inst, &x, 0, &pattern);
    let mut twin = PsiMaintainer::new(inst, &x, 0);
    let eng = Engine::new(EngineKind::Expv { eps }, inst.mats(), 7).unwrap();
    let mut work = (0.0, 0.0);
    for round in 0..4 {
        match round {
            0 => {}
            3 => {
                psi.rebuild(&x);
                twin.rebuild(&x);
            }
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
                twin.apply_updates(&deltas);
            }
        }
        let dense = twin.matrix().expect("dense storage");
        let kappa = psi.kappa_bound();
        assert_eq!(
            kappa.to_bits(),
            lambda_max_upper_bound(dense).to_bits(),
            "round {round}: κ bound differs over the pattern"
        );
        let view = psi.view().expect("maintainer carries a pattern");
        for threads in [1, 4] {
            let sparse = run_with_threads(threads, || eng.compute_op(&view, kappa, 3));
            let dense =
                run_with_threads(threads, || eng.compute(dense, kappa, inst.mats(), 3).unwrap());
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

/// Bitwise equal, except that an exact zero may differ in sign.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
}

/// Drive a pattern-stored maintainer and its dense-stored twin through the
/// same 240 rounds of batched updates with a rebuild every 16, asserting
/// after every round that the slots hold the dense entries' bits (and the
/// dense matrix only `+0.0` off the pattern), that the κ bound, rebuild
/// count and largest drift agree bit for bit, and every 40 rounds that one
/// Expv evaluation through each gives the same bits.
fn assert_pattern_psi_matches_dense(name: &str, inst: &PackingInstance, salt: u64) {
    let pattern = PsiPattern::new(inst);
    let eng = Engine::new(EngineKind::Expv { eps: 0.3 }, inst.mats(), 7).unwrap();
    let mut next = det_stream(salt);
    let mut x = random_x(inst.n(), &mut next);
    let mut slots = PsiMaintainer::with_pattern(inst, &x, 16, &pattern);
    let mut dense = PsiMaintainer::new(inst, &x, 16);
    assert!(slots.matrix().is_none(), "{name}: pattern storage holds a dense matrix");
    for round in 0..=240 {
        if round > 0 {
            // Every coordinate in every third round; coordinates 4 mod 5
            // never move, so those at zero stay zero through the rebuilds.
            let mut deltas = Vec::new();
            for (i, xi) in x.iter_mut().enumerate().filter(|(i, _)| i % 5 != 4) {
                if round % 3 == 0 || next().is_multiple_of(2) {
                    let d = 0.002 + (next() % 100) as f64 * 1e-4;
                    *xi += d;
                    deltas.push((i, d));
                }
            }
            slots.apply_updates(&deltas);
            dense.apply_updates(&deltas);
            let rebuilt = slots.maybe_rebuild(&x);
            assert_eq!(rebuilt, dense.maybe_rebuild(&x), "{name}, round {round}");
        }
        let ctx = format!("{name}, round {round}");
        let (got, want) = (slots.dense(), dense.matrix().expect("dense storage"));
        for (k, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(same_bits(*a, *b), "{ctx}: entry {k}: {a:e} vs {b:e}");
        }
        assert_eq!(slots.kappa_bound().to_bits(), dense.kappa_bound().to_bits(), "{ctx}");
        assert_eq!(slots.rebuilds(), dense.rebuilds(), "{ctx}");
        assert_eq!(slots.max_drift().to_bits(), dense.max_drift().to_bits(), "{ctx}");
        if round % 40 == 0 {
            let kappa = dense.kappa_bound();
            let view = slots.view().expect("pattern storage");
            let a = eng.compute_op(&view, kappa, round as u64);
            let b = eng.compute_op(want, kappa, round as u64);
            assert_eq!(a.tr_w.to_bits(), b.tr_w.to_bits(), "tr_w: {ctx}");
            assert_eq!(a.log_scale.to_bits(), b.log_scale.to_bits(), "log_scale: {ctx}");
            assert_eq!((a.degree, a.sketch_rows), (b.degree, b.sketch_rows), "{ctx}");
            let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.dots), bits(&b.dots), "dots: {ctx}");
        }
    }
    assert_eq!(dense.rebuilds(), 15, "{name}");
}

/// A rank-2 dense PSD constraint on `m` rows from hashed entries, with an
/// asymmetry of about 1e-13 so that symmetrization changes bits.
fn hashed_dense(m: usize, salt: u64) -> PsdMatrix {
    let q = pseudo(m, 2, salt);
    let mut a = matmul(&q, &q.transpose());
    a[(0, m - 1)] += 1e-13;
    PsdMatrix::Dense(a)
}

/// Rank-1 constraints `vvᵀ` on `m` rows, each `v` with `nnz` hashed
/// entries at hashed rows.
fn hashed_rank1(m: usize, n: usize, nnz: usize, salt: u64) -> Vec<PsdMatrix> {
    let mut next = det_stream(salt);
    (0..n)
        .map(|_| {
            let mut v = vec![0.0; m];
            for _ in 0..nnz {
                v[(next() % m as u64) as usize] = 0.1 + (next() % 1000) as f64 * 1e-3;
            }
            PsdMatrix::Factor(FactorPsd::from_vector(&v))
        })
        .collect()
}

/// Whether `PsiPattern::new` keeps `inst`'s entries expanded onto the
/// slots: 12 bytes an entry, kept within the 8·m² bytes of a dense Ψ.
fn expands(inst: &PackingInstance) -> bool {
    let mut entries = 0;
    for a in inst.mats() {
        a.for_each_entry(|_, _, _| entries += 1);
    }
    12 * entries <= 8 * inst.dim() * inst.dim()
}

/// Pattern-stored Ψ against dense-stored Ψ (DESIGN.md §4), bit for bit,
/// for every storage kind, all four in one instance, and two instances
/// large enough that rebuilds take `weighted_sum`'s chunked path (n ≥ 128
/// and total storage nonzeros ≥ 2 · ⌈n/64⌉ · m²), one with its entries
/// expanded onto the slots and one mapping them as they are visited. The
/// pool has 4 workers, so that path and the dense storage's parallel
/// update scatter (batches of ≥ 8 constraints and ≥ 2¹⁴ nonzeros, met by
/// the dense and chunked instances' all-coordinate rounds) run on it.
#[test]
fn pattern_psi_bitwise_equals_dense_psi() {
    let inst = |mats: Vec<PsdMatrix>| PackingInstance::new(mats).unwrap();
    let dense = inst((0..24).map(|k| hashed_dense(32, k)).collect());
    let sparse = inst(
        (0..12)
            .map(|k| {
                let (i, j) = (k % 16, (3 * k + 5) % 16);
                let w = 0.5 + 0.1 * k as f64;
                PsdMatrix::Sparse(Csr::from_triplets(
                    16,
                    16,
                    &[(i, i, w), (i, j, -w), (j, i, -w), (j, j, w)],
                ))
            })
            .collect(),
    );
    let factor = factorized_instance(&FactorizedSpec::new(16, 10, 5));
    let diagonal = inst(
        (0..10)
            .map(|k| PsdMatrix::Diagonal((0..12).map(|r| ((k + r) % 4) as f64 * 0.5).collect()))
            .collect(),
    );
    let mut mixed = hashed_rank1(10, 3, 3, 11);
    mixed.push(hashed_dense(10, 3));
    mixed.push(PsdMatrix::Diagonal((0..10).map(|r| (r % 3) as f64).collect()));
    mixed.push(PsdMatrix::Sparse(Csr::from_triplets(
        10,
        10,
        &[(2, 2, 1.0), (2, 7, 0.5), (7, 2, 0.5), (7, 7, 1.0)],
    )));
    let mixed = inst(mixed);
    // Six of the 140 rank-1 constraints stored densely on m = 64: their
    // 6·64² storage nonzeros take the chunked path, their 9 entries each
    // keep the expansion within 8·m² bytes.
    let mut chunked_expanded = hashed_rank1(64, 140, 3, 13);
    for k in [10, 30, 50, 70, 90, 110] {
        chunked_expanded[k] = PsdMatrix::Dense(chunked_expanded[k].to_dense());
    }
    let chunked_expanded = inst(chunked_expanded);
    let mut chunked = hashed_rank1(8, 140, 3, 13);
    chunked[70] = hashed_dense(8, 1);
    let chunked = inst(chunked);
    for inst in [&chunked_expanded, &chunked] {
        let chunks = inst.n().div_ceil(64);
        let m2 = inst.dim() * inst.dim();
        assert!(inst.n() >= 128 && inst.total_nnz() >= 2 * chunks * m2, "not chunked");
    }
    let cases = [
        ("dense", dense),
        ("sparse", sparse),
        ("factor", factor),
        ("diagonal", diagonal),
        ("mixed storage", mixed),
        ("chunked rebuild, expanded", chunked_expanded),
        ("chunked rebuild", chunked),
    ];
    let expanded: Vec<bool> = cases.iter().map(|(_, inst)| expands(inst)).collect();
    assert_eq!(expanded, [false, true, true, true, false, true, false]);
    for (name, inst) in &cases {
        run_with_threads(4, || assert_pattern_psi_matches_dense(name, inst, 17));
    }
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
