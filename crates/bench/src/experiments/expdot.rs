//! E4 / E5 / E14 — the `exp(Φ)•A` primitive: accuracy (Lemma 4.2 /
//! Theorem 4.1), near-linear work scaling (Corollary 1.2), and the wall
//! clock of one evaluation per engine at large `m` (DESIGN.md §12).

use super::median_wall;
use crate::table::{f, Table};
use psdp_expdot::{exp_dot_exact, Engine, EngineKind};
use psdp_linalg::{matmul, sym_eigen, Mat};
use psdp_sparse::Csr;
use psdp_workloads::{edge_packing, gnp, random_factorized, RandomFactorized};

/// Random PSD `Φ` with `‖Φ‖₂ = kappa` exactly (rescaled spectrum).
fn phi_with_norm(m: usize, kappa: f64, seed: u64) -> Mat {
    let mats = random_factorized(&RandomFactorized {
        dim: m,
        n: 3,
        rank: 3,
        nnz_per_col: m / 2,
        width: 1.0,
        seed,
    });
    let mut phi = Mat::zeros(m, m);
    for a in &mats {
        a.add_scaled_into(&mut phi, 0.7);
    }
    phi.symmetrize();
    let lam = sym_eigen(&phi).expect("eigen").lambda_max().max(1e-12);
    phi.scale(kappa / lam);
    phi
}

/// E4: engine accuracy vs κ. For each κ, the worst relative error of each
/// approximate engine against the exact one, plus degree/sketch telemetry.
pub fn e4_engine_accuracy() -> Table {
    let m = 12;
    let eps_taylor = 0.1;
    let eps_jl = 0.25;
    let mut t = Table::new(
        format!(
            "E4: exp(Phi).A accuracy vs kappa (m={m}; taylor eps={eps_taylor}, jl eps={eps_jl})"
        ),
        &["kappa", "taylor deg", "taylor max-err", "jl rows", "jl max-err", "jl deg"],
    );
    let mats = random_factorized(&RandomFactorized {
        dim: m,
        n: 5,
        rank: 2,
        nnz_per_col: 4,
        width: 1.0,
        seed: 3,
    });
    let taylor = Engine::new(EngineKind::Taylor { eps: eps_taylor }, &mats, 0).expect("engine");
    let jl = Engine::new(EngineKind::TaylorJl { eps: eps_jl, sketch_const: 4.0 }, &mats, 99)
        .expect("engine");

    for &kappa in &[1.0, 2.0, 4.0, 8.0, 16.0] {
        let phi = phi_with_norm(m, kappa, 17);
        let exact: Vec<f64> = mats.iter().map(|a| exp_dot_exact(&phi, a).expect("exact")).collect();
        let ty = taylor.compute(&phi, kappa, &mats, 1).expect("taylor");
        let jy = jl.compute(&phi, kappa, &mats, 1).expect("jl");
        let max_err = |got: &[f64]| -> f64 {
            got.iter()
                .zip(&exact)
                .map(|(g, e)| (g - e).abs() / e.abs().max(1e-300))
                .fold(0.0_f64, f64::max)
        };
        t.row(vec![
            f(kappa),
            ty.degree.to_string(),
            f(max_err(&ty.dots)),
            jy.sketch_rows.to_string(),
            f(max_err(&jy.dots)),
            jy.degree.to_string(),
        ]);
    }
    t
}

/// E5: analytic work of one sketched evaluation vs factorization size `q`
/// (edge-Laplacian instances over growing random graphs; `Φ` is the sparse
/// graph Laplacian so `nnz(Φ) = Θ(q)`). Inside Algorithm 3.1, Lemma 3.2
/// pins `‖Φ‖₂ ≤ O(ε⁻¹ log n)` *independent of the instance*, so the
/// experiment normalizes each Laplacian to the same spectral norm before
/// measuring — then `work/q` must flatten, which is the nearly-linear-work
/// claim of Theorem 4.1 / Corollary 1.2.
pub fn e5_work_scaling() -> Table {
    let n_vertices = 48;
    let eps = 0.3;
    let kappa = 8.0; // stands in for the Lemma 3.2 bound (fixed across sizes)
    let mut t = Table::new(
        format!(
            "E5: near-linear work in q (TaylorJl engine, |V|={n_vertices}, eps={eps}, \
             ||Phi|| normalized to {kappa})"
        ),
        &["edges", "q", "nnz(Phi)", "work", "work/q", "depth"],
    );
    for &p in &[0.05, 0.1, 0.2, 0.4, 0.8] {
        let g = gnp(n_vertices, p, 5);
        if g.m() == 0 {
            continue;
        }
        let mats = edge_packing(&g);
        let inst_q: usize = mats.iter().map(|a| a.storage_nnz()).sum();
        let mut lap = g.laplacian();
        // Normalize ‖Φ‖₂ to κ using the certified Laplacian bound
        // λmax ≤ 2·max weighted degree.
        let deg_bound = 2.0
            * (0..n_vertices)
                .map(|v| lap.row_iter(v).map(|(_, w)| w.abs()).sum::<f64>())
                .fold(0.0_f64, f64::max);
        lap.scale(kappa / deg_bound.max(1e-12));
        let engine =
            Engine::new(EngineKind::TaylorJl { eps, sketch_const: 2.0 }, &mats, 7).expect("engine");
        let out = engine.compute_op(&lap, kappa, 1);
        t.row(vec![
            g.m().to_string(),
            inst_q.to_string(),
            psdp_linalg::SymOp::nnz(&lap).to_string(),
            f(out.cost.work),
            f(out.cost.work / inst_q as f64),
            f(out.cost.depth),
        ]);
    }
    t
}

/// Timed runs per E14 cell.
const E14_REPS: usize = 3;

/// E14 tables: the wall clock of one full `ExpDots` evaluation (all dots
/// plus the trace) per engine on a random-factorized instance of dimension
/// `m` (n = 8, rank 1, 3 nnz per column) with Φ scaled to κ = 16, passing
/// Φ dense and, for the matvec engines, as a CSR operator through
/// `compute_op`; then the blocked GEMM `A·A` at each of `gemm_dims`.
pub fn e14_kernel_stack(m: usize, gemm_dims: &[usize]) -> Vec<Table> {
    let mats = random_factorized(&RandomFactorized {
        dim: m,
        n: 8,
        rank: 1,
        nnz_per_col: 3,
        width: 1.0,
        seed: 5,
    });
    let mut phi = Mat::zeros(m, m);
    for a in &mats {
        a.add_scaled_into(&mut phi, 0.3);
    }
    phi.symmetrize();
    let kappa = 16.0; // the solver's mid-bisection regime
    let lam = sym_eigen(&phi).expect("eigen").lambda_max();
    phi.scale(kappa / lam);
    let sparse = Csr::from_dense(&phi, 0.0);

    let mut engines = Table::new(
        format!(
            "E14: engine evaluation at m={m}, kappa={kappa} (one ExpDots = dots + trace; \
             median of {E14_REPS})"
        ),
        &["engine", "dense Phi ms", "sparse-op Phi ms"],
    );
    for kind in [
        EngineKind::Exact,
        EngineKind::TaylorJl { eps: 0.25, sketch_const: 2.0 },
        EngineKind::Expv { eps: 0.25 },
    ] {
        let eng = Engine::new(kind, &mats, 0).expect("engine");
        let (dense, _) =
            median_wall(E14_REPS, || eng.compute(&phi, kappa, &mats, 1).expect("evaluation"));
        // The exact engine eigendecomposes a dense Φ; it has no operator path.
        let op = (kind != EngineKind::Exact)
            .then(|| median_wall(E14_REPS, || eng.compute_op(&sparse, kappa, 1)).0);
        engines.row(vec![
            kind.name().to_string(),
            f(dense.as_secs_f64() * 1e3),
            op.map_or_else(|| "-".into(), |d| f(d.as_secs_f64() * 1e3)),
        ]);
    }

    let mut gemm = Table::new("E14: blocked GEMM, A*A (median of 10)", &["m", "gemm us"]);
    for &d in gemm_dims {
        let mut a = Mat::from_fn(d, d, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0);
        a.symmetrize();
        a.add_diag(1.0);
        let (t, _) = median_wall(10, || matmul(&a, &a));
        gemm.row(vec![d.to_string(), f(t.as_secs_f64() * 1e6)]);
    }
    vec![engines, gemm]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_taylor_errors_within_eps() {
        let t = e4_engine_accuracy();
        assert_eq!(t.len(), 5);
        for line in t.render().lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells.len() == 6 {
                let taylor_err: f64 = cells[2].parse().unwrap_or(1.0);
                assert!(taylor_err <= 0.1 + 1e-9, "taylor error too big: {line}");
            }
        }
    }

    #[test]
    fn e5_work_per_q_flattens() {
        let t = e5_work_scaling();
        assert!(t.len() >= 4);
        // Extract work/q column; the largest instance's ratio must be within
        // 4x of the smallest's (log factors allowed, not polynomial growth),
        // while q itself grows by >10x.
        let mut qs = Vec::new();
        let mut ratios = Vec::new();
        for line in t.render().lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells.len() == 6 {
                qs.push(cells[1].parse::<f64>().unwrap());
                ratios.push(cells[4].parse::<f64>().unwrap());
            }
        }
        let qr = qs.last().unwrap() / qs.first().unwrap();
        assert!(qr > 8.0, "q range too small: {qr}");
        let rr = ratios.last().unwrap() / ratios.first().unwrap();
        assert!(rr < 4.0, "work/q grew {rr}x over a {qr}x q range");
    }

    /// Every engine evaluates on both Φ routes it supports at a small `m`,
    /// and every GEMM size is timed.
    #[test]
    fn e14_times_every_engine_at_small_m() {
        let tables = e14_kernel_stack(24, &[8]);
        assert_eq!(tables[0].len(), 3);
        assert_eq!(tables[1].len(), 1);
    }
}
