//! E3 — width-independence: the title claim.
//!
//! Our solver's iteration count must stay (near-)flat as the instance width
//! `ρ = maxᵢ λmax(Aᵢ)` grows, while the width-dependent MMW baseline's
//! schedule (and measured iterations) grows with `ρ`.

use crate::table::{f, Table};
use psdp_baselines::ak_decision;
use psdp_core::{width_dependent_iterations, DecisionOptions, Outcome, PackingInstance, Solver};
use psdp_workloads::{random_factorized, RandomFactorized};

/// One practical-constants decision solve through the session API.
fn practical_solve(inst: &PackingInstance, eps: f64) -> psdp_core::DecisionResult {
    let solver =
        Solver::builder(inst).options(DecisionOptions::practical(eps)).build().expect("build");
    solver.session().solve(1.0).expect("solve")
}

/// Instance with a dialed width: constraint 0 inflated `width×`.
fn instance(width: f64, seed: u64) -> PackingInstance {
    let mats = random_factorized(&RandomFactorized {
        dim: 10,
        n: 6,
        rank: 2,
        nnz_per_col: 3,
        width,
        seed,
    });
    PackingInstance::new(mats).expect("valid").scaled(0.4)
}

/// E3 table: ours vs width-dependent baseline across widths.
pub fn e3_width_independence() -> Table {
    let eps = 0.25;
    let mut t = Table::new(
        format!("E3: width-independence (eps={eps}, m=10, n=6; ours practical+exact engine)"),
        &["width", "ours iters", "ours value", "AK iters", "AK budget", "AK bound(formula)"],
    );
    for &w in &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let inst = instance(w, 11);
        let ours = practical_solve(&inst, eps);
        let ours_val = match &ours.outcome {
            Outcome::Dual(d) => d.value,
            Outcome::Primal(p) => 1.0 / p.min_dot.max(1e-12),
        };
        let ak = ak_decision(&inst, eps, 400_000).expect("ak");
        t.row(vec![
            f(w),
            ours.stats.iterations.to_string(),
            f(ours_val),
            ak.iterations.to_string(),
            ak.budget.to_string(),
            f(width_dependent_iterations(w.max(1.0), 10, eps)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ours_flat_baseline_grows() {
        let eps = 0.3;
        let narrow = instance(1.0, 5);
        let wide = instance(16.0, 5);
        let ours_n = practical_solve(&narrow, eps);
        let ours_w = practical_solve(&wide, eps);
        let ak_n = ak_decision(&narrow, eps, usize::MAX).unwrap();
        let ak_w = ak_decision(&wide, eps, usize::MAX).unwrap();
        // Baseline schedule must grow ~linearly with width…
        assert!(
            ak_w.budget as f64 >= 8.0 * ak_n.budget as f64,
            "AK budget did not grow: {} vs {}",
            ak_w.budget,
            ak_n.budget
        );
        // …while ours grows far slower than the width ratio (16×).
        let ours_ratio = ours_w.stats.iterations as f64 / ours_n.stats.iterations.max(1) as f64;
        assert!(ours_ratio < 4.0, "ours grew {ours_ratio}× on 16× width");
    }
}
