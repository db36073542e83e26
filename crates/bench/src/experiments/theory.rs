//! E7 — iteration-complexity comparison (Section 1.1's discussion).
//!
//! Jain–Yao '11 cannot be run (its bound exceeds 10³⁰ iterations at toy
//! sizes — that infeasibility *is* the paper's point), so this table prints
//! the bound formulas side by side with our solver's measured iterations.

use crate::table::{f, Table};
use psdp_core::{
    jain_yao_iterations, ours_decision_iterations, width_dependent_iterations, DecisionOptions,
    PackingInstance, Solver,
};
use psdp_workloads::{random_factorized, RandomFactorized};

/// E7 table over a small (n, ε) grid.
pub fn e7_bound_comparison() -> Table {
    let mut t = Table::new(
        "E7: iteration bounds — ours (Thm 3.1) vs JY'11 vs width-dependent MMW (m=n, width=8)",
        &["n", "eps", "ours bound", "ours measured", "JY11 bound", "width-dep bound", "JY11/ours"],
    );
    for &(n, eps) in &[(8usize, 0.3), (16, 0.3), (16, 0.2), (32, 0.2), (64, 0.15)] {
        let mats = random_factorized(&RandomFactorized {
            dim: 10,
            n,
            rank: 2,
            nnz_per_col: 3,
            width: 1.0,
            seed: 13,
        });
        let inst = PackingInstance::new(mats).expect("valid").scaled(0.4);
        let solver =
            Solver::builder(&inst).options(DecisionOptions::practical(eps)).build().expect("build");
        let measured = solver.session().solve(1.0).expect("solve").stats.iterations;
        let ours = ours_decision_iterations(n, eps);
        let jy = jain_yao_iterations(n, n, eps);
        let wd = width_dependent_iterations(8.0, n, eps);
        t.row(vec![
            n.to_string(),
            f(eps),
            f(ours),
            measured.to_string(),
            f(jy),
            f(wd),
            f(jy / ours),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jy_ratio_astronomical() {
        let t = e7_bound_comparison();
        assert_eq!(t.len(), 5);
        for line in t.render().lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells.len() == 7 {
                let ratio: f64 = cells[6].parse().unwrap();
                assert!(ratio > 1e6, "JY bound should dwarf ours: {line}");
            }
        }
    }
}
