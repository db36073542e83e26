//! E11 — cold vs warm bisection: cross-bracket iterate continuation.
//!
//! The session API prepares the engine once per instance and warm-starts
//! each bisection bracket from the previous bracket's final iterate,
//! rescaled to the new threshold (see `psdp_core::solver`). Bracket moves
//! are driven by quantized *strong* certificates (dual value ≥ 1 / primal
//! min-dot ≥ 1), with weak warm outcomes discarded in favor of a cold
//! re-run — which is what keeps the certified brackets bitwise-identical
//! between warm and cold runs whenever both paths resolve each threshold
//! to the same strong side (see `psdp_core::solver` for the exact
//! statement and its knife-edge caveat). This experiment measures both
//! properties on
//! the E8 quality families in the serving configuration (no dense-`Y`
//! accumulation): identical brackets, and substantially fewer total
//! iterations (the cold path must ramp `‖x‖₁` from `‖x⁰‖₁ ≪ 1` up to `K`
//! inside every bracket). The wall-clock columns time each bisection once.

use super::median_wall;
use crate::table::{f, Table};
use psdp_core::{ApproxOptions, PackingInstance, PackingReport, Solver};
use psdp_workloads::{commuting_family, edge_packing, gnp, random_lp_diagonal};

/// Run the session bisection with warm starts on or off.
fn bisect(inst: &PackingInstance, opts: &ApproxOptions, warm: bool) -> PackingReport {
    let solver = Solver::builder(inst).options(opts.decision).build().expect("build");
    let opts = ApproxOptions { warm_start: warm, ..*opts };
    solver.session().optimize(&opts).expect("solve")
}

/// The instance families E11 sweeps (the E8 quality families).
pub fn e11_instances() -> Vec<(String, PackingInstance)> {
    let mut instances: Vec<(String, PackingInstance)> = Vec::new();
    for seed in [1u64, 2, 3] {
        instances.push((
            format!("diagonal(s{seed})"),
            PackingInstance::new(random_lp_diagonal(8, 6, 0.6, seed)).expect("valid"),
        ));
    }
    for seed in [5u64, 6] {
        instances.push((
            format!("commuting(s{seed})"),
            PackingInstance::new(commuting_family(8, 5, 0.3, seed).mats).expect("valid"),
        ));
    }
    instances.push((
        "edge_packing(gnp)".into(),
        PackingInstance::new(edge_packing(&gnp(12, 0.4, 7))).expect("valid"),
    ));
    instances
}

/// E11 table: per instance, cold vs warm total work and bracket identity.
pub fn e11_warmstart() -> Table {
    let eps = 0.1;
    let opts = ApproxOptions::serving(eps);
    let mut t = Table::new(
        format!("E11: cold vs warm bisection (eps={eps}, serving config: no dense-Y accumulation)"),
        &[
            "family",
            "calls",
            "cold iters",
            "warm iters",
            "iters saved",
            "cold evals",
            "warm evals",
            "cold ms",
            "warm ms",
            "bracket bitwise equal",
        ],
    );

    for (name, inst) in &e11_instances() {
        let (cold_wall, cold) = median_wall(1, || bisect(inst, &opts, false));
        let (warm_wall, warm) = median_wall(1, || bisect(inst, &opts, true));
        let identical = cold.value_lower.to_bits() == warm.value_lower.to_bits()
            && cold.value_upper.to_bits() == warm.value_upper.to_bits()
            && cold.decision_calls == warm.decision_calls
            && cold.converged == warm.converged;
        t.row(vec![
            name.clone(),
            warm.decision_calls.to_string(),
            cold.total_iterations.to_string(),
            warm.total_iterations.to_string(),
            f(1.0 - warm.total_iterations as f64 / cold.total_iterations.max(1) as f64),
            cold.total_engine_evals.to_string(),
            warm.total_engine_evals.to_string(),
            f(cold_wall.as_secs_f64() * 1e3),
            f(warm_wall.as_secs_f64() * 1e3),
            identical.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criteria of the warm-start design, checked end to
    /// end: bitwise-identical certified brackets, and measurably fewer
    /// total iterations than cold start across the families.
    #[test]
    fn e11_brackets_identical_and_work_saved() {
        let t = e11_warmstart();
        assert!(t.len() >= 6);
        let mut cold_total = 0usize;
        let mut warm_total = 0usize;
        for line in t.render().lines().skip(3) {
            assert!(line.trim_end().ends_with("true"), "warm/cold diverged: {line}");
            let cells: Vec<&str> = line.split_whitespace().collect();
            let cold: usize = cells[cells.len() - 8].parse().unwrap();
            let warm: usize = cells[cells.len() - 7].parse().unwrap();
            cold_total += cold;
            warm_total += warm;
        }
        assert!(
            (warm_total as f64) < 0.8 * cold_total as f64,
            "warm start saved too little: {warm_total} vs {cold_total}"
        );
    }
}
