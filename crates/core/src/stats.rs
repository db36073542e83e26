//! Per-solve telemetry: iteration counts, analytic work/depth, trajectories.
//!
//! Every experiment in EXPERIMENTS.md reads these numbers, so the solver
//! records them unconditionally (the overhead is a handful of scalars per
//! iteration).

use crate::solution::ExitReason;
use psdp_parallel::Cost;
use std::time::Duration;

/// Telemetry from one `decisionPSDP` run.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Iterations executed (the paper's `t` at exit).
    pub iterations: usize,
    /// Why the loop stopped.
    pub exit: ExitReason,
    /// `‖x‖₁` at exit.
    pub final_norm1: f64,
    /// The `K` threshold in force.
    pub k_threshold: f64,
    /// The step size `α` in force.
    pub alpha: f64,
    /// The iteration cap in force (`R` or practical `max_iters`).
    pub iteration_cap: usize,
    /// Sum of analytic engine costs (work–depth model, Corollary 1.2).
    pub cost: Cost,
    /// Engine name: the resolved kind's `EngineKind::name` (`exact` /
    /// `taylor` / `taylor+jl` / `expv`; `Auto` resolves before solving).
    pub engine: &'static str,
    /// Mean number of coordinates stepped per iteration.
    pub avg_selected: f64,
    /// Largest `κ` (spectral-norm bound for `Ψ`) passed to the engine —
    /// compare against the Lemma 3.2 bound `(1+10ε)K`.
    pub kappa_max: f64,
    /// Full from-scratch rebuilds the incremental Ψ maintenance performed
    /// (see [`crate::psi::PsiMaintainer`]).
    pub psi_rebuilds: usize,
    /// Largest relative drift between the incrementally maintained Ψ and a
    /// from-scratch rebuild, across all rebuilds (0 when none happened).
    pub psi_max_drift: f64,
    /// The decision threshold `σ` this solve tested (1.0 for the classic
    /// one-shot [`crate::decision_psdp`]).
    pub threshold: f64,
    /// Whether the solve started from a warm iterate — a rescaled earlier
    /// iterate instead of the cold start point `x⁰` (see `crate::solver`).
    pub warm_started: bool,
    /// Engine evaluations performed (one per iteration that refreshed the
    /// engine output; the mixed loop evaluates both sides).
    pub engine_evals: usize,
    /// Wall-clock time of the solve.
    pub wall: Duration,
    /// Sampled `‖x(t)‖₁` trajectory (every `sample_every` iterations).
    pub norm_trajectory: Vec<(usize, f64)>,
}

/// Per-bracket breakdown of one [`crate::Session::optimize`] /
/// [`crate::solve_packing`] run: which threshold was tested, which side was
/// certified, where the bracket moved, and what the warm start saved.
#[derive(Debug, Clone)]
pub struct BracketStats {
    /// The tested threshold `σ = √(lo·hi)`.
    pub sigma: f64,
    /// Whether the call certified the dual (feasible) side.
    pub dual_side: bool,
    /// Certified lower bound after this bracket's update.
    pub lo: f64,
    /// Certified upper bound after this bracket's update.
    pub hi: f64,
    /// Total iterations spent on this bracket, including any discarded
    /// warm attempts and certificate-seeking escalations.
    pub iterations: usize,
    /// The part of `iterations` spent on discarded attempts: warm attempts,
    /// cold solves or escalations whose outcome the bracket did not keep.
    pub discarded_iterations: usize,
    /// Engine evaluations spent on this bracket, including discarded
    /// attempts.
    pub engine_evals: usize,
    /// Whether any solve of this bracket started from a warm iterate.
    pub warm_started: bool,
    /// Wall-clock time spent on this bracket, including discarded
    /// attempts.
    pub wall: Duration,
}
