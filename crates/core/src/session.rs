//! The session and the decision-call skeleton both families share
//! (DESIGN.md §8 has the design).
//!
//! Packing (Algorithm 3.1, [`crate::solver`]) is the mixed
//! packing–covering problem ([`crate::mixed`], Jain–Yao) with a 1×1
//! covering side `Cᵢ = [1]`, so their decision calls differ only in the
//! per-round [`Rule`]. A [`Side`] is one prepared constraint family;
//! [`crate::Solver`] holds one, [`crate::MixedSolver`] two. A [`Session`]
//! over either holds the observers and runs each call through
//! `Session::run`, generic over the rule, so each family's loop is
//! monomorphic.
//!
//! [`Observer`]s registered on a session receive [`IterationEvent`]s from
//! inside the loop and [`PhaseEvent`]s at solve and bracket boundaries; an
//! observer can stop a solve early by returning [`ObserverControl::Stop`]
//! (the solve exits with [`ExitReason::ObserverStopped`] and an
//! *uncertified* outcome), so telemetry, progress streaming and early-stop
//! injection never fork the loop.

use crate::bisect::{Attempt, Call};
use crate::error::PsdpError;
use crate::instance::PackingInstance;
use crate::psi::{PsiMaintainer, PsiPattern, PSI_REBUILD_PERIOD};
use crate::solution::ExitReason;
use crate::solver::Solver;
use crate::stats::SolveStats;
use psdp_expdot::{Engine, EngineKind, ExpDots};
use psdp_parallel::Cost;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What an [`Observer`] tells the solve loop after each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverControl {
    /// Keep iterating.
    Continue,
    /// Stop the solve now; it exits with [`ExitReason::ObserverStopped`].
    Stop,
}

/// Per-iteration telemetry delivered to [`Observer::on_iteration`].
///
/// All quantities are in the scaled (threshold-1) frame the decision
/// problem is stated in, matching [`SolveStats`].
#[derive(Debug, Clone, Copy)]
pub struct IterationEvent {
    /// The threshold `σ` of the running solve.
    pub threshold: f64,
    /// Iteration counter `t` (1-based).
    pub t: usize,
    /// `‖x‖₁` after this iteration's update.
    pub norm1: f64,
    /// Number of coordinates stepped this iteration.
    pub selected: usize,
    /// Spectral-norm bound `κ` passed to the engine this iteration.
    pub kappa: f64,
    /// Smallest constraint ratio `P•Aᵢ` this iteration (over active
    /// coordinates).
    pub min_ratio: f64,
}

/// Phase-boundary events delivered to [`Observer::on_phase`].
#[derive(Debug, Clone, Copy)]
pub enum PhaseEvent<'a> {
    /// A decision solve is starting.
    SolveStarted {
        /// Threshold `σ` being tested.
        threshold: f64,
        /// Whether the solve starts from a warm iterate.
        warm: bool,
    },
    /// A decision solve finished; full telemetry attached.
    SolveFinished {
        /// Threshold `σ` that was tested.
        threshold: f64,
        /// The solve's telemetry.
        stats: &'a SolveStats,
    },
    /// [`Session::optimize`] moved its bracket after a decision call.
    BracketUpdated {
        /// Threshold that was tested.
        sigma: f64,
        /// Certified lower bound after the update.
        lo: f64,
        /// Certified upper bound after the update.
        hi: f64,
        /// Whether the call certified the dual (feasible) side.
        dual_side: bool,
    },
}

/// Hooks threaded through the iterate loop and the bisection.
///
/// Default implementations do nothing, so an observer only implements what
/// it needs. Observers run synchronously on the solve thread; keep
/// [`Observer::on_iteration`] cheap.
pub trait Observer {
    /// Called at solve and bracket boundaries.
    fn on_phase(&mut self, _event: &PhaseEvent<'_>) {}

    /// Called once per iteration, after the update and exit checks.
    /// Returning [`ObserverControl::Stop`] ends the solve with
    /// [`ExitReason::ObserverStopped`].
    fn on_iteration(&mut self, _event: &IterationEvent) -> ObserverControl {
        ObserverControl::Continue
    }
}

/// One prepared constraint side: the engine (`Auto` resolved, support-local
/// factorizations built), the per-constraint traces and `Ψ`'s sparsity
/// pattern, built on the first solve and only for the `Expv` engine.
pub(crate) struct Side<'i> {
    pub(crate) inst: &'i PackingInstance,
    pub(crate) engine: Arc<Engine>,
    pub(crate) traces: Vec<f64>,
    pattern: OnceLock<PsiPattern>,
}

impl<'i> Side<'i> {
    /// Construct the engine of `kind` over `inst` exactly once.
    pub(crate) fn build(
        inst: &'i PackingInstance,
        kind: EngineKind,
        seed: u64,
    ) -> Result<Self, PsdpError> {
        Ok(Side::with(inst, Arc::new(Engine::new(kind, inst.mats(), seed)?)))
    }

    /// Reuse a prepared engine after checking everything observable about
    /// it: its dimension, its seed, and its concrete kind against `kind`
    /// resolved for `inst`. Full instance identity is the caller's
    /// cache-key responsibility (DESIGN.md §10). `name` names the side in
    /// the error.
    pub(crate) fn reuse(
        inst: &'i PackingInstance,
        engine: Arc<Engine>,
        kind: EngineKind,
        seed: u64,
        name: &str,
    ) -> Result<Self, PsdpError> {
        let (dim, want) = (inst.dim(), kind.resolve(inst.dim(), inst.total_nnz()));
        let fault = if engine.dim() != dim {
            format!("prepared {name} engine has dim {}, instance has dim {dim}", engine.dim())
        } else if engine.seed() != seed {
            format!(
                "prepared {name} engine was built with seed {}, options ask for seed {seed}",
                engine.seed()
            )
        } else if engine.kind() != want {
            format!(
                "prepared {name} engine kind {:?} does not match requested kind {want:?}",
                engine.kind()
            )
        } else {
            return Ok(Side::with(inst, engine));
        };
        Err(PsdpError::InvalidInstance(fault))
    }

    fn with(inst: &'i PackingInstance, engine: Arc<Engine>) -> Self {
        let traces = inst.mats().iter().map(|a| a.trace()).collect();
        Side { inst, engine, traces, pattern: OnceLock::new() }
    }

    /// Start maintaining `Ψ = Σ xᵢAᵢ` over this side. The `Expv` engine
    /// takes `Ψ` through its pattern view ([`crate::PsiView`]), so its
    /// maintainer carries the pattern, shared by every solve of the side;
    /// the dense engines get a plain maintainer and never build one.
    fn psi(&self, x: &[f64]) -> PsiMaintainer<'_> {
        if matches!(self.engine.kind(), EngineKind::Expv { .. }) {
            let pattern = self.pattern.get_or_init(|| PsiPattern::new(self.inst));
            PsiMaintainer::with_pattern(self.inst, x, PSI_REBUILD_PERIOD, pattern)
        } else {
            PsiMaintainer::new(self.inst, x, PSI_REBUILD_PERIOD)
        }
    }

    /// One engine evaluation at the current `Ψ`: through the pattern view
    /// when the maintainer has one (the `Expv` engine), else on the dense
    /// matrix.
    pub(crate) fn evaluate(
        &self,
        psi: &PsiMaintainer<'_>,
        kappa: f64,
        stream: u64,
    ) -> Result<ExpDots, PsdpError> {
        Ok(match psi.view() {
            Some(view) => self.engine.compute_op(&view, kappa, stream),
            None => {
                let psi = psi.matrix().expect("Ψ without a pattern is stored densely");
                self.engine.compute(psi, kappa, self.inst.mats(), stream)?
            }
        })
    }
}

/// A stateful solve session over a prepared [`Solver`] (or, as
/// [`crate::MixedSession`], over a [`crate::MixedSolver`]).
///
/// Owns the registered observers. Create with [`Solver::session`]; run
/// ε-decision solves with [`Session::solve`] / [`Session::solve_with`] and
/// full certified optimization with [`Session::optimize`]. No solve leaves
/// state behind for a later one.
pub struct Session<'i, 's, S = Solver<'i>> {
    solver: &'s S,
    /// The solver's prepared sides; each has one constraint per
    /// coordinate.
    sides: &'s [Side<'i>],
    observers: Vec<Box<dyn Observer>>,
    solves: usize,
}

impl<'i, 's, S> Session<'i, 's, S> {
    /// A session over `solver`, whose prepared sides are `sides`, with no
    /// observers.
    pub(crate) fn new(solver: &'s S, sides: &'s [Side<'i>]) -> Self {
        Session { solver, sides, observers: Vec::new(), solves: 0 }
    }

    pub(crate) fn solver(&self) -> &'s S {
        self.solver
    }

    /// Register an observer for subsequent solves. The mixed session
    /// shares it: there `norm1` in [`IterationEvent`] carries the soft-min
    /// coverage bound.
    pub fn add_observer(&mut self, obs: Box<dyn Observer>) {
        self.observers.push(obs);
    }

    /// Number of decision solves this session has run.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Deliver a phase event to every observer, in registration order.
    pub(crate) fn phase(&mut self, event: &PhaseEvent<'_>) {
        for obs in &mut self.observers {
            obs.on_phase(event);
        }
    }

    /// Run one decision call at threshold `sigma` under the rule `make`
    /// builds from the solver and the call's [`Frame`], optionally
    /// restricted to an active-coordinate mask (Lemma 2.2 pruning) and
    /// optionally from a warm iterate `start` (original coordinates). The
    /// call returns its final iterate with its outcome.
    pub(crate) fn run<R: Rule>(
        &mut self,
        sigma: f64,
        mask: Option<Vec<bool>>,
        start: Option<Vec<f64>>,
        make: impl FnOnce(&'s S, &Frame<'_>) -> R,
    ) -> Call<R::Outcome> {
        if !(sigma > 0.0 && sigma.is_finite()) {
            return Err(PsdpError::InvalidInstance(format!(
                "{} threshold must be positive and finite, got {sigma}",
                R::THRESHOLD
            )));
        }
        let wall_start = Instant::now();
        self.solves += 1;
        let (solver, sides, warm) = (self.solver, self.sides, start.is_some());
        let n = sides[0].inst.n();
        let active: Vec<bool> = mask.unwrap_or_else(|| vec![true; n]);
        debug_assert_eq!(active.len(), n);
        let n_active = active.iter().filter(|&&b| b).count();
        if n_active == 0 {
            return Err(PsdpError::InvalidInstance("active-coordinate mask is empty".into()));
        }
        let mut f = Frame { sigma, active, n_active, ..Frame::default() };
        let mut rule = make(solver, &f);
        let (k_threshold, alpha, cap) = rule.plan();
        // The rule's cold start unless a warm iterate was handed in; masked
        // coordinates are frozen at 0 — exactly the Lemma 2.2 restriction.
        f.x = match start {
            Some(u) => u,
            None => {
                (0..n).map(|k| if f.active[k] { rule.cold_start(&f, k) } else { 0.0 }).collect()
            }
        };
        debug_assert_eq!(f.x.len(), n);
        f.psi = sides.iter().map(|side| side.psi(&f.x)).collect();
        f.tally.sample_every = (cap / 200).max(1);
        self.phase(&PhaseEvent::SolveStarted { threshold: sigma, warm });

        let mut selected_total = 0usize;
        let mut exit = rule.settle(&mut f);
        while exit.is_none() && f.t < cap {
            f.t += 1;
            f.deltas.clear();
            exit = rule.step(&mut f)?;
            if exit.is_some() {
                break;
            }
            selected_total += f.deltas.len();
            for &(k, d) in &f.deltas {
                f.x[k] += d;
            }
            for psi in &mut f.psi {
                psi.apply_updates(&f.deltas);
                psi.maybe_rebuild(&f.x);
            }
            exit = rule.settle(&mut f);
            if exit.is_none() && !self.observers.is_empty() {
                let event = IterationEvent {
                    threshold: sigma,
                    t: f.t,
                    norm1: f.norm1,
                    selected: f.deltas.len(),
                    kappa: f.kappa,
                    min_ratio: f.min_ratio,
                };
                let mut stop = false;
                for obs in &mut self.observers {
                    stop |= obs.on_iteration(&event) == ObserverControl::Stop;
                }
                exit = stop.then_some(ExitReason::ObserverStopped);
            }
        }

        let exit = exit.unwrap_or(ExitReason::IterationCap);
        let outcome = rule.finish(&f, exit);
        let (t, psi) = (f.t, &f.psi);
        let stats = SolveStats {
            iterations: t,
            exit,
            final_norm1: f.norm1,
            k_threshold,
            alpha,
            iteration_cap: cap,
            cost: f.tally.cost,
            engine: sides[0].engine.kind().name(),
            avg_selected: if t > 0 { selected_total as f64 / t as f64 } else { 0.0 },
            kappa_max: f.tally.kappa_max,
            psi_rebuilds: psi.iter().map(PsiMaintainer::rebuilds).sum(),
            psi_max_drift: psi.iter().map(PsiMaintainer::max_drift).reduce(f64::max).unwrap_or(0.0),
            threshold: sigma,
            warm_started: warm,
            engine_evals: f.tally.engine_evals,
            wall: wall_start.elapsed(),
            norm_trajectory: f.tally.trajectory,
        };
        self.phase(&PhaseEvent::SolveFinished { threshold: sigma, stats: &stats });
        Ok(Attempt { outcome, stats, iterate: f.x })
    }
}

/// One decision call's state: the skeleton owns it, the rule reads it and
/// feeds its steps and counters.
#[derive(Default)]
pub(crate) struct Frame<'p> {
    pub(crate) sigma: f64,
    pub(crate) active: Vec<bool>,
    pub(crate) n_active: usize,
    /// The current round (1-based; 0 before the first).
    pub(crate) t: usize,
    /// The iterate, in original coordinates.
    pub(crate) x: Vec<f64>,
    /// One `Ψ` per prepared side, in order.
    pub(crate) psi: Vec<PsiMaintainer<'p>>,
    /// This round's steps `(k, Δxₖ)`.
    pub(crate) deltas: Vec<(usize, f64)>,
    /// The current trajectory value, reported as `final_norm1`: `‖x‖₁`
    /// for packing, the soft-min coverage bound for mixed.
    pub(crate) norm1: f64,
    /// This round's engine `κ` and smallest price ratio.
    pub(crate) kappa: f64,
    pub(crate) min_ratio: f64,
    pub(crate) tally: Tally,
}

/// The counters a call reports in its [`SolveStats`].
#[derive(Default)]
pub(crate) struct Tally {
    cost: Cost,
    engine_evals: usize,
    kappa_max: f64,
    sample_every: usize,
    trajectory: Vec<(usize, f64)>,
}

impl Tally {
    pub(crate) fn evaluated(&mut self, dots: &ExpDots) {
        self.engine_evals += 1;
        self.cost = self.cost + dots.cost;
    }

    pub(crate) fn kappa(&mut self, kappa: f64) {
        self.kappa_max = self.kappa_max.max(kappa);
    }

    /// Sample the trajectory value of round `t` (every `cap/200` rounds;
    /// never the start point).
    pub(crate) fn sample(&mut self, t: usize, value: f64) {
        if t > 0 && t.is_multiple_of(self.sample_every) {
            self.trajectory.push((t, value));
        }
    }
}

/// One family's per-round rule for one decision call.
pub(crate) trait Rule {
    type Outcome;
    /// What the tested threshold is called in the error for a bad one.
    const THRESHOLD: &'static str;
    /// `(k_threshold, alpha, iteration cap)` of the call.
    fn plan(&self) -> (f64, f64, usize);
    /// Active coordinate `k`'s cold start.
    fn cold_start(&self, f: &Frame<'_>, k: usize) -> f64;
    /// Round `f.t` up to its update: set `f.kappa` and `f.min_ratio`,
    /// push the round's steps onto `f.deltas`, or exit.
    fn step(&mut self, f: &mut Frame<'_>) -> Result<Option<ExitReason>, PsdpError>;
    /// The exits checked after round `f.t`'s update, and at the start
    /// point (`f.t = 0`) before the first round. A rule whose trajectory
    /// value moves with `x` updates `f.norm1` here.
    fn settle(&mut self, _: &mut Frame<'_>) -> Option<ExitReason> {
        None
    }
    /// The certified outcome of `exit`.
    fn finish(self, f: &Frame<'_>, exit: ExitReason) -> Self::Outcome;
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_sparse::PsdMatrix;

    /// Grows every active coordinate by half for `rounds` rounds, then
    /// exits on the next; its outcome is the final `x` and `Ψ₀₀`.
    struct Halves {
        rounds: usize,
    }

    impl Rule for Halves {
        type Outcome = (Vec<f64>, f64);
        const THRESHOLD: &'static str = "test";

        fn plan(&self) -> (f64, f64, usize) {
            (7.0, 0.5, 400)
        }

        fn cold_start(&self, _: &Frame<'_>, k: usize) -> f64 {
            (k + 1) as f64
        }

        fn step(&mut self, f: &mut Frame<'_>) -> Result<Option<ExitReason>, PsdpError> {
            f.norm1 = f.t as f64;
            f.tally.sample(f.t, f.norm1);
            if f.t > self.rounds {
                return Ok(Some(ExitReason::EmptyEligibleSet));
            }
            let active = (0..f.x.len()).filter(|&k| f.active[k]);
            f.deltas.extend(active.map(|k| (k, f.x[k] / 2.0)));
            Ok(None)
        }

        fn finish(self, f: &Frame<'_>, _: ExitReason) -> (Vec<f64>, f64) {
            (f.x.clone(), f.psi[0].matrix().expect("dense storage")[(0, 0)])
        }
    }

    /// The skeleton validates the call, starts masked coordinates at 0,
    /// applies each round's steps to `x` and `Ψ`, and reports the rounds.
    #[test]
    fn run_applies_the_rules_steps_and_reports_them() {
        let diag = |d: &[f64]| PsdMatrix::Diagonal(d.to_vec());
        let inst = PackingInstance::new(vec![diag(&[1.0, 0.0]), diag(&[0.0, 1.0])]).unwrap();
        let side = [Side::build(&inst, EngineKind::Exact, 0).unwrap()];
        let mut session = Session::new(&(), &side);
        let halves = |_: &(), _: &Frame<'_>| Halves { rounds: 2 };

        let mask = Some(vec![true, false]);
        let call = session.run(1.0, mask, None, halves).unwrap();
        assert_eq!(call.outcome, (vec![2.25, 0.0], 2.25), "1 → 1.5 → 2.25; x₁ masked");
        assert_eq!(call.iterate, call.outcome.0);
        let stats = &call.stats;
        assert_eq!((stats.iterations, stats.exit), (3, ExitReason::EmptyEligibleSet));
        assert_eq!((stats.final_norm1, stats.k_threshold, stats.alpha), (3.0, 7.0, 0.5));
        assert_eq!((stats.iteration_cap, stats.avg_selected), (400, 2.0 / 3.0));
        assert_eq!(stats.norm_trajectory, [(2, 2.0)], "sampled every cap/200 = 2 rounds");
        assert!(!stats.warm_started);

        let warm = session.run(2.0, None, Some(vec![4.0, 8.0]), halves).unwrap();
        assert_eq!(warm.iterate, [9.0, 18.0]);
        assert!(warm.stats.warm_started);

        let empty = session.run(1.0, Some(vec![false, false]), None, halves);
        assert!(matches!(empty, Err(PsdpError::InvalidInstance(m)) if m.contains("mask is empty")));
        let bad = session.run(f64::NAN, None, None, halves);
        assert!(
            matches!(bad, Err(PsdpError::InvalidInstance(m)) if m.starts_with("test threshold"))
        );
        assert_eq!(session.solves(), 3, "a call with a bad σ does not count");
    }

    /// Only the `Expv` engine takes `Ψ` on its pattern, which a side
    /// builds on its first solve and shares across calls; that maintainer
    /// holds no dense matrix, the dense engines' holds no pattern.
    #[test]
    fn side_builds_the_psi_pattern_once_and_only_for_expv() {
        let a = PsdMatrix::Diagonal(vec![1.0, 2.0, 0.0]);
        let inst = PackingInstance::new(vec![a.clone(), a]).unwrap();
        let exact = Side::build(&inst, EngineKind::Exact, 0).unwrap();
        let psi = exact.psi(&[1.0, 1.0]);
        assert!(psi.view().is_none() && psi.matrix().is_some());
        assert!(exact.pattern.get().is_none());

        let expv = Side::build(&inst, EngineKind::Expv { eps: 0.1 }, 0).unwrap();
        assert!(expv.pattern.get().is_none(), "built before the first solve");
        let psi = expv.psi(&[1.0, 1.0]);
        assert!(psi.view().is_some() && psi.matrix().is_none(), "an Expv Ψ went dense");
        let first: *const PsiPattern = expv.pattern.get().expect("built on first use");
        assert!(expv.psi(&[2.0, 1.0]).matrix().is_none());
        assert!(std::ptr::eq(first, expv.pattern.get().unwrap()), "the pattern was rebuilt");
        assert_eq!(expv.traces, [3.0, 3.0]);
    }
}
