//! Session-based solver API: prepare once, solve many times.
//!
//! [`decision_psdp`](crate::decision_psdp) is a one-shot free function:
//! every call re-validates the instance, re-resolves
//! [`EngineKind::Auto`](psdp_expdot::EngineKind), re-factorizes every
//! constraint, rebuilds `Ψ` from scratch, and restarts `x` at `x⁰`. The
//! geometric bisection of `approxPSDP` (Lemma 2.2) makes `O(log(n/ε))` such
//! calls on the *same* constraint set, differing only in the threshold `σ`,
//! so all of that preparation is repaid nothing across brackets.
//!
//! This module splits the solver into:
//!
//! * [`Solver`] — the prepared problem: instance validated once, engine
//!   constructed (and `Auto` resolved, support-local factorizations built)
//!   once, per-constraint traces and `λmax` estimates cached once.
//! * [`Session`] — runs solves over the prepared solver and owns the
//!   registered [`Observer`]s; each solve builds its own iterate and
//!   incremental [`PsiMaintainer`]. [`Session::solve`] answers one
//!   ε-decision question "is the packing optimum ≥ `threshold`?";
//!   [`Session::optimize`] runs the full certified bisection over one
//!   session, through the driver the mixed optimizer shares
//!   (`crate::bisect`).
//!
//! ## Cross-bracket warm starts
//!
//! The bisection has one warm start: iterate continuation, "the previous
//! iterate rescaled to remain feasible for the new threshold". State is
//! kept in original coordinates `u = σ·x`, where the start point
//! `u⁰ᵢ = σ·x⁰ᵢ = 1/(n·Tr Aᵢ)` and `Ψ = Σ xᵢ·σAᵢ = Σ uᵢAᵢ` do not depend on
//! `σ`. Every decision call returns its final `u` with its outcome; the
//! shared driver keeps the `u` of each bracket's kept call and, when the
//! next bracket prunes the same coordinates, [`Session::optimize`]
//! rescales it so its threshold-frame mass is `β·K` (β = 1/2) at the new
//! `σ` and runs a warm attempt from it. The iterate travels with the
//! bisection, not the session, so `optimize` depends on the solver and
//! its options alone, never on earlier calls on the same session.
//!
//! A warm-started trajectory differs numerically from the cold one, so the
//! bisection only accepts its outcome when it is **strong** — a dual with
//! measured value ≥ 1 (certifying `OPT ≥ σ` exactly) or a primal with
//! min-dot ≥ 1 (certifying `OPT ≤ σ·(1+pruning slack)` exactly) — and then
//! applies the *quantized* bracket update `lo ← σ` / `hi ← σ·(1+slack)`, a
//! deterministic function of `σ` alone. Weak warm outcomes are discarded
//! and the bracket re-runs cold, reproducing exactly what the cold
//! bisection would have done; a weak *cold* outcome escalates to a
//! deterministic certificate-seeking continuation from the cold solve's
//! final iterate, run within the cold solve's iteration count, before
//! falling back to the measured-value update.
//!
//! Strong certificates are true statements about `OPT` regardless of the
//! path that found them, so warm and cold bisections
//! ([`ApproxOptions::warm_start`] on and off) walk the same `σ` sequence —
//! and report the same certified bracket — **whenever each tested `σ`
//! resolves to the same strong side on both paths** (or both end weak,
//! where the shared fallback is cold-deterministic). The two sides are
//! simultaneously certifiable only when `σ` sits within the solver's
//! ε-resolution of `OPT`; there, and when only one path finds a strong
//! certificate at all, warm and cold could in principle diverge — both
//! brackets stay individually certified. The warm-start unit tests, the
//! `tests/warmstart_bisection.rs` property test, and experiment E11 check
//! that on the tested families the brackets are in fact equal bit for
//! bit, while the warm run reaches each certificate in far fewer
//! iterations (the cold path must ramp `‖x‖₁` from `‖x⁰‖₁ ≪ 1` to `K` at
//! rate `(1+α)` per round). Warm attempts and the escalation engage only
//! in practical constants mode: under [`ConstantsMode::PaperStrict`] the
//! dual is scaled by `(1+10ε)K` while the exit fires just above `K`, so a
//! strong dual is unreachable and strict-mode bisections run every bracket
//! cold with measured-value updates.
//!
//! ## Observers
//!
//! [`Observer`]s registered on a session receive [`IterationEvent`]s from
//! inside the iterate loop and [`PhaseEvent`]s at solve/bracket
//! boundaries; an observer can stop a solve early by returning
//! [`ObserverControl::Stop`] (the solve exits with
//! [`ExitReason::ObserverStopped`] and an *uncertified* averaged primal).
//! Telemetry, progress streaming, and early-stop injection therefore no
//! longer require forking the solver loop.

use crate::approx::{ApproxOptions, PackingReport};
use crate::bisect::{bisect, Attempt, Call, Family, Probe};
use crate::decision::DecisionResult;
use crate::error::PsdpError;
use crate::instance::PackingInstance;
use crate::options::{ConstantsMode, DecisionOptions, UpdateRule};
use crate::psi::{PsiMaintainer, PsiPattern};
use crate::solution::{DualSolution, ExitReason, Outcome, PrimalSolution};
use crate::stats::SolveStats;
use psdp_expdot::{Engine, EngineKind, ExpDots};
use psdp_linalg::{lambda_max_upper_bound, sym_eigenvalues, vecops, Mat};
use psdp_mmw::paper_constants;
use psdp_parallel::Cost;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Threshold-frame `‖x‖₁` mass (as a fraction of the dual-exit threshold
/// `K`) a warm-started bracket iterate is rescaled to. Half of `K` leaves
/// the loop room to re-balance the iterate before any exit can trigger.
const WARM_MASS_FRACTION: f64 = 0.5;

/// Builder for a prepared [`Solver`].
///
/// Obtained from [`Solver::builder`]; configure with
/// [`SolverBuilder::options`] and finish with [`SolverBuilder::build`].
#[derive(Debug, Clone)]
pub struct SolverBuilder<'i> {
    inst: &'i PackingInstance,
    opts: DecisionOptions,
}

impl<'i> SolverBuilder<'i> {
    /// Set the decision options (engine, constants mode, update rule, …)
    /// the solver prepares for. The engine kind and sketch seed are fixed
    /// at [`SolverBuilder::build`] time; per-solve overrides passed to
    /// [`Session::solve_with`] may change everything else.
    pub fn options(mut self, opts: DecisionOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Validate the options, resolve [`EngineKind::Auto`] against the
    /// instance's storage profile, and construct the engine (including any
    /// support-local constraint factorizations) exactly once.
    ///
    /// # Errors
    /// Option validation failures and constraint factorization failures.
    pub fn build(self) -> Result<Solver<'i>, PsdpError> {
        self.opts.validate()?;
        let engine = Arc::new(Engine::new(self.opts.engine, self.inst.mats(), self.opts.seed)?);
        Self::assemble(self.inst, self.opts, engine)
    }

    /// Like [`SolverBuilder::build`], but reuse an already-prepared engine
    /// instead of constructing one — the amortization hook the serving
    /// layer's fingerprint cache relies on (`psdp-serve`): factorizations
    /// and `Auto` resolution are paid once per distinct instance, not once
    /// per request.
    ///
    /// The engine **must** have been built (via [`SolverBuilder::build`] on
    /// an earlier solver, read back with [`Solver::engine_handle`]) from
    /// the same constraint set. That cannot be fully re-verified here, so
    /// this checks everything observable — dimension, seed, and that the
    /// engine's concrete kind equals what resolving the requested kind
    /// against this instance would produce — and the caller is responsible
    /// for keying its cache on the full instance identity (see
    /// `DESIGN.md` §10 on cache-key soundness).
    ///
    /// # Errors
    /// Option validation failures, or an engine inconsistent with this
    /// instance/options pair.
    pub fn build_with_engine(self, engine: Arc<Engine>) -> Result<Solver<'i>, PsdpError> {
        self.opts.validate()?;
        let want = self.opts.engine.resolve(self.inst.dim(), self.inst.total_nnz());
        check_prepared_engine(&engine, "packing", self.inst.dim(), self.opts.seed, want)?;
        Self::assemble(self.inst, self.opts, engine)
    }

    fn assemble(
        inst: &'i PackingInstance,
        opts: DecisionOptions,
        engine: Arc<Engine>,
    ) -> Result<Solver<'i>, PsdpError> {
        let traces: Vec<f64> = inst.mats().iter().map(|a| a.trace()).collect();
        let lambda_caps: Vec<f64> =
            inst.mats().iter().map(|a| 1.0 / a.lambda_max_est().max(1e-300)).collect();
        Ok(Solver { inst, opts, engine, traces, lambda_caps, pattern: OnceLock::new() })
    }
}

/// Check everything observable about a prepared engine before a builder
/// reuses it: its dimension, its seed, and its concrete kind against
/// `want` (the requested kind resolved for this instance side). `side`
/// names the constraint family in the error.
pub(crate) fn check_prepared_engine(
    engine: &Engine,
    side: &str,
    dim: usize,
    seed: u64,
    want: EngineKind,
) -> Result<(), PsdpError> {
    if engine.dim() != dim {
        return Err(PsdpError::InvalidInstance(format!(
            "prepared {side} engine has dim {}, instance has dim {dim}",
            engine.dim()
        )));
    }
    if engine.seed() != seed {
        return Err(PsdpError::InvalidInstance(format!(
            "prepared {side} engine was built with seed {}, options ask for seed {seed}",
            engine.seed()
        )));
    }
    if engine.kind() != want {
        return Err(PsdpError::InvalidInstance(format!(
            "prepared {side} engine kind {:?} does not match requested kind {want:?}",
            engine.kind()
        )));
    }
    Ok(())
}

/// A prepared positive-SDP solver bound to one [`PackingInstance`].
///
/// Construction work — validation, engine resolution, constraint
/// factorization, per-constraint scalars — happens once here; all solves
/// run through [`Session`]s created by [`Solver::session`].
///
/// ```
/// use psdp_core::{DecisionOptions, PackingInstance, Solver};
/// use psdp_sparse::PsdMatrix;
///
/// let inst = PackingInstance::new(vec![
///     PsdMatrix::Diagonal(vec![1.0, 0.0]),
///     PsdMatrix::Diagonal(vec![0.0, 1.0]),
/// ])?;
/// let solver = Solver::builder(&inst).options(DecisionOptions::practical(0.2)).build()?;
/// let mut session = solver.session();
/// // "Is the packing optimum ≥ 1?" — yes (it is 2): a dual is certified.
/// let res = session.solve(1.0)?;
/// assert!(res.outcome.dual().is_some());
/// // "Is it ≥ 3?" — no: the same prepared engine answers the other side.
/// let res = session.solve(3.0)?;
/// assert!(res.outcome.primal().is_some());
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
pub struct Solver<'i> {
    inst: &'i PackingInstance,
    opts: DecisionOptions,
    engine: Arc<Engine>,
    traces: Vec<f64>,
    lambda_caps: Vec<f64>,
    /// `Ψ`'s sparsity pattern, built on the first solve and only for the
    /// `Expv` engine (see [`psi_for_engine`]).
    pattern: OnceLock<PsiPattern>,
}

/// Start maintaining `Ψ = Σ xᵢAᵢ` over `inst` for `engine`. The `Expv`
/// engine takes `Ψ` through its pattern view ([`crate::PsiView`]), so its
/// maintainer carries the pattern — built into `pattern` on first use and
/// shared by every later solve of the same solver; the dense engines get a
/// plain maintainer and never build one.
pub(crate) fn psi_for_engine<'a>(
    engine: &Engine,
    inst: &'a PackingInstance,
    pattern: &'a OnceLock<PsiPattern>,
    x: &[f64],
    rebuild_period: usize,
) -> PsiMaintainer<'a> {
    if matches!(engine.kind(), EngineKind::Expv { .. }) {
        let pattern = pattern.get_or_init(|| PsiPattern::new(inst));
        PsiMaintainer::with_pattern(inst, x, rebuild_period, pattern)
    } else {
        PsiMaintainer::new(inst, x, rebuild_period)
    }
}

/// One engine evaluation at the current `Ψ`: through the pattern view when
/// the maintainer has one (the `Expv` engine), else on the dense matrix.
pub(crate) fn evaluate(
    engine: &Engine,
    psi: &PsiMaintainer<'_>,
    kappa: f64,
    inst: &PackingInstance,
    stream: u64,
) -> Result<ExpDots, PsdpError> {
    Ok(match psi.view() {
        Some(view) => engine.compute_op(&view, kappa, stream),
        None => engine.compute(psi.matrix(), kappa, inst.mats(), stream)?,
    })
}

impl<'i> Solver<'i> {
    /// Start building a solver for `inst`.
    pub fn builder(inst: &'i PackingInstance) -> SolverBuilder<'i> {
        SolverBuilder { inst, opts: DecisionOptions::practical(0.1) }
    }

    /// The instance this solver was prepared for.
    pub fn instance(&self) -> &PackingInstance {
        self.inst
    }

    /// The options the solver was built with.
    pub fn options(&self) -> &DecisionOptions {
        &self.opts
    }

    /// The concrete engine kind in use ([`EngineKind::Auto`] is resolved at
    /// build time).
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// A shareable handle to the prepared engine (factorizations included).
    /// Hand this to [`SolverBuilder::build_with_engine`] to prepare another
    /// solver for the *same* constraint set without redoing the work.
    pub fn engine_handle(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// Open a fresh session (no observers).
    pub fn session(&self) -> Session<'i, '_> {
        Session { solver: self, observers: Vec::new(), solves: 0 }
    }
}

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

/// Deliver a phase event to every observer, in registration order.
pub(crate) fn emit_phase(observers: &mut [Box<dyn Observer>], event: &PhaseEvent<'_>) {
    for obs in observers {
        obs.on_phase(event);
    }
}

/// Deliver an iteration event to every observer, in registration order;
/// `true` when any of them asked to stop.
pub(crate) fn emit_iteration(observers: &mut [Box<dyn Observer>], event: &IterationEvent) -> bool {
    let mut stop = false;
    for obs in observers {
        stop |= obs.on_iteration(event) == ObserverControl::Stop;
    }
    stop
}

/// A stateful solve session over a prepared [`Solver`].
///
/// Owns the registered observers. Create with [`Solver::session`]; run
/// ε-decision solves with [`Session::solve`] / [`Session::solve_with`] and
/// full certified optimization with [`Session::optimize`]. No solve leaves
/// state behind for a later one.
pub struct Session<'i, 's> {
    solver: &'s Solver<'i>,
    observers: Vec<Box<dyn Observer>>,
    solves: usize,
}

impl<'i, 's> Session<'i, 's> {
    /// Register an observer for subsequent solves.
    pub fn add_observer(&mut self, obs: Box<dyn Observer>) {
        self.observers.push(obs);
    }

    /// Number of decision solves this session has run.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Run the ε-decision problem "is the packing optimum ≥ `threshold`?"
    /// with the solver's build-time options.
    ///
    /// # Errors
    /// Invalid threshold, option validation, or linear-algebra failures.
    pub fn solve(&mut self, threshold: f64) -> Result<DecisionResult, PsdpError> {
        let opts = self.solver.opts;
        self.solve_with(threshold, &opts)
    }

    /// Like [`Session::solve`] with per-solve option overrides. The engine
    /// kind and sketch seed are fixed at [`SolverBuilder::build`] time and
    /// ignored here; everything else (eps, constants mode, update rule,
    /// early exit, …) takes effect for this solve only.
    ///
    /// # Errors
    /// Invalid threshold, option validation, or linear-algebra failures.
    pub fn solve_with(
        &mut self,
        threshold: f64,
        opts: &DecisionOptions,
    ) -> Result<DecisionResult, PsdpError> {
        opts.validate()?;
        let Attempt { outcome, stats, .. } =
            self.run_decision(threshold, opts, None, None, None)?;
        Ok(DecisionResult { outcome, stats })
    }

    /// The decision loop (Algorithm 3.1) at threshold `sigma`, optionally
    /// restricted to an active-coordinate mask (Lemma 2.2 trace pruning)
    /// and optionally starting from a warm iterate (`start`). State is kept
    /// in original coordinates `u = σ·x` (see the module docs); the call
    /// returns its final `u` with its outcome.
    ///
    /// `cert_seek: Some(budget)` switches the exit logic to
    /// *strong-certificate hunting* (the bisection's deterministic
    /// escalation for weak outcomes): the dual exit fires only once
    /// `‖x‖₁ ≥ κ·(1+1e-6)` — which guarantees the measured dual value is
    /// ≥ 1 since `λmax(Ψ) ≤ κ` — the primal running-average check runs
    /// regardless of [`DecisionOptions::early_exit`], and the iteration cap
    /// drops to `budget` (at least 1).
    fn run_decision(
        &mut self,
        sigma: f64,
        opts: &DecisionOptions,
        mask: Option<Vec<bool>>,
        start: Option<Vec<f64>>,
        cert_seek: Option<usize>,
    ) -> Call<Outcome> {
        if !(sigma > 0.0 && sigma.is_finite()) {
            return Err(PsdpError::InvalidInstance(format!(
                "decision threshold must be positive and finite, got {sigma}"
            )));
        }
        let wall_start = Instant::now();
        self.solves += 1;
        let inst = self.solver.inst;
        let engine = &self.solver.engine;
        let n = inst.n();
        let m = inst.dim();
        let eps = opts.eps;

        let active: Vec<bool> = mask.unwrap_or_else(|| vec![true; n]);
        debug_assert_eq!(active.len(), n);
        let n_active = active.iter().filter(|&&b| b).count();
        if n_active == 0 {
            return Err(PsdpError::InvalidInstance("active-coordinate mask is empty".into()));
        }
        let active_min = |vals: &[f64]| {
            vals.iter()
                .zip(&active)
                .filter(|&(_, &a)| a)
                .fold(f64::INFINITY, |acc, (&v, _)| acc.min(v))
        };

        let pc = paper_constants(n_active, eps);
        let (k_threshold, alpha, cap) = match opts.mode {
            ConstantsMode::PaperStrict => (pc.k_threshold, pc.alpha, pc.r_cap.ceil() as usize),
            ConstantsMode::Practical { alpha_boost, max_iters } => {
                (pc.k_threshold, pc.alpha * alpha_boost, max_iters)
            }
        };
        let cap = cert_seek.map_or(cap, |budget| cap.min(budget.max(1)));
        let lemma_bound = (1.0 + 10.0 * eps) * k_threshold;

        // Original-coordinate start point u⁰ᵢ = 1/(n_active·Tr Aᵢ)
        // (σ-invariant; equals σ·x⁰ᵢ for the scaled instance), unless a
        // warm iterate was handed in. Masked coordinates are frozen at 0 —
        // exactly the Lemma 2.2 restriction.
        let warm_init = start.is_some();
        let mut x: Vec<f64> = match start {
            Some(u) => {
                debug_assert_eq!(u.len(), n);
                u
            }
            None => self
                .solver
                .traces
                .iter()
                .zip(&active)
                .map(|(&tr, &a)| if a { 1.0 / (n_active as f64 * tr) } else { 0.0 })
                .collect(),
        };
        let mut psi =
            psi_for_engine(engine, inst, &self.solver.pattern, &x, opts.psi_rebuild_period);

        let engine_kind = engine.kind();
        // Only the engines that can materialize a dense P (exact always,
        // Taylor via one extra symmetric square) feed the primal average;
        // the sketched and expm-action engines never form exp(Φ).
        let accumulate_y = opts.primal_matrix_dim_limit > 0
            && m <= opts.primal_matrix_dim_limit
            && matches!(engine_kind, EngineKind::Exact | EngineKind::Taylor { .. });
        let mut y_acc: Option<Mat> = accumulate_y.then(|| Mat::zeros(m, m));

        let phase = PhaseEvent::SolveStarted { threshold: sigma, warm: warm_init };
        emit_phase(&mut self.observers, &phase);

        let mut dot_sums = vec![0.0_f64; n];
        let mut rounds_accumulated = 0usize;
        let mut cost_total = Cost::ZERO;
        let mut selected_total = 0usize;
        let mut kappa_max = 0.0_f64;
        let mut engine_evals = 0usize;
        let mut exit = ExitReason::IterationCap;
        let sample_every = (cap / 200).max(1);
        let mut trajectory: Vec<(usize, f64)> = Vec::new();
        let mut cur: Option<ExpDots> = None;
        let mut t = 0usize;
        let mut empty_b_snapshot: Option<(Vec<f64>, Option<Mat>)> = None;

        if cert_seek.is_some() {
            let kappa0 = psi.kappa_bound();
            if vecops::sum(&x) / sigma >= (kappa0 * (1.0 + 1e-6)).max(1.0) {
                exit = ExitReason::DualNormCrossed;
            }
        } else if vecops::sum(&x) / sigma > k_threshold {
            exit = ExitReason::DualNormCrossed;
        }

        while t < cap && exit != ExitReason::DualNormCrossed {
            t += 1;

            let mut kappa = psi.kappa_bound();
            if matches!(opts.mode, ConstantsMode::PaperStrict) {
                kappa = kappa.min(lemma_bound * 1.01);
            }
            kappa_max = kappa_max.max(kappa);

            let refresh = match opts.rule {
                UpdateRule::Stale { period } => (t - 1).is_multiple_of(period) || cur.is_none(),
                _ => true,
            };
            if refresh {
                engine_evals += 1;
                let dots = if accumulate_y {
                    engine.compute_dense(psi.matrix(), kappa, inst.mats(), t as u64)?
                } else {
                    evaluate(engine, &psi, kappa, inst, t as u64)?
                };
                cost_total = cost_total + dots.cost;
                cur = Some(dots);
            }
            let dots = cur.as_ref().expect("engine output present");

            // Ratios P(t) • (σAᵢ) = σ·(W•Aᵢ)/Tr W.
            let inv_tr = 1.0 / dots.tr_w;
            let ratios: Vec<f64> = dots.dots.iter().map(|d| d * inv_tr * sigma).collect();

            if refresh {
                for (s, &r) in dot_sums.iter_mut().zip(&ratios) {
                    *s += r;
                }
                if let (Some(acc), Some(p)) = (y_acc.as_mut(), dots.dense_p.as_ref()) {
                    acc.axpy(1.0, p);
                }
                rounds_accumulated += 1;
            }

            let steps = select_steps(&ratios, eps, alpha, opts.rule, Some(&active));
            let selected = steps.iter().filter(|&&s| s > 0.0).count();
            if selected == 0 {
                // Every active constraint has P•Aᵢ > 1+ε: the current P is a
                // feasible primal.
                empty_b_snapshot = Some((ratios, dots.dense_p.clone()));
                exit = ExitReason::EmptyEligibleSet;
                break;
            }
            selected_total += selected;

            let mut deltas: Vec<(usize, f64)> = Vec::with_capacity(selected);
            for (i, &step) in steps.iter().enumerate() {
                if step > 0.0 {
                    let delta = step * x[i];
                    x[i] += delta;
                    deltas.push((i, delta));
                }
            }
            psi.apply_updates(&deltas);
            psi.maybe_rebuild(&x);

            let norm1 = vecops::sum(&x) / sigma;
            if t.is_multiple_of(sample_every) {
                trajectory.push((t, norm1));
            }
            if cert_seek.is_some() {
                // Strong-dual hunt: exit only once the measured value is
                // guaranteed ≥ 1 (λmax(Ψ) ≤ κ, so ‖x‖₁ ≥ κ ⇒ value ≥ 1).
                let kappa_now = psi.kappa_bound();
                if norm1 >= (kappa_now * (1.0 + 1e-6)).max(1.0) {
                    exit = ExitReason::DualNormCrossed;
                    break;
                }
            } else if norm1 > k_threshold {
                exit = ExitReason::DualNormCrossed;
                break;
            }
            if (opts.early_exit || cert_seek.is_some()) && rounds_accumulated > 0 {
                let min_avg = active_min(&dot_sums) / rounds_accumulated as f64;
                if min_avg >= 1.0 {
                    exit = ExitReason::PrimalEarly;
                    break;
                }
            }
            if !self.observers.is_empty() {
                let event = IterationEvent {
                    threshold: sigma,
                    t,
                    norm1,
                    selected,
                    kappa,
                    min_ratio: active_min(&ratios),
                };
                if emit_iteration(&mut self.observers, &event) {
                    exit = ExitReason::ObserverStopped;
                    break;
                }
            }
        }

        let final_norm1 = vecops::sum(&x) / sigma;
        let outcome = match exit {
            ExitReason::DualNormCrossed => {
                let x_scaled: Vec<f64> = x.iter().map(|v| v / sigma).collect();
                Outcome::Dual(build_dual(&x_scaled, psi.matrix(), eps, k_threshold, opts.mode)?)
            }
            ExitReason::EmptyEligibleSet => {
                let (ratios, p) = empty_b_snapshot.expect("snapshot recorded");
                let min_dot = active_min(&ratios);
                Outcome::Primal(PrimalSolution {
                    constraint_dots: ratios,
                    y: p,
                    min_dot,
                    rounds_averaged: 1,
                })
            }
            // `CoverageReached` belongs to the mixed loop (`crate::mixed`)
            // and is never produced here; it falls through to the averaged
            // primal like the other soft exits.
            ExitReason::IterationCap
            | ExitReason::PrimalEarly
            | ExitReason::ObserverStopped
            | ExitReason::CoverageReached => {
                let rounds = rounds_accumulated.max(1) as f64;
                let constraint_dots: Vec<f64> = dot_sums.iter().map(|s| s / rounds).collect();
                let min_dot = active_min(&constraint_dots);
                let y = y_acc.map(|mut acc| {
                    acc.scale(1.0 / rounds);
                    let tr = acc.trace();
                    if tr > 0.0 {
                        acc.scale(1.0 / tr);
                    }
                    acc
                });
                Outcome::Primal(PrimalSolution {
                    constraint_dots,
                    y,
                    min_dot,
                    rounds_averaged: rounds_accumulated.max(1),
                })
            }
        };

        let stats = SolveStats {
            iterations: t,
            exit,
            final_norm1,
            k_threshold,
            alpha,
            iteration_cap: cap,
            cost: cost_total,
            engine: engine_kind.name(),
            avg_selected: if t > 0 { selected_total as f64 / t as f64 } else { 0.0 },
            kappa_max,
            psi_rebuilds: psi.rebuilds(),
            psi_max_drift: psi.max_drift(),
            threshold: sigma,
            warm_started: warm_init,
            engine_evals,
            wall: wall_start.elapsed(),
            norm_trajectory: trajectory,
        };
        let finished = PhaseEvent::SolveFinished { threshold: sigma, stats: &stats };
        emit_phase(&mut self.observers, &finished);
        Ok(Attempt { outcome, stats, iterate: x })
    }

    /// Optimize the packing instance to `(1+ε)` relative accuracy by
    /// certified geometric bisection (Lemma 2.2) over this session: every
    /// bracket reuses the prepared engine, and — when
    /// [`ApproxOptions::warm_start`] is on and the constants mode is
    /// practical — continues from the previous bracket's kept iterate
    /// (rescaled to the new threshold; see the module docs for the
    /// warm-vs-cold equivalence and its caveat). The report depends on the
    /// solver and `opts` alone, not on earlier calls on this session.
    ///
    /// Bracket moves are driven by certified quantities only. A **strong**
    /// outcome (dual value ≥ 1, or primal min-dot ≥ 1) proves `OPT ≥ σ` /
    /// `OPT ≤ σ·(1+pruning slack)` exactly, and the bracket moves to that
    /// deterministic value — which is what lets warm and cold runs walk
    /// identical `σ` sequences. A weak outcome from a warm-started solve
    /// is discarded and the bracket re-runs cold; a weak cold outcome
    /// escalates to a certificate-seeking continuation (at most as many
    /// iterations as the cold solve) and then falls
    /// back to the measured-value update (`lo ← σ·value`,
    /// `hi ← σ/min_dot`), still certified.
    ///
    /// # Errors
    /// Validation or solver failures; a bracket that fails to close within
    /// `max_calls` is reported with `converged = false`, not an error.
    pub fn optimize(&mut self, opts: &ApproxOptions) -> Result<PackingReport, PsdpError> {
        if !(opts.eps > 0.0 && opts.eps < 1.0) {
            return Err(PsdpError::InvalidInstance(format!("eps {} not in (0,1)", opts.eps)));
        }
        opts.decision.validate()?;
        let caps = &self.solver.lambda_caps;
        let mut lo = caps.iter().fold(0.0_f64, |m, &v| m.max(v)) * 0.5;
        let mut hi = caps.iter().sum::<f64>() * 2.0;
        if lo.is_nan() || lo <= 0.0 || !hi.is_finite() {
            return Err(PsdpError::InvalidInstance("degenerate λmax estimates".into()));
        }
        // Externally certified bracket (serving-layer reuse): intersect with
        // the structural bounds — both are certified, so the intersection is
        // certified and at least as tight. An inconsistent injection (empty
        // intersection, non-finite, or non-positive) is dropped, not
        // trusted.
        if let Some((inj_lo, inj_hi)) = opts.initial_bracket {
            if inj_lo > 0.0 && inj_lo.is_finite() && inj_hi.is_finite() && inj_lo <= inj_hi {
                let cand_lo = lo.max(inj_lo);
                let cand_hi = hi.min(inj_hi);
                if cand_lo <= cand_hi {
                    lo = cand_lo;
                    hi = cand_hi;
                }
            }
        }

        let mut family = PackingBisection {
            session: self,
            opts,
            // Strong duals are unreachable under the paper's strict scaling
            // (the dual exit fires just above K while the value is scaled
            // by (1+10ε)K, so measured value ≈ 1/(1+10ε) < 1): warm
            // attempts and the certificate-seeking escalation would always
            // be discarded. Strict-mode bisections therefore run every
            // bracket cold with measured-value updates.
            practical: matches!(opts.decision.mode, ConstantsMode::Practical { .. }),
            best_dual: None,
            upper_witness: None,
            pruned_max: 0,
        };
        let run = bisect(&mut family, (lo, hi), opts.eps, opts.max_calls)?;
        Ok(PackingReport {
            value_lower: run.lo,
            value_upper: run.hi,
            best_dual: family.best_dual,
            upper_witness: family.upper_witness,
            decision_calls: run.brackets.len(),
            total_iterations: run.brackets.iter().map(|b| b.iterations).sum(),
            converged: run.converged,
            pruned_max: family.pruned_max,
            total_engine_evals: run.brackets.iter().map(|b| b.engine_evals).sum(),
            total_replayed: 0,
            call_stats: run.call_stats,
            brackets: run.brackets,
        })
    }
}

/// Packing's pieces of the shared bisection (`crate::bisect`).
struct PackingBisection<'a, 'i, 's> {
    session: &'a mut Session<'i, 's>,
    opts: &'a ApproxOptions,
    /// Warm attempts and the escalation run only in practical mode.
    practical: bool,
    best_dual: Option<DualSolution>,
    upper_witness: Option<(f64, PrimalSolution)>,
    pruned_max: usize,
}

impl PackingBisection<'_, '_, '_> {
    /// A final iterate `u` rescaled to threshold-frame mass β·K at the
    /// probed `σ` — "the previous iterate rescaled to remain feasible for
    /// the new threshold" (the loop has room to re-balance before any exit
    /// can trigger).
    fn rescaled(&self, probe: &Probe, u: &[f64]) -> Vec<f64> {
        let n_active = probe.active.iter().filter(|&&b| b).count();
        let k_threshold = paper_constants(n_active, self.opts.decision.eps).k_threshold;
        let gamma = WARM_MASS_FRACTION * k_threshold * probe.sigma / vecops::sum(u).max(1e-300);
        u.iter().map(|v| v * gamma).collect()
    }

    fn run(
        &mut self,
        probe: &Probe,
        seed: Option<Vec<f64>>,
        cert_seek: Option<usize>,
    ) -> Call<Outcome> {
        let (opts, mask) = (self.opts.decision, probe.mask());
        self.session.run_decision(probe.sigma, &opts, mask, seed, cert_seek)
    }
}

impl Family for PackingBisection<'_, '_, '_> {
    type Outcome = Outcome;

    fn observers(&mut self) -> &mut [Box<dyn Observer>] {
        &mut self.session.observers
    }

    /// Lemma 2.2 trace pruning with the certified cutoff max(n³, 2nm/ε):
    /// at threshold 1 any feasible x has xᵢ ≤ m/Tr(Aᵢ'), so dropped
    /// coordinates carry ≤ ε/2 total mass, and they add at most
    /// Σ_dropped m/(σ·Tr Aᵢ) to the scaled value — the certified repair of
    /// the upper bound, deterministic in (σ, mask).
    fn probe(&mut self, sigma: f64) -> Probe {
        let traces = &self.session.solver.traces;
        let n = traces.len() as f64;
        let m = self.session.solver.inst.dim() as f64;
        let cutoff = (n * n * n).max(2.0 * n * m / self.opts.eps);
        let probe = Probe::new(sigma, traces.len(), |i| {
            (sigma * traces[i] > cutoff).then(|| m / (sigma * traces[i]).max(1e-300))
        });
        self.pruned_max = self.pruned_max.max(probe.dropped);
        probe
    }

    /// Iterate continuation from the previous bracket's kept iterate.
    fn warm_seed(&self, probe: &Probe, iterate: &[f64]) -> Option<Vec<f64>> {
        (self.practical && self.opts.warm_start).then(|| self.rescaled(probe, iterate))
    }

    fn solve(&mut self, probe: &Probe, seed: Option<Vec<f64>>) -> Call<Outcome> {
        self.run(probe, seed, None)
    }

    /// Certificate-seeking continuation, deterministic from the weak cold
    /// solve's final iterate (rescaled to β·K mass so the overshot state
    /// can re-balance toward either certificate). Its budget is the cold
    /// solve's iteration count: escalations that reach a certificate do so
    /// within it (DESIGN.md §8 has the sweep), and one that does not would
    /// otherwise run to `max_iters`. An escalation that fails outright
    /// (its scaled-up Ψ can outgrow what the eigensolver converges on)
    /// still counts as weak, so the cold solve's outcome stands; the
    /// budget bounds what such a failure costs.
    fn escalate(&mut self, probe: &Probe, cold: &Attempt<Outcome>) -> Option<Call<Outcome>> {
        if !self.practical {
            return None;
        }
        let seed = self.rescaled(probe, &cold.iterate);
        Some(Ok(self.run(probe, Some(seed), Some(cold.stats.iterations)).ok()?))
    }

    /// Strong outcomes only: a dual of measured value ≥ 1 or a primal with
    /// min-dot ≥ 1.
    fn accepts(&self, outcome: &Outcome, _: &Probe, _: f64, _: f64) -> bool {
        match outcome {
            Outcome::Dual(d) => d.value >= 1.0,
            Outcome::Primal(p) => p.min_dot >= 1.0,
        }
    }

    fn advance(&mut self, outcome: Outcome, probe: &Probe, lo: &mut f64, hi: &mut f64) -> bool {
        let sigma = probe.sigma;
        match outcome {
            Outcome::Dual(d) => {
                // x' feasible for σAᵢ ⇒ x = σx' feasible for Aᵢ (masked
                // coordinates are already zero).
                let x: Vec<f64> = d.x.iter().map(|v| v * sigma).collect();
                let value = sigma * d.value;
                if d.value >= 1.0 {
                    // Strong: a feasible dual of scaled value ≥ 1 proves
                    // OPT ≥ σ. Quantized, deterministic update.
                    *lo = lo.max(sigma);
                } else if value > *lo {
                    *lo = value;
                } else {
                    // Degenerate progress (very weak dual): still move the
                    // bracket a little to guarantee termination.
                    *lo = (*lo * sigma).sqrt().max(*lo);
                }
                if self.best_dual.as_ref().is_none_or(|b| value > b.value) {
                    let feasibility_scale = d.feasibility_scale;
                    self.best_dual = Some(DualSolution { x, value, feasibility_scale });
                }
                true
            }
            Outcome::Primal(p) => {
                let new_hi = if p.min_dot >= 1.0 {
                    // Strong: a trace-1 covering witness proves OPT ≤ σ
                    // (plus pruning slack). Quantized update.
                    sigma * (1.0 + probe.slack)
                } else {
                    let margin = p.min_dot.max(1e-12);
                    sigma * (1.0 / margin + probe.slack)
                };
                if new_hi < *hi {
                    *hi = new_hi;
                } else {
                    *hi = (*hi * sigma).sqrt().min(*hi);
                }
                self.upper_witness = Some((sigma, p));
                false
            }
        }
    }
}

/// Per-coordinate step multipliers (0 = not stepped) under the chosen rule,
/// restricted to the active coordinates. The returned value is the
/// multiplicative step: `x_i ← x_i·(1 + stepᵢ)`.
pub(crate) fn select_steps(
    ratios: &[f64],
    eps: f64,
    alpha: f64,
    rule: UpdateRule,
    active: Option<&[bool]>,
) -> Vec<f64> {
    let is_active = |i: usize| active.is_none_or(|a| a[i]);
    let threshold = 1.0 + eps;
    match rule {
        UpdateRule::Standard | UpdateRule::Stale { .. } => ratios
            .iter()
            .enumerate()
            .map(|(i, &r)| if r <= threshold && is_active(i) { alpha } else { 0.0 })
            .collect(),
        UpdateRule::Bucketed { boost } => ratios
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                if r <= threshold && is_active(i) {
                    // Slack-proportional boost, floored so near-threshold
                    // coordinates keep moving, capped at `boost`.
                    let slack = (threshold - r) / eps;
                    alpha * slack.clamp(0.25, boost)
                } else {
                    0.0
                }
            })
            .collect(),
        UpdateRule::TopK { k } => {
            let mut eligible: Vec<(usize, f64)> = ratios
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, r)| r <= threshold && is_active(i))
                .collect();
            eligible.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut steps = vec![0.0; ratios.len()];
            for &(i, _) in eligible.iter().take(k) {
                steps[i] = alpha;
            }
            steps
        }
    }
}

/// Build a certified dual solution from the raw (threshold-frame) iterate.
fn build_dual(
    x: &[f64],
    psi: &Mat,
    eps: f64,
    k_threshold: f64,
    mode: ConstantsMode,
) -> Result<DualSolution, PsdpError> {
    let scale = match mode {
        ConstantsMode::PaperStrict => (1.0 + 10.0 * eps) * k_threshold,
        ConstantsMode::Practical { .. } => {
            // Certify by measurement: λmax(Σ xᵢAᵢ) from the maintained Ψ.
            let lam = match sym_eigenvalues(psi) {
                Ok(values) => values[values.len() - 1],
                Err(_) => lambda_max_upper_bound(psi),
            };
            (lam * (1.0 + 1e-9)).max(1.0)
        }
    };
    let xs: Vec<f64> = x.iter().map(|v| v / scale).collect();
    let value = vecops::sum(&xs);
    Ok(DualSolution { x: xs, value, feasibility_scale: scale })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_sparse::PsdMatrix;

    fn diag_instance(rows: &[&[f64]]) -> PackingInstance {
        PackingInstance::new(rows.iter().map(|r| PsdMatrix::Diagonal(r.to_vec())).collect())
            .unwrap()
    }

    /// A prepared engine is reused only when its dimension, seed and
    /// resolved kind all match the builder's instance and options.
    #[test]
    fn build_with_engine_rejects_mismatched_engines() {
        let inst = diag_instance(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let wide = diag_instance(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 1.0]]);
        let opts = DecisionOptions::practical(0.2);
        let engine = Solver::builder(&inst).options(opts).build().unwrap().engine_handle();
        let reuse = |inst: &PackingInstance, opts: DecisionOptions| {
            Solver::builder(inst).options(opts).build_with_engine(Arc::clone(&engine)).map(|_| ())
        };
        assert!(reuse(&inst, opts).is_ok());

        let cases = [
            ("engine has dim", reuse(&wide, opts)),
            ("engine was built with seed", reuse(&inst, opts.with_seed(opts.seed + 1))),
            ("engine kind", reuse(&inst, opts.with_engine(EngineKind::Taylor { eps: 0.2 }))),
        ];
        for (what, built) in cases {
            match built {
                Err(PsdpError::InvalidInstance(msg)) => assert!(msg.contains(what), "{msg}"),
                Err(e) => panic!("{what}: wrong error {e}"),
                Ok(()) => panic!("{what}: mismatch was accepted"),
            }
        }
    }

    #[test]
    fn solver_session_answers_both_sides() {
        let inst = diag_instance(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let solver =
            Solver::builder(&inst).options(DecisionOptions::practical(0.2)).build().unwrap();
        let mut s = solver.session();
        // OPT = 2: threshold 1 certifies a dual, threshold 4 a primal.
        let d = s.solve(1.0).unwrap();
        assert!(d.outcome.dual().is_some());
        assert_eq!(d.stats.threshold, 1.0);
        let p = s.solve(4.0).unwrap();
        assert!(p.outcome.primal().is_some());
        assert_eq!(s.solves(), 2);
    }

    #[test]
    fn session_optimize_matches_known_optimum() {
        // OPT = 1/2 + 1/4 = 0.75.
        let inst = diag_instance(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let solver =
            Solver::builder(&inst).options(DecisionOptions::practical(0.025)).build().unwrap();
        let mut s = solver.session();
        let r = s.optimize(&ApproxOptions::practical(0.1)).unwrap();
        assert!(r.converged);
        assert!(r.value_lower <= 0.75 + 1e-9 && r.value_upper >= 0.75 - 1e-9);
        assert_eq!(r.brackets.len(), r.decision_calls);
        assert!(r.brackets.iter().all(|b| b.iterations > 0));
    }

    /// Strict constants mode can never produce a strong dual (the paper
    /// scaling divides by (1+10ε)K), so the bisection must skip warm
    /// attempts and escalation entirely — warm and cold are then the same
    /// cold path, and no discarded work appears in the totals.
    #[test]
    fn strict_mode_optimize_runs_cold_and_matches() {
        let inst = diag_instance(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let mut opts = ApproxOptions::practical(0.2);
        opts.decision = DecisionOptions::strict(0.05);
        let solver = Solver::builder(&inst).options(opts.decision).build().unwrap();
        let warm = solver.session().optimize(&opts).unwrap();
        let cold = solver.session().optimize(&ApproxOptions { warm_start: false, ..opts }).unwrap();
        assert_eq!(warm.value_lower.to_bits(), cold.value_lower.to_bits());
        assert_eq!(warm.value_upper.to_bits(), cold.value_upper.to_bits());
        assert_eq!(warm.total_iterations, cold.total_iterations);
        assert_eq!(warm.total_engine_evals, cold.total_engine_evals);
        assert!(warm.value_lower <= 0.75 && warm.value_upper >= 0.75);
        // No warm attempts were made, so per-call and total accounting
        // coincide exactly.
        let accepted: usize = warm.call_stats.iter().map(|s| s.iterations).sum();
        assert_eq!(warm.total_iterations, accepted);
    }

    /// Discarded warm attempts and escalations still happened: their
    /// engine evaluations must be part of the exported totals.
    #[test]
    fn discarded_attempts_counted_in_totals() {
        let inst = diag_instance(&[&[1.0, 0.0, 0.5], &[0.0, 1.0, 0.5], &[0.5, 0.5, 0.0]]);
        let opts = ApproxOptions::serving(0.1);
        let solver = Solver::builder(&inst).options(opts.decision).build().unwrap();
        let r = solver.session().optimize(&opts).unwrap();
        let accepted_iters: usize = r.call_stats.iter().map(|s| s.iterations).sum();
        let accepted_evals: usize = r.call_stats.iter().map(|s| s.engine_evals).sum();
        assert!(r.total_iterations >= accepted_iters);
        assert!(r.total_engine_evals >= accepted_evals);
        // Per-bracket totals must cover everything the report counts.
        let bracket_iters: usize = r.brackets.iter().map(|b| b.iterations).sum();
        let bracket_evals: usize = r.brackets.iter().map(|b| b.engine_evals).sum();
        assert_eq!(bracket_iters, r.total_iterations);
        assert_eq!(bracket_evals, r.total_engine_evals);
    }

    #[test]
    fn observer_sees_iterations_and_can_stop() {
        struct Counter {
            iters: usize,
            phases: usize,
            stop_at: usize,
        }
        impl Observer for Counter {
            fn on_phase(&mut self, _: &PhaseEvent<'_>) {
                self.phases += 1;
            }
            fn on_iteration(&mut self, ev: &IterationEvent) -> ObserverControl {
                self.iters += 1;
                assert!(ev.t >= 1 && ev.norm1 >= 0.0);
                if self.iters >= self.stop_at {
                    ObserverControl::Stop
                } else {
                    ObserverControl::Continue
                }
            }
        }

        let inst = diag_instance(&[&[0.5, 0.0], &[0.0, 0.5]]);
        let solver =
            Solver::builder(&inst).options(DecisionOptions::practical(0.2)).build().unwrap();
        let mut s = solver.session();
        s.add_observer(Box::new(Counter { iters: 0, phases: 0, stop_at: 3 }));
        let res = s.solve(1.0).unwrap();
        assert_eq!(res.stats.exit, ExitReason::ObserverStopped);
        assert_eq!(res.stats.iterations, 3);
    }

    #[test]
    fn masked_solve_freezes_pruned_coordinates() {
        let inst = diag_instance(&[&[1.0, 0.0], &[0.0, 1.0], &[100.0, 100.0]]);
        let solver =
            Solver::builder(&inst).options(DecisionOptions::practical(0.2)).build().unwrap();
        let mut s = solver.session();
        let res = s
            .run_decision(
                1.0,
                &DecisionOptions::practical(0.2),
                Some(vec![true, true, false]),
                None,
                None,
            )
            .unwrap();
        let d = res.outcome.dual().expect("dual side");
        assert_eq!(d.x[2], 0.0, "masked coordinate moved");
        assert!(d.value >= 0.8);
    }

    #[test]
    fn rejects_bad_threshold() {
        let inst = diag_instance(&[&[1.0]]);
        let solver = Solver::builder(&inst).build().unwrap();
        let mut s = solver.session();
        assert!(s.solve(0.0).is_err());
        assert!(s.solve(f64::NAN).is_err());
        assert!(s.solve(f64::INFINITY).is_err());
    }

    #[test]
    fn select_steps_standard_and_topk() {
        let ratios = vec![0.5, 1.05, 1.3];
        let s = select_steps(&ratios, 0.1, 0.01, UpdateRule::Standard, None);
        assert!(s[0] > 0.0 && s[1] > 0.0 && s[2] == 0.0);
        let s = select_steps(&ratios, 0.1, 0.01, UpdateRule::TopK { k: 1 }, None);
        assert!(s[0] > 0.0 && s[1] == 0.0 && s[2] == 0.0);
        // Masking removes the smallest-ratio coordinate from TopK.
        let s =
            select_steps(&ratios, 0.1, 0.01, UpdateRule::TopK { k: 1 }, Some(&[false, true, true]));
        assert!(s[0] == 0.0 && s[1] > 0.0 && s[2] == 0.0);
    }

    #[test]
    fn select_steps_bucketed_orders_by_slack() {
        let ratios = vec![0.1, 1.0, 2.0];
        let s = select_steps(&ratios, 0.1, 0.01, UpdateRule::Bucketed { boost: 8.0 }, None);
        assert!(s[0] > s[1], "lower ratio should step more: {s:?}");
        assert_eq!(s[2], 0.0);
        assert!(s[0] <= 0.01 * 8.0 + 1e-15);
    }
}
