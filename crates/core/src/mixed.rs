//! Mixed packing–covering SDP solving (Jain–Yao, arXiv:1201.6090) on the
//! Session core.
//!
//! The paper's conclusion names "extending these algorithms to solve mixed
//! packing/covering SDPs" as future work; Jain–Yao give the
//! width-independent parallel algorithm for exactly that class. This module
//! implements it on top of the packing stack from PRs 2–3: the same
//! constraint storage ([`crate::Constraint`]), the same incremental
//! [`PsiMaintainer`] — one per aggregate, `Ψ_P = Σ xᵢPᵢ` and
//! `Ψ_C = Σ xᵢCᵢ` — the same engines for the `exp(Φ)•A` primitive, the
//! same [`Observer`] hooks, Lemma-2.2-style pruning masks, and the same
//! prepared-solver/session split with warm-started bisection.
//!
//! ## The feasibility question and the loop
//!
//! [`MixedSession::solve`] answers, for a [`MixedInstance`] and a coverage
//! threshold `σ`:
//!
//! ```text
//!   ∃ x ≥ 0   with   Σᵢ xᵢPᵢ ⪯ I   and   Σᵢ xᵢCᵢ ⪰ σ·I   (to ε)?
//! ```
//!
//! The loop maintains a soft-max potential on the packing side and a
//! soft-min potential on the covering side,
//!
//! ```text
//!   Y_P = exp(Ψ_P)/Tr exp(Ψ_P),       Y_C = exp(−Ψ_C/σ)/Tr exp(−Ψ_C/σ),
//! ```
//!
//! and each round multiplicatively grows (`xₖ ← xₖ(1+α)`) every coordinate
//! whose *packing price* is at most `(1+ε)` times its *covering price*:
//!
//! ```text
//!   B = { k : Pₖ•Y_P ≤ (1+ε)·(Cₖ•Y_C)/σ }.
//! ```
//!
//! Two certified exits:
//!
//! * **Coverage reached** ([`ExitReason::CoverageReached`]): the soft-min
//!   bound `−ln Tr exp(−Ψ_C/σ) ≤ λmin(Ψ_C)/σ` crosses the target
//!   `T = 2·ln(m_P + m_C)/ε`, where the `ln m` additive slop of the
//!   exponential potential is an ε-fraction. The iterate is rescaled by
//!   the *measured* `max(λmax(Ψ_P), λmin(Ψ_C)/σ)` so packing feasibility
//!   holds exactly, and the measured coverage is reported
//!   ([`MixedFeasible`]) — certification by measurement, like the packing
//!   solver's practical mode.
//! * **Empty eligible set** ([`ExitReason::EmptyEligibleSet`]): the weight
//!   pair `(Y_P, Y_C)` prices every active coordinate out. It is an
//!   explicit infeasibility certificate ([`MixedCertificate`]): for any
//!   packing-feasible `x`, `1 ≥ Σ xₖ(Pₖ•Y_P) ≥ (margin/σ)·Σ xₖ(Cₖ•Y_C)`,
//!   so the coverage optimum is at most `σ/margin`. The certificate is a
//!   measured statement about the final weights — true regardless of the
//!   path that produced them — and re-verifies through
//!   [`crate::verify::verify_mixed_infeasible`].
//!
//! An iteration-cap exit returns the measured (possibly weak) feasible
//! point; the bisection treats it as a certified-but-unhelpful outcome
//! (see below).
//!
//! ## Engines
//!
//! The packing side uses the configured engine ([`EngineKind::Auto`]
//! resolves against the packing storage profile, exactly as in the packing
//! solver). The covering side always runs the **exact** engine: the
//! Lemma 4.2 Taylor sandwich is one-sided for PSD arguments, and
//! `−Ψ_C/σ` is negative semidefinite — a truncated Taylor series there
//! loses relative accuracy to cancellation exactly where the soft-min
//! matters. A width-independent NSD-capable approximation is future work;
//! the exact eigendecomposition keeps every covering-side quantity
//! certified.
//!
//! ## Optimization
//!
//! [`MixedSession::optimize`] finds the largest feasible coverage
//! threshold `σ* = max{ σ : ∃x ≥ 0, Σ xPᵢ ⪯ I, Σ xCᵢ ⪰ σI }` by
//! geometric bisection with **certified-only bracket moves**: the lower
//! bound always comes from a measured feasible point (its coverage
//! `λmin(Σ xCᵢ)` is a witness), the upper bound from a pricing certificate
//! (`σ/margin` plus the certified slack of any pruned coordinates). A
//! decision call that improves neither side first *escalates*: the same
//! `σ` re-runs once with `ε` and `α` halved, which doubles the coverage
//! target `T` and halves the per-step overshoot — the loop's intrinsic
//! resolution (the bracket ratio it can distinguish) tightens past the
//! stall. If even the escalation improves nothing, that is a *stall*: the
//! next `σ` would be the same one, so the bisection stops with
//! `converged = false` rather than move the bracket without a certificate
//! (a deliberate departure from the packing optimizer's
//! degenerate-progress nudge). Warm starts continue each bracket from the
//! previous bracket's kept iterate, rescaled to half the coverage target.
//! The attempt protocol (warm → cold → this escalation), the warm-start
//! iterate, the accounting of discarded work and the bracket rows are the
//! driver's that the packing optimizer shares (`crate::bisect`): a warm
//! attempt that fails to move the bracket is discarded, so warm starts
//! never weaken the report.

use crate::bisect::{bisect, Attempt, Call, Family, Probe};
use crate::error::PsdpError;
use crate::instance::MixedInstance;
use crate::psi::{PsiMaintainer, PsiPattern};
use crate::solution::{ExitReason, MixedCertificate, MixedFeasible, MixedOutcome};
use crate::solver::{
    check_prepared_engine, emit_iteration, emit_phase, evaluate, psi_for_engine, IterationEvent,
    Observer, PhaseEvent,
};
use crate::stats::{BracketStats, SolveStats};
use psdp_expdot::{Engine, EngineKind};
use psdp_linalg::{lambda_max_upper_bound, sym_eigen};
use psdp_parallel::Cost;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Fraction of the coverage target a warm-started bracket iterate is
/// rescaled to (threshold frame). Half leaves the loop room to re-balance
/// before either exit can trigger — the mixed analog of the packing
/// session's warm-mass fraction.
const WARM_TARGET_FRACTION: f64 = 0.5;

/// Configuration for one mixed feasibility solve.
///
/// The mixed loop has no paper-strict constants regime (Jain–Yao's
/// worst-case constants are far from practical, and every output here is
/// certified by measurement anyway), so this is a dedicated options type
/// rather than a reuse of [`crate::DecisionOptions`].
#[derive(Debug, Clone, Copy)]
pub struct MixedOptions {
    /// Target accuracy `ε ∈ (0, 1)` of the price comparison and the
    /// coverage target `T = 2·ln(m_P + m_C)/ε`.
    pub eps: f64,
    /// Engine for the packing-side `exp(Ψ_P)•Pₖ` primitive
    /// ([`EngineKind::Auto`] resolves against the packing storage). The
    /// covering side always runs exact (see the module docs).
    pub engine: EngineKind,
    /// Hard iteration cap per decision call.
    pub max_iters: usize,
    /// Multiplier on the base step `α = ε/4` (the scalar mixed solver's
    /// step). Larger is faster but overshoots more; outputs stay certified
    /// either way.
    pub alpha_boost: f64,
    /// Full-rebuild cadence of both incremental `Ψ` maintainers
    /// (`0` = never rebuild), as in
    /// [`crate::DecisionOptions::psi_rebuild_period`].
    pub psi_rebuild_period: usize,
    /// Root seed for sketched packing engines.
    pub seed: u64,
}

impl MixedOptions {
    /// Practical defaults at accuracy `eps` with the exact engine.
    pub fn practical(eps: f64) -> Self {
        MixedOptions {
            eps,
            engine: EngineKind::Exact,
            max_iters: 20_000,
            alpha_boost: 4.0,
            psi_rebuild_period: 64,
            seed: 0,
        }
    }

    /// Builder-style engine override.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate parameter ranges.
    ///
    /// # Errors
    /// [`PsdpError::InvalidInstance`] on out-of-range values.
    pub fn validate(&self) -> Result<(), PsdpError> {
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(PsdpError::InvalidInstance(format!(
                "mixed eps must be in (0,1), got {}",
                self.eps
            )));
        }
        if self.max_iters == 0 {
            return Err(PsdpError::InvalidInstance("mixed max_iters must be ≥ 1".into()));
        }
        crate::options::validate_engine(self.engine)?;
        if !self.alpha_boost.is_finite() || self.alpha_boost <= 0.0 {
            return Err(PsdpError::InvalidInstance(
                "mixed alpha_boost must be finite and > 0".into(),
            ));
        }
        Ok(())
    }
}

/// Configuration for the certified bisection over coverage thresholds.
#[derive(Debug, Clone, Copy)]
pub struct MixedApproxOptions {
    /// Target relative accuracy of the returned threshold bracket.
    pub eps: f64,
    /// Configuration for each decision call (its `eps` should be ≤ this
    /// one for the bracket to close). The engine kind and seed are fixed
    /// when the [`MixedSolver`] is built and ignored here; everything
    /// else (eps, iteration cap, step boost, Ψ rebuild cadence) takes
    /// effect per call.
    pub decision: MixedOptions,
    /// Cap on decision calls.
    pub max_calls: usize,
    /// Warm-start each bracket after the first from the previous bracket's
    /// kept iterate (rescaled). Discarded when it fails to move the
    /// bracket, so the report is certified either way.
    pub warm_start: bool,
}

impl MixedApproxOptions {
    /// Default practical configuration at bracket accuracy `eps`.
    pub fn practical(eps: f64) -> Self {
        MixedApproxOptions {
            eps,
            decision: MixedOptions::practical(eps / 2.0),
            max_calls: 40,
            warm_start: true,
        }
    }
}

/// The soft-min coverage target `T = 2·ln(m_P + m_C)/ε` (at least `2/ε`):
/// once `λmin(Ψ_C)/σ ≥ T` the `ln m` additive slop of both exponential
/// potentials is an ε-fraction of the aggregate scale.
pub fn coverage_target(eps: f64, pack_dim: usize, cover_dim: usize) -> f64 {
    2.0 * ((pack_dim + cover_dim) as f64).ln().max(1.0) / eps
}

/// Outcome + telemetry of one mixed feasibility solve.
#[derive(Debug, Clone)]
pub struct MixedDecision {
    /// Which side was certified.
    pub outcome: MixedOutcome,
    /// Telemetry. `threshold` is the tested `σ`; `final_norm1` and the
    /// sampled trajectory carry the soft-min coverage bound (threshold
    /// frame) instead of `‖x‖₁`; `k_threshold` is the coverage target `T`.
    pub stats: SolveStats,
}

/// Result of optimizing the coverage threshold of a mixed instance.
#[derive(Debug, Clone)]
pub struct MixedReport {
    /// Certified lower bound on `σ*` (measured coverage of
    /// [`MixedReport::best_point`]).
    pub threshold_lower: f64,
    /// Certified upper bound on `σ*` (pricing certificate plus pruning
    /// slack, or the structural cap bound).
    pub threshold_upper: f64,
    /// The best feasible point found (largest measured coverage).
    pub best_point: Option<MixedFeasible>,
    /// The tightest infeasibility certificate found, if any bracket
    /// resolved to the infeasible side.
    pub infeasibility_witness: Option<MixedCertificate>,
    /// Number of decision calls made.
    pub decision_calls: usize,
    /// Total inner iterations across all calls, including discarded warm
    /// attempts.
    pub total_iterations: usize,
    /// Total live engine evaluations (packing + covering sides), including
    /// discarded warm attempts.
    pub total_engine_evals: usize,
    /// Whether the bracket closed to `(1+eps)`.
    pub converged: bool,
    /// Largest number of coordinates pruned in any single call.
    pub pruned_max: usize,
    /// Per-call solver stats (the accepted solve of each bracket).
    pub call_stats: Vec<SolveStats>,
    /// Per-bracket breakdown (tested `σ`, certified side, bracket after
    /// the move, work including discarded attempts).
    pub brackets: Vec<BracketStats>,
}

impl MixedReport {
    /// Midpoint estimate of `σ*` (geometric mean of the bracket).
    pub fn threshold_estimate(&self) -> f64 {
        (self.threshold_lower * self.threshold_upper).sqrt()
    }
}

/// Builder for a prepared [`MixedSolver`].
#[derive(Debug, Clone)]
pub struct MixedSolverBuilder<'i> {
    inst: &'i MixedInstance,
    opts: MixedOptions,
}

impl<'i> MixedSolverBuilder<'i> {
    /// Set the decision options the solver prepares for.
    pub fn options(mut self, opts: MixedOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Validate the options, resolve [`EngineKind::Auto`] against the
    /// packing side's storage profile, and construct both engines —
    /// including any support-local constraint factorizations — exactly
    /// once.
    ///
    /// # Errors
    /// Option validation and constraint factorization failures.
    pub fn build(self) -> Result<MixedSolver<'i>, PsdpError> {
        self.opts.validate()?;
        let pack_engine =
            Arc::new(Engine::new(self.opts.engine, self.inst.pack().mats(), self.opts.seed)?);
        // Covering side: always exact (see the module docs — the Taylor
        // sandwich does not hold for the NSD argument −Ψ_C/σ).
        let cover_engine =
            Arc::new(Engine::new(EngineKind::Exact, self.inst.cover().mats(), self.opts.seed)?);
        Self::assemble(self.inst, self.opts, pack_engine, cover_engine)
    }

    /// Like [`MixedSolverBuilder::build`], but reuse already-prepared
    /// engines (obtained from [`MixedSolver::engine_handles`] of an
    /// earlier solver for the same instance) — the serving layer's
    /// amortization hook, mirroring
    /// [`crate::SolverBuilder::build_with_engine`]. Dimensions, seeds, and
    /// resolved kinds are re-checked; full instance identity is the
    /// caller's cache-key responsibility (see `DESIGN.md` §10).
    ///
    /// # Errors
    /// Option validation failures, or engines inconsistent with this
    /// instance/options pair.
    pub fn build_with_engines(
        self,
        pack_engine: Arc<Engine>,
        cover_engine: Arc<Engine>,
    ) -> Result<MixedSolver<'i>, PsdpError> {
        self.opts.validate()?;
        let (inst, seed) = (self.inst, self.opts.seed);
        let want_pack = self.opts.engine.resolve(inst.pack_dim(), inst.pack().total_nnz());
        check_prepared_engine(&pack_engine, "packing", inst.pack_dim(), seed, want_pack)?;
        check_prepared_engine(
            &cover_engine,
            "covering",
            inst.cover_dim(),
            seed,
            EngineKind::Exact,
        )?;
        Self::assemble(self.inst, self.opts, pack_engine, cover_engine)
    }

    fn assemble(
        inst: &'i MixedInstance,
        opts: MixedOptions,
        pack_engine: Arc<Engine>,
        cover_engine: Arc<Engine>,
    ) -> Result<MixedSolver<'i>, PsdpError> {
        let pack_traces: Vec<f64> = inst.pack().mats().iter().map(|a| a.trace()).collect();
        let cover_traces: Vec<f64> = inst.cover().mats().iter().map(|a| a.trace()).collect();
        Ok(MixedSolver {
            inst,
            opts,
            pack_engine,
            cover_engine,
            pack_traces,
            cover_traces,
            pack_pattern: OnceLock::new(),
        })
    }
}

/// A prepared mixed packing–covering solver bound to one
/// [`MixedInstance`]: validation, engine resolution, and factorization
/// happen once here; solves run through [`MixedSession`]s.
///
/// ```
/// use psdp_core::{MixedInstance, MixedOptions, MixedSolver};
/// use psdp_sparse::PsdMatrix;
///
/// // One coordinate: 2x ≤ 1 (packing), x ≥ σ (covering) ⇒ σ* = 1/2.
/// let inst = MixedInstance::new(
///     vec![PsdMatrix::Diagonal(vec![2.0])],
///     vec![PsdMatrix::Diagonal(vec![1.0])],
/// )?;
/// let solver = MixedSolver::builder(&inst).options(MixedOptions::practical(0.1)).build()?;
/// let mut session = solver.session();
/// // σ = 0.25 is comfortably feasible…
/// let res = session.solve(0.25)?;
/// let f = res.outcome.feasible().expect("feasible side");
/// assert!(f.cover_lambda_min >= 0.25 * 0.99);
/// // …and σ = 1.0 is comfortably infeasible.
/// let res = session.solve(1.0)?;
/// assert!(res.outcome.infeasible().is_some());
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
pub struct MixedSolver<'i> {
    inst: &'i MixedInstance,
    opts: MixedOptions,
    pack_engine: Arc<Engine>,
    cover_engine: Arc<Engine>,
    pack_traces: Vec<f64>,
    cover_traces: Vec<f64>,
    /// `Ψ_P`'s sparsity pattern, built on the first solve and only for an
    /// `Expv` packing engine.
    pack_pattern: OnceLock<PsiPattern>,
}

impl<'i> MixedSolver<'i> {
    /// Start building a solver for `inst`.
    pub fn builder(inst: &'i MixedInstance) -> MixedSolverBuilder<'i> {
        MixedSolverBuilder { inst, opts: MixedOptions::practical(0.1) }
    }

    /// The instance this solver was prepared for.
    pub fn instance(&self) -> &MixedInstance {
        self.inst
    }

    /// The options the solver was built with.
    pub fn options(&self) -> &MixedOptions {
        &self.opts
    }

    /// The concrete packing-side engine kind ([`EngineKind::Auto`] is
    /// resolved at build time). The covering side is always
    /// [`EngineKind::Exact`].
    pub fn pack_engine_kind(&self) -> EngineKind {
        self.pack_engine.kind()
    }

    /// Shareable handles to the prepared `(packing, covering)` engines, for
    /// [`MixedSolverBuilder::build_with_engines`] reuse on the same
    /// instance.
    pub fn engine_handles(&self) -> (Arc<Engine>, Arc<Engine>) {
        (Arc::clone(&self.pack_engine), Arc::clone(&self.cover_engine))
    }

    /// Open a fresh session (no observers). Whether
    /// [`MixedSession::optimize`] warm-starts its brackets is
    /// [`MixedApproxOptions::warm_start`].
    pub fn session(&self) -> MixedSession<'i, '_> {
        MixedSession { solver: self, observers: Vec::new(), solves: 0 }
    }
}

/// A stateful mixed-solve session over a prepared [`MixedSolver`],
/// mirroring [`crate::Session`]: it owns the registered [`Observer`]s.
pub struct MixedSession<'i, 's> {
    solver: &'s MixedSolver<'i>,
    observers: Vec<Box<dyn Observer>>,
    solves: usize,
}

impl<'i, 's> MixedSession<'i, 's> {
    /// Register an observer for subsequent solves (shared
    /// [`Observer`] trait with the packing session; `norm1` in
    /// [`IterationEvent`] carries the soft-min coverage bound here).
    pub fn add_observer(&mut self, obs: Box<dyn Observer>) {
        self.observers.push(obs);
    }

    /// Number of decision solves this session has run.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Answer the mixed feasibility question at coverage threshold
    /// `sigma` with the solver's build-time options.
    ///
    /// # Errors
    /// Invalid threshold or linear-algebra failures.
    pub fn solve(&mut self, sigma: f64) -> Result<MixedDecision, PsdpError> {
        let opts = self.solver.opts;
        let Attempt { outcome, stats, .. } = self.run_decision(sigma, &opts, None, None)?;
        Ok(MixedDecision { outcome, stats })
    }

    /// The Jain–Yao price loop at coverage threshold `sigma`, optionally
    /// restricted to an active-coordinate mask and optionally starting
    /// from a warm iterate (original coordinates); the call returns its
    /// final iterate with its outcome.
    fn run_decision(
        &mut self,
        sigma: f64,
        opts: &MixedOptions,
        mask: Option<Vec<bool>>,
        start: Option<Vec<f64>>,
    ) -> Call<MixedOutcome> {
        if !(sigma > 0.0 && sigma.is_finite()) {
            return Err(PsdpError::InvalidInstance(format!(
                "coverage threshold must be positive and finite, got {sigma}"
            )));
        }
        let wall_start = Instant::now();
        self.solves += 1;
        let inst = self.solver.inst;
        let n = inst.n();
        let eps = opts.eps;

        let active: Vec<bool> = mask.unwrap_or_else(|| vec![true; n]);
        debug_assert_eq!(active.len(), n);
        let n_active = active.iter().filter(|&&b| b).count();
        if n_active == 0 {
            return Err(PsdpError::InvalidInstance("active-coordinate mask is empty".into()));
        }

        let t_target = coverage_target(eps, inst.pack_dim(), inst.cover_dim());
        let alpha = (eps / 4.0) * opts.alpha_boost;
        let cap = opts.max_iters;

        // Start point: small multiplicative mass on every active
        // coordinate, scaled so neither aggregate starts anywhere near its
        // target (cf. the scalar mixed solver's start). Masked coordinates
        // are frozen at 0.
        let warm_init = start.is_some();
        let mut x: Vec<f64> = match start {
            Some(u) => {
                debug_assert_eq!(u.len(), n);
                u
            }
            None => {
                self.solver
                    .pack_traces
                    .iter()
                    .zip(&self.solver.cover_traces)
                    .zip(&active)
                    .map(|((&tp, &tc), &a)| {
                        if a {
                            1.0 / (n_active as f64 * tp.max(tc / sigma) * t_target)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            }
        };
        let mut psi_p = psi_for_engine(
            &self.solver.pack_engine,
            inst.pack(),
            &self.solver.pack_pattern,
            &x,
            opts.psi_rebuild_period,
        );
        let mut psi_c = PsiMaintainer::new(inst.cover(), &x, opts.psi_rebuild_period);

        let phase = PhaseEvent::SolveStarted { threshold: sigma, warm: warm_init };
        emit_phase(&mut self.observers, &phase);

        let mut cost_total = Cost::ZERO;
        let mut selected_total = 0usize;
        let mut kappa_max = 0.0_f64;
        let mut engine_evals = 0usize;
        let mut exit = ExitReason::IterationCap;
        let sample_every = (cap / 200).max(1);
        let mut trajectory: Vec<(usize, f64)> = Vec::new();
        let mut smin = f64::NEG_INFINITY;
        let mut certificate: Option<MixedCertificate> = None;
        let mut t = 0usize;

        while t < cap {
            t += 1;

            // Packing side: soft-max weights over Ψ_P.
            let kappa_p = psi_p.kappa_bound();
            kappa_max = kappa_max.max(kappa_p);
            let pack = evaluate(&self.solver.pack_engine, &psi_p, kappa_p, inst.pack(), t as u64)?;
            engine_evals += 1;
            cost_total = cost_total + pack.cost;

            // Covering side: soft-min weights over Ψ_C/σ, i.e. exp of the
            // NSD matrix −Ψ_C/σ (exact engine; log_scale is 0 there but
            // kept in the soft-min bound for generality).
            let phi_c = psi_c.matrix().scaled(-1.0 / sigma);
            let kappa_c = lambda_max_upper_bound(psi_c.matrix()) / sigma;
            let cover =
                self.solver.cover_engine.compute(&phi_c, kappa_c, inst.cover().mats(), t as u64)?;
            engine_evals += 1;
            cost_total = cost_total + cover.cost;

            // Soft-min coverage bound: λmin(Ψ_C)/σ ≥ −ln Tr exp(−Ψ_C/σ).
            smin = -(cover.tr_w.ln() + cover.log_scale);
            if t.is_multiple_of(sample_every) {
                trajectory.push((t, smin));
            }
            if smin >= t_target {
                exit = ExitReason::CoverageReached;
                break;
            }

            // Prices. pack_dots[k] = Pₖ•Y_P; cover_dots[k] = Cₖ•Y_C.
            let inv_tr_p = 1.0 / pack.tr_w;
            let inv_tr_c = 1.0 / cover.tr_w;
            let pack_dots: Vec<f64> = pack.dots.iter().map(|d| d * inv_tr_p).collect();
            let cover_dots: Vec<f64> = cover.dots.iter().map(|d| d * inv_tr_c).collect();

            // Eligible set: packing price ≤ (1+ε) · covering price, where
            // the covering price carries the 1/σ of the scaled C̃ₖ = Cₖ/σ.
            let mut deltas: Vec<(usize, f64)> = Vec::new();
            let mut min_ratio = f64::INFINITY;
            for k in 0..n {
                if !active[k] {
                    continue;
                }
                let ratio = if cover_dots[k] > 0.0 {
                    sigma * pack_dots[k] / cover_dots[k]
                } else {
                    f64::INFINITY
                };
                min_ratio = min_ratio.min(ratio);
                if pack_dots[k] * sigma <= (1.0 + eps) * cover_dots[k] {
                    deltas.push((k, alpha * x[k]));
                }
            }
            if deltas.is_empty() {
                // Every active coordinate is priced out: the weight pair
                // is an infeasibility certificate with the measured margin.
                certificate = Some(MixedCertificate {
                    sigma,
                    y_pack: pack.dense_p.clone(),
                    y_cover: cover.dense_p.clone(),
                    pack_dots,
                    cover_dots,
                    active: active.clone(),
                    margin: min_ratio,
                });
                exit = ExitReason::EmptyEligibleSet;
                break;
            }

            selected_total += deltas.len();
            for &(k, d) in &deltas {
                x[k] += d;
            }
            psi_p.apply_updates(&deltas);
            psi_c.apply_updates(&deltas);
            psi_p.maybe_rebuild(&x);
            psi_c.maybe_rebuild(&x);

            if !self.observers.is_empty() {
                let event = IterationEvent {
                    threshold: sigma,
                    t,
                    norm1: smin,
                    selected: deltas.len(),
                    kappa: kappa_p,
                    min_ratio,
                };
                if emit_iteration(&mut self.observers, &event) {
                    exit = ExitReason::ObserverStopped;
                    break;
                }
            }
        }

        let outcome = match certificate {
            Some(cert) => MixedOutcome::Infeasible(cert),
            None => {
                // Feasible-side exit (coverage reached, cap, or observer):
                // certify by measurement. Rescale so λmax(Σ xPᵢ) ≤ 1 holds
                // exactly and report the measured coverage.
                let lam_p = match sym_eigen(psi_p.matrix()) {
                    Ok(e) => e.lambda_max(),
                    Err(_) => lambda_max_upper_bound(psi_p.matrix()),
                };
                let lam_c = match sym_eigen(psi_c.matrix()) {
                    Ok(e) => e.lambda_min(),
                    // The soft-min bound is a certified fallback.
                    Err(_) => (sigma * smin).max(0.0),
                };
                let s = lam_p.max(lam_c / sigma).max(1e-300);
                let x_hat: Vec<f64> = x.iter().map(|v| v / s).collect();
                MixedOutcome::Feasible(MixedFeasible {
                    x: x_hat,
                    pack_lambda_max: lam_p / s,
                    cover_lambda_min: lam_c / s,
                })
            }
        };

        let stats = SolveStats {
            iterations: t,
            exit,
            final_norm1: smin,
            k_threshold: t_target,
            alpha,
            iteration_cap: cap,
            cost: cost_total,
            engine: self.solver.pack_engine.kind().name(),
            avg_selected: if t > 0 { selected_total as f64 / t as f64 } else { 0.0 },
            kappa_max,
            psi_rebuilds: psi_p.rebuilds() + psi_c.rebuilds(),
            psi_max_drift: psi_p.max_drift().max(psi_c.max_drift()),
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

    /// Optimize the coverage threshold `σ*` to `(1+ε)` relative accuracy
    /// by certified geometric bisection over this session.
    ///
    /// Bracket initialization is structural and certified:
    ///
    /// * **Upper**: any packing-feasible `x` has
    ///   `xₖ·Tr Pₖ ≤ Tr(Σ xPᵢ) ≤ m_P`, so
    ///   `σ* ≤ λmin(Σₖ (m_P/Tr Pₖ)·Cₖ)` by monotonicity of `⪯`.
    /// * **Lower**: the explicit witness `xₖ = 1/(n·Tr Pₖ)` is
    ///   packing-feasible (`λmax ≤ trace`); after tightening its packing
    ///   norm to 1 by measurement, its measured coverage is a certified
    ///   lower bound. A witness with zero coverage proves `σ* = 0`
    ///   outright (a common null vector of every `Cₖ`), and the bisection
    ///   short-circuits.
    ///
    /// Every bracket move is backed by a feasible point or a pricing
    /// certificate; a stalled bracket ends the search with
    /// `converged = false` instead of moving uncertified (see the module
    /// docs). The report depends on the solver and `opts` alone, not on
    /// earlier calls on this session.
    ///
    /// # Errors
    /// Validation or linear-algebra failures. A bracket that fails to
    /// close within `max_calls` is reported with `converged = false`, not
    /// an error.
    pub fn optimize(&mut self, opts: &MixedApproxOptions) -> Result<MixedReport, PsdpError> {
        if !(opts.eps > 0.0 && opts.eps < 1.0) {
            return Err(PsdpError::InvalidInstance(format!("eps {} not in (0,1)", opts.eps)));
        }
        opts.decision.validate()?;
        let inst = self.solver.inst;
        let n = inst.n();

        // Structural upper bound: caps[k] = m_P / Tr Pₖ dominates any
        // packing-feasible coordinate.
        let caps: Vec<f64> = self
            .solver
            .pack_traces
            .iter()
            .map(|&tr| inst.pack_dim() as f64 / tr.max(1e-300))
            .collect();
        let cap_cover = inst.cover().weighted_sum(&caps);
        let hi_structural = sym_eigen(&cap_cover)?.lambda_min().max(0.0);

        // Certified witness lower bound: xₖ = 1/(n·Tr Pₖ) has
        // λmax(Σ xPᵢ) ≤ Σ xₖ·Tr Pₖ = 1; tighten to packing norm 1 by
        // measurement and read off its coverage.
        let mut w: Vec<f64> =
            self.solver.pack_traces.iter().map(|&tr| 1.0 / (n as f64 * tr.max(1e-300))).collect();
        let lam_w = sym_eigen(&inst.pack().weighted_sum(&w))?.lambda_max();
        if lam_w > 0.0 {
            let s = lam_w * (1.0 + 1e-9);
            for v in &mut w {
                *v /= s;
            }
        }
        let lo_witness = sym_eigen(&inst.cover().weighted_sum(&w))?.lambda_min();

        // A NaN measurement is an eigensolver failure, not evidence: it
        // must never be laundered into the certified "σ* = 0" claim below.
        if lo_witness.is_nan() || hi_structural.is_nan() {
            return Err(PsdpError::InvalidInstance(
                "non-finite eigenvalue while initializing the coverage bracket".into(),
            ));
        }
        // A strictly positive witness with zero coverage means some vector
        // v has vᵀCₖv = 0 for every k, so λmin(Σ xCᵢ) = 0 for *every* x:
        // the coverage optimum is exactly 0, and the bracket starts closed.
        let zero = lo_witness <= 0.0 || hi_structural <= 0.0;
        let lo = if zero { 0.0 } else { lo_witness };
        let hi = if zero { 0.0 } else { hi_structural.max(lo * (1.0 + 2.0 * opts.eps)) };
        let mut family = MixedBisection {
            session: self,
            opts,
            caps,
            best_point: (!zero).then(|| MixedFeasible {
                x: w,
                pack_lambda_max: (lam_w / (lam_w * (1.0 + 1e-9))).min(1.0),
                cover_lambda_min: lo_witness,
            }),
            infeasibility_witness: None,
            pruned_max: 0,
        };
        let run = bisect(&mut family, (lo, hi), opts.eps, opts.max_calls)?;
        Ok(MixedReport {
            threshold_lower: run.lo,
            threshold_upper: run.hi,
            best_point: family.best_point,
            infeasibility_witness: family.infeasibility_witness,
            decision_calls: run.brackets.len(),
            total_iterations: run.brackets.iter().map(|b| b.iterations).sum(),
            total_engine_evals: run.brackets.iter().map(|b| b.engine_evals).sum(),
            converged: run.converged,
            pruned_max: family.pruned_max,
            call_stats: run.call_stats,
            brackets: run.brackets,
        })
    }
}

/// The mixed pieces of the shared bisection (`crate::bisect`).
struct MixedBisection<'a, 'i, 's> {
    session: &'a mut MixedSession<'i, 's>,
    opts: &'a MixedApproxOptions,
    /// `m_P / Tr Pₖ`, the structural cap of each coordinate.
    caps: Vec<f64>,
    best_point: Option<MixedFeasible>,
    infeasibility_witness: Option<MixedCertificate>,
    pruned_max: usize,
}

impl Family for MixedBisection<'_, '_, '_> {
    type Outcome = MixedOutcome;

    fn observers(&mut self) -> &mut [Box<dyn Observer>] {
        &mut self.session.observers
    }

    /// Coordinate k's total coverage contribution in any packing-feasible
    /// point is ≤ caps[k]·λmax(Cₖ) ≤ caps[k]·Tr Cₖ; drop it when that is
    /// ≤ ε·σ/(2n), so the dropped set's certified slack is ≤ ε·σ/2.
    fn probe(&mut self, sigma: f64) -> Probe {
        let n = self.caps.len();
        let cutoff = self.opts.eps * sigma / (2.0 * n as f64);
        let (caps, cover_traces) = (&self.caps, &self.session.solver.cover_traces);
        let probe = Probe::new(sigma, n, |k| {
            let contribution = caps[k] * cover_traces[k];
            (contribution <= cutoff).then_some(contribution)
        });
        self.pruned_max = self.pruned_max.max(if probe.masked { probe.dropped } else { 0 });
        probe
    }

    /// The previous bracket's kept iterate rescaled so its threshold-frame
    /// aggregate norm is half the coverage target (room to re-balance
    /// before either exit fires).
    fn warm_seed(&self, probe: &Probe, u: &[f64]) -> Option<Vec<f64>> {
        if !self.opts.warm_start {
            return None;
        }
        let inst = self.session.solver.inst;
        let t_target = coverage_target(self.opts.decision.eps, inst.pack_dim(), inst.cover_dim());
        let cur = lambda_max_upper_bound(&inst.pack().weighted_sum(u))
            .max(lambda_max_upper_bound(&inst.cover().weighted_sum(u)) / probe.sigma)
            .max(1e-300);
        let gamma = WARM_TARGET_FRACTION * t_target / cur;
        Some(u.iter().map(|v| v * gamma).collect())
    }

    fn solve(&mut self, probe: &Probe, seed: Option<Vec<f64>>) -> Call<MixedOutcome> {
        self.session.run_decision(probe.sigma, &self.opts.decision, probe.mask(), seed)
    }

    /// Re-run cold with ε and α halved: the coverage target T doubles and
    /// the per-step overshoot halves, so the loop's intrinsic resolution
    /// tightens past the stall. Its errors propagate. It takes no budget
    /// from the cold solve: a kept retry can run several times as long.
    fn escalate(&mut self, probe: &Probe, _: &Attempt<MixedOutcome>) -> Option<Call<MixedOutcome>> {
        let mut fine = self.opts.decision;
        fine.eps *= 0.5;
        fine.alpha_boost = (fine.alpha_boost * 0.5).max(1.0);
        Some(self.session.run_decision(probe.sigma, &fine, probe.mask(), None))
    }

    /// A call is kept when it improves the side it certifies.
    fn accepts(&self, outcome: &MixedOutcome, probe: &Probe, lo: f64, hi: f64) -> bool {
        match outcome {
            MixedOutcome::Feasible(f) => f.cover_lambda_min > lo,
            MixedOutcome::Infeasible(c) => probe.sigma / c.margin.max(1e-300) + probe.slack < hi,
        }
    }

    fn advance(
        &mut self,
        outcome: MixedOutcome,
        probe: &Probe,
        lo: &mut f64,
        hi: &mut f64,
    ) -> bool {
        match outcome {
            MixedOutcome::Feasible(f) => {
                if f.cover_lambda_min > *lo {
                    *lo = f.cover_lambda_min;
                }
                let best = &self.best_point;
                if best.as_ref().is_none_or(|b| f.cover_lambda_min > b.cover_lambda_min) {
                    self.best_point = Some(f);
                }
                true
            }
            MixedOutcome::Infeasible(c) => {
                let new_hi = probe.sigma / c.margin.max(1e-300) + probe.slack;
                if new_hi < *hi {
                    *hi = new_hi;
                }
                let best = &self.infeasibility_witness;
                if best.as_ref().is_none_or(|b| c.refuted_threshold() < b.refuted_threshold()) {
                    self.infeasibility_witness = Some(c);
                }
                false
            }
        }
    }
}

/// One-shot convenience: prepare a [`MixedSolver`], open a session, and
/// optimize the coverage threshold.
///
/// ```
/// use psdp_core::{solve_mixed, MixedApproxOptions, MixedInstance};
/// use psdp_sparse::PsdMatrix;
///
/// // Two orthogonal coordinates: P = diag(2)/diag(4) caps, C = identity
/// // demands ⇒ σ* = min coverage achievable… here σ* = 1/2 + … measured.
/// let inst = MixedInstance::new(
///     vec![PsdMatrix::Diagonal(vec![2.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 2.0])],
///     vec![PsdMatrix::Diagonal(vec![1.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 1.0])],
/// )?;
/// // σ* = 1/2: each coordinate is capped at 1/2 and covers its own axis.
/// let r = solve_mixed(&inst, &MixedApproxOptions::practical(0.1))?;
/// assert!(r.threshold_lower <= 0.5 + 1e-9 && r.threshold_upper >= 0.5 - 1e-9);
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
///
/// # Errors
/// Validation or linear-algebra failures (see [`MixedSession::optimize`]).
pub fn solve_mixed(
    inst: &MixedInstance,
    opts: &MixedApproxOptions,
) -> Result<MixedReport, PsdpError> {
    MixedSolver::builder(inst).options(opts.decision).build()?.session().optimize(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ObserverControl;
    use crate::verify::{verify_mixed_feasible, verify_mixed_infeasible};
    use psdp_sparse::PsdMatrix;

    fn diag(d: &[f64]) -> PsdMatrix {
        PsdMatrix::Diagonal(d.to_vec())
    }

    /// 1-coordinate instance 2x ≤ 1, x ≥ σ: σ* = 1/2 exactly.
    fn half_instance() -> MixedInstance {
        MixedInstance::new(vec![diag(&[2.0])], vec![diag(&[1.0])]).unwrap()
    }

    /// Prepared engines are reused only when each side's dimension, seed
    /// and resolved kind match the builder's instance and options.
    #[test]
    fn build_with_engines_rejects_mismatched_engines() {
        let inst = half_instance();
        let wide = MixedInstance::new(vec![diag(&[2.0, 1.0])], vec![diag(&[1.0, 1.0])]).unwrap();
        let opts = MixedOptions::practical(0.1);
        let taylor = EngineKind::Taylor { eps: 0.1 };
        let (pack, cover) =
            MixedSolver::builder(&inst).options(opts).build().unwrap().engine_handles();
        let (wide_pack, wide_cover) =
            MixedSolver::builder(&wide).options(opts).build().unwrap().engine_handles();
        let cover_engine =
            |kind, seed| Arc::new(Engine::new(kind, inst.cover().mats(), seed).unwrap());
        let reuse = |opts: MixedOptions, pack: &Arc<Engine>, cover: &Arc<Engine>| {
            MixedSolver::builder(&inst)
                .options(opts)
                .build_with_engines(Arc::clone(pack), Arc::clone(cover))
                .map(|_| ())
        };
        assert!(reuse(opts, &pack, &cover).is_ok());

        let cases = [
            ("packing engine has dim", reuse(opts, &wide_pack, &cover)),
            (
                "packing engine was built with seed",
                reuse(opts.with_seed(opts.seed + 1), &pack, &cover),
            ),
            ("packing engine kind", reuse(opts.with_engine(taylor), &pack, &cover)),
            ("covering engine has dim", reuse(opts, &pack, &wide_cover)),
            (
                "covering engine was built with seed",
                reuse(opts, &pack, &cover_engine(EngineKind::Exact, opts.seed + 1)),
            ),
            ("covering engine", reuse(opts, &pack, &cover_engine(taylor, opts.seed))),
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
    fn decision_certifies_both_sides() {
        let inst = half_instance();
        let solver =
            MixedSolver::builder(&inst).options(MixedOptions::practical(0.1)).build().unwrap();
        let mut s = solver.session();

        let res = s.solve(0.2).unwrap();
        let f = res.outcome.feasible().expect("feasible at σ=0.2");
        let cert = verify_mixed_feasible(&inst, f, 0.2 * 0.9, 1e-9);
        assert!(cert.feasible, "{cert:?}");
        assert!(f.pack_lambda_max <= 1.0 + 1e-9);

        let res = s.solve(2.0).unwrap();
        let c = res.outcome.infeasible().expect("infeasible at σ=2");
        assert!(c.margin > 1.0);
        let v = verify_mixed_infeasible(&inst, c, 1e-9);
        assert!(v.valid, "{v:?}");
        // The certificate's refuted threshold bounds σ* = 1/2 from above.
        assert!(v.refuted_threshold >= 0.5 - 1e-9, "{v:?}");
        assert_eq!(s.solves(), 2);
    }

    #[test]
    fn optimize_brackets_known_threshold() {
        let inst = half_instance();
        let r = solve_mixed(&inst, &MixedApproxOptions::practical(0.1)).unwrap();
        assert!(r.threshold_lower <= 0.5 + 1e-9, "lo {}", r.threshold_lower);
        assert!(r.threshold_upper >= 0.5 - 1e-9, "hi {}", r.threshold_upper);
        assert!(r.converged, "bracket [{}, {}]", r.threshold_lower, r.threshold_upper);
        assert_eq!(r.brackets.len(), r.decision_calls);
        // The best point's measured coverage certifies the lower bound.
        let p = r.best_point.expect("witness");
        let cert = verify_mixed_feasible(&inst, &p, r.threshold_lower * (1.0 - 1e-9), 1e-9);
        assert!(cert.feasible, "{cert:?}");
    }

    #[test]
    fn optimize_two_coordinate_diagonal() {
        // x₁·diag(2,0) + x₂·diag(0,2) ⪯ I caps x ≤ 1/2 each;
        // C₁ = diag(1,0), C₂ = diag(0,1): coverage = min(x₁, x₂) ⇒ σ* = 1/2.
        let inst = MixedInstance::new(
            vec![diag(&[2.0, 0.0]), diag(&[0.0, 2.0])],
            vec![diag(&[1.0, 0.0]), diag(&[0.0, 1.0])],
        )
        .unwrap();
        let r = solve_mixed(&inst, &MixedApproxOptions::practical(0.1)).unwrap();
        assert!(r.threshold_lower <= 0.5 + 1e-9 && r.threshold_upper >= 0.5 - 1e-9);
        assert!(r.threshold_estimate() > 0.0);
    }

    #[test]
    fn zero_coverage_short_circuits() {
        // Covering matrices all live on coordinate 0 of a 2-dim space:
        // λmin(Σ xC) = 0 for every x, so σ* = 0 and no bisection runs.
        let inst = MixedInstance::new(vec![diag(&[1.0, 1.0])], vec![diag(&[1.0, 0.0])]).unwrap();
        let r = solve_mixed(&inst, &MixedApproxOptions::practical(0.1)).unwrap();
        assert_eq!(r.threshold_upper, 0.0);
        assert_eq!(r.decision_calls, 0);
        assert!(r.converged);
    }

    #[test]
    fn warm_and_cold_optimize_agree_on_certified_bracket() {
        let inst = MixedInstance::new(
            vec![diag(&[1.0, 0.5]), diag(&[0.5, 1.0]), diag(&[2.0, 0.0])],
            vec![diag(&[1.0, 0.0]), diag(&[0.0, 1.0]), diag(&[0.5, 0.5])],
        )
        .unwrap();
        let opts = MixedApproxOptions::practical(0.15);
        let cold_opts = MixedApproxOptions { warm_start: false, ..opts };
        let solver = MixedSolver::builder(&inst).options(opts.decision).build().unwrap();
        let warm = solver.session().optimize(&opts).unwrap();
        let cold = solver.session().optimize(&cold_opts).unwrap();
        // Warm starts may change the *path*, never certification: both
        // brackets must be valid and overlap around the same optimum.
        assert!(warm.threshold_lower <= cold.threshold_upper * (1.0 + 1e-9));
        assert!(cold.threshold_lower <= warm.threshold_upper * (1.0 + 1e-9));
        for r in [&warm, &cold] {
            let p = r.best_point.as_ref().expect("witness");
            assert!(
                verify_mixed_feasible(&inst, p, r.threshold_lower * (1.0 - 1e-9), 1e-9).feasible
            );
        }
    }

    #[test]
    fn optimize_uses_per_call_decision_options() {
        // The bisection must run its decision calls with
        // `MixedApproxOptions::decision`, not the solver's build-time
        // options — observable through the coverage target T recorded in
        // `SolveStats::k_threshold`.
        let inst = half_instance();
        let build = MixedOptions::practical(0.3);
        let solver = MixedSolver::builder(&inst).options(build).build().unwrap();
        let mut opts = MixedApproxOptions::practical(0.2);
        opts.decision.eps = 0.05;
        let r = solver.session().optimize(&opts).unwrap();
        let want = coverage_target(0.05, inst.pack_dim(), inst.cover_dim());
        assert!(!r.call_stats.is_empty());
        for s in &r.call_stats {
            assert!(
                (s.k_threshold - want).abs() < 1e-12 || s.k_threshold > want,
                "call ran at T = {} (build-time options leaked); want ≥ {want}",
                s.k_threshold
            );
        }
    }

    #[test]
    fn observer_sees_mixed_iterations_and_can_stop() {
        struct Counter {
            iters: usize,
            stop_at: usize,
        }
        impl Observer for Counter {
            fn on_iteration(&mut self, ev: &IterationEvent) -> ObserverControl {
                self.iters += 1;
                assert!(ev.t >= 1);
                if self.iters >= self.stop_at {
                    ObserverControl::Stop
                } else {
                    ObserverControl::Continue
                }
            }
        }
        let inst = half_instance();
        let solver =
            MixedSolver::builder(&inst).options(MixedOptions::practical(0.2)).build().unwrap();
        let mut s = solver.session();
        s.add_observer(Box::new(Counter { iters: 0, stop_at: 3 }));
        let res = s.solve(0.25).unwrap();
        assert_eq!(res.stats.exit, ExitReason::ObserverStopped);
        assert_eq!(res.stats.iterations, 3);
    }

    #[test]
    fn rejects_bad_threshold_and_options() {
        let inst = half_instance();
        let solver = MixedSolver::builder(&inst).build().unwrap();
        let mut s = solver.session();
        assert!(s.solve(0.0).is_err());
        assert!(s.solve(f64::NAN).is_err());
        let mut o = MixedOptions::practical(0.1);
        o.eps = 0.0;
        assert!(MixedSolver::builder(&inst).options(o).build().is_err());
        let mut o = MixedOptions::practical(0.1);
        o.alpha_boost = f64::INFINITY;
        assert!(o.validate().is_err());
        let mut o = MixedOptions::practical(0.1);
        o.max_iters = 0;
        assert!(o.validate().is_err());
    }

    #[test]
    fn taylor_pack_engine_certificates_still_verify() {
        // A Taylor packing engine materializes no Y_P; the certificate's
        // covering side must still re-verify independently.
        let inst = half_instance();
        let opts = MixedOptions::practical(0.1).with_engine(EngineKind::Taylor { eps: 0.05 });
        let solver = MixedSolver::builder(&inst).options(opts).build().unwrap();
        let res = solver.session().solve(2.0).unwrap();
        let c = res.outcome.infeasible().expect("infeasible at σ=2");
        assert!(c.y_pack.is_none(), "taylor engine produced a dense Y_P?");
        assert!(c.y_cover.is_some(), "covering side always materializes Y_C");
        let v = verify_mixed_infeasible(&inst, c, 1e-7);
        assert!(v.valid, "{v:?}");
        assert!(!v.matrix_checked, "only the covering matrix exists");
        assert!(v.refuted_threshold >= 0.5 * (1.0 - 1e-6), "σ* = 1/2 incorrectly refuted");
    }

    #[test]
    fn coverage_target_scales_with_eps() {
        let t1 = coverage_target(0.1, 8, 8);
        let t2 = coverage_target(0.2, 8, 8);
        assert!((t1 / t2 - 2.0).abs() < 1e-12);
        assert!(t1 > 0.0);
    }
}
