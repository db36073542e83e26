//! Mixed packing–covering SDP solving (Jain–Yao, arXiv:1201.6090).
//!
//! The paper's conclusion names "extending these algorithms to solve mixed
//! packing/covering SDPs" as future work; Jain–Yao give the
//! width-independent parallel algorithm for exactly that class. Packing is
//! its special case with a 1×1 covering side `Cᵢ = [1]`, so this module
//! keeps only the mixed pieces: [`MixedSolver`] prepares two constraint
//! sides (`Pₖ` and `Cₖ`, each with its engine and incremental `Ψ`), and
//! its decision calls run the skeleton the packing solver shares
//! (`crate::session`: start point, `Ψ` upkeep, observers, telemetry) under
//! Jain–Yao's price rule (`JainYao` below). [`MixedSession`] is the
//! packing [`crate::Session`] over a [`MixedSolver`].
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
//! point; the bisection treats it as a certified-but-unhelpful outcome.
//!
//! ## Engines and optimization
//!
//! The packing side uses the configured engine; the covering side always
//! runs the **exact** engine, because the Lemma 4.2 Taylor sandwich is
//! one-sided for PSD arguments and `−Ψ_C/σ` is negative semidefinite.
//! [`MixedSession::optimize`] bisects the largest feasible threshold
//! `σ*` through the driver the packing optimizer shares (`crate::bisect`)
//! with **certified-only bracket moves**, an ε/2 escalation, and a stop
//! with `converged = false` where packing would nudge. Its warm start is
//! **not bitwise-neutral**: mixed bounds are measured values of the
//! iterate a call ends at. DESIGN.md §9 has the details and the
//! measurement that keeps it on by default.

use crate::bisect::{bisect, check_eps, Attempt, Call, Family, Probe, WARM_FRACTION};
use crate::error::PsdpError;
use crate::instance::MixedInstance;
use crate::session::{Frame, Rule, Session, Side};
use crate::solution::{ExitReason, MixedCertificate, MixedFeasible, MixedOutcome};
use crate::stats::{BracketStats, SolveStats};
use psdp_expdot::{Engine, EngineKind};
use psdp_linalg::{lambda_max_upper_bound, sym_eigenvalues};
use std::sync::Arc;

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
    /// bracket, so the report is certified either way. Unlike
    /// [`crate::ApproxOptions::warm_start`], this switch changes which
    /// certified bracket is reported, not only its cost: mixed bounds are
    /// measured values of the iterate a call ends at (see the module docs
    /// for why it stays on by default).
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
        let (inst, seed) = (self.inst, self.opts.seed);
        let pack = Side::build(inst.pack(), self.opts.engine, seed)?;
        // Covering side: always exact (see the module docs — the Taylor
        // sandwich does not hold for the NSD argument −Ψ_C/σ).
        let cover = Side::build(inst.cover(), EngineKind::Exact, seed)?;
        Ok(MixedSolver { inst, opts: self.opts, sides: [pack, cover] })
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
        let pack = Side::reuse(inst.pack(), pack_engine, self.opts.engine, seed, "packing")?;
        let cover = Side::reuse(inst.cover(), cover_engine, EngineKind::Exact, seed, "covering")?;
        Ok(MixedSolver { inst, opts: self.opts, sides: [pack, cover] })
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
    /// The packing side `Pₖ` and the covering side `Cₖ`.
    sides: [Side<'i>; 2],
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

    /// Shareable handles to the prepared `(packing, covering)` engines, for
    /// [`MixedSolverBuilder::build_with_engines`] reuse on the same
    /// instance.
    pub fn engine_handles(&self) -> (Arc<Engine>, Arc<Engine>) {
        let [pack, cover] = &self.sides;
        (Arc::clone(&pack.engine), Arc::clone(&cover.engine))
    }

    /// Open a fresh session (no observers). Whether
    /// [`MixedSession::optimize`] warm-starts its brackets is
    /// [`MixedApproxOptions::warm_start`].
    pub fn session(&self) -> MixedSession<'i, '_> {
        Session::new(self, &self.sides)
    }
}

/// A stateful mixed-solve session over a prepared [`MixedSolver`]: the
/// [`crate::Session`] type over the mixed solver, so it owns the
/// registered observers the same way.
pub type MixedSession<'i, 's> = Session<'i, 's, MixedSolver<'i>>;

impl<'i, 's> MixedSession<'i, 's> {
    /// Answer the mixed feasibility question at coverage threshold
    /// `sigma` with the solver's build-time options.
    ///
    /// # Errors
    /// Invalid threshold or linear-algebra failures.
    pub fn solve(&mut self, sigma: f64) -> Result<MixedDecision, PsdpError> {
        let opts = self.solver().opts;
        let Attempt { outcome, stats, .. } =
            self.run(sigma, None, None, |s, _| JainYao::new(s, opts))?;
        Ok(MixedDecision { outcome, stats })
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
        check_eps(opts.eps)?;
        opts.decision.validate()?;
        let solver = self.solver();
        let (inst, pack_traces) = (solver.inst, &solver.sides[0].traces);
        let n = inst.n();

        // Structural upper bound: caps[k] = m_P / Tr Pₖ dominates any
        // packing-feasible coordinate.
        let caps: Vec<f64> =
            pack_traces.iter().map(|&tr| inst.pack_dim() as f64 / tr.max(1e-300)).collect();
        let cap_cover = inst.cover().weighted_sum(&caps);
        let hi_structural = sym_eigenvalues(&cap_cover)?[0].max(0.0);

        // Certified witness lower bound: xₖ = 1/(n·Tr Pₖ) has
        // λmax(Σ xPᵢ) ≤ Σ xₖ·Tr Pₖ = 1; tighten to packing norm 1 by
        // measurement and read off its coverage.
        let mut w: Vec<f64> =
            pack_traces.iter().map(|&tr| 1.0 / (n as f64 * tr.max(1e-300))).collect();
        let lam_w =
            *sym_eigenvalues(&inst.pack().weighted_sum(&w))?.last().expect("empty spectrum");
        if lam_w > 0.0 {
            let s = lam_w * (1.0 + 1e-9);
            for v in &mut w {
                *v /= s;
            }
        }
        let lo_witness = sym_eigenvalues(&inst.cover().weighted_sum(&w))?[0];

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
            solver,
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
        let run = bisect(self, &mut family, (lo, hi), opts.eps, opts.max_calls)?;
        Ok(MixedReport {
            threshold_lower: run.lo,
            threshold_upper: run.hi,
            best_point: family.best_point,
            infeasibility_witness: family.infeasibility_witness,
            decision_calls: run.brackets.len(),
            total_iterations: run.iterations,
            total_engine_evals: run.engine_evals,
            converged: run.converged,
            pruned_max: family.pruned_max,
            call_stats: run.call_stats,
            brackets: run.brackets,
        })
    }
}

/// The mixed pieces of the shared bisection (`crate::bisect`).
struct MixedBisection<'a, 'i> {
    solver: &'a MixedSolver<'i>,
    opts: &'a MixedApproxOptions,
    /// `m_P / Tr Pₖ`, the structural cap of each coordinate.
    caps: Vec<f64>,
    best_point: Option<MixedFeasible>,
    infeasibility_witness: Option<MixedCertificate>,
    pruned_max: usize,
}

impl<'i> Family<'i, MixedSolver<'i>> for MixedBisection<'_, 'i> {
    type Outcome = MixedOutcome;

    /// Coordinate k's total coverage contribution in any packing-feasible
    /// point is ≤ caps[k]·λmax(Cₖ) ≤ caps[k]·Tr Cₖ; drop it when that is
    /// ≤ ε·σ/(2n), so the dropped set's certified slack is ≤ ε·σ/2.
    fn probe(&mut self, sigma: f64) -> Probe {
        let n = self.caps.len();
        let cutoff = self.opts.eps * sigma / (2.0 * n as f64);
        let (caps, cover_traces) = (&self.caps, &self.solver.sides[1].traces);
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
        let inst = self.solver.inst;
        let t_target = coverage_target(self.opts.decision.eps, inst.pack_dim(), inst.cover_dim());
        let cur = lambda_max_upper_bound(&inst.pack().weighted_sum(u))
            .max(lambda_max_upper_bound(&inst.cover().weighted_sum(u)) / probe.sigma)
            .max(1e-300);
        let gamma = WARM_FRACTION * t_target / cur;
        Some(u.iter().map(|v| v * gamma).collect())
    }

    fn solve(
        &mut self,
        session: &mut MixedSession<'i, '_>,
        probe: &Probe,
        seed: Option<Vec<f64>>,
    ) -> Call<MixedOutcome> {
        let opts = self.opts.decision;
        session.run(probe.sigma, probe.mask(), seed, |s, _| JainYao::new(s, opts))
    }

    /// Re-run cold with ε and α halved: the coverage target T doubles and
    /// the per-step overshoot halves, so the loop's intrinsic resolution
    /// tightens past the stall. Its errors propagate. It takes no budget
    /// from the cold solve: a kept retry can run several times as long.
    fn escalate(
        &mut self,
        session: &mut MixedSession<'i, '_>,
        probe: &Probe,
        _: &Attempt<MixedOutcome>,
    ) -> Option<Call<MixedOutcome>> {
        let mut fine = self.opts.decision;
        fine.eps *= 0.5;
        fine.alpha_boost = (fine.alpha_boost * 0.5).max(1.0);
        Some(session.run(probe.sigma, probe.mask(), None, |s, _| JainYao::new(s, fine)))
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

/// Jain–Yao's rule for one decision call: evaluate both sides, price
/// every active coordinate, and step the ones whose packing price is at
/// most `(1+ε)` times their covering price. Exits: coverage reached and
/// the empty eligible set (see the module docs).
struct JainYao<'a> {
    sides: &'a [Side<'a>; 2],
    opts: MixedOptions,
    t_target: f64,
    alpha: f64,
    certificate: Option<MixedCertificate>,
}

impl<'a> JainYao<'a> {
    fn new(solver: &'a MixedSolver<'_>, opts: MixedOptions) -> Self {
        let inst = solver.inst;
        JainYao {
            sides: &solver.sides,
            opts,
            t_target: coverage_target(opts.eps, inst.pack_dim(), inst.cover_dim()),
            alpha: (opts.eps / 4.0) * opts.alpha_boost,
            certificate: None,
        }
    }
}

impl Rule for JainYao<'_> {
    type Outcome = MixedOutcome;
    const THRESHOLD: &'static str = "coverage";

    fn plan(&self) -> (f64, f64, usize) {
        (self.t_target, self.alpha, self.opts.max_iters)
    }

    /// Small multiplicative mass, scaled so neither aggregate starts
    /// anywhere near its target (cf. the scalar mixed solver's start).
    fn cold_start(&self, f: &Frame, k: usize) -> f64 {
        let (tp, tc) = (self.sides[0].traces[k], self.sides[1].traces[k]);
        1.0 / (f.n_active as f64 * tp.max(tc / f.sigma) * self.t_target)
    }

    fn step(&mut self, f: &mut Frame) -> Result<Option<ExitReason>, PsdpError> {
        let ([pack_side, cover_side], sigma, t) = (self.sides, f.sigma, f.t as u64);
        let (psi_p, psi_c) = (&f.psi[0], &f.psi[1]);

        // Packing side: soft-max weights over Ψ_P.
        f.kappa = psi_p.kappa_bound();
        f.tally.kappa(f.kappa);
        let pack = pack_side.evaluate(psi_p, f.kappa, t)?;
        f.tally.evaluated(&pack);

        // Covering side: soft-min weights over Ψ_C/σ, i.e. exp of the NSD
        // matrix −Ψ_C/σ (exact engine; log_scale is 0 there but kept in
        // the soft-min bound for generality).
        let psi_c = psi_c.matrix().expect("the exact engine keeps Ψ_C dense");
        let phi_c = psi_c.scaled(-1.0 / sigma);
        let kappa_c = lambda_max_upper_bound(psi_c) / sigma;
        let cover = cover_side.engine.compute(&phi_c, kappa_c, cover_side.inst.mats(), t)?;
        f.tally.evaluated(&cover);

        // Soft-min coverage bound: λmin(Ψ_C)/σ ≥ −ln Tr exp(−Ψ_C/σ).
        f.norm1 = -(cover.tr_w.ln() + cover.log_scale);
        f.tally.sample(f.t, f.norm1);
        if f.norm1 >= self.t_target {
            return Ok(Some(ExitReason::CoverageReached));
        }

        // Prices. pack_dots[k] = Pₖ•Y_P; cover_dots[k] = Cₖ•Y_C.
        let inv_tr_p = 1.0 / pack.tr_w;
        let inv_tr_c = 1.0 / cover.tr_w;
        let pack_dots: Vec<f64> = pack.dots.iter().map(|d| d * inv_tr_p).collect();
        let cover_dots: Vec<f64> = cover.dots.iter().map(|d| d * inv_tr_c).collect();

        // Eligible set: packing price ≤ (1+ε) · covering price, where the
        // covering price carries the 1/σ of the scaled C̃ₖ = Cₖ/σ.
        f.min_ratio = f64::INFINITY;
        for k in (0..f.x.len()).filter(|&k| f.active[k]) {
            let (p, c) = (pack_dots[k], cover_dots[k]);
            let ratio = if c > 0.0 { sigma * p / c } else { f64::INFINITY };
            f.min_ratio = f.min_ratio.min(ratio);
            if p * sigma <= (1.0 + self.opts.eps) * c {
                f.deltas.push((k, self.alpha * f.x[k]));
            }
        }
        if !f.deltas.is_empty() {
            return Ok(None);
        }
        // Every active coordinate is priced out: the weight pair is an
        // infeasibility certificate with the measured margin.
        self.certificate = Some(MixedCertificate {
            sigma,
            y_pack: pack.dense_p,
            y_cover: cover.dense_p,
            pack_dots,
            cover_dots,
            active: f.active.clone(),
            margin: f.min_ratio,
        });
        Ok(Some(ExitReason::EmptyEligibleSet))
    }

    /// The empty eligible set's certificate; any other exit (coverage
    /// reached, cap, observer) certifies a feasible point by measurement,
    /// rescaled so λmax(Σ xPᵢ) ≤ 1 holds exactly.
    fn finish(self, f: &Frame, _: ExitReason) -> MixedOutcome {
        if let Some(cert) = self.certificate {
            return MixedOutcome::Infeasible(cert);
        }
        let sigma = f.sigma;
        // The dense eigensolver on every storage: λmax(Ψ_P) sets the
        // bracket's lower end, which the live block's λmax could move in
        // its last bits.
        let lam_p = match sym_eigenvalues(&f.psi[0].dense()) {
            Ok(values) => values[values.len() - 1],
            Err(_) => f.psi[0].kappa_bound(),
        };
        let psi_c = f.psi[1].matrix().expect("the exact engine keeps Ψ_C dense");
        let lam_c = match sym_eigenvalues(psi_c) {
            Ok(values) => values[0],
            // The soft-min bound is a certified fallback.
            Err(_) => (sigma * f.norm1).max(0.0),
        };
        let s = lam_p.max(lam_c / sigma).max(1e-300);
        let point = MixedFeasible {
            x: f.x.iter().map(|v| v / s).collect(),
            pack_lambda_max: lam_p / s,
            cover_lambda_min: lam_c / s,
        };
        MixedOutcome::Feasible(point)
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
    use crate::session::{IterationEvent, Observer, ObserverControl};
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
        assert!(s.solve(f64::INFINITY).is_err());
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
