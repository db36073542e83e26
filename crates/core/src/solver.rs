//! Session-based packing solver: prepare once, solve many times.
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
//! * [`Solver`] — the prepared problem: instance validated once, one
//!   prepared constraint side (engine constructed, `Auto` resolved,
//!   support-local factorizations built, per-constraint traces cached) and
//!   the `λmax` estimates of the structural bracket.
//! * [`Session`] — runs solves over the prepared solver and owns the
//!   registered [`Observer`]s. [`Session::solve`] answers one ε-decision
//!   question "is the packing optimum ≥ `threshold`?" through the
//!   decision-call skeleton both families share (`crate::session`), under
//!   Algorithm 3.1's rule (`Alg31` below); [`Session::optimize`] runs the
//!   full certified bisection through the driver the mixed optimizer
//!   shares (`crate::bisect`).
//!
//! ## Cross-bracket warm starts
//!
//! State is kept in original coordinates `u = σ·x`, where the start point
//! `u⁰ᵢ = σ·x⁰ᵢ = 1/(n·Tr Aᵢ)` and `Ψ = Σ uᵢAᵢ` do not depend on `σ`. The
//! bisection rescales the final `u` of each bracket's kept call into a
//! warm attempt at the next `σ`, accepts only **strong** outcomes (a dual
//! of measured value ≥ 1 or a primal with min-dot ≥ 1) with *quantized*
//! moves `lo ← σ` / `hi ← σ·(1+slack)`, and escalates a weak cold outcome
//! to a budgeted certificate-seeking continuation. So warm and cold
//! bisections ([`ApproxOptions::warm_start`] on and off) report the same
//! certified bracket whenever each tested `σ` resolves to the same strong
//! side on both paths; DESIGN.md §8 has the argument, its caveat near
//! `OPT`, and why [`ConstantsMode::PaperStrict`] runs every bracket cold.

use crate::approx::{ApproxOptions, PackingReport};
use crate::bisect::{bisect, check_eps, Attempt, Call, Family, Probe, WARM_FRACTION};
use crate::decision::DecisionResult;
use crate::error::PsdpError;
use crate::instance::PackingInstance;
use crate::options::{ConstantsMode, DecisionOptions, UpdateRule};
use crate::session::{Frame, Rule, Side};
pub use crate::session::{IterationEvent, Observer, ObserverControl, PhaseEvent, Session};
use crate::solution::{DualSolution, ExitReason, Outcome, PrimalSolution};
use crate::theory::paper_constants;
use psdp_expdot::{Engine, EngineKind, ExpDots};
use psdp_linalg::{vecops, Mat};
use std::sync::Arc;

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
        let side = Side::build(self.inst, self.opts.engine, self.opts.seed)?;
        Ok(Solver::assemble(self.opts, side))
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
        let (kind, seed) = (self.opts.engine, self.opts.seed);
        let side = Side::reuse(self.inst, engine, kind, seed, "packing")?;
        Ok(Solver::assemble(self.opts, side))
    }
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
    opts: DecisionOptions,
    side: Side<'i>,
    lambda_caps: Vec<f64>,
}

impl<'i> Solver<'i> {
    fn assemble(opts: DecisionOptions, side: Side<'i>) -> Self {
        let lambda_caps =
            side.inst.mats().iter().map(|a| 1.0 / a.lambda_max_est().max(1e-300)).collect();
        Solver { opts, side, lambda_caps }
    }

    /// Start building a solver for `inst`.
    pub fn builder(inst: &'i PackingInstance) -> SolverBuilder<'i> {
        SolverBuilder { inst, opts: DecisionOptions::practical(0.1) }
    }

    /// The instance this solver was prepared for.
    pub fn instance(&self) -> &PackingInstance {
        self.side.inst
    }

    /// The options the solver was built with.
    pub fn options(&self) -> &DecisionOptions {
        &self.opts
    }

    /// The concrete engine kind in use ([`EngineKind::Auto`] is resolved at
    /// build time).
    pub fn engine_kind(&self) -> EngineKind {
        self.side.engine.kind()
    }

    /// A shareable handle to the prepared engine (factorizations included).
    /// Hand this to [`SolverBuilder::build_with_engine`] to prepare another
    /// solver for the *same* constraint set without redoing the work.
    pub fn engine_handle(&self) -> Arc<Engine> {
        Arc::clone(&self.side.engine)
    }

    /// Open a fresh session (no observers).
    pub fn session(&self) -> Session<'i, '_> {
        Session::new(self, std::slice::from_ref(&self.side))
    }
}

impl<'i, 's> Session<'i, 's> {
    /// Run the ε-decision problem "is the packing optimum ≥ `threshold`?"
    /// with the solver's build-time options.
    ///
    /// # Errors
    /// Invalid threshold, option validation, or linear-algebra failures.
    pub fn solve(&mut self, threshold: f64) -> Result<DecisionResult, PsdpError> {
        let opts = self.solver().opts;
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
            self.run(threshold, None, None, |s, f| Alg31::new(s, *opts, f, None))?;
        Ok(DecisionResult { outcome, stats })
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
        check_eps(opts.eps)?;
        opts.decision.validate()?;
        let solver = self.solver();
        let caps = &solver.lambda_caps;
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
            solver,
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
        let run = bisect(self, &mut family, (lo, hi), opts.eps, opts.max_calls)?;
        Ok(PackingReport {
            value_lower: run.lo,
            value_upper: run.hi,
            best_dual: family.best_dual,
            upper_witness: family.upper_witness,
            decision_calls: run.brackets.len(),
            total_iterations: run.iterations,
            converged: run.converged,
            pruned_max: family.pruned_max,
            total_engine_evals: run.engine_evals,
            total_replayed: 0,
            call_stats: run.call_stats,
            brackets: run.brackets,
        })
    }
}

/// Packing's pieces of the shared bisection (`crate::bisect`).
struct PackingBisection<'a, 'i> {
    solver: &'a Solver<'i>,
    opts: &'a ApproxOptions,
    /// Warm attempts and the escalation run only in practical mode.
    practical: bool,
    best_dual: Option<DualSolution>,
    upper_witness: Option<(f64, PrimalSolution)>,
    pruned_max: usize,
}

impl PackingBisection<'_, '_> {
    /// A final iterate `u` rescaled to threshold-frame mass β·K at the
    /// probed `σ` — "the previous iterate rescaled to remain feasible for
    /// the new threshold" (the loop has room to re-balance before any exit
    /// can trigger).
    fn rescaled(&self, probe: &Probe, u: &[f64]) -> Vec<f64> {
        let n_active = probe.active.iter().filter(|&&b| b).count();
        let k_threshold = paper_constants(n_active, self.opts.decision.eps).k_threshold;
        let gamma = WARM_FRACTION * k_threshold * probe.sigma / vecops::sum(u).max(1e-300);
        u.iter().map(|v| v * gamma).collect()
    }
}

impl<'i> Family<'i, Solver<'i>> for PackingBisection<'_, 'i> {
    type Outcome = Outcome;

    /// Lemma 2.2 trace pruning with the certified cutoff max(n³, 2nm/ε):
    /// at threshold 1 any feasible x has xᵢ ≤ m/Tr(Aᵢ'), so dropped
    /// coordinates carry ≤ ε/2 total mass, and they add at most
    /// Σ_dropped m/(σ·Tr Aᵢ) to the scaled value — the certified repair of
    /// the upper bound, deterministic in (σ, mask).
    fn probe(&mut self, sigma: f64) -> Probe {
        let traces = &self.solver.side.traces;
        let n = traces.len() as f64;
        let m = self.solver.side.inst.dim() as f64;
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

    fn solve(
        &mut self,
        session: &mut Session<'i, '_>,
        probe: &Probe,
        seed: Option<Vec<f64>>,
    ) -> Call<Outcome> {
        let opts = self.opts.decision;
        session.run(probe.sigma, probe.mask(), seed, |s, f| Alg31::new(s, opts, f, None))
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
    fn escalate(
        &mut self,
        session: &mut Session<'i, '_>,
        probe: &Probe,
        cold: &Attempt<Outcome>,
    ) -> Option<Call<Outcome>> {
        if !self.practical {
            return None;
        }
        let (opts, seed) = (self.opts.decision, self.rescaled(probe, &cold.iterate));
        let budget = Some(cold.stats.iterations);
        let seek = session
            .run(probe.sigma, probe.mask(), Some(seed), |s, f| Alg31::new(s, opts, f, budget));
        Some(Ok(seek.ok()?))
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
                } else {
                    // Weak: the dual certifies only its own value. One
                    // that proves nothing above `lo` leaves the bracket,
                    // and `bisect` ends the run as stalled.
                    *lo = lo.max(value);
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
                // The witness is kept only when it is the one behind `hi`.
                if new_hi < *hi {
                    *hi = new_hi;
                    self.upper_witness = Some((sigma, p));
                }
                false
            }
        }
    }
}

/// Algorithm 3.1's rule for one decision call: the stale-engine refresh,
/// the eligible set and its steps, the running primal averages, and the
/// dual-norm, empty-set and running-average exits.
struct Alg31<'a> {
    side: &'a Side<'a>,
    opts: DecisionOptions,
    cert_seek: Option<usize>,
    k_threshold: f64,
    alpha: f64,
    cap: usize,
    /// The primal average `Y`, when the engine materializes a dense `P`.
    y_acc: Option<Mat>,
    dot_sums: Vec<f64>,
    rounds_accumulated: usize,
    /// The last engine output (kept across rounds by the stale rule).
    cur: Option<ExpDots>,
    /// This round's ratios `P(t)•(σAᵢ)`.
    ratios: Vec<f64>,
}

impl<'a> Alg31<'a> {
    /// One call's rule under `opts`, in original coordinates `u = σ·x`
    /// (see the module docs). `seek: Some(budget)` switches it to
    /// *strong-certificate hunting* (the bisection's deterministic
    /// escalation for weak outcomes): the dual exit fires only once
    /// `‖x‖₁ ≥ κ·(1+1e-6)` — which guarantees the measured dual value is
    /// ≥ 1 since `λmax(Ψ) ≤ κ` — the primal running-average check runs
    /// regardless of [`DecisionOptions::early_exit`], and the iteration cap
    /// drops to `budget` (at least 1).
    fn new(solver: &'a Solver<'_>, opts: DecisionOptions, f: &Frame, seek: Option<usize>) -> Self {
        let pc = paper_constants(f.n_active, opts.eps);
        let (k_threshold, alpha, cap) = match opts.mode {
            ConstantsMode::PaperStrict => (pc.k_threshold, pc.alpha, pc.r_cap.ceil() as usize),
            ConstantsMode::Practical { alpha_boost, max_iters } => {
                (pc.k_threshold, pc.alpha * alpha_boost, max_iters)
            }
        };
        let (side, m) = (&solver.side, solver.side.inst.dim());
        // Only the engines that can materialize a dense P (exact always,
        // Taylor via one extra symmetric square) feed the primal average;
        // the sketched and expm-action engines never form exp(Φ).
        let accumulate_y = opts.primal_matrix_dim_limit > 0
            && m <= opts.primal_matrix_dim_limit
            && matches!(side.engine.kind(), EngineKind::Exact | EngineKind::Taylor { .. });
        Alg31 {
            side,
            opts,
            cert_seek: seek,
            k_threshold,
            alpha,
            cap: seek.map_or(cap, |budget| cap.min(budget.max(1))),
            y_acc: accumulate_y.then(|| Mat::zeros(m, m)),
            dot_sums: vec![0.0; side.inst.n()],
            rounds_accumulated: 0,
            cur: None,
            ratios: Vec::new(),
        }
    }
}

impl Rule for Alg31<'_> {
    type Outcome = Outcome;
    const THRESHOLD: &'static str = "decision";

    fn plan(&self) -> (f64, f64, usize) {
        (self.k_threshold, self.alpha, self.cap)
    }

    /// `u⁰ᵢ = 1/(n_active·Tr Aᵢ)`, σ-invariant: it equals `σ·x⁰ᵢ` for the
    /// scaled instance.
    fn cold_start(&self, f: &Frame, k: usize) -> f64 {
        1.0 / (f.n_active as f64 * self.side.traces[k])
    }

    fn step(&mut self, f: &mut Frame) -> Result<Option<ExitReason>, PsdpError> {
        let (psi, side, t) = (&f.psi[0], self.side, f.t);
        let mut kappa = psi.kappa_bound();
        if matches!(self.opts.mode, ConstantsMode::PaperStrict) {
            kappa = kappa.min((1.0 + 10.0 * self.opts.eps) * self.k_threshold * 1.01);
        }
        f.tally.kappa(kappa);
        f.kappa = kappa;

        let refresh = match self.opts.rule {
            UpdateRule::Stale { period } => (t - 1).is_multiple_of(period) || self.cur.is_none(),
            _ => true,
        };
        if refresh {
            let dots = if self.y_acc.is_some() {
                let psi = psi.matrix().expect("the dense engines keep Ψ dense");
                side.engine.compute_dense(psi, kappa, side.inst.mats(), t as u64)?
            } else {
                side.evaluate(psi, kappa, t as u64)?
            };
            f.tally.evaluated(&dots);
            self.cur = Some(dots);
        }
        let dots = self.cur.as_ref().expect("engine output present");

        // Ratios P(t) • (σAᵢ) = σ·(W•Aᵢ)/Tr W.
        let inv_tr = 1.0 / dots.tr_w;
        self.ratios = dots.dots.iter().map(|d| d * inv_tr * f.sigma).collect();
        f.min_ratio = active_min(&self.ratios, &f.active);
        if refresh {
            for (s, &r) in self.dot_sums.iter_mut().zip(&self.ratios) {
                *s += r;
            }
            if let (Some(acc), Some(p)) = (self.y_acc.as_mut(), dots.dense_p.as_ref()) {
                acc.axpy(1.0, p);
            }
            self.rounds_accumulated += 1;
        }

        let (eps, rule) = (self.opts.eps, self.opts.rule);
        let steps = select_steps(&self.ratios, eps, self.alpha, rule, Some(&f.active));
        let stepped = steps.iter().enumerate().filter(|&(_, &s)| s > 0.0);
        f.deltas.extend(stepped.map(|(i, &s)| (i, s * f.x[i])));
        if f.deltas.is_empty() {
            // Every active constraint has P•Aᵢ > 1+ε: the current P is a
            // feasible primal.
            return Ok(Some(ExitReason::EmptyEligibleSet));
        }
        Ok(None)
    }

    fn settle(&mut self, f: &mut Frame) -> Option<ExitReason> {
        f.norm1 = vecops::sum(&f.x) / f.sigma;
        f.tally.sample(f.t, f.norm1);
        // Hunting a strong dual, exit only once the measured value is
        // guaranteed ≥ 1 (λmax(Ψ) ≤ κ, so ‖x‖₁ ≥ κ ⇒ value ≥ 1).
        let crossed = match self.cert_seek {
            Some(_) => f.norm1 >= (f.psi[0].kappa_bound() * (1.0 + 1e-6)).max(1.0),
            None => f.norm1 > self.k_threshold,
        };
        if crossed {
            return Some(ExitReason::DualNormCrossed);
        }
        let rounds = self.rounds_accumulated;
        let averaging = (self.opts.early_exit || self.cert_seek.is_some()) && rounds > 0;
        (averaging && active_min(&self.dot_sums, &f.active) / rounds as f64 >= 1.0)
            .then_some(ExitReason::PrimalEarly)
    }

    fn finish(self, f: &Frame, exit: ExitReason) -> Outcome {
        let (sigma, active) = (f.sigma, &f.active);
        match exit {
            ExitReason::DualNormCrossed => {
                let x_scaled: Vec<f64> = f.x.iter().map(|v| v / sigma).collect();
                let (eps, k, mode) = (self.opts.eps, self.k_threshold, self.opts.mode);
                Outcome::Dual(build_dual(&x_scaled, || f.psi[0].lambda_max(), eps, k, mode))
            }
            ExitReason::EmptyEligibleSet => Outcome::Primal(PrimalSolution {
                min_dot: f.min_ratio,
                constraint_dots: self.ratios,
                y: self.cur.and_then(|dots| dots.dense_p),
                rounds_averaged: 1,
            }),
            // The soft exits (iteration cap, running average, observer
            // stop) return the averaged primal.
            _ => {
                let rounds = self.rounds_accumulated.max(1) as f64;
                let constraint_dots: Vec<f64> = self.dot_sums.iter().map(|s| s / rounds).collect();
                let y = self.y_acc.map(|mut acc| {
                    acc.scale(1.0 / rounds);
                    let tr = acc.trace();
                    if tr > 0.0 {
                        acc.scale(1.0 / tr);
                    }
                    acc
                });
                Outcome::Primal(PrimalSolution {
                    min_dot: active_min(&constraint_dots, active),
                    constraint_dots,
                    y,
                    rounds_averaged: self.rounds_accumulated.max(1),
                })
            }
        }
    }
}

/// The smallest of `vals` over the active coordinates.
fn active_min(vals: &[f64], active: &[bool]) -> f64 {
    vals.iter().zip(active).filter(|&(_, &a)| a).fold(f64::INFINITY, |acc, (&v, _)| acc.min(v))
}

/// Per-coordinate step multipliers (0 = not stepped) under the chosen rule,
/// restricted to the active coordinates. The returned value is the
/// multiplicative step: `x_i ← x_i·(1 + stepᵢ)`.
fn select_steps(
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

/// Build a certified dual solution from the raw (threshold-frame) iterate;
/// `lambda_max` measures `λmax(Σ xᵢAᵢ)` when the mode certifies by
/// measurement.
fn build_dual(
    x: &[f64],
    lambda_max: impl FnOnce() -> f64,
    eps: f64,
    k_threshold: f64,
    mode: ConstantsMode,
) -> DualSolution {
    let scale = match mode {
        ConstantsMode::PaperStrict => (1.0 + 10.0 * eps) * k_threshold,
        // Certify by measurement: λmax(Σ xᵢAᵢ) from the maintained Ψ.
        ConstantsMode::Practical { .. } => (lambda_max() * (1.0 + 1e-9)).max(1.0),
    };
    let xs: Vec<f64> = x.iter().map(|v| v / scale).collect();
    let value = vecops::sum(&xs);
    DualSolution { x: xs, value, feasibility_scale: scale }
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

    /// Strict mode keeps only weak duals, and each moves `lo` at most to
    /// the value it certifies: the reported lower end is the structural
    /// start or a verified dual's value, never an uncertified step.
    #[test]
    fn strict_mode_lower_end_is_certified() {
        let inst = diag_instance(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let mut opts = ApproxOptions::practical(0.2);
        opts.decision = DecisionOptions::strict(0.05);
        let solver = Solver::builder(&inst).options(opts.decision).build().unwrap();
        let start = solver.lambda_caps.iter().fold(0.0_f64, |m, &v| m.max(v)) * 0.5;
        let r = solver.session().optimize(&opts).unwrap();
        let dual = r.best_dual.as_ref().map_or(0.0, |d| {
            let cert = crate::verify::verify_dual(&inst, d, 1e-7);
            assert!(cert.feasible, "best dual infeasible: λmax {}", cert.lambda_max);
            cert.value
        });
        let certified = start.max(dual);
        assert!(
            r.value_lower <= certified * (1.0 + 1e-12),
            "lower end {} above its certificates (start {start}, dual {dual})",
            r.value_lower
        );
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
            stop_at: usize,
        }
        impl Observer for Counter {
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
        s.add_observer(Box::new(Counter { iters: 0, stop_at: 3 }));
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
        let (opts, mask) = (DecisionOptions::practical(0.2), vec![true, true, false]);
        let res = s.run(1.0, Some(mask), None, |s, f| Alg31::new(s, opts, f, None)).unwrap();
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
