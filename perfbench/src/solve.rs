//! Solver workloads (`packing-expv`, `mixed-cover`) and the core-layer
//! probes every workload runs in its traced pass.
//!
//! The solver path goes through the public library API only: the instance
//! is written as `psdp-bin-1` bytes (untimed), read back and prepared
//! (`setup_s`), then solved with a fresh session per repetition
//! (`Session::optimize` / `MixedSession::optimize`) and both bracket ends
//! are re-verified through `psdp_core::verify` (`solve_s`).

use crate::report::{median, ms, quantile, Report};
use crate::trace::{SpanId, Tracer};
use psdp_core::{
    read_instance_bin, read_mixed_instance_bin, verify_dual, verify_mixed_feasible,
    verify_mixed_infeasible, verify_primal, write_instance_bin, write_mixed_instance_bin,
    ApproxOptions, IterationEvent, MixedApproxOptions, MixedInstance, MixedSolver, Observer,
    ObserverControl, PackingInstance, PhaseEvent, PsiMaintainer, Solver,
};
use psdp_linalg::{lambda_max_upper_bound, sym_eigen, Mat};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Read-and-prepare repetitions behind each `setup_s` sample: preparation
/// takes well under a millisecond here, so one repetition is mostly timer
/// and cache noise.
pub const SETUP_REPS: usize = 64;

/// One instance and the options it is solved with.
pub enum Case {
    /// A packing instance solved by `Solver` / `Session::optimize`.
    Packing(PackingInstance, ApproxOptions),
    /// A mixed instance solved by `MixedSolver` / `MixedSession::optimize`.
    Mixed(MixedInstance, MixedApproxOptions),
}

impl Case {
    /// Target accuracy of the certified bracket.
    pub fn eps(&self) -> f64 {
        match self {
            Case::Packing(_, a) => a.eps,
            Case::Mixed(_, a) => a.eps,
        }
    }
}

/// What one certified solve produced.
#[derive(Clone, Default)]
pub struct Solved {
    /// Certified lower end of the bracket.
    pub lower: f64,
    /// Certified upper end of the bracket.
    pub upper: f64,
    /// Inner iterations, including discarded warm attempts.
    pub iterations: usize,
    /// Live engine evaluations.
    pub engine_evals: usize,
    /// Iterations replayed from the warm-start cache.
    pub replayed: usize,
    /// Decision calls of the bisection.
    pub decision_calls: usize,
    /// Full Ψ rebuilds over the accepted decision calls.
    pub psi_rebuilds: usize,
    /// Analytic work summed over the accepted decision calls.
    pub cost_work: f64,
    /// Analytic depth summed over the accepted decision calls.
    pub cost_depth: f64,
    /// Final iterate (the certified lower-end point), original scale.
    pub x: Vec<f64>,
    /// Threshold the final iterate certifies (mixed: the coverage level).
    pub sigma: f64,
    /// Factor from `Σ xᵢAᵢ` back to the solver's last Ψ (packing: the
    /// dual's feasibility scale; mixed: 1).
    pub psi_scale: f64,
}

impl Solved {
    /// Bits that must repeat exactly across repeated solves.
    pub fn digest(&self) -> String {
        format!(
            "{:016x}:{:016x}:{}:{}:{}",
            self.lower.to_bits(),
            self.upper.to_bits(),
            self.iterations,
            self.engine_evals,
            self.decision_calls
        )
    }
}

/// Timings of one solve, split at the layer boundaries.
struct SolveTimes {
    prep: Duration,
    optimize: Duration,
    verify: Duration,
}

/// Everything measured while solving one case.
#[derive(Default)]
pub struct CaseRun {
    /// `setup_s` samples, one before each solve: read + prepare, seconds
    /// (median of [`SETUP_REPS`] repetitions each).
    pub setup_s: Vec<f64>,
    /// Binary-read times, ms.
    pub read_ms: Vec<f64>,
    /// Solver-build times, ms.
    pub build_ms: Vec<f64>,
    /// Untraced optimize + verify times, seconds.
    pub solve_s: Vec<f64>,
    /// Traced optimize + verify times, seconds.
    pub traced_solve_s: Vec<f64>,
    /// Untraced read + prepare + optimize + verify times, seconds.
    pub cold_s: Vec<f64>,
    /// `optimize` call times, ms.
    pub optimize_ms: Vec<f64>,
    /// Verification times, ms.
    pub verify_ms: Vec<f64>,
    /// Per-iteration times from the observer, ms.
    pub iter_ms: Vec<f64>,
    /// The last solve.
    pub last: Solved,
    /// Solves attempted and solves whose checks failed.
    pub attempted: u64,
    /// Solves whose output checks failed.
    pub failed: u64,
}

/// How long to solve, and whether to alternate traced solves in.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Keep solving until this much time has passed.
    pub seconds: f64,
    /// Solve at least this many times.
    pub min_solves: usize,
    /// Alternate untraced and traced solves (traced: observer spans).
    pub traced: bool,
    /// Require convergence to `1 + ε` (solver workloads). Serve pools
    /// only require certified ends: a few pooled mixed instances stop at
    /// the decision-call cap with a wider, still certified, bracket.
    pub strict: bool,
}

/// Per-iteration spans collected by the benchmark's observer.
#[derive(Default)]
struct IterLog {
    last: Option<Instant>,
    decision_start: Option<Instant>,
    iterations: Vec<(Instant, Instant, usize)>,
    decisions: Vec<(Instant, Instant)>,
}

/// An `Observer` that timestamps decision calls and iterations. Clocks
/// are read here, in the benchmark, never in the solver.
struct IterObserver(Rc<RefCell<IterLog>>);

impl Observer for IterObserver {
    fn on_phase(&mut self, event: &PhaseEvent<'_>) {
        let now = Instant::now();
        let mut log = self.0.borrow_mut();
        match event {
            PhaseEvent::SolveStarted { .. } => {
                log.decision_start = Some(now);
                log.last = Some(now);
            }
            PhaseEvent::SolveFinished { .. } => {
                if let Some(start) = log.decision_start.take() {
                    log.decisions.push((start, now));
                }
            }
            PhaseEvent::BracketUpdated { .. } => {}
        }
    }

    fn on_iteration(&mut self, event: &IterationEvent) -> ObserverControl {
        let now = Instant::now();
        let mut log = self.0.borrow_mut();
        if let Some(last) = log.last.replace(now) {
            log.iterations.push((last, now, event.t));
        }
        ObserverControl::Continue
    }
}

impl IterLog {
    /// Move the collected spans into the tracer under `parent`.
    fn flush(&mut self, tracer: &mut Tracer, parent: Option<SpanId>, iter_ms: &mut Vec<f64>) {
        let mut its = self.iterations.drain(..).peekable();
        for (start, end) in self.decisions.drain(..) {
            let id = tracer.record("core.solver.decision", start, end, parent, None);
            while let Some(&(s, e, t)) = its.peek() {
                if s > end {
                    break;
                }
                iter_ms.push(ms(e - s));
                tracer.record("core.solver.iteration", s, e, id, Some(t as u64));
                its.next();
            }
        }
    }
}

/// Median read + prepare time over [`SETUP_REPS`] repetitions, in
/// seconds, recording the read and build medians in ms.
fn setup_sample(
    run: &mut CaseRun,
    mut once: impl FnMut() -> Result<(Duration, Duration), String>,
) -> Result<(), String> {
    let (mut reads, mut builds, mut totals) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (r, b) = once()?;
        reads.push(ms(r));
        builds.push(ms(b));
        totals.push((r + b).as_secs_f64());
    }
    run.read_ms.push(median(&reads));
    run.build_ms.push(median(&builds));
    run.setup_s.push(median(&totals));
    Ok(())
}

/// The repetition loop shared by both families: alternates untraced and
/// (when planned) traced solves until the plan's time is spent, checking
/// every solve and its digest against the first. A `setup_s` sample
/// precedes every solve, so set-up is sampled across the whole run rather
/// than only while the process is fresh.
fn solve_loop(
    plan: Plan,
    report: &mut Report,
    tracer: &mut Tracer,
    run: &mut CaseRun,
    mut setup: impl FnMut() -> Result<(Duration, Duration), String>,
    mut solve: impl FnMut(bool, &mut Tracer, &mut Report) -> Result<(Solved, SolveTimes), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut first_digest: Option<String> = None;
    let mut k = 0usize;
    // Stop before a solve that would overrun the plan's time.
    let mut last = 0.0_f64;
    while k < plan.min_solves || started.elapsed().as_secs_f64() + last <= plan.seconds {
        let t = Instant::now();
        setup_sample(run, &mut setup)?;
        let traced = plan.traced && k % 2 == 1;
        let before = report.correct();
        run.attempted += 1;
        let (solved, times) = solve(traced, tracer, report)?;
        let total = (times.optimize + times.verify).as_secs_f64();
        let digest = solved.digest();
        match &first_digest {
            None => first_digest = Some(digest),
            Some(d) => {
                report.check(*d == digest, || format!("repeat solve differs: {d} vs {digest}"));
            }
        }
        if traced {
            run.traced_solve_s.push(total);
            run.optimize_ms.push(ms(times.optimize));
            run.verify_ms.push(ms(times.verify));
        } else {
            run.solve_s.push(total);
            run.cold_s.push(total + times.prep.as_secs_f64());
            if !plan.traced {
                run.optimize_ms.push(ms(times.optimize));
                run.verify_ms.push(ms(times.verify));
            }
        }
        if before && !report.correct() {
            run.failed += 1;
        }
        run.last = solved;
        last = t.elapsed().as_secs_f64();
        k += 1;
    }
    Ok(())
}

/// Certified bracket checks shared by both families. Under a strict plan
/// the bisection must also have converged to `1 + ε`.
fn check_bracket(report: &mut Report, plan: Plan, s: &Solved, eps: f64, converged: bool) {
    report.check(s.lower > 0.0 && s.lower <= s.upper * (1.0 + 1e-12), || {
        format!("bracket [{}, {}] is empty or not positive", s.lower, s.upper)
    });
    if plan.strict {
        report.check(converged, || "bisection did not converge".to_string());
        let ratio = s.upper / s.lower;
        report.check(ratio <= (1.0 + eps) * (1.0 + 1e-9), || {
            format!("bracket ratio {ratio} exceeds 1+eps = {}", 1.0 + eps)
        });
    }
}

/// Read, prepare and repeatedly solve a packing case.
fn run_packing(
    inst0: &PackingInstance,
    approx: &ApproxOptions,
    plan: Plan,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<CaseRun, String> {
    let bytes = write_instance_bin(inst0);
    let mut run = CaseRun::default();
    let once = || -> Result<(Duration, Duration), String> {
        let t = Instant::now();
        let (inst, _) = read_instance_bin(&bytes).map_err(|e| e.to_string())?;
        let read = t.elapsed();
        let t = Instant::now();
        let solver = Solver::builder(&inst).options(approx.decision).build();
        let build = t.elapsed();
        solver.map_err(|e| e.to_string())?;
        Ok((read, build))
    };
    let mut iter_ms = Vec::new();
    solve_loop(plan, report, tracer, &mut run, once, |traced, tracer, report| {
        let log = Rc::new(RefCell::new(IterLog::default()));
        let tp = Instant::now();
        let (inst, _) = read_instance_bin(&bytes).map_err(|e| e.to_string())?;
        let solver =
            Solver::builder(&inst).options(approx.decision).build().map_err(|e| e.to_string())?;
        let mut session = solver.session();
        if traced {
            session.add_observer(Box::new(IterObserver(Rc::clone(&log))));
        }
        let t0 = Instant::now();
        let r = session.optimize(approx).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        // Lower end: the best dual must be feasible and reach the bound.
        let dual_ok = r.best_dual.as_ref().is_some_and(|d| {
            verify_dual(&inst, d, 1e-8).feasible && d.value >= r.value_lower * (1.0 - 1e-9)
        });
        // Upper end: the primal witness at σ is a trace-1 PSD matrix Y
        // with σAᵢ•Y ≥ min_dot, so OPT ≤ 1 / minᵢ Aᵢ•Y. Its dots are
        // recomputed against the original instance (a factor σ below the
        // reported ones). The report keeps only the last witness, not
        // necessarily the one that set the upper end, so its bound is
        // checked against the lower end rather than the upper one.
        let upper_ok = r.upper_witness.as_ref().is_some_and(|(sigma, p)| {
            let c = verify_primal(&inst, p, 1e-5);
            let bound = if c.matrix_checked { 1.0 / c.min_dot } else { sigma / p.min_dot };
            let shape_ok = !c.matrix_checked
                || ((c.trace - 1.0).abs() <= 1e-5
                    && c.lambda_min >= -1e-5
                    && (c.min_dot * sigma - p.min_dot).abs() <= 1e-6 * p.min_dot.abs().max(1.0));
            shape_ok && bound > 0.0 && bound >= r.value_lower * (1.0 - 1e-9)
        });
        let t2 = Instant::now();
        report.check(dual_ok, || "lower end: dual certificate failed verification".to_string());
        report.check(upper_ok, || {
            let w = r.upper_witness.as_ref().map(|(s, p)| {
                let c = verify_primal(&inst, p, 1e-5);
                format!("σ {s} {c:?} reported min_dot {}", p.min_dot)
            });
            format!(
                "upper end: primal witness failed verification: {w:?} [{}, {}]",
                r.value_lower, r.value_upper
            )
        });
        let stats = &r.call_stats;
        let solved = Solved {
            lower: r.value_lower,
            upper: r.value_upper,
            iterations: r.total_iterations,
            engine_evals: r.total_engine_evals,
            replayed: r.total_replayed,
            decision_calls: r.decision_calls,
            psi_rebuilds: stats.iter().map(|s| s.psi_rebuilds).sum(),
            cost_work: stats.iter().map(|s| s.cost.work).sum(),
            cost_depth: stats.iter().map(|s| s.cost.depth).sum(),
            x: r.best_dual.as_ref().map(|d| d.x.clone()).unwrap_or_default(),
            sigma: r.value_lower,
            psi_scale: r.best_dual.as_ref().map_or(1.0, |d| d.feasibility_scale),
        };
        check_bracket(report, plan, &solved, approx.eps, r.converged);
        if traced {
            tracer.record("core.solver.prepare", tp, t0, None, None);
            let opt = tracer.record("core.solver.optimize", t0, t1, None, None);
            log.borrow_mut().flush(tracer, opt, &mut iter_ms);
            tracer.record("core.verify", t1, t2, None, None);
        }
        Ok((solved, SolveTimes { prep: t0 - tp, optimize: t1 - t0, verify: t2 - t1 }))
    })?;
    run.iter_ms = iter_ms;
    Ok(run)
}

/// Read, prepare and repeatedly solve a mixed case.
fn run_mixed(
    inst0: &MixedInstance,
    approx: &MixedApproxOptions,
    plan: Plan,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<CaseRun, String> {
    let bytes = write_mixed_instance_bin(inst0);
    let mut run = CaseRun::default();
    let once = || -> Result<(Duration, Duration), String> {
        let t = Instant::now();
        let (inst, _) = read_mixed_instance_bin(&bytes).map_err(|e| e.to_string())?;
        let read = t.elapsed();
        let t = Instant::now();
        let solver = MixedSolver::builder(&inst).options(approx.decision).build();
        let build = t.elapsed();
        solver.map_err(|e| e.to_string())?;
        Ok((read, build))
    };
    let mut iter_ms = Vec::new();
    solve_loop(plan, report, tracer, &mut run, once, |traced, tracer, report| {
        let log = Rc::new(RefCell::new(IterLog::default()));
        let tp = Instant::now();
        let (inst, _) = read_mixed_instance_bin(&bytes).map_err(|e| e.to_string())?;
        let solver = MixedSolver::builder(&inst)
            .options(approx.decision)
            .build()
            .map_err(|e| e.to_string())?;
        let mut session = solver.session();
        if traced {
            session.add_observer(Box::new(IterObserver(Rc::clone(&log))));
        }
        let t0 = Instant::now();
        let r = session.optimize(approx).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let point_ok = r.best_point.as_ref().is_some_and(|p| {
            verify_mixed_feasible(&inst, p, r.threshold_lower * (1.0 - 1e-9), 1e-7).feasible
        });
        let witness_ok = r.infeasibility_witness.as_ref().is_none_or(|w| {
            let c = verify_mixed_infeasible(&inst, w, 1e-7);
            c.valid && c.refuted_threshold <= r.threshold_upper * (1.0 + 1e-6)
        });
        let t2 = Instant::now();
        report.check(point_ok, || "lower end: feasible point failed verification".to_string());
        report.check(witness_ok, || "upper end: infeasibility witness failed verification".into());
        let stats = &r.call_stats;
        let solved = Solved {
            lower: r.threshold_lower,
            upper: r.threshold_upper,
            iterations: r.total_iterations,
            engine_evals: r.total_engine_evals,
            replayed: 0,
            decision_calls: r.decision_calls,
            psi_rebuilds: stats.iter().map(|s| s.psi_rebuilds).sum(),
            cost_work: stats.iter().map(|s| s.cost.work).sum(),
            cost_depth: stats.iter().map(|s| s.cost.depth).sum(),
            x: r.best_point.as_ref().map(|p| p.x.clone()).unwrap_or_default(),
            sigma: r.threshold_lower,
            psi_scale: 1.0,
        };
        check_bracket(report, plan, &solved, approx.eps, r.converged);
        if traced {
            tracer.record("core.mixed.prepare", tp, t0, None, None);
            let opt = tracer.record("core.mixed.optimize", t0, t1, None, None);
            log.borrow_mut().flush(tracer, opt, &mut iter_ms);
            tracer.record("core.verify", t1, t2, None, None);
        }
        Ok((solved, SolveTimes { prep: t0 - tp, optimize: t1 - t0, verify: t2 - t1 }))
    })?;
    run.iter_ms = iter_ms;
    Ok(run)
}

/// Solve one case under a plan.
pub fn run_case(
    case: &Case,
    plan: Plan,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<CaseRun, String> {
    match case {
        Case::Packing(inst, approx) => run_packing(inst, approx, plan, report, tracer),
        Case::Mixed(inst, approx) => run_mixed(inst, approx, plan, report, tracer),
    }
}

/// Layer probes on the final iterate of a solved case: Ψ maintenance,
/// one `Engine::compute` per engine the solver holds, and the dense
/// eigensolver at the dimension the exact engines work at.
#[derive(Default, Clone, Copy)]
pub struct Probes {
    /// One incremental Ψ update touching every coordinate, µs.
    pub psi_apply_us: f64,
    /// One full Ψ rebuild, ms.
    pub psi_rebuild_ms: f64,
    /// One `Engine::compute` per engine, summed, ms.
    pub engine_eval_ms: f64,
    /// One symmetric eigendecomposition of the (covering, if any) Ψ, ms.
    pub eigen_ms: f64,
}

/// Median time of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        xs.push(t.elapsed().as_secs_f64());
    }
    Duration::from_secs_f64(median(&xs))
}

/// Ψ-maintenance probe: one update step over every coordinate and one
/// rebuild, on `inst` at iterate `x`.
fn psi_probe(inst: &PackingInstance, x: &[f64], reps: usize) -> (Duration, Duration) {
    let deltas: Vec<(usize, f64)> = x.iter().enumerate().map(|(i, &v)| (i, 0.01 * v)).collect();
    let mut psi = PsiMaintainer::new(inst, x, 0);
    let apply = time_median(reps, || psi.apply_updates(std::hint::black_box(&deltas)));
    let rebuild = time_median(reps.div_ceil(8), || psi.rebuild(std::hint::black_box(x)));
    (apply, rebuild)
}

/// Run the layer probes for a solved case (medians of `reps` calls; an
/// eighth as many for the heavy calls), recorded as one span.
pub fn probes(
    case: &Case,
    last: &Solved,
    reps: usize,
    tracer: &mut Tracer,
) -> Result<Probes, String> {
    let x = &last.x;
    let mut p = Probes::default();
    let t0 = Instant::now();
    match case {
        Case::Packing(inst, approx) => {
            let (apply, rebuild) = psi_probe(inst, x, reps);
            p.psi_apply_us = apply.as_secs_f64() * 1e6;
            p.psi_rebuild_ms = ms(rebuild);
            let solver = Solver::builder(inst)
                .options(approx.decision)
                .build()
                .map_err(|e| e.to_string())?;
            let engine = solver.engine_handle();
            let mut psi = inst.weighted_sum(x);
            psi.scale(last.psi_scale);
            let kappa = lambda_max_upper_bound(&psi);
            let mut err = None;
            let eval = time_median(reps.div_ceil(8), || {
                if let Err(e) = engine.compute(&psi, kappa, inst.mats(), 1) {
                    err = Some(e.to_string());
                }
            });
            p.engine_eval_ms = ms(eval);
            p.eigen_ms = ms(time_median(reps.div_ceil(8), || {
                let _ = std::hint::black_box(sym_eigen(&psi));
            }));
            if let Some(e) = err {
                return Err(e);
            }
        }
        Case::Mixed(inst, approx) => {
            let (pa, pr) = psi_probe(inst.pack(), x, reps);
            let (ca, cr) = psi_probe(inst.cover(), x, reps);
            p.psi_apply_us = (pa + ca).as_secs_f64() * 1e6;
            p.psi_rebuild_ms = ms(pr + cr);
            let solver = MixedSolver::builder(inst)
                .options(approx.decision)
                .build()
                .map_err(|e| e.to_string())?;
            let (pack_engine, cover_engine) = solver.engine_handles();
            let psi_p = inst.pack().weighted_sum(x);
            let psi_c = inst.cover().weighted_sum(x);
            let sigma = last.sigma.max(1e-12);
            let phi_c: Mat = psi_c.scaled(-1.0 / sigma);
            let (kp, kc) = (lambda_max_upper_bound(&psi_p), lambda_max_upper_bound(&psi_c) / sigma);
            let mut err = None;
            let eval = time_median(reps.div_ceil(8), || {
                let a = pack_engine.compute(&psi_p, kp, inst.pack().mats(), 1);
                let b = cover_engine.compute(&phi_c, kc, inst.cover().mats(), 1);
                if let Some(e) = a.err().or(b.err()) {
                    err = Some(e.to_string());
                }
            });
            p.engine_eval_ms = ms(eval);
            p.eigen_ms = ms(time_median(reps.div_ceil(8), || {
                let _ = std::hint::black_box(sym_eigen(&psi_c));
            }));
            if let Some(e) = err {
                return Err(e);
            }
        }
    }
    tracer.record("bench.layer_probes", t0, Instant::now(), None, None);
    Ok(p)
}

/// Put the core-layer metrics of one or more solved cases (summed over
/// cases; medians within a case).
pub fn put_core_layers(report: &mut Report, runs: &[(&CaseRun, Probes)]) {
    let sum = |f: &dyn Fn(&CaseRun) -> f64| runs.iter().map(|(r, _)| f(r)).sum::<f64>();
    let n = runs.len();
    report.put("core.bin_io.read_ms", sum(&|r| median(&r.read_ms)), "ms", n * SETUP_REPS);
    report.put("core.solver.build_ms", sum(&|r| median(&r.build_ms)), "ms", n * SETUP_REPS);
    let samples: usize = runs.iter().map(|(r, _)| r.optimize_ms.len()).sum();
    report.put("core.solver.optimize_ms", sum(&|r| median(&r.optimize_ms)), "ms", samples);
    report.put("core.verify.ms", sum(&|r| median(&r.verify_ms)), "ms", samples);
    let iters: Vec<f64> = runs.iter().flat_map(|(r, _)| r.iter_ms.iter().copied()).collect();
    report.put("core.solver.iter_ms", median(&iters), "ms", iters.len());
    report.put("core.solver.iter_p99_ms", quantile(&iters, 0.99), "ms", iters.len());
    let count = |f: &dyn Fn(&Solved) -> f64| runs.iter().map(|(r, _)| f(&r.last)).sum::<f64>();
    report.put("core.solver.iterations", count(&|s| s.iterations as f64), "count", n);
    report.put("core.solver.engine_evals", count(&|s| s.engine_evals as f64), "count", n);
    report.put("core.solver.replayed", count(&|s| s.replayed as f64), "count", n);
    report.put("core.solver.decision_calls", count(&|s| s.decision_calls as f64), "count", n);
    report.put("core.solver.psi_rebuilds", count(&|s| s.psi_rebuilds as f64), "count", n);
    report.put("core.solver.cost_work", count(&|s| s.cost_work), "ops", n);
    report.put("core.solver.cost_depth", count(&|s| s.cost_depth), "ops", n);
    let probe = |f: &dyn Fn(&Probes) -> f64| runs.iter().map(|(_, p)| f(p)).sum::<f64>();
    report.put("core.psi.apply_us", probe(&|p| p.psi_apply_us), "us", n);
    report.put("core.psi.rebuild_ms", probe(&|p| p.psi_rebuild_ms), "ms", n);
    report.put("expdot.engine.eval_ms", probe(&|p| p.engine_eval_ms), "ms", n);
    report.put("linalg.eigen.ms", probe(&|p| p.eigen_ms), "ms", n);
}
