//! Observer stop paths: `ExitReason::ObserverStopped` must surface
//! cleanly from every loop an observer can halt — a bare decision solve,
//! `Session::optimize` and `MixedSession::optimize` mid-bisection and
//! during their escalations — with telemetry (engine_evals, bracket
//! accounting) still consistent after the early stop. The phase stream of
//! an unstopped packing escalation that ends at its budget balances too.

use psdp_core::{
    ApproxOptions, ExitReason, IterationEvent, MixedApproxOptions, MixedInstance, MixedSolver,
    Observer, ObserverControl, PackingInstance, PhaseEvent, Solver,
};
use psdp_sparse::PsdMatrix;
use psdp_test_support::{factorized_instance, FactorizedSpec};
use psdp_workloads::{gnp, mixed_edge_cover};
use std::cell::RefCell;
use std::rc::Rc;

/// Stops after `stop_after_iters` iteration events, counting everything
/// it sees on the way.
struct StopAfter {
    stop_after_iters: usize,
    iters: usize,
    brackets_seen: usize,
    solves_started: usize,
}

impl StopAfter {
    fn new(stop_after_iters: usize) -> Self {
        StopAfter { stop_after_iters, iters: 0, brackets_seen: 0, solves_started: 0 }
    }
}

impl Observer for StopAfter {
    fn on_phase(&mut self, event: &PhaseEvent<'_>) {
        match event {
            PhaseEvent::BracketUpdated { .. } => self.brackets_seen += 1,
            PhaseEvent::SolveStarted { .. } => self.solves_started += 1,
            PhaseEvent::SolveFinished { .. } => {}
        }
    }

    fn on_iteration(&mut self, _: &IterationEvent) -> ObserverControl {
        self.iters += 1;
        if self.iters >= self.stop_after_iters {
            ObserverControl::Stop
        } else {
            ObserverControl::Continue
        }
    }
}

/// A stop during a plain decision solve: uncertified primal telemetry,
/// consistent stats.
#[test]
fn decision_solve_stop_surfaces_exit_reason() {
    let inst = factorized_instance(&FactorizedSpec::new(8, 5, 11));
    let solver = Solver::builder(&inst).build().expect("build");
    let mut session = solver.session();
    session.add_observer(Box::new(StopAfter::new(4)));
    let res = session.solve(1.0).expect("solve");
    assert_eq!(res.stats.exit, ExitReason::ObserverStopped);
    assert_eq!(res.stats.iterations, 4);
    assert!(res.stats.engine_evals <= res.stats.iterations);
    assert!(res.outcome.primal().is_some(), "stopped solve reports the averaged primal");
}

/// Mid-bisection stop in `Session::optimize`: the report must stay
/// internally consistent — every call recorded, bracket rows covering
/// every call, totals ≥ accepted-call sums, converged = false.
#[test]
fn session_optimize_stop_mid_bisection() {
    let inst = factorized_instance(&FactorizedSpec::new(8, 6, 9).with_scale(1.0));
    let opts = ApproxOptions::serving(0.05);
    let solver = Solver::builder(&inst).options(opts.decision).build().expect("build");

    // Find how many iterations the full run needs, then stop mid-way
    // through (after at least one completed bracket).
    let full = solver.session().optimize(&opts).expect("full run");
    assert!(full.converged && full.decision_calls >= 2, "fixture too easy: {full:?}");
    let first_bracket_iters = full.brackets[0].iterations;
    let stop_at = first_bracket_iters + 2;

    let mut session = solver.session();
    session.add_observer(Box::new(StopAfter::new(stop_at)));
    let r = session.optimize(&opts).expect("stopped run");

    assert!(!r.converged, "stopped bisection must not claim convergence");
    assert!(r.decision_calls >= 2, "stop must land mid-bisection, not before it");
    assert!(r.decision_calls < full.decision_calls, "stop did not shorten the bisection");
    assert_eq!(r.brackets.len(), r.decision_calls, "every call needs a bracket row");
    assert_eq!(r.call_stats.len(), r.decision_calls);
    assert_eq!(
        r.call_stats.last().map(|s| s.exit),
        Some(ExitReason::ObserverStopped),
        "last recorded call must carry the stop"
    );
    // The aborted call leaves the bracket where it was.
    let last = r.brackets.last().unwrap();
    if r.brackets.len() >= 2 {
        let prev = &r.brackets[r.brackets.len() - 2];
        assert_eq!(last.lo.to_bits(), prev.lo.to_bits());
        assert_eq!(last.hi.to_bits(), prev.hi.to_bits());
    }
    // Work accounting still adds up: bracket totals equal report totals,
    // accepted-call sums never exceed them.
    let bracket_iters: usize = r.brackets.iter().map(|b| b.iterations).sum();
    let bracket_evals: usize = r.brackets.iter().map(|b| b.engine_evals).sum();
    assert_eq!(bracket_iters, r.total_iterations);
    assert_eq!(bracket_evals, r.total_engine_evals);
    let accepted_iters: usize = r.call_stats.iter().map(|s| s.iterations).sum();
    let accepted_evals: usize = r.call_stats.iter().map(|s| s.engine_evals).sum();
    assert!(accepted_iters <= r.total_iterations);
    assert!(accepted_evals <= r.total_engine_evals);
    // The certified bounds that were established before the stop survive.
    assert!(r.value_lower > 0.0 && r.value_upper >= r.value_lower);
}

/// Mid-bisection stop in `MixedSession::optimize`: same consistency
/// contract on the mixed report.
#[test]
fn mixed_optimize_stop_mid_bisection() {
    let inst = MixedInstance::new(
        vec![
            PsdMatrix::Diagonal(vec![2.0, 0.0, 1.0]),
            PsdMatrix::Diagonal(vec![0.0, 2.0, 0.5]),
            PsdMatrix::Diagonal(vec![1.0, 1.0, 0.0]),
        ],
        vec![
            PsdMatrix::Diagonal(vec![1.0, 0.0, 0.5]),
            PsdMatrix::Diagonal(vec![0.0, 1.0, 0.0]),
            PsdMatrix::Diagonal(vec![0.5, 0.0, 1.0]),
        ],
    )
    .expect("valid mixed instance");
    let opts = MixedApproxOptions::practical(0.05);
    let solver = MixedSolver::builder(&inst).options(opts.decision).build().expect("build");

    let full = solver.session().optimize(&opts).expect("full run");
    assert!(full.decision_calls >= 2, "fixture too easy: {full:?}");
    let stop_at = full.brackets[0].iterations + 1;

    let mut session = solver.session();
    session.add_observer(Box::new(StopAfter::new(stop_at)));
    let r = session.optimize(&opts).expect("stopped run");

    assert!(!r.converged);
    assert!(r.decision_calls >= 2 && r.decision_calls <= full.decision_calls);
    assert_eq!(r.brackets.len(), r.decision_calls);
    assert_eq!(r.call_stats.len(), r.decision_calls);
    assert_eq!(r.call_stats.last().map(|s| s.exit), Some(ExitReason::ObserverStopped));
    let bracket_iters: usize = r.brackets.iter().map(|b| b.iterations).sum();
    let bracket_evals: usize = r.brackets.iter().map(|b| b.engine_evals).sum();
    assert_eq!(bracket_iters, r.total_iterations);
    assert_eq!(bracket_evals, r.total_engine_evals);
    // The pre-stop certified bracket survives (witness lower bound is
    // always established structurally).
    assert!(r.threshold_lower > 0.0 && r.threshold_upper >= r.threshold_lower);
}

/// What [`StopInEscalation`] saw, shared with the test body.
#[derive(Default)]
struct EscalationLog {
    last_start: Option<(u64, bool)>,
    armed: bool,
    stopped: bool,
    solves_started: usize,
    starts_after_stop: usize,
}

/// Stops on the first iteration of a bisection's escalation, then records
/// whether any solve starts after the stop. An escalation is the solve
/// that starts right after a cold solve at the same `σ`: cold again for
/// the mixed ε/2 re-run (`seeded == false`), seeded from the cold solve's
/// final iterate for the packing certificate-seeking continuation
/// (`seeded == true`).
struct StopInEscalation {
    log: Rc<RefCell<EscalationLog>>,
    seeded: bool,
}

impl Observer for StopInEscalation {
    fn on_phase(&mut self, event: &PhaseEvent<'_>) {
        if let PhaseEvent::SolveStarted { threshold, warm } = event {
            let mut log = self.log.borrow_mut();
            log.solves_started += 1;
            if log.stopped {
                log.starts_after_stop += 1;
            }
            let sigma = threshold.to_bits();
            log.armed |= *warm == self.seeded && log.last_start == Some((sigma, false));
            log.last_start = Some((sigma, *warm));
        }
    }

    fn on_iteration(&mut self, _: &IterationEvent) -> ObserverControl {
        let mut log = self.log.borrow_mut();
        if log.armed && !log.stopped {
            log.stopped = true;
            ObserverControl::Stop
        } else {
            ObserverControl::Continue
        }
    }
}

/// A stop during the mixed ε/2 escalation ends the bisection, as a stop in
/// the warm or cold attempt does: the stopped retry is kept, no further
/// solve starts, and the report does not claim convergence.
#[test]
fn mixed_optimize_stop_during_escalation_ends_bisection() {
    let inst = mixed_edge_cover(&gnp(6, 0.5, 1), 0.5);
    let opts = MixedApproxOptions::practical(0.3);
    let solver = MixedSolver::builder(&inst).options(opts.decision).build().expect("build");

    let log = Rc::new(RefCell::new(EscalationLog::default()));
    let mut session = solver.session();
    session.add_observer(Box::new(StopInEscalation { log: Rc::clone(&log), seeded: false }));
    let r = session.optimize(&opts).expect("stopped run");

    let log = log.borrow();
    assert!(log.stopped, "fixture never escalated: {r:?}");
    assert_eq!(log.starts_after_stop, 0, "a solve started after the observer stop");
    assert_eq!(log.solves_started, 8, "the escalation is the 8th solve");
    assert!(!r.converged, "stopped bisection must not claim convergence");
    assert_eq!(r.call_stats.last().map(|s| s.exit), Some(ExitReason::ObserverStopped));
    assert_eq!(r.brackets.len(), r.decision_calls, "every call needs a bracket row");
    assert_eq!(r.call_stats.len(), r.decision_calls);
    let bracket_iters: usize = r.brackets.iter().map(|b| b.iterations).sum();
    let bracket_evals: usize = r.brackets.iter().map(|b| b.engine_evals).sum();
    assert_eq!(bracket_iters, r.total_iterations);
    assert_eq!(bracket_evals, r.total_engine_evals);
}

/// A stop during the packing certificate-seeking escalation ends the
/// bisection too. On this fixture the third bracket's warm attempt and its
/// cold solve are both weak, so the escalation starts seeded right after
/// the cold solve at the same `σ`. The stopped escalation is kept as the
/// bracket's call, no further solve starts, the report does not claim
/// convergence, and the discarded attempts stay in the totals.
#[test]
fn packing_optimize_stop_during_escalation_ends_bisection() {
    let inst = factorized_instance(&FactorizedSpec::new(6, 4, 1));
    let opts = ApproxOptions::practical(0.3);
    let solver = Solver::builder(&inst).options(opts.decision).build().expect("build");

    let log = Rc::new(RefCell::new(EscalationLog::default()));
    let mut session = solver.session();
    session.add_observer(Box::new(StopInEscalation { log: Rc::clone(&log), seeded: true }));
    let r = session.optimize(&opts).expect("stopped run");

    let log = log.borrow();
    assert!(log.stopped, "fixture never escalated: {r:?}");
    assert_eq!(log.starts_after_stop, 0, "a solve started after the observer stop");
    assert_eq!(log.solves_started, 5, "the escalation is the 5th solve");
    assert!(!r.converged, "stopped bisection must not claim convergence");
    let kept = r.call_stats.last().expect("the stopped call is recorded");
    assert_eq!(kept.exit, ExitReason::ObserverStopped);
    assert!(kept.warm_started, "the kept call must be the seeded escalation");
    assert_eq!(kept.iterations, 1);
    assert_eq!(r.brackets.len(), r.decision_calls, "every call needs a bracket row");
    assert_eq!(r.call_stats.len(), r.decision_calls);
    let last = r.brackets.last().expect("bracket row");
    assert!(last.iterations > kept.iterations, "the discarded cold solve was not counted");
    let bracket_iters: usize = r.brackets.iter().map(|b| b.iterations).sum();
    let bracket_evals: usize = r.brackets.iter().map(|b| b.engine_evals).sum();
    assert_eq!(bracket_iters, r.total_iterations);
    assert_eq!(bracket_evals, r.total_engine_evals);
}

/// Observers see the phase stream in a consistent order during a stopped
/// bisection: every solve start has a finish (the stopped one included),
/// and `BracketUpdated` fires for exactly the calls that completed.
#[test]
fn observer_event_stream_is_consistent_after_stop() {
    struct Recorder {
        inner: StopAfter,
        log: Rc<RefCell<Vec<&'static str>>>,
    }
    impl Observer for Recorder {
        fn on_phase(&mut self, event: &PhaseEvent<'_>) {
            self.inner.on_phase(event);
            self.log.borrow_mut().push(match event {
                PhaseEvent::SolveStarted { .. } => "start",
                PhaseEvent::SolveFinished { .. } => "finish",
                PhaseEvent::BracketUpdated { .. } => "bracket",
            });
        }
        fn on_iteration(&mut self, ev: &IterationEvent) -> ObserverControl {
            self.inner.on_iteration(ev)
        }
    }

    let inst = PackingInstance::new(vec![
        PsdMatrix::Diagonal(vec![2.0, 0.0]),
        PsdMatrix::Diagonal(vec![0.0, 4.0]),
    ])
    .expect("valid");
    let opts = ApproxOptions::serving(0.1);
    let solver = Solver::builder(&inst).options(opts.decision).build().expect("build");
    let mut session = solver.session();
    let log = Rc::new(RefCell::new(Vec::new()));
    session.add_observer(Box::new(Recorder { inner: StopAfter::new(6), log: Rc::clone(&log) }));
    let r = session.optimize(&opts).expect("run");
    assert!(!r.converged);
    assert!(r.total_iterations >= 6, "observer stop fired before 6 live iterations");

    let log = log.borrow();
    let count = |k: &str| log.iter().filter(|&&e| e == k).count();
    assert_eq!(log.first(), Some(&"start"), "stream must open with a solve start");
    assert_eq!(count("start"), count("finish"), "every solve start needs a finish: {log:?}");
    assert_eq!(
        count("bracket"),
        r.decision_calls - 1,
        "brackets fire for completed calls only: {log:?}"
    );
}

/// The packing certificate-seeking escalation runs within a budget of its
/// cold solve's iterations. On this fixture the escalation at the first `σ`
/// never reaches a certificate: unbudgeted, it ran until the eigensolver
/// failed, and the failed escalation left no `SolveFinished` and no count
/// in the totals. Now every solve start has a finish, the report's total
/// is the finished solves' sum, and the bracket bits are unchanged.
#[test]
fn packing_escalation_finishes_within_its_budget() {
    /// Counts solve starts and logs each finished solve's iterations.
    struct Solves(Rc<RefCell<(usize, Vec<usize>)>>);
    impl Observer for Solves {
        fn on_phase(&mut self, event: &PhaseEvent<'_>) {
            let mut log = self.0.borrow_mut();
            match event {
                PhaseEvent::SolveStarted { .. } => log.0 += 1,
                PhaseEvent::SolveFinished { stats, .. } => log.1.push(stats.iterations),
                PhaseEvent::BracketUpdated { .. } => {}
            }
        }
    }

    let inst = factorized_instance(&FactorizedSpec::new(8, 5, 9));
    let opts = ApproxOptions::practical(0.3);
    let solver = Solver::builder(&inst).options(opts.decision).build().expect("build");
    let log = Rc::new(RefCell::new((0, Vec::new())));
    let mut session = solver.session();
    session.add_observer(Box::new(Solves(Rc::clone(&log))));
    let r = session.optimize(&opts).expect("run");

    let (started, finished) = &*log.borrow();
    assert_eq!(*started, finished.len(), "every solve start needs a finish: {finished:?}");
    assert_eq!(r.total_iterations, finished.iter().sum::<usize>());
    assert_eq!(r.total_iterations, 527);
    let (cold, first) = (&r.call_stats[0], &r.brackets[0]);
    assert_eq!(cold.iterations, 262);
    assert_eq!(first.discarded_iterations, 262, "the escalation ran its whole budget");
    assert!(r.converged);
    assert_eq!(r.value_lower.to_bits(), 0x40119d4df2a28bee, "lower {}", r.value_lower);
    assert_eq!(r.value_upper.to_bits(), 0x4015485052c413c4, "upper {}", r.value_upper);
}
