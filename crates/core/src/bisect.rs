//! The certified geometric bisection (Lemma 2.2) that packing
//! [`Session::optimize`](crate::Session::optimize) and mixed
//! [`MixedSession::optimize`](crate::MixedSession::optimize) share
//! (DESIGN.md §8): [`bisect`] owns the loop, the attempt protocol, the
//! accounting of discarded work and the bracket rows; a [`Family`]
//! supplies the rest.
//!
//! At each `σ` a warm attempt runs when the family has a seed, then a
//! cold solve unless the warm attempt is kept, then at most one
//! escalation unless the cold solve is kept. An attempt is *kept* when the
//! family accepts it or an observer stopped it. The other attempts are
//! discarded, but their work counts in the bracket's [`BracketStats`], so
//! warm-start savings are never overstated.

use crate::error::PsdpError;
use crate::solution::ExitReason;
use crate::solver::{emit_phase, Observer, PhaseEvent};
use crate::stats::{BracketStats, SolveStats};

/// One decision call: its certified outcome and its telemetry.
pub(crate) type Call<O> = Result<(O, SolveStats), PsdpError>;

/// The tested threshold and its Lemma-2.2-style pruning.
pub(crate) struct Probe {
    pub(crate) sigma: f64,
    /// The active coordinates; all of them unless `masked`.
    pub(crate) active: Vec<bool>,
    /// Some, not all, coordinates were dropped, so the mask is used.
    pub(crate) masked: bool,
    /// Coordinates the cutoff dropped, whether or not the mask is used.
    pub(crate) dropped: usize,
    /// Certified slack the dropped coordinates add to an upper bound (0
    /// unless `masked`).
    pub(crate) slack: f64,
}

impl Probe {
    /// Prune `n` coordinates at `sigma`: `drop(i)` is the slack of
    /// coordinate `i` when the family's cutoff drops it.
    pub(crate) fn new(sigma: f64, n: usize, mut drop: impl FnMut(usize) -> Option<f64>) -> Self {
        let mut active = vec![true; n];
        let (mut dropped, mut slack) = (0, 0.0);
        for (i, a) in active.iter_mut().enumerate() {
            if let Some(s) = drop(i) {
                *a = false;
                dropped += 1;
                slack += s;
            }
        }
        let masked = dropped > 0 && dropped < n;
        if !masked {
            active.fill(true);
            slack = 0.0;
        }
        Probe { sigma, active, masked, dropped, slack }
    }

    /// The mask a decision call takes (`None` unless `masked`).
    pub(crate) fn mask(&self) -> Option<Vec<bool>> {
        self.masked.then(|| self.active.clone())
    }
}

/// What one problem family supplies to [`bisect`].
pub(crate) trait Family {
    type Outcome;
    /// The session's observers, which see `BracketUpdated`.
    fn observers(&mut self) -> &mut [Box<dyn Observer>];
    fn probe(&mut self, sigma: f64) -> Probe;
    /// The seed of a warm attempt, if there is one.
    fn warm_seed(&self, probe: &Probe) -> Option<Vec<f64>>;
    fn solve(&mut self, probe: &Probe, seed: Option<Vec<f64>>) -> Call<Self::Outcome>;
    /// The escalation after a cold solve that was not kept (`None`: none
    /// ran); `cold` is that solve's telemetry.
    fn escalate(&mut self, probe: &Probe, cold: &SolveStats) -> Option<Call<Self::Outcome>>;
    /// Whether to keep `outcome`, judged against the bracket before the move.
    fn accepts(&self, outcome: &Self::Outcome, probe: &Probe, lo: f64, hi: f64) -> bool;
    /// Move the bracket and the best witnesses on a kept outcome; returns
    /// whether it certified the dual (feasible) side.
    fn advance(
        &mut self,
        outcome: Self::Outcome,
        probe: &Probe,
        lo: &mut f64,
        hi: &mut f64,
    ) -> bool;
    /// Whether the family gives up before the bracket closes.
    fn exhausted(&self) -> bool {
        false
    }
}

/// The bracket [`bisect`] ends with, and its rows. Report totals are sums
/// over the rows, which count discarded attempts too.
pub(crate) struct Bisection {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    pub(crate) converged: bool,
    /// The call of every bracket.
    pub(crate) call_stats: Vec<SolveStats>,
    pub(crate) brackets: Vec<BracketStats>,
}

/// Bisect the certified bracket `(lo, hi)` until it closes to `1+eps`, an
/// observer stops a call, `max_calls` calls ran or the family gives up.
///
/// # Errors
/// The family's decision-call errors.
pub(crate) fn bisect<F: Family>(
    family: &mut F,
    (mut lo, mut hi): (f64, f64),
    eps: f64,
    max_calls: usize,
) -> Result<Bisection, PsdpError> {
    let (mut call_stats, mut brackets) = (Vec::new(), Vec::new());
    let mut stopped = false;
    while hi > lo * (1.0 + eps) && brackets.len() < max_calls && !family.exhausted() {
        let probe = family.probe((lo * hi).sqrt());
        let kept = |family: &F, (outcome, stats): &(F::Outcome, SolveStats)| {
            stats.exit == ExitReason::ObserverStopped || family.accepts(outcome, &probe, lo, hi)
        };
        let mut discarded: Vec<SolveStats> = Vec::new();
        let mut call = match family.warm_seed(&probe) {
            Some(seed) => {
                let attempt = family.solve(&probe, Some(seed))?;
                if kept(family, &attempt) {
                    attempt
                } else {
                    discarded.push(attempt.1);
                    family.solve(&probe, None)?
                }
            }
            None => family.solve(&probe, None)?,
        };
        if !kept(family, &call) {
            if let Some(retry) = family.escalate(&probe, &call.1) {
                let retry = retry?;
                let loser =
                    if kept(family, &retry) { std::mem::replace(&mut call, retry) } else { retry };
                discarded.push(loser.1);
            }
        }

        let (outcome, stats) = call;
        stopped = stats.exit == ExitReason::ObserverStopped;
        // A stopped call leaves the bracket where it was.
        let dual_side = !stopped && family.advance(outcome, &probe, &mut lo, &mut hi);
        if lo > hi {
            // Certified bounds crossed: numerical noise at convergence;
            // collapse the bracket.
            let mid = (lo * hi).sqrt();
            lo = mid;
            hi = mid;
        }
        let all = || std::iter::once(&stats).chain(&discarded);
        brackets.push(BracketStats {
            sigma: probe.sigma,
            dual_side,
            lo,
            hi,
            iterations: all().map(|s| s.iterations).sum(),
            discarded_iterations: discarded.iter().map(|s| s.iterations).sum(),
            engine_evals: all().map(|s| s.engine_evals).sum(),
            replayed: all().map(|s| s.replayed).sum(),
            warm_started: all().any(|s| s.warm_started),
            wall: all().map(|s| s.wall).sum(),
        });
        call_stats.push(stats);
        if stopped {
            break;
        }
        emit_phase(
            family.observers(),
            &PhaseEvent::BracketUpdated { sigma: probe.sigma, lo, hi, dual_side },
        );
    }
    let converged = !stopped && hi <= lo * (1.0 + eps) * (1.0 + 1e-12);
    Ok(Bisection { lo, hi, converged, call_stats, brackets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_parallel::Cost;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;
    use std::time::Duration;

    /// One scripted attempt: whether the family accepts it, whether an
    /// observer stopped it, and its iteration count.
    type Step = (bool, bool, usize);

    /// A family that replays a script of attempts. An accepted call moves
    /// `lo` up to `σ`; `cross` instead moves `lo` past `hi`. `escalated`
    /// logs the cold iterations each escalation was handed.
    struct Script {
        steps: VecDeque<Step>,
        seeded: bool,
        escalates: bool,
        cross: bool,
        escalated: Vec<usize>,
        observers: Vec<Box<dyn Observer>>,
    }

    impl Script {
        fn new(steps: &[Step]) -> Self {
            let steps = steps.iter().copied().collect();
            Script {
                steps,
                seeded: true,
                escalates: true,
                cross: false,
                escalated: Vec::new(),
                observers: Vec::new(),
            }
        }

        fn next(&mut self, warm: bool) -> Call<bool> {
            let Some((accepted, stopped, iterations)) = self.steps.pop_front() else {
                return Err(PsdpError::InvalidInstance("script exhausted".into()));
            };
            let exit =
                if stopped { ExitReason::ObserverStopped } else { ExitReason::DualNormCrossed };
            Ok((accepted, stats(iterations, exit, warm)))
        }
    }

    fn stats(iterations: usize, exit: ExitReason, warm_started: bool) -> SolveStats {
        SolveStats {
            iterations,
            exit,
            final_norm1: 0.0,
            k_threshold: 1.0,
            alpha: 0.1,
            iteration_cap: 100,
            cost: Cost::ZERO,
            engine: "exact",
            avg_selected: 0.0,
            kappa_max: 0.0,
            psi_rebuilds: 0,
            psi_max_drift: 0.0,
            threshold: 1.0,
            warm_started,
            engine_evals: iterations,
            replayed: 0,
            wall: Duration::from_millis(iterations as u64),
            norm_trajectory: Vec::new(),
        }
    }

    impl Family for Script {
        type Outcome = bool;

        fn observers(&mut self) -> &mut [Box<dyn Observer>] {
            &mut self.observers
        }

        fn probe(&mut self, sigma: f64) -> Probe {
            Probe::new(sigma, 1, |_| None)
        }

        fn warm_seed(&self, _: &Probe) -> Option<Vec<f64>> {
            self.seeded.then(Vec::new)
        }

        fn solve(&mut self, _: &Probe, seed: Option<Vec<f64>>) -> Call<bool> {
            self.next(seed.is_some())
        }

        fn escalate(&mut self, _: &Probe, cold: &SolveStats) -> Option<Call<bool>> {
            self.escalated.push(cold.iterations);
            self.escalates.then(|| self.next(true))
        }

        fn accepts(&self, accepted: &bool, _: &Probe, _: f64, _: f64) -> bool {
            *accepted
        }

        fn advance(&mut self, _: bool, probe: &Probe, lo: &mut f64, hi: &mut f64) -> bool {
            *lo = if self.cross { *hi * 2.0 } else { probe.sigma };
            true
        }
    }

    /// Counts the `BracketUpdated` events it sees.
    struct Brackets(Rc<Cell<usize>>);

    impl Observer for Brackets {
        fn on_phase(&mut self, event: &PhaseEvent<'_>) {
            if matches!(event, PhaseEvent::BracketUpdated { .. }) {
                self.0.set(self.0.get() + 1);
            }
        }
    }

    #[test]
    fn discarded_warm_and_cold_attempts_count_in_the_kept_escalations_row() {
        let mut family = Script::new(&[(false, false, 3), (false, false, 5), (true, false, 7)]);
        let run = bisect(&mut family, (1.0, 4.0), 0.1, 1).unwrap();
        assert_eq!(run.call_stats.len(), 1);
        assert_eq!(run.call_stats[0].iterations, 7, "the escalation is the kept call");
        let row = &run.brackets[0];
        assert_eq!((row.sigma, row.lo, row.hi), (2.0, 2.0, 4.0));
        assert_eq!((row.iterations, row.engine_evals), (15, 15));
        assert_eq!(row.discarded_iterations, 8, "the warm attempt and the cold solve");
        assert_eq!(family.escalated, [5], "the escalation sees the cold solve, not the warm one");
        assert_eq!(row.wall, Duration::from_millis(15));
        assert!(row.warm_started && row.dual_side);
        assert!(!run.converged, "max_calls ended the bisection");
    }

    #[test]
    fn discarded_escalation_leaves_the_cold_solve_as_the_call() {
        let mut family = Script::new(&[(false, false, 5), (false, false, 9)]);
        family.seeded = false;
        let run = bisect(&mut family, (1.0, 4.0), 0.1, 1).unwrap();
        assert_eq!(run.call_stats[0].iterations, 5);
        assert!(!run.call_stats[0].warm_started);
        assert_eq!(run.brackets[0].iterations, 14);
        assert_eq!(run.brackets[0].discarded_iterations, 9, "the escalation");
        assert!(run.brackets[0].warm_started, "the discarded escalation started seeded");
    }

    #[test]
    fn escalation_errors_propagate_and_absent_escalations_keep_the_cold_call() {
        let mut family = Script::new(&[(false, false, 5)]);
        family.seeded = false;
        assert!(bisect(&mut family, (1.0, 4.0), 0.1, 1).is_err(), "escalation hit an empty script");

        let mut family = Script::new(&[(false, false, 5)]);
        (family.seeded, family.escalates) = (false, false);
        let run = bisect(&mut family, (1.0, 4.0), 0.1, 1).unwrap();
        assert_eq!(run.brackets[0].iterations, 5);
        assert_eq!(run.brackets[0].discarded_iterations, 0);
    }

    #[test]
    fn stopped_call_keeps_the_bracket_and_ends_the_bisection() {
        let updates = Rc::new(Cell::new(0));
        let mut family = Script::new(&[(true, false, 4), (false, true, 2)]);
        family.observers.push(Box::new(Brackets(Rc::clone(&updates))));
        let run = bisect(&mut family, (1.0, 4.0), 0.1, 10).unwrap();
        assert_eq!(run.brackets.len(), 2);
        assert_eq!(updates.get(), 1, "the stopped call must not emit BracketUpdated");
        let stopped = &run.brackets[1];
        assert_eq!((stopped.lo, stopped.hi), (run.brackets[0].lo, run.brackets[0].hi));
        assert!(!stopped.dual_side);
        assert_eq!(run.call_stats[1].exit, ExitReason::ObserverStopped);
        assert!(!run.converged);
    }

    #[test]
    fn crossed_bounds_collapse_and_close_the_bracket() {
        let mut family = Script::new(&[(true, false, 1)]);
        family.cross = true;
        let run = bisect(&mut family, (1.0, 4.0), 0.1, 10).unwrap();
        assert_eq!(run.brackets.len(), 1);
        assert_eq!(run.lo.to_bits(), run.hi.to_bits());
        assert_eq!(run.lo, (8.0_f64 * 4.0).sqrt());
        assert!(run.converged);
    }
}
