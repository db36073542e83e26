//! The certified geometric bisection (Lemma 2.2) that packing
//! [`Session::optimize`](crate::Session::optimize) and mixed
//! [`MixedSession::optimize`](crate::MixedSession::optimize) share
//! (DESIGN.md §8): [`bisect`] owns the loop, the attempt protocol, the
//! warm-start iterate, the accounting of discarded work and the bracket
//! rows; a [`Family`] supplies the rest.
//!
//! At each `σ` a warm attempt runs when the previous bracket's kept call
//! ran under the same mask and the family rescales its final iterate into
//! a seed, then a cold solve unless the warm attempt is kept, then at most
//! one escalation, handed the cold solve, unless the cold solve is kept.
//! An attempt is *kept* when the family accepts it or an observer stopped
//! it. The other attempts are discarded, but their work counts in the
//! bracket's [`BracketStats`], so warm-start savings are never overstated.
//! A kept call that leaves the bracket where it was ends the bisection
//! unconverged: the next `σ` would be the same, and so would its calls.

use crate::error::PsdpError;
use crate::session::{PhaseEvent, Session};
use crate::solution::ExitReason;
use crate::stats::{BracketStats, SolveStats};

/// The fraction of its exit target a warm seed is rescaled to, in the
/// threshold frame: packing's dual-exit `‖x‖₁` threshold `K`, mixed's
/// coverage target `T`. Half leaves the loop room to re-balance the
/// iterate before any exit can trigger.
pub(crate) const WARM_FRACTION: f64 = 0.5;

/// One decision call's certified outcome, its telemetry and its final
/// iterate (original coordinates), which later attempts may start from.
pub(crate) struct Attempt<O> {
    pub(crate) outcome: O,
    pub(crate) stats: SolveStats,
    pub(crate) iterate: Vec<f64>,
}

/// One decision call.
pub(crate) type Call<O> = Result<Attempt<O>, PsdpError>;

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

/// What one problem family supplies to [`bisect`], whose decision calls
/// run on a session over `S`.
pub(crate) trait Family<'i, S> {
    type Outcome;
    fn probe(&mut self, sigma: f64) -> Probe;
    /// The seed of a warm attempt at `probe`, rescaled from `iterate`, the
    /// final iterate of the previous bracket's kept call (`None`: no warm
    /// attempt).
    fn warm_seed(&self, probe: &Probe, iterate: &[f64]) -> Option<Vec<f64>>;
    fn solve(
        &mut self,
        session: &mut Session<'i, '_, S>,
        probe: &Probe,
        seed: Option<Vec<f64>>,
    ) -> Call<Self::Outcome>;
    /// The escalation after `cold`, a cold solve that was not kept
    /// (`None`: none ran).
    fn escalate(
        &mut self,
        session: &mut Session<'i, '_, S>,
        probe: &Probe,
        cold: &Attempt<Self::Outcome>,
    ) -> Option<Call<Self::Outcome>>;
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
}

/// The bracket [`bisect`] ends with, and its rows. Report totals are sums
/// over the rows, which count discarded attempts too.
pub(crate) struct Bisection {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    pub(crate) converged: bool,
    /// Iterations over all rows.
    pub(crate) iterations: usize,
    /// Engine evaluations over all rows.
    pub(crate) engine_evals: usize,
    /// The call of every bracket.
    pub(crate) call_stats: Vec<SolveStats>,
    pub(crate) brackets: Vec<BracketStats>,
}

/// Reject a bracket accuracy outside `(0, 1)`.
pub(crate) fn check_eps(eps: f64) -> Result<(), PsdpError> {
    if eps > 0.0 && eps < 1.0 {
        Ok(())
    } else {
        Err(PsdpError::InvalidInstance(format!("eps {eps} not in (0,1)")))
    }
}

/// Bisect the certified bracket `(lo, hi)` until it closes to `1+eps`, an
/// observer stops a call, a kept call leaves the bracket unchanged or
/// `max_calls` calls ran. Decision calls run on `session`, whose observers
/// see every `BracketUpdated`.
///
/// # Errors
/// The family's decision-call errors.
pub(crate) fn bisect<'i, S, F: Family<'i, S>>(
    session: &mut Session<'i, '_, S>,
    family: &mut F,
    (mut lo, mut hi): (f64, f64),
    eps: f64,
    max_calls: usize,
) -> Result<Bisection, PsdpError> {
    let (mut call_stats, mut brackets) = (Vec::new(), Vec::new());
    // The mask and final iterate of the previous bracket's kept call.
    let mut last: Option<(Vec<bool>, Vec<f64>)> = None;
    let (mut stopped, mut stalled) = (false, false);
    while hi > lo * (1.0 + eps) && brackets.len() < max_calls {
        let probe = family.probe((lo * hi).sqrt());
        let kept = |family: &F, attempt: &Attempt<F::Outcome>| {
            attempt.stats.exit == ExitReason::ObserverStopped
                || family.accepts(&attempt.outcome, &probe, lo, hi)
        };
        let seed = match &last {
            Some((mask, iterate)) if *mask == probe.active => family.warm_seed(&probe, iterate),
            _ => None,
        };
        let mut discarded: Vec<SolveStats> = Vec::new();
        let mut call = match seed {
            Some(seed) => {
                let attempt = family.solve(session, &probe, Some(seed))?;
                if kept(family, &attempt) {
                    attempt
                } else {
                    discarded.push(attempt.stats);
                    family.solve(session, &probe, None)?
                }
            }
            None => family.solve(session, &probe, None)?,
        };
        if !kept(family, &call) {
            if let Some(retry) = family.escalate(session, &probe, &call) {
                let retry = retry?;
                let loser =
                    if kept(family, &retry) { std::mem::replace(&mut call, retry) } else { retry };
                discarded.push(loser.stats);
            }
        }

        let Attempt { outcome, stats, iterate } = call;
        stopped = stats.exit == ExitReason::ObserverStopped;
        let before = (lo, hi);
        // A stopped call leaves the bracket where it was.
        let dual_side = !stopped && family.advance(outcome, &probe, &mut lo, &mut hi);
        if lo > hi {
            // Certified bounds crossed: numerical noise at convergence;
            // collapse the bracket.
            let mid = (lo * hi).sqrt();
            lo = mid;
            hi = mid;
        }
        stalled = !stopped && (lo, hi) == before;
        let all = || std::iter::once(&stats).chain(&discarded);
        brackets.push(BracketStats {
            sigma: probe.sigma,
            dual_side,
            lo,
            hi,
            iterations: all().map(|s| s.iterations).sum(),
            discarded_iterations: discarded.iter().map(|s| s.iterations).sum(),
            engine_evals: all().map(|s| s.engine_evals).sum(),
            warm_started: all().any(|s| s.warm_started),
            wall: all().map(|s| s.wall).sum(),
        });
        call_stats.push(stats);
        if stopped {
            break;
        }
        session.phase(&PhaseEvent::BracketUpdated { sigma: probe.sigma, lo, hi, dual_side });
        if stalled {
            break;
        }
        last = Some((probe.active, iterate));
    }
    let converged = !stopped && !stalled && hi <= lo * (1.0 + eps) * (1.0 + 1e-12);
    let iterations = brackets.iter().map(|b| b.iterations).sum();
    let engine_evals = brackets.iter().map(|b| b.engine_evals).sum();
    Ok(Bisection { lo, hi, converged, iterations, engine_evals, call_stats, brackets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Observer;
    use psdp_parallel::Cost;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;
    use std::time::Duration;

    /// One scripted attempt: whether the family accepts it, whether an
    /// observer stopped it, and its iteration count.
    type Step = (bool, bool, usize);

    /// A family that replays a script of attempts. Every kept call moves
    /// `lo` up to `σ`; `cross` instead moves `lo` past `hi`, and `stall`
    /// leaves the bracket alone. Probe `k` drops one of two coordinates
    /// when `masked` lists `k`. An attempt's final iterate is `[its
    /// iteration count]`: `seeds` logs the iterates warm attempts were
    /// offered, `escalated` the cold solves the escalations were handed.
    struct Script {
        steps: VecDeque<Step>,
        seeded: bool,
        escalates: bool,
        cross: bool,
        stall: bool,
        masked: Vec<usize>,
        probes: usize,
        seeds: Vec<Vec<f64>>,
        escalated: Vec<Vec<f64>>,
    }

    impl Script {
        fn new(steps: &[Step]) -> Self {
            let steps = steps.iter().copied().collect();
            Script {
                steps,
                seeded: true,
                escalates: true,
                cross: false,
                stall: false,
                masked: Vec::new(),
                probes: 0,
                seeds: Vec::new(),
                escalated: Vec::new(),
            }
        }

        fn next(&mut self, warm: bool) -> Call<bool> {
            let Some((accepted, stopped, iterations)) = self.steps.pop_front() else {
                return Err(PsdpError::InvalidInstance("script exhausted".into()));
            };
            let exit =
                if stopped { ExitReason::ObserverStopped } else { ExitReason::DualNormCrossed };
            let stats = stats(iterations, exit, warm);
            Ok(Attempt { outcome: accepted, stats, iterate: vec![iterations as f64] })
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
            wall: Duration::from_millis(iterations as u64),
            norm_trajectory: Vec::new(),
        }
    }

    impl Family<'_, ()> for Script {
        type Outcome = bool;

        fn probe(&mut self, sigma: f64) -> Probe {
            let masked = self.masked.contains(&self.probes);
            self.probes += 1;
            Probe::new(sigma, 2, |i| (masked && i == 0).then_some(0.0))
        }

        fn warm_seed(&self, _: &Probe, iterate: &[f64]) -> Option<Vec<f64>> {
            self.seeded.then(|| iterate.to_vec())
        }

        fn solve(
            &mut self,
            _: &mut Session<'_, '_, ()>,
            _: &Probe,
            seed: Option<Vec<f64>>,
        ) -> Call<bool> {
            if let Some(seed) = &seed {
                self.seeds.push(seed.clone());
            }
            self.next(seed.is_some())
        }

        fn escalate(
            &mut self,
            _: &mut Session<'_, '_, ()>,
            _: &Probe,
            cold: &Attempt<bool>,
        ) -> Option<Call<bool>> {
            self.escalated.push(cold.iterate.clone());
            self.escalates.then(|| self.next(true))
        }

        fn accepts(&self, accepted: &bool, _: &Probe, _: f64, _: f64) -> bool {
            *accepted
        }

        fn advance(&mut self, _: bool, probe: &Probe, lo: &mut f64, hi: &mut f64) -> bool {
            if !self.stall {
                *lo = if self.cross { *hi * 2.0 } else { probe.sigma };
            }
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
        // The first bracket has no kept call to continue from, so it runs
        // cold; the second runs the whole warm → cold → escalation protocol.
        let steps = [(true, false, 2), (false, false, 3), (false, false, 5), (true, false, 7)];
        let mut family = Script::new(&steps);
        let run = bisect(&mut Session::new(&(), &[]), &mut family, (1.0, 4.0), 0.1, 2).unwrap();
        assert_eq!(run.call_stats.len(), 2);
        assert!(!run.call_stats[0].warm_started && !run.brackets[0].warm_started);
        assert_eq!(run.call_stats[1].iterations, 7, "the escalation is the kept call");
        let row = &run.brackets[1];
        assert_eq!((row.sigma, row.lo, row.hi), (8.0_f64.sqrt(), 8.0_f64.sqrt(), 4.0));
        assert_eq!((row.iterations, row.engine_evals), (15, 15));
        assert_eq!(row.discarded_iterations, 8, "the warm attempt and the cold solve");
        assert_eq!(
            family.escalated,
            [[5.0]],
            "the escalation sees the cold solve, not the warm one"
        );
        assert_eq!(row.wall, Duration::from_millis(15));
        assert!(row.warm_started && row.dual_side);
        assert!(!run.converged, "max_calls ended the bisection");
    }

    #[test]
    fn discarded_escalation_leaves_the_cold_solve_as_the_call() {
        let mut family = Script::new(&[(false, false, 5), (false, false, 9)]);
        family.seeded = false;
        let run = bisect(&mut Session::new(&(), &[]), &mut family, (1.0, 4.0), 0.1, 1).unwrap();
        assert_eq!(run.call_stats[0].iterations, 5);
        assert!(!run.call_stats[0].warm_started);
        assert_eq!(run.brackets[0].iterations, 14);
        assert_eq!(run.brackets[0].discarded_iterations, 9, "the escalation");
        assert!(run.brackets[0].warm_started, "the discarded escalation started seeded");
    }

    /// Each warm attempt starts from the previous bracket's kept call:
    /// the cold solve after a discarded escalation, the escalation when it
    /// is kept, and the warm attempt itself when that is kept.
    #[test]
    fn bisect_seeds_each_warm_attempt_from_the_kept_call() {
        let steps = [
            (false, false, 5),
            (false, false, 9), // discarded escalation: the cold solve (5) is kept
            (true, false, 2),  // kept warm attempt
            (false, false, 4),
            (false, false, 6),
            (true, false, 8), // kept escalation
            (true, false, 1),
        ];
        let mut family = Script::new(&steps);
        let run = bisect(&mut Session::new(&(), &[]), &mut family, (1.0, 4.0), 0.1, 4).unwrap();
        assert_eq!(run.brackets.len(), 4);
        assert_eq!(family.escalated, [[5.0], [6.0]], "escalations start from their cold solve");
        assert_eq!(family.seeds, [[5.0], [2.0], [8.0]], "warm seeds come from the kept calls");
        let kept: Vec<usize> = run.call_stats.iter().map(|s| s.iterations).collect();
        assert_eq!(kept, [5, 2, 8, 1]);
    }

    /// The iterate of a kept call seeds the next bracket only when that
    /// bracket prunes the same coordinates.
    #[test]
    fn bisect_offers_no_warm_seed_across_a_mask_change() {
        let mut family = Script::new(&[(true, false, 1), (true, false, 2), (true, false, 3)]);
        family.masked = vec![1];
        let run = bisect(&mut Session::new(&(), &[]), &mut family, (1.0, 4.0), 0.1, 3).unwrap();
        assert_eq!(run.brackets.len(), 3);
        assert!(run.brackets.iter().all(|b| !b.warm_started), "the mask changed at every probe");
        assert!(family.seeds.is_empty());

        let mut family = Script::new(&[(true, false, 1), (true, false, 2)]);
        family.masked = vec![0, 1];
        let run = bisect(&mut Session::new(&(), &[]), &mut family, (1.0, 4.0), 0.1, 2).unwrap();
        assert_eq!(family.seeds, [[1.0]], "both probes drop the same coordinate");
        assert!(run.brackets[1].warm_started);
    }

    #[test]
    fn escalation_errors_propagate_and_absent_escalations_keep_the_cold_call() {
        let mut family = Script::new(&[(false, false, 5)]);
        family.seeded = false;
        assert!(
            bisect(&mut Session::new(&(), &[]), &mut family, (1.0, 4.0), 0.1, 1).is_err(),
            "escalation hit an empty script"
        );

        let mut family = Script::new(&[(false, false, 5)]);
        (family.seeded, family.escalates) = (false, false);
        let run = bisect(&mut Session::new(&(), &[]), &mut family, (1.0, 4.0), 0.1, 1).unwrap();
        assert_eq!(run.brackets[0].iterations, 5);
        assert_eq!(run.brackets[0].discarded_iterations, 0);
    }

    #[test]
    fn stopped_call_keeps_the_bracket_and_ends_the_bisection() {
        let updates = Rc::new(Cell::new(0));
        let mut family = Script::new(&[(true, false, 4), (false, true, 2)]);
        let mut session = Session::new(&(), &[]);
        session.add_observer(Box::new(Brackets(Rc::clone(&updates))));
        let run = bisect(&mut session, &mut family, (1.0, 4.0), 0.1, 10).unwrap();
        assert_eq!(run.brackets.len(), 2);
        assert_eq!(updates.get(), 1, "the stopped call must not emit BracketUpdated");
        let stopped = &run.brackets[1];
        assert_eq!((stopped.lo, stopped.hi), (run.brackets[0].lo, run.brackets[0].hi));
        assert!(!stopped.dual_side);
        assert_eq!(run.call_stats[1].exit, ExitReason::ObserverStopped);
        assert!(!run.converged);
    }

    /// A kept call that moves neither bound would leave the next `σ` — and
    /// so the next calls — exactly as they were: the bisection ends
    /// unconverged instead of probing the same `σ` again.
    #[test]
    fn bisect_ends_unconverged_on_a_call_that_leaves_the_bracket_unchanged() {
        let updates = Rc::new(Cell::new(0));
        let mut family = Script::new(&[(false, false, 4), (false, false, 6)]);
        (family.stall, family.seeded) = (true, false);
        let mut session = Session::new(&(), &[]);
        session.add_observer(Box::new(Brackets(Rc::clone(&updates))));
        let run = bisect(&mut session, &mut family, (1.0, 4.0), 0.1, 10).unwrap();
        assert_eq!(run.brackets.len(), 1, "the same σ was probed again");
        assert_eq!((run.lo, run.hi), (1.0, 4.0));
        assert_eq!(run.brackets[0].iterations, 10, "the cold solve and its escalation");
        assert_eq!(updates.get(), 1, "the stalled call still reports its bracket");
        assert!(!run.converged);
    }

    #[test]
    fn crossed_bounds_collapse_and_close_the_bracket() {
        let mut family = Script::new(&[(true, false, 1)]);
        family.cross = true;
        let run = bisect(&mut Session::new(&(), &[]), &mut family, (1.0, 4.0), 0.1, 10).unwrap();
        assert_eq!(run.brackets.len(), 1);
        assert_eq!(run.lo.to_bits(), run.hi.to_bits());
        assert_eq!(run.lo, (8.0_f64 * 4.0).sqrt());
        assert!(run.converged);
    }
}
