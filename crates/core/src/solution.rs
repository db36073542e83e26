//! Solution types returned by the decision procedure.

use psdp_linalg::Mat;

/// A dual (packing) solution: `x ≥ 0` scaled so `Σ xᵢAᵢ ⪯ I` holds.
#[derive(Debug, Clone)]
pub struct DualSolution {
    /// The feasible dual vector.
    pub x: Vec<f64>,
    /// Its packing value `1ᵀx` (= `‖x‖₁` since `x ≥ 0`).
    pub value: f64,
    /// The scaling that was applied to the raw iterate to certify
    /// feasibility (`x = x_raw / scale`). In strict mode this is the
    /// paper's `(1+10ε)K`; in practical mode it is the measured
    /// `λmax(Σ x_raw Aᵢ)` padded by the certificate tolerance.
    pub feasibility_scale: f64,
}

/// A primal (covering) solution `Y = (1/T) Σ_τ P(τ)` with `Tr Y = 1`.
#[derive(Debug, Clone)]
pub struct PrimalSolution {
    /// Per-constraint values `Aᵢ • Y` (running averages of `P(τ) • Aᵢ`).
    pub constraint_dots: Vec<f64>,
    /// The dense matrix `Y` itself, if accumulation was enabled and the
    /// dimension was within the configured limit.
    pub y: Option<Mat>,
    /// `minᵢ Aᵢ • Y` — the primal feasibility margin (`≥ 1` means every
    /// covering constraint holds).
    pub min_dot: f64,
    /// Number of probability matrices averaged.
    pub rounds_averaged: usize,
}

/// Which side the decision procedure certified.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Found a near-optimal feasible dual (packing value ≥ 1−O(ε)):
    /// "the packing optimum is ≥ 1".
    Dual(DualSolution),
    /// Found a feasible primal with `Tr Y = 1`:
    /// "the packing optimum is ≤ 1".
    Primal(PrimalSolution),
}

impl Outcome {
    /// Borrow the dual solution, if any.
    pub fn dual(&self) -> Option<&DualSolution> {
        match self {
            Outcome::Dual(d) => Some(d),
            Outcome::Primal(_) => None,
        }
    }

    /// Borrow the primal solution, if any.
    pub fn primal(&self) -> Option<&PrimalSolution> {
        match self {
            Outcome::Primal(p) => Some(p),
            Outcome::Dual(_) => None,
        }
    }
}

/// Why the main loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// `‖x‖₁` crossed `K` (the paper's dual exit).
    DualNormCrossed,
    /// The iteration cap `R` (or practical `max_iters`) was reached.
    IterationCap,
    /// The eligible set `B(t)` was empty: the current `P(t)` already
    /// certifies the primal side (see `decision.rs` docs). For the mixed
    /// solver this is the **infeasibility** exit (the weight pair
    /// `(Y_P, Y_C)` prices every coordinate out; see
    /// [`MixedCertificate`]).
    EmptyEligibleSet,
    /// The running primal average certified feasibility early
    /// (practical-mode `early_exit`).
    PrimalEarly,
    /// The mixed solver's soft-min coverage bound reached its target
    /// `T = Θ(log(m)/ε)`: the rescaled iterate is approximately feasible
    /// (see [`crate::mixed`]). Never produced by the packing loop.
    CoverageReached,
    /// A registered [`crate::solver::Observer`] returned
    /// [`crate::solver::ObserverControl::Stop`]. The returned primal
    /// average is telemetry, **not** a certificate.
    ObserverStopped,
}

/// An approximately feasible point for a [`crate::MixedInstance`]: mixed
/// packing–covering feasibility certified **by measurement** (exact
/// eigensolver on both aggregates), independent of the engine that found
/// it.
#[derive(Debug, Clone)]
pub struct MixedFeasible {
    /// The point, rescaled so `λmax(Σ xᵢPᵢ) ≤ 1` holds exactly (up to the
    /// measurement).
    pub x: Vec<f64>,
    /// Measured `λmax(Σ xᵢPᵢ)` after rescaling (≤ 1).
    pub pack_lambda_max: f64,
    /// Measured `λmin(Σ xᵢCᵢ)` after rescaling — the coverage level this
    /// point certifies. "Feasible at threshold σ" means this is
    /// `≥ σ·(1 − O(ε))`.
    pub cover_lambda_min: f64,
}

/// A mixed-infeasibility certificate: a pair of trace-1 PSD weight
/// matrices `(Y_P, Y_C)` under which every coordinate's packing price
/// strictly exceeds its covering price. Concretely, with
/// `margin = minₖ σ·(Pₖ•Y_P)/(Cₖ•Y_C) > 1`:
///
/// ```text
///   any x ≥ 0 with Σ xᵢPᵢ ⪯ I has   1 ≥ Σ xₖ (Pₖ•Y_P)
///                                     ≥ (margin/σ)·Σ xₖ (Cₖ•Y_C)
///                                     ≥ (margin/σ)·λmin(Σ xₖCₖ),
/// ```
///
/// so `λmin(Σ xₖCₖ) ≤ σ/margin < σ`: no feasible point exists at coverage
/// threshold `σ` — or any threshold above `σ/margin`.
#[derive(Debug, Clone)]
pub struct MixedCertificate {
    /// The coverage threshold `σ` the certificate refutes.
    pub sigma: f64,
    /// Packing weight matrix `Y_P = exp(Ψ_P)/Tr exp(Ψ_P)` when the
    /// packing engine materializes it (exact engine); `None` otherwise.
    pub y_pack: Option<Mat>,
    /// Covering weight matrix `Y_C = exp(−Ψ_C/σ)/Tr exp(−Ψ_C/σ)`
    /// (always materialized — the covering side runs the exact engine).
    pub y_cover: Option<Mat>,
    /// Engine-reported packing prices `Pₖ•Y_P`.
    pub pack_dots: Vec<f64>,
    /// Engine-reported covering values `Cₖ•Y_C` (original covering scale,
    /// not divided by `σ`).
    pub cover_dots: Vec<f64>,
    /// Active-coordinate mask the certificate quantifies over (Lemma-2.2
    /// style pruning freezes the rest at 0; an all-`true` mask certifies
    /// the full instance). The bisection accounts for pruned coordinates
    /// separately via their certified coverage slack.
    pub active: Vec<bool>,
    /// `minₖ σ·pack_dots[k]/cover_dots[k]` over the active coordinates
    /// (> 1 + ε by construction). Certifies the coverage optimum is at
    /// most `σ/margin`.
    pub margin: f64,
}

impl MixedCertificate {
    /// The coverage threshold this certificate proves unreachable:
    /// `σ*` ≤ [`MixedCertificate::refuted_threshold`] `= σ/margin`.
    pub fn refuted_threshold(&self) -> f64 {
        self.sigma / self.margin.max(1e-300)
    }
}

/// Which side the mixed decision procedure certified.
#[derive(Debug, Clone)]
pub enum MixedOutcome {
    /// An approximately feasible point was found (certified by
    /// measurement; check [`MixedFeasible::cover_lambda_min`] against the
    /// threshold asked for).
    Feasible(MixedFeasible),
    /// A pricing certificate of infeasibility at the tested threshold.
    Infeasible(MixedCertificate),
}

impl MixedOutcome {
    /// Borrow the feasible point, if any.
    pub fn feasible(&self) -> Option<&MixedFeasible> {
        match self {
            MixedOutcome::Feasible(f) => Some(f),
            MixedOutcome::Infeasible(_) => None,
        }
    }

    /// Borrow the infeasibility certificate, if any.
    pub fn infeasible(&self) -> Option<&MixedCertificate> {
        match self {
            MixedOutcome::Infeasible(c) => Some(c),
            MixedOutcome::Feasible(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_outcome_accessors() {
        let f = MixedOutcome::Feasible(MixedFeasible {
            x: vec![0.5],
            pack_lambda_max: 0.9,
            cover_lambda_min: 1.1,
        });
        assert!(f.feasible().is_some());
        assert!(f.infeasible().is_none());

        let c = MixedOutcome::Infeasible(MixedCertificate {
            sigma: 2.0,
            y_pack: None,
            y_cover: None,
            pack_dots: vec![1.0],
            cover_dots: vec![0.5],
            active: vec![true],
            margin: 4.0,
        });
        let cert = c.infeasible().unwrap();
        assert!((cert.refuted_threshold() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn outcome_accessors() {
        let d = Outcome::Dual(DualSolution { x: vec![1.0], value: 1.0, feasibility_scale: 1.0 });
        assert!(d.dual().is_some());
        assert!(d.primal().is_none());

        let p = Outcome::Primal(PrimalSolution {
            constraint_dots: vec![1.1],
            y: None,
            min_dot: 1.1,
            rounds_averaged: 3,
        });
        assert!(p.primal().is_some());
        assert!(p.dual().is_none());
    }
}
