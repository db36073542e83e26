//! Solver configuration.
//!
//! Two regimes are supported (see DESIGN.md §3):
//!
//! * [`ConstantsMode::PaperStrict`] — Algorithm 3.1 verbatim: `K`, `α`, `R`
//!   exactly as defined in the paper. This is what the iteration-count
//!   experiments (E1/E2) run, because those experiments are about the
//!   *bounds*.
//! * [`ConstantsMode::Practical`] — same update rule with an aggressive step
//!   size and certificate-based early exit. Outputs are always verified
//!   numerically, so this mode trades the worst-case guarantee for speed
//!   without ever returning an uncertified answer.

pub use psdp_expdot::EngineKind;

/// How the algorithm's constants `(K, α, R)` are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstantsMode {
    /// The paper's constants: `K = (1+ln n)/ε`, `α = ε/(K(1+10ε))`,
    /// `R = (32/(εα)) ln n`.
    PaperStrict,
    /// Practical constants: the same `K`, a boosted step `α' = boost·α`
    /// (default boost 16), and an iteration cap `max_iters`.
    Practical {
        /// Multiplier on the paper's `α`.
        alpha_boost: f64,
        /// Hard iteration cap replacing `R`.
        max_iters: usize,
    },
}

impl ConstantsMode {
    /// Reasonable practical defaults (boost 16, cap 20 000).
    pub fn practical_default() -> Self {
        ConstantsMode::Practical { alpha_boost: 16.0, max_iters: 20_000 }
    }
}

/// Which coordinates are stepped each iteration, and by how much.
///
/// `Standard` is the paper's Algorithm 3.1; the others are clearly-labelled
/// ablations/extensions evaluated by experiment E10 (their outputs are still
/// certificate-checked, see DESIGN.md §3 "Phases").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateRule {
    /// Algorithm 3.1: every `i` with `P•Aᵢ ≤ 1+ε` steps by `α·xᵢ`.
    Standard,
    /// Dynamic-bucketing heuristic inspired by \[WMMR15\]: coordinate `i`
    /// steps by `α·min((1+ε−ratioᵢ)/ε · boost, boost)·xᵢ`, so constraints
    /// far below threshold move up to `boost×` faster.
    Bucketed {
        /// Maximum step multiplier.
        boost: f64,
    },
    /// Only the `k` smallest-ratio coordinates step (sequential-flavored).
    TopK {
        /// Number of coordinates stepped per iteration.
        k: usize,
    },
    /// Recompute the matrix exponential only every `period` iterations,
    /// reusing the stale eligible set in between (lazy-exponential ablation).
    Stale {
        /// Refresh period in iterations (≥ 1).
        period: usize,
    },
}

/// Full configuration for one `decisionPSDP` run.
#[derive(Debug, Clone, Copy)]
pub struct DecisionOptions {
    /// Target accuracy `ε ∈ (0, 1)` of the decision problem.
    pub eps: f64,
    /// Constants regime.
    pub mode: ConstantsMode,
    /// Engine for the `exp(Φ)•A` primitive.
    pub engine: EngineKind,
    /// Update rule (Standard = the paper).
    pub rule: UpdateRule,
    /// Allow returning a primal solution as soon as the running average
    /// certifies feasibility (sound; saves iterations in practical mode).
    pub early_exit: bool,
    /// Accumulate the dense primal matrix `Y = avg P(τ)` when `m` is at most
    /// this limit (0 disables). Needed if you want the primal *matrix* and
    /// not just its constraint dot products.
    pub primal_matrix_dim_limit: usize,
    /// Root seed for sketches.
    pub seed: u64,
}

impl DecisionOptions {
    /// Paper-faithful configuration at accuracy `eps` with the exact engine.
    pub fn strict(eps: f64) -> Self {
        DecisionOptions {
            eps,
            mode: ConstantsMode::PaperStrict,
            engine: EngineKind::Exact,
            rule: UpdateRule::Standard,
            early_exit: false,
            primal_matrix_dim_limit: 512,
            seed: 0,
        }
    }

    /// Practical configuration at accuracy `eps` with the exact engine.
    pub fn practical(eps: f64) -> Self {
        DecisionOptions {
            eps,
            mode: ConstantsMode::practical_default(),
            engine: EngineKind::Exact,
            rule: UpdateRule::Standard,
            early_exit: true,
            primal_matrix_dim_limit: 512,
            seed: 0,
        }
    }

    /// Builder-style engine override.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Builder-style update-rule override.
    pub fn with_rule(mut self, rule: UpdateRule) -> Self {
        self.rule = rule;
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
    /// [`crate::PsdpError::InvalidInstance`] on out-of-range values.
    pub fn validate(&self) -> Result<(), crate::PsdpError> {
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(crate::PsdpError::InvalidInstance(format!(
                "eps must be in (0,1), got {}",
                self.eps
            )));
        }
        validate_engine(self.engine)?;
        if let ConstantsMode::Practical { alpha_boost, max_iters } = self.mode {
            if alpha_boost.is_nan() || alpha_boost <= 0.0 || max_iters == 0 {
                return Err(crate::PsdpError::InvalidInstance(
                    "practical mode needs alpha_boost > 0 and max_iters > 0".into(),
                ));
            }
        }
        match self.rule {
            // `!boost.is_finite()` (not just NaN): an infinite boost would
            // make the Bucketed step multiplier unbounded, overshooting the
            // iterate to ±∞ instead of failing fast here.
            UpdateRule::Bucketed { boost } if !boost.is_finite() || boost < 1.0 => Err(
                crate::PsdpError::InvalidInstance("bucketed boost must be finite and ≥ 1".into()),
            ),
            UpdateRule::TopK { k: 0 } => {
                Err(crate::PsdpError::InvalidInstance("top-k needs k ≥ 1".into()))
            }
            UpdateRule::Stale { period: 0 } => {
                Err(crate::PsdpError::InvalidInstance("stale period must be ≥ 1".into()))
            }
            _ => Ok(()),
        }
    }
}

/// Reject engine parameters the engines cannot run with: every engine
/// `eps` must lie in `(0,1)` (the Taylor degree and the JL row count are
/// undefined outside it) and a sketch multiplier must be finite and
/// positive. Checked up front so a bad value fails the build of a solver,
/// not an evaluation in the middle of a solve.
///
/// # Errors
/// [`crate::PsdpError::InvalidInstance`] naming the offending parameter.
pub(crate) fn validate_engine(engine: EngineKind) -> Result<(), crate::PsdpError> {
    let (eps, sketch_const) = match engine {
        EngineKind::Exact => return Ok(()),
        EngineKind::Taylor { eps } | EngineKind::Expv { eps } | EngineKind::Auto { eps } => {
            (eps, None)
        }
        EngineKind::TaylorJl { eps, sketch_const } => (eps, Some(sketch_const)),
    };
    if !(eps > 0.0 && eps < 1.0) {
        return Err(crate::PsdpError::InvalidInstance(format!(
            "{} engine eps must be in (0,1), got {eps}",
            engine.name()
        )));
    }
    if let Some(c) = sketch_const.filter(|c| !(c.is_finite() && *c > 0.0)) {
        return Err(crate::PsdpError::InvalidInstance(format!(
            "{} engine sketch_const must be finite and > 0, got {c}",
            engine.name()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(DecisionOptions::strict(0.2).validate().is_ok());
        assert!(DecisionOptions::practical(0.1).validate().is_ok());
    }

    #[test]
    fn rejects_bad_eps() {
        assert!(DecisionOptions::strict(0.0).validate().is_err());
        assert!(DecisionOptions::strict(1.0).validate().is_err());
    }

    #[test]
    fn rejects_bad_rules() {
        let o = DecisionOptions::practical(0.1).with_rule(UpdateRule::TopK { k: 0 });
        assert!(o.validate().is_err());
        let o = DecisionOptions::practical(0.1).with_rule(UpdateRule::Bucketed { boost: 0.5 });
        assert!(o.validate().is_err());
        let o = DecisionOptions::practical(0.1).with_rule(UpdateRule::Stale { period: 0 });
        assert!(o.validate().is_err());
    }

    /// Non-finite nested rule parameters must be rejected, not looped on:
    /// an infinite or NaN Bucketed boost (and non-positive/zero nested
    /// values generally) would otherwise surface as overshoot or panics
    /// deep inside the iterate loop.
    #[test]
    fn rejects_non_finite_rule_parameters() {
        for boost in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -3.0] {
            let o = DecisionOptions::practical(0.1).with_rule(UpdateRule::Bucketed { boost });
            assert!(o.validate().is_err(), "boost {boost} accepted");
        }
        // Valid boundary: boost = 1.0 is the smallest allowed multiplier.
        let o = DecisionOptions::practical(0.1).with_rule(UpdateRule::Bucketed { boost: 1.0 });
        assert!(o.validate().is_ok());
    }

    #[test]
    fn rejects_bad_engine_parameters() {
        for engine in [
            EngineKind::Expv { eps: 2.5 },
            EngineKind::Expv { eps: f64::NAN },
            EngineKind::TaylorJl { eps: 2.5, sketch_const: 4.0 },
            EngineKind::TaylorJl { eps: 0.2, sketch_const: 0.0 },
            EngineKind::TaylorJl { eps: 0.2, sketch_const: f64::INFINITY },
            EngineKind::Taylor { eps: 0.0 },
            EngineKind::Taylor { eps: f64::NAN },
            EngineKind::Auto { eps: 1.0 },
        ] {
            let o = DecisionOptions::practical(0.1).with_engine(engine);
            assert!(o.validate().is_err(), "{engine:?} accepted");
        }
        let o = DecisionOptions::practical(0.1)
            .with_engine(EngineKind::TaylorJl { eps: 0.5, sketch_const: 4.0 });
        assert!(o.validate().is_ok());
    }

    #[test]
    fn builders_chain() {
        let o = DecisionOptions::practical(0.1)
            .with_engine(EngineKind::Taylor { eps: 0.05 })
            .with_rule(UpdateRule::TopK { k: 2 })
            .with_seed(9);
        assert_eq!(o.seed, 9);
        assert!(matches!(o.engine, EngineKind::Taylor { .. }));
        assert!(o.validate().is_ok());
    }
}
