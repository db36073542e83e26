//! # psdp-baselines
//!
//! Comparators for the experiments:
//!
//! * [`ak`] — width-**dependent** MMW packing solver (the dependence the
//!   paper removes; E3's foil),
//! * [`matrix_mw`] — the Section 2.1 matrix multiplicative weights game
//!   [`ak`] plays, with the Arora–Kale regret bound (Theorem 2.1)
//!   checkable at runtime,
//! * [`young_lp`] — Young '01-style width-independent positive **LP**
//!   solver (the scalar ancestor; cross-validates the diagonal case),
//! * [`simplex`] — exact dense simplex (ground truth for LPs),
//! * [`exact`] — exact/near-exact packing optima for diagonal, commuting,
//!   and `n ≤ 2` instances,
//! * [`mixed_lp`] — Young '01 mixed packing/covering LP solver (the scalar
//!   case of the paper's named future-work direction).

#![warn(missing_docs)]

pub mod ak;
pub mod exact;
pub mod matrix_mw;
pub mod mixed_lp;
pub mod simplex;
pub mod young_lp;

pub use ak::{ak_decision, AkOutcome, AkResult};
pub use exact::{exact_commuting_opt, exact_diagonal_opt, exact_small_opt};
pub use matrix_mw::MmwGame;
pub use mixed_lp::{mixed_exact_threshold, mixed_packing_covering, MixedLpResult, MixedOutcome};
pub use simplex::{packing_lp_opt, simplex_max, LpResult};
pub use young_lp::{young_decision, young_packing_lp, YoungDecision, YoungLpResult};
