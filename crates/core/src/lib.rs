//! # psdp-core
//!
//! Width-independent parallel positive SDP solving — the reproduction of
//! Peng–Tangwongsan–Zhang (SPAA 2012).
//!
//! * [`solver`] — the session API and Algorithm 3.1's rule:
//!   [`Solver`] (instance validated, engine resolved and constructed once)
//!   → [`Session`] (stateful solves with cross-bracket warm starts and
//!   per-iteration [`Observer`]s). **This is the primary entry point.**
//!   Every decision call, packing or mixed, runs one crate-private
//!   skeleton (`session`) over prepared constraint sides; each family
//!   supplies only its per-round rule (DESIGN.md §8),
//! * [`instance`] — problem types: general positive SDPs (1.1),
//!   normalized packing instances (Figure 2), and mixed packing–covering
//!   instances, all over [`Constraint`] storage (dense / sparse CSR /
//!   factorized / diagonal),
//! * [`mixed`] — the Jain–Yao mixed packing–covering solver: its price
//!   rule on the same skeleton, [`MixedSolver`] → [`MixedSession`] with
//!   certified feasibility answers and threshold bisection
//!   ([`solve_mixed`]),
//! * [`decision`] / [`approx`] — the classic one-shot entry points
//!   ([`decision_psdp`], [`solve_packing`], [`solve_covering`]), kept as
//!   thin convenience wrappers over the session API,
//! * [`psi`] — incremental maintenance of `Ψ = Σ xᵢAᵢ` with periodic
//!   drift-checked rebuilds, and the [`PsiView`] that applies it over its
//!   fixed sparsity pattern for the `Expv` engine,
//! * [`options`] — solver configuration (paper-strict vs practical
//!   constants, engines including auto-selection, update-rule variants),
//! * [`solution`] / [`stats`] — certified outcomes and telemetry,
//! * [`codec`] — both instance families in both encodings (canonical
//!   text and `psdp-bin-1`), one reader, writer and content hash over an
//!   instance's constraint sides, and the [`sniff`] that names a byte
//!   string's family and encoding,
//! * [`theory`] — the paper's constants `(K, α, R)` and the closed-form
//!   iteration bounds of Section 1.1's complexity comparison.
//!
//! Architecture and experiment index: see `DESIGN.md` at the repository
//! root (§8 covers the Solver/Session/Observer design); recorded
//! experiment outputs live in `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod approx;
pub mod bin_io;
mod bisect;
pub mod codec;
pub mod decision;
pub mod error;
pub mod instance;
pub mod io;
pub mod mixed;
pub mod normalize;
pub mod options;
pub mod psi;
mod session;
pub mod solution;
pub mod solver;
pub mod stats;
pub mod theory;
pub mod verify;

pub use approx::{solve_covering, solve_packing, ApproxOptions, CoveringReport, PackingReport};
pub use bin_io::{
    fnv1a, mixed_content_hash, mixed_structural_eq, packing_content_hash, packing_structural_eq,
    peek_content_hash, read_instance_bin, read_mixed_instance_bin, write_instance_bin,
    write_mixed_instance_bin, Fnv1a,
};
pub use codec::{named_family, sniff, Encoding, Family, Instance};
pub use decision::{decision_psdp, DecisionResult};
pub use error::PsdpError;
pub use instance::{Constraint, MixedInstance, PackingInstance, PositiveSdp};
pub use io::{read_instance, read_mixed_instance, write_instance, write_mixed_instance};
pub use mixed::{
    coverage_target, solve_mixed, MixedApproxOptions, MixedDecision, MixedOptions, MixedReport,
    MixedSession, MixedSolver, MixedSolverBuilder,
};
pub use normalize::{normalize, trace_prune, Normalized};
pub use options::{ConstantsMode, DecisionOptions, EngineKind, UpdateRule};
pub use psi::{PsiMaintainer, PsiPattern, PsiView};
pub use solution::{
    DualSolution, ExitReason, MixedCertificate, MixedFeasible, MixedOutcome, Outcome,
    PrimalSolution,
};
pub use solver::{
    IterationEvent, Observer, ObserverControl, PhaseEvent, Session, Solver, SolverBuilder,
};
pub use stats::{BracketStats, SolveStats};
pub use theory::{
    jain_yao_iterations, ours_decision_iterations, paper_constants, width_dependent_iterations,
};
pub use verify::{
    verify_dual, verify_mixed_feasible, verify_mixed_infeasible, verify_primal, DualCertificate,
    MixedFeasibleCertificate, MixedInfeasibleCertificate, PrimalCertificate,
};
