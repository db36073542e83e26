//! # psdp-parallel
//!
//! Parallel-infrastructure substrate: the analytic work–depth cost model the
//! experiments report (the paper's Corollary 1.2 is stated in that model),
//! deterministic splittable RNG streams, and scoped rayon thread pools for
//! the thread-scaling experiment.

#![warn(missing_docs)]

pub mod pool;
pub mod rng;
pub mod work_depth;

pub use pool::{available_threads, pool_with_threads, run_with_threads};
pub use rng::{derive_seed, rng_for, splitmix64};
pub use work_depth::Cost;
