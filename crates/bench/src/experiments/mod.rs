//! Experiment runners — one per row of the DESIGN.md experiment index.
//!
//! Each function returns a [`crate::table::Table`]; the `experiments` binary
//! renders them and EXPERIMENTS.md records the output. Runners whose size
//! matters take it as a parameter: [`run`] passes the recorded size, their
//! unit tests a small one.

pub mod ablation;
pub mod expdot;
pub mod ingest;
pub mod mixed;
pub mod parallel;
pub mod quality;
pub mod scaling;
pub mod serve;
pub mod theory;
pub mod warmstart;
pub mod width;

use crate::table::Table;
use std::time::{Duration, Instant};

/// All experiment ids understood by [`run`].
pub const ALL_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16",
];

/// Run `f` `reps` times (at least once) and return the median wall clock
/// together with the last run's output.
pub fn median_wall<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut timed = || {
        let t0 = Instant::now();
        let out = f();
        (t0.elapsed(), out)
    };
    let (first, mut out) = timed();
    let mut times = vec![first];
    for _ in 1..reps {
        let (t, o) = timed();
        times.push(t);
        out = o;
    }
    times.sort();
    (times[times.len() / 2], out)
}

/// Run one experiment by id and return its table(s).
///
/// # Panics
/// Panics on an unknown id (callers validate against [`ALL_IDS`]).
pub fn run(id: &str) -> Vec<Table> {
    match id {
        "e1" => vec![scaling::e1_iterations_vs_n()],
        "e2" => vec![scaling::e2_iterations_vs_eps()],
        "e3" => vec![width::e3_width_independence()],
        "e4" => vec![expdot::e4_engine_accuracy()],
        "e5" => vec![expdot::e5_work_scaling()],
        "e6" => vec![parallel::e6_thread_scaling()],
        "e7" => vec![theory::e7_bound_comparison()],
        "e8" => vec![quality::e8_approximation_quality()],
        "e9" => vec![quality::e9_figure1()],
        "e10" => vec![ablation::e10_engines(), ablation::e10_rules(), ablation::e10_alpha()],
        "e11" => vec![warmstart::e11_warmstart()],
        "e12" => vec![mixed::e12_mixed()],
        "e13" => vec![serve::e13_serve_throughput(24)],
        "e14" => expdot::e14_kernel_stack(512, &[32, 96]),
        "e15" => serve::e15_serve_stream(100_000),
        "e16" => vec![ingest::e16_ingest(&[100_000, 1_000_000])],
        other => panic!("unknown experiment id: {other} (known: {ALL_IDS:?})"),
    }
}
