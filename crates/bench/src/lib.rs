//! # psdp-bench
//!
//! The experiment harness: per-claim experiment runners ([`experiments`])
//! and the plain-text [`table`] formatter. The `experiments` binary drives
//! these: the paper tables E1–E12 and the timed serving, kernel and ingest
//! experiments E13–E16. The repository benchmark (`perfbench/`) times the
//! end-to-end workloads and the per-layer metrics.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
