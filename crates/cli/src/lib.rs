//! # psdp-cli
//!
//! The `psdp` command-line interface as a library: [`commands::dispatch`]
//! drives every subcommand (`generate` / `info` / `solve` / `optimize` /
//! `mixed` / `serve`), [`serve`] holds the JSONL serving front door —
//! one request reader and one response renderer behind its three front
//! ends (one-shot, `--listen` over stdin, socket clients), each testable
//! over any reader/writer pair ([`serve::serve_on`],
//! [`serve::serve_listen_on`]) or an input string
//! ([`serve::serve_on_input`], [`serve::serve_listen_on_input`]) — and
//! [`jsonfmt`] renders the shared `--json` schemas. The `psdp` binary in
//! `main.rs` is a thin wrapper so integration tests (JSON schema
//! snapshots, serve determinism) can run everything in-process.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod jsonfmt;
pub mod serve;
