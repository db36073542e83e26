//! The request executor shared by the one-shot [`crate::Scheduler`] and
//! the streaming [`crate::Service`]: one request against one optional
//! cache entry, through the three reuse tiers, in one fresh session. A
//! stored or replayed result hands back its memo entry's render slot, so
//! every front end renders a stored result once, whichever executor ran it.

use crate::cache::{memo_lookup, memo_store, prep_engine_of, CacheEntry, LiveSolver, Prepared};
use crate::request::{RequestKind, ServeRequest};
use crate::scheduler::{ServeResult, ServeStats};
use std::sync::Arc;

/// What executing one request hands back.
pub(crate) struct Executed {
    /// The result, or a printable per-request error.
    pub(crate) result: Result<ServeResult, String>,
    /// Deterministic reuse telemetry (wall-clock fields left for the
    /// caller to stamp).
    pub(crate) stats: ServeStats,
    /// The fingerprint's entry after this request, for the caller to
    /// re-insert (`None` when preparation failed).
    pub(crate) entry: Option<CacheEntry>,
    /// This request paid for solver preparation.
    pub(crate) prep_built: bool,
}

/// Execute `req`, whose prep hash is `hash` and parameters key is
/// `params`, against `entry` (a verified cache hit for its fingerprint, or
/// `None` to prepare cold), storing at most `memo_cap` results per entry.
/// The caller has checked that the payload matches the request kind.
///
/// Tier 1 (memo) is looked up before any solver is assembled; otherwise
/// the request runs in its own session over the entry's prepared engines
/// (tier 2), and an `optimize` whose parameters differ from the entry's
/// last certified bracket continues from it (tier 3).
pub(crate) fn execute(
    req: &ServeRequest,
    hash: u64,
    params: &str,
    entry: Option<CacheEntry>,
    memo_cap: usize,
) -> Executed {
    let (engine_kind, seed) = prep_engine_of(&req.kind);
    let failed = |msg: String| Executed {
        result: Err(msg),
        stats: ServeStats::default(),
        entry: None,
        prep_built: false,
    };
    let prep_built = entry.is_none();
    let mut entry = match entry {
        Some(e) => e,
        None => match Prepared::build(&req.payload, engine_kind, seed) {
            Ok(prepared) => CacheEntry {
                hash,
                engine_kind,
                seed,
                prepared,
                memo: Vec::new(),
                bracket: None,
                last_used: 0,
            },
            Err(e) => return failed(format!("solver preparation failed: {e}")),
        },
    };
    let mut stats = ServeStats { prep_reused: !prep_built, ..ServeStats::default() };

    if let Some(hit) = memo_lookup(&entry.memo, params) {
        stats.memoized = true;
        stats.memo = Some(Arc::clone(&hit.rendered));
        return Executed { result: Ok(hit.result.clone()), stats, entry: Some(entry), prep_built };
    }

    let solver = match entry.prepared.attach(engine_kind, seed) {
        Ok(s) => s,
        Err(e) => return failed(format!("solver preparation failed: {e}")),
    };
    let run = match (&solver, &req.kind) {
        (LiveSolver::Packing(s), RequestKind::Decision { threshold, opts }) => {
            s.session().solve_with(*threshold, opts).map(|d| {
                stats.engine_evals = d.stats.engine_evals;
                ServeResult::Decision(d)
            })
        }
        (LiveSolver::Packing(s), RequestKind::Optimize { opts }) => {
            let mut o = *opts;
            if let Some((prior_params, lo, hi)) = &entry.bracket {
                if prior_params != params {
                    o.initial_bracket = Some(match o.initial_bracket {
                        Some((l, h)) => (l.max(*lo), h.min(*hi)),
                        None => (*lo, *hi),
                    });
                    stats.bracket_injected = true;
                }
            }
            s.session().optimize(&o).map(|r| {
                stats.engine_evals = r.total_engine_evals;
                entry.bracket = Some((params.to_string(), r.value_lower, r.value_upper));
                ServeResult::Optimize(r)
            })
        }
        (LiveSolver::Mixed(s), RequestKind::Mixed { opts }) => {
            s.session().optimize(opts).map(|r| {
                stats.engine_evals = r.total_engine_evals;
                ServeResult::Mixed(r)
            })
        }
        _ => {
            return failed(format!(
                "request kind `{}` does not match its prepared solver (internal)",
                req.kind.name()
            ))
        }
    };
    let result = run.map_err(|e| e.to_string());
    if let Ok(res) = &result {
        stats.memo = memo_store(&mut entry.memo, memo_cap, params, res);
    }
    Executed { result, stats, entry: Some(entry), prep_built }
}
