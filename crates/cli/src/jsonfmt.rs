//! Shared JSON rendering for the `--json` schemas.
//!
//! One place formats the machine-readable payloads of `solve`, `optimize`,
//! and `mixed`, so the one-shot commands and the `serve` subcommand cannot
//! drift apart — `tests/json_schema.rs` snapshots both against the same
//! golden files. Serving responses must be byte-deterministic, so the
//! `include_wall` switch lets `serve` emit `"wall_ms": null` (key present,
//! schema unchanged) while the one-shot commands keep real timings.

use psdp_core::{
    verify_dual, verify_mixed_feasible, verify_mixed_infeasible, verify_primal, BracketStats,
    DecisionResult, MixedInstance, MixedReport, Outcome, PackingInstance, PackingReport,
    SolveStats,
};

/// Minimal JSON string escaping (our strings are ASCII identifiers and
/// paths, but stay correct on quotes/backslashes/control bytes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The typed `overloaded` response line `psdp serve` emits when a request
/// is shed by backpressure — a full shard queue, the adaptive p99 shed
/// policy, or a per-client in-flight cap at the socket front end
/// (`shard` is `null` for the last: the request was never routed).
/// Rendered here so the schema cannot drift from the golden under
/// `tests/fixtures/schema/serve_overloaded.json`.
pub fn overloaded_line(id: &str, shard: Option<usize>) -> String {
    let shard_json = match shard {
        Some(s) => s.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":{},\"error\":\"overloaded\",\"overloaded\":true,\"shard\":{shard_json}}}\n",
        json_str(id)
    )
}

/// Finite floats print as-is; NaN/inf become `null` (JSON has no literals
/// for them).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One `SolveStats` as a JSON object (the per-bracket machine-readable
/// telemetry `--json` emits). `include_wall = false` emits
/// `"wall_ms": null` so serving responses stay byte-deterministic.
pub fn json_stats(s: &psdp_core::SolveStats, include_wall: bool) -> String {
    let wall = if include_wall { json_f64(s.wall.as_secs_f64() * 1e3) } else { "null".into() };
    format!(
        "{{\"threshold\":{},\"iterations\":{},\"engine_evals\":{},\"replayed\":{},\"warm_started\":{},\"exit\":{},\"engine\":{},\"final_norm1\":{},\"k_threshold\":{},\"kappa_max\":{},\"avg_selected\":{},\"psi_rebuilds\":{},\"psi_max_drift\":{},\"wall_ms\":{}}}",
        json_f64(s.threshold),
        s.iterations,
        s.engine_evals,
        s.replayed,
        s.warm_started,
        json_str(&format!("{:?}", s.exit)),
        json_str(s.engine),
        json_f64(s.final_norm1),
        json_f64(s.k_threshold),
        json_f64(s.kappa_max),
        json_f64(s.avg_selected),
        s.psi_rebuilds,
        json_f64(s.psi_max_drift),
        wall,
    )
}

/// Body fields of a `solve` response (no surrounding braces, no
/// `command`/`id` — the caller frames them): `"file":…,"outcome":…,
/// "certificate":…,"stats":…`.
pub fn solve_payload(
    file_json: &str,
    inst: &PackingInstance,
    res: &DecisionResult,
    include_wall: bool,
) -> String {
    format!("\"file\":{file_json},{}", solve_fields(inst, res, include_wall))
}

/// The fields of [`solve_payload`] after `file`. They depend only on the
/// instance and the result (certificates are re-verified here), so a
/// caller holding a stored result can render them once and reuse them.
pub fn solve_fields(inst: &PackingInstance, res: &DecisionResult, include_wall: bool) -> String {
    let (side, cert) = match &res.outcome {
        Outcome::Dual(d) => {
            let c = verify_dual(inst, d, 1e-8);
            (
                "dual",
                format!(
                    "{{\"value\":{},\"lambda_max\":{},\"feasible\":{}}}",
                    json_f64(d.value),
                    json_f64(c.lambda_max),
                    c.feasible
                ),
            )
        }
        Outcome::Primal(p) => {
            let c = verify_primal(inst, p, 1e-5);
            (
                "primal",
                format!(
                    "{{\"min_dot\":{},\"rounds_averaged\":{},\"feasible\":{}}}",
                    json_f64(p.min_dot),
                    p.rounds_averaged,
                    c.feasible
                ),
            )
        }
    };
    format!(
        "\"outcome\":{},\"certificate\":{},\"stats\":{}",
        json_str(side),
        cert,
        json_stats(&res.stats, include_wall),
    )
}

/// Body fields of an `optimize` response (see [`solve_payload`]).
pub fn optimize_payload(
    file_json: &str,
    inst: &PackingInstance,
    r: &PackingReport,
    include_wall: bool,
) -> String {
    format!("\"file\":{file_json},{}", optimize_fields(inst, r, include_wall))
}

/// The fields of [`optimize_payload`] after `file` (see [`solve_fields`]).
pub fn optimize_fields(inst: &PackingInstance, r: &PackingReport, include_wall: bool) -> String {
    let dual = match &r.best_dual {
        Some(d) => {
            let c = verify_dual(inst, d, 1e-8);
            format!("{{\"value\":{},\"feasible\":{}}}", json_f64(d.value), c.feasible)
        }
        None => "null".to_string(),
    };
    let brackets = bracket_rows("dual_side", &r.brackets, &r.call_stats, include_wall);
    format!(
        "\"value_lower\":{},\"value_upper\":{},\"converged\":{},\"decision_calls\":{},\"total_iterations\":{},\"engine_evals\":{},\"replayed\":{},\"best_dual\":{},\"brackets\":[{}]",
        json_f64(r.value_lower),
        json_f64(r.value_upper),
        r.converged,
        r.decision_calls,
        r.total_iterations,
        r.total_engine_evals,
        r.total_replayed,
        dual,
        brackets,
    )
}

/// The `brackets` array body of an `optimize` or `mixed` response: one row
/// per call, its certified side under `side_key`.
fn bracket_rows(
    side_key: &str,
    brackets: &[BracketStats],
    calls: &[SolveStats],
    include_wall: bool,
) -> String {
    let rows: Vec<String> = brackets
        .iter()
        .zip(calls)
        .map(|(b, s)| {
            format!(
                "{{\"sigma\":{},\"{side_key}\":{},\"lo\":{},\"hi\":{},\"stats\":{}}}",
                json_f64(b.sigma),
                b.dual_side,
                json_f64(b.lo),
                json_f64(b.hi),
                json_stats(s, include_wall),
            )
        })
        .collect();
    rows.join(",")
}

/// Body fields of a `mixed` response (see [`solve_payload`]).
pub fn mixed_payload(
    file_json: &str,
    inst: &MixedInstance,
    r: &MixedReport,
    include_wall: bool,
) -> String {
    format!("\"file\":{file_json},{}", mixed_fields(inst, r, include_wall))
}

/// The fields of [`mixed_payload`] after `file` (see [`solve_fields`]).
pub fn mixed_fields(inst: &MixedInstance, r: &MixedReport, include_wall: bool) -> String {
    let point = match &r.best_point {
        Some(p) => {
            let c = verify_mixed_feasible(inst, p, r.threshold_lower * (1.0 - 1e-9), 1e-7);
            format!(
                "{{\"pack_lambda_max\":{},\"cover_lambda_min\":{},\"verified\":{}}}",
                json_f64(p.pack_lambda_max),
                json_f64(p.cover_lambda_min),
                c.feasible
            )
        }
        None => "null".to_string(),
    };
    let witness = match &r.infeasibility_witness {
        Some(w) => {
            let c = verify_mixed_infeasible(inst, w, 1e-7);
            format!(
                "{{\"sigma\":{},\"margin\":{},\"refuted_threshold\":{},\"matrix_checked\":{},\"verified\":{}}}",
                json_f64(w.sigma),
                json_f64(c.margin),
                json_f64(c.refuted_threshold),
                c.matrix_checked,
                c.valid
            )
        }
        None => "null".to_string(),
    };
    let brackets = bracket_rows("feasible_side", &r.brackets, &r.call_stats, include_wall);
    format!(
        "\"threshold_lower\":{},\"threshold_upper\":{},\"converged\":{},\"decision_calls\":{},\"total_iterations\":{},\"engine_evals\":{},\"pruned_max\":{},\"best_point\":{},\"infeasibility\":{},\"brackets\":[{}]",
        json_f64(r.threshold_lower),
        json_f64(r.threshold_upper),
        r.converged,
        r.decision_calls,
        r.total_iterations,
        r.total_engine_evals,
        r.pruned_max,
        point,
        witness,
        brackets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd\te\u{1}"), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn json_f64_non_finite_is_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
