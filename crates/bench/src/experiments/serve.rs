//! E13 / E15 — the serving layer: the fingerprint cache against cold
//! per-request solving, and the streaming service against the one-shot
//! scheduler.
//!
//! Both compare paths that answer with the same values (the cache and the
//! executor choice are value-neutral; the `psdp-serve` unit suite and
//! `tests/determinism.rs` pin that bitwise), so the wall-clock columns
//! isolate orchestration cost.

use super::median_wall;
use crate::table::{f, Table};
use psdp_cli::args::Args;
use psdp_cli::serve::{serve_listen_on_input, serve_on_input, ServeRun};
use psdp_core::DecisionOptions;
use psdp_serve::{BatchReport, Scheduler, SchedulerOptions, ServeRequest};
use psdp_workloads::{
    mixed_request_stream, request_stream, stream_jsonl, MixedStreamSpec, RequestStreamSpec,
};
use std::sync::Arc;

/// Timed runs per E13 row.
const E13_REPS: usize = 10;
/// Timed runs per E15 row.
const E15_REPS: usize = 3;

/// E13's batch: `requests` decision requests over a zipf-repeated pool of
/// 4 random-factorized instances (dim 12, n = 8), 3 thresholds each.
fn decision_batch(requests: usize) -> Vec<ServeRequest> {
    let spec =
        RequestStreamSpec { pool: 4, requests, dim: 12, n: 8, zipf_s: 1.1, thresholds: 3, seed: 5 };
    let (instances, stream) = request_stream(&spec);
    let instances: Vec<Arc<_>> = instances.into_iter().map(Arc::new).collect();
    stream
        .into_iter()
        .map(|r| {
            ServeRequest::decision(
                r.id,
                Arc::clone(&instances[r.instance]),
                r.threshold,
                DecisionOptions::practical(0.15),
            )
        })
        .collect()
}

/// E13 table: one batch run cold (cache off: every request builds its
/// engine and solves), on a fresh caching scheduler, and again on a
/// scheduler that has served it once (steady state: pure memo traffic).
pub fn e13_serve_throughput(requests: usize) -> Table {
    let batch = decision_batch(requests);
    let run = |sched: &mut Scheduler| -> BatchReport {
        let out = sched.run_batch(&batch).expect("batch");
        assert_eq!(out.report.errors, 0, "a request failed");
        out.report
    };
    let cold_opts = SchedulerOptions { cache_enabled: false, ..SchedulerOptions::default() };
    let cold = median_wall(E13_REPS, || run(&mut Scheduler::new(cold_opts)));
    let first = median_wall(E13_REPS, || run(&mut Scheduler::new(SchedulerOptions::default())));
    let mut warm = Scheduler::new(SchedulerOptions::default());
    run(&mut warm);
    let steady = median_wall(E13_REPS, || run(&mut warm));

    let mut t = Table::new(
        format!(
            "E13: serving throughput, {requests} decision requests (pool 4, eps=0.15; \
             median of {E13_REPS})"
        ),
        &["batch", "wall ms", "engine evals", "prep builds", "prep reuses", "memo hits"],
    );
    for (label, (wall, r)) in
        [("cold", cold), ("cached-first-batch", first), ("cached-steady", steady)]
    {
        t.row(vec![
            label.into(),
            f(wall.as_secs_f64() * 1e3),
            r.engine_evals.to_string(),
            r.prep_builds.to_string(),
            r.tiers.prep_reuses.to_string(),
            r.tiers.memo_hits.to_string(),
        ]);
    }
    t
}

/// E15's stream: `requests` full-protocol JSONL lines (≈ 85% solve, 10%
/// optimize, 5% mixed) over a zipf pool of 16 packing instances (dim 10,
/// n = 6, 3 thresholds each) and 2 mixed instances.
fn stream(requests: usize) -> String {
    stream_jsonl(&mixed_request_stream(&MixedStreamSpec {
        base: RequestStreamSpec {
            pool: 16,
            requests,
            dim: 10,
            n: 6,
            zipf_s: 1.1,
            thresholds: 3,
            seed: 15,
        },
        mixed_pool: 2,
        optimize_share: 0.1,
        mixed_share: 0.05,
        eps: 0.2,
    }))
}

fn args(argv: &[&str]) -> Args {
    Args::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("argv parses")
}

/// The count printed just before `label` in a serve stderr report
/// (`"12 prep builds"` → `"12"`), or `"-"` when the report has no such
/// counter.
fn count(report: &str, label: &str) -> String {
    report
        .find(label)
        .and_then(|at| report[..at].split_whitespace().last())
        .map_or_else(|| "-".into(), |n| n.trim_start_matches('(').to_string())
}

/// The text of a serve stderr report from the last word of `key` up to
/// the next `;` or line end (`"service p50"` → `"p50 … ms, p99 … ms, max
/// … ms"`), or `"-"` when the report has no such field.
fn field(report: &str, key: &str) -> String {
    report.find(key).map_or_else(
        || "-".into(),
        |at| {
            let rest = &report[at + key.rfind(' ').map_or(0, |i| i + 1)..];
            rest[..rest.find([';', '\n']).unwrap_or(rest.len())].trim().to_string()
        },
    )
}

/// E15 tables: the same stream through one-shot `psdp serve` and through
/// `psdp serve --listen` at 1 and 4 shards (queue capacity 1024, no
/// snapshot), in process through the CLI's own entry points. The first
/// table has the throughput, the per-tier counters and how many response
/// lines differ from one-shot's; the second has the latency and queue
/// lines of each mode's stderr report.
pub fn e15_serve_stream(requests: usize) -> Vec<Table> {
    let input = stream(requests);
    let mut t = Table::new(
        format!(
            "E15: {requests}-request full-protocol zipf stream ({:.1} MiB of JSONL; \
             median of {E15_REPS})",
            input.len() as f64 / (1024.0 * 1024.0)
        ),
        &[
            "mode",
            "wall s",
            "req/s",
            "prep builds",
            "prep reuses",
            "memo hits",
            "overloaded",
            "engine evals",
            "lines != one-shot",
        ],
    );
    let mut latency = Table::new(
        "E15: latency and queues (each mode's stderr report)",
        &["mode", "service latency", "queue wait", "queue high-water"],
    );
    let mut one_shot: Option<String> = None;
    for (mode, argv) in [
        ("one-shot", &["serve"][..]),
        ("listen-1-shard", &["serve", "--listen", "--shards", "1"]),
        ("listen-4-shards", &["serve", "--listen", "--shards", "4"]),
    ] {
        let serve: fn(&Args, &str) -> Result<ServeRun, String> =
            if argv.contains(&"--listen") { serve_listen_on_input } else { serve_on_input };
        let argv = args(argv);
        let (wall, run) = median_wall(E15_REPS, || serve(&argv, &input).expect("serve runs"));
        let differing = one_shot.as_deref().map_or(0, |base| {
            assert_eq!(
                run.stdout.lines().count(),
                base.lines().count(),
                "{mode} answered a different number of requests"
            );
            run.stdout.lines().zip(base.lines()).filter(|(a, b)| a != b).count()
        });
        let s = &run.summary;
        t.row(vec![
            mode.into(),
            f(wall.as_secs_f64()),
            f(requests as f64 / wall.as_secs_f64()),
            count(s, " prep builds"),
            count(s, " prep reuses"),
            count(s, " memo hits"),
            count(s, " overloaded"),
            count(s, " engine evals"),
            differing.to_string(),
        ]);
        latency.row(vec![
            mode.into(),
            field(s, "service p50"),
            field(s, "queue p50"),
            field(s, "high-water ["),
        ]);
        one_shot.get_or_insert(run.stdout);
    }
    vec![t, latency]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whitespace-separated cells of each of `t`'s rendered data rows.
    fn rows(t: &Table) -> Vec<Vec<String>> {
        t.render()
            .lines()
            .skip(3)
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect()
    }

    /// Cold and cached batches finish without errors (the runner asserts
    /// it on every run), and a batch repeated on a scheduler that already
    /// served it is answered entirely from the memo store.
    #[test]
    fn e13_steady_batch_is_all_memo_hits() {
        let requests = 8;
        let t = e13_serve_throughput(requests);
        let rows = rows(&t);
        assert_eq!(rows.len(), 3);
        let steady = &rows[2];
        assert_eq!(steady[0], "cached-steady");
        assert_eq!(steady[2], "0", "steady state evaluated the engine: {steady:?}");
        assert_eq!(steady[5], requests.to_string(), "steady state missed the memo: {steady:?}");
    }

    /// Below the queue capacity nothing is shed, so `--listen` at 1 and 4
    /// shards answers the stream with exactly one-shot's bytes.
    #[test]
    fn e15_listen_streams_match_one_shot() {
        let tables = e15_serve_stream(60);
        let rows = rows(&tables[0]);
        assert_eq!(rows.len(), 3);
        for row in &rows[1..] {
            assert_eq!(row[6], "0", "{} shed requests: {row:?}", row[0]);
            assert_eq!(row[8], "0", "{} differs from one-shot: {row:?}", row[0]);
        }
    }
}
