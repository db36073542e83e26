//! # psdp-serve
//!
//! Batched multi-instance serving for the width-independent positive-SDP
//! solvers. The paper's polylog-depth rounds of embarrassingly parallel
//! work make per-instance cost predictable, which is exactly what a batch
//! scheduler needs to serve many concurrent solve requests without one
//! wide instance starving the rest.
//!
//! * [`ServeRequest`] / [`RequestKind`] — heterogeneous requests
//!   (decision / optimize / mixed), each with its own options, over
//!   `Arc`-shared instances,
//! * [`Scheduler`] — groups a batch by preparation fingerprint, executes
//!   groups over the shared rayon pool, one worker per pool thread,
//!   and returns responses in submission order with per-request
//!   [`ServeStats`] and an aggregate [`BatchReport`],
//! * [`SolverCache`] — the fingerprint-keyed store amortizing solver
//!   preparation (factorizations, `Auto` engine resolution), memoizing
//!   repeat results, and carrying certified brackets into perturbed
//!   resubmissions,
//! * [`json`] — the minimal JSON reader behind the `psdp serve` JSONL
//!   front door and the schema-snapshot tests,
//! * [`service`] — the persistent streaming service behind
//!   `psdp serve --listen`: streaming admission (no batch barrier),
//!   bounded per-shard queues with typed backpressure, a
//!   fingerprint-prefix [`shard::ShardedCache`], snapshot persistence
//!   ([`snapshot`]), and a submission-order sequencer,
//! * [`telemetry`] — per-tier hit counters and latency histograms shared
//!   by the one-shot and streaming reports,
//! * [`transport`] — the socket front end behind `--listen --bind`:
//!   TCP/Unix listeners and the round-robin fair admission multiplexer
//!   ([`transport::FairMux`]) that keeps one firehose client from
//!   starving the rest.
//!
//! Determinism contract: responses are a function of the batch contents
//! (plus prior batches on the same scheduler), never of submission order
//! or pool width; the streaming service extends the same contract across
//! shard counts and worker interleavings (see [`service`]). `tests/determinism.rs` at the workspace root pins this
//! down bitwise. `DESIGN.md` §10 documents the cache-key soundness
//! argument and §13 the service architecture.

#![warn(missing_docs)]

pub mod cache;
mod exec;
pub mod json;
pub mod request;
pub mod scheduler;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod telemetry;
pub mod transport;

pub use cache::SolverCache;
pub use request::{InstancePayload, RequestKind, ServeRequest};
pub use scheduler::{
    BatchOutput, BatchReport, Scheduler, SchedulerOptions, ServeError, ServeResponse, ServeResult,
    ServeStats,
};
pub use service::{Service, ServiceOptions, ServiceReport, StreamItem, StreamOutcome};
pub use shard::ShardedCache;
pub use snapshot::SnapshotError;
pub use telemetry::{LatencyHistogram, LatencyStats, TierCounters};
pub use transport::{BindAddr, Connection, FairMux, Listener};

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_core::{
        ApproxOptions, DecisionOptions, MixedApproxOptions, MixedInstance, PackingInstance,
    };
    use psdp_sparse::PsdMatrix;
    use std::sync::Arc;

    fn diag_inst(rows: &[&[f64]]) -> Arc<PackingInstance> {
        Arc::new(
            PackingInstance::new(rows.iter().map(|r| PsdMatrix::Diagonal(r.to_vec())).collect())
                .unwrap(),
        )
    }

    fn mixed_inst() -> Arc<MixedInstance> {
        Arc::new(
            MixedInstance::new(
                vec![PsdMatrix::Diagonal(vec![2.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 2.0])],
                vec![PsdMatrix::Diagonal(vec![1.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 1.0])],
            )
            .unwrap(),
        )
    }

    fn response_fingerprint(resp: &ServeResponse) -> String {
        // A value-level digest of the deterministic response content
        // (ignores wall-clock stats).
        match &resp.result {
            Err(e) => format!("{}:err:{e}", resp.id),
            Ok(ServeResult::Decision(d)) => format!(
                "{}:dec:{:?}:{}:{}",
                resp.id,
                d.stats.exit,
                d.stats.iterations,
                match &d.outcome {
                    psdp_core::Outcome::Dual(du) => format!("dual:{:x}", du.value.to_bits()),
                    psdp_core::Outcome::Primal(p) => format!("primal:{:x}", p.min_dot.to_bits()),
                }
            ),
            Ok(ServeResult::Optimize(r)) => format!(
                "{}:opt:{:x}:{:x}:{}:{}",
                resp.id,
                r.value_lower.to_bits(),
                r.value_upper.to_bits(),
                r.decision_calls,
                r.converged
            ),
            Ok(ServeResult::Mixed(r)) => format!(
                "{}:mix:{:x}:{:x}:{}",
                resp.id,
                r.threshold_lower.to_bits(),
                r.threshold_upper.to_bits(),
                r.converged
            ),
        }
    }

    #[test]
    fn heterogeneous_batch_serves_all_kinds() {
        let pack = diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let requests = vec![
            ServeRequest::decision("d1", Arc::clone(&pack), 0.5, DecisionOptions::practical(0.2)),
            ServeRequest::optimize("o1", Arc::clone(&pack), ApproxOptions::serving(0.1)),
            ServeRequest::mixed("m1", mixed_inst(), MixedApproxOptions::practical(0.1)),
        ];
        let mut sched = Scheduler::new(SchedulerOptions::default());
        let out = sched.run_batch(&requests).unwrap();
        assert_eq!(out.responses.len(), 3);
        assert_eq!(out.report.errors, 0);
        assert!(matches!(out.responses[0].result, Ok(ServeResult::Decision(_))));
        match &out.responses[1].result {
            Ok(ServeResult::Optimize(r)) => {
                assert!(r.converged);
                assert!(r.value_lower <= 0.75 + 1e-9 && r.value_upper >= 0.75 - 1e-9);
            }
            other => panic!("bad optimize response: {other:?}"),
        }
        match &out.responses[2].result {
            Ok(ServeResult::Mixed(r)) => {
                assert!(r.threshold_lower <= 0.5 + 1e-9 && r.threshold_upper >= 0.5 - 1e-9);
            }
            other => panic!("bad mixed response: {other:?}"),
        }
        // Decision and optimize share a fingerprint (same instance, engine,
        // seed); mixed is its own.
        assert_eq!(out.report.groups, 2);
        assert_eq!(sched.cached_fingerprints(), 2);
    }

    #[test]
    fn memoization_replays_identical_requests_bitwise() {
        let pack = diag_inst(&[&[1.0, 0.0, 0.5], &[0.0, 1.0, 0.5], &[0.5, 0.5, 0.0]]);
        let opts = ApproxOptions::serving(0.1);
        let requests = vec![
            ServeRequest::optimize("a", Arc::clone(&pack), opts),
            ServeRequest::optimize("b", Arc::clone(&pack), opts),
        ];
        let mut sched = Scheduler::new(SchedulerOptions::default());
        let out = sched.run_batch(&requests).unwrap();
        let (ra, rb) = (&out.responses[0], &out.responses[1]);
        // "a" runs first (id order), "b" is a memo hit with zero live work.
        assert!(!ra.stats.memoized && rb.stats.memoized);
        assert!(ra.stats.engine_evals > 0);
        assert_eq!(rb.stats.engine_evals, 0);
        assert_eq!(
            response_fingerprint(ra).split_once(':').unwrap().1,
            response_fingerprint(rb).split_once(':').unwrap().1,
            "memoized response must be value-identical"
        );
        // Across batches the memo persists.
        let out2 =
            sched.run_batch(&[ServeRequest::optimize("c", Arc::clone(&pack), opts)]).unwrap();
        assert!(out2.responses[0].stats.memoized);
        assert_eq!(out2.report.engine_evals, 0);
    }

    #[test]
    fn memo_render_slot_is_shared_by_hits_and_freed_on_eviction() {
        let (a, b) = (diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]), diag_inst(&[&[1.0, 0.0]]));
        let opts = DecisionOptions::practical(0.2);
        let mut sched = Scheduler::new(SchedulerOptions { max_entries: 1, ..Default::default() });
        let slot_of = |out: BatchOutput| out.responses[0].stats.memo.clone().unwrap();
        let stored = slot_of(
            sched.run_batch(&[ServeRequest::decision("a", Arc::clone(&a), 0.5, opts)]).unwrap(),
        );
        stored.set("fields".to_string()).unwrap();
        let weak = Arc::downgrade(&stored);
        drop(stored);
        // A hit hands back the same slot, already filled.
        let hit = slot_of(
            sched.run_batch(&[ServeRequest::decision("a2", Arc::clone(&a), 0.5, opts)]).unwrap(),
        );
        assert!(weak.upgrade().is_some_and(|s| Arc::ptr_eq(&s, &hit)));
        assert_eq!(hit.get().map(String::as_str), Some("fields"));
        drop(hit);
        // Another fingerprint evicts `a` (capacity 1): its slot goes too.
        sched.run_batch(&[ServeRequest::decision("b", b, 0.5, opts)]).unwrap();
        assert!(weak.upgrade().is_none(), "evicted entry's rendered bytes must be freed");
    }

    #[test]
    fn prep_reuse_and_bracket_continuation_across_batches() {
        let pack = diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let mut sched = Scheduler::new(SchedulerOptions::default());
        let first = sched
            .run_batch(&[ServeRequest::optimize(
                "a",
                Arc::clone(&pack),
                ApproxOptions::serving(0.2),
            )])
            .unwrap();
        assert_eq!(first.report.prep_builds, 1);
        assert!(!first.responses[0].stats.prep_reused);
        let cold_bracket = match &first.responses[0].result {
            Ok(ServeResult::Optimize(r)) => (r.value_lower, r.value_upper),
            other => panic!("{other:?}"),
        };

        // Perturbed resubmission: tighter accuracy, same fingerprint. It
        // must reuse preparation and continue from the certified bracket.
        let second = sched
            .run_batch(&[ServeRequest::optimize(
                "b",
                Arc::clone(&pack),
                ApproxOptions::serving(0.05),
            )])
            .unwrap();
        assert_eq!(second.report.prep_builds, 0);
        let resp = &second.responses[0];
        assert!(resp.stats.prep_reused);
        assert!(resp.stats.bracket_injected);
        match &resp.result {
            Ok(ServeResult::Optimize(r)) => {
                assert!(r.converged);
                // The tightened bracket sits inside the cold one and still
                // contains OPT = 0.75.
                assert!(r.value_lower >= cold_bracket.0 - 1e-12);
                assert!(r.value_upper <= cold_bracket.1 + 1e-12);
                assert!(r.value_lower <= 0.75 + 1e-9 && r.value_upper >= 0.75 - 1e-9);
            }
            other => panic!("{other:?}"),
        }

        // And the injected run must not have cost more decision calls than
        // a cold run at the same accuracy.
        let mut cold_sched = Scheduler::new(SchedulerOptions::default());
        let cold = cold_sched
            .run_batch(&[ServeRequest::optimize(
                "c",
                Arc::clone(&pack),
                ApproxOptions::serving(0.05),
            )])
            .unwrap();
        let (warm_calls, cold_calls) = match (&resp.result, &cold.responses[0].result) {
            (Ok(ServeResult::Optimize(w)), Ok(ServeResult::Optimize(c))) => {
                (w.decision_calls, c.decision_calls)
            }
            other => panic!("{other:?}"),
        };
        assert!(warm_calls <= cold_calls, "warm {warm_calls} vs cold {cold_calls}");
    }

    #[test]
    fn cache_disabled_is_the_cold_baseline() {
        let pack = diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let opts = ApproxOptions::serving(0.15);
        let requests: Vec<ServeRequest> = (0..3)
            .map(|i| ServeRequest::optimize(format!("r{i}"), Arc::clone(&pack), opts))
            .collect();
        let mut cold = Scheduler::new(SchedulerOptions {
            cache_enabled: false,
            ..SchedulerOptions::default()
        });
        let out = cold.run_batch(&requests).unwrap();
        assert_eq!(out.report.groups, 3);
        assert_eq!(out.report.prep_builds, 3);
        assert_eq!(out.report.tiers.memo_hits, 0);
        assert_eq!(cold.cached_fingerprints(), 0);
        // Every response is value-identical anyway (determinism).
        let digests: Vec<String> = out
            .responses
            .iter()
            .map(|r| response_fingerprint(r).split_once(':').unwrap().1.to_string())
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);

        let mut warm = Scheduler::new(SchedulerOptions::default());
        let warm_out = warm.run_batch(&requests).unwrap();
        assert_eq!(warm_out.report.prep_builds, 1);
        assert_eq!(warm_out.report.tiers.memo_hits, 2);
        assert!(
            warm_out.report.engine_evals < out.report.engine_evals,
            "cache must reduce live engine work: warm {} vs cold {}",
            warm_out.report.engine_evals,
            out.report.engine_evals
        );
        let warm_digest: Vec<String> = warm_out
            .responses
            .iter()
            .map(|r| response_fingerprint(r).split_once(':').unwrap().1.to_string())
            .collect();
        assert_eq!(digests, warm_digest, "cache must never change a response value");
    }

    #[test]
    fn responses_do_not_depend_on_submission_order() {
        let a = diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = diag_inst(&[&[1.0, 0.3], &[0.3, 1.0]]);
        let mk = |ids: &[&str]| -> Vec<ServeRequest> {
            ids.iter()
                .map(|&id| match id {
                    "x1" => ServeRequest::decision(
                        "x1",
                        Arc::clone(&a),
                        0.6,
                        DecisionOptions::practical(0.2),
                    ),
                    "x2" => ServeRequest::decision(
                        "x2",
                        Arc::clone(&a),
                        1.4,
                        DecisionOptions::practical(0.2),
                    ),
                    "y1" => {
                        ServeRequest::optimize("y1", Arc::clone(&b), ApproxOptions::serving(0.1))
                    }
                    "y2" => {
                        ServeRequest::optimize("y2", Arc::clone(&b), ApproxOptions::serving(0.1))
                    }
                    _ => unreachable!(),
                })
                .collect()
        };
        let run = |ids: &[&str]| -> Vec<String> {
            let mut sched = Scheduler::new(SchedulerOptions::default());
            let out = sched.run_batch(&mk(ids)).unwrap();
            let mut digests: Vec<String> = out
                .responses
                .iter()
                .map(|r| {
                    format!(
                        "{} memo={} prep={} evals={}",
                        response_fingerprint(r),
                        r.stats.memoized,
                        r.stats.prep_reused,
                        r.stats.engine_evals
                    )
                })
                .collect();
            digests.sort();
            digests
        };
        let fwd = run(&["x1", "x2", "y1", "y2"]);
        let rev = run(&["y2", "y1", "x2", "x1"]);
        let mix = run(&["y1", "x2", "y2", "x1"]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd, mix);
    }

    #[test]
    fn duplicate_ids_and_mismatched_payloads() {
        let pack = diag_inst(&[&[1.0]]);
        let requests = vec![
            ServeRequest::decision("same", Arc::clone(&pack), 1.0, DecisionOptions::practical(0.2)),
            ServeRequest::decision("same", Arc::clone(&pack), 2.0, DecisionOptions::practical(0.2)),
        ];
        let mut sched = Scheduler::new(SchedulerOptions::default());
        assert_eq!(
            sched.run_batch(&requests).err(),
            Some(ServeError::DuplicateId("same".to_string()))
        );

        // A mixed kind over a packing payload yields a per-request error.
        let payload = InstancePayload::Packing(Arc::clone(&pack));
        let bad = ServeRequest {
            id: "bad".into(),
            content_hash: payload.content_hash(),
            payload,
            kind: RequestKind::Mixed { opts: MixedApproxOptions::practical(0.1) },
        };
        let ok =
            ServeRequest::decision("ok", Arc::clone(&pack), 1.0, DecisionOptions::practical(0.2));
        let out = sched.run_batch(&[bad, ok]).unwrap();
        assert!(out.responses[0].result.is_err());
        assert!(out.responses[1].result.is_ok());
        assert_eq!(out.report.errors, 1);
    }

    #[test]
    fn bounded_in_flight_concurrency_is_result_neutral() {
        let insts: Vec<Arc<PackingInstance>> =
            (0..5).map(|i| diag_inst(&[&[1.0 + i as f64, 0.0], &[0.0, 2.0 + i as f64]])).collect();
        let requests: Vec<ServeRequest> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                ServeRequest::optimize(
                    format!("r{i}"),
                    Arc::clone(inst),
                    ApproxOptions::serving(0.15),
                )
            })
            .collect();
        let digest = |width: usize| -> Vec<String> {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let mut sched = Scheduler::new(SchedulerOptions::default());
            let out = pool.install(|| sched.run_batch(&requests).unwrap());
            out.responses.iter().map(response_fingerprint).collect()
        };
        assert_eq!(digest(1), digest(4));
        assert_eq!(digest(1), digest(2));
    }

    /// Idle workers claim groups, so the heavy group (first in canonical
    /// order) finishes last. Outcomes must still re-enter the cache in
    /// canonical order: with room for two fingerprints, the next batch
    /// finds exactly the last two canonical groups prepared, at every
    /// pool width (one claiming worker per pool thread).
    #[test]
    fn claimed_groups_reenter_the_cache_in_canonical_order() {
        let mut insts: Vec<(u64, Arc<PackingInstance>)> = (0..4)
            .map(|i| {
                let d = 1.0 + i as f64;
                let inst = diag_inst(&[&[d, 0.0, 0.5], &[0.0, 2.0 * d, 0.5], &[0.5, 0.5, d]]);
                let probe =
                    ServeRequest::optimize("p", Arc::clone(&inst), ApproxOptions::serving(0.1));
                (cache::prep_hash(&probe), inst)
            })
            .collect();
        insts.sort_by_key(|(h, _)| *h);
        let mut first = Vec::new();
        for (j, eps) in [0.05, 0.08, 0.12].iter().enumerate() {
            let opts = ApproxOptions::serving(*eps);
            first.push(ServeRequest::optimize(format!("heavy{j}"), Arc::clone(&insts[0].1), opts));
        }
        for (k, (_, inst)) in insts.iter().enumerate().skip(1) {
            let opts = DecisionOptions::practical(0.3);
            first.push(ServeRequest::decision(format!("light{k}"), Arc::clone(inst), 1.0, opts));
        }
        let second: Vec<ServeRequest> = insts
            .iter()
            .enumerate()
            .map(|(k, (_, inst))| {
                let opts = DecisionOptions::practical(0.25);
                ServeRequest::decision(format!("again{k}"), Arc::clone(inst), 1.0, opts)
            })
            .collect();
        for width in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let mut sched =
                Scheduler::new(SchedulerOptions { max_entries: 2, ..Default::default() });
            let reused: Vec<bool> = pool.install(|| {
                sched.run_batch(&first).unwrap();
                let out = sched.run_batch(&second).unwrap();
                out.responses.iter().map(|r| r.stats.prep_reused).collect()
            });
            assert_eq!(reused, [false, false, true, true], "pool width {width}");
        }
    }

    #[test]
    fn queue_wait_and_service_are_recorded() {
        let pack = diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let requests = vec![
            ServeRequest::optimize("a", Arc::clone(&pack), ApproxOptions::serving(0.2)),
            ServeRequest::optimize("b", Arc::clone(&pack), ApproxOptions::serving(0.1)),
        ];
        let mut sched = Scheduler::new(SchedulerOptions::default());
        let out = sched.run_batch(&requests).unwrap();
        // Same group ⇒ "b" waits behind "a" (id order): strictly positive
        // queue wait, and the report aggregates are consistent.
        assert!(out.responses[1].stats.queue_wait >= out.responses[0].stats.queue_wait);
        let sum: std::time::Duration = out.responses.iter().map(|r| r.stats.queue_wait).sum();
        assert_eq!(sum, out.report.total_queue_wait);
        assert!(out.report.max_queue_wait >= out.responses[1].stats.queue_wait);
        assert!(out.report.wall >= out.responses.iter().map(|r| r.stats.service).max().unwrap());
    }
}
