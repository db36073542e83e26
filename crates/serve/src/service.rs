//! The persistent streaming service: long-lived admission → sharded
//! workers → submission-order sequencer.
//!
//! ## Execution model
//!
//! The one-shot [`crate::Scheduler`] is barrier-y: it reads a whole
//! batch, partitions it, answers, and exits — sustained traffic is
//! bounded by the slowest group per batch and by the single cache lock.
//! The service replaces the barrier with a pipeline:
//!
//! 1. **Admission** (the caller's thread) pulls [`StreamItem`]s as they
//!    arrive — no batch boundary — stamps each with a submission sequence
//!    number, and dispatches it to the shard its preparation fingerprint
//!    routes to ([`crate::shard::shard_of`]).
//! 2. **Shard workers** (one OS thread per shard) drain their bounded
//!    queue in arrival order and execute requests against their shard of
//!    the [`crate::shard::ShardedCache`] through the one-shot scheduler's
//!    request executor (same three reuse tiers: result memo,
//!    prepared-engine reuse, certified bracket continuation; one session
//!    per request).
//! 3. The **sequencer** (one thread) re-orders completed responses by
//!    sequence number and hands them to the caller's sink strictly in
//!    submission order, regardless of how workers interleave.
//!
//! ## Backpressure
//!
//! Every queue is bounded. A request whose shard queue is full is
//! answered immediately with a typed [`StreamOutcome::Overloaded`] —
//! never buffered without bound. Total in-flight work (dispatched but not
//! yet emitted) is capped by an admission credit semaphore, so a slow
//! request cannot make the sequencer's reorder buffer grow with the
//! stream length: once the cap is reached, admission itself blocks and
//! stops consuming input (the OS pipe applies backpressure to the
//! producer).
//!
//! Two further shed paths layer on the fixed queue bound:
//!
//! * **Adaptive shed** ([`ServiceOptions::shed_target_p99`]): when set,
//!   the depth a shard queue may reach before admission sheds is scaled
//!   down from `queue_capacity` in proportion to how far the live p99
//!   service latency (maintained by the workers in a shared
//!   [`LatencyHistogram`]) exceeds the target — under load the queue
//!   admits only as much work as it can serve near the target latency.
//! * **Caller shed** ([`StreamItem::Shed`]): transports enforcing their
//!   own admission policy (e.g. the socket front end's per-client
//!   in-flight caps, DESIGN.md §15) hand the item back pre-shed; it
//!   flows through the sequencer so the typed overload line still lands
//!   in submission order.
//!
//! ## Determinism contract
//!
//! A fingerprint lives on exactly one shard and its shard's worker
//! processes the queue FIFO, so the cache-state sequence any fingerprint
//! moves through — and therefore every deterministic response field — is
//! a function of the submission-ordered request stream alone: not of the
//! shard count, the rayon pool width, or worker interleaving. Overload
//! responses are the one timing-dependent outcome (they depend on queue
//! occupancy); streams served within the queue bounds are bitwise
//! reproducible, which `tests/determinism.rs` pins across pools {1, 4} ×
//! shard counts {1, 4} and snapshot cold/warm starts.

use crate::cache::{params_key, prep_hash};
use crate::exec::execute;
use crate::request::ServeRequest;
use crate::scheduler::{ServeResponse, ServeResult, ServeStats};
use crate::shard::ShardedCache;
use crate::telemetry::{LatencyHistogram, TierCounters};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Fingerprint capacity per shard (deterministic per-shard LRU).
const MAX_ENTRIES_PER_SHARD: usize = 256;
/// Memoized results kept per fingerprint.
const MEMO_PER_ENTRY: usize = 64;

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceOptions {
    /// Cache shards (and shard worker threads). `0` is treated as 1.
    pub shards: usize,
    /// Bounded work-queue capacity per shard; a request arriving at a
    /// full queue is answered with [`StreamOutcome::Overloaded`].
    pub queue_capacity: usize,
    /// Master switch for the fingerprint cache (off = every request is
    /// cold, the uncached baseline).
    pub cache_enabled: bool,
    /// Adaptive shed target: when set, the admissible depth of each
    /// shard queue shrinks below `queue_capacity` in proportion to how
    /// far the live p99 service latency exceeds this target (clamped to
    /// at least 1 so streams always progress). `None` keeps the fixed
    /// queue bound only. Shed decisions are timing-dependent by design —
    /// overloads are the one outcome outside the determinism contract.
    pub shed_target_p99: Option<Duration>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            shards: 4,
            queue_capacity: 1024,
            cache_enabled: true,
            shed_target_p99: None,
        }
    }
}

/// One admitted stream item: either a request to execute, or a line the
/// caller already rejected (parse failure) that still needs its error
/// emitted in submission order. `C` is caller context carried through the
/// pipeline and handed back with the outcome (e.g. rendering state).
pub enum StreamItem<C> {
    /// Execute this request.
    Execute {
        /// The request.
        request: ServeRequest,
        /// Caller context returned with the outcome.
        ctx: C,
    },
    /// Pass this admission-stage error through the sequencer.
    Reject {
        /// The admission error (e.g. a parse failure).
        error: String,
        /// Caller context returned with the outcome.
        ctx: C,
    },
    /// The caller already decided to shed this request (e.g. a
    /// per-client in-flight cap at the socket front end); emit the typed
    /// overload outcome in submission order without executing anything.
    Shed {
        /// The request id the overload line answers.
        id: String,
        /// Caller context returned with the outcome.
        ctx: C,
    },
}

/// What the sequencer emits for one stream item, in submission order.
pub enum StreamOutcome {
    /// The request executed (the result inside may still be a
    /// per-request error). Boxed: a full response dwarfs the other
    /// variants and the sequencer buffers many outcomes at once.
    Response(Box<ServeResponse>),
    /// Admission rejected the item before execution.
    Rejected {
        /// The admission error.
        error: String,
    },
    /// The request was shed: typed backpressure, the request was **not**
    /// executed and its cache state is untouched. Raised by a full (or
    /// adaptively shrunk) shard queue, or pre-shed by the caller via
    /// [`StreamItem::Shed`].
    Overloaded {
        /// The request id.
        id: String,
        /// The shard whose queue shed the request; `None` when the
        /// caller shed it before routing (per-client cap).
        shard: Option<usize>,
    },
}

/// Aggregate report over one [`Service::run_stream`] call. Same tier and
/// latency schema as the one-shot [`crate::BatchReport`] (E13 vs E15 are
/// comparable row-for-row); all wall-clock fields are stderr-report-only.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Stream items admitted (executed + rejected + overloaded).
    pub requests: usize,
    /// Requests that reached a worker and executed.
    pub executed: usize,
    /// Items rejected at admission (parse failures).
    pub rejected: usize,
    /// Requests shed by backpressure (full shard queue).
    pub overloaded: usize,
    /// Executed requests that ended in an error response.
    pub errors: usize,
    /// Per-tier cache hit counters.
    pub tiers: TierCounters,
    /// Solver preparations performed (engine builds).
    pub prep_builds: usize,
    /// Total live engine evaluations.
    pub engine_evals: usize,
    /// Per-shard queue-depth high-water marks.
    pub queue_high_water: Vec<usize>,
    /// Service-time (execution only) latency histogram.
    pub service_hist: LatencyHistogram,
    /// Queue-wait (admission → execution start) latency histogram.
    pub queue_hist: LatencyHistogram,
    /// Wall-clock time of the whole stream.
    pub wall: Duration,
}

/// A job on a shard queue.
struct ShardJob<C> {
    seq: u64,
    admitted_at: Instant,
    request: ServeRequest,
    ctx: C,
}

/// What workers/admission hand the sequencer.
struct Sequenced<C> {
    seq: u64,
    ctx: C,
    outcome: StreamOutcome,
    prep_built: bool,
}

/// The long-lived streaming service. Owns the sharded cache, so reuse
/// state (and snapshot warm loads) persists across [`Service::run_stream`]
/// calls.
pub struct Service {
    opts: ServiceOptions,
    cache: ShardedCache,
}

impl Service {
    /// A service with the given options (cache starts cold; see
    /// [`Service::load_snapshot`] for warm starts).
    pub fn new(opts: ServiceOptions) -> Self {
        let shards = opts.shards.max(1);
        Service { opts, cache: ShardedCache::new(shards, MAX_ENTRIES_PER_SHARD) }
    }

    /// Number of fingerprints currently cached across all shards.
    pub fn cached_fingerprints(&self) -> usize {
        self.cache.len()
    }

    /// Number of cache shards (= shard worker threads).
    pub fn shard_count(&self) -> usize {
        self.cache.shard_count()
    }

    /// Serialize the cache's prepared fingerprints (and certified
    /// brackets) into the versioned snapshot format. See
    /// [`crate::snapshot`] for the format and soundness contract.
    pub fn snapshot_string(&self) -> String {
        crate::snapshot::write_snapshot(&self.cache)
    }

    /// Warm-load a snapshot produced by [`Service::snapshot_string`]:
    /// every entry is fully re-verified and its engines are rebuilt
    /// through the ordinary preparation path before insertion. Returns
    /// the number of entries loaded.
    ///
    /// # Errors
    /// [`crate::snapshot::SnapshotError`] on any malformed, corrupted, or
    /// unverifiable content; the cache is left exactly as it was (callers
    /// fall back to a cold start — never a panic).
    pub fn load_snapshot(&mut self, text: &str) -> Result<usize, crate::snapshot::SnapshotError> {
        let entries = crate::snapshot::load_snapshot(text)?;
        let n = entries.len();
        for entry in entries {
            self.cache.insert(entry);
        }
        Ok(n)
    }

    /// Run one request stream to completion: admit `items` as the
    /// iterator yields them, execute across the shard workers, and hand
    /// every outcome to `sink` strictly in submission order. The cache
    /// persists across calls.
    pub fn run_stream<C, I, F>(&mut self, items: I, sink: F) -> ServiceReport
    where
        C: Send,
        I: Iterator<Item = StreamItem<C>>,
        F: FnMut(C, StreamOutcome) + Send,
    {
        let started = Instant::now();
        let shards = self.cache.shard_count();
        let queue_cap = self.opts.queue_capacity.max(1);
        // Cap on items dispatched but not yet emitted by the sequencer
        // (bounds the reorder buffer).
        let outstanding = shards * queue_cap + 64;
        // Capture the caller's rayon budget so shard workers run solver
        // parallelism at the same width (worker threads do not inherit
        // the caller's pool; tests vary this via `run_with_threads`).
        let pool_width = rayon::current_num_threads();
        let cache_enabled = self.opts.cache_enabled;
        let shed_target = self.opts.shed_target_p99;
        let cache = &self.cache;

        let depths: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
        let high_water: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
        // Live service-latency histogram feeding the adaptive shed
        // policy: workers record as they finish, admission reads the p99.
        // Without a shed target nothing reads it, so workers skip the lock.
        let live_hist = Mutex::new(LatencyHistogram::default());
        let live_hist = &live_hist;
        let worker_hist = shed_target.is_some().then_some(live_hist);

        let mut report = std::thread::scope(|scope| {
            let (results_tx, results_rx) = mpsc::channel::<Sequenced<C>>();
            // Admission credits: one token per in-flight item. `send`
            // blocks when `outstanding` items are unemitted, which stalls
            // admission (bounded memory) without ever deadlocking: items
            // already dispatched complete without admission's help.
            let (credits_tx, credits_rx) = mpsc::sync_channel::<()>(outstanding);

            let mut shard_txs: Vec<mpsc::SyncSender<ShardJob<C>>> = Vec::with_capacity(shards);
            for depth in &depths {
                let (tx, rx) = mpsc::sync_channel::<ShardJob<C>>(queue_cap);
                shard_txs.push(tx);
                let results_tx = results_tx.clone();
                scope.spawn(move || {
                    worker_loop(
                        rx,
                        results_tx,
                        cache,
                        cache_enabled,
                        pool_width,
                        depth,
                        worker_hist,
                    );
                });
            }

            let sequencer = scope.spawn(move || sequencer_loop(results_rx, credits_rx, sink));

            // Admission: the caller's thread.
            for (seq, item) in (0_u64..).zip(items) {
                // Acquire an in-flight credit (blocks at the cap; the
                // receiver is only dropped after this loop ends, so a
                // send failure can only mean the sequencer died — stop
                // admitting).
                if credits_tx.send(()).is_err() {
                    break;
                }
                match item {
                    StreamItem::Reject { error, ctx } => {
                        let _ = results_tx.send(Sequenced {
                            seq,
                            ctx,
                            outcome: StreamOutcome::Rejected { error },
                            prep_built: false,
                        });
                    }
                    StreamItem::Shed { id, ctx } => {
                        let _ = results_tx.send(Sequenced {
                            seq,
                            ctx,
                            outcome: StreamOutcome::Overloaded { id, shard: None },
                            prep_built: false,
                        });
                    }
                    StreamItem::Execute { request, ctx } => {
                        // Routing is O(1): the content hash was computed at
                        // parse time, never by re-serializing the instance.
                        let shard = crate::shard::shard_of(prep_hash(&request), shards);
                        // Adaptive shed: under a latency target, the
                        // admissible depth shrinks with the live p99.
                        let allowed = shed_allowance(shed_target, live_hist, queue_cap);
                        if depths.get(shard).map(|a| a.load(Ordering::SeqCst)).unwrap_or(0)
                            >= allowed
                        {
                            let _ = results_tx.send(Sequenced {
                                seq,
                                ctx,
                                outcome: StreamOutcome::Overloaded {
                                    id: request.id.clone(),
                                    shard: Some(shard),
                                },
                                prep_built: false,
                            });
                            continue;
                        }
                        let job = ShardJob { seq, admitted_at: Instant::now(), request, ctx };
                        match shard_txs.get(shard) {
                            Some(tx) => {
                                // Count the item before handing it over: the
                                // worker decrements on receipt, and a
                                // decrement must never be able to run before
                                // its increment (unsigned counter).
                                let d = depths
                                    .get(shard)
                                    .map(|a| a.fetch_add(1, Ordering::SeqCst).saturating_add(1))
                                    .unwrap_or(0);
                                match tx.try_send(job) {
                                    Ok(()) => {
                                        if let Some(hw) = high_water.get(shard) {
                                            hw.fetch_max(d, Ordering::SeqCst);
                                        }
                                    }
                                    Err(mpsc::TrySendError::Full(job))
                                    | Err(mpsc::TrySendError::Disconnected(job)) => {
                                        if let Some(a) = depths.get(shard) {
                                            a.fetch_sub(1, Ordering::SeqCst);
                                        }
                                        let _ = results_tx.send(Sequenced {
                                            seq,
                                            ctx: job.ctx,
                                            outcome: StreamOutcome::Overloaded {
                                                id: job.request.id.clone(),
                                                shard: Some(shard),
                                            },
                                            prep_built: false,
                                        });
                                    }
                                }
                            }
                            None => {
                                let _ = results_tx.send(Sequenced {
                                    seq,
                                    ctx: job.ctx,
                                    outcome: StreamOutcome::Rejected {
                                        error: "shard routing out of range (internal)".to_string(),
                                    },
                                    prep_built: false,
                                });
                            }
                        }
                    }
                }
            }
            // Close the pipeline: workers drain and exit, then the
            // results channel closes and the sequencer flushes.
            drop(shard_txs);
            drop(results_tx);
            sequencer.join().unwrap_or_default()
        });

        report.queue_high_water = high_water.iter().map(|a| a.load(Ordering::SeqCst)).collect();
        report.wall = started.elapsed();
        report
    }
}

/// How deep a shard queue may grow before admission sheds: the full
/// configured capacity while the live p99 service latency is at or under
/// the target (or no target / no samples yet), shrinking proportionally
/// as the observed p99 exceeds it — clamped to at least 1 so the stream
/// always makes progress.
fn shed_allowance(
    target: Option<Duration>,
    live_hist: &Mutex<LatencyHistogram>,
    queue_cap: usize,
) -> usize {
    let Some(target) = target else {
        return usize::MAX;
    };
    match live_hist.lock().quantile(0.99) {
        Some(p99) if p99 > target && p99.as_nanos() > 0 => {
            let scaled = (queue_cap as u128).saturating_mul(target.as_nanos()) / p99.as_nanos();
            (scaled as usize).clamp(1, queue_cap)
        }
        _ => queue_cap,
    }
}

/// One shard worker: drain the queue in arrival order, execute each
/// request against the shared sharded cache, send sequenced outcomes.
/// Service latencies go into `live_hist` only when adaptive shed is on.
fn worker_loop<C: Send>(
    rx: mpsc::Receiver<ShardJob<C>>,
    results_tx: mpsc::Sender<Sequenced<C>>,
    cache: &ShardedCache,
    cache_enabled: bool,
    pool_width: usize,
    depth: &AtomicUsize,
    live_hist: Option<&Mutex<LatencyHistogram>>,
) {
    // Propagate the caller's rayon width into this worker thread. Pool
    // construction is infallible in the shim and cheap either way; on
    // failure run unpooled (concurrency never changes results).
    let pool = rayon::ThreadPoolBuilder::new().num_threads(pool_width.max(1)).build().ok();
    while let Ok(job) = rx.recv() {
        depth.fetch_sub(1, Ordering::SeqCst);
        let started = Instant::now();
        let queue_wait = started.duration_since(job.admitted_at);
        let exec = || execute_request(cache, cache_enabled, &job.request);
        // A panic inside one request (a solver-internal bug) must not
        // kill the worker and starve the whole shard: answer with a
        // typed internal error and keep serving.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &pool {
            Some(p) => p.install(exec),
            None => exec(),
        }));
        let (result, mut stats, prep_built) = match run {
            Ok(out) => out,
            Err(_) => (
                Err("request execution panicked (internal)".to_string()),
                ServeStats::default(),
                false,
            ),
        };
        stats.queue_wait = queue_wait;
        stats.service = started.elapsed();
        if let Some(hist) = live_hist {
            hist.lock().record(stats.service);
        }
        let response = ServeResponse { id: job.request.id.clone(), result, stats };
        let _ = results_tx.send(Sequenced {
            seq: job.seq,
            ctx: job.ctx,
            outcome: StreamOutcome::Response(Box::new(response)),
            prep_built,
        });
    }
}

/// The sequencer: buffer out-of-order completions, emit strictly by
/// sequence number, aggregate the report.
fn sequencer_loop<C, F>(
    results_rx: mpsc::Receiver<Sequenced<C>>,
    credits_rx: mpsc::Receiver<()>,
    mut sink: F,
) -> ServiceReport
where
    F: FnMut(C, StreamOutcome),
{
    let mut report = ServiceReport::default();
    let mut next: u64 = 0;
    let mut pending: BTreeMap<u64, Sequenced<C>> = BTreeMap::new();
    let mut emit = |s: Sequenced<C>, report: &mut ServiceReport| {
        report.requests += 1;
        if s.prep_built {
            report.prep_builds += 1;
        }
        match &s.outcome {
            StreamOutcome::Rejected { .. } => report.rejected += 1,
            StreamOutcome::Overloaded { .. } => report.overloaded += 1,
            StreamOutcome::Response(resp) => {
                report.executed += 1;
                if resp.result.is_err() {
                    report.errors += 1;
                }
                report.tiers.record(&resp.stats);
                report.engine_evals += resp.stats.engine_evals;
                report.service_hist.record(resp.stats.service);
                report.queue_hist.record(resp.stats.queue_wait);
            }
        }
        sink(s.ctx, s.outcome);
        // Free one admission credit per emitted item.
        let _ = credits_rx.try_recv();
    };
    while let Ok(s) = results_rx.recv() {
        pending.insert(s.seq, s);
        while let Some(s) = pending.remove(&next) {
            emit(s, &mut report);
            next += 1;
        }
    }
    // Channel closed: flush whatever remains in order. Gaps can only
    // appear if a worker died mid-request; emitting the survivors keeps
    // every delivered outcome in submission order.
    for (_, s) in std::mem::take(&mut pending) {
        emit(s, &mut report);
    }
    report
}

/// Execute one request against the sharded cache through the shared
/// executor: take its fingerprint's entry, execute, put the entry back.
/// Returns `(result, stats, prep_built)`.
fn execute_request(
    cache: &ShardedCache,
    cache_enabled: bool,
    req: &ServeRequest,
) -> (Result<ServeResult, String>, ServeStats, bool) {
    if !req.payload_matches_kind() {
        return (
            Err(format!("request kind `{}` does not match its instance payload", req.kind.name())),
            ServeStats::default(),
            false,
        );
    }
    let hash = prep_hash(req);
    let entry = if cache_enabled { cache.take(hash, req) } else { None };
    let run = execute(req, hash, &params_key(&req.kind), entry, MEMO_PER_ENTRY);
    if let Some(entry) = run.entry.filter(|_| cache_enabled) {
        cache.insert(entry);
    }
    (run.result, run.stats, run.prep_built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstancePayload, RequestKind};
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

    fn run_service(
        opts: ServiceOptions,
        requests: Vec<ServeRequest>,
    ) -> (Vec<(usize, StreamOutcome)>, ServiceReport, Service) {
        let mut service = Service::new(opts);
        let items = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| StreamItem::Execute { request, ctx: i });
        let mut got: Vec<(usize, StreamOutcome)> = Vec::new();
        let report = service.run_stream(items, |ctx, out| got.push((ctx, out)));
        (got, report, service)
    }

    #[test]
    fn heterogeneous_stream_serves_all_kinds_in_order() {
        let pack = diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let requests = vec![
            ServeRequest::decision("d1", Arc::clone(&pack), 0.5, DecisionOptions::practical(0.2)),
            ServeRequest::optimize("o1", Arc::clone(&pack), ApproxOptions::serving(0.1)),
            ServeRequest::mixed("m1", mixed_inst(), MixedApproxOptions::practical(0.1)),
        ];
        let (got, report, service) = run_service(ServiceOptions::default(), requests);
        assert_eq!(got.len(), 3);
        // Submission order regardless of which worker finished first.
        assert_eq!(got.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(report.requests, 3);
        assert_eq!(report.executed, 3);
        assert_eq!(report.errors, 0);
        assert_eq!(report.overloaded, 0);
        match &got[1].1 {
            StreamOutcome::Response(r) => match &r.result {
                Ok(ServeResult::Optimize(o)) => {
                    assert!(o.converged);
                    assert!(o.value_lower <= 0.75 + 1e-9 && o.value_upper >= 0.75 - 1e-9);
                }
                other => panic!("bad optimize response: {other:?}"),
            },
            _ => panic!("expected a response"),
        }
        // decision+optimize share one fingerprint, mixed has its own.
        assert_eq!(service.cached_fingerprints(), 2);
        assert_eq!(report.prep_builds, 2);
    }

    #[test]
    fn streaming_memoization_matches_one_shot_semantics() {
        let pack = diag_inst(&[&[1.0, 0.0, 0.5], &[0.0, 1.0, 0.5], &[0.5, 0.5, 0.0]]);
        let opts = ApproxOptions::serving(0.1);
        let requests = vec![
            ServeRequest::optimize("a", Arc::clone(&pack), opts),
            ServeRequest::optimize("b", Arc::clone(&pack), opts),
        ];
        let (got, report, _) = run_service(ServiceOptions::default(), requests);
        let stats = |i: usize| match &got[i].1 {
            StreamOutcome::Response(r) => r.stats.clone(),
            _ => panic!("expected response"),
        };
        assert!(!stats(0).memoized && stats(1).memoized);
        assert_eq!(stats(1).engine_evals, 0);
        assert_eq!(report.tiers.memo_hits, 1);
        assert_eq!(report.prep_builds, 1);
    }

    #[test]
    fn rejects_flow_through_in_submission_order() {
        let pack = diag_inst(&[&[1.0]]);
        let mut service = Service::new(ServiceOptions::default());
        let items = vec![
            StreamItem::Execute {
                request: ServeRequest::decision(
                    "ok",
                    Arc::clone(&pack),
                    1.0,
                    DecisionOptions::practical(0.2),
                ),
                ctx: 0usize,
            },
            StreamItem::Reject { error: "bad json".to_string(), ctx: 1usize },
            StreamItem::Execute {
                request: ServeRequest::decision(
                    "ok2",
                    Arc::clone(&pack),
                    1.0,
                    DecisionOptions::practical(0.2),
                ),
                ctx: 2usize,
            },
        ];
        let mut got = Vec::new();
        let report = service.run_stream(items.into_iter(), |ctx, out| got.push((ctx, out)));
        assert_eq!(got.len(), 3);
        assert!(matches!(got[0].1, StreamOutcome::Response(_)));
        assert!(matches!(&got[1].1, StreamOutcome::Rejected { error } if error == "bad json"));
        assert!(matches!(got[2].1, StreamOutcome::Response(_)));
        assert_eq!(report.rejected, 1);
        assert_eq!(report.executed, 2);
    }

    #[test]
    fn mismatched_payload_is_a_per_request_error() {
        let pack = diag_inst(&[&[1.0]]);
        let payload = InstancePayload::Packing(Arc::clone(&pack));
        let bad = ServeRequest {
            id: "bad".into(),
            content_hash: payload.content_hash(),
            payload,
            kind: RequestKind::Mixed { opts: MixedApproxOptions::practical(0.1) },
        };
        let (got, report, _) = run_service(ServiceOptions::default(), vec![bad]);
        match &got[0].1 {
            StreamOutcome::Response(r) => assert!(r.result.is_err()),
            _ => panic!("expected response"),
        }
        assert_eq!(report.errors, 1);
    }

    #[test]
    fn tiny_queue_backpressure_sheds_typed_overloads() {
        // One shard, capacity 1, and an outstanding bound (65) above the
        // stream length, so admission itself never blocks: flooding the
        // queue must produce typed overload outcomes, not hangs or panics,
        // and every request must still be answered in submission order.
        let pack = diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let n = 24usize;
        let requests: Vec<ServeRequest> = (0..n)
            .map(|i| {
                ServeRequest::optimize(
                    format!("r{i:03}"),
                    Arc::clone(&pack),
                    ApproxOptions::serving(0.1 + 0.001 * i as f64),
                )
            })
            .collect();
        let opts = ServiceOptions { shards: 1, queue_capacity: 1, ..ServiceOptions::default() };
        let (got, report, _) = run_service(opts, requests);
        assert_eq!(got.len(), n);
        assert_eq!(got.iter().map(|(i, _)| *i).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        assert_eq!(report.executed + report.overloaded, n);
        for (_, out) in &got {
            match out {
                StreamOutcome::Response(r) => assert!(r.result.is_ok()),
                StreamOutcome::Overloaded { id, shard } => {
                    assert!(id.starts_with('r'));
                    assert_eq!(*shard, Some(0));
                }
                StreamOutcome::Rejected { .. } => panic!("no rejects in this stream"),
            }
        }
        // Depth counts queued items plus at most one being handed to the
        // worker, so the high-water mark is bounded by capacity + 1.
        assert!(report.queue_high_water.iter().all(|&h| h <= 2), "{:?}", report.queue_high_water);
    }

    #[test]
    fn caller_shed_items_emit_typed_overloads_in_order() {
        let pack = diag_inst(&[&[1.0]]);
        let mut service = Service::new(ServiceOptions::default());
        let mk = |id: &str, ctx: usize| StreamItem::Execute {
            request: ServeRequest::decision(
                id.to_string(),
                Arc::clone(&pack),
                1.0,
                DecisionOptions::practical(0.2),
            ),
            ctx,
        };
        let items = vec![
            mk("a", 0),
            StreamItem::Shed { id: "capped".to_string(), ctx: 1usize },
            mk("b", 2),
        ];
        let mut got = Vec::new();
        let report = service.run_stream(items.into_iter(), |ctx, out| got.push((ctx, out)));
        assert_eq!(got.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 1, 2]);
        match &got[1].1 {
            StreamOutcome::Overloaded { id, shard } => {
                assert_eq!(id, "capped");
                assert_eq!(*shard, None, "caller sheds carry no shard");
            }
            _ => panic!("expected an overloaded outcome"),
        }
        assert_eq!(report.overloaded, 1);
        assert_eq!(report.executed, 2);
    }

    #[test]
    fn shed_allowance_scales_with_observed_p99() {
        let hist = Mutex::new(LatencyHistogram::default());
        // No target: unlimited (the fixed queue bound governs alone).
        assert_eq!(shed_allowance(None, &hist, 8), usize::MAX);
        // Target set, no samples yet: full capacity.
        let target = Some(Duration::from_micros(100));
        assert_eq!(shed_allowance(target, &hist, 8), 8);
        // Observed p99 at or under the target: full capacity.
        for _ in 0..100 {
            hist.lock().record(Duration::from_micros(50));
        }
        assert_eq!(shed_allowance(target, &hist, 8), 8);
        // Observed p99 far over the target: allowance shrinks, clamped
        // to at least 1.
        for _ in 0..1000 {
            hist.lock().record(Duration::from_millis(40));
        }
        let shrunk = shed_allowance(target, &hist, 8);
        assert!((1..8).contains(&shrunk), "allowance {shrunk} should shrink under overload");
        assert_eq!(shed_allowance(Some(Duration::from_nanos(1)), &hist, 8), 1);
    }

    #[test]
    fn adaptive_shed_keeps_streams_ordered_and_answered() {
        // An aggressively tiny p99 target must never hang, drop, or
        // reorder the stream — every request is answered exactly once in
        // submission order, each either executed or typed-overloaded.
        let pack = diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let n = 24usize;
        let requests: Vec<ServeRequest> = (0..n)
            .map(|i| {
                ServeRequest::optimize(
                    format!("r{i:03}"),
                    Arc::clone(&pack),
                    ApproxOptions::serving(0.1 + 0.001 * i as f64),
                )
            })
            .collect();
        let opts = ServiceOptions {
            shards: 1,
            queue_capacity: 8,
            shed_target_p99: Some(Duration::from_nanos(1)),
            ..ServiceOptions::default()
        };
        let (got, report, _) = run_service(opts, requests);
        assert_eq!(got.len(), n);
        assert_eq!(got.iter().map(|(i, _)| *i).collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        assert_eq!(report.executed + report.overloaded, n);
    }

    #[test]
    fn shard_count_does_not_change_deterministic_response_fields() {
        let insts: Vec<Arc<PackingInstance>> =
            (0..6).map(|i| diag_inst(&[&[1.0 + i as f64, 0.0], &[0.0, 2.0 + i as f64]])).collect();
        let mk = || -> Vec<ServeRequest> {
            (0..24)
                .map(|t| {
                    let inst = &insts[t % insts.len()];
                    ServeRequest::optimize(
                        format!("r{t:03}"),
                        Arc::clone(inst),
                        ApproxOptions::serving(0.1),
                    )
                })
                .collect()
        };
        let digest = |shards: usize| -> Vec<String> {
            let opts = ServiceOptions { shards, ..ServiceOptions::default() };
            let (got, _, _) = run_service(opts, mk());
            got.iter()
                .map(|(i, out)| match out {
                    StreamOutcome::Response(r) => match &r.result {
                        Ok(ServeResult::Optimize(o)) => format!(
                            "{i}:{}:{:x}:{:x}:memo={}:prep={}",
                            r.id,
                            o.value_lower.to_bits(),
                            o.value_upper.to_bits(),
                            r.stats.memoized,
                            r.stats.prep_reused
                        ),
                        other => format!("{i}:{other:?}"),
                    },
                    _ => format!("{i}:non-response"),
                })
                .collect()
        };
        assert_eq!(digest(1), digest(4), "shard count must not change response values");
    }

    #[test]
    fn cache_disabled_is_cold_every_time() {
        let pack = diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let opts = ApproxOptions::serving(0.15);
        let requests: Vec<ServeRequest> = (0..3)
            .map(|i| ServeRequest::optimize(format!("r{i}"), Arc::clone(&pack), opts))
            .collect();
        let (_, report, service) = run_service(
            ServiceOptions { cache_enabled: false, ..ServiceOptions::default() },
            requests,
        );
        assert_eq!(report.prep_builds, 3);
        assert_eq!(report.tiers.memo_hits, 0);
        assert_eq!(service.cached_fingerprints(), 0);
    }

    #[test]
    fn cache_persists_across_streams() {
        let pack = diag_inst(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let mut service = Service::new(ServiceOptions::default());
        let mk = |id: &str| StreamItem::Execute {
            request: ServeRequest::optimize(
                id.to_string(),
                Arc::clone(&pack),
                ApproxOptions::serving(0.2),
            ),
            ctx: (),
        };
        let r1 = service.run_stream(vec![mk("a")].into_iter(), |_, _| {});
        assert_eq!(r1.prep_builds, 1);
        let mut memoized = false;
        let r2 = service.run_stream(vec![mk("b")].into_iter(), |_, out| {
            if let StreamOutcome::Response(r) = out {
                memoized = r.stats.memoized;
            }
        });
        assert_eq!(r2.prep_builds, 0);
        assert!(memoized, "identical request across streams must memo-hit");
    }
}
