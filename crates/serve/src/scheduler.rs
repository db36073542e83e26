//! The batch scheduler: heterogeneous requests in, deterministic
//! responses out, preparation amortized through the fingerprint cache.
//!
//! ## Execution model
//!
//! A batch is partitioned into **groups** by preparation fingerprint
//! ([`crate::cache::prep_hash`], verified by structural instance equality
//! so a 64-bit collision can only split a group, never merge two):
//! requests over the same instance with the same engine kind and seed
//! share one cache entry. One session per request: a group is an
//! id-ordered run of per-request executions over one cache entry.
//! Each request goes through the same executor as the streaming
//! [`crate::Service`], which takes the entry from the group's previous
//! request and hands it on to the next.
//! Groups are queued in canonical (prep-hash) order and **claimed**: one
//! worker per thread of the current rayon pool takes the next unclaimed
//! group whenever it goes idle, so one heavy group occupies one worker
//! while the others drain the rest.
//! Outcomes are put back in canonical order before cached entries are
//! re-inserted. Because requests run **in request-id order** within a
//! group, which request pays the cold costs — and every response
//! byte — is a function of the batch's *contents*, never of submission
//! order, pool width, or which worker ran a group. Responses are returned
//! in submission order (each carries its id).
//!
//! ## Reuse tiers
//!
//! 1. **Result memoization** — a request byte-identical to one already
//!    served on this fingerprint returns the stored result, without
//!    assembling a solver. The whole pipeline is deterministic, so this is
//!    exact, not approximate. The response carries the stored entry's
//!    render slot in [`ServeStats::memo`], so a front end renders the
//!    result once and replays the bytes for later hits (`psdp serve`
//!    does, in every mode); the slot goes when the cache evicts its entry.
//! 2. **Prepared-state reuse** — constraint factorizations, `Auto` engine
//!    resolution, and per-constraint scalars are built once per
//!    fingerprint and shared via [`psdp_core::SolverBuilder::build_with_engine`].
//!    Preparation never affects results, only wall clock.
//! 3. **Bracket continuation** — a repeated-but-perturbed `optimize`
//!    request starts from the prior certified bracket via
//!    [`psdp_core::ApproxOptions::initial_bracket`].
//!
//! See `DESIGN.md` §10 for the soundness argument (what the fingerprint
//! must cover so a cache hit can never change a verdict).

use crate::cache::{params_key, prep_engine_of, prep_hash, CacheEntry};
use crate::exec::execute;
use crate::request::ServeRequest;
use parking_lot::Mutex;
use psdp_core::{DecisionResult, MixedReport, PackingReport};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerOptions {
    /// Master switch for the fingerprint cache. Off = every request is its
    /// own cold group (the baseline experiment E13 compares against).
    pub cache_enabled: bool,
    /// Cache capacity in fingerprints (deterministic LRU eviction).
    pub max_entries: usize,
    /// Memoized results kept per fingerprint.
    pub memo_per_entry: usize,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions { cache_enabled: true, max_entries: 256, memo_per_entry: 64 }
    }
}

/// Batch-level failures (per-request failures are reported per response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Two requests in one batch share an id; responses are keyed by id,
    /// so this is rejected up front.
    DuplicateId(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DuplicateId(id) => write!(f, "duplicate request id `{id}` in batch"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successful request result.
#[derive(Debug, Clone)]
pub enum ServeResult {
    /// Result of a [`crate::RequestKind::Decision`] request.
    Decision(DecisionResult),
    /// Result of a [`crate::RequestKind::Optimize`] request.
    Optimize(PackingReport),
    /// Result of a [`crate::RequestKind::Mixed`] request.
    Mixed(MixedReport),
}

/// Per-request serving telemetry. Only the wall-clock fields
/// ([`ServeStats::queue_wait`], [`ServeStats::service`]) and the
/// [`ServeStats::memo`] slot are not compared; everything else is
/// a pure function of the batch contents (and prior batches on this
/// scheduler), which is what lets the determinism suite compare response
/// streams bitwise.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Time from batch start until this request began executing (queue
    /// wait behind its group predecessors and pool scheduling).
    pub queue_wait: Duration,
    /// Execution time of this request alone.
    pub service: Duration,
    /// The request did not pay for solver preparation (engine build) —
    /// prepared state came from the cache or from an earlier request in
    /// its group.
    pub prep_reused: bool,
    /// The response was replayed from the memo store (no solve ran).
    pub memoized: bool,
    /// The request's `optimize` started from a prior certified bracket.
    pub bracket_injected: bool,
    /// Live engine evaluations this request caused.
    pub engine_evals: usize,
    /// The render slot of the stored memo entry this response's result
    /// equals: set on memo hits and on the request whose result was
    /// stored, `None` when the result was not stored (memo full, error).
    /// A front end fills it once with the result's rendered fields and
    /// replays them; see [`crate::cache::MemoEntry`].
    pub memo: Option<Arc<OnceLock<String>>>,
}

impl ServeStats {
    /// The deepest cache tier that served this request, for telemetry:
    /// `"memo"` (tier 1), `"bracket"` (tier 3 continuation), `"prepared"`
    /// (tier 2 only), or `None` for a fully cold request.
    pub fn hit_tier(&self) -> Option<&'static str> {
        if self.memoized {
            Some("memo")
        } else if self.bracket_injected {
            Some("bracket")
        } else if self.prep_reused {
            Some("prepared")
        } else {
            None
        }
    }
}

/// One response: the request's id, its result (or a printable error), and
/// serving telemetry.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The request id this response answers.
    pub id: String,
    /// The result, or a printable per-request error.
    pub result: Result<ServeResult, String>,
    /// Serving telemetry.
    pub stats: ServeStats,
}

/// Aggregate report over one [`Scheduler::run_batch`] call.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Requests in the batch.
    pub requests: usize,
    /// Distinct fingerprint groups executed.
    pub groups: usize,
    /// Requests that ended in an error response.
    pub errors: usize,
    /// Solver preparations performed (engine builds).
    pub prep_builds: usize,
    /// Per-tier cache hit counters (same schema as the streaming
    /// [`crate::service::ServiceReport`], so E13 and E15 compare
    /// row-for-row).
    pub tiers: crate::telemetry::TierCounters,
    /// Total live engine evaluations across the batch.
    pub engine_evals: usize,
    /// Sum of per-request queue waits.
    pub total_queue_wait: Duration,
    /// Largest single queue wait.
    pub max_queue_wait: Duration,
    /// Sum of per-request service times.
    pub total_service: Duration,
    /// Service-time (execution only) latency histogram.
    pub service_hist: crate::telemetry::LatencyHistogram,
    /// Queue-wait (batch start → execution start) latency histogram.
    pub queue_hist: crate::telemetry::LatencyHistogram,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
}

/// Responses (submission order) plus the aggregate report.
pub struct BatchOutput {
    /// One response per request, in submission order.
    pub responses: Vec<ServeResponse>,
    /// Aggregate batch telemetry.
    pub report: BatchReport,
}

/// The serving scheduler: owns the fingerprint cache and executes request
/// batches. Create once and feed it batches; cached preparation (and
/// memoized results) carry across batches.
pub struct Scheduler {
    opts: SchedulerOptions,
    cache: crate::cache::SolverCache,
}

/// One fingerprint group's members: `(submission index, request, params
/// key)`.
type GroupItems<'r> = Vec<(usize, &'r ServeRequest, String)>;

/// Work unit handed to a group worker.
struct GroupWork<'r> {
    /// The group's prep hash (cold mode uses a synthetic per-request
    /// value; it is never inserted, so it only needs to be unique).
    hash: u64,
    entry: Option<CacheEntry>,
    /// Members sorted by request id.
    items: GroupItems<'r>,
}

/// Full-fingerprint equality between two requests: same engine kind and
/// seed, and structurally identical instances. This — not the 64-bit hash
/// — is what defines a group.
fn fingerprint_eq(a: &ServeRequest, b: &ServeRequest) -> bool {
    prep_engine_of(&a.kind) == prep_engine_of(&b.kind) && a.payload.structural_eq(&b.payload)
}

/// What a group worker hands back.
struct GroupOutcome {
    responses: Vec<(usize, ServeResponse)>,
    entry: Option<CacheEntry>,
    prep_builds: usize,
}

impl Scheduler {
    /// A scheduler with the given options.
    pub fn new(opts: SchedulerOptions) -> Self {
        Scheduler { opts, cache: crate::cache::SolverCache::new(opts.max_entries) }
    }

    /// Number of fingerprints currently cached.
    pub fn cached_fingerprints(&self) -> usize {
        self.cache.len()
    }

    /// Execute one batch. Responses come back in submission order; see the
    /// module docs for the determinism and reuse contracts.
    ///
    /// # Errors
    /// [`ServeError::DuplicateId`] when two requests share an id.
    /// Per-request failures (bad options, mismatched payload, solver
    /// errors) are reported inside the affected [`ServeResponse`], not as
    /// batch errors.
    pub fn run_batch(&mut self, requests: &[ServeRequest]) -> Result<BatchOutput, ServeError> {
        let batch_start = Instant::now();
        {
            let mut seen = std::collections::BTreeSet::new();
            for r in requests {
                if !seen.insert(r.id.as_str()) {
                    return Err(ServeError::DuplicateId(r.id.clone()));
                }
            }
        }

        // Partition into fingerprint groups: bucket by prep hash (BTreeMap
        // ⇒ canonical bucket order, independent of submission order), then
        // split each bucket by *actual* fingerprint equality so a 64-bit
        // collision can only split a group, never merge two distinct
        // fingerprints onto one prepared solver.
        let mut mismatched: Vec<usize> = Vec::new();
        let mut buckets: BTreeMap<u64, Vec<GroupItems<'_>>> = BTreeMap::new();
        for (idx, req) in requests.iter().enumerate() {
            if !req.payload_matches_kind() {
                mismatched.push(idx);
                continue;
            }
            let hash = if self.opts.cache_enabled {
                prep_hash(req)
            } else {
                // Cold mode: every request is its own group and nothing is
                // kept, giving the uncached per-request baseline. The
                // synthetic hash is never inserted, only unique.
                idx as u64
            };
            let subs = buckets.entry(hash).or_default();
            let item = (idx, req, params_key(&req.kind));
            match subs
                .iter_mut()
                .find(|s| s.first().is_some_and(|(_, rep, _)| fingerprint_eq(rep, req)))
            {
                Some(s) => s.push(item),
                None => subs.push(vec![item]),
            }
        }
        let mut work: Vec<GroupWork<'_>> = Vec::new();
        for (hash, mut subs) in buckets {
            for s in subs.iter_mut() {
                s.sort_by(|a, b| a.1.id.cmp(&b.1.id));
            }
            // Collision sub-groups (vanishingly rare) ordered by their
            // smallest request id, keeping group order a function of batch
            // contents alone.
            subs.sort_by(|a, b| {
                a.first().map(|x| x.1.id.as_str()).cmp(&b.first().map(|x| x.1.id.as_str()))
            });
            for items in subs {
                let entry = if self.opts.cache_enabled {
                    items.first().and_then(|(_, rep, _)| self.cache.take(hash, rep))
                } else {
                    None
                };
                work.push(GroupWork { hash, entry, items });
            }
        }

        // One worker per pool thread claims groups; concurrency never
        // changes results, only wall clock.
        let budget = rayon::current_num_threads();
        let memo_cap = self.opts.memo_per_entry;
        let keep_entries = self.opts.cache_enabled;
        let group_count = work.len();
        let outcomes =
            run_claimed(work, budget, |w| process_group(w, memo_cap, keep_entries, batch_start));

        // Re-insert surviving entries in canonical group order.
        let prep_builds = outcomes.iter().map(|o| o.prep_builds).sum();
        let mut responses: Vec<Option<ServeResponse>> = requests.iter().map(|_| None).collect();
        for outcome in outcomes {
            if let Some(entry) = outcome.entry {
                self.cache.insert(entry);
            }
            for (idx, resp) in outcome.responses {
                if let Some(slot) = responses.get_mut(idx) {
                    *slot = Some(resp);
                }
            }
        }
        for &idx in &mismatched {
            let (Some(slot), Some(req)) = (responses.get_mut(idx), requests.get(idx)) else {
                continue;
            };
            *slot = Some(ServeResponse {
                id: req.id.clone(),
                result: Err(format!(
                    "request kind `{}` does not match its instance payload",
                    req.kind.name()
                )),
                stats: ServeStats::default(),
            });
        }
        // Every request gets an answer even if a group worker dropped one
        // on the floor (a bug, but one that must surface as an error
        // response, not a panic mid-batch).
        let responses: Vec<ServeResponse> = responses
            .into_iter()
            .zip(requests)
            .map(|(slot, req)| {
                slot.unwrap_or_else(|| ServeResponse {
                    id: req.id.clone(),
                    result: Err("request was not answered by any group (internal)".to_string()),
                    stats: ServeStats::default(),
                })
            })
            .collect();

        let mut report = BatchReport {
            requests: requests.len(),
            groups: group_count,
            prep_builds,
            wall: batch_start.elapsed(),
            ..BatchReport::default()
        };
        for resp in &responses {
            if resp.result.is_err() {
                report.errors += 1;
            }
            let s = &resp.stats;
            report.tiers.record(s);
            report.engine_evals += s.engine_evals;
            report.total_queue_wait += s.queue_wait;
            report.max_queue_wait = report.max_queue_wait.max(s.queue_wait);
            report.total_service += s.service;
            report.service_hist.record(s.service);
            report.queue_hist.record(s.queue_wait);
        }
        Ok(BatchOutput { responses, report })
    }
}

/// Run every group on at most `budget` workers. Each worker claims the
/// next unclaimed group from one shared queue (canonical order), so a heavy
/// group ties up one worker while the others drain the rest, instead of
/// each worker owning a fixed contiguous share. Outcomes come back in queue
/// order whichever worker ran them, so everything downstream (cache
/// re-insert, response assembly) is independent of the interleaving.
///
/// Inside a worker, nested parallel calls run sequentially (a budget-1
/// install, as a pool worker would), keeping the thread count at `budget`.
/// With a single worker, everything runs on the calling thread under the
/// full `budget`, so a lone group's solver still gets the pool.
fn run_claimed<'r>(
    work: Vec<GroupWork<'r>>,
    budget: usize,
    run: impl Fn(GroupWork<'r>) -> GroupOutcome + Sync,
) -> Vec<GroupOutcome> {
    let workers = budget.min(work.len());
    if workers <= 1 {
        return with_budget(budget, || work.into_iter().map(run).collect());
    }
    let slots = work.len();
    let queue = Mutex::new(work.into_iter().enumerate());
    let done: Mutex<Vec<(usize, GroupOutcome)>> = Mutex::new(Vec::with_capacity(slots));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    with_budget(1, || loop {
                        let claimed = queue.lock().next();
                        let Some((slot, w)) = claimed else { break };
                        let outcome = run(w);
                        done.lock().push((slot, outcome));
                    })
                })
            })
            .collect();
        // A worker that panicked loses only the group it was running: the
        // batch assembler answers that group's requests with internal
        // errors.
        for h in handles {
            let _ = h.join();
        }
    });
    let mut done = done.into_inner();
    done.sort_by_key(|(slot, _)| *slot);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Run `f` under a `threads`-wide parallelism budget. Concurrency never
/// changes results, so if pool construction fails (resource exhaustion),
/// run unbudgeted instead of panicking mid-batch.
fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(pool) => pool.install(f),
        Err(_) => f(),
    }
}

/// Execute one fingerprint group: its requests in id order, each in its
/// own session, handing the group's cache entry from one to the next.
fn process_group(
    w: GroupWork<'_>,
    memo_cap: usize,
    keep_entry: bool,
    batch_start: Instant,
) -> GroupOutcome {
    let GroupWork { hash, mut entry, items } = w;
    let mut responses = Vec::with_capacity(items.len());
    let mut prep_builds = 0;
    for (idx, req, params) in items {
        let started = Instant::now();
        let run = execute(req, hash, &params, entry.take(), memo_cap);
        entry = run.entry;
        prep_builds += usize::from(run.prep_built);
        let stats = ServeStats {
            queue_wait: started.duration_since(batch_start),
            service: started.elapsed(),
            ..run.stats
        };
        responses.push((idx, ServeResponse { id: req.id.clone(), result: run.result, stats }));
    }
    GroupOutcome { responses, entry: entry.filter(|_| keep_entry), prep_builds }
}
