//! The fingerprint-keyed solver cache.
//!
//! A fingerprint identifies everything fixed at *preparation* time: the
//! request family (packing vs mixed), the exact instance (by its
//! structural content hash — [`psdp_core::packing_content_hash`] — which
//! text and binary submissions of the same instance share), the requested
//! engine kind, and the sketch seed. Per-solve options (eps, constants
//! mode, update rule, bisection accuracy, …) deliberately are **not** part
//! of it: the session API re-validates them per call and keeps no state
//! between solves, so requests that differ only in solve options can
//! safely share one prepared solver. `DESIGN.md` §10 and §14 walk through
//! why this key is sound — i.e. why a cache hit can never change a
//! verdict.
//!
//! The content hash is computed **once** — at parse time for text
//! requests, straight off the `psdp-bin-1` header for binary ones — and
//! carried in [`ServeRequest::content_hash`]; admission never
//! re-serializes an instance. Lookups go by the 64-bit prep hash but
//! **verify the full fingerprint on every hit** (engine kind, seed, and
//! bitwise structural instance equality with an `Arc` pointer fast path):
//! a hash collision between two distinct instances must fall back to a
//! miss, never reuse the wrong prepared state.

use crate::request::{InstancePayload, RequestKind, ServeRequest};
use psdp_core::{
    DecisionOptions, Fnv1a, MixedInstance, MixedOptions, MixedSolver, PackingInstance, PsdpError,
    Solver,
};
use psdp_expdot::{Engine, EngineKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use psdp_core::fnv1a;

/// Prepared, immutable solver state for one fingerprint.
#[derive(Clone)]
pub enum Prepared {
    /// Packing family: the shared instance and its prepared engine.
    Packing {
        /// The instance the engine was prepared for.
        inst: Arc<PackingInstance>,
        /// The prepared engine (factorizations, resolved `Auto`).
        engine: Arc<Engine>,
    },
    /// Mixed family: the shared instance and both prepared engines.
    Mixed {
        /// The instance the engines were prepared for.
        inst: Arc<MixedInstance>,
        /// Packing-side engine.
        pack_engine: Arc<Engine>,
        /// Covering-side engine (always exact).
        cover_engine: Arc<Engine>,
    },
}

/// A solver assembled over [`Prepared`] state, borrowing its instance.
pub(crate) enum LiveSolver<'p> {
    /// Packing family.
    Packing(Solver<'p>),
    /// Mixed family.
    Mixed(MixedSolver<'p>),
}

impl Prepared {
    /// Prepare `payload` cold for `(engine_kind, seed)`: validate the
    /// options, resolve `Auto`, and build the engines (factorizations
    /// included). Request execution and snapshot loading both prepare
    /// through this.
    pub(crate) fn build(
        payload: &InstancePayload,
        engine_kind: EngineKind,
        seed: u64,
    ) -> Result<Prepared, PsdpError> {
        Ok(match payload {
            InstancePayload::Packing(inst) => {
                let opts = DecisionOptions::practical(0.1).with_engine(engine_kind).with_seed(seed);
                let engine = Solver::builder(inst).options(opts).build()?.engine_handle();
                Prepared::Packing { inst: Arc::clone(inst), engine }
            }
            InstancePayload::Mixed(inst) => {
                let opts = MixedOptions::practical(0.1).with_engine(engine_kind).with_seed(seed);
                let (pack_engine, cover_engine) =
                    MixedSolver::builder(inst).options(opts).build()?.engine_handles();
                Prepared::Mixed { inst: Arc::clone(inst), pack_engine, cover_engine }
            }
        })
    }

    /// A live solver over this prepared state, reusing its engines (see
    /// [`psdp_core::SolverBuilder::build_with_engine`]). The only place
    /// serving code builds a solver from prepared state.
    pub(crate) fn attach(
        &self,
        engine_kind: EngineKind,
        seed: u64,
    ) -> Result<LiveSolver<'_>, PsdpError> {
        Ok(match self {
            Prepared::Packing { inst, engine } => {
                let opts = DecisionOptions::practical(0.1).with_engine(engine_kind).with_seed(seed);
                let builder = Solver::builder(inst).options(opts);
                LiveSolver::Packing(builder.build_with_engine(Arc::clone(engine))?)
            }
            Prepared::Mixed { inst, pack_engine, cover_engine } => {
                let opts = MixedOptions::practical(0.1).with_engine(engine_kind).with_seed(seed);
                let builder = MixedSolver::builder(inst).options(opts);
                LiveSolver::Mixed(
                    builder
                        .build_with_engines(Arc::clone(pack_engine), Arc::clone(cover_engine))?,
                )
            }
        })
    }

    /// The prepared instance as a request payload (for fingerprint
    /// verification against an incoming request).
    pub(crate) fn payload(&self) -> InstancePayload {
        match self {
            Prepared::Packing { inst, .. } => InstancePayload::Packing(Arc::clone(inst)),
            Prepared::Mixed { inst, .. } => InstancePayload::Mixed(Arc::clone(inst)),
        }
    }
}

/// A memoized result, stored verbatim. The whole pipeline is
/// deterministic, so replaying the stored result for a byte-identical
/// request is byte-identical to recomputing it.
#[derive(Clone)]
pub struct MemoEntry {
    /// Canonical request-parameters key (see [`params_key`]).
    pub params: String,
    /// The stored result.
    pub result: crate::scheduler::ServeResult,
    /// This entry's identity, carried by every response that returns it.
    pub key: MemoKey,
}

/// The memo entry stored under `params`, if any.
pub(crate) fn memo_lookup<'m>(memo: &'m [MemoEntry], params: &str) -> Option<&'m MemoEntry> {
    memo.iter().find(|m| m.params == params)
}

/// Store a copy of `result` under `params` with a fresh [`MemoKey`] unless
/// `memo` already holds `cap` entries. Returns the key it was stored under.
pub(crate) fn memo_store(
    memo: &mut Vec<MemoEntry>,
    cap: usize,
    params: &str,
    result: &crate::scheduler::ServeResult,
) -> Option<MemoKey> {
    if memo.len() >= cap {
        return None;
    }
    let key = MemoKey::fresh();
    memo.push(MemoEntry { params: params.to_string(), result: result.clone(), key });
    Some(key)
}

/// The identity of one stored memo result, unique within the process.
///
/// A response carries the key of the entry its result equals (the request
/// that stored it, and every memo hit on it). Entries are never modified,
/// and a hit's instance is bitwise equal to the one the entry was computed
/// for, so anything derived from (instance, result) — rendered bytes,
/// verified certificates — can be computed once per key and replayed.
/// Keys are identities, not values: they are never rendered and their
/// numbering depends on thread interleaving. Request parameters are not a
/// substitute, because a request whose memo was full is recomputed and may
/// continue from a different bracket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemoKey(u64);

impl MemoKey {
    fn fresh() -> MemoKey {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        MemoKey(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// One cache slot: the prep-hash fingerprint, the prepared state it was
/// verified for, memoized results, and the last certified optimize bracket
/// (for warm-starting perturbed resubmissions).
pub struct CacheEntry {
    /// The prep hash ([`prep_hash`]) — lookup and shard-routing key.
    pub(crate) hash: u64,
    /// Engine kind the prepared state was built with (hit-verification and
    /// snapshot rebuild input).
    pub(crate) engine_kind: EngineKind,
    /// Sketch seed the prepared state was built with.
    pub(crate) seed: u64,
    pub(crate) prepared: Prepared,
    pub(crate) memo: Vec<MemoEntry>,
    /// `(params_key, lo, hi)` of the most recent certified packing
    /// bisection on this fingerprint.
    pub(crate) bracket: Option<(String, f64, f64)>,
    pub(crate) last_used: u64,
}

impl CacheEntry {
    /// Full-fingerprint verification for a hit on `req`: engine kind and
    /// seed must match, and the prepared instance must be bitwise
    /// structurally equal to the request's (pointer fast path first). This
    /// is exactly as strong as the old canonical-text comparison, without
    /// serializing anything.
    pub(crate) fn matches(&self, req: &ServeRequest) -> bool {
        let (engine, seed) = prep_engine_of(&req.kind);
        self.engine_kind == engine
            && self.seed == seed
            && self.prepared.payload().structural_eq(&req.payload)
    }
}

/// The engine kind and seed a request's prepared solver is keyed on.
pub fn prep_engine_of(kind: &RequestKind) -> (EngineKind, u64) {
    match kind {
        RequestKind::Decision { opts, .. } => (opts.engine, opts.seed),
        RequestKind::Optimize { opts } => (opts.decision.engine, opts.decision.seed),
        RequestKind::Mixed { opts } => (opts.decision.engine, opts.decision.seed),
    }
}

/// The 64-bit preparation fingerprint from its parts: family, engine kind
/// (via its stable-within-one-build `Debug` rendering), sketch seed, and
/// the instance's structural content hash.
pub fn prep_hash_parts(family: u8, engine: EngineKind, seed: u64, content_hash: u64) -> u64 {
    let mut f = Fnv1a::new();
    f.update(&[family]);
    f.update(format!("{engine:?}").as_bytes());
    f.update(&seed.to_le_bytes());
    f.update(&content_hash.to_le_bytes());
    f.finish()
}

/// The preparation fingerprint of a request. Everything the prepared
/// state depends on is in here; nothing else is — and computing it never
/// touches the instance data (the content hash was computed at parse
/// time).
pub fn prep_hash(req: &ServeRequest) -> u64 {
    let (engine, seed) = prep_engine_of(&req.kind);
    prep_hash_parts(req.payload.family() as u8, engine, seed, req.content_hash)
}

/// The canonical request-parameters key: the request kind with every
/// option field, via its (stable within one build) `Debug` rendering.
/// Memoization compares these exactly, so any new option field is
/// automatically part of the key.
pub fn params_key(kind: &RequestKind) -> String {
    format!("{kind:?}")
}

/// The fingerprint-keyed store. Entries are found by prep hash and
/// verified by full fingerprint; eviction is deterministic
/// (least-recently-used by a logical clock, ties impossible since the
/// clock is strictly increasing).
pub struct SolverCache {
    entries: Vec<CacheEntry>,
    max_entries: usize,
    clock: u64,
}

impl SolverCache {
    /// An empty cache holding at most `max_entries` fingerprints
    /// (`0` is treated as 1).
    pub fn new(max_entries: usize) -> Self {
        SolverCache { entries: Vec::new(), max_entries: max_entries.max(1), clock: 0 }
    }

    /// Number of cached fingerprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove and return the entry whose prep hash is `hash` **and** whose
    /// full fingerprint verifies against `req` (see
    /// [`CacheEntry::matches`]). The scheduler takes entries out, hands
    /// them to the (parallel) group workers, and re-inserts them
    /// afterwards — no locking needed.
    pub(crate) fn take(&mut self, hash: u64, req: &ServeRequest) -> Option<CacheEntry> {
        let idx = self.entries.iter().position(|e| e.hash == hash && e.matches(req))?;
        Some(self.entries.swap_remove(idx))
    }

    /// Read-only view of all cached entries, in insertion order (snapshot
    /// writing iterates this without taking anything out).
    pub(crate) fn entries(&self) -> &[CacheEntry] {
        &self.entries
    }

    /// Insert (or re-insert) an entry, stamping its use clock and evicting
    /// the least-recently-used entry if over capacity.
    pub(crate) fn insert(&mut self, mut entry: CacheEntry) {
        self.clock += 1;
        entry.last_used = self.clock;
        self.entries.push(entry);
        self.evict_over_capacity();
    }

    fn evict_over_capacity(&mut self) {
        while self.entries.len() > self.max_entries {
            // `len > max_entries >= 1` keeps the scan non-empty; if that
            // ever changes, stop evicting rather than panic.
            let Some(oldest) =
                self.entries.iter().enumerate().min_by_key(|(_, e)| e.last_used).map(|(i, _)| i)
            else {
                break;
            };
            self.entries.swap_remove(oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_core::DecisionOptions;
    use psdp_sparse::PsdMatrix;

    fn inst(d: &[f64]) -> Arc<PackingInstance> {
        Arc::new(PackingInstance::new(vec![PsdMatrix::Diagonal(d.to_vec())]).unwrap())
    }

    fn entry_for(req: &ServeRequest) -> CacheEntry {
        let (engine_kind, seed) = prep_engine_of(&req.kind);
        let InstancePayload::Packing(inst) = &req.payload else { unreachable!() };
        CacheEntry {
            hash: prep_hash(req),
            engine_kind,
            seed,
            prepared: Prepared::Packing {
                inst: Arc::clone(inst),
                engine: Arc::new(Engine::new(engine_kind, inst.mats(), seed).unwrap()),
            },
            memo: Vec::new(),
            bracket: None,
            last_used: 0,
        }
    }

    #[test]
    fn prep_hash_separates_instances_engines_and_seeds() {
        let a =
            ServeRequest::decision("a", inst(&[1.0, 2.0]), 1.0, DecisionOptions::practical(0.1));
        let b =
            ServeRequest::decision("b", inst(&[1.0, 3.0]), 1.0, DecisionOptions::practical(0.1));
        assert_ne!(prep_hash(&a), prep_hash(&b), "different instances must key apart");

        let c = ServeRequest::decision(
            "c",
            inst(&[1.0, 2.0]),
            1.0,
            DecisionOptions::practical(0.1).with_seed(7),
        );
        assert_ne!(prep_hash(&a), prep_hash(&c), "different seeds must key apart");

        // Same instance + engine + seed but different eps/threshold: same
        // prepared state (per-solve options are not prep inputs).
        let d =
            ServeRequest::decision("d", inst(&[1.0, 2.0]), 2.0, DecisionOptions::practical(0.3));
        assert_eq!(prep_hash(&a), prep_hash(&d));
        // …but different request parameters, so memoization keys apart.
        assert_ne!(params_key(&a.kind), params_key(&d.kind));
    }

    #[test]
    fn prep_hash_separates_engine_kinds_including_expv() {
        use psdp_expdot::EngineKind;
        let mk = |engine| {
            ServeRequest::decision(
                "r",
                inst(&[1.0, 2.0]),
                1.0,
                DecisionOptions::practical(0.1).with_engine(engine),
            )
        };
        let kinds = [
            EngineKind::Exact,
            EngineKind::Taylor { eps: 0.1 },
            EngineKind::TaylorJl { eps: 0.1, sketch_const: 4.0 },
            EngineKind::Expv { eps: 0.1 },
        ];
        let keys: Vec<u64> = kinds.iter().map(|&k| prep_hash(&mk(k))).collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(
                    keys[i],
                    keys[j],
                    "{} and {} must not share a prepared-solver fingerprint",
                    kinds[i].name(),
                    kinds[j].name()
                );
            }
        }
        // Same Expv eps → same fingerprint; different eps keys apart.
        assert_eq!(prep_hash(&mk(EngineKind::Expv { eps: 0.1 })), keys[3]);
        assert_ne!(prep_hash(&mk(EngineKind::Expv { eps: 0.2 })), keys[3]);
    }

    #[test]
    fn text_and_binary_submissions_share_a_fingerprint() {
        // Same logical instance through the text writer/reader and through
        // a fresh Arc: identical content hashes → identical prep hashes,
        // and the entry verifies against both (structural eq, not ptr eq).
        let i1 = inst(&[1.0, 2.0]);
        let text = psdp_core::write_instance(&i1);
        let i2 = Arc::new(psdp_core::read_instance(&text).unwrap());
        let a = ServeRequest::decision("a", i1, 1.0, DecisionOptions::practical(0.1));
        let b = ServeRequest::decision("b", i2, 1.0, DecisionOptions::practical(0.1));
        assert_eq!(prep_hash(&a), prep_hash(&b));
        let e = entry_for(&a);
        assert!(e.matches(&b), "structurally equal instance must verify");
    }

    #[test]
    fn take_verifies_full_fingerprint_not_just_hash() {
        let a =
            ServeRequest::decision("a", inst(&[1.0, 2.0]), 1.0, DecisionOptions::practical(0.1));
        let mut cache = SolverCache::new(8);
        cache.insert(entry_for(&a));
        // A different instance must miss even if we probe with the stored
        // entry's hash (simulating a 64-bit collision).
        let other =
            ServeRequest::decision("o", inst(&[9.0, 9.0]), 1.0, DecisionOptions::practical(0.1));
        assert!(cache.take(prep_hash(&a), &other).is_none(), "collision must verify and miss");
        // A different engine must miss the same way.
        let eng = ServeRequest::decision(
            "e",
            inst(&[1.0, 2.0]),
            1.0,
            DecisionOptions::practical(0.1)
                .with_engine(psdp_expdot::EngineKind::Taylor { eps: 0.1 }),
        );
        assert!(cache.take(prep_hash(&a), &eng).is_none());
        assert!(cache.take(prep_hash(&a), &a).is_some());
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_is_lru_and_bounded() {
        let r1 = ServeRequest::decision("1", inst(&[1.0]), 1.0, DecisionOptions::practical(0.1));
        let r2 = ServeRequest::decision("2", inst(&[2.0]), 1.0, DecisionOptions::practical(0.1));
        let r3 = ServeRequest::decision("3", inst(&[3.0]), 1.0, DecisionOptions::practical(0.1));
        let mut cache = SolverCache::new(2);
        cache.insert(entry_for(&r1));
        cache.insert(entry_for(&r2));
        // Touch r1 so r2 becomes the LRU.
        let e = cache.take(prep_hash(&r1), &r1).unwrap();
        cache.insert(e);
        cache.insert(entry_for(&r3));
        assert_eq!(cache.len(), 2);
        assert!(cache.take(prep_hash(&r2), &r2).is_none(), "r2 should have been evicted");
        assert!(cache.take(prep_hash(&r1), &r1).is_some());
        assert!(cache.take(prep_hash(&r3), &r3).is_some());
    }
}
