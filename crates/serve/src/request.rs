//! The serving request model: heterogeneous solve requests over shared,
//! immutable instances.
//!
//! Instances travel as `Arc`s so a zipf-repeated batch (many requests,
//! few distinct instances) does not clone constraint data per request, and
//! so cached prepared state can keep the instance alive across batches.

use psdp_core::{
    mixed_content_hash, mixed_structural_eq, packing_content_hash, packing_structural_eq,
    read_instance, read_instance_bin, read_mixed_instance, read_mixed_instance_bin, write_instance,
    write_instance_bin, write_mixed_instance, write_mixed_instance_bin, ApproxOptions,
    DecisionOptions, MixedApproxOptions, MixedInstance, PackingInstance, PsdpError,
};
use std::sync::Arc;

/// What a request asks the solver to do. Every variant carries its own
/// options — heterogeneous batches are the point of the scheduler.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// The ε-decision question "is the packing optimum ≥ `threshold`?"
    /// (a single [`psdp_core::Session::solve_with`] call).
    Decision {
        /// The threshold `σ` to test.
        threshold: f64,
        /// Per-request decision options (the engine kind and seed also
        /// select which prepared solver the request shares).
        opts: DecisionOptions,
    },
    /// Full certified bisection ([`psdp_core::Session::optimize`]).
    Optimize {
        /// Per-request optimizer options.
        opts: ApproxOptions,
    },
    /// Mixed packing–covering threshold optimization
    /// ([`psdp_core::MixedSession::optimize`]).
    Mixed {
        /// Per-request mixed optimizer options.
        opts: MixedApproxOptions,
    },
}

impl RequestKind {
    /// Short label for telemetry and reports.
    pub fn name(&self) -> &'static str {
        match self {
            RequestKind::Decision { .. } => "decision",
            RequestKind::Optimize { .. } => "optimize",
            RequestKind::Mixed { .. } => "mixed",
        }
    }
}

/// An instance family. The discriminants are the family tags folded into
/// the prep hash and stored snapshot fingerprints, so they never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Packing instances (decision / optimize requests).
    Packing = 0,
    /// Mixed packing–covering instances (mixed requests).
    Mixed = 1,
}

impl Family {
    /// The family's name in snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Family::Packing => "packing",
            Family::Mixed => "mixed",
        }
    }
}

/// The instance a request runs against.
#[derive(Debug, Clone)]
pub enum InstancePayload {
    /// A packing instance (decision / optimize requests).
    Packing(Arc<PackingInstance>),
    /// A mixed packing–covering instance (mixed requests).
    Mixed(Arc<MixedInstance>),
}

impl InstancePayload {
    /// Decode a `family` instance from `psdp-bin-1` bytes (`binary`) or
    /// canonical text, with its structural content hash: the binary
    /// header's (verified by the reader) or, for text, computed once here.
    ///
    /// # Errors
    /// The reader's error for malformed bytes or an invalid instance.
    pub fn decode(
        family: Family,
        bytes: &[u8],
        binary: bool,
    ) -> Result<(InstancePayload, u64), PsdpError> {
        let text = || String::from_utf8_lossy(bytes);
        let payload = match (family, binary) {
            (Family::Packing, true) => {
                let (inst, hash) = read_instance_bin(bytes)?;
                return Ok((InstancePayload::Packing(Arc::new(inst)), hash));
            }
            (Family::Mixed, true) => {
                let (inst, hash) = read_mixed_instance_bin(bytes)?;
                return Ok((InstancePayload::Mixed(Arc::new(inst)), hash));
            }
            (Family::Packing, false) => InstancePayload::Packing(Arc::new(read_instance(&text())?)),
            (Family::Mixed, false) => {
                InstancePayload::Mixed(Arc::new(read_mixed_instance(&text())?))
            }
        };
        let hash = payload.content_hash();
        Ok((payload, hash))
    }

    /// The carried instance as `psdp-bin-1` bytes (`binary`) or canonical
    /// text: the inverse of [`InstancePayload::decode`].
    pub fn encode(&self, binary: bool) -> Vec<u8> {
        match (self, binary) {
            (InstancePayload::Packing(inst), true) => write_instance_bin(inst),
            (InstancePayload::Mixed(inst), true) => write_mixed_instance_bin(inst),
            (InstancePayload::Packing(inst), false) => write_instance(inst).into_bytes(),
            (InstancePayload::Mixed(inst), false) => write_mixed_instance(inst).into_bytes(),
        }
    }

    /// The carried instance's family.
    pub fn family(&self) -> Family {
        match self {
            InstancePayload::Packing(_) => Family::Packing,
            InstancePayload::Mixed(_) => Family::Mixed,
        }
    }

    /// Stored entries over all of the instance's constraint matrices.
    pub fn total_nnz(&self) -> usize {
        match self {
            InstancePayload::Packing(inst) => inst.total_nnz(),
            InstancePayload::Mixed(inst) => inst.total_nnz(),
        }
    }

    /// The structural content hash of the carried instance
    /// ([`psdp_core::packing_content_hash`] /
    /// [`psdp_core::mixed_content_hash`]) — `O(nnz)`, so callers that can
    /// reuse a hash (source caches, binary headers) should prefer the
    /// `*_hashed` request constructors over recomputing.
    pub fn content_hash(&self) -> u64 {
        match self {
            InstancePayload::Packing(inst) => packing_content_hash(inst),
            InstancePayload::Mixed(inst) => mixed_content_hash(inst),
        }
    }

    /// Bitwise structural equality of two payloads, with an `Arc` pointer
    /// fast path. This is the collision verifier behind every cache hit:
    /// exactly as strong as comparing canonical serializations, with zero
    /// allocation and usually zero work.
    pub fn structural_eq(&self, other: &InstancePayload) -> bool {
        match (self, other) {
            (InstancePayload::Packing(a), InstancePayload::Packing(b)) => {
                Arc::ptr_eq(a, b) || packing_structural_eq(a, b)
            }
            (InstancePayload::Mixed(a), InstancePayload::Mixed(b)) => {
                Arc::ptr_eq(a, b) || mixed_structural_eq(a, b)
            }
            _ => false,
        }
    }
}

/// One serve request: a unique id, an instance, and what to do with it.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Caller-chosen identifier, unique within a batch. Responses are
    /// keyed by it, and the scheduler orders same-fingerprint requests by
    /// id so results do not depend on submission order.
    pub id: String,
    /// The instance to solve.
    pub payload: InstancePayload,
    /// The work to perform.
    pub kind: RequestKind,
    /// Structural content hash of the instance, computed **once** when the
    /// request was built (at parse time for text submissions, straight off
    /// the header for binary ones) and carried along so admission, shard
    /// routing, and cache lookups never re-serialize the instance.
    pub content_hash: u64,
}

impl ServeRequest {
    /// A decision request (hashes the instance; prefer
    /// [`ServeRequest::decision_hashed`] when the hash is already known).
    pub fn decision(
        id: impl Into<String>,
        inst: Arc<PackingInstance>,
        threshold: f64,
        opts: DecisionOptions,
    ) -> Self {
        let hash = packing_content_hash(&inst);
        Self::decision_hashed(id, inst, hash, threshold, opts)
    }

    /// A decision request with a precomputed content hash.
    pub fn decision_hashed(
        id: impl Into<String>,
        inst: Arc<PackingInstance>,
        content_hash: u64,
        threshold: f64,
        opts: DecisionOptions,
    ) -> Self {
        ServeRequest {
            id: id.into(),
            payload: InstancePayload::Packing(inst),
            kind: RequestKind::Decision { threshold, opts },
            content_hash,
        }
    }

    /// An optimize request (hashes the instance; prefer
    /// [`ServeRequest::optimize_hashed`] when the hash is already known).
    pub fn optimize(
        id: impl Into<String>,
        inst: Arc<PackingInstance>,
        opts: ApproxOptions,
    ) -> Self {
        let hash = packing_content_hash(&inst);
        Self::optimize_hashed(id, inst, hash, opts)
    }

    /// An optimize request with a precomputed content hash.
    pub fn optimize_hashed(
        id: impl Into<String>,
        inst: Arc<PackingInstance>,
        content_hash: u64,
        opts: ApproxOptions,
    ) -> Self {
        ServeRequest {
            id: id.into(),
            payload: InstancePayload::Packing(inst),
            kind: RequestKind::Optimize { opts },
            content_hash,
        }
    }

    /// A mixed request (hashes the instance; prefer
    /// [`ServeRequest::mixed_hashed`] when the hash is already known).
    pub fn mixed(
        id: impl Into<String>,
        inst: Arc<MixedInstance>,
        opts: MixedApproxOptions,
    ) -> Self {
        let hash = mixed_content_hash(&inst);
        Self::mixed_hashed(id, inst, hash, opts)
    }

    /// A mixed request with a precomputed content hash.
    pub fn mixed_hashed(
        id: impl Into<String>,
        inst: Arc<MixedInstance>,
        content_hash: u64,
        opts: MixedApproxOptions,
    ) -> Self {
        ServeRequest {
            id: id.into(),
            payload: InstancePayload::Mixed(inst),
            kind: RequestKind::Mixed { opts },
            content_hash,
        }
    }

    /// Whether the payload matches what the request kind needs (decision /
    /// optimize run on packing instances, mixed on mixed instances).
    pub fn payload_matches_kind(&self) -> bool {
        matches!(
            (&self.payload, &self.kind),
            (InstancePayload::Packing(_), RequestKind::Decision { .. })
                | (InstancePayload::Packing(_), RequestKind::Optimize { .. })
                | (InstancePayload::Mixed(_), RequestKind::Mixed { .. })
        )
    }
}
