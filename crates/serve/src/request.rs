//! The serving request model: heterogeneous solve requests over shared,
//! immutable instances.
//!
//! Instances travel as `Arc`s so a zipf-repeated batch (many requests,
//! few distinct instances) does not clone constraint data per request, and
//! so cached prepared state can keep the instance alive across batches.

use psdp_core::{
    mixed_content_hash, packing_content_hash, ApproxOptions, DecisionOptions, MixedApproxOptions,
    MixedInstance, PackingInstance,
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

/// The instance a request runs against: core's two-family codec
/// instance, decoded, encoded, hashed and compared through
/// [`psdp_core::Instance`]'s methods.
pub use psdp_core::Instance as InstancePayload;

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
