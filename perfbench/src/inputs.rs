//! Everything a workload generates from its seed. Generation is never
//! timed.
//!
//! Where a seed-to-seed change of instance would move the work itself by
//! more than any regression bound could absorb, the seed relabels one
//! fixed instance instead of drawing a new one: the bytes, and so the
//! fingerprints, differ, while the problem and its solve work stay the
//! same.

use crate::solve::Case;
use psdp_core::{ApproxOptions, EngineKind, MixedApproxOptions, PackingInstance};
use psdp_sparse::{Csr, FactorPsd, Graph, PsdMatrix};
use psdp_workloads::{
    gnp, mixed_edge_cover, mixed_request_stream, random_factorized, KindedRequest, MixedStreamSpec,
    RandomFactorized, RequestStreamSpec, StreamBatch, StreamKind,
};

/// Accuracy on every serve request.
pub const SERVE_EPS: f64 = 0.2;

/// `packing-expv` solves relabelings of the `random_factorized` draw at
/// this seed.
const PACKING_BASE_SEED: u64 = 4;

/// `mixed-cover` solves relabelings of `gnp(32, 0.25)` at this seed.
const MIXED_BASE_SEED: u64 = 2;

/// `serve-socket` cold requests are relabelings of the `random_factorized`
/// instance (dim 24, n 12) at this seed, solved in about 0.12 s. About
/// one draw in five of that family takes 2–4 s instead, which would turn
/// the cold client's stalls into shed hot requests.
const COLD_BASE_SEED: u64 = 103;

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(xs: &mut [T], state: &mut u64) {
    for i in (1..xs.len()).rev() {
        *state = psdp_parallel::splitmix64(*state);
        xs.swap(i, (*state % (i as u64 + 1)) as usize);
    }
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, state: &mut u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    shuffle(&mut p, state);
    p
}

/// The case a solver workload's seed generates: a relabeling of one fixed
/// instance. (`packing-expv` draws agree on iteration counts within 1%
/// but not on engine cost; `mixed-cover` draws differ by up to 4.7× in
/// iteration count.)
pub fn solver_case(workload: &str, seed: u64) -> Option<Case> {
    match workload {
        "packing-expv" => {
            let mats = random_factorized(&RandomFactorized {
                dim: 256,
                n: 8,
                rank: 1,
                nnz_per_col: 3,
                width: 1.0,
                seed: PACKING_BASE_SEED,
            });
            let base = PackingInstance::new(mats).expect("generator emits valid instances");
            let mut state = seed;
            let inst = relabel(&base, &mut state);
            let mut approx = ApproxOptions::practical(0.4);
            // `Auto` resolves to `Expv` at m = 256 on factorized storage.
            approx.decision.engine = EngineKind::Auto { eps: 0.3 };
            Some(Case::Packing(inst, approx))
        }
        "mixed-cover" => {
            let base = gnp(32, 0.25, MIXED_BASE_SEED);
            let mut state = seed;
            let perm = permutation(base.n(), &mut state);
            let mut edges = base.edges().to_vec();
            shuffle(&mut edges, &mut state);
            let mut g = Graph::new(base.n());
            for (u, v, w) in edges {
                g.add_edge(perm[u], perm[v], w);
            }
            let inst = mixed_edge_cover(&g, 0.5);
            Some(Case::Mixed(inst, MixedApproxOptions::practical(0.2)))
        }
        _ => None,
    }
}

/// The serve workloads' instance pool is E15's (stream seed 15). Pools
/// drawn at other seeds can hold a mixed instance that stops at the
/// decision-call cap after 17k iterations, which moves a pass's time by
/// 25%; the seed draws the request schedule instead.
const POOL_SEED: u64 = 15;

/// The E15 full-protocol stream: zipf 1.1 over 16 packing instances
/// (dim 10, n 6) and 2 mixed instances, 10% optimize, 5% mixed, with the
/// pool fixed and the request schedule drawn from `seed`.
pub fn hot_batch(requests: usize, seed: u64) -> StreamBatch {
    let spec = |requests, seed| MixedStreamSpec {
        base: RequestStreamSpec {
            pool: 16,
            requests,
            dim: 10,
            n: 6,
            zipf_s: 1.1,
            thresholds: 3,
            seed,
        },
        mixed_pool: 2,
        optimize_share: 0.1,
        mixed_share: 0.05,
        eps: SERVE_EPS,
    };
    let pool = mixed_request_stream(&spec(1, POOL_SEED));
    StreamBatch { requests: mixed_request_stream(&spec(requests, seed)).requests, ..pool }
}

/// The first request of each distinct (kind, instance, threshold) in a
/// batch, renamed `w…`: one pass over it answers every hot fingerprint
/// and fills the memo.
pub fn warm_batch(batch: &StreamBatch) -> StreamBatch {
    let mut seen = std::collections::BTreeSet::new();
    let requests = batch
        .requests
        .iter()
        .filter(|r| seen.insert((r.kind as u8, r.instance, r.threshold.to_bits())))
        .enumerate()
        .map(|(k, r)| KindedRequest { id: format!("w{k:05}"), ..r.clone() })
        .collect();
    StreamBatch { requests, ..batch.clone() }
}

/// A packing instance with its dimensions relabeled and its constraints
/// reordered (factorized storage only).
fn relabel(inst: &PackingInstance, state: &mut u64) -> PackingInstance {
    let dim = inst.dim();
    let perm = permutation(dim, state);
    let mut mats: Vec<PsdMatrix> = inst
        .mats()
        .iter()
        .map(|a| {
            let PsdMatrix::Factor(f) = a else {
                panic!("relabel expects factorized constraints");
            };
            let q = f.factor().to_dense();
            let mut trip = Vec::new();
            for r in 0..q.nrows() {
                for c in 0..q.ncols() {
                    if q[(r, c)] != 0.0 {
                        trip.push((perm[r], c, q[(r, c)]));
                    }
                }
            }
            PsdMatrix::Factor(FactorPsd::new(Csr::from_triplets(dim, q.ncols(), &trip)))
        })
        .collect();
    shuffle(&mut mats, state);
    PackingInstance::new(mats).expect("relabeling keeps the instance valid")
}

/// `serve-socket` cold client: `count` optimize requests, each on an
/// instance no other request uses.
pub fn cold_batch(count: usize, seed: u64) -> StreamBatch {
    let base = PackingInstance::new(random_factorized(&RandomFactorized {
        dim: 24,
        n: 12,
        rank: 2,
        nnz_per_col: 8,
        width: 1.0,
        seed: COLD_BASE_SEED,
    }))
    .expect("generator emits valid instances");
    let mut state = seed ^ 0xC01D;
    let packing = (0..count).map(|_| relabel(&base, &mut state)).collect();
    let requests = (0..count)
        .map(|k| KindedRequest {
            id: format!("c{k:05}"),
            kind: StreamKind::Optimize,
            instance: k,
            threshold: 0.0,
        })
        .collect();
    StreamBatch { packing, mixed: Vec::new(), requests, eps: SERVE_EPS }
}
