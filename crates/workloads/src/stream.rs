//! Serving request streams: zipf-repeated instance traffic for the
//! `psdp-serve` scheduler and experiments E13/E15.
//!
//! Real serving traffic is heavy-tailed — a few popular instances receive
//! most of the requests (repeat dashboards, retried jobs, parameter
//! sweeps) while a long tail appears once. The generator models that with
//! a zipf law over a pool of distinct instances: request `t` draws
//! instance rank `k` with probability `∝ 1/(k+1)^s`. This is exactly the
//! shape a fingerprint-keyed cache should be measured on: amortization
//! wins on the head, the tail stays cold.

use crate::mixed::mixed_lp_diagonal;
use crate::random::{random_factorized, RandomFactorized};
use psdp_core::{MixedInstance, PackingInstance};
use psdp_parallel::splitmix64;

/// Parameters of the zipf request stream (all deterministic in `seed`).
#[derive(Debug, Clone, Copy)]
pub struct RequestStreamSpec {
    /// Distinct instances in the pool.
    pub pool: usize,
    /// Total requests to emit.
    pub requests: usize,
    /// Matrix dimension of each pooled instance.
    pub dim: usize,
    /// Constraint count of each pooled instance.
    pub n: usize,
    /// Zipf exponent `s` (`0` = uniform; `~1` = classic heavy head).
    pub zipf_s: f64,
    /// Distinct decision thresholds cycled per instance. `1` makes
    /// repeats byte-identical (pure memoization traffic); larger values
    /// emit perturbed repeats that exercise prepared-state reuse instead.
    pub thresholds: usize,
    /// Stream seed.
    pub seed: u64,
}

impl Default for RequestStreamSpec {
    fn default() -> Self {
        RequestStreamSpec {
            pool: 4,
            requests: 32,
            dim: 10,
            n: 6,
            zipf_s: 1.1,
            thresholds: 3,
            seed: 1,
        }
    }
}

/// One emitted request: which pooled instance to solve and at what
/// decision threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRequest {
    /// Unique, zero-padded id (`r000007`), sortable in emission order.
    pub id: String,
    /// Index into the returned instance pool.
    pub instance: usize,
    /// Decision threshold for this request.
    pub threshold: f64,
}

/// Generate the instance pool and the zipf-ordered request list.
///
/// Instance `k` of the pool is the shared random-factorized family at
/// seed `seed + k`; thresholds cycle through `thresholds` geometrically
/// spaced values per instance, keyed by that instance's request counter
/// (so the `j`-th request for an instance is identical across shuffles of
/// everything else).
///
/// # Panics
/// Panics on zero `pool`, `requests`, `dim`, or `n` (forwarded from the
/// instance generator), or a non-finite/negative `zipf_s`.
pub fn request_stream(spec: &RequestStreamSpec) -> (Vec<PackingInstance>, Vec<StreamRequest>) {
    assert!(spec.pool > 0 && spec.requests > 0, "pool and requests must be positive");
    assert!(
        spec.zipf_s.is_finite() && spec.zipf_s >= 0.0,
        "zipf exponent must be finite and non-negative"
    );
    let instances: Vec<PackingInstance> = (0..spec.pool)
        .map(|k| {
            PackingInstance::new(random_factorized(&RandomFactorized {
                dim: spec.dim,
                n: spec.n,
                rank: 2,
                nnz_per_col: (spec.dim / 3).max(2),
                width: 1.0,
                seed: spec.seed.wrapping_add(k as u64),
            }))
            .expect("random_factorized emits valid instances")
        })
        .collect();

    let cdf = zipf_cdf(spec.pool, spec.zipf_s);

    let thresholds = spec.thresholds.max(1);
    let mut per_instance_count = vec![0usize; spec.pool];
    let requests = (0..spec.requests)
        .map(|t| {
            // splitmix64 over the request index → u ∈ [0, 1).
            let bits =
                splitmix64(spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(t as u64));
            let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
            let instance = cdf.iter().position(|&c| u < c).unwrap_or(spec.pool - 1);
            // Geometric threshold ladder around 1: repeats of one instance
            // cycle deterministically through it.
            let j = per_instance_count[instance] % thresholds;
            per_instance_count[instance] += 1;
            let threshold = 0.9 * 1.07f64.powi(j as i32);
            StreamRequest { id: format!("r{t:06}"), instance, threshold }
        })
        .collect();
    (instances, requests)
}

/// Zipf CDF over ranks `0..pool` with exponent `s`.
fn zipf_cdf(pool: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..pool).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    cdf
}

/// Which serve command a [`KindedRequest`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// A decision request (`command: solve`) against the packing pool.
    Solve,
    /// A bisection request (`command: optimize`) against the packing pool.
    Optimize,
    /// A mixed packing–covering request against the mixed pool.
    Mixed,
}

/// Parameters of the full-protocol stream: the packing zipf stream of
/// [`RequestStreamSpec`] plus a share of optimize and mixed traffic. This
/// is the E15 service workload — scale `base.requests` to 100k–1M; cost
/// is linear in `requests` and instance construction is per *pool* entry.
#[derive(Debug, Clone, Copy)]
pub struct MixedStreamSpec {
    /// The underlying packing pool and zipf request schedule.
    pub base: RequestStreamSpec,
    /// Distinct mixed packing–covering instances in their own zipf pool
    /// (`0` disables mixed traffic regardless of `mixed_share`).
    pub mixed_pool: usize,
    /// Fraction of requests emitted as `optimize` instead of `solve`.
    pub optimize_share: f64,
    /// Fraction of requests routed to the mixed pool.
    pub mixed_share: f64,
    /// Accuracy passed on every emitted JSONL request.
    pub eps: f64,
}

impl Default for MixedStreamSpec {
    fn default() -> Self {
        MixedStreamSpec {
            base: RequestStreamSpec::default(),
            mixed_pool: 2,
            optimize_share: 0.15,
            mixed_share: 0.1,
            eps: 0.2,
        }
    }
}

/// One request of the full-protocol stream: a command kind plus an index
/// into the pool that kind draws from.
#[derive(Debug, Clone, PartialEq)]
pub struct KindedRequest {
    /// Unique, zero-padded id, sortable in emission order.
    pub id: String,
    /// Which serve command to emit.
    pub kind: StreamKind,
    /// Index into the packing pool ([`StreamKind::Solve`] /
    /// [`StreamKind::Optimize`]) or the mixed pool
    /// ([`StreamKind::Mixed`]).
    pub instance: usize,
    /// Decision threshold (meaningful for [`StreamKind::Solve`] only).
    pub threshold: f64,
}

/// The generated service workload: both instance pools plus the ordered
/// request list.
#[derive(Debug, Clone)]
pub struct StreamBatch {
    /// Packing pool (indexed by solve/optimize requests).
    pub packing: Vec<PackingInstance>,
    /// Mixed packing–covering pool (indexed by mixed requests).
    pub mixed: Vec<MixedInstance>,
    /// Requests in emission order.
    pub requests: Vec<KindedRequest>,
    /// Accuracy carried onto every emitted JSONL line.
    pub eps: f64,
}

/// Generate the full-protocol stream: the packing schedule of
/// [`request_stream`], with a deterministic share of requests rewritten
/// to `optimize` and a share rerouted to a zipf-ordered mixed pool.
///
/// # Panics
/// Forwards the panics of [`request_stream`]; additionally panics on
/// non-finite or out-of-range shares (`optimize_share + mixed_share`
/// must stay within `[0, 1]`).
pub fn mixed_request_stream(spec: &MixedStreamSpec) -> StreamBatch {
    assert!(
        spec.optimize_share.is_finite()
            && spec.mixed_share.is_finite()
            && spec.optimize_share >= 0.0
            && spec.mixed_share >= 0.0
            && spec.optimize_share + spec.mixed_share <= 1.0,
        "optimize/mixed shares must be finite, non-negative, and sum to at most 1"
    );
    let (packing, base_requests) = request_stream(&spec.base);
    let mixed: Vec<MixedInstance> = (0..spec.mixed_pool)
        .map(|k| {
            let n = spec.base.n.max(2);
            mixed_lp_diagonal(
                n,
                n.saturating_sub(1).max(2),
                spec.base.dim.max(2),
                0.6,
                spec.base.seed.wrapping_add(1000 + k as u64),
            )
        })
        .collect();
    let mixed_cdf = zipf_cdf(spec.mixed_pool, spec.base.zipf_s);
    let mixed_share = if spec.mixed_pool == 0 { 0.0 } else { spec.mixed_share };

    let mut mixed_count = 0u64;
    let requests = base_requests
        .into_iter()
        .enumerate()
        .map(|(t, r)| {
            // A second, independently-keyed splitmix64 stream decides the
            // command kind so the packing schedule stays untouched.
            let bits = splitmix64(
                spec.base.seed.wrapping_mul(0xD605_BBB5_8C8A_5E15).wrapping_add(t as u64),
            );
            let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
            if u < mixed_share {
                // Zipf rank over the mixed pool, keyed by the running
                // mixed-request counter.
                let mb =
                    splitmix64(spec.base.seed.wrapping_add(0xA076_1D64_78BD_642F ^ mixed_count));
                mixed_count += 1;
                let mu = (mb >> 11) as f64 / (1u64 << 53) as f64;
                let instance =
                    mixed_cdf.iter().position(|&c| mu < c).unwrap_or(spec.mixed_pool - 1);
                KindedRequest { id: r.id, kind: StreamKind::Mixed, instance, threshold: 0.0 }
            } else if u < mixed_share + spec.optimize_share {
                KindedRequest {
                    id: r.id,
                    kind: StreamKind::Optimize,
                    instance: r.instance,
                    threshold: r.threshold,
                }
            } else {
                KindedRequest {
                    id: r.id,
                    kind: StreamKind::Solve,
                    instance: r.instance,
                    threshold: r.threshold,
                }
            }
        })
        .collect();
    StreamBatch { packing, mixed, requests, eps: spec.eps }
}

/// Split the service workload into `clients` independent per-client
/// streams with disjoint instance pools: client `c` regenerates the
/// batch at a seed offset of `c`, so no two clients share a fingerprint.
/// This is the multi-client determinism harness — each client's stream,
/// submitted over its own socket connection, must produce responses
/// bitwise identical to the same stream piped over stdin, and disjoint
/// pools keep per-request telemetry (cache hits, prepared-state reuse)
/// identical too, not just the response payloads.
///
/// # Panics
/// Panics on zero `clients`; forwards the panics of
/// [`mixed_request_stream`].
pub fn multi_client_streams(spec: &MixedStreamSpec, clients: usize) -> Vec<StreamBatch> {
    assert!(clients > 0, "clients must be positive");
    (0..clients)
        .map(|c| {
            let mut per_client = *spec;
            per_client.base.seed =
                spec.base.seed.wrapping_add((c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            mixed_request_stream(&per_client)
        })
        .collect()
}

/// Minimal JSON string escaper for canonical instance text (quotes,
/// backslashes, and control characters; everything else passes through).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a [`StreamBatch`] as the `psdp serve` JSONL protocol, one
/// request per line with inline canonical instance text. The bytes are a
/// pure function of the batch — the determinism suite and the
/// `serve_stream` bench feed the same string to every configuration they
/// compare.
pub fn stream_jsonl(batch: &StreamBatch) -> String {
    let pack_texts: Vec<String> =
        batch.packing.iter().map(|i| json_escape(&psdp_core::write_instance(i))).collect();
    let mixed_texts: Vec<String> =
        batch.mixed.iter().map(|i| json_escape(&psdp_core::write_mixed_instance(i))).collect();
    let mut out = String::new();
    for r in &batch.requests {
        match r.kind {
            StreamKind::Solve => out.push_str(&format!(
                "{{\"id\":\"{}\",\"command\":\"solve\",\"instance\":\"{}\",\"threshold\":{},\"eps\":{}}}\n",
                r.id, pack_texts[r.instance], r.threshold, batch.eps,
            )),
            StreamKind::Optimize => out.push_str(&format!(
                "{{\"id\":\"{}\",\"command\":\"optimize\",\"instance\":\"{}\",\"eps\":{}}}\n",
                r.id, pack_texts[r.instance], batch.eps,
            )),
            StreamKind::Mixed => out.push_str(&format!(
                "{{\"id\":\"{}\",\"command\":\"mixed\",\"instance\":\"{}\",\"eps\":{}}}\n",
                r.id, mixed_texts[r.instance], batch.eps,
            )),
        }
    }
    out
}

/// Render a [`StreamBatch`] as the `psdp serve --listen` binary-frame
/// protocol: every request becomes a `0x00`-marked, length-prefixed frame
/// carrying its JSON header and the instance as `psdp-bin-1` bytes
/// (encoded once per pool entry, not per request). Same request schedule
/// as [`stream_jsonl`], so the two encodings must produce byte-identical
/// response payloads — that is exactly the cross-check the determinism
/// suite runs — while the binary path skips text parsing entirely.
pub fn stream_frames(batch: &StreamBatch) -> Vec<u8> {
    let pack_bins: Vec<Vec<u8>> = batch.packing.iter().map(psdp_core::write_instance_bin).collect();
    let mixed_bins: Vec<Vec<u8>> =
        batch.mixed.iter().map(psdp_core::write_mixed_instance_bin).collect();
    let mut out: Vec<u8> = Vec::new();
    for r in &batch.requests {
        let (json, inst) = match r.kind {
            StreamKind::Solve => (
                format!(
                    "{{\"id\":\"{}\",\"command\":\"solve\",\"threshold\":{},\"eps\":{}}}",
                    r.id, r.threshold, batch.eps,
                ),
                &pack_bins[r.instance],
            ),
            StreamKind::Optimize => (
                format!("{{\"id\":\"{}\",\"command\":\"optimize\",\"eps\":{}}}", r.id, batch.eps,),
                &pack_bins[r.instance],
            ),
            StreamKind::Mixed => (
                format!("{{\"id\":\"{}\",\"command\":\"mixed\",\"eps\":{}}}", r.id, batch.eps),
                &mixed_bins[r.instance],
            ),
        };
        let payload_len = 4 + json.len() + inst.len();
        out.push(0x00);
        out.extend_from_slice(&u32::try_from(payload_len).unwrap_or(u32::MAX).to_le_bytes());
        out.extend_from_slice(&u32::try_from(json.len()).unwrap_or(u32::MAX).to_le_bytes());
        out.extend_from_slice(json.as_bytes());
        out.extend_from_slice(inst);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let spec = RequestStreamSpec::default();
        let (ia, ra) = request_stream(&spec);
        let (ib, rb) = request_stream(&spec);
        assert_eq!(ra, rb);
        assert_eq!(ia.len(), ib.len());
        for (a, b) in ia.iter().zip(&ib) {
            for (x, y) in a.mats().iter().zip(b.mats()) {
                assert_eq!(x.to_dense().as_slice(), y.to_dense().as_slice());
            }
        }
    }

    #[test]
    fn zipf_head_dominates() {
        let spec = RequestStreamSpec { pool: 5, requests: 200, zipf_s: 1.2, ..Default::default() };
        let (_, reqs) = request_stream(&spec);
        let mut counts = vec![0usize; spec.pool];
        for r in &reqs {
            counts[r.instance] += 1;
        }
        assert!(counts[0] > counts[4], "head rank must outdraw the tail: {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 200);
    }

    #[test]
    fn ids_unique_and_thresholds_cycle() {
        let spec = RequestStreamSpec { thresholds: 3, requests: 40, ..Default::default() };
        let (_, reqs) = request_stream(&spec);
        let ids: std::collections::BTreeSet<_> = reqs.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids.len(), reqs.len());
        // Per instance, at most `thresholds` distinct thresholds.
        for k in 0..spec.pool {
            let distinct: std::collections::BTreeSet<u64> =
                reqs.iter().filter(|r| r.instance == k).map(|r| r.threshold.to_bits()).collect();
            assert!(distinct.len() <= 3, "instance {k} saw {} thresholds", distinct.len());
        }
    }

    #[test]
    fn single_threshold_mode_repeats_exactly() {
        let spec = RequestStreamSpec { thresholds: 1, requests: 20, ..Default::default() };
        let (_, reqs) = request_stream(&spec);
        let distinct: std::collections::BTreeSet<u64> =
            reqs.iter().map(|r| r.threshold.to_bits()).collect();
        assert_eq!(distinct.len(), 1);
    }

    #[test]
    fn mixed_stream_emits_all_kinds_deterministically() {
        let spec = MixedStreamSpec {
            base: RequestStreamSpec { requests: 300, ..Default::default() },
            ..Default::default()
        };
        let a = mixed_request_stream(&spec);
        let b = mixed_request_stream(&spec);
        assert_eq!(a.requests, b.requests);
        assert_eq!(stream_jsonl(&a), stream_jsonl(&b));
        let count = |k: StreamKind| a.requests.iter().filter(|r| r.kind == k).count();
        let (s, o, m) =
            (count(StreamKind::Solve), count(StreamKind::Optimize), count(StreamKind::Mixed));
        assert_eq!(s + o + m, 300);
        assert!(s > o && o > 0 && m > 0, "kind mix: solve={s} optimize={o} mixed={m}");
        for r in &a.requests {
            let pool = if r.kind == StreamKind::Mixed { a.mixed.len() } else { a.packing.len() };
            assert!(r.instance < pool, "{r:?} out of pool");
        }
    }

    #[test]
    fn zero_mixed_pool_disables_mixed_traffic() {
        let spec = MixedStreamSpec {
            mixed_pool: 0,
            mixed_share: 0.5,
            base: RequestStreamSpec { requests: 100, ..Default::default() },
            ..Default::default()
        };
        let batch = mixed_request_stream(&spec);
        assert!(batch.requests.iter().all(|r| r.kind != StreamKind::Mixed));
        assert!(batch.mixed.is_empty());
    }

    #[test]
    fn jsonl_lines_match_requests_and_escape_newlines() {
        let batch = mixed_request_stream(&MixedStreamSpec {
            base: RequestStreamSpec { requests: 40, ..Default::default() },
            ..Default::default()
        });
        let text = stream_jsonl(&batch);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), batch.requests.len());
        for (line, r) in lines.iter().zip(&batch.requests) {
            assert!(line.starts_with(&format!("{{\"id\":\"{}\",\"command\":", r.id)), "{line}");
            assert!(!line.contains('\n'));
            assert!(line.contains("\\n"), "instance text must be inline-escaped: {line}");
        }
    }

    #[test]
    fn frame_stream_matches_request_schedule() {
        let batch = mixed_request_stream(&MixedStreamSpec {
            base: RequestStreamSpec { requests: 40, ..Default::default() },
            ..Default::default()
        });
        let bytes = stream_frames(&batch);
        assert_eq!(bytes, stream_frames(&batch), "frame bytes must be deterministic");
        // Walk the frames: one per request, each payload holding the JSON
        // header (with the right id) followed by psdp-bin-1 magic.
        let mut pos = 0usize;
        for r in &batch.requests {
            assert_eq!(bytes[pos], 0x00, "frame marker at {pos}");
            let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
            let payload = &bytes[pos + 5..pos + 5 + len];
            let json_len = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
            let json = std::str::from_utf8(&payload[4..4 + json_len]).unwrap();
            assert!(json.starts_with(&format!("{{\"id\":\"{}\",\"command\":", r.id)), "{json}");
            assert_eq!(&payload[4 + json_len..4 + json_len + 8], b"PSDPBIN1");
            pos += 5 + len;
        }
        assert_eq!(pos, bytes.len(), "no trailing bytes after the last frame");
    }

    #[test]
    fn multi_client_streams_are_disjoint_and_deterministic() {
        let spec = MixedStreamSpec {
            base: RequestStreamSpec { requests: 30, ..Default::default() },
            ..Default::default()
        };
        let a = multi_client_streams(&spec, 3);
        let b = multi_client_streams(&spec, 3);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(stream_jsonl(x), stream_jsonl(y), "per-client streams must be stable");
        }
        // Client 0 is the base stream verbatim.
        assert_eq!(stream_jsonl(&a[0]), stream_jsonl(&mixed_request_stream(&spec)));
        // Disjoint pools: no canonical instance text shared between clients.
        let texts = |batch: &StreamBatch| -> std::collections::BTreeSet<String> {
            batch
                .packing
                .iter()
                .map(psdp_core::write_instance)
                .chain(batch.mixed.iter().map(psdp_core::write_mixed_instance))
                .collect()
        };
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert!(
                    texts(&a[i]).is_disjoint(&texts(&a[j])),
                    "clients {i} and {j} share an instance"
                );
            }
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn stream_scales_to_e15_sizes() {
        // 100k requests over a small pool: generation is linear in the
        // request count and must stay cheap (instances are per pool).
        let spec = MixedStreamSpec {
            base: RequestStreamSpec { requests: 100_000, pool: 8, ..Default::default() },
            ..Default::default()
        };
        let batch = mixed_request_stream(&spec);
        assert_eq!(batch.requests.len(), 100_000);
        let ids: std::collections::BTreeSet<&str> =
            batch.requests.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids.len(), 100_000, "ids must be unique at scale");
    }
}
