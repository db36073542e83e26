//! Cache snapshot persistence: write the service's prepared fingerprints
//! to a versioned text format and warm-reload them at startup.
//!
//! ## What is (and is not) persisted
//!
//! Prepared engines hold factorizations and resolved strategies — state
//! that is expensive to serialize and riskier still to trust from disk.
//! The snapshot therefore stores the *rebuild inputs* instead: the
//! request family, the engine kind (float parameters as exact IEEE-754
//! bit patterns), the sketch seed, the instance itself, and the last
//! certified optimize bracket. Loading replays the ordinary solver
//! preparation path over those inputs, so a warm-started service holds
//! engines bit-identical to ones it would have built cold — the snapshot
//! moves preparation cost off the serving path without introducing a new
//! trust boundary. The memo tier is deliberately **not** persisted:
//! results are only replayed within one process lifetime, where "the
//! pipeline is deterministic" is an invariant the binary itself enforces.
//!
//! Instances are stored in one of two payload encodings: small ones as
//! canonical `psdp` text (human-inspectable, diff-friendly), large ones
//! (over `BIN_PAYLOAD_NNZ_THRESHOLD` = 1024 stored entries) as hex-encoded
//! `psdp-bin-1` bytes, which load without any float parsing.
//!
//! ## Verification on load
//!
//! Every entry is fully verified before insertion, mirroring the cache's
//! verify-on-hit discipline:
//!
//! 1. the payload must be *canonical* (read→write is a byte fixpoint in
//!    its encoding), so a snapshot edited into a non-canonical spelling
//!    of the same instance cannot alias a different fingerprint;
//! 2. the preparation hash recomputed from the rebuilt inputs
//!    ([`crate::cache::prep_hash_parts`] over the family, engine kind,
//!    seed, and the instance's structural content hash) must equal the
//!    stored fingerprint;
//! 3. duplicate fingerprints (hash *and* structural instance equality)
//!    are rejected.
//!
//! Any failure yields a typed [`SnapshotError`] — callers fall back to a
//! cold start; a corrupted snapshot can never panic the service or
//! poison its cache. Version-1 snapshots (which keyed entries by
//! canonical instance text) are rejected the same way.
//!
//! ## On-disk atomicity and generations
//!
//! [`save_to_path`] never writes the live path directly: the text lands
//! in `<path>.tmp` first and is renamed into place, so a crash mid-write
//! can tear only the tmp file — which loads ignore and the next save
//! overwrites — never an existing generation. With `keep > 1`, prior
//! generations rotate to `<path>.1`, `<path>.2`, … before the rename, and
//! loaders fall back through [`generation_paths`] when the live file is
//! missing or corrupt. Every generation is a full compact rewrite of the
//! live prepared-key set (sorted entries, LRU-evicted keys gone) — never
//! a delta or append — so old garbage cannot accumulate across rotations.

use crate::cache::{prep_hash_parts, CacheEntry, Prepared};
use crate::request::InstancePayload;
use crate::shard::ShardedCache;
use psdp_core::{Encoding, Family};
use psdp_expdot::EngineKind;
use std::fmt;

/// Snapshot format version header (line 1 of every snapshot).
const HEADER: &str = "psdp snapshot v2";

/// Instances with more stored entries than this are snapshotted as
/// hex-encoded `psdp-bin-1` payloads instead of canonical text.
const BIN_PAYLOAD_NNZ_THRESHOLD: usize = 1024;

/// Hex characters per payload line (48 bytes).
const HEX_LINE_CHARS: usize = 96;

/// Why a snapshot failed to load. All variants are recoverable: the
/// caller's cache is untouched and a cold start is always safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The text does not parse as the versioned snapshot format.
    Format {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// An entry parsed but failed full verification (non-canonical
    /// payload, fingerprint hash mismatch, duplicate fingerprint).
    Verify {
        /// What failed to verify.
        msg: String,
    },
    /// Solver preparation over the stored inputs failed.
    Rebuild {
        /// The preparation error.
        msg: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Format { line, msg } => {
                write!(f, "snapshot format error at line {line}: {msg}")
            }
            SnapshotError::Verify { msg } => write!(f, "snapshot verification failed: {msg}"),
            SnapshotError::Rebuild { msg } => {
                write!(f, "snapshot engine rebuild failed: {msg}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Exact, locale-free f64 rendering: the IEEE-754 bit pattern in hex.
fn f64_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`f64_bits`].
fn parse_f64_bits(s: &str, line: usize) -> Result<f64, SnapshotError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| SnapshotError::Format { line, msg: format!("bad f64 bit pattern `{s}`") })
}

/// Render an engine kind as a `engine <tag> [params…]` line body.
fn render_engine(kind: EngineKind) -> String {
    match kind {
        EngineKind::Exact => "exact".to_string(),
        EngineKind::Taylor { eps } => format!("taylor {}", f64_bits(eps)),
        EngineKind::TaylorJl { eps, sketch_const } => {
            format!("taylor_jl {} {}", f64_bits(eps), f64_bits(sketch_const))
        }
        EngineKind::Expv { eps } => format!("expv {}", f64_bits(eps)),
        EngineKind::Auto { eps } => format!("auto {}", f64_bits(eps)),
    }
}

/// Parse the body of an `engine` line.
fn parse_engine(body: &str, line: usize) -> Result<EngineKind, SnapshotError> {
    let mut parts = body.split(' ');
    let tag = parts.next().unwrap_or("");
    let kind = match (tag, parts.next(), parts.next(), parts.next()) {
        ("exact", None, _, _) => EngineKind::Exact,
        ("taylor", Some(eps), None, _) => EngineKind::Taylor { eps: parse_f64_bits(eps, line)? },
        ("taylor_jl", Some(eps), Some(c), None) => EngineKind::TaylorJl {
            eps: parse_f64_bits(eps, line)?,
            sketch_const: parse_f64_bits(c, line)?,
        },
        ("expv", Some(eps), None, _) => EngineKind::Expv { eps: parse_f64_bits(eps, line)? },
        ("auto", Some(eps), None, _) => EngineKind::Auto { eps: parse_f64_bits(eps, line)? },
        _ => {
            return Err(SnapshotError::Format { line, msg: format!("bad engine spec `{body}`") });
        }
    };
    Ok(kind)
}

/// Hex-encode `bytes` into lines of [`HEX_LINE_CHARS`] characters.
fn hex_lines(bytes: &[u8]) -> Vec<String> {
    let mut hex = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        hex.push_str(&format!("{b:02x}"));
    }
    let mut lines = Vec::new();
    let mut rest = hex.as_str();
    while !rest.is_empty() {
        let cut = rest.len().min(HEX_LINE_CHARS);
        let (line, tail) = rest.split_at(cut);
        lines.push(line.to_string());
        rest = tail;
    }
    lines
}

/// Decode a concatenated hex payload back into bytes.
fn hex_decode(s: &str, line: usize) -> Result<Vec<u8>, SnapshotError> {
    let mut out = Vec::with_capacity(s.len() / 2);
    let mut i = 0;
    while i < s.len() {
        let Some(pair) = s.get(i..i + 2) else {
            return Err(SnapshotError::Format { line, msg: "odd-length hex payload".to_string() });
        };
        let byte = u8::from_str_radix(pair, 16)
            .map_err(|_| SnapshotError::Format { line, msg: format!("bad hex byte `{pair}`") })?;
        out.push(byte);
        i += 2;
    }
    Ok(out)
}

/// Serialize every cached fingerprint into the versioned snapshot text.
/// Rendered entry blocks are sorted as strings, so the output is
/// independent of shard count and insertion order (write→load→write is a
/// byte fixpoint).
pub(crate) fn write_snapshot(cache: &ShardedCache) -> String {
    let mut blocks: Vec<String> = Vec::new();
    cache.for_each(|e| blocks.push(render_entry(e)));
    blocks.sort();
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("entries {}\n", blocks.len()));
    for b in blocks {
        out.push_str(&b);
    }
    out
}

/// The snapshot generation paths for `path`, newest first: the live path
/// itself, then `<path>.1` … `<path>.<keep-1>` (`keep` is clamped to at
/// least 1). Loaders try these in order and take the first that verifies.
pub fn generation_paths(path: &str, keep: usize) -> Vec<String> {
    std::iter::once(path.to_string())
        .chain((1..keep.max(1)).map(|i| format!("{path}.{i}")))
        .collect()
}

/// Atomically persist snapshot `text` as the live generation of `path`,
/// keeping up to `keep` generations. The text is written to `<path>.tmp`
/// first; existing generations then rotate up (`<path>.<keep-2>` →
/// `<path>.<keep-1>`, …, `<path>` → `<path>.1`) and the tmp file is
/// renamed into place. A crash at any step leaves every previously
/// complete generation intact — a torn write can only ever produce a
/// stray `.tmp` file, which no loader reads.
///
/// # Errors
/// Printable IO failures (the caller degrades to a summary note; serving
/// is never refused over a snapshot).
pub fn save_to_path(path: &str, text: &str, keep: usize) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("writing {tmp}: {e}"))?;
    let gens = generation_paths(path, keep);
    for pair in gens.windows(2).rev() {
        if let [from, to] = pair {
            if std::fs::metadata(from).is_ok() {
                // Rotation is best-effort: losing an old generation must
                // not fail the save of the new one.
                let _ = std::fs::rename(from, to);
            }
        }
    }
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {tmp} into place: {e}"))
}

fn render_entry(e: &CacheEntry) -> String {
    let payload = e.prepared.payload();
    let binary = payload.total_nnz() > BIN_PAYLOAD_NNZ_THRESHOLD;
    let bytes = payload.encode(if binary { Encoding::Binary } else { Encoding::Text });
    let (payload_kind, payload_lines): (_, Vec<String>) = if binary {
        ("bin", hex_lines(&bytes))
    } else {
        ("text", String::from_utf8_lossy(&bytes).lines().map(String::from).collect())
    };
    let bracket = match &e.bracket {
        Some((params, lo, hi)) => {
            format!("bracket {} {} {params}", f64_bits(*lo), f64_bits(*hi))
        }
        None => "bracket none".to_string(),
    };
    let mut out = String::new();
    out.push_str("entry\n");
    out.push_str(&format!("family {}\n", payload.family().name()));
    out.push_str(&format!("engine {}\n", render_engine(e.engine_kind)));
    out.push_str(&format!("seed {}\n", e.seed));
    out.push_str(&format!("hash {:016x}\n", e.hash));
    out.push_str(&bracket);
    out.push('\n');
    out.push_str(&format!("payload {payload_kind} {}\n", payload_lines.len()));
    for line in payload_lines {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

/// Cursor over snapshot lines with 1-based numbering for errors.
struct Cursor<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<(usize, &'a str)> {
        let line = self.lines.get(self.pos).copied()?;
        self.pos += 1;
        Some((self.pos, line))
    }

    fn expect_field(&mut self, name: &str) -> Result<(usize, &'a str), SnapshotError> {
        let Some((no, line)) = self.next() else {
            return Err(SnapshotError::Format {
                line: self.pos,
                msg: format!("unexpected end of snapshot, wanted `{name} …`"),
            });
        };
        match line.strip_prefix(name).and_then(|r| r.strip_prefix(' ')) {
            Some(rest) => Ok((no, rest)),
            None => Err(SnapshotError::Format {
                line: no,
                msg: format!("expected `{name} …`, found `{line}`"),
            }),
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), SnapshotError> {
        let Some((no, line)) = self.next() else {
            return Err(SnapshotError::Format {
                line: self.pos,
                msg: format!("unexpected end of snapshot, wanted `{lit}`"),
            });
        };
        if line == lit {
            Ok(())
        } else {
            Err(SnapshotError::Format {
                line: no,
                msg: format!("expected `{lit}`, found `{line}`"),
            })
        }
    }
}

/// Parse, verify, and rebuild every entry of a snapshot. On success the
/// entries are ready for [`ShardedCache::insert`]; on any failure nothing
/// is returned and the caller's cache is untouched.
pub(crate) fn load_snapshot(text: &str) -> Result<Vec<CacheEntry>, SnapshotError> {
    let mut cur = Cursor { lines: text.lines().collect(), pos: 0 };
    cur.expect_literal(HEADER)?;
    let (no, count_body) = cur.expect_field("entries")?;
    let count: usize = count_body.parse().map_err(|_| SnapshotError::Format {
        line: no,
        msg: format!("bad entry count `{count_body}`"),
    })?;

    let mut entries: Vec<CacheEntry> = Vec::with_capacity(count);
    for _ in 0..count {
        let entry = load_entry(&mut cur)?;
        let dup = entries.iter().any(|e| {
            e.hash == entry.hash
                && e.engine_kind == entry.engine_kind
                && e.seed == entry.seed
                && e.prepared.payload().structural_eq(&entry.prepared.payload())
        });
        if dup {
            return Err(SnapshotError::Verify {
                msg: format!("duplicate fingerprint (hash {:016x})", entry.hash),
            });
        }
        entries.push(entry);
    }
    if let Some((no, line)) = cur.next() {
        return Err(SnapshotError::Format {
            line: no,
            msg: format!("trailing content after last entry: `{line}`"),
        });
    }
    Ok(entries)
}

/// Decode and canonicality-check one entry's payload: the instance and
/// its structural content hash.
fn load_payload(
    family: &str,
    fam_no: usize,
    kind: &str,
    bytes: &[u8],
) -> Result<(InstancePayload, u64), SnapshotError> {
    let encoding = if kind == "bin" { Encoding::Binary } else { Encoding::Text };
    let family = match (family, kind) {
        ("packing", "text" | "bin") => Family::Packing,
        ("mixed", "text" | "bin") => Family::Mixed,
        _ => {
            return Err(SnapshotError::Format {
                line: fam_no,
                msg: format!("unknown family/payload combination `{family}`/`{kind}`"),
            })
        }
    };
    let (payload, hash) = InstancePayload::decode(family, encoding, bytes)
        .map_err(|e| SnapshotError::Verify { msg: format!("instance rejected: {e}") })?;
    if payload.encode(encoding) != bytes {
        return Err(SnapshotError::Verify {
            msg: "payload is not canonical (read→write is not a byte fixpoint)".to_string(),
        });
    }
    Ok((payload, hash))
}

fn load_entry(cur: &mut Cursor<'_>) -> Result<CacheEntry, SnapshotError> {
    cur.expect_literal("entry")?;
    let (fam_no, family) = cur.expect_field("family")?;
    let family = family.to_string();
    let (eng_no, engine_body) = cur.expect_field("engine")?;
    let engine_kind = parse_engine(engine_body, eng_no)?;
    let (seed_no, seed_body) = cur.expect_field("seed")?;
    let seed: u64 = seed_body.parse().map_err(|_| SnapshotError::Format {
        line: seed_no,
        msg: format!("bad seed `{seed_body}`"),
    })?;
    let (hash_no, hash_body) = cur.expect_field("hash")?;
    let hash = u64::from_str_radix(hash_body, 16).map_err(|_| SnapshotError::Format {
        line: hash_no,
        msg: format!("bad fingerprint hash `{hash_body}`"),
    })?;
    let (br_no, bracket_body) = cur.expect_field("bracket")?;
    let bracket: Option<(String, f64, f64)> = if bracket_body == "none" {
        None
    } else {
        let mut parts = bracket_body.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(lo), Some(hi), Some(params)) if !params.is_empty() => {
                Some((params.to_string(), parse_f64_bits(lo, br_no)?, parse_f64_bits(hi, br_no)?))
            }
            _ => {
                return Err(SnapshotError::Format {
                    line: br_no,
                    msg: format!("bad bracket spec `{bracket_body}`"),
                });
            }
        }
    };
    let (pay_no, pay_body) = cur.expect_field("payload")?;
    let mut pay_parts = pay_body.split(' ');
    let (kind, n_lines) = match (pay_parts.next(), pay_parts.next(), pay_parts.next()) {
        (Some(kind @ ("text" | "bin")), Some(n), None) => {
            let n: usize = n.parse().map_err(|_| SnapshotError::Format {
                line: pay_no,
                msg: format!("bad payload line count `{n}`"),
            })?;
            (kind, n)
        }
        _ => {
            return Err(SnapshotError::Format {
                line: pay_no,
                msg: format!("bad payload spec `{pay_body}`"),
            });
        }
    };
    let mut body = String::new();
    for _ in 0..n_lines {
        let Some((_, line)) = cur.next() else {
            return Err(SnapshotError::Format {
                line: cur.pos,
                msg: "unexpected end of snapshot inside payload".to_string(),
            });
        };
        body.push_str(line);
        if kind == "text" {
            body.push('\n');
        }
    }
    cur.expect_literal("end")?;

    let bytes = if kind == "text" { body.into_bytes() } else { hex_decode(&body, pay_no)? };
    let (payload, content_hash) = load_payload(&family, fam_no, kind, &bytes)?;

    // Rebuild + verify: the prep hash is recomputed from the rebuilt
    // inputs exactly as `prep_hash` would compute it for a live request,
    // then checked against the stored fingerprint — a tampered or
    // bit-rotted entry cannot alias a different fingerprint.
    let prepared = Prepared::build(&payload, engine_kind, seed)
        .map_err(|e| SnapshotError::Rebuild { msg: e.to_string() })?;
    let computed = prep_hash_parts(payload.family() as u8, engine_kind, seed, content_hash);
    if computed != hash {
        return Err(SnapshotError::Verify {
            msg: format!("fingerprint hash mismatch (stored {hash:016x})"),
        });
    }
    if bracket.is_some() && payload.family() == Family::Mixed {
        return Err(SnapshotError::Verify {
            msg: "mixed entries cannot carry a packing bracket".to_string(),
        });
    }
    Ok(CacheEntry { hash, engine_kind, seed, prepared, memo: Vec::new(), bracket, last_used: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Service, ServiceOptions, StreamItem, StreamOutcome};
    use crate::ServeRequest;
    use psdp_core::{ApproxOptions, MixedApproxOptions, MixedInstance, PackingInstance};
    use psdp_sparse::PsdMatrix;
    use std::sync::Arc;

    fn warm_service() -> Service {
        let pack = Arc::new(
            PackingInstance::new(vec![
                PsdMatrix::Diagonal(vec![2.0, 0.0]),
                PsdMatrix::Diagonal(vec![0.0, 4.0]),
            ])
            .unwrap(),
        );
        let mixed = Arc::new(
            MixedInstance::new(
                vec![PsdMatrix::Diagonal(vec![2.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 2.0])],
                vec![PsdMatrix::Diagonal(vec![1.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 1.0])],
            )
            .unwrap(),
        );
        let mut service = Service::new(ServiceOptions::default());
        let items = vec![
            StreamItem::Execute {
                request: ServeRequest::optimize("a", pack, ApproxOptions::serving(0.1)),
                ctx: (),
            },
            StreamItem::Execute {
                request: ServeRequest::mixed("b", mixed, MixedApproxOptions::practical(0.1)),
                ctx: (),
            },
        ];
        let report = service.run_stream(items.into_iter(), |_, out| {
            if let StreamOutcome::Response(r) = out {
                assert!(r.result.is_ok());
            }
        });
        assert_eq!(report.errors, 0);
        service
    }

    #[test]
    fn write_load_write_is_a_byte_fixpoint() {
        let service = warm_service();
        let snap1 = service.snapshot_string();
        assert!(snap1.starts_with(HEADER));
        let mut fresh = Service::new(ServiceOptions::default());
        let loaded = fresh.load_snapshot(&snap1).expect("snapshot loads");
        assert_eq!(loaded, 2);
        assert_eq!(fresh.cached_fingerprints(), 2);
        let snap2 = fresh.snapshot_string();
        assert_eq!(snap1, snap2, "write→load→write must be byte-identical");
    }

    #[test]
    fn load_into_different_shard_count_keeps_all_entries() {
        let service = warm_service();
        let snap = service.snapshot_string();
        for shards in [1usize, 3, 8] {
            let mut s = Service::new(ServiceOptions { shards, ..ServiceOptions::default() });
            assert_eq!(s.load_snapshot(&snap).expect("loads"), 2);
            assert_eq!(s.snapshot_string(), snap, "shard count must not change snapshot bytes");
        }
    }

    #[test]
    fn large_instances_snapshot_as_binary_payloads() {
        use crate::cache::{prep_engine_of, prep_hash, Prepared};
        use psdp_core::DecisionOptions;
        // 600 diagonal constraints over dim 2 → total_nnz 1200 > threshold.
        let mats: Vec<PsdMatrix> = (0..600)
            .map(|i| PsdMatrix::Diagonal(vec![1.0 + (i % 7) as f64, 2.0 + (i % 3) as f64]))
            .collect();
        let inst = Arc::new(PackingInstance::new(mats).unwrap());
        let req =
            ServeRequest::decision("big", Arc::clone(&inst), 1.0, DecisionOptions::practical(0.2));
        let (engine_kind, seed) = prep_engine_of(&req.kind);
        let entry = CacheEntry {
            hash: prep_hash(&req),
            engine_kind,
            seed,
            prepared: Prepared::Packing {
                inst: Arc::clone(&inst),
                engine: Arc::new(psdp_expdot::Engine::new(engine_kind, inst.mats(), seed).unwrap()),
            },
            memo: Vec::new(),
            bracket: None,
            last_used: 0,
        };
        let cache = ShardedCache::new(1, 8);
        cache.insert(entry);
        let snap = write_snapshot(&cache);
        assert!(snap.contains("payload bin "), "large instance must use the binary payload");
        let entries = load_snapshot(&snap).expect("binary payload loads");
        assert_eq!(entries.len(), 1);
        let reloaded = ShardedCache::new(1, 8);
        for e in entries {
            reloaded.insert(e);
        }
        assert_eq!(write_snapshot(&reloaded), snap, "bin payload write→load→write fixpoint");
    }

    #[test]
    fn corrupted_snapshots_error_cleanly() {
        let service = warm_service();
        let snap = service.snapshot_string();
        let cases: Vec<String> = vec![
            String::new(),
            "garbage\n".to_string(),
            // Old (v1) and future snapshot versions are both rejected.
            snap.replace("psdp snapshot v2", "psdp snapshot v1"),
            snap.replace("psdp snapshot v2", "psdp snapshot v3"),
            snap.replace("entries 2", "entries 3"),
            snap.replace("family packing", "family quantum"),
            snap.replace("seed 0", "seed banana"),
            snap.replace("payload text", "payload braille"),
            // Flip a fingerprint hash digit.
            {
                let mut s = String::new();
                for line in snap.lines() {
                    if let Some(rest) = line.strip_prefix("hash ") {
                        let flipped: String =
                            rest.chars().map(|c| if c == '0' { '1' } else { '0' }).collect();
                        s.push_str(&format!("hash {flipped}\n"));
                    } else {
                        s.push_str(line);
                        s.push('\n');
                    }
                }
                s
            },
            // Truncate mid-entry.
            snap.lines().take(5).map(|l| format!("{l}\n")).collect(),
            // Perturb the first payload body line (breaks canonicality or
            // the fingerprint hash, whichever trips first).
            {
                let mut out = String::new();
                let mut poison_next = false;
                let mut poisoned = false;
                for line in snap.lines() {
                    if poison_next && !poisoned {
                        out.push_str(&format!("{line} junk\n"));
                        poisoned = true;
                    } else {
                        out.push_str(line);
                        out.push('\n');
                    }
                    poison_next = line.starts_with("payload ");
                }
                assert!(poisoned, "snapshot must contain a payload body");
                out
            },
        ];
        for (i, bad) in cases.iter().enumerate() {
            let mut s = Service::new(ServiceOptions::default());
            let res = s.load_snapshot(bad);
            assert!(res.is_err(), "case {i} should fail to load");
            assert_eq!(s.cached_fingerprints(), 0, "case {i} must leave the cache cold");
        }
    }

    #[test]
    fn duplicate_entries_are_rejected() {
        let service = warm_service();
        let snap = service.snapshot_string();
        // Duplicate the whole entry list: entries 4 with each entry twice.
        let mut lines = snap.lines();
        let header = lines.next().unwrap();
        let _count = lines.next().unwrap();
        let body: Vec<&str> = lines.collect();
        let doubled = format!("{header}\nentries 4\n{}\n{}\n", body.join("\n"), body.join("\n"));
        let mut s = Service::new(ServiceOptions::default());
        match s.load_snapshot(&doubled) {
            Err(SnapshotError::Verify { msg }) => assert!(msg.contains("duplicate")),
            other => panic!("expected duplicate-fingerprint verify error, got {other:?}"),
        }
    }

    #[test]
    fn engine_kinds_roundtrip_exactly() {
        let kinds = [
            EngineKind::Exact,
            EngineKind::Taylor { eps: 0.1 },
            EngineKind::TaylorJl { eps: 0.05, sketch_const: 4.0 },
            EngineKind::Expv { eps: 0.1 },
            EngineKind::Auto { eps: 0.3 },
        ];
        for kind in kinds {
            let body = render_engine(kind);
            let parsed = parse_engine(&body, 1).expect("parses");
            assert_eq!(parsed, kind);
        }
        assert!(parse_engine("taylor", 1).is_err());
        assert!(parse_engine("exact 3ff0000000000000", 1).is_err());
        assert!(parse_engine("warp 3ff0000000000000", 1).is_err());
    }

    #[test]
    fn warm_start_serves_without_prep_builds() {
        let service = warm_service();
        let snap = service.snapshot_string();
        let pack = Arc::new(
            PackingInstance::new(vec![
                PsdMatrix::Diagonal(vec![2.0, 0.0]),
                PsdMatrix::Diagonal(vec![0.0, 4.0]),
            ])
            .unwrap(),
        );
        let mut warm = Service::new(ServiceOptions::default());
        warm.load_snapshot(&snap).expect("loads");
        let items = vec![StreamItem::Execute {
            request: ServeRequest::optimize("c", pack, ApproxOptions::serving(0.1)),
            ctx: (),
        }];
        let report = warm.run_stream(items.into_iter(), |_, _| {});
        assert_eq!(report.prep_builds, 0, "warm-started fingerprint must not rebuild");
        assert_eq!(report.tiers.prep_reuses, 1);
    }
}
