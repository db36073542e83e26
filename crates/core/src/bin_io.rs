//! The `psdp-bin-1` binary encoding of both instance families (the binary
//! half of [`crate::codec`]) — zero-copy reads, streaming writes, and the
//! structural content hash the serving stack fingerprints with
//! (DESIGN.md §14).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic        8 bytes   b"PSDPBIN1"
//! version      u32       1
//! family       u32       0 = packing, 1 = mixed
//! dims         u64 × s   one per side (packing: dim; mixed: pack_dim, cover_dim)
//! n            u64       constraint count (coordinates for mixed)
//! content_hash u64       structural 4-lane FNV-1a hash (see below)
//! records      [len u64][payload] × s·n   (side by side: n pack, then n cover)
//! trailer      u64       4-lane FNV-1a over every preceding byte
//! ```
//!
//! Record payloads start with a `u32` kind tag (0 diagonal, 1 sparse,
//! 2 factor, 3 dense) followed by the constraint's canonical CSR / dense
//! storage verbatim (`f64` bit patterns, `u64` indices). The **content
//! hash** is the structural hash of `[family byte, dims, n, record
//! payloads…]` (the family byte is the [`Family`] tag) — a function of the
//! *parsed* instance, so a text submission and a binary submission of the
//! same instance hash identically, and the serving cache can fingerprint a
//! binary request straight off the header without decoding, let alone
//! re-serializing, anything.
//!
//! Both integrity hashes use **4-lane FNV-1a** (`FnvWide`'s scheme):
//! byte `p` of the logical stream feeds lane `p mod 4`, and the final
//! value folds the four lane states plus the stream length through a
//! plain FNV-1a chain. A single FNV-1a chain is latency-bound near
//! 1 ns/byte (each step is an xor feeding a 64-bit multiply); four
//! independent chains pipeline on one core, so verification runs ~4×
//! faster with the same per-byte, order-sensitive error detection. The
//! scalar [`fnv1a`] stays as the cheap short-key hash (cache keys,
//! fingerprint mixing).
//!
//! The reader validates in place over the input `&[u8]`: header guards
//! first (`checked_mul` on every size precomputation, the same
//! `MAX_DIM`-family limits as the text reader), then the length-prefixed
//! record table is sliced without copying, the trailer and content hash are
//! verified, and only then are records decoded — in parallel via rayon,
//! one independent decoder per record slice. The decoded records build
//! their instance through the same validation as the text path's, so the
//! two encodings accept exactly the same instances.

use crate::codec::{mixed_from, Family};
use crate::error::PsdpError;
use crate::instance::{MixedInstance, PackingInstance};
use crate::io::{MAX_DENSE_DIM, MAX_DIM, MAX_PREALLOC};
use psdp_linalg::Mat;
use psdp_sparse::{Csr, FactorPsd, PsdMatrix};
use rayon::prelude::*;

/// Magic bytes opening every `psdp-bin-1` file or frame.
pub(crate) const BIN_MAGIC: &[u8; 8] = b"PSDPBIN1";
/// Current (only) binary format version.
const BIN_VERSION: u32 = 1;

const KIND_DIAGONAL: u32 = 0;
const KIND_SPARSE: u32 = 1;
const KIND_FACTOR: u32 = 2;
const KIND_DENSE: u32 = 3;

/// Total record bytes below which [`decode_records`] decodes on the
/// calling thread: a smaller decode takes less time than handing it to
/// the pool's workers (and, on a process's first parallel call, starting
/// them), which would dominate, and jitter, the read.
const PARALLEL_DECODE_BYTES: usize = 1 << 17;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

/// FNV-1a 64-bit hash of a byte slice (the repo-wide fingerprint hash;
/// the serving cache re-exports this).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut f = Fnv1a::new();
    f.update(bytes);
    f.finish()
}

/// Incremental FNV-1a 64 hasher, for hashing discontiguous slices without
/// concatenating them.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Start a fresh hash at the FNV offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = fnv_step(h, b);
        }
        self.0 = h;
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Incremental **4-lane** FNV-1a 64: byte `p` of the logical stream feeds
/// lane `p mod 4`; [`FnvWide::finish`] folds the lane states and the
/// stream length through a plain FNV-1a chain. Exactly deterministic and
/// split-invariant (absorbing one slice or the same bytes in pieces gives
/// the same value), but roughly 4× the throughput of a single chain —
/// four xor-multiply dependency chains pipeline on one core. This is the
/// hash behind the binary format's trailer and the structural content
/// hash; it is *not* interchangeable with [`fnv1a`].
#[derive(Debug, Clone)]
pub(crate) struct FnvWide {
    /// Lane states, rotated so the lane absorbing the next byte is first.
    lanes: [u64; 4],
    /// Total bytes absorbed.
    pos: u64,
}

impl FnvWide {
    /// Start a fresh hash (per-lane bases are distinct one-byte chains).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        FnvWide { lanes: [0, 1, 2, 3].map(|i| fnv_step(FNV_BASIS, i)), pos: 0 }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        let mut chunks = bytes.chunks_exact(4);
        for q in &mut chunks {
            // Slice pattern, not indexing: chunks_exact guarantees len 4.
            if let &[x0, x1, x2, x3] = q {
                a = fnv_step(a, x0);
                b = fnv_step(b, x1);
                c = fnv_step(c, x2);
                d = fnv_step(d, x3);
            }
        }
        let mut lanes = [a, b, c, d];
        let rem = chunks.remainder();
        for (lane, &x) in lanes.iter_mut().zip(rem) {
            *lane = fnv_step(*lane, x);
        }
        // Keep the invariant: the lane the next byte feeds sits first.
        lanes.rotate_left(rem.len());
        self.lanes = lanes;
        self.pos = self.pos.wrapping_add(bytes.len() as u64);
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        // Undo the rotation so lanes fold in stream order.
        let mut lanes = self.lanes;
        lanes.rotate_right((self.pos % 4) as usize);
        let mut h = FNV_BASIS;
        for lane in lanes {
            for byte in lane.to_le_bytes() {
                h = fnv_step(h, byte);
            }
        }
        for byte in self.pos.to_le_bytes() {
            h = fnv_step(h, byte);
        }
        h
    }
}

/// One-shot [`FnvWide`] over a byte slice — the binary format's trailer
/// and whole-buffer integrity hash.
pub(crate) fn fnv_wide(bytes: &[u8]) -> u64 {
    let mut f = FnvWide::new();
    f.update(bytes);
    f.finish()
}

/// The family a binary header tags, or `None` when the bytes are not a
/// plausible `psdp-bin-1` header or the tag names no family.
pub(crate) fn family_of(bytes: &[u8]) -> Option<Family> {
    if !bytes.starts_with(BIN_MAGIC) || rd_u32(bytes, 8)? != BIN_VERSION {
        return None;
    }
    [Family::Packing, Family::Mixed].into_iter().find(|&f| rd_u32(bytes, 12) == Some(f as u32))
}

/// Content hash read straight off a binary header without decoding the
/// payload — the hash-first admission path of the serving stack. The full
/// reader re-verifies it against the records, so trusting it for *routing*
/// is sound: a lying header fails validation before any solver runs.
pub fn peek_content_hash(bytes: &[u8]) -> Option<u64> {
    // After the magic, version and family, one dimension per side, and n.
    rd_u64(bytes, 24 + 8 * family_of(bytes)?.layout().sides.len())
}

fn rd_u32(b: &[u8], off: usize) -> Option<u32> {
    let s = b.get(off..off.checked_add(4)?)?;
    s.try_into().ok().map(u32::from_le_bytes)
}

fn rd_u64(b: &[u8], off: usize) -> Option<u64> {
    let s = b.get(off..off.checked_add(8)?)?;
    s.try_into().ok().map(u64::from_le_bytes)
}

fn bad(off: usize, msg: &str) -> PsdpError {
    PsdpError::InvalidInstance(format!("psdp-bin-1 byte {off}: {msg}"))
}

/// Bounds-checked little-endian cursor over the input buffer. Every read
/// is via `slice::get` — malformed input surfaces as a typed error with a
/// byte offset, never a panic (audit rule R1).
struct Bytes<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Bytes<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Bytes { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PsdpError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| bad(self.pos, &format!("{what}: length overflows")))?;
        let s = self.buf.get(self.pos..end).ok_or_else(|| {
            bad(self.pos, &format!("{what}: truncated ({n} bytes declared, input ends)"))
        })?;
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self, what: &str) -> Result<u32, PsdpError> {
        let s = self.take(4, what)?;
        s.try_into().map(u32::from_le_bytes).map_err(|_| bad(self.pos, what))
    }

    fn u64(&mut self, what: &str) -> Result<u64, PsdpError> {
        let s = self.take(8, what)?;
        s.try_into().map(u64::from_le_bytes).map_err(|_| bad(self.pos, what))
    }

    /// Read a `u64` that must fit under `cap` (an untrusted size field).
    fn size(&mut self, cap: usize, what: &str) -> Result<usize, PsdpError> {
        let at = self.pos;
        let v = self.u64(what)?;
        if v > cap as u64 {
            return Err(bad(at, &format!("{what} {v} exceeds limit {cap}")));
        }
        Ok(v as usize)
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
}

/// `a * b` with overflow as a typed error (satellite: every `nnz * 8`-style
/// size precomputation on untrusted headers goes through here).
fn checked_mul(a: usize, b: usize, off: usize, what: &str) -> Result<usize, PsdpError> {
    a.checked_mul(b).ok_or_else(|| bad(off, &format!("{what}: size {a}*{b} overflows")))
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Canonical record payload for one constraint — also the exact byte
/// sequence the structural content hash absorbs for it.
fn record_bytes(a: &PsdMatrix) -> Vec<u8> {
    let mut out = Vec::new();
    match a {
        PsdMatrix::Diagonal(d) => {
            push_u32(&mut out, KIND_DIAGONAL);
            let nz: Vec<(usize, f64)> =
                d.iter().enumerate().filter(|(_, &v)| v != 0.0).map(|(j, &v)| (j, v)).collect();
            push_u64(&mut out, nz.len() as u64);
            for (j, v) in nz {
                push_u64(&mut out, j as u64);
                push_u64(&mut out, v.to_bits());
            }
        }
        PsdMatrix::Sparse(s) => {
            push_u32(&mut out, KIND_SPARSE);
            push_u64(&mut out, s.nnz() as u64);
            for &p in s.row_ptr() {
                push_u64(&mut out, p as u64);
            }
            for &c in s.col_idx() {
                push_u64(&mut out, c as u64);
            }
            for &v in s.values() {
                push_u64(&mut out, v.to_bits());
            }
        }
        PsdMatrix::Factor(fp) => {
            let q = fp.factor();
            push_u32(&mut out, KIND_FACTOR);
            push_u64(&mut out, q.ncols() as u64);
            push_u64(&mut out, q.nnz() as u64);
            for &p in q.row_ptr() {
                push_u64(&mut out, p as u64);
            }
            for &c in q.col_idx() {
                push_u64(&mut out, c as u64);
            }
            for &v in q.values() {
                push_u64(&mut out, v.to_bits());
            }
        }
        PsdMatrix::Dense(m) => {
            push_u32(&mut out, KIND_DENSE);
            for &v in m.as_slice() {
                push_u64(&mut out, v.to_bits());
            }
        }
    }
    out
}

/// The structural content hash from its parts: the family byte, the side
/// dimensions, the count and the record payloads.
fn hash_parts(family: Family, dims: &[usize], n: usize, records: &[impl AsRef<[u8]>]) -> u64 {
    let mut f = FnvWide::new();
    f.update(&[family as u8]);
    for &dim in dims {
        f.update(&(dim as u64).to_le_bytes());
    }
    f.update(&(n as u64).to_le_bytes());
    for r in records {
        f.update(r.as_ref());
    }
    f.finish()
}

/// The record payloads of `sides`, side by side, with the hash parts
/// they go with.
fn records_of(sides: &[&PackingInstance]) -> (Vec<usize>, usize, Vec<Vec<u8>>) {
    let dims = sides.iter().map(|s| s.dim()).collect();
    let n = sides.first().map_or(0, |s| s.n());
    let records = sides.iter().flat_map(|s| s.mats()).map(record_bytes).collect();
    (dims, n, records)
}

/// Structural content hash of the `sides` of a `family` instance —
/// identical whether the instance arrived as text or as `psdp-bin-1`
/// bytes.
pub(crate) fn content_hash(family: Family, sides: &[&PackingInstance]) -> u64 {
    let (dims, n, records) = records_of(sides);
    hash_parts(family, &dims, n, &records)
}

/// Serialize the `sides` of a `family` instance to `psdp-bin-1` bytes.
pub(crate) fn write(family: Family, sides: &[&PackingInstance]) -> Vec<u8> {
    let (dims, n, records) = records_of(sides);
    let mut out = Vec::new();
    out.extend_from_slice(BIN_MAGIC);
    push_u32(&mut out, BIN_VERSION);
    push_u32(&mut out, family as u32);
    for &dim in &dims {
        push_u64(&mut out, dim as u64);
    }
    push_u64(&mut out, n as u64);
    push_u64(&mut out, hash_parts(family, &dims, n, &records));
    for r in &records {
        push_u64(&mut out, r.len() as u64);
        out.extend_from_slice(r);
    }
    let trailer = fnv_wide(&out);
    push_u64(&mut out, trailer);
    out
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

fn check_magic_version(c: &mut Bytes<'_>) -> Result<(), PsdpError> {
    let magic = c.take(BIN_MAGIC.len(), "magic")?;
    if magic != BIN_MAGIC {
        return Err(bad(0, "bad magic (not a psdp-bin-1 file)"));
    }
    let version = c.u32("version")?;
    if version != BIN_VERSION {
        return Err(bad(8, &format!("unsupported version {version} (want {BIN_VERSION})")));
    }
    Ok(())
}

/// Slice the length-prefixed record table without copying.
fn slice_records<'a>(c: &mut Bytes<'a>, count: usize) -> Result<Vec<&'a [u8]>, PsdpError> {
    let mut records = Vec::with_capacity(count.min(MAX_PREALLOC));
    for i in 0..count {
        let at = c.pos;
        let len = c.u64("record length")?;
        // The record must fit in what's left of the buffer (minus the
        // 8-byte trailer); comparing against `remaining` keeps the check
        // overflow-free without trusting the declared length.
        if len > c.remaining() as u64 {
            return Err(bad(
                at,
                &format!("record {i}: declared {len} bytes but only {} remain", c.remaining()),
            ));
        }
        records.push(c.take(len as usize, "record payload")?);
    }
    Ok(records)
}

/// Verify the whole-file trailer checksum and that nothing follows it.
fn check_trailer(c: &mut Bytes<'_>, bytes: &[u8]) -> Result<(), PsdpError> {
    let body_end = c.pos;
    let want = fnv_wide(bytes.get(..body_end).unwrap_or(&[]));
    let at = c.pos;
    let got = c.u64("trailer checksum")?;
    if got != want {
        return Err(bad(
            at,
            &format!("checksum mismatch (stored {got:#018x}, computed {want:#018x})"),
        ));
    }
    if c.remaining() != 0 {
        return Err(bad(c.pos, &format!("{} trailing bytes after checksum", c.remaining())));
    }
    Ok(())
}

/// Split an 8-byte chunk into its `u64` (the chunk is always 8 bytes —
/// callers iterate `chunks_exact(8)` — but the conversion stays checked).
#[inline]
fn chunk_u64(q: &[u8], at: usize, what: &str) -> Result<u64, PsdpError> {
    <[u8; 8]>::try_from(q).map(u64::from_le_bytes).map_err(|_| bad(at, what))
}

fn decode_diagonal(c: &mut Bytes<'_>, dim: usize) -> Result<PsdMatrix, PsdpError> {
    let nnz = c.size(dim, "diagonal nnz")?;
    let at = c.pos;
    // One bulk slice for all (coordinate, value) pairs, decoded by chunks.
    let raw = c.take(checked_mul(nnz, 16, at, "diagonal entries")?, "diagonal entries")?;
    let mut d = vec![0.0; dim];
    let mut prev: Option<usize> = None;
    for pair in raw.chunks_exact(16) {
        let (jq, vq) = pair.split_at(8);
        let j = chunk_u64(jq, at, "diagonal coordinate")?;
        if j >= dim as u64 {
            return Err(bad(at, &format!("diagonal coordinate {j} exceeds limit {}", dim - 1)));
        }
        let j = j as usize;
        if prev.is_some_and(|p| p >= j) {
            return Err(bad(at, "diagonal coordinates not strictly increasing"));
        }
        prev = Some(j);
        let v = f64::from_bits(chunk_u64(vq, at, "diagonal value")?);
        if let Some(slot) = d.get_mut(j) {
            *slot = v;
        }
    }
    Ok(PsdMatrix::Diagonal(d))
}

fn decode_csr(
    c: &mut Bytes<'_>,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    what: &str,
) -> Result<Csr, PsdpError> {
    let at = c.pos;
    // All three array byte-sizes via checked_mul before any allocation.
    let rp_len = checked_mul(nrows.saturating_add(1), 8, at, what)?;
    let idx_len = checked_mul(nnz, 8, at, what)?;
    let need = rp_len
        .checked_add(checked_mul(idx_len, 2, at, what)?)
        .ok_or_else(|| bad(at, &format!("{what}: total size overflows")))?;
    if need > c.remaining() {
        return Err(bad(
            at,
            &format!("{what}: needs {need} bytes but only {} remain", c.remaining()),
        ));
    }
    // Bulk-slice each array once, then convert by 8-byte chunks: no
    // per-element cursor bookkeeping on the hot path.
    let read_u64s = |c: &mut Bytes<'_>, count: usize, cap: usize, label: &str| {
        let at = c.pos;
        let raw = c.take(count.saturating_mul(8), label)?;
        let mut out = Vec::with_capacity(count.min(MAX_PREALLOC));
        for q in raw.chunks_exact(8) {
            let v = chunk_u64(q, at, label)?;
            if v > cap as u64 {
                return Err(bad(at, &format!("{label} {v} exceeds limit {cap}")));
            }
            out.push(v as usize);
        }
        Ok::<Vec<usize>, PsdpError>(out)
    };
    let row_ptr = read_u64s(c, nrows + 1, nnz, &format!("{what} row_ptr entry"))?;
    let col_idx = read_u64s(c, nnz, ncols.saturating_sub(1), &format!("{what} column index"))?;
    let raw = c.take(idx_len, &format!("{what} values"))?;
    let mut values = Vec::with_capacity(nnz.min(MAX_PREALLOC));
    // `chunks_exact(8)` only yields full chunks, so the conversion cannot
    // fail; skipping the fallible path keeps this loop allocation-free.
    for q in raw.chunks_exact(8) {
        if let Ok(arr) = <[u8; 8]>::try_from(q) {
            values.push(f64::from_bits(u64::from_le_bytes(arr)));
        }
    }
    Csr::try_from_raw(nrows, ncols, row_ptr, col_idx, values)
        .map_err(|msg| bad(at, &format!("{what}: {msg}")))
}

fn decode_dense(c: &mut Bytes<'_>, dim: usize) -> Result<PsdMatrix, PsdpError> {
    let at = c.pos;
    if dim > MAX_DENSE_DIM {
        return Err(bad(at, &format!("dense block dim {dim} exceeds limit {MAX_DENSE_DIM}")));
    }
    let cells = checked_mul(dim, dim, at, "dense block")?;
    let need = checked_mul(cells, 8, at, "dense block")?;
    if need != c.remaining() {
        return Err(bad(
            at,
            &format!("dense block: needs {need} bytes, record has {}", c.remaining()),
        ));
    }
    let payload = c.take(need, "dense values")?;
    let mut m = Mat::zeros(dim, dim);
    for (slot, chunk) in m.as_mut_slice().iter_mut().zip(payload.chunks_exact(8)) {
        if let Ok(arr) = <[u8; 8]>::try_from(chunk) {
            *slot = f64::from_bits(u64::from_le_bytes(arr));
        }
    }
    // Same post-read normalization as the text path; bitwise identity on
    // exactly-symmetric input, so roundtrips stay exact.
    m.symmetrize();
    Ok(PsdMatrix::Dense(m))
}

fn decode_record(payload: &[u8], dim: usize) -> Result<PsdMatrix, PsdpError> {
    let mut c = Bytes::new(payload);
    let kind = c.u32("record kind")?;
    let mat = match kind {
        KIND_DIAGONAL => decode_diagonal(&mut c, dim)?,
        KIND_SPARSE => {
            let nnz = c.size(MAX_DIM.saturating_mul(MAX_DIM), "sparse nnz")?;
            PsdMatrix::Sparse(decode_csr(&mut c, dim, dim, nnz, "sparse")?)
        }
        KIND_FACTOR => {
            let rank = c.size(MAX_DIM, "factor rank")?;
            if rank == 0 {
                return Err(bad(4, "factor rank must be >= 1"));
            }
            let nnz = c.size(MAX_DIM.saturating_mul(MAX_DIM), "factor nnz")?;
            PsdMatrix::Factor(FactorPsd::new(decode_csr(&mut c, dim, rank, nnz, "factor")?))
        }
        KIND_DENSE => decode_dense(&mut c, dim)?,
        other => return Err(bad(0, &format!("unknown record kind {other}"))),
    };
    if c.remaining() != 0 {
        return Err(bad(c.pos, &format!("{} trailing bytes in record", c.remaining())));
    }
    Ok(mat)
}

/// Decode record slices, in parallel once they reach
/// [`PARALLEL_DECODE_BYTES`] (order-preserving map+collect either way; the
/// first error in record order wins, so messages are deterministic).
fn decode_records(records: &[&[u8]], dims: &[usize]) -> Result<Vec<PsdMatrix>, PsdpError> {
    let decode = |i: usize| {
        let r = records.get(i).copied().unwrap_or(&[]);
        let dim = dims.get(i).copied().unwrap_or(0);
        decode_record(r, dim).map_err(|e| PsdpError::InvalidInstance(format!("record {i}: {e}")))
    };
    let bytes: usize = records.iter().map(|r| r.len()).sum();
    if bytes < PARALLEL_DECODE_BYTES {
        return (0..records.len()).map(decode).collect();
    }
    let decoded: Vec<Result<PsdMatrix, PsdpError>> =
        (0..records.len()).into_par_iter().map(decode).collect();
    decoded.into_iter().collect()
}

/// Parse `psdp-bin-1` bytes of a `family` instance, returning its
/// constraint records, side by side, and its verified structural content
/// hash.
///
/// # Errors
/// [`PsdpError::InvalidInstance`] with a byte-offset-anchored message on
/// any malformed input (bad magic, truncated blob, checksum or content-hash
/// mismatch, overflowing header sizes, trailing bytes, or a record that
/// does not decode).
pub(crate) fn read(family: Family, bytes: &[u8]) -> Result<(Vec<PsdMatrix>, u64), PsdpError> {
    let layout = family.layout();
    let mut c = Bytes::new(bytes);
    check_magic_version(&mut c)?;
    let at = c.pos;
    let tag = c.u32("family")?;
    if tag != family as u32 {
        return Err(bad(at, &format!("family {tag} is not a {} instance", family.name())));
    }
    let dims = layout
        .sides
        .iter()
        .map(|(dim_prefix, _)| c.size(MAX_DIM, dim_prefix.trim_end()))
        .collect::<Result<Vec<_>, _>>()?;
    let n = c.size(MAX_PREALLOC, layout.count.1)?;
    let hash_at = c.pos;
    let content_hash = c.u64("content hash")?;
    // `n` is at most MAX_PREALLOC, so the record count cannot overflow.
    let records = slice_records(&mut c, n * dims.len())?;
    check_trailer(&mut c, bytes)?;
    let computed = hash_parts(family, &dims, n, &records);
    if computed != content_hash {
        return Err(bad(
            hash_at,
            &format!(
                "content hash mismatch (stored {content_hash:#018x}, computed {computed:#018x})"
            ),
        ));
    }
    let record_dims: Vec<usize> =
        dims.iter().flat_map(|&dim| std::iter::repeat_n(dim, n)).collect();
    Ok((decode_records(&records, &record_dims)?, content_hash))
}

// ---------------------------------------------------------------------------
// Structural equality (allocation-free verify-on-hit)
// ---------------------------------------------------------------------------

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise equality of two constraints' storage.
pub(crate) fn mat_structural_eq(a: &PsdMatrix, b: &PsdMatrix) -> bool {
    match (a, b) {
        (PsdMatrix::Diagonal(x), PsdMatrix::Diagonal(y)) => bits_eq(x, y),
        (PsdMatrix::Sparse(x), PsdMatrix::Sparse(y)) => {
            x.nrows() == y.nrows()
                && x.ncols() == y.ncols()
                && x.row_ptr() == y.row_ptr()
                && x.col_idx() == y.col_idx()
                && bits_eq(x.values(), y.values())
        }
        (PsdMatrix::Factor(x), PsdMatrix::Factor(y)) => {
            let (qx, qy) = (x.factor(), y.factor());
            qx.nrows() == qy.nrows()
                && qx.ncols() == qy.ncols()
                && qx.row_ptr() == qy.row_ptr()
                && qx.col_idx() == qy.col_idx()
                && bits_eq(qx.values(), qy.values())
        }
        (PsdMatrix::Dense(x), PsdMatrix::Dense(y)) => {
            x.nrows() == y.nrows() && x.ncols() == y.ncols() && bits_eq(x.as_slice(), y.as_slice())
        }
        _ => false,
    }
}

/// Serialize a packing instance to `psdp-bin-1` bytes.
pub fn write_instance_bin(inst: &PackingInstance) -> Vec<u8> {
    write(Family::Packing, &[inst])
}

/// Serialize a mixed instance to `psdp-bin-1` bytes.
pub fn write_mixed_instance_bin(inst: &MixedInstance) -> Vec<u8> {
    write(Family::Mixed, &[inst.pack(), inst.cover()])
}

/// Parse `psdp-bin-1` packing bytes, returning the instance and its
/// verified structural content hash.
///
/// # Errors
/// [`PsdpError::InvalidInstance`] with a byte-offset-anchored message on
/// any malformed input (bad magic, truncated blob, checksum or content-hash
/// mismatch, overflowing header sizes, trailing bytes, or a constraint that
/// fails structural validation).
pub fn read_instance_bin(bytes: &[u8]) -> Result<(PackingInstance, u64), PsdpError> {
    let (mats, hash) = read(Family::Packing, bytes)?;
    Ok((PackingInstance::new(mats)?, hash))
}

/// Parse `psdp-bin-1` mixed bytes (see [`read_instance_bin`]).
///
/// # Errors
/// [`PsdpError::InvalidInstance`] on any malformed input.
pub fn read_mixed_instance_bin(bytes: &[u8]) -> Result<(MixedInstance, u64), PsdpError> {
    let (mats, hash) = read(Family::Mixed, bytes)?;
    Ok((mixed_from(mats)?, hash))
}

/// Structural content hash of a packing instance — identical whether the
/// instance arrived as text or as `psdp-bin-1` bytes. Text requests compute
/// this once at parse time; binary requests carry it in their header.
pub fn packing_content_hash(inst: &PackingInstance) -> u64 {
    content_hash(Family::Packing, &[inst])
}

/// Structural content hash of a mixed instance (see
/// [`packing_content_hash`]).
pub fn mixed_content_hash(inst: &MixedInstance) -> u64 {
    content_hash(Family::Mixed, &[inst.pack(), inst.cover()])
}

/// Bitwise structural equality of two packing instances — the
/// hash-collision verifier of the serving cache. Bit-level (`to_bits`)
/// rather than `PartialEq` so `-0.0` and `0.0` stay distinct, making this
/// exactly as strong as comparing canonical serializations, with zero
/// allocation.
pub fn packing_structural_eq(a: &PackingInstance, b: &PackingInstance) -> bool {
    a.dim() == b.dim()
        && a.n() == b.n()
        && a.mats().iter().zip(b.mats()).all(|(x, y)| mat_structural_eq(x, y))
}

/// Bitwise structural equality of two mixed instances (see
/// [`packing_structural_eq`]).
pub fn mixed_structural_eq(a: &MixedInstance, b: &MixedInstance) -> bool {
    packing_structural_eq(a.pack(), b.pack()) && packing_structural_eq(a.cover(), b.cover())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encoding;
    use crate::io::{read_instance, write_instance, write_mixed_instance};

    fn sample() -> PackingInstance {
        let diag = PsdMatrix::Diagonal(vec![1.5, 0.0, 0.5]);
        let factor = PsdMatrix::Factor(FactorPsd::new(Csr::from_triplets(
            3,
            2,
            &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, -1.0)],
        )));
        let sparse = PsdMatrix::Sparse(Csr::from_triplets(
            3,
            3,
            &[(0, 0, 2.0), (0, 2, -1.0), (2, 0, -1.0), (2, 2, 1.0)],
        ));
        let mut d = Mat::zeros(3, 3);
        d.rank1_update(0.7, &[1.0, 0.5, 0.0]);
        d.add_diag(0.1);
        PackingInstance::new(vec![diag, factor, sparse, PsdMatrix::Dense(d)]).unwrap()
    }

    fn sample_mixed() -> MixedInstance {
        let pack = sample().mats().to_vec();
        let cover = vec![
            PsdMatrix::Diagonal(vec![1.0, 0.5]),
            PsdMatrix::Sparse(Csr::from_triplets(
                2,
                2,
                &[(0, 0, 1.0), (0, 1, -0.5), (1, 0, -0.5), (1, 1, 1.0)],
            )),
            PsdMatrix::Diagonal(vec![0.0, 2.0]),
            PsdMatrix::Diagonal(vec![0.25, 0.25]),
        ];
        MixedInstance::new(pack, cover).unwrap()
    }

    #[test]
    fn packing_roundtrip_bitwise() {
        let inst = sample();
        let bytes = write_instance_bin(&inst);
        assert_eq!(Encoding::of(&bytes), Encoding::Binary);
        assert_eq!(family_of(&bytes), Some(Family::Packing));
        let (back, hash) = read_instance_bin(&bytes).unwrap();
        assert!(packing_structural_eq(&inst, &back));
        assert_eq!(hash, packing_content_hash(&inst));
        assert_eq!(peek_content_hash(&bytes), Some(hash));
        // Re-serialize: byte fixpoint.
        assert_eq!(write_instance_bin(&back), bytes);
    }

    #[test]
    fn mixed_roundtrip_bitwise() {
        let inst = sample_mixed();
        let bytes = write_mixed_instance_bin(&inst);
        assert_eq!(family_of(&bytes), Some(Family::Mixed));
        let (back, hash) = read_mixed_instance_bin(&bytes).unwrap();
        assert!(mixed_structural_eq(&inst, &back));
        assert_eq!(hash, mixed_content_hash(&inst));
        assert_eq!(peek_content_hash(&bytes), Some(hash));
        assert_eq!(write_mixed_instance_bin(&back), bytes);
    }

    #[test]
    fn text_and_binary_hash_identically() {
        let inst = sample();
        let text = write_instance(&inst);
        let parsed = read_instance(&text).unwrap();
        let bytes = write_instance_bin(&inst);
        let (from_bin, bin_hash) = read_instance_bin(&bytes).unwrap();
        assert_eq!(packing_content_hash(&parsed), bin_hash);
        assert!(packing_structural_eq(&parsed, &from_bin));
        let m = sample_mixed();
        let parsed = crate::io::read_mixed_instance(&write_mixed_instance(&m)).unwrap();
        let (_, bin_hash) = read_mixed_instance_bin(&write_mixed_instance_bin(&m)).unwrap();
        assert_eq!(mixed_content_hash(&parsed), bin_hash);
    }

    #[test]
    fn corruption_is_rejected_with_typed_errors() {
        let inst = sample();
        let bytes = write_instance_bin(&inst);

        // Bad magic.
        let mut b = bytes.clone();
        b[0] = b'X';
        assert!(read_instance_bin(&b).is_err());

        // Unsupported version.
        let mut b = bytes.clone();
        b[8] = 99;
        let e = read_instance_bin(&b).unwrap_err().to_string();
        assert!(e.contains("version"), "{e}");

        // Wrong family.
        let mut b = bytes.clone();
        b[12] = 1;
        assert!(read_instance_bin(&b).is_err());
        assert!(read_mixed_instance_bin(&b).is_err()); // checksum now stale

        // Truncation anywhere.
        for cut in [4, 20, 40, bytes.len() - 3] {
            assert!(read_instance_bin(&bytes[..cut]).is_err(), "cut at {cut}");
        }

        // Flipped payload byte (inside the final record's values, so the
        // structure still parses) -> trailer checksum catches it.
        let mut b = bytes.clone();
        let mid = bytes.len() - 16;
        b[mid] ^= 0xff;
        let e = read_instance_bin(&b).unwrap_err().to_string();
        assert!(e.contains("checksum") || e.contains("hash"), "{e}");

        // Trailing junk.
        let mut b = bytes.clone();
        b.push(0);
        assert!(read_instance_bin(&b).is_err());

        // Absurd dim header (checked guards, not allocator aborts). Patch
        // dim and fix the trailer so the guard itself is what fires.
        let mut b = bytes.clone();
        b[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let tl = b.len() - 8;
        let fixed = fnv_wide(&b[..tl]);
        b[tl..].copy_from_slice(&fixed.to_le_bytes());
        let e = read_instance_bin(&b).unwrap_err().to_string();
        assert!(e.contains("exceeds limit"), "{e}");

        // Lying content hash with a consistent trailer.
        let mut b = bytes.clone();
        b[32..40].copy_from_slice(&0xdead_beef_u64.to_le_bytes());
        let tl = b.len() - 8;
        let fixed = fnv_wide(&b[..tl]);
        b[tl..].copy_from_slice(&fixed.to_le_bytes());
        let e = read_instance_bin(&b).unwrap_err().to_string();
        assert!(e.contains("content hash mismatch"), "{e}");
    }

    #[test]
    fn structural_eq_distinguishes_negative_zero() {
        let a = PackingInstance::new(vec![PsdMatrix::Sparse(Csr::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 1.0)],
        ))])
        .unwrap();
        let b = PackingInstance::new(vec![PsdMatrix::Sparse(Csr::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, -0.0), (1, 0, -0.0), (1, 1, 1.0)],
        ))])
        .unwrap();
        assert!(!packing_structural_eq(&a, &b), "-0.0 must stay distinct from 0.0");
        assert_ne!(packing_content_hash(&a), packing_content_hash(&b));
        assert!(packing_structural_eq(&a, &a));
    }

    #[test]
    fn serial_and_parallel_decodes_agree() {
        // Three dense 96 × 96 records (72 KiB each) cross the parallel
        // threshold; the sample's few hundred bytes stay below it.
        let dense = |salt: f64| {
            let mut d = Mat::zeros(96, 96);
            d.rank1_update(1.0, &(0..96).map(|i| (i as f64 * salt).sin()).collect::<Vec<_>>());
            d.add_diag(0.5);
            PsdMatrix::Dense(d)
        };
        let big = PackingInstance::new(vec![dense(0.3), dense(0.7), dense(1.1)]).unwrap();
        for inst in [sample(), big] {
            let bytes = write_instance_bin(&inst);
            for threads in [1, 4] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let (back, _) = pool.install(|| read_instance_bin(&bytes)).unwrap();
                assert!(packing_structural_eq(&inst, &back), "pool {threads}");
            }
        }
        // The first failing record in record order is reported either way.
        let junk = vec![0xFF_u8; PARALLEL_DECODE_BYTES];
        for records in [vec![&junk[..16], &junk[..16]], vec![&junk[..], &junk[..]]] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
            let e = pool.install(|| decode_records(&records, &[3, 3])).unwrap_err().to_string();
            assert!(e.contains("record 0:"), "{e}");
        }
    }

    #[test]
    fn peek_refuses_non_binary() {
        assert_eq!(peek_content_hash(b"psdp 1\n"), None);
        assert_eq!(family_of(b"PSDPBIN"), None);
        assert_eq!(Encoding::of(b"psdp 1\n"), Encoding::Text);
    }
}
