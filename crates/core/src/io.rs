//! The canonical text encoding (`psdp 1` / `psdp mixed 1`) of both
//! instance families (the text half of [`crate::codec`]).
//!
//! A deliberately boring line-based format so instances can be generated,
//! versioned, and diffed without extra dependencies:
//!
//! ```text
//! psdp 1
//! # optional comments anywhere
//! dim 4
//! constraints 2
//! constraint 0 diagonal 2      # <index> diagonal <nnz>
//! 0 1.5                        #   <coord> <value>
//! 2 0.5
//! constraint 1 factor 3 2      # <index> factor <nnz> <rank>
//! 0 0 1.0                      #   <row> <col> <value>
//! 1 1 2.0
//! 3 0 -1.0
//! end
//! ```
//!
//! Sparse symmetric constraints use `constraint <i> sparse <nnz>` followed
//! by `nnz` lines of `<row> <col> <value>` triplets (every stored entry,
//! both triangles). Dense constraints use `constraint <i> dense` followed
//! by `dim` rows of `dim` whitespace-separated numbers. Values round-trip
//! through `{:e}` formatting, so write→read is exact.
//!
//! The mixed family has one dimension header and one run of blocks per
//! side, with the same constraint-block grammar:
//!
//! ```text
//! psdp mixed 1
//! pack-dim 3
//! cover-dim 2
//! coordinates 2
//! pack 0 diagonal 1
//! 0 2.0
//! pack 1 sparse 1
//! 1 1 1.0
//! cover 0 diagonal 1
//! 0 1.0
//! cover 1 diagonal 1
//! 1 1.0
//! end
//! ```

use crate::codec::{mixed_from, Family};
use crate::error::PsdpError;
use crate::instance::{MixedInstance, PackingInstance};
use psdp_linalg::Mat;
use psdp_sparse::{Csr, FactorPsd, PsdMatrix};
use std::fmt::Write as _;

/// Write one constraint block with the given line label (`constraint` in
/// the packing format, `pack`/`cover` in the mixed format).
///
/// `fmt::Write` into a `String` is infallible, so the `writeln!` results
/// here are deliberately discarded rather than unwrapped (audit rule R1:
/// no panic sites on request paths).
fn write_constraint(out: &mut String, label: &str, i: usize, a: &PsdMatrix, dim: usize) {
    match a {
        PsdMatrix::Diagonal(d) => {
            let nz: Vec<(usize, f64)> =
                d.iter().enumerate().filter(|(_, &v)| v != 0.0).map(|(j, &v)| (j, v)).collect();
            let _ = writeln!(out, "{label} {i} diagonal {}", nz.len());
            for (j, v) in nz {
                let _ = writeln!(out, "{j} {v:e}");
            }
        }
        PsdMatrix::Factor(fp) => {
            let q = fp.factor();
            let _ = writeln!(out, "{label} {i} factor {} {}", q.nnz(), q.ncols());
            for r in 0..q.nrows() {
                for (c, v) in q.row_iter(r) {
                    let _ = writeln!(out, "{r} {c} {v:e}");
                }
            }
        }
        PsdMatrix::Sparse(s) => {
            let _ = writeln!(out, "{label} {i} sparse {}", s.nnz());
            for r in 0..s.nrows() {
                for (c, v) in s.row_iter(r) {
                    let _ = writeln!(out, "{r} {c} {v:e}");
                }
            }
        }
        PsdMatrix::Dense(m) => {
            let _ = writeln!(out, "{label} {i} dense");
            for r in 0..dim {
                let row: Vec<String> = m.row(r).iter().map(|v| format!("{v:e}")).collect();
                let _ = writeln!(out, "{}", row.join(" "));
            }
        }
    }
}

/// Serialize the `sides` of a `family` instance.
pub(crate) fn write(family: Family, sides: &[&PackingInstance]) -> String {
    let layout = family.layout();
    let mut out = String::new();
    let _ = writeln!(out, "{}", layout.header);
    for ((dim_prefix, _), side) in layout.sides.iter().zip(sides) {
        let _ = writeln!(out, "{dim_prefix}{}", side.dim());
    }
    let _ = writeln!(out, "{}{}", layout.count.0, sides.first().map_or(0, |s| s.n()));
    for ((_, label), side) in layout.sides.iter().zip(sides) {
        for (i, a) in side.mats().iter().enumerate() {
            write_constraint(&mut out, label, i, a, side.dim());
        }
    }
    let _ = writeln!(out, "end");
    out
}

/// Serialize an instance to the `psdp v1` text format.
///
/// ```
/// use psdp_core::{read_instance, write_instance, PackingInstance};
/// use psdp_sparse::PsdMatrix;
///
/// let inst = PackingInstance::new(vec![PsdMatrix::Diagonal(vec![1.0, 2.0])])?;
/// let text = write_instance(&inst);
/// let back = read_instance(&text)?;
/// assert_eq!(back.dim(), 2);
/// assert_eq!(back.mats()[0].trace(), 3.0);
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
pub fn write_instance(inst: &PackingInstance) -> String {
    write(Family::Packing, &[inst])
}

/// Serialize a mixed instance to the `psdp mixed v1` text format.
///
/// ```
/// use psdp_core::{read_mixed_instance, write_mixed_instance, MixedInstance};
/// use psdp_sparse::PsdMatrix;
///
/// let inst = MixedInstance::new(
///     vec![PsdMatrix::Diagonal(vec![2.0])],
///     vec![PsdMatrix::Diagonal(vec![1.0])],
/// )?;
/// let back = read_mixed_instance(&write_mixed_instance(&inst))?;
/// assert_eq!(back.n(), 1);
/// assert_eq!(back.pack().mats()[0].trace(), 2.0);
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
pub fn write_mixed_instance(inst: &MixedInstance) -> String {
    write(Family::Mixed, &[inst.pack(), inst.cover()])
}

/// Parse the `psdp v1` text format.
///
/// # Errors
/// [`PsdpError::InvalidInstance`] with a line-anchored message on any
/// malformed input.
pub fn read_instance(text: &str) -> Result<PackingInstance, PsdpError> {
    PackingInstance::new(read(Family::Packing, text)?)
}

/// Parse the `psdp mixed v1` text format.
///
/// # Errors
/// [`PsdpError::InvalidInstance`] with a line-anchored message on any
/// malformed input.
pub fn read_mixed_instance(text: &str) -> Result<MixedInstance, PsdpError> {
    mixed_from(read(Family::Mixed, text)?)
}

/// The family whose header line is the first content line of `text`.
pub(crate) fn family_of(text: &str) -> Option<Family> {
    let (_, first) = content_lines(text).next()?;
    [Family::Packing, Family::Mixed].into_iter().find(|f| f.layout().header == first)
}

/// The numbered lines of `text` that carry content: comments stripped,
/// whitespace trimmed, blank lines skipped.
fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(no, l)| (no + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty())
}

/// Cursor over the content lines of one text instance.
struct Lines<'a> {
    items: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines { items: content_lines(text).collect(), pos: 0 }
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let item = self.items.get(self.pos).copied();
        self.pos += 1;
        item
    }

    /// Line number of the most recently consumed line (0 if none).
    fn here(&self) -> usize {
        if self.pos == 0 {
            0
        } else {
            self.items.get(self.pos - 1).map_or(0, |&(no, _)| no)
        }
    }

    /// Content lines not yet consumed. Used to reject declared sizes the
    /// input cannot possibly satisfy *before* allocating for them.
    fn remaining(&self) -> usize {
        self.items.len().saturating_sub(self.pos)
    }
}

fn bad(no: usize, msg: &str) -> PsdpError {
    PsdpError::InvalidInstance(format!("line {no}: {msg}"))
}

/// Largest accepted matrix dimension. The readers allocate `O(dim)` for a
/// diagonal block and `O(dim²)` for a dense block *before* seeing the
/// entries, so an absurd `dim` header in a malformed file must fail fast
/// here instead of aborting the process inside an allocator call. Real
/// instances are bounded far below this by the dense exponential engine.
pub(crate) const MAX_DIM: usize = 1 << 20;

/// Clamp used for `Vec::with_capacity` on declared entry counts: the count
/// is untrusted input, so pre-reserve at most this many slots and let the
/// vector grow normally if a (valid) file really has more.
pub(crate) const MAX_PREALLOC: usize = 1 << 20;

/// Largest accepted dimension for a *dense* block, which allocates
/// `O(dim²)` up front (128 MiB of `f64` at this cap — far above anything
/// the `O(m³)` dense engines can use, far below an allocator abort).
/// Sparse/diagonal/factor storage is the format for larger dimensions.
pub(crate) const MAX_DENSE_DIM: usize = 1 << 12;

/// Parse a `<prefix> <value>` header line.
fn header_usize(lines: &mut Lines<'_>, prefix: &str) -> Result<usize, PsdpError> {
    let (no, line) =
        lines.next().ok_or_else(|| bad(lines.here(), &format!("missing `{prefix}`")))?;
    line.strip_prefix(prefix)
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad(no, &format!("expected `{prefix} <n>`")))
}

/// Parse a dimension header and enforce the [`MAX_DIM`] allocation guard.
fn checked_dim(lines: &mut Lines<'_>, prefix: &str) -> Result<usize, PsdpError> {
    let dim = header_usize(lines, prefix)?;
    if dim > MAX_DIM {
        return Err(bad(lines.here(), &format!("{prefix}{dim} exceeds limit {MAX_DIM}")));
    }
    Ok(dim)
}

/// Parse one constraint block: a head line `<label> <i> <kind> …` (already
/// split into `toks`) followed by its entry lines.
fn read_constraint(
    lines: &mut Lines<'_>,
    head_no: usize,
    toks: &[&str],
    dim: usize,
) -> Result<PsdMatrix, PsdpError> {
    let kind = *toks.get(2).ok_or_else(|| bad(head_no, "missing constraint kind"))?;
    // Declared entry counts are untrusted: each entry consumes at least one
    // content line, so a count larger than the remaining input is a lie the
    // reader should reject before looping (or allocating) on it.
    let checked_nnz = |lines: &Lines<'_>, nnz: usize| -> Result<usize, PsdpError> {
        if nnz > lines.remaining() {
            return Err(bad(
                head_no,
                &format!("declared {nnz} entries but only {} lines remain", lines.remaining()),
            ));
        }
        Ok(nnz)
    };
    match kind {
        "diagonal" => {
            let nnz: usize =
                toks.get(3).and_then(|s| s.parse().ok()).ok_or_else(|| bad(head_no, "bad nnz"))?;
            let nnz = checked_nnz(lines, nnz)?;
            let mut d = vec![0.0; dim];
            for _ in 0..nnz {
                let (no, entry) = lines.next().ok_or_else(|| bad(head_no, "truncated diagonal"))?;
                let parts: Vec<&str> = entry.split_whitespace().collect();
                let (j, v) = parse_pair(&parts).ok_or_else(|| bad(no, "bad diagonal entry"))?;
                *d.get_mut(j).ok_or_else(|| bad(no, "diagonal coordinate out of range"))? = v;
            }
            Ok(PsdMatrix::Diagonal(d))
        }
        "factor" => {
            let nnz: usize =
                toks.get(3).and_then(|s| s.parse().ok()).ok_or_else(|| bad(head_no, "bad nnz"))?;
            let rank: usize =
                toks.get(4).and_then(|s| s.parse().ok()).ok_or_else(|| bad(head_no, "bad rank"))?;
            if rank > MAX_DIM {
                return Err(bad(head_no, &format!("factor rank {rank} exceeds limit {MAX_DIM}")));
            }
            let nnz = checked_nnz(lines, nnz)?;
            let mut trip = Vec::with_capacity(nnz.min(MAX_PREALLOC));
            for _ in 0..nnz {
                let (no, entry) = lines.next().ok_or_else(|| bad(head_no, "truncated factor"))?;
                let parts: Vec<&str> = entry.split_whitespace().collect();
                let (r, c, v) = parse_triplet(&parts).ok_or_else(|| bad(no, "bad factor entry"))?;
                if r >= dim || c >= rank {
                    return Err(bad(no, "factor entry out of range"));
                }
                trip.push((r, c, v));
            }
            Ok(PsdMatrix::Factor(FactorPsd::new(Csr::from_triplets(dim, rank.max(1), &trip))))
        }
        "sparse" => {
            let nnz: usize =
                toks.get(3).and_then(|s| s.parse().ok()).ok_or_else(|| bad(head_no, "bad nnz"))?;
            let nnz = checked_nnz(lines, nnz)?;
            let mut trip = Vec::with_capacity(nnz.min(MAX_PREALLOC));
            for _ in 0..nnz {
                let (no, entry) = lines.next().ok_or_else(|| bad(head_no, "truncated sparse"))?;
                let parts: Vec<&str> = entry.split_whitespace().collect();
                let (r, c, v) = parse_triplet(&parts).ok_or_else(|| bad(no, "bad sparse entry"))?;
                if r >= dim || c >= dim {
                    return Err(bad(no, "sparse entry out of range"));
                }
                trip.push((r, c, v));
            }
            Ok(PsdMatrix::Sparse(Csr::from_triplets(dim, dim, &trip)))
        }
        "dense" => {
            // A dense block allocates O(dim²) before reading a single row,
            // so an absurd header must fail here, not in the allocator:
            // cap the dimension outright and require the input to actually
            // contain `dim` more lines.
            if dim > MAX_DENSE_DIM {
                return Err(bad(
                    head_no,
                    &format!("dense block dim {dim} exceeds limit {MAX_DENSE_DIM}"),
                ));
            }
            if lines.remaining() < dim {
                return Err(bad(head_no, "truncated dense block"));
            }
            // `checked_mul` rather than trusting MAX_DENSE_DIM alone: the
            // O(dim²) cell count must be provably representable before the
            // allocation (overflow would wrap to a tiny size and then index
            // out of bounds, not fail cleanly).
            if dim.checked_mul(dim).is_none() {
                return Err(bad(head_no, &format!("dense block dim {dim} overflows dim*dim")));
            }
            let mut m = Mat::zeros(dim, dim);
            for r in 0..dim {
                let (no, row_line) =
                    lines.next().ok_or_else(|| bad(head_no, "truncated dense block"))?;
                let vals: Result<Vec<f64>, _> =
                    row_line.split_whitespace().map(str::parse).collect();
                let vals = vals.map_err(|_| bad(no, "bad dense row"))?;
                if vals.len() != dim {
                    return Err(bad(
                        no,
                        &format!("dense row has {} values, want {dim}", vals.len()),
                    ));
                }
                for (c, v) in vals.into_iter().enumerate() {
                    // psdp-audit: allow(R1, reason = "r < dim by the loop bound, c < dim by the row-length check above; Mat is dim x dim")
                    m[(r, c)] = v;
                }
            }
            m.symmetrize();
            Ok(PsdMatrix::Dense(m))
        }
        other => Err(bad(head_no, &format!("unknown constraint kind `{other}`"))),
    }
}

/// Read `count` constraint blocks whose head lines are labelled `label`.
fn read_block_list(
    lines: &mut Lines<'_>,
    label: &str,
    count: usize,
    dim: usize,
) -> Result<Vec<PsdMatrix>, PsdpError> {
    let mut mats = Vec::with_capacity(count.min(MAX_PREALLOC));
    for expected in 0..count {
        let (no, head) = lines.next().ok_or_else(|| bad(0, "unexpected end of file"))?;
        let toks: Vec<&str> = head.split_whitespace().collect();
        let [lbl, idx_tok, _kind, ..] = toks.as_slice() else {
            return Err(bad(no, &format!("expected `{label} <i> <kind> …`")));
        };
        if *lbl != label {
            return Err(bad(no, &format!("expected `{label} <i> <kind> …`")));
        }
        let idx: usize = idx_tok.parse().map_err(|_| bad(no, "bad constraint index"))?;
        if idx != expected {
            return Err(bad(no, &format!("{label} index {idx}, expected {expected}")));
        }
        mats.push(read_constraint(lines, no, &toks, dim)?);
    }
    Ok(mats)
}

fn expect_end(lines: &mut Lines<'_>) -> Result<(), PsdpError> {
    match lines.next() {
        Some((_, "end")) => match lines.next() {
            None => Ok(()),
            Some((no, extra)) => Err(bad(no, &format!("trailing content after `end`: `{extra}`"))),
        },
        Some((no, other)) => Err(bad(no, &format!("expected `end`, found `{other}`"))),
        None => Err(bad(0, "missing trailing `end`")),
    }
}

/// Parse a `family` instance: its constraint records, side by side.
///
/// # Errors
/// [`PsdpError::InvalidInstance`] with a line-anchored message on any
/// malformed input.
pub(crate) fn read(family: Family, text: &str) -> Result<Vec<PsdMatrix>, PsdpError> {
    let layout = family.layout();
    let mut lines = Lines::new(text);
    let (no, header) = lines.next().ok_or_else(|| bad(0, "empty file"))?;
    if header != layout.header {
        return Err(bad(no, &format!("expected header `{}`", layout.header)));
    }
    let dims = layout
        .sides
        .iter()
        .map(|(dim_prefix, _)| checked_dim(&mut lines, dim_prefix))
        .collect::<Result<Vec<_>, _>>()?;
    let count = header_usize(&mut lines, layout.count.0)?;
    let mut mats = Vec::new();
    for ((_, label), dim) in layout.sides.iter().zip(dims) {
        mats.extend(read_block_list(&mut lines, label, count, dim)?);
    }
    expect_end(&mut lines)?;
    Ok(mats)
}

fn parse_pair(parts: &[&str]) -> Option<(usize, f64)> {
    let [a, b] = parts else { return None };
    Some((a.parse().ok()?, b.parse().ok()?))
}

fn parse_triplet(parts: &[&str]) -> Option<(usize, usize, f64)> {
    let [a, b, c] = parts else { return None };
    Some((a.parse().ok()?, b.parse().ok()?, c.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn roundtrip_exact() {
        let inst = sample();
        let text = write_instance(&inst);
        let back = read_instance(&text).unwrap();
        assert_eq!(back.n(), inst.n());
        assert_eq!(back.dim(), inst.dim());
        for (a, b) in inst.mats().iter().zip(back.mats()) {
            assert_eq!(a.to_dense().as_slice(), b.to_dense().as_slice());
        }
    }

    #[test]
    fn mixed_roundtrip_exact_all_storage_kinds() {
        // Mixed-dimension sides with every storage kind represented.
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
        let inst = MixedInstance::new(pack, cover).unwrap();
        let text = write_mixed_instance(&inst);
        let back = read_mixed_instance(&text).unwrap();
        assert_eq!(back.n(), inst.n());
        assert_eq!(back.pack_dim(), 3);
        assert_eq!(back.cover_dim(), 2);
        for (a, b) in inst.pack().mats().iter().zip(back.pack().mats()) {
            assert_eq!(a.to_dense().as_slice(), b.to_dense().as_slice());
        }
        for (a, b) in inst.cover().mats().iter().zip(back.cover().mats()) {
            assert_eq!(a.to_dense().as_slice(), b.to_dense().as_slice());
        }
    }

    #[test]
    fn mixed_rejects_malformed() {
        // Wrong header.
        assert!(read_mixed_instance("psdp 1\n").is_err());
        // Packing block labelled wrong.
        let bad = "psdp mixed 1\npack-dim 1\ncover-dim 1\ncoordinates 1\nconstraint 0 diagonal 1\n0 1.0\ncover 0 diagonal 1\n0 1.0\nend\n";
        let err = read_mixed_instance(bad).unwrap_err().to_string();
        assert!(err.contains("pack"), "{err}");
        // Missing cover side.
        let bad =
            "psdp mixed 1\npack-dim 1\ncover-dim 1\ncoordinates 1\npack 0 diagonal 1\n0 1.0\nend\n";
        assert!(read_mixed_instance(bad).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let inst = PackingInstance::new(vec![PsdMatrix::Diagonal(vec![1.0, 2.0])]).unwrap();
        let mut text = write_instance(&inst);
        text = text.replace("dim 2", "# a comment\n\ndim 2  # trailing");
        let back = read_instance(&text).unwrap();
        assert_eq!(back.dim(), 2);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_instance("nope 1\n").is_err());
        assert!(read_instance("").is_err());
    }

    #[test]
    fn rejects_truncation_and_ranges() {
        let inst = sample();
        let text = write_instance(&inst);
        // Drop the trailing `end`.
        let no_end = text.replace("\nend\n", "\n");
        assert!(read_instance(&no_end).is_err());
        // Out-of-range diagonal coordinate.
        let bad = "psdp 1\ndim 2\nconstraints 1\nconstraint 0 diagonal 1\n5 1.0\nend\n";
        assert!(read_instance(bad).is_err());
        // Wrong constraint index.
        let bad = "psdp 1\ndim 2\nconstraints 1\nconstraint 3 diagonal 1\n0 1.0\nend\n";
        assert!(read_instance(bad).is_err());
    }

    #[test]
    fn absurd_declared_counts_fail_fast() {
        // nnz far beyond the remaining input must be rejected up front
        // (never looped on, never preallocated at face value).
        let bad = "psdp 1\ndim 2\nconstraints 1\nconstraint 0 sparse 18446744073709551615\nend\n";
        let err = read_instance(bad).unwrap_err().to_string();
        assert!(err.contains("lines remain"), "{err}");
        let bad = "psdp 1\ndim 2\nconstraints 1\nconstraint 0 diagonal 999999\n0 1.0\nend\n";
        let err = read_instance(bad).unwrap_err().to_string();
        assert!(err.contains("lines remain"), "{err}");
        let bad = "psdp 1\ndim 2\nconstraints 1\nconstraint 0 factor 999999999 1\n0 0 1.0\nend\n";
        assert!(read_instance(bad).is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "psdp 1\ndim 2\nconstraints 1\nconstraint 0 wat\nend\n";
        let err = read_instance(bad).unwrap_err().to_string();
        assert!(err.contains("line 4"), "{err}");
    }

    #[test]
    fn solver_accepts_parsed_instance() {
        let inst = sample();
        let text = write_instance(&inst);
        let back = read_instance(&text).unwrap();
        let res = crate::decision_psdp(&back, &crate::DecisionOptions::practical(0.3)).unwrap();
        assert!(res.stats.iterations > 0);
    }
}
