//! E16 — ingest throughput: `psdp-bin-1` binary decode against the text
//! parse.
//!
//! The serving stack admits every instance through one of two decoders:
//! the text reader (tokenize, parse floats, validate) or the binary reader
//! (header guards, checksum, bit-pattern slices). Both end in the same
//! validated [`PackingInstance`], which the runner asserts before it
//! reports, so the timings isolate decode cost. The fingerprint columns
//! measure what a cache admission costs before any solver runs: text must
//! parse the whole instance and hash it; binary reads the hash off the
//! header.

use super::median_wall;
use crate::table::{f, Table};
use psdp_core::{
    packing_content_hash, packing_structural_eq, peek_content_hash, read_instance,
    read_instance_bin, write_instance, write_instance_bin, PackingInstance,
};
use psdp_sparse::{Csr, PsdMatrix};

/// Timed runs per cell.
const REPS: usize = 10;

/// Symmetric banded sparse instance (band 12) with ~`nnz` total nonzeros
/// spread over `n` CSR constraints, diagonally dominant so it passes the
/// structural validation both decoders apply.
fn banded_instance(nnz: usize, n: usize) -> PackingInstance {
    let band = 12usize;
    // nnz per constraint ≈ dim * (1 + 2*band) ⇒ dim from the target.
    let dim = (nnz / n / (1 + 2 * band)).max(band + 2);
    let mats: Vec<PsdMatrix> = (0..n)
        .map(|c| {
            let mut trip: Vec<(usize, usize, f64)> = Vec::new();
            for i in 0..dim {
                trip.push((i, i, 2.0 + band as f64 + (c as f64) * 0.25));
                for d in 1..=band {
                    if i + d < dim {
                        let v = -0.5 / d as f64;
                        trip.push((i, i + d, v));
                        trip.push((i + d, i, v));
                    }
                }
            }
            PsdMatrix::Sparse(Csr::from_triplets(dim, dim, &trip))
        })
        .collect();
    PackingInstance::new(mats).expect("banded family is valid")
}

/// E16 table: per target nonzero count, the encoded sizes, the median
/// read time of each format, and the admission fingerprint cost of each.
pub fn e16_ingest(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        format!("E16: ingest, text parse vs psdp-bin-1 (banded, 8 constraints; median of {REPS})"),
        &[
            "nnz",
            "text MiB",
            "bin MiB",
            "text read ms",
            "bin read ms",
            "speedup",
            "text fingerprint ms",
            "bin peek fingerprint us",
        ],
    );
    let mib = |len: usize| len as f64 / (1024.0 * 1024.0);
    for &nnz in sizes {
        let inst = banded_instance(nnz, 8);
        let text = write_instance(&inst);
        let bytes = write_instance_bin(&inst);
        let (decoded, hash) = read_instance_bin(&bytes).expect("binary parses");
        assert!(packing_structural_eq(&decoded, &inst), "binary decode drifted from the input");
        assert_eq!(hash, packing_content_hash(&inst), "binary content hash drifted");

        let (text_read, parsed) = median_wall(REPS, || read_instance(&text).expect("text parses"));
        assert!(packing_structural_eq(&parsed, &inst), "text parse drifted from the input");
        let (bin_read, _) = median_wall(REPS, || read_instance_bin(&bytes).expect("binary parses"));
        let (text_fp, text_hash) =
            median_wall(REPS, || packing_content_hash(&read_instance(&text).expect("text parses")));
        let (bin_fp, bin_hash) = median_wall(REPS, || peek_content_hash(&bytes));
        assert_eq!(bin_hash, Some(text_hash), "the two fingerprints disagree");

        t.row(vec![
            nnz.to_string(),
            f(mib(text.len())),
            f(mib(bytes.len())),
            f(text_read.as_secs_f64() * 1e3),
            f(bin_read.as_secs_f64() * 1e3),
            f(text_read.as_secs_f64() / bin_read.as_secs_f64()),
            f(text_fp.as_secs_f64() * 1e3),
            f(bin_fp.as_secs_f64() * 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runner asserts, before timing, that the binary decode is
    /// structurally equal to the input and that both formats agree on the
    /// content hash; one small size runs every one of those checks.
    #[test]
    fn e16_decodes_agree_at_small_size() {
        let t = e16_ingest(&[5_000]);
        assert_eq!(t.len(), 1);
    }
}
