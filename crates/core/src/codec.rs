//! One instance codec for both families — packing, and the Jain–Yao
//! mixed class — in both encodings: canonical text ([`crate::io`]) and
//! `psdp-bin-1` ([`crate::bin_io`]) (DESIGN.md §14).
//!
//! Each reader and writer and the content hash is written once over an
//! instance's constraint sides: one for packing, `pack` then `cover` for
//! mixed. The families differ only in their [`Family`] tag and in the
//! names the encodings give their parts. [`sniff`] names a byte string's
//! family and encoding; [`Instance::decode`] and [`Instance::encode`] are
//! the one place that dispatches on both.

use crate::bin_io::{self, mixed_structural_eq, packing_structural_eq};
use crate::error::PsdpError;
use crate::instance::{MixedInstance, PackingInstance};
use crate::io;
use psdp_sparse::PsdMatrix;
use std::sync::Arc;

/// An instance family. The discriminants are the family tag of the
/// `psdp-bin-1` header, the first byte the content hash absorbs, and the
/// family byte of the serving cache's prep hash and snapshot
/// fingerprints, so they never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// Packing instances: one side `A₁ … Aₙ`.
    Packing = 0,
    /// Mixed packing–covering instances: sides `pack` and `cover`.
    Mixed = 1,
}

impl Family {
    /// The family's name in snapshots and reader errors.
    pub fn name(self) -> &'static str {
        self.layout().name
    }

    pub(crate) fn layout(self) -> &'static Layout {
        match self {
            Family::Packing => &PACKING,
            Family::Mixed => &MIXED,
        }
    }
}

/// What the encodings call a family's parts.
pub(crate) struct Layout {
    name: &'static str,
    /// The text header line.
    pub(crate) header: &'static str,
    /// Per side: the dimension header (the text prefix; the binary size
    /// field is named without its trailing space) and the text block label.
    pub(crate) sides: &'static [(&'static str, &'static str)],
    /// The count: its text header prefix and its binary field name.
    pub(crate) count: (&'static str, &'static str),
}

const PACKING: Layout = Layout {
    name: "packing",
    header: "psdp 1",
    sides: &[("dim ", "constraint")],
    count: ("constraints ", "constraint count"),
};

const MIXED: Layout = Layout {
    name: "mixed",
    header: "psdp mixed 1",
    sides: &[("pack-dim ", "pack"), ("cover-dim ", "cover")],
    count: ("coordinates ", "coordinate count"),
};

/// An instance encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Canonical text (`psdp 1` / `psdp mixed 1`).
    Text,
    /// `psdp-bin-1` bytes.
    Binary,
}

impl Encoding {
    /// The encoding of `bytes`: binary when they open with the
    /// `psdp-bin-1` magic, text otherwise.
    pub fn of(bytes: &[u8]) -> Encoding {
        if bytes.starts_with(bin_io::BIN_MAGIC) {
            Encoding::Binary
        } else {
            Encoding::Text
        }
    }
}

/// Name the family and encoding of `bytes`. Binary bytes are of the family
/// their header tags; text is of the family whose header line is its
/// first content line, skipping comments and blank lines as the text
/// reader does. Bytes that name no family are packing, so decoding them
/// reports what is wrong in the packing reader's terms.
///
/// ```
/// use psdp_core::{sniff, Encoding, Family};
///
/// assert_eq!(sniff(b"# made by hand\n\npsdp mixed 1\n"), (Family::Mixed, Encoding::Text));
/// assert_eq!(sniff(b"not an instance"), (Family::Packing, Encoding::Text));
/// ```
pub fn sniff(bytes: &[u8]) -> (Family, Encoding) {
    (named_family(bytes).unwrap_or(Family::Packing), Encoding::of(bytes))
}

/// The family `bytes` name, read as [`sniff`] reads it, or `None` when
/// they name none (where [`sniff`] falls back to packing).
///
/// ```
/// use psdp_core::{named_family, Family};
///
/// assert_eq!(named_family(b"psdp 1\n"), Some(Family::Packing));
/// assert_eq!(named_family(b"not an instance"), None);
/// ```
pub fn named_family(bytes: &[u8]) -> Option<Family> {
    match Encoding::of(bytes) {
        Encoding::Binary => bin_io::family_of(bytes),
        Encoding::Text => io::family_of(&String::from_utf8_lossy(bytes)),
    }
}

/// An instance of either family, shared behind an `Arc` so request
/// batches and caches hold one copy of each.
#[derive(Debug, Clone)]
pub enum Instance {
    /// A packing instance.
    Packing(Arc<PackingInstance>),
    /// A mixed packing–covering instance.
    Mixed(Arc<MixedInstance>),
}

impl Instance {
    /// Decode a `family` instance from `bytes` in `encoding`, with its
    /// structural content hash: the binary header's (verified by the
    /// reader) or, for text, computed once here.
    ///
    /// # Errors
    /// The reader's error for malformed bytes or an invalid instance.
    pub fn decode(
        family: Family,
        encoding: Encoding,
        bytes: &[u8],
    ) -> Result<(Instance, u64), PsdpError> {
        let (mats, hash) = match encoding {
            Encoding::Text => (io::read(family, &String::from_utf8_lossy(bytes))?, None),
            Encoding::Binary => {
                let (mats, hash) = bin_io::read(family, bytes)?;
                (mats, Some(hash))
            }
        };
        let inst = match family {
            Family::Packing => Instance::Packing(Arc::new(PackingInstance::new(mats)?)),
            Family::Mixed => Instance::Mixed(Arc::new(mixed_from(mats)?)),
        };
        let hash = hash.unwrap_or_else(|| inst.content_hash());
        Ok((inst, hash))
    }

    /// The instance in `encoding`: the inverse of [`Instance::decode`].
    pub fn encode(&self, encoding: Encoding) -> Vec<u8> {
        match encoding {
            Encoding::Text => io::write(self.family(), &self.sides()).into_bytes(),
            Encoding::Binary => bin_io::write(self.family(), &self.sides()),
        }
    }

    /// The instance's family.
    pub fn family(&self) -> Family {
        match self {
            Instance::Packing(_) => Family::Packing,
            Instance::Mixed(_) => Family::Mixed,
        }
    }

    /// The constraint sides, in encoding order.
    fn sides(&self) -> Vec<&PackingInstance> {
        match self {
            Instance::Packing(inst) => vec![inst],
            Instance::Mixed(inst) => vec![inst.pack(), inst.cover()],
        }
    }

    /// Stored entries over all of the instance's constraint matrices.
    pub fn total_nnz(&self) -> usize {
        self.sides().iter().map(|s| s.total_nnz()).sum()
    }

    /// The structural content hash — `O(nnz)`, so callers that can reuse
    /// a hash (source caches, binary headers) should carry it instead.
    pub fn content_hash(&self) -> u64 {
        bin_io::content_hash(self.family(), &self.sides())
    }

    /// Bitwise structural equality, with an `Arc` pointer fast path. This
    /// is the collision verifier behind every serving cache hit: exactly as
    /// strong as comparing canonical serializations, with zero allocation
    /// and usually zero work.
    pub fn structural_eq(&self, other: &Instance) -> bool {
        match (self, other) {
            (Instance::Packing(a), Instance::Packing(b)) => {
                Arc::ptr_eq(a, b) || packing_structural_eq(a, b)
            }
            (Instance::Mixed(a), Instance::Mixed(b)) => {
                Arc::ptr_eq(a, b) || mixed_structural_eq(a, b)
            }
            _ => false,
        }
    }
}

/// A mixed instance from its decoded records: `n` pack then `n` cover.
pub(crate) fn mixed_from(mut mats: Vec<PsdMatrix>) -> Result<MixedInstance, PsdpError> {
    let cover = mats.split_off(mats.len() / 2);
    MixedInstance::new(mats, cover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin_io::{write_instance_bin, write_mixed_instance_bin};
    use crate::io::{write_instance, write_mixed_instance};
    use psdp_sparse::Csr;

    fn packing() -> PackingInstance {
        PackingInstance::new(vec![PsdMatrix::Diagonal(vec![1.0, 2.0])]).unwrap()
    }

    fn mixed() -> MixedInstance {
        MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 1.0])],
            vec![PsdMatrix::Sparse(Csr::from_triplets(1, 1, &[(0, 0, 1.0)]))],
        )
        .unwrap()
    }

    #[test]
    fn sniff_names_family_and_encoding() {
        use Encoding::{Binary, Text};
        use Family::{Mixed, Packing};
        // Text: the first content line names the family, past comments,
        // blank lines, trailing comments and surrounding whitespace.
        let mixed_text = write_mixed_instance(&mixed());
        let packing_text = write_instance(&packing());
        for prefix in ["", "# made by hand\n", "\n\n  # note\n\t\n", "   "] {
            assert_eq!(sniff(format!("{prefix}{mixed_text}").as_bytes()), (Mixed, Text));
            assert_eq!(sniff(format!("{prefix}{packing_text}").as_bytes()), (Packing, Text));
        }
        assert_eq!(sniff(b"psdp mixed 1   # trailing\n"), (Mixed, Text));
        // Binary: the header's family tag.
        assert_eq!(sniff(&write_mixed_instance_bin(&mixed())), (Mixed, Binary));
        assert_eq!(sniff(&write_instance_bin(&packing())), (Packing, Binary));
        // Not an instance: packing, so the packing reader names the fault.
        for junk in [&b""[..], b"\n# only a comment\n", b"psdp 2\n", b"\xff\xfe", b"PSDPBIN"] {
            assert_eq!(sniff(junk), (Packing, Text), "{junk:?}");
        }
        // The magic alone makes bytes binary; an unknown tag or version
        // leaves the family to the packing reader.
        let mut unknown = write_mixed_instance_bin(&mixed());
        unknown[12] = 7;
        assert_eq!(sniff(&unknown), (Packing, Binary));
        assert_eq!(sniff(b"PSDPBIN1"), (Packing, Binary));
    }

    #[test]
    fn decode_and_encode_round_trip_both_families_and_encodings() {
        let insts = [Instance::Packing(Arc::new(packing())), Instance::Mixed(Arc::new(mixed()))];
        for inst in insts {
            for encoding in [Encoding::Text, Encoding::Binary] {
                let bytes = inst.encode(encoding);
                assert_eq!(sniff(&bytes), (inst.family(), encoding));
                let (back, hash) = Instance::decode(inst.family(), encoding, &bytes).unwrap();
                assert_eq!(hash, inst.content_hash());
                assert!(back.structural_eq(&inst));
                assert_eq!(back.encode(encoding), bytes);
                assert_eq!(back.total_nnz(), inst.total_nnz());
            }
        }
    }
}
