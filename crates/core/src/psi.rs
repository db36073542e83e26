//! Incremental maintenance of `Ψ(t) = Σᵢ xᵢ(t) Aᵢ`.
//!
//! Algorithm 3.1 changes only the *selected* coordinates `B(t)` each round,
//! so the matrix the engines exponentiate can be maintained by
//! scatter-adding the selected constraints' entries — work proportional to
//! the storage nonzeros of the update, never `Θ(n·m²)` as a from-scratch
//! `Σᵢ xᵢAᵢ` rebuild would cost. This is the structural step that makes the
//! Corollary 1.2 "nearly linear total work in the factorization size"
//! regime reachable on graph workloads, where constraints are rank-1 edge
//! Laplacians with `O(1)` nonzeros each (see `DESIGN.md` §4).
//!
//! Floating-point drift is bounded by a **periodic full rebuild**: every
//! `rebuild_period` updates the maintainer recomputes `Σᵢ xᵢAᵢ` from
//! scratch (rayon-parallel over constraint chunks, see
//! [`crate::instance::PackingInstance::weighted_sum`]), records the
//! relative drift between the incremental and rebuilt values, and adopts
//! the rebuilt ones. The largest observed drift is reported through
//! [`crate::stats::SolveStats::psi_max_drift`], so every experiment that
//! relies on the incremental path also measures its numerical honesty.
//!
//! **Pattern storage.** Every entry of `Ψ` outside the symmetrized union
//! of the constraints' entries stays exactly `+0.0` for the whole run: the
//! scatter-adds, rebuilds and symmetrization never write anything else
//! there. A [`PsiPattern`] records that union once (flat CSR
//! `row_ptr`/`col_idx`, columns increasing) together with every
//! constraint's entries mapped onto its slots, stored as an expansion or,
//! when that would outweigh a dense `Ψ`, found through a slot map. A
//! maintainer built [`PsiMaintainer::with_pattern`] then stores `Ψ` as one
//! value per slot, never an `m×m` matrix of values: updates and rebuilds
//! apply the same products in the same order and grouping as the dense
//! storage, so every slot holds the dense entry's bits (an exact zero may
//! differ in sign). [`PsiView`] applies the slots as a [`SymOp`] at
//! `O(nnz(Ψ))` work, bitwise the dense products and `λmax` bound, and
//! [`PsiMaintainer::lambda_max`] runs the eigensolver on the block of the
//! nonzero rows only (see `DESIGN.md` §4).

use crate::instance::PackingInstance;
use psdp_linalg::{lambda_max_upper_bound, sym_eigenvalues, Gathered, Mat, SymOp};
use psdp_sparse::PsdMatrix;
use rayon::prelude::*;
use std::borrow::Cow;
use std::ops::Range;

/// Full-rebuild cadence of the solvers' incremental `Ψ` maintenance:
/// every this-many updates a decision call's [`PsiMaintainer`]s recompute
/// `Σᵢ xᵢAᵢ` from scratch and record the drift (`DESIGN.md` §4).
pub const PSI_REBUILD_PERIOD: usize = 64;

/// Minimum total update nonzeros before the dense scatter path fans out
/// to rayon workers (below this the buffers cost more than they save).
const PARALLEL_SCATTER_NNZ: usize = 1 << 14;

/// A row, column or slot index of a [`PsiPattern`], which stores them as
/// `u32`.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("PsiPattern: index exceeds u32")
}

/// Incrementally maintained `Ψ = Σᵢ xᵢAᵢ` with periodic drift-checked
/// rebuilds.
///
/// ```
/// use psdp_core::{PackingInstance, PsiMaintainer};
/// use psdp_sparse::PsdMatrix;
///
/// let inst = PackingInstance::new(vec![
///     PsdMatrix::Diagonal(vec![1.0, 0.0]),
///     PsdMatrix::Diagonal(vec![0.0, 2.0]),
/// ])?;
/// let mut x = vec![0.5, 0.25];
/// let mut psi = PsiMaintainer::new(&inst, &x, 16);
/// // Step coordinate 1 by +0.1: apply only that constraint's entries.
/// x[1] += 0.1;
/// psi.apply_updates(&[(1, 0.1)]);
/// assert!((psi.matrix().expect("dense storage")[(1, 1)] - 0.7).abs() < 1e-15);
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
#[derive(Debug)]
pub struct PsiMaintainer<'a> {
    inst: &'a PackingInstance,
    storage: Storage<'a>,
    /// Full rebuild cadence in updates; `0` disables periodic rebuilds.
    rebuild_period: usize,
    updates_since_rebuild: usize,
    rebuilds: usize,
    max_drift: f64,
    /// Dense-stored constraints may carry asymmetry up to the validation
    /// tolerance, so their updates re-symmetrize; all other storage kinds
    /// produce exactly symmetric scatter-adds and skip the pass.
    has_dense: bool,
}

/// Where a [`PsiMaintainer`] keeps `Ψ`.
#[derive(Debug)]
enum Storage<'a> {
    /// The dense `m×m` matrix (the dense engines' form).
    Dense(Mat),
    /// One value per slot of `pattern` (the `Expv` engine's form).
    Pattern { pattern: &'a PsiPattern, values: Vec<f64> },
}

impl Storage<'_> {
    /// The stored values: every dense entry, or every slot.
    fn values(&self) -> &[f64] {
        match self {
            Storage::Dense(psi) => psi.as_slice(),
            Storage::Pattern { values, .. } => values,
        }
    }
}

impl<'a> PsiMaintainer<'a> {
    /// Build `Ψ = Σᵢ xᵢAᵢ` from scratch as a dense matrix and start
    /// maintaining it. `rebuild_period` is the number of incremental
    /// updates between full drift-checked rebuilds (`0` = never rebuild).
    pub fn new(inst: &'a PackingInstance, x: &[f64], rebuild_period: usize) -> Self {
        PsiMaintainer::stored(inst, Storage::Dense(inst.weighted_sum(x)), rebuild_period)
    }

    /// Like [`PsiMaintainer::new`], but store `Ψ` on its sparsity pattern
    /// (built by [`PsiPattern::new`] from the same instance): one value per
    /// slot, no dense matrix. This enables [`PsiMaintainer::view`]; every
    /// value, [`PsiMaintainer::kappa_bound`] and drift is bitwise the dense
    /// storage's.
    pub fn with_pattern(
        inst: &'a PackingInstance,
        x: &[f64],
        rebuild_period: usize,
        pattern: &'a PsiPattern,
    ) -> Self {
        assert_eq!(pattern.dim(), inst.dim(), "PsiMaintainer: pattern dimension mismatch");
        let values = pattern.weighted_sum(inst, x);
        PsiMaintainer::stored(inst, Storage::Pattern { pattern, values }, rebuild_period)
    }

    fn stored(inst: &'a PackingInstance, storage: Storage<'a>, rebuild_period: usize) -> Self {
        let has_dense = inst.mats().iter().any(|a| matches!(a, PsdMatrix::Dense(_)));
        PsiMaintainer {
            inst,
            storage,
            rebuild_period,
            updates_since_rebuild: 0,
            rebuilds: 0,
            max_drift: 0.0,
            has_dense,
        }
    }

    /// The current dense `Ψ` (symmetric; what the dense engines
    /// exponentiate), or `None` on pattern storage.
    pub fn matrix(&self) -> Option<&Mat> {
        match &self.storage {
            Storage::Dense(psi) => Some(psi),
            Storage::Pattern { .. } => None,
        }
    }

    /// The current `Ψ` as an operator over its sparsity pattern, or `None`
    /// on dense storage.
    pub fn view(&self) -> Option<PsiView<'_>> {
        match &self.storage {
            Storage::Dense(_) => None,
            Storage::Pattern { pattern, values } => Some(PsiView { pattern, values }),
        }
    }

    /// The current `Ψ` as a dense matrix, whatever the storage: borrowed
    /// on dense storage, assembled from the slots on pattern storage.
    pub fn dense(&self) -> Cow<'_, Mat> {
        let Some(view) = self.view() else {
            return Cow::Borrowed(self.matrix().expect("Ψ without a pattern is stored densely"));
        };
        let mut psi = Mat::zeros(view.dim(), view.dim());
        for i in 0..view.dim() {
            for (j, v) in view.row(i) {
                psi[(i, j)] = v;
            }
        }
        Cow::Owned(psi)
    }

    /// The certified `λmax(Ψ)` upper bound
    /// [`psdp_linalg::lambda_max_upper_bound`] of the current `Ψ`, computed
    /// over the pattern on pattern storage (bitwise the same value).
    pub fn kappa_bound(&self) -> f64 {
        match self.view() {
            Some(view) => view.lambda_max_upper_bound(),
            None => lambda_max_upper_bound(&self.dense()),
        }
    }

    /// The measured `λmax(Ψ)` a packing dual certifies by: the
    /// eigensolver's, or [`PsiMaintainer::kappa_bound`] when the
    /// eigensolver fails. Pattern storage runs the eigensolver on the
    /// principal block of `Ψ`'s nonzero rows: every other row and column
    /// is exactly zero, so the spectrum is the block's plus zeros.
    pub fn lambda_max(&self) -> f64 {
        let measured = match self.view() {
            Some(view) => view.live_block_lambda_max(),
            None => sym_eigenvalues(&self.dense()).map(|values| values[values.len() - 1]),
        };
        measured.unwrap_or_else(|_| self.kappa_bound())
    }

    /// Apply one round of coordinate updates: `Ψ += Σ_{(i,δ)} δ·Aᵢ`.
    ///
    /// Work is proportional to the updated constraints' storage nonzeros.
    /// On dense storage, large update batches are expanded into per-chunk
    /// triplet buffers on rayon workers (the arithmetic — e.g. factor
    /// outer-product expansion — parallelizes; the final scatter into `Ψ`
    /// is a cheap sequential pass). Pattern storage scatters each
    /// constraint's entries onto their [`PsiPattern`] slots, in the same
    /// order.
    pub fn apply_updates(&mut self, deltas: &[(usize, f64)]) {
        let mats = self.inst.mats();
        match &mut self.storage {
            Storage::Pattern { pattern, values } => {
                for &(i, d) in deltas {
                    pattern.scatter(values, i, &mats[i], d);
                }
                if self.has_dense {
                    pattern.symmetrize(values);
                }
            }
            Storage::Dense(psi) => {
                let nnz_total: usize = deltas.iter().map(|&(i, _)| mats[i].storage_nnz()).sum();
                if deltas.len() >= 8
                    && nnz_total >= PARALLEL_SCATTER_NNZ
                    && rayon::current_num_threads() > 1
                {
                    let chunk = deltas.len().div_ceil(rayon::current_num_threads());
                    let buffers: Vec<Vec<(u32, u32, f64)>> = deltas
                        .par_chunks(chunk)
                        .map(|part| {
                            let mut buf = Vec::new();
                            for &(i, d) in part {
                                mats[i].for_each_entry(|r, c, v| {
                                    buf.push((r as u32, c as u32, d * v));
                                });
                            }
                            buf
                        })
                        .collect();
                    for buf in buffers {
                        for (r, c, v) in buf {
                            psi[(r as usize, c as usize)] += v;
                        }
                    }
                } else {
                    for &(i, d) in deltas {
                        mats[i].add_scaled_into(psi, d);
                    }
                }
                if self.has_dense {
                    psi.symmetrize();
                }
            }
        }
        self.updates_since_rebuild += 1;
    }

    /// Rebuild from scratch if the periodic cadence says so; returns `true`
    /// when a rebuild happened. `x` must be the *current* full iterate.
    pub fn maybe_rebuild(&mut self, x: &[f64]) -> bool {
        if self.rebuild_period == 0 || self.updates_since_rebuild < self.rebuild_period {
            return false;
        }
        self.rebuild(x);
        true
    }

    /// Unconditionally recompute `Ψ = Σᵢ xᵢAᵢ` from scratch, record the
    /// relative drift of the incremental values against it, and adopt the
    /// fresh ones.
    pub fn rebuild(&mut self, x: &[f64]) {
        let fresh = match &self.storage {
            Storage::Dense(_) => Storage::Dense(self.inst.weighted_sum(x)),
            Storage::Pattern { pattern, .. } => {
                Storage::Pattern { pattern, values: pattern.weighted_sum(self.inst, x) }
            }
        };
        // Entries off the pattern are `+0.0` in both, so the slots see the
        // same largest entry and the same largest difference.
        let (old, new) = (self.storage.values(), fresh.values());
        let scale = new.iter().fold(0.0_f64, |acc, v| acc.max(v.abs())).max(1e-300);
        let mut drift = 0.0_f64;
        for (a, b) in old.iter().zip(new) {
            drift = drift.max((a - b).abs());
        }
        self.max_drift = self.max_drift.max(drift / scale);
        self.storage = fresh;
        self.rebuilds += 1;
        self.updates_since_rebuild = 0;
    }

    /// Number of full rebuilds performed so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Largest relative drift `‖Ψ_inc − Ψ_fresh‖_max / ‖Ψ_fresh‖_max`
    /// observed at any rebuild (0 if none happened).
    pub fn max_drift(&self) -> f64 {
        self.max_drift
    }
}

/// The fixed sparsity pattern of `Ψ = Σᵢ xᵢAᵢ` over an instance: the
/// symmetrized union of every constraint's stored entries, as flat CSR
/// (`row_ptr`/`col_idx`, columns strictly increasing within a row), with
/// a map from every constraint's entries to their slots that takes no
/// more memory than a dense `m×m` matrix.
///
/// ```
/// use psdp_core::{PackingInstance, PsiMaintainer, PsiPattern};
/// use psdp_linalg::SymOp;
/// use psdp_sparse::PsdMatrix;
///
/// let inst = PackingInstance::new(vec![
///     PsdMatrix::Diagonal(vec![1.0, 0.0, 0.0]),
///     PsdMatrix::Diagonal(vec![0.0, 2.0, 0.0]),
/// ])?;
/// let pattern = PsiPattern::new(&inst);
/// assert_eq!(pattern.nnz(), 2);
/// let psi = PsiMaintainer::with_pattern(&inst, &[0.5, 0.25], 16, &pattern);
/// let view = psi.view().expect("built with a pattern");
/// assert_eq!(view.apply_vec(&[1.0, 1.0, 1.0]), vec![0.5, 0.5, 0.0]);
/// assert!(view.is_zero_row(2) && !view.is_zero_row(0));
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PsiPattern {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    /// The slot of entry `(c, r)` for the slot of each `(r, c)`.
    mirror: Vec<u32>,
    entry_slots: EntrySlots,
}

/// How a scatter finds the slots of a constraint's entries.
#[derive(Debug, Clone)]
enum EntrySlots {
    /// Every constraint's [`PsdMatrix::for_each_entry`] entries in
    /// visiting order, with their values, mapped to their slots:
    /// constraint `i`'s are `slots[ptr[i]..ptr[i + 1]]` and
    /// `values[ptr[i]..ptr[i + 1]]`. Kept when its 12 bytes an entry take
    /// at most the 8·m² bytes of a dense `Ψ`.
    Expanded { ptr: Vec<usize>, slots: Vec<u32>, values: Vec<f64> },
    /// Otherwise the slot of every pattern entry `(r, c)` at `r·m + c`
    /// (4·m² bytes), and each scatter visits the constraint's entries.
    Map(Vec<u32>),
}

impl PsiPattern {
    /// Collect the pattern of `inst`'s constraints and map their entries
    /// onto it (two passes over their entries, or one with a slot map).
    /// Work is proportional to their expanded entries (plus `m²` for a
    /// slot map, which is built only when they outnumber `2m²/3`); memory
    /// is the pattern plus at most a dense `m×m` matrix's.
    pub fn new(inst: &PackingInstance) -> PsiPattern {
        let m = inst.dim();
        let (mut entries, mut expanded, mut kept) = (Vec::new(), 0_usize, 0);
        for a in inst.mats() {
            a.for_each_entry(|r, c, _| {
                entries.extend([(index(r), index(c)), (index(c), index(r))]);
                expanded += 1;
            });
            // Deduplicate whenever the list doubles, so that it stays within
            // about twice the pattern plus one constraint's entries.
            if entries.len() >= 2 * kept.max(1 << 12) {
                entries.sort_unstable();
                entries.dedup();
                kept = entries.len();
            }
        }
        entries.sort_unstable();
        entries.dedup();
        let mut row_ptr = vec![0; m + 1];
        for &(r, _) in &entries {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = entries.into_iter().map(|(_, c)| c).collect();
        let mut pattern = PsiPattern {
            row_ptr,
            col_idx,
            mirror: Vec::new(),
            entry_slots: EntrySlots::Map(Vec::new()),
        };
        pattern.mirror = (0..m)
            .flat_map(|r| pattern.row_slots(r).map(move |p| (r, p)))
            .map(|(r, p)| index(pattern.slot(pattern.col_idx[p] as usize, r)))
            .collect();
        let fits = expanded.saturating_mul(12) <= m.saturating_mul(m).saturating_mul(8);
        pattern.entry_slots = if fits {
            let (mut ptr, mut slots, mut values) = (vec![0], Vec::new(), Vec::new());
            slots.reserve_exact(expanded);
            values.reserve_exact(expanded);
            for a in inst.mats() {
                a.for_each_entry(|r, c, v| {
                    slots.push(index(pattern.slot(r, c)));
                    values.push(v);
                });
                ptr.push(slots.len());
            }
            EntrySlots::Expanded { ptr, slots, values }
        } else {
            EntrySlots::Map(pattern.slot_map())
        };
        pattern
    }

    /// Dimension `m`.
    pub(crate) fn dim(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of structural entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Whether the constraints' entries are kept expanded onto the slots.
    #[cfg(test)]
    fn is_expanded(&self) -> bool {
        matches!(self.entry_slots, EntrySlots::Expanded { .. })
    }

    /// The slot of every pattern entry `(r, c)` at `r·m + c`.
    fn slot_map(&self) -> Vec<u32> {
        let m = self.dim();
        let mut map = vec![u32::MAX; m * m];
        for r in 0..m {
            for p in self.row_slots(r) {
                map[r * m + self.col_idx[p] as usize] = index(p);
            }
        }
        map
    }

    /// The slots of row `i`, in column order.
    fn row_slots(&self, i: usize) -> Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// Columns of row `i`, increasing.
    #[cfg(test)]
    fn row(&self, i: usize) -> &[u32] {
        &self.col_idx[self.row_slots(i)]
    }

    /// The slot of entry `(r, c)`, which must be in the pattern.
    fn slot(&self, r: usize, c: usize) -> usize {
        let slots = self.row_slots(r);
        let k =
            self.col_idx[slots.clone()].binary_search(&(c as u32)).expect("entry in the pattern");
        slots.start + k
    }

    /// `values += d·Aᵢ` for constraint `a = Aᵢ`: each of its entries adds
    /// `d·v` to its slot, in [`PsdMatrix::for_each_entry`] order — the
    /// products and the order of the dense scatter-adds — from the stored
    /// expansion, or from `a` itself through the slot map.
    fn scatter(&self, values: &mut [f64], i: usize, a: &PsdMatrix, d: f64) {
        match &self.entry_slots {
            EntrySlots::Expanded { ptr, slots, values: vs } => {
                let span = ptr[i]..ptr[i + 1];
                for (&slot, &v) in slots[span.clone()].iter().zip(&vs[span]) {
                    values[slot as usize] += d * v;
                }
            }
            EntrySlots::Map(map) => {
                let m = self.dim();
                a.for_each_entry(|r, c, v| values[map[r * m + c] as usize] += d * v);
            }
        }
    }

    /// [`Mat::symmetrize`] on the slots: each pair of mirrored slots takes
    /// the average `0.5·(a_rc + a_cr)` for `r < c`, in that operand order.
    fn symmetrize(&self, values: &mut [f64]) {
        for r in 0..self.dim() {
            for p in self.row_slots(r).filter(|&p| self.col_idx[p] as usize > r) {
                let q = self.mirror[p] as usize;
                let avg = 0.5 * (values[p] + values[q]);
                values[p] = avg;
                values[q] = avg;
            }
        }
    }

    /// `Σᵢ xᵢAᵢ` on the slots, grouped as
    /// [`PackingInstance::weighted_sum`] groups the dense sum and then
    /// symmetrized the same way, so every slot holds the dense entry's
    /// bits.
    fn weighted_sum(&self, inst: &PackingInstance, x: &[f64]) -> Vec<f64> {
        let mats = inst.mats();
        let mut values = inst.accumulate(
            x,
            || vec![0.0; self.nnz()],
            |acc, i, xi| self.scatter(acc, i, &mats[i], xi),
            // `Mat::axpy` by 1.0: `1.0·v` is `v` exactly.
            |total, part| {
                for (t, v) in total.iter_mut().zip(part) {
                    *t += v;
                }
            },
        );
        self.symmetrize(&mut values);
        values
    }
}

/// The slot-stored `Ψ` of a [`PsiMaintainer`] applied over its
/// [`PsiPattern`] (from [`PsiMaintainer::view`]): every operation reads
/// the slots only, in the dense kernels' order.
#[derive(Debug, Clone, Copy)]
pub struct PsiView<'p> {
    pattern: &'p PsiPattern,
    values: &'p [f64],
}

impl PsiView<'_> {
    /// Row `i`'s `(column, value)` entries, columns increasing.
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.pattern.row_slots(i).map(|p| (self.pattern.col_idx[p] as usize, self.values[p]))
    }

    /// [`psdp_linalg::lambda_max_upper_bound`] over the pattern:
    /// `min(max row |·|-sum, Frobenius norm)`. The row sums and the
    /// Frobenius sum run in the dense kernel's row-major order and only
    /// skip `+0.0` terms, so the result is bitwise the dense one.
    pub(crate) fn lambda_max_upper_bound(&self) -> f64 {
        let mut gersh: f64 = 0.0;
        let mut fro_sq = 0.0_f64;
        for i in 0..self.dim() {
            let mut row_sum = 0.0_f64;
            for (_, v) in self.row(i) {
                row_sum += v.abs();
                fro_sq += v * v;
            }
            gersh = gersh.max(row_sum);
        }
        gersh.min(fro_sq.sqrt())
    }

    /// The eigensolver's `λmax` on the principal block of the nonzero
    /// rows. `Ψ` is exactly symmetric, so a zero row is a zero column and
    /// the spectrum is the block's plus one zero per dropped row.
    fn live_block_lambda_max(&self) -> Result<f64, psdp_linalg::LinalgError> {
        let live: Vec<usize> = (0..self.dim()).filter(|&i| !self.is_zero_row(i)).collect();
        let mut local = vec![usize::MAX; self.dim()];
        for (k, &i) in live.iter().enumerate() {
            local[i] = k;
        }
        let mut block = Mat::zeros(live.len(), live.len());
        for (k, &i) in live.iter().enumerate() {
            for (j, v) in self.row(i).filter(|&(j, _)| local[j] != usize::MAX) {
                block[(k, local[j])] = v;
            }
        }
        let values = sym_eigenvalues(&block)?;
        Ok(match values.last() {
            Some(&top) if live.len() == self.dim() => top,
            Some(&top) => top.max(0.0),
            None => 0.0,
        })
    }
}

impl SymOp for PsiView<'_> {
    fn dim(&self) -> usize {
        self.pattern.dim()
    }

    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "PsiView: dim mismatch");
        (0..self.dim()).map(|i| self.row(i).fold(0.0, |acc, (j, v)| acc + v * x[j])).collect()
    }

    fn nnz(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0.0).count()
    }

    /// Column `i` — what `apply_vec(eᵢ)` returns — is zero at every
    /// pattern position (the pattern is symmetric, so row `i`'s mirrored
    /// slots are column `i`).
    fn is_zero_row(&self, i: usize) -> bool {
        self.pattern.row_slots(i).all(|p| self.values[self.pattern.mirror[p] as usize] == 0.0)
    }

    /// The slots of rows and columns `keep`, in [`SymOp::apply_vec`]'s
    /// column order.
    fn gather(&self, keep: &[usize]) -> Option<Gathered> {
        Some(Gathered::new(self.dim(), keep, |i| self.row(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_sparse::{Csr, FactorPsd};

    fn mixed_instance() -> PackingInstance {
        let mut dense = Mat::zeros(4, 4);
        dense.rank1_update(0.5, &[1.0, 0.0, 1.0, 0.0]);
        dense.add_diag(0.1);
        let sparse = Csr::from_triplets(
            4,
            4,
            &[(0, 0, 1.0), (1, 1, 2.0), (1, 2, -0.5), (2, 1, -0.5), (2, 2, 1.0)],
        );
        let factor = FactorPsd::from_vector(&[0.0, 1.0, -1.0, 0.0]);
        PackingInstance::new(vec![
            PsdMatrix::Dense(dense),
            PsdMatrix::Sparse(sparse),
            PsdMatrix::Factor(factor),
            PsdMatrix::Diagonal(vec![0.5, 0.0, 0.0, 1.5]),
        ])
        .unwrap()
    }

    #[test]
    fn view_matches_dense_and_reports_zero_rows() {
        // Rows: 0 holds one diagonal entry, 1–2 a factor block, 3 nothing,
        // 4 a constraint whose weight is exactly zero.
        let inst = PackingInstance::new(vec![
            PsdMatrix::Diagonal(vec![1.0, 0.0, 0.0, 0.0, 0.0]),
            PsdMatrix::Factor(FactorPsd::from_vector(&[0.0, 1.0, -1.0, 0.0, 0.0])),
            PsdMatrix::Diagonal(vec![0.0, 0.0, 0.0, 0.0, 3.0]),
        ])
        .unwrap();
        let pattern = PsiPattern::new(&inst);
        assert_eq!(pattern.nnz(), 6);
        assert_eq!(pattern.row(1), &[1, 2]);
        let psi = PsiMaintainer::with_pattern(&inst, &[0.5, 0.25, 0.0], 0, &pattern);
        let twin = PsiMaintainer::new(&inst, &[0.5, 0.25, 0.0], 0);
        let dense = twin.matrix().unwrap();
        let view = psi.view().unwrap();
        let zero: Vec<bool> = (0..5).map(|i| view.is_zero_row(i)).collect();
        assert_eq!(zero, [false, false, false, true, true]);
        let x = [0.3, -1.25, 0.7, 2.0, -0.5];
        let want = psdp_linalg::matvec(dense, &x);
        let got = view.apply_vec(&x);
        for (a, b) in got.iter().zip(&want) {
            // Bitwise, except that an exact zero may differ in sign.
            assert!(a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0), "{a} vs {b}");
        }
        assert_eq!(view.nnz(), SymOp::nnz(dense));
        assert_eq!(psi.kappa_bound().to_bits(), lambda_max_upper_bound(dense).to_bits());
    }

    #[test]
    fn gathered_matvec_equals_view_bitwise_on_its_rows() {
        // The rows of `view_matches_dense_and_reports_zero_rows`: 3 and 4
        // are zero, and 4 (in the pattern, at zero weight) may be kept as
        // a factor column's support row is.
        let inst = PackingInstance::new(vec![
            PsdMatrix::Diagonal(vec![1.0, 0.0, 0.0, 0.0, 0.0]),
            PsdMatrix::Factor(FactorPsd::from_vector(&[0.0, 1.0, -1.0, 0.0, 0.0])),
            PsdMatrix::Diagonal(vec![0.0, 0.0, 0.0, 0.0, 3.0]),
        ])
        .unwrap();
        let pattern = PsiPattern::new(&inst);
        let psi = PsiMaintainer::with_pattern(&inst, &[0.5, 0.25, 0.0], 0, &pattern);
        let view = psi.view().unwrap();
        for keep in [&[0usize, 1, 2][..], &[0, 1, 2, 4]] {
            let g = view.gather(keep).expect("the view gathers");
            assert_eq!((g.dim(), g.nnz()), (keep.len(), view.nnz()));
            // Zero off `keep`, a negative zero among the dropped entries.
            let mut x = [0.3, -1.25, 0.7, -0.0, 0.0];
            if keep.contains(&4) {
                x[4] = 2.0;
            }
            let x_u: Vec<f64> = keep.iter().map(|&i| x[i]).collect();
            let (got, want) = (g.apply_vec(&x_u), view.apply_vec(&x));
            for (k, &i) in keep.iter().enumerate() {
                assert_eq!(got[k].to_bits(), want[i].to_bits(), "keep {keep:?}, row {i}");
            }
        }
    }

    #[test]
    fn incremental_matches_rebuild_over_many_rounds() {
        let inst = mixed_instance();
        let mut x = vec![0.1, 0.2, 0.3, 0.4];
        let mut psi = PsiMaintainer::new(&inst, &x, 0);
        for round in 0..200 {
            let i = round % inst.n();
            let delta = 0.01 * (1.0 + (round % 3) as f64);
            x[i] += delta;
            psi.apply_updates(&[(i, delta)]);
        }
        let fresh = inst.weighted_sum(&x);
        let scale = fresh.max_abs();
        for (a, b) in psi.matrix().unwrap().as_slice().iter().zip(fresh.as_slice()) {
            assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn periodic_rebuild_fires_and_tracks_drift() {
        let inst = mixed_instance();
        let mut x = vec![0.1; 4];
        let mut psi = PsiMaintainer::new(&inst, &x, 4);
        let mut rebuilt = 0;
        for round in 0..20 {
            let i = round % 4;
            x[i] += 0.05;
            psi.apply_updates(&[(i, 0.05)]);
            if psi.maybe_rebuild(&x) {
                rebuilt += 1;
            }
        }
        assert_eq!(rebuilt, 5);
        assert_eq!(psi.rebuilds(), 5);
        assert!(psi.max_drift() < 1e-12, "drift {}", psi.max_drift());
    }

    #[test]
    fn batch_updates_match_sequential() {
        let inst = mixed_instance();
        let x = vec![0.25; 4];
        let mut a = PsiMaintainer::new(&inst, &x, 0);
        let mut b = PsiMaintainer::new(&inst, &x, 0);
        let deltas = [(0, 0.1), (2, 0.2), (3, 0.05)];
        a.apply_updates(&deltas);
        for &d in &deltas {
            b.apply_updates(&[d]);
        }
        for (p, q) in a.matrix().unwrap().as_slice().iter().zip(b.matrix().unwrap().as_slice()) {
            assert!((p - q).abs() < 1e-14);
        }
    }

    #[test]
    fn symmetry_preserved_without_per_round_symmetrize() {
        let inst = mixed_instance();
        let mut x = vec![0.1; 4];
        let mut psi = PsiMaintainer::new(&inst, &x, 0);
        for round in 0..100 {
            let i = (round * 7 + 1) % 4;
            x[i] += 0.02;
            psi.apply_updates(&[(i, 0.02)]);
        }
        let psi = psi.matrix().unwrap();
        let asym = psi.asymmetry();
        assert!(asym <= 1e-12 * psi.max_abs().max(1.0), "asymmetry {asym}");
    }

    fn sym_lambda_max(psi: &Mat) -> f64 {
        *sym_eigenvalues(psi).unwrap().last().unwrap()
    }

    /// With every row of `Ψ` nonzero, the live block is all of `Ψ`: the
    /// pattern storage's `λmax` is the dense eigensolver's, bit for bit.
    #[test]
    fn live_block_lambda_max_is_the_dense_one_when_every_row_is_live() {
        let inst = mixed_instance();
        let pattern = PsiPattern::new(&inst);
        for x in [[0.1, 0.2, 0.3, 0.4], [1.5, 0.0, 0.25, 2.0]] {
            let psi = PsiMaintainer::with_pattern(&inst, &x, 0, &pattern);
            let dense = PsiMaintainer::new(&inst, &x, 0);
            let view = psi.view().unwrap();
            assert!((0..inst.dim()).all(|i| !view.is_zero_row(i)));
            let want = sym_lambda_max(dense.matrix().unwrap());
            assert_eq!(psi.lambda_max().to_bits(), want.to_bits(), "x = {x:?}");
            assert_eq!(dense.lambda_max().to_bits(), want.to_bits());
        }
    }

    /// The expansion is kept only within a dense `Ψ`'s memory, and a
    /// pattern without one finds the entries' slots through the slot map,
    /// to the same slot bits through updates and rebuilds.
    #[test]
    fn pattern_without_expansion_scatters_the_same_bits() {
        // 17 entries on m = 4 (12·17 > 8·16), 33 on m = 12.
        assert!(!PsiPattern::new(&mixed_instance()).is_expanded());
        let inst = dead_row_instance();
        let expanded = PsiPattern::new(&inst);
        assert!(expanded.is_expanded());
        let visited =
            PsiPattern { entry_slots: EntrySlots::Map(expanded.slot_map()), ..expanded.clone() };
        let mut x = vec![0.5, 0.25, 1.0, 0.0, 0.75];
        let mut a = PsiMaintainer::with_pattern(&inst, &x, 3, &expanded);
        let mut b = PsiMaintainer::with_pattern(&inst, &x, 3, &visited);
        for round in 0..10 {
            let step = [(0, 0.125), (2, -0.0625), (3, 0.03125 * round as f64)];
            for &(i, d) in &step {
                x[i] += d;
            }
            a.apply_updates(&step);
            b.apply_updates(&step);
            assert_eq!(a.maybe_rebuild(&x), b.maybe_rebuild(&x));
            let bits = |p: &PsiMaintainer| -> Vec<u64> {
                p.storage.values().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b), "round {round}");
            assert_eq!(a.max_drift().to_bits(), b.max_drift().to_bits());
        }
        assert_eq!(a.rebuilds(), 3);
    }

    /// Twelve rows, of which the constraints touch 1, 3, 4, 6, 9 and 11;
    /// row 11 belongs to the fourth constraint only.
    fn dead_row_instance() -> PackingInstance {
        let rank1 = |entries: &[(usize, f64)]| {
            let mut v = vec![0.0; 12];
            for &(i, w) in entries {
                v[i] = w;
            }
            PsdMatrix::Factor(FactorPsd::from_vector(&v))
        };
        let sparse =
            Csr::from_triplets(12, 12, &[(3, 3, 0.5), (3, 6, -0.5), (6, 3, -0.5), (6, 6, 1.0)]);
        let mut diag = vec![0.0; 12];
        diag[11] = 2.0;
        diag[4] = 0.75;
        PackingInstance::new(vec![
            rank1(&[(1, 1.0), (4, -0.5), (9, 0.25)]),
            rank1(&[(4, 0.75), (6, 1.5), (1, -0.3)]),
            PsdMatrix::Sparse(sparse),
            PsdMatrix::Diagonal(diag),
            rank1(&[(3, 1.0), (9, -2.0), (1, 0.5)]),
        ])
        .unwrap()
    }

    /// With zero rows, the live block's `λmax` matches the dense
    /// eigensolver's on all of `Ψ` to 1e-12 relative, whether a row is
    /// off the pattern or on it at zero weight, through updates and a
    /// rebuild; a `Ψ` with no live row has `λmax = 0`.
    #[test]
    fn live_block_lambda_max_matches_dense_eigenvalues_with_dead_rows() {
        let inst = dead_row_instance();
        let pattern = PsiPattern::new(&inst);
        for x in [[0.5, 0.25, 1.0, 0.0, 0.75], [0.1, 0.0, 0.3, 0.2, 2.0]] {
            let mut x = x.to_vec();
            let mut psi = PsiMaintainer::with_pattern(&inst, &x, 4, &pattern);
            for round in 0..10 {
                let view = psi.view().unwrap();
                let dead = (0..12).filter(|&i| view.is_zero_row(i)).count();
                assert!(dead >= 6, "x = {x:?}: {dead} dead rows");
                let want = sym_lambda_max(&psi.dense());
                let got = psi.lambda_max();
                assert!((got - want).abs() <= 1e-12 * want, "round {round}: {got} vs {want}");
                let step = [(0, 0.125), (2, 0.0625 * round as f64), (4, 0.25)];
                for &(i, d) in &step {
                    x[i] += d;
                }
                psi.apply_updates(&step);
                psi.maybe_rebuild(&x);
            }
            assert_eq!(psi.rebuilds(), 2);
        }
        let zero = PsiMaintainer::with_pattern(&inst, &[0.0; 5], 0, &pattern);
        assert_eq!(zero.lambda_max(), 0.0);
    }
}
