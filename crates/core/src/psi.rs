//! Incremental maintenance of `Ψ(t) = Σᵢ xᵢ(t) Aᵢ`.
//!
//! Algorithm 3.1 changes only the *selected* coordinates `B(t)` each round,
//! so the dense matrix the engines exponentiate can be maintained by
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
//! relative drift between the incremental and rebuilt matrices, and adopts
//! the rebuilt one. The largest observed drift is reported through
//! [`crate::stats::SolveStats::psi_max_drift`], so every experiment that
//! relies on the incremental path also measures its numerical honesty.
//!
//! **Pattern view.** Every entry of `Ψ` outside the symmetrized union of
//! the constraints' entries stays exactly `+0.0` for the whole run: the
//! scatter-adds, rebuilds and symmetrization never write anything else
//! there. A [`PsiPattern`] records that union once (flat CSR
//! `row_ptr`/`col_idx`, columns increasing), and [`PsiView`] applies the
//! dense `Ψ` over it as a [`SymOp`]. Each row sum visits the pattern
//! columns in increasing order and only products with an exact zero are
//! dropped, so every nonzero entry of the view's products — and the `λmax`
//! bound it computes — is bitwise the dense one, at `O(nnz(Ψ))` instead of
//! `O(m²)` work (an exactly-zero entry may differ in sign; see `DESIGN.md`
//! §4).

use crate::instance::PackingInstance;
use psdp_linalg::{lambda_max_upper_bound, Gathered, Mat, SymOp};
use psdp_sparse::PsdMatrix;
use rayon::prelude::*;

/// Full-rebuild cadence of the solvers' incremental `Ψ` maintenance:
/// every this-many updates a decision call's [`PsiMaintainer`]s recompute
/// `Σᵢ xᵢAᵢ` from scratch and record the drift (`DESIGN.md` §4).
pub const PSI_REBUILD_PERIOD: usize = 64;

/// Minimum total update nonzeros before the scatter path fans out to
/// rayon workers (below this the buffers cost more than they save).
const PARALLEL_SCATTER_NNZ: usize = 1 << 14;

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
/// assert!((psi.matrix()[(1, 1)] - 0.7).abs() < 1e-15);
/// # Ok::<(), psdp_core::PsdpError>(())
/// ```
#[derive(Debug)]
pub struct PsiMaintainer<'a> {
    inst: &'a PackingInstance,
    psi: Mat,
    /// Fixed sparsity pattern of `Ψ`, when the caller applies it through
    /// a [`PsiView`].
    pattern: Option<&'a PsiPattern>,
    /// Full rebuild cadence in updates; `0` disables periodic rebuilds.
    rebuild_period: usize,
    updates_since_rebuild: usize,
    rebuilds: usize,
    max_drift: f64,
    /// Dense-stored constraints may carry asymmetry up to the validation
    /// tolerance, so their updates re-symmetrize; all other storage kinds
    /// produce exactly symmetric scatter-adds and skip the `O(m²)` pass.
    has_dense: bool,
}

impl<'a> PsiMaintainer<'a> {
    /// Build `Ψ = Σᵢ xᵢAᵢ` from scratch and start maintaining it.
    /// `rebuild_period` is the number of incremental updates between full
    /// drift-checked rebuilds (`0` = never rebuild).
    pub fn new(inst: &'a PackingInstance, x: &[f64], rebuild_period: usize) -> Self {
        let psi = inst.weighted_sum(x);
        let has_dense = inst.mats().iter().any(|a| matches!(a, PsdMatrix::Dense(_)));
        PsiMaintainer {
            inst,
            psi,
            pattern: None,
            rebuild_period,
            updates_since_rebuild: 0,
            rebuilds: 0,
            max_drift: 0.0,
            has_dense,
        }
    }

    /// Like [`PsiMaintainer::new`], but also carry `Ψ`'s sparsity pattern
    /// (built by [`PsiPattern::new`] from the same instance), which enables
    /// [`PsiMaintainer::view`] and the pattern-restricted
    /// [`PsiMaintainer::kappa_bound`].
    pub fn with_pattern(
        inst: &'a PackingInstance,
        x: &[f64],
        rebuild_period: usize,
        pattern: &'a PsiPattern,
    ) -> Self {
        assert_eq!(pattern.dim(), inst.dim(), "PsiMaintainer: pattern dimension mismatch");
        PsiMaintainer { pattern: Some(pattern), ..PsiMaintainer::new(inst, x, rebuild_period) }
    }

    /// The current dense `Ψ` (symmetric; what the engines exponentiate).
    pub fn matrix(&self) -> &Mat {
        &self.psi
    }

    /// The current `Ψ` as an operator over its sparsity pattern (`None`
    /// unless built [`PsiMaintainer::with_pattern`]).
    pub fn view(&self) -> Option<PsiView<'_>> {
        self.pattern.map(|pattern| PsiView { psi: &self.psi, pattern })
    }

    /// The certified `λmax(Ψ)` upper bound
    /// [`psdp_linalg::lambda_max_upper_bound`] of the current `Ψ`, computed
    /// over the pattern when there is one (bitwise the same value).
    pub fn kappa_bound(&self) -> f64 {
        match self.view() {
            Some(view) => view.lambda_max_upper_bound(),
            None => lambda_max_upper_bound(&self.psi),
        }
    }

    /// Apply one round of coordinate updates: `Ψ += Σ_{(i,δ)} δ·Aᵢ`.
    ///
    /// Work is proportional to the updated constraints' storage nonzeros.
    /// Large update batches are expanded into per-chunk triplet buffers on
    /// rayon workers (the arithmetic — e.g. factor outer-product expansion —
    /// parallelizes; the final scatter into `Ψ` is a cheap sequential pass).
    pub fn apply_updates(&mut self, deltas: &[(usize, f64)]) {
        let mats = self.inst.mats();
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
                    self.psi[(r as usize, c as usize)] += v;
                }
            }
        } else {
            for &(i, d) in deltas {
                mats[i].add_scaled_into(&mut self.psi, d);
            }
        }
        if self.has_dense {
            self.psi.symmetrize();
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
    /// relative drift of the incremental matrix against it, and adopt the
    /// fresh one.
    pub fn rebuild(&mut self, x: &[f64]) {
        let fresh = self.inst.weighted_sum(x);
        let scale = fresh.max_abs().max(1e-300);
        let mut drift = 0.0_f64;
        for (a, b) in self.psi.as_slice().iter().zip(fresh.as_slice()) {
            drift = drift.max((a - b).abs());
        }
        self.max_drift = self.max_drift.max(drift / scale);
        self.psi = fresh;
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
/// (`row_ptr`/`col_idx`, columns strictly increasing within a row).
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
    col_idx: Vec<usize>,
}

impl PsiPattern {
    /// Collect the pattern of `inst`'s constraints. Work and memory are
    /// proportional to their expanded entries, never `m²` unless they are.
    pub fn new(inst: &PackingInstance) -> PsiPattern {
        let m = inst.dim();
        let mut entries: Vec<(usize, usize)> = Vec::new();
        for a in inst.mats() {
            a.for_each_entry(|r, c, _| {
                entries.push((r, c));
                entries.push((c, r));
            });
        }
        entries.sort_unstable();
        entries.dedup();
        let mut row_ptr = vec![0; m + 1];
        for &(r, _) in &entries {
            row_ptr[r + 1] += 1;
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = entries.into_iter().map(|(_, c)| c).collect();
        PsiPattern { row_ptr, col_idx }
    }

    /// Dimension `m`.
    pub(crate) fn dim(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of structural entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Columns of row `i`, increasing.
    pub(crate) fn row(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }
}

/// The dense `Ψ` of a [`PsiMaintainer`] applied over its [`PsiPattern`]
/// (from [`PsiMaintainer::view`]): every operation reads the maintained
/// values at the pattern's positions only, in the dense kernels' order.
#[derive(Debug, Clone, Copy)]
pub struct PsiView<'p> {
    psi: &'p Mat,
    pattern: &'p PsiPattern,
}

impl PsiView<'_> {
    /// [`psdp_linalg::lambda_max_upper_bound`] over the pattern:
    /// `min(max row |·|-sum, Frobenius norm)`. The row sums and the
    /// Frobenius sum run in the dense kernel's row-major order and only
    /// skip `+0.0` terms, so the result is bitwise the dense one.
    pub(crate) fn lambda_max_upper_bound(&self) -> f64 {
        let mut gersh: f64 = 0.0;
        let mut fro_sq = 0.0_f64;
        for i in 0..self.pattern.dim() {
            let row = self.psi.row(i);
            let mut row_sum = 0.0_f64;
            for &j in self.pattern.row(i) {
                row_sum += row[j].abs();
                fro_sq += row[j] * row[j];
            }
            gersh = gersh.max(row_sum);
        }
        gersh.min(fro_sq.sqrt())
    }
}

impl SymOp for PsiView<'_> {
    fn dim(&self) -> usize {
        self.pattern.dim()
    }

    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "PsiView: dim mismatch");
        (0..self.dim())
            .map(|i| {
                let row = self.psi.row(i);
                self.pattern.row(i).iter().fold(0.0, |acc, &j| acc + row[j] * x[j])
            })
            .collect()
    }

    fn nnz(&self) -> usize {
        (0..self.dim())
            .map(|i| {
                let row = self.psi.row(i);
                self.pattern.row(i).iter().filter(|&&j| row[j] != 0.0).count()
            })
            .sum()
    }

    /// Column `i` — what `apply_vec(eᵢ)` returns — is zero at every
    /// pattern position (the pattern is symmetric, so row `i`'s columns
    /// are column `i`'s rows).
    fn is_zero_row(&self, i: usize) -> bool {
        self.pattern.row(i).iter().all(|&r| self.psi[(r, i)] == 0.0)
    }

    /// The maintained values at the pattern positions of rows and columns
    /// `keep`, in [`SymOp::apply_vec`]'s column order.
    fn gather(&self, keep: &[usize]) -> Option<Gathered> {
        Some(Gathered::new(self.dim(), keep, |i| {
            let row = self.psi.row(i);
            self.pattern.row(i).iter().map(move |&j| (j, row[j]))
        }))
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
        let view = psi.view().unwrap();
        let zero: Vec<bool> = (0..5).map(|i| view.is_zero_row(i)).collect();
        assert_eq!(zero, [false, false, false, true, true]);
        let x = [0.3, -1.25, 0.7, 2.0, -0.5];
        let want = psdp_linalg::matvec(psi.matrix(), &x);
        let got = view.apply_vec(&x);
        for (a, b) in got.iter().zip(&want) {
            // Bitwise, except that an exact zero may differ in sign.
            assert!(a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0), "{a} vs {b}");
        }
        assert_eq!(view.nnz(), SymOp::nnz(psi.matrix()));
        assert_eq!(psi.kappa_bound().to_bits(), lambda_max_upper_bound(psi.matrix()).to_bits());
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
        for (a, b) in psi.matrix().as_slice().iter().zip(fresh.as_slice()) {
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
        for (p, q) in a.matrix().as_slice().iter().zip(b.matrix().as_slice()) {
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
        let asym = psi.matrix().asymmetry();
        assert!(asym <= 1e-12 * psi.matrix().max_abs().max(1.0), "asymmetry {asym}");
    }
}
