//! Unified representation of PSD constraint matrices.
//!
//! The solver accepts constraint matrices in four forms and treats them
//! uniformly through this enum (the solver-facing alias is
//! `psdp_core::Constraint`):
//!
//! * [`PsdMatrix::Dense`] — an explicit symmetric PSD `Mat` (the paper's
//!   "not given in factorized form" case; converted once by preprocessing
//!   when a vector engine needs factors),
//! * [`PsdMatrix::Sparse`] — an explicit symmetric PSD matrix stored in
//!   CSR; the natural format for (sub)graph Laplacians and other
//!   entry-sparse constraints that are not rank-structured,
//! * [`PsdMatrix::Factor`] — `A = QQᵀ` with sparse `Q` (Theorem 4.1's input
//!   format),
//! * [`PsdMatrix::Diagonal`] — nonnegative diagonal matrices; positive
//!   **LP**s embed into positive SDPs exactly through this case, which the
//!   cross-validation experiments exploit.
//!
//! Storage choice only affects *cost*, never semantics: every operation is
//! required to agree (up to floating point) with the densified matrix, and
//! the `storage equivalence` integration tests assert exactly that through
//! the whole solver.

use crate::csr::Csr;
use crate::factor::FactorPsd;
use psdp_linalg::{psd_factor, Mat};

/// A positive semidefinite matrix in one of four storage formats.
#[derive(Debug, Clone)]
pub enum PsdMatrix {
    /// Explicit dense symmetric PSD matrix.
    Dense(Mat),
    /// Explicit symmetric PSD matrix in CSR storage. Must be *exactly*
    /// symmetric (`a_ij` bitwise equal to `a_ji`), which
    /// [`PsdMatrix::validate_cheap`] enforces; this is what lets the
    /// solver's incremental Ψ accumulation skip per-iteration
    /// re-symmetrization on sparse instances.
    Sparse(Csr),
    /// Factorized `A = QQᵀ`.
    Factor(FactorPsd),
    /// Diagonal with nonnegative entries.
    Diagonal(Vec<f64>),
}

impl PsdMatrix {
    /// Ambient dimension `m`.
    pub fn dim(&self) -> usize {
        match self {
            PsdMatrix::Dense(a) => a.nrows(),
            PsdMatrix::Sparse(s) => s.nrows(),
            PsdMatrix::Factor(f) => f.dim(),
            PsdMatrix::Diagonal(d) => d.len(),
        }
    }

    /// `Tr A`.
    pub fn trace(&self) -> f64 {
        match self {
            PsdMatrix::Dense(a) => a.trace(),
            PsdMatrix::Sparse(s) => (0..s.nrows())
                .map(|i| s.row_iter(i).filter(|&(c, _)| c == i).map(|(_, v)| v).sum::<f64>())
                .sum(),
            PsdMatrix::Factor(f) => f.trace(),
            PsdMatrix::Diagonal(d) => d.iter().sum(),
        }
    }

    /// `A • S = Tr(AS)` against a dense symmetric `S`.
    pub fn dot_dense(&self, s: &Mat) -> f64 {
        match self {
            PsdMatrix::Dense(a) => a.dot(s),
            PsdMatrix::Sparse(sp) => {
                let mut acc = 0.0;
                for i in 0..sp.nrows() {
                    for (j, v) in sp.row_iter(i) {
                        acc += v * s[(i, j)];
                    }
                }
                acc
            }
            PsdMatrix::Factor(f) => f.dot_dense(s),
            PsdMatrix::Diagonal(d) => d.iter().enumerate().map(|(i, &v)| v * s[(i, i)]).sum(),
        }
    }

    /// `out += coeff · A`.
    pub fn add_scaled_into(&self, out: &mut Mat, coeff: f64) {
        match self {
            PsdMatrix::Dense(a) => out.axpy(coeff, a),
            PsdMatrix::Sparse(s) => {
                for i in 0..s.nrows() {
                    for (j, v) in s.row_iter(i) {
                        out[(i, j)] += coeff * v;
                    }
                }
            }
            PsdMatrix::Factor(f) => f.add_scaled_into(out, coeff),
            PsdMatrix::Diagonal(d) => {
                for (i, &v) in d.iter().enumerate() {
                    out[(i, i)] += coeff * v;
                }
            }
        }
    }

    /// Visit every stored entry `(row, col, value)` of `A` (expanding the
    /// outer products of a factorized matrix). The incremental-Ψ scatter
    /// path uses this to expand updates into triplet buffers in parallel
    /// before a cheap sequential scatter.
    pub fn for_each_entry(&self, mut f: impl FnMut(usize, usize, f64)) {
        match self {
            PsdMatrix::Dense(a) => {
                for i in 0..a.nrows() {
                    for (j, &v) in a.row(i).iter().enumerate() {
                        if v != 0.0 {
                            f(i, j, v);
                        }
                    }
                }
            }
            PsdMatrix::Sparse(s) => {
                for i in 0..s.nrows() {
                    for (j, v) in s.row_iter(i) {
                        f(i, j, v);
                    }
                }
            }
            PsdMatrix::Factor(fp) => fp.for_each_entry(f),
            PsdMatrix::Diagonal(d) => {
                for (i, &v) in d.iter().enumerate() {
                    if v != 0.0 {
                        f(i, i, v);
                    }
                }
            }
        }
    }

    /// `A x`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        match self {
            PsdMatrix::Dense(a) => psdp_linalg::matvec(a, x),
            PsdMatrix::Sparse(s) => s.spmv(x),
            PsdMatrix::Factor(f) => f.apply(x),
            PsdMatrix::Diagonal(d) => d.iter().zip(x).map(|(a, b)| a * b).collect(),
        }
    }

    /// Densify.
    pub fn to_dense(&self) -> Mat {
        match self {
            PsdMatrix::Dense(a) => a.clone(),
            PsdMatrix::Sparse(s) => s.to_dense(),
            PsdMatrix::Factor(f) => f.to_dense(),
            PsdMatrix::Diagonal(d) => Mat::from_diag(d),
        }
    }

    /// Convert to factorized form `A = QQᵀ`.
    ///
    /// * `Factor` is returned as-is (cheap clone of the sparse factor),
    /// * `Diagonal(d)` becomes the diagonal factor `diag(√dᵢ)`,
    /// * `Dense` is eigendecomposed (rank-revealing; `rank_tol` relative
    ///   eigenvalue cutoff) — the preprocessing step of Section 1.2,
    /// * `Sparse` is eigendecomposed **on its occupied support only**: a
    ///   constraint touching `|S|` coordinates costs `O(|S|³)`, not
    ///   `O(m³)`, and yields a factor with `O(|S|·rank)` nonzeros — so the
    ///   sketched engine's setup and per-iteration work stay proportional
    ///   to the constraint's actual structure (star/edge Laplacians have
    ///   `|S| = deg + 1 ≪ m`).
    ///
    /// # Errors
    /// Propagates eigensolver failures / non-PSD dense input.
    pub fn to_factor(&self, rank_tol: f64) -> Result<FactorPsd, psdp_linalg::LinalgError> {
        match self {
            PsdMatrix::Factor(f) => Ok(f.clone()),
            PsdMatrix::Diagonal(d) => {
                let trip: Vec<(usize, usize, f64)> = d
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v > 0.0)
                    .map(|(i, &v)| (i, i, v.sqrt()))
                    .collect();
                Ok(FactorPsd::new(Csr::from_triplets(d.len(), d.len(), &trip)))
            }
            PsdMatrix::Dense(a) => {
                let q = psd_factor(a, rank_tol)?;
                Ok(FactorPsd::new(Csr::from_dense(&q, 0.0)))
            }
            PsdMatrix::Sparse(s) => {
                // Occupied support (rows with any stored nonzero; symmetry
                // makes row and column support identical).
                let support: Vec<usize> =
                    (0..s.nrows()).filter(|&i| s.row_iter(i).any(|(_, v)| v != 0.0)).collect();
                if support.is_empty() {
                    return Ok(FactorPsd::new(Csr::zeros(s.nrows(), 1)));
                }
                let k = support.len();
                let mut sub = Mat::zeros(k, k);
                let mut inv = vec![usize::MAX; s.nrows()];
                for (si, &i) in support.iter().enumerate() {
                    inv[i] = si;
                }
                for (si, &i) in support.iter().enumerate() {
                    for (j, v) in s.row_iter(i) {
                        // Stored explicit zeros may reference off-support
                        // columns; only real nonzeros land in the submatrix.
                        if v != 0.0 {
                            sub[(si, inv[j])] = v;
                        }
                    }
                }
                let q_sub = psd_factor(&sub, rank_tol)?;
                let mut trip = Vec::new();
                for (si, &i) in support.iter().enumerate() {
                    for (c, &v) in q_sub.row(si).iter().enumerate() {
                        if v != 0.0 {
                            trip.push((i, c, v));
                        }
                    }
                }
                Ok(FactorPsd::new(Csr::from_triplets(s.nrows(), q_sub.ncols().max(1), &trip)))
            }
        }
    }

    /// Scale the matrix by `alpha ≥ 0` in place.
    pub fn scale(&mut self, alpha: f64) {
        assert!(alpha >= 0.0, "PsdMatrix::scale needs alpha >= 0");
        match self {
            PsdMatrix::Dense(a) => a.scale(alpha),
            PsdMatrix::Sparse(s) => s.scale(alpha),
            PsdMatrix::Factor(f) => f.scale(alpha),
            PsdMatrix::Diagonal(d) => {
                for v in d {
                    *v *= alpha;
                }
            }
        }
    }

    /// An estimate of `λmax(A)` (exact for diagonal, power iteration for
    /// dense and sparse, `λmax(QᵀQ)`-based for factors).
    pub fn lambda_max_est(&self) -> f64 {
        match self {
            PsdMatrix::Dense(a) => psdp_linalg::lambda_max_estimate(a),
            PsdMatrix::Sparse(s) => sparse_lambda_max_est(s),
            PsdMatrix::Diagonal(d) => d.iter().fold(0.0_f64, |m, &v| m.max(v)),
            PsdMatrix::Factor(f) => {
                // lambda_max(QQ^T) = lambda_max(Q^T Q); the Gram matrix is
                // r × r which is usually tiny.
                let q = f.factor();
                let qd = q.to_dense();
                let gram = psdp_linalg::gemm::gram(&qd);
                psdp_linalg::lambda_max_estimate(&gram)
            }
        }
    }

    /// Cheap structural validation (no eigendecomposition): finite entries
    /// everywhere; nonnegative entries for `Diagonal`; symmetry and
    /// nonnegative diagonal for `Dense` (both necessary for PSD-ness);
    /// *exact* symmetry, squareness, and nonnegative diagonal for `Sparse`.
    /// `Factor` is PSD by construction, so only finiteness is checked.
    ///
    /// Returns a human-readable description of the first violation.
    ///
    /// # Errors
    /// A message naming the violation, if any.
    pub fn validate_cheap(&self) -> Result<(), String> {
        match self {
            PsdMatrix::Sparse(s) => {
                if s.nrows() != s.ncols() {
                    return Err(format!("sparse matrix is {}x{}", s.nrows(), s.ncols()));
                }
                let mut max_abs = 0.0_f64;
                for i in 0..s.nrows() {
                    for (j, v) in s.row_iter(i) {
                        if !v.is_finite() {
                            return Err(format!("sparse entry ({i},{j}) is not finite"));
                        }
                        max_abs = max_abs.max(v.abs());
                    }
                }
                // Same relative tolerance as the Dense arm: conjugation
                // noise can leave a true-zero diagonal entry at ~-1e-18,
                // and sparsifying a matrix must never reject what its
                // dense form accepts.
                let tol = 1e-8 * max_abs.max(1.0);
                for i in 0..s.nrows() {
                    for (j, v) in s.row_iter(i) {
                        if i == j && v < -tol {
                            return Err(format!(
                                "sparse diagonal entry {i} = {v} is negative (not PSD)"
                            ));
                        }
                    }
                }
                // Exact symmetry: the incremental-Ψ path relies on sparse
                // scatter-adds being exactly symmetric, so tolerate no
                // asymmetry at all. O(nnz) without materializing the
                // transpose: a row-major walk visits the entries of
                // transpose-row j in exactly the order a symmetric matrix
                // stores row j, so one cursor per row verifies pattern
                // and values in place.
                let rp = s.row_ptr();
                let ci = s.col_idx();
                let vals = s.values();
                let mut cur: Vec<usize> = rp[..s.nrows()].to_vec();
                let symmetric = 'sym: {
                    for i in 0..s.nrows() {
                        for k in rp[i]..rp[i + 1] {
                            let j = ci[k];
                            let t = cur[j];
                            if t >= rp[j + 1] || ci[t] != i || vals[t] != vals[k] {
                                break 'sym false;
                            }
                            cur[j] = t + 1;
                        }
                    }
                    (0..s.nrows()).all(|j| cur[j] == rp[j + 1])
                };
                if !symmetric {
                    return Err("sparse matrix is not exactly symmetric".into());
                }
                Ok(())
            }
            PsdMatrix::Diagonal(d) => {
                for (i, &v) in d.iter().enumerate() {
                    if !v.is_finite() {
                        return Err(format!("diagonal entry {i} is not finite"));
                    }
                    if v < 0.0 {
                        return Err(format!("diagonal entry {i} = {v} is negative (not PSD)"));
                    }
                }
                Ok(())
            }
            PsdMatrix::Dense(a) => {
                if !a.all_finite() {
                    return Err("dense matrix has non-finite entries".into());
                }
                if !a.is_square() {
                    return Err(format!("dense matrix is {}x{}", a.nrows(), a.ncols()));
                }
                let tol = 1e-8 * a.max_abs().max(1.0);
                let asym = a.asymmetry();
                if asym > tol {
                    return Err(format!("dense matrix asymmetric (max |Aij−Aji| = {asym:.3e})"));
                }
                for i in 0..a.nrows() {
                    if a[(i, i)] < -tol {
                        return Err(format!(
                            "dense diagonal entry {i} = {} is negative (not PSD)",
                            a[(i, i)]
                        ));
                    }
                }
                Ok(())
            }
            PsdMatrix::Factor(f) => {
                let q = f.factor();
                for i in 0..q.nrows() {
                    for (c, v) in q.row_iter(i) {
                        if !v.is_finite() {
                            return Err(format!("factor entry ({i},{c}) is not finite"));
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Representation size used for work accounting: nnz of the natural
    /// storage (factor nnz, CSR nnz, dense m², or diagonal m).
    pub fn storage_nnz(&self) -> usize {
        match self {
            PsdMatrix::Dense(a) => a.nrows() * a.ncols(),
            PsdMatrix::Sparse(s) => s.nnz(),
            PsdMatrix::Factor(f) => f.factor_nnz(),
            PsdMatrix::Diagonal(d) => d.iter().filter(|&&v| v != 0.0).count(),
        }
    }
}

/// Power-iteration estimate of `λmax` for a symmetric PSD CSR matrix,
/// using only SpMV (never densifies). The result lies in
/// `[maxᵢ Aᵢᵢ, λmax]`: every iterate's `‖Av‖` is at most `λmax`, and
/// `Aᵢᵢ = eᵢᵀ A eᵢ` bounds `λmax` from below, so the estimate never drops
/// under the largest diagonal entry.
fn sparse_lambda_max_est(s: &Csr) -> f64 {
    let n = s.nrows();
    if n == 0 || s.nnz() == 0 {
        return 0.0;
    }
    let (top, max_diag) = (0..n)
        .map(|i| (i, s.row_iter(i).filter(|&(c, _)| c == i).map(|(_, v)| v).sum::<f64>()))
        .fold((0, 0.0_f64), |best, (i, d)| if d > best.1 { (i, d) } else { best });
    // Deterministic start vector with no obvious symmetry (an exactly
    // symmetric start can be orthogonal to the top eigenvector).
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * ((i * 7 + 3) % 11) as f64).collect();
    let norm0 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    for x in &mut v {
        *x /= norm0;
    }
    let mut lam = 0.0;
    let mut restarted = false;
    for _ in 0..100 {
        let w = s.spmv(&v);
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            // The start vector is orthogonal to A's range (an edge
            // Laplacian whose endpoints got equal start weights). A PSD
            // matrix never annihilates the coordinate of its largest
            // diagonal entry, so restart there once.
            if restarted || max_diag <= 0.0 {
                break;
            }
            restarted = true;
            v = vec![0.0; n];
            v[top] = 1.0;
            continue;
        }
        let next = norm;
        let converged = (next - lam).abs() <= 1e-9 * next.max(1e-300);
        lam = next;
        v = w.into_iter().map(|x| x / norm).collect();
        if converged {
            break;
        }
    }
    lam.max(max_diag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_linalg::sym_eigen;

    fn variants() -> Vec<PsdMatrix> {
        let mut dense = Mat::zeros(3, 3);
        dense.rank1_update(1.0, &[1.0, 2.0, 0.0]);
        dense.rank1_update(0.5, &[0.0, 1.0, 1.0]);
        let factor = PsdMatrix::Dense(dense.clone()).to_factor(1e-10).unwrap();
        let sparse = Csr::from_dense(&dense, 0.0);
        vec![
            PsdMatrix::Dense(dense),
            PsdMatrix::Sparse(sparse),
            PsdMatrix::Factor(factor),
            PsdMatrix::Diagonal(vec![1.0, 0.0, 2.5]),
        ]
    }

    #[test]
    fn dense_sparse_and_factor_agree() {
        let vs = variants();
        let d = vs[0].to_dense();
        for (k, v) in vs.iter().enumerate().take(3).skip(1) {
            let other = v.to_dense();
            for i in 0..3 {
                for j in 0..3 {
                    assert!((d[(i, j)] - other[(i, j)]).abs() < 1e-9, "variant {k} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn for_each_entry_reconstructs_dense() {
        for m in variants() {
            let mut rebuilt = Mat::zeros(3, 3);
            m.for_each_entry(|i, j, v| rebuilt[(i, j)] += v);
            let want = m.to_dense();
            for i in 0..3 {
                for j in 0..3 {
                    assert!((rebuilt[(i, j)] - want[(i, j)]).abs() < 1e-12, "{m:?} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn sparse_validation_rejects_asymmetry_and_negative_diag() {
        let asym = Csr::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(PsdMatrix::Sparse(asym).validate_cheap().is_err());
        let negd = Csr::from_triplets(2, 2, &[(0, 0, -1.0)]);
        assert!(PsdMatrix::Sparse(negd).validate_cheap().is_err());
        let rect = Csr::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(PsdMatrix::Sparse(rect).validate_cheap().is_err());
        let ok = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 1.0)]);
        assert!(PsdMatrix::Sparse(ok).validate_cheap().is_ok());
        // Conjugation noise: a ~-1e-18 diagonal entry (true value zero)
        // must pass, exactly as the Dense arm's relative tolerance allows.
        let noisy = Csr::from_triplets(2, 2, &[(0, 0, -1e-18), (1, 1, 1.0)]);
        assert!(PsdMatrix::Sparse(noisy).validate_cheap().is_ok());
    }

    #[test]
    fn trace_consistent_across_representations() {
        for m in variants() {
            let want = m.to_dense().trace();
            assert!((m.trace() - want).abs() < 1e-9, "{m:?}");
        }
    }

    #[test]
    fn dot_dense_consistent() {
        let mut s = Mat::from_fn(3, 3, |i, j| ((i * 2 + j) % 4) as f64);
        s.symmetrize();
        for m in variants() {
            let want = psdp_linalg::matmul(&m.to_dense(), &s).trace();
            assert!((m.dot_dense(&s) - want).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_consistent() {
        let x = [0.5, -1.0, 2.0];
        for m in variants() {
            let want = psdp_linalg::matvec(&m.to_dense(), &x);
            let got = m.apply(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn add_scaled_into_consistent() {
        for m in variants() {
            let mut out = Mat::identity(3);
            m.add_scaled_into(&mut out, 2.0);
            let mut want = Mat::identity(3);
            want.axpy(2.0, &m.to_dense());
            for i in 0..3 {
                for j in 0..3 {
                    assert!((out[(i, j)] - want[(i, j)]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn lambda_max_est_close_to_truth() {
        for m in variants() {
            let truth = sym_eigen(&m.to_dense()).unwrap().lambda_max();
            let est = m.lambda_max_est();
            assert!(
                (est - truth).abs() <= 0.05 * truth.max(1e-12) + 1e-12,
                "est {est} truth {truth}"
            );
        }
    }

    #[test]
    fn sparse_estimate_survives_an_orthogonal_start_vector() {
        // Coordinates 0 and 11 get equal start weights, so the start vector
        // lies in this edge Laplacian's null space; the estimate must still
        // find λmax = 2w instead of 0.
        let w = 1.5;
        let trip = [(0, 0, w), (11, 11, w), (0, 11, -w), (11, 0, -w)];
        let est = PsdMatrix::Sparse(Csr::from_triplets(12, 12, &trip)).lambda_max_est();
        assert!((est - 2.0 * w).abs() <= 1e-9, "estimate {est}");
    }

    #[test]
    fn sparse_to_factor_is_support_local() {
        // A 40-dim edge Laplacian touching only coordinates {3, 27}: the
        // factor must reconstruct A exactly and keep all nonzeros on the
        // 2-coordinate support (never a dense 40-dim eigenbasis).
        let m = 40;
        let trip = [(3, 3, 1.0), (27, 27, 1.0), (3, 27, -1.0), (27, 3, -1.0)];
        let a = PsdMatrix::Sparse(Csr::from_triplets(m, m, &trip));
        let f = a.to_factor(1e-10).unwrap();
        assert_eq!(f.dim(), m);
        assert!(f.factor_nnz() <= 4, "factor nnz {} not support-local", f.factor_nnz());
        assert!(f.rank_bound() <= 2);
        let ad = a.to_dense();
        let fd = f.to_dense();
        for i in 0..m {
            for j in 0..m {
                assert!((ad[(i, j)] - fd[(i, j)]).abs() < 1e-9, "({i},{j})");
            }
        }
        // Degenerate all-zero sparse matrix factors to an empty factor.
        let z = PsdMatrix::Sparse(Csr::zeros(5, 5));
        let fz = z.to_factor(1e-10).unwrap();
        assert_eq!(fz.factor_nnz(), 0);
        assert_eq!(fz.dim(), 5);
    }

    #[test]
    fn diagonal_to_factor_roundtrip() {
        let d = PsdMatrix::Diagonal(vec![4.0, 0.0, 9.0]);
        let f = d.to_factor(1e-12).unwrap();
        let fd = f.to_dense();
        assert_eq!(fd[(0, 0)], 4.0);
        assert_eq!(fd[(1, 1)], 0.0);
        assert_eq!(fd[(2, 2)], 9.0);
        assert_eq!(f.factor_nnz(), 2);
    }

    #[test]
    fn scale_consistent() {
        for mut m in variants() {
            let before = m.to_dense();
            m.scale(2.0);
            let after = m.to_dense();
            for i in 0..3 {
                for j in 0..3 {
                    assert!((after[(i, j)] - 2.0 * before[(i, j)]).abs() < 1e-9);
                }
            }
        }
    }
}
