//! Symmetric eigendecomposition: Householder tridiagonalization (`tred2`)
//! followed by the implicit-shift QL iteration (`tql2`).
//!
//! This is the classical EISPACK pair (also the JAMA port), chosen because it
//! is `O(m³)`, unconditionally stable for symmetric input, and small enough
//! to audit line by line. It backs everything downstream that the paper
//! leaves to "standard" linear algebra:
//!
//! * the `Exact` engine for `exp(Φ) • A` (eigendecompose, exponentiate
//!   eigenvalues),
//! * `C^{-1/2}` in the Appendix-A normalization,
//! * dense→factorized conversion `A = (U√λ)(U√λ)ᵀ`,
//! * every feasibility verifier (`λmax(Σ xᵢAᵢ) ≤ 1`).
//!
//! Eigenvalues are returned in **ascending** order; column `j` of
//! [`SymEigen::vectors`] is the unit eigenvector for `values[j]`.
//! [`sym_eigenvalues`] returns the same values without accumulating the
//! eigenvectors (bit for bit, up to the sign of an exact zero).
//!
//! EISPACK walks columns and [`Mat`] stores rows, so the phases work on the
//! transpose: row `j` of the working matrix plays EISPACK's column `j` (a
//! Householder vector, then eigenvector `j` as a row of `Vᵀ`), and every
//! inner loop walks a contiguous row. The validated input is exactly
//! symmetric, i.e. its own transpose, and the arithmetic keeps EISPACK's
//! order, so the bits are the column-walking port's. `V` is transposed once.

use crate::error::LinalgError;
use crate::mat::Mat;

/// Result of a symmetric eigendecomposition `A = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; column `j` pairs with `values[j]`.
    pub vectors: Mat,
}

impl SymEigen {
    /// Largest eigenvalue `λmax`.
    pub fn lambda_max(&self) -> f64 {
        *self.values.last().expect("empty spectrum")
    }

    /// Smallest eigenvalue `λmin`.
    pub fn lambda_min(&self) -> f64 {
        self.values[0]
    }

    /// Reconstruct `f(A) = V diag(f(λ)) Vᵀ` for a scalar function `f`.
    ///
    /// This is the paper's Section 2.1 definition of a matrix function. Cost
    /// is `O(m³)` (two dense multiplies folded into one accumulation).
    pub fn apply_fn(&self, f: impl Fn(f64) -> f64) -> Mat {
        let m = self.vectors.nrows();
        let mut out = Mat::zeros(m, m);
        // out = sum_j f(lambda_j) v_j v_j^T, reading v_j as a row of Vᵀ.
        let vt = self.vectors.transpose();
        for (j, &lam) in self.values.iter().enumerate() {
            let flam = f(lam);
            if flam != 0.0 {
                out.rank1_update(flam, vt.row(j));
            }
        }
        out.symmetrize();
        out
    }

    /// Reconstruct the original matrix (`f = identity`); used by tests.
    pub fn reconstruct(&self) -> Mat {
        self.apply_fn(|x| x)
    }
}

/// Maximum QL sweeps per eigenvalue before declaring failure.
const MAX_QL_ITERS: usize = 64;

/// Compute the eigendecomposition of a symmetric matrix.
///
/// ```
/// use psdp_linalg::{sym_eigen, Mat};
///
/// let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = sym_eigen(&a)?;
/// assert!((eig.values[0] - 1.0).abs() < 1e-12);
/// assert!((eig.lambda_max() - 3.0).abs() < 1e-12);
/// // f(A) for any scalar f, e.g. the matrix exponential:
/// let e = eig.apply_fn(f64::exp);
/// assert!((e.trace() - (1f64.exp() + 3f64.exp())).abs() < 1e-10);
/// # Ok::<(), psdp_linalg::LinalgError>(())
/// ```
///
/// The input is validated to be square, finite, and symmetric to within
/// `1e-8 * max|A|`; the strictly-checked variant of downstream code should
/// call [`Mat::symmetrize`] first if it accumulated asymmetry.
///
/// # Errors
/// * [`LinalgError::NotSquare`] / [`LinalgError::NotFinite`] /
///   [`LinalgError::NotSymmetric`] on malformed input,
/// * [`LinalgError::NoConvergence`] if QL needs more than 64 sweeps for some
///   eigenvalue (does not happen for finite symmetric input in practice).
pub fn sym_eigen(a: &Mat) -> Result<SymEigen, LinalgError> {
    let mut v = validated_copy(a)?;
    let n = v.nrows();
    if n == 0 {
        return Ok(SymEigen { values: vec![], vectors: v });
    }
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2_reduce(&mut v, &mut d, &mut e);
    tred2_accumulate(&mut v, &mut d, &mut e);
    tql2(Some(&mut v), &mut d, &mut e)?;
    sort_ascending(Some(&mut v), &mut d);
    Ok(SymEigen { values: d, vectors: v.transpose() })
}

/// The eigenvalues of a symmetric matrix, ascending: [`SymEigen::values`]
/// of [`sym_eigen`] on the same input, bit for bit except that an
/// eigenvalue that is exactly zero may differ in sign. Validation and
/// errors are the same.
///
/// The QL iteration never reads the eigenvectors it accumulates, so the
/// values need neither them nor the Householder vectors. Without them the
/// reduction can also skip the rows of the working matrix that are still
/// exactly zero: every term it drops is a product with an exact zero. On
/// a matrix whose nonzeros sit in `s` rows the work falls from `O(m³)` —
/// which, for `sym_eigen`, also swings with *where* those rows sit — to
/// `O(m·(m + s²))`. Use it wherever only `λmin`/`λmax` are needed, e.g.
/// certificate checks.
///
/// ```
/// use psdp_linalg::{sym_eigen, sym_eigenvalues, Mat};
///
/// let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let values = sym_eigenvalues(&a)?;
/// assert_eq!(values, sym_eigen(&a)?.values);
/// # Ok::<(), psdp_linalg::LinalgError>(())
/// ```
///
/// # Errors
/// As [`sym_eigen`].
pub fn sym_eigenvalues(a: &Mat) -> Result<Vec<f64>, LinalgError> {
    let mut v = validated_copy(a)?;
    let n = v.nrows();
    if n == 0 {
        return Ok(vec![]);
    }
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2_reduce_live(&mut v, &mut d, &mut e);
    // Where `tred2_accumulate` would leave the diagonal.
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = v[(j, j)];
    }
    e[0] = 0.0;
    tql2(None, &mut d, &mut e)?;
    sort_ascending(None, &mut d);
    Ok(d)
}

/// Check that `a` is square, finite and symmetric to within
/// `1e-8 * max|A|`, and return its symmetrized copy.
fn validated_copy(a: &Mat) -> Result<Mat, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
    }
    if !a.all_finite() {
        return Err(LinalgError::NotFinite);
    }
    let tol = 1e-8 * a.max_abs().max(1.0);
    let asym = a.asymmetry();
    if asym > tol {
        return Err(LinalgError::NotSymmetric { asymmetry: asym });
    }
    let mut v = a.clone();
    v.symmetrize();
    Ok(v)
}

/// Turn `d[..i]` into step `i`'s Householder vector as EISPACK `tred2`
/// does, setting `e[i]` and clearing `e[..i]`. Returns `h`, or `None` with
/// `e[i] = d[i − 1]` when `d[..i]` is zero.
fn householder(d: &mut [f64], e: &mut [f64], i: usize) -> Option<f64> {
    // Scale to avoid under/overflow.
    let mut scale = 0.0;
    for item in &d[..i] {
        scale += item.abs();
    }
    if scale == 0.0 {
        e[i] = d[i - 1];
        return None;
    }
    let mut h = 0.0;
    for item in &mut d[..i] {
        *item /= scale;
        h += *item * *item;
    }
    let f = d[i - 1];
    let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
    e[i] = scale * g;
    d[i - 1] = f - g;
    e[..i].fill(0.0);
    Some(h - f * g)
}

/// Householder reduction of symmetric `v` to tridiagonal form, phase one
/// of EISPACK `tred2`: afterwards `v`'s diagonal holds the tridiagonal's
/// diagonal, `e[1..]` its sub-diagonal, and `v`'s lower triangle (step `i`
/// in row `i`) and `d` the Householder data [`tred2_accumulate`] needs.
fn tred2_reduce(v: &mut Mat, d: &mut [f64], e: &mut [f64]) {
    let n = v.nrows();
    d.copy_from_slice(v.row(n - 1));
    let w = v.as_mut_slice();
    for i in (1..n).rev() {
        let Some(h) = householder(d, e, i) else {
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[i * n + j] = 0.0;
                w[j * n + i] = 0.0;
            }
            d[i] = 0.0;
            continue;
        };
        w[i * n..i * n + i].copy_from_slice(&d[..i]);

        // Apply the similarity transformation to the remaining rows.
        for j in 0..i {
            let f = d[j];
            let row = &w[j * n..j * n + i];
            let mut g = e[j] + row[j] * f;
            let (dk, ek) = (&d[j + 1..i], &mut e[j + 1..i]);
            for ((&x, &dk), ek) in row[j + 1..].iter().zip(dk).zip(ek) {
                g += x * dk;
                *ek += x * f;
            }
            e[j] = g;
        }
        let mut f = 0.0;
        for j in 0..i {
            e[j] /= h;
            f += e[j] * d[j];
        }
        let hh = f / (h + h);
        for j in 0..i {
            e[j] -= hh * d[j];
        }
        for j in 0..i {
            let (f, g) = (d[j], e[j]);
            let row = &mut w[j * n..(j + 1) * n];
            for ((x, &ek), &dk) in row[j..i].iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                *x -= f * ek + g * dk;
            }
            d[j] = row[i - 1];
            row[i] = 0.0;
        }
        d[i] = h;
    }
}

/// [`tred2_reduce`] for [`sym_eigenvalues`]: the same arithmetic on the
/// working matrix's upper triangle and diagonal, with the similarity
/// transform restricted to the rows that can hold a nonzero. A row is live
/// once the input has a nonzero in it or a Householder step has touched
/// it (step `i` touches the live rows below `i` and row `i − 1`). A dead
/// row and its `d` entry are exact zeros, so every term it would add is a
/// product with an exact zero, and the kept sums run in the same order:
/// the live entries, and with them the diagonal, come out bitwise the
/// same. Dead entries may end as zeros of the other sign. The Householder
/// vectors are not stored.
fn tred2_reduce_live(v: &mut Mat, d: &mut [f64], e: &mut [f64]) {
    let n = v.nrows();
    let mut live: Vec<bool> = (0..n).map(|j| v.row(j).iter().any(|&x| x != 0.0)).collect();
    let mut rows: Vec<usize> = Vec::with_capacity(n);
    d.copy_from_slice(v.row(n - 1));

    for i in (1..n).rev() {
        let h = householder(d, e, i);
        if let Some(h) = h {
            live[i - 1] = true;
            rows.clear();
            rows.extend((0..i).filter(|&j| live[j]));

            for (a, &j) in rows.iter().enumerate() {
                let f = d[j];
                let row = v.row(j);
                let mut g = e[j] + row[j] * f;
                for &k in &rows[a + 1..] {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for &j in &rows {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for &j in &rows {
                e[j] -= hh * d[j];
            }
            let w = v.as_mut_slice();
            for (a, &j) in rows.iter().enumerate() {
                let (f, g) = (d[j], e[j]);
                let row = &mut w[j * n..(j + 1) * n];
                for &k in &rows[a..] {
                    row[k] -= f * e[k] + g * d[k];
                }
            }
        }
        for (j, dj) in d[..i].iter_mut().enumerate() {
            *dj = v[(j, i - 1)];
        }
        d[i] = h.unwrap_or(0.0);
    }
}

/// Phase two of EISPACK `tred2`: overwrite `v` with the transpose of the
/// accumulated orthogonal transform of [`tred2_reduce`], `d` with the
/// tridiagonal's diagonal and clear `e[0]`.
fn tred2_accumulate(v: &mut Mat, d: &mut [f64], e: &mut [f64]) {
    let n = v.nrows();
    let w = v.as_mut_slice();
    for i in 0..(n - 1) {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        let (done, rest) = w.split_at_mut((i + 1) * n);
        let house = &mut rest[..=i];
        if h != 0.0 {
            for (dk, &x) in d.iter_mut().zip(house.iter()) {
                *dk = x / h;
            }
            for row in done.chunks_exact_mut(n) {
                let mut g = 0.0;
                for (&x, &y) in house.iter().zip(&row[..=i]) {
                    g += x * y;
                }
                for (y, &dk) in row[..=i].iter_mut().zip(&d[..=i]) {
                    *y -= g * dk;
                }
            }
        }
        house.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL iteration on the tridiagonal (`d`, `e`), accumulating
/// rotations into the rows of `v` when given. Port of EISPACK `tql2` with
/// an added iteration cap. `d` and `e` never depend on `v`.
fn tql2(mut v: Option<&mut Mat>, d: &mut [f64], e: &mut [f64]) -> Result<(), LinalgError> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0_f64;
    let mut tst1 = 0.0_f64;
    let eps = 2.0_f64.powi(-52);

    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());

        let mut iter = 0;
        loop {
            // Find small subdiagonal element.
            let mut m = l;
            while m < n {
                if e[m].abs() <= eps * tst1 {
                    break;
                }
                m += 1;
            }
            if m >= n {
                m = n - 1;
            }
            if m == l {
                break;
            }

            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(LinalgError::NoConvergence { what: "tql2", iters: iter });
            }

            // Compute the implicit (Wilkinson) shift.
            let g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * e[l]);
            let mut r = p.hypot(1.0);
            if p < 0.0 {
                r = -r;
            }
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let mut h = g - d[l];
            for item in d.iter_mut().take(n).skip(l + 2) {
                *item -= h;
            }
            f += h;

            // Implicit QL sweep.
            p = d[m];
            let mut c = 1.0_f64;
            let mut c2 = c;
            let mut c3 = c;
            let el1 = e[l + 1];
            let mut s = 0.0_f64;
            let mut s2 = 0.0_f64;
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                h = c * p;
                r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);

                // Accumulate the rotation into eigenvectors `i` and `i + 1`.
                if let Some(v) = v.as_deref_mut() {
                    let (lo, hi) = v.as_mut_slice().split_at_mut((i + 1) * n);
                    for (x, y) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
                        let h = *y;
                        *y = s * *x + c * h;
                        *x = c * *x - s * h;
                    }
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;

            if e[l].abs() <= eps * tst1 {
                break;
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Sort eigenvalues ascending, permuting the eigenvector rows of `v` to match.
fn sort_ascending(mut v: Option<&mut Mat>, d: &mut [f64]) {
    let n = d.len();
    // Selection sort: O(n^2) swaps of rows, negligible next to the O(n^3)
    // factorization, and it keeps the permutation simple.
    for i in 0..n {
        let mut k = i;
        for j in (i + 1)..n {
            if d[j] < d[k] {
                k = j;
            }
        }
        if k != i {
            d.swap(i, k);
            if let Some(v) = v.as_deref_mut() {
                let (lo, hi) = v.as_mut_slice().split_at_mut(k * n);
                lo[i * n..(i + 1) * n].swap_with_slice(&mut hi[..n]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn check_decomposition(a: &Mat, tol: f64) {
        let eig = sym_eigen(a).expect("eigen failed");
        let n = a.nrows();
        // Ascending order.
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "values not sorted: {:?}", eig.values);
        }
        // Orthonormal columns: V^T V = I.
        let vtv = matmul(&eig.vectors.transpose(), &eig.vectors);
        for i in 0..n {
            for j in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (vtv[(i, j)] - want).abs() < tol,
                    "V^T V not identity at ({i},{j}): {}",
                    vtv[(i, j)]
                );
            }
        }
        // Reconstruction: V diag(d) V^T = A.
        let rec = eig.reconstruct();
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (rec[(i, j)] - a[(i, j)]).abs() < tol * a.max_abs().max(1.0),
                    "reconstruction off at ({i},{j}): {} vs {}",
                    rec[(i, j)],
                    a[(i, j)]
                );
            }
        }
    }

    #[test]
    fn eigen_2x2_known() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eig = sym_eigen(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 3.0).abs() < 1e-12);
        check_decomposition(&a, 1e-10);
    }

    #[test]
    fn eigen_diagonal() {
        let a = Mat::from_diag(&[3.0, -1.0, 7.0, 0.0]);
        let eig = sym_eigen(&a).unwrap();
        assert_eq!(eig.values.len(), 4);
        let mut want = [3.0, -1.0, 7.0, 0.0];
        want.sort_by(f64::total_cmp);
        for (got, want) in eig.values.iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-12);
        }
        check_decomposition(&a, 1e-10);
    }

    #[test]
    fn eigen_identity_multiple() {
        // Repeated eigenvalues exercise the degenerate path.
        let a = Mat::identity(6).scaled(4.0);
        let eig = sym_eigen(&a).unwrap();
        for v in &eig.values {
            assert!((v - 4.0).abs() < 1e-12);
        }
        check_decomposition(&a, 1e-10);
    }

    #[test]
    fn eigen_rank_one() {
        // vv^T has one nonzero eigenvalue = ||v||^2.
        let v = [1.0, 2.0, -1.0, 0.5];
        let mut a = Mat::zeros(4, 4);
        a.rank1_update(1.0, &v);
        let eig = sym_eigen(&a).unwrap();
        let norm2: f64 = v.iter().map(|x| x * x).sum();
        assert!((eig.lambda_max() - norm2).abs() < 1e-10);
        for &lam in &eig.values[..3] {
            assert!(lam.abs() < 1e-10);
        }
        check_decomposition(&a, 1e-9);
    }

    #[test]
    fn eigen_pseudo_random_sizes() {
        // Deterministic pseudo-random symmetric matrices across sizes,
        // including ones large enough to stress the QL sweeps.
        for &n in &[1usize, 2, 3, 5, 8, 13, 24, 40] {
            let mut a = Mat::from_fn(n, n, |i, j| ((i * 37 + j * 17 + 11) % 29) as f64 / 7.0 - 2.0);
            a.symmetrize();
            check_decomposition(&a, 1e-7);
        }
    }

    #[test]
    fn eigen_trace_equals_sum_of_values() {
        let mut a = Mat::from_fn(12, 12, |i, j| ((i * 7 + j * 13) % 10) as f64 / 3.0);
        a.symmetrize();
        let eig = sym_eigen(&a).unwrap();
        let sum: f64 = eig.values.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-8);
    }

    #[test]
    fn eigen_rejects_asymmetric() {
        let a = Mat::from_rows(&[&[1.0, 5.0], &[0.0, 1.0]]);
        assert!(matches!(sym_eigen(&a), Err(LinalgError::NotSymmetric { .. })));
    }

    #[test]
    fn eigen_rejects_nonsquare_and_nan() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(sym_eigen(&a), Err(LinalgError::NotSquare { .. })));
        let mut b = Mat::identity(2);
        b[(0, 0)] = f64::NAN;
        assert!(matches!(sym_eigen(&b), Err(LinalgError::NotFinite)));
    }

    #[test]
    fn eigen_empty_matrix() {
        let a = Mat::zeros(0, 0);
        let eig = sym_eigen(&a).unwrap();
        assert!(eig.values.is_empty());
    }

    #[test]
    fn vectors_are_columns() {
        // V ≠ Vᵀ here, so returning the working rows untransposed fails.
        let mut a = Mat::from_fn(5, 5, |i, j| ((i * 37 + j * 17 + 11) % 29) as f64 / 7.0 - 2.0);
        a.symmetrize();
        let eig = sym_eigen(&a).unwrap();
        assert!(eig.vectors.sub(&eig.vectors.transpose()).max_abs() > 0.1);
        for (j, &lam) in eig.values.iter().enumerate() {
            let v = eig.vectors.col(j);
            for (av, vi) in crate::gemm::matvec(&a, &v).iter().zip(&v) {
                assert!((av - lam * vi).abs() < 1e-10, "column {j}: A·v ≠ λ·v");
            }
        }
    }

    #[test]
    fn values_only_path_is_bitwise_sym_eigen() {
        // Bitwise, except that an exact zero may differ in sign.
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.to_bits() == y.to_bits() || (*x == 0.0 && *y == 0.0))
        };
        let mut cases = vec![Mat::zeros(0, 0), Mat::zeros(3, 3), Mat::from_diag(&[3.0, -1.0, 0.0])];
        for &n in &[1usize, 2, 5, 13, 40] {
            let mut a = Mat::from_fn(n, n, |i, j| ((i * 37 + j * 17 + 11) % 29) as f64 / 7.0 - 2.0);
            a.symmetrize();
            cases.push(a);
        }
        // Sums of sparse rank-one terms over a few scattered rows, as a
        // maintained Ψ over factorized constraints has: zero rows on both
        // sides of the support, which moves from draw to draw.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        for &(n, rows, terms) in
            &[(24usize, 5usize, 3usize), (64, 10, 6), (96, 24, 8), (96, 90, 12)]
        {
            for _ in 0..6 {
                let support: Vec<usize> = (0..rows).map(|_| next() as usize % n).collect();
                let mut a = Mat::zeros(n, n);
                for _ in 0..terms {
                    let mut u = vec![0.0; n];
                    for _ in 0..3 {
                        u[support[next() as usize % rows]] = (next() % 2001) as f64 / 1000.0 - 1.0;
                    }
                    a.rank1_update((next() % 1000) as f64 / 250.0, &u);
                }
                cases.push(a);
            }
        }
        for a in &cases {
            let values = sym_eigenvalues(a).unwrap();
            assert!(same(&values, &sym_eigen(a).unwrap().values), "n = {}", a.nrows());
        }
        let asym = Mat::from_rows(&[&[1.0, 5.0], &[0.0, 1.0]]);
        assert!(matches!(sym_eigenvalues(&asym), Err(LinalgError::NotSymmetric { .. })));
        assert!(matches!(sym_eigenvalues(&Mat::zeros(2, 3)), Err(LinalgError::NotSquare { .. })));
        let mut nan = Mat::identity(2);
        nan[(1, 1)] = f64::NAN;
        assert!(matches!(sym_eigenvalues(&nan), Err(LinalgError::NotFinite)));
    }

    #[test]
    fn apply_fn_exponential_diagonal() {
        let a = Mat::from_diag(&[0.0, 1.0, -1.0]);
        let eig = sym_eigen(&a).unwrap();
        let e = eig.apply_fn(f64::exp);
        // exp of a diagonal matrix exponentiates the diagonal.
        // apply_fn returns entries in the original basis.
        for (i, want) in [1.0, std::f64::consts::E, (-1f64).exp()].iter().enumerate() {
            assert!((e[(i, i)] - want).abs() < 1e-12);
        }
    }
}
