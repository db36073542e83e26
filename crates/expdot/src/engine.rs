//! The `exp(Φ) • Aᵢ` primitive (Theorem 4.1) behind a common interface.
//!
//! Every iteration of Algorithm 3.1 needs, for the current `Φ = Ψ(t)`:
//! `Tr[exp(Φ)]` and `exp(Φ) • Aᵢ` for all `i`. Four engines provide these
//! values at different cost/accuracy points:
//!
//! * [`EngineKind::Exact`] — eigendecompose `Φ` (`O(m³)`), exact up to
//!   floating point. The reference implementation and the right choice for
//!   small dense instances.
//! * [`EngineKind::Taylor`] — Lemma 4.2 truncated Taylor of `exp(Φ/2)`
//!   applied to the identity; `(1±ε)` sandwich, no eigendecomposition.
//! * [`EngineKind::TaylorJl`] — Theorem 4.1 proper: Taylor + Gaussian JL
//!   sketch with `O(ε⁻² log m)` rows; nearly-linear work in the factorization
//!   size `q`, which is what Corollary 1.2's work bound needs.
//! * [`EngineKind::Expv`] — Krylov expm-action (no Taylor series, no
//!   materialized `exp`): restarted log-domain Lanczos on `exp(Φ/2)` runs
//!   every trace probe (JL probes, or the `m` identity probes once the JL
//!   row count reaches `m`) and every constraint factor column for the
//!   dots; a Chebyshev expansion stands in only for a vector whose
//!   tridiagonal eigensolve fails. Roughly 14× fewer operator
//!   applications than Lemma 4.2 at the same `κ` (degree `≈ κ/4 + O(√κ)`
//!   versus `e²κ/2`), with *no* sketch distortion on the dots. See DESIGN.md
//!   §12 for the kernel-layer contract.
//!
//! All engines report analytic work–depth [`Cost`]s so experiment E5 can
//! check the near-linear-work claim without trusting wall clocks.

use crate::gauss::{gaussian_sketch, jl_rows};
use psdp_linalg::{
    apply_exp_taylor_block, expm_action_chebyshev, expm_action_lanczos_gathered, sym_eigen,
    taylor_degree, vecops, LinalgError, Mat, SymOp,
};
use psdp_parallel::Cost;
use psdp_sparse::{FactorPsd, PsdMatrix};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Result of one `exp(Φ) • ·` evaluation over all constraints.
///
/// Values may carry a common scale factor `e^{log_scale}` relative to the
/// true quantities (the exact engine shifts the spectrum to avoid overflow
/// when `‖Φ‖₂` is large). Algorithm 3.1 only consumes the *ratios*
/// `dots[i] / tr_w`, which are scale-invariant; anyone needing absolute
/// values must multiply by `exp(log_scale)`.
#[derive(Debug, Clone)]
pub struct ExpDots {
    /// `Tr[exp(Φ)] · e^{-log_scale}` (or an `(1±ε)` estimate thereof).
    pub tr_w: f64,
    /// `exp(Φ) • Aᵢ · e^{-log_scale}` for each constraint.
    pub dots: Vec<f64>,
    /// Common logarithmic scale factor (0 for the Taylor engines).
    pub log_scale: f64,
    /// Analytic work–depth cost of this evaluation.
    pub cost: Cost,
    /// Taylor degree used (0 for the exact engine) — telemetry for E4/E5.
    pub degree: usize,
    /// Sketch rows used (0 when no sketch) — telemetry for E4/E5.
    pub sketch_rows: usize,
    /// The normalized probability matrix `P = exp(Φ)/Tr[exp(Φ)]`, when the
    /// strategy produces it as a byproduct (exact engine always; Taylor only
    /// via [`Engine::compute_dense`]; never for the sketched engine). The
    /// solver averages these into the primal solution `Y`.
    pub dense_p: Option<Mat>,
}

/// Which evaluation strategy to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineKind {
    /// Eigendecomposition-based exact evaluation.
    Exact,
    /// Truncated Taylor (Lemma 4.2) without sketching.
    Taylor {
        /// Two-sided relative accuracy of the returned dot products.
        eps: f64,
    },
    /// Truncated Taylor + Gaussian JL sketch (Theorem 4.1).
    TaylorJl {
        /// Two-sided relative accuracy target (split between Taylor and JL).
        eps: f64,
        /// Multiplier on the JL row count `c·ln(m)/ε²`; 4.0 is a sane default.
        sketch_const: f64,
    },
    /// Krylov expm-action: `Tr[exp Φ]` from JL probes (or the `m` identity
    /// probes once the JL row count reaches `m`) and `exp(Φ)•Aᵢ` from each
    /// factor column, every vector through the same restarted log-domain
    /// Lanczos (deterministic — the sketch only touches the trace; a
    /// Chebyshev expansion is the fallback when a vector's tridiagonal
    /// eigensolve fails).
    /// All internal values live in the log-scale frame `e^{−κ}`, so any
    /// `‖Φ‖₂` is safe. The polynomial/Krylov truncation error is held at
    /// `≈1e-9` relative (drift-checked a posteriori), so `eps` only governs
    /// the trace's JL distortion.
    Expv {
        /// Two-sided relative accuracy of the trace estimate (JL rows scale
        /// as `ln(m)/ε²`); the dots are exact up to the `1e-9` kernel floor.
        eps: f64,
    },
    /// Pick the engine from the instance's storage profile at
    /// [`Engine::new`] time: small (`m < 64`) or storage-dense (`q ≥ m²/4`,
    /// `q` = total storage nonzeros) instances get [`EngineKind::Exact`]
    /// (one `O(m³)` eigendecomposition beats a high-degree polynomial sweep
    /// there); the remaining sparse/factorized instances get
    /// [`EngineKind::TaylorJl`] below `m = 256`, whose work is nearly
    /// linear in `q` (Corollary 1.2's regime), and [`EngineKind::Expv`] at
    /// `m ≥ 256`, where its `O(κ)`-smaller degree dominates. See
    /// [`EngineKind::resolve`].
    Auto {
        /// Accuracy handed to the approximate engine when one is chosen.
        eps: f64,
    },
}

/// Matrix dimension below which `Auto` always picks the exact engine.
const AUTO_EXACT_DIM: usize = 64;

/// Matrix dimension at which `Auto` upgrades a sparse instance from the
/// sketched-Taylor engine to the Krylov/Chebyshev expm-action engine: above
/// here the Lemma 4.2 degree (`≈ 7.4κ`) dominates the iteration cost and
/// the `≈ κ/4` Chebyshev/Lanczos paths win decisively (experiment E14).
const AUTO_EXPV_DIM: usize = 256;

/// JL row multiplier used by the expv engine's trace probes.
const EXPV_SKETCH_CONST: f64 = 4.0;

/// Relative truncation target for the expv engine's Chebyshev tails and
/// Lanczos substep convergence — far below any solver `eps`, so the
/// engine's end-to-end error is dominated by the trace's JL distortion.
const EXPV_POLY_TOL: f64 = 1e-9;

/// One operator application on every vector of an evaluation's Lanczos
/// runs (`vectors × (nnz(Φ) + |U|)`, `U` the coordinates the vectors run
/// on) below which they all run on the calling thread. From it on they go
/// to the pool as one claimed loop ([`map_claimed`]): back-to-back
/// evaluations on 2 vCPUs put the pool clearly ahead from sweeps of about
/// 2000, and inside a solve the claimed loop keeps solve times steady when
/// one vCPU is slowed from outside (DESIGN.md §12). The outputs do not
/// depend on the choice (results are placed by index).
const EXPV_PARALLEL_SWEEP: usize = 1 << 11;

/// `f(0)`, …, `f(len − 1)` in index order — across the pool when
/// `parallel`, else on the calling thread. On the pool every thread claims
/// the next unclaimed index until none is left, so a thread that runs
/// slower, or joins late, takes fewer items instead of holding up a fixed
/// share. Each result is stored at its index, so the output is the same
/// either way.
fn map_claimed<R: Send + Sync>(
    len: usize,
    parallel: bool,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    if !parallel || len < 2 {
        return (0..len).map(f).collect();
    }
    // `Relaxed` suffices: the counter only hands out indices. Each result
    // is published through its slot, and the pool's join orders every
    // slot write before the reads below.
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = (0..len).map(|_| OnceLock::new()).collect();
    let threads = rayon::current_num_threads().min(len);
    (0..threads).into_par_iter().for_each(|_| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= len {
            break;
        }
        let _ = slots[i].set(f(i));
    });
    slots.into_iter().map(|s| s.into_inner().expect("every index is claimed")).collect()
}

impl EngineKind {
    /// Short name for tables and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Exact => "exact",
            EngineKind::Taylor { .. } => "taylor",
            EngineKind::TaylorJl { .. } => "taylor+jl",
            EngineKind::Expv { .. } => "expv",
            EngineKind::Auto { .. } => "auto",
        }
    }

    /// Resolve [`EngineKind::Auto`] against an instance's storage profile
    /// (`dim` = m, `total_storage_nnz` = Σᵢ nnz of each constraint's natural
    /// storage). Non-`Auto` kinds return themselves unchanged.
    ///
    /// Heuristic: exact when `m < 64` (eigendecomposition is cheap and
    /// exactness buys iteration count) or when the storage is dense-ish
    /// (`q ≥ m²/4`, so sparsity cannot pay for the Taylor degree); for the
    /// remaining sparse instances, sketched Taylor up to `m < 256` and the
    /// Krylov/Chebyshev expm-action engine at `m ≥ 256`, where its
    /// `O(κ)`-smaller polynomial degree dominates every other term in the
    /// per-iteration work (E14).
    pub fn resolve(self, dim: usize, total_storage_nnz: usize) -> EngineKind {
        match self {
            EngineKind::Auto { eps } => {
                let m2 = dim.saturating_mul(dim);
                if dim < AUTO_EXACT_DIM || total_storage_nnz.saturating_mul(4) >= m2 {
                    EngineKind::Exact
                } else if dim >= AUTO_EXPV_DIM {
                    EngineKind::Expv { eps }
                } else {
                    EngineKind::TaylorJl { eps, sketch_const: 4.0 }
                }
            }
            other => other,
        }
    }
}

/// A prepared evaluator bound to a fixed constraint set.
///
/// Construction converts constraints to factorized form once when a vector
/// engine is selected (the Section 1.2 preprocessing); per-iteration calls
/// then go through [`Engine::compute`].
///
/// ```
/// use psdp_expdot::{Engine, EngineKind};
/// use psdp_linalg::Mat;
/// use psdp_sparse::PsdMatrix;
///
/// let mats = vec![PsdMatrix::Diagonal(vec![1.0, 2.0])];
/// let phi = Mat::from_diag(&[0.0, 0.5]);
/// // exp(Φ)•A = 1·e⁰ + 2·e^0.5, exactly.
/// let exact = Engine::new(EngineKind::Exact, &mats, 0)?;
/// let out = exact.compute(&phi, 0.5, &mats, 0)?;
/// let want = 1.0 + 2.0 * 0.5f64.exp();
/// let got = out.dots[0] * out.log_scale.exp();
/// assert!((got - want).abs() < 1e-10);
///
/// // The Taylor engine is a one-sided (1±ε) approximation of the same.
/// let taylor = Engine::new(EngineKind::Taylor { eps: 0.1 }, &mats, 0)?;
/// let out = taylor.compute(&phi, 0.5, &mats, 0)?;
/// assert!(out.dots[0] <= want && out.dots[0] >= 0.9 * want);
/// # Ok::<(), psdp_linalg::LinalgError>(())
/// ```
pub struct Engine {
    kind: EngineKind,
    seed: u64,
    /// Factorized constraints (empty for the exact engine).
    factors: Vec<FactorPsd>,
    /// Dense factor columns, precomputed for the expv engine's per-column
    /// Lanczos sweeps (empty for every other kind).
    expv_cols: Vec<Vec<Vec<f64>>>,
    /// The rows where any of `expv_cols` is nonzero, increasing.
    expv_support: Vec<usize>,
    /// Total factor nonzeros `q` (work accounting).
    q_nnz: usize,
    dim: usize,
}

impl Engine {
    /// Prepare an engine for the given constraints.
    ///
    /// # Errors
    /// Propagates factorization failures (non-PSD dense constraint).
    pub fn new(kind: EngineKind, mats: &[PsdMatrix], seed: u64) -> Result<Engine, LinalgError> {
        assert!(!mats.is_empty(), "Engine::new: empty constraint set");
        let dim = mats[0].dim();
        assert!(mats.iter().all(|m| m.dim() == dim), "constraints must share a dimension");
        let kind = kind.resolve(dim, mats.iter().map(PsdMatrix::storage_nnz).sum());
        let needs_factors = !matches!(kind, EngineKind::Exact);
        let factors = if needs_factors {
            mats.iter().map(|m| m.to_factor(1e-12)).collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        let q_nnz = factors.iter().map(|f| f.factor_nnz()).sum();
        let expv_cols: Vec<Vec<Vec<f64>>> = if matches!(kind, EngineKind::Expv { .. }) {
            factors
                .iter()
                .map(|f| {
                    let dense = f.factor().to_dense();
                    (0..dense.ncols()).map(|j| dense.col(j)).collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let expv_support =
            (0..dim).filter(|&i| expv_cols.iter().flatten().any(|c| c[i] != 0.0)).collect();
        Ok(Engine { kind, seed, factors, expv_cols, expv_support, q_nnz, dim })
    }

    /// The strategy this engine uses. Always a concrete kind: an
    /// [`EngineKind::Auto`] request is resolved at construction, so callers
    /// can read the actual choice back from here (the solver records it in
    /// its telemetry).
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Total nonzeros `q` across prepared factors (0 for the exact engine).
    pub fn factor_nnz(&self) -> usize {
        self.q_nnz
    }

    /// The matrix dimension `m` this engine was prepared for. Callers that
    /// cache prepared engines (the serving layer) use this to sanity-check
    /// an engine against the instance it is about to be reused with.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The root sketch seed the engine was prepared with (relevant to the
    /// sketched engines; the exact engine ignores it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Evaluate `Tr[exp(Φ)]` and all `exp(Φ) • Aᵢ` for a dense `Φ`.
    ///
    /// * `phi` — the current PSD matrix `Ψ(t)` (dense accumulation),
    /// * `kappa` — an upper bound on `‖Φ‖₂` (the solver passes the Lemma 3.2
    ///   bound or a power-iteration estimate); used to pick the Taylor degree,
    /// * `mats` — the constraint set (used by the exact engine; must be the
    ///   set the engine was prepared with),
    /// * `stream` — substream index (the iteration counter) so each call
    ///   draws a fresh deterministic sketch.
    ///
    /// # Errors
    /// Propagates eigensolver failures from the exact path.
    pub fn compute(
        &self,
        phi: &Mat,
        kappa: f64,
        mats: &[PsdMatrix],
        stream: u64,
    ) -> Result<ExpDots, LinalgError> {
        assert_eq!(phi.nrows(), self.dim, "phi dimension mismatch");
        match self.kind {
            EngineKind::Exact => self.compute_exact(phi, mats),
            EngineKind::Taylor { eps } => Ok(self.compute_taylor(phi, kappa, eps)),
            EngineKind::TaylorJl { eps, sketch_const } => {
                Ok(self.compute_taylor_jl(phi, kappa, eps, sketch_const, stream))
            }
            EngineKind::Expv { eps } => {
                Ok(self.expv_impl(phi, kappa, eps, stream, EXPV_PARALLEL_SWEEP))
            }
            EngineKind::Auto { .. } => unreachable!("Auto resolved in Engine::new"),
        }
    }

    /// Evaluate through an abstract symmetric operator (a sparse `Φ`, or
    /// the solver's `psdp_core::PsiView` — the maintained `Ψ` applied over
    /// its sparsity pattern). This is the form in which the Theorem 4.1
    /// work bound is nearly linear in `nnz(Φ) + q`; the exact engine cannot
    /// use it (it needs the dense matrix to eigendecompose).
    ///
    /// # Panics
    /// Panics if called on an [`EngineKind::Exact`] engine.
    pub fn compute_op(&self, phi: &dyn SymOp, kappa: f64, stream: u64) -> ExpDots {
        assert_eq!(phi.dim(), self.dim, "phi dimension mismatch");
        match self.kind {
            EngineKind::Exact => {
                panic!("compute_op: exact engine needs a dense Φ; use Engine::compute")
            }
            EngineKind::Taylor { eps } => self.taylor_impl(phi, kappa, eps),
            EngineKind::TaylorJl { eps, sketch_const } => {
                self.jl_impl(phi, kappa, eps, sketch_const, stream)
            }
            EngineKind::Expv { eps } => {
                self.expv_impl(phi, kappa, eps, stream, EXPV_PARALLEL_SWEEP)
            }
            EngineKind::Auto { .. } => unreachable!("Auto resolved in Engine::new"),
        }
    }

    /// Like [`Engine::compute`], but additionally materializes the dense
    /// probability matrix `P` when the strategy can produce it: the exact
    /// engine always can; the Taylor engine squares its `p(Φ/2)` block (one
    /// extra GEMM, `W ≈ p(Φ/2)²` since `p` is symmetric); the sketched engine
    /// cannot and leaves `dense_p = None`.
    ///
    /// # Errors
    /// Propagates eigensolver failures from the exact path.
    pub fn compute_dense(
        &self,
        phi: &Mat,
        kappa: f64,
        mats: &[PsdMatrix],
        stream: u64,
    ) -> Result<ExpDots, LinalgError> {
        let mut out = self.compute(phi, kappa, mats, stream)?;
        if out.dense_p.is_none() {
            if let EngineKind::Taylor { eps } = self.kind {
                let degree = taylor_degree((kappa * 0.5).max(0.0), eps * 0.5);
                let half = HalfOp { inner: phi };
                let s = apply_exp_taylor_block(&half, &Mat::identity(self.dim), degree);
                // W = S·Sᵀ via the half-flops symmetric-square kernel; S is
                // symmetric up to rounding, so this equals S² and is exactly
                // symmetric by construction (tr W = ‖S‖²_F = the taylor_impl
                // trace).
                let mut w = psdp_linalg::symmul(&s);
                w.symmetrize();
                let tr = w.trace();
                if tr > 0.0 {
                    w.scale(1.0 / tr);
                    out.dense_p = Some(w);
                }
            }
        }
        Ok(out)
    }

    fn compute_exact(&self, phi: &Mat, mats: &[PsdMatrix]) -> Result<ExpDots, LinalgError> {
        let m = self.dim;
        let eig = sym_eigen(phi)?;
        // Spectral shift so exp never overflows: work with exp(λ - λmax).
        let shift = eig.lambda_max().max(0.0);
        let mut w = eig.apply_fn(|lam| (lam - shift).exp());
        let tr_w = w.trace();
        let dots: Vec<f64> = mats.par_iter().map(|a| a.dot_dense(&w).max(0.0)).collect();
        let cost = Cost::seq(8.0 * (m * m * m) as f64) + Cost::reduce(mats.len(), (m * m) as f64);
        w.scale(1.0 / tr_w);
        let dense_p = Some(w);
        Ok(ExpDots { tr_w, dots, log_scale: shift, cost, degree: 0, sketch_rows: 0, dense_p })
    }

    fn compute_taylor(&self, phi: &Mat, kappa: f64, eps: f64) -> ExpDots {
        self.taylor_impl(phi, kappa, eps)
    }

    fn compute_taylor_jl(
        &self,
        phi: &Mat,
        kappa: f64,
        eps: f64,
        sketch_const: f64,
        stream: u64,
    ) -> ExpDots {
        self.jl_impl(phi, kappa, eps, sketch_const, stream)
    }

    fn taylor_impl(&self, phi: &dyn SymOp, kappa: f64, eps: f64) -> ExpDots {
        let m = self.dim;
        // Split the error budget: p(Φ/2)² ∈ [(1-ε/2)², 1]·exp(Φ) ⊆
        // [(1-ε), 1]·exp(Φ).
        let degree = taylor_degree((kappa * 0.5).max(0.0), eps * 0.5);
        let half = HalfOp { inner: phi };
        // S = p(Φ/2) materialized against the identity block.
        let s = apply_exp_taylor_block(&half, &Mat::identity(m), degree);
        let tr_w: f64 = s.as_slice().iter().map(|v| v * v).sum();
        let dots = self.dots_from_block(&s);
        let phi_nnz = phi.nnz();
        let cost = Cost::new(
            (2 * phi_nnz * m * degree + 2 * self.q_nnz * m) as f64,
            degree as f64 * (m.max(2) as f64).log2() + (self.q_nnz.max(2) as f64).log2(),
        );
        ExpDots { tr_w, dots, log_scale: 0.0, cost, degree, sketch_rows: 0, dense_p: None }
    }

    fn jl_impl(
        &self,
        phi: &dyn SymOp,
        kappa: f64,
        eps: f64,
        sketch_const: f64,
        stream: u64,
    ) -> ExpDots {
        let m = self.dim;
        // Budget: ε/2 to the Taylor truncation, ε/2 to the sketch distortion.
        let degree = taylor_degree((kappa * 0.5).max(0.0), eps * 0.25);
        let rows = jl_rows(m, eps * 0.5, sketch_const);
        let pi = gaussian_sketch(rows, m, self.seed, stream);
        // Y = p(Φ/2) Πᵀ  (m × rows); p is symmetric, so Π p(Φ/2) = Yᵀ.
        let half = HalfOp { inner: phi };
        let y = apply_exp_taylor_block(&half, &pi.transpose(), degree);
        // Tr[exp Φ] = Σ_j ‖exp(Φ/2) e_j‖² ≈ ‖Π p(Φ/2)‖²_F = ‖Y‖²_F.
        let tr_w: f64 = y.as_slice().iter().map(|v| v * v).sum();
        // exp(Φ)•QQᵀ ≈ ‖Π p(Φ/2) Q‖²_F = ‖Qᵀ Y‖²_F.
        let dots: Vec<f64> = self
            .factors
            .par_iter()
            .map(|f| {
                let qty = f.factor().spmm_transpose(&y);
                qty.as_slice().iter().map(|v| v * v).sum()
            })
            .collect();
        let phi_nnz = phi.nnz();
        let apply_work = 2.0 * (phi_nnz * rows * degree) as f64;
        let dots_work = 2.0 * (self.q_nnz * rows) as f64;
        let cost = Cost::new(
            apply_work + dots_work + (rows * m) as f64,
            degree as f64 * (m.max(2) as f64).log2() + (self.q_nnz.max(2) as f64).log2(),
        );
        ExpDots { tr_w, dots, log_scale: 0.0, cost, degree, sketch_rows: rows, dense_p: None }
    }

    /// Krylov/Chebyshev expm-action evaluation (the `Expv` engine).
    ///
    /// Frame: everything is reported at `log_scale = κ` (the caller's `‖Φ‖₂`
    /// bound), i.e. `tr_w ≈ e^{−κ}·Tr[exp Φ]` and
    /// `dots[i] ≈ e^{−κ}·exp(Φ)•Aᵢ`, so no intermediate can overflow at any
    /// `κ`. The trace uses `jl_rows(m, ε/2)` Gaussian probes, or the `m`
    /// identity probes once that bound reaches `m`; the dots use each dense
    /// factor column. Every probe and column runs the same restarted
    /// log-domain Lanczos (deterministic — a Lanczos failure of the tiny
    /// tridiagonal eigensolve falls back to the infallible Chebyshev path
    /// for that vector). Identity probes on rows `Φ` reports as exactly
    /// zero ([`SymOp::is_zero_row`]) are answered without Lanczos, and
    /// `cost.work` counts only the operator applications actually run.
    ///
    /// The identity probes and the columns run on `Φ` gathered
    /// ([`SymOp::gather`]) onto `U`, its nonzero rows plus the columns'
    /// support: every vector those runs make is zero off `U`, so they give
    /// bitwise the full-length runs' log-norms (DESIGN.md §12). An operator
    /// that cannot gather, and the Gaussian probes, run with `U = 0..m`.
    ///
    /// The probes and the factors' columns run as one loop, which goes to
    /// the pool only when one operator application on each of its vectors
    /// reaches `parallel_sweep` work ([`EXPV_PARALLEL_SWEEP`] outside
    /// tests); the outputs never depend on it.
    fn expv_impl(
        &self,
        phi: &dyn SymOp,
        kappa: f64,
        eps: f64,
        stream: u64,
        parallel_sweep: usize,
    ) -> ExpDots {
        let m = self.dim;
        let kappa_half = (kappa * 0.5).max(0.0);
        let log_scale = 2.0 * kappa_half;
        let phi_nnz = phi.nnz();

        // U, and Φ/2 over it: a vector supported on U stays there under Φ
        // (the rows off U are zero), so no Lanczos vector leaves it.
        let live: Vec<bool> = (0..m).map(|j| !phi.is_zero_row(j)).collect();
        let mut in_u = live.clone();
        for &i in &self.expv_support {
            in_u[i] = true;
        }
        let u: Vec<usize> = (0..m).filter(|&i| in_u[i]).collect();
        let gathered = if u.len() < m { phi.gather(&u) } else { None };
        let (u, half_u) = match &gathered {
            Some(g) => (u, HalfOp { inner: g }),
            None => ((0..m).collect(), HalfOp { inner: phi }),
        };

        // Tr[exp Φ]·e^{−κ} ≈ Σ_probes e^{2·ln‖exp(Φ/2)p‖ − κ}, each probe
        // through the same log-domain Lanczos as the dots below. Running
        // the trace in log scale is essential, not cosmetic: κ is only an
        // *upper bound* on ‖Φ‖ (Gershgorin overshoots λmax by up to 2× on
        // Laplacian-like Φ), and a fixed-frame polynomial apply has
        // absolute accuracy ~tol, so once κ − λmax ≳ 40 the true
        // e^{λ−κ}-sized trace drowns in approximation noise while the
        // log-domain dots stay relatively accurate — inconsistent ratios
        // that can fabricate solver certificates. Per-probe log norms keep
        // trace and dots in the same relative-accuracy regime at any κ.
        //
        // When the JL row count reaches the dimension, the sketch is
        // pointless: m identity probes give Tr[exp Φ] exactly (up to the
        // Krylov tolerance) for no more work — so cap at m and drop the
        // sketch distortion entirely. Identity probes are built one at a
        // time, and a probe on a row the operator reports as exactly zero
        // skips Lanczos: exp(Φ/2)e_j = e_j, log-norm 0, the very value the
        // Krylov run returns there, so the trace keeps its bits.
        let jl = jl_rows(m, eps * 0.5, EXPV_SKETCH_CONST);
        let term = |op: &HalfOp, p: &[f64]| {
            let (log_norm, mv) = expv_column_log_norm(op, p, kappa_half, m);
            ((2.0 * log_norm - log_scale).exp(), mv)
        };
        // The probes that need Lanczos: the identity probes of the rows Φ
        // does not report as zero, given by their positions in U, or every
        // Gaussian probe, which has full support and runs on all of Φ.
        let half = HalfOp { inner: phi };
        let (at, pi) = if jl >= m {
            ((0..u.len()).filter(|&k| live[u[k]]).collect(), None)
        } else {
            (Vec::new(), Some(gaussian_sketch(jl, m, self.seed, stream)))
        };
        let n_probes = if pi.is_some() { jl } else { at.len() };

        // exp(Φ)•Aᵢ·e^{−κ} = Σ_cols e^{2·ln‖exp(Φ/2)c‖ − κ}, per-column
        // Lanczos in log-scale, each column read at U; the per-factor sum
        // is sequential (fixed order, no parallel float reduction).
        //
        // The probes and then the factors make one loop of Lanczos runs,
        // on the pool when their sweep is worth it.
        let columns: usize = self.expv_cols.iter().map(Vec::len).sum();
        let sweep = match pi {
            Some(_) => jl * (phi_nnz + m) + columns * (phi_nnz + u.len()),
            None => (n_probes + columns) * (phi_nnz + u.len()),
        };
        let runs = map_claimed(n_probes + self.expv_cols.len(), sweep >= parallel_sweep, |t| {
            if t < n_probes {
                match &pi {
                    Some(pi) => term(&half, pi.row(t)),
                    None => {
                        let mut e = vec![0.0; u.len()];
                        e[at[t]] = 1.0;
                        term(&half_u, &e)
                    }
                }
            } else {
                let mut dot = 0.0;
                let mut matvecs = 0usize;
                for c in &self.expv_cols[t - n_probes] {
                    let c_u: Vec<f64> = u.iter().map(|&i| c[i]).collect();
                    let (d, mv) = term(&half_u, &c_u);
                    matvecs += mv;
                    dot += d;
                }
                (dot, matvecs)
            }
        });
        let (probe_runs, per_factor) = runs.split_at(n_probes);

        // Identity probes go back in row order, every row Φ reports as
        // zero at its exact term; then a sequential sum in probe order (no
        // parallel float reduction).
        let (probe_terms, rows): (Vec<(f64, usize)>, usize) = match pi {
            Some(_) => (probe_runs.to_vec(), jl),
            None => {
                let mut terms = vec![((-log_scale).exp(), 0); m];
                for (&k, &run) in at.iter().zip(probe_runs) {
                    terms[u[k]] = run;
                }
                (terms, m)
            }
        };
        let tr_w: f64 = probe_terms.iter().map(|&(v, _)| v).sum();
        let probe_matvecs: usize = probe_terms.iter().map(|&(_, mv)| mv).sum();
        let dots: Vec<f64> = per_factor.iter().map(|&(d, _)| d).collect();
        let col_matvecs: usize = per_factor.iter().map(|&(_, mv)| mv).sum();

        // `degree` reports the largest matvec count any one probe (or
        // factor) evaluation needed — the serial depth of the evaluation.
        let degree = probe_terms
            .iter()
            .map(|&(_, mv)| mv)
            .chain(per_factor.iter().map(|&(_, mv)| mv))
            .max()
            .unwrap_or(0);
        let apply_work = 2.0 * (phi_nnz * probe_matvecs) as f64;
        let dots_work = 2.0 * (phi_nnz * col_matvecs) as f64;
        let krylov_depth = col_matvecs as f64 / self.expv_cols.len().max(1) as f64;
        let cost = Cost::new(
            apply_work + dots_work + (rows * m) as f64,
            (degree as f64 + krylov_depth) * (m.max(2) as f64).log2(),
        );
        ExpDots { tr_w, dots, log_scale, cost, degree, sketch_rows: rows, dense_p: None }
    }

    /// Given `S ≈ exp(Φ/2)` (dense `m × m`), return all `‖S Qᵢ‖²_F`.
    fn dots_from_block(&self, s: &Mat) -> Vec<f64> {
        self.factors
            .par_iter()
            .map(|f| {
                let sq = f.left_mul(s);
                FactorPsd::exp_dot_from_block(&sq)
            })
            .collect()
    }
}

/// `ln‖exp(Φ/2)·c‖` for one factor column, plus the operator applications
/// spent, on `Φ/2` gathered from dimension `ambient` (DESIGN.md §12).
/// Restarted Lanczos with a Chebyshev fallback if the tridiagonal
/// eigensolve fails (both deterministic, so the fallback is too).
fn expv_column_log_norm(half: &HalfOp, c: &[f64], kappa_half: f64, ambient: usize) -> (f64, usize) {
    match expm_action_lanczos_gathered(half, c, kappa_half, EXPV_POLY_TOL, ambient) {
        Ok(r) => (r.log_norm, r.matvecs),
        Err(_) => {
            let (y, ls) = expm_action_chebyshev(half, c, kappa_half, EXPV_POLY_TOL);
            let n = vecops::norm2(&y);
            let log_norm = if n == 0.0 { f64::NEG_INFINITY } else { n.ln() + ls };
            (log_norm, 0)
        }
    }
}

/// Adapter applying `Φ/2` as an operator without materializing the scaled
/// matrix (the Taylor series is taken of `Φ/2`, Theorem 4.1).
struct HalfOp<'a> {
    inner: &'a dyn SymOp,
}

impl SymOp for HalfOp<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.inner.apply_vec(x);
        for v in &mut y {
            *v *= 0.5;
        }
        y
    }

    fn apply_block(&self, x: &Mat) -> Mat {
        let mut y = self.inner.apply_block(x);
        y.scale(0.5);
        y
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
}

/// Reference helper: exact `exp(Φ) • A` for a single pair (tests, examples).
///
/// # Errors
/// Propagates eigensolver failures.
pub fn exp_dot_exact(phi: &Mat, a: &PsdMatrix) -> Result<f64, LinalgError> {
    let w = psdp_linalg::expm(phi)?;
    Ok(a.dot_dense(&w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_sparse::Csr;

    /// Small deterministic PSD test fixture: Φ PSD with ‖Φ‖ ≈ kappa_target,
    /// plus a mixed bag of constraints.
    fn fixture(m: usize, kappa_target: f64) -> (Mat, Vec<PsdMatrix>) {
        let mut phi = Mat::from_fn(m, m, |i, j| ((i * 7 + j * 3) % 5) as f64 * 0.1);
        phi.symmetrize();
        let eig = sym_eigen(&phi).unwrap();
        phi.add_diag(-eig.lambda_min().min(0.0) + 0.01);
        let lmax = sym_eigen(&phi).unwrap().lambda_max();
        phi.scale(kappa_target / lmax);

        let mut dense = Mat::zeros(m, m);
        let v: Vec<f64> = (0..m).map(|i| ((i % 3) as f64) - 1.0).collect();
        dense.rank1_update(0.7, &v);
        dense.add_diag(0.2);

        let factor = {
            let trip: Vec<(usize, usize, f64)> =
                (0..m).map(|i| (i, i % 2, 1.0 + (i % 4) as f64 * 0.25)).collect();
            FactorPsd::new(Csr::from_triplets(m, 2, &trip))
        };
        let diag: Vec<f64> = (0..m).map(|i| 0.1 + (i % 5) as f64 * 0.3).collect();

        (phi, vec![PsdMatrix::Dense(dense), PsdMatrix::Factor(factor), PsdMatrix::Diagonal(diag)])
    }

    #[test]
    fn exact_engine_matches_reference() {
        let (phi, mats) = fixture(8, 2.0);
        let eng = Engine::new(EngineKind::Exact, &mats, 0).unwrap();
        let out = eng.compute(&phi, 2.0, &mats, 0).unwrap();
        let scale = out.log_scale.exp();
        for (i, a) in mats.iter().enumerate() {
            let want = exp_dot_exact(&phi, a).unwrap();
            let got = out.dots[i] * scale;
            assert!((got - want).abs() < 1e-8 * want.max(1.0), "dot {i}: {got} vs {want}");
        }
        let want_tr = psdp_linalg::expm(&phi).unwrap().trace();
        assert!((out.tr_w * scale - want_tr).abs() < 1e-8 * want_tr);
    }

    #[test]
    fn claimed_loop_returns_results_in_index_order() {
        // Items of uneven cost under a 4-thread budget, so threads finish
        // out of order; lengths around and below the budget.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let f = |i: usize| {
            (0..(i % 5) * 1000).fold(i as u64, |a, k| a.wrapping_mul(31).wrapping_add(k as u64))
        };
        for len in [0, 1, 2, 3, 7, 33] {
            let want: Vec<u64> = (0..len).map(f).collect();
            assert_eq!(pool.install(|| map_claimed(len, true, f)), want, "len {len}");
            assert_eq!(map_claimed(len, false, f), want, "len {len}");
        }
    }

    #[test]
    fn expv_serial_and_parallel_loops_agree_bitwise() {
        // Identity probes (eps 0.4) and Gaussian probes (eps 0.95: 81 of
        // m = 96 rows), the loop of probes and factors forced onto the
        // pool and onto the calling thread under a 4-thread budget.
        let (phi, mats) = fixture(96, 6.0);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        for eps in [0.4, 0.95] {
            let eng = Engine::new(EngineKind::Expv { eps }, &mats, 11).unwrap();
            let run = |sweep| pool.install(|| eng.expv_impl(&phi, 6.2, eps, 3, sweep));
            let (par, ser) = (run(0), run(usize::MAX));
            assert_eq!(par.sketch_rows, if eps < 0.5 { 96 } else { 81 }, "eps {eps}");
            assert_eq!(par.tr_w.to_bits(), ser.tr_w.to_bits(), "eps {eps}: trace");
            assert_eq!((par.degree, par.sketch_rows), (ser.degree, ser.sketch_rows));
            assert_eq!(par.cost.work.to_bits(), ser.cost.work.to_bits(), "eps {eps}: work");
            for (a, b) in par.dots.iter().zip(&ser.dots) {
                assert_eq!(a.to_bits(), b.to_bits(), "eps {eps}: a dot");
            }
        }
    }

    #[test]
    fn taylor_engine_within_eps() {
        let (phi, mats) = fixture(8, 3.0);
        let eps = 0.1;
        let eng = Engine::new(EngineKind::Taylor { eps }, &mats, 0).unwrap();
        let out = eng.compute(&phi, 3.1, &mats, 0).unwrap();
        assert!(out.degree > 0);
        for (i, a) in mats.iter().enumerate() {
            let want = exp_dot_exact(&phi, a).unwrap();
            let got = out.dots[i];
            assert!(got <= want * (1.0 + 1e-9), "dot {i} over: {got} vs {want}");
            assert!(got >= want * (1.0 - eps), "dot {i} under: {got} vs {want}");
        }
        let want_tr = psdp_linalg::expm(&phi).unwrap().trace();
        assert!(out.tr_w <= want_tr * (1.0 + 1e-9));
        assert!(out.tr_w >= want_tr * (1.0 - eps));
    }

    #[test]
    fn taylor_jl_engine_statistically_close() {
        let (phi, mats) = fixture(10, 2.0);
        let eps = 0.2;
        let eng = Engine::new(EngineKind::TaylorJl { eps, sketch_const: 8.0 }, &mats, 99).unwrap();
        let out = eng.compute(&phi, 2.1, &mats, 5).unwrap();
        assert!(out.sketch_rows > 0);
        for (i, a) in mats.iter().enumerate() {
            let want = exp_dot_exact(&phi, a).unwrap();
            let got = out.dots[i];
            // JL is randomized: allow a generous 35% band (eps=0.2 target
            // plus concentration slack at this sketch size).
            assert!((got - want).abs() < 0.35 * want.max(1e-9), "dot {i}: {got} vs {want}");
        }
    }

    #[test]
    fn jl_deterministic_per_stream() {
        let (phi, mats) = fixture(6, 1.0);
        let kind = EngineKind::TaylorJl { eps: 0.3, sketch_const: 2.0 };
        let eng = Engine::new(kind, &mats, 7).unwrap();
        let a = eng.compute(&phi, 1.0, &mats, 3).unwrap();
        let b = eng.compute(&phi, 1.0, &mats, 3).unwrap();
        assert_eq!(a.dots, b.dots);
        let c = eng.compute(&phi, 1.0, &mats, 4).unwrap();
        assert_ne!(a.dots, c.dots, "different stream should resample the sketch");
    }

    #[test]
    fn exact_engine_survives_large_norm() {
        // ‖Φ‖ = 900 would overflow exp without the spectral shift.
        let (mut phi, mats) = fixture(6, 1.0);
        phi.scale(900.0);
        let eng = Engine::new(EngineKind::Exact, &mats, 0).unwrap();
        let out = eng.compute(&phi, 900.0, &mats, 0).unwrap();
        assert!(out.tr_w.is_finite() && out.tr_w > 0.0);
        assert!(out.dots.iter().all(|d| d.is_finite()));
        assert!(out.log_scale > 0.0);
    }

    #[test]
    fn costs_reflect_sparse_advantage() {
        // With a sparse Φ (tridiagonal, nnz ≈ 3m) applied through
        // compute_op, the sketched engine's analytic work is nearly linear
        // in m and far below the exact engine's 8m³ at moderate m. This is
        // the crossover the Corollary 1.2 work bound predicts.
        let m = 96;
        let mut trip = Vec::new();
        for i in 0..m {
            trip.push((i, i, 2.0));
            if i + 1 < m {
                trip.push((i, i + 1, -0.5));
                trip.push((i + 1, i, -0.5));
            }
        }
        let phi_sparse = Csr::from_triplets(m, m, &trip);
        let phi_dense = phi_sparse.to_dense();
        let mats: Vec<PsdMatrix> = (0..4)
            .map(|k| {
                let mut v = vec![0.0; m];
                v[k] = 1.0;
                v[(k * 7 + 3) % m] = -1.0;
                PsdMatrix::Factor(FactorPsd::from_vector(&v))
            })
            .collect();
        let exact = Engine::new(EngineKind::Exact, &mats, 0).unwrap();
        let jl =
            Engine::new(EngineKind::TaylorJl { eps: 0.3, sketch_const: 1.0 }, &mats, 0).unwrap();
        let ce = exact.compute(&phi_dense, 3.0, &mats, 0).unwrap().cost;
        let cj = jl.compute_op(&phi_sparse, 3.0, 0).cost;
        assert!(ce.work > 0.0 && cj.work > 0.0);
        assert!(ce.work > cj.work, "exact {} vs jl {}", ce.work, cj.work);
        assert!(cj.depth < ce.depth);
    }

    #[test]
    fn compute_op_matches_dense_compute() {
        let (phi, mats) = fixture(9, 2.0);
        let kind = EngineKind::TaylorJl { eps: 0.3, sketch_const: 2.0 };
        let eng = Engine::new(kind, &mats, 11).unwrap();
        let a = eng.compute(&phi, 2.0, &mats, 7).unwrap();
        let b = eng.compute_op(&phi, 2.0, 7);
        for (x, y) in a.dots.iter().zip(&b.dots) {
            assert!((x - y).abs() < 1e-10 * x.abs().max(1.0));
        }
        assert!((a.tr_w - b.tr_w).abs() < 1e-10 * a.tr_w);
    }

    #[test]
    #[should_panic(expected = "exact engine needs a dense")]
    fn compute_op_rejects_exact() {
        let (phi, mats) = fixture(5, 1.0);
        let eng = Engine::new(EngineKind::Exact, &mats, 0).unwrap();
        let _ = eng.compute_op(&phi, 1.0, 0);
    }

    #[test]
    fn engine_names() {
        assert_eq!(EngineKind::Exact.name(), "exact");
        assert_eq!(EngineKind::Taylor { eps: 0.1 }.name(), "taylor");
        assert_eq!(EngineKind::TaylorJl { eps: 0.1, sketch_const: 1.0 }.name(), "taylor+jl");
        assert_eq!(EngineKind::Expv { eps: 0.1 }.name(), "expv");
        assert_eq!(EngineKind::Auto { eps: 0.1 }.name(), "auto");
    }

    #[test]
    fn auto_resolution_keyed_on_nnz_vs_m2() {
        let auto = EngineKind::Auto { eps: 0.2 };
        // Small dimension: exact regardless of sparsity.
        assert_eq!(auto.resolve(8, 2), EngineKind::Exact);
        // Large and sparse (q ≪ m²): sketched Taylor.
        assert!(matches!(auto.resolve(128, 512), EngineKind::TaylorJl { .. }));
        // Very large and sparse: the Krylov/Chebyshev expm-action engine.
        assert!(matches!(auto.resolve(512, 4096), EngineKind::Expv { .. }));
        assert!(matches!(auto.resolve(256, 1024), EngineKind::Expv { .. }));
        // Large but storage-dense (q ≈ m²): exact, regardless of size.
        assert_eq!(auto.resolve(128, 128 * 128), EngineKind::Exact);
        assert_eq!(auto.resolve(512, 512 * 512), EngineKind::Exact);
        // Concrete kinds pass through untouched.
        assert_eq!(EngineKind::Exact.resolve(128, 1), EngineKind::Exact);
        let t = EngineKind::Taylor { eps: 0.1 };
        assert_eq!(t.resolve(128, 1), t);
    }

    #[test]
    fn expv_engine_dots_match_exact_trace_within_jl_band() {
        let (phi, mats) = fixture(10, 3.0);
        let eng = Engine::new(EngineKind::Expv { eps: 0.2 }, &mats, 42).unwrap();
        let out = eng.compute(&phi, 3.0, &mats, 1).unwrap();
        assert_eq!(out.log_scale, 3.0);
        assert!(out.sketch_rows > 0);
        let scale = out.log_scale.exp();
        // Dots carry no sketch distortion: they match the exact reference up
        // to the 1e-9 kernel floor plus the factorization tolerance.
        for (i, a) in mats.iter().enumerate() {
            let want = exp_dot_exact(&phi, a).unwrap();
            let got = out.dots[i] * scale;
            assert!((got - want).abs() < 1e-5 * want.max(1.0), "dot {i}: {got} vs {want}");
        }
        // The trace is a JL estimate: generous band like the taylor+jl test.
        let want_tr = psdp_linalg::expm(&phi).unwrap().trace();
        assert!((out.tr_w * scale - want_tr).abs() < 0.35 * want_tr);
    }

    #[test]
    fn expv_engine_survives_large_norm() {
        // ‖Φ‖ = 900 would overflow exp(κ); the log-scale frame must not.
        let (mut phi, mats) = fixture(6, 1.0);
        phi.scale(900.0);
        let eng = Engine::new(EngineKind::Expv { eps: 0.3 }, &mats, 5).unwrap();
        let out = eng.compute(&phi, 900.0, &mats, 0).unwrap();
        assert!(out.tr_w.is_finite() && out.tr_w > 0.0);
        assert!(out.dots.iter().all(|d| d.is_finite()));
        assert_eq!(out.log_scale, 900.0);
    }

    #[test]
    fn expv_deterministic_dots_independent_of_stream() {
        let (phi, mats) = fixture(8, 2.0);
        let eng = Engine::new(EngineKind::Expv { eps: 0.3 }, &mats, 7).unwrap();
        let a = eng.compute(&phi, 2.0, &mats, 3).unwrap();
        let b = eng.compute(&phi, 2.0, &mats, 3).unwrap();
        assert_eq!(a.dots, b.dots);
        assert_eq!(a.tr_w.to_bits(), b.tr_w.to_bits());
        // At this size the JL row bound exceeds m, so the trace block is
        // the m identity probes (exact trace): a different stream has
        // nothing left to resample and the whole result is stream-free.
        let c = eng.compute(&phi, 2.0, &mats, 4).unwrap();
        assert_eq!(a.dots, c.dots);
        assert_eq!(a.sketch_rows, 8);
        assert_eq!(a.tr_w.to_bits(), c.tr_w.to_bits());
    }

    #[test]
    fn expv_sketched_trace_regime_at_large_m() {
        // m large enough (and eps loose enough) that the JL bound is below
        // m: the trace goes through real Gaussian probes. Dots stay
        // sketch-free, so a stream change moves tr_w and nothing else.
        let m = 128;
        let mats: Vec<PsdMatrix> = (0..4usize)
            .map(|k| {
                let trip = [(9 * k, 0, 1.0), (9 * k + 5, 0, 0.5)];
                PsdMatrix::Factor(FactorPsd::new(Csr::from_triplets(m, 1, &trip)))
            })
            .collect();
        let mut phi = Mat::zeros(m, m);
        for a in &mats {
            a.add_scaled_into(&mut phi, 0.4);
        }
        phi.symmetrize();
        let eng = Engine::new(EngineKind::Expv { eps: 0.9 }, &mats, 5).unwrap();
        let a = eng.compute(&phi, 2.0, &mats, 1).unwrap();
        assert!(a.sketch_rows < m, "expected sketched regime, got {} rows", a.sketch_rows);
        let c = eng.compute(&phi, 2.0, &mats, 2).unwrap();
        assert_eq!(a.dots, c.dots, "dots are sketch-free");
        assert_ne!(a.tr_w.to_bits(), c.tr_w.to_bits(), "trace probes must resample");
        // Both estimates stay inside the (loose) JL band around the truth.
        let exact =
            Engine::new(EngineKind::Exact, &mats, 0).unwrap().compute(&phi, 2.0, &mats, 0).unwrap();
        for t in [
            a.tr_w * (a.log_scale - exact.log_scale).exp(),
            c.tr_w * (c.log_scale - exact.log_scale).exp(),
        ] {
            assert!((t - exact.tr_w).abs() <= 0.9 * exact.tr_w, "trace {t} vs {}", exact.tr_w);
        }
    }

    #[test]
    fn expv_on_csr_gathers_and_keeps_the_dense_bits() {
        // E14's shape at m = 96: four rank-1 factors over 12 scattered
        // rows, Φ as CSR without its zero rows. The CSR route skips the 84
        // zero-row probes and runs the rest on the 12 gathered rows; the
        // dense route runs all 96 probes at full length.
        let m = 96;
        let mats: Vec<PsdMatrix> = (0..4usize)
            .map(|k| {
                let trip = [(7 * k, 0, 1.0), (7 * k + 30, 0, -0.5), (7 * k + 61, 0, 0.75)];
                PsdMatrix::Factor(FactorPsd::new(Csr::from_triplets(m, 1, &trip)))
            })
            .collect();
        let mut phi = Mat::zeros(m, m);
        for (k, a) in mats.iter().enumerate() {
            a.add_scaled_into(&mut phi, 0.3 + 0.1 * k as f64);
        }
        phi.symmetrize();
        let sparse = Csr::from_dense(&phi, 0.0);
        let eng = Engine::new(EngineKind::Expv { eps: 0.25 }, &mats, 0).unwrap();
        for kappa in [2.0, 40.0] {
            let dense = eng.compute(&phi, kappa, &mats, 1).unwrap();
            let op = eng.compute_op(&sparse, kappa, 1);
            assert_eq!(op.sketch_rows, m);
            assert_eq!(op.tr_w.to_bits(), dense.tr_w.to_bits(), "kappa {kappa}");
            assert_eq!(op.degree, dense.degree, "kappa {kappa}");
            for (a, b) in op.dots.iter().zip(&dense.dots) {
                assert_eq!(a.to_bits(), b.to_bits(), "kappa {kappa}: a dot");
            }
            assert!(op.cost.work < dense.cost.work, "kappa {kappa}");
        }
    }

    #[test]
    fn expv_compute_op_matches_dense_compute() {
        let (phi, mats) = fixture(9, 2.0);
        let eng = Engine::new(EngineKind::Expv { eps: 0.3 }, &mats, 11).unwrap();
        let a = eng.compute(&phi, 2.0, &mats, 7).unwrap();
        let b = eng.compute_op(&phi, 2.0, 7);
        assert_eq!(a.dots, b.dots);
        assert_eq!(a.tr_w.to_bits(), b.tr_w.to_bits());
        assert!(a.dense_p.is_none() && b.dense_p.is_none());
    }

    #[test]
    fn auto_engine_resolves_and_computes() {
        // 96 rank-1 factors on m = 96: q ≈ 2m ≪ m²/4 → sketched engine.
        let m = 96;
        let mats: Vec<PsdMatrix> = (0..m)
            .map(|k| {
                let mut v = vec![0.0; m];
                v[k] = 1.0;
                v[(k + 1) % m] = -1.0;
                PsdMatrix::Factor(FactorPsd::from_vector(&v))
            })
            .collect();
        let eng = Engine::new(EngineKind::Auto { eps: 0.3 }, &mats, 3).unwrap();
        assert!(matches!(eng.kind(), EngineKind::TaylorJl { .. }), "{:?}", eng.kind());
        let phi = Mat::identity(m).scaled(0.5);
        let out = eng.compute(&phi, 0.5, &mats, 1).unwrap();
        assert!(out.tr_w.is_finite() && out.tr_w > 0.0);

        // A tiny dense instance resolves to exact.
        let small = vec![PsdMatrix::Diagonal(vec![1.0, 2.0])];
        let eng = Engine::new(EngineKind::Auto { eps: 0.3 }, &small, 0).unwrap();
        assert_eq!(eng.kind(), EngineKind::Exact);
    }
}
