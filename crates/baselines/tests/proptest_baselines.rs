//! Property tests for the baselines: simplex optimality/feasibility and
//! the Young LP solver's guarantee band, on random positive LPs; and the
//! MMW game's Theorem 2.1 regret bound against randomized adversaries, with
//! its diagonal case checked against the closed-form softmax (Hedge).

use proptest::prelude::*;
use psdp_baselines::{packing_lp_opt, simplex_max, young_packing_lp, LpResult, MmwGame};
use psdp_linalg::Mat;
use psdp_sparse::PsdMatrix;

/// Random positive packing LP columns: n columns × m rows, nonnegative,
/// each column has at least one entry ≥ 0.1.
fn columns() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..5, 1usize..5).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::collection::vec(0.0_f64..2.0, m), n).prop_map(
            |mut cols| {
                for c in &mut cols {
                    if c.iter().all(|&v| v < 0.1) {
                        c[0] = 1.0;
                    }
                }
                cols
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Simplex returns a feasible solution whose value matches 1ᵀx.
    #[test]
    fn simplex_feasible_and_consistent(cols in columns()) {
        let m = cols[0].len();
        let LpResult::Optimal { x, value } = packing_lp_opt(&cols) else {
            return Ok(()); // unbounded is impossible given column floors
        };
        for j in 0..m {
            let s: f64 = cols.iter().zip(&x).map(|(c, &xi)| c[j] * xi).sum();
            prop_assert!(s <= 1.0 + 1e-7, "row {j} infeasible: {s}");
        }
        let direct: f64 = x.iter().sum();
        prop_assert!((direct - value).abs() < 1e-7 * (1.0 + value.abs()));
        prop_assert!(x.iter().all(|&v| v >= -1e-9));
    }

    /// Simplex dominates the uniform-scaling heuristic (a known feasible
    /// point), i.e. it is at least as good as an easy lower bound.
    #[test]
    fn simplex_beats_uniform_heuristic(cols in columns()) {
        let m = cols[0].len();
        let n = cols.len();
        let LpResult::Optimal { value, .. } = packing_lp_opt(&cols) else {
            return Ok(());
        };
        let worst_row = (0..m)
            .map(|j| cols.iter().map(|c| c[j]).sum::<f64>())
            .fold(0.0_f64, f64::max);
        if worst_row > 0.0 {
            let heuristic = n as f64 / worst_row;
            prop_assert!(value >= heuristic - 1e-7, "simplex {value} < uniform {heuristic}");
        }
    }

    /// Young LP lands in [(1−3ε)OPT, OPT] and is feasible.
    #[test]
    fn young_lp_in_guarantee_band(cols in columns()) {
        let LpResult::Optimal { value: opt, .. } = packing_lp_opt(&cols) else {
            return Ok(());
        };
        let eps = 0.2;
        let r = young_packing_lp(&cols, eps, 200_000);
        let m = cols[0].len();
        for j in 0..m {
            let s: f64 = cols.iter().zip(&r.x).map(|(c, &xi)| c[j] * xi).sum();
            prop_assert!(s <= 1.0 + 1e-7, "row {j} infeasible: {s}");
        }
        prop_assert!(r.value <= opt * (1.0 + 1e-7), "young {} above OPT {opt}", r.value);
        prop_assert!(r.value >= opt * (1.0 - 3.0 * eps) - 1e-9,
            "young {} below guarantee band of OPT {opt}", r.value);
        prop_assert!(r.upper >= opt * (1.0 - 1e-7), "upper {} below OPT {opt}", r.upper);
    }

    /// General simplex: adding a redundant constraint never changes the
    /// optimum; tightening a binding rhs never increases it.
    #[test]
    fn simplex_monotone_in_constraints(cols in columns()) {
        let m = cols[0].len();
        let n = cols.len();
        let a: Vec<Vec<f64>> = (0..m).map(|j| cols.iter().map(|c| c[j]).collect()).collect();
        let LpResult::Optimal { value: base, .. } =
            simplex_max(&a, &vec![1.0; m], &vec![1.0; n]) else { return Ok(()); };

        // Redundant row: all zeros.
        let mut a2 = a.clone();
        a2.push(vec![0.0; n]);
        let LpResult::Optimal { value: with_redundant, .. } =
            simplex_max(&a2, &vec![1.0; m + 1], &vec![1.0; n]) else { return Ok(()); };
        prop_assert!((with_redundant - base).abs() < 1e-7 * (1.0 + base));

        // Halve every rhs: optimum halves (positive homogeneity).
        let LpResult::Optimal { value: halved, .. } =
            simplex_max(&a, &vec![0.5; m], &vec![1.0; n]) else { return Ok(()); };
        prop_assert!((halved - base * 0.5).abs() < 1e-7 * (1.0 + base));
    }
}

/// A random PSD gain with ‖M‖ ≤ 1: a unit rank-1 projector.
fn gain(dim: usize, coords: &[f64]) -> PsdMatrix {
    let mut v: Vec<f64> = coords.iter().take(dim).cloned().collect();
    while v.len() < dim {
        v.push(0.1);
    }
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
    for x in &mut v {
        *x /= norm;
    }
    let mut g = Mat::zeros(dim, dim);
    g.rank1_update(1.0, &v); // unit projector: eigenvalues {1, 0…}
    PsdMatrix::Dense(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2.1 against random rank-1 adversaries.
    #[test]
    fn regret_bound_random_adversary(
        dim in 2usize..5,
        eps0 in 0.05_f64..0.5,
        seeds in proptest::collection::vec(proptest::collection::vec(-1.0_f64..1.0, 5), 10..40),
    ) {
        let mut game = MmwGame::new(dim, eps0);
        for s in &seeds {
            game.play(&gain(dim, s), 1.0).unwrap();
        }
        let (lhs, rhs) = game.regret_bound_sides().unwrap();
        prop_assert!(lhs >= rhs - 1e-8, "regret violated: {lhs} < {rhs}");
    }

    /// Diagonal gains: the matrix game is Hedge. Its probability matrix is
    /// diagonal, with the softmax `exp(ε₀·Σg) / Z` on the diagonal.
    #[test]
    fn matrix_game_specializes_to_hedge(
        n in 2usize..5,
        rounds in proptest::collection::vec(proptest::collection::vec(0.0_f64..1.0, 5), 3..12),
    ) {
        let eps0 = 0.4;
        let mut g = MmwGame::new(n, eps0);
        let mut gain_sum = vec![0.0_f64; n];
        for r in &rounds {
            let weights: Vec<f64> = gain_sum.iter().map(|s| (eps0 * s).exp()).collect();
            let z: f64 = weights.iter().sum();
            let p = g.probability_matrix().unwrap();
            for i in 0..n {
                prop_assert!((weights[i] / z - p[(i, i)]).abs() < 1e-8);
                for j in 0..n {
                    if i != j {
                        prop_assert!(p[(i, j)].abs() < 1e-10, "off-diagonal leakage");
                    }
                }
            }
            let gains = &r[..n];
            g.play(&PsdMatrix::Diagonal(gains.to_vec()), 1.0).unwrap();
            for (s, x) in gain_sum.iter_mut().zip(gains) {
                *s += x;
            }
        }
    }
}
