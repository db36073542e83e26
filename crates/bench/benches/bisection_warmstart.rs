//! Cold vs warm session bisection (backs experiment E11): the same
//! certified bracket, computed with and without cross-bracket iterate
//! continuation, on representative E8-family instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psdp_core::{ApproxOptions, PackingInstance, Solver};
use psdp_workloads::{edge_packing, gnp, random_lp_diagonal};

fn instances() -> Vec<(&'static str, PackingInstance)> {
    vec![
        ("diagonal_lp", PackingInstance::new(random_lp_diagonal(8, 6, 0.6, 1)).expect("valid")),
        ("edge_packing", PackingInstance::new(edge_packing(&gnp(12, 0.4, 7))).expect("valid")),
    ]
}

fn bench_bisection(c: &mut Criterion) {
    let warm = ApproxOptions::serving(0.1);
    let cold = ApproxOptions { warm_start: false, ..warm };
    let mut g = c.benchmark_group("bisection_warmstart");
    g.sample_size(10);
    for (name, inst) in instances() {
        let solver = Solver::builder(&inst).options(warm.decision).build().expect("build");
        g.bench_with_input(BenchmarkId::new("cold", name), &inst, |b, _| {
            b.iter(|| solver.session().optimize(&cold).expect("solve"))
        });
        g.bench_with_input(BenchmarkId::new("warm", name), &inst, |b, _| {
            b.iter(|| solver.session().optimize(&warm).expect("solve"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_bisection);
criterion_main!(benches);
