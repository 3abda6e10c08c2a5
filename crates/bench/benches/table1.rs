//! Regeneration bench for Table 1: the multi-hop Study-B pipeline
//! (Figure-6 topology, WTP at every hop, user experiments + analysis).

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::{table1, Scale};

/// One representative cell (K=4, ρ=0.95, F=100, R_u=200) at bench scale —
/// the cell the repo benchmark's ladder times.
fn bench_table1_cell(c: &mut Criterion) {
    c.bench_function("table1_cell_k4_u095_f100_r200", |b| {
        b.iter(|| table1::cell_run(4, 0.95, 100, 200.0, Scale::Bench))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table1_cell
}
criterion_main!(benches);
