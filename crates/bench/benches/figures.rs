//! Regeneration benches for the single-link figures: each bench runs the
//! full pipeline (traffic generation → scheduling → statistics) of one
//! representative cell of the corresponding figure, at bench scale — the
//! cells the repo benchmark's ladder times.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::{ablations, fig1, fig2, fig3, fig45, Scale};
use pdd::sched::SchedulerKind;

fn bench_fig1(c: &mut Criterion) {
    c.bench_function("fig1_cell_s2_u095", |b| {
        b.iter(|| fig1::cell(2.0, 0.95, Scale::Bench))
    });
}

fn bench_fig2(c: &mut Criterion) {
    c.bench_function("fig2_cell_s2_skewed_split", |b| {
        b.iter(|| fig2::cell(2.0, 3, Scale::Bench))
    });
}

fn bench_fig3(c: &mut Criterion) {
    let wtp = &fig3::cells()[0];
    c.bench_function("fig3_cell_wtp_tau_ladder", |b| {
        b.iter(|| wtp.execute(Scale::Bench))
    });
}

fn bench_fig45(c: &mut Criterion) {
    c.bench_function("fig45_cell_bpr_microscopic_views", |b| {
        b.iter(|| fig45::cell(SchedulerKind::Bpr, Scale::Bench))
    });
}

fn bench_ablation_schedulers(c: &mut Criterion) {
    let shootout = &ablations::shootout_cells()[0];
    c.bench_function("ablation_scheduler_shootout", |b| {
        b.iter(|| shootout.execute(Scale::Bench))
    });
}

fn bench_ablation_feasibility(c: &mut Criterion) {
    c.bench_function("ablation_feasibility_cell_u095_s2", |b| {
        b.iter(|| ablations::feasibility_cell(0.95, 2.0, Scale::Bench))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig1, bench_fig2, bench_fig3, bench_fig45,
              bench_ablation_schedulers, bench_ablation_feasibility
}
criterion_main!(benches);
