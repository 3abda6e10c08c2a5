//! Arrival generation: the scalar `next_arrival` chain against the block
//! path (`ClassSource::fill`, `MergedStream`, `Trace::generate_per_source`)
//! on the Study-A ρ = 0.95 sources, at a Bench-scale cell's worth of
//! arrivals (10⁴: first blocks and the over-drawn last ones count) and at
//! a streaming 10⁶. `merged_stream/ahead` is the drain through
//! `MergedStream::ahead`: at 10⁴ it never leaves the reader's thread and
//! pays one out-of-line call and a countdown per arrival; at 10⁶ a reader
//! with nothing else to do pays for a hand-over it cannot overlap with
//! anything.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pdd::simcore::Time;
use pdd::traffic::{ClassSource, LoadPlan, MergedStream, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RHO: f64 = 0.95;
const SEED: u64 = 1;

fn sources() -> Vec<ClassSource> {
    let plan = LoadPlan::paper_study_a(RHO).expect("the paper's load plan is valid");
    plan.pareto_sources()
        .expect("the paper's sources are valid")
}

/// A horizon over which [`sources`] emit about `arrivals` packets.
fn horizon_for(arrivals: u64) -> Time {
    let per_tick: f64 = sources().iter().map(|s| 1.0 / s.mean_gap()).sum();
    Time::from_ticks((arrivals as f64 / per_tick) as u64)
}

fn bench_traffic(c: &mut Criterion) {
    for n in [10_000u64, 1_000_000] {
        let mut group = c.benchmark_group("traffic");
        group.throughput(Throughput::Elements(n));
        // One source, `n` arrivals, no horizon.
        group.bench_function(&format!("next_arrival/{n}"), |b| {
            b.iter(|| {
                let mut src = sources().swap_remove(0);
                let mut rng = StdRng::seed_from_u64(SEED);
                (0..n).fold(0u64, |k, _| k ^ src.next_arrival(&mut rng).0.ticks())
            });
        });
        group.bench_function(&format!("fill/{n}"), |b| {
            let mut block = vec![(Time::ZERO, 0u32); 64];
            b.iter(|| {
                let mut src = sources().swap_remove(0);
                let mut rng = StdRng::seed_from_u64(SEED);
                (0..n / 64).fold(0u64, |k, _| {
                    src.fill(&mut rng, &mut block);
                    k ^ black_box(&block)[63].0.ticks()
                })
            });
        });
        // All four sources up to the horizon of about `n` arrivals.
        let horizon = horizon_for(n);
        group.bench_function(&format!("merged_stream_drain/{n}"), |b| {
            b.iter(|| {
                MergedStream::per_source(sources(), SEED, horizon)
                    .fold(0u64, |k, e| k + u64::from(black_box(e).size > 0))
            });
        });
        group.bench_function(&format!("merged_stream/ahead/{n}"), |b| {
            b.iter(|| {
                MergedStream::per_source(sources(), SEED, horizon)
                    .ahead()
                    .fold(0u64, |k, e| k + u64::from(black_box(e).size > 0))
            });
        });
        group.bench_function(&format!("generate_per_source/{n}"), |b| {
            b.iter(|| Trace::generate_per_source(&mut sources(), horizon, SEED).len());
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_traffic
}
criterion_main!(benches);
