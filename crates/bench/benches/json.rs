//! The JSON codec on the farm parent's inputs: the reply line a worker
//! sends for the largest Bench-scale shard (`table1-k8-u0_95-f10-r200`,
//! a 16 KB `propdiff-metrics-v1` snapshot carried as an escaped string),
//! and that snapshot's trip through `MetricsRegistry`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use experiments::{cell, Scale};
use pdd::telemetry::json::Json;
use pdd::telemetry::MetricsRegistry;

/// The shard's result and its registry snapshot.
fn table1_shard() -> (Json, String) {
    let cells = cell::suite_cells("table1").expect("the table1 suite exists");
    let cell = cells
        .iter()
        .find(|c| c.id() == "table1-k8-u0_95-f10-r200")
        .expect("the K = 8 cell exists");
    let (partial, snapshot) = cell.execute_shard(Scale::Bench, 0);
    (partial, snapshot.expect("table1 cells are metered"))
}

fn bench_json(c: &mut Criterion) {
    let (partial, snapshot) = table1_shard();
    // `orchestrator::protocol::Reply::Ok`'s wire shape.
    let line = Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("cell", Json::Int(110)),
        ("shard", Json::Int(0)),
        ("partial", partial),
        ("registry", Json::Str(snapshot.clone())),
    ])
    .serialize();
    let registry = MetricsRegistry::from_json(&snapshot).expect("own snapshot parses");

    let mut group = c.benchmark_group("json");
    group.throughput(Throughput::Bytes(line.len() as u64));
    group.bench_function("parse_reply_line", |b| {
        b.iter(|| Json::parse(black_box(&line)).expect("parses"))
    });
    group.throughput(Throughput::Bytes(snapshot.len() as u64));
    group.bench_function("registry_from_json", |b| {
        b.iter(|| MetricsRegistry::from_json(black_box(&snapshot)).expect("parses"))
    });
    group.bench_function("registry_round_trip", |b| {
        b.iter(|| MetricsRegistry::from_json(&black_box(&registry).to_json()).expect("parses"))
    });
    group.finish();
}

criterion_group!(benches, bench_json);
criterion_main!(benches);
