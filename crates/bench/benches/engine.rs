//! Engine throughput benches: events/second through the event queue under
//! timers, packets/second through the single-link replay loop,
//! events/second through the multi-hop simulator and through its
//! cross-traffic generator alone, and packet-hops/second through the
//! coupled mesh as its open-loop flows multiply.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdd::netsim::mesh::{FlowModel, MeshConfig, MeshFlow};
use pdd::netsim::{LinkSpec, Session as NetSession, StudyBConfig};
use pdd::qsim::{Experiment, Session};
use pdd::sched::{SchedulerKind, Sdp};
use pdd::simcore::{Context, Dur, Model, Simulation, Time};

/// Timers beside near-future traffic: `SOURCES` events that each rearm a
/// few ticks ahead — the heap's business — and 1 000 timers that rearm at
/// one constant, far delay, so that their pushes come in key order and
/// wait in the event queue's tail lane instead of under the sources' feet.
/// With 96 sources (the `mesh-coupled` shape: a `TxDone` per link, a
/// thousand probes' second emissions) the timers are most of what a heap
/// would hold; with 4 096 they are a fifth of it, and what the bench reads
/// is the lane's extra compare per push and pop.
fn bench_simcore_fixed_delay_timers(c: &mut Criterion) {
    const TIMERS: u64 = 1_000;
    const TIMER_DELAY: u64 = 500_000;
    const EVENTS: u64 = 1_000_000;
    enum Ev {
        Source(u32),
        Timer,
    }
    struct Timers;
    impl Model for Timers {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Context<Ev>) {
            match ev {
                Ev::Source(i) => {
                    let gap = 1 + u64::from(i) * 37 % 1_000;
                    ctx.schedule_in(Dur::from_ticks(gap), Ev::Source(i));
                }
                Ev::Timer => ctx.schedule_in(Dur::from_ticks(TIMER_DELAY), Ev::Timer),
            }
        }
    }
    for sources in [96u32, 4_096] {
        let mut group = c.benchmark_group("simcore");
        group.throughput(Throughput::Elements(EVENTS));
        group.bench_function(&format!("fixed_delay_timers/{sources}"), |b| {
            b.iter(|| {
                let mut sim = Simulation::new(Timers);
                for i in 0..sources {
                    sim.schedule(Time::from_ticks(u64::from(i)), Ev::Source(i));
                }
                for j in 0..TIMERS {
                    sim.schedule(Time::from_ticks(j * TIMER_DELAY / TIMERS), Ev::Timer);
                }
                sim.run_for_events(EVENTS);
                sim.now()
            });
        });
        group.finish();
    }
}

fn bench_qsim_throughput(c: &mut Criterion) {
    let e = Experiment::paper(0.95, Sdp::paper_default(), 10_000, vec![1]);
    let trace = e.trace_for_seed(1);
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("qsim_replay_packets", |b| {
        b.iter(|| {
            let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
            let mut n = 0u64;
            Session::trace(&trace, 1.0).run(s.as_mut(), |_| n += 1);
            n
        });
    });
    group.finish();
}

fn bench_netsim_throughput(c: &mut Criterion) {
    c.bench_function("netsim_4hop_second_of_traffic", |b| {
        b.iter(|| {
            let mut cfg = StudyBConfig::paper(4, 0.95, 10, 200.0);
            cfg.experiments = 1;
            cfg.warmup_secs = 1.0;
            NetSession::study_b(&cfg).run()
        });
    });
}

/// Eight 1 Gb/s WTP links at ρ = 0.55, the load cut into `flows`
/// single-link Pareto flows (round-robin over links and classes) that emit
/// about 200 000 packets of 500 bytes between them, whatever `flows` is.
fn open_loop_mesh(flows: usize) -> MeshConfig {
    const LINKS: usize = 8;
    const PACKETS: f64 = 200_000.0;
    let link = LinkSpec::new(1e9, SchedulerKind::Wtp);
    // Ticks (ns) between a link's packets, then between one flow's.
    let link_gap = 500.0 / (0.55 * link.bytes_per_tick());
    let mean_gap_ticks = link_gap * (flows / LINKS) as f64;
    let flows = (0..flows)
        .map(|i| MeshFlow {
            route: vec![i % LINKS],
            class: (i / LINKS % 4) as u8,
            packet_bytes: 500,
            model: FlowModel::Pareto {
                mean_gap_ticks,
                until_ticks: (PACKETS / LINKS as f64 * link_gap) as u64,
            },
            start_ticks: 1,
        })
        .collect();
    MeshConfig {
        sdp: Sdp::paper_default(),
        links: vec![link; LINKS],
        flows,
        seed: 1,
    }
}

/// Per-hop cost against the number of open-loop flows at a fixed packet
/// budget: 32, 256 (Study B lowered onto the mesh: 64 sources × 4
/// classes) and 3 072 (the k = 4 fat-tree of the repo benchmark). Their
/// emissions wait in the emission lane, not in the event heap, so the
/// cost should be flat.
fn bench_mesh_open_loop_flows(c: &mut Criterion) {
    for flows in [32usize, 256, 3_072] {
        let cfg = open_loop_mesh(flows);
        let hops: u64 = NetSession::mesh(&cfg).run().link_departures.iter().sum();
        let mut group = c.benchmark_group("mesh");
        group.throughput(Throughput::Elements(hops));
        group.bench_function(&format!("open_loop_flows/{flows}"), |b| {
            b.iter(|| NetSession::mesh(&cfg).run().link_departures);
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simcore_fixed_delay_timers, bench_qsim_throughput, bench_netsim_throughput,
        bench_mesh_open_loop_flows
}
criterion_main!(benches);
