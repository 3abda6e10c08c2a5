//! Direct calls into the two layers no workload isolates: the `simcore`
//! event queue and the `sched` disciplines.

use pdd::sched::{Packet, RankKind, Scheduler, SchedulerKind, Sdp};
use pdd::simcore::{Context, Dur, Model, Simulation, Time};

use super::{ns_per, Ctx, Layers};
use crate::spans::Tracer;
use crate::stat::median;

/// Events pushed through the bare event loop.
const EVENTS: u64 = 2_000_000;
/// Lanes of the shallow queue (a single link's worth of pending events)
/// and of the deep one (a fabric's worth).
const TICKER_LANES: u32 = 4;
const DEEP_LANES: u32 = 4096;
/// Packets pushed through each scheduler.
const PACKETS: u64 = 1_000_000;
/// Timed repetitions of each probe; the median is reported.
const REPS: usize = 3;

/// Every lane reschedules itself a lane-dependent gap later: nothing but
/// queue push, pop and dispatch.
struct Lanes;

impl Model for Lanes {
    type Event = u32;
    fn handle(&mut self, lane: u32, ctx: &mut Context<u32>) {
        ctx.schedule_in(Dur::from_ticks(1 + u64::from(lane % 7)), lane);
    }
}

fn event_loop(lanes: u32, events: u64) -> u64 {
    let mut sim = Simulation::new(Lanes);
    for lane in 0..lanes {
        sim.schedule(Time::from_ticks(u64::from(lane)), lane);
    }
    sim.run_for_events(events);
    sim.events_handled()
}

/// Pushes `n` packets (round-robin over four classes, mixed sizes)
/// through `s` under sustained overload: arrivals land every 100 ticks
/// while the mean packet takes 660 to transmit, so the backlog grows and
/// every dequeue is a real multi-class decision at its own instant. The
/// shape of `pdd_bench::saturate`, restated here because the harness may
/// call only the front doors.
fn saturate(s: &mut dyn Scheduler, n: u64) -> u64 {
    const GAP: u64 = 100;
    const SIZES: [u32; 4] = [40, 550, 550, 1500];
    let packet = |i: u64| {
        let class = (i % 4) as usize;
        Packet::new(i, class as u8, SIZES[class], Time::from_ticks(i * GAP))
    };
    let (mut next, mut free, mut served) = (0u64, Time::ZERO, 0u64);
    loop {
        if s.is_empty() {
            if next >= n {
                break;
            }
            free = free.max(Time::from_ticks(next * GAP));
            s.enqueue(packet(next));
            next += 1;
        }
        while next < n && next * GAP <= free.ticks() {
            s.enqueue(packet(next));
            next += 1;
        }
        let Some(p) = s.dequeue(free) else { break };
        free += Dur::from_ticks(u64::from(p.size));
        served += 1;
    }
    served
}

pub fn ladder(ctx: &Ctx, tracer: &mut Tracer, layers: &mut Layers) {
    let outer = tracer.begin("harness", "ladder.micro");
    let events = ctx.size.of(EVENTS);
    for (name, lanes) in [
        ("simcore.ticker_ns_per_event", TICKER_LANES),
        ("simcore.deep_ns_per_event", DEEP_LANES),
    ] {
        let ns: Vec<f64> = (0..REPS)
            .map(|_| {
                let (handled, secs) = tracer.time("simcore", "Simulation::run_for_events", || {
                    event_loop(lanes, events)
                });
                layers.check(handled == events, || {
                    format!("event loop handled {handled} of {events} events")
                });
                ns_per(secs, events)
            })
            .collect();
        layers.put(name, median(&ns));
    }

    let packets = ctx.size.of(PACKETS);
    let sdp = Sdp::paper_default();
    for (name, kind) in [
        ("sched.wtp.ns_per_packet", SchedulerKind::Wtp),
        ("sched.bpr.ns_per_packet", SchedulerKind::Bpr),
        ("sched.hpd.ns_per_packet", SchedulerKind::Hpd),
        (
            "sched.pifo-wtp.ns_per_packet",
            SchedulerKind::Pifo(RankKind::Wtp),
        ),
        ("sched.fcfs.ns_per_packet", SchedulerKind::Fcfs),
    ] {
        let ns: Vec<f64> = (0..REPS)
            .map(|_| {
                let mut scheduler = kind.build(&sdp, 1.0);
                let (served, secs) = tracer.time("sched", kind.name(), || {
                    saturate(scheduler.as_mut(), packets)
                });
                layers.check(served == packets && scheduler.is_empty(), || {
                    format!("{}: served {served} of {packets} packets", kind.name())
                });
                ns_per(secs, packets)
            })
            .collect();
        layers.put(name, median(&ns));
    }
    tracer.end(outer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_event_loop_handles_exactly_what_it_is_asked() {
        assert_eq!(event_loop(TICKER_LANES, 1000), 1000);
        assert_eq!(event_loop(DEEP_LANES, 10_000), 10_000);
    }

    #[test]
    fn saturate_drains_every_discipline() {
        for kind in [
            SchedulerKind::Fcfs,
            SchedulerKind::Wtp,
            SchedulerKind::Bpr,
            SchedulerKind::Hpd,
            SchedulerKind::Pifo(RankKind::Wtp),
        ] {
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            assert_eq!(saturate(s.as_mut(), 2000), 2000, "{}", kind.name());
            assert!(s.is_empty());
        }
    }
}
