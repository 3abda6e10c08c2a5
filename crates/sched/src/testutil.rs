//! Test-only single-server driver and shared property-test setup
//! (arrival strategies, all-scheduler construction) used by the unit and
//! property tests across this crate.

use proptest::prelude::*;
use simcore::Time;

use crate::class::Sdp;
use crate::factory::SchedulerKind;
use crate::packet::Packet;
use crate::scheduler::Scheduler;

/// Random arrival sequences: up to 200 packets over 4 classes with
/// paper-like sizes, clustered tightly enough in time that queues build
/// up.
///
/// Deliberately **unsorted** (no `prop_map`, which would block the shim's
/// shrinker): run the result through [`sorted`] before driving a
/// scheduler, so failing cases still shrink to a minimal arrival set.
pub(crate) fn arrivals_strategy() -> impl Strategy<Value = Vec<(u64, u8, u32)>> {
    prop::collection::vec(
        (
            0u64..20_000,
            0u8..4,
            prop_oneof![Just(40u32), Just(550), Just(1500)],
        ),
        1..200,
    )
}

/// Stable time-sort of an arrival sequence (the order [`drive`] expects).
pub(crate) fn sorted(mut arrivals: Vec<(u64, u8, u32)>) -> Vec<(u64, u8, u32)> {
    arrivals.sort_by_key(|e| e.0);
    arrivals
}

/// One instance of every [`SchedulerKind`] built on the paper-default SDPs
/// at unit link rate.
pub(crate) fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    let sdp = Sdp::paper_default();
    SchedulerKind::ALL
        .iter()
        .chain(SchedulerKind::PIFO_ALL.iter())
        .map(|k| k.build(&sdp, 1.0))
        .collect()
}

/// One departed packet as observed by the test driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Departure {
    pub seq: u64,
    pub class: u8,
    pub size: u32,
    pub arrival: u64,
    pub start: u64,
}

impl Departure {
    /// Queueing (waiting) delay in ticks.
    pub fn wait(&self) -> u64 {
        self.start - self.arrival
    }
}

/// Drives a scheduler over a time-sorted arrival sequence on a 1 byte/tick
/// link. Arrivals at or before a decision instant are enqueued before the
/// decision (arrival-before-departure tie rule).
pub(crate) fn drive(s: &mut dyn Scheduler, arrivals: &[(u64, u8, u32)]) -> Vec<Departure> {
    drive_with(s, arrivals, |s, now| s.dequeue(now))
}

/// [`drive`] with the decision handed to `decide`, which must dequeue from
/// the (backlogged) scheduler at the given instant — and may inspect it
/// first.
pub(crate) fn drive_with(
    s: &mut dyn Scheduler,
    arrivals: &[(u64, u8, u32)],
    mut decide: impl FnMut(&mut dyn Scheduler, Time) -> Option<Packet>,
) -> Vec<Departure> {
    debug_assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut out = Vec::with_capacity(arrivals.len());
    let mut next = 0usize;
    let mut free = 0u64;
    let mut seq = 0u64;
    loop {
        if s.is_empty() {
            if next >= arrivals.len() {
                break;
            }
            let (t, c, sz) = arrivals[next];
            next += 1;
            s.enqueue(Packet::new(seq, c, sz, Time::from_ticks(t)));
            seq += 1;
            free = free.max(t);
        }
        while next < arrivals.len() && arrivals[next].0 <= free {
            let (t, c, sz) = arrivals[next];
            next += 1;
            s.enqueue(Packet::new(seq, c, sz, Time::from_ticks(t)));
            seq += 1;
        }
        let pkt = decide(s, Time::from_ticks(free))
            .expect("work conservation: backlogged scheduler must yield a packet");
        out.push(Departure {
            seq: pkt.seq,
            class: pkt.class,
            size: pkt.size,
            arrival: pkt.arrival.ticks(),
            start: free,
        });
        free += pkt.size as u64;
    }
    out
}

/// Streaming variant of [`drive`]: identical replay loop and admission
/// semantics, but pulls arrivals lazily from an iterator (one-entry
/// lookahead) instead of a materialized slice — the shape of qsim's
/// streaming replay path, without a qsim dependency.
pub(crate) fn drive_streaming<I>(s: &mut dyn Scheduler, arrivals: I) -> Vec<Departure>
where
    I: IntoIterator<Item = (u64, u8, u32)>,
{
    let mut it = arrivals.into_iter().peekable();
    let mut out = Vec::new();
    let mut free = 0u64;
    let mut seq = 0u64;
    loop {
        if s.is_empty() {
            let Some((t, c, sz)) = it.next() else { break };
            s.enqueue(Packet::new(seq, c, sz, Time::from_ticks(t)));
            seq += 1;
            free = free.max(t);
        }
        while it.peek().is_some_and(|&(t, _, _)| t <= free) {
            let (t, c, sz) = it.next().expect("peeked");
            s.enqueue(Packet::new(seq, c, sz, Time::from_ticks(t)));
            seq += 1;
        }
        let pkt = s
            .dequeue(Time::from_ticks(free))
            .expect("work conservation: backlogged scheduler must yield a packet");
        out.push(Departure {
            seq: pkt.seq,
            class: pkt.class,
            size: pkt.size,
            arrival: pkt.arrival.ticks(),
            start: free,
        });
        free += pkt.size as u64;
    }
    out
}

/// Per-class average waiting delays over a departure record.
pub(crate) fn class_average_waits(deps: &[Departure], num_classes: usize) -> Vec<f64> {
    let mut sum = vec![0.0f64; num_classes];
    let mut cnt = vec![0u64; num_classes];
    for d in deps {
        sum[d.class as usize] += d.wait() as f64;
        cnt[d.class as usize] += 1;
    }
    (0..num_classes)
        .map(|c| {
            if cnt[c] == 0 {
                0.0
            } else {
                sum[c] / cnt[c] as f64
            }
        })
        .collect()
}
