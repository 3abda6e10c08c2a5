//! # pdd-bench — benchmark support
//!
//! The actual benches live in `benches/`:
//!
//! * `schedulers` — enqueue/dequeue throughput of every scheduler under a
//!   saturated 4-class workload.
//! * `figures` — one representative cell each of Fig. 1, Fig. 2, Fig. 3
//!   and Figs. 4–5 (plus two ablations) at bench scale, timing the full
//!   pipeline (traffic generation → scheduling → statistics).
//! * `table1` — one Table-1 multi-hop cell at bench scale.
//!
//! This library exposes the small shared helpers those benches use.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

use pdd::qsim::Session;
use pdd::sched::Scheduler;
use pdd::simcore::Time;
use pdd::traffic::TraceEntry;

/// Pushes `n` packets (round-robin over 4 classes, mixed sizes) through a
/// scheduler under sustained overload and returns the number of departures
/// (always `n`; returned so the optimizer cannot discard the work).
///
/// Arrivals land every 100 ticks while the mean packet takes 660 ticks to
/// transmit at link rate 1, so the backlog grows throughout the run:
/// every dequeue is a real multi-class decision at its own instant, with
/// arrivals interleaved mid-run by the service loop itself
/// ([`Session::arrivals`]) — not a single drain at one far-future `now`,
/// which lets waiting-time schedulers skip all the interesting arithmetic.
pub fn saturate(s: &mut dyn Scheduler, n: u64) -> u64 {
    const GAP: u64 = 100;
    const SIZES: [u32; 4] = [40, 550, 550, 1500];
    let arrivals = (0..n).map(|i| TraceEntry {
        at: Time::from_ticks(i * GAP),
        class: (i % 4) as u8,
        size: SIZES[(i % 4) as usize],
    });
    let mut count = 0u64;
    Session::arrivals(arrivals, 1.0).run(s, |_| count += 1);
    assert_eq!(count, n, "{}: departures", s.name());
    assert!(
        s.is_empty(),
        "{}: backlog left after the saturation run drained",
        s.name()
    );
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdd::sched::{Packet, SchedulerKind, Sdp};

    #[test]
    fn saturate_drains_everything() {
        for kind in SchedulerKind::ALL {
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            assert_eq!(saturate(s.as_mut(), 1000), 1000, "{}", kind.name());
            assert!(s.is_empty(), "{}", kind.name());
        }
    }

    #[test]
    fn saturate_decisions_span_distinct_instants() {
        // Under overload the class queues must actually build up: if every
        // packet were served the instant it arrived the bench would be
        // measuring the empty-queue fast path, not scheduling decisions.
        struct Spy {
            inner: Box<dyn pdd::sched::Scheduler>,
            max_backlog: usize,
        }
        impl pdd::sched::Scheduler for Spy {
            fn num_classes(&self) -> usize {
                self.inner.num_classes()
            }
            fn enqueue(&mut self, p: Packet) {
                self.inner.enqueue(p);
                self.max_backlog = self.max_backlog.max(self.inner.total_backlog_packets());
            }
            fn dequeue(&mut self, now: Time) -> Option<Packet> {
                self.inner.dequeue(now)
            }
            fn backlog_packets(&self, c: usize) -> usize {
                self.inner.backlog_packets(c)
            }
            fn backlog_bytes(&self, c: usize) -> u64 {
                self.inner.backlog_bytes(c)
            }
            fn name(&self) -> &'static str {
                self.inner.name()
            }
        }
        let mut spy = Spy {
            inner: SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0),
            max_backlog: 0,
        };
        assert_eq!(saturate(&mut spy, 500), 500);
        assert!(
            spy.max_backlog > 100,
            "overload never built a backlog (max {})",
            spy.max_backlog
        );
    }
}
