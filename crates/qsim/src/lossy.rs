//! Finite-buffer (lossy) single-link operation — the §7 extension.
//!
//! The paper's evaluation assumes lossless operation with large buffers and
//! ECN-regulated sources (§3) and defers coupled delay+loss differentiation
//! to future work. This module provides the first step: a shared finite
//! buffer in front of any scheduler, with either plain **tail-drop**
//! (uncontrolled loss) or the **Proportional Loss Rate** dropper, which
//! keeps per-class loss fractions ratioed to loss differentiation
//! parameters σ — the loss-side mirror of Eq. (1).
//!
//! Push-out semantics: when an arrival overflows the buffer, PLR picks the
//! class whose normalized loss fraction is furthest *below* its target and
//! removes that class's most recent packet (falling back to dropping the
//! arrival if the scheduler does not support removal). Every rejected
//! packet yields an `on_drop` record with the queued bytes at the drop
//! instant; for a push-out the victim is the *queued* packet evicted, not
//! the arrival that triggered it, and the bytes exclude it.

use sched::{PlrDropper, Scheduler};
use stats::Summary;
use telemetry::{PacketId, Probe};
use traffic::TraceEntry;

use crate::server::{Admission, Departure};

/// The drop policy for a lossy session ([`Session::lossy`](crate::Session::lossy)).
#[derive(Debug, Clone)]
pub enum LossMode {
    /// Drop the arriving packet when the buffer is full.
    TailDrop,
    /// Proportional Loss Rate push-out with the given dropper.
    Plr(PlrDropper),
}

/// Outcome of a lossy run.
#[derive(Debug, Clone)]
pub struct LossyReport {
    /// Per-class arrival counts.
    pub arrivals: Vec<u64>,
    /// Per-class dropped-packet counts.
    pub drops: Vec<u64>,
    /// Per-class waiting-delay summaries of *delivered* packets (ticks).
    pub delays: Vec<Summary>,
    /// Largest queued byte count observed (≤ the buffer limit).
    pub max_backlog_bytes: u64,
}

impl LossyReport {
    /// Loss fraction of `class` (0 if it had no arrivals).
    pub fn loss_fraction(&self, class: usize) -> f64 {
        if self.arrivals[class] == 0 {
            0.0
        } else {
            self.drops[class] as f64 / self.arrivals[class] as f64
        }
    }

    /// Ratio of loss fractions between two classes (`None` if the
    /// denominator class lost nothing).
    pub fn loss_ratio(&self, a: usize, b: usize) -> Option<f64> {
        let fb = self.loss_fraction(b);
        (fb > 0.0).then(|| self.loss_fraction(a) / fb)
    }

    /// Total packets dropped.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }
}

/// A shared buffer of `limit` queued bytes (the packet in service occupies
/// none) under a [`LossMode`], keeping the [`LossyReport`] as it admits.
pub(crate) struct Buffer {
    limit: u64,
    mode: LossMode,
    pub(crate) report: LossyReport,
}

impl Buffer {
    pub(crate) fn new(limit: u64, mode: LossMode, num_classes: usize) -> Self {
        let report = LossyReport {
            arrivals: vec![0; num_classes],
            drops: vec![0; num_classes],
            delays: vec![Summary::new(); num_classes],
            max_backlog_bytes: 0,
        };
        Buffer {
            limit,
            mode,
            report,
        }
    }
}

impl Admission for Buffer {
    const BOUNDED: bool = true;

    fn admit<S: Scheduler + ?Sized, P: Probe>(
        &mut self,
        scheduler: &mut S,
        e: &TraceEntry,
        id: PacketId,
        fault: bool,
        probe: &mut P,
    ) -> bool {
        let class = e.class as usize;
        assert!(
            u64::from(e.size) <= self.limit,
            "buffer ({} B) smaller than packet ({} B)",
            self.limit,
            e.size
        );
        self.report.arrivals[class] += 1;
        if fault {
            // Divergence (b): behind a buffer a fault drop is counted like
            // a buffer drop and reports the buffer as its limit, but the
            // PLR dropper hears of neither the arrival nor the drop.
            self.report.drops[class] += 1;
            if P::ENABLED {
                probe.on_drop(e.at, id, scheduler.total_backlog_bytes(), self.limit);
            }
            return false;
        }
        if let LossMode::Plr(d) = &mut self.mode {
            d.on_arrival(class);
        }
        // Free space by push-out (PLR) or by dropping the arrival.
        while scheduler.total_backlog_bytes() + u64::from(e.size) > self.limit {
            let evicted = match &self.mode {
                LossMode::TailDrop => None,
                LossMode::Plr(d) => {
                    let mut candidates: Vec<usize> = (0..scheduler.num_classes())
                        .filter(|&c| scheduler.backlog_packets(c) > 0)
                        .collect();
                    if !candidates.contains(&class) {
                        candidates.push(class);
                    }
                    let victim = d.preview_victim(&candidates).expect("nonempty candidates");
                    // A scheduler without push-out support evicts nothing
                    // and the arrival is dropped instead.
                    (victim != class)
                        .then(|| scheduler.drop_newest(victim))
                        .flatten()
                }
            };
            let dropped = evicted.map_or(id, |v| PacketId::single_link(v.seq, v.class, v.size));
            if let LossMode::Plr(d) = &mut self.mode {
                d.record_drop(dropped.class as usize);
            }
            self.report.drops[dropped.class as usize] += 1;
            if P::ENABLED {
                probe.on_drop(e.at, dropped, scheduler.total_backlog_bytes(), self.limit);
            }
            if evicted.is_none() {
                return false;
            }
        }
        true
    }

    fn at_decision<S: Scheduler + ?Sized>(&mut self, scheduler: &S) {
        let high = &mut self.report.max_backlog_bytes;
        *high = (*high).max(scheduler.total_backlog_bytes());
    }

    fn delivered(&mut self, d: &Departure) {
        self.report.delays[d.packet.class as usize].push(d.wait().as_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sched::{SchedulerKind, Sdp};
    use simcore::Time;
    use traffic::{ClassSource, IatDist, SizeDist, Trace, TraceEntry};

    /// Overloaded two-class trace (offered load ≈ 1.3 on a 1 B/tick link).
    fn overload_trace(seed: u64) -> Trace {
        let mut sources = vec![
            ClassSource::new(
                0,
                IatDist::paper_pareto(154.0).unwrap(),
                SizeDist::fixed(100),
            ),
            ClassSource::new(
                1,
                IatDist::paper_pareto(154.0).unwrap(),
                SizeDist::fixed(100),
            ),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        Trace::generate(&mut sources, Time::from_ticks(8_000_000), &mut rng)
    }

    #[test]
    fn plr_holds_the_loss_ratio() {
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let mode = LossMode::Plr(PlrDropper::new(&[2.0, 1.0]).unwrap());
        let r = crate::Session::trace(&overload_trace(3), 1.0)
            .lossy(4_000, mode)
            .run(s.as_mut());
        assert!(
            r.total_drops() > 1000,
            "need real overload, got {} drops",
            r.total_drops()
        );
        let ratio = r.loss_ratio(0, 1).expect("both classes lose");
        assert!((ratio - 2.0).abs() < 0.25, "loss ratio {ratio}");
    }

    #[test]
    fn tail_drop_does_not_differentiate_loss() {
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let r = crate::Session::trace(&overload_trace(3), 1.0)
            .lossy(4_000, LossMode::TailDrop)
            .run(s.as_mut());
        let ratio = r.loss_ratio(0, 1).expect("both classes lose");
        assert!(
            (ratio - 1.0).abs() < 0.35,
            "tail-drop loss ratio should be ~1, got {ratio}"
        );
    }

    #[test]
    fn buffer_limit_is_respected() {
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let r = crate::Session::trace(&overload_trace(5), 1.0)
            .lossy(2_000, LossMode::TailDrop)
            .run(s.as_mut());
        assert!(r.max_backlog_bytes <= 2_000);
        assert!(r.total_drops() > 0);
    }

    #[test]
    fn huge_buffer_reproduces_lossless_run() {
        let trace = overload_trace(7);
        let mut lossy = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let r = crate::Session::trace(&trace, 1.0)
            .lossy(u64::MAX, LossMode::TailDrop)
            .run(lossy.as_mut());
        assert_eq!(r.total_drops(), 0);
        let mut lossless = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let mut count = 0u64;
        crate::Session::trace(&trace, 1.0).run(lossless.as_mut(), |_| count += 1);
        assert_eq!(count, r.delays.iter().map(|d| d.count()).sum::<u64>());
    }

    #[test]
    fn plr_with_delay_differentiation_gives_coupled_service() {
        // The §7 goal in miniature: WTP spaces delays while PLR spaces
        // losses, on the same lossy link.
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let mode = LossMode::Plr(PlrDropper::new(&[2.0, 1.0]).unwrap());
        let r = crate::Session::trace(&overload_trace(9), 1.0)
            .lossy(6_000, mode)
            .run(s.as_mut());
        // Delays ordered by class...
        assert!(r.delays[0].mean() > r.delays[1].mean());
        // ...and losses too.
        assert!(r.loss_fraction(0) > r.loss_fraction(1));
    }

    #[test]
    fn drop_tail_admits_up_to_the_exact_byte_boundary() {
        // Five same-tick 100-byte packets against a 300-byte buffer: the
        // first three fill it to exactly the limit (the head has not yet
        // entered service when the burst is admitted), the rest drop.
        let burst: Vec<TraceEntry> = (0..5)
            .map(|_| TraceEntry {
                at: Time::ZERO,
                class: 0,
                size: 100,
            })
            .collect();
        let trace = Trace::from_entries(burst);
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let r = crate::Session::trace(&trace, 1.0)
            .lossy(300, LossMode::TailDrop)
            .run(s.as_mut());
        assert_eq!(r.drops[0], 2);
        assert_eq!(r.delays[0].count(), 3);
        assert_eq!(
            r.max_backlog_bytes, 300,
            "buffer must fill to the exact limit"
        );

        // One byte less of buffer and the third packet no longer fits.
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let trace = Trace::from_entries(
            (0..5)
                .map(|_| TraceEntry {
                    at: Time::ZERO,
                    class: 0,
                    size: 100,
                })
                .collect(),
        );
        let r = crate::Session::trace(&trace, 1.0)
            .lossy(299, LossMode::TailDrop)
            .run(s.as_mut());
        assert_eq!(r.drops[0], 3);
        assert_eq!(r.max_backlog_bytes, 200);
    }

    /// Overloaded four-class trace, uniform 100-byte packets, ρ ≈ 1.3.
    fn overload_trace_4(seed: u64) -> Trace {
        let mut sources: Vec<ClassSource> = (0..4u8)
            .map(|c| {
                ClassSource::new(
                    c,
                    IatDist::paper_pareto(308.0).unwrap(),
                    SizeDist::fixed(100),
                )
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        Trace::generate(&mut sources, Time::from_ticks(4_000_000), &mut rng)
    }

    #[test]
    fn plr_ratios_hold_across_schedulers_under_overload() {
        // The PLR dropper sits in front of the scheduler, so the σ-ratioed
        // loss fractions must emerge regardless of the service order
        // behind it (§7: loss and delay differentiation compose).
        for kind in [SchedulerKind::Fcfs, SchedulerKind::Wtp, SchedulerKind::Bpr] {
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            let mode = LossMode::Plr(PlrDropper::new(&[8.0, 4.0, 2.0, 1.0]).unwrap());
            let r = crate::Session::trace(&overload_trace_4(13), 1.0)
                .lossy(8_000, mode)
                .run(s.as_mut());
            assert!(r.total_drops() > 2_000, "{}: weak overload", kind.name());
            for c in 0..3 {
                let ratio = r
                    .loss_ratio(c, c + 1)
                    .unwrap_or_else(|| panic!("{}: class {} lost nothing", kind.name(), c + 1));
                assert!(
                    (ratio - 2.0).abs() < 0.5,
                    "{}: loss ratio {}/{} = {ratio}",
                    kind.name(),
                    c,
                    c + 1
                );
            }
        }
    }

    #[test]
    fn unbounded_buffer_is_lossless_for_every_scheduler() {
        let trace = overload_trace_4(17);
        let total = trace.entries().len() as u64;
        for kind in SchedulerKind::ALL {
            for mode in [
                LossMode::TailDrop,
                LossMode::Plr(PlrDropper::new(&[8.0, 4.0, 2.0, 1.0]).unwrap()),
            ] {
                let mut s = kind.build(&Sdp::paper_default(), 1.0);
                let r = crate::Session::trace(&trace, 1.0)
                    .lossy(u64::MAX, mode)
                    .run(s.as_mut());
                assert_eq!(
                    r.total_drops(),
                    0,
                    "{} dropped with infinite buffer",
                    kind.name()
                );
                assert_eq!(
                    r.delays.iter().map(|d| d.count()).sum::<u64>(),
                    total,
                    "{} lost packets without dropping them",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn probed_lossy_run_reports_drops_with_occupancy() {
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let mut registry = telemetry::MetricsRegistry::with_shape(1, 2);
        let r = crate::Session::trace(&overload_trace(3), 1.0)
            .probe(&mut registry)
            .lossy(4_000, LossMode::TailDrop)
            .run(s.as_mut());
        let classes: Vec<_> = (0..2).map(|c| registry.class_total(c)).collect();
        // The probe's ledger agrees with the report's, per class.
        for (c, t) in classes.iter().enumerate() {
            assert_eq!(t.arrivals, r.arrivals[c]);
            assert_eq!(t.drops, r.drops[c]);
            assert_eq!(t.departures, r.delays[c].count());
        }
        assert!(classes.iter().map(|t| t.drops).sum::<u64>() > 1000);
        // Gauges saw the buffer pressure; no single class ever exceeded it.
        assert!(classes.iter().any(|t| t.backlog_high_water > 0));
        for t in &classes {
            assert!(t.backlog_high_water as u64 <= 4_000);
        }
    }

    #[test]
    #[should_panic(expected = "buffer")]
    fn buffer_smaller_than_packet_panics() {
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        crate::Session::trace(&overload_trace(1), 1.0)
            .lossy(10, LossMode::TailDrop)
            .run(s.as_mut());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use traffic::TraceEntry;

        fn arrivals_strategy() -> impl Strategy<Value = Vec<(u64, u8, u32)>> {
            prop::collection::vec(
                (
                    0u64..50_000,
                    0u8..4,
                    prop_oneof![Just(40u32), Just(550), Just(1500)],
                ),
                1..300,
            )
            .prop_map(|mut v| {
                v.sort_by_key(|e| e.0);
                v
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Per-class packet conservation under any buffer size and both
            /// drop policies: arrivals = delivered + dropped, and the buffer
            /// bound is never exceeded.
            #[test]
            fn prop_lossy_conserves_packets(
                arrivals in arrivals_strategy(),
                buffer_kb in 2u64..64,
                plr in proptest::bool::ANY,
            ) {
                let trace = Trace::from_entries(
                    arrivals
                        .iter()
                        .map(|&(t, c, s)| TraceEntry {
                            at: Time::from_ticks(t),
                            class: c,
                            size: s,
                        })
                        .collect(),
                );
                let buffer = buffer_kb * 1024;
                for kind in [SchedulerKind::Wtp, SchedulerKind::Fcfs, SchedulerKind::Bpr] {
                    let mode = if plr {
                        LossMode::Plr(PlrDropper::new(&[4.0, 3.0, 2.0, 1.0]).unwrap())
                    } else {
                        LossMode::TailDrop
                    };
                    let mut s = kind.build(&Sdp::paper_default(), 1.0);
                    let r = crate::Session::trace(&trace, 1.0).lossy(buffer, mode).run(s.as_mut());
                    prop_assert!(r.max_backlog_bytes <= buffer);
                    let mut per_class_arrivals = [0u64; 4];
                    for &(_, c, _) in &arrivals {
                        per_class_arrivals[c as usize] += 1;
                    }
                    for (c, &expected) in per_class_arrivals.iter().enumerate() {
                        prop_assert_eq!(
                            r.arrivals[c],
                            expected,
                            "{} arrival count class {}",
                            kind.name(),
                            c
                        );
                        prop_assert_eq!(
                            r.arrivals[c],
                            r.delays[c].count() + r.drops[c],
                            "{} conservation broke for class {}",
                            kind.name(),
                            c
                        );
                    }
                    prop_assert!(s.is_empty(), "{} left a backlog", kind.name());
                }
            }
        }
    }
}
