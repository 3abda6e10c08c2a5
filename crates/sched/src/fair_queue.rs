//! The fair-queueing core — WFQ, WF²Q+ and SCFQ, the §2.1 *capacity
//! differentiation* baselines, as one tagged class-queue scheduler.
//!
//! All three emulate a fluid server that shares the link among the
//! backlogged classes in proportion to static weights (the SDPs). Each
//! packet is stamped at arrival with a start tag `S = max(V, F_last)` and
//! a finish tag `F = S + L/w_i` against a virtual clock `V`, and the head
//! with the smallest finish tag is served first — the tag-at-enqueue,
//! smallest-first abstraction of *Programmable Packet Scheduling*
//! (Sivaraman et al.). As the paper argues, this gives controllable
//! *bandwidth* differentiation but load-dependent *delay* differentiation —
//! the defect the proportional model repairs.
//!
//! The three disciplines differ only in how `V` moves:
//!
//! * **WFQ** tracks GPS: `V` advances at `R / Σ_{i∈B} w_i` between
//!   scheduler interactions (the standard practical approximation; exact
//!   GPS tracking would need iterated deletion).
//! * **WF²Q+** serves only *eligible* heads, whose GPS service would have
//!   started (`S ≤ V`), so a high-weight class cannot run ahead of its
//!   fluid schedule; a packet queued behind another starts at that
//!   packet's finish tag, and `V = max(V + L/Σw, min head S)` keeps `V`
//!   inside the busy period's start-tag span with O(1) work. Even the
//!   fairest capacity differentiation cannot control delay ratios.
//! * **SCFQ** self-clocks: `V` is the finish tag of the packet last
//!   selected for service, trading some fairness bound for O(1) upkeep.
//!
//! Every `f64` operation keeps the operand order of the three
//! hand-written schedulers this type replaced; their departures are
//! pinned in `crates/qsim/tests/golden.rs`.

use std::collections::VecDeque;

use simcore::Time;

use crate::class::Sdp;
use crate::packet::Packet;
use crate::scheduler::{ClassQueues, Scheduler};

/// How the virtual clock moves — everything that differs between the
/// three disciplines.
#[derive(Debug, Clone)]
enum Clock {
    /// WFQ: GPS virtual time on a link of `rate` bytes/tick, last
    /// advanced at real time `at`.
    Gps { rate: f64, at: Time },
    /// WF²Q+: eligible heads only, and `V += L/Σw` per service, summed
    /// over every class.
    WorstCase { weight_sum: f64 },
    /// SCFQ: `V` is the finish tag of the packet last served.
    SelfClocked,
}

/// Weighted fair queueing over per-class FIFOs with the SDPs as class
/// weights: WFQ, WF²Q+ or SCFQ, by its virtual clock.
///
/// ```
/// use sched::{FairQueue, Packet, Scheduler, Sdp};
/// use simcore::Time;
///
/// // Class 1 weighs three times class 0: its 100-byte packet finishes
/// // first in the fluid system, so it is served first.
/// let mut wfq = FairQueue::wfq(Sdp::new(&[1.0, 3.0]).unwrap(), 1.0);
/// wfq.enqueue(Packet::new(0, 0, 100, Time::ZERO));
/// wfq.enqueue(Packet::new(1, 1, 100, Time::ZERO));
/// assert_eq!(wfq.dequeue(Time::ZERO).unwrap().class, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FairQueue {
    weights: Sdp,
    queues: ClassQueues,
    /// `(start, finish)` tags of each class's queued packets, in queue
    /// order.
    tags: Vec<VecDeque<(f64, f64)>>,
    /// Finish tag of each class's most recently enqueued packet.
    last_finish: Vec<f64>,
    vtime: f64,
    clock: Clock,
}

impl FairQueue {
    /// Weighted Fair Queueing on a link of `link_rate` bytes/tick.
    ///
    /// # Panics
    /// Panics if `link_rate` is not positive and finite.
    pub fn wfq(weights: Sdp, link_rate: f64) -> Self {
        assert!(
            link_rate > 0.0 && link_rate.is_finite(),
            "link_rate must be positive"
        );
        Self::new(
            weights,
            Clock::Gps {
                rate: link_rate,
                at: Time::ZERO,
            },
        )
    }

    /// Worst-case Fair Weighted Fair Queueing (WF²Q+).
    pub fn wf2q(weights: Sdp) -> Self {
        let weight_sum = weights.values().iter().sum();
        Self::new(weights, Clock::WorstCase { weight_sum })
    }

    /// Self-Clocked Fair Queueing.
    pub fn scfq(weights: Sdp) -> Self {
        Self::new(weights, Clock::SelfClocked)
    }

    fn new(weights: Sdp, clock: Clock) -> Self {
        let n = weights.num_classes();
        FairQueue {
            weights,
            queues: ClassQueues::new(n),
            tags: vec![VecDeque::new(); n],
            last_finish: vec![0.0; n],
            vtime: 0.0,
            clock,
        }
    }

    /// Advances WFQ's GPS clock to real time `now`, at the rate in force
    /// over the classes backlogged since the last event.
    fn advance(&mut self, now: Time) {
        if let Clock::Gps { rate, at } = &mut self.clock {
            let dt = now.saturating_since(*at).as_f64();
            if dt > 0.0 {
                let w: f64 = self.queues.backlogged().map(|c| self.weights.get(c)).sum();
                if w > 0.0 {
                    self.vtime += dt * *rate / w;
                }
            }
            *at = now;
        }
    }
}

impl Scheduler for FairQueue {
    fn num_classes(&self) -> usize {
        self.queues.num_classes()
    }

    fn enqueue(&mut self, pkt: Packet) {
        let c = pkt.class as usize;
        assert!(c < self.tags.len(), "class {c} out of range");
        if self.queues.is_empty() {
            // A new busy period: the fluid system starts afresh.
            self.vtime = 0.0;
            self.last_finish.fill(0.0);
        }
        self.advance(pkt.arrival);
        let start = match self.clock {
            Clock::WorstCase { .. } if self.queues.len(c) > 0 => self.last_finish[c],
            _ => self.vtime.max(self.last_finish[c]),
        };
        let finish = start + pkt.size as f64 / self.weights.get(c);
        self.last_finish[c] = finish;
        self.tags[c].push_back((start, finish));
        self.queues.push(pkt);
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        if self.queues.is_empty() {
            return None;
        }
        self.advance(now);
        // Heads starting after `eligible` wait (WF²Q+ only): `V` first
        // jumps to the smallest head start tag, so one head is eligible.
        let eligible = match self.clock {
            Clock::WorstCase { .. } => {
                let min_start = self
                    .queues
                    .backlogged()
                    .map(|c| self.tags[c][0].0)
                    .fold(f64::INFINITY, f64::min);
                self.vtime = self.vtime.max(min_start);
                self.vtime + 1e-9
            }
            _ => f64::INFINITY,
        };
        let tags = &self.tags;
        let c = self.queues.select_by(|c, _| match tags[c][0] {
            (start, _) if start > eligible => f64::NEG_INFINITY,
            (_, finish) => -finish,
        })?;
        let (_, finish) = self.tags[c].pop_front()?;
        let pkt = self.queues.pop(c)?;
        match self.clock {
            Clock::Gps { .. } => {}
            Clock::WorstCase { weight_sum } => self.vtime += pkt.size as f64 / weight_sum,
            Clock::SelfClocked => self.vtime = finish,
        }
        Some(pkt)
    }

    fn backlog_packets(&self, class: usize) -> usize {
        self.queues.len(class)
    }

    fn backlog_bytes(&self, class: usize) -> u64 {
        self.queues.bytes(class)
    }

    fn total_backlog_packets(&self) -> usize {
        self.queues.total_packets()
    }

    fn total_backlog_bytes(&self) -> u64 {
        self.queues.total_bytes()
    }

    fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    fn drop_newest(&mut self, class: usize) -> Option<Packet> {
        let pkt = self.queues.pop_tail(class)?;
        // The dropped packet's start tag is the class's last finish tag,
        // or `V` where that lagged; `V` only grows within a busy period,
        // so the class's next arrival is stamped as if it never came.
        let (start, _) = self.tags[class].pop_back()?;
        self.last_finish[class] = start;
        Some(pkt)
    }

    fn name(&self) -> &'static str {
        match self.clock {
            Clock::Gps { .. } => "WFQ",
            Clock::WorstCase { .. } => "WF2Q+",
            Clock::SelfClocked => "SCFQ",
        }
    }

    fn set_link_rate(&mut self, rate: f64) {
        if let Clock::Gps { rate: r, .. } = &mut self.clock {
            assert!(
                rate > 0.0 && rate.is_finite(),
                "link_rate must be positive, got {rate}"
            );
            // Assigned tags keep their virtual timestamps; only the rate
            // at which the virtual clock advances changes.
            *r = rate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Dur;

    fn pkt(seq: u64, class: u8, size: u32, at: u64) -> Packet {
        Packet::new(seq, class, size, Time::from_ticks(at))
    }

    /// One of each discipline on `weights`, WFQ at unit link rate.
    fn every_clock(weights: &[f64]) -> [FairQueue; 3] {
        let sdp = Sdp::new(weights).unwrap();
        [
            FairQueue::wfq(sdp.clone(), 1.0),
            FairQueue::wf2q(sdp.clone()),
            FairQueue::scfq(sdp),
        ]
    }

    #[test]
    #[cfg_attr(
        feature = "mutate-pifo-rank",
        ignore = "tie rule deliberately flipped by the mutation feature"
    )]
    fn wfq_equal_weights_approximate_round_robin() {
        let mut s = FairQueue::wfq(Sdp::new(&[1.0, 1.0]).unwrap(), 1.0);
        for i in 0..6 {
            s.enqueue(pkt(i, (i % 2) as u8, 100, 0));
        }
        let mut classes = Vec::new();
        let mut now = Time::ZERO;
        while let Some(p) = s.dequeue(now) {
            classes.push(p.class);
            now += Dur::from_ticks(100);
        }
        // Perfect alternation with equal weights and equal sizes.
        assert_eq!(classes, vec![1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn weight_3_to_1_bandwidth_split() {
        // Saturate both queues; class 1 (weight 3) should get ~3/4 of the
        // departures over a long busy period.
        for mut s in every_clock(&[1.0, 3.0]) {
            for i in 0..400 {
                s.enqueue(pkt(2 * i, 0, 100, 0));
                s.enqueue(pkt(2 * i + 1, 1, 100, 0));
            }
            let mut now = Time::ZERO;
            let mut high = 0;
            for _ in 0..200 {
                if s.dequeue(now).unwrap().class == 1 {
                    high += 1;
                }
                now += Dur::from_ticks(100);
            }
            assert!((140..=160).contains(&high), "{}: {high}/200", s.name());
        }
    }

    #[test]
    fn fifo_within_class() {
        for mut s in every_clock(&[1.0, 2.0]) {
            s.enqueue(pkt(1, 1, 300, 0));
            s.enqueue(pkt(2, 1, 40, 5));
            s.enqueue(pkt(3, 1, 100, 5));
            let seqs: Vec<u64> = (0..3)
                .map(|k| s.dequeue(Time::from_ticks(10 + 100 * k)).unwrap().seq)
                .collect();
            assert_eq!(seqs, [1, 2, 3], "{}", s.name());
        }
    }

    #[test]
    fn idle_reset_prevents_stale_tags() {
        for mut s in every_clock(&[1.0, 2.0]) {
            s.enqueue(pkt(1, 0, 100, 0));
            assert!(s.dequeue(Time::ZERO).is_some());
            assert!(s.dequeue(Time::from_ticks(100)).is_none());
            // Long idle gap; the new busy period must not inherit the old
            // virtual time: the tags restart from zero.
            s.enqueue(pkt(2, 1, 100, 1_000_000));
            s.enqueue(pkt(3, 0, 100, 1_000_000));
            assert_eq!(s.tags[1][0], (0.0, 50.0), "{}", s.name());
            // Class 1 (higher weight => smaller finish) goes first.
            let first = s.dequeue(Time::from_ticks(1_000_000)).unwrap();
            assert_eq!(first.class, 1, "{}", s.name());
        }
    }

    #[test]
    fn empty_dequeue_is_none() {
        for mut s in every_clock(&[1.0, 2.0, 4.0, 8.0]) {
            assert!(s.dequeue(Time::ZERO).is_none());
        }
    }

    #[test]
    fn wf2q_eligibility_holds_back_future_start_tags() {
        // Class 1 (weight 10) floods; its later packets' start tags exceed
        // V, so class 0 is not starved while class 1 runs ahead.
        let mut s = FairQueue::wf2q(Sdp::new(&[1.0, 10.0]).unwrap());
        for i in 0..10 {
            s.enqueue(pkt(i, 1, 100, 0));
        }
        s.enqueue(pkt(100, 0, 100, 0));
        // Serve 11 packets; class 0's single packet must appear within the
        // first weight-proportional window (11 services · 1/11 share ≥ 1).
        let order: Vec<u8> = (0..11)
            .map(|_| s.dequeue(Time::ZERO).unwrap().class)
            .collect();
        assert!(order.contains(&0), "class 0 starved: {order:?}");
        assert!(s.is_empty());
    }

    #[test]
    fn drop_newest_restores_the_class_tags() {
        for mut s in every_clock(&[1.0, 2.0]) {
            s.enqueue(pkt(1, 0, 100, 0));
            s.enqueue(pkt(2, 0, 100, 0));
            assert_eq!(s.drop_newest(0).unwrap().seq, 2);
            assert_eq!(s.backlog_packets(0), 1);
            assert_eq!(s.last_finish[0], 100.0, "{}", s.name());
            assert_eq!(s.dequeue(Time::ZERO).unwrap().seq, 1);
            assert!(s.is_empty());
        }
    }

    #[test]
    #[cfg_attr(
        feature = "mutate-pifo-rank",
        ignore = "tie rule deliberately flipped by the mutation feature"
    )]
    fn scfq_late_arrival_tags_off_current_service() {
        let mut s = FairQueue::scfq(Sdp::new(&[1.0, 1.0]).unwrap());
        s.enqueue(pkt(1, 0, 100, 0));
        assert_eq!(s.dequeue(Time::ZERO).unwrap().seq, 1); // vtime = 100
                                                           // Arrives while "in service": start tag is vtime (100), not 0.
        s.enqueue(pkt(2, 1, 100, 50));
        s.enqueue(pkt(3, 0, 100, 50));
        // Tags: class1 = 200, class0 = 200; tie → higher class first.
        assert_eq!(s.dequeue(Time::from_ticks(100)).unwrap().class, 1);
        assert_eq!(s.dequeue(Time::from_ticks(200)).unwrap().class, 0);
    }

    #[test]
    fn set_link_rate_moves_only_the_gps_clock() {
        let [mut wfq, mut wf2q, mut scfq] = every_clock(&[1.0, 1.0]);
        wfq.set_link_rate(2.0);
        assert!(matches!(wfq.clock, Clock::Gps { rate, .. } if rate == 2.0));
        // The other clocks ignore the link rate, even a nonsensical one.
        wf2q.set_link_rate(f64::NAN);
        scfq.set_link_rate(0.0);
    }
}
