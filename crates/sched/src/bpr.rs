//! Backlog-Proportional Rate (BPR) — §4.1, packetized per Appendix 3.
//!
//! The fluid BPR server assigns each backlogged queue a service rate
//! proportional to `s_i · q_i(t)` (Eq. 8), normalized to the link capacity
//! (Eq. 9). The packetized approximation tracks, for each queue, a *virtual
//! service function* `v_i` — the service the head packet would have received
//! from the fluid server since it reached the head — and transmits the
//! packet with the smallest remaining virtual work `L_i − v_i`, ties to the
//! higher class.
//!
//! Two approximations are inherited from the paper: rates are held constant
//! between departures, and `v_i` accrues from when the packet reaches the
//! head of the queue in the *packet* scheduler.

use std::hint::select_unpredictable;

use simcore::Time;

use crate::class::Sdp;
use crate::packet::Packet;
use crate::scheduler::{ClassQueues, ReconfigureError, Scheduler};

/// The packetized Backlog-Proportional Rate scheduler.
#[derive(Debug, Clone)]
pub struct Bpr {
    queues: ClassQueues,
    sdp: Sdp,
    /// Link capacity in bytes/tick; used to convert elapsed time into
    /// virtual service (bytes).
    link_rate: f64,
    /// Virtual service accrued by each head packet, in bytes.
    v: Vec<f64>,
    /// Service rates (bytes/tick) computed at the last decision instant.
    rates: Vec<f64>,
    /// Time of the last decision (departure) instant.
    last_decision: Time,
}

impl Bpr {
    /// Creates a BPR scheduler with the given SDPs for a link of
    /// `link_rate` bytes per tick.
    ///
    /// # Panics
    /// Panics if `link_rate` is not positive and finite.
    pub fn new(sdp: Sdp, link_rate: f64) -> Self {
        assert!(
            link_rate > 0.0 && link_rate.is_finite(),
            "link_rate must be positive, got {link_rate}"
        );
        let n = sdp.num_classes();
        Bpr {
            queues: ClassQueues::new(n),
            sdp,
            link_rate,
            v: vec![0.0; n],
            rates: vec![0.0; n],
            last_decision: Time::ZERO,
        }
    }

    /// The configured SDPs.
    pub fn sdp(&self) -> &Sdp {
        &self.sdp
    }

    /// Recomputes per-class service rates from current backlogs
    /// (Eq. 8 + 9): `r_i = R · s_i q_i / Σ_j s_j q_j` over backlogged
    /// queues, 0 for empty queues.
    fn recompute_rates(&mut self) {
        let denom: f64 = self
            .queues
            .backlogged()
            .map(|c| self.sdp.get(c) * self.queues.bytes(c) as f64)
            .sum();
        for c in 0..self.queues.num_classes() {
            self.rates[c] = if denom > 0.0 && self.queues.len(c) > 0 {
                self.link_rate * self.sdp.get(c) * self.queues.bytes(c) as f64 / denom
            } else {
                0.0
            };
        }
    }

    /// The current virtual-service vector (for tests/diagnostics).
    pub fn virtual_service(&self) -> &[f64] {
        &self.v
    }
}

impl Scheduler for Bpr {
    fn num_classes(&self) -> usize {
        self.queues.num_classes()
    }

    fn enqueue(&mut self, pkt: Packet) {
        self.queues.push(pkt);
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        if self.queues.is_empty() {
            return None;
        }
        let elapsed = now.saturating_since(self.last_decision).as_f64();
        // One sweep over the class heads (Appendix 3): accrue each
        // backlogged head's virtual service — resetting it if the head
        // arrived after the previous decision instant — and pick
        // argmin(L_i − v_i) in the same pass, ties to the higher class.
        // Both are chosen by select, not by a branch: the winner changes
        // from one decision to the next, so a branch would mispredict.
        let (mut winner, mut best) = (usize::MAX, f64::INFINITY);
        let sweep = self.queues.heads().zip(self.v.iter_mut()).zip(&self.rates);
        for (c, ((head, v), &rate)) in sweep.enumerate() {
            let Some(head) = head else {
                *v = 0.0;
                continue;
            };
            let accrues = head.arrival <= self.last_decision;
            *v = select_unpredictable(accrues, *v + rate * elapsed, 0.0);
            let remaining = head.size as f64 - *v;
            let take = remaining <= best;
            winner = select_unpredictable(take, c, winner);
            best = select_unpredictable(take, remaining, best);
        }
        if winner == usize::MAX {
            return None;
        }
        let pkt = self.queues.pop(winner);
        // The departing head's successor starts with zero virtual service.
        self.v[winner] = 0.0;
        self.recompute_rates();
        self.last_decision = now;
        pkt
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
        // Rates stay as the last decision left them, as they do for an
        // arrival. If the dropped packet was the head, the stale v resets
        // when a fresh head arrives (its arrival postdates the last
        // decision instant).
        self.queues.pop_tail(class)
    }

    fn name(&self) -> &'static str {
        "BPR"
    }

    fn decision_values(&self, now: Time, out: &mut Vec<(usize, f64)>) {
        // Read-only replica of the dequeue sweep: what each backlogged
        // head's remaining virtual work L_i − v_i(t) *would* be at `now`,
        // without committing the accrual.
        let elapsed = now.saturating_since(self.last_decision).as_f64();
        for (c, (head, &v)) in self.queues.heads().zip(&self.v).enumerate() {
            let Some(head) = head else { continue };
            let accrued = if head.arrival <= self.last_decision {
                v + self.rates[c] * elapsed
            } else {
                0.0
            };
            out.push((c, head.size as f64 - accrued));
        }
    }

    fn reconfigure(&mut self, sdp: &Sdp) -> Result<(), ReconfigureError> {
        if sdp.num_classes() != self.queues.num_classes() {
            return Err(ReconfigureError::ClassCountMismatch {
                have: self.queues.num_classes(),
                want: sdp.num_classes(),
            });
        }
        self.sdp = sdp.clone();
        // The fluid rates (Eq. 8 + 9) depend on the SDPs; refresh them so
        // virtual service accrues at the new shares from this instant on.
        // Already-accrued virtual service is kept — it is service the heads
        // genuinely received.
        self.recompute_rates();
        Ok(())
    }

    fn set_link_rate(&mut self, rate: f64) {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "link_rate must be positive, got {rate}"
        );
        self.link_rate = rate;
        self.recompute_rates();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pkt(seq: u64, class: u8, size: u32, at: u64) -> Packet {
        Packet::new(seq, class, size, Time::from_ticks(at))
    }

    /// `Bpr::dequeue` as it was before its sweep chose by
    /// `select_unpredictable`, kept line for line: the oracle the
    /// equivalence property diffs the rewrite against.
    fn dequeue_branchy(s: &mut Bpr, now: Time) -> Option<Packet> {
        if s.queues.is_empty() {
            return None;
        }
        let elapsed = now.saturating_since(s.last_decision).as_f64();
        let mut winner = None;
        let mut best = f64::INFINITY;
        let sweep = s.queues.heads().zip(s.v.iter_mut()).zip(&s.rates);
        for (c, ((head, v), &rate)) in sweep.enumerate() {
            let Some(head) = head else {
                *v = 0.0;
                continue;
            };
            if head.arrival <= s.last_decision {
                *v += rate * elapsed;
            } else {
                *v = 0.0;
            }
            let remaining = head.size as f64 - *v;
            if remaining <= best {
                best = remaining;
                winner = Some(c);
            }
        }
        let winner = winner?;
        let pkt = s.queues.pop(winner);
        s.v[winner] = 0.0;
        s.recompute_rates();
        s.last_decision = now;
        pkt
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `Bpr` and a twin swept by the branchy oracle, driven through
        /// one random sequence of enqueues (before and after decision
        /// instants), dequeues and push-out drops, serve the same packet
        /// every time and hold the same virtual service to the bit.
        #[test]
        fn prop_equivalence_bpr_matches_the_branchy_sweep(
            ops in prop::collection::vec((0u8..5, 0u8..4, 0u8..3, 0u64..500), 1..300),
            link in 0u8..3,
        ) {
            let link_rate = [1.0, 0.5, 3.0][link as usize];
            let mut s = Bpr::new(Sdp::paper_default(), link_rate);
            let mut twin = s.clone();
            let bits = |s: &Bpr| s.virtual_service().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut now = 0u64;
            for (seq, &(op, class, size, dt)) in ops.iter().enumerate() {
                // A fifth of the steps take no time, so arrivals land on
                // decision instants (the accrual's boundary case).
                now += dt.saturating_sub(100);
                match op {
                    0..=2 => {
                        let size = [40, 550, 1500][size as usize];
                        s.enqueue(pkt(seq as u64, class, size, now));
                        twin.enqueue(pkt(seq as u64, class, size, now));
                    }
                    3 => {
                        let at = Time::from_ticks(now);
                        prop_assert_eq!(s.dequeue(at), dequeue_branchy(&mut twin, at), "{:?}", ops);
                    }
                    // A dropped head leaves its class's virtual service
                    // stale until a fresh head resets it.
                    _ => {
                        let class = class as usize;
                        prop_assert_eq!(s.drop_newest(class), twin.drop_newest(class), "{:?}", ops);
                    }
                }
                prop_assert_eq!(bits(&s), bits(&twin), "{:?}", ops);
            }
            // Drain what is left, one 550-byte transmission apart.
            while !s.is_empty() {
                now += 550;
                let at = Time::from_ticks(now);
                prop_assert_eq!(s.dequeue(at), dequeue_branchy(&mut twin, at), "{:?}", ops);
                prop_assert_eq!(bits(&s), bits(&twin), "{:?}", ops);
            }
            prop_assert!(twin.is_empty());
        }
    }

    #[test]
    fn single_class_behaves_like_fifo() {
        let mut s = Bpr::new(Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        for i in 0..5 {
            s.enqueue(pkt(i, 0, 100, i));
        }
        let mut now = Time::from_ticks(10);
        for i in 0..5 {
            let p = s.dequeue(now).unwrap();
            assert_eq!(p.seq, i);
            now += simcore::Dur::from_ticks(100);
        }
        assert!(s.is_empty());
    }

    #[test]
    fn equal_backlogs_favor_higher_sdp_rate() {
        // Two classes, same backlog, SDPs 1:3 => rates 0.25 : 0.75 of link.
        // After the first departure, the high class accrues virtual service
        // three times faster and must get the lion's share of departures.
        let mut s = Bpr::new(Sdp::new(&[1.0, 3.0]).unwrap(), 1.0);
        for i in 0..50 {
            s.enqueue(pkt(2 * i, 0, 100, 0));
            s.enqueue(pkt(2 * i + 1, 1, 100, 0));
        }
        let mut now = Time::ZERO;
        let mut first20 = Vec::new();
        for _ in 0..20 {
            let p = s.dequeue(now).unwrap();
            first20.push(p.class);
            now += simcore::Dur::from_ticks(100);
        }
        let high = first20.iter().filter(|&&c| c == 1).count();
        assert!(high >= 13, "expected high class to dominate, got {high}/20");
    }

    #[test]
    fn ties_at_start_go_to_higher_class() {
        let mut s = Bpr::new(Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        s.enqueue(pkt(1, 0, 100, 0));
        s.enqueue(pkt(2, 1, 100, 0));
        // Both v=0, both remaining 100 => higher class wins.
        assert_eq!(s.dequeue(Time::ZERO).unwrap().class, 1);
    }

    #[test]
    fn smaller_remaining_work_wins_over_class() {
        let mut s = Bpr::new(Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        s.enqueue(pkt(1, 0, 40, 0));
        s.enqueue(pkt(2, 1, 1500, 0));
        // v=0 for both; remaining 40 < 1500 even though class 1 is higher.
        assert_eq!(s.dequeue(Time::ZERO).unwrap().class, 0);
    }

    #[test]
    fn virtual_service_resets_for_fresh_arrivals() {
        let mut s = Bpr::new(Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        s.enqueue(pkt(1, 0, 100, 0));
        s.enqueue(pkt(2, 1, 100, 0));
        assert_eq!(s.dequeue(Time::ZERO).unwrap().class, 1);
        // A packet arriving *after* the last decision must start at v=0.
        s.enqueue(pkt(3, 1, 100, 50));
        let _ = s.dequeue(Time::from_ticks(100));
        // Heads that arrived post-decision were reset, not accrued.
        assert!(s.virtual_service().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn work_conserving_with_sparse_queues() {
        let mut s = Bpr::new(Sdp::paper_default(), 1.0);
        s.enqueue(pkt(1, 3, 100, 0));
        assert_eq!(s.dequeue(Time::ZERO).unwrap().seq, 1);
        assert_eq!(s.dequeue(Time::from_ticks(100)), None);
        s.enqueue(pkt(2, 0, 100, 200));
        assert_eq!(s.dequeue(Time::from_ticks(200)).unwrap().seq, 2);
    }

    #[test]
    fn decision_values_match_the_dequeue_sweep_without_mutating() {
        let mut s = Bpr::new(Sdp::new(&[1.0, 3.0]).unwrap(), 1.0);
        s.enqueue(pkt(1, 0, 100, 0));
        s.enqueue(pkt(2, 1, 100, 0));
        s.enqueue(pkt(3, 1, 50, 0));
        let _ = s.dequeue(Time::ZERO); // establish rates and last_decision
        let now = Time::from_ticks(40);
        let mut out = Vec::new();
        s.decision_values(now, &mut out);
        // The audited argmin (ties to higher class) predicts the dequeue.
        let predicted = out
            .iter()
            .rev()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        let mut again = Vec::new();
        s.decision_values(now, &mut again); // read-only: identical replay
        assert_eq!(out, again);
        assert_eq!(s.dequeue(now).unwrap().class as usize, predicted);
    }

    #[test]
    fn decision_values_reset_for_post_decision_arrivals() {
        let mut s = Bpr::new(Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        s.enqueue(pkt(1, 0, 100, 0));
        s.enqueue(pkt(2, 1, 100, 0));
        let _ = s.dequeue(Time::ZERO);
        // Fresh head arriving after the decision instant starts at v = 0:
        // its remaining work is its full size regardless of elapsed time.
        s.enqueue(pkt(3, 1, 80, 10));
        let mut out = Vec::new();
        s.decision_values(Time::from_ticks(60), &mut out);
        let high = out.iter().find(|(c, _)| *c == 1).unwrap();
        assert_eq!(high.1, 80.0);
    }

    #[test]
    fn push_out_leaves_the_rates_alone() {
        // After the tie-win at tick 0, class 0 alone holds the link: its
        // head accrues 100 bytes by tick 100 and goes before the 40-byte
        // class-3 packet that arrived at tick 50. A packet pushed out on
        // arrival must not fold that arrival into the rates early — at
        // 100 : 320 the head would accrue 24 bytes and lose.
        let run = |push_out: bool| {
            let mut s = Bpr::new(Sdp::paper_default(), 1.0);
            s.enqueue(pkt(1, 0, 100, 0));
            s.enqueue(pkt(2, 3, 100, 0));
            assert_eq!(s.dequeue(Time::ZERO).map(|p| p.seq), Some(2));
            s.enqueue(pkt(3, 3, 40, 50));
            if push_out {
                s.enqueue(pkt(4, 2, 40, 50));
                assert_eq!(s.drop_newest(2).map(|p| p.seq), Some(4));
            }
            s.dequeue(Time::from_ticks(100)).map(|p| p.seq)
        };
        assert_eq!(run(false), Some(1));
        assert_eq!(run(true), Some(1), "the push-out moved BPR's rates");
    }

    #[test]
    #[should_panic(expected = "link_rate must be positive")]
    fn rejects_bad_link_rate() {
        let _ = Bpr::new(Sdp::paper_default(), 0.0);
    }

    #[test]
    fn reconfigure_refreshes_fluid_rates_immediately() {
        // Equal 100-byte backlogs under s = [1, 1] split the link evenly;
        // after a live swap to s = [1, 3] the very next accrual window must
        // run at the 1:3 split, visible through decision_values: in 40
        // elapsed ticks the high head accrues 30 bytes, the low head 10.
        let mut s = Bpr::new(Sdp::new(&[1.0, 1.0]).unwrap(), 1.0);
        s.enqueue(pkt(1, 0, 100, 0));
        s.enqueue(pkt(2, 1, 100, 0));
        s.enqueue(pkt(3, 0, 100, 0));
        s.enqueue(pkt(4, 1, 100, 0));
        let _ = s.dequeue(Time::ZERO); // establish rates + last_decision
        s.reconfigure(&Sdp::new(&[1.0, 3.0]).unwrap()).unwrap();
        let mut out = Vec::new();
        s.decision_values(Time::from_ticks(40), &mut out);
        // Backlogs after the tie-win departure: class0 = 200 B, class1 =
        // 100 B. Shares s_i·q_i: 200 vs 300 → rates 0.4 and 0.6 bytes/tick.
        let low = out.iter().find(|(c, _)| *c == 0).unwrap().1;
        let high = out.iter().find(|(c, _)| *c == 1).unwrap().1;
        assert!((low - (100.0 - 0.4 * 40.0)).abs() < 1e-9, "low {low}");
        assert!((high - (100.0 - 0.6 * 40.0)).abs() < 1e-9, "high {high}");
    }

    #[test]
    fn set_link_rate_rescales_accrual() {
        let mut s = Bpr::new(Sdp::new(&[1.0, 1.0]).unwrap(), 1.0);
        s.enqueue(pkt(1, 0, 100, 0));
        s.enqueue(pkt(2, 1, 100, 0));
        let _ = s.dequeue(Time::ZERO);
        s.set_link_rate(2.0);
        // Single backlogged class now owns the whole doubled link.
        let mut out = Vec::new();
        s.decision_values(Time::from_ticks(10), &mut out);
        assert_eq!(out, vec![(0, 100.0 - 2.0 * 10.0)]);
    }
}
