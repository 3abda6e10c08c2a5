//! Deficit Round Robin — an O(1) capacity-differentiation baseline.
//!
//! Each class gets a quantum proportional to its SDP; a round-robin ring of
//! backlogged classes accumulates deficit and transmits head packets while
//! the deficit covers them. Included as the third point on the §2.1
//! "capacity differentiation" axis (bandwidth is controllable, delay isn't).

use std::collections::VecDeque;

use simcore::Time;

use crate::class::Sdp;
use crate::packet::Packet;
use crate::scheduler::{ClassQueues, Scheduler};

/// Deficit Round Robin with SDP-proportional quanta.
#[derive(Debug, Clone)]
pub struct Drr {
    queues: ClassQueues,
    quanta: Vec<f64>,
    deficit: Vec<f64>,
    ring: VecDeque<usize>,
    in_ring: Vec<bool>,
}

impl Drr {
    /// Creates a DRR scheduler. Quanta are `base_quantum · s_i / s_0` bytes;
    /// `base_quantum` should be at least the maximum packet size to keep
    /// per-round work O(1).
    ///
    /// # Panics
    /// Panics if `base_quantum` is zero.
    pub fn new(weights: Sdp, base_quantum: u32) -> Self {
        assert!(base_quantum > 0, "base_quantum must be positive");
        let n = weights.num_classes();
        let s0 = weights.get(0);
        Drr {
            queues: ClassQueues::new(n),
            quanta: (0..n)
                .map(|i| base_quantum as f64 * weights.get(i) / s0)
                .collect(),
            deficit: vec![0.0; n],
            ring: VecDeque::new(),
            in_ring: vec![false; n],
        }
    }
}

impl Scheduler for Drr {
    fn num_classes(&self) -> usize {
        self.queues.num_classes()
    }

    fn enqueue(&mut self, pkt: Packet) {
        let c = pkt.class as usize;
        self.queues.push(pkt);
        if !self.in_ring[c] {
            self.in_ring[c] = true;
            self.deficit[c] = 0.0;
            self.ring.push_back(c);
        }
    }

    fn dequeue(&mut self, _now: Time) -> Option<Packet> {
        if self.queues.is_empty() {
            return None;
        }
        loop {
            let c = *self.ring.front().expect("nonempty backlog implies ring");
            let head_size = self
                .queues
                .head(c)
                .expect("ring holds backlogged classes")
                .size as f64;
            if self.deficit[c] >= head_size {
                self.deficit[c] -= head_size;
                let pkt = self.queues.pop(c);
                if self.queues.len(c) == 0 {
                    self.ring.pop_front();
                    self.in_ring[c] = false;
                    self.deficit[c] = 0.0;
                }
                return pkt;
            }
            // Visit over: grant the quantum and rotate.
            self.deficit[c] += self.quanta[c];
            self.ring.rotate_left(1);
        }
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
        // A class that empties leaves the ring at once, as on dequeue: a
        // pushed-out packet must not keep the class's place in the round.
        if self.queues.len(class) == 0 {
            self.ring.retain(|&c| c != class);
            self.in_ring[class] = false;
        }
        Some(pkt)
    }

    fn name(&self) -> &'static str {
        "DRR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64, class: u8, size: u32) -> Packet {
        Packet::new(seq, class, size, Time::ZERO)
    }

    #[test]
    fn equal_quanta_alternate_equal_sizes() {
        let mut s = Drr::new(Sdp::new(&[1.0, 1.0]).unwrap(), 100);
        for i in 0..6 {
            s.enqueue(pkt(i, (i % 2) as u8, 100));
        }
        let mut counts = [0usize; 2];
        for _ in 0..6 {
            counts[s.dequeue(Time::ZERO).unwrap().class as usize] += 1;
        }
        assert_eq!(counts, [3, 3]);
    }

    #[test]
    fn quanta_proportional_to_weights() {
        let mut s = Drr::new(Sdp::new(&[1.0, 3.0]).unwrap(), 1500);
        for i in 0..600 {
            s.enqueue(pkt(2 * i, 0, 100));
            s.enqueue(pkt(2 * i + 1, 1, 100));
        }
        let mut high = 0;
        for _ in 0..400 {
            if s.dequeue(Time::ZERO).unwrap().class == 1 {
                high += 1;
            }
        }
        let share = high as f64 / 400.0;
        assert!((share - 0.75).abs() < 0.08, "share {share}");
    }

    #[test]
    fn deficit_carries_for_large_packets() {
        // Quantum 100 but packet 250 bytes: needs three visits to send.
        let mut s = Drr::new(Sdp::new(&[1.0, 1.0]).unwrap(), 100);
        s.enqueue(pkt(1, 0, 250));
        s.enqueue(pkt(2, 1, 100));
        let order: Vec<u8> = (0..2)
            .map(|_| s.dequeue(Time::ZERO).unwrap().class)
            .collect();
        // Class 1's 100-byte packet fits in its first quantum; class 0 needs
        // accumulated deficit, so class 1 goes out first.
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn push_out_gives_up_the_place_in_the_ring() {
        // Class 1 joins the ring behind class 0 and is pushed out; class 2
        // then joins, and class 1 again. It is visited after class 2, as
        // if it had never been in the ring.
        let mut s = Drr::new(Sdp::new(&[1.0, 1.0, 1.0]).unwrap(), 100);
        s.enqueue(pkt(1, 0, 100));
        s.enqueue(pkt(2, 1, 100));
        assert_eq!(s.drop_newest(1).unwrap().seq, 2);
        s.enqueue(pkt(3, 2, 100));
        s.enqueue(pkt(4, 1, 100));
        let order: Vec<u64> = (0..3).map(|_| s.dequeue(Time::ZERO).unwrap().seq).collect();
        assert_eq!(order, vec![1, 3, 4]);
    }

    #[test]
    fn ring_membership_resets_after_drain() {
        let mut s = Drr::new(Sdp::new(&[1.0, 1.0]).unwrap(), 100);
        s.enqueue(pkt(1, 0, 100));
        assert!(s.dequeue(Time::ZERO).is_some());
        assert!(s.dequeue(Time::ZERO).is_none());
        s.enqueue(pkt(2, 0, 100));
        assert_eq!(s.dequeue(Time::ZERO).unwrap().seq, 2);
    }
}
