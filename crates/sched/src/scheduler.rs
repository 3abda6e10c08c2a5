//! The scheduler trait and the shared per-class FIFO structure.

use std::collections::VecDeque;
use std::fmt;
use std::hint::select_unpredictable;

use simcore::Time;

use crate::class::Sdp;
use crate::packet::Packet;

/// Why a live [`Scheduler::reconfigure`] call was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigureError {
    /// The scheduler has no differentiation parameters to swap (FCFS,
    /// strict priority, the fair-queueing baselines, …).
    Unsupported(&'static str),
    /// The new SDP vector has a different class count than the running
    /// scheduler — queues cannot be re-mapped mid-flight.
    ClassCountMismatch {
        /// Classes the scheduler was built with.
        have: usize,
        /// Classes the new SDP vector describes.
        want: usize,
    },
}

impl fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigureError::Unsupported(name) => {
                write!(f, "{name} does not support live reconfiguration")
            }
            ReconfigureError::ClassCountMismatch { have, want } => {
                write!(f, "scheduler has {have} classes, new SDPs describe {want}")
            }
        }
    }
}

impl std::error::Error for ReconfigureError {}

/// A work-conserving, non-preemptive, class-based packet scheduler.
///
/// The owner (a link/server) calls [`enqueue`](Scheduler::enqueue) on packet
/// arrival and [`dequeue`](Scheduler::dequeue) whenever the output link goes
/// idle; `now` is the decision instant (the previous packet's departure time
/// or, after an idle period, the triggering arrival time). The returned
/// packet starts transmission immediately at `now`.
pub trait Scheduler {
    /// Number of service classes.
    fn num_classes(&self) -> usize;

    /// Accepts `pkt` into its class queue.
    ///
    /// # Panics
    /// Panics if `pkt.class` is out of range.
    fn enqueue(&mut self, pkt: Packet);

    /// Selects the next packet to transmit at decision time `now`, or
    /// `None` if all queues are empty.
    fn dequeue(&mut self, now: Time) -> Option<Packet>;

    /// Queued packets of `class` (excluding any packet in service — the
    /// scheduler never sees the one being transmitted).
    fn backlog_packets(&self, class: usize) -> usize;

    /// Queued bytes of `class`.
    fn backlog_bytes(&self, class: usize) -> u64;

    /// Total queued packets across classes. The default sums the classes;
    /// the schedulers on [`ClassQueues`] answer from its running totals,
    /// as they do for the two methods below.
    fn total_backlog_packets(&self) -> usize {
        (0..self.num_classes())
            .map(|c| self.backlog_packets(c))
            .sum()
    }

    /// Total queued bytes across classes.
    fn total_backlog_bytes(&self) -> u64 {
        (0..self.num_classes()).map(|c| self.backlog_bytes(c)).sum()
    }

    /// True if no packet is queued.
    fn is_empty(&self) -> bool {
        self.total_backlog_packets() == 0
    }

    /// Short static name for reports ("WTP", "BPR", …).
    fn name(&self) -> &'static str;

    /// Removes and returns the most recently enqueued packet of `class`,
    /// for push-out droppers in finite-buffer (lossy) operation.
    ///
    /// Returns `None` if the class is empty **or** the scheduler does not
    /// support removal (the default); droppers must then fall back to
    /// dropping the arriving packet.
    fn drop_newest(&mut self, _class: usize) -> Option<Packet> {
        None
    }

    /// Appends this scheduler's internal decision record at decision
    /// instant `now` to `out`, one `(class, value)` pair per backlogged
    /// class in class order. Read-only: must not change what a subsequent
    /// [`dequeue`](Scheduler::dequeue) at the same `now` returns.
    ///
    /// The value's meaning is per scheduler — the rank core reports each
    /// head's rank (for WTP the normalized head-of-line priority
    /// `w_i(t)·s_i`), BPR the head's remaining virtual work
    /// `L_i − v_i(t)`. Schedulers without an audit hook append nothing
    /// (the default), which telemetry renders as an empty record.
    ///
    /// `out` is caller-owned scratch so instrumented replay loops can reuse
    /// one allocation across every decision; implementations append without
    /// clearing.
    fn decision_values(&self, _now: Time, _out: &mut Vec<(usize, f64)>) {}

    /// Swaps the differentiation parameters **mid-run**, without draining
    /// the queues: packets already backlogged stay where they are and the
    /// very next decision uses the new SDPs.
    ///
    /// The new vector must describe the same number of classes. The default
    /// refuses ([`ReconfigureError::Unsupported`]); the proportional
    /// schedulers (WTP, BPR, PAD, HPD, Additive) accept.
    fn reconfigure(&mut self, _sdp: &Sdp) -> Result<(), ReconfigureError> {
        Err(ReconfigureError::Unsupported(self.name()))
    }

    /// Informs the scheduler that the link it serves now runs at `rate`
    /// bytes/tick. Only BPR and WFQ (the fair-queueing core on its GPS
    /// clock) hold the link rate internally; for everything else,
    /// WF²Q+ and SCFQ included, this is a no-op.
    ///
    /// # Panics
    /// Implementations may panic if `rate` is not positive and finite.
    fn set_link_rate(&mut self, _rate: f64) {}
}

/// Forwarding impl, so code generic over `S: Scheduler` also runs on a
/// runtime-chosen `Box<dyn Scheduler>` (one dynamic call per method).
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn num_classes(&self) -> usize {
        (**self).num_classes()
    }
    fn enqueue(&mut self, pkt: Packet) {
        (**self).enqueue(pkt)
    }
    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        (**self).dequeue(now)
    }
    fn backlog_packets(&self, class: usize) -> usize {
        (**self).backlog_packets(class)
    }
    fn backlog_bytes(&self, class: usize) -> u64 {
        (**self).backlog_bytes(class)
    }
    fn total_backlog_packets(&self) -> usize {
        (**self).total_backlog_packets()
    }
    fn total_backlog_bytes(&self) -> u64 {
        (**self).total_backlog_bytes()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn drop_newest(&mut self, class: usize) -> Option<Packet> {
        (**self).drop_newest(class)
    }
    fn decision_values(&self, now: Time, out: &mut Vec<(usize, f64)>) {
        (**self).decision_values(now, out)
    }
    fn reconfigure(&mut self, sdp: &Sdp) -> Result<(), ReconfigureError> {
        (**self).reconfigure(sdp)
    }
    fn set_link_rate(&mut self, rate: f64) {
        (**self).set_link_rate(rate)
    }
}

/// Per-class FIFO queues with byte accounting — the storage every
/// scheduler in this crate keeps its packets in, except FCFS's one shared
/// FIFO.
///
/// Running totals of packets and bytes across classes are kept beside the
/// queues, so emptiness and the total backlog are O(1): the service loop
/// asks [`Scheduler::is_empty`] at every turn and a finite buffer asks
/// [`Scheduler::total_backlog_bytes`] at every arrival.
#[derive(Debug, Clone)]
pub struct ClassQueues {
    queues: Vec<VecDeque<Packet>>,
    bytes: Vec<u64>,
    total_packets: usize,
    total_bytes: u64,
}

impl ClassQueues {
    /// Creates `n` empty class queues.
    pub fn new(n: usize) -> Self {
        ClassQueues {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            bytes: vec![0; n],
            total_packets: 0,
            total_bytes: 0,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.queues.len()
    }

    /// Appends a packet to its class queue.
    ///
    /// # Panics
    /// Panics if the packet's class is out of range.
    pub fn push(&mut self, pkt: Packet) {
        let c = pkt.class as usize;
        assert!(
            c < self.queues.len(),
            "packet class {c} out of range (num_classes = {})",
            self.queues.len()
        );
        self.bytes[c] += pkt.size as u64;
        self.total_packets += 1;
        self.total_bytes += pkt.size as u64;
        self.queues[c].push_back(pkt);
    }

    /// Removes and returns the head of `class`.
    pub fn pop(&mut self, class: usize) -> Option<Packet> {
        let pkt = self.queues[class].pop_front()?;
        self.uncount(class, &pkt);
        Some(pkt)
    }

    /// Takes a packet that left `class` off the byte count and the totals.
    fn uncount(&mut self, class: usize, pkt: &Packet) {
        self.bytes[class] -= pkt.size as u64;
        self.total_packets -= 1;
        self.total_bytes -= pkt.size as u64;
    }

    /// The head of `class` without removing it.
    pub fn head(&self, class: usize) -> Option<&Packet> {
        self.queues[class].front()
    }

    /// Queued packets in `class`.
    pub fn len(&self, class: usize) -> usize {
        self.queues[class].len()
    }

    /// Queued bytes in `class`.
    pub fn bytes(&self, class: usize) -> u64 {
        self.bytes[class]
    }

    /// Queued packets across all classes.
    pub fn total_packets(&self) -> usize {
        self.total_packets
    }

    /// Queued bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// True if every class queue is empty.
    pub fn is_empty(&self) -> bool {
        self.total_packets == 0
    }

    /// Iterator over the indices of backlogged (non-empty) classes.
    pub fn backlogged(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.queues.len()).filter(|&c| !self.queues[c].is_empty())
    }

    /// Removes and returns the *tail* packet of `class` (used by droppers
    /// that push out the most recent arrival).
    pub fn pop_tail(&mut self, class: usize) -> Option<Packet> {
        let pkt = self.queues[class].pop_back()?;
        self.uncount(class, &pkt);
        Some(pkt)
    }

    /// Iterator over every class's head-of-line packet, in class order
    /// (`None` for empty classes). One sweep over the queues with no
    /// per-class index lookups — the building block of the schedulers'
    /// single-pass decision loops.
    pub fn heads(&self) -> impl Iterator<Item = Option<&Packet>> {
        self.queues.iter().map(VecDeque::front)
    }

    /// Picks the winning class by maximizing `priority(class, head)` over
    /// backlogged classes in a single pass, breaking ties toward the
    /// **higher** class index (the paper's tie rule). Returns `None` when
    /// nothing is backlogged.
    ///
    /// Unlike scanning [`ClassQueues::backlogged`] and re-fetching each
    /// head, the head-of-line packet is handed to the priority function
    /// directly: one queue access per class per decision.
    ///
    /// The winner changes from one decision to the next, so a branch on
    /// the compare mispredicts; both the index and the value are chosen
    /// with [`select_unpredictable`], from a `usize::MAX` sentinel.
    pub fn select_by<F: FnMut(usize, &Packet) -> f64>(&self, mut priority: F) -> Option<usize> {
        let (mut best, mut best_p) = (usize::MAX, f64::NEG_INFINITY);
        for (c, queue) in self.queues.iter().enumerate() {
            let Some(head) = queue.front() else { continue };
            let p = priority(c, head);
            // Only a strictly lower rank keeps the best so far, so ties go
            // to the later (higher) class; no rank, NaN included, is lower
            // than the sentinel's −∞, so the first backlogged class is
            // always taken.
            #[cfg(not(feature = "mutate-pifo-rank"))]
            let keep = p < best_p;
            // MUTATED for the conformance smoke-runner: ties keep the
            // **lower** class.
            #[cfg(feature = "mutate-pifo-rank")]
            let keep = best != usize::MAX && p <= best_p;
            best = select_unpredictable(keep, best, c);
            best_p = select_unpredictable(keep, best_p, p);
        }
        (best != usize::MAX).then_some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pkt(seq: u64, class: u8, size: u32, at: u64) -> Packet {
        Packet::new(seq, class, size, Time::from_ticks(at))
    }

    #[test]
    fn push_pop_is_fifo_per_class() {
        let mut q = ClassQueues::new(2);
        q.push(pkt(1, 0, 10, 0));
        q.push(pkt(2, 1, 20, 1));
        q.push(pkt(3, 0, 30, 2));
        assert_eq!(q.pop(0).unwrap().seq, 1);
        assert_eq!(q.pop(0).unwrap().seq, 3);
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1).unwrap().seq, 2);
    }

    #[test]
    fn byte_accounting_tracks_push_and_pop() {
        let mut q = ClassQueues::new(1);
        q.push(pkt(1, 0, 100, 0));
        q.push(pkt(2, 0, 50, 0));
        assert_eq!(q.bytes(0), 150);
        q.pop(0);
        assert_eq!(q.bytes(0), 50);
        q.pop_tail(0);
        assert_eq!(q.bytes(0), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn backlogged_lists_nonempty_classes() {
        let mut q = ClassQueues::new(4);
        q.push(pkt(1, 1, 10, 0));
        q.push(pkt(2, 3, 10, 0));
        let b: Vec<usize> = q.backlogged().collect();
        assert_eq!(b, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range_class() {
        let mut q = ClassQueues::new(2);
        q.push(pkt(1, 5, 10, 0));
    }

    /// The branchy arg-max `select_by` was before it chose by
    /// `select_unpredictable`, kept verbatim: the oracle the equivalence
    /// property diffs the rewrite against.
    fn select_by_branchy<F: FnMut(usize, &Packet) -> f64>(
        q: &ClassQueues,
        mut priority: F,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (c, queue) in q.queues.iter().enumerate() {
            let Some(head) = queue.front() else { continue };
            let p = priority(c, head);
            match best {
                // `>=` favors the later (higher) class on ties.
                Some((_, bp)) if p < bp => {}
                _ => best = Some((c, p)),
            }
        }
        best.map(|(c, _)| c)
    }

    /// Ranks drawn from a small palette, so ties are common, with the
    /// values an arg-max can trip on: ±∞, NaN and both zeros.
    fn palette_rank(code: u8) -> f64 {
        match code {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            c => f64::from(c) - 8.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `select_by` picks the branchy oracle's winner for 2–16 classes,
        /// any of them empty, under ties, ±∞ and NaN ranks.
        #[test]
        #[cfg_attr(
            feature = "mutate-pifo-rank",
            ignore = "tie rule deliberately flipped by the mutation feature"
        )]
        fn prop_equivalence_select_by_matches_the_branchy_oracle(
            classes in prop::collection::vec((prop::bool::ANY, 0u8..12), 2..17),
        ) {
            let mut q = ClassQueues::new(classes.len());
            for (c, &(backlogged, _)) in classes.iter().enumerate() {
                if backlogged {
                    q.push(pkt(c as u64, c as u8, 100, 0));
                }
            }
            let rank = |c: usize, _: &Packet| palette_rank(classes[c].1);
            prop_assert_eq!(q.select_by(rank), select_by_branchy(&q, rank), "{:?}", classes);
        }
    }

    #[test]
    #[cfg_attr(
        feature = "mutate-pifo-rank",
        ignore = "tie rule deliberately flipped by the mutation feature"
    )]
    fn select_by_breaks_ties_toward_higher_class() {
        let mut q = ClassQueues::new(3);
        q.push(pkt(1, 0, 10, 0));
        q.push(pkt(2, 2, 10, 0));
        assert_eq!(q.select_by(|_, _| 1.0), Some(2));
        assert_eq!(q.select_by(|c, _| if c == 0 { 2.0 } else { 1.0 }), Some(0));
        let empty = ClassQueues::new(3);
        assert_eq!(empty.select_by(|_, _| 1.0), None);
    }

    #[test]
    fn select_by_hands_the_actual_head_to_the_priority() {
        let mut q = ClassQueues::new(2);
        q.push(pkt(1, 0, 10, 3));
        q.push(pkt(2, 0, 10, 9)); // queued behind; must not be consulted
        q.push(pkt(3, 1, 10, 7));
        let mut seen = Vec::new();
        q.select_by(|c, head| {
            seen.push((c, head.seq, head.arrival.ticks()));
            0.0
        });
        assert_eq!(seen, vec![(0, 1, 3), (1, 3, 7)]);
    }

    #[test]
    fn heads_reports_every_class_in_order() {
        let mut q = ClassQueues::new(3);
        q.push(pkt(1, 0, 10, 0));
        q.push(pkt(2, 2, 10, 0));
        let seqs: Vec<Option<u64>> = q.heads().map(|h| h.map(|p| p.seq)).collect();
        assert_eq!(seqs, vec![Some(1), None, Some(2)]);
    }

    #[test]
    fn pop_tail_removes_most_recent() {
        let mut q = ClassQueues::new(1);
        q.push(pkt(1, 0, 10, 0));
        q.push(pkt(2, 0, 10, 1));
        assert_eq!(q.pop_tail(0).unwrap().seq, 2);
        assert_eq!(q.head(0).unwrap().seq, 1);
    }
}
