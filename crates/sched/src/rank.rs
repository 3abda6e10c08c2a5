//! The rank-function core — one scheduler engine, one expression per
//! discipline.
//!
//! Every head-of-line discipline the paper defines or calls for is the
//! same machine: per-class FIFO queues, an argmax over the backlogged
//! heads, ties to the higher class (Appendix 3). The disciplines differ
//! in one expression. That is the programmable-scheduling thesis
//! (Sivaraman et al. 2016, "Programmable Packet Scheduling at Line Rate";
//! Mittal et al. 2015, "Universal Packet Scheduling"), and this module is
//! that machine:
//!
//! * [`PifoCore`] owns the queues and serves, at each decision instant,
//!   the head-of-line packet with the **largest rank** (ties to the higher
//!   class, FIFO within a class). It and the fair-queueing core
//!   ([`FairQueue`](crate::FairQueue)) are the only callers of
//!   [`ClassQueues::select_by`] in this crate.
//! * [`RankFn`] is the discipline: a pure `(class, head, now) → f64` rank,
//!   plus an optional departure hook for the history-keeping disciplines
//!   and an optional live-SDP swap.
//! * Six rank functions ship: [`WtpRank`] (§4.2), [`AdditiveRank`]
//!   (Eq. 3), [`StrictRank`] (§2.1), the §7 extensions [`PadRank`] and
//!   [`HpdRank`], and [`LstfRank`] (least-slack-time-first).
//!   [`SchedulerKind`](crate::SchedulerKind) builds the core with the
//!   matching rank and the display name it reports; `Wtp` and
//!   `Pifo(RankKind::Wtp)` are two names for one instantiation.
//!
//! FCFS is *not* a rank function: one shared FIFO ([`Fcfs`](crate::Fcfs))
//! is O(1) and orders by arrival at *this* hop, which no per-packet field
//! encodes once packets cross a mesh. WFQ, WF²Q+ and SCFQ stamp a tag at
//! arrival against a virtual clock and share
//! [`FairQueue`](crate::FairQueue) instead. BPR and DRR keep per-class
//! state that evolves between decisions (virtual service, deficits) and
//! stay their own state machines.
//!
//! ## Dynamic ranks
//!
//! A textbook PIFO computes the rank once at push time. The paper's
//! disciplines are *time-dependent* (WTP priority grows while a packet
//! waits), which a push-time rank cannot express, so [`PifoCore`]
//! re-evaluates ranks on the head-of-line packets at every decision
//! instant. With FIFO order within a class and per-class monotone rank
//! functions this is equivalent to an idealized PIFO evaluated lazily.
//!
//! ## Exactness contract
//!
//! The rank expressions are frozen **verbatim** — same operations, same
//! operand order — because every `f64` they produce is pinned: the
//! departure digests in `crates/qsim/tests/golden.rs` were captured from
//! the hand-written PAD, HPD, Additive and Strict schedulers these rank
//! functions replaced, and WTP is diffed per decision against the
//! from-scratch oracle in `conformance::oracle`. Reassociating a product
//! moves a tie somewhere in a few hundred thousand decisions.

use simcore::Time;

use crate::class::Sdp;
use crate::packet::Packet;
use crate::scheduler::{ClassQueues, ReconfigureError, Scheduler};

/// A scheduling discipline expressed as a rank function for [`PifoCore`].
///
/// The core serves the backlogged class whose head has the **largest**
/// rank; ties go to the higher class. Implementations must be
/// deterministic functions of their own state and the arguments.
pub trait RankFn {
    /// Rank of `head` (the head-of-line packet of `class`) at `now`.
    fn rank(&self, class: usize, head: &Packet, now: Time) -> f64;

    /// Called after the core dequeues `pkt` from `class` at `now`.
    ///
    /// History-keeping disciplines (PAD/HPD) update their per-class
    /// departure statistics here; memoryless ranks ignore it.
    fn on_depart(&mut self, _class: usize, _pkt: &Packet, _now: Time) {}

    /// Swaps the differentiation parameters at runtime and returns `true`,
    /// or returns `false` if the discipline has none (the default) — the
    /// core then answers [`ReconfigureError::Unsupported`]. The core has
    /// already verified the class count before delegating here.
    fn set_sdp(&mut self, _sdp: &Sdp) -> bool {
        false
    }
}

/// The scheduler engine: per-class FIFOs plus one rank function.
///
/// ```
/// use sched::{Packet, PifoCore, Scheduler, Sdp, WtpRank};
/// use simcore::Time;
///
/// // Two classes with SDP spacing 2: class 1 accrues priority twice as fast.
/// let sdp = Sdp::geometric(2, 2.0).unwrap();
/// let mut wtp = PifoCore::new("WTP", 2, WtpRank::new(sdp));
/// wtp.enqueue(Packet::new(0, 0, 100, Time::from_ticks(0)));
/// wtp.enqueue(Packet::new(1, 1, 100, Time::from_ticks(0)));
/// // Equal waits ⇒ the higher SDP wins the decision.
/// assert_eq!(wtp.dequeue(Time::from_ticks(10)).unwrap().class, 1);
/// assert_eq!(wtp.dequeue(Time::from_ticks(20)).unwrap().class, 0);
/// ```
#[derive(Debug, Clone)]
pub struct PifoCore<R: RankFn> {
    name: &'static str,
    queues: ClassQueues,
    rank: R,
}

impl<R: RankFn> PifoCore<R> {
    /// Creates a core over `num_classes` classes driven by `rank`,
    /// reporting `name` (the factory passes
    /// [`SchedulerKind::name`](crate::SchedulerKind::name)).
    pub fn new(name: &'static str, num_classes: usize, rank: R) -> Self {
        PifoCore {
            name,
            queues: ClassQueues::new(num_classes),
            rank,
        }
    }

    /// The rank function (for inspection in tests and analyses).
    pub fn rank_fn(&self) -> &R {
        &self.rank
    }

    /// The class [`dequeue`](Scheduler::dequeue) would serve at `now`,
    /// without dequeuing — the decision-instant hook the conformance
    /// oracle diffs against.
    pub fn peek_winner(&self, now: Time) -> Option<usize> {
        self.queues
            .select_by(|c, head| self.rank.rank(c, head, now))
    }
}

impl<R: RankFn> Scheduler for PifoCore<R> {
    fn num_classes(&self) -> usize {
        self.queues.num_classes()
    }

    fn enqueue(&mut self, pkt: Packet) {
        self.queues.push(pkt);
    }

    fn dequeue(&mut self, now: Time) -> Option<Packet> {
        let winner = self.peek_winner(now)?;
        let pkt = self.queues.pop(winner)?;
        self.rank.on_depart(winner, &pkt, now);
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
        self.queues.pop_tail(class)
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn decision_values(&self, now: Time, out: &mut Vec<(usize, f64)>) {
        for (c, head) in self.queues.heads().enumerate() {
            if let Some(head) = head {
                out.push((c, self.rank.rank(c, head, now)));
            }
        }
    }

    fn reconfigure(&mut self, sdp: &Sdp) -> Result<(), ReconfigureError> {
        if sdp.num_classes() != self.queues.num_classes() {
            return Err(ReconfigureError::ClassCountMismatch {
                have: self.queues.num_classes(),
                want: sdp.num_classes(),
            });
        }
        // Backlogged packets stay queued with their waiting times; the
        // very next decision ranks them under the new SDPs.
        if self.rank.set_sdp(sdp) {
            Ok(())
        } else {
            Err(ReconfigureError::Unsupported(self.name))
        }
    }
}

/// Waiting-Time Priority (§4.2): `rank = w_i(t) · s_i`.
///
/// Kleinrock's Time-Dependent Priorities (1964): the SDPs `s_i` set the
/// rate at which priority accrues with the head's waiting time `w_i(t)`,
/// and in heavy load the long-term delay ratios converge to the inverse
/// SDP ratios (Eq. 10/13): `d̄_i/d̄_j → s_j/s_i`.
#[derive(Debug, Clone)]
pub struct WtpRank {
    sdp: Sdp,
}

impl WtpRank {
    /// Creates the WTP rank function with the given SDPs.
    pub fn new(sdp: Sdp) -> Self {
        WtpRank { sdp }
    }
}

impl RankFn for WtpRank {
    fn rank(&self, class: usize, head: &Packet, now: Time) -> f64 {
        head.waiting(now).as_f64() * self.sdp.get(class)
    }

    fn set_sdp(&mut self, sdp: &Sdp) -> bool {
        self.sdp = sdp.clone();
        true
    }
}

/// Per-class cumulative delay `D_i` and count `n_i` of departed packets —
/// the memory PAD and HPD rank on.
///
/// The count is kept as the divisor `(n_i + 1) as f64` that every rank
/// evaluation needs, so a decision converts no integer. Stepping it by
/// 1.0 is exact below 2⁵³ departures, so every quotient is the one the
/// `u64` count gave.
#[derive(Debug, Clone)]
struct DelayHistory {
    cum_delay: Vec<f64>,
    divisor: Vec<f64>,
}

impl DelayHistory {
    fn new(num_classes: usize) -> Self {
        DelayHistory {
            cum_delay: vec![0.0; num_classes],
            divisor: vec![1.0; num_classes],
        }
    }

    /// `s · (D_i + w) / (n_i + 1)`: the normalized average delay of
    /// `class`, projected as if its head (waiting `w`) departed now.
    fn projected(&self, class: usize, s: f64, w: f64) -> f64 {
        s * (self.cum_delay[class] + w) / self.divisor[class]
    }

    fn record(&mut self, class: usize, pkt: &Packet, now: Time) {
        self.cum_delay[class] += pkt.waiting(now).as_f64();
        self.divisor[class] += 1.0;
    }

    fn average_delay(&self, class: usize) -> f64 {
        let departed = self.divisor[class] - 1.0;
        if departed == 0.0 {
            0.0
        } else {
            self.cum_delay[class] / departed
        }
    }
}

/// Proportional Average Delay (§7 extension):
/// `rank = s_i · (D_i + w_i(t)) / (n_i + 1)`.
///
/// The paper observes that WTP/BPR only approach the proportional model in
/// heavy load and asks for "an optimal proportional differentiation
/// scheduler". PAD (from the same authors' follow-on work) drives the
/// *long-term* normalized average delays to equality directly: it serves
/// the class whose normalized average delay — projected as if its head
/// departed now — is largest. `D_i`/`n_i` are the cumulative delay and
/// count of departed class-i packets. PAD nails Eq. (1) at any load but
/// has weaker short-timescale behaviour — the trade HPD balances.
#[derive(Debug, Clone)]
pub struct PadRank {
    sdp: Sdp,
    history: DelayHistory,
}

impl PadRank {
    /// Creates the PAD rank function with the given SDPs.
    pub fn new(sdp: Sdp) -> Self {
        let history = DelayHistory::new(sdp.num_classes());
        PadRank { sdp, history }
    }

    /// Measured long-term average delay of departed class-`class` packets.
    pub fn average_delay(&self, class: usize) -> f64 {
        self.history.average_delay(class)
    }
}

impl RankFn for PadRank {
    fn rank(&self, class: usize, head: &Packet, now: Time) -> f64 {
        let w = head.waiting(now).as_f64();
        self.history.projected(class, self.sdp.get(class), w)
    }

    fn on_depart(&mut self, class: usize, pkt: &Packet, now: Time) {
        self.history.record(class, pkt, now);
    }

    fn set_sdp(&mut self, sdp: &Sdp) -> bool {
        // Delay history is kept; the normalized averages re-equalize under
        // the new SDPs only as new departures accumulate.
        self.sdp = sdp.clone();
        true
    }
}

/// Hybrid Proportional Delay (§7 extension):
/// `rank = g · s_i·w_i(t) + (1 − g) · s_i·(D_i + w_i(t))/(n_i + 1)`.
///
/// A convex combination of the normalized *instantaneous* waiting time
/// (the WTP term: short-timescale responsiveness) and the projected
/// normalized *average* delay (the PAD term: long-term accuracy).
/// `g = 0.875` is the operating point reported in the follow-on
/// literature; `g = 1` degenerates to WTP and `g = 0` to PAD.
#[derive(Debug, Clone)]
pub struct HpdRank {
    sdp: Sdp,
    g: f64,
    history: DelayHistory,
}

impl HpdRank {
    /// Creates the HPD rank function with mixing factor `g ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics if `g` is outside `[0, 1]`.
    pub fn new(sdp: Sdp, g: f64) -> Self {
        assert!((0.0..=1.0).contains(&g), "g must be in [0,1], got {g}");
        let history = DelayHistory::new(sdp.num_classes());
        HpdRank { sdp, g, history }
    }

    /// The recommended default mixing factor (g = 0.875).
    pub fn with_default_g(sdp: Sdp) -> Self {
        HpdRank::new(sdp, 0.875)
    }
}

impl RankFn for HpdRank {
    fn rank(&self, class: usize, head: &Packet, now: Time) -> f64 {
        let w = head.waiting(now).as_f64();
        let s = self.sdp.get(class);
        let wtp_term = s * w;
        let pad_term = self.history.projected(class, s, w);
        self.g * wtp_term + (1.0 - self.g) * pad_term
    }

    fn on_depart(&mut self, class: usize, pkt: &Packet, now: Time) {
        self.history.record(class, pkt, now);
    }

    fn set_sdp(&mut self, sdp: &Sdp) -> bool {
        // The history is kept: after a step the old averages steer the
        // PAD term until new departures dilute them — the dynamics suite
        // measures how that shifts reconvergence relative to the
        // memoryless WTP.
        self.sdp = sdp.clone();
        true
    }
}

/// The additive model (§2.1, Eq. 3): `rank = w_i(t) + s_i`.
///
/// A waiting-time priority with an additive head start instead of a
/// multiplicative gain; the SDPs are offsets in ticks. In heavy load it
/// tends to *constant delay differences* `d̄_i − d̄_j = s_j − s_i` rather
/// than constant ratios.
#[derive(Debug, Clone)]
pub struct AdditiveRank {
    sdp: Sdp,
}

impl AdditiveRank {
    /// Creates the additive rank function; SDPs are tick offsets.
    pub fn new(sdp: Sdp) -> Self {
        AdditiveRank { sdp }
    }
}

impl RankFn for AdditiveRank {
    fn rank(&self, class: usize, head: &Packet, now: Time) -> f64 {
        head.waiting(now).as_f64() + self.sdp.get(class)
    }

    fn set_sdp(&mut self, sdp: &Sdp) -> bool {
        self.sdp = sdp.clone();
        true
    }
}

/// Strict (static) priority (§2.1): `rank = i`, the class index itself.
///
/// "The highest backlogged class is serviced first": ranks are distinct
/// across classes, so the argmax is tie-free by construction.
/// Differentiation is consistent but offers no tuning knobs (no SDPs to
/// swap), and low classes can starve — the two defects that motivate the
/// proportional model.
#[derive(Debug, Clone, Default)]
pub struct StrictRank;

impl RankFn for StrictRank {
    fn rank(&self, class: usize, _head: &Packet, _now: Time) -> f64 {
        class as f64
    }
}

/// Default slack base for [`LstfRank`] budgets, in ticks.
///
/// Class `i` gets a slack budget of `base / s_i`, so the paper-default
/// SDPs `[1, 2, 4, 8]` yield budgets `[8000, 4000, 2000, 1000]` — a few
/// mean packet-transmission times apart at the 1 byte/tick reference
/// link, enough to differentiate without starving class 0.
pub const DEFAULT_SLACK_BASE_TICKS: f64 = 8_000.0;

/// Least-Slack-Time-First (Mittal et al. 2015, "Universal Packet
/// Scheduling").
///
/// Each class carries a slack budget `δ_i = base / s_i` (higher class ⇒
/// tighter budget) and the core serves the head with the least remaining
/// slack, i.e. the largest `rank = w_i(t) − δ_i`. On a single hop this is
/// an earliest-deadline-style discipline with *constant rank differences*
/// between classes — the universality probe in the `rank` experiment
/// suite measures how close that gets to the paper's *proportional* model
/// across the fig1 load grid.
#[derive(Debug, Clone)]
pub struct LstfRank {
    sdp: Sdp,
    base: f64,
    budget: Vec<f64>,
}

impl LstfRank {
    /// Creates an LSTF rank with budgets `base / s_i` ticks.
    pub fn new(sdp: Sdp, base: f64) -> Self {
        let budget = sdp.values().iter().map(|s| base / s).collect();
        LstfRank { sdp, base, budget }
    }

    /// Creates an LSTF rank with the default slack base.
    pub fn with_default_base(sdp: Sdp) -> Self {
        LstfRank::new(sdp, DEFAULT_SLACK_BASE_TICKS)
    }

    /// The slack budget of `class`, in ticks.
    pub fn budget(&self, class: usize) -> f64 {
        self.budget[class]
    }
}

impl RankFn for LstfRank {
    fn rank(&self, class: usize, head: &Packet, now: Time) -> f64 {
        head.waiting(now).as_f64() - self.budget[class]
    }

    fn set_sdp(&mut self, sdp: &Sdp) -> bool {
        self.budget = sdp.values().iter().map(|s| self.base / s).collect();
        self.sdp = sdp.clone();
        true
    }
}

/// The rank functions [`SchedulerKind::Pifo`](crate::SchedulerKind::Pifo)
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankKind {
    /// [`WtpRank`] under its rank-core name — the same scheduler as
    /// [`SchedulerKind::Wtp`](crate::SchedulerKind::Wtp), kept because
    /// the `mesh` suite's cells and cache slugs are published under it.
    Wtp,
    /// [`LstfRank`] with the default slack base.
    Lstf,
}

impl RankKind {
    /// All rank kinds.
    pub const ALL: [RankKind; 2] = [RankKind::Wtp, RankKind::Lstf];

    /// Display name of the rank-core scheduler.
    pub fn name(&self) -> &'static str {
        match self {
            RankKind::Wtp => "PIFO(WTP)",
            RankKind::Lstf => "LSTF",
        }
    }

    /// A lowercase, filesystem-safe identifier (used by the orchestrator
    /// cache keys and accepted by `SchedulerKind::from_str`).
    pub fn slug(&self) -> &'static str {
        match self {
            RankKind::Wtp => "pifo-wtp",
            RankKind::Lstf => "lstf",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64, class: u8, at: u64) -> Packet {
        Packet::new(seq, class, 100, Time::from_ticks(at))
    }

    fn t(ticks: u64) -> Time {
        Time::from_ticks(ticks)
    }

    fn sdp(values: &[f64]) -> Sdp {
        Sdp::new(values).unwrap()
    }

    /// WTP over two classes with s = [1, 2].
    fn wtp_1_2() -> PifoCore<WtpRank> {
        PifoCore::new("WTP", 2, WtpRank::new(sdp(&[1.0, 2.0])))
    }

    fn values(s: &impl Scheduler, now: u64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        s.decision_values(t(now), &mut out);
        out
    }

    // ---- the core -------------------------------------------------------

    #[test]
    fn fifo_within_class() {
        let mut s = PifoCore::new("Strict", 2, StrictRank);
        s.enqueue(pkt(1, 1, 0));
        s.enqueue(pkt(2, 1, 1));
        s.enqueue(pkt(3, 1, 2));
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(t(50)))
            .map(|p| p.seq)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peek_winner_matches_dequeue() {
        let mut s = PifoCore::new("WTP", 4, WtpRank::new(Sdp::paper_default()));
        assert_eq!(s.peek_winner(t(5)), None);
        s.enqueue(pkt(1, 0, 0));
        s.enqueue(pkt(2, 3, 20));
        for now in [25u64, 45] {
            let peeked = s.peek_winner(t(now)).unwrap();
            assert_eq!(s.dequeue(t(now)).unwrap().class as usize, peeked);
        }
    }

    #[test]
    fn decision_values_report_backlogged_ranks_in_class_order() {
        let mut s = wtp_1_2();
        let mut out = Vec::new();
        s.decision_values(t(10), &mut out);
        assert!(out.is_empty());
        s.enqueue(pkt(1, 1, 4));
        s.enqueue(pkt(2, 0, 6));
        s.decision_values(t(10), &mut out);
        // Class 0 waited 4 (s=1), class 1 waited 6 (s=2).
        assert_eq!(out, vec![(0, 4.0), (1, 12.0)]);
        // Appends without clearing, and dequeue agrees with the argmax.
        s.decision_values(t(10), &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(s.dequeue(t(10)).unwrap().class, 1);
    }

    #[test]
    fn drop_newest_removes_the_class_tail() {
        let mut s = PifoCore::new("Strict", 4, StrictRank);
        s.enqueue(pkt(1, 1, 0));
        s.enqueue(pkt(2, 1, 5));
        s.enqueue(pkt(3, 2, 5));
        assert_eq!(s.drop_newest(1).unwrap().seq, 2);
        assert_eq!(s.backlog_packets(1), 1);
        assert_eq!(s.backlog_packets(2), 1);
    }

    #[test]
    fn class_count_is_checked_before_the_rank_is_asked() {
        // Strict has no SDPs to swap, yet a wrong class count is reported
        // as such: the core's check comes first.
        let mut s = PifoCore::new("Strict", 4, StrictRank);
        assert_eq!(
            s.reconfigure(&Sdp::geometric(4, 4.0).unwrap()),
            Err(ReconfigureError::Unsupported("Strict"))
        );
        assert_eq!(
            s.reconfigure(&sdp(&[1.0, 2.0])),
            Err(ReconfigureError::ClassCountMismatch { have: 4, want: 2 })
        );
    }

    // ---- WTP ------------------------------------------------------------

    #[test]
    fn wtp_equal_waits_highest_sdp_wins() {
        let mut s = wtp_1_2();
        s.enqueue(pkt(1, 0, 0));
        s.enqueue(pkt(2, 1, 0));
        // Both waited 10 ticks: class 1 has priority 20 vs 10.
        assert_eq!(s.dequeue(t(10)).unwrap().class, 1);
        assert_eq!(s.dequeue(t(10)).unwrap().class, 0);
    }

    #[test]
    fn wtp_long_waiting_low_class_overtakes() {
        let mut s = wtp_1_2();
        s.enqueue(pkt(1, 0, 0)); // by t=30 has waited 30, priority 30
        s.enqueue(pkt(2, 1, 20)); // by t=30 has waited 10, priority 20
        assert_eq!(s.dequeue(t(30)).unwrap().class, 0);
    }

    #[test]
    #[cfg_attr(
        feature = "mutate-pifo-rank",
        ignore = "tie rule deliberately flipped by the mutation feature"
    )]
    fn wtp_exact_crossover_tie_goes_to_higher_class() {
        let mut s = wtp_1_2();
        s.enqueue(pkt(1, 0, 0)); // priority at t=20: 20
        s.enqueue(pkt(2, 1, 10)); // priority at t=20: 2*10 = 20
        assert_eq!(s.dequeue(t(20)).unwrap().class, 1);
    }

    #[test]
    #[cfg_attr(
        feature = "mutate-pifo-rank",
        ignore = "tie rule deliberately flipped by the mutation feature"
    )]
    fn wtp_zero_waiting_time_tie_prefers_higher_class() {
        let mut s = wtp_1_2();
        s.enqueue(pkt(1, 0, 5));
        s.enqueue(pkt(2, 1, 5));
        assert_eq!(s.dequeue(t(5)).unwrap().class, 1);
    }

    #[test]
    fn wtp_head_priority_is_w_times_s() {
        let mut s = wtp_1_2();
        assert_eq!(values(&s, 10), vec![]);
        s.enqueue(pkt(1, 1, 4));
        assert_eq!(values(&s, 10), vec![(1, 12.0)]);
    }

    #[test]
    fn wtp_reconfigure_changes_the_next_decision_without_draining() {
        // Two backlogged heads: under s = [1, 2] at t=30 the priorities are
        // 30 vs 20 (class 0 wins); after a live swap to s = [1, 8] they are
        // 30 vs 80 and class 1 wins — same queues, same waiting times.
        let mut s = wtp_1_2();
        s.enqueue(pkt(1, 0, 0));
        s.enqueue(pkt(2, 1, 20));
        assert_eq!(values(&s, 30), vec![(0, 30.0), (1, 20.0)]);
        s.reconfigure(&sdp(&[1.0, 8.0])).unwrap();
        assert_eq!(s.backlog_packets(0) + s.backlog_packets(1), 2);
        assert_eq!(values(&s, 30), vec![(0, 30.0), (1, 80.0)]);
        assert_eq!(s.dequeue(t(30)).unwrap().class, 1);
    }

    #[test]
    fn wtp_reconfigure_rejects_class_count_mismatch() {
        let mut s = PifoCore::new("WTP", 2, WtpRank::new(sdp(&[1.0, 3.0])));
        s.enqueue(pkt(1, 1, 0));
        let err = s.reconfigure(&Sdp::paper_default()).unwrap_err();
        assert_eq!(
            err,
            ReconfigureError::ClassCountMismatch { have: 2, want: 4 }
        );
        // The running configuration is untouched on failure: s_1 is still
        // 3, not the refused vector's 2.
        assert_eq!(values(&s, 10), vec![(1, 30.0)]);
        assert_eq!(s.backlog_packets(1), 1);
    }

    #[test]
    #[cfg_attr(
        feature = "mutate-pifo-rank",
        ignore = "exact priority crossovers in this construction hit the flipped tie rule"
    )]
    fn wtp_proposition_2_starvation_pattern() {
        // Proposition 2: with peak input rate R1 and service rate R, if
        // 1 − R/R1 > s_i/s_j, a back-to-back class-j burst starting at t0 is
        // fully serviced before any class-i packet that arrived at t0.
        //
        // Construction: unit-size packets (size 100 bytes, tx time 100 ticks
        // at rate 1), R1 = 2R (gap 50 ticks), s = [1, 4]:
        // 1 − 1/2 = 0.5 > s1/s2 = 0.25, so starvation must occur.
        let mut s = PifoCore::new("WTP", 2, WtpRank::new(sdp(&[1.0, 4.0])));
        let burst = 40u64;
        s.enqueue(Packet::new(0, 0, 100, Time::ZERO)); // the class-i victim
        for k in 0..burst {
            s.enqueue(Packet::new(k + 1, 1, 100, t(50 * k)));
        }
        // Serve at full rate: each service takes 100 ticks.
        let mut now = Time::ZERO;
        let mut served = Vec::new();
        while let Some(p) = s.dequeue(now) {
            served.push(p.class);
            now += simcore::Dur::from_ticks(100);
        }
        // The entire class-1 burst precedes the class-0 packet.
        assert_eq!(served.len() as u64, burst + 1);
        assert!(served[..burst as usize].iter().all(|&c| c == 1));
        assert_eq!(served[burst as usize], 0);
    }

    #[test]
    fn wtp_no_starvation_when_condition_fails() {
        // Same pattern but s = [1, 4/3]: 0.5 < s1/s2 = 0.75, so the class-0
        // packet's priority eventually overtakes the burst.
        let mut s = PifoCore::new("WTP", 2, WtpRank::new(sdp(&[3.0, 4.0])));
        s.enqueue(Packet::new(0, 0, 100, Time::ZERO));
        for k in 0..40u64 {
            s.enqueue(Packet::new(k + 1, 1, 100, t(50 * k)));
        }
        let mut now = Time::ZERO;
        let mut class0_pos = None;
        let mut idx = 0;
        while let Some(p) = s.dequeue(now) {
            if p.class == 0 {
                class0_pos = Some(idx);
            }
            idx += 1;
            now += simcore::Dur::from_ticks(100);
        }
        let pos = class0_pos.expect("class-0 packet served");
        assert!(pos < 40, "class-0 packet was served at position {pos}");
    }

    // ---- PAD ------------------------------------------------------------

    fn pad_1_2() -> PifoCore<PadRank> {
        PifoCore::new("PAD", 2, PadRank::new(sdp(&[1.0, 2.0])))
    }

    #[test]
    fn pad_serves_class_with_largest_normalized_average() {
        let mut s = pad_1_2();
        s.enqueue(pkt(1, 0, 0));
        s.enqueue(pkt(2, 1, 0));
        // Projected at t=10: class0 -> 1·10/1 = 10, class1 -> 2·10/1 = 20.
        assert_eq!(s.dequeue(t(10)).unwrap().class, 1);
    }

    #[test]
    fn pad_average_delay_bookkeeping() {
        let mut s = pad_1_2();
        s.enqueue(pkt(1, 0, 0));
        s.dequeue(t(30));
        s.enqueue(pkt(2, 0, 40));
        s.dequeue(t(50));
        assert!((s.rank_fn().average_delay(0) - 20.0).abs() < 1e-12);
        assert_eq!(s.rank_fn().average_delay(1), 0.0);
    }

    #[test]
    fn pad_keeps_departure_history() {
        // A class-0 departure with a huge delay loads the PAD history;
        // a later fresh race then goes to class 0 despite its smaller SDP.
        let mut s = pad_1_2();
        s.enqueue(pkt(1, 0, 0));
        s.dequeue(t(1000));
        s.enqueue(pkt(2, 0, 2000));
        s.enqueue(pkt(3, 1, 2000));
        // class-0 rank = 1·(1000+10)/2 = 505 vs class-1 rank = 2·10 = 20.
        assert_eq!(s.dequeue(t(2010)).unwrap().class, 0);
    }

    #[test]
    fn pad_long_run_ratio_approaches_target_in_stable_heavy_load() {
        // Poisson-ish traffic at ρ = 0.92 on a 1 byte/tick link: PAD should
        // hold the long-term delay ratio at s1/s0 = 2 even though the load
        // is not extreme — the property that motivates it as the paper's
        // "optimal proportional scheduler" candidate.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut arrivals = Vec::new();
        let mut at = 0.0f64;
        for _ in 0..120_000 {
            // Aggregate mean gap 109 ticks for 100-byte packets => ρ ≈ 0.92.
            at += -109.0 * (1.0 - rng.random::<f64>()).ln();
            let class = if rng.random::<f64>() < 0.5 { 0 } else { 1 };
            arrivals.push((at.round() as u64, class, 100u32));
        }
        let mut s = pad_1_2();
        let deps = crate::testutil::drive(&mut s, &arrivals);
        let avg = crate::testutil::class_average_waits(&deps, 2);
        let ratio = avg[0] / avg[1];
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    // ---- HPD ------------------------------------------------------------

    fn hpd_1_2(g: f64) -> PifoCore<HpdRank> {
        PifoCore::new("HPD", 2, HpdRank::new(sdp(&[1.0, 2.0]), g))
    }

    #[test]
    fn hpd_g_one_matches_wtp_choice() {
        let mut h = hpd_1_2(1.0);
        let mut w = wtp_1_2();
        for s in [&mut h as &mut dyn Scheduler, &mut w as &mut dyn Scheduler] {
            s.enqueue(pkt(1, 0, 0));
            s.enqueue(pkt(2, 1, 20));
        }
        // WTP at t=30: p0 = 30, p1 = 20 → class 0 for both.
        assert_eq!(h.dequeue(t(30)).unwrap().class, 0);
        assert_eq!(w.dequeue(t(30)).unwrap().class, 0);
    }

    #[test]
    fn hpd_g_zero_matches_pad_choice() {
        let mut h = hpd_1_2(0.0);
        h.enqueue(pkt(1, 0, 0));
        h.enqueue(pkt(2, 1, 0));
        // PAD projected at t=10: 10 vs 20 → class 1.
        assert_eq!(h.dequeue(t(10)).unwrap().class, 1);
    }

    #[test]
    #[should_panic(expected = "g must be in [0,1]")]
    fn hpd_invalid_g_rejected() {
        let _ = HpdRank::new(Sdp::paper_default(), 1.5);
    }

    #[test]
    fn hpd_history_shifts_priorities() {
        let mut h = hpd_1_2(0.5);
        // Give class 0 a history of large delays.
        h.enqueue(pkt(1, 0, 0));
        let _ = h.dequeue(t(1000));
        // Fresh race with equal waiting times: class 0's PAD term is now
        // (1000 + w)/2 ≈ 505, which dominates class 1's 2·w = 20.
        h.enqueue(pkt(2, 0, 2000));
        h.enqueue(pkt(3, 1, 2000));
        assert_eq!(h.dequeue(t(2010)).unwrap().class, 0);
    }

    // ---- Additive -------------------------------------------------------

    /// Offsets s = [10, 60] ticks.
    fn additive_10_60() -> PifoCore<AdditiveRank> {
        PifoCore::new("Additive", 2, AdditiveRank::new(sdp(&[10.0, 60.0])))
    }

    #[test]
    fn additive_offset_gives_fixed_head_start() {
        // The class-1 packet wins until the class-0 packet has waited 50
        // ticks longer than it.
        let mut s = additive_10_60();
        s.enqueue(pkt(1, 0, 0));
        s.enqueue(pkt(2, 1, 40));
        // At t=80: p0 = 80+10 = 90, p1 = 40+60 = 100 → class 1.
        assert_eq!(s.dequeue(t(80)).unwrap().class, 1);
    }

    #[test]
    fn additive_old_low_class_packet_eventually_wins() {
        let mut s = additive_10_60();
        s.enqueue(pkt(1, 0, 0));
        s.enqueue(pkt(2, 1, 100));
        // At t=200: p0 = 210, p1 = 160 → class 0 despite the offset.
        assert_eq!(s.dequeue(t(200)).unwrap().class, 0);
    }

    #[test]
    #[cfg_attr(
        feature = "mutate-pifo-rank",
        ignore = "tie rule deliberately flipped by the mutation feature"
    )]
    fn additive_tie_prefers_higher_class() {
        let mut s = additive_10_60();
        s.enqueue(pkt(1, 0, 0));
        s.enqueue(pkt(2, 1, 50));
        // At t=100: p0 = 110, p1 = 110 → class 1.
        assert_eq!(s.dequeue(t(100)).unwrap().class, 1);
    }

    // ---- Strict ---------------------------------------------------------

    #[test]
    fn strict_serves_highest_backlogged_class() {
        let mut s = PifoCore::new("Strict", 3, StrictRank);
        s.enqueue(pkt(1, 0, 0));
        s.enqueue(pkt(2, 2, 0));
        s.enqueue(pkt(3, 1, 0));
        assert_eq!(s.dequeue(Time::ZERO).unwrap().class, 2);
        assert_eq!(s.dequeue(Time::ZERO).unwrap().class, 1);
        assert_eq!(s.dequeue(Time::ZERO).unwrap().class, 0);
    }

    #[test]
    fn strict_starves_low_class_under_high_load() {
        // A steady stream of class-1 packets starves class 0 indefinitely.
        let mut s = PifoCore::new("Strict", 2, StrictRank);
        s.enqueue(Packet::new(0, 0, 10, Time::ZERO));
        for i in 1..=50 {
            s.enqueue(Packet::new(i, 1, 10, t(i)));
        }
        for _ in 0..50 {
            assert_eq!(s.dequeue(t(100)).unwrap().class, 1);
        }
        assert_eq!(s.dequeue(t(100)).unwrap().class, 0);
    }

    // ---- LSTF -----------------------------------------------------------

    #[test]
    fn lstf_tighter_budget_wins_at_equal_waits() {
        let sdp = Sdp::paper_default(); // budgets [8000, 4000, 2000, 1000]
        let mut s = PifoCore::new("LSTF", 4, LstfRank::with_default_base(sdp));
        for c in 0..4u8 {
            s.enqueue(pkt(c as u64, c, 0));
        }
        // Equal waits: least slack = tightest budget = highest class.
        let order: Vec<u8> = std::iter::from_fn(|| s.dequeue(t(10)))
            .map(|p| p.class)
            .collect();
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn lstf_overdue_low_class_overtakes() {
        // budgets [8000, 1000]
        let mut s = PifoCore::new("LSTF", 2, LstfRank::new(sdp(&[1.0, 8.0]), 8_000.0));
        s.enqueue(pkt(1, 0, 0));
        s.enqueue(pkt(2, 1, 9_000));
        // At t=9500: slack_0 = 8000−9500 = −1500 < slack_1 = 1000−500.
        assert_eq!(s.dequeue(t(9_500)).unwrap().class, 0);
    }

    #[test]
    fn lstf_set_sdp_rederives_budgets() {
        let mut s = LstfRank::with_default_base(Sdp::paper_default());
        assert_eq!(s.budget(3), 1_000.0);
        assert!(s.set_sdp(&Sdp::geometric(4, 4.0).unwrap()));
        assert_eq!(s.budget(0), 8_000.0);
        assert_eq!(s.budget(3), 8_000.0 / 64.0);
    }
}
