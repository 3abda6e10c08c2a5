//! Cross-scheduler property tests: invariants every work-conserving,
//! non-preemptive, lossless scheduler must satisfy, checked under random
//! traffic for every [`SchedulerKind`].

use proptest::prelude::*;

use crate::class::Sdp;
use crate::factory::SchedulerKind;
use crate::rank::{PifoCore, RankFn, RankKind};
use crate::testutil::{
    all_schedulers, arrivals_strategy, drive, drive_streaming, drive_with, sorted,
};

/// A rank function where every rank ties: every decision falls through to
/// the core's tie-break, exposing it directly to the property tests.
#[derive(Debug, Clone, Default)]
struct ConstRank;

impl RankFn for ConstRank {
    fn rank(&self, _class: usize, _head: &crate::packet::Packet, _now: simcore::Time) -> f64 {
        0.0
    }
}

/// Every kind whose `decision_values` audit its decision — the five
/// disciplines on the rank core, LSTF and BPR — with the sign that turns
/// its value into "largest wins": ranks are served by argmax, BPR's
/// remaining virtual work `L_i − v_i` by argmin.
const AUDITED_KINDS: [(SchedulerKind, f64); 7] = [
    (SchedulerKind::Strict, 1.0),
    (SchedulerKind::Additive, 1.0),
    (SchedulerKind::Wtp, 1.0),
    (SchedulerKind::Pad, 1.0),
    (SchedulerKind::Hpd, 1.0),
    (SchedulerKind::Pifo(RankKind::Lstf), 1.0),
    (SchedulerKind::Bpr, -1.0),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No packet is lost, duplicated, or served before it arrives, and
    /// per-class departures preserve arrival (FIFO) order.
    #[test]
    fn prop_lossless_causal_and_class_fifo(arrivals in arrivals_strategy()) {
        let arrivals = sorted(arrivals);
        for mut s in all_schedulers() {
            let deps = drive(s.as_mut(), &arrivals);
            prop_assert_eq!(deps.len(), arrivals.len(), "{} lost packets", s.name());
            let mut seqs: Vec<u64> = deps.iter().map(|d| d.seq).collect();
            seqs.sort_unstable();
            seqs.dedup();
            prop_assert_eq!(seqs.len(), arrivals.len(), "{} duplicated packets", s.name());
            for d in &deps {
                prop_assert!(d.start >= d.arrival, "{} served packet before arrival", s.name());
            }
            for class in 0..4u8 {
                let class_seqs: Vec<u64> = deps
                    .iter()
                    .filter(|d| d.class == class)
                    .map(|d| d.seq)
                    .collect();
                prop_assert!(
                    class_seqs.windows(2).all(|w| w[0] < w[1]),
                    "{} violated FIFO within class {class}",
                    s.name()
                );
            }
            prop_assert!(s.is_empty());
        }
    }

    /// The conservation law (Eq. 5, in byte form): the time-integral of the
    /// queued backlog, Σ_k size_k · wait_k, is identical for every
    /// work-conserving non-preemptive scheduler on the same trace.
    #[test]
    fn prop_conservation_law_across_schedulers(arrivals in arrivals_strategy()) {
        let arrivals = sorted(arrivals);
        let mut weighted_waits = Vec::new();
        let mut busy_ends = Vec::new();
        for mut s in all_schedulers() {
            let deps = drive(s.as_mut(), &arrivals);
            let ww: u128 = deps
                .iter()
                .map(|d| (d.size as u128) * ((d.start - d.arrival) as u128))
                .sum();
            weighted_waits.push((s.name(), ww));
            let end = deps.iter().map(|d| d.start + d.size as u64).max().unwrap_or(0);
            busy_ends.push((s.name(), end));
        }
        let first = weighted_waits[0].1;
        for (name, ww) in &weighted_waits {
            prop_assert_eq!(*ww, first, "conservation law violated by {}", name);
        }
        // Work conservation: the last departure instant is also invariant.
        let first_end = busy_ends[0].1;
        for (name, end) in &busy_ends {
            prop_assert_eq!(*end, first_end, "busy period differs for {}", name);
        }
    }

    /// On a shared saturated queue, WTP's long-run class delay ordering
    /// follows the SDPs: higher classes see smaller average waits.
    #[test]
    fn prop_wtp_orders_classes_under_saturation(seed in 0u64..1000) {
        // Deterministic batch arrivals derived from the seed: 4 packets
        // (one per class) every 100 ticks on a link that needs 160 ticks
        // per batch — saturation with bounded queues by the end.
        let mut arrivals = Vec::new();
        for k in 0..200u64 {
            for c in 0..4u8 {
                arrivals.push((k * 100 + (seed % 7), c, 40u32));
            }
        }
        arrivals.sort_by_key(|e| e.0);
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let deps = drive(s.as_mut(), &arrivals);
        let mut sum = [0.0f64; 4];
        let mut cnt = [0u64; 4];
        for d in &deps {
            sum[d.class as usize] += (d.start - d.arrival) as f64;
            cnt[d.class as usize] += 1;
        }
        let avg: Vec<f64> = (0..4).map(|c| sum[c] / cnt[c] as f64).collect();
        for c in 0..3 {
            prop_assert!(
                avg[c] >= avg[c + 1],
                "class {} avg {} < class {} avg {}",
                c, avg[c], c + 1, avg[c + 1]
            );
        }
    }

    /// PifoCore tie-break: with every rank equal, packets of the same
    /// class depart in arrival order, cross-class ties follow the
    /// documented higher-class rule (an all-ties core is
    /// decision-identical to strict priority), and the trace (slice) and
    /// streaming (iterator) replay paths agree bit-for-bit.
    #[test]
    #[cfg_attr(
        feature = "mutate-pifo-rank",
        ignore = "tie rule deliberately flipped by the mutation feature"
    )]
    fn prop_pifo_equal_ranks_depart_in_arrival_order(arrivals in arrivals_strategy()) {
        let arrivals = sorted(arrivals);
        let mut trace_core = PifoCore::new("PIFO(Const)", 4, ConstRank);
        let trace_deps = drive(&mut trace_core, &arrivals);
        let mut stream_core = PifoCore::new("PIFO(Const)", 4, ConstRank);
        let stream_deps = drive_streaming(&mut stream_core, arrivals.iter().copied());
        prop_assert_eq!(&trace_deps, &stream_deps, "replay paths diverged");
        for class in 0..4u8 {
            let class_seqs: Vec<u64> = trace_deps
                .iter()
                .filter(|d| d.class == class)
                .map(|d| d.seq)
                .collect();
            prop_assert!(
                class_seqs.windows(2).all(|w| w[0] < w[1]),
                "equal ranks violated arrival order within class {class}"
            );
        }
        let mut strict = SchedulerKind::Strict.build(&Sdp::paper_default(), 1.0);
        let strict_deps = drive(strict.as_mut(), &arrivals);
        prop_assert_eq!(&trace_deps, &strict_deps, "all-ties core is not strict priority");
    }

    /// The decision audit has teeth: at every decision instant the
    /// winner re-derived from `decision_values` under the documented tie
    /// rule (largest value, ties to the **higher** class) is the class
    /// `dequeue` then serves, and reading the values is read-only. A
    /// tie-break drift inside a scheduler cannot hide behind agreeing
    /// values.
    #[test]
    #[cfg_attr(
        feature = "mutate-pifo-rank",
        ignore = "tie rule deliberately flipped by the mutation feature"
    )]
    fn prop_decision_values_predict_the_winner(arrivals in arrivals_strategy()) {
        let arrivals = sorted(arrivals);
        let sdp = Sdp::paper_default();
        for (kind, sign) in AUDITED_KINDS {
            let mut s = kind.build(&sdp, 1.0);
            let mut disagreements = Vec::new();
            let (mut values, mut again) = (Vec::new(), Vec::new());
            drive_with(s.as_mut(), &arrivals, |s, now| {
                values.clear();
                again.clear();
                s.decision_values(now, &mut values);
                s.decision_values(now, &mut again);
                let mut predicted: Option<(usize, f64)> = None;
                for &(c, v) in &values {
                    if predicted.is_none_or(|(_, best)| sign * v >= sign * best) {
                        predicted = Some((c, v));
                    }
                }
                let pkt = s.dequeue(now);
                let served = pkt.map(|p| p.class as usize);
                if values != again || predicted.map(|(c, _)| c) != served {
                    disagreements.push(format!(
                        "t={now:?}: values {values:?} (re-read {again:?}) predict \
                         {predicted:?}, dequeue served class {served:?}"
                    ));
                }
                pkt
            });
            prop_assert!(disagreements.is_empty(), "{}: {}", kind.name(), disagreements[0]);
        }
    }

    /// Every shipped rank kind keeps FIFO within a class and produces
    /// identical departures on the trace and streaming replay paths.
    #[test]
    fn prop_pifo_kinds_agree_across_replay_paths(arrivals in arrivals_strategy()) {
        let arrivals = sorted(arrivals);
        let sdp = Sdp::paper_default();
        for kind in SchedulerKind::PIFO_ALL {
            let mut a = kind.build(&sdp, 1.0);
            let mut b = kind.build(&sdp, 1.0);
            let trace_deps = drive(a.as_mut(), &arrivals);
            let stream_deps = drive_streaming(b.as_mut(), arrivals.iter().copied());
            prop_assert_eq!(&trace_deps, &stream_deps, "{} paths diverged", kind.name());
            for class in 0..4u8 {
                let class_seqs: Vec<u64> = trace_deps
                    .iter()
                    .filter(|d| d.class == class)
                    .map(|d| d.seq)
                    .collect();
                prop_assert!(
                    class_seqs.windows(2).all(|w| w[0] < w[1]),
                    "{} violated FIFO within class {class}",
                    kind.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `drop_newest` removes exactly the most recent packet of the class
    /// (or nothing), preserves every other packet, and keeps byte
    /// accounting consistent — for every scheduler that supports push-out.
    #[test]
    fn prop_drop_newest_removes_only_the_tail(
        arrivals in prop::collection::vec((0u64..1000, 0u8..4, 40u32..1500), 1..50),
        victim in 0usize..4,
    ) {
        let sdp = Sdp::paper_default();
        for kind in SchedulerKind::ALL {
            let mut s = kind.build(&sdp, 1.0);
            let mut sorted = arrivals.clone();
            sorted.sort_by_key(|e| e.0);
            for (i, &(t, c, sz)) in sorted.iter().enumerate() {
                s.enqueue(crate::packet::Packet::new(
                    i as u64,
                    c,
                    sz,
                    simcore::Time::from_ticks(t),
                ));
            }
            let before_packets = s.backlog_packets(victim);
            let before_bytes = s.backlog_bytes(victim);
            let total_before = s.total_backlog_packets();
            // The newest packet of the victim class (insertion order; ties
            // in arrival time are resolved by enqueue order).
            let expected_seq = sorted
                .iter()
                .enumerate()
                .filter(|(_, e)| e.1 as usize == victim)
                .map(|(i, _)| i as u64)
                .next_back();
            match s.drop_newest(victim) {
                Some(p) => {
                    prop_assert_eq!(Some(p.seq), expected_seq, "{} dropped wrong packet", kind.name());
                    prop_assert_eq!(p.class as usize, victim);
                    prop_assert_eq!(s.backlog_packets(victim), before_packets - 1);
                    prop_assert_eq!(s.backlog_bytes(victim), before_bytes - p.size as u64);
                    prop_assert_eq!(s.total_backlog_packets(), total_before - 1);
                }
                None => {
                    // Only legal when the class was empty (every scheduler in
                    // this crate supports push-out).
                    prop_assert_eq!(before_packets, 0, "{} refused a backlogged drop", kind.name());
                }
            }
            // The remaining packets all drain normally.
            let mut drained = 0usize;
            let mut now = simcore::Time::from_ticks(10_000);
            while let Some(p) = s.dequeue(now) {
                drained += 1;
                now += simcore::Dur::from_ticks(p.size as u64);
            }
            prop_assert_eq!(drained, s.total_backlog_packets() + drained); // s now empty
            prop_assert!(s.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A push-out leaves no trace: enqueueing a packet at a decision
    /// instant and at once pushing it out again (`drop_newest` of its
    /// class) must leave every later decision as it was — the run drains
    /// in the order the arrivals alone drain in.
    #[test]
    fn prop_push_out_leaves_no_trace(
        arrivals in arrivals_strategy(),
        at_decision in 0usize..200,
        class in 0u8..4,
        size in prop_oneof![Just(40u32), Just(550), Just(1500)],
    ) {
        let arrivals = sorted(arrivals);
        let sdp = Sdp::paper_default();
        let kinds = SchedulerKind::ALL.into_iter().chain(SchedulerKind::PIFO_ALL);
        for kind in kinds {
            let mut plain = kind.build(&sdp, 1.0);
            let alone = drive(plain.as_mut(), &arrivals);
            let mut s = kind.build(&sdp, 1.0);
            let mut decision = 0;
            let pushed_out = drive_with(s.as_mut(), &arrivals, |s, now| {
                if decision == at_decision % arrivals.len() {
                    // The first class from `class` on with nothing queued,
                    // if any: its next arrival reads what the push-out left.
                    let class = (class..class + 4)
                        .map(|c| c % 4)
                        .find(|&c| s.backlog_packets(c.into()) == 0)
                        .unwrap_or(class);
                    s.enqueue(crate::packet::Packet::new(u64::MAX, class, size, now));
                    assert_eq!(s.drop_newest(class.into()).map(|p| p.seq), Some(u64::MAX));
                }
                decision += 1;
                s.dequeue(now)
            });
            prop_assert_eq!(&pushed_out, &alone, "{} kept a trace of the push-out", kind.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The totals a scheduler reports are its classes' sums: after every
    /// enqueue, dequeue and push-out, `is_empty`, `total_backlog_packets`
    /// and `total_backlog_bytes` agree with the per-class backlogs. The
    /// class-queue schedulers answer the three from running totals that
    /// every path in and out of a queue must keep.
    #[test]
    fn prop_totals_match_the_classes(
        ops in prop::collection::vec((0u8..4, 0u8..4, 40u32..1500), 1..200),
    ) {
        let sdp = Sdp::paper_default();
        for kind in SchedulerKind::ALL.into_iter().chain(SchedulerKind::PIFO_ALL) {
            let mut s = kind.build(&sdp, 1.0);
            let mut now = simcore::Time::ZERO;
            for (i, &(op, class, size)) in ops.iter().enumerate() {
                // Enqueues are half the operations, so queues build up.
                match op {
                    0 | 1 => s.enqueue(crate::packet::Packet::new(i as u64, class, size, now)),
                    2 => {
                        if let Some(p) = s.dequeue(now) {
                            now += simcore::Dur::from_ticks(p.size.into());
                        }
                    }
                    _ => {
                        s.drop_newest(class.into());
                    }
                }
                now += simcore::Dur::from_ticks(10);
                let packets: usize = (0..4).map(|c| s.backlog_packets(c)).sum();
                let bytes: u64 = (0..4).map(|c| s.backlog_bytes(c)).sum();
                let at = format!("{} after operation {i} ({op}, {class}, {size})", kind.name());
                prop_assert_eq!(s.is_empty(), packets == 0, "{}", at);
                prop_assert_eq!(s.total_backlog_packets(), packets, "{}", at);
                prop_assert_eq!(s.total_backlog_bytes(), bytes, "{}", at);
            }
        }
    }
}

/// The three-packet case of [`prop_push_out_leaves_no_trace`] for the
/// fair-queueing kinds, on equal weights: class 1 (150 B) and class 0
/// (100 B) arrive, the class-0 packet is pushed out, and a second class-0
/// packet (100 B) arrives. Its finish tag is 100, below class 1's 150 —
/// unless the pushed-out packet's tag outlived it.
#[test]
fn pushed_out_finish_tag_does_not_outlive_its_packet() {
    let sdp = Sdp::new(&[1.0, 1.0]).unwrap();
    let pkt = |seq, class, size| crate::packet::Packet::new(seq, class, size, simcore::Time::ZERO);
    for kind in [SchedulerKind::Wfq, SchedulerKind::Wf2q, SchedulerKind::Scfq] {
        let mut s = kind.build(&sdp, 1.0);
        s.enqueue(pkt(1, 1, 150));
        s.enqueue(pkt(2, 0, 100));
        assert_eq!(s.drop_newest(0).map(|p| p.seq), Some(2), "{kind}");
        s.enqueue(pkt(3, 0, 100));
        let first = s.dequeue(simcore::Time::ZERO).map(|p| p.seq);
        assert_eq!(first, Some(3), "{kind} served class 1 first");
    }
}

#[test]
fn drive_handles_empty_input() {
    let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    assert!(drive(s.as_mut(), &[]).is_empty());
}

#[test]
fn drive_respects_idle_gaps() {
    let mut s = SchedulerKind::Fcfs.build(&Sdp::paper_default(), 1.0);
    let deps = drive(s.as_mut(), &[(0, 0, 100), (500, 1, 100)]);
    assert_eq!(deps[0].start, 0);
    assert_eq!(deps[1].start, 500); // idle from 100 to 500
}
