//! Oracle differentials: a from-scratch WTP reference diffed against the
//! production scheduler, and the Eq. (7) feasibility witness check.
//!
//! The oracle deliberately shares **no code** with `sched::rank` or the
//! `qsim` replay loop: it keeps its own per-class FIFO queues, recomputes
//! every backlogged class's priority `w_i(t)·s_i` from scratch at each
//! decision instant, and applies the paper's rules directly — highest
//! priority wins, ties to the higher class, arrivals at a decision instant
//! are admitted before the decision, transmission takes
//! `max(1, round(size/rate))` ticks. Any divergence in who is served when
//! is a conformance failure, reported per decision instant.

use std::collections::VecDeque;
use std::fmt;

use sched::{PifoCore, Scheduler, SchedulerKind, Sdp, WtpRank};
use simcore::Time;

use crate::{class_mean_waits, replay, Arrival, Dep};

/// Transmission ticks for `size` bytes at `rate` bytes/tick (the model's
/// at-least-one-tick rule, restated independently of `qsim`).
pub(crate) fn tx_ticks(size: u32, rate: f64) -> u64 {
    ((size as f64 / rate).round() as u64).max(1)
}

/// The brute-force WTP reference: per-class FIFOs and nothing else.
#[derive(Debug, Clone)]
pub struct WtpOracle {
    queues: Vec<VecDeque<(u64, u64, u32)>>, // (seq, arrival_tick, size)
    sdps: Vec<f64>,
}

impl WtpOracle {
    /// Creates an oracle for the given SDPs.
    pub fn new(sdp: &Sdp) -> Self {
        WtpOracle {
            queues: vec![VecDeque::new(); sdp.num_classes()],
            sdps: (0..sdp.num_classes()).map(|c| sdp.get(c)).collect(),
        }
    }

    /// Admits one packet.
    pub fn enqueue(&mut self, seq: u64, class: u8, size: u32, arrival: u64) {
        self.queues[class as usize].push_back((seq, arrival, size));
    }

    /// True when no packet is queued.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// The winning class at tick `now`: maximum head-of-line
    /// `waiting · sdp`, ties to the **higher** class. Scans from the
    /// highest class down and replaces only on strictly greater priority,
    /// so the tie rule is structural, not numeric.
    pub fn winner(&self, now: u64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for c in (0..self.queues.len()).rev() {
            let Some(&(_, arrival, _)) = self.queues[c].front() else {
                continue;
            };
            let p = now.saturating_sub(arrival) as f64 * self.sdps[c];
            match best {
                Some((_, bp)) if p <= bp => {}
                _ => best = Some((c, p)),
            }
        }
        best.map(|(c, _)| c)
    }

    /// Serves the winning class's head packet at tick `now`.
    pub fn dequeue(&mut self, now: u64) -> Option<(u64, u64, u32, usize)> {
        let c = self.winner(now)?;
        let (seq, arrival, size) = self.queues[c].pop_front().expect("winner is backlogged");
        Some((seq, arrival, size, c))
    }
}

/// Replays `arrivals` through the oracle on a `rate` bytes/tick link.
pub fn oracle_replay(sdp: &Sdp, arrivals: &[Arrival], rate: f64) -> Vec<Dep> {
    let mut oracle = WtpOracle::new(sdp);
    let mut out = Vec::with_capacity(arrivals.len());
    let mut next = 0usize;
    let mut free = 0u64;
    let mut seq = 0u64;
    loop {
        if oracle.is_empty() {
            if next >= arrivals.len() {
                break;
            }
            let (t, c, sz) = arrivals[next];
            next += 1;
            oracle.enqueue(seq, c, sz, t);
            seq += 1;
            free = free.max(t);
        }
        while next < arrivals.len() && arrivals[next].0 <= free {
            let (t, c, sz) = arrivals[next];
            next += 1;
            oracle.enqueue(seq, c, sz, t);
            seq += 1;
        }
        let (pseq, arrival, size, class) = oracle.dequeue(free).expect("backlogged");
        let finish = free + tx_ticks(size, rate);
        out.push(Dep {
            seq: pseq,
            class: class as u8,
            size,
            arrival,
            start: free,
            finish,
        });
        free = finish;
    }
    out
}

/// How many trailing decision-audit records a [`Divergence`] carries.
pub const AUDIT_TAIL: usize = 8;

/// One decision-audit record from the production scheduler: what
/// [`Scheduler::decision_values`] reported at a decision instant, and who
/// won. This is the same audit stream the telemetry probes export; keeping
/// the tail of it in the divergence report turns "packet 4711 went the
/// wrong way" into "here are the head priorities for the 8 decisions
/// leading up to it".
#[derive(Debug, Clone)]
pub struct AuditRecord {
    /// Index in the departure sequence (0-based decision number).
    pub index: usize,
    /// Decision instant in ticks.
    pub at: u64,
    /// Class the production scheduler served.
    pub winner: u8,
    /// `(class, priority)` per backlogged class, in class order.
    pub values: Vec<(usize, f64)>,
}

impl fmt::Display for AuditRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  #{} t={} winner=class {}: values {:?}",
            self.index,
            self.at,
            self.winner + 1,
            self.values
        )
    }
}

/// A divergence between the production WTP and the oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index in the departure sequence where the paths first disagree.
    pub index: usize,
    /// What the oracle served at that decision instant.
    pub oracle: Option<Dep>,
    /// What the production scheduler served.
    pub system: Option<Dep>,
    /// Which comparison caught it.
    pub stage: &'static str,
    /// The last [`AUDIT_TAIL`] decision-audit records from the manual
    /// drive, oldest first. For decision-instant and manual-drive
    /// divergences these are the decisions immediately preceding the
    /// failure; for the replay stages (where the manual drive
    /// completed cleanly) they are the tail of the whole run.
    pub audit: Vec<AuditRecord>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WTP diverges from oracle at departure #{} [{}]: oracle served {:?}, system served {:?}",
            self.index, self.stage, self.oracle, self.system
        )?;
        if !self.audit.is_empty() {
            write!(f, "\nlast {} decision-audit records:", self.audit.len())?;
            for rec in &self.audit {
                write!(f, "\n{rec}")?;
            }
        }
        Ok(())
    }
}

/// Diffs the production WTP — [`WtpRank`] on the rank core — against the
/// oracle on one workload, at three levels:
///
/// 1. **decision instants** — a manual drive of the concrete
///    [`PifoCore<WtpRank>`] checks [`PifoCore::peek_winner`] against
///    [`WtpOracle::winner`] at every service decision *before* dequeuing;
/// 2. **departure sequence** — the `(seq, class, start)` record of that
///    drive must equal the oracle's;
/// 3. **replay path** — the production `qsim::Session::trace` path must produce
///    the same record, so the dyn-dispatch loop is covered too.
///
/// The `Err` variant is deliberately fat (it carries the audit tail): it
/// exists to be printed once on failure, never on a hot path.
#[allow(clippy::result_large_err)]
pub fn diff_wtp(sdp: &Sdp, arrivals: &[Arrival], rate: f64) -> Result<(), Divergence> {
    debug_assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
    let oracle_deps = oracle_replay(sdp, arrivals, rate);

    // Manual drive of the concrete scheduler, peeking at each decision.
    // The ring buffer keeps the last few decision audits so a divergence
    // report shows *why* the scheduler chose as it did, not just that the
    // choice differed.
    let mut wtp = PifoCore::new("WTP", sdp.num_classes(), WtpRank::new(sdp.clone()));
    let mut oracle = WtpOracle::new(sdp);
    let mut next = 0usize;
    let mut free = 0u64;
    let mut seq = 0u64;
    let mut index = 0usize;
    let mut audit: VecDeque<AuditRecord> = VecDeque::with_capacity(AUDIT_TAIL);
    let mut scratch: Vec<(usize, f64)> = Vec::new();
    loop {
        if wtp.total_backlog_packets() == 0 {
            if next >= arrivals.len() {
                break;
            }
            let (t, c, sz) = arrivals[next];
            next += 1;
            wtp.enqueue(sched::Packet::new(seq, c, sz, Time::from_ticks(t)));
            oracle.enqueue(seq, c, sz, t);
            seq += 1;
            free = free.max(t);
        }
        while next < arrivals.len() && arrivals[next].0 <= free {
            let (t, c, sz) = arrivals[next];
            next += 1;
            wtp.enqueue(sched::Packet::new(seq, c, sz, Time::from_ticks(t)));
            oracle.enqueue(seq, c, sz, t);
            seq += 1;
        }
        scratch.clear();
        wtp.decision_values(Time::from_ticks(free), &mut scratch);
        let peeked = wtp.peek_winner(Time::from_ticks(free));
        if audit.len() == AUDIT_TAIL {
            audit.pop_front();
        }
        audit.push_back(AuditRecord {
            index,
            at: free,
            winner: peeked.unwrap_or(usize::MAX) as u8,
            values: scratch.clone(),
        });
        let expected = oracle.winner(free);
        if peeked != expected {
            return Err(Divergence {
                index,
                oracle: expected.map(|c| placeholder_dep(c, free)),
                system: peeked.map(|c| placeholder_dep(c, free)),
                stage: "decision instant (peek_winner)",
                audit: audit.into(),
            });
        }
        let pkt = wtp
            .dequeue(Time::from_ticks(free))
            .expect("backlogged WTP must serve");
        audit.back_mut().expect("just pushed").winner = pkt.class;
        oracle.dequeue(free);
        let od = oracle_deps[index];
        if (pkt.seq, pkt.class, free) != (od.seq, od.class, od.start) {
            return Err(Divergence {
                index,
                oracle: Some(od),
                system: Some(Dep {
                    seq: pkt.seq,
                    class: pkt.class,
                    size: pkt.size,
                    arrival: pkt.arrival.ticks(),
                    start: free,
                    finish: free + tx_ticks(pkt.size, rate),
                }),
                stage: "departure sequence (manual drive)",
                audit: audit.into(),
            });
        }
        free += tx_ticks(pkt.size, rate);
        index += 1;
    }

    // Production replay path (Session::trace + Box<dyn Scheduler>).
    let system_deps = replay(SchedulerKind::Wtp, sdp, arrivals, rate);
    for (i, (s, o)) in system_deps.iter().zip(&oracle_deps).enumerate() {
        if (s.seq, s.class, s.start) != (o.seq, o.class, o.start) {
            return Err(Divergence {
                index: i,
                oracle: Some(*o),
                system: Some(*s),
                stage: "departure sequence (trace replay)",
                audit: audit.iter().cloned().collect(),
            });
        }
    }
    if system_deps.len() != oracle_deps.len() {
        return Err(Divergence {
            index: system_deps.len().min(oracle_deps.len()),
            oracle: oracle_deps.get(system_deps.len()).copied(),
            system: system_deps.get(oracle_deps.len()).copied(),
            stage: "departure count",
            audit: audit.into(),
        });
    }
    Ok(())
}

/// A synthetic [`Dep`] standing in for "class c would be served at t" in
/// decision-instant divergences, where no packet has departed yet.
fn placeholder_dep(class: usize, now: u64) -> Dep {
    Dep {
        seq: u64::MAX,
        class: class as u8,
        size: 0,
        arrival: 0,
        start: now,
        finish: now,
    }
}

/// The Eq. (7) feasibility witness check: the per-class mean delays a
/// work-conserving scheduler **achieves** on a trace are, by construction,
/// a feasible operating point — so `stats::check_feasibility` must accept
/// them. Run at `rate = 1.0`, where the integer-tick replay and the
/// float FCFS reference in `stats` agree exactly.
///
/// Callers must feed **uniform-packet-size** workloads (e.g.
/// [`crate::uniform_overloaded_arrivals`]): `stats` weighs the constraint
/// Σ λ_φ·d̄_φ by packet rates, which equals the byte-weighted quantity Eq.
/// 5 actually conserves only when every packet is the same size. With
/// mixed sizes a scheduler whose waits correlate with sizes legitimately
/// leaves the packet-weighted region (strict priority under the paper's
/// size mix sits ~12% below the full-set bound) — that is not a bug, so
/// the witness would be vacuously noisy there.
pub fn feasibility_witness(
    kind: SchedulerKind,
    sdp: &Sdp,
    arrivals: &[Arrival],
) -> Result<(), String> {
    if arrivals.is_empty() {
        return Ok(());
    }
    let deps = replay(kind, sdp, arrivals, 1.0);
    let achieved = class_mean_waits(&deps, sdp.num_classes());
    let report = stats::check_feasibility(arrivals, 1.0, &achieved);
    if report.feasible() {
        Ok(())
    } else {
        Err(format!(
            "{}'s achieved delays {achieved:?} rejected by Eq. (7): {report}",
            kind.name()
        ))
    }
}

/// Sanity net for the harness itself: the oracle replay must match the
/// metadata of the trace it was given (lossless, causal, class-FIFO).
pub fn oracle_self_check(sdp: &Sdp, arrivals: &[Arrival]) -> Result<(), String> {
    let deps = oracle_replay(sdp, arrivals, 1.0);
    if deps.len() != arrivals.len() {
        return Err(format!(
            "oracle lost packets: {} of {}",
            deps.len(),
            arrivals.len()
        ));
    }
    for d in &deps {
        if d.start < d.arrival {
            return Err(format!("oracle served before arrival: {d:?}"));
        }
    }
    for c in 0..sdp.num_classes() as u8 {
        let seqs: Vec<u64> = deps
            .iter()
            .filter(|d| d.class == c)
            .map(|d| d.seq)
            .collect();
        if !seqs.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("oracle violated FIFO within class {c}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overloaded_arrivals;

    #[test]
    fn oracle_serves_higher_class_on_zero_wait_tie() {
        let sdp = Sdp::paper_default();
        let deps = oracle_replay(&sdp, &[(5, 0, 100), (5, 2, 100), (5, 1, 100)], 1.0);
        // All three arrive together into an empty system: priorities are
        // all zero, so the tie rule alone decides — highest class first.
        let classes: Vec<u8> = deps.iter().map(|d| d.class).collect();
        assert_eq!(classes, vec![2, 1, 0]);
    }

    #[test]
    fn oracle_lets_long_waiting_low_class_overtake() {
        let sdp = Sdp::new(&[1.0, 2.0]).unwrap();
        // Class 0 waits 30 ticks (priority 30) vs class 1's 10·2 = 20.
        let deps = oracle_replay(&sdp, &[(0, 0, 100), (0, 0, 100), (80, 1, 100)], 1.0);
        assert_eq!(deps[1].class, 0);
    }

    #[test]
    fn idle_gaps_reset_the_oracle_clock() {
        let sdp = Sdp::paper_default();
        let deps = oracle_replay(&sdp, &[(0, 0, 50), (500, 1, 50)], 1.0);
        assert_eq!(deps[0].start, 0);
        assert_eq!(deps[1].start, 500);
    }

    #[test]
    #[cfg_attr(
        feature = "mutated",
        ignore = "diff intentionally fails under the seeded mutation"
    )]
    fn production_wtp_matches_oracle_on_random_overload() {
        let sdp = Sdp::paper_default();
        for seed in 0..20 {
            let arrivals = overloaded_arrivals(seed, 300);
            diff_wtp(&sdp, &arrivals, 1.0).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    #[cfg(feature = "mutated")]
    fn mutation_is_detected_by_the_oracle_diff() {
        // Non-vacuity: with the tie-break flip compiled in, the very first
        // zero-wait tie must diverge.
        let sdp = Sdp::paper_default();
        let err = diff_wtp(&sdp, &[(0, 0, 100), (0, 1, 100)], 1.0)
            .expect_err("flipped tie-break must be caught");
        assert_eq!(err.index, 0, "{err}");
        assert_eq!(err.stage, "decision instant (peek_winner)", "{err}");
    }

    #[test]
    fn achieved_delays_are_feasible_for_every_scheduler() {
        let sdp = Sdp::paper_default();
        let arrivals = crate::uniform_overloaded_arrivals(11, 250);
        for kind in SchedulerKind::ALL {
            feasibility_witness(kind, &sdp, &arrivals).unwrap();
        }
    }

    #[test]
    fn divergence_report_dumps_the_audit_tail() {
        let d = Divergence {
            index: 12,
            oracle: None,
            system: None,
            stage: "decision instant (peek_winner)",
            audit: vec![
                AuditRecord {
                    index: 11,
                    at: 4000,
                    winner: 2,
                    values: vec![(0, 120.0), (2, 90.0)],
                },
                AuditRecord {
                    index: 12,
                    at: 4100,
                    winner: 0,
                    values: vec![(0, 220.0), (2, 15.0)],
                },
            ],
        };
        let text = d.to_string();
        assert!(text.contains("last 2 decision-audit records"), "{text}");
        assert!(text.contains("#11 t=4000 winner=class 3"), "{text}");
        assert!(text.contains("(0, 220.0)"), "{text}");
    }

    #[cfg(feature = "mutated")]
    #[test]
    fn mutated_divergence_carries_audit_records() {
        let sdp = Sdp::paper_default();
        let err = diff_wtp(&sdp, &[(0, 0, 100), (0, 1, 100)], 1.0)
            .expect_err("flipped tie-break must be caught");
        assert!(!err.audit.is_empty(), "divergence should carry audit tail");
        assert!(err.to_string().contains("decision-audit"), "{err}");
    }

    #[test]
    fn oracle_self_check_passes() {
        let sdp = Sdp::paper_default();
        oracle_self_check(&sdp, &overloaded_arrivals(2, 200)).unwrap();
        oracle_self_check(&sdp, &[]).unwrap();
    }
}
