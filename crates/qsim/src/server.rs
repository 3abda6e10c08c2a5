//! The single-link service loop and its policy axes.

use sched::{Packet, Scheduler};
use simcore::{Dur, Time};
use telemetry::{PacketId, Probe};
use traffic::TraceEntry;

/// One packet departure from the link.
#[derive(Debug, Clone, Copy)]
pub struct Departure {
    /// The packet as the scheduler saw it.
    pub packet: Packet,
    /// When transmission began.
    pub start: Time,
    /// When transmission completed (start + size/rate).
    pub finish: Time,
}

impl Departure {
    /// Queueing (waiting) delay: arrival → start of transmission. This is
    /// the paper's "queueing delay" metric.
    pub fn wait(&self) -> Dur {
        self.start - self.packet.arrival
    }

    /// Sojourn time: arrival → end of transmission.
    pub fn sojourn(&self) -> Dur {
        self.finish - self.packet.arrival
    }
}

/// Transmission time of `size` bytes at `rate` bytes/tick: the quotient
/// rounded half away from zero, and at least one tick. The one link model
/// of the workspace: this loop (through its per-size memo), `netsim`'s
/// coupled engine and its decomposition all time their transmissions here.
#[inline]
pub fn tx_ticks(size: u32, rate: f64) -> u64 {
    ((size as f64 / rate).round() as u64).max(1)
}

/// [`tx_ticks`] memoised by packet size at one link rate. A departure
/// adds its transmission time to the clock before the next decision, so
/// the divide, the `round` and the conversions sit on the service loop's
/// serial chain; a trace holds few sizes, and a table lookup takes them
/// off it. The table
/// is filled lazily and keyed on the rate's bits: a rate change (a
/// scenario's `SetLinkRate`) empties it.
struct TxMemo {
    rate: u64,
    /// Ticks by size; 0 is "not yet computed" (a transmission takes at
    /// least one tick).
    ticks: Vec<u64>,
}

impl TxMemo {
    /// The largest size memoised; larger ones go to [`tx_ticks`] each time.
    const MAX_SIZE: u32 = 65_535;

    fn new() -> Self {
        // The bits of 0.0, which no link runs at: the first lookup keys
        // the table.
        TxMemo {
            rate: 0,
            ticks: Vec::new(),
        }
    }

    /// The transmission time of `size` bytes at `rate`, from the table.
    #[inline]
    fn ticks(&mut self, size: u32, rate: f64) -> u64 {
        if rate.to_bits() != self.rate {
            self.rate = rate.to_bits();
            self.ticks.clear();
        }
        match self.ticks.get(size as usize) {
            Some(&t) if t != 0 => t,
            _ => self.fill(size, rate),
        }
    }

    #[cold]
    #[inline(never)]
    fn fill(&mut self, size: u32, rate: f64) -> u64 {
        let t = tx_ticks(size, rate);
        if size <= Self::MAX_SIZE {
            let i = size as usize;
            if i >= self.ticks.len() {
                self.ticks.resize(i + 1, 0);
            }
            self.ticks[i] = t;
        }
        t
    }
}

/// The buffer in front of the scheduler, and the ledger behind it. The
/// defaults are the §3 lossless regime ([`Unbounded`]);
/// [`Buffer`](crate::lossy::Buffer) is the §7 finite one.
pub(crate) trait Admission {
    /// Divergence (a): behind unbounded queues a backlogged scheduler must
    /// yield a packet; behind a finite buffer a `None` from `dequeue` is
    /// tolerated and the instant retried.
    const BOUNDED: bool;

    /// Whether arrival `e` is to be enqueued; every packet dropped on the
    /// way — `e` or what it pushes out — is reported here. `fault` is set
    /// while the link is down under `DownPolicy::Drop`: `e` is lost
    /// whatever the buffer holds.
    #[inline]
    fn admit<S: Scheduler + ?Sized, P: Probe>(
        &mut self,
        scheduler: &mut S,
        e: &TraceEntry,
        id: PacketId,
        fault: bool,
        probe: &mut P,
    ) -> bool {
        // Divergence (b): without a buffer a fault drop reports limit 0 — a
        // fault, not a buffer limit — and is counted nowhere.
        if fault && P::ENABLED {
            probe.on_drop(e.at, id, scheduler.total_backlog_bytes(), 0);
        }
        !fault
    }

    /// Observes the queue at a decision instant, before the dequeue.
    fn at_decision<S: Scheduler + ?Sized>(&mut self, _scheduler: &S) {}

    /// Receives every departure, in order.
    fn delivered(&mut self, d: &Departure);
}

/// Unbounded queues: everything offered is enqueued, and departures go to
/// the caller's closure.
pub(crate) struct Unbounded<F>(pub(crate) F);

impl<F: FnMut(&Departure)> Admission for Unbounded<F> {
    const BOUNDED: bool = false;

    #[inline]
    fn delivered(&mut self, d: &Departure) {
        (self.0)(d)
    }
}

/// The link's state over time. The defaults are the stationary link
/// ([`NoScenario`]); [`Live`](crate::scenario_run::Live) follows a scenario.
pub(crate) trait Timeline {
    /// Whether anything ever changes; `false` folds every visit away.
    const LIVE: bool;

    /// The link rate in force, bytes/tick.
    fn rate(&self) -> f64;

    /// Applies every event due at or before `now`.
    fn advance<S: Scheduler + ?Sized, P: Probe>(&mut self, _now: Time, _s: &mut S, _p: &mut P) {}

    /// Whether `class` is present (has not left).
    fn admits(&self, _class: u8) -> bool {
        true
    }

    /// Whether the link is down under `DownPolicy::Drop`.
    fn dropping(&self) -> bool {
        false
    }

    /// While the link is down, the instant of the next timeline event.
    fn down_until(&self) -> Option<Time> {
        None
    }
}

/// A stationary link of fixed rate.
pub(crate) struct NoScenario(pub(crate) f64);

impl Timeline for NoScenario {
    const LIVE: bool = false;

    #[inline]
    fn rate(&self) -> f64 {
        self.0
    }
}

/// The single-link service loop — the one definition of the link model.
/// Serves time-ordered `arrivals` through `scheduler`:
///
/// * non-preemptive: once transmission starts it completes;
/// * work-conserving: the link never idles while a packet is queued;
/// * arrivals at exactly a decision instant are enqueued *before* the
///   decision (arrival-before-departure tie rule).
///
/// The rest is policy, statically dispatched so that what a run does not
/// use folds away: buffer ([`Admission`]), perturbations ([`Timeline`]),
/// arrival source, and [`Probe`] (every call behind [`Probe::ENABLED`]).
/// With [`Unbounded`], [`NoScenario`] and `NoopProbe` what remains is
/// enqueue, dequeue and the clock, which advances by transmission times
/// looked up in a [`TxMemo`].
///
/// Probe events per packet (`span == seq`, `hop` 0): `on_arrival` then
/// `on_enqueue` or `on_drop`; `on_decision` with the scheduler's
/// `decision_values` audit; `on_depart` with `eol = true`.
#[inline]
pub(crate) fn serve<S, I, T, A, P>(
    scheduler: &mut S,
    arrivals: I,
    mut timeline: T,
    admission: &mut A,
    probe: &mut P,
) where
    S: Scheduler + ?Sized,
    I: IntoIterator<Item = TraceEntry>,
    T: Timeline,
    A: Admission,
    P: Probe,
{
    let rate = timeline.rate();
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    let mut arrivals = arrivals.into_iter().peekable();
    let mut free = Time::ZERO;
    let mut seq = 0u64;
    // Scratch for the decision audit, reused across decisions.
    let mut values: Vec<(usize, f64)> = Vec::new();
    let mut tx = TxMemo::new();
    loop {
        if scheduler.is_empty() {
            // Idle: the clock jumps to the next arrival, if there is one.
            let Some(e) = arrivals.peek() else { break };
            free = free.max(e.at);
        }
        while let Some(e) = arrivals.next_if(|e| e.at <= free) {
            timeline.advance(e.at, scheduler, probe);
            // Divergence (c): an arrival of a departed class leaves no
            // record and consumes no sequence number (the source is simply
            // gone); a dropped arrival was offered and consumes one.
            if !timeline.admits(e.class) {
                continue;
            }
            let id = PacketId::single_link(seq, e.class, e.size);
            seq += 1;
            if P::ENABLED {
                probe.on_arrival(e.at, id);
            }
            if admission.admit(scheduler, &e, id, timeline.dropping(), probe) {
                if P::ENABLED {
                    probe.on_enqueue(e.at, id);
                }
                scheduler.enqueue(Packet::new(id.seq, e.class, e.size, e.at));
            }
        }
        if T::LIVE {
            if scheduler.is_empty() {
                continue; // everything at this instant was filtered or dropped
            }
            timeline.advance(free, scheduler, probe);
            if let Some(next) = timeline.down_until() {
                // A downed link stalls service until the next timeline
                // event; validation guarantees a restoring LinkUp.
                free = next;
                continue;
            }
        }
        // Divergence (d): the buffer's high-water mark is sampled here, at
        // decision instants only — never between the arrivals of a batch.
        admission.at_decision(scheduler);
        if P::ENABLED && P::WANTS_DECISION_VALUES {
            values.clear();
            scheduler.decision_values(free, &mut values);
        }
        let Some(pkt) = scheduler.dequeue(free) else {
            if A::BOUNDED {
                continue;
            }
            panic!("work-conserving scheduler with backlog must dequeue");
        };
        let finish = free + Dur::from_ticks(tx.ticks(pkt.size, timeline.rate()));
        if P::ENABLED {
            let id = PacketId::single_link(pkt.seq, pkt.class, pkt.size);
            probe.on_decision(free, scheduler.name(), id, &values);
            probe.on_depart(id, pkt.arrival, free, finish, true);
        }
        admission.delivered(&Departure {
            packet: pkt,
            start: free,
            finish,
        });
        free = finish;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::{Fcfs, SchedulerKind, Sdp};
    use traffic::{Trace, TraceEntry};

    fn trace(entries: &[(u64, u8, u32)]) -> Trace {
        Trace::from_entries(
            entries
                .iter()
                .map(|&(t, class, size)| TraceEntry {
                    at: Time::from_ticks(t),
                    class,
                    size,
                })
                .collect(),
        )
    }

    /// The rates the memo is checked at: below, at and above the unit
    /// rate, the last with a quotient that rounds.
    const RATES: [f64; 3] = [0.5, 1.0, 3.0];

    /// A size drawn by `code`: zero, a packet size, one at the memo's cap,
    /// or one above it.
    fn memo_size(code: u8, n: u32) -> u32 {
        match code {
            0 => 0,
            1 => n % 1_600,
            2 => TxMemo::MAX_SIZE - 2 + n % 5,
            _ => TxMemo::MAX_SIZE + 1 + n,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The memo answers what `tx_ticks` computes, over any sequence of
        /// sizes and rates: a size seen before at another rate (the table
        /// must have been emptied), a size past the cap, and zero (one
        /// tick) alike.
        #[test]
        fn prop_memoised_ticks_equal_tx_ticks(
            steps in proptest::collection::vec((0u8..4, 0u32..200_000, 0usize..3), 1..200),
        ) {
            let mut memo = TxMemo::new();
            for &(code, n, r) in &steps {
                let (size, rate) = (memo_size(code, n), RATES[r]);
                proptest::prop_assert_eq!(
                    memo.ticks(size, rate),
                    tx_ticks(size, rate),
                    "size {} at rate {}",
                    size,
                    rate
                );
            }
        }
    }

    #[test]
    fn tx_ticks_rounds_half_up_and_never_returns_zero() {
        let just_above = |x: f64| f64::from_bits(x.to_bits() + 1);
        // 500 B at 25 Mb/s and at 1 Gb/s.
        assert_eq!(tx_ticks(500, 0.003125), 160_000);
        assert_eq!(tx_ticks(500, 0.125), 4_000);
        // A third of a tick and just under a half are clamped to one tick;
        // exactly a half rounds up to it.
        assert_eq!(tx_ticks(1, 3.0), 1);
        assert_eq!(tx_ticks(1, just_above(2.0)), 1);
        assert_eq!(tx_ticks(1, 2.0), 1);
        assert_eq!(tx_ticks(5, 2.0), 3);
        assert_eq!(tx_ticks(5, just_above(2.0)), 2);
        assert_eq!(tx_ticks(u32::MAX, 2.0), 1 << 31);
        // The least capacity a network link validates, the smallest
        // positive bits per second, is zero bytes per tick after the
        // division: the transmission saturates, it does not wrap.
        let slowest = f64::from_bits(1) / 8.0 / 1e9;
        assert_eq!(slowest, 0.0);
        assert_eq!(tx_ticks(u32::MAX, slowest), u64::MAX);
        assert_eq!(tx_ticks(1, f64::MAX), 1);
    }

    #[test]
    fn fcfs_waits_are_cumulative_backlog() {
        let tr = trace(&[(0, 0, 100), (0, 1, 100), (0, 0, 100)]);
        let mut s = Fcfs::new(2);
        let mut waits = Vec::new();
        crate::Session::trace(&tr, 1.0).run(&mut s, |d| waits.push(d.wait().ticks()));
        assert_eq!(waits, vec![0, 100, 200]);
    }

    #[test]
    fn idle_gaps_reset_the_clock() {
        let tr = trace(&[(0, 0, 50), (500, 0, 50)]);
        let mut s = Fcfs::new(1);
        let mut starts = Vec::new();
        crate::Session::trace(&tr, 1.0).run(&mut s, |d| starts.push(d.start.ticks()));
        assert_eq!(starts, vec![0, 500]);
    }

    #[test]
    fn rate_scales_transmission_time() {
        let tr = trace(&[(0, 0, 100), (0, 0, 100)]);
        let mut s = Fcfs::new(1);
        let mut finishes = Vec::new();
        crate::Session::trace(&tr, 2.0).run(&mut s, |d| finishes.push(d.finish.ticks()));
        assert_eq!(finishes, vec![50, 100]);
    }

    #[test]
    fn sojourn_includes_transmission() {
        let tr = trace(&[(10, 0, 100)]);
        let mut s = Fcfs::new(1);
        crate::Session::trace(&tr, 1.0).run(&mut s, |d| {
            assert_eq!(d.wait().ticks(), 0);
            assert_eq!(d.sojourn().ticks(), 100);
        });
    }

    #[test]
    fn arrival_at_decision_instant_is_seen() {
        // Packet B arrives exactly when A finishes; WTP must consider it.
        let tr = trace(&[(0, 0, 100), (100, 1, 100)]);
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let mut count = 0;
        crate::Session::trace(&tr, 1.0).run(s.as_mut(), |d| {
            count += 1;
            if d.packet.class == 1 {
                assert_eq!(d.start.ticks(), 100);
            }
        });
        assert_eq!(count, 2);
    }

    /// Records the full probe event stream as comparable strings.
    #[derive(Default)]
    struct Tape(Vec<String>);

    impl telemetry::Probe for Tape {
        fn on_arrival(&mut self, at: Time, id: PacketId) {
            self.0.push(format!("arr t={} seq={}", at.ticks(), id.seq));
        }
        fn on_enqueue(&mut self, at: Time, id: PacketId) {
            self.0.push(format!("enq t={} seq={}", at.ticks(), id.seq));
        }
        fn on_decision(
            &mut self,
            at: Time,
            scheduler: &'static str,
            winner: PacketId,
            values: &[(usize, f64)],
        ) {
            self.0.push(format!(
                "dec t={} {} win={} v={:?}",
                at.ticks(),
                scheduler,
                winner.class,
                values
            ));
        }
        fn on_depart(&mut self, id: PacketId, _a: Time, start: Time, finish: Time, eol: bool) {
            self.0.push(format!(
                "dep seq={} start={} finish={} eol={}",
                id.seq,
                start.ticks(),
                finish.ticks(),
                eol
            ));
        }
    }

    #[test]
    fn probed_replay_reports_the_full_lifecycle_in_order() {
        let tr = trace(&[(0, 0, 100), (0, 1, 100)]);
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let mut tape = Tape::default();
        let mut deps = Vec::new();
        crate::Session::trace(&tr, 1.0)
            .probe(&mut tape)
            .run(s.as_mut(), |d| deps.push(d.packet.class));
        assert_eq!(deps, vec![1, 0]);
        assert_eq!(
            tape.0,
            vec![
                "arr t=0 seq=0",
                "enq t=0 seq=0",
                "arr t=0 seq=1",
                "enq t=0 seq=1",
                // Both waited 0 at t=0; WTP's audit shows the zero-priority
                // tie and the tie rule sends class 1 out first.
                "dec t=0 WTP win=1 v=[(0, 0.0), (1, 0.0)]",
                "dep seq=1 start=0 finish=100 eol=true",
                "dec t=100 WTP win=0 v=[(0, 100.0)]",
                "dep seq=0 start=100 finish=200 eol=true",
            ]
        );
    }

    #[test]
    fn probed_replay_departures_match_unprobed() {
        let tr = trace(&[
            (0, 0, 550),
            (10, 3, 40),
            (20, 1, 1500),
            (30, 2, 550),
            (2000, 0, 40),
        ]);
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain(SchedulerKind::PIFO_ALL)
        {
            let mut plain = Vec::new();
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            crate::Session::trace(&tr, 1.0).run(s.as_mut(), |d| {
                plain.push((d.packet.seq, d.start, d.finish))
            });
            let mut probed = Vec::new();
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            let mut registry = telemetry::MetricsRegistry::with_shape(1, 4);
            crate::Session::trace(&tr, 1.0)
                .probe(&mut registry)
                .run(s.as_mut(), |d| {
                    probed.push((d.packet.seq, d.start, d.finish))
                });
            assert_eq!(plain, probed, "{} diverged under probing", kind.name());
            let departures: u64 = (0..4).map(|c| registry.class_total(c).departures).sum();
            assert_eq!(departures, 5, "{}", kind.name());
            assert_eq!(registry.decisions(), 5, "{}", kind.name());
        }
    }

    #[test]
    fn all_schedulers_complete_the_same_trace() {
        let tr = trace(&[
            (0, 0, 550),
            (10, 3, 40),
            (20, 1, 1500),
            (30, 2, 550),
            (2000, 0, 40),
        ]);
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain(SchedulerKind::PIFO_ALL)
        {
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            let mut n = 0;
            crate::Session::trace(&tr, 1.0).run(s.as_mut(), |_| n += 1);
            assert_eq!(n, 5, "{} dropped packets", kind.name());
        }
    }
}
