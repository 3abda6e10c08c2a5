//! The probe trait, the zero-cost no-op, and the fan-out combinator.

use simcore::Time;

/// Identity of a packet as seen by a probe event.
///
/// `span` is the end-to-end trace id: constant across every hop of a
/// multi-hop journey (the multi-hop engine stores its per-packet
/// correlation tag here), so one packet's whole path shares one id. On a
/// single link `span == seq`. `seq` and `arrival` in the events are always
/// local to the hop that emitted them; `hop` says which hop that is (0 on
/// a single link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketId {
    /// End-to-end trace/span id (constant across hops).
    pub span: u64,
    /// Hop-local sequence number.
    pub seq: u64,
    /// Service class, 0-based; higher index = higher class.
    pub class: u8,
    /// Length in bytes.
    pub size: u32,
    /// Which hop emitted the event (0 on a single link).
    pub hop: u16,
}

impl PacketId {
    /// A single-link id: span = seq, hop = 0.
    pub fn single_link(seq: u64, class: u8, size: u32) -> Self {
        PacketId {
            span: seq,
            seq,
            class,
            size,
            hop: 0,
        }
    }
}

/// A packet-lifecycle and engine observer.
///
/// Instrumented loops are generic over `P: Probe` and wrap every call in
/// `if P::ENABLED { … }`. With [`NoopProbe`] that constant is `false`, the
/// branches fold away at monomorphization time, and the instrumented loop
/// compiles to the uninstrumented one — *zero*-cost, not merely cheap
/// (that instantiation is what the repo benchmark's replay workloads time).
///
/// All methods default to no-ops so probes implement only what they need.
/// Within one hop, events for a packet arrive in lifecycle order
/// (arrival → enqueue → decision naming its class → depart, or
/// arrival → drop); times are nondecreasing per hop. An arrival is
/// followed immediately by its enqueue or drop *at the same instant*, and
/// a decision at `t` by its departure at `finish >= t` — probes tracking
/// the observed time span may rely on this (the metrics registry skips
/// span upkeep in `on_arrival`/`on_decision` because of it).
pub trait Probe {
    /// Whether instrumented code should construct and emit records at all.
    /// Leave `true` for any probe that observes anything.
    const ENABLED: bool = true;

    /// Whether this probe consumes the `values` audit slice passed to
    /// [`on_decision`](Self::on_decision). Computing it costs the scheduler
    /// a full per-class pass *per decision*, so counter-only probes (the
    /// metrics registry, the conformance monitor) opt out and receive an
    /// empty slice; instrumented loops skip the audit when this is `false`.
    /// Defaults to `true` so recording probes stay complete by default.
    const WANTS_DECISION_VALUES: bool = true;

    /// A packet was offered to the system at `at` (before any buffer
    /// admission decision).
    fn on_arrival(&mut self, at: Time, id: PacketId) {
        let _ = (at, id);
    }

    /// A packet was admitted into its class queue at `at`.
    fn on_enqueue(&mut self, at: Time, id: PacketId) {
        let _ = (at, id);
    }

    /// The scheduler picked `winner` at decision instant `at`.
    ///
    /// `values` is the scheduler's internal decision record — per-class
    /// `(class, value)` pairs in class order, covering at least the
    /// backlogged classes. The meaning of `value` is per scheduler: the
    /// rank-core disciplines (WTP, PAD, HPD, Additive, Strict, LSTF)
    /// report each head's rank — for WTP the normalized head-of-line
    /// priority `w_i(t)·s_i` — and BPR the head's remaining virtual work
    /// `L_i − v_i(t)` (its service-share deficit). Schedulers without an
    /// audit hook (FCFS, the fair-queueing baselines) report an empty
    /// slice.
    fn on_decision(
        &mut self,
        at: Time,
        scheduler: &'static str,
        winner: PacketId,
        values: &[(usize, f64)],
    ) {
        let _ = (at, scheduler, winner, values);
    }

    /// A packet finished transmission.
    ///
    /// `arrival`/`start`/`finish` are hop-local. `eol` (end of life) is
    /// `true` when the packet leaves the *system* — always on a single
    /// link, only at the exit hop of a multi-hop path — so sinks can close
    /// the packet's span exactly once.
    fn on_depart(&mut self, id: PacketId, arrival: Time, start: Time, finish: Time, eol: bool) {
        let _ = (id, arrival, start, finish, eol);
    }

    /// A packet was dropped at `at` (finite-buffer operation).
    ///
    /// `backlog_bytes` is the queued-byte occupancy at the drop instant
    /// (excluding the dropped packet), `buffer_bytes` the configured limit.
    fn on_drop(&mut self, at: Time, id: PacketId, backlog_bytes: u64, buffer_bytes: u64) {
        let _ = (at, id, backlog_bytes, buffer_bytes);
    }

    /// Periodic engine progress: virtual time, events handled so far, and
    /// the current event-queue depth. Emitted by the discrete-event runner
    /// every N events so multi-minute runs are observably alive.
    fn on_heartbeat(&mut self, at: Time, events_handled: u64, heap_depth: usize) {
        let _ = (at, events_handled, heap_depth);
    }

    /// A dynamic-scenario timeline event was applied at `at` — a live SDP
    /// swap, link-rate change, link fault, class membership change, or load
    /// surge (see the `scenario` crate). `link` is the affected link index
    /// (0 on a single link; the scenario runtime uses it for the class index
    /// of class-scoped events). `kind` is the event's stable name
    /// (`"set_sdp"`, `"link_down"`, …) and `value` its scalar payload
    /// (new rate, gap scale, …; 0 when the event carries none).
    fn on_scenario_event(&mut self, at: Time, link: u16, kind: &'static str, value: f64) {
        let _ = (at, link, kind, value);
    }
}

/// The zero-cost probe: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
    const WANTS_DECISION_VALUES: bool = false;
}

/// Forwarding impl so loops can take `&mut P` without consuming the probe.
impl<P: Probe + ?Sized> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;
    const WANTS_DECISION_VALUES: bool = P::WANTS_DECISION_VALUES;

    fn on_arrival(&mut self, at: Time, id: PacketId) {
        (**self).on_arrival(at, id);
    }

    fn on_enqueue(&mut self, at: Time, id: PacketId) {
        (**self).on_enqueue(at, id);
    }

    fn on_decision(
        &mut self,
        at: Time,
        scheduler: &'static str,
        winner: PacketId,
        values: &[(usize, f64)],
    ) {
        (**self).on_decision(at, scheduler, winner, values);
    }

    fn on_depart(&mut self, id: PacketId, arrival: Time, start: Time, finish: Time, eol: bool) {
        (**self).on_depart(id, arrival, start, finish, eol);
    }

    fn on_drop(&mut self, at: Time, id: PacketId, backlog_bytes: u64, buffer_bytes: u64) {
        (**self).on_drop(at, id, backlog_bytes, buffer_bytes);
    }

    fn on_heartbeat(&mut self, at: Time, events_handled: u64, heap_depth: usize) {
        (**self).on_heartbeat(at, events_handled, heap_depth);
    }

    fn on_scenario_event(&mut self, at: Time, link: u16, kind: &'static str, value: f64) {
        (**self).on_scenario_event(at, link, kind, value);
    }
}

/// Fans every event out to two probes (nest for more): metrics *and* a
/// trace sink in one replay, still fully monomorphized.
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Probe, B: Probe> Probe for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const WANTS_DECISION_VALUES: bool = A::WANTS_DECISION_VALUES || B::WANTS_DECISION_VALUES;

    fn on_arrival(&mut self, at: Time, id: PacketId) {
        self.0.on_arrival(at, id);
        self.1.on_arrival(at, id);
    }

    fn on_enqueue(&mut self, at: Time, id: PacketId) {
        self.0.on_enqueue(at, id);
        self.1.on_enqueue(at, id);
    }

    fn on_decision(
        &mut self,
        at: Time,
        scheduler: &'static str,
        winner: PacketId,
        values: &[(usize, f64)],
    ) {
        self.0.on_decision(at, scheduler, winner, values);
        self.1.on_decision(at, scheduler, winner, values);
    }

    fn on_depart(&mut self, id: PacketId, arrival: Time, start: Time, finish: Time, eol: bool) {
        self.0.on_depart(id, arrival, start, finish, eol);
        self.1.on_depart(id, arrival, start, finish, eol);
    }

    fn on_drop(&mut self, at: Time, id: PacketId, backlog_bytes: u64, buffer_bytes: u64) {
        self.0.on_drop(at, id, backlog_bytes, buffer_bytes);
        self.1.on_drop(at, id, backlog_bytes, buffer_bytes);
    }

    fn on_heartbeat(&mut self, at: Time, events_handled: u64, heap_depth: usize) {
        self.0.on_heartbeat(at, events_handled, heap_depth);
        self.1.on_heartbeat(at, events_handled, heap_depth);
    }

    fn on_scenario_event(&mut self, at: Time, link: u16, kind: &'static str, value: f64) {
        self.0.on_scenario_event(at, link, kind, value);
        self.1.on_scenario_event(at, link, kind, value);
    }
}

/// An optional probe: `Some` forwards every event, `None` drops them — a
/// sink requested (or not) on a command line, still monomorphized.
impl<P: Probe> Probe for Option<P> {
    const ENABLED: bool = P::ENABLED;
    const WANTS_DECISION_VALUES: bool = P::WANTS_DECISION_VALUES;

    fn on_arrival(&mut self, at: Time, id: PacketId) {
        if let Some(p) = self {
            p.on_arrival(at, id);
        }
    }

    fn on_enqueue(&mut self, at: Time, id: PacketId) {
        if let Some(p) = self {
            p.on_enqueue(at, id);
        }
    }

    fn on_decision(
        &mut self,
        at: Time,
        scheduler: &'static str,
        winner: PacketId,
        values: &[(usize, f64)],
    ) {
        if let Some(p) = self {
            p.on_decision(at, scheduler, winner, values);
        }
    }

    fn on_depart(&mut self, id: PacketId, arrival: Time, start: Time, finish: Time, eol: bool) {
        if let Some(p) = self {
            p.on_depart(id, arrival, start, finish, eol);
        }
    }

    fn on_drop(&mut self, at: Time, id: PacketId, backlog_bytes: u64, buffer_bytes: u64) {
        if let Some(p) = self {
            p.on_drop(at, id, backlog_bytes, buffer_bytes);
        }
    }

    fn on_heartbeat(&mut self, at: Time, events_handled: u64, heap_depth: usize) {
        if let Some(p) = self {
            p.on_heartbeat(at, events_handled, heap_depth);
        }
    }

    fn on_scenario_event(&mut self, at: Time, link: u16, kind: &'static str, value: f64) {
        if let Some(p) = self {
            p.on_scenario_event(at, link, kind, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe that records which hooks fired, for combinator tests.
    #[derive(Default)]
    struct Recorder(Vec<&'static str>);

    impl Probe for Recorder {
        fn on_arrival(&mut self, _at: Time, _id: PacketId) {
            self.0.push("arrival");
        }
        fn on_enqueue(&mut self, _at: Time, _id: PacketId) {
            self.0.push("enqueue");
        }
        fn on_decision(&mut self, _at: Time, _s: &'static str, _w: PacketId, _v: &[(usize, f64)]) {
            self.0.push("decision");
        }
        fn on_depart(&mut self, _id: PacketId, _a: Time, _s: Time, _f: Time, _eol: bool) {
            self.0.push("depart");
        }
        fn on_drop(&mut self, _at: Time, _id: PacketId, _backlog: u64, _buffer: u64) {
            self.0.push("drop");
        }
        fn on_heartbeat(&mut self, _at: Time, _events: u64, _depth: usize) {
            self.0.push("heartbeat");
        }
        fn on_scenario_event(&mut self, _at: Time, _link: u16, _kind: &'static str, _v: f64) {
            self.0.push("scenario");
        }
    }

    /// A counter-only probe: opts out of the decision audit.
    struct Quiet;

    impl Probe for Quiet {
        const WANTS_DECISION_VALUES: bool = false;
    }

    /// Calls every hook once, in declaration order.
    fn every_hook(p: &mut impl Probe) {
        let t = Time::from_ticks(3);
        p.on_arrival(t, pid());
        p.on_enqueue(t, pid());
        p.on_decision(t, "WTP", pid(), &[(2, 1.0)]);
        p.on_depart(pid(), t, t, Time::from_ticks(4), true);
        p.on_drop(t, pid(), 10, 20);
        p.on_heartbeat(t, 5, 1);
        p.on_scenario_event(t, 0, "set_sdp", 0.0);
    }

    const ALL_HOOKS: [&str; 7] = [
        "arrival",
        "enqueue",
        "decision",
        "depart",
        "drop",
        "heartbeat",
        "scenario",
    ];

    fn pid() -> PacketId {
        PacketId::single_link(7, 2, 100)
    }

    // The assertions *should* be constant: they pin compile-time ENABLED
    // wiring that instrumented loops branch on.
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn noop_probe_is_disabled() {
        assert!(!NoopProbe::ENABLED);
        // And callable anyway (instrumented code may skip the gate).
        let mut p = NoopProbe;
        p.on_arrival(Time::ZERO, pid());
        p.on_heartbeat(Time::ZERO, 1, 2);
    }

    #[test]
    fn single_link_id_aliases_span_to_seq() {
        let id = pid();
        assert_eq!(id.span, 7);
        assert_eq!(id.seq, 7);
        assert_eq!(id.hop, 0);
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut tee = Tee(Recorder::default(), Recorder::default());
        tee.on_arrival(Time::ZERO, pid());
        tee.on_depart(pid(), Time::ZERO, Time::ZERO, Time::from_ticks(1), true);
        assert_eq!(tee.0 .0, vec!["arrival", "depart"]);
        assert_eq!(tee.1 .0, vec!["arrival", "depart"]);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn tee_enabled_is_or_of_parts() {
        assert!(!Tee::<NoopProbe, NoopProbe>::ENABLED);
        assert!(Tee::<Recorder, NoopProbe>::ENABLED);
        assert!(Tee::<NoopProbe, Recorder>::ENABLED);
    }

    #[test]
    fn option_forwards_every_hook_when_some_and_none_when_none() {
        let mut some = Some(Recorder::default());
        every_hook(&mut some);
        assert_eq!(some.unwrap().0, ALL_HOOKS);
        // A `None` of a recording type swallows every hook without a panic.
        let mut none: Option<Recorder> = None;
        every_hook(&mut none);
        assert!(none.is_none());
        // Beside a `Some` in a tee, only the `Some` side hears anything.
        let mut tee = Tee(None::<Recorder>, Some(Recorder::default()));
        every_hook(&mut tee);
        assert!(tee.0.is_none());
        assert_eq!(tee.1.unwrap().0, ALL_HOOKS);
    }

    // Compile-time wiring again: an `Option` takes its probe's constants.
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn option_constants_are_the_inner_probes() {
        assert!(<Option<Recorder>>::ENABLED);
        assert!(<Option<Recorder>>::WANTS_DECISION_VALUES);
        assert!(!<Option<NoopProbe>>::ENABLED);
        assert!(!<Option<NoopProbe>>::WANTS_DECISION_VALUES);
        assert!(<Option<Quiet>>::ENABLED);
        assert!(!<Option<Quiet>>::WANTS_DECISION_VALUES);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut r = Recorder::default();
        {
            let by_ref = &mut r;
            let mut fwd: &mut Recorder = by_ref;
            Probe::on_arrival(&mut fwd, Time::ZERO, pid());
        }
        assert_eq!(r.0, vec!["arrival"]);
    }
}
