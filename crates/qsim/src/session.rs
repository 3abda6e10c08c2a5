//! The single-link entry point: a [`Session`] composes workload × probe
//! × scenario × buffer and instantiates the one service loop
//! ([`serve`](crate::server::serve)) over them. Nothing else runs a link.

use scenario::{Scenario, ScenarioRuntime};
use sched::Scheduler;
use simcore::Time;
use telemetry::{MetricsRegistry, MonitorConfig, NoopProbe, PddMonitor, Probe, Tee};
use traffic::{ClassSource, MergedStream, SurgedSource, Trace, TraceEntry};

use crate::lossy::{Buffer, LossMode, LossyReport};
use crate::scenario_run::Live;
use crate::server::{serve, Admission, Departure, NoScenario, Unbounded};

/// What a [`Session`] replays: time-ordered arrivals, as they are or
/// re-timed by a scenario's load surges. Every
/// `IntoIterator<Item = TraceEntry>` is one (recorded arrivals: their
/// instants are data, a surge is refused); so are live [`Sources`].
pub trait Workload {
    /// The arrivals of the stationary workload.
    fn arrivals(self) -> impl Iterator<Item = TraceEntry>;

    /// The arrivals under `scenario`'s load surges.
    fn surged(self, scenario: &Scenario) -> impl Iterator<Item = TraceEntry>;
}

impl<I: IntoIterator<Item = TraceEntry>> Workload for I {
    fn arrivals(self) -> impl Iterator<Item = TraceEntry> {
        self.into_iter()
    }

    fn surged(self, scenario: &Scenario) -> impl Iterator<Item = TraceEntry> {
        assert!(
            !scenario.has_load_surge(),
            "load_surge cannot re-time a prerecorded trace; use Session::sources"
        );
        self.into_iter()
    }
}

/// A live-source workload (O(sources) memory, arrivals drawn on the fly by
/// a [`MergedStream`] k-way merge — a block [ahead](MergedStream::ahead) of
/// the service loop, on a thread of its own, once the run proves long).
#[derive(Debug)]
pub struct Sources<'a> {
    sources: &'a [ClassSource],
    horizon: Time,
    base_seed: u64,
}

impl Workload for Sources<'_> {
    fn arrivals(self) -> impl Iterator<Item = TraceEntry> {
        MergedStream::per_source(self.sources.to_vec(), self.base_seed, self.horizon).ahead()
    }

    /// Each source draws through a [`SurgedSource`] carrying its class's
    /// gap-scale breakpoints; with none it is the identity, so unperturbed
    /// classes keep exactly their stationary arrivals.
    fn surged(self, scenario: &Scenario) -> impl Iterator<Item = TraceEntry> {
        let surged: Vec<SurgedSource<ClassSource>> = self
            .sources
            .iter()
            .map(|s| SurgedSource::new(s.clone(), scenario.gap_scale_breakpoints(s.class())))
            .collect();
        MergedStream::per_source(surged, self.base_seed, self.horizon).ahead()
    }
}

/// A composable single-link simulation run: workload × probe × scenario
/// (× buffer), the only way to run a link.
///
/// ```
/// use qsim::Session;
/// use sched::{Sdp, SchedulerKind};
/// use simcore::Time;
/// use traffic::{Trace, TraceEntry};
///
/// // Two same-time arrivals: WTP serves the higher class first.
/// let trace = Trace::from_entries(vec![
///     TraceEntry { at: Time::ZERO, class: 0, size: 100 },
///     TraceEntry { at: Time::ZERO, class: 1, size: 100 },
/// ]);
/// let mut sched = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
/// let mut order = Vec::new();
/// Session::trace(&trace, 1.0).run(sched.as_mut(), |d| order.push(d.packet.class));
/// assert_eq!(order, vec![1, 0]);
/// ```
///
/// [`probe`](Session::probe), [`scenario`](Session::scenario) and
/// [`lossy`](Session::lossy) chain before `run`; each axis left at its
/// default folds away at monomorphization.
#[derive(Debug)]
pub struct Session<W, P = NoopProbe> {
    workload: W,
    rate: f64,
    scenario: Scenario,
    probe: P,
}

impl<W: Workload> Session<W> {
    /// Serves `arrivals` — any iterator of entries in nondecreasing time
    /// order — on a link of `rate` bytes/tick.
    pub fn arrivals(arrivals: W, rate: f64) -> Self {
        Session {
            workload: arrivals,
            rate,
            scenario: Scenario::empty(),
            probe: NoopProbe,
        }
    }

    /// Runs the session with a [`MetricsRegistry`] attached and returns it
    /// — run metrics as a first-class output next to the departures.
    pub fn run_metered<S: Scheduler + ?Sized>(
        self,
        scheduler: &mut S,
        on_depart: impl FnMut(&Departure),
    ) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        self.probe(&mut registry).run(scheduler, on_depart);
        registry
    }

    /// [`run_metered`](Session::run_metered) plus an online [`PddMonitor`]
    /// configured by `cfg`, finalized before it is returned.
    pub fn run_monitored<S: Scheduler + ?Sized>(
        self,
        cfg: MonitorConfig,
        scheduler: &mut S,
        on_depart: impl FnMut(&Departure),
    ) -> (MetricsRegistry, PddMonitor) {
        let mut registry = MetricsRegistry::new();
        let mut monitor = PddMonitor::new(cfg);
        self.probe(Tee(&mut registry, &mut monitor))
            .run(scheduler, on_depart);
        monitor.finish();
        (registry, monitor)
    }
}

impl<'a> Session<std::iter::Copied<std::slice::Iter<'a, TraceEntry>>> {
    /// Replays `trace` (identical input through many schedulers).
    pub fn trace(trace: &'a Trace, rate: f64) -> Self {
        Session::arrivals(trace.entries().iter().copied(), rate)
    }
}

impl<'a> Session<Sources<'a>> {
    /// Streams `sources` until `horizon`, seeding source *i* with
    /// [`traffic::per_source_seed`]`(base_seed, i)` — the same workload,
    /// and so the same event stream, as replaying
    /// [`Trace::generate_per_source`] with the same arguments.
    pub fn sources(sources: &'a [ClassSource], horizon: Time, base_seed: u64, rate: f64) -> Self {
        let workload = Sources {
            sources,
            horizon,
            base_seed,
        };
        Session::arrivals(workload, rate)
    }
}

impl<W, P: Probe> Session<W, P> {
    /// Attaches a probe observing the packet lifecycle and scenario events.
    /// Pass `&mut sink` to keep ownership of sinks that need `finish()`.
    pub fn probe<Q: Probe>(self, probe: Q) -> Session<W, Q> {
        Session {
            workload: self.workload,
            rate: self.rate,
            scenario: self.scenario,
            probe,
        }
    }

    /// Attaches a perturbation timeline: live SDP swaps, link faults, load
    /// surges. An empty scenario (the default) runs the stationary loop.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Bounds the shared buffer to `buffer_bytes` with drop policy `mode`,
    /// turning the run lossy (the §7 extension).
    pub fn lossy(self, buffer_bytes: u64, mode: LossMode) -> LossySession<W, P> {
        LossySession {
            session: self,
            buffer_bytes,
            mode,
        }
    }
}

impl<W: Workload, P: Probe> Session<W, P> {
    /// Runs the session, invoking `on_depart` for every departure in order.
    ///
    /// # Panics
    /// Panics if the scenario holds a load surge and the arrivals are
    /// recorded, or if a scenario SDP's class count is not the scheduler's.
    // Inlined into the caller, like `run_with`, so that a literal `rate`
    // reaches the loop as a constant.
    #[inline]
    pub fn run<S: Scheduler + ?Sized>(self, scheduler: &mut S, on_depart: impl FnMut(&Departure)) {
        self.run_with(scheduler, &mut Unbounded(on_depart));
    }

    /// Instantiates the loop: the stationary one unless a timeline is set.
    #[inline]
    fn run_with<S: Scheduler + ?Sized, A: Admission>(self, scheduler: &mut S, buffer: &mut A) {
        // Taken apart by value: borrowing fields would pin the session in
        // memory and keep `rate` — a literal at most call sites — from
        // reaching the loop as a constant.
        let Session {
            workload,
            rate,
            scenario,
            mut probe,
        } = self;
        if scenario.is_empty() {
            let arrivals = workload.arrivals();
            serve(scheduler, arrivals, NoScenario(rate), buffer, &mut probe);
        } else {
            let arrivals = workload.surged(&scenario);
            let rt = ScenarioRuntime::new(&scenario, 1, scheduler.num_classes());
            serve(scheduler, arrivals, Live { rt, rate }, buffer, &mut probe);
        }
    }
}

/// A [`Session`] with a finite buffer; built by [`Session::lossy`].
#[derive(Debug)]
pub struct LossySession<W, P = NoopProbe> {
    session: Session<W, P>,
    buffer_bytes: u64,
    mode: LossMode,
}

impl<W: Workload, P: Probe> LossySession<W, P> {
    /// Runs the lossy session. Under a scenario, arrivals held by a
    /// `DownPolicy::Hold` fault still respect the buffer and
    /// `DownPolicy::Drop` fault drops count like buffer drops.
    ///
    /// # Panics
    /// Panics as [`Session::run`] does, or if a packet exceeds the buffer.
    pub fn run<S: Scheduler + ?Sized>(self, scheduler: &mut S) -> LossyReport {
        let mut buffer = Buffer::new(self.buffer_bytes, self.mode, scheduler.num_classes());
        self.session.run_with(scheduler, &mut buffer);
        buffer.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::DownPolicy;
    use sched::{SchedulerKind, Sdp};
    use traffic::{IatDist, SizeDist, TraceEntry};

    fn small_trace() -> Trace {
        Trace::from_entries(
            [
                (0u64, 0u8, 550u32),
                (10, 3, 40),
                (20, 1, 1500),
                (30, 2, 550),
            ]
            .iter()
            .map(|&(t, class, size)| TraceEntry {
                at: Time::from_ticks(t),
                class,
                size,
            })
            .collect(),
        )
    }

    #[test]
    fn default_session_equals_the_session_with_an_explicit_noop_probe() {
        let tr = small_trace();
        let mut via_session = Vec::new();
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        Session::trace(&tr, 1.0).run(s.as_mut(), |d| {
            via_session.push((d.packet.seq, d.start, d.finish))
        });
        let mut via_probed = Vec::new();
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        Session::arrivals(tr.entries().iter().copied(), 1.0)
            .probe(&mut NoopProbe)
            .run(s.as_mut(), |d| {
                via_probed.push((d.packet.seq, d.start, d.finish))
            });
        assert_eq!(via_session, via_probed);
    }

    #[test]
    fn probe_axis_observes_the_run() {
        let tr = small_trace();
        let mut registry = telemetry::MetricsRegistry::with_shape(1, 4);
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        Session::trace(&tr, 1.0)
            .probe(&mut registry)
            .run(s.as_mut(), |_| {});
        let departures: u64 = (0..4).map(|c| registry.class_total(c).departures).sum();
        assert_eq!(departures, 4);
    }

    #[test]
    fn lossy_axis_reports_drops() {
        // A same-instant burst is admitted before the head enters service,
        // so a 200-byte buffer holds two of the three packets.
        let tr = Trace::from_entries(vec![
            TraceEntry {
                at: Time::ZERO,
                class: 0,
                size: 100,
            },
            TraceEntry {
                at: Time::ZERO,
                class: 0,
                size: 100,
            },
            TraceEntry {
                at: Time::ZERO,
                class: 0,
                size: 100,
            },
        ]);
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let r = Session::trace(&tr, 1.0)
            .lossy(200, LossMode::TailDrop)
            .run(s.as_mut());
        assert_eq!(r.arrivals[0], 3);
        assert_eq!(r.drops[0], 1);
    }

    #[test]
    fn sources_session_equals_trace_session() {
        let sources = vec![ClassSource::new(
            0,
            IatDist::deterministic(100.0).unwrap(),
            SizeDist::fixed(50),
        )];
        // 10 arrivals, and 30 000: past where the stream is handed to the
        // helper thread (`traffic::Ahead`), several blocks deep.
        for horizon in [1_000, 3_000_000].map(Time::from_ticks) {
            let trace = Trace::generate_per_source(&mut sources.clone(), horizon, 5);
            let mut a = Vec::new();
            let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
            Session::trace(&trace, 1.0).run(s.as_mut(), |d| a.push(d.finish));
            let mut b = Vec::new();
            let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
            Session::sources(&sources, horizon, 5, 1.0).run(s.as_mut(), |d| b.push(d.finish));
            assert_eq!(a.len() as u64, horizon.ticks() / 100);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scenario_axis_reaches_the_lossy_path() {
        let tr = Trace::from_entries(vec![
            TraceEntry {
                at: Time::from_ticks(0),
                class: 0,
                size: 100,
            },
            TraceEntry {
                at: Time::from_ticks(200),
                class: 0,
                size: 100,
            },
        ]);
        let sc = Scenario::builder()
            .link_down(Time::from_ticks(150), 0, DownPolicy::Drop)
            .link_up(Time::from_ticks(300), 0)
            .build()
            .unwrap();
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let r = Session::trace(&tr, 1.0)
            .scenario(sc)
            .lossy(10_000, LossMode::TailDrop)
            .run(s.as_mut());
        assert_eq!(r.drops[0], 1, "the downtime arrival is a fault drop");
    }

    #[test]
    fn metered_run_returns_the_registry() {
        let tr = small_trace();
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let mut n = 0u64;
        let reg = Session::trace(&tr, 1.0).run_metered(s.as_mut(), |_| n += 1);
        assert_eq!(n, 4);
        let departures: u64 = (0..4).map(|c| reg.class_total(c).departures).sum();
        assert_eq!(departures, 4);
        assert_eq!(reg.decisions(), 4);
        assert_eq!(reg.num_links(), 1);
    }

    #[test]
    fn metered_registry_matches_a_probed_registry() {
        let tr = small_trace();
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let reg = Session::trace(&tr, 1.0).run_metered(s.as_mut(), |_| {});
        let mut probed = telemetry::MetricsRegistry::with_shape(1, 4);
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        Session::trace(&tr, 1.0)
            .probe(&mut probed)
            .run(s.as_mut(), |_| {});
        assert_eq!(reg.to_json(), probed.to_json());
    }

    #[test]
    fn monitored_run_flags_the_engineered_miss() {
        // small_trace's class-0 packet is served with zero wait while the
        // later classes queue behind it, so pair 0 (d̄₀/d̄₁ = 0) inverts
        // against any target > 1.
        let tr = small_trace();
        let mut cfg = telemetry::MonitorConfig::new(10_000, 0.25, vec![2.0, 2.0, 2.0]);
        cfg.min_samples = 1;
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let (reg, monitor) = Session::trace(&tr, 1.0).run_monitored(cfg, s.as_mut(), |_| {});
        assert_eq!(reg.class_total(0).departures, 1);
        assert_eq!(monitor.windows_closed(), 1);
        assert!(
            monitor
                .violations()
                .iter()
                .any(|v| v.kind == telemetry::ViolationKind::Inversion),
            "expected an inversion: {:?}",
            monitor.violations()
        );
    }

    #[test]
    #[should_panic(expected = "load_surge cannot re-time a prerecorded trace")]
    fn load_surge_on_a_trace_is_rejected() {
        let tr = small_trace();
        let sc = Scenario::builder()
            .load_surge(Time::from_ticks(10), 0, 0.5)
            .build()
            .unwrap();
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        Session::trace(&tr, 1.0)
            .scenario(sc)
            .run(s.as_mut(), |_| {});
    }

    fn paper_sources(rho: f64) -> Vec<ClassSource> {
        traffic::LoadPlan::paper_study_a(rho)
            .unwrap()
            .pareto_sources()
            .unwrap()
    }

    /// `(class, arrival, start)` of every departure of a WTP session.
    fn wtp_departures<W: Workload>(session: Session<W>) -> Vec<(u8, Time, Time)> {
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let mut deps = Vec::new();
        session.run(s.as_mut(), |d| {
            deps.push((d.packet.class, d.packet.arrival, d.start))
        });
        deps
    }

    /// Horizons of ≈ 4 000 arrivals and of ≈ 41 000: the second is past
    /// where the stream moves to the helper thread (`traffic::Ahead`,
    /// 16 384 entries), six blocks deep and ending inside a seventh.
    const STREAM_HORIZONS: [u64; 2] = [2_000_000, 20_000_000];

    #[test]
    fn streaming_equals_trace_replay() {
        let sources = paper_sources(0.9);
        for horizon in STREAM_HORIZONS.map(Time::from_ticks) {
            let trace = Trace::generate_per_source(&mut sources.clone(), horizon, 21);
            let trace_deps = wtp_departures(Session::trace(&trace, 1.0));
            let stream_deps = wtp_departures(Session::sources(&sources, horizon, 21, 1.0));
            assert_eq!(trace_deps.len(), trace.len());
            assert_eq!(trace_deps.len(), stream_deps.len());
            assert!(trace_deps == stream_deps, "horizon {horizon:?} differs");
        }
    }

    #[test]
    fn streaming_under_a_surge_equals_its_recorded_arrivals() {
        // A surge is realized by the workload alone, so the session under
        // it is the plain session over the re-timed arrivals, recorded.
        let sources = paper_sources(0.9);
        for horizon in STREAM_HORIZONS.map(Time::from_ticks) {
            let sc = Scenario::builder()
                .load_surge(Time::from_ticks(horizon.ticks() / 2), 0, 0.8)
                .build()
                .unwrap();
            let surged = (sources.iter())
                .map(|s| SurgedSource::new(s.clone(), sc.gap_scale_breakpoints(s.class())))
                .collect();
            let recorded: Vec<TraceEntry> = MergedStream::per_source(surged, 21, horizon).collect();
            let stationary = Trace::generate_per_source(&mut sources.clone(), horizon, 21);
            assert!(recorded.len() > stationary.len(), "the surge adds arrivals");
            let recorded_deps = wtp_departures(Session::arrivals(recorded, 1.0));
            let stream_deps =
                wtp_departures(Session::sources(&sources, horizon, 21, 1.0).scenario(sc));
            assert!(recorded_deps == stream_deps, "horizon {horizon:?} differs");
        }
    }

    /// Arrivals every 10 ticks until the 20 000th, which it refuses.
    struct Bomb(u64);

    impl traffic::ArrivalSource for Bomb {
        fn class(&self) -> u8 {
            0
        }

        fn draw(&mut self, _rng: &mut rand::rngs::StdRng) -> (Time, u32) {
            self.0 += 1;
            assert!(self.0 < 20_000, "the source broke at {}", self.0);
            (Time::from_ticks(10 * self.0), 5)
        }
    }

    #[test]
    #[should_panic(expected = "the source broke at 20000")]
    fn a_source_that_panics_mid_block_panics_the_session() {
        // Past the hand-over to the helper thread, inside its first block:
        // were the helper's death read as the end of the stream, this
        // would be a quiet run of 16 384 packets.
        let arrivals = MergedStream::per_source(vec![Bomb(0)], 0, Time::MAX).ahead();
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let mut served = 0u64;
        Session::arrivals(arrivals, 1.0).run(s.as_mut(), |_| served += 1);
        unreachable!("the session ended after {served} packets");
    }

    #[test]
    fn streaming_handles_single_source() {
        let sources = vec![ClassSource::new(
            0,
            IatDist::deterministic(100.0).unwrap(),
            SizeDist::fixed(50),
        )];
        let mut s = SchedulerKind::Fcfs.build(&Sdp::new(&[1.0, 1.0]).unwrap(), 1.0);
        let mut count = 0;
        Session::sources(&sources, Time::from_ticks(1_000), 0, 1.0).run(s.as_mut(), |d| {
            count += 1;
            assert_eq!(d.wait().ticks(), 0); // load 0.5, deterministic: no queueing
        });
        assert_eq!(count, 10);
    }

    #[test]
    fn empty_sources_do_nothing() {
        let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
        let mut count = 0;
        Session::sources(&[], Time::from_ticks(100), 0, 1.0).run(s.as_mut(), |_| count += 1);
        assert_eq!(count, 0);
    }
}
