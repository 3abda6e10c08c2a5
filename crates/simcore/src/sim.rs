//! The simulation runner: an event loop over a [`Model`].

use crate::event::{EventKey, EventQueue};
use crate::time::{Dur, Time};

/// A discrete-event model.
///
/// The model owns all mutable simulation state; the runner feeds it one
/// event at a time, in `(time, seq)` order ([`EventKey`]), and collects the
/// follow-up events the model schedules through [`Context`].
///
/// A model may also hold events of its own in a *lane*, where it can keep
/// them more cheaply than the event queue would: events whose times it can
/// work out ahead of the run because they depend on nothing the run does —
/// an open-loop source's emissions, sorted in bulk — or events of which a
/// fixed few are pending at once — a link's one transmission in flight, in
/// a slot of its own. The runner handles, at every step, the smaller key of
/// the queue's earliest event and [`lane_peek`](Model::lane_peek), so a
/// lane changes where events wait, never the order they are handled in —
/// provided each lane event is keyed with the sequence number scheduling it
/// would have taken ([`Context::reserve_seq`], [`Simulation::reserve_seq`]).
/// The defaults describe a model without a lane.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handles one event occurring at `ctx.now()`.
    fn handle(&mut self, event: Self::Event, ctx: &mut Context<Self::Event>);

    /// Key of the lane's earliest event, if the model keeps a lane and it
    /// is not empty. Called between events only, so whatever the handlers
    /// reserved for that event is settled.
    #[inline]
    fn lane_peek(&mut self) -> Option<EventKey> {
        None
    }

    /// Removes and returns the event [`lane_peek`](Model::lane_peek) just
    /// reported; the runner hands it to [`handle`](Model::handle) next.
    fn lane_pop(&mut self) -> Self::Event {
        unreachable!("a model without a lane reports no lane event")
    }
}

/// Handle given to [`Model::handle`] for reading the clock and scheduling
/// follow-up events.
pub struct Context<E> {
    now: Time,
    /// Events scheduled by this handler, each under its final key.
    pending: Vec<(EventKey, E)>,
    stop: bool,
    /// The sequence number the next `schedule` or `reserve_seq` takes.
    next_seq: u64,
}

impl<E> Context<E> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time: discrete-event
    /// simulations must never schedule into the past.
    pub fn schedule(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let key = EventKey::new(at, self.reserve_seq());
        self.pending.push((key, event));
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: Dur, event: E) {
        let key = EventKey::new(self.now + delay, self.reserve_seq());
        self.pending.push((key, event));
    }

    /// Takes the sequence number a `schedule` call here would have given
    /// its event, without scheduling one: for an event the model keeps in
    /// its lane ([`Model::lane_peek`]) and keys with the number returned.
    ///
    /// Scheduled events and reservations draw on one counter in call
    /// order, so a handler may reserve before, between and after its
    /// `schedule` calls, exactly where the `schedule` it stands for was.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Requests that the run loop stop after this event is handled.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// Why a [`Simulation`] run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No event is pending: the queue (and the model's lane) drained.
    Drained,
    /// The horizon passed to [`Simulation::run_until`] was reached.
    HorizonReached,
    /// The event budget passed to [`Simulation::run_for_events`] was spent.
    EventBudgetSpent,
    /// The model called [`Context::stop`].
    Stopped,
}

/// A discrete-event simulation: a [`Model`] plus an event queue and a clock.
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: Time,
    handled: u64,
    // Backing storage for `Context::pending`, recycled across events so the
    // hot loop never allocates: it is moved into the `Context` for the
    // duration of `Model::handle` and taken back (drained, capacity kept)
    // afterwards.
    pending_buf: Vec<(EventKey, M::Event)>,
    // Deepest the event queue has ever been (pressure diagnostic).
    heap_high_water: usize,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: Time::ZERO,
            handled: 0,
            pending_buf: Vec::new(),
            heap_high_water: 0,
        }
    }

    /// The deepest the event queue has ever been — a pressure diagnostic
    /// for models that fan events out faster than they retire them. Like
    /// [`queue_depth`](Self::queue_depth), it counts scheduled events only,
    /// not what a model holds in its lane.
    pub fn heap_high_water(&self) -> usize {
        self.heap_high_water
    }

    /// Current event-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// [`EventQueue::heap_len`]: the events in the queue's binary heap alone.
    #[doc(hidden)]
    pub fn heap_len(&self) -> usize {
        self.queue.heap_len()
    }

    /// Current virtual time (timestamp of the last handled event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.handled
    }

    /// Read access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to extract collected statistics).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedules an initial event from outside the model.
    pub fn schedule(&mut self, at: Time, event: M::Event) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }

    /// [`Context::reserve_seq`] from outside the model: the sequence
    /// number a [`schedule`](Self::schedule) call here would have given
    /// its event, for an initial event that starts out in the model's lane.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.queue.next_seq();
        self.queue.skip_seqs(1);
        seq
    }

    /// Handles a single event. Returns `false` if none was pending.
    pub fn step(&mut self) -> bool {
        self.step_inner().is_some()
    }

    fn step_inner(&mut self) -> Option<bool> {
        let (t, ev) = self.next_event(Time::MAX)?;
        Some(self.dispatch(t, ev))
    }

    /// Removes the next event — of the queue's earliest and the model's
    /// lane head, the one with the smaller `(time, seq)` key — if it is
    /// due at or before `horizon`. Every run loop selects through here.
    #[inline]
    fn next_event(&mut self, horizon: Time) -> Option<(Time, M::Event)> {
        let horizon = EventKey::new(horizon, u64::MAX);
        // A queued event goes first if it is due and ahead of the lane.
        let lane = self.model.lane_peek().filter(|&lane| lane <= horizon);
        if let Some(queued) = self.queue.pop_up_to(lane.unwrap_or(horizon)) {
            return Some(queued);
        }
        lane.map(|lane| (lane.time(), self.model.lane_pop()))
    }

    /// Hands one already-popped event to the model and reschedules its
    /// follow-ups. Returns the model's stop request.
    fn dispatch(&mut self, t: Time, ev: M::Event) -> bool {
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        let first_seq = self.queue.next_seq();
        let mut ctx = Context {
            now: t,
            pending: std::mem::take(&mut self.pending_buf),
            stop: false,
            next_seq: first_seq,
        };
        self.model.handle(ev, &mut ctx);
        self.handled += 1;
        for (key, ev) in ctx.pending.drain(..) {
            self.queue.push_keyed(key, ev);
        }
        self.queue.skip_seqs(ctx.next_seq - first_seq);
        self.pending_buf = ctx.pending;
        if self.queue.len() > self.heap_high_water {
            self.heap_high_water = self.queue.len();
        }
        ctx.stop
    }

    /// Runs until no event is pending or the model stops the loop.
    pub fn run(&mut self) -> RunOutcome {
        loop {
            match self.step_inner() {
                None => return RunOutcome::Drained,
                Some(true) => return RunOutcome::Stopped,
                Some(false) => {}
            }
        }
    }

    /// Runs until no pending event is at or before `horizon` (events *at*
    /// the horizon are handled), none is pending at all, or the model stops.
    pub fn run_until(&mut self, horizon: Time) -> RunOutcome {
        loop {
            match self.next_event(horizon) {
                Some((t, ev)) => {
                    if self.dispatch(t, ev) {
                        return RunOutcome::Stopped;
                    }
                }
                None if self.queue.is_empty() && self.model.lane_peek().is_none() => {
                    return RunOutcome::Drained
                }
                None => return RunOutcome::HorizonReached,
            }
        }
    }

    /// Runs for at most `budget` further events.
    pub fn run_for_events(&mut self, budget: u64) -> RunOutcome {
        for _ in 0..budget {
            match self.step_inner() {
                None => return RunOutcome::Drained,
                Some(true) => return RunOutcome::Stopped,
                Some(false) => {}
            }
        }
        RunOutcome::EventBudgetSpent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that re-schedules itself `reps` times with spacing `gap`.
    struct Ticker {
        reps: u32,
        gap: Dur,
        fired_at: Vec<Time>,
    }

    impl Model for Ticker {
        type Event = ();
        fn handle(&mut self, _ev: (), ctx: &mut Context<()>) {
            self.fired_at.push(ctx.now());
            if (self.fired_at.len() as u32) < self.reps {
                ctx.schedule_in(self.gap, ());
            }
        }
    }

    #[test]
    fn run_drains_and_advances_clock() {
        let mut sim = Simulation::new(Ticker {
            reps: 5,
            gap: Dur::from_ticks(3),
            fired_at: Vec::new(),
        });
        sim.schedule(Time::ZERO, ());
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.now(), Time::from_ticks(12));
        assert_eq!(sim.events_handled(), 5);
        let ticks: Vec<u64> = sim.model().fired_at.iter().map(|t| t.ticks()).collect();
        assert_eq!(ticks, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn run_until_respects_horizon_inclusive() {
        let mut sim = Simulation::new(Ticker {
            reps: 100,
            gap: Dur::from_ticks(10),
            fired_at: Vec::new(),
        });
        sim.schedule(Time::ZERO, ());
        assert_eq!(
            sim.run_until(Time::from_ticks(30)),
            RunOutcome::HorizonReached
        );
        // Events at t=0,10,20,30 handled; next pending is t=40.
        assert_eq!(sim.model().fired_at.len(), 4);
        assert_eq!(sim.now(), Time::from_ticks(30));
        // Continuing picks up where we left off.
        assert_eq!(
            sim.run_until(Time::from_ticks(45)),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.now(), Time::from_ticks(40));
    }

    #[test]
    fn run_for_events_spends_budget() {
        let mut sim = Simulation::new(Ticker {
            reps: 100,
            gap: Dur::from_ticks(1),
            fired_at: Vec::new(),
        });
        sim.schedule(Time::ZERO, ());
        assert_eq!(sim.run_for_events(7), RunOutcome::EventBudgetSpent);
        assert_eq!(sim.events_handled(), 7);
    }

    struct Stopper;
    impl Model for Stopper {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Context<u32>) {
            if ev == 3 {
                ctx.stop();
            } else {
                ctx.schedule_in(Dur::from_ticks(1), ev + 1);
            }
        }
    }

    #[test]
    fn model_can_stop_the_loop() {
        let mut sim = Simulation::new(Stopper);
        sim.schedule(Time::ZERO, 0);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.now(), Time::from_ticks(3));
    }

    #[test]
    fn stop_still_flushes_followups_to_the_queue() {
        // A model that schedules a follow-up AND stops in the same handle:
        // the follow-up must survive into the queue (the recycled pending
        // buffer is drained before the stop is reported).
        struct ScheduleAndStop;
        impl Model for ScheduleAndStop {
            type Event = u32;
            fn handle(&mut self, ev: u32, ctx: &mut Context<u32>) {
                ctx.schedule_in(Dur::from_ticks(1), ev + 1);
                ctx.stop();
            }
        }
        let mut sim = Simulation::new(ScheduleAndStop);
        sim.schedule(Time::ZERO, 0);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        // Resuming handles the follow-up scheduled by the stopping event.
        assert_eq!(sim.run_for_events(1), RunOutcome::Stopped);
        assert_eq!(sim.now(), Time::from_ticks(1));
        assert_eq!(sim.events_handled(), 2);
    }

    #[test]
    fn run_until_between_events_reports_horizon() {
        let mut sim = Simulation::new(Ticker {
            reps: 3,
            gap: Dur::from_ticks(10),
            fired_at: Vec::new(),
        });
        sim.schedule(Time::ZERO, ());
        // Horizon strictly between two event times: queue is nonempty.
        assert_eq!(
            sim.run_until(Time::from_ticks(15)),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.model().fired_at.len(), 2);
        // Horizon past the last event: queue drains.
        assert_eq!(sim.run_until(Time::from_ticks(1000)), RunOutcome::Drained);
        assert_eq!(sim.model().fired_at.len(), 3);
    }

    #[test]
    fn heap_high_water_tracks_peak_queue_depth() {
        // Fan out: the first event schedules 5 follow-ups, which retire
        // one by one. Peak depth is 5, final depth 0.
        struct Fan;
        impl Model for Fan {
            type Event = bool;
            fn handle(&mut self, root: bool, ctx: &mut Context<bool>) {
                if root {
                    for k in 1..=5 {
                        ctx.schedule_in(Dur::from_ticks(k), false);
                    }
                }
            }
        }
        let mut sim = Simulation::new(Fan);
        sim.schedule(Time::ZERO, true);
        assert_eq!(sim.heap_high_water(), 0);
        sim.run();
        assert_eq!(sim.heap_high_water(), 5);
    }

    /// Records the events it is handed; event 0 fans out three more.
    struct Recorder(Vec<u32>);
    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Context<u32>) {
            self.0.push(ev);
            if ev == 0 {
                for k in 1..=3 {
                    ctx.schedule_in(Dur::from_ticks(100), 100 + k);
                }
            }
        }
    }

    #[test]
    fn depth_diagnostics_count_up_front_and_in_run_events() {
        let mut sim = Simulation::new(Recorder(Vec::new()));
        for ev in 0..10 {
            sim.schedule(Time::from_ticks(ev as u64), ev);
        }
        assert_eq!(sim.queue_depth(), 10);
        // Nine up-front events still pending plus the three scheduled
        // in-run, then one fewer.
        let depths: Vec<usize> = (0..2)
            .map(|_| {
                sim.run_for_events(1);
                sim.queue_depth()
            })
            .collect();
        assert_eq!(depths, vec![12, 11]);
        assert_eq!(sim.heap_high_water(), 12);
    }

    #[test]
    fn scheduling_from_outside_after_the_run_started_keeps_fifo_ties() {
        let mut sim = Simulation::new(Recorder(Vec::new()));
        for (t, ev) in [(1, 1), (6, 2), (6, 3), (9, 4)] {
            sim.schedule(Time::from_ticks(t), ev);
        }
        assert_eq!(
            sim.run_until(Time::from_ticks(5)),
            RunOutcome::HorizonReached
        );
        // Same tick as two up-front events: it was scheduled later, so it
        // runs after them; an earlier one overtakes everything pending.
        sim.schedule(Time::from_ticks(6), 5);
        sim.schedule(Time::from_ticks(5), 6);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.model().0, vec![1, 6, 2, 3, 5, 4]);
    }

    /// Open-loop sources — each a strictly increasing list of instants
    /// known before the run — beside closed-loop `Noise` events that
    /// reschedule themselves. The sources' emissions live in the event
    /// queue (`lane: None`) or in a lane sorted by `(instant, source)`.
    struct Sources {
        instants: Vec<Vec<u64>>,
        /// Per source, how many of its emissions were handled.
        emitted: Vec<usize>,
        lane: Option<Lane>,
        log: Vec<(u64, SourceEv)>,
    }

    struct Lane {
        entries: Vec<(u64, usize)>,
        cursor: usize,
        /// Per source, the sequence number of its next emission.
        stamps: Vec<u64>,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum SourceEv {
        Emit(usize),
        Noise(u32),
    }

    impl Model for Sources {
        type Event = SourceEv;

        fn handle(&mut self, ev: SourceEv, ctx: &mut Context<SourceEv>) {
            self.log.push((ctx.now().ticks(), ev));
            match ev {
                SourceEv::Noise(0) => {}
                SourceEv::Noise(n) => {
                    ctx.schedule_in(Dur::from_ticks(n as u64 % 3), SourceEv::Noise(n - 1))
                }
                SourceEv::Emit(s) => {
                    // Something closed-loop and the next emission: even
                    // sources number them in that order, odd ones in the
                    // other.
                    let noise = (Dur::from_ticks(s as u64 % 2), SourceEv::Noise(2));
                    if s % 2 == 0 {
                        ctx.schedule_in(noise.0, noise.1);
                    }
                    self.emitted[s] += 1;
                    let next = self.instants[s].get(self.emitted[s]);
                    match (&mut self.lane, next) {
                        (Some(lane), _) => lane.stamps[s] = ctx.reserve_seq(),
                        (None, Some(&at)) => ctx.schedule(Time::from_ticks(at), ev),
                        (None, None) => {}
                    }
                    if s % 2 == 1 {
                        ctx.schedule_in(noise.0, noise.1);
                    }
                }
            }
        }

        fn lane_peek(&mut self) -> Option<EventKey> {
            let lane = self.lane.as_mut()?;
            let run = &mut lane.entries[lane.cursor..];
            let at = run.first()?.0;
            let first = (0..run.len())
                .take_while(|&i| run[i].0 == at)
                .min_by_key(|&i| lane.stamps[run[i].1])?;
            run.swap(0, first);
            Some(EventKey::new(Time::from_ticks(at), lane.stamps[run[0].1]))
        }

        fn lane_pop(&mut self) -> SourceEv {
            let lane = self.lane.as_mut().expect("peeked");
            lane.cursor += 1;
            SourceEv::Emit(lane.entries[lane.cursor - 1].1)
        }
    }

    /// The simulation over `instants`, emissions in a lane or not, with a
    /// `Noise(n)` scheduled at `t` for each of `noise`: every first
    /// emission and every noise event takes its sequence number in turn.
    fn sources(instants: &[Vec<u64>], noise: &[(u64, u32)], in_lane: bool) -> Simulation<Sources> {
        let mut entries: Vec<(u64, usize)> = (instants.iter().enumerate())
            .flat_map(|(s, at)| at.iter().map(move |&at| (at, s)))
            .collect();
        entries.sort_unstable();
        let lane = in_lane.then(|| Lane {
            entries,
            cursor: 0,
            stamps: vec![0; instants.len()],
        });
        let mut sim = Simulation::new(Sources {
            instants: instants.to_vec(),
            emitted: vec![0; instants.len()],
            lane,
            log: Vec::new(),
        });
        for s in 0..instants.len().max(noise.len()) {
            match (instants.get(s).and_then(|at| at.first()), in_lane) {
                (Some(_), true) => {
                    let seq = sim.reserve_seq();
                    sim.model_mut().lane.as_mut().unwrap().stamps[s] = seq;
                }
                (Some(&at), false) => sim.schedule(Time::from_ticks(at), SourceEv::Emit(s)),
                (None, _) => {}
            }
            if let Some(&(at, n)) = noise.get(s) {
                sim.schedule(Time::from_ticks(at), SourceEv::Noise(n));
            }
        }
        sim
    }

    #[test]
    fn run_until_handles_a_lane_event_at_the_horizon_and_not_one_past_it() {
        let mut sim = sources(&[vec![10, 11]], &[], true);
        assert_eq!(sim.queue_depth(), 0, "the lane is not the queue");
        assert_eq!(
            sim.run_until(Time::from_ticks(9)),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.events_handled(), 0);
        // The emission at 10 and the noise it set off on that tick; the
        // emission at 11 stays in the lane — pending, so not `Drained`.
        assert_eq!(
            sim.run_until(Time::from_ticks(10)),
            RunOutcome::HorizonReached
        );
        let emits = |sim: &Simulation<Sources>| {
            let log = &sim.model().log;
            log.iter()
                .filter(|e| matches!(e.1, SourceEv::Emit(_)))
                .count()
        };
        assert_eq!((emits(&sim), sim.now().ticks()), (1, 10));
        assert_eq!(
            sim.run_until(Time::from_ticks(11)),
            RunOutcome::HorizonReached
        );
        assert_eq!(emits(&sim), 2);
        assert_eq!(sim.run_until(Time::from_ticks(99)), RunOutcome::Drained);
    }

    #[test]
    fn a_tick_shared_by_lane_and_queue_goes_to_the_smaller_sequence_number() {
        // Source 0 takes sequence number 0, the noise 1: the lane wins.
        let mut sim = sources(&[vec![5]], &[(5, 0)], true);
        sim.run_for_events(2);
        let first_two = |sim: &Simulation<Sources>| [sim.model().log[0].1, sim.model().log[1].1];
        assert_eq!(first_two(&sim), [SourceEv::Emit(0), SourceEv::Noise(0)]);
        // No source 0; the noise takes 0 and source 1 takes 1: the queue wins.
        let mut sim = sources(&[vec![], vec![5]], &[(5, 0)], true);
        sim.run_for_events(2);
        assert_eq!(first_two(&sim), [SourceEv::Noise(0), SourceEv::Emit(1)]);
    }

    #[test]
    fn every_run_loop_drains_whichever_of_lane_and_queue_lasts_longer() {
        type Drive = fn(&mut Simulation<Sources>);
        let drives: [Drive; 4] = [
            |sim| assert_eq!(sim.run(), RunOutcome::Drained),
            |sim| assert_eq!(sim.run_until(Time::MAX), RunOutcome::Drained),
            |sim| assert_eq!(sim.run_for_events(u64::MAX), RunOutcome::Drained),
            |sim| while sim.step() {},
        ];
        for drive in drives {
            // From tick 7 to 900 the queue is empty and the lane is not;
            // then the reverse, from tick 6 to 700. (An emission sets off
            // three ticks of noise.)
            for (instants, noise, last) in [
                (vec![vec![2, 900]], vec![(1, 3)], 903),
                (vec![vec![2, 3]], vec![(700, 2)], 703),
            ] {
                let mut sim = sources(&instants, &noise, true);
                drive(&mut sim);
                assert_eq!(sim.now().ticks(), last);
                let mut queued = sources(&instants, &noise, false);
                drive(&mut queued);
                assert_eq!(sim.model().log, queued.model().log);
                assert!(!sim.step(), "drained");
            }
        }
    }

    #[test]
    fn a_reservation_sits_where_its_schedule_call_would_have() {
        // One handler, three numbers on one tick: scheduled, reserved (the
        // lane event), scheduled. They are handled in that order.
        struct Mid {
            held: Option<EventKey>,
            log: Vec<&'static str>,
        }
        impl Model for Mid {
            type Event = &'static str;
            fn handle(&mut self, ev: &'static str, ctx: &mut Context<&'static str>) {
                self.log.push(ev);
                if ev == "root" {
                    let at = ctx.now() + Dur::from_ticks(4);
                    ctx.schedule(at, "before");
                    self.held = Some(EventKey::new(at, ctx.reserve_seq()));
                    ctx.schedule_in(Dur::from_ticks(4), "after");
                }
            }
            fn lane_peek(&mut self) -> Option<EventKey> {
                self.held
            }
            fn lane_pop(&mut self) -> &'static str {
                self.held = None;
                "held"
            }
        }
        let mut sim = Simulation::new(Mid {
            held: None,
            log: Vec::new(),
        });
        sim.schedule(Time::ZERO, "root");
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.model().log, ["root", "before", "held", "after"]);
    }

    proptest::proptest! {
        /// The contract a lane rests on: moving the open-loop emissions
        /// out of the queue changes nothing about the order events are
        /// handled in, ties included, however the run is driven.
        #[test]
        fn prop_a_lane_changes_no_event_order(
            gaps in proptest::collection::vec(proptest::collection::vec(1u64..4, 0..12), 0..6),
            starts in proptest::collection::vec(0u64..6, 6..7),
            noise in proptest::collection::vec((0u64..20, 0u32..5), 0..6),
            chunks in proptest::collection::vec((0u8..3, 0u64..9), 0..12),
        ) {
            let instants: Vec<Vec<u64>> = (gaps.iter().zip(&starts))
                .map(|(gaps, &start)| {
                    gaps.iter().scan(start, |at, gap| { *at += gap; Some(*at) }).collect()
                })
                .collect();
            let mut sims = [sources(&instants, &noise, false), sources(&instants, &noise, true)];
            for sim in &mut sims {
                for &(how, n) in &chunks {
                    match how {
                        0 => { sim.run_until(sim.now() + Dur::from_ticks(n)); }
                        1 => { sim.run_for_events(n); }
                        _ => { sim.step(); }
                    }
                }
                sim.run();
            }
            let [queued, laned] = sims;
            proptest::prop_assert_eq!(&queued.model().log, &laned.model().log);
            proptest::prop_assert_eq!(queued.events_handled(), laned.events_handled());
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _ev: (), ctx: &mut Context<()>) {
                ctx.schedule(Time::ZERO, ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule(Time::from_ticks(5), ());
        sim.run_for_events(1);
    }
}
