//! The simulation runner: an event loop over a [`Model`].

use crate::event::EventQueue;
use crate::time::{Dur, Time};

/// A discrete-event model.
///
/// The model owns all mutable simulation state; the runner feeds it one
/// event at a time, in timestamp order, and collects the follow-up events
/// the model schedules through [`Context`].
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handles one event occurring at `ctx.now()`.
    fn handle(&mut self, event: Self::Event, ctx: &mut Context<Self::Event>);
}

/// Handle given to [`Model::handle`] for reading the clock and scheduling
/// follow-up events.
pub struct Context<E> {
    now: Time,
    pending: Vec<(Time, E)>,
    stop: bool,
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
        self.pending.push((at, event));
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: Dur, event: E) {
        self.pending.push((self.now + delay, event));
    }

    /// Requests that the run loop stop after this event is handled.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// Why a [`Simulation`] run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The horizon passed to [`Simulation::run_until`] was reached.
    HorizonReached,
    /// The event budget passed to [`Simulation::run_for_events`] was spent.
    EventBudgetSpent,
    /// The model called [`Context::stop`].
    Stopped,
}

/// A heartbeat observer: `(virtual time, events handled, queue depth)`.
///
/// `simcore` sits below the telemetry crate in the dependency graph, so the
/// hook is a plain boxed callback; telemetry adapts it onto its probe
/// vocabulary at the call site.
pub type HeartbeatFn = Box<dyn FnMut(Time, u64, usize)>;

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
    pending_buf: Vec<(Time, M::Event)>,
    // Deepest the event queue has ever been (pressure diagnostic).
    heap_high_water: usize,
    // Progress callback fired every `.0` handled events, if installed.
    heartbeat: Option<(u64, HeartbeatFn)>,
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
            heartbeat: None,
        }
    }

    /// Installs a progress heartbeat: `f(now, events_handled, queue_depth)`
    /// fires after every `every`-th handled event, so long runs are
    /// observably alive. Replaces any previous heartbeat.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn set_heartbeat(&mut self, every: u64, f: impl FnMut(Time, u64, usize) + 'static) {
        assert!(every > 0, "heartbeat interval must be positive");
        self.heartbeat = Some((every, Box::new(f)));
    }

    /// Removes the heartbeat installed by [`set_heartbeat`](Self::set_heartbeat).
    pub fn clear_heartbeat(&mut self) {
        self.heartbeat = None;
    }

    /// The deepest the event queue has ever been — a pressure diagnostic
    /// for models that fan events out faster than they retire them.
    pub fn heap_high_water(&self) -> usize {
        self.heap_high_water
    }

    /// Current event-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
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

    /// Handles a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.step_inner().is_some()
    }

    fn step_inner(&mut self) -> Option<bool> {
        let (t, ev) = self.queue.pop()?;
        Some(self.dispatch(t, ev))
    }

    /// Hands one already-popped event to the model and reschedules its
    /// follow-ups. Returns the model's stop request.
    fn dispatch(&mut self, t: Time, ev: M::Event) -> bool {
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        let mut ctx = Context {
            now: t,
            pending: std::mem::take(&mut self.pending_buf),
            stop: false,
        };
        self.model.handle(ev, &mut ctx);
        self.handled += 1;
        for (at, ev) in ctx.pending.drain(..) {
            self.queue.push(at, ev);
        }
        self.pending_buf = ctx.pending;
        if self.queue.len() > self.heap_high_water {
            self.heap_high_water = self.queue.len();
        }
        if let Some((every, f)) = &mut self.heartbeat {
            if self.handled.is_multiple_of(*every) {
                f(self.now, self.handled, self.queue.len());
            }
        }
        ctx.stop
    }

    /// Runs until the event queue drains or the model stops the loop.
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
    /// the horizon are handled), the queue drains, or the model stops.
    pub fn run_until(&mut self, horizon: Time) -> RunOutcome {
        loop {
            match self.queue.pop_at_or_before(horizon) {
                Some((t, ev)) => {
                    if self.dispatch(t, ev) {
                        return RunOutcome::Stopped;
                    }
                }
                None if self.queue.is_empty() => return RunOutcome::Drained,
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
    fn heartbeat_fires_every_n_events_with_virtual_time() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let beats: Rc<RefCell<Vec<(u64, u64, usize)>>> = Rc::default();
        let mut sim = Simulation::new(Ticker {
            reps: 10,
            gap: Dur::from_ticks(5),
            fired_at: Vec::new(),
        });
        let sink = Rc::clone(&beats);
        sim.set_heartbeat(4, move |now, handled, depth| {
            sink.borrow_mut().push((now.ticks(), handled, depth));
        });
        sim.schedule(Time::ZERO, ());
        assert_eq!(sim.run(), RunOutcome::Drained);
        // 10 events → beats after events 4 and 8, at virtual times 15/35.
        assert_eq!(*beats.borrow(), vec![(15, 4, 1), (35, 8, 1)]);
        sim.clear_heartbeat();
        sim.schedule(sim.now(), ());
        sim.run();
        assert_eq!(beats.borrow().len(), 2, "cleared heartbeat must not fire");
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
        use std::cell::RefCell;
        use std::rc::Rc;
        let depths: Rc<RefCell<Vec<usize>>> = Rc::default();
        let mut sim = Simulation::new(Recorder(Vec::new()));
        let sink = Rc::clone(&depths);
        sim.set_heartbeat(1, move |_, _, depth| sink.borrow_mut().push(depth));
        for ev in 0..10 {
            sim.schedule(Time::from_ticks(ev as u64), ev);
        }
        assert_eq!(sim.queue_depth(), 10);
        sim.run_for_events(2);
        // Nine up-front events still pending plus the three scheduled
        // in-run, then one fewer.
        assert_eq!(*depths.borrow(), vec![12, 11]);
        assert_eq!(sim.heap_high_water(), 12);
        assert_eq!(sim.queue_depth(), 11);
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

    #[test]
    #[should_panic(expected = "heartbeat interval must be positive")]
    fn zero_heartbeat_interval_panics() {
        let mut sim = Simulation::new(Stopper);
        sim.set_heartbeat(0, |_, _, _| {});
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
