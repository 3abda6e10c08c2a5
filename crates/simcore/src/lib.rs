//! # simcore — discrete-event simulation substrate
//!
//! This crate is the substrate that replaces ns-2 in the SIGCOMM '99
//! *Proportional Differentiated Services* reproduction: a deterministic
//! discrete-event engine built around three pieces:
//!
//! * [`Time`] / [`Dur`] — integer virtual time (ticks). Integer time keeps
//!   the event queue totally ordered and the simulation bit-reproducible
//!   across runs and platforms; floating point only appears at the
//!   measurement boundary.
//! * [`EventQueue`] — a priority queue (sorted start lane + binary heap) with
//!   FIFO tie-breaking: same-tick events pop in the order they were pushed.
//! * [`Simulation`] / [`Model`] — a minimal runner: models describe how to
//!   handle one event and may schedule further events through [`Context`].
//!
//! The higher layers (`qsim`, the single-link Study-A harness, and `netsim`,
//! the multi-hop Study-B simulator) define their own event enums on top of
//! this engine.
//!
//! ## Example
//!
//! ```
//! use simcore::{Context, Dur, Model, Simulation, Time};
//!
//! struct Ping { count: u32 }
//! impl Model for Ping {
//!     type Event = ();
//!     fn handle(&mut self, _ev: (), ctx: &mut Context<()>) {
//!         self.count += 1;
//!         if self.count < 3 {
//!             ctx.schedule_in(Dur::from_ticks(10), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ping { count: 0 });
//! sim.schedule(Time::ZERO, ());
//! sim.run();
//! assert_eq!(sim.model().count, 3);
//! assert_eq!(sim.now(), Time::from_ticks(20));
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod event;
mod sim;
mod time;

pub use event::{EventKey, EventQueue};
pub use sim::{Context, Model, RunOutcome, Simulation};
pub use time::{Dur, Time};
