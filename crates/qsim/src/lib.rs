//! # qsim — the single-link class-based queueing simulator (Study A)
//!
//! Reproduces the §5 experimental setup: one work-conserving link served by
//! a configurable scheduler, N packet sources (one per class) with Pareto
//! interarrivals and the paper's trimodal packet sizes.
//!
//! The flow is deliberately trace-based: a [`traffic::Trace`] is generated
//! once per seed and replayed through every scheduler under test, so
//! scheduler comparisons (and the Eq. (7) feasibility replays) see
//! *identical* input.
//!
//! * [`Session`] — the only way to run a link: workload (a recorded
//!   trace, live sources, or any arrival iterator such as a streaming
//!   [`traffic::MergedStream`]) × probe × scenario × buffer, one builder
//!   chain over one service loop (1 tick = 1 byte at link rate 1, or any
//!   rate you pass). The link model — non-preemptive, work-conserving,
//!   arrivals at a decision instant queued before the decision — is
//!   written once; arrivals, buffer, timeline and probe are statically
//!   dispatched policy types, so what a run does not use folds away at
//!   monomorphization. The scheduler is whatever `S: Scheduler` it is
//!   handed — the boxed one [`SchedulerKind::build`](sched::SchedulerKind::build)
//!   returns, or a concrete type in a test.
//! * Dynamic scenarios ([`scenario::Scenario`]) attach to any session:
//!   live SDP reconfiguration, link-rate changes, link faults, class
//!   joins/leaves, and load surges, with one shared dispatch point.
//! * A finite buffer ([`Session::lossy`], the §7 extension) attaches to
//!   any session: tail-drop or Proportional Loss Rate push-out
//!   ([`LossMode`]), reported as a [`LossyReport`].
//! * [`Experiment`] — the Fig. 1/Fig. 2 harness: long-run per-class average
//!   delays and successive-class ratios, averaged over seeds.
//! * [`ShortTimescale`] — the Fig. 3 harness: R_D percentiles per
//!   monitoring timescale τ.
//! * [`Microscope`] — the Fig. 4/Fig. 5 harness: microscopic views I
//!   (interval averages) and II (per-packet delays), plus a roughness
//!   metric quantifying BPR's sawtooth noise.
//!
//! The three harnesses measure a seed one way,
//! [`Experiment::replay`]: the seed's trace through a freshly built
//! scheduler, departures after the warm-up handed to the harness's own
//! sink.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod experiment;
mod lossy;
mod micro;
mod scenario_run;
mod server;
mod session;
mod shortts;

pub use experiment::{average_rows, Experiment, ExperimentResult, SeedResult};
pub use lossy::{LossMode, LossyReport};
pub use micro::{MicroViews, Microscope};
pub use server::{tx_ticks, Departure};
pub use session::{LossySession, Session, Sources, Workload};
pub use shortts::{ShortTimescale, TimescaleResult};
