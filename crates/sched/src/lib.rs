//! # sched — packet schedulers for relative delay differentiation
//!
//! This crate implements the scheduling machinery of the SIGCOMM '99
//! *Proportional Differentiated Services* paper:
//!
//! * The **rank-function core** ([`PifoCore`], [`RankFn`]): every
//!   head-of-line discipline is per-class FIFOs, an argmax over the
//!   backlogged heads and one expression, so each is one rank function on
//!   one engine — [`WtpRank`] (**Waiting-Time Priority**, §4.2,
//!   Kleinrock's Time-Dependent Priorities: `p_i(t) = w_i(t)·s_i`),
//!   [`AdditiveRank`] (`p_i(t) = w_i(t) + s_i`, Eq. 3), [`StrictRank`]
//!   (§2.1), the extensions the paper's §7 calls for — [`PadRank`]
//!   (Proportional Average Delay) and [`HpdRank`] (Hybrid Proportional
//!   Delay), which hold the proportional model even at moderate loads —
//!   and [`LstfRank`] (least-slack-time-first, from the Universal Packet
//!   Scheduling line).
//! * [`Bpr`] — **Backlog-Proportional Rate** (§4.1), in the packetized form
//!   of Appendix 3 (virtual service functions, `argmin(L_i − v_i)`).
//! * [`FluidBpr`] — the exact fluid BPR server, used to verify
//!   Proposition 1 (simultaneous queue clearing).
//! * The **fair-queueing core** ([`FairQueue`]), the §2.1 capacity
//!   differentiation baselines: per-class FIFOs whose packets carry
//!   finish tags, the smallest served first, under one of three virtual
//!   clocks — WFQ (GPS), WF²Q+ (worst-case fair) and SCFQ (self-clocked).
//! * Baselines from §2.1 that keep their own state: [`Fcfs`] (one shared
//!   FIFO) and [`Drr`] (capacity differentiation by deficits).
//! * The [`PlrDropper`] (proportional loss-rate differentiation) for
//!   lossy operation.
//!
//! [`SchedulerKind`] builds any of them by name, as a `Box<dyn Scheduler>`.
//!
//! All schedulers are **pure data structures**: they own per-class FIFO
//! queues and answer `enqueue`/`dequeue(now)` queries. A link/server owner
//! (see the `qsim` and `netsim` crates) drives them, which lets the same
//! scheduler code run under the single-link Study-A harness, the multi-hop
//! Study-B simulator, property tests, and micro-benchmarks.
//!
//! ## Conventions
//!
//! * Classes are 0-indexed; **higher index = higher class** (the paper's
//!   class N). SDPs must therefore be nondecreasing: `s[0] ≤ s[1] ≤ …`.
//! * "Queueing delay" is *waiting time*: arrival → start of transmission.
//! * Service is non-preemptive and work-conserving.
//! * Ties are broken in favor of the higher class (paper, Appendix 3).
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod bpr;
mod bpr_fluid;
mod class;
mod dropper;
mod drr;
mod factory;
mod fair_queue;
mod fcfs;
mod packet;
mod rank;
mod scheduler;

pub use bpr::Bpr;
pub use bpr_fluid::FluidBpr;
pub use class::{Sdp, SdpError};
pub use dropper::PlrDropper;
pub use drr::Drr;
pub use factory::SchedulerKind;
pub use fair_queue::FairQueue;
pub use fcfs::Fcfs;
pub use packet::Packet;
pub use rank::{
    AdditiveRank, HpdRank, LstfRank, PadRank, PifoCore, RankFn, RankKind, StrictRank, WtpRank,
    DEFAULT_SLACK_BASE_TICKS,
};
pub use scheduler::{ClassQueues, ReconfigureError, Scheduler};

#[cfg(test)]
mod invariants;
#[cfg(test)]
pub(crate) mod testutil;
