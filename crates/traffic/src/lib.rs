//! # traffic — workload generation for the PDD reproduction
//!
//! The SIGCOMM '99 evaluation drives its schedulers with bursty traffic:
//! Pareto-distributed interarrivals with shape α=1.9 (infinite variance) and
//! a trimodal packet-size distribution (40 B at 40 %, 550 B at 50 %, 1500 B
//! at 10 %). This crate implements those generators from scratch on top of
//! `rand`, plus the deterministic/periodic sources used by Study B's user
//! flows, on-off burst sources for stress tests, and recorded traces so that
//! different schedulers can be compared on *identical* input.
//!
//! ## Layout
//!
//! * [`IatDist`] — interarrival-time distributions (Pareto, exponential,
//!   deterministic, uniform, bounded Pareto).
//! * [`SizeDist`] — packet-size distributions, including
//!   [`SizeDist::paper`], the exact mix used in the paper's Study A.
//! * [`ClassSource`] — a per-class arrival stream combining the two.
//! * [`OnOffSource`] — a bursty on/off modulated source (extension).
//! * [`Trace`] — a recorded, mergeable, replayable arrival trace.
//! * [`SourceStream`] / [`MergedStream`] — iterator-backed generation that
//!   reproduces [`Trace::generate_per_source`] lazily in O(sources) memory.
//! * [`Ahead`] — the same stream drawn a block ahead of its reader by a
//!   helper thread, once it has shown itself to be long.
//! * [`SurgedSource`] — piecewise gap rescaling of any source, the workload
//!   half of dynamic scenarios' load-surge events.
//! * [`LoadPlan`] — helper that converts (utilization, class shares, link
//!   rate) into per-class mean interarrivals, as §5 of the paper does.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod dist;
mod io;
mod load;
mod onoff;
mod sizes;
mod source;
mod stream;
mod surge;
mod trace;

pub use dist::{u01, DistError, IatDist};
pub use io::TraceParseError;
pub use load::LoadPlan;
pub use onoff::OnOffSource;
pub use sizes::SizeDist;
pub use source::ClassSource;
pub use stream::{ahead_helpers_started, Ahead, ArrivalSource, MergedStream, SourceStream};
pub use surge::SurgedSource;
pub use trace::{per_source_seed, Trace, TraceEntry};

/// The Pareto shape parameter used throughout the paper's evaluation (§5).
pub const PAPER_PARETO_SHAPE: f64 = 1.9;

/// Mean packet size, in bytes, of the paper's trimodal distribution:
/// 0.4·40 + 0.5·550 + 0.1·1500 = 441.
pub const PAPER_MEAN_PACKET_BYTES: f64 = 441.0;
