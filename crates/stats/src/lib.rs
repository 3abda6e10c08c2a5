//! # stats — measurement machinery for the PDD reproduction
//!
//! Everything §5/§6 of the paper measures, implemented as reusable pieces:
//!
//! * [`Summary`] — streaming mean/variance/min/max (Welford).
//! * [`percentile`] / [`Percentiles`] — exact quantiles with linear
//!   interpolation, plus [`P2Quantile`], a constant-space streaming
//!   estimator for long runs.
//! * [`IntervalSeries`] — per-class average delays over consecutive
//!   monitoring intervals of length τ (the "short timescales" metric of
//!   Eq. 2 / Fig. 3).
//! * [`rd_for_interval`] / [`RdCollector`] — the paper's R_D figure of
//!   merit: the average ratio of average delays between successive classes,
//!   with geometric normalization across inactive classes.
//! * [`fcfs_mean_wait`] / [`check_feasibility`] — the Eq. (7) feasibility
//!   conditions, evaluated by replaying class subsets through an FCFS
//!   server exactly as the paper prescribes.
//! * [`reconvergence_times`] — how fast the achieved delay ratios return
//!   to their targets after a dynamic-scenario perturbation (an SDP swap,
//!   a link flap).
//! * [`Histogram`] — log-binned delay histograms for reports.
//! * [`Table`] — aligned ASCII tables for the experiment harness output.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod burstiness;
mod feasibility;
mod histogram;
mod percentile;
mod ratio;
mod reconverge;
mod series;
mod summary;
mod table;

pub use burstiness::{hurst_estimate, idc_curve, variance_time};
pub use feasibility::{check_feasibility, fcfs_mean_wait, FeasibilityReport, SubsetCheck};
pub use histogram::Histogram;
pub use percentile::{percentile, P2Quantile, Percentiles};
pub use ratio::{rd_for_interval, successive_ratios, RdCollector};
pub use reconverge::{reconvergence_times, ReconvergenceConfig};
pub use series::IntervalSeries;
pub use summary::Summary;
pub use table::Table;
