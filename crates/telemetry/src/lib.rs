//! # telemetry — zero-cost packet-lifecycle tracing and run metrics
//!
//! The paper's evidence is time-series: interval-averaged delay ratios,
//! per-packet delays, decision-by-decision scheduler behavior. This crate
//! makes every run auditable at that granularity without taxing the runs
//! that don't need it:
//!
//! * [`Probe`] — a **monomorphized** observer of packet lifecycle events
//!   (arrival, enqueue, scheduler decision, departure, drop) plus engine
//!   internals (virtual-time heartbeat, event-queue depth). Instrumented
//!   loops are generic over `P: Probe` and gate every record construction
//!   behind the associated constant [`Probe::ENABLED`], so the no-op probe
//!   compiles to the uninstrumented loop.
//! * [`NoopProbe`] — the zero-cost default ([`Probe::ENABLED`] ` = false`).
//!   The repo benchmark (`benchmark/run.sh`) times the loops instantiated
//!   with it, and its `telemetry.registry_*` rows price a real probe
//!   against them.
//! * [`MetricsRegistry`] — the mergeable metrics substrate: per-link
//!   per-class counters, gauges with high-water marks, and log-bucketed
//!   delay/backlog histograms, all with exact lossless
//!   [`merge`](MetricsRegistry::merge) (shard N runs, merge, get the
//!   single-stream registry bit-for-bit). Snapshots render to
//!   deterministic JSON and to the Prometheus text format (checked by
//!   [`validate_prometheus`]). It is the one recorder that counts: every
//!   metered path — experiment shards, the farm's `*.metrics.json`
//!   sidecars, `propdiff-trace --metrics` — records into it and writes
//!   its `propdiff-metrics-v1` snapshot.
//! * [`Tee`] and `Option<P>` — fan-out: one run feeds the registry and any
//!   requested trace sinks, still fully monomorphized.
//! * [`PddMonitor`] — online PDD conformance: rolling-window per-class
//!   average delays and successive-pair ratios (the paper's Eq. 2)
//!   against a target-epoch schedule, emitting structured [`Violation`]
//!   events on drift outside a tolerance band or outright inversion.
//! * [`JsonlSink`] — one JSON object per event, deterministic byte-for-byte
//!   for a given event stream (golden-tested across replay paths).
//! * [`ChromeTraceSink`] — Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>): each packet is an
//!   async begin/end span keyed by its span id, with scheduler decisions
//!   and drops as instant events. Multi-hop journeys (Study B) share one
//!   span id across hops, so an end-to-end packet is a single track.
//! * [`schema`] — the validator for the JSONL export (a walk over the
//!   parsed line), used by `propdiff-trace --validate` and the CI job.
//! * [`json`] — the one JSON codec: the byte-stable value every snapshot
//!   here and every experiment result is built from, parsed and escaped by.
//!
//! Dependency-wise this crate sits near the bottom of the workspace
//! (`simcore` for time, `stats` for the mergeable histogram), so every
//! layer — `sched`, `qsim`, `netsim`, `experiments`, `conformance` — can
//! speak to the same probe vocabulary.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
mod monitor;
mod probe;
pub mod registry;
pub mod schema;
mod sink;

pub use monitor::{MonitorConfig, PddMonitor, Violation, ViolationKind};
pub use probe::{NoopProbe, PacketId, Probe, Tee};
pub use registry::{
    validate_prometheus, ChannelMetrics, ClassGauges, LinkMetrics, MetricsRegistry,
};
pub use sink::{ChromeTraceSink, JsonlSink};
