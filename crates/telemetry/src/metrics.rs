//! The counting probe: run metrics with no per-event allocation.

use std::fmt;
use std::time::Instant;

use simcore::Time;

use crate::json::Json;
use crate::probe::{PacketId, Probe};
use crate::registry::MetricsRegistry;

/// Per-class counters and gauges accumulated by [`CountingProbe`].
#[derive(Debug, Clone, Default)]
pub struct ClassMetrics {
    /// Packets offered to the system.
    pub arrivals: u64,
    /// Packets admitted into the class queue.
    pub enqueues: u64,
    /// Packets that finished transmission (at their exit hop).
    pub departures: u64,
    /// Packets dropped by a finite buffer.
    pub drops: u64,
    /// Decisions won by this class.
    pub decisions_won: u64,
    /// Sum of hop-local queueing waits (ticks) over departures.
    pub wait_ticks_sum: u64,
    /// Bytes delivered (departures at the exit hop).
    pub bytes_delivered: u64,
    /// Current queued-packet gauge (enqueues − hop departures − drops).
    pub depth: i64,
    /// High-water mark of the queued-packet gauge.
    pub depth_high_water: i64,
    /// Current queued-byte gauge.
    pub backlog_bytes: i64,
    /// High-water mark of the queued-byte gauge.
    pub backlog_high_water: i64,
}

impl ClassMetrics {
    /// Mean hop-local queueing wait of delivered packets, in ticks.
    pub fn mean_wait(&self) -> f64 {
        if self.departures == 0 {
            0.0
        } else {
            self.wait_ticks_sum as f64 / self.departures as f64
        }
    }

    /// Fraction of arrivals dropped.
    pub fn loss_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.drops as f64 / self.arrivals as f64
        }
    }
}

/// A metrics-recording probe: cheap enough to leave on for real runs.
///
/// Since the registry landed this is a thin class-checked wrapper over
/// [`MetricsRegistry`] (the wrapper adds the fixed class universe, the
/// wall clock, and the flat [`MetricsReport`] snapshot shape — the
/// registry itself is open-world and wall-clock-free so it stays
/// mergeable). Reach the registry with [`CountingProbe::registry`] for
/// per-link channels, histograms, and merging.
///
/// On multi-hop runs, gauges aggregate over hops (the depth gauge counts
/// queued packets anywhere in the network) while `departures` counts exit
/// hops only, so packet conservation (`arrivals = departures + drops`)
/// still holds per class.
#[derive(Debug, Clone)]
pub struct CountingProbe {
    registry: MetricsRegistry,
    num_classes: usize,
    started: Instant,
}

impl CountingProbe {
    /// A probe for `num_classes` service classes.
    pub fn new(num_classes: usize) -> Self {
        CountingProbe {
            registry: MetricsRegistry::with_shape(1, num_classes),
            num_classes,
            started: Instant::now(),
        }
    }

    #[inline]
    fn check(&self, class: u8) {
        let c = class as usize;
        assert!(
            c < self.num_classes,
            "probe saw class {c} but was built for {} classes",
            self.num_classes
        );
    }

    /// The underlying mergeable registry (per-link channels, histograms).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consumes the probe, keeping the registry (e.g. to merge shards).
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }

    /// Freezes the counters into a [`MetricsReport`].
    pub fn report(&self) -> MetricsReport {
        self.registry
            .report(self.num_classes, self.started.elapsed().as_secs_f64())
    }
}

impl MetricsRegistry {
    /// The flat [`MetricsReport`] snapshot of classes `0..num_classes`.
    /// The registry is wall-clock-free (that is what keeps it mergeable),
    /// so the caller supplies `wall_secs` — zero when the shards it was
    /// merged from ran concurrently or in other processes.
    pub fn report(&self, num_classes: usize, wall_secs: f64) -> MetricsReport {
        let classes = (0..num_classes)
            .map(|c| {
                let t = self.class_total(c);
                ClassMetrics {
                    arrivals: t.arrivals,
                    enqueues: t.enqueues,
                    departures: t.departures,
                    drops: t.drops,
                    decisions_won: t.decisions_won,
                    wait_ticks_sum: t.wait_ticks_sum,
                    bytes_delivered: t.bytes_delivered,
                    depth: t.depth,
                    depth_high_water: t.depth_high_water,
                    backlog_bytes: t.backlog_bytes,
                    backlog_high_water: t.backlog_high_water,
                }
            })
            .collect();
        MetricsReport {
            classes,
            decisions: self.decisions(),
            probe_events: self.probe_events(),
            heartbeats: self.heartbeats(),
            scenario_events: self.scenario_events(),
            heap_high_water: self.heap_high_water(),
            virtual_span_ticks: self.virtual_span_ticks(),
            wall_secs,
        }
    }
}

impl Probe for CountingProbe {
    // Wraps the registry; the audit slice is forwarded but never read.
    const WANTS_DECISION_VALUES: bool = false;

    fn on_arrival(&mut self, at: Time, id: PacketId) {
        self.check(id.class);
        self.registry.on_arrival(at, id);
    }

    fn on_enqueue(&mut self, at: Time, id: PacketId) {
        self.check(id.class);
        self.registry.on_enqueue(at, id);
    }

    fn on_decision(
        &mut self,
        at: Time,
        scheduler: &'static str,
        winner: PacketId,
        values: &[(usize, f64)],
    ) {
        self.check(winner.class);
        self.registry.on_decision(at, scheduler, winner, values);
    }

    fn on_depart(&mut self, id: PacketId, arrival: Time, start: Time, finish: Time, eol: bool) {
        self.check(id.class);
        self.registry.on_depart(id, arrival, start, finish, eol);
    }

    fn on_drop(&mut self, at: Time, id: PacketId, backlog_bytes: u64, buffer_bytes: u64) {
        self.check(id.class);
        self.registry.on_drop(at, id, backlog_bytes, buffer_bytes);
    }

    fn on_heartbeat(&mut self, at: Time, events_handled: u64, heap_depth: usize) {
        self.registry.on_heartbeat(at, events_handled, heap_depth);
    }

    fn on_scenario_event(&mut self, at: Time, link: u16, kind: &'static str, value: f64) {
        self.registry.on_scenario_event(at, link, kind, value);
    }
}

/// A frozen snapshot of a [`CountingProbe`].
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Per-class counters and gauge high-water marks.
    pub classes: Vec<ClassMetrics>,
    /// Total scheduler decisions observed.
    pub decisions: u64,
    /// Total probe events observed (all kinds).
    pub probe_events: u64,
    /// Heartbeats received from the discrete-event runner.
    pub heartbeats: u64,
    /// Dynamic-scenario timeline events applied during the run.
    pub scenario_events: u64,
    /// Largest event-queue depth reported by any heartbeat.
    pub heap_high_water: usize,
    /// Virtual-time span covered by the run, in ticks.
    pub virtual_span_ticks: u64,
    /// Wall-clock seconds from probe construction to the snapshot.
    pub wall_secs: f64,
}

impl MetricsReport {
    /// Probe events per wall-clock second (the run's observed throughput).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.probe_events as f64 / self.wall_secs
        }
    }

    /// Total departures across classes.
    pub fn total_departures(&self) -> u64 {
        self.classes.iter().map(|c| c.departures).sum()
    }

    /// Total drops across classes.
    pub fn total_drops(&self) -> u64 {
        self.classes.iter().map(|c| c.drops).sum()
    }

    /// Renders the report as a compact JSON object (stable key order), for
    /// machine consumption next to the JSONL trace.
    pub fn to_json(&self) -> String {
        let classes = self.classes.iter().enumerate().map(|(i, c)| {
            Json::obj(vec![
                ("class", Json::uint(i as u64)),
                ("arrivals", Json::uint(c.arrivals)),
                ("departures", Json::uint(c.departures)),
                ("drops", Json::uint(c.drops)),
                ("decisions_won", Json::uint(c.decisions_won)),
                ("mean_wait_ticks", Json::rounded(c.mean_wait(), 3)),
                ("loss_fraction", Json::rounded(c.loss_fraction(), 6)),
                ("depth_high_water", Json::Int(c.depth_high_water)),
                ("backlog_bytes_high_water", Json::Int(c.backlog_high_water)),
            ])
        });
        Json::obj(vec![
            ("decisions", Json::uint(self.decisions)),
            ("probe_events", Json::uint(self.probe_events)),
            ("heartbeats", Json::uint(self.heartbeats)),
            ("scenario_events", Json::uint(self.scenario_events)),
            ("heap_high_water", Json::uint(self.heap_high_water as u64)),
            ("virtual_span_ticks", Json::uint(self.virtual_span_ticks)),
            ("wall_secs", Json::num(self.wall_secs)),
            ("events_per_sec", Json::rounded(self.events_per_sec(), 0)),
            ("classes", Json::Arr(classes.collect())),
        ])
        .serialize()
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run: {} probe events over {} virtual ticks ({} decisions, {} heartbeats, heap high-water {})",
            self.probe_events, self.virtual_span_ticks, self.decisions, self.heartbeats, self.heap_high_water
        )?;
        for (i, c) in self.classes.iter().enumerate() {
            writeln!(
                f,
                "class {}: arrivals {:>8}  departures {:>8}  drops {:>6}  mean wait {:>12.1}  \
                 depth hwm {:>6}  backlog hwm {:>9} B",
                i + 1,
                c.arrivals,
                c.departures,
                c.drops,
                c.mean_wait(),
                c.depth_high_water,
                c.backlog_high_water,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u64, class: u8, size: u32) -> PacketId {
        PacketId::single_link(seq, class, size)
    }

    #[test]
    fn lifecycle_counters_balance() {
        let mut p = CountingProbe::new(2);
        // Packet 0 (class 0): arrives, queues, wins, departs.
        p.on_arrival(Time::ZERO, id(0, 0, 100));
        p.on_enqueue(Time::ZERO, id(0, 0, 100));
        p.on_decision(Time::from_ticks(5), "WTP", id(0, 0, 100), &[(0, 5.0)]);
        p.on_depart(
            id(0, 0, 100),
            Time::ZERO,
            Time::from_ticks(5),
            Time::from_ticks(105),
            true,
        );
        // Packet 1 (class 1): arrives and is dropped.
        p.on_arrival(Time::from_ticks(10), id(1, 1, 50));
        p.on_drop(Time::from_ticks(10), id(1, 1, 50), 100, 128);
        let r = p.report();
        assert_eq!(r.classes[0].arrivals, 1);
        assert_eq!(r.classes[0].departures, 1);
        assert_eq!(r.classes[0].decisions_won, 1);
        assert_eq!(r.classes[0].wait_ticks_sum, 5);
        assert_eq!(r.classes[0].depth, 0);
        assert_eq!(r.classes[0].depth_high_water, 1);
        assert_eq!(r.classes[0].backlog_high_water, 100);
        assert_eq!(r.classes[1].drops, 1);
        assert_eq!(r.classes[1].loss_fraction(), 1.0);
        assert_eq!(r.total_departures(), 1);
        assert_eq!(r.total_drops(), 1);
        assert_eq!(r.decisions, 1);
        assert_eq!(r.virtual_span_ticks, 105);
    }

    #[test]
    fn gauges_track_high_water() {
        let mut p = CountingProbe::new(1);
        for s in 0..3 {
            p.on_enqueue(Time::ZERO, id(s, 0, 100));
        }
        p.on_depart(
            id(0, 0, 100),
            Time::ZERO,
            Time::ZERO,
            Time::from_ticks(100),
            true,
        );
        p.on_enqueue(Time::from_ticks(100), id(3, 0, 100));
        let r = p.report();
        assert_eq!(r.classes[0].depth, 3);
        assert_eq!(r.classes[0].depth_high_water, 3);
        assert_eq!(r.classes[0].backlog_high_water, 300);
    }

    #[test]
    fn non_eol_departures_keep_conservation() {
        // A two-hop journey: hop 0 departure is not end-of-life.
        let mut p = CountingProbe::new(1);
        p.on_arrival(Time::ZERO, id(0, 0, 100));
        p.on_enqueue(Time::ZERO, id(0, 0, 100));
        p.on_depart(
            id(0, 0, 100),
            Time::ZERO,
            Time::ZERO,
            Time::from_ticks(100),
            false,
        );
        p.on_enqueue(Time::from_ticks(100), id(0, 0, 100));
        p.on_depart(
            id(0, 0, 100),
            Time::from_ticks(100),
            Time::from_ticks(100),
            Time::from_ticks(200),
            true,
        );
        let r = p.report();
        assert_eq!(r.classes[0].arrivals, 1);
        assert_eq!(r.classes[0].departures, 1);
        assert_eq!(r.classes[0].depth, 0);
    }

    #[test]
    fn heartbeat_tracks_heap_high_water() {
        let mut p = CountingProbe::new(1);
        p.on_heartbeat(Time::from_ticks(1), 100, 7);
        p.on_heartbeat(Time::from_ticks(2), 200, 3);
        let r = p.report();
        assert_eq!(r.heartbeats, 2);
        assert_eq!(r.heap_high_water, 7);
    }

    #[test]
    fn scenario_events_are_tallied() {
        let mut p = CountingProbe::new(1);
        p.on_scenario_event(Time::from_ticks(5), 0, "set_sdp", 0.0);
        p.on_scenario_event(Time::from_ticks(9), 1, "link_down", 0.0);
        let r = p.report();
        assert_eq!(r.scenario_events, 2);
        assert!(r.to_json().contains("\"scenario_events\":2"));
    }

    #[test]
    fn json_snapshot_is_wellformed_enough() {
        let mut p = CountingProbe::new(2);
        p.on_enqueue(Time::ZERO, id(0, 1, 40));
        let j = p.report().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"classes\":["));
        assert!(j.contains("\"decisions\":0"));
        // Balanced braces (cheap structural sanity).
        let open = j.matches('{').count();
        let close = j.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    #[should_panic(expected = "built for 2 classes")]
    fn out_of_range_class_panics() {
        let mut p = CountingProbe::new(2);
        p.on_arrival(Time::ZERO, id(0, 5, 10));
    }
}
