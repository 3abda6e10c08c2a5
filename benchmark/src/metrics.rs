//! The metrics the benchmark reports, by name.
//!
//! `BENCHMARK.json` at the root of the repository lists the same names,
//! units, directions and bounds (a test holds the two together); the
//! layer and the end-to-end cell each per-layer metric should move are
//! kept here and printed into `README.md`'s table.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How long one run measures, seconds (`run_seconds` of `BENCHMARK.json`
/// and the default of `--seconds`): as long as the driver's time for all
/// its runs allows with four workloads, because on a shared box a longer
/// run is a steadier one.
pub const RUN_SECONDS: f64 = 24.0;

#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every one is defined on every workload. Failures are not a metric
/// with a bound: any increase of `failed` over `attempted` is a
/// regression.
///
/// The two times and the throughput are scaled by the reference kernel
/// (`reference`): seconds at its nominal speed, not seconds of whatever
/// phase the shared host was in. All four bounds sit at the widest the
/// contract allows, three times the run-to-run spread measured when the
/// benchmark was defined (README, "Baseline"): the box has slow quarters
/// of an hour as well as slow minutes, and a bound the parent can fail
/// against itself gates nothing.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "units_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end cells the metric should move; everything not named
    /// is predicted unchanged.
    pub moves: &'static str,
}

impl PerLayer {
    /// The crate the metric belongs to: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const REPLAY: &str = "units_per_s on link-replay";
const SESSION: &str = "units_per_s on session-stream";
const SCHED: &str =
    "link-replay strongly; session-stream about 20 %; mesh-shards through link simulation; farm-warm none";
const SHARDS: &str = "pass_s on mesh-shards";
const COLD: &str = "pass_s on farm-cold";
const WARM: &str = "pass_s on farm-warm";
const EXACT: &str = "none: an exact simulated count, which a perf-only change must not move";

pub const PER_LAYER: [PerLayer; 46] = [
    lower(
        "simcore.ticker_ns_per_event",
        "ns",
        "units_per_s on mesh-coupled; farm-cold weakly; nothing on link-replay or session-stream (qsim never touches the event queue)",
    ),
    lower(
        "simcore.deep_ns_per_event",
        "ns",
        "units_per_s on mesh-coupled (4096 pending events, a fabric's worth)",
    ),
    lower("traffic.gen_ns_per_packet", "ns", "units_per_s on session-stream (about half of the pass)"),
    lower("traffic.trace_build_ns_per_packet", "ns", "setup_s on link-replay only"),
    lower("sched.wtp.ns_per_packet", "ns", SCHED),
    lower("sched.bpr.ns_per_packet", "ns", SCHED),
    lower("sched.hpd.ns_per_packet", "ns", SCHED),
    lower("sched.pifo-wtp.ns_per_packet", "ns", SCHED),
    lower("sched.fcfs.ns_per_packet", "ns", SCHED),
    lower("qsim.replay.wtp.ns_per_packet", "ns", REPLAY),
    lower("qsim.replay.bpr.ns_per_packet", "ns", REPLAY),
    lower("qsim.replay.hpd.ns_per_packet", "ns", REPLAY),
    lower("qsim.replay.pifo-wtp.ns_per_packet", "ns", REPLAY),
    lower("qsim.replay.fcfs.ns_per_packet", "ns", "the replay loop's floor: units_per_s on link-replay"),
    lower("qsim.session.fcfs.ns_per_packet", "ns", SESSION),
    lower("qsim.session.wtp.ns_per_packet", "ns", SESSION),
    lower("qsim.session_loop_ns_per_packet", "ns", SESSION),
    lower(
        "qsim.lossy.ns_per_packet",
        "ns",
        "no end-to-end cell: the guard for merging the lossy loop into the lossless one",
    ),
    lower("qsim.lossy.drop_share", "share", EXACT),
    lower("qsim.scenario.ns_per_packet", "ns", "pass_s on farm-cold (dynamics and monitor cells)"),
    lower(
        "telemetry.registry_session_ns_per_packet",
        "ns",
        "units_per_s on session-stream; farm-cold weakly",
    ),
    lower("telemetry.registry_replay_ns_per_packet", "ns", "farm-cold weakly"),
    lower("stats.sink_ns_per_packet", "ns", COLD),
    lower("netsim.lower_s", "s", "pass_s on mesh-coupled and mesh-shards"),
    lower("netsim.coupled_ns_per_hop", "ns", "units_per_s on mesh-coupled"),
    lower("netsim.fat_tree_build_s", "s", SHARDS),
    lower("netsim.decomp_input_s", "s", "pass_s and peak_rss_mb on mesh-shards"),
    lower("netsim.decomp_link_ns_per_hop", "ns", "units_per_s on mesh-shards"),
    PerLayer {
        name: "netsim.decomp_useful_share",
        unit: "share",
        better: Better::Higher,
        moves: "pass_s on mesh-shards: link-simulation seconds over shard seconds, the rest is input rebuilt per shard",
    },
    lower("experiments.mesh_cell_config_s", "s", SHARDS),
    lower("experiments.mesh_shard_s", "s", SHARDS),
    lower("experiments.fig1_cell_s", "s", COLD),
    lower("experiments.table1_cell_s", "s", COLD),
    lower("orchestrator.threads_cold_s", "s", "pass_s on farm-cold; setup_s on farm-warm"),
    lower(
        "orchestrator.farm_overhead_s",
        "s",
        "pass_s on farm-cold: spawn, protocol and shard files, over the same suite on threads",
    ),
    lower("orchestrator.warm_ms_per_cell", "ms", WARM),
    lower("orchestrator.doc_serialize_ms", "ms", "pass_s on farm-warm and farm-cold"),
    lower("qsim.replay_packets", "count", EXACT),
    lower("qsim.session_packets", "count", EXACT),
    lower("netsim.coupled_hops", "count", EXACT),
    lower("netsim.shard_hops", "count", EXACT),
    lower("orchestrator.shards_executed", "count", EXACT),
    lower("orchestrator.cells_cached", "count", EXACT),
    lower("orchestrator.doc_bytes", "count", EXACT),
    lower("orchestrator.cache_bytes", "count", EXACT),
    lower(
        "harness.trace_overhead_pct",
        "%",
        "none: traced over untraced pass_s of the workload run, the cost of looking",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn contract() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or("")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let doc = contract();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS));

        let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let listed = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
        }

        let listed = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
        assert_eq!(listed.len(), gated.len());
        for (entry, w) in listed.iter().zip(gated) {
            assert_eq!(field(entry, "name"), w.name);
            let why = field(entry, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn every_layer_is_a_crate_of_the_stack_or_the_harness() {
        const LAYERS: [&str; 10] = [
            "simcore",
            "traffic",
            "sched",
            "qsim",
            "telemetry",
            "stats",
            "netsim",
            "experiments",
            "orchestrator",
            "harness",
        ];
        for m in &PER_LAYER {
            assert!(LAYERS.contains(&m.layer()), "{}", m.name);
        }
    }
}
