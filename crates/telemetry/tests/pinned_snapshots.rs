//! Byte pins for the two artefact formats `telemetry` owns: the
//! `propdiff-metrics-v1` registry snapshot and the JSONL trace. The
//! digests were captured at the commit before the snapshot moved onto
//! `telemetry::json`; any change to how a number becomes bytes moves them.

use netsim::StudyBConfig;
use qsim::Session;
use sched::{SchedulerKind, Sdp};
use simcore::Time;
use telemetry::{JsonlSink, MetricsRegistry};
use traffic::{ClassSource, LoadPlan, SizeDist, PAPER_MEAN_PACKET_BYTES};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sources() -> Vec<ClassSource> {
    LoadPlan::new(1.0, 0.9, &[0.25; 4], SizeDist::paper())
        .expect("valid load plan")
        .pareto_sources()
        .expect("valid sources")
}

fn study_a(sources: &[ClassSource], seed: u64, punits: u64) -> Session<qsim::Sources<'_>> {
    let horizon = Time::from_ticks(punits * PAPER_MEAN_PACKET_BYTES as u64);
    Session::sources(sources, horizon, seed, 1.0)
}

fn wtp() -> Box<dyn sched::Scheduler> {
    SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0)
}

#[test]
fn registry_snapshots_keep_their_bytes() {
    let sources = sources();
    let single = study_a(&sources, 1, 2_000).run_metered(wtp().as_mut(), |_| {});
    assert!(single.decisions() > 1_000, "vacuous single-link run");

    let mut cfg = StudyBConfig::paper(4, 0.95, 10, 200.0);
    cfg.experiments = 3;
    cfg.warmup_secs = 1.0;
    cfg.seed = 77;
    let mut chain = MetricsRegistry::new();
    netsim::Session::study_b(&cfg).probe(&mut chain).run();
    assert_eq!(chain.num_links(), 4);

    let mut merged = MetricsRegistry::new();
    for seed in [1, 2, 3, 5] {
        merged.merge(&study_a(&sources, seed, 1_000).run_metered(wtp().as_mut(), |_| {}));
    }

    let digests = [&single, &chain, &merged].map(|r| fnv1a(r.to_json().as_bytes()));
    assert_eq!(
        digests.map(|d| format!("{d:#018x}")),
        [
            "0x846c6450e5bee67f",
            "0xf2bed96934ac596b",
            "0x08a326cadac3e743"
        ]
    );
}

#[test]
fn jsonl_trace_keeps_its_bytes() {
    let mut sink = JsonlSink::new(Vec::new());
    study_a(&sources(), 9, 300)
        .probe(&mut sink)
        .run(wtp().as_mut(), |_| {});
    assert!(sink.lines() > 1_000, "vacuous trace");
    let bytes = sink.finish().expect("in-memory writer");
    assert_eq!(format!("{:#018x}", fnv1a(&bytes)), "0xd36944448683ac50");
}
