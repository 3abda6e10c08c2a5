//! Golden-determinism regression test for the optimized replay paths.
//!
//! There are two ways to drive the same single-link simulation: the
//! `dyn` trace replay (`Session::trace` over a boxed scheduler) and the
//! streaming source path (`Session::sources`, O(sources) memory). They
//! must be **bit-identical**: for a fixed seed, every scheduler must
//! produce exactly the same departure sequence — same packets, same start
//! and finish ticks — on both.
//!
//! The full `(seq, class, start, finish)` stream is FNV-hashed so a
//! mismatch anywhere in hundreds of thousands of departures fails loudly.

use qsim::{Departure, Session};
use sched::{SchedulerKind, Sdp};
use simcore::Time;
use traffic::{LoadPlan, Trace};

const HORIZON_TICKS: u64 = 2_000_000;
const SEEDS: [u64; 2] = [11, 42];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a: folds `bytes` into the running hash `h`.
fn fnv1a_extend(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// FNV-1a over the departure stream.
#[derive(Default)]
struct DepartureHash(u64);

impl DepartureHash {
    fn new() -> Self {
        DepartureHash(FNV_OFFSET)
    }

    fn push(&mut self, d: &Departure) {
        for word in [
            d.packet.seq,
            d.packet.class as u64,
            d.packet.size as u64,
            d.packet.arrival.ticks(),
            d.start.ticks(),
            d.finish.ticks(),
        ] {
            self.0 = fnv1a_extend(self.0, word.to_le_bytes());
        }
    }
}

fn sources(rho: f64) -> Vec<traffic::ClassSource> {
    LoadPlan::paper_study_a(rho)
        .unwrap()
        .pareto_sources()
        .unwrap()
}

/// Hash of the seed-implementation path: `dyn` scheduler over a
/// materialized per-source trace.
fn dyn_trace_hash(kind: SchedulerKind, rho: f64, seed: u64) -> (u64, usize) {
    let trace =
        Trace::generate_per_source(&mut sources(rho), Time::from_ticks(HORIZON_TICKS), seed);
    let mut s = kind.build(&Sdp::paper_default(), 1.0);
    let mut h = DepartureHash::new();
    let mut n = 0usize;
    Session::trace(&trace, 1.0).run(s.as_mut(), |d| {
        h.push(d);
        n += 1;
    });
    (h.0, n)
}

/// Hash of the streaming path: no trace materialized at all.
fn streaming_hash(kind: SchedulerKind, rho: f64, seed: u64) -> (u64, usize) {
    let mut s = kind.build(&Sdp::paper_default(), 1.0);
    let mut h = DepartureHash::new();
    let mut n = 0usize;
    Session::sources(&sources(rho), Time::from_ticks(HORIZON_TICKS), seed, 1.0).run(
        s.as_mut(),
        |d| {
            h.push(d);
            n += 1;
        },
    );
    (h.0, n)
}

#[test]
fn all_replay_paths_are_bit_identical_for_every_scheduler() {
    for kind in SchedulerKind::ALL {
        for seed in SEEDS {
            let (dyn_hash, dyn_n) = dyn_trace_hash(kind, 0.95, seed);
            let (str_hash, str_n) = streaming_hash(kind, 0.95, seed);
            assert!(
                dyn_n > 1000,
                "{kind} seed {seed}: suspiciously few departures ({dyn_n})"
            );
            assert_eq!(
                (dyn_hash, dyn_n),
                (str_hash, str_n),
                "{kind} seed {seed}: streaming path diverged from dyn replay"
            );
        }
    }
}

#[test]
fn departure_hash_is_reproducible_across_runs() {
    // Same process, two independent evaluations: guards against hidden
    // global state (thread-local RNGs, time-dependent code) sneaking into
    // the simulation.
    let a = dyn_trace_hash(SchedulerKind::Wtp, 0.95, 7);
    let b = dyn_trace_hash(SchedulerKind::Wtp, 0.95, 7);
    assert_eq!(a, b);
}

#[test]
fn experiment_replay_equals_a_boxed_replay_of_its_trace() {
    // `Experiment::run` replays, cuts the warm-up and folds on its own; a
    // replay of the same trace by hand, cut at the same warm-up, must give
    // identical summaries.
    use qsim::Experiment;
    let e = Experiment::paper(0.9, Sdp::paper_default(), 2_000, vec![5]);
    let replayed = e.run(SchedulerKind::Wtp);
    let trace = e.trace_for_seed(5);
    let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let warmup = Time::from_ticks(e.warmup_ticks);
    let mut per_class = vec![stats::Summary::new(); 4];
    Session::trace(&trace, 1.0).run(s.as_mut(), |d| {
        if d.start >= warmup {
            per_class[d.packet.class as usize].push(d.wait().as_f64());
        }
    });
    let means: Vec<f64> = per_class.iter().map(stats::Summary::mean).collect();
    assert_eq!(replayed.mean_delays, means);
}

#[test]
fn jsonl_trace_is_byte_identical_across_replay_paths() {
    // The telemetry layer must not observe path-dependent state: for the
    // same workload, the JSONL export from the materialized-trace replay
    // and from the streaming (O(sources) memory) replay are the same
    // bytes. A small deterministic workload keeps the assertion readable
    // when it fails.
    use telemetry::JsonlSink;

    let horizon = Time::from_ticks(300_000);
    let seed = 21;

    let mut src_copy = sources(0.9);
    let trace = Trace::generate_per_source(&mut src_copy, horizon, seed);
    let mut s1 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink1 = JsonlSink::new(Vec::new());
    Session::trace(&trace, 1.0)
        .probe(&mut sink1)
        .run(s1.as_mut(), |_| {});
    let from_trace = sink1.finish().unwrap();

    let mut s2 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink2 = JsonlSink::new(Vec::new());
    Session::sources(&sources(0.9), horizon, seed, 1.0)
        .probe(&mut sink2)
        .run(s2.as_mut(), |_| {});
    let from_stream = sink2.finish().unwrap();

    assert!(!from_trace.is_empty(), "workload produced no events");
    assert!(
        from_trace.len() > 10_000,
        "workload too small to be a meaningful golden ({} bytes)",
        from_trace.len()
    );
    if from_trace != from_stream {
        // Byte compare failed: find the first differing line for the report.
        let a = String::from_utf8_lossy(&from_trace);
        let b = String::from_utf8_lossy(&from_stream);
        for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
            assert_eq!(la, lb, "JSONL line {} diverged between replay paths", i + 1);
        }
        panic!(
            "JSONL traces differ in length: {} vs {} bytes",
            from_trace.len(),
            from_stream.len()
        );
    }

    // And the export is schema-valid, same as the CI telemetry job checks.
    let text = String::from_utf8(from_trace).unwrap();
    let lines = telemetry::schema::validate_jsonl(&text).expect("golden JSONL is schema-valid");
    assert!(lines > 0);
}

#[test]
fn noop_scenario_is_byte_identical_on_the_trace_path() {
    // Identity events (re-assert the SDP and rate already in force) must
    // not perturb a single departure or telemetry byte: after stripping
    // the scenario-event records themselves, the JSONL export and the
    // departure stream match the scenario-free run exactly.
    use telemetry::JsonlSink;

    let horizon = Time::from_ticks(300_000);
    let trace = Trace::generate_per_source(&mut sources(0.9), horizon, 21);

    let mut s1 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink1 = JsonlSink::new(Vec::new());
    let mut plain = DepartureHash::new();
    Session::trace(&trace, 1.0)
        .probe(&mut sink1)
        .run(s1.as_mut(), |d| plain.push(d));
    let baseline = sink1.finish().unwrap();

    let sc = scenario::Scenario::builder()
        .set_sdp(Time::from_ticks(100_000), Sdp::paper_default())
        .set_link_rate(Time::from_ticks(150_000), 0, 1.0)
        .build()
        .unwrap();
    let mut s2 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink2 = JsonlSink::new(Vec::new());
    let mut perturbed = DepartureHash::new();
    Session::trace(&trace, 1.0)
        .probe(&mut sink2)
        .scenario(sc)
        .run(s2.as_mut(), |d| perturbed.push(d));
    let with_scenario = sink2.finish().unwrap();

    assert_eq!(plain.0, perturbed.0, "identity scenario changed departures");
    let stripped = strip_scenario_lines(&with_scenario);
    assert!(
        with_scenario.len() > stripped.len(),
        "scenario events were never recorded"
    );
    assert_eq!(
        baseline, stripped,
        "identity scenario perturbed the telemetry stream"
    );
}

#[test]
fn noop_scenario_is_byte_identical_on_the_streaming_path() {
    // Same guarantee on the O(sources) path, including a unit load surge
    // (scale 1.0 routes every source through SurgedSource, which must be
    // an exact identity).
    use telemetry::JsonlSink;

    let horizon = Time::from_ticks(300_000);
    let seed = 21;

    let mut s1 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink1 = JsonlSink::new(Vec::new());
    let mut plain = DepartureHash::new();
    Session::sources(&sources(0.9), horizon, seed, 1.0)
        .probe(&mut sink1)
        .run(s1.as_mut(), |d| plain.push(d));
    let baseline = sink1.finish().unwrap();

    let sc = scenario::Scenario::builder()
        .set_sdp(Time::from_ticks(100_000), Sdp::paper_default())
        .load_surge(Time::from_ticks(50_000), 0, 1.0)
        .set_link_rate(Time::from_ticks(150_000), 0, 1.0)
        .build()
        .unwrap();
    let mut s2 = SchedulerKind::Wtp.build(&Sdp::paper_default(), 1.0);
    let mut sink2 = JsonlSink::new(Vec::new());
    let mut perturbed = DepartureHash::new();
    Session::sources(&sources(0.9), horizon, seed, 1.0)
        .probe(&mut sink2)
        .scenario(sc)
        .run(s2.as_mut(), |d| perturbed.push(d));
    let with_scenario = sink2.finish().unwrap();

    assert_eq!(plain.0, perturbed.0, "identity scenario changed departures");
    let stripped = strip_scenario_lines(&with_scenario);
    assert!(
        with_scenario.len() > stripped.len(),
        "scenario events were never recorded"
    );
    assert_eq!(
        baseline, stripped,
        "identity scenario perturbed the telemetry stream"
    );
}

/// Drops the `"ev":"scenario"` records a scenario run adds, keeping every
/// other byte (including the trailing newline structure) intact.
fn strip_scenario_lines(jsonl: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(jsonl).expect("JSONL is UTF-8");
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if !line.contains("\"ev\":\"scenario\"") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out.into_bytes()
}

/// The JSONL export of one run of the ρ = 0.9, 300 000-tick, seed-21
/// workload the byte-identity tests share; `run` drives a session with
/// the sink attached.
fn jsonl_of(run: impl FnOnce(&mut telemetry::JsonlSink<Vec<u8>>)) -> Vec<u8> {
    let mut sink = telemetry::JsonlSink::new(Vec::new());
    run(&mut sink);
    let bytes = sink.finish().unwrap();
    assert!(bytes.len() > 10_000, "workload too small to be a golden");
    bytes
}

#[test]
fn unbounded_buffer_is_byte_identical_to_lossless_for_every_scheduler() {
    // A buffer that never fills is the `Unbounded` admission policy: same
    // loop, same event stream, for every discipline.
    let trace = Trace::generate_per_source(&mut sources(0.9), Time::from_ticks(300_000), 21);
    for kind in SchedulerKind::ALL
        .into_iter()
        .chain(SchedulerKind::PIFO_ALL)
    {
        let lossless = jsonl_of(|sink| {
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            Session::trace(&trace, 1.0)
                .probe(sink)
                .run(s.as_mut(), |_| {});
        });
        let lossy = jsonl_of(|sink| {
            let mut s = kind.build(&Sdp::paper_default(), 1.0);
            let report = Session::trace(&trace, 1.0)
                .probe(sink)
                .lossy(u64::MAX, qsim::LossMode::TailDrop)
                .run(s.as_mut());
            assert_eq!(report.total_drops(), 0, "{kind}");
        });
        assert!(
            lossless == lossy,
            "{kind}: a never-full buffer changed the stream"
        );
    }
}

#[test]
fn noop_scenario_is_byte_identical_on_the_lossy_path() {
    // The identity timeline of the lossless tests above, under real buffer
    // pressure: the `Live` timeline must not move a drop or a departure.
    let trace = pinned_trace();
    let run = |sc: scenario::Scenario| {
        let mut report = None;
        let bytes = jsonl_of(|sink| {
            let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), PINNED_RATE);
            let mode = qsim::LossMode::Plr(sched::PlrDropper::new(&[8.0, 4.0, 2.0, 1.0]).unwrap());
            report = Some(
                Session::trace(&trace, PINNED_RATE)
                    .probe(sink)
                    .scenario(sc)
                    .lossy(PINNED_BUFFER_BYTES, mode)
                    .run(s.as_mut()),
            );
        });
        (bytes, report_digest(&report.unwrap()))
    };
    let (baseline, baseline_report) = run(scenario::Scenario::empty());
    let (with_scenario, report) = run(scenario::Scenario::builder()
        .set_sdp(Time::from_ticks(100_000), Sdp::paper_default())
        .set_link_rate(Time::from_ticks(150_000), 0, PINNED_RATE)
        .build()
        .unwrap());
    let stripped = strip_scenario_lines(&with_scenario);
    assert!(
        with_scenario.len() > stripped.len(),
        "scenario events were never recorded"
    );
    assert!(
        baseline == stripped,
        "identity scenario perturbed the telemetry stream"
    );
    assert_eq!(
        baseline_report, report,
        "identity scenario changed the report"
    );
}

#[test]
fn lossy_streaming_equals_lossy_trace_replay() {
    // The buffer takes any arrival iterator, so the O(sources) path can be
    // lossy too — and must agree with the materialized one byte for byte.
    let horizon = Time::from_ticks(300_000);
    let run = |from_trace: bool| {
        let mut report = None;
        let bytes = jsonl_of(|sink| {
            let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), PINNED_RATE);
            let mode = qsim::LossMode::TailDrop;
            report = Some(if from_trace {
                let trace = Trace::generate_per_source(&mut sources(0.95), horizon, 21);
                Session::trace(&trace, PINNED_RATE)
                    .probe(sink)
                    .lossy(PINNED_BUFFER_BYTES, mode)
                    .run(s.as_mut())
            } else {
                Session::sources(&sources(0.95), horizon, 21, PINNED_RATE)
                    .probe(sink)
                    .lossy(PINNED_BUFFER_BYTES, mode)
                    .run(s.as_mut())
            });
        });
        (bytes, report.unwrap())
    };
    let (from_trace, trace_report) = run(true);
    let (from_stream, stream_report) = run(false);
    assert!(trace_report.total_drops() > 0, "no buffer pressure");
    assert!(from_trace == from_stream, "lossy replay paths diverged");
    assert_eq!(report_digest(&trace_report), report_digest(&stream_report));
}

/// FNV-1a over every field of a [`qsim::LossyReport`].
fn report_digest(r: &qsim::LossyReport) -> u64 {
    let delays = r.delays.iter().flat_map(|d| {
        [
            d.count(),
            d.sum().to_bits(),
            d.min().unwrap_or(-1.0).to_bits(),
            d.max().unwrap_or(-1.0).to_bits(),
        ]
    });
    let words = (r.arrivals.iter().copied())
        .chain(r.drops.iter().copied())
        .chain(delays)
        .chain([r.max_backlog_bytes]);
    fnv1a(words.flat_map(u64::to_le_bytes))
}

/// The pinned workload: the ρ = 0.95 paper sources on a link slowed to
/// 0.7 B/tick — offered load ≈ 1.36, and a non-unit rate in the
/// transmission-time rounding.
const PINNED_RATE: f64 = 0.7;
const PINNED_BUFFER_BYTES: u64 = 20_000;

fn pinned_trace() -> Trace {
    Trace::generate_per_source(&mut sources(0.95), Time::from_ticks(300_000), 21)
}

/// A `DownPolicy::Drop` flap followed by a class leaving and rejoining.
fn pinned_flap() -> scenario::Scenario {
    scenario::Scenario::builder()
        .link_down(Time::from_ticks(100_000), 0, scenario::DownPolicy::Drop)
        .link_up(Time::from_ticks(130_000), 0)
        .class_leave(Time::from_ticks(150_000), 2)
        .class_join(Time::from_ticks(200_000), 2)
        .build()
        .unwrap()
}

// The three digests below were captured at the commit *before* the five
// hand-written service loops became one. They hold the loops' documented
// divergences byte for byte: which `limit` a fault drop reports, what it
// counts into, that it bypasses the PLR dropper, which arrivals consume a
// sequence number, and where `max_backlog_bytes` is sampled.

#[test]
fn pinned_lossy_plr_wtp_under_overload() {
    use telemetry::JsonlSink;
    let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), PINNED_RATE);
    let mut sink = JsonlSink::new(Vec::new());
    let mode = qsim::LossMode::Plr(sched::PlrDropper::new(&[8.0, 4.0, 2.0, 1.0]).unwrap());
    let report = Session::trace(&pinned_trace(), PINNED_RATE)
        .probe(&mut sink)
        .lossy(PINNED_BUFFER_BYTES, mode)
        .run(s.as_mut());
    let jsonl = sink.finish().unwrap();
    assert!(report.drops.iter().all(|&d| d > 0), "{:?}", report.drops);
    assert_eq!(report.max_backlog_bytes, PINNED_BUFFER_BYTES);
    assert_eq!(
        (fnv1a(jsonl), report_digest(&report)),
        (PINNED_PLR_JSONL, PINNED_PLR_REPORT)
    );
}

#[test]
fn pinned_lossy_tail_drop_through_a_drop_flap_and_class_churn() {
    use telemetry::JsonlSink;
    let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), PINNED_RATE);
    let mut sink = JsonlSink::new(Vec::new());
    let report = Session::trace(&pinned_trace(), PINNED_RATE)
        .probe(&mut sink)
        .scenario(pinned_flap())
        .lossy(PINNED_BUFFER_BYTES, qsim::LossMode::TailDrop)
        .run(s.as_mut());
    let jsonl = sink.finish().unwrap();
    let text = std::str::from_utf8(&jsonl).unwrap();
    // Fault drops report the buffer as their limit on this path.
    let drops = text.matches("\"ev\":\"drop\"").count() as u64;
    assert_eq!(drops, report.total_drops());
    let at_limit = format!("\"buffer\":{PINNED_BUFFER_BYTES}}}");
    assert_eq!(text.matches(at_limit.as_str()).count() as u64, drops);
    assert_eq!(text.matches("\"ev\":\"scenario\"").count(), 4);
    assert_eq!(
        (fnv1a(jsonl), report_digest(&report)),
        (PINNED_FLAP_LOSSY_JSONL, PINNED_FLAP_LOSSY_REPORT)
    );
}

#[test]
fn pinned_lossless_through_a_drop_flap_and_class_churn() {
    use telemetry::JsonlSink;
    let mut s = SchedulerKind::Wtp.build(&Sdp::paper_default(), PINNED_RATE);
    let mut sink = JsonlSink::new(Vec::new());
    let mut departures = DepartureHash::new();
    Session::trace(&pinned_trace(), PINNED_RATE)
        .probe(&mut sink)
        .scenario(pinned_flap())
        .run(s.as_mut(), |d| departures.push(d));
    let jsonl = sink.finish().unwrap();
    let text = std::str::from_utf8(&jsonl).unwrap();
    // Every drop on the lossless path is a fault drop: limit 0.
    let drops = text.matches("\"ev\":\"drop\"").count();
    assert!(drops > 0);
    assert_eq!(text.matches("\"buffer\":0}").count(), drops);
    assert_eq!(
        (fnv1a(jsonl), departures.0),
        (PINNED_FLAP_LOSSLESS_JSONL, PINNED_FLAP_LOSSLESS_DEPARTURES)
    );
}

const PINNED_PLR_JSONL: u64 = 0x32ad_63b3_a5df_86df;
const PINNED_PLR_REPORT: u64 = 0x7246_d4af_de3c_8ee8;
const PINNED_FLAP_LOSSY_JSONL: u64 = 0x981c_909b_8e90_ee2a;
const PINNED_FLAP_LOSSY_REPORT: u64 = 0xc4b7_6aa6_00f6_5729;
const PINNED_FLAP_LOSSLESS_JSONL: u64 = 0x1360_23b3_9781_9e69;
const PINNED_FLAP_LOSSLESS_DEPARTURES: u64 = 0xfb8d_065e_8b16_ffea;

// The digests below were captured from the hand-written `Pad`, `Hpd`,
// `Additive` and `StrictPriority` at the commit *before* those types were
// deleted in favour of rank functions on `PifoCore`. They are the
// independent record of what the deleted code computed, bit for bit — the
// reason the rank expressions must stay verbatim, operand order included.
// (WTP's independent record is the from-scratch `conformance::oracle`.)

/// Same-tick batches across all four classes, in rotating class order,
/// at ρ ≈ 1.15 with a drain gap after every eighth batch. Sizes are
/// 100/200/400 bytes, so waits are mostly multiples of 100 and ranks
/// cross **exactly**: of 20 000 decisions the two best ranks are equal
/// 1 500 times under `w·s` (s = 1, 2, 4, 8) and, thanks to the 1-, 2-
/// and 4-tick stragglers, 750 times under `w + s`. PAD and HPD tie only
/// while their per-class histories are still symmetric (the all-zero
/// ranks of the first batch, a handful after) — the rest of their
/// digest pins the history arithmetic instead.
fn tie_burst_trace() -> Trace {
    const SIZES: [u32; 3] = [100, 200, 400];
    const STRAGGLE: [u64; 4] = [0, 1, 2, 4];
    let mut entries = Vec::new();
    let mut at = 0u64;
    for k in 0..4_000u64 {
        for j in 0..4u64 {
            entries.push(traffic::TraceEntry {
                at: Time::from_ticks(at),
                class: ((k + j) % 4) as u8,
                size: SIZES[((k + 2 * j) % 3) as usize],
            });
        }
        entries.push(traffic::TraceEntry {
            at: Time::from_ticks(at + STRAGGLE[(k / 4 % 4) as usize]),
            class: (k % 4) as u8,
            size: 100,
        });
        at += if k % 8 == 7 { 4_000 } else { 900 };
    }
    Trace::from_entries(entries)
}

fn departures_digest(kind: SchedulerKind, trace: &Trace, sc: scenario::Scenario) -> u64 {
    let mut s = kind.build(&Sdp::paper_default(), 1.0);
    let mut h = DepartureHash::new();
    Session::trace(trace, 1.0)
        .scenario(sc)
        .run(s.as_mut(), |d| h.push(d));
    h.0
}

/// The four disciplines whose hand-written types were deleted.
const PINNED_KINDS: [SchedulerKind; 4] = [
    SchedulerKind::Pad,
    SchedulerKind::Hpd,
    SchedulerKind::Additive,
    SchedulerKind::Strict,
];
/// Per [`PINNED_KINDS`] entry: the Pareto ρ = 0.95, seed-11 trace.
const PINNED_PARETO: [u64; 4] = [
    0x6b60_aacb_4b6b_e5fa,
    0xb14a_3a52_9d2e_ed62,
    0x3dc5_1077_5fb8_b75a,
    0x36a0_2779_9b6a_7c52,
];
/// Per [`PINNED_KINDS`] entry: [`tie_burst_trace`].
const PINNED_TIE_BURSTS: [u64; 4] = [
    0x351b_0728_8e0d_8cd5,
    0xbd29_9f15_fa62_d2bd,
    0x2e1a_f895_e4c6_0a8d,
    0xfef6_160d_6033_34a5,
];
/// PAD and HPD on the Pareto trace with the SDPs swapped to
/// `[1, 4, 16, 64]` at mid-run; both keep their per-class departure
/// history across the swap.
const PINNED_SDP_SWAP: [u64; 2] = [0x1a62_e214_5ff5_536a, 0x3e91_34bf_2c5f_2a46];

#[test]
fn pinned_pad_hpd_additive_strict_departures() {
    let ties = tie_burst_trace();
    let pareto = PINNED_KINDS.map(|kind| dyn_trace_hash(kind, 0.95, 11).0);
    let tie_bursts =
        PINNED_KINDS.map(|kind| departures_digest(kind, &ties, scenario::Scenario::empty()));
    assert_eq!(pareto, PINNED_PARETO, "Pareto: {pareto:#018x?}");
    assert_eq!(
        tie_bursts, PINNED_TIE_BURSTS,
        "tie bursts: {tie_bursts:#018x?}"
    );
}

#[test]
fn pinned_pad_hpd_keep_history_across_a_live_sdp_swap() {
    let trace = Trace::generate_per_source(&mut sources(0.95), Time::from_ticks(HORIZON_TICKS), 11);
    let got = [PINNED_KINDS[0], PINNED_KINDS[1]].map(|kind| {
        let swap = scenario::Scenario::builder()
            .set_sdp(
                Time::from_ticks(HORIZON_TICKS / 2),
                Sdp::geometric(4, 4.0).unwrap(),
            )
            .build()
            .unwrap();
        departures_digest(kind, &trace, swap)
    });
    assert_eq!(got, PINNED_SDP_SWAP, "{got:#018x?}");
    // The swap took effect: neither run equals its unswapped digest.
    assert_ne!(got[0], PINNED_PARETO[0]);
    assert_ne!(got[1], PINNED_PARETO[1]);
}

// Captured at the commit *before* `traffic` began drawing arrivals a block
// at a time: the scalar `next_arrival` chain and the per-`next()` linear
// merge computed exactly this stream.

/// FNV-1a over the first 10⁶ `(at, class, size)` of the Study-A ρ = 0.95
/// merged stream, seed `SEEDS[0]`.
const PINNED_MERGED_STREAM_PREFIX: u64 = 0x18f9_1513_9dd9_86c0;

#[test]
fn pinned_study_a_merged_stream_prefix() {
    let stream =
        traffic::MergedStream::per_source(sources(0.95), SEEDS[0], Time::from_ticks(600_000_000));
    let mut n = 0u32;
    let mut h = FNV_OFFSET;
    for e in stream.take(1_000_000) {
        for word in [e.at.ticks(), u64::from(e.class), u64::from(e.size)] {
            h = fnv1a_extend(h, word.to_le_bytes());
        }
        n += 1;
    }
    assert_eq!(
        (n, h),
        (1_000_000, PINNED_MERGED_STREAM_PREFIX),
        "digest {h:#018x}"
    );
}

// Captured before `Experiment`, `ShortTimescale` and `Microscope` were put
// on one seed replay (`Experiment::replay`): `run` streamed its arrivals,
// `run_many` replayed a materialized trace, and the other two harnesses
// replayed it through a boxed scheduler.

/// FNV-1a over every field of `Experiment::{run, run_many}`, per-seed
/// `SeedResult`s, `ShortTimescale::run` and `Microscope::run` on small
/// ρ = 0.9 / 0.95 workloads.
const PINNED_STUDY_A_HARNESSES: u64 = 0x45fd_4722_9ea3_0342;

#[test]
fn study_a_harnesses_are_pinned() {
    use qsim::{Experiment, ExperimentResult, Microscope, ShortTimescale};

    fn result(h: &mut u64, r: &ExperimentResult) {
        *h = fnv1a_extend(*h, r.kind.name().bytes());
        for vs in [
            &r.mean_delays,
            &r.ratios,
            &r.target_ratios,
            &r.std_devs,
            &r.p95s,
        ] {
            for v in vs {
                *h = fnv1a_extend(*h, v.to_bits().to_le_bytes());
            }
        }
    }
    let mut h = FNV_OFFSET;
    let e = Experiment::paper(0.9, Sdp::paper_default(), 2_000, vec![5, 6]);
    result(&mut h, &e.run(SchedulerKind::Wtp));
    for r in e.run_many(&[SchedulerKind::Bpr, SchedulerKind::Fcfs, SchedulerKind::Hpd]) {
        result(&mut h, &r);
    }
    let kinds = [
        SchedulerKind::Wtp,
        SchedulerKind::Pifo(sched::RankKind::Lstf),
    ];
    for sr in e.run_seed_probed(&kinds, 6, &mut telemetry::NoopProbe) {
        for s in &sr.per_class {
            h = fnv1a_extend(h, s.count().to_le_bytes());
            for v in [s.mean(), s.std_dev(), s.sum()] {
                h = fnv1a_extend(h, v.to_bits().to_le_bytes());
            }
        }
        for v in &sr.p95 {
            h = fnv1a_extend(h, v.to_bits().to_le_bytes());
        }
    }
    let mut st = ShortTimescale::paper(3_000, vec![3, 4]);
    st.taus_punits = vec![10, 100];
    for kind in [SchedulerKind::Wtp, SchedulerKind::Bpr] {
        for r in st.run(kind) {
            h = fnv1a_extend(h, r.tau_punits.to_le_bytes());
            h = fnv1a_extend(h, (r.intervals as u64).to_le_bytes());
            for v in r.five_number {
                h = fnv1a_extend(h, v.to_bits().to_le_bytes());
            }
        }
    }
    let m = Microscope::paper(2_000, 7);
    for kind in [SchedulerKind::Wtp, SchedulerKind::Bpr] {
        let v = m.run(kind);
        for (at, avgs) in &v.view1 {
            h = fnv1a_extend(h, at.to_le_bytes());
            for a in avgs {
                h = fnv1a_extend(h, a.map_or(u64::MAX, f64::to_bits).to_le_bytes());
            }
        }
        for (at, class, w) in &v.view2 {
            h = fnv1a_extend(h, at.to_le_bytes());
            h = fnv1a_extend(h, [*class]);
            h = fnv1a_extend(h, w.to_bits().to_le_bytes());
        }
        for r in &v.roughness {
            h = fnv1a_extend(h, r.to_bits().to_le_bytes());
        }
    }
    assert_eq!(h, PINNED_STUDY_A_HARNESSES, "harnesses moved: {h:#018x}");
}

// Captured at the commit *before* WFQ, WF²Q+ and SCFQ became one tagged
// class-queue scheduler with three virtual clocks (`sched::FairQueue`):
// the three hand-written types computed exactly these departures, so the
// clocks' float operations must keep their operand order.

/// The three fair-queueing disciplines.
const PINNED_FQ_KINDS: [SchedulerKind; 3] =
    [SchedulerKind::Wfq, SchedulerKind::Wf2q, SchedulerKind::Scfq];
/// Per [`PINNED_FQ_KINDS`] entry: the Pareto ρ = 0.95, seed-11 trace.
const PINNED_FQ_PARETO: [u64; 3] = [
    0x2ee4_fe3b_6bb7_9aee,
    0x26d9_72bc_3203_11c6,
    0x5da0_d9e7_af7c_a866,
];
/// Per [`PINNED_FQ_KINDS`] entry: [`tie_burst_trace`].
const PINNED_FQ_TIE_BURSTS: [u64; 3] = [
    0x2a38_b2a8_8bdb_a32d,
    0x183e_1bb5_984c_d989,
    0x690f_44d7_561a_ca2d,
];
/// Per [`PINNED_FQ_KINDS`] entry: the seed-11 trace with the link slowed
/// to 0.8 B/tick at a third of the horizon and sped to 1.25 at two
/// thirds — WFQ's virtual clock runs at the rate in force.
const PINNED_FQ_RATE_CHANGES: [u64; 3] = [
    0x677e_4a93_1239_c3fa,
    0x150c_7023_824d_be71,
    0x2db4_de57_ff60_4bae,
];

#[test]
fn pinned_fair_queueing_departures() {
    let pareto = PINNED_FQ_KINDS.map(|kind| dyn_trace_hash(kind, 0.95, 11).0);
    let ties = tie_burst_trace();
    let tie_bursts =
        PINNED_FQ_KINDS.map(|kind| departures_digest(kind, &ties, scenario::Scenario::empty()));
    let trace = Trace::generate_per_source(&mut sources(0.95), Time::from_ticks(HORIZON_TICKS), 11);
    let rate_changes = PINNED_FQ_KINDS.map(|kind| {
        let rates = scenario::Scenario::builder()
            .set_link_rate(Time::from_ticks(HORIZON_TICKS / 3), 0, 0.8)
            .set_link_rate(Time::from_ticks(2 * HORIZON_TICKS / 3), 0, 1.25)
            .build()
            .unwrap();
        departures_digest(kind, &trace, rates)
    });
    assert_eq!(pareto, PINNED_FQ_PARETO, "Pareto: {pareto:#018x?}");
    assert_eq!(
        tie_bursts, PINNED_FQ_TIE_BURSTS,
        "tie bursts: {tie_bursts:#018x?}"
    );
    assert_eq!(
        rate_changes, PINNED_FQ_RATE_CHANGES,
        "rate changes: {rate_changes:#018x?}"
    );
}
