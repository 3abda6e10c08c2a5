//! `link-replay`: one materialised trace replayed through four schedulers.
//!
//! The scheduler decisions and the `qsim` service loop do all the work
//! inside a pass; `traffic` does none (the trace is built in set-up).

use pdd::qsim::{Departure, LossMode, Session};
use pdd::sched::{RankKind, SchedulerKind, Sdp};
use pdd::simcore::Time;
use pdd::traffic::{ClassSource, LoadPlan, Trace};

use super::{ns_per, Ctx, Layers, Outcome, Workload};
use crate::spans::Tracer;
use crate::stat::Digest;

/// Trace horizon in p-units (mean packet transmission times): ≈ 2.85 M
/// packets, ≈ 46 MB — streamed from memory, far beyond L2.
const PUNITS: u64 = 3_000_000;
/// The paper's heavy-load operating point (Fig. 1).
const RHO: f64 = 0.95;
/// Shared buffer of the lossy guard run: small enough that the Pareto
/// bursts at ρ = 0.95 overflow it.
const LOSSY_BUFFER_BYTES: u64 = 20_000;

/// The schedulers a pass replays the trace through: span name, the
/// per-layer metric taken from that span, and the discipline.
const KINDS: [(&str, &str, SchedulerKind); 4] = [
    (
        "replay.wtp",
        "qsim.replay.wtp.ns_per_packet",
        SchedulerKind::Wtp,
    ),
    (
        "replay.bpr",
        "qsim.replay.bpr.ns_per_packet",
        SchedulerKind::Bpr,
    ),
    (
        "replay.hpd",
        "qsim.replay.hpd.ns_per_packet",
        SchedulerKind::Hpd,
    ),
    (
        "replay.pifo-wtp",
        "qsim.replay.pifo-wtp.ns_per_packet",
        SchedulerKind::Pifo(RankKind::Wtp),
    ),
];

/// The paper's Study-A sources (four classes, 40/30/20/10 % load split,
/// Pareto(1.9) gaps, trimodal sizes) at ρ = 0.95, and the horizon that
/// `punits` p-units come to on the 1 byte/tick link.
pub(crate) fn study_a(punits: u64) -> (Vec<ClassSource>, Time) {
    let plan = LoadPlan::paper_study_a(RHO).expect("the paper's load plan is valid");
    let horizon = Time::from_ticks((punits as f64 * plan.p_unit_ticks()) as u64);
    let sources = plan
        .pareto_sources()
        .expect("the paper's Pareto sources are valid");
    (sources, horizon)
}

/// What one replay of a trace came to, folded in the departure sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Replayed {
    pub departures: u64,
    pub digest: u64,
    pub last_finish: Time,
}

/// A departure sink that digests and counts, and the value it folds to.
pub(crate) struct Fold {
    digest: Digest,
    departures: u64,
    last_finish: Time,
}

impl Fold {
    pub fn new() -> Fold {
        Fold {
            digest: Digest::new(),
            departures: 0,
            last_finish: Time::ZERO,
        }
    }

    #[inline]
    pub fn push(&mut self, d: &Departure) {
        // Sequence number and class identify the packet; its finish time
        // (with its fixed size) pins when service began.
        self.digest
            .word(d.packet.seq ^ (u64::from(d.packet.class) << 56));
        self.digest.word(d.finish.ticks());
        self.departures += 1;
        self.last_finish = d.finish;
    }

    pub fn finish(self) -> Replayed {
        Replayed {
            departures: self.departures,
            digest: self.digest.finish(),
            last_finish: self.last_finish,
        }
    }
}

pub(crate) fn replay(trace: &Trace, kind: SchedulerKind, sdp: &Sdp) -> Replayed {
    let mut scheduler = kind.build(sdp, 1.0);
    let mut fold = Fold::new();
    Session::trace(trace, 1.0).run(scheduler.as_mut(), |d| fold.push(d));
    fold.finish()
}

/// The checks of one pass over its four replays; returns the failures.
pub(crate) fn check_replays(trace_len: u64, runs: &[(&str, Replayed)]) -> Vec<String> {
    let mut errors = Vec::new();
    for (name, r) in runs {
        if r.departures != trace_len {
            errors.push(format!(
                "{name}: {} departures for a trace of {trace_len}",
                r.departures
            ));
        }
        // Work conservation: every discipline empties the same backlog
        // at the same instant.
        if r.last_finish != runs[0].1.last_finish {
            errors.push(format!(
                "{name} finished at {:?}, {} at {:?}",
                r.last_finish, runs[0].0, runs[0].1.last_finish
            ));
        }
    }
    let digest_of = |want: &str| runs.iter().find(|(n, _)| *n == want).map(|(_, r)| r.digest);
    if digest_of("replay.wtp") != digest_of("replay.pifo-wtp") {
        errors.push("WTP and PIFO(WTP) departures differ".to_string());
    }
    errors
}

pub struct LinkReplay {
    trace: Trace,
    sdp: Sdp,
}

impl LinkReplay {
    fn new(ctx: &Ctx) -> LinkReplay {
        let (mut sources, horizon) = study_a(ctx.size.of(PUNITS));
        LinkReplay {
            trace: Trace::generate_per_source(&mut sources, horizon, ctx.seed),
            sdp: Sdp::paper_default(),
        }
    }
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(LinkReplay::new(ctx)))
}

impl Workload for LinkReplay {
    fn pass(&mut self, tracer: &mut Tracer) -> Outcome {
        let runs: Vec<(&str, Replayed)> = KINDS
            .iter()
            .map(|&(name, _, kind)| {
                let span = tracer.begin("qsim", name);
                let run = replay(&self.trace, kind, &self.sdp);
                tracer.end(span);
                (name, run)
            })
            .collect();
        let len = self.trace.len() as u64;
        let mut digest = Digest::new();
        for (_, r) in &runs {
            digest.word(r.digest);
        }
        Outcome {
            units: len * KINDS.len() as u64,
            digest: digest.finish(),
            errors: check_replays(len, &runs),
        }
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![("trace_packets", self.trace.len() as u64)]
    }
}

pub fn ladder(ctx: &Ctx, tracer: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    let outer = tracer.begin("harness", "ladder.link-replay");
    let (mut w, build_s) = tracer.time("traffic", "Trace::generate_per_source", || {
        LinkReplay::new(ctx)
    });
    let n = w.trace.len() as u64;
    layers.put("traffic.trace_build_ns_per_packet", ns_per(build_s, n));
    layers.put("qsim.replay_packets", n as f64);

    let span = tracer.begin("harness", "pass.link-replay");
    let first = tracer.spans().len();
    let out = w.pass(tracer);
    let pass_s = tracer.end(span);
    layers.errors.extend(out.errors);
    let kind_secs: Vec<f64> = tracer.spans()[first..].iter().map(|s| s.secs()).collect();
    for (&(_, metric, _), secs) in KINDS.iter().zip(&kind_secs) {
        layers.put(metric, ns_per(*secs, n));
    }
    let sum: f64 = kind_secs.iter().sum();
    layers.check((sum - pass_s).abs() <= 0.05 * pass_s, || {
        format!("qsim.replay.* spans sum to {sum:.4} s of a {pass_s:.4} s pass")
    });

    let (fcfs, secs) = tracer.time("qsim", "replay.fcfs", || {
        replay(&w.trace, SchedulerKind::Fcfs, &w.sdp)
    });
    layers.put("qsim.replay.fcfs.ns_per_packet", ns_per(secs, n));
    layers.check(fcfs.departures == n, || {
        format!("FCFS replay: {} departures of {n}", fcfs.departures)
    });

    let (report, secs) = tracer.time("qsim", "replay.lossy.wtp", || {
        let mut scheduler = SchedulerKind::Wtp.build(&w.sdp, 1.0);
        Session::trace(&w.trace, 1.0)
            .lossy(LOSSY_BUFFER_BYTES, LossMode::TailDrop)
            .run(scheduler.as_mut())
    });
    let (arrivals, drops): (u64, u64) = (report.arrivals.iter().sum(), report.drops.iter().sum());
    layers.put("qsim.lossy.ns_per_packet", ns_per(secs, n));
    layers.put(
        "qsim.lossy.drop_share",
        drops as f64 / arrivals.max(1) as f64,
    );
    layers.check(arrivals == n && drops > 0 && drops < n, || {
        format!("lossy replay: {arrivals} arrivals of {n}, {drops} drops")
    });

    let (metered, secs) = tracer.time("telemetry", "replay.metered.wtp", || {
        let mut scheduler = SchedulerKind::Wtp.build(&w.sdp, 1.0);
        let mut fold = Fold::new();
        let registry =
            Session::trace(&w.trace, 1.0).run_metered(scheduler.as_mut(), |d| fold.push(d));
        std::hint::black_box(registry);
        fold.finish()
    });
    layers.put(
        "telemetry.registry_replay_ns_per_packet",
        ns_per(secs - kind_secs[0], n),
    );
    layers.check(metered.departures == n, || {
        format!("metered replay: {} departures of {n}", metered.departures)
    });
    tracer.end(outer);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_correct_and_repeats() {
        let mut w = LinkReplay::new(&Ctx::smoke(1));
        let mut t = Tracer::new(false);
        let a = w.pass(&mut t);
        assert_eq!(a.errors, Vec::<String>::new());
        assert_eq!(a.units, 4 * w.trace.len() as u64);
        assert_eq!(w.pass(&mut t), a);
        assert_ne!(
            LinkReplay::new(&Ctx::smoke(2)).pass(&mut t).digest,
            a.digest
        );
    }

    #[test]
    fn a_flipped_departure_fails_the_pass() {
        let w = LinkReplay::new(&Ctx::smoke(1));
        let good = replay(&w.trace, SchedulerKind::Wtp, &w.sdp);
        let n = w.trace.len() as u64;
        let runs = |pifo: Replayed| {
            vec![
                ("replay.wtp", good),
                ("replay.bpr", good),
                ("replay.hpd", good),
                ("replay.pifo-wtp", pifo),
            ]
        };
        assert!(check_replays(n, &runs(good)).is_empty());

        // Two departures swapped: same count, same finish, other digest.
        let flipped = Replayed {
            digest: good.digest ^ 1,
            ..good
        };
        let errors = check_replays(n, &runs(flipped));
        assert_eq!(errors, ["WTP and PIFO(WTP) departures differ"]);

        let short = Replayed {
            departures: n - 1,
            ..good
        };
        assert!(check_replays(n, &runs(short))[0].contains("departures"));

        let late = Replayed {
            last_finish: Time::from_ticks(good.last_finish.ticks() + 1),
            ..good
        };
        assert!(check_replays(n, &runs(late))[0].contains("finished at"));
    }

    #[test]
    fn the_fold_sees_a_swapped_pair() {
        let w = LinkReplay::new(&Ctx::smoke(1));
        let mut scheduler = SchedulerKind::Wtp.build(&w.sdp, 1.0);
        let mut departures = Vec::new();
        Session::trace(&w.trace, 1.0).run(scheduler.as_mut(), |d| departures.push(*d));
        let fold = |ds: &[Departure]| {
            let mut f = Fold::new();
            ds.iter().for_each(|d| f.push(d));
            f.finish()
        };
        let straight = fold(&departures);
        assert_eq!(straight, replay(&w.trace, SchedulerKind::Wtp, &w.sdp));
        let mid = departures.len() / 2;
        let (a, b) = (departures[mid].packet, departures[mid + 1].packet);
        departures[mid].packet = b;
        departures[mid + 1].packet = a;
        let swapped = fold(&departures);
        assert_eq!(swapped.departures, straight.departures);
        assert_ne!(swapped.digest, straight.digest);
    }
}
