//! Runs one workload in this process: set-up, timed passes, checks, and
//! the result line.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::reference::{normalised, Reference, NOMINAL_S};
use crate::spans::Tracer;
use crate::stat::{median, Summary};
use crate::workloads::{ladders, Ctx, Layers, Outcome, Size, Workload, WorkloadDef};

/// Times a workload is set up in one run; `setup_s` is the median, so
/// one slow page-cache miss does not decide it.
const SETUP_REPS: usize = 3;
/// Fewest timed passes of a run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Fewest untraced/traced pass pairs of a traced run.
const MIN_TRACE_PAIRS: usize = 2;
/// Failures kept in words; the rest are only counted.
const MAX_ERRORS_KEPT: usize = 8;

/// Attempted and failed operations of a run. An operation is one pass
/// (or the one cross-check); it fails if any of its checks fails or if
/// it does not repeat the first pass's units and digest.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub reference: Option<(u64, u64)>,
    pub errors: Vec<String>,
}

impl Verdict {
    pub fn record(&mut self, what: &str, mut errors: Vec<String>) {
        self.attempted += 1;
        if errors.is_empty() {
            return;
        }
        self.failed += 1;
        errors.truncate(MAX_ERRORS_KEPT.saturating_sub(self.errors.len()));
        self.errors
            .extend(errors.into_iter().map(|e| format!("{what}: {e}")));
    }

    pub fn pass(&mut self, what: &str, outcome: Outcome) {
        let Outcome {
            units,
            digest,
            mut errors,
        } = outcome;
        match self.reference {
            None => self.reference = Some((units, digest)),
            Some((u, d)) => {
                if u != units {
                    errors.push(format!("{units} units, the first pass did {u}"));
                }
                if d != digest {
                    errors.push(format!(
                        "digest {digest:016x}, the first pass gave {d:016x}"
                    ));
                }
            }
        }
        self.record(what, errors);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The head of a record in `out/`: which run, and how it went.
    fn record_head(&self, workload: &str, seed: u64) -> Vec<(&'static str, Json)> {
        vec![
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_share",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
        ]
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub struct RunArgs<'a> {
    pub def: &'static WorkloadDef,
    pub ctx: &'a Ctx,
    pub seconds: f64,
    pub traced: bool,
    /// Where `result-*.json`, `layers-*.json` and `trace-*.json` go;
    /// `None` (the smoke run) writes nothing.
    pub out_dir: Option<&'a Path>,
}

/// What a run hands back: the result line for the driver. (The fuller
/// record is on disk by then.)
#[derive(Debug)]
pub struct RunRecord {
    pub line: Json,
    pub correct: bool,
}

fn timed_pass(w: &mut dyn Workload, tracer: &mut Tracer, name: &str) -> (Outcome, f64) {
    let t = Instant::now();
    let span = tracer.begin("harness", name);
    let outcome = w.pass(tracer);
    tracer.end(span);
    (outcome, t.elapsed().as_secs_f64())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn summary_json(s: Summary, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(s.median)),
        ("unit", Json::str(unit)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
    ])
}

pub fn run(args: &RunArgs) -> Result<RunRecord, String> {
    if args.traced {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &RunArgs) -> Result<RunRecord, String> {
    let RunArgs { def, ctx, .. } = *args;
    let smoke = ctx.size == Size::Smoke;
    let mut verdict = Verdict::default();
    let mut off = Tracer::new(false);
    // Every time below is scaled by the reference kernel's own time just
    // before and just after it (see `reference`), so that a slow minute
    // of the host does not read as a slow program.
    let mut reference = Reference::new(ctx.size);
    let mut ref_s = vec![reference.sample()];
    let mut scaled = |raw: f64, reference: &mut Reference| {
        let before = *ref_s.last().expect("sampled once before anything is timed");
        let after = reference.sample();
        ref_s.push(after);
        normalised(raw, before, after)
    };

    // Set-up: input construction plus one untimed warm-up pass, so that
    // work a later change moves "into set-up" shows in `setup_s`.
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..if smoke { 1 } else { SETUP_REPS } {
        // Before the next one is built: peak memory is one instance's.
        drop(workload.take());
        let t = Instant::now();
        let mut w = (def.setup)(ctx)?;
        let warm_up = w.pass(&mut off);
        let raw = t.elapsed().as_secs_f64();
        setup_s.push(scaled(raw, &mut reference));
        setup_raw_s.push(raw);
        verdict.pass("warm-up", warm_up);
        workload = Some(w);
    }
    let mut w = workload.expect("set up at least once");

    // The budget covers the passes and the reference samples between them.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut pass_s, mut pass_raw_s) = (Vec::new(), Vec::new());
    while pass_s.len() < MIN_PASSES || (!smoke && started.elapsed() < budget) {
        let (outcome, raw) = timed_pass(w.as_mut(), &mut off, "pass");
        verdict.pass(&format!("pass {}", pass_s.len()), outcome);
        pass_s.push(scaled(raw, &mut reference));
        pass_raw_s.push(raw);
    }
    // Before the cross-check, which may hold far more than the workload
    // (the session's is a whole materialised trace); less the reference
    // kernel's memory, which is resident throughout and is not the program's.
    let rss = Summary::single(peak_rss_mb()? - reference.resident_mb());
    verdict.record("cross-check", w.cross_check());

    let (units, digest) = verdict.reference.expect("a pass ran");
    let setup = Summary::of(&setup_s);
    let pass = Summary::of(&pass_s);
    // Throughput inherits the pass-time quartiles, turned over.
    let rate = |s: f64| units as f64 / s;
    let units_per_s = Summary {
        median: rate(pass.median),
        q1: rate(pass.q3),
        q3: rate(pass.q1),
        n: pass.n,
    };
    let values = [setup, pass, units_per_s, rss];

    let line = result_line(
        &verdict,
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, s)| (m.name, metric(s.median, m.unit))),
    );
    let mut counts = vec![("units".to_string(), Json::Num(units as f64))];
    counts.extend(
        w.counts()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Num(v as f64))),
    );
    let mut record = verdict.record_head(def.name, ctx.seed);
    record.extend([
        ("unit", Json::str(def.unit)),
        ("digest", Json::str(format!("{digest:016x}"))),
        ("counts", Json::Obj(counts)),
        ("setup_samples_s", Json::nums(&setup_s)),
        ("pass_samples_s", Json::nums(&pass_s)),
        // As the clock read them, and the yardstick they were scaled by.
        ("setup_raw_samples_s", Json::nums(&setup_raw_s)),
        ("pass_raw_samples_s", Json::nums(&pass_raw_s)),
        ("reference_samples_s", Json::nums(&ref_s)),
        ("reference_nominal_s", Json::Num(NOMINAL_S)),
        (
            "metrics",
            Json::obj(
                END_TO_END
                    .iter()
                    .zip(values)
                    .map(|(m, s)| (m.name, summary_json(s, m.unit))),
            ),
        ),
    ]);

    println!("{} (seed {}, unit = {})", def.name, ctx.seed, def.unit);
    for (m, s) in END_TO_END.iter().zip(values) {
        println!(
            "  {:<14} {:>14.6} {:<4} q1 {:.6} q3 {:.6} n {}",
            m.name, s.median, m.unit, s.q1, s.q3, s.n
        );
    }
    println!(
        "  as the clock read them: setup {:.6} s, pass {:.6} s; reference {:.6} s (nominal {NOMINAL_S})",
        median(&setup_raw_s),
        median(&pass_raw_s),
        median(&ref_s),
    );
    report_verdict(
        &verdict,
        &format!("digest {digest:016x}, {units} {}s a pass", def.unit),
    );
    if let Some(dir) = args.out_dir {
        write(
            &dir.join(format!("result-{}.json", def.name)),
            &Json::obj(record).pretty(),
        )?;
    }
    Ok(RunRecord {
        line,
        correct: verdict.correct(),
    })
}

fn run_traced(args: &RunArgs) -> Result<RunRecord, String> {
    let RunArgs { def, ctx, .. } = *args;
    let smoke = ctx.size == Size::Smoke;
    let mut verdict = Verdict::default();
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(true);

    // The workload itself, untraced and traced pass by pass, for the
    // cost of looking and for the spans of its front-door calls.
    let mut w = (def.setup)(ctx)?;
    verdict.pass("warm-up", w.pass(&mut off));
    // A quarter of the run: the ladder below is the larger part.
    let budget = Duration::from_secs_f64(args.seconds / 4.0);
    let started = Instant::now();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    while plain_s.len() < MIN_TRACE_PAIRS || (!smoke && started.elapsed() < budget) {
        let pair = plain_s.len();
        let (outcome, secs) = timed_pass(w.as_mut(), &mut off, "pass");
        verdict.pass(&format!("untraced pass {pair}"), outcome);
        plain_s.push(secs);
        tracer.set_pass(pair as u32);
        let (outcome, secs) = timed_pass(w.as_mut(), &mut tracer, &format!("pass.{}", def.name));
        verdict.pass(&format!("traced pass {pair}"), outcome);
        traced_s.push(secs);
    }
    drop(w);
    let overhead_pct = (median(&traced_s) / median(&plain_s) - 1.0) * 100.0;

    // The per-layer ladder: every layer of the stack, whatever workload
    // was asked for, so that one traced run yields the whole table.
    tracer.set_pass(0);
    let mut layers = Layers::default();
    ladders(ctx, &mut tracer, &mut layers)?;
    layers.put("harness.trace_overhead_pct", overhead_pct);
    verdict.record("ladder", std::mem::take(&mut layers.errors));

    let mut table = Vec::new();
    for m in &PER_LAYER {
        let value = layers
            .get(m.name)
            .ok_or_else(|| format!("the ladder did not take {}", m.name))?;
        table.push((m, value));
    }
    let line = result_line(
        &verdict,
        table.iter().map(|(m, v)| (m.name, metric(*v, m.unit))),
    );

    println!("{} traced (seed {})", def.name, ctx.seed);
    for (m, value) in &table {
        println!("  {:<42} {:>16.4} {}", m.name, value, m.unit);
    }
    println!("  self time by layer, over the whole traced run:");
    let self_secs = tracer.layer_self_secs();
    for (layer, secs) in &self_secs {
        println!("    {layer:<14} {secs:>10.4} s");
    }
    report_verdict(&verdict, &format!("{} spans", tracer.spans().len()));

    let mut record = verdict.record_head(def.name, ctx.seed);
    record.extend([
        (
            "per_layer",
            Json::obj(table.iter().map(|(m, v)| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(*v)),
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.as_str())),
                        ("layer", Json::str(m.layer())),
                        ("moves", Json::str(m.moves)),
                    ]),
                )
            })),
        ),
        (
            "layer_self_s",
            Json::obj(self_secs.iter().map(|&(l, s)| (l, Json::Num(s)))),
        ),
    ]);
    if let Some(dir) = args.out_dir {
        write(
            &dir.join(format!("layers-{}.json", def.name)),
            &Json::obj(record).pretty(),
        )?;
        write(
            &dir.join(format!("trace-{}.json", def.name)),
            &tracer.chrome_trace().compact(),
        )?;
    }
    Ok(RunRecord {
        line,
        correct: verdict.correct(),
    })
}

fn result_line<'a>(verdict: &Verdict, metrics: impl Iterator<Item = (&'a str, Json)>) -> Json {
    Json::obj([
        ("correct", Json::Bool(verdict.correct())),
        ("attempted", Json::Num(verdict.attempted as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn report_verdict(verdict: &Verdict, detail: &str) {
    println!(
        "  {} of {} operations failed ({detail})",
        verdict.failed, verdict.attempted
    );
    for e in &verdict.errors {
        eprintln!("  FAILED {e}");
    }
}

pub fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(units: u64, digest: u64) -> Outcome {
        Outcome {
            units,
            digest,
            errors: Vec::new(),
        }
    }

    #[test]
    fn repeating_passes_are_all_correct() {
        let mut v = Verdict::default();
        assert!(!v.correct(), "nothing attempted is not correct");
        for i in 0..4 {
            v.pass(&format!("pass {i}"), outcome(100, 0xabc));
        }
        v.record("cross-check", Vec::new());
        assert_eq!((v.attempted, v.failed), (5, 0));
        assert!(v.correct());
    }

    #[test]
    fn a_flipped_departure_is_a_failed_operation() {
        let mut v = Verdict::default();
        v.pass("pass 0", outcome(100, 0xabc));
        v.pass("pass 1", outcome(100, 0xabd));
        v.pass("pass 2", outcome(100, 0xabc));
        assert_eq!((v.attempted, v.failed), (3, 1));
        assert!(!v.correct());
        assert!(v.errors[0].starts_with("pass 1: digest 0000000000000abd"));
    }

    #[test]
    fn a_differing_unit_count_or_a_failed_check_is_a_failed_operation() {
        let mut v = Verdict::default();
        v.pass("pass 0", outcome(100, 1));
        v.pass("pass 1", outcome(99, 1));
        v.pass(
            "pass 2",
            Outcome {
                errors: vec!["the warm document differs from the cold one".into()],
                ..outcome(100, 1)
            },
        );
        v.record("cross-check", vec!["threaded differs".into()]);
        assert_eq!((v.attempted, v.failed), (4, 3));
        assert_eq!(v.errors.len(), 3);
    }

    #[test]
    fn kept_errors_are_capped_but_failures_still_count() {
        let mut v = Verdict::default();
        for i in 0..20 {
            v.record("op", vec![format!("e{i}")]);
        }
        assert_eq!(v.failed, 20);
        assert_eq!(v.errors.len(), MAX_ERRORS_KEPT);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut v = Verdict::default();
        v.pass("pass 0", outcome(1, 1));
        let line = result_line(&v, [("pass_s", metric(1.25, "s"))].into_iter());
        assert_eq!(
            line.compact(),
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"pass_s":{"value":1.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
