//! The single-link and tracing tool: generate, inspect and
//! feasibility-check CSV packet traces (`ticks,class,size`, 1 tick = 1
//! byte at link rate 1), and replay a workload with the telemetry layer
//! attached, exporting JSONL and/or Chrome `trace_event` traces plus the
//! registry's metrics snapshot.
//!
//! ```text
//! propdiff-trace gen --out FILE.csv [--rho 0.9] [--punits 50000] [--seed 1]
//!                    [--fractions 40,30,20,10] [--dist pareto|poisson]
//! propdiff-trace stats FILE.csv
//! propdiff-trace feasibility FILE.csv [--spacing 2.0]
//! propdiff-trace run [--scheduler wtp] [--sdp 1,2,4,8] [--rho 0.9]
//!                    [--punits 2000] [--seed 1] [--trace FILE.csv]
//!                    [--buffer BYTES] [--jsonl FILE] [--chrome FILE]
//!                    [--metrics FILE] [--validate]
//! propdiff-trace studyb [--hops 3] [--rho 0.9] [--experiments 3]
//!                       [--seed 42] [--jsonl FILE] [--chrome FILE]
//!                       [--metrics FILE] [--validate]
//! propdiff-trace metrics [--scheduler wtp] [--sdp 1,2,4,8] [--rho 0.95]
//!                        [--punits 4000] [--seed 1] [--window 250]
//!                        [--epsilon 0.25] [--swap-sdp 1,3,9,27]
//!                        [--prom FILE] [--json FILE] [--validate]
//!                        [--expect-violations]
//! propdiff-trace validate FILE.jsonl
//! ```
//!
//! `gen` writes a Study-A workload as a CSV trace; `stats` prints its
//! class mix and burstiness, `feasibility` checks the Eq. (7) conditions
//! for a geometric spacing against it.
//!
//! `run` replays a single-link Study-A workload (generated Pareto traffic,
//! or a CSV trace via `--trace`) through the scheduler `--scheduler` names
//! and prints per-class counters, mean waits and successive mean-wait ratios;
//! `--buffer` switches to the finite-buffer path so drops are traced too.
//! `--metrics` writes the run's `propdiff-metrics-v1` registry snapshot,
//! the format of the experiment farm's `*.metrics.json` sidecars.
//! `studyb` runs the multi-hop engine: user packets keep one span id across
//! hops, so a flow's journey renders as a single track in
//! `chrome://tracing` / Perfetto; it prints each link's departures and
//! per-class mean hop waits from the registry it attaches. `--validate`
//! re-reads the JSONL export through the dependency-free schema checker
//! (the CI telemetry job does the same).
//!
//! `metrics` runs a Study-A workload with the full metrics registry and
//! the online PDD conformance monitor attached, then exports Prometheus
//! text exposition (`--prom`, registry + monitor families) and a JSON
//! snapshot bundle (`--json`). `--swap-sdp` swaps the SDP at mid-run and
//! retargets the monitor, so the transient shows up as violation events.
//! `--validate` runs the exposition through the dependency-free
//! Prometheus checker; `--expect-violations` exits nonzero when the
//! monitor stayed quiet — CI points an infeasible spacing (Eq. 7) at it
//! and asserts the monitor catches the miss.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use pdd::model::{Ddp, ProportionalModel};
use pdd::netsim::{Session as NetSession, StudyBConfig};
use pdd::qsim::{LossMode, Session};
use pdd::sched::{SchedulerKind, Sdp};
use pdd::simcore::Time;
use pdd::stats::{hurst_estimate, idc_curve, variance_time, Table};
use pdd::telemetry::{schema, ChromeTraceSink, JsonlSink, MetricsRegistry, Tee};
use pdd::traffic::{IatDist, LoadPlan, SizeDist, Trace};

/// Prints to stdout, ignoring broken pipes (e.g. `propdiff-trace stats | head`).
fn out(text: std::fmt::Arguments<'_>) {
    let stdout = std::io::stdout();
    let _ = writeln!(stdout.lock(), "{text}");
}

macro_rules! say {
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

const USAGE: &str = "usage:
  propdiff-trace gen --out FILE.csv [--rho 0.9] [--punits 50000] [--seed 1]
                     [--fractions 40,30,20,10] [--dist pareto|poisson]
  propdiff-trace stats FILE.csv
  propdiff-trace feasibility FILE.csv [--spacing 2.0]
  propdiff-trace run [--scheduler wtp] [--sdp 1,2,4,8] [--rho 0.9]
                     [--punits 2000] [--seed 1] [--trace FILE.csv]
                     [--buffer BYTES] [--jsonl FILE] [--chrome FILE]
                     [--metrics FILE] [--validate]
  propdiff-trace studyb [--hops 3] [--rho 0.9] [--experiments 3] [--seed 42]
                        [--jsonl FILE] [--chrome FILE] [--metrics FILE]
                        [--validate]
  propdiff-trace metrics [--scheduler wtp] [--sdp 1,2,4,8] [--rho 0.95]
                         [--punits 4000] [--seed 1] [--window 250]
                         [--epsilon 0.25] [--swap-sdp 1,3,9,27]
                         [--prom FILE] [--json FILE] [--validate]
                         [--expect-violations]
  propdiff-trace validate FILE.jsonl";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("feasibility") => cmd_feasibility(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("studyb") => cmd_studyb(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

fn positional(args: &[String]) -> Option<&str> {
    args.iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && (i == 0 || !args[i - 1].starts_with("--")))
        .map(|(_, a)| a.as_str())
        .next()
}

/// `--punits` (or `default`) and its horizon on the clock.
fn parse_punits(args: &[String], default: &str) -> Result<(u64, Time), String> {
    let punits: u64 = opt(args, "--punits")
        .unwrap_or(default)
        .parse()
        .map_err(|e| format!("bad --punits: {e}"))?;
    let ticks = experiments::punits_to_ticks(punits)
        .ok_or_else(|| format!("bad --punits: {punits} p-units overflow the clock"))?;
    Ok((punits, Time::from_ticks(ticks)))
}

fn parse_sdp(s: &str) -> Result<Sdp, String> {
    let vals: Result<Vec<f64>, _> = s.split(',').map(str::parse::<f64>).collect();
    Sdp::new(&vals.map_err(|e| format!("bad sdp '{s}': {e}"))?).map_err(|e| e.to_string())
}

/// The file-backed sinks requested on the command line, as one probe.
type Sinks = Tee<Option<JsonlSink<BufWriter<File>>>, Option<ChromeTraceSink<BufWriter<File>>>>;

fn open_sinks(args: &[String]) -> Result<Sinks, String> {
    let open = |path: &str| -> Result<BufWriter<File>, String> {
        File::create(path)
            .map(BufWriter::new)
            .map_err(|e| format!("cannot create {path}: {e}"))
    };
    Ok(Tee(
        opt(args, "--jsonl")
            .map(&open)
            .transpose()?
            .map(JsonlSink::new),
        opt(args, "--chrome")
            .map(&open)
            .transpose()?
            .map(ChromeTraceSink::new),
    ))
}

/// Flushes both sinks, reporting what was written.
fn finish_sinks(Tee(jsonl, chrome): Sinks, args: &[String]) -> Result<(), String> {
    if let Some(sink) = jsonl {
        let path = opt(args, "--jsonl").expect("the JSONL sink was opened from --jsonl");
        let lines = sink.lines();
        sink.finish()
            .and_then(|mut w| w.flush())
            .map_err(|e| format!("writing {path}: {e}"))?;
        say!("jsonl:  {lines} events -> {path}");
        if flag(args, "--validate") {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot re-read {path}: {e}"))?;
            let n = schema::validate_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
            say!("schema: {n} lines valid");
        }
    }
    if let Some(sink) = chrome {
        let path = opt(args, "--chrome").expect("the Chrome sink was opened from --chrome");
        let events = sink.events();
        sink.finish()
            .and_then(|mut w| w.flush())
            .map_err(|e| format!("writing {path}: {e}"))?;
        say!("chrome: {events} trace events -> {path}");
    }
    Ok(())
}

/// Prints the run's summary from the registry — per class the counters,
/// the mean queueing wait of delivered packets and its ratio to the next
/// class's (the paper's Eq. 2) — and writes `--metrics`.
fn write_metrics(
    args: &[String],
    registry: &MetricsRegistry,
    classes: usize,
) -> Result<(), String> {
    say!(
        "run: {} probe events over {} virtual ticks ({} decisions, {} heartbeats, heap high-water {})",
        registry.probe_events(),
        registry.virtual_span_ticks(),
        registry.decisions(),
        registry.heartbeats(),
        registry.heap_high_water()
    );
    let totals: Vec<_> = (0..classes).map(|c| registry.class_total(c)).collect();
    let mean_wait: Vec<f64> = totals
        .iter()
        .map(|t| match t.departures {
            0 => 0.0,
            n => t.wait_ticks_sum as f64 / n as f64,
        })
        .collect();
    for (c, t) in totals.iter().enumerate() {
        let ratio = match mean_wait.get(c + 1) {
            Some(&next) if next > 0.0 => format!("{:.2}", mean_wait[c] / next),
            _ => "-".into(),
        };
        say!(
            "class {}: arrivals {:>8}  departures {:>8}  drops {:>6}  mean wait {:>12.1}  \
             depth hwm {:>6}  backlog hwm {:>9} B  ratio to next {ratio:>6}",
            c + 1,
            t.arrivals,
            t.departures,
            t.drops,
            mean_wait[c],
            t.depth_high_water,
            t.backlog_high_water,
        );
    }
    say!("");
    if let Some(path) = opt(args, "--metrics") {
        std::fs::write(path, registry.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        say!("metrics -> {path}");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let kind: SchedulerKind = opt(args, "--scheduler")
        .unwrap_or("wtp")
        .parse()
        .map_err(|e: String| e)?;
    let sdp = parse_sdp(opt(args, "--sdp").unwrap_or("1,2,4,8"))?;

    let trace = if let Some(path) = opt(args, "--trace") {
        Trace::load_csv(path)
            .map_err(|e| format!("cannot read {path}: {e}"))?
            .map_err(|e| e.to_string())?
    } else {
        let rho: f64 = opt(args, "--rho")
            .unwrap_or("0.9")
            .parse()
            .map_err(|e| format!("bad --rho: {e}"))?;
        let (_, horizon) = parse_punits(args, "2000")?;
        let seed: u64 = opt(args, "--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?;
        let mut sources = LoadPlan::paper_study_a(rho)
            .map_err(|e| e.to_string())?
            .pareto_sources()
            .map_err(|e| e.to_string())?;
        Trace::generate_per_source(&mut sources, horizon, seed)
    };
    let max_class = trace.entries().iter().map(|e| e.class).max().unwrap_or(0) as usize;
    if max_class >= sdp.num_classes() {
        return Err(format!(
            "trace uses class {} but SDP has only {} classes",
            max_class + 1,
            sdp.num_classes()
        ));
    }

    let classes = sdp.num_classes();
    let mut probe = Tee(MetricsRegistry::with_shape(1, classes), open_sinks(args)?);
    say!("scheduler: {} on {} packets", kind.name(), trace.len());
    let mut scheduler = kind.build(&sdp, 1.0);

    if let Some(buffer) = opt(args, "--buffer") {
        let buffer: u64 = buffer.parse().map_err(|e| format!("bad --buffer: {e}"))?;
        let max_size = trace.entries().iter().map(|e| e.size).max().unwrap_or(0);
        if buffer < u64::from(max_size) {
            return Err(format!(
                "--buffer {buffer} B cannot hold the trace's largest packet ({max_size} B)"
            ));
        }
        let r = Session::trace(&trace, 1.0)
            .probe(&mut probe)
            .lossy(buffer, LossMode::TailDrop)
            .run(scheduler.as_mut());
        say!(
            "lossy link: {} delivered, {} dropped (buffer {buffer} B)",
            r.delays.iter().map(|d| d.count()).sum::<u64>(),
            r.total_drops()
        );
    } else {
        let mut departures = 0u64;
        Session::trace(&trace, 1.0)
            .probe(&mut probe)
            .run(scheduler.as_mut(), |_| departures += 1);
        say!("lossless link: {departures} delivered");
    }

    let Tee(registry, sinks) = probe;
    write_metrics(args, &registry, classes)?;
    finish_sinks(sinks, args)
}

fn cmd_studyb(args: &[String]) -> Result<(), String> {
    let hops: usize = opt(args, "--hops")
        .unwrap_or("3")
        .parse()
        .map_err(|e| format!("bad --hops: {e}"))?;
    let rho: f64 = opt(args, "--rho")
        .unwrap_or("0.9")
        .parse()
        .map_err(|e| format!("bad --rho: {e}"))?;
    let experiments: u32 = opt(args, "--experiments")
        .unwrap_or("3")
        .parse()
        .map_err(|e| format!("bad --experiments: {e}"))?;
    let seed: u64 = opt(args, "--seed")
        .unwrap_or("42")
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;

    let cfg = StudyBConfig::builder(hops, rho, 10, 200.0)
        .experiments(experiments)
        .warmup_secs(2.0)
        .seed(seed)
        .build()?;

    let classes = cfg.num_classes();
    let mut probe = Tee(MetricsRegistry::with_shape(1, classes), open_sinks(args)?);
    say!("study B: {hops} hops at rho {rho}, {experiments} experiments");
    let records = NetSession::study_b(&cfg).probe(&mut probe).run();
    say!("delivered {} experiment records", records.len());
    let Tee(registry, sinks) = probe;
    for (l, link) in registry.links().iter().enumerate() {
        let departures: u64 = link.classes.iter().map(|ch| ch.hop_departures).sum();
        let waits: Vec<String> = (link.classes.iter())
            .map(|ch| ch.wait_ticks_sum as f64 / ch.hop_departures.max(1) as f64)
            .map(|w| format!("{w:.0}"))
            .collect();
        say!(
            "link {l}: {departures} departures, mean hop wait per class {} ns",
            waits.join(" / ")
        );
    }

    write_metrics(args, &registry, classes)?;
    finish_sinks(sinks, args)
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    use pdd::scenario::Scenario;
    use pdd::telemetry::json::Json;
    use pdd::telemetry::{validate_prometheus, MonitorConfig};
    use pdd::traffic::{SizeDist, PAPER_MEAN_PACKET_BYTES};

    let kind: SchedulerKind = opt(args, "--scheduler")
        .unwrap_or("wtp")
        .parse()
        .map_err(|e: String| e)?;
    let sdp = parse_sdp(opt(args, "--sdp").unwrap_or("1,2,4,8"))?;
    let rho: f64 = opt(args, "--rho")
        .unwrap_or("0.95")
        .parse()
        .map_err(|e| format!("bad --rho: {e}"))?;
    let (punits, horizon) = parse_punits(args, "4000")?;
    let seed: u64 = opt(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let window: u64 = opt(args, "--window")
        .unwrap_or("250")
        .parse()
        .map_err(|e| format!("bad --window: {e}"))?;
    let epsilon: f64 = opt(args, "--epsilon")
        .unwrap_or("0.25")
        .parse()
        .map_err(|e| format!("bad --epsilon: {e}"))?;

    let n = sdp.num_classes();
    let p = PAPER_MEAN_PACKET_BYTES as u64;
    let ratios = |sdp: &Sdp| -> Vec<f64> { (0..n - 1).map(|i| sdp.target_ratio(i)).collect() };
    let window_ticks = (window.checked_mul(p))
        .ok_or_else(|| format!("bad --window: {window} p-units overflow the clock"))?;
    let mut cfg = MonitorConfig::try_new(window_ticks, epsilon, ratios(&sdp))
        .map_err(|e| format!("bad --window or --epsilon: {e}"))?;
    let mut scenario = Scenario::empty();
    if let Some(spec) = opt(args, "--swap-sdp") {
        let swapped = parse_sdp(spec)?;
        if swapped.num_classes() != n {
            return Err(format!(
                "--swap-sdp has {} classes but --sdp has {n}",
                swapped.num_classes()
            ));
        }
        let mid = (punits / 2) * p; // within the checked horizon
        cfg = cfg.retarget(mid, ratios(&swapped));
        scenario = Scenario::builder()
            .set_sdp(Time::from_ticks(mid), swapped)
            .build()
            .map_err(|e| e.to_string())?;
    }

    let fractions = vec![1.0 / n as f64; n];
    let sources = LoadPlan::new(1.0, rho, &fractions, SizeDist::paper())
        .map_err(|e| e.to_string())?
        .pareto_sources()
        .map_err(|e| e.to_string())?;
    let mut scheduler = kind.build(&sdp, 1.0);
    say!(
        "scheduler: {} at rho {rho} for {punits} p-units",
        kind.name()
    );
    let (registry, monitor) = Session::sources(&sources, horizon, seed, 1.0)
        .scenario(scenario)
        .run_monitored(cfg, scheduler.as_mut(), |_| {});

    let departures: u64 = (0..n).map(|c| registry.class_total(c).departures).sum();
    say!("registry:  {departures} departures over {n} classes");
    say!(
        "monitor:   {} windows closed, {} pairs evaluated, {} violations",
        monitor.windows_closed(),
        monitor.pairs_evaluated(),
        monitor.violations().len()
    );

    let mut prom = registry.to_prometheus();
    prom.push_str(&monitor.to_prometheus());
    if flag(args, "--validate") {
        let samples = validate_prometheus(&prom).map_err(|e| format!("exposition invalid: {e}"))?;
        say!("exposition: {samples} samples valid");
    }
    if let Some(path) = opt(args, "--prom") {
        std::fs::write(path, &prom).map_err(|e| format!("cannot write {path}: {e}"))?;
        say!("prometheus -> {path}");
    }
    if let Some(path) = opt(args, "--json") {
        let bundle = Json::obj(vec![
            ("schema", Json::Str("propdiff-metrics-bundle-v1".into())),
            ("metrics", registry.snapshot()),
            ("monitor", monitor.snapshot()),
        ]);
        std::fs::write(path, bundle.serialize())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        say!("snapshot -> {path}");
    }
    if flag(args, "--expect-violations") && monitor.violations().is_empty() {
        return Err(
            "--expect-violations: the monitor reported no violations for this workload".into(),
        );
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let path = positional(args).ok_or("missing FILE.jsonl argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let n = schema::validate_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    say!("{path}: {n} lines valid");
    Ok(())
}

fn parse_fractions(s: &str) -> Result<Vec<f64>, String> {
    let parts: Result<Vec<f64>, _> = s.split(',').map(str::parse::<f64>).collect();
    let parts = parts.map_err(|e| format!("bad fractions '{s}': {e}"))?;
    // Checked before normalizing: one NaN or ∞ would make every share NaN.
    if let Some(c) = parts.iter().position(|f| !f.is_finite()) {
        let share = parts[c];
        return Err(format!(
            "bad fractions '{s}': class {c} (0-based) has share {share}: \
             every class share must be positive and finite"
        ));
    }
    let total: f64 = parts.iter().sum();
    if total <= 0.0 {
        return Err("fractions must sum to a positive value".into());
    }
    Ok(parts.iter().map(|f| f / total).collect())
}

fn load(args: &[String]) -> Result<Trace, String> {
    let path = positional(args).ok_or("missing trace file argument")?;
    Trace::load_csv(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?
        .map_err(|e| e.to_string())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let out = opt(args, "--out").ok_or("gen requires --out FILE")?;
    let rho: f64 = opt(args, "--rho")
        .unwrap_or("0.9")
        .parse()
        .map_err(|e| format!("bad --rho: {e}"))?;
    let (_, horizon) = parse_punits(args, "50000")?;
    let seed: u64 = opt(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let fractions = parse_fractions(opt(args, "--fractions").unwrap_or("40,30,20,10"))?;
    let dist = opt(args, "--dist").unwrap_or("pareto");

    let plan = LoadPlan::new(1.0, rho, &fractions, SizeDist::paper()).map_err(|e| e.to_string())?;
    let family = match dist {
        "pareto" => IatDist::paper_pareto(1.0),
        "poisson" => IatDist::exponential(1.0),
        other => return Err(format!("unknown --dist '{other}' (pareto|poisson)")),
    }
    .map_err(|e| e.to_string())?;
    let mut sources = plan.sources(&family).map_err(|e| e.to_string())?;
    let trace = Trace::generate_per_source(&mut sources, horizon, seed);
    trace
        .save_csv(out)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    say!(
        "wrote {} packets ({} bytes of traffic, load {:.3}) to {out}",
        trace.len(),
        trace.total_bytes(),
        trace.rate_bytes_per_tick()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let trace = load(args)?;
    if trace.is_empty() {
        return Err("trace is empty".into());
    }
    say!("packets: {}", trace.len());
    say!("bytes:   {}", trace.total_bytes());
    say!("load:    {:.4} bytes/tick", trace.rate_bytes_per_tick());
    let counts = trace.class_counts();
    let mut t = Table::new(["class", "packets", "share"]);
    for (c, n) in counts.iter().enumerate() {
        t.row([
            format!("{}", c + 1),
            format!("{n}"),
            format!("{:.1}%", 100.0 * *n as f64 / trace.len() as f64),
        ]);
    }
    say!("{t}");
    let times: Vec<u64> = trace.entries().iter().map(|e| e.at.ticks()).collect();
    let curve = idc_curve(&times, 4410, 8);
    if let (Some(first), Some(last)) = (curve.first(), curve.last()) {
        say!(
            "burstiness: IDC {:.2} -> {:.2} over windows {}..{} ticks",
            first.1,
            last.1,
            first.0,
            last.0
        );
    }
    if let Some(h) = hurst_estimate(&variance_time(&times, 4410, 8)) {
        say!("Hurst estimate: {h:.2} (0.5 = Poisson-like)");
    }
    Ok(())
}

fn cmd_feasibility(args: &[String]) -> Result<(), String> {
    let trace = load(args)?;
    let spacing: f64 = opt(args, "--spacing")
        .unwrap_or("2.0")
        .parse()
        .map_err(|e| format!("bad --spacing: {e}"))?;
    let n = trace.entries().iter().map(|e| e.class).max().unwrap_or(0) as usize + 1;
    if n < 2 {
        return Err("need at least two classes for feasibility".into());
    }
    let arrivals: Vec<(u64, u8, u32)> = trace
        .entries()
        .iter()
        .map(|e| (e.at.ticks(), e.class, e.size))
        .collect();
    let model = ProportionalModel::new(Ddp::geometric(n, spacing).map_err(|e| e.to_string())?);
    let report = model.check_feasibility(&arrivals, 1.0);
    say!("{report}");
    Ok(())
}
