//! The repository's benchmark: six workloads timed from outside the
//! public front doors, checked, and reported one metric per line.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--smoke] [--worker-exe PATH] [--out-dir DIR]
//! benchmark compare A.json[,A2.json…] B.json[,B2.json…]
//! ```
//!
//! `run --workload W` measures W in this process and ends its standard
//! output with one JSON result line. Without `--workload` every workload
//! runs in a process of its own, one after the other, and the records
//! are gathered into `<out-dir>/results.json`. See `README.md`.

mod compare;
mod harness;
mod json;
mod metrics;
mod reference;
mod spans;
mod stat;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use harness::{RunArgs, RunRecord};
use json::Json;
use workloads::{Ctx, Size, WORKLOADS};

/// Threads or worker processes a pass may use, whatever the box offers:
/// the work of a pass is a constant, so its parallelism is one too.
const MAX_PARALLELISM: usize = 2;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    worker_exe: PathBuf,
    out_dir: PathBuf,
}

fn parse_run_args(argv: &[String]) -> Result<Args, String> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        traced: false,
        smoke: false,
        // Where `run.sh` leaves it when no target directory is set.
        worker_exe: here.join("../target/release/propdiff-run"),
        out_dir: here.join("out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--worker-exe" => args.worker_exe = value("a path")?.into(),
            "--out-dir" => args.out_dir = value("a path")?.into(),
            "--smoke" => args.smoke = true,
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => {
                args.traced = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// A scratch directory that is removed when the run ends, whether it
/// ends well or not.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(name: &str, args: &Args) -> Result<RunRecord, String> {
    let def = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    if !args.worker_exe.is_file() {
        return Err(format!(
            "{} is not built (benchmark/run.sh builds it)",
            args.worker_exe.display()
        ));
    }
    let scratch = Scratch::new(&args.out_dir)?;
    let ctx = Ctx {
        seed: args.seed,
        size: if args.smoke { Size::Smoke } else { Size::Full },
        parallelism: std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(MAX_PARALLELISM),
        worker_exe: args.worker_exe.clone(),
        scratch: scratch.0.clone(),
    };
    harness::run(&RunArgs {
        def,
        ctx: &ctx,
        seconds: args.seconds,
        traced: args.traced,
        out_dir: (!args.smoke).then_some(args.out_dir.as_path()),
    })
}

/// Standard output of a command that ran and succeeded.
fn stdout_of(program: &str, argv: &[&str]) -> Option<String> {
    Command::new(program)
        .args(argv)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
}

fn meta(args: &Args) -> Json {
    let git =
        |argv: &[&str]| stdout_of("git", &[&["-C", env!("CARGO_MANIFEST_DIR")], argv].concat());
    let first_line = |s: String| s.lines().next().unwrap_or("").to_string();
    Json::obj([
        (
            "git_rev",
            git(&["rev-parse", "--short", "HEAD"]).map_or(Json::Null, |s| Json::str(first_line(s))),
        ),
        (
            "git_dirty",
            git(&["status", "--porcelain"])
                .map_or(Json::Null, |s| Json::Bool(!s.trim().is_empty())),
        ),
        (
            "rustc",
            stdout_of("rustc", &["--version"]).map_or(Json::Null, |s| Json::str(first_line(s))),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("run_seconds", Json::Num(args.seconds)),
        // The workloads the acceptance driver runs; the rest are ours.
        (
            "gated",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| Json::str(w.name))
                    .collect(),
            ),
        ),
    ])
}

/// Every workload, each in a process of its own so that peak memory,
/// allocator state and page cache of one cannot leak into the next.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let modes: &[bool] = if args.traced {
        &[false, true]
    } else {
        &[false]
    };
    let mut ok = true;
    for w in &WORKLOADS {
        for &traced in modes {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--worker-exe")
                .arg(&args.worker_exe)
                .arg("--out-dir")
                .arg(&args.out_dir);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
            ok &= status.success();
        }
    }
    if args.smoke {
        return Ok(ok);
    }
    let read = |file: String| -> Result<Json, String> {
        let path = args.out_dir.join(file);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut records = Vec::new();
    let mut layers = Vec::new();
    for w in &WORKLOADS {
        records.push((w.name, read(format!("result-{}.json", w.name))?));
        if args.traced {
            layers.push((w.name, read(format!("layers-{}.json", w.name))?));
        }
    }
    let mut doc = vec![("meta", meta(args)), ("workloads", Json::obj(records))];
    if args.traced {
        doc.push(("traced", Json::obj(layers)));
    }
    let path = args.out_dir.join("results.json");
    harness::write(&path, &Json::obj(doc).pretty())?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => {
            let args = parse_run_args(&argv[1..])?;
            match &args.workload {
                Some(name) => {
                    let out = run_one(name, &args)?;
                    // The result line: last on standard output.
                    println!("{}", out.line.compact());
                    Ok(out.correct)
                }
                None => run_all(&args),
            }
        }
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(a, b).map(|failed| !failed),
            _ => Err("usage: benchmark compare A.json B.json".to_string()),
        },
        _ => Err("usage: benchmark <run|compare> …  (see benchmark/README.md)".to_string()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_run_args(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let a = parse(&[
            "--workload",
            "farm-warm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("farm-warm"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.smoke),
            (7, 10.0, false, false)
        );
        assert!(parse(&["--trace", "1"]).unwrap().traced);
    }

    #[test]
    fn a_bare_trace_flag_switches_tracing_on() {
        let a = parse(&["--trace", "--seed", "2"]).unwrap();
        assert!(a.traced);
        assert_eq!(a.seed, 2);
        assert!(parse(&["--smoke", "--trace"]).unwrap().traced);
        let d = parse(&[]).unwrap();
        assert_eq!((d.seed, d.traced, d.workload), (1, false, None));
        assert_eq!(d.seconds, metrics::RUN_SECONDS);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let args = parse(&[]).unwrap();
        assert!(run_one("no-such-workload", &args)
            .unwrap_err()
            .contains("link-replay"));
    }
}
