//! `propdiff-run` — the one CLI for every figure, table, and ablation.
//!
//! ```text
//! propdiff-run run    [--suite NAME] [--paper|--bench|--punits N --seeds K]
//!                     [--threads N] [--workers N] [--cache-dir DIR]
//!                     [--out FILE] [--csv-dir DIR] [--max-cells N]
//!                     [--expect-all-cached] [--quiet]
//! propdiff-run render [--doc PATH] [--check] [--suite NAME] [scale flags…]
//! propdiff-run list
//! propdiff-run worker                  (internal: spawned by `run --workers`)
//! ```
//!
//! `run` executes the suite's uncached shards in parallel — on threads by
//! default, or on `--workers N` separate worker *processes* fed over a
//! stdin/stdout JSONL protocol — caches every shard and merged cell under
//! `--cache-dir`, and writes the merged JSON (manifest order,
//! byte-identical at any thread or worker count) to `--out`, and prints the
//! suite's rendered tables — the blocks `render` writes into EXPERIMENTS.md
//! — on stdout unless `--quiet`. A warm re-run does zero simulation work; `--expect-all-cached` turns that into an
//! assertion. `--max-cells N` bounds how many uncached cells run, so an
//! interrupted sweep resumes where it left off; a crashed run resumes from
//! whatever shards it had already banked.
//!
//! `render` rewrites the `<!-- generated:NAME -->` blocks in EXPERIMENTS.md
//! from (cached) results; `--check` instead fails if the document would
//! change — the CI guard against measured numbers drifting from the code.

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::cell::suite_names;
use experiments::fig45;
use experiments::Scale;
use orchestrator::cache::scale_tag;
use orchestrator::{manifest, render, runner};

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of a count flag, `None` when the flag is absent. A missing
/// or non-numeric value is a usage error, never a silent default.
fn count_arg(args: &[String], key: &str) -> Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("usage: {key} expects a count"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("usage: {key} expects a count, got `{value}`"))
}

fn options_from_args(args: &[String]) -> Result<runner::RunOptions, String> {
    let mut opts = runner::RunOptions::new(Scale::try_from_args(args)?);
    if let Some(n) = count_arg(args, "--threads")? {
        opts.workers = n;
    }
    if let Some(n) = count_arg(args, "--workers")? {
        opts.process_workers = n;
    }
    if let Some(dir) = arg_value(args, "--cache-dir") {
        opts.cache_dir = PathBuf::from(dir);
    }
    opts.max_cells = count_arg(args, "--max-cells")?;
    opts.quiet = args.iter().any(|a| a == "--quiet");
    Ok(opts)
}

fn load_suite(args: &[String]) -> Result<manifest::Manifest, String> {
    let name = arg_value(args, "--suite").unwrap_or_else(|| "all".into());
    manifest::suite(&name).ok_or_else(|| {
        format!(
            "unknown suite `{name}` (expected one of: {})",
            suite_names().join(", ")
        )
    })
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let suite = load_suite(args)?;
    let opts = options_from_args(args)?;
    let started = std::time::Instant::now();
    let report = runner::run(&suite, &opts);
    eprintln!(
        "suite={} scale={} cells={} executed={} shards={} cached={} skipped={} wall={:.1}s",
        suite.suite,
        scale_tag(opts.scale),
        suite.cells.len(),
        report.executed,
        report.shards_executed,
        report.cached,
        report.skipped,
        started.elapsed().as_secs_f64()
    );
    if args.iter().any(|a| a == "--expect-all-cached") && report.executed > 0 {
        return Err(format!(
            "--expect-all-cached: {} cells were not served from the cache",
            report.executed
        ));
    }
    let out = arg_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(format!(
                "out/results-{}-{}.json",
                suite.suite,
                scale_tag(opts.scale)
            ))
        });
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out, report.merged.serialize())
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("merged results: {}", out.display());
    let csv_dir = arg_value(args, "--csv-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("out"));
    fig45::write_fig45_csvs(&report.merged, &csv_dir)
        .map_err(|e| format!("write fig45 CSVs: {e}"))?;
    if !opts.quiet {
        for (name, body) in render::suite_blocks(&report.merged) {
            println!("## {name}\n\n{body}\n");
        }
    }
    if !report.complete() {
        return Err(format!(
            "incomplete: {} cells remain (re-run to resume)",
            report.skipped
        ));
    }
    Ok(())
}

fn cmd_render(args: &[String]) -> Result<(), String> {
    let suite = load_suite(args)?;
    let mut opts = options_from_args(args)?;
    opts.quiet = true;
    let report = runner::run(&suite, &opts);
    let doc_path = arg_value(args, "--doc")
        .map(PathBuf::from)
        .unwrap_or_else(|| orchestrator::fingerprint::workspace_root().join("EXPERIMENTS.md"));
    let doc = std::fs::read_to_string(&doc_path)
        .map_err(|e| format!("read {}: {e}", doc_path.display()))?;
    let rendered = render::render_doc(&doc, &report.merged)?;
    if args.iter().any(|a| a == "--check") {
        if rendered != doc {
            return Err(format!(
                "{} is stale: `propdiff-run render` would change its generated blocks",
                doc_path.display()
            ));
        }
        eprintln!("{}: generated blocks up to date", doc_path.display());
    } else if rendered == doc {
        eprintln!("{}: already up to date", doc_path.display());
    } else {
        std::fs::write(&doc_path, &rendered)
            .map_err(|e| format!("write {}: {e}", doc_path.display()))?;
        eprintln!("{}: regenerated", doc_path.display());
    }
    Ok(())
}

fn cmd_list() {
    for name in suite_names() {
        let m = manifest::suite(name).expect("known suite");
        println!("{name:<14} {:>3} cells", m.cells.len());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("render") => cmd_render(&args),
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("worker") => orchestrator::worker::worker_main(),
        Some("--help" | "-h") | None => {
            eprintln!(
                "usage: propdiff-run <run|render|list|worker> [--suite NAME] [scale flags] …\n\
                 see the crate docs (`cargo doc -p orchestrator`) for the full flag list"
            );
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("propdiff-run: {e}");
            ExitCode::FAILURE
        }
    }
}
