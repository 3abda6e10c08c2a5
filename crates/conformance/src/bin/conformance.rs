//! The conformance suite runner / mutation smoke-runner.
//!
//! ```text
//! conformance [--seeds N] [--expect-detect]
//! ```
//!
//! Runs every named check over seeds `0..N` (default 5). Exit code 0 means
//! the suite passed. With `--expect-detect` the polarity flips: the run
//! succeeds only if at least one check FAILS — that mode, combined with
//! building against `--features mutated` (which flips the rank core's
//! tie-break in `sched`, and in `netsim` the emission lane's and the chain's
//! cross stream's), is the proof that the harness is non-vacuous.
//! CI runs both polarities.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut seeds = 5u64;
    let mut expect_detect = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seeds needs a number"));
            }
            "--expect-detect" => expect_detect = true,
            "--help" | "-h" => {
                println!("usage: conformance [--seeds N] [--expect-detect]");
                return ExitCode::SUCCESS;
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }

    let mutated = if cfg!(feature = "mutated") {
        " [MUTATED build: every mutant under `mutated` in crates/conformance/Cargo.toml is active]"
    } else {
        ""
    };
    println!("conformance suite: {seeds} seed(s) per check{mutated}");

    let failures = conformance::suite::run_suite(seeds, |_, _, _| {});

    for f in &failures {
        println!("FAIL  {} (seed {}): {}", f.check, f.seed, f.message);
    }
    for check in conformance::suite::all_checks() {
        let n_failed = failures.iter().filter(|f| f.check == check.name).count();
        println!(
            "{}  {}",
            if n_failed == 0 { "PASS" } else { "FAIL" },
            check.name
        );
    }

    if expect_detect {
        if failures.is_empty() {
            println!("expected the suite to detect a defect, but every check passed — the harness is vacuous for this build");
            ExitCode::FAILURE
        } else {
            println!(
                "defect detected by {} check run(s) — harness is live",
                failures.len()
            );
            ExitCode::SUCCESS
        }
    } else if failures.is_empty() {
        println!("all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("{} check run(s) failed", failures.len());
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}\nusage: conformance [--seeds N] [--expect-detect]");
    std::process::exit(2);
}
