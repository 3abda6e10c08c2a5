//! End-to-end tests for the multi-process experiment farm: the merged
//! output of `propdiff-run run --workers N` (real OS worker processes)
//! must be byte-identical to the threaded single-process runner at any
//! worker count, crashed workers must not change the answer, and a run
//! must resume from shards banked by an earlier, interrupted run.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use experiments::Scale;
use orchestrator::cache::Cache;
use orchestrator::fingerprint::{source_fingerprint, workspace_root};
use orchestrator::manifest;
use orchestrator::runner::{run, RunOptions};

const PROPDIFF_RUN: &str = env!("CARGO_BIN_EXE_propdiff-run");

const SCALE: Scale = Scale::Custom {
    punits: 2_000,
    nseeds: 3,
};

fn fresh_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("propdiff_farm_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the threaded (no-farm) runner over `suite` and returns the merged
/// document bytes exactly as `propdiff-run run` writes them.
fn threaded_reference(suite: &str, cache_dir: &Path) -> String {
    let m = manifest::suite(suite).unwrap();
    let mut opts = RunOptions::new(SCALE);
    opts.cache_dir = cache_dir.to_path_buf();
    opts.quiet = true;
    let report = run(&m, &opts);
    assert!(report.complete());
    report.merged.serialize()
}

/// Invokes the real binary: `propdiff-run run --workers <workers>` with a
/// private cache, returning the merged document bytes it wrote.
fn farm_run(suite: &str, workers: usize, dir: &Path, envs: &[(&str, &str)]) -> String {
    let out = dir.join(format!("{suite}.json"));
    let mut cmd = Command::new(PROPDIFF_RUN);
    cmd.args([
        "run",
        "--suite",
        suite,
        "--punits",
        "2000",
        "--seeds",
        "3",
        "--workers",
        &workers.to_string(),
        "--quiet",
        "--cache-dir",
    ])
    .arg(dir.join("cache"))
    .arg("--out")
    .arg(&out)
    .arg("--csv-dir")
    .arg(dir.join("csv"));
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let status = cmd.status().expect("spawn propdiff-run");
    assert!(status.success(), "farm run failed for suite {suite}");
    std::fs::read_to_string(&out).unwrap()
}

/// All `*.metrics.json` sidecars under a cache root, as (relative path,
/// contents), sorted — the farm must reproduce these byte-for-byte too.
fn metrics_sidecars(root: &Path) -> Vec<(String, String)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, root, out);
            } else if path.to_string_lossy().ends_with(".metrics.json") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read_to_string(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

#[test]
fn process_farm_is_byte_identical_to_the_threaded_runner() {
    // Two suites, per the farm's acceptance bar: one metered (monitor
    // carries registry sidecars through the pipe) and one not (fig3).
    for suite in ["fig3", "monitor"] {
        let dir = fresh_dir(&format!("identity_{suite}"));
        let reference = threaded_reference(suite, &dir.join("threaded_cache"));
        let one = farm_run(suite, 1, &dir.join("w1"), &[]);
        let four = farm_run(suite, 4, &dir.join("w4"), &[]);
        assert_eq!(reference, one, "{suite}: threaded vs --workers 1");
        assert_eq!(reference, four, "{suite}: threaded vs --workers 4");
        assert_eq!(
            metrics_sidecars(&dir.join("threaded_cache")),
            metrics_sidecars(&dir.join("w4").join("cache")),
            "{suite}: metrics sidecars drifted between runner kinds"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crashed_workers_respawn_and_the_answer_does_not_change() {
    let dir = fresh_dir("crash");
    let reference = threaded_reference("fig3", &dir.join("threaded_cache"));
    // Every original worker exits with CRASH_STATUS after its first job;
    // the pool respawns (hook stripped) and re-runs the lost shards.
    let crashed = farm_run(
        "fig3",
        2,
        &dir.join("crashy"),
        &[(orchestrator::worker::EXIT_AFTER_ENV, "1")],
    );
    assert_eq!(reference, crashed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_new_run_resumes_from_shards_banked_by_an_interrupted_one() {
    let dir = fresh_dir("resume");
    let m = manifest::suite("fig3").unwrap();
    let total_shards: usize = m.cells.iter().map(|c| c.shard_count(SCALE)).sum();

    // Simulate an interrupted run: one cell got two of its three shards
    // into the cache before dying.
    let cache_dir = dir.join("cache");
    let cache = Cache::new(cache_dir.clone(), source_fingerprint(&workspace_root()));
    let cell = m.cells[0].as_ref();
    let shards = cell.shard_count(SCALE);
    assert_eq!(shards, 3, "fig3 cells shard per seed");
    for shard in [0, 2] {
        let (partial, registry) = cell.execute_shard(SCALE, shard);
        cache
            .store_shard(cell, SCALE, shard, shards, &partial, registry.as_deref())
            .unwrap();
    }

    let mut opts = RunOptions::new(SCALE);
    opts.cache_dir = cache_dir;
    opts.quiet = true;
    let report = run(&m, &opts);
    assert_eq!(
        report.shards_executed,
        total_shards - 2,
        "banked shards must be resumed, not re-run"
    );
    assert_eq!(report.executed, m.cells.len());

    // And the merged document is still exactly the from-scratch answer.
    let reference = threaded_reference("fig3", &dir.join("fresh_cache"));
    assert_eq!(report.merged.serialize(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `propdiff-run <args>` in a private directory: exit success, stdout,
/// stderr.
fn cli(dir: &Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(PROPDIFF_RUN)
        .args(args)
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .arg("--out")
        .arg(dir.join("out.json"))
        .arg("--csv-dir")
        .arg(dir.join("csv"))
        .output()
        .expect("spawn propdiff-run");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn non_numeric_counts_are_usage_errors_not_silent_defaults() {
    let dir = fresh_dir("usage");
    for flag in ["--threads", "--workers", "--max-cells"] {
        let (ok, _, stderr) = cli(&dir, &["run", "--suite", "starvation", flag, "x"]);
        assert!(!ok, "`{flag} x` must exit non-zero");
        assert!(
            stderr.contains("usage:") && stderr.contains(flag),
            "`{flag} x` must name the flag: {stderr}"
        );
    }
    assert!(
        !dir.join("out.json").exists(),
        "a usage error must not run the suite"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_scale_that_cannot_be_run_is_a_usage_error_not_a_default_or_a_wrapped_horizon() {
    let dir = fresh_dir("scale");
    for (flags, named) in [
        // Used to read as no flags at all: `scale=quick`, exit 0.
        (&["--punits", "1e6", "--seeds", "two"][..], "--punits"),
        (&["--seeds", "two"], "--seeds"),
        // × 441 = 2⁶⁴ + 47: used to cache every cell of a 47-tick horizon.
        (&["--punits", "41829351641064743"], "--punits"),
    ] {
        let args = [&["run", "--suite", "starvation"], flags].concat();
        let (ok, _, stderr) = cli(&dir, &args);
        assert!(!ok, "`{flags:?}` must exit non-zero");
        assert!(
            stderr.contains("usage:") && stderr.contains(named),
            "`{flags:?}` must name {named}: {stderr}"
        );
    }
    assert!(
        !dir.join("out.json").exists() && !dir.join("cache").exists(),
        "a usage error must not run the suite"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_prints_the_suites_rendered_blocks_unless_quiet() {
    let dir = fresh_dir("stdout");
    let (ok, stdout, _) = cli(&dir, &["run", "--suite", "starvation"]);
    assert!(ok);
    assert!(stdout.starts_with("## starvation\n\n| s2/s1 |"), "{stdout}");
    assert!(!stdout.contains("suite-catalog"));
    let (ok, stdout, _) = cli(&dir, &["run", "--suite", "starvation", "--quiet"]);
    assert!(ok);
    assert!(stdout.is_empty(), "--quiet must silence stdout: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A child killed and reaped on drop, so a failed assertion leaves no
/// worker behind.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn the_worker_refuses_a_scale_tag_the_cli_would_refuse() {
    let m = manifest::suite("fig1").unwrap();
    let id = "fig1-s2-u0_7";
    let cell = m.cells.iter().position(|c| c.id() == id).expect(id);
    // Too short a horizon (it would run as all-null rows), a horizon
    // whose four-fold wraps the clock, a tag `scale_tag` never writes, and
    // u64::MAX p-units — last, since a worker that ran it would not answer
    // for minutes, and by then it has already failed the test.
    let tags = [
        "p0s1",
        "p1s1",
        "p41829351641064743s1",
        "p0100s1",
        "p18446744073709551615s1",
    ];
    let mut worker = Reaped(
        Command::new(PROPDIFF_RUN)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn propdiff-run worker"),
    );
    let mut stdin = worker.0.stdin.take().unwrap();
    for tag in tags {
        writeln!(
            stdin,
            "{{\"op\":\"run\",\"suite\":\"fig1\",\"cell\":{cell},\"id\":\"{id}\",\
             \"scale\":\"{tag}\",\"shard\":0,\"shards\":1}}"
        )
        .unwrap();
    }
    drop(stdin);
    let replies = BufReader::new(worker.0.stdout.take().unwrap()).lines();
    let mut answered = 0;
    for (tag, reply) in tags.iter().zip(replies) {
        let reply = reply.unwrap();
        assert!(reply.contains("\"ok\":false"), "{tag}: {reply}");
        assert!(
            reply.contains(tag),
            "{tag}: the error names the tag: {reply}"
        );
        answered += 1;
    }
    assert_eq!(answered, tags.len(), "one reply per job line");
}
