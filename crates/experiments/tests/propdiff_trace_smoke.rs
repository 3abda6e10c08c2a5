//! End-to-end smoke test for the `propdiff-trace` binary: a WTP Study-A
//! workload must yield a schema-valid JSONL trace and a Chrome trace where
//! every departed packet has matched begin/end events and every decision
//! record names the winning class.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "propdiff_trace_smoke_{}_{name}",
        std::process::id()
    ))
}

/// Pulls the numeric value of `"key":` out of a JSONL line.
fn field(line: &str, key: &str) -> i64 {
    let pat = format!("\"{key}\":");
    let rest = &line[line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '-')
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {line}"))
}

#[test]
fn wtp_study_a_trace_is_valid_and_spans_are_matched() {
    let jsonl = tmp("trace.jsonl");
    let chrome = tmp("trace.json");

    let output = Command::new(env!("CARGO_BIN_EXE_propdiff-trace"))
        .args([
            "run",
            "--scheduler",
            "wtp",
            "--punits",
            "400",
            "--seed",
            "7",
            "--jsonl",
            jsonl.to_str().unwrap(),
            "--chrome",
            chrome.to_str().unwrap(),
            "--validate",
        ])
        .output()
        .expect("propdiff-trace should launch");
    assert!(
        output.status.success(),
        "propdiff-trace failed:\n{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("schema:"),
        "--validate should report: {stdout}"
    );

    // The JSONL export passes the schema checker independently of --validate.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let lines = pdd::telemetry::schema::validate_jsonl(&text).expect("schema-valid JSONL");
    assert!(lines > 0);

    // Every decision record names a winning class that is among its
    // candidate values, and every departure pairs with one decision
    // (single link, work-conserving, lossless).
    let mut decisions = 0u64;
    let mut departs = 0u64;
    for line in text.lines() {
        if line.starts_with("{\"ev\":\"decision\"") {
            decisions += 1;
            let winner = field(line, "winner");
            assert!(
                line.contains(&format!("[[{winner},")) || line.contains(&format!(",[{winner},")),
                "winner class {winner} missing from values: {line}"
            );
        } else if line.starts_with("{\"ev\":\"depart\"") {
            departs += 1;
        }
    }
    // `eol` is serialized as true/false, so check it textually.
    let eol_true = text.lines().filter(|l| l.contains("\"eol\":true")).count() as u64;
    assert_eq!(
        eol_true, departs,
        "single-link departures are all end-of-life"
    );
    assert!(decisions > 0);
    assert_eq!(
        decisions, departs,
        "one decision per departure on a lossless link"
    );

    // Chrome trace: every async span that begins also ends, exactly once.
    let trace = std::fs::read_to_string(&chrome).unwrap();
    assert!(
        trace.trim_end().ends_with("]}"),
        "trace JSON must be closed"
    );
    let mut begins: HashMap<i64, u64> = HashMap::new();
    let mut ends: HashMap<i64, u64> = HashMap::new();
    for line in trace.lines() {
        if line.contains("\"ph\":\"b\"") {
            *begins.entry(field(line, "id")).or_default() += 1;
        } else if line.contains("\"ph\":\"e\"") {
            *ends.entry(field(line, "id")).or_default() += 1;
        }
    }
    assert!(!begins.is_empty(), "trace should contain packet spans");
    assert_eq!(
        begins, ends,
        "every departed packet has matched begin/end events"
    );
    assert!(
        begins.values().all(|&n| n == 1),
        "span ids are unique per packet"
    );
    assert_eq!(begins.len() as u64, departs, "one span per departed packet");

    let _ = std::fs::remove_file(&jsonl);
    let _ = std::fs::remove_file(&chrome);
}

#[test]
fn buffer_smaller_than_the_largest_packet_is_a_usage_error() {
    // The paper's trimodal sizes top out at 1500 B; a buffer below that
    // (or none at all) must be refused at the CLI, not deep in the engine.
    for buffer in ["0", "1499"] {
        let output = Command::new(env!("CARGO_BIN_EXE_propdiff-trace"))
            .args(["run", "--punits", "50", "--buffer", buffer])
            .output()
            .expect("propdiff-trace should launch");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "--buffer {buffer} was accepted");
        assert!(
            stderr.contains("--buffer") && stderr.contains("1500 B"),
            "--buffer {buffer}: unhelpful message: {stderr}"
        );
        assert!(
            !stderr.contains("panicked at"),
            "--buffer {buffer} panicked: {stderr}"
        );
    }
}

#[test]
fn studyb_flags_no_chain_can_satisfy_are_usage_errors() {
    // The config builder refuses each; past it, the engine's answer to an
    // invalid configuration is a panic.
    for (flag, value, says) in [
        ("--hops", "0", "at least one hop"),
        ("--rho", "0.001", "exceeds the utilization target"),
        ("--experiments", "0", "must be positive"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_propdiff-trace"))
            .args(["studyb", flag, value])
            .output()
            .expect("propdiff-trace should launch");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{flag} {value} must be refused, not crash: {stderr}"
        );
        assert!(stderr.contains(says), "{flag} {value}: {stderr}");
        assert!(
            !stderr.contains("panicked at"),
            "{flag} {value} panicked: {stderr}"
        );
    }
}

#[test]
fn metrics_flags_no_monitor_can_be_built_from_are_usage_errors() {
    // Each reached an assertion in `MonitorConfig::new`.
    for (flag, value, says) in [
        ("--window", "0", "window must be positive"),
        ("--window", "18446744073709551615", "overflow the clock"),
        ("--epsilon", "-1", "tolerance must be positive and finite"),
        ("--epsilon", "nan", "tolerance must be positive and finite"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_propdiff-trace"))
            .args(["metrics", "--punits", "50", flag, value])
            .output()
            .expect("propdiff-trace should launch");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{flag} {value} must be refused, not crash: {stderr}"
        );
        assert!(stderr.contains(says), "{flag} {value}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: {stderr}");
        assert!(
            !stderr.contains("panicked at"),
            "{flag} {value} panicked: {stderr}"
        );
    }
}

#[test]
fn a_horizon_that_overflows_the_clock_is_refused() {
    // 41 829 351 641 064 743 × 441 = 2⁶⁴ + 47: release builds used to run
    // a 47-tick horizon (and `gen` wrote a near-empty trace), debug builds
    // panicked.
    let csv = tmp("overflow.csv");
    for args in [
        vec!["run"],
        vec!["metrics"],
        vec!["gen", "--out", csv.to_str().unwrap()],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_propdiff-trace"))
            .args(&args)
            .args(["--punits", "41829351641064743"])
            .output()
            .expect("propdiff-trace should launch");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("bad --punits") && stderr.contains("overflow the clock"),
            "{args:?}: {stderr}"
        );
    }
    assert!(!csv.exists(), "a refused gen must write no trace");
}

#[test]
fn gen_names_the_class_share_it_refuses() {
    // A negative and a zero share used to be reported as uniform bounds
    // "[1, 1]"; a NaN share got past the load plan and failed later on a
    // NaN mean.
    let csv = tmp("bad_fractions.csv");
    for (fractions, says) in [
        ("50,-10,30,30", "class 1 (0-based) has share -0.1"),
        ("40,30,20,10,0", "class 4 (0-based) has share 0"),
        ("1,nan,1,1", "class 1 (0-based) has share NaN"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_propdiff-trace"))
            .args(["gen", "--out", csv.to_str().unwrap(), "--punits", "100"])
            .args(["--fractions", fractions])
            .output()
            .expect("propdiff-trace should launch");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{fractions}: {stderr}");
        assert!(
            stderr.contains(says)
                && stderr.contains("every class share must be positive and finite"),
            "{fractions}: {stderr}"
        );
    }
    assert!(!csv.exists(), "a refused gen must write no trace");
}

/// Runs `propdiff-trace` with `args`, asserting success; returns stdout.
fn run_ok(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_propdiff-trace"))
        .args(args)
        .output()
        .expect("propdiff-trace should launch");
    assert!(
        output.status.success(),
        "propdiff-trace {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 stdout")
}

#[test]
fn metrics_file_is_the_registry_snapshot_and_byte_stable() {
    let (a, b) = (tmp("metrics_a.json"), tmp("metrics_b.json"));
    for path in [&a, &b] {
        let path = path.to_str().unwrap();
        run_ok(&["run", "--punits", "400", "--seed", "7", "--metrics", path]);
    }
    let (a_bytes, b_bytes) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    assert_eq!(a_bytes, b_bytes, "two runs wrote different --metrics files");
    for path in [&a, &b] {
        let text = std::fs::read_to_string(path).unwrap();
        let registry = pdd::telemetry::MetricsRegistry::from_json(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(registry.to_json(), text);
        assert!(registry.class_total(0).departures > 0);
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_generated_trace_is_inspected_checked_and_replayed() {
    let csv = tmp("gen.csv");
    let path = csv.to_str().unwrap();
    let wrote = run_ok(&["gen", "--out", path, "--punits", "2000", "--seed", "3"]);
    assert!(
        wrote.starts_with("wrote ") && wrote.contains(path),
        "{wrote}"
    );

    let stats = run_ok(&["stats", path]);
    assert!(stats.starts_with("packets: "), "{stats}");
    assert!(stats.contains("burstiness: IDC"), "{stats}");

    let feasibility = run_ok(&["feasibility", path, "--spacing", "2.0"]);
    assert!(feasibility.starts_with("feasibility: "), "{feasibility}");

    // The replay prints, per class, its mean wait and the ratio to the
    // next class's; under WTP at rho 0.9 the ratios sit near the SDP's 2.
    let run = run_ok(&["run", "--trace", path, "--scheduler", "wtp"]);
    let ratios: Vec<&str> = run
        .lines()
        .filter(|l| l.starts_with("class "))
        .map(|l| l.rsplit(' ').next().unwrap())
        .collect();
    assert_eq!(ratios.len(), 4, "{run}");
    assert_eq!(ratios[3], "-", "the top class has no next class: {run}");
    for r in &ratios[..3] {
        let r: f64 = r.parse().unwrap_or_else(|_| panic!("ratio {r}: {run}"));
        assert!((1.0..4.0).contains(&r), "ratio {r} far from 2: {run}");
    }
    let _ = std::fs::remove_file(&csv);
}
