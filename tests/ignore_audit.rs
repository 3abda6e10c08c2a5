//! Guard for the `#[ignore]` hygiene audit.
//!
//! An audit of the workspace (in particular `crates/stats/src/ratio.rs`,
//! `crates/sched/src/factory.rs`, and `crates/sched/src/fcfs.rs`, which
//! were reported to carry ignored tests) found **no** unconditionally
//! ignored tests anywhere — nothing to re-enable. The only ignores in the
//! tree are conditional on the one seeded mutation:
//! `cfg_attr(feature = "mutate-pifo-rank", ignore = ...)` on the tie-rule
//! tests in `sched::{scheduler, rank, invariants}` and
//! `cfg_attr(feature = "mutated", ignore = ...)` (the feature that turns
//! it on) in the conformance layer. They exist so the mutated build does
//! not report its *intended* failures as test failures.
//!
//! This test keeps it that way: every `ignore` in every crate's sources
//! must carry a `= "reason"` string, so a silently parked test can never
//! reappear.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_ignore_attribute_carries_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates"), &mut files);
    rust_sources(&root.join("tests"), &mut files);
    rust_sources(&root.join("src"), &mut files);
    assert!(!files.is_empty(), "audit found no sources to scan");

    let mut offenders = Vec::new();
    for file in files {
        // This file spells out the offending pattern in its own docs.
        if file.file_name().is_some_and(|n| n == "ignore_audit.rs") {
            continue;
        }
        let text = fs::read_to_string(&file).unwrap();
        for (lineno, line) in text.lines().enumerate() {
            // Matches both `#[ignore...]` and `cfg_attr(..., ignore...)`,
            // requiring `ignore = "..."` in each.
            let mut rest = line;
            while let Some(pos) = rest.find("ignore") {
                let before_ok =
                    pos == 0 || matches!(rest.as_bytes()[pos - 1], b'[' | b' ' | b',' | b'(');
                let after = rest[pos + "ignore".len()..].trim_start();
                if before_ok && (after.starts_with(']') || after.starts_with(')')) {
                    offenders.push(format!(
                        "{}:{}: {}",
                        file.display(),
                        lineno + 1,
                        line.trim()
                    ));
                }
                rest = &rest[pos + "ignore".len()..];
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "bare #[ignore] without a reason:\n{}",
        offenders.join("\n")
    );
}
