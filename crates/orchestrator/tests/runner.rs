//! End-to-end runner tests: cold/warm cache behaviour, resume via the
//! `max_cells` budget, and byte-stability of the merged document across
//! thread counts. Everything runs at `Scale::Bench` against throwaway
//! cache directories so the suite stays fast and hermetic.

use std::path::PathBuf;

use experiments::fig45::write_fig45_csvs;
use experiments::Scale;
use orchestrator::manifest::suite;
use orchestrator::runner::{run, RunOptions};
use pdd::telemetry::json::Json;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdd_runner_test_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(cache_dir: PathBuf) -> RunOptions {
    let mut o = RunOptions::new(Scale::Bench);
    o.cache_dir = cache_dir;
    o.quiet = true;
    o
}

#[test]
fn warm_rerun_does_zero_simulation_work_and_is_byte_identical() {
    let m = suite("plr").expect("plr suite");
    let dir = temp_dir("warm");
    let o = opts(dir.clone());

    let cold = run(&m, &o);
    assert_eq!(cold.executed, m.cells.len());
    assert_eq!(cold.cached, 0);
    assert!(cold.complete());

    let warm = run(&m, &o);
    assert_eq!(warm.executed, 0, "warm run must be all cache hits");
    assert_eq!(warm.cached, m.cells.len());
    assert!(warm.complete());
    assert_eq!(
        cold.merged.serialize(),
        warm.merged.serialize(),
        "cache round-trip must preserve the merged document byte for byte"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn merged_document_is_identical_at_one_and_many_threads() {
    let m = suite("moderate-load").expect("moderate-load suite");
    let dir1 = temp_dir("threads1");
    let dirn = temp_dir("threadsn");
    let mut serial = opts(dir1.clone());
    serial.workers = 1;
    let mut wide = opts(dirn.clone());
    wide.workers = 4;

    let a = run(&m, &serial);
    let b = run(&m, &wide);
    assert_eq!(a.executed, m.cells.len());
    assert_eq!(b.executed, m.cells.len());
    assert_eq!(
        a.merged.serialize(),
        b.merged.serialize(),
        "merge order must not depend on thread count"
    );
    let _ = std::fs::remove_dir_all(dir1);
    let _ = std::fs::remove_dir_all(dirn);
}

#[test]
fn a_worker_that_cannot_spawn_leaves_every_shard_in_process_and_the_document_unchanged() {
    let m = suite("plr").expect("plr suite");
    let threaded_dir = temp_dir("nospawn_threads");
    let farm_dir = temp_dir("nospawn_farm");
    let threaded = run(&m, &opts(threaded_dir.clone()));
    // No child can spawn: every slot's attempts fail, the respawn budget
    // runs out, and each shard runs in this process.
    let mut farmed = opts(farm_dir.clone());
    farmed.process_workers = 2;
    farmed.worker_exe = Some(farm_dir.join("no-such-worker"));
    let fell_back = run(&m, &farmed);
    assert!(fell_back.complete());
    assert_eq!(fell_back.executed, m.cells.len());
    assert_eq!(fell_back.shards_executed, threaded.shards_executed);
    assert_eq!(
        fell_back.merged.serialize(),
        threaded.merged.serialize(),
        "a pool whose children never spawn must answer as the in-process one"
    );
    let _ = std::fs::remove_dir_all(threaded_dir);
    let _ = std::fs::remove_dir_all(farm_dir);
}

#[test]
fn interrupted_run_resumes_with_only_the_missing_cells() {
    let m = suite("plr").expect("plr suite");
    let dir = temp_dir("resume");

    // "Interrupt" after two cells via the budget.
    let mut first = opts(dir.clone());
    first.max_cells = Some(2);
    let partial = run(&m, &first);
    assert_eq!(partial.executed, 2);
    assert_eq!(partial.skipped, 2);
    assert!(!partial.complete());

    // The resume executes only what the interrupted run left behind.
    let resumed = run(&m, &opts(dir.clone()));
    assert_eq!(resumed.executed, 2);
    assert_eq!(resumed.cached, 2);
    assert!(resumed.complete());

    // And the resumed document matches a from-scratch run exactly.
    let fresh_dir = temp_dir("resume_fresh");
    let fresh = run(&m, &opts(fresh_dir.clone()));
    assert_eq!(resumed.merged.serialize(), fresh.merged.serialize());
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(fresh_dir);
}

#[test]
fn incomplete_merge_marks_skipped_cells_null() {
    let m = suite("moderate-load").expect("moderate-load suite");
    let dir = temp_dir("nulls");
    let mut o = opts(dir.clone());
    o.max_cells = Some(1);
    let partial = run(&m, &o);
    assert!(!partial.complete());
    let cells = partial
        .merged
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells array");
    assert_eq!(
        cells.len(),
        m.cells.len(),
        "merge always covers the manifest"
    );
    let nulls = cells
        .iter()
        .filter(|c| c.get("result") == Some(&Json::Null))
        .count();
    assert_eq!(nulls, m.cells.len() - 1);
    assert_eq!(partial.merged.get("complete"), Some(&Json::Bool(false)));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fig45_csvs_are_written_from_the_merged_document() {
    let m = suite("fig45").expect("fig45 suite");
    let dir = temp_dir("fig45csv");
    let report = run(&m, &opts(dir.join("cache")));
    write_fig45_csvs(&report.merged, &dir.join("csv")).unwrap();
    for name in [
        "fig4_view1.csv",
        "fig4_view2.csv",
        "fig5_view1.csv",
        "fig5_view2.csv",
    ] {
        let content = std::fs::read_to_string(dir.join("csv").join(name)).unwrap();
        assert!(content.lines().count() > 1, "{name} is empty");
    }
    let _ = std::fs::remove_dir_all(dir);
}
