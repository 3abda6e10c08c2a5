//! A `Scale::Bench` run draws every session's arrivals in place: none of
//! its source-driven sessions (≈ 5 700 arrivals; the `monitor`, `dynamics`
//! and `additive` cells) is long enough for `traffic::Ahead` to start its
//! helper thread. This is what keeps the drawn-ahead stream out of the
//! `farm-cold` workload, whose workers run on cores that are already
//! taken.
//!
//! One test, in a file of its own: the count is the process's.

use experiments::Scale;
use orchestrator::manifest::suite;
use orchestrator::runner::{run, RunOptions};
use pdd::traffic::ahead_helpers_started;

#[test]
fn a_bench_scale_run_starts_no_helper_thread() {
    let cache_dir = std::env::temp_dir().join("pdd_no_helper_test");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let run_at = |scale: Scale, name: &str| {
        let mut opts = RunOptions::new(scale);
        opts.cache_dir = cache_dir.clone();
        opts.quiet = true;
        let report = run(&suite(name).expect("a suite of that name"), &opts);
        assert!(report.complete() && report.executed > 0, "{name} ran cold");
    };
    for name in ["monitor", "dynamics", "additive"] {
        run_at(Scale::Bench, name);
    }
    assert_eq!(ahead_helpers_started(), 0);

    // The count is live: a horizon five times as long hands over, on a
    // host that has a second core to hand over to.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_at(Scale::Quick, "dynamics");
    assert_eq!(ahead_helpers_started() > 0, cores > 1, "{cores} cores");
    let _ = std::fs::remove_dir_all(&cache_dir);
}
