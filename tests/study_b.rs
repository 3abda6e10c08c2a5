//! Integration tests for the multi-hop user-perspective study (§6).

use propdiff::netsim::{analyze, packet_time_tolerance, ExperimentRecord, Session, StudyBConfig};
use propdiff::sched::SchedulerKind;

fn run_study_b(cfg: &StudyBConfig) -> Vec<ExperimentRecord> {
    Session::study_b(cfg).run()
}

fn small_cfg(k: usize, rho: f64) -> StudyBConfig {
    let mut cfg = StudyBConfig::paper(k, rho, 10, 200.0);
    cfg.experiments = 10;
    cfg.warmup_secs = 5.0;
    cfg.seed = 77;
    cfg
}

/// Table 1's headline: R_D near the ideal 2.0 and consistent
/// differentiation end-to-end.
#[test]
fn end_to_end_rd_is_near_two_and_consistent() {
    let cfg = small_cfg(4, 0.95);
    let records = run_study_b(&cfg);
    let r = analyze(&records, cfg.num_classes(), packet_time_tolerance(&cfg));
    assert_eq!(r.experiments, 10);
    assert!((r.rd - 2.0).abs() < 0.5, "R_D {}", r.rd);
    assert!(
        r.inconsistent_experiments <= 1,
        "{} inconsistent experiments",
        r.inconsistent_experiments
    );
}

/// The paper's observation that per-hop deviations cancel out: more hops
/// keep R_D at least as close to 2.0 (checked loosely).
#[test]
fn more_hops_do_not_break_differentiation() {
    let c4 = small_cfg(4, 0.85);
    let r4 = analyze(&run_study_b(&c4), 4, packet_time_tolerance(&c4));
    let c8 = small_cfg(8, 0.85);
    let r8 = analyze(&run_study_b(&c8), 4, packet_time_tolerance(&c8));
    assert!((r4.rd - 2.0).abs() < 0.6, "K=4 rd {}", r4.rd);
    assert!((r8.rd - 2.0).abs() < 0.6, "K=8 rd {}", r8.rd);
    // Medians scale roughly with hop count (more queues to cross).
    assert!(r8.class_median_ticks[0] > r4.class_median_ticks[0]);
}

/// End-to-end class ordering holds for the medians.
#[test]
fn median_delays_are_class_ordered() {
    let cfg = small_cfg(4, 0.95);
    let r = analyze(
        &run_study_b(&cfg),
        cfg.num_classes(),
        packet_time_tolerance(&cfg),
    );
    for w in r.class_median_ticks.windows(2) {
        assert!(
            w[0] > w[1],
            "medians not ordered: {:?}",
            r.class_median_ticks
        );
    }
}

/// A FCFS network cannot differentiate end-to-end: R_D collapses to ~1.
#[test]
fn fcfs_network_has_no_end_to_end_differentiation() {
    let mut cfg = small_cfg(4, 0.95);
    cfg.scheduler = SchedulerKind::Fcfs;
    let r = analyze(
        &run_study_b(&cfg),
        cfg.num_classes(),
        packet_time_tolerance(&cfg),
    );
    assert!((r.rd - 1.0).abs() < 0.25, "FCFS network R_D {}", r.rd);
}

/// Determinism: identical configs (same seed) produce identical analyses.
#[test]
fn study_b_is_deterministic() {
    let cfg = small_cfg(2, 0.9);
    let a = analyze(&run_study_b(&cfg), 4, packet_time_tolerance(&cfg));
    let b = analyze(&run_study_b(&cfg), 4, packet_time_tolerance(&cfg));
    assert_eq!(a.rd, b.rd);
    assert_eq!(a.inconsistent_experiments, b.inconsistent_experiments);
}
