//! Rank suite: the LSTF universality probe over the Figure-1 load grid.
//!
//! "Universal Packet Scheduling" (Mittal et al.) argues LSTF —
//! least-slack-time-first, the discipline the rank-function core adds to
//! this repo (`sched::LstfRank`) — can replay the behavior of a wide range
//! of schedulers *given the right slack assignments*. This study asks the
//! natural follow-up for proportional differentiation: how close does a
//! single **static** per-class slack assignment (budgets ∝ 1/sᵢ, the
//! obvious proportional choice) get to WTP's ratio targets across the
//! paper's whole utilization sweep?
//!
//! The answer shapes the table: LSTF's slack budgets impose *constant
//! delay offsets* between classes, so the achieved successive-class ratios
//! drift with load — toward 1 as queues grow past the budget scale, away
//! from the target as they shrink below it — while WTP holds its ratios
//! nearly load-independent. Static-slack LSTF is additive (Eq. 3), not
//! proportional (Eq. 2) differentiation: universality in the replay sense
//! does not survive averaging over unknown future loads with one static
//! assignment.
//!
//! Every cell runs through the same probed `qsim::Experiment` harness as
//! Figure 1, so the orchestrator caches and audits these cells like any
//! figure cell.

use pdd::qsim::Experiment;
use pdd::sched::{RankKind, SchedulerKind, Sdp};
use pdd::stats::Table;
use pdd::telemetry::{NoopProbe, Probe};

use crate::{banner, fig1, parallel_map, Scale};

/// The two schedulers each cell compares: static-slack LSTF and WTP (the
/// proportional reference).
pub const SCHEDULERS: [SchedulerKind; 2] =
    [SchedulerKind::Pifo(RankKind::Lstf), SchedulerKind::Wtp];

/// The SDP spacings probed (the Figure-1 panels).
pub const SDP_RATIOS: [f64; 2] = [2.0, 4.0];

/// One (spacing, utilization) measurement of the probe.
#[derive(Debug, Clone)]
pub struct RankRow {
    /// Successive-class spacing ratio (the target ratio).
    pub sdp_ratio: f64,
    /// Link utilization ρ.
    pub utilization: f64,
    /// LSTF's successive-class ratios d̄1/d̄2, d̄2/d̄3, d̄3/d̄4.
    pub lstf: Vec<f64>,
    /// WTP's successive-class ratios on the identical workload.
    pub wtp: Vec<f64>,
}

/// Mean |r/target − 1| over a row's successive ratios.
pub fn mean_deviation(ratios: &[f64], target: f64) -> f64 {
    ratios.iter().map(|r| (r / target - 1.0).abs()).sum::<f64>() / ratios.len() as f64
}

/// Measures one probe cell: one spacing × one utilization, LSTF and WTP,
/// averaged over the scale's seeds.
pub fn cell(sdp_ratio: f64, utilization: f64, scale: Scale) -> RankRow {
    cell_probed(sdp_ratio, utilization, scale, &mut NoopProbe)
}

/// As [`cell`], streaming packet-lifecycle events into `probe`.
///
/// Implemented as the canonical shard pipeline ([`cell_seed_probed`] per
/// seed, folded by [`merge_seeds`] in seed order), so multi-process runs
/// reproduce it bit-for-bit.
pub fn cell_probed<P: Probe>(
    sdp_ratio: f64,
    utilization: f64,
    scale: Scale,
    probe: &mut P,
) -> RankRow {
    let per_seed: Vec<Vec<Vec<f64>>> = scale
        .seeds()
        .iter()
        .map(|&seed| cell_seed_probed(sdp_ratio, utilization, scale, seed, probe))
        .collect();
    merge_seeds(sdp_ratio, utilization, &per_seed)
}

/// Measures **one seed** of a rank cell — the farm's shard unit. Returns
/// each scheduler's successive-class delay ratios in [`SCHEDULERS`] order,
/// `[lstf, wtp]`.
pub fn cell_seed_probed<P: Probe>(
    sdp_ratio: f64,
    utilization: f64,
    scale: Scale,
    seed: u64,
    probe: &mut P,
) -> Vec<Vec<f64>> {
    let sdp = Sdp::geometric(4, sdp_ratio).expect("static");
    let e = Experiment::paper(utilization, sdp, scale.punits(), vec![seed]);
    e.run_seed_probed(&SCHEDULERS, seed, probe)
        .iter()
        .map(|sr| sr.successive_ratios())
        .collect()
}

/// Folds per-seed partials (**seed order**) into the cell row with the
/// single-process aggregation's exact float arithmetic.
pub fn merge_seeds(sdp_ratio: f64, utilization: f64, per_seed: &[Vec<Vec<f64>>]) -> RankRow {
    let kind = |ki: usize| -> Vec<Vec<f64>> { per_seed.iter().map(|s| s[ki].clone()).collect() };
    RankRow {
        sdp_ratio,
        utilization,
        lstf: pdd::qsim::average_rows(&kind(0)),
        wtp: pdd::qsim::average_rows(&kind(1)),
    }
}

/// The full probe: both spacings × the Figure-1 utilization sweep.
#[derive(Debug, Clone)]
pub struct RankStudy {
    /// Rows, spacing-major then utilization-ascending.
    pub rows: Vec<RankRow>,
}

/// Regenerates the rank study.
pub fn run(scale: Scale) -> RankStudy {
    let mut jobs = Vec::new();
    for &sdp_ratio in &SDP_RATIOS {
        for &utilization in &fig1::UTILIZATIONS {
            jobs.push(move || cell(sdp_ratio, utilization, scale));
        }
    }
    RankStudy {
        rows: parallel_map(jobs),
    }
}

impl RankStudy {
    /// Renders the universality table.
    pub fn render(&self) -> String {
        let mut out = banner("Rank suite: static-slack LSTF vs WTP across the Fig.-1 load grid");
        let mut t = Table::new([
            "target", "util", "LSTF 1/2", "LSTF 2/3", "LSTF 3/4", "LSTF dev", "WTP dev",
        ]);
        for row in &self.rows {
            let mut cells = vec![
                format!("{:.0}", row.sdp_ratio),
                format!("{:.1}%", row.utilization * 100.0),
            ];
            cells.extend(row.lstf.iter().map(|r| format!("{r:.2}")));
            cells.push(format!(
                "{:.0}%",
                mean_deviation(&row.lstf, row.sdp_ratio) * 100.0
            ));
            cells.push(format!(
                "{:.0}%",
                mean_deviation(&row.wtp, row.sdp_ratio) * 100.0
            ));
            t.row(cells);
        }
        out.push_str(&t.to_string());
        out.push_str(
            "\nLSTF's static slack budgets (∝ 1/s_i) impose constant delay offsets:\n\
             the achieved ratios drift with load instead of holding the target,\n\
             while WTP's deviation stays small across the sweep — one static slack\n\
             assignment is not universal over unknown loads.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SCALE: Scale = Scale::Custom {
        punits: 6_000,
        nseeds: 2,
    };

    #[test]
    fn lstf_orders_classes_but_drifts_from_the_target() {
        let heavy = cell(2.0, 0.95, TEST_SCALE);
        // LSTF still differentiates (smaller budgets ⇒ smaller delays)...
        for &r in &heavy.lstf {
            assert!(r > 1.0, "LSTF lost class ordering: {:?}", heavy.lstf);
        }
        // ...and WTP tracks the proportional target tighter than static
        // slack does at heavy load, where backlogs dwarf the budgets.
        let lstf_dev = mean_deviation(&heavy.lstf, 2.0);
        let wtp_dev = mean_deviation(&heavy.wtp, 2.0);
        assert!(
            wtp_dev < lstf_dev,
            "expected WTP ({wtp_dev:.3}) to beat static-slack LSTF ({lstf_dev:.3})"
        );
    }

    #[test]
    fn render_lists_the_full_grid() {
        let s = run(Scale::Custom {
            punits: 1_000,
            nseeds: 1,
        });
        assert_eq!(s.rows.len(), SDP_RATIOS.len() * fig1::UTILIZATIONS.len());
        let text = s.render();
        assert!(text.contains("LSTF"));
        assert!(text.contains("99.9%"));
    }
}
