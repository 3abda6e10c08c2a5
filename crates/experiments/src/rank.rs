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
use pdd::telemetry::json::Json;
use pdd::telemetry::{NoopProbe, Probe};

use crate::cell::{self, Cell, Merged, Partial};
use crate::{fig1, Scale};

/// The two schedulers each cell compares: static-slack LSTF and WTP (the
/// proportional reference).
pub const SCHEDULERS: [SchedulerKind; 2] =
    [SchedulerKind::Pifo(RankKind::Lstf), SchedulerKind::Wtp];

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
///
/// Implemented as the canonical shard pipeline ([`cell_seed_probed`] per
/// seed, folded by [`merge_seeds`] in seed order), so multi-process runs
/// reproduce it bit-for-bit.
pub fn cell(sdp_ratio: f64, utilization: f64, scale: Scale) -> RankRow {
    let per_seed: Vec<Vec<Vec<f64>>> = scale
        .seeds()
        .iter()
        .map(|&seed| cell_seed_probed(sdp_ratio, utilization, scale, seed, &mut NoopProbe))
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

/// One (SDP spacing, utilization) point of the LSTF universality probe.
struct RankCell {
    sdp_ratio: f64,
    utilization: f64,
}

/// The probe's grid: the Figure-1 panels × the Figure-1 utilization sweep.
pub fn cells() -> Vec<Box<dyn Cell>> {
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    for sdp_ratio in fig1::SDP_RATIOS {
        for utilization in fig1::UTILIZATIONS {
            cells.push(Box::new(RankCell {
                sdp_ratio,
                utilization,
            }));
        }
    }
    cells
}

impl Cell for RankCell {
    fn id(&self) -> String {
        cell::sanitize(format!("rank-s{}-u{}", self.sdp_ratio, self.utilization))
    }

    fn params(&self) -> Json {
        cell::params(
            "rank",
            vec![
                ("sdp_ratio", Json::num(self.sdp_ratio)),
                ("utilization", Json::num(self.utilization)),
            ],
        )
    }

    fn shard_count(&self, scale: Scale) -> usize {
        scale.seeds().len()
    }

    fn execute_shard(&self, scale: Scale, shard: usize) -> Partial {
        let seed = scale.seeds()[shard];
        cell::probed_rows_shard(|probe| {
            cell_seed_probed(self.sdp_ratio, self.utilization, scale, seed, probe)
        })
    }

    fn merge(&self, _scale: Scale, shards: &[Partial]) -> Result<Merged, String> {
        cell::probed_rows_merge(&self.id(), shards, |per_seed| {
            let row = merge_seeds(self.sdp_ratio, self.utilization, per_seed);
            Json::obj(vec![
                ("sdp_ratio", Json::num(row.sdp_ratio)),
                ("utilization", Json::num(row.utilization)),
                ("lstf", Json::nums(&row.lstf)),
                ("wtp", Json::nums(&row.wtp)),
            ])
        })
    }
}

/// The `rank` block: LSTF's ratios and both schedulers' deviation from
/// the target, per spacing and utilization.
pub fn table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "rank");
    if cells.is_empty() {
        return None;
    }
    let dev = |r: &Json, key: &str, target: f64| -> String {
        let ratios: Vec<f64> = r
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        if ratios.is_empty() || target == 0.0 {
            return "—".into();
        }
        format!("{:.0}%", mean_deviation(&ratios, target) * 100.0)
    };
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            let target = r.get("sdp_ratio").and_then(Json::as_f64).unwrap_or(0.0);
            let mut row = vec![
                format!("{target:.0}"),
                format!(
                    "{:.1}%",
                    r.get("utilization").and_then(Json::as_f64).unwrap_or(0.0) * 100.0
                ),
            ];
            row.extend(cell::ratio_cells(r, "lstf"));
            row.push(dev(r, "lstf", target));
            row.push(dev(r, "wtp", target));
            row
        })
        .collect();
    Some(cell::markdown_table(
        &[
            "target", "util", "LSTF 1/2", "LSTF 2/3", "LSTF 3/4", "LSTF dev", "WTP dev",
        ],
        rows,
    ))
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
    fn grid_is_the_figure_one_grid() {
        let cells = cells();
        assert_eq!(
            cells.len(),
            fig1::SDP_RATIOS.len() * fig1::UTILIZATIONS.len()
        );
        assert_eq!(cells[cells.len() - 1].id(), "rank-s4-u0_999");
    }
}
