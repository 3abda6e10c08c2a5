//! Figure 2: average-delay ratios under seven class-load distributions at
//! ρ = 0.95, SDP spacing 2 (panel a) and 4 (panel b).
//!
//! Paper reference points: WTP holds the specified ratio "in a very precise
//! manner" independent of the load split; BPR deviates when the load is
//! skewed (heavily loaded classes get more delay than specified).

use pdd::qsim::Experiment;
use pdd::sched::{SchedulerKind, Sdp};
use pdd::telemetry::json::Json;
use pdd::telemetry::{NoopProbe, Probe};

use crate::cell::{self, Cell, Merged, Partial};
use crate::{fig1, Scale};

/// The seven class-load distributions on the paper's x-axis (percent per
/// class, class 1 first).
pub const DISTRIBUTIONS: [[f64; 4]; 7] = [
    [0.40, 0.30, 0.20, 0.10],
    [0.10, 0.20, 0.30, 0.40],
    [0.25, 0.25, 0.25, 0.25],
    [0.70, 0.10, 0.10, 0.10],
    [0.10, 0.10, 0.10, 0.70],
    [0.40, 0.40, 0.10, 0.10],
    [0.10, 0.10, 0.40, 0.40],
];

/// One (panel, distribution) measurement.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// The class-load split.
    pub fractions: [f64; 4],
    /// WTP's successive-class ratios.
    pub wtp: Vec<f64>,
    /// BPR's successive-class ratios.
    pub bpr: Vec<f64>,
}

/// Measures one Figure-2 cell: one SDP spacing × one class-load split at
/// ρ = 0.95, both schedulers, averaged over the scale's seeds.
///
/// Implemented as the canonical shard pipeline ([`cell_seed_probed`] per
/// seed, folded by [`merge_seeds`] in seed order), so multi-process runs
/// reproduce it bit-for-bit.
pub fn cell(sdp_ratio: f64, fractions: [f64; 4], scale: Scale) -> Fig2Row {
    let per_seed: Vec<Vec<Vec<f64>>> = scale
        .seeds()
        .iter()
        .map(|&seed| cell_seed_probed(sdp_ratio, fractions, scale, seed, &mut NoopProbe))
        .collect();
    merge_seeds(fractions, &per_seed)
}

/// Measures **one seed** of a Figure-2 cell — the farm's shard unit.
/// Returns each scheduler's successive-class delay ratios, `[wtp, bpr]`.
pub fn cell_seed_probed<P: Probe>(
    sdp_ratio: f64,
    fractions: [f64; 4],
    scale: Scale,
    seed: u64,
    probe: &mut P,
) -> Vec<Vec<f64>> {
    let sdp = Sdp::geometric(4, sdp_ratio).expect("static");
    let mut e = Experiment::paper(0.95, sdp, scale.punits(), vec![seed]);
    e.class_fractions = fractions.to_vec();
    e.run_seed_probed(&[SchedulerKind::Wtp, SchedulerKind::Bpr], seed, probe)
        .iter()
        .map(|sr| sr.successive_ratios())
        .collect()
}

/// Folds per-seed partials (**seed order**) into the cell row with the
/// single-process aggregation's exact float arithmetic.
pub fn merge_seeds(fractions: [f64; 4], per_seed: &[Vec<Vec<f64>>]) -> Fig2Row {
    let kind = |ki: usize| -> Vec<Vec<f64>> { per_seed.iter().map(|s| s[ki].clone()).collect() };
    Fig2Row {
        fractions,
        wtp: pdd::qsim::average_rows(&kind(0)),
        bpr: pdd::qsim::average_rows(&kind(1)),
    }
}

/// One (SDP spacing, load split) point of Figure 2 at ρ = 0.95.
struct Fig2Cell {
    sdp_ratio: f64,
    /// Index into [`DISTRIBUTIONS`].
    dist: usize,
}

/// The Figure-2 grid: both panels × the seven load splits.
pub fn cells() -> Vec<Box<dyn Cell>> {
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    for sdp_ratio in fig1::SDP_RATIOS {
        for dist in 0..DISTRIBUTIONS.len() {
            cells.push(Box::new(Fig2Cell { sdp_ratio, dist }));
        }
    }
    cells
}

impl Cell for Fig2Cell {
    fn id(&self) -> String {
        cell::sanitize(format!("fig2-s{}-d{}", self.sdp_ratio, self.dist))
    }

    fn params(&self) -> Json {
        cell::params(
            "fig2",
            vec![
                ("sdp_ratio", Json::num(self.sdp_ratio)),
                ("dist", Json::Int(self.dist as i64)),
                ("fractions", Json::nums(&DISTRIBUTIONS[self.dist])),
            ],
        )
    }

    fn shard_count(&self, scale: Scale) -> usize {
        scale.seeds().len()
    }

    fn execute_shard(&self, scale: Scale, shard: usize) -> Partial {
        let seed = scale.seeds()[shard];
        cell::probed_rows_shard(|probe| {
            cell_seed_probed(self.sdp_ratio, DISTRIBUTIONS[self.dist], scale, seed, probe)
        })
    }

    fn merge(&self, _scale: Scale, shards: &[Partial]) -> Result<Merged, String> {
        cell::probed_rows_merge(&self.id(), shards, |per_seed| {
            let row = merge_seeds(DISTRIBUTIONS[self.dist], per_seed);
            Json::obj(vec![
                ("fractions", Json::nums(&row.fractions)),
                ("wtp", Json::nums(&row.wtp)),
                ("bpr", Json::nums(&row.bpr)),
            ])
        })
    }
}

/// The `fig2a` block: one panel's ratios per load split.
pub fn table(merged: &Json, sdp_ratio: f64) -> Option<String> {
    let cells: Vec<_> = cell::group_cells(merged, "fig2")
        .into_iter()
        .filter(|c| cell::param_f64(c, "sdp_ratio") == Some(sdp_ratio))
        .collect();
    if cells.is_empty() {
        return None;
    }
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            let label = r
                .get("fractions")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|f| format!("{}", (f.as_f64().unwrap_or(0.0) * 100.0).round() as u64))
                .collect::<Vec<_>>()
                .join("/");
            let mut row = vec![label];
            row.extend(cell::ratio_cells(r, "wtp"));
            row.extend(cell::ratio_cells(r, "bpr"));
            row
        })
        .collect();
    Some(cell::markdown_table(
        &[
            "loads %", "WTP 1/2", "WTP 2/3", "WTP 3/4", "BPR 1/2", "BPR 2/3", "BPR 3/4",
        ],
        rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wtp_is_load_distribution_insensitive() {
        // Mean absolute relative deviation from the panel-a target across
        // every load split and class pair, per scheduler.
        let target = fig1::SDP_RATIOS[0];
        let rows: Vec<Fig2Row> = DISTRIBUTIONS
            .iter()
            .map(|&fractions| cell(target, fractions, Scale::Bench))
            .collect();
        let dev = |pick: fn(&Fig2Row) -> &Vec<f64>| {
            let all: Vec<f64> = rows.iter().flat_map(|r| pick(r).iter().copied()).collect();
            all.iter().map(|v| (v - target).abs() / target).sum::<f64>() / all.len() as f64
        };
        let (wtp_dev, bpr_dev) = (dev(|r| &r.wtp), dev(|r| &r.bpr));
        // WTP within a loose band of the target for every split at 95%.
        assert!(wtp_dev < 0.25, "WTP deviation {wtp_dev}");
        // The paper's qualitative claim: WTP beats BPR in this regime.
        assert!(
            wtp_dev < bpr_dev + 0.05,
            "WTP dev {wtp_dev} vs BPR dev {bpr_dev}"
        );
    }
}
