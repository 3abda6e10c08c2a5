//! Figure 1: average-delay ratios between successive classes vs link
//! utilization, for WTP and BPR, at SDP spacing 2 (panel a) and 4 (panel b).
//!
//! Paper reference points: both schedulers converge to the target ratio as
//! ρ → 1; at ρ = 0.70 the ratio is ≈1.5 when it should be 2 and ≈1.7 when
//! it should be 4; WTP converges more exactly than BPR.

use pdd::qsim::Experiment;
use pdd::sched::{SchedulerKind, Sdp};
use pdd::telemetry::json::Json;
use pdd::telemetry::{NoopProbe, Probe};

use crate::cell::{self, Cell, Merged, Partial};
use crate::Scale;

/// The SDP spacings of panels a and b.
pub const SDP_RATIOS: [f64; 2] = [2.0, 4.0];

/// The utilizations swept by the paper's Fig. 1 x-axis.
pub const UTILIZATIONS: [f64; 7] = [0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.999];

/// One (panel, utilization) measurement.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Link utilization ρ.
    pub utilization: f64,
    /// WTP's successive-class ratios d̄1/d̄2, d̄2/d̄3, d̄3/d̄4.
    pub wtp: Vec<f64>,
    /// BPR's successive-class ratios.
    pub bpr: Vec<f64>,
}

/// Measures one Figure-1 cell: one SDP spacing × one utilization, both
/// schedulers, averaged over the scale's seeds.
///
/// Implemented as the canonical shard pipeline — each seed measured by
/// [`cell_seed_probed`], partials folded by [`merge_seeds`] in seed order
/// — so a multi-process run that ships per-seed partials between workers
/// reproduces this bit-for-bit.
pub fn cell(sdp_ratio: f64, utilization: f64, scale: Scale) -> Fig1Row {
    let per_seed: Vec<Vec<Vec<f64>>> = scale
        .seeds()
        .iter()
        .map(|&seed| cell_seed_probed(sdp_ratio, utilization, scale, seed, &mut NoopProbe))
        .collect();
    merge_seeds(utilization, &per_seed)
}

/// Measures **one seed** of a Figure-1 cell — the farm's shard unit.
/// Returns each scheduler's successive-class delay ratios for that seed,
/// `[wtp, bpr]`.
pub fn cell_seed_probed<P: Probe>(
    sdp_ratio: f64,
    utilization: f64,
    scale: Scale,
    seed: u64,
    probe: &mut P,
) -> Vec<Vec<f64>> {
    let sdp = Sdp::geometric(4, sdp_ratio).expect("static");
    let e = Experiment::paper(utilization, sdp, scale.punits(), vec![seed]);
    e.run_seed_probed(&[SchedulerKind::Wtp, SchedulerKind::Bpr], seed, probe)
        .iter()
        .map(|sr| sr.successive_ratios())
        .collect()
}

/// Folds per-seed partials (one [`cell_seed_probed`] output per seed,
/// **in seed order**) into the cell row, with the exact float arithmetic
/// of the single-process seed aggregation.
pub fn merge_seeds(utilization: f64, per_seed: &[Vec<Vec<f64>>]) -> Fig1Row {
    let kind = |ki: usize| -> Vec<Vec<f64>> { per_seed.iter().map(|s| s[ki].clone()).collect() };
    Fig1Row {
        utilization,
        wtp: pdd::qsim::average_rows(&kind(0)),
        bpr: pdd::qsim::average_rows(&kind(1)),
    }
}

/// One (SDP spacing, utilization) point of Figure 1 (WTP and BPR).
struct Fig1Cell {
    sdp_ratio: f64,
    utilization: f64,
}

/// The Figure-1 grid: both panels × the utilization sweep.
pub fn cells() -> Vec<Box<dyn Cell>> {
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    for sdp_ratio in SDP_RATIOS {
        for utilization in UTILIZATIONS {
            cells.push(Box::new(Fig1Cell {
                sdp_ratio,
                utilization,
            }));
        }
    }
    cells
}

impl Cell for Fig1Cell {
    fn id(&self) -> String {
        cell::sanitize(format!("fig1-s{}-u{}", self.sdp_ratio, self.utilization))
    }

    fn params(&self) -> Json {
        cell::params(
            "fig1",
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
            let row = merge_seeds(self.utilization, per_seed);
            Json::obj(vec![
                ("utilization", Json::num(row.utilization)),
                ("wtp", Json::nums(&row.wtp)),
                ("bpr", Json::nums(&row.bpr)),
            ])
        })
    }
}

/// The `fig1a` / `fig1b` block: one panel's ratios per utilization.
pub fn table(merged: &Json, sdp_ratio: f64) -> Option<String> {
    let cells: Vec<_> = cell::group_cells(merged, "fig1")
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
            let mut row = vec![format!(
                "{:.1}%",
                r.get("utilization").and_then(Json::as_f64).unwrap_or(0.0) * 100.0
            )];
            row.extend(cell::ratio_cells(r, "wtp"));
            row.extend(cell::ratio_cells(r, "bpr"));
            row
        })
        .collect();
    Some(cell::markdown_table(
        &[
            "util", "WTP 1/2", "WTP 2/3", "WTP 3/4", "BPR 1/2", "BPR 2/3", "BPR 3/4",
        ],
        rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scale_reproduces_the_shape() {
        // One bench-scale seed is too noisy at rho = 0.999 for the 0.5
        // convergence tolerance; averaging four seeds stabilizes it.
        let scale = Scale::Custom {
            punits: 6_000,
            nseeds: 4,
        };
        // Convergence at the heaviest load, panel a (target 2).
        let heavy = cell(SDP_RATIOS[0], UTILIZATIONS[UTILIZATIONS.len() - 1], scale);
        for r in &heavy.wtp {
            assert!((r - 2.0).abs() < 0.5, "WTP heavy-load ratio {r}");
        }
        // Undershoot at the lightest load.
        let light = cell(SDP_RATIOS[0], UTILIZATIONS[0], scale);
        let mean = light.wtp.iter().sum::<f64>() / light.wtp.len() as f64;
        assert!(mean < 1.95, "expected undershoot at 70%, got {mean}");
    }

    #[test]
    fn grid_covers_both_panels() {
        let ids: Vec<String> = cells().iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), SDP_RATIOS.len() * UTILIZATIONS.len());
        assert_eq!(ids[0], "fig1-s2-u0_7");
        assert_eq!(ids[ids.len() - 1], "fig1-s4-u0_999");
    }

    #[test]
    fn table_renders_one_panel_from_synthetic_results() {
        let cell = Json::obj(vec![
            ("id", Json::Str("fig1-s2-u0_7".into())),
            ("group", Json::Str("fig1".into())),
            (
                "params",
                Json::obj(vec![
                    ("group", Json::Str("fig1".into())),
                    ("sdp_ratio", Json::Int(2)),
                    ("utilization", Json::Float(0.7)),
                ]),
            ),
            (
                "result",
                Json::obj(vec![
                    ("utilization", Json::Float(0.7)),
                    ("wtp", Json::nums(&[1.49, 1.43, 1.27])),
                    ("bpr", Json::nums(&[1.33, 1.26, 1.12])),
                ]),
            ),
        ]);
        let merged = Json::obj(vec![("cells", Json::Arr(vec![cell]))]);
        let table = table(&merged, 2.0).expect("renders");
        assert!(table.contains("| 70.0% | 1.49 | 1.43 | 1.27 | 1.33 | 1.26 | 1.12 |"));
        assert!(super::table(&merged, 4.0).is_none(), "no panel-b cells");
    }
}
