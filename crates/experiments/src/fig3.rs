//! Figure 3: five percentiles of the R_D measure for four monitoring
//! timescales τ ∈ {10, 100, 1000, 10000} p-units (ρ = 0.95, SDPs 1,2,4,8).
//!
//! Paper reference points: at τ = 10000 p-units both schedulers satisfy the
//! short-timescale proportional model in almost every interval; in the
//! 25–75 % band WTP approximates the target even at tens of p-units, while
//! BPR stays "spread" below hundreds of p-units.

use pdd::qsim::{ShortTimescale, TimescaleResult};
use pdd::sched::SchedulerKind;
use pdd::telemetry::json::Json;

use crate::cell::{self, Cell, Merged, Partial};
use crate::Scale;

/// The schedulers compared, in the figure's order.
pub const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Wtp, SchedulerKind::Bpr];

/// The τ ladder measured at `scale`: the τ = 10000 column needs enough
/// horizon to produce intervals, so small scales drop it rather than
/// report a single-interval percentile.
pub fn taus(scale: Scale) -> Vec<u64> {
    if scale.punits() >= 20_000 {
        vec![10, 100, 1000, 10_000]
    } else {
        vec![10, 100, 1000]
    }
}

/// Measures one Figure-3 cell: the full τ ladder for one scheduler.
///
/// Implemented as the canonical shard pipeline ([`cell_seed`] per seed,
/// folded by [`merge_seeds`] in seed order), so multi-process runs
/// reproduce it bit-for-bit.
pub fn cell(kind: SchedulerKind, scale: Scale) -> Vec<TimescaleResult> {
    let per_seed: Vec<Vec<Vec<f64>>> = scale
        .seeds()
        .iter()
        .map(|&seed| cell_seed(kind, scale, seed))
        .collect();
    merge_seeds(kind, scale, &per_seed)
}

/// Measures **one seed** of a Figure-3 cell — the farm's shard unit.
/// Returns the defined R_D values per τ (outer index = [`taus`] order,
/// inner = interval order).
pub fn cell_seed(kind: SchedulerKind, scale: Scale, seed: u64) -> Vec<Vec<f64>> {
    let mut st = ShortTimescale::paper(scale.punits(), vec![seed]);
    st.taus_punits = taus(scale);
    st.run_seed(kind, seed)
}

/// Folds per-seed partials (**seed order**) into the per-τ percentile
/// results, exactly as the single-process run does.
pub fn merge_seeds(
    kind: SchedulerKind,
    scale: Scale,
    per_seed: &[Vec<Vec<f64>>],
) -> Vec<TimescaleResult> {
    let mut st = ShortTimescale::paper(scale.punits(), scale.seeds());
    st.taus_punits = taus(scale);
    st.finalize(kind, per_seed)
}

/// One scheduler's full τ ladder of Figure 3.
struct Fig3Cell {
    kind: SchedulerKind,
}

/// The Figure-3 grid: one cell per scheduler.
pub fn cells() -> Vec<Box<dyn Cell>> {
    SCHEDULERS
        .iter()
        .map(|&kind| Box::new(Fig3Cell { kind }) as Box<dyn Cell>)
        .collect()
}

impl Cell for Fig3Cell {
    fn id(&self) -> String {
        format!("fig3-{}", cell::kind_slug(self.kind))
    }

    fn params(&self) -> Json {
        cell::params(
            "fig3",
            vec![("scheduler", Json::Str(self.kind.name().into()))],
        )
    }

    fn shard_count(&self, scale: Scale) -> usize {
        scale.seeds().len()
    }

    fn execute_shard(&self, scale: Scale, shard: usize) -> Partial {
        let rows = cell_seed(self.kind, scale, scale.seeds()[shard]);
        (Json::obj(vec![("rows", cell::rows_json(&rows))]), None)
    }

    fn merge(&self, scale: Scale, shards: &[Partial]) -> Result<Merged, String> {
        let per_seed = cell::decode_shard_rows(shards)?;
        let taus = merge_seeds(self.kind, scale, &per_seed)
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("tau_punits", Json::Int(r.tau_punits as i64)),
                    ("five_number", Json::nums(&r.five_number)),
                    ("intervals", Json::Int(r.intervals as i64)),
                ])
            })
            .collect();
        let result = Json::obj(vec![
            ("scheduler", Json::Str(self.kind.name().into())),
            ("taus", Json::Arr(taus)),
        ]);
        Ok((result, None))
    }
}

/// The `fig3` block: R_D percentiles per scheduler and τ.
pub fn table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "fig3");
    if cells.is_empty() {
        return None;
    }
    let mut rows = Vec::new();
    for c in cells {
        let r = cell::result(c);
        let sched = r.get("scheduler").and_then(Json::as_str).unwrap_or("?");
        for tau in r.get("taus").and_then(Json::as_arr).unwrap_or_default() {
            let mut row = vec![
                sched.to_string(),
                format!(
                    "{}",
                    tau.get("tau_punits").and_then(Json::as_i64).unwrap_or(0)
                ),
            ];
            row.extend(cell::ratio_cells(tau, "five_number"));
            rows.push(row);
        }
    }
    Some(cell::markdown_table(
        &["sched", "τ (p-units)", "p5", "p25", "median", "p75", "p95"],
        rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxes_tighten_with_tau_and_wtp_beats_bpr() {
        let [wtp, bpr] = SCHEDULERS.map(|kind| cell(kind, Scale::Bench));
        // IQR shrinks from the shortest to the longest measured τ for WTP.
        let first = wtp.first().expect("has taus");
        let last = wtp.last().expect("has taus");
        assert!(last.iqr() <= first.iqr() + 1e-9);
        // Medians near the target at the longest τ.
        assert!(
            (last.median() - 2.0).abs() < 0.7,
            "median {}",
            last.median()
        );
        // WTP tighter than BPR at the shortest τ (paper's headline claim).
        let bpr_first = bpr.first().expect("has taus");
        assert!(first.iqr() < bpr_first.iqr() * 1.25);
    }
}
