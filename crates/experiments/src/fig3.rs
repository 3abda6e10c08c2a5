//! Figure 3: five percentiles of the R_D measure for four monitoring
//! timescales τ ∈ {10, 100, 1000, 10000} p-units (ρ = 0.95, SDPs 1,2,4,8).
//!
//! Paper reference points: at τ = 10000 p-units both schedulers satisfy the
//! short-timescale proportional model in almost every interval; in the
//! 25–75 % band WTP approximates the target even at tens of p-units, while
//! BPR stays "spread" below hundreds of p-units.

use pdd::qsim::ShortTimescale;
use pdd::sched::SchedulerKind;
use pdd::telemetry::json::Json;
use pdd::telemetry::MetricsRegistry;

use crate::cell::{self, Cell, Seed, SeedCell};
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

impl SeedCell for Fig3Cell {
    fn id(&self) -> String {
        format!("fig3-{}", cell::kind_slug(self.kind))
    }

    fn params(&self) -> Json {
        cell::params(
            "fig3",
            vec![("scheduler", Json::Str(self.kind.name().into()))],
        )
    }

    /// The seed's defined R_D values per τ ([`taus`] order, intervals in
    /// time order).
    fn measure(&self, scale: Scale, seed: u64) -> (Json, Option<MetricsRegistry>) {
        let mut st = ShortTimescale::paper(scale.punits(), vec![seed]);
        st.taus_punits = taus(scale);
        let rows = st.run_seed(self.kind, seed);
        (Json::obj(vec![("rows", cell::rows_json(&rows))]), None)
    }

    /// Each τ's R_D values pooled over the seeds in seed order, then
    /// reduced to the five percentiles.
    fn fold(&self, scale: Scale, seeds: &[Seed]) -> Result<Json, String> {
        let mut st = ShortTimescale::paper(scale.punits(), scale.seeds());
        st.taus_punits = taus(scale);
        let per_seed = seeds
            .iter()
            .map(|seed| seed.rows(st.taus_punits.len(), None))
            .collect::<Result<Vec<_>, String>>()?;
        let taus = st
            .finalize(self.kind, &per_seed)
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("tau_punits", Json::Int(r.tau_punits as i64)),
                    ("five_number", Json::nums(&r.five_number)),
                    ("intervals", Json::Int(r.intervals as i64)),
                ])
            })
            .collect();
        Ok(Json::obj(vec![
            ("scheduler", Json::Str(self.kind.name().into())),
            ("taus", Json::Arr(taus)),
        ]))
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

    /// The `[p5, p25, median, p75, p95]` boxes of one scheduler's cell.
    fn boxes(kind: SchedulerKind, scale: Scale) -> Vec<Vec<f64>> {
        let (result, _) = (&Fig3Cell { kind } as &dyn Cell).execute(scale);
        let taus = result.get("taus").and_then(Json::as_arr).expect("taus");
        taus.iter()
            .map(|tau| {
                let five = tau.get("five_number").and_then(Json::as_arr).expect("box");
                five.iter().map(|v| v.as_f64().expect("finite")).collect()
            })
            .collect()
    }

    #[test]
    fn boxes_tighten_with_tau_and_wtp_beats_bpr() {
        let [wtp, bpr] = SCHEDULERS.map(|kind| boxes(kind, Scale::Bench));
        let iqr = |b: &Vec<f64>| b[3] - b[1];
        // IQR shrinks from the shortest to the longest measured τ for WTP.
        let first = wtp.first().expect("has taus");
        let last = wtp.last().expect("has taus");
        assert!(iqr(last) <= iqr(first) + 1e-9);
        // Medians near the target at the longest τ.
        assert!((last[2] - 2.0).abs() < 0.7, "median {}", last[2]);
        // WTP tighter than BPR at the shortest τ (paper's headline claim).
        let bpr_first = bpr.first().expect("has taus");
        assert!(iqr(first) < iqr(bpr_first) * 1.25);
    }

    /// A shard with fewer τ rows than the ladder — a partial of another
    /// scale — is a merge error (a cache miss), not an out-of-bounds
    /// panic in the percentile fold.
    #[test]
    fn a_short_tau_ladder_is_a_merge_error_not_a_panic() {
        let scale = Scale::Custom {
            punits: 400,
            nseeds: 2,
        };
        let cell = &cells()[0];
        let good = cell.execute_shard(scale, 0);
        let short = (
            Json::obj(vec![("rows", cell::rows_json(&[vec![2.0], vec![2.0]]))]),
            None,
        );
        let err = cell.merge_shards(scale, &[good, short]).unwrap_err();
        assert!(err.contains("shard 1 does not hold 3 rows"), "{err}");
    }
}
