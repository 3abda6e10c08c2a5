//! The Study-A ratio cell: one SDP spacing × one load point, two
//! schedulers replaying the same per-seed trace, each scheduler's
//! successive-class delay ratios d̄1/d̄2, d̄2/d̄3, d̄3/d̄4 averaged over the
//! seeds. Figure 1, Figure 2 and the rank probe are grids of it: each of
//! those suites declares a [`Study`] and its load points, and renders its
//! own tables.
//!
//! A ratio cell is a [`SeedCell`]: each seed replays one trace through both
//! schedulers into a fresh registry, and the rows fold with
//! `qsim::average_rows` in seed order — the fold `Experiment::run_many`
//! applies.

use pdd::qsim::{Experiment, SeedResult};
use pdd::sched::{SchedulerKind, Sdp};
use pdd::telemetry::json::Json;
use pdd::telemetry::MetricsRegistry;

use crate::cell::{self, Cell, Seed, SeedCell};
use crate::{fig1, fig2, Scale};

/// Classes per cell (the paper's four): three successive ratios a row.
const CLASSES: usize = 4;

/// What one ratio suite measures and how its results read.
pub struct Study {
    /// The suite slug: the cells' `group` and id prefix.
    pub group: &'static str,
    /// The two schedulers, each under the result key of its ratio row.
    pub schedulers: [(&'static str, SchedulerKind); 2],
    /// The parameters a merged result repeats ahead of the ratio rows.
    pub echo: &'static [&'static str],
}

/// The load point a ratio cell measures at, besides its spacing.
#[derive(Debug, Clone, Copy)]
pub enum Axis {
    /// Link utilization ρ at the paper's 40/30/20/10 % load split.
    Utilization(f64),
    /// The load split [`fig2::DISTRIBUTIONS`]`[i]` at ρ = 0.95.
    Split(usize),
}

/// One (spacing, load point) cell of a [`Study`].
pub struct RatioCell {
    /// The suite the cell belongs to.
    pub study: &'static Study,
    /// Successive-class spacing ratio (the target ratio).
    pub sdp_ratio: f64,
    /// The load point.
    pub axis: Axis,
}

/// A study's grid: [`fig1::SDP_RATIOS`] × `axes`, spacing-major.
pub fn grid(study: &'static Study, axes: &[Axis]) -> Vec<Box<dyn Cell>> {
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    for sdp_ratio in fig1::SDP_RATIOS {
        for &axis in axes {
            cells.push(Box::new(RatioCell {
                study,
                sdp_ratio,
                axis,
            }));
        }
    }
    cells
}

impl RatioCell {
    /// The cell's two ratio rows, in [`Study::schedulers`] order: every
    /// seed measured without a probe and folded as the merge folds
    /// ([`Experiment::run_many`]).
    pub fn rows(&self, scale: Scale) -> [Vec<f64>; 2] {
        let kinds = self.study.schedulers.map(|(_, kind)| kind);
        let [a, b]: [_; 2] = (self.experiment(scale, scale.seeds()).run_many(&kinds))
            .try_into()
            .expect("one result per scheduler");
        [a.ratios, b.ratios]
    }

    /// The Study-A experiment at the cell's spacing and load point.
    fn experiment(&self, scale: Scale, seeds: Vec<u64>) -> Experiment {
        let sdp = Sdp::geometric(CLASSES, self.sdp_ratio).expect("static");
        let mut e = Experiment::paper(0.95, sdp, scale.punits(), seeds);
        match self.axis {
            Axis::Utilization(utilization) => e.utilization = utilization,
            Axis::Split(dist) => e.class_fractions = fig2::DISTRIBUTIONS[dist].to_vec(),
        }
        e
    }

    /// The parameters after `group`: the spacing, then the load point.
    fn param_pairs(&self) -> Vec<(&'static str, Json)> {
        let mut pairs = vec![("sdp_ratio", Json::num(self.sdp_ratio))];
        match self.axis {
            Axis::Utilization(utilization) => pairs.push(("utilization", Json::num(utilization))),
            Axis::Split(dist) => pairs.extend([
                ("dist", Json::Int(dist as i64)),
                ("fractions", Json::nums(&fig2::DISTRIBUTIONS[dist])),
            ]),
        }
        pairs
    }
}

impl SeedCell for RatioCell {
    const METERED: bool = true;

    fn id(&self) -> String {
        let axis = match self.axis {
            Axis::Utilization(utilization) => format!("u{utilization}"),
            Axis::Split(dist) => format!("d{dist}"),
        };
        cell::sanitize(format!("{}-s{}-{axis}", self.study.group, self.sdp_ratio))
    }

    fn params(&self) -> Json {
        cell::params(self.study.group, self.param_pairs())
    }

    /// Each scheduler's successive-class ratios, measured into a fresh
    /// four-class registry.
    fn measure(&self, scale: Scale, seed: u64) -> (Json, Option<MetricsRegistry>) {
        let mut registry = MetricsRegistry::with_shape(1, CLASSES);
        let kinds = self.study.schedulers.map(|(_, kind)| kind);
        let e = self.experiment(scale, vec![seed]);
        let rows = cell::seed_rows(
            &e,
            &kinds,
            seed,
            &mut registry,
            SeedResult::successive_ratios,
        );
        (rows, Some(registry))
    }

    /// The rows averaged per scheduler, after the echoed parameters.
    fn fold(&self, _scale: Scale, seeds: &[Seed]) -> Result<Json, String> {
        let ratios = cell::average_seed_rows(seeds, self.study.schedulers.len(), CLASSES - 1)?;
        let mut result: Vec<(&str, Json)> = (self.param_pairs().into_iter())
            .filter(|(key, _)| self.study.echo.contains(key))
            .collect();
        for ((key, _), row) in self.study.schedulers.iter().zip(&ratios) {
            result.push((key, Json::nums(row)));
        }
        Ok(Json::obj(result))
    }
}

/// One panel of a study's results (the cells at `sdp_ratio`) as a
/// markdown table: a label column, then each scheduler's three ratios.
pub fn panel(
    merged: &Json,
    study: &Study,
    sdp_ratio: f64,
    label_header: &str,
    label: impl Fn(&Json) -> String,
) -> Option<String> {
    let cells: Vec<_> = cell::group_cells(merged, study.group)
        .into_iter()
        .filter(|c| cell::param_f64(c, "sdp_ratio") == Some(sdp_ratio))
        .collect();
    if cells.is_empty() {
        return None;
    }
    let mut header = vec![label_header.to_string()];
    for (_, kind) in &study.schedulers {
        header.extend(["1/2", "2/3", "3/4"].map(|pair| format!("{} {pair}", kind.name())));
    }
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            let mut row = vec![label(r)];
            for (key, _) in &study.schedulers {
                row.extend(cell::ratio_cells(r, key));
            }
            row
        })
        .collect();
    Some(cell::markdown_table(
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank;

    const SCALE: Scale = Scale::Custom {
        punits: 400,
        nseeds: 2,
    };

    #[test]
    fn rows_are_the_merged_result() {
        for (study, axis) in [
            (&fig1::STUDY, Axis::Utilization(0.9)),
            (&fig2::STUDY, Axis::Split(3)),
            (&rank::STUDY, Axis::Utilization(0.7)),
        ] {
            let cell = RatioCell {
                study,
                sdp_ratio: 4.0,
                axis,
            };
            let (merged, _) = (&cell as &dyn Cell).execute(SCALE);
            let rows = cell.rows(SCALE);
            for ((key, _), row) in study.schedulers.iter().zip(&rows) {
                assert_eq!(
                    merged.get(key),
                    Some(&Json::nums(row)),
                    "{}",
                    SeedCell::id(&cell)
                );
            }
        }
    }

    /// A partial that decodes but holds the wrong rows — one scheduler's
    /// row, or rows of the wrong length — must fail the merge (a cache
    /// miss and a re-run), not panic the runner.
    #[test]
    fn foreign_rows_are_a_merge_error_not_a_panic() {
        let fig1 = &fig1::cells()[0];
        let (good, registry) = fig1.execute_shard(SCALE, 0);
        for rows in [
            vec![vec![2.0, 2.0, 2.0]],
            vec![vec![2.0, 2.0, 2.0], vec![2.0, 2.0]],
            vec![vec![2.0; 3], vec![2.0; 3], vec![2.0; 3]],
        ] {
            let bad = (
                Json::obj(vec![("rows", cell::rows_json(&rows))]),
                registry.clone(),
            );
            for shards in [
                [bad.clone(), (good.clone(), registry.clone())],
                [(good.clone(), registry.clone()), bad.clone()],
            ] {
                let err = fig1.merge_shards(SCALE, &shards).unwrap_err();
                assert!(err.contains("does not hold 2 rows of 3"), "{err}");
            }
        }
    }
}
