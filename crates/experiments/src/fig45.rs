//! Figures 4 and 5: microscopic views of per-class queueing delays with
//! BPR (Fig. 4) and WTP (Fig. 5); 3 classes, SDPs 1, 2, 4, ρ = 0.95.
//!
//! View I plots per-class average delays over consecutive 30-p-unit
//! intervals; view II plots each packet's delay at its departure time over
//! a ~1000-p-unit overloaded window. The paper's observation: BPR shows
//! sawtooth variations (its backlog-proportional rates starve the last
//! packets of a draining queue) while WTP tracks the proportional spacing
//! smoothly. We quantify that with a per-class roughness metric.

use std::path::Path;

use pdd::qsim::{MicroViews, Microscope};
use pdd::sched::SchedulerKind;
use pdd::telemetry::json::Json;

use crate::cell::{self, Cell, Partial};
use crate::Scale;

/// The schedulers viewed: BPR is Figure 4, WTP Figure 5.
pub const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Bpr, SchedulerKind::Wtp];

/// Measures one Figures-4/5 cell: the microscopic views of one scheduler
/// (BPR for Fig. 4, WTP for Fig. 5) on the shared packet stream.
pub fn cell(kind: SchedulerKind, scale: Scale) -> MicroViews {
    Microscope::paper(scale.punits(), 7).run(kind)
}

/// One scheduler's microscopic views (Figure 4 for BPR, 5 for WTP).
struct Fig45Cell {
    kind: SchedulerKind,
}

/// The Figures-4/5 grid: one cell per scheduler, on the same arriving
/// packet stream, as in the paper.
pub fn cells() -> Vec<Box<dyn Cell>> {
    SCHEDULERS
        .iter()
        .map(|&kind| Box::new(Fig45Cell { kind }) as Box<dyn Cell>)
        .collect()
}

impl Cell for Fig45Cell {
    fn id(&self) -> String {
        format!("fig45-{}", cell::kind_slug(self.kind))
    }

    fn params(&self) -> Json {
        cell::params(
            "fig45",
            vec![("scheduler", Json::Str(self.kind.name().into()))],
        )
    }

    fn execute_shard(&self, scale: Scale, _shard: usize) -> Partial {
        let v = cell(self.kind, scale);
        let view1 = v
            .view1
            .iter()
            .map(|(start, avgs)| {
                Json::Arr(vec![
                    Json::Int(*start as i64),
                    Json::Arr(
                        avgs.iter()
                            .map(|a| a.map(Json::num).unwrap_or(Json::Null))
                            .collect(),
                    ),
                ])
            })
            .collect();
        let view2 = v
            .view2
            .iter()
            .map(|&(t, c, d)| {
                Json::Arr(vec![Json::Int(t as i64), Json::Int(c as i64), Json::num(d)])
            })
            .collect();
        let result = Json::obj(vec![
            ("scheduler", Json::Str(v.kind.name().into())),
            ("roughness", Json::nums(&v.roughness)),
            ("mean_roughness", Json::num(v.mean_roughness())),
            ("view1", Json::Arr(view1)),
            ("view2", Json::Arr(view2)),
        ]);
        (result, None)
    }
}

/// The `fig45` block: per-class roughness per scheduler.
pub fn table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "fig45");
    if cells.is_empty() {
        return None;
    }
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            let mut row = vec![cell::scheduler_name(r)];
            for v in r
                .get("roughness")
                .and_then(Json::as_arr)
                .unwrap_or_default()
            {
                row.push(format!("{:.3}", v.as_f64().unwrap_or(f64::NAN)));
            }
            row.push(format!(
                "**{:.3}**",
                r.get("mean_roughness")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            ));
            row
        })
        .collect();
    Some(cell::markdown_table(
        &["scheduler", "class 1", "class 2", "class 3", "mean"],
        rows,
    ))
}

/// Writes the Figures-4/5 view CSVs (`fig4_view1.csv` … `fig5_view2.csv`)
/// under `dir` from a merged results document. No-op for a document
/// without fig45 cells.
pub fn write_fig45_csvs(merged: &Json, dir: &Path) -> std::io::Result<()> {
    for c in cell::group_cells(merged, "fig45") {
        let r = cell::result(c);
        let fig = match r.get("scheduler").and_then(Json::as_str) {
            Some("BPR") => "fig4",
            Some("WTP") => "fig5",
            _ => continue,
        };
        let rows = |view: &str| {
            let rows = r.get(view).and_then(Json::as_arr).unwrap_or_default();
            rows.iter().map(|row| row.as_arr().unwrap_or_default())
        };
        std::fs::create_dir_all(dir)?;
        let mut v1 = String::from("interval_start_ticks,class1,class2,class3\n");
        for row in rows("view1") {
            let start = row.first().and_then(Json::as_i64).unwrap_or(0);
            let avgs: Vec<String> = (row.get(1).and_then(Json::as_arr).unwrap_or_default())
                .iter()
                .map(|a| a.as_f64().map(|d| format!("{d:.1}")).unwrap_or_default())
                .collect();
            v1.push_str(&format!("{start},{}\n", avgs.join(",")));
        }
        std::fs::write(dir.join(format!("{fig}_view1.csv")), v1)?;
        let mut v2 = String::from("departure_ticks,class,delay_ticks\n");
        for row in rows("view2") {
            let t = row.first().and_then(Json::as_i64).unwrap_or(0);
            let c = row.get(1).and_then(Json::as_i64).unwrap_or(0);
            let d = row.get(2).and_then(Json::as_f64).unwrap_or(0.0);
            v2.push_str(&format!("{t},{},{d:.1}\n", c + 1));
        }
        std::fs::write(dir.join(format!("{fig}_view2.csv")), v2)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bpr_sawtooth_exceeds_wtp_smoothness() {
        let [bpr, wtp] = SCHEDULERS.map(|kind| cell(kind, Scale::Bench));
        assert!(
            bpr.mean_roughness() > wtp.mean_roughness(),
            "BPR {} vs WTP {}",
            bpr.mean_roughness(),
            wtp.mean_roughness()
        );
        assert!(!bpr.view1.is_empty() && !bpr.view2.is_empty());
    }
}
