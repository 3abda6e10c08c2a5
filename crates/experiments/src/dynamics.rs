//! Dynamics study: how fast the proportional model *reconverges* after a
//! live perturbation.
//!
//! The paper evaluates stationary workloads; this study perturbs a running
//! Study-A link mid-flight through the [`Session`] scenario axis and
//! measures, with [`pdd::stats::reconvergence_times`], how long each
//! successive-class delay ratio d̄ᵢ/d̄ᵢ₊₁ takes to re-enter (and stay
//! inside) a tolerance band around its target:
//!
//! * **SDP step** — the operator doubles the spacing (2 → 4) while the
//!   queue is backlogged. WTP's recovery is a pure short-timescale
//!   effect: its priorities are a function of the *current* waiting
//!   times, so the new ratios emerge within a few busy periods. HPD adds
//!   a long-run-average (PAD) term whose pre-step history keeps steering
//!   the priorities until new departures dilute it.
//! * **Link flap** — the link holds (buffers, no service) for a short
//!   outage, then restores. Reconvergence is measured from the
//!   restoration: the accumulated backlog compresses the class delays
//!   together (one huge common wait), and the ratios return to target
//!   only as the backlog drains — a capacity-limited transient that is
//!   nearly scheduler-independent.

use pdd::qsim::Session;
use pdd::scenario::{DownPolicy, Scenario};
use pdd::sched::{SchedulerKind, Sdp};
use pdd::simcore::Time;
use pdd::stats::{reconvergence_times, ReconvergenceConfig};
use pdd::telemetry::json::Json;
use pdd::traffic::{LoadPlan, SizeDist, PAPER_MEAN_PACKET_BYTES};

use crate::cell::{self, Cell, Merged, Partial};
use crate::Scale;

/// Utilization for all dynamics cells — high enough that the schedulers
/// track their targets tightly once converged.
pub const UTILIZATION: f64 = 0.95;

/// The schedulers compared: memoryless WTP vs the history-keeping HPD.
pub const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Wtp, SchedulerKind::Hpd];

/// Window width for the reconvergence metric, in p-units (mean packet
/// transmission times). Wide enough that the 10 %-share class sees tens
/// of departures per window at ρ = 0.95.
pub const WINDOW_PUNITS: u64 = 250;

/// The perturbation a dynamics cell injects at mid-horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Live SDP swap: spacing 2 → spacing 4, same four classes.
    SdpStep,
    /// Link outage (hold policy) for ~1 % of the horizon, then restore.
    LinkFlap,
}

/// Both perturbations, in canonical order.
pub const PERTURBATIONS: [Perturbation; 2] = [Perturbation::SdpStep, Perturbation::LinkFlap];

impl Perturbation {
    /// Stable slug for ids, params, and tables.
    pub fn name(self) -> &'static str {
        match self {
            Perturbation::SdpStep => "sdp-step",
            Perturbation::LinkFlap => "link-flap",
        }
    }
}

/// One (scheduler, perturbation) cell's seed-aggregated reconvergence.
#[derive(Debug, Clone)]
pub struct DynamicsRow {
    /// The scheduler measured.
    pub scheduler: SchedulerKind,
    /// The perturbation injected.
    pub perturbation: Perturbation,
    /// Seeds measured.
    pub seeds: usize,
    /// Per successive class pair: how many seeds settled within the
    /// horizon.
    pub settled: Vec<usize>,
    /// Per successive class pair: mean settling time over the settled
    /// seeds, in p-units; `None` when no seed settled.
    pub mean_settle_punits: Vec<Option<f64>>,
}

impl DynamicsRow {
    /// Mean settling time across all pairs that settled in at least one
    /// seed — the scalar used to compare schedulers.
    pub fn headline_punits(&self) -> Option<f64> {
        let vals: Vec<f64> = self.mean_settle_punits.iter().flatten().copied().collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// The SDP every run starts under (the paper's default, spacing 2).
pub fn start_sdp() -> Sdp {
    Sdp::paper_default()
}

/// The SDP an [`Perturbation::SdpStep`] switches to (spacing 4).
pub fn stepped_sdp() -> Sdp {
    Sdp::geometric(start_sdp().num_classes(), 4.0).expect("static")
}

/// The scenario for one cell plus the instant reconvergence is measured
/// from (ticks) and the post-perturbation target ratios.
fn timeline(perturbation: Perturbation, scale: Scale) -> (Scenario, u64, Vec<f64>) {
    let p = PAPER_MEAN_PACKET_BYTES as u64;
    let mid = (scale.punits() / 2) * p;
    let targets = |sdp: &Sdp| -> Vec<f64> {
        (0..sdp.num_classes() - 1)
            .map(|i| sdp.target_ratio(i))
            .collect()
    };
    match perturbation {
        Perturbation::SdpStep => {
            let sdp = stepped_sdp();
            let targets = targets(&sdp);
            let sc = Scenario::builder()
                .set_sdp(Time::from_ticks(mid), sdp)
                .build()
                .expect("static timeline");
            (sc, mid, targets)
        }
        Perturbation::LinkFlap => {
            // ~1 % of the horizon down; at ρ = 0.95 the backlog drains in
            // ~19× the outage, well inside the remaining half-horizon.
            let outage = (scale.punits() / 100).max(20) * p;
            let sc = Scenario::builder()
                .link_down(Time::from_ticks(mid), 0, DownPolicy::Hold)
                .link_up(Time::from_ticks(mid + outage), 0)
                .build()
                .expect("static timeline");
            (sc, mid + outage, targets(&start_sdp()))
        }
    }
}

/// Measures one (scheduler, perturbation) cell at `scale`: one perturbed
/// Study-A run per seed, reduced to per-pair reconvergence times.
///
/// Implemented as the canonical shard pipeline ([`cell_seed`] per seed,
/// folded by [`merge_seeds`] in seed order), so multi-process runs
/// reproduce it bit-for-bit.
pub fn cell(scheduler: SchedulerKind, perturbation: Perturbation, scale: Scale) -> DynamicsRow {
    let per_seed: Vec<Vec<Option<u64>>> = scale
        .seeds()
        .iter()
        .map(|&seed| cell_seed(scheduler, perturbation, scale, seed))
        .collect();
    merge_seeds(scheduler, perturbation, &per_seed)
}

/// Measures **one seed** of a dynamics cell — the farm's shard unit.
/// Returns per successive class pair the settling time in ticks since the
/// perturbation, or `None` if that pair never settled in this seed.
pub fn cell_seed(
    scheduler: SchedulerKind,
    perturbation: Perturbation,
    scale: Scale,
    seed: u64,
) -> Vec<Option<u64>> {
    let p = PAPER_MEAN_PACKET_BYTES as u64;
    let horizon = scale.horizon();
    let (sc, perturb_at, targets) = timeline(perturbation, scale);
    let sdp = start_sdp();
    let n = sdp.num_classes();
    let cfg = ReconvergenceConfig {
        window_ticks: WINDOW_PUNITS * p,
        epsilon: 0.25,
        settle_windows: 3,
    };
    let plan = LoadPlan::new(1.0, UTILIZATION, &[0.4, 0.3, 0.2, 0.1], SizeDist::paper())
        .expect("validated parameters");
    let sources = plan.pareto_sources().expect("valid plan");
    let mut samples: Vec<(u64, usize, f64)> = Vec::new();
    let mut s = scheduler.build(&sdp, 1.0);
    Session::sources(&sources, horizon, seed, 1.0)
        .scenario(sc)
        .run(s.as_mut(), |d| {
            samples.push((d.finish.ticks(), d.packet.class as usize, d.wait().as_f64()));
        });
    reconvergence_times(&samples, n, perturb_at, &targets, &cfg)
}

/// Folds per-seed partials (one [`cell_seed`] output per seed, **in seed
/// order**) into the cell row with the single-process aggregation's exact
/// arithmetic.
pub fn merge_seeds(
    scheduler: SchedulerKind,
    perturbation: Perturbation,
    per_seed: &[Vec<Option<u64>>],
) -> DynamicsRow {
    let n = start_sdp().num_classes();
    let mut settled = vec![0usize; n - 1];
    let mut sums = vec![0.0f64; n - 1];
    for times in per_seed {
        for (i, t) in times.iter().enumerate() {
            if let Some(t) = t {
                settled[i] += 1;
                sums[i] += *t as f64 / PAPER_MEAN_PACKET_BYTES;
            }
        }
    }
    let mean_settle_punits = sums
        .iter()
        .zip(&settled)
        .map(|(&sum, &k)| (k > 0).then(|| sum / k as f64))
        .collect();
    DynamicsRow {
        scheduler,
        perturbation,
        seeds: per_seed.len(),
        settled,
        mean_settle_punits,
    }
}

/// One (scheduler, perturbation) reconvergence cell.
struct DynamicsCell {
    kind: SchedulerKind,
    perturbation: Perturbation,
}

/// The study's grid: both schedulers × both perturbations,
/// scheduler-major.
pub fn cells() -> Vec<Box<dyn Cell>> {
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    for kind in SCHEDULERS {
        for perturbation in PERTURBATIONS {
            cells.push(Box::new(DynamicsCell { kind, perturbation }));
        }
    }
    cells
}

impl Cell for DynamicsCell {
    fn id(&self) -> String {
        format!(
            "dynamics-{}-{}",
            cell::kind_slug(self.kind),
            self.perturbation.name()
        )
    }

    fn params(&self) -> Json {
        cell::params(
            "dynamics",
            vec![
                ("scheduler", Json::Str(self.kind.name().into())),
                ("perturbation", Json::Str(self.perturbation.name().into())),
            ],
        )
    }

    fn shard_count(&self, scale: Scale) -> usize {
        scale.seeds().len()
    }

    fn execute_shard(&self, scale: Scale, shard: usize) -> Partial {
        let times = cell_seed(self.kind, self.perturbation, scale, scale.seeds()[shard])
            .iter()
            .map(|t| t.map(Json::uint).unwrap_or(Json::Null))
            .collect();
        (Json::obj(vec![("times", Json::Arr(times))]), None)
    }

    fn merge(&self, _scale: Scale, shards: &[Partial]) -> Result<Merged, String> {
        let id = self.id();
        let per_seed: Vec<Vec<Option<u64>>> = shards
            .iter()
            .map(|(p, _)| {
                let arr = p
                    .get("times")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("{id}: shard lacks `times`"))?;
                arr.iter()
                    .map(|t| match t {
                        Json::Null => Ok(None),
                        other => other
                            .as_u64()
                            .map(Some)
                            .ok_or_else(|| format!("{id}: bad settle time")),
                    })
                    .collect()
            })
            .collect::<Result<_, String>>()?;
        let row = merge_seeds(self.kind, self.perturbation, &per_seed);
        let pairs = row
            .mean_settle_punits
            .iter()
            .zip(&row.settled)
            .map(|(mean, &settled)| {
                Json::obj(vec![
                    (
                        "mean_settle_punits",
                        mean.map(Json::num).unwrap_or(Json::Null),
                    ),
                    ("settled", Json::Int(settled as i64)),
                ])
            })
            .collect();
        let result = Json::obj(vec![
            ("scheduler", Json::Str(row.scheduler.name().into())),
            ("perturbation", Json::Str(row.perturbation.name().into())),
            ("seeds", Json::Int(row.seeds as i64)),
            ("pairs", Json::Arr(pairs)),
            (
                "headline_punits",
                row.headline_punits().map(Json::num).unwrap_or(Json::Null),
            ),
        ]);
        Ok((result, None))
    }
}

/// The `dynamics` block: per-pair settling times per cell.
pub fn table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "dynamics");
    if cells.is_empty() {
        return None;
    }
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            let seeds = r.get("seeds").and_then(Json::as_i64).unwrap_or(0);
            let mut row = vec![
                cell::scheduler_name(r),
                r.get("perturbation")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
            ];
            for pair in r.get("pairs").and_then(Json::as_arr).unwrap_or_default() {
                let settled = pair.get("settled").and_then(Json::as_i64).unwrap_or(0);
                row.push(
                    match pair.get("mean_settle_punits").and_then(Json::as_f64) {
                        Some(m) => format!("{m:.0} ({settled}/{seeds})"),
                        None => "not settled".into(),
                    },
                );
            }
            row.push(match r.get("headline_punits").and_then(Json::as_f64) {
                Some(m) => format!("**{m:.0}**"),
                None => "—".into(),
            });
            row
        })
        .collect();
    Some(cell::markdown_table(
        &[
            "scheduler",
            "perturbation",
            "1/2 (p-units)",
            "2/3 (p-units)",
            "3/4 (p-units)",
            "mean",
        ],
        rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SCALE: Scale = Scale::Custom {
        punits: 20_000,
        nseeds: 2,
    };

    #[test]
    fn wtp_settles_after_an_sdp_step() {
        let row = cell(SchedulerKind::Wtp, Perturbation::SdpStep, TEST_SCALE);
        assert_eq!(row.seeds, 2);
        assert!(
            row.settled.iter().any(|&k| k > 0),
            "no pair settled: {row:?}"
        );
        assert!(row.headline_punits().is_some());
    }

    #[test]
    fn link_flap_recovers_to_the_unchanged_targets() {
        let row = cell(SchedulerKind::Wtp, Perturbation::LinkFlap, TEST_SCALE);
        assert!(
            row.settled.iter().any(|&k| k > 0),
            "no pair settled after the flap: {row:?}"
        );
    }

    #[test]
    fn a_negative_settle_time_is_a_cache_miss() {
        let shard = |first: i64| {
            let times = vec![Json::Int(first), Json::Null, Json::Int(7)];
            (Json::obj(vec![("times", Json::Arr(times))]), None)
        };
        let cell = DynamicsCell {
            kind: SchedulerKind::Wtp,
            perturbation: Perturbation::SdpStep,
        };
        assert!(cell.merge(TEST_SCALE, &[shard(3), shard(5)]).is_ok());
        let err = cell.merge(TEST_SCALE, &[shard(3), shard(-1)]).unwrap_err();
        assert!(err.contains("bad settle time"), "{err}");
    }

    #[test]
    fn table_marks_settled_and_unsettled_pairs() {
        let cell = |sched: &str, pairs: Vec<(Option<f64>, i64)>, headline: Option<f64>| {
            let pairs = pairs
                .into_iter()
                .map(|(mean, settled)| {
                    Json::obj(vec![
                        (
                            "mean_settle_punits",
                            mean.map(Json::num).unwrap_or(Json::Null),
                        ),
                        ("settled", Json::Int(settled)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("group", Json::Str("dynamics".into())),
                (
                    "result",
                    Json::obj(vec![
                        ("scheduler", Json::Str(sched.into())),
                        ("perturbation", Json::Str("sdp-step".into())),
                        ("seeds", Json::Int(2)),
                        ("pairs", Json::Arr(pairs)),
                        (
                            "headline_punits",
                            headline.map(Json::num).unwrap_or(Json::Null),
                        ),
                    ]),
                ),
            ])
        };
        let merged = Json::obj(vec![(
            "cells",
            Json::Arr(vec![
                cell(
                    "WTP",
                    vec![(Some(500.0), 2), (Some(1000.0), 1), (None, 0)],
                    Some(750.0),
                ),
                cell("HPD", vec![(None, 0); 3], None),
            ]),
        )]);
        let s = table(&merged).expect("renders");
        assert!(s.contains("WTP") && s.contains("HPD"));
        assert!(s.contains("500 (2/2)") && s.contains("not settled"));
    }
}
