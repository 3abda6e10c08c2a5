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

use pdd::qsim::{Session, Sources};
use pdd::scenario::{DownPolicy, Scenario};
use pdd::sched::{Scheduler, SchedulerKind, Sdp};
use pdd::simcore::Time;
use pdd::stats::{reconvergence_times, ReconvergenceConfig};
use pdd::telemetry::json::Json;
use pdd::telemetry::MetricsRegistry;
use pdd::traffic::{LoadPlan, SizeDist, PAPER_MEAN_PACKET_BYTES};

use crate::cell::{self, Cell, Seed, SeedCell};
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
    match perturbation {
        Perturbation::SdpStep => {
            let sdp = stepped_sdp();
            let targets = sdp.target_ratios();
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
            (sc, mid + outage, start_sdp().target_ratios())
        }
    }
}

/// Runs one seed of the perturbed Study-A link this study and the monitor
/// study measure: ρ = [`UTILIZATION`] at the paper's 40/30/20/10 % split,
/// Pareto sources, `scheduler` built under [`start_sdp`], `timeline`
/// injected — `run` drives the session.
pub(crate) fn perturbed_run<R>(
    scheduler: SchedulerKind,
    timeline: Scenario,
    scale: Scale,
    seed: u64,
    run: impl FnOnce(Session<Sources<'_>>, &mut dyn Scheduler) -> R,
) -> R {
    let plan = LoadPlan::new(1.0, UTILIZATION, &[0.4, 0.3, 0.2, 0.1], SizeDist::paper())
        .expect("validated parameters");
    let sources = plan.pareto_sources().expect("valid plan");
    let mut s = scheduler.build(&start_sdp(), 1.0);
    let session = Session::sources(&sources, scale.horizon(), seed, 1.0).scenario(timeline);
    run(session, s.as_mut())
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

impl SeedCell for DynamicsCell {
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

    /// One perturbed run: per successive class pair, the settling time in
    /// ticks since the perturbation, `null` if the pair never settled.
    fn measure(&self, scale: Scale, seed: u64) -> (Json, Option<MetricsRegistry>) {
        let (sc, perturb_at, targets) = timeline(self.perturbation, scale);
        let cfg = ReconvergenceConfig {
            window_ticks: WINDOW_PUNITS * PAPER_MEAN_PACKET_BYTES as u64,
            epsilon: 0.25,
            settle_windows: 3,
        };
        let mut samples: Vec<(u64, usize, f64)> = Vec::new();
        perturbed_run(self.kind, sc, scale, seed, |session, s| {
            session.run(s, |d| {
                samples.push((d.finish.ticks(), d.packet.class as usize, d.wait().as_f64()));
            })
        });
        let n = start_sdp().num_classes();
        let times = reconvergence_times(&samples, n, perturb_at, &targets, &cfg)
            .iter()
            .map(|t| t.map(Json::uint).unwrap_or(Json::Null))
            .collect();
        (Json::obj(vec![("times", Json::Arr(times))]), None)
    }

    /// Per pair: how many seeds settled, and their mean settling time in
    /// p-units (`sum / k` over the settled seeds); the headline is the
    /// mean over the pairs that settled anywhere.
    fn fold(&self, _scale: Scale, seeds: &[Seed]) -> Result<Json, String> {
        let pairs = start_sdp().num_classes() - 1;
        let mut settled = vec![0usize; pairs];
        let mut sums = vec![0.0f64; pairs];
        for seed in seeds {
            for (i, t) in seed.counts("times", pairs)?.into_iter().enumerate() {
                if let Some(t) = t {
                    settled[i] += 1;
                    sums[i] += t as f64 / PAPER_MEAN_PACKET_BYTES;
                }
            }
        }
        let means: Vec<Option<f64>> = sums
            .iter()
            .zip(&settled)
            .map(|(&sum, &k)| (k > 0).then(|| sum / k as f64))
            .collect();
        let settled_means: Vec<f64> = means.iter().flatten().copied().collect();
        let headline = (!settled_means.is_empty())
            .then(|| settled_means.iter().sum::<f64>() / settled_means.len() as f64);
        let pairs = means
            .iter()
            .zip(&settled)
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
        Ok(Json::obj(vec![
            ("scheduler", Json::Str(self.kind.name().into())),
            ("perturbation", Json::Str(self.perturbation.name().into())),
            ("seeds", Json::Int(seeds.len() as i64)),
            ("pairs", Json::Arr(pairs)),
            (
                "headline_punits",
                headline.map(Json::num).unwrap_or(Json::Null),
            ),
        ]))
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

    /// One cell's merged result at [`TEST_SCALE`].
    fn result(kind: SchedulerKind, perturbation: Perturbation) -> Json {
        (&DynamicsCell { kind, perturbation } as &dyn Cell)
            .execute(TEST_SCALE)
            .0
    }

    /// Whether any class pair settled in any seed.
    fn any_settled(result: &Json) -> bool {
        let pairs = result.get("pairs").and_then(Json::as_arr).expect("pairs");
        pairs
            .iter()
            .any(|p| p.get("settled").and_then(Json::as_i64) > Some(0))
    }

    #[test]
    fn wtp_settles_after_an_sdp_step() {
        let r = result(SchedulerKind::Wtp, Perturbation::SdpStep);
        assert_eq!(r.get("seeds"), Some(&Json::Int(2)));
        assert!(any_settled(&r), "no pair settled: {}", r.serialize());
        assert!(r.get("headline_punits").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn link_flap_recovers_to_the_unchanged_targets() {
        let r = result(SchedulerKind::Wtp, Perturbation::LinkFlap);
        assert!(
            any_settled(&r),
            "no pair settled after the flap: {}",
            r.serialize()
        );
    }

    fn shard(times: &[i64]) -> (Json, Option<String>) {
        let times = times
            .iter()
            .map(|&t| if t == 0 { Json::Null } else { Json::Int(t) })
            .collect();
        (Json::obj(vec![("times", Json::Arr(times))]), None)
    }

    #[test]
    fn a_negative_settle_time_is_a_cache_miss() {
        let cell = &cells()[0];
        let scale = Scale::Custom {
            punits: 400,
            nseeds: 2,
        };
        assert!(cell
            .merge_shards(scale, &[shard(&[3, 0, 7]), shard(&[5, 0, 7])])
            .is_ok());
        let err = cell
            .merge_shards(scale, &[shard(&[3, 0, 7]), shard(&[-1, 0, 7])])
            .unwrap_err();
        assert!(err.contains("`times` is not a count"), "{err}");
    }

    /// A shard with more settle times than class pairs — a partial of
    /// another class count — is a merge error, not an out-of-bounds panic.
    #[test]
    fn a_long_times_array_is_a_merge_error_not_a_panic() {
        let cell = &cells()[0];
        let scale = Scale::Custom {
            punits: 400,
            nseeds: 2,
        };
        let err = cell
            .merge_shards(scale, &[shard(&[3, 0, 7]), shard(&[3, 5, 7, 9])])
            .unwrap_err();
        assert!(
            err.contains("shard 1 `times` does not hold 3 entries"),
            "{err}"
        );
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
