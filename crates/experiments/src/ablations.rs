//! Ablations: the design-choice studies DESIGN.md calls out.
//!
//! * `shootout` — every scheduler on identical traffic: shows why §2.1
//!   rejects strict priority and capacity differentiation, and how the PAD
//!   and HPD extensions repair WTP's moderate-load undershoot.
//! * [`feasibility_cell`] — maps the feasible DDP region of Eq. (7) by
//!   sweeping spacing ratios and utilizations.
//! * [`starvation`] — Proposition 2 demonstrated empirically: the SDP-ratio
//!   threshold at which a high-class burst starves lower classes.
//! * `moderate-load` — quantifies the ρ = 0.70 "ratio ≈ 1.5 when it
//!   should be 2" observation across schedulers.
//! * [`plr_cell`], `additive`, `analytic`, [`mixed_path_cell`] — the §7
//!   loss extension, the Eq. (3) contrast, the M/G/1 cross-check, and
//!   partial deployment.
//!
//! Each study is its own suite: the measurement, then its grid, cell and
//! markdown block. The seed-swept studies (`shootout`, `moderate-load`,
//! `additive`, `analytic`) are [`SeedCell`]s, one shard per seed.

use pdd::model::{Ddp, ProportionalModel};
use pdd::qsim::{Experiment, SeedResult, Session};
use pdd::sched::{Packet, PifoCore, Scheduler, SchedulerKind, Sdp, WtpRank};
use pdd::simcore::{Dur, Time};
use pdd::stats::Summary;
use pdd::telemetry::json::Json;
use pdd::telemetry::{MetricsRegistry, NoopProbe};
use pdd::traffic::{IatDist, LoadPlan, SizeDist, Trace, PAPER_MEAN_PACKET_BYTES};

use crate::cell::{self, Cell, Partial, Seed, SeedCell};
use crate::Scale;

/// Successive class pairs of the paper's four classes: a ratio row's width.
const PAIRS: usize = 3;

/// One seed of the paper's Study-A link at utilization `rho` (SDPs
/// 1,2,4,8): each scheduler of `kinds` replaying the seed's trace, as its
/// successive-class ratios.
fn paper_ratio_rows(rho: f64, kinds: &[SchedulerKind], scale: Scale, seed: u64) -> Json {
    let e = Experiment::paper(rho, Sdp::paper_default(), scale.punits(), vec![seed]);
    cell::seed_rows(
        &e,
        kinds,
        seed,
        &mut NoopProbe,
        SeedResult::successive_ratios,
    )
}

/// The scheduler shoot-out: every scheduler on the same traces (ρ = 0.95,
/// SDPs 1,2,4,8), each one's ratios and mean deviation from the targets.
struct ShootoutCell;

/// The `shootout` suite: one cell.
pub fn shootout_cells() -> Vec<Box<dyn Cell>> {
    vec![Box::new(ShootoutCell)]
}

impl SeedCell for ShootoutCell {
    fn id(&self) -> String {
        "shootout".into()
    }

    fn params(&self) -> Json {
        cell::params("shootout", vec![])
    }

    fn measure(&self, scale: Scale, seed: u64) -> (Json, Option<MetricsRegistry>) {
        (
            paper_ratio_rows(0.95, &SchedulerKind::ALL, scale, seed),
            None,
        )
    }

    /// Each scheduler's ratios averaged over the seeds, and their mean
    /// absolute relative deviation from the targets.
    fn fold(&self, _scale: Scale, seeds: &[Seed]) -> Result<Json, String> {
        let targets = Sdp::paper_default().target_ratios();
        let ratios = cell::average_seed_rows(seeds, SchedulerKind::ALL.len(), PAIRS)?;
        let rows = SchedulerKind::ALL
            .iter()
            .zip(&ratios)
            .map(|(k, ratios)| {
                let deviation = (ratios.iter().zip(&targets))
                    .map(|(r, t)| (r - t).abs() / t)
                    .sum::<f64>()
                    / ratios.len() as f64;
                Json::obj(vec![
                    ("scheduler", Json::Str(k.name().into())),
                    ("ratios", Json::nums(ratios)),
                    ("deviation", Json::num(deviation)),
                ])
            })
            .collect();
        Ok(Json::obj(vec![("rows", Json::Arr(rows))]))
    }
}

/// The `shootout` block.
pub fn shootout_table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "shootout");
    let r = cell::result(cells.first()?);
    let rows = r
        .get("rows")
        .and_then(Json::as_arr)?
        .iter()
        .map(|row| {
            let mut out = vec![cell::scheduler_name(row)];
            out.extend(cell::ratio_cells(row, "ratios"));
            out.push(format!(
                "{:.1}%",
                row.get("deviation")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
                    * 100.0
            ));
            out
        })
        .collect();
    Some(cell::markdown_table(
        &[
            "scheduler",
            "d1/d2",
            "d2/d3",
            "d3/d4",
            "mean \\|dev\\| from 2.0",
        ],
        rows,
    ))
}

/// One feasibility-region probe.
#[derive(Debug, Clone)]
pub struct FeasibilityProbe {
    /// Utilization of the probed trace.
    pub utilization: f64,
    /// DDP spacing ratio probed.
    pub spacing: f64,
    /// Whether Eq. (7) admits the Eq. (6) targets.
    pub feasible: bool,
    /// Worst subset slack (negative = violated).
    pub worst_slack: f64,
}

/// The spacing ratios swept by the feasibility ablation.
pub const FEASIBILITY_SPACINGS: [f64; 6] = [1.5, 2.0, 4.0, 8.0, 16.0, 32.0];

/// The utilizations swept by the feasibility ablation.
pub const FEASIBILITY_UTILS: [f64; 3] = [0.75, 0.85, 0.95];

/// Probes one (utilization, spacing) point of the feasibility region.
pub fn feasibility_cell(rho: f64, spacing: f64, scale: Scale) -> FeasibilityProbe {
    let e = Experiment::paper(
        rho,
        Sdp::paper_default(),
        scale.punits().min(30_000),
        vec![11],
    );
    let trace: Trace = e.trace_for_seed(11);
    let arrivals: Vec<(u64, u8, u32)> = trace
        .entries()
        .iter()
        .map(|t| (t.at.ticks(), t.class, t.size))
        .collect();
    let model = ProportionalModel::new(Ddp::geometric(4, spacing).expect("static"));
    let report = model.check_feasibility(&arrivals, 1.0);
    let worst = report
        .checks
        .iter()
        .map(|c| c.slack())
        .fold(f64::INFINITY, f64::min);
    FeasibilityProbe {
        utilization: rho,
        spacing,
        feasible: report.feasible(),
        worst_slack: worst,
    }
}

/// One (utilization, spacing) probe of the Eq. (7) feasibility region.
struct FeasibilityCell {
    utilization: f64,
    spacing: f64,
}

/// The `feasibility` suite: utilizations × spacings, utilization-major.
pub fn feasibility_cells() -> Vec<Box<dyn Cell>> {
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    for utilization in FEASIBILITY_UTILS {
        for spacing in FEASIBILITY_SPACINGS {
            cells.push(Box::new(FeasibilityCell {
                utilization,
                spacing,
            }));
        }
    }
    cells
}

impl Cell for FeasibilityCell {
    fn id(&self) -> String {
        cell::sanitize(format!(
            "feasibility-u{}-s{}",
            self.utilization, self.spacing
        ))
    }

    fn params(&self) -> Json {
        cell::params(
            "feasibility",
            vec![
                ("utilization", Json::num(self.utilization)),
                ("spacing", Json::num(self.spacing)),
            ],
        )
    }

    fn execute_shard(&self, scale: Scale, _shard: usize) -> Partial {
        let p = feasibility_cell(self.utilization, self.spacing, scale);
        let result = Json::obj(vec![
            ("utilization", Json::num(p.utilization)),
            ("spacing", Json::num(p.spacing)),
            ("feasible", Json::Bool(p.feasible)),
            ("worst_slack", Json::num(p.worst_slack)),
        ]);
        (result, None)
    }
}

/// The `feasibility` block.
pub fn feasibility_table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "feasibility");
    if cells.is_empty() {
        return None;
    }
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            vec![
                format!(
                    "{:.0}%",
                    r.get("utilization").and_then(Json::as_f64).unwrap_or(0.0) * 100.0
                ),
                format!(
                    "{:.1}",
                    r.get("spacing").and_then(Json::as_f64).unwrap_or(0.0)
                ),
                if r.get("feasible").and_then(Json::as_bool).unwrap_or(false) {
                    "yes".into()
                } else {
                    "**NO**".to_string()
                },
                format!(
                    "{:+.3}",
                    r.get("worst_slack")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN)
                ),
            ]
        })
        .collect();
    Some(cell::markdown_table(
        &["util", "spacing", "feasible", "worst subset slack"],
        rows,
    ))
}

/// One starvation probe: does a class-2 burst fully starve class 1?
#[derive(Debug, Clone)]
pub struct StarvationProbe {
    /// SDP ratio s2/s1.
    pub sdp_ratio: f64,
    /// 1 − R/R₁ for the constructed burst.
    pub condition_lhs: f64,
    /// s1/s2 (Proposition 2 threshold).
    pub condition_rhs: f64,
    /// Whether Proposition 2 predicts starvation.
    pub predicted: bool,
    /// Whether the simulation starved the low class for the whole burst.
    pub observed: bool,
}

/// Reproduces Proposition 2 across SDP ratios with a burst at peak rate
/// R₁ = 2R.
pub fn starvation() -> Vec<StarvationProbe> {
    let burst = 60u64;
    [1.2, 1.5, 1.9, 2.0, 2.1, 3.0, 4.0, 8.0]
        .into_iter()
        .map(|ratio| {
            let sdp = Sdp::new(&[1.0, ratio]).expect("static");
            let mut s = PifoCore::new("WTP", 2, WtpRank::new(sdp));
            // Victim arrives at t0 = 0; burst packets at R1 = 2R (gap 50
            // ticks for 100-tick services).
            s.enqueue(Packet::new(0, 0, 100, Time::ZERO));
            for k in 0..burst {
                s.enqueue(Packet::new(k + 1, 1, 100, Time::from_ticks(50 * k)));
            }
            let mut now = Time::ZERO;
            let mut victim_position = 0usize;
            let mut idx = 0usize;
            while let Some(p) = s.dequeue(now) {
                if p.class == 0 {
                    victim_position = idx;
                }
                idx += 1;
                now += Dur::from_ticks(100);
            }
            let condition_lhs = 0.5; // 1 − R/R1 with R1 = 2R
            let condition_rhs = 1.0 / ratio;
            StarvationProbe {
                sdp_ratio: ratio,
                condition_lhs,
                condition_rhs,
                predicted: condition_lhs > condition_rhs,
                observed: victim_position == burst as usize,
            }
        })
        .collect()
}

/// The Proposition-2 probes: one pure cell, the same at every scale.
struct StarvationCell;

/// The `starvation` suite: one cell.
pub fn starvation_cells() -> Vec<Box<dyn Cell>> {
    vec![Box::new(StarvationCell)]
}

impl Cell for StarvationCell {
    fn id(&self) -> String {
        "starvation".into()
    }

    fn params(&self) -> Json {
        cell::params("starvation", vec![])
    }

    fn execute_shard(&self, _scale: Scale, _shard: usize) -> Partial {
        let rows = starvation()
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("sdp_ratio", Json::num(p.sdp_ratio)),
                    ("condition_lhs", Json::num(p.condition_lhs)),
                    ("condition_rhs", Json::num(p.condition_rhs)),
                    ("predicted", Json::Bool(p.predicted)),
                    ("observed", Json::Bool(p.observed)),
                ])
            })
            .collect();
        (Json::obj(vec![("probes", Json::Arr(rows))]), None)
    }
}

/// The `starvation` block.
pub fn starvation_table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "starvation");
    let r = cell::result(cells.first()?);
    let rows = r
        .get("probes")
        .and_then(Json::as_arr)?
        .iter()
        .map(|p| {
            let flag = |key: &str| {
                if p.get(key).and_then(Json::as_bool).unwrap_or(false) {
                    "starve".to_string()
                } else {
                    "-".to_string()
                }
            };
            vec![
                format!(
                    "{:.1}",
                    p.get("sdp_ratio").and_then(Json::as_f64).unwrap_or(0.0)
                ),
                format!(
                    "{:.2}",
                    p.get("condition_lhs").and_then(Json::as_f64).unwrap_or(0.0)
                ),
                format!(
                    "{:.2}",
                    p.get("condition_rhs").and_then(Json::as_f64).unwrap_or(0.0)
                ),
                flag("predicted"),
                flag("observed"),
            ]
        })
        .collect();
    Some(cell::markdown_table(
        &["s2/s1", "1−R/R₁", "s1/s2", "predicted", "observed"],
        rows,
    ))
}

/// The utilizations swept by the moderate-load ablation.
pub const MODERATE_LOAD_UTILS: [f64; 4] = [0.70, 0.80, 0.90, 0.95];

/// The schedulers the moderate-load ablation compares.
const MODERATE_LOAD_KINDS: [SchedulerKind; 4] = [
    SchedulerKind::Wtp,
    SchedulerKind::Bpr,
    SchedulerKind::Pad,
    SchedulerKind::Hpd,
];

/// One utilization point of the moderate-load undershoot ablation.
struct ModerateLoadCell {
    utilization: f64,
}

/// The `moderate-load` suite: one cell per utilization.
pub fn moderate_load_cells() -> Vec<Box<dyn Cell>> {
    MODERATE_LOAD_UTILS
        .iter()
        .map(|&utilization| Box::new(ModerateLoadCell { utilization }) as Box<dyn Cell>)
        .collect()
}

impl SeedCell for ModerateLoadCell {
    fn id(&self) -> String {
        cell::sanitize(format!("moderate-load-u{}", self.utilization))
    }

    fn params(&self) -> Json {
        cell::params(
            "moderate-load",
            vec![("utilization", Json::num(self.utilization))],
        )
    }

    fn measure(&self, scale: Scale, seed: u64) -> (Json, Option<MetricsRegistry>) {
        let rows = paper_ratio_rows(self.utilization, &MODERATE_LOAD_KINDS, scale, seed);
        (rows, None)
    }

    /// Each scheduler's ratios averaged over the seeds, then over the
    /// class pairs.
    fn fold(&self, _scale: Scale, seeds: &[Seed]) -> Result<Json, String> {
        let ratios = cell::average_seed_rows(seeds, MODERATE_LOAD_KINDS.len(), PAIRS)?;
        let rows = MODERATE_LOAD_KINDS
            .iter()
            .zip(&ratios)
            .map(|(k, ratios)| {
                let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
                Json::obj(vec![
                    ("scheduler", Json::Str(k.name().into())),
                    ("mean_ratio", Json::num(mean)),
                ])
            })
            .collect();
        Ok(Json::obj(vec![
            ("utilization", Json::num(self.utilization)),
            ("rows", Json::Arr(rows)),
        ]))
    }
}

/// The `moderate-load` block.
pub fn moderate_load_table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "moderate-load");
    if cells.is_empty() {
        return None;
    }
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            let mut row = vec![format!(
                "{:.0}%",
                r.get("utilization").and_then(Json::as_f64).unwrap_or(0.0) * 100.0
            )];
            for entry in r.get("rows").and_then(Json::as_arr).unwrap_or_default() {
                row.push(format!(
                    "{:.2}",
                    entry
                        .get("mean_ratio")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN)
                ));
            }
            row
        })
        .collect();
    Some(cell::markdown_table(
        &["util", "WTP", "BPR", "PAD", "HPD"],
        rows,
    ))
}

/// The loss-spacing targets σ₁/σ₂ swept by the PLR ablation.
pub const PLR_SIGMAS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Measures one point of the §7 coupled delay+loss extension on a
/// 2-class WTP link at offered load ≈ 1.3: `(sigma_ratio, plr_loss_ratio,
/// taildrop_loss_ratio, delay_ratio)` for one target loss spacing. WTP
/// spaces the delays while the PLR dropper spaces the losses; tail-drop
/// is the uncontrolled baseline.
pub fn plr_cell(sigma_ratio: f64, scale: Scale) -> (f64, f64, f64, f64) {
    use pdd::qsim::{LossMode, Session};
    use pdd::sched::PlrDropper;
    use pdd::simcore::Time as SimTime;
    use pdd::traffic::ClassSource;

    let horizon = SimTime::from_ticks(scale.punits().max(4_000) * 100);
    let make_trace = |seed| {
        let mut sources = vec![
            ClassSource::new(
                0,
                IatDist::paper_pareto(154.0).expect("static"),
                SizeDist::fixed(100),
            ),
            ClassSource::new(
                1,
                IatDist::paper_pareto(154.0).expect("static"),
                SizeDist::fixed(100),
            ),
        ];
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        Trace::generate(&mut sources, horizon, &mut rng)
    };
    let trace = make_trace(13);
    let sdp = Sdp::new(&[1.0, 2.0]).expect("static");
    let mut s = SchedulerKind::Wtp.build(&sdp, 1.0);
    let plr_mode = LossMode::Plr(PlrDropper::new(&[sigma_ratio, 1.0]).expect("static"));
    let r_plr = Session::trace(&trace, 1.0)
        .lossy(6_000, plr_mode)
        .run(s.as_mut());
    let mut s2 = SchedulerKind::Wtp.build(&sdp, 1.0);
    let r_tail = Session::trace(&trace, 1.0)
        .lossy(6_000, LossMode::TailDrop)
        .run(s2.as_mut());
    (
        sigma_ratio,
        r_plr.loss_ratio(0, 1).unwrap_or(f64::NAN),
        r_tail.loss_ratio(0, 1).unwrap_or(f64::NAN),
        r_plr.delays[0].mean() / r_plr.delays[1].mean(),
    )
}

/// One target loss-spacing point of the PLR ablation.
struct PlrCell {
    sigma: f64,
}

/// The `plr` suite: one cell per target loss spacing.
pub fn plr_cells() -> Vec<Box<dyn Cell>> {
    PLR_SIGMAS
        .iter()
        .map(|&sigma| Box::new(PlrCell { sigma }) as Box<dyn Cell>)
        .collect()
}

impl Cell for PlrCell {
    fn id(&self) -> String {
        cell::sanitize(format!("plr-s{}", self.sigma))
    }

    fn params(&self) -> Json {
        cell::params("plr", vec![("sigma", Json::num(self.sigma))])
    }

    fn execute_shard(&self, scale: Scale, _shard: usize) -> Partial {
        let (s, plr_ratio, tail_ratio, delay_ratio) = plr_cell(self.sigma, scale);
        let result = Json::obj(vec![
            ("sigma", Json::num(s)),
            ("plr_loss_ratio", Json::num(plr_ratio)),
            ("taildrop_loss_ratio", Json::num(tail_ratio)),
            ("delay_ratio", Json::num(delay_ratio)),
        ]);
        (result, None)
    }
}

/// The `plr` block.
pub fn plr_table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "plr");
    if cells.is_empty() {
        return None;
    }
    let num = |r: &Json, key: &str| match r.get(key).and_then(Json::as_f64) {
        Some(v) => format!("{v:.2}"),
        None => "n/a".into(),
    };
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            vec![
                format!(
                    "{:.0}",
                    r.get("sigma").and_then(Json::as_f64).unwrap_or(0.0)
                ),
                num(r, "plr_loss_ratio"),
                num(r, "taildrop_loss_ratio"),
                num(r, "delay_ratio"),
            ]
        })
        .collect();
    Some(cell::markdown_table(
        &[
            "target σ1/σ2",
            "PLR loss ratio",
            "tail-drop loss ratio",
            "delay ratio (target 2)",
        ],
        rows,
    ))
}

/// The additive model's per-class offsets s_i, in p-units: a target
/// difference of 10 p-units between successive classes.
const ADDITIVE_OFFSETS_PUNITS: [f64; 4] = [1.0, 11.0, 21.0, 31.0];

/// The additive differentiation model (Eq. 3) at heavy load.
struct AdditiveCell;

/// The `additive` suite: one cell.
pub fn additive_cells() -> Vec<Box<dyn Cell>> {
    vec![Box::new(AdditiveCell)]
}

impl SeedCell for AdditiveCell {
    fn id(&self) -> String {
        "additive".into()
    }

    fn params(&self) -> Json {
        cell::params("additive", vec![])
    }

    /// The seed's class mean delays under the additive scheduler. Like
    /// WTP, it reaches its heavy-load regime only when class delays dwarf
    /// the offsets, so the link runs very close to saturation.
    fn measure(&self, scale: Scale, seed: u64) -> (Json, Option<MetricsRegistry>) {
        let offsets = ADDITIVE_OFFSETS_PUNITS.map(|o| o * PAPER_MEAN_PACKET_BYTES);
        let sdp = Sdp::new(&offsets).expect("increasing offsets");
        let e = Experiment::paper(0.995, sdp, scale.punits(), vec![seed]);
        let kinds = [SchedulerKind::Additive];
        let rows = cell::seed_rows(&e, &kinds, seed, &mut NoopProbe, SeedResult::mean_delays);
        (rows, None)
    }

    /// The mean delays averaged over the seeds, their successive
    /// differences d_i − d_{i+1} and the targets s_{i+1} − s_i (ticks).
    fn fold(&self, _scale: Scale, seeds: &[Seed]) -> Result<Json, String> {
        let offsets = ADDITIVE_OFFSETS_PUNITS.map(|o| o * PAPER_MEAN_PACKET_BYTES);
        let delays = cell::average_seed_rows(seeds, 1, offsets.len())?.remove(0);
        let differences: Vec<f64> = delays.windows(2).map(|w| w[0] - w[1]).collect();
        let targets: Vec<f64> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        Ok(Json::obj(vec![
            ("offsets", Json::nums(&offsets)),
            ("delays", Json::nums(&delays)),
            ("differences", Json::nums(&differences)),
            ("targets", Json::nums(&targets)),
        ]))
    }
}

/// The `additive` block.
pub fn additive_table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "additive");
    let r = cell::result(cells.first()?);
    let p = pdd::traffic::PAPER_MEAN_PACKET_BYTES;
    let diffs = r.get("differences").and_then(Json::as_arr)?;
    let targets = r.get("targets").and_then(Json::as_arr)?;
    let rows = diffs
        .iter()
        .zip(targets)
        .enumerate()
        .map(|(i, (d, t))| {
            vec![
                format!("{}/{}", i + 1, i + 2),
                format!("{:.1}", d.as_f64().unwrap_or(f64::NAN) / p),
                format!("{:.1}", t.as_f64().unwrap_or(f64::NAN) / p),
            ]
        })
        .collect();
    Some(cell::markdown_table(
        &["pair", "measured dᵢ−dⱼ (p-units)", "target sⱼ−sᵢ (p-units)"],
        rows,
    ))
}

/// The schedulers the analytic check validates, each against its exact
/// M/G/1 formula: FCFS (Pollaczek–Khinchine), strict priority (Cobham)
/// and WTP (Kleinrock's time-dependent priorities).
const ANALYTIC_KINDS: [SchedulerKind; 3] = [
    SchedulerKind::Fcfs,
    SchedulerKind::Strict,
    SchedulerKind::Wtp,
];

/// The analytic check's load: ρ = 0.9 at the paper's 40/30/20/10 % mix.
const ANALYTIC_RHO: f64 = 0.9;
const ANALYTIC_FRACTIONS: [f64; 4] = [0.4, 0.3, 0.2, 0.1];

/// Simulator vs theory under Poisson arrivals with the paper's packet
/// sizes: each scheduler's class mean waits against the closed forms.
struct AnalyticCell;

/// The `analytic` suite: one cell.
pub fn analytic_cells() -> Vec<Box<dyn Cell>> {
    vec![Box::new(AnalyticCell)]
}

impl SeedCell for AnalyticCell {
    fn id(&self) -> String {
        "analytic".into()
    }

    fn params(&self) -> Json {
        cell::params("analytic", vec![])
    }

    /// Mean waits mix slowly at ρ = 0.9 (long busy-period correlations),
    /// so the check averages six fixed independent seeds, at every scale,
    /// rather than one long window.
    fn seeds(&self, _scale: Scale) -> Vec<u64> {
        (0..6).map(|k| 23 + k * 101).collect()
    }

    /// The seed's Poisson trace through each scheduler: its class mean
    /// waits (ticks) after the warm-up.
    fn measure(&self, scale: Scale, seed: u64) -> (Json, Option<MetricsRegistry>) {
        let horizon = Time::from_ticks(scale.punits().max(20_000) * 441 * 4);
        let warmup = Time::from_ticks(horizon.ticks() / 20);
        let plan = LoadPlan::new(1.0, ANALYTIC_RHO, &ANALYTIC_FRACTIONS, SizeDist::paper())
            .expect("valid");
        let mut sources = plan
            .sources(&IatDist::exponential(1.0).expect("static"))
            .expect("valid");
        let trace = Trace::generate_per_source(&mut sources, horizon, seed);
        let rows: Vec<Vec<f64>> = ANALYTIC_KINDS
            .iter()
            .map(|kind| {
                let mut s = kind.build(&Sdp::geometric(4, 2.0).expect("static"), 1.0);
                let mut acc = vec![Summary::new(); 4];
                Session::trace(&trace, 1.0).run(s.as_mut(), |d| {
                    if d.start >= warmup {
                        acc[d.packet.class as usize].push(d.wait().as_f64());
                    }
                });
                acc.iter().map(Summary::mean).collect()
            })
            .collect();
        (Json::obj(vec![("rows", cell::rows_json(&rows))]), None)
    }

    /// Per scheduler and class: the wait averaged over the seeds
    /// (`sum / seeds`) beside the closed form, both in p-units.
    fn fold(&self, _scale: Scale, seeds: &[Seed]) -> Result<Json, String> {
        let q = pdd::analytic::Mg1::paper_sizes(ANALYTIC_RHO, &ANALYTIC_FRACTIONS).expect("stable");
        let predicted = [
            vec![q.fcfs_wait(); 4],
            q.strict_priority_waits(),
            q.tdp_waits(&[1.0, 2.0, 4.0, 8.0]),
        ];
        let per_seed = seeds
            .iter()
            .map(|seed| seed.rows(ANALYTIC_KINDS.len(), Some(4)))
            .collect::<Result<Vec<_>, String>>()?;
        let mut rows = Vec::new();
        for (k, (kind, pred)) in ANALYTIC_KINDS.iter().zip(&predicted).enumerate() {
            for (c, theory) in pred.iter().enumerate() {
                let measured =
                    per_seed.iter().map(|s| s[k][c]).sum::<f64>() / per_seed.len() as f64;
                rows.push(Json::obj(vec![
                    ("scheduler", Json::Str(kind.name().into())),
                    ("class", Json::Int(c as i64 + 1)),
                    ("simulated", Json::num(measured / 441.0)),
                    ("theory", Json::num(theory / 441.0)),
                ]));
            }
        }
        Ok(Json::obj(vec![("rows", Json::Arr(rows))]))
    }
}

/// The `analytic` block.
pub fn analytic_table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "analytic");
    let r = cell::result(cells.first()?);
    let rows = r
        .get("rows")
        .and_then(Json::as_arr)?
        .iter()
        .map(|row| {
            let m = row
                .get("simulated")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let p = row.get("theory").and_then(Json::as_f64).unwrap_or(f64::NAN);
            vec![
                cell::scheduler_name(row),
                format!("{}", row.get("class").and_then(Json::as_i64).unwrap_or(0)),
                format!("{m:.1}"),
                format!("{p:.1}"),
                format!("{:+.1}%", (m / p - 1.0) * 100.0),
            ]
        })
        .collect();
    Some(cell::markdown_table(
        &["scheduler", "class", "simulated", "theory", "error"],
        rows,
    ))
}

/// The mixed-path deployment scenarios: `(label, per-hop schedulers)`.
pub fn mixed_path_scenarios() -> Vec<(&'static str, Vec<SchedulerKind>)> {
    vec![
        ("WTP x4", vec![SchedulerKind::Wtp; 4]),
        (
            "WTP x3 + FCFS",
            vec![
                SchedulerKind::Wtp,
                SchedulerKind::Fcfs,
                SchedulerKind::Wtp,
                SchedulerKind::Wtp,
            ],
        ),
        (
            "WTP x2 + FCFS x2",
            vec![
                SchedulerKind::Wtp,
                SchedulerKind::Fcfs,
                SchedulerKind::Wtp,
                SchedulerKind::Fcfs,
            ],
        ),
        ("FCFS x4", vec![SchedulerKind::Fcfs; 4]),
    ]
}

/// Measures one mixed-path scenario by its [`mixed_path_scenarios`] index
/// — all-WTP vs one FCFS hop vs half FCFS vs all-FCFS on a 4-hop Figure-6
/// chain at ρ = 0.95 — showing how legacy (FCFS) hops dilute the
/// end-to-end differentiation: `(label, R_D, inconsistent experiments)`.
pub fn mixed_path_cell(scenario: usize, scale: Scale) -> (&'static str, f64, usize) {
    use pdd::netsim::{analyze, packet_time_tolerance, Session, StudyBConfig};

    let (experiments, warmup) = scale.study_b();
    let (label, links) = mixed_path_scenarios()
        .into_iter()
        .nth(scenario)
        .expect("scenario index in range");
    let mut cfg = StudyBConfig::paper(4, 0.95, 20, 200.0);
    cfg.experiments = experiments;
    cfg.warmup_secs = warmup;
    cfg.link_schedulers = Some(links);
    cfg.seed = 5;
    let records = Session::study_b(&cfg).run();
    let r = analyze(&records, cfg.num_classes(), packet_time_tolerance(&cfg));
    (label, r.rd, r.inconsistent_experiments)
}

/// One deployment scenario of the mixed-path ablation.
struct MixedPathCell {
    /// Index into [`mixed_path_scenarios`].
    scenario: usize,
}

/// The `mixed-path` suite: one cell per deployment scenario.
pub fn mixed_path_cells() -> Vec<Box<dyn Cell>> {
    (0..mixed_path_scenarios().len())
        .map(|scenario| Box::new(MixedPathCell { scenario }) as Box<dyn Cell>)
        .collect()
}

impl Cell for MixedPathCell {
    fn id(&self) -> String {
        format!("mixed-path-{}", self.scenario)
    }

    fn params(&self) -> Json {
        cell::params(
            "mixed-path",
            vec![("scenario", Json::Int(self.scenario as i64))],
        )
    }

    fn execute_shard(&self, scale: Scale, _shard: usize) -> Partial {
        let (label, rd, inconsistent) = mixed_path_cell(self.scenario, scale);
        let result = Json::obj(vec![
            ("label", Json::Str(label.into())),
            ("rd", Json::num(rd)),
            ("inconsistent_experiments", Json::Int(inconsistent as i64)),
        ]);
        (result, None)
    }
}

/// The `mixed-path` block.
pub fn mixed_path_table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "mixed-path");
    if cells.is_empty() {
        return None;
    }
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            vec![
                r.get("label")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                format!(
                    "{:.2}",
                    r.get("rd").and_then(Json::as_f64).unwrap_or(f64::NAN)
                ),
                format!(
                    "{}",
                    r.get("inconsistent_experiments")
                        .and_then(Json::as_i64)
                        .unwrap_or(0)
                ),
            ]
        })
        .collect();
    Some(cell::markdown_table(
        &["per-hop schedulers", "end-to-end R_D", "inconsistent exps"],
        rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The merged result of a suite's `index`-th cell at `scale`.
    fn result(cells: fn() -> Vec<Box<dyn Cell>>, index: usize, scale: Scale) -> Json {
        cells()[index].execute(scale).0
    }

    /// A result's `rows`, by scheduler name.
    fn by_scheduler<'a>(result: &'a Json, name: &str) -> &'a Json {
        (result.get("rows").and_then(Json::as_arr).expect("rows"))
            .iter()
            .find(|row| row.get("scheduler").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name} row"))
    }

    fn num(json: &Json, key: &str) -> f64 {
        json.get(key).and_then(Json::as_f64).expect(key)
    }

    fn nums(json: &Json, key: &str) -> Vec<f64> {
        (json.get(key).and_then(Json::as_arr).expect(key))
            .iter()
            .map(|v| v.as_f64().expect("finite"))
            .collect()
    }

    #[test]
    fn shootout_separates_scheduler_families() {
        // PAD's long-run-average bookkeeping needs more departures than a
        // single bench-scale seed provides before its deviation separates
        // cleanly from WTP's; a slightly longer two-seed run is stable.
        let s = result(
            shootout_cells,
            0,
            Scale::Custom {
                punits: 12_000,
                nseeds: 2,
            },
        );
        let deviation = |name| num(by_scheduler(&s, name), "deviation");
        // FCFS does not differentiate.
        let fcfs = nums(by_scheduler(&s, "FCFS"), "ratios");
        let fcfs_mean = fcfs.iter().sum::<f64>() / fcfs.len() as f64;
        assert!((fcfs_mean - 1.0).abs() < 0.3, "FCFS mean ratio {fcfs_mean}");
        // WTP is far closer to target than FCFS.
        assert!(deviation("WTP") < deviation("FCFS"));
        // PAD holds the target at least as well as WTP does.
        assert!(deviation("PAD") < deviation("WTP") + 0.05);
    }

    #[test]
    fn proposition_2_threshold_matches_observation() {
        let probes = starvation();
        for p in &probes {
            // At the exact threshold (ratio = 2) the proposition's strict
            // inequality doesn't apply; skip it.
            if (p.sdp_ratio - 2.0).abs() < 1e-9 {
                continue;
            }
            assert_eq!(
                p.predicted, p.observed,
                "ratio {}: predicted {} observed {}",
                p.sdp_ratio, p.predicted, p.observed
            );
        }
    }

    #[test]
    fn paper_operating_points_are_feasible() {
        for rho in FEASIBILITY_UTILS {
            for spacing in FEASIBILITY_SPACINGS.into_iter().filter(|&s| s <= 4.0) {
                assert!(
                    feasibility_cell(rho, spacing, Scale::Bench).feasible,
                    "spacing {spacing} at {}% should be feasible",
                    rho * 100.0
                );
            }
        }
    }

    #[test]
    fn pad_fixes_moderate_load_undershoot() {
        let r = result(moderate_load_cells, 0, Scale::Bench);
        assert!((num(&r, "utilization") - 0.70).abs() < 1e-9);
        let get = |name| num(by_scheduler(&r, name), "mean_ratio");
        let wtp = get("WTP");
        let pad = get("PAD");
        assert!(wtp < 1.9, "WTP should undershoot at 70%, got {wtp}");
        assert!(
            (pad - 2.0).abs() < (wtp - 2.0).abs() + 0.05,
            "PAD {pad} should be closer to 2.0 than WTP {wtp}"
        );
    }

    #[test]
    fn plr_controls_losses_tail_drop_does_not() {
        for sigma in PLR_SIGMAS {
            let (sigma, plr_ratio, tail_ratio, delay_ratio) = plr_cell(sigma, Scale::Bench);
            assert!(
                (plr_ratio - sigma).abs() / sigma < 0.35,
                "sigma {sigma}: PLR ratio {plr_ratio}"
            );
            assert!(
                (tail_ratio - 1.0).abs() < 0.4,
                "tail-drop ratio {tail_ratio} should stay near 1"
            );
            assert!(delay_ratio > 1.3, "WTP still differentiates delays");
        }
    }

    #[test]
    fn additive_spaces_differences_not_ratios() {
        // Bench scale is too short for the additive scheduler's heavy-load
        // regime (the spacing only converges once class delays dwarf the
        // offsets), so this one statistical check runs a longer horizon.
        let study = result(
            additive_cells,
            0,
            Scale::Custom {
                punits: 20_000,
                nseeds: 4,
            },
        );
        let targets = nums(&study, "targets");
        for (diff, target) in nums(&study, "differences").iter().zip(&targets) {
            assert!(
                (diff - target).abs() / target < 0.35,
                "difference {diff} vs target {target}"
            );
        }
    }

    #[test]
    fn simulator_agrees_with_closed_forms() {
        let check = result(analytic_cells, 0, Scale::Bench);
        for row in check.get("rows").and_then(Json::as_arr).expect("rows") {
            let (m, p) = (num(row, "simulated"), num(row, "theory"));
            assert!(
                (m - p).abs() / p < 0.15,
                "{}: measured {m} vs theory {p}",
                row.serialize()
            );
        }
    }

    /// The seed-swept ablations shard one seed per shard (`analytic` its
    /// six fixed seeds at every scale), and a foreign partial — rows of
    /// the wrong shape — is a merge error, not a panic in the fold.
    #[test]
    fn seed_swept_ablations_reject_foreign_rows() {
        let scale = Scale::Custom {
            punits: 400,
            nseeds: 2,
        };
        for cells in [
            shootout_cells,
            moderate_load_cells,
            additive_cells,
            analytic_cells,
        ] {
            let cell = &cells()[0];
            let mut shards: Vec<Partial> = (0..cell.shard_count(scale))
                .map(|shard| cell.execute_shard(scale, shard))
                .collect();
            assert!(cell.merge_shards(scale, &shards).is_ok(), "{}", cell.id());
            shards[1].0 = Json::obj(vec![("rows", cell::rows_json(&[vec![2.0; 2]]))]);
            let err = cell.merge_shards(scale, &shards).unwrap_err();
            assert!(err.contains("shard 1 does not hold"), "{err}");
        }
    }

    #[test]
    fn mixed_paths_interpolate_between_wtp_and_fcfs() {
        let rows: Vec<_> = (0..mixed_path_scenarios().len())
            .map(|i| mixed_path_cell(i, Scale::Bench))
            .collect();
        let rd = |label: &str| {
            rows.iter()
                .find(|(l, _, _)| *l == label)
                .map(|(_, r, _)| *r)
                .unwrap()
        };
        let full = rd("WTP x4");
        let one = rd("WTP x3 + FCFS");
        let none = rd("FCFS x4");
        assert!(full > one, "full {full} vs one-FCFS {one}");
        assert!(one > none, "one-FCFS {one} vs FCFS {none}");
        assert!((none - 1.0).abs() < 0.25, "all-FCFS R_D {none}");
    }
}
