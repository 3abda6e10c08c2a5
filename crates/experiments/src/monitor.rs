//! Monitor study: the online conformance monitor across monitoring
//! timescales.
//!
//! The paper's Figures 2–3 observation is that proportional delay
//! differentiation holds *in the long run* while short timescales wander
//! and even invert. This study makes that observation operational: a
//! [`pdd::telemetry::PddMonitor`] watches a perturbed Study-A run (live SDP
//! swap at mid-horizon, the dynamics study's scenario shape) at several
//! window widths τ and counts structured violation events.
//!
//! * **Short windows** flag constantly even in steady state — the
//!   short-timescale noise the paper warns about, now measured as a
//!   violation rate per evaluated window-pair.
//! * **Long windows** stay quiet in steady state and flag only the
//!   genuine transient after the swap, then go quiet again once the
//!   scheduler reconverges — the monitor's time-to-quiet upper-bounds the
//!   reconvergence time at that timescale.
//!
//! WTP (memoryless, fast recovery) and HPD (history-keeping, slow
//! recovery) bracket the transient behavior exactly as in the dynamics
//! study.
//!
//! Unlike the dynamics study's 2 → 4 step, the swap here targets spacing
//! **3**: spacing 4 spreads the extreme classes 1:64, which the
//! thin-class pairs never track within ±25 % at ρ = 0.95 (the
//! feasibility ceiling the ablations map), so under a 2 → 4 step the
//! monitor — correctly — never goes quiet. Spacing 3 is trackable, which
//! lets the transient/quiet signal measure the *monitor*, not the
//! feasibility boundary.

use pdd::qsim::Session;
use pdd::scenario::Scenario;
use pdd::sched::{SchedulerKind, Sdp};
use pdd::simcore::Time;
use pdd::telemetry::json::Json;
use pdd::telemetry::{MetricsRegistry, MonitorConfig};
use pdd::traffic::{LoadPlan, SizeDist, PAPER_MEAN_PACKET_BYTES};

use crate::cell::{self, Cell, Merged, Partial};
use crate::dynamics::{start_sdp, SCHEDULERS, UTILIZATION};
use crate::Scale;

/// The SDP the mid-run swap switches to (spacing 3 — see the module docs
/// for why not the dynamics study's spacing 4).
pub fn swapped_sdp() -> Sdp {
    Sdp::geometric(start_sdp().num_classes(), 3.0).expect("static")
}

/// Monitoring window widths swept, in p-units (mean packet transmission
/// times) — two orders of magnitude around the dynamics study's 250.
pub const WINDOW_LADDER: [u64; 4] = [50, 250, 1000, 4000];

/// Tolerance band for the monitor, matching the dynamics study's
/// reconvergence band: violate when `|achieved/target − 1| > 0.25`.
pub const EPSILON: f64 = 0.25;

/// Minimum departures per class per window for a pair to be evaluated.
pub const MIN_SAMPLES: u64 = 5;

/// One (scheduler, window) cell's seed-aggregated monitor verdicts.
#[derive(Debug, Clone)]
pub struct MonitorRow {
    /// The scheduler measured.
    pub scheduler: SchedulerKind,
    /// Monitoring window width, in p-units.
    pub window_punits: u64,
    /// Seeds measured.
    pub seeds: usize,
    /// Windows closed, summed over seeds.
    pub windows_closed: u64,
    /// (window, pair) evaluations with enough samples, summed over seeds.
    pub pairs_evaluated: u64,
    /// Violations in windows that ended at or before the swap.
    pub steady_violations: usize,
    /// Violations in windows that ended after the swap.
    pub transient_violations: usize,
    /// Of the transient violations, how many were inversions.
    pub inversions: usize,
    /// Mean over seeds of the quiet time: the last violating window's end
    /// minus the swap instant, in p-units (0 when a seed never violates
    /// after the swap).
    pub mean_quiet_punits: f64,
    /// Largest relative ratio drift `|achieved/target − 1|` seen.
    pub max_drift: f64,
}

impl MonitorRow {
    /// Violations per evaluated window-pair — the short-timescale "noise
    /// floor" the paper's Figure 2 describes.
    pub fn violation_rate(&self) -> f64 {
        if self.pairs_evaluated == 0 {
            0.0
        } else {
            (self.steady_violations + self.transient_violations) as f64
                / self.pairs_evaluated as f64
        }
    }
}

/// The monitor configuration for one cell: start-SDP targets from tick 0,
/// retargeted to the stepped SDP at the swap instant.
pub fn monitor_config(window_punits: u64, swap_at_ticks: u64) -> MonitorConfig {
    let p = PAPER_MEAN_PACKET_BYTES as u64;
    let ratios = |sdp: &Sdp| -> Vec<f64> {
        (0..sdp.num_classes() - 1)
            .map(|i| sdp.target_ratio(i))
            .collect()
    };
    let mut cfg = MonitorConfig::new(window_punits * p, EPSILON, ratios(&start_sdp()))
        .retarget(swap_at_ticks, ratios(&swapped_sdp()));
    cfg.min_samples = MIN_SAMPLES;
    cfg
}

/// Measures one (scheduler, window) cell at `scale`: one SDP-swap run per
/// seed with the monitor attached, reduced to violation tallies.
pub fn cell(scheduler: SchedulerKind, window_punits: u64, scale: Scale) -> MonitorRow {
    cell_metered(scheduler, window_punits, scale).0
}

/// Like [`cell()`], but also returns the per-seed metrics registries merged
/// into one — the production use of the registry's exact merge, and the
/// per-cell metrics artifact the orchestrator writes next to its cache
/// entry.
///
/// Implemented as the canonical shard pipeline ([`cell_seed_metered`] per
/// seed, folded by [`merge_seeds`] in seed order), so multi-process runs
/// reproduce both the row and the merged registry bit-for-bit.
pub fn cell_metered(
    scheduler: SchedulerKind,
    window_punits: u64,
    scale: Scale,
) -> (MonitorRow, MetricsRegistry) {
    let per_seed: Vec<(MonitorSeed, MetricsRegistry)> = scale
        .seeds()
        .iter()
        .map(|&seed| cell_seed_metered(scheduler, window_punits, scale, seed))
        .collect();
    merge_seeds(scheduler, window_punits, &per_seed)
}

/// One seed's monitor verdicts — the shard partial of a monitor cell.
#[derive(Debug, Clone)]
pub struct MonitorSeed {
    /// Windows closed in this seed's run.
    pub windows_closed: u64,
    /// (window, pair) evaluations with enough samples.
    pub pairs_evaluated: u64,
    /// Violations in windows that ended at or before the swap.
    pub steady_violations: usize,
    /// Violations in windows that ended after the swap.
    pub transient_violations: usize,
    /// Of the transient violations, how many were inversions.
    pub inversions: usize,
    /// This seed's quiet time: the last violating window's end minus the
    /// swap instant, in p-units (0 when nothing violates after the swap).
    pub quiet_punits: f64,
    /// Largest relative ratio drift seen in this seed.
    pub max_drift: f64,
}

/// Measures **one seed** of a monitor cell — the farm's shard unit —
/// returning the seed's verdict tallies and its metrics registry.
pub fn cell_seed_metered(
    scheduler: SchedulerKind,
    window_punits: u64,
    scale: Scale,
    seed: u64,
) -> (MonitorSeed, MetricsRegistry) {
    let p = PAPER_MEAN_PACKET_BYTES as u64;
    let horizon = scale.horizon();
    let mid = (scale.punits() / 2) * p;
    let sdp = start_sdp();
    let sc = Scenario::builder()
        .set_sdp(Time::from_ticks(mid), swapped_sdp())
        .build()
        .expect("static timeline");
    let cfg = monitor_config(window_punits, mid);
    let plan = LoadPlan::new(1.0, UTILIZATION, &[0.4, 0.3, 0.2, 0.1], SizeDist::paper())
        .expect("validated parameters");
    let sources = plan.pareto_sources().expect("valid plan");

    let mut s = scheduler.build(&sdp, 1.0);
    let (registry, monitor) = Session::sources(&sources, horizon, seed, 1.0)
        .scenario(sc)
        .run_monitored(cfg, s.as_mut(), |_| {});
    let mut out = MonitorSeed {
        windows_closed: monitor.windows_closed(),
        pairs_evaluated: monitor.pairs_evaluated(),
        steady_violations: 0,
        transient_violations: 0,
        inversions: 0,
        quiet_punits: 0.0,
        max_drift: 0.0,
    };
    let mut last_post_end = mid;
    for v in monitor.violations() {
        let end = v.window_start_ticks + v.window_ticks;
        if end <= mid {
            out.steady_violations += 1;
        } else {
            out.transient_violations += 1;
            if v.kind == pdd::telemetry::ViolationKind::Inversion {
                out.inversions += 1;
            }
            last_post_end = last_post_end.max(end);
        }
        out.max_drift = out.max_drift.max(v.drift());
    }
    out.quiet_punits = (last_post_end - mid) as f64 / PAPER_MEAN_PACKET_BYTES;
    (out, registry)
}

/// Folds per-seed partials (one [`cell_seed_metered`] output per seed,
/// **in seed order**) into the cell row and merged registry with the
/// single-process aggregation's exact arithmetic.
pub fn merge_seeds(
    scheduler: SchedulerKind,
    window_punits: u64,
    per_seed: &[(MonitorSeed, MetricsRegistry)],
) -> (MonitorRow, MetricsRegistry) {
    let mut row = MonitorRow {
        scheduler,
        window_punits,
        seeds: per_seed.len(),
        windows_closed: 0,
        pairs_evaluated: 0,
        steady_violations: 0,
        transient_violations: 0,
        inversions: 0,
        mean_quiet_punits: 0.0,
        max_drift: 0.0,
    };
    let mut quiet_sum = 0.0f64;
    let mut merged = MetricsRegistry::new();
    for (seed, registry) in per_seed {
        merged.merge(registry);
        row.windows_closed += seed.windows_closed;
        row.pairs_evaluated += seed.pairs_evaluated;
        row.steady_violations += seed.steady_violations;
        row.transient_violations += seed.transient_violations;
        row.inversions += seed.inversions;
        row.max_drift = row.max_drift.max(seed.max_drift);
        quiet_sum += seed.quiet_punits;
    }
    row.mean_quiet_punits = quiet_sum / per_seed.len() as f64;
    (row, merged)
}

/// One (scheduler, window) cell of the monitor study.
struct MonitorCell {
    kind: SchedulerKind,
    window_punits: u64,
}

/// The study's grid: both schedulers × the window ladder,
/// scheduler-major.
pub fn cells() -> Vec<Box<dyn Cell>> {
    let mut cells: Vec<Box<dyn Cell>> = Vec::new();
    for kind in SCHEDULERS {
        for window_punits in WINDOW_LADDER {
            cells.push(Box::new(MonitorCell {
                kind,
                window_punits,
            }));
        }
    }
    cells
}

impl Cell for MonitorCell {
    fn id(&self) -> String {
        format!(
            "monitor-{}-w{}",
            cell::kind_slug(self.kind),
            self.window_punits
        )
    }

    fn params(&self) -> Json {
        cell::params(
            "monitor",
            vec![
                ("scheduler", Json::Str(self.kind.name().into())),
                ("window_punits", Json::Int(self.window_punits as i64)),
            ],
        )
    }

    fn shard_count(&self, scale: Scale) -> usize {
        scale.seeds().len()
    }

    fn execute_shard(&self, scale: Scale, shard: usize) -> Partial {
        let seed = scale.seeds()[shard];
        let (s, registry) = cell_seed_metered(self.kind, self.window_punits, scale, seed);
        let partial = Json::obj(vec![
            ("windows_closed", Json::Int(s.windows_closed as i64)),
            ("pairs_evaluated", Json::Int(s.pairs_evaluated as i64)),
            ("steady_violations", Json::Int(s.steady_violations as i64)),
            (
                "transient_violations",
                Json::Int(s.transient_violations as i64),
            ),
            ("inversions", Json::Int(s.inversions as i64)),
            ("quiet_punits", Json::num(s.quiet_punits)),
            ("max_drift", Json::num(s.max_drift)),
        ]);
        (partial, Some(registry.to_json()))
    }

    fn merge(&self, _scale: Scale, shards: &[Partial]) -> Result<Merged, String> {
        let id = self.id();
        let per_seed: Vec<(MonitorSeed, MetricsRegistry)> = shards
            .iter()
            .map(|shard| {
                let registry = cell::shard_registry(&id, shard)?;
                let p = &shard.0;
                let int = |field: &str| -> Result<i64, String> {
                    p.get(field)
                        .and_then(Json::as_i64)
                        .ok_or_else(|| format!("{id}: shard lacks `{field}`"))
                };
                let num = |field: &str| -> Result<f64, String> {
                    match p.get(field) {
                        Some(Json::Null) => Ok(f64::NAN),
                        Some(v) => v.as_f64().ok_or_else(|| format!("{id}: bad `{field}`")),
                        None => Err(format!("{id}: shard lacks `{field}`")),
                    }
                };
                Ok((
                    MonitorSeed {
                        windows_closed: int("windows_closed")? as u64,
                        pairs_evaluated: int("pairs_evaluated")? as u64,
                        steady_violations: int("steady_violations")? as usize,
                        transient_violations: int("transient_violations")? as usize,
                        inversions: int("inversions")? as usize,
                        quiet_punits: num("quiet_punits")?,
                        max_drift: num("max_drift")?,
                    },
                    registry,
                ))
            })
            .collect::<Result<_, String>>()?;
        let (row, registry) = merge_seeds(self.kind, self.window_punits, &per_seed);
        let result = Json::obj(vec![
            ("scheduler", Json::Str(row.scheduler.name().into())),
            ("window_punits", Json::Int(row.window_punits as i64)),
            ("seeds", Json::Int(row.seeds as i64)),
            ("windows_closed", Json::Int(row.windows_closed as i64)),
            ("pairs_evaluated", Json::Int(row.pairs_evaluated as i64)),
            ("steady_violations", Json::Int(row.steady_violations as i64)),
            (
                "transient_violations",
                Json::Int(row.transient_violations as i64),
            ),
            ("inversions", Json::Int(row.inversions as i64)),
            ("violation_rate", Json::num(row.violation_rate())),
            ("mean_quiet_punits", Json::num(row.mean_quiet_punits)),
            ("max_drift", Json::num(row.max_drift)),
        ]);
        Ok((result, Some(registry)))
    }
}

/// The `monitor` block: violation tallies per scheduler and window.
pub fn table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "monitor");
    if cells.is_empty() {
        return None;
    }
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            let int = |key: &str| r.get(key).and_then(Json::as_i64).unwrap_or(0);
            let num = |key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            vec![
                cell::scheduler_name(r),
                format!("{}", int("window_punits")),
                format!("{}", int("pairs_evaluated")),
                format!("{}", int("steady_violations")),
                format!("{:.3}", num("violation_rate")),
                format!(
                    "{} ({} inv)",
                    int("transient_violations"),
                    int("inversions")
                ),
                format!("{:.0}", num("mean_quiet_punits")),
                format!("{:.2}", num("max_drift")),
            ]
        })
        .collect();
    Some(cell::markdown_table(
        &[
            "scheduler",
            "window (p)",
            "eval pairs",
            "steady viol",
            "viol rate",
            "transient viol",
            "quiet after (p)",
            "max drift",
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
    fn short_windows_flag_steady_state_noise() {
        let row = cell(SchedulerKind::Wtp, 50, TEST_SCALE);
        assert!(row.pairs_evaluated > 0);
        assert!(
            row.steady_violations > 0,
            "50-p windows should catch short-timescale wander: {row:?}"
        );
    }

    #[test]
    fn monitor_flags_the_transient_then_goes_quiet() {
        // At the reconvergence timescale (long windows) the swap produces
        // violations, then the monitor falls silent once the scheduler
        // tracks the new targets.
        let row = cell(SchedulerKind::Wtp, 4000, TEST_SCALE);
        assert!(
            row.transient_violations > 0,
            "the swap transient should violate: {row:?}"
        );
        let half = (TEST_SCALE.punits() / 2) as f64;
        assert!(
            row.mean_quiet_punits < 0.9 * half,
            "monitor never went quiet: {row:?}"
        );
    }

    #[test]
    fn long_windows_are_quieter_than_short_ones() {
        let short = cell(SchedulerKind::Wtp, 50, TEST_SCALE);
        let long = cell(SchedulerKind::Wtp, 4000, TEST_SCALE);
        assert!(
            long.violation_rate() < short.violation_rate(),
            "short {short:?} vs long {long:?}"
        );
    }

    #[test]
    fn metered_cell_merges_registries_across_seeds() {
        let (row, reg) = cell_metered(SchedulerKind::Wtp, 250, TEST_SCALE);
        assert_eq!(row.seeds, 2);
        // Both seeds' departures land in the one merged registry.
        let departures: u64 = (0..4).map(|c| reg.class_total(c).departures).sum();
        assert!(departures > 0, "merged registry is empty");
        assert!(reg.to_json().contains("propdiff-metrics-v1"));
    }
}
