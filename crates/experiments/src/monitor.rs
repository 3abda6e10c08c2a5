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

use pdd::scenario::Scenario;
use pdd::sched::{SchedulerKind, Sdp};
use pdd::simcore::Time;
use pdd::telemetry::json::Json;
use pdd::telemetry::{MetricsRegistry, MonitorConfig, ViolationKind};
use pdd::traffic::PAPER_MEAN_PACKET_BYTES;

use crate::cell::{self, Cell, Seed, SeedCell};
use crate::dynamics::{perturbed_run, start_sdp, SCHEDULERS};
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

/// The tallies a seed's partial carries, summed over the seeds.
const TALLIES: [&str; 5] = [
    "windows_closed",
    "pairs_evaluated",
    "steady_violations",
    "transient_violations",
    "inversions",
];

impl SeedCell for MonitorCell {
    const METERED: bool = true;

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

    /// One SDP-swap run with the monitor attached: the [`TALLIES`], the
    /// quiet time (the last violating window's end minus the swap, in
    /// p-units; 0 when nothing violates after it) and the largest drift,
    /// plus the run's registry.
    fn measure(&self, scale: Scale, seed: u64) -> (Json, Option<MetricsRegistry>) {
        let p = PAPER_MEAN_PACKET_BYTES as u64;
        let mid = (scale.punits() / 2) * p;
        let sc = Scenario::builder()
            .set_sdp(Time::from_ticks(mid), swapped_sdp())
            .build()
            .expect("static timeline");
        // Start-SDP targets from tick 0, the swapped SDP's from the swap on.
        let mut cfg =
            MonitorConfig::new(self.window_punits * p, EPSILON, start_sdp().target_ratios())
                .retarget(mid, swapped_sdp().target_ratios());
        cfg.min_samples = MIN_SAMPLES;
        let (registry, monitor) = perturbed_run(self.kind, sc, scale, seed, |session, s| {
            session.run_monitored(cfg, s, |_| {})
        });
        let (mut steady, mut transient, mut inversions) = (0u64, 0u64, 0u64);
        let mut max_drift = 0.0f64;
        let mut last_post_end = mid;
        for v in monitor.violations() {
            let end = v.window_start_ticks + v.window_ticks;
            if end <= mid {
                steady += 1;
            } else {
                transient += 1;
                if v.kind == ViolationKind::Inversion {
                    inversions += 1;
                }
                last_post_end = last_post_end.max(end);
            }
            max_drift = max_drift.max(v.drift());
        }
        let tallies = [
            monitor.windows_closed(),
            monitor.pairs_evaluated(),
            steady,
            transient,
            inversions,
        ];
        let quiet_punits = (last_post_end - mid) as f64 / PAPER_MEAN_PACKET_BYTES;
        let mut partial: Vec<(&str, Json)> =
            TALLIES.into_iter().zip(tallies.map(Json::uint)).collect();
        partial.push(("quiet_punits", Json::num(quiet_punits)));
        partial.push(("max_drift", Json::num(max_drift)));
        (Json::obj(partial), Some(registry))
    }

    /// The tallies summed, the quiet times averaged (`sum / seeds`), the
    /// drift maximized — and the violation rate, violations per evaluated
    /// window-pair: the short-timescale noise floor of the paper's Fig. 2.
    fn fold(&self, _scale: Scale, seeds: &[Seed]) -> Result<Json, String> {
        let mut sums = [0u64; TALLIES.len()];
        let (mut quiet_sum, mut max_drift) = (0.0f64, 0.0f64);
        for seed in seeds {
            for (sum, key) in sums.iter_mut().zip(TALLIES) {
                *sum += seed.count(key)?;
            }
            max_drift = max_drift.max(seed.num("max_drift")?);
            quiet_sum += seed.num("quiet_punits")?;
        }
        let [_, pairs_evaluated, steady, transient, _] = sums;
        let violation_rate = if pairs_evaluated == 0 {
            0.0
        } else {
            (steady + transient) as f64 / pairs_evaluated as f64
        };
        let mut result = vec![
            ("scheduler", Json::Str(self.kind.name().into())),
            ("window_punits", Json::Int(self.window_punits as i64)),
            ("seeds", Json::Int(seeds.len() as i64)),
        ];
        result.extend(TALLIES.into_iter().zip(sums.map(Json::uint)));
        result.extend([
            ("violation_rate", Json::num(violation_rate)),
            (
                "mean_quiet_punits",
                Json::num(quiet_sum / seeds.len() as f64),
            ),
            ("max_drift", Json::num(max_drift)),
        ]);
        Ok(Json::obj(result))
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

    /// One WTP cell's merged result and registry at [`TEST_SCALE`].
    fn wtp(window_punits: u64) -> (Json, MetricsRegistry) {
        let cell = MonitorCell {
            kind: SchedulerKind::Wtp,
            window_punits,
        };
        let (result, registry) = (&cell as &dyn Cell).execute(TEST_SCALE);
        (result, registry.expect("metered"))
    }

    fn int(result: &Json, key: &str) -> i64 {
        result.get(key).and_then(Json::as_i64).expect(key)
    }

    fn num(result: &Json, key: &str) -> f64 {
        result.get(key).and_then(Json::as_f64).expect(key)
    }

    #[test]
    fn short_windows_flag_steady_state_noise() {
        let (r, _) = wtp(50);
        assert!(int(&r, "pairs_evaluated") > 0);
        assert!(
            int(&r, "steady_violations") > 0,
            "50-p windows should catch short-timescale wander: {}",
            r.serialize()
        );
    }

    #[test]
    fn monitor_flags_the_transient_then_goes_quiet() {
        // At the reconvergence timescale (long windows) the swap produces
        // violations, then the monitor falls silent once the scheduler
        // tracks the new targets.
        let (r, _) = wtp(4000);
        assert!(
            int(&r, "transient_violations") > 0,
            "the swap transient should violate: {}",
            r.serialize()
        );
        let half = (TEST_SCALE.punits() / 2) as f64;
        assert!(
            num(&r, "mean_quiet_punits") < 0.9 * half,
            "monitor never went quiet: {}",
            r.serialize()
        );
    }

    #[test]
    fn long_windows_are_quieter_than_short_ones() {
        let (short, _) = wtp(50);
        let (long, _) = wtp(4000);
        assert!(
            num(&long, "violation_rate") < num(&short, "violation_rate"),
            "short {} vs long {}",
            short.serialize(),
            long.serialize()
        );
    }

    #[test]
    fn metered_cell_merges_registries_across_seeds() {
        let (r, reg) = wtp(250);
        assert_eq!(int(&r, "seeds"), 2);
        // Both seeds' departures land in the one merged registry.
        let departures: u64 = (0..4).map(|c| reg.class_total(c).departures).sum();
        assert!(departures > 0, "merged registry is empty");
        assert!(reg.to_json().contains("propdiff-metrics-v1"));
    }

    /// A cached partial with a negative count is a merge error (a cache
    /// miss), not a tally wrapped to 2⁶⁴ − 1.
    #[test]
    fn a_negative_count_is_a_merge_error_not_a_wrapped_tally() {
        let scale = Scale::Custom {
            punits: 400,
            nseeds: 2,
        };
        let cell = &cells()[0];
        let (good, registry) = cell.execute_shard(scale, 0);
        let Json::Obj(mut fields) = good.clone() else {
            panic!("a monitor partial is an object");
        };
        fields[2].1 = Json::Int(-1);
        let bad = (Json::Obj(fields), registry.clone());
        let err = cell
            .merge_shards(scale, &[(good, registry), bad])
            .unwrap_err();
        assert!(
            err.contains("shard 1 `steady_violations` is not a count"),
            "{err}"
        );
    }
}
