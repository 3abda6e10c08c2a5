//! The Fig. 1 / Fig. 2 harness: long-run average-delay ratios — and the
//! one way every Study-A harness measures a seed ([`Experiment::replay`]).

use sched::{SchedulerKind, Sdp};
use simcore::Time;
use stats::{P2Quantile, Summary};
use telemetry::{NoopProbe, Probe};
use traffic::{LoadPlan, SizeDist, Trace};

use crate::{Departure, Session};

/// Configuration of one Study-A experiment point.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Target aggregate utilization ρ.
    pub utilization: f64,
    /// Per-class load fractions (sum to 1); the paper's default is
    /// 40/30/20/10 %.
    pub class_fractions: Vec<f64>,
    /// Scheduler Differentiation Parameters.
    pub sdp: Sdp,
    /// Simulation horizon in ticks (the paper runs 10⁶ time units per
    /// seed; 1 p-unit = 441 ticks here).
    pub horizon_ticks: u64,
    /// Departures before this time are discarded (warm-up).
    pub warmup_ticks: u64,
    /// Seeds to average over (the paper uses ten).
    pub seeds: Vec<u64>,
}

impl Experiment {
    /// The paper's Study-A defaults at the given utilization, scaled by
    /// `p_units` mean-packet-transmission-times of simulated horizon.
    pub fn paper(utilization: f64, sdp: Sdp, p_units: u64, seeds: Vec<u64>) -> Self {
        let p = traffic::PAPER_MEAN_PACKET_BYTES as u64;
        Experiment {
            utilization,
            class_fractions: vec![0.4, 0.3, 0.2, 0.1],
            sdp,
            horizon_ticks: p_units * p,
            warmup_ticks: (p_units / 20) * p,
            seeds,
        }
    }

    /// Generates the arrival trace for one seed. Seeding is per-source
    /// ([`Trace::generate_per_source`]), so the trace is a pure function of
    /// the experiment and the seed.
    pub fn trace_for_seed(&self, seed: u64) -> Trace {
        let plan = LoadPlan::new(
            1.0,
            self.utilization,
            &self.class_fractions,
            SizeDist::paper(),
        )
        .expect("validated experiment parameters");
        let mut sources = plan.pareto_sources().expect("valid plan");
        Trace::generate_per_source(&mut sources, Time::from_ticks(self.horizon_ticks), seed)
    }

    /// Replays one seed's `trace` through a freshly built `kind` — the one
    /// way the Study-A harnesses ([`Experiment`],
    /// [`ShortTimescale`](crate::ShortTimescale),
    /// [`Microscope`](crate::Microscope)) measure a seed.
    ///
    /// The scheduler is [built](SchedulerKind::build) at unit link rate,
    /// and the loop is monomorphized per probe (with [`NoopProbe`] it is
    /// the unobserved loop). Departures that start before the warm-up are
    /// dropped; `on_departure` sees the rest, in departure order. The
    /// probe sees every packet.
    pub fn replay<P: Probe>(
        &self,
        kind: SchedulerKind,
        trace: &Trace,
        probe: &mut P,
        mut on_departure: impl FnMut(&Departure),
    ) {
        let warmup = Time::from_ticks(self.warmup_ticks);
        let mut scheduler = kind.build(&self.sdp, 1.0);
        Session::trace(trace, 1.0)
            .probe(probe)
            .run(scheduler.as_mut(), |d| {
                if d.start >= warmup {
                    on_departure(d);
                }
            });
    }

    /// Runs the experiment for `kind` across all seeds and aggregates:
    /// [`Experiment::run_many`] with one kind.
    pub fn run(&self, kind: SchedulerKind) -> ExperimentResult {
        self.run_many(&[kind]).remove(0)
    }

    /// Runs several schedulers on the *same* workloads (one per seed),
    /// returning results in the order of `kinds`: every seed through
    /// [`Experiment::run_seed_probed`], folded per kind with
    /// [`average_rows`] in seed order.
    pub fn run_many(&self, kinds: &[SchedulerKind]) -> Vec<ExperimentResult> {
        let per_seed: Vec<Vec<SeedResult>> = self
            .seeds
            .iter()
            .map(|&seed| self.run_seed_probed(kinds, seed, &mut NoopProbe))
            .collect();
        kinds
            .iter()
            .enumerate()
            .map(|(ki, &kind)| {
                let seeds: Vec<&SeedResult> = per_seed.iter().map(|s| &s[ki]).collect();
                ExperimentResult::aggregate(kind, &self.sdp, &seeds)
            })
            .collect()
    }

    /// Measures **one seed** under every scheduler in `kinds` — the shard
    /// unit of the multi-process experiment farm. The seed's trace is
    /// generated once and [replayed](Experiment::replay) through each
    /// scheduler, which is all [`Experiment::run_many`] does per seed, so
    /// running every seed through this entry point and folding the results
    /// with [`average_rows`] reproduces the aggregated run bit-for-bit.
    pub fn run_seed_probed<P: Probe>(
        &self,
        kinds: &[SchedulerKind],
        seed: u64,
        probe: &mut P,
    ) -> Vec<SeedResult> {
        let trace = self.trace_for_seed(seed);
        let n = self.sdp.num_classes();
        kinds
            .iter()
            .map(|&kind| {
                let mut per_class = vec![Summary::new(); n];
                let mut p95: Vec<P2Quantile> = (0..n).map(|_| P2Quantile::new(0.95)).collect();
                self.replay(kind, &trace, probe, |d| {
                    let c = d.packet.class as usize;
                    let w = d.wait().as_f64();
                    per_class[c].push(w);
                    p95[c].push(w);
                });
                SeedResult {
                    per_class,
                    p95: p95.iter().map(|q| q.estimate().unwrap_or(0.0)).collect(),
                }
            })
            .collect()
    }
}

/// Averages per-seed value rows in **seed order** with the exact float
/// arithmetic of the internal seed aggregation (`acc += x / k`, one fold
/// per seed, in order), so shard-merged results are bit-identical to the
/// single-process run.
///
/// Every row must have the same length; the result has that length
/// (empty input yields an empty vector).
///
/// ```
/// let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
/// let avg = qsim::average_rows(&rows);
/// assert_eq!(avg, vec![1.0 / 2.0 + 3.0 / 2.0, 2.0 / 2.0 + 4.0 / 2.0]);
/// ```
pub fn average_rows(rows: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    let k = rows.len() as f64;
    let mut acc = vec![0.0; first.len()];
    for row in rows {
        assert_eq!(row.len(), acc.len(), "ragged per-seed rows");
        for (a, v) in acc.iter_mut().zip(row) {
            *a += v / k;
        }
    }
    acc
}

/// Per-class delay summaries from a single seed.
#[derive(Debug, Clone)]
pub struct SeedResult {
    /// One summary of waiting delays (ticks) per class.
    pub per_class: Vec<Summary>,
    /// Streaming 95th-percentile estimate of each class's delay (ticks).
    pub p95: Vec<f64>,
}

impl SeedResult {
    /// Mean delay of each class in ticks.
    pub fn mean_delays(&self) -> Vec<f64> {
        self.per_class.iter().map(Summary::mean).collect()
    }

    /// Ratios `d̄_i / d̄_{i+1}` between successive classes.
    pub fn successive_ratios(&self) -> Vec<f64> {
        let d = self.mean_delays();
        d.windows(2).map(|w| w[0] / w[1]).collect()
    }
}

/// Seed-aggregated result of one (scheduler, ρ, load-split) point.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The scheduler measured.
    pub kind: SchedulerKind,
    /// Per-class mean delays in ticks, averaged over seeds.
    pub mean_delays: Vec<f64>,
    /// Successive-class delay ratios, averaged over seeds (each seed's
    /// ratio computed first, then averaged — matching the paper's
    /// per-run-then-average methodology).
    pub ratios: Vec<f64>,
    /// The per-pair target ratios s_{i+1}/s_i.
    pub target_ratios: Vec<f64>,
    /// Per-class delay standard deviation (ticks), averaged over seeds —
    /// the jitter a delay-sensitive application would feel.
    pub std_devs: Vec<f64>,
    /// Per-class 95th-percentile delay (ticks), averaged over seeds.
    pub p95s: Vec<f64>,
}

impl ExperimentResult {
    /// Folds one kind's per-seed results, each field with [`average_rows`]
    /// in seed order — the fold a sharded cell's merge applies to the same
    /// rows. No seeds, no rows.
    fn aggregate(kind: SchedulerKind, sdp: &Sdp, seeds: &[&SeedResult]) -> Self {
        let fold = |row: &dyn Fn(&SeedResult) -> Vec<f64>| {
            average_rows(&seeds.iter().map(|sr| row(sr)).collect::<Vec<_>>())
        };
        ExperimentResult {
            kind,
            mean_delays: fold(&SeedResult::mean_delays),
            ratios: fold(&SeedResult::successive_ratios),
            target_ratios: sdp.target_ratios(),
            std_devs: fold(&|sr| sr.per_class.iter().map(Summary::std_dev).collect()),
            p95s: fold(&|sr| sr.p95.clone()),
        }
    }

    /// Mean delays converted to p-units (mean packet transmission times).
    pub fn mean_delays_punits(&self) -> Vec<f64> {
        self.mean_delays
            .iter()
            .map(|d| d / traffic::PAPER_MEAN_PACKET_BYTES)
            .collect()
    }

    /// Mean absolute relative deviation of the measured ratios from their
    /// targets — the scalar used to compare schedulers.
    pub fn ratio_deviation(&self) -> f64 {
        self.ratios
            .iter()
            .zip(&self.target_ratios)
            .map(|(r, t)| (r - t).abs() / t)
            .sum::<f64>()
            / self.ratios.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(utilization: f64) -> Experiment {
        Experiment::paper(
            utilization,
            Sdp::paper_default(),
            20_000, // p-units — small but enough for a coarse signal
            vec![1, 2],
        )
    }

    #[test]
    fn wtp_converges_toward_target_at_high_load() {
        let e = small(0.95);
        let r = e.run(SchedulerKind::Wtp);
        for (ratio, target) in r.ratios.iter().zip(&r.target_ratios) {
            assert!(
                (ratio - target).abs() / target < 0.35,
                "ratio {ratio} vs target {target}"
            );
        }
    }

    #[test]
    fn wtp_undershoots_at_moderate_load() {
        // The paper: at ρ=0.70 the ratio is ~1.5 when it should be 2.
        let e = small(0.70);
        let r = e.run(SchedulerKind::Wtp);
        let avg_ratio = r.ratios.iter().sum::<f64>() / r.ratios.len() as f64;
        assert!(
            avg_ratio < 1.85 && avg_ratio > 1.1,
            "expected undershoot, got {avg_ratio}"
        );
    }

    #[test]
    fn fcfs_ratio_is_one() {
        let e = small(0.9);
        let r = e.run(SchedulerKind::Fcfs);
        for ratio in &r.ratios {
            assert!((ratio - 1.0).abs() < 0.25, "FCFS ratio {ratio}");
        }
    }

    #[test]
    fn run_many_shares_traces_across_schedulers() {
        let e = small(0.9);
        let results = e.run_many(&[SchedulerKind::Fcfs, SchedulerKind::Fcfs]);
        assert_eq!(results[0].mean_delays, results[1].mean_delays);
    }

    #[test]
    fn jitter_metrics_are_populated_and_ordered() {
        let e = small(0.95);
        let r = e.run(SchedulerKind::Wtp);
        for c in 0..4 {
            assert!(r.std_devs[c] > 0.0, "class {c} std dev missing");
            assert!(
                r.p95s[c] > r.mean_delays[c],
                "class {c}: p95 {} should exceed mean {}",
                r.p95s[c],
                r.mean_delays[c]
            );
        }
        // Higher classes have lower tail delays too.
        for w in r.p95s.windows(2) {
            assert!(w[0] > w[1], "p95 not class-ordered: {:?}", r.p95s);
        }
    }

    #[test]
    fn higher_class_has_lower_delay_under_wtp() {
        let e = small(0.9);
        let r = e.run(SchedulerKind::Wtp);
        for w in r.mean_delays.windows(2) {
            assert!(w[0] > w[1], "delays not ordered: {:?}", r.mean_delays);
        }
    }

    #[test]
    fn sharded_seed_runs_reproduce_aggregate_bitwise() {
        // The farm's merge law: run each seed separately (the shard unit),
        // fold per-seed ratio/delay rows with `average_rows` in seed
        // order, and the result must be bit-identical to the one-process
        // `run_many` aggregation.
        let e = small(0.9);
        let kinds = [SchedulerKind::Wtp, SchedulerKind::Bpr];
        let whole = e.run_many(&kinds);

        let per_seed: Vec<Vec<SeedResult>> = e
            .seeds
            .iter()
            .map(|&seed| e.run_seed_probed(&kinds, seed, &mut telemetry::NoopProbe))
            .collect();
        for (ki, r) in whole.iter().enumerate() {
            let ratios: Vec<Vec<f64>> = per_seed
                .iter()
                .map(|seeds| seeds[ki].successive_ratios())
                .collect();
            assert_eq!(average_rows(&ratios), r.ratios, "kind {ki} ratios drift");
            let delays: Vec<Vec<f64>> = per_seed
                .iter()
                .map(|seeds| seeds[ki].mean_delays())
                .collect();
            assert_eq!(
                average_rows(&delays),
                r.mean_delays,
                "kind {ki} delays drift"
            );
        }
    }

    #[test]
    fn average_rows_handles_edges() {
        assert!(average_rows(&[]).is_empty());
        assert_eq!(average_rows(&[vec![5.0, 7.0]]), vec![5.0, 7.0]);
    }

    #[test]
    fn deviation_metric_is_zero_for_exact_ratios() {
        let r = ExperimentResult {
            kind: SchedulerKind::Wtp,
            mean_delays: vec![8.0, 4.0, 2.0, 1.0],
            ratios: vec![2.0, 2.0, 2.0],
            target_ratios: vec![2.0, 2.0, 2.0],
            std_devs: vec![0.0; 4],
            p95s: vec![0.0; 4],
        };
        assert_eq!(r.ratio_deviation(), 0.0);
    }
}
