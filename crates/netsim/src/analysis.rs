//! Table-1 analysis: end-to-end delay percentiles, consistency, R_D.

use stats::Percentiles;

/// The end-to-end queueing waits of one user experiment, per class, in
/// ticks (ns).
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Experiment index (0-based).
    pub experiment: u32,
    /// `per_class_waits[c]` holds one wait per delivered packet of the
    /// class-c flow.
    pub per_class_waits: Vec<Vec<u64>>,
}

impl ExperimentRecord {
    /// The Study-B percentile ladder (10 %, …, 90 %, 99 %) of each class's
    /// flow, or `None` for classes with no delivered packets.
    pub fn ladders(&self) -> Vec<Option<[f64; 10]>> {
        self.per_class_waits
            .iter()
            .map(|w| Percentiles::new(w.iter().map(|&x| x as f64).collect()).study_b_ladder())
            .collect()
    }
}

/// Aggregated Study-B outcome — one Table-1 cell.
#[derive(Debug, Clone)]
pub struct StudyBResult {
    /// Number of user experiments analyzed.
    pub experiments: usize,
    /// Experiments in which some higher class saw a larger delay than a
    /// lower class in any percentile *by more than one packet transmission
    /// time per hop* (the paper reports zero). Differences below that
    /// granularity amount to a single packet's queue position and are not
    /// a differentiation failure.
    pub inconsistent_experiments: usize,
    /// Strict-inequality count at full ns resolution (no tolerance); the
    /// conservative upper bound.
    pub inconsistent_strict: usize,
    /// The Table-1 figure of merit: mean over successive class pairs, user
    /// experiments, and the ten percentiles of
    /// `lower_class_delay / higher_class_delay`.
    pub rd: f64,
    /// Ratios that had a zero higher-class delay and were skipped.
    pub skipped_ratios: usize,
    /// Per-class median end-to-end delay, in ticks, pooled over all
    /// experiments (for context in reports).
    pub class_median_ticks: Vec<f64>,
}

/// Analyzes a set of experiment records into a [`StudyBResult`].
///
/// Consistency follows §6: relative differentiation is *consistent* if a
/// higher class is "better, or at least no worse". Two counts are kept:
/// a strict one (any ns-level inversion) and the headline one that allows
/// differences up to `tolerance_ticks` (pass one packet transmission time
/// per hop: an inversion smaller than a single packet's slot is a tie at
/// the granularity the system can control).
pub fn analyze(
    records: &[ExperimentRecord],
    num_classes: usize,
    tolerance_ticks: f64,
) -> StudyBResult {
    let mut inconsistent = 0usize;
    let mut inconsistent_strict = 0usize;
    let mut ratio_sum = 0.0f64;
    let mut ratio_n = 0usize;
    let mut skipped = 0usize;
    let mut pooled: Vec<Vec<f64>> = vec![Vec::new(); num_classes];

    for rec in records {
        let ladders = rec.ladders();
        let mut bad = false;
        let mut bad_strict = false;
        for c in 0..num_classes.saturating_sub(1) {
            let (Some(lo), Some(hi)) = (&ladders[c], &ladders[c + 1]) else {
                continue;
            };
            for (dl, dh) in lo.iter().zip(hi.iter()) {
                // Higher class worse => inconsistent.
                if *dh > *dl {
                    bad_strict = true;
                }
                if *dh > *dl + tolerance_ticks {
                    bad = true;
                }
                if *dh > 0.0 {
                    ratio_sum += dl / dh;
                    ratio_n += 1;
                } else {
                    skipped += 1;
                }
            }
        }
        if bad {
            inconsistent += 1;
        }
        if bad_strict {
            inconsistent_strict += 1;
        }
        for (c, w) in rec.per_class_waits.iter().enumerate() {
            pooled[c].extend(w.iter().map(|&x| x as f64));
        }
    }

    let class_median_ticks = pooled
        .into_iter()
        .map(|v| Percentiles::new(v).quantile(0.5).unwrap_or(0.0))
        .collect();

    StudyBResult {
        experiments: records.len(),
        inconsistent_experiments: inconsistent,
        inconsistent_strict,
        rd: if ratio_n == 0 {
            0.0
        } else {
            ratio_sum / ratio_n as f64
        },
        skipped_ratios: skipped,
        class_median_ticks,
    }
}

/// One packet transmission time per hop, in ticks — the natural
/// consistency tolerance for [`analyze`] on a given configuration.
pub fn packet_time_tolerance(cfg: &crate::StudyBConfig) -> f64 {
    cfg.k_hops as f64 * cfg.packet_bytes as f64 / cfg.link_bytes_per_tick()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(exp: u32, per_class: Vec<Vec<u64>>) -> ExperimentRecord {
        ExperimentRecord {
            experiment: exp,
            per_class_waits: per_class,
        }
    }

    #[test]
    fn perfect_halving_gives_rd_two() {
        // Class c+1 delays are exactly half of class c at every rank.
        let base: Vec<u64> = (1..=20).map(|i| i * 1000).collect();
        let half: Vec<u64> = base.iter().map(|&x| x / 2).collect();
        let quarter: Vec<u64> = base.iter().map(|&x| x / 4).collect();
        let recs = vec![record(0, vec![base, half, quarter])];
        let r = analyze(&recs, 3, 0.0);
        assert_eq!(r.experiments, 1);
        assert_eq!(r.inconsistent_experiments, 0);
        assert!((r.rd - 2.0).abs() < 1e-9, "rd {}", r.rd);
        assert_eq!(r.skipped_ratios, 0);
    }

    #[test]
    fn inversion_is_flagged_inconsistent() {
        let lo: Vec<u64> = vec![100; 10];
        let hi: Vec<u64> = vec![500; 10]; // higher class much worse
        let r = analyze(&[record(0, vec![lo, hi])], 2, 0.0);
        assert_eq!(r.inconsistent_experiments, 1);
    }

    #[test]
    fn equal_delays_are_consistent_no_worse() {
        let w: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        let r = analyze(&[record(0, vec![w.clone(), w])], 2, 0.0);
        assert_eq!(r.inconsistent_experiments, 0);
        assert!((r.rd - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_are_skipped() {
        let lo: Vec<u64> = vec![100; 10];
        let hi: Vec<u64> = vec![0; 10];
        let r = analyze(&[record(0, vec![lo, hi])], 2, 0.0);
        assert_eq!(r.skipped_ratios, 10);
        assert_eq!(r.rd, 0.0);
    }

    #[test]
    fn medians_are_pooled_across_experiments() {
        let r = analyze(
            &[
                record(0, vec![vec![10, 20, 30], vec![1, 2, 3]]),
                record(1, vec![vec![40, 50, 60], vec![4, 5, 6]]),
            ],
            2,
            0.0,
        );
        assert!((r.class_median_ticks[0] - 35.0).abs() < 1e-9);
        assert!((r.class_median_ticks[1] - 3.5).abs() < 1e-9);
    }
}
