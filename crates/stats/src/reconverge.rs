//! Reconvergence metric for dynamic scenarios.
//!
//! When a perturbation (a live SDP swap, a link flap) hits a running
//! scheduler, the proportional model's ratios d̄_i/d̄_{i+1} drift away
//! from their targets and then settle back as the backlog built under the
//! old regime drains. [`reconvergence_times`] quantifies *how fast*: it
//! windows the post-perturbation departures, computes the achieved
//! successive-class delay ratios per window, and reports how long each
//! ratio took to re-enter (and stay inside) a relative tolerance band
//! around its target.

/// Tuning for [`reconvergence_times`].
#[derive(Debug, Clone)]
pub struct ReconvergenceConfig {
    /// Width of one monitoring window, in ticks.
    pub window_ticks: u64,
    /// Relative tolerance: a window's ratio `r` matches its target `t`
    /// when `|r/t − 1| ≤ epsilon`.
    pub epsilon: f64,
    /// Number of consecutive in-band windows required before the ratio
    /// counts as settled (guards against transient crossings).
    pub settle_windows: usize,
}

/// Ticks each successive-class delay ratio `d̄_i/d̄_{i+1}` needed after
/// `perturb_at` to settle inside the `targets[i]` tolerance band.
///
/// `samples` are departure observations `(depart_tick, class, delay)` in
/// any order; only departures at or after `perturb_at` participate.
/// `targets` holds the post-perturbation target ratios, one per successive
/// class pair (`num_classes − 1` entries, e.g. from
/// `Sdp::target_ratio`). Returns one entry per pair: `Some(ticks)` —
/// measured from `perturb_at` to the *start* of the first window of the
/// settled run — or `None` if the ratio never settled within the sampled
/// horizon (including when a class went silent).
///
/// # Panics
/// Panics if `targets.len() != num_classes - 1`, if `num_classes < 2`, or
/// if `window_ticks` is zero.
pub fn reconvergence_times(
    samples: &[(u64, usize, f64)],
    num_classes: usize,
    perturb_at: u64,
    targets: &[f64],
    cfg: &ReconvergenceConfig,
) -> Vec<Option<u64>> {
    assert!(num_classes >= 2, "need at least two classes");
    assert_eq!(
        targets.len(),
        num_classes - 1,
        "one target per successive class pair"
    );
    assert!(cfg.window_ticks > 0, "window_ticks must be positive");
    let horizon = samples
        .iter()
        .filter(|&&(at, _, _)| at >= perturb_at)
        .map(|&(at, _, _)| at)
        .max();
    let Some(horizon) = horizon else {
        return vec![None; num_classes - 1];
    };
    let n_windows = ((horizon - perturb_at) / cfg.window_ticks + 1) as usize;
    // Per-window per-class (delay sum, count).
    let mut acc = vec![vec![(0.0f64, 0u64); num_classes]; n_windows];
    for &(at, class, delay) in samples {
        if at < perturb_at || class >= num_classes {
            continue;
        }
        let w = ((at - perturb_at) / cfg.window_ticks) as usize;
        acc[w][class].0 += delay;
        acc[w][class].1 += 1;
    }
    // Achieved ratio per window per pair; NaN marks windows where either
    // class was silent (they break a settling run).
    let ratio = |w: &[(f64, u64)], i: usize| -> f64 {
        let (hi, lo) = (&w[i], &w[i + 1]);
        if hi.1 == 0 || lo.1 == 0 || lo.0 <= 0.0 {
            f64::NAN
        } else {
            (hi.0 / hi.1 as f64) / (lo.0 / lo.1 as f64)
        }
    };
    (0..num_classes - 1)
        .map(|i| {
            let mut run_start: Option<usize> = None;
            let mut run_len = 0usize;
            for (w, acc_w) in acc.iter().enumerate() {
                let r = ratio(acc_w, i);
                let in_band = r.is_finite() && (r / targets[i] - 1.0).abs() <= cfg.epsilon;
                if in_band {
                    if run_start.is_none() {
                        run_start = Some(w);
                    }
                    run_len += 1;
                    if run_len >= cfg.settle_windows {
                        return Some(run_start.unwrap() as u64 * cfg.window_ticks);
                    }
                } else {
                    run_start = None;
                    run_len = 0;
                }
            }
            None
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ReconvergenceConfig {
        ReconvergenceConfig {
            window_ticks: 100,
            epsilon: 0.1,
            settle_windows: 2,
        }
    }

    /// One sample per class per window with the given per-window ratios
    /// against a fixed class-1 delay of 10.
    fn samples_from_ratios(ratios: &[f64]) -> Vec<(u64, usize, f64)> {
        let mut v = Vec::new();
        for (w, &r) in ratios.iter().enumerate() {
            let at = w as u64 * 100 + 50;
            v.push((at, 0, 10.0 * r));
            v.push((at, 1, 10.0));
        }
        v
    }

    #[test]
    fn immediately_in_band_settles_at_zero() {
        let s = samples_from_ratios(&[2.0, 2.0, 2.0]);
        let t = reconvergence_times(&s, 2, 0, &[2.0], &cfg());
        assert_eq!(t, vec![Some(0)]);
    }

    #[test]
    fn settling_time_is_the_start_of_the_stable_run() {
        // Windows 0–2 out of band, 3+ in band → settle at window 3.
        let s = samples_from_ratios(&[4.0, 3.5, 3.0, 2.05, 1.98, 2.0]);
        let t = reconvergence_times(&s, 2, 0, &[2.0], &cfg());
        assert_eq!(t, vec![Some(300)]);
    }

    #[test]
    fn transient_crossing_does_not_count() {
        // One in-band window between excursions must not settle
        // (settle_windows = 2).
        let s = samples_from_ratios(&[4.0, 2.0, 4.0, 4.0, 4.0, 4.0]);
        let t = reconvergence_times(&s, 2, 0, &[2.0], &cfg());
        assert_eq!(t, vec![None]);
    }

    #[test]
    fn silent_class_breaks_the_run() {
        let mut s = samples_from_ratios(&[2.0, 2.0, 2.0, 2.0]);
        // Remove class 1 from windows 0 and 1: ratios undefined there.
        s.retain(|&(at, c, _)| !(c == 1 && at < 200));
        let t = reconvergence_times(&s, 2, 0, &[2.0], &cfg());
        assert_eq!(t, vec![Some(200)]);
    }

    #[test]
    fn samples_before_the_perturbation_are_ignored() {
        let mut s = samples_from_ratios(&[2.0, 2.0, 2.0]);
        // A wildly off-target pre-perturbation sample changes nothing.
        s.push((40, 0, 1e9));
        s.push((40, 1, 1.0));
        let t = reconvergence_times(&s, 2, 50, &[2.0], &cfg());
        // Window indices rebase at perturb_at = 50.
        assert!(t[0].is_some());
    }

    #[test]
    fn no_samples_after_perturbation_is_none() {
        let s = samples_from_ratios(&[2.0]);
        let t = reconvergence_times(&s, 2, 1_000_000, &[2.0], &cfg());
        assert_eq!(t, vec![None]);
    }

    #[test]
    fn empty_series_is_all_none() {
        // No samples at all: the horizon is undefined and every pair
        // reports "never settled" rather than panicking or windowing.
        let t = reconvergence_times(&[], 4, 0, &[2.0, 2.0, 2.0], &cfg());
        assert_eq!(t, vec![None, None, None]);
    }

    #[test]
    fn never_settling_series_is_none() {
        // Constantly off-target (ratio 4.0 against target 2.0, ε = 0.1):
        // no window ever enters the band, so the run never starts.
        let s = samples_from_ratios(&[4.0; 12]);
        let t = reconvergence_times(&s, 2, 0, &[2.0], &cfg());
        assert_eq!(t, vec![None]);
    }

    #[test]
    fn settle_run_may_end_at_the_last_sampled_window() {
        // The in-band run reaches settle_windows exactly at the final
        // window: the settling time is still reported (measured from the
        // run's start), even though no later window confirms it.
        let s = samples_from_ratios(&[4.0, 4.0, 2.0, 2.0]);
        let t = reconvergence_times(&s, 2, 0, &[2.0], &cfg());
        assert_eq!(t, vec![Some(200)]);

        // One window shorter and the tail run (length 1 < settle_windows
        // = 2) is truncated by the horizon: not settled.
        let s = samples_from_ratios(&[4.0, 4.0, 4.0, 2.0]);
        let t = reconvergence_times(&s, 2, 0, &[2.0], &cfg());
        assert_eq!(t, vec![None]);
    }

    #[test]
    fn multi_class_ratios_settle_independently() {
        // Class 0/1 in band from the start; class 1/2 never.
        let mut v = Vec::new();
        for w in 0..4u64 {
            let at = w * 100 + 10;
            v.push((at, 0, 40.0));
            v.push((at, 1, 20.0));
            v.push((at, 2, 1.0));
        }
        let t = reconvergence_times(&v, 3, 0, &[2.0, 2.0], &cfg());
        assert_eq!(t[0], Some(0));
        assert_eq!(t[1], None);
    }
}
