//! Choosing the class differentiation parameters — the §7 network-design
//! question.
//!
//! "A major question from a network operator's point of view is how to
//! choose the class differentiation parameters" (§7). Given a recorded
//! trace of a link's traffic, these helpers answer the two practical forms
//! of that question for geometric DDP ladders (`δ_i ∝ r^{−i}`):
//!
//! * [`max_feasible_spacing`] — the widest spacing r the link can honor at
//!   all (the boundary of the Eq. 7 feasible region).
//! * [`spacing_for_top_class_target`] — the narrowest spacing that brings
//!   the top class's Eq. (6) delay under a target, if any feasible spacing
//!   does. Narrowest-first keeps the lower classes as well-off as the
//!   top-class SLO allows (the delays are zero-sum by the conservation
//!   law).

use crate::model::{measure, Ddp, ProportionalModel};

/// A recorded packet arrival: `(time_ticks, class, size_bytes)`.
pub type Arrival = (u64, u8, u32);

fn feasible(arrivals: &[Arrival], n: usize, rate: f64, spacing: f64) -> bool {
    let Ok(ddp) = Ddp::geometric(n, spacing) else {
        return false;
    };
    ProportionalModel::new(ddp)
        .check_feasibility(arrivals, rate)
        .feasible()
}

/// The widest geometric DDP spacing r that is Eq.-(7)-feasible for the
/// recorded traffic, found by bisection to relative precision `tol`
/// (e.g. 0.01). Returns `None` if even r = 1 (no differentiation) fails —
/// which cannot happen for a consistent trace — or the trace is empty.
///
/// # Panics
/// Panics if `n_classes < 2`, `rate ≤ 0`, or `tol ≤ 0`.
pub fn max_feasible_spacing(
    arrivals: &[Arrival],
    n_classes: usize,
    rate: f64,
    tol: f64,
) -> Option<f64> {
    assert!(n_classes >= 2, "need at least two classes");
    assert!(rate > 0.0 && tol > 0.0, "rate and tol must be positive");
    if arrivals.is_empty() || !feasible(arrivals, n_classes, rate, 1.0) {
        return None;
    }
    // Exponential search for an infeasible upper bound.
    let mut lo = 1.0f64;
    let mut hi = 2.0f64;
    let mut expansions = 0;
    while feasible(arrivals, n_classes, rate, hi) {
        lo = hi;
        hi *= 2.0;
        expansions += 1;
        if expansions > 40 {
            // Practically unbounded (e.g. one class carries no traffic).
            return Some(lo);
        }
    }
    // Bisection on the boundary.
    while (hi - lo) / lo > tol {
        let mid = 0.5 * (lo + hi);
        if feasible(arrivals, n_classes, rate, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// The narrowest geometric spacing whose Eq. (6) top-class delay is at most
/// `target_delay_ticks`, if such a spacing is feasible per Eq. (7).
///
/// Returns `Err(best_achievable)` when the target is unreachable: even the
/// widest feasible spacing leaves the top class above the target.
///
/// # Panics
/// Panics if `n_classes < 2`, `rate ≤ 0`, or the target is not positive.
pub fn spacing_for_top_class_target(
    arrivals: &[Arrival],
    n_classes: usize,
    rate: f64,
    target_delay_ticks: f64,
) -> Result<f64, f64> {
    assert!(n_classes >= 2, "need at least two classes");
    assert!(rate > 0.0, "rate must be positive");
    assert!(target_delay_ticks > 0.0, "target must be positive");
    let (lambda, agg) = measure(arrivals, n_classes, rate);
    let top_delay = |spacing: f64| -> f64 {
        let ddp = Ddp::geometric(n_classes, spacing).expect("spacing >= 1");
        let d = ProportionalModel::new(ddp).predicted_delays(&lambda, agg);
        d[n_classes - 1]
    };
    let max_spacing = max_feasible_spacing(arrivals, n_classes, rate, 1e-3).unwrap_or(1.0);
    if top_delay(max_spacing) > target_delay_ticks {
        return Err(top_delay(max_spacing));
    }
    // Top-class delay decreases monotonically with spacing: bisect for the
    // narrowest spacing meeting the target.
    let (mut lo, mut hi) = (1.0f64, max_spacing);
    if top_delay(lo) <= target_delay_ticks {
        return Ok(lo);
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if top_delay(mid) <= target_delay_ticks {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn trace(seed: u64, rho: f64, n: usize) -> Vec<Arrival> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0f64;
        let gap = 100.0 / rho * n as f64 / n as f64;
        (0..200_000)
            .map(|_| {
                t += -(gap) * (1.0 - rng.random::<f64>()).ln();
                let c = ((rng.random::<f64>() * n as f64) as u8).min(n as u8 - 1);
                (t.round() as u64, c, 100u32)
            })
            .collect()
    }

    #[test]
    fn max_spacing_is_on_the_feasibility_boundary() {
        let tr = trace(1, 0.9, 4);
        let r = max_feasible_spacing(&tr, 4, 1.0, 0.01).expect("some spacing feasible");
        assert!(r > 1.0, "boundary {r}");
        assert!(feasible(&tr, 4, 1.0, r));
        assert!(!feasible(&tr, 4, 1.0, r * 1.1), "r = {r} not maximal");
    }

    #[test]
    fn higher_load_admits_wider_spacing() {
        // At higher utilization the aggregate backlog is larger relative to
        // each class's FCFS-alone bound, so wider spacings stay feasible.
        let lo = max_feasible_spacing(&trace(2, 0.75, 4), 4, 1.0, 0.01).unwrap();
        let hi = max_feasible_spacing(&trace(2, 0.95, 4), 4, 1.0, 0.01).unwrap();
        assert!(hi > lo, "0.95-load max {hi} vs 0.75-load max {lo}");
    }

    #[test]
    fn top_class_target_is_met_by_narrowest_spacing() {
        let tr = trace(3, 0.9, 4);
        let (lambda, agg) = measure(&tr, 4, 1.0);
        // Ask for 60% of the undifferentiated delay for the top class.
        let target = agg * 0.6;
        let spacing = spacing_for_top_class_target(&tr, 4, 1.0, target).expect("reachable");
        let d = ProportionalModel::new(Ddp::geometric(4, spacing).unwrap())
            .predicted_delays(&lambda, agg);
        assert!(
            d[3] <= target * 1.01,
            "top delay {} vs target {target}",
            d[3]
        );
        // Narrowest: a slightly smaller spacing misses the target.
        if spacing > 1.001 {
            let d2 = ProportionalModel::new(Ddp::geometric(4, spacing * 0.98).unwrap())
                .predicted_delays(&lambda, agg);
            assert!(d2[3] > target, "spacing {spacing} not minimal");
        }
    }

    #[test]
    fn unreachable_target_reports_best_achievable() {
        let tr = trace(4, 0.85, 4);
        // Essentially zero delay for the top class is impossible.
        let err = spacing_for_top_class_target(&tr, 4, 1.0, 1e-6).unwrap_err();
        assert!(err > 1e-6, "best achievable {err}");
    }

    #[test]
    fn trivial_target_needs_no_differentiation() {
        let tr = trace(5, 0.9, 2);
        let agg = stats::fcfs_mean_wait(&tr, None, 1.0);
        // Target above the FCFS level: spacing 1 suffices.
        let spacing = spacing_for_top_class_target(&tr, 2, 1.0, agg * 2.0).unwrap();
        assert!((spacing - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_has_no_feasible_spacing() {
        assert!(max_feasible_spacing(&[], 4, 1.0, 0.01).is_none());
    }
}
