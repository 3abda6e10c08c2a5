//! The proportional delay differentiation model (§2–§3).

use std::fmt;

/// Errors from DDP validation.
#[derive(Debug, Clone, PartialEq)]
pub enum DdpError {
    /// Fewer than two classes.
    TooFewClasses(usize),
    /// A parameter was zero, negative, or non-finite.
    NonPositive(f64),
    /// DDPs must be nonincreasing: δ_1 ≥ δ_2 ≥ … ≥ δ_N > 0.
    NotNonincreasing {
        /// Index at which the ordering broke.
        index: usize,
    },
}

impl fmt::Display for DdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdpError::TooFewClasses(n) => write!(f, "need at least 2 classes, got {n}"),
            DdpError::NonPositive(x) => write!(f, "DDPs must be positive and finite, got {x}"),
            DdpError::NotNonincreasing { index } => {
                write!(f, "DDPs must be nonincreasing; violated at index {index}")
            }
        }
    }
}

impl std::error::Error for DdpError {}

/// Validated Delay Differentiation Parameters: δ_1 ≥ δ_2 ≥ … ≥ δ_N > 0,
/// with class N (highest index) the best class (smallest δ).
#[derive(Debug, Clone, PartialEq)]
pub struct Ddp(Vec<f64>);

impl Ddp {
    /// Validates and wraps a raw DDP vector.
    pub fn new(ddps: &[f64]) -> Result<Self, DdpError> {
        if ddps.len() < 2 {
            return Err(DdpError::TooFewClasses(ddps.len()));
        }
        for &d in ddps {
            if !(d > 0.0 && d.is_finite()) {
                return Err(DdpError::NonPositive(d));
            }
        }
        for (i, w) in ddps.windows(2).enumerate() {
            if w[1] > w[0] {
                return Err(DdpError::NotNonincreasing { index: i + 1 });
            }
        }
        Ok(Ddp(ddps.to_vec()))
    }

    /// Geometric DDPs `1, 1/r, 1/r², …`: each class is `r`× better than
    /// the one below. Matches [`sched::Sdp::geometric`] through Eq. (10).
    pub fn geometric(n: usize, ratio: f64) -> Result<Self, DdpError> {
        if ratio < 1.0 || !ratio.is_finite() {
            return Err(DdpError::NonPositive(ratio));
        }
        Ddp::new(&(0..n).map(|i| ratio.powi(-(i as i32))).collect::<Vec<_>>())
    }

    /// The DDPs implied by a set of SDPs in heavy load (Eq. 10):
    /// δ_i ∝ 1/s_i.
    pub fn from_sdp(sdp: &sched::Sdp) -> Self {
        Ddp(sdp.implied_ddps())
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.0.len()
    }

    /// The raw parameters.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// δ_i.
    pub fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    /// Target ratio `d̄_i / d̄_{i+1} = δ_i / δ_{i+1}` between successive
    /// classes.
    pub fn target_ratio(&self, i: usize) -> f64 {
        self.0[i] / self.0[i + 1]
    }
}

/// The proportional model evaluated against a load vector: Eq. (6) and the
/// §3 dynamics.
#[derive(Debug, Clone)]
pub struct ProportionalModel {
    ddp: Ddp,
}

impl ProportionalModel {
    /// Creates the model for the given DDPs.
    pub fn new(ddp: Ddp) -> Self {
        ProportionalModel { ddp }
    }

    /// The model's DDPs.
    pub fn ddp(&self) -> &Ddp {
        &self.ddp
    }

    /// Eq. (6): the class average delays that an ideal proportional
    /// scheduler would produce, given per-class arrival rates `lambda`
    /// (any consistent unit) and the FCFS aggregate average delay
    /// `agg_delay` at total load λ = Σλ_i:
    ///
    /// `d̄_i = δ_i · λ · d̄(λ) / Σ_j δ_j λ_j`
    ///
    /// # Panics
    /// Panics if `lambda.len()` differs from the number of classes, any
    /// rate is negative, or all rates are zero.
    pub fn predicted_delays(&self, lambda: &[f64], agg_delay: f64) -> Vec<f64> {
        assert_eq!(lambda.len(), self.ddp.num_classes(), "rate vector length");
        assert!(lambda.iter().all(|&l| l >= 0.0), "rates must be >= 0");
        let total: f64 = lambda.iter().sum();
        assert!(total > 0.0, "at least one class must have traffic");
        let denom: f64 = lambda
            .iter()
            .zip(self.ddp.values())
            .map(|(&l, &d)| l * d)
            .sum();
        self.ddp
            .values()
            .iter()
            .map(|&d| d * total * agg_delay / denom)
            .collect()
    }

    /// The conservation-law identity behind Eq. (6): the predicted delays
    /// redistribute exactly the FCFS aggregate backlog,
    /// `Σ λ_i d̄_i = λ d̄(λ)`.
    pub fn conservation_residual(&self, lambda: &[f64], agg_delay: f64) -> f64 {
        let d = self.predicted_delays(lambda, agg_delay);
        let lhs: f64 = lambda.iter().zip(&d).map(|(&l, &di)| l * di).sum();
        let rhs: f64 = lambda.iter().sum::<f64>() * agg_delay;
        lhs - rhs
    }

    /// Checks the Eq. (7) feasibility of this model's predicted delays for
    /// a recorded trace (see [`stats::check_feasibility`]).
    pub fn check_feasibility(
        &self,
        arrivals: &[(u64, u8, u32)],
        rate: f64,
    ) -> stats::FeasibilityReport {
        // Measure per-class packet rates and the aggregate FCFS delay from
        // the trace, then test the Eq. (6) targets.
        let (lambda, agg) = measure(arrivals, self.ddp.num_classes(), rate);
        let targets = self.predicted_delays(&lambda, agg);
        stats::check_feasibility(arrivals, rate, &targets)
    }
}

/// Measured per-class packet rates of a recorded trace (packets per tick
/// over its span) and its aggregate FCFS mean wait at `rate`.
pub(crate) fn measure(arrivals: &[(u64, u8, u32)], n: usize, rate: f64) -> (Vec<f64>, f64) {
    let span = match (arrivals.first(), arrivals.last()) {
        (Some(&(t0, _, _)), Some(&(t1, _, _))) if t1 > t0 => (t1 - t0) as f64,
        _ => 1.0,
    };
    let mut counts = vec![0u64; n];
    for &(_, c, _) in arrivals {
        counts[c as usize] += 1;
    }
    let lambda = counts.iter().map(|&c| c as f64 / span).collect();
    let agg = stats::fcfs_mean_wait(arrivals, None, rate);
    (lambda, agg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_r2() -> ProportionalModel {
        ProportionalModel::new(Ddp::geometric(4, 2.0).unwrap())
    }

    #[test]
    fn ddp_validation() {
        assert!(Ddp::new(&[1.0, 0.5, 0.25]).is_ok());
        assert_eq!(Ddp::new(&[1.0]), Err(DdpError::TooFewClasses(1)));
        assert_eq!(
            Ddp::new(&[0.5, 1.0]),
            Err(DdpError::NotNonincreasing { index: 1 })
        );
        assert_eq!(Ddp::new(&[1.0, -0.5]), Err(DdpError::NonPositive(-0.5)));
        assert!(Ddp::geometric(4, 0.9).is_err());
    }

    #[test]
    fn geometric_matches_inverse_sdp() {
        let ddp = Ddp::geometric(4, 2.0).unwrap();
        let from_sdp = Ddp::from_sdp(&sched::Sdp::geometric(4, 2.0).unwrap());
        for (a, b) in ddp.values().iter().zip(from_sdp.values()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(ddp.target_ratio(0), 2.0);
    }

    #[test]
    fn eq6_ratios_match_ddps() {
        let m = model_r2();
        let d = m.predicted_delays(&[0.4, 0.3, 0.2, 0.1], 100.0);
        for i in 0..3 {
            assert!((d[i] / d[i + 1] - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn eq6_satisfies_conservation_law() {
        let m = model_r2();
        assert!(m.conservation_residual(&[0.4, 0.3, 0.2, 0.1], 123.0).abs() < 1e-9);
        assert!(m.conservation_residual(&[0.1, 0.1, 0.1, 0.7], 50.0).abs() < 1e-9);
    }

    // The four §3 dynamics properties, checked on Eq. (6) directly. We use
    // a fixed aggregate-delay *function* d̄(λ) = 1/(1−λ) (M/M/1-like,
    // increasing in λ) so that load changes flow through both λ and d̄(λ).
    fn dbar(lambda: &[f64]) -> f64 {
        let l: f64 = lambda.iter().sum();
        assert!(l < 1.0);
        1.0 / (1.0 - l)
    }

    #[test]
    fn dynamics_1_delay_increases_with_any_class_rate() {
        let m = model_r2();
        let base = [0.2, 0.2, 0.2, 0.2];
        let d0 = m.predicted_delays(&base, dbar(&base));
        for j in 0..4 {
            let mut bumped = base;
            bumped[j] += 0.05;
            let d1 = m.predicted_delays(&bumped, dbar(&bumped));
            for i in 0..4 {
                assert!(
                    d1[i] >= d0[i] - 1e-12,
                    "bumping class {j} decreased class {i}: {} -> {}",
                    d0[i],
                    d1[i]
                );
            }
        }
    }

    #[test]
    fn dynamics_2_higher_class_load_increase_hurts_more() {
        let m = model_r2();
        let base = [0.2, 0.2, 0.2, 0.2];
        // Increase class 0 (low) vs class 3 (high) by the same amount and
        // compare the impact on class 1's delay.
        let mut low = base;
        low[0] += 0.05;
        let mut high = base;
        high[3] += 0.05;
        let d_low = m.predicted_delays(&low, dbar(&low));
        let d_high = m.predicted_delays(&high, dbar(&high));
        for i in 0..4 {
            assert!(
                d_high[i] >= d_low[i] - 1e-12,
                "class {i}: high-class bump {} < low-class bump {}",
                d_high[i],
                d_low[i]
            );
        }
    }

    #[test]
    fn dynamics_3_raising_a_ddp_raises_own_delay_lowers_others() {
        let lambda = [0.2, 0.2, 0.2, 0.2];
        let agg = dbar(&lambda);
        let before = ProportionalModel::new(Ddp::new(&[1.0, 0.5, 0.25, 0.125]).unwrap())
            .predicted_delays(&lambda, agg);
        // Raise δ_2 from 0.5 to 0.8 (still nonincreasing).
        let after = ProportionalModel::new(Ddp::new(&[1.0, 0.8, 0.25, 0.125]).unwrap())
            .predicted_delays(&lambda, agg);
        assert!(after[1] > before[1]);
        for i in [0usize, 2, 3] {
            assert!(after[i] < before[i], "class {i} did not decrease");
        }
    }

    #[test]
    fn dynamics_4_load_shift_to_higher_class_raises_all_delays() {
        let m = model_r2();
        let base = [0.25, 0.2, 0.2, 0.15];
        // Shift 0.05 of load from class 0 to class 3 (i < j): all delays
        // increase. Aggregate load unchanged => d̄(λ) unchanged.
        let mut shifted = base;
        shifted[0] -= 0.05;
        shifted[3] += 0.05;
        let agg = dbar(&base);
        let d0 = m.predicted_delays(&base, agg);
        let d1 = m.predicted_delays(&shifted, agg);
        for i in 0..4 {
            assert!(d1[i] >= d0[i] - 1e-12, "class {i} decreased");
        }
        // And the reverse shift (j > i moved down) lowers all delays.
        let mut down = base;
        down[3] -= 0.05;
        down[0] += 0.05;
        let d2 = m.predicted_delays(&down, agg);
        for i in 0..4 {
            assert!(d2[i] <= d0[i] + 1e-12, "class {i} increased");
        }
    }

    #[test]
    fn feasibility_wrapper_accepts_fcfs_consistent_targets() {
        // Equal-rate two-class Poisson-ish trace.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let mut t = 0.0;
        let arrivals: Vec<(u64, u8, u32)> = (0..150_000)
            .map(|_| {
                t += -120.0 * (1.0 - rng.random::<f64>()).ln();
                let c = if rng.random::<f64>() < 0.5 { 0 } else { 1 };
                (t.round() as u64, c, 100u32)
            })
            .collect();
        let m = ProportionalModel::new(Ddp::geometric(2, 2.0).unwrap());
        let report = m.check_feasibility(&arrivals, 1.0);
        assert!(report.feasible(), "{report}");
        assert!(report.conservation_gap() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "rate vector length")]
    fn predicted_delays_checks_rate_length() {
        model_r2().predicted_delays(&[1.0], 1.0);
    }
}
