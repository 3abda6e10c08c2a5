//! Interarrival-time distributions.

use std::fmt;

use rand::{Rng, RngExt};

/// Draws a uniform variate in the open interval (0, 1).
///
/// `rand`'s `random::<f64>()` yields values in `[0, 1)`; inverse-transform
/// sampling of heavy-tailed distributions must avoid the 0 endpoint (it maps
/// to +∞), so we flip the interval.
#[inline]
pub fn u01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    1.0 - rng.random::<f64>()
}

/// Errors raised when constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// The requested mean was not strictly positive and finite.
    NonPositiveMean(f64),
    /// A Pareto shape parameter must exceed 1 for the mean to exist.
    ShapeTooSmall(f64),
    /// Uniform bounds were inverted or negative.
    BadBounds {
        /// Lower bound supplied.
        lo: f64,
        /// Upper bound supplied.
        hi: f64,
    },
    /// A load plan's class shares break the rule: every class share is
    /// positive and finite, and the shares sum to 1.
    BadClassShare {
        /// The first class (0-based) whose share is not positive and
        /// finite; `None` when each share is but their sum is not 1.
        class: Option<usize>,
        /// That class's share, or else the sum of the shares.
        share: f64,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::NonPositiveMean(m) => {
                write!(f, "mean must be positive and finite, got {m}")
            }
            DistError::ShapeTooSmall(a) => {
                write!(f, "Pareto shape must be > 1 for a finite mean, got {a}")
            }
            DistError::BadBounds { lo, hi } => {
                write!(
                    f,
                    "uniform bounds must satisfy 0 <= lo <= hi, got [{lo}, {hi}]"
                )
            }
            DistError::BadClassShare { class, share } => {
                match class {
                    Some(c) => write!(f, "class {c} (0-based) has share {share}")?,
                    None => write!(f, "the class shares sum to {share}")?,
                }
                f.write_str(": every class share must be positive and finite; shares sum to 1")
            }
        }
    }
}

impl std::error::Error for DistError {}

/// An interarrival-time distribution, in (fractional) ticks.
///
/// Samples are continuous; callers accumulate them and round only at the
/// arrival-time boundary, so no long-run rate bias is introduced.
/// # Example
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use traffic::IatDist;
///
/// let d = IatDist::paper_pareto(100.0).unwrap();  // α = 1.9, mean 100
/// assert!((d.mean() - 100.0).abs() < 1e-9);
/// let mut rng = StdRng::seed_from_u64(1);
/// let gap = d.sample(&mut rng);
/// assert!(gap >= 100.0 * 0.9 / 1.9); // never below the Pareto scale
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum IatDist {
    /// Classic Pareto: density ∝ x^(−α−1) for x ≥ x_m.
    ///
    /// For shape α ∈ (1, 2] the mean exists but the variance is infinite —
    /// the paper uses α = 1.9 precisely for that burstiness.
    Pareto {
        /// Shape parameter α.
        shape: f64,
        /// Scale (minimum value) x_m.
        scale: f64,
    },
    /// Pareto truncated at `cap`; samples above the cap are clamped.
    /// The constructor compensates the scale so the requested mean holds.
    BoundedPareto {
        /// Shape parameter α.
        shape: f64,
        /// Scale (minimum value) x_m.
        scale: f64,
        /// Upper clamp.
        cap: f64,
    },
    /// Exponential with the given mean (Poisson arrivals).
    Exponential {
        /// Mean interarrival.
        mean: f64,
    },
    /// Every gap is exactly `gap` (periodic arrivals).
    Deterministic {
        /// The constant gap.
        gap: f64,
    },
    /// Uniform on [lo, hi].
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl IatDist {
    /// Pareto distribution with the given shape and **mean**.
    ///
    /// The scale is derived as x_m = mean·(α−1)/α.
    pub fn pareto_with_mean(shape: f64, mean: f64) -> Result<Self, DistError> {
        if shape.is_nan() || shape <= 1.0 {
            return Err(DistError::ShapeTooSmall(shape));
        }
        check_mean(mean)?;
        Ok(IatDist::Pareto {
            shape,
            scale: mean * (shape - 1.0) / shape,
        })
    }

    /// The paper's Pareto(α = 1.9) with the given mean.
    pub fn paper_pareto(mean: f64) -> Result<Self, DistError> {
        Self::pareto_with_mean(crate::PAPER_PARETO_SHAPE, mean)
    }

    /// Exponential with the given mean.
    pub fn exponential(mean: f64) -> Result<Self, DistError> {
        check_mean(mean)?;
        Ok(IatDist::Exponential { mean })
    }

    /// Deterministic (periodic) with the given gap.
    pub fn deterministic(gap: f64) -> Result<Self, DistError> {
        check_mean(gap)?;
        Ok(IatDist::Deterministic { gap })
    }

    /// Uniform on [lo, hi].
    pub fn uniform(lo: f64, hi: f64) -> Result<Self, DistError> {
        if !(lo >= 0.0 && hi >= lo && hi.is_finite()) {
            return Err(DistError::BadBounds { lo, hi });
        }
        Ok(IatDist::Uniform { lo, hi })
    }

    /// Pareto clamped at `cap·mean` while preserving `mean` exactly.
    ///
    /// For a Pareto clamped at c, E[min(X,c)] = x_m·(α − (x_m/c)^(α−1))/(α−1);
    /// we solve for x_m numerically (the map x_m ↦ mean is monotone).
    pub fn bounded_pareto(shape: f64, mean: f64, cap_multiple: f64) -> Result<Self, DistError> {
        if shape.is_nan() || shape <= 1.0 {
            return Err(DistError::ShapeTooSmall(shape));
        }
        check_mean(mean)?;
        if cap_multiple.is_nan() || cap_multiple <= 1.0 {
            return Err(DistError::BadBounds {
                lo: 1.0,
                hi: cap_multiple,
            });
        }
        let cap = mean * cap_multiple;
        let clamped_mean = |xm: f64| xm * (shape - (xm / cap).powf(shape - 1.0)) / (shape - 1.0);
        // Bisection on x_m in (0, cap).
        let (mut lo, mut hi) = (f64::EPSILON, cap);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if clamped_mean(mid) < mean {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(IatDist::BoundedPareto {
            shape,
            scale: 0.5 * (lo + hi),
            cap,
        })
    }

    /// Draws one gap.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            IatDist::Pareto { shape, scale } => scale * u01(rng).powf(-1.0 / shape),
            IatDist::BoundedPareto { shape, scale, cap } => {
                (scale * u01(rng).powf(-1.0 / shape)).min(cap)
            }
            IatDist::Exponential { mean } => -mean * u01(rng).ln(),
            IatDist::Deterministic { gap } => gap,
            IatDist::Uniform { lo, hi } => lo + (hi - lo) * rng.random::<f64>(),
        }
    }

    /// Draws `gaps.len()` gaps: bit for bit the values that many
    /// [`sample`](Self::sample) calls return, from the same RNG words in
    /// the same order.
    ///
    /// The uniforms of the whole block are drawn first and transformed in
    /// a second loop, so successive `pow`/`ln` calls overlap instead of
    /// each waiting on the previous draw's result: about 13 ns a gap
    /// against 36 ns through `sample` (ARCHITECTURE.md, "Arrival
    /// generation").
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, gaps: &mut [f64]) {
        self.fill_with(rng, gaps, |_, _| {});
    }

    /// [`fill`](Self::fill) for a caller whose own draws interleave with
    /// the gaps': `between(i, rng)` runs right after gap `i`'s word is
    /// drawn (for variants that draw none, where it would have been).
    #[inline]
    pub fn fill_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        gaps: &mut [f64],
        between: impl FnMut(usize, &mut R),
    ) {
        match *self {
            IatDist::Pareto { shape, scale } => {
                draws(rng, gaps, u01, between);
                for g in gaps {
                    *g = scale * g.powf(-1.0 / shape);
                }
            }
            IatDist::BoundedPareto { shape, scale, cap } => {
                draws(rng, gaps, u01, between);
                for g in gaps {
                    *g = (scale * g.powf(-1.0 / shape)).min(cap);
                }
            }
            IatDist::Exponential { mean } => {
                draws(rng, gaps, u01, between);
                for g in gaps {
                    *g = -mean * g.ln();
                }
            }
            IatDist::Deterministic { gap } => draws(rng, gaps, |_| gap, between),
            IatDist::Uniform { lo, hi } => {
                draws(rng, gaps, |rng| rng.random::<f64>(), between);
                for g in gaps {
                    *g = lo + (hi - lo) * *g;
                }
            }
        }
    }

    /// The distribution's mean gap.
    pub fn mean(&self) -> f64 {
        match *self {
            IatDist::Pareto { shape, scale } => scale * shape / (shape - 1.0),
            IatDist::BoundedPareto { shape, scale, cap } => {
                scale * (shape - (scale / cap).powf(shape - 1.0)) / (shape - 1.0)
            }
            IatDist::Exponential { mean } => mean,
            IatDist::Deterministic { gap } => gap,
            IatDist::Uniform { lo, hi } => 0.5 * (lo + hi),
        }
    }

    /// Returns a copy rescaled to a new mean.
    pub fn with_mean(&self, mean: f64) -> Result<Self, DistError> {
        check_mean(mean)?;
        let k = mean / self.mean();
        Ok(match *self {
            IatDist::Pareto { shape, scale } => IatDist::Pareto {
                shape,
                scale: scale * k,
            },
            IatDist::BoundedPareto { shape, scale, cap } => IatDist::BoundedPareto {
                shape,
                scale: scale * k,
                cap: cap * k,
            },
            IatDist::Exponential { .. } => IatDist::Exponential { mean },
            IatDist::Deterministic { .. } => IatDist::Deterministic { gap: mean },
            IatDist::Uniform { lo, hi } => IatDist::Uniform {
                lo: lo * k,
                hi: hi * k,
            },
        })
    }
}

/// The word-drawing half of [`IatDist::fill_with`]: `out[i] = draw(rng)`,
/// then `between(i, rng)`, for each `i` in order.
#[inline]
fn draws<R: Rng + ?Sized>(
    rng: &mut R,
    out: &mut [f64],
    mut draw: impl FnMut(&mut R) -> f64,
    mut between: impl FnMut(usize, &mut R),
) {
    for (i, u) in out.iter_mut().enumerate() {
        *u = draw(rng);
        between(i, rng);
    }
}

fn check_mean(mean: f64) -> Result<(), DistError> {
    if mean > 0.0 && mean.is_finite() {
        Ok(())
    } else {
        Err(DistError::NonPositiveMean(mean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mean(d: &IatDist, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn pareto_mean_formula_matches_constructor() {
        let d = IatDist::pareto_with_mean(1.9, 100.0).unwrap();
        assert!((d.mean() - 100.0).abs() < 1e-9);
        if let IatDist::Pareto { shape, scale } = d {
            assert!((shape - 1.9).abs() < 1e-12);
            assert!((scale - 100.0 * 0.9 / 1.9).abs() < 1e-9);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn pareto_samples_exceed_scale() {
        let d = IatDist::pareto_with_mean(1.9, 50.0).unwrap();
        let scale = 50.0 * 0.9 / 1.9;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= scale - 1e-12);
        }
    }

    #[test]
    fn pareto_empirical_mean_converges_roughly() {
        // α=1.9 has infinite variance, so convergence is slow; use a loose
        // tolerance and a large sample.
        let d = IatDist::paper_pareto(100.0).unwrap();
        let m = sample_mean(&d, 2_000_000, 42);
        assert!((m - 100.0).abs() / 100.0 < 0.10, "mean {m}");
    }

    #[test]
    fn exponential_empirical_mean() {
        let d = IatDist::exponential(20.0).unwrap();
        let m = sample_mean(&d, 200_000, 1);
        assert!((m - 20.0).abs() / 20.0 < 0.02, "mean {m}");
    }

    #[test]
    fn deterministic_is_constant() {
        let d = IatDist::deterministic(13.5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 13.5);
        }
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let d = IatDist::uniform(10.0, 30.0).unwrap();
        assert_eq!(d.mean(), 20.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((10.0..=30.0).contains(&x));
        }
    }

    #[test]
    fn bounded_pareto_preserves_mean_and_cap() {
        let d = IatDist::bounded_pareto(1.9, 100.0, 50.0).unwrap();
        assert!((d.mean() - 100.0).abs() < 1e-6, "mean {}", d.mean());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100_000 {
            assert!(d.sample(&mut rng) <= 5000.0 + 1e-9);
        }
        // Empirical mean converges much faster once the tail is clamped.
        let m = sample_mean(&d, 500_000, 11);
        assert!((m - 100.0).abs() / 100.0 < 0.02, "mean {m}");
    }

    #[test]
    fn with_mean_rescales_every_variant() {
        for d in [
            IatDist::paper_pareto(10.0).unwrap(),
            IatDist::exponential(10.0).unwrap(),
            IatDist::deterministic(10.0).unwrap(),
            IatDist::uniform(5.0, 15.0).unwrap(),
            IatDist::bounded_pareto(1.9, 10.0, 100.0).unwrap(),
        ] {
            let r = d.with_mean(33.0).unwrap();
            assert!((r.mean() - 33.0).abs() < 1e-6, "{r:?}");
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(IatDist::pareto_with_mean(0.9, 10.0).is_err());
        assert!(IatDist::pareto_with_mean(1.9, 0.0).is_err());
        assert!(IatDist::exponential(-1.0).is_err());
        assert!(IatDist::uniform(5.0, 1.0).is_err());
        assert!(IatDist::bounded_pareto(1.9, 10.0, 0.5).is_err());
        assert!(IatDist::deterministic(f64::NAN).is_err());
    }

    #[test]
    fn u01_is_in_open_unit_interval() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100_000 {
            let u = u01(&mut rng);
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = IatDist::pareto_with_mean(0.5, 10.0).unwrap_err();
        assert!(e.to_string().contains("shape"));
    }
}
