//! Scheduler Differentiation Parameters (SDPs).

use std::fmt;

/// Errors from SDP validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SdpError {
    /// Fewer than two classes make differentiation meaningless.
    TooFewClasses(usize),
    /// An SDP was zero, negative, or non-finite.
    NonPositive(f64),
    /// SDPs must be nondecreasing with class index (s_1 ≤ s_2 ≤ … ≤ s_N).
    NotNondecreasing {
        /// Index at which the ordering broke.
        index: usize,
    },
}

impl fmt::Display for SdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdpError::TooFewClasses(n) => write!(f, "need at least 2 classes, got {n}"),
            SdpError::NonPositive(s) => write!(f, "SDPs must be positive and finite, got {s}"),
            SdpError::NotNondecreasing { index } => {
                write!(f, "SDPs must be nondecreasing; violated at index {index}")
            }
        }
    }
}

impl std::error::Error for SdpError {}

/// A validated vector of Scheduler Differentiation Parameters.
///
/// Following the paper's convention, `s[0] ≤ s[1] ≤ … ≤ s[N−1]` with class
/// N−1 the highest class. In heavy load both WTP and BPR drive the delay
/// ratios to the *inverse* SDP ratios (Eq. 10): `d̄_i/d̄_j → s_j/s_i`.
/// # Example
///
/// ```
/// use sched::Sdp;
///
/// let sdp = Sdp::geometric(4, 2.0).unwrap();      // 1, 2, 4, 8
/// assert_eq!(sdp.values(), &[1.0, 2.0, 4.0, 8.0]);
/// assert_eq!(sdp.target_ratio(0), 2.0);           // d̄1/d̄2 target
/// assert!(Sdp::new(&[2.0, 1.0]).is_err());        // must be nondecreasing
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sdp(Vec<f64>);

impl Sdp {
    /// Validates and wraps a raw SDP vector.
    pub fn new(sdps: &[f64]) -> Result<Self, SdpError> {
        if sdps.len() < 2 {
            return Err(SdpError::TooFewClasses(sdps.len()));
        }
        for &s in sdps {
            if !(s > 0.0 && s.is_finite()) {
                return Err(SdpError::NonPositive(s));
            }
        }
        for (i, w) in sdps.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(SdpError::NotNondecreasing { index: i + 1 });
            }
        }
        Ok(Sdp(sdps.to_vec()))
    }

    /// Geometric SDPs `1, r, r², …` for `n` classes — the paper's Study A
    /// uses r = 2 (Figs. 1a/2a) and r = 4 (Figs. 1b/2b).
    pub fn geometric(n: usize, ratio: f64) -> Result<Self, SdpError> {
        if ratio < 1.0 || !ratio.is_finite() {
            return Err(SdpError::NonPositive(ratio));
        }
        Sdp::new(&(0..n).map(|i| ratio.powi(i as i32)).collect::<Vec<_>>())
    }

    /// The paper's Study-A default: s = 1, 2, 4, 8.
    pub fn paper_default() -> Self {
        Sdp::geometric(4, 2.0).expect("static parameters are valid")
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.0.len()
    }

    /// The raw parameter slice.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// The SDP of class `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    /// Target delay ratio `d̄_i / d̄_{i+1} = s_{i+1} / s_i` between
    /// successive classes under the proportional model (Eq. 10/13).
    pub fn target_ratio(&self, i: usize) -> f64 {
        self.0[i + 1] / self.0[i]
    }

    /// Every successive target ratio, [`target_ratio`](Self::target_ratio)
    /// of each class but the last.
    pub fn target_ratios(&self) -> Vec<f64> {
        self.0.windows(2).map(|w| w[1] / w[0]).collect()
    }

    /// The implied Delay Differentiation Parameters, normalized so that
    /// δ_1 = 1: δ_i = s_1/s_i (Eq. 10).
    pub fn implied_ddps(&self) -> Vec<f64> {
        self.0.iter().map(|&s| self.0[0] / s).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_1_2_4_8() {
        assert_eq!(Sdp::paper_default().values(), &[1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn geometric_ratio_4() {
        let s = Sdp::geometric(4, 4.0).unwrap();
        assert_eq!(s.values(), &[1.0, 4.0, 16.0, 64.0]);
        assert_eq!(s.target_ratio(0), 4.0);
        assert_eq!(s.target_ratio(2), 4.0);
    }

    #[test]
    fn implied_ddps_are_inverse_sdps() {
        let s = Sdp::paper_default();
        let d = s.implied_ddps();
        assert_eq!(d, vec![1.0, 0.5, 0.25, 0.125]);
        // DDPs are ordered δ1 > δ2 > … > δN as the paper requires.
        assert!(d.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn validation_catches_bad_inputs() {
        assert_eq!(Sdp::new(&[1.0]), Err(SdpError::TooFewClasses(1)));
        assert_eq!(Sdp::new(&[1.0, 0.0]), Err(SdpError::NonPositive(0.0)));
        assert!(Sdp::new(&[1.0, f64::INFINITY]).is_err());
        assert_eq!(
            Sdp::new(&[2.0, 1.0]),
            Err(SdpError::NotNondecreasing { index: 1 })
        );
        assert!(Sdp::geometric(4, 0.5).is_err());
    }

    #[test]
    fn equal_sdps_are_allowed() {
        // Equal SDPs degrade gracefully to "no differentiation".
        let s = Sdp::new(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(s.target_ratio(0), 1.0);
    }

    #[test]
    fn error_display() {
        assert!(Sdp::new(&[])
            .unwrap_err()
            .to_string()
            .contains("at least 2"));
    }
}
