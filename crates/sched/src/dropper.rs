//! Loss-rate differentiation (extension).
//!
//! The paper defers coupled delay+loss differentiation to future work (§7);
//! this module supplies its building block: a **Proportional Loss Rate**
//! dropper that keeps per-class loss fractions ratioed to loss
//! differentiation parameters σ_1 ≥ σ_2 ≥ … ≥ σ_N (higher classes lose
//! less), the loss-side mirror of Eq. (1). The shared finite buffer that
//! calls on it, and its overflow rule, is `qsim::LossMode`.

use std::fmt;

/// Error from PLR parameter validation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlrError(String);

impl fmt::Display for PlrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid PLR parameters: {}", self.0)
    }
}

impl std::error::Error for PlrError {}

/// The Proportional Loss Rate dropper.
///
/// Maintains per-class arrival and drop counters; when a drop is required it
/// victimizes the backlogged class whose *normalized loss fraction*
/// `(drops_i / arrivals_i) / σ_i` is smallest — the class furthest below its
/// proportional share — which drives the ratios toward
/// `loss_i / loss_j = σ_i / σ_j`.
/// # Example
///
/// ```
/// use sched::PlrDropper;
///
/// let mut d = PlrDropper::new(&[2.0, 1.0]).unwrap(); // class 0 loses 2x
/// for _ in 0..10 {
///     d.on_arrival(0);
///     d.on_arrival(1);
/// }
/// // First victim: the class furthest below its loss share (tie → lower).
/// assert_eq!(d.choose_victim(&[0, 1]), Some(0));
/// // Now class 0 is at 0.1/2 = 0.05 normalized vs class 1 at 0 → victim 1.
/// assert_eq!(d.choose_victim(&[0, 1]), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct PlrDropper {
    sigma: Vec<f64>,
    arrivals: Vec<u64>,
    drops: Vec<u64>,
}

impl PlrDropper {
    /// Creates a PLR dropper with loss differentiation parameters
    /// σ_1 ≥ σ_2 ≥ … ≥ σ_N > 0 (class N loses least).
    pub fn new(sigma: &[f64]) -> Result<Self, PlrError> {
        if sigma.len() < 2 {
            return Err(PlrError(format!("need ≥2 classes, got {}", sigma.len())));
        }
        if sigma.iter().any(|&s| !(s > 0.0 && s.is_finite())) {
            return Err(PlrError("σ must be positive and finite".into()));
        }
        if sigma.windows(2).any(|w| w[1] > w[0]) {
            return Err(PlrError("σ must be nonincreasing with class".into()));
        }
        Ok(PlrDropper {
            sigma: sigma.to_vec(),
            arrivals: vec![0; sigma.len()],
            drops: vec![0; sigma.len()],
        })
    }

    /// Records an arrival of `class` (call for every arrival, admitted or
    /// not).
    pub fn on_arrival(&mut self, class: usize) {
        self.arrivals[class] += 1;
    }

    /// Chooses the victim class among `candidates` (typically the currently
    /// backlogged classes plus the arriving packet's class) and records the
    /// drop. Returns `None` if `candidates` is empty.
    pub fn choose_victim(&mut self, candidates: &[usize]) -> Option<usize> {
        let victim = self.preview_victim(candidates)?;
        self.record_drop(victim);
        Some(victim)
    }

    /// Like [`Self::choose_victim`] but without recording the drop — for
    /// callers that must first verify the victim can actually be removed
    /// (e.g. the scheduler may not support push-out).
    pub fn preview_victim(&self, candidates: &[usize]) -> Option<usize> {
        candidates.iter().copied().min_by(|&a, &b| {
            self.normalized_loss(a)
                .partial_cmp(&self.normalized_loss(b))
                .expect("loss fractions are finite")
                // Tie: drop from the lower class.
                .then(a.cmp(&b))
        })
    }

    /// Records a drop of `class` (pairs with [`Self::preview_victim`]).
    pub fn record_drop(&mut self, class: usize) {
        self.drops[class] += 1;
    }

    /// Normalized loss fraction `(drops/arrivals)/σ` of `class`.
    pub fn normalized_loss(&self, class: usize) -> f64 {
        self.loss_fraction(class) / self.sigma[class]
    }

    /// Raw loss fraction of `class` (0 if it has no arrivals yet).
    pub fn loss_fraction(&self, class: usize) -> f64 {
        if self.arrivals[class] == 0 {
            0.0
        } else {
            self.drops[class] as f64 / self.arrivals[class] as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plr_validation() {
        assert!(PlrDropper::new(&[1.0]).is_err());
        assert!(PlrDropper::new(&[1.0, 2.0]).is_err()); // increasing
        assert!(PlrDropper::new(&[1.0, 0.0]).is_err());
        assert!(PlrDropper::new(&[2.0, 1.0]).is_ok());
    }

    #[test]
    fn victim_is_class_below_its_share() {
        let mut p = PlrDropper::new(&[2.0, 1.0]).unwrap();
        for _ in 0..100 {
            p.on_arrival(0);
            p.on_arrival(1);
        }
        // No drops yet: both normalized losses are 0; tie goes to the lower
        // class.
        assert_eq!(p.choose_victim(&[0, 1]), Some(0));
        // Class 0 now has loss 0.01/2 = 0.005 vs class 1 at 0 → victim 1.
        assert_eq!(p.choose_victim(&[0, 1]), Some(1));
    }

    #[test]
    fn long_run_loss_ratio_tracks_sigma() {
        let mut p = PlrDropper::new(&[3.0, 1.0]).unwrap();
        // Equal arrivals; drop 1 packet per 4 arrivals of each class.
        for round in 0..40_000u64 {
            p.on_arrival(0);
            p.on_arrival(1);
            if round % 4 == 0 {
                p.choose_victim(&[0, 1]);
            }
        }
        let r = p.loss_fraction(0) / p.loss_fraction(1);
        assert!((r - 3.0).abs() < 0.05, "loss ratio {r}");
    }

    #[test]
    fn victim_restricted_to_candidates() {
        let mut p = PlrDropper::new(&[2.0, 1.5, 1.0]).unwrap();
        for c in 0..3 {
            p.on_arrival(c);
        }
        // Only class 2 is backlogged: it must be the victim even though its
        // σ is smallest.
        assert_eq!(p.choose_victim(&[2]), Some(2));
        assert_eq!(p.choose_victim(&[]), None);
    }
}
