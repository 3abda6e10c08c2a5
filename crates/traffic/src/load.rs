//! Translating (utilization, class shares) into per-class sources.

use crate::dist::{DistError, IatDist};
use crate::sizes::SizeDist;
use crate::source::ClassSource;

/// A plan for loading a link to a target utilization with a given class mix,
/// mirroring the setup of §5: "the utilization factor ρ is set to the ratio
/// of the average packet transmission time and the average interarrival of
/// the aggregate packet stream", with the class load distribution giving the
/// byte share of each class.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Link capacity in bytes per tick.
    pub link_rate: f64,
    /// Target aggregate utilization ρ ∈ (0, 1].
    pub utilization: f64,
    /// Per-class load fractions (must sum to 1).
    pub class_fractions: Vec<f64>,
    /// Packet-size distribution shared by all classes (as in the paper).
    pub sizes: SizeDist,
}

impl LoadPlan {
    /// Creates a plan after validating the parameters.
    pub fn new(
        link_rate: f64,
        utilization: f64,
        class_fractions: &[f64],
        sizes: SizeDist,
    ) -> Result<Self, DistError> {
        if !(link_rate > 0.0 && link_rate.is_finite()) {
            return Err(DistError::NonPositiveMean(link_rate));
        }
        if !(utilization > 0.0 && utilization.is_finite()) {
            return Err(DistError::NonPositiveMean(utilization));
        }
        if let Some(c) = class_fractions
            .iter()
            .position(|&f| !(f > 0.0 && f.is_finite()))
        {
            let share = class_fractions[c];
            return Err(DistError::BadClassShare {
                class: Some(c),
                share,
            });
        }
        let sum: f64 = class_fractions.iter().sum();
        if class_fractions.is_empty() || (sum - 1.0).abs() > 1e-6 {
            return Err(DistError::BadClassShare {
                class: None,
                share: sum,
            });
        }
        Ok(LoadPlan {
            link_rate,
            utilization,
            class_fractions: class_fractions.to_vec(),
            sizes,
        })
    }

    /// The paper's Study-A defaults: link rate 1 byte/tick, trimodal sizes,
    /// class load split 40/30/20/10 %.
    pub fn paper_study_a(utilization: f64) -> Result<Self, DistError> {
        LoadPlan::new(1.0, utilization, &[0.4, 0.3, 0.2, 0.1], SizeDist::paper())
    }

    /// Number of classes in the plan.
    pub fn num_classes(&self) -> usize {
        self.class_fractions.len()
    }

    /// Mean packet transmission time in ticks — the paper's "p-unit".
    pub fn p_unit_ticks(&self) -> f64 {
        self.sizes.mean_bytes() / self.link_rate
    }

    /// Mean interarrival gap of class `i`, in ticks.
    ///
    /// Class i carries `utilization · link_rate · fraction_i` bytes/tick, so
    /// its mean packet gap is `mean_size / that`.
    pub fn mean_gap(&self, i: usize) -> f64 {
        self.sizes.mean_bytes() / (self.utilization * self.link_rate * self.class_fractions[i])
    }

    /// Per-class packet arrival rate λ_i, in packets/tick.
    pub fn packet_rate(&self, i: usize) -> f64 {
        1.0 / self.mean_gap(i)
    }

    /// Builds one [`ClassSource`] per class with the given interarrival
    /// family rescaled to each class's mean gap.
    pub fn sources(&self, family: &IatDist) -> Result<Vec<ClassSource>, DistError> {
        (0..self.num_classes())
            .map(|i| {
                Ok(ClassSource::new(
                    i as u8,
                    family.with_mean(self.mean_gap(i))?,
                    self.sizes.clone(),
                ))
            })
            .collect()
    }

    /// Builds the paper's Pareto(1.9) sources.
    pub fn pareto_sources(&self) -> Result<Vec<ClassSource>, DistError> {
        // The template mean is irrelevant; with_mean rescales per class.
        self.sources(&IatDist::paper_pareto(1.0)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_aggregates_to_rho() {
        let plan = LoadPlan::paper_study_a(0.95).unwrap();
        let sources = plan.pareto_sources().unwrap();
        let total: f64 = sources.iter().map(|s| s.offered_load()).sum();
        assert!((total - 0.95).abs() < 1e-9, "total load {total}");
    }

    #[test]
    fn class_shares_match_fractions() {
        let plan = LoadPlan::paper_study_a(0.8).unwrap();
        let sources = plan.pareto_sources().unwrap();
        for (i, frac) in [0.4, 0.3, 0.2, 0.1].iter().enumerate() {
            let share = sources[i].offered_load() / 0.8;
            assert!((share - frac).abs() < 1e-9, "class {i} share {share}");
        }
    }

    #[test]
    fn p_unit_is_441_ticks_for_paper_setup() {
        let plan = LoadPlan::paper_study_a(0.9).unwrap();
        assert!((plan.p_unit_ticks() - 441.0).abs() < 1e-9);
    }

    #[test]
    fn packet_rate_is_inverse_gap() {
        let plan = LoadPlan::paper_study_a(0.5).unwrap();
        for i in 0..4 {
            assert!((plan.packet_rate(i) * plan.mean_gap(i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(LoadPlan::new(0.0, 0.9, &[1.0], SizeDist::paper()).is_err());
        assert!(LoadPlan::new(1.0, 0.0, &[1.0], SizeDist::paper()).is_err());
        assert!(LoadPlan::new(1.0, 0.9, &[0.5, 0.4], SizeDist::paper()).is_err());
        assert!(LoadPlan::new(1.0, 0.9, &[], SizeDist::paper()).is_err());
        assert!(LoadPlan::new(1.0, 0.9, &[1.5, -0.5], SizeDist::paper()).is_err());
    }

    fn share_error(fractions: &[f64]) -> (Option<usize>, f64, String) {
        match LoadPlan::new(1.0, 0.9, fractions, SizeDist::paper()) {
            Err(e @ DistError::BadClassShare { class, share }) => (class, share, e.to_string()),
            other => panic!("{fractions:?}: expected a class-share error, got {other:?}"),
        }
    }

    #[test]
    fn a_bad_class_share_is_named_with_the_rule() {
        // A negative share and a zero share were reported as uniform
        // bounds `[sum, 1]`; a NaN share was accepted.
        let (class, share, message) = share_error(&[0.5, -0.1, 0.3, 0.3]);
        assert_eq!((class, share), (Some(1), -0.1));
        assert_eq!(
            message,
            "class 1 (0-based) has share -0.1: every class share must be positive and \
             finite; shares sum to 1"
        );
        assert_eq!(share_error(&[0.4, 0.3, 0.2, 0.1, 0.0]).0, Some(4));
        let (class, share, _) = share_error(&[0.5, f64::NAN, 0.25, 0.25]);
        assert!(class == Some(1) && share.is_nan());
        assert_eq!(share_error(&[0.5, f64::INFINITY]).0, Some(1));
    }

    #[test]
    fn shares_that_miss_one_report_their_sum() {
        let (class, share, message) = share_error(&[0.5, 0.25]);
        assert_eq!((class, share), (None, 0.75));
        assert!(
            message.starts_with("the class shares sum to 0.75: "),
            "{message}"
        );
        let (class, share, _) = share_error(&[]);
        assert_eq!((class, share), (None, 0.0));
    }

    #[test]
    fn custom_family_is_rescaled() {
        let plan = LoadPlan::paper_study_a(0.95).unwrap();
        let sources = plan.sources(&IatDist::exponential(123.0).unwrap()).unwrap();
        let total: f64 = sources.iter().map(|s| s.offered_load()).sum();
        assert!((total - 0.95).abs() < 1e-9);
    }
}
