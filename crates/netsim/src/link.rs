//! The shared per-link description.
//!
//! Every network configuration in this crate — the Study-B chain, the
//! arbitrary [`mesh`](crate::mesh), and the [`topology`](crate::topology)
//! generators — describes a link the same way: a capacity, a scheduler, a
//! propagation delay, and an optional cross-traffic model. [`LinkSpec`] is
//! that description, and [`LinkSpec::validate`] is the single place the
//! per-link invariants are checked, so the config builders cannot drift
//! apart.

use sched::SchedulerKind;

use crate::config::CrossModel;
use crate::TICKS_PER_SEC;

/// One unidirectional link: capacity, scheduler, propagation, and an
/// optional cross-traffic model loading it.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bps: f64,
    /// The scheduler at this link's queue.
    pub scheduler: SchedulerKind,
    /// Propagation delay in ns. Common to all classes and excluded from
    /// the queueing-delay metric, exactly as the paper measures.
    pub propagation_ns: u64,
    /// Single-hop background traffic loading this link, if any. A mesh
    /// materializes it into explicit one-class flows
    /// ([`MeshConfig::materialize_cross`](crate::mesh::MeshConfig::materialize_cross));
    /// a Study-B chain describes its own, per-packet-class sources with it.
    pub cross: Option<CrossTraffic>,
}

/// A background (cross) traffic model: C sources injecting single-hop
/// packets that consume `utilization` of the link's capacity, split across
/// classes by `class_fractions`.
///
/// `utilization` here is the share the cross traffic itself occupies —
/// unlike [`StudyBConfig::utilization`](crate::StudyBConfig), which is the
/// *total* target including pass-through user traffic. The Study-B config
/// derives its per-link [`CrossTraffic`] by subtracting the user share
/// first ([`StudyBConfig::link_spec`](crate::StudyBConfig::link_spec)).
#[derive(Debug, Clone, PartialEq)]
pub struct CrossTraffic {
    /// How the sources generate load (open-loop Pareto or ECN-adaptive).
    pub model: CrossModel,
    /// Fraction of the link's capacity the cross traffic consumes, in
    /// (0, 1).
    pub utilization: f64,
    /// Number of independent sources.
    pub sources: usize,
    /// Per-class share of the cross load (one entry per class, sums to 1).
    pub class_fractions: Vec<f64>,
    /// Cross-packet size in bytes.
    pub packet_bytes: u32,
}

impl CrossTraffic {
    /// The paper's §6 mix: 8 Pareto sources, 40/30/20/10 % across four
    /// classes, 500-byte packets, at the given cross utilization.
    pub fn paper(utilization: f64) -> CrossTraffic {
        CrossTraffic {
            model: CrossModel::Pareto,
            utilization,
            sources: 8,
            class_fractions: vec![0.4, 0.3, 0.2, 0.1],
            packet_bytes: 500,
        }
    }

    /// Validates the model against a class count.
    pub fn validate(&self, num_classes: usize) -> Result<(), String> {
        if !(self.utilization > 0.0 && self.utilization < 1.0) {
            return Err(format!(
                "cross utilization must be in (0,1), got {}",
                self.utilization
            ));
        }
        if self.sources == 0 {
            return Err("cross traffic needs at least one source".into());
        }
        let sum: f64 = self.class_fractions.iter().sum();
        if self.class_fractions.len() != num_classes || (sum - 1.0).abs() > 1e-6 {
            return Err("cross-class fractions must sum to 1, one per class".into());
        }
        if self
            .class_fractions
            .iter()
            .any(|&f| !(0.0..=1.0).contains(&f))
        {
            return Err("cross-class fractions must lie in [0,1]".into());
        }
        if self.packet_bytes == 0 {
            return Err("cross packets must be at least one byte".into());
        }
        Ok(())
    }
}

impl LinkSpec {
    /// A plain link: no propagation delay, no cross traffic.
    pub fn new(bps: f64, scheduler: SchedulerKind) -> LinkSpec {
        LinkSpec {
            bps,
            scheduler,
            propagation_ns: 0,
            cross: None,
        }
    }

    /// Sets the propagation delay (builder-style).
    pub fn with_propagation(mut self, ns: u64) -> LinkSpec {
        self.propagation_ns = ns;
        self
    }

    /// Attaches a cross-traffic model (builder-style).
    pub fn with_cross(mut self, cross: CrossTraffic) -> LinkSpec {
        self.cross = Some(cross);
        self
    }

    /// Link rate in bytes per tick (bytes per ns).
    pub fn bytes_per_tick(&self) -> f64 {
        self.bps / 8.0 / TICKS_PER_SEC as f64
    }

    /// Validates the link against a class count. The one checkpoint every
    /// config surface (chain, mesh, topology) funnels through.
    pub fn validate(&self, num_classes: usize) -> Result<(), String> {
        // `partial_cmp` so NaN capacities are rejected along with ≤ 0.
        if !(self.bps.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater)
            && self.bps.is_finite())
        {
            return Err(format!("link capacity must be positive, got {}", self.bps));
        }
        if let Some(cross) = &self.cross {
            cross.validate(num_classes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_link_validates() {
        let l = LinkSpec::new(25_000_000.0, SchedulerKind::Wtp);
        assert!(l.validate(4).is_ok());
        assert!((l.bytes_per_tick() - 0.003125).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_capacities() {
        for bps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let l = LinkSpec::new(bps, SchedulerKind::Wtp);
            assert!(l.validate(4).is_err(), "accepted bps={bps}");
        }
    }

    #[test]
    fn rejects_bad_cross_models() {
        let base = |cross| LinkSpec::new(1e6, SchedulerKind::Wtp).with_cross(cross);
        assert!(base(CrossTraffic::paper(0.9)).validate(4).is_ok());
        assert!(base(CrossTraffic::paper(0.0)).validate(4).is_err());
        assert!(base(CrossTraffic::paper(1.0)).validate(4).is_err());
        let mut c = CrossTraffic::paper(0.9);
        c.sources = 0;
        assert!(base(c).validate(4).is_err());
        let mut c = CrossTraffic::paper(0.9);
        c.class_fractions = vec![0.5, 0.5];
        assert!(base(c).validate(4).is_err(), "wrong class count");
        let mut c = CrossTraffic::paper(0.9);
        c.packet_bytes = 0;
        assert!(base(c).validate(4).is_err());
        // Fractions must cover exactly the class count.
        let c = CrossTraffic::paper(0.9);
        assert!(base(c).validate(2).is_err());
    }

    #[test]
    fn builder_style_knobs_compose() {
        let l = LinkSpec::new(1e9, SchedulerKind::Fcfs)
            .with_propagation(5_000)
            .with_cross(CrossTraffic::paper(0.5));
        assert_eq!(l.propagation_ns, 5_000);
        assert!(l.cross.is_some());
        assert!(l.validate(4).is_ok());
    }
}
