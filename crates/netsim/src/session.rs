//! The unified multi-hop entry point.
//!
//! Mirrors `qsim::Session` for the network simulators: pick a workload
//! (the Study-B chain or an arbitrary [`mesh`](crate::mesh)), then chain
//! the optional axes before `run`:
//!
//! * [`probe`](Session::probe) attaches any [`telemetry::Probe`] (pass
//!   `&mut sink` to keep ownership for `finish()`);
//! * [`scenario`](Session::scenario) attaches a perturbation timeline
//!   ([`scenario::Scenario`]) — live SDP swaps, link-rate changes, link
//!   faults, class joins/leaves — applied at every hop.
//!
//! ```no_run
//! use netsim::{Session, StudyBConfig};
//!
//! let mut cfg = StudyBConfig::paper(4, 0.95, 10, 200.0);
//! cfg.experiments = 10;
//! let (records, links) = Session::study_b(&cfg).run();
//! assert_eq!(records.len(), 10);
//! assert_eq!(links.len(), 4);
//! ```

use std::borrow::Cow;

use scenario::Scenario;
use telemetry::{MetricsRegistry, NoopProbe, Probe};

use crate::analysis::ExperimentRecord;
use crate::config::StudyBConfig;
use crate::decompose::{DecomposeInput, DecomposedOutcome};
use crate::engine::{run_study_b_scenario_probed, LinkStats};
use crate::mesh::{run_mesh, run_mesh_scenario_probed, MeshConfig, MeshOutcome};
use crate::topology::TopologyConfig;

/// The Figure-6 chain workload (a [`StudyBConfig`]).
#[derive(Debug)]
pub struct StudyBWorkload<'a> {
    cfg: &'a StudyBConfig,
}

/// An arbitrary-topology workload (a [`MeshConfig`]).
#[derive(Debug)]
pub struct MeshWorkload<'a> {
    cfg: &'a MeshConfig,
}

/// A generated-fabric workload: a [`TopologyConfig`] lowered to its mesh
/// (routes resolved, cross traffic materialized).
#[derive(Debug)]
pub struct TopologyWorkload {
    cfg: MeshConfig,
}

/// A composable network simulation run: workload × probe × scenario. See
/// the crate docs for the axes.
#[derive(Debug)]
pub struct Session<W, P = NoopProbe> {
    workload: W,
    scenario: Scenario,
    probe: P,
}

impl<'a> Session<StudyBWorkload<'a>> {
    /// Runs the Study-B chain described by `cfg`.
    pub fn study_b(cfg: &'a StudyBConfig) -> Self {
        Session {
            workload: StudyBWorkload { cfg },
            scenario: Scenario::empty(),
            probe: NoopProbe,
        }
    }
}

impl<'a> Session<MeshWorkload<'a>> {
    /// Runs the mesh described by `cfg`.
    pub fn mesh(cfg: &'a MeshConfig) -> Self {
        Session {
            workload: MeshWorkload { cfg },
            scenario: Scenario::empty(),
            probe: NoopProbe,
        }
    }
}

impl Session<TopologyWorkload> {
    /// Lowers a topology-level scenario (fabric + ECMP-routed host flows)
    /// to its mesh and wraps it in a session. Fails on invalid flows or
    /// unroutable host pairs; see [`TopologyConfig::to_mesh`].
    pub fn topology(cfg: &TopologyConfig) -> Result<Self, String> {
        Ok(Session {
            workload: TopologyWorkload {
                cfg: cfg.to_mesh()?,
            },
            scenario: Scenario::empty(),
            probe: NoopProbe,
        })
    }
}

impl<W, P: Probe> Session<W, P> {
    /// Attaches a probe observing every hop (and scenario events). Pass
    /// `&mut sink` to keep ownership of sinks that need a `finish()` call.
    pub fn probe<Q: Probe>(self, probe: Q) -> Session<W, Q> {
        Session {
            workload: self.workload,
            scenario: self.scenario,
            probe,
        }
    }

    /// Attaches a perturbation timeline. An empty scenario (the default)
    /// leaves the run stationary.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }
}

impl<'a, P: Probe> Session<StudyBWorkload<'a>, P> {
    /// Runs the chain to completion: per-experiment end-to-end class
    /// waits plus per-link statistics.
    ///
    /// # Panics
    /// Panics if the configuration fails [`StudyBConfig::validate`], if
    /// the scenario references links or classes outside the chain, or if
    /// it contains a load surge (unsupported on the chain engine).
    pub fn run(mut self) -> (Vec<ExperimentRecord>, Vec<LinkStats>) {
        run_study_b_scenario_probed(self.workload.cfg, &self.scenario, &mut self.probe)
    }
}

impl<'a, P: Probe> Session<MeshWorkload<'a>, P> {
    /// Runs the mesh to completion: per-flow end-to-end waits plus
    /// per-link departure counts.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MeshConfig::validate`], if the
    /// scenario references links or classes outside the mesh, or if it
    /// contains a load surge (unsupported on the mesh engine).
    pub fn run(mut self) -> MeshOutcome {
        run_mesh_scenario_probed(self.workload.cfg, &self.scenario, &mut self.probe)
    }
}

impl<P: Probe> Session<TopologyWorkload, P> {
    /// The lowered mesh (resolved routes, materialized cross traffic).
    /// Useful for inspecting route choices or feeding the decomposition
    /// engine directly.
    pub fn mesh_config(&self) -> &MeshConfig {
        &self.workload.cfg
    }

    /// Runs the lowered mesh through the **exact** event loop — every
    /// link coupled, tractable for small fabrics. The session owns the
    /// lowered mesh and gives it up to the engine, which frees it before
    /// the run.
    pub fn run(mut self) -> MeshOutcome {
        let cfg = Cow::Owned(self.workload.cfg);
        run_mesh(cfg, &self.scenario, &mut self.probe)
    }

    /// Runs the **decomposed** approximation serially: independent
    /// per-link simulations composed in link order (see
    /// [`decompose`](crate::decompose)). The parallel driver is
    /// `experiments::mesh::run_decomposed`, which produces byte-identical
    /// results.
    ///
    /// # Panics
    /// Panics if a scenario is attached — the decomposition has no notion
    /// of mid-run perturbations.
    pub fn run_decomposed(self) -> DecomposedOutcome {
        assert!(
            self.scenario.is_empty(),
            "decomposition does not support scenarios"
        );
        DecomposeInput::new(&self.workload.cfg)
            .expect("lowered mesh is validated")
            .run()
    }
}

impl<'a> Session<StudyBWorkload<'a>> {
    /// Runs the chain with a [`MetricsRegistry`] attached — one
    /// [`telemetry::LinkMetrics`] instance per hop — and returns it next
    /// to the normal outputs.
    pub fn run_metered(self) -> (Vec<ExperimentRecord>, Vec<LinkStats>, MetricsRegistry) {
        let mut registry = MetricsRegistry::new();
        let (records, links) = self.probe(&mut registry).run();
        (records, links, registry)
    }
}

impl<'a> Session<MeshWorkload<'a>> {
    /// Runs the mesh with a [`MetricsRegistry`] attached — one
    /// [`telemetry::LinkMetrics`] instance per link — and returns it next
    /// to the outcome.
    pub fn run_metered(self) -> (MeshOutcome, MetricsRegistry) {
        let mut registry = MetricsRegistry::new();
        let outcome = self.probe(&mut registry).run();
        (outcome, registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metered_chain_reports_per_hop_channels() {
        let mut cfg = StudyBConfig::paper(3, 0.9, 10, 200.0);
        cfg.experiments = 2;
        let (records, links, reg) = Session::study_b(&cfg).run_metered();
        assert_eq!(records.len(), 2);
        assert_eq!(links.len(), 3);
        assert_eq!(reg.num_links(), 3, "one LinkMetrics instance per hop");
        // Per-class packet conservation across the whole chain, modulo
        // the packets still in flight at the horizon cutoff (tracked by
        // the network-wide depth gauge).
        for c in 0..4 {
            let t = reg.class_total(c);
            assert!(t.arrivals > 0, "class {c} silent");
            assert!(t.arrivals >= t.departures + t.drops);
            let depth = reg.class_gauges()[c].depth;
            assert!(depth >= 0, "class {c} gauge went negative");
            assert_eq!(t.enqueues, t.hop_departures + depth as u64);
        }
        // Mid-chain hops transmit without ending packet lifetimes.
        let links = reg.links();
        let hop1 = &links[1].classes;
        assert!(hop1.iter().any(|ch| ch.hop_departures > ch.departures));
    }
}
