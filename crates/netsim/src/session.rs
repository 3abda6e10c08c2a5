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
//! use telemetry::MetricsRegistry;
//!
//! let mut cfg = StudyBConfig::paper(4, 0.95, 10, 200.0);
//! cfg.experiments = 10;
//! let mut registry = MetricsRegistry::new();
//! let records = Session::study_b(&cfg).probe(&mut registry).run();
//! assert_eq!(records.len(), 10);
//! assert_eq!(registry.num_links(), 4);
//! ```
//!
//! A run returns what its flows experienced; every per-link number comes
//! from the probe the caller attaches.

use std::borrow::Cow;

use scenario::Scenario;
use telemetry::{NoopProbe, Probe};

use crate::analysis::ExperimentRecord;
use crate::config::StudyBConfig;
use crate::decompose::{DecomposeInput, DecomposedOutcome};
use crate::emission::CrossSources;
use crate::mesh::{run_mesh, MeshConfig, MeshOutcome};
use crate::topology::TopologyConfig;

/// The Figure-6 chain workload (a [`StudyBConfig`]).
#[derive(Debug)]
pub struct StudyBWorkload<'a> {
    cfg: &'a StudyBConfig,
}

/// An arbitrary-topology workload: a [`MeshConfig`] the session borrows
/// ([`Session::mesh`]), or the mesh a [`TopologyConfig`] lowered to, which
/// it owns ([`Session::topology`]).
#[derive(Debug)]
pub struct MeshWorkload<'a> {
    cfg: Cow<'a, MeshConfig>,
}

/// A composable network simulation run: workload × probe × scenario. See
/// the crate docs for the axes.
#[derive(Debug)]
pub struct Session<W, P = NoopProbe> {
    workload: W,
    scenario: Scenario,
    probe: P,
}

impl<W> Session<W> {
    fn new(workload: W) -> Self {
        Session {
            workload,
            scenario: Scenario::empty(),
            probe: NoopProbe,
        }
    }
}

impl<'a> Session<StudyBWorkload<'a>> {
    /// Runs the Study-B chain described by `cfg`.
    pub fn study_b(cfg: &'a StudyBConfig) -> Self {
        Session::new(StudyBWorkload { cfg })
    }
}

impl<'a> Session<MeshWorkload<'a>> {
    /// Runs the mesh described by `cfg`.
    pub fn mesh(cfg: &'a MeshConfig) -> Self {
        Session::new(MeshWorkload {
            cfg: Cow::Borrowed(cfg),
        })
    }

    /// Lowers a topology-level scenario (fabric + ECMP-routed host flows)
    /// to its mesh and wraps it in a session. Fails on invalid flows or
    /// unroutable host pairs; see [`TopologyConfig::to_mesh`].
    pub fn topology(cfg: &TopologyConfig) -> Result<Self, String> {
        Ok(Session::new(MeshWorkload {
            cfg: Cow::Owned(cfg.to_mesh()?),
        }))
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
    /// Runs the chain to completion — lowered onto the mesh engine
    /// ([`StudyBConfig`]'s links, user flows and cross sources), its flows'
    /// waits folded back per experiment: the per-experiment end-to-end
    /// class waits. A user packet's probe events carry one span id across
    /// every hop, closed (`eol`) exactly once at the exit hop; cross
    /// traffic gets single-hop spans with the top bit set.
    ///
    /// # Panics
    /// Panics if the configuration fails [`StudyBConfig::validate`], if
    /// the scenario references links or classes outside the chain, or if
    /// it contains a load surge (the cross traffic is rate-derived from
    /// the utilization target, not scalable per class).
    pub fn run(mut self) -> Vec<ExperimentRecord> {
        let cfg = self.workload.cfg;
        let (mesh, cross) = cfg.lower().expect("invalid Study-B configuration");
        let outcome = run_mesh(Cow::Owned(mesh), cross, &self.scenario, &mut self.probe);
        let classes = cfg.num_classes();
        for (flow, waits) in outcome.per_flow_waits.iter().enumerate() {
            // Faults may drop or strand packets; a stationary run is lossless.
            assert!(
                !self.scenario.is_empty() || waits.len() == cfg.flow_len as usize,
                "experiment {} class {} delivered {} of {} packets",
                flow / classes,
                flow % classes,
                waits.len(),
                cfg.flow_len
            );
        }
        let mut flows = outcome.per_flow_waits.into_iter();
        (0..cfg.experiments)
            .map(|experiment| ExperimentRecord {
                experiment,
                per_class_waits: flows.by_ref().take(classes).collect(),
            })
            .collect()
    }
}

impl<P: Probe> Session<MeshWorkload<'_>, P> {
    /// Runs the mesh through the **exact** event loop — every link
    /// coupled, tractable for small fabrics: per-flow end-to-end waits plus
    /// per-link departure counts. An enabled probe also hears a heartbeat
    /// every 65 536 events: virtual time, events handled, events pending.
    /// A lowered topology's mesh is given up to the engine, which frees it
    /// before the run.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MeshConfig::validate`], if the
    /// scenario references links or classes outside the mesh, or if it
    /// contains a load surge (mesh flows carry explicit emission models).
    pub fn run(mut self) -> MeshOutcome {
        let cross = CrossSources::default();
        run_mesh(self.workload.cfg, cross, &self.scenario, &mut self.probe)
    }

    /// Runs the **decomposed** approximation serially: independent
    /// per-link simulations composed in link order (see
    /// [`decompose`](crate::decompose)). Each link's report depends on
    /// nothing but the mesh and the link, so the `mesh` suite's process
    /// shards (`experiments::mesh::cell_shard`) compute the same reports.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MeshConfig::validate`], or if a
    /// scenario is attached — the decomposition has no notion of mid-run
    /// perturbations.
    pub fn run_decomposed(self) -> DecomposedOutcome {
        assert!(
            self.scenario.is_empty(),
            "decomposition does not support scenarios"
        );
        DecomposeInput::new(&self.workload.cfg)
            .expect("invalid mesh configuration")
            .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrossModel;
    use crate::mesh::tests::{assert_recorded_once, HopTally};
    use crate::mesh::CROSS_SPAN_BIT;
    use crate::TICKS_PER_SEC;
    use simcore::Time;
    use telemetry::{MetricsRegistry, PacketId, Tee};

    /// Runs the chain `cfg` under `scenario` with `probe` and a
    /// [`HopTally`] attached.
    fn run_tallied<Q: Probe>(
        cfg: &StudyBConfig,
        scenario: Scenario,
        probe: Q,
    ) -> (Vec<ExperimentRecord>, HopTally) {
        let mut tally = HopTally::new(cfg.k_hops, cfg.num_classes());
        let records = Session::study_b(cfg)
            .scenario(scenario)
            .probe(Tee(probe, &mut tally))
            .run();
        (records, tally)
    }

    /// [`run_tallied`] with nothing else attached, on a stationary chain.
    fn tallied(cfg: &StudyBConfig) -> (Vec<ExperimentRecord>, HopTally) {
        run_tallied(cfg, Scenario::empty(), NoopProbe)
    }

    #[test]
    fn metered_chain_reports_per_hop_channels() {
        let mut cfg = StudyBConfig::paper(3, 0.9, 10, 200.0);
        cfg.experiments = 2;
        let mut reg = MetricsRegistry::new();
        let records = Session::study_b(&cfg).probe(&mut reg).run();
        assert_eq!(records.len(), 2);
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
        // Every hop of the lowered chain, cross traffic included, is
        // recorded once: the registry's per-(link, class) counts and waits
        // are what the hops report, and add up to the engine's departures.
        let (mesh, cross) = cfg.lower().unwrap();
        let once = assert_recorded_once(Cow::Owned(mesh), cross);
        assert_eq!(
            once.to_json(),
            reg.to_json(),
            "the same run, recorded alike"
        );
    }

    fn tiny(k: usize, rho: f64) -> StudyBConfig {
        let mut c = StudyBConfig::paper(k, rho, 10, 200.0);
        c.experiments = 5;
        c.warmup_secs = 2.0;
        c.seed = 42;
        c
    }

    #[test]
    fn all_user_packets_are_delivered() {
        let cfg = tiny(2, 0.85);
        let recs = crate::Session::study_b(&cfg).run();
        assert_eq!(recs.len(), 5);
        for r in &recs {
            assert_eq!(r.per_class_waits.len(), 4);
            for waits in &r.per_class_waits {
                assert_eq!(waits.len(), 10);
            }
        }
    }

    #[test]
    fn higher_classes_see_lower_mean_e2e_delay() {
        let cfg = tiny(3, 0.9);
        let recs = crate::Session::study_b(&cfg).run();
        let mut mean = [0.0f64; 4];
        let mut n = 0.0;
        for r in &recs {
            for (c, m) in mean.iter_mut().enumerate() {
                *m += r.per_class_waits[c].iter().sum::<u64>() as f64
                    / r.per_class_waits[c].len() as f64;
            }
            n += 1.0;
        }
        mean.iter_mut().for_each(|m| *m /= n);
        for c in 0..3 {
            assert!(
                mean[c] > mean[c + 1],
                "class {c} mean {} <= class {} mean {}",
                mean[c],
                c + 1,
                mean[c + 1]
            );
        }
    }

    /// Collects departure events per span for span-linking assertions.
    #[derive(Default)]
    struct SpanLog {
        /// span → (hops seen, eol count, last finish ticks)
        departs: std::collections::HashMap<u64, (Vec<u16>, u32, u64)>,
        decisions: u64,
        heartbeats: u64,
    }

    impl Probe for SpanLog {
        fn on_decision(
            &mut self,
            _at: Time,
            _scheduler: &'static str,
            winner: PacketId,
            values: &[(usize, f64)],
        ) {
            // The audit record must cover the winning class.
            assert!(
                values.iter().any(|&(c, _)| c == winner.class as usize),
                "decision record misses the winner"
            );
            self.decisions += 1;
        }
        fn on_depart(&mut self, id: PacketId, _a: Time, start: Time, finish: Time, eol: bool) {
            assert!(start <= finish);
            let e = self.departs.entry(id.span).or_default();
            assert!(
                finish.ticks() >= e.2,
                "span {} went backwards across hops",
                id.span
            );
            e.0.push(id.hop);
            e.1 += u32::from(eol);
            e.2 = finish.ticks();
        }
        fn on_heartbeat(&mut self, _at: Time, _events: u64, _depth: usize) {
            self.heartbeats += 1;
        }
    }

    #[test]
    fn probed_run_links_user_spans_across_hops() {
        let cfg = tiny(3, 0.85);
        let mut log = SpanLog::default();
        let recs = Session::study_b(&cfg).probe(&mut log).run();
        assert_eq!(recs.len(), 5);
        let n_user = 5 * 4 * 10; // experiments × classes × flow_len
        let user: Vec<_> = log
            .departs
            .iter()
            .filter(|(span, _)| **span & CROSS_SPAN_BIT == 0)
            .collect();
        assert_eq!(user.len(), n_user);
        for (span, (hops, eols, _)) in user {
            // Full-path flows cross every hop in order, closing once.
            assert_eq!(hops, &vec![0, 1, 2], "span {span} hop sequence {hops:?}");
            assert_eq!(*eols, 1, "span {span} closed {eols} times");
        }
        // Cross traffic: single hop, closed immediately.
        for (span, (hops, eols, _)) in &log.departs {
            if span & CROSS_SPAN_BIT != 0 {
                assert_eq!(hops.len(), 1);
                assert_eq!(*eols, 1);
            }
        }
        assert!(log.decisions > 0);
        assert!(log.heartbeats > 0, "long run must emit heartbeats");
    }

    #[test]
    fn probed_run_equals_unprobed_run() {
        let cfg = tiny(2, 0.9);
        let plain = crate::Session::study_b(&cfg).run();
        let mut registry = telemetry::MetricsRegistry::with_shape(1, 4);
        let probed = Session::study_b(&cfg).probe(&mut registry).run();
        for (x, y) in plain.iter().zip(&probed) {
            assert_eq!(x.per_class_waits, y.per_class_waits);
        }
        // Conservation across the whole network: everything enqueued at any
        // hop eventually departed that hop (lossless links, drained run).
        for c in (0..4).map(|c| registry.class_total(c)) {
            assert_eq!(c.arrivals, c.enqueues, "lossless links admit everything");
            assert_eq!(c.depth, 0, "packets left in flight");
            assert_eq!(c.drops, 0);
            assert!(c.departures > 0);
        }
        assert!(registry.heap_high_water() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = tiny(2, 0.85);
        let a = crate::Session::study_b(&cfg).run();
        let b = crate::Session::study_b(&cfg).run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.per_class_waits, y.per_class_waits);
        }
    }

    #[test]
    fn achieved_utilization_matches_target() {
        let mut cfg = tiny(3, 0.9);
        cfg.experiments = 8;
        let (_, tally) = tallied(&cfg);
        assert_eq!(tally.links.len(), 3);
        for (l, hops) in tally.links.iter().enumerate() {
            let u = tally.utilization(l);
            // The run includes a drain tail after sources stop, so the
            // achieved utilization sits slightly below the target.
            assert!((u - 0.9).abs() < 0.12, "link {l}: achieved utilization {u}");
            assert!(hops.departures > 1000);
            assert_eq!(hops.bytes, hops.departures * 500);
        }
    }

    #[test]
    fn per_hop_class_waits_are_ordered() {
        let cfg = tiny(2, 0.95);
        let (_, tally) = tallied(&cfg);
        for l in 0..tally.links.len() {
            let waits = tally.mean_waits(l);
            for w in waits.windows(2) {
                assert!(w[0] > w[1], "per-hop waits not ordered: {waits:?}");
            }
        }
    }

    #[test]
    fn partial_user_path_reduces_delay() {
        let mut full = tiny(4, 0.9);
        full.experiments = 6;
        let mut partial = full.clone();
        partial.user_path = Some((1, 3)); // 2 of the 4 hops
        let total = |recs: &[ExperimentRecord]| -> f64 {
            recs.iter()
                .flat_map(|r| r.per_class_waits.iter().flatten())
                .map(|&w| w as f64)
                .sum()
        };
        let t_full = total(&crate::Session::study_b(&full).run());
        let t_partial = total(&crate::Session::study_b(&partial).run());
        assert!(
            t_partial < 0.8 * t_full,
            "2-hop path total {t_partial} vs 4-hop {t_full}"
        );
    }

    #[test]
    fn fcfs_hop_dilutes_differentiation() {
        use sched::SchedulerKind;
        // All-WTP vs WTP with one FCFS hop: the mixed path still orders the
        // classes but with a smaller spread.
        let mut wtp = tiny(3, 0.95);
        wtp.experiments = 8;
        let mut mixed = wtp.clone();
        mixed.link_schedulers = Some(vec![
            SchedulerKind::Wtp,
            SchedulerKind::Fcfs,
            SchedulerKind::Wtp,
        ]);
        let spread = |recs: &[ExperimentRecord]| -> f64 {
            let mean = |c: usize| -> f64 {
                let (mut s, mut n) = (0.0, 0.0);
                for r in recs {
                    s += r.per_class_waits[c].iter().sum::<u64>() as f64;
                    n += r.per_class_waits[c].len() as f64;
                }
                s / n
            };
            mean(0) / mean(3)
        };
        let s_wtp = spread(&crate::Session::study_b(&wtp).run());
        let s_mixed = spread(&crate::Session::study_b(&mixed).run());
        assert!(s_wtp > s_mixed, "WTP spread {s_wtp} vs mixed {s_mixed}");
        assert!(
            s_mixed > 1.2,
            "mixed path lost all differentiation: {s_mixed}"
        );
    }

    #[test]
    fn pifo_wtp_is_wtp_through_the_mesh() {
        use sched::{RankKind, SchedulerKind};
        // `Pifo(RankKind::Wtp)` is WTP under its rank-core name, so
        // renaming every hop's scheduler must reproduce the exact same
        // multi-hop waits.
        let mut wtp = tiny(3, 0.95);
        wtp.experiments = 4;
        let mut pifo = wtp.clone();
        pifo.link_schedulers = Some(vec![SchedulerKind::Pifo(RankKind::Wtp); 3]);
        let waits = |recs: &[ExperimentRecord]| -> Vec<Vec<Vec<u64>>> {
            recs.iter().map(|r| r.per_class_waits.clone()).collect()
        };
        let w_wtp = waits(&crate::Session::study_b(&wtp).run());
        let w_pifo = waits(&crate::Session::study_b(&pifo).run());
        assert_eq!(
            w_wtp, w_pifo,
            "PIFO(WTP) diverged from WTP through the mesh"
        );
    }

    #[test]
    fn lstf_hop_schedules_through_the_mesh() {
        use sched::{RankKind, SchedulerKind};
        // Exercises LSTF through the full multi-hop engine and checks it
        // still delivers and orders the classes.
        let mut cfg = tiny(2, 0.95);
        cfg.experiments = 6;
        cfg.link_schedulers = Some(vec![SchedulerKind::Pifo(RankKind::Lstf); 2]);
        let recs = crate::Session::study_b(&cfg).run();
        assert_eq!(recs.len(), 6);
        let mut mean = [0.0f64; 4];
        for r in &recs {
            for (c, m) in mean.iter_mut().enumerate() {
                *m += r.per_class_waits[c].iter().sum::<u64>() as f64;
            }
        }
        // Smaller slack budgets for higher classes ⇒ lower waits.
        for c in 0..3 {
            assert!(mean[c] > mean[c + 1], "LSTF broke class ordering: {mean:?}");
        }
    }

    #[test]
    fn ecn_sources_self_regulate_queues() {
        use crate::config::CrossModel;
        // Open-loop Pareto at ρ=0.98 builds deep queues; the same target
        // with ECN-reacting sources keeps queues near the mark threshold.
        let mut cfg = tiny(2, 0.98);
        cfg.experiments = 6;
        cfg.cross_model = CrossModel::default_ecn();
        let (records, tally) = tallied(&cfg);
        assert_eq!(records.len(), 6);
        // Utilization remains high (the sources probe upward)...
        for l in 0..tally.links.len() {
            let u = tally.utilization(l);
            assert!(u > 0.5, "utilization {u}");
        }
        // ...and per-hop waits stay modest: AIMD keeps queues around the
        // 64 kB mark point (~20 ms at 25 Mbps) instead of growing without
        // bound over the run.
        for l in 0..tally.links.len() {
            for w in tally.mean_waits(l) {
                assert!(
                    w < 60.0e6,
                    "per-hop mean wait {w} ns too large for ECN regime"
                );
            }
        }
    }

    #[test]
    fn ecn_network_still_differentiates() {
        use crate::config::CrossModel;
        let mut cfg = tiny(2, 0.95);
        cfg.cross_model = CrossModel::default_ecn();
        let recs = crate::Session::study_b(&cfg).run();
        let mut mean = [0.0f64; 4];
        for r in &recs {
            for (c, m) in mean.iter_mut().enumerate() {
                *m += r.per_class_waits[c].iter().sum::<u64>() as f64;
            }
        }
        for c in 0..3 {
            assert!(mean[c] > mean[c + 1], "ECN regime broke class ordering");
        }
    }

    #[test]
    fn bottleneck_link_dominates_end_to_end_delay() {
        let mut cfg = tiny(3, 0.9);
        cfg.utilization_per_link = Some(vec![0.4, 0.95, 0.4]);
        let (recs, tally) = tallied(&cfg);
        assert!(!recs.is_empty());
        // The hot middle link carries most of the queueing.
        let w = |l: usize| tally.mean_waits(l)[0];
        assert!(w(1) > 5.0 * w(0), "bottleneck {} vs edge {}", w(1), w(0));
        assert!(w(1) > 5.0 * w(2));
        // Achieved utilizations track the per-link targets.
        assert!((tally.utilization(0) - 0.4).abs() < 0.1);
        assert!((tally.utilization(1) - 0.95).abs() < 0.1);
    }

    #[test]
    fn propagation_delay_leaves_queueing_metric_comparable() {
        // Queueing delays exclude propagation; adding 1 ms per hop shifts
        // when packets arrive downstream but the queueing-delay spread
        // between classes survives intact.
        let base = tiny(3, 0.9);
        let mut prop = base.clone();
        prop.propagation_ns = 1_000_000;
        let mean_of = |recs: &[ExperimentRecord], c: usize| -> f64 {
            let (mut s, mut n) = (0.0, 0.0);
            for r in recs {
                s += r.per_class_waits[c].iter().sum::<u64>() as f64;
                n += r.per_class_waits[c].len() as f64;
            }
            s / n
        };
        let a = crate::Session::study_b(&base).run();
        let b = crate::Session::study_b(&prop).run();
        let spread_a = mean_of(&a, 0) / mean_of(&a, 3);
        let spread_b = mean_of(&b, 0) / mean_of(&b, 3);
        assert!(spread_a > 1.5 && spread_b > 1.5);
        assert!(
            (spread_a - spread_b).abs() / spread_a < 0.5,
            "spreads diverged: {spread_a} vs {spread_b}"
        );
    }

    #[test]
    fn scenario_sdp_step_flattens_differentiation() {
        use scenario::Scenario;
        use sched::Sdp;
        // Stepping the SDP to all-equal mid-run must pull the class means
        // closer together than the stationary paper SDP keeps them.
        let mut cfg = tiny(2, 0.9);
        cfg.experiments = 6;
        let spread = |recs: &[ExperimentRecord]| -> f64 {
            let mean = |c: usize| -> f64 {
                let (mut s, mut n) = (0.0, 0.0);
                for r in recs {
                    s += r.per_class_waits[c].iter().sum::<u64>() as f64;
                    n += r.per_class_waits[c].len() as f64;
                }
                s / (n.max(1.0))
            };
            mean(0) / mean(3).max(1.0)
        };
        let stationary = crate::Session::study_b(&cfg).run();
        let sc = Scenario::builder()
            .set_sdp(Time::ZERO, Sdp::new(&[1.0, 1.0, 1.0, 1.0]).unwrap())
            .build()
            .unwrap();
        let stepped = crate::Session::study_b(&cfg).scenario(sc).run();
        assert!(
            spread(&stationary) > 1.5 * spread(&stepped),
            "stationary spread {} vs flattened {}",
            spread(&stationary),
            spread(&stepped)
        );
    }

    #[test]
    fn scenario_link_flap_hold_delivers_everything() {
        use scenario::{DownPolicy, Scenario};
        // Holding packets across a mid-run outage delays but never loses
        // them: every user packet is still delivered.
        let cfg = tiny(2, 0.85);
        let down = Time::from_ticks(3 * TICKS_PER_SEC);
        let up = Time::from_ticks(3 * TICKS_PER_SEC + TICKS_PER_SEC / 2);
        let sc = Scenario::builder()
            .link_down(down, 1, DownPolicy::Hold)
            .link_up(up, 1)
            .build()
            .unwrap();
        let recs = crate::Session::study_b(&cfg).scenario(sc).run();
        let delivered: usize = recs
            .iter()
            .flat_map(|r| r.per_class_waits.iter())
            .map(|w| w.len())
            .sum();
        assert_eq!(delivered, 5 * 4 * 10, "Hold outage lost packets");
    }

    #[test]
    fn scenario_link_flap_drop_loses_packets_and_is_probed() {
        use scenario::{DownPolicy, Scenario};
        let cfg = tiny(2, 0.85);
        let down = Time::from_ticks(3 * TICKS_PER_SEC);
        let up = Time::from_ticks(5 * TICKS_PER_SEC);
        let sc = Scenario::builder()
            .link_down(down, 1, DownPolicy::Drop)
            .link_up(up, 1)
            .build()
            .unwrap();
        let mut registry = telemetry::MetricsRegistry::with_shape(1, 4);
        let recs = Session::study_b(&cfg)
            .scenario(sc)
            .probe(&mut registry)
            .run();
        let delivered: usize = recs
            .iter()
            .flat_map(|r| r.per_class_waits.iter())
            .map(|w| w.len())
            .sum();
        assert!(
            delivered < 5 * 4 * 10,
            "a 2 s Drop outage across the experiment window must lose packets"
        );
        let drops: u64 = (0..4).map(|c| registry.class_total(c).drops).sum();
        assert!(drops > 0, "fault drops must be probed");
        assert_eq!(registry.scenario_events(), 2, "both flap edges recorded");
    }

    #[test]
    fn scenario_link_rate_change_shifts_utilization() {
        use scenario::Scenario;
        // Halving link 0's rate at t=0 doubles its busy time per byte.
        let cfg = tiny(1, 0.7);
        let rate = cfg.link_bytes_per_tick();
        let sc = Scenario::builder()
            .set_link_rate(Time::ZERO, 0, rate / 2.0)
            .build()
            .unwrap();
        let (_, base) = tallied(&cfg);
        let (_, slowed) = run_tallied(&cfg, sc, NoopProbe);
        let per_byte = |t: &HopTally| t.links[0].busy as f64 / t.links[0].bytes as f64;
        assert!(
            (per_byte(&slowed) / per_byte(&base) - 2.0).abs() < 0.05,
            "slowed {} vs base {}",
            per_byte(&slowed),
            per_byte(&base)
        );
    }

    #[test]
    fn empty_scenario_run_is_identical_to_stationary() {
        use scenario::Scenario;
        let cfg = tiny(2, 0.9);
        let plain = crate::Session::study_b(&cfg).run();
        let via_scenario = crate::Session::study_b(&cfg)
            .scenario(Scenario::empty())
            .run();
        for (x, y) in plain.iter().zip(&via_scenario) {
            assert_eq!(x.per_class_waits, y.per_class_waits);
        }
    }

    #[test]
    #[should_panic(expected = "load_surge is not supported")]
    fn load_surge_is_rejected_by_the_chain_engine() {
        use scenario::Scenario;
        let cfg = tiny(1, 0.8);
        let sc = Scenario::builder()
            .load_surge(Time::from_ticks(1), 0, 0.5)
            .build()
            .unwrap();
        let _ = crate::Session::study_b(&cfg).scenario(sc).run();
    }

    /// FNV-1a over a whole run: per experiment and class the packet count
    /// and the waits in delivery order, then per link what its hops
    /// reported — departures, bytes, transmitting ticks, the run's span and
    /// the per-class mean waits, `f64`s by their bits. (The per-link words
    /// are the fields of the per-link summary the engine once returned
    /// beside the records, in its order: the digests predate the probe.)
    fn run_digest((recs, tally): &(Vec<ExperimentRecord>, HopTally)) -> u64 {
        let mut words: Vec<u64> = Vec::new();
        for waits in recs.iter().flat_map(|r| &r.per_class_waits) {
            words.push(waits.len() as u64);
            words.extend(waits);
        }
        for (i, l) in tally.links.iter().enumerate() {
            words.extend([l.departures, l.bytes, l.busy, tally.span_ticks]);
            words.extend(tally.mean_waits(i).iter().map(|w| w.to_bits()));
        }
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, word| {
            (word.to_le_bytes().iter()).fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        })
    }

    fn assert_pinned(what: &str, run: &(Vec<ExperimentRecord>, HopTally), pinned: u64) {
        let digest = run_digest(run);
        assert_eq!(digest, pinned, "{what}: digest {digest:#018x}");
    }

    /// A Table-1 cell as `experiments::table1` runs it at `Scale::Bench`.
    fn bench_cell(k: usize, rho: f64, flow_len: u32, rate: f64) -> StudyBConfig {
        let mut c = StudyBConfig::paper(k, rho, flow_len, rate);
        c.experiments = 6;
        c.warmup_secs = 4.0;
        c.seed = 1 + k as u64 * 1000 + (rho * 100.0) as u64;
        c
    }

    // The digests below were captured at the commit *before* the chain's
    // Pareto cross traffic and its `TxDone`s left the event queue — every
    // event in `simcore::EventQueue`, one scalar gap per `Cross` — and are
    // identical in debug and release.

    #[test]
    fn bench_scale_table1_cells_are_pinned() {
        for (k, rho, flow_len, rate, pinned) in [
            (8, 0.95, 100, 50.0, 0x53aa_ead0_d4b9_1cbau64),
            (8, 0.85, 10, 200.0, 0x2be2_de19_f0b4_974f),
            (4, 0.95, 100, 200.0, 0xe790_5963_898e_8009),
            (4, 0.85, 10, 50.0, 0x3c20_e644_471e_5b2b),
        ] {
            let run = tallied(&bench_cell(k, rho, flow_len, rate));
            assert_pinned(
                &format!("K={k} rho={rho} F={flow_len} R={rate}"),
                &run,
                pinned,
            );
        }
    }

    #[test]
    fn chain_variants_are_pinned() {
        use sched::SchedulerKind::{Fcfs, Wtp};
        let mut per_link = tiny(3, 0.9);
        per_link.utilization_per_link = Some(vec![0.4, 0.95, 0.4]);
        let mut partial = tiny(4, 0.9);
        partial.user_path = Some((1, 3));
        let mut propagating = tiny(3, 0.9);
        propagating.propagation_ns = 1_000_000;
        let mut mixed = tiny(3, 0.95);
        mixed.link_schedulers = Some(vec![Wtp, Fcfs, Wtp]);
        let mut ecn = tiny(2, 0.95);
        ecn.cross_model = CrossModel::default_ecn();
        for (what, cfg, pinned) in [
            ("per-link utilization", per_link, 0xb481_8077_2b68_30c8u64),
            ("user path (1, 3) of 4", partial, 0x21cc_0629_fc26_1e87),
            ("1 ms propagation", propagating, 0x983e_ae2e_0edf_5ac0),
            ("WTP/FCFS/WTP", mixed, 0x2188_9ec8_b586_8a97),
            ("ECN-adaptive cross traffic", ecn, 0x5875_a174_0163_0cc9),
        ] {
            assert_pinned(what, &tallied(&cfg), pinned);
        }
    }

    #[test]
    fn chain_scenarios_are_pinned() {
        use scenario::{DownPolicy, Scenario};
        let secs = |s: f64| Time::from_ticks((s * TICKS_PER_SEC as f64) as u64);
        let cfg = tiny(2, 0.85);
        let sdp_step = Scenario::builder()
            .set_sdp(secs(3.0), sched::Sdp::new(&[1.0, 1.0, 1.0, 1.0]).unwrap())
            .build();
        let hold = Scenario::builder()
            .link_down(secs(3.0), 1, DownPolicy::Hold)
            .link_up(secs(3.5), 1)
            .build();
        let drop = Scenario::builder()
            .link_down(secs(3.0), 1, DownPolicy::Drop)
            .link_up(secs(5.0), 1)
            .build();
        let rate = Scenario::builder()
            .set_link_rate(secs(2.5), 0, cfg.link_bytes_per_tick() / 2.0)
            .set_link_rate(secs(3.0), 0, cfg.link_bytes_per_tick())
            .build();
        let leave_join = Scenario::builder()
            .class_leave(secs(2.5), 1)
            .class_join(secs(4.5), 1)
            .build();
        for (what, sc, pinned) in [
            ("SDP step", sdp_step, 0xf2df_efd9_6e5b_7272u64),
            ("Hold flap", hold, 0x6efa_23a6_af8c_51d6),
            ("Drop flap", drop, 0x7a77_c5b7_cd2b_709c),
            ("link-rate change", rate, 0xdd63_35ba_05b5_ebf5),
            ("class leave/join", leave_join, 0x113c_cf4e_f89b_4528),
        ] {
            assert_pinned(what, &run_tallied(&cfg, sc.unwrap(), NoopProbe), pinned);
        }
    }

    /// A chain built for same-tick events, as far as its one-experiment-a-
    /// second timeline allows (cross traffic runs for two seconds past the
    /// last flow, so events cannot be a few ticks apart throughout): one
    /// byte takes 2 620 = 20 × 131 ticks, the first experiment starts on
    /// tick 1 and its flows send every 131 ticks. So user packet `j`
    /// shares its tick with the first emission of cross source `j` (tick
    /// `1 + 131 j`), every twentieth with a `TxDone` of the busy period
    /// that began on tick 1; and two million cross packets in three
    /// seconds meet each other and the `TxDone`s by chance.
    fn tie_heavy_chain() -> StudyBConfig {
        let mut c = StudyBConfig::paper(2, 0.9, 200, 8.0 / 131e-9 / 1000.0);
        c.packet_bytes = 1;
        c.link_bps = 8e9 / 2_620.0;
        c.experiments = 2;
        c.warmup_secs = 1e-9;
        c.seed = 20;
        c
    }

    /// Ticks of the events of a tie-heavy run: cross emissions, user
    /// packets entering the chain, `TxDone`s.
    #[derive(Default)]
    struct TieLog {
        cross: Vec<u64>,
        user: Vec<u64>,
        tx_dones: Vec<u64>,
    }

    impl Probe for TieLog {
        const WANTS_DECISION_VALUES: bool = false;
        fn on_arrival(&mut self, at: Time, id: PacketId) {
            if id.span & CROSS_SPAN_BIT != 0 {
                self.cross.push(at.ticks());
            } else if id.hop == 0 {
                self.user.push(at.ticks());
            }
        }
        fn on_depart(&mut self, _id: PacketId, _arrival: Time, _start: Time, end: Time, _: bool) {
            self.tx_dones.push(end.ticks());
        }
    }

    #[test]
    fn tie_heavy_chain_is_pinned() {
        use std::collections::HashSet;
        let cfg = tie_heavy_chain();
        assert_eq!(cfg.user_packet_gap_ticks(), 131);
        let mut log = TieLog::default();
        let run = run_tallied(&cfg, Scenario::empty(), &mut log);
        // Same-tick pairs, counted by tick.
        let cross: HashSet<u64> = log.cross.iter().copied().collect();
        let tx_dones: HashSet<u64> = log.tx_dones.iter().copied().collect();
        let cross_cross = log.cross.len() - cross.len();
        let cross_tx_done = log.tx_dones.iter().filter(|t| cross.contains(t)).count();
        let cross_user = log.user.iter().filter(|t| cross.contains(t)).count();
        let tx_done_user = log.user.iter().filter(|t| tx_dones.contains(t)).count();
        assert!(cross_cross > 300, "{cross_cross} Cross/Cross ties");
        assert!(cross_tx_done > 300, "{cross_tx_done} Cross/TxDone ties");
        assert!(cross_user >= 64, "{cross_user} Cross/UserPacket ties");
        assert!(tx_done_user >= 36, "{tx_done_user} TxDone/UserPacket ties");
        assert_pinned("tie-heavy chain", &run, 0x28e2_9523_964a_1b17);
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a of `bytes`, continued from `hash`.
    fn fnv1a(hash: u64, bytes: impl Iterator<Item = u8>) -> u64 {
        bytes.fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Folds every probe callback of a run into FNV-1a — its kind, its
    /// times, hop, class, size and `eol`, a decision's scheduler and
    /// values, a heartbeat's `(at, events_handled, depth)`; not `span` /
    /// `seq`, which name packets and order nothing — and keeps one
    /// checkpoint per 65 536 callbacks, so that a run that diverges from a
    /// pinned ladder names the window it diverged in.
    struct EventFold {
        hash: u64,
        calls: u64,
        ladder: Vec<u64>,
    }

    impl EventFold {
        fn new() -> Self {
            EventFold {
                hash: FNV_OFFSET,
                calls: 0,
                ladder: Vec::new(),
            }
        }

        fn fold(&mut self, kind: u8, words: &[u64]) {
            let bytes = words.iter().flat_map(|w| w.to_le_bytes());
            self.hash = fnv1a(self.hash, std::iter::once(kind).chain(bytes));
            self.calls += 1;
            if self.calls.is_multiple_of(65_536) {
                self.ladder.push(self.hash);
            }
        }

        fn packet(&mut self, kind: u8, at: Time, id: PacketId) {
            let id = [id.hop.into(), id.class.into(), id.size.into()];
            self.fold(kind, &[at.ticks(), id[0], id[1], id[2]]);
        }

        /// The checkpoints, then the hash of the whole run.
        fn finish(mut self) -> Vec<u64> {
            self.ladder.push(self.hash);
            self.ladder
        }
    }

    impl Probe for EventFold {
        fn on_arrival(&mut self, at: Time, id: PacketId) {
            self.packet(0, at, id);
        }
        fn on_enqueue(&mut self, at: Time, id: PacketId) {
            self.packet(1, at, id);
        }
        fn on_decision(
            &mut self,
            at: Time,
            scheduler: &'static str,
            id: PacketId,
            values: &[(usize, f64)],
        ) {
            self.packet(2, at, id);
            let name = scheduler.bytes().map(u64::from);
            let values = values.iter().flat_map(|&(c, v)| [c as u64, v.to_bits()]);
            self.fold(3, &name.chain(values).collect::<Vec<u64>>());
        }
        fn on_depart(&mut self, id: PacketId, arrival: Time, start: Time, finish: Time, eol: bool) {
            self.packet(4, finish, id);
            self.fold(5, &[arrival.ticks(), start.ticks(), eol.into()]);
        }
        fn on_drop(&mut self, at: Time, id: PacketId, backlog_bytes: u64, buffer_bytes: u64) {
            self.packet(6, at, id);
            self.fold(7, &[backlog_bytes, buffer_bytes]);
        }
        fn on_heartbeat(&mut self, at: Time, events_handled: u64, depth: usize) {
            self.fold(8, &[at.ticks(), events_handled, depth as u64]);
        }
        fn on_scenario_event(&mut self, at: Time, link: u16, kind: &'static str, value: f64) {
            let kind = kind.bytes().map(u64::from);
            let words = [at.ticks(), link.into(), value.to_bits()];
            self.fold(9, &words.into_iter().chain(kind).collect::<Vec<u64>>());
        }
    }

    /// The chains whose every probe callback is pinned ([`EVENT_LADDERS`]).
    fn event_level_chains() -> Vec<(&'static str, StudyBConfig, Scenario)> {
        use scenario::DownPolicy;
        let secs = |s: f64| Time::from_ticks((s * TICKS_PER_SEC as f64) as u64);
        let mut ecn = tiny(2, 0.95);
        ecn.cross_model = CrossModel::default_ecn();
        let hold = Scenario::builder()
            .link_down(secs(3.0), 1, DownPolicy::Hold)
            .link_up(secs(3.5), 1)
            .build();
        let drop = Scenario::builder()
            .link_down(secs(3.0), 1, DownPolicy::Drop)
            .link_up(secs(5.0), 1)
            .build();
        let mut propagating = tiny(3, 0.9);
        propagating.propagation_ns = 1_000_000;
        let still = Scenario::empty;
        vec![
            ("K=8 bench cell", bench_cell(8, 0.95, 100, 50.0), still()),
            ("K=4 bench cell", bench_cell(4, 0.85, 10, 50.0), still()),
            ("default_ecn()", ecn, still()),
            ("Hold flap", tiny(2, 0.85), hold.unwrap()),
            ("Drop flap", tiny(2, 0.85), drop.unwrap()),
            ("1 ms propagation", propagating, still()),
            ("tie-heavy chain", tie_heavy_chain(), still()),
        ]
    }

    #[test]
    fn chain_event_ladders_are_pinned() {
        for ((what, cfg, scenario), pinned) in event_level_chains().into_iter().zip(EVENT_LADDERS) {
            let mut fold = EventFold::new();
            Session::study_b(&cfg)
                .scenario(scenario)
                .probe(&mut fold)
                .run();
            let ladder = fold.finish();
            let first = ladder.iter().zip(*pinned).position(|(a, b)| a != b);
            assert_eq!(
                first, None,
                "{what}: first diverging 65 536-callback window"
            );
            assert_eq!(ladder.len(), pinned.len(), "{what}: callbacks");
        }
    }

    #[test]
    fn metered_chain_snapshot_is_pinned() {
        // The sidecar a farm worker writes next to a Table-1 cell, with
        // eight heartbeats in it.
        let mut registry = MetricsRegistry::new();
        Session::study_b(&bench_cell(4, 0.85, 10, 50.0))
            .probe(&mut registry)
            .run();
        let digest = fnv1a(FNV_OFFSET, registry.to_json().bytes());
        assert_eq!(digest, 0xc4f1_0ca6_0229_a7ec, "digest {digest:#018x}");
    }

    /// Per chain of [`event_level_chains`], [`EventFold::finish`] — captured at
    /// the last commit that ran the chain on an engine of its own
    /// (`engine.rs`); identical in debug and release.
    #[rustfmt::skip]
    const EVENT_LADDERS: &[&[u64]] = &[
        // K=8 bench cell: 79 checkpoints and the end
        &[
            0xf4e9c7e7c092e975, 0x20274191b712b1b1, 0x99a31d1a78446ae4, 0x7651068f8acd7c3a,
            0x7bdd8a92e57df462, 0x35bce67b667f28a1, 0x6524a4ce4f417f0a, 0x11b9516362db4444,
            0xbf15c5e8fbdf4951, 0xb29c7343bb579d06, 0x6a1da91f7f14602f, 0x781ef32e4f96ce05,
            0x902e65fc9a3669ff, 0x57a8dbf0bf8052ab, 0x32b72afa0c361f2b, 0x9c482353d6d3b503,
            0xf4c53129e8a3d3d9, 0xd957bf72957253f0, 0x0c640068fcbccd35, 0x47217c4f33d668f4,
            0x7e290e2c9591b0ea, 0x5cacc20fd321f535, 0x6d70b7b6df2c1944, 0x314b01311592323b,
            0xbb489d615fce0196, 0x1bd54634351a7485, 0x148c320712f5c3be, 0x767eb1915337ace0,
            0x3df91e489f06ec7b, 0x1be5a414ed6ee5a9, 0x80b957b0cc52ede7, 0x779eaf9ba5a01a4e,
            0xfe5e11aa9a9c5ddb, 0x9236d00d09fa65d4, 0x9ea90e86c6092954, 0x49d5d65be0b81a90,
            0x69ac2f0811bca816, 0x8a2af063e87f6ca3, 0xcc8ad66addfb1707, 0x99b5fb758ddc1487,
            0xbb241d5a2cd1a171, 0x43c8f49c8a4a3a77, 0x38a0de5ab8b939db, 0xc8a6664b8fb2aee3,
            0x69c153eb6bce34ea, 0xf5b353d1681e09fd, 0xb853622433bef1ed, 0x363dab4353528dbb,
            0xc72ff4aa9b17b15f, 0x90e833f878e5d5b6, 0x08c437c828d79ea8, 0x5c3dc2a3b4a688b0,
            0x557247891cf5fd7b, 0xa07c93e7775348e5, 0x7864e4f406519219, 0x6ceeb4259418df3d,
            0x61624e044e1d0638, 0xf74f6963dd562a05, 0x0ea0c600a514b01a, 0x7a92d55e2d9fe923,
            0x7c244a9a1b17c3c3, 0x22ef3cd7a4cec906, 0x5a00b629558a05cb, 0xb65ad8857b917b85,
            0x6b640fcd862d7824, 0xcf64572c8e763b01, 0x9e9cd0b2a8f6d5c5, 0xc93049370e73807a,
            0x542f11c65c5e384c, 0x1196d49411cd2c63, 0xc231a791990e3a6f, 0x02a535dd8e9336e9,
            0x125c0c089d15167b, 0xcfe466cb0252024a, 0x515afbeaef537d65, 0xa46c82fc46a19a77,
            0x51c548b7123ab769, 0x000a3a8819019170, 0x1fc066a245e7e293, 0xc49a41fad36f721a,
        ],
        // K=4 bench cell: 22 checkpoints and the end
        &[
            0x3f846bc973af9e5c, 0x57217a6c42055c39, 0x7a0aeee01d586f38, 0x1addd6a57787329f,
            0x0a7f1f081acda425, 0xa4e7931c9534a1db, 0xdbb57cd4285e1dcb, 0x6e736927e3a4d80f,
            0x8570365eb8e4adf8, 0x3ea8be2025c3b576, 0x57b69983d5d1d2ec, 0x525c687c5e9573f7,
            0x3ade8474ef66cd98, 0x23de5da2283f31d1, 0x35b54a8a44d34fb0, 0x00279882716ccc34,
            0xa6d641f091e28b11, 0xb34d5d89b93b1e69, 0x1d31693f6e33147c, 0x56b31fbfaf1a9a53,
            0x15d5820c33d90f67, 0x2a40c10943ab78b6, 0x95b721a0ed4ecb33,
        ],
        // default_ecn(): 9 checkpoints and the end
        &[
            0x6df4c637b3b7b425, 0xdacf1841461f2d46, 0x344f64695569416a, 0x5f44c776eadf01ef,
            0xca5c2ee0775a6522, 0x228067c0d252ebe3, 0xd19b3ecbc3e0e6ab, 0x7a72742f82647e46,
            0xeb3498e00b9a64f9, 0x49f27f37dcb480fb,
        ],
        // Hold flap: 7 checkpoints and the end
        &[
            0xa5fd7d0a7e833ac3, 0xa27c4b13d9bc4295, 0x34980ce2a206f73e, 0xb05a11d0d740c348,
            0x03a372433472ea53, 0xdce0220064dfb0e2, 0xdce30bded5519997, 0x8baed971de2bce13,
        ],
        // Drop flap: 7 checkpoints and the end
        &[
            0xa5fd7d0a7e833ac3, 0xa27c4b13d9bc4295, 0x1e0c3d34e7866e08, 0x45bb7cd4b440392a,
            0x5efe88c640b971e0, 0x285bd8c25552e202, 0x2cf345293a08cc8c, 0xef3e4404256e2b4a,
        ],
        // 1 ms propagation: 12 checkpoints and the end
        &[
            0x686d8a76c71ebb2c, 0xd3ab457c29148589, 0x64981a224c90d839, 0xc9b99dd8bf5a933e,
            0x7d96f0e57566a4c1, 0x474198abc9cf9561, 0xcd5ddbcdb3b5f85f, 0x5af682237dee5ea3,
            0x3dfc43c77c0c1f19, 0xa4c72f1e189e7466, 0xd6c50f4856ae3326, 0x8fddcade122cefae,
            0x09c1e1eb360e0bcc,
        ],
        // tie-heavy chain: 188 checkpoints and the end
        &[
            0xd995c9f55eadb49e, 0xfa45d18b318234b9, 0x2b25267418c3629e, 0x5e559b9dea58b548,
            0xb487f551525db613, 0x82e6126abc0e0abc, 0xb8c70236ccbf7519, 0xbf7cf571e7c41037,
            0x4cd417e854143ce0, 0xfeadc8936d754511, 0x13ea0af4bb4f8d60, 0x2781cfb08553a22f,
            0xe3eb0e2cb8f7b5fb, 0xc4385da3bc1299ac, 0x9eb0a2d4151fe6f1, 0x35e58752eb2268b2,
            0xe38b653f46b28a7a, 0xe3a5a7433a0820a6, 0x9fabeb24a09441b6, 0x30769168642a4994,
            0xdc1b1b9f90a10ab3, 0xa4b1ca421a81c9d6, 0x13298a95d596923a, 0xfc3c45123a115f59,
            0xe34fb5103d30bbbc, 0x579e06084c67937e, 0x307309af281f8b45, 0xfb57e95cdb884068,
            0x6431b644eb7a2d63, 0xc09caa5ac2fa2695, 0x83c36c472f13cf96, 0x29c7714109f72e69,
            0xa961dcaca758611c, 0x7c03c55a61c8552b, 0x95aa6be988833ba2, 0x76b13a22f4cabdfa,
            0x01e3259c6e3eaf15, 0x5346073313a34b6d, 0x82387de86463ab0a, 0xef7409b153ee67ff,
            0xd5f93112b333f58e, 0xcce952fa1f35ed0a, 0x66ea14e0119b1fcd, 0x0a21945952ebe366,
            0xa95a0c896cdc2eef, 0x49c12771131119cb, 0xc9ad6e9713ed3a5d, 0xf7e047692086d677,
            0xb0d9e91334db2eea, 0x24bcfec80e68a1a5, 0xa4af9e2e5cfa5dc7, 0xd7e3cc6cffaf5be8,
            0x2c4edd7ffff8be41, 0x0856626c32e0e713, 0xee53e224f9f218bd, 0x2a001c6b74e680e9,
            0x7d698111098b829c, 0x1c4661489973b19c, 0x7fae934e5df54881, 0x9f296ccd13d61c02,
            0x54e383c90133e464, 0xa1bf893db39858a1, 0x9f728ce59ae87a81, 0x0ec03e8a3ed04c89,
            0x6eae405961b0bc6d, 0xb48ee59e55d600db, 0xb4fd6d41215f93f1, 0x4fc93b0c2ab55c99,
            0x7b6974ad3daed1e3, 0xf3b60ef8a3f83fa0, 0x05488c0a25c21f74, 0x2aa137a6f8257e4c,
            0x733d819a3a6cbbf6, 0x0e7690213eef6dfb, 0x3c463cff61512a4a, 0xb7b51af1b2ba02ef,
            0x42f3e8c8021bdb64, 0x12b0a2ded833dbf2, 0xc60250dc6d8363bc, 0x1e02172e15e01d72,
            0x60e3d28743d3e0f8, 0xd4e07d29782ea77a, 0x24e331fa5378f8ea, 0x14cd760a3a42f987,
            0xb1d0bb5af1d804bb, 0xe28f85e40aa59349, 0x6dc3a3372a85c1ff, 0x1bdcec18d6f53c05,
            0xd0e6a0fd6e5b62a1, 0xd59cde78381f9c09, 0x3126f23c567bf960, 0x975d5f34cfe05bfd,
            0x2e4427dc0ca93cc2, 0x804523cafeb57e5d, 0x4cd9e764514c03e3, 0x8c76f075a0ffd5a2,
            0xb7fc5f10ac185a2d, 0xf64b996c31052610, 0xe2cc6197f172aa66, 0x7adba2d736f48efb,
            0x387d767042831828, 0x59addfb632a1bb23, 0xb2f2364a1a5d9592, 0xe5db7d9167e8dcdd,
            0x43d0d4822cbb9402, 0x3774d24e9f5fc887, 0x3b97f0cb21df904b, 0x9d89e1496be2cc99,
            0x6bb3a5017ddab4b2, 0xc99e91d72afec230, 0x25914b94ab565875, 0x83152a6626ca69e9,
            0xad3952730fd366bd, 0x76f2750f1772eac3, 0x06bd5a96ff09f7d6, 0xe154664efa6f5991,
            0x2affbedba9ecb247, 0x67979c01fc977415, 0x8601399fb6582032, 0x97795b0d5810e1b0,
            0x3911a6f3ad3b185f, 0xcaa5b44010318b27, 0x92785c1ec9926bd9, 0xeef7e3ae2d7d7b97,
            0xe2314fd266edec37, 0xc74cc2b46ae48e38, 0x737f2a6f9fb1a459, 0xf18229b7cc406528,
            0x9d9bc7c139d690de, 0x2a78844152ea492a, 0xdf67e639b1bc6361, 0x0558c57ca7041829,
            0x3cd9f6a5e91aef32, 0x85b5933a4a70b709, 0xf993fcb67b63b371, 0x1898c987e87f883e,
            0x0b59f37f5fed5508, 0xc6b13bd7af411d99, 0xea91471306e798f1, 0xa16c8662fa8e7ee5,
            0xe3bdd4da6bbe10ae, 0x1ff4c7d64aadf4bd, 0x476400220b79a233, 0xe7dacb467f0f592d,
            0x2b9a04bce21ef633, 0x9243611f6e88baf9, 0x113058d5a5caed74, 0xad92fbc670661782,
            0x7113609fe830f91e, 0xc4e8965adb24ceba, 0x03942606b3293615, 0xf238f483f9cbbc1e,
            0xe7737033660248d6, 0xb91c24e2ee30e1e5, 0x0b5c6527ac472990, 0x1c600edf8381fff8,
            0x1aaad7e7d8355f09, 0x3e91497dbc011de5, 0xb87ab2470c9e15f5, 0xbc26216c9ad772cb,
            0x8b0481647aac738f, 0xbdf23ffa4cf17a30, 0x8d0176f44c60a3d9, 0xc19a4efba746641c,
            0x43a89046c9b59c96, 0x7146bf2afba12c37, 0xfb0f2883e8f3e72c, 0x5120ccae7f5e1472,
            0x1607791c335f2a1e, 0x850d69105f92e928, 0x06bff9db0af6a619, 0xc1ad20c8691cec69,
            0x660e353f82a3909f, 0x244590661c73d3f3, 0xfe3a144a9713d44d, 0xb1da408054b622a3,
            0x3c9708b797f4aee8, 0xca87fadd1cc29130, 0x956d781c760fef20, 0xb95b2c6ef716a891,
            0x7992b16313b11464, 0x390a9ae5436c5f09, 0x1534eaa2bef787f4, 0x510c41825062a473,
            0x24d6faf0855b72f0, 0x315356a1a7dd97b4, 0xea64171a19b4c63d, 0xe4b9d396327e0cf3,
            0xe72d0f48733bf3bd,
        ],
    ];

    #[test]
    fn delays_scale_with_utilization() {
        let lo = crate::Session::study_b(&tiny(2, 0.7)).run();
        let hi = crate::Session::study_b(&tiny(2, 0.95)).run();
        let total = |recs: &[ExperimentRecord]| -> f64 {
            recs.iter()
                .flat_map(|r| r.per_class_waits.iter().flatten())
                .map(|&w| w as f64)
                .sum()
        };
        assert!(total(&hi) > 2.0 * total(&lo));
    }
}
