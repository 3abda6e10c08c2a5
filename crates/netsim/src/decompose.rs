//! Link-level decomposition: the scalable approximation of a mesh.
//!
//! The exact [`mesh`](crate::mesh) event loop couples every link through
//! shared packet journeys, so its cost grows with the whole fabric. This
//! module instead simulates **each link independently** — the Parsimon
//! shape — and composes per-flow end-to-end delay from the per-hop
//! results:
//!
//! 1. A link draws the emission instants of the flows crossing it — and
//!    no others — when it is simulated, from the clock the mesh engine's
//!    `Emit` events read (`emission::ParetoClock` — the same code, not a
//!    copy of it), so the two engines agree on the offered load.
//! 2. A packet's arrival at hop *h* is its emission time shifted by the
//!    sum of upstream *transmission + propagation* times — upstream
//!    **queueing is ignored**. This is the decomposition approximation:
//!    each link sees its traffic as if upstream queues were empty.
//! 3. Each link then runs the single-link service loop
//!    ([`qsim::Session::arrivals`]) with its own scheduler, producing a
//!    [`LinkReport`] of per-class and per-flow waits.
//! 4. [`DecomposeInput::compose`] folds the reports **in link order** into
//!    a [`DecomposedOutcome`]: per-flow mean end-to-end waits (the
//!    composition law `E[e2e] = Σ_hops E[wait]` is exact given per-hop
//!    waits), per-class `stats::Histogram`s (lossless, associative
//!    merges), and per-class `stats::Summary`s over flow means.
//!
//! Because every [`LinkReport`] is a pure function of `(config, link)` and
//! composition always folds in ascending link order, the outcome is
//! **byte-identical** no matter how the per-link jobs are scheduled —
//! serial, or link shards on threads or worker processes (the `mesh`
//! suite's `experiments::mesh::cell_shard` and the orchestrator farm rely
//! on this).
//!
//! The approximation error (upstream queueing shifts arrival phases) is
//! quantified by `crates/conformance` against the exact engine on small
//! topologies; the tolerance rationale lives in ARCHITECTURE.md.

use qsim::tx_ticks;
use simcore::Time;
use stats::{Histogram, Summary};
use traffic::TraceEntry;

use crate::emission::ParetoClock;
use crate::mesh::{FlowModel, MeshConfig, MeshFlow};

/// Per-link simulation result: everything needed to compose end-to-end
/// delays, in mergeable form (plain sums and lossless histograms).
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// The link this report describes.
    pub link: usize,
    /// Packets transmitted.
    pub departures: u64,
    /// Per-class packet counts at this hop.
    pub class_packets: Vec<u64>,
    /// Per-class total queueing wait (ticks) at this hop.
    pub class_wait_sum: Vec<u64>,
    /// Per-class log-binned wait distribution at this hop.
    pub class_hist: Vec<Histogram>,
    /// `(flow, wait_sum, packets)` for every flow crossing this link,
    /// ascending by flow index.
    pub flow_wait: Vec<(u32, u64, u64)>,
}

/// The composed decomposition result.
#[derive(Debug, Clone)]
pub struct DecomposedOutcome {
    /// Mean end-to-end queueing wait per flow (ticks): the sum over the
    /// flow's hops of its per-hop mean waits.
    pub per_flow_mean_wait: Vec<f64>,
    /// Packets each flow pushed through every hop of its route.
    pub per_flow_packets: Vec<u64>,
    /// Per-class `(packet, hop)` sample counts.
    pub class_hop_packets: Vec<u64>,
    /// Per-class total per-hop wait (ticks).
    pub class_hop_wait_sum: Vec<u64>,
    /// Per-class per-hop wait distribution (merged across links in link
    /// order — lossless and order-independent).
    pub class_hop_hist: Vec<Histogram>,
    /// Per-class distribution of *flow mean* end-to-end waits (pushed in
    /// flow order).
    pub class_flow_e2e: Vec<Summary>,
    /// Packets transmitted per link.
    pub link_departures: Vec<u64>,
}

impl DecomposedOutcome {
    /// Mean per-hop wait of class `c` (ticks).
    pub fn class_mean_hop_wait(&self, c: usize) -> f64 {
        if self.class_hop_packets[c] == 0 {
            0.0
        } else {
            self.class_hop_wait_sum[c] as f64 / self.class_hop_packets[c] as f64
        }
    }

    /// Mean end-to-end wait of class `c`, averaged over its flows.
    pub fn class_mean_e2e(&self, c: usize) -> f64 {
        self.class_flow_e2e[c].mean()
    }
}

/// A mesh prepared for decomposition: per-link flow assignments, computed
/// once so each [`link_report`](DecomposeInput::link_report) call is an
/// independent, pure job.
#[derive(Debug, Clone)]
pub struct DecomposeInput {
    cfg: MeshConfig,
    /// `assignments[l]` = `(flow, arrival_offset)` for every flow whose
    /// route crosses link `l`, ascending by flow.
    assignments: Vec<Vec<(u32, u64)>>,
}

/// Hands flow `i`'s emission instants, ascending, to `emit`: the schedule
/// the mesh engine's `Emit` events follow, read off the same
/// [`ParetoClock`].
fn flow_emissions(cfg: &MeshConfig, i: usize, f: &MeshFlow, mut emit: impl FnMut(u64)) {
    match f.model {
        FlowModel::Periodic { gap_ticks, count } => {
            (0..u64::from(count)).for_each(|n| emit(f.start_ticks + n * gap_ticks));
        }
        FlowModel::Pareto {
            mean_gap_ticks,
            until_ticks,
        } => {
            // The first packet goes out at the start instant unconditionally,
            // exactly like the engine's initial Emit event.
            emit(f.start_ticks);
            ParetoClock::new(cfg.seed, i, f.start_ticks, mean_gap_ticks, until_ticks)
                .for_each(emit);
        }
    }
}

impl DecomposeInput {
    /// Validates the mesh and assigns every flow to the links on its
    /// route. The arrival offset of flow f at hop h is
    /// `Σ_{j<h} (tx_ticks(link_j) + propagation_ns(link_j))`.
    pub fn new(cfg: &MeshConfig) -> Result<DecomposeInput, String> {
        cfg.validate()?;
        let mut assignments: Vec<Vec<(u32, u64)>> = vec![Vec::new(); cfg.links.len()];
        for (i, f) in cfg.flows.iter().enumerate() {
            let mut offset = 0u64;
            for &l in &f.route {
                assignments[l].push((i as u32, offset));
                let spec = &cfg.links[l];
                offset += tx_ticks(f.packet_bytes, spec.bytes_per_tick()) + spec.propagation_ns;
            }
        }
        Ok(DecomposeInput {
            cfg: cfg.clone(),
            assignments,
        })
    }

    /// Number of links (= number of independent jobs).
    pub fn num_links(&self) -> usize {
        self.cfg.links.len()
    }

    /// Simulates link `link` in isolation: draws the emission schedules of
    /// the flows crossing it, shifts and merges them (ties broken by flow
    /// index, then emission index — fully deterministic), replays them
    /// through the link's scheduler, and accumulates waits.
    ///
    /// A pure function of `(self, link)`: safe to run in any order, on
    /// any thread or process.
    pub fn link_report(&self, link: usize) -> LinkReport {
        let spec = &self.cfg.links[link];
        let nc = self.cfg.sdp.num_classes();
        let assigned = &self.assignments[link];
        let flows = &self.cfg.flows;
        // (arrival, slot in `assigned`): the slots ascend by flow, so
        // sorting pairs gives the (time, flow) tiebreak; per-flow emission
        // order is preserved because each flow's shifted schedule is
        // already ascending.
        let mut arrivals: Vec<(u64, u32)> = Vec::new();
        for (slot, &(f, offset)) in assigned.iter().enumerate() {
            let slot = slot as u32;
            flow_emissions(&self.cfg, f as usize, &flows[f as usize], |e| {
                arrivals.push((e + offset, slot));
            });
        }
        arrivals.sort_unstable();
        let mut scheduler = spec.scheduler.build(&self.cfg.sdp, spec.bytes_per_tick());
        let mut report = LinkReport {
            link,
            departures: 0,
            class_packets: vec![0; nc],
            class_wait_sum: vec![0; nc],
            class_hist: vec![Histogram::new(); nc],
            flow_wait: Vec::new(),
        };
        // (wait_sum, packets) per slot of `assigned`.
        let mut flow_acc = vec![(0u64, 0u64); assigned.len()];
        let entries = arrivals.iter().map(|&(at, slot)| {
            let f = &flows[assigned[slot as usize].0 as usize];
            TraceEntry {
                at: Time::from_ticks(at),
                class: f.class,
                size: f.packet_bytes,
            }
        });
        qsim::Session::arrivals(entries, spec.bytes_per_tick()).run(scheduler.as_mut(), |d| {
            let (_, slot) = arrivals[d.packet.seq as usize];
            let wait = d.wait().ticks();
            let c = d.packet.class as usize;
            report.departures += 1;
            report.class_packets[c] += 1;
            report.class_wait_sum[c] += wait;
            report.class_hist[c].record_u64(wait);
            let acc = &mut flow_acc[slot as usize];
            acc.0 += wait;
            acc.1 += 1;
        });
        report.flow_wait = (assigned.iter().zip(flow_acc))
            .map(|(&(f, _), (sum, n))| (f, sum, n))
            .collect();
        report
    }

    /// Folds one report per link (ascending, complete) into the composed
    /// outcome. Always folds in link order regardless of how the reports
    /// were produced, so results are byte-identical across schedules.
    ///
    /// # Panics
    /// Panics if `reports` is not exactly one report per link, in order.
    pub fn compose(&self, reports: &[LinkReport]) -> DecomposedOutcome {
        assert_eq!(
            reports.len(),
            self.cfg.links.len(),
            "compose needs exactly one report per link"
        );
        let nc = self.cfg.sdp.num_classes();
        let nf = self.cfg.flows.len();
        let mut out = DecomposedOutcome {
            per_flow_mean_wait: vec![0.0; nf],
            per_flow_packets: vec![0; nf],
            class_hop_packets: vec![0; nc],
            class_hop_wait_sum: vec![0; nc],
            class_hop_hist: vec![Histogram::new(); nc],
            class_flow_e2e: vec![Summary::new(); nc],
            link_departures: vec![0; self.cfg.links.len()],
        };
        // Per-flow accumulation across hops: Σ wait_sum and the per-hop
        // packet count (identical at every hop of a flow's route).
        let mut flow_wait_sum = vec![0u64; nf];
        for (l, r) in reports.iter().enumerate() {
            assert_eq!(r.link, l, "reports must be in link order");
            out.link_departures[l] = r.departures;
            for c in 0..nc {
                out.class_hop_packets[c] += r.class_packets[c];
                out.class_hop_wait_sum[c] += r.class_wait_sum[c];
                out.class_hop_hist[c].merge(&r.class_hist[c]);
            }
            for &(f, sum, n) in &r.flow_wait {
                flow_wait_sum[f as usize] += sum;
                out.per_flow_packets[f as usize] = n;
            }
        }
        for (f, &wait_sum) in flow_wait_sum.iter().enumerate() {
            let n = out.per_flow_packets[f];
            if n > 0 {
                out.per_flow_mean_wait[f] = wait_sum as f64 / n as f64;
            }
            out.class_flow_e2e[self.cfg.flows[f].class as usize].push(out.per_flow_mean_wait[f]);
        }
        out
    }

    /// Serial convenience: every link in order, then compose. Any other
    /// schedule of the per-link jobs composes to the same bytes.
    pub fn run(&self) -> DecomposedOutcome {
        let reports: Vec<LinkReport> = (0..self.num_links()).map(|l| self.link_report(l)).collect();
        self.compose(&reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use sched::{SchedulerKind, Sdp};

    const MBPS25: f64 = 25_000_000.0;

    fn periodic(route: Vec<usize>, class: u8, gap: u64, count: u32, start: u64) -> MeshFlow {
        MeshFlow {
            route,
            class,
            packet_bytes: 500,
            model: FlowModel::Periodic {
                gap_ticks: gap,
                count,
            },
            start_ticks: start,
        }
    }

    #[test]
    fn single_link_decomposition_is_exact() {
        // With one hop there is no upstream queueing to ignore, so the
        // decomposed waits must equal the exact mesh engine's. Starts are
        // staggered by a tick: at *simultaneous* arrivals on an idle link
        // the two engines order enqueue-vs-decision differently (that tie
        // gap is exactly what the conformance tolerance covers).
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![LinkSpec::new(MBPS25, SchedulerKind::Wtp)],
            flows: vec![
                periodic(vec![0], 0, 200_000, 40, 0),
                periodic(vec![0], 3, 200_000, 40, 1),
            ],
            seed: 3,
        };
        let exact = crate::Session::mesh(&cfg).run();
        let dec = DecomposeInput::new(&cfg).unwrap().run();
        for f in 0..2 {
            let exact_mean = exact.mean_wait(f);
            assert_eq!(
                exact.per_flow_waits[f].len() as u64,
                dec.per_flow_packets[f]
            );
            assert!(
                (exact_mean - dec.per_flow_mean_wait[f]).abs() < 1e-9,
                "flow {f}: exact {exact_mean} vs decomposed {}",
                dec.per_flow_mean_wait[f]
            );
        }
        assert_eq!(dec.link_departures, exact.link_departures);
    }

    #[test]
    fn pareto_emissions_match_the_mesh_engine_load() {
        // Same seed, same flow index => both engines must generate the
        // same packet count (departure totals agree on an uncongested
        // single link where order cannot differ).
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![LinkSpec::new(MBPS25, SchedulerKind::Fcfs)],
            flows: vec![MeshFlow {
                route: vec![0],
                class: 0,
                packet_bytes: 500,
                model: FlowModel::Pareto {
                    mean_gap_ticks: 1_000_000.0,
                    until_ticks: 100_000_000,
                },
                start_ticks: 1,
            }],
            seed: 99,
        };
        let exact = crate::Session::mesh(&cfg).run();
        let dec = DecomposeInput::new(&cfg).unwrap().run();
        assert_eq!(dec.link_departures, exact.link_departures);
        assert!(
            dec.link_departures[0] > 10,
            "horizon should fit many packets"
        );
    }

    /// Per-link arrival ticks: with one single-hop flow per link, flow
    /// `l`'s `Emit` instants as the mesh engine handled them.
    #[derive(Default)]
    struct EmitLog(Vec<Vec<u64>>);

    impl telemetry::Probe for EmitLog {
        const WANTS_DECISION_VALUES: bool = false;
        fn on_arrival(&mut self, at: Time, id: telemetry::PacketId) {
            self.0[id.hop as usize].push(at.ticks());
        }
    }

    /// FNV-1a over the three flows' emission instants, flow by flow —
    /// captured at the commit *before* the mesh engine's `Emit` clock and
    /// `flow_emissions` became one clock over `traffic`'s block sampler.
    const PINNED_PARETO_EMISSIONS: u64 = 0x2695_baa1_f3f1_343c;

    #[test]
    fn mesh_emit_instants_are_the_decomposed_emissions() {
        // One Pareto flow per link. Flow 1's mean gap of 1.3 ticks rounds
        // many successive emissions onto one tick, so the `max(prev + 1)`
        // nudge is exercised hundreds of times.
        let pareto = |link, class, mean_gap_ticks, until_ticks, start_ticks| MeshFlow {
            route: vec![link],
            class,
            packet_bytes: 500,
            model: FlowModel::Pareto {
                mean_gap_ticks,
                until_ticks,
            },
            start_ticks,
        };
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![LinkSpec::new(MBPS25, SchedulerKind::Wtp); 3],
            flows: vec![
                pareto(0, 0, 250_000.0, 400_000_000, 1),
                pareto(1, 2, 1.3, 2_000, 7),
                pareto(2, 3, 1_000_000.0, 400_000_000, 123_456),
            ],
            seed: 11,
        };
        let mut log = EmitLog(vec![Vec::new(); 3]);
        crate::Session::mesh(&cfg).probe(&mut log).run();
        let emissions: Vec<Vec<u64>> = (cfg.flows.iter().enumerate())
            .map(|(i, f)| {
                let mut e = Vec::new();
                flow_emissions(&cfg, i, f, |t| e.push(t));
                e
            })
            .collect();
        assert_eq!(log.0, emissions);
        let nudged = (emissions[1].windows(2))
            .filter(|w| w[1] == w[0] + 1)
            .count();
        assert!(nudged > 300, "{nudged} adjacent emissions");
        assert!(emissions.iter().all(|e| e.len() > 300));
        let digest = fnv1a(emissions.into_iter().flatten());
        assert_eq!(digest, PINNED_PARETO_EMISSIONS, "digest {digest:#018x}");
    }

    /// FNV-1a over little-endian `u64` words.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
            (w.to_le_bytes().iter()).fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        })
    }

    /// Every report's counts, wait sums, histogram bins and `flow_wait`
    /// triples, then the composed outcome: flow mean bits and packets,
    /// class hop sums and bins, flow-mean summaries, link departures.
    fn decomposition_words(input: &DecomposeInput) -> Vec<u64> {
        let reports: Vec<LinkReport> = (0..input.num_links())
            .map(|l| input.link_report(l))
            .collect();
        let mut w = Vec::new();
        for r in &reports {
            w.extend([r.link as u64, r.departures]);
            w.extend(r.class_packets.iter().chain(&r.class_wait_sum));
            w.extend(r.class_hist.iter().flat_map(|h| h.bins().iter().copied()));
            w.extend(
                r.flow_wait
                    .iter()
                    .flat_map(|&(f, s, n)| [u64::from(f), s, n]),
            );
        }
        let out = input.compose(&reports);
        w.extend(out.per_flow_mean_wait.iter().map(|x| x.to_bits()));
        w.extend(out.per_flow_packets.iter().chain(&out.class_hop_packets));
        w.extend(&out.class_hop_wait_sum);
        w.extend(
            out.class_hop_hist
                .iter()
                .flat_map(|h| h.bins().iter().copied()),
        );
        w.extend((out.class_flow_e2e.iter()).flat_map(|s| [s.count(), s.mean().to_bits()]));
        w.extend(&out.link_departures);
        w
    }

    /// [`decomposition_words`] of [`tie_heavy_decomposition`]'s mesh,
    /// captured while every flow's emissions were precomputed into one
    /// whole-fabric table and a link sorted `(arrival, flow)` pairs.
    const PINNED_DECOMPOSED_TIES: u64 = 0x869d_3a36_90d0_cb87;

    #[test]
    fn tie_heavy_decomposition_is_pinned() {
        // Link 2 is shared by everything. Flows 0 and 1 (one class,
        // different sizes) and flow 2 leave link 0 together and reach
        // link 2 on one tick, where flow 5's periodic start joins them;
        // flows 3 and 4 are multi-hop Pareto flows. Every link has its
        // own propagation delay, so offsets differ per hop.
        let flow = |route: Vec<usize>, class, packet_bytes, model, start_ticks| MeshFlow {
            route,
            class,
            packet_bytes,
            model,
            start_ticks,
        };
        let every = |gap_ticks, count| FlowModel::Periodic { gap_ticks, count };
        let pareto = |mean_gap_ticks| FlowModel::Pareto {
            mean_gap_ticks,
            until_ticks: 40_000_000,
        };
        let link = |kind, prop| LinkSpec::new(MBPS25, kind).with_propagation(prop);
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![
                link(SchedulerKind::Wtp, 3_000),
                link(SchedulerKind::Hpd, 7_000),
                link(SchedulerKind::Wtp, 1_000),
            ],
            flows: vec![
                flow(vec![0, 2], 1, 500, every(1_500_000, 30), 0),
                flow(vec![0, 2], 1, 1_000, every(1_500_000, 30), 0),
                flow(vec![0, 2], 3, 500, every(750_000, 60), 0),
                flow(vec![1, 2], 0, 700, pareto(2_000_000.0), 5),
                flow(vec![0, 1, 2], 2, 300, pareto(1_250_000.0), 0),
                flow(vec![2], 0, 500, every(1_500_000, 30), 163_000),
            ],
            seed: 17,
        };
        let input = DecomposeInput::new(&cfg).unwrap();
        let words = decomposition_words(&input);
        // Ties really happen: the first hop's 500-byte packets reach link
        // 2 on flow 5's start tick.
        assert_eq!(
            tx_ticks(500, cfg.links[0].bytes_per_tick()) + 3_000,
            163_000
        );
        let digest = fnv1a(words);
        assert_eq!(digest, PINNED_DECOMPOSED_TIES, "digest {digest:#018x}");
    }

    #[test]
    fn composition_sums_per_hop_means() {
        // Two hops, no contention: all waits zero; three hops counted per
        // class; per-flow packet counts survive composition.
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![
                LinkSpec::new(MBPS25, SchedulerKind::Wtp),
                LinkSpec::new(MBPS25, SchedulerKind::Wtp),
            ],
            flows: vec![periodic(vec![0, 1], 2, 1_000_000, 5, 0)],
            seed: 0,
        };
        let dec = DecomposeInput::new(&cfg).unwrap().run();
        assert_eq!(dec.per_flow_packets[0], 5);
        assert_eq!(dec.per_flow_mean_wait[0], 0.0);
        assert_eq!(dec.class_hop_packets[2], 10, "5 packets x 2 hops");
        assert_eq!(dec.class_hop_hist[2].count(), 10);
        assert_eq!(dec.class_flow_e2e[2].count(), 1);
    }

    #[test]
    fn report_order_does_not_change_the_composition() {
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![
                LinkSpec::new(MBPS25, SchedulerKind::Wtp),
                LinkSpec::new(MBPS25, SchedulerKind::Hpd),
            ],
            flows: vec![
                periodic(vec![0, 1], 0, 150_000, 30, 0),
                periodic(vec![1], 3, 170_000, 30, 7),
            ],
            seed: 5,
        };
        let input = DecomposeInput::new(&cfg).unwrap();
        // Compute reports in reverse order; compose must not care.
        let mut reports: Vec<LinkReport> = (0..input.num_links())
            .rev()
            .map(|l| input.link_report(l))
            .collect();
        reports.reverse();
        let a = input.compose(&reports);
        let b = input.run();
        assert_eq!(
            a.per_flow_mean_wait
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            b.per_flow_mean_wait
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(a.class_hop_wait_sum, b.class_hop_wait_sum);
    }
}
