//! `mesh-coupled` and `mesh-shards`: the `netsim` layer used two ways.
//!
//! Coupled: one exact event-driven simulation of a whole fat-tree, where
//! the `simcore` event queue and `netsim::mesh` dominate. Shards: the
//! paper-scale cell cut into independent per-link simulations, exactly
//! as a farm worker executes it — the memory-heavy workload.

use experiments::mesh::{cell_config, cell_shard, merge_shards};
use experiments::Scale;
use pdd::netsim::decompose::DecomposeInput;
use pdd::netsim::mesh::FlowModel;
use pdd::netsim::{CrossTraffic, HostFlow, LinkSpec, Session, Topology, TopologyConfig};
use pdd::sched::{SchedulerKind, Sdp};

use super::{ns_per, Ctx, Layers, Outcome, Size, Workload};
use crate::spans::Tracer;
use crate::stat::Digest;

/// Fat-tree arity of the coupled fabric: 96 links, 16 hosts.
const COUPLED_K: usize = 4;
const LINK_BPS: f64 = 1e9;
/// Per-link load of the paper's Pareto cross-traffic mix.
const CROSS_UTILIZATION: f64 = 0.55;
/// Probe flows overlaid on the cross traffic, two packets each.
const PROBE_FLOWS: u64 = 60_000;
const PROBE_PACKETS: u32 = 2;
const PROBE_BYTES: u32 = 100;
const PROBE_GAP_TICKS: u64 = 500_000;
/// Cross-traffic horizon: 60 ms of simulated time (1 tick = 1 ns).
const HORIZON_TICKS: u64 = 60_000_000;

/// How many ways the paper cell is cut; a pass runs cut 0. (The farm cuts
/// it four ways. Whatever the cut, a shard first rebuilds the whole
/// cell's input, which is a fixed 1.4 s and 0.5 GB here — so the finer
/// cut keeps a pass near 2 s without changing what it is made of.)
const SHARDS: usize = 8;
/// Links of the k = 10 fat-tree.
const PAPER_LINKS: usize = 1500;

/// A stateless mixer (splitmix64): flow `i` is placed by hashing
/// `seed ^ i`, so placement depends on nothing but the seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 1 Gb/s WTP link carrying the paper's cross-traffic mix.
fn link_spec() -> LinkSpec {
    LinkSpec::new(LINK_BPS, SchedulerKind::Wtp).with_cross(CrossTraffic::paper(CROSS_UTILIZATION))
}

fn coupled_config(ctx: &Ctx) -> Result<TopologyConfig, String> {
    let sdp = Sdp::paper_default();
    let topology = Topology::fat_tree(COUPLED_K, &link_spec())?;
    let hosts = topology.hosts();
    let h = hosts.len() as u64;
    let classes = sdp.num_classes() as u64;
    let horizon = ctx.size.of(HORIZON_TICKS);
    let stagger = (horizon / 2).max(1);
    let flows = (0..ctx.size.of(PROBE_FLOWS))
        .map(|i| {
            let key = splitmix64(ctx.seed ^ i);
            let src = key % h;
            let dst = (src + 1 + splitmix64(key) % (h - 1)) % h;
            HostFlow {
                src: hosts[src as usize],
                dst: hosts[dst as usize],
                class: (i % classes) as u8,
                packet_bytes: PROBE_BYTES,
                model: FlowModel::Periodic {
                    gap_ticks: PROBE_GAP_TICKS,
                    count: PROBE_PACKETS,
                },
                start_ticks: 1 + splitmix64(key ^ 0xABCD) % stagger,
            }
        })
        .collect();
    Ok(TopologyConfig {
        topology,
        sdp,
        flows,
        seed: ctx.seed,
        cross_horizon_ticks: horizon,
    })
}

/// What the checks need of a coupled run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CoupledSummary {
    link_departures: u64,
    /// Σ over flows of packets delivered × links on the flow's route.
    routed_hops: u64,
    /// Probe flows that did not deliver every packet.
    short_probes: u64,
    digest: u64,
}

fn check_coupled(s: &CoupledSummary) -> Vec<String> {
    let mut errors = Vec::new();
    if s.link_departures != s.routed_hops {
        errors.push(format!(
            "links transmitted {} packets, the delivered flows account for {}",
            s.link_departures, s.routed_hops
        ));
    }
    if s.short_probes > 0 {
        errors.push(format!(
            "{} probe flows delivered fewer than {PROBE_PACKETS} packets",
            s.short_probes
        ));
    }
    errors
}

pub struct MeshCoupled {
    cfg: TopologyConfig,
    /// Links on each lowered flow's route (probe flows first).
    route_len: Vec<u64>,
}

impl MeshCoupled {
    fn new(ctx: &Ctx) -> Result<MeshCoupled, String> {
        let cfg = coupled_config(ctx)?;
        let route_len = cfg
            .to_mesh()?
            .flows
            .iter()
            .map(|f| f.route.len() as u64)
            .collect();
        Ok(MeshCoupled { cfg, route_len })
    }

    fn summarize(&self, per_flow_waits: &[Vec<u64>], link_departures: &[u64]) -> CoupledSummary {
        let probes = self.cfg.flows.len();
        let mut digest = Digest::new();
        digest.words(link_departures);
        let (mut routed_hops, mut short_probes) = (0u64, 0u64);
        for (f, waits) in per_flow_waits.iter().enumerate() {
            digest.word(waits.len() as u64);
            digest.word(waits.iter().sum());
            routed_hops += waits.len() as u64 * self.route_len[f];
            short_probes += u64::from(f < probes && waits.len() != PROBE_PACKETS as usize);
        }
        CoupledSummary {
            link_departures: link_departures.iter().sum(),
            routed_hops,
            short_probes,
            digest: digest.finish(),
        }
    }
}

pub fn setup_coupled(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(MeshCoupled::new(ctx)?))
}

impl Workload for MeshCoupled {
    fn pass(&mut self, tracer: &mut Tracer) -> Outcome {
        let span = tracer.begin("netsim", "Session::topology.run");
        let outcome = Session::topology(&self.cfg).map(|session| session.run());
        tracer.end(span);
        match outcome {
            Ok(out) => {
                let s = self.summarize(&out.per_flow_waits, &out.link_departures);
                Outcome {
                    units: s.link_departures,
                    digest: s.digest,
                    errors: check_coupled(&s),
                }
            }
            Err(e) => Outcome {
                units: 0,
                digest: 0,
                errors: vec![format!("lowering failed: {e}")],
            },
        }
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("probe_flows", self.cfg.flows.len() as u64),
            ("lowered_flows", self.route_len.len() as u64),
        ]
    }
}

/// The shard fields the checks and the digest read.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardSummary {
    links: u64,
    departures: u64,
    class_hop_packets: u64,
    probe_hop_packets: u64,
    digest: u64,
}

fn check_shards(s: &ShardSummary, want_links: Option<u64>) -> Vec<String> {
    let mut errors = Vec::new();
    if s.departures != s.class_hop_packets {
        errors.push(format!(
            "links transmitted {} packets, the classes account for {}",
            s.departures, s.class_hop_packets
        ));
    }
    if want_links.is_some_and(|want| want != s.links) {
        errors.push(format!("merged {} links, expected {want_links:?}", s.links));
    }
    if s.probe_hop_packets == 0 {
        errors.push("no probe packet crossed any link of the shards".to_string());
    }
    errors
}

pub struct MeshShards {
    scale: Scale,
}

impl MeshShards {
    fn new(ctx: &Ctx) -> MeshShards {
        MeshShards {
            // The paper cell has no smaller sibling with the same shape;
            // the smoke run takes the quick one (k = 4).
            scale: match ctx.size {
                Size::Full => Scale::Paper,
                Size::Smoke => Scale::Quick,
            },
        }
    }

    /// Links ≡ 0 (mod SHARDS) of the paper fabric.
    fn want_links(&self) -> Option<u64> {
        (self.scale == Scale::Paper).then_some(PAPER_LINKS.div_ceil(SHARDS) as u64)
    }
}

pub fn setup_shards(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(MeshShards::new(ctx)))
}

impl Workload for MeshShards {
    fn pass(&mut self, tracer: &mut Tracer) -> Outcome {
        let span = tracer.begin("experiments", "mesh::cell_shard");
        let shard = cell_shard(SchedulerKind::Wtp, self.scale, 0, SHARDS);
        tracer.end(span);
        // A fold of one: the merge is part of what a worker's result
        // goes through.
        let total = merge_shards(&[shard]);

        let mut digest = Digest::new();
        digest.words(&[total.links, total.departures]);
        digest.words(&total.class_hop_packets);
        digest.words(&total.class_hop_wait_sum);
        digest.words(&total.probe_wait_sum);
        digest.words(&total.probe_hop_packets);
        let s = ShardSummary {
            links: total.links,
            departures: total.departures,
            class_hop_packets: total.class_hop_packets.iter().sum(),
            probe_hop_packets: total.probe_hop_packets.iter().sum(),
            digest: digest.finish(),
        };
        Outcome {
            units: s.departures,
            digest: s.digest,
            errors: check_shards(&s, self.want_links()),
        }
    }
}

pub fn ladder(ctx: &Ctx, tracer: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    let outer = tracer.begin("harness", "ladder.mesh-coupled");
    let w = MeshCoupled::new(ctx)?;
    let (lowered, secs) = tracer.time("netsim", "TopologyConfig::to_mesh", || w.cfg.to_mesh());
    let lowered = lowered?;
    layers.put("netsim.lower_s", secs);
    let (out, secs) = tracer.time("netsim", "Session::mesh.run", || {
        Session::mesh(&lowered).run()
    });
    let s = w.summarize(&out.per_flow_waits, &out.link_departures);
    layers.errors.extend(check_coupled(&s));
    layers.put("netsim.coupled_hops", s.link_departures as f64);
    layers.put("netsim.coupled_ns_per_hop", ns_per(secs, s.link_departures));
    drop((out, lowered, w));
    tracer.end(outer);

    let outer = tracer.begin("harness", "ladder.mesh-shards");
    let shards = MeshShards::new(ctx);
    let k = if shards.scale == Scale::Paper {
        10
    } else {
        COUPLED_K
    };
    let spec = link_spec();
    let (built, secs) = tracer.time("netsim", "Topology::fat_tree+routes", || {
        Topology::fat_tree(k, &spec).map(|t| {
            let routes = t.routes();
            (t, routes)
        })
    });
    drop(built?);
    layers.put("netsim.fat_tree_build_s", secs);

    // One shard taken apart: config, decomposition input, then one span
    // per link simulation over links ≡ 0 (mod SHARDS).
    let (cfg, config_s) = tracer.time("experiments", "mesh::cell_config", || {
        cell_config(SchedulerKind::Wtp, shards.scale)
    });
    layers.put("experiments.mesh_cell_config_s", config_s);
    let (input, input_s) = tracer.time("netsim", "DecomposeInput::new", || {
        DecomposeInput::new(&cfg)
    });
    let input = input?;
    layers.put("netsim.decomp_input_s", input_s);
    let links_span = tracer.begin("harness", "links");
    let (mut link_s, mut hops) = (0.0, 0u64);
    for link in (0..input.num_links()).step_by(SHARDS) {
        let (report, secs) = tracer.time("netsim", "DecomposeInput::link_report", || {
            input.link_report(link)
        });
        link_s += secs;
        hops += report.departures;
    }
    tracer.end(links_span);
    drop((input, cfg));
    layers.put("netsim.shard_hops", hops as f64);
    layers.put("netsim.decomp_link_ns_per_hop", ns_per(link_s, hops));

    // The same shard through its front door, for the share of it that
    // was link simulation.
    let (shard, shard_s) = tracer.time("experiments", "mesh::cell_shard.0", || {
        cell_shard(SchedulerKind::Wtp, shards.scale, 0, SHARDS)
    });
    layers.check(shard.departures == hops, || {
        format!(
            "cell_shard transmitted {} packets, its links one by one {hops}",
            shard.departures
        )
    });
    layers.put("experiments.mesh_shard_s", shard_s);
    layers.put("netsim.decomp_useful_share", link_s / shard_s);
    tracer.end(outer);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_coupled_pass_conserves_hops_and_repeats() {
        let mut w = MeshCoupled::new(&Ctx::smoke(1)).unwrap();
        let mut t = Tracer::new(false);
        let a = w.pass(&mut t);
        assert_eq!(a.errors, Vec::<String>::new());
        assert!(a.units > 0);
        assert_eq!(w.pass(&mut t), a);
        let other = MeshCoupled::new(&Ctx::smoke(2)).unwrap().pass(&mut t);
        assert_ne!(other.digest, a.digest);
    }

    #[test]
    fn lost_hops_and_short_probes_fail_the_pass() {
        let good = CoupledSummary {
            link_departures: 10,
            routed_hops: 10,
            short_probes: 0,
            digest: 1,
        };
        assert!(check_coupled(&good).is_empty());
        let lost = CoupledSummary {
            link_departures: 9,
            ..good.clone()
        };
        assert!(check_coupled(&lost)[0].contains("account for"));
        let short = CoupledSummary {
            short_probes: 3,
            ..good
        };
        assert!(check_coupled(&short)[0].contains("3 probe flows"));
    }

    #[test]
    fn a_shard_pass_is_correct_and_repeats() {
        let mut t = Tracer::new(true);
        let mut w = MeshShards::new(&Ctx::smoke(1));
        let a = w.pass(&mut t);
        assert_eq!(a.errors, Vec::<String>::new());
        assert!(a.units > 0);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(w.pass(&mut Tracer::new(false)), a);
    }

    #[test]
    fn unbalanced_shards_fail_the_pass() {
        let good = ShardSummary {
            links: 750,
            departures: 100,
            class_hop_packets: 100,
            probe_hop_packets: 40,
            digest: 1,
        };
        assert!(check_shards(&good, Some(750)).is_empty());
        assert!(check_shards(&good, None).is_empty());
        assert_eq!(check_shards(&good, Some(375)).len(), 1);
        let leaky = ShardSummary {
            class_hop_packets: 99,
            probe_hop_packets: 0,
            ..good
        };
        assert_eq!(check_shards(&leaky, Some(750)).len(), 2);
    }
}
