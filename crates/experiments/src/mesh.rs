//! Datacenter-mesh experiment: PDD over a fat-tree fabric, simulated by
//! link-level decomposition.
//!
//! The cell builds a k-ary fat-tree ([`pdd::netsim::Topology::fat_tree`])
//! whose links all run the same scheduler, loads every link with the
//! paper's Pareto cross-traffic mix at a fixed utilization, and overlays a
//! large population of host-to-host *probe flows* routed by hashed ECMP.
//! The whole fabric is then simulated with the decomposition engine
//! ([`pdd::netsim::decompose`]): one independent single-link simulation
//! per link, composed into per-class per-hop and end-to-end delay
//! statistics.
//!
//! Decomposition makes the cell embarrassingly parallel — the unit of
//! work is the *link*, not the packet — so it shards by link with
//! byte-identical results: [`cell_shard`] computes the aggregate over
//! links `l ≡ shard (mod shards)`, drawing only those links' arrivals, and
//! [`merge_shards`] folds the shard aggregates in shard order. Every
//! aggregate field is an integer sum, so the fold is exact and
//! transport-safe; the runner executes the shards on threads or worker
//! processes alike.
//!
//! The headline numbers are the per-class mean *per-hop* waits (which
//! Eq. 2 predicts follow the SDP spacing) and the per-class mean
//! *end-to-end* waits of the probe flows (the composition-law output).

use pdd::netsim::decompose::DecomposeInput;
use pdd::netsim::mesh::{FlowModel, MeshConfig};
use pdd::netsim::topology::splitmix64;
use pdd::netsim::{CrossTraffic, HostFlow, LinkSpec, Topology, TopologyConfig};
use pdd::sched::{RankKind, SchedulerKind, Sdp};
use pdd::telemetry::json::Json;

use crate::cell::{self, Cell, Merged, Partial};
use crate::Scale;

/// Schedulers the mesh suite sweeps: the paper's WTP, its HPD refinement,
/// and WTP again under its rank-core name — one scheduler, two published
/// cells, so the suite doubles as a check that the two names agree at
/// fabric scale.
pub const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Wtp,
    SchedulerKind::Hpd,
    SchedulerKind::Pifo(RankKind::Wtp),
];

/// Process-shard count of a mesh cell: links are dealt round-robin to a
/// fixed number of shards (part of the shard-cache key via
/// [`Cell::shard_count`]), so the farm and the threaded runner replay
/// identical partials at every scale.
pub const SHARDS: usize = 4;

/// Packets per probe flow (a short request/response-sized burst).
pub const PROBE_PACKETS: u32 = 2;

/// Seed for probe-flow placement and ECMP route hashing.
const MESH_SEED: u64 = 0x4D45_5348; // "MESH"

/// Scale-derived dimensions of the mesh cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshDims {
    /// Fat-tree arity (k pods, 3k³/2 unidirectional links, k³/4 hosts).
    pub k: usize,
    /// Number of host-to-host probe flows.
    pub probe_flows: usize,
    /// Probe packet size in bytes (small, so a million-flow overlay adds
    /// load without overrunning the cross-traffic operating point).
    pub probe_bytes: u32,
    /// Gap between a probe flow's packets, ticks.
    pub probe_gap_ticks: u64,
    /// Link capacity, bits per second.
    pub link_bps: f64,
    /// Per-link cross-traffic utilization (paper Pareto mix).
    pub cross_utilization: f64,
    /// Cross-traffic materialization horizon, ticks. Probe starts are
    /// staggered over the first half of this window.
    pub horizon_ticks: u64,
}

/// The mesh cell's dimensions at `scale`.
///
/// Paper scale is the acceptance configuration: a k = 10 fat-tree
/// (1500 links, 250 hosts) carrying one million probe flows over the
/// Pareto cross traffic. Quick and bench scales shrink to k = 4
/// (96 links) so the suite stays interactive; `Custom` maps the p-unit
/// knob onto the horizon and the flow count.
pub fn dims(scale: Scale) -> MeshDims {
    let base = MeshDims {
        k: 4,
        probe_flows: 2_000,
        probe_bytes: 100,
        probe_gap_ticks: 500_000,
        link_bps: 1e9,
        cross_utilization: 0.55,
        horizon_ticks: 10_000_000,
    };
    match scale {
        Scale::Paper => MeshDims {
            k: 10,
            probe_flows: 1_000_000,
            probe_gap_ticks: 1_000_000,
            horizon_ticks: 50_000_000,
            ..base
        },
        Scale::Quick => base,
        Scale::Bench => MeshDims {
            probe_flows: 400,
            horizon_ticks: 2_000_000,
            ..base
        },
        Scale::Custom { punits, .. } => {
            let horizon = (punits.clamp(100, 100_000)) * 1_000;
            MeshDims {
                probe_flows: (punits / 4).clamp(50, 5_000) as usize,
                probe_gap_ticks: (horizon / 20).max(1),
                horizon_ticks: horizon,
                ..base
            }
        }
    }
}

/// Builds the cell's lowered [`MeshConfig`]: fat-tree + cross traffic +
/// ECMP-routed probe flows, fully deterministic in `(kind, scale)`.
///
/// Probe flow `i` picks its endpoints and start by hashing `i` with
/// [`splitmix64`] (no stateful RNG, so placement is independent of
/// evaluation order), cycles classes round-robin, and is routed by the
/// topology's hashed-ECMP contract with flow id `i`.
pub fn cell_config(kind: SchedulerKind, scale: Scale) -> MeshConfig {
    let d = dims(scale);
    let sdp = Sdp::paper_default();
    let spec = LinkSpec::new(d.link_bps, kind).with_cross(CrossTraffic::paper(d.cross_utilization));
    let topology = Topology::fat_tree(d.k, &spec).expect("even arity");
    let hosts = topology.hosts();
    let h = hosts.len() as u64;
    let nc = sdp.num_classes();
    let stagger = (d.horizon_ticks / 2).max(1);
    let flows = (0..d.probe_flows)
        .map(|i| {
            let key = splitmix64(MESH_SEED ^ i as u64);
            let src = hosts[(key % h) as usize];
            let dst = hosts[((key % h + 1 + splitmix64(key) % (h - 1)) % h) as usize];
            HostFlow {
                src,
                dst,
                class: (i % nc) as u8,
                packet_bytes: d.probe_bytes,
                model: FlowModel::Periodic {
                    gap_ticks: d.probe_gap_ticks,
                    count: PROBE_PACKETS,
                },
                start_ticks: 1 + splitmix64(key ^ 0xABCD) % stagger,
            }
        })
        .collect();
    TopologyConfig {
        topology,
        sdp,
        flows,
        seed: MESH_SEED,
        cross_horizon_ticks: d.horizon_ticks,
    }
    .to_mesh()
    .expect("generated mesh is valid by construction")
}

/// One shard's (or the whole cell's) aggregate: integer sums over a set
/// of links, exactly additive across disjoint link sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshShard {
    /// Links this aggregate covers.
    pub links: u64,
    /// Packet transmissions (packet-hops) on those links.
    pub departures: u64,
    /// Per-class packet-hop counts.
    pub class_hop_packets: Vec<u64>,
    /// Per-class total per-hop wait, ticks.
    pub class_hop_wait_sum: Vec<u64>,
    /// Per-class total wait of *probe-flow* packets on these links, ticks
    /// (summing a flow's route segments across shards reassembles its
    /// end-to-end wait exactly).
    pub probe_wait_sum: Vec<u64>,
    /// Per-class probe packet-hop counts on these links.
    pub probe_hop_packets: Vec<u64>,
}

impl MeshShard {
    fn empty(nc: usize) -> MeshShard {
        MeshShard {
            links: 0,
            departures: 0,
            class_hop_packets: vec![0; nc],
            class_hop_wait_sum: vec![0; nc],
            probe_wait_sum: vec![0; nc],
            probe_hop_packets: vec![0; nc],
        }
    }

    fn add(&mut self, other: &MeshShard) {
        self.links += other.links;
        self.departures += other.departures;
        for c in 0..self.class_hop_packets.len() {
            self.class_hop_packets[c] += other.class_hop_packets[c];
            self.class_hop_wait_sum[c] += other.class_hop_wait_sum[c];
            self.probe_wait_sum[c] += other.probe_wait_sum[c];
            self.probe_hop_packets[c] += other.probe_hop_packets[c];
        }
    }
}

/// Computes shard `shard` of `shards`: the aggregate over links
/// `l ≡ shard (mod shards)`. A pure function of its arguments — the farm
/// runs shards in separate processes and the fold reproduces the
/// monolithic cell bit-for-bit because every field is an integer sum over
/// a disjoint link set.
pub fn cell_shard(kind: SchedulerKind, scale: Scale, shard: usize, shards: usize) -> MeshShard {
    assert!(shard < shards, "shard {shard} out of range ({shards})");
    let cfg = cell_config(kind, scale);
    let n_probe = dims(scale).probe_flows as u32;
    let input = DecomposeInput::new(&cfg).expect("generated mesh is valid");
    let nc = cfg.sdp.num_classes();
    let mut agg = MeshShard::empty(nc);
    for l in (shard..input.num_links()).step_by(shards) {
        let r = input.link_report(l);
        agg.links += 1;
        agg.departures += r.departures;
        for c in 0..nc {
            agg.class_hop_packets[c] += r.class_packets[c];
            agg.class_hop_wait_sum[c] += r.class_wait_sum[c];
        }
        for &(f, sum, n) in &r.flow_wait {
            if f < n_probe {
                let c = cfg.flows[f as usize].class as usize;
                agg.probe_wait_sum[c] += sum;
                agg.probe_hop_packets[c] += n;
            }
        }
    }
    agg
}

/// Folds shard aggregates **in shard order** into the cell total.
pub fn merge_shards(shards: &[MeshShard]) -> MeshShard {
    let nc = shards.first().map_or(0, |s| s.class_hop_packets.len());
    let mut total = MeshShard::empty(nc);
    for s in shards {
        total.add(s);
    }
    total
}

/// One row of the mesh study: the merged aggregate turned into the
/// headline statistics.
#[derive(Debug, Clone)]
pub struct MeshRow {
    /// The scheduler every link ran.
    pub scheduler: SchedulerKind,
    /// Links in the fabric.
    pub links: u64,
    /// Total flows simulated (probe + materialized cross sources).
    pub flows: u64,
    /// Probe flows.
    pub probe_flows: u64,
    /// Packet transmissions summed over all links.
    pub packet_hops: u64,
    /// Per-class mean per-hop queueing wait, ticks.
    pub class_mean_hop_wait: Vec<f64>,
    /// Per-class mean end-to-end queueing wait of probe flows, ticks.
    pub class_mean_e2e: Vec<f64>,
}

impl MeshRow {
    /// Adjacent-class ratios of a per-class series (Eq. 2 targets the SDP
    /// spacing — 2.0 for the paper default).
    fn ratios(series: &[f64]) -> Vec<f64> {
        series
            .windows(2)
            .map(|w| if w[1] > 0.0 { w[0] / w[1] } else { f64::NAN })
            .collect()
    }

    /// Adjacent-class per-hop wait ratios.
    pub fn hop_ratios(&self) -> Vec<f64> {
        Self::ratios(&self.class_mean_hop_wait)
    }

    /// Adjacent-class end-to-end wait ratios.
    pub fn e2e_ratios(&self) -> Vec<f64> {
        Self::ratios(&self.class_mean_e2e)
    }
}

/// Derives the [`MeshRow`] from a merged cell aggregate.
///
/// `flows` is recomputed from the deterministic cell config; per-class
/// probe-flow counts likewise (classes cycle round-robin over the probe
/// index), so the row needs nothing but the integer aggregate.
pub fn cell_row(kind: SchedulerKind, scale: Scale, total: &MeshShard) -> MeshRow {
    let cfg = cell_config(kind, scale);
    let d = dims(scale);
    let nc = cfg.sdp.num_classes();
    let class_mean_hop_wait = (0..nc)
        .map(|c| {
            if total.class_hop_packets[c] == 0 {
                0.0
            } else {
                total.class_hop_wait_sum[c] as f64 / total.class_hop_packets[c] as f64
            }
        })
        .collect();
    // Probe flow i has class i % nc and PROBE_PACKETS packets per hop, so
    // the mean over class-c flows of (flow e2e wait sum / packets) is the
    // class wait sum over PROBE_PACKETS × (number of class-c flows).
    let class_mean_e2e = (0..nc)
        .map(|c| {
            let flows_c = (d.probe_flows + nc - 1 - c) / nc;
            let denom = (PROBE_PACKETS as u64 * flows_c as u64) as f64;
            if denom == 0.0 {
                0.0
            } else {
                total.probe_wait_sum[c] as f64 / denom
            }
        })
        .collect();
    MeshRow {
        scheduler: kind,
        links: total.links,
        flows: cfg.flows.len() as u64,
        probe_flows: d.probe_flows as u64,
        packet_hops: total.departures,
        class_mean_hop_wait,
        class_mean_e2e,
    }
}

/// One scheduler's decomposed fat-tree fabric cell (links dealt
/// round-robin across [`SHARDS`] process shards).
struct MeshCell {
    kind: SchedulerKind,
}

/// The study's grid: one cell per scheduler in [`SCHEDULERS`].
pub fn cells() -> Vec<Box<dyn Cell>> {
    SCHEDULERS
        .iter()
        .map(|&kind| Box::new(MeshCell { kind }) as Box<dyn Cell>)
        .collect()
}

impl Cell for MeshCell {
    fn id(&self) -> String {
        format!("mesh-{}", cell::kind_slug(self.kind))
    }

    fn params(&self) -> Json {
        // The fabric dimensions are scale-derived at execution time;
        // keying the quick-scale shape here means any change to the
        // generator invalidates cached results.
        cell::params(
            "mesh",
            vec![
                ("scheduler", Json::Str(self.kind.name().into())),
                ("fat_tree_k", Json::Int(dims(Scale::Quick).k as i64)),
                ("probe_packets", Json::Int(PROBE_PACKETS as i64)),
            ],
        )
    }

    /// Mesh cells shard by link (round-robin), not by seed.
    fn shard_count(&self, _scale: Scale) -> usize {
        SHARDS
    }

    fn execute_shard(&self, scale: Scale, shard: usize) -> Partial {
        let s = cell_shard(self.kind, scale, shard, SHARDS);
        // Integer sums only, so transport is lossless by construction.
        let ints = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::uint(x)).collect());
        let partial = Json::obj(vec![
            ("links", Json::uint(s.links)),
            ("departures", Json::uint(s.departures)),
            ("class_hop_packets", ints(&s.class_hop_packets)),
            ("class_hop_wait_sum", ints(&s.class_hop_wait_sum)),
            ("probe_wait_sum", ints(&s.probe_wait_sum)),
            ("probe_hop_packets", ints(&s.probe_hop_packets)),
        ]);
        (partial, None)
    }

    fn merge(&self, scale: Scale, shards: &[Partial]) -> Result<Merged, String> {
        let id = self.id();
        let parts: Vec<MeshShard> = shards
            .iter()
            .map(|(p, _)| decode_shard(p, &id))
            .collect::<Result<_, String>>()?;
        let row = cell_row(self.kind, scale, &merge_shards(&parts));
        let result = Json::obj(vec![
            ("scheduler", Json::Str(row.scheduler.name().into())),
            ("links", Json::Int(row.links as i64)),
            ("flows", Json::Int(row.flows as i64)),
            ("probe_flows", Json::Int(row.probe_flows as i64)),
            ("packet_hops", Json::Int(row.packet_hops as i64)),
            ("class_mean_hop_wait", Json::nums(&row.class_mean_hop_wait)),
            ("class_mean_e2e", Json::nums(&row.class_mean_e2e)),
            ("hop_ratios", Json::nums(&row.hop_ratios())),
            ("e2e_ratios", Json::nums(&row.e2e_ratios())),
        ]);
        Ok((result, None))
    }
}

/// Decodes a mesh shard partial, rejecting anything malformed — a
/// negative count included — so the runner treats it as a cache miss.
fn decode_shard(partial: &Json, id: &str) -> Result<MeshShard, String> {
    let int = |field: &str| -> Result<u64, String> {
        partial
            .get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{id}: shard lacks `{field}`"))
    };
    let ints = |field: &str| -> Result<Vec<u64>, String> {
        partial
            .get(field)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{id}: shard lacks `{field}`"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("{id}: non-count entry in `{field}`"))
            })
            .collect()
    };
    Ok(MeshShard {
        links: int("links")?,
        departures: int("departures")?,
        class_hop_packets: ints("class_hop_packets")?,
        class_hop_wait_sum: ints("class_hop_wait_sum")?,
        probe_wait_sum: ints("probe_wait_sum")?,
        probe_hop_packets: ints("probe_hop_packets")?,
    })
}

/// The `mesh` block: fabric size and per-hop / end-to-end ratios per
/// scheduler.
pub fn table(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "mesh");
    if cells.is_empty() {
        return None;
    }
    let rows = cells
        .iter()
        .map(|c| {
            let r = cell::result(c);
            let int = |key: &str| r.get(key).and_then(Json::as_i64).unwrap_or(0);
            let mut row = vec![
                cell::scheduler_name(r),
                format!("{}", int("links")),
                format!("{}", int("flows")),
                format!("{}", int("packet_hops")),
            ];
            row.extend(cell::ratio_cells(r, "hop_ratios"));
            row.extend(cell::ratio_cells(r, "e2e_ratios"));
            row
        })
        .collect();
    Some(cell::markdown_table(
        &[
            "scheduler",
            "links",
            "flows",
            "packet-hops",
            "hop 1/2",
            "hop 2/3",
            "hop 3/4",
            "e2e 1/2",
            "e2e 2/3",
            "e2e 3/4",
        ],
        rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: Scale = Scale::Custom {
        punits: 2_000,
        nseeds: 1,
    };

    #[test]
    fn dims_scale_ladder_matches_the_fabric_arithmetic() {
        let paper = dims(Scale::Paper);
        assert_eq!(paper.k, 10);
        assert!(paper.probe_flows >= 1_000_000);
        let t = Topology::fat_tree(paper.k, &LinkSpec::new(paper.link_bps, SchedulerKind::Wtp))
            .unwrap();
        assert_eq!(t.links().len(), 1500, "paper cell spans >= 1k links");
        assert_eq!(t.hosts().len(), 250);
        assert!(dims(Scale::Bench).probe_flows < dims(Scale::Quick).probe_flows);
    }

    #[test]
    fn cell_config_is_deterministic_and_carries_cross_flows() {
        let a = cell_config(SchedulerKind::Wtp, SCALE);
        let b = cell_config(SchedulerKind::Wtp, SCALE);
        assert_eq!(a.flows.len(), b.flows.len());
        let d = dims(SCALE);
        assert!(a.flows.len() > d.probe_flows, "cross traffic materialized");
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!(fa.route, fb.route);
            assert_eq!(fa.start_ticks, fb.start_ticks);
        }
        // Probe flows are host-to-host (multi-hop); cross flows one hop.
        assert!(a.flows[0].route.len() >= 2);
        assert_eq!(a.flows[d.probe_flows].route.len(), 1);
    }

    #[test]
    fn shards_fold_to_the_monolithic_aggregate() {
        let kind = SchedulerKind::Wtp;
        let whole = cell_shard(kind, SCALE, 0, 1);
        let parts: Vec<MeshShard> = (0..SHARDS)
            .map(|s| cell_shard(kind, SCALE, s, SHARDS))
            .collect();
        assert_eq!(merge_shards(&parts), whole);
    }

    /// FNV-1a over every field of the quick-scale WTP cell's four shard
    /// aggregates, captured while the decomposition precomputed every
    /// flow's emissions into one whole-fabric table.
    const PINNED_DECOMPOSED_QUICK_SHARDS: u64 = 0x084e_cc3f_d284_c0bc;

    #[test]
    fn quick_shard_aggregates_are_pinned() {
        let digest = (0..SHARDS)
            .map(|s| cell_shard(SchedulerKind::Wtp, Scale::Quick, s, SHARDS))
            .flat_map(|s| {
                let mut w = vec![s.links, s.departures];
                w.extend(s.class_hop_packets.iter().chain(&s.class_hop_wait_sum));
                w.extend(s.probe_wait_sum.iter().chain(&s.probe_hop_packets));
                w
            })
            .fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
                (w.to_le_bytes().iter()).fold(h, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                })
            });
        assert_eq!(
            digest, PINNED_DECOMPOSED_QUICK_SHARDS,
            "digest {digest:#018x}"
        );
    }

    #[test]
    fn a_negative_count_is_a_cache_miss() {
        let shard = |links: i64| {
            let zeros = Json::Arr(vec![Json::Int(0); 4]);
            let partial = Json::obj(vec![
                ("links", Json::Int(links)),
                ("departures", Json::Int(0)),
                ("class_hop_packets", zeros.clone()),
                ("class_hop_wait_sum", zeros.clone()),
                ("probe_wait_sum", zeros.clone()),
                ("probe_hop_packets", zeros),
            ]);
            (partial, None)
        };
        let cell = MeshCell {
            kind: SchedulerKind::Wtp,
        };
        assert!(cell.merge(SCALE, &[shard(1), shard(0)]).is_ok());
        let err = cell.merge(SCALE, &[shard(1), shard(-1)]).unwrap_err();
        assert!(err.contains("`links`"), "{err}");
    }

    #[test]
    fn probe_classes_see_differentiated_waits() {
        let shards: Vec<MeshShard> = (0..SHARDS)
            .map(|s| cell_shard(SchedulerKind::Wtp, SCALE, s, SHARDS))
            .collect();
        let row = cell_row(SchedulerKind::Wtp, SCALE, &merge_shards(&shards));
        assert_eq!(row.links, 96);
        assert!(row.packet_hops > 0);
        assert!(
            row.class_mean_hop_wait[0] > row.class_mean_hop_wait[3],
            "class 1 must wait longer per hop than class 4: {:?}",
            row.class_mean_hop_wait
        );
        assert!(
            row.class_mean_e2e[0] > row.class_mean_e2e[3],
            "end-to-end differentiation must survive composition: {:?}",
            row.class_mean_e2e
        );
    }
}
