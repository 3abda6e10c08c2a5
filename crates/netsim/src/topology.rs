//! Datacenter topology generators and deterministic ECMP routing.
//!
//! A [`Topology`] is a set of nodes and unidirectional [`TopoLink`]s, each
//! link carrying the shared [`LinkSpec`]. The generators build the two
//! classic datacenter fabrics:
//!
//! * [`Topology::fat_tree`] — the k-ary fat-tree: k pods of k/2 edge and
//!   k/2 aggregation switches, (k/2)² cores, k³/4 hosts, 3k³/2
//!   unidirectional links (k = 4 → 96 links, k = 10 → 1500 links);
//! * [`Topology::leaf_spine`] — the two-tier Clos: every leaf connects to
//!   every spine, hosts hang off leaves.
//!
//! Routing is shortest-path ECMP with a *deterministic hash*: among the
//! equal-cost next hops at node `n` (ordered by ascending link index), a
//! flow keyed `(seed, flow_id)` picks
//!
//! ```text
//! candidates[splitmix64(splitmix64(seed ^ flow_id) ^ n) % candidates.len()]
//! ```
//!
//! so the route depends only on `(topology, seed, flow_id)` — never on
//! iteration order, thread count, or a stateful RNG. This is the
//! route-hash contract the decomposition engine and the conformance suite
//! rely on (see ARCHITECTURE.md).
//!
//! [`TopologyConfig`] bundles a topology with host-to-host [`HostFlow`]s
//! and lowers to a [`MeshConfig`] ([`TopologyConfig::to_mesh`]), which
//! [`Session::topology`](crate::Session::topology) runs exactly or the
//! [`decompose`](crate::decompose) engine approximates link-by-link.

use sched::Sdp;

use crate::link::LinkSpec;
use crate::mesh::{FlowModel, MeshConfig, MeshFlow};

/// The role of a node in a generated fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A traffic end point.
    Host,
    /// Fat-tree edge (top-of-rack) switch.
    Edge,
    /// Fat-tree aggregation switch.
    Aggregation,
    /// Fat-tree core switch.
    Core,
    /// Leaf-spine leaf switch.
    Leaf,
    /// Leaf-spine spine switch.
    Spine,
}

/// One unidirectional link of a topology: an edge `src → dst` plus the
/// shared per-link description.
#[derive(Debug, Clone)]
pub struct TopoLink {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Capacity, scheduler, propagation, optional cross traffic.
    pub spec: LinkSpec,
}

/// A directed graph of [`TopoLink`]s over typed nodes.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    links: Vec<TopoLink>,
    /// `adj[n]` = outgoing link indices of node `n`, ascending.
    adj: Vec<Vec<usize>>,
}

/// SplitMix64's finalizer: the route-hash primitive. Public so external
/// tooling can predict route choices.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Topology {
    /// Builds a topology from explicit nodes and links, rejecting
    /// self-loops, dangling endpoints, and duplicate `(src, dst)` pairs.
    pub fn new(nodes: Vec<NodeKind>, links: Vec<TopoLink>) -> Result<Topology, String> {
        let n = nodes.len();
        if n == 0 {
            return Err("topology needs at least one node".into());
        }
        let mut seen = std::collections::HashSet::new();
        for (i, l) in links.iter().enumerate() {
            if l.src >= n || l.dst >= n {
                return Err(format!(
                    "link {i} ({} -> {}) references a node outside the topology",
                    l.src, l.dst
                ));
            }
            if l.src == l.dst {
                return Err(format!("link {i} is a self-loop on node {}", l.src));
            }
            if !seen.insert((l.src, l.dst)) {
                return Err(format!(
                    "duplicate link {} -> {} (link ids must be unique per direction)",
                    l.src, l.dst
                ));
            }
        }
        let mut adj = vec![Vec::new(); n];
        for (i, l) in links.iter().enumerate() {
            adj[l.src].push(i);
        }
        Ok(Topology { nodes, links, adj })
    }

    /// The k-ary fat-tree (k even, ≥ 2): k pods × (k/2 edge + k/2 agg)
    /// switches, (k/2)² cores, (k/2)² hosts per pod. Node order: hosts,
    /// then edges, aggs, cores; every adjacency gets both directions with
    /// the same `spec`.
    pub fn fat_tree(k: usize, spec: &LinkSpec) -> Result<Topology, String> {
        if k < 2 || !k.is_multiple_of(2) {
            return Err(format!("fat-tree arity must be even and >= 2, got {k}"));
        }
        let half = k / 2;
        let hosts = k * half * half;
        let edges = k * half;
        let aggs = k * half;
        let cores = half * half;
        let mut nodes = Vec::with_capacity(hosts + edges + aggs + cores);
        nodes.extend(std::iter::repeat_n(NodeKind::Host, hosts));
        nodes.extend(std::iter::repeat_n(NodeKind::Edge, edges));
        nodes.extend(std::iter::repeat_n(NodeKind::Aggregation, aggs));
        nodes.extend(std::iter::repeat_n(NodeKind::Core, cores));
        let edge0 = hosts;
        let agg0 = hosts + edges;
        let core0 = hosts + edges + aggs;
        let mut links = Vec::new();
        let mut both = |a: usize, b: usize| {
            links.push(TopoLink {
                src: a,
                dst: b,
                spec: spec.clone(),
            });
            links.push(TopoLink {
                src: b,
                dst: a,
                spec: spec.clone(),
            });
        };
        for p in 0..k {
            for j in 0..half {
                let edge = edge0 + p * half + j;
                // Hosts under this edge switch.
                for m in 0..half {
                    both(p * half * half + j * half + m, edge);
                }
                // Full bipartite edge ↔ agg inside the pod.
                for a in 0..half {
                    both(edge, agg0 + p * half + a);
                }
            }
            // Agg j of every pod reaches cores [j·k/2, (j+1)·k/2).
            for j in 0..half {
                let agg = agg0 + p * half + j;
                for c in 0..half {
                    both(agg, core0 + j * half + c);
                }
            }
        }
        Topology::new(nodes, links)
    }

    /// A two-tier leaf-spine Clos: `hosts_per_leaf` hosts per leaf, every
    /// leaf connected to every spine. Node order: hosts, leaves, spines.
    pub fn leaf_spine(
        leaves: usize,
        spines: usize,
        hosts_per_leaf: usize,
        spec: &LinkSpec,
    ) -> Result<Topology, String> {
        if leaves == 0 || spines == 0 || hosts_per_leaf == 0 {
            return Err("leaf-spine needs at least one leaf, spine, and host per leaf".into());
        }
        let hosts = leaves * hosts_per_leaf;
        let mut nodes = Vec::with_capacity(hosts + leaves + spines);
        nodes.extend(std::iter::repeat_n(NodeKind::Host, hosts));
        nodes.extend(std::iter::repeat_n(NodeKind::Leaf, leaves));
        nodes.extend(std::iter::repeat_n(NodeKind::Spine, spines));
        let leaf0 = hosts;
        let spine0 = hosts + leaves;
        let mut links = Vec::new();
        let mut both = |a: usize, b: usize| {
            links.push(TopoLink {
                src: a,
                dst: b,
                spec: spec.clone(),
            });
            links.push(TopoLink {
                src: b,
                dst: a,
                spec: spec.clone(),
            });
        };
        for l in 0..leaves {
            for h in 0..hosts_per_leaf {
                both(l * hosts_per_leaf + h, leaf0 + l);
            }
            for s in 0..spines {
                both(leaf0 + l, spine0 + s);
            }
        }
        Topology::new(nodes, links)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node roles, indexed by node id.
    pub fn nodes(&self) -> &[NodeKind] {
        &self.nodes
    }

    /// The links, indexed by link id (= [`MeshConfig`] link index after
    /// lowering).
    pub fn links(&self) -> &[TopoLink] {
        &self.links
    }

    /// Node ids of every [`NodeKind::Host`], ascending.
    pub fn hosts(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&n| self.nodes[n] == NodeKind::Host)
            .collect()
    }

    /// All-destinations BFS distances for ECMP routing. O(V·(V+E)) — fine
    /// for fabrics of thousands of links.
    pub fn routes(&self) -> Routes {
        let n = self.nodes.len();
        // Incoming adjacency for the reverse BFS from each destination.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for l in &self.links {
            rev[l.dst].push(l.src);
        }
        let mut dist = vec![vec![u32::MAX; n]; n];
        let mut queue = std::collections::VecDeque::new();
        for d in 0..n {
            let dd = &mut dist[d];
            dd[d] = 0;
            queue.clear();
            queue.push_back(d);
            while let Some(v) = queue.pop_front() {
                for &u in &rev[v] {
                    if dd[u] == u32::MAX {
                        dd[u] = dd[v] + 1;
                        queue.push_back(u);
                    }
                }
            }
        }
        Routes { dist }
    }

    /// The ECMP route for flow `flow_id` under `seed`, as a sequence of
    /// link ids from `src` to `dst`. `None` if `dst` is unreachable. Obeys
    /// the route-hash contract in the module docs.
    pub fn route(
        &self,
        routes: &Routes,
        src: usize,
        dst: usize,
        seed: u64,
        flow_id: u64,
    ) -> Option<Vec<usize>> {
        let dd = &routes.dist[dst];
        if src >= self.nodes.len() || dd[src] == u32::MAX {
            return None;
        }
        let key = splitmix64(seed ^ flow_id);
        let mut path = Vec::with_capacity(dd[src] as usize);
        let mut n = src;
        while n != dst {
            // Equal-cost next hops, in ascending link-id order (adjacency
            // lists are built in insertion order): counted, then the
            // hashed one taken on a second pass — no list is built.
            let next_hops = || {
                self.adj[n].iter().copied().filter(|&l| {
                    let m = self.links[l].dst;
                    dd[m] != u32::MAX && dd[m] + 1 == dd[n]
                })
            };
            let choice = splitmix64(key ^ n as u64) % next_hops().count() as u64;
            let pick = (next_hops().nth(choice as usize)).expect("choice is below the count");
            path.push(pick);
            n = self.links[pick].dst;
        }
        Some(path)
    }
}

/// Precomputed BFS distances (`dist[dst][node]`), produced by
/// [`Topology::routes`].
#[derive(Debug, Clone)]
pub struct Routes {
    dist: Vec<Vec<u32>>,
}

impl Routes {
    /// Hop count from `src` to `dst`, if reachable.
    pub fn hops(&self, src: usize, dst: usize) -> Option<u32> {
        match self.dist[dst][src] {
            u32::MAX => None,
            d => Some(d),
        }
    }
}

/// A host-to-host flow over a topology: routed by hashed ECMP when the
/// config lowers to a mesh.
#[derive(Debug, Clone)]
pub struct HostFlow {
    /// Source node id.
    pub src: usize,
    /// Destination node id.
    pub dst: usize,
    /// Service class.
    pub class: u8,
    /// Packet size in bytes.
    pub packet_bytes: u32,
    /// Emission model.
    pub model: FlowModel,
    /// Start of the first packet, ticks.
    pub start_ticks: u64,
}

/// A topology-level scenario: fabric + SDP + host flows. Lowers to a
/// [`MeshConfig`] via [`to_mesh`](TopologyConfig::to_mesh) — the single
/// code path both the exact engine and the decomposition consume.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// The fabric.
    pub topology: Topology,
    /// Scheduler Differentiation Parameters shared by all links.
    pub sdp: Sdp,
    /// Host-to-host flows.
    pub flows: Vec<HostFlow>,
    /// Seed for ECMP route hashing and Pareto emissions.
    pub seed: u64,
    /// Horizon for cross-traffic materialization (ticks). Required > 0 if
    /// any link carries a cross model.
    pub cross_horizon_ticks: u64,
}

impl TopologyConfig {
    /// Routes every flow (hashed ECMP, flow id = index), materializes
    /// link cross-traffic, and returns the validated [`MeshConfig`].
    pub fn to_mesh(&self) -> Result<MeshConfig, String> {
        let routes = self.topology.routes();
        let mut flows = Vec::with_capacity(self.flows.len());
        for (i, f) in self.flows.iter().enumerate() {
            if f.src >= self.topology.num_nodes() || f.dst >= self.topology.num_nodes() {
                return Err(format!("flow {i} references a node outside the topology"));
            }
            if f.src == f.dst {
                return Err(format!("flow {i} has identical src and dst ({})", f.src));
            }
            let route = self
                .topology
                .route(&routes, f.src, f.dst, self.seed, i as u64)
                .ok_or_else(|| format!("flow {i}: no route from {} to {}", f.src, f.dst))?;
            flows.push(MeshFlow {
                route,
                class: f.class,
                packet_bytes: f.packet_bytes,
                model: f.model,
                start_ticks: f.start_ticks,
            });
        }
        let cfg = MeshConfig {
            sdp: self.sdp.clone(),
            links: self
                .topology
                .links()
                .iter()
                .map(|l| l.spec.clone())
                .collect(),
            flows,
            seed: self.seed,
        };
        let has_cross = cfg.links.iter().any(|l| l.cross.is_some());
        if has_cross && self.cross_horizon_ticks == 0 {
            return Err(
                "cross_horizon_ticks must be positive when links carry cross traffic".into(),
            );
        }
        cfg.into_materialized(self.cross_horizon_ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::SchedulerKind;

    fn spec() -> LinkSpec {
        LinkSpec::new(25_000_000.0, SchedulerKind::Wtp)
    }

    #[test]
    fn fat_tree_arithmetic_matches_the_textbook() {
        for k in [2usize, 4, 6, 10] {
            let t = Topology::fat_tree(k, &spec()).unwrap();
            let hosts = k * k * k / 4;
            assert_eq!(t.hosts().len(), hosts, "k={k}");
            assert_eq!(t.links().len(), 3 * k * k * k / 2, "k={k}");
            assert_eq!(
                t.num_nodes(),
                hosts + k * k + k * k / 4,
                "k={k}: hosts + edge/agg + cores"
            );
        }
        assert!(Topology::fat_tree(3, &spec()).is_err());
        assert!(Topology::fat_tree(0, &spec()).is_err());
    }

    #[test]
    fn leaf_spine_wires_full_bipartite_core() {
        let t = Topology::leaf_spine(4, 2, 3, &spec()).unwrap();
        assert_eq!(t.hosts().len(), 12);
        // 12 host-leaf pairs + 8 leaf-spine pairs, both directions.
        assert_eq!(t.links().len(), 2 * (12 + 8));
    }

    #[test]
    fn builder_rejects_malformed_graphs() {
        let l = |src, dst| TopoLink {
            src,
            dst,
            spec: spec(),
        };
        let err = Topology::new(vec![NodeKind::Host; 2], vec![l(0, 5)]).unwrap_err();
        assert!(err.contains("outside the topology"), "{err}");
        let err = Topology::new(vec![NodeKind::Host; 2], vec![l(1, 1)]).unwrap_err();
        assert!(err.contains("self-loop"), "{err}");
        let err = Topology::new(vec![NodeKind::Host; 2], vec![l(0, 1), l(0, 1)]).unwrap_err();
        assert!(err.contains("duplicate link"), "{err}");
        assert!(Topology::new(vec![NodeKind::Host; 2], vec![l(0, 1), l(1, 0)]).is_ok());
    }

    #[test]
    fn routes_are_shortest_and_deterministic() {
        let t = Topology::fat_tree(4, &spec()).unwrap();
        let routes = t.routes();
        let hosts = t.hosts();
        let (a, b) = (hosts[0], *hosts.last().unwrap());
        // Different pods: host-edge-agg-core-agg-edge-host = 6 hops.
        assert_eq!(routes.hops(a, b), Some(6));
        let p1 = t.route(&routes, a, b, 42, 7).unwrap();
        let p2 = t.route(&routes, a, b, 42, 7).unwrap();
        assert_eq!(p1, p2, "same (seed, flow) must repeat the route");
        assert_eq!(p1.len(), 6);
        // The path is connected and ends at b.
        let mut n = a;
        for &l in &p1 {
            assert_eq!(t.links()[l].src, n);
            n = t.links()[l].dst;
        }
        assert_eq!(n, b);
        // Across many flow ids the hash must actually spread over ECMP
        // paths (4 core choices exist for inter-pod routes in k=4).
        let distinct: std::collections::HashSet<Vec<usize>> = (0..64)
            .map(|f| t.route(&routes, a, b, 42, f).unwrap())
            .collect();
        assert!(
            distinct.len() >= 3,
            "only {} distinct paths",
            distinct.len()
        );
    }

    #[test]
    fn same_leaf_routes_skip_the_spine() {
        let t = Topology::leaf_spine(2, 2, 2, &spec()).unwrap();
        let routes = t.routes();
        assert_eq!(routes.hops(0, 1), Some(2));
        let p = t.route(&routes, 0, 1, 0, 0).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn to_mesh_routes_and_validates() {
        let t = Topology::leaf_spine(2, 1, 1, &spec()).unwrap();
        let cfg = TopologyConfig {
            topology: t,
            sdp: Sdp::paper_default(),
            flows: vec![HostFlow {
                src: 0,
                dst: 1,
                class: 3,
                packet_bytes: 500,
                model: FlowModel::Periodic {
                    gap_ticks: 20_000_000,
                    count: 10,
                },
                start_ticks: 0,
            }],
            seed: 1,
            cross_horizon_ticks: 0,
        };
        let mesh = cfg.to_mesh().unwrap();
        assert_eq!(mesh.flows.len(), 1);
        // host0 -> leaf0 -> spine0 -> leaf1 -> host1 = 4 hops.
        assert_eq!(mesh.flows[0].route.len(), 4);
        let out = crate::Session::mesh(&mesh).run();
        assert_eq!(out.per_flow_waits[0].len(), 10);

        let mut bad = cfg.clone();
        bad.flows[0].dst = 0;
        assert!(bad.to_mesh().unwrap_err().contains("identical src and dst"));
        let mut bad = cfg.clone();
        bad.flows[0].dst = 99;
        assert!(bad.to_mesh().unwrap_err().contains("outside the topology"));
    }
}
