//! Property-test layer over the conformance checks: random workloads with
//! **shrinking**. Strategies deliberately avoid a top-level `prop_map`
//! (the shim cannot shrink through mapped values), so a failing case is
//! minimized — small vectors, small times — before it is printed.

use conformance::decompose::{
    packet_conservation, route_oracle, shard_invariance, SCENARIO_SCHEDULERS,
};
use conformance::fluid::bpr_service_lag;
use conformance::metamorphic::{
    conservation_audit, size_rescale_check, size_rescale_kinds, time_rescale_check,
    time_rescale_kinds,
};
use conformance::oracle::{diff_wtp, feasibility_witness, oracle_self_check};
use conformance::order::emission_order;
use conformance::Arrival;
use netsim::mesh::{FlowModel, MeshConfig, MeshFlow};
use netsim::{HostFlow, LinkSpec, Topology, TopologyConfig};
use proptest::prelude::*;
use sched::{SchedulerKind, Sdp};

/// Unsorted arrival tuples; the body sorts. Kept shrinkable end-to-end.
fn arrivals_strategy() -> impl Strategy<Value = Vec<Arrival>> {
    prop::collection::vec(
        (
            0u64..20_000,
            0u8..4,
            prop_oneof![Just(40u32), Just(550), Just(1500)],
        ),
        1..150,
    )
}

/// Uniform-size arrivals for the packet-weighted feasibility witness.
fn uniform_arrivals_strategy() -> impl Strategy<Value = Vec<(u64, u8)>> {
    prop::collection::vec((0u64..20_000, 0u8..4), 1..150)
}

/// Arrivals on a coarse 48-slot tick grid (scaled ×500 in the body):
/// same-tick multi-class batches — the zero-wait priority ties where
/// tie-break rules decide — occur in nearly every case. This is what lets
/// the oracle-diff property catch the `mutate-pifo-rank` flip.
fn tie_rich_strategy() -> impl Strategy<Value = Vec<Arrival>> {
    prop::collection::vec(
        (
            0u64..48,
            0u8..4,
            prop_oneof![Just(40u32), Just(550), Just(1500)],
        ),
        2..100,
    )
}

fn sorted(mut arrivals: Vec<Arrival>) -> Vec<Arrival> {
    arrivals.sort_by_key(|e| e.0);
    arrivals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The production WTP never diverges from the from-scratch oracle —
    /// per decision instant, per departure, via both replay paths.
    #[test]
    fn prop_wtp_matches_oracle(arrivals in arrivals_strategy()) {
        let arrivals = sorted(arrivals);
        if let Err(d) = diff_wtp(&Sdp::paper_default(), &arrivals, 1.0) {
            prop_assert!(false, "{d}");
        }
    }

    /// Same differential on tie-rich batched traffic. Under the seeded
    /// `mutated` feature this is the test that fails — and shrinks the
    /// workload down to a minimal same-tick pair before reporting it.
    #[test]
    fn prop_wtp_matches_oracle_on_tie_bursts(slots in tie_rich_strategy()) {
        let arrivals = sorted(slots.iter().map(|&(t, c, s)| (t * 500, c, s)).collect());
        if let Err(d) = diff_wtp(&Sdp::paper_default(), &arrivals, 1.0) {
            prop_assert!(false, "{d}");
        }
    }

    /// The oracle's own replay stays lossless, causal and class-FIFO.
    #[test]
    fn prop_oracle_self_check(arrivals in arrivals_strategy()) {
        let arrivals = sorted(arrivals);
        if let Err(e) = oracle_self_check(&Sdp::paper_default(), &arrivals) {
            prop_assert!(false, "{e}");
        }
    }

    /// Eq. 5: Σ size·wait and the busy-period end are scheduler-invariant.
    #[test]
    fn prop_conservation_across_all_kinds(arrivals in arrivals_strategy()) {
        let arrivals = sorted(arrivals);
        if let Err(e) = conservation_audit(&Sdp::paper_default(), &arrivals) {
            prop_assert!(false, "{e}");
        }
    }

    /// Fluid-BPR reconciliation: whatever the load, once the packetized
    /// run drains, the fluid server has served byte-identical per-class
    /// totals (work conservation leaves only float noise).
    #[test]
    fn prop_fluid_bpr_reconciles_when_drained(arrivals in arrivals_strategy()) {
        let arrivals = sorted(arrivals);
        let report = bpr_service_lag(&Sdp::paper_default(), &arrivals, 1.0);
        prop_assert!(
            report.end_lag_bytes <= 1e-3,
            "end lag {} bytes",
            report.end_lag_bytes
        );
    }

    /// Achieved mean delays are a feasible Eq. 7 point for every scheduler
    /// (uniform sizes: packet-weighted = byte-weighted).
    #[test]
    fn prop_achieved_delays_are_feasible(pairs in uniform_arrivals_strategy()) {
        let mut arrivals: Vec<Arrival> = pairs.iter().map(|&(t, c)| (t, c, 500)).collect();
        arrivals.sort_by_key(|e| e.0);
        for kind in SchedulerKind::ALL {
            if let Err(e) = feasibility_witness(kind, &Sdp::paper_default(), &arrivals) {
                prop_assert!(false, "{e}");
            }
        }
    }
}

/// Raw material for a random small leaf-spine scenario: fabric dims, an
/// SDP spacing knob, a scheduler pick, and unrouted flow tuples
/// `(src_pick, dst_hop, gap_step, phase)`. Plain tuples, so a failing
/// fabric shrinks toward one leaf, one spine, one flow.
type MeshCase = ((usize, usize, usize), u32, Vec<(u16, u16, u32, u32)>);

fn mesh_case_strategy() -> impl Strategy<Value = MeshCase> {
    (
        (1usize..4, 1usize..3, 1usize..3),
        0u32..6,
        prop::collection::vec((0u16..64, 0u16..64, 1u32..8, 0u32..1_000_000), 1..10),
    )
}

/// Lowers a [`MeshCase`] to a routed mesh. Gaps step in units of 200k
/// ticks (≈1.25 packet tx times at 25 Mbps), so dense cases overload
/// links — the conservation and sharding laws must hold regardless.
fn lower_case(case: &MeshCase, seed: u64) -> Result<netsim::mesh::MeshConfig, String> {
    let &((leaves, spines, hosts_per_leaf), sched_pick, ref raw) = case;
    let spec = LinkSpec::new(
        25_000_000.0,
        SCENARIO_SCHEDULERS[sched_pick as usize % SCENARIO_SCHEDULERS.len()],
    );
    // Guarantee at least two hosts so src != dst is satisfiable.
    let hosts_per_leaf = if leaves == 1 { 2 } else { hosts_per_leaf };
    let topology = Topology::leaf_spine(leaves, spines, hosts_per_leaf, &spec)?;
    let hosts = topology.hosts();
    let flows = raw
        .iter()
        .enumerate()
        .map(|(i, &(src_pick, dst_hop, gap_step, phase))| {
            let src = hosts[src_pick as usize % hosts.len()];
            let hop = 1 + dst_hop as usize % (hosts.len() - 1);
            let dst = hosts[(src_pick as usize + hop) % hosts.len()];
            HostFlow {
                src,
                dst,
                class: (i % 4) as u8,
                packet_bytes: 500,
                model: FlowModel::Periodic {
                    gap_ticks: 200_000 * gap_step as u64,
                    count: 8,
                },
                start_ticks: phase as u64,
            }
        })
        .collect();
    TopologyConfig {
        topology,
        sdp: Sdp::paper_default(),
        flows,
        seed,
        cross_horizon_ticks: 0,
    }
    .to_mesh()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Packet conservation is a theorem, not a tolerance: on any random
    /// fabric at any load (including overload), exact and decomposed
    /// engines transmit identical per-link and per-flow packet counts.
    #[test]
    fn prop_mesh_packet_conservation(case in mesh_case_strategy(), seed in 0u64..1_000) {
        let cfg = lower_case(&case, seed).expect("case lowers");
        if let Err(e) = packet_conservation(&cfg) {
            prop_assert!(false, "{e}");
        }
    }

    /// Link reports computed under any shard partition compose
    /// bit-identically to the serial run on any random fabric.
    #[test]
    fn prop_mesh_shard_invariance(case in mesh_case_strategy(), seed in 0u64..1_000) {
        let cfg = lower_case(&case, seed).expect("case lowers");
        if let Err(e) = shard_invariance(&cfg, &[2, 3]) {
            prop_assert!(false, "{e}");
        }
    }

    /// Production ECMP routes match the from-scratch oracle on any random
    /// fabric and seed.
    #[test]
    fn prop_ecmp_route_oracle(
        leaves in 1usize..4,
        spines in 1usize..3,
        seed in 0u64..1_000,
    ) {
        let spec = LinkSpec::new(25_000_000.0, SchedulerKind::Wtp);
        let topology = Topology::leaf_spine(leaves, spines, 2, &spec).expect("valid dims");
        if let Err(e) = route_oracle(&topology, seed, 3) {
            prop_assert!(false, "{e}");
        }
    }
}

/// Raw material for a tie-heavy single-hop mesh, a tuple per flow:
/// `(periodic: 1, gap in tenths of a tick, start tick, link)`. Plain tuples,
/// so a failing mesh shrinks toward two flows that share one tick.
fn tie_mesh_strategy() -> impl Strategy<Value = Vec<(u8, u32, u64, usize)>> {
    prop::collection::vec((0u8..2, 10u32..30, 0u64..4, 0usize..3), 2..10)
}

/// Lowers [`tie_mesh_strategy`]'s tuples: flow `i` sends packets of
/// `i + 1` bytes ([`emission_order`] tells flows apart by them), Pareto
/// flows emit until tick 300, periodic ones 120 packets.
fn lower_tie_mesh(raw: &[(u8, u32, u64, usize)], seed: u64) -> MeshConfig {
    let flows = (raw.iter().enumerate())
        .map(|(i, &(periodic, gap_tenths, start_ticks, link))| MeshFlow {
            route: vec![link],
            class: (i % 4) as u8,
            packet_bytes: i as u32 + 1,
            model: if periodic == 1 {
                FlowModel::Periodic {
                    gap_ticks: (gap_tenths / 10) as u64,
                    count: 120,
                }
            } else {
                FlowModel::Pareto {
                    mean_gap_ticks: gap_tenths as f64 / 10.0,
                    until_ticks: 300,
                }
            },
            start_ticks,
        })
        .collect();
    MeshConfig {
        sdp: Sdp::paper_default(),
        links: vec![LinkSpec::new(25_000_000.0, SchedulerKind::Wtp); 3],
        flows,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same-tick emissions inherit the order of their predecessors —
    /// `simcore`'s `(time, seq)` order seen from outside — whether they
    /// wait in the event queue (periodic flows) or in the emission lane
    /// (Pareto flows). Under `netsim/mutate-lane-tie` this is the property
    /// that fails.
    #[test]
    fn prop_mesh_emission_order(raw in tie_mesh_strategy(), seed in 0u64..1_000) {
        if let Err(e) = emission_order(&lower_tie_mesh(&raw, seed)) {
            prop_assert!(false, "{e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact ×k time-dilation invariance for every applicable scheduler.
    #[test]
    fn prop_time_rescale_invariance(arrivals in arrivals_strategy(), k_exp in 1u32..4) {
        let arrivals = sorted(arrivals);
        let k = 1u64 << k_exp;
        for kind in time_rescale_kinds() {
            if let Err(e) = time_rescale_check(kind, &Sdp::paper_default(), &arrivals, k) {
                prop_assert!(false, "{e}");
            }
        }
    }

    /// Exact ×k size-dilation invariance for every applicable scheduler.
    #[test]
    fn prop_size_rescale_invariance(arrivals in arrivals_strategy(), k_exp in 1u32..3) {
        let arrivals = sorted(arrivals);
        let k = 1u64 << k_exp;
        for kind in size_rescale_kinds() {
            if let Err(e) = size_rescale_check(kind, &Sdp::paper_default(), &arrivals, k) {
                prop_assert!(false, "{e}");
            }
        }
    }
}
