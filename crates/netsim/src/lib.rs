//! # netsim — multi-hop network simulator for Study B (§6)
//!
//! Models the Figure-6 configuration: a chain of K congested 25 Mbps links,
//! each running a WTP scheduler (or any other scheduler from `sched`).
//! *User flows* — N identical flows, one per class — enter at the first
//! node and traverse the whole path; *cross traffic* from C Pareto sources
//! enters at every node and exits after one hop. Propagation delay is zero
//! and only queueing delays are accumulated, exactly as the paper measures.
//!
//! Every second, a "user experiment" launches one flow per class; at the
//! end of the run, the per-flow end-to-end delay percentiles are compared
//! across classes to (a) count inconsistent-differentiation cases and
//! (b) compute the Table-1 figure of merit R_D.
//!
//! Beyond the paper's chain, the [`mesh`] module simulates arbitrary
//! topologies (flows routed over explicit link sequences) so crossing
//! paths and shared bottlenecks can be studied. It holds the crate's one
//! coupled event loop: the chain runs as a lowering onto it.
//!
//! Beyond explicit meshes, the [`topology`] module generates datacenter
//! fabrics (fat-tree, leaf-spine) with deterministic hashed ECMP routing,
//! and the [`decompose`] module approximates such meshes as independent
//! per-link simulations whose per-hop delays compose into end-to-end
//! distributions — the shape that scales to thousands of links.
//!
//! [`Session`] is the single entry point for every workload: chain
//! ([`Session::study_b`]), mesh ([`Session::mesh`]), or generated topology
//! ([`Session::topology`]), with optional probe and scenario axes. Links
//! are described everywhere by the shared [`LinkSpec`]. Dynamic scenarios
//! ([`scenario::Scenario`]) perturb a run mid-flight: live SDP
//! reconfiguration, link-rate changes, link faults, class joins/leaves.
//!
//! Time unit: 1 tick = 1 ns.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod config;
pub mod decompose;
mod emission;
mod link;
pub mod mesh;
mod session;
pub mod topology;

pub use analysis::{analyze, packet_time_tolerance, ExperimentRecord, StudyBResult};
pub use config::{CrossModel, StudyBConfig, StudyBConfigBuilder};
pub use link::{CrossTraffic, LinkSpec};
pub use session::{MeshWorkload, Session, StudyBWorkload};
pub use topology::{HostFlow, NodeKind, Routes, TopoLink, Topology, TopologyConfig};

/// Ticks per second (1 tick = 1 ns).
pub const TICKS_PER_SEC: u64 = 1_000_000_000;
