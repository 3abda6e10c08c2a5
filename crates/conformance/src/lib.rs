//! # conformance — the differential correctness net
//!
//! The paper's claims hinge on scheduler minutiae: WTP's waiting-time
//! priorities (§4.2), packetized BPR tracking its fluid counterpart
//! (Proposition 1), the conservation law (Eq. 5), and tie-break rules that
//! silently change results when they drift. This crate judges the
//! production schedulers the way "Universal Packet Scheduling" judges
//! candidate algorithms — by replaying identical workloads against
//! independently written references — in five layers:
//!
//! * [`oracle`] — a from-scratch WTP reference that recomputes every
//!   class's priority at each decision instant and diffs departure
//!   sequences (and per-decision winners, via
//!   [`sched::PifoCore::peek_winner`]) against the production WTP — the
//!   rank core every head-of-line discipline runs on; plus an Eq. (7)
//!   feasibility cross-check: the
//!   delays any work-conserving scheduler *achieves* must be a feasible
//!   point of `stats::check_feasibility`.
//! * [`fluid`] — a Proposition-1 tracker bounding packetized BPR's
//!   per-class service lag against the exact fluid server
//!   ([`sched::FluidBpr`]): a few max-packets within draining busy
//!   periods, float-noise reconciliation whenever the backlog empties.
//! * [`metamorphic`] — properties over every [`sched::SchedulerKind`]:
//!   the Eq. 5 conservation audit on overloaded traffic, exact time/size
//!   rescaling invariance, statistical class-label permutation invariance
//!   of delay ratios, and trace-replay ↔ streaming `MergedStream`
//!   interleave equivalence.
//! * [`decompose`] — the mesh-decomposition differential: the link-level
//!   decomposition engine vs the exact mesh engine on seeded small
//!   fabrics (exact packet conservation at any load, per-class
//!   end-to-end waits within a documented tolerance at moderate load), a
//!   from-scratch ECMP route-hash oracle, shard-schedule invariance, and
//!   a byte-axis dilation metamorphic check.
//!
//! * [`order`] — the exact mesh engine's event order: same-tick emissions
//!   inherit the order of their predecessors, whether they wait in the
//!   event queue or in the emission lane — checked from a probe's log.
//!
//! [`suite`] names each check so the `conformance` binary (the **mutation
//! smoke-runner**) can run them all and prove the net catches a seeded
//! tie-break flip (`--features mutated`, see `src/bin/conformance.rs`).
//!
//! Case counts of the property tests scale with the `PROPTEST_CASES`
//! environment variable (see the `proptest` shim); CI runs the suite at an
//! elevated count.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod decompose;
pub mod fluid;
pub mod metamorphic;
pub mod oracle;
pub mod order;
pub mod suite;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sched::{SchedulerKind, Sdp};
use simcore::Time;
use traffic::{Trace, TraceEntry};

/// A recorded arrival `(time_ticks, class, size_bytes)` — the same tuple
/// shape `stats::feasibility` consumes.
pub type Arrival = (u64, u8, u32);

/// One departure as the harness records it, in link-tick units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Replay sequence number (arrival order).
    pub seq: u64,
    /// Service class.
    pub class: u8,
    /// Packet length in bytes.
    pub size: u32,
    /// Arrival tick.
    pub arrival: u64,
    /// Tick transmission began.
    pub start: u64,
    /// Tick transmission completed.
    pub finish: u64,
}

impl Dep {
    /// Queueing (waiting) delay in ticks — the paper's delay metric.
    pub fn wait(&self) -> u64 {
        self.start - self.arrival
    }
}

/// Builds a time-sorted [`Trace`] from arrival tuples.
pub fn trace_of(arrivals: &[Arrival]) -> Trace {
    Trace::from_entries(
        arrivals
            .iter()
            .map(|&(t, class, size)| TraceEntry {
                at: Time::from_ticks(t),
                class,
                size,
            })
            .collect(),
    )
}

/// Replays `arrivals` through a freshly built `kind` scheduler on a link
/// of `rate` bytes/tick (via the production `qsim::Session` trace path)
/// and records every departure.
pub fn replay(kind: SchedulerKind, sdp: &Sdp, arrivals: &[Arrival], rate: f64) -> Vec<Dep> {
    let trace = trace_of(arrivals);
    let mut s = kind.build(sdp, rate);
    let mut out = Vec::with_capacity(arrivals.len());
    qsim::Session::trace(&trace, rate).run(s.as_mut(), |d| {
        out.push(Dep {
            seq: d.packet.seq,
            class: d.packet.class,
            size: d.packet.size,
            arrival: d.packet.arrival.ticks(),
            start: d.start.ticks(),
            finish: d.finish.ticks(),
        });
    });
    out
}

/// Per-class mean queueing delays (ticks) over a departure record; classes
/// with no departures get 0.
pub fn class_mean_waits(deps: &[Dep], num_classes: usize) -> Vec<f64> {
    let mut sum = vec![0.0f64; num_classes];
    let mut cnt = vec![0u64; num_classes];
    for d in deps {
        sum[d.class as usize] += d.wait() as f64;
        cnt[d.class as usize] += 1;
    }
    (0..num_classes)
        .map(|c| {
            if cnt[c] == 0 {
                0.0
            } else {
                sum[c] / cnt[c] as f64
            }
        })
        .collect()
}

/// A seeded random **overloaded** workload: bursts of same-tick arrivals
/// across all 4 paper classes at ~1.5× link capacity, paper-like packet
/// sizes. Same-tick multi-class batches are deliberate: they force the
/// zero-waiting-time priority ties where tie-break rules decide winners —
/// the exact spot mutations hide.
pub fn overloaded_arrivals(seed: u64, packets: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes = [40u32, 550, 1500];
    let mut out = Vec::with_capacity(packets);
    let mut t = 0u64;
    while out.len() < packets {
        // Mean inter-batch gap ~1400 ticks carrying ~2100 bytes: ρ ≈ 1.5.
        t += rng.random_below(2800) + 1;
        let burst = 1 + rng.random_below(4) as usize;
        for _ in 0..burst.min(packets - out.len()) {
            let class = rng.random_below(4) as u8;
            let size = sizes[rng.random_below(3) as usize];
            out.push((t, class, size));
        }
    }
    out.sort_by_key(|e| e.0);
    out
}

/// A seeded random **uniform-size** overloaded workload: the same
/// burst/tie structure as [`overloaded_arrivals`] but every packet is 500
/// bytes. The Eq. (7) feasibility witness needs this: `stats`'s feasible
/// region weighs classes by *packet* rate (λ_i · d̄_i), while the exact
/// conservation law (Eq. 5) holds in *bytes* (Σ size·wait). With one
/// packet size the two weightings coincide and the witness is a theorem;
/// with mixed sizes a scheduler that correlates waits with sizes (e.g.
/// strict priority under paper-mix traffic) can legitimately sit outside
/// the packet-weighted region.
pub fn uniform_overloaded_arrivals(seed: u64, packets: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed + 0x5eed_0001);
    const SIZE: u32 = 500;
    let mut out = Vec::with_capacity(packets);
    let mut t = 0u64;
    while out.len() < packets {
        // Mean inter-batch gap ~833 ticks carrying ~1250 bytes: ρ ≈ 1.5.
        t += rng.random_below(1666) + 1;
        let burst = 1 + rng.random_below(4) as usize;
        for _ in 0..burst.min(packets - out.len()) {
            let class = rng.random_below(4) as u8;
            out.push((t, class, SIZE));
        }
    }
    out.sort_by_key(|e| e.0);
    out
}

/// A seeded random workload at a *target utilization* `rho` < 1: Poisson
/// arrivals with paper-like packet sizes, so busy periods keep draining
/// and idle gaps reconcile the packetized/fluid BPR trackers
/// (Proposition 1's regime — the bound is per busy period; under
/// sustained overload the rate-snapshot drift random-walks unboundedly).
pub fn loaded_arrivals(seed: u64, packets: usize, rho: f64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10ad_cafe);
    let sizes = [40u32, 550, 1500];
    let mean_size = (40.0 + 550.0 + 1500.0) / 3.0;
    let mean_gap = mean_size / rho;
    let mut out = Vec::with_capacity(packets);
    let mut t = 0.0f64;
    for _ in 0..packets {
        t += -mean_gap * (1.0 - rng.random::<f64>()).ln();
        let class = rng.random_below(4) as u8;
        let size = sizes[rng.random_below(3) as usize];
        out.push((t.round() as u64 + 1, class, size));
    }
    out.sort_by_key(|e| e.0);
    out
}

/// Largest packet size in a workload (0 when empty).
pub fn max_packet_bytes(arrivals: &[Arrival]) -> u32 {
    arrivals.iter().map(|&(_, _, s)| s).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overloaded_workload_is_sorted_and_overloaded() {
        let a = overloaded_arrivals(3, 400);
        assert_eq!(a.len(), 400);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        let bytes: u64 = a.iter().map(|&(_, _, s)| s as u64).sum();
        let span = a.last().unwrap().0 - a.first().unwrap().0;
        let rho = bytes as f64 / span as f64;
        assert!(rho > 1.1, "expected overload, got ρ = {rho}");
        // Same-tick ties must actually occur (they are the mutation bait).
        assert!(a.windows(2).any(|w| w[0].0 == w[1].0));
    }

    #[test]
    fn replay_records_complete_departures() {
        let a = overloaded_arrivals(1, 100);
        let deps = replay(SchedulerKind::Wtp, &Sdp::paper_default(), &a, 1.0);
        assert_eq!(deps.len(), a.len());
        for d in &deps {
            assert!(d.start >= d.arrival && d.finish > d.start);
        }
        let waits = class_mean_waits(&deps, 4);
        assert_eq!(waits.len(), 4);
    }
}
