//! The event-order contract of the exact mesh engine, checked from what a
//! probe sees of a run — no second engine, no pinned number.
//!
//! `simcore` handles events in `(time, seq)` order, and an emission's
//! sequence number is taken while its flow's *previous* emission is
//! handled (a flow's first: before the run, in flow order). So of two
//! emissions on one tick, the one whose predecessor was emitted first is
//! emitted first; a flow's first emission precedes every later one on its
//! tick; and first emissions go in flow order. That holds whether an
//! emission waits in the event queue (`Periodic` flows) or in the
//! emission lane (Pareto flows), which is the point: the lane sorts its
//! windows by instant before any of those sequence numbers exist, and a
//! lane that settled same-tick runs any other way — by flow, as the
//! `netsim/mutate-lane-tie` mutant does — or that compared itself with the
//! queue on time alone would break exactly this law.
//!
//! The Study-B chain runs on the same engine, and its cross stream
//! (`netsim::emission::CrossStream`, the lane's second head) rests on the
//! same law — it merges its sources ahead of the run in the order their
//! predecessors were merged — but this probe-log form does not carry over
//! to it: a cross packet's probe events name the hop it arrives at, not
//! the source that sent it (eight sources feed each link, with packets of
//! one size), so the log cannot say whose predecessor came first. The
//! stream's order is held instead by what the order decides: `netsim`'s
//! stream ≡ all-heap reference test and its pinned tie-heavy chain digest
//! and event ladder, which the `netsim/mutate-chain-tie` mutant (same-tick
//! cross emissions in source order) fails.

use netsim::mesh::{FlowModel, MeshConfig, MeshFlow};
use netsim::topology::splitmix64;
use netsim::{LinkSpec, Session};
use sched::{SchedulerKind, Sdp};
use simcore::Time;
use telemetry::{PacketId, Probe};

/// A seeded mesh in which nearly every tick carries several emissions:
/// three 25 Mb/s links and 6–11 single-hop flows, every third one
/// `Periodic` with a gap of 1–4 ticks, the others Pareto with mean gaps of
/// 1–3, all starting within a few ticks of each other and emitting for
/// some 400 ticks. Flow `i` sends packets of `i + 1` bytes, which is how
/// [`emission_order`] tells flows apart.
pub fn scenario(seed: u64) -> MeshConfig {
    let key = splitmix64(seed ^ 0x0E0E_0001);
    let draw = |salt: u64, n: u64| splitmix64(key ^ salt) % n;
    let flows = (0..6 + draw(1, 6) as usize)
        .map(|i| {
            let salt = 0x100 * (i as u64 + 1);
            let model = if i % 3 == 1 {
                FlowModel::Periodic {
                    gap_ticks: 1 + draw(salt + 1, 4),
                    count: 100 + draw(salt + 2, 100) as u32,
                }
            } else {
                FlowModel::Pareto {
                    mean_gap_ticks: 1.0 + draw(salt + 3, 21) as f64 / 10.0,
                    until_ticks: 300 + draw(salt + 4, 200),
                }
            };
            MeshFlow {
                route: vec![draw(salt + 5, 3) as usize],
                class: (i % 4) as u8,
                packet_bytes: i as u32 + 1,
                model,
                start_ticks: draw(salt + 6, 4),
            }
        })
        .collect();
    MeshConfig {
        sdp: Sdp::paper_default(),
        links: vec![LinkSpec::new(25_000_000.0, SchedulerKind::Wtp); 3],
        flows,
        seed,
    }
}

/// Every packet's emission — tick and flow — in the order the engine
/// handled them (span ids count emissions).
#[derive(Default)]
struct EmissionLog {
    emitted: Vec<(u64, usize)>,
}

impl Probe for EmissionLog {
    const WANTS_DECISION_VALUES: bool = false;

    fn on_arrival(&mut self, at: Time, id: PacketId) {
        // A span's first arrival is its emission.
        if id.span == self.emitted.len() as u64 {
            self.emitted.push((at.ticks(), id.size as usize - 1));
        }
    }
}

/// Runs `cfg` on the exact engine and checks that same-tick emissions
/// inherit the order of their predecessors (see the module docs).
///
/// `cfg` must give flow `i` packets of `i + 1` bytes.
pub fn emission_order(cfg: &MeshConfig) -> Result<(), String> {
    if let Some(i) = (0..cfg.flows.len()).find(|&i| cfg.flows[i].packet_bytes as usize != i + 1) {
        return Err(format!("flow {i} must send packets of {} bytes", i + 1));
    }
    let mut log = EmissionLog::default();
    Session::mesh(cfg).probe(&mut log).run();
    // Per flow, the span of its latest emission. An emission's rank on
    // its tick: (0, flow) if it is the flow's first, else (1, that span).
    let mut latest: Vec<Option<usize>> = vec![None; cfg.flows.len()];
    let mut before: Option<(u64, (u8, usize), usize)> = None;
    for (span, &(at, flow)) in log.emitted.iter().enumerate() {
        let rank = match latest[flow] {
            None => (0, flow),
            Some(predecessor) => (1, predecessor),
        };
        if let Some((tick, earlier, earlier_flow)) = before {
            if tick > at {
                return Err(format!("emission {span} at tick {at} follows tick {tick}"));
            }
            if tick == at && earlier >= rank {
                let show = |(first, n): (u8, usize)| match first {
                    0 => "its first".to_string(),
                    _ => format!("after its emission {n}"),
                };
                return Err(format!(
                    "tick {at}: flow {earlier_flow} ({}) was emitted before flow {flow} ({})",
                    show(earlier),
                    show(rank)
                ));
            }
        }
        before = Some((at, rank, flow));
        latest[flow] = Some(span);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_tie_heavy_and_mix_both_flow_kinds() {
        for seed in 0..8 {
            let cfg = scenario(seed);
            let pareto = |f: &&MeshFlow| matches!(f.model, FlowModel::Pareto { .. });
            let paretos = cfg.flows.iter().filter(pareto).count();
            assert!(
                paretos >= 4 && cfg.flows.len() - paretos >= 2,
                "seed {seed}"
            );
            assert!(cfg.validate().is_ok());
            let mut log = EmissionLog::default();
            Session::mesh(&cfg).probe(&mut log).run();
            let shared = (log.emitted.windows(2))
                .filter(|w| w[0].0 == w[1].0)
                .count();
            assert!(shared > 300, "seed {seed}: {shared} same-tick neighbours");
        }
    }

    #[test]
    fn a_flow_with_the_wrong_packet_size_is_rejected() {
        let mut cfg = scenario(0);
        cfg.flows[1].packet_bytes = 9_000;
        assert!(emission_order(&cfg).unwrap_err().contains("flow 1"));
    }
}
