//! Metamorphic properties over every [`SchedulerKind`]: the 11 paper
//! schedulers plus the two `Pifo(_)` names.
//!
//! Each property transforms a workload in a way with a *known* effect on
//! the output and fails if the implementation disagrees:
//!
//! * **Eq. 5 conservation audit** — every work-conserving non-preemptive
//!   scheduler produces the identical Σ size·wait and busy-period end on
//!   the same trace;
//! * **time rescaling** — arrival times ×k and link rate ÷k (k a power of
//!   two, so every float operation is an exact exponent shift) must scale
//!   every departure time by exactly k and keep the departure order
//!   bit-for-bit. Holds for every scheduler except **Additive**, whose
//!   priority `w + s` is inhomogeneous in time — the
//!   paper's own §4.2 critique of Eq. 3 — and **LSTF**, whose slack
//!   budgets are likewise absolute tick offsets;
//! * **size rescaling** — sizes ×k and times ×k at fixed rate likewise
//!   scales delays by k. Additionally excludes **DRR**, whose quantum is a
//!   fixed 1500 bytes and does not scale with the workload;
//! * **label permutation** — feeding the *same* heterogeneous traffic
//!   streams to different class labels must not move the proportional
//!   schedulers' delay ratios away from the inverse-SDP targets (Eq.
//!   10/13): the ratios are a property of the SDPs, not of which stream
//!   carries which label. Statistical, for the proportional schedulers
//!   (WTP/PAD/HPD) under sustained overload;
//! * **interleave equivalence** — the materialized `Session::trace` path
//!   and the streaming `MergedStream` path must produce identical
//!   departures.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sched::{RankKind, SchedulerKind, Sdp};
use simcore::Time;
use traffic::{ClassSource, IatDist, MergedStream, SizeDist, Trace};

use crate::{class_mean_waits, replay, Arrival};

/// Eq. 5 in byte form: Σ size·wait and the busy-period end are invariant
/// across every scheduler on the same trace, and nobody loses packets.
pub fn conservation_audit(sdp: &Sdp, arrivals: &[Arrival]) -> Result<(), String> {
    let mut reference: Option<(&'static str, u128, u64)> = None;
    for kind in SchedulerKind::ALL
        .into_iter()
        .chain(SchedulerKind::PIFO_ALL)
    {
        let deps = replay(kind, sdp, arrivals, 1.0);
        if deps.len() != arrivals.len() {
            return Err(format!(
                "{} lost packets: {} of {}",
                kind.name(),
                deps.len(),
                arrivals.len()
            ));
        }
        let weighted: u128 = deps
            .iter()
            .map(|d| d.size as u128 * (d.start - d.arrival) as u128)
            .sum();
        let busy_end = deps.iter().map(|d| d.finish).max().unwrap_or(0);
        match reference {
            None => reference = Some((kind.name(), weighted, busy_end)),
            Some((ref_name, ref_w, ref_end)) => {
                if weighted != ref_w {
                    return Err(format!(
                        "Eq. 5 violated: {} has Σ size·wait = {weighted}, {ref_name} has {ref_w}",
                        kind.name()
                    ));
                }
                if busy_end != ref_end {
                    return Err(format!(
                        "work conservation violated: {} ends busy period at {busy_end}, {ref_name} at {ref_end}",
                        kind.name()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Schedulers for which time rescaling is an exact invariance.
///
/// Excluded: Additive (priority `w + s` mixes ticks with dimensionless
/// offsets) and LSTF (slack budgets are absolute tick offsets) — the
/// same time-inhomogeneity in two rank functions.
pub fn time_rescale_kinds() -> Vec<SchedulerKind> {
    SchedulerKind::ALL
        .iter()
        .chain(SchedulerKind::PIFO_ALL.iter())
        .copied()
        .filter(|k| {
            !matches!(
                k,
                SchedulerKind::Additive | SchedulerKind::Pifo(RankKind::Lstf)
            )
        })
        .collect()
}

/// Schedulers for which size rescaling is an exact invariance.
pub fn size_rescale_kinds() -> Vec<SchedulerKind> {
    SchedulerKind::ALL
        .iter()
        .chain(SchedulerKind::PIFO_ALL.iter())
        .copied()
        .filter(|k| {
            !matches!(
                k,
                SchedulerKind::Additive | SchedulerKind::Drr | SchedulerKind::Pifo(RankKind::Lstf)
            )
        })
        .collect()
}

/// Time rescaling: arrivals at `t·k` on a link of `1/k` bytes/tick must
/// reproduce the base run with every timestamp multiplied by exactly `k`.
///
/// # Panics
/// Panics if `k` is not a power of two (exactness requires it).
pub fn time_rescale_check(
    kind: SchedulerKind,
    sdp: &Sdp,
    arrivals: &[Arrival],
    k: u64,
) -> Result<(), String> {
    assert!(k.is_power_of_two(), "scale factor must be a power of two");
    let base = replay(kind, sdp, arrivals, 1.0);
    let scaled_arrivals: Vec<Arrival> = arrivals.iter().map(|&(t, c, s)| (t * k, c, s)).collect();
    let scaled = replay(kind, sdp, &scaled_arrivals, 1.0 / k as f64);
    if base.len() != scaled.len() {
        return Err(format!(
            "{}: departure counts differ under time rescale",
            kind.name()
        ));
    }
    for (i, (b, s)) in base.iter().zip(&scaled).enumerate() {
        if (s.seq, s.class, s.start, s.finish) != (b.seq, b.class, b.start * k, b.finish * k) {
            return Err(format!(
                "{}: time rescale ×{k} broke at departure #{i}: base {b:?}, scaled {s:?}",
                kind.name()
            ));
        }
    }
    Ok(())
}

/// Size rescaling: sizes and times both ×k at fixed rate must scale every
/// departure time by exactly `k` and keep the order.
///
/// # Panics
/// Panics if `k` is not a power of two.
pub fn size_rescale_check(
    kind: SchedulerKind,
    sdp: &Sdp,
    arrivals: &[Arrival],
    k: u64,
) -> Result<(), String> {
    assert!(k.is_power_of_two(), "scale factor must be a power of two");
    let base = replay(kind, sdp, arrivals, 1.0);
    let scaled_arrivals: Vec<Arrival> = arrivals
        .iter()
        .map(|&(t, c, s)| (t * k, c, s * k as u32))
        .collect();
    let scaled = replay(kind, sdp, &scaled_arrivals, 1.0);
    if base.len() != scaled.len() {
        return Err(format!(
            "{}: departure counts differ under size rescale",
            kind.name()
        ));
    }
    for (i, (b, s)) in base.iter().zip(&scaled).enumerate() {
        if (s.seq, s.class, s.start, s.finish) != (b.seq, b.class, b.start * k, b.finish * k) {
            return Err(format!(
                "{}: size rescale ×{k} broke at departure #{i}: base {b:?}, scaled {s:?}",
                kind.name()
            ));
        }
    }
    Ok(())
}

/// Four Poisson streams of uniform 100-byte packets differing only in
/// arrival *rate* (byte rates [0.4, 0.25, 0.2, 0.1] ≈ ρ 0.95), with
/// stream *i* feeding class `perm[i]`. The per-stream workload is
/// independent of the labeling, so two permutations see statistically
/// identical aggregate traffic while the per-class loads change — the
/// proportional schedulers must hold the Eq. 10/13 delay ratios anyway.
///
/// Uniform sizes and stable (≲1) load are deliberate: PAD equalizes
/// s_i·(mean delay) over *counts*, and the feedback schedulers only
/// converge to the targets when the backlog keeps turning over. Heavily
/// size-skewed overload makes the achieved ratios load-dependent for
/// every scheduler, which would turn this metamorphic into noise.
pub fn permuted_stream_arrivals(seed: u64, perm: &[u8; 4], horizon: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let gaps = [250.0f64, 400.0, 500.0, 1000.0];
    const SIZE: u32 = 100;
    let mut out = Vec::new();
    for i in 0..4 {
        let mut t = 0.0f64;
        loop {
            t += -gaps[i] * (1.0 - rng.random::<f64>()).ln();
            if t > horizon as f64 {
                break;
            }
            out.push((t.round() as u64, perm[i], SIZE));
        }
    }
    out.sort_by_key(|e| e.0);
    out
}

/// Checks that a proportional scheduler's per-class mean delay ratios sit
/// within `tol` (relative) of the inverse-SDP targets on this workload —
/// the Eq. 10/13 heavy-load prediction the permutation metamorphic relies
/// on.
pub fn proportional_ratio_check(
    kind: SchedulerKind,
    sdp: &Sdp,
    arrivals: &[Arrival],
    tol: f64,
) -> Result<(), String> {
    let deps = replay(kind, sdp, arrivals, 1.0);
    let waits = class_mean_waits(&deps, sdp.num_classes());
    for c in 0..sdp.num_classes() - 1 {
        let target = sdp.target_ratio(c);
        if waits[c + 1] <= 0.0 {
            return Err(format!(
                "{}: class {} has zero mean wait",
                kind.name(),
                c + 1
            ));
        }
        let got = waits[c] / waits[c + 1];
        if (got - target).abs() / target > tol {
            return Err(format!(
                "{}: delay ratio d{}/d{} = {got:.3} strays from target {target} by more than {:.0}% (waits {waits:?})",
                kind.name(),
                c,
                c + 1,
                tol * 100.0
            ));
        }
    }
    Ok(())
}

/// The label-permutation metamorphic for one proportional scheduler:
/// under every supplied permutation of stream-to-class assignment, the
/// achieved delay ratios must stay at the inverse-SDP targets.
pub fn permutation_check(
    kind: SchedulerKind,
    sdp: &Sdp,
    seed: u64,
    tol: f64,
) -> Result<(), String> {
    const PERMS: [[u8; 4]; 3] = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]];
    for perm in &PERMS {
        let arrivals = permuted_stream_arrivals(seed, perm, 600_000);
        proportional_ratio_check(kind, sdp, &arrivals, tol)
            .map_err(|e| format!("under stream permutation {perm:?}: {e}"))?;
    }
    Ok(())
}

/// The proportional schedulers the permutation metamorphic applies to.
pub fn proportional_kinds() -> [SchedulerKind; 3] {
    [SchedulerKind::Wtp, SchedulerKind::Pad, SchedulerKind::Hpd]
}

/// Interleave equivalence: for the same sources, horizon and seed, the
/// materialized `Session` trace path and the streaming `MergedStream`
/// path must produce identical departures.
pub fn interleave_check(kind: SchedulerKind, sdp: &Sdp, seed: u64) -> Result<(), String> {
    let horizon = Time::from_ticks(200_000);
    let mk_sources = || -> Vec<ClassSource> {
        (0..4u8)
            .map(|c| {
                ClassSource::new(
                    c,
                    IatDist::paper_pareto(600.0 * (c as f64 + 1.0)).expect("valid mean"),
                    SizeDist::paper(),
                )
            })
            .collect()
    };

    let key = |d: &qsim::Departure| (d.packet.class, d.packet.arrival.ticks(), d.start.ticks());
    let trace = Trace::generate_per_source(&mut mk_sources(), horizon, seed);
    let mut trace_deps = Vec::new();
    qsim::Session::trace(&trace, 1.0).run(kind.build(sdp, 1.0).as_mut(), |d| {
        trace_deps.push(key(d));
    });
    let stream = MergedStream::per_source(mk_sources(), seed, horizon);
    let mut stream_deps = Vec::new();
    qsim::Session::arrivals(stream, 1.0).run(kind.build(sdp, 1.0).as_mut(), |d| {
        stream_deps.push(key(d));
    });

    if trace_deps != stream_deps {
        let first = trace_deps
            .iter()
            .zip(&stream_deps)
            .position(|(a, b)| a != b)
            .unwrap_or(trace_deps.len().min(stream_deps.len()));
        return Err(format!(
            "{}: trace and streaming paths diverge at departure #{first} \
             (trace: {:?}, stream: {:?}; counts {} vs {})",
            kind.name(),
            trace_deps.get(first),
            stream_deps.get(first),
            trace_deps.len(),
            stream_deps.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overloaded_arrivals;

    #[test]
    fn conservation_audit_on_random_overload() {
        let sdp = Sdp::paper_default();
        for seed in 0..10 {
            conservation_audit(&sdp, &overloaded_arrivals(seed, 250))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn time_rescale_is_exact_for_applicable_kinds() {
        let sdp = Sdp::paper_default();
        let arrivals = overloaded_arrivals(5, 200);
        for kind in time_rescale_kinds() {
            for k in [2u64, 4, 8] {
                time_rescale_check(kind, &sdp, &arrivals, k).unwrap();
            }
        }
    }

    #[test]
    fn size_rescale_is_exact_for_applicable_kinds() {
        let sdp = Sdp::paper_default();
        let arrivals = overloaded_arrivals(6, 200);
        for kind in size_rescale_kinds() {
            for k in [2u64, 4] {
                size_rescale_check(kind, &sdp, &arrivals, k).unwrap();
            }
        }
    }

    #[test]
    fn interleave_equivalence_for_all_kinds() {
        let sdp = Sdp::paper_default();
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain(SchedulerKind::PIFO_ALL)
        {
            interleave_check(kind, &sdp, 21).unwrap();
        }
    }

    #[test]
    fn permutation_invariance_of_proportional_ratios() {
        let sdp = Sdp::paper_default();
        for kind in proportional_kinds() {
            permutation_check(kind, &sdp, 17, 0.40)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }
}
