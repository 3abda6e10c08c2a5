//! The emission clock of a Pareto [`MeshFlow`](crate::MeshFlow) — the one
//! definition both mesh engines read, so the exact engine's `Emit` events
//! and the decomposition's precomputed schedules are the same instants by
//! construction.

use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic::{per_source_seed, IatDist};

/// Instants computed at a time once a clock is running: [`IatDist::fill`]
/// lets their gaps' `pow` calls overlap. A coupled mesh holds one clock per
/// Pareto flow for the whole run and touches them in event order, so what
/// an emission reads — the block and its cursor — is kept to a cache line
/// or two: at 32 gaps a clock, the clocks of the benchmark's k = 4 fat-tree
/// (3 072 of them) cost `mesh-coupled` 4–5 % of its pass (two pairs of runs).
const BLOCK: usize = 8;
/// A clock's first block; blocks double from here, so a flow that emits a
/// packet or two has not drawn eight gaps.
const FIRST_BLOCK: usize = 2;

/// Yields a Pareto flow's emission instants *after* its first, which is
/// at the flow's start unconditionally.
///
/// Gaps accumulate on an unrounded `f64` clock that starts at the flow's
/// start tick and is rounded per emission; an instant that would not lie
/// after the previous one is nudged to the tick after it. The clock ends
/// at the first instant past the flow's `until_ticks` — or at `u64::MAX`,
/// where the rounding saturates and which is therefore past every limit.
#[derive(Debug, Clone)]
pub(crate) struct ParetoClock {
    /// `block[pos..len]` are instants computed and not yet emitted.
    block: [u64; BLOCK],
    pos: usize,
    len: usize,
    /// Length of the next block to compute; 0 once `until` is passed.
    want: usize,
    rng: StdRng,
    gaps: IatDist,
    clock: f64,
    /// The last instant computed.
    prev: u64,
    until: u64,
}

impl ParetoClock {
    /// The clock of flow number `flow` in a mesh seeded with `seed`.
    ///
    /// # Panics
    /// Panics unless `mean_gap_ticks` is positive and finite
    /// ([`MeshConfig::validate`](crate::MeshConfig::validate) checks it).
    pub(crate) fn new(
        seed: u64,
        flow: usize,
        start_ticks: u64,
        mean_gap_ticks: f64,
        until_ticks: u64,
    ) -> Self {
        ParetoClock {
            block: [0; BLOCK],
            pos: 0,
            len: 0,
            want: FIRST_BLOCK,
            rng: StdRng::seed_from_u64(per_source_seed(seed, flow)),
            gaps: IatDist::paper_pareto(mean_gap_ticks).expect("validated gap"),
            clock: start_ticks as f64,
            prev: start_ticks,
            until: until_ticks.min(u64::MAX - 1),
        }
    }

    /// Computes the next block of instants, up to the first past `until`.
    fn refill(&mut self) {
        let mut gaps = [0.0; BLOCK];
        let gaps = &mut gaps[..self.want];
        self.gaps.fill(&mut self.rng, gaps);
        (self.pos, self.len, self.want) = (0, 0, BLOCK.min(2 * self.want));
        for gap in gaps {
            self.clock += *gap;
            let next = self.clock.round().max(self.prev as f64 + 1.0) as u64;
            if next > self.until {
                self.want = 0;
                break;
            }
            self.prev = next;
            self.block[self.len] = next;
            self.len += 1;
        }
    }
}

impl Iterator for ParetoClock {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.pos == self.len {
            if self.want == 0 {
                return None;
            }
            self.refill();
            if self.len == 0 {
                return None;
            }
        }
        let next = self.block[self.pos];
        self.pos += 1;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clock as `mesh` and `decompose` each wrote it out before they
    /// shared this one: a gap at a time from `IatDist::sample`.
    fn scalar(seed: u64, flow: usize, start: u64, mean_gap: f64, until: u64) -> Vec<u64> {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (flow as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let dist = IatDist::paper_pareto(mean_gap).unwrap();
        let (mut clock, mut prev, mut out) = (start as f64, start, Vec::new());
        loop {
            clock += dist.sample(&mut rng);
            let next = clock.round().max(prev as f64 + 1.0);
            if next as u64 > until {
                return out;
            }
            prev = next as u64;
            out.push(prev);
        }
    }

    #[test]
    fn block_clock_is_the_scalar_clock() {
        // Counts below, at and well above a block; gaps under a tick, so
        // nearly every instant is nudged; an `until` before the start.
        for (flow, start, mean_gap, until) in [
            (0, 1, 1_000.0, 2_500),
            (1, 1, 1_000.0, 40_000),
            (2, 77, 250.0, 1_000_000),
            (3, 5, 0.8, 3_000),
            (4, 9, 50.0, 3),
        ] {
            let block: Vec<u64> = ParetoClock::new(42, flow, start, mean_gap, until).collect();
            assert_eq!(
                block,
                scalar(42, flow, start, mean_gap, until),
                "flow {flow}"
            );
            assert!(block.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(ParetoClock::new(42, 2, 77, 250.0, 1_000_000).count() > 3 * BLOCK);
    }

    #[test]
    fn a_saturated_clock_ends_under_any_limit() {
        // Gaps of at least 4.7e17 ticks pass 2⁶⁴ within a few dozen
        // emissions; rounding then saturates at u64::MAX, which
        // `until_ticks = u64::MAX` used to admit forever.
        let n = ParetoClock::new(1, 0, 0, 1e18, u64::MAX).count();
        assert!((1..64).contains(&n), "{n} emissions");
    }
}
