//! Per-class arrival streams.

use rand::Rng;
use simcore::Time;

use crate::dist::IatDist;
use crate::sizes::SizeDist;

/// Gaps whose `pow` calls [`ClassSource::fill`] lets overlap: enough to
/// cover the latency of one (a dozen in flight would do), small enough that
/// the scratch block stays in L1.
const BLOCK: usize = 64;

/// `clock.round() as u64` for a clock that is never negative, without the
/// call into libm: truncate, then go up one if the fraction is at least a
/// half. The subtraction is exact (below 2⁵³ the truncated clock is within
/// a factor of two of the clock or is 0; from there on the clock is an
/// integer), and the result saturates like the cast does.
#[inline]
fn round_ticks(clock: f64) -> u64 {
    let whole = clock as u64;
    whole.saturating_add(u64::from(clock - whole as f64 >= 0.5))
}

/// A single service class's packet source: an interarrival distribution plus
/// a packet-size distribution.
///
/// Gaps are accumulated in `f64` and rounded only when an arrival time is
/// emitted, so rounding error never accumulates into a long-run rate bias.
#[derive(Debug, Clone)]
pub struct ClassSource {
    class: u8,
    iat: IatDist,
    sizes: SizeDist,
    clock: f64,
}

impl ClassSource {
    /// Creates a source for `class` with the given distributions.
    pub fn new(class: u8, iat: IatDist, sizes: SizeDist) -> Self {
        ClassSource {
            class,
            iat,
            sizes,
            clock: 0.0,
        }
    }

    /// The class this source feeds.
    pub fn class(&self) -> u8 {
        self.class
    }

    /// Mean interarrival gap, in ticks.
    pub fn mean_gap(&self) -> f64 {
        self.iat.mean()
    }

    /// Offered load in bytes per tick: mean size / mean gap.
    pub fn offered_load(&self) -> f64 {
        self.sizes.mean_bytes() / self.iat.mean()
    }

    /// Draws the next arrival: `(time, size_bytes)`.
    pub fn next_arrival<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (Time, u32) {
        self.clock += self.iat.sample(rng);
        let at = Time::from_ticks(round_ticks(self.clock));
        (at, self.sizes.sample(rng))
    }

    /// Draws `out.len()` arrivals: bit for bit what that many
    /// [`next_arrival`](Self::next_arrival) calls return, with `rng` left
    /// where they leave it. Gaps come 64 at a time from [`IatDist::fill`] —
    /// each gap's word still followed by its packet's size draw — and only
    /// the `clock +=`/round chain stays serial.
    ///
    /// For a source that owns its RNG. A caller that stops at a horizon
    /// learns where to stop from the arrivals, so it always draws a block
    /// too many; sources that share one RNG
    /// ([`Trace::generate`](crate::Trace::generate)) would shift each
    /// other's streams that way and stay on `next_arrival`.
    pub fn fill<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [(Time, u32)]) {
        // `at > Time::MAX` is never true: no arrival stops the fill.
        self.fill_until(rng, Time::MAX, out);
    }

    /// [`fill`](Self::fill) that stops advancing the clock at the first
    /// arrival past `horizon`: that arrival is the last one written, the
    /// count written is returned, and the clock is left where
    /// `next_arrival` leaves it after that arrival. `rng` may have been
    /// drawn from for the rest of the block.
    pub(crate) fn fill_until<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        horizon: Time,
        out: &mut [(Time, u32)],
    ) -> usize {
        let mut gaps = [0.0f64; BLOCK];
        let mut written = 0;
        for chunk in out.chunks_mut(BLOCK) {
            let gaps = &mut gaps[..chunk.len()];
            (self.iat).fill_with(rng, gaps, |i, rng| chunk[i].1 = self.sizes.sample(rng));
            for (slot, gap) in chunk.iter_mut().zip(gaps) {
                self.clock += *gap;
                slot.0 = Time::from_ticks(round_ticks(self.clock));
                written += 1;
                if slot.0 > horizon {
                    return written;
                }
            }
        }
        written
    }

    /// Resets the source clock to zero (for reuse across runs).
    pub fn reset(&mut self) {
        self.clock = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_ticks_is_round_then_cast() {
        let halves = (0..64).flat_map(|e| {
            let x = (1u64 << e) as f64;
            [
                x - 0.5,
                x,
                x + 0.5,
                x * 1.5,
                f64::from_bits(x.to_bits() - 1),
            ]
        });
        let edges = [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            4503599627370495.5, // 2⁵² − 0.5, the last clock with a fraction
            9007199254740993.0,
            1.8446744073709552e19, // 2⁶⁴
            1.9e19,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        // Clocks as they occur: sums of Pareto gaps, and whole gaps plus a
        // half (a periodic source with a fractional gap).
        let mut rng = StdRng::seed_from_u64(17);
        let gaps = IatDist::paper_pareto(3.7).unwrap();
        let mut clock = 0.0;
        let sums = (0..100_000).map(|i| {
            clock += gaps.sample(&mut rng);
            if i % 2 == 0 {
                clock
            } else {
                clock.floor() + 0.5
            }
        });
        for x in halves.chain(edges).chain(sums.collect::<Vec<_>>()) {
            assert_eq!(round_ticks(x), x.round() as u64, "{x:e}");
        }
    }

    #[test]
    fn arrivals_are_nondecreasing() {
        let mut s = ClassSource::new(1, IatDist::paper_pareto(100.0).unwrap(), SizeDist::paper());
        let mut rng = StdRng::seed_from_u64(4);
        let mut prev = Time::ZERO;
        for _ in 0..10_000 {
            let (t, size) = s.next_arrival(&mut rng);
            assert!(t >= prev);
            assert!(size == 40 || size == 550 || size == 1500);
            prev = t;
        }
    }

    #[test]
    fn long_run_rate_matches_mean_gap() {
        let mut s = ClassSource::new(0, IatDist::exponential(50.0).unwrap(), SizeDist::fixed(100));
        let mut rng = StdRng::seed_from_u64(8);
        let n = 100_000;
        let mut last = Time::ZERO;
        for _ in 0..n {
            last = s.next_arrival(&mut rng).0;
        }
        let empirical_gap = last.ticks() as f64 / n as f64;
        assert!(
            (empirical_gap - 50.0).abs() / 50.0 < 0.02,
            "gap {empirical_gap}"
        );
    }

    #[test]
    fn offered_load_formula() {
        let s = ClassSource::new(
            2,
            IatDist::deterministic(100.0).unwrap(),
            SizeDist::fixed(50),
        );
        assert!((s.offered_load() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_restarts_clock() {
        let mut s = ClassSource::new(0, IatDist::deterministic(10.0).unwrap(), SizeDist::fixed(1));
        let mut rng = StdRng::seed_from_u64(0);
        let (t1, _) = s.next_arrival(&mut rng);
        s.reset();
        let (t2, _) = s.next_arrival(&mut rng);
        assert_eq!(t1, t2);
        assert_eq!(t1, Time::from_ticks(10));
    }
}
