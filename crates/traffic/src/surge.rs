//! Piecewise re-timing of a source — the workload half of dynamic
//! scenarios' `LoadSurge` events.
//!
//! A [`SurgedSource`] wraps any [`ArrivalSource`] and rescales its
//! inter-arrival gaps by a piecewise-constant schedule: the wrapped source
//! keeps drawing from its own RNG exactly as before (same variates, same
//! sizes), but the emitted timeline stretches (`scale > 1`, a lull) or
//! compresses (`scale < 1`, a surge) from each breakpoint on. A schedule of
//! all-1 scales reproduces the inner timeline *tick for tick* — the
//! identity the no-op-scenario determinism tests pin.

use rand::rngs::StdRng;
use simcore::Time;

use crate::stream::ArrivalSource;

/// An [`ArrivalSource`] whose inter-arrival gaps are rescaled by a
/// piecewise-constant schedule of `(from, scale)` breakpoints.
///
/// The scale in force for a gap is the one at the gap's *start* on the
/// emitted (output) timeline — breakpoints are virtual times of the replay
/// the source feeds, not of the inner source's untouched clock. Gaps are
/// rounded to whole ticks after scaling, so `scale = 1.0` is exactly the
/// identity (integer-valued gaps round-trip through `f64` unchanged).
#[derive(Debug, Clone)]
pub struct SurgedSource<S> {
    inner: S,
    /// `(from, scale)` in time order; scale 1 before the first entry.
    schedule: Vec<(Time, f64)>,
    /// Breakpoints already behind the emitted clock, which never runs
    /// backwards: `schedule[..passed]`.
    passed: usize,
    /// The scale in force at `clock`: that of `schedule[passed - 1]`.
    scale: f64,
    /// Last arrival emitted by the *inner* source.
    prev_inner: Time,
    /// Last arrival emitted by *this* source (the rescaled clock).
    clock: Time,
}

impl<S: ArrivalSource> SurgedSource<S> {
    /// Wraps `inner` with a gap-scale `schedule` of `(from, scale)`
    /// breakpoints.
    ///
    /// # Panics
    /// Panics if the schedule is not sorted by time or any scale is not
    /// positive and finite (the scenario builder validates these upstream;
    /// this guards direct construction).
    pub fn new(inner: S, schedule: Vec<(Time, f64)>) -> Self {
        assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "gap-scale schedule must be sorted by time"
        );
        assert!(
            schedule.iter().all(|&(_, s)| s > 0.0 && s.is_finite()),
            "gap scales must be positive and finite"
        );
        SurgedSource {
            inner,
            schedule,
            passed: 0,
            scale: 1.0,
            prev_inner: Time::ZERO,
            clock: Time::ZERO,
        }
    }

    /// Moves the inner source's arrival `at` onto the emitted timeline:
    /// its gap, scaled by what is in force at the gap's start.
    fn retime(&mut self, at: Time) -> Time {
        while let Some(&(from, scale)) = self.schedule.get(self.passed) {
            if from > self.clock {
                break;
            }
            (self.passed, self.scale) = (self.passed + 1, scale);
        }
        let gap = at.saturating_since(self.prev_inner).ticks();
        self.prev_inner = at;
        let scaled = (gap as f64 * self.scale).round() as u64;
        self.clock = Time::from_ticks(self.clock.ticks().saturating_add(scaled));
        self.clock
    }
}

impl<S: ArrivalSource> ArrivalSource for SurgedSource<S> {
    fn class(&self) -> u8 {
        self.inner.class()
    }

    fn draw(&mut self, rng: &mut StdRng) -> (Time, u32) {
        let (at, size) = self.inner.draw(rng);
        (self.retime(at), size)
    }

    /// The inner source's block, retimed in place: its draws never depend
    /// on the emitted clock. The horizon is one of the emitted timeline, so
    /// the inner source is asked for the whole block (and, where the
    /// emitted clock passes the horizon mid-block, left ahead of it).
    fn fill_until(&mut self, rng: &mut StdRng, horizon: Time, out: &mut [(Time, u32)]) -> usize {
        let drawn = self.inner.fill_until(rng, Time::MAX, out);
        for (n, slot) in out[..drawn].iter_mut().enumerate() {
            slot.0 = self.retime(slot.0);
            if slot.0 > horizon {
                return n + 1;
            }
        }
        drawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::IatDist;
    use crate::sizes::SizeDist;
    use crate::source::ClassSource;
    use rand::SeedableRng;

    fn pareto_source(class: u8, mean_gap: f64) -> ClassSource {
        ClassSource::new(
            class,
            IatDist::paper_pareto(mean_gap).unwrap(),
            SizeDist::paper(),
        )
    }

    fn draw_n<S: ArrivalSource>(mut src: S, seed: u64, n: usize) -> Vec<(Time, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| src.draw(&mut rng)).collect()
    }

    #[test]
    fn unit_schedule_is_the_identity() {
        let plain = draw_n(pareto_source(1, 100.0), 9, 2_000);
        let surged = draw_n(
            SurgedSource::new(
                pareto_source(1, 100.0),
                vec![(Time::from_ticks(0), 1.0), (Time::from_ticks(50_000), 1.0)],
            ),
            9,
            2_000,
        );
        assert_eq!(plain, surged);
    }

    #[test]
    fn empty_schedule_is_the_identity() {
        let plain = draw_n(pareto_source(0, 80.0), 4, 500);
        let surged = draw_n(
            SurgedSource::new(pareto_source(0, 80.0), Vec::new()),
            4,
            500,
        );
        assert_eq!(plain, surged);
    }

    #[test]
    fn halving_gaps_doubles_the_rate_after_the_breakpoint() {
        // Deterministic 10-tick gaps, surge (scale 0.5) from t=100 on the
        // emitted clock: arrivals land at 10, 20, …, 100, 105, 110, …
        let det = ClassSource::new(0, IatDist::deterministic(10.0).unwrap(), SizeDist::fixed(1));
        let out = draw_n(
            SurgedSource::new(det, vec![(Time::from_ticks(100), 0.5)]),
            0,
            15,
        );
        let ticks: Vec<u64> = out.iter().map(|(t, _)| t.ticks()).collect();
        assert_eq!(
            ticks,
            vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 105, 110, 115, 120, 125]
        );
    }

    #[test]
    fn sizes_and_classes_pass_through_untouched() {
        let plain = draw_n(pareto_source(2, 120.0), 11, 300);
        let surged = draw_n(
            SurgedSource::new(pareto_source(2, 120.0), vec![(Time::from_ticks(0), 0.25)]),
            11,
            300,
        );
        assert_eq!(
            SurgedSource::new(pareto_source(2, 120.0), Vec::new()).class(),
            2
        );
        let sizes_plain: Vec<u32> = plain.iter().map(|&(_, s)| s).collect();
        let sizes_surged: Vec<u32> = surged.iter().map(|&(_, s)| s).collect();
        assert_eq!(sizes_plain, sizes_surged);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_schedule_rejected() {
        let det = ClassSource::new(0, IatDist::deterministic(1.0).unwrap(), SizeDist::fixed(1));
        let _ = SurgedSource::new(
            det,
            vec![(Time::from_ticks(10), 1.0), (Time::from_ticks(5), 1.0)],
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nonpositive_scale_rejected() {
        let det = ClassSource::new(0, IatDist::deterministic(1.0).unwrap(), SizeDist::fixed(1));
        let _ = SurgedSource::new(det, vec![(Time::from_ticks(10), 0.0)]);
    }
}
