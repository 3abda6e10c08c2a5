//! The block path is the scalar path: every arrival `traffic` draws a
//! block at a time is, bit for bit, the one `next_arrival` draws — same RNG
//! words in the same order, same `f64` clock, same ticks.
//!
//! The scalar references live here, in test code only: a loop over
//! `next_arrival`/`draw`, and `Trace::generate_per_source` as it was
//! written before it became the merged stream collected (each source run
//! to the horizon in turn, then one stable sort by time).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcore::Time;
use traffic::{
    per_source_seed, ArrivalSource, ClassSource, IatDist, MergedStream, OnOffSource, SizeDist,
    SourceStream, SurgedSource, Trace, TraceEntry,
};

/// Every `IatDist` variant, by `kind % 5`.
fn iat(kind: usize, mean: f64) -> IatDist {
    match kind % 5 {
        0 => IatDist::paper_pareto(mean),
        1 => IatDist::bounded_pareto(1.9, mean, 3.0),
        2 => IatDist::exponential(mean),
        3 => IatDist::deterministic(mean),
        _ => IatDist::uniform(0.25 * mean, 1.75 * mean),
    }
    .unwrap()
}

/// By `kind / 5 % 2`: `Fixed` sizes draw no word, `Empirical` ones a word
/// per packet.
fn sizes(kind: usize) -> SizeDist {
    if kind / 5 % 2 == 1 {
        SizeDist::paper()
    } else {
        SizeDist::fixed(500)
    }
}

/// `n` arrivals, one `draw` at a time.
fn scalar<S: ArrivalSource>(src: &mut S, rng: &mut StdRng, n: usize) -> Vec<(Time, u32)> {
    (0..n).map(|_| src.draw(rng)).collect()
}

/// `lens.sum()` arrivals, one `fill_until` without a horizon per length.
fn blocks<S: ArrivalSource>(src: &mut S, rng: &mut StdRng, lens: &[usize]) -> Vec<(Time, u32)> {
    let mut out = Vec::new();
    for &len in lens {
        let mut block = vec![(Time::ZERO, 0); len];
        assert_eq!(src.fill_until(rng, Time::MAX, &mut block), len);
        out.extend(block);
    }
    out
}

/// Lengths on both sides of the sources' internal block of 64, empty
/// blocks included.
fn splits() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..150, 0..6)
}

proptest! {
    #[test]
    fn iat_fill_is_n_samples_to_the_bit(
        kind in 0usize..5,
        mean in 0.4f64..300.0,
        seed in 0u64..1 << 32,
        lens in splits(),
    ) {
        let dist = iat(kind, mean);
        let (mut rng_one, mut rng_block) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for len in lens {
            let expected: Vec<u64> = (0..len).map(|_| dist.sample(&mut rng_one).to_bits()).collect();
            let mut gaps = vec![0.0; len];
            dist.fill(&mut rng_block, &mut gaps);
            prop_assert_eq!(gaps.iter().map(|g| g.to_bits()).collect::<Vec<_>>(), expected);
        }
        prop_assert_eq!(rng_block.next_u64(), rng_one.next_u64());
    }

    #[test]
    fn class_source_fill_is_n_next_arrivals(
        kind in 0usize..10,
        mean in 0.4f64..300.0,
        seed in 0u64..1 << 32,
        lens in splits(),
    ) {
        let mut by_one = ClassSource::new(1, iat(kind, mean), sizes(kind));
        let mut by_block = by_one.clone();
        let (mut rng_one, mut rng_block) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let n: usize = lens.iter().sum();
        let expected: Vec<_> = (0..n).map(|_| by_one.next_arrival(&mut rng_one)).collect();
        let mut got = Vec::new();
        for &len in &lens {
            let mut block = vec![(Time::ZERO, 0); len];
            by_block.fill(&mut rng_block, &mut block);
            got.extend(block);
        }
        prop_assert_eq!(got, expected);
        // An exact-length fill leaves the RNG and the clock where the
        // scalar calls do.
        prop_assert_eq!(rng_block.next_u64(), rng_one.next_u64());
        prop_assert_eq!(by_block.next_arrival(&mut rng_block), by_one.next_arrival(&mut rng_one));
    }

    #[test]
    fn fill_until_through_the_trait_is_n_draws(
        kind in 0usize..10,
        seed in 0u64..1 << 32,
        scale in 0.3f64..3.0,
        lens in splits(),
    ) {
        let n: usize = lens.iter().sum();
        let class_source = ClassSource::new(2, iat(kind, 40.0), sizes(kind));
        // The provided method (a loop over `draw`).
        let on_off = OnOffSource::new(
            0,
            iat(kind, 5.0),
            sizes(kind),
            IatDist::paper_pareto(200.0).unwrap(),
            IatDist::exponential(300.0).unwrap(),
        );
        // The inner block, retimed: across two breakpoints.
        let schedule = vec![(Time::from_ticks(500), scale), (Time::from_ticks(2_000), 1.0 / scale)];
        let surged = SurgedSource::new(class_source.clone(), schedule);

        fn check<S: ArrivalSource + Clone>(src: S, seed: u64, n: usize, lens: &[usize]) {
            let (mut by_one, mut by_block) = (src.clone(), src);
            let (mut rng_one, mut rng_block) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            assert_eq!(
                blocks(&mut by_block, &mut rng_block, lens),
                scalar(&mut by_one, &mut rng_one, n)
            );
            assert_eq!(rng_block.next_u64(), rng_one.next_u64());
            assert_eq!(by_block.draw(&mut rng_block), by_one.draw(&mut rng_one));
        }
        check(class_source, seed, n, &lens);
        check(on_off, seed, n, &lens);
        check(surged, seed, n, &lens);
    }

    #[test]
    fn fill_until_stops_at_the_first_arrival_past_the_horizon(
        kind in 0usize..20,
        seed in 0u64..1 << 32,
        horizon in 0u64..6_000,
        len in 1usize..200,
    ) {
        let horizon = Time::from_ticks(horizon);

        /// What `fill_until` wrote is what as many `draw`s return, and it
        /// stopped where it should; returns both sources as they were left.
        fn check<S: ArrivalSource + Clone>(src: S, seed: u64, horizon: Time, len: usize) -> (S, S) {
            let (mut by_one, mut by_block) = (src.clone(), src);
            let mut block = vec![(Time::ZERO, 0); len];
            let n = by_block.fill_until(&mut StdRng::seed_from_u64(seed), horizon, &mut block);
            let expected = scalar(&mut by_one, &mut StdRng::seed_from_u64(seed), n);
            assert_eq!(&block[..n], &expected[..]);
            assert!(block[..n - 1].iter().all(|a| a.0 <= horizon));
            assert!(n == len || block[n - 1].0 > horizon);
            (by_one, by_block)
        }
        let inner = ClassSource::new(3, iat(kind, 40.0), sizes(kind));
        if kind >= 10 {
            check(SurgedSource::new(inner, vec![(Time::from_ticks(1_000), 0.5)]), seed, horizon, len);
        } else {
            // A `ClassSource` is also left where the scalar calls leave it
            // (the words its block drew ahead are the stream's loss, not
            // the source's): from a common RNG both go on alike.
            let (mut by_one, mut by_block) = check(inner, seed, horizon, len);
            let (mut rng_one, mut rng_block) = (StdRng::seed_from_u64(!seed), StdRng::seed_from_u64(!seed));
            prop_assert_eq!(scalar(&mut by_block, &mut rng_block, 3), scalar(&mut by_one, &mut rng_one, 3));
        }
    }
}

/// A source from a small menu: the paper's Pareto, and periodic ones whose
/// instants collide across sources (gaps 10, 10 and 15) so that ties
/// between sources are the rule.
fn menu(pick: usize, class: u8) -> ClassSource {
    let (iat, sizes) = match pick {
        0 => (IatDist::paper_pareto(35.0), SizeDist::paper()),
        1 => (IatDist::deterministic(10.0), SizeDist::fixed(100)),
        2 => (IatDist::deterministic(10.0), SizeDist::paper()),
        3 => (IatDist::deterministic(15.0), SizeDist::fixed(40)),
        4 => (IatDist::exponential(50.0), SizeDist::paper()),
        _ => (IatDist::uniform(0.0, 3.0), SizeDist::fixed(7)),
    };
    ClassSource::new(class, iat.unwrap(), sizes)
}

/// `Trace::generate_per_source` before it was the merged stream: every
/// source run to the horizon in turn, the lot stable-sorted by time.
fn per_source_then_stable_sort(
    sources: &mut [ClassSource],
    horizon: Time,
    base_seed: u64,
) -> Vec<TraceEntry> {
    let mut entries = Vec::new();
    for (i, src) in sources.iter_mut().enumerate() {
        let mut rng = StdRng::seed_from_u64(per_source_seed(base_seed, i));
        loop {
            let (at, size) = src.next_arrival(&mut rng);
            if at > horizon {
                break;
            }
            let class = src.class();
            entries.push(TraceEntry { at, class, size });
        }
    }
    entries.sort_by_key(|e| e.at);
    entries
}

proptest! {
    #[test]
    fn merged_stream_is_generate_per_source_is_the_sorted_reference(
        picks in prop::collection::vec(0usize..6, 0..10),
        seed in 0u64..1 << 32,
        horizon in prop_oneof![0u64..1, 0u64..20, 0u64..4_000],
        cut in 0usize..400,
    ) {
        let horizon = Time::from_ticks(horizon);
        let mk = || -> Vec<ClassSource> {
            picks.iter().enumerate().map(|(i, &p)| menu(p, i as u8)).collect()
        };
        let mut reference_sources = mk();
        let reference = per_source_then_stable_sort(&mut reference_sources, horizon, seed);

        let mut merged = MergedStream::per_source(mk(), seed, horizon);
        let cut = cut.min(reference.len());
        let head: Vec<TraceEntry> = merged.by_ref().take(cut).collect();
        // A stream cloned mid-block carries its blocks with it.
        let clone = merged.clone();
        prop_assert_eq!(&head[..], &reference[..cut]);
        prop_assert_eq!(&merged.collect::<Vec<_>>()[..], &reference[cut..]);
        prop_assert_eq!(&clone.collect::<Vec<_>>()[..], &reference[cut..]);

        let mut sources = mk();
        let trace = Trace::generate_per_source(&mut sources, horizon, seed);
        prop_assert_eq!(trace.entries(), &reference[..]);
        // … and leaves the caller's sources where the reference does: each
        // at its first arrival past the horizon.
        for (src, reference_src) in sources.iter_mut().zip(&mut reference_sources) {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            prop_assert_eq!(src.next_arrival(&mut a), reference_src.next_arrival(&mut b));
        }
    }
}

#[test]
fn generate_per_source_leaves_each_clock_at_the_first_arrival_past_the_horizon() {
    // Periodic sources make the clocks legible: gap 7 passes 100 at 105,
    // gap 30 at 120; the next arrival is one more gap on.
    let det = |gap| ClassSource::new(0, IatDist::deterministic(gap).unwrap(), SizeDist::fixed(1));
    let mut sources = [det(7.0), det(30.0)];
    let trace = Trace::generate_per_source(&mut sources, Time::from_ticks(100), 3);
    assert_eq!(trace.len(), 14 + 3);
    let mut rng = StdRng::seed_from_u64(0);
    assert_eq!(sources[0].next_arrival(&mut rng).0, Time::from_ticks(112));
    assert_eq!(sources[1].next_arrival(&mut rng).0, Time::from_ticks(150));
}

/// A source whose clock passes 2⁶⁴ after 18 arrivals and saturates at
/// `u64::MAX` ticks from the 19th on.
fn saturating() -> ClassSource {
    ClassSource::new(0, IatDist::deterministic(1e18).unwrap(), SizeDist::fixed(1))
}

#[test]
fn a_saturated_clock_ends_the_stream_under_any_horizon() {
    // `at > horizon` is never true for `horizon == Time::MAX`: before an
    // arrival at `u64::MAX` counted as past every horizon, the first two
    // of these pushed entries until the allocator gave up and the third
    // never returned `None`.
    let per_source = Trace::generate_per_source(&mut [saturating()], Time::MAX, 0);
    assert_eq!(per_source.len(), 18);
    let shared = Trace::generate(
        &mut [saturating(), saturating()],
        Time::MAX,
        &mut StdRng::seed_from_u64(0),
    );
    assert_eq!(shared.len(), 36);
    let mut stream = SourceStream::new(saturating(), 0, Time::MAX);
    assert_eq!(stream.by_ref().count(), 18);
    assert_eq!(stream.next(), None);
    let last = per_source.entries()[17].at;
    assert_eq!(last, Time::from_ticks(18_000_000_000_000_000_000));
}
