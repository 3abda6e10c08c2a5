//! Streaming (iterator-backed) arrival generation.
//!
//! A [`Trace`](crate::Trace) materializes every arrival up front — ideal
//! for replaying identical input through several schedulers, but O(packets)
//! memory. The iterators here generate the *same* arrival sequence lazily:
//! [`SourceStream`] walks one source, and [`MergedStream`] k-way-merges
//! several, ties going to the lower source index.
//! [`Trace::generate_per_source`](crate::Trace::generate_per_source) *is*
//! `MergedStream::per_source` collected, so for equal sources, horizon and
//! base seed the two agree entry for entry by construction.
//!
//! Every stream owns its RNG, which is what lets it draw a block of
//! arrivals at a time ([`ArrivalSource::fill_until`]): what the block
//! drawn across the horizon took from the RNG is never missed, and nobody
//! else's draws shift. Memory is O(sources): a block of 64 arrivals, 1 KiB,
//! per source, plus one cached head tick per source in the merge.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::Time;

use crate::onoff::OnOffSource;
use crate::source::ClassSource;
use crate::trace::{last_instant, per_source_seed, TraceEntry};

/// An unbounded generator of timestamped packet arrivals — the common face
/// of [`ClassSource`] and [`OnOffSource`] that lets the streaming
/// machinery (and the `qsim` runners built on it) take either.
pub trait ArrivalSource {
    /// The class this source feeds.
    fn class(&self) -> u8;

    /// Draws the next arrival: `(time, size_bytes)`.
    fn draw(&mut self, rng: &mut StdRng) -> (Time, u32);

    /// Draws arrivals into the non-empty `out` until it is full or one
    /// lies past `horizon`, and returns how many were written: exactly
    /// what that many [`draw`](Self::draw) calls return. An arrival past
    /// the horizon is the last one written.
    ///
    /// Filling `out` leaves source and `rng` where that many `draw` calls
    /// do. Passing the horizon ends the stream `rng` belongs to, and only
    /// what was written is promised: a source that draws its words a block
    /// at a time has taken the rest of the block's from `rng`, and a
    /// wrapper's inner source has run ahead. ([`ClassSource`] still stops
    /// its clock at that last arrival, as `draw` does.)
    fn fill_until(&mut self, rng: &mut StdRng, horizon: Time, out: &mut [(Time, u32)]) -> usize {
        for (n, slot) in out.iter_mut().enumerate() {
            *slot = self.draw(rng);
            if slot.0 > horizon {
                return n + 1;
            }
        }
        out.len()
    }
}

impl ArrivalSource for ClassSource {
    fn class(&self) -> u8 {
        ClassSource::class(self)
    }

    fn draw(&mut self, rng: &mut StdRng) -> (Time, u32) {
        self.next_arrival(rng)
    }

    fn fill_until(&mut self, rng: &mut StdRng, horizon: Time, out: &mut [(Time, u32)]) -> usize {
        ClassSource::fill_until(self, rng, horizon, out)
    }
}

impl ArrivalSource for OnOffSource {
    fn class(&self) -> u8 {
        OnOffSource::class(self)
    }

    fn draw(&mut self, rng: &mut StdRng) -> (Time, u32) {
        self.next_arrival(rng)
    }
}

/// A borrowed source streams in place, which is how
/// [`Trace::generate_per_source`](crate::Trace::generate_per_source)
/// leaves its caller's sources advanced.
impl<S: ArrivalSource + ?Sized> ArrivalSource for &mut S {
    fn class(&self) -> u8 {
        (**self).class()
    }

    fn draw(&mut self, rng: &mut StdRng) -> (Time, u32) {
        (**self).draw(rng)
    }

    fn fill_until(&mut self, rng: &mut StdRng, horizon: Time, out: &mut [(Time, u32)]) -> usize {
        (**self).fill_until(rng, horizon, out)
    }
}

/// Arrivals a stream draws at a time once it is running.
const BLOCK: usize = 64;
/// A stream's first block. Blocks double from here to [`BLOCK`], so a
/// stream that ends after a handful of arrivals (a Bench-scale cell, a
/// horizon of 0) has not paid for 64.
const FIRST_BLOCK: usize = 8;

/// Iterator over one source's arrivals up to an inclusive `horizon`.
///
/// The first arrival past the horizon ends the stream (matching the trace
/// generators, which discard it), and an arrival at `u64::MAX` ticks —
/// where a source's clock saturates — is past every horizon.
#[derive(Debug, Clone)]
pub struct SourceStream<S> {
    source: S,
    rng: StdRng,
    horizon: Time,
    /// `block[pos..len]` are drawn, within the horizon, and not yet taken.
    /// Empty only once the stream has ended, and then `block[pos]` is at
    /// [`Time::MAX`]: the head is always `block[pos]`.
    block: [(Time, u32); BLOCK],
    pos: usize,
    len: usize,
    /// Length of the next block to draw; 0 once the horizon is passed.
    want: usize,
}

impl<S: ArrivalSource> SourceStream<S> {
    /// Streams `source`'s arrivals from its own RNG seeded with `seed`.
    /// The first block is drawn here.
    pub fn new(source: S, seed: u64, horizon: Time) -> Self {
        let mut stream = SourceStream {
            source,
            rng: StdRng::seed_from_u64(seed),
            horizon: last_instant(horizon),
            block: [(Time::ZERO, 0); BLOCK],
            pos: 0,
            len: 0,
            want: FIRST_BLOCK,
        };
        stream.refill();
        stream
    }

    /// Draws the next block. The arrival that passes the horizon, always
    /// the last one drawn, becomes the end mark.
    fn refill(&mut self) {
        let out = &mut self.block[..self.want];
        let n = (self.source).fill_until(&mut self.rng, self.horizon, out);
        let last = &mut self.block[n - 1].0;
        let passed = *last > self.horizon;
        if passed {
            *last = Time::MAX;
        }
        self.pos = 0;
        self.len = n - usize::from(passed);
        self.want = if passed { 0 } else { BLOCK.min(2 * self.want) };
    }

    /// The tick of the arrival [`next`](Iterator::next) would return, or
    /// `u64::MAX` — which no arrival within a horizon has — at the end.
    #[inline]
    fn head(&self) -> u64 {
        self.block[self.pos].0.ticks()
    }

    /// Takes the head arrival, which must be within the horizon.
    #[inline]
    fn pop(&mut self) -> TraceEntry {
        let (at, size) = self.block[self.pos];
        self.pos += 1;
        if self.pos == self.len && self.want > 0 {
            self.refill();
        }
        TraceEntry {
            at,
            class: self.source.class(),
            size,
        }
    }
}

impl<S: ArrivalSource> Iterator for SourceStream<S> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        (self.pos < self.len).then(|| self.pop())
    }
}

/// K-way merge of several [`SourceStream`]s into one time-ordered arrival
/// stream.
///
/// Ties are broken by source index — the order a stable sort by time gives
/// per-source arrivals laid end to end, which is how
/// [`Trace::generate_per_source`](crate::Trace::generate_per_source) was
/// first defined. Each `next()` scans one cached integer key per source;
/// the arrivals behind the keys sit in the streams' blocks.
#[derive(Debug, Clone)]
pub struct MergedStream<S> {
    streams: Vec<SourceStream<S>>,
    /// `heads[i]` = `streams[i].head()`.
    heads: Vec<u64>,
}

impl<S: ArrivalSource> MergedStream<S> {
    /// Merges `sources`, seeding source *i* with
    /// [`per_source_seed`]`(base_seed, i)` — the seeding scheme of
    /// [`Trace::generate_per_source`](crate::Trace::generate_per_source).
    pub fn per_source(sources: Vec<S>, base_seed: u64, horizon: Time) -> Self {
        let streams: Vec<SourceStream<S>> = sources
            .into_iter()
            .enumerate()
            .map(|(i, src)| SourceStream::new(src, per_source_seed(base_seed, i), horizon))
            .collect();
        MergedStream::from_streams(streams)
    }

    /// Merges already-constructed streams (for custom per-source seeds).
    pub fn from_streams(streams: Vec<SourceStream<S>>) -> Self {
        let heads = streams.iter().map(SourceStream::head).collect();
        MergedStream { streams, heads }
    }
}

impl<S: ArrivalSource> Iterator for MergedStream<S> {
    type Item = TraceEntry;

    #[inline]
    fn next(&mut self) -> Option<TraceEntry> {
        // Earliest head; of equal ones, the first.
        let (mut winner, mut at) = (0, u64::MAX);
        for (i, &head) in self.heads.iter().enumerate() {
            if head < at {
                (winner, at) = (i, head);
            }
        }
        if at == u64::MAX {
            return None;
        }
        let stream = &mut self.streams[winner];
        let entry = stream.pop();
        self.heads[winner] = stream.head();
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::IatDist;
    use crate::sizes::SizeDist;
    use crate::trace::Trace;

    fn paper_source(class: u8, mean_gap: f64) -> ClassSource {
        ClassSource::new(
            class,
            IatDist::paper_pareto(mean_gap).unwrap(),
            SizeDist::paper(),
        )
    }

    #[test]
    fn source_stream_matches_materialized_generation() {
        let horizon = Time::from_ticks(500_000);
        let trace = Trace::generate_per_source(&mut [paper_source(0, 100.0)], horizon, 42);
        let streamed: Vec<TraceEntry> =
            SourceStream::new(paper_source(0, 100.0), per_source_seed(42, 0), horizon).collect();
        assert!(!streamed.is_empty());
        assert_eq!(trace.entries(), &streamed[..]);
    }

    #[test]
    fn merged_stream_equals_generate_per_source() {
        let horizon = Time::from_ticks(500_000);
        let mk = || {
            vec![
                paper_source(0, 80.0),
                paper_source(1, 120.0),
                paper_source(2, 200.0),
            ]
        };
        let trace = Trace::generate_per_source(&mut mk(), horizon, 7);
        let streamed: Vec<TraceEntry> = MergedStream::per_source(mk(), 7, horizon).collect();
        assert_eq!(trace.entries(), &streamed[..]);
    }

    #[test]
    fn merge_breaks_time_ties_by_source_index() {
        // Two deterministic sources firing at the same instants: the
        // lower-index source must always come first.
        let mk = |class| {
            ClassSource::new(
                class,
                IatDist::deterministic(10.0).unwrap(),
                SizeDist::fixed(1),
            )
        };
        let merged: Vec<TraceEntry> =
            MergedStream::per_source(vec![mk(1), mk(0)], 0, Time::from_ticks(40)).collect();
        let classes: Vec<u8> = merged.iter().map(|e| e.class).collect();
        assert_eq!(classes, vec![1, 0, 1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn onoff_sources_stream_too() {
        let src = OnOffSource::new(
            0,
            IatDist::deterministic(10.0).unwrap(),
            SizeDist::fixed(100),
            IatDist::deterministic(100.0).unwrap(),
            IatDist::deterministic(900.0).unwrap(),
        );
        let n = SourceStream::new(src, 3, Time::from_ticks(10_000)).count();
        // ~10 packets per 100-tick ON period, one period per 1000 ticks.
        assert!((80..=120).contains(&n), "got {n}");
    }

    #[test]
    fn empty_merge_is_empty() {
        let mut m = MergedStream::<ClassSource>::per_source(Vec::new(), 0, Time::from_ticks(10));
        assert_eq!(m.next(), None);
    }
}
