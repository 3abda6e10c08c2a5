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
//!
//! Owning its RNG and never looking at the run it feeds is also what lets
//! a long stream be drawn *ahead* of its reader: [`Ahead`] moves it to a
//! helper thread that fills one block while the reader drains the other.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

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

impl<S: ArrivalSource + Send + 'static> MergedStream<S> {
    /// The same arrivals, drawn a block ahead of the reader once the
    /// stream has shown itself to be long: see [`Ahead`].
    pub fn ahead(self) -> Ahead<Self> {
        Ahead::new(self)
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

/// Calls of `next()` an [`Ahead`] stream answers in place before the rest
/// moves to the helper thread: four blocks' worth. What the hand-over costs
/// once — a thread started and joined, and the reader idle while the first
/// block is drawn, ≈ 100–200 µs on the 2-vCPU box the benchmark runs on — is
/// what several thousand entries drawn ahead save a session (≈ 26 ns each),
/// so a stream should have shown that it runs that long before it is moved;
/// and the threshold has to clear, with room, every source-driven session of
/// a `Scale::Bench` farm cell (6 000 p-units, ≈ 5 700 arrivals at ρ = 0.95),
/// whose workers run on cores that are already taken.
const AHEAD_AFTER: usize = 16_384;
/// Entries in a block. Handing one over costs the reader ≈ 12 µs (a futex
/// wake that reaches a halted vCPU, and now and then a sleep of its own)
/// whatever its length, so the length sets the price: two blocks of 2 048
/// (64 KiB in flight) read 1.33× on `session-stream` but 5.6 % *behind* the
/// in-place stream when both cores are already taken, two of 4 096
/// (128 KiB, 16 bytes an entry) 1.42× and 2.7–3.9 % behind, for 0.06 MB
/// more (PERFORMANCE.md, "Drawn ahead").
const AHEAD_BLOCK: usize = 4096;
/// The helper's stack: the merge, `pow` and a `Vec::extend`, nothing deep.
const HELPER_STACK_BYTES: usize = 32 * 1024;

/// Helper threads started by [`Ahead`] streams in this process.
static HELPERS_STARTED: AtomicUsize = AtomicUsize::new(0);

/// How many [`Ahead`] streams of this process have handed over to a helper
/// thread so far — a statistic, for tests and reports.
pub fn ahead_helpers_started() -> usize {
    HELPERS_STARTED.load(Ordering::Relaxed)
}

/// An arrival stream drawn a block ahead of its reader.
///
/// Entry for entry the stream it wraps. The first 16 384 calls of
/// `next()` are the inner stream's own; a stream still being read then is
/// moved into a helper thread (`arrivals-ahead`), which fills one
/// recycled block of 4 096 entries while the reader drains the
/// other. Only a stream that owns everything it reads (`Send + 'static`:
/// its sources and their RNGs) and whose entries do not depend on what the
/// reader does with them can be drawn ahead; that is every
/// [`MergedStream`] of owned sources.
///
/// * The end of the stream is an explicit mark set by the helper. A helper
///   that panics — a source's assertion — never sets it, and the reader
///   re-raises that panic from `next()` instead of ending early.
/// * Dropping the reader (an early `take(n)`, a panic in the loop it
///   feeds) tells the helper to stop at its next block and joins it.
/// * On a host that reports one core the stream stays in place.
#[derive(Debug)]
pub struct Ahead<I>(State<I>);

#[derive(Debug)]
enum State<I> {
    /// Drawn by the reader; `left` calls to go before the hand-over.
    InPlace { stream: I, left: usize },
    /// Drawn by the helper.
    Piped(Pipe),
    /// Between the two, while the stream is being moved.
    Moving,
}

impl<I: Iterator<Item = TraceEntry> + Send + 'static> Ahead<I> {
    /// Wraps `stream`. Nothing is started until it has been asked for
    /// 16 384 entries.
    pub fn new(stream: I) -> Self {
        Ahead::on_cores(stream, host_cores())
    }

    /// [`new`](Self::new) on a host with `cores` cores.
    fn on_cores(stream: I, cores: usize) -> Self {
        let left = if cores > 1 { AHEAD_AFTER } else { usize::MAX };
        Ahead(State::InPlace { stream, left })
    }

    /// Moves the stream into a helper thread.
    #[cold]
    fn hand_over(&mut self) {
        let State::InPlace { stream, .. } = std::mem::replace(&mut self.0, State::Moving) else {
            unreachable!("only a stream drawn in place is handed over");
        };
        self.0 = State::Piped(Pipe::start(stream));
    }
}

/// Cores of this host, asked once (the answer reads cgroup files).
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

impl<I: Iterator<Item = TraceEntry> + Send + 'static> Iterator for Ahead<I> {
    type Item = TraceEntry;

    // Out of line on purpose. The reader is `qsim`'s service loop, which
    // is fastest with the merge one call away (as it was before this
    // wrapper existed): with the merge and the pipe inlined into it, a
    // session in place read 77–79 ns a packet against 75 so and 73 bare.
    #[inline(never)]
    fn next(&mut self) -> Option<TraceEntry> {
        if let State::InPlace { stream, left } = &mut self.0 {
            if *left > 0 {
                *left -= 1;
                return stream.next();
            }
            self.hand_over();
        }
        match &mut self.0 {
            State::Piped(pipe) => pipe.next(),
            _ => unreachable!("the stream was handed over"),
        }
    }
}

/// What reader and helper share: the blocks not in either's hands.
#[derive(Debug)]
struct Shared {
    lane: Mutex<Lane>,
    /// Signalled on every change of `lane`; each side waits on it for the
    /// other, so one wake reaches the one possible waiter.
    changed: Condvar,
}

#[derive(Debug, Default)]
struct Lane {
    /// Blocks drawn and not yet taken by the reader, oldest first; none is
    /// empty.
    filled: VecDeque<Vec<TraceEntry>>,
    /// Blocks read to the end, for the helper to fill again.
    spare: Vec<Vec<TraceEntry>>,
    /// The end mark: the stream's last entry has been put in `filled`.
    ended: bool,
    /// The helper has left its loop — if `ended` is unset, by panicking.
    helper_gone: bool,
    /// The reader was dropped; the helper stops at its next block.
    reader_gone: bool,
}

impl Shared {
    /// The lane. No critical section below can panic half-way through an
    /// update (each is a push, a pop or a flag), so a poisoned lock still
    /// guards a valid lane — and `Drop` must not panic over it.
    fn lane(&self) -> MutexGuard<'_, Lane> {
        self.lane.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, lane: MutexGuard<'a, Lane>) -> MutexGuard<'a, Lane> {
        (self.changed.wait(lane)).unwrap_or_else(PoisonError::into_inner)
    }
}

/// The helper's loop: take a spare block, fill it from `stream`, put it in
/// `filled`; the block that comes up short goes with the end mark.
fn draw_ahead(mut stream: impl Iterator<Item = TraceEntry>, shared: &Shared) {
    /// Tells the reader the helper is gone, however it went.
    struct Leaving<'a>(&'a Shared);
    impl Drop for Leaving<'_> {
        fn drop(&mut self) {
            self.0.lane().helper_gone = true;
            self.0.changed.notify_one();
        }
    }
    let _leaving = Leaving(shared);
    loop {
        let mut lane = shared.lane();
        let mut block = loop {
            if lane.reader_gone {
                return;
            }
            match lane.spare.pop() {
                Some(block) => break block,
                None => lane = shared.wait(lane),
            }
        };
        drop(lane);
        block.clear();
        block.extend(stream.by_ref().take(AHEAD_BLOCK));
        let ended = block.len() < AHEAD_BLOCK;
        let mut lane = shared.lane();
        if !block.is_empty() {
            lane.filled.push_back(block);
        }
        lane.ended = ended;
        drop(lane);
        shared.changed.notify_one();
        if ended {
            return;
        }
    }
}

/// The reader's end of a stream drawn by a helper thread.
#[derive(Debug)]
struct Pipe {
    shared: Arc<Shared>,
    /// Joined at the end of the stream or on drop, whichever is first.
    helper: Option<JoinHandle<()>>,
    /// The block being read: `block[pos..]` is still to be yielded.
    block: Vec<TraceEntry>,
    pos: usize,
}

impl Pipe {
    /// Starts the helper on `stream`, with one spare block; the reader's
    /// own, still empty, is the other.
    fn start(stream: impl Iterator<Item = TraceEntry> + Send + 'static) -> Pipe {
        let shared = Arc::new(Shared {
            lane: Mutex::new(Lane {
                spare: vec![Vec::with_capacity(AHEAD_BLOCK)],
                ..Lane::default()
            }),
            changed: Condvar::new(),
        });
        let theirs = Arc::clone(&shared);
        let helper = thread::Builder::new()
            .name("arrivals-ahead".into())
            .stack_size(HELPER_STACK_BYTES)
            .spawn(move || draw_ahead(stream, &theirs))
            .expect("the host starts one more thread");
        HELPERS_STARTED.fetch_add(1, Ordering::Relaxed);
        Pipe {
            shared,
            helper: Some(helper),
            block: Vec::with_capacity(AHEAD_BLOCK),
            pos: 0,
        }
    }

    #[inline]
    fn next(&mut self) -> Option<TraceEntry> {
        // The `mutate-ahead-handover` mutant hands a block back with its
        // last entry unread.
        let unread = usize::from(cfg!(feature = "mutate-ahead-handover"));
        if self.pos + unread >= self.block.len() && !self.swap() {
            return None;
        }
        let entry = self.block[self.pos];
        self.pos += 1;
        Some(entry)
    }

    /// Hands the block just read back to the helper and takes the next
    /// one; `false` at the end of the stream.
    ///
    /// # Panics
    /// Re-raises the helper's panic, if that is how the stream ended.
    #[inline(never)]
    fn swap(&mut self) -> bool {
        let mut lane = self.shared.lane();
        lane.spare.push(std::mem::take(&mut self.block));
        self.pos = 0;
        self.shared.changed.notify_one();
        loop {
            if let Some(block) = lane.filled.pop_front() {
                self.block = block;
                return true;
            }
            if lane.ended || lane.helper_gone {
                break;
            }
            lane = self.shared.wait(lane);
        }
        let ended = lane.ended;
        drop(lane);
        if let Some(Err(panic)) = self.helper.take().map(JoinHandle::join) {
            std::panic::resume_unwind(panic);
        }
        assert!(
            ended,
            "the helper left without marking the end of the stream"
        );
        false
    }
}

impl Drop for Pipe {
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            self.shared.lane().reader_gone = true;
            self.shared.changed.notify_one();
            // What the helper drew past the last entry read is nobody's
            // business any more, a panic over it included.
            let _ = helper.join();
        }
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

    /// The `i`-th entry of a stream with nothing to compute.
    fn numbered(i: usize) -> TraceEntry {
        TraceEntry {
            at: Time::from_ticks(i as u64),
            class: (i % 4) as u8,
            size: (i % 1500) as u32,
        }
    }

    /// `n` numbered entries drawn ahead on a host with two cores, and
    /// whether a helper drew the last of them.
    fn drawn_ahead(n: usize) -> (Vec<TraceEntry>, bool) {
        let mut ahead = Ahead::on_cores((0..n).map(numbered), 2);
        let entries: Vec<TraceEntry> = ahead.by_ref().collect();
        let piped = matches!(ahead.0, State::Piped(_));
        assert_eq!(ahead.next(), None, "a stream that ended stays ended");
        (entries, piped)
    }

    #[test]
    fn ahead_is_the_stream_at_every_length_around_the_hand_over() {
        let (t, b) = (AHEAD_AFTER, AHEAD_BLOCK);
        let mut lengths = vec![0, 1, t - 1, t, t + 1];
        for k in 1..=3 {
            lengths.extend([t + k * b - 1, t + k * b, t + k * b + 1]);
        }
        for n in lengths {
            let (entries, piped) = drawn_ahead(n);
            let inline: Vec<TraceEntry> = (0..n).map(numbered).collect();
            assert_eq!(entries.len(), n);
            assert!(entries == inline, "length {n} differs");
            // The call after the `t`-th is what moves the stream.
            assert_eq!(piped, n >= t, "length {n}");
        }
    }

    #[test]
    fn a_host_with_one_core_draws_in_place() {
        let n = AHEAD_AFTER + 3 * AHEAD_BLOCK;
        let mut ahead = Ahead::on_cores((0..n).map(numbered), 1);
        assert_eq!(ahead.by_ref().count(), n);
        assert!(matches!(ahead.0, State::InPlace { .. }));
    }

    #[test]
    #[should_panic(expected = "the source broke at 20000")]
    fn a_panic_in_the_helper_is_the_readers_panic() {
        // Well past the hand-over and in the middle of a block: read as an
        // end of stream this would be a run 20 000 arrivals long.
        let stream = (0..).map(|i| {
            assert!(i < 20_000, "the source broke at {i}");
            numbered(i)
        });
        let served = Ahead::on_cores(stream, 2).count();
        unreachable!("the stream ended after {served} entries");
    }

    #[test]
    fn dropping_the_reader_stops_and_joins_the_helper() {
        // The stream owns a token; the helper owns the stream. Once the
        // reader is dropped nothing else may hold it: the helper has been
        // told, has left its loop and has been joined — not detached.
        let token = Arc::new(());
        let held = Arc::clone(&token);
        let endless = (0..).map(move |i| {
            let _ = &held;
            numbered(i)
        });
        let mut ahead = Ahead::on_cores(endless, 2);
        let read = AHEAD_AFTER + AHEAD_BLOCK;
        assert!(ahead.by_ref().take(read).eq((0..read).map(numbered)));
        assert!(matches!(ahead.0, State::Piped(_)));
        assert_eq!(Arc::strong_count(&token), 2);
        drop(ahead);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    proptest::proptest! {
        /// Arbitrary source sets over horizons on both sides of the
        /// hand-over (four sources at these gaps reach it near 400 000
        /// ticks), read to the end or dropped part-way.
        #[test]
        fn ahead_is_the_merged_stream(
            gaps in proptest::collection::vec(40u32..400, 0..5),
            seed in 0u64..1 << 32,
            horizon in proptest::prop_oneof![0u64..50_000, 0u64..2_000_000],
            cut in 0usize..60_000,
        ) {
            let horizon = Time::from_ticks(horizon);
            let mk = || -> Vec<ClassSource> {
                (gaps.iter().enumerate())
                    .map(|(i, &gap)| paper_source(i as u8, f64::from(gap)))
                    .collect()
            };
            let inline: Vec<TraceEntry> = MergedStream::per_source(mk(), seed, horizon).collect();
            let ahead = || Ahead::on_cores(MergedStream::per_source(mk(), seed, horizon), 2);
            proptest::prop_assert!(ahead().eq(inline.iter().copied()));
            let cut = cut.min(inline.len());
            proptest::prop_assert!(ahead().take(cut).eq(inline[..cut].iter().copied()));
        }
    }
}
