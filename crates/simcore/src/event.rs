//! Stable priority queue of timestamped events.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// An event's place in the run: its time, then its *sequence number* —
/// a number every scheduled event takes from one counter, so that events
/// of one tick are handled in the order they were scheduled. Keys compare
/// in that `(time, seq)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey(
    /// `time << 64 | seq`: the whole order in one branch-free compare.
    u128,
);

impl EventKey {
    /// The key of an event at `at` holding sequence number `seq`.
    #[inline]
    pub const fn new(at: Time, seq: u64) -> Self {
        EventKey((at.ticks() as u128) << 64 | seq as u128)
    }

    /// The event's time.
    #[inline]
    pub const fn time(self) -> Time {
        Time::from_ticks((self.0 >> 64) as u64)
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// Events popped from the queue come out in nondecreasing time order, and
/// events scheduled for the *same* tick come out in insertion order. The
/// latter matters for reproducibility: a packet arrival and a transmission
/// completion at the same tick must always resolve the same way.
///
/// Everything pushed before the first pop — a model's initial events,
/// often the bulk of all it will ever hold — goes to a *start lane*: a
/// `Vec` sorted once under the same `(time, seq)` order and consumed from
/// its end. Of the later pushes, one whose key is not below the last key
/// of the *tail lane* is appended there — a deque sorted by construction,
/// which is where events a fixed delay ahead (a timer, the next packet of
/// a periodic flow) arrive in order and wait at O(1) — and any other goes
/// to a binary heap. A pop takes the earliest of lane head, heap top and
/// tail front under the one key order, so neither lane changes a tie; they
/// only keep events out of the heap every near-future push and pop sifts
/// through.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pushes made before the first pop; once `started`, earliest last.
    lane: Vec<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    /// In-run pushes that came in key order, earliest first.
    tail: VecDeque<Entry<E>>,
    seq: u64,
    started: bool,
}

/// Where the earliest pending entry waits.
#[derive(Clone, Copy)]
enum Source {
    Lane,
    Heap,
    Tail,
}

#[derive(Debug)]
struct Entry<E> {
    key: EventKey,
    event: E,
}

// Reverse ordering so the BinaryHeap (a max-heap) pops the earliest entry.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` events before the first pop.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            lane: Vec::with_capacity(cap),
            heap: BinaryHeap::new(),
            tail: VecDeque::new(),
            seq: 0,
            started: false,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        self.push_keyed(EventKey::new(at, self.seq), event);
        self.seq += 1;
    }

    /// Queues `event` under a key made ahead of the push: its sequence
    /// number is one [`skip_seqs`](Self::skip_seqs) passes over, which is
    /// how a run of pushes and lane reservations, numbered in the order
    /// they were asked for, reaches the queue after the fact.
    pub fn push_keyed(&mut self, key: EventKey, event: E) {
        let entry = Entry { key, event };
        if !self.started {
            self.lane.push(entry);
        } else if self.extends_tail(key) {
            self.tail.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Whether an in-run push under `key` keeps the tail lane sorted. (The
    /// `mutate-tail-order` mutant admits every push: its tail is in push
    /// order, not key order.)
    #[inline]
    fn extends_tail(&self, key: EventKey) -> bool {
        cfg!(feature = "mutate-tail-order") || self.tail.back().is_none_or(|last| key >= last.key)
    }

    /// The sequence number the next [`push`](Self::push) takes.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Passes over the next `n` sequence numbers: pushes from here on are
    /// ordered as if `n` events had been pushed first. Whoever holds such
    /// an event elsewhere (a [`Model`](crate::Model) lane) keys it with
    /// the number passed over, as does a [`push_keyed`](Self::push_keyed).
    pub fn skip_seqs(&mut self, n: u64) {
        self.seq += n;
    }

    /// Closes the start lane at the first pop. `Entry`'s order is reversed
    /// and total, so an unstable ascending sort leaves the earliest last.
    fn start(&mut self) {
        if !self.started {
            self.started = true;
            self.lane.sort_unstable();
        }
    }

    /// Key of the entry the next pop removes, and where it waits: the
    /// smallest of the (sorted) start lane's head, the heap's top and the
    /// tail's front. (Spelled out head by head: a `min_by_key` over the
    /// three read 8 % slower on the coupled mesh.)
    #[inline]
    fn next(&self) -> Option<(EventKey, Source)> {
        let mut next = self.lane.last().map(|e| (e.key, Source::Lane));
        if let Some(e) = self.heap.peek() {
            if next.is_none_or(|(key, _)| e.key < key) {
                next = Some((e.key, Source::Heap));
            }
        }
        if let Some(e) = self.tail.front() {
            if next.is_none_or(|(key, _)| e.key < key) {
                next = Some((e.key, Source::Tail));
            }
        }
        next
    }

    /// Removes and returns the earliest event along with its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_at_or_before(Time::MAX)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `horizon`; leaves the queue untouched otherwise.
    ///
    /// This is the single-call replacement for a `peek_time` + `pop` pair:
    /// the run loop's bounds test and removal share one queue access, and
    /// `None` means either "empty" or "next event is past the horizon"
    /// (disambiguate with [`EventQueue::is_empty`]).
    pub fn pop_at_or_before(&mut self, horizon: Time) -> Option<(Time, E)> {
        self.pop_up_to(EventKey::new(horizon, u64::MAX))
    }

    /// [`pop_at_or_before`](Self::pop_at_or_before) on the whole order:
    /// removes the earliest event unless its key is past `bound`.
    pub fn pop_up_to(&mut self, bound: EventKey) -> Option<(Time, E)> {
        self.start();
        let (key, source) = self.next()?;
        if key > bound {
            return None;
        }
        let e = match source {
            Source::Lane => self.lane.pop(),
            Source::Heap => self.heap.pop(),
            Source::Tail => self.tail.pop_front(),
        }?;
        Some((key.time(), e.event))
    }

    /// Timestamp of the earliest pending event, if any. Before the first
    /// pop this scans the start lane, which is not sorted yet.
    pub fn peek_time(&self) -> Option<Time> {
        if self.started {
            self.next().map(|(key, _)| key.time())
        } else {
            self.lane.iter().map(|e| e.key.time()).min()
        }
    }

    /// Number of pending events, wherever they wait.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len() + self.tail.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty() && self.tail.is_empty()
    }

    /// Events in the binary heap alone: what a near-future push or pop
    /// sifts through. For tests of where events wait.
    #[doc(hidden)]
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Discards all pending events (the FIFO sequence counter keeps going)
    /// and reopens the start lane: an emptied queue is about to be refilled.
    pub fn clear(&mut self) {
        self.lane.clear();
        self.heap.clear();
        self.tail.clear();
        self.started = false;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ticks(30), "c");
        q.push(Time::from_ticks(10), "a");
        q.push(Time::from_ticks(20), "b");
        assert_eq!(q.pop(), Some((Time::from_ticks(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_ticks(20), "b")));
        assert_eq!(q.pop(), Some((Time::from_ticks(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(Time::from_ticks(5), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((Time::from_ticks(5), i)));
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ticks(7), ());
        q.push(Time::from_ticks(3), ());
        assert_eq!(q.peek_time(), Some(Time::from_ticks(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Time::from_ticks(7)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 1);
        q.push(Time::ZERO, 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(Time::from_ticks(10), "late");
        q.push(Time::from_ticks(5), "due");
        assert_eq!(
            q.pop_at_or_before(Time::from_ticks(5)),
            Some((Time::from_ticks(5), "due"))
        );
        // The remaining event is past the horizon: not popped, not lost.
        assert_eq!(q.pop_at_or_before(Time::from_ticks(9)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_at_or_before(Time::from_ticks(10)),
            Some((Time::from_ticks(10), "late"))
        );
        assert_eq!(q.pop_at_or_before(Time::from_ticks(u64::MAX)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn a_skipped_sequence_number_sits_between_the_pushes_around_it() {
        let at = Time::from_ticks(5);
        let mut q = EventQueue::new();
        q.push(at, "before");
        let held = q.next_seq();
        q.skip_seqs(1);
        q.push(at, "after");
        q.push(Time::from_ticks(4), "earlier tick");
        // An event kept elsewhere under `(5, held)` is due after "before"
        // and ahead of "after": a pop bounded by its key says so.
        let bound = EventKey::new(at, held);
        assert!(EventKey::new(Time::from_ticks(4), u64::MAX) < bound);
        assert_eq!(q.pop_up_to(bound).unwrap().1, "earlier tick");
        assert_eq!(q.pop_up_to(bound).unwrap().1, "before");
        assert_eq!(q.pop_up_to(bound), None);
        assert_eq!((q.len(), bound.time()), (1, at));
        assert_eq!(q.pop().unwrap().1, "after");
    }

    #[test]
    fn keyed_pushes_take_the_numbers_skipped_for_them() {
        let at = Time::from_ticks(5);
        let mut q = EventQueue::new();
        q.push(at, "before");
        let first = q.next_seq();
        // Three numbers handed out ahead: the middle one stays elsewhere.
        q.skip_seqs(3);
        q.push(at, "after");
        q.push_keyed(EventKey::new(at, first + 2), "third");
        q.push_keyed(EventKey::new(at, first), "first");
        let held = EventKey::new(at, first + 1);
        assert_eq!(q.pop_up_to(held).unwrap().1, "before");
        assert_eq!(q.pop_up_to(held).unwrap().1, "first");
        assert_eq!(q.pop_up_to(held), None);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, ["third", "after"]);
    }

    #[test]
    fn fifo_survives_interleaved_pops() {
        let mut q = EventQueue::new();
        q.push(Time::from_ticks(1), 'a');
        q.push(Time::from_ticks(1), 'b');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(Time::from_ticks(1), 'c');
        // 'b' was pushed before 'c', so it must still come first.
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }

    #[test]
    fn start_lane_and_heap_share_one_order() {
        let mut q = EventQueue::new();
        // Pre-run pushes (the start lane), out of time order.
        q.push(Time::from_ticks(9), "lane-9");
        q.push(Time::from_ticks(5), "lane-5");
        q.push(Time::from_ticks(5), "lane-5b");
        assert_eq!(q.peek_time(), Some(Time::from_ticks(5)));
        assert_eq!(q.pop().unwrap().1, "lane-5");
        // In-run pushes go to the heap: earlier times overtake the lane,
        // a tie with a lane entry goes to the lane (it was pushed first).
        q.push(Time::from_ticks(5), "heap-5");
        q.push(Time::from_ticks(9), "heap-9");
        q.push(Time::from_ticks(2), "heap-2");
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(Time::from_ticks(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["heap-2", "lane-5b", "heap-5", "lane-9", "heap-9"]);
        // A cleared queue takes bulk pushes again and keeps counting seq.
        q.push(Time::from_ticks(1), "stale");
        q.clear();
        q.push(Time::from_ticks(3), "b");
        q.push(Time::from_ticks(3), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn in_order_pushes_wait_in_the_tail_and_the_rest_in_the_heap() {
        let at = Time::from_ticks;
        let mut q = EventQueue::new();
        q.push(at(1), "start");
        assert_eq!(q.pop().unwrap().1, "start");
        // A timer far ahead, then nearer events: only the first of them
        // (the tail was empty) and the later timer are in key order.
        q.push(at(500), "timer-500");
        q.push(at(3), "near-3");
        q.push(at(2), "near-2");
        q.push(at(500), "timer-500b");
        q.push(at(700), "timer-700");
        q.push(at(600), "late-600");
        assert_eq!((q.len(), q.heap_len()), (6, 3));
        assert_eq!(q.peek_time(), Some(at(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let want = [
            "near-2",
            "near-3",
            "timer-500",
            "timer-500b",
            "late-600",
            "timer-700",
        ];
        assert_eq!(order, want);
    }

    #[test]
    fn a_tail_only_queue_is_seen_by_every_reader() {
        let at = Time::from_ticks;
        let mut q = EventQueue::new();
        assert_eq!(q.pop(), None);
        // Started and empty: in-order pushes never reach the heap.
        for t in [4, 4, 9] {
            q.push(at(t), t);
        }
        assert_eq!((q.len(), q.heap_len(), q.is_empty()), (3, 0, false));
        assert_eq!(q.peek_time(), Some(at(4)));
        assert_eq!(q.pop_at_or_before(at(3)), None);
        assert_eq!(q.pop_at_or_before(at(4)), Some((at(4), 4)));
        assert_eq!(q.pop_up_to(EventKey::new(at(4), 0)), None);
        assert_eq!(q.pop_at_or_before(at(4)), Some((at(4), 4)));
        assert_eq!(q.pop_at_or_before(at(8)), None);
        assert_eq!((q.len(), q.peek_time()), (1, Some(at(9))));
        assert_eq!(q.pop(), Some((at(9), 9)));
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_the_tail_and_reopens_the_start_lane() {
        let at = Time::from_ticks;
        let mut q = EventQueue::new();
        q.push(at(1), "start");
        q.pop();
        q.push(at(50), "tail");
        q.push(at(60), "tail");
        q.push(at(5), "heap");
        assert_eq!((q.len(), q.heap_len()), (3, 1));
        q.clear();
        assert_eq!((q.len(), q.heap_len(), q.peek_time()), (0, 0, None));
        // Bulk pushes out of order again: were the tail still open, the
        // second would be in the heap.
        q.push(at(9), "b");
        q.push(at(3), "a");
        assert_eq!((q.len(), q.heap_len()), (2, 0));
        assert_eq!(q.peek_time(), Some(at(3)));
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop(), None);
    }

    proptest! {
        /// The order contract, against a reference model — a `Vec` whose
        /// earliest entry is the one of minimal `(time, seq)` — over
        /// arbitrary mixes of pre-run pushes, pops, same-tick ties, bounded
        /// pops, peeks, `len`, `clear`, sequence numbers skipped and pushed
        /// under later, and in-run pushes of the three regimes: just ahead
        /// of the clock (the heap), one large constant ahead (the tail),
        /// and anywhere (both).
        #[test]
        fn prop_queue_matches_reference_model(
            ops in prop::collection::vec((0u8..16, 0u64..12), 0..300),
        ) {
            const FAR: u64 = 40;
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, u64, usize)> = Vec::new();
            // Sequence numbers passed over and not pushed under yet.
            let mut held: Vec<u64> = Vec::new();
            // The clock: the time of the last event popped.
            let mut now = 0;
            // Removes the model's earliest entry if it is due by `horizon`.
            let take = |model: &mut Vec<(u64, u64, usize)>, horizon: u64| {
                let at = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1))?;
                (model[at].0 <= horizon).then(|| model.remove(at))
            };
            for (id, &(op, t)) in ops.iter().enumerate() {
                match op {
                    // Pushes dominate so that queues grow; times are few so
                    // that ties are common.
                    0..=5 => {
                        let at = match op {
                            0..=2 => t,
                            3 => now + t % 3,
                            4 => now + FAR,
                            _ => now + 7 * t,
                        };
                        model.push((at, q.next_seq(), id));
                        q.push(Time::from_ticks(at), id);
                    }
                    6..=9 => {
                        let horizon = match op {
                            6 | 7 => u64::MAX,
                            8 => t,
                            _ => now + t,
                        };
                        let want = take(&mut model, horizon);
                        let got = q.pop_at_or_before(Time::from_ticks(horizon));
                        prop_assert_eq!(got.map(|(t, e)| (t.ticks(), e)), want.map(|(t, _, e)| (t, e)));
                        now = want.map_or(now, |(t, ..)| t);
                    }
                    10 => {
                        let n = 1 + t % 3;
                        held.extend(q.next_seq()..q.next_seq() + n);
                        q.skip_seqs(n);
                    }
                    11 | 12 if !held.is_empty() => {
                        let seq = held.swap_remove(t as usize % held.len());
                        let at = if op == 11 { now + t } else { now + FAR };
                        model.push((at, seq, id));
                        q.push_keyed(EventKey::new(Time::from_ticks(at), seq), id);
                    }
                    // Rare, or no queue would live long.
                    13 if t == 0 => {
                        q.clear();
                        model.clear();
                    }
                    _ => {}
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                let earliest = model.iter().map(|&(t, ..)| t).min();
                prop_assert_eq!(q.peek_time().map(|t| t.ticks()), earliest);
            }
        }

        /// Popping the whole queue yields times in nondecreasing order, and
        /// equal times preserve insertion order (stability).
        #[test]
        fn prop_pop_order_is_stable_sort(times in prop::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (idx, &t) in times.iter().enumerate() {
                q.push(Time::from_ticks(t), idx);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expected.sort_by_key(|&(t, i)| (t, i)); // stable order == (time, insertion)
            let mut got = Vec::new();
            while let Some((t, idx)) = q.pop() {
                got.push((t.ticks(), idx));
            }
            prop_assert_eq!(got, expected);
        }
    }
}
