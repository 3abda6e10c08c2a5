//! The emission clock of a Pareto [`MeshFlow`](crate::MeshFlow) — the one
//! definition both mesh engines read, so the exact engine's `Emit` events
//! and the decomposition's precomputed schedules are the same instants by
//! construction — and the [`EmissionLane`] the exact engine reads its
//! clocks through.

use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic::{per_source_seed, IatDist};

/// Instants computed at a time once a clock is running: [`IatDist::fill`]
/// lets their gaps' `pow` calls overlap. A coupled mesh holds one clock per
/// Pareto flow for the whole run; the [`EmissionLane`] visits them in index
/// order once a window and takes two or three instants from each, so a
/// longer block is drawn no more cheaply per instant and only makes the
/// clocks a larger array to walk: at 32, `mesh-coupled` read 0.448 / 0.421
/// / 0.421 / 0.416 s a pass against 0.392 / 0.406 / 0.415 / 0.421 s at 8
/// (four alternating pairs) and `peak_rss_mb` 37.0 against 36.2.
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
            // The integer nudge is the float one below 2⁵³ ticks; above,
            // where `prev as f64 + 1.0` can round back to `prev`, it is
            // what keeps a flow's instants strictly increasing.
            let next = (self.clock.round().max(self.prev as f64 + 1.0) as u64)
                .max(self.prev.saturating_add(1));
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

/// Emissions a window of the lane is sized to hold. `mesh-coupled` read
/// 0.377–0.393 / 0.366–0.384 / 0.368–0.393 s a pass at 2 048 / 8 192 /
/// 32 768: insensitive, hence a constant.
const WINDOW_INSTANTS: f64 = 8_192.0;

/// A Pareto flow of a mesh, as the lane takes it.
pub(crate) struct LaneFlow {
    /// The flow's index in the mesh (it seeds the clock, and it is what
    /// [`EmissionLane::pop`] answers with).
    pub(crate) flow: usize,
    pub(crate) start_ticks: u64,
    pub(crate) mean_gap_ticks: f64,
    pub(crate) until_ticks: u64,
}

/// Every Pareto emission of a coupled mesh, in the order the event queue
/// would have handled them — without any of them entering it.
///
/// A Pareto flow is open-loop: its clock yields the flow's instants
/// without looking at the network. So instead of parking one far-future
/// `Emit` per flow in the event heap, where every other event sifts past
/// them, the lane pulls a *window* of simulated time out of all clocks at
/// once — a flow's start, then what its clock yields — sorts it by instant
/// and hands it out by cursor; `simcore` merges lane and queue on the
/// `(time, seq)` key ([`simcore::Model::lane_peek`]).
///
/// The sequence number of an emission is the one its `Emit` would have
/// been scheduled under: the handler of the flow's previous emission
/// reserves it and [`stamp`](Self::stamp)s the clock. It is not known when
/// the window is sorted, but it is whenever it is read. A clock's instants
/// strictly increase (the `prev + 1` nudge), the window is sorted, so by
/// the time an emission heads the lane its flow's previous one has been
/// handled; and every emission sharing the head's tick is in the same
/// position. Hence [`peek`](Self::peek) settles a same-tick run by
/// smallest stamp, and the head's key is final when `simcore` compares it.
///
/// Only events whose instants do not depend on simulation state may live
/// here. A closed-loop (ECN-adaptive) source, a `TxDone`, an `Arrive` are
/// decided by the run and stay in the queue.
pub(crate) struct EmissionLane {
    clocks: Vec<ParetoClock>,
    /// The mesh flow of each clock.
    flows: Vec<u32>,
    /// Per clock, the sequence number of its next emission.
    stamps: Vec<u64>,
    /// Per clock in `live`, its earliest instant not yet in a window.
    heads: Vec<u64>,
    /// Clocks that have such an instant; a refill scans these only.
    live: Vec<u32>,
    /// `(instant, clock)`, sorted; `window[cursor..]` is still to come.
    window: Vec<(u64, u32)>,
    cursor: usize,
    /// The earliest of the live clocks' heads: where the next window
    /// starts, however far that is from the end of this one.
    next_start: u64,
    /// A window's length in ticks.
    span: u64,
}

impl EmissionLane {
    /// The lane over `flows`, clocks seeded as [`ParetoClock::new`] does
    /// from the mesh's `seed`, first window drawn.
    pub(crate) fn new(seed: u64, flows: &[LaneFlow]) -> Self {
        let clock = |f: &LaneFlow| {
            ParetoClock::new(seed, f.flow, f.start_ticks, f.mean_gap_ticks, f.until_ticks)
        };
        // Emissions per tick, all clocks together; the nudge caps a clock
        // at one per tick.
        let rate: f64 = (flows.iter())
            .map(|f| 1.0 / f.mean_gap_ticks.max(1.0))
            .sum();
        // The first emission is at the flow's start, unconditionally.
        let starts = || flows.iter().map(|f| f.start_ticks);
        let mut lane = EmissionLane {
            clocks: flows.iter().map(clock).collect(),
            flows: flows.iter().map(|f| f.flow as u32).collect(),
            stamps: vec![0; flows.len()],
            heads: starts().collect(),
            live: (0..flows.len() as u32).collect(),
            window: Vec::new(),
            cursor: 0,
            next_start: starts().min().unwrap_or(u64::MAX),
            // Saturates; no clock, no rate, and no window ever drawn.
            span: ((WINDOW_INSTANTS / rate) as u64).max(1),
        };
        lane.refill();
        lane
    }

    /// Records `seq` as the sequence number of `clock`'s next emission.
    #[inline]
    pub(crate) fn stamp(&mut self, clock: u32, seq: u64) {
        self.stamps[clock as usize] = seq;
    }

    /// `(instant, sequence number)` of the next emission; `None` once every
    /// clock has ended — one bounds check then, no clock is looked at.
    ///
    /// Call between events only: the stamps of the head's tick must be
    /// settled (see the type's documentation).
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<(u64, u64)> {
        let &(at, _) = self.window.get(self.cursor)?;
        #[cfg(not(feature = "mutate-lane-tie"))]
        if matches!(self.window.get(self.cursor + 1), Some(&(next, _)) if next == at) {
            self.first_of_tie_to_cursor(at);
        }
        Some((at, self.stamps[self.window[self.cursor].1 as usize]))
    }

    /// Several clocks emit at `at`, the cursor's tick: swaps the one
    /// stamped first to the cursor. (The sort left them in clock order,
    /// which is the order the `mutate-lane-tie` mutant serves them in.)
    #[cfg(not(feature = "mutate-lane-tie"))]
    #[cold]
    fn first_of_tie_to_cursor(&mut self, at: u64) {
        let run = &mut self.window[self.cursor..];
        let first = (0..run.len())
            .take_while(|&i| run[i].0 == at)
            .min_by_key(|&i| self.stamps[run[i].1 as usize])
            .expect("the cursor's own entry");
        run.swap(0, first);
    }

    /// Removes the emission [`peek`](Self::peek) reported and returns its
    /// mesh flow.
    #[inline]
    pub(crate) fn pop(&mut self) -> u32 {
        let clock = self.window[self.cursor].1;
        self.cursor += 1;
        if self.cursor == self.window.len() {
            self.refill();
        }
        self.flows[clock as usize]
    }

    /// Draws the next window: every instant within `span` ticks of the
    /// earliest pending one, so no window comes back empty while a clock
    /// is live, whatever gap separates flows that start late from those
    /// that ended early.
    fn refill(&mut self) {
        let EmissionLane {
            clocks,
            heads,
            live,
            window,
            ..
        } = self;
        window.clear();
        self.cursor = 0;
        if live.is_empty() {
            return;
        }
        let last = self.next_start.saturating_add(self.span - 1);
        let mut next_start = u64::MAX;
        live.retain(|&c| {
            let (clock, head) = (&mut clocks[c as usize], &mut heads[c as usize]);
            while *head <= last {
                window.push((*head, c));
                match clock.next() {
                    Some(next) => *head = next,
                    None => return false,
                }
            }
            next_start = next_start.min(*head);
            true
        });
        self.next_start = next_start;
        window.sort_unstable();
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

    fn lane_flow(flow: usize, start_ticks: u64, mean_gap_ticks: f64, until_ticks: u64) -> LaneFlow {
        LaneFlow {
            flow,
            start_ticks,
            mean_gap_ticks,
            until_ticks,
        }
    }

    /// Drains a lane the way the mesh does — each emission handled stamps
    /// its clock with the next sequence number — into `(instant, flow)`s.
    fn drain(flows: &[(usize, u64, f64, u64)]) -> Vec<(u64, u32)> {
        let specs: Vec<LaneFlow> = (flows.iter())
            .map(|&(f, s, g, u)| lane_flow(f, s, g, u))
            .collect();
        let mut lane = EmissionLane::new(42, &specs);
        let mut seq = 0;
        for clock in 0..flows.len() as u32 {
            lane.stamp(clock, seq);
            seq += 1;
        }
        let mut out = Vec::new();
        while let Some((at, _)) = lane.peek() {
            let flow = lane.pop();
            let clock = flows.iter().position(|f| f.0 == flow as usize).unwrap();
            lane.stamp(clock as u32, seq);
            seq += 1;
            out.push((at, flow));
        }
        out
    }

    /// The same emissions out of a heap keyed `(instant, seq)`, an entry
    /// per flow, its successor pushed when it is popped: the event queue.
    fn heap_order(flows: &[(usize, u64, f64, u64)]) -> Vec<(u64, u32)> {
        use std::cmp::Reverse;
        let mut clocks: Vec<ParetoClock> = (flows.iter())
            .map(|&(f, s, g, u)| ParetoClock::new(42, f, s, g, u))
            .collect();
        let mut heap = std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        for (clock, f) in flows.iter().enumerate() {
            heap.push(Reverse((f.1, seq, clock)));
            seq += 1;
        }
        let mut out = Vec::new();
        while let Some(Reverse((at, _, clock))) = heap.pop() {
            out.push((at, flows[clock].0 as u32));
            if let Some(next) = clocks[clock].next() {
                heap.push(Reverse((next, seq, clock)));
                seq += 1;
            }
        }
        out
    }

    #[test]
    fn the_lane_hands_out_emissions_in_event_queue_order() {
        // Gaps of 1–3 ticks tie on most ticks; flows 7 and 9 start late,
        // flow 11 emits nothing after its start (`until` before it), and
        // 240 000 instants take dozens of windows.
        let flows = [
            (3, 1, 1.0, 40_000),
            (4, 1, 2.5, 40_000),
            (5, 3, 1.5, 40_000),
            (7, 25_000, 3.0, 60_000),
            (9, 59_990, 1.0, 150_000),
            (11, 500, 2.0, 20),
            (12, 1, 2.0, 40_000),
        ];
        let got = drain(&flows);
        assert!(got.len() > 200_000, "{} emissions", got.len());
        assert_eq!(got.iter().filter(|e| e.1 == 11).count(), 1);
        let ties = got.windows(2).filter(|w| w[0].0 == w[1].0).count();
        assert!(ties > 50_000, "{ties} same-tick neighbours");
        assert!(got == heap_order(&flows), "lane and heap order differ");
    }

    #[test]
    fn a_lane_reaches_far_starts_and_the_end_of_time_without_stepping_there() {
        // Stepping from tick 100 to 2⁶³ a window at a time would not end.
        // Out there a gap of 2 is lost in the `f64` clock's rounding, and
        // the integer nudge alone moves flow 1 on, a tick at a time. The
        // last two flows sit where `window start + span` overflows and
        // the clock rounds every later instant up to saturation: each
        // emits its start and ends.
        let far = 1 << 63;
        let flows = [
            (0, 1, 1.0, 100),
            (1, far, 2.0, far + 50),
            (2, u64::MAX - 3, 1.0, u64::MAX),
            (3, u64::MAX, 1.0, u64::MAX),
        ];
        let got = drain(&flows);
        assert_eq!(got, heap_order(&flows));
        assert_eq!(got[got.len() - 2..], [(u64::MAX - 3, 2), (u64::MAX, 3)]);
        let flow_1: Vec<u64> = got.iter().filter(|e| e.1 == 1).map(|e| e.0).collect();
        assert_eq!(flow_1, (far..=far + 50).collect::<Vec<u64>>());
    }

    #[test]
    fn a_lane_without_clocks_is_empty_and_a_drained_one_stays_so() {
        assert_eq!(EmissionLane::new(1, &[]).peek(), None);
        let mut lane = EmissionLane::new(1, &[lane_flow(0, 5, 10.0, 5)]);
        lane.stamp(0, 7);
        assert_eq!(lane.peek(), Some((5, 7)));
        assert_eq!(lane.pop(), 0);
        assert_eq!((lane.peek(), lane.live.len()), (None, 0));
    }

    #[test]
    fn a_same_tick_run_goes_by_stamp_not_by_clock() {
        let flows = [0, 1, 2].map(|f| lane_flow(f, 9, 1e6, 9));
        for stamps in [[0, 1, 2], [5, 3, 4], [2, 1, 0]] {
            let mut lane = EmissionLane::new(1, &flows);
            let mut want: Vec<(u64, u32)> = Vec::new();
            for (clock, &seq) in stamps.iter().enumerate() {
                lane.stamp(clock as u32, seq);
                want.push((seq, clock as u32));
            }
            want.sort_unstable();
            let got: Vec<(u64, u32)> = std::iter::from_fn(|| {
                let (at, seq) = lane.peek()?;
                assert_eq!(at, 9);
                Some((seq, lane.pop()))
            })
            .collect();
            assert_eq!(got, want);
        }
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
