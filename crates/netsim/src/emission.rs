//! Open-loop emissions, kept out of the event queue.
//!
//! The emission clock of a Pareto [`MeshFlow`](crate::MeshFlow) — the one
//! definition the exact engine and the decomposition read, so the former's
//! `Emit` events and the latter's precomputed schedules are the same
//! instants by construction — and the [`EmissionLane`] the exact engine
//! reads its clocks through; the Study-B chain's [`CrossSources`] — the
//! open-loop [`CrossStream`], whose sources share one RNG, and the
//! closed-loop [`EcnSources`], which stay in the queue — and the
//! [`TournamentTree`] the stream merges its sources in.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use traffic::{per_source_seed, IatDist};

use crate::config::{CrossModel, StudyBConfig};

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

    /// Clocks whose next emission is still to be popped: what the event
    /// queue would hold of them. Counted when asked — a heartbeat's
    /// business, not the run's.
    pub(crate) fn live(&self) -> usize {
        let mut pending = vec![false; self.clocks.len()];
        let windowed = self.window[self.cursor..].iter().map(|&(_, c)| c);
        for c in self.live.iter().copied().chain(windowed) {
            pending[c as usize] = true;
        }
        pending.iter().filter(|&&p| p).count()
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

/// The earliest of a fixed number of keyed slots, rewritten in `log₂ slots`
/// comparisons — a tournament tree: the slots are the leaves of a complete
/// binary tree and every inner node names the slots that won and lost the
/// match between its two subtrees' winners, so rewriting a slot replays
/// only the matches on its path to the root. An empty slot holds the
/// `vacant` key the tree was made with, which must compare above every key
/// in use.
///
/// The losers are there for [`replace_min`](Self::replace_min), which is
/// all a merge ever does: the minimum beat, on its way up, exactly the
/// losers on its path, so its replacement meets them again — each read
/// from the node it is written back to.
pub(crate) struct TournamentTree<K> {
    /// A key per leaf; leaves past the slots asked for stay vacant.
    keys: Vec<K>,
    /// Per node `n` of the implicit tree — root 1, children `2n` and
    /// `2n + 1`, leaf `i` at `keys.len() + i` its own winner — the slots of
    /// the smaller and of the larger of its children's winning keys.
    winner: Vec<u32>,
    loser: Vec<u32>,
}

impl<K: Copy + Ord> TournamentTree<K> {
    /// A slot per key of `keys`; `vacant` is the key of an empty one.
    pub(crate) fn new(mut keys: Vec<K>, vacant: K) -> Self {
        let leaves = keys.len().next_power_of_two();
        keys.resize(leaves, vacant);
        let mut winner: Vec<u32> = (0..2 * leaves as u32)
            .map(|n| n.saturating_sub(leaves as u32))
            .collect();
        let mut loser = vec![0; leaves];
        for node in (1..leaves).rev() {
            let (a, b) = (winner[2 * node], winner[2 * node + 1]);
            let a_wins = keys[a as usize] <= keys[b as usize];
            (winner[node], loser[node]) = if a_wins { (a, b) } else { (b, a) };
        }
        TournamentTree {
            keys,
            winner,
            loser,
        }
    }

    /// Rewrites the key of the slot [`min`](Self::min) reports — with the
    /// vacant key to empty it.
    #[inline]
    pub(crate) fn replace_min(&mut self, key: K) {
        use std::hint::select_unpredictable as select;
        let (mut slot, mut key) = (self.winner[1], key);
        self.keys[slot as usize] = key;
        let mut node = (self.keys.len() + slot as usize) / 2;
        while node > 0 {
            // Near the leaves a match is a coin toss: selected, not
            // branched on.
            let other = self.loser[node];
            let other_key = self.keys[other as usize];
            let other_wins = other_key < key;
            self.loser[node] = select(other_wins, slot, other);
            slot = select(other_wins, other, slot);
            key = select(other_wins, other_key, key);
            self.winner[node] = slot;
            node /= 2;
        }
    }

    /// The slot holding the smallest key, and that key: the vacant one
    /// when every slot is empty.
    #[inline]
    pub(crate) fn min(&self) -> (usize, K) {
        let slot = self.winner[1] as usize;
        (slot, self.keys[slot])
    }
}

/// The class a cross packet takes for the uniform word `u`: the first whose
/// cumulative share of `fractions` exceeds it, the last if none does —
/// counted, not searched, since `u` makes any branch here a coin toss.
#[inline]
pub(crate) fn cross_class(u: f64, fractions: &[f64]) -> u8 {
    let mut cum = 0.0;
    let mut class = 0;
    for &f in &fractions[..fractions.len() - 1] {
        cum += f;
        class += u8::from(u >= cum);
    }
    class
}

/// Emissions a [`CrossStream`] works out at a time: long enough that the
/// `pow` calls of a block overlap and its arrays stay in L2.
const STREAM_BLOCK: usize = 4_096;

/// What a [`CrossStream`] source may index: a `u16`.
pub(crate) const MAX_STREAM_SOURCES: usize = 1 << 16;

/// The tick of cross source `source`'s first emission: the chain's sources
/// start at staggered phases.
pub(crate) fn first_cross_tick(source: usize) -> u64 {
    1 + source as u64 * 131
}

/// One `Cross` event of the chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CrossEmission {
    pub(crate) at: u64,
    /// The source, numbered `node * sources_per_node + src`.
    pub(crate) source: u16,
    pub(crate) node: u16,
    /// The packet's class; `None` for the one instant a source can be
    /// nudged to past the stream's end, which is handled and emits nothing.
    pub(crate) class: Option<u8>,
    /// Whether the source emits again: if so the handler takes the next
    /// emission's sequence number ([`CrossStream::stamp`]).
    pub(crate) successor: bool,
}

/// Every Pareto `Cross` event of a Study-B chain, in the order the event
/// queue would have handled them — without any of them entering it.
///
/// The chain's sources share one RNG: the `i`-th `Cross` handled takes
/// words `2i` (its class) and `2i + 1` (its source's next gap), whichever
/// source it belongs to. That fixes which *event* gets which words, not
/// when they are drawn: with one Pareto shape a gap is `scale[node] · p`
/// where `p = u^(−1/α)` depends on the word alone, so a block of words is
/// drawn and `pow`-ed at once and only handed out in event order. And the
/// order needs nothing but the stream: a `Cross` takes its sequence number
/// while its source's previous one is handled, so of two on one tick the
/// one whose predecessor came first goes first (first emissions: in source
/// order) — `conformance::order`'s law. The stream therefore merges its
/// sources on `(instant, emission count at the predecessor)`, which orders
/// them as the true sequence numbers do, and runs ahead of the simulation
/// a block at a time.
///
/// Like the [`EmissionLane`], it learns each emission's true sequence
/// number ([`stamp`](Self::stamp)) when the predecessor is handled, which
/// is before it can head the stream.
pub(crate) struct CrossStream {
    rng: StdRng,
    /// The gap distribution at unit scale: every node's shape.
    unit_gaps: IatDist,
    /// Per source: its node's Pareto scale, its node, its unrounded clock,
    /// the sequence number of its next emission.
    scales: Vec<f64>,
    nodes: Vec<u16>,
    clocks: Vec<f64>,
    stamps: Vec<u64>,
    class_fractions: Vec<f64>,
    /// Last instant at which a source emits a packet.
    until: u64,
    /// Per source, `instant << 64 | order` of its next emission.
    pending: TournamentTree<u128>,
    /// Emissions merged so far: the `order` of the next successor.
    merged: u64,
    /// The class word of the next emission (a block's gap words are drawn
    /// through [`IatDist::fill_with`], whose hook runs *after* each).
    class_word: f64,
    block: Vec<CrossEmission>,
    cursor: usize,
    /// Sources whose next emission has not been popped.
    live: usize,
}

impl CrossStream {
    /// The chain's cross sources, `sources_per_node` at each node, node
    /// `n`'s gaps Pareto with mean `mean_gap_ticks[n]`: source `i` first
    /// emits at [`first_cross_tick`]`(i)`, and none emits a packet after
    /// `until`.
    ///
    /// # Panics
    /// Panics on a non-positive mean gap and on more than
    /// [`MAX_STREAM_SOURCES`] sources.
    pub(crate) fn new(
        seed: u64,
        mean_gap_ticks: &[f64],
        sources_per_node: usize,
        class_fractions: &[f64],
        until: u64,
    ) -> Self {
        let sources = mean_gap_ticks.len() * sources_per_node;
        assert!(sources <= MAX_STREAM_SOURCES, "{sources} cross sources");
        let scale = |mean| match IatDist::paper_pareto(mean).expect("positive gap") {
            IatDist::Pareto { scale, .. } => scale,
            _ => unreachable!("paper_pareto is Pareto"),
        };
        let node_of = |source| source / sources_per_node;
        let first = |source| Self::merge_key(first_cross_tick(source), source as u64, source);
        let pending = TournamentTree::new((0..sources).map(first).collect(), u128::MAX);
        let mut rng = StdRng::seed_from_u64(seed);
        let class_word = rng.random();
        let mut stream = CrossStream {
            rng,
            unit_gaps: IatDist::Pareto {
                shape: traffic::PAPER_PARETO_SHAPE,
                scale: 1.0,
            },
            scales: (0..sources)
                .map(|s| scale(mean_gap_ticks[node_of(s)]))
                .collect(),
            nodes: (0..sources).map(|s| node_of(s) as u16).collect(),
            clocks: (0..sources).map(|s| first_cross_tick(s) as f64).collect(),
            stamps: vec![0; sources],
            class_fractions: class_fractions.to_vec(),
            until,
            pending,
            merged: sources as u64,
            class_word,
            block: Vec::with_capacity(STREAM_BLOCK),
            cursor: 0,
            live: sources,
        };
        stream.refill();
        stream
    }

    /// The merge key of an emission at `at`: same-tick emissions go in the
    /// order their predecessors were merged in. (By source under the
    /// `mutate-chain-tie` mutant — the order a merge gets when it forgets
    /// that the event queue breaks ties by scheduling order.)
    #[inline]
    fn merge_key(at: u64, order: u64, source: usize) -> u128 {
        let tie = if cfg!(feature = "mutate-chain-tie") {
            source as u64
        } else {
            order
        };
        (at as u128) << 64 | tie as u128
    }

    /// Number of sources.
    pub(crate) fn sources(&self) -> usize {
        self.stamps.len()
    }

    /// Sources whose next emission is still to be popped: what the event
    /// queue would hold of them.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Records `seq` as the sequence number of `source`'s next emission.
    #[inline]
    pub(crate) fn stamp(&mut self, source: u16, seq: u64) {
        self.stamps[source as usize] = seq;
    }

    /// `(instant, sequence number)` of the next emission; `None` once every
    /// source has ended. Call between events only: the head's predecessor
    /// has then been handled and its stamp is the head's.
    #[inline]
    pub(crate) fn peek(&self) -> Option<(u64, u64)> {
        let head = self.block.get(self.cursor)?;
        Some((head.at, self.stamps[head.source as usize]))
    }

    /// Removes and returns the emission [`peek`](Self::peek) reported.
    #[inline]
    pub(crate) fn pop(&mut self) -> CrossEmission {
        let head = self.block[self.cursor];
        self.cursor += 1;
        self.live -= usize::from(!head.successor);
        if self.cursor == self.block.len() {
            self.refill();
        }
        head
    }

    /// Works out the next block: draws its words in the engine's order —
    /// class, gap, class, gap — takes the gap words to their power at unit
    /// scale, then merges that many emissions, each pushing its successor
    /// back. Emissions past `until` take no words, and nothing follows
    /// them, so the words drawn for their places go unused.
    fn refill(&mut self) {
        self.block.clear();
        self.cursor = 0;
        if self.pending.min().1 == u128::MAX {
            // Nothing left to merge: no word drawn would be used.
            return;
        }
        let mut class_words = [0.0; STREAM_BLOCK];
        let mut pows = [0.0; STREAM_BLOCK];
        let mut class_word = self.class_word;
        (self.unit_gaps).fill_with(&mut self.rng, &mut pows, |i, rng| {
            class_words[i] = class_word;
            class_word = rng.random();
        });
        self.class_word = class_word;
        for (&u, &pow) in class_words.iter().zip(&pows) {
            let (source, key) = self.pending.min();
            if key == u128::MAX {
                break;
            }
            let at = (key >> 64) as u64;
            let mut emission = CrossEmission {
                at,
                source: source as u16,
                node: self.nodes[source],
                class: None,
                successor: false,
            };
            let mut next_key = u128::MAX;
            if at <= self.until {
                emission.class = Some(cross_class(u, &self.class_fractions));
                // The clock accumulates unrounded, to avoid rounding drift.
                let clock = &mut self.clocks[source];
                *clock += self.scales[source] * pow;
                let mut next = clock.round() as u64;
                // Rounded to a tick not after this one: nudged to the tick
                // after it, even when that is one past `until`.
                let nudged = next <= at;
                if nudged {
                    next = at + 1;
                    *clock = at as f64 + 1.0;
                }
                if nudged || next <= self.until {
                    emission.successor = true;
                    next_key = Self::merge_key(next, self.merged, source);
                }
            }
            self.merged += 1;
            self.pending.replace_min(next_key);
            self.block.push(emission);
        }
    }
}

/// The closed-loop cross sources of a chain ([`CrossModel::EcnAdaptive`]):
/// each sends at its current rate, halves it when its link's backlog is
/// above the mark threshold and otherwise raises it additively. A source's
/// next instant reads its link after its own packet arrived there, so its
/// emissions are queued events, one at a time — never in a lane.
pub(crate) struct EcnSources {
    mark_threshold_bytes: u64,
    increase_bps: f64,
    /// Per node, the rate a source never falls below, bits/s.
    floor_bps: Vec<f64>,
    sources_per_node: usize,
    /// Per source: current rate, bits/s, and unrounded arrival clock.
    rate: Vec<f64>,
    cum: Vec<f64>,
    /// Draws every source's classes, in event order.
    rng: StdRng,
    class_fractions: Vec<f64>,
    packet_bits: f64,
    /// Last instant at which a source emits.
    until: u64,
}

impl EcnSources {
    /// The sources of `cfg`'s chain, if its cross model is the closed-loop
    /// one: each starts at its fair share of its node's cross rate, source
    /// `i` at [`first_cross_tick`]`(i)`, and none emits after `until`.
    pub(crate) fn new(cfg: &StudyBConfig, until: u64) -> Option<Self> {
        let CrossModel::EcnAdaptive {
            mark_threshold_bytes,
            increase_bps,
            min_rate_fraction,
        } = cfg.cross_model
        else {
            return None;
        };
        let fair = |node| cfg.cross_total_bps_for_link(node) / cfg.cross_sources as f64;
        let sources = cfg.k_hops * cfg.cross_sources;
        Some(EcnSources {
            mark_threshold_bytes,
            increase_bps,
            floor_bps: (0..cfg.k_hops)
                .map(|node| fair(node) * min_rate_fraction)
                .collect(),
            sources_per_node: cfg.cross_sources,
            rate: (0..sources).map(|s| fair(s / cfg.cross_sources)).collect(),
            cum: (0..sources).map(|s| first_cross_tick(s) as f64).collect(),
            rng: StdRng::seed_from_u64(cfg.seed),
            class_fractions: cfg.cross_class_fractions.clone(),
            packet_bits: cfg.packet_bytes as f64 * 8.0,
            until,
        })
    }

    /// Number of sources.
    pub(crate) fn sources(&self) -> usize {
        self.rate.len()
    }

    /// The node `source` feeds and the class of the packet it emits at
    /// `now`; `None` past the sources' end, where nothing is drawn.
    pub(crate) fn emission(&mut self, source: u16, now: u64) -> Option<(u16, u8)> {
        if now > self.until {
            return None;
        }
        let node = source as usize / self.sources_per_node;
        let class = cross_class(self.rng.random(), &self.class_fractions);
        Some((node as u16, class))
    }

    /// AIMD on `source`'s rate, driven by its own link's queue depth (the
    /// ECN signal) now that its packet is there; returns its next instant,
    /// if it has one.
    pub(crate) fn advance(&mut self, source: u16, now: u64, backlog_bytes: u64) -> Option<u64> {
        let source = source as usize;
        let rate = &mut self.rate[source];
        if backlog_bytes > self.mark_threshold_bytes {
            *rate = (*rate * 0.5).max(self.floor_bps[source / self.sources_per_node]);
        } else {
            *rate += self.increase_bps;
        }
        // Accumulated in f64 to avoid rounding drift.
        self.cum[source] += self.packet_bits / *rate * crate::TICKS_PER_SEC as f64;
        let next = self.cum[source].round() as u64;
        if next > self.until {
            None
        } else if next > now {
            Some(next)
        } else {
            // Gap rounded to the past tick; nudge forward.
            self.cum[source] = now as f64 + 1.0;
            Some(now + 1)
        }
    }
}

/// A chain's hop-local cross traffic, as the Study-B lowering hands it to
/// the mesh engine: single-hop packets of one size entering at every node,
/// from the open-loop stream or from the closed-loop sources. A mesh with
/// no chain behind it has neither ([`Default`]): an empty stream, one
/// compare per step.
pub(crate) struct CrossSources {
    pub(crate) stream: CrossStream,
    pub(crate) ecn: Option<EcnSources>,
    pub(crate) packet_bytes: u32,
}

impl Default for CrossSources {
    fn default() -> Self {
        CrossSources {
            stream: CrossStream::new(0, &[], 0, &[], 0),
            ecn: None,
            packet_bytes: 0,
        }
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
    fn a_tournament_tree_is_an_indexed_minimum() {
        // Against a plain scan, over slot counts on both sides of a power
        // of two: the minimum replaced and removed, and now and then a
        // slot rewritten or emptied and the tree made anew.
        for slots in [1usize, 2, 3, 8, 13, 64] {
            let mut plain = vec![u64::MAX; slots];
            let mut tree = TournamentTree::new(plain.clone(), u64::MAX);
            assert_eq!(tree.min().1, u64::MAX);
            for step in 0..4_000u64 {
                let word = crate::topology::splitmix64(step ^ slots as u64);
                let slot = (word % slots as u64) as usize;
                // Distinct keys: the slot in the low bits.
                let key = |slot: usize| (word >> 8) % 50 * 64 + slot as u64;
                match word >> 60 {
                    0 => {
                        plain[slot] = u64::MAX;
                        tree = TournamentTree::new(plain.clone(), u64::MAX);
                    }
                    1..=6 => {
                        let (min, _) = tree.min();
                        let to = if word >> 60 == 1 { u64::MAX } else { key(min) };
                        tree.replace_min(to);
                        plain[min] = to;
                    }
                    _ => {
                        plain[slot] = key(slot);
                        tree = TournamentTree::new(plain.clone(), u64::MAX);
                    }
                }
                let (want_slot, want) = (plain.iter().copied().enumerate())
                    .min_by_key(|&(_, key)| key)
                    .unwrap();
                let (slot, key) = tree.min();
                assert_eq!(key, want, "{slots} slots, step {step}");
                // Any slot may stand for an empty tree.
                assert!(slot == want_slot || want == u64::MAX);
            }
        }
    }

    /// The chain's cross process as the engine ran it before the stream:
    /// one heap entry per source keyed `(instant, seq)`, each `Cross`
    /// drawing its class and its source's next gap from the shared RNG,
    /// one scalar draw at a time.
    fn heap_cross(
        seed: u64,
        mean_gaps: &[f64],
        per_node: usize,
        fractions: &[f64],
        until: u64,
    ) -> Vec<CrossEmission> {
        use std::cmp::Reverse;
        let mut rng = StdRng::seed_from_u64(seed);
        let dists: Vec<IatDist> = (mean_gaps.iter())
            .map(|&m| IatDist::paper_pareto(m).unwrap())
            .collect();
        let sources = mean_gaps.len() * per_node;
        let mut cum: Vec<f64> = (0..sources).map(|s| 1.0 + s as f64 * 131.0).collect();
        let mut heap = std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        for source in 0..sources {
            heap.push(Reverse((1 + source as u64 * 131, seq, source)));
            seq += 1;
        }
        let mut out = Vec::new();
        while let Some(Reverse((now, _, source))) = heap.pop() {
            let node = source / per_node;
            let mut emission = CrossEmission {
                at: now,
                source: source as u16,
                node: node as u16,
                class: None,
                successor: false,
            };
            if now <= until {
                emission.class = Some(cross_class(rng.random(), fractions));
                cum[source] += dists[node].sample(&mut rng);
                let next = cum[source].round() as u64;
                if next > now && next <= until {
                    heap.push(Reverse((next, seq, source)));
                } else if next <= until {
                    heap.push(Reverse((now + 1, seq, source)));
                    cum[source] = now as f64 + 1.0;
                }
                emission.successor = next <= until;
                seq += u64::from(emission.successor);
            }
            out.push(emission);
        }
        out
    }

    /// Drains a stream the way the chain does, stamping each successor.
    fn drain_cross(mut stream: CrossStream) -> Vec<CrossEmission> {
        let mut seq = 0;
        for source in 0..stream.sources() {
            stream.stamp(source as u16, seq);
            seq += 1;
        }
        let mut out = Vec::new();
        while let Some((at, stamp)) = stream.peek() {
            let emission = stream.pop();
            assert_eq!(at, emission.at);
            if emission.successor {
                stream.stamp(emission.source, seq);
                seq += 1;
            }
            // Stamps rise along the stream within a tick: the lane's key
            // order is the stream's order.
            if let Some(&(prev_at, prev_stamp)) = out.last().map(|(_, k)| k) {
                assert!(
                    (prev_at, prev_stamp) < (at, stamp),
                    "stream out of key order"
                );
            }
            out.push((emission, (at, stamp)));
        }
        assert_eq!(stream.live(), 0);
        out.into_iter().map(|(e, _)| e).collect()
    }

    #[test]
    fn the_cross_stream_is_the_all_heap_cross_process() {
        let fractions = [0.4, 0.3, 0.2, 0.1];
        // Twelve sources a tick or two apart for 40 000 ticks: most ticks
        // carry several emissions, many gaps round to nothing and are
        // nudged, and sources standing on the last tick are nudged past it.
        let gaps = [1.4, 2.2, 0.7];
        let got = drain_cross(CrossStream::new(7, &gaps, 4, &fractions, 40_000));
        assert!(got.len() > 200_000, "{} emissions", got.len());
        let ties = got.windows(2).filter(|w| w[0].at == w[1].at).count();
        assert!(ties > 100_000, "{ties} same-tick neighbours");
        let past_end = got.iter().filter(|e| e.class.is_none()).count();
        assert!(past_end > 0, "no source was nudged past the end");
        assert!(got.iter().all(|e| e.class.is_some() == (e.at <= 40_000)));
        assert!(got == heap_cross(7, &gaps, 4, &fractions, 40_000));
        // Sixty-four sources at the chain's own scale (gaps of a
        // millisecond and more, a tie now and then), one per node, and a
        // stream that ends before its later sources start.
        let gaps: Vec<f64> = (0..8).map(|n| 1.2e6 + 1e5 * n as f64).collect();
        for (per_node, until) in [(8, 2_000_000_000), (1, 3_000_000_000), (8, 4_000)] {
            let got = drain_cross(CrossStream::new(11, &gaps, per_node, &fractions, until));
            assert!(got == heap_cross(11, &gaps, per_node, &fractions, until));
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
