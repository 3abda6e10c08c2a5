//! Recorded arrival traces.
//!
//! A [`Trace`] decouples workload generation from scheduling: the same
//! recorded arrivals can be replayed through every scheduler under test,
//! which is exactly what the conservation-law checks and the scheduler
//! shoot-out ablation require. Traces are also the input to the Eq. (7)
//! feasibility checker, which replays class subsets through an FCFS server.

use rand::Rng;
use simcore::Time;

use crate::source::ClassSource;
use crate::stream::MergedStream;

/// One recorded packet arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Arrival time.
    pub at: Time,
    /// Service class (0-based).
    pub class: u8,
    /// Packet length in bytes.
    pub size: u32,
}

/// Most entries [`Trace::generate_per_source`] reserves ahead (64 MiB): a
/// horizon near `u64::MAX` must not turn into an allocation of that size.
const MAX_RESERVED: usize = 1 << 22;

/// A time-sorted sequence of packet arrivals.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace from raw entries, sorting by time (stable, so entries
    /// with equal timestamps keep their given order).
    pub fn from_entries(mut entries: Vec<TraceEntry>) -> Self {
        entries.sort_by_key(|e| e.at);
        Trace { entries }
    }

    /// Generates a merged trace by running every source until `horizon`.
    ///
    /// The sources share `rng`: each is run to the horizon in turn, one
    /// [`next_arrival`](ClassSource::next_arrival) at a time, so the merged
    /// trace is deterministic for a given seed. A block drawn across the
    /// horizon would take words the next source is due, so this generator
    /// cannot use [`ClassSource::fill`]; where generation time matters, use
    /// [`Trace::generate_per_source`].
    pub fn generate<R: Rng + ?Sized>(
        sources: &mut [ClassSource],
        horizon: Time,
        rng: &mut R,
    ) -> Self {
        let last = last_instant(horizon);
        let mut entries = Vec::new();
        for src in sources.iter_mut() {
            loop {
                let (at, size) = src.next_arrival(rng);
                if at > last {
                    break;
                }
                entries.push(TraceEntry {
                    at,
                    class: src.class(),
                    size,
                });
            }
        }
        Trace::from_entries(entries)
    }

    /// Generates a merged trace giving each source its **own** RNG derived
    /// from `base_seed`. Unlike [`Trace::generate`], the arrival stream of
    /// source *i* is then independent of how many samples the other
    /// sources draw — which is what lets the streaming runner in `qsim`
    /// reproduce the identical workload without materializing the trace.
    ///
    /// This is [`MergedStream::per_source`] over the borrowed sources,
    /// collected: arrivals at one instant are in source order. Each source
    /// is left with its clock at its first arrival past the horizon.
    pub fn generate_per_source(sources: &mut [ClassSource], horizon: Time, base_seed: u64) -> Self {
        // Reserved once, an eighth above the expected count, so that the
        // entries are as good as never copied while the vector grows;
        // reserved pages that are never written cost nothing.
        let expected: f64 = (sources.iter())
            .map(|s| horizon.as_f64() / s.mean_gap())
            .sum();
        let mut entries = Vec::with_capacity(((expected * 1.125) as usize).min(MAX_RESERVED) + 16);
        entries.extend(MergedStream::per_source(
            sources.iter_mut().collect(),
            base_seed,
            horizon,
        ));
        Trace { entries }
    }

    /// The entries, in nondecreasing time order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of packets in the trace.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the trace has no packets.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the sub-trace containing only the classes in `classes`,
    /// preserving order.
    pub fn filter_classes(&self, classes: &[u8]) -> Trace {
        Trace {
            entries: self
                .entries
                .iter()
                .copied()
                .filter(|e| classes.contains(&e.class))
                .collect(),
        }
    }

    /// Total bytes carried by the trace.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size as u64).sum()
    }

    /// Average arrival rate in bytes/tick over the span of the trace.
    pub fn rate_bytes_per_tick(&self) -> f64 {
        match (self.entries.first(), self.entries.last()) {
            (Some(first), Some(last)) if last.at > first.at => {
                self.total_bytes() as f64 / (last.at - first.at).as_f64()
            }
            _ => 0.0,
        }
    }

    /// Per-class packet counts, indexed by class id (length = max class + 1).
    pub fn class_counts(&self) -> Vec<usize> {
        let max = self.entries.iter().map(|e| e.class).max().unwrap_or(0);
        let mut counts = vec![0usize; max as usize + 1];
        for e in &self.entries {
            counts[e.class as usize] += 1;
        }
        counts
    }

    /// Per-class arrival rates in packets/tick over the trace span.
    pub fn class_packet_rates(&self) -> Vec<f64> {
        let span = match (self.entries.first(), self.entries.last()) {
            (Some(f), Some(l)) if l.at > f.at => (l.at - f.at).as_f64(),
            _ => return Vec::new(),
        };
        self.class_counts()
            .into_iter()
            .map(|c| c as f64 / span)
            .collect()
    }
}

/// The last instant a generator bounded by `horizon` may emit at. A source
/// whose `f64` clock has passed 2⁶⁴ saturates at `u64::MAX` ticks and stays
/// there, so an arrival at `u64::MAX` is past every horizon — otherwise a
/// horizon of [`Time::MAX`] would never end such a source's stream.
pub(crate) fn last_instant(horizon: Time) -> Time {
    horizon.min(Time::from_ticks(u64::MAX - 1))
}

/// The derived seed for source `index` under `base_seed` (shared with the
/// `qsim` streaming runner so both produce identical workloads).
pub fn per_source_seed(base_seed: u64, index: usize) -> u64 {
    base_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::IatDist;
    use crate::sizes::SizeDist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn entry(at: u64, class: u8, size: u32) -> TraceEntry {
        TraceEntry {
            at: Time::from_ticks(at),
            class,
            size,
        }
    }

    #[test]
    fn from_entries_sorts_stably() {
        let t = Trace::from_entries(vec![
            entry(5, 1, 10),
            entry(3, 0, 20),
            entry(5, 2, 30), // same time as the class-1 entry; must stay after it
        ]);
        let classes: Vec<u8> = t.entries().iter().map(|e| e.class).collect();
        assert_eq!(classes, vec![0, 1, 2]);
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let make = |seed| {
            let mut sources = vec![
                ClassSource::new(0, IatDist::paper_pareto(100.0).unwrap(), SizeDist::paper()),
                ClassSource::new(1, IatDist::paper_pareto(200.0).unwrap(), SizeDist::paper()),
            ];
            let mut rng = StdRng::seed_from_u64(seed);
            Trace::generate(&mut sources, Time::from_ticks(100_000), &mut rng)
        };
        let a = make(7);
        let b = make(7);
        let c = make(8);
        assert_eq!(a.entries(), b.entries());
        assert_ne!(a.entries(), c.entries());
    }

    #[test]
    fn generated_rate_approximates_offered_load() {
        let mut sources = vec![ClassSource::new(
            0,
            IatDist::exponential(100.0).unwrap(),
            SizeDist::fixed(100),
        )];
        let mut rng = StdRng::seed_from_u64(12);
        let t = Trace::generate(&mut sources, Time::from_ticks(10_000_000), &mut rng);
        let rate = t.rate_bytes_per_tick();
        assert!((rate - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn per_source_generation_is_insensitive_to_other_sources() {
        // Adding a second source must not change the first source's
        // arrivals (unlike the shared-RNG generate()).
        let horizon = Time::from_ticks(200_000);
        let mk = |class| {
            ClassSource::new(
                class,
                IatDist::paper_pareto(100.0).unwrap(),
                SizeDist::paper(),
            )
        };
        let solo = Trace::generate_per_source(&mut [mk(0)], horizon, 9);
        let both = Trace::generate_per_source(&mut [mk(0), mk(1)], horizon, 9);
        let class0: Vec<_> = both
            .entries()
            .iter()
            .filter(|e| e.class == 0)
            .copied()
            .collect();
        assert_eq!(solo.entries(), &class0[..]);
    }

    #[test]
    fn filter_classes_keeps_only_requested() {
        let t = Trace::from_entries(vec![entry(1, 0, 1), entry(2, 1, 1), entry(3, 2, 1)]);
        let f = t.filter_classes(&[0, 2]);
        assert_eq!(f.len(), 2);
        assert!(f.entries().iter().all(|e| e.class != 1));
    }

    #[test]
    fn class_counts_and_rates() {
        let t = Trace::from_entries(vec![entry(0, 0, 1), entry(50, 1, 1), entry(100, 0, 1)]);
        assert_eq!(t.class_counts(), vec![2, 1]);
        let rates = t.class_packet_rates();
        assert!((rates[0] - 0.02).abs() < 1e-12);
        assert!((rates[1] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.rate_bytes_per_tick(), 0.0);
        assert_eq!(t.total_bytes(), 0);
        assert!(t.class_packet_rates().is_empty());
    }
}
