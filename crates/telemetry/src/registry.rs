//! The mergeable metrics registry: per-link per-class counters, gauges,
//! and delay/backlog histograms behind the [`Probe`] gate.
//!
//! [`MetricsRegistry`] is the accumulation substrate the ROADMAP's sharded
//! farm needs: every field merges **losslessly** — integer counters and
//! log-bucketed histogram bins sum exactly, gauges sum and their
//! high-water marks take the max — so N per-shard registries merged in any
//! order are bit-identical to one registry that observed the concatenated
//! streams (each shard's gauges start and end at zero, which lossless
//! replays guarantee: every enqueued packet eventually departs).
//!
//! The registry is itself a [`Probe`], so it attaches to any
//! `qsim::Session`/`netsim::Session` via `.probe(&mut registry)`;
//! `qsim::Session::run_metered` also returns one next to the departures.
//! Snapshots serialize to deterministic JSON
//! ([`MetricsRegistry::to_json`]) and to the Prometheus text exposition
//! format ([`MetricsRegistry::to_prometheus`], checked by
//! [`validate_prometheus`]).

use simcore::Time;
use stats::Histogram;

use crate::json::Json;
use crate::probe::{PacketId, Probe};

/// Counters, gauges, and histograms for one (link, class) channel.
///
/// `departures` counts end-of-life departures only (so per-class packet
/// conservation `arrivals = departures + drops` holds network-wide), while
/// `hop_departures` counts every transmission completed by this link —
/// the count behind `delay_hist` and `wait_ticks_sum`.
#[derive(Debug, Clone, Default)]
pub struct ChannelMetrics {
    /// Packets offered to this link.
    pub arrivals: u64,
    /// Packets admitted into the class queue.
    pub enqueues: u64,
    /// End-of-life departures (the packet left the network here).
    pub departures: u64,
    /// All departures at this link, including mid-path hops.
    pub hop_departures: u64,
    /// Packets dropped by a finite buffer.
    pub drops: u64,
    /// Scheduler decisions won by this class at this link.
    pub decisions_won: u64,
    /// Sum of hop-local queueing waits (ticks) over `hop_departures`.
    pub wait_ticks_sum: u64,
    /// Bytes delivered (end-of-life departures only).
    pub bytes_delivered: u64,
    /// Sum of post-enqueue backlog-byte gauge readings over `enqueues`.
    pub backlog_bytes_sum: u64,
    /// Current queued-packet gauge at this link.
    pub depth: i64,
    /// High-water mark of the queued-packet gauge.
    pub depth_high_water: i64,
    /// Current queued-byte gauge at this link.
    pub backlog_bytes: i64,
    /// High-water mark of the queued-byte gauge.
    pub backlog_high_water: i64,
    /// Log-bucketed hop-local queueing delays (ticks), one sample per
    /// hop departure.
    pub delay_hist: Histogram,
    /// Log-bucketed post-enqueue backlog (bytes), one sample per enqueue.
    pub backlog_hist: Histogram,
}

impl ChannelMetrics {
    /// Folds `other` into `self` (exact lossless merge).
    fn merge(&mut self, other: &ChannelMetrics) {
        self.arrivals += other.arrivals;
        self.enqueues += other.enqueues;
        self.departures += other.departures;
        self.hop_departures += other.hop_departures;
        self.drops += other.drops;
        self.decisions_won += other.decisions_won;
        self.wait_ticks_sum += other.wait_ticks_sum;
        self.bytes_delivered += other.bytes_delivered;
        self.backlog_bytes_sum += other.backlog_bytes_sum;
        self.depth += other.depth;
        self.depth_high_water = self.depth_high_water.max(other.depth_high_water);
        self.backlog_bytes += other.backlog_bytes;
        self.backlog_high_water = self.backlog_high_water.max(other.backlog_high_water);
        self.delay_hist.merge(&other.delay_hist);
        self.backlog_hist.merge(&other.backlog_hist);
    }
}

/// One link's channels plus its decision tally.
#[derive(Debug, Clone, Default)]
pub struct LinkMetrics {
    /// Per-class channels at this link (index = class).
    pub classes: Vec<ChannelMetrics>,
}

impl LinkMetrics {
    /// Scheduler decisions taken at this link — exactly one class wins
    /// each decision, so this is the sum of the per-class tallies (derived
    /// rather than counted so the hot path touches one counter fewer).
    pub fn decisions(&self) -> u64 {
        self.classes.iter().map(|c| c.decisions_won).sum()
    }
}

/// Network-wide per-class gauges (summed over links), with the high-water
/// marks of the *aggregate* gauge — which per-link high-water marks cannot
/// reconstruct (the links' peaks need not coincide in time).
#[derive(Debug, Clone, Default)]
pub struct ClassGauges {
    /// Queued packets anywhere in the network.
    pub depth: i64,
    /// High-water mark of the network-wide depth gauge.
    pub depth_high_water: i64,
    /// Queued bytes anywhere in the network.
    pub backlog_bytes: i64,
    /// High-water mark of the network-wide backlog gauge.
    pub backlog_high_water: i64,
}

impl ClassGauges {
    fn merge(&mut self, other: &ClassGauges) {
        self.depth += other.depth;
        self.depth_high_water = self.depth_high_water.max(other.depth_high_water);
        self.backlog_bytes += other.backlog_bytes;
        self.backlog_high_water = self.backlog_high_water.max(other.backlog_high_water);
    }
}

/// A mergeable run-metrics accumulator; see the [module docs](self).
///
/// Grows on demand: recording an event for `(link, class)` it has never
/// seen allocates the channel, so one registry serves a single-link
/// Study-A replay and a 40-link mesh alike.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    // Row-major [link][class] channel matrix: one flat allocation, so the
    // per-event lookup is a single multiply + one bounds check instead of
    // a two-level `Vec<Vec<_>>` pointer chase.
    channels: Vec<ChannelMetrics>,
    class_gauges: Vec<ClassGauges>,
    num_links: usize,
    num_classes: usize,
    // Whether more than one link exists (or was preallocated). The
    // network-wide gauge rollup in `class_gauges` is maintained on the hot
    // path only then; single-link registries derive it from their one
    // link's channel gauges at read time (identical by definition) and
    // skip the per-event work.
    multi_link: bool,
    heartbeats: u64,
    scenario_events: u64,
    heap_high_water: usize,
    // `u64::MAX` = "no event yet" — a sentinel keeps `touch` branchless
    // (`min`/`max` compile to cmov) on the per-packet hot path.
    first_event_ticks: u64,
    last_event_ticks: u64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            channels: Vec::new(),
            class_gauges: Vec::new(),
            num_links: 0,
            num_classes: 0,
            multi_link: false,
            heartbeats: 0,
            scenario_events: 0,
            heap_high_water: 0,
            first_event_ticks: u64::MAX,
            last_event_ticks: 0,
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry (channels allocate on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry with `num_links × num_classes` channels
    /// preallocated, so the hot path never grows.
    pub fn with_shape(num_links: usize, num_classes: usize) -> Self {
        MetricsRegistry {
            channels: vec![ChannelMetrics::default(); num_links * num_classes],
            class_gauges: vec![ClassGauges::default(); num_classes],
            num_links,
            num_classes,
            multi_link: num_links > 1,
            ..Self::default()
        }
    }

    #[inline]
    fn channel(&mut self, link: usize, class: usize) -> &mut ChannelMetrics {
        if link >= self.num_links || class >= self.num_classes {
            self.grow(link, class);
        }
        &mut self.channels[link * self.num_classes + class]
    }

    #[cold]
    fn grow(&mut self, link: usize, class: usize) {
        let new_links = self.num_links.max(link + 1);
        let new_classes = self.num_classes.max(class + 1);
        if new_links != self.num_links || new_classes != self.num_classes {
            let mut channels = vec![ChannelMetrics::default(); new_links * new_classes];
            for l in 0..self.num_links {
                for c in 0..self.num_classes {
                    channels[l * new_classes + c] =
                        std::mem::take(&mut self.channels[l * self.num_classes + c]);
                }
            }
            self.channels = channels;
            self.num_links = new_links;
            self.num_classes = new_classes;
        }
        if self.class_gauges.len() < self.num_classes {
            self.class_gauges
                .resize_with(self.num_classes, ClassGauges::default);
        }
        if self.num_links > 1 && !self.multi_link {
            // Promotion to multi-link: start maintaining the network-wide
            // rollup. Every event so far hit the sole existing link, whose
            // channel gauges therefore *are* the aggregate gauges — copy
            // them in so the rollup continues exactly.
            self.multi_link = true;
            for (c, g) in self.class_gauges.iter_mut().enumerate() {
                if let Some(ch) = self.channels.get(c) {
                    g.depth = ch.depth;
                    g.depth_high_water = ch.depth_high_water;
                    g.backlog_bytes = ch.backlog_bytes;
                    g.backlog_high_water = ch.backlog_high_water;
                }
            }
        }
    }

    #[inline(always)]
    fn touch(&mut self, at: Time) {
        let t = at.ticks();
        self.first_event_ticks = self.first_event_ticks.min(t);
        self.last_event_ticks = self.last_event_ticks.max(t);
    }

    /// Number of links seen (or preallocated).
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Per-link metrics (index = link/hop id), materialized from the flat
    /// channel matrix. Cold-path convenience — bind the result before
    /// indexing, and prefer [`num_links`](Self::num_links) for the count.
    pub fn links(&self) -> Vec<LinkMetrics> {
        if self.num_classes == 0 {
            return Vec::new();
        }
        self.channels
            .chunks(self.num_classes)
            .map(|row| LinkMetrics {
                classes: row.to_vec(),
            })
            .collect()
    }

    /// Network-wide per-class gauges (index = class).
    ///
    /// Multi-link registries maintain this rollup online (per-link peaks
    /// need not coincide in time, so it cannot be reconstructed); a
    /// single-link registry's aggregate gauges are its one link's channel
    /// gauges, derived here so the hot path skips the duplicate updates.
    pub fn class_gauges(&self) -> Vec<ClassGauges> {
        if self.multi_link {
            return self.class_gauges.clone();
        }
        (0..self.num_classes)
            .map(|c| {
                let mut g = ClassGauges::default();
                if let Some(ch) = self.channels.get(c) {
                    g.depth = ch.depth;
                    g.depth_high_water = ch.depth_high_water;
                    g.backlog_bytes = ch.backlog_bytes;
                    g.backlog_high_water = ch.backlog_high_water;
                }
                g
            })
            .collect()
    }

    /// Number of classes seen (or preallocated).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total scheduler decisions (derived: one class wins each decision).
    pub fn decisions(&self) -> u64 {
        self.channels.iter().map(|c| c.decisions_won).sum()
    }

    /// Total probe events of all kinds.
    ///
    /// Derived from the event counters (each probe call bumps exactly one:
    /// arrival, enqueue, decision, hop departure, drop, heartbeat, or
    /// scenario event), so the hot path pays nothing for it.
    pub fn probe_events(&self) -> u64 {
        self.checked_probe_events()
            .expect("fewer than 2^64 probe events")
    }

    /// [`probe_events`](Self::probe_events), or `None` past `u64::MAX` —
    /// which counters read from a snapshot can reach.
    fn checked_probe_events(&self) -> Option<u64> {
        let per_channel = self.channels.iter().flat_map(|c| {
            [
                c.arrivals,
                c.enqueues,
                c.decisions_won,
                c.hop_departures,
                c.drops,
            ]
        });
        let mut events = per_channel.chain([self.heartbeats, self.scenario_events]);
        events.try_fold(0u64, |total, n| total.checked_add(n))
    }

    /// Heartbeats received from the discrete-event runner.
    pub fn heartbeats(&self) -> u64 {
        self.heartbeats
    }

    /// Dynamic-scenario timeline events applied during the run.
    pub fn scenario_events(&self) -> u64 {
        self.scenario_events
    }

    /// Largest event-queue depth reported by any heartbeat.
    pub fn heap_high_water(&self) -> usize {
        self.heap_high_water
    }

    /// Virtual time of the first event, in ticks (`None` before any event).
    pub fn first_event_ticks(&self) -> Option<u64> {
        (self.first_event_ticks != u64::MAX).then_some(self.first_event_ticks)
    }

    /// Virtual time of the latest event, in ticks.
    pub fn last_event_ticks(&self) -> u64 {
        self.last_event_ticks
    }

    /// Virtual-time span covered, in ticks.
    pub fn virtual_span_ticks(&self) -> u64 {
        self.last_event_ticks
            .saturating_sub(self.first_event_ticks().unwrap_or(0))
    }

    /// Aggregates one class over all links: counters sum; gauges come from
    /// the network-wide rollup (so multi-hop high-water marks are the true
    /// aggregate-gauge peaks, not sums of per-link peaks).
    pub fn class_total(&self, class: usize) -> ChannelMetrics {
        let mut total = ChannelMetrics::default();
        if class < self.num_classes {
            for l in 0..self.num_links {
                total.merge(&self.channels[l * self.num_classes + class]);
            }
        }
        if let Some(g) = self.class_gauges().get(class) {
            total.depth = g.depth;
            total.depth_high_water = g.depth_high_water;
            total.backlog_bytes = g.backlog_bytes;
            total.backlog_high_water = g.backlog_high_water;
        }
        total
    }

    /// Merges `other` into `self`. Exact and lossless: the result equals
    /// the registry that would have observed both event streams (see the
    /// [module docs](self) for the gauge caveat — shards must start and
    /// end drained for high-water marks to be single-stream-identical).
    ///
    /// The merge is order-insensitive — counters sum and high-water marks
    /// take the max, both commutative — so any shard interleaving yields
    /// the same snapshot:
    ///
    /// ```
    /// use simcore::Time;
    /// use telemetry::{MetricsRegistry, PacketId, Probe};
    ///
    /// let shard = |seq: u64| {
    ///     let mut r = MetricsRegistry::with_shape(1, 2);
    ///     let p = PacketId::single_link(seq, (seq % 2) as u8, 100);
    ///     r.on_enqueue(Time::from_ticks(seq * 10), p);
    ///     r.on_depart(
    ///         p,
    ///         Time::from_ticks(seq * 10),
    ///         Time::from_ticks(seq * 10 + 3),
    ///         Time::from_ticks(seq * 10 + 5),
    ///         true,
    ///     );
    ///     r
    /// };
    /// let (a, b, c) = (shard(0), shard(1), shard(2));
    ///
    /// let mut abc = a.clone();
    /// abc.merge(&b);
    /// abc.merge(&c);
    /// let mut cba = c.clone();
    /// cba.merge(&b);
    /// cba.merge(&a);
    /// assert_eq!(abc.to_json(), cba.to_json());
    ///
    /// // Identity: merging an empty registry changes nothing.
    /// let mut id = a.clone();
    /// id.merge(&MetricsRegistry::new());
    /// assert_eq!(id.to_json(), a.to_json());
    /// ```
    pub fn merge(&mut self, other: &MetricsRegistry) {
        if other.num_classes > 0 || other.num_links > 0 {
            self.grow(
                other.num_links.saturating_sub(1),
                other.num_classes.saturating_sub(1),
            );
        }
        // If either side is multi-link the merged rollup must be maintained,
        // and both sides' contributions are needed in materialized form
        // (a single-link side derives its from its one link).
        if self.multi_link || other.multi_link {
            let mine = self.class_gauges();
            self.multi_link = true;
            self.class_gauges = mine;
        }
        for l in 0..other.num_links {
            for c in 0..other.num_classes {
                self.channels[l * self.num_classes + c]
                    .merge(&other.channels[l * other.num_classes + c]);
            }
        }
        if self.multi_link {
            let theirs = other.class_gauges();
            for (g, og) in self.class_gauges.iter_mut().zip(&theirs) {
                g.merge(og);
            }
        }
        self.heartbeats += other.heartbeats;
        self.scenario_events += other.scenario_events;
        self.heap_high_water = self.heap_high_water.max(other.heap_high_water);
        self.first_event_ticks = self.first_event_ticks.min(other.first_event_ticks);
        self.last_event_ticks = self.last_event_ticks.max(other.last_event_ticks);
    }

    /// The full registry as a [`Json`] value: the `propdiff-metrics-v1`
    /// snapshot, stable key order, integers only.
    pub fn snapshot(&self) -> Json {
        let index = |i: usize| Json::uint(i as u64);
        let hist = |h: &Histogram| {
            Json::obj(vec![
                ("count", Json::uint(h.count())),
                (
                    "bins",
                    Json::Arr(h.bins().iter().map(|&b| Json::uint(b)).collect()),
                ),
            ])
        };
        let gauges = self.class_gauges().into_iter().enumerate().map(|(c, g)| {
            Json::obj(vec![
                ("class", index(c)),
                ("depth", Json::Int(g.depth)),
                ("depth_high_water", Json::Int(g.depth_high_water)),
                ("backlog_bytes", Json::Int(g.backlog_bytes)),
                ("backlog_high_water", Json::Int(g.backlog_high_water)),
            ])
        });
        let channel = |(c, ch): (usize, &ChannelMetrics)| {
            Json::obj(vec![
                ("class", index(c)),
                ("arrivals", Json::uint(ch.arrivals)),
                ("enqueues", Json::uint(ch.enqueues)),
                ("departures", Json::uint(ch.departures)),
                ("hop_departures", Json::uint(ch.hop_departures)),
                ("drops", Json::uint(ch.drops)),
                ("decisions_won", Json::uint(ch.decisions_won)),
                ("wait_ticks_sum", Json::uint(ch.wait_ticks_sum)),
                ("bytes_delivered", Json::uint(ch.bytes_delivered)),
                ("backlog_bytes_sum", Json::uint(ch.backlog_bytes_sum)),
                ("depth", Json::Int(ch.depth)),
                ("depth_high_water", Json::Int(ch.depth_high_water)),
                ("backlog_bytes", Json::Int(ch.backlog_bytes)),
                ("backlog_high_water", Json::Int(ch.backlog_high_water)),
                ("delay_hist", hist(&ch.delay_hist)),
                ("backlog_hist", hist(&ch.backlog_hist)),
            ])
        };
        let rows = self.channels.chunks(self.num_classes.max(1));
        let links = rows.enumerate().map(|(i, row)| {
            Json::obj(vec![
                ("link", index(i)),
                (
                    "decisions",
                    Json::uint(row.iter().map(|c| c.decisions_won).sum()),
                ),
                (
                    "classes",
                    Json::Arr(row.iter().enumerate().map(channel).collect()),
                ),
            ])
        });
        Json::obj(vec![
            ("schema", Json::Str("propdiff-metrics-v1".into())),
            ("decisions", Json::uint(self.decisions())),
            ("probe_events", Json::uint(self.probe_events())),
            ("heartbeats", Json::uint(self.heartbeats)),
            ("scenario_events", Json::uint(self.scenario_events)),
            ("heap_high_water", index(self.heap_high_water)),
            (
                "first_event_ticks",
                self.first_event_ticks().map_or(Json::Null, Json::uint),
            ),
            ("last_event_ticks", Json::uint(self.last_event_ticks)),
            ("virtual_span_ticks", Json::uint(self.virtual_span_ticks())),
            ("class_gauges", Json::Arr(gauges.collect())),
            ("links", Json::Arr(links.collect())),
        ])
    }

    /// Serializes the full registry as deterministic JSON — the
    /// [`snapshot`](Self::snapshot), byte-identical for identical event
    /// streams.
    pub fn to_json(&self) -> String {
        self.snapshot().serialize()
    }

    /// Reconstructs a registry from the exact JSON [`to_json`](Self::to_json)
    /// emits — the deserialization half of shipping per-shard metrics
    /// sidecars between worker processes.
    ///
    /// Strict: the stored fields are read from the parsed tree, and the
    /// rebuilt registry must then write the input back byte for byte. That
    /// one comparison rejects everything that is not a snapshot of its own
    /// contents — whitespace, reordered, repeated or extra keys, and a
    /// derived field (`decisions`, `probe_events`, `virtual_span_ticks`,
    /// per-link `decisions`, histogram `count`) that disagrees with the
    /// counters — so corruption fails loudly instead of merging quietly.
    ///
    /// Round trip is exact: `from_json(r.to_json())` rebuilds a registry
    /// whose own `to_json` is byte-identical, and which merges exactly
    /// like the original.
    ///
    /// ```
    /// use simcore::Time;
    /// use telemetry::{MetricsRegistry, PacketId, Probe};
    ///
    /// let mut r = MetricsRegistry::with_shape(1, 4);
    /// let p = PacketId::single_link(0, 2, 100);
    /// r.on_enqueue(Time::from_ticks(7), p);
    /// r.on_depart(p, Time::from_ticks(7), Time::from_ticks(9), Time::from_ticks(12), true);
    ///
    /// let rebuilt = MetricsRegistry::from_json(&r.to_json()).unwrap();
    /// assert_eq!(rebuilt.to_json(), r.to_json());
    /// ```
    pub fn from_json(s: &str) -> Result<MetricsRegistry, String> {
        let doc = Json::parse(s).map_err(|e| format!("metrics JSON: {e}"))?;
        match Self::from_snapshot(&doc) {
            Some(r) if r.to_json() == s => Ok(r),
            _ => Err(
                "metrics JSON: not a propdiff-metrics-v1 snapshot of its own \
                      contents: a field is missing or mistyped, a total passes u64, \
                      or the rebuilt registry serializes differently"
                    .into(),
            ),
        }
    }

    /// The stored (non-derived) fields of a parsed snapshot.
    fn from_snapshot(doc: &Json) -> Option<MetricsRegistry> {
        let uint = |v: &Json, key: &str| v.get(key)?.as_u64();
        let int = |v: &Json, key: &str| v.get(key)?.as_i64();
        let hist = |v: &Json, key: &str| {
            let bins = v.get(key)?.get("bins")?.as_arr()?;
            let bins: Vec<u64> = bins.iter().map(Json::as_u64).collect::<Option<_>>()?;
            bins.iter()
                .try_fold(0u64, |total, &n| total.checked_add(n))?;
            Some(Histogram::from_bins(bins))
        };
        let mut gauges = Vec::new();
        for g in doc.get("class_gauges")?.as_arr()? {
            gauges.push(ClassGauges {
                depth: int(g, "depth")?,
                depth_high_water: int(g, "depth_high_water")?,
                backlog_bytes: int(g, "backlog_bytes")?,
                backlog_high_water: int(g, "backlog_high_water")?,
            });
        }
        let links = doc.get("links")?.as_arr()?;
        let mut channels = Vec::new();
        for link in links {
            for ch in link.get("classes")?.as_arr()? {
                channels.push(ChannelMetrics {
                    arrivals: uint(ch, "arrivals")?,
                    enqueues: uint(ch, "enqueues")?,
                    departures: uint(ch, "departures")?,
                    hop_departures: uint(ch, "hop_departures")?,
                    drops: uint(ch, "drops")?,
                    decisions_won: uint(ch, "decisions_won")?,
                    wait_ticks_sum: uint(ch, "wait_ticks_sum")?,
                    bytes_delivered: uint(ch, "bytes_delivered")?,
                    backlog_bytes_sum: uint(ch, "backlog_bytes_sum")?,
                    depth: int(ch, "depth")?,
                    depth_high_water: int(ch, "depth_high_water")?,
                    backlog_bytes: int(ch, "backlog_bytes")?,
                    backlog_high_water: int(ch, "backlog_high_water")?,
                    delay_hist: hist(ch, "delay_hist")?,
                    backlog_hist: hist(ch, "backlog_hist")?,
                });
            }
        }
        let (num_links, num_classes) = (links.len(), gauges.len());
        if channels.len() != num_links * num_classes {
            return None;
        }
        let multi_link = num_links > 1;
        let r = MetricsRegistry {
            channels,
            // A single-link registry derives its aggregate gauges from its
            // one link at read time; storing defaults here reproduces the
            // in-memory state exactly. Multi-link rollups are first-class.
            class_gauges: if multi_link {
                gauges
            } else {
                vec![ClassGauges::default(); num_classes]
            },
            num_links,
            num_classes,
            multi_link,
            heartbeats: uint(doc, "heartbeats")?,
            scenario_events: uint(doc, "scenario_events")?,
            heap_high_water: usize::try_from(uint(doc, "heap_high_water")?).ok()?,
            first_event_ticks: match doc.get("first_event_ticks")? {
                Json::Null => u64::MAX,
                ticks => ticks.as_u64()?,
            },
            last_event_ticks: uint(doc, "last_event_ticks")?,
        };
        // `probe_events` is the largest total a snapshot derives; if it
        // fits, so do `decisions` and every per-link tally.
        r.checked_probe_events()?;
        Some(r)
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers followed by samples,
    /// histograms as cumulative `_bucket{le=...}` series with `_sum` and
    /// `_count`. Log-bin upper bounds become the `le` thresholds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let counter = |out: &mut String,
                       name: &str,
                       help: &str,
                       kind: &str,
                       pick: &dyn Fn(&ChannelMetrics) -> u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for (i, row) in self.channels.chunks(self.num_classes.max(1)).enumerate() {
                for (c, ch) in row.iter().enumerate() {
                    out.push_str(&format!(
                        "{name}{{link=\"{i}\",class=\"{c}\"}} {}\n",
                        pick(ch)
                    ));
                }
            }
        };
        counter(
            &mut out,
            "propdiff_arrivals_total",
            "Packets offered per link and class.",
            "counter",
            &|ch| ch.arrivals,
        );
        counter(
            &mut out,
            "propdiff_departures_total",
            "End-of-life departures per link and class.",
            "counter",
            &|ch| ch.departures,
        );
        counter(
            &mut out,
            "propdiff_drops_total",
            "Buffer drops per link and class.",
            "counter",
            &|ch| ch.drops,
        );
        counter(
            &mut out,
            "propdiff_decisions_won_total",
            "Scheduler decisions won per link and class.",
            "counter",
            &|ch| ch.decisions_won,
        );
        counter(
            &mut out,
            "propdiff_bytes_delivered_total",
            "Bytes delivered per link and class.",
            "counter",
            &|ch| ch.bytes_delivered,
        );
        counter(
            &mut out,
            "propdiff_queue_depth",
            "Queued packets per link and class.",
            "gauge",
            &|ch| ch.depth.max(0) as u64,
        );
        counter(
            &mut out,
            "propdiff_queue_depth_high_water",
            "Peak queued packets per link and class.",
            "gauge",
            &|ch| ch.depth_high_water.max(0) as u64,
        );
        counter(
            &mut out,
            "propdiff_backlog_bytes",
            "Queued bytes per link and class.",
            "gauge",
            &|ch| ch.backlog_bytes.max(0) as u64,
        );
        counter(
            &mut out,
            "propdiff_backlog_bytes_high_water",
            "Peak queued bytes per link and class.",
            "gauge",
            &|ch| ch.backlog_high_water.max(0) as u64,
        );

        out.push_str(
            "# HELP propdiff_delay_ticks Hop-local queueing delay per link and class, in ticks.\n\
             # TYPE propdiff_delay_ticks histogram\n",
        );
        for (i, row) in self.channels.chunks(self.num_classes.max(1)).enumerate() {
            for (c, ch) in row.iter().enumerate() {
                let mut cum = 0u64;
                for (k, &n) in ch.delay_hist.bins().iter().enumerate() {
                    cum += n;
                    let le = Histogram::bin_bounds(k).1;
                    out.push_str(&format!(
                        "propdiff_delay_ticks_bucket{{link=\"{i}\",class=\"{c}\",le=\"{le}\"}} {cum}\n"
                    ));
                }
                out.push_str(&format!(
                    "propdiff_delay_ticks_bucket{{link=\"{i}\",class=\"{c}\",le=\"+Inf\"}} {}\n",
                    ch.delay_hist.count()
                ));
                out.push_str(&format!(
                    "propdiff_delay_ticks_sum{{link=\"{i}\",class=\"{c}\"}} {}\n",
                    ch.wait_ticks_sum
                ));
                out.push_str(&format!(
                    "propdiff_delay_ticks_count{{link=\"{i}\",class=\"{c}\"}} {}\n",
                    ch.delay_hist.count()
                ));
            }
        }

        out.push_str(
            "# HELP propdiff_enqueue_backlog_bytes Backlog observed by each enqueue, in bytes.\n\
             # TYPE propdiff_enqueue_backlog_bytes histogram\n",
        );
        for (i, row) in self.channels.chunks(self.num_classes.max(1)).enumerate() {
            for (c, ch) in row.iter().enumerate() {
                let mut cum = 0u64;
                for (k, &n) in ch.backlog_hist.bins().iter().enumerate() {
                    cum += n;
                    let le = Histogram::bin_bounds(k).1;
                    out.push_str(&format!(
                        "propdiff_enqueue_backlog_bytes_bucket{{link=\"{i}\",class=\"{c}\",le=\"{le}\"}} {cum}\n"
                    ));
                }
                out.push_str(&format!(
                    "propdiff_enqueue_backlog_bytes_bucket{{link=\"{i}\",class=\"{c}\",le=\"+Inf\"}} {}\n",
                    ch.backlog_hist.count()
                ));
                out.push_str(&format!(
                    "propdiff_enqueue_backlog_bytes_sum{{link=\"{i}\",class=\"{c}\"}} {}\n",
                    ch.backlog_bytes_sum
                ));
                out.push_str(&format!(
                    "propdiff_enqueue_backlog_bytes_count{{link=\"{i}\",class=\"{c}\"}} {}\n",
                    ch.backlog_hist.count()
                ));
            }
        }

        for (name, help, v) in [
            (
                "propdiff_decisions_total_all",
                "Scheduler decisions across all links.",
                self.decisions(),
            ),
            (
                "propdiff_probe_events_total",
                "Probe events of all kinds.",
                self.probe_events(),
            ),
            (
                "propdiff_heartbeats_total",
                "Engine heartbeats observed.",
                self.heartbeats,
            ),
            (
                "propdiff_scenario_events_total",
                "Scenario timeline events applied.",
                self.scenario_events,
            ),
            (
                "propdiff_heap_high_water",
                "Peak event-queue depth.",
                self.heap_high_water as u64,
            ),
            (
                "propdiff_virtual_span_ticks",
                "Virtual-time span of the run.",
                self.virtual_span_ticks(),
            ),
        ] {
            let kind = if name.ends_with("_total") || name.ends_with("_total_all") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {v}\n"
            ));
        }
        out
    }
}

impl Probe for MetricsRegistry {
    // Counters only — never reads the per-class audit slice, so loops can
    // skip computing it (a full scheduler pass per decision).
    const WANTS_DECISION_VALUES: bool = false;

    // `touch` is skipped in `on_arrival` and `on_decision`: the probe
    // lifecycle contract (see [`Probe`]) guarantees an arrival is followed
    // by an enqueue or drop at the same instant, and a decision at `t` by
    // its departure at `finish >= t`, so those calls can never extend the
    // observed first/last-event span.

    #[inline(always)]
    fn on_arrival(&mut self, _at: Time, id: PacketId) {
        self.channel(id.hop as usize, id.class as usize).arrivals += 1;
    }

    #[inline(always)]
    fn on_enqueue(&mut self, at: Time, id: PacketId) {
        self.touch(at);
        let (hop, class) = (id.hop as usize, id.class as usize);
        let ch = self.channel(hop, class);
        ch.enqueues += 1;
        ch.depth += 1;
        ch.depth_high_water = ch.depth_high_water.max(ch.depth);
        ch.backlog_bytes += id.size as i64;
        ch.backlog_high_water = ch.backlog_high_water.max(ch.backlog_bytes);
        let backlog = ch.backlog_bytes.max(0) as u64;
        ch.backlog_bytes_sum += backlog;
        ch.backlog_hist.record_u64(backlog);
        if self.multi_link {
            let g = &mut self.class_gauges[class];
            g.depth += 1;
            g.depth_high_water = g.depth_high_water.max(g.depth);
            g.backlog_bytes += id.size as i64;
            g.backlog_high_water = g.backlog_high_water.max(g.backlog_bytes);
        }
    }

    #[inline(always)]
    fn on_decision(
        &mut self,
        _at: Time,
        _scheduler: &'static str,
        winner: PacketId,
        _values: &[(usize, f64)],
    ) {
        let (hop, class) = (winner.hop as usize, winner.class as usize);
        self.channel(hop, class).decisions_won += 1;
    }

    #[inline(always)]
    fn on_depart(&mut self, id: PacketId, arrival: Time, start: Time, finish: Time, eol: bool) {
        self.touch(finish);
        let (hop, class) = (id.hop as usize, id.class as usize);
        let wait = start.saturating_since(arrival).ticks();
        let ch = self.channel(hop, class);
        ch.depth -= 1;
        ch.backlog_bytes -= id.size as i64;
        ch.hop_departures += 1;
        ch.wait_ticks_sum += wait;
        ch.delay_hist.record_u64(wait);
        if eol {
            ch.departures += 1;
            ch.bytes_delivered += id.size as u64;
        }
        if self.multi_link {
            let g = &mut self.class_gauges[class];
            g.depth -= 1;
            g.backlog_bytes -= id.size as i64;
        }
    }

    #[inline]
    fn on_drop(&mut self, at: Time, id: PacketId, _backlog_bytes: u64, _buffer_bytes: u64) {
        self.touch(at);
        self.channel(id.hop as usize, id.class as usize).drops += 1;
    }

    #[inline]
    fn on_heartbeat(&mut self, at: Time, _events_handled: u64, heap_depth: usize) {
        self.touch(at);
        self.heartbeats += 1;
        self.heap_high_water = self.heap_high_water.max(heap_depth);
    }

    #[inline]
    fn on_scenario_event(&mut self, at: Time, _link: u16, _kind: &'static str, _value: f64) {
        self.touch(at);
        self.scenario_events += 1;
    }
}

/// Validates Prometheus text exposition (format 0.0.4) without any
/// dependencies; returns the number of samples on success.
///
/// Checks: line grammar (`# HELP`, `# TYPE`, samples), metric-name and
/// label syntax, numeric sample values, that a family's `# TYPE` precedes
/// its samples, and that histogram `_bucket` series are cumulative with a
/// final `le="+Inf"` bucket matching `_count`.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn family_of(name: &str) -> &str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stripped) = name.strip_suffix(suffix) {
                return stripped;
            }
        }
        name
    }
    // (metric name, labels-without-le, is +Inf) -> running bucket check.
    struct BucketRun {
        key: String,
        last_cum: u64,
        saw_inf: bool,
    }
    let mut samples = 0usize;
    let mut sampled: Vec<String> = Vec::new();
    let mut run: Option<BucketRun> = None;
    let finish_run = |run: &mut Option<BucketRun>| -> Result<(), String> {
        if let Some(r) = run.take() {
            if !r.saw_inf {
                return Err(format!(
                    "bucket series {} lacks an le=\"+Inf\" bucket",
                    r.key
                ));
            }
        }
        Ok(())
    };
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let payload = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_name(name) {
                        return Err(format!("line {n}: bad metric name in HELP: {name:?}"));
                    }
                }
                "TYPE" => {
                    if !valid_name(name) {
                        return Err(format!("line {n}: bad metric name in TYPE: {name:?}"));
                    }
                    if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&payload) {
                        return Err(format!("line {n}: unknown TYPE {payload:?}"));
                    }
                    if sampled.iter().any(|s| s == name) {
                        return Err(format!(
                            "line {n}: TYPE for {name} appears after its samples"
                        ));
                    }
                }
                _ => return Err(format!("line {n}: unknown comment keyword {keyword:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            // Bare comments are legal exposition.
            continue;
        }
        // Sample: name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample has no value: {line:?}"))?;
        if value.parse::<f64>().is_err() && !["+Inf", "-Inf", "NaN"].contains(&value) {
            return Err(format!("line {n}: non-numeric sample value {value:?}"));
        }
        let (name, labels) = match name_labels.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, labels)
            }
            None => (name_labels, ""),
        };
        if !valid_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let mut le: Option<String> = None;
        if !labels.is_empty() {
            for pair in labels.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {n}: bad label pair {pair:?}"))?;
                if !valid_name(k) || k.contains(':') {
                    return Err(format!("line {n}: bad label name {k:?}"));
                }
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("line {n}: unquoted label value {v:?}"))?;
                if v.contains('"') || v.contains('\n') {
                    return Err(format!("line {n}: bad label value {v:?}"));
                }
                if k == "le" {
                    le = Some(v.to_string());
                }
            }
        }
        let family = family_of(name);
        if !sampled.iter().any(|s| s == family) {
            sampled.push(family.to_string());
        }
        // Histogram bucket monotonicity, per contiguous series.
        if name.ends_with("_bucket") {
            let le = le.ok_or_else(|| format!("line {n}: _bucket sample without le label"))?;
            let key: String = format!(
                "{name}{{{}}}",
                labels
                    .split(',')
                    .filter(|p| !p.starts_with("le="))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let cum = value.parse::<f64>().unwrap_or(f64::NAN);
            if cum.is_nan() || cum < 0.0 || cum.fract() != 0.0 {
                return Err(format!(
                    "line {n}: bucket count must be a nonnegative integer"
                ));
            }
            let cum = cum as u64;
            match &mut run {
                Some(r) if r.key == key => {
                    if r.saw_inf {
                        return Err(format!("line {n}: bucket after le=\"+Inf\" in {key}"));
                    }
                    if cum < r.last_cum {
                        return Err(format!(
                            "line {n}: bucket counts not cumulative in {key} ({} then {cum})",
                            r.last_cum
                        ));
                    }
                    r.last_cum = cum;
                    r.saw_inf = le == "+Inf";
                }
                _ => {
                    finish_run(&mut run)?;
                    run = Some(BucketRun {
                        key,
                        last_cum: cum,
                        saw_inf: le == "+Inf",
                    });
                }
            }
        } else {
            finish_run(&mut run)?;
        }
        samples += 1;
    }
    finish_run(&mut run)?;
    if samples == 0 {
        return Err("no samples in exposition".into());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u64, class: u8, size: u32) -> PacketId {
        PacketId::single_link(seq, class, size)
    }

    fn hop_id(seq: u64, class: u8, size: u32, hop: u16) -> PacketId {
        PacketId {
            span: seq,
            seq,
            class,
            size,
            hop,
        }
    }

    /// Drives one packet through arrive→enqueue→decide→depart.
    fn one_packet(r: &mut MetricsRegistry, seq: u64, class: u8, at: u64, wait: u64) {
        let p = id(seq, class, 100);
        r.on_arrival(Time::from_ticks(at), p);
        r.on_enqueue(Time::from_ticks(at), p);
        r.on_decision(Time::from_ticks(at + wait), "WTP", p, &[]);
        r.on_depart(
            p,
            Time::from_ticks(at),
            Time::from_ticks(at + wait),
            Time::from_ticks(at + wait + 100),
            true,
        );
    }

    #[test]
    fn lifecycle_counts_and_histograms() {
        let mut r = MetricsRegistry::new();
        one_packet(&mut r, 0, 0, 0, 5);
        one_packet(&mut r, 1, 1, 50, 40);
        let links = r.links();
        let c0 = &links[0].classes[0];
        assert_eq!(c0.arrivals, 1);
        assert_eq!(c0.departures, 1);
        assert_eq!(c0.hop_departures, 1);
        assert_eq!(c0.wait_ticks_sum, 5);
        assert_eq!(c0.delay_hist.count(), 1);
        assert_eq!(c0.delay_hist.bins()[3], 1); // 5 ∈ [4, 8)
        assert_eq!(c0.depth, 0);
        assert_eq!(c0.depth_high_water, 1);
        assert_eq!(r.class_gauges()[0].depth, 0);
        assert_eq!(r.class_gauges()[0].depth_high_water, 1);
        assert_eq!(r.decisions(), 2);
        assert_eq!(r.probe_events(), 8);
        assert_eq!(r.num_classes(), 2);
    }

    #[test]
    fn a_drop_balances_the_lifecycle_and_sets_the_loss_fraction() {
        let mut r = MetricsRegistry::with_shape(1, 2);
        // Packet 0 (class 0): arrives, queues, wins, departs.
        let p0 = id(0, 0, 100);
        r.on_arrival(Time::ZERO, p0);
        r.on_enqueue(Time::ZERO, p0);
        r.on_decision(Time::from_ticks(5), "WTP", p0, &[(0, 5.0)]);
        r.on_depart(
            p0,
            Time::ZERO,
            Time::from_ticks(5),
            Time::from_ticks(105),
            true,
        );
        // Packet 1 (class 1): arrives and is dropped.
        let p1 = id(1, 1, 50);
        r.on_arrival(Time::from_ticks(10), p1);
        r.on_drop(Time::from_ticks(10), p1, 100, 128);
        let (c0, c1) = (r.class_total(0), r.class_total(1));
        assert_eq!((c0.arrivals, c0.departures, c0.decisions_won), (1, 1, 1));
        assert_eq!(c0.wait_ticks_sum, 5);
        assert_eq!(
            (c0.depth, c0.depth_high_water, c0.backlog_high_water),
            (0, 1, 100)
        );
        assert_eq!((c1.arrivals, c1.departures, c1.drops), (1, 0, 1));
        assert_eq!(c1.drops as f64 / c1.arrivals as f64, 1.0, "loss fraction");
        for c in [&c0, &c1] {
            assert_eq!(c.arrivals, c.departures + c.drops, "lifecycle balance");
        }
        assert_eq!(r.decisions(), 1);
        assert_eq!(r.virtual_span_ticks(), 105);
    }

    #[test]
    fn gauges_track_depth_and_backlog_high_water() {
        let mut r = MetricsRegistry::with_shape(1, 1);
        for s in 0..3 {
            r.on_enqueue(Time::ZERO, id(s, 0, 100));
        }
        r.on_depart(
            id(0, 0, 100),
            Time::ZERO,
            Time::ZERO,
            Time::from_ticks(100),
            true,
        );
        r.on_enqueue(Time::from_ticks(100), id(3, 0, 100));
        let c = r.class_total(0);
        assert_eq!((c.depth, c.depth_high_water), (3, 3));
        assert_eq!((c.backlog_bytes, c.backlog_high_water), (300, 300));
    }

    #[test]
    fn non_eol_hop_departures_keep_conservation() {
        // A two-hop journey through one channel: hop 0's departure is not
        // end-of-life, so only the second counts as a departure.
        let mut r = MetricsRegistry::with_shape(1, 1);
        let p = id(0, 0, 100);
        r.on_arrival(Time::ZERO, p);
        r.on_enqueue(Time::ZERO, p);
        r.on_depart(p, Time::ZERO, Time::ZERO, Time::from_ticks(100), false);
        r.on_enqueue(Time::from_ticks(100), p);
        let (t100, t200) = (Time::from_ticks(100), Time::from_ticks(200));
        r.on_depart(p, t100, t100, t200, true);
        let c = r.class_total(0);
        assert_eq!((c.arrivals, c.departures, c.drops), (1, 1, 0));
        assert_eq!(c.arrivals, c.departures + c.drops);
        assert_eq!((c.hop_departures, c.depth), (2, 0));
    }

    #[test]
    fn heartbeats_track_the_heap_high_water() {
        let mut r = MetricsRegistry::with_shape(1, 1);
        r.on_heartbeat(Time::from_ticks(1), 100, 7);
        r.on_heartbeat(Time::from_ticks(2), 200, 3);
        assert_eq!((r.heartbeats(), r.heap_high_water()), (2, 7));
        assert!(r.to_json().contains("\"heap_high_water\":7"));
    }

    #[test]
    fn scenario_events_are_tallied() {
        let mut r = MetricsRegistry::with_shape(1, 1);
        r.on_scenario_event(Time::from_ticks(5), 0, "set_sdp", 0.0);
        r.on_scenario_event(Time::from_ticks(9), 1, "link_down", 0.0);
        assert_eq!((r.scenario_events(), r.probe_events()), (2, 2));
        assert!(r.to_json().contains("\"scenario_events\":2"));
    }

    #[test]
    fn per_link_channels_are_separate() {
        let mut r = MetricsRegistry::new();
        let p0 = hop_id(0, 0, 100, 0);
        let p1 = hop_id(0, 0, 100, 2);
        r.on_enqueue(Time::ZERO, p0);
        r.on_enqueue(Time::ZERO, p1);
        assert_eq!(r.num_links(), 3);
        let links = r.links();
        assert_eq!(links.len(), 3);
        assert_eq!(links[0].classes[0].enqueues, 1);
        assert_eq!(links[2].classes[0].enqueues, 1);
        assert_eq!(links[1].classes[0].enqueues, 0);
        // The network-wide gauge saw both.
        assert_eq!(r.class_gauges()[0].depth, 2);
        assert_eq!(r.class_gauges()[0].depth_high_water, 2);
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let mut a = MetricsRegistry::new();
        one_packet(&mut a, 0, 0, 0, 3);
        let mut b = MetricsRegistry::new();
        one_packet(&mut b, 1, 1, 10, 70);
        one_packet(&mut b, 2, 0, 200, 9);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());

        // Identical to single-stream accumulation.
        let mut whole = MetricsRegistry::new();
        one_packet(&mut whole, 0, 0, 0, 3);
        one_packet(&mut whole, 1, 1, 10, 70);
        one_packet(&mut whole, 2, 0, 200, 9);
        assert_eq!(ab.to_json(), whole.to_json());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = MetricsRegistry::new();
        one_packet(&mut a, 0, 0, 0, 3);
        let before = a.to_json();
        a.merge(&MetricsRegistry::new());
        assert_eq!(a.to_json(), before);
        let mut empty = MetricsRegistry::new();
        empty.merge(&a);
        assert_eq!(empty.to_json(), before);
    }

    #[test]
    fn json_is_balanced_and_stable() {
        let mut r = MetricsRegistry::with_shape(2, 3);
        one_packet(&mut r, 0, 2, 0, 5);
        let j = r.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"schema\":\"propdiff-metrics-v1\""));
        assert_eq!(j, r.clone().to_json());
    }

    #[test]
    fn from_json_round_trips_byte_identically() {
        // Empty.
        let empty = MetricsRegistry::new();
        let parsed = MetricsRegistry::from_json(&empty.to_json()).unwrap();
        assert_eq!(parsed.to_json(), empty.to_json());

        // Single-link with traffic (the Study-A shard sidecar shape).
        let mut r = MetricsRegistry::with_shape(1, 4);
        for s in 0..25 {
            one_packet(&mut r, s, (s % 4) as u8, s * 13, s % 7);
        }
        r.on_heartbeat(Time::from_ticks(999), 50, 12);
        let parsed = MetricsRegistry::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.to_json(), r.to_json());

        // Multi-link (Study B shape) — the rollup gauges survive.
        let mut m = MetricsRegistry::new();
        m.on_enqueue(Time::ZERO, hop_id(0, 1, 100, 0));
        m.on_enqueue(Time::ZERO, hop_id(0, 1, 100, 2));
        let parsed = MetricsRegistry::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed.to_json(), m.to_json());
        assert_eq!(parsed.class_gauges()[1].depth, 2);
    }

    #[test]
    fn parsed_registry_merges_like_the_original() {
        // Per-shard sidecars round-tripped through JSON must merge into
        // the same snapshot as the in-memory registries — the property the
        // multi-process farm's metrics path rests on.
        let shard = |lo: u64, hi: u64| {
            let mut r = MetricsRegistry::with_shape(1, 3);
            for s in lo..hi {
                one_packet(&mut r, s, (s % 3) as u8, s * 10, s % 5);
            }
            r
        };
        let (a, b) = (shard(0, 9), shard(9, 20));
        let mut direct = a.clone();
        direct.merge(&b);

        let mut via_json = MetricsRegistry::from_json(&a.to_json()).unwrap();
        via_json.merge(&MetricsRegistry::from_json(&b.to_json()).unwrap());
        assert_eq!(via_json.to_json(), direct.to_json());
    }

    #[test]
    fn from_json_rejects_corruption() {
        let mut r = MetricsRegistry::with_shape(1, 2);
        one_packet(&mut r, 0, 1, 5, 3);
        let good = r.to_json();
        assert!(MetricsRegistry::from_json("").is_err());
        assert!(MetricsRegistry::from_json("{}").is_err());
        assert!(MetricsRegistry::from_json(&good[..good.len() - 1]).is_err());
        assert!(MetricsRegistry::from_json(&format!("{good} ")).is_err());
        // A tampered derived field is caught by the cross-check: the
        // rebuilt registry does not write these bytes.
        let reject = |from: &str, to: &str| {
            let tampered = good.replacen(from, to, 1);
            assert_ne!(tampered, good, "{from} not found");
            let err = MetricsRegistry::from_json(&tampered).unwrap_err();
            assert!(err.starts_with("metrics JSON: "), "{err}");
        };
        reject("\"decisions\":1", "\"decisions\":9");
        reject("\"probe_events\":4", "\"probe_events\":5");
        reject("\"virtual_span_ticks\":103", "\"virtual_span_ticks\":104");
        reject("{\"count\":1,", "{\"count\":2,");
        reject("\"link\":0,\"decisions\":1", "\"link\":0,\"decisions\":0");
        // Valid JSON that is not byte-for-byte the snapshot.
        reject("\"heartbeats\":0", "\"heartbeats\": 0");
        reject("\"heartbeats\":0", "\"heartbeats\":0,\"heartbeats\":0");
        reject("\"heartbeats\":0", "\"heartbeats\":0,\"extra\":0");
        reject(
            "\"heartbeats\":0,\"scenario_events\":0",
            "\"scenario_events\":0,\"heartbeats\":0",
        );
        reject("\"heartbeats\":0", "\"heartbeats\":0.0");
        reject("propdiff-metrics-v1", "propdiff-metrics-v2");
        // Mistyped or missing stored fields.
        reject("\"arrivals\":1", "\"arrivals\":-1");
        reject("\"arrivals\":1", "\"arrivals\":\"1\"");
        reject("\"last_event_ticks\":108,", "");
        reject("\"class\":1,\"arrivals\"", "\"class\":7,\"arrivals\"");
        // Counters whose derived totals pass u64::MAX are refused, not
        // summed.
        reject("\"arrivals\":1", "\"arrivals\":18446744073709551615");
        reject("\"bins\":[0,0,1]", "\"bins\":[18446744073709551615,0,1]");
    }

    #[test]
    fn u64_counters_keep_their_digits() {
        let mut r = MetricsRegistry::with_shape(1, 1);
        r.channels[0].wait_ticks_sum = u64::MAX - 1;
        let j = r.to_json();
        assert!(j.contains("\"wait_ticks_sum\":18446744073709551614"), "{j}");
        let back = MetricsRegistry::from_json(&j).unwrap();
        assert_eq!(back.channels[0].wait_ticks_sum, u64::MAX - 1);
    }

    mod round_trip {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `from_json ∘ to_json` rebuilds a registry that writes the
            /// same bytes, whatever lifecycle drove it: 1–4 links, 1–6
            /// classes, every probe call, one counter near `u64::MAX`.
            #[test]
            fn from_json_inverts_to_json(
                events in prop::collection::vec((0u8..7, 0u16..4, 0u8..6, 0u64..5_000), 0..200),
                shape in (1u16..5, 1u8..7),
            ) {
                let (links, classes) = shape;
                let mut r = MetricsRegistry::new();
                for (seq, (what, hop, class, ticks)) in events.into_iter().enumerate() {
                    let p = hop_id(seq as u64, class % classes, 40 + ticks as u32, hop % links);
                    let at = Time::from_ticks(ticks);
                    match what {
                        0 => r.on_arrival(at, p),
                        1 => r.on_enqueue(at, p),
                        2 => r.on_decision(at, "WTP", p, &[]),
                        3 => r.on_depart(p, at, at, Time::from_ticks(ticks + 40), seq % 2 == 0),
                        4 => r.on_drop(at, p, ticks, 2 * ticks),
                        5 => r.on_heartbeat(at, seq as u64, ticks as usize),
                        _ => r.on_scenario_event(at, hop, "set_sdp", 0.0),
                    }
                }
                if let Some(ch) = r.channels.last_mut() {
                    ch.bytes_delivered = u64::MAX - 1;
                }
                let bytes = r.to_json();
                let back = MetricsRegistry::from_json(&bytes);
                prop_assert_eq!(back.map(|b| b.to_json()), Ok(bytes));
            }
        }
    }

    #[test]
    fn prometheus_exposition_validates() {
        let mut r = MetricsRegistry::new();
        for s in 0..20 {
            one_packet(&mut r, s, (s % 3) as u8, s * 10, s);
        }
        r.on_heartbeat(Time::from_ticks(500), 100, 7);
        let text = r.to_prometheus();
        let n = validate_prometheus(&text).expect("exposition should validate");
        assert!(n > 20, "expected a rich exposition, got {n} samples");
        assert!(text.contains("propdiff_delay_ticks_bucket"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn validator_rejects_malformed_text() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("propdiff_x notanumber\n").is_err());
        assert!(validate_prometheus("9bad_name 1\n").is_err());
        assert!(validate_prometheus("m_bucket{le=\"1\"} x\n").is_err());
        // Non-cumulative buckets.
        let bad = "m_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 3\nm_bucket{le=\"+Inf\"} 5\n";
        assert!(validate_prometheus(bad).is_err());
        // Missing +Inf.
        let bad = "m_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 7\n";
        assert!(validate_prometheus(bad).is_err());
        // TYPE after samples.
        let bad = "m 1\n# TYPE m counter\n";
        assert!(validate_prometheus(bad).is_err());
    }

    #[test]
    fn validator_accepts_minimal_exposition() {
        let ok = "# HELP m help text\n# TYPE m counter\nm 1\nm{a=\"x\"} 2.5\n";
        assert_eq!(validate_prometheus(ok), Ok(2));
    }
}
