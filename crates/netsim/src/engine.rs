//! The event-driven multi-hop engine.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use scenario::{Command, DownPolicy, Scenario, ScenarioRuntime};
use sched::{Packet, ReconfigureError, Scheduler};
use simcore::{Context, Dur, EventKey, Model, RunOutcome, Simulation, Time};
use telemetry::{PacketId, Probe};

use crate::analysis::ExperimentRecord;
use crate::config::{CrossModel, StudyBConfig};
use crate::emission::{cross_class, first_cross_tick, CrossEmission, CrossStream, TournamentTree};
use crate::link::tx_ticks;
use crate::TICKS_PER_SEC;

/// Sentinel tag for cross-traffic packets (no per-packet bookkeeping).
const CROSS_TAG: u64 = u64::MAX;

/// High bit marking cross-traffic span ids in probe events, so single-hop
/// cross packets (span = hop-local seq) can never collide with user-packet
/// spans (span = the small dense `metas` index).
const CROSS_SPAN_BIT: u64 = 1 << 63;

/// Events handled between probe heartbeats when a probe is attached.
const HEARTBEAT_EVERY: u64 = 65_536;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A Pareto cross source emits a packet; out of the lane.
    Emit(CrossEmission),
    /// ECN-adaptive cross source `src` at node `node` emits a packet.
    Cross { node: u16, src: u16 },
    /// Packet `idx` of the flow (experiment `exp`, class `class`) enters
    /// the first link.
    UserPacket { exp: u32, class: u8, idx: u32 },
    /// The link finished transmitting its in-flight packet; out of the
    /// lane.
    TxDone { link: u16 },
    /// A user packet finished propagating to its next hop.
    Propagated { link: u16, class: u8, tag: u64 },
    /// The next scenario event is due: apply every perturbation at or
    /// before now, then reschedule for the following one.
    ScenarioTick,
}

/// Per-link measurement summary returned alongside the experiment records.
#[derive(Debug, Clone)]
pub struct LinkStats {
    /// Packets transmitted by this link.
    pub departures: u64,
    /// Bytes transmitted by this link.
    pub bytes: u64,
    /// Ticks the link spent transmitting.
    pub busy_ticks: u64,
    /// Length of the observation window in ticks.
    pub span_ticks: u64,
    /// Per-class mean queueing wait at this hop, in ticks.
    pub class_mean_wait: Vec<f64>,
}

impl LinkStats {
    /// Achieved utilization: busy time over the observation window.
    pub fn utilization(&self) -> f64 {
        if self.span_ticks == 0 {
            0.0
        } else {
            self.busy_ticks as f64 / self.span_ticks as f64
        }
    }
}

/// Per-user-packet bookkeeping, indexed by `Packet::tag`.
struct UserMeta {
    exp: u32,
    class: u8,
    remaining_hops: u16,
    acc_wait: u64,
}

struct Link {
    scheduler: Box<dyn Scheduler>,
    /// Ticks a packet takes at the current transmission rate (scenario-
    /// adjustable): every packet of the chain has `cfg.packet_bytes`.
    tx: Dur,
    in_flight: Option<Packet>,
    /// Start of the in-flight transmission (valid while `in_flight` is
    /// `Some`); transmissions keep the rate they started with.
    tx_start: Time,
    /// Accumulated transmitting time, ticks.
    busy_ticks: u64,
}

/// AIMD state of [`CrossModel::EcnAdaptive`] sources, indexed
/// `node * cross_sources + src` unless noted. A source's gap reads its
/// link's backlog, so its `Cross` events are scheduled one at a time.
struct EcnSources {
    mark_threshold_bytes: u64,
    increase_bps: f64,
    /// Per node, the rate a source never falls below, bits/s.
    floor_bps: Vec<f64>,
    /// Current rate, bits/s.
    rate: Vec<f64>,
    /// Cumulative arrival clock, unrounded.
    cum: Vec<f64>,
    /// Draws every source's classes, in event order.
    rng: StdRng,
}

/// The key of no event: past every key a transmission or an emission takes.
const NO_EVENT: EventKey = EventKey::new(Time::MAX, u64::MAX);

struct Net<'p, P: Probe> {
    cfg: StudyBConfig,
    /// `cfg.user_hops()` and `cfg.user_packet_gap_ticks()`, derived once:
    /// every user packet reads them.
    user_hops: (usize, usize),
    user_gap: Dur,
    /// The Pareto sources' `Cross` events, worked out ahead of the run and
    /// read from the lane; without sources under the ECN model.
    cross: CrossStream,
    ecn: Option<EcnSources>,
    links: Vec<Link>,
    /// Per link, the key of its pending `TxDone`: a link has at most one
    /// transmission in flight, so the event waits here, not in the queue.
    tx_done: TournamentTree<EventKey>,
    metas: Vec<UserMeta>,
    probe: &'p mut P,
    /// Scratch for the scheduler decision audit, reused across decisions.
    audit_buf: Vec<(usize, f64)>,
    /// Delivered end-to-end waits: `records[exp][class]` in ticks.
    records: Vec<Vec<Vec<u64>>>,
    /// Last instant at which cross sources may emit.
    cross_end: Time,
    /// Perturbation timeline state (empty scenarios are all-pass).
    rt: ScenarioRuntime,
    /// Scratch for draining scenario commands, reused across ticks.
    cmd_buf: Vec<Command>,
    seq: u64,
    /// Per-link delivered packet count (cross + user), for sanity checks.
    link_departures: Vec<u64>,
    /// Per-link transmitted bytes.
    link_bytes: Vec<u64>,
    /// Per-link per-class wait accumulators: (sum_ticks, count).
    link_waits: Vec<Vec<(f64, u64)>>,
}

/// Probe identity of `pkt` as seen at hop `link`: user packets carry their
/// `metas` index as the end-to-end span (constant across hops, so one
/// journey is one trace track); cross packets get a high-bit-marked
/// hop-local span (they live for exactly one hop).
fn packet_id(pkt: &Packet, link: usize) -> PacketId {
    PacketId {
        span: if pkt.tag == CROSS_TAG {
            pkt.seq | CROSS_SPAN_BIT
        } else {
            pkt.tag
        },
        seq: pkt.seq,
        class: pkt.class,
        size: pkt.size,
        hop: link as u16,
    }
}

impl<P: Probe> Net<'_, P> {
    /// Delivers a packet into a link's queue and starts transmission if the
    /// link is idle. A packet reaching a down link is dropped (fault drop)
    /// under [`DownPolicy::Drop`], buffered under [`DownPolicy::Hold`].
    fn arrive(&mut self, link: usize, class: u8, tag: u64, ctx: &mut Context<Ev>) {
        let pkt = Packet {
            seq: self.seq,
            class,
            size: self.cfg.packet_bytes,
            arrival: ctx.now(),
            tag,
        };
        self.seq += 1;
        if P::ENABLED {
            self.probe.on_arrival(pkt.arrival, packet_id(&pkt, link));
        }
        if !self.rt.link_up(link as u16) && self.rt.down_policy(link as u16) == DownPolicy::Drop {
            if P::ENABLED {
                self.probe.on_drop(
                    pkt.arrival,
                    packet_id(&pkt, link),
                    self.links[link].scheduler.total_backlog_bytes(),
                    0,
                );
            }
            return;
        }
        if P::ENABLED {
            self.probe.on_enqueue(pkt.arrival, packet_id(&pkt, link));
        }
        self.links[link].scheduler.enqueue(pkt);
        if self.links[link].in_flight.is_none() {
            self.start_tx(link, ctx);
        }
    }

    fn start_tx(&mut self, link: usize, ctx: &mut Context<Ev>) {
        if !self.rt.link_up(link as u16) {
            // Held packets wait; the LinkUp command restarts service.
            return;
        }
        let now = ctx.now();
        if P::ENABLED && P::WANTS_DECISION_VALUES {
            self.audit_buf.clear();
            self.links[link]
                .scheduler
                .decision_values(now, &mut self.audit_buf);
        }
        let Some(pkt) = self.links[link].scheduler.dequeue(now) else {
            return;
        };
        if P::ENABLED {
            self.probe.on_decision(
                now,
                self.links[link].scheduler.name(),
                packet_id(&pkt, link),
                &self.audit_buf,
            );
        }
        let wait = now.since(pkt.arrival).ticks();
        let acc = &mut self.link_waits[link][pkt.class as usize];
        acc.0 += wait as f64;
        acc.1 += 1;
        if pkt.tag != CROSS_TAG {
            self.metas[pkt.tag as usize].acc_wait += wait;
        }
        self.links[link].in_flight = Some(pkt);
        self.links[link].tx_start = now;
        let done = EventKey::new(now + self.links[link].tx, ctx.reserve_seq());
        self.tx_done.set(link, done);
    }

    /// Keys of the earliest pending `TxDone` and of the next `Cross` in the
    /// stream, [`NO_EVENT`] where there is none.
    #[inline]
    fn lane_heads(&self) -> (EventKey, EventKey) {
        let (_, tx_done) = self.tx_done.min();
        let cross = (self.cross.peek()).map_or(NO_EVENT, |(at, seq)| {
            EventKey::new(Time::from_ticks(at), seq)
        });
        (tx_done, cross)
    }

    /// What the lane holds that the event queue would: a `Cross` per live
    /// Pareto source and a `TxDone` per busy link.
    fn lane_depth(&self) -> usize {
        let busy = self.links.iter().filter(|l| l.in_flight.is_some()).count();
        self.cross.live() + busy
    }

    /// Applies every scenario command due at `now` to the network.
    fn apply_scenario(&mut self, ctx: &mut Context<Ev>) {
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        self.rt
            .apply_due(ctx.now(), &mut *self.probe, |c| cmds.push(c));
        for c in cmds.drain(..) {
            match c {
                Command::Reconfigure(sdp) => {
                    // Every hop swaps its SDP; fixed-policy schedulers
                    // (FCFS hops) legitimately ignore the change.
                    for l in &mut self.links {
                        match l.scheduler.reconfigure(&sdp) {
                            Ok(()) | Err(ReconfigureError::Unsupported(_)) => {}
                            Err(e) => panic!("scenario set_sdp: {e}"),
                        }
                    }
                }
                Command::SetLinkRate { link, rate } => {
                    let l = &mut self.links[link as usize];
                    l.tx = tx_time(self.cfg.packet_bytes, rate);
                    l.scheduler.set_link_rate(rate);
                }
                Command::LinkDown { .. } => {
                    // Non-preemptive: an in-flight packet completes; the
                    // runtime state blocks the next start_tx.
                }
                Command::LinkUp { link } => {
                    let l = link as usize;
                    if self.links[l].in_flight.is_none() {
                        self.start_tx(l, ctx);
                    }
                }
            }
        }
        self.cmd_buf = cmds;
    }
}

impl<P: Probe> Model for Net<'_, P> {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Context<Ev>) {
        match ev {
            Ev::Emit(emission) => {
                if let Some(class) = emission.class {
                    if self.rt.admits(class) {
                        self.arrive(emission.node as usize, class, CROSS_TAG, ctx);
                    }
                }
                // The source's next `Cross` is in the lane already: this
                // is where it would have been scheduled.
                if emission.successor {
                    self.cross.stamp(emission.source, ctx.reserve_seq());
                }
            }
            Ev::Cross { node, src } => {
                if ctx.now() <= self.cross_end {
                    let ecn = self.ecn.as_mut().expect("only ECN sources are scheduled");
                    let class = cross_class(ecn.rng.random(), &self.cfg.cross_class_fractions);
                    if self.rt.admits(class) {
                        self.arrive(node as usize, class, CROSS_TAG, ctx);
                    }
                    let ecn = self.ecn.as_mut().expect("only ECN sources are scheduled");
                    let idx = node as usize * self.cfg.cross_sources + src as usize;
                    // AIMD on the source's rate, driven by its own link's
                    // queue depth (the ECN signal).
                    let marked = self.links[node as usize].scheduler.total_backlog_bytes()
                        > ecn.mark_threshold_bytes;
                    let rate = &mut ecn.rate[idx];
                    if marked {
                        *rate = (*rate * 0.5).max(ecn.floor_bps[node as usize]);
                    } else {
                        *rate += ecn.increase_bps;
                    }
                    let bits = self.cfg.packet_bytes as f64 * 8.0;
                    // Accumulated in f64 to avoid rounding drift.
                    ecn.cum[idx] += bits / *rate * crate::TICKS_PER_SEC as f64;
                    let next = Time::from_ticks(ecn.cum[idx].round() as u64);
                    if next > ctx.now() && next <= self.cross_end {
                        ctx.schedule(next, Ev::Cross { node, src });
                    } else if next <= self.cross_end {
                        // Gap rounded to the past tick; nudge forward.
                        ctx.schedule_in(Dur::from_ticks(1), Ev::Cross { node, src });
                        ecn.cum[idx] = ctx.now().ticks() as f64 + 1.0;
                    }
                }
            }
            Ev::UserPacket { exp, class, idx } => {
                let (entry, exit) = self.user_hops;
                if self.rt.admits(class) {
                    let tag = self.metas.len() as u64;
                    self.metas.push(UserMeta {
                        exp,
                        class,
                        remaining_hops: (exit - entry) as u16,
                        acc_wait: 0,
                    });
                    self.arrive(entry, class, tag, ctx);
                }
                if idx + 1 < self.cfg.flow_len {
                    ctx.schedule_in(
                        self.user_gap,
                        Ev::UserPacket {
                            exp,
                            class,
                            idx: idx + 1,
                        },
                    );
                }
            }
            Ev::Propagated { link, class, tag } => {
                self.arrive(link as usize, class, tag, ctx);
            }
            Ev::TxDone { link } => {
                let link = link as usize;
                let pkt = self.links[link]
                    .in_flight
                    .take()
                    .expect("TxDone without in-flight packet");
                let start = self.links[link].tx_start;
                self.links[link].busy_ticks += ctx.now().since(start).ticks();
                self.link_departures[link] += 1;
                self.link_bytes[link] += pkt.size as u64;
                if P::ENABLED {
                    // End-of-life when the packet leaves the system: always
                    // for cross traffic (one hop, next node is its sink),
                    // at the exit hop for user packets — so a span closes
                    // exactly once however many hops it crossed.
                    let eol =
                        pkt.tag == CROSS_TAG || self.metas[pkt.tag as usize].remaining_hops == 1;
                    self.probe
                        .on_depart(packet_id(&pkt, link), pkt.arrival, start, ctx.now(), eol);
                }
                if pkt.tag != CROSS_TAG {
                    let meta = &mut self.metas[pkt.tag as usize];
                    meta.remaining_hops -= 1;
                    if meta.remaining_hops == 0 {
                        let (exp, class, wait) = (meta.exp, meta.class, meta.acc_wait);
                        self.records[exp as usize][class as usize].push(wait);
                    } else {
                        let (class, tag) = (pkt.class, pkt.tag);
                        let prop = self.cfg.propagation_ns;
                        if prop == 0 {
                            self.arrive(link + 1, class, tag, ctx);
                        } else {
                            ctx.schedule_in(
                                Dur::from_ticks(prop),
                                Ev::Propagated {
                                    link: (link + 1) as u16,
                                    class,
                                    tag,
                                },
                            );
                        }
                    }
                }
                // Cross traffic exits at the next node's sink: nothing to do.
                self.start_tx(link, ctx);
            }
            Ev::ScenarioTick => {
                self.apply_scenario(ctx);
                if let Some(at) = self.rt.next_at() {
                    ctx.schedule(at, Ev::ScenarioTick);
                }
            }
        }
    }

    #[inline]
    fn lane_peek(&mut self) -> Option<EventKey> {
        let (tx_done, cross) = self.lane_heads();
        let head = tx_done.min(cross);
        (head != NO_EVENT).then_some(head)
    }

    #[inline]
    fn lane_pop(&mut self) -> Ev {
        let (tx_done, cross) = self.lane_heads();
        if tx_done < cross {
            let (link, _) = self.tx_done.min();
            self.tx_done.replace_min(NO_EVENT);
            Ev::TxDone { link: link as u16 }
        } else {
            Ev::Emit(self.cross.pop())
        }
    }
}

/// Transmission time of `bytes` at `rate` bytes per tick.
fn tx_time(bytes: u32, rate: f64) -> Dur {
    Dur::from_ticks(tx_ticks(bytes, rate))
}

/// The tick of the first experiment, and the last instant at which cross
/// sources may emit: they keep the network loaded until well after the last
/// user packet enters.
fn timeline(cfg: &StudyBConfig) -> (u64, Time) {
    let warmup_ticks = (cfg.warmup_secs * TICKS_PER_SEC as f64).round() as u64;
    let last_exp_start = warmup_ticks + (cfg.experiments as u64 - 1) * TICKS_PER_SEC;
    let flow_ticks = cfg.flow_len as u64 * cfg.user_packet_gap_ticks();
    let cross_end = Time::from_ticks(last_exp_start + flow_ticks + 2 * TICKS_PER_SEC);
    (warmup_ticks, cross_end)
}

/// The open-loop cross traffic of `cfg`'s chain.
fn pareto_stream(cfg: &StudyBConfig, cross_end: Time) -> CrossStream {
    let gaps: Vec<f64> = (0..cfg.k_hops)
        .map(|l| cfg.cross_gap_ticks_for_link(l))
        .collect();
    CrossStream::new(
        cfg.seed,
        &gaps,
        cfg.cross_sources,
        &cfg.cross_class_fractions,
        cross_end.ticks(),
    )
}

/// Works out every Pareto `Cross` event of `cfg`'s chain, as a run does,
/// and returns how many there are: the generator alone, for the
/// `chain/cross_stream` bench.
#[doc(hidden)]
pub fn count_cross_events(cfg: &StudyBConfig) -> u64 {
    let mut stream = pareto_stream(cfg, timeline(cfg).1);
    let mut events = 0;
    while stream.peek().is_some() {
        stream.pop();
        events += 1;
    }
    events
}

/// Stationary (scenario-free) probed run.
///
/// Each *user* packet's events carry its end-to-end span id (its flow
/// bookkeeping index) across every hop, with `hop` identifying the link and
/// `seq`/times hop-local — so a multi-hop journey reconstructs as one
/// traceable span, closed (`eol`) exactly once at the exit hop. Cross
/// traffic gets single-hop spans with the top bit set. When the probe is
/// enabled the runner also emits an `on_heartbeat` every
/// 65 536 events (virtual time, events handled, events pending — in the
/// event queue or in the engine's lane).
pub fn run_study_b_probed<P: Probe>(
    cfg: &StudyBConfig,
    probe: &mut P,
) -> (Vec<ExperimentRecord>, Vec<LinkStats>) {
    run_study_b_scenario_probed(cfg, &Scenario::empty(), probe)
}

/// [`run_study_b_probed`] under a perturbation timeline: scenario events
/// (live SDP swaps, link-rate changes, link faults, class joins/leaves)
/// apply to the whole chain at their timestamps, and the probe hears an
/// `on_scenario_event` for each. With a non-empty scenario the
/// packets-delivered invariant is not asserted (faults may legitimately
/// drop or strand user packets).
///
/// # Panics
/// Panics if the scenario references a link `>= k_hops` or a class the SDP
/// does not define, if it contains a load surge (the chain engine's cross
/// traffic is rate-derived from the utilization target, not scalable
/// per-class), or if a scenario SDP's class count differs from the
/// configuration's.
pub fn run_study_b_scenario_probed<P: Probe>(
    cfg: &StudyBConfig,
    scenario: &Scenario,
    probe: &mut P,
) -> (Vec<ExperimentRecord>, Vec<LinkStats>) {
    let (records, link_stats, _) = run_chain(cfg, scenario, probe);
    (records, link_stats)
}

/// [`run_study_b_scenario_probed`]; also returns the deepest the event
/// queue got (the lane is not in it).
fn run_chain<P: Probe>(
    cfg: &StudyBConfig,
    scenario: &Scenario,
    probe: &mut P,
) -> (Vec<ExperimentRecord>, Vec<LinkStats>, usize) {
    cfg.validate().expect("invalid Study-B configuration");
    assert!(
        !scenario.has_load_surge(),
        "load_surge is not supported by the multi-hop engine"
    );
    let n_classes = cfg.num_classes();
    let rate = cfg.link_bytes_per_tick();
    let links: Vec<Link> = (0..cfg.k_hops)
        .map(|l| Link {
            scheduler: cfg.scheduler_for_link(l).build(&cfg.sdp, rate),
            tx: tx_time(cfg.packet_bytes, rate),
            in_flight: None,
            tx_start: Time::ZERO,
            busy_ticks: 0,
        })
        .collect();
    let (warmup_ticks, cross_end) = timeline(cfg);

    // C independent sources per node — the superposition of C heavy-tailed
    // sources is *not* equivalent to one source at C× rate, so each source
    // keeps its own clock. Gaps are per node so links can run at different
    // utilizations; sources start at staggered phases.
    let sources = cfg.k_hops * cfg.cross_sources;
    let (cross, ecn) = match cfg.cross_model {
        CrossModel::Pareto => (pareto_stream(cfg, cross_end), None),
        CrossModel::EcnAdaptive {
            mark_threshold_bytes,
            increase_bps,
            min_rate_fraction,
        } => {
            let fair = |node| cfg.cross_total_bps_for_link(node) / cfg.cross_sources as f64;
            let ecn = EcnSources {
                mark_threshold_bytes,
                increase_bps,
                floor_bps: (0..cfg.k_hops)
                    .map(|node| fair(node) * min_rate_fraction)
                    .collect(),
                rate: (0..sources).map(|i| fair(i / cfg.cross_sources)).collect(),
                cum: (0..sources).map(|i| first_cross_tick(i) as f64).collect(),
                rng: StdRng::seed_from_u64(cfg.seed),
            };
            // No open-loop source: an empty lane.
            let none = CrossStream::new(cfg.seed, &[], 0, &cfg.cross_class_fractions, 0);
            (none, Some(ecn))
        }
    };

    let net = Net {
        cfg: cfg.clone(),
        user_hops: cfg.user_hops(),
        user_gap: Dur::from_ticks(cfg.user_packet_gap_ticks()),
        cross,
        ecn,
        links,
        tx_done: TournamentTree::new(cfg.k_hops, NO_EVENT),
        metas: Vec::new(),
        probe,
        audit_buf: Vec::new(),
        records: vec![vec![Vec::new(); n_classes]; cfg.experiments as usize],
        cross_end,
        rt: ScenarioRuntime::new(scenario, cfg.k_hops, n_classes),
        cmd_buf: Vec::new(),
        seq: 0,
        link_departures: vec![0; cfg.k_hops],
        link_bytes: vec![0; cfg.k_hops],
        link_waits: vec![vec![(0.0, 0); n_classes]; cfg.k_hops],
    };

    let mut sim = Simulation::new(net);
    // Kick off every cross source, in source order: in the lane, under the
    // sequence number scheduling it here would have taken, or scheduled.
    for source in 0..sim.model().cross.sources() {
        let seq = sim.reserve_seq();
        sim.model_mut().cross.stamp(source as u16, seq);
    }
    if sim.model().ecn.is_some() {
        for source in 0..sources {
            let (node, src) = (source / cfg.cross_sources, source % cfg.cross_sources);
            sim.schedule(
                Time::from_ticks(first_cross_tick(source)),
                Ev::Cross {
                    node: node as u16,
                    src: src as u16,
                },
            );
        }
    }
    // Launch user experiments: one per second, one flow per class.
    for exp in 0..cfg.experiments {
        let t = Time::from_ticks(warmup_ticks + exp as u64 * TICKS_PER_SEC);
        for class in 0..n_classes as u8 {
            sim.schedule(t, Ev::UserPacket { exp, class, idx: 0 });
        }
    }
    // Arm the perturbation timeline (no-op for empty scenarios).
    if let Some(at) = sim.model_mut().rt.next_at() {
        sim.schedule(at, Ev::ScenarioTick);
    }
    if P::ENABLED {
        // Chunked run so the model's probe (mutably borrowed by the sim)
        // can hear a progress heartbeat between chunks.
        while sim.run_for_events(HEARTBEAT_EVERY) == RunOutcome::EventBudgetSpent {
            // Lane and queue together: the depth of an all-queue engine.
            let depth = sim.queue_depth() + sim.model().lane_depth();
            let (now, handled) = (sim.now(), sim.events_handled());
            sim.model_mut().probe.on_heartbeat(now, handled, depth);
        }
    } else {
        sim.run();
    }

    let (span, queued) = (sim.now().ticks(), sim.heap_high_water());
    let net = sim.into_model();
    let link_stats: Vec<LinkStats> = (0..cfg.k_hops)
        .map(|l| LinkStats {
            departures: net.link_departures[l],
            bytes: net.link_bytes[l],
            busy_ticks: net.links[l].busy_ticks,
            span_ticks: span,
            class_mean_wait: net.link_waits[l]
                .iter()
                .map(|&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 })
                .collect(),
        })
        .collect();
    let records = net
        .records
        .into_iter()
        .enumerate()
        .map(|(exp, per_class)| {
            // Faults may drop or strand packets; the lossless-delivery
            // invariant only holds for stationary runs.
            if scenario.is_empty() {
                for (c, waits) in per_class.iter().enumerate() {
                    assert_eq!(
                        waits.len(),
                        cfg.flow_len as usize,
                        "experiment {exp} class {c} delivered {} of {} packets",
                        waits.len(),
                        cfg.flow_len
                    );
                }
            }
            ExperimentRecord {
                experiment: exp as u32,
                per_class_waits: per_class,
            }
        })
        .collect();
    (records, link_stats, queued)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(k: usize, rho: f64) -> StudyBConfig {
        let mut c = StudyBConfig::paper(k, rho, 10, 200.0);
        c.experiments = 5;
        c.warmup_secs = 2.0;
        c.seed = 42;
        c
    }

    #[test]
    fn all_user_packets_are_delivered() {
        let cfg = tiny(2, 0.85);
        let recs = crate::Session::study_b(&cfg).run().0;
        assert_eq!(recs.len(), 5);
        for r in &recs {
            assert_eq!(r.per_class_waits.len(), 4);
            for waits in &r.per_class_waits {
                assert_eq!(waits.len(), 10);
            }
        }
    }

    #[test]
    fn higher_classes_see_lower_mean_e2e_delay() {
        let cfg = tiny(3, 0.9);
        let recs = crate::Session::study_b(&cfg).run().0;
        let mut mean = [0.0f64; 4];
        let mut n = 0.0;
        for r in &recs {
            for (c, m) in mean.iter_mut().enumerate() {
                *m += r.per_class_waits[c].iter().sum::<u64>() as f64
                    / r.per_class_waits[c].len() as f64;
            }
            n += 1.0;
        }
        mean.iter_mut().for_each(|m| *m /= n);
        for c in 0..3 {
            assert!(
                mean[c] > mean[c + 1],
                "class {c} mean {} <= class {} mean {}",
                mean[c],
                c + 1,
                mean[c + 1]
            );
        }
    }

    /// Collects departure events per span for span-linking assertions.
    #[derive(Default)]
    struct SpanLog {
        /// span → (hops seen, eol count, last finish ticks)
        departs: std::collections::HashMap<u64, (Vec<u16>, u32, u64)>,
        decisions: u64,
        heartbeats: u64,
    }

    impl Probe for SpanLog {
        fn on_decision(
            &mut self,
            _at: Time,
            _scheduler: &'static str,
            winner: PacketId,
            values: &[(usize, f64)],
        ) {
            // The audit record must cover the winning class.
            assert!(
                values.iter().any(|&(c, _)| c == winner.class as usize),
                "decision record misses the winner"
            );
            self.decisions += 1;
        }
        fn on_depart(&mut self, id: PacketId, _a: Time, start: Time, finish: Time, eol: bool) {
            assert!(start <= finish);
            let e = self.departs.entry(id.span).or_default();
            assert!(
                finish.ticks() >= e.2,
                "span {} went backwards across hops",
                id.span
            );
            e.0.push(id.hop);
            e.1 += u32::from(eol);
            e.2 = finish.ticks();
        }
        fn on_heartbeat(&mut self, _at: Time, _events: u64, _depth: usize) {
            self.heartbeats += 1;
        }
    }

    #[test]
    fn probed_run_links_user_spans_across_hops() {
        let cfg = tiny(3, 0.85);
        let mut log = SpanLog::default();
        let (recs, _) = run_study_b_probed(&cfg, &mut log);
        assert_eq!(recs.len(), 5);
        let n_user = 5 * 4 * 10; // experiments × classes × flow_len
        let user: Vec<_> = log
            .departs
            .iter()
            .filter(|(span, _)| **span & CROSS_SPAN_BIT == 0)
            .collect();
        assert_eq!(user.len(), n_user);
        for (span, (hops, eols, _)) in user {
            // Full-path flows cross every hop in order, closing once.
            assert_eq!(hops, &vec![0, 1, 2], "span {span} hop sequence {hops:?}");
            assert_eq!(*eols, 1, "span {span} closed {eols} times");
        }
        // Cross traffic: single hop, closed immediately.
        for (span, (hops, eols, _)) in &log.departs {
            if span & CROSS_SPAN_BIT != 0 {
                assert_eq!(hops.len(), 1);
                assert_eq!(*eols, 1);
            }
        }
        assert!(log.decisions > 0);
        assert!(log.heartbeats > 0, "long run must emit heartbeats");
    }

    #[test]
    fn probed_run_equals_unprobed_run() {
        let cfg = tiny(2, 0.9);
        let plain = crate::Session::study_b(&cfg).run().0;
        let mut counter = telemetry::CountingProbe::new(4);
        let (probed, _) = run_study_b_probed(&cfg, &mut counter);
        for (x, y) in plain.iter().zip(&probed) {
            assert_eq!(x.per_class_waits, y.per_class_waits);
        }
        let report = counter.report();
        // Conservation across the whole network: everything enqueued at any
        // hop eventually departed that hop (lossless links, drained run).
        for c in &report.classes {
            assert_eq!(c.arrivals, c.enqueues, "lossless links admit everything");
            assert_eq!(c.depth, 0, "packets left in flight");
            assert_eq!(c.drops, 0);
            assert!(c.departures > 0);
        }
        assert!(report.heap_high_water > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = tiny(2, 0.85);
        let a = crate::Session::study_b(&cfg).run().0;
        let b = crate::Session::study_b(&cfg).run().0;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.per_class_waits, y.per_class_waits);
        }
    }

    #[test]
    fn achieved_utilization_matches_target() {
        let mut cfg = tiny(3, 0.9);
        cfg.experiments = 8;
        let (_, links) = crate::Session::study_b(&cfg).run();
        assert_eq!(links.len(), 3);
        for (l, stats) in links.iter().enumerate() {
            let u = stats.utilization();
            // The run includes a drain tail after sources stop, so the
            // achieved utilization sits slightly below the target.
            assert!((u - 0.9).abs() < 0.12, "link {l}: achieved utilization {u}");
            assert!(stats.departures > 1000);
            assert_eq!(stats.bytes, stats.departures * 500);
        }
    }

    #[test]
    fn per_hop_class_waits_are_ordered() {
        let cfg = tiny(2, 0.95);
        let (_, links) = crate::Session::study_b(&cfg).run();
        for stats in &links {
            for w in stats.class_mean_wait.windows(2) {
                assert!(
                    w[0] > w[1],
                    "per-hop waits not ordered: {:?}",
                    stats.class_mean_wait
                );
            }
        }
    }

    #[test]
    fn partial_user_path_reduces_delay() {
        let mut full = tiny(4, 0.9);
        full.experiments = 6;
        let mut partial = full.clone();
        partial.user_path = Some((1, 3)); // 2 of the 4 hops
        let total = |recs: &[ExperimentRecord]| -> f64 {
            recs.iter()
                .flat_map(|r| r.per_class_waits.iter().flatten())
                .map(|&w| w as f64)
                .sum()
        };
        let t_full = total(&crate::Session::study_b(&full).run().0);
        let t_partial = total(&crate::Session::study_b(&partial).run().0);
        assert!(
            t_partial < 0.8 * t_full,
            "2-hop path total {t_partial} vs 4-hop {t_full}"
        );
    }

    #[test]
    fn fcfs_hop_dilutes_differentiation() {
        use sched::SchedulerKind;
        // All-WTP vs WTP with one FCFS hop: the mixed path still orders the
        // classes but with a smaller spread.
        let mut wtp = tiny(3, 0.95);
        wtp.experiments = 8;
        let mut mixed = wtp.clone();
        mixed.link_schedulers = Some(vec![
            SchedulerKind::Wtp,
            SchedulerKind::Fcfs,
            SchedulerKind::Wtp,
        ]);
        let spread = |recs: &[ExperimentRecord]| -> f64 {
            let mean = |c: usize| -> f64 {
                let (mut s, mut n) = (0.0, 0.0);
                for r in recs {
                    s += r.per_class_waits[c].iter().sum::<u64>() as f64;
                    n += r.per_class_waits[c].len() as f64;
                }
                s / n
            };
            mean(0) / mean(3)
        };
        let s_wtp = spread(&crate::Session::study_b(&wtp).run().0);
        let s_mixed = spread(&crate::Session::study_b(&mixed).run().0);
        assert!(s_wtp > s_mixed, "WTP spread {s_wtp} vs mixed {s_mixed}");
        assert!(
            s_mixed > 1.2,
            "mixed path lost all differentiation: {s_mixed}"
        );
    }

    #[test]
    fn pifo_wtp_is_wtp_through_the_mesh() {
        use sched::{RankKind, SchedulerKind};
        // `Pifo(RankKind::Wtp)` is WTP under its rank-core name, so
        // renaming every hop's scheduler must reproduce the exact same
        // multi-hop waits.
        let mut wtp = tiny(3, 0.95);
        wtp.experiments = 4;
        let mut pifo = wtp.clone();
        pifo.link_schedulers = Some(vec![SchedulerKind::Pifo(RankKind::Wtp); 3]);
        let waits = |recs: &[ExperimentRecord]| -> Vec<Vec<Vec<u64>>> {
            recs.iter().map(|r| r.per_class_waits.clone()).collect()
        };
        let w_wtp = waits(&crate::Session::study_b(&wtp).run().0);
        let w_pifo = waits(&crate::Session::study_b(&pifo).run().0);
        assert_eq!(
            w_wtp, w_pifo,
            "PIFO(WTP) diverged from WTP through the mesh"
        );
    }

    #[test]
    fn lstf_hop_schedules_through_the_mesh() {
        use sched::{RankKind, SchedulerKind};
        // Exercises LSTF through the full multi-hop engine and checks it
        // still delivers and orders the classes.
        let mut cfg = tiny(2, 0.95);
        cfg.experiments = 6;
        cfg.link_schedulers = Some(vec![SchedulerKind::Pifo(RankKind::Lstf); 2]);
        let recs = crate::Session::study_b(&cfg).run().0;
        assert_eq!(recs.len(), 6);
        let mut mean = [0.0f64; 4];
        for r in &recs {
            for (c, m) in mean.iter_mut().enumerate() {
                *m += r.per_class_waits[c].iter().sum::<u64>() as f64;
            }
        }
        // Smaller slack budgets for higher classes ⇒ lower waits.
        for c in 0..3 {
            assert!(mean[c] > mean[c + 1], "LSTF broke class ordering: {mean:?}");
        }
    }

    #[test]
    fn ecn_sources_self_regulate_queues() {
        use crate::config::CrossModel;
        // Open-loop Pareto at ρ=0.98 builds deep queues; the same target
        // with ECN-reacting sources keeps queues near the mark threshold.
        let mut cfg = tiny(2, 0.98);
        cfg.experiments = 6;
        cfg.cross_model = CrossModel::default_ecn();
        let (records, links) = crate::Session::study_b(&cfg).run();
        assert_eq!(records.len(), 6);
        // Utilization remains high (the sources probe upward)...
        for stats in &links {
            assert!(
                stats.utilization() > 0.5,
                "utilization {}",
                stats.utilization()
            );
        }
        // ...and per-hop waits stay modest: AIMD keeps queues around the
        // 64 kB mark point (~20 ms at 25 Mbps) instead of growing without
        // bound over the run.
        for stats in &links {
            for &w in &stats.class_mean_wait {
                assert!(
                    w < 60.0e6,
                    "per-hop mean wait {w} ns too large for ECN regime"
                );
            }
        }
    }

    #[test]
    fn ecn_network_still_differentiates() {
        use crate::config::CrossModel;
        let mut cfg = tiny(2, 0.95);
        cfg.cross_model = CrossModel::default_ecn();
        let recs = crate::Session::study_b(&cfg).run().0;
        let mut mean = [0.0f64; 4];
        for r in &recs {
            for (c, m) in mean.iter_mut().enumerate() {
                *m += r.per_class_waits[c].iter().sum::<u64>() as f64;
            }
        }
        for c in 0..3 {
            assert!(mean[c] > mean[c + 1], "ECN regime broke class ordering");
        }
    }

    #[test]
    fn bottleneck_link_dominates_end_to_end_delay() {
        let mut cfg = tiny(3, 0.9);
        cfg.utilization_per_link = Some(vec![0.4, 0.95, 0.4]);
        let (recs, links) = crate::Session::study_b(&cfg).run();
        assert!(!recs.is_empty());
        // The hot middle link carries most of the queueing.
        let w = |l: usize| links[l].class_mean_wait[0];
        assert!(w(1) > 5.0 * w(0), "bottleneck {} vs edge {}", w(1), w(0));
        assert!(w(1) > 5.0 * w(2));
        // Achieved utilizations track the per-link targets.
        assert!((links[0].utilization() - 0.4).abs() < 0.1);
        assert!((links[1].utilization() - 0.95).abs() < 0.1);
    }

    #[test]
    fn propagation_delay_leaves_queueing_metric_comparable() {
        // Queueing delays exclude propagation; adding 1 ms per hop shifts
        // when packets arrive downstream but the queueing-delay spread
        // between classes survives intact.
        let base = tiny(3, 0.9);
        let mut prop = base.clone();
        prop.propagation_ns = 1_000_000;
        let mean_of = |recs: &[ExperimentRecord], c: usize| -> f64 {
            let (mut s, mut n) = (0.0, 0.0);
            for r in recs {
                s += r.per_class_waits[c].iter().sum::<u64>() as f64;
                n += r.per_class_waits[c].len() as f64;
            }
            s / n
        };
        let a = crate::Session::study_b(&base).run().0;
        let b = crate::Session::study_b(&prop).run().0;
        let spread_a = mean_of(&a, 0) / mean_of(&a, 3);
        let spread_b = mean_of(&b, 0) / mean_of(&b, 3);
        assert!(spread_a > 1.5 && spread_b > 1.5);
        assert!(
            (spread_a - spread_b).abs() / spread_a < 0.5,
            "spreads diverged: {spread_a} vs {spread_b}"
        );
    }

    #[test]
    fn scenario_sdp_step_flattens_differentiation() {
        use scenario::Scenario;
        use sched::Sdp;
        // Stepping the SDP to all-equal mid-run must pull the class means
        // closer together than the stationary paper SDP keeps them.
        let mut cfg = tiny(2, 0.9);
        cfg.experiments = 6;
        let spread = |recs: &[ExperimentRecord]| -> f64 {
            let mean = |c: usize| -> f64 {
                let (mut s, mut n) = (0.0, 0.0);
                for r in recs {
                    s += r.per_class_waits[c].iter().sum::<u64>() as f64;
                    n += r.per_class_waits[c].len() as f64;
                }
                s / (n.max(1.0))
            };
            mean(0) / mean(3).max(1.0)
        };
        let stationary = crate::Session::study_b(&cfg).run().0;
        let sc = Scenario::builder()
            .set_sdp(Time::ZERO, Sdp::new(&[1.0, 1.0, 1.0, 1.0]).unwrap())
            .build()
            .unwrap();
        let stepped = crate::Session::study_b(&cfg).scenario(sc).run().0;
        assert!(
            spread(&stationary) > 1.5 * spread(&stepped),
            "stationary spread {} vs flattened {}",
            spread(&stationary),
            spread(&stepped)
        );
    }

    #[test]
    fn scenario_link_flap_hold_delivers_everything() {
        use scenario::{DownPolicy, Scenario};
        // Holding packets across a mid-run outage delays but never loses
        // them: every user packet is still delivered.
        let cfg = tiny(2, 0.85);
        let down = Time::from_ticks(3 * TICKS_PER_SEC);
        let up = Time::from_ticks(3 * TICKS_PER_SEC + TICKS_PER_SEC / 2);
        let sc = Scenario::builder()
            .link_down(down, 1, DownPolicy::Hold)
            .link_up(up, 1)
            .build()
            .unwrap();
        let recs = crate::Session::study_b(&cfg).scenario(sc).run().0;
        let delivered: usize = recs
            .iter()
            .flat_map(|r| r.per_class_waits.iter())
            .map(|w| w.len())
            .sum();
        assert_eq!(delivered, 5 * 4 * 10, "Hold outage lost packets");
    }

    #[test]
    fn scenario_link_flap_drop_loses_packets_and_is_probed() {
        use scenario::{DownPolicy, Scenario};
        let cfg = tiny(2, 0.85);
        let down = Time::from_ticks(3 * TICKS_PER_SEC);
        let up = Time::from_ticks(5 * TICKS_PER_SEC);
        let sc = Scenario::builder()
            .link_down(down, 1, DownPolicy::Drop)
            .link_up(up, 1)
            .build()
            .unwrap();
        let mut counter = telemetry::CountingProbe::new(4);
        let (recs, _) = run_study_b_scenario_probed(&cfg, &sc, &mut counter);
        let delivered: usize = recs
            .iter()
            .flat_map(|r| r.per_class_waits.iter())
            .map(|w| w.len())
            .sum();
        assert!(
            delivered < 5 * 4 * 10,
            "a 2 s Drop outage across the experiment window must lose packets"
        );
        let report = counter.report();
        let drops: u64 = report.classes.iter().map(|c| c.drops).sum();
        assert!(drops > 0, "fault drops must be probed");
        assert_eq!(report.scenario_events, 2, "both flap edges recorded");
    }

    #[test]
    fn scenario_link_rate_change_shifts_utilization() {
        use scenario::Scenario;
        // Halving link 0's rate at t=0 doubles its busy time per byte.
        let cfg = tiny(1, 0.7);
        let rate = cfg.link_bytes_per_tick();
        let sc = Scenario::builder()
            .set_link_rate(Time::ZERO, 0, rate / 2.0)
            .build()
            .unwrap();
        let (_, base) = crate::Session::study_b(&cfg).run();
        let (_, slowed) = crate::Session::study_b(&cfg).scenario(sc).run();
        let per_byte = |l: &LinkStats| l.busy_ticks as f64 / l.bytes as f64;
        assert!(
            (per_byte(&slowed[0]) / per_byte(&base[0]) - 2.0).abs() < 0.05,
            "slowed {} vs base {}",
            per_byte(&slowed[0]),
            per_byte(&base[0])
        );
    }

    #[test]
    fn empty_scenario_run_is_identical_to_stationary() {
        use scenario::Scenario;
        let cfg = tiny(2, 0.9);
        let plain = crate::Session::study_b(&cfg).run().0;
        let via_scenario = crate::Session::study_b(&cfg)
            .scenario(Scenario::empty())
            .run()
            .0;
        for (x, y) in plain.iter().zip(&via_scenario) {
            assert_eq!(x.per_class_waits, y.per_class_waits);
        }
    }

    #[test]
    #[should_panic(expected = "load_surge is not supported")]
    fn load_surge_is_rejected_by_the_chain_engine() {
        use scenario::Scenario;
        let cfg = tiny(1, 0.8);
        let sc = Scenario::builder()
            .load_surge(Time::from_ticks(1), 0, 0.5)
            .build()
            .unwrap();
        let _ = crate::Session::study_b(&cfg).scenario(sc).run();
    }

    /// FNV-1a over a whole run: per experiment and class the packet count
    /// and the waits in delivery order, then every [`LinkStats`] field,
    /// `f64`s by their bits.
    fn run_digest((recs, links): &(Vec<ExperimentRecord>, Vec<LinkStats>)) -> u64 {
        let mut words: Vec<u64> = Vec::new();
        for waits in recs.iter().flat_map(|r| &r.per_class_waits) {
            words.push(waits.len() as u64);
            words.extend(waits);
        }
        for l in links {
            words.extend([l.departures, l.bytes, l.busy_ticks, l.span_ticks]);
            words.extend(l.class_mean_wait.iter().map(|w| w.to_bits()));
        }
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, word| {
            (word.to_le_bytes().iter()).fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        })
    }

    fn assert_pinned(what: &str, run: &(Vec<ExperimentRecord>, Vec<LinkStats>), pinned: u64) {
        let digest = run_digest(run);
        assert_eq!(digest, pinned, "{what}: digest {digest:#018x}");
    }

    /// A Table-1 cell as `experiments::table1` runs it at `Scale::Bench`.
    fn bench_cell(k: usize, rho: f64, flow_len: u32, rate: f64) -> StudyBConfig {
        let mut c = StudyBConfig::paper(k, rho, flow_len, rate);
        c.experiments = 6;
        c.warmup_secs = 4.0;
        c.seed = 1 + k as u64 * 1000 + (rho * 100.0) as u64;
        c
    }

    // The digests below were captured at the commit *before* the chain's
    // Pareto cross traffic and its `TxDone`s left the event queue — every
    // event in `simcore::EventQueue`, one scalar gap per `Cross` — and are
    // identical in debug and release.

    #[test]
    fn bench_scale_table1_cells_are_pinned() {
        for (k, rho, flow_len, rate, pinned) in [
            (8, 0.95, 100, 50.0, 0x53aa_ead0_d4b9_1cbau64),
            (8, 0.85, 10, 200.0, 0x2be2_de19_f0b4_974f),
            (4, 0.95, 100, 200.0, 0xe790_5963_898e_8009),
            (4, 0.85, 10, 50.0, 0x3c20_e644_471e_5b2b),
        ] {
            let run = crate::Session::study_b(&bench_cell(k, rho, flow_len, rate)).run();
            assert_pinned(
                &format!("K={k} rho={rho} F={flow_len} R={rate}"),
                &run,
                pinned,
            );
        }
    }

    #[test]
    fn chain_variants_are_pinned() {
        use sched::SchedulerKind::{Fcfs, Wtp};
        let mut per_link = tiny(3, 0.9);
        per_link.utilization_per_link = Some(vec![0.4, 0.95, 0.4]);
        let mut partial = tiny(4, 0.9);
        partial.user_path = Some((1, 3));
        let mut propagating = tiny(3, 0.9);
        propagating.propagation_ns = 1_000_000;
        let mut mixed = tiny(3, 0.95);
        mixed.link_schedulers = Some(vec![Wtp, Fcfs, Wtp]);
        let mut ecn = tiny(2, 0.95);
        ecn.cross_model = CrossModel::default_ecn();
        for (what, cfg, pinned) in [
            ("per-link utilization", per_link, 0xb481_8077_2b68_30c8u64),
            ("user path (1, 3) of 4", partial, 0x21cc_0629_fc26_1e87),
            ("1 ms propagation", propagating, 0x983e_ae2e_0edf_5ac0),
            ("WTP/FCFS/WTP", mixed, 0x2188_9ec8_b586_8a97),
            ("ECN-adaptive cross traffic", ecn, 0x5875_a174_0163_0cc9),
        ] {
            assert_pinned(what, &crate::Session::study_b(&cfg).run(), pinned);
        }
    }

    #[test]
    fn chain_scenarios_are_pinned() {
        use scenario::{DownPolicy, Scenario};
        let secs = |s: f64| Time::from_ticks((s * TICKS_PER_SEC as f64) as u64);
        let cfg = tiny(2, 0.85);
        let sdp_step = Scenario::builder()
            .set_sdp(secs(3.0), sched::Sdp::new(&[1.0, 1.0, 1.0, 1.0]).unwrap())
            .build();
        let hold = Scenario::builder()
            .link_down(secs(3.0), 1, DownPolicy::Hold)
            .link_up(secs(3.5), 1)
            .build();
        let drop = Scenario::builder()
            .link_down(secs(3.0), 1, DownPolicy::Drop)
            .link_up(secs(5.0), 1)
            .build();
        let rate = Scenario::builder()
            .set_link_rate(secs(2.5), 0, cfg.link_bytes_per_tick() / 2.0)
            .set_link_rate(secs(3.0), 0, cfg.link_bytes_per_tick())
            .build();
        let leave_join = Scenario::builder()
            .class_leave(secs(2.5), 1)
            .class_join(secs(4.5), 1)
            .build();
        for (what, sc, pinned) in [
            ("SDP step", sdp_step, 0xf2df_efd9_6e5b_7272u64),
            ("Hold flap", hold, 0x6efa_23a6_af8c_51d6),
            ("Drop flap", drop, 0x7a77_c5b7_cd2b_709c),
            ("link-rate change", rate, 0xdd63_35ba_05b5_ebf5),
            ("class leave/join", leave_join, 0x113c_cf4e_f89b_4528),
        ] {
            let run = crate::Session::study_b(&cfg).scenario(sc.unwrap()).run();
            assert_pinned(what, &run, pinned);
        }
    }

    /// A chain built for same-tick events, as far as its one-experiment-a-
    /// second timeline allows (cross traffic runs for two seconds past the
    /// last flow, so events cannot be a few ticks apart throughout): one
    /// byte takes 2 620 = 20 × 131 ticks, the first experiment starts on
    /// tick 1 and its flows send every 131 ticks. So user packet `j`
    /// shares its tick with the first emission of cross source `j` (tick
    /// `1 + 131 j`), every twentieth with a `TxDone` of the busy period
    /// that began on tick 1; and two million cross packets in three
    /// seconds meet each other and the `TxDone`s by chance.
    fn tie_heavy_chain() -> StudyBConfig {
        let mut c = StudyBConfig::paper(2, 0.9, 200, 8.0 / 131e-9 / 1000.0);
        c.packet_bytes = 1;
        c.link_bps = 8e9 / 2_620.0;
        c.experiments = 2;
        c.warmup_secs = 1e-9;
        c.seed = 20;
        c
    }

    /// Ticks of the events of a tie-heavy run: cross emissions, user
    /// packets entering the chain, `TxDone`s.
    #[derive(Default)]
    struct TieLog {
        cross: Vec<u64>,
        user: Vec<u64>,
        tx_dones: Vec<u64>,
    }

    impl Probe for TieLog {
        const WANTS_DECISION_VALUES: bool = false;
        fn on_arrival(&mut self, at: Time, id: PacketId) {
            if id.span & CROSS_SPAN_BIT != 0 {
                self.cross.push(at.ticks());
            } else if id.hop == 0 {
                self.user.push(at.ticks());
            }
        }
        fn on_depart(&mut self, _id: PacketId, _arrival: Time, _start: Time, end: Time, _: bool) {
            self.tx_dones.push(end.ticks());
        }
    }

    #[test]
    fn tie_heavy_chain_is_pinned() {
        use std::collections::HashSet;
        let cfg = tie_heavy_chain();
        assert_eq!(cfg.user_packet_gap_ticks(), 131);
        let mut log = TieLog::default();
        let run = run_study_b_probed(&cfg, &mut log);
        // Same-tick pairs, counted by tick.
        let cross: HashSet<u64> = log.cross.iter().copied().collect();
        let tx_dones: HashSet<u64> = log.tx_dones.iter().copied().collect();
        let cross_cross = log.cross.len() - cross.len();
        let cross_tx_done = log.tx_dones.iter().filter(|t| cross.contains(t)).count();
        let cross_user = log.user.iter().filter(|t| cross.contains(t)).count();
        let tx_done_user = log.user.iter().filter(|t| tx_dones.contains(t)).count();
        assert!(cross_cross > 300, "{cross_cross} Cross/Cross ties");
        assert!(cross_tx_done > 300, "{cross_tx_done} Cross/TxDone ties");
        assert!(cross_user >= 64, "{cross_user} Cross/UserPacket ties");
        assert!(tx_done_user >= 36, "{tx_done_user} TxDone/UserPacket ties");
        assert_pinned("tie-heavy chain", &run, 0x28e2_9523_964a_1b17);
    }

    #[test]
    fn no_pareto_cross_and_no_tx_done_enters_the_event_queue() {
        // What the queue holds at its deepest: the first `UserPacket` of
        // every flow, scheduled up front (later ones replace them one for
        // one), and the `ScenarioTick` — however many cross sources and
        // links there are. Were `Cross`es or `TxDone`s queued, the deepest
        // would grow by 16, then 64, and by up to one per link.
        let sc = scenario::Scenario::builder()
            .set_link_rate(Time::from_ticks(7), 0, 0.004)
            .build()
            .unwrap();
        for (k, sources) in [(2, 8), (8, 8)] {
            let mut cfg = tiny(k, 0.9);
            cfg.cross_sources = sources;
            let user_flows = (cfg.experiments as usize) * cfg.num_classes();
            let (_, links, queued) = run_chain(&cfg, &sc, &mut telemetry::NoopProbe);
            assert!(links.iter().all(|l| l.departures > 1_000));
            assert!(queued <= user_flows + 3, "{queued} events queued at once");
        }
        // ECN-adaptive sources are closed-loop and stay scheduled.
        let mut ecn = tiny(2, 0.9);
        ecn.cross_model = CrossModel::default_ecn();
        let (_, _, queued) = run_chain(&ecn, &sc, &mut telemetry::NoopProbe);
        assert!(queued >= 16, "{queued} events queued at once");
    }

    #[test]
    fn delays_scale_with_utilization() {
        let lo = crate::Session::study_b(&tiny(2, 0.7)).run().0;
        let hi = crate::Session::study_b(&tiny(2, 0.95)).run().0;
        let total = |recs: &[ExperimentRecord]| -> f64 {
            recs.iter()
                .flat_map(|r| r.per_class_waits.iter().flatten())
                .map(|&w| w as f64)
                .sum()
        };
        assert!(total(&hi) > 2.0 * total(&lo));
    }
}
