//! General-topology simulation: flows routed over arbitrary link sets —
//! the one coupled event loop of this crate.
//!
//! Study B's Figure-6 chain answers the paper's question for one path
//! shape; here *crossing* paths can be simulated — e.g. two user
//! populations whose routes share a bottleneck link — and the §6 question
//! ("consistent end-to-end differentiation, independent of the network
//! path") can be probed on meshes. The chain itself runs here too:
//! [`Session::study_b`](crate::Session::study_b) lowers it to links, user
//! flows and its own cross sources.
//!
//! The model stays deliberately simple: unidirectional links described by
//! the shared [`LinkSpec`]; flows carry an explicit route (a sequence of
//! link indices); propagation delay shifts arrivals between hops but is
//! excluded from the queueing-wait metric; waits accumulate per hop.
//!
//! Background load is expressed either as explicit Pareto [`MeshFlow`]s or
//! as a [`CrossTraffic`](crate::CrossTraffic) model on a [`LinkSpec`] —
//! the latter must be expanded into flows via
//! [`MeshConfig::materialize_cross`] before the engine will accept the
//! config. (A lowered chain's per-packet-class cross sources are not a
//! mode of [`MeshConfig`]: the lowering hands them to the engine itself.)

use std::borrow::Cow;

use qsim::tx_ticks;
use scenario::{Command, DownPolicy, Scenario, ScenarioRuntime};
use sched::{Packet, ReconfigureError, Scheduler, Sdp};
use simcore::{Context, Dur, EventKey, Model, RunOutcome, Simulation, Time};
use telemetry::{PacketId, Probe};

use crate::config::CrossModel;
use crate::emission::{first_cross_tick, CrossSources, EmissionLane, LaneFlow};
use crate::link::LinkSpec;

/// How a flow emits packets.
#[derive(Debug, Clone, Copy)]
pub enum FlowModel {
    /// `count` packets spaced `gap_ticks` apart (a Study-B user flow).
    Periodic {
        /// Inter-packet gap, ticks.
        gap_ticks: u64,
        /// Number of packets.
        count: u32,
    },
    /// Pareto(α = 1.9) arrivals with the given mean gap until the horizon
    /// (background/cross traffic).
    Pareto {
        /// Mean inter-packet gap, ticks.
        mean_gap_ticks: f64,
        /// Last instant at which the flow may emit.
        until_ticks: u64,
    },
}

/// One flow: a class, a route, and an emission model.
#[derive(Debug, Clone)]
pub struct MeshFlow {
    /// Ordered link indices the flow traverses.
    pub route: Vec<usize>,
    /// Service class.
    pub class: u8,
    /// Packet size in bytes.
    pub packet_bytes: u32,
    /// Emission model.
    pub model: FlowModel,
    /// Start of the first packet, ticks.
    pub start_ticks: u64,
}

/// A mesh scenario.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Scheduler Differentiation Parameters shared by all links.
    pub sdp: Sdp,
    /// The links, described by the shared [`LinkSpec`].
    pub links: Vec<LinkSpec>,
    /// The flows.
    pub flows: Vec<MeshFlow>,
    /// RNG seed for the Pareto flows.
    pub seed: u64,
}

/// The engines' events and probe ids carry link ids as `u16`.
const MAX_LINKS: usize = u16::MAX as usize + 1;

impl MeshConfig {
    /// A validating builder: add links and flows, then
    /// [`build`](MeshConfigBuilder::build) returns `Err` for rejected
    /// topologies instead of deferring to a panic inside the engine.
    pub fn builder(sdp: Sdp) -> MeshConfigBuilder {
        MeshConfigBuilder {
            cfg: MeshConfig {
                sdp,
                links: Vec::new(),
                flows: Vec::new(),
                seed: 0,
            },
        }
    }

    /// Validates routes, classes, and link parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.links.is_empty() {
            return Err("mesh needs at least one link".into());
        }
        if self.links.len() > MAX_LINKS {
            return Err(format!(
                "mesh has {} links; link ids are 16-bit, so at most {MAX_LINKS} are supported",
                self.links.len()
            ));
        }
        for (l, spec) in self.links.iter().enumerate() {
            spec.validate(self.sdp.num_classes())
                .map_err(|e| format!("link {l}: {e}"))?;
            if spec.cross.is_some() {
                return Err(format!(
                    "link {l} has an unmaterialized cross-traffic model; \
                     call MeshConfig::materialize_cross(horizon) first"
                ));
            }
        }
        let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        // `seen[l] == i + 1` marks link l as visited by flow i: one buffer
        // for the whole pass, never reset.
        let mut seen = vec![0usize; self.links.len()];
        for (i, f) in self.flows.iter().enumerate() {
            if f.route.is_empty() {
                return Err(format!("flow {i} has an empty route"));
            }
            if f.route.iter().any(|&l| l >= self.links.len()) {
                return Err(format!("flow {i} routes over an unknown link"));
            }
            // A route that revisits a link would let a packet race itself
            // through the same queue; the engine's per-packet hop counter
            // assumes loop-free routes.
            for &l in &f.route {
                if seen[l] == i + 1 {
                    return Err(format!("flow {i} visits link {l} twice"));
                }
                seen[l] = i + 1;
            }
            if f.class as usize >= self.sdp.num_classes() {
                return Err(format!("flow {i} uses class {} without an SDP", f.class));
            }
            if f.packet_bytes == 0 {
                return Err(format!("flow {i} has zero-byte packets"));
            }
            match f.model {
                FlowModel::Periodic { count: 0, .. } => {
                    return Err(format!("flow {i} emits no packets"));
                }
                FlowModel::Pareto { mean_gap_ticks, .. } if !positive(mean_gap_ticks) => {
                    return Err(format!("flow {i} has a nonpositive mean gap"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Expands every link's [`CrossTraffic`](crate::CrossTraffic) model
    /// into explicit single-hop Pareto [`MeshFlow`]s emitting from tick 1
    /// until `until_ticks`, and clears the models. The engine only accepts
    /// configs without unmaterialized cross models, so this is the bridge
    /// from the declarative [`LinkSpec`] surface to the event loop.
    ///
    /// Expansion is deterministic: links in index order, classes in
    /// ascending order, then one flow per source, appended after the
    /// existing flows. Classes with a zero share produce no flows.
    ///
    /// Rejects `EcnAdaptive` cross models (closed-loop sources cannot be
    /// expressed as open-loop flows) and invalid cross parameters.
    pub fn materialize_cross(&self, until_ticks: u64) -> Result<MeshConfig, String> {
        self.clone().into_materialized(until_ticks)
    }

    /// [`materialize_cross`](Self::materialize_cross) on a config the
    /// caller gives up, so that no flow is copied.
    pub(crate) fn into_materialized(mut self, until_ticks: u64) -> Result<MeshConfig, String> {
        let num_classes = self.sdp.num_classes();
        for (l, spec) in self.links.iter_mut().enumerate() {
            let Some(cross) = spec.cross.take() else {
                continue;
            };
            cross
                .validate(num_classes)
                .map_err(|e| format!("link {l}: {e}"))?;
            if !matches!(cross.model, CrossModel::Pareto) {
                return Err(format!(
                    "link {l}: only Pareto cross traffic can be materialized \
                     into mesh flows"
                ));
            }
            for (c, &frac) in cross.class_fractions.iter().enumerate() {
                if frac <= 0.0 {
                    continue;
                }
                let per_source_bps = cross.utilization * spec.bps * frac / cross.sources as f64;
                let mean_gap_ticks =
                    cross.packet_bytes as f64 * 8.0 / per_source_bps * crate::TICKS_PER_SEC as f64;
                for _ in 0..cross.sources {
                    self.flows.push(MeshFlow {
                        route: vec![l],
                        class: c as u8,
                        packet_bytes: cross.packet_bytes,
                        model: FlowModel::Pareto {
                            mean_gap_ticks,
                            until_ticks,
                        },
                        start_ticks: 1,
                    });
                }
            }
        }
        self.validate()?;
        Ok(self)
    }
}

/// Builder for [`MeshConfig`] whose [`build`](Self::build) validates the
/// whole topology. Created by [`MeshConfig::builder`].
#[derive(Debug, Clone)]
pub struct MeshConfigBuilder {
    cfg: MeshConfig,
}

impl MeshConfigBuilder {
    /// Adds a unidirectional link (index = insertion order).
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.cfg.links.push(link);
        self
    }

    /// Adds a flow routed over previously added links.
    pub fn flow(mut self, flow: MeshFlow) -> Self {
        self.cfg.flows.push(flow);
        self
    }

    /// RNG seed for the Pareto flows (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<MeshConfig, String> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Per-flow outcome: one end-to-end queueing wait (ticks) per delivered
/// packet, in delivery order.
#[derive(Debug, Clone)]
pub struct MeshOutcome {
    /// `per_flow_waits[f]` = end-to-end waits of flow f's packets.
    pub per_flow_waits: Vec<Vec<u64>>,
    /// Packets transmitted per link.
    pub link_departures: Vec<u64>,
}

impl MeshOutcome {
    /// Mean end-to-end wait of flow `f` (0 if it delivered nothing).
    pub fn mean_wait(&self, f: usize) -> f64 {
        let w = &self.per_flow_waits[f];
        if w.is_empty() {
            0.0
        } else {
            w.iter().sum::<u64>() as f64 / w.len() as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Flow `flow` emits packet `idx`. Scheduled for `Periodic` flows
    /// only: a Pareto flow's come out of the [`EmissionLane`] (`idx` 0).
    Emit { flow: u32, idx: u32 },
    /// The head of the cross stream is due. It stays in the stream for the
    /// handler — the runner's next call — to pop: the event carries nothing.
    Cross,
    /// Closed-loop cross source `source` emits a packet. Scheduled: its
    /// next instant is decided here.
    EcnCross { source: u16 },
    /// Link finished its in-flight packet.
    TxDone { link: u16 },
    /// The packet in `slot` finished propagating and arrives at its next
    /// hop. Only scheduled for links with a nonzero propagation delay —
    /// with zero propagation the engine hands the packet to the next hop
    /// synchronously, so existing zero-propagation results are unchanged.
    Arrive { slot: u32 },
    /// The next scenario event is due.
    ScenarioTick,
}

/// A [`MeshFlow`] lowered for the event loop: no allocation of its own.
#[derive(Clone, Copy)]
struct HotFlow {
    /// What each of the flow's packets starts out as.
    first: PacketMeta,
    model: FlowModel,
    /// A Pareto flow's clock in `Mesh::lane`.
    clock: u32,
}

/// High bit of a cross packet's id, so a probe can tell the single-hop
/// spans of cross traffic from a flow's.
pub(crate) const CROSS_SPAN_BIT: u64 = 1 << 63;

/// [`PacketMeta::flow`] of a cross packet: delivered to no flow, it is not
/// logged and retains no wait. (No flow has this index: routes are
/// counted in a `u32` and every flow has one.)
const CROSS_FLOW: u32 = u32::MAX;

/// Events handled between heartbeats when a probe is attached.
const HEARTBEAT_EVERY: u64 = 65_536;

/// A packet in flight. Its slot index, reused after delivery or drop, is
/// `Packet::tag`.
#[derive(Clone, Copy)]
struct PacketMeta {
    /// Monotone packet id (emission order), under [`CROSS_SPAN_BIT`] for a
    /// cross packet: `Packet::seq`, the probe span.
    id: u64,
    acc_wait: u64,
    flow: u32,
    class: u8,
    bytes: u32,
    /// Index into `Mesh::routes` of the link being queued at or crossed.
    at: u32,
    /// One past the route's last index.
    end: u32,
}

/// Every delivery of a run in the order it happened: one sequential
/// 8-byte store per packet, where a `Vec` per flow costs a cold header and,
/// for a flow's first packet, an allocation. A wait that does not fit 32
/// bits goes to a side list, so any `u64` comes back exact.
#[derive(Default)]
struct DeliveryLog {
    /// `flow << 32 | wait`; a wait of `u32::MAX` says "the next of `long`".
    entries: Vec<u64>,
    /// The waits of `u32::MAX` ticks and more, in log order.
    long: Vec<u64>,
}

impl DeliveryLog {
    #[inline]
    fn push(&mut self, flow: u32, wait: u64) {
        let short = u32::try_from(wait).unwrap_or(u32::MAX);
        if short == u32::MAX {
            self.long.push(wait);
        }
        self.entries.push(u64::from(flow) << 32 | u64::from(short));
    }

    /// Each of `flows` flows' waits, in delivery order.
    fn into_per_flow(self, flows: usize) -> Vec<Vec<u64>> {
        let mut counts = vec![0usize; flows];
        for &e in &self.entries {
            counts[(e >> 32) as usize] += 1;
        }
        let mut per_flow: Vec<Vec<u64>> = counts.into_iter().map(Vec::with_capacity).collect();
        let mut longs = 0;
        for e in self.entries {
            let wait = match e as u32 {
                u32::MAX => {
                    longs += 1;
                    self.long[longs - 1]
                }
                short => u64::from(short),
            };
            per_flow[(e >> 32) as usize].push(wait);
        }
        per_flow
    }
}

struct LinkState {
    scheduler: Box<dyn Scheduler>,
    rate: f64,
    propagation: u64,
    in_flight: Option<Packet>,
    /// Start of the in-flight transmission (valid while `in_flight` is
    /// `Some`): what a probe hears as the departure's start.
    tx_start: Time,
    departures: u64,
}

struct Mesh<'p, P: Probe> {
    flows: Vec<HotFlow>,
    /// Every flow's route, back to back (`validate` bounds link ids to `u16`).
    routes: Vec<u16>,
    links: Vec<LinkState>,
    /// One record per packet in flight; `free`: delivered or dropped slots.
    metas: Vec<PacketMeta>,
    free: Vec<u32>,
    emitted: u64,
    delivered: DeliveryLog,
    /// The Pareto flows' emissions, clocks by `HotFlow::clock`.
    lane: EmissionLane,
    /// A lowered chain's hop-local cross traffic; the stream is the lane's
    /// second head.
    cross: CrossSources,
    /// Where `routes` lists every link once, for cross packets: one at
    /// node `n` is at `cross_routes + n`, on the last hop of its route.
    cross_routes: u32,
    probe: &'p mut P,
    rt: ScenarioRuntime,
    cmd_buf: Vec<Command>,
    audit_buf: Vec<(usize, f64)>,
}

/// Probe identity of mesh packet `pkt` at hop `link`: the packet id is
/// the end-to-end span (one journey = one trace track).
fn packet_id(pkt: &Packet, link: usize) -> PacketId {
    PacketId {
        span: pkt.seq,
        seq: pkt.seq,
        class: pkt.class,
        size: pkt.size,
        hop: link as u16,
    }
}

impl<P: Probe> Mesh<'_, P> {
    /// A packet starting out as `first` (its id 0, or [`CROSS_SPAN_BIT`])
    /// is emitted: it takes the next id and a slot, and arrives at its
    /// first link.
    fn emit(&mut self, first: PacketMeta, ctx: &mut Context<Ev>) {
        let meta = PacketMeta {
            id: first.id | self.emitted,
            ..first
        };
        self.emitted += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.metas.push(meta);
            self.metas.len() as u32 - 1
        });
        self.metas[slot as usize] = meta;
        self.arrive(slot, ctx);
    }

    /// A cross source at `node` emits a packet of `class`, if the class is
    /// admitted.
    fn emit_cross(&mut self, node: u16, class: u8, ctx: &mut Context<Ev>) {
        if !self.rt.admits(class) {
            return;
        }
        let at = self.cross_routes + u32::from(node);
        let first = PacketMeta {
            id: CROSS_SPAN_BIT,
            acc_wait: 0,
            flow: CROSS_FLOW,
            class,
            bytes: self.cross.packet_bytes,
            at,
            end: at + 1,
        };
        self.emit(first, ctx);
    }

    /// The packet in `slot` reaches the link its route cursor is at.
    fn arrive(&mut self, slot: u32, ctx: &mut Context<Ev>) {
        let meta = &self.metas[slot as usize];
        let link = self.routes[meta.at as usize] as usize;
        let pkt = Packet {
            seq: meta.id,
            class: meta.class,
            size: meta.bytes,
            arrival: ctx.now(),
            tag: slot as u64,
        };
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
            self.free.push(slot);
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
            return;
        }
        let now = ctx.now();
        let l = &mut self.links[link];
        if P::ENABLED && P::WANTS_DECISION_VALUES {
            self.audit_buf.clear();
            l.scheduler.decision_values(now, &mut self.audit_buf);
        }
        let Some(pkt) = l.scheduler.dequeue(now) else {
            return;
        };
        if P::ENABLED {
            self.probe.on_decision(
                now,
                l.scheduler.name(),
                packet_id(&pkt, link),
                &self.audit_buf,
            );
        }
        self.metas[pkt.tag as usize].acc_wait += now.since(pkt.arrival).ticks();
        let tx = tx_ticks(pkt.size, l.rate);
        l.in_flight = Some(pkt);
        l.tx_start = now;
        ctx.schedule_in(Dur::from_ticks(tx), Ev::TxDone { link: link as u16 });
    }

    /// Applies every scenario command due at `now` to the mesh.
    fn apply_scenario(&mut self, ctx: &mut Context<Ev>) {
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        self.rt
            .apply_due(ctx.now(), &mut *self.probe, |c| cmds.push(c));
        for c in cmds.drain(..) {
            match c {
                Command::Reconfigure(sdp) => {
                    for l in &mut self.links {
                        match l.scheduler.reconfigure(&sdp) {
                            Ok(()) | Err(ReconfigureError::Unsupported(_)) => {}
                            Err(e) => panic!("scenario set_sdp: {e}"),
                        }
                    }
                }
                Command::SetLinkRate { link, rate } => {
                    let l = &mut self.links[link as usize];
                    l.rate = rate;
                    l.scheduler.set_link_rate(rate);
                }
                Command::LinkDown { .. } => {}
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

impl<P: Probe> Model for Mesh<'_, P> {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Context<Ev>) {
        match ev {
            Ev::Emit { flow, idx } => {
                let f = self.flows[flow as usize];
                if self.rt.admits(f.first.class) {
                    self.emit(f.first, ctx);
                }
                // The next emission: scheduled, or already in the lane and
                // given the sequence number scheduling it here would have
                // (a flow's last emission takes one too; unused, it orders
                // nothing).
                match f.model {
                    FlowModel::Periodic { gap_ticks, count } => {
                        if idx + 1 < count {
                            ctx.schedule_in(
                                Dur::from_ticks(gap_ticks),
                                Ev::Emit { flow, idx: idx + 1 },
                            );
                        }
                    }
                    FlowModel::Pareto { .. } => self.lane.stamp(f.clock, ctx.reserve_seq()),
                }
            }
            Ev::Cross => {
                let emission = self.cross.stream.pop();
                // `None`: the one instant a source can be nudged to past
                // the stream's end.
                if let Some(class) = emission.class {
                    self.emit_cross(emission.node, class, ctx);
                }
                // The source's next emission is in the stream already; an
                // ended source takes no number.
                if emission.successor {
                    let seq = ctx.reserve_seq();
                    self.cross.stream.stamp(emission.source, seq);
                }
            }
            Ev::EcnCross { source } => {
                let now = ctx.now().ticks();
                let ecn = self.cross.ecn.as_mut().expect("a scheduled source");
                if let Some((node, class)) = ecn.emission(source, now) {
                    self.emit_cross(node, class, ctx);
                    let backlog = self.links[node as usize].scheduler.total_backlog_bytes();
                    let ecn = self.cross.ecn.as_mut().expect("a scheduled source");
                    if let Some(next) = ecn.advance(source, now, backlog) {
                        ctx.schedule(Time::from_ticks(next), Ev::EcnCross { source });
                    }
                }
            }
            Ev::TxDone { link } => {
                let link = link as usize;
                let l = &mut self.links[link];
                let pkt = l.in_flight.take().expect("TxDone without in-flight packet");
                l.departures += 1;
                let meta = &mut self.metas[pkt.tag as usize];
                meta.at += 1;
                let delivered = meta.at == meta.end;
                if P::ENABLED {
                    self.probe.on_depart(
                        packet_id(&pkt, link),
                        pkt.arrival,
                        l.tx_start,
                        ctx.now(),
                        delivered,
                    );
                }
                if delivered {
                    if meta.flow != CROSS_FLOW {
                        self.delivered.push(meta.flow, meta.acc_wait);
                    }
                    self.free.push(pkt.tag as u32);
                } else if l.propagation > 0 {
                    let slot = pkt.tag as u32;
                    ctx.schedule_in(Dur::from_ticks(l.propagation), Ev::Arrive { slot });
                } else {
                    self.arrive(pkt.tag as u32, ctx);
                }
                self.start_tx(link, ctx);
            }
            Ev::Arrive { slot } => self.arrive(slot, ctx),
            Ev::ScenarioTick => {
                self.apply_scenario(ctx);
                if let Some(at) = self.rt.next_at() {
                    ctx.schedule(at, Ev::ScenarioTick);
                }
            }
        }
    }

    /// The earlier of the two lanes' heads, each an `(instant, seq)`; a
    /// mesh without a chain behind it never gets past the stream's `None`.
    #[inline]
    fn lane_peek(&mut self) -> Option<EventKey> {
        let flows = self.lane.peek();
        let (at, seq) = match self.cross.stream.peek() {
            Some(cross) if flows.is_none_or(|flows| cross < flows) => cross,
            _ => flows?,
        };
        Some(EventKey::new(Time::from_ticks(at), seq))
    }

    #[inline]
    fn lane_pop(&mut self) -> Ev {
        match self.cross.stream.peek() {
            Some(cross) if self.lane.peek().is_none_or(|flows| cross < flows) => Ev::Cross,
            _ => Ev::Emit {
                flow: self.lane.pop(),
                idx: 0,
            },
        }
    }
}

/// Runs `cfg` — joined by `cross`, a lowered chain's hop-local cross
/// traffic — under `scenario` with `probe` observing every hop; what
/// [`Session`](crate::Session) documents. Each link runs the scheduler its
/// [`LinkSpec`] names, [built](sched::SchedulerKind::build) at its own
/// rate. An owned config is dropped once the engine has lowered it,
/// before the run.
pub(crate) fn run_mesh<P: Probe>(
    cfg: Cow<'_, MeshConfig>,
    cross: CrossSources,
    scenario: &Scenario,
    probe: &mut P,
) -> MeshOutcome {
    cfg.validate().expect("invalid mesh configuration");
    assert!(
        !scenario.has_load_surge(),
        "load_surge is not supported by the mesh engine"
    );
    run_engine(cfg, cross, scenario, probe).0
}

/// Lowers the validated `cfg` for the event loop — each link served by
/// the scheduler its spec names — and gives every source its first
/// sequence number.
fn lower<'p, P: Probe>(
    cfg: &MeshConfig,
    cross: CrossSources,
    scenario: &Scenario,
    probe: &'p mut P,
) -> Simulation<Mesh<'p, P>> {
    let links = (cfg.links.iter())
        .map(|l| LinkState {
            scheduler: l.scheduler.build(&cfg.sdp, l.bytes_per_tick()),
            rate: l.bytes_per_tick(),
            propagation: l.propagation_ns,
            in_flight: None,
            tx_start: Time::ZERO,
            departures: 0,
        })
        .collect();
    let hops = cfg.flows.iter().map(|f| f.route.len()).sum::<usize>() + cfg.links.len();
    assert!(u32::try_from(hops).is_ok(), "route table exceeds u32");
    let mut routes = Vec::with_capacity(hops);
    let pareto: Vec<LaneFlow> = (cfg.flows.iter().enumerate())
        .filter_map(|(flow, f)| match f.model {
            FlowModel::Pareto {
                mean_gap_ticks,
                until_ticks,
            } => Some(LaneFlow {
                flow,
                start_ticks: f.start_ticks,
                mean_gap_ticks,
                until_ticks,
            }),
            FlowModel::Periodic { .. } => None,
        })
        .collect();
    let lane = EmissionLane::new(cfg.seed, &pareto);
    let mut clocks = 0;
    let mut flows = Vec::with_capacity(cfg.flows.len());
    for (i, f) in cfg.flows.iter().enumerate() {
        let at = routes.len() as u32;
        routes.extend(f.route.iter().map(|&l| l as u16));
        let first = PacketMeta {
            id: 0,
            acc_wait: 0,
            flow: i as u32,
            class: f.class,
            bytes: f.packet_bytes,
            at,
            end: routes.len() as u32,
        };
        flows.push(HotFlow {
            first,
            model: f.model,
            clock: clocks,
        });
        clocks += u32::from(matches!(f.model, FlowModel::Pareto { .. }));
    }
    let cross_routes = routes.len() as u32;
    routes.extend((0..cfg.links.len()).map(|l| l as u16));
    let mesh = Mesh {
        flows,
        routes,
        links,
        metas: Vec::new(),
        free: Vec::new(),
        emitted: 0,
        delivered: DeliveryLog::default(),
        lane,
        cross,
        cross_routes,
        probe,
        rt: ScenarioRuntime::new(scenario, cfg.links.len(), cfg.sdp.num_classes()),
        cmd_buf: Vec::new(),
        audit_buf: Vec::new(),
    };
    let mut sim = Simulation::new(mesh);
    // First emissions take their sequence numbers in this order
    // (ARCHITECTURE.md, "One coupled engine"): the stream's sources, the
    // closed-loop sources, the flows, each in index order. What waits in
    // a lane only needs the number.
    for source in 0..sim.model().cross.stream.sources() {
        let seq = sim.reserve_seq();
        sim.model_mut().cross.stream.stamp(source as u16, seq);
    }
    let ecn_sources = sim.model().cross.ecn.as_ref().map_or(0, |e| e.sources());
    for source in 0..ecn_sources {
        let at = Time::from_ticks(first_cross_tick(source));
        let source = source as u16;
        sim.schedule(at, Ev::EcnCross { source });
    }
    for (i, f) in cfg.flows.iter().enumerate() {
        match f.model {
            FlowModel::Periodic { .. } => sim.schedule(
                Time::from_ticks(f.start_ticks),
                Ev::Emit {
                    flow: i as u32,
                    idx: 0,
                },
            ),
            FlowModel::Pareto { .. } => {
                let seq = sim.reserve_seq();
                let mesh = sim.model_mut();
                mesh.lane.stamp(mesh.flows[i].clock, seq);
            }
        }
    }
    // Arm the perturbation timeline (no-op for empty scenarios).
    if let Some(at) = sim.model_mut().rt.next_at() {
        sim.schedule(at, Ev::ScenarioTick);
    }
    sim
}

/// Runs the validated `cfg`. Also returns the packet slots it allocated —
/// the peak of packets in flight — and the deepest the event queue got
/// (the lanes are not in it).
fn run_engine<P: Probe>(
    cfg: Cow<'_, MeshConfig>,
    cross: CrossSources,
    scenario: &Scenario,
    probe: &mut P,
) -> (MeshOutcome, usize, usize) {
    let mut sim = lower(&cfg, cross, scenario, probe);
    // An owned config has been read for the last time: the run does not
    // hold its flows and routes.
    drop(cfg);
    if P::ENABLED {
        // In chunks, so that the probe the model borrows can hear of
        // progress between them.
        while sim.run_for_events(HEARTBEAT_EVERY) == RunOutcome::EventBudgetSpent {
            // Lanes and queue together: the depth of an all-queue engine.
            let mesh = sim.model();
            let depth = sim.queue_depth() + mesh.lane.live() + mesh.cross.stream.live();
            let (now, handled) = (sim.now(), sim.events_handled());
            sim.model_mut().probe.on_heartbeat(now, handled, depth);
        }
    } else {
        sim.run();
    }
    let queue_high_water = sim.heap_high_water();
    let mesh = sim.into_model();
    // The one place a per-flow output is indexed: the handlers only log.
    let outcome = MeshOutcome {
        per_flow_waits: mesh.delivered.into_per_flow(mesh.flows.len()),
        link_departures: mesh.links.iter().map(|l| l.departures).collect(),
    };
    (outcome, mesh.metas.len(), queue_high_water)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sched::SchedulerKind;
    use telemetry::{MetricsRegistry, Tee};

    /// What the hops of a run tell a probe, per link: departures, bytes,
    /// transmitting ticks, and per class the waits (start − arrival) as an
    /// `f64` sum in departure order, an integer sum and a count. The span
    /// is the latest instant any callback names. The tests' per-link
    /// numbers come from here, as a caller's come from its probe.
    #[derive(Debug, Clone)]
    pub(crate) struct HopTally {
        pub links: Vec<LinkTally>,
        pub span_ticks: u64,
    }

    /// One link of a [`HopTally`].
    #[derive(Debug, Clone)]
    pub(crate) struct LinkTally {
        pub departures: u64,
        pub bytes: u64,
        pub busy: u64,
        /// Per class: `(Σ wait as f64, Σ wait, count)`.
        pub waits: Vec<(f64, u64, u64)>,
    }

    impl HopTally {
        pub fn new(links: usize, classes: usize) -> Self {
            let link = LinkTally {
                departures: 0,
                bytes: 0,
                busy: 0,
                waits: vec![(0.0, 0, 0); classes],
            };
            HopTally {
                links: vec![link; links],
                span_ticks: 0,
            }
        }

        /// Link `l`'s transmitting time over the span.
        pub fn utilization(&self, l: usize) -> f64 {
            self.links[l].busy as f64 / self.span_ticks as f64
        }

        /// Link `l`'s mean wait per class, 0 for a class it never served.
        pub fn mean_waits(&self, l: usize) -> Vec<f64> {
            (self.links[l].waits.iter())
                .map(|&(sum, _, n)| if n == 0 { 0.0 } else { sum / n as f64 })
                .collect()
        }

        fn saw(&mut self, at: Time) {
            self.span_ticks = self.span_ticks.max(at.ticks());
        }
    }

    impl Probe for HopTally {
        const WANTS_DECISION_VALUES: bool = false;
        fn on_arrival(&mut self, at: Time, _id: PacketId) {
            self.saw(at);
        }
        fn on_enqueue(&mut self, at: Time, _id: PacketId) {
            self.saw(at);
        }
        fn on_decision(&mut self, at: Time, _: &'static str, _: PacketId, _: &[(usize, f64)]) {
            self.saw(at);
        }
        fn on_depart(&mut self, id: PacketId, arrival: Time, start: Time, finish: Time, _: bool) {
            self.saw(finish);
            let l = &mut self.links[id.hop as usize];
            let wait = start.since(arrival).ticks();
            l.departures += 1;
            l.bytes += u64::from(id.size);
            l.busy += finish.since(start).ticks();
            let w = &mut l.waits[id.class as usize];
            (w.0, w.1, w.2) = (w.0 + wait as f64, w.1 + wait, w.2 + 1);
        }
        fn on_drop(&mut self, at: Time, _id: PacketId, _backlog: u64, _buffer: u64) {
            self.saw(at);
        }
        fn on_heartbeat(&mut self, at: Time, _events: u64, _depth: usize) {
            self.saw(at);
        }
        fn on_scenario_event(&mut self, at: Time, _link: u16, _kind: &'static str, _value: f64) {
            self.saw(at);
        }
    }

    /// Runs `cfg` (joined by `cross`) with a registry and a [`HopTally`]
    /// attached, and checks that the registry records every (link, class)
    /// the way the hops report it — hop departures and integer wait sums —
    /// and that the classes' hop departures add up to the engine's own
    /// count per link. Returns the registry.
    pub(crate) fn assert_recorded_once(
        cfg: Cow<'_, MeshConfig>,
        cross: CrossSources,
    ) -> MetricsRegistry {
        let (links, classes) = (cfg.links.len(), cfg.sdp.num_classes());
        let mut registry = MetricsRegistry::new();
        let mut tally = HopTally::new(links, classes);
        let out = run_mesh(
            cfg,
            cross,
            &Scenario::empty(),
            &mut Tee(&mut registry, &mut tally),
        );
        let recorded = registry.links();
        assert_eq!(recorded.len(), links);
        for (l, (metrics, hops)) in recorded.iter().zip(&tally.links).enumerate() {
            assert_eq!(metrics.classes.len(), classes);
            for (c, (ch, &(_, sum, n))) in metrics.classes.iter().zip(&hops.waits).enumerate() {
                assert_eq!(ch.hop_departures, n, "link {l} class {c}: departures");
                assert_eq!(ch.wait_ticks_sum, sum, "link {l} class {c}: waits");
            }
            let departed: u64 = metrics.classes.iter().map(|ch| ch.hop_departures).sum();
            assert_eq!(departed, out.link_departures[l], "link {l}");
            assert_eq!(departed, hops.departures, "link {l}");
        }
        registry
    }

    const MBPS25: f64 = 25_000_000.0;

    fn wtp_link() -> LinkSpec {
        LinkSpec::new(MBPS25, SchedulerKind::Wtp)
    }

    fn probe(route: Vec<usize>, class: u8, start: u64) -> MeshFlow {
        MeshFlow {
            route,
            class,
            packet_bytes: 500,
            model: FlowModel::Periodic {
                gap_ticks: 20_000_000, // 200 kbps
                count: 50,
            },
            start_ticks: start,
        }
    }

    fn background(route: Vec<usize>, class: u8, load_fraction: f64, horizon: u64) -> MeshFlow {
        // 500 B packets at `load_fraction` of 25 Mbps.
        let gap = 500.0 * 8.0 / (load_fraction * MBPS25) * 1e9;
        MeshFlow {
            route,
            class,
            packet_bytes: 500,
            model: FlowModel::Pareto {
                mean_gap_ticks: gap,
                until_ticks: horizon,
            },
            start_ticks: 1,
        }
    }

    /// Background mix loading `link` to ~92% across 4 classes.
    fn background_mix(link: usize, horizon: u64) -> Vec<MeshFlow> {
        [0.36, 0.27, 0.18, 0.09]
            .iter()
            .enumerate()
            .map(|(c, &frac)| background(vec![link], c as u8, frac, horizon))
            .collect()
    }

    #[test]
    fn unloaded_mesh_has_zero_waits() {
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link(), wtp_link()],
            flows: vec![probe(vec![0, 1], 3, 0)],
            seed: 1,
        };
        let out = crate::Session::mesh(&cfg).run();
        assert_eq!(out.per_flow_waits[0].len(), 50);
        assert!(out.per_flow_waits[0].iter().all(|&w| w == 0));
        assert_eq!(out.link_departures, vec![50, 50]);
    }

    #[test]
    fn crossing_paths_both_keep_differentiation() {
        // Y topology: path A = [0, 2], path B = [1, 2]; link 2 is the shared
        // bottleneck. Each path carries a low-class and a high-class probe.
        let horizon = 4 * crate::TICKS_PER_SEC;
        let mut flows = vec![
            probe(vec![0, 2], 0, 0),
            probe(vec![0, 2], 3, 0),
            probe(vec![1, 2], 0, 0),
            probe(vec![1, 2], 3, 0),
        ];
        flows.extend(background_mix(2, horizon));
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link(), wtp_link(), wtp_link()],
            flows,
            seed: 7,
        };
        let out = crate::Session::mesh(&cfg).run();
        for f in 0..4 {
            assert_eq!(out.per_flow_waits[f].len(), 50, "flow {f} incomplete");
        }
        // On each path the high class beats the low class end-to-end.
        assert!(
            out.mean_wait(0) > 1.5 * out.mean_wait(1),
            "path A: low {} vs high {}",
            out.mean_wait(0),
            out.mean_wait(1)
        );
        assert!(
            out.mean_wait(2) > 1.5 * out.mean_wait(3),
            "path B: low {} vs high {}",
            out.mean_wait(2),
            out.mean_wait(3)
        );
    }

    #[test]
    fn shared_bottleneck_couples_the_paths() {
        // Loading path A's private link should not change path B's delays
        // much; loading the shared link hurts both.
        let horizon = 3 * crate::TICKS_PER_SEC;
        let base_flows = |extra: Vec<MeshFlow>| {
            let mut flows = vec![probe(vec![0, 2], 0, 0), probe(vec![1, 2], 0, 0)];
            flows.extend(extra);
            flows
        };
        let mk = |extra| MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link(), wtp_link(), wtp_link()],
            flows: base_flows(extra),
            seed: 3,
        };
        let private_loaded = crate::Session::mesh(&mk(background_mix(0, horizon))).run();
        let shared_loaded = crate::Session::mesh(&mk(background_mix(2, horizon))).run();
        // Flow 1 (path B) barely notices path A's private congestion...
        assert!(
            private_loaded.mean_wait(1) < private_loaded.mean_wait(0) / 4.0,
            "B {} vs A {}",
            private_loaded.mean_wait(1),
            private_loaded.mean_wait(0)
        );
        // ...but suffers when the shared link is hot.
        assert!(
            shared_loaded.mean_wait(1) > 4.0 * private_loaded.mean_wait(1).max(1.0),
            "shared {} vs private {}",
            shared_loaded.mean_wait(1),
            private_loaded.mean_wait(1)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let horizon = crate::TICKS_PER_SEC;
        let mk = || {
            let mut flows = vec![probe(vec![0], 2, 0)];
            flows.extend(background_mix(0, horizon));
            MeshConfig {
                sdp: Sdp::paper_default(),
                links: vec![wtp_link()],
                flows,
                seed: 11,
            }
        };
        let a = crate::Session::mesh(&mk()).run();
        let b = crate::Session::mesh(&mk()).run();
        assert_eq!(a.per_flow_waits, b.per_flow_waits);
    }

    #[test]
    fn scenario_link_flap_holds_and_releases_the_shared_bottleneck() {
        use scenario::{DownPolicy, Scenario};
        // Flap the shared link of the Y topology with Hold: every probe
        // packet is still delivered, but the outage inflates the waits of
        // flows crossing it relative to the un-flapped run.
        let mk = || {
            MeshConfig::builder(Sdp::paper_default())
                .link(wtp_link())
                .link(wtp_link())
                .link(wtp_link())
                .flow(probe(vec![0, 2], 0, 0))
                .flow(probe(vec![1, 2], 3, 0))
                .seed(5)
                .build()
                .unwrap()
        };
        let base = crate::Session::mesh(&mk()).run();
        let sc = Scenario::builder()
            .link_down(Time::from_ticks(100_000_000), 2, DownPolicy::Hold)
            .link_up(Time::from_ticks(400_000_000), 2)
            .build()
            .unwrap();
        let flapped = crate::Session::mesh(&mk()).scenario(sc).run();
        for f in 0..2 {
            assert_eq!(flapped.per_flow_waits[f].len(), 50, "flow {f} lost packets");
        }
        assert!(
            flapped.mean_wait(0) > base.mean_wait(0) + 1_000_000.0,
            "outage must inflate path-A waits: {} vs {}",
            flapped.mean_wait(0),
            base.mean_wait(0)
        );
        assert!(
            flapped.mean_wait(1) > base.mean_wait(1) + 1_000_000.0,
            "outage must inflate path-B waits: {} vs {}",
            flapped.mean_wait(1),
            base.mean_wait(1)
        );
    }

    #[test]
    fn scenario_link_flap_drop_loses_mesh_packets() {
        use scenario::{DownPolicy, Scenario};
        let cfg = MeshConfig::builder(Sdp::paper_default())
            .link(wtp_link())
            .flow(probe(vec![0], 2, 0))
            .build()
            .unwrap();
        // The 50-packet probe spans 1 s; a 0.4 s Drop outage eats packets.
        let sc = Scenario::builder()
            .link_down(Time::from_ticks(100_000_000), 0, DownPolicy::Drop)
            .link_up(Time::from_ticks(500_000_000), 0)
            .build()
            .unwrap();
        let mut registry = telemetry::MetricsRegistry::with_shape(1, 4);
        let (out, slots, _) = run_engine(
            Cow::Borrowed(&cfg),
            CrossSources::default(),
            &sc,
            &mut registry,
        );
        assert_eq!(slots, 1, "a dropped packet's slot must be recycled");
        assert!(
            out.per_flow_waits[0].len() < 50,
            "Drop outage delivered all {} packets",
            out.per_flow_waits[0].len()
        );
        let drops: u64 = (0..4).map(|c| registry.class_total(c).drops).sum();
        assert_eq!(
            drops as usize + out.per_flow_waits[0].len(),
            50,
            "dropped + delivered must cover the flow"
        );
        assert_eq!(registry.scenario_events(), 2);
    }

    #[test]
    #[should_panic(expected = "load_surge is not supported")]
    fn load_surge_is_rejected_by_the_mesh() {
        let cfg = MeshConfig::builder(Sdp::paper_default())
            .link(wtp_link())
            .flow(probe(vec![0], 2, 0))
            .build()
            .unwrap();
        let sc = Scenario::builder()
            .load_surge(Time::from_ticks(1), 0, 0.5)
            .build()
            .unwrap();
        let _ = crate::Session::mesh(&cfg).scenario(sc).run();
    }

    /// Arrival and departure log: `(tick, span, link)` / `(span, link, eol)`.
    #[derive(Default)]
    struct Recorder {
        arrivals: Vec<(u64, u64, u16)>,
        departs: Vec<(u64, u16, bool)>,
    }

    impl Probe for Recorder {
        const WANTS_DECISION_VALUES: bool = false;
        fn on_arrival(&mut self, at: Time, id: PacketId) {
            assert_eq!(id.span, id.seq);
            self.arrivals.push((at.ticks(), id.span, id.hop));
        }
        fn on_depart(&mut self, id: PacketId, _arrival: Time, _start: Time, _end: Time, eol: bool) {
            self.departs.push((id.span, id.hop, eol));
        }
    }

    #[test]
    fn same_tick_start_txdone_and_pareto_emit_resolve_starts_first() {
        // 500 B at 25 Mb/s.
        const TX: u64 = 160_000;
        let pareto = |until_ticks| MeshFlow {
            route: vec![0],
            class: 0,
            packet_bytes: 500,
            model: FlowModel::Pareto {
                mean_gap_ticks: 2_000_000.0,
                until_ticks,
            },
            start_ticks: 1,
        };
        let once = |class, start_ticks| MeshFlow {
            route: vec![0],
            class,
            packet_bytes: 500,
            model: FlowModel::Periodic {
                gap_ticks: 1,
                count: 1,
            },
            start_ticks,
        };
        let mk = |flows| MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link()],
            flows,
            seed: 21,
        };
        // Find the tick of the Pareto flow's third emission (alone on the
        // link, each packet arrives when it is emitted). Its gaps are at
        // least 0.47 of the mean, so the `Emit` landing there was
        // scheduled long before the transmission that ends there began.
        let mut log = Recorder::default();
        crate::Session::mesh(&mk(vec![pareto(10_000_000)]))
            .probe(&mut log)
            .run();
        let t = log.arrivals[2].0;
        assert!(t - log.arrivals[1].0 > 2 * TX);

        // On tick t: two flow starts (flows 1 and 2, one class), the
        // Pareto flow's last `Emit`, and the `TxDone` of flow 3's packet.
        // The starts were scheduled before the run, so they are handled
        // first, in flow order; then the `Emit`; then the `TxDone` decides
        // between three packets that have all waited 0 and takes the
        // higher class, first come first served: flow 1, flow 2 one
        // transmission later, the Pareto packet after both. Were the
        // starts to lose the tie, the Pareto packet would be alone in the
        // queue at the decision and go first.
        let flows = vec![pareto(t), once(2, t), once(2, t), once(3, t - TX)];
        let out = crate::Session::mesh(&mk(flows)).run();
        assert_eq!(out.per_flow_waits[0], vec![0, 0, 2 * TX]);
        assert_eq!(out.per_flow_waits[1], vec![0]);
        assert_eq!(out.per_flow_waits[2], vec![TX]);
        assert_eq!(out.per_flow_waits[3], vec![0]);
    }

    #[test]
    fn fcfs_on_a_downstream_link_serves_in_link_arrival_order() {
        // `Packet::seq` is the emission id, so on link 2 of this Y it is
        // *not* the arrival order: A is emitted first but queues behind a
        // pre-loaded link 0, and reaches link 2 after the later-emitted B.
        // Two blockers keep link 2 busy until both are queued there, so
        // one decision sees both heads — and FCFS must take B, whatever
        // the classes and emission ids say.
        const TX: u64 = 160_000; // 500 B at 25 Mb/s
        let once = |route: Vec<usize>, class, start_ticks| MeshFlow {
            route,
            class,
            packet_bytes: 500,
            model: FlowModel::Periodic {
                gap_ticks: 1,
                count: 1,
            },
            start_ticks,
        };
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![
                wtp_link(),
                wtp_link(),
                LinkSpec::new(MBPS25, SchedulerKind::Fcfs),
            ],
            flows: vec![
                once(vec![0], 1, 0),          // span 0: pre-loads link 0 until TX
                once(vec![0, 2], 3, 1),       // span 1, A: on link 2 at 2·TX
                once(vec![1, 2], 0, 10),      // span 2, B: on link 2 at TX + 10
                once(vec![2], 1, TX / 2),     // span 3: link 2 busy until 3·TX/2
                once(vec![2], 1, TX / 2 + 1), // span 4: … and until 5·TX/2
            ],
            seed: 0,
        };
        let mut log = Recorder::default();
        crate::Session::mesh(&cfg).probe(&mut log).run();
        let on_link_2 = |span| {
            let hit = log.arrivals.iter().find(|a| a.1 == span && a.2 == 2);
            hit.expect("crosses link 2").0
        };
        assert_eq!((on_link_2(1), on_link_2(2)), (2 * TX, TX + 10));
        let served: Vec<u64> = (log.departs.iter())
            .filter(|d| d.1 == 2)
            .map(|d| d.0)
            .collect();
        assert_eq!(served, vec![3, 4, 2, 1]);
    }

    /// A two-link mesh of `kind_a`/`kind_b` links of unequal rates: probes
    /// across both, Pareto background on each.
    fn two_link_mesh(kind_a: SchedulerKind, kind_b: SchedulerKind) -> MeshConfig {
        let horizon = crate::TICKS_PER_SEC;
        let mut flows = vec![probe(vec![0, 1], 0, 0), probe(vec![0, 1], 3, 0)];
        flows.extend(background_mix(0, horizon));
        flows.extend(background_mix(1, horizon));
        MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![
                LinkSpec::new(MBPS25, kind_a),
                LinkSpec::new(1.05 * MBPS25, kind_b),
            ],
            flows,
            seed: 13,
        }
    }

    #[test]
    fn mixed_scheduler_mesh_still_runs() {
        let out =
            crate::Session::mesh(&two_link_mesh(SchedulerKind::Wtp, SchedulerKind::Bpr)).run();
        for f in 0..2 {
            assert_eq!(out.per_flow_waits[f].len(), 50, "flow {f} incomplete");
        }
        assert!(
            out.mean_wait(0) > out.mean_wait(1),
            "low class waits longer"
        );
    }

    #[test]
    fn spans_follow_emission_order_and_routes_while_slots_are_reused() {
        let cfg = two_link_mesh(SchedulerKind::Wtp, SchedulerKind::Wtp);
        let mut log = Recorder::default();
        let (out, slots, _) = run_engine(
            Cow::Borrowed(&cfg),
            CrossSources::default(),
            &Scenario::empty(),
            &mut log,
        );
        let packets: usize = out.per_flow_waits.iter().map(Vec::len).sum();
        assert!(
            packets > 10_000 && slots < 200,
            "{packets} packets in {slots} slots"
        );
        // A span's first arrival is its emission: ids count up from 0.
        let mut route_of: Vec<Vec<u16>> = Vec::new();
        for &(_, span, link) in &log.arrivals {
            if span as usize == route_of.len() {
                route_of.push(Vec::new());
            }
            route_of[span as usize].push(link);
        }
        assert_eq!(route_of.len(), packets);
        // Each span visits its flow's links in order and ends on the last.
        assert!(route_of.iter().all(|r| matches!(r[..], [0] | [1] | [0, 1])));
        let mut crossed = vec![Vec::new(); packets];
        for &(span, link, eol) in &log.departs {
            crossed[span as usize].push(link);
            assert_eq!(eol, crossed[span as usize] == route_of[span as usize]);
        }
        assert_eq!(crossed, route_of);
    }

    #[test]
    fn validation_rejects_more_links_than_link_ids() {
        let mut cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link(); MAX_LINKS],
            flows: vec![probe(vec![0, MAX_LINKS - 1], 0, 0)],
            seed: 0,
        };
        assert!(cfg.validate().is_ok());
        cfg.links.push(wtp_link());
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("at most 65536"), "{err}");
    }

    #[test]
    fn mesh_builder_rejects_bad_topologies() {
        let err = MeshConfig::builder(Sdp::paper_default())
            .flow(probe(vec![0], 0, 0))
            .build()
            .unwrap_err();
        assert!(err.contains("at least one link"), "{err}");
        let err = MeshConfig::builder(Sdp::paper_default())
            .link(wtp_link())
            .flow(probe(vec![0, 1], 0, 0))
            .build()
            .unwrap_err();
        assert!(err.contains("unknown link"), "{err}");
        let err = MeshConfig::builder(Sdp::paper_default())
            .link(wtp_link())
            .flow(probe(vec![0], 9, 0))
            .build()
            .unwrap_err();
        assert!(err.contains("without an SDP"), "{err}");
        assert!(MeshConfig::builder(Sdp::paper_default())
            .link(wtp_link())
            .flow(probe(vec![0], 0, 0))
            .build()
            .is_ok());
    }

    #[test]
    fn validation_rejects_bad_meshes() {
        let ok = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link()],
            flows: vec![probe(vec![0], 0, 0)],
            seed: 0,
        };
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.flows[0].route = vec![];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.flows[0].route = vec![5];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.flows[0].class = 9;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.flows[0].packet_bytes = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.links.clear();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_rejects_looping_routes() {
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link(), wtp_link()],
            flows: vec![probe(vec![0, 1, 0], 0, 0)],
            seed: 0,
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("visits link 0 twice"), "{err}");
    }

    #[test]
    fn validation_rejects_unmaterialized_cross() {
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link().with_cross(crate::CrossTraffic::paper(0.5))],
            flows: vec![probe(vec![0], 0, 0)],
            seed: 0,
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("materialize_cross"), "{err}");
    }

    #[test]
    fn materialize_cross_expands_to_pareto_flows() {
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![
                wtp_link().with_cross(crate::CrossTraffic::paper(0.5)),
                wtp_link(),
            ],
            flows: vec![probe(vec![0, 1], 3, 0)],
            seed: 9,
        };
        let horizon = crate::TICKS_PER_SEC;
        let mat = cfg.materialize_cross(horizon).unwrap();
        // 8 sources × 4 classes with nonzero share, appended after the probe.
        assert_eq!(mat.flows.len(), 1 + 8 * 4);
        assert!(mat.links.iter().all(|l| l.cross.is_none()));
        for f in &mat.flows[1..] {
            assert_eq!(f.route, vec![0]);
            assert!(matches!(
                f.model,
                FlowModel::Pareto { until_ticks, .. } if until_ticks == horizon
            ));
        }
        // The expansion runs and congests the probe's first hop.
        let out = crate::Session::mesh(&mat).run();
        assert_eq!(out.per_flow_waits[0].len(), 50);
        assert!(out.link_departures[0] > out.link_departures[1]);
    }

    #[test]
    fn materialize_cross_rejects_closed_loop_models() {
        let mut cross = crate::CrossTraffic::paper(0.5);
        cross.model = CrossModel::EcnAdaptive {
            mark_threshold_bytes: 10_000,
            increase_bps: 1e6,
            min_rate_fraction: 0.1,
        };
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link().with_cross(cross)],
            flows: vec![probe(vec![0], 0, 0)],
            seed: 0,
        };
        let err = cfg.materialize_cross(crate::TICKS_PER_SEC).unwrap_err();
        assert!(err.contains("Pareto cross traffic"), "{err}");
    }

    /// FNV-1a over a [`MeshOutcome`]: per flow its packet count and its
    /// waits in delivery order, then the link departures.
    fn outcome_digest(out: &MeshOutcome) -> u64 {
        let per_flow = (out.per_flow_waits.iter())
            .flat_map(|w| std::iter::once(w.len() as u64).chain(w.iter().copied()));
        per_flow.chain(out.link_departures.iter().copied()).fold(
            0xcbf2_9ce4_8422_2325,
            |h, word| {
                (word.to_le_bytes().iter()).fold(h, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                })
            },
        )
    }

    /// Emissions of the tie-heavy mesh stop here.
    const TIE_HORIZON: u64 = 80_000;

    /// A mesh built for same-tick events: six 25 Mb/s links (link 1
    /// propagates for 777 ticks), twelve Pareto flows with mean
    /// gaps of 1–3 ticks, same-class pairs sharing first links so the
    /// order of two same-tick `Emit`s decides who queues behind whom, and
    /// eight two-packet probes started on ticks the Pareto flows start or
    /// emit on. Packets of 1–3 bytes take 320–960 ticks, so a few thousand
    /// `TxDone`s and `Arrive`s land inside the emission horizon, on ticks
    /// that nearly all carry an `Emit`.
    fn tie_heavy(kinds: [SchedulerKind; 6]) -> MeshConfig {
        let pareto = |route: &[usize], class, packet_bytes, mean_gap_ticks, start_ticks| MeshFlow {
            route: route.to_vec(),
            class,
            packet_bytes,
            model: FlowModel::Pareto {
                mean_gap_ticks,
                until_ticks: TIE_HORIZON,
            },
            start_ticks,
        };
        let two = |route: &[usize], class, gap_ticks, start_ticks| MeshFlow {
            route: route.to_vec(),
            class,
            packet_bytes: 1,
            model: FlowModel::Periodic {
                gap_ticks,
                count: 2,
            },
            start_ticks,
        };
        let flows = vec![
            pareto(&[0, 2], 0, 1, 2.0, 1),
            two(&[0, 2], 0, 7, 1),
            pareto(&[0, 2], 0, 1, 3.0, 1),
            pareto(&[0, 3], 2, 2, 2.5, 5),
            two(&[1, 3], 1, 320, 1),
            pareto(&[1, 2], 3, 1, 1.5, 1),
            pareto(&[1, 3], 1, 1, 3.0, 2),
            two(&[2], 3, 1, 1),
            pareto(&[1, 4], 3, 2, 2.0, 1),
            pareto(&[2], 0, 1, 3.0, 1),
            two(&[5, 3], 2, 640, 400),
            pareto(&[2], 3, 1, 2.0, 3),
            pareto(&[3], 2, 1, 1.0, 1),
            two(&[0, 3], 2, 3, 5),
            pareto(&[4, 5], 1, 1, 2.0, 1),
            two(&[4, 5], 1, 960, 1),
            pareto(&[5], 1, 3, 3.0, 1),
            two(&[1, 2], 3, 2, 1_000),
            pareto(&[5, 3], 2, 1, 1.2, 400),
            two(&[3], 2, 5, 1_000),
        ];
        let mut links: Vec<LinkSpec> = kinds.iter().map(|&k| LinkSpec::new(MBPS25, k)).collect();
        links[1] = links[1].clone().with_propagation(777);
        MeshConfig {
            sdp: Sdp::paper_default(),
            links,
            flows,
            seed: 16,
        }
    }

    const ALL_WTP: [SchedulerKind; 6] = [SchedulerKind::Wtp; 6];
    /// Links of unlike kinds.
    const MIXED: [SchedulerKind; 6] = [
        SchedulerKind::Wtp,
        SchedulerKind::Bpr,
        SchedulerKind::Hpd,
        SchedulerKind::Fcfs,
        SchedulerKind::Wtp,
        SchedulerKind::Strict,
    ];

    /// Ticks of the events of a tie-heavy run: emissions (a span's first
    /// arrival), `TxDone`s, and `Arrive`s off the propagating link 1.
    #[derive(Default)]
    struct TieLog {
        emits: Vec<u64>,
        tx_dones: Vec<u64>,
        arrives: Vec<u64>,
        spans: u64,
    }

    impl TieLog {
        /// Same-tick events, counted by tick: emissions sharing a tick with
        /// an earlier emission, then `TxDone`s and `Arrive`s on an emission
        /// tick.
        fn ties(&self) -> (usize, usize, usize) {
            let emit_ticks: std::collections::HashSet<u64> = self.emits.iter().copied().collect();
            let shared = |ticks: &[u64]| ticks.iter().filter(|t| emit_ticks.contains(t)).count();
            (
                self.emits.len() - emit_ticks.len(),
                shared(&self.tx_dones),
                shared(&self.arrives),
            )
        }
    }

    impl Probe for TieLog {
        const WANTS_DECISION_VALUES: bool = false;
        fn on_arrival(&mut self, at: Time, id: PacketId) {
            if id.span == self.spans {
                self.spans += 1;
                self.emits.push(at.ticks());
            }
        }
        fn on_depart(&mut self, id: PacketId, _arrival: Time, _start: Time, end: Time, eol: bool) {
            self.tx_dones.push(end.ticks());
            if id.hop == 1 && !eol {
                self.arrives.push(end.ticks() + 777);
            }
        }
    }

    /// [`outcome_digest`]s of the meshes below, captured at the commit
    /// *before* Pareto emissions moved from the event queue to the
    /// emission lane; identical in debug and release.
    const PINNED_TIE_HEAVY: [u64; 2] = [0x4210_de60_2402_9543, 0x234c_45fc_687e_7a69];
    const PINNED_TIE_HEAVY_HOLD: [u64; 2] = [0xe052_82bb_2321_d67c, 0x405f_2ac3_7ed0_3fbc];
    const PINNED_TIE_HEAVY_DROP_LEAVE: [u64; 2] = [0x417d_c8d7_af47_1583, 0x8c2c_d89d_1a1c_acda];
    const PINNED_FAT_TREE: u64 = 0xc75e_821f_b227_948a;
    /// [`outcome_digest`]s of [`two_link_mesh`] with both links of one
    /// rate-holding kind, BPR then WFQ, at unequal rates: captured while a
    /// mesh of one kind still cloned one scheduler built at link 0's rate
    /// and set each copy to its own link's rate; identical in debug and
    /// release.
    const PINNED_UNIFORM_RATES: [u64; 2] = [0x1d01_0791_3c5b_791f, 0x9b23_f26d_ed17_2f95];

    #[test]
    fn uniform_meshes_at_unequal_rates_are_pinned() {
        let kinds = [SchedulerKind::Bpr, SchedulerKind::Wfq];
        for (kind, pinned) in kinds.into_iter().zip(PINNED_UNIFORM_RATES) {
            let cfg = two_link_mesh(kind, kind);
            assert_ne!(cfg.links[0].bps, cfg.links[1].bps);
            let out = crate::Session::mesh(&cfg).run();
            assert!(out.mean_wait(0) > 0.0, "{kind}: the mesh must queue");
            let digest = outcome_digest(&out);
            assert_eq!(digest, pinned, "{kind}: digest {digest:#018x}");
        }
    }

    #[test]
    fn tie_heavy_mesh_outcomes_are_pinned() {
        let mut log = TieLog::default();
        let wtp = crate::Session::mesh(&tie_heavy(ALL_WTP))
            .probe(&mut log)
            .run();
        let (emit_emit, emit_txdone, emit_arrive) = log.ties();
        assert!(emit_emit > 100_000, "{emit_emit} same-tick Emit pairs");
        assert!(emit_txdone > 1_000, "{emit_txdone} Emit/TxDone ties");
        assert!(emit_arrive > 100, "{emit_arrive} Emit/Arrive ties");
        let mixed = crate::Session::mesh(&tie_heavy(MIXED)).run();
        for (out, pinned) in [wtp, mixed].iter().zip(PINNED_TIE_HEAVY) {
            let digest = outcome_digest(out);
            assert_eq!(digest, pinned, "digest {digest:#018x}");
        }
    }

    #[test]
    fn no_pareto_emission_enters_the_event_queue() {
        // What the queue holds at its deepest: a `TxDone` per link, one
        // pending `Emit` per probe, and the `Arrive`s of packets crossing
        // link 1 (777 ticks, sent at least 320 apart) — however many
        // Pareto flows there are. Were their `Emit`s queued, the deepest
        // would grow by one per flow: 12, then 36.
        let base = tie_heavy(ALL_WTP);
        let is_pareto = |f: &&MeshFlow| matches!(f.model, FlowModel::Pareto { .. });
        let paretos: Vec<MeshFlow> = base.flows.iter().filter(is_pareto).cloned().collect();
        let probes = base.flows.len() - paretos.len();
        let mut tripled = base.clone();
        tripled
            .flows
            .extend(paretos.iter().chain(&paretos).cloned());
        for cfg in [base, tripled] {
            let (.., queued) = run_engine(
                Cow::Borrowed(&cfg),
                CrossSources::default(),
                &Scenario::empty(),
                &mut telemetry::NoopProbe,
            );
            assert!(
                queued <= cfg.links.len() + probes + 3,
                "{queued} events queued at once"
            );
        }
    }

    #[test]
    fn no_pareto_cross_emission_enters_the_event_queue() {
        // What a lowered chain's queue holds at its deepest: one `Emit`
        // per user flow (the first scheduled up front, later ones replace
        // them one for one), a `TxDone` per link, the `ScenarioTick` —
        // however many cross sources there are. Were their emissions
        // queued, the deepest would grow by 16, then 64.
        let sc = Scenario::builder()
            .set_link_rate(Time::from_ticks(7), 0, 0.004)
            .build()
            .unwrap();
        let deepest = |cfg: &crate::StudyBConfig| {
            let (mesh, cross) = cfg.lower().unwrap();
            let (out, _, queued) =
                run_engine(Cow::Owned(mesh), cross, &sc, &mut telemetry::NoopProbe);
            assert!(out.link_departures.iter().all(|&d| d > 1_000));
            queued
        };
        let mut cfg = crate::StudyBConfig::paper(2, 0.9, 10, 200.0);
        (cfg.experiments, cfg.warmup_secs, cfg.seed) = (5, 2.0, 42);
        let user_flows = cfg.experiments as usize * cfg.num_classes();
        for k in [2, 8] {
            cfg.k_hops = k;
            let queued = deepest(&cfg);
            assert!(
                queued <= user_flows + k + 3,
                "{queued} events queued at once"
            );
        }
        // ECN-adaptive sources are closed-loop and stay scheduled.
        cfg.k_hops = 2;
        cfg.cross_model = CrossModel::default_ecn();
        let queued = deepest(&cfg);
        assert!(queued >= 16, "{queued} events queued at once");
    }

    #[test]
    fn a_probed_mesh_hears_heartbeats_counting_queue_and_lanes() {
        /// Per heartbeat: its tick, event count and depth.
        #[derive(Default)]
        struct Beats(Vec<(u64, u64, usize)>);
        impl Probe for Beats {
            const WANTS_DECISION_VALUES: bool = false;
            fn on_heartbeat(&mut self, at: Time, events: u64, depth: usize) {
                self.0.push((at.ticks(), events, depth));
            }
        }
        // Twelve Pareto flows with gaps of a few ticks: every clock is live
        // through the first half of the emission horizon and none after
        // it, while the links drain; no emission is ever in the queue.
        let cfg = tie_heavy(ALL_WTP);
        let paretos = (cfg.flows.iter())
            .filter(|f| matches!(f.model, FlowModel::Pareto { .. }))
            .count();
        let mut beats = Beats::default();
        let (out, .., queued) = run_engine(
            Cow::Borrowed(&cfg),
            CrossSources::default(),
            &Scenario::empty(),
            &mut beats,
        );
        assert_eq!(outcome_digest(&out), PINNED_TIE_HEAVY[0]);
        let (mut early, mut late) = (0, 0);
        for (i, &(at, events, depth)) in beats.0.iter().enumerate() {
            assert_eq!(events, (i as u64 + 1) * HEARTBEAT_EVERY);
            if at <= TIE_HORIZON / 2 {
                early += 1;
                assert!(
                    (paretos + 1..=paretos + queued).contains(&depth),
                    "depth {depth} with {paretos} live clocks, {queued} queued at most"
                );
            } else if at > TIE_HORIZON {
                late += 1;
                assert!(
                    (1..=queued).contains(&depth),
                    "depth {depth} past the horizon"
                );
            }
        }
        assert!(
            early >= 2 && late >= 1,
            "{early} early, {late} late heartbeats"
        );
    }

    #[test]
    fn events_and_flow_models_keep_their_size() {
        // An `Entry` of the event queue is a key and an event in 32 bytes;
        // a `FlowModel` is paid per `MeshFlow` and `HostFlow`.
        assert!(std::mem::size_of::<Ev>() <= 12);
        assert_eq!(std::mem::size_of::<FlowModel>(), 24);
    }

    #[test]
    fn tie_heavy_mesh_outcomes_under_scenarios_are_pinned() {
        // The emission clocks keep ticking through an outage and while a
        // class is away: `rt.admits` gates arrivals, not `Emit`s.
        let at = Time::from_ticks;
        let hold = Scenario::builder()
            .link_down(at(4_000), 3, DownPolicy::Hold)
            .link_up(at(9_000), 3)
            .build()
            .unwrap();
        let drop_leave = Scenario::builder()
            .class_leave(at(3_000), 1)
            .link_down(at(5_000), 2, DownPolicy::Drop)
            .link_up(at(11_000), 2)
            .class_join(at(15_000), 1)
            .build()
            .unwrap();
        for (sc, pinned) in [
            (hold, PINNED_TIE_HEAVY_HOLD),
            (drop_leave, PINNED_TIE_HEAVY_DROP_LEAVE),
        ] {
            for (kinds, pinned) in [ALL_WTP, MIXED].into_iter().zip(pinned) {
                let cfg = tie_heavy(kinds);
                let out = crate::Session::mesh(&cfg).scenario(sc.clone()).run();
                let digest = outcome_digest(&out);
                assert_eq!(digest, pinned, "digest {digest:#018x}");
            }
        }
    }

    /// The `mesh-coupled` benchmark workload at 1/20 size: a k = 4
    /// fat-tree of 1 Gb/s WTP links under the paper's cross mix at 0.55,
    /// 3 000 two-packet probes over a 3 ms horizon, seed 1.
    fn small_fat_tree() -> crate::TopologyConfig {
        use crate::topology::splitmix64;
        const HORIZON: u64 = 3_000_000;
        let cross = crate::CrossTraffic::paper(0.55);
        let spec = LinkSpec::new(1e9, SchedulerKind::Wtp).with_cross(cross);
        let topology = crate::Topology::fat_tree(4, &spec).unwrap();
        let hosts = topology.hosts();
        let h = hosts.len() as u64;
        let flows = (0..3_000u64)
            .map(|i| {
                let key = splitmix64(1 ^ i);
                let src = key % h;
                let dst = (src + 1 + splitmix64(key) % (h - 1)) % h;
                crate::HostFlow {
                    src: hosts[src as usize],
                    dst: hosts[dst as usize],
                    class: (i % 4) as u8,
                    packet_bytes: 100,
                    model: FlowModel::Periodic {
                        gap_ticks: 500_000,
                        count: 2,
                    },
                    start_ticks: 1 + splitmix64(key ^ 0xABCD) % (HORIZON / 2),
                }
            })
            .collect();
        crate::TopologyConfig {
            topology,
            sdp: Sdp::paper_default(),
            flows,
            seed: 1,
            cross_horizon_ticks: HORIZON,
        }
    }

    #[test]
    fn small_fat_tree_outcome_is_pinned() {
        let out = crate::Session::topology(&small_fat_tree()).unwrap().run();
        assert_eq!(out.per_flow_waits.len(), 3_000 + 3_072);
        assert!(out.link_departures.iter().sum::<u64>() > 60_000);
        let digest = outcome_digest(&out);
        assert_eq!(digest, PINNED_FAT_TREE, "digest {digest:#018x}");
    }

    #[test]
    fn a_fat_tree_is_recorded_once() {
        let cfg = small_fat_tree().to_mesh().unwrap();
        let registry = assert_recorded_once(Cow::Owned(cfg), CrossSources::default());
        assert!(registry.class_total(0).hop_departures > 10_000);
    }

    #[test]
    fn second_emissions_wait_in_the_tail_lane_not_in_the_heap() {
        // Each probe's second `Emit` is scheduled 500 µs out while every
        // `TxDone` is microseconds ahead: the former are pushed in key
        // order and wait in the event queue's tail lane, so the binary
        // heap holds the links' transmissions and little else. The events
        // pending at the deepest are as many as before there was a tail.
        let cfg = small_fat_tree().to_mesh().unwrap();
        let mut probe = telemetry::NoopProbe;
        let mut sim = lower(
            &cfg,
            CrossSources::default(),
            &Scenario::empty(),
            &mut probe,
        );
        let mut deepest_heap = 0;
        while sim.step() {
            deepest_heap = deepest_heap.max(sim.heap_len());
        }
        assert!(
            deepest_heap <= cfg.links.len() + 3,
            "{deepest_heap} events in the heap at once"
        );
        assert_eq!(sim.heap_high_water(), 3_096);
    }

    #[test]
    fn delivery_log_returns_every_wait_exact_and_in_delivery_order() {
        const M: u64 = u32::MAX as u64;
        // Around the 32-bit marker, flows interleaved; flow 1 delivers
        // nothing, flow 3 is the last id the log is sized for.
        let deliveries = [
            (2, M - 1),
            (0, M),
            (2, 0),
            (0, M + 1),
            (3, u64::MAX / 2),
            (2, M),
            (0, 7),
            (2, u64::MAX),
            (3, M - 1),
        ];
        let mut log = DeliveryLog::default();
        for (flow, wait) in deliveries {
            log.push(flow, wait);
        }
        assert_eq!((log.entries.len(), log.long.len()), (9, 5));
        let per_flow = log.into_per_flow(4);
        let of = |flow| -> Vec<u64> {
            let own = deliveries.iter().filter(|d| d.0 == flow);
            own.map(|d| d.1).collect()
        };
        assert_eq!(per_flow, [of(0), of(1), of(2), of(3)]);
        assert!(per_flow[1].is_empty() && per_flow[2].len() == 4);
    }

    /// [`outcome_digest`]s captured at the commit *before* deliveries moved
    /// to one log and far-future pushes to the event queue's tail lane;
    /// identical in debug and release.
    const PINNED_LONG_WAITS: u64 = 0xf721_e5de_e9c9_189e;
    const PINNED_PERIODIC_HEAVY: u64 = 0x5772_e434_9d62_e68c;

    #[test]
    fn waits_beyond_32_bits_are_pinned() {
        // The Y topology with its shared link held down for 5.5 s: what
        // reaches link 2 in the first 1.2 s of the outage waits longer
        // than 2³² ticks (4.29 s), what comes later less, and the backlog
        // drains in WTP's order, not in arrival order.
        let periodic = |route: &[usize], class, gap_ticks, count, start_ticks| MeshFlow {
            route: route.to_vec(),
            class,
            packet_bytes: 500,
            model: FlowModel::Periodic { gap_ticks, count },
            start_ticks,
        };
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link(), wtp_link(), wtp_link()],
            flows: vec![
                periodic(&[0, 2], 0, 190_000_000, 32, 0),
                periodic(&[0, 2], 3, 210_000_000, 30, 7),
                periodic(&[1, 2], 1, 170_000_000, 36, 0),
                periodic(&[1, 2], 2, 230_000_000, 27, 160_000),
                periodic(&[2], 3, 1_000_000_000, 7, 50_000_000),
            ],
            seed: 3,
        };
        let outage = Scenario::builder()
            .link_down(Time::from_ticks(100_000_000), 2, DownPolicy::Hold)
            .link_up(Time::from_ticks(5_600_000_000), 2)
            .build()
            .unwrap();
        let out = crate::Session::mesh(&cfg).scenario(outage).run();
        let all = || out.per_flow_waits.iter().flatten();
        assert_eq!(all().count(), 32 + 30 + 36 + 27 + 7);
        let long = all().filter(|&&w| w > u64::from(u32::MAX)).count();
        let short = all().filter(|&&w| 0 < w && w < u64::from(u32::MAX)).count();
        assert!(long >= 20 && short >= 20, "{long} long, {short} short");
        let digest = outcome_digest(&out);
        assert_eq!(digest, PINNED_LONG_WAITS, "digest {digest:#018x}");
    }

    /// A mesh of `Periodic` flows only: forty flows of 1–3-byte packets
    /// (320–960 ticks a transmission) over the six links of [`tie_heavy`],
    /// their gaps unequal — so the next `Emit` a handler schedules lands
    /// now behind, now ahead of the ones already pending — and mostly
    /// multiples of 160 ticks, like the starts and the transmissions, so
    /// that ticks are shared. Link 1 propagates for 777 ticks, and a start
    /// is off the 160-tick grid by up to two such delays, so `Arrive`s
    /// share ticks too.
    fn periodic_heavy() -> MeshConfig {
        use crate::topology::splitmix64;
        const ROUTES: [&[usize]; 8] = [
            &[0, 2],
            &[1, 3],
            &[1, 2],
            &[0, 3],
            &[1, 4],
            &[4, 5],
            &[5, 3],
            &[2],
        ];
        const GAPS: [u64; 8] = [320, 480, 777, 800, 1_120, 1_554, 2_240, 5_000];
        let flows = (0..40u64)
            .map(|i| {
                let key = splitmix64(i);
                MeshFlow {
                    route: ROUTES[(key % 8) as usize].to_vec(),
                    class: (i % 4) as u8,
                    packet_bytes: 1 + (key >> 8) as u32 % 3,
                    model: FlowModel::Periodic {
                        gap_ticks: GAPS[(key >> 16) as usize % 8],
                        count: 150 + (key >> 24) as u32 % 100,
                    },
                    start_ticks: 160 * ((key >> 32) % 50) + 777 * ((key >> 40) % 3),
                }
            })
            .collect();
        MeshConfig {
            flows,
            ..tie_heavy(ALL_WTP)
        }
    }

    #[test]
    fn periodic_heavy_mesh_outcome_is_pinned() {
        let cfg = periodic_heavy();
        let mut log = TieLog::default();
        let out = crate::Session::mesh(&cfg).probe(&mut log).run();
        let (emit_emit, emit_txdone, emit_arrive) = log.ties();
        assert!(emit_emit > 2_000, "{emit_emit} same-tick Emit pairs");
        assert!(emit_txdone > 1_000, "{emit_txdone} Emit/TxDone ties");
        assert!(emit_arrive > 200, "{emit_arrive} Emit/Arrive ties");
        let digest = outcome_digest(&out);
        assert_eq!(digest, PINNED_PERIODIC_HEAVY, "digest {digest:#018x}");
    }

    #[test]
    fn propagation_shifts_arrivals_but_not_waits() {
        // An unloaded 2-hop route: propagation delays hop-2 arrivals but
        // queueing waits stay zero, and every packet still gets delivered.
        let cfg = MeshConfig {
            sdp: Sdp::paper_default(),
            links: vec![wtp_link().with_propagation(5_000_000), wtp_link()],
            flows: vec![probe(vec![0, 1], 3, 0)],
            seed: 1,
        };
        let out = crate::Session::mesh(&cfg).run();
        assert_eq!(out.per_flow_waits[0].len(), 50);
        assert!(out.per_flow_waits[0].iter().all(|&w| w == 0));
        assert_eq!(out.link_departures, vec![50, 50]);
    }
}
