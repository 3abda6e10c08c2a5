//! Study-B configuration.

use sched::{SchedulerKind, Sdp};

use crate::emission::{CrossSources, CrossStream, EcnSources, MAX_STREAM_SOURCES};
use crate::link::{CrossTraffic, LinkSpec};
use crate::mesh::{FlowModel, MeshConfig, MeshFlow};
use crate::TICKS_PER_SEC;

/// Hops a chain may have: the engine numbers links in a `u16`.
const MAX_HOPS: usize = u16::MAX as usize;

/// How cross-traffic sources generate load.
#[derive(Debug, Clone, PartialEq)]
pub enum CrossModel {
    /// Open-loop Pareto(α = 1.9) interarrivals at the rate that hits the
    /// target utilization — the paper's §6 setup.
    Pareto,
    /// Closed-loop ECN-reacting sources (§3's "sources that adjust their
    /// rate using the ECN bit"): each source sends periodically at its
    /// current rate, halves the rate when it sees its link's queue above
    /// `mark_threshold_bytes` (an ECN mark), and otherwise increases it
    /// additively — a crude AIMD that sustains high utilization without
    /// unbounded queues.
    EcnAdaptive {
        /// Queue depth that triggers a mark, in bytes.
        mark_threshold_bytes: u64,
        /// Additive increase per unmarked packet, in bits/s.
        increase_bps: f64,
        /// Lower bound on a source's rate as a fraction of its fair share.
        min_rate_fraction: f64,
    },
}

impl CrossModel {
    /// A reasonable ECN configuration: mark above 64 kB of queue,
    /// +50 kbit/s per unmarked packet, floor at 10 % of fair share.
    pub fn default_ecn() -> Self {
        CrossModel::EcnAdaptive {
            mark_threshold_bytes: 64 * 1024,
            increase_bps: 50_000.0,
            min_rate_fraction: 0.1,
        }
    }
}

/// Parameters of one Study-B run (defaults = the paper's Table-1 setup).
/// # Example
///
/// ```no_run
/// use netsim::{analyze, packet_time_tolerance, Session, StudyBConfig};
///
/// // One Table-1 cell, scaled down.
/// let cfg = StudyBConfig::builder(4, 0.95, 10, 200.0)
///     .experiments(10)
///     .warmup_secs(5.0)
///     .build()
///     .unwrap();
/// let records = Session::study_b(&cfg).run();
/// let result = analyze(&records, cfg.num_classes(), packet_time_tolerance(&cfg));
/// assert!((result.rd - 2.0).abs() < 0.6); // ideal 2.00
/// ```
#[derive(Debug, Clone)]
pub struct StudyBConfig {
    /// Number of congested hops K on the user path (4 or 8 in Table 1).
    pub k_hops: usize,
    /// Link bandwidth in bits per second (25 Mbps in the paper).
    pub link_bps: f64,
    /// Scheduler at every link (WTP in the paper).
    pub scheduler: SchedulerKind,
    /// Scheduler Differentiation Parameters (1, 2, 4, 8 in the paper).
    pub sdp: Sdp,
    /// Target utilization ρ of every link (0.85 or 0.95).
    pub utilization: f64,
    /// Cross-traffic sources per node (C = 8).
    pub cross_sources: usize,
    /// Cross-traffic class mix (40/30/20/10 % in the paper).
    pub cross_class_fractions: Vec<f64>,
    /// Packet size for both cross and user traffic, bytes (500).
    pub packet_bytes: u32,
    /// User-flow length F in packets (10 or 100).
    pub flow_len: u32,
    /// User-flow rate R_u in kbit/s (50 or 200).
    pub flow_rate_kbps: f64,
    /// Number of user experiments M (100), launched one per second.
    pub experiments: u32,
    /// Warm-up before the first experiment, seconds (100 in the paper).
    pub warmup_secs: f64,
    /// RNG seed.
    pub seed: u64,
    /// Cross-traffic generation model.
    pub cross_model: CrossModel,
    /// Per-link scheduler override (one entry per hop); `None` = use
    /// `scheduler` everywhere. Lets experiments model partially deployed
    /// differentiation (e.g. one legacy FCFS hop on the path).
    pub link_schedulers: Option<Vec<SchedulerKind>>,
    /// The user flows' path as `(entry_hop, exit_hop)`: packets enter the
    /// queue of link `entry_hop` and leave the network after link
    /// `exit_hop − 1`. `None` = the full chain `(0, k_hops)`.
    pub user_path: Option<(usize, usize)>,
    /// Per-link utilization override (one entry per hop); `None` = the
    /// uniform `utilization` everywhere. Models a single bottleneck hop on
    /// an otherwise lightly loaded path.
    pub utilization_per_link: Option<Vec<f64>>,
    /// Propagation delay per link, in ns. The paper sets this to zero and
    /// excludes it from the delay metric (it is common to all classes);
    /// the knob exists to show that queueing-delay differentiation is
    /// unaffected by it.
    pub propagation_ns: u64,
}

impl StudyBConfig {
    /// The paper's Table-1 cell `(K, ρ, F, R_u)` with full-scale M and
    /// warm-up.
    pub fn paper(k_hops: usize, utilization: f64, flow_len: u32, flow_rate_kbps: f64) -> Self {
        StudyBConfig {
            k_hops,
            link_bps: 25_000_000.0,
            scheduler: SchedulerKind::Wtp,
            sdp: Sdp::paper_default(),
            utilization,
            cross_sources: 8,
            cross_class_fractions: vec![0.4, 0.3, 0.2, 0.1],
            packet_bytes: 500,
            flow_len,
            flow_rate_kbps,
            experiments: 100,
            warmup_secs: 100.0,
            seed: 1,
            cross_model: CrossModel::Pareto,
            link_schedulers: None,
            user_path: None,
            utilization_per_link: None,
            propagation_ns: 0,
        }
    }

    /// A validating builder seeded from the paper cell `(K, ρ, F, R_u)`:
    /// chain the optional knobs, then [`build`](StudyBConfigBuilder::build)
    /// returns `Err` instead of deferring to a panic inside the engine.
    pub fn builder(
        k_hops: usize,
        utilization: f64,
        flow_len: u32,
        flow_rate_kbps: f64,
    ) -> StudyBConfigBuilder {
        StudyBConfigBuilder {
            cfg: StudyBConfig::paper(k_hops, utilization, flow_len, flow_rate_kbps),
        }
    }

    /// Number of service classes (one user flow per class).
    pub fn num_classes(&self) -> usize {
        self.sdp.num_classes()
    }

    /// Link rate in bytes per tick (bytes per ns).
    pub fn link_bytes_per_tick(&self) -> f64 {
        self.link_bps / 8.0 / TICKS_PER_SEC as f64
    }

    /// Gap between packets of one user flow, in ticks: `L·8 / R_u`.
    pub fn user_packet_gap_ticks(&self) -> u64 {
        let bits = self.packet_bytes as f64 * 8.0;
        (bits / (self.flow_rate_kbps * 1000.0) * TICKS_PER_SEC as f64).round() as u64
    }

    /// Long-run average user-traffic rate in bits/s: one experiment per
    /// second, each sending `num_classes · F` packets.
    pub fn user_avg_bps(&self) -> f64 {
        self.num_classes() as f64 * self.flow_len as f64 * self.packet_bytes as f64 * 8.0
    }

    /// The user flows' effective `(entry, exit)` hops.
    pub fn user_hops(&self) -> (usize, usize) {
        self.user_path.unwrap_or((0, self.k_hops))
    }

    /// The target utilization of link `l`.
    pub fn utilization_for_link(&self, l: usize) -> f64 {
        self.utilization_per_link
            .as_ref()
            .map(|v| v[l])
            .unwrap_or(self.utilization)
    }

    /// Aggregate cross-traffic rate (bits/s) needed at node `l` to hit that
    /// link's utilization target given the pass-through user traffic.
    pub fn cross_total_bps_for_link(&self, l: usize) -> f64 {
        let (entry, exit) = self.user_hops();
        let user = if l >= entry && l < exit {
            self.user_avg_bps()
        } else {
            0.0
        };
        let cross = self.utilization_for_link(l) * self.link_bps - user;
        assert!(
            cross > 0.0,
            "user traffic alone exceeds link {l}'s utilization target"
        );
        cross
    }

    /// Mean interarrival gap of one cross source at node `l`, in ticks.
    pub fn cross_gap_ticks_for_link(&self, l: usize) -> f64 {
        let per_source_bps = self.cross_total_bps_for_link(l) / self.cross_sources as f64;
        let bits = self.packet_bytes as f64 * 8.0;
        bits / per_source_bps * TICKS_PER_SEC as f64
    }

    /// The scheduler for link `l`.
    pub fn scheduler_for_link(&self, l: usize) -> SchedulerKind {
        self.link_schedulers
            .as_ref()
            .map(|v| v[l])
            .unwrap_or(self.scheduler)
    }

    /// Hop `l` as a [`LinkSpec`] — the shared per-link description every
    /// simulator in this crate consumes. The cross model's utilization is
    /// the *cross share alone*: the chain's total target minus the
    /// pass-through user traffic.
    pub fn link_spec(&self, l: usize) -> LinkSpec {
        LinkSpec {
            bps: self.link_bps,
            scheduler: self.scheduler_for_link(l),
            propagation_ns: self.propagation_ns,
            cross: Some(CrossTraffic {
                model: self.cross_model.clone(),
                utilization: self.cross_total_bps_for_link(l) / self.link_bps,
                sources: self.cross_sources,
                class_fractions: self.cross_class_fractions.clone(),
                packet_bytes: self.packet_bytes,
            }),
        }
    }

    /// Duration of one user flow in seconds.
    pub fn flow_duration_secs(&self) -> f64 {
        self.flow_len as f64 * self.user_packet_gap_ticks() as f64 / TICKS_PER_SEC as f64
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.k_hops == 0 {
            return Err("need at least one hop".into());
        }
        // The engine numbers hops and cross sources in 16 bits; beyond
        // them a source would silently feed another node's link.
        if self.k_hops > MAX_HOPS {
            return Err(format!(
                "k_hops {} exceeds the chain's {MAX_HOPS} hops",
                self.k_hops
            ));
        }
        let sources = self.k_hops.checked_mul(self.cross_sources);
        if sources.is_none_or(|n| n > MAX_STREAM_SOURCES) {
            return Err(format!(
                "{} hops x {} cross sources exceed the chain's {MAX_STREAM_SOURCES} sources",
                self.k_hops, self.cross_sources
            ));
        }
        if !(self.utilization > 0.0 && self.utilization < 1.0) {
            return Err(format!(
                "utilization must be in (0,1), got {}",
                self.utilization
            ));
        }
        if self.flow_len == 0 || self.experiments == 0 {
            return Err("flow_len and experiments must be positive".into());
        }
        if let Some(ls) = &self.link_schedulers {
            if ls.len() != self.k_hops {
                return Err(format!(
                    "link_schedulers has {} entries for {} hops",
                    ls.len(),
                    self.k_hops
                ));
            }
        }
        if let Some(us) = &self.utilization_per_link {
            if us.len() != self.k_hops {
                return Err(format!(
                    "utilization_per_link has {} entries for {} hops",
                    us.len(),
                    self.k_hops
                ));
            }
            if us.iter().any(|&u| !(u > 0.0 && u < 1.0)) {
                return Err("per-link utilizations must be in (0,1)".into());
            }
        }
        let (entry, exit) = self.user_hops();
        if entry >= exit || exit > self.k_hops {
            return Err(format!(
                "user_path ({entry}, {exit}) must satisfy entry < exit <= k_hops"
            ));
        }
        // Per-hop checks funnel through the shared LinkSpec validator. The
        // overload guard must run first: `link_spec` derives the cross
        // share as target − user, which asserts positivity.
        for l in 0..self.k_hops {
            let user = if l >= entry && l < exit {
                self.user_avg_bps()
            } else {
                0.0
            };
            if self.utilization_for_link(l) * self.link_bps <= user {
                return Err("user traffic alone exceeds the utilization target".into());
            }
            self.link_spec(l)
                .validate(self.num_classes())
                .map_err(|e| format!("hop {l}: {e}"))?;
        }
        self.timeline().map(|_| ())
    }

    /// The tick of the first experiment, and the last instant at which
    /// cross sources may emit: they keep the network loaded until two
    /// seconds after the last user flow has sent its last packet. `Err`
    /// for rates and warm-ups that are not times, and for a timeline the
    /// clock cannot hold.
    fn timeline(&self) -> Result<(u64, u64), String> {
        if !(self.flow_rate_kbps > 0.0 && self.flow_rate_kbps.is_finite()) {
            return Err(format!(
                "flow_rate_kbps must be positive and finite, got {}",
                self.flow_rate_kbps
            ));
        }
        if !(self.warmup_secs >= 0.0 && self.warmup_secs.is_finite()) {
            return Err(format!(
                "warmup_secs must be non-negative and finite, got {}",
                self.warmup_secs
            ));
        }
        let gap = self.user_packet_gap_ticks();
        if gap == 0 {
            return Err(format!(
                "at {} kbit/s a flow's packets are less than a tick apart",
                self.flow_rate_kbps
            ));
        }
        // Both casts saturate, and a saturated term fails the sums below.
        let warmup_ticks = (self.warmup_secs * TICKS_PER_SEC as f64).round() as u64;
        let last_start = (u64::from(self.experiments) - 1) * TICKS_PER_SEC;
        let cross_end = u64::from(self.flow_len)
            .checked_mul(gap)
            .and_then(|flow_ticks| flow_ticks.checked_add(2 * TICKS_PER_SEC))
            .and_then(|tail| tail.checked_add(last_start))
            .and_then(|after_warmup| after_warmup.checked_add(warmup_ticks));
        match cross_end {
            Some(cross_end) => Ok((warmup_ticks, cross_end)),
            None => Err("the run does not end within 2^64 ticks".into()),
        }
    }

    /// The chain as the coupled engine runs it: a link per hop;
    /// `experiments × classes` periodic user flows over the user path, flow
    /// `exp · classes + class` launched `exp` seconds after the warm-up;
    /// and every node's cross traffic. `Err` as [`validate`](Self::validate).
    pub(crate) fn lower(&self) -> Result<(MeshConfig, CrossSources), String> {
        self.validate()?;
        let (warmup_ticks, cross_end) = self.timeline()?;
        let links = (0..self.k_hops)
            .map(|l| {
                LinkSpec::new(self.link_bps, self.scheduler_for_link(l))
                    .with_propagation(self.propagation_ns)
            })
            .collect();
        let (entry, exit) = self.user_hops();
        let model = FlowModel::Periodic {
            gap_ticks: self.user_packet_gap_ticks(),
            count: self.flow_len,
        };
        let flows = (0..self.experiments)
            .flat_map(|exp| {
                (0..self.num_classes() as u8).map(move |class| MeshFlow {
                    route: (entry..exit).collect(),
                    class,
                    packet_bytes: self.packet_bytes,
                    model,
                    start_ticks: warmup_ticks + u64::from(exp) * TICKS_PER_SEC,
                })
            })
            .collect();
        let mesh = MeshConfig {
            sdp: self.sdp.clone(),
            links,
            flows,
            seed: self.seed,
        };
        // C independent sources per node — the superposition of C
        // heavy-tailed sources is *not* equivalent to one source at C×
        // rate, so each keeps its own clock. Gaps are per node so links
        // can run at different utilizations. Closed-loop sources leave no
        // open-loop one: an empty stream.
        let ecn = EcnSources::new(self, cross_end);
        let open_loop = if ecn.is_some() { 0 } else { self.k_hops };
        let gaps: Vec<f64> = (0..open_loop)
            .map(|l| self.cross_gap_ticks_for_link(l))
            .collect();
        let (fractions, sources) = (&self.cross_class_fractions, self.cross_sources);
        let cross = CrossSources {
            stream: CrossStream::new(self.seed, &gaps, sources, fractions, cross_end),
            ecn,
            packet_bytes: self.packet_bytes,
        };
        Ok((mesh, cross))
    }
}

/// Builder for [`StudyBConfig`] whose [`build`](Self::build) validates the
/// whole configuration, returning `Err` for rejected combinations instead
/// of panicking mid-run. Created by [`StudyBConfig::builder`].
#[derive(Debug, Clone)]
pub struct StudyBConfigBuilder {
    cfg: StudyBConfig,
}

impl StudyBConfigBuilder {
    /// Scheduler used at every link (default WTP).
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.cfg.scheduler = kind;
        self
    }

    /// Scheduler Differentiation Parameters (default 1, 2, 4, 8).
    pub fn sdp(mut self, sdp: Sdp) -> Self {
        self.cfg.sdp = sdp;
        self
    }

    /// Link bandwidth in bits per second (default 25 Mbps).
    pub fn link_bps(mut self, bps: f64) -> Self {
        self.cfg.link_bps = bps;
        self
    }

    /// Number of user experiments M (default 100).
    pub fn experiments(mut self, m: u32) -> Self {
        self.cfg.experiments = m;
        self
    }

    /// Warm-up before the first experiment, seconds (default 100).
    pub fn warmup_secs(mut self, secs: f64) -> Self {
        self.cfg.warmup_secs = secs;
        self
    }

    /// RNG seed (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Cross-traffic generation model (default open-loop Pareto).
    pub fn cross_model(mut self, model: CrossModel) -> Self {
        self.cfg.cross_model = model;
        self
    }

    /// Per-link scheduler override, one entry per hop.
    pub fn link_schedulers(mut self, kinds: Vec<SchedulerKind>) -> Self {
        self.cfg.link_schedulers = Some(kinds);
        self
    }

    /// The user flows' path as `(entry_hop, exit_hop)`.
    pub fn user_path(mut self, entry: usize, exit: usize) -> Self {
        self.cfg.user_path = Some((entry, exit));
        self
    }

    /// Per-link utilization override, one entry per hop.
    pub fn utilization_per_link(mut self, targets: Vec<f64>) -> Self {
        self.cfg.utilization_per_link = Some(targets);
        self
    }

    /// Propagation delay per link, in ns (default 0).
    pub fn propagation_ns(mut self, ns: u64) -> Self {
        self.cfg.propagation_ns = ns;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<StudyBConfig, String> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cell_derives_sane_parameters() {
        let c = StudyBConfig::paper(4, 0.95, 100, 50.0);
        assert!(c.validate().is_ok());
        // 500 B at 25 Mbps = 160 µs.
        assert!((c.link_bytes_per_tick() - 0.003125).abs() < 1e-12);
        // 4000 bits at 50 kbps = 80 ms.
        assert_eq!(c.user_packet_gap_ticks(), 80_000_000);
        // User average: 4 flows × 100 pkts × 4000 bits per second = 1.6 Mbps.
        assert!((c.user_avg_bps() - 1_600_000.0).abs() < 1e-6);
        // Cross total: 0.95·25M − 1.6M = 22.15 Mbps.
        assert!((c.cross_total_bps_for_link(0) - 22_150_000.0).abs() < 1.0);
        // Flow duration: 100 × 80 ms = 8 s.
        assert!((c.flow_duration_secs() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_overload_by_user_traffic() {
        let mut c = StudyBConfig::paper(4, 0.95, 100, 50.0);
        c.link_bps = 1_500_000.0; // user 1.6 Mbps alone exceeds 0.95×1.5M
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_fractions() {
        let mut c = StudyBConfig::paper(4, 0.9, 10, 50.0);
        c.cross_class_fractions = vec![0.5, 0.5];
        assert!(c.validate().is_err());
    }

    #[test]
    fn link_scheduler_overrides_validated() {
        let mut c = StudyBConfig::paper(4, 0.9, 10, 50.0);
        c.link_schedulers = Some(vec![SchedulerKind::Wtp; 3]);
        assert!(c.validate().is_err());
        c.link_schedulers = Some(vec![
            SchedulerKind::Wtp,
            SchedulerKind::Fcfs,
            SchedulerKind::Wtp,
            SchedulerKind::Wtp,
        ]);
        assert!(c.validate().is_ok());
        assert_eq!(c.scheduler_for_link(1), SchedulerKind::Fcfs);
        assert_eq!(c.scheduler_for_link(0), SchedulerKind::Wtp);
    }

    #[test]
    fn per_link_utilization_validated_and_applied() {
        let mut c = StudyBConfig::paper(3, 0.85, 10, 50.0);
        c.utilization_per_link = Some(vec![0.5, 0.95, 0.5]);
        assert!(c.validate().is_ok());
        assert!((c.utilization_for_link(1) - 0.95).abs() < 1e-12);
        assert!(c.cross_total_bps_for_link(1) > c.cross_total_bps_for_link(0));
        c.utilization_per_link = Some(vec![0.5, 0.95]);
        assert!(c.validate().is_err());
        c.utilization_per_link = Some(vec![0.5, 1.2, 0.5]);
        assert!(c.validate().is_err());
    }

    #[test]
    fn user_path_validated() {
        let mut c = StudyBConfig::paper(4, 0.9, 10, 50.0);
        c.user_path = Some((1, 3));
        assert!(c.validate().is_ok());
        c.user_path = Some((3, 3));
        assert!(c.validate().is_err());
        c.user_path = Some((0, 5));
        assert!(c.validate().is_err());
    }

    #[test]
    fn oversize_chains_are_rejected_not_aliased() {
        // 70 000 hops used to validate, and cross sources of node
        // 65 536 + n fed link n (`node as u16`).
        let err = StudyBConfig::builder(70_000, 0.9, 10, 50.0)
            .build()
            .unwrap_err();
        assert!(err.contains("k_hops 70000"), "{err}");
        // Within the hop limit, the sources' index is what runs out.
        let mut c = StudyBConfig::paper(8_192, 0.9, 10, 50.0);
        assert!(c.validate().is_ok());
        c.cross_sources = 9;
        let err = c.validate().unwrap_err();
        assert!(err.contains("8192 hops x 9 cross sources"), "{err}");
        c.cross_sources = usize::MAX;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_accepts_the_paper_cell() {
        let cfg = StudyBConfig::builder(4, 0.95, 10, 200.0)
            .experiments(10)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(cfg.experiments, 10);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builder_rejects_mismatched_link_schedulers() {
        let err = StudyBConfig::builder(4, 0.9, 10, 50.0)
            .link_schedulers(vec![SchedulerKind::Fcfs; 3])
            .build()
            .unwrap_err();
        assert!(err.contains("link_schedulers"), "{err}");
    }

    #[test]
    fn builder_rejects_overloaded_links() {
        let err = StudyBConfig::builder(4, 0.95, 100, 50.0)
            .link_bps(1_500_000.0)
            .build()
            .unwrap_err();
        assert!(err.contains("utilization target"), "{err}");
    }

    #[test]
    fn builder_rejects_bad_user_path() {
        let err = StudyBConfig::builder(4, 0.9, 10, 50.0)
            .user_path(3, 3)
            .build()
            .unwrap_err();
        assert!(err.contains("user_path"), "{err}");
    }

    #[test]
    fn builder_rejects_out_of_range_per_link_utilization() {
        let err = StudyBConfig::builder(3, 0.85, 10, 50.0)
            .utilization_per_link(vec![0.5, 1.2, 0.5])
            .build()
            .unwrap_err();
        assert!(err.contains("(0,1)"), "{err}");
    }

    #[test]
    fn flow_rates_that_are_not_rates_are_rejected() {
        for rate in [0.0, -50.0, f64::NAN, f64::INFINITY] {
            let err = StudyBConfig::builder(4, 0.9, 10, rate).build().unwrap_err();
            assert!(err.contains("flow_rate_kbps"), "{rate}: {err}");
        }
    }

    #[test]
    fn warmups_that_are_not_times_are_rejected() {
        for secs in [-3.0, f64::NAN, f64::INFINITY] {
            let err = StudyBConfig::builder(4, 0.9, 10, 50.0)
                .warmup_secs(secs)
                .build()
                .unwrap_err();
            assert!(err.contains("warmup_secs"), "{secs}: {err}");
        }
    }

    #[test]
    fn a_user_gap_under_one_tick_is_rejected() {
        // 4 000 bits at 10^13 kbit/s: 0.0004 ticks apart.
        let err = StudyBConfig::builder(4, 0.9, 10, 1e13).build().unwrap_err();
        assert!(err.contains("less than a tick apart"), "{err}");
        assert_eq!(
            StudyBConfig::paper(4, 0.9, 10, 1e13).user_packet_gap_ticks(),
            0
        );
    }

    #[test]
    fn a_timeline_past_the_end_of_the_clock_is_rejected() {
        // A warm-up that saturates the clock, and gaps that do (no user
        // load to speak of, so the utilization guard lets both through).
        let late = StudyBConfig::builder(4, 0.9, 10, 50.0).warmup_secs(1e30);
        let slow = StudyBConfig::builder(4, 0.9, 10, 1e-300);
        // 1.8e19 ticks of warm-up, 8e17 of flow: each fits, the sum does not.
        let both = StudyBConfig::builder(4, 0.9, 200, 1e-6).warmup_secs(1.8e10);
        for (what, cfg) in [("warm-up", late), ("gap", slow), ("sum", both)] {
            let err = cfg.build().unwrap_err();
            assert!(err.contains("2^64 ticks"), "{what}: {err}");
        }
        let fits = StudyBConfig::builder(4, 0.9, 2, 1e-6).warmup_secs(1e9);
        assert!(fits.build().is_ok());
    }

    #[test]
    fn cross_gap_scales_with_sources() {
        let c = StudyBConfig::paper(4, 0.95, 10, 50.0);
        let mut c2 = c.clone();
        c2.cross_sources = 4;
        assert!(
            (c2.cross_gap_ticks_for_link(0) / c.cross_gap_ticks_for_link(0) - 0.5).abs() < 1e-9
        );
    }
}
