//! Online PDD conformance monitoring.
//!
//! The proportional model's contract is Eq. (2): over any monitoring
//! interval `(t, t+τ)` the achieved ratio of successive-class average
//! delays should sit at the spacing target `δᵢ/δᵢ₊₁`. The paper's Figures
//! 2–3 show why a *live* check matters: with short timescales the achieved
//! ratio wanders and even inverts while long-run averages look perfect —
//! exactly the failure a post-hoc summary hides.
//!
//! [`PddMonitor`] watches end-of-life departures (it is a [`Probe`], so it
//! attaches to any session), accumulates per-class delay sums over rolling
//! windows of `window_ticks`, and at each window boundary evaluates every
//! successive pair against the target in force at the window's start. A
//! pair whose achieved ratio leaves the tolerance band emits a structured
//! [`Violation`] — [`ViolationKind::Inversion`] when differentiation
//! actually reversed (achieved < 1 against a target > 1), otherwise
//! [`ViolationKind::Drift`].
//!
//! Targets are an epoch schedule ([`MonitorConfig::retarget`]), so a live
//! SDP swap mid-run retargets the monitor at the same instant: windows
//! during the transient violate, then the monitor goes quiet once the
//! scheduler reconverges.

use simcore::Time;

use crate::json::Json;
use crate::probe::{PacketId, Probe};

/// Which way a window failed conformance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The achieved ratio left the tolerance band but stayed above 1.
    Drift,
    /// The achieved ratio fell below 1 against a target above 1: the
    /// lower class got *better* delay — differentiation inverted.
    Inversion,
}

impl ViolationKind {
    /// Stable slug for logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::Drift => "drift",
            ViolationKind::Inversion => "inversion",
        }
    }
}

/// One conformance failure: a (window, class pair) whose achieved delay
/// ratio missed its target.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Start of the offending window, in ticks.
    pub window_start_ticks: u64,
    /// Window width, in ticks.
    pub window_ticks: u64,
    /// Class-pair index `i`: the ratio is d̄ᵢ/d̄ᵢ₊₁.
    pub pair: usize,
    /// The achieved ratio over this window.
    pub achieved: f64,
    /// The target ratio in force at the window's start.
    pub target: f64,
    /// Drift or inversion.
    pub kind: ViolationKind,
}

impl Violation {
    /// Relative error of the achieved ratio, `|achieved/target − 1|`.
    pub fn drift(&self) -> f64 {
        (self.achieved / self.target - 1.0).abs()
    }

    /// The violation as a [`Json`] object (stable key order), ratios at six
    /// decimals.
    fn snapshot(&self) -> Json {
        Json::obj(vec![
            ("window_start_ticks", Json::uint(self.window_start_ticks)),
            ("window_ticks", Json::uint(self.window_ticks)),
            ("pair", Json::uint(self.pair as u64)),
            ("achieved", Json::rounded(self.achieved, 6)),
            ("target", Json::rounded(self.target, 6)),
            ("kind", Json::Str(self.kind.name().into())),
        ])
    }

    /// One JSON object per violation, on one line.
    pub fn to_json(&self) -> String {
        self.snapshot().serialize()
    }
}

/// Configuration for [`PddMonitor`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Rolling-window width in ticks (the paper's monitoring timescale τ).
    pub window_ticks: u64,
    /// Tolerance band: a pair violates when `|achieved/target − 1| > epsilon`.
    pub epsilon: f64,
    /// Minimum departures per class in a window for the pair to be
    /// evaluated (guards against meaningless two-sample ratios).
    pub min_samples: u64,
    /// Target-ratio epochs `(from_tick, ratios)`, sorted by `from_tick`;
    /// `ratios[i]` is the target for d̄ᵢ/d̄ᵢ₊₁.
    pub targets: Vec<(u64, Vec<f64>)>,
}

impl MonitorConfig {
    /// A single-epoch config: `ratios` in force from tick 0.
    ///
    /// # Panics
    /// Panics where [`try_new`](Self::try_new) returns an error.
    pub fn new(window_ticks: u64, epsilon: f64, ratios: Vec<f64>) -> Self {
        Self::try_new(window_ticks, epsilon, ratios).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) for parameters that come from outside the
    /// program: an error if `window_ticks` is 0, `epsilon` is not positive
    /// and finite, or `ratios` is empty or contains an entry that is not
    /// positive and finite.
    pub fn try_new(window_ticks: u64, epsilon: f64, ratios: Vec<f64>) -> Result<Self, String> {
        if window_ticks == 0 {
            return Err("window must be positive".into());
        }
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(format!(
                "tolerance must be positive and finite, got {epsilon}"
            ));
        }
        if ratios.is_empty() {
            return Err("need at least one class pair".into());
        }
        if !ratios.iter().all(|&r| r > 0.0 && r.is_finite()) {
            return Err("target ratios must be positive and finite".into());
        }
        Ok(MonitorConfig {
            window_ticks,
            epsilon,
            min_samples: 5,
            targets: vec![(0, ratios)],
        })
    }

    /// Appends a target epoch: `ratios` take effect for windows starting
    /// at or after `from_tick` (use alongside a scenario SDP swap so the
    /// monitor retargets when the scheduler does).
    ///
    /// # Panics
    /// Panics if `from_tick` is not after the last epoch's start or the
    /// pair count changes.
    pub fn retarget(mut self, from_tick: u64, ratios: Vec<f64>) -> Self {
        let (last_from, last) = self.targets.last().expect("always at least one epoch");
        assert!(from_tick > *last_from, "epochs must be strictly ordered");
        assert_eq!(last.len(), ratios.len(), "pair count cannot change");
        assert!(
            ratios.iter().all(|&r| r > 0.0 && r.is_finite()),
            "target ratios must be positive and finite"
        );
        self.targets.push((from_tick, ratios));
        self
    }

    /// Number of classes implied by the target vectors.
    pub fn num_classes(&self) -> usize {
        self.targets[0].1.len() + 1
    }

    fn targets_at(&self, tick: u64) -> &[f64] {
        let mut current = &self.targets[0].1;
        for (from, ratios) in &self.targets {
            if *from <= tick {
                current = ratios;
            } else {
                break;
            }
        }
        current
    }
}

/// The online conformance monitor: buckets departures into rolling
/// windows of [`MonitorConfig::window_ticks`], compares each adjacent
/// class pair's achieved delay ratio to the target in force, and records
/// a [`Violation`] when the ratio drifts outside the tolerance band or
/// inverts. Call [`finish`](Self::finish) to close the trailing partial
/// window.
#[derive(Debug, Clone)]
pub struct PddMonitor {
    cfg: MonitorConfig,
    window: u64,
    sums: Vec<f64>,
    counts: Vec<u64>,
    violations: Vec<Violation>,
    windows_closed: u64,
    pairs_evaluated: u64,
    finished: bool,
}

impl PddMonitor {
    /// Creates a monitor; windows start at tick 0.
    pub fn new(cfg: MonitorConfig) -> Self {
        let n = cfg.num_classes();
        PddMonitor {
            cfg,
            window: 0,
            sums: vec![0.0; n],
            counts: vec![0; n],
            violations: Vec::new(),
            windows_closed: 0,
            pairs_evaluated: 0,
            finished: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Feeds one departure: `class`'s packet left at `at_ticks` after a
    /// queueing delay of `delay_ticks`. Departures are expected in
    /// nondecreasing time order (a stray earlier sample folds into the
    /// current window rather than reopening a closed one).
    ///
    /// # Panics
    /// Panics if `class` is outside the configured class set.
    pub fn record(&mut self, at_ticks: u64, class: usize, delay_ticks: f64) {
        assert!(
            class < self.sums.len(),
            "monitor saw class {class} but was built for {} classes",
            self.sums.len()
        );
        let k = at_ticks / self.cfg.window_ticks;
        while k > self.window {
            self.close_window();
        }
        self.sums[class] += delay_ticks;
        self.counts[class] += 1;
    }

    fn close_window(&mut self) {
        let start = self.window * self.cfg.window_ticks;
        let targets = self.cfg.targets_at(start).to_vec();
        for (pair, &target) in targets.iter().enumerate() {
            let (hi, lo) = (self.counts[pair], self.counts[pair + 1]);
            if hi < self.cfg.min_samples || lo < self.cfg.min_samples {
                continue;
            }
            self.pairs_evaluated += 1;
            let achieved = (self.sums[pair] / hi as f64) / (self.sums[pair + 1] / lo as f64);
            if (achieved / target - 1.0).abs() > self.cfg.epsilon {
                let kind = if achieved < 1.0 && target >= 1.0 {
                    ViolationKind::Inversion
                } else {
                    ViolationKind::Drift
                };
                self.violations.push(Violation {
                    window_start_ticks: start,
                    window_ticks: self.cfg.window_ticks,
                    pair,
                    achieved,
                    target,
                    kind,
                });
            }
        }
        self.sums.iter_mut().for_each(|s| *s = 0.0);
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.window += 1;
        self.windows_closed += 1;
    }

    /// Closes the current partial window so its samples are evaluated.
    /// Call once after the run; further departures reopen monitoring.
    pub fn finish(&mut self) {
        if !self.finished && self.counts.iter().any(|&c| c > 0) {
            self.close_window();
        }
        self.finished = true;
    }

    /// All violations so far, in window order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// (window, pair) combinations that had enough samples to evaluate.
    pub fn pairs_evaluated(&self) -> u64 {
        self.pairs_evaluated
    }

    /// End tick of the last violating window (`None` if fully conformant).
    pub fn last_violation_end_ticks(&self) -> Option<u64> {
        self.violations
            .iter()
            .map(|v| v.window_start_ticks + v.window_ticks)
            .max()
    }

    /// Largest relative drift among the violations (`0` if none).
    pub fn max_drift(&self) -> f64 {
        self.violations
            .iter()
            .map(Violation::drift)
            .fold(0.0, f64::max)
    }

    /// The monitor state as a [`Json`] object (stable key order).
    pub fn snapshot(&self) -> Json {
        let violations = self.violations.iter().map(Violation::snapshot);
        Json::obj(vec![
            ("schema", Json::Str("propdiff-monitor-v1".into())),
            ("window_ticks", Json::uint(self.cfg.window_ticks)),
            ("epsilon", Json::rounded(self.cfg.epsilon, 6)),
            ("min_samples", Json::uint(self.cfg.min_samples)),
            ("windows_closed", Json::uint(self.windows_closed)),
            ("pairs_evaluated", Json::uint(self.pairs_evaluated)),
            ("violation_count", Json::uint(self.violations.len() as u64)),
            ("violations", Json::Arr(violations.collect())),
        ])
    }

    /// The monitor state as one JSON object.
    pub fn to_json(&self) -> String {
        self.snapshot().serialize()
    }

    /// Monitor counters in the Prometheus text exposition format
    /// (concatenates cleanly after [`MetricsRegistry::to_prometheus`]
    /// output).
    ///
    /// [`MetricsRegistry::to_prometheus`]: crate::MetricsRegistry::to_prometheus
    pub fn to_prometheus(&self) -> String {
        let mut out = String::from(
            "# HELP propdiff_monitor_violations_total Conformance violations by pair and kind.\n\
             # TYPE propdiff_monitor_violations_total counter\n",
        );
        let pairs = self.cfg.num_classes() - 1;
        for pair in 0..pairs {
            for kind in [ViolationKind::Drift, ViolationKind::Inversion] {
                let n = self
                    .violations
                    .iter()
                    .filter(|v| v.pair == pair && v.kind == kind)
                    .count();
                out.push_str(&format!(
                    "propdiff_monitor_violations_total{{pair=\"{pair}\",kind=\"{}\"}} {n}\n",
                    kind.name()
                ));
            }
        }
        out.push_str(&format!(
            "# HELP propdiff_monitor_windows_closed_total Monitoring windows evaluated.\n\
             # TYPE propdiff_monitor_windows_closed_total counter\n\
             propdiff_monitor_windows_closed_total {}\n",
            self.windows_closed
        ));
        out.push_str(&format!(
            "# HELP propdiff_monitor_pairs_evaluated_total Window-pair evaluations with enough samples.\n\
             # TYPE propdiff_monitor_pairs_evaluated_total counter\n\
             propdiff_monitor_pairs_evaluated_total {}\n",
            self.pairs_evaluated
        ));
        out
    }
}

impl Probe for PddMonitor {
    // Delay samples only — the decision audit slice is never read.
    const WANTS_DECISION_VALUES: bool = false;

    fn on_depart(&mut self, id: PacketId, arrival: Time, start: Time, finish: Time, eol: bool) {
        if eol {
            let wait = start.saturating_since(arrival).ticks();
            self.record(finish.ticks(), id.class as usize, wait as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: u64) -> MonitorConfig {
        let mut c = MonitorConfig::new(window, 0.25, vec![2.0, 2.0]);
        c.min_samples = 1;
        c
    }

    /// Fills window `k` with per-class mean delays `d` (one sample each).
    fn fill(m: &mut PddMonitor, k: u64, d: [f64; 3]) {
        let at = k * m.config().window_ticks;
        for (c, &delay) in d.iter().enumerate() {
            m.record(at, c, delay);
        }
    }

    #[test]
    fn conformant_windows_stay_quiet() {
        let mut m = PddMonitor::new(cfg(100));
        for k in 0..5 {
            fill(&mut m, k, [40.0, 20.0, 10.0]);
        }
        m.finish();
        assert_eq!(m.windows_closed(), 5);
        assert_eq!(m.pairs_evaluated(), 10);
        assert!(m.violations().is_empty());
        assert_eq!(m.max_drift(), 0.0);
    }

    #[test]
    fn drift_outside_the_band_fires() {
        let mut m = PddMonitor::new(cfg(100));
        fill(&mut m, 0, [70.0, 20.0, 10.0]); // pair 0 achieved 3.5 vs 2.0
        m.finish();
        let v = &m.violations()[0];
        assert_eq!(v.pair, 0);
        assert_eq!(v.kind, ViolationKind::Drift);
        assert!((v.achieved - 3.5).abs() < 1e-12);
        assert!((v.drift() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn inversion_is_classified() {
        let mut m = PddMonitor::new(cfg(100));
        fill(&mut m, 0, [10.0, 20.0, 10.0]); // pair 0 achieved 0.5
        m.finish();
        assert_eq!(m.violations()[0].kind, ViolationKind::Inversion);
        assert!(m.violations()[0].to_json().contains("inversion"));
    }

    #[test]
    fn min_samples_guards_thin_windows() {
        let mut c = cfg(100);
        c.min_samples = 2;
        let mut m = PddMonitor::new(c);
        fill(&mut m, 0, [10.0, 20.0, 10.0]); // only 1 sample per class
        m.finish();
        assert_eq!(m.pairs_evaluated(), 0);
        assert!(m.violations().is_empty());
    }

    #[test]
    fn retarget_epochs_take_effect() {
        let c = cfg(100).retarget(300, vec![4.0, 4.0]);
        let mut m = PddMonitor::new(c);
        // Ratio 4 everywhere: violates under the first epoch (target 2),
        // conforms after the retarget at tick 300.
        for k in 0..6 {
            fill(&mut m, k, [160.0, 40.0, 10.0]);
        }
        m.finish();
        assert!(
            m.violations().iter().all(|v| v.window_start_ticks < 300),
            "{:?}",
            m.violations()
        );
        assert_eq!(m.violations().len(), 6); // 3 windows × 2 pairs
        assert_eq!(m.last_violation_end_ticks(), Some(300));
    }

    #[test]
    fn empty_windows_are_skipped_without_evaluation() {
        let mut m = PddMonitor::new(cfg(100));
        fill(&mut m, 0, [40.0, 20.0, 10.0]);
        fill(&mut m, 4, [40.0, 20.0, 10.0]); // windows 1-3 silent
        m.finish();
        assert_eq!(m.windows_closed(), 5);
        assert_eq!(m.pairs_evaluated(), 4);
        assert!(m.violations().is_empty());
    }

    #[test]
    fn probe_feed_uses_eol_departures_only() {
        let mut m = PddMonitor::new(cfg(100));
        let p = PacketId::single_link(0, 1, 100);
        m.on_depart(
            p,
            Time::ZERO,
            Time::from_ticks(30),
            Time::from_ticks(40),
            false,
        );
        m.on_depart(
            p,
            Time::ZERO,
            Time::from_ticks(30),
            Time::from_ticks(40),
            true,
        );
        assert_eq!(m.counts[1], 1);
        assert_eq!(m.sums[1], 30.0);
    }

    #[test]
    fn json_and_prometheus_render() {
        let mut m = PddMonitor::new(cfg(100));
        fill(&mut m, 0, [70.0, 20.0, 10.0]);
        m.finish();
        let j = m.to_json();
        assert!(j.contains("\"violation_count\":1"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let prom = m.to_prometheus();
        assert!(crate::registry::validate_prometheus(&prom).is_ok());
        assert!(prom.contains("pair=\"0\",kind=\"drift\"} 1"));
    }

    #[test]
    fn an_infinite_ratio_is_still_valid_json_and_exposition() {
        // The faster class saw zero delay all window: achieved = x/0 = inf,
        // a drift, which `"achieved":inf` made unparseable.
        let mut m = PddMonitor::new(MonitorConfig::new(1_000, 0.25, vec![2.0]));
        for i in 0..200 {
            m.record(i, 0, 5.0);
            m.record(i, 1, 0.0);
        }
        m.finish();
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].achieved.is_infinite());
        let doc = Json::parse(&m.to_json()).expect("monitor JSON parses");
        let violation = &doc.get("violations").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(violation.get("achieved"), Some(&Json::Null));
        assert_eq!(violation.get("target"), Some(&Json::Int(2)));
        // The exposition carries counts only, never the ratio.
        assert!(crate::registry::validate_prometheus(&m.to_prometheus()).is_ok());
    }

    #[test]
    #[should_panic(expected = "built for 3 classes")]
    fn out_of_range_class_panics() {
        PddMonitor::new(cfg(100)).record(0, 7, 1.0);
    }
}
