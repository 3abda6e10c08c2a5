//! Ablations: the design-choice studies DESIGN.md calls out.
//!
//! * [`schedulers`] — every scheduler on identical traffic: shows why §2.1
//!   rejects strict priority and capacity differentiation, and how the PAD
//!   and HPD extensions repair WTP's moderate-load undershoot.
//! * [`feasibility`] — maps the feasible DDP region of Eq. (7) by sweeping
//!   spacing ratios and utilizations.
//! * [`starvation`] — Proposition 2 demonstrated empirically: the SDP-ratio
//!   threshold at which a high-class burst starves lower classes.
//! * [`moderate_load`] — quantifies the ρ = 0.70 "ratio ≈ 1.5 when it
//!   should be 2" observation across schedulers.

use pdd::model::{Ddp, ProportionalModel};
use pdd::qsim::Experiment;
use pdd::sched::{Packet, PifoCore, Scheduler, SchedulerKind, Sdp, WtpRank};
use pdd::simcore::{Dur, Time};
use pdd::stats::Table;
use pdd::traffic::Trace;

use crate::{banner, parallel_map, Scale};

/// Result of the scheduler shoot-out.
#[derive(Debug, Clone)]
pub struct SchedulerShootout {
    /// `(scheduler, per-pair ratios, mean deviation from target)` at
    /// ρ = 0.95, target spacing 2.
    pub rows: Vec<(SchedulerKind, Vec<f64>, f64)>,
}

/// Runs every scheduler on the same traces (ρ = 0.95, SDPs 1,2,4,8).
pub fn schedulers(scale: Scale) -> SchedulerShootout {
    let e = Experiment::paper(0.95, Sdp::paper_default(), scale.punits(), scale.seeds());
    let kinds = SchedulerKind::ALL;
    let results = e.run_many(&kinds);
    SchedulerShootout {
        rows: kinds
            .iter()
            .zip(results)
            .map(|(&k, r)| (k, r.ratios.clone(), r.ratio_deviation()))
            .collect(),
    }
}

impl SchedulerShootout {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut out =
            banner("Ablation: all schedulers on identical traffic (rho=0.95, target ratio 2)");
        let mut t = Table::new([
            "scheduler",
            "d1/d2",
            "d2/d3",
            "d3/d4",
            "mean |dev| from 2.0",
        ]);
        for (k, ratios, dev) in &self.rows {
            let mut cells = vec![k.name().to_string()];
            cells.extend(ratios.iter().map(|r| format!("{r:.2}")));
            cells.push(format!("{:.1}%", dev * 100.0));
            t.row(cells);
        }
        out.push_str(&t.to_string());
        out.push_str(
            "\nreading: FCFS ~1.0 (no differentiation); Strict is huge and\n\
             untunable; WFQ/SCFQ/DRR ratios drift with load (capacity, not\n\
             delay, differentiation); Additive spaces differences, not ratios;\n\
             WTP/BPR approximate 2.0; PAD/HPD (extensions) pin it.\n",
        );
        out
    }

    /// Deviation of one scheduler.
    pub fn deviation(&self, kind: SchedulerKind) -> f64 {
        self.rows
            .iter()
            .find(|(k, _, _)| *k == kind)
            .map(|(_, _, d)| *d)
            .expect("kind present")
    }
}

/// One feasibility-region probe.
#[derive(Debug, Clone)]
pub struct FeasibilityProbe {
    /// Utilization of the probed trace.
    pub utilization: f64,
    /// DDP spacing ratio probed.
    pub spacing: f64,
    /// Whether Eq. (7) admits the Eq. (6) targets.
    pub feasible: bool,
    /// Worst subset slack (negative = violated).
    pub worst_slack: f64,
}

/// The spacing ratios swept by the feasibility ablation.
pub const FEASIBILITY_SPACINGS: [f64; 6] = [1.5, 2.0, 4.0, 8.0, 16.0, 32.0];

/// The utilizations swept by the feasibility ablation.
pub const FEASIBILITY_UTILS: [f64; 3] = [0.75, 0.85, 0.95];

/// Probes one (utilization, spacing) point of the feasibility region.
pub fn feasibility_cell(rho: f64, spacing: f64, scale: Scale) -> FeasibilityProbe {
    let e = Experiment::paper(
        rho,
        Sdp::paper_default(),
        scale.punits().min(30_000),
        vec![11],
    );
    let trace: Trace = e.trace_for_seed(11);
    let arrivals: Vec<(u64, u8, u32)> = trace
        .entries()
        .iter()
        .map(|t| (t.at.ticks(), t.class, t.size))
        .collect();
    let model = ProportionalModel::new(Ddp::geometric(4, spacing).expect("static"));
    let report = model.check_feasibility(&arrivals, 1.0);
    let worst = report
        .checks
        .iter()
        .map(|c| c.slack())
        .fold(f64::INFINITY, f64::min);
    FeasibilityProbe {
        utilization: rho,
        spacing,
        feasible: report.feasible(),
        worst_slack: worst,
    }
}

/// Sweeps DDP spacing × utilization and checks Eq. (7) on a recorded trace.
pub fn feasibility(scale: Scale) -> Vec<FeasibilityProbe> {
    let mut jobs = Vec::new();
    for &rho in &FEASIBILITY_UTILS {
        for &r in &FEASIBILITY_SPACINGS {
            jobs.push(move || feasibility_cell(rho, r, scale));
        }
    }
    parallel_map(jobs)
}

/// Renders the feasibility sweep.
pub fn render_feasibility(probes: &[FeasibilityProbe]) -> String {
    let mut out =
        banner("Ablation: Eq. (7) feasibility of Eq. (6) targets (4 classes, 40/30/20/10 loads)");
    let mut t = Table::new(["util", "spacing", "feasible", "worst subset slack"]);
    for p in probes {
        t.row([
            format!("{:.0}%", p.utilization * 100.0),
            format!("{:.1}", p.spacing),
            if p.feasible {
                "yes".into()
            } else {
                "NO".to_string()
            },
            format!("{:+.3}", p.worst_slack),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nreading: the Fig.1/Fig.2 operating points (spacing 2 and 4) are\n\
         feasible; very wide spacings push the top class below its FCFS\n\
         lower bound and leave the feasible region.\n",
    );
    out
}

/// One starvation probe: does a class-2 burst fully starve class 1?
#[derive(Debug, Clone)]
pub struct StarvationProbe {
    /// SDP ratio s2/s1.
    pub sdp_ratio: f64,
    /// 1 − R/R₁ for the constructed burst.
    pub condition_lhs: f64,
    /// s1/s2 (Proposition 2 threshold).
    pub condition_rhs: f64,
    /// Whether Proposition 2 predicts starvation.
    pub predicted: bool,
    /// Whether the simulation starved the low class for the whole burst.
    pub observed: bool,
}

/// Reproduces Proposition 2 across SDP ratios with a burst at peak rate
/// R₁ = 2R.
pub fn starvation() -> Vec<StarvationProbe> {
    let burst = 60u64;
    [1.2, 1.5, 1.9, 2.0, 2.1, 3.0, 4.0, 8.0]
        .into_iter()
        .map(|ratio| {
            let sdp = Sdp::new(&[1.0, ratio]).expect("static");
            let mut s = PifoCore::new("WTP", 2, WtpRank::new(sdp));
            // Victim arrives at t0 = 0; burst packets at R1 = 2R (gap 50
            // ticks for 100-tick services).
            s.enqueue(Packet::new(0, 0, 100, Time::ZERO));
            for k in 0..burst {
                s.enqueue(Packet::new(k + 1, 1, 100, Time::from_ticks(50 * k)));
            }
            let mut now = Time::ZERO;
            let mut victim_position = 0usize;
            let mut idx = 0usize;
            while let Some(p) = s.dequeue(now) {
                if p.class == 0 {
                    victim_position = idx;
                }
                idx += 1;
                now += Dur::from_ticks(100);
            }
            let condition_lhs = 0.5; // 1 − R/R1 with R1 = 2R
            let condition_rhs = 1.0 / ratio;
            StarvationProbe {
                sdp_ratio: ratio,
                condition_lhs,
                condition_rhs,
                predicted: condition_lhs > condition_rhs,
                observed: victim_position == burst as usize,
            }
        })
        .collect()
}

/// Renders the starvation probes.
pub fn render_starvation(probes: &[StarvationProbe]) -> String {
    let mut out = banner("Ablation: Proposition 2 — WTP short-term starvation (R1 = 2R)");
    let mut t = Table::new(["s2/s1", "1-R/R1", "s1/s2", "predicted", "observed"]);
    for p in probes {
        t.row([
            format!("{:.1}", p.sdp_ratio),
            format!("{:.2}", p.condition_lhs),
            format!("{:.2}", p.condition_rhs),
            if p.predicted { "starve" } else { "-" }.to_string(),
            if p.observed { "starve" } else { "-" }.to_string(),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nreading: for s2/s1 > 2 = 1/(1-R/R1), an arbitrarily long class-2\n\
         burst is fully serviced before a class-1 packet that arrived with\n\
         its first packet — exactly Proposition 2's threshold.\n",
    );
    out
}

/// Moderate-load undershoot comparison.
#[derive(Debug, Clone)]
pub struct ModerateLoad {
    /// `(utilization, rows)` where each row is `(scheduler, mean ratio)`.
    pub points: Vec<(f64, Vec<(SchedulerKind, f64)>)>,
}

/// The utilizations swept by the moderate-load ablation.
pub const MODERATE_LOAD_UTILS: [f64; 4] = [0.70, 0.80, 0.90, 0.95];

/// Measures one moderate-load point: all four schedulers at one
/// utilization, returning `(scheduler, mean successive ratio)` rows.
pub fn moderate_load_cell(rho: f64, scale: Scale) -> (f64, Vec<(SchedulerKind, f64)>) {
    let kinds = [
        SchedulerKind::Wtp,
        SchedulerKind::Bpr,
        SchedulerKind::Pad,
        SchedulerKind::Hpd,
    ];
    let e = Experiment::paper(rho, Sdp::paper_default(), scale.punits(), scale.seeds());
    let results = e.run_many(&kinds);
    let rows = kinds
        .iter()
        .zip(results)
        .map(|(&k, r)| (k, r.ratios.iter().sum::<f64>() / r.ratios.len() as f64))
        .collect();
    (rho, rows)
}

/// Quantifies the moderate-load undershoot for WTP/BPR and shows the
/// PAD/HPD extensions holding the target (target ratio 2).
pub fn moderate_load(scale: Scale) -> ModerateLoad {
    let jobs: Vec<_> = MODERATE_LOAD_UTILS
        .into_iter()
        .map(|rho| move || moderate_load_cell(rho, scale))
        .collect();
    ModerateLoad {
        points: parallel_map(jobs),
    }
}

impl ModerateLoad {
    /// Renders the undershoot table.
    pub fn render(&self) -> String {
        let mut out =
            banner("Ablation: moderate-load accuracy (mean successive ratio, target 2.0)");
        let mut t = Table::new(["util", "WTP", "BPR", "PAD", "HPD"]);
        for (rho, rows) in &self.points {
            let mut cells = vec![format!("{:.0}%", rho * 100.0)];
            cells.extend(rows.iter().map(|(_, r)| format!("{r:.2}")));
            t.row(cells);
        }
        out.push_str(&t.to_string());
        out.push_str(
            "\nreading: WTP/BPR undershoot at 70-80% (the paper's \"about 1.5\n\
             when it should be 2\"); PAD holds the long-term target at every\n\
             load, HPD sits between — the §7 open problem and its later fix.\n",
        );
        out
    }
}

/// PLR vs tail-drop loss differentiation on an overloaded lossy link.
#[derive(Debug, Clone)]
pub struct PlrStudy {
    /// `(sigma_ratio, plr_loss_ratio, taildrop_loss_ratio, delay_ratio)`
    /// rows for a 2-class WTP link at offered load ≈ 1.3.
    pub rows: Vec<(f64, f64, f64, f64)>,
}

/// The loss-spacing targets σ₁/σ₂ swept by the PLR ablation.
pub const PLR_SIGMAS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Measures one PLR point: `(sigma_ratio, plr_loss_ratio,
/// taildrop_loss_ratio, delay_ratio)` for one target loss spacing.
pub fn plr_cell(sigma_ratio: f64, scale: Scale) -> (f64, f64, f64, f64) {
    use pdd::qsim::{LossMode, Session};
    use pdd::sched::PlrDropper;
    use pdd::simcore::Time as SimTime;
    use pdd::traffic::{ClassSource, IatDist, SizeDist};

    let horizon = SimTime::from_ticks(scale.punits().max(4_000) * 100);
    let make_trace = |seed| {
        let mut sources = vec![
            ClassSource::new(
                0,
                IatDist::paper_pareto(154.0).expect("static"),
                SizeDist::fixed(100),
            ),
            ClassSource::new(
                1,
                IatDist::paper_pareto(154.0).expect("static"),
                SizeDist::fixed(100),
            ),
        ];
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        Trace::generate(&mut sources, horizon, &mut rng)
    };
    let trace = make_trace(13);
    let sdp = Sdp::new(&[1.0, 2.0]).expect("static");
    let mut s = SchedulerKind::Wtp.build(&sdp, 1.0);
    let plr_mode = LossMode::Plr(PlrDropper::new(&[sigma_ratio, 1.0]).expect("static"));
    let r_plr = Session::trace(&trace, 1.0)
        .lossy(6_000, plr_mode)
        .run(s.as_mut());
    let mut s2 = SchedulerKind::Wtp.build(&sdp, 1.0);
    let r_tail = Session::trace(&trace, 1.0)
        .lossy(6_000, LossMode::TailDrop)
        .run(s2.as_mut());
    (
        sigma_ratio,
        r_plr.loss_ratio(0, 1).unwrap_or(f64::NAN),
        r_tail.loss_ratio(0, 1).unwrap_or(f64::NAN),
        r_plr.delays[0].mean() / r_plr.delays[1].mean(),
    )
}

/// Runs the §7 coupled delay+loss extension: WTP spaces the delays while
/// the PLR dropper spaces the losses; tail-drop is the uncontrolled
/// baseline.
pub fn plr(scale: Scale) -> PlrStudy {
    let jobs: Vec<_> = PLR_SIGMAS
        .into_iter()
        .map(|sigma_ratio| move || plr_cell(sigma_ratio, scale))
        .collect();
    PlrStudy {
        rows: parallel_map(jobs),
    }
}

/// Renders the PLR study.
pub fn render_plr(study: &PlrStudy) -> String {
    let mut out = banner(
        "Ablation: proportional loss differentiation (2 classes, WTP, offered load 1.3, 6 kB buffer)",
    );
    let mut t = Table::new([
        "target sigma1/sigma2",
        "PLR loss ratio",
        "tail-drop loss ratio",
        "PLR delay ratio (target 2)",
    ]);
    for (sigma, plr, tail, delay) in &study.rows {
        t.row([
            format!("{sigma:.1}"),
            format!("{plr:.2}"),
            format!("{tail:.2}"),
            format!("{delay:.2}"),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nreading: the PLR push-out pins the class loss-fraction ratio to the\n\
         chosen sigma spacing while tail-drop leaves it near 1 (uncontrolled);\n\
         WTP keeps spacing the queueing delays on the same lossy link — the\n\
         first step toward the paper's coupled delay+loss future work.\n",
    );
    out
}

/// The additive differentiation model (Eq. 3) measured at heavy load.
#[derive(Debug, Clone)]
pub struct AdditiveStudy {
    /// Offsets s_i used (ticks).
    pub offsets: Vec<f64>,
    /// Measured class mean delays (ticks).
    pub delays: Vec<f64>,
    /// Measured successive differences d_i − d_{i+1} (ticks).
    pub differences: Vec<f64>,
    /// Target differences s_{i+1} − s_i (ticks).
    pub targets: Vec<f64>,
}

/// Measures Eq. (3): at heavy load the additive scheduler spaces class
/// delays by constant *differences* D_ij = s_j − s_i.
pub fn additive(scale: Scale) -> AdditiveStudy {
    // Offsets of 1, 11, 21, 31 p-units (in ticks): targets of 10 p-units
    // between successive classes.
    let p = pdd::traffic::PAPER_MEAN_PACKET_BYTES;
    let offsets: Vec<f64> = (0..4).map(|i| (1.0 + 10.0 * i as f64) * p).collect();
    let sdp = Sdp::new(&offsets).expect("increasing offsets");
    // The additive scheduler, like WTP, reaches its heavy-load regime only
    // when class delays dwarf the offsets; run very close to saturation.
    let e = Experiment::paper(0.995, sdp, scale.punits(), scale.seeds());
    let r = e.run(SchedulerKind::Additive);
    let differences = r.mean_delays.windows(2).map(|w| w[0] - w[1]).collect();
    let targets = offsets.windows(2).map(|w| w[1] - w[0]).collect();
    AdditiveStudy {
        offsets,
        delays: r.mean_delays,
        differences,
        targets,
    }
}

/// Renders the additive study.
pub fn render_additive(study: &AdditiveStudy) -> String {
    let p = pdd::traffic::PAPER_MEAN_PACKET_BYTES;
    let mut out = banner("Ablation: additive differentiation (Eq. 3) at rho = 0.995");
    let mut t = Table::new([
        "pair",
        "measured d_i - d_j (p-units)",
        "target s_j - s_i (p-units)",
    ]);
    for (i, (diff, target)) in study.differences.iter().zip(&study.targets).enumerate() {
        t.row([
            format!("{}/{}", i + 1, i + 2),
            format!("{:.1}", diff / p),
            format!("{:.1}", target / p),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nreading: with p_i(t) = w_i(t) + s_i the heavy-load class delays are\n\
         spaced by constant differences D_ij ~= s_j - s_i (the paper's Eq. 3\n\
         observation), not constant ratios — the contrast that motivates the\n\
         proportional model.\n",
    );
    out
}

/// Simulator-vs-theory comparison under Poisson arrivals.
#[derive(Debug, Clone)]
pub struct AnalyticCheck {
    /// `(scheduler, class, measured wait, predicted wait)` rows, waits in
    /// p-units.
    pub rows: Vec<(SchedulerKind, usize, f64, f64)>,
}

/// Validates the simulator against the exact M/G/1 formulas: P–K (FCFS),
/// Cobham (strict priority), and Kleinrock's TDP (WTP), at ρ = 0.9 with
/// the paper's packet sizes and 40/30/20/10 class mix.
pub fn analytic(scale: Scale) -> AnalyticCheck {
    use pdd::analytic::Mg1;
    use pdd::qsim::Session;
    use pdd::simcore::Time as SimTime;
    use pdd::stats::Summary;
    use pdd::traffic::{IatDist, LoadPlan, SizeDist};

    let fractions = [0.4, 0.3, 0.2, 0.1];
    let rho = 0.9;
    let q = Mg1::paper_sizes(rho, &fractions).expect("stable");
    let slopes = [1.0, 2.0, 4.0, 8.0];
    let predicted: Vec<(SchedulerKind, Vec<f64>)> = vec![
        (SchedulerKind::Fcfs, vec![q.fcfs_wait(); 4]),
        (SchedulerKind::Strict, q.strict_priority_waits()),
        (SchedulerKind::Wtp, q.tdp_waits(&slopes)),
    ];

    // Mean waits mix slowly at rho = 0.9 (long busy-period correlations),
    // so average several independent seeds rather than one long window.
    let horizon = SimTime::from_ticks(scale.punits().max(20_000) * 441 * 4);
    let warmup = SimTime::from_ticks(horizon.ticks() / 20);
    let seeds: Vec<u64> = (0..6).map(|k| 23 + k * 101).collect();
    let jobs: Vec<_> = seeds
        .into_iter()
        .map(|seed| {
            let predicted = predicted.clone();
            move || {
                let plan = LoadPlan::new(1.0, rho, &fractions, SizeDist::paper()).expect("valid");
                let mut sources = plan
                    .sources(&IatDist::exponential(1.0).expect("static"))
                    .expect("valid");
                let trace = Trace::generate_per_source(&mut sources, horizon, seed);
                let mut out = Vec::new();
                for (kind, _) in &predicted {
                    let mut s = kind.build(&Sdp::geometric(4, 2.0).expect("static"), 1.0);
                    let mut acc = vec![Summary::new(); 4];
                    Session::trace(&trace, 1.0).run(s.as_mut(), |d| {
                        if d.start >= warmup {
                            acc[d.packet.class as usize].push(d.wait().as_f64());
                        }
                    });
                    out.push(acc.iter().map(Summary::mean).collect::<Vec<_>>());
                }
                out
            }
        })
        .collect();
    let per_seed = parallel_map(jobs);
    let mut rows = Vec::new();
    for (k, (kind, pred)) in predicted.iter().enumerate() {
        for c in 0..4 {
            let measured = per_seed.iter().map(|s| s[k][c]).sum::<f64>() / per_seed.len() as f64;
            rows.push((*kind, c, measured / 441.0, pred[c] / 441.0));
        }
    }
    AnalyticCheck { rows }
}

/// Renders the analytic check.
pub fn render_analytic(check: &AnalyticCheck) -> String {
    let mut out =
        banner("Ablation: simulator vs exact M/G/1 theory (Poisson arrivals, rho = 0.9, p-units)");
    let mut t = Table::new(["scheduler", "class", "simulated", "theory", "error"]);
    for (kind, c, m, p) in &check.rows {
        t.row([
            kind.name().to_string(),
            format!("{}", c + 1),
            format!("{m:.1}"),
            format!("{p:.1}"),
            format!("{:+.1}%", (m / p - 1.0) * 100.0),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nreading: FCFS matches Pollaczek-Khinchine, strict priority matches\n\
         Cobham, and WTP matches Kleinrock's Time-Dependent Priorities — the\n\
         simulator agrees with independent closed forms to Monte-Carlo noise.\n",
    );
    out
}

/// End-to-end differentiation on partially deployed paths.
#[derive(Debug, Clone)]
pub struct MixedPath {
    /// `(label, R_D, inconsistent experiments)` per deployment scenario.
    pub rows: Vec<(&'static str, f64, usize)>,
}

/// The mixed-path deployment scenarios: `(label, per-hop schedulers)`.
pub fn mixed_path_scenarios() -> Vec<(&'static str, Vec<SchedulerKind>)> {
    vec![
        ("WTP x4", vec![SchedulerKind::Wtp; 4]),
        (
            "WTP x3 + FCFS",
            vec![
                SchedulerKind::Wtp,
                SchedulerKind::Fcfs,
                SchedulerKind::Wtp,
                SchedulerKind::Wtp,
            ],
        ),
        (
            "WTP x2 + FCFS x2",
            vec![
                SchedulerKind::Wtp,
                SchedulerKind::Fcfs,
                SchedulerKind::Wtp,
                SchedulerKind::Fcfs,
            ],
        ),
        ("FCFS x4", vec![SchedulerKind::Fcfs; 4]),
    ]
}

/// Measures one mixed-path scenario by its [`mixed_path_scenarios`] index.
pub fn mixed_path_cell(scenario: usize, scale: Scale) -> (&'static str, f64, usize) {
    use pdd::netsim::{analyze, packet_time_tolerance, Session, StudyBConfig};

    let (experiments, warmup) = scale.study_b();
    let (label, links) = mixed_path_scenarios()
        .into_iter()
        .nth(scenario)
        .expect("scenario index in range");
    let mut cfg = StudyBConfig::paper(4, 0.95, 20, 200.0);
    cfg.experiments = experiments;
    cfg.warmup_secs = warmup;
    cfg.link_schedulers = Some(links);
    cfg.seed = 5;
    let (records, _) = Session::study_b(&cfg).run();
    let r = analyze(&records, cfg.num_classes(), packet_time_tolerance(&cfg));
    (label, r.rd, r.inconsistent_experiments)
}

/// Measures how a path with legacy (FCFS) hops dilutes the end-to-end
/// differentiation: all-WTP vs one FCFS hop vs half FCFS vs all-FCFS, on a
/// 4-hop Figure-6 chain at ρ = 0.95.
pub fn mixed_path(scale: Scale) -> MixedPath {
    let jobs: Vec<_> = (0..mixed_path_scenarios().len())
        .map(|i| move || mixed_path_cell(i, scale))
        .collect();
    MixedPath {
        rows: parallel_map(jobs),
    }
}

/// Renders the mixed-path study.
pub fn render_mixed_path(study: &MixedPath) -> String {
    let mut out = banner(
        "Ablation: partially deployed differentiation (4-hop path, rho = 0.95, ideal R_D 2.0)",
    );
    let mut t = Table::new(["per-hop schedulers", "end-to-end R_D", "inconsistent exps"]);
    for (label, rd, inc) in &study.rows {
        t.row([label.to_string(), format!("{rd:.2}"), format!("{inc}")]);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nreading: every legacy FCFS hop pulls the end-to-end ratio toward 1;\n\
         differentiation survives partial deployment but weakens per legacy\n\
         hop — deployment coverage is itself a tuning knob.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shootout_separates_scheduler_families() {
        // PAD's long-run-average bookkeeping needs more departures than a
        // single bench-scale seed provides before its deviation separates
        // cleanly from WTP's; a slightly longer two-seed run is stable.
        let s = schedulers(Scale::Custom {
            punits: 12_000,
            nseeds: 2,
        });
        // FCFS does not differentiate.
        let fcfs = s
            .rows
            .iter()
            .find(|(k, _, _)| *k == SchedulerKind::Fcfs)
            .unwrap();
        let fcfs_mean = fcfs.1.iter().sum::<f64>() / fcfs.1.len() as f64;
        assert!((fcfs_mean - 1.0).abs() < 0.3, "FCFS mean ratio {fcfs_mean}");
        // WTP is far closer to target than FCFS.
        assert!(s.deviation(SchedulerKind::Wtp) < s.deviation(SchedulerKind::Fcfs));
        // PAD holds the target at least as well as WTP does.
        assert!(s.deviation(SchedulerKind::Pad) < s.deviation(SchedulerKind::Wtp) + 0.05);
        assert!(s.render().contains("scheduler"));
    }

    #[test]
    fn proposition_2_threshold_matches_observation() {
        let probes = starvation();
        for p in &probes {
            // At the exact threshold (ratio = 2) the proposition's strict
            // inequality doesn't apply; skip it.
            if (p.sdp_ratio - 2.0).abs() < 1e-9 {
                continue;
            }
            assert_eq!(
                p.predicted, p.observed,
                "ratio {}: predicted {} observed {}",
                p.sdp_ratio, p.predicted, p.observed
            );
        }
        assert!(render_starvation(&probes).contains("Proposition 2"));
    }

    #[test]
    fn paper_operating_points_are_feasible() {
        let probes = feasibility(Scale::Bench);
        for p in probes.iter().filter(|p| p.spacing <= 4.0) {
            assert!(
                p.feasible,
                "spacing {} at {}% should be feasible",
                p.spacing,
                p.utilization * 100.0
            );
        }
        assert!(render_feasibility(&probes).contains("feasibility"));
    }

    #[test]
    fn pad_fixes_moderate_load_undershoot() {
        let m = moderate_load(Scale::Bench);
        let (rho, rows) = &m.points[0];
        assert!((*rho - 0.70).abs() < 1e-9);
        let get = |kind| {
            rows.iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, r)| *r)
                .unwrap()
        };
        let wtp = get(SchedulerKind::Wtp);
        let pad = get(SchedulerKind::Pad);
        assert!(wtp < 1.9, "WTP should undershoot at 70%, got {wtp}");
        assert!(
            (pad - 2.0).abs() < (wtp - 2.0).abs() + 0.05,
            "PAD {pad} should be closer to 2.0 than WTP {wtp}"
        );
        assert!(m.render().contains("moderate-load"));
    }

    #[test]
    fn plr_controls_losses_tail_drop_does_not() {
        let study = plr(Scale::Bench);
        for (sigma, plr_ratio, tail_ratio, delay_ratio) in &study.rows {
            assert!(
                (plr_ratio - sigma).abs() / sigma < 0.35,
                "sigma {sigma}: PLR ratio {plr_ratio}"
            );
            assert!(
                (tail_ratio - 1.0).abs() < 0.4,
                "tail-drop ratio {tail_ratio} should stay near 1"
            );
            assert!(*delay_ratio > 1.3, "WTP still differentiates delays");
        }
        assert!(render_plr(&study).contains("loss"));
    }

    #[test]
    fn additive_spaces_differences_not_ratios() {
        // Bench scale is too short for the additive scheduler's heavy-load
        // regime (the spacing only converges once class delays dwarf the
        // offsets), so this one statistical check runs a longer horizon.
        let study = additive(Scale::Custom {
            punits: 20_000,
            nseeds: 4,
        });
        for (diff, target) in study.differences.iter().zip(&study.targets) {
            assert!(
                (diff - target).abs() / target < 0.35,
                "difference {diff} vs target {target}"
            );
        }
        assert!(render_additive(&study).contains("additive"));
    }

    #[test]
    fn simulator_agrees_with_closed_forms() {
        let check = analytic(Scale::Bench);
        for (kind, c, m, p) in &check.rows {
            assert!(
                (m - p).abs() / p < 0.15,
                "{} class {c}: measured {m} vs theory {p}",
                kind.name()
            );
        }
        assert!(render_analytic(&check).contains("theory"));
    }

    #[test]
    fn mixed_paths_interpolate_between_wtp_and_fcfs() {
        let m = mixed_path(Scale::Bench);
        let rd = |label: &str| {
            m.rows
                .iter()
                .find(|(l, _, _)| *l == label)
                .map(|(_, r, _)| *r)
                .unwrap()
        };
        let full = rd("WTP x4");
        let one = rd("WTP x3 + FCFS");
        let none = rd("FCFS x4");
        assert!(full > one, "full {full} vs one-FCFS {one}");
        assert!(one > none, "one-FCFS {one} vs FCFS {none}");
        assert!((none - 1.0).abs() < 0.25, "all-FCFS R_D {none}");
        assert!(render_mixed_path(&m).contains("partially deployed"));
    }
}
