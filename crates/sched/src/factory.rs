//! Scheduler construction by name — used by the experiment harness and the
//! ablation binaries.

use std::fmt;
use std::str::FromStr;

use crate::bpr::Bpr;
use crate::class::Sdp;
use crate::drr::Drr;
use crate::fair_queue::FairQueue;
use crate::fcfs::Fcfs;
use crate::rank::{
    AdditiveRank, HpdRank, LstfRank, PadRank, PifoCore, RankFn, RankKind, StrictRank, WtpRank,
};
use crate::scheduler::Scheduler;

/// Every scheduler this crate can build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// First-come-first-served (no differentiation).
    Fcfs,
    /// Strict static priority.
    Strict,
    /// Waiting-Time Priority (§4.2).
    Wtp,
    /// Backlog-Proportional Rate, packetized (§4.1, Appendix 3).
    Bpr,
    /// Weighted Fair Queueing (capacity differentiation).
    Wfq,
    /// Worst-case Fair WFQ (WF²Q+, capacity differentiation).
    Wf2q,
    /// Self-Clocked Fair Queueing (capacity differentiation).
    Scfq,
    /// Deficit Round Robin (capacity differentiation).
    Drr,
    /// Additive waiting-time priority (Eq. 3).
    Additive,
    /// Proportional Average Delay (extension).
    Pad,
    /// Hybrid Proportional Delay with g = 0.875 (extension).
    Hpd,
    /// A rank function under its rank-core name (`sched::rank`):
    /// `Pifo(RankKind::Wtp)` is [`SchedulerKind::Wtp`] printed as
    /// `PIFO(WTP)`, `Pifo(RankKind::Lstf)` is LSTF.
    Pifo(RankKind),
}

impl SchedulerKind {
    /// All kinds, in report order.
    pub const ALL: [SchedulerKind; 11] = [
        SchedulerKind::Fcfs,
        SchedulerKind::Strict,
        SchedulerKind::Wfq,
        SchedulerKind::Wf2q,
        SchedulerKind::Scfq,
        SchedulerKind::Drr,
        SchedulerKind::Additive,
        SchedulerKind::Wtp,
        SchedulerKind::Bpr,
        SchedulerKind::Pad,
        SchedulerKind::Hpd,
    ];

    /// The `Pifo(_)` kinds, in [`RankKind::ALL`] order. Kept separate
    /// from [`SchedulerKind::ALL`] so the paper-report iterations stay
    /// over the eleven paper schedulers; the test matrices chain both.
    pub const PIFO_ALL: [SchedulerKind; 2] = [
        SchedulerKind::Pifo(RankKind::Wtp),
        SchedulerKind::Pifo(RankKind::Lstf),
    ];

    /// The rank core for this kind: `rank` under this kind's display name.
    fn core<R: RankFn>(&self, sdp: &Sdp, rank: R) -> PifoCore<R> {
        PifoCore::new(self.name(), sdp.num_classes(), rank)
    }

    /// Builds a boxed scheduler.
    ///
    /// `sdp` supplies the differentiation parameters (interpreted per
    /// scheduler: gains for WTP/BPR/PAD/HPD, weights for WFQ/SCFQ/DRR, tick
    /// offsets for Additive; ignored by FCFS/Strict except for the class
    /// count). `link_rate` (bytes/tick) is needed by the rate-based
    /// schedulers.
    pub fn build(&self, sdp: &Sdp, link_rate: f64) -> Box<dyn Scheduler> {
        struct Boxed;
        impl SchedulerVisitor for Boxed {
            type Out = Box<dyn Scheduler>;
            fn visit<S: Scheduler + Clone + 'static>(self, scheduler: S) -> Self::Out {
                Box::new(scheduler)
            }
        }
        self.build_and_visit(sdp, link_rate, Boxed)
    }

    /// Builds the scheduler **unboxed** and hands it to `visitor`,
    /// monomorphizing the visitor's body once per concrete scheduler type.
    ///
    /// This is the one place a kind becomes a scheduler —
    /// [`SchedulerKind::build`] is a visitor that boxes it — so hot loops
    /// written against a generic `S: Scheduler` (such as
    /// `qsim::Session::run`) get devirtualized per-packet calls while the
    /// scheduler choice stays a runtime value.
    pub fn build_and_visit<V: SchedulerVisitor>(&self, sdp: &Sdp, link_rate: f64, v: V) -> V::Out {
        match self {
            SchedulerKind::Fcfs => v.visit(Fcfs::new(sdp.num_classes())),
            SchedulerKind::Strict => v.visit(self.core(sdp, StrictRank)),
            SchedulerKind::Wtp | SchedulerKind::Pifo(RankKind::Wtp) => {
                v.visit(self.core(sdp, WtpRank::new(sdp.clone())))
            }
            SchedulerKind::Bpr => v.visit(Bpr::new(sdp.clone(), link_rate)),
            SchedulerKind::Wfq => v.visit(FairQueue::wfq(sdp.clone(), link_rate)),
            SchedulerKind::Wf2q => v.visit(FairQueue::wf2q(sdp.clone())),
            SchedulerKind::Scfq => v.visit(FairQueue::scfq(sdp.clone())),
            SchedulerKind::Drr => v.visit(Drr::new(sdp.clone(), 1500)),
            SchedulerKind::Additive => v.visit(self.core(sdp, AdditiveRank::new(sdp.clone()))),
            SchedulerKind::Pad => v.visit(self.core(sdp, PadRank::new(sdp.clone()))),
            SchedulerKind::Hpd => v.visit(self.core(sdp, HpdRank::with_default_g(sdp.clone()))),
            SchedulerKind::Pifo(RankKind::Lstf) => {
                v.visit(self.core(sdp, LstfRank::with_default_base(sdp.clone())))
            }
        }
    }

    /// The scheduler's display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::Strict => "Strict",
            SchedulerKind::Wtp => "WTP",
            SchedulerKind::Bpr => "BPR",
            SchedulerKind::Wfq => "WFQ",
            SchedulerKind::Wf2q => "WF2Q+",
            SchedulerKind::Scfq => "SCFQ",
            SchedulerKind::Drr => "DRR",
            SchedulerKind::Additive => "Additive",
            SchedulerKind::Pad => "PAD",
            SchedulerKind::Hpd => "HPD",
            SchedulerKind::Pifo(rk) => rk.name(),
        }
    }
}

/// A computation generic over the concrete scheduler type, for use with
/// [`SchedulerKind::build_and_visit`].
pub trait SchedulerVisitor {
    /// What the computation returns.
    type Out;

    /// Runs the computation with a freshly built scheduler. Every
    /// concrete scheduler is `Clone`, so a visitor serving several links
    /// can clone the pristine one per link and
    /// [`set_link_rate`](Scheduler::set_link_rate) each.
    fn visit<S: Scheduler + Clone + 'static>(self, scheduler: S) -> Self::Out;
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchedulerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fcfs" => Ok(SchedulerKind::Fcfs),
            "strict" => Ok(SchedulerKind::Strict),
            "wtp" => Ok(SchedulerKind::Wtp),
            "bpr" => Ok(SchedulerKind::Bpr),
            "wfq" => Ok(SchedulerKind::Wfq),
            "wf2q" | "wf2q+" => Ok(SchedulerKind::Wf2q),
            "scfq" => Ok(SchedulerKind::Scfq),
            "drr" => Ok(SchedulerKind::Drr),
            "additive" => Ok(SchedulerKind::Additive),
            "pad" => Ok(SchedulerKind::Pad),
            "hpd" => Ok(SchedulerKind::Hpd),
            // Rank-core names: both the display form ("pifo(wtp)") and the
            // filesystem-safe slug ("pifo-wtp") parse.
            "pifo(wtp)" | "pifo-wtp" => Ok(SchedulerKind::Pifo(RankKind::Wtp)),
            "lstf" | "pifo(lstf)" | "pifo-lstf" => Ok(SchedulerKind::Pifo(RankKind::Lstf)),
            other => Err(format!(
                "unknown scheduler '{other}' (expected one of: fcfs, strict, wtp, bpr, wfq, wf2q, scfq, drr, additive, pad, hpd, pifo-wtp, lstf)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use simcore::Time;

    #[test]
    fn every_kind_builds_and_round_trips() {
        let sdp = Sdp::paper_default();
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain(SchedulerKind::PIFO_ALL)
        {
            let mut s = kind.build(&sdp, 1.0);
            assert_eq!(s.num_classes(), 4);
            assert_eq!(s.name(), kind.name());
            s.enqueue(Packet::new(1, 2, 100, Time::ZERO));
            assert_eq!(s.dequeue(Time::from_ticks(5)).unwrap().seq, 1);
            assert!(s.is_empty());
            // Name string parses back to the same kind.
            assert_eq!(kind.name().parse::<SchedulerKind>().unwrap(), kind);
        }
    }

    #[test]
    fn from_str_rejects_unknown() {
        assert!("nope".parse::<SchedulerKind>().is_err());
        assert!("pifo(bpr)".parse::<SchedulerKind>().is_err());
        // Second names for core-backed kinds are gone, and PIFO(FCFS) with
        // them: the error lists the spellings that remain.
        for gone in [
            "pifo-pad",
            "pifo-hpd",
            "pifo-additive",
            "pifo-strict",
            "pifo-fcfs",
        ] {
            let err = gone.parse::<SchedulerKind>().unwrap_err();
            assert!(err.contains("pifo-wtp, lstf"), "{err}");
        }
    }

    #[test]
    fn wtp_and_pifo_wtp_are_one_scheduler_under_two_names() {
        struct Identify;
        impl SchedulerVisitor for Identify {
            type Out = (&'static str, &'static str);
            fn visit<S: Scheduler>(self, s: S) -> Self::Out {
                (std::any::type_name::<S>(), s.name())
            }
        }
        let sdp = Sdp::paper_default();
        let (wtp, wtp_name) = SchedulerKind::Wtp.build_and_visit(&sdp, 1.0, Identify);
        let (pifo, pifo_name) =
            SchedulerKind::Pifo(RankKind::Wtp).build_and_visit(&sdp, 1.0, Identify);
        assert_eq!(wtp, pifo);
        assert_eq!((wtp_name, pifo_name), ("WTP", "PIFO(WTP)"));
    }

    #[test]
    fn pifo_slugs_parse_to_their_kind() {
        for rk in RankKind::ALL {
            assert_eq!(
                rk.slug().parse::<SchedulerKind>().unwrap(),
                SchedulerKind::Pifo(rk),
                "{}",
                rk.slug()
            );
        }
    }

    #[test]
    fn reconfigure_support_matrix() {
        use crate::scheduler::ReconfigureError;
        // The proportional family and LSTF accept live SDP swaps; the
        // baselines refuse with Unsupported naming themselves.
        let supported = [
            SchedulerKind::Wtp,
            SchedulerKind::Bpr,
            SchedulerKind::Pad,
            SchedulerKind::Hpd,
            SchedulerKind::Additive,
            SchedulerKind::Pifo(RankKind::Wtp),
            SchedulerKind::Pifo(RankKind::Lstf),
        ];
        let sdp = Sdp::paper_default();
        let steeper = Sdp::geometric(4, 4.0).unwrap();
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain(SchedulerKind::PIFO_ALL)
        {
            let mut s = kind.build(&sdp, 1.0);
            let got = s.reconfigure(&steeper);
            if supported.contains(&kind) {
                assert_eq!(got, Ok(()), "{kind} should accept reconfigure");
                // Same-scheduler class-count mismatch is always refused.
                let narrow = Sdp::new(&[1.0, 2.0]).unwrap();
                assert_eq!(
                    s.reconfigure(&narrow),
                    Err(ReconfigureError::ClassCountMismatch { have: 4, want: 2 }),
                    "{kind}"
                );
            } else {
                assert_eq!(
                    got,
                    Err(ReconfigureError::Unsupported(kind.name())),
                    "{kind} should refuse reconfigure"
                );
            }
        }
    }

    #[test]
    fn visitor_sees_every_kind_unboxed() {
        struct DrainOne;
        impl SchedulerVisitor for DrainOne {
            type Out = (usize, bool);
            fn visit<S: Scheduler>(self, mut s: S) -> (usize, bool) {
                s.enqueue(Packet::new(0, 1, 100, Time::ZERO));
                let got = s.dequeue(Time::from_ticks(1)).is_some();
                (s.num_classes(), got)
            }
        }
        let sdp = Sdp::paper_default();
        for kind in SchedulerKind::ALL
            .into_iter()
            .chain(SchedulerKind::PIFO_ALL)
        {
            assert_eq!(
                kind.build_and_visit(&sdp, 1.0, DrainOne),
                (4, true),
                "{kind}"
            );
        }
    }
}
