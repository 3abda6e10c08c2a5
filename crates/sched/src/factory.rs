//! Scheduler construction by name — used by the experiment harness and the
//! ablation binaries.

use std::fmt;
use std::str::FromStr;

use crate::additive::Additive;
use crate::bpr::Bpr;
use crate::class::Sdp;
use crate::drr::Drr;
use crate::fcfs::Fcfs;
use crate::hpd::Hpd;
use crate::pad::Pad;
use crate::rank::RankKind;
use crate::scfq::Scfq;
use crate::scheduler::Scheduler;
use crate::strict::StrictPriority;
use crate::wf2q::Wf2q;
use crate::wfq::Wfq;
use crate::wtp::Wtp;

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
    /// A rank-function discipline on the PIFO core (`sched::rank`).
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

    /// Every rank-core kind, in [`RankKind::ALL`] order. Kept separate
    /// from [`SchedulerKind::ALL`] so the paper-report iterations stay
    /// over the eleven bespoke schedulers; conformance and the `rank`
    /// experiment suite iterate this list.
    pub const PIFO_ALL: [SchedulerKind; 7] = [
        SchedulerKind::Pifo(RankKind::Fcfs),
        SchedulerKind::Pifo(RankKind::Strict),
        SchedulerKind::Pifo(RankKind::Additive),
        SchedulerKind::Pifo(RankKind::Wtp),
        SchedulerKind::Pifo(RankKind::Pad),
        SchedulerKind::Pifo(RankKind::Hpd),
        SchedulerKind::Pifo(RankKind::Lstf),
    ];

    /// Builds a boxed scheduler.
    ///
    /// `sdp` supplies the differentiation parameters (interpreted per
    /// scheduler: gains for WTP/BPR/PAD/HPD, weights for WFQ/SCFQ/DRR, tick
    /// offsets for Additive; ignored by FCFS/Strict except for the class
    /// count). `link_rate` (bytes/tick) is needed by the rate-based
    /// schedulers.
    pub fn build(&self, sdp: &Sdp, link_rate: f64) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(Fcfs::new(sdp.num_classes())),
            SchedulerKind::Strict => Box::new(StrictPriority::new(sdp.num_classes())),
            SchedulerKind::Wtp => Box::new(Wtp::new(sdp.clone())),
            SchedulerKind::Bpr => Box::new(Bpr::new(sdp.clone(), link_rate)),
            SchedulerKind::Wfq => Box::new(Wfq::new(sdp.clone(), link_rate)),
            SchedulerKind::Wf2q => Box::new(Wf2q::new(sdp.clone())),
            SchedulerKind::Scfq => Box::new(Scfq::new(sdp.clone())),
            SchedulerKind::Drr => Box::new(Drr::new(sdp.clone(), 1500)),
            SchedulerKind::Additive => Box::new(Additive::new(sdp.clone())),
            SchedulerKind::Pad => Box::new(Pad::new(sdp.clone())),
            SchedulerKind::Hpd => Box::new(Hpd::with_default_g(sdp.clone())),
            SchedulerKind::Pifo(rk) => rk.build(sdp),
        }
    }

    /// Builds the scheduler **unboxed** and hands it to `visitor`,
    /// monomorphizing the visitor's body once per concrete scheduler type.
    ///
    /// This is the static-dispatch counterpart of [`SchedulerKind::build`]:
    /// hot loops written against a generic `S: Scheduler` (such as
    /// `qsim::Session::run`) get devirtualized per-packet calls while the
    /// scheduler choice stays a runtime value.
    pub fn build_and_visit<V: SchedulerVisitor>(&self, sdp: &Sdp, link_rate: f64, v: V) -> V::Out {
        match self {
            SchedulerKind::Fcfs => v.visit(Fcfs::new(sdp.num_classes())),
            SchedulerKind::Strict => v.visit(StrictPriority::new(sdp.num_classes())),
            SchedulerKind::Wtp => v.visit(Wtp::new(sdp.clone())),
            SchedulerKind::Bpr => v.visit(Bpr::new(sdp.clone(), link_rate)),
            SchedulerKind::Wfq => v.visit(Wfq::new(sdp.clone(), link_rate)),
            SchedulerKind::Wf2q => v.visit(Wf2q::new(sdp.clone())),
            SchedulerKind::Scfq => v.visit(Scfq::new(sdp.clone())),
            SchedulerKind::Drr => v.visit(Drr::new(sdp.clone(), 1500)),
            SchedulerKind::Additive => v.visit(Additive::new(sdp.clone())),
            SchedulerKind::Pad => v.visit(Pad::new(sdp.clone())),
            SchedulerKind::Hpd => v.visit(Hpd::with_default_g(sdp.clone())),
            SchedulerKind::Pifo(rk) => rk.build_and_visit(sdp, v),
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
    fn visit<S: Scheduler + Clone>(self, scheduler: S) -> Self::Out;
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
            // Rank-core kinds: both the display form ("pifo(wtp)") and the
            // filesystem-safe slug ("pifo-wtp") parse.
            "pifo(fcfs)" | "pifo-fcfs" => Ok(SchedulerKind::Pifo(RankKind::Fcfs)),
            "pifo(strict)" | "pifo-strict" => Ok(SchedulerKind::Pifo(RankKind::Strict)),
            "pifo(additive)" | "pifo-additive" => Ok(SchedulerKind::Pifo(RankKind::Additive)),
            "pifo(wtp)" | "pifo-wtp" => Ok(SchedulerKind::Pifo(RankKind::Wtp)),
            "pifo(pad)" | "pifo-pad" => Ok(SchedulerKind::Pifo(RankKind::Pad)),
            "pifo(hpd)" | "pifo-hpd" => Ok(SchedulerKind::Pifo(RankKind::Hpd)),
            "lstf" | "pifo(lstf)" | "pifo-lstf" => Ok(SchedulerKind::Pifo(RankKind::Lstf)),
            other => Err(format!(
                "unknown scheduler '{other}' (expected one of: fcfs, strict, wtp, bpr, wfq, wf2q, scfq, drr, additive, pad, hpd, pifo-<rank>, lstf)"
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
    fn pifo_reconfigure_mirrors_the_rank_support_matrix() {
        use crate::scheduler::ReconfigureError;
        let sdp = Sdp::paper_default();
        let steeper = Sdp::geometric(4, 4.0).unwrap();
        for rk in RankKind::ALL {
            let mut s = SchedulerKind::Pifo(rk).build(&sdp, 1.0);
            let got = s.reconfigure(&steeper);
            if rk.supports_reconfigure() {
                assert_eq!(got, Ok(()), "{} should accept reconfigure", rk.name());
            } else {
                assert_eq!(
                    got,
                    Err(ReconfigureError::Unsupported(rk.name())),
                    "{} should refuse reconfigure",
                    rk.name()
                );
            }
        }
    }

    #[test]
    fn reconfigure_support_matrix() {
        use crate::scheduler::ReconfigureError;
        // The proportional family accepts live SDP swaps; the baselines
        // refuse with Unsupported naming themselves.
        let supported = [
            SchedulerKind::Wtp,
            SchedulerKind::Bpr,
            SchedulerKind::Pad,
            SchedulerKind::Hpd,
            SchedulerKind::Additive,
        ];
        let sdp = Sdp::paper_default();
        let steeper = Sdp::geometric(4, 4.0).unwrap();
        for kind in SchedulerKind::ALL {
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
