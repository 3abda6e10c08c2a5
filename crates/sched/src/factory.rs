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

    /// Builds a boxed scheduler — the one place a kind becomes a
    /// scheduler; every engine runs what this returns.
    ///
    /// `sdp` supplies the differentiation parameters (interpreted per
    /// scheduler: gains for WTP/BPR/PAD/HPD, weights for WFQ/SCFQ/DRR, tick
    /// offsets for Additive; ignored by FCFS/Strict except for the class
    /// count). `link_rate` (bytes/tick) is needed by the rate-based
    /// schedulers.
    pub fn build(&self, sdp: &Sdp, link_rate: f64) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(Fcfs::new(sdp.num_classes())),
            SchedulerKind::Strict => Box::new(self.core(sdp, StrictRank)),
            SchedulerKind::Wtp | SchedulerKind::Pifo(RankKind::Wtp) => {
                Box::new(self.core(sdp, WtpRank::new(sdp.clone())))
            }
            SchedulerKind::Bpr => Box::new(Bpr::new(sdp.clone(), link_rate)),
            SchedulerKind::Wfq => Box::new(FairQueue::wfq(sdp.clone(), link_rate)),
            SchedulerKind::Wf2q => Box::new(FairQueue::wf2q(sdp.clone())),
            SchedulerKind::Scfq => Box::new(FairQueue::scfq(sdp.clone())),
            SchedulerKind::Drr => Box::new(Drr::new(sdp.clone(), 1500)),
            SchedulerKind::Additive => Box::new(self.core(sdp, AdditiveRank::new(sdp.clone()))),
            SchedulerKind::Pad => Box::new(self.core(sdp, PadRank::new(sdp.clone()))),
            SchedulerKind::Hpd => Box::new(self.core(sdp, HpdRank::with_default_g(sdp.clone()))),
            SchedulerKind::Pifo(RankKind::Lstf) => {
                Box::new(self.core(sdp, LstfRank::with_default_base(sdp.clone())))
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
        // Bursts of eight same-tick arrivals on classes of pairwise equal
        // SDPs: heads of equal waiting time and equal weight tie at every
        // decision.
        let arrivals: Vec<(u64, u8, u32)> = (0..96u64)
            .map(|i| {
                (
                    i / 8 * 600,
                    (i % 4) as u8,
                    [40, 550, 1500][(i % 3) as usize],
                )
            })
            .collect();
        let sdp = Sdp::new(&[1.0, 1.0, 2.0, 2.0]).unwrap();
        let mut wtp = SchedulerKind::Wtp.build(&sdp, 1.0);
        let mut pifo = SchedulerKind::Pifo(RankKind::Wtp).build(&sdp, 1.0);
        let drained = crate::testutil::drive(wtp.as_mut(), &arrivals);
        assert_eq!(drained.len(), arrivals.len());
        assert_eq!(drained, crate::testutil::drive(pifo.as_mut(), &arrivals));
        assert_eq!((wtp.name(), pifo.name()), ("WTP", "PIFO(WTP)"));
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
}
