//! The live [`Timeline`]: a [`ScenarioRuntime`] driving one link, visited
//! by [`serve`](crate::server::serve) at every admission and decision
//! instant.
//!
//! * `SetSdp` → [`Scheduler::reconfigure`]; schedulers answering
//!   [`ReconfigureError::Unsupported`] keep running, a class-count
//!   mismatch panics — the timeline does not fit the link;
//! * `SetLinkRate` → future transmission times and
//!   [`Scheduler::set_link_rate`]; the packet in flight completes at the
//!   old rate (transmissions are non-preemptive);
//! * a downed link stalls service until its `LinkUp` (validation
//!   guarantees one). Arrivals meanwhile are queued ([`DownPolicy::Hold`],
//!   still subject to a finite buffer) or discarded with an `on_drop`
//!   record ([`DownPolicy::Drop`]);
//! * load surges are realized by the workload
//!   ([`Session::sources`](crate::Session::sources)), not here.

use scenario::{Command, DownPolicy, ScenarioRuntime};
use sched::{ReconfigureError, Scheduler};
use simcore::Time;
use telemetry::Probe;

use crate::server::Timeline;

/// A link under a non-empty scenario: the runtime's cursor and state
/// machine, plus the link rate its `SetLinkRate` events move.
pub(crate) struct Live {
    pub(crate) rt: ScenarioRuntime,
    pub(crate) rate: f64,
}

impl Timeline for Live {
    const LIVE: bool = true;

    fn rate(&self) -> f64 {
        self.rate
    }

    fn advance<S: Scheduler + ?Sized, P: Probe>(&mut self, now: Time, s: &mut S, probe: &mut P) {
        let rate = &mut self.rate;
        self.rt.apply_due(now, probe, |cmd| match cmd {
            Command::Reconfigure(sdp) => match s.reconfigure(&sdp) {
                Ok(()) | Err(ReconfigureError::Unsupported(_)) => {}
                Err(e) => panic!("scenario set_sdp: {e}"),
            },
            Command::SetLinkRate { rate: r, .. } => {
                *rate = r;
                s.set_link_rate(r);
            }
            // Link state lives in the runtime; the queries below read it.
            Command::LinkDown { .. } | Command::LinkUp { .. } => {}
        });
    }

    fn admits(&self, class: u8) -> bool {
        self.rt.admits(class)
    }

    fn dropping(&self) -> bool {
        !self.rt.link_up(0) && self.rt.down_policy(0) == DownPolicy::Drop
    }

    fn down_until(&self) -> Option<Time> {
        let restored = || {
            self.rt
                .next_at()
                .expect("validated scenario restores the link")
        };
        (!self.rt.link_up(0)).then(restored)
    }
}

#[cfg(test)]
mod tests {
    use crate::{LossMode, Session};
    use scenario::{DownPolicy, Scenario};
    use sched::{Fcfs, SchedulerKind, Sdp};
    use simcore::Time;
    use traffic::{ClassSource, Trace, TraceEntry};

    fn trace(entries: &[(u64, u8, u32)]) -> Trace {
        Trace::from_entries(
            entries
                .iter()
                .map(|&(t, class, size)| TraceEntry {
                    at: Time::from_ticks(t),
                    class,
                    size,
                })
                .collect(),
        )
    }

    fn t(ticks: u64) -> Time {
        Time::from_ticks(ticks)
    }

    #[test]
    fn set_sdp_flips_the_winner_mid_run() {
        // At the t=100 decision the class-0 head has waited 99 and the
        // class-1 head 40: under s = [1, 2] class 0 wins (99 > 80), but
        // after the live swap to s = [1, 8] at t=50 class 1 accrues so fast
        // it overtakes (320 > 99) — same queues, same waiting times.
        let tr = trace(&[(0, 1, 100), (1, 0, 100), (60, 1, 100)]);
        let sc = Scenario::builder()
            .set_sdp(t(50), Sdp::new(&[1.0, 8.0]).unwrap())
            .build()
            .unwrap();
        let mut with = Vec::new();
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        Session::trace(&tr, 1.0)
            .scenario(sc.clone())
            .run(s.as_mut(), |d| with.push(d.packet.class));
        let mut without = Vec::new();
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        Session::trace(&tr, 1.0)
            .scenario(Scenario::empty())
            .run(s.as_mut(), |d| without.push(d.packet.class));
        assert_eq!(
            without,
            vec![1, 0, 1],
            "stationary WTP serves the long wait"
        );
        assert_eq!(with, vec![1, 1, 0], "reconfigured WTP promotes class 1");
    }

    #[test]
    fn set_link_rate_retimes_future_transmissions_only() {
        // 100 B at rate 1 take 100 ticks; after the doubling at t=150 they
        // take 50. The packet in flight at the switch completes at rate 1.
        let tr = trace(&[(0, 0, 100), (0, 0, 100), (0, 0, 100)]);
        let sc = Scenario::builder()
            .set_link_rate(t(150), 0, 2.0)
            .build()
            .unwrap();
        let mut finishes = Vec::new();
        let mut s = Fcfs::new(1);
        Session::trace(&tr, 1.0)
            .scenario(sc.clone())
            .run(&mut s, |d| finishes.push(d.finish.ticks()));
        // First two at rate 1 (0→100, 100→200; the event at t=150 fires at
        // the t=100 decision? No: due events are applied at decision
        // instants, so at t=100 the rate is still 1), third at rate 2.
        assert_eq!(finishes, vec![100, 200, 250]);
    }

    #[test]
    fn link_down_hold_stalls_service_and_resumes() {
        // Link down [100, 300): the packet arriving at 150 is held and
        // serves at 300. Non-preemptive: the packet in flight at 100 — none
        // here; first arrival is during downtime.
        let tr = trace(&[(150, 0, 100), (160, 0, 100)]);
        let sc = Scenario::builder()
            .link_down(t(100), 0, DownPolicy::Hold)
            .link_up(t(300), 0)
            .build()
            .unwrap();
        let mut out = Vec::new();
        let mut s = Fcfs::new(1);
        Session::trace(&tr, 1.0)
            .scenario(sc.clone())
            .run(&mut s, |d| out.push((d.start.ticks(), d.finish.ticks())));
        assert_eq!(out, vec![(300, 400), (400, 500)]);
    }

    #[test]
    fn link_down_drop_discards_arrivals_but_completes_in_flight() {
        // The t=0 packet is in flight when the link drops at 50 — it
        // completes (non-preemptive). The t=60 arrival is discarded; the
        // t=400 arrival (after LinkUp at 200) is served normally.
        let tr = trace(&[(0, 0, 100), (60, 0, 100), (400, 0, 100)]);
        let sc = Scenario::builder()
            .link_down(t(50), 0, DownPolicy::Drop)
            .link_up(t(200), 0)
            .build()
            .unwrap();
        let mut out = Vec::new();
        let mut s = Fcfs::new(1);
        let mut registry = telemetry::MetricsRegistry::with_shape(1, 1);
        Session::trace(&tr, 1.0)
            .probe(&mut registry)
            .scenario(sc.clone())
            .run(&mut s, |d| out.push(d.start.ticks()));
        assert_eq!(out, vec![0, 400]);
        assert_eq!(registry.class_total(0).arrivals, 3);
        assert_eq!(registry.class_total(0).drops, 1);
        assert_eq!(registry.scenario_events(), 2);
    }

    #[test]
    fn class_leave_filters_arrivals_and_join_readmits() {
        let tr = trace(&[(0, 1, 10), (100, 1, 10), (300, 1, 10)]);
        let sc = Scenario::builder()
            .class_leave(t(50), 1)
            .class_join(t(200), 1)
            .build()
            .unwrap();
        let mut served = 0;
        let mut s = Fcfs::new(2);
        Session::trace(&tr, 1.0)
            .scenario(sc.clone())
            .run(&mut s, |_| served += 1);
        assert_eq!(served, 2, "the t=100 arrival fell in the leave window");
    }

    #[test]
    fn lossy_scenario_flap_counts_fault_drops() {
        let tr = trace(&[(0, 0, 100), (150, 0, 100), (160, 1, 100), (500, 1, 100)]);
        let sc = Scenario::builder()
            .link_down(t(120), 0, DownPolicy::Drop)
            .link_up(t(300), 0)
            .build()
            .unwrap();
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        let r = Session::trace(&tr, 1.0)
            .scenario(sc)
            .lossy(10_000, LossMode::TailDrop)
            .run(s.as_mut());
        assert_eq!(r.arrivals, vec![2, 2]);
        assert_eq!(r.drops, vec![1, 1], "both downtime arrivals discarded");
        assert_eq!(r.delays[0].count() + r.delays[1].count(), 2);
    }

    #[test]
    fn streaming_scenario_surge_increases_arrivals() {
        let sources = vec![ClassSource::new(
            0,
            traffic::IatDist::deterministic(100.0).unwrap(),
            traffic::SizeDist::fixed(10),
        )];
        let sc = Scenario::builder()
            .load_surge(t(5_000), 0, 0.25)
            .build()
            .unwrap();
        let mut n_plain = 0u64;
        let mut s = Fcfs::new(1);
        Session::sources(&sources, t(10_000), 7, 1.0)
            .scenario(Scenario::empty())
            .run(&mut s, |_| n_plain += 1);
        let mut n_surged = 0u64;
        let mut s = Fcfs::new(1);
        Session::sources(&sources, t(10_000), 7, 1.0)
            .scenario(sc.clone())
            .run(&mut s, |_| n_surged += 1);
        // 100 arrivals stationary; the surge quarters the gap from t=5000,
        // so the second half packs ~4x the arrivals in.
        assert_eq!(n_plain, 100);
        assert_eq!(n_surged, 50 + 200);
    }

    #[test]
    #[should_panic(expected = "scenario set_sdp")]
    fn sdp_class_count_mismatch_panics_loudly() {
        let tr = trace(&[(0, 0, 10), (20, 0, 10)]);
        let sc = Scenario::builder()
            .set_sdp(t(5), Sdp::paper_default()) // 4 classes vs 2
            .build()
            .unwrap();
        let mut s = SchedulerKind::Wtp.build(&Sdp::new(&[1.0, 2.0]).unwrap(), 1.0);
        Session::trace(&tr, 1.0)
            .scenario(sc.clone())
            .run(s.as_mut(), |_| {});
    }

    #[test]
    fn unsupported_scheduler_ignores_set_sdp() {
        // FCFS has no SDPs; the swap is a recorded no-op, not an error.
        let tr = trace(&[(0, 0, 10), (20, 0, 10)]);
        let sc = Scenario::builder()
            .set_sdp(t(5), Sdp::new(&[1.0, 1.0]).unwrap())
            .build()
            .unwrap();
        let mut s = Fcfs::new(1);
        let mut n = 0;
        Session::trace(&tr, 1.0)
            .scenario(sc.clone())
            .run(&mut s, |_| n += 1);
        assert_eq!(n, 2);
    }
}
