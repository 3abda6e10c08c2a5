//! # experiments — the table/figure regeneration harness
//!
//! One module per experiment in the paper's evaluation. Each is a whole
//! suite in one file: the sweep grid (`cells()`), the cell type that
//! measures and encodes a cell's result — a seed-swept cell implements
//! [`cell::SeedCell`] (measure one seed, fold the seeds in order) and
//! leaves sharding and merging to [`cell`]; the rest implement
//! [`cell::Cell`] — and the markdown block rendered from merged
//! results. [`cell::SUITES`] lists them; the orchestrator crate's
//! `propdiff-run` schedules, caches, and merges the cells and prints or
//! checks the blocks. The bench crate times representative cells at
//! [`Scale::Bench`].
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`fig1`] | Fig. 1a/1b — delay ratios vs utilization |
//! | [`fig2`] | Fig. 2a/2b — delay ratios vs class load distribution |
//! | [`fig3`] | Fig. 3 — R_D percentiles vs monitoring timescale |
//! | [`fig45`] | Figs. 4–5 — microscopic views, BPR sawtooth vs WTP |
//! | [`table1`] | Table 1 — end-to-end R_D over the Fig.-6 topology |
//! | [`ablations`] | scheduler shoot-out, feasibility region, starvation, moderate-load undershoot |
//! | [`dynamics`] | reconvergence after live perturbations (SDP step, link flap) |
//! | [`rank`] | LSTF universality probe — static-slack LSTF vs WTP over the Fig.-1 grid |
//! | [`monitor`] | online conformance monitor — violation rate vs monitoring timescale |
//! | [`mesh`] | datacenter fat-tree via link-level decomposition — PDD at fabric scale |
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod cell;
pub mod dynamics;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig45;
pub mod mesh;
pub mod monitor;
pub mod rank;
mod ratio;
pub mod table1;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full fidelity, close to the paper's own run lengths (release mode).
    Paper,
    /// A few× smaller, for interactive use.
    Quick,
    /// Small enough for a Criterion iteration.
    Bench,
    /// User-chosen horizon and seed count (`--punits N --seeds K`).
    Custom {
        /// Study-A horizon in p-units.
        punits: u64,
        /// Number of seeds to average over.
        nseeds: u16,
    },
}

/// Ticks in a p-unit: the transmission time of the paper's mean packet
/// (441 bytes) on the unit-rate link every Study-A run uses.
pub const TICKS_PER_PUNIT: u64 = pdd::traffic::PAPER_MEAN_PACKET_BYTES as u64;

/// The longest run a suite derives from a scale, in Study-A horizons: the
/// M/G/1 validation (the `analytic` ablation) simulates four.
const LONGEST_RUN_HORIZONS: u64 = 4;

/// The shortest custom horizon, in p-units: `--punits` is clamped to it.
const MIN_PUNITS: u64 = 100;

/// The most seeds a custom scale averages: `--seeds` is clamped to it.
const MAX_SEEDS: u16 = 1000;

/// `punits` mean-packet transmission times in ticks, or `None` when that
/// does not fit the 64-bit clock — the one place a user's `--punits`
/// becomes a horizon.
pub fn punits_to_ticks(punits: u64) -> Option<u64> {
    punits.checked_mul(TICKS_PER_PUNIT)
}

impl Scale {
    /// Parses the scale from the arguments: `--paper`, `--bench`, explicit
    /// `--punits N` / `--seeds K` overrides, or the `Quick` default (so the
    /// binaries finish in seconds).
    ///
    /// # Errors
    /// A usage message when `--punits` or `--seeds` has no value or one
    /// that is not a count, or when the horizon of `--punits` (and the
    /// four of them the longest suite runs) does not fit the clock.
    pub fn try_from_args(args: &[String]) -> Result<Scale, String> {
        let get = |key: &str| -> Result<Option<u64>, String> {
            let Some(i) = args.iter().position(|a| a == key) else {
                return Ok(None);
            };
            let value = (args.get(i + 1)).ok_or_else(|| format!("usage: {key} expects a count"))?;
            (value.parse().map(Some))
                .map_err(|_| format!("usage: {key} expects a count, got `{value}`"))
        };
        let base = if args.iter().any(|a| a == "--paper") {
            Scale::Paper
        } else if args.iter().any(|a| a == "--bench") {
            Scale::Bench
        } else {
            Scale::Quick
        };
        let scale = match (get("--punits")?, get("--seeds")?) {
            (None, None) => base,
            (p, k) => Scale::Custom {
                punits: p.unwrap_or(base.punits()).max(MIN_PUNITS),
                nseeds: k
                    .unwrap_or(base.seeds().len() as u64)
                    .clamp(1, MAX_SEEDS as u64) as u16,
            },
        };
        scale.check().map_err(|e| format!("usage: {e}"))
    }

    /// This scale, if every suite can run at it: a custom one has at least
    /// 100 p-units and 1 to 1000 seeds, and no scale's horizon overflows the
    /// clock when the longest suite runs four of them. The one bound check
    /// for both ways a scale comes in, the CLI flags and a worker's job line.
    ///
    /// # Errors
    /// What is out of bounds, phrased after the flag that sets it.
    pub fn check(self) -> Result<Scale, String> {
        if let Scale::Custom { punits, nseeds } = self {
            if punits < MIN_PUNITS {
                return Err(format!(
                    "--punits {punits}: shorter than {MIN_PUNITS} p-units"
                ));
            }
            if !(1..=MAX_SEEDS).contains(&nseeds) {
                return Err(format!("--seeds {nseeds}: not in 1..={MAX_SEEDS}"));
            }
        }
        let punits = self.punits();
        punits_to_ticks(punits)
            .and_then(|ticks| ticks.checked_mul(LONGEST_RUN_HORIZONS))
            .ok_or_else(|| {
                format!(
                    "--punits {punits}: a horizon of {punits} × {TICKS_PER_PUNIT} ticks \
                     (suites run up to {LONGEST_RUN_HORIZONS} of them) does not fit the 64-bit clock"
                )
            })?;
        Ok(self)
    }

    /// The Study-A horizon, [`punits`](Self::punits) on the clock.
    ///
    /// # Panics
    /// Panics if it does not fit the clock, which [`check`](Self::check)
    /// rules out.
    pub fn horizon(self) -> pdd::simcore::Time {
        let ticks = punits_to_ticks(self.punits()).expect("the scale's horizon fits the clock");
        pdd::simcore::Time::from_ticks(ticks)
    }

    /// Study-A horizon in p-units.
    pub fn punits(self) -> u64 {
        match self {
            Scale::Paper => 90_000,
            Scale::Quick => 30_000,
            Scale::Bench => 6_000,
            Scale::Custom { punits, .. } => punits,
        }
    }

    /// Study-A seeds (the paper averages ten runs).
    pub fn seeds(self) -> Vec<u64> {
        match self {
            Scale::Paper => (1..=10).collect(),
            Scale::Quick => (1..=4).collect(),
            Scale::Bench => vec![1],
            Scale::Custom { nseeds, .. } => (1..=nseeds as u64).collect(),
        }
    }

    /// Study-B `(experiments M, warmup seconds)`.
    pub fn study_b(self) -> (u32, f64) {
        match self {
            Scale::Paper => (100, 100.0),
            Scale::Quick => (30, 20.0),
            Scale::Bench => (6, 4.0),
            // Scale the experiment count with the requested horizon.
            Scale::Custom { punits, .. } => {
                let m = (punits / 1_000).clamp(4, 200) as u32;
                (m, (m as f64 / 2.0).clamp(4.0, 100.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Paper.punits() > Scale::Quick.punits());
        assert!(Scale::Quick.punits() > Scale::Bench.punits());
        assert!(Scale::Paper.seeds().len() >= Scale::Quick.seeds().len());
    }

    fn parse(args: &[&str]) -> Result<Scale, String> {
        Scale::try_from_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn scale_flags_parse() {
        assert_eq!(parse(&["run", "--suite", "fig1"]), Ok(Scale::Quick));
        assert_eq!(parse(&["--bench"]), Ok(Scale::Bench));
        assert_eq!(
            parse(&["--paper", "--seeds", "3"]),
            Ok(Scale::Custom {
                punits: Scale::Paper.punits(),
                nseeds: 3
            })
        );
        assert_eq!(
            parse(&["--punits", "7", "--seeds", "5000"]),
            Ok(Scale::Custom {
                punits: 100,
                nseeds: 1000
            })
        );
    }

    #[test]
    fn a_value_that_is_not_a_count_is_a_usage_error_not_the_default() {
        // `--seeds two` used to read as "no --seeds"; with a non-numeric
        // `--punits` beside it the run reported `scale=quick`.
        for args in [
            &["--punits", "1e6", "--seeds", "two"][..],
            &["--punits", "2000", "--seeds", "two"],
            &["--seeds", "-1"],
            &["--bench", "--punits"],
        ] {
            let err = parse(args).expect_err("must not parse");
            assert!(err.starts_with("usage: --"), "{args:?}: {err}");
        }
    }

    #[test]
    fn a_horizon_that_does_not_fit_the_clock_is_a_usage_error() {
        // 41 829 351 641 064 743 × 441 = 2⁶⁴ + 47: a 47-tick horizon in
        // release builds, an overflow panic in debug ones.
        let err = parse(&["--punits", "41829351641064743"]).expect_err("wraps");
        assert!(
            err.starts_with("usage: --punits 41829351641064743"),
            "{err}"
        );
        assert_eq!(punits_to_ticks(41_829_351_641_064_743), None);
        // The largest horizon that fits is refused as well: a suite that
        // runs four of them would wrap.
        let fits = u64::MAX / TICKS_PER_PUNIT;
        assert_eq!(punits_to_ticks(fits), Some(fits * 441));
        assert!(parse(&["--punits", &fits.to_string()]).is_err());
        let roomy = fits / 4;
        let scale = parse(&["--punits", &roomy.to_string()]).expect("fits four times");
        assert_eq!(scale.horizon().ticks(), roomy * 441);
    }

    #[test]
    fn check_refuses_what_the_flags_clamp_or_the_clock_cannot_hold() {
        let custom = |punits, nseeds| Scale::Custom { punits, nseeds };
        for scale in [Scale::Paper, Scale::Quick, Scale::Bench, custom(100, 1)] {
            assert_eq!(scale.check(), Ok(scale));
        }
        assert_eq!(custom(100, 1000).check(), Ok(custom(100, 1000)));
        for (scale, flag) in [
            (custom(0, 1), "--punits 0:"),
            (custom(99, 1), "--punits 99:"),
            (custom(100, 0), "--seeds 0:"),
            (custom(100, 1001), "--seeds 1001:"),
            (custom(u64::MAX, 1), "--punits 18446744073709551615:"),
        ] {
            let err = scale.check().expect_err(flag);
            assert!(err.starts_with(flag), "{err}");
        }
    }

    #[test]
    fn custom_scale_honors_overrides() {
        let s = Scale::Custom {
            punits: 12_345,
            nseeds: 3,
        };
        assert_eq!(s.punits(), 12_345);
        assert_eq!(s.seeds(), vec![1, 2, 3]);
        let (m, warmup) = s.study_b();
        assert!(m >= 4 && warmup >= 4.0);
    }
}
