//! The named check registry the `conformance` binary runs.
//!
//! Every entry is a deterministic function of a seed, so a failure report
//! ("check X, seed N") is immediately reproducible; the proptest-based
//! tests layer random-case generation *and shrinking* on top of the same
//! underlying check functions.

use sched::Sdp;

use crate::metamorphic::{
    conservation_audit, interleave_check, permutation_check, proportional_kinds,
    size_rescale_check, size_rescale_kinds, time_rescale_check, time_rescale_kinds,
};
use crate::oracle::{diff_wtp, feasibility_witness, oracle_self_check};
use crate::overloaded_arrivals;
use crate::{decompose, fluid, order, Arrival};

/// One named conformance check, runnable on any seed.
pub struct Check {
    /// Stable name printed by the runner.
    pub name: &'static str,
    /// Runs the check for one seed.
    pub run: fn(u64) -> Result<(), String>,
}

fn workload(seed: u64) -> Vec<Arrival> {
    overloaded_arrivals(seed, 300)
}

fn check_oracle_self(seed: u64) -> Result<(), String> {
    oracle_self_check(&Sdp::paper_default(), &workload(seed))
}

fn check_wtp_oracle_diff(seed: u64) -> Result<(), String> {
    diff_wtp(&Sdp::paper_default(), &workload(seed), 1.0).map_err(|d| d.to_string())
}

fn check_proposition_1(seed: u64) -> Result<(), String> {
    // Draining-load workload: the lag bound is per busy period (see
    // `fluid`'s module docs), so the check runs at ρ = 0.9, not overload.
    fluid::check_proposition_1(
        &Sdp::paper_default(),
        &crate::loaded_arrivals(seed, 600, 0.9),
        1.0,
    )
}

fn check_conservation(seed: u64) -> Result<(), String> {
    conservation_audit(&Sdp::paper_default(), &workload(seed))
}

fn check_time_rescale(seed: u64) -> Result<(), String> {
    let sdp = Sdp::paper_default();
    let arrivals = workload(seed);
    for kind in time_rescale_kinds() {
        time_rescale_check(kind, &sdp, &arrivals, 4)?;
    }
    Ok(())
}

fn check_size_rescale(seed: u64) -> Result<(), String> {
    let sdp = Sdp::paper_default();
    let arrivals = workload(seed);
    for kind in size_rescale_kinds() {
        size_rescale_check(kind, &sdp, &arrivals, 2)?;
    }
    Ok(())
}

fn check_feasibility(seed: u64) -> Result<(), String> {
    let sdp = Sdp::paper_default();
    // Uniform packet sizes: `stats`'s feasible region is packet-weighted,
    // which matches the byte-conservation law only at one size (see
    // `oracle::feasibility_witness`).
    let arrivals = crate::uniform_overloaded_arrivals(seed, 300);
    for kind in sched::SchedulerKind::ALL {
        feasibility_witness(kind, &sdp, &arrivals)?;
    }
    Ok(())
}

fn check_interleave(seed: u64) -> Result<(), String> {
    let sdp = Sdp::paper_default();
    for kind in sched::SchedulerKind::ALL {
        interleave_check(kind, &sdp, seed)?;
    }
    Ok(())
}

fn check_permutation(seed: u64) -> Result<(), String> {
    let sdp = Sdp::paper_default();
    for kind in proportional_kinds() {
        permutation_check(kind, &sdp, seed, 0.40)?;
    }
    Ok(())
}

fn check_mesh_conservation(seed: u64) -> Result<(), String> {
    decompose::packet_conservation(&decompose::scenario(seed, 0.7))
}

fn check_mesh_e2e_tolerance(seed: u64) -> Result<(), String> {
    decompose::e2e_within_tolerance(
        &decompose::scenario(seed, 0.7),
        decompose::E2E_REL_TOLERANCE,
    )
}

fn check_mesh_shard_invariance(seed: u64) -> Result<(), String> {
    decompose::shard_invariance(&decompose::scenario(seed, 0.7), &[1, 2, 5])
}

fn check_ecmp_route_oracle(seed: u64) -> Result<(), String> {
    let spec = netsim::LinkSpec::new(25_000_000.0, sched::SchedulerKind::Wtp);
    let topology =
        netsim::Topology::leaf_spine(2 + (seed % 2) as usize, 1 + (seed % 3) as usize, 2, &spec)
            .expect("valid dims");
    decompose::route_oracle(&topology, seed, 3)
}

fn check_mesh_dilation(seed: u64) -> Result<(), String> {
    decompose::size_rate_rescale(&decompose::scenario(seed, 0.7))
}

fn check_mesh_emission_order(seed: u64) -> Result<(), String> {
    order::emission_order(&order::scenario(seed))
}

/// Every check in the suite, in execution order (cheapest first).
pub fn all_checks() -> Vec<Check> {
    vec![
        Check {
            name: "oracle-self-check",
            run: check_oracle_self,
        },
        Check {
            name: "wtp-oracle-diff",
            run: check_wtp_oracle_diff,
        },
        Check {
            name: "bpr-proposition-1",
            run: check_proposition_1,
        },
        Check {
            name: "eq5-conservation",
            run: check_conservation,
        },
        Check {
            name: "time-rescale",
            run: check_time_rescale,
        },
        Check {
            name: "size-rescale",
            run: check_size_rescale,
        },
        Check {
            name: "eq7-feasibility-witness",
            run: check_feasibility,
        },
        Check {
            name: "ecmp-route-oracle",
            run: check_ecmp_route_oracle,
        },
        Check {
            name: "mesh-emission-order",
            run: check_mesh_emission_order,
        },
        Check {
            name: "mesh-packet-conservation",
            run: check_mesh_conservation,
        },
        Check {
            name: "mesh-shard-invariance",
            run: check_mesh_shard_invariance,
        },
        Check {
            name: "mesh-e2e-tolerance",
            run: check_mesh_e2e_tolerance,
        },
        Check {
            name: "mesh-byte-dilation",
            run: check_mesh_dilation,
        },
        Check {
            name: "interleave-equivalence",
            run: check_interleave,
        },
        Check {
            name: "label-permutation",
            run: check_permutation,
        },
    ]
}

/// One failure from a suite run.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The failing check's name.
    pub check: &'static str,
    /// The seed it failed on.
    pub seed: u64,
    /// The check's error message.
    pub message: String,
}

/// Runs every check over `seeds` seeds, collecting all failures (the run
/// does not stop at the first).
pub fn run_suite(seeds: u64, mut progress: impl FnMut(&str, u64, bool)) -> Vec<Failure> {
    let mut failures = Vec::new();
    for check in all_checks() {
        for seed in 0..seeds {
            let result = (check.run)(seed);
            progress(check.name, seed, result.is_ok());
            if let Err(message) = result {
                failures.push(Failure {
                    check: check.name,
                    seed,
                    message,
                });
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        feature = "mutated",
        ignore = "the suite intentionally fails under the seeded mutation"
    )]
    fn full_suite_passes_clean() {
        let failures = run_suite(3, |_, _, _| {});
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    #[cfg(feature = "mutated")]
    fn full_suite_catches_the_mutation() {
        let failures = run_suite(3, |_, _, _| {});
        assert!(
            failures.iter().any(|f| f.check == "wtp-oracle-diff"),
            "the oracle diff must catch the flipped tie-break; failures: {failures:#?}"
        );
        assert!(
            failures.iter().any(|f| f.check == "mesh-emission-order"),
            "the emission order must catch the lane's tie rule; failures: {failures:#?}"
        );
    }
}
