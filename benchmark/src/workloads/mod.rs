//! The six workloads and the per-layer ladders that go with them.
//!
//! A workload is built by `setup` from the seed and then asked for one
//! *pass* at a time: a fixed amount of simulated work whose size is a
//! constant of this crate. All load is closed-loop — the harness issues
//! the next pass when the previous one returns.

use std::path::PathBuf;

use crate::spans::Tracer;

pub mod farm;
pub mod mesh;
pub mod micro;
pub mod replay;
pub mod session;

/// How large the constants are taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes every reported number is measured at.
    Full,
    /// One fiftieth, for `--smoke`: exercises every code path and every
    /// check in seconds and reports no numbers.
    Smoke,
}

impl Size {
    /// `n` at this size (never below 1).
    pub fn of(self, n: u64) -> u64 {
        match self {
            Size::Full => n,
            Size::Smoke => (n / 50).max(1),
        }
    }
}

/// What a workload is built from. The program under test receives only
/// inputs generated from these; it never sees the seed's meaning or the
/// workload's name.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub size: Size,
    /// Harness threads or worker processes a pass may use: `min(2, nproc)`.
    pub parallelism: usize,
    /// The freshly built `propdiff-run`, spawned as `propdiff-run worker`.
    pub worker_exe: PathBuf,
    /// Directory for result caches, removed when the harness exits.
    pub scratch: PathBuf,
}

#[cfg(test)]
impl Ctx {
    /// A smoke-size context for unit tests (no worker, no scratch).
    pub fn smoke(seed: u64) -> Ctx {
        Ctx {
            seed,
            size: Size::Smoke,
            parallelism: 2,
            worker_exe: "unused".into(),
            scratch: "unused".into(),
        }
    }
}

/// What one pass produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated work units done (packets, packet-hops, shards,
    /// cell-loads): an exact count that must repeat on every pass.
    pub units: u64,
    /// FNV-1a over the pass's departures or merged document.
    pub digest: u64,
    /// Checks the pass failed, in words; empty when it is correct.
    pub errors: Vec<String>,
}

pub trait Workload {
    /// Runs one pass. Spans go to `tracer` (which is switched off in the
    /// untraced run, so the pass then reads no clock at all).
    fn pass(&mut self, tracer: &mut Tracer) -> Outcome;

    /// A slower check against an independent path to the same result,
    /// made once after the timed passes; returns the failures.
    fn cross_check(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Exact simulated counts beyond `units`, for `results.json`.
    fn counts(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// What one work unit is.
    pub unit: &'static str,
    /// Listed in `BENCHMARK.json`, so the acceptance driver runs it and
    /// holds its metrics to their bounds. The driver's time allows four
    /// workloads at a run length that is steady on a shared box; the other
    /// two are measured by `run.sh` all the same, and their layers are in
    /// every traced run's ladder.
    pub gated: bool,
    pub setup: fn(&Ctx) -> Result<Box<dyn Workload>, String>,
}

pub static WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "link-replay",
        unit: "packet",
        gated: true,
        setup: replay::setup,
    },
    WorkloadDef {
        name: "session-stream",
        unit: "packet",
        gated: true,
        setup: session::setup,
    },
    WorkloadDef {
        name: "mesh-coupled",
        unit: "packet-hop",
        gated: true,
        setup: mesh::setup_coupled,
    },
    WorkloadDef {
        name: "mesh-shards",
        unit: "packet-hop",
        gated: false,
        setup: mesh::setup_shards,
    },
    WorkloadDef {
        name: "farm-cold",
        unit: "shard",
        gated: true,
        setup: farm::setup_cold,
    },
    WorkloadDef {
        name: "farm-warm",
        unit: "cell-load",
        gated: false,
        setup: farm::setup_warm,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The per-layer metrics a traced run has taken so far.
#[derive(Debug, Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    /// Ladder checks that failed (attribution sanity, exact counts).
    pub errors: Vec<String>,
}

impl Layers {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} taken twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Runs every ladder: the full per-layer table, whatever workload the
/// traced run was asked for.
pub fn ladders(ctx: &Ctx, tracer: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    micro::ladder(ctx, tracer, layers);
    replay::ladder(ctx, tracer, layers)?;
    session::ladder(ctx, tracer, layers)?;
    mesh::ladder(ctx, tracer, layers)?;
    farm::ladder(ctx, tracer, layers)?;
    Ok(())
}

/// Nanoseconds per unit.
pub(crate) fn ns_per(secs: f64, units: u64) -> f64 {
    secs * 1e9 / units.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_a_fiftieth_and_never_zero() {
        assert_eq!(Size::Full.of(4_000_000), 4_000_000);
        assert_eq!(Size::Smoke.of(4_000_000), 80_000);
        assert_eq!(Size::Smoke.of(20), 1);
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(std::ptr::eq(find(w.name).unwrap(), w));
            assert!(WORKLOADS[..i].iter().all(|v| v.name != w.name));
        }
        assert!(find("nope").is_none());
    }
}
