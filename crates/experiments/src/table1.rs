//! Table 1: the end-to-end R_D metric over the Figure-6 multi-hop
//! topology, for every combination of K ∈ {4, 8} hops, ρ ∈ {0.85, 0.95},
//! F ∈ {10, 100} packets, and R_u ∈ {50, 200} kbps.
//!
//! Paper reference: R_D ≈ 2.0–2.3 everywhere (ideal 2.00), tending to 2.0
//! as load and hop count grow, and **zero** cases of inconsistent
//! differentiation.

use pdd::netsim::{analyze, packet_time_tolerance, Session, StudyBConfig, StudyBResult};
use pdd::telemetry::json::Json;
use pdd::telemetry::{MetricsRegistry, NoopProbe, Probe};

use crate::cell::{self, Partial};
use crate::Scale;

/// Hop counts K.
pub const K_HOPS: [usize; 2] = [4usize, 8];
/// Link utilizations ρ.
pub const UTILIZATIONS: [f64; 2] = [0.85, 0.95];
/// `(F packets, R_u kbps)` user-flow columns, as the paper prints them
/// left to right.
pub const FLOWS: [(u32, f64); 4] = [(10, 50.0), (10, 200.0), (100, 50.0), (100, 200.0)];

/// One Table-1 cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Hop count K.
    pub k_hops: usize,
    /// Link utilization ρ.
    pub utilization: f64,
    /// User-flow length F (packets).
    pub flow_len: u32,
    /// User-flow rate R_u (kbps).
    pub flow_rate_kbps: f64,
    /// The analyzed outcome.
    pub result: StudyBResult,
}

/// Measures one Table-1 cell: one (K, ρ, F, R_u) Study-B run.
pub fn cell_run(k: usize, rho: f64, flow_len: u32, rate: f64, scale: Scale) -> Cell {
    cell_run_probed(k, rho, flow_len, rate, scale, &mut NoopProbe)
}

/// As [`cell_run`], streaming every hop's packet events into `probe`.
pub fn cell_run_probed<P: Probe>(
    k: usize,
    rho: f64,
    flow_len: u32,
    rate: f64,
    scale: Scale,
    probe: &mut P,
) -> Cell {
    let (experiments, warmup) = scale.study_b();
    let mut cfg = StudyBConfig::paper(k, rho, flow_len, rate);
    cfg.experiments = experiments;
    cfg.warmup_secs = warmup;
    cfg.seed = 1 + k as u64 * 1000 + (rho * 100.0) as u64;
    let records = Session::study_b(&cfg).probe(probe).run();
    let result = analyze(&records, cfg.num_classes(), packet_time_tolerance(&cfg));
    Cell {
        k_hops: k,
        utilization: rho,
        flow_len,
        flow_rate_kbps: rate,
        result,
    }
}

/// The Table-1 grid, K-major, then ρ, then the flow columns.
pub fn cells() -> Vec<Box<dyn cell::Cell>> {
    let mut cells: Vec<Box<dyn cell::Cell>> = Vec::new();
    for k_hops in K_HOPS {
        for utilization in UTILIZATIONS {
            for (flow_len, flow_rate_kbps) in FLOWS {
                cells.push(Box::new(Table1Cell {
                    k_hops,
                    utilization,
                    flow_len,
                    flow_rate_kbps,
                }));
            }
        }
    }
    cells
}

/// One (K, ρ, F, R_u) Study-B cell of Table 1.
struct Table1Cell {
    k_hops: usize,
    utilization: f64,
    flow_len: u32,
    flow_rate_kbps: f64,
}

impl Table1Cell {
    fn num_classes(&self) -> usize {
        StudyBConfig::paper(
            self.k_hops,
            self.utilization,
            self.flow_len,
            self.flow_rate_kbps,
        )
        .num_classes()
    }
}

impl cell::Cell for Table1Cell {
    fn id(&self) -> String {
        cell::sanitize(format!(
            "table1-k{}-u{}-f{}-r{}",
            self.k_hops, self.utilization, self.flow_len, self.flow_rate_kbps
        ))
    }

    fn params(&self) -> Json {
        cell::params(
            "table1",
            vec![
                ("k_hops", Json::Int(self.k_hops as i64)),
                ("utilization", Json::num(self.utilization)),
                ("flow_len", Json::Int(self.flow_len as i64)),
                ("flow_rate_kbps", Json::num(self.flow_rate_kbps)),
            ],
        )
    }

    fn execute_shard(&self, scale: Scale, _shard: usize) -> Partial {
        let mut registry = MetricsRegistry::with_shape(1, self.num_classes());
        let r = cell_run_probed(
            self.k_hops,
            self.utilization,
            self.flow_len,
            self.flow_rate_kbps,
            scale,
            &mut registry,
        )
        .result;
        let result = Json::obj(vec![
            ("rd", Json::num(r.rd)),
            ("experiments", Json::Int(r.experiments as i64)),
            (
                "inconsistent_experiments",
                Json::Int(r.inconsistent_experiments as i64),
            ),
            (
                "inconsistent_strict",
                Json::Int(r.inconsistent_strict as i64),
            ),
            ("skipped_ratios", Json::Int(r.skipped_ratios as i64)),
            ("class_median_ticks", Json::nums(&r.class_median_ticks)),
        ]);
        (result, Some(registry.to_json()))
    }
}

/// The `table1` block: the paper's grid — rows (K, ρ), columns (F, R_u),
/// entries R_D (ideal 2.00).
pub fn grid(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "table1");
    if cells.is_empty() {
        return None;
    }
    let lookup = |k: i64, rho: f64, f: i64, rate: f64| -> Option<f64> {
        let matches = |c: &&&Json| -> Option<bool> {
            let p = c.get("params")?;
            Some(
                p.get("k_hops")?.as_i64()? == k
                    && (p.get("utilization")?.as_f64()? - rho).abs() < 1e-9
                    && p.get("flow_len")?.as_i64()? == f
                    && (p.get("flow_rate_kbps")?.as_f64()? - rate).abs() < 1e-9,
            )
        };
        cells
            .iter()
            .find(|c| matches(c).unwrap_or(false))
            .and_then(|c| cell::result(c).get("rd").and_then(Json::as_f64))
    };
    let mut rows = Vec::new();
    for k in K_HOPS {
        for rho in UTILIZATIONS {
            let mut row = vec![format!("K={k} ρ={:.0}%", rho * 100.0)];
            for (f, rate) in FLOWS {
                row.push(match lookup(k as i64, rho, f as i64, rate) {
                    Some(rd) => format!("{rd:.1}"),
                    None => "—".into(),
                });
            }
            rows.push(row);
        }
    }
    Some(cell::markdown_table(
        &["", "F=10 R=50", "F=10 R=200", "F=100 R=50", "F=100 R=200"],
        rows,
    ))
}

/// The `table1-consistency` block: inconsistent-differentiation totals.
pub fn consistency(merged: &Json) -> Option<String> {
    let cells = cell::group_cells(merged, "table1");
    if cells.is_empty() {
        return None;
    }
    let sum = |key: &str| -> i64 {
        cells
            .iter()
            .filter_map(|c| cell::result(c).get(key).and_then(Json::as_i64))
            .sum()
    };
    let total = sum("experiments");
    let inconsistent = sum("inconsistent_experiments");
    let strict = sum("inconsistent_strict");
    Some(format!(
        "Inconsistent differentiation: **{inconsistent} of {total}** user experiments \
         beyond one packet transmission time per hop ({strict} at strict nanosecond \
         resolution); the paper reports zero."
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small cell rather than the full grid (the grid runs in the
    /// binary/bench); asserts the paper's two headline claims.
    #[test]
    fn single_cell_close_to_two_and_consistent() {
        let mut cfg = StudyBConfig::paper(4, 0.95, 10, 200.0);
        cfg.experiments = 8;
        cfg.warmup_secs = 4.0;
        let records = Session::study_b(&cfg).run();
        let result = analyze(&records, cfg.num_classes(), packet_time_tolerance(&cfg));
        assert!(
            (result.rd - 2.0).abs() < 0.6,
            "R_D {} far from ideal 2.0",
            result.rd
        );
        assert_eq!(
            result.inconsistent_experiments, 0,
            "inconsistent differentiation observed"
        );
    }
}
