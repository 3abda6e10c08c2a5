//! `benchmark compare A.json B.json`: B against A, metric by metric and
//! workload by workload, under the bounds the benchmark fixed.
//!
//! Either side may be several `results.json` files separated by commas
//! (the runs of one commit); the medians are then compared and the
//! run-to-run spread is taken across the files. With one file a side,
//! the spread is the one recorded inside the run (across its passes).

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stat::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The spread is wider than the bound: neither changed nor unchanged.
    Unresolved,
    /// A count or digest that must repeat exactly did not.
    Differs,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "REGRESSED",
            Status::Unresolved => "unresolved",
            Status::Differs => "DIFFERS",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Status::Regressed | Status::Differs)
    }
}

/// One side's readings of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// One value per run.
    pub runs: Vec<f64>,
    /// Spread recorded inside a single run, used when `runs` has one.
    pub within: f64,
}

impl Side {
    fn summary(&self) -> Summary {
        Summary::of(&self.runs)
    }

    fn spread(&self) -> f64 {
        if self.runs.len() > 1 {
            self.summary().spread()
        } else {
            self.within
        }
    }
}

/// The verdict on one (metric, workload) cell and the share by which B
/// is worse than A (negative when it is better).
pub fn judge(m: &EndToEnd, a: &Side, b: &Side) -> (Status, f64) {
    let (ma, mb) = (a.summary().median, b.summary().median);
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let better = |x: f64, y: f64| match m.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let status = if a.spread().max(b.spread()) > m.bound {
        // Too noisy to call, unless every run of B beats every run of A.
        let clean_win = b.runs.iter().all(|&y| a.runs.iter().all(|&x| better(y, x)));
        if clean_win {
            Status::Ok
        } else {
            Status::Unresolved
        }
    } else if worse_by > m.bound {
        Status::Regressed
    } else {
        Status::Ok
    };
    (status, worse_by)
}

fn load(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(name)
}

fn side(docs: &[Json], name: &str, metric: &str) -> Option<Side> {
    let cells: Vec<&Json> = docs
        .iter()
        .filter_map(|d| workload(d, name)?.get("metrics")?.get(metric))
        .collect();
    let num = |cell: &Json, key: &str| cell.get(key).and_then(Json::as_f64);
    let runs: Vec<f64> = cells.iter().filter_map(|c| num(c, "value")).collect();
    let first = cells.first()?;
    let within = match (num(first, "value"), num(first, "q1"), num(first, "q3")) {
        (Some(v), Some(q1), Some(q3)) if v != 0.0 => (q3 - q1).abs() / v.abs(),
        _ => 0.0,
    };
    (!runs.is_empty()).then_some(Side { runs, within })
}

fn total(docs: &[Json], name: &str, key: &str) -> f64 {
    docs.iter()
        .filter_map(|d| workload(d, name)?.get(key)?.as_f64())
        .sum()
}

/// The `(seed, value)` pairs the runs recorded under `key` for `name`
/// (values printed compactly), without repeats.
fn exact(docs: &[Json], name: &str, key: &str) -> Vec<(String, String)> {
    let mut seen: Vec<(String, String)> = docs
        .iter()
        .filter_map(|d| {
            let w = workload(d, name)?;
            Some((w.get("seed")?.compact(), w.get(key)?.compact()))
        })
        .collect();
    seen.sort();
    seen.dedup();
    seen
}

/// Prints one row per (metric, workload) and returns whether any row
/// regressed or differed.
pub fn compare(a_list: &str, b_list: &str) -> Result<bool, String> {
    let (a, b) = (load(a_list)?, load(b_list)?);
    let names: Vec<String> = a[0]
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("no workloads in the first file")?
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    println!(
        "{:<16} {:<13} {:>14} {:>14} {:>9} {:>8}  status",
        "workload", "metric", "A", "B", "worse by", "spread"
    );
    let mut failed = false;
    for name in &names {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, name, m.name), side(&b, name, m.name)) else {
                println!("{name:<16} {:<13} missing on one side  DIFFERS", m.name);
                failed = true;
                continue;
            };
            let (status, worse_by) = judge(m, &sa, &sb);
            println!(
                "{name:<16} {:<13} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}%  {} (bound {:.0}%)",
                m.name,
                sa.summary().median,
                sb.summary().median,
                worse_by * 100.0,
                sa.spread().max(sb.spread()) * 100.0,
                status.as_str(),
                m.bound * 100.0
            );
            failed |= status.fails();
        }
        // Failures have no bound: any increase is a regression.
        let share =
            |docs: &[Json]| total(docs, name, "failed") / total(docs, name, "attempted").max(1.0);
        let (fa, fb) = (share(&a), share(&b));
        let status = if fb > fa {
            Status::Regressed
        } else {
            Status::Ok
        };
        println!(
            "{name:<16} {:<13} {fa:>14.6} {fb:>14.6} {:>9} {:>8}  {}",
            "failed_share",
            "",
            "",
            status.as_str()
        );
        failed |= status.fails();
        // Simulated results: identical for identical seeds, or something
        // other than speed changed.
        for key in ["digest", "counts"] {
            let (ea, eb) = (exact(&a, name, key), exact(&b, name, key));
            let same_seeds = ea
                .iter()
                .map(|(seed, _)| seed)
                .eq(eb.iter().map(|(seed, _)| seed));
            let status = match (same_seeds, ea == eb) {
                (false, _) => "skipped (seeds differ)",
                (true, true) => Status::Ok.as_str(),
                (true, false) => {
                    failed = true;
                    Status::Differs.as_str()
                }
            };
            println!("{name:<16} {key:<13} {:>58}  {status}", "");
        }
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PASS_S: &EndToEnd = &END_TO_END[1];
    const UNITS_PER_S: &EndToEnd = &END_TO_END[2];

    fn one(value: f64, within: f64) -> Side {
        Side {
            runs: vec![value],
            within,
        }
    }

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_regressed() {
        assert_eq!(PASS_S.bound, 0.25);
        assert_eq!(
            judge(PASS_S, &one(1.0, 0.01), &one(1.2, 0.01)).0,
            Status::Ok
        );
        let (status, worse_by) = judge(PASS_S, &one(1.0, 0.01), &one(1.3, 0.01));
        assert_eq!(status, Status::Regressed);
        assert!((worse_by - 0.3).abs() < 1e-12);
        assert_eq!(
            judge(PASS_S, &one(1.0, 0.01), &one(0.5, 0.01)).0,
            Status::Ok
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        assert_eq!(UNITS_PER_S.better, Better::Higher);
        assert_eq!(
            judge(UNITS_PER_S, &one(100.0, 0.0), &one(70.0, 0.0)).0,
            Status::Regressed
        );
        assert_eq!(
            judge(UNITS_PER_S, &one(100.0, 0.0), &one(130.0, 0.0)).0,
            Status::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        assert_eq!(
            judge(PASS_S, &one(1.0, 0.3), &one(1.5, 0.01)).0,
            Status::Unresolved
        );
        let noisy = Side {
            runs: vec![1.0, 1.5, 0.8, 1.4],
            within: 0.0,
        };
        let mixed = Side {
            runs: vec![0.9, 1.0, 0.7, 0.95],
            within: 0.0,
        };
        let clean = Side {
            runs: vec![0.5, 0.6, 0.55, 0.7],
            within: 0.0,
        };
        assert!(noisy.spread() > PASS_S.bound);
        assert_eq!(judge(PASS_S, &noisy, &mixed).0, Status::Unresolved);
        assert_eq!(judge(PASS_S, &noisy, &clean).0, Status::Ok);
    }

    #[test]
    fn sides_are_read_from_results_documents() {
        let doc = |v: f64| {
            Json::parse(&format!(
                r#"{{"workloads":{{"w":{{"seed":1,"digest":"ab","attempted":4,"failed":0,
                "metrics":{{"pass_s":{{"value":{v},"unit":"s","q1":0.9,"q3":1.1,"n":5}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let s = side(&[doc(1.0)], "w", "pass_s").unwrap();
        assert_eq!(s.runs, [1.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
        let s = side(&[doc(1.0), doc(2.0), doc(3.0)], "w", "pass_s").unwrap();
        assert_eq!(s.summary().median, 2.0);
        assert_eq!(s.spread(), 1.0);
        assert!(side(&[doc(1.0)], "w", "nope").is_none());
        assert!(side(&[doc(1.0)], "other", "pass_s").is_none());
        assert_eq!(total(&[doc(1.0), doc(2.0)], "w", "attempted"), 8.0);
        assert_eq!(
            exact(&[doc(1.0), doc(2.0)], "w", "digest"),
            [("1".to_string(), "\"ab\"".to_string())]
        );
    }
}
