//! The one way to declare an experiment: a [`Cell`] is an independently
//! runnable, cacheable unit of a sweep, and a [`Suite`] is a named grid of
//! cells plus the markdown blocks rendered from their merged results.
//!
//! Each suite lives in one module of this crate — measurement, grid
//! (`cells()`), cell type, block renderer — and is listed in one row of
//! [`SUITES`]. A seed-swept cell implements [`SeedCell`] instead of
//! [`Cell`]: it measures one seed and folds the seeds in order, and this
//! module owns the rest — one shard per seed, the seed lookup, the checked
//! decoding of each partial ([`Seed`]) and the seed-order registry merge.
//! The `orchestrator` crate schedules, caches, ships and merges
//! `&dyn Cell`s and knows nothing else about a suite; every result
//! encoding and every merge fold therefore lives in a crate the cache's
//! source fingerprint covers.

use std::fmt::Display;

use pdd::qsim::{average_rows, Experiment, SeedResult};
use pdd::sched::SchedulerKind;
use pdd::telemetry::json::Json;
use pdd::telemetry::{MetricsRegistry, Probe};

use crate::{ablations, dynamics, fig1, fig2, fig3, fig45, mesh, monitor, rank, table1, Scale};

/// One shard's output: its partial result plus — for metered cells — its
/// `propdiff-metrics-v1` registry snapshot.
///
/// Partials are transport-safe: they round-trip through [`Json`]
/// serialization (the worker wire format and the shard cache) without
/// changing any value, so merging shipped partials is byte-identical to
/// merging in-memory ones.
pub type Partial = (Json, Option<String>);

/// A merged cell: its result and, for metered cells, the merged registry
/// — the runner writes it as `<cell-id>.metrics.json` and reads its
/// progress line from it.
pub type Merged = (Json, Option<MetricsRegistry>);

/// One independently runnable, independently cacheable unit of work.
pub trait Cell: Send + Sync {
    /// A unique, filesystem-safe identifier (the cache file stem).
    fn id(&self) -> String;

    /// The cell's parameters as canonical JSON, `group` (the suite slug)
    /// first — the manifest half of the cache key. Any change here changes
    /// the key and misses the cache.
    fn params(&self) -> Json;

    /// How many shards the cell splits into at `scale`. Seed-sweep cells
    /// shard one-seed-per-shard; the count is part of the shard-cache key,
    /// so a scale change can never replay mismatched partials.
    fn shard_count(&self, _scale: Scale) -> usize {
        1
    }

    /// Runs shard `shard` of [`shard_count`](Self::shard_count).
    fn execute_shard(&self, scale: Scale, shard: usize) -> Partial;

    /// Merges one partial per shard, **in shard order**, into the cell's
    /// result. Errors on partials that don't decode — the caller treats
    /// that as a cache miss and re-executes. The default is the
    /// single-shard pass-through.
    fn merge(&self, _scale: Scale, shards: &[Partial]) -> Result<Merged, String> {
        let registry = match shards[0].1 {
            Some(_) => Some(shard_registry(&self.id(), &shards[0])?),
            None => None,
        };
        Ok((shards[0].0.clone(), registry))
    }
}

impl dyn Cell + '_ {
    /// [`merge`](Cell::merge) behind the shard-count check.
    pub fn merge_shards(&self, scale: Scale, shards: &[Partial]) -> Result<Merged, String> {
        let want = self.shard_count(scale);
        if shards.len() != want {
            return Err(format!(
                "{}: {} shard partials, expected {want}",
                self.id(),
                shards.len()
            ));
        }
        self.merge(scale, shards)
    }

    /// Runs the whole cell: every shard in order, then the merge — so a
    /// single process, the threaded runner, and the multi-process farm all
    /// run the same arithmetic in the same order.
    pub fn execute(&self, scale: Scale) -> Merged {
        let shards: Vec<Partial> = (0..self.shard_count(scale))
            .map(|shard| self.execute_shard(scale, shard))
            .collect();
        self.merge_shards(scale, &shards)
            .expect("self-produced shards merge")
    }
}

/// A seed-swept cell: one shard per seed, each seed measured on its own,
/// the seeds folded in seed order — so one process, the threaded runner
/// and the worker farm produce the same bytes. Every `SeedCell` is a
/// [`Cell`]; the impl below owns the shard count, the seed lookup, the
/// checked decoding of the partials and the registry merge.
pub trait SeedCell: Send + Sync {
    /// Whether every seed is measured into a registry, the shards'
    /// snapshots merged in seed order into the cell's metrics sidecar.
    const METERED: bool = false;

    /// [`Cell::id`].
    fn id(&self) -> String;

    /// [`Cell::params`].
    fn params(&self) -> Json;

    /// The seeds swept at `scale`, one shard each.
    fn seeds(&self, scale: Scale) -> Vec<u64> {
        scale.seeds()
    }

    /// Measures one seed: its partial (an object the fold reads back
    /// through [`Seed`]) and, for a [metered](Self::METERED) cell, its
    /// registry.
    fn measure(&self, scale: Scale, seed: u64) -> (Json, Option<MetricsRegistry>);

    /// Folds the seeds' partials, **in seed order**, into the cell's
    /// result. A partial that does not read back is an error, which the
    /// runner treats as a cache miss.
    fn fold(&self, scale: Scale, seeds: &[Seed]) -> Result<Json, String>;
}

impl<T: SeedCell> Cell for T {
    fn id(&self) -> String {
        SeedCell::id(self)
    }

    fn params(&self) -> Json {
        SeedCell::params(self)
    }

    fn shard_count(&self, scale: Scale) -> usize {
        self.seeds(scale).len()
    }

    fn execute_shard(&self, scale: Scale, shard: usize) -> Partial {
        let (partial, registry) = self.measure(scale, self.seeds(scale)[shard]);
        (partial, registry.map(|r| r.to_json()))
    }

    /// The fold over every shard's partial; for a metered cell, the shard
    /// registries merged **in shard (= seed) order** from an empty one.
    fn merge(&self, scale: Scale, shards: &[Partial]) -> Result<Merged, String> {
        let id = SeedCell::id(self);
        let seeds: Vec<Seed> = shards
            .iter()
            .enumerate()
            .map(|(shard, (partial, _))| Seed {
                id: &id,
                shard,
                partial,
            })
            .collect();
        let result = self.fold(scale, &seeds)?;
        if !T::METERED {
            return Ok((result, None));
        }
        let mut registry = MetricsRegistry::new();
        for shard in shards {
            registry.merge(&shard_registry(&id, shard)?);
        }
        Ok((result, Some(registry)))
    }
}

/// One seed's partial as [`SeedCell::fold`] reads it. Every accessor checks
/// what it reads, so a foreign or corrupt partial is an `Err` — never a
/// panic, a short table or a wrapped count.
pub struct Seed<'a> {
    id: &'a str,
    shard: usize,
    partial: &'a Json,
}

impl Seed<'_> {
    fn error(&self, what: impl Display) -> String {
        format!("{}: shard {} {what}", self.id, self.shard)
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        (self.partial.get(key)).ok_or_else(|| self.error(format_args!("lacks `{key}`")))
    }

    /// `v`, field `key` or one of its entries, read by `read`.
    fn read<'j, T>(
        &self,
        key: &str,
        v: &'j Json,
        what: &str,
        read: impl FnOnce(&'j Json) -> Option<T>,
    ) -> Result<T, String> {
        read(v).ok_or_else(|| self.error(format_args!("`{key}` is not {what}")))
    }

    fn array(&self, key: &str) -> Result<&[Json], String> {
        self.read(key, self.field(key)?, "an array", Json::as_arr)
    }

    /// A number; `null` reads as NaN, so a non-finite measurement poisons
    /// the fold as it would have in process instead of vanishing in
    /// transport.
    fn number(&self, key: &str, v: &Json) -> Result<f64, String> {
        self.read(key, v, "a number", |v| match v {
            Json::Null => Some(f64::NAN),
            v => v.as_f64(),
        })
    }

    /// The `rows` field: exactly `n` rows of numbers, each `width` long
    /// when given ([`rows_json`] is the encoding).
    pub fn rows(&self, n: usize, width: Option<usize>) -> Result<Vec<Vec<f64>>, String> {
        let rows = (self.array("rows")?.iter())
            .map(|row| {
                let row = self.read("rows", row, "an array of arrays", Json::as_arr)?;
                row.iter().map(|v| self.number("rows", v)).collect()
            })
            .collect::<Result<Vec<Vec<f64>>, String>>()?;
        if rows.len() != n || width.is_some_and(|w| rows.iter().any(|r| r.len() != w)) {
            let of = width.map(|w| format!(" of {w}")).unwrap_or_default();
            return Err(self.error(format_args!("does not hold {n} rows{of}")));
        }
        Ok(rows)
    }

    /// An array field of exactly `n` entries, each a count or `null`.
    pub fn counts(&self, key: &str, n: usize) -> Result<Vec<Option<u64>>, String> {
        let entries = self.array(key)?;
        if entries.len() != n {
            return Err(self.error(format_args!("`{key}` does not hold {n} entries")));
        }
        (entries.iter())
            .map(|v| match v {
                Json::Null => Ok(None),
                v => self.read(key, v, "a count", Json::as_u64).map(Some),
            })
            .collect()
    }

    /// A count field: a non-negative integer.
    pub fn count(&self, key: &str) -> Result<u64, String> {
        self.read(key, self.field(key)?, "a count", Json::as_u64)
    }

    /// A numeric field (`null` reads as NaN).
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.number(key, self.field(key)?)
    }
}

/// One seed of `e` under every scheduler in `kinds`, `row` of each
/// scheduler's [`SeedResult`] as a `rows` partial — the Study-A seed the
/// ratio cell and the seed-swept ablations measure.
pub fn seed_rows<P: Probe>(
    e: &Experiment,
    kinds: &[SchedulerKind],
    seed: u64,
    probe: &mut P,
    row: fn(&SeedResult) -> Vec<f64>,
) -> Json {
    let rows: Vec<Vec<f64>> = e
        .run_seed_probed(kinds, seed, probe)
        .iter()
        .map(row)
        .collect();
    Json::obj(vec![("rows", rows_json(&rows))])
}

/// Every seed's `n` rows of `width`, each row averaged over the seeds with
/// [`average_rows`] in seed order — the fold `Experiment::run_many`
/// applies.
pub fn average_seed_rows(seeds: &[Seed], n: usize, width: usize) -> Result<Vec<Vec<f64>>, String> {
    let per_seed = (seeds.iter())
        .map(|seed| seed.rows(n, Some(width)))
        .collect::<Result<Vec<_>, String>>()?;
    let column = |k: usize| {
        per_seed
            .iter()
            .map(|rows| rows[k].clone())
            .collect::<Vec<_>>()
    };
    Ok((0..n).map(|k| average_rows(&column(k))).collect())
}

/// A markdown block renderer: the body of `<!-- generated:NAME -->` from a
/// merged results document, or `None` when the document lacks the cells.
pub type BlockFn = fn(&Json) -> Option<String>;

/// One row of the suite table.
pub struct Suite {
    /// The suite slug: the `--suite` name and its cells' `group`.
    pub name: &'static str,
    /// The umbrella suite (`figures`, `ablations`) this one also runs in.
    pub family: Option<&'static str>,
    /// The grid, in canonical (merge) order.
    pub cells: fn() -> Vec<Box<dyn Cell>>,
    /// The generated blocks, by marker name.
    pub blocks: &'static [(&'static str, BlockFn)],
}

const FIGURES: Option<&str> = Some("figures");
const ABLATIONS: Option<&str> = Some("ablations");

/// Every suite, in canonical order: `all` runs them top to bottom.
pub const SUITES: [Suite; 17] = [
    Suite {
        name: "fig1",
        family: FIGURES,
        cells: fig1::cells,
        blocks: &[
            ("fig1a", |m| fig1::table(m, 2.0)),
            ("fig1b", |m| fig1::table(m, 4.0)),
        ],
    },
    Suite {
        name: "fig2",
        family: FIGURES,
        cells: fig2::cells,
        blocks: &[("fig2a", |m| fig2::table(m, 2.0))],
    },
    Suite {
        name: "fig3",
        family: FIGURES,
        cells: fig3::cells,
        blocks: &[("fig3", fig3::table)],
    },
    Suite {
        name: "fig45",
        family: FIGURES,
        cells: fig45::cells,
        blocks: &[("fig45", fig45::table)],
    },
    Suite {
        name: "table1",
        family: FIGURES,
        cells: table1::cells,
        blocks: &[
            ("table1", table1::grid),
            ("table1-consistency", table1::consistency),
        ],
    },
    Suite {
        name: "shootout",
        family: ABLATIONS,
        cells: ablations::shootout_cells,
        blocks: &[("shootout", ablations::shootout_table)],
    },
    Suite {
        name: "feasibility",
        family: ABLATIONS,
        cells: ablations::feasibility_cells,
        blocks: &[("feasibility", ablations::feasibility_table)],
    },
    Suite {
        name: "starvation",
        family: ABLATIONS,
        cells: ablations::starvation_cells,
        blocks: &[("starvation", ablations::starvation_table)],
    },
    Suite {
        name: "moderate-load",
        family: ABLATIONS,
        cells: ablations::moderate_load_cells,
        blocks: &[("moderate-load", ablations::moderate_load_table)],
    },
    Suite {
        name: "plr",
        family: ABLATIONS,
        cells: ablations::plr_cells,
        blocks: &[("plr", ablations::plr_table)],
    },
    Suite {
        name: "additive",
        family: ABLATIONS,
        cells: ablations::additive_cells,
        blocks: &[("additive", ablations::additive_table)],
    },
    Suite {
        name: "analytic",
        family: ABLATIONS,
        cells: ablations::analytic_cells,
        blocks: &[("analytic", ablations::analytic_table)],
    },
    Suite {
        name: "mixed-path",
        family: ABLATIONS,
        cells: ablations::mixed_path_cells,
        blocks: &[("mixed-path", ablations::mixed_path_table)],
    },
    Suite {
        name: "dynamics",
        family: ABLATIONS,
        cells: dynamics::cells,
        blocks: &[("dynamics", dynamics::table)],
    },
    Suite {
        name: "rank",
        family: ABLATIONS,
        cells: rank::cells,
        blocks: &[("rank", rank::table)],
    },
    Suite {
        name: "monitor",
        family: ABLATIONS,
        cells: monitor::cells,
        blocks: &[("monitor", monitor::table)],
    },
    Suite {
        name: "mesh",
        family: None,
        cells: mesh::cells,
        blocks: &[("mesh", mesh::table)],
    },
];

/// The suite names [`suite_cells`] accepts, in canonical order: `all`,
/// the families, then every row of [`SUITES`].
pub fn suite_names() -> Vec<&'static str> {
    let mut names = vec!["all"];
    for family in SUITES.iter().filter_map(|s| s.family) {
        if !names.contains(&family) {
            names.push(family);
        }
    }
    names.extend(SUITES.iter().map(|s| s.name));
    names
}

/// The cells of a suite, a family, or `all`, in table order; `None` for
/// an unknown name.
pub fn suite_cells(name: &str) -> Option<Vec<Box<dyn Cell>>> {
    let cells: Vec<Box<dyn Cell>> = SUITES
        .iter()
        .filter(|s| name == "all" || s.name == name || s.family == Some(name))
        .flat_map(|s| (s.cells)())
        .collect();
    (!cells.is_empty()).then_some(cells)
}

/// A cell's canonical parameter object: `group` first, then `pairs`.
pub fn params(group: &str, mut pairs: Vec<(&str, Json)>) -> Json {
    pairs.insert(0, ("group", Json::Str(group.into())));
    Json::obj(pairs)
}

/// Makes an id built from `Display`ed f64s (the shortest round-tripping
/// decimal, so distinct parameters can't collide) filesystem-safe.
pub fn sanitize(id: String) -> String {
    id.replace('.', "_")
}

/// A scheduler's name as an id component.
pub fn kind_slug(kind: SchedulerKind) -> String {
    kind.name()
        .to_ascii_lowercase()
        .replace('+', "")
        .replace('(', "-")
        .replace(')', "")
}

/// Encodes per-row f64 vectors as a JSON array of arrays. Non-finite
/// values become `Null` — [`Seed::rows`] is the inverse.
pub fn rows_json(rows: &[Vec<f64>]) -> Json {
    Json::Arr(rows.iter().map(|r| Json::nums(r)).collect())
}

/// Parses one shard's registry snapshot.
pub fn shard_registry(id: &str, shard: &Partial) -> Result<MetricsRegistry, String> {
    let text = shard
        .1
        .as_deref()
        .ok_or_else(|| format!("{id}: shard lacks a registry"))?;
    MetricsRegistry::from_json(text).map_err(|e| format!("{id}: bad shard registry: {e}"))
}

/// The complete cells (with params and result) of one group in a merged
/// results document.
pub fn group_cells<'a>(merged: &'a Json, group: &str) -> Vec<&'a Json> {
    merged
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|c| c.get("group").and_then(Json::as_str) == Some(group))
        .filter(|c| c.get("result").is_some_and(|r| *r != Json::Null))
        .collect()
}

/// A numeric parameter of a merged-document cell.
pub fn param_f64(cell: &Json, key: &str) -> Option<f64> {
    cell.get("params")?.get(key)?.as_f64()
}

/// The result object of a cell [`group_cells`] returned.
pub fn result(cell: &Json) -> &Json {
    cell.get("result").expect("complete cell")
}

/// A result (or result row)'s `scheduler` name as a table cell.
pub fn scheduler_name(result: &Json) -> String {
    result
        .get("scheduler")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string()
}

/// A GitHub-flavoured markdown table.
pub fn markdown_table(header: &[&str], rows: Vec<Vec<String>>) -> String {
    let fmt_row = |cells: &[String]| format!("| {} |", cells.join(" | "));
    let mut out = fmt_row(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    out.push('\n');
    out.push_str(&fmt_row(
        &header.iter().map(|_| "---".to_string()).collect::<Vec<_>>(),
    ));
    for row in rows {
        out.push('\n');
        out.push_str(&fmt_row(&row));
    }
    out
}

/// A result's ratio array under `key` as two-decimal table cells.
pub fn ratio_cells(result: &Json, key: &str) -> Vec<String> {
    result
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|r| format!("{:.2}", r.as_f64().unwrap_or(f64::NAN)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cells of a known suite.
    fn suite(name: &str) -> Vec<Box<dyn Cell>> {
        suite_cells(name).unwrap_or_else(|| panic!("suite {name}"))
    }

    #[test]
    fn every_suite_name_resolves() {
        for name in suite_names() {
            assert!(!suite(name).is_empty(), "{name} is empty");
        }
        assert!(suite_cells("nope").is_none());
    }

    #[test]
    fn all_is_figures_plus_ablations_plus_mesh() {
        let all = suite("all").len();
        let figures = suite("figures").len();
        let ablations = suite("ablations").len();
        let mesh = suite("mesh").len();
        assert_eq!(all, figures + ablations + mesh);
        // The sweep sizes the per-figure binaries used to run.
        assert_eq!(suite("fig1").len(), 14);
        assert_eq!(suite("fig2").len(), 14);
        assert_eq!(suite("table1").len(), 16);
        assert_eq!(suite("feasibility").len(), 18);
        assert_eq!(suite("dynamics").len(), 4);
        assert_eq!(suite("rank").len(), 14);
        assert_eq!(suite("monitor").len(), 8);
        assert_eq!(figures, 48);
        assert_eq!(ablations, 60);
        assert_eq!(mesh, 3);
    }

    #[test]
    fn ids_are_unique_and_filesystem_safe() {
        let cells = suite("all");
        let mut ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate cell ids");
        for id in &ids {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'),
                "unsafe id {id}"
            );
        }
    }

    #[test]
    fn params_distinguish_cells() {
        let cells = suite("fig1");
        let (a, b) = (cells[0].params().serialize(), cells[1].params().serialize());
        assert_ne!(a, b);
        assert!(a.contains("\"group\":\"fig1\""));
    }

    #[test]
    fn starvation_cell_executes_without_scale_sensitivity() {
        let cell = &suite("starvation")[0];
        let (bench, _) = cell.execute(Scale::Bench);
        let (quick, _) = cell.execute(Scale::Quick);
        assert_eq!(bench.serialize(), quick.serialize());
        assert!(bench.get("probes").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn shard_counts_follow_the_seed_sweep() {
        let scale = Scale::Custom {
            punits: 2_000,
            nseeds: 3,
        };
        assert_eq!(suite("fig1")[0].shard_count(scale), 3);
        assert_eq!(suite("additive")[0].shard_count(Scale::Quick), 4);
        for scale in [scale, Scale::Quick, Scale::Bench, Scale::Paper] {
            let seeds = scale.seeds().len();
            for name in [
                "fig3",
                "dynamics",
                "monitor",
                "shootout",
                "moderate-load",
                "additive",
            ] {
                for cell in suite(name) {
                    assert_eq!(cell.shard_count(scale), seeds, "{}", cell.id());
                }
            }
            assert_eq!(suite("analytic")[0].shard_count(scale), 6);
            assert_eq!(suite("starvation")[0].shard_count(scale), 1);
        }
    }

    /// The transport law the farm rests on: partials that round-trip
    /// through their wire encoding merge to the exact bytes `execute`
    /// produces, result and metrics sidecar both — for every sharded cell
    /// of `all` (one mesh cell stands for the three).
    #[test]
    fn serialized_shards_merge_byte_identically_to_execute() {
        let scale = Scale::Custom {
            punits: 400,
            nseeds: 2,
        };
        let mut meshes = 0;
        let mut merged_ids = Vec::new();
        for cell in suite("all") {
            if cell.shard_count(scale) == 1 {
                continue;
            }
            if cell.id().starts_with("mesh-") {
                meshes += 1;
                if meshes > 1 {
                    continue;
                }
            }
            let (direct, direct_registry) = cell.execute(scale);
            let shipped: Vec<(Json, Option<String>)> = (0..cell.shard_count(scale))
                .map(|shard| {
                    let (partial, registry) = cell.execute_shard(scale, shard);
                    let wire = partial.serialize();
                    (Json::parse(&wire).expect("wire partial parses"), registry)
                })
                .collect();
            let (merged, merged_registry) =
                cell.merge_shards(scale, &shipped).expect("shards merge");
            assert_eq!(
                direct.serialize(),
                merged.serialize(),
                "{} result drifted through transport",
                cell.id()
            );
            assert_eq!(
                direct_registry.map(|r| r.to_json()),
                merged_registry.map(|r| r.to_json()),
                "{} metrics sidecar drifted through transport",
                cell.id()
            );
            merged_ids.push(cell.id());
        }
        for id in [
            "fig3-wtp",
            "dynamics-wtp-sdp-step",
            "monitor-wtp-w50",
            "shootout",
        ] {
            assert!(merged_ids.iter().any(|m| m == id), "{id} not covered");
        }
        for id in ["moderate-load-u0_7", "additive", "analytic"] {
            assert!(merged_ids.iter().any(|m| m == id), "{id} not covered");
        }
    }

    #[test]
    fn merge_rejects_wrong_shard_counts_and_corrupt_partials() {
        let scale = Scale::Custom {
            punits: 2_000,
            nseeds: 2,
        };
        let cell = &suite("fig1")[0];
        assert!(cell.merge_shards(scale, &[]).is_err(), "wrong count");
        let bogus = vec![
            (Json::obj(vec![("nope", Json::Int(1))]), None),
            (Json::obj(vec![("nope", Json::Int(1))]), None),
        ];
        assert!(cell.merge_shards(scale, &bogus).is_err(), "missing rows");
    }
}
