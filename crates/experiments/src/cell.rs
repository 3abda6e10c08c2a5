//! The one way to declare an experiment: a [`Cell`] is an independently
//! runnable, cacheable unit of a sweep, and a [`Suite`] is a named grid of
//! cells plus the markdown blocks rendered from their merged results.
//!
//! Each suite lives in one module of this crate — measurement functions,
//! grid (`cells()`), `impl Cell`, block renderer — and is listed in one
//! row of [`SUITES`]. The `orchestrator` crate schedules, caches, ships
//! and merges `&dyn Cell`s and knows nothing else about a suite; every
//! result encoding and every merge fold therefore lives in a crate the
//! cache's source fingerprint covers.

use pdd::sched::SchedulerKind;
use pdd::telemetry::json::Json;
use pdd::telemetry::MetricsRegistry;

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
/// values become `Null` — see [`decode_shard_rows`] for the inverse.
pub fn rows_json(rows: &[Vec<f64>]) -> Json {
    Json::Arr(rows.iter().map(|r| Json::nums(r)).collect())
}

/// Decodes every shard's `rows` field (seed order) back into f64 vectors.
/// `Null` decodes to NaN so a non-finite value poisons the merge
/// arithmetic exactly as it would have in-process, instead of silently
/// vanishing in transport.
pub fn decode_shard_rows(shards: &[Partial]) -> Result<Vec<Vec<Vec<f64>>>, String> {
    let decode_row = |row: &Json| -> Result<Vec<f64>, String> {
        row.as_arr()
            .ok_or("shard: row is not an array")?
            .iter()
            .map(|v| match v {
                Json::Null => Ok(f64::NAN),
                other => other
                    .as_f64()
                    .ok_or_else(|| "shard: non-numeric row entry".to_string()),
            })
            .collect()
    };
    shards
        .iter()
        .map(|(partial, _)| {
            partial
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or("shard lacks `rows`")?
                .iter()
                .map(decode_row)
                .collect()
        })
        .collect()
}

/// Parses one shard's registry snapshot.
pub fn shard_registry(id: &str, shard: &Partial) -> Result<MetricsRegistry, String> {
    let text = shard
        .1
        .as_deref()
        .ok_or_else(|| format!("{id}: shard lacks a registry"))?;
    MetricsRegistry::from_json(text).map_err(|e| format!("{id}: bad shard registry: {e}"))
}

/// The shard half of the probed row-averaging cells (fig1, fig2, rank):
/// one seed measured into a fresh four-class registry, its rows as the
/// partial and the registry as the snapshot.
pub fn probed_rows_shard(seed: impl FnOnce(&mut MetricsRegistry) -> Vec<Vec<f64>>) -> Partial {
    let mut registry = MetricsRegistry::with_shape(1, 4);
    let rows = seed(&mut registry);
    (
        Json::obj(vec![("rows", rows_json(&rows))]),
        Some(registry.to_json()),
    )
}

/// The merge half: per-seed rows decoded and handed to `result`, shard
/// registries merged **in shard (= seed) order** from an empty registry —
/// the same fold the monitor study uses, so every metered cell's sidecar
/// is reproducible shard-by-shard.
pub fn probed_rows_merge(
    id: &str,
    shards: &[Partial],
    result: impl FnOnce(&[Vec<Vec<f64>>]) -> Json,
) -> Result<Merged, String> {
    let result = result(&decode_shard_rows(shards)?);
    let mut registry = MetricsRegistry::new();
    for shard in shards {
        registry.merge(&shard_registry(id, shard)?);
    }
    Ok((result, Some(registry)))
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
        assert_eq!(suite("starvation")[0].shard_count(scale), 1);
        assert_eq!(suite("additive")[0].shard_count(Scale::Quick), 1);
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
