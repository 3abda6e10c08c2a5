//! The shard-aware runner: splits a manifest's uncached cells into
//! deterministic seed-shards, executes the missing shards on the one shard
//! pool (`worker::Pool`, whose slots run a shard in this process or, with
//! `process_workers > 0`, through a worker child process), and merges
//! everything back in manifest order and seed order — so the output is
//! byte-identical regardless of slot count, slot kind, or completion
//! order.
//!
//! The cache is consulted at two granularities. Merged per-cell entries
//! short-circuit whole cells; shard entries (stored the moment each shard
//! finishes) let a crashed or interrupted run resume mid-cell, paying only
//! for the shards that never landed.

use std::io::Write as _;
use std::path::PathBuf;

use experiments::cell::{Cell, Partial};
use experiments::Scale;
use pdd::telemetry::json::Json;

use crate::cache::{scale_tag, Cache, SCHEMA_VERSION};
use crate::fingerprint::{source_fingerprint, workspace_root};
use crate::manifest::Manifest;
use crate::protocol::Job;
use crate::worker::Pool;

/// Options governing one runner invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The scale every cell runs at.
    pub scale: Scale,
    /// In-process pool slots (0 = one per available core). Ignored when
    /// `process_workers` gives the slots worker children.
    pub workers: usize,
    /// Worker *processes*: 0 runs shards in this process; N > 0 gives the
    /// pool N slots, each feeding shards over the wire protocol to its own
    /// `propdiff-run worker` child. Output is byte-identical either way.
    pub process_workers: usize,
    /// Executable to spawn as the worker (`None` = this executable).
    /// Mainly for tests driving the pool from a harness binary.
    pub worker_exe: Option<PathBuf>,
    /// Cache root directory.
    pub cache_dir: PathBuf,
    /// Execute at most this many uncached cells (`None` = all). Cells past
    /// the budget are left for the next invocation — the resume mechanism.
    pub max_cells: Option<usize>,
    /// Suppress per-shard progress lines on stderr.
    pub quiet: bool,
}

impl RunOptions {
    /// Quick-scale defaults with the standard `out/cache` directory.
    pub fn new(scale: Scale) -> RunOptions {
        RunOptions {
            scale,
            workers: 0,
            process_workers: 0,
            worker_exe: None,
            cache_dir: PathBuf::from("out/cache"),
            max_cells: None,
            quiet: false,
        }
    }
}

/// The outcome of one runner invocation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The merged results document (manifest order, byte-stable).
    pub merged: Json,
    /// Cells actually simulated (at least one shard ran) this invocation.
    pub executed: usize,
    /// Shards actually simulated this invocation — the rest of the
    /// executed cells' shards were resumed from the shard cache.
    pub shards_executed: usize,
    /// Cells served whole from the merged cache.
    pub cached: usize,
    /// Cells skipped by the `max_cells` budget.
    pub skipped: usize,
}

impl RunReport {
    /// Whether every manifest cell has a result in `merged`.
    pub fn complete(&self) -> bool {
        self.skipped == 0
    }
}

/// A cell the runner must (re)assemble this invocation: its shard slots,
/// some possibly pre-filled from the shard cache.
struct Work<'a> {
    idx: usize,
    cell: &'a dyn Cell,
    slots: Vec<Option<Partial>>,
}

/// Runs `manifest` under `opts`: merged-cache lookups first, then the
/// missing shards in parallel on the shard pool — in this process, or
/// through worker processes — then a deterministic seed-order merge per
/// cell.
pub fn run(manifest: &Manifest, opts: &RunOptions) -> RunReport {
    let fingerprint = source_fingerprint(&workspace_root());
    let cache = Cache::new(opts.cache_dir.clone(), fingerprint);
    let scale = opts.scale;

    // Phase 1: merged-entry cache lookups, in manifest order.
    let lookups: Vec<(usize, &dyn Cell, Option<Json>)> = manifest
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| (i, cell.as_ref(), cache.load(cell.as_ref(), scale)))
        .collect();
    let cached = lookups.iter().filter(|(_, _, r)| r.is_some()).count();
    let misses: Vec<(usize, &dyn Cell)> = lookups
        .iter()
        .filter(|(_, _, r)| r.is_none())
        .map(|&(i, cell, _)| (i, cell))
        .collect();

    // Phase 2: honor the resume budget, then expand each missing cell into
    // its shard slots. Shards already in the cache (a previous run crashed
    // or was interrupted after storing them) are resumed, not re-run.
    let budget = opts.max_cells.unwrap_or(misses.len());
    let skipped = misses.len().saturating_sub(budget);
    let to_run = &misses[..misses.len() - skipped];

    let mut works: Vec<Work> = Vec::with_capacity(to_run.len());
    let mut jobs: Vec<Job> = Vec::new();
    for &(i, cell) in to_run {
        let shards = cell.shard_count(scale);
        let mut slots = Vec::with_capacity(shards);
        for shard in 0..shards {
            let slot = cache.load_shard(cell, scale, shard, shards);
            if slot.is_none() {
                jobs.push(Job {
                    suite: manifest.suite.clone(),
                    cell: i,
                    id: cell.id(),
                    scale,
                    shard,
                    shards,
                });
            }
            slots.push(slot);
        }
        works.push(Work {
            idx: i,
            cell,
            slots,
        });
    }

    let fresh = Pool::new(manifest, &cache, opts).run(&jobs);
    let shards_executed = fresh.len();
    let executed = works.len();

    // Phase 3: fill each cell's empty shard slots — the jobs were queued
    // cell by cell, empty slot by empty slot, and come back in that order
    // — then merge each cell in seed order: the same arithmetic
    // `Cell::execute` runs single-process, so the merged result is
    // byte-identical to a run with no pool at all.
    let mut fresh = fresh.into_iter();
    let mut results: Vec<Option<Json>> = lookups.into_iter().map(|(_, _, r)| r).collect();
    for work in works {
        let shards = work.slots.len();
        let mut secs = 0.0;
        let parts: Vec<Partial> = (work.slots.into_iter())
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    let (partial, s) = fresh.next().expect("one result per queued shard");
                    secs += s;
                    partial
                })
            })
            .collect();
        let (result, registry) = match work.cell.merge_shards(scale, &parts) {
            Ok(merged) => merged,
            Err(e) => {
                // Corrupt shard entries (e.g. a truncated cache file) are
                // not worth dying over: redo the cell from scratch.
                eprintln!(
                    "warning: could not merge shards of {} ({e}); re-running the cell",
                    work.cell.id()
                );
                work.cell.execute(scale)
            }
        };
        if let Err(e) = cache.store(work.cell, scale, &result) {
            eprintln!("warning: could not cache {}: {e}", work.cell.id());
        }
        if let Some(registry) = &registry {
            if let Err(e) = cache.store_metrics(work.cell, scale, &registry.to_json()) {
                eprintln!(
                    "warning: could not write metrics sidecar for {}: {e}",
                    work.cell.id()
                );
            }
        }
        cache.remove_shards(work.cell, scale, shards);
        if !opts.quiet {
            if let Some(r) = &registry {
                let departures: u64 = (0..r.num_classes())
                    .map(|c| r.class_total(c).departures)
                    .sum();
                let rate = if secs > 0.0 {
                    r.probe_events() as f64 / secs
                } else {
                    0.0
                };
                let _ = writeln!(
                    std::io::stderr().lock(),
                    "      {:<28} merged: {departures} departures, {:.1}M probe events/s",
                    work.cell.id(),
                    rate / 1.0e6
                );
            }
        }
        results[work.idx] = Some(result);
    }

    // Phase 4: deterministic merge — manifest order, independent of which
    // worker finished which shard when.
    let cells = manifest
        .cells
        .iter()
        .zip(&results)
        .map(|(cell, result)| {
            let params = cell.params();
            Json::obj(vec![
                ("id", Json::Str(cell.id())),
                ("group", params.get("group").cloned().unwrap_or(Json::Null)),
                ("params", params),
                ("result", result.clone().unwrap_or(Json::Null)),
            ])
        })
        .collect();
    let merged = Json::obj(vec![
        ("schema", Json::Int(SCHEMA_VERSION as i64)),
        ("suite", Json::Str(manifest.suite.clone())),
        ("scale", Json::Str(scale_tag(scale))),
        ("complete", Json::Bool(results.iter().all(Option::is_some))),
        ("cells", Json::Arr(cells)),
    ]);

    RunReport {
        merged,
        executed,
        shards_executed,
        cached,
        skipped,
    }
}
