//! The shard-aware runner: splits a manifest's uncached cells into
//! deterministic seed-shards, executes the missing shards on worker
//! threads or (with `process_workers > 0`) on a farm of separate worker
//! processes, and merges everything back in manifest order and seed order
//! — so the output is byte-identical regardless of worker count, worker
//! kind, or completion order.
//!
//! The cache is consulted at two granularities. Merged per-cell entries
//! short-circuit whole cells; shard entries (stored the moment each shard
//! finishes) let a crashed or interrupted run resume mid-cell, paying only
//! for the shards that never landed.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use experiments::cell::{Cell, Partial};
use experiments::{parallel_map_on, Scale};
use pdd::telemetry::json::Json;

use crate::cache::{scale_tag, Cache, SCHEMA_VERSION};
use crate::fingerprint::{source_fingerprint, workspace_root};
use crate::manifest::Manifest;
use crate::worker::{run_pool, ShardJob};

/// Options governing one runner invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The scale every cell runs at.
    pub scale: Scale,
    /// Worker threads (0 = one per available core). Ignored when
    /// `process_workers` selects the process farm.
    pub workers: usize,
    /// Worker *processes*: 0 runs shards on threads in this process; N > 0
    /// spawns N `propdiff-run worker` children and feeds them shards over
    /// the wire protocol. Output is byte-identical either way.
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
    secs: f64,
}

/// Runs `manifest` under `opts`: merged-cache lookups first, then the
/// missing shards in parallel — in-process via the experiments crate's
/// work-stealing [`parallel_map_on`], or across worker processes via
/// the farm pool (`worker::run_pool`) — then a deterministic seed-order
/// merge per cell.
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
    let mut jobs: Vec<ShardJob> = Vec::new();
    for &(i, cell) in to_run {
        let shards = cell.shard_count(scale);
        let mut slots = Vec::with_capacity(shards);
        for shard in 0..shards {
            let slot = cache.load_shard(cell, scale, shard, shards);
            if slot.is_none() {
                jobs.push(ShardJob {
                    cell: i,
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
            secs: 0.0,
        });
    }

    let done = AtomicUsize::new(0);
    let total_jobs = jobs.len();
    let on_done = |cell_idx: usize, shard: usize, shards: usize, secs: f64| {
        if opts.quiet {
            return;
        }
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        let _ = writeln!(
            std::io::stderr().lock(),
            "[{n:>3}/{total_jobs}] {:<28} s{}/{shards} {secs:>6.1}s",
            manifest.cells[cell_idx].id(),
            shard + 1
        );
    };

    let shard_results: Vec<(usize, usize, Json, Option<String>, f64)> = if jobs.is_empty() {
        Vec::new()
    } else if opts.process_workers > 0 {
        run_pool(
            manifest,
            scale,
            &jobs,
            opts.process_workers,
            opts.worker_exe.as_deref(),
            &cache,
            &on_done,
        )
    } else {
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        } else {
            opts.workers
        };
        let closures: Vec<_> = jobs
            .iter()
            .map(|&job| {
                let cache = &cache;
                let on_done = &on_done;
                move || {
                    let cell = manifest.cells[job.cell].as_ref();
                    let started = std::time::Instant::now();
                    let (partial, registry) = cell.execute_shard(scale, job.shard);
                    if let Err(e) = cache.store_shard(
                        cell,
                        scale,
                        job.shard,
                        job.shards,
                        &partial,
                        registry.as_deref(),
                    ) {
                        eprintln!(
                            "warning: could not cache shard {} of {}: {e}",
                            job.shard,
                            cell.id()
                        );
                    }
                    let secs = started.elapsed().as_secs_f64();
                    on_done(job.cell, job.shard, job.shards, secs);
                    (job.cell, job.shard, partial, registry, secs)
                }
            })
            .collect();
        parallel_map_on(closures, workers)
    };
    let shards_executed = shard_results.len();

    // Phase 3: slot the finished shards home, then merge each cell in seed
    // order — the same arithmetic `Cell::execute` runs single-process,
    // so the merged result is byte-identical to a run with no farm at all.
    let work_of: HashMap<usize, usize> = works
        .iter()
        .enumerate()
        .map(|(w, work)| (work.idx, w))
        .collect();
    for (cell_idx, shard, partial, registry, secs) in shard_results {
        let w = work_of[&cell_idx];
        works[w].slots[shard] = Some((partial, registry));
        works[w].secs += secs;
    }
    let executed = works.len();

    let mut results: Vec<Option<Json>> = lookups.into_iter().map(|(_, _, r)| r).collect();
    for work in works {
        let shards = work.slots.len();
        let parts: Vec<Partial> = work
            .slots
            .into_iter()
            .map(|s| s.expect("every shard executed or resumed"))
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
                let rate = if work.secs > 0.0 {
                    r.probe_events() as f64 / work.secs
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

/// Writes the Figures-4/5 view CSVs (`fig4_view1.csv` … `fig5_view2.csv`)
/// under `dir` from a merged results document, byte-identical to what the
/// retired `fig45` binary wrote. No-op for suites without fig45 cells.
pub fn write_fig45_csvs(merged: &Json, dir: &std::path::Path) -> std::io::Result<()> {
    let Some(cells) = merged.get("cells").and_then(Json::as_arr) else {
        return Ok(());
    };
    for cell in cells {
        if cell.get("group").and_then(Json::as_str) != Some("fig45") {
            continue;
        }
        let Some(result) = cell.get("result").filter(|r| **r != Json::Null) else {
            continue;
        };
        let fig = match result.get("scheduler").and_then(Json::as_str) {
            Some("BPR") => "fig4",
            Some("WTP") => "fig5",
            _ => continue,
        };
        std::fs::create_dir_all(dir)?;
        let mut v1 = String::from("interval_start_ticks,class1,class2,class3\n");
        for row in result
            .get("view1")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let row = row.as_arr().unwrap_or_default();
            let start = row.first().and_then(Json::as_i64).unwrap_or(0);
            let avgs: Vec<String> = row
                .get(1)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|a| a.as_f64().map(|d| format!("{d:.1}")).unwrap_or_default())
                .collect();
            v1.push_str(&format!("{start},{}\n", avgs.join(",")));
        }
        std::fs::write(dir.join(format!("{fig}_view1.csv")), v1)?;
        let mut v2 = String::from("departure_ticks,class,delay_ticks\n");
        for row in result
            .get("view2")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let row = row.as_arr().unwrap_or_default();
            let t = row.first().and_then(Json::as_i64).unwrap_or(0);
            let c = row.get(1).and_then(Json::as_i64).unwrap_or(0);
            let d = row.get(2).and_then(Json::as_f64).unwrap_or(0.0);
            v2.push_str(&format!("{t},{},{d:.1}\n", c + 1));
        }
        std::fs::write(dir.join(format!("{fig}_view2.csv")), v2)?;
    }
    Ok(())
}
