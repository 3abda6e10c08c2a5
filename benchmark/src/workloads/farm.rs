//! `farm-cold` and `farm-warm`: the `orchestrator` layer used two ways.
//!
//! Cold is the journey "regenerate everything": worker processes, the
//! JSONL protocol, shard and cell cache *writes*, the merge. Warm is the
//! same suite served whole from the cache: cache *reads*, JSON parsing,
//! source fingerprinting, and no simulation at all.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use experiments::{fig1, table1, Scale};
use orchestrator::manifest::{suite, Manifest};
use orchestrator::runner::{run, RunOptions, RunReport};

use super::{Ctx, Layers, Outcome, Size, Workload};
use crate::spans::Tracer;
use crate::stat::{median, Digest};

/// Every figure, table and ablation of the repository; the smoke run
/// takes one figure (the Study-B cells do not shrink with the scale).
fn suite_name(size: Size) -> &'static str {
    match size {
        Size::Full => "all",
        Size::Smoke => "fig1",
    }
}
/// Fully cached runs in one `farm-warm` pass.
const WARM_LOADS: u64 = 20;

/// `propdiff-run run --suite all --bench`; the smoke run shrinks the
/// horizon and the seed count further.
fn scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::Bench,
        Size::Smoke => Scale::Custom {
            punits: 200,
            nseeds: 1,
        },
    }
}

fn manifest(size: Size) -> Result<Manifest, String> {
    let name = suite_name(size);
    suite(name).ok_or_else(|| format!("suite {name:?} is not defined"))
}

fn doc_digest(doc: &str) -> u64 {
    let mut d = Digest::new();
    d.bytes(doc.as_bytes());
    d.finish()
}

/// The options of one run against `cache_dir`: worker processes when
/// `farmed`, else threads in this process; at most `parallelism` either way.
fn options(ctx: &Ctx, cache_dir: PathBuf, farmed: bool) -> RunOptions {
    let mut opts = RunOptions::new(scale(ctx.size));
    opts.cache_dir = cache_dir;
    opts.quiet = true;
    if farmed {
        opts.process_workers = ctx.parallelism;
        opts.worker_exe = Some(ctx.worker_exe.clone());
    } else {
        opts.workers = ctx.parallelism;
    }
    opts
}

/// What the checks read of a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Ran {
    complete: bool,
    executed: usize,
    cached: usize,
    shards_executed: usize,
    doc_digest: u64,
    doc_bytes: usize,
}

impl Ran {
    fn of(report: &RunReport) -> Ran {
        let doc = report.merged.serialize();
        Ran {
            complete: report.complete(),
            executed: report.executed,
            cached: report.cached,
            shards_executed: report.shards_executed,
            doc_digest: doc_digest(&doc),
            doc_bytes: doc.len(),
        }
    }
}

/// A cold run must have simulated every cell of the manifest.
fn check_cold(ran: &Ran, cells: usize) -> Vec<String> {
    let mut errors = Vec::new();
    if !ran.complete {
        errors.push("cold run is incomplete".to_string());
    }
    if ran.executed != cells || ran.cached != 0 {
        errors.push(format!(
            "cold run executed {} and loaded {} of {cells} cells",
            ran.executed, ran.cached
        ));
    }
    errors
}

/// A warm run must have loaded every cell and reproduced `cold`'s
/// document byte for byte.
fn check_warm(ran: &Ran, cells: usize, cold: &Ran) -> Vec<String> {
    let mut errors = Vec::new();
    if !ran.complete {
        errors.push("warm run is incomplete".to_string());
    }
    if ran.cached != cells || ran.executed != 0 || ran.shards_executed != 0 {
        errors.push(format!(
            "warm run loaded {} and executed {} of {cells} cells",
            ran.cached, ran.executed
        ));
    }
    errors.extend(check_same_doc("warm", ran, "cold", cold));
    errors
}

fn check_same_doc(a_name: &str, a: &Ran, b_name: &str, b: &Ran) -> Option<String> {
    ((a.doc_digest, a.doc_bytes) != (b.doc_digest, b.doc_bytes)).then(|| {
        format!(
            "the {a_name} document ({} bytes) differs from the {b_name} one ({} bytes)",
            a.doc_bytes, b.doc_bytes
        )
    })
}

fn remove(dir: &Path) {
    // A directory that was never created is as gone as a removed one.
    let _ = std::fs::remove_dir_all(dir);
}

pub struct FarmCold {
    ctx: Ctx,
    manifest: Manifest,
    passes: u32,
    last: Option<Ran>,
}

impl FarmCold {
    fn new(ctx: &Ctx) -> Result<FarmCold, String> {
        Ok(FarmCold {
            ctx: ctx.clone(),
            manifest: manifest(ctx.size)?,
            passes: 0,
            last: None,
        })
    }

    /// One cold run into a fresh cache, which is removed again.
    fn cold(&mut self, farmed: bool) -> Ran {
        self.passes += 1;
        let dir = self.ctx.scratch.join(format!("cold-{}", self.passes));
        remove(&dir);
        let ran = Ran::of(&run(
            &self.manifest,
            &options(&self.ctx, dir.clone(), farmed),
        ));
        remove(&dir);
        ran
    }
}

pub fn setup_cold(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(FarmCold::new(ctx)?))
}

impl Workload for FarmCold {
    fn pass(&mut self, tracer: &mut Tracer) -> Outcome {
        let span = tracer.begin("orchestrator", "runner::run.cold.farm");
        let ran = self.cold(true);
        tracer.end(span);
        let outcome = Outcome {
            units: ran.shards_executed as u64,
            digest: ran.doc_digest,
            errors: check_cold(&ran, self.manifest.cells.len()),
        };
        self.last = Some(ran);
        outcome
    }

    /// The farmed document must be the threaded one, byte for byte.
    fn cross_check(&mut self) -> Vec<String> {
        let Some(farmed) = self.last.clone() else {
            return vec!["no pass ran".to_string()];
        };
        let threaded = self.cold(false);
        let mut errors = check_cold(&threaded, self.manifest.cells.len());
        errors.extend(check_same_doc("farmed", &farmed, "threaded", &threaded));
        errors
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        let last = self.last.as_ref();
        vec![
            ("cells", self.manifest.cells.len() as u64),
            ("doc_bytes", last.map_or(0, |r| r.doc_bytes as u64)),
        ]
    }
}

pub struct FarmWarm {
    ctx: Ctx,
    manifest: Manifest,
    cache: PathBuf,
    /// The cold, threaded run that filled the cache.
    cold: Ran,
}

impl FarmWarm {
    fn new(ctx: &Ctx) -> Result<FarmWarm, String> {
        // A cache of its own per instance: the ladder builds one while the
        // workload's is still alive.
        static INSTANCES: AtomicU32 = AtomicU32::new(0);
        let manifest = manifest(ctx.size)?;
        let cache = ctx.scratch.join(format!(
            "warm-{}",
            INSTANCES.fetch_add(1, Ordering::Relaxed)
        ));
        remove(&cache);
        let cold = Ran::of(&run(&manifest, &options(ctx, cache.clone(), false)));
        let errors = check_cold(&cold, manifest.cells.len());
        if !errors.is_empty() {
            return Err(errors.join("; "));
        }
        Ok(FarmWarm {
            ctx: ctx.clone(),
            manifest,
            cache,
            cold,
        })
    }

    fn load(&self) -> Ran {
        Ran::of(&run(
            &self.manifest,
            &options(&self.ctx, self.cache.clone(), false),
        ))
    }
}

pub fn setup_warm(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(FarmWarm::new(ctx)?))
}

impl Workload for FarmWarm {
    fn pass(&mut self, tracer: &mut Tracer) -> Outcome {
        let cells = self.manifest.cells.len();
        let mut errors = Vec::new();
        let mut digest = Digest::new();
        for _ in 0..WARM_LOADS {
            let span = tracer.begin("orchestrator", "runner::run.warm");
            let ran = self.load();
            tracer.end(span);
            digest.word(ran.doc_digest);
            if errors.is_empty() {
                errors = check_warm(&ran, cells, &self.cold);
            }
        }
        Outcome {
            units: WARM_LOADS * cells as u64,
            digest: digest.finish(),
            errors,
        }
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cells", self.manifest.cells.len() as u64),
            ("doc_bytes", self.cold.doc_bytes as u64),
        ]
    }
}

impl Drop for FarmWarm {
    fn drop(&mut self) {
        remove(&self.cache);
    }
}

/// Bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn ladder(ctx: &Ctx, tracer: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    let outer = tracer.begin("harness", "ladder.farm");
    // The two heaviest kinds of cell a cold run executes, on their own.
    let cell_scale = match ctx.size {
        Size::Full => Scale::Quick,
        Size::Smoke => scale(ctx.size),
    };
    let (row, secs) = tracer.time("experiments", "fig1::cell", || {
        fig1::cell(2.0, 0.95, cell_scale)
    });
    std::hint::black_box(row);
    layers.put("experiments.fig1_cell_s", secs);
    let (cell, secs) = tracer.time("experiments", "table1::cell_run", || {
        table1::cell_run(4, 0.95, 100, 200.0, cell_scale)
    });
    std::hint::black_box(cell);
    layers.put("experiments.table1_cell_s", secs);

    // Cold on threads (which also fills the warm cache), then cold on
    // worker processes: the difference is what the farm costs.
    let (warm, threads_s) = tracer.time("orchestrator", "runner::run.cold.threads", || {
        FarmWarm::new(ctx)
    });
    let mut warm = warm?;
    layers.put("orchestrator.threads_cold_s", threads_s);
    layers.put("orchestrator.cache_bytes", dir_bytes(&warm.cache) as f64);
    layers.put("orchestrator.doc_bytes", warm.cold.doc_bytes as f64);

    let mut cold = FarmCold::new(ctx)?;
    let span = tracer.begin("harness", "pass.farm-cold");
    let out = cold.pass(tracer);
    let farm_s = tracer.end(span);
    layers.errors.extend(out.errors);
    let farmed = cold.last.take().ok_or("farm-cold pass kept no report")?;
    layers
        .errors
        .extend(check_same_doc("farmed", &farmed, "threaded", &warm.cold));
    layers.put("orchestrator.farm_overhead_s", farm_s - threads_s);
    layers.put(
        "orchestrator.shards_executed",
        farmed.shards_executed as f64,
    );

    let span = tracer.begin("harness", "pass.farm-warm");
    let out = warm.pass(tracer);
    let warm_s = tracer.end(span);
    layers.errors.extend(out.errors);
    layers.put(
        "orchestrator.warm_ms_per_cell",
        warm_s * 1e3 / out.units.max(1) as f64,
    );
    let report = run(&warm.manifest, &options(ctx, warm.cache.clone(), false));
    layers.put("orchestrator.cells_cached", report.cached as f64);
    let cells = warm.manifest.cells.len();
    layers.check(report.cached == cells, || {
        format!("warm run loaded {} of {cells} cells", report.cached)
    });
    let serialize_ms: Vec<f64> = (0..5)
        .map(|_| {
            let (doc, secs) = tracer.time("orchestrator", "merged.serialize", || {
                report.merged.serialize()
            });
            std::hint::black_box(doc);
            secs * 1e3
        })
        .collect();
    layers.put("orchestrator.doc_serialize_ms", median(&serialize_ms));
    tracer.end(outer);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ran(executed: usize, cached: usize, digest: u64) -> Ran {
        Ran {
            complete: true,
            executed,
            cached,
            shards_executed: executed * 2,
            doc_digest: digest,
            doc_bytes: 100,
        }
    }

    #[test]
    fn a_cold_run_must_execute_every_cell() {
        assert!(check_cold(&ran(111, 0, 1), 111).is_empty());
        assert_eq!(check_cold(&ran(110, 1, 1), 111).len(), 1);
        let partial = Ran {
            complete: false,
            ..ran(111, 0, 1)
        };
        assert_eq!(check_cold(&partial, 111), ["cold run is incomplete"]);
    }

    #[test]
    fn a_differing_document_fails_the_pass() {
        let cold = ran(111, 0, 1);
        assert!(check_warm(&ran(0, 111, 1), 111, &cold).is_empty());
        let errors = check_warm(&ran(0, 111, 2), 111, &cold);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("differs from the cold one"));
        // Same digest, other length: still a different document.
        let longer = Ran {
            doc_bytes: 101,
            ..ran(0, 111, 1)
        };
        assert_eq!(check_warm(&longer, 111, &cold).len(), 1);
        // A warm run that simulated anything is not warm.
        assert!(check_warm(&ran(1, 110, 1), 111, &cold)[0].contains("executed 1"));
    }

    #[test]
    fn the_document_digest_is_over_its_bytes() {
        assert_ne!(doc_digest("{\"a\":1}"), doc_digest("{\"a\":2}"));
        assert_eq!(doc_digest(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        let dir = std::env::temp_dir().join(format!("benchmark-dir-bytes-{}", std::process::id()));
        remove(&dir);
        std::fs::create_dir_all(dir.join("a/b")).unwrap();
        std::fs::write(dir.join("x"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("a/b/y"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&dir), 15);
        remove(&dir);
        assert_eq!(dir_bytes(&dir), 0);
    }
}
