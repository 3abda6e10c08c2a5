//! # orchestrator — declarative, cached, parallel experiment runs
//!
//! Every figure, table, and ablation in the reproduction is expressed as a
//! cell in a sweep [`manifest`]: one independent unit of simulation work
//! (one utilization point of Figure 1, one Table-1 topology configuration,
//! one PLR σ target, …). A cell is an `experiments::cell::Cell`: the
//! experiment crate owns its identity, parameters, sharding, merge fold and
//! result encoding, and this crate only schedules, caches and ships it.
//! Seed-swept cells split into deterministic per-seed *shards*
//! (`Cell::execute_shard` / `Cell::merge`), and the [`runner`] executes
//! uncached shards on the one shard pool in [`worker`]: a job queue whose
//! slots run a shard in this process or — with `--workers N` — through
//! a separate `propdiff-run worker` process fed over the stdin/stdout
//! JSONL [`protocol`]. Both slot kinds run the same shard arithmetic, a
//! finished shard is stored in one place, and the runner merges in seed
//! order, so the merged JSON is byte-identical at any slot count and
//! interleaving.
//!
//! Results land in the on-disk [`cache`] keyed by a content hash of (cell
//! parameters, scale, source [`fingerprint`], schema version); shard-level
//! entries under the same key family make the cache the farm's
//! coordination substrate — exactly-once work, crash-resume, and zero-work
//! warm merges. A warm re-run does zero simulation work.
//!
//! One binary fronts this crate: `propdiff-run` (`run`, `render`, `list`
//! subcommands; see its `--help`).
//!
//! The [`render`] module closes the docs loop: measured-number tables in
//! `EXPERIMENTS.md` live between `<!-- generated:NAME -->` markers and are
//! regenerated from cached cell results by each suite's block renderer —
//! the same blocks `propdiff-run run` prints — so the document cannot
//! silently drift from the code.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod fingerprint;
pub mod manifest;
pub mod protocol;
pub mod render;
pub mod runner;
pub mod worker;
