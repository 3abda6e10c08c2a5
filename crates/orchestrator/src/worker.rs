//! Worker processes and the parent-side process pool — the experiment
//! farm's execution engine.
//!
//! `propdiff-run run --workers N` spawns `N` copies of its own executable
//! as `propdiff-run worker` children and feeds them shard jobs over
//! stdin/stdout JSONL (see [`crate::protocol`]). Each parent thread owns
//! one child: it pops a job from the shared queue, writes the job line,
//! blocks on the reply line, and stores the shard in the cache the moment
//! it lands — so a crash at any point loses at most the in-flight shards.
//!
//! # Fault handling
//!
//! A child that exits, crashes, or writes garbage is respawned (without
//! the [`EXIT_AFTER_ENV`] crash hook, so an injected fault can't respawn
//! forever) and the job is requeued, up to a small per-job and per-pool
//! budget. A job the workers *deterministically* refuse (an error reply)
//! or that exhausts its retries falls back to in-process execution in the
//! parent, so `run` always completes with a full result set — the merge
//! step never sees a hole.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use experiments::cell::Cell;
use experiments::Scale;
use pdd::telemetry::json::Json;

use crate::cache::Cache;
use crate::manifest::{self, Manifest};
use crate::protocol::{Job, Reply};

/// Environment variable holding a job count after which a worker exits
/// with [`CRASH_STATUS`] instead of reading the next job — the
/// deterministic crash hook the farm's resilience tests use.
pub const EXIT_AFTER_ENV: &str = "PROPDIFF_WORKER_EXIT_AFTER";

/// Exit status of a worker killed by the [`EXIT_AFTER_ENV`] crash hook.
pub const CRASH_STATUS: i32 = 17;

/// Per-job attempts (initial + retries) before the parent gives up on the
/// pool and runs the shard in-process.
const MAX_ATTEMPTS: u32 = 3;

/// The `propdiff-run worker` entry point: read one job per line from
/// stdin, write one reply per job to stdout, exit cleanly on EOF.
///
/// Never executed by hand — the parent spawns it. All diagnostics go to
/// stderr (inherited from the parent); stdout carries protocol lines
/// only.
pub fn worker_main() -> Result<(), String> {
    let exit_after: Option<u64> = std::env::var(EXIT_AFTER_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    let stdin = std::io::stdin();
    let mut handled = 0u64;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("read job: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = handle(&line);
        let mut out = std::io::stdout().lock();
        writeln!(out, "{}", reply.to_line())
            .and_then(|()| out.flush())
            .map_err(|e| format!("write reply: {e}"))?;
        handled += 1;
        if exit_after == Some(handled) {
            std::process::exit(CRASH_STATUS);
        }
    }
    Ok(())
}

fn handle(line: &str) -> Reply {
    let job = match Job::parse(line) {
        Ok(job) => job,
        Err(error) => {
            return Reply::Err {
                cell: 0,
                shard: 0,
                error,
            }
        }
    };
    let (cell, shard) = (job.cell, job.shard);
    match execute_job(&job) {
        Ok((partial, registry)) => Reply::Ok {
            cell,
            shard,
            partial,
            registry,
        },
        Err(error) => Reply::Err { cell, shard, error },
    }
}

fn execute_job(job: &Job) -> Result<(Json, Option<String>), String> {
    let m = manifest::suite(&job.suite).ok_or_else(|| format!("unknown suite `{}`", job.suite))?;
    let cell = m
        .cells
        .get(job.cell)
        .ok_or_else(|| format!("cell {} out of range for `{}`", job.cell, job.suite))?;
    if cell.id() != job.id {
        return Err(format!(
            "cell id mismatch: manifest has `{}`, job names `{}`",
            cell.id(),
            job.id
        ));
    }
    if job.shards != cell.shard_count(job.scale) || job.shard >= job.shards {
        return Err(format!(
            "bad shard split {}/{} for `{}` (expected {} shards)",
            job.shard,
            job.shards,
            job.id,
            cell.shard_count(job.scale)
        ));
    }
    Ok(cell.execute_shard(job.scale, job.shard))
}

/// One shard-execution assignment the runner queues for the pool.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardJob {
    /// Cell index into the manifest.
    pub cell: usize,
    /// Shard to run.
    pub shard: usize,
    /// Total shards the cell splits into.
    pub shards: usize,
}

struct WorkerChild {
    proc: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl WorkerChild {
    fn spawn(exe: &Path, strip_crash_hook: bool) -> std::io::Result<WorkerChild> {
        let mut cmd = Command::new(exe);
        cmd.arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if strip_crash_hook {
            cmd.env_remove(EXIT_AFTER_ENV);
        }
        let mut proc = cmd.spawn()?;
        let stdin = proc.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(proc.stdout.take().expect("piped stdout"));
        Ok(WorkerChild {
            proc,
            stdin,
            stdout,
        })
    }

    /// One job → one reply over the pipes.
    fn exchange(&mut self, job: &Job) -> Result<Reply, String> {
        writeln!(self.stdin, "{}", job.to_line())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("write to worker: {e}"))?;
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("worker closed its stdout (crashed?)".into()),
            Ok(_) => Reply::parse(line.trim_end()),
            Err(e) => Err(format!("read from worker: {e}")),
        }
    }

    /// Clean shutdown: EOF on stdin, then reap.
    fn shutdown(self) {
        drop(self.stdin);
        let mut proc = self.proc;
        let _ = proc.wait();
    }

    /// A child presumed broken: kill and reap.
    fn discard(self) {
        let mut proc = self.proc;
        let _ = proc.kill();
        let _ = proc.wait();
    }
}

/// One finished shard: `(cell, shard, partial, registry, secs)`.
pub(crate) type ShardResult = (usize, usize, Json, Option<String>, f64);

/// Executes `jobs` across `workers` child processes, returning one
/// [`ShardResult`] per job (order unspecified — the runner merges by
/// slot). Shards are stored into `cache` as they complete; `on_done`
/// fires per finished shard for progress reporting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pool(
    manifest: &Manifest,
    scale: Scale,
    jobs: &[ShardJob],
    workers: usize,
    worker_exe: Option<&Path>,
    cache: &Cache,
    on_done: &(dyn Fn(usize, usize, usize, f64) + Sync),
) -> Vec<ShardResult> {
    let exe: PathBuf = worker_exe.map(Path::to_path_buf).unwrap_or_else(|| {
        std::env::current_exe().expect("current executable path for worker respawn")
    });
    let queue: Mutex<VecDeque<(ShardJob, u32)>> =
        Mutex::new(jobs.iter().map(|&j| (j, 1)).collect());
    let results: Mutex<Vec<ShardResult>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let respawns = AtomicUsize::new(0);
    let respawn_budget = 2 * workers + 4;

    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| {
                let mut child: Option<WorkerChild> = None;
                let mut ever_spawned = false;
                loop {
                    let Some((job, attempt)) = queue.lock().expect("queue lock").pop_front() else {
                        break;
                    };
                    let spec = manifest.cells[job.cell].as_ref();
                    let wire = Job {
                        suite: manifest.suite.clone(),
                        cell: job.cell,
                        id: spec.id(),
                        scale,
                        shard: job.shard,
                        shards: job.shards,
                    };
                    let started = std::time::Instant::now();
                    if child.is_none() {
                        // Respawned children run without the crash hook, so
                        // an injected fault fires once per original worker.
                        match WorkerChild::spawn(&exe, ever_spawned) {
                            Ok(c) => {
                                child = Some(c);
                                ever_spawned = true;
                            }
                            Err(e) => {
                                eprintln!(
                                    "warning: could not spawn worker ({e}); \
                                     running shards in-process"
                                );
                            }
                        }
                    }
                    let outcome = match child.as_mut() {
                        Some(c) => c.exchange(&wire),
                        None => Err("no worker process".into()),
                    };
                    match outcome {
                        Ok(Reply::Ok {
                            cell,
                            shard,
                            partial,
                            registry,
                        }) if cell == job.cell && shard == job.shard => {
                            finish(
                                spec, scale, job, partial, registry, started, cache, on_done,
                                &results,
                            );
                        }
                        Ok(Reply::Err { error, .. }) => {
                            // The worker is healthy but refuses the job;
                            // retrying elsewhere would refuse identically.
                            eprintln!(
                                "warning: worker refused shard {}/{} of {} ({error}); \
                                 running it in-process",
                                job.shard + 1,
                                job.shards,
                                spec.id()
                            );
                            let (partial, registry) = spec.execute_shard(scale, job.shard);
                            finish(
                                spec, scale, job, partial, registry, started, cache, on_done,
                                &results,
                            );
                        }
                        other => {
                            // Crashed child or protocol corruption: replace
                            // the child, retry the job a bounded number of
                            // times, then run it in-process.
                            if let Some(c) = child.take() {
                                c.discard();
                            }
                            let error = match other {
                                Err(e) => e,
                                _ => "worker answered for the wrong shard".into(),
                            };
                            let can_retry = attempt < MAX_ATTEMPTS
                                && respawns.fetch_add(1, Ordering::Relaxed) < respawn_budget;
                            if can_retry {
                                eprintln!(
                                    "warning: worker lost shard {}/{} of {} ({error}); \
                                     respawning (attempt {attempt})",
                                    job.shard + 1,
                                    job.shards,
                                    spec.id()
                                );
                                queue
                                    .lock()
                                    .expect("queue lock")
                                    .push_back((job, attempt + 1));
                            } else {
                                eprintln!(
                                    "warning: giving up on workers for shard {}/{} of {} \
                                     ({error}); running it in-process",
                                    job.shard + 1,
                                    job.shards,
                                    spec.id()
                                );
                                let (partial, registry) = spec.execute_shard(scale, job.shard);
                                finish(
                                    spec, scale, job, partial, registry, started, cache, on_done,
                                    &results,
                                );
                            }
                        }
                    }
                }
                if let Some(c) = child.take() {
                    c.shutdown();
                }
            });
        }
    });
    results.into_inner().expect("results lock")
}

/// Stores a finished shard, reports progress, and records the result.
#[allow(clippy::too_many_arguments)]
fn finish(
    spec: &dyn Cell,
    scale: Scale,
    job: ShardJob,
    partial: Json,
    registry: Option<String>,
    started: std::time::Instant,
    cache: &Cache,
    on_done: &(dyn Fn(usize, usize, usize, f64) + Sync),
    results: &Mutex<Vec<ShardResult>>,
) {
    let secs = started.elapsed().as_secs_f64();
    if let Err(e) = cache.store_shard(
        spec,
        scale,
        job.shard,
        job.shards,
        &partial,
        registry.as_deref(),
    ) {
        eprintln!(
            "warning: could not cache shard {} of {}: {e}",
            job.shard,
            spec.id()
        );
    }
    on_done(job.cell, job.shard, job.shards, secs);
    results
        .lock()
        .expect("results lock")
        .push((job.cell, job.shard, partial, registry, secs));
}
