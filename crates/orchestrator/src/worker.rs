//! The shard pool — the runner's one execution engine — and the worker
//! process it can run shards through.
//!
//! The pool is one job queue drained by a fixed number of slots, each a
//! thread of this process. A slot pops a shard job and runs it one of two
//! ways: in this process (`propdiff-run run`, `--threads N` slots), or —
//! with `--workers N` — through its own `propdiff-run worker` child, a
//! copy of this executable fed shard jobs over stdin/stdout JSONL (see
//! [`crate::protocol`]). Either way the shard finishes in one place: it
//! is stored in the cache the moment it lands — so a crash at any point
//! loses at most the in-flight shards — and its progress line is printed.
//!
//! # Fault handling
//!
//! A child that exits, crashes, or writes garbage is respawned (without
//! the [`EXIT_AFTER_ENV`] crash hook, so an injected fault can't respawn
//! forever) and the job is requeued, up to a small per-job and per-pool
//! budget. A job the workers *deterministically* refuse (an error reply)
//! or that exhausts its retries runs in this process instead, as a slot
//! without a child would run it, so `run` always completes with a full
//! result set — the merge step never sees a hole.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use experiments::cell::Partial;

use crate::cache::Cache;
use crate::manifest::{self, Manifest};
use crate::protocol::{Job, Reply};
use crate::runner::RunOptions;

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

fn execute_job(job: &Job) -> Result<Partial, String> {
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

/// The shard pool of one run: what every slot shares.
pub(crate) struct Pool<'a> {
    manifest: &'a Manifest,
    cache: &'a Cache,
    quiet: bool,
    /// Slots: shards in flight at once.
    width: usize,
    /// The executable each slot runs as its `worker` child; `None` runs
    /// every shard in this process.
    exe: Option<PathBuf>,
}

/// A slot's worker child: spawned for the slot's first job, respawned
/// after a crash.
struct ChildSlot<'a> {
    exe: &'a Path,
    child: Option<WorkerChild>,
    ever_spawned: bool,
}

impl<'a> Pool<'a> {
    /// The pool `opts` asks for: `process_workers` slots with a child
    /// each if that is above 0, else `workers` in-process slots (0 = one
    /// per available core).
    pub(crate) fn new(manifest: &'a Manifest, cache: &'a Cache, opts: &RunOptions) -> Pool<'a> {
        let width = match (opts.process_workers, opts.workers) {
            (0, 0) => std::thread::available_parallelism().map_or(4, |p| p.get()),
            (0, threads) => threads,
            (processes, _) => processes,
        };
        let exe = (opts.process_workers > 0).then(|| {
            opts.worker_exe.clone().unwrap_or_else(|| {
                std::env::current_exe().expect("current executable path for worker respawn")
            })
        });
        Pool {
            manifest,
            cache,
            quiet: opts.quiet,
            width,
            exe,
        }
    }

    /// Runs `jobs` (each a cell of the pool's manifest), returning each
    /// one's partial and wall seconds at the job's own index.
    pub(crate) fn run(&self, jobs: &[Job]) -> Vec<(Partial, f64)> {
        // (index into `jobs`, attempt)
        let queue: Mutex<VecDeque<(usize, u32)>> =
            Mutex::new((0..jobs.len()).map(|i| (i, 1)).collect());
        let results: Mutex<Vec<Option<(Partial, f64)>>> = Mutex::new(vec![None; jobs.len()]);
        let done = AtomicUsize::new(0);
        let respawns = AtomicUsize::new(0);

        std::thread::scope(|s| {
            for _ in 0..self.width.min(jobs.len()) {
                s.spawn(|| {
                    let mut slot = self.exe.as_deref().map(|exe| ChildSlot {
                        exe,
                        child: None,
                        ever_spawned: false,
                    });
                    loop {
                        let next = queue.lock().expect("queue lock").pop_front();
                        let Some((i, attempt)) = next else { break };
                        let job = &jobs[i];
                        let started = Instant::now();
                        let partial = match &mut slot {
                            None => self.in_process(job),
                            Some(slot) => match self.through_child(slot, job, attempt, &respawns) {
                                Some(partial) => partial,
                                None => {
                                    let retry = (i, attempt + 1);
                                    queue.lock().expect("queue lock").push_back(retry);
                                    continue;
                                }
                            },
                        };
                        let secs = started.elapsed().as_secs_f64();
                        self.finish(job, &partial, secs, &done, jobs.len());
                        results.lock().expect("results lock")[i] = Some((partial, secs));
                    }
                    if let Some(child) = slot.and_then(|s| s.child) {
                        child.shutdown();
                    }
                });
            }
        });
        let results = results.into_inner().expect("results lock");
        (results.into_iter())
            .map(|r| r.expect("every job finished"))
            .collect()
    }

    fn in_process(&self, job: &Job) -> Partial {
        self.manifest.cells[job.cell].execute_shard(job.scale, job.shard)
    }

    /// Runs `job` through `slot`'s child, spawning one if the slot has
    /// none. `None` when the child was lost and the job goes back on the
    /// queue; a job the workers refuse, or that has used up its attempts
    /// or the pool's respawns, runs in this process instead.
    fn through_child(
        &self,
        slot: &mut ChildSlot,
        job: &Job,
        attempt: u32,
        respawns: &AtomicUsize,
    ) -> Option<Partial> {
        let (id, nth, shards) = (&job.id, job.shard + 1, job.shards);
        if slot.child.is_none() {
            // Respawned children run without the crash hook, so an
            // injected fault fires once per original worker.
            slot.child = WorkerChild::spawn(slot.exe, slot.ever_spawned)
                .inspect_err(|e| {
                    eprintln!("warning: could not spawn worker ({e}); running shards in-process")
                })
                .ok();
            slot.ever_spawned |= slot.child.is_some();
        }
        let outcome = match slot.child.as_mut() {
            Some(c) => c.exchange(job),
            None => Err("no worker process".into()),
        };
        let error = match outcome {
            Ok(Reply::Ok {
                cell,
                shard,
                partial,
                registry,
            }) if cell == job.cell && shard == job.shard => return Some((partial, registry)),
            Ok(Reply::Err { error, .. }) => {
                // The worker is healthy but refuses the job; retrying
                // elsewhere would refuse identically.
                eprintln!(
                    "warning: worker refused shard {nth}/{shards} of {id} ({error}); \
                     running it in-process"
                );
                return Some(self.in_process(job));
            }
            Ok(Reply::Ok { .. }) => "worker answered for the wrong shard".into(),
            Err(e) => e,
        };
        // Crashed child or protocol corruption: replace the child, retry
        // the job a bounded number of times, then run it in-process.
        if let Some(c) = slot.child.take() {
            c.discard();
        }
        let respawn_budget = 2 * self.width + 4;
        if attempt < MAX_ATTEMPTS && respawns.fetch_add(1, Ordering::Relaxed) < respawn_budget {
            eprintln!(
                "warning: worker lost shard {nth}/{shards} of {id} ({error}); \
                 respawning (attempt {attempt})"
            );
            return None;
        }
        eprintln!(
            "warning: giving up on workers for shard {nth}/{shards} of {id} \
             ({error}); running it in-process"
        );
        Some(self.in_process(job))
    }

    /// Where every shard finishes, whichever slot ran it: it is stored in
    /// the cache, and its progress line printed.
    fn finish(&self, job: &Job, partial: &Partial, secs: f64, done: &AtomicUsize, total: usize) {
        let spec = self.manifest.cells[job.cell].as_ref();
        let (result, registry) = partial;
        let stored = (self.cache).store_shard(
            spec,
            job.scale,
            job.shard,
            job.shards,
            result,
            registry.as_deref(),
        );
        if let Err(e) = stored {
            eprintln!(
                "warning: could not cache shard {} of {}: {e}",
                job.shard, job.id
            );
        }
        if !self.quiet {
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            let _ = writeln!(
                std::io::stderr().lock(),
                "[{n:>3}/{total}] {:<28} s{}/{} {secs:>6.1}s",
                job.id,
                job.shard + 1,
                job.shards
            );
        }
    }
}
