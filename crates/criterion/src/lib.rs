//! # criterion (offline stand-in)
//!
//! The build environment has no access to crates.io, so this crate provides
//! the subset of the Criterion API the workspace's benches use —
//! [`Criterion`], benchmark groups, [`Throughput`], [`BenchmarkId`], the
//! [`criterion_group!`]/[`criterion_main!`] macros and [`black_box`] — as a
//! simple wall-clock harness. Each bench runs one warm-up iteration and
//! `sample_size` timed iterations, then prints the mean time per iteration
//! (plus derived throughput when one was declared).
//!
//! No statistics, outlier rejection, or HTML reports: for tracked numbers
//! use the repo benchmark (`benchmark/run.sh`).
#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The benchmark harness entry point.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets how many timed iterations each bench runs.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs a single benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        report(id, &b, None);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            throughput: None,
            _criterion: self,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Declares how much work one iteration performs, enabling
    /// elements/sec (or bytes/sec) reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Overrides the sample size for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        report(&format!("{}/{}", self.name, id), &b, self.throughput);
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b, input);
        report(&format!("{}/{}", self.name, id.0), &b, self.throughput);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Names a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new<P: Display>(name: &str, parameter: P) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// An id that is just the parameter's display form.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// Work performed by one bench iteration, for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements (e.g. packets, events) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Times closures; handed to every bench function.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    mean: Option<Duration>,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            mean: None,
        }
    }

    /// Runs `f` once to warm up, then `sample_size` timed times, recording
    /// the mean duration per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        let start = Instant::now();
        for _ in 0..self.sample_size {
            black_box(f());
        }
        self.mean = Some(start.elapsed() / self.sample_size as u32);
    }
}

fn report(id: &str, b: &Bencher, throughput: Option<Throughput>) {
    let Some(mean) = b.mean else {
        println!("{id:<48} (no measurement: bench did not call iter)");
        return;
    };
    let secs = mean.as_secs_f64();
    match throughput {
        Some(Throughput::Elements(n)) if secs > 0.0 => {
            println!(
                "{id:<48} {:>12.3?} /iter  {:>14.0} elem/s",
                mean,
                n as f64 / secs
            );
        }
        Some(Throughput::Bytes(n)) if secs > 0.0 => {
            println!(
                "{id:<48} {:>12.3?} /iter  {:>14.0} B/s",
                mean,
                n as f64 / secs
            );
        }
        _ => println!("{id:<48} {:>12.3?} /iter", mean),
    }
}

/// Declares a group of benchmark functions, with optional configuration.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("grouped");
        g.throughput(Throughput::Elements(100));
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.bench_with_input(BenchmarkId::from_parameter("x"), &3u64, |b, &x| {
            b.iter(|| x * 2)
        });
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs_every_shape() {
        benches();
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::new("f", 3).0, "f/3");
        assert_eq!(BenchmarkId::from_parameter("WTP").0, "WTP");
    }
}
