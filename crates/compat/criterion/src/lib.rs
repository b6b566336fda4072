//! A minimal, self-contained re-implementation of the slice of the
//! Criterion API this workspace's benches use, for offline builds.
//!
//! The build environment has no access to crates.io, so the real
//! `criterion` crate cannot be fetched. The shim keeps the bench
//! sources unchanged and supports two modes:
//!
//! * **bench mode** (`cargo bench`, detected via the `--bench` argument
//!   cargo passes): each benchmark is warmed up and then timed for a
//!   fixed measurement window; mean ns/iter is printed.
//! * **smoke mode** (any other invocation, e.g. `cargo test` running
//!   the bench target): each benchmark body runs once, so the target is
//!   exercised end-to-end without taking minutes.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One finished measurement, kept so bench targets can export their
/// numbers (e.g. to a JSON results file) beyond the console print.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark name (`group/function`).
    pub name: String,
    /// Mean wall-clock per iteration, nanoseconds.
    pub ns_per_iter: f64,
    /// Iterations measured (1 in smoke mode).
    pub iters: u64,
    /// Peak live-heap bytes of one iteration, when the bench target
    /// measured it (self-timed rows with a counting allocator).
    pub peak_bytes: Option<u64>,
    /// Extra structured context as a raw JSON object literal (e.g.
    /// `{ "generator": "csr" }`); bench targets render it as a nested
    /// object alongside the flat measurement fields.
    pub meta: Option<String>,
}

/// Benchmark driver; mirrors `criterion::Criterion`.
pub struct Criterion {
    full: bool,
    measurement: Duration,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            full: std::env::args().any(|a| a == "--bench"),
            measurement: Duration::from_millis(300),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Registers and immediately runs one benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = name.into();
        let mut b = Bencher {
            full: self.full,
            measurement: self.measurement,
            iters: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        b.report(&name);
        if b.iters > 0 {
            self.results.push(BenchResult {
                name,
                ns_per_iter: b.elapsed.as_nanos() as f64 / b.iters as f64,
                iters: b.iters,
                peak_bytes: None,
                meta: None,
            });
        }
        self
    }

    /// Whether the driver runs full measurements (`cargo bench`) or
    /// single smoke iterations (any other invocation).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Every measurement taken so far, in registration order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// A named group; mirrors `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for source compatibility; the shim sizes its sample by
    /// wall-clock budget instead.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Registers and immediately runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.into());
        self.criterion.bench_function(full, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Timing harness handed to each benchmark; mirrors `criterion::Bencher`.
pub struct Bencher {
    full: bool,
    measurement: Duration,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs the routine repeatedly (bench mode) or once (smoke mode)
    /// and records the elapsed time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if !self.full {
            let start = Instant::now();
            black_box(routine());
            self.elapsed = start.elapsed();
            self.iters = 1;
            return;
        }
        // Warm-up + calibration: time a single iteration to pick a
        // batch size that fits the measurement window.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let target = self
            .measurement
            .as_nanos()
            .div_ceil(once.as_nanos())
            .clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..target {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
        self.iters = target;
    }

    fn report(&self, name: &str) {
        if self.iters == 0 {
            println!("bench {name:<50} ... no measurement");
            return;
        }
        let per_iter = self.elapsed.as_nanos() as f64 / self.iters as f64;
        let mode = if self.full { "bench" } else { "smoke" };
        println!(
            "{mode} {name:<50} {:>14.0} ns/iter ({} iters)",
            per_iter, self.iters
        );
    }
}

/// Bundles benchmark functions; mirrors `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` for bench targets; mirrors `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_each_routine_once() {
        let mut c = Criterion {
            full: false,
            measurement: Duration::from_millis(1),
            results: Vec::new(),
        };
        let mut runs = 0;
        c.bench_function("t", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1);
    }

    #[test]
    fn bench_mode_batches_iterations() {
        let mut c = Criterion {
            full: true,
            measurement: Duration::from_millis(5),
            results: Vec::new(),
        };
        let mut runs = 0u64;
        c.bench_function("t", |b| b.iter(|| runs += 1));
        assert!(runs > 1, "expected batched iterations, got {runs}");
    }

    #[test]
    fn results_are_recorded_with_group_prefixes() {
        let mut c = Criterion {
            full: false,
            measurement: Duration::from_millis(1),
            results: Vec::new(),
        };
        let mut g = c.benchmark_group("grp");
        g.bench_function("a", |b| b.iter(|| 1 + 1));
        g.finish();
        c.bench_function("solo", |b| b.iter(|| 2 + 2));
        let names: Vec<&str> = c.results().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["grp/a", "solo"]);
        assert!(c.results().iter().all(|r| r.iters == 1));
        assert!(!c.is_full());
    }

    #[test]
    fn groups_prefix_names_and_chain() {
        let mut c = Criterion {
            full: false,
            measurement: Duration::from_millis(1),
            results: Vec::new(),
        };
        let mut g = c.benchmark_group("grp");
        g.sample_size(10);
        let mut ran = false;
        g.bench_function("inner", |b| b.iter(|| ran = true));
        g.finish();
        assert!(ran);
    }
}
