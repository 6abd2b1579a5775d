//! Offline stand-in for the [`criterion`](https://docs.rs/criterion)
//! crate.
//!
//! Implements the measurement API the workspace benches use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup`] with throughput, [`Bencher::iter`],
//! and the [`criterion_group!`]/[`criterion_main!`] macros — as a real
//! wall-clock harness: each benchmark is warmed up, then sampled
//! `sample_size` times, and the median/min/max per-iteration times are
//! printed. There is no statistical analysis, HTML report, or baseline
//! comparison.
//!
//! Running a bench binary with `--test` (as `cargo test` does for
//! `harness = false` benches) executes each benchmark exactly once to
//! smoke-test it; nothing is timed or recorded.
//!
//! Set `CRITERION_JSON=<path>` to also write a full run's results as a
//! JSON array (`[{"id", "median_ns", "min_ns", "max_ns"}, ...]`) when
//! the bench binary exits — the workspace's `BENCH_baseline.json`
//! snapshot comes from this.

#![allow(
    clippy::disallowed_types,
    reason = "a benchmark harness times the wall clock"
)]

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Results collected for the `CRITERION_JSON` snapshot.
static RESULTS: Mutex<Vec<(String, u128, u128, u128)>> = Mutex::new(Vec::new());

/// Write the collected results to `$CRITERION_JSON` if it is set.
/// Called by the `criterion_main!`-generated `main` after all groups.
pub fn write_json_snapshot() {
    let Some(path) = std::env::var_os("CRITERION_JSON") else {
        return;
    };
    let results = RESULTS.lock().expect("results mutex");
    if results.is_empty() {
        // A `--test` run measured nothing: leave the file alone.
        return;
    }
    let mut out = String::from("[\n");
    for (i, (id, median, min, max)) in results.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"id\": \"{}\", \"median_ns\": {median}, \"min_ns\": {min}, \"max_ns\": {max}}}",
            id.replace('\\', "\\\\").replace('"', "\\\"")
        ));
    }
    out.push_str("\n]\n");
    if let Err(err) = std::fs::write(&path, out) {
        eprintln!("criterion: cannot write {}: {err}", path.to_string_lossy());
    }
}

/// Opaque hint preventing the optimizer from deleting a value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// How many logical items one iteration processes, for per-item
/// throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// The timing driver handed to each benchmark closure.
pub struct Bencher {
    /// Samples to record after warming up; `None` under `--test`: run
    /// the routine once, untimed.
    sample_size: Option<usize>,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time `routine`, adapting the per-sample iteration count so each
    /// sample takes roughly a millisecond.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let Some(sample_size) = self.sample_size else {
            black_box(routine());
            return;
        };

        // Calibrate: grow the batch until one batch takes >= 1ms (or the
        // routine is clearly slow enough to time individually).
        let mut batch = 1u64;
        let per_iter = loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let took = start.elapsed();
            if took >= Duration::from_millis(1) || batch >= 1 << 20 {
                break took / batch as u32;
            }
            batch *= 2;
        };
        // Keep very slow benchmarks bounded: one iteration per sample.
        let batch = if per_iter >= Duration::from_millis(1) {
            1
        } else {
            batch
        };

        self.samples.clear();
        for _ in 0..sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / batch as u32);
        }
    }
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    /// `None` under `--test`.
    sample_size: Option<usize>,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let smoke = args.iter().any(|a| a == "--test");
        // First non-flag argument filters benchmark names, as upstream.
        let filter = args.into_iter().find(|a| !a.starts_with('-'));
        Criterion {
            sample_size: (!smoke).then_some(100),
            filter,
        }
    }
}

impl Criterion {
    /// Run one standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        run_one(&id, self.sample_size, self.filter.as_deref(), None, f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Report per-item throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into());
        run_one(
            &id,
            self.criterion.sample_size,
            self.criterion.filter.as_deref(),
            self.throughput,
            f,
        );
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    id: &str,
    sample_size: Option<usize>,
    filter: Option<&str>,
    throughput: Option<Throughput>,
    mut f: F,
) {
    if let Some(filter) = filter {
        if !id.contains(filter) {
            return;
        }
    }
    let mut bencher = Bencher {
        sample_size,
        samples: Vec::new(),
    };
    f(&mut bencher);
    if sample_size.is_none() {
        println!("{id}: ok (smoke)");
        return;
    }
    let mut samples = bencher.samples;
    if samples.is_empty() {
        println!("{id}: no samples (Bencher::iter never called)");
        return;
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let min = samples[0];
    let max = samples[samples.len() - 1];
    RESULTS.lock().expect("results mutex").push((
        id.to_string(),
        median.as_nanos(),
        min.as_nanos(),
        max.as_nanos(),
    ));
    let rate = throughput
        .map(|t| {
            let secs = median.as_secs_f64().max(1e-12);
            match t {
                Throughput::Elements(n) => format!("  {:.3e} elem/s", n as f64 / secs),
                Throughput::Bytes(n) => format!("  {:.3e} B/s", n as f64 / secs),
            }
        })
        .unwrap_or_default();
    println!("{id}: median {median:?}  (min {min:?}, max {max:?}){rate}");
}

/// Collect benchmark functions into one named runner, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_snapshot();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures() {
        let mut b = Bencher {
            sample_size: Some(5),
            samples: Vec::new(),
        };
        let mut count = 0u64;
        b.iter(|| {
            count += 1;
            black_box(count)
        });
        assert_eq!(b.samples.len(), 5);
        assert!(count > 5);
    }

    #[test]
    fn smoke_runs_once() {
        let mut b = Bencher {
            sample_size: None,
            samples: Vec::new(),
        };
        let mut count = 0u64;
        b.iter(|| count += 1);
        assert_eq!(count, 1);
        // Nothing is timed: a smoke run adds no row to a snapshot.
        assert!(b.samples.is_empty());
    }
}
