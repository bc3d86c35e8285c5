//! Shared harness utilities for the paper-reproduction benchmark binaries.
//!
//! Each `fig*` binary in `src/bin/` regenerates one figure or table of the
//! paper's evaluation (each binary's module docs name its figure; the
//! README's "Building and testing" section shows how to run them), and
//! `ablation_adaptivity` separates what each of H2O's moving parts buys.
//! Binaries print CSV-style rows to stdout and a human-readable summary to
//! stderr, take `--tuples/--attrs/--queries/--seed` overrides, and default
//! to sizes that finish in tens of seconds on a single-core container while
//! preserving the paper's *shapes* (who wins, by what factor, where
//! crossovers fall).

use std::time::Instant;

/// Common command-line arguments for the harness binaries.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub tuples: usize,
    pub attrs: usize,
    pub queries: usize,
    pub seed: u64,
}

impl Args {
    /// Parses `--tuples N --attrs N --queries N --seed N` from argv,
    /// starting from the given defaults.
    pub fn parse(default_tuples: usize, default_attrs: usize, default_queries: usize) -> Args {
        let argv = std::env::args().collect();
        Args::parse_from(argv, default_tuples, default_attrs, default_queries)
    }

    /// [`Args::parse`] over an explicit argv (program name first), for a
    /// binary that takes flags of its own out of it first.
    pub fn parse_from(
        argv: Vec<String>,
        default_tuples: usize,
        default_attrs: usize,
        default_queries: usize,
    ) -> Args {
        let mut args = Args {
            tuples: default_tuples,
            attrs: default_attrs,
            queries: default_queries,
            seed: 42,
        };
        let mut i = 1;
        while i + 1 < argv.len() {
            let value = || -> u64 {
                argv[i + 1]
                    .parse()
                    .unwrap_or_else(|_| panic!("bad value for {}: {}", argv[i], argv[i + 1]))
            };
            match argv[i].as_str() {
                "--tuples" => args.tuples = value() as usize,
                "--attrs" => args.attrs = value() as usize,
                "--queries" => args.queries = value() as usize,
                "--seed" => args.seed = value(),
                other => {
                    panic!("unknown argument {other} (expected --tuples/--attrs/--queries/--seed)")
                }
            }
            i += 2;
        }
        args
    }
}

/// Times one invocation of `f`, returning `(result, seconds)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs `f` once as warm-up, then `reps` timed repetitions, and returns the
/// mean seconds (the paper reports hot runs averaged over 5 executions).
pub fn time_hot<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let _ = f(); // warm-up
    let mut total = 0.0;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        total += t0.elapsed().as_secs_f64();
        std::hint::black_box(&out);
    }
    total / reps.max(1) as f64
}

/// Runs `f` once as warm-up, then `reps` timed repetitions, and returns
/// the `(median, interquartile range)` of their seconds: a per-cell
/// spread that says whether two cells differ by more than the host's
/// noise.
pub fn time_hot_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
    let _ = f(); // warm-up
    let mut secs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    let at = |q: usize| secs[(secs.len() - 1) * q / 4];
    (at(2), at(3) - at(1))
}

/// Prints a CSV header line to stdout.
pub fn csv_header(cols: &[&str]) {
    println!("{}", cols.join(","));
}

/// Formats seconds with fixed precision for CSV output.
pub fn fmt_s(seconds: f64) -> String {
    format!("{seconds:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_positive() {
        let (v, s) = time(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49995000);
        assert!(s >= 0.0);
    }

    #[test]
    fn time_hot_median_orders_quartiles() {
        let (median, iqr) = time_hot_median(9, || std::hint::black_box((0..1000).sum::<u64>()));
        assert!(median >= 0.0 && iqr >= 0.0);
    }

    #[test]
    fn time_hot_averages() {
        let s = time_hot(3, || std::hint::black_box((0..1000).sum::<u64>()));
        assert!(s >= 0.0);
    }

    #[test]
    fn fmt() {
        assert_eq!(fmt_s(1.5), "1.500000");
    }
}
