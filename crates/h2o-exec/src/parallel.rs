//! Morsel-driven intra-query parallelism.
//!
//! The paper's prototype is single-threaded; its claim is that
//! layout-specialized operators make the scan loop as fast as the hardware
//! allows. On multi-core hardware "as fast as the hardware allows" requires
//! intra-query parallelism, so this module adds the simplest scheme that
//! preserves the kernels' tight loops unchanged: the relation is split into
//! fixed-size **morsels** of consecutive rows and a small pool of scoped
//! worker threads claims morsels greedily off a shared atomic counter
//! (self-scheduling work-stealing — no per-query planning, in the spirit of
//! the greedy, statistics-free adaptation mechanism).
//!
//! Every parallel path is *deterministic*: per-morsel partial results are
//! re-assembled in morsel order (projection blocks concatenated, selection
//! vectors stitched, aggregate partials merged through
//! [`AggState::merge`](h2o_expr::agg::AggState::merge), whose operations —
//! wrapping sums, min/max, counts — are associative), so a policy always
//! returns the same bits, and parallel execution returns **bit-identical**
//! results to serial execution for projections, integer sums, min/max,
//! counts and `F64` sums whose partial sums are exact (the dyadic grids
//! every suite draws). A non-dyadic `F64` sum is the exception: it folds
//! one chain per morsel and merges the chains in morsel order, so its last
//! bits depend on the morsel split (a 300K-row sum measured 426 ulps apart
//! under two workers), until the sum is made order-independent. The
//! differential suites assert bit-identity for every layout × query
//! shape on dyadic data.
//!
//! [`ExecPolicy`] carries the knobs: worker count, morsel size, and a serial
//! fallback threshold so tiny relations never pay fork/join overhead.

use h2o_storage::failpoints;
use parking_lot::Mutex;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default rows per morsel. Large enough that per-morsel overhead (one
/// atomic increment + one partial-result allocation) is noise against the
/// scan work; small enough that work-stealing load-balances skewed
/// predicates across workers.
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Default serial-fallback threshold: relations at or below this row count
/// execute on the calling thread. Scans this small finish in microseconds —
/// faster than spawning a single worker.
pub const DEFAULT_SERIAL_THRESHOLD: usize = 16_384;

/// Execution-parallelism policy: how (and whether) to split a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker threads to use. `None` asks the host for its available
    /// parallelism; `Some(1)` forces serial execution.
    pub parallelism: Option<usize>,
    /// Rows per morsel (clamped to at least 1).
    pub morsel_rows: usize,
    /// Relations with at most this many rows always run serially.
    pub serial_threshold: usize,
}

impl ExecPolicy {
    /// Strictly serial execution (the paper's original behavior).
    pub const fn serial() -> ExecPolicy {
        ExecPolicy {
            parallelism: Some(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            serial_threshold: DEFAULT_SERIAL_THRESHOLD,
        }
    }

    /// A policy with an explicit worker count and default morsel shape.
    pub fn with_threads(threads: usize) -> ExecPolicy {
        ExecPolicy {
            parallelism: Some(threads.max(1)),
            ..ExecPolicy::default()
        }
    }

    /// The resolved worker count. The host's available parallelism is
    /// queried once per process (it sits on the per-query hot path).
    pub fn threads(&self) -> usize {
        match self.parallelism {
            Some(n) => n.max(1),
            None => {
                static HOST: OnceLock<usize> = OnceLock::new();
                *HOST.get_or_init(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
            }
        }
    }

    /// Whether a scan of `rows` tuples should run serially under this
    /// policy (single worker, tiny relation, or a single morsel anyway).
    pub fn is_serial_for(&self, rows: usize) -> bool {
        self.threads() <= 1 || rows <= self.serial_threshold || rows <= self.morsel_rows.max(1)
    }

    /// Number of morsels a scan of `rows` tuples splits into.
    pub fn morsel_count(&self, rows: usize) -> usize {
        rows.div_ceil(self.morsel_rows.max(1))
    }

    /// The `i`-th morsel's row range.
    fn morsel(&self, rows: usize, i: usize) -> Range<usize> {
        let m = self.morsel_rows.max(1);
        let start = i * m;
        start..((start + m).min(rows))
    }

    /// Aligns morsel boundaries to the storage's segment granularity
    /// (`seg_rows` per segment, a power of two): when a morsel spans
    /// multiple segments, its size is rounded down to a whole number of
    /// segments so every morsel visits only complete segment runs (one
    /// boundary crossing per segment, none per morsel). Morsels smaller
    /// than a segment are left alone — they already lie within one
    /// segment except at its edges, and shrinking them to zero would be
    /// wrong. Pure perf plumbing: results are bit-identical for any
    /// morsel shape.
    pub fn aligned_to(&self, seg_rows: usize) -> ExecPolicy {
        let m = self.morsel_rows.max(1);
        if seg_rows <= 1 || m <= seg_rows {
            return *self;
        }
        ExecPolicy {
            morsel_rows: m / seg_rows * seg_rows,
            ..*self
        }
    }
}

impl Default for ExecPolicy {
    /// Use all available cores with the default morsel shape.
    fn default() -> Self {
        ExecPolicy {
            parallelism: None,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            serial_threshold: DEFAULT_SERIAL_THRESHOLD,
        }
    }
}

/// Runs `f` over every morsel of `0..rows` and returns the per-morsel
/// results **in morsel order**. Under a serial policy (or when only one
/// morsel exists) `f` runs on the calling thread; otherwise scoped workers
/// claim morsels greedily off a shared atomic counter.
///
/// Workers are fresh scoped threads per call rather than a persistent
/// pool: morsel closures borrow catalog-owned slices (`GroupViews`), which
/// `std::thread::scope` supports without `'static` bounds or channel
/// indirection. The spawn/join cost (tens of microseconds) is kept off
/// small queries by the policy's serial threshold and is noise against the
/// multi-millisecond scans parallelism targets; a shared work-stealing
/// pool (e.g. rayon) would amortize it further and can replace this
/// scheduler behind the same signature.
///
/// ## Panic containment
///
/// A panic inside `f` never aborts the process. Each worker runs every
/// morsel under [`catch_unwind`]; the first panic payload is captured, a
/// shared poison flag stops the other workers from claiming further
/// morsels, and every worker then returns normally so the scoped-thread
/// teardown is an ordinary join. After the scope closes, the captured
/// payload is re-raised with [`resume_unwind`] **on the calling thread**,
/// where the engine converts it into a typed
/// `EngineError::ExecutionPanicked` — identical behavior to a panic on
/// the serial path. Partial results are discarded; the work-stealing
/// counter and the scope leave no dangling state.
pub fn run_morsels<T, F>(rows: usize, policy: &ExecPolicy, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let n = policy.morsel_count(rows);
    if policy.is_serial_for(rows) || n <= 1 {
        // Serial path: a panic propagates on the calling thread directly,
        // which is exactly where the parallel path re-raises it.
        return (0..n)
            .map(|i| {
                failpoints::hit("morsel_start");
                f(policy.morsel(rows, i))
            })
            .collect();
    }
    let workers = policy.threads().min(n);
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // `AssertUnwindSafe`: the closure only reads
                        // snapshot-immutable state (`GroupViews` slices),
                        // and its partial result is discarded on panic, so
                        // no torn state crosses the unwind boundary.
                        match catch_unwind(AssertUnwindSafe(|| {
                            failpoints::hit("morsel_start");
                            f(policy.morsel(rows, i))
                        })) {
                            Ok(v) => local.push((i, v)),
                            Err(payload) => {
                                poisoned.store(true, Ordering::Relaxed);
                                let mut slot = first_panic.lock();
                                if slot.is_none() {
                                    *slot = Some(payload);
                                }
                                break;
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("workers catch their own panics"))
            .collect()
    });
    if let Some(payload) = first_panic.into_inner() {
        resume_unwind(payload);
    }
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, v)| v).collect()
}

/// The execution driver's one scheduling decision: runs `f` over the ranges
/// a scan of `0..rows` splits into under `policy` and returns the results
/// in range order. A serial scan ([`ExecPolicy::is_serial_for`]) is the
/// **single range `0..rows`** on the calling thread — one fold chain, so
/// serial execution is bit-identical to the reference interpreter even for
/// `F64` sums; otherwise the ranges are [`run_morsels`]' morsels, aligned
/// to the storage's `seg_rows` granularity ([`ExecPolicy::aligned_to`]).
/// Every source (scan, id chunks, fused reorganization, join build
/// and probe) goes through here, so "serial" means the same thing for all.
pub fn run_ranges<T, F>(rows: usize, seg_rows: usize, policy: &ExecPolicy, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if policy.is_serial_for(rows) {
        failpoints::hit("morsel_start");
        return vec![f(0..rows)];
    }
    run_morsels(rows, &policy.aligned_to(seg_rows), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(threads: usize, morsel: usize) -> ExecPolicy {
        ExecPolicy {
            parallelism: Some(threads),
            morsel_rows: morsel,
            serial_threshold: 0,
        }
    }

    #[test]
    fn morsel_ranges_cover_exactly() {
        let p = policy(4, 10);
        for rows in [0usize, 1, 9, 10, 11, 25, 100] {
            let n = p.morsel_count(rows);
            let mut covered = 0;
            for i in 0..n {
                let r = p.morsel(rows, i);
                assert_eq!(r.start, covered);
                covered = r.end;
            }
            assert_eq!(covered, rows, "rows={rows}");
        }
    }

    #[test]
    fn run_morsels_preserves_order() {
        let p = policy(4, 7);
        let got = run_morsels(100, &p, |r| r.start);
        let want: Vec<usize> = (0..100usize.div_ceil(7)).map(|i| i * 7).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_equals_serial_fold() {
        let rows = 10_000;
        let serial: u64 = run_morsels(rows, &ExecPolicy::serial(), |r| {
            r.map(|i| i as u64 * 3).sum::<u64>()
        })
        .into_iter()
        .sum();
        for threads in [2, 4, 8] {
            let par: u64 = run_morsels(rows, &policy(threads, 997), |r| {
                r.map(|i| i as u64 * 3).sum::<u64>()
            })
            .into_iter()
            .sum();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn serial_fallback_respected() {
        let p = ExecPolicy {
            parallelism: Some(8),
            morsel_rows: 10,
            serial_threshold: 1_000,
        };
        assert!(p.is_serial_for(1_000));
        assert!(!p.is_serial_for(1_001));
        assert!(ExecPolicy::serial().is_serial_for(usize::MAX));
        // One morsel ⇒ serial regardless of thread count.
        let q = policy(8, 1_000_000);
        assert!(q.is_serial_for(500_000));
    }

    #[test]
    fn zero_rows_are_fine() {
        let p = policy(4, 8);
        assert!(run_morsels(0, &p, |r| r.len()).is_empty());
    }

    #[test]
    fn aligned_to_rounds_multi_segment_morsels_only() {
        let p = policy(4, 100_000);
        // Spans multiple 65 536-row segments: rounded down to one whole
        // segment.
        assert_eq!(p.aligned_to(65_536).morsel_rows, 65_536);
        assert_eq!(policy(4, 200_000).aligned_to(65_536).morsel_rows, 196_608);
        // Smaller than a segment: untouched.
        assert_eq!(policy(4, 512).aligned_to(65_536).morsel_rows, 512);
        // Degenerate granularities: untouched.
        assert_eq!(policy(4, 100).aligned_to(1).morsel_rows, 100);
        assert_eq!(policy(4, 100).aligned_to(0).morsel_rows, 100);
    }

    #[test]
    fn worker_panic_propagates_instead_of_aborting() {
        let p = policy(4, 10);
        // A panic in one morsel must surface as an ordinary panic on the
        // calling thread (catchable), not a process abort, and the first
        // payload must win.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_morsels(1_000, &p, |r| {
                if r.contains(&500) {
                    panic!("boom in morsel {}", r.start);
                }
                r.len()
            })
        }))
        .expect_err("panic must propagate");
        let msg = caught.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "boom in morsel 500");

        // The scheduler is reusable afterwards: same policy, same closure
        // shape, no poisoned global state.
        let ok: usize = run_morsels(1_000, &p, |r| r.len()).into_iter().sum();
        assert_eq!(ok, 1_000);
    }

    #[test]
    fn serial_panic_propagates_on_calling_thread() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_morsels(10, &ExecPolicy::serial(), |_| -> usize {
                panic!("serial boom")
            })
        }))
        .expect_err("panic must propagate");
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "serial boom");
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(ExecPolicy::with_threads(0).threads(), 1);
        assert_eq!(ExecPolicy::with_threads(4).threads(), 4);
        assert!(ExecPolicy::default().threads() >= 1);
    }
}
