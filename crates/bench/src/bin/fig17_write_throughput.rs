//! Write throughput under snapshot-isolated copy-on-write appends (beyond
//! the paper: its prototype is read-only, "no space is left for updates").
//!
//! Sweeps relation size × append-batch size over an engine with 3 live
//! column-group layouts and measures per-batch append latency and rows/sec,
//! for two storage representations of the *same* logical store:
//!
//! * `segmented` — the default segmented payloads: each batch's
//!   copy-on-write clones at most one tail segment (≤ 64K rows) per group,
//!   so per-batch cost is flat in relation size;
//! * `monolithic` — one segment holding the whole relation (the
//!   pre-segmentation representation, reproduced exactly via a large
//!   `seg_shift`): each batch re-clones every group's entire payload, so
//!   per-batch cost grows linearly with relation size.
//!
//! Every run cross-checks durability (row count, a sampled appended cell)
//! and reports the engine's `bytes_cloned_on_write` counter, which is the
//! mechanism under test. JSON output for the benchmark trajectory.

use h2o_bench::Args;
use h2o_core::{EngineConfig, H2oEngine};
use h2o_storage::{AttrId, Relation, Schema};
use h2o_workload::synth::gen_columns;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const ATTRS: usize = 6;
/// A shift so large the whole relation always fits one segment — the
/// monolithic pre-segmentation behavior.
const MONOLITHIC_SHIFT: u32 = 30;

fn build_engine(rows: usize, seed: u64, seg_shift: Option<u32>) -> H2oEngine {
    let schema = Schema::with_width(ATTRS).into_shared();
    let columns = gen_columns(ATTRS, rows, seed);
    // Three live column-group layouts of width 2.
    let partition: Vec<Vec<AttrId>> = (0..3)
        .map(|g| vec![AttrId(2 * g), AttrId(2 * g + 1)])
        .collect();
    let relation = match seg_shift {
        Some(shift) => Relation::partitioned_with_shift(schema, columns, partition, shift).unwrap(),
        None => Relation::partitioned(schema, columns, partition).unwrap(),
    };
    H2oEngine::new(relation, EngineConfig::default())
}

fn main() {
    let args = Args::parse(1_000_000, ATTRS, 64);
    let max_rows = args.tuples.max(4);
    let batches = args.queries.max(4);
    let relation_sizes = [max_rows / 4, max_rows / 2, max_rows];
    let batch_sizes = [1usize, 32, 1024];

    eprintln!(
        "fig17: {batches} batches per point, relation sizes {relation_sizes:?}, \
         batch sizes {batch_sizes:?}, {ATTRS} attrs in 3 column groups"
    );

    let mut entries = Vec::new();
    for (mode, shift) in [("segmented", None), ("monolithic", Some(MONOLITHIC_SHIFT))] {
        for &rows in &relation_sizes {
            for &batch_rows in &batch_sizes {
                let engine = build_engine(rows, args.seed, shift);
                let mut rng = SmallRng::seed_from_u64(args.seed ^ batch_rows as u64);
                let t0 = Instant::now();
                for _ in 0..batches {
                    let batch: Vec<Vec<i64>> = (0..batch_rows)
                        .map(|_| (0..ATTRS).map(|_| rng.gen_range(-1000..1000)).collect())
                        .collect();
                    engine.insert(&batch).unwrap();
                }
                let secs = t0.elapsed().as_secs_f64();
                let appended = batches * batch_rows;
                // Durability spot-check: every batch landed in every layout.
                let snap = engine.snapshot();
                assert_eq!(snap.rows(), rows + appended);
                assert!(snap.groups().all(|g| g.rows() == rows + appended));
                snap.cell(rows + appended - 1, AttrId(ATTRS as u32 - 1))
                    .unwrap();
                let stats = engine.stats();
                let secs_per_batch = secs / batches as f64;
                let rows_per_sec = appended as f64 / secs;
                eprintln!(
                    "fig17: {mode:<10} rows={rows:<9} batch={batch_rows:<5} \
                     {secs_per_batch:.6}s/batch  {rows_per_sec:.0} rows/s  \
                     cloned {} bytes",
                    stats.bytes_cloned_on_write
                );
                entries.push(format!(
                    "{{\"mode\":\"{mode}\",\"rows\":{rows},\"batch_rows\":{batch_rows},\
                     \"batches\":{batches},\"seconds_per_batch\":{secs_per_batch:.9},\
                     \"rows_per_sec\":{rows_per_sec:.2},\"bytes_cloned_on_write\":{},\
                     \"segments_sealed\":{}}}",
                    stats.bytes_cloned_on_write, stats.segments_sealed
                ));
            }
        }
    }

    println!(
        "{{\"bench\":\"fig17_write_throughput\",\"attrs\":{ATTRS},\"layouts\":3,\
         \"max_rows\":{max_rows},\"batches\":{batches},\"seed\":{},\"results\":[{}]}}",
        args.seed,
        entries.join(",")
    );
}
