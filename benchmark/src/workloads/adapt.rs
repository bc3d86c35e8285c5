//! `adapt_shift`: the paper's headline experiment. A cold column-major
//! 100-attribute relation answers four Fig. 7 phases back to back; each
//! phase draws a new class pool, so the workload shifts three times and
//! the engine has to notice, advise, reorganise and recompile each time.
//! There is no warm-up: the time to adapt *is* the measurement.

use super::{CounterBase, Rep, Tracer};
use crate::embedded::{insert_probe, space_amp, Embedded, Op, Shape, Window};
use crate::gen::{mix, Rng};
use h2o_expr::{Conjunction, Predicate, Query};
use h2o_storage::{Relation, Schema};
use h2o_workload::{fig7_sequence, gen_columns, threshold_for_selectivity};
use std::time::Instant;

pub const ROWS: usize = 8_192;
pub const ATTRS: usize = 100;
pub const PHASES: usize = 4;
pub const QUERIES_PER_PHASE: usize = 150;
const CLASSES: usize = 5;
const NOISE: f64 = 0.1;
/// Seed of the class pools. The query *shapes* are part of the workload's
/// definition — 4 phases for each of a run's repetitions, every run the
/// same — and only the data and the predicate constants come from
/// `--seed`. Pools drawn from the seed would make two seeds two workloads:
/// queries touch 10 to 30 attributes, and ten seeds spread 13% on `p50_ms`.
const SHAPE_SEED: u64 = 0xf197;

pub const KINDS: [&str; PHASES] = ["phase_0", "phase_1", "phase_2", "phase_3"];

/// The whole sequence of repetition `rep`; a request's kind is its phase.
/// Shapes are fixed per (repetition, phase); every filter constant is
/// redrawn from the seed within a tenth of the template's selectivity.
pub fn stream(seed: u64, rep: usize) -> Vec<Op> {
    let mut rng = Rng::new(mix(seed, 0xc0a5));
    let mut ops = Vec::with_capacity(PHASES * QUERIES_PER_PHASE);
    for phase in 0..PHASES {
        let shapes = SHAPE_SEED + (rep * PHASES + phase) as u64;
        for tq in fig7_sequence(ATTRS, QUERIES_PER_PHASE, CLASSES, NOISE, shapes) {
            let (query, selectivity) = if tq.query.filter().is_always_true() {
                (tq.query, 1.0)
            } else {
                let selectivity = tq.selectivity * (0.9 + 0.2 * rng.unit());
                let threshold = threshold_for_selectivity(selectivity);
                let filter: Conjunction = tq
                    .query
                    .filter()
                    .predicates()
                    .iter()
                    .map(|p| Predicate::new(p.attr, p.op, threshold))
                    .collect();
                let q = Query::select(
                    tq.query.projections().to_vec(),
                    tq.query.aggregates().to_vec(),
                    filter,
                )
                .expect("a rebound template stays well-formed");
                (q, selectivity)
            };
            ops.push(Op {
                kind: phase,
                shape: Shape::Query(query),
                hint: Some(selectivity),
            });
        }
    }
    ops
}

fn cold_engine(seed: u64, rep: usize) -> Result<Embedded, String> {
    let columns = gen_columns(ATTRS, ROWS, mix(seed, 0xda7a));
    let relation = Relation::columnar(Schema::with_width(ATTRS).into_shared(), columns)
        .map_err(|e| format!("relation: {e}"))?;
    Ok(Embedded::new(relation, 2, &KINDS, stream(seed, rep)))
}

/// Verification cannot touch the engine under test (it would warm it), so
/// one request per phase is checked on a scratch engine over a slice of
/// the same data before the cold engine is built.
fn verify_on_scratch(seed: u64, rep: usize) -> Result<(), String> {
    const SCRATCH_ROWS: usize = 20_000;
    let columns = gen_columns(ATTRS, SCRATCH_ROWS, mix(seed, 0xda7a));
    let relation = Relation::columnar(Schema::with_width(ATTRS).into_shared(), columns)
        .map_err(|e| format!("relation: {e}"))?;
    Embedded::new(relation, 2, &KINDS, stream(seed, rep)).verify()
}

/// One cold run of the whole sequence.
fn sequence(emb: &Embedded) -> Window {
    Window::single_pass(emb.stream.len(), |lat| emb.pass(lat))
}

/// Takes no window length: the sequence is the measured unit, and `main`
/// repeats it for the requested number of seconds.
pub fn adapt_shift(seed: u64, rep: usize, mut tracer: Option<&mut Tracer>) -> Result<Rep, String> {
    let t0 = Instant::now();
    verify_on_scratch(seed, rep)?;
    let emb = cold_engine(seed, rep)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let before = CounterBase::take(&emb.engine);
    let window = sequence(&emb);
    let counters = before.counters(&emb.engine);
    // The adapted engine must still answer correctly.
    emb.verify()?;
    let space_amp = space_amp(&emb.engine);
    let inserts = CounterBase::take(&emb.engine);
    let (insert_ms, insert_failed) = insert_probe(&emb.engine, mix(seed, 0x1265));
    if let Some(t) = tracer.as_deref_mut() {
        t.storage_counts(&emb.engine, &inserts, &insert_ms);
    }
    drop(emb);

    // The traced sequence needs its own cold engine.
    let traced = match tracer {
        Some(t) => {
            let cold = cold_engine(seed, rep)?;
            Some(t.sequence(&cold))
        }
        None => None,
    };
    Ok(Rep {
        setup_s,
        window,
        traced,
        insert_ms,
        insert_failed,
        space_amp,
        counters,
    })
}
