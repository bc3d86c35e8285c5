//! The in-process driver shared by the four embedded workloads: a fixed,
//! seeded request stream issued against `H2oEngine::run`, checked against
//! the interpreter before timing and fingerprinted while timing.

use crate::gen::{fold_result, fold_word, Rng};
use h2o_core::{EngineConfig, H2oEngine, Outcome, Request};
use h2o_exec::{CompileCostModel, ExecPolicy};
use h2o_expr::{interpret, interpret_join, JoinQuery, Query};
use h2o_storage::{Relation, Value, VALUE_BYTES};
use h2o_workload::{VALUE_MAX, VALUE_MIN};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub enum Shape {
    Query(Query),
    Join(Box<JoinQuery>),
}

/// One request of a stream. `kind` indexes the workload's kind names;
/// `hint` is the planning hint the harness passes (only `adapt_shift`
/// does, as the paper's own harness does).
pub struct Op {
    pub kind: usize,
    pub shape: Shape,
    pub hint: Option<f64>,
}

/// Engine configuration every workload starts from: real compile cost only
/// (the simulated spin-wait is not the program's cost), parallelism capped
/// at the two cores this benchmark is calibrated for.
pub fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig {
        compile_cost: CompileCostModel::ZERO,
        parallelism: Some(threads.min(crate::env::nproc()).max(1)),
        ..EngineConfig::default()
    }
}

/// What one measured window produced.
#[derive(Default)]
pub struct Window {
    pub ops: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Throughput of each pass, operations per second. Passes are
    /// identical work, so their median shrugs off a disturbed stretch
    /// that total operations over total time would absorb.
    pub pass_rates: Vec<f64>,
    pub lat_ms: Vec<f64>,
    /// Fingerprint chain of the first pass over the stream.
    pub fingerprint: u64,
}

impl Window {
    /// Measures whole passes of `ops_per_pass` operations until `dur` has
    /// elapsed. `pass` appends one latency per operation and returns the
    /// pass's fingerprint chain and its failed operations. With `stable`
    /// data every pass must reproduce the first pass's chain; one that
    /// does not counts as a failed operation.
    pub fn measure(
        dur: Duration,
        ops_per_pass: usize,
        stable: bool,
        mut pass: impl FnMut(&mut Vec<f64>) -> (u64, u64),
    ) -> Window {
        let mut w = Window::default();
        let t0 = Instant::now();
        while w.pass_rates.is_empty() || t0.elapsed() < dur {
            let pass_start = Instant::now();
            let (fp, failed) = pass(&mut w.lat_ms);
            w.pass_rates
                .push(ops_per_pass as f64 / pass_start.elapsed().as_secs_f64());
            w.failed += failed;
            if w.pass_rates.len() == 1 {
                w.fingerprint = fp;
            } else if stable && fp != w.fingerprint {
                w.failed += 1;
            }
        }
        w.wall_s = t0.elapsed().as_secs_f64();
        w.ops = w.lat_ms.len() as u64;
        w
    }

    /// A window of exactly one pass (`adapt_shift`'s cold sequence).
    pub fn single_pass(
        ops_per_pass: usize,
        pass: impl FnMut(&mut Vec<f64>) -> (u64, u64),
    ) -> Window {
        Window::measure(Duration::ZERO, ops_per_pass, false, pass)
    }
}

/// (layouts created, layouts pending, operator-cache misses): what must
/// stand still for a workload to be steady.
pub fn adaptation_state(engine: &H2oEngine) -> (u64, usize, u64) {
    (
        engine.stats().layouts_created,
        engine.pending().len(),
        engine.opcache_stats().misses,
    )
}

/// Warm-up for a steady workload: whole passes (`pass` returns the failed
/// operations of one) until two in a row leave the adaptation state where
/// it was — adaptation is quiescent and every operator is cached.
pub fn warm_up(engine: &H2oEngine, mut pass: impl FnMut() -> u64) -> Result<(), String> {
    const MAX_PASSES: usize = 64;
    let mut quiet = 0;
    for _ in 0..MAX_PASSES {
        let before = adaptation_state(engine);
        let failed = pass();
        if failed > 0 {
            return Err(format!("{failed} requests failed during warm-up"));
        }
        quiet = if adaptation_state(engine) == before {
            quiet + 1
        } else {
            0
        };
        if quiet == 2 {
            return Ok(());
        }
    }
    Err(format!(
        "adaptation still moving after {MAX_PASSES} warm-up passes"
    ))
}

pub struct Embedded {
    pub engine: Arc<H2oEngine>,
    /// The parallelism policy the engine executes under (the traced run
    /// replays operators under the same one).
    pub policy: ExecPolicy,
    pub kinds: &'static [&'static str],
    pub stream: Vec<Op>,
}

impl Embedded {
    pub fn new(
        relation: Relation,
        threads: usize,
        kinds: &'static [&'static str],
        stream: Vec<Op>,
    ) -> Embedded {
        let config = engine_config(threads);
        Embedded {
            engine: Arc::new(H2oEngine::new(relation, config)),
            policy: config.exec_policy(),
            kinds,
            stream,
        }
    }

    pub fn run_op(&self, op: &Op) -> Result<Outcome, h2o_core::EngineError> {
        let req = match &op.shape {
            Shape::Query(q) => Request::query(q),
            Shape::Join(q) => Request::join(q),
        };
        self.engine.run(match op.hint {
            Some(h) => req.hint(h),
            None => req,
        })
    }

    /// Whether the engine's answer equals the interpreter's on the snapshot
    /// the engine answered from.
    pub fn matches_oracle(op: &Op, out: &Outcome) -> bool {
        let want = match &op.shape {
            Shape::Query(q) => interpret(out.snapshot.primary(), q).ok(),
            Shape::Join(q) => {
                let left = out.snapshot.relation(q.left().name());
                let right = out.snapshot.relation(q.right().name());
                match (left, right) {
                    (Ok(l), Ok(r)) => interpret_join(l, r, q).ok(),
                    _ => None,
                }
            }
        };
        want.is_some_and(|w| w.fingerprint() == out.result.fingerprint())
    }

    /// The correctness gate: the first request of every kind is checked
    /// against the interpreter on the same snapshot.
    pub fn verify(&self) -> Result<(), String> {
        for (k, name) in self.kinds.iter().enumerate() {
            let op = self
                .stream
                .iter()
                .find(|op| op.kind == k)
                .ok_or_else(|| format!("kind {name} never appears in the stream"))?;
            let out = self.run_op(op).map_err(|e| format!("{name}: {e}"))?;
            if !Self::matches_oracle(op, &out) {
                return Err(format!("{name}: engine and interpreter disagree"));
            }
        }
        Ok(())
    }

    /// One pass over the stream: per-request latency into `lat_ms`,
    /// returns the pass's fingerprint chain and its failed requests.
    pub fn pass(&self, lat_ms: &mut Vec<f64>) -> (u64, u64) {
        let (mut fp, mut failed) = (0u64, 0u64);
        for op in &self.stream {
            let t0 = Instant::now();
            let out = self.run_op(op);
            lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match out {
                Ok(out) => fp = fold_result(fold_word(fp, op.kind as u64), &out.result),
                Err(_) => failed += 1,
            }
        }
        (fp, failed)
    }

    pub fn warm_up(&self) -> Result<(), String> {
        warm_up(&self.engine, || self.pass(&mut Vec::new()).1)
    }

    /// See [`Window::measure`].
    pub fn window(&self, dur: Duration, stable: bool) -> Window {
        Window::measure(dur, self.stream.len(), stable, |lat| self.pass(lat))
    }
}

/// (bytes every relation's layouts occupy, bytes of the bare data).
pub fn stored_and_bare_bytes(engine: &H2oEngine) -> (usize, usize) {
    let db = engine.db_snapshot();
    let (mut stored, mut bare) = (0, 0);
    for name in db.relation_names() {
        let rel = db.relation(&name).expect("listed relation resolves");
        stored += rel.total_bytes();
        bare += rel.rows() * rel.schema().len() * VALUE_BYTES;
    }
    (stored, bare)
}

/// What adaptation costs in space: stored bytes ÷ bare bytes.
pub fn space_amp(engine: &H2oEngine) -> f64 {
    let (stored, bare) = stored_and_bare_bytes(engine);
    stored as f64 / bare as f64
}

pub const BATCH_ROWS: usize = 32;

/// One insert batch of uniformly random tuples for a `width`-wide relation.
pub fn insert_batch(rng: &mut Rng, width: usize) -> Vec<Vec<Value>> {
    let span = (VALUE_MAX - VALUE_MIN) as u64;
    (0..BATCH_ROWS)
        .map(|_| {
            (0..width)
                .map(|_| VALUE_MIN + (rng.next_u64() % span) as Value)
                .collect()
        })
        .collect()
}

/// Closed-loop insert probe run after the measured window on workloads
/// without a writer: what one 32-row batch costs in the layout state the
/// workload left behind. Returns per-batch latencies and failures.
pub fn insert_probe(engine: &H2oEngine, seed: u64) -> (Vec<f64>, u64) {
    const PROBE_BATCHES: usize = 1000;
    // Where a batch costs milliseconds (`adapt_shift`: every layout's whole
    // tail is cloned), the probe stops after a quarter second — 20 batches
    // per repetition still pool to a median — so the run keeps its time.
    const MIN_BATCHES: usize = 20;
    const BUDGET: Duration = Duration::from_millis(250);
    let width = engine.snapshot().schema().len();
    let mut rng = Rng::new(seed);
    let mut lat_ms = Vec::with_capacity(PROBE_BATCHES);
    let mut failed = 0;
    let start = Instant::now();
    while lat_ms.len() < PROBE_BATCHES && (lat_ms.len() < MIN_BATCHES || start.elapsed() < BUDGET) {
        let batch = insert_batch(&mut rng, width);
        let t0 = Instant::now();
        let out = engine.insert(&batch);
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(out.is_err());
    }
    (lat_ms, failed)
}
