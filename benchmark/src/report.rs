//! What the suite prints and how two of its documents are compared. All
//! of it goes through `h2o_expr::wire::Json` — the repo's one JSON
//! implementation.

use crate::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, percentile, sorted, spread, supports};
use crate::trace::Tracer;
use crate::workloads::Rep;
use crate::{env, Args, REPS};
use h2o_expr::Json;
use std::process::Command;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_obj(metrics: &[(&'static str, f64)], unit_of: impl Fn(&str) -> &'static str) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit_of(name).into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// One run of one workload (one process): medians over its repetitions.
pub struct RunSummary {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Smallest per-repetition sample counts behind p50/p95 and
    /// `insert_p50_ms`.
    pub latency_samples: usize,
    pub insert_samples: usize,
    /// Every end-to-end metric, in `spec::END_TO_END` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Every per-layer metric, when the run traced.
    pub layers: Option<Vec<(&'static str, f64)>>,
    /// Fingerprint chain over the first passes of the first `REPS`
    /// repetitions; comparable between commits when `fingerprint_stable`.
    pub fingerprint: u64,
    pub fingerprint_stable: bool,
    /// Counters that repeat exactly for a seed (empty where two threads
    /// race): compared for identity, never for speed.
    pub exact: Vec<(&'static str, f64)>,
}

impl RunSummary {
    pub fn new(
        workload: &str,
        seed: u64,
        quick: bool,
        reps: &[Rep],
        layers: Option<Vec<(&'static str, f64)>>,
        replay_mismatches: u64,
    ) -> RunSummary {
        // Every metric is computed per repetition and the median repetition
        // is reported, so a stretch in which the host was disturbed moves
        // one repetition, not the run. Within a repetition, throughput is
        // the median pass and latencies are nearest-rank percentiles.
        let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let pct = |samples: &[f64], p: f64| percentile(&sorted(samples.to_vec()), p);
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "ops_per_s" => per_rep(&|r| median(&r.window.pass_rates)),
                    "p50_ms" => per_rep(&|r| pct(&r.window.lat_ms, 50.0)),
                    "p95_ms" => per_rep(&|r| pct(&r.window.lat_ms, 95.0)),
                    "insert_p50_ms" => per_rep(&|r| pct(&r.insert_ms, 50.0)),
                    "space_amp" => per_rep(&|r| r.space_amp),
                    "setup_s" => per_rep(&|r| r.setup_s),
                    "peak_rss_mb" => env::peak_rss_mb().unwrap_or(f64::NAN),
                    other => unreachable!("end-to-end metric {other} has no definition"),
                };
                (m.name, value)
            })
            .collect();

        // Identity checks use the repetitions every run has.
        let fixed = &reps[..reps.len().min(REPS)];
        let single_client = matches!(workload, "scan_steady" | "join_steady" | "adapt_shift");
        let counter = |r: &Rep, name: &str| -> f64 {
            r.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let sum = |name: &str| -> f64 { fixed.iter().map(|r| counter(r, name)).sum() };
        // Whole passes repeat exactly, so a repetition's per-operation rate
        // does too, however many passes its window held; repetitions differ
        // (own sub-seeds), so each is normalised on its own.
        let per_op = |name: &str| -> f64 {
            fixed
                .iter()
                .map(|r| counter(r, name) / r.window.ops as f64)
                .sum()
        };
        let mut exact = Vec::new();
        if single_client {
            exact.push(("space_amp", fixed.iter().map(|r| r.space_amp).sum()));
            exact.push(("layouts_created", sum("layouts_created")));
            exact.push(("total_bytes", sum("total_bytes")));
            exact.push(("segments_skipped_per_op", per_op("segments_skipped")));
            exact.push(("bloom_rejects_per_op", per_op("bloom_rejects")));
        }
        if workload == "adapt_shift" {
            for name in ["adaptations", "shifts", "opcache_misses"] {
                exact.push((name, sum(name)));
            }
        }
        RunSummary {
            workload: workload.to_string(),
            seed,
            quick,
            reps: reps.len(),
            attempted: reps.iter().map(Rep::attempted).sum(),
            failed: reps.iter().map(Rep::failed).sum::<u64>() + replay_mismatches,
            latency_samples: reps
                .iter()
                .map(|r| r.window.lat_ms.len())
                .min()
                .unwrap_or(0),
            insert_samples: reps.iter().map(|r| r.insert_ms.len()).min().unwrap_or(0),
            metrics,
            layers,
            fingerprint: fixed
                .iter()
                .fold(0, |fp, r| crate::gen::fold_word(fp, r.window.fingerprint)),
            fingerprint_stable: workload != "scan_ingest",
            exact,
        }
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics` — end-to-end metrics untraced, per-layer ones traced.
    pub fn contract_json(&self) -> Json {
        let metrics = match &self.layers {
            Some(layers) => metric_obj(layers, |n| {
                PER_LAYER
                    .iter()
                    .find(|(name, _, _)| *name == n)
                    .map_or("", |(_, unit, _)| unit)
            }),
            None => metric_obj(&self.metrics, |n| {
                spec::end_to_end(n).map_or("", |m| m.unit)
            }),
        };
        obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", metrics),
        ])
    }

    /// What `all` needs beyond the contract line.
    pub fn detail_json(&self) -> Json {
        let p95_ok = supports(self.latency_samples, 95.0);
        obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Int(self.seed as i64)),
            ("quick", Json::Bool(self.quick)),
            ("repetitions", Json::Int(self.reps as i64)),
            ("latency_samples", Json::Int(self.latency_samples as i64)),
            ("insert_samples", Json::Int(self.insert_samples as i64)),
            ("p95_has_ten_samples_beyond", Json::Bool(p95_ok)),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("fingerprint_stable", Json::Bool(self.fingerprint_stable)),
            (
                "exact",
                Json::Obj(
                    self.exact
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                metric_obj(&self.metrics, |n| {
                    spec::end_to_end(n).map_or("", |m| m.unit)
                }),
            ),
        ])
    }
}

/// Writes `trace_<workload>.json` under the benchmark's `out/` directory.
pub fn write_trace_file(workload: &str, seed: u64, tracer: &Tracer) -> std::io::Result<()> {
    let dir = if std::path::Path::new("benchmark").is_dir() {
        "benchmark/out"
    } else {
        "out"
    };
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace_{workload}.json");
    std::fs::write(&path, tracer.to_json(workload, seed).to_string())?;
    eprintln!("bench_suite: wrote {path}");
    Ok(())
}

/// One child run's two output lines, parsed.
pub struct ChildRun {
    pub detail: Json,
    pub contract: Json,
}

/// Runs one workload in a fresh child process, so peak RSS and allocator
/// state never leak from one workload into the next.
fn spawn_run(workload: &str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let contract = lines.next().and_then(|l| Json::parse(l).ok());
    let detail = lines.next().and_then(|l| Json::parse(l).ok());
    match (detail, contract) {
        (Some(detail), Some(contract)) => Ok(ChildRun { detail, contract }),
        _ => Err(format!(
            "{workload} printed no result (exit {:?}): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn value_of(metrics: &Json, name: &str) -> f64 {
    metrics.get(name).get("value").num(name).unwrap_or(f64::NAN)
}

/// One workload's entry of the document, from its untraced runs and
/// (optionally) its traced run.
pub fn workload_entry(name: &str, runs: &[ChildRun], traced: Option<&ChildRun>) -> Json {
    let first = &runs[0];
    let int_sum = |key: &str| -> i64 {
        runs.iter()
            .map(|r| r.contract.get(key).int(key).unwrap_or(0))
            .sum()
    };
    let same = |key: &str| {
        runs.iter()
            .all(|r| r.detail.get(key) == first.detail.get(key))
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| value_of(r.contract.get("metrics"), m.name))
                .collect();
            (
                m.name.to_string(),
                obj(vec![
                    ("unit", Json::Str(m.unit.into())),
                    ("better", Json::Str(m.better.name().into())),
                    ("bound", Json::Num(m.bound)),
                    ("median", Json::Num(median(&values))),
                    ("spread", Json::Num(spread(&values))),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            )
        })
        .collect();
    let mut fields = vec![
        ("name", Json::Str(name.into())),
        ("runs", Json::Int(runs.len() as i64)),
        ("attempted", Json::Int(int_sum("attempted"))),
        ("failed", Json::Int(int_sum("failed"))),
        (
            "latency_samples",
            first.detail.get("latency_samples").clone(),
        ),
        ("insert_samples", first.detail.get("insert_samples").clone()),
        (
            "p95_has_ten_samples_beyond",
            first.detail.get("p95_has_ten_samples_beyond").clone(),
        ),
        ("fingerprint", first.detail.get("fingerprint").clone()),
        (
            "fingerprint_stable",
            first.detail.get("fingerprint_stable").clone(),
        ),
        ("fingerprint_repeats", Json::Bool(same("fingerprint"))),
        ("exact", first.detail.get("exact").clone()),
        ("exact_repeats", Json::Bool(same("exact"))),
        ("metrics", Json::Obj(metrics)),
    ];
    if let Some(t) = traced {
        fields.push(("layers", t.contract.get("metrics").clone()));
    }
    obj(fields)
}

pub fn document(args: &Args, workloads: Vec<Json>) -> Json {
    obj(vec![
        ("bench", Json::Str("bench_suite".into())),
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Int(args.seconds as i64)),
        ("repetitions_per_run", Json::Int(REPS as i64)),
        (
            "env",
            obj(vec![
                ("nproc", Json::Int(env::nproc() as i64)),
                ("rustc", Json::Str(env::rustc_version())),
                ("git_sha", Json::Str(env::git_sha())),
                (
                    "engine_config",
                    Json::Str(format!("{:?}", crate::embedded::engine_config(2))),
                ),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// `bench_suite all`: every workload, each run in its own child process;
/// prints every metric by name with its unit, writes the document.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let mut entries = Vec::new();
    let mut clean = true;
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for i in 0..args.repeat {
            eprintln!(
                "bench_suite: {} run {}/{} ({})",
                w.name,
                i + 1,
                args.repeat,
                w.why
            );
            runs.push(spawn_run(w.name, args, false)?);
        }
        let traced = if args.trace {
            eprintln!("bench_suite: {} traced run", w.name);
            Some(spawn_run(w.name, args, true)?)
        } else {
            None
        };
        let entry = workload_entry(w.name, &runs, traced.as_ref());
        print_entry(&entry);
        clean &= entry.get("failed") == &Json::Int(0)
            && traced.is_none_or(|t| t.contract.get("failed") == &Json::Int(0));
        entries.push(entry);
    }
    if args.trace {
        print_shares(&entries);
    }
    let doc = document(args, entries).to_string();
    match &args.out {
        Some(path) => std::fs::write(path, doc + "\n").map_err(|e| format!("{path}: {e}"))?,
        None => println!("{doc}"),
    }
    Ok(clean)
}

fn print_entry(entry: &Json) {
    let name = entry.get("name").str("name").unwrap_or("?");
    eprintln!(
        "{name}: attempted {} failed {} latency samples {} fingerprint {}",
        entry.get("attempted"),
        entry.get("failed"),
        entry.get("latency_samples"),
        entry.get("fingerprint"),
    );
    for m in &END_TO_END {
        let j = entry.get("metrics").get(m.name);
        eprintln!(
            "  {:<14} {:>14.4} {:<5} spread {:>6.2}%  (may worsen by {:.0}%)",
            m.name,
            j.get("median").num("median").unwrap_or(f64::NAN),
            m.unit,
            j.get("spread").num("spread").unwrap_or(f64::NAN) * 100.0,
            m.bound * 100.0,
        );
    }
    let layers = entry.get("layers");
    if !layers.is_null() {
        for (layer, unit, _) in &PER_LAYER {
            eprintln!("  {:<30} {:>16.4} {unit}", layer, value_of(layers, layer));
        }
    }
}

/// The traced-run summary: per workload, each layer's share of the
/// blocking path, the part no layer accounts for, and what tracing cost.
fn print_shares(entries: &[Json]) {
    const COLUMNS: [&str; 8] = [
        "share.wire",
        "share.server",
        "share.core",
        "share.exec",
        "share.adapt",
        "share.reorg",
        "share.unaccounted",
        "trace.overhead_ratio",
    ];
    eprint!("{:<12}", "traced run");
    for c in COLUMNS {
        eprint!(" {:>12}", c.rsplit('.').next().unwrap_or(c));
    }
    eprintln!();
    for entry in entries {
        eprint!("{:<12}", entry.get("name").str("name").unwrap_or("?"));
        for c in COLUMNS {
            eprint!(" {:>12.4}", value_of(entry.get("layers"), c));
        }
        eprintln!();
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The baseline's own run-to-run spread exceeds the bound, so the
    /// pair cannot be told apart: not "unchanged".
    Unresolved,
    /// A fingerprint, an exact counter or a failure count disagrees.
    Mismatch,
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub what: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// Applies every metric's bound per workload. `a` is the baseline.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for (doc, which) in [(a, "A"), (b, "B")] {
        if doc.get("bench") != &Json::Str("bench_suite".into()) {
            return Err(format!("{which} is not a bench_suite document"));
        }
        if doc.get("quick") != &Json::Bool(false) {
            return Err(format!(
                "{which} is a --quick run: smoke runs are not comparable"
            ));
        }
    }
    if a.get("seed") != b.get("seed") || a.get("seconds") != b.get("seconds") {
        return Err("A and B ran with different seeds or run lengths".into());
    }
    let find = |doc: &Json, name: &str| -> Option<Json> {
        doc.get("workloads")
            .arr("workloads")
            .ok()?
            .iter()
            .find(|w| w.get("name") == &Json::Str(name.into()))
            .cloned()
    };
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let (wa, wb) = match (find(a, w.name), find(b, w.name)) {
            (Some(wa), Some(wb)) => (wa, wb),
            _ => return Err(format!("workload {} is missing from A or B", w.name)),
        };
        let mut row = |what: &str, a: f64, b: f64, verdict: Verdict| {
            rows.push(Row {
                workload: w.name.to_string(),
                what: what.to_string(),
                a,
                b,
                verdict,
            })
        };
        for m in &END_TO_END {
            let (ja, jb) = (wa.get("metrics").get(m.name), wb.get("metrics").get(m.name));
            let va = ja.get("median").num(m.name).map_err(|e| e.to_string())?;
            let vb = jb.get("median").num(m.name).map_err(|e| e.to_string())?;
            let worse = match m.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let noise = ja.get("spread").num("spread").unwrap_or(0.0);
            let verdict = if noise > m.bound {
                Verdict::Unresolved
            } else if worse > m.bound || !worse.is_finite() {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            row(m.name, va, vb, verdict);
        }
        for (doc, which) in [(&wa, "failed (A)"), (&wb, "failed (B)")] {
            let failed = doc.get("failed").int("failed").unwrap_or(-1) as f64;
            let verdict = if failed == 0.0 {
                Verdict::Ok
            } else {
                Verdict::Mismatch
            };
            row(which, failed, failed, verdict);
        }
        if wa.get("fingerprint_stable") == &Json::Bool(true) {
            let same = wa.get("fingerprint") == wb.get("fingerprint");
            let verdict = if same { Verdict::Ok } else { Verdict::Mismatch };
            row("fingerprint", f64::NAN, f64::NAN, verdict);
        }
        if let Json::Obj(exact) = wa.get("exact") {
            for (name, va) in exact {
                let vb = wb.get("exact").get(name);
                let verdict = if va == vb {
                    Verdict::Ok
                } else {
                    Verdict::Mismatch
                };
                row(
                    &format!("exact.{name}"),
                    va.num(name).unwrap_or(f64::NAN),
                    vb.num(name).unwrap_or(f64::NAN),
                    verdict,
                );
            }
        }
    }
    Ok(rows)
}

/// `bench_suite compare A.json B.json`: one row per workload x metric with
/// both values, the ratio and its base. `Ok(false)` when anything
/// regressed or mismatched.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&load(a)?, &load(b)?)?;
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>8}  {:<16} verdict",
        "workload", "metric", "A", "B", "B/A", "base"
    );
    for r in &rows {
        println!(
            "{:<12} {:<26} {:>14.4} {:>14.4} {:>8.4}  {:<16} {:?}",
            r.workload,
            r.what,
            r.a,
            r.b,
            r.b / r.a,
            format!("A={:.4}", r.a),
            r.verdict
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let (bad, unresolved) = (
        count(Verdict::Regressed) + count(Verdict::Mismatch),
        count(Verdict::Unresolved),
    );
    println!(
        "{} rows: {} ok, {unresolved} unresolved, {bad} regressed or mismatched",
        rows.len(),
        count(Verdict::Ok)
    );
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic child run with every metric at `value`.
    fn child(value: f64, fingerprint: &str) -> ChildRun {
        let metrics: Vec<(&'static str, f64)> =
            END_TO_END.iter().map(|m| (m.name, value)).collect();
        let summary = RunSummary {
            workload: "w".into(),
            seed: 42,
            quick: false,
            reps: 3,
            attempted: 100,
            failed: 0,
            latency_samples: 400,
            insert_samples: 1000,
            metrics,
            layers: None,
            fingerprint: u64::from_str_radix(fingerprint, 16).unwrap(),
            fingerprint_stable: true,
            exact: vec![("layouts_created", 2.0)],
        };
        ChildRun {
            detail: Json::parse(&summary.detail_json().to_string()).unwrap(),
            contract: Json::parse(&summary.contract_json().to_string()).unwrap(),
        }
    }

    fn args() -> Args {
        crate::parse_args(&[]).unwrap()
    }

    fn doc(value: f64, fingerprint: &str) -> Json {
        let entries = WORKLOADS
            .iter()
            .map(|w| workload_entry(w.name, &[child(value, fingerprint)], None))
            .collect();
        Json::parse(&document(&args(), entries).to_string()).unwrap()
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let c = child(1.5, "ab").contract;
        let Json::Obj(fields) = &c else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(c.get("correct"), &Json::Bool(true));
        let m = c.get("metrics").get("p95_ms");
        assert_eq!(m.get("unit"), &Json::Str("ms".into()));
        assert_eq!(m.get("value"), &Json::Num(1.5));
    }

    /// The emitted document names exactly the workloads and end-to-end
    /// metrics of `BENCHMARK.json`.
    #[test]
    fn document_names_match_benchmark_json() {
        let bench = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |j: &Json, key: &str| -> Vec<String> {
            j.get(key)
                .arr(key)
                .unwrap()
                .iter()
                .map(|e| e.get("name").str("name").unwrap().to_string())
                .collect()
        };
        let d = doc(2.0, "ab");
        assert_eq!(names(&d, "workloads"), names(&bench, "workloads"));
        for w in d.get("workloads").arr("workloads").unwrap() {
            let Json::Obj(metrics) = w.get("metrics") else {
                panic!("no metrics")
            };
            let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(got, names(&bench, "end_to_end"));
        }
    }

    #[test]
    fn compare_passes_identical_and_fails_tampered_copies() {
        let a = doc(100.0, "ab");
        let verdicts = |b: &Json| -> Vec<(String, Verdict)> {
            compare(&a, b)
                .unwrap()
                .into_iter()
                .filter(|r| r.verdict != Verdict::Ok)
                .map(|r| (r.what, r.verdict))
                .collect()
        };
        assert!(verdicts(&a).is_empty());

        // Every metric 30% higher (beyond every bound): the
        // lower-is-better ones regress, the one higher-is-better metric
        // (ops_per_s) does not.
        let worse = verdicts(&doc(130.0, "ab"));
        assert_eq!(worse.len(), WORKLOADS.len() * (END_TO_END.len() - 1));
        assert!(worse
            .iter()
            .all(|(w, v)| w != "ops_per_s" && *v == Verdict::Regressed));
        let slower = verdicts(&doc(70.0, "ab"));
        assert!(slower.iter().all(|(w, _)| w == "ops_per_s"));
        assert_eq!(slower.len(), WORKLOADS.len());

        // A changed answer is a mismatch even when every time agrees.
        let other = verdicts(&doc(100.0, "cd"));
        assert_eq!(other.len(), WORKLOADS.len());
        assert!(other
            .iter()
            .all(|(w, v)| w == "fingerprint" && *v == Verdict::Mismatch));
    }

    #[test]
    fn compare_reports_unresolved_and_refuses_quick_runs() {
        // A baseline whose own runs disagree by more than the bound.
        let noisy: Vec<ChildRun> = [60.0, 100.0, 160.0].map(|v| child(v, "ab")).into();
        let entries = WORKLOADS
            .iter()
            .map(|w| workload_entry(w.name, &noisy, None))
            .collect();
        let a = Json::parse(&document(&args(), entries).to_string()).unwrap();
        let rows = compare(&a, &doc(100.0, "ab")).unwrap();
        assert!(rows
            .iter()
            .filter(|r| spec::end_to_end(&r.what).is_some())
            .all(|r| r.verdict == Verdict::Unresolved));

        let mut quick = args();
        quick.quick = true;
        let q = Json::parse(&document(&quick, Vec::new()).to_string()).unwrap();
        assert!(compare(&q, &q).unwrap_err().contains("--quick"));
    }
}
