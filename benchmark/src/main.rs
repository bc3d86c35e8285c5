//! `bench_suite` — the repo's one benchmark. See `README.md`.
//!
//! ```text
//! bench_suite --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! bench_suite all [--seed S] [--seconds N] [--repeat K] [--trace] [--quick] [--out FILE]
//! bench_suite compare A.json B.json
//! ```

mod embedded;
mod env;
mod gen;
mod report;
mod span;
mod spec;
mod stats;
mod trace;
mod workloads;

use report::RunSummary;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Rep, Tracer};

/// Fresh set-ups per run. Every end-to-end metric is the median over them,
/// so one disturbed repetition cannot move a run.
const REPS: usize = 3;
/// `adapt_shift` repeats its fixed-length sequence until the requested
/// seconds are measured, but never more often than this.
const MAX_REPS: usize = 20;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub repeat: usize,
    pub out: Option<String>,
    pub positional: Vec<String>,
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
        positional: Vec::new(),
    };
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let number = |v: Option<&String>| {
            v.and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{a} needs a whole number"))
        };
        let text = |v: Option<&String>| v.cloned().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(text(it.next())?),
            "--seed" => args.seed = number(it.next())?,
            "--seconds" => args.seconds = number(it.next())?.max(1),
            "--repeat" => args.repeat = number(it.next())?.max(1) as usize,
            "--out" => args.out = Some(text(it.next())?),
            "--quick" => args.quick = true,
            // The driver passes `--trace 0|1`; `all --trace` takes no value.
            "--trace" => {
                args.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a.clone()),
        }
    }
    Ok(args)
}

/// Runs one workload in this process: `REPS` fresh repetitions, medians.
fn run_workload(name: &str, args: &Args) -> Result<RunSummary, String> {
    spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    // A quick run measures a tenth as long; it is marked and `compare`
    // refuses it.
    let seconds = if args.quick {
        args.seconds as f64 / 10.0
    } else {
        args.seconds as f64
    };
    let mut tracer = args.trace.then(Tracer::new);
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    // A traced run is one repetition: half the window untraced, half traced.
    let (min_reps, share) = if args.trace {
        (1, 1.0)
    } else {
        (REPS, REPS as f64)
    };
    while reps.len() < min_reps || (measured < seconds && reps.len() < MAX_REPS && !args.trace) {
        let dur = Duration::from_secs_f64(seconds / share);
        let rep = workloads::run_rep(name, args.seed, reps.len(), dur, tracer.as_mut())?;
        measured += rep.window.wall_s;
        reps.push(rep);
    }
    let layers = match &tracer {
        Some(t) => {
            let rep = &reps[0];
            let traced = rep.traced.as_ref().expect("a traced run traces");
            if let Err(e) = report::write_trace_file(name, args.seed, t) {
                eprintln!("bench_suite: trace file not written: {e}");
            }
            Some(t.layer_metrics(&rep.window, traced))
        }
        None => None,
    };
    let replay_mismatches = tracer
        .as_ref()
        .and_then(|t| t.counts.get("replay.mismatches").copied())
        .unwrap_or(0.0) as u64;
    Ok(RunSummary::new(
        name,
        args.seed,
        args.quick,
        &reps,
        layers,
        replay_mismatches,
    ))
}

fn contract_mode(name: &str, args: &Args) -> ExitCode {
    match run_workload(name, args) {
        Ok(summary) => {
            println!("{}", summary.detail_json());
            println!("{}", summary.contract_json());
            if summary.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "bench_suite: {} of {} operations failed",
                    summary.failed, summary.attempted
                );
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("bench_suite: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("bench_suite: refusing to measure a debug build; build with --release");
        return ExitCode::FAILURE;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = args.workload.clone() {
        return contract_mode(&name, &args);
    }
    let result = match args.positional.first().map(String::as_str) {
        Some("all") => report::run_all(&args),
        Some("compare") => match &args.positional[1..] {
            [a, b] => report::compare_files(a, b),
            _ => Err("usage: bench_suite compare A.json B.json".into()),
        },
        _ => Err("usage: bench_suite --workload NAME | all | compare A.json B.json".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("bench_suite: {e}");
            ExitCode::FAILURE
        }
    }
}
