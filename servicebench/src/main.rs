//! `servicebench` — the service benchmark of the idldp workspace.
//!
//! A load generator kept apart from the system under test: it starts
//! collectors with the release `idldp serve` binary (and a fleet front
//! with `idldp coordinate`), drives them only through
//! `idldp_server::ReportClient` with fresh reports from
//! `Mechanism::perturb_data`, and checks every final estimate and top-k
//! bit for bit against a local fold of exactly the acknowledged reports.
//!
//! ```text
//! servicebench --idldp PATH --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the
//! workload twice for half the time each, untraced and then traced, replays each layer's public
//! functions in-process on fresh reports of the workload's shapes, and
//! reports the per-layer metrics, the tracing overhead, and the per-shape
//! baseline table at m = 1000. `--smoke` shrinks every size and rate so a
//! broken harness fails in seconds. The last line of standard output is
//! always the JSON result; the exit code is 0 only when every correctness
//! check passed.

mod layers;
mod load;
mod measure;
mod procs;
mod traffic;
mod workloads;

use idldp_num::rng::derive_seed;
use measure::{Metrics, Tracer};
use std::path::PathBuf;
use std::time::Duration;
use workloads::Ctx;

/// Hard limit on one invocation: a stuck run is stopped well inside the
/// three minutes a benchmark run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Scratch directory, relative to the repository root the benchmark runs
/// from: each run works in its own subdirectory and removes it at the
/// end; traced runs leave their spans here.
const WORK_DIR: &str = ".bench_work";

struct Args {
    idldp: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut idldp = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--idldp" => idldp = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        idldp: idldp.ok_or("--idldp PATH is required")?,
        workload: workload.ok_or("--workload NAME is required")?,
        seed: seed.ok_or("--seed N is required")?,
        seconds: seconds.ok_or("--seconds S is required")?,
        trace,
        smoke,
    })
}

/// One workload's result.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

fn print_metrics(workload: &str, metrics: &Metrics) {
    for (name, value, unit) in &metrics.0 {
        println!(
            "metric {workload} {name} {} {unit}",
            measure::json_number(*value)
        );
    }
}

/// Runs one workload and prints its notes.
fn run_noted(name: &str, ctx: &Ctx) -> Result<workloads::Run, String> {
    let run = workloads::run(name, ctx)?;
    for note in workloads::notes(&run) {
        println!("note {name} {note}");
    }
    Ok(run)
}

/// `--trace 0`: the end-to-end metrics of one full-length run.
/// `--trace 1`: an untraced and a traced run of half the length each; the
/// per-layer metrics come from the traced half, the tracing overhead from
/// comparing the two halves.
fn measure(name: &str, args: &Args, ctx: &Ctx) -> Result<(workloads::Run, Metrics), String> {
    if !args.trace {
        let run = run_noted(name, ctx)?;
        let metrics = workloads::end_to_end(&run)?;
        return Ok((run, metrics));
    }
    let mut half = ctx.clone();
    half.seconds /= 2.0;
    let plain = run_noted(name, &half)?;
    let tracer = Tracer::new(true);
    // The traced half draws other users, so no report is sent twice.
    let traced_ctx = Ctx {
        tracer: &tracer,
        seed: derive_seed(ctx.seed, u64::from(u32::MAX)),
        ..half
    };
    let traced = run_noted(name, &traced_ctx)?;
    let metrics = layers::per_layer(&traced_ctx, &traced, &plain)?;
    let spans = PathBuf::from(WORK_DIR).join(format!("trace-{name}-seed{}.jsonl", args.seed));
    tracer.write_jsonl(&spans)?;
    println!("note {name} spans written to {}", spans.display());
    Ok((traced, metrics))
}

fn run_workload(name: &str, args: &Args, work: &std::path::Path) -> Outcome {
    let tracer_off = Tracer::new(false);
    let ctx = Ctx {
        idldp: &args.idldp,
        work: work.join(name),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        tracer: &tracer_off,
        setups: 0,
    };
    match measure(name, args, &ctx) {
        Ok((run, metrics)) => {
            print_metrics(name, &metrics);
            Outcome {
                metrics,
                attempted: run.all.attempted + run.checks,
                failed: run.all.failed,
                error: None,
            }
        }
        Err(e) => Outcome {
            metrics: Metrics::default(),
            attempted: 1,
            failed: 1,
            error: Some(e),
        },
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servicebench: {e}");
            std::process::exit(2);
        }
    };
    if !args.idldp.is_file() {
        eprintln!("servicebench: no idldp binary at {}", args.idldp.display());
        std::process::exit(2);
    }
    let _children = procs::ChildGuard;
    procs::start_watchdog(WATCHDOG);
    let work = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    let names: Vec<&str> = if args.workload == "all" {
        workloads::ALL.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    println!(
        "servicebench: workload {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" }
    );
    let mut outcomes = Vec::new();
    for name in &names {
        let outcome = run_workload(name, &args, &work);
        if let Some(e) = &outcome.error {
            eprintln!("servicebench: {name}: {e}");
        }
        outcomes.push((*name, outcome));
    }
    procs::kill_all();
    let _ = std::fs::remove_dir_all(&work);
    let correct = outcomes
        .iter()
        .all(|(_, o)| o.error.is_none() && o.failed == 0);
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    let metrics: Vec<String> = outcomes
        .iter()
        .filter(|(_, o)| !o.metrics.0.is_empty())
        .map(|(name, o)| {
            let prefix = if names.len() > 1 {
                format!("{name}/")
            } else {
                String::new()
            };
            o.metrics.to_json(&prefix)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
