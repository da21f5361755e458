//! The benchmark of the whole stack: six workloads, four end-to-end
//! metrics each, and a traced run that splits the time by crate.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE]
//! benchmark --compare A.jsonl B.jsonl
//! benchmark --list
//! ```
//!
//! One invocation runs one workload and prints, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. `benchmark/run.sh` builds what is needed and calls this.
//! See `benchmark/README.md` for what each workload and metric is for.

mod compare;
mod host;
mod metrics;
mod serve;
mod stats;
mod sweep;
mod trace;
mod train;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use trace::Tracer;

/// What one invocation was asked to do.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `procrustes-serve` binary.
    pub daemon: PathBuf,
    /// Where the span file and the daemons' cache directories go.
    pub out_dir: PathBuf,
}

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// What one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Work items asked for in the timed region, and how many of them
    /// failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub setups_s: Vec<f64>,
    /// Work items per busy second ([`stats::windowed_rate`]), summed
    /// over connections; the checker's work between calls is not busy
    /// time.
    pub throughput_per_s: f64,
    /// One sample per closed-loop call.
    pub latencies_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Values that must repeat exactly for equal seeds.
    pub checks: Vec<(String, String)>,
    /// Per-layer metrics, filled on a traced run.
    pub layers: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

const USAGE: &str = "\
USAGE: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                 [--out FILE]
       benchmark --compare A.jsonl B.jsonl
       benchmark --list

  --workload NAME  one of the names `--list` prints
  --seed N         drives the timed batches, mask seeds and request order (default 1)
  --seconds S      how long the timed region runs (default 8)
  --trace 0|1      0: end-to-end metrics; 1: spans on, per-layer metrics (default 0)
  --out FILE       append the full record of the run (host, checks, metrics) as one JSON line

The daemon workloads start the procrustes-serve binary beside this program;
span files and the daemons' cache directories go to benchmark-out beside it.
";

struct Args {
    workload: String,
    cfg: RunConfig,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let beside = |name: &str| {
        std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|dir| dir.join(name)))
            .unwrap_or_else(|| PathBuf::from(name))
    };
    let mut workload = None;
    let mut out = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        daemon: beside("procrustes-serve"),
        out_dir: beside("benchmark-out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args { workload, cfg, out })
}

fn run_workload(name: &str, cfg: &RunConfig, tracer: &mut Tracer) -> std::io::Result<Outcome> {
    match name {
        "train_dense" => Ok(train::train_dense(cfg, tracer)),
        "train_sparse" => Ok(train::train_sparse(cfg, tracer)),
        "sweep_cold" => Ok(sweep::sweep_cold(cfg, tracer)),
        "sweep_warm" => Ok(sweep::sweep_warm(cfg, tracer)),
        "serve_warm" => serve::serve_warm(cfg, tracer),
        "serve_cold" => serve::serve_cold(cfg, tracer),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

/// The metrics of the run in contract order: every end-to-end metric
/// untraced, every per-layer metric traced.
fn reported(
    out: &Outcome,
    cfg: &RunConfig,
    spans: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let throughput = out.throughput_per_s;
    if !cfg.trace {
        let values = [
            stats::median(&out.setups_s),
            throughput,
            stats::median(&out.latencies_ms),
            out.peak_rss_mb,
        ];
        return END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.throughput_per_s" => throughput,
                "trace.spans" => spans as f64,
                // A layer the workload does not enter did no work.
                _ => out.layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1),
            };
            (name, value, unit)
        })
        .collect()
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn run(args: &Args) -> std::io::Result<()> {
    let cfg = &args.cfg;
    std::fs::create_dir_all(&cfg.out_dir)?;
    let host = host::stamp();
    println!("host = {host}");
    println!(
        "workload = {}  seed = {}  seconds = {}  trace = {}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );

    let mut tracer = Tracer::new(cfg.trace);
    let out = run_workload(&args.workload, cfg, &mut tracer)?;
    for (name, _) in &out.layers {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == *name),
            "{name} is not a per-layer metric of the contract"
        );
    }

    let metrics = reported(&out, cfg, tracer.spans.len());
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(std::io::Error::other(format!("{name} measured {value}")));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    for note in &out.notes {
        println!("note: {note}");
    }
    println!(
        "samples: {} set-ups, {} timed calls, {} work items",
        out.setups_s.len(),
        out.latencies_ms.len(),
        out.attempted
    );
    for (name, value) in &out.checks {
        println!("{name} = {value}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    if cfg.trace {
        let path = cfg
            .out_dir
            .join(format!("{}-seed{}.trace.json", args.workload, cfg.seed));
        std::fs::write(&path, tracer.to_json(&args.workload, cfg.seed))?;
        println!("spans written to {}", path.display());
    }

    let result = format!(
        "\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}",
        out.attempted,
        out.failed,
        metrics_json(&metrics)
    );
    if let Some(path) = &args.out {
        let checks: Vec<String> = out
            .checks
            .iter()
            .map(|(name, value)| format!("\"{name}\":\"{value}\""))
            .collect();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(
            file,
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{host},\
             \"checks\":{{{}}},{result}}}",
            args.workload,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            checks.join(",")
        )?;
    }
    println!("{{{result}}}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list") => {
            for name in WORKLOADS {
                println!("{name}");
            }
            return ExitCode::SUCCESS;
        }
        Some("--compare") => {
            return match argv.as_slice() {
                [_, a, b] => compare::run(a.as_ref(), b.as_ref()),
                _ => {
                    eprint!("{USAGE}");
                    ExitCode::from(2)
                }
            };
        }
        Some("--help" | "-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Timings of an unoptimized build describe nothing anyone runs.
    if cfg!(debug_assertions) {
        eprintln!(
            "benchmark: refusing to time a build with debug assertions; build with --release"
        );
        return ExitCode::from(2);
    }
    match run(&args) {
        // A run whose checks failed still reports; the counts say so.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
