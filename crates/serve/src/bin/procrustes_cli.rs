//! `procrustes-cli` — the client for a running `procrustes-serve`
//! daemon.
//!
//! ```text
//! procrustes-cli [--addr HOST:PORT] eval   <scenario.json | ->
//! procrustes-cli [--addr HOST:PORT] sweep  <sweep.json | -> [--csv FILE]
//! procrustes-cli [--addr HOST:PORT] status
//! procrustes-cli [--addr HOST:PORT] metrics
//! procrustes-cli [--addr HOST:PORT] shutdown
//! ```
//!
//! `eval` and `sweep` print one served `EvalResult` JSON document per
//! line on stdout as results stream in (byte-identical to what
//! `EvalResult::to_json` produces in-process); `sweep --csv` also
//! writes the standard results CSV. Progress and the cache-source
//! summary go to stderr so stdout stays machine-readable.

use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;

use procrustes_core::{Scenario, Sweep};
use procrustes_serve::{results_csv_from_docs, Client, ClientError, Served, Source};

const USAGE: &str = "\
USAGE: procrustes-cli [--addr HOST:PORT] <COMMAND>

COMMANDS:
  eval <FILE|->           evaluate one Scenario JSON document
  sweep <FILE|-> [--csv FILE]
                          expand + evaluate a Sweep JSON document,
                          streaming result documents to stdout
  status                  print daemon counters
  metrics                 print per-verb serving metrics
  shutdown                drain and stop the daemon

OPTIONS:
  --addr HOST:PORT        daemon address (default 127.0.0.1:7878)
  --help                  print this help
";

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn source_summary(served: &[Served]) -> String {
    let count = |s: Source| served.iter().filter(|r| r.source == s).count();
    format!(
        "{} results (computed {}, memo {}, disk {})",
        served.len(),
        count(Source::Computed),
        count(Source::Memo),
        count(Source::Disk)
    )
}

/// How long to back off before the single shed retry: the daemon's
/// hint, bounded so a hostile or confused hint cannot hang the CLI.
const MAX_SHED_BACKOFF_MS: u64 = 2000;

/// Runs `attempt` and, if the daemon sheds it, honors the `shed` reply's
/// `retry_after_ms` hint with exactly one retry. A request refused for
/// overload was not evaluated at all, so the retry is always safe; one
/// bounded attempt keeps the CLI deterministic (no open-ended retry
/// loop) while absorbing a transient queue spike. A request too large
/// for the cap is shed again and fails.
fn with_shed_retry<T>(
    mut attempt: impl FnMut(&mut Client) -> Result<T, ClientError>,
    client: &mut Client,
) -> Result<T, String> {
    match attempt(client) {
        Ok(value) => Ok(value),
        Err(ClientError::Shed {
            reason,
            retry_after_ms,
            ..
        }) => {
            let wait = retry_after_ms.min(MAX_SHED_BACKOFF_MS);
            eprintln!("shed by daemon ({reason}); retrying once in {wait} ms");
            std::thread::sleep(Duration::from_millis(wait));
            attempt(client).map_err(|e| e.to_string())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn run() -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut command: Option<String> = None;
    let mut input: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().ok_or("--addr needs a value")?,
            "--csv" => csv = Some(args.next().ok_or("--csv needs a value")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            other if command.is_none() => command = Some(other.to_string()),
            other if input.is_none() => input = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'\n\n{USAGE}")),
        }
    }
    let command = command.ok_or(format!("no command given\n\n{USAGE}"))?;
    // Reject arguments the chosen command would silently ignore — a
    // mistyped `status shutdown` must not leave the daemon running.
    if matches!(command.as_str(), "status" | "metrics" | "shutdown") {
        if let Some(stray) = &input {
            return Err(format!(
                "'{command}' takes no argument (got '{stray}')\n\n{USAGE}"
            ));
        }
    }
    if csv.is_some() && command != "sweep" {
        return Err(format!("--csv only applies to 'sweep'\n\n{USAGE}"));
    }
    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match command.as_str() {
        "eval" => {
            let path = input.ok_or("eval needs a scenario file (or '-')")?;
            let scenario = Scenario::from_json(&read_input(&path)?).map_err(|e| e.to_string())?;
            let served = with_shed_retry(|c| c.eval(&scenario), &mut client)?;
            println!("{}", served.doc);
            eprintln!("served from: {}", served.source.label());
        }
        "sweep" => {
            let path = input.ok_or("sweep needs a sweep file (or '-')")?;
            let sweep = Sweep::from_json(&read_input(&path)?).map_err(|e| e.to_string())?;
            let mut served = Vec::new();
            // A shed sweep streamed nothing (refusal is all-or-nothing,
            // before dispatch), so the retry never duplicates a line.
            with_shed_retry(
                |c| {
                    c.sweep_each(&sweep, |result| {
                        println!("{}", result.doc);
                        served.push(result);
                    })
                },
                &mut client,
            )?;
            eprintln!("{}", source_summary(&served));
            if let Some(csv_path) = csv {
                let docs: Vec<&str> = served.iter().map(|r| r.doc.as_str()).collect();
                let csv_text = results_csv_from_docs(&docs)?;
                std::fs::write(&csv_path, csv_text)
                    .map_err(|e| format!("writing {csv_path}: {e}"))?;
                eprintln!("wrote {csv_path}");
            }
        }
        "metrics" => {
            let m = client.metrics().map_err(|e| e.to_string())?;
            println!(
                "requests={} parse_errors={} served={} computed={} memo_hits={} \
                 disk_hits={} hit_rate={:.3} queue_depth={} shed={} \
                 verify_misses={}",
                m.requests,
                m.parse_errors,
                m.served,
                m.computed,
                m.memo_hits,
                m.disk_hits,
                m.hit_rate,
                m.queue_depth,
                m.shed,
                m.verify_misses,
            );
            for (verb, v) in &m.verbs {
                let fmt = |q: Option<f64>| q.map_or("n/a".into(), |q| format!("{q:.3}ms"));
                println!(
                    "  {verb}: requests={} p50={} p95={}",
                    v.requests,
                    fmt(v.p50_ms),
                    fmt(v.p95_ms),
                );
            }
        }
        "status" => {
            let s = client.status().map_err(|e| e.to_string())?;
            println!(
                "shards={} persistent={} requests={} served={} computed={} \
                 memo_hits={} disk_hits={} memo_entries={} disk_entries={}",
                s.shards,
                s.persistent,
                s.requests,
                s.served,
                s.computed,
                s.memo_hits,
                s.disk_hits,
                s.memo_entries,
                s.disk_entries.map_or("n/a".into(), |n| n.to_string()),
            );
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            eprintln!("daemon stopped");
        }
        other => return Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("procrustes-cli: {e}");
            ExitCode::FAILURE
        }
    }
}
