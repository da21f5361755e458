//! The `procrustes-serve` daemon binary.
//!
//! ```text
//! procrustes-serve [--addr HOST:PORT] [--shards N] [--cache-dir DIR]
//!                  [--cache-budget BYTES] [--max-sweep N] [--queue-cap N]
//! ```
//!
//! Binds (port 0 picks an ephemeral port, printed on the first line),
//! then serves the line-delimited JSON protocol documented in
//! `procrustes_serve` until a `shutdown` request; see
//! `docs/OPERATIONS.md` for the operator runbook.

use std::process::ExitCode;

use procrustes_serve::{ServeConfig, Server};

const USAGE: &str = "\
USAGE: procrustes-serve [OPTIONS]

OPTIONS:
  --addr HOST:PORT      bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --shards N            worker threads of the evaluation engine
                        (default: available parallelism)
  --cache-dir DIR       persistent result cache directory (default: none)
  --cache-budget BYTES  LRU byte budget for --cache-dir; accepts K/M/G
                        suffixes, e.g. 512M (default: unbounded)
  --max-sweep N         largest admitted sweep cardinality (default 4096)
  --queue-cap N         bound on the jobs in flight over all connections;
                        a request that would pass it is shed whole with a
                        structured reply (default 4096)
  --help                print this help
";

/// Parses a byte count with an optional K/M/G (KiB/MiB/GiB) suffix.
fn parse_bytes(v: &str) -> Result<u64, String> {
    let v = v.trim();
    let (digits, shift) = match v.as_bytes().last() {
        Some(b'K' | b'k') => (&v[..v.len() - 1], 10),
        Some(b'M' | b'm') => (&v[..v.len() - 1], 20),
        Some(b'G' | b'g') => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|e| format!("expected BYTES with optional K/M/G suffix: {e}"))?;
    n.checked_shl(shift)
        .filter(|_| n.leading_zeros() >= shift)
        .ok_or_else(|| format!("{v} overflows a byte count"))
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        let parsed = match arg.as_str() {
            "--addr" => value("--addr").map(|v| addr = v),
            "--shards" => value("--shards").and_then(|v| {
                v.parse()
                    .map(|n: usize| config.shards = n.max(1))
                    .map_err(|e| format!("--shards: {e}"))
            }),
            "--cache-dir" => value("--cache-dir").map(|v| config.cache_dir = Some(v.into())),
            "--cache-budget" => value("--cache-budget").and_then(|v| {
                parse_bytes(&v)
                    .map(|n| config.cache_budget = Some(n))
                    .map_err(|e| format!("--cache-budget: {e}"))
            }),
            "--max-sweep" => value("--max-sweep").and_then(|v| {
                v.parse()
                    .map(|n| config.max_sweep = n)
                    .map_err(|e| format!("--max-sweep: {e}"))
            }),
            "--queue-cap" => value("--queue-cap").and_then(|v| {
                v.parse()
                    .map(|n: usize| config.queue_cap = n.max(1))
                    .map_err(|e| format!("--queue-cap: {e}"))
            }),
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown option '{other}'\n\n{USAGE}")),
        };
        if let Err(e) = parsed {
            eprintln!("procrustes-serve: {e}");
            return ExitCode::FAILURE;
        }
    }
    let server = match Server::bind(&addr, config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("procrustes-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "procrustes-serve listening on {} (shards={}, cache={}, max-sweep={}, queue-cap={})",
        server.local_addr(),
        config.shards,
        config
            .cache_dir
            .as_deref()
            .map_or("none".into(), |d| d.display().to_string()),
        config.max_sweep,
        config.queue_cap,
    );
    if let Err(e) = server.run() {
        eprintln!("procrustes-serve: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
