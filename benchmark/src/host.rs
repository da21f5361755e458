//! What ran the benchmark: the host stamp printed with every result,
//! and the process memory readings.

use std::process::Command;

use procrustes_core::EngineOpts;
use procrustes_tensor::kernel;

fn first_line_of(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The machine's available parallelism, which the engine, the kernel
/// pool and the daemon's shard count all default to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The stamp as one JSON object: CPU, cores, compiler, effective flags,
/// commit, and the thread counts the defaults resolve to on this host.
pub fn stamp() -> String {
    let cpu = first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    // A checkout made for a benchmark run is not a git repository.
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"cpu\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"rustflags\":\"{}\",\"commit\":\"{}\",\
         \"engine_threads\":{},\"kernel_threads\":{},\"serve_shards\":{}}}",
        esc(&cpu),
        nproc(),
        esc(env!("BENCH_RUSTC")),
        esc(env!("BENCH_RUSTFLAGS")),
        esc(&commit),
        EngineOpts::default().threads,
        kernel::default_threads(),
        nproc(),
    )
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB; `None` once the
/// process is gone.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let value = first_line_of(&format!("/proc/{pid}/status"), "VmHWM")?;
    let kb: f64 = value.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}
