//! The two daemon workloads, driven from outside: the real
//! `procrustes-serve` process over its wire protocol.
//!
//! `serve_warm` asks a pre-warmed daemon for results it already holds —
//! wire parse, fingerprint, shard hop, memo lookup, document write; the
//! engine computes nothing. `serve_cold` asks for scenarios the daemon
//! has never seen — compute plus a disk write — and then reads them all
//! back from disk through a restarted daemon. Both are closed loops:
//! each connection sends its next request when the reply has arrived.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use procrustes_core::json::Json;
use procrustes_core::{Engine, EvalResult, Scenario, SparsityGen, PAPER_NETWORKS};
use procrustes_prng::{SplitMix64, UniformRng, Xorshift64};
use procrustes_sim::{Fidelity, Mapping};

use crate::stats::{median, percentile, windowed_rate};
use crate::sweep::{digest, grid_sweep, replay_codec};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, SETUP_REPEATS};

/// Connections of `serve_warm`. With two, six threads (clients, the
/// daemon's connection handlers, its shards) share the recording host's
/// two cores and the median latency of a 0.1 ms request follows the
/// scheduler's placement: 110 to 170 us from run to run, against 131 to
/// 142 us with one.
const WARM_CONNECTIONS: u64 = 1;
/// Connections of `serve_cold`, one per default shard of the recording
/// host, so both shards compute.
const COLD_CONNECTIONS: u64 = 2;
/// Single-scenario requests per `serve_warm` round, before its sweep.
const EVALS_PER_ROUND: usize = 200;
/// Never-seen scenarios the cold daemon evaluates before timing starts,
/// so thread start-up and first-touch page faults are not timed.
const COLD_WARMUP: usize = 8;
/// Cold documents also checked against the in-process engine; checking
/// all of them would evaluate every scenario twice.
const COLD_SAMPLE: usize = 8;

// ---------------------------------------------------------------------------
// Process and connection plumbing
// ---------------------------------------------------------------------------

/// A scratch directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(cfg: &RunConfig, tag: &str) -> io::Result<Self> {
        let dir = cfg
            .out_dir
            .join(format!("tmp-{}-{tag}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running daemon. Dropping it kills the process, so a panicking
/// harness leaves none behind; [`Daemon::shut_down`] is the clean way.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
    shards: usize,
    startup_s: f64,
}

impl Daemon {
    /// Starts the daemon on an ephemeral port with `cache_dir`, and
    /// waits for the line that names the port.
    fn spawn(bin: &Path, cache_dir: &Path) -> io::Result<Daemon> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(cache_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let startup_s = started.elapsed().as_secs_f64();
        let parsed = (|| {
            let rest = line.split_once("listening on ")?.1;
            let addr = rest.split_whitespace().next()?.to_string();
            let shards = rest.split_once("shards=")?.1;
            let shards = shards.split(',').next()?.parse().ok()?;
            Some((addr, shards))
        })();
        let Some((addr, shards)) = parsed else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "unexpected first line from the daemon: {line:?}"
            )));
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
            shards,
            startup_s,
        })
    }

    fn connect(&self) -> io::Result<Conn> {
        Conn::open(&self.addr)
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::host::peak_rss_mb(self.child.id()).unwrap_or(0.0)
    }

    /// Asks the daemon to stop and waits until the process has ended.
    /// Every other connection must be closed first: the daemon drains
    /// them before it exits.
    fn shut_down(mut self) -> io::Result<()> {
        self.connect()?.request("{\"op\":\"shutdown\"}\n")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::other("the daemon did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            reader,
            writer,
            line: String::new(),
        })
    }

    fn send(&mut self, request_line: &str) -> io::Result<()> {
        self.writer.write_all(request_line.as_bytes())
    }

    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// Sends one newline-terminated request and reads one reply line.
    fn request(&mut self, request_line: &str) -> io::Result<&str> {
        self.send(request_line)?;
        self.read_line()
    }
}

/// A `result` line, sliced rather than parsed: the harness reads tens
/// of thousands of them and a full parse would cost about what the
/// daemon spends serving one. A wrong slice fails the byte comparison
/// every document goes through. Any other line (`error`, `shed`, …)
/// gives `None`.
fn result_line(line: &str) -> Option<(&str, &str)> {
    let rest = line.strip_prefix("{\"kind\":\"result\",")?;
    let source = rest.split_once("\"source\":\"")?.1.split('"').next()?;
    let doc = rest.split_once("\"result\":")?.1.strip_suffix('}')?;
    Some((source, doc))
}

/// Runs `client` once per connection, each on its own harness thread
/// with its own span recorder, and returns what they measured in
/// connection order. Connections are numbered from 1.
fn on_connections<T: Send>(
    tracer: &mut Tracer,
    connections: u64,
    client: impl Fn(u64, &mut Tracer) -> io::Result<T> + Sync,
) -> io::Result<Vec<T>> {
    let sides: Vec<(io::Result<T>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=connections)
            .map(|stream| {
                let mut side = tracer.fork(stream as u32);
                let client = &client;
                scope.spawn(move || (client(stream, &mut side), side))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    sides
        .into_iter()
        .map(|(log, side)| {
            tracer.merge(side);
            log
        })
        .collect()
}

fn eval_request(scenario: &Scenario) -> String {
    format!("{{\"op\":\"eval\",\"scenario\":{}}}\n", scenario.to_json())
}

/// The daemon's counters, read with the `metrics` verb.
struct Counters {
    requests: f64,
    computed: f64,
    memo_hits: f64,
    disk_hits: f64,
    hit_rate: f64,
    shed: f64,
    parse_errors: f64,
    cache_bytes: f64,
    eval_p50_ms: f64,
}

fn counters(daemon: &Daemon) -> io::Result<Counters> {
    let mut conn = daemon.connect()?;
    let doc = Json::parse(conn.request("{\"op\":\"metrics\"}\n")?).map_err(io::Error::other)?;
    let n = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok(Counters {
        requests: n("requests"),
        computed: n("computed"),
        memo_hits: n("memo_hits"),
        disk_hits: n("disk_hits"),
        hit_rate: n("hit_rate"),
        shed: n("shed"),
        parse_errors: n("parse_errors"),
        cache_bytes: n("cache_bytes"),
        eval_p50_ms: doc
            .get("verbs")
            .and_then(|v| v.get("eval"))
            .and_then(|v| v.get("p50_ms"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    })
}

/// The per-layer counters of a timed region: what moved between two
/// readings, and the levels at the second.
fn counter_layers(out: &mut Outcome, before: &Counters, after: &Counters) {
    out.layers.extend([
        // The two `metrics` requests themselves are not the workload's.
        ("serve.requests", after.requests - before.requests - 1.0),
        ("serve.computed", after.computed - before.computed),
        ("serve.memo_hits", after.memo_hits - before.memo_hits),
        ("serve.disk_hits", after.disk_hits - before.disk_hits),
        ("serve.hit_rate", after.hit_rate),
        ("serve.shed", after.shed - before.shed),
        (
            "serve.parse_errors",
            after.parse_errors - before.parse_errors,
        ),
        ("serve.cache_bytes", after.cache_bytes),
        ("serve.daemon_eval_p50_ms", after.eval_p50_ms),
    ]);
}

// ---------------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------------

/// What one connection measured.
#[derive(Default)]
struct ClientLog {
    eval_ms: Vec<f64>,
    sweep_ms: Vec<f64>,
    /// `(seconds, results)` of every request, in order.
    calls: Vec<(f64, u64)>,
    results: u64,
    failed: u64,
}

fn warm_client(
    daemon: &Daemon,
    order_seed: u64,
    eval_lines: &[String],
    sweep_line: &str,
    expected: &[String],
    seconds: f64,
    tracer: &mut Tracer,
) -> io::Result<ClientLog> {
    let mut conn = daemon.connect()?;
    // The seed orders this connection's requests.
    let mut order: Vec<usize> = (0..expected.len()).collect();
    let mut rng = Xorshift64::new(order_seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let mut log = ClientLog::default();
    let check = |log: &mut ClientLog, line: &str, index: usize| {
        let ok = result_line(line)
            .is_some_and(|(source, doc)| source == "memo" && doc == expected[index]);
        log.results += 1;
        log.failed += u64::from(!ok);
    };
    let started = Instant::now();
    let mut op = 0u64;
    loop {
        for j in 0..EVALS_PER_ROUND {
            let index = order[j % order.len()];
            let open = tracer.begin("serve.eval", op);
            let line = conn.request(&eval_lines[index])?;
            let dt = tracer.end(open);
            log.eval_ms.push(dt * 1e3);
            log.calls.push((dt, 1));
            check(&mut log, line, index);
            op += 1;
        }
        let open = tracer.begin("serve.sweep", op);
        conn.send(sweep_line)?;
        // Results stream in expansion order.
        for index in 0..expected.len() {
            check(&mut log, conn.read_line()?, index);
        }
        let done = conn.read_line()?.starts_with("{\"kind\":\"done\"");
        let dt = tracer.end(open);
        log.sweep_ms.push(dt * 1e3);
        log.calls.push((dt, expected.len() as u64));
        log.failed += u64::from(!done);
        op += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            return Ok(log);
        }
    }
}

pub fn serve_warm(cfg: &RunConfig, tracer: &mut Tracer) -> io::Result<Outcome> {
    let sweep = grid_sweep(cfg.seed, &[Fidelity::Analytic]);
    let scenarios = sweep.build().expect("the figure grid is valid");
    // The reference every served document must equal byte for byte.
    let results = Engine::default()
        .run_all(&scenarios)
        .expect("the grid evaluates");
    let expected: Vec<String> = results.iter().map(EvalResult::to_json).collect();
    let eval_lines: Vec<String> = scenarios.iter().map(eval_request).collect();
    let sweep_line = format!("{{\"op\":\"sweep\",\"sweep\":{}}}\n", sweep.to_json());

    // Set-up: start the daemon and pre-warm it with one sweep.
    let mut setups_s = Vec::new();
    let mut startups_ms = Vec::new();
    let mut warmed = None;
    let mut prewarm_failed = 0u64;
    for repeat in 0..SETUP_REPEATS {
        if let Some((daemon, _dir)) = warmed.take() {
            Daemon::shut_down(daemon)?;
        }
        let started = Instant::now();
        let dir = TempDir::new(cfg, &format!("warm{repeat}"))?;
        let daemon = Daemon::spawn(&cfg.daemon, &dir.0)?;
        let mut conn = daemon.connect()?;
        conn.send(&sweep_line)?;
        prewarm_failed = 0;
        for doc in &expected {
            let ok = result_line(conn.read_line()?).is_some_and(|(_, served)| served == doc);
            prewarm_failed += u64::from(!ok);
        }
        conn.read_line()?;
        setups_s.push(started.elapsed().as_secs_f64());
        startups_ms.push(daemon.startup_s * 1e3);
        warmed = Some((daemon, dir));
    }
    let (daemon, dir) = warmed.expect("at least one set-up");

    let before = counters(&daemon)?;
    let logs = on_connections(tracer, WARM_CONNECTIONS, |stream, side| {
        warm_client(
            &daemon,
            cfg.seed ^ stream,
            &eval_lines,
            &sweep_line,
            &expected,
            cfg.seconds,
            side,
        )
    })?;
    let after = counters(&daemon)?;
    let peak_rss_mb = daemon.peak_rss_mb();

    let mut all = ClientLog::default();
    let mut throughput_per_s = 0.0;
    for log in logs {
        throughput_per_s += windowed_rate(&log.calls);
        all.eval_ms.extend(log.eval_ms);
        all.sweep_ms.extend(log.sweep_ms);
        all.results += log.results;
        all.failed += log.failed;
    }
    // The workload is memo reads only; a daemon that computed, shed or
    // misparsed anything during the timed region ran something else.
    let pure = after.computed == before.computed
        && after.memo_hits - before.memo_hits == all.results as f64
        && after.shed == before.shed
        && after.parse_errors == before.parse_errors
        && prewarm_failed == 0;

    let mut out = Outcome {
        attempted: all.results,
        failed: if pure { all.failed } else { all.results },
        setups_s,
        throughput_per_s,
        latencies_ms: all.eval_ms,
        peak_rss_mb,
        checks: vec![("check.served_digest".into(), digest(&expected))],
        ..Outcome::default()
    };
    out.notes.push(format!(
        "{WARM_CONNECTIONS} connection, {} shards; n = {} evals, {} sweeps of {}",
        daemon.shards,
        out.latencies_ms.len(),
        all.sweep_ms.len(),
        expected.len()
    ));
    if cfg.trace {
        counter_layers(&mut out, &before, &after);
        let sweep_ms = median(&all.sweep_ms);
        out.layers.extend([
            ("serve.startup_ms", median(&startups_ms)),
            ("serve.eval_us_p50", median(&out.latencies_ms) * 1e3),
            (
                "serve.eval_us_p99",
                percentile(&out.latencies_ms, 99.0) * 1e3,
            ),
            ("serve.sweep_ms_p50", sweep_ms),
            (
                "serve.sweep_per_result_us",
                sweep_ms * 1e3 / expected.len() as f64,
            ),
            ("serve.shards", daemon.shards as f64),
            ("serve.connections", WARM_CONNECTIONS as f64),
        ]);
        replay_codec(&mut out, &results, tracer);
    }
    Daemon::shut_down(daemon)?;
    drop(dir);
    Ok(out)
}

// ---------------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------------

/// The `n`-th never-seen scenario of `stream`: networks and mappings
/// cycle (a cycle of 20 holds each pair once, half at each fidelity) and
/// every scenario draws masks from a seed of its own.
fn cold_scenario(seed: u64, stream: u64, n: u64) -> Scenario {
    let slot = (n % 20) as usize;
    let mask_seed = SplitMix64::new(seed ^ (stream << 40) ^ n).next_u64();
    Scenario::builder(PAPER_NETWORKS[slot / 4])
        .mapping(Mapping::ALL[slot % 4])
        .sparsity(SparsityGen::PaperSynthetic { seed: mask_seed })
        .fidelity([Fidelity::Analytic, Fidelity::TileTimed][slot % 2])
        .build()
        .expect("a paper network under a paper mapping is valid")
}

/// One cold request and what came back.
struct ColdEval {
    scenario: Scenario,
    doc: String,
    computed: bool,
}

/// What one cold connection measured.
struct ColdLog {
    evals: Vec<ColdEval>,
    eval_ms: Vec<f64>,
    /// The daemon's peak resident set after this connection's first
    /// cycle: the same work in every run, where the peak at the end
    /// grows with however many cycles the time allowed.
    daemon_rss_mb: f64,
}

fn cold_client(
    daemon: &Daemon,
    seed: u64,
    stream: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> io::Result<ColdLog> {
    let mut conn = daemon.connect()?;
    let mut evals = Vec::new();
    let mut eval_ms = Vec::new();
    let mut daemon_rss_mb = 0.0;
    let started = Instant::now();
    // Whole cycles only, so every run times the same mix of networks.
    while evals.is_empty() || started.elapsed().as_secs_f64() < seconds {
        for _ in 0..20 {
            let n = evals.len() as u64;
            let scenario = cold_scenario(seed, stream, n);
            let request = eval_request(&scenario);
            let open = tracer.begin("serve.eval_cold", n);
            let line = conn.request(&request)?;
            eval_ms.push(tracer.end(open) * 1e3);
            let (source, doc) = result_line(line).unwrap_or_default();
            evals.push(ColdEval {
                scenario,
                doc: doc.to_string(),
                computed: source == "computed",
            });
        }
        if evals.len() == 20 {
            daemon_rss_mb = daemon.peak_rss_mb();
        }
    }
    Ok(ColdLog {
        evals,
        eval_ms,
        daemon_rss_mb,
    })
}

pub fn serve_cold(cfg: &RunConfig, tracer: &mut Tracer) -> io::Result<Outcome> {
    // Set-up: a fresh daemon on an empty cache directory, warmed with a
    // few scenarios the timed region never asks for.
    let mut setups_s = Vec::new();
    let mut startups_ms = Vec::new();
    let mut fresh = None;
    for repeat in 0..SETUP_REPEATS {
        if let Some((daemon, _dir)) = fresh.take() {
            Daemon::shut_down(daemon)?;
        }
        let started = Instant::now();
        let dir = TempDir::new(cfg, &format!("cold{repeat}"))?;
        let daemon = Daemon::spawn(&cfg.daemon, &dir.0)?;
        let mut conn = daemon.connect()?;
        for n in 0..COLD_WARMUP as u64 {
            conn.request(&eval_request(&cold_scenario(cfg.seed, 0, n)))?;
        }
        setups_s.push(started.elapsed().as_secs_f64());
        startups_ms.push(daemon.startup_s * 1e3);
        fresh = Some((daemon, dir));
    }
    let (daemon, dir) = fresh.expect("at least one set-up");

    // Phase one: compute and write.
    let before = counters(&daemon)?;
    let logs = on_connections(tracer, COLD_CONNECTIONS, |stream, side| {
        cold_client(&daemon, cfg.seed, stream, cfg.seconds, side)
    })?;
    let after = counters(&daemon)?;
    let shards = daemon.shards;
    Daemon::shut_down(daemon)?;

    let mut evals = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut throughput_per_s = 0.0;
    let mut first_cycles = Vec::new();
    let mut peak_rss_mb = 0.0f64;
    for log in logs {
        throughput_per_s += windowed_rate(
            &log.eval_ms
                .iter()
                .map(|ms| (ms / 1e3, 1))
                .collect::<Vec<_>>(),
        );
        first_cycles.extend(log.evals[..20].iter().map(|e| e.doc.clone()));
        peak_rss_mb = peak_rss_mb.max(log.daemon_rss_mb);
        evals.extend(log.evals);
        latencies_ms.extend(log.eval_ms);
    }
    let attempted = evals.len() as u64;
    let mut failed = evals.iter().filter(|e| !e.computed).count() as u64;

    // Phase two: a restarted daemon must serve every document again,
    // from disk, byte for byte.
    let restarted = Daemon::spawn(&cfg.daemon, &dir.0)?;
    let restart_ms = restarted.startup_s * 1e3;
    let mut disk_us = Vec::new();
    {
        let mut conn = restarted.connect()?;
        for (n, eval) in evals.iter().enumerate() {
            let request = eval_request(&eval.scenario);
            let open = tracer.begin("serve.eval_disk", n as u64);
            let line = conn.request(&request)?;
            disk_us.push(tracer.end(open) * 1e6);
            let ok =
                result_line(line).is_some_and(|(source, doc)| source == "disk" && doc == eval.doc);
            failed += u64::from(eval.computed && !ok);
        }
    }
    let reread = counters(&restarted)?;
    Daemon::shut_down(restarted)?;
    drop(dir);

    // A seeded sample of the documents against the in-process engine.
    let engine = Engine::default();
    let mut rng = Xorshift64::new(cfg.seed ^ 0x5A3E);
    for _ in 0..COLD_SAMPLE {
        let eval = &evals[rng.next_below(attempted) as usize];
        let reference = engine.run(&eval.scenario).expect("validated").to_json();
        failed += u64::from(reference != eval.doc);
    }

    // Sources must be exactly `computed`, then `disk`.
    let exact = after.computed - before.computed == attempted as f64
        && reread.disk_hits == attempted as f64
        && reread.computed == 0.0
        && after.shed == 0.0
        && reread.shed == 0.0;

    let mut out = Outcome {
        attempted,
        failed: if exact {
            failed.min(attempted)
        } else {
            attempted
        },
        setups_s,
        throughput_per_s,
        latencies_ms,
        peak_rss_mb,
        checks: vec![("check.served_digest".into(), digest(&first_cycles))],
        ..Outcome::default()
    };
    out.notes.push(format!(
        "{COLD_CONNECTIONS} connections, {shards} shards; n = {attempted} cold evals, then {attempted} \
         disk reads; {COLD_SAMPLE} documents also checked against the in-process engine"
    ));
    if cfg.trace {
        // The disk reads happened in the second daemon.
        let after = Counters {
            disk_hits: reread.disk_hits,
            ..after
        };
        counter_layers(&mut out, &before, &after);
        out.layers.extend([
            ("serve.startup_ms", median(&startups_ms)),
            ("serve.restart_ms", restart_ms),
            ("serve.cold_eval_ms_p50", median(&out.latencies_ms)),
            (
                "serve.cold_eval_ms_p95",
                percentile(&out.latencies_ms, 95.0),
            ),
            ("serve.disk_eval_us_p50", median(&disk_us)),
            ("serve.shards", shards as f64),
            ("serve.connections", COLD_CONNECTIONS as f64),
        ]);
    }
    Ok(out)
}
