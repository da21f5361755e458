//! The daemon: accept loop, per-connection protocol handling, and the
//! one evaluation path every connection shares.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use procrustes_core::{Engine, Scenario};
use procrustes_quantile::Dumique;

use crate::admit_sweep;
use crate::cache::{key_of, DiskCache, DocStore, MEMORY_BUDGET};
use crate::proto::{Request, Response, ServerMetrics, ServerStatus, Source, VerbMetrics, VERBS};

/// How often a blocked connection read wakes up to check the stop flag.
/// This is what makes a half-sent request unable to hang shutdown.
const POLL: Duration = Duration::from_millis(100);

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads of the daemon's one [`Engine`], which evaluates
    /// every request's misses. Defaults to the machine's available
    /// parallelism.
    pub shards: usize,
    /// Directory for the persistent result cache; `None` keeps results
    /// in memory only (up to the store's memory budget).
    pub cache_dir: Option<PathBuf>,
    /// LRU byte budget for the cache directory; `None` keeps every
    /// entry forever.
    pub cache_budget: Option<u64>,
    /// Admission limit: the largest cardinality a single `sweep`
    /// request may expand to (default 4096 — an order of magnitude
    /// above the paper's largest figure sweep).
    pub max_sweep: usize,
    /// Largest accepted request line in bytes (default 8 MiB; extracted
    /// workload documents are the only legitimately large requests).
    pub max_line_bytes: usize,
    /// Bound on the jobs in flight across all connections. A request
    /// whose jobs would push the count past this bound is refused with
    /// a structured `shed` reply before any work starts. The default
    /// equals the default `max_sweep`, so a default-configured daemon
    /// never sheds a request it admitted.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cache_dir: None,
            cache_budget: None,
            max_sweep: 4096,
            max_line_bytes: 8 << 20,
            queue_cap: 4096,
        }
    }
}

/// Monotonic daemon counters (all relaxed: they are reporting, not
/// synchronization).
#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    served: AtomicU64,
    /// Jobs answered, by the [`Source`] reported (its discriminant is
    /// the index, `Disk` the last).
    by_source: [AtomicU64; Source::Disk as usize + 1],
    shed: AtomicU64,
}

impl Stats {
    fn count(&self, source: Source) {
        self.by_source[source as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn answered_from(&self, source: Source) -> u64 {
        self.by_source[source as usize].load(Ordering::Relaxed)
    }
}

/// Per-verb latency quantile estimators, lazily seeded from the first
/// sample (Dumique's update step size is `rho * estimate`, so an
/// arbitrary initial estimate would take thousands of requests to
/// converge; starting at the first observed latency makes the estimate
/// useful immediately).
struct LatencyTrack {
    p50: Dumique,
    p95: Dumique,
}

/// One verb's request counter and latency quantiles.
#[derive(Default)]
struct VerbTrack {
    requests: u64,
    latency: Option<LatencyTrack>,
}

impl VerbTrack {
    fn record(&mut self, ms: f64) {
        self.requests += 1;
        // Dumique requires a strictly positive initial estimate.
        let ms = ms.max(1e-3);
        match &mut self.latency {
            None => {
                self.latency = Some(LatencyTrack {
                    p50: Dumique::with_params(0.5, ms, 0.05),
                    p95: Dumique::with_params(0.95, ms, 0.05),
                });
            }
            Some(track) => {
                track.p50.update(ms as f32);
                track.p95.update(ms as f32);
            }
        }
    }
}

/// The mutable metrics table behind the `metrics` verb. Guarded by one
/// mutex: it is touched once per request (not per result), so it is
/// nowhere near the serving hot path.
#[derive(Default)]
struct MetricsTable {
    verbs: [VerbTrack; VERBS.len()],
    parse_errors: u64,
}

impl MetricsTable {
    fn snapshot(&self) -> Vec<(String, VerbMetrics)> {
        VERBS
            .iter()
            .zip(&self.verbs)
            .map(|(&name, track)| {
                (
                    name.to_string(),
                    VerbMetrics {
                        requests: track.requests,
                        p50_ms: track.latency.as_ref().map(|l| f64::from(l.p50.estimate())),
                        p95_ms: track.latency.as_ref().map(|l| f64::from(l.p95.estimate())),
                    },
                )
            })
            .collect()
    }
}

/// The [`VERBS`] index of a parsed request.
fn verb_index(request: &Request) -> usize {
    match request {
        Request::Eval { .. } => 0,
        Request::Sweep(_) => 1,
        Request::Status => 2,
        Request::Metrics => 3,
        Request::Shutdown => 4,
    }
}

/// State shared by the accept loop and the connections.
struct Shared {
    stop: AtomicBool,
    stats: Stats,
    metrics: Mutex<MetricsTable>,
    /// Every result document this daemon holds, in memory and on disk.
    store: DocStore,
    /// The fingerprints some connection is reading or computing now.
    in_flight: InFlight,
    /// Evaluates every request's misses.
    engine: Engine,
    max_sweep: usize,
    max_line_bytes: usize,
    shards: usize,
    queue_cap: usize,
    /// Jobs admitted whose result is not ready yet, over all requests.
    depth: AtomicU64,
    local_addr: SocketAddr,
}

/// Admission refused: the request would push the in-flight job count
/// past `queue_cap`.
struct ShedInfo {
    reason: String,
    queue_depth: u64,
    limit: u64,
}

/// The backoff hint attached to a `shed` reply: a deterministic
/// function of the refusal state (base 50 ms plus 100 ms per multiple
/// of the cap sitting in the queue, bounded at one second), so a
/// replayed refusal observes an identical hint and clients retry on a
/// replayable schedule.
fn retry_hint_ms(queue_depth: u64, limit: u64) -> u64 {
    (50 + queue_depth.saturating_mul(100) / limit.max(1)).min(1000)
}

/// One request's share of the in-flight job count. Each result hands
/// its job back as it becomes ready; whatever is left is handed back on
/// drop, so a panicking connection cannot inflate the count.
struct Admission<'a> {
    depth: &'a AtomicU64,
    left: u64,
}

impl<'a> Admission<'a> {
    /// Raises the count by `jobs` in one atomic step, or refuses the
    /// whole request if that would pass the cap.
    fn take(shared: &'a Shared, jobs: usize) -> Result<Self, ShedInfo> {
        let (jobs, cap) = (jobs as u64, shared.queue_cap as u64);
        shared
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                (depth + jobs <= cap).then_some(depth + jobs)
            })
            .map_err(|depth| ShedInfo {
                reason: format!(
                    "{depth} job(s) in flight cannot take {jobs} more under --queue-cap {cap}"
                ),
                queue_depth: depth,
                limit: cap,
            })?;
        Ok(Self {
            depth: &shared.depth,
            left: jobs,
        })
    }

    fn ready(&mut self) {
        self.left -= 1;
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.depth.fetch_sub(self.left, Ordering::Relaxed);
    }
}

/// The fingerprints ([`key_of`] a scenario's text) that some connection
/// is reading or computing. Only a claim's holder reads or writes its
/// key in the store, so a scenario is computed once however many
/// connections ask for it at once, and [`DocStore`] never sees two
/// threads on one key.
#[derive(Default)]
struct InFlight {
    claimed: Mutex<HashSet<u64>>,
    released: Condvar,
}

impl InFlight {
    /// The claimed set. One insert or remove is its every update, so a
    /// set left by a thread that panicked is still valid, and taking it
    /// never panics — not even in [`Claim`]'s `drop`.
    fn lock(&self) -> MutexGuard<'_, HashSet<u64>> {
        self.claimed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims `key` if nobody holds it.
    fn claim(&self, key: u64) -> Option<Claim<'_>> {
        let won = self.lock().insert(key);
        won.then(|| Claim {
            in_flight: self,
            key,
        })
    }

    /// Waits until nobody holds `key`.
    fn wait(&self, key: u64) {
        let mut claimed = self.lock();
        while claimed.contains(&key) {
            claimed = self
                .released
                .wait(claimed)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A held fingerprint, released on drop — also when its holder panics,
/// so a waiter is never stranded.
struct Claim<'a> {
    in_flight: &'a InFlight,
    key: u64,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.in_flight.lock().remove(&self.key);
        self.in_flight.released.notify_all();
    }
}

/// One result slot per scenario of a request.
type Answers = Vec<Option<(Source, String)>>;

/// Answers `scenarios` in index order: each from the store, or else
/// computed by the daemon's engine and stored.
///
/// 1. **Admit** the whole request, or refuse it before any work starts.
/// 2. **Claim** each scenario's fingerprint without blocking and read
///    the claimed ones from the store. A scenario repeated in the
///    request is claimed once and copied.
/// 3. **Compute** the claimed misses in one [`Engine::run_all`], then
///    store each and release its claim.
/// 4. **Wait** for a fingerprint another connection holds, and go back
///    to 2 for what is left. Nothing is held while waiting, so no two
///    connections can wait on each other.
///
/// A scenario is therefore computed at most once while the store holds
/// it; every later request for it is a `memo` or `disk` answer.
fn evaluate(shared: &Shared, scenarios: &[Scenario]) -> Result<Vec<(Source, String)>, ShedInfo> {
    let mut admission = Admission::take(shared, scenarios.len())?;
    let mut answer = |answers: &mut Answers, i: usize, found: (Source, String)| {
        shared.stats.count(found.0);
        admission.ready();
        answers[i] = Some(found);
    };
    let texts: Vec<String> = scenarios.iter().map(Scenario::to_json).collect();
    let keys: Vec<u64> = texts.iter().map(|text| key_of(text)).collect();
    let mut answers: Answers = vec![None; scenarios.len()];
    let mut firsts = HashMap::new();
    let (mut repeats, mut pending) = (Vec::new(), Vec::new());
    for i in 0..scenarios.len() {
        let first = *firsts.entry(keys[i]).or_insert(i);
        if first != i && texts[first] == texts[i] {
            repeats.push((i, first));
        } else {
            pending.push(i);
        }
    }
    loop {
        let mut misses = Vec::new();
        pending.retain(|&i| {
            let Some(claim) = shared.in_flight.claim(keys[i]) else {
                return true;
            };
            match shared.store.get(&texts[i]) {
                Some(hit) => answer(&mut answers, i, hit),
                None => misses.push((i, claim)),
            }
            false
        });
        if !misses.is_empty() {
            let batch: Vec<Scenario> = misses.iter().map(|&(i, _)| scenarios[i].clone()).collect();
            let results = shared
                .engine
                .run_all(&batch)
                .expect("admitted scenarios are validated");
            for ((i, _claim), result) in misses.into_iter().zip(results) {
                let doc = result.to_json();
                let put = shared.store.put(&texts[i], &doc);
                debug_assert_eq!(put, Ok(()), "a computed document leads with its scenario");
                answer(&mut answers, i, (Source::Computed, doc));
            }
        }
        let Some(&i) = pending.first() else { break };
        shared.in_flight.wait(keys[i]);
    }
    for (i, first) in repeats {
        let doc = answers[first]
            .as_ref()
            .expect("a first is answered")
            .1
            .clone();
        answer(&mut answers, i, (Source::Memo, doc));
    }
    Ok(answers
        .into_iter()
        .map(|found| found.expect("every index is answered"))
        .collect())
}

/// The evaluation daemon. See the crate docs for the protocol and the
/// single-flight/caching semantics.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and opens (and warms) the cache, but does not
    /// start the accept loop — call [`Server::run`]. Use port 0 for an
    /// ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates socket binding and cache-directory failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let disk = match &config.cache_dir {
            Some(dir) => Some(DiskCache::open_with_budget(dir, config.cache_budget)?),
            None => None,
        };
        let shards = config.shards.max(1);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            stats: Stats::default(),
            metrics: Mutex::new(MetricsTable::default()),
            store: DocStore::new(MEMORY_BUDGET, disk),
            in_flight: InFlight::default(),
            engine: Engine::with_threads(shards),
            max_sweep: config.max_sweep,
            max_line_bytes: config.max_line_bytes,
            shards,
            queue_cap: config.queue_cap.max(1),
            depth: AtomicU64::new(0),
            local_addr: listener.local_addr()?,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Runs the accept loop until a `shutdown` request, then drains:
    /// joins every connection thread (their reads poll the stop flag and
    /// their writes get a bounded drain grace, so neither an idle, a
    /// half-sent, nor a non-reading connection can hang shutdown).
    ///
    /// Accept errors (e.g. transient fd exhaustion under a connection
    /// flood) are logged and retried after a backoff rather than
    /// propagated — an evaluation daemon should shed load, not die; the
    /// backoff keeps a persistent `EMFILE` from spinning the accept loop
    /// hot.
    ///
    /// # Errors
    ///
    /// Reserved for future fatal conditions; the current loop always
    /// drains cleanly.
    pub fn run(self) -> io::Result<()> {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("procrustes-serve: accept failed: {e}; backing off");
                    thread::sleep(POLL);
                    continue;
                }
            };
            let shared = Arc::clone(&self.shared);
            connections.push(thread::spawn(move || {
                // A connection failure affects only that client.
                let _ = handle_connection(stream, &shared);
            }));
            connections.retain(|h| !h.is_finished());
        }
        for conn in connections {
            let _ = conn.join();
        }
        Ok(())
    }
}

/// The address the shutdown handler connects to in order to wake the
/// blocked accept loop. A wildcard bind (`0.0.0.0` / `::`) is not
/// connectable on every platform, so it is rewritten to the matching
/// loopback address with the bound port.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let mut wake = local;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    wake
}

/// Outcome of reading one request line.
enum ReadOutcome {
    /// A complete line is in the buffer.
    Line,
    /// Clean end of stream (or shutdown).
    Eof,
    /// The line exceeded `max_line_bytes`; the buffered prefix is
    /// dropped and the remainder must be discarded up to the newline.
    Oversized,
}

/// Reads one `\n`-terminated line (or the final unterminated line before
/// EOF) into `buf` as raw bytes, polling the stop flag on every read
/// timeout and bounding the length so a hostile writer can neither hang
/// shutdown nor exhaust memory.
///
/// Bytes are accumulated manually rather than through `read_line`:
/// `read_line`'s UTF-8 guard *drops* already-consumed bytes when an
/// error (such as our poll timeout) lands while the accumulated chunk
/// ends mid-multibyte character, silently corrupting the request. UTF-8
/// is validated once by the caller after the full line has arrived.
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    shared: &Shared,
) -> io::Result<ReadOutcome> {
    buf.clear();
    loop {
        if buf.len() > shared.max_line_bytes {
            return Ok(ReadOutcome::Oversized);
        }
        match reader.fill_buf() {
            Ok([]) => {
                return Ok(if buf.is_empty() {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Line // final line without trailing \n
                });
            }
            Ok(data) => {
                let newline = data.iter().position(|&b| b == b'\n');
                // Take up to the newline, but never buffer more than one
                // byte past the limit (the top-of-loop check then reports
                // the line oversized).
                let wanted = newline.map_or(data.len(), |p| p + 1);
                let take = wanted.min(shared.max_line_bytes + 1 - buf.len());
                buf.extend_from_slice(&data[..take]);
                reader.consume(take);
                if newline.is_some() && take == wanted {
                    return Ok(ReadOutcome::Line);
                }
            }
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                    if shared.stop.load(Ordering::SeqCst) {
                        return Ok(ReadOutcome::Eof);
                    }
                }
                io::ErrorKind::Interrupted => {}
                _ => return Err(e),
            },
        }
    }
}

/// Skips the remainder of an oversized line without buffering it,
/// resynchronizing the stream on the next newline. Returns `false` when
/// the stream ended (or the daemon stopped) before a newline arrived.
fn discard_line_remainder(reader: &mut BufReader<TcpStream>, shared: &Shared) -> io::Result<bool> {
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(false),
            Ok(data) => {
                let newline = data.iter().position(|&b| b == b'\n');
                let consumed = newline.map_or(data.len(), |p| p + 1);
                reader.consume(consumed);
                if newline.is_some() {
                    return Ok(true);
                }
            }
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                    if shared.stop.load(Ordering::SeqCst) {
                        return Ok(false);
                    }
                }
                io::ErrorKind::Interrupted => {}
                _ => return Err(e),
            },
        }
    }
}

/// Serves one connection until EOF, an unrecoverable framing error, or
/// daemon shutdown. Requests are answered strictly in order.
fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(POLL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match read_request_line(&mut reader, &mut buf, shared) {
            Ok(ReadOutcome::Eof) => return Ok(()),
            Ok(ReadOutcome::Oversized) => {
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                let error = format!(
                    "request line exceeds {} bytes; line discarded",
                    shared.max_line_bytes
                );
                write_line(&mut writer, shared, &Response::Error { error })?;
                // Resync on the next newline (discarding, never
                // buffering, so a hostile stream cannot exhaust memory).
                if !discard_line_remainder(&mut reader, shared)? {
                    return Ok(());
                }
                continue;
            }
            // Socket errors: the stream cannot be trusted.
            Err(_) => return Ok(()),
            Ok(ReadOutcome::Line) => {}
        }
        // A non-UTF-8 line closes the connection: the framing cannot be
        // trusted after it (documented in the crate-level protocol).
        let Ok(text) = std::str::from_utf8(&buf) else {
            return Ok(());
        };
        let line = text.trim();
        if line.is_empty() {
            continue;
        }
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let request = match Request::parse_line(line) {
            Err(error) => {
                if let Ok(mut metrics) = shared.metrics.lock() {
                    metrics.parse_errors += 1;
                }
                write_line(&mut writer, shared, &Response::Error { error })?;
                continue;
            }
            Ok(request) => request,
        };
        let verb = verb_index(&request);
        let start = Instant::now();
        match request {
            Request::Eval(scenario) => match scenario.validate() {
                Err(e) => write_line(
                    &mut writer,
                    shared,
                    &Response::Error {
                        error: e.to_string(),
                    },
                )?,
                Ok(()) => serve_scenarios(&[*scenario], false, shared, &mut writer)?,
            },
            Request::Sweep(sweep) => match admit_sweep(&sweep, shared.max_sweep) {
                Err(error) => write_line(&mut writer, shared, &Response::Error { error })?,
                Ok(scenarios) => serve_scenarios(&scenarios, true, shared, &mut writer)?,
            },
            Request::Status => {
                let stats = &shared.stats;
                write_line(
                    &mut writer,
                    shared,
                    &Response::Status(ServerStatus {
                        shards: shared.shards as u64,
                        persistent: shared.store.disk().is_some(),
                        requests: stats.requests.load(Ordering::Relaxed),
                        served: stats.served.load(Ordering::Relaxed),
                        computed: stats.answered_from(Source::Computed),
                        memo_hits: stats.answered_from(Source::Memo),
                        disk_hits: stats.answered_from(Source::Disk),
                        memo_entries: shared.store.memory_entries(),
                        disk_entries: shared.store.disk().map(DiskCache::entries),
                    }),
                )?;
            }
            Request::Metrics => {
                let stats = &shared.stats;
                let computed = stats.answered_from(Source::Computed);
                let memo_hits = stats.answered_from(Source::Memo);
                let disk_hits = stats.answered_from(Source::Disk);
                let lookups = computed + memo_hits + disk_hits;
                let (parse_errors, verbs) = {
                    let metrics = shared.metrics.lock().expect("metrics lock");
                    (metrics.parse_errors, metrics.snapshot())
                };
                write_line(
                    &mut writer,
                    shared,
                    &Response::Metrics(ServerMetrics {
                        requests: stats.requests.load(Ordering::Relaxed),
                        parse_errors,
                        served: stats.served.load(Ordering::Relaxed),
                        computed,
                        memo_hits,
                        disk_hits,
                        hit_rate: if lookups == 0 {
                            0.0
                        } else {
                            (memo_hits + disk_hits) as f64 / lookups as f64
                        },
                        cache_evictions: shared.store.disk().map_or(0, DiskCache::evictions),
                        cache_bytes: shared.store.disk().map_or(0, DiskCache::total_bytes),
                        verify_misses: shared.store.verify_misses(),
                        queue_depth: shared.depth.load(Ordering::Relaxed),
                        shed: stats.shed.load(Ordering::Relaxed),
                        verbs,
                    }),
                )?;
            }
            Request::Shutdown => {
                shared.stop.store(true, Ordering::SeqCst);
                let bye = write_line(&mut writer, shared, &Response::Bye);
                record_verb(shared, verb, start);
                // Wake the accept loop so it observes the stop flag —
                // unconditionally: the requester may already have
                // aborted its connection, and a failed bye write must
                // not leave the daemon blocked in accept forever.
                let _ = TcpStream::connect(wake_addr(shared.local_addr));
                return bye;
            }
        }
        record_verb(shared, verb, start);
    }
}

/// Folds one completed request into the per-verb metrics.
fn record_verb(shared: &Shared, verb: usize, start: Instant) {
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if let Ok(mut metrics) = shared.metrics.lock() {
        metrics.verbs[verb].record(ms);
    }
}

/// Answers scenarios through [`evaluate`] and writes the results in
/// expansion order; `with_done` appends the sweep terminator. A request
/// that would overflow the in-flight cap is refused with one `shed` line
/// before any work starts.
fn serve_scenarios(
    scenarios: &[Scenario],
    with_done: bool,
    shared: &Shared,
    writer: &mut TcpStream,
) -> io::Result<()> {
    let results = match evaluate(shared, scenarios) {
        Ok(results) => results,
        Err(shed) => {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            return write_line(
                writer,
                shared,
                &Response::Shed {
                    reason: shed.reason,
                    retry_after_ms: retry_hint_ms(shed.queue_depth, shed.limit),
                    queue_depth: shed.queue_depth,
                    limit: shed.limit,
                },
            );
        }
    };
    let count = results.len();
    for (index, (source, doc)) in results.into_iter().enumerate() {
        shared.stats.served.fetch_add(1, Ordering::Relaxed);
        write_line(writer, shared, &Response::Result { index, source, doc })?;
    }
    if with_done {
        write_line(writer, shared, &Response::Done { count })?;
    }
    Ok(())
}

/// How long a response write may make zero progress after shutdown
/// begins before the connection is abandoned: well-behaved clients get
/// to finish draining their in-flight results, while a client that
/// stopped reading its socket cannot hold [`Server::run`]'s final join
/// hostage.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Writes one response line, polling the write timeout so TCP
/// backpressure from a non-reading client never blocks unboundedly
/// once the daemon is draining.
fn write_line(stream: &mut TcpStream, shared: &Shared, response: &Response) -> io::Result<()> {
    let mut line = response.to_json();
    line.push('\n');
    let bytes = line.as_bytes();
    let mut written = 0;
    let mut stalled = Duration::ZERO;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "client stopped accepting data",
                ))
            }
            Ok(n) => {
                written += n;
                stalled = Duration::ZERO;
            }
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                    if shared.stop.load(Ordering::SeqCst) {
                        stalled += POLL;
                        if stalled >= DRAIN_GRACE {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "write stalled during shutdown",
                            ));
                        }
                    }
                }
                io::ErrorKind::Interrupted => {}
                _ => return Err(e),
            },
        }
    }
    Ok(())
}
