//! `procrustes-serve` — a cache-persistent evaluation daemon
//! over the [`Engine`](procrustes_core::Engine), plus the client library
//! behind the `procrustes-cli` binary.
//!
//! Timeloop/Accelergy-class cost models (which `procrustes-sim`
//! emulates) are exactly the kind of service people batch-query during
//! design-space sweeps. This crate turns the in-process
//! `Scenario`/`Sweep`/`Engine` API into a long-lived daemon so sweeps
//! can be submitted from outside the process, results are cached across
//! restarts, and identical work is never computed twice:
//!
//! * [`Server`] — a std-only TCP daemon (no external dependencies)
//!   speaking line-delimited JSON. Each accepted connection gets its own
//!   thread; requests on a connection are answered in order.
//! * **One engine** — the daemon holds one
//!   [`Engine`](procrustes_core::Engine) with `--shards` worker threads,
//!   and with it one per-layer cost cache. Each connection thread
//!   evaluates its own request's misses through it, in one `run_all`
//!   per request.
//! * **One document store** — every result document the daemon holds
//!   lives in one store: a memory tier bounded by bytes (least recently
//!   used goes first) over the optional disk tier. A request's whole
//!   lookup is *store, else compute and store*. The store's key is
//!   derived from the request's own canonical scenario text, and a hit
//!   is served only if the stored document begins with that exact text;
//!   one that does not (a fingerprint collision, a stale or misfiled
//!   cache file) is dropped, counted in `verify_misses` and recomputed.
//! * **Single-flight de-duplication** — a connection claims a
//!   scenario's [`Scenario::fingerprint`] in an in-flight map before it
//!   reads or writes that key in the store, and releases it once the
//!   document is stored. When concurrent connections submit the same
//!   scenario, the claimant computes and stores it, and every other
//!   connection waits for the claim and is served from the store; a
//!   scenario named twice in one request is claimed once. A connection
//!   waits only after its own claims are released, so no two wait on
//!   each other. An identical scenario is computed at most once while
//!   the store holds it, and not at all when the disk tier already does.
//! * **Persistent result cache** — with `--cache-dir`, every computed
//!   [`EvalResult`](procrustes_core::EvalResult) JSON document is
//!   written content-addressed by scenario fingerprint
//!   (`<fp:016x>.json`, atomic tmp-file + rename). Because
//!   [`Scenario::to_json`] and `EvalResult::to_json` are canonical
//!   (deterministic field order and number text), a restarted daemon
//!   serves byte-identical documents without recomputation. A torn or
//!   re-formatted entry file reads as a miss and is recomputed and
//!   rewritten, so a damaged cache costs work, never a served byte.
//! * **Backpressure** — the jobs in flight across all connections (one
//!   per scenario of every admitted request, until its result is ready)
//!   are bounded by `--queue-cap`. A request that would push the count
//!   past it is refused as a unit with one structured `shed` line
//!   *before any work starts*; nothing about it is evaluated, so the
//!   client can safely retry later. The `shed` line carries a
//!   deterministic `retry_after_ms` backoff hint.
//! * [`Client`] — a blocking client used by `procrustes-cli`, the
//!   loopback tests, and embedders.
//!
//! # Protocol grammar
//!
//! The wire protocol is **one JSON document per `\n`-terminated line**
//! in each direction (`LF`; a final unterminated line at EOF is also
//! accepted). Requests:
//!
//! ```text
//! request  = eval | sweep | status | metrics | shutdown
//! eval     = {"op":"eval", "scenario": Scenario}
//! sweep    = {"op":"sweep", "sweep": Sweep}
//! status   = {"op":"status"}
//! metrics  = {"op":"metrics"}
//! shutdown = {"op":"shutdown"}
//! ```
//!
//! No verb puts a document into a daemon's store: every document a
//! daemon serves, it computed itself or read back from its own disk
//! cache. Any other `op` (including the `store` and `search` verbs of
//! earlier versions) is an unknown-op `error` line, counted in
//! `parse_errors`. A design-space search runs in process, through
//! `run_search_on_engine` in the `procrustes-search` crate.
//!
//! `Scenario` and `Sweep` are the documents produced by
//! [`Scenario::to_json`] and [`Sweep::to_json`] — see those methods for
//! the field-level grammar. Unknown fields anywhere in a request are a
//! structured error, never silently ignored (a typo'd axis must not
//! evaluate the wrong configuration).
//!
//! Responses (one line each; a request produces one or more lines):
//!
//! ```text
//! response = result | done | status | metrics | bye | error | shed
//! result   = {"kind":"result", "index": n, "source": source, "result": EvalResult}
//! source   = "computed" | "memo" | "disk"
//! done     = {"kind":"done", "count": n}
//! status   = {"kind":"status", "shards": n, "persistent": bool,
//!             "requests": n, "served": n, "computed": n,
//!             "memo_hits": n, "disk_hits": n, "memo_entries": n,
//!             "disk_entries": n | null}
//! metrics  = {"kind":"metrics", "requests": n, "parse_errors": n, "served": n,
//!             "computed": n, "memo_hits": n, "disk_hits": n, "hit_rate": x,
//!             "cache_evictions": n, "cache_bytes": n, "verify_misses": n,
//!             "queue_depth": n, "shed": n,
//!             "verbs": {verb: {"requests": n, "p50_ms": x | null,
//!                              "p95_ms": x | null}, ...}}
//! bye      = {"kind":"bye"}
//! error    = {"kind":"error", "error": string}
//! shed     = {"kind":"shed", "reason": string, "retry_after_ms": n,
//!             "queue_depth": n, "limit": n}
//! ```
//!
//! The `"computed"` source is an engine evaluation, `"memo"` the
//! store's memory tier, `"disk"` its disk tier. `status.memo_entries`
//! is a gauge — documents in the memory tier right now — and falls when
//! the memory budget evicts. The `shed` line's `retry_after_ms` is a
//! deterministic backoff hint (a function of the refusal state, never
//! wall-clock); `procrustes-cli` honors it with one bounded retry. In
//! `metrics`, `queue_depth` is the momentary count of admitted jobs
//! whose result is not ready yet (0 on a drained daemon), `shed` counts
//! refused requests, and `verify_misses` counts stored documents that
//! were dropped, and answered as a miss, because they did not begin
//! with the requesting scenario's own text; `cache_evictions` and
//! `cache_bytes` describe the disk tier.
//!
//! * `eval` answers with exactly one `result` line (`index` 0).
//! * `sweep` answers with one `result` line per scenario, written **in
//!   sweep-expansion order** (`index` 0..count-1) once every result is
//!   ready, followed by a final `done` line. A sweep whose
//!   [`cardinality`](Sweep::cardinality) exceeds the server's admission
//!   limit is refused with a single `error` line before any evaluation
//!   starts.
//! * `status`, `metrics`, and `shutdown` answer with one `status` /
//!   `metrics` / `bye` line; after `bye` the daemon stops accepting
//!   connections, drains, and exits. Verb latency quantiles in
//!   `metrics` are tracked with the paper's own streaming estimator
//!   (`procrustes-quantile`), seeded from the first observed sample.
//! * An `eval` or `sweep` whose jobs would overflow the in-flight bound
//!   is refused with a single `shed` line before any work starts (never
//!   a partial stream).
//! * Any malformed, oversized, or invalid request produces a single
//!   `error` line and the connection stays usable afterwards: an
//!   oversized line is discarded (never buffered) up to its terminating
//!   newline, so even a hostile multi-megabyte line can neither exhaust
//!   memory nor wedge the stream. Only a non-UTF-8 line closes the
//!   connection (the framing cannot be trusted after it).
//!
//! The `result` member of a `result` line is byte-identical to what
//! `EvalResult::to_json` produces in-process — bit-identical results
//! are a contract, tested end-to-end over loopback.
//!
//! # Transport
//!
//! Both ends run `TCP_NODELAY`, and each message leaves in one write:
//! the client sends a request line with its newline in one write, and
//! the daemon writes each reply line, newline included, in its own. With
//! Nagle's algorithm on, a small write waits until the peer ACKs the one
//! before it, and a peer with nothing to send holds that ACK on its
//! delayed-ACK timer. Measured on Linux loopback, that costs ~44 ms per
//! message: a [`Client`] round trip took 44 ms instead of 0.03–0.13 ms,
//! and a warm 40-result sweep read by the benchmark's client 42 ms
//! instead of 0.6 ms.
//!
//! The per-verb quantiles in `metrics` stop when the daemon's last write
//! returns, and the kernel may still hold the bytes after that. So a
//! stall in the reply path does not show in them. It shows on the client
//! side, e.g. in the benchmark's `serve.sweep_ms_p50` and
//! `serve.sweep_per_result_us`.
//!
//! [`Client::set_read_timeout`] bounds each wait for a reply line (by
//! default a client waits forever). A call past it fails with a
//! [`ClientError::Io`] of kind `TimedOut`; `procrustes-cli --timeout`
//! sets it, and never retries a timed-out request.
//!
//! # Example
//!
//! ```no_run
//! use procrustes_core::{Scenario, SparsityGen};
//! use procrustes_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let scenario = Scenario::builder("VGG-S")
//!     .sparsity(SparsityGen::PaperSynthetic { seed: 42 })
//!     .build()
//!     .unwrap();
//! let served = client.eval(&scenario).unwrap();
//! println!("{}", served.doc);
//! client.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use procrustes_core::{Scenario, Sweep};

mod cache;
mod client;
mod proto;
mod report;
mod server;

pub use cache::DiskCache;
pub use client::{Client, ClientError, Served};
pub use proto::{Request, Response, ServerMetrics, ServerStatus, Source, VerbMetrics, VERBS};
pub use report::results_csv_from_docs;
pub use server::{ServeConfig, Server};

/// Expands a sweep only after checking its cardinality against an
/// admission limit, so hostile documents cannot force the server to
/// materialize an unbounded cartesian product.
///
/// # Errors
///
/// Returns a human-readable message when the cardinality exceeds
/// `max_sweep` or any expanded scenario fails validation.
pub fn admit_sweep(sweep: &Sweep, max_sweep: usize) -> Result<Vec<Scenario>, String> {
    let cardinality = sweep.cardinality();
    if cardinality > max_sweep {
        return Err(format!(
            "sweep cardinality {cardinality} exceeds the server limit {max_sweep}"
        ));
    }
    sweep.build().map_err(|e| e.to_string())
}
