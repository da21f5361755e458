//! Wire protocol: request parsing and response framing.
//!
//! See the crate-level docs for the line grammar. Everything here is
//! pure (no I/O): the server and client share these types, and the
//! hostile-input tests exercise the parser directly over loopback.

use procrustes_core::json::Json;
use procrustes_core::{Scenario, Sweep};

/// A parsed client request (one line on the wire).
#[derive(Debug, Clone)]
pub enum Request {
    /// Evaluate one scenario.
    Eval(Box<Scenario>),
    /// Expand and evaluate a sweep server-side.
    Sweep(Box<Sweep>),
    /// Report daemon counters.
    Status,
    /// Report per-verb serving metrics.
    Metrics,
    /// Drain and exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// Untrusted input: every failure is a message suitable for an
    /// `error` reply — malformed JSON, a non-object, a missing or
    /// unknown `op`, missing payloads, and unknown fields (anywhere,
    /// including inside the scenario/sweep documents) are all rejected
    /// without panicking.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        if !matches!(v, Json::Obj(_)) {
            return Err("request is not a JSON object".into());
        }
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request field 'op' missing or not a string")?;
        let check = |allowed: &[&str]| -> Result<(), String> {
            let Json::Obj(pairs) = &v else { unreachable!() };
            for (k, _) in pairs {
                if !allowed.contains(&k.as_str()) {
                    return Err(format!("unknown request field '{k}'"));
                }
            }
            Ok(())
        };
        match op {
            "eval" => {
                check(&["op", "scenario"])?;
                let doc = v.get("scenario").ok_or("eval request has no 'scenario'")?;
                let scenario = Scenario::from_json_value(doc).map_err(|e| e.to_string())?;
                Ok(Request::Eval(Box::new(scenario)))
            }
            "sweep" => {
                check(&["op", "sweep"])?;
                let doc = v.get("sweep").ok_or("sweep request has no 'sweep'")?;
                let sweep = Sweep::from_json_value(doc).map_err(|e| e.to_string())?;
                Ok(Request::Sweep(Box::new(sweep)))
            }
            "status" => {
                check(&["op"])?;
                Ok(Request::Status)
            }
            "metrics" => {
                check(&["op"])?;
                Ok(Request::Metrics)
            }
            "shutdown" => {
                check(&["op"])?;
                Ok(Request::Shutdown)
            }
            other => Err(format!(
                "unknown op '{other}' (known: eval, sweep, status, metrics, shutdown)"
            )),
        }
    }

    /// Serializes the request to its wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Request::Eval(scenario) => {
                format!(r#"{{"op":"eval","scenario":{}}}"#, scenario.to_json())
            }
            Request::Sweep(sw) => format!(r#"{{"op":"sweep","sweep":{}}}"#, sw.to_json()),
            Request::Status => r#"{"op":"status"}"#.into(),
            Request::Metrics => r#"{"op":"metrics"}"#.into(),
            Request::Shutdown => r#"{"op":"shutdown"}"#.into(),
        }
    }
}

/// Where a served result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Evaluated by this daemon just now.
    Computed,
    /// Served from the document store's memory tier.
    Memo,
    /// Loaded from the persistent on-disk cache.
    Disk,
}

impl Source {
    /// The wire label.
    pub fn label(self) -> &'static str {
        match self {
            Source::Computed => "computed",
            Source::Memo => "memo",
            Source::Disk => "disk",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        match label {
            "computed" => Some(Source::Computed),
            "memo" => Some(Source::Memo),
            "disk" => Some(Source::Disk),
            _ => None,
        }
    }
}

/// Daemon counters reported by the `status` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatus {
    /// Worker threads of the daemon's engine (`--shards`).
    pub shards: u64,
    /// Whether a persistent cache directory is configured.
    pub persistent: bool,
    /// Request lines accepted (including ones answered with an error).
    pub requests: u64,
    /// Result lines served across all connections.
    pub served: u64,
    /// Results evaluated by an engine (cache misses).
    pub computed: u64,
    /// Results served from the store's memory tier.
    pub memo_hits: u64,
    /// Results served from the on-disk cache.
    pub disk_hits: u64,
    /// Documents currently held in the store's memory tier (a gauge:
    /// it falls when the memory budget evicts).
    pub memo_entries: u64,
    /// Files in the on-disk cache (`None` when not persistent).
    pub disk_entries: Option<u64>,
}

impl ServerStatus {
    fn to_json_value(self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::str("status")),
            ("shards".into(), Json::u64(self.shards)),
            ("persistent".into(), Json::Bool(self.persistent)),
            ("requests".into(), Json::u64(self.requests)),
            ("served".into(), Json::u64(self.served)),
            ("computed".into(), Json::u64(self.computed)),
            ("memo_hits".into(), Json::u64(self.memo_hits)),
            ("disk_hits".into(), Json::u64(self.disk_hits)),
            ("memo_entries".into(), Json::u64(self.memo_entries)),
            (
                "disk_entries".into(),
                self.disk_entries.map_or(Json::Null, Json::u64),
            ),
        ])
    }

    fn from_json_value(v: &Json) -> Result<Self, String> {
        let n = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("status field '{key}' missing"))
        };
        Ok(ServerStatus {
            shards: n("shards")?,
            persistent: v
                .get("persistent")
                .and_then(Json::as_bool)
                .ok_or("status field 'persistent' missing")?,
            requests: n("requests")?,
            served: n("served")?,
            computed: n("computed")?,
            memo_hits: n("memo_hits")?,
            disk_hits: n("disk_hits")?,
            memo_entries: n("memo_entries")?,
            disk_entries: v.get("disk_entries").and_then(Json::as_u64),
        })
    }
}

/// The request verbs tracked by the `metrics` op, in wire order.
pub const VERBS: [&str; 5] = ["eval", "sweep", "status", "metrics", "shutdown"];

/// Per-verb serving metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VerbMetrics {
    /// Requests of this verb accepted so far.
    pub requests: u64,
    /// Median request latency in milliseconds (`None` until the first
    /// request of this verb completes).
    pub p50_ms: Option<f64>,
    /// 95th-percentile request latency in milliseconds.
    pub p95_ms: Option<f64>,
}

/// Serving metrics reported by the `metrics` op: global counters, cache
/// effectiveness, and per-verb latency quantiles (tracked with the
/// paper's own streaming quantile estimator, `procrustes-quantile`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerMetrics {
    /// Request lines accepted (including ones answered with an error).
    pub requests: u64,
    /// Request lines rejected by the parser.
    pub parse_errors: u64,
    /// Result lines served across all connections.
    pub served: u64,
    /// Results evaluated by an engine (cache misses).
    pub computed: u64,
    /// Results served from the store's memory tier.
    pub memo_hits: u64,
    /// Results served from the on-disk cache.
    pub disk_hits: u64,
    /// `(memo_hits + disk_hits) / (computed + memo_hits + disk_hits)`,
    /// or 0 before any result has been produced.
    pub hit_rate: f64,
    /// Disk-cache entries evicted so far to hold the `--cache-budget`
    /// bound (0 when unbounded or no cache is configured).
    pub cache_evictions: u64,
    /// Bytes currently held by the on-disk cache (0 when no cache is
    /// configured).
    pub cache_bytes: u64,
    /// Held documents dropped, and answered as a miss, because they did
    /// not begin with the requesting scenario's own text: a fingerprint
    /// collision, or a stale or misfiled cache file. 0 on a healthy
    /// daemon.
    pub verify_misses: u64,
    /// Admitted jobs whose result is not ready yet, over all
    /// connections (instantaneous gauge; 0 on an idle daemon).
    pub queue_depth: u64,
    /// Requests refused with a `shed` reply because they would have
    /// pushed `queue_depth` past `--queue-cap`.
    pub shed: u64,
    /// Per-verb counters and latency quantiles, in [`VERBS`] order.
    pub verbs: Vec<(String, VerbMetrics)>,
}

impl ServerMetrics {
    fn to_json_value(&self) -> Json {
        let verbs = self
            .verbs
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("requests".into(), Json::u64(m.requests)),
                        ("p50_ms".into(), m.p50_ms.map_or(Json::Null, Json::f64)),
                        ("p95_ms".into(), m.p95_ms.map_or(Json::Null, Json::f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("kind".into(), Json::str("metrics")),
            ("requests".into(), Json::u64(self.requests)),
            ("parse_errors".into(), Json::u64(self.parse_errors)),
            ("served".into(), Json::u64(self.served)),
            ("computed".into(), Json::u64(self.computed)),
            ("memo_hits".into(), Json::u64(self.memo_hits)),
            ("disk_hits".into(), Json::u64(self.disk_hits)),
            ("hit_rate".into(), Json::f64(self.hit_rate)),
            ("cache_evictions".into(), Json::u64(self.cache_evictions)),
            ("cache_bytes".into(), Json::u64(self.cache_bytes)),
            ("verify_misses".into(), Json::u64(self.verify_misses)),
            ("queue_depth".into(), Json::u64(self.queue_depth)),
            ("shed".into(), Json::u64(self.shed)),
            ("verbs".into(), Json::Obj(verbs)),
        ])
    }

    fn from_json_value(v: &Json) -> Result<Self, String> {
        let n = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("metrics field '{key}' missing"))
        };
        let Some(Json::Obj(pairs)) = v.get("verbs") else {
            return Err("metrics field 'verbs' missing or not an object".into());
        };
        let verbs = pairs
            .iter()
            .map(|(name, m)| {
                let requests = m
                    .get("requests")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("verb '{name}' has no 'requests'"))?;
                Ok((
                    name.clone(),
                    VerbMetrics {
                        requests,
                        p50_ms: m.get("p50_ms").and_then(Json::as_f64),
                        p95_ms: m.get("p95_ms").and_then(Json::as_f64),
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ServerMetrics {
            requests: n("requests")?,
            parse_errors: n("parse_errors")?,
            served: n("served")?,
            computed: n("computed")?,
            memo_hits: n("memo_hits")?,
            disk_hits: n("disk_hits")?,
            hit_rate: v
                .get("hit_rate")
                .and_then(Json::as_f64)
                .ok_or("metrics field 'hit_rate' missing")?,
            cache_evictions: n("cache_evictions")?,
            cache_bytes: n("cache_bytes")?,
            // Absent on a daemon that predates the verifying store.
            verify_misses: n("verify_misses").unwrap_or(0),
            queue_depth: n("queue_depth")?,
            shed: n("shed")?,
            verbs,
        })
    }
}

/// A parsed server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One evaluated scenario.
    Result {
        /// Position in the request's expansion order (0 for `eval`).
        index: usize,
        /// Cache layer that served it.
        source: Source,
        /// The `EvalResult` JSON document, byte-identical to
        /// `EvalResult::to_json`.
        doc: String,
    },
    /// End of a sweep's result stream.
    Done {
        /// Number of result lines that preceded this.
        count: usize,
    },
    /// Daemon counters.
    Status(ServerStatus),
    /// Per-verb serving metrics.
    Metrics(ServerMetrics),
    /// Shutdown acknowledged.
    Bye,
    /// The request was refused by admission control because its jobs
    /// would have pushed the in-flight count past `--queue-cap`. Nothing
    /// was evaluated; the client should back off and retry. The
    /// connection stays usable.
    Shed {
        /// Human-readable cause.
        reason: String,
        /// Jobs in flight when the request was refused.
        queue_depth: u64,
        /// The in-flight bound (`--queue-cap`).
        limit: u64,
        /// The daemon's backoff hint: how long the client should wait
        /// before one retry. Deterministic in the refusal state (a pure
        /// function of `queue_depth` and `limit`), so replayed chaos
        /// runs retry on the same schedule.
        retry_after_ms: u64,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable cause.
        error: String,
    },
}

impl Response {
    /// Serializes the response to its wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Response::Result { index, source, doc } => format!(
                r#"{{"kind":"result","index":{index},"source":"{}","result":{doc}}}"#,
                source.label()
            ),
            Response::Done { count } => format!(r#"{{"kind":"done","count":{count}}}"#),
            Response::Status(s) => s.to_json_value().to_string(),
            Response::Metrics(m) => m.to_json_value().to_string(),
            Response::Bye => r#"{"kind":"bye"}"#.into(),
            Response::Shed {
                reason,
                queue_depth,
                limit,
                retry_after_ms,
            } => Json::Obj(vec![
                ("kind".into(), Json::str("shed")),
                ("reason".into(), Json::str(reason.clone())),
                ("queue_depth".into(), Json::u64(*queue_depth)),
                ("limit".into(), Json::u64(*limit)),
                ("retry_after_ms".into(), Json::u64(*retry_after_ms)),
            ])
            .to_string(),
            Response::Error { error } => Json::Obj(vec![
                ("kind".into(), Json::str("error")),
                ("error".into(), Json::str(error.clone())),
            ])
            .to_string(),
        }
    }

    /// Parses one response line (used by the client).
    ///
    /// The `result` member is re-serialized through the same canonical
    /// writer the server used, so `doc` is byte-identical to the
    /// server's copy.
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed response: {e}"))?;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("response field 'kind' missing")?;
        match kind {
            "result" => Ok(Response::Result {
                index: v
                    .get("index")
                    .and_then(Json::as_usize)
                    .ok_or("result field 'index' missing")?,
                source: v
                    .get("source")
                    .and_then(Json::as_str)
                    .and_then(Source::from_label)
                    .ok_or("result field 'source' missing or unknown")?,
                doc: v
                    .get("result")
                    .ok_or("result field 'result' missing")?
                    .to_string(),
            }),
            "done" => Ok(Response::Done {
                count: v
                    .get("count")
                    .and_then(Json::as_usize)
                    .ok_or("done field 'count' missing")?,
            }),
            "status" => Ok(Response::Status(ServerStatus::from_json_value(&v)?)),
            "metrics" => Ok(Response::Metrics(ServerMetrics::from_json_value(&v)?)),
            "bye" => Ok(Response::Bye),
            "shed" => Ok(Response::Shed {
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("overloaded")
                    .to_string(),
                queue_depth: v
                    .get("queue_depth")
                    .and_then(Json::as_u64)
                    .ok_or("shed field 'queue_depth' missing")?,
                limit: v
                    .get("limit")
                    .and_then(Json::as_u64)
                    .ok_or("shed field 'limit' missing")?,
                // Absent on a daemon that predates the hint: no hint,
                // retry immediately at the client's discretion.
                retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(0),
            }),
            "error" => Ok(Response::Error {
                error: v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified server error")
                    .to_string(),
            }),
            other => Err(format!("unknown response kind '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procrustes_core::SparsityGen;

    #[test]
    fn request_roundtrip() {
        let scenario = Scenario::builder("VGG-S")
            .sparsity(SparsityGen::PaperSynthetic { seed: 3 })
            .build()
            .unwrap();
        let reqs = [
            Request::Eval(Box::new(scenario)),
            Request::Sweep(Box::new(
                Sweep::new().networks(["VGG-S", "DenseNet"]).batches([2]),
            )),
            Request::Status,
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in &reqs {
            let line = req.to_json();
            let back = Request::parse_line(&line).unwrap();
            assert_eq!(back.to_json(), line);
        }
    }

    #[test]
    fn request_parse_rejects_hostile_lines() {
        for bad in [
            "",
            "nonsense",
            "[]",
            "42",
            r#"{"op":"teapot"}"#,
            r#"{"scenario":{}}"#,
            r#"{"op":"eval"}"#,
            r#"{"op":"eval","scenario":{"network":"VGG-S"},"extra":1}"#,
            r#"{"op":"eval","scenario":{"network":"VGG-S"},"route":"everywhere"}"#,
            r#"{"op":"eval","scenario":{"network":"VGG-S"},"route":7}"#,
            r#"{"op":"status","verbose":true}"#,
            r#"{"op":"sweep","sweep":{"networks":["VGG-S"],"mapings":["KN"]}}"#,
            r#"{"op":"search"}"#,
            r#"{"op":"search","spec":{"space":{"networks":["VGG-S"]},"seeed":1}}"#,
            r#"{"op":"search","spec":{"space":{"networks":["VGG-S"]},"objectives":["speed"]}}"#,
            r#"{"op":"metrics","verbose":true}"#,
            // No verb installs a document, however well formed.
            r#"{"op":"store"}"#,
            r#"{"op":"store","fp":"00ab","result":{"cycles":1}}"#,
        ] {
            assert!(Request::parse_line(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let responses = [
            Response::Result {
                index: 3,
                source: Source::Disk,
                doc: r#"{"cycles":42}"#.into(),
            },
            Response::Done { count: 4 },
            Response::Shed {
                reason: "shard queue full".into(),
                queue_depth: 512,
                limit: 512,
                retry_after_ms: 150,
            },
            Response::Metrics(ServerMetrics {
                requests: 9,
                parse_errors: 1,
                served: 6,
                computed: 4,
                memo_hits: 2,
                disk_hits: 0,
                hit_rate: 1.0 / 3.0,
                cache_evictions: 7,
                cache_bytes: 4096,
                verify_misses: 1,
                queue_depth: 3,
                shed: 1,
                verbs: VERBS
                    .iter()
                    .map(|&verb| {
                        (
                            verb.to_string(),
                            VerbMetrics {
                                requests: u64::from(verb == "eval"),
                                p50_ms: (verb == "eval").then_some(1.25),
                                p95_ms: (verb == "eval").then_some(2.5),
                            },
                        )
                    })
                    .collect(),
            }),
            Response::Status(ServerStatus {
                shards: 4,
                persistent: true,
                requests: 10,
                served: 9,
                computed: 5,
                memo_hits: 3,
                disk_hits: 1,
                memo_entries: 5,
                disk_entries: Some(5),
            }),
            Response::Bye,
            Response::Error {
                error: "quoted \"cause\"".into(),
            },
        ];
        for r in &responses {
            let line = r.to_json();
            assert_eq!(&Response::parse_line(&line).unwrap(), r, "{line}");
        }
        // Ephemeral status (no cache dir) has a null disk_entries.
        let line = Response::Status(ServerStatus::default()).to_json();
        let Response::Status(s) = Response::parse_line(&line).unwrap() else {
            panic!("status expected");
        };
        assert_eq!(s.disk_entries, None);
    }
}
