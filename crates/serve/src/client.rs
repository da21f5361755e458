//! The blocking client used by `procrustes-cli`, the loopback tests,
//! and embedders.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use procrustes_core::{Scenario, Sweep};

use crate::proto::{Request, Response, ServerMetrics, ServerStatus, Source};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke.
    Io(io::Error),
    /// The server sent something outside the protocol grammar.
    Protocol(String),
    /// The server answered with an `error` line.
    Server(String),
    /// The server refused the request with a `shed` line: a bounded
    /// queue was too full to admit it. The request was not evaluated at
    /// all — retrying later is safe.
    Shed {
        /// The daemon's explanation of which queue refused the request.
        reason: String,
        /// The daemon's backoff hint: wait this many milliseconds
        /// before retrying (0 from pre-hint daemons).
        retry_after_ms: u64,
        /// That queue's depth at refusal time.
        queue_depth: u64,
        /// The daemon's `--queue-cap`.
        limit: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Shed {
                reason,
                retry_after_ms,
                queue_depth,
                limit,
            } => write!(
                f,
                "request shed: {reason} (queue depth {queue_depth}, cap {limit}); \
                 not evaluated — safe to retry after {retry_after_ms} ms"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// What a line other than the one a call was waiting for (`wanted`)
    /// means to its caller: the daemon's `error` or `shed` refusal, or
    /// a line that has no place in the exchange.
    fn from_reply(reply: Response, wanted: &str) -> Self {
        match reply {
            Response::Error { error } => ClientError::Server(error),
            Response::Shed {
                reason,
                retry_after_ms,
                queue_depth,
                limit,
            } => ClientError::Shed {
                reason,
                retry_after_ms,
                queue_depth,
                limit,
            },
            other => ClientError::Protocol(format!("expected {wanted}, got {}", other.to_json())),
        }
    }
}

/// One result served by the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Position in the request's sweep-expansion order (0 for `eval`).
    pub index: usize,
    /// Cache layer that served it (computed, memo, or disk).
    pub source: Source,
    /// The `EvalResult` JSON document, byte-identical to what
    /// `EvalResult::to_json` produces in-process.
    pub doc: String,
}

/// A blocking connection to a [`Server`](crate::Server).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one raw line (a newline is appended) without reading a
    /// response. Exposed for protocol tests.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads and parses the next response line.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on EOF/socket errors, [`ClientError::Protocol`]
    /// when the line is outside the grammar.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Response::parse_line(line.trim_end()).map_err(ClientError::Protocol)
    }

    /// Sends a request and returns the first response line.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send_raw(&request.to_json())?;
        self.read_response()
    }

    /// Evaluates one scenario on the daemon.
    ///
    /// # Errors
    ///
    /// Server-rejected scenarios surface as [`ClientError::Server`] with
    /// the daemon's message.
    pub fn eval(&mut self, scenario: &Scenario) -> Result<Served, ClientError> {
        let request = Request::Eval(Box::new(scenario.clone()));
        match self.roundtrip(&request)? {
            Response::Result { index, source, doc } => Ok(Served { index, source, doc }),
            other => Err(ClientError::from_reply(other, "a result line")),
        }
    }

    /// Submits a sweep and invokes `on_result` for every result line as
    /// it streams in (in expansion order). Returns the served count from
    /// the terminating `done` line.
    ///
    /// # Errors
    ///
    /// A sweep the daemon refuses (parse error, oversized cardinality)
    /// surfaces as [`ClientError::Server`], and one refused for
    /// overload as [`ClientError::Shed`], before `on_result` is called.
    pub fn sweep_each(
        &mut self,
        sweep: &Sweep,
        mut on_result: impl FnMut(Served),
    ) -> Result<usize, ClientError> {
        self.send_raw(&Request::Sweep(Box::new(sweep.clone())).to_json())?;
        loop {
            match self.read_response()? {
                Response::Result { index, source, doc } => {
                    on_result(Served { index, source, doc });
                }
                Response::Done { count } => return Ok(count),
                other => return Err(ClientError::from_reply(other, "a sweep stream line")),
            }
        }
    }

    /// Submits a sweep and collects every served result.
    ///
    /// # Errors
    ///
    /// See [`Client::sweep_each`].
    pub fn sweep(&mut self, sweep: &Sweep) -> Result<Vec<Served>, ClientError> {
        let mut results = Vec::new();
        let count = self.sweep_each(sweep, |served| results.push(served))?;
        if results.len() != count {
            return Err(ClientError::Protocol(format!(
                "done line reports {count} results but {} streamed",
                results.len()
            )));
        }
        Ok(results)
    }

    /// Fetches the per-verb serving metrics.
    ///
    /// # Errors
    ///
    /// See [`Client::eval`].
    pub fn metrics(&mut self) -> Result<ServerMetrics, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(metrics) => Ok(metrics),
            other => Err(ClientError::from_reply(other, "a metrics line")),
        }
    }

    /// Fetches the daemon counters.
    ///
    /// # Errors
    ///
    /// See [`Client::eval`].
    pub fn status(&mut self) -> Result<ServerStatus, ClientError> {
        match self.roundtrip(&Request::Status)? {
            Response::Status(status) => Ok(status),
            other => Err(ClientError::from_reply(other, "a status line")),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::eval`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::from_reply(other, "a bye line")),
        }
    }
}
