//! Wire timing: no message waits on a delayed ACK, and a client deadline
//! bounds a daemon that never answers.
//!
//! Both ends run `TCP_NODELAY` and send each message in one write.
//! Without that, a `Client` round trip or a warm 40-result sweep waits
//! on the peer's delayed-ACK timer, ~44 ms on Linux loopback, against
//! well under a millisecond with it. The 20 ms bounds sit between the
//! two, far from both.

mod common;

use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::process::{Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use procrustes_core::{Fidelity, Scenario, SparsityGen, Sweep, PAPER_NETWORKS};
use procrustes_serve::{Client, ClientError, ServeConfig, Source};
use procrustes_sim::Mapping;

/// Far above a round trip on loopback, far below a delayed ACK.
const STALL: Duration = Duration::from_millis(20);

/// The read timeout the deadline tests set.
const TIMEOUT: Duration = Duration::from_millis(200);

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// A peer that accepts one connection and never answers. It reads until
/// the client hangs up and returns the number of lines it received. It
/// hangs up itself after 25 timeouts, so a client that ignores its
/// timeout fails on the hang-up instead of blocking the test.
fn silent_peer() -> (SocketAddr, JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept one connection");
        stream.set_read_timeout(Some(25 * TIMEOUT)).unwrap();
        let mut received = Vec::new();
        let _ = stream.read_to_end(&mut received);
        received.iter().filter(|&&b| b == b'\n').count()
    });
    (addr, peer)
}

#[test]
fn a_status_round_trip_does_not_wait_on_a_delayed_ack() {
    let (addr, server) = common::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client.status().unwrap();
    let round_trips = (0..9)
        .map(|_| {
            let started = Instant::now();
            client.status().unwrap();
            started.elapsed()
        })
        .collect();
    let p50 = median(round_trips);
    assert!(
        p50 < STALL,
        "a status round trip took {p50:?} (p50 of 9): a request line waits on a delayed ACK"
    );
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn a_warm_figure_sweep_does_not_wait_on_delayed_acks() {
    let (addr, server) = common::start(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    // The benchmark's Figs 17-20 grid at one fidelity: 40 scenarios,
    // so a warm sweep is 41 reply lines.
    let sweep = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 7 }])
        .fidelities([Fidelity::Analytic]);
    let mut client = Client::connect(addr).unwrap();
    let cold = client.sweep(&sweep).unwrap();
    assert_eq!(cold.len(), 40);
    let sweeps = (0..5)
        .map(|_| {
            let started = Instant::now();
            let warm = client.sweep(&sweep).unwrap();
            let elapsed = started.elapsed();
            assert!(warm.iter().all(|r| r.source == Source::Memo));
            assert!(warm.iter().map(|r| &r.doc).eq(cold.iter().map(|r| &r.doc)));
            elapsed
        })
        .collect();
    let p50 = median(sweeps);
    assert!(
        p50 < STALL,
        "a warm 40-result sweep took {p50:?} (p50 of 5): reply lines wait on delayed ACKs"
    );
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn a_read_timeout_fails_an_unanswered_eval_once() {
    let (addr, peer) = silent_peer();
    let mut client = Client::connect(addr).unwrap();
    client.set_read_timeout(Some(TIMEOUT)).unwrap();
    let scenario = Scenario::builder("VGG-S").build().unwrap();
    let started = Instant::now();
    let outcome = client.eval(&scenario);
    let elapsed = started.elapsed();
    match outcome {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut, "{e}"),
        other => panic!("expected a timed-out Io error, got {other:?}"),
    }
    assert!(
        elapsed < 2 * TIMEOUT,
        "the eval failed after {elapsed:?}, over twice its {TIMEOUT:?} timeout"
    );
    drop(client);
    assert_eq!(peer.join().unwrap(), 1, "a timed-out request is not resent");
}

#[test]
fn cli_timeout_fails_an_unanswered_eval_without_a_retry() {
    let (addr, peer) = silent_peer();
    let scenario = Scenario::builder("VGG-S").build().unwrap();
    let started = Instant::now();
    let mut cli = Command::new(env!("CARGO_BIN_EXE_procrustes-cli"))
        .args(["--addr", &addr.to_string(), "--timeout", "0.2", "eval", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    std::io::Write::write_all(
        &mut cli.stdin.take().unwrap(),
        scenario.to_json().as_bytes(),
    )
    .unwrap();
    let out = cli.wait_with_output().unwrap();
    let elapsed = started.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "an unanswered eval fails: {stderr}");
    assert!(stderr.contains("read timeout"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing was served");
    assert!(
        elapsed < 2 * TIMEOUT,
        "the CLI gave up after {elapsed:?}, over twice its {TIMEOUT:?} timeout"
    );
    assert_eq!(
        peer.join().unwrap(),
        1,
        "a timed-out request is not retried"
    );
}
