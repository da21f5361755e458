//! Backpressure coverage: a request whose jobs would overflow a bounded
//! queue is refused as a unit with a structured `shed` reply — nothing
//! is evaluated, the connection stays usable, and the refusal is
//! counted. `procrustes-cli` retries a shed request exactly once.

mod common;

use std::io::Write;
use std::process::{Command, Stdio};

use procrustes_core::{Scenario, SparsityGen, Sweep, PAPER_NETWORKS};
use procrustes_serve::{Client, ClientError, ServeConfig};
use procrustes_sim::Mapping;

#[test]
fn oversweep_is_shed_whole_and_the_daemon_keeps_serving() {
    // One shard with a 4-job queue: a 40-scenario sweep can never be
    // admitted, deterministically (admission is planned-jobs vs cap,
    // not a timing race).
    let (addr, server) = common::start(ServeConfig {
        shards: 1,
        queue_cap: 4,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    let sweep = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }]);
    match client.sweep(&sweep) {
        Err(ClientError::Shed {
            reason,
            retry_after_ms,
            queue_depth,
            limit,
        }) => {
            assert!(!reason.is_empty(), "shed replies carry a reason");
            assert!(
                (1..=1000).contains(&retry_after_ms),
                "shed replies carry a bounded backoff hint, got {retry_after_ms}"
            );
            assert_eq!(limit, 4, "shed replies carry the daemon's cap");
            assert_eq!(
                queue_depth, 0,
                "the queue was empty; the sweep was just too big"
            );
        }
        other => panic!("expected a shed reply, got {other:?}"),
    }

    // Nothing was dispatched: no scenario from the shed sweep was
    // computed, and the connection is still fully usable.
    let status = client.status().unwrap();
    assert_eq!(status.computed, 0, "a shed request evaluates nothing");
    assert_eq!(status.served, 0);

    let scenario = Scenario::builder("VGG-S").build().unwrap();
    let served = client.eval(&scenario).unwrap();
    assert!(!served.doc.is_empty(), "small requests still serve");

    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.shed, 1, "the refusal is counted");
    assert_eq!(metrics.queue_depth, 0, "queues are drained");

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn cli_retries_a_shed_sweep_once_then_fails() {
    // The same too-big sweep as above, sent through `procrustes-cli`:
    // it is shed, retried once after the daemon's hint, shed again, and
    // the CLI gives up without printing a result.
    let (addr, server) = common::start(ServeConfig {
        shards: 1,
        queue_cap: 4,
        ..ServeConfig::default()
    });
    let sweep = Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }]);
    let mut cli = Command::new(env!("CARGO_BIN_EXE_procrustes-cli"))
        .args(["--addr", &addr.to_string(), "sweep", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    cli.stdin
        .take()
        .unwrap()
        .write_all(sweep.to_json().as_bytes())
        .unwrap();
    let out = cli.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a twice-shed sweep fails: {stderr}");
    assert!(out.stdout.is_empty(), "a shed sweep prints no result");
    assert_eq!(
        stderr.matches("shed by daemon").count(),
        1,
        "exactly one retry is announced: {stderr}"
    );

    let mut client = Client::connect(addr).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.shed, 2, "the attempt and its one retry");
    assert_eq!(metrics.computed, 0, "a shed request evaluates nothing");
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn admitted_requests_up_to_the_cap_still_serve() {
    // A sweep exactly at the cap is admitted and fully served.
    let (addr, server) = common::start(ServeConfig {
        shards: 1,
        queue_cap: 8,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let sweep = Sweep::new()
        .networks(["VGG-S", "ResNet18"])
        .mappings(Mapping::ALL); // 2 × 4 = 8 scenarios == cap
    let served = client.sweep(&sweep).unwrap();
    assert_eq!(served.len(), 8);
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.shed, 0);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}
