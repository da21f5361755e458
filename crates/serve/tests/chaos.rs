//! Chaos coverage: a daemon under a seeded fault-injection schedule must
//! serve the paper's evaluation sweep bit-identical to the in-process
//! engine. Forced sheds are absorbed by the client's retry loop, and a
//! daemon restarted onto a cache whose reads come back corrupt quietly
//! recomputes exactly the corrupted entries — faults may cost work and
//! time, never a served byte.

mod common;

use std::net::SocketAddr;
use std::time::Duration;

use procrustes_core::{Engine, SparsityGen, Sweep, PAPER_NETWORKS};
use procrustes_serve::{Client, ClientError, FaultPlan, ServeConfig, Served};
use procrustes_sim::Mapping;

/// The Fig 17–19 evaluation shape: 5 networks × 4 dataflows × 2
/// sparsities = 40 scenarios.
fn fig_sweep() -> Sweep {
    Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
}

fn expected_docs() -> Vec<String> {
    let scenarios = fig_sweep().build().unwrap();
    let reference = Engine::default().run_all(&scenarios).unwrap();
    reference.iter().map(|r| r.to_json()).collect()
}

fn assert_bit_identical(served: &[Served], expected: &[String], tag: &str) {
    assert_eq!(served.len(), expected.len(), "{tag}: result count");
    for (i, result) in served.iter().enumerate() {
        assert_eq!(result.index, i, "{tag}: stream order");
        assert_eq!(result.doc, expected[i], "{tag}: scenario {i} diverged");
    }
}

/// Submits a sweep, honoring `shed` replies the way `procrustes-cli`
/// does: back off by the daemon's `retry_after_ms` hint and try again
/// (bounded, so a pathological schedule fails the test instead of
/// hanging it).
fn sweep_with_retry(addr: SocketAddr, sweep: &Sweep) -> Vec<Served> {
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..10 {
        match client.sweep(sweep) {
            Ok(served) => return served,
            Err(ClientError::Shed { retry_after_ms, .. }) => {
                assert!(
                    (1..=1000).contains(&retry_after_ms),
                    "shed hints are bounded, got {retry_after_ms}"
                );
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(500)));
            }
            Err(e) => panic!("sweep failed under faults: {e}"),
        }
    }
    panic!("sweep shed more than 10 times in a row");
}

#[test]
fn forced_sheds_are_retried_to_a_bit_identical_sweep() {
    let expected = expected_docs();
    let (addr, handle) = common::start(ServeConfig {
        shards: 2,
        fault_plan: Some(FaultPlan::parse("seed=11; forced_shed=0..2").unwrap()),
        ..ServeConfig::default()
    });

    // The first two submissions are refused whole; the third runs.
    let served = sweep_with_retry(addr, &fig_sweep());
    assert_bit_identical(&served, &expected, "sweep through forced sheds");

    let mut client = Client::connect(addr).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.faults_injected, 2, "the shed window fires twice");
    assert_eq!(metrics.shed, 2, "each firing is one refused request");
    assert_eq!(metrics.queue_depth, 0, "queues drain after the sweep");
    assert_eq!(
        metrics.served,
        expected.len() as u64,
        "a shed request streams nothing"
    );
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn corrupt_cache_reads_are_recomputed_to_a_bit_identical_sweep() {
    let expected = expected_docs();
    let dir = common::tmp_dir("chaos-corrupt");
    let config = |fault_plan: Option<&str>| ServeConfig {
        shards: 2,
        cache_dir: Some(dir.clone()),
        fault_plan: fault_plan.map(|spec| FaultPlan::parse(spec).unwrap()),
        ..ServeConfig::default()
    };

    // Warm the cache directory: every scenario computed and written.
    let (addr, handle) = common::start(config(None));
    let mut client = Client::connect(addr).unwrap();
    let served = client.sweep(&fig_sweep()).unwrap();
    assert_bit_identical(&served, &expected, "cold sweep");
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    // Restart on it with the first four disk reads observing a torn
    // entry: those four read as misses and are recomputed, the rest
    // come back from disk.
    const CORRUPTED: u64 = 4;
    let (addr, handle) = common::start(config(Some("seed=44; cache_corrupt=0..4")));
    let mut client = Client::connect(addr).unwrap();
    let served = client.sweep(&fig_sweep()).unwrap();
    assert_bit_identical(&served, &expected, "restart over a corrupted cache");
    let metrics = client.metrics().unwrap();
    assert_eq!(
        metrics.faults_injected, CORRUPTED,
        "the corrupt window fires on exactly its four scheduled reads"
    );
    assert_eq!(
        metrics.computed, CORRUPTED,
        "each corrupted read is recomputed, and nothing else"
    );
    assert_eq!(metrics.disk_hits, expected.len() as u64 - CORRUPTED);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}
