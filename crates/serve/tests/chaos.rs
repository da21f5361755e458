//! Chaos coverage: a ring of daemons under a seeded fault-injection
//! schedule (refused dials, read/write timeouts, mid-line drops, forced
//! sheds, slow-peer stalls) must complete the paper's evaluation sweep
//! bit-identical to the in-process engine — faults may move work and
//! delay replies, never change a served byte. A killed primary's
//! scenarios must be recomputed by their failover owners, exactly once
//! each and to the same bytes, and a daemon restarted onto a cache full
//! of corrupt-on-read entries must quietly recompute.

mod common;

use std::net::SocketAddr;
use std::time::Duration;

use procrustes_core::{Engine, SparsityGen, Sweep, PAPER_NETWORKS};
use procrustes_serve::{ring_order, Client, ClientError, FaultPlan, ServeConfig, Served};
use procrustes_sim::Mapping;

/// The Fig 17–19 evaluation shape: 5 networks × 4 dataflows × 2
/// sparsities = 40 scenarios.
fn fig_sweep() -> Sweep {
    Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
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

fn metrics_of(addr: SocketAddr) -> procrustes_serve::ServerMetrics {
    Client::connect(addr).unwrap().metrics().unwrap()
}

#[test]
fn faulted_ring_serves_the_paper_sweep_bit_identically() {
    let scenarios = fig_sweep().build().unwrap();
    let reference = Engine::default().run_all(&scenarios).unwrap();
    let expected: Vec<String> = reference.iter().map(|r| r.to_json()).collect();

    // Three nodes, three disjoint fault diets. Range rules guarantee
    // firings (so the assertions below are deterministic); probability
    // rules add seeded background chaos on top.
    let plans = [
        "seed=11; peer_dial_refused=0..2; slow_peer_stall=0.4; stall_ms=3",
        "seed=22; peer_read_timeout=0..2; peer_drop_mid_line=0.3",
        "seed=33; forced_shed=0..2; peer_write_timeout=0..1",
    ];
    let configs: Vec<ServeConfig> = plans
        .iter()
        .map(|spec| ServeConfig {
            shards: 2,
            fault_plan: Some(FaultPlan::parse(spec).unwrap()),
            ..ServeConfig::default()
        })
        .collect();
    let (addrs, handles) = common::start_cluster(configs, &[]);

    // One sweep through every node: each node's *outgoing* peer faults
    // only fire when that node is the one forwarding, and each node's
    // connection-level faults (forced shed, slow stall) only fire when
    // it receives a request.
    for (i, &addr) in addrs.iter().enumerate() {
        let served = sweep_with_retry(addr, &fig_sweep());
        assert_bit_identical(&served, &expected, &format!("faulted sweep via node {i}"));
    }

    let mut injected_total = 0;
    let mut degraded_total = 0;
    for (i, &addr) in addrs.iter().enumerate() {
        let m = metrics_of(addr);
        assert!(
            m.faults_injected > 0,
            "node {i}'s range rules guarantee at least one firing"
        );
        injected_total += m.faults_injected;
        degraded_total += m.degraded;
        assert_eq!(m.queue_depth, 0, "queues drain even under faults");
    }
    // peer_dial_refused=0..2 alone forces two refusals, each of which
    // completes the job somewhere other than its primary owner.
    assert!(injected_total >= 2, "got {injected_total} faults");
    assert!(
        degraded_total > 0,
        "refused dials must degrade some jobs off their primary"
    );

    for &addr in &addrs {
        Client::connect(addr).unwrap().shutdown().unwrap();
    }
    for handle in handles {
        handle.join().unwrap().unwrap();
    }
}

#[test]
fn killed_primary_fails_over_bit_identically_and_corrupt_cache_recovers() {
    let scenarios = fig_sweep().build().unwrap();
    let reference = Engine::default().run_all(&scenarios).unwrap();
    let expected: Vec<String> = reference.iter().map(|r| r.to_json()).collect();

    let dirs: Vec<_> = (0..3)
        .map(|i| common::tmp_dir(&format!("chaos-{i}")))
        .collect();
    let configs: Vec<ServeConfig> = dirs
        .iter()
        .map(|dir| ServeConfig {
            shards: 2,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .collect();
    let (addrs, handles) = common::start_cluster(configs, &[]);
    let nodes: Vec<String> = addrs.iter().map(ToString::to_string).collect();

    // Cold sweep: each of the 40 scenarios computed once, by its owner.
    let mut client0 = Client::connect(addrs[0]).unwrap();
    let served = client0.sweep(&fig_sweep()).unwrap();
    assert_bit_identical(&served, &expected, "cold sweep");

    // Kill the owner of the most scenarios (shutdown + join: the
    // in-process stand-in for SIGKILL — its port refuses connections
    // afterwards, exactly what the survivors' forwarders observe).
    let orders: Vec<Vec<usize>> = scenarios
        .iter()
        .map(|s| ring_order(s.fingerprint(), &nodes))
        .collect();
    let victim = (0..3)
        .max_by_key(|&v| orders.iter().filter(|o| o[0] == v).count())
        .unwrap();
    let victim_owned = orders.iter().filter(|o| o[0] == victim).count() as u64;
    assert!(victim_owned > 0, "the victim must own some scenarios");
    let survivors: Vec<usize> = (0..3).filter(|&i| i != victim).collect();
    let computed_before: Vec<u64> = survivors
        .iter()
        .map(|&i| {
            Client::connect(addrs[i])
                .unwrap()
                .status()
                .unwrap()
                .computed
        })
        .collect();

    let mut handles: Vec<Option<std::thread::JoinHandle<_>>> =
        handles.into_iter().map(Some).collect();
    Client::connect(addrs[victim]).unwrap().shutdown().unwrap();
    handles[victim].take().unwrap().join().unwrap().unwrap();

    // Failover sweep via a survivor: every victim-owned scenario fails
    // over to its next ring owner, which recomputes it — bit-identical
    // to the engine, and exactly once each; the survivors' own
    // scenarios still serve from their stores.
    let served = Client::connect(addrs[survivors[0]])
        .unwrap()
        .sweep(&fig_sweep())
        .unwrap();
    assert_bit_identical(&served, &expected, "failover sweep");

    let mut recomputed = 0;
    let mut degraded = 0;
    for (&i, &before) in survivors.iter().zip(&computed_before) {
        degraded += metrics_of(addrs[i]).degraded;
        let now = Client::connect(addrs[i])
            .unwrap()
            .status()
            .unwrap()
            .computed;
        recomputed += now - before;
    }
    assert_eq!(
        recomputed, victim_owned,
        "each victim-owned scenario is recomputed by a survivor exactly once"
    );
    assert_eq!(
        degraded, victim_owned,
        "each victim-owned scenario completes off-primary exactly once"
    );

    for &i in &survivors {
        Client::connect(addrs[i]).unwrap().shutdown().unwrap();
        handles[i].take().unwrap().join().unwrap().unwrap();
    }

    // Restart phase: bring a fresh daemon up on the victim's cache
    // directory with reads corrupting on a seeded window. Corrupt
    // entries read as misses (dropped and recomputed) — the sweep is
    // still bit-identical.
    let (addr, handle) = common::start(ServeConfig {
        shards: 2,
        cache_dir: Some(dirs[victim].clone()),
        fault_plan: Some(FaultPlan::parse("seed=44; cache_corrupt=0..4").unwrap()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let served = client.sweep(&fig_sweep()).unwrap();
    assert_bit_identical(&served, &expected, "restart over a corrupted cache");
    assert_eq!(
        client.metrics().unwrap().faults_injected,
        4,
        "the corrupt window fires on exactly its four scheduled reads"
    );
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
