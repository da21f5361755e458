//! Non-blocking throughput smoke: N concurrent loopback clients hammer
//! the daemon with an identical sweep; a cached re-run must recompute
//! nothing. Run explicitly (`cargo test -p procrustes-serve -- --ignored
//! --nocapture`) — CI's non-blocking perf job does, the merge-gating
//! matrix does not, per the noisy-shared-runner policy (wall-clock
//! numbers are printed, only the cache-behaviour invariants assert).

mod common;

use std::thread;
use std::time::Instant;

use procrustes_core::{SparsityGen, Sweep};
use procrustes_serve::{Client, ServeConfig};
use procrustes_sim::Mapping;

fn smoke_sweep() -> Sweep {
    Sweep::new()
        .networks(["VGG-S", "ResNet18"])
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 5 }])
        .batches([4])
}

#[test]
#[ignore = "perf smoke; exercised by the non-blocking CI perf job"]
fn concurrent_clients_throughput_and_cached_rerun() {
    const CLIENTS: usize = 8;
    let cache_dir = common::tmp_dir("throughput");
    let (addr, server) = common::start(ServeConfig {
        shards: 4,
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    });
    let cardinality = smoke_sweep().cardinality();

    // Cold run: every scenario computes exactly once.
    let cold = Instant::now();
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.sweep(&smoke_sweep()).unwrap().len(), cardinality);
    let cold = cold.elapsed();
    assert_eq!(client.status().unwrap().computed as usize, cardinality);

    // Hot run: N concurrent clients, all answered from the caches.
    let hot = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.sweep(&smoke_sweep()).expect("sweep").len()
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), cardinality);
    }
    let hot = hot.elapsed();

    let status = client.status().unwrap();
    assert_eq!(
        status.computed as usize, cardinality,
        "cached re-runs must not recompute"
    );
    let results = CLIENTS * cardinality;
    println!(
        "throughput smoke: cold sweep ({cardinality} scenarios) {cold:?}; \
         {CLIENTS} concurrent cached sweeps ({results} results) {hot:?} \
         (~{:.0} results/s)",
        results as f64 / hot.as_secs_f64().max(1e-9)
    );

    // The metrics verb reflects the real serving numbers: N+1 sweeps
    // with real latency samples, and a hot cache.
    let metrics = client.metrics().unwrap();
    let sweep_verb = metrics
        .verbs
        .iter()
        .find(|(v, _)| v == "sweep")
        .map(|(_, m)| *m)
        .unwrap();
    assert_eq!(sweep_verb.requests as usize, CLIENTS + 1);
    let p50 = sweep_verb.p50_ms.expect("sweep latency tracked");
    let p95 = sweep_verb.p95_ms.expect("sweep latency tracked");
    assert!(p50 > 0.0 && p95 > 0.0, "p50 {p50}ms p95 {p95}ms");
    assert_eq!(metrics.computed as usize, cardinality);
    assert_eq!(
        metrics.memo_hits as usize,
        CLIENTS * cardinality,
        "hot sweeps must be pure memo traffic"
    );
    assert!(
        metrics.hit_rate > 0.8,
        "hit rate {} after {CLIENTS} cached re-runs",
        metrics.hit_rate
    );
    // Cache-budget pressure counters: this daemon runs with an
    // unbounded disk cache, so nothing was evicted and every computed
    // result is still on disk (cached bytes grow with the cold sweep).
    assert_eq!(metrics.cache_evictions, 0, "unbounded cache must not evict");
    assert!(
        metrics.cache_bytes > 0,
        "cold sweep must leave bytes in the disk cache"
    );
    // Backpressure gauges on a busy daemon: everything was admitted
    // (no shedding), and the queues fully drained once the sweeps
    // completed.
    assert_eq!(metrics.queue_depth, 0, "queues drain after the sweeps");
    assert_eq!(metrics.shed, 0, "default caps admit the smoke sweep");
    println!(
        "metrics smoke: sweep p50 {p50:.1}ms p95 {p95:.1}ms, hit rate {:.3}, \
         queue_depth {} shed {}",
        metrics.hit_rate, metrics.queue_depth, metrics.shed
    );

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
