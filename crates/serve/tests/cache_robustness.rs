//! Cache robustness: a corrupt, truncated, or partially-written cache
//! entry is never fatal — the daemon skips it and recomputes — the LRU
//! byte budget holds under concurrent writers, and a budgeted ring fails
//! over within its budget (the survivor recomputes, evicts and still
//! serves the same bytes).

mod common;

use std::thread;

use procrustes_core::{Engine, Scenario, SparsityGen, Sweep};
use procrustes_serve::{ring_order, Client, DiskCache, ServeConfig, Source};
use procrustes_sim::Mapping;

fn scenario(seed: u64) -> Scenario {
    Scenario::builder("VGG-S")
        .sparsity(SparsityGen::PaperSynthetic { seed })
        .build()
        .unwrap()
}

#[test]
fn corrupt_and_truncated_entries_are_recomputed_not_fatal() {
    let cache_dir = common::tmp_dir("corrupt");
    std::fs::create_dir_all(&cache_dir).unwrap();

    let healthy = scenario(1);
    let corrupt = scenario(2);
    let truncated = scenario(3);
    let empty = scenario(4);
    let misfiled = scenario(5);
    let expected: Vec<String> = [&healthy, &corrupt, &truncated, &empty, &misfiled]
        .iter()
        .map(|s| Engine::default().run(s).unwrap().to_json())
        .collect();

    // Seed the directory: one healthy entry, one garbage entry, one
    // entry truncated mid-document (a simulated torn write that dodged
    // the tmp+rename protocol), one empty file, and one intact document
    // sitting under another scenario's fingerprint (a misfiled or stale
    // file, or a 64-bit collision).
    let entry = |s: &Scenario| cache_dir.join(format!("{:016x}.json", s.fingerprint()));
    std::fs::write(entry(&healthy), &expected[0]).unwrap();
    std::fs::write(entry(&corrupt), "not json at all {{{").unwrap();
    std::fs::write(entry(&truncated), &expected[2][..expected[2].len() / 2]).unwrap();
    std::fs::write(entry(&empty), "").unwrap();
    std::fs::write(entry(&misfiled), &expected[0]).unwrap();

    let (addr, server) = common::start(ServeConfig {
        shards: 2,
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();

    let healthy_served = client.eval(&healthy).unwrap();
    assert_eq!(
        healthy_served.source,
        Source::Disk,
        "healthy entries serve from disk"
    );
    assert_eq!(healthy_served.doc, expected[0]);
    for (s, want) in [
        (&corrupt, &expected[1]),
        (&truncated, &expected[2]),
        (&empty, &expected[3]),
        (&misfiled, &expected[4]),
    ] {
        let served = client.eval(s).unwrap();
        assert_eq!(served.source, Source::Computed, "bad entries recompute");
        assert_eq!(&served.doc, want, "recomputed document is canonical");
    }
    // Only the misfiled one got as far as the scenario check.
    assert_eq!(client.metrics().unwrap().verify_misses, 1);

    // The recomputed documents were re-cached: a restart serves all
    // five from disk, bit-identically.
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    let (addr, server) = common::start(ServeConfig {
        shards: 2,
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    for (s, want) in [&healthy, &corrupt, &truncated, &empty, &misfiled]
        .iter()
        .zip(&expected)
    {
        let served = client.eval(s).unwrap();
        assert_eq!(served.source, Source::Disk, "repaired entries persist");
        assert_eq!(&served.doc, want);
    }
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn eviction_respects_the_byte_budget_under_concurrent_writers() {
    let cache_dir = common::tmp_dir("budget");
    // Docs are ~100 bytes; a 2000-byte budget holds ~20 of them.
    const BUDGET: u64 = 2000;
    let cache = DiskCache::open_with_budget(&cache_dir, Some(BUDGET)).unwrap();

    let writers: Vec<_> = (0..8u64)
        .map(|w| {
            let cache = cache.clone();
            thread::spawn(move || {
                for i in 0..50u64 {
                    let fp = w * 1000 + i;
                    let doc = format!(
                        "{{\"writer\":{w},\"i\":{i},\"pad\":\"{}\"}}",
                        "x".repeat(64)
                    );
                    cache.put(fp, &doc).unwrap();
                    // Interleave reads so LRU touch ordering is exercised
                    // concurrently with eviction.
                    let _ = cache.get(fp.saturating_sub(3));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    assert!(
        cache.total_bytes() <= BUDGET,
        "index says {} bytes > budget {BUDGET}",
        cache.total_bytes()
    );
    assert!(
        cache.evictions() > 0,
        "400 writes into 2000 bytes must evict"
    );

    // The index's accounting must match the directory: no orphan files
    // survive eviction, and the on-disk bytes fit the budget too.
    let mut disk_bytes = 0;
    let mut disk_files = 0;
    for entry in std::fs::read_dir(&cache_dir).unwrap() {
        let entry = entry.unwrap();
        assert_eq!(
            entry.path().extension().and_then(|e| e.to_str()),
            Some("json"),
            "no stray files: {:?}",
            entry.path()
        );
        disk_bytes += entry.metadata().unwrap().len();
        disk_files += 1;
    }
    assert_eq!(disk_files, cache.entries(), "index and directory agree");
    assert!(disk_bytes <= BUDGET, "{disk_bytes} bytes on disk > budget");

    // Survivors still read back verbatim.
    let mut readable = 0;
    for w in 0..8u64 {
        for i in 0..50u64 {
            if let Some(doc) = cache.get(w * 1000 + i) {
                assert!(doc.contains(&format!("\"writer\":{w}")));
                readable += 1;
            }
        }
    }
    assert_eq!(readable, cache.entries(), "every indexed entry is readable");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_budgeted_ring_fails_over_bit_identically_within_the_budget() {
    // Two nodes whose disk caches hold only ~3 of the ~1.2 KB documents,
    // so nearly every write evicts. When one node dies, the survivor
    // recomputes the dead node's scenarios and writes them into the same
    // budget.
    const BUDGET: u64 = 4000;
    let sweep = Sweep::new()
        .networks(["VGG-S", "ResNet18"])
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }]);
    let scenarios = sweep.build().unwrap();
    let expected: Vec<String> = Engine::default()
        .run_all(&scenarios)
        .unwrap()
        .iter()
        .map(|r| r.to_json())
        .collect();

    let dirs: Vec<_> = (0..2)
        .map(|i| common::tmp_dir(&format!("ring-budget-{i}")))
        .collect();
    let configs: Vec<ServeConfig> = dirs
        .iter()
        .map(|dir| ServeConfig {
            shards: 2,
            cache_dir: Some(dir.clone()),
            cache_budget: Some(BUDGET),
            ..ServeConfig::default()
        })
        .collect();
    let (addrs, handles) = common::start_cluster(configs, &[]);
    let nodes: Vec<String> = addrs.iter().map(ToString::to_string).collect();

    let mut client0 = Client::connect(addrs[0]).unwrap();
    let served = client0.sweep(&sweep).unwrap();
    for (i, s) in served.iter().enumerate() {
        assert_eq!(s.doc, expected[i], "cold sweep scenario {i}");
    }

    // Kill the owner of the most scenarios; the survivor inherits them.
    let victim = (0..2usize)
        .max_by_key(|&v| {
            scenarios
                .iter()
                .filter(|s| ring_order(s.fingerprint(), &nodes)[0] == v)
                .count()
        })
        .unwrap();
    let victim_owned = scenarios
        .iter()
        .filter(|s| ring_order(s.fingerprint(), &nodes)[0] == victim)
        .count() as u64;
    assert!(victim_owned > 0, "the victim must own some scenarios");
    let survivor = 1 - victim;
    let computed_before = Client::connect(addrs[survivor])
        .unwrap()
        .status()
        .unwrap()
        .computed;

    let mut handles: Vec<Option<thread::JoinHandle<_>>> = handles.into_iter().map(Some).collect();
    Client::connect(addrs[victim]).unwrap().shutdown().unwrap();
    handles[victim].take().unwrap().join().unwrap().unwrap();

    // Failover sweep via the survivor: bit-identical, each victim-owned
    // scenario recomputed exactly once, and the disk tier still inside
    // its budget after the extra writes.
    let mut client = Client::connect(addrs[survivor]).unwrap();
    let served = client.sweep(&sweep).unwrap();
    for (i, s) in served.iter().enumerate() {
        assert_eq!(s.doc, expected[i], "failover sweep scenario {i}");
    }
    assert_eq!(
        client.status().unwrap().computed - computed_before,
        victim_owned,
        "the survivor recomputes each victim-owned scenario exactly once"
    );
    let metrics = client.metrics().unwrap();
    assert!(
        metrics.cache_evictions > 0,
        "the tight budget must have evicted"
    );
    assert!(
        metrics.cache_bytes <= BUDGET,
        "cache at {} bytes exceeds --cache-budget {BUDGET}",
        metrics.cache_bytes
    );

    client.shutdown().unwrap();
    handles[survivor].take().unwrap().join().unwrap().unwrap();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
