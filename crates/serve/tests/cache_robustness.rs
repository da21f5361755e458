//! Cache robustness: a corrupt, truncated, or partially-written cache
//! entry is never fatal — the daemon skips it and recomputes — and the
//! LRU byte budget holds under concurrent writers.

mod common;

use std::thread;

use procrustes_core::{Engine, Scenario, SparsityGen};
use procrustes_serve::{Client, DiskCache, ServeConfig, Source};

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
