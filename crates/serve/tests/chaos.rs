//! Chaos coverage: a daemon restarted onto a cache directory whose entry
//! files were torn on disk must serve the paper's evaluation sweep
//! bit-identical to the in-process engine. It recomputes exactly the
//! torn entries and rewrites them — damage may cost work and time,
//! never a served byte.

mod common;

use std::fs;
use std::path::Path;

use procrustes_core::{Engine, SparsityGen, Sweep, PAPER_NETWORKS};
use procrustes_serve::{Client, ServeConfig, ServerMetrics};
use procrustes_sim::Mapping;

/// The Fig 17–19 evaluation shape: 5 networks × 4 dataflows × 2
/// sparsities = 40 scenarios.
fn fig_sweep() -> Sweep {
    Sweep::new()
        .networks(PAPER_NETWORKS)
        .mappings(Mapping::ALL)
        .sparsities([SparsityGen::Dense, SparsityGen::PaperSynthetic { seed: 1 }])
}

/// Starts a daemon on `dir`, serves the sweep, checks every document
/// against the in-process engine's, and stops the daemon, returning its
/// final metrics.
fn serve_sweep(dir: &Path, expected: &[String], tag: &str) -> ServerMetrics {
    let (addr, handle) = common::start(ServeConfig {
        shards: 2,
        cache_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let served = client.sweep(&fig_sweep()).unwrap();
    assert_eq!(served.len(), expected.len(), "{tag}: result count");
    for (i, result) in served.iter().enumerate() {
        assert_eq!(result.index, i, "{tag}: stream order");
        assert_eq!(result.doc, expected[i], "{tag}: scenario {i} diverged");
    }
    let metrics = client.metrics().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    metrics
}

/// Cuts a file at the char boundary at or below its middle, the way a
/// torn copy leaves it.
fn tear(path: &Path) {
    let mut doc = fs::read_to_string(path).unwrap();
    let mut cut = doc.len() / 2;
    while !doc.is_char_boundary(cut) {
        cut -= 1;
    }
    doc.truncate(cut);
    fs::write(path, doc).unwrap();
}

#[test]
fn corrupt_cache_reads_are_recomputed_to_a_bit_identical_sweep() {
    let scenarios = fig_sweep().build().unwrap();
    let expected: Vec<String> = Engine::default()
        .run_all(&scenarios)
        .unwrap()
        .iter()
        .map(|r| r.to_json())
        .collect();
    let total = expected.len() as u64;
    let dir = common::tmp_dir("chaos-corrupt");

    // Warm the cache directory: every scenario computed and written.
    let metrics = serve_sweep(&dir, &expected, "cold sweep");
    assert_eq!(metrics.computed, total);

    // With the daemon stopped, tear four entry files on disk.
    const TORN: u64 = 4;
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|x| x == "json"))
        .collect();
    assert_eq!(entries.len() as u64, total, "one file per scenario");
    entries.sort();
    for path in &entries[..TORN as usize] {
        tear(path);
    }

    // A restart reads the torn entries as misses and recomputes exactly
    // them; the rest come back from disk.
    let metrics = serve_sweep(&dir, &expected, "restart over torn entries");
    assert_eq!(
        metrics.computed, TORN,
        "each torn entry is recomputed, and nothing else"
    );
    assert_eq!(metrics.disk_hits, total - TORN);
    assert_eq!(metrics.verify_misses, 0, "a torn entry is a plain miss");

    // The recomputed entries were rewritten: a third start reads all of
    // them from disk.
    let metrics = serve_sweep(&dir, &expected, "restart over the mended cache");
    assert_eq!(metrics.disk_hits, total, "every entry is whole again");
    assert_eq!(metrics.computed, 0);
    let _ = fs::remove_dir_all(dir);
}
