//! The one place the daemon holds result documents: [`DocStore`], a
//! bounded memory tier over an optional persistent [`DiskCache`].
//!
//! **Two tiers.** The memory tier keeps whole documents under an
//! LRU-by-bytes budget ([`MEMORY_BUDGET`]); the disk tier is one file
//! per scenario fingerprint (`<fp:016x>.json`) under its own optional
//! budget (`--cache-budget`). Both account with the same [`LruIndex`].
//! A document evicted from memory is still on disk when a cache
//! directory is configured, and is recomputed when not. The memory lock
//! is never held across file I/O.
//!
//! **One verification rule.** The key is derived, never accepted: it is
//! [`key_of`] the request's canonical scenario text, which is
//! [`Scenario::fingerprint`]. A hit is verified, never trusted: every
//! result document begins `{"scenario":<that same text>,`, so
//! [`DocStore::get`] compares that prefix with the request's own text
//! byte for byte, in memory and after a disk read alike. A document
//! that describes another scenario — a 64-bit collision, a stale or
//! misfiled file — is dropped from both tiers, counted
//! (`metrics.verify_misses`) and answered as a miss, so the daemon
//! recomputes and overwrites it. [`DocStore::put`] applies the same
//! rule on the way in: a document whose embedded scenario is not spelled
//! exactly as the request's canonical text is refused.
//!
//! **One writer per key.** The daemon reads or writes a key only while
//! it holds that key's claim in the server's in-flight map (one holder
//! per fingerprint at a time), so no two threads ever read or write the
//! same key at once. In particular, no `put` can land between a
//! [`DiskCache::get`] that finds a corrupt file and its removal of that
//! file from the index.
//!
//! **The disk tier.** Writes go through a tmp file in the same
//! directory followed by an atomic rename, so a crashed daemon never
//! leaves a torn entry and concurrent readers never observe a partial
//! write. Because both the fingerprint (FNV-1a over canonical scenario
//! JSON) and the result serialization are stable across processes, a
//! restarted daemon serves byte-identical documents from this cache
//! without recomputation.
//!
//! Opening the cache **warms** it: the directory is scanned once, stale
//! `.tmp` files from a crashed writer are removed, and every committed
//! entry is indexed (fingerprint, size, recency order from file mtime).
//! All subsequent `entries()` / budget accounting is answered from the
//! in-memory index — no per-request directory scans.
//!
//! With a byte budget configured ([`DiskCache::open_with_budget`], the
//! daemon's `--cache-budget`), the cache evicts least-recently-*used*
//! entries (a `get` hit refreshes recency, not just `put`) until the
//! total committed size fits the budget again. Eviction runs under the
//! same lock that serializes writes, so the budget invariant holds at
//! every instant even under concurrent writers — the only transient
//! overshoot is a single in-flight entry larger than the budget itself,
//! which is stored and then immediately becomes the eviction victim.
//!
//! One daemon per cache directory: the index is process-local, so two
//! daemons sharing a directory would evict behind each other's backs.
//! (Corrupt entries written by an external process are still handled —
//! they read as a miss and are recomputed, never served.)
//!
//! [`Scenario::fingerprint`]: procrustes_core::Scenario::fingerprint

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use procrustes_core::json::Json;
use procrustes_sim::Fnv1a;

use crate::proto::Source;

/// The daemon's memory-tier budget. Documents are ~1.4 KB, so this is
/// ~48 000 of them — two orders of magnitude above the paper's largest
/// figure sweep.
pub(crate) const MEMORY_BUDGET: u64 = 64 << 20;

/// The key a scenario's documents live under: FNV-1a over its canonical
/// JSON text, i.e. [`procrustes_core::Scenario::fingerprint`] without
/// serialising the scenario a second time.
pub(crate) fn key_of(scenario: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(scenario.as_bytes());
    h.finish()
}

/// Whether `doc` is a result document for exactly `scenario` (its
/// canonical text): one prefix comparison, no parse.
fn describes(doc: &str, scenario: &str) -> bool {
    doc.strip_prefix(r#"{"scenario":"#)
        .and_then(|rest| rest.strip_prefix(scenario))
        .is_some_and(|rest| rest.starts_with(','))
}

/// The LRU index: recency sequence → fingerprint, plus the reverse map
/// carrying each entry's committed size.
#[derive(Debug, Default)]
struct LruIndex {
    /// Monotonic recency clock; the smallest live sequence is the LRU
    /// eviction victim.
    clock: u64,
    /// Recency order: sequence → fingerprint.
    by_seq: BTreeMap<u64, u64>,
    /// Fingerprint → (current sequence, committed bytes).
    entries: HashMap<u64, (u64, u64)>,
    /// Total committed bytes.
    total_bytes: u64,
    /// Entries evicted to honor the budget since open.
    evictions: u64,
}

impl LruIndex {
    /// Inserts or refreshes an entry, returning nothing; the caller
    /// evicts afterwards if over budget.
    fn upsert(&mut self, fingerprint: u64, bytes: u64) {
        self.clock += 1;
        if let Some((old_seq, old_bytes)) = self.entries.insert(fingerprint, (self.clock, bytes)) {
            self.by_seq.remove(&old_seq);
            self.total_bytes -= old_bytes;
        }
        self.by_seq.insert(self.clock, fingerprint);
        self.total_bytes += bytes;
    }

    /// Refreshes recency on a hit (no size change).
    fn touch(&mut self, fingerprint: u64) {
        if let Some(&(_, bytes)) = self.entries.get(&fingerprint) {
            self.upsert(fingerprint, bytes);
        }
    }

    /// Drops an entry from the index (corrupt file, eviction).
    fn remove(&mut self, fingerprint: u64) {
        if let Some((seq, bytes)) = self.entries.remove(&fingerprint) {
            self.by_seq.remove(&seq);
            self.total_bytes -= bytes;
        }
    }

    /// While `total_bytes > budget`, drops and returns the
    /// least-recently-used entry — never the most recent one: a single
    /// document larger than the whole budget is kept until something
    /// newer arrives.
    fn evict_one(&mut self, budget: u64) -> Option<u64> {
        if self.total_bytes <= budget || self.by_seq.len() <= 1 {
            return None;
        }
        let victim = *self.by_seq.values().next()?;
        self.remove(victim);
        self.evictions += 1;
        Some(victim)
    }
}

/// The memory tier: documents by key, LRU-accounted by document bytes.
#[derive(Default)]
struct Memory {
    index: LruIndex,
    docs: HashMap<u64, String>,
    /// Held documents (in either tier) that failed verification.
    verify_misses: u64,
}

impl Memory {
    /// A copy of the document under `key`, marked recently used.
    fn hit(&mut self, key: u64) -> Option<String> {
        let doc = self.docs.get(&key)?.clone();
        self.index.touch(key);
        Some(doc)
    }

    /// Counts a failed verification and drops the document, if held.
    fn reject(&mut self, key: u64) {
        self.verify_misses += 1;
        self.index.remove(key);
        self.docs.remove(&key);
    }
}

/// The daemon's document store (see the module docs): a bounded memory
/// tier over an optional [`DiskCache`], keyed by the scenario text and
/// verified against it on every hit.
pub(crate) struct DocStore {
    memory: Mutex<Memory>,
    budget: u64,
    disk: Option<DiskCache>,
}

impl DocStore {
    /// A store whose memory tier holds at most `budget` document bytes.
    pub(crate) fn new(budget: u64, disk: Option<DiskCache>) -> Self {
        Self {
            memory: Mutex::default(),
            budget,
            disk,
        }
    }

    fn memory(&self) -> MutexGuard<'_, Memory> {
        self.memory.lock().expect("document store lock")
    }

    /// The document held for `scenario` (canonical text) and the tier it
    /// came from — memory first, then disk, which promotes it to memory.
    /// A held document that describes another scenario is dropped from
    /// both tiers, counted and reported as a miss.
    pub(crate) fn get(&self, scenario: &str) -> Option<(Source, String)> {
        let key = key_of(scenario);
        // Its own statement: the memory lock is released before the
        // disk tier is read.
        let held = self.memory().hit(key);
        let (source, doc) = match held {
            Some(doc) => (Source::Memo, doc),
            None => (Source::Disk, self.disk.as_ref()?.get(key)?),
        };
        if !describes(&doc, scenario) {
            self.memory().reject(key);
            if let Some(disk) = &self.disk {
                disk.remove(key);
            }
            return None;
        }
        if source == Source::Disk {
            self.remember(key, &doc);
        }
        Some((source, doc))
    }

    /// Installs `doc` as the result for `scenario` (the canonical text
    /// it was computed from) in both tiers. A failed disk write is
    /// logged, not fatal: the document is still held in memory.
    ///
    /// # Errors
    ///
    /// Refuses a document that does not begin with `scenario`'s text.
    pub(crate) fn put(&self, scenario: &str, doc: &str) -> Result<(), String> {
        if !describes(doc, scenario) {
            return Err("the result's scenario is not in canonical form".into());
        }
        let key = key_of(scenario);
        self.remember(key, doc);
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.put(key, doc) {
                eprintln!("procrustes-serve: cache write failed for {key:016x}: {e}");
            }
        }
        Ok(())
    }

    /// Holds `doc` in the memory tier, evicting down to the budget.
    fn remember(&self, key: u64, doc: &str) {
        let mut guard = self.memory();
        let memory = &mut *guard;
        memory.index.upsert(key, doc.len() as u64);
        memory.docs.insert(key, doc.to_string());
        while let Some(victim) = memory.index.evict_one(self.budget) {
            memory.docs.remove(&victim);
        }
    }

    /// The disk tier, if a cache directory is configured.
    pub(crate) fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Documents currently held in the memory tier.
    pub(crate) fn memory_entries(&self) -> u64 {
        self.memory().docs.len() as u64
    }

    /// Held documents dropped because they described another scenario.
    pub(crate) fn verify_misses(&self) -> u64 {
        self.memory().verify_misses
    }
}

/// A directory of fingerprint-addressed result documents, with an
/// optional LRU byte budget. Cloning shares the index (and therefore
/// the budget accounting).
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
    budget: Option<u64>,
    index: Arc<Mutex<LruIndex>>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory, removes stale
    /// `.tmp` files left by a crashed writer, indexes every committed
    /// entry (warmup), and — when a byte budget is given — immediately
    /// evicts least-recently-modified entries until the directory fits.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be created or
    /// scanned.
    pub fn open_with_budget(dir: impl Into<PathBuf>, budget: Option<u64>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut index = LruIndex::default();
        // Warmup scan: collect (mtime, fingerprint, bytes) so the index
        // starts in true recency order instead of directory order.
        let mut found: Vec<(std::time::SystemTime, u64, u64)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            match path.extension().and_then(|x| x.to_str()) {
                Some("tmp") => {
                    // A tmp file can only be a write that never reached
                    // its rename: dead weight from a crash.
                    let _ = fs::remove_file(&path);
                }
                Some("json") => {
                    let Some(fp) = path
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                    else {
                        continue; // foreign file; leave it alone
                    };
                    if let Ok(meta) = entry.metadata() {
                        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                        found.push((mtime, fp, meta.len()));
                    }
                }
                _ => {}
            }
        }
        found.sort();
        for (_mtime, fp, bytes) in found {
            index.upsert(fp, bytes);
        }
        let cache = Self {
            dir,
            budget,
            index: Arc::new(Mutex::new(index)),
        };
        cache.evict_over_budget(&mut cache.index());
        Ok(cache)
    }

    fn index(&self) -> MutexGuard<'_, LruIndex> {
        self.index.lock().expect("cache index lock")
    }

    fn path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.json"))
    }

    /// Loads the cached document for a fingerprint, if present and
    /// intact, refreshing its LRU recency. A corrupt entry — unreadable,
    /// unparseable JSON (e.g. a file truncated by an external copy), or
    /// one containing line breaks (e.g. an operator re-formatting an
    /// entry with a pretty-printer, which would shatter the daemon's
    /// line-delimited framing when spliced into a response) — is dropped
    /// from the index and treated as a miss so the server recomputes and
    /// overwrites it rather than serving garbage.
    ///
    /// The file is read and validated *before* the index lock is taken,
    /// so one connection's disk read never queues the others (or a
    /// writer) behind it. An entry evicted in between reads as a miss. A
    /// `put` of the *same* fingerprint in between would have its fresh
    /// index entry dropped by a corrupt read; in the daemon that cannot
    /// happen, because only the holder of the key's claim in the
    /// in-flight map reads or writes it (see the module docs).
    pub fn get(&self, fingerprint: u64) -> Option<String> {
        let doc = fs::read_to_string(self.path(fingerprint))
            .ok()
            .filter(|doc| !doc.contains(['\n', '\r']) && Json::parse(doc).is_ok());
        let mut index = self.index();
        match doc {
            Some(_) => index.touch(fingerprint),
            None => index.remove(fingerprint),
        }
        doc
    }

    /// Stores a document under a fingerprint (atomic tmp + rename), then
    /// evicts LRU entries until the budget holds again. The whole
    /// write-index-evict sequence runs under one lock, so the budget
    /// invariant is never violated between concurrent writers.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; callers treat a failed store as non-fatal
    /// (the result is still served, just not persisted).
    pub fn put(&self, fingerprint: u64, doc: &str) -> io::Result<()> {
        let mut index = self.index();
        let tmp = self.dir.join(format!("{fingerprint:016x}.tmp"));
        fs::write(&tmp, doc)?;
        fs::rename(&tmp, self.path(fingerprint))?;
        index.upsert(fingerprint, doc.len() as u64);
        self.evict_over_budget(&mut index);
        Ok(())
    }

    /// Deletes an entry its reader found unfit to serve.
    fn remove(&self, fingerprint: u64) {
        let mut index = self.index();
        let _ = fs::remove_file(self.path(fingerprint));
        index.remove(fingerprint);
    }

    /// Evicts least-recently-used entries until `total_bytes <= budget`.
    fn evict_over_budget(&self, index: &mut LruIndex) {
        let Some(budget) = self.budget else { return };
        while let Some(victim) = index.evict_one(budget) {
            let _ = fs::remove_file(self.path(victim));
        }
    }

    /// Number of committed entries (answered from the warm index, not a
    /// directory scan).
    pub fn entries(&self) -> u64 {
        self.index().entries.len() as u64
    }

    /// Total committed bytes currently indexed.
    pub fn total_bytes(&self) -> u64 {
        self.index().total_bytes
    }

    /// Entries evicted to honor the budget since this cache was opened.
    pub fn evictions(&self) -> u64 {
        self.index().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        std::env::temp_dir().join(format!(
            "procrustes-serve-{tag}-{}-{nanos}",
            std::process::id()
        ))
    }

    #[test]
    fn roundtrip_and_miss() {
        let dir = tmp_dir("cache");
        let cache = DiskCache::open_with_budget(&dir, None).unwrap();
        assert_eq!(cache.get(0xABCD), None);
        cache.put(0xABCD, r#"{"cycles":1}"#).unwrap();
        assert_eq!(cache.get(0xABCD).as_deref(), Some(r#"{"cycles":1}"#));
        assert_eq!(cache.entries(), 1);
        // Reopening sees the same entry (persistence + warm index).
        let reopened = DiskCache::open_with_budget(&dir, None).unwrap();
        assert_eq!(reopened.entries(), 1);
        assert_eq!(reopened.total_bytes(), r#"{"cycles":1}"#.len() as u64);
        assert_eq!(reopened.get(0xABCD).as_deref(), Some(r#"{"cycles":1}"#));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_read_as_miss() {
        let dir = tmp_dir("corrupt");
        let cache = DiskCache::open_with_budget(&dir, None).unwrap();
        cache.put(7, r#"{"ok":true}"#).unwrap();
        fs::write(cache.path(7), "{\"truncat").unwrap();
        assert_eq!(cache.get(7), None);
        cache.put(7, r#"{"ok":true}"#).unwrap();
        assert!(cache.get(7).is_some());
        // A pretty-printed entry is valid JSON but would break the
        // daemon's line framing: also a miss.
        fs::write(cache.path(7), "{\n  \"ok\": true\n}\n").unwrap();
        assert_eq!(cache.get(7), None);
        // The miss dropped it from the index.
        assert_eq!(cache.entries(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warmup_sweeps_stale_tmp_files() {
        let dir = tmp_dir("tmpsweep");
        fs::create_dir_all(&dir).unwrap();
        // A crashed writer left a half-written tmp file behind.
        fs::write(dir.join("00000000000000aa.tmp"), "{\"half").unwrap();
        fs::write(dir.join("00000000000000bb.json"), r#"{"ok":1}"#).unwrap();
        let cache = DiskCache::open_with_budget(&dir, None).unwrap();
        assert!(!dir.join("00000000000000aa.tmp").exists());
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.get(0xBB).as_deref(), Some(r#"{"ok":1}"#));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let dir = tmp_dir("lru");
        // Budget fits two 10-byte docs, not three.
        let cache = DiskCache::open_with_budget(&dir, Some(25)).unwrap();
        let doc = |i: u64| format!(r#"{{"id":{i:04}}}"#); // 11 bytes
        cache.put(1, &doc(1)).unwrap();
        cache.put(2, &doc(2)).unwrap();
        // A hit refreshes entry 1, so entry 2 is now the LRU victim.
        assert!(cache.get(1).is_some());
        cache.put(3, &doc(3)).unwrap();
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(2), None, "LRU entry evicted");
        assert!(cache.get(1).is_some(), "recently-used entry survives");
        assert!(cache.get(3).is_some(), "new entry survives");
        assert!(cache.total_bytes() <= 25);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_budget_directory_is_trimmed_on_open() {
        let dir = tmp_dir("trim");
        let unbounded = DiskCache::open_with_budget(&dir, None).unwrap();
        for fp in 0..8u64 {
            unbounded.put(fp, &format!(r#"{{"id":{fp:04}}}"#)).unwrap();
        }
        let bounded = DiskCache::open_with_budget(&dir, Some(24)).unwrap();
        assert!(bounded.total_bytes() <= 24, "{}", bounded.total_bytes());
        assert!(bounded.entries() < 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_oversized_entry_is_kept_until_replaced() {
        let dir = tmp_dir("oversize");
        let cache = DiskCache::open_with_budget(&dir, Some(4)).unwrap();
        cache.put(1, r#"{"big":"doc"}"#).unwrap();
        // Larger than the whole budget, but it is the only (and most
        // recent) entry: still served.
        assert!(cache.get(1).is_some());
        cache.put(2, r#"{"x":1}"#).unwrap();
        // The newer write evicted it.
        assert_eq!(cache.get(1), None);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A canonical-looking scenario text and a single-line JSON result
    /// document for it (every document is the same length).
    fn text(i: u64) -> String {
        format!(r#"{{"network":"n{i:04}"}}"#)
    }

    fn doc(scenario: &str) -> String {
        format!(r#"{{"scenario":{scenario},"totals":{{"cycles":42}}}}"#)
    }

    /// A store with or without a disk tier, and the directory to remove.
    fn store(tag: &str, budget: u64, with_disk: bool) -> (DocStore, PathBuf) {
        let dir = tmp_dir(tag);
        let disk = with_disk.then(|| DiskCache::open_with_budget(&dir, None).unwrap());
        (DocStore::new(budget, disk), dir)
    }

    #[test]
    fn a_colliding_key_is_a_counted_miss_never_the_other_scenarios_bytes() {
        for with_disk in [false, true] {
            let (store, dir) = store("collide", 1 << 20, with_disk);
            let (a, b, c) = (text(1), text(2), text(3));
            store.put(&a, &doc(&a)).unwrap();
            // What a 64-bit collision leaves behind: a's document under
            // b's key, in every tier.
            store.remember(key_of(&b), &doc(&a));
            if let Some(disk) = store.disk() {
                disk.put(key_of(&b), &doc(&a)).unwrap();
            }
            assert_eq!(store.get(&b), None, "a's bytes must not answer b");
            assert_eq!(store.verify_misses(), 1);
            // Dropped from both tiers, so the next lookup is a plain miss.
            assert_eq!(store.memory_entries(), 1);
            assert_eq!(store.disk().map(DiskCache::entries), with_disk.then_some(1));
            assert_eq!(store.get(&b), None);
            assert_eq!(store.verify_misses(), 1);
            // The recompute overwrites it; a's own entry never moved.
            store.put(&b, &doc(&b)).unwrap();
            assert_eq!(store.get(&b), Some((Source::Memo, doc(&b))));
            assert_eq!(store.get(&a), Some((Source::Memo, doc(&a))));
            // The same rule on the way in.
            assert!(store.put(&b, &doc(&a)).is_err());
            // A misfiled cache file (memory holds nothing for the key).
            if let Some(disk) = store.disk() {
                disk.put(key_of(&c), &doc(&a)).unwrap();
                assert_eq!(store.get(&c), None);
                assert_eq!(store.verify_misses(), 2);
                assert_eq!(disk.get(key_of(&c)), None, "the file is gone");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn memory_tier_holds_its_budget_and_evicts_least_recently_used() {
        let len = doc(&text(0)).len() as u64;
        for with_disk in [false, true] {
            let (store, dir) = store("membudget", 4 * len, with_disk);
            let held = |store: &DocStore| store.memory().index.total_bytes;
            for i in 0..4 {
                store.put(&text(i), &doc(&text(i))).unwrap();
            }
            // A hit refreshes entry 0, so entry 1 is the LRU victim.
            assert_eq!(store.get(&text(0)), Some((Source::Memo, doc(&text(0)))));
            store.put(&text(4), &doc(&text(4))).unwrap();
            assert_eq!(store.memory_entries(), 4);
            assert!(store.memory().docs.contains_key(&key_of(&text(0))));
            // Evicted from memory: still on disk if there is one (and
            // promoted back), recomputed if not.
            let evicted = store.get(&text(1));
            assert_eq!(evicted, with_disk.then(|| (Source::Disk, doc(&text(1)))));
            if with_disk {
                assert_eq!(store.get(&text(1)), Some((Source::Memo, doc(&text(1)))));
            }
            // Ten budgets' worth of distinct documents never overshoot.
            for i in 5..45 {
                store.put(&text(i), &doc(&text(i))).unwrap();
                assert!(held(&store) <= 4 * len, "{} > {}", held(&store), 4 * len);
            }
            assert_eq!(store.memory_entries(), 4);
            assert_eq!(
                store.disk().map(DiskCache::entries),
                with_disk.then_some(45)
            );
            assert_eq!(store.verify_misses(), 0);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn put_keys_by_scenario_fingerprint_and_refuses_a_respelled_document() {
        use procrustes_core::{Engine, Scenario};
        // A real pair pins the two facts the store stands on: the key is
        // the scenario's fingerprint, and a result document leads with
        // its scenario's canonical text.
        let scenario = Scenario::builder("VGG-S").batch(2).build().unwrap();
        let (text, doc) = (
            scenario.to_json(),
            Engine::serial().run(&scenario).unwrap().to_json(),
        );
        assert_eq!(key_of(&text), scenario.fingerprint());
        let (store, _) = store("fingerprint", 1 << 20, false);
        store.put(&text, &doc).unwrap();
        assert_eq!(store.get(&text), Some((Source::Memo, doc.clone())));
        // A non-canonical spelling of the same scenario is refused.
        let spaced = doc.replacen(r#"{"scenario":{"#, r#"{"scenario": {"#, 1);
        assert!(store.put(&text, &spaced).is_err());
    }
}
