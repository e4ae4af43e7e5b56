//! Bounded in-memory LRU caches and a content-addressed on-disk store.
//!
//! This module is the storage substrate of the analysis service
//! (`crates/service`): artifacts produced by the pipeline — whole-program
//! IRs and finished analysis responses — are keyed by a 128-bit content
//! hash ([`crate::hash`]) and held in a bounded LRU, with an optional spill
//! to a content-addressed directory for results that are cheap to
//! serialize.
//!
//! Design constraints, in order:
//!
//! * **Determinism.** Cache behaviour may change *latency*, never *bytes*:
//!   a hit must return a value observably equal to what a recompute would
//!   produce. The cache therefore stores only values that are pure
//!   functions of their key (the key embeds every configuration input —
//!   see `service::cache` for the key schema) and the eviction policy
//!   never influences results, only hit rates.
//! * **Bounded in bytes.** Each in-memory cache has a byte budget and
//!   each entry a weight the caller supplies on insert (a rendered result
//!   weighs its length; an IR weighs an estimate from its node count).
//!   Inserting evicts least-recently-used entries until the new entry
//!   fits; an entry heavier than the whole budget is not kept. Budget 0
//!   disables the cache (every lookup misses, nothing is retained).
//! * **Observable.** Every cache carries [`CacheCounters`]
//!   (hits/misses/insertions/evictions as relaxed atomics, readable
//!   without locking) and mirrors them into the telemetry sink as
//!   `cache_hits_total{cache="…"}`-style series when tracing is enabled.
//! * **Zero dependencies.** The LRU is a `HashMap` plus a `BTreeMap` from
//!   each entry's last-use tick to its key, so the least recently used
//!   entry is the map's first: a lookup, an insert and each eviction cost
//!   O(log n). A budget of a few MiB admits tens of thousands of small
//!   results, where a scan for the minimum tick per eviction would not.

use crate::hash::{fnv64, hex128};
use crate::telemetry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic counters for one cache, shared between the cache and anyone
/// holding a clone of the handle (tests, metrics exporters).
#[derive(Debug, Default)]
pub struct CacheCounters {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub insertions: AtomicU64,
    pub evictions: AtomicU64,
    /// Entries whose on-disk frame failed validation (bad magic, version
    /// skew, length mismatch, checksum mismatch) and were moved aside.
    pub quarantined: AtomicU64,
}

/// A point-in-time copy of [`CacheCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub quarantined: u64,
}

impl CacheCounters {
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// A byte-bounded LRU keyed by a 128-bit content hash.
///
/// Not thread-safe by itself; wrap in [`SharedLru`] to share across the
/// service worker pool.
#[derive(Debug)]
pub struct LruCache<V> {
    name: &'static str,
    budget: usize,
    /// Sum of the weights of the entries held; never above `budget`.
    bytes: usize,
    tick: u64,
    /// Key → (last-use tick, weight, value).
    map: HashMap<u128, (u64, usize, V)>,
    /// Last-use tick → key; the first entry is the least recently used.
    order: BTreeMap<u64, u128>,
    counters: Arc<CacheCounters>,
}

impl<V> LruCache<V> {
    /// An LRU holding entries whose weights sum to at most `budget`.
    /// Budget 0 disables it.
    pub fn new(name: &'static str, budget: usize) -> Self {
        LruCache {
            name,
            budget,
            bytes: 0,
            tick: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
            counters: Arc::new(CacheCounters::default()),
        }
    }

    /// Shared handle to this cache's counters.
    pub fn counters(&self) -> Arc<CacheCounters> {
        Arc::clone(&self.counters)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of the weights of the entries held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    fn bump(counter: &AtomicU64, name: &'static str, which: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        if telemetry::is_enabled() {
            telemetry::metric_add(
                &telemetry::metric_name(&format!("cache_{which}_total"), &[("cache", name)]),
                1.0,
            );
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: u128) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&key) {
            Some((last, _, v)) => {
                self.order.remove(last);
                self.order.insert(tick, key);
                *last = tick;
                Self::bump(&self.counters.hits, self.name, "hits");
                Some(v)
            }
            None => {
                Self::bump(&self.counters.misses, self.name, "misses");
                None
            }
        }
    }

    /// Insert `value` under `key` at `weight` bytes, evicting least
    /// recently used entries until it fits. An entry heavier than the
    /// whole budget is dropped, and so is every value of a zero-budget
    /// cache.
    pub fn put(&mut self, key: u128, value: V, weight: usize) {
        if weight > self.budget || self.budget == 0 {
            return;
        }
        // A re-insert replaces the entry (values are pure functions of
        // their key, so only the recency changes).
        if let Some((tick, w, _)) = self.map.remove(&key) {
            self.order.remove(&tick);
            self.bytes -= w;
        }
        while self.bytes + weight > self.budget {
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            let (_, w, _) = self.map.remove(&victim).expect("order and map agree");
            self.bytes -= w;
            Self::bump(&self.counters.evictions, self.name, "evictions");
        }
        self.tick += 1;
        self.order.insert(self.tick, key);
        self.map.insert(key, (self.tick, weight, value));
        self.bytes += weight;
        Self::bump(&self.counters.insertions, self.name, "insertions");
    }
}

/// A mutex-wrapped [`LruCache`] shared across the worker pool. A poisoned
/// lock is recovered (a panicking analysis job must not take the cache
/// down with it); the cache holds only fully-constructed values inserted
/// after the fallible work finished, so recovered state is consistent.
#[derive(Debug, Clone)]
pub struct SharedLru<V> {
    inner: Arc<Mutex<LruCache<V>>>,
    counters: Arc<CacheCounters>,
}

impl<V: Clone> SharedLru<V> {
    pub fn new(name: &'static str, budget: usize) -> Self {
        let cache = LruCache::new(name, budget);
        let counters = cache.counters();
        SharedLru {
            inner: Arc::new(Mutex::new(cache)),
            counters,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruCache<V>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Clone out the cached value for `key`, if present.
    pub fn get(&self, key: u128) -> Option<V> {
        self.lock().get(key).cloned()
    }

    /// Insert `value` at `weight` bytes (see [`LruCache::put`]).
    pub fn put(&self, key: u128, value: V, weight: usize) {
        self.lock().put(key, value, weight);
    }

    pub fn counters(&self) -> Arc<CacheCounters> {
        Arc::clone(&self.counters)
    }

    /// Sum of the weights of the entries held now.
    pub fn bytes(&self) -> usize {
        self.lock().bytes()
    }

    /// The byte budget.
    pub fn budget(&self) -> usize {
        self.lock().budget
    }
}

/// Frame magic for on-disk entries (`"MDFC"`).
const FRAME_MAGIC: [u8; 4] = *b"MDFC";
/// Frame format version; bump when the header layout changes.
const FRAME_VERSION: u32 = 1;
/// Fixed header: magic(4) + version(4) + payload_len(8) + fnv64(payload)(8).
const FRAME_HEADER_LEN: usize = 24;
/// Directory (under the store root) holding quarantined entries.
const QUARANTINE_DIR: &str = "quarantine";

/// Result of a [`DiskStore::fsck`] pass over every namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Entry files examined (excluding temp files and the quarantine dir).
    pub scanned: u64,
    /// Entries whose frame validated.
    pub valid: u64,
    /// Entries moved to the quarantine directory.
    pub quarantined: u64,
    /// Stale `.tmp-*` files from interrupted writers that were removed.
    pub removed_tmp: u64,
}

/// A content-addressed on-disk artifact store: one file per key, named by
/// the hex digest, grouped into a namespace directory per artifact kind.
///
/// Crash-only design, in two layers:
///
/// * **Writes are atomic** (temp file in the same directory + rename) so a
///   crashed or concurrent writer can never publish a torn entry under the
///   final name.
/// * **Every entry is framed and checksummed** (magic, version, payload
///   length, FNV-1a 64 of the payload). Reads validate the frame before
///   returning bytes; any violation — truncation, bit rot, a hostile or
///   accidental overwrite — **quarantines** the file (moved to
///   `quarantine/`, counted in `CacheCounters::quarantined` and the
///   `cache_quarantined_total` metric) and reports a miss. The store never
///   panics and never returns wrong bytes; a recompute is always available
///   and always correct. Single-byte corruption is *guaranteed* detected:
///   each FNV-1a step (xor byte, multiply by an odd prime) is injective in
///   the byte given the surrounding state.
///
/// A startup [`DiskStore::fsck`] pass applies the same validation eagerly
/// to every entry and sweeps temp files left by interrupted writers.
#[derive(Debug, Clone)]
pub struct DiskStore {
    root: PathBuf,
    counters: Arc<CacheCounters>,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStore {
            root,
            counters: Arc::new(CacheCounters::default()),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn counters(&self) -> Arc<CacheCounters> {
        Arc::clone(&self.counters)
    }

    fn path(&self, namespace: &str, key: u128) -> PathBuf {
        self.root.join(namespace).join(hex128(key))
    }

    /// Wrap `payload` in the checksummed frame.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        out.extend_from_slice(&FRAME_MAGIC);
        out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Validate a framed entry and return its payload, or a reason string.
    fn unframe(bytes: &[u8]) -> Result<&[u8], &'static str> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err("truncated header");
        }
        if bytes[..4] != FRAME_MAGIC {
            return Err("bad magic");
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != FRAME_VERSION {
            return Err("version skew");
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let payload = &bytes[FRAME_HEADER_LEN..];
        if len != payload.len() as u64 {
            return Err("length mismatch");
        }
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        if checksum != fnv64(payload) {
            return Err("checksum mismatch");
        }
        Ok(payload)
    }

    /// Move a failed entry aside (best effort: fall back to deletion) and
    /// count it. The quarantined copy keeps the original bytes so a failure
    /// can be inspected after the fact.
    fn quarantine(&self, namespace: &str, path: &Path, reason: &str) {
        let n = self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        if telemetry::is_enabled() {
            telemetry::metric_add(
                &telemetry::metric_name("cache_quarantined_total", &[("cache", "disk")]),
                1.0,
            );
            telemetry::instant(
                "cache",
                "quarantine",
                vec![
                    ("namespace", telemetry::ArgValue::Str(namespace.to_string())),
                    ("reason", telemetry::ArgValue::Str(reason.to_string())),
                ],
            );
        }
        let qdir = self.root.join(QUARANTINE_DIR);
        let name = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        let moved = std::fs::create_dir_all(&qdir)
            .and_then(|()| std::fs::rename(path, qdir.join(format!("{namespace}-{name}-{n}"))));
        if moved.is_err() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Fetch the bytes stored for `key`, or `None`. A missing file is a
    /// plain miss; a file that exists but fails frame validation is
    /// quarantined and reported as a miss — never a panic, never wrong
    /// bytes.
    pub fn get(&self, namespace: &str, key: u128) -> Option<Vec<u8>> {
        let path = self.path(namespace, key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                LruCache::<()>::bump(&self.counters.misses, "disk", "misses");
                return None;
            }
        };
        match Self::unframe(&bytes) {
            Ok(payload) => {
                let payload = payload.to_vec();
                LruCache::<()>::bump(&self.counters.hits, "disk", "hits");
                Some(payload)
            }
            Err(reason) => {
                self.quarantine(namespace, &path, reason);
                LruCache::<()>::bump(&self.counters.misses, "disk", "misses");
                None
            }
        }
    }

    /// Store `bytes` under `key` atomically, framed and checksummed.
    /// Errors are returned so the caller can log them, but the caller
    /// should treat a failed put as non-fatal (the store is best-effort).
    pub fn put(&self, namespace: &str, key: u128, bytes: &[u8]) -> std::io::Result<()> {
        // The pid keeps concurrent *processes* sharing the directory from
        // colliding on temp names; the process-wide nonce keeps multiple
        // stores (or threads) *within* one process apart — a shared
        // counter value would let two writers interleave on one tmp file
        // and publish a torn frame via the rename.
        static TMP_NONCE: AtomicU64 = AtomicU64::new(0);
        let path = self.path(namespace, key);
        let dir = path.parent().expect("store paths always have a parent");
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, Self::frame(bytes))?;
        std::fs::rename(&tmp, &path)?;
        LruCache::<()>::bump(&self.counters.insertions, "disk", "insertions");
        Ok(())
    }

    /// Startup integrity pass: validate every entry in every namespace,
    /// quarantining invalid frames and sweeping stale temp files. Returns
    /// what was found; never fails the caller — an unreadable directory
    /// simply contributes nothing.
    pub fn fsck(&self) -> FsckReport {
        let mut report = FsckReport::default();
        let Ok(namespaces) = std::fs::read_dir(&self.root) else {
            return report;
        };
        for ns in namespaces.flatten() {
            let ns_path = ns.path();
            let ns_name = ns.file_name().to_string_lossy().into_owned();
            if !ns_path.is_dir() || ns_name == QUARANTINE_DIR {
                continue;
            }
            let Ok(entries) = std::fs::read_dir(&ns_path) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with(".tmp-") {
                    // An interrupted writer's leftover; it was never
                    // published, so removal cannot lose a valid entry.
                    if std::fs::remove_file(&path).is_ok() {
                        report.removed_tmp += 1;
                    }
                    continue;
                }
                report.scanned += 1;
                let valid = crate::hash::parse_hex128(&name).is_some()
                    && std::fs::read(&path)
                        .ok()
                        .is_some_and(|bytes| Self::unframe(&bytes).is_ok());
                if valid {
                    report.valid += 1;
                } else {
                    self.quarantine(&ns_name, &path, "fsck");
                    report.quarantined += 1;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_hit_miss_counters() {
        let mut c = LruCache::new("t", 4);
        assert!(c.get(1).is_none());
        c.put(1, "one", 1);
        assert_eq!(c.get(1), Some(&"one"));
        let s = c.counters().snapshot();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new("t", 2);
        c.put(1, 1, 1);
        c.put(2, 2, 1);
        assert!(c.get(1).is_some()); // refresh 1 → 2 is now LRU
        c.put(3, 3, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().snapshot().evictions, 1);
        // Re-inserting an existing key does not evict.
        c.put(1, 10, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().snapshot().evictions, 1);
        assert_eq!(c.get(1), Some(&10));
        assert_eq!(c.get(3), Some(&3));
        assert!(c.get(2).is_none(), "the least recently used entry went");
    }

    #[test]
    fn lru_evicts_until_the_new_entry_fits_and_skips_an_oversized_one() {
        let mut c = LruCache::new("t", 100);
        c.put(1, 'a', 40);
        c.put(2, 'b', 40);
        c.put(3, 'c', 20);
        assert_eq!(c.bytes(), 100);
        // 70 bytes need room from both of the two oldest entries.
        c.put(4, 'd', 70);
        assert_eq!((c.len(), c.bytes()), (2, 90));
        assert_eq!(c.counters().snapshot().evictions, 2);
        assert!(c.get(1).is_none() && c.get(2).is_none());
        // Heavier than the whole budget: not kept, nothing evicted.
        c.put(5, 'e', 101);
        assert_eq!((c.len(), c.bytes()), (2, 90));
        assert_eq!(c.counters().snapshot().evictions, 2);
        assert!(c.get(5).is_none());
        // A re-insert at another weight re-weighs the entry.
        c.put(3, 'c', 5);
        assert_eq!(c.bytes(), 75);
    }

    #[test]
    fn zero_budget_disables() {
        let mut c = LruCache::new("t", 0);
        c.put(1, 1, 0);
        assert!(c.get(1).is_none());
        assert_eq!((c.len(), c.bytes()), (0, 0));
    }

    /// The eviction policy as a scan for the minimum last-use tick, one
    /// scan per eviction: the reference the ordered index must agree with.
    struct ScanLru {
        budget: usize,
        bytes: usize,
        tick: u64,
        map: HashMap<u128, (u64, usize)>,
        evicted: Vec<u128>,
    }

    impl ScanLru {
        fn get(&mut self, key: u128) -> bool {
            self.tick += 1;
            match self.map.get_mut(&key) {
                Some((last, _)) => {
                    *last = self.tick;
                    true
                }
                None => false,
            }
        }

        fn put(&mut self, key: u128, weight: usize) {
            if weight > self.budget || self.budget == 0 {
                return;
            }
            if let Some((_, w)) = self.map.remove(&key) {
                self.bytes -= w;
            }
            while self.bytes + weight > self.budget {
                let victim = *self
                    .map
                    .iter()
                    .min_by_key(|(_, (t, _))| *t)
                    .map(|(k, _)| k)
                    .expect("over budget means nonempty");
                let (_, w) = self.map.remove(&victim).unwrap();
                self.bytes -= w;
                self.evicted.push(victim);
            }
            self.tick += 1;
            self.map.insert(key, (self.tick, weight));
            self.bytes += weight;
        }
    }

    #[test]
    fn ordered_eviction_matches_the_minimum_tick_scan() {
        let mut rng = crate::rng::SplitMix64::new(0x5eed);
        for budget in [0usize, 1, 64, 1000] {
            let mut fast: LruCache<()> = LruCache::new("t", budget);
            let mut scan = ScanLru {
                budget,
                bytes: 0,
                tick: 0,
                map: HashMap::new(),
                evicted: Vec::new(),
            };
            for op in 0..5_000 {
                let key = rng.below(200) as u128;
                if rng.chance(0.5) {
                    assert_eq!(fast.get(key).is_some(), scan.get(key), "op {op}: get {key}");
                    continue;
                }
                let weight = rng.below(120);
                let ticks: HashMap<u128, u64> =
                    fast.map.iter().map(|(k, (t, _, _))| (*k, *t)).collect();
                let seen = scan.evicted.len();
                fast.put(key, (), weight);
                scan.put(key, weight);
                // What left the ordered cache, oldest first.
                let mut gone: Vec<u128> = ticks
                    .keys()
                    .copied()
                    .filter(|k| *k != key && !fast.map.contains_key(k))
                    .collect();
                gone.sort_by_key(|k| ticks[k]);
                assert_eq!(
                    gone,
                    scan.evicted[seen..],
                    "op {op}: put {key} at {weight} B"
                );
                assert_eq!(fast.bytes(), scan.bytes);
                assert!(fast.bytes() <= budget);
            }
            assert_eq!(
                fast.counters().snapshot().evictions as usize,
                scan.evicted.len(),
                "budget {budget}"
            );
            if budget >= 64 {
                assert!(!scan.evicted.is_empty(), "budget {budget} never evicted");
            }
        }
    }

    #[test]
    fn disk_store_round_trip_and_miss() {
        let dir = std::env::temp_dir().join(format!("mpidfa-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.get("results", 5).is_none());
        store.put("results", 5, b"payload").unwrap();
        assert_eq!(store.get("results", 5).as_deref(), Some(&b"payload"[..]));
        // Reopening sees the same entry (content-addressed, stable names).
        let store2 = DiskStore::open(&dir).unwrap();
        assert_eq!(store2.get("results", 5).as_deref(), Some(&b"payload"[..]));
        // No stray temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(dir.join("results"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn scratch_store(tag: &str) -> (PathBuf, DiskStore) {
        let dir = std::env::temp_dir().join(format!("mpidfa-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        (dir, store)
    }

    /// The single on-disk file for `key` in `namespace`.
    fn entry_path(dir: &Path, namespace: &str, key: u128) -> PathBuf {
        dir.join(namespace).join(hex128(key))
    }

    #[test]
    fn frame_round_trips_and_reports_each_violation() {
        let framed = DiskStore::frame(b"hello frame");
        assert_eq!(framed.len(), FRAME_HEADER_LEN + 11);
        assert_eq!(DiskStore::unframe(&framed).unwrap(), b"hello frame");
        // Empty payloads are legal.
        let empty = DiskStore::frame(b"");
        assert_eq!(DiskStore::unframe(&empty).unwrap(), b"");

        assert_eq!(DiskStore::unframe(b"MDFC"), Err("truncated header"));
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert_eq!(DiskStore::unframe(&bad), Err("bad magic"));
        let mut bad = framed.clone();
        bad[4] ^= 0xFF; // version field
        assert_eq!(DiskStore::unframe(&bad), Err("version skew"));
        let mut bad = framed.clone();
        bad.pop(); // lost payload byte: a torn write
        assert_eq!(DiskStore::unframe(&bad), Err("length mismatch"));
        let mut bad = framed.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert_eq!(DiskStore::unframe(&bad), Err("checksum mismatch"));
    }

    #[test]
    fn torn_and_truncated_entries_are_quarantined_misses() {
        let (dir, store) = scratch_store("torn");
        store.put("results", 1, b"first").unwrap();
        store.put("results", 2, b"second").unwrap();

        // Truncate one entry mid-payload (torn write), gut the other below
        // the header (crash during the very first block).
        let p1 = entry_path(&dir, "results", 1);
        let bytes = std::fs::read(&p1).unwrap();
        std::fs::write(&p1, &bytes[..bytes.len() - 2]).unwrap();
        let p2 = entry_path(&dir, "results", 2);
        std::fs::write(&p2, b"MD").unwrap();

        assert_eq!(store.get("results", 1), None);
        assert_eq!(store.get("results", 2), None);
        assert_eq!(store.counters().snapshot().quarantined, 2);
        // The files were moved aside: a retry is a plain miss, not another
        // quarantine.
        assert_eq!(store.get("results", 1), None);
        assert_eq!(store.counters().snapshot().quarantined, 2);
        // The quarantine keeps the evidence.
        let quarantined = std::fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().count();
        assert_eq!(quarantined, 2);
        // The key is writable again and round-trips.
        store.put("results", 1, b"recomputed").unwrap();
        assert_eq!(store.get("results", 1).as_deref(), Some(&b"recomputed"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // The acceptance criterion for the crash-only store: flip each bit
        // of a framed entry in turn; every flip must yield a miss (plus a
        // quarantine), never a payload and never a panic.
        let (dir, store) = scratch_store("bitflip");
        store.put("results", 7, b"bit-flip target").unwrap();
        let path = entry_path(&dir, "results", 7);
        let pristine = std::fs::read(&path).unwrap();

        let mut flips = 0u64;
        for byte in 0..pristine.len() {
            for bit in 0..8 {
                let mut corrupt = pristine.clone();
                corrupt[byte] ^= 1 << bit;
                std::fs::write(&path, &corrupt).unwrap();
                assert_eq!(
                    store.get("results", 7),
                    None,
                    "flip of byte {byte} bit {bit} went undetected"
                );
                flips += 1;
            }
        }
        assert_eq!(store.counters().snapshot().quarantined, flips);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_sweeps_temp_files_and_quarantines_invalid_frames() {
        let (dir, store) = scratch_store("fsck");
        store.put("results", 1, b"good one").unwrap();
        store.put("ir", 2, b"good two").unwrap();
        // A stale writer temp file, an unframed (legacy/garbage) entry, and
        // a file whose name is not a content hash.
        std::fs::write(dir.join("results").join(".tmp-999-0"), b"partial").unwrap();
        std::fs::write(entry_path(&dir, "results", 3), b"not a frame").unwrap();
        std::fs::write(dir.join("ir").join("README"), b"hello").unwrap();

        let report = store.fsck();
        assert_eq!(
            report,
            FsckReport {
                scanned: 4,
                valid: 2,
                quarantined: 2,
                removed_tmp: 1,
            },
            "{report:?}"
        );
        // Valid entries survive fsck; invalid ones are gone from the
        // namespaces.
        assert_eq!(store.get("results", 1).as_deref(), Some(&b"good one"[..]));
        assert_eq!(store.get("ir", 2).as_deref(), Some(&b"good two"[..]));
        assert_eq!(store.get("results", 3), None);
        // A second pass finds a clean store.
        assert_eq!(
            store.fsck(),
            FsckReport {
                scanned: 2,
                valid: 2,
                quarantined: 0,
                removed_tmp: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_writer_killed_mid_rename_is_invisible_to_readers() {
        // The crash window of `put` is [tmp written .. rename]: a worker
        // SIGKILLed inside it leaves a tmp file — fully framed or partial
        // — that was never published. Readers must see a plain miss for
        // the key (not the tmp's content), and fsck must sweep the debris
        // without quarantining anything (nothing valid was lost).
        let (dir, store) = scratch_store("midrename");
        store.put("results", 1, b"survivor").unwrap();

        // Kill after the tmp was fully written, before the rename…
        let complete_tmp = dir.join("results").join(".tmp-4242-0");
        std::fs::write(&complete_tmp, DiskStore::frame(b"never published")).unwrap();
        // …and a second writer killed mid-write (partial frame).
        let torn_tmp = dir.join("results").join(".tmp-4242-1");
        let frame = DiskStore::frame(b"torn in half");
        std::fs::write(&torn_tmp, &frame[..frame.len() / 2]).unwrap();

        // Neither key ever existed for readers; the survivor is intact.
        assert_eq!(store.get("results", 9), None);
        assert_eq!(store.get("results", 1).as_deref(), Some(&b"survivor"[..]));
        assert_eq!(store.counters().snapshot().quarantined, 0);

        // fsck removes both tmp files as unpublished debris.
        let report = store.fsck();
        assert_eq!(report.removed_tmp, 2, "{report:?}");
        assert_eq!(report.quarantined, 0, "{report:?}");
        assert!(!complete_tmp.exists() && !torn_tmp.exists());

        // The interrupted writer's key can be written and read normally.
        store.put("results", 9, b"second attempt").unwrap();
        assert_eq!(
            store.get("results", 9).as_deref(),
            Some(&b"second attempt"[..])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_on_one_directory_never_serve_a_torn_frame() {
        // Two DiskStore handles standing in for two worker processes that
        // share `--cache-dir` (the cluster's warm-cache arrangement): both
        // write the same keys concurrently while readers hammer them.
        // Every read must return one writer's payload *in full* — torn or
        // interleaved bytes would surface as a quarantine (checksum) or,
        // catastrophically, as a wrong payload.
        let (dir, store_a) = scratch_store("shared");
        let store_a = Arc::new(store_a);
        let store_b = Arc::new(DiskStore::open(&dir).unwrap());
        const KEYS: u128 = 8;
        const ROUNDS: usize = 200;
        let payload = |tag: &str, key: u128, round: usize| -> Vec<u8> {
            format!("{tag}:{key}:{round}:{}", "x".repeat(512)).into_bytes()
        };

        std::thread::scope(|s| {
            for (tag, store) in [("A", Arc::clone(&store_a)), ("B", Arc::clone(&store_b))] {
                let payload = &payload;
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let key = (round as u128) % KEYS;
                        store
                            .put("results", key, &payload(tag, key, round))
                            .unwrap();
                    }
                });
            }
            for store in [Arc::clone(&store_a), Arc::clone(&store_b)] {
                let payload = &payload;
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let key = (round as u128) % KEYS;
                        if let Some(bytes) = store.get("results", key) {
                            let text = String::from_utf8(bytes).expect("utf8 payload");
                            let ok = (0..ROUNDS).any(|r| {
                                text.as_bytes() == payload("A", key, r).as_slice()
                                    || text.as_bytes() == payload("B", key, r).as_slice()
                            });
                            assert!(ok, "read returned bytes no writer ever put: {text:.60}");
                        }
                    }
                });
            }
        });

        // Pure concurrency (no kills) must never have produced an invalid
        // frame: zero quarantines on either handle, and fsck agrees.
        assert_eq!(store_a.counters().snapshot().quarantined, 0);
        assert_eq!(store_b.counters().snapshot().quarantined, 0);
        let report = store_a.fsck();
        assert_eq!(report.quarantined, 0, "{report:?}");
        assert_eq!(report.valid as u128, KEYS, "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
