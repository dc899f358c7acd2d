//! Cross-query work sharing: the byte-budgeted shared fragment cache.
//!
//! Queries that run the same *filtered* scan — same table *name and
//! version*, same projection/pruning/predicate fingerprint, same
//! segment — should read and filter storage once. The columnar kernel's
//! one scan path (`cexec_scan` in [`crate::columnar::exec`]) consults the
//! cache only when a Filter fused into the scan: an unfiltered scan's
//! batches are already `Arc` clones of the table's chunks, so caching
//! them would save nothing and take budget from the fragments that pay.
//! The cache keys fragments on [`FragmentKey`], whose
//! [`fragment_fingerprint`] hashes the fused filter predicate itself, so
//! structurally equal predicates from different sessions land on one
//! entry. A [`Fragment`] holds the scan's `ScanOut`, so a reuse charges
//! the work counters and simulated time the scan that built it charged.
//!
//! **Lookup.** A probe that hits reuses the resident fragment. A miss
//! scans and inserts. Two queries that miss the same key at once both
//! scan; the second insert finds the key resident, keeps the resident
//! fragment, returns it, and charges nothing twice.
//!
//! **Invalidation** rides the versioned `MdId` machinery: the version is
//! part of the key, so a bumped table simply never matches, and
//! inserting a fragment purges every entry of the same table at a
//! *different* version (counted as an invalidation).
//!
//! **Budget.** Entries are evicted least-recently-used first (the
//! [`LruOrder`] both byte-budgeted caches share) whenever the resident
//! byte total exceeds the budget; the just-inserted entry is never
//! evicted.

use crate::columnar::exec::ScanOut;
use orca_common::hash::fnv_hash;
use orca_common::ColId;
use orca_expr::scalar::ScalarExpr;
use orca_gpos::{LruOrder, MemTracker};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Identity of one cached scan fragment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FragmentKey {
    /// Table *name* — queries are rebound to current versions by name,
    /// so the name is the stable identity across version bumps.
    pub table: String,
    /// Table version at scan time (from the versioned `MdId`).
    pub version: u32,
    /// [`fragment_fingerprint`] over cols/parts/batch-size/predicate.
    pub fingerprint: u64,
    /// Physical storage segment this fragment was scanned from.
    pub segment: usize,
}

/// Content fingerprint of a scan fragment: the table-independent part of
/// a [`FragmentKey`] — projection columns, partition pruning, batch
/// granularity, and the fused filter predicate, if any.
pub fn fragment_fingerprint(
    cols: &[ColId],
    parts: &Option<Vec<usize>>,
    batch_size: usize,
    pred: Option<&ScalarExpr>,
) -> u64 {
    fnv_hash(&(cols, parts, batch_size, pred))
}

/// One materialized fragment: a filtered scan's output for one segment,
/// with the accounting a reuse charges in place of redoing the scan.
#[derive(Debug)]
pub struct Fragment {
    pub(crate) scan: ScanOut,
    /// Resident cost charged against the cache budget: *physical*
    /// bytes, with `Arc`-shared buffers (whole table chunks entering
    /// the fragment zero-copy, dictionary pages shared across batches)
    /// counted once each, and dict columns priced at codes + dictionary
    /// rather than their decoded width.
    pub bytes: u64,
}

impl Fragment {
    pub(crate) fn new(scan: ScanOut) -> Fragment {
        let mut seen = std::collections::HashSet::new();
        let bytes = scan
            .batches
            .iter()
            .map(|b| b.physical_bytes(&mut seen))
            .sum();
        Fragment { scan, bytes }
    }
}

struct Slot {
    frag: Arc<Fragment>,
    /// This key's stamp in `Inner::lru`.
    tick: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<FragmentKey, Slot>,
    lru: LruOrder<FragmentKey>,
    bytes: u64,
}

/// Counter snapshot for stats surfaces.
#[derive(Debug, Clone, Copy, Default)]
pub struct FragmentCacheStats {
    /// Probes served from a resident fragment.
    pub reused: u64,
    /// Fragments inserted after a miss.
    pub inserted: u64,
    pub evictions: u64,
    /// Stale-version entries purged when a newer version was inserted.
    pub invalidations: u64,
    /// Resident bytes / entries right now.
    pub bytes: u64,
    pub entries: u64,
}

/// The shared cache. One instance typically lives on the serving layer
/// and is attached to every engine it constructs.
pub struct FragmentCache {
    inner: Mutex<Inner>,
    budget: u64,
    /// Process-wide executor memory counter ([`crate::memory`]); resident
    /// fragment bytes are counted there too, beside query operator state.
    process: Option<Arc<MemTracker>>,
    reused: AtomicU64,
    inserted: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl FragmentCache {
    pub fn new(budget_bytes: u64) -> FragmentCache {
        FragmentCache {
            inner: Mutex::new(Inner::default()),
            budget: budget_bytes,
            process: None,
            reused: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Count resident fragment bytes in a process-wide counter (in
    /// addition to this cache's own byte budget).
    pub fn with_process_budget(mut self, process: Arc<MemTracker>) -> FragmentCache {
        self.process = Some(process);
        self
    }

    /// The resident fragment for `key`, if any.
    pub fn get(&self, key: &FragmentKey) -> Option<Arc<Fragment>> {
        let inner = &mut *self.inner.lock().expect("fragment cache lock poisoned");
        let slot = inner.map.get_mut(key)?;
        slot.tick = inner.lru.touch(slot.tick);
        self.reused.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&slot.frag))
    }

    /// Make `frag` resident under `key` and return the shared handle. If
    /// a racing scan already inserted `key`, the resident fragment is
    /// kept and returned instead, and nothing is charged twice.
    pub fn insert(&self, key: &FragmentKey, frag: Fragment) -> Arc<Fragment> {
        let inner = &mut *self.inner.lock().expect("fragment cache lock poisoned");
        if let Some(slot) = inner.map.get_mut(key) {
            slot.tick = inner.lru.touch(slot.tick);
            return Arc::clone(&slot.frag);
        }
        // A newer version of this table landing means every other
        // version's fragments are stale: purge them.
        let stale: Vec<FragmentKey> = inner
            .map
            .keys()
            .filter(|k| k.table == key.table && k.version != key.version)
            .cloned()
            .collect();
        for k in stale {
            self.remove(inner, &k);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        let frag = Arc::new(frag);
        inner.bytes += frag.bytes;
        if let Some(p) = &self.process {
            p.add(frag.bytes);
        }
        let tick = inner.lru.insert(key.clone());
        let slot = Slot {
            frag: Arc::clone(&frag),
            tick,
        };
        inner.map.insert(key.clone(), slot);
        self.inserted.fetch_add(1, Ordering::Relaxed);
        // LRU eviction down to budget; the entry just inserted survives.
        while inner.bytes > self.budget {
            let Some(victim) = inner.lru.oldest_except(tick).cloned() else {
                break;
            };
            self.remove(inner, &victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        frag
    }

    fn remove(&self, inner: &mut Inner, key: &FragmentKey) {
        if let Some(slot) = inner.map.remove(key) {
            inner.lru.remove(slot.tick);
            inner.bytes -= slot.frag.bytes;
            if let Some(p) = &self.process {
                p.sub(slot.frag.bytes);
            }
        }
    }

    pub fn stats(&self) -> FragmentCacheStats {
        let inner = self.inner.lock().expect("fragment cache lock poisoned");
        FragmentCacheStats {
            reused: self.reused.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            bytes: inner.bytes,
            entries: inner.map.len() as u64,
        }
    }
}

impl Drop for FragmentCache {
    fn drop(&mut self) {
        // Return the cache's resident bytes to the process-wide counter.
        if let Some(p) = &self.process {
            let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
            p.sub(inner.bytes);
        }
    }
}

impl std::fmt::Debug for FragmentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("FragmentCache")
            .field("budget", &self.budget)
            .field("bytes", &s.bytes)
            .field("entries", &s.entries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_common::Datum;

    /// A one-batch fragment of an unpruned scan of `vals`.
    fn frag(vals: &[i64]) -> Fragment {
        let rows: Vec<Vec<Datum>> = vals.iter().map(|v| vec![Datum::Int(*v)]).collect();
        Fragment::new(ScanOut {
            batches: vec![crate::columnar::ColumnBatch::from_rows(&rows, 1)],
            scan_rows: vals.len() as u64,
            scan_batches: 1,
            ..ScanOut::default()
        })
    }

    fn key(table: &str, version: u32, fp: u64) -> FragmentKey {
        FragmentKey {
            table: table.into(),
            version,
            fingerprint: fp,
            segment: 0,
        }
    }

    #[test]
    fn equal_predicates_share_a_fingerprint() {
        use orca_expr::scalar::CmpOp;
        let pred =
            |lit| ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(ColId(1)), ScalarExpr::int(lit));
        let cols = [ColId(1), ColId(2)];
        let fp = |p: &ScalarExpr| fragment_fingerprint(&cols, &None, 256, Some(p));
        assert_eq!(fp(&pred(7)), fp(&pred(7)), "equal predicates built apart");
        assert_ne!(fp(&pred(7)), fp(&pred(8)), "a different literal");
    }

    #[test]
    fn lead_publish_then_reuse() {
        let cache = FragmentCache::new(1 << 20);
        let k = key("t", 1, 42);
        assert!(cache.get(&k).is_none(), "first probe must miss");
        cache.insert(&k, frag(&[1, 2, 3]));
        let f = cache.get(&k).expect("second probe must reuse");
        assert_eq!(f.scan.scan_rows, 3);
        let s = cache.stats();
        assert_eq!((s.inserted, s.reused, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn newer_version_purges_older_fragments() {
        let cache = FragmentCache::new(1 << 20);
        let k1 = key("t", 1, 42);
        cache.insert(&k1, frag(&[1]));
        let k2 = key("t", 2, 42);
        cache.insert(&k2, frag(&[9]));
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 1);
        // The old version misses: its entry is gone.
        assert!(cache.get(&k1).is_none());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let cache = FragmentCache::new(1); // everything over budget
        for fp in 0..3u64 {
            cache.insert(&key("t", 1, fp), frag(&[1, 2]));
        }
        let s = cache.stats();
        assert!(s.evictions >= 2, "evictions={}", s.evictions);
        // The just-inserted entry always survives its own insert.
        assert_eq!(s.entries, 1);
    }

    /// Two scans that miss the same key at once both insert: the second
    /// gets the first's fragment back, and the cache and the process
    /// counter hold one fragment's bytes.
    #[test]
    fn racing_misses_keep_one_resident_fragment() {
        let process = Arc::new(MemTracker::new());
        let cache = FragmentCache::new(1 << 20).with_process_budget(Arc::clone(&process));
        let k = key("t", 1, 5);
        let barrier = std::sync::Barrier::new(2);
        let got: Vec<Arc<Fragment>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        assert!(cache.get(&k).is_none(), "both racers must miss");
                        barrier.wait();
                        cache.insert(&k, frag(&[1, 2, 3, 4]))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let rows = |f: &Fragment| {
            let mut out = Vec::new();
            f.scan.batches.iter().for_each(|b| b.to_rows(&mut out));
            out
        };
        assert_eq!(rows(&got[0]), rows(&got[1]));
        assert_eq!(rows(&got[0]).len(), 4);
        assert!(
            Arc::ptr_eq(&got[0], &got[1]),
            "both racers share one fragment"
        );
        let s = cache.stats();
        assert_eq!((s.entries, s.inserted), (1, 1));
        assert_eq!(s.bytes, got[0].bytes);
        assert_eq!(process.current(), got[0].bytes);
        drop(cache);
        assert_eq!(process.current(), 0);
    }
}
