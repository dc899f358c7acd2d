//! Cross-query work sharing: the byte-budgeted shared fragment cache.
//!
//! Concurrently admitted queries that scan the same table fragment —
//! same table *name and version*, same projection/pruning/predicate
//! fingerprint, same segment — should read storage once. The cache keys
//! fragments on [`FragmentKey`]; the predicate contributes through its
//! hash-consed id ([`orca_expr::intern::fragment_fingerprint`]), so
//! detection is an O(1) probe after the first sighting of a predicate.
//!
//! **Cooperative scans.** A probe that misses installs a `Filling` slot
//! and returns [`Probe::Lead`]: the caller performs the scan and
//! publishes the result. A probe that finds `Filling` waits on a condvar
//! and attaches to the leader's result when it lands — the scan happens
//! once no matter how many queries race to it. A leader can never block
//! between installing `Filling` and publishing (the scan is pure
//! in-memory compute), so waiters always make progress; if the leader
//! errors or unwinds, its guard removes the slot and wakes the waiters,
//! and the first of them takes over the lead. The wait needs no abort
//! waker: a cancelled follower waits out at most one leader scan, then
//! sees its abort.
//!
//! **Invalidation** rides the versioned `MdId` machinery: the version is
//! part of the key, so a bumped table simply never matches, and
//! publishing a fragment purges every `Ready` entry of the same table at
//! a *different* version (counted as an invalidation).
//!
//! **Budget.** Entries are evicted LRU (by probe tick) whenever the
//! resident byte total exceeds the budget; `Filling` slots and the
//! just-published entry are never evicted.

use crate::columnar::ColumnBatch;
use orca_common::{ColId, Result};
use orca_expr::intern::{fragment_fingerprint, ExprInterner};
use orca_expr::scalar::ScalarExpr;
use orca_gpos::AbortSignal;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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

/// One materialized fragment: the batches a scan (plus optional fused
/// filter) produced for one segment, with the accounting needed to
/// replay the work's stats without redoing it.
#[derive(Debug)]
pub struct Fragment {
    pub batches: Vec<ColumnBatch>,
    /// Rows read from storage to build this fragment (≥ the rows in
    /// `batches` when a filter was fused). Replay charges this to
    /// `rows_processed` exactly as the real scan would.
    pub scan_rows: u64,
    /// Batches the raw scan produced (profile accounting on replay).
    pub scan_batches: u64,
    /// Chunks the leader's scan dropped via zone maps / dictionary
    /// misses, and dict-conjunct evaluations it ran in code space —
    /// replayed into `ExecStats` on every reuse, since a cache hit
    /// stands for the same pruned scan.
    pub chunks_skipped: u64,
    pub dict_hits: u64,
    /// Resident cost charged against the cache budget: *physical*
    /// bytes, with `Arc`-shared buffers (whole table chunks entering
    /// the fragment zero-copy, dictionary pages shared across batches)
    /// counted once each, and dict columns priced at codes + dictionary
    /// rather than their decoded width.
    pub bytes: u64,
}

impl Fragment {
    pub fn new(batches: Vec<ColumnBatch>, scan_rows: u64, scan_batches: u64) -> Fragment {
        let mut seen = std::collections::HashSet::new();
        let bytes = batches.iter().map(|b| b.physical_bytes(&mut seen)).sum();
        Fragment {
            batches,
            scan_rows,
            scan_batches,
            chunks_skipped: 0,
            dict_hits: 0,
            bytes,
        }
    }

    pub fn with_skips(mut self, chunks_skipped: u64, dict_hits: u64) -> Fragment {
        self.chunks_skipped = chunks_skipped;
        self.dict_hits = dict_hits;
        self
    }
}

enum SlotState {
    Filling,
    Ready(Arc<Fragment>),
}

struct Slot {
    state: SlotState,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<FragmentKey, Slot>,
    bytes: u64,
    tick: u64,
}

/// Counter snapshot for stats surfaces.
#[derive(Debug, Clone, Copy, Default)]
pub struct FragmentCacheStats {
    /// Probes served from an already-`Ready` fragment.
    pub reused: u64,
    /// Fragments published by scan leaders.
    pub inserted: u64,
    /// Probes that attached to an in-flight cooperative scan.
    pub coop_attached: u64,
    pub evictions: u64,
    /// Stale-version entries purged when a newer version published.
    pub invalidations: u64,
    /// Resident bytes / entries right now.
    pub bytes: u64,
    pub entries: u64,
}

/// Result of [`FragmentCache::begin`].
pub enum Probe<'a> {
    /// The fragment is resident: reuse it.
    Ready(Arc<Fragment>),
    /// This caller leads the scan: do the work, then
    /// [`LeadGuard::publish`] it.
    Lead(LeadGuard<'a>),
}

/// The shared cache. One instance typically lives on the serving layer
/// and is attached to every engine it constructs.
pub struct FragmentCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    budget: u64,
    /// Process-wide executor memory budget ([`crate::memory`]); resident
    /// fragment bytes are charged against it so cached fragments compete
    /// with query operator state for the same pool.
    process: Option<Arc<crate::memory::MemoryBudget>>,
    interner: ExprInterner,
    reused: AtomicU64,
    inserted: AtomicU64,
    coop_attached: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl FragmentCache {
    pub fn new(budget_bytes: u64) -> FragmentCache {
        FragmentCache {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            budget: budget_bytes,
            process: None,
            interner: ExprInterner::new(),
            reused: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            coop_attached: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Charge resident fragment bytes against a process-wide budget (in
    /// addition to this cache's own byte budget).
    pub fn with_process_budget(
        mut self,
        budget: Arc<crate::memory::MemoryBudget>,
    ) -> FragmentCache {
        self.process = Some(budget);
        self
    }

    /// Fragment fingerprint through this cache's interner.
    pub fn fingerprint(
        &self,
        cols: &[ColId],
        parts: &Option<Vec<usize>>,
        batch_size: usize,
        pred: Option<&ScalarExpr>,
    ) -> u64 {
        fragment_fingerprint(&self.interner, cols, parts, batch_size, pred)
    }

    /// Probe for `key`: reuse a resident fragment, attach to an
    /// in-flight scan, or take the lead.
    pub fn begin(&self, key: &FragmentKey, abort: Option<&AbortSignal>) -> Result<Probe<'_>> {
        enum Found {
            Ready(Arc<Fragment>),
            Filling,
            Missing,
        }
        let mut inner = self.inner.lock().unwrap();
        let mut waited = false;
        loop {
            if let Some(a) = abort {
                a.check()?;
            }
            inner.tick += 1;
            let tick = inner.tick;
            let found = match inner.map.get_mut(key) {
                Some(slot) => match &slot.state {
                    SlotState::Ready(f) => {
                        slot.last_used = tick;
                        Found::Ready(Arc::clone(f))
                    }
                    SlotState::Filling => Found::Filling,
                },
                None => Found::Missing,
            };
            match found {
                Found::Ready(f) => {
                    if waited {
                        self.coop_attached.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.reused.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(Probe::Ready(f));
                }
                Found::Filling => {
                    waited = true;
                    inner = self.ready.wait(inner).unwrap();
                }
                Found::Missing => {
                    inner.map.insert(
                        key.clone(),
                        Slot {
                            state: SlotState::Filling,
                            last_used: tick,
                        },
                    );
                    return Ok(Probe::Lead(LeadGuard {
                        cache: self,
                        key: key.clone(),
                        published: false,
                    }));
                }
            }
        }
    }

    pub fn stats(&self) -> FragmentCacheStats {
        let inner = self.inner.lock().unwrap();
        FragmentCacheStats {
            reused: self.reused.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
            coop_attached: self.coop_attached.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            bytes: inner.bytes,
            entries: inner.map.len() as u64,
        }
    }

    fn install(&self, key: &FragmentKey, frag: Fragment) -> Arc<Fragment> {
        let frag = Arc::new(frag);
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        // A newer version of this table landing means every other
        // version's fragments are stale: purge them.
        let stale: Vec<FragmentKey> = inner
            .map
            .keys()
            .filter(|k| k.table == key.table && k.version != key.version)
            .cloned()
            .collect();
        for k in stale {
            // Only purge resident entries; an in-flight Filling slot
            // belongs to its leader until published or abandoned.
            let is_ready = matches!(
                inner.map.get(&k).map(|s| &s.state),
                Some(SlotState::Ready(_))
            );
            if is_ready {
                if let Some(Slot {
                    state: SlotState::Ready(f),
                    ..
                }) = inner.map.remove(&k)
                {
                    inner.bytes -= f.bytes;
                    if let Some(p) = &self.process {
                        p.uncharge(f.bytes);
                    }
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if let Some(slot) = inner.map.get_mut(key) {
            debug_assert!(matches!(slot.state, SlotState::Filling));
            slot.state = SlotState::Ready(Arc::clone(&frag));
            slot.last_used = tick;
            inner.bytes += frag.bytes;
            if let Some(p) = &self.process {
                p.charge(frag.bytes);
            }
            self.inserted.fetch_add(1, Ordering::Relaxed);
        }
        // LRU eviction down to budget; `Filling` slots and the entry we
        // just published survive.
        while inner.bytes > self.budget {
            let victim = inner
                .map
                .iter()
                .filter(|(k, slot)| *k != key && matches!(slot.state, SlotState::Ready(_)))
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(slot) = inner.map.remove(&victim) {
                if let SlotState::Ready(f) = slot.state {
                    inner.bytes -= f.bytes;
                    if let Some(p) = &self.process {
                        p.uncharge(f.bytes);
                    }
                }
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        drop(inner);
        self.ready.notify_all();
        frag
    }

    fn abandon(&self, key: &FragmentKey) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(slot) = inner.map.get(key) {
            if matches!(slot.state, SlotState::Filling) {
                inner.map.remove(key);
            }
        }
        drop(inner);
        self.ready.notify_all();
    }
}

impl Drop for FragmentCache {
    fn drop(&mut self) {
        // Return the cache's resident bytes to the process-wide budget.
        if let Some(p) = &self.process {
            p.uncharge(self.inner.lock().unwrap().bytes);
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

/// Exclusive right (and obligation) to fill one `Filling` slot. Dropping
/// the guard without publishing — the leader errored or unwound —
/// removes the slot and wakes the waiters so one of them re-leads.
pub struct LeadGuard<'a> {
    cache: &'a FragmentCache,
    key: FragmentKey,
    published: bool,
}

impl LeadGuard<'_> {
    /// Publish the scanned fragment and wake every attached waiter.
    /// Returns the shared handle so the leader reuses the same bytes.
    pub fn publish(mut self, frag: Fragment) -> Arc<Fragment> {
        self.published = true;
        self.cache.install(&self.key, frag)
    }
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.cache.abandon(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_common::Datum;
    use std::time::Duration;

    fn batch(vals: &[i64]) -> ColumnBatch {
        let rows: Vec<Vec<Datum>> = vals.iter().map(|v| vec![Datum::Int(*v)]).collect();
        ColumnBatch::from_rows(&rows, 1)
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
    fn lead_publish_then_reuse() {
        let cache = FragmentCache::new(1 << 20);
        let k = key("t", 1, 42);
        let Probe::Lead(g) = cache.begin(&k, None).unwrap() else {
            panic!("first probe must lead");
        };
        g.publish(Fragment::new(vec![batch(&[1, 2, 3])], 3, 1));
        let Probe::Ready(f) = cache.begin(&k, None).unwrap() else {
            panic!("second probe must reuse");
        };
        assert_eq!(f.scan_rows, 3);
        let s = cache.stats();
        assert_eq!((s.inserted, s.reused, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn abandoned_lead_lets_the_next_prober_lead() {
        let cache = FragmentCache::new(1 << 20);
        let k = key("t", 1, 7);
        let Probe::Lead(g) = cache.begin(&k, None).unwrap() else {
            panic!();
        };
        drop(g); // leader errored
        assert!(matches!(cache.begin(&k, None).unwrap(), Probe::Lead(_)));
    }

    #[test]
    fn newer_version_purges_older_fragments() {
        let cache = FragmentCache::new(1 << 20);
        let k1 = key("t", 1, 42);
        let Probe::Lead(g) = cache.begin(&k1, None).unwrap() else {
            panic!();
        };
        g.publish(Fragment::new(vec![batch(&[1])], 1, 1));
        let k2 = key("t", 2, 42);
        let Probe::Lead(g) = cache.begin(&k2, None).unwrap() else {
            panic!();
        };
        g.publish(Fragment::new(vec![batch(&[9])], 1, 1));
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 1);
        // The old version misses (its entry is gone) → new lead.
        assert!(matches!(cache.begin(&k1, None).unwrap(), Probe::Lead(_)));
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let cache = FragmentCache::new(1); // everything over budget
        for fp in 0..3u64 {
            let k = key("t", 1, fp);
            let Probe::Lead(g) = cache.begin(&k, None).unwrap() else {
                panic!();
            };
            g.publish(Fragment::new(vec![batch(&[1, 2])], 2, 1));
        }
        let s = cache.stats();
        assert!(s.evictions >= 2, "evictions={}", s.evictions);
        // The just-published entry always survives its own insert.
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn waiter_attaches_to_inflight_scan() {
        let cache = Arc::new(FragmentCache::new(1 << 20));
        let k = key("t", 1, 5);
        let Probe::Lead(g) = cache.begin(&k, None).unwrap() else {
            panic!();
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            std::thread::spawn(move || match cache.begin(&k, None).unwrap() {
                Probe::Ready(f) => f.scan_rows,
                Probe::Lead(_) => panic!("slot was filling"),
            })
        };
        // Give the waiter time to observe Filling, then publish.
        std::thread::sleep(Duration::from_millis(30));
        g.publish(Fragment::new(vec![batch(&[1, 2, 3, 4])], 4, 1));
        assert_eq!(waiter.join().unwrap(), 4);
        assert_eq!(cache.stats().coop_attached, 1);
    }
}
