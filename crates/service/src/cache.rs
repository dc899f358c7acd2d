//! The versioned plan cache.
//!
//! Entries are keyed by a *version-normalized* query fingerprint
//! (`orca_dxl::query_fingerprint`), so the same query shape always lands on
//! the same slot regardless of catalog versions. Each entry records the
//! exact `MdId` set (versions included) the optimizer touched while
//! producing it; a lookup presents the id set a fresh optimization *would*
//! touch, and any mismatch means some `bump_table_version` happened in
//! between — the stale entry is evicted on the spot and the lookup misses.
//!
//! The cache is shared by every session, so it is split into
//! hash-partitioned shards, each behind its own lock, to keep concurrent
//! sessions off each other's locks. Each shard runs LRU eviction under a
//! byte budget that skips pinned entries (prepared statements stay
//! resident).

use crate::ServiceStats;
use orca::OptStats;
use orca_common::MdId;
use orca_expr::physical::PhysicalPlan;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The cached payload: the serialized plan document, the in-memory plan
/// tree (so cache hits can go straight to the executor without
/// re-parsing DXL), and the optimizer diagnostics of the run that
/// produced it.
#[derive(Debug)]
pub struct CachedPlan {
    pub plan_dxl: String,
    /// The physical plan itself, executable as-is on a cache hit.
    pub plan: PhysicalPlan,
    pub cost: f64,
    pub stats: OptStats,
}

impl CachedPlan {
    /// Accounting size of one entry against the byte budget.
    fn bytes(&self, md_ids: &[MdId]) -> u64 {
        // DXL text dominates; the plan tree is charged per node, the id
        // set and fixed struct overhead are approximated.
        self.plan_dxl.len() as u64 + plan_nodes(&self.plan) * 96 + md_ids.len() as u64 * 24 + 128
    }
}

fn plan_nodes(p: &PhysicalPlan) -> u64 {
    1 + p.children.iter().map(plan_nodes).sum::<u64>()
}

#[derive(Debug)]
struct Entry {
    md_ids: Vec<MdId>,
    payload: Arc<CachedPlan>,
    bytes: u64,
    last_used: u64,
    pins: u32,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    bytes: u64,
}

/// Result of a cache probe.
#[derive(Debug)]
pub enum CacheLookup {
    Hit(Arc<CachedPlan>),
    /// An entry existed but its recorded `MdId` versions no longer match
    /// the current catalog: it has been evicted.
    Stale,
    Miss,
}

#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    mask: u64,
    /// Per-shard byte budget.
    shard_budget: u64,
    /// LRU clock: bumped on every touch; cheap and deterministic enough
    /// (exact wall-clock recency is not needed, only relative order).
    tick: AtomicU64,
    pub evictions: AtomicU64,
    pub invalidations: AtomicU64,
}

impl PlanCache {
    pub fn new(total_bytes: u64, shards: usize) -> PlanCache {
        let n = shards.max(1).next_power_of_two();
        PlanCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            mask: (n - 1) as u64,
            shard_budget: (total_bytes / n as u64).max(1),
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        // Fingerprints are FNV-mixed already; low bits select the shard.
        &self.shards[(fingerprint & self.mask) as usize]
    }

    /// Probe for `fingerprint`. `current_ids` is the sorted, deduped id set
    /// a fresh optimization of this query would record (the query's tables
    /// at their *current* catalog versions).
    pub fn lookup(&self, fingerprint: u64, current_ids: &[MdId]) -> CacheLookup {
        let mut shard = self.shard(fingerprint).lock();
        let Some(entry) = shard.map.get_mut(&fingerprint) else {
            return CacheLookup::Miss;
        };
        if entry.md_ids != current_ids {
            // Some referenced table was re-versioned since this plan was
            // cached; drop it now rather than waiting for LRU pressure.
            let stale = shard.map.remove(&fingerprint).expect("entry just seen");
            shard.bytes -= stale.bytes;
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Stale;
        }
        entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        CacheLookup::Hit(entry.payload.clone())
    }

    /// Insert (or replace) the plan for `fingerprint`. Evicts
    /// least-recently-used unpinned entries until the shard fits its
    /// budget; over-budget pinned entries are tolerated.
    pub fn insert(&self, fingerprint: u64, md_ids: Vec<MdId>, payload: Arc<CachedPlan>) {
        let bytes = payload.bytes(&md_ids);
        let mut shard = self.shard(fingerprint).lock();
        if let Some(old) = shard.map.remove(&fingerprint) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        shard.map.insert(
            fingerprint,
            Entry {
                md_ids,
                payload,
                bytes,
                last_used: self.tick.fetch_add(1, Ordering::Relaxed) + 1,
                pins: 0,
            },
        );
        while shard.bytes > self.shard_budget {
            let victim = shard
                .map
                .iter()
                .filter(|(fp, e)| e.pins == 0 && **fp != fingerprint)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| *fp);
            let Some(fp) = victim else { break };
            let evicted = shard.map.remove(&fp).expect("victim just seen");
            shard.bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pin an entry so LRU pressure cannot evict it (version invalidation
    /// still can — a stale plan is useless however popular). Returns `None`
    /// if the fingerprint is not resident.
    pub fn pin(self: &Arc<Self>, fingerprint: u64) -> Option<PinGuard> {
        let mut shard = self.shard(fingerprint).lock();
        let entry = shard.map.get_mut(&fingerprint)?;
        entry.pins += 1;
        Some(PinGuard {
            cache: self.clone(),
            fingerprint,
        })
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Whether a (non-stale-checked) entry exists for `fingerprint`.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.shard(fingerprint)
            .lock()
            .map
            .contains_key(&fingerprint)
    }

    /// Merge this cache's counters into a stats snapshot (used by
    /// `Service::stats`).
    pub fn fill_stats(&self, stats: &mut ServiceStats) {
        stats.cache_evictions = self.evictions.load(Ordering::Relaxed);
        stats.cache_invalidations = self.invalidations.load(Ordering::Relaxed);
    }
}

/// RAII pin: the entry stays eviction-exempt until the guard drops.
#[derive(Debug)]
pub struct PinGuard {
    cache: Arc<PlanCache>,
    fingerprint: u64,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut shard = self.cache.shard(self.fingerprint).lock();
        if let Some(e) = shard.map.get_mut(&self.fingerprint) {
            e.pins = e.pins.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_common::{MdId, SysId};

    fn plan(text: &str) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            plan_dxl: text.to_string(),
            plan: PhysicalPlan::leaf(orca_expr::physical::PhysicalOp::ConstTable {
                cols: Vec::new(),
                rows: Vec::new(),
            }),
            cost: 1.0,
            stats: OptStats::default(),
        })
    }

    fn ids(v: u32) -> Vec<MdId> {
        vec![MdId::new(SysId::Gpdb, 1, v)]
    }

    #[test]
    fn hit_miss_and_version_invalidation() {
        let c = PlanCache::new(1 << 20, 4);
        assert!(matches!(c.lookup(42, &ids(1)), CacheLookup::Miss));
        c.insert(42, ids(1), plan("p"));
        assert!(matches!(c.lookup(42, &ids(1)), CacheLookup::Hit(_)));
        // Version moved on → stale, evicted, then a plain miss.
        assert!(matches!(c.lookup(42, &ids(2)), CacheLookup::Stale));
        assert!(matches!(c.lookup(42, &ids(2)), CacheLookup::Miss));
        assert_eq!(c.invalidations.load(Ordering::Relaxed), 1);
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        // One shard, budget fits ~2 entries of this size.
        let c = PlanCache::new(600, 1);
        c.insert(1, ids(1), plan("x"));
        c.insert(2, ids(1), plan("y"));
        // Touch 1 so 2 is the LRU victim.
        assert!(matches!(c.lookup(1, &ids(1)), CacheLookup::Hit(_)));
        c.insert(3, ids(1), plan("z"));
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pinned_entries_survive_pressure() {
        let c = Arc::new(PlanCache::new(600, 1));
        c.insert(1, ids(1), plan("x"));
        let guard = c.pin(1).expect("resident");
        c.insert(2, ids(1), plan("y"));
        c.insert(3, ids(1), plan("z"));
        // 1 is pinned: pressure lands on 2 instead.
        assert!(c.contains(1));
        assert!(!c.contains(2));
        drop(guard);
        c.insert(4, ids(1), plan("w"));
        // Unpinned now and least recently used → evictable.
        assert!(!c.contains(1));
    }
}
