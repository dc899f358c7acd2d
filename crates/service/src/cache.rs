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
//! **Text index.** Beside the fingerprint map, the cache maps the exact
//! text of a request that hit an entry to a [`TextAlias`]: the fingerprint
//! the text parsed to, the `(table name, MdId)` bindings the service's
//! rebind resolved, and the query's output columns. A later request with
//! the same text (compared in full, not by hash) skips the DXL parse, the
//! rebind and the fingerprint: the service checks that every binding
//! still names its table's current version, then probes [`PlanCache::lookup`]
//! with the alias's id set like any other request. An alias is recorded
//! only for a resident entry with the same id set, and only after a hit,
//! so texts that never repeat (and fallback or degraded plans, which are
//! never cached) take no room. Its bytes are charged to its entry, and it
//! leaves the cache with its entry: eviction, invalidation or replacement.
//!
//! Every session shares one map behind one lock, with one byte budget
//! and one LRU order ([`LruOrder`]): inserting past the budget evicts the
//! least-recently-used entries until the cache fits again.

use crate::ServiceStats;
use orca::OptStats;
use orca_common::{ColId, MdId};
use orca_expr::physical::PhysicalPlan;
use orca_gpos::LruOrder;
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
    /// Shared with every response that serves this entry.
    pub plan_dxl: Arc<str>,
    /// The physical plan itself, executable as-is on a cache hit.
    pub plan: PhysicalPlan,
    pub cost: f64,
    /// Shared with every response that serves this entry.
    pub stats: Arc<OptStats>,
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

/// What one request text resolved to when it was parsed: everything a
/// hit needs besides the cached plan.
#[derive(Debug, PartialEq)]
pub struct TextAlias {
    /// Version-normalized fingerprint of the parsed, rebound query.
    pub fingerprint: u64,
    /// Each table the text names, with the `MdId` the rebind bound it to.
    pub bindings: Vec<(String, MdId)>,
    /// The rebound query's sorted, deduped table ids: the id set a parse
    /// of the text presents to [`PlanCache::lookup`] while every binding
    /// holds.
    pub md_ids: Vec<MdId>,
    /// The query's output columns (what execution projects to).
    pub output_cols: Vec<ColId>,
}

impl TextAlias {
    /// Accounting size of the alias of `text` against the byte budget:
    /// the text itself, the bindings, and fixed map and struct overhead.
    fn bytes(&self, text: &str) -> u64 {
        let names: usize = self.bindings.iter().map(|(n, _)| n.len() + 48).sum();
        (text.len() + names + self.md_ids.len() * 24 + self.output_cols.len() * 8 + 160) as u64
    }
}

#[derive(Debug)]
struct Entry {
    md_ids: Vec<MdId>,
    payload: Arc<CachedPlan>,
    /// The plan's bytes plus those of every alias in `texts`.
    bytes: u64,
    /// This entry's stamp in `Inner::lru`.
    tick: u64,
    /// Request texts aliased to this entry.
    texts: Vec<Arc<str>>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    /// The text index: every alias points at a resident entry that lists
    /// the text in its `texts`.
    texts: HashMap<Arc<str>, Arc<TextAlias>>,
    lru: LruOrder<u64>,
    bytes: u64,
}

impl Inner {
    /// Remove entry `fingerprint` and its aliases.
    fn remove(&mut self, fingerprint: u64) {
        let Some(entry) = self.map.remove(&fingerprint) else {
            return;
        };
        self.lru.remove(entry.tick);
        self.bytes -= entry.bytes;
        for text in &entry.texts {
            self.texts.remove(text);
        }
    }

    /// Remove the alias of `text` and take its bytes off its entry.
    fn unalias(&mut self, text: &str) {
        let Some(alias) = self.texts.remove(text) else {
            return;
        };
        if let Some(entry) = self.map.get_mut(&alias.fingerprint) {
            let bytes = alias.bytes(text);
            entry.texts.retain(|t| &**t != text);
            entry.bytes -= bytes;
            self.bytes -= bytes;
        }
    }
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
    inner: Mutex<Inner>,
    budget: u64,
    pub evictions: AtomicU64,
    pub invalidations: AtomicU64,
}

impl PlanCache {
    pub fn new(total_bytes: u64) -> PlanCache {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            budget: total_bytes.max(1),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Probe for `fingerprint`. `current_ids` is the sorted, deduped id set
    /// a fresh optimization of this query would record (the query's tables
    /// at their *current* catalog versions).
    pub fn lookup(&self, fingerprint: u64, current_ids: &[MdId]) -> CacheLookup {
        let inner = &mut *self.inner.lock();
        let Some(entry) = inner.map.get_mut(&fingerprint) else {
            return CacheLookup::Miss;
        };
        if entry.md_ids != current_ids {
            // Some referenced table was re-versioned since this plan was
            // cached; drop it now rather than waiting for LRU pressure.
            inner.remove(fingerprint);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Stale;
        }
        entry.tick = inner.lru.touch(entry.tick);
        CacheLookup::Hit(entry.payload.clone())
    }

    /// Insert (or replace) the plan for `fingerprint`, then evict
    /// least-recently-used entries until the cache fits its budget. The
    /// new entry itself is never evicted by its own insert. Replacing an
    /// entry drops its aliases.
    pub fn insert(&self, fingerprint: u64, md_ids: Vec<MdId>, payload: Arc<CachedPlan>) {
        let bytes = payload.bytes(&md_ids);
        let inner = &mut *self.inner.lock();
        inner.remove(fingerprint);
        let tick = inner.lru.insert(fingerprint);
        inner.bytes += bytes;
        inner.map.insert(
            fingerprint,
            Entry {
                md_ids,
                payload,
                bytes,
                tick,
                texts: Vec::new(),
            },
        );
        self.evict_to_budget(inner, tick);
    }

    /// The alias recorded for the request text `text`, if any.
    pub fn alias(&self, text: &str) -> Option<Arc<TextAlias>> {
        self.inner.lock().texts.get(text).cloned()
    }

    /// Record `text` as an alias of entry `alias.fingerprint` and charge
    /// its bytes to that entry, evicting other entries past the budget.
    /// Nothing is recorded unless the entry is resident with the alias's
    /// id set, nor if the alias would make its entry alone outgrow the
    /// budget.
    pub fn record_alias(&self, text: &str, alias: TextAlias) {
        let inner = &mut *self.inner.lock();
        if inner.texts.get(text).is_some_and(|a| **a == alias) {
            return;
        }
        inner.unalias(text);
        let bytes = alias.bytes(text);
        let Some(entry) = inner.map.get_mut(&alias.fingerprint) else {
            return;
        };
        if entry.md_ids != alias.md_ids || entry.bytes + bytes > self.budget {
            return;
        }
        let text: Arc<str> = Arc::from(text);
        entry.texts.push(Arc::clone(&text));
        entry.bytes += bytes;
        let keep = entry.tick;
        inner.bytes += bytes;
        inner.texts.insert(text, Arc::new(alias));
        self.evict_to_budget(inner, keep);
    }

    /// Evict least-recently-used entries other than the one stamped
    /// `keep` until the cache fits its budget.
    fn evict_to_budget(&self, inner: &mut Inner, keep: u64) {
        while inner.bytes > self.budget {
            let Some(&victim) = inner.lru.oldest_except(keep) else {
                break;
            };
            inner.remove(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Request texts currently in the text index.
    pub fn aliases(&self) -> usize {
        self.inner.lock().texts.len()
    }

    /// Whether a (non-stale-checked) entry exists for `fingerprint`.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.inner.lock().map.contains_key(&fingerprint)
    }

    /// Merge this cache's counters into a stats snapshot (used by
    /// `Service::stats`).
    pub fn fill_stats(&self, stats: &mut ServiceStats) {
        stats.cache_evictions = self.evictions.load(Ordering::Relaxed);
        stats.cache_invalidations = self.invalidations.load(Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_common::{MdId, SysId};

    fn plan(text: &str) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            plan_dxl: text.into(),
            plan: PhysicalPlan::leaf(orca_expr::physical::PhysicalOp::ConstTable {
                cols: Vec::new(),
                rows: Vec::new(),
            }),
            cost: 1.0,
            stats: Arc::default(),
        })
    }

    fn ids(v: u32) -> Vec<MdId> {
        vec![MdId::new(SysId::Gpdb, 1, v)]
    }

    #[test]
    fn hit_miss_and_version_invalidation() {
        let c = PlanCache::new(1 << 20);
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
        // The budget fits ~2 entries of this size.
        let c = PlanCache::new(600);
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

    impl PlanCache {
        /// Check that the text index agrees with the entries: every alias
        /// points at a resident entry that lists its text, every listed text
        /// is indexed, and the resident total is the sum of the entries'
        /// bytes.
        pub(crate) fn assert_consistent(&self) {
            let inner = self.inner.lock();
            for (text, a) in &inner.texts {
                let entry = inner
                    .map
                    .get(&a.fingerprint)
                    .expect("alias outlived its entry");
                assert!(entry.texts.iter().any(|t| t == text));
            }
            let listed: usize = inner.map.values().map(|e| e.texts.len()).sum();
            assert_eq!(listed, inner.texts.len());
            assert_eq!(
                inner.bytes,
                inner.map.values().map(|e| e.bytes).sum::<u64>()
            );
            assert_eq!(inner.lru.len(), inner.map.len());
        }
    }

    fn alias(fingerprint: u64, v: u32) -> TextAlias {
        TextAlias {
            fingerprint,
            bindings: vec![("t".into(), ids(v)[0])],
            md_ids: ids(v),
            output_cols: vec![ColId(1)],
        }
    }

    #[test]
    fn alias_lives_and_dies_with_its_entry() {
        let c = PlanCache::new(1 << 20);
        // No entry, or an entry under another id set: nothing recorded.
        c.record_alias("q", alias(7, 1));
        c.insert(7, ids(2), plan("p"));
        c.record_alias("q", alias(7, 1));
        assert!(c.alias("q").is_none());

        c.insert(7, ids(1), plan("p"));
        let plan_bytes = c.bytes();
        c.record_alias("q", alias(7, 1));
        assert_eq!(c.alias("q").as_deref(), Some(&alias(7, 1)));
        assert_eq!(c.bytes(), plan_bytes + alias(7, 1).bytes("q"));
        // Recording it again charges nothing twice.
        c.record_alias("q", alias(7, 1));
        assert_eq!(c.bytes(), plan_bytes + alias(7, 1).bytes("q"));
        // The text alone is the key: a hash-equal prefix or suffix misses.
        assert!(c.alias("q ").is_none());
        c.assert_consistent();

        // Replacing the entry drops its aliases.
        c.insert(7, ids(1), plan("p"));
        assert!(c.alias("q").is_none());
        assert_eq!(c.bytes(), plan_bytes);

        // So does invalidating it.
        c.record_alias("q", alias(7, 1));
        assert!(matches!(c.lookup(7, &ids(2)), CacheLookup::Stale));
        assert!(c.alias("q").is_none());
        assert_eq!(c.bytes(), 0);
        c.assert_consistent();
    }

    #[test]
    fn two_texts_share_one_entry() {
        let c = PlanCache::new(1 << 20);
        c.insert(7, ids(1), plan("p"));
        c.record_alias("q", alias(7, 1));
        c.record_alias("q\n", alias(7, 1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.aliases(), 2);
        assert_eq!(
            c.bytes(),
            plan("p").bytes(&ids(1)) + alias(7, 1).bytes("q") + alias(7, 1).bytes("q\n")
        );
        c.assert_consistent();
    }

    #[test]
    fn alias_that_would_outgrow_the_budget_is_dropped() {
        let c = PlanCache::new(1_000);
        c.insert(7, ids(1), plan("p"));
        c.record_alias(&"x".repeat(1_000), alias(7, 1));
        assert_eq!(c.aliases(), 0);
        assert_eq!(c.bytes(), plan("p").bytes(&ids(1)));
    }

    /// A `plan_cold`-style stream: 2 000 unique texts, each optimized,
    /// hit once and aliased, against a budget a tenth of their total.
    #[test]
    fn unique_texts_stay_within_budget() {
        let budget = 64 << 10;
        let c = PlanCache::new(budget);
        for i in 0..2_000u64 {
            let text = format!(
                "<Query literal={i}/>{}",
                "x".repeat(100 + (i as usize % 7) * 300)
            );
            c.insert(i, ids(1), plan(&"p".repeat(200 + (i as usize % 5) * 100)));
            assert!(matches!(c.lookup(i, &ids(1)), CacheLookup::Hit(_)));
            c.record_alias(&text, alias(i, 1));
            assert!(
                c.bytes() <= budget,
                "{} > {budget} after text {i}",
                c.bytes()
            );
            assert!(c.alias(&text).is_some(), "text {i} must be aliased");
            if i % 97 == 0 {
                c.assert_consistent();
            }
        }
        c.assert_consistent();
        assert!(c.evictions.load(Ordering::Relaxed) > 1_500);
        assert!(c.aliases() <= c.len());
    }

    /// Inserts and lookups drawn from a seeded generator evict exactly
    /// the entries the old full-map scan for the minimum tick evicted.
    #[test]
    fn evictions_follow_the_scan_order() {
        let c = PlanCache::new(4_000);
        // The old scan, over `fingerprint → (bytes, last used)`.
        let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
        let (mut tick, mut model_bytes, mut model_evictions) = (0u64, 0u64, 0u64);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..20_000 {
            let fp = next(48);
            if next(5) < 3 {
                let hit = matches!(c.lookup(fp, &ids(1)), CacheLookup::Hit(_));
                if let Some(e) = model.get_mut(&fp) {
                    tick += 1;
                    e.1 = tick;
                }
                assert_eq!(hit, model.contains_key(&fp));
            } else {
                let payload = plan(&"p".repeat(next(600) as usize));
                let bytes = payload.bytes(&ids(1));
                c.insert(fp, ids(1), payload);
                if let Some((old, _)) = model.remove(&fp) {
                    model_bytes -= old;
                }
                tick += 1;
                model.insert(fp, (bytes, tick));
                model_bytes += bytes;
                while model_bytes > 4_000 {
                    let victim = model
                        .iter()
                        .filter(|(k, _)| **k != fp)
                        .min_by_key(|(_, e)| e.1)
                        .map(|(k, _)| *k);
                    let Some(k) = victim else { break };
                    model_bytes -= model.remove(&k).expect("victim resident").0;
                    model_evictions += 1;
                }
            }
            assert_eq!(c.bytes(), model_bytes);
        }
        assert!(model_evictions > 1_000);
        assert_eq!(c.evictions.load(Ordering::Relaxed), model_evictions);
        for fp in 0..48 {
            assert_eq!(c.contains(fp), model.contains_key(&fp), "fingerprint {fp}");
        }
    }
}
