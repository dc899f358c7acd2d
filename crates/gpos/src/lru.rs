//! Least-recently-used order for the byte-budgeted caches (the service's
//! plan cache and the executor's scan-fragment cache).
//!
//! Each use stamps a key with the next tick of a private clock, and the
//! keys sit in a `BTreeMap` ordered by that tick, so the eviction victim
//! is the first entry instead of the minimum of a scan over the whole
//! cache. The cache keeps each key's current tick beside its entry and
//! hands it back on every touch and removal.

use std::collections::BTreeMap;

/// Keys ordered by last use, oldest first.
#[derive(Debug)]
pub struct LruOrder<K> {
    by_tick: BTreeMap<u64, K>,
    clock: u64,
}

impl<K> Default for LruOrder<K> {
    fn default() -> Self {
        LruOrder {
            by_tick: BTreeMap::new(),
            clock: 0,
        }
    }
}

impl<K> LruOrder<K> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `key` as the most recently used; returns its tick.
    pub fn insert(&mut self, key: K) -> u64 {
        self.clock += 1;
        self.by_tick.insert(self.clock, key);
        self.clock
    }

    /// Make the key stamped `tick` the most recently used; returns its
    /// new tick.
    pub fn touch(&mut self, tick: u64) -> u64 {
        let key = self
            .by_tick
            .remove(&tick)
            .expect("touched key is in the LRU order");
        self.insert(key)
    }

    /// Drop the key stamped `tick` (its entry left the cache).
    pub fn remove(&mut self, tick: u64) {
        self.by_tick.remove(&tick);
    }

    /// The least recently used key other than the one stamped `keep`.
    pub fn oldest_except(&self, keep: u64) -> Option<&K> {
        self.by_tick
            .iter()
            .find(|(tick, _)| **tick != keep)
            .map(|(_, key)| key)
    }

    pub fn len(&self) -> usize {
        self.by_tick.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_tick.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// A byte-budgeted cache of `key → size`, as the plan and fragment
    /// caches keep it: a get touches a resident key, an insert adds a
    /// new one (or touches it if resident), then evicts LRU entries
    /// other than itself until the total fits. `victims` lists every
    /// eviction in order.
    trait Model {
        fn get(&mut self, key: u32);
        fn insert(&mut self, key: u32, size: u64);
        fn victims(&self) -> &[u32];
    }

    /// The scan both caches used before [`LruOrder`]: a tick stamped on
    /// every probe, and the victim found as the minimum tick over the
    /// whole map.
    #[derive(Default)]
    struct Scan {
        map: HashMap<u32, (u64, u64)>,
        bytes: u64,
        tick: u64,
        budget: u64,
        victims: Vec<u32>,
    }

    impl Model for Scan {
        fn get(&mut self, key: u32) {
            // The fragment cache ticked on misses too; relative order is
            // all that matters.
            self.tick += 1;
            if let Some(e) = self.map.get_mut(&key) {
                e.1 = self.tick;
            }
        }

        fn insert(&mut self, key: u32, size: u64) {
            self.tick += 1;
            if let Some(e) = self.map.get_mut(&key) {
                e.1 = self.tick;
                return;
            }
            self.map.insert(key, (size, self.tick));
            self.bytes += size;
            while self.bytes > self.budget {
                let victim = self
                    .map
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, e)| e.1)
                    .map(|(k, _)| *k);
                let Some(k) = victim else { break };
                self.bytes -= self.map.remove(&k).expect("victim resident").0;
                self.victims.push(k);
            }
        }

        fn victims(&self) -> &[u32] {
            &self.victims
        }
    }

    #[derive(Default)]
    struct Ordered {
        map: HashMap<u32, (u64, u64)>,
        lru: LruOrder<u32>,
        bytes: u64,
        budget: u64,
        victims: Vec<u32>,
    }

    impl Model for Ordered {
        fn get(&mut self, key: u32) {
            if let Some(e) = self.map.get_mut(&key) {
                e.1 = self.lru.touch(e.1);
            }
        }

        fn insert(&mut self, key: u32, size: u64) {
            if let Some(e) = self.map.get_mut(&key) {
                e.1 = self.lru.touch(e.1);
                return;
            }
            let tick = self.lru.insert(key);
            self.map.insert(key, (size, tick));
            self.bytes += size;
            while self.bytes > self.budget {
                let Some(&k) = self.lru.oldest_except(tick) else {
                    break;
                };
                let (size, t) = self.map.remove(&k).expect("victim resident");
                self.lru.remove(t);
                self.bytes -= size;
                self.victims.push(k);
            }
        }

        fn victims(&self) -> &[u32] {
            &self.victims
        }
    }

    fn replay(model: &mut dyn Model, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20_000 {
            let key = rng.gen_range(0..64u32);
            if rng.gen_ratio(3, 5) {
                model.get(key);
            } else {
                // One insert in fifty alone exceeds the budget.
                let size = if rng.gen_ratio(1, 50) {
                    2_500
                } else {
                    rng.gen_range(1..400u64)
                };
                model.insert(key, size);
            }
        }
    }

    #[test]
    fn victims_match_the_full_scan() {
        for seed in 0..8 {
            let mut scan = Scan {
                budget: 2_000,
                ..Scan::default()
            };
            let mut ordered = Ordered {
                budget: 2_000,
                ..Ordered::default()
            };
            replay(&mut scan, seed);
            replay(&mut ordered, seed);
            assert!(
                scan.victims().len() > 1_000,
                "seed {seed}: too few evictions"
            );
            assert_eq!(scan.victims(), ordered.victims(), "seed {seed}");
            assert_eq!(ordered.lru.len(), ordered.map.len());
        }
    }

    #[test]
    fn touch_moves_a_key_to_the_back() {
        let mut lru = LruOrder::new();
        let a = lru.insert("a");
        let b = lru.insert("b");
        assert_eq!(lru.oldest_except(b), Some(&"a"));
        let a = lru.touch(a);
        assert_eq!(lru.oldest_except(a), Some(&"b"));
        assert_eq!(lru.oldest_except(b), Some(&"a"));
        lru.remove(b);
        assert_eq!(lru.oldest_except(a), None);
        assert_eq!(lru.len(), 1);
    }
}
