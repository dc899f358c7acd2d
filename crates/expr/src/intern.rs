//! Hash-consing for scalar expressions (and other optimizer values).
//!
//! The optimize phase compares and hashes the same predicate trees and
//! property requests millions of times. Interning turns those deep
//! recursive walks into `u32` compares: structurally equal values map to
//! the same compact id, and the id resolves back to a shared `Arc` of the
//! canonical value without taking any lock.
//!
//! Layout mirrors the Memo's group directory: a sharded dedup index
//! (mutexed only on insert/probe of the *shard*, never globally) in front
//! of a chunked append-only arena of `OnceLock` slots. Ids are handed out
//! only after the slot is published, and every path that can observe an id
//! (the shard map, the return value of `intern`) synchronizes with the
//! slot write, so `resolve` is a plain indexed load.
//!
//! Id *values* depend on arrival order and therefore differ between runs
//! and worker counts. They are safe for equality-keyed maps (goal tables,
//! context indices, caches) but must never feed ordering decisions or
//! content fingerprints — see DESIGN.md "Hot-path caches".

use crate::scalar::ScalarExpr;
use orca_common::hash::{fnv_hash, FnvHashMap};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Compact id of an interned value. Equal ids ⟺ structurally equal values
/// (within one interner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

impl std::fmt::Display for ExprId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

const SHARD_COUNT: usize = 16;
/// 4096 slots per chunk; 1024 chunks → 4M interned values max, far above
/// anything a single optimization produces.
const CHUNK_BITS: u32 = 12;
const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
const MAX_CHUNKS: usize = 1024;

type Chunk<T> = Box<[OnceLock<Arc<T>>]>;

/// Concurrent append-only interner: structural dedup in front of a chunked
/// arena. Generic so the optimizer core can reuse it for property requests.
pub struct Interner<T> {
    shards: Vec<Mutex<FnvHashMap<Arc<T>, u32>>>,
    chunks: Vec<OnceLock<Chunk<T>>>,
    len: AtomicU64,
    hits: AtomicU64,
}

impl<T: std::hash::Hash + Eq> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T: std::hash::Hash + Eq> Interner<T> {
    pub fn new() -> Interner<T> {
        Interner {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(FnvHashMap::default()))
                .collect(),
            chunks: (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect(),
            len: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Intern `value`, returning its id. The deep hash of `value` is
    /// computed exactly once (to pick the shard and probe its map); every
    /// later probe of an equal value is a map hit, and all downstream
    /// equality/hashing on the id is O(1).
    pub fn intern(&self, value: &T) -> ExprId
    where
        T: Clone,
    {
        let shard = (fnv_hash(value) as usize) & (SHARD_COUNT - 1);
        let mut map = self.shards[shard].lock();
        if let Some(&id) = map.get(value) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return ExprId(id);
        }
        let id = self.len.fetch_add(1, Ordering::Relaxed) as usize;
        assert!(id < MAX_CHUNKS * CHUNK_SIZE, "interner arena exhausted");
        let arc = Arc::new(value.clone());
        let chunk = self.chunks[id >> CHUNK_BITS].get_or_init(|| {
            (0..CHUNK_SIZE)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        chunk[id & (CHUNK_SIZE - 1)]
            .set(Arc::clone(&arc))
            .unwrap_or_else(|_| unreachable!("arena slot assigned twice"));
        map.insert(arc, id as u32);
        ExprId(id as u32)
    }

    /// Resolve an id back to the canonical shared value. Lock-free: the id
    /// can only have been observed after its slot was published.
    pub fn resolve(&self, id: ExprId) -> Arc<T> {
        let idx = id.0 as usize;
        let chunk = self.chunks[idx >> CHUNK_BITS]
            .get()
            .expect("interned id from a foreign or empty interner");
        Arc::clone(
            chunk[idx & (CHUNK_SIZE - 1)]
                .get()
                .expect("unpublished intern slot"),
        )
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of `intern` calls that deduplicated against an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// The scalar-expression interner: hash-consing for `ScalarExpr` trees.
pub type ExprInterner = Interner<ScalarExpr>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{CmpOp, ScalarExpr};
    use orca_common::{ColId, Datum};
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn structural_dedup_and_roundtrip() {
        let interner = ExprInterner::new();
        let a = ScalarExpr::col_eq_col(ColId(1), ColId(2));
        let b = ScalarExpr::col_eq_col(ColId(1), ColId(2));
        let c = ScalarExpr::col_eq_col(ColId(1), ColId(3));
        let ia = interner.intern(&a);
        let ib = interner.intern(&b);
        let ic = interner.intern(&c);
        assert_eq!(ia, ib, "structurally equal exprs share an id");
        assert_ne!(ia, ic, "distinct exprs get distinct ids");
        assert_eq!(*interner.resolve(ia), a);
        assert_eq!(*interner.resolve(ic), c);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.hits(), 1);
    }

    #[test]
    fn resolve_returns_shared_arc() {
        let interner = ExprInterner::new();
        let e = ScalarExpr::int(7);
        let id = interner.intern(&e);
        let r1 = interner.resolve(id);
        let r2 = interner.resolve(id);
        assert!(Arc::ptr_eq(&r1, &r2), "resolve must not clone the value");
    }

    /// Satellite: same exprs interned from 8 threads yield the same ids.
    #[test]
    fn concurrent_interning_converges_to_same_ids() {
        let interner = Arc::new(ExprInterner::new());
        let exprs: Vec<ScalarExpr> = (0..64)
            .map(|i| {
                ScalarExpr::and(vec![
                    ScalarExpr::col_eq_col(ColId(i % 7), ColId(i % 5)),
                    ScalarExpr::cmp(
                        CmpOp::Gt,
                        ScalarExpr::col(ColId(i % 3)),
                        ScalarExpr::int(i as i64 % 11),
                    ),
                ])
            })
            .collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let interner = Arc::clone(&interner);
                let exprs = exprs.clone();
                std::thread::spawn(move || {
                    // Each thread walks the exprs at a different offset so
                    // first-toucher varies per value.
                    (0..exprs.len())
                        .map(|i| interner.intern(&exprs[(i + t * 9) % exprs.len()]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let ids: Vec<Vec<ExprId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let n = exprs.len();
        for t in 0..8 {
            for i in 0..n {
                // Thread t interned exprs[(i + t*9) % n] at position i.
                let expr = &exprs[(i + t * 9) % n];
                assert_eq!(*interner.resolve(ids[t][i]), *expr, "id must round-trip");
                assert_eq!(
                    interner.intern(expr),
                    ids[t][i],
                    "every thread must observe the same id per value"
                );
            }
        }
        assert_eq!(interner.len() as usize, dedup_count(&exprs));
    }

    fn dedup_count(exprs: &[ScalarExpr]) -> usize {
        let mut set = std::collections::HashSet::new();
        for e in exprs {
            set.insert(e.clone());
        }
        set.len()
    }

    fn arb_scalar() -> impl Strategy<Value = ScalarExpr> {
        let leaf = prop_oneof![
            (0u32..8).prop_map(|c| ScalarExpr::col(ColId(c))),
            (0i64..16).prop_map(ScalarExpr::int),
            Just(ScalarExpr::Const(Datum::Bool(true))),
            Just(ScalarExpr::Const(Datum::Null)),
        ];
        leaf.prop_recursive(3, 24, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(l, r)| ScalarExpr::eq(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| ScalarExpr::cmp(CmpOp::Lt, l, r)),
                prop::collection::vec(inner.clone(), 2..4).prop_map(ScalarExpr::And),
                prop::collection::vec(inner.clone(), 2..4).prop_map(ScalarExpr::Or),
                inner.clone().prop_map(|e| ScalarExpr::Not(Box::new(e))),
                inner.prop_map(|e| ScalarExpr::IsNull(Box::new(e))),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite: interned-id equality ⟺ structural equality, and the
        /// id round-trips to the original expression.
        #[test]
        fn intern_id_equality_matches_structural_equality(
            a in arb_scalar(),
            b in arb_scalar(),
        ) {
            let interner = ExprInterner::new();
            let ia = interner.intern(&a);
            let ib = interner.intern(&b);
            prop_assert_eq!(ia == ib, a == b);
            prop_assert_eq!(&*interner.resolve(ia), &a);
            prop_assert_eq!(&*interner.resolve(ib), &b);
            // Re-interning is stable.
            prop_assert_eq!(interner.intern(&a), ia);
            prop_assert_eq!(interner.intern(&b), ib);
        }
    }
}
