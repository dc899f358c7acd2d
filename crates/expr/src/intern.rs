//! Hash-consing for scalar expressions (and other optimizer values).
//!
//! The optimize phase compares and hashes the same predicate trees and
//! property requests millions of times. Interning turns those deep
//! recursive walks into `u32` compares: structurally equal values map to
//! the same compact id, and the id resolves back to a shared `Arc` of the
//! canonical value.
//!
//! An interner belongs to one search's `Memo`, which is single-owner, so
//! it is a plain dedup map in front of an append-only `Vec` behind
//! `RefCell`s: `&self` methods, no locks, and not `Sync`.
//!
//! Id *values* depend on arrival order. They are safe for equality-keyed
//! maps (goal tables, context indices, caches) but must never feed
//! ordering decisions or content fingerprints — see DESIGN.md "Hot-path
//! caches".

use crate::scalar::ScalarExpr;
use orca_common::hash::FnvHashMap;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Compact id of an interned value. Equal ids ⟺ structurally equal values
/// (within one interner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

impl std::fmt::Display for ExprId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Append-only interner: structural dedup in front of an arena of shared
/// values. Generic so the optimizer core can reuse it for property
/// requests.
pub struct Interner<T> {
    ids: RefCell<FnvHashMap<Arc<T>, u32>>,
    values: RefCell<Vec<Arc<T>>>,
    hits: Cell<u64>,
}

impl<T: std::hash::Hash + Eq> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T: std::hash::Hash + Eq> Interner<T> {
    pub fn new() -> Interner<T> {
        Interner {
            ids: RefCell::new(FnvHashMap::default()),
            values: RefCell::new(Vec::new()),
            hits: Cell::new(0),
        }
    }

    /// Intern `value`, returning its id. Every later probe of an equal
    /// value is a map hit, and all downstream equality/hashing on the id
    /// is O(1).
    pub fn intern(&self, value: &T) -> ExprId
    where
        T: Clone,
    {
        let mut ids = self.ids.borrow_mut();
        if let Some(&id) = ids.get(value) {
            self.hits.set(self.hits.get() + 1);
            return ExprId(id);
        }
        let mut values = self.values.borrow_mut();
        let id = values.len() as u32;
        let arc = Arc::new(value.clone());
        values.push(Arc::clone(&arc));
        ids.insert(arc, id);
        ExprId(id)
    }

    /// Resolve an id back to the canonical shared value.
    pub fn resolve(&self, id: ExprId) -> Arc<T> {
        let values = self.values.borrow();
        Arc::clone(
            values
                .get(id.0 as usize)
                .expect("interned id from a foreign interner"),
        )
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> u64 {
        self.values.borrow().len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of `intern` calls that deduplicated against an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits.get()
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
