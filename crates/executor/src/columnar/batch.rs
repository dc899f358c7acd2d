//! Columnar batches: typed column vectors with null bitmaps.
//!
//! A [`ColumnBatch`] holds up to `batch_size` rows decomposed into one
//! [`Column`] per output position. Columns are typed vectors (`Vec<i64>`,
//! `Vec<f64>`, …) plus an optional null bitmap, with a [`Column::Mixed`]
//! fallback for the rare heterogeneous column (e.g. a CASE producing both
//! ints and strings). The shape follows the BitVec + typed-buffer design
//! of vectorized engines (SNIPPETS.md §2–3): operators work on whole
//! columns, and filters communicate through *selection vectors* (index
//! lists) rather than copied rows.
//!
//! Per-row access goes through [`ValRef`], a borrowing view whose
//! equality / ordering / hashing mirror [`Datum`]'s **exactly** — this is
//! what lets the columnar kernel reproduce the row kernel's results byte
//! for byte (NULL == NULL as a hash key, cross-type numeric equality,
//! `total_cmp` classes, FNV distribution hashing).

use crate::exec::StreamSet;
use crate::storage::Row;
use orca_common::{ColId, Datum};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A packed bit vector (LSB-first within each 64-bit word), used for
/// null tracking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    pub fn new() -> BitVec {
        BitVec::default()
    }

    /// A bitmap of `len` zero bits.
    pub fn zeros(len: usize) -> BitVec {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitmap of `len` one bits.
    pub fn ones(len: usize) -> BitVec {
        let mut b = BitVec {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        b.trim_tail();
        b
    }

    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub fn push(&mut self, bit: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if b == 0 {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1u64 << b;
        }
        self.len += 1;
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }

    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Split the bitmap at `at`, keeping the head and returning the tail.
    pub fn split_off(&mut self, at: usize) -> BitVec {
        let mut tail = BitVec::new();
        for i in at..self.len {
            tail.push(self.get(i));
        }
        self.len = at;
        self.words.truncate(at.div_ceil(64));
        self.trim_tail();
        tail
    }

    pub fn extend_from(&mut self, other: &BitVec) {
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }
}

/// A borrowed view of one value in a column. Equality, ordering and
/// hashing reproduce [`Datum`]'s semantics bit for bit.
#[derive(Debug, Clone, Copy)]
pub enum ValRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Date(i32),
    Str(&'a str),
}

impl<'a> ValRef<'a> {
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, ValRef::Null)
    }

    pub fn to_datum(self) -> Datum {
        match self {
            ValRef::Null => Datum::Null,
            ValRef::Bool(b) => Datum::Bool(b),
            ValRef::Int(i) => Datum::Int(i),
            ValRef::Double(d) => Datum::Double(d),
            ValRef::Date(d) => Datum::Date(d),
            ValRef::Str(s) => Datum::Str(s.to_string()),
        }
    }

    pub fn of(d: &'a Datum) -> ValRef<'a> {
        match d {
            Datum::Null => ValRef::Null,
            Datum::Bool(b) => ValRef::Bool(*b),
            Datum::Int(i) => ValRef::Int(*i),
            Datum::Double(x) => ValRef::Double(*x),
            Datum::Date(x) => ValRef::Date(*x),
            Datum::Str(s) => ValRef::Str(s),
        }
    }

    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValRef::Int(i) => Some(*i as f64),
            ValRef::Double(d) => Some(*d),
            ValRef::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// Mirror of `Datum::sql_cmp`: `None` for NULLs and incomparable types.
    pub fn sql_cmp(&self, other: &ValRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (ValRef::Null, _) | (_, ValRef::Null) => None,
            (ValRef::Bool(a), ValRef::Bool(b)) => Some(a.cmp(b)),
            (ValRef::Str(a), ValRef::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Comparison class of `Datum::total_cmp` (NULLs last).
    #[inline]
    fn cmp_class(&self) -> u8 {
        match self {
            ValRef::Bool(_) => 0,
            ValRef::Int(_) | ValRef::Double(_) | ValRef::Date(_) => 1,
            ValRef::Str(_) => 2,
            ValRef::Null => 3,
        }
    }

    /// Mirror of `Datum::total_cmp` (total order used for sorting).
    pub fn total_cmp(&self, other: &ValRef<'_>) -> Ordering {
        let (ca, cb) = (self.cmp_class(), other.cmp_class());
        if ca != cb {
            return ca.cmp(&cb);
        }
        match (self, other) {
            (ValRef::Null, ValRef::Null) => Ordering::Equal,
            (ValRef::Bool(a), ValRef::Bool(b)) => a.cmp(b),
            (ValRef::Str(a), ValRef::Str(b)) => a.cmp(b),
            (a, b) => {
                let (x, y) = (
                    a.as_f64().expect("numeric class"),
                    b.as_f64().expect("numeric class"),
                );
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
        }
    }

    /// Mirror of `Datum`'s hash-key equality (NULL == NULL, cross-type
    /// numeric equality).
    pub fn key_eq(&self, other: &ValRef<'_>) -> bool {
        match (self, other) {
            (ValRef::Null, ValRef::Null) => true,
            (ValRef::Null, _) | (_, ValRef::Null) => false,
            (ValRef::Bool(a), ValRef::Bool(b)) => a == b,
            (ValRef::Str(a), ValRef::Str(b)) => a == b,
            (ValRef::Int(a), ValRef::Int(b)) => a == b,
            (ValRef::Date(a), ValRef::Date(b)) => a == b,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        }
    }

    /// Mirror of `impl Hash for Datum` — the same writes in the same
    /// order, so `segment_for_key` and key hashing agree with the row
    /// kernel exactly.
    pub fn hash_into<H: Hasher>(&self, state: &mut H) {
        match self {
            ValRef::Null => 0u8.hash(state),
            ValRef::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            ValRef::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            ValRef::Double(d) => {
                2u8.hash(state);
                d.to_bits().hash(state);
            }
            ValRef::Date(d) => {
                2u8.hash(state);
                (*d as f64).to_bits().hash(state);
            }
            ValRef::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }

    /// Mirror of `Datum::width` (cost model / wire accounting).
    pub fn width(&self) -> u64 {
        match self {
            ValRef::Null => 1,
            ValRef::Bool(_) => 1,
            ValRef::Int(_) | ValRef::Double(_) => 8,
            ValRef::Date(_) => 4,
            ValRef::Str(s) => s.len() as u64 + 4,
        }
    }
}

/// An `Arc`-shared value buffer with copy-on-write mutation.
///
/// Reading derefs to the inner `Vec<T>`; mutating derefs through
/// `Arc::make_mut`, so a uniquely-owned buffer is edited in place while
/// a shared one (e.g. a storage chunk handed out by a zero-copy scan)
/// is cloned first. Cloning a `Buf` is a refcount bump — this is what
/// makes `Column::clone` (and thus batch hand-out from storage, the
/// fragment cache, and Broadcast fan-out) O(1) in the data size.
#[derive(Debug, Clone)]
pub struct Buf<T>(Arc<Vec<T>>);

impl<T> Buf<T> {
    pub fn new(v: Vec<T>) -> Buf<T> {
        Buf(Arc::new(v))
    }

    /// Whether two buffers share the same allocation.
    pub fn ptr_eq(a: &Buf<T>, b: &Buf<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Allocation identity, for charge-once byte accounting.
    pub fn addr(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Empty the buffer without cloning shared contents: a uniquely
    /// owned buffer keeps its capacity, a shared one is replaced.
    pub fn clear_buf(&mut self) {
        match Arc::get_mut(&mut self.0) {
            Some(v) => v.clear(),
            None => self.0 = Arc::new(Vec::new()),
        }
    }
}

impl<T> Default for Buf<T> {
    fn default() -> Buf<T> {
        Buf(Arc::new(Vec::new()))
    }
}

impl<T> Deref for Buf<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T> From<Vec<T>> for Buf<T> {
    fn from(v: Vec<T>) -> Buf<T> {
        Buf::new(v)
    }
}

impl<T> FromIterator<T> for Buf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Buf<T> {
        Buf::new(iter.into_iter().collect())
    }
}

impl<'a, T> IntoIterator for &'a Buf<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.0.iter()
    }
}

impl<T: Clone> DerefMut for Buf<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        Arc::make_mut(&mut self.0)
    }
}

/// One typed column vector. `Null(n)` is an all-NULL column of length
/// `n` (also the empty column); `Dict` is a dictionary-encoded string
/// column (per-chunk sorted dict, so code order ≡ string order);
/// `Mixed` is the heterogeneous fallback. All value buffers are
/// `Arc`-shared [`Buf`]s: clones are refcount bumps and mutation is
/// copy-on-write.
#[derive(Debug, Clone)]
pub enum Column {
    Null(usize),
    Int {
        vals: Buf<i64>,
        nulls: Option<BitVec>,
    },
    Double {
        vals: Buf<f64>,
        nulls: Option<BitVec>,
    },
    Bool {
        vals: Buf<bool>,
        nulls: Option<BitVec>,
    },
    Str {
        vals: Buf<String>,
        nulls: Option<BitVec>,
    },
    Date {
        vals: Buf<i32>,
        nulls: Option<BitVec>,
    },
    /// Dictionary-encoded strings: `dict` is sorted and deduplicated,
    /// `codes[i]` indexes into it (0 for NULL slots, never read).
    /// Sortedness means equality/range predicates can run on the u32
    /// codes with the same outcome as `Datum::sql_cmp` on the strings.
    Dict {
        codes: Buf<u32>,
        dict: Arc<Vec<String>>,
        nulls: Option<BitVec>,
    },
    Mixed(Buf<Datum>),
}

#[inline]
fn null_at(nulls: &Option<BitVec>, i: usize) -> bool {
    nulls.as_ref().is_some_and(|b| b.get(i))
}

fn push_null_bit(nulls: &mut Option<BitVec>, len_before: usize, bit: bool) {
    match nulls {
        Some(b) => b.push(bit),
        None if bit => {
            let mut b = BitVec::zeros(len_before);
            b.push(true);
            *nulls = Some(b);
        }
        None => {}
    }
}

impl Column {
    /// The empty column (typed on first push).
    pub fn new() -> Column {
        Column::Null(0)
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Null(n) => *n,
            Column::Int { vals, .. } => vals.len(),
            Column::Double { vals, .. } => vals.len(),
            Column::Bool { vals, .. } => vals.len(),
            Column::Str { vals, .. } => vals.len(),
            Column::Date { vals, .. } => vals.len(),
            Column::Dict { codes, .. } => codes.len(),
            Column::Mixed(vals) => vals.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrowed view of element `i`.
    #[inline]
    pub fn get_ref(&self, i: usize) -> ValRef<'_> {
        match self {
            Column::Null(_) => ValRef::Null,
            Column::Int { vals, nulls } => {
                if null_at(nulls, i) {
                    ValRef::Null
                } else {
                    ValRef::Int(vals[i])
                }
            }
            Column::Double { vals, nulls } => {
                if null_at(nulls, i) {
                    ValRef::Null
                } else {
                    ValRef::Double(vals[i])
                }
            }
            Column::Bool { vals, nulls } => {
                if null_at(nulls, i) {
                    ValRef::Null
                } else {
                    ValRef::Bool(vals[i])
                }
            }
            Column::Str { vals, nulls } => {
                if null_at(nulls, i) {
                    ValRef::Null
                } else {
                    ValRef::Str(&vals[i])
                }
            }
            Column::Date { vals, nulls } => {
                if null_at(nulls, i) {
                    ValRef::Null
                } else {
                    ValRef::Date(vals[i])
                }
            }
            Column::Dict { codes, dict, nulls } => {
                if null_at(nulls, i) {
                    ValRef::Null
                } else {
                    ValRef::Str(&dict[codes[i] as usize])
                }
            }
            Column::Mixed(vals) => ValRef::of(&vals[i]),
        }
    }

    /// Owned datum at `i` (clones strings).
    pub fn get(&self, i: usize) -> Datum {
        self.get_ref(i).to_datum()
    }

    fn to_datums(&self) -> Vec<Datum> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Append an owned datum, typing / demoting the column as needed: an
    /// untyped (`Null`) column adopts the value's type; a typed column
    /// receiving a mismatched value morphs in place when empty and falls
    /// back to `Mixed` otherwise.
    pub fn push(&mut self, d: Datum) {
        // Dict columns are immutable storage artifacts; materialize
        // before the first row-wise mutation.
        if matches!(self, Column::Dict { .. }) {
            self.undict();
        }
        // Fast same-type paths first.
        match (&mut *self, &d) {
            (Column::Null(n), Datum::Null) => {
                *n += 1;
                return;
            }
            (Column::Int { vals, nulls }, Datum::Int(v)) => {
                push_null_bit(nulls, vals.len(), false);
                vals.push(*v);
                return;
            }
            (Column::Double { vals, nulls }, Datum::Double(v)) => {
                push_null_bit(nulls, vals.len(), false);
                vals.push(*v);
                return;
            }
            (Column::Bool { vals, nulls }, Datum::Bool(v)) => {
                push_null_bit(nulls, vals.len(), false);
                vals.push(*v);
                return;
            }
            (Column::Date { vals, nulls }, Datum::Date(v)) => {
                push_null_bit(nulls, vals.len(), false);
                vals.push(*v);
                return;
            }
            (Column::Mixed(vals), _) => {
                vals.push(d);
                return;
            }
            _ => {}
        }
        if let (Column::Str { vals, nulls }, Datum::Str(_)) = (&mut *self, &d) {
            push_null_bit(nulls, vals.len(), false);
            let Datum::Str(s) = d else { unreachable!() };
            vals.push(s);
            return;
        }
        if d.is_null() {
            // Typed column receiving a NULL: placeholder + null bit.
            match self {
                Column::Int { vals, nulls } => {
                    push_null_bit(nulls, vals.len(), true);
                    vals.push(0);
                }
                Column::Double { vals, nulls } => {
                    push_null_bit(nulls, vals.len(), true);
                    vals.push(0.0);
                }
                Column::Bool { vals, nulls } => {
                    push_null_bit(nulls, vals.len(), true);
                    vals.push(false);
                }
                Column::Str { vals, nulls } => {
                    push_null_bit(nulls, vals.len(), true);
                    vals.push(String::new());
                }
                Column::Date { vals, nulls } => {
                    push_null_bit(nulls, vals.len(), true);
                    vals.push(0);
                }
                Column::Null(_) | Column::Mixed(_) | Column::Dict { .. } => {
                    unreachable!("handled above")
                }
            }
            return;
        }
        // Type mismatch (or first typed value into a Null column).
        if let Column::Null(n) = self {
            let n = *n;
            let mut col = Column::typed_empty(&d);
            for _ in 0..n {
                col.push(Datum::Null);
            }
            col.push(d);
            *self = col;
            return;
        }
        if self.is_empty() {
            *self = Column::typed_empty(&d);
            self.push(d);
            return;
        }
        let mut vals = self.to_datums();
        vals.push(d);
        *self = Column::Mixed(Buf::new(vals));
    }

    fn typed_empty(d: &Datum) -> Column {
        match d {
            Datum::Int(_) => Column::Int {
                vals: Buf::default(),
                nulls: None,
            },
            Datum::Double(_) => Column::Double {
                vals: Buf::default(),
                nulls: None,
            },
            Datum::Bool(_) => Column::Bool {
                vals: Buf::default(),
                nulls: None,
            },
            Datum::Str(_) => Column::Str {
                vals: Buf::default(),
                nulls: None,
            },
            Datum::Date(_) => Column::Date {
                vals: Buf::default(),
                nulls: None,
            },
            Datum::Null => Column::Null(0),
        }
    }

    /// Append element `i` of `other` (typed fast path, `push` fallback).
    pub fn append_from(&mut self, other: &Column, i: usize) {
        match (&mut *self, other) {
            (Column::Null(n), Column::Null(_)) => *n += 1,
            (
                Column::Int { vals, nulls },
                Column::Int {
                    vals: ov,
                    nulls: on,
                },
            ) => {
                push_null_bit(nulls, vals.len(), null_at(on, i));
                vals.push(ov[i]);
            }
            (
                Column::Double { vals, nulls },
                Column::Double {
                    vals: ov,
                    nulls: on,
                },
            ) => {
                push_null_bit(nulls, vals.len(), null_at(on, i));
                vals.push(ov[i]);
            }
            (
                Column::Bool { vals, nulls },
                Column::Bool {
                    vals: ov,
                    nulls: on,
                },
            ) => {
                push_null_bit(nulls, vals.len(), null_at(on, i));
                vals.push(ov[i]);
            }
            (
                Column::Date { vals, nulls },
                Column::Date {
                    vals: ov,
                    nulls: on,
                },
            ) => {
                push_null_bit(nulls, vals.len(), null_at(on, i));
                vals.push(ov[i]);
            }
            (
                Column::Str { vals, nulls },
                Column::Str {
                    vals: ov,
                    nulls: on,
                },
            ) => {
                push_null_bit(nulls, vals.len(), null_at(on, i));
                vals.push(ov[i].clone());
            }
            (
                Column::Dict { codes, dict, nulls },
                Column::Dict {
                    codes: oc,
                    dict: od,
                    nulls: on,
                },
            ) if Arc::ptr_eq(dict, od) => {
                push_null_bit(nulls, codes.len(), null_at(on, i));
                codes.push(oc[i]);
            }
            _ => self.push(other.get(i)),
        }
    }

    /// Bulk-append a whole column (typed extend fast path).
    pub fn extend_from_column(&mut self, other: &Column) {
        match (&mut *self, other) {
            (Column::Null(n), Column::Null(m)) => *n += m,
            (
                Column::Int { vals, nulls },
                Column::Int {
                    vals: ov,
                    nulls: on,
                },
            ) => {
                extend_nulls(nulls, vals.len(), on, ov.len());
                vals.extend_from_slice(ov);
            }
            (
                Column::Double { vals, nulls },
                Column::Double {
                    vals: ov,
                    nulls: on,
                },
            ) => {
                extend_nulls(nulls, vals.len(), on, ov.len());
                vals.extend_from_slice(ov);
            }
            (
                Column::Bool { vals, nulls },
                Column::Bool {
                    vals: ov,
                    nulls: on,
                },
            ) => {
                extend_nulls(nulls, vals.len(), on, ov.len());
                vals.extend_from_slice(ov);
            }
            (
                Column::Date { vals, nulls },
                Column::Date {
                    vals: ov,
                    nulls: on,
                },
            ) => {
                extend_nulls(nulls, vals.len(), on, ov.len());
                vals.extend_from_slice(ov);
            }
            (
                Column::Str { vals, nulls },
                Column::Str {
                    vals: ov,
                    nulls: on,
                },
            ) => {
                extend_nulls(nulls, vals.len(), on, ov.len());
                vals.extend_from_slice(ov);
            }
            (
                Column::Dict { codes, dict, nulls },
                Column::Dict {
                    codes: oc,
                    dict: od,
                    nulls: on,
                },
            ) if Arc::ptr_eq(dict, od) => {
                extend_nulls(nulls, codes.len(), on, oc.len());
                codes.extend_from_slice(oc);
            }
            _ => {
                // An empty untyped target adopts the source wholesale
                // (a refcount bump — this is how Dict columns survive
                // concat and spool copies without decoding).
                if self.is_empty() && matches!(self, Column::Null(_)) {
                    *self = other.clone();
                    return;
                }
                for i in 0..other.len() {
                    self.append_from(other, i);
                }
            }
        }
    }

    /// Gather by selection vector: `u32::MAX` selects NULL (used for the
    /// unmatched side of outer joins).
    pub fn gather(&self, sel: &[u32]) -> Column {
        const NONE: u32 = u32::MAX;
        macro_rules! gather_typed {
            ($variant:ident, $vals:ident, $nulls:ident, $default:expr) => {{
                let mut out_vals = Vec::with_capacity(sel.len());
                let mut out_nulls: Option<BitVec> = None;
                for (k, &i) in sel.iter().enumerate() {
                    if i == NONE || null_at($nulls, i as usize) {
                        push_null_bit(&mut out_nulls, k, true);
                        out_vals.push($default);
                    } else {
                        push_null_bit(&mut out_nulls, k, false);
                        out_vals.push($vals[i as usize].clone());
                    }
                }
                Column::$variant {
                    vals: Buf::new(out_vals),
                    nulls: out_nulls,
                }
            }};
        }
        match self {
            Column::Null(_) => Column::Null(sel.len()),
            Column::Int { vals, nulls } => gather_typed!(Int, vals, nulls, 0i64),
            Column::Double { vals, nulls } => gather_typed!(Double, vals, nulls, 0.0f64),
            Column::Bool { vals, nulls } => gather_typed!(Bool, vals, nulls, false),
            Column::Str { vals, nulls } => gather_typed!(Str, vals, nulls, String::new()),
            Column::Date { vals, nulls } => gather_typed!(Date, vals, nulls, 0i32),
            Column::Dict { codes, dict, nulls } => {
                // Stays dictionary-encoded: gather the codes, share the
                // dict — string filters/joins never copy string bytes.
                let mut out_codes = Vec::with_capacity(sel.len());
                let mut out_nulls: Option<BitVec> = None;
                for (k, &i) in sel.iter().enumerate() {
                    if i == NONE || null_at(nulls, i as usize) {
                        push_null_bit(&mut out_nulls, k, true);
                        out_codes.push(0);
                    } else {
                        push_null_bit(&mut out_nulls, k, false);
                        out_codes.push(codes[i as usize]);
                    }
                }
                Column::Dict {
                    codes: Buf::new(out_codes),
                    dict: dict.clone(),
                    nulls: out_nulls,
                }
            }
            Column::Mixed(vals) => Column::Mixed(Buf::new(
                sel.iter()
                    .map(|&i| {
                        if i == NONE {
                            Datum::Null
                        } else {
                            vals[i as usize].clone()
                        }
                    })
                    .collect(),
            )),
        }
    }

    /// Split at `at`, keeping the head and returning the tail.
    pub fn split_off(&mut self, at: usize) -> Column {
        match self {
            Column::Null(n) => {
                let tail = *n - at;
                *n = at;
                Column::Null(tail)
            }
            Column::Int { vals, nulls } => Column::Int {
                vals: Buf::new(vals.split_off(at)),
                nulls: nulls.as_mut().map(|b| b.split_off(at)),
            },
            Column::Double { vals, nulls } => Column::Double {
                vals: Buf::new(vals.split_off(at)),
                nulls: nulls.as_mut().map(|b| b.split_off(at)),
            },
            Column::Bool { vals, nulls } => Column::Bool {
                vals: Buf::new(vals.split_off(at)),
                nulls: nulls.as_mut().map(|b| b.split_off(at)),
            },
            Column::Str { vals, nulls } => Column::Str {
                vals: Buf::new(vals.split_off(at)),
                nulls: nulls.as_mut().map(|b| b.split_off(at)),
            },
            Column::Date { vals, nulls } => Column::Date {
                vals: Buf::new(vals.split_off(at)),
                nulls: nulls.as_mut().map(|b| b.split_off(at)),
            },
            Column::Dict { codes, dict, nulls } => Column::Dict {
                codes: Buf::new(codes.split_off(at)),
                dict: dict.clone(),
                nulls: nulls.as_mut().map(|b| b.split_off(at)),
            },
            Column::Mixed(vals) => Column::Mixed(Buf::new(vals.split_off(at))),
        }
    }

    /// Empty the column, keeping allocated capacity where possible.
    pub fn clear(&mut self) {
        match self {
            Column::Null(n) => *n = 0,
            Column::Int { vals, nulls } => {
                vals.clear_buf();
                *nulls = None;
            }
            Column::Double { vals, nulls } => {
                vals.clear_buf();
                *nulls = None;
            }
            Column::Bool { vals, nulls } => {
                vals.clear_buf();
                *nulls = None;
            }
            Column::Str { vals, nulls } => {
                vals.clear_buf();
                *nulls = None;
            }
            Column::Date { vals, nulls } => {
                vals.clear_buf();
                *nulls = None;
            }
            // A cleared Dict drops its shared buffers and reverts to
            // the untyped empty column.
            Column::Dict { .. } => *self = Column::Null(0),
            Column::Mixed(vals) => vals.clear_buf(),
        }
    }

    /// A column of `len` copies of `d`.
    pub fn repeat(d: &Datum, len: usize) -> Column {
        if d.is_null() {
            return Column::Null(len);
        }
        let mut col = Column::typed_empty(d);
        match (&mut col, d) {
            (Column::Int { vals, .. }, Datum::Int(v)) => *vals = Buf::new(vec![*v; len]),
            (Column::Double { vals, .. }, Datum::Double(v)) => *vals = Buf::new(vec![*v; len]),
            (Column::Bool { vals, .. }, Datum::Bool(v)) => *vals = Buf::new(vec![*v; len]),
            (Column::Str { vals, .. }, Datum::Str(v)) => *vals = Buf::new(vec![v.clone(); len]),
            (Column::Date { vals, .. }, Datum::Date(v)) => *vals = Buf::new(vec![*v; len]),
            _ => unreachable!(),
        }
        col
    }

    /// Sum of element widths (matches the row kernel's byte accounting).
    /// For `Dict` this is the *logical* width — decoded string widths,
    /// not code widths — so Motion byte accounting is representation
    /// independent.
    pub fn bytes(&self) -> u64 {
        match self {
            // Width depends on nullness for strings; the generic path is
            // exact for every variant.
            Column::Int { nulls: None, vals } => 8 * vals.len() as u64,
            Column::Double { nulls: None, vals } => 8 * vals.len() as u64,
            Column::Bool { nulls: None, vals } => vals.len() as u64,
            Column::Date { nulls: None, vals } => 4 * vals.len() as u64,
            Column::Dict {
                codes,
                dict,
                nulls: None,
            } => codes
                .iter()
                .map(|&c| dict[c as usize].len() as u64 + 4)
                .sum(),
            Column::Null(n) => *n as u64,
            _ => (0..self.len()).map(|i| self.get_ref(i).width()).sum(),
        }
    }

    /// Bytes this column actually holds in memory, charging each shared
    /// allocation once: an allocation already in `seen` costs nothing.
    /// This is the honest budget metric for the fragment cache, where
    /// batches alias storage chunks and each other.
    pub fn physical_bytes(&self, seen: &mut std::collections::HashSet<usize>) -> u64 {
        fn once<T>(seen: &mut std::collections::HashSet<usize>, buf: &Buf<T>, bytes: u64) -> u64 {
            if seen.insert(buf.addr()) {
                bytes
            } else {
                0
            }
        }
        let bitmap =
            |nulls: &Option<BitVec>| nulls.as_ref().map_or(0, |b| (b.len() as u64).div_ceil(8));
        match self {
            Column::Null(_) => 0,
            Column::Int { vals, nulls } => once(seen, vals, 8 * vals.len() as u64) + bitmap(nulls),
            Column::Double { vals, nulls } => {
                once(seen, vals, 8 * vals.len() as u64) + bitmap(nulls)
            }
            Column::Bool { vals, nulls } => once(seen, vals, vals.len() as u64) + bitmap(nulls),
            Column::Date { vals, nulls } => once(seen, vals, 4 * vals.len() as u64) + bitmap(nulls),
            Column::Str { vals, nulls } => {
                let sz = || vals.iter().map(|s| s.len() as u64 + 4).sum::<u64>();
                (if seen.insert(vals.addr()) { sz() } else { 0 }) + bitmap(nulls)
            }
            Column::Dict { codes, dict, nulls } => {
                let codes_b = once(seen, codes, 4 * codes.len() as u64);
                let dict_b = if seen.insert(Arc::as_ptr(dict) as usize) {
                    dict.iter().map(|s| s.len() as u64 + 4).sum::<u64>()
                } else {
                    0
                };
                codes_b + dict_b + bitmap(nulls)
            }
            Column::Mixed(vals) => {
                if seen.insert(vals.addr()) {
                    vals.iter().map(Datum::width).sum()
                } else {
                    0
                }
            }
        }
    }

    /// Decode a `Dict` column in place to a plain `Str` column (NULL
    /// slots become empty-string placeholders under the null bitmap).
    /// No-op for every other variant.
    pub fn undict(&mut self) {
        if let Column::Dict { codes, dict, nulls } = self {
            let vals: Vec<String> = codes
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    if null_at(nulls, i) {
                        String::new()
                    } else {
                        dict[c as usize].clone()
                    }
                })
                .collect();
            *self = Column::Str {
                vals: Buf::new(vals),
                nulls: nulls.take(),
            };
        }
    }

    /// Dictionary-encode a `Str` column: sorted, deduplicated per-chunk
    /// dict so that code order equals `Datum::sql_cmp` string order.
    /// Returns `None` for non-string columns.
    pub fn dict_encoded(&self) -> Option<Column> {
        let Column::Str { vals, nulls } = self else {
            return None;
        };
        let mut uniq: Vec<&String> = vals
            .iter()
            .enumerate()
            .filter(|(i, _)| !null_at(nulls, *i))
            .map(|(_, s)| s)
            .collect();
        uniq.sort();
        uniq.dedup();
        let dict: Vec<String> = uniq.into_iter().cloned().collect();
        let codes: Vec<u32> = vals
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if null_at(nulls, i) {
                    0
                } else {
                    dict.binary_search(s).expect("value in dict") as u32
                }
            })
            .collect();
        Some(Column::Dict {
            codes: Buf::new(codes),
            dict: Arc::new(dict),
            nulls: nulls.clone(),
        })
    }

    /// Borrow the pieces of a `Dict` column, if this is one.
    pub fn dict_parts(&self) -> Option<(&[u32], &[String], Option<&BitVec>)> {
        if let Column::Dict { codes, dict, nulls } = self {
            Some((codes, dict, nulls.as_ref()))
        } else {
            None
        }
    }

    /// Fold every row's value into its per-row hasher state, exactly as
    /// `ValRef::hash_into` would (`states.len() == self.len()`). Typed
    /// inner loops replace the per-row `get_ref` dispatch — this is the
    /// batch-at-a-time half of the vectorized Redistribute fan-out.
    pub fn hash_rows_into<H: Hasher>(&self, states: &mut [H]) {
        debug_assert_eq!(states.len(), self.len());
        match self {
            Column::Null(_) => {
                for st in states.iter_mut() {
                    0u8.hash(st);
                }
            }
            Column::Int { vals, nulls: None } => {
                for (v, st) in vals.iter().zip(states.iter_mut()) {
                    2u8.hash(st);
                    (*v as f64).to_bits().hash(st);
                }
            }
            Column::Double { vals, nulls: None } => {
                for (v, st) in vals.iter().zip(states.iter_mut()) {
                    2u8.hash(st);
                    v.to_bits().hash(st);
                }
            }
            Column::Date { vals, nulls: None } => {
                for (v, st) in vals.iter().zip(states.iter_mut()) {
                    2u8.hash(st);
                    (*v as f64).to_bits().hash(st);
                }
            }
            Column::Bool { vals, nulls: None } => {
                for (v, st) in vals.iter().zip(states.iter_mut()) {
                    1u8.hash(st);
                    v.hash(st);
                }
            }
            Column::Str { vals, nulls: None } => {
                for (v, st) in vals.iter().zip(states.iter_mut()) {
                    4u8.hash(st);
                    v.hash(st);
                }
            }
            Column::Dict {
                codes,
                dict,
                nulls: None,
            } => {
                for (c, st) in codes.iter().zip(states.iter_mut()) {
                    4u8.hash(st);
                    dict[*c as usize].hash(st);
                }
            }
            _ => {
                for (i, st) in states.iter_mut().enumerate() {
                    self.get_ref(i).hash_into(st);
                }
            }
        }
    }

    /// Append the `sel`-selected rows of `other` (typed bulk path; the
    /// scatter half of the vectorized Redistribute). Unlike `gather`,
    /// `u32::MAX` sentinels are not allowed.
    pub fn extend_gather(&mut self, other: &Column, sel: &[u32]) {
        if sel.is_empty() {
            return;
        }
        if self.is_empty() && matches!(self, Column::Null(_)) {
            *self = other.gather(sel);
            return;
        }
        macro_rules! extend_typed {
            ($vals:ident, $nulls:ident, $ov:ident, $on:ident) => {{
                for &i in sel {
                    push_null_bit($nulls, $vals.len(), null_at($on, i as usize));
                    $vals.push($ov[i as usize].clone());
                }
            }};
        }
        match (&mut *self, other) {
            (Column::Null(n), Column::Null(_)) => *n += sel.len(),
            (
                Column::Int { vals, nulls },
                Column::Int {
                    vals: ov,
                    nulls: on,
                },
            ) => extend_typed!(vals, nulls, ov, on),
            (
                Column::Double { vals, nulls },
                Column::Double {
                    vals: ov,
                    nulls: on,
                },
            ) => extend_typed!(vals, nulls, ov, on),
            (
                Column::Bool { vals, nulls },
                Column::Bool {
                    vals: ov,
                    nulls: on,
                },
            ) => extend_typed!(vals, nulls, ov, on),
            (
                Column::Date { vals, nulls },
                Column::Date {
                    vals: ov,
                    nulls: on,
                },
            ) => extend_typed!(vals, nulls, ov, on),
            (
                Column::Str { vals, nulls },
                Column::Str {
                    vals: ov,
                    nulls: on,
                },
            ) => extend_typed!(vals, nulls, ov, on),
            (
                Column::Dict { codes, dict, nulls },
                Column::Dict {
                    codes: oc,
                    dict: od,
                    nulls: on,
                },
            ) if Arc::ptr_eq(dict, od) => {
                for &i in sel {
                    push_null_bit(nulls, codes.len(), null_at(on, i as usize));
                    codes.push(oc[i as usize]);
                }
            }
            _ => {
                for &i in sel {
                    self.append_from(other, i as usize);
                }
            }
        }
    }
}

impl Default for Column {
    fn default() -> Column {
        Column::new()
    }
}

fn extend_nulls(nulls: &mut Option<BitVec>, len_before: usize, other: &Option<BitVec>, n: usize) {
    match (nulls.as_mut(), other) {
        (None, None) => {}
        (Some(b), None) => {
            for _ in 0..n {
                b.push(false);
            }
        }
        (None, Some(o)) => {
            if o.any() {
                let mut b = BitVec::zeros(len_before);
                b.extend_from(o);
                *nulls = Some(b);
            }
        }
        (Some(b), Some(o)) => b.extend_from(o),
    }
}

/// A batch of rows in columnar form: one [`Column`] per position, all of
/// length `len`.
#[derive(Debug, Clone, Default)]
pub struct ColumnBatch {
    pub cols: Vec<Column>,
    pub len: usize,
}

impl ColumnBatch {
    pub fn new(width: usize) -> ColumnBatch {
        ColumnBatch {
            cols: (0..width).map(|_| Column::new()).collect(),
            len: 0,
        }
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn from_rows(rows: &[Row], width: usize) -> ColumnBatch {
        let mut b = ColumnBatch::new(width);
        for row in rows {
            b.push_row(row);
        }
        b
    }

    pub fn push_row(&mut self, row: &Row) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (col, d) in self.cols.iter_mut().zip(row.iter()) {
            col.push(d.clone());
        }
        self.len += 1;
    }

    /// Append row `i` of `other` column by column.
    pub fn append_row_from(&mut self, other: &ColumnBatch, i: usize) {
        for (col, ocol) in self.cols.iter_mut().zip(other.cols.iter()) {
            col.append_from(ocol, i);
        }
        self.len += 1;
    }

    /// Bulk-append a whole batch.
    pub fn extend_from_batch(&mut self, other: &ColumnBatch) {
        debug_assert_eq!(self.cols.len(), other.cols.len());
        for (col, ocol) in self.cols.iter_mut().zip(other.cols.iter()) {
            col.extend_from_column(ocol);
        }
        self.len += other.len;
    }

    pub fn row(&self, i: usize) -> Row {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    pub fn to_rows(&self, out: &mut Vec<Row>) {
        out.reserve(self.len);
        for i in 0..self.len {
            out.push(self.row(i));
        }
    }

    /// Gather rows by selection vector (`u32::MAX` = all-NULL row).
    pub fn select(&self, sel: &[u32]) -> ColumnBatch {
        ColumnBatch {
            cols: self.cols.iter().map(|c| c.gather(sel)).collect(),
            len: sel.len(),
        }
    }

    /// Bulk-append the `sel`-selected rows of `other` (no `u32::MAX`
    /// sentinels) — the scatter step of vectorized fan-out.
    pub fn extend_select(&mut self, other: &ColumnBatch, sel: &[u32]) {
        debug_assert_eq!(self.cols.len(), other.cols.len());
        for (col, ocol) in self.cols.iter_mut().zip(other.cols.iter()) {
            col.extend_gather(ocol, sel);
        }
        self.len += sel.len();
    }

    /// Resident bytes, charging each shared allocation once across the
    /// whole call sequence threaded through `seen`.
    pub fn physical_bytes(&self, seen: &mut std::collections::HashSet<usize>) -> u64 {
        self.cols.iter().map(|c| c.physical_bytes(seen)).sum()
    }

    pub fn split_off(&mut self, at: usize) -> ColumnBatch {
        let tail_len = self.len - at;
        let cols = self.cols.iter_mut().map(|c| c.split_off(at)).collect();
        self.len = at;
        ColumnBatch {
            cols,
            len: tail_len,
        }
    }

    /// Reset to an empty batch of `width` columns, keeping allocations.
    pub fn reset(&mut self, width: usize) {
        if self.cols.len() != width {
            self.cols.resize_with(width, Column::new);
        }
        for c in self.cols.iter_mut() {
            c.clear();
        }
        self.len = 0;
    }

    pub fn bytes(&self) -> u64 {
        self.cols.iter().map(Column::bytes).sum()
    }

    /// Concatenate batches into one chunk.
    pub fn concat(batches: &[ColumnBatch], width: usize) -> ColumnBatch {
        let mut out = ColumnBatch::new(width);
        for b in batches {
            out.extend_from_batch(b);
        }
        out
    }
}

/// A per-segment columnar stream: the columnar analogue of
/// [`StreamSet`], carrying batch lists instead of row vectors.
#[derive(Debug, Clone)]
pub struct ColStream {
    pub layout: Vec<ColId>,
    pub per_seg: Vec<Vec<ColumnBatch>>,
    /// Simulated completion time of each segment's stream.
    pub avail: Vec<f64>,
    /// Same convention as [`StreamSet::replicated`].
    pub replicated: bool,
}

impl ColStream {
    pub fn empty(layout: Vec<ColId>, segments: usize) -> ColStream {
        ColStream {
            layout,
            per_seg: vec![Vec::new(); segments],
            avail: vec![0.0; segments],
            replicated: false,
        }
    }

    /// Rows in slot `s`.
    pub fn seg_rows(&self, s: usize) -> usize {
        self.per_seg[s].iter().map(|b| b.len).sum()
    }

    pub fn total_rows(&self) -> usize {
        (0..self.per_seg.len()).map(|s| self.seg_rows(s)).sum()
    }

    pub fn total_batches(&self) -> usize {
        self.per_seg.iter().map(Vec::len).sum()
    }

    pub fn elapsed(&self) -> f64 {
        self.avail.iter().copied().fold(0.0, f64::max)
    }

    /// Byte total over all slots (mirrors `StreamSet::bytes`; the sums
    /// are integers, so accumulation order cannot change the result).
    pub fn bytes(&self) -> f64 {
        self.per_seg
            .iter()
            .flatten()
            .map(|b| b.bytes() as f64)
            .sum()
    }

    pub fn from_streamset(ss: &StreamSet, batch_size: usize) -> ColStream {
        let batch_size = batch_size.max(1);
        let width = ss.layout.len();
        ColStream {
            layout: ss.layout.clone(),
            per_seg: ss
                .per_seg
                .iter()
                .map(|rows| {
                    rows.chunks(batch_size)
                        .map(|chunk| ColumnBatch::from_rows(chunk, width))
                        .collect()
                })
                .collect(),
            avail: ss.avail.clone(),
            replicated: ss.replicated,
        }
    }

    pub fn to_streamset(&self) -> StreamSet {
        let mut out = StreamSet::empty(self.layout.clone(), self.per_seg.len());
        for (s, batches) in self.per_seg.iter().enumerate() {
            let mut rows = Vec::new();
            for b in batches {
                b.to_rows(&mut rows);
            }
            out.per_seg[s] = rows;
        }
        out.avail = self.avail.clone();
        out.replicated = self.replicated;
        out
    }
}

/// Accumulates appended rows and emits full [`ColumnBatch`]es of at most
/// `cap` rows — the streaming-stage output buffer.
pub struct BatchWriter {
    width: usize,
    cap: usize,
    cur: ColumnBatch,
    out: Vec<ColumnBatch>,
}

impl BatchWriter {
    pub fn new(width: usize, cap: usize) -> BatchWriter {
        BatchWriter {
            width,
            cap: cap.max(1),
            cur: ColumnBatch::new(width),
            out: Vec::new(),
        }
    }

    pub fn append_row_from(&mut self, src: &ColumnBatch, i: usize) {
        self.cur.append_row_from(src, i);
        if self.cur.len >= self.cap {
            self.flush();
        }
    }

    pub fn push_row(&mut self, row: &Row) {
        self.cur.push_row(row);
        if self.cur.len >= self.cap {
            self.flush();
        }
    }

    /// Append a pre-built batch, preserving its boundaries when it fits.
    pub fn push_batch(&mut self, batch: ColumnBatch) {
        if batch.is_empty() {
            return;
        }
        if self.cur.is_empty() && batch.len <= self.cap {
            self.out.push(batch);
            return;
        }
        self.cur.extend_from_batch(&batch);
        while self.cur.len >= self.cap {
            let tail = self.cur.split_off(self.cap.min(self.cur.len));
            let full = std::mem::replace(&mut self.cur, tail);
            self.out.push(full);
        }
    }

    /// Gather `sel` rows of `src` into the accumulating batch, emitting
    /// capacity-sized batches as they fill. Unlike [`BatchWriter::push_batch`]
    /// this never preserves the (possibly tiny) incoming boundary, so
    /// many small selections coalesce instead of fragmenting the output —
    /// the redistribute fan-out depends on this to keep downstream
    /// operators working on full batches.
    pub fn extend_select(&mut self, src: &ColumnBatch, sel: &[u32]) {
        let mut rest = sel;
        while !rest.is_empty() {
            let take = (self.cap - self.cur.len).min(rest.len());
            self.cur.extend_select(src, &rest[..take]);
            rest = &rest[take..];
            if self.cur.len >= self.cap {
                self.flush();
            }
        }
    }

    fn flush(&mut self) {
        if !self.cur.is_empty() {
            let full = std::mem::replace(&mut self.cur, ColumnBatch::new(self.width));
            self.out.push(full);
        }
    }

    pub fn rows(&self) -> usize {
        self.out.iter().map(|b| b.len).sum::<usize>() + self.cur.len
    }

    pub fn finish(mut self) -> Vec<ColumnBatch> {
        self.flush();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_common::hash::{segment_for_key, FnvHasher};

    fn mixed_rows() -> Vec<Row> {
        vec![
            vec![Datum::Int(1), Datum::Str("a".into()), Datum::Null],
            vec![Datum::Int(2), Datum::Null, Datum::Double(1.5)],
            vec![Datum::Null, Datum::Str("b".into()), Datum::Bool(true)],
        ]
    }

    #[test]
    fn roundtrip_preserves_exact_datums() {
        let rows = mixed_rows();
        let b = ColumnBatch::from_rows(&rows, 3);
        let mut back = Vec::new();
        b.to_rows(&mut back);
        assert_eq!(format!("{rows:?}"), format!("{back:?}"));
    }

    #[test]
    fn heterogeneous_column_demotes_to_mixed() {
        let mut c = Column::new();
        c.push(Datum::Int(1));
        c.push(Datum::Str("x".into()));
        assert!(matches!(c, Column::Mixed(_)));
        assert_eq!(c.get(0), Datum::Int(1));
        assert_eq!(c.get(1), Datum::Str("x".into()));
    }

    #[test]
    fn all_null_column_stays_null() {
        let mut c = Column::new();
        c.push(Datum::Null);
        c.push(Datum::Null);
        assert!(matches!(c, Column::Null(2)));
        c.push(Datum::Int(7));
        assert_eq!(c.get(0), Datum::Null);
        assert_eq!(c.get(2), Datum::Int(7));
    }

    #[test]
    fn valref_hash_matches_datum_hash() {
        for d in [
            Datum::Null,
            Datum::Bool(true),
            Datum::Int(42),
            Datum::Double(2.5),
            Datum::Date(100),
            Datum::Str("hello".into()),
        ] {
            let mut h1 = FnvHasher::default();
            d.hash(&mut h1);
            let mut h2 = FnvHasher::default();
            ValRef::of(&d).hash_into(&mut h2);
            assert_eq!(h1.finish(), h2.finish(), "hash mismatch for {d:?}");
        }
        // Composite keys agree with segment_for_key.
        let key = vec![Datum::Int(5), Datum::Str("k".into())];
        let mut h = FnvHasher::default();
        for d in &key {
            ValRef::of(d).hash_into(&mut h);
        }
        assert_eq!((h.finish() % 7) as usize, segment_for_key(&key, 7));
    }

    #[test]
    fn valref_semantics_match_datum() {
        let a = Datum::Int(3);
        let b = Datum::Double(3.0);
        assert!(ValRef::of(&a).key_eq(&ValRef::of(&b)));
        assert!(ValRef::of(&Datum::Null).key_eq(&ValRef::of(&Datum::Null)));
        assert!(!ValRef::of(&Datum::Null).key_eq(&ValRef::of(&a)));
        for (x, y) in [
            (Datum::Int(1), Datum::Int(2)),
            (Datum::Int(1), Datum::Null),
            (Datum::Str("a".into()), Datum::Int(1)),
            (Datum::Bool(false), Datum::Bool(true)),
        ] {
            assert_eq!(
                ValRef::of(&x).total_cmp(&ValRef::of(&y)),
                x.total_cmp(&y),
                "total_cmp mismatch {x:?} {y:?}"
            );
            assert_eq!(
                ValRef::of(&x).sql_cmp(&ValRef::of(&y)),
                x.sql_cmp(&y),
                "sql_cmp mismatch {x:?} {y:?}"
            );
            assert_eq!(ValRef::of(&x).width(), x.width());
        }
    }

    #[test]
    fn gather_with_null_sentinel() {
        let rows: Vec<Row> = (0..5).map(|i| vec![Datum::Int(i)]).collect();
        let b = ColumnBatch::from_rows(&rows, 1);
        let sel = [4u32, u32::MAX, 0];
        let g = b.select(&sel);
        assert_eq!(g.row(0), vec![Datum::Int(4)]);
        assert_eq!(g.row(1), vec![Datum::Null]);
        assert_eq!(g.row(2), vec![Datum::Int(0)]);
    }

    #[test]
    fn split_off_and_writer_chunking() {
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    if i % 3 == 0 {
                        Datum::Null
                    } else {
                        Datum::Int(-i)
                    },
                ]
            })
            .collect();
        let mut b = ColumnBatch::from_rows(&rows, 2);
        let tail = b.split_off(4);
        assert_eq!(b.len, 4);
        assert_eq!(tail.len, 6);
        assert_eq!(tail.row(0), rows[4]);
        let mut w = BatchWriter::new(2, 3);
        w.push_batch(b);
        w.push_batch(tail);
        let batches = w.finish();
        assert!(batches.iter().all(|b| b.len <= 3));
        let mut back = Vec::new();
        for batch in &batches {
            batch.to_rows(&mut back);
        }
        assert_eq!(back, rows);
    }

    #[test]
    fn streamset_roundtrip() {
        let mut ss = StreamSet::empty(vec![ColId(0), ColId(1)], 2);
        ss.per_seg[0] = mixed_rows()
            .into_iter()
            .map(|mut r| {
                r.truncate(2);
                r
            })
            .collect();
        ss.avail = vec![1.5, 0.5];
        ss.replicated = false;
        let cs = ColStream::from_streamset(&ss, 2);
        assert_eq!(cs.seg_rows(0), 3);
        assert_eq!(cs.per_seg[0].len(), 2, "chunked at batch_size");
        let back = cs.to_streamset();
        assert_eq!(format!("{:?}", back.per_seg), format!("{:?}", ss.per_seg));
        assert_eq!(back.avail, ss.avail);
        assert_eq!(cs.bytes(), ss_bytes(&ss));
    }

    fn ss_bytes(ss: &StreamSet) -> f64 {
        ss.per_seg
            .iter()
            .flatten()
            .map(|r| r.iter().map(Datum::width).sum::<u64>() as f64)
            .sum()
    }
}

#[cfg(test)]
mod dict_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// Dictionary round-trip: decoding an encoded string column is
        /// the identity (NULLs included), and comparing rows by their
        /// u32 codes agrees with `Datum::sql_cmp` on the decoded
        /// strings — the property the fused scan's code-space conjunct
        /// evaluation relies on.
        #[test]
        fn dict_roundtrip_and_code_order(
            vals in proptest::collection::vec(
                proptest::option::of(proptest::sample::select(vec![
                    String::new(), "a".into(), "ab".into(), "abc".into(),
                    "b".into(), "bb".into(), "c".into(), "cat".into(), "e".into(),
                ])), 1..120),
        ) {
            let mut col = Column::new();
            for v in &vals {
                col.push(match v {
                    Some(s) => Datum::Str(s.clone()),
                    None => Datum::Null,
                });
            }
            // All-NULL inputs never build a `Str` column; nothing to encode.
            let Some(enc) = col.dict_encoded() else { return Ok(()) };
            let (codes, dict, nulls) = enc.dict_parts().expect("encoded to Dict");
            prop_assert!(dict.windows(2).all(|w| w[0] < w[1]), "dict sorted + deduped");
            // Decode ≡ identity, both via `undict` and via `get`.
            let mut dec = enc.clone();
            dec.undict();
            for (i, v) in vals.iter().enumerate() {
                let want = match v {
                    Some(s) => Datum::Str(s.clone()),
                    None => Datum::Null,
                };
                prop_assert_eq!(&dec.get(i), &want);
                prop_assert_eq!(&enc.get(i), &want);
            }
            // Code-space comparison ≡ sql_cmp on the strings.
            for i in 0..vals.len() {
                for j in 0..vals.len() {
                    let (Some(a), Some(b)) = (&vals[i], &vals[j]) else { continue };
                    prop_assert!(
                        !nulls.is_some_and(|nb| nb.get(i))
                            && !nulls.is_some_and(|nb| nb.get(j))
                    );
                    prop_assert_eq!(
                        Some(codes[i].cmp(&codes[j])),
                        Datum::Str(a.clone()).sql_cmp(&Datum::Str(b.clone())),
                        "code order diverged from sql_cmp at ({}, {})", i, j
                    );
                }
            }
        }
    }
}
