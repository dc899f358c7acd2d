//! The Memo (§3, §4.1).
//!
//! "The space of plan alternatives generated by the optimizer is encoded in
//! a compact in-memory data structure called the Memo. The Memo structure
//! consists of a set of containers called groups, where each group contains
//! logically equivalent expressions... Each group expression is an operator
//! that has other groups as its children."
//!
//! # Ownership
//!
//! One search owns its Memo: the engine creates it, the scheduler steps
//! every job of the search on the caller's thread (`orca_gpos::sched`),
//! and the Memo is dropped with the search. Its state is therefore plain
//! single-threaded data:
//!
//! * the **group directory** is a growable `Vec<Group>` indexed by
//!   [`GroupId`]; a merged group stays behind as a drained shell so stale
//!   ids keep resolving;
//! * **duplicate detection** is one flat map from expression topology to
//!   the single location storing it (see `DedupIndex`);
//! * the §4.2 **union-find** is a `Vec<u32>` of parent ids with path
//!   halving, and a forwarding map follows expressions relocated by merges;
//! * the **selectivity cache** is one map keyed by canonical scope groups.
//!
//! The `&self` methods mutate through `RefCell`s that each method borrows
//! only for its own duration; [`Memo::group`] hands out a short read guard
//! that callers drop before they insert. `Memo` is `Send` but not `Sync`,
//! so the compiler, not a lock, rules out sharing one search state between
//! threads.
//!
//! # Cost-bound pruning invariant
//!
//! The search prunes a candidate for context `(group, request)` only when
//! its partial cost strictly exceeds the cost of the incumbent best of that
//! *same* context (Cascades-style branch-and-bound; see `search.rs`). Since
//! the incumbent is itself a fully costed plan for the context, **a pruned
//! context never held the incumbent best**: pruning can discard only
//! candidates that are provably not cheapest, so the chosen plan — and its
//! cost — are identical with pruning on or off. Pruned attempts are counted
//! in `SearchMetrics::contexts_pruned`.

use crate::props::{DerivedProps, ReqId, ReqdProps};
use crate::stats::GroupStats;
use orca_common::hash::{fnv_hash, FnvHashMap, FnvHashSet};
use orca_common::{ColId, CteId};
use orca_expr::intern::{ExprInterner, Interner};
use orca_expr::logical::{LogicalExpr, LogicalOp};
use orca_expr::physical::PhysicalOp;
use orca_expr::scalar::ScalarExpr;
use orca_expr::ColumnRegistry;
use orca_gpos::MemTracker;
use std::cell::{Cell, Ref, RefCell, RefMut};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Id of an interned scalar expression (`orca_expr::intern::ExprId`),
/// aliased because the Memo's own expression index type is also named
/// `ExprId`.
pub type ScalarId = orca_expr::intern::ExprId;

/// Identifier of a Memo group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Index of an expression within its group.
pub type ExprId = usize;

/// Either algebra, as a Memo citizen.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operator {
    Logical(LogicalOp),
    Physical(PhysicalOp),
}

impl Operator {
    pub fn is_logical(&self) -> bool {
        matches!(self, Operator::Logical(_))
    }

    pub fn as_logical(&self) -> Option<&LogicalOp> {
        match self {
            Operator::Logical(op) => Some(op),
            Operator::Physical(_) => None,
        }
    }

    pub fn as_physical(&self) -> Option<&PhysicalOp> {
        match self {
            Operator::Physical(op) => Some(op),
            Operator::Logical(_) => None,
        }
    }

    pub fn name(&self) -> String {
        match self {
            Operator::Logical(op) => op.name().to_string(),
            Operator::Physical(op) => op.name(),
        }
    }

    fn output_cols(&self, child_outputs: &[Vec<ColId>]) -> Vec<ColId> {
        match self {
            Operator::Logical(op) => op.output_cols(child_outputs),
            Operator::Physical(op) => op.output_cols(child_outputs),
        }
    }
}

/// A group expression: an operator over child groups.
#[derive(Debug, Clone)]
pub struct GroupExpr {
    pub op: Operator,
    pub children: Vec<GroupId>,
    /// Rules already applied to this expression (indices into the active
    /// rule set) — the per-expression xform dedup of §4.2.
    pub applied_rules: FnvHashSet<usize>,
    /// Whether this expression is an enforcer added during optimization
    /// (recorded for Memo fidelity / explain; extraction uses candidates).
    pub is_enforcer: bool,
    /// Search bookkeeping: has an Explore/Implement/Optimize job been
    /// spawned for this expression yet?
    pub explore_spawned: bool,
    pub implement_spawned: bool,
    /// Tombstone: set when a group merge re-canonicalized this
    /// expression's children and the result duplicated another stored
    /// expression. Dead expressions keep their operator and (rewritten)
    /// children so stale `ExprId` references still read coherent data, but
    /// they are excluded from iteration, indexing, and counts; the live
    /// copy is found through [`Memo::resolve_expr`].
    pub dead: bool,
}

/// One costed way to satisfy a request with a given expression — an entry
/// of the paper's *group hash table* plus the *local hash table* linkage
/// ("each physical group expression maintains a local hash table mapping
/// incoming requests to the corresponding child requests").
#[derive(Debug, Clone)]
pub struct Candidate {
    pub expr: ExprId,
    /// Requests submitted to each child, as interned [`ReqId`]s (plan
    /// extraction follows these; resolve via `Memo::req_props`).
    pub child_reqs: Vec<ReqId>,
    /// Enforcers wrapped on top, innermost first.
    pub enforcers: Vec<PhysicalOp>,
    /// Total cost of the subtree including enforcers.
    pub cost: f64,
    /// Content-based shape hash used to break cost ties deterministically.
    /// Expression ids are assigned in arrival order and so differ between
    /// serial and parallel runs; this fingerprint depends only on the
    /// operator, child requests, and enforcer chain (see
    /// [`Candidate::shape_fingerprint`]).
    pub fingerprint: u64,
    /// Properties delivered after enforcement.
    pub derived: DerivedProps,
}

impl Candidate {
    /// Deterministic content hash of a candidate's plan shape. Deliberately
    /// excludes group/expression ids, whose numbering depends on job
    /// interleaving under parallel search.
    pub fn shape_fingerprint(
        op: &PhysicalOp,
        child_reqs: &[ReqdProps],
        enforcers: &[PhysicalOp],
    ) -> u64 {
        fnv_hash(&(op, child_reqs, enforcers))
    }
}

/// Per-request optimization state in a group.
#[derive(Debug, Default, Clone)]
pub struct OptContext {
    /// All valid candidates (kept for TAQO's uniform plan sampling).
    pub candidates: Vec<Candidate>,
    /// Index of the cheapest candidate.
    pub best: Option<usize>,
}

impl OptContext {
    pub fn best_candidate(&self) -> Option<&Candidate> {
        self.best.map(|i| &self.candidates[i])
    }

    /// Add a candidate, keeping the minimum under a strict total order:
    /// `(cost, fingerprint, expr id)` lexicographically. Cost alone admits
    /// ties, and "first wins" would make the chosen best depend on job
    /// arrival order — this order makes it insertion-order independent, so
    /// serial and parallel searches extract identical plans.
    pub fn add(&mut self, c: Candidate) {
        let better = match self.best {
            None => true,
            Some(i) => {
                let b = &self.candidates[i];
                match c.cost.total_cmp(&b.cost) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => match c.fingerprint.cmp(&b.fingerprint) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Greater => false,
                        std::cmp::Ordering::Equal => c.expr < b.expr,
                    },
                }
            }
        };
        self.candidates.push(c);
        if better {
            self.best = Some(self.candidates.len() - 1);
        }
    }
}

/// Per-group estimation snapshot built lazily on first optimize-phase
/// touch (`Memo::group_est`): everything `Opt(gexpr, req)` costing needs
/// about a group, precomputed once instead of per candidate — output
/// width, per-column histogram skew, and shared handles to the stats and
/// column set. Derived purely from the group's memoized stats.
#[derive(Debug)]
pub struct GroupEst {
    pub stats: Arc<GroupStats>,
    pub output_cols: Arc<Vec<ColId>>,
    /// `stats.width_of(output_cols)`, the per-row byte width of the group's
    /// output stream.
    pub width: u64,
    /// Histogram coefficient-of-variation skew per column with statistics
    /// (the `GroupStats::skew` fold, hoisted out of the per-candidate
    /// parallelism computation).
    skew: FnvHashMap<ColId, f64>,
}

impl GroupEst {
    pub fn skew_of(&self, c: ColId) -> f64 {
        self.skew.get(&c).copied().unwrap_or(0.0)
    }
}

/// A Memo group: logically equivalent expressions plus logical properties,
/// statistics and per-request optimization contexts.
#[derive(Debug)]
pub struct Group {
    pub id: GroupId,
    pub exprs: Vec<GroupExpr>,
    /// Output columns (a *set*; expression-specific column order may vary,
    /// e.g. after join commutativity). Sorted for canonical comparison.
    pub output_cols: Vec<ColId>,
    /// Derived statistics (§4.1 step 2), set once by the stats phase.
    pub stats: Option<Arc<GroupStats>>,
    /// Lazily built estimation snapshot (see [`Memo::group_est`]). Cleared
    /// when the group wins a merge, since merged-in stats could change it.
    pub est: Option<Arc<GroupEst>>,
    /// The group hash table: interned request → optimization context.
    /// Keying on [`ReqId`] makes every probe an O(1) `u32` hash and lets
    /// lookups borrow a `Copy` key instead of cloning a `ReqdProps`.
    pub ctxs: FnvHashMap<ReqId, OptContext>,
    /// Phase flags used by the search jobs.
    pub explored: bool,
    pub implemented: bool,
    /// Set when this group lost a merge: its expressions have been migrated
    /// into the named group and the union-find points there. The drained
    /// shell stays in the directory so stale `GroupId`s keep resolving.
    pub merged_into: Option<GroupId>,
}

impl Group {
    pub fn logical_exprs(&self) -> impl Iterator<Item = (ExprId, &GroupExpr)> {
        self.exprs
            .iter()
            .enumerate()
            .filter(|(_, e)| e.op.is_logical() && !e.dead)
    }

    pub fn physical_exprs(&self) -> impl Iterator<Item = (ExprId, &GroupExpr)> {
        self.exprs
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.op.is_logical() && !e.is_enforcer && !e.dead)
    }

    /// Best plan context for an interned request, if optimized.
    pub fn best_for(&self, rid: ReqId) -> Option<&Candidate> {
        self.ctxs.get(&rid).and_then(OptContext::best_candidate)
    }
}

/// Information about a CTE registered during copy-in.
#[derive(Debug, Clone)]
pub struct CteInfo {
    /// Group holding the `CTEProducer` expression.
    pub producer_group: GroupId,
    /// The producer's output column ids.
    pub cols: Vec<ColId>,
}

/// Key of the duplicate-detection index: an operator plus its child
/// groups ("based on expression topology").
type DedupKey = (Operator, Vec<GroupId>);

/// A dedup key carrying its FNV hash, computed exactly once per insert.
/// The probe, the insert and every rehash as the index grows mix the
/// stored `u64` instead of deep-hashing the `(operator, children)` pair
/// again, while equality stays fully structural (no fingerprint-only
/// dedup).
#[derive(Debug, Clone, PartialEq, Eq)]
struct HashedKey {
    hash: u64,
    key: DedupKey,
}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl HashedKey {
    fn new(op: Operator, children: Vec<GroupId>) -> HashedKey {
        let key = (op, children);
        HashedKey {
            hash: fnv_hash(&key),
            key,
        }
    }
}

/// The duplicate-detection index: a flat map from expression topology to
/// the single location storing that expression.
///
/// The map is *flat* on purpose. Each topology has exactly one home, which
/// keeps exploration bounded. When a rule output targeted at group `g`
/// collides with an identical expression already living in group `x`, the
/// two groups have been proven logically equivalent, and the insert path
/// responds with Orca-style *group merging*: [`Memo::merge`] unions `g` and
/// `x` in the union-find, migrates expressions into the lower-numbered
/// group, and rewrites the affected index entries (DESIGN.md §4.2). Keys
/// always use canonical child ids.
type DedupIndex = FnvHashMap<HashedKey, (GroupId, ExprId)>;

/// Counters describing one optimization's search behaviour. Owned by the
/// [`Memo`]; the engine folds a [`SearchMetricsSnapshot`] into its
/// `OptStats` after each stage.
#[derive(Debug, Default)]
pub struct SearchMetrics {
    groups_created: Cell<u64>,
    exprs_inserted: Cell<u64>,
    /// Inserts answered from the duplicate-detection index.
    dedup_hits: Cell<u64>,
    /// Costing attempts abandoned because the running cost exceeded the
    /// context incumbent's cost (branch-and-bound pruning).
    contexts_pruned: Cell<u64>,
    candidates_added: Cell<u64>,
    /// Group merges performed (each folds one group into another).
    groups_merged: Cell<u64>,
    /// Longest union-find chain walked by a `resolve` before compression —
    /// the merge-chain depth of §4.2's group-merging bookkeeping.
    max_merge_chain: Cell<u64>,
    /// Expressions that became duplicates during a merge (migrated copies
    /// absorbed into an existing expression, or tombstoned in place after
    /// child re-canonicalization).
    exprs_reconciled: Cell<u64>,
    /// Estimation-cache probes answered from a warm entry (selectivity
    /// entries plus per-group `GroupEst` snapshots).
    sel_cache_hits: Cell<u64>,
    /// Estimation-cache probes that had to compute and fill.
    sel_cache_misses: Cell<u64>,
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

impl SearchMetrics {
    pub fn note_context_pruned(&self) {
        bump(&self.contexts_pruned);
    }

    pub fn snapshot(&self) -> SearchMetricsSnapshot {
        SearchMetricsSnapshot {
            groups_created: self.groups_created.get(),
            exprs_inserted: self.exprs_inserted.get(),
            dedup_hits: self.dedup_hits.get(),
            contexts_pruned: self.contexts_pruned.get(),
            candidates_added: self.candidates_added.get(),
            groups_merged: self.groups_merged.get(),
            max_merge_chain: self.max_merge_chain.get(),
            exprs_reconciled: self.exprs_reconciled.get(),
            sel_cache_hits: self.sel_cache_hits.get(),
            sel_cache_misses: self.sel_cache_misses.get(),
            // Interner traffic lives on the Memo's interners, not in these
            // counters; `Memo::metrics_snapshot` fills the two fields in.
            intern_hits: 0,
            exprs_interned: 0,
        }
    }
}

/// Point-in-time copy of [`SearchMetrics`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchMetricsSnapshot {
    pub groups_created: u64,
    pub exprs_inserted: u64,
    pub dedup_hits: u64,
    pub contexts_pruned: u64,
    pub candidates_added: u64,
    pub groups_merged: u64,
    pub max_merge_chain: u64,
    pub exprs_reconciled: u64,
    pub sel_cache_hits: u64,
    pub sel_cache_misses: u64,
    /// Intern probes answered by an existing entry, summed over the
    /// scalar-expression and property-request interners (zero in a bare
    /// [`SearchMetrics::snapshot`]; see [`Memo::metrics_snapshot`]).
    pub intern_hits: u64,
    /// Distinct values held by the Memo's interners.
    pub exprs_interned: u64,
}

/// Union-find over group ids — the heart of §4.2 group merging.
///
/// `parent[i] == i` means `i` is canonical; a merged group points at the
/// group it was folded into. `find` compresses by path halving, pointing
/// each visited id at its grandparent.
#[derive(Default)]
struct UnionFind {
    parent: RefCell<Vec<u32>>,
}

impl UnionFind {
    /// Register the next group id as its own root.
    fn push(&self) {
        let mut parent = self.parent.borrow_mut();
        let id = parent.len() as u32;
        parent.push(id);
    }

    /// Canonical representative of `i` plus the chain length walked before
    /// compression (the merge-chain-depth metric; 0 when `i` is a root).
    fn find(&self, mut i: u32) -> (u32, u64) {
        let mut parent = self.parent.borrow_mut();
        let mut depth = 0u64;
        loop {
            let p = parent[i as usize];
            if p == i {
                return (i, depth);
            }
            let gp = parent[p as usize];
            parent[i as usize] = gp;
            i = gp;
            depth += 1;
        }
    }

    /// Point root `child` at root `parent`.
    fn union(&self, child: u32, parent: u32) {
        debug_assert_ne!(child, parent);
        self.parent.borrow_mut()[child as usize] = parent;
    }
}

/// The Memo. See module docs for the ownership model.
///
/// One search owns a Memo; it cannot be shared with another thread:
///
/// ```compile_fail,E0277
/// let memo = orca::memo::Memo::new();
/// std::thread::scope(|s| {
///     s.spawn(|| memo.num_groups());
/// });
/// ```
#[derive(Default)]
pub struct Memo {
    /// The group directory, indexed by [`GroupId`].
    groups: RefCell<Vec<Group>>,
    dedup: RefCell<DedupIndex>,
    /// Group-merging union-find (§4.2): maps any group id ever handed out
    /// to its canonical representative.
    uf: UnionFind,
    /// Forwarding map for expressions relocated or tombstoned by merges:
    /// old `(group, expr)` location → where the live copy went. Chains are
    /// acyclic (an entry is created only when a location dies, pointing at
    /// a then-live location); [`Memo::resolve_expr`] follows them.
    moved: RefCell<FnvHashMap<(GroupId, ExprId), (GroupId, ExprId)>>,
    ctes: RefCell<FnvHashMap<CteId, CteInfo>>,
    mem: MemTracker,
    metrics: SearchMetrics,
    /// Interned property requests: `ReqdProps` ↔ [`ReqId`]. Context maps,
    /// goal keys and candidate child-request lists key on the compact id.
    reqs: Interner<ReqdProps>,
    /// Hash-consed scalar predicates; keys the selectivity cache.
    scalars: ExprInterner,
    /// Memoized predicate selectivities keyed by `(canonical scope groups,
    /// interned predicate)`. Filter scopes use `(g, g)`; join scopes use
    /// `(left, right)`. Probes canonicalize through the union-find first
    /// and [`Memo::merge`] purges loser-keyed entries, so a stale loser
    /// key is never served (see DESIGN.md "Hot-path caches").
    sel_cache: RefCell<FnvHashMap<(GroupId, GroupId, ScalarId), f64>>,
}

/// Rough per-expression footprint estimate for the §7.2.2 memory stats.
const EXPR_BYTES: u64 = 256;
const GROUP_BYTES: u64 = 512;

impl Memo {
    pub fn new() -> Memo {
        Memo::default()
    }

    /// Search counters for this Memo.
    pub fn metrics(&self) -> &SearchMetrics {
        &self.metrics
    }

    /// [`SearchMetrics::snapshot`] plus the interner counters (dedup hits
    /// and arena sizes across the scalar-expression and property-request
    /// interners).
    pub fn metrics_snapshot(&self) -> SearchMetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.intern_hits = self.scalars.hits() + self.reqs.hits();
        snap.exprs_interned = self.scalars.len() + self.reqs.len();
        snap
    }

    /// Intern a property request, returning its compact id. Structurally
    /// equal requests always yield the same id within this Memo.
    pub fn intern_req(&self, req: &ReqdProps) -> ReqId {
        ReqId(self.reqs.intern(req).0)
    }

    /// Resolve an interned request id back to its canonical shared value.
    pub fn req_props(&self, rid: ReqId) -> Arc<ReqdProps> {
        self.reqs.resolve(orca_expr::intern::ExprId(rid.0))
    }

    /// Hash-cons a scalar expression, returning its compact id.
    pub fn intern_scalar(&self, expr: &ScalarExpr) -> ScalarId {
        self.scalars.intern(expr)
    }

    /// Resolve an interned scalar id back to its canonical shared tree.
    pub fn scalar(&self, id: ScalarId) -> Arc<ScalarExpr> {
        self.scalars.resolve(id)
    }

    /// Probe the selectivity cache for `(scope, pred)`. Scope group ids are
    /// canonicalized through the union-find before the probe, so callers
    /// holding pre-merge ids still hit the surviving entry and can never
    /// observe a stale loser-keyed value.
    pub fn cached_selectivity(&self, left: GroupId, right: GroupId, pred: ScalarId) -> Option<f64> {
        let key = (self.resolve(left), self.resolve(right), pred);
        let hit = self.sel_cache.borrow().get(&key).copied();
        bump(if hit.is_some() {
            &self.metrics.sel_cache_hits
        } else {
            &self.metrics.sel_cache_misses
        });
        hit
    }

    /// Record a computed selectivity for `(scope, pred)` under canonical
    /// scope ids.
    pub fn note_selectivity(&self, left: GroupId, right: GroupId, pred: ScalarId, sel: f64) {
        let key = (self.resolve(left), self.resolve(right), pred);
        self.sel_cache.borrow_mut().insert(key, sel);
    }

    /// The group's estimation snapshot, built on first touch from its
    /// memoized stats (returns `None` until the stats phase ran). Counted
    /// as estimation-cache traffic: a warm snapshot is a hit, building one
    /// is a miss.
    pub fn group_est(&self, gid: GroupId, registry: &ColumnRegistry) -> Option<Arc<GroupEst>> {
        let mut g = self.group_mut(gid);
        if let Some(est) = &g.est {
            bump(&self.metrics.sel_cache_hits);
            return Some(est.clone());
        }
        bump(&self.metrics.sel_cache_misses);
        let stats = g.stats.clone()?;
        let output_cols = Arc::new(g.output_cols.clone());
        let width = stats.width_of(&output_cols, registry);
        let skew = stats.cols.keys().map(|&c| (c, stats.skew(c))).collect();
        let est = Arc::new(GroupEst {
            stats,
            output_cols,
            width,
            skew,
        });
        Some(g.est.insert(est).clone())
    }

    /// Canonical representative of a group id (§4.2 group merging). Cheap:
    /// one vector read when the group never merged. Records the
    /// merge-chain depth metric when a chain was walked.
    pub fn resolve(&self, id: GroupId) -> GroupId {
        let (root, depth) = self.uf.find(id.0);
        let longest = &self.metrics.max_merge_chain;
        longest.set(longest.get().max(depth));
        GroupId(root)
    }

    /// Whether `id` is its own canonical representative.
    pub fn is_canonical(&self, id: GroupId) -> bool {
        self.uf.find(id.0).0 == id.0
    }

    /// Follow the forwarding chain of a possibly-relocated expression to
    /// its current live location. Ids held by suspended jobs go stale
    /// whenever a merge runs; this is the recovery path.
    pub fn resolve_expr(&self, mut gid: GroupId, mut eid: ExprId) -> (GroupId, ExprId) {
        let moved = self.moved.borrow();
        while let Some(&(g, e)) = moved.get(&(gid, eid)) {
            gid = g;
            eid = e;
        }
        (self.resolve(gid), eid)
    }

    /// The canonical group for `id`. Drop the guard before inserting into
    /// the Memo.
    pub fn group(&self, id: GroupId) -> Ref<'_, Group> {
        let idx = self.resolve(id).0 as usize;
        Ref::map(self.groups.borrow(), |groups| &groups[idx])
    }

    /// Mutable access to the canonical group for `id`; the same borrowing
    /// rule as [`Memo::group`] applies.
    pub(crate) fn group_mut(&self, id: GroupId) -> RefMut<'_, Group> {
        let idx = self.resolve(id).0 as usize;
        RefMut::map(self.groups.borrow_mut(), |groups| &mut groups[idx])
    }

    /// Run `f` on the canonical group for `gid`, passing the canonical id.
    pub fn with_group<R>(&self, gid: GroupId, f: impl FnOnce(GroupId, &mut Group) -> R) -> R {
        let gid = self.resolve(gid);
        f(gid, &mut self.group_mut(gid))
    }

    /// Run `f` on a (possibly relocated) expression. Returns the resolved
    /// location alongside `f`'s result.
    pub fn with_expr<R>(
        &self,
        gid: GroupId,
        eid: ExprId,
        f: impl FnOnce(&mut GroupExpr) -> R,
    ) -> (GroupId, ExprId, R) {
        let (gid, eid) = self.resolve_expr(gid, eid);
        let r = f(&mut self.group_mut(gid).exprs[eid]);
        (gid, eid, r)
    }

    /// Snapshot of a (possibly relocated) expression's operator and
    /// canonical child groups. The workhorse read for rule binding and job
    /// bookkeeping.
    pub fn expr_op_children(
        &self,
        gid: GroupId,
        eid: ExprId,
    ) -> (GroupId, ExprId, Operator, Vec<GroupId>) {
        let (gid, eid) = self.resolve_expr(gid, eid);
        let g = self.group(gid);
        let e = &g.exprs[eid];
        (gid, eid, e.op.clone(), e.children.clone())
    }

    /// Total groups ever created (including drained merge shells).
    pub fn num_groups(&self) -> usize {
        self.groups.borrow().len()
    }

    /// Groups that are their own canonical representative.
    pub fn num_canonical_groups(&self) -> usize {
        self.canonical_groups().len()
    }

    /// Canonical group ids, in id order.
    pub fn canonical_groups(&self) -> Vec<GroupId> {
        (0..self.num_groups())
            .map(|i| GroupId(i as u32))
            .filter(|&g| self.is_canonical(g))
            .collect()
    }

    /// Live (non-tombstoned) expressions across canonical groups.
    pub fn num_exprs(&self) -> usize {
        self.groups
            .borrow()
            .iter()
            .filter(|g| g.merged_into.is_none())
            .map(|g| g.exprs.iter().filter(|e| !e.dead).count())
            .sum()
    }

    /// Estimated bytes held by the Memo.
    pub fn bytes(&self) -> u64 {
        self.mem.current()
    }

    pub fn output_cols(&self, id: GroupId) -> Vec<ColId> {
        self.group(id).output_cols.clone()
    }

    pub fn stats(&self, id: GroupId) -> Option<Arc<GroupStats>> {
        self.group(id).stats.clone()
    }

    /// Cost of the incumbent best for `(group, req)`, if any — the pruning
    /// bound for the branch-and-bound search.
    pub fn best_cost(&self, gid: GroupId, rid: ReqId) -> Option<f64> {
        self.group(gid).best_for(rid).map(|c| c.cost)
    }

    pub fn cte_info(&self, id: CteId) -> Option<CteInfo> {
        let info = self.ctes.borrow().get(&id).cloned();
        info.map(|mut info| {
            info.producer_group = self.resolve(info.producer_group);
            info
        })
    }

    /// Copy a logical expression tree into the Memo ("copied-in to the
    /// Memo", §4.1), returning the root group.
    pub fn copy_in(&self, expr: &LogicalExpr) -> GroupId {
        let children: Vec<GroupId> = expr.children.iter().map(|c| self.copy_in(c)).collect();
        let (gid, _, _) = self.insert_expr(None, Operator::Logical(expr.op.clone()), children);
        // Register CTE producers so consumers can find their stats.
        if let LogicalOp::CteProducer { id, cols } = &expr.op {
            self.ctes.borrow_mut().insert(
                *id,
                CteInfo {
                    producer_group: gid,
                    cols: cols.clone(),
                },
            );
        }
        gid
    }

    /// Insert an expression. `target = None` means "its own (possibly new)
    /// group"; `Some(g)` adds to group `g` (rule outputs, enforcers).
    ///
    /// Returns `(group, expr index, newly_added)`. Duplicate detection: if
    /// an identical expression already exists anywhere, the existing
    /// location is returned and nothing is added ("built-in duplicate
    /// detection mechanism, based on expression topology").
    pub fn insert_expr(
        &self,
        target: Option<GroupId>,
        op: Operator,
        children: Vec<GroupId>,
    ) -> (GroupId, ExprId, bool) {
        self.insert_expr_full(target, op, children, false)
    }

    /// Insert an enforcer expression into `target` (Memo fidelity for
    /// Figure 6-style dumps).
    pub fn insert_enforcer(&self, target: GroupId, op: PhysicalOp) {
        self.insert_expr_full(Some(target), Operator::Physical(op), vec![target], true);
    }

    fn insert_expr_full(
        &self,
        target: Option<GroupId>,
        op: Operator,
        children: Vec<GroupId>,
        is_enforcer: bool,
    ) -> (GroupId, ExprId, bool) {
        let target = target.map(|t| self.resolve(t));
        let children: Vec<GroupId> = children.into_iter().map(|c| self.resolve(c)).collect();
        let key = HashedKey::new(op.clone(), children.clone());
        // Duplicate detection on expression topology: each topology has
        // exactly one home (see `DedupIndex`).
        let hit = self.dedup.borrow().get(&key).copied();
        if let Some((gid, eid)) = hit {
            bump(&self.metrics.dedup_hits);
            if let Some(t) = target.filter(|&t| t != gid) {
                // A rule output targeted at `t` already lives in `gid`:
                // the groups are logically equivalent. Merge them (§4.2).
                // Enforcer keys are self-referential so they can never
                // take this path.
                self.merge(t, gid);
                let (gid, eid) = self.resolve_expr(gid, eid);
                return (gid, eid, false);
            }
            return (gid, eid, false);
        }
        let mut groups = self.groups.borrow_mut();
        let gid = match target {
            Some(g) => g,
            None => {
                // New group: derive output columns from children.
                let child_outputs: Vec<Vec<ColId>> = children
                    .iter()
                    .map(|c| groups[c.0 as usize].output_cols.clone())
                    .collect();
                let mut cols = op.output_cols(&child_outputs);
                cols.sort();
                cols.dedup();
                let gid = GroupId(groups.len() as u32);
                groups.push(Group {
                    id: gid,
                    exprs: Vec::new(),
                    output_cols: cols,
                    stats: None,
                    est: None,
                    ctxs: FnvHashMap::default(),
                    explored: false,
                    implemented: false,
                    merged_into: None,
                });
                self.uf.push();
                self.mem.add(GROUP_BYTES);
                bump(&self.metrics.groups_created);
                gid
            }
        };
        let g = &mut groups[gid.0 as usize];
        let eid = g.exprs.len();
        g.exprs.push(GroupExpr {
            op,
            children,
            applied_rules: FnvHashSet::default(),
            is_enforcer,
            explore_spawned: false,
            implement_spawned: false,
            dead: false,
        });
        self.mem.add(EXPR_BYTES);
        bump(&self.metrics.exprs_inserted);
        self.dedup.borrow_mut().insert(key, (gid, eid));
        (gid, eid, true)
    }

    /// Merge the groups containing `a` and `b` — Orca's group merging
    /// (§4.2), triggered when duplicate detection proves two groups hold
    /// the same expression topology. Migrating and re-canonicalizing
    /// expressions can uncover further equivalences; those *cascaded*
    /// merges are queued and processed before this call returns.
    ///
    /// Ordering rule: the higher-numbered root always merges into the
    /// lower-numbered one, so each union permanently reduces the number of
    /// roots and the cascade terminates.
    ///
    /// Returns the canonical group for the merged equivalence class.
    pub fn merge(&self, a: GroupId, b: GroupId) -> GroupId {
        let mut pending: Vec<(GroupId, GroupId)> = vec![(a, b)];
        while let Some((x, y)) = pending.pop() {
            let rx = self.resolve(x);
            let ry = self.resolve(y);
            if rx == ry {
                continue;
            }
            let (w, l) = if rx < ry { (rx, ry) } else { (ry, rx) };
            self.merge_one(w, l, &mut pending);
        }
        self.resolve(a)
    }

    /// Fold loser `l` into winner `w` (both canonical, `w < l`).
    fn merge_one(&self, w: GroupId, l: GroupId, pending: &mut Vec<(GroupId, GroupId)>) {
        // Union first: resolutions during migration (including the loser's
        // own self-references, e.g. enforcer children) already see `w`.
        self.uf.union(l.0, w.0);
        bump(&self.metrics.groups_merged);

        // Drain the loser down to a shell.
        let (l_exprs, l_ctxs, l_stats, l_explored, l_implemented) = {
            let mut groups = self.groups.borrow_mut();
            let g = &mut groups[l.0 as usize];
            debug_assert!(g.merged_into.is_none(), "group {l} merged twice");
            g.merged_into = Some(w);
            g.est = None;
            (
                std::mem::take(&mut g.exprs),
                std::mem::take(&mut g.ctxs),
                g.stats.take(),
                g.explored,
                g.implemented,
            )
        };

        // Cache coherence: drop every selectivity entry whose scope names
        // the loser. Post-merge probes canonicalize to the winner's key and
        // recompute against the surviving stats — a loser-keyed value is
        // never served again.
        self.sel_cache
            .borrow_mut()
            .retain(|&(a, b, _), _| a != l && b != l);

        // Migrate live loser expressions into the winner, reconciling the
        // duplicates the merge itself creates.
        let mut remap: FnvHashMap<ExprId, (GroupId, ExprId)> = FnvHashMap::default();
        let mut dedup = self.dedup.borrow_mut();
        let mut groups = self.groups.borrow_mut();
        for (old_eid, mut e) in l_exprs.into_iter().enumerate() {
            if e.dead {
                continue; // already forwarded when it was tombstoned
            }
            let old_key = HashedKey::new(e.op.clone(), e.children.clone());
            let removed = dedup.remove(&old_key);
            debug_assert_eq!(removed, Some((l, old_eid)), "stale dedup entry for {l}");
            e.children = e.children.iter().map(|c| self.resolve(*c)).collect();
            let new_key = HashedKey::new(e.op.clone(), e.children.clone());
            match dedup.get(&new_key).copied() {
                None => {
                    let wg = &mut groups[w.0 as usize];
                    let new_eid = wg.exprs.len();
                    dedup.insert(new_key, (w, new_eid));
                    wg.exprs.push(e);
                    remap.insert(old_eid, (w, new_eid));
                }
                Some((g2, e2)) => {
                    // The re-canonicalized expression already exists at
                    // (g2, e2): fold its bookkeeping into the keeper.
                    let k = &mut groups[g2.0 as usize].exprs[e2];
                    k.applied_rules.extend(e.applied_rules.iter().copied());
                    k.explore_spawned |= e.explore_spawned;
                    k.implement_spawned |= e.implement_spawned;
                    bump(&self.metrics.exprs_reconciled);
                    remap.insert(old_eid, (g2, e2));
                    if self.resolve(g2) != w {
                        // Shared topology across yet another group pair.
                        pending.push((w, g2));
                    }
                }
            }
        }
        drop(dedup);
        self.moved
            .borrow_mut()
            .extend(remap.iter().map(|(&old_eid, &dst)| ((l, old_eid), dst)));

        // Fold contexts, stats and phase flags into the winner. The
        // winner's estimation snapshot is invalidated: merged-in stats (or
        // future optimize-phase touches over the enlarged group) must not
        // see a pre-merge snapshot.
        let wg = &mut groups[w.0 as usize];
        wg.explored &= l_explored;
        wg.implemented &= l_implemented;
        wg.est = None;
        if wg.stats.is_none() {
            wg.stats = l_stats;
        }
        for (rid, ctx) in l_ctxs {
            for mut cand in ctx.candidates {
                // Keep candidates whose expression landed in the winner. One
                // absorbed into a third group belongs to a pending merge and
                // is re-homed when that merge runs.
                if let Some(&(g2, e2)) = remap.get(&cand.expr) {
                    if g2 == w {
                        cand.expr = e2;
                        wg.ctxs.entry(rid).or_default().add(cand);
                    }
                }
            }
        }
        drop(groups);

        // Re-canonicalize every reference to `l` elsewhere in the memo.
        self.rewrite_refs(l, pending);

        // CTE registrations may name the merged group.
        for info in self.ctes.borrow_mut().values_mut() {
            if info.producer_group == l {
                info.producer_group = w;
            }
        }
    }

    /// Rewrite child lists that still reference the drained group `l`,
    /// re-keying the dedup index and tombstoning expressions the rewrite
    /// turns into duplicates.
    fn rewrite_refs(&self, l: GroupId, pending: &mut Vec<(GroupId, GroupId)>) {
        let mut dedup = self.dedup.borrow_mut();
        let mut groups = self.groups.borrow_mut();
        let mut moved = self.moved.borrow_mut();
        // Folds into a keeper in another group wait until the scan is
        // done, so a keeper tombstoned later in the scan forwards only
        // the bookkeeping it held itself.
        let mut absorb: Vec<(GroupId, ExprId, FnvHashSet<usize>, bool, bool)> = Vec::new();
        for (idx, g) in groups.iter_mut().enumerate() {
            let gid = GroupId(idx as u32);
            if g.merged_into.is_some() {
                continue;
            }
            for eid in 0..g.exprs.len() {
                if g.exprs[eid].dead || !g.exprs[eid].children.contains(&l) {
                    continue;
                }
                let old_key =
                    HashedKey::new(g.exprs[eid].op.clone(), g.exprs[eid].children.clone());
                let removed = dedup.remove(&old_key);
                debug_assert_eq!(removed, Some((gid, eid)), "stale dedup entry for {gid}");
                let new_children: Vec<GroupId> =
                    old_key.key.1.iter().map(|c| self.resolve(*c)).collect();
                g.exprs[eid].children = new_children.clone();
                let new_key = HashedKey::new(old_key.key.0, new_children);
                let Some((g2, e2)) = dedup.get(&new_key).copied() else {
                    dedup.insert(new_key, (gid, eid));
                    continue;
                };
                // The rewrite made this expression a duplicate of (g2, e2):
                // tombstone it (keeping op/children for stale readers) and
                // forward.
                let e = &mut g.exprs[eid];
                e.dead = true;
                let rules = std::mem::take(&mut e.applied_rules);
                let (es, is_) = (e.explore_spawned, e.implement_spawned);
                if g2 == gid {
                    let k = &mut g.exprs[e2];
                    k.applied_rules.extend(rules);
                    k.explore_spawned |= es;
                    k.implement_spawned |= is_;
                } else {
                    absorb.push((g2, e2, rules, es, is_));
                    // Two groups sharing a topology: equivalent.
                    pending.push((gid, g2));
                }
                bump(&self.metrics.exprs_reconciled);
                moved.insert((gid, eid), (g2, e2));
            }
        }
        for (g2, e2, rules, es, is_) in absorb {
            let k = &mut groups[g2.0 as usize].exprs[e2];
            k.applied_rules.extend(rules);
            k.explore_spawned |= es;
            k.implement_spawned |= is_;
        }
    }

    /// Reset exploration bookkeeping so the driver can run another
    /// exploration pass after merges changed group contents (rule bindings
    /// over merged child groups may produce new alternatives). Clears the
    /// per-group `explored` flag, per-expression explore-spawn flags, and
    /// only the given exploration-rule indices from `applied_rules` —
    /// implementation-rule history is preserved.
    pub fn reset_exploration(&self, exploration_rules: &[usize]) {
        for g in self.groups.borrow_mut().iter_mut() {
            if g.merged_into.is_some() {
                continue;
            }
            g.explored = false;
            for e in g.exprs.iter_mut() {
                if e.dead || !e.op.is_logical() {
                    continue;
                }
                e.explore_spawned = false;
                for r in exploration_rules {
                    e.applied_rules.remove(r);
                }
            }
        }
    }

    /// Record a costed candidate for `(group, req)`; keeps the cheapest as
    /// best. Returns whether it became the new best. The candidate's
    /// expression id is re-resolved in case a merge relocated it between
    /// costing and recording.
    pub fn add_candidate(&self, gid: GroupId, rid: ReqId, mut cand: Candidate) -> bool {
        bump(&self.metrics.candidates_added);
        let (gid, eid) = self.resolve_expr(gid, cand.expr);
        cand.expr = eid;
        let mut g = self.group_mut(gid);
        let ctx = g.ctxs.entry(rid).or_default();
        let old_best = ctx.best;
        ctx.add(cand);
        old_best != ctx.best
    }

    /// Cross-check the duplicate-detection index, the group directory, the
    /// union-find and the merge forwarding map: every index entry must
    /// point at an identical live expression in a canonical group, index
    /// keys and stored child lists must use canonical ids only, every live
    /// expression must have exactly one index entry, merged shells must be
    /// drained, every forwarding chain must end at a live expression of a
    /// canonical group, and the merge counters must agree with the
    /// union-find. Used by stress tests after insert/merge storms and at
    /// quiescent points in the engine.
    pub fn check_integrity(&self) -> Result<(), String> {
        let dedup = self.dedup.borrow();
        let groups = self.groups.borrow();
        let canonical = |g: GroupId| self.uf.find(g.0).0 == g.0;
        for (hk, &(gid, eid)) in dedup.iter() {
            let (op, children) = (&hk.key.0, &hk.key.1);
            if hk.hash != fnv_hash(&hk.key) {
                return Err(format!("dedup key for {gid}/{eid} has a stale hash"));
            }
            if gid.0 as usize >= groups.len() {
                return Err(format!("dedup entry points at unknown group {gid}"));
            }
            if !canonical(gid) {
                return Err(format!("dedup entry points at non-canonical group {gid}"));
            }
            if let Some(c) = children.iter().find(|&&c| !canonical(c)) {
                return Err(format!(
                    "dedup key for {gid}/{eid} has non-canonical child {c}"
                ));
            }
            let Some(e) = groups[gid.0 as usize].exprs.get(eid) else {
                return Err(format!("dedup entry points at missing expr {gid}/{eid}"));
            };
            if e.dead {
                return Err(format!("dedup entry points at tombstoned expr {gid}/{eid}"));
            }
            if &e.op != op || &e.children != children {
                return Err(format!("dedup entry disagrees with expr {gid}/{eid}"));
            }
        }
        for &(a, b, pid) in self.sel_cache.borrow().keys() {
            if !canonical(a) || !canonical(b) {
                return Err(format!(
                    "selectivity cache holds a stale loser-scoped key ({a}, {b}, {pid})"
                ));
            }
        }
        let moved = self.moved.borrow();
        for &(from_g, from_e) in moved.keys() {
            let (mut gid, mut eid) = (from_g, from_e);
            for hop in 0.. {
                let Some(&next) = moved.get(&(gid, eid)) else {
                    break;
                };
                if hop == moved.len() {
                    return Err(format!(
                        "forwarding chain from {from_g}/{from_e} is a cycle"
                    ));
                }
                (gid, eid) = next;
            }
            let live = canonical(gid)
                && groups[gid.0 as usize]
                    .exprs
                    .get(eid)
                    .is_some_and(|e| !e.dead);
            if !live {
                return Err(format!(
                    "forwarding chain from {from_g}/{from_e} ends at {gid}/{eid}, \
                     not a live expression of a canonical group"
                ));
            }
        }
        let (mut live, mut shells) = (0usize, 0u64);
        for (idx, g) in groups.iter().enumerate() {
            let gid = GroupId(idx as u32);
            if g.merged_into.is_some() == canonical(gid) {
                return Err(format!(
                    "group {gid}: merged_into={:?} disagrees with union-find (canonical={})",
                    g.merged_into,
                    canonical(gid)
                ));
            }
            if g.merged_into.is_some() {
                shells += 1;
                if !g.exprs.is_empty() {
                    return Err(format!("merged shell {gid} still stores expressions"));
                }
                continue;
            }
            for (eid, e) in g.exprs.iter().enumerate().filter(|(_, e)| !e.dead) {
                if let Some(c) = e.children.iter().find(|&&c| !canonical(c)) {
                    return Err(format!("expr {gid}/{eid} has non-canonical child {c}"));
                }
                live += 1;
            }
        }
        if dedup.len() != live {
            return Err(format!(
                "dedup index has {} entries but the directory stores {live} live exprs",
                dedup.len()
            ));
        }
        let snap = self.metrics.snapshot();
        if snap.groups_created != groups.len() as u64 {
            return Err(format!(
                "metrics report {} groups created but the directory has {}",
                snap.groups_created,
                groups.len()
            ));
        }
        if snap.groups_merged != shells {
            return Err(format!(
                "metrics report {} merges but the union-find has {shells} non-root entries",
                snap.groups_merged
            ));
        }
        if snap.exprs_inserted != live as u64 + snap.exprs_reconciled {
            return Err(format!(
                "metrics report {} exprs inserted but directory stores {live} live + {} reconciled",
                snap.exprs_inserted, snap.exprs_reconciled
            ));
        }
        Ok(())
    }

    /// Render the Memo in the style of Figure 6 (groups, expressions, and
    /// group hash tables).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for g in self.groups.borrow().iter() {
            if let Some(w) = g.merged_into {
                out.push_str(&format!("GROUP {}  (merged into {w})\n", g.id));
                continue;
            }
            out.push_str(&format!("GROUP {}", g.id));
            if let Some(s) = &g.stats {
                out.push_str(&format!("  (rows={:.0})", s.rows));
            }
            out.push('\n');
            for (i, e) in g.exprs.iter().enumerate() {
                let kids: Vec<String> = e.children.iter().map(|c| c.0.to_string()).collect();
                out.push_str(&format!(
                    "  {i}: {}{}{} [{}]\n",
                    if e.dead { "x " } else { "" },
                    if e.is_enforcer { "*" } else { "" },
                    e.op.name(),
                    kids.join(",")
                ));
            }
            if !g.ctxs.is_empty() {
                // Sort by the *resolved* request's rendering: interned id
                // values are arrival-order dependent and would make the
                // dump nondeterministic.
                let mut reqs: Vec<(Arc<ReqdProps>, &OptContext)> = g
                    .ctxs
                    .iter()
                    .map(|(rid, ctx)| (self.req_props(*rid), ctx))
                    .collect();
                reqs.sort_by_key(|(r, _)| format!("{r}"));
                for (req, ctx) in reqs {
                    if let Some(best) = ctx.best_candidate() {
                        out.push_str(&format!(
                            "  req {req} -> expr {} cost {:.2}\n",
                            best.expr, best.cost
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_catalog::{ColumnMeta, Distribution, TableDesc};
    use orca_common::{DataType, MdId, SysId};
    use orca_expr::logical::{JoinKind, TableRef};
    use orca_expr::props::{DistSpec, OrderSpec};
    use orca_expr::scalar::ScalarExpr;

    fn tref(oid: u64) -> TableRef {
        TableRef(Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, oid, 1),
            &format!("t{oid}"),
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Hashed(vec![0]),
        )))
    }

    fn get(oid: u64, first: u32) -> LogicalExpr {
        LogicalExpr::leaf(LogicalOp::Get {
            table: tref(oid),
            cols: vec![ColId(first), ColId(first + 1)],
            parts: None,
        })
    }

    /// The paper's running example: InnerJoin(Get(T1), Get(T2)) copies in
    /// as three groups (Figure 4).
    fn running_example_memo() -> (Memo, GroupId) {
        let memo = Memo::new();
        let join = LogicalExpr::new(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                pred: ScalarExpr::col_eq_col(ColId(0), ColId(3)),
            },
            vec![get(1, 0), get(2, 2)],
        );
        let root = memo.copy_in(&join);
        (memo, root)
    }

    #[test]
    fn copy_in_creates_figure4_groups() {
        let (memo, root) = running_example_memo();
        assert_eq!(memo.num_groups(), 3);
        assert_eq!(memo.num_exprs(), 3);
        // The root group outputs all four columns.
        assert_eq!(
            memo.output_cols(root),
            vec![ColId(0), ColId(1), ColId(2), ColId(3)]
        );
        assert!(memo.bytes() > 0);
        memo.check_integrity().expect("consistent after copy-in");
    }

    #[test]
    fn duplicate_detection_by_topology() {
        let (memo, root) = running_example_memo();
        let (op, c1, c2) = {
            let g = memo.group(root);
            let e = &g.exprs[0];
            (e.op.clone(), e.children[0], e.children[1])
        };
        // Re-adding the identical join is a no-op.
        let (gid, eid, added) = memo.insert_expr(Some(root), op.clone(), vec![c1, c2]);
        assert!(!added);
        assert_eq!((gid, eid), (root, 0));
        // The commuted join is new.
        let (_, _, added) = memo.insert_expr(Some(root), op, vec![c2, c1]);
        assert!(added);
        assert_eq!(memo.group(root).exprs.len(), 2);
        // Copying in the same leaf again lands in the same group.
        let leaf_group = memo.copy_in(&get(1, 0));
        assert_eq!(leaf_group, c1);
        assert_eq!(memo.num_groups(), 3);
        // Dedup hits were counted for the two replays above.
        assert!(memo.metrics().snapshot().dedup_hits >= 2);
    }

    #[test]
    fn candidates_track_best() {
        let (memo, root) = running_example_memo();
        let rid = memo.intern_req(&ReqdProps::any());
        // Interning the same request again yields the same id.
        assert_eq!(memo.intern_req(&ReqdProps::any()), rid);
        assert_eq!(*memo.req_props(rid), ReqdProps::any());
        let mk = |cost: f64, fingerprint: u64| Candidate {
            expr: 0,
            child_reqs: vec![rid, rid],
            enforcers: vec![],
            cost,
            fingerprint,
            derived: DerivedProps::new(OrderSpec::any(), DistSpec::Random, false),
        };
        assert!(memo.add_candidate(root, rid, mk(10.0, 1)));
        assert!(!memo.add_candidate(root, rid, mk(20.0, 2)));
        assert!(memo.add_candidate(root, rid, mk(5.0, 3)));
        let g = memo.group(root);
        let ctx = g.ctxs.get(&rid).unwrap();
        assert_eq!(ctx.candidates.len(), 3);
        assert_eq!(ctx.best_candidate().unwrap().cost, 5.0);
    }

    /// Equal-cost candidates resolve by fingerprint (then expr id), so the
    /// chosen best does not depend on insertion order.
    #[test]
    fn tie_break_is_insertion_order_independent() {
        let mk = |expr: ExprId, fingerprint: u64| Candidate {
            expr,
            child_reqs: vec![],
            enforcers: vec![],
            cost: 7.0,
            fingerprint,
            derived: DerivedProps::new(OrderSpec::any(), DistSpec::Random, false),
        };
        let orders: [&[(ExprId, u64)]; 3] = [
            &[(0, 30), (1, 10), (2, 20)],
            &[(2, 20), (0, 30), (1, 10)],
            &[(1, 10), (2, 20), (0, 30)],
        ];
        for order in orders {
            let mut ctx = OptContext::default();
            for &(e, f) in order {
                ctx.add(mk(e, f));
            }
            let best = ctx.best_candidate().unwrap();
            assert_eq!(
                (best.fingerprint, best.expr),
                (10, 1),
                "min under (cost, fingerprint, expr) regardless of order"
            );
        }
    }

    #[test]
    fn cte_registration_on_copy_in() {
        let memo = Memo::new();
        let producer = LogicalExpr::new(
            LogicalOp::CteProducer {
                id: CteId(1),
                cols: vec![ColId(0), ColId(1)],
            },
            vec![get(1, 0)],
        );
        let gid = memo.copy_in(&producer);
        let info = memo.cte_info(CteId(1)).unwrap();
        assert_eq!(info.producer_group, gid);
        assert_eq!(info.cols, vec![ColId(0), ColId(1)]);
        assert!(memo.cte_info(CteId(9)).is_none());
    }

    #[test]
    fn explain_renders_groups() {
        let (memo, _) = running_example_memo();
        let text = memo.explain();
        assert!(text.contains("GROUP g0"));
        assert!(text.contains("InnerJoin"));
        assert!(text.contains("Get"));
    }

    /// Merging `x` into `y`'s class makes `p2 = Join(a, y)` a duplicate of
    /// `p1 = Join(a, x)`: the rewrite tombstones it, forwards it to `p1`,
    /// and the cascade merges the two parent groups.
    #[test]
    fn merge_forwards_tombstoned_duplicates() {
        let memo = Memo::new();
        let join = |col: u32| {
            Operator::Logical(LogicalOp::Join {
                kind: JoinKind::Inner,
                pred: ScalarExpr::col_eq_col(ColId(col), ColId(0)),
            })
        };
        let a = memo.copy_in(&get(1, 0));
        let (x, _, _) = memo.insert_expr(None, join(10), vec![a, a]);
        let (y, _, _) = memo.insert_expr(None, join(11), vec![a, a]);
        let (p1, e1, _) = memo.insert_expr(None, join(12), vec![a, x]);
        let (p2, e2, _) = memo.insert_expr(None, join(12), vec![a, y]);
        assert_ne!(p1, p2);
        // A rule output for `y` that already lives in `x` proves x ≡ y.
        memo.insert_expr(Some(y), join(10), vec![a, a]);
        memo.check_integrity()
            .expect("forwarding ends at live expressions");
        assert_eq!(memo.resolve(y), x);
        assert_eq!(memo.resolve(p2), p1);
        assert_eq!(memo.resolve_expr(p2, e2), (p1, e1));
        assert_eq!(memo.metrics().snapshot().groups_merged, 2);
    }

    #[test]
    fn directory_survives_chunk_boundary() {
        // More than 1 024 groups: the directory and the union-find grow
        // past their first allocations.
        const GROUPS: usize = 1034;
        let memo = Memo::new();
        for oid in 0..GROUPS as u64 {
            memo.copy_in(&get(oid + 1, 0));
        }
        assert_eq!(memo.num_groups(), GROUPS);
        // Ids match positions across the whole directory.
        for idx in [0usize, 1023, 1024, GROUPS - 1] {
            assert_eq!(memo.group(GroupId(idx as u32)).id, GroupId(idx as u32));
        }
        memo.check_integrity().expect("consistent after growth");
    }
}
