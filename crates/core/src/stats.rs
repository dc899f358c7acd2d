//! Statistics derivation (§4.1 step 2).
//!
//! "Orca's statistics derivation mechanism is triggered to compute
//! statistics for the Memo groups... In order to derive statistics for a
//! target group, Orca picks the group expression with the highest promise
//! of delivering reliable statistics" — for joins, the expression with the
//! fewest join conditions, because "the larger the number of join
//! conditions, the higher the chance that estimation errors are propagated
//! and amplified."
//!
//! Derivation happens once per group on the compact Memo (never on expanded
//! plans), and the resulting [`GroupStats`] objects are attached to groups
//! where cost computation reads them.

use crate::memo::{GroupId, Memo, Operator};
use orca_catalog::stats::Histogram;
use orca_catalog::MdAccessor;
use orca_common::hash::{fnv_hash, FnvHashMap};
use orca_common::{ColId, Datum, OrcaError, Result};
use orca_expr::logical::{JoinKind, LogicalOp, SetOpKind};
use orca_expr::scalar::{AggFunc, CmpOp, ScalarExpr};
use orca_expr::ColumnRegistry;
use std::sync::Arc;

/// Default selectivity for predicates we cannot estimate (PostgreSQL's
/// time-honored 1/3).
pub const DEFAULT_SEL: f64 = 0.33;
/// Damping factor for conjunct correlation (§4.1's error-propagation
/// containment; GPORCA uses 0.75).
pub const DAMPING: f64 = 0.75;

/// Statistics for one column inside a group.
#[derive(Debug, Clone)]
pub struct ColStat {
    pub ndv: f64,
    pub null_frac: f64,
    pub width: u64,
    pub hist: Option<Histogram>,
}

impl ColStat {
    fn unknown(width: u64, rows: f64) -> ColStat {
        ColStat {
            ndv: rows.max(1.0),
            null_frac: 0.0,
            width,
            hist: None,
        }
    }

    fn scaled(&self, f: f64) -> ColStat {
        ColStat {
            ndv: (self.ndv * f.min(1.0)).max(1.0),
            null_frac: self.null_frac,
            width: self.width,
            hist: self.hist.as_ref().map(|h| h.scale(f.min(1.0))),
        }
    }
}

/// A statistics object: "mainly a collection of column histograms used to
/// derive estimates for cardinality and data skew".
#[derive(Debug, Clone)]
pub struct GroupStats {
    pub rows: f64,
    pub cols: FnvHashMap<ColId, ColStat>,
}

impl GroupStats {
    pub fn empty() -> GroupStats {
        GroupStats {
            rows: 0.0,
            cols: FnvHashMap::default(),
        }
    }

    pub fn col(&self, c: ColId) -> Option<&ColStat> {
        self.cols.get(&c)
    }

    /// NDV of a column, defaulting to row count when unknown.
    pub fn ndv(&self, c: ColId) -> f64 {
        self.col(c).map(|s| s.ndv).unwrap_or(self.rows).max(1.0)
    }

    /// Skew estimate of a column (coefficient of variation of value
    /// frequencies) — penalizes hashed distribution on this key.
    pub fn skew(&self, c: ColId) -> f64 {
        self.col(c)
            .and_then(|s| s.hist.as_ref())
            .map(Histogram::skew)
            .unwrap_or(0.0)
    }

    /// Average output row width over `cols`.
    pub fn width_of(&self, cols: &[ColId], registry: &ColumnRegistry) -> u64 {
        cols.iter()
            .map(|c| {
                self.col(*c)
                    .map(|s| s.width)
                    .unwrap_or_else(|| registry.width(*c))
            })
            .sum::<u64>()
            .max(1)
    }

    fn scale_all(&self, f: f64) -> GroupStats {
        GroupStats {
            rows: self.rows * f,
            cols: self.cols.iter().map(|(c, s)| (*c, s.scaled(f))).collect(),
        }
    }
}

/// Derives and memoizes statistics for Memo groups.
pub struct StatsDeriver<'a> {
    pub memo: &'a Memo,
    pub md: &'a MdAccessor,
    pub registry: &'a ColumnRegistry,
    /// Segment count: local-stage aggregates emit up to one group per
    /// segment per key, so their cardinality scales with it.
    pub segments: usize,
}

impl<'a> StatsDeriver<'a> {
    pub fn new(
        memo: &'a Memo,
        md: &'a MdAccessor,
        registry: &'a ColumnRegistry,
        segments: usize,
    ) -> Self {
        StatsDeriver {
            memo,
            md,
            registry,
            segments,
        }
    }

    /// Derive (or fetch memoized) statistics for a group. `gid` may be any
    /// member of its merge equivalence class: `Memo::stats`/`Memo::group`
    /// resolve through the §4.2 union-find, so stats are derived for and
    /// memoized on the canonical group exactly once.
    pub fn derive(&self, gid: GroupId) -> Result<Arc<GroupStats>> {
        if let Some(s) = self.memo.stats(gid) {
            return Ok(s);
        }
        // Pick the most promising logical expression. Promise ties are
        // broken by a content fingerprint (operator + child output columns),
        // never by expression id: under the parallel search, insertion order
        // of equivalent expressions varies between runs, and the stats source
        // must not — otherwise estimates (and plan choice) become
        // nondeterministic.
        let candidates: Vec<(u32, LogicalOp, Vec<GroupId>)> = {
            let g = self.memo.group(gid);
            g.logical_exprs()
                .filter_map(|(_, e)| match &e.op {
                    Operator::Logical(op) => Some((promise(op), op.clone(), e.children.clone())),
                    Operator::Physical(_) => None,
                })
                .collect()
        };
        let mut best: Option<(u32, u64, LogicalOp, Vec<GroupId>)> = None;
        for (p, op, children) in candidates {
            let child_cols: Vec<Vec<ColId>> = children
                .iter()
                .map(|c| self.memo.group(*c).output_cols.clone())
                .collect();
            let fp = fnv_hash(&(&op, &child_cols));
            let replace = match &best {
                None => true,
                Some((bp, bfp, _, _)) => p > *bp || (p == *bp && fp < *bfp),
            };
            if replace {
                best = Some((p, fp, op, children));
            }
        }
        let (_, _, op, children) = best
            .ok_or_else(|| OrcaError::Internal(format!("group {gid} has no logical expression")))?;
        // Recursively derive children (top-down requests, bottom-up
        // combination — Figure 5).
        let child_stats: Vec<Arc<GroupStats>> = children
            .iter()
            .map(|c| self.derive(*c))
            .collect::<Result<_>>()?;
        let stats = Arc::new(self.derive_op(&op, &children, &child_stats)?);
        let mut g = self.memo.group_mut(gid);
        if g.stats.is_none() {
            g.stats = Some(stats.clone());
        }
        Ok(g.stats.clone().expect("just set"))
    }

    fn derive_op(
        &self,
        op: &LogicalOp,
        children: &[GroupId],
        child: &[Arc<GroupStats>],
    ) -> Result<GroupStats> {
        Ok(match op {
            LogicalOp::Get { table, cols, parts } => self.derive_get(table, cols, parts)?,
            LogicalOp::Select { pred } => self.derive_filter_cached(children[0], &child[0], pred),
            LogicalOp::Project { exprs } => {
                let mut out = GroupStats {
                    rows: child[0].rows,
                    cols: child[0].cols.clone(),
                };
                for (c, e) in exprs {
                    if let ScalarExpr::ColRef(src) = e {
                        if let Some(s) = child[0].col(*src) {
                            out.cols.insert(*c, s.clone());
                            continue;
                        }
                    }
                    out.cols
                        .insert(*c, ColStat::unknown(self.registry.width(*c), out.rows));
                }
                out
            }
            LogicalOp::Join { kind, pred } => {
                self.derive_join_cached(*kind, pred, children[0], children[1], &child[0], &child[1])
            }
            LogicalOp::GbAgg {
                group_cols,
                aggs,
                stage,
            } => {
                let mut out = derive_agg(&child[0], group_cols, aggs, self.registry);
                if *stage == orca_expr::logical::AggStage::Local {
                    // Each segment may hold every group key.
                    out.rows = (out.rows * self.segments as f64).min(child[0].rows.max(1.0));
                }
                out
            }
            LogicalOp::Limit { count, offset, .. } => {
                let avail = (child[0].rows - *offset as f64).max(0.0);
                let rows = count.map(|c| avail.min(c as f64)).unwrap_or(avail);
                let f = if child[0].rows > 0.0 {
                    rows / child[0].rows
                } else {
                    0.0
                };
                child[0].scale_all(f)
            }
            LogicalOp::SetOp {
                kind,
                output,
                input_cols,
            } => derive_setop(*kind, output, input_cols, child, self.registry),
            LogicalOp::Sequence { .. } => GroupStats {
                rows: child[1].rows,
                cols: child[1].cols.clone(),
            },
            LogicalOp::CteProducer { .. } => GroupStats {
                rows: child[0].rows,
                cols: child[0].cols.clone(),
            },
            LogicalOp::CteConsumer {
                id,
                cols,
                producer_cols,
            } => {
                let info = self
                    .memo
                    .cte_info(*id)
                    .ok_or_else(|| OrcaError::Internal(format!("unknown CTE {id}")))?;
                let prod = self.derive(info.producer_group)?;
                let mut out = GroupStats {
                    rows: prod.rows,
                    cols: FnvHashMap::default(),
                };
                for (mine, theirs) in cols.iter().zip(producer_cols) {
                    let s = prod
                        .col(*theirs)
                        .cloned()
                        .unwrap_or_else(|| ColStat::unknown(self.registry.width(*mine), prod.rows));
                    out.cols.insert(*mine, s);
                }
                out
            }
            LogicalOp::ConstTable { cols, rows } => {
                let mut out = GroupStats {
                    rows: rows.len() as f64,
                    cols: FnvHashMap::default(),
                };
                for (i, c) in cols.iter().enumerate() {
                    let values: Vec<Datum> = rows.iter().map(|r| r[i].clone()).collect();
                    let cs = orca_catalog::stats::ColumnStats::from_column(&values, 8);
                    out.cols.insert(
                        *c,
                        ColStat {
                            ndv: cs.ndv,
                            null_frac: cs.null_frac,
                            width: cs.width,
                            hist: cs.histogram,
                        },
                    );
                }
                out
            }
            LogicalOp::MaxOneRow => child[0].scale_all((1.0 / child[0].rows.max(1.0)).min(1.0)),
        })
    }

    fn derive_get(
        &self,
        table: &orca_expr::logical::TableRef,
        cols: &[ColId],
        parts: &Option<Vec<usize>>,
    ) -> Result<GroupStats> {
        let ts = self.md.stats(table.mdid)?;
        let mut out = GroupStats {
            rows: ts.rows,
            cols: FnvHashMap::default(),
        };
        for (i, col) in cols.iter().enumerate() {
            match ts.column(i) {
                Some(cs) => {
                    out.cols.insert(
                        *col,
                        ColStat {
                            ndv: cs.ndv,
                            null_frac: cs.null_frac,
                            width: cs.width,
                            hist: cs.histogram.clone(),
                        },
                    );
                }
                None => {
                    out.cols.insert(
                        *col,
                        ColStat::unknown(table.columns[i].dtype.width(), ts.rows),
                    );
                }
            }
        }
        // Static partition elimination scales the fraction scanned.
        if let (Some(parts), Some(p)) = (parts, &table.partitioning) {
            let frac = parts.len() as f64 / p.num_parts().max(1) as f64;
            let part_col = cols.get(p.column).copied();
            out = out.scale_all(frac.min(1.0));
            // Restrict the partition column's histogram to the kept range.
            if let Some(pc) = part_col {
                if let Some(stat) = out.cols.get_mut(&pc) {
                    if let Some(h) = &stat.hist {
                        let lo = parts
                            .iter()
                            .filter_map(|i| p.bounds.get(*i))
                            .map(|(lo, _)| *lo as f64)
                            .fold(f64::INFINITY, f64::min);
                        let hi = parts
                            .iter()
                            .filter_map(|i| p.bounds.get(*i))
                            .map(|(_, hi)| *hi as f64)
                            .fold(f64::NEG_INFINITY, f64::max);
                        if lo.is_finite() && hi.is_finite() {
                            // Un-scale then restrict: restrict on original
                            // mass is closer to truth than double-scaling.
                            stat.hist = Some(h.restrict_range(lo, hi));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Filter derivation through the Memo's selectivity cache: the
    /// predicate is hash-consed and the conjunct-damping computation keyed
    /// by `(canonical input group, interned predicate)`. Filter scopes use
    /// the doubled `(g, g)` key so they share the cache with join scopes.
    fn derive_filter_cached(
        &self,
        gid: GroupId,
        input: &GroupStats,
        pred: &ScalarExpr,
    ) -> GroupStats {
        let pid = self.memo.intern_scalar(pred);
        let sel = match self.memo.cached_selectivity(gid, gid, pid) {
            Some(s) => s,
            None => {
                let s = selectivity(input, pred);
                self.memo.note_selectivity(gid, gid, pid, s);
                s
            }
        };
        derive_filter_with_sel(input, pred, sel)
    }

    /// Join derivation through the selectivity cache, keyed by
    /// `(canonical left, canonical right, interned predicate)` — the same
    /// join condition over the same child groups (re-derived via merged
    /// groups or alternative orderings) computes histogram joins once.
    fn derive_join_cached(
        &self,
        kind: JoinKind,
        pred: &ScalarExpr,
        lgid: GroupId,
        rgid: GroupId,
        left: &GroupStats,
        right: &GroupStats,
    ) -> GroupStats {
        let pid = self.memo.intern_scalar(pred);
        let sel = match self.memo.cached_selectivity(lgid, rgid, pid) {
            Some(s) => s,
            None => {
                let s = join_selectivity(pred, left, right);
                self.memo.note_selectivity(lgid, rgid, pid, s);
                s
            }
        };
        derive_join_with_sel(kind, left, right, sel)
    }
}

fn promise(op: &LogicalOp) -> u32 {
    match op {
        // Fewer join conditions → higher promise.
        LogicalOp::Join { pred, .. } => 1000u32.saturating_sub(pred.conjuncts().len() as u32),
        _ => 500,
    }
}

// ---------------------------------------------------------------------
// Predicate selectivity
// ---------------------------------------------------------------------

/// Estimated selectivity of `pred` against `stats`, with damping across
/// conjuncts.
pub fn selectivity(stats: &GroupStats, pred: &ScalarExpr) -> f64 {
    let mut sels: Vec<f64> = pred
        .conjuncts()
        .iter()
        .map(|c| conjunct_selectivity(stats, c))
        .collect();
    // Most selective first; later conjuncts are damped (assumed partially
    // correlated with earlier ones).
    sels.sort_by(|a, b| a.partial_cmp(b).expect("finite selectivity"));
    let mut total = 1.0;
    let mut damp = 1.0;
    for s in sels {
        total *= s.powf(damp);
        damp *= DAMPING;
    }
    total.clamp(0.0, 1.0)
}

fn conjunct_selectivity(stats: &GroupStats, pred: &ScalarExpr) -> f64 {
    match pred {
        ScalarExpr::Const(Datum::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        ScalarExpr::And(_) => selectivity(stats, pred),
        ScalarExpr::Or(parts) => {
            let mut keep = 1.0;
            for p in parts {
                keep *= 1.0 - conjunct_selectivity(stats, p);
            }
            (1.0 - keep).clamp(0.0, 1.0)
        }
        ScalarExpr::Not(inner) => (1.0 - conjunct_selectivity(stats, inner)).clamp(0.0, 1.0),
        ScalarExpr::IsNull(inner) => match inner.as_ref() {
            ScalarExpr::ColRef(c) => stats.col(*c).map(|s| s.null_frac).unwrap_or(0.05),
            _ => 0.05,
        },
        ScalarExpr::Cmp { op, left, right } => cmp_selectivity(stats, *op, left, right),
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => {
            let mut sel: f64 = list
                .iter()
                .map(|item| cmp_selectivity(stats, CmpOp::Eq, expr, item))
                .sum();
            sel = sel.clamp(0.0, 1.0);
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        _ => DEFAULT_SEL,
    }
}

fn cmp_selectivity(stats: &GroupStats, op: CmpOp, left: &ScalarExpr, right: &ScalarExpr) -> f64 {
    // Normalize to col <op> const / col <op> col.
    match (left, right) {
        (ScalarExpr::ColRef(c), ScalarExpr::Const(d)) => col_const_selectivity(stats, *c, op, d),
        (ScalarExpr::Const(d), ScalarExpr::ColRef(c)) => {
            col_const_selectivity(stats, *c, op.commute(), d)
        }
        (ScalarExpr::ColRef(a), ScalarExpr::ColRef(b)) => match op {
            CmpOp::Eq => 1.0 / stats.ndv(*a).max(stats.ndv(*b)),
            CmpOp::Ne => 1.0 - 1.0 / stats.ndv(*a).max(stats.ndv(*b)),
            _ => DEFAULT_SEL,
        },
        _ => DEFAULT_SEL,
    }
}

fn col_const_selectivity(stats: &GroupStats, c: ColId, op: CmpOp, d: &Datum) -> f64 {
    let Some(cs) = stats.col(c) else {
        return DEFAULT_SEL;
    };
    let nonnull = 1.0 - cs.null_frac;
    match (op, d.as_f64(), &cs.hist) {
        (CmpOp::Eq, Some(v), Some(h)) if h.rows() > 0.0 => {
            (h.rows_eq(v) / h.rows()).clamp(0.0, 1.0) * nonnull
        }
        (CmpOp::Eq, _, _) => nonnull / cs.ndv.max(1.0),
        (CmpOp::Ne, Some(v), Some(h)) if h.rows() > 0.0 => {
            (1.0 - h.rows_eq(v) / h.rows()).clamp(0.0, 1.0) * nonnull
        }
        (CmpOp::Ne, _, _) => (1.0 - 1.0 / cs.ndv.max(1.0)) * nonnull,
        (CmpOp::Lt | CmpOp::Le, Some(v), Some(h)) if h.rows() > 0.0 => {
            (h.rows_in_range(f64::NEG_INFINITY, v) / h.rows()).clamp(0.0, 1.0) * nonnull
        }
        (CmpOp::Gt | CmpOp::Ge, Some(v), Some(h)) if h.rows() > 0.0 => {
            (h.rows_in_range(v, f64::INFINITY) / h.rows()).clamp(0.0, 1.0) * nonnull
        }
        _ => DEFAULT_SEL,
    }
}

/// Apply a filter: scale rows by selectivity and restrict histograms for
/// the predicates we understand.
pub fn derive_filter(input: &GroupStats, pred: &ScalarExpr) -> GroupStats {
    derive_filter_with_sel(input, pred, selectivity(input, pred))
}

/// [`derive_filter`] with the selectivity precomputed (or served from the
/// Memo's cache): applies the scale and histogram sharpening only.
pub fn derive_filter_with_sel(input: &GroupStats, pred: &ScalarExpr, sel: f64) -> GroupStats {
    let mut out = input.scale_all(sel);
    // Sharpen histograms for simple col-vs-const conjuncts.
    for conjunct in pred.conjuncts() {
        if let ScalarExpr::Cmp { op, left, right } = conjunct {
            let (col, datum, op) = match (left.as_ref(), right.as_ref()) {
                (ScalarExpr::ColRef(c), ScalarExpr::Const(d)) => (*c, d, *op),
                (ScalarExpr::Const(d), ScalarExpr::ColRef(c)) => (*c, d, op.commute()),
                _ => continue,
            };
            let Some(v) = datum.as_f64() else { continue };
            if let Some(stat) = out.cols.get_mut(&col) {
                if let Some(h) = &stat.hist {
                    let (restricted, ndv) = match op {
                        CmpOp::Eq => (h.restrict_eq(v), 1.0),
                        CmpOp::Lt | CmpOp::Le => {
                            let r = h.restrict_range(f64::NEG_INFINITY, v);
                            let n = r.ndv();
                            (r, n)
                        }
                        CmpOp::Gt | CmpOp::Ge => {
                            let r = h.restrict_range(v, f64::INFINITY);
                            let n = r.ndv();
                            (r, n)
                        }
                        _ => continue,
                    };
                    stat.ndv = ndv.max(1.0);
                    stat.null_frac = 0.0;
                    stat.hist = Some(restricted);
                }
            }
        }
    }
    out
}

/// Join cardinality and output statistics.
pub fn derive_join(
    kind: JoinKind,
    pred: &ScalarExpr,
    left: &GroupStats,
    right: &GroupStats,
) -> GroupStats {
    derive_join_with_sel(kind, left, right, join_selectivity(pred, left, right))
}

/// Combined selectivity of a join predicate: per-conjunct histogram equi
/// joins, damped across conjuncts (the expensive half of [`derive_join`],
/// memoized by the Memo's selectivity cache).
pub fn join_selectivity(pred: &ScalarExpr, left: &GroupStats, right: &GroupStats) -> f64 {
    let left_cols: Vec<ColId> = left.cols.keys().copied().collect();
    let right_cols: Vec<ColId> = right.cols.keys().copied().collect();
    let cross = (left.rows * right.rows).max(0.0);

    // Per-conjunct selectivities with histogram joins for equi conditions.
    // The merged stats view for non-equi conjuncts clones both column maps,
    // so it is built lazily, at most once per predicate.
    let mut combined: Option<GroupStats> = None;
    let mut sels: Vec<f64> = Vec::new();
    for conjunct in pred.conjuncts() {
        if let Some((lc, rc)) = conjunct.as_equi_pair(&left_cols, &right_cols) {
            let (lh, rh) = (
                left.col(lc).and_then(|s| s.hist.as_ref()),
                right.col(rc).and_then(|s| s.hist.as_ref()),
            );
            let sel = match (lh, rh) {
                (Some(lh), Some(rh)) if cross > 0.0 => {
                    let (card, _) = lh.equi_join(rh);
                    (card / cross).clamp(0.0, 1.0)
                }
                _ => 1.0 / left.ndv(lc).max(right.ndv(rc)),
            };
            sels.push(sel);
        } else {
            let combined = combined.get_or_insert_with(|| combined_stats_for_pred(left, right));
            sels.push(conjunct_selectivity(combined, conjunct));
        }
    }
    sels.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut sel = 1.0;
    let mut damp = 1.0;
    for s in sels {
        sel *= s.powf(damp);
        damp *= DAMPING;
    }
    sel
}

/// [`derive_join`] with the predicate selectivity precomputed (or served
/// from the Memo's cache).
pub fn derive_join_with_sel(
    kind: JoinKind,
    left: &GroupStats,
    right: &GroupStats,
    sel: f64,
) -> GroupStats {
    let cross = (left.rows * right.rows).max(0.0);
    let inner_rows = cross * sel;
    let rows = match kind {
        JoinKind::Inner => inner_rows,
        // Every left row survives at least once.
        JoinKind::LeftOuter => inner_rows.max(left.rows),
        // At most one output per left row.
        JoinKind::LeftSemi => inner_rows.min(left.rows).max(0.0),
        JoinKind::LeftAntiSemi => (left.rows - inner_rows.min(left.rows)).max(0.0),
    };

    let mut cols = FnvHashMap::default();
    let lf = if left.rows > 0.0 {
        rows / left.rows
    } else {
        0.0
    };
    for (c, s) in &left.cols {
        cols.insert(*c, s.scaled(lf.min(1.0)));
    }
    if kind.outputs_right() {
        let rf = if right.rows > 0.0 {
            rows / right.rows
        } else {
            0.0
        };
        for (c, s) in &right.cols {
            cols.insert(*c, s.scaled(rf.min(1.0)));
        }
    }
    GroupStats { rows, cols }
}

fn combined_stats_for_pred(left: &GroupStats, right: &GroupStats) -> GroupStats {
    let mut cols = left.cols.clone();
    for (c, s) in &right.cols {
        cols.insert(*c, s.clone());
    }
    GroupStats {
        rows: left.rows * right.rows,
        cols,
    }
}

fn derive_agg(
    input: &GroupStats,
    group_cols: &[ColId],
    aggs: &[(ColId, ScalarExpr)],
    registry: &ColumnRegistry,
) -> GroupStats {
    let rows = if group_cols.is_empty() {
        1.0
    } else {
        // Product of NDVs, capped by input rows (standard estimate).
        let prod: f64 = group_cols.iter().map(|c| input.ndv(*c)).product();
        prod.min(input.rows).max(1.0_f64.min(input.rows))
    };
    let mut cols = FnvHashMap::default();
    let f = if input.rows > 0.0 {
        rows / input.rows
    } else {
        0.0
    };
    for c in group_cols {
        if let Some(s) = input.col(*c) {
            let mut out = s.scaled(f.min(1.0));
            out.ndv = s.ndv.min(rows);
            cols.insert(*c, out);
        }
    }
    for (c, _) in aggs {
        cols.insert(
            *c,
            ColStat {
                ndv: rows,
                null_frac: 0.0,
                width: registry.width(*c),
                hist: None,
            },
        );
    }
    GroupStats { rows, cols }
}

fn derive_setop(
    kind: SetOpKind,
    output: &[ColId],
    input_cols: &[Vec<ColId>],
    child: &[Arc<GroupStats>],
    registry: &ColumnRegistry,
) -> GroupStats {
    let rows = match kind {
        SetOpKind::UnionAll => child.iter().map(|c| c.rows).sum(),
        SetOpKind::Union => {
            let total: f64 = child.iter().map(|c| c.rows).sum();
            total * 0.9
        }
        SetOpKind::Intersect => {
            child
                .iter()
                .map(|c| c.rows)
                .fold(f64::INFINITY, f64::min)
                .max(0.0)
                * 0.5
        }
        SetOpKind::Except => child.first().map(|c| c.rows * 0.5).unwrap_or(0.0),
    };
    let mut cols = FnvHashMap::default();
    for (pos, out_col) in output.iter().enumerate() {
        // Take the first child's column stats as representative.
        let stat = input_cols
            .first()
            .and_then(|ic| ic.get(pos))
            .and_then(|c| child.first().and_then(|s| s.col(*c).cloned()))
            .unwrap_or_else(|| ColStat::unknown(registry.width(*out_col), rows));
        cols.insert(*out_col, stat);
    }
    GroupStats { rows, cols }
}

/// Estimated aggregate function metadata (used by rules to type partial
/// aggregation columns).
pub fn agg_output_type(func: AggFunc, arg_type: orca_common::DataType) -> orca_common::DataType {
    match func {
        AggFunc::Count => orca_common::DataType::Int,
        AggFunc::Avg => orca_common::DataType::Double,
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg_type,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_common::DataType;

    fn stats_with_col(c: ColId, rows: f64, domain: std::ops::Range<i64>) -> GroupStats {
        let values: Vec<f64> = (0..rows as i64)
            .map(|i| (domain.start + i % (domain.end - domain.start)) as f64)
            .collect();
        let mut cols = FnvHashMap::default();
        cols.insert(
            c,
            ColStat {
                ndv: (domain.end - domain.start) as f64,
                null_frac: 0.0,
                width: 8,
                hist: Some(Histogram::from_values(values, 16)),
            },
        );
        GroupStats { rows, cols }
    }

    #[test]
    fn eq_selectivity_uses_histogram() {
        let s = stats_with_col(ColId(0), 1000.0, 0..100);
        let pred = ScalarExpr::eq(ScalarExpr::col(ColId(0)), ScalarExpr::int(5));
        let sel = selectivity(&s, &pred);
        assert!((sel - 0.01).abs() < 0.005, "sel = {sel}");
        // Out-of-domain constant → ~0.
        let pred = ScalarExpr::eq(ScalarExpr::col(ColId(0)), ScalarExpr::int(5000));
        assert!(selectivity(&s, &pred) < 0.001);
    }

    #[test]
    fn range_selectivity_and_histogram_restriction() {
        let s = stats_with_col(ColId(0), 1000.0, 0..100);
        let pred = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(ColId(0)), ScalarExpr::int(50));
        let sel = selectivity(&s, &pred);
        assert!((sel - 0.5).abs() < 0.1, "sel = {sel}");
        let out = derive_filter(&s, &pred);
        assert!((out.rows - 500.0).abs() < 100.0);
        let h = out.col(ColId(0)).unwrap().hist.as_ref().unwrap();
        assert!(h.max().unwrap() <= 50.0);
    }

    #[test]
    fn damping_tempers_conjunctions() {
        let s = stats_with_col(ColId(0), 1000.0, 0..100);
        let one = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(ColId(0)), ScalarExpr::int(50));
        let sel1 = selectivity(&s, &one);
        let three = ScalarExpr::and(vec![one.clone(), one.clone(), one]);
        let sel3 = selectivity(&s, &three);
        // Independence would give sel1^3; damping keeps it above that.
        assert!(sel3 > sel1.powi(3));
        assert!(sel3 < sel1 * 1.01);
    }

    #[test]
    fn or_and_not_selectivity() {
        let s = stats_with_col(ColId(0), 1000.0, 0..100);
        let lt = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(ColId(0)), ScalarExpr::int(50));
        let either = ScalarExpr::Or(vec![lt.clone(), lt.clone()]);
        let sel_or = selectivity(&s, &either);
        assert!(sel_or > selectivity(&s, &lt) * 0.9);
        let not = ScalarExpr::Not(Box::new(lt));
        assert!((selectivity(&s, &not) - 0.5).abs() < 0.1);
    }

    #[test]
    fn pk_fk_join_keeps_fact_cardinality() {
        let fact = stats_with_col(ColId(0), 100_000.0, 0..1000);
        let dim = stats_with_col(ColId(5), 1000.0, 0..1000);
        let out = derive_join(
            JoinKind::Inner,
            &ScalarExpr::col_eq_col(ColId(0), ColId(5)),
            &fact,
            &dim,
        );
        assert!(
            out.rows > 50_000.0 && out.rows < 200_000.0,
            "rows = {}",
            out.rows
        );
    }

    #[test]
    fn outer_and_semi_join_bounds() {
        let l = stats_with_col(ColId(0), 1000.0, 0..100);
        let r = stats_with_col(ColId(5), 10.0, 500..510); // disjoint domains
        let pred = ScalarExpr::col_eq_col(ColId(0), ColId(5));
        let outer = derive_join(JoinKind::LeftOuter, &pred, &l, &r);
        assert!(outer.rows >= 1000.0, "outer preserves left rows");
        let semi = derive_join(JoinKind::LeftSemi, &pred, &l, &r);
        assert!(semi.rows < 1.0, "no matches");
        let anti = derive_join(JoinKind::LeftAntiSemi, &pred, &l, &r);
        assert!((anti.rows - 1000.0).abs() < 1.0);
    }

    #[test]
    fn agg_cardinality_capped_by_input() {
        let reg = ColumnRegistry::new();
        let c_out = reg.fresh("cnt", DataType::Int);
        let s = stats_with_col(ColId(0), 1000.0, 0..100);
        let out = derive_agg(
            &s,
            &[ColId(0)],
            &[(
                c_out,
                ScalarExpr::Agg {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                },
            )],
            &reg,
        );
        assert!((out.rows - 100.0).abs() < 1.0);
        assert!(out.col(c_out).is_some());
        // Scalar agg → one row.
        let scalar = derive_agg(&s, &[], &[], &reg);
        assert_eq!(scalar.rows, 1.0);
    }

    #[test]
    fn skew_readout() {
        let s = stats_with_col(ColId(0), 1000.0, 0..100);
        assert!(s.skew(ColId(0)) < 0.5);
        assert_eq!(s.skew(ColId(99)), 0.0);
    }
}
