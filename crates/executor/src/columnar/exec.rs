//! The batch kernel: the row interpreter's operator set over
//! [`ColumnBatch`] streams.
//!
//! Every arm mirrors its row-kernel counterpart *exactly* in output rows,
//! row order, simulated `avail` times and `ExecStats` counters — the row
//! interpreter stays on as the differential-test oracle (the driver's
//! proptests assert byte-identical `Debug` output). What changes is the
//! work per row: filters return selection vectors, scalar expressions
//! evaluate column-at-a-time, joins and aggregates key on column slices
//! through a raw `u64`-hash table, and sorts permute an index vector.
//!
//! Cold operators stay on the row path via conversion: nested-loops join
//! (per-pair predicate), hash set-ops (rare, dedup-heavy), and any
//! filter/project containing an un-decorrelated subquery.

use super::batch::{BatchWriter, ColStream, Column, ColumnBatch, ValRef};
use super::veval::{veval, veval_predicate};
use crate::eval::{accepts, compare_rows, AggAccumulator, Env};
use crate::exec::{
    apply_filter, apply_nl_join, apply_project, apply_setop, key_positions, op_name, ExecCtx,
};
use crate::storage::{zone_prunes_cmp, Row, SegmentedTable, ZoneMap};
use orca_common::hash::{FnvHashMap, FnvHasher};
use orca_common::{ColId, Datum, OrcaError, Result};
use orca_expr::logical::{AggStage, JoinKind, SetOpKind};
use orca_expr::physical::{MotionKind, PhysicalOp, PhysicalPlan};
use orca_expr::scalar::{CmpOp, ScalarExpr};
use orca_expr::OrderSpec;
use std::cmp::Ordering;
use std::hash::Hasher;
use std::time::Instant;

/// Execute a plan with the batch kernel, producing a columnar stream set.
///
/// Same per-operator profiling contract as [`crate::exec::exec`]; the
/// `batches` metric counts real columnar batches here.
pub fn cexec(plan: &PhysicalPlan, ctx: &mut ExecCtx<'_>) -> Result<ColStream> {
    let start = Instant::now();
    let snapshot = ctx.profile_child_ns;
    let result = cexec_op(plan, ctx);
    let total = start.elapsed().as_nanos() as u64;
    let nested = ctx.profile_child_ns.saturating_sub(snapshot);
    ctx.profile_child_ns = snapshot + total;
    if let Ok(out) = &result {
        let p = ctx.stats.ops.entry(op_name(&plan.op)).or_default();
        p.rows += out.total_rows() as u64;
        p.batches += out.total_batches() as u64;
        p.ns += total.saturating_sub(nested);
    }
    result
}

fn cexec_op(plan: &PhysicalPlan, ctx: &mut ExecCtx<'_>) -> Result<ColStream> {
    ctx.check_abort()?;
    let n = ctx.seg_slots();
    let bs = ctx.cluster.batch_size.max(1);
    match &plan.op {
        PhysicalOp::TableScan { table, cols, parts } => {
            if let Some(fc) = ctx.frag.clone() {
                return cexec_shared_scan(ctx, &fc, table, cols, parts, None, n, bs);
            }
            let t = ctx.db.table(table.mdid)?;
            let width = cols.len();
            let mut out = ColStream::empty(cols.clone(), n);
            out.replicated = t.desc.distribution == orca_catalog::Distribution::Replicated;
            for s in 0..n {
                let mut batches = Vec::new();
                let cloned =
                    t.scan_columnar_into(ctx.storage_segment(s), parts, bs, &mut batches, || {
                        ctx.take_shell(width)
                    });
                let rows: usize = batches.iter().map(|b| b.len).sum();
                ctx.stats.scan_bytes_cloned += cloned;
                ctx.stats.rows_processed += rows as u64;
                out.avail[s] = ctx.tup_time(rows);
                out.per_seg[s] = batches;
            }
            Ok(out)
        }
        PhysicalOp::IndexScan {
            table,
            cols,
            key_cols,
            parts,
            ..
        } => {
            // Ordered retrieval still goes row-at-a-time through the sort
            // (index order comes from row comparisons), then chunks.
            let t = ctx.db.table(table.mdid)?;
            let order = OrderSpec::by(key_cols);
            let mut out = ColStream::empty(cols.clone(), n);
            out.replicated = t.desc.distribution == orca_catalog::Distribution::Replicated;
            for s in 0..n {
                let mut rows = t.scan(ctx.storage_segment(s), parts);
                rows.sort_by(|a, b| compare_rows(a, b, &order, cols));
                ctx.stats.rows_processed += rows.len() as u64;
                out.avail[s] = ctx.tup_time(rows.len()) * 1.6;
                out.per_seg[s] = chunk_rows(&rows, cols.len(), bs);
            }
            Ok(out)
        }
        PhysicalOp::Filter { pred } => {
            // Filter-over-scan with a fragment cache attached: share the
            // *filtered* fragment, keyed on the interned predicate, so
            // repeat queries skip both the storage read and the filter.
            if !pred.has_subquery() {
                if let Some(fc) = ctx.frag.clone() {
                    if let PhysicalOp::TableScan { table, cols, parts } = &plan.children[0].op {
                        return cexec_shared_scan(ctx, &fc, table, cols, parts, Some(pred), n, bs);
                    }
                }
                // No cache attached: fuse the filter into the scan anyway
                // when every conjunct is zone-testable, so zone maps can
                // drop whole chunks and dict conjuncts run in code space.
                if let PhysicalOp::TableScan { table, cols, parts } = &plan.children[0].op {
                    if conjunct_tests(pred, cols).is_some() {
                        return cexec_fused_scan(ctx, table, cols, parts, pred, n, bs);
                    }
                }
            }
            let input = cexec(&plan.children[0], ctx)?;
            if pred.has_subquery() {
                // Un-decorrelated subquery: per-row subplan execution on
                // the row path keeps the work accounting identical.
                let out = apply_filter(input.to_streamset(), pred, ctx)?;
                return Ok(ColStream::from_streamset(&out, bs));
            }
            let mut out = ColStream::empty(input.layout.clone(), n);
            out.replicated = input.replicated;
            for s in 0..n {
                let in_len = input.seg_rows(s);
                let mut kept = Vec::new();
                for b in &input.per_seg[s] {
                    let sel = veval_predicate(pred, &input.layout, b)?;
                    if sel.is_empty() {
                        continue;
                    }
                    if sel.len() == b.len {
                        kept.push(b.clone());
                    } else {
                        kept.push(b.select(&sel));
                    }
                }
                ctx.stats.rows_processed += in_len as u64;
                out.avail[s] = input.avail[s] + ctx.tup_time(in_len) * 0.5;
                out.per_seg[s] = kept;
            }
            Ok(out)
        }
        PhysicalOp::Project { exprs } => {
            let input = cexec(&plan.children[0], ctx)?;
            if exprs.iter().any(|(_, e)| e.has_subquery()) {
                let out = apply_project(input.to_streamset(), exprs, ctx)?;
                return Ok(ColStream::from_streamset(&out, bs));
            }
            let layout: Vec<ColId> = exprs.iter().map(|(c, _)| *c).collect();
            let mut out = ColStream::empty(layout, n);
            out.replicated = input.replicated;
            for s in 0..n {
                let mut batches = Vec::with_capacity(input.per_seg[s].len());
                let mut rows = 0usize;
                for b in &input.per_seg[s] {
                    let cols: Vec<Column> = exprs
                        .iter()
                        .map(|(_, e)| veval(e, &input.layout, b))
                        .collect::<Result<_>>()?;
                    rows += b.len;
                    batches.push(ColumnBatch { cols, len: b.len });
                }
                ctx.stats.rows_processed += rows as u64;
                out.avail[s] = input.avail[s] + ctx.tup_time(rows) * 0.3;
                out.per_seg[s] = batches;
            }
            Ok(out)
        }
        PhysicalOp::HashJoin {
            kind,
            left_keys,
            right_keys,
            residual,
        } => {
            let left = cexec(&plan.children[0], ctx)?;
            let right = cexec(&plan.children[1], ctx)?;
            cexec_hash_join(
                ctx,
                left,
                right,
                *kind,
                left_keys,
                right_keys,
                residual.as_ref(),
                bs,
            )
        }
        PhysicalOp::NLJoin { kind, pred } => {
            let left = cexec(&plan.children[0], ctx)?.to_streamset();
            let right = cexec(&plan.children[1], ctx)?.to_streamset();
            let out = apply_nl_join(left, right, *kind, pred, ctx)?;
            Ok(ColStream::from_streamset(&out, bs))
        }
        PhysicalOp::HashAgg {
            group_cols,
            aggs,
            stage,
        } => {
            let input = cexec(&plan.children[0], ctx)?;
            cexec_agg(ctx, input, group_cols, aggs, *stage, false, bs)
        }
        PhysicalOp::StreamAgg {
            group_cols,
            aggs,
            stage,
        } => {
            let input = cexec(&plan.children[0], ctx)?;
            cexec_agg(ctx, input, group_cols, aggs, *stage, true, bs)
        }
        PhysicalOp::Sort { order } => {
            let input = cexec(&plan.children[0], ctx)?;
            let width = input.layout.len();
            let keys = order_positions(order, &input.layout);
            let mut out = ColStream::empty(input.layout.clone(), n);
            out.replicated = input.replicated;
            for s in 0..n {
                let input_bytes: u64 = input.per_seg[s].iter().map(ColumnBatch::bytes).sum();
                let budget = ctx.budget_for(input_bytes);
                let mut spill_factor = 1.0;
                let big = ColumnBatch::concat(&input.per_seg[s], width);
                let batches: Vec<ColumnBatch>;
                if input_bytes > budget && ctx.cluster.can_spill {
                    // Same external merge sort as the row kernel: identical
                    // run boundaries, identical spill bytes.
                    ctx.stats.oom_risk_bytes = ctx.stats.oom_risk_bytes.max(input_bytes);
                    ctx.stats.spills += 1;
                    spill_factor = ctx.cluster.spill_penalty;
                    let rows: Vec<Row> = (0..big.len).map(|i| big.row(i)).collect();
                    let (sorted, m) = crate::spill::external_sort(
                        rows,
                        order,
                        &input.layout,
                        budget,
                        ctx.cluster.batch_size,
                    )?;
                    ctx.fold_spill(&m);
                    batches = sorted
                        .chunks(bs)
                        .map(|c| ColumnBatch::from_rows(c, width))
                        .collect();
                } else {
                    ctx.note_state(input_bytes);
                    let mut idx: Vec<u32> = (0..big.len as u32).collect();
                    // Stable index sort = the row kernel's stable row sort.
                    idx.sort_by(|&a, &b| cmp_rows_at(&big, a as usize, &big, b as usize, &keys));
                    batches = idx.chunks(bs).map(|c| big.select(c)).collect();
                }
                let len = big.len as f64;
                ctx.stats.rows_processed += big.len as u64;
                out.avail[s] = input.avail[s]
                    + ctx.tup_time(big.len) * (1.0 + len.max(2.0).log2() * 0.1) * spill_factor;
                out.per_seg[s] = batches;
            }
            Ok(out)
        }
        PhysicalOp::Limit { offset, count, .. } => {
            let input = cexec(&plan.children[0], ctx)?;
            let width = input.layout.len();
            let mut out = ColStream::empty(input.layout.clone(), n);
            // Singleton requirement means rows live on segment 0.
            debug_assert!(input.per_seg.iter().skip(1).all(Vec::is_empty));
            let total = input.seg_rows(0);
            let start = (*offset as usize).min(total);
            let end = match count {
                Some(c) => (start + *c as usize).min(total),
                None => total,
            };
            let big = ColumnBatch::concat(&input.per_seg[0], width);
            let sel: Vec<u32> = (start as u32..end as u32).collect();
            out.avail[0] = input.elapsed() + ctx.tup_time(end - start);
            out.per_seg[0] = sel.chunks(bs).map(|c| big.select(c)).collect();
            Ok(out)
        }
        PhysicalOp::Motion { kind } => cexec_motion(plan, ctx, kind, bs),
        PhysicalOp::Spool => {
            let input = cexec(&plan.children[0], ctx)?;
            let mut out = input.clone();
            for s in 0..n {
                out.avail[s] += ctx.tup_time(input.seg_rows(s)) * 0.6;
            }
            Ok(out)
        }
        PhysicalOp::Sequence { .. } => {
            // Producer side materializes its CTE; consumer side reads it.
            cexec(&plan.children[0], ctx)?;
            cexec(&plan.children[1], ctx)
        }
        PhysicalOp::CteProducer { id, cols } => {
            let input = cexec(&plan.children[0], ctx)?;
            let mut stored = input.clone();
            stored.layout = cols.clone();
            for s in 0..n {
                stored.avail[s] += ctx.tup_time(stored.seg_rows(s)) * 0.6;
            }
            // Producer output layout must match its declared cols.
            if stored.layout.len() != input.layout.len() {
                return Err(OrcaError::Execution("CTE producer arity mismatch".into()));
            }
            // Reproject positionally: declared col i = input col i.
            ctx.cte_col.insert(*id, stored.clone());
            Ok(stored)
        }
        PhysicalOp::CteScan {
            id,
            cols,
            producer_cols,
        } => {
            let stash = ctx
                .cte_col
                .get(id)
                .ok_or_else(|| OrcaError::Execution(format!("CTE {id} not materialized")))?
                .clone();
            // Map producer columns to this consumer's ids.
            let positions: Vec<usize> =
                producer_cols
                    .iter()
                    .map(|p| {
                        stash.layout.iter().position(|c| c == p).ok_or_else(|| {
                            OrcaError::Execution(format!("CTE {id} missing column {p}"))
                        })
                    })
                    .collect::<Result<_>>()?;
            let mut out = ColStream::empty(cols.clone(), n);
            for s in 0..n {
                out.per_seg[s] = stash.per_seg[s]
                    .iter()
                    .map(|b| reproject(b, &positions))
                    .collect();
                let rows = out.seg_rows(s);
                ctx.stats.rows_processed += rows as u64;
                out.avail[s] = stash.avail[s] + ctx.tup_time(rows) * 0.5;
            }
            Ok(out)
        }
        PhysicalOp::ConstTable { cols, rows } => {
            let mut out = ColStream::empty(cols.clone(), n);
            // Const rows live on the master by convention; a non-master
            // slice instance materializes an empty stream.
            if ctx.storage_segment(0) == 0 {
                out.per_seg[0] = chunk_rows(rows, cols.len(), bs);
            }
            Ok(out)
        }
        PhysicalOp::AssertOneRow => {
            let input = cexec(&plan.children[0], ctx)?;
            let width = input.layout.len();
            let mut out = ColStream::empty(input.layout.clone(), n);
            let total = input.total_rows();
            if ctx.storage_segment(0) != 0 {
                // The enforcer requires singleton input, so every row lives
                // on the master; a non-master instance must see none.
                if total != 0 {
                    return Err(OrcaError::Execution(
                        "AssertOneRow input off the master segment".into(),
                    ));
                }
                return Ok(out);
            }
            if total > 1 {
                return Err(OrcaError::Execution(
                    "more than one row returned by a subquery used as an expression".into(),
                ));
            }
            if total == 0 {
                // SQL scalar-subquery semantics: empty → NULL row.
                let null_row: Row = vec![Datum::Null; width];
                out.per_seg[0] = vec![ColumnBatch::from_rows(&[null_row], width)];
            } else {
                out.per_seg[0] = gathered_batches(&input);
            }
            out.avail[0] = input.elapsed();
            Ok(out)
        }
        PhysicalOp::UnionAll { output, input_cols } => {
            let mut out = ColStream::empty(output.clone(), n);
            for (i, child) in plan.children.iter().enumerate() {
                let c = cexec(child, ctx)?;
                let positions: Vec<usize> = input_cols[i]
                    .iter()
                    .map(|col| {
                        c.layout.iter().position(|x| x == col).ok_or_else(|| {
                            OrcaError::Execution(format!("union input missing {col}"))
                        })
                    })
                    .collect::<Result<_>>()?;
                let copies = one_copy_batches(ctx, &c);
                for (s, seg_batches) in copies.iter().enumerate() {
                    let seg_rows: usize = seg_batches.iter().map(|b| b.len).sum();
                    for b in seg_batches {
                        out.per_seg[s].push(reproject(b, &positions));
                    }
                    out.avail[s] = out.avail[s].max(c.avail[s]) + ctx.tup_time(seg_rows) * 0.2;
                }
            }
            Ok(out)
        }
        PhysicalOp::HashSetOp {
            kind,
            output,
            input_cols,
        } => {
            let mut children = Vec::with_capacity(plan.children.len());
            for child in &plan.children {
                children.push(cexec(child, ctx)?.to_streamset());
            }
            let kind: SetOpKind = *kind;
            let out = apply_setop(children, ctx, kind, output, input_cols)?;
            Ok(ColStream::from_streamset(&out, bs))
        }
        PhysicalOp::ExchangeRecv { motion } => ctx.recv_col.remove(motion).ok_or_else(|| {
            OrcaError::Execution(format!("motion {motion} not delivered to this slice"))
        }),
    }
}

/// A table scan (optionally with a fused filter) through the shared
/// fragment cache: reuse a resident fragment, attach to an in-flight
/// cooperative scan, or lead the scan and publish it.
///
/// Stats and simulated times are *replayed* exactly as the plain
/// scan(+filter) arms would have accounted them, so an execution with
/// the cache attached is indistinguishable from one without — same
/// rows, same `rows_processed`, same `avail` clocks — minus the storage
/// read. Sharing counters live on the cache itself, never in
/// [`crate::exec::ExecStats`] (which differential tests assert equal
/// between kernels).
#[allow(clippy::too_many_arguments)]
fn cexec_shared_scan(
    ctx: &mut ExecCtx<'_>,
    fc: &crate::sharing::FragmentCache,
    table: &orca_expr::logical::TableRef,
    cols: &[ColId],
    parts: &Option<Vec<usize>>,
    pred: Option<&ScalarExpr>,
    n: usize,
    bs: usize,
) -> Result<ColStream> {
    use crate::sharing::{fragment_fingerprint, Fragment, FragmentKey, Probe};
    let t = ctx.db.table(table.mdid)?;
    let fingerprint = fragment_fingerprint(cols, parts, bs, pred);
    let mut out = ColStream::empty(cols.to_vec(), n);
    out.replicated = t.desc.distribution == orca_catalog::Distribution::Replicated;
    for s in 0..n {
        let seg = ctx.storage_segment(s);
        let key = FragmentKey {
            table: t.desc.name.clone(),
            version: t.desc.mdid.version,
            fingerprint,
            segment: seg,
        };
        let frag = match fc.begin(&key, ctx.abort.as_deref())? {
            Probe::Ready(f) => f,
            Probe::Lead(guard) => {
                let so =
                    scan_filtered(t, seg, parts, cols, pred, bs, || ctx.take_shell(cols.len()))?;
                ctx.stats.scan_bytes_cloned += so.bytes_cloned;
                guard.publish(
                    Fragment::new(so.batches, so.scan_rows, so.scan_batches)
                        .with_skips(so.chunks_skipped, so.dict_hits),
                )
            }
        };
        // Replayed accounting — identical to the un-cached TableScan arm
        // (and, when a predicate fused, the Filter arm on top of it).
        // Skip counters replay too: a cache hit represents the same
        // pruned scan.
        let scanned = frag.scan_rows as usize;
        ctx.stats.rows_processed += frag.scan_rows;
        ctx.stats.chunks_skipped += frag.chunks_skipped;
        ctx.stats.dict_hits += frag.dict_hits;
        out.avail[s] = ctx.tup_time(scanned);
        if pred.is_some() {
            ctx.stats.rows_processed += frag.scan_rows;
            out.avail[s] += ctx.tup_time(scanned) * 0.5;
            // The fused scan's share of the per-operator profile (the
            // cexec wrapper only credits the Filter node).
            let p = ctx.stats.ops.entry("TableScan").or_default();
            p.rows += frag.scan_rows;
            p.batches += frag.scan_batches;
        }
        out.per_seg[s] = frag.batches.clone();
    }
    Ok(out)
}

/// Fused Filter-over-TableScan without a fragment cache: the
/// chunk-skipping scan with the Filter arm's accounting stacked on the
/// TableScan arm's (same clocks and counters the two separate arms
/// would have charged — skipped chunks included).
#[allow(clippy::too_many_arguments)]
fn cexec_fused_scan(
    ctx: &mut ExecCtx<'_>,
    table: &orca_expr::logical::TableRef,
    cols: &[ColId],
    parts: &Option<Vec<usize>>,
    pred: &ScalarExpr,
    n: usize,
    bs: usize,
) -> Result<ColStream> {
    let t = ctx.db.table(table.mdid)?;
    let width = cols.len();
    let mut out = ColStream::empty(cols.to_vec(), n);
    out.replicated = t.desc.distribution == orca_catalog::Distribution::Replicated;
    for s in 0..n {
        let so = scan_filtered(
            t,
            ctx.storage_segment(s),
            parts,
            cols,
            Some(pred),
            bs,
            || ctx.take_shell(width),
        )?;
        let scanned = so.scan_rows as usize;
        ctx.stats.rows_processed += so.scan_rows * 2;
        ctx.stats.chunks_skipped += so.chunks_skipped;
        ctx.stats.dict_hits += so.dict_hits;
        ctx.stats.scan_bytes_cloned += so.bytes_cloned;
        out.avail[s] = ctx.tup_time(scanned);
        out.avail[s] += ctx.tup_time(scanned) * 0.5;
        // The fused scan's share of the per-operator profile (the cexec
        // wrapper only credits the Filter node).
        let p = ctx.stats.ops.entry("TableScan").or_default();
        p.rows += so.scan_rows;
        p.batches += so.scan_batches;
        out.per_seg[s] = so.batches;
    }
    Ok(out)
}

/// Output of [`scan_filtered`]: the surviving batches plus the
/// accounting a plain scan(+filter) of the same chunks would have
/// produced.
struct ScanOut {
    batches: Vec<ColumnBatch>,
    /// Rows the unpruned scan covers — skipped chunks included, so
    /// replayed stats match the oracle's full scan.
    scan_rows: u64,
    /// Batches the unpruned scan would have emitted.
    scan_batches: u64,
    chunks_skipped: u64,
    dict_hits: u64,
    bytes_cloned: u64,
}

/// Top-level conjuncts of a predicate.
fn pred_conjuncts(pred: &ScalarExpr) -> Vec<&ScalarExpr> {
    match pred {
        ScalarExpr::And(parts) => parts.iter().collect(),
        other => vec![other],
    }
}

/// A conjunct reduced to a zone-testable shape over one scan column.
/// Every shape here is provably side-effect-free — its evaluation can
/// never error — which is what makes skipping the evaluation of a whole
/// chunk indistinguishable from running it.
enum ZoneTest<'a> {
    Cmp {
        pos: usize,
        op: CmpOp,
        lit: &'a Datum,
    },
    IsNull {
        pos: usize,
    },
    NotNull {
        pos: usize,
    },
    InList {
        pos: usize,
        items: Vec<&'a Datum>,
    },
}

impl ZoneTest<'_> {
    /// Does this conjunct provably reject every row of a chunk with
    /// these zone maps? (`rows` = chunk length, for all-NULL detection.)
    fn prunes(&self, zones: &[ZoneMap], rows: usize) -> bool {
        match self {
            ZoneTest::Cmp { pos, op, lit } => zone_prunes_cmp(&zones[*pos], *op, lit, rows),
            ZoneTest::IsNull { pos } => zones[*pos].null_count == 0,
            ZoneTest::NotNull { pos } => zones[*pos].null_count == rows,
            // `x IN (a, b)` is TRUE only where some item equals x, so
            // the chunk drops when every item's equality is
            // zone-disjoint (NULL items never produce TRUE, only NULL).
            ZoneTest::InList { pos, items } => items
                .iter()
                .all(|d| zone_prunes_cmp(&zones[*pos], CmpOp::Eq, d, rows)),
        }
    }

    fn pos(&self) -> usize {
        match self {
            ZoneTest::Cmp { pos, .. }
            | ZoneTest::IsNull { pos }
            | ZoneTest::NotNull { pos }
            | ZoneTest::InList { pos, .. } => *pos,
        }
    }

    /// Evaluate the conjunct in dictionary code space, if it is an
    /// equality/IN over a dict-encoded chunk column: returns the sorted
    /// matching codes (possibly empty — then no row of the chunk can
    /// pass). `None` means not dict-evaluable on this chunk.
    fn dict_codes(&self, chunk: &ColumnBatch) -> Option<Vec<u32>> {
        match self {
            ZoneTest::Cmp {
                pos,
                op: CmpOp::Eq,
                lit: Datum::Str(s),
            } => {
                let (_, dict, _) = chunk.cols[*pos].dict_parts()?;
                Some(match dict.binary_search_by(|d| d.as_str().cmp(s)) {
                    Ok(k) => vec![k as u32],
                    Err(_) => Vec::new(),
                })
            }
            // Non-string and NULL items can never equal a (string) dict
            // entry, so only string items contribute codes.
            ZoneTest::InList { pos, items } => {
                let (_, dict, _) = chunk.cols[*pos].dict_parts()?;
                let mut ks: Vec<u32> = items
                    .iter()
                    .filter_map(|d| match d {
                        Datum::Str(s) => dict
                            .binary_search_by(|x| x.as_str().cmp(s.as_str()))
                            .ok()
                            .map(|k| k as u32),
                        _ => None,
                    })
                    .collect();
                ks.sort_unstable();
                ks.dedup();
                Some(ks)
            }
            _ => None,
        }
    }
}

/// Reduce a conjunct to a [`ZoneTest`], or `None` if it falls outside
/// the safe shapes.
fn zone_test<'a>(e: &'a ScalarExpr, layout: &[ColId]) -> Option<ZoneTest<'a>> {
    let pos_of = |c: &ColId| layout.iter().position(|x| x == c);
    match e {
        ScalarExpr::Cmp { op, left, right } => match (&**left, &**right) {
            (ScalarExpr::ColRef(c), ScalarExpr::Const(d)) => Some(ZoneTest::Cmp {
                pos: pos_of(c)?,
                op: *op,
                lit: d,
            }),
            (ScalarExpr::Const(d), ScalarExpr::ColRef(c)) => Some(ZoneTest::Cmp {
                pos: pos_of(c)?,
                op: op.commute(),
                lit: d,
            }),
            _ => None,
        },
        ScalarExpr::IsNull(x) => match &**x {
            ScalarExpr::ColRef(c) => Some(ZoneTest::IsNull { pos: pos_of(c)? }),
            _ => None,
        },
        ScalarExpr::Not(x) => match &**x {
            ScalarExpr::IsNull(y) => match &**y {
                ScalarExpr::ColRef(c) => Some(ZoneTest::NotNull { pos: pos_of(c)? }),
                _ => None,
            },
            _ => None,
        },
        ScalarExpr::InList {
            expr,
            list,
            negated: false,
        } => {
            let ScalarExpr::ColRef(c) = &**expr else {
                return None;
            };
            let items = list
                .iter()
                .map(|i| match i {
                    ScalarExpr::Const(d) => Some(d),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()?;
            Some(ZoneTest::InList {
                pos: pos_of(c)?,
                items,
            })
        }
        _ => None,
    }
}

/// All conjuncts of `pred` as zone tests, or `None` if any conjunct
/// falls outside the safe shapes — then the scan must not skip
/// anything, because a skipped evaluation could have raised an error
/// the oracle raises.
fn conjunct_tests<'a>(
    pred: &'a ScalarExpr,
    layout: &[ColId],
) -> Option<Vec<(ZoneTest<'a>, &'a ScalarExpr)>> {
    pred_conjuncts(pred)
        .into_iter()
        .map(|c| zone_test(c, layout).map(|t| (t, c)))
        .collect()
}

/// Scan the chunks of `parts` on `segment`, applying `pred` (when
/// given) chunk-at-a-time: zone maps skip provably-empty chunks,
/// equality/IN conjuncts over dict-encoded columns run on `u32` codes,
/// and the residue goes through [`veval_predicate`] with the surviving
/// row sets intersected (exact under 3VL: a row passes `AND` iff every
/// conjunct is TRUE on it).
///
/// When a conjunct is not zone-testable, nothing is skipped and the
/// whole predicate evaluates at once — same work, same errors as the
/// unfused path.
fn scan_filtered(
    t: &SegmentedTable,
    segment: usize,
    parts: &Option<Vec<usize>>,
    layout: &[ColId],
    pred: Option<&ScalarExpr>,
    bs: usize,
    mut shell: impl FnMut() -> ColumnBatch,
) -> Result<ScanOut> {
    let bs = bs.max(1);
    let tests = pred.and_then(|p| conjunct_tests(p, layout));
    let mut out = ScanOut {
        batches: Vec::new(),
        scan_rows: 0,
        scan_batches: 0,
        chunks_skipped: 0,
        dict_hits: 0,
        bytes_cloned: 0,
    };
    let mut cand: Vec<u32> = Vec::new();
    'chunks: for chunk in t.part_chunks(segment, parts) {
        let rows = chunk.data.len;
        out.scan_rows += rows as u64;
        out.scan_batches += rows.div_ceil(bs) as u64;
        cand.clear();
        match (pred, &tests) {
            (None, _) => cand.extend(0..rows as u32),
            (Some(_), Some(tests)) => {
                if tests.iter().any(|(zt, _)| zt.prunes(&chunk.zones, rows)) {
                    out.chunks_skipped += 1;
                    continue;
                }
                cand.extend(0..rows as u32);
                for (zt, conj) in tests {
                    if let Some(ks) = zt.dict_codes(&chunk.data) {
                        if ks.is_empty() {
                            // The literal(s) are absent from this
                            // chunk's dictionary: nothing can match.
                            out.chunks_skipped += 1;
                            continue 'chunks;
                        }
                        out.dict_hits += 1;
                        let (codes, _, nulls) = chunk.data.cols[zt.pos()].dict_parts().unwrap();
                        cand.retain(|&i| {
                            let i = i as usize;
                            nulls.is_none_or(|nb| !nb.get(i)) && ks.binary_search(&codes[i]).is_ok()
                        });
                    } else {
                        let sel = veval_predicate(conj, layout, &chunk.data)?;
                        let mut mark = vec![false; rows];
                        for &i in &sel {
                            mark[i as usize] = true;
                        }
                        cand.retain(|&i| mark[i as usize]);
                    }
                    if cand.is_empty() {
                        // Evaluated (not skipped) — the chunk simply
                        // has no passing rows.
                        continue 'chunks;
                    }
                }
            }
            (Some(p), None) => {
                let sel = veval_predicate(p, layout, &chunk.data)?;
                cand.extend_from_slice(&sel);
                if cand.is_empty() {
                    continue;
                }
            }
        }
        if cand.len() == rows && bs >= rows {
            // Zero-copy: the whole chunk survives and fits one batch —
            // every column moves as an `Arc` refcount bump.
            out.batches.push(chunk.data.clone());
            continue;
        }
        for piece in cand.chunks(bs) {
            let mut b = shell();
            b.extend_select(&chunk.data, piece);
            out.bytes_cloned += b.bytes();
            out.batches.push(b);
        }
    }
    Ok(out)
}

/// Chunk a row slice into columnar batches of at most `bs` rows.
fn chunk_rows(rows: &[Row], width: usize, bs: usize) -> Vec<ColumnBatch> {
    rows.chunks(bs.max(1))
        .map(|c| ColumnBatch::from_rows(c, width))
        .collect()
}

/// Clone out the columns at `positions` (column reprojection: no per-row
/// work at all).
fn reproject(b: &ColumnBatch, positions: &[usize]) -> ColumnBatch {
    ColumnBatch {
        cols: positions.iter().map(|&p| b.cols[p].clone()).collect(),
        len: b.len,
    }
}

/// Columnar analogue of `ExecCtx::one_copy_of` (see that method's docs on
/// master-segment placement of the surviving replicated copy).
fn one_copy_batches(ctx: &ExecCtx<'_>, s: &ColStream) -> Vec<Vec<ColumnBatch>> {
    if !s.replicated {
        return s.per_seg.clone();
    }
    match ctx.local_segment {
        None => {
            let mut v = vec![Vec::new(); s.per_seg.len()];
            v[0] = s.per_seg[0].clone();
            v
        }
        Some(0) => vec![s.per_seg[0].clone()],
        Some(_) => vec![Vec::new()],
    }
}

/// All distinct-copy batches in slot order (`StreamSet::gathered`).
fn gathered_batches(s: &ColStream) -> Vec<ColumnBatch> {
    if s.replicated {
        return s.per_seg[0].clone();
    }
    s.per_seg.iter().flatten().cloned().collect()
}

/// Resolve an order spec to `(column position, desc)` pairs, skipping keys
/// absent from the layout (same as `compare_rows`).
fn order_positions(order: &OrderSpec, layout: &[ColId]) -> Vec<(usize, bool)> {
    order
        .0
        .iter()
        .filter_map(|k| layout.iter().position(|c| *c == k.col).map(|p| (p, k.desc)))
        .collect()
}

/// Compare row `i` of `a` with row `j` of `b` under pre-resolved sort keys
/// — the columnar mirror of `compare_rows`.
fn cmp_rows_at(
    a: &ColumnBatch,
    i: usize,
    b: &ColumnBatch,
    j: usize,
    keys: &[(usize, bool)],
) -> Ordering {
    for &(p, desc) in keys {
        let ord = a.cols[p].get_ref(i).total_cmp(&b.cols[p].get_ref(j));
        let ord = if desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// FNV over the key columns of row `i` — the same hash stream as
/// `Datum::hash`, so bucket contents match the row kernel's map.
fn hash_key_at(b: &ColumnBatch, pos: &[usize], i: usize) -> (u64, bool) {
    let mut h = FnvHasher::default();
    let mut has_null = false;
    for &p in pos {
        let v = b.cols[p].get_ref(i);
        if v.is_null() {
            has_null = true;
        }
        v.hash_into(&mut h);
    }
    (h.finish(), has_null)
}

/// Key equality across batches via `ValRef::key_eq` (mirrors `Datum`'s
/// `PartialEq`, NULL == NULL included).
fn keys_eq_at(
    a: &ColumnBatch,
    apos: &[usize],
    ai: usize,
    b: &ColumnBatch,
    bpos: &[usize],
    bi: usize,
) -> bool {
    apos.iter()
        .zip(bpos.iter())
        .all(|(&pa, &pb)| a.cols[pa].get_ref(ai).key_eq(&b.cols[pb].get_ref(bi)))
}

#[allow(clippy::too_many_arguments)]
fn cexec_hash_join(
    ctx: &mut ExecCtx<'_>,
    left: ColStream,
    right: ColStream,
    kind: JoinKind,
    left_keys: &[ColId],
    right_keys: &[ColId],
    residual: Option<&ScalarExpr>,
    bs: usize,
) -> Result<ColStream> {
    let _ = bs; // output batches inherit probe-side batch boundaries
    let n = left.per_seg.len();
    let lpos = key_positions(&left.layout, left_keys)?;
    let rpos = key_positions(&right.layout, right_keys)?;
    let env = Env::default();
    let outputs_right = kind.outputs_right();
    let mut layout = left.layout.clone();
    if outputs_right {
        layout.extend_from_slice(&right.layout);
    }
    let combined_layout: Vec<ColId> = left
        .layout
        .iter()
        .chain(right.layout.iter())
        .copied()
        .collect();
    let rwidth = right.layout.len();
    let mut out = ColStream::empty(layout, n);
    out.replicated = left.replicated && right.replicated;
    for s in 0..n {
        // Build on the right side. The memory check runs before the build,
        // like the row kernel's.
        let build_bytes: u64 = right.per_seg[s].iter().map(ColumnBatch::bytes).sum();
        let budget = ctx.budget_for(build_bytes);
        let mut spill_factor = 1.0;
        let spilling = build_bytes > budget;
        if spilling {
            ctx.stats.oom_risk_bytes = ctx.stats.oom_risk_bytes.max(build_bytes);
            if !ctx.cluster.can_spill {
                // Same message as the row kernel's, compared in tests.
                return Err(OrcaError::OutOfMemory(format!(
                    "out of memory: hash join build of {build_bytes} bytes on segment {s}"
                )));
            }
            ctx.stats.spills += 1;
            spill_factor = ctx.cluster.spill_penalty;
        }
        let build = ColumnBatch::concat(&right.per_seg[s], rwidth);
        let mut batches = Vec::new();
        let mut probe_rows = 0usize;
        if spilling {
            // Same grace helper as the row kernel: identical partition
            // routing and probe-order output; rebuilt batches keep the
            // probe side's batch boundaries.
            let build_rows: Vec<Row> = (0..build.len).map(|i| build.row(i)).collect();
            let probe: Vec<Row> = left.per_seg[s]
                .iter()
                .flat_map(|b| (0..b.len).map(move |i| b.row(i)))
                .collect();
            let (per_probe, m) = crate::spill::grace_hash_join(
                &build_rows,
                &probe,
                &lpos,
                &rpos,
                kind,
                residual,
                &combined_layout,
                rwidth,
                &env,
                budget,
                ctx.cluster.batch_size,
            )?;
            ctx.fold_spill(&m);
            let out_width = if outputs_right {
                combined_layout.len()
            } else {
                left.layout.len()
            };
            let mut off = 0usize;
            for lb in &left.per_seg[s] {
                probe_rows += lb.len;
                let rows: Vec<Row> = per_probe[off..off + lb.len]
                    .iter()
                    .flatten()
                    .cloned()
                    .collect();
                off += lb.len;
                if rows.is_empty() {
                    continue;
                }
                batches.push(ColumnBatch::from_rows(&rows, out_width));
            }
        } else {
            ctx.note_state(build_bytes);
            // Raw-hash buckets: candidate lists keep build order, and every
            // candidate is verified with key_eq, so probe results match the
            // row kernel's `Vec<Datum>`-keyed map exactly.
            let mut table: FnvHashMap<u64, Vec<u32>> = FnvHashMap::default();
            for i in 0..build.len {
                let (h, has_null) = hash_key_at(&build, &rpos, i);
                if has_null {
                    continue; // NULL keys never join.
                }
                table.entry(h).or_default().push(i as u32);
            }
            for lb in &left.per_seg[s] {
                probe_rows += lb.len;
                let mut sel_l: Vec<u32> = Vec::new();
                let mut sel_r: Vec<u32> = Vec::new();
                for i in 0..lb.len {
                    let (h, has_null) = hash_key_at(lb, &lpos, i);
                    let candidates: &[u32] = if has_null {
                        &[]
                    } else {
                        table.get(&h).map(|v| v.as_slice()).unwrap_or(&[])
                    };
                    let mut matched = false;
                    for &ri in candidates {
                        if !keys_eq_at(lb, &lpos, i, &build, &rpos, ri as usize) {
                            continue; // same hash, different key
                        }
                        let ok = match residual {
                            Some(res) => {
                                let mut joined = lb.row(i);
                                joined.extend(build.row(ri as usize));
                                accepts(res, &combined_layout, &joined, &env)?
                            }
                            None => true,
                        };
                        if !ok {
                            continue;
                        }
                        matched = true;
                        match kind {
                            JoinKind::Inner | JoinKind::LeftOuter => {
                                sel_l.push(i as u32);
                                sel_r.push(ri);
                            }
                            JoinKind::LeftSemi => {
                                sel_l.push(i as u32);
                                break;
                            }
                            JoinKind::LeftAntiSemi => break,
                        }
                    }
                    if !matched {
                        match kind {
                            JoinKind::LeftOuter => {
                                sel_l.push(i as u32);
                                sel_r.push(u32::MAX); // null-extend the right side
                            }
                            JoinKind::LeftAntiSemi => sel_l.push(i as u32),
                            _ => {}
                        }
                    }
                }
                if sel_l.is_empty() {
                    continue;
                }
                let mut b = lb.select(&sel_l);
                if outputs_right {
                    b.cols.extend(build.select(&sel_r).cols);
                }
                batches.push(b);
            }
        }
        ctx.stats.rows_processed += (build.len + probe_rows) as u64;
        out.avail[s] = left.avail[s].max(right.avail[s])
            + (ctx.tup_time(build.len) * 1.8 + ctx.tup_time(probe_rows)) * spill_factor;
        out.per_seg[s] = batches;
    }
    Ok(out)
}

fn cexec_agg(
    ctx: &mut ExecCtx<'_>,
    input: ColStream,
    group_cols: &[ColId],
    aggs: &[(ColId, ScalarExpr)],
    stage: AggStage,
    stream: bool,
    bs: usize,
) -> Result<ColStream> {
    let n = input.per_seg.len();
    let gpos = key_positions(&input.layout, group_cols)?;
    let mut layout = group_cols.to_vec();
    layout.extend(aggs.iter().map(|(c, _)| *c));
    let width = layout.len();
    let mut out = ColStream::empty(layout, n);
    out.replicated = input.replicated;
    for s in 0..n {
        // Group state is bounded by the input, so the deterministic spill
        // trigger is input bytes over budget, like the row kernel's.
        // Scalar aggregates hold O(1) state and never spill.
        let input_bytes: u64 = input.per_seg[s].iter().map(ColumnBatch::bytes).sum();
        let budget = ctx.budget_for(input_bytes);
        let mut spill_factor = 1.0;
        let spilling = !gpos.is_empty() && input_bytes > budget && ctx.cluster.can_spill;
        let mut in_len = 0usize;
        let mut w = BatchWriter::new(width, bs);
        if spilling {
            ctx.stats.oom_risk_bytes = ctx.stats.oom_risk_bytes.max(input_bytes);
            ctx.stats.spills += 1;
            spill_factor = ctx.cluster.spill_penalty;
            let rows_in: Vec<Row> = input.per_seg[s]
                .iter()
                .flat_map(|b| (0..b.len).map(move |i| b.row(i)))
                .collect();
            in_len = rows_in.len();
            let env = Env::default();
            let (collected, m) = crate::spill::grace_hash_agg(
                &rows_in,
                &gpos,
                aggs,
                &input.layout,
                &env,
                budget,
                ctx.cluster.batch_size,
            )?;
            ctx.fold_spill(&m);
            for (key, group_accs) in &collected {
                let mut row = key.clone();
                row.extend(group_accs.iter().map(AggAccumulator::finish));
                w.push_row(&row);
            }
        } else {
            ctx.note_state(if gpos.is_empty() { 0 } else { input_bytes });
            // First-seen group order, like the row kernel's `order` vec.
            let mut buckets: FnvHashMap<u64, Vec<u32>> = FnvHashMap::default();
            let mut keys: Vec<Row> = Vec::new();
            let mut accs: Vec<Vec<AggAccumulator>> = Vec::new();
            for b in &input.per_seg[s] {
                in_len += b.len;
                // Vectorized argument evaluation: one column per aggregate
                // per batch instead of one eval per (row, aggregate).
                let mut arg_cols: Vec<Option<Column>> = Vec::with_capacity(aggs.len());
                for (_, e) in aggs {
                    match e {
                        ScalarExpr::Agg { arg: Some(a), .. } => {
                            arg_cols.push(Some(veval(a, &input.layout, b)?))
                        }
                        _ => arg_cols.push(None),
                    }
                }
                for i in 0..b.len {
                    let (h, _) = hash_key_at(b, &gpos, i); // NULL groups: NULL == NULL
                    let bucket = buckets.entry(h).or_default();
                    let gid = match bucket.iter().copied().find(|&g| {
                        gpos.iter().enumerate().all(|(k, &p)| {
                            ValRef::of(&keys[g as usize][k]).key_eq(&b.cols[p].get_ref(i))
                        })
                    }) {
                        Some(g) => g as usize,
                        None => {
                            let g = keys.len();
                            keys.push(gpos.iter().map(|&p| b.cols[p].get(i)).collect());
                            accs.push(
                                aggs.iter()
                                    .map(|(_, e)| AggAccumulator::from_expr(e))
                                    .collect::<Result<_>>()?,
                            );
                            bucket.push(g as u32);
                            g
                        }
                    };
                    for (j, acc) in accs[gid].iter_mut().enumerate() {
                        let value = match &arg_cols[j] {
                            Some(c) => c.get(i),
                            None => Datum::Int(1), // count(*)
                        };
                        acc.update_value(value);
                    }
                }
            }
            for (key, group_accs) in keys.iter().zip(accs.iter()) {
                let mut row = key.clone();
                row.extend(group_accs.iter().map(AggAccumulator::finish));
                w.push_row(&row);
            }
            // Scalar aggregates must emit a row even on empty input: on
            // every segment for Local stage (partials), on the master
            // otherwise. (A spilling aggregate always has group columns,
            // so this only applies to the in-memory branch.)
            if group_cols.is_empty() && keys.is_empty() {
                let emit_here = match stage {
                    AggStage::Local => true,
                    _ => ctx.storage_segment(s) == 0,
                };
                if emit_here {
                    let empty_accs: Vec<AggAccumulator> = aggs
                        .iter()
                        .map(|(_, e)| AggAccumulator::from_expr(e))
                        .collect::<Result<_>>()?;
                    let row: Row = empty_accs.iter().map(AggAccumulator::finish).collect();
                    w.push_row(&row);
                }
            }
        }
        ctx.stats.rows_processed += in_len as u64;
        let factor = if stream { 0.6 } else { 1.1 };
        out.avail[s] = input.avail[s] + ctx.tup_time(in_len) * factor * spill_factor;
        out.per_seg[s] = w.finish();
    }
    Ok(out)
}

fn cexec_motion(
    plan: &PhysicalPlan,
    ctx: &mut ExecCtx<'_>,
    kind: &MotionKind,
    bs: usize,
) -> Result<ColStream> {
    if ctx.local_segment.is_some() {
        // The slicer cuts plans at motions; a motion inside a slice means
        // the slicer was bypassed or produced a malformed slice.
        return Err(OrcaError::Execution(
            "Motion executed inside a single-segment slice".into(),
        ));
    }
    let n = ctx.cluster.num_segments;
    let input = cexec(&plan.children[0], ctx)?;
    let width = input.layout.len();
    // One distinct copy of the stream's bytes (see `distinct_bytes`).
    let bytes = if input.replicated {
        input.bytes() / n as f64
    } else {
        input.bytes()
    };
    let mut out = ColStream::empty(input.layout.clone(), n);
    match kind {
        MotionKind::Gather => {
            out.per_seg[0] = gathered_batches(&input);
            ctx.stats.bytes_moved += bytes as u64;
            out.avail[0] = input.elapsed() + ctx.net_time(bytes);
        }
        MotionKind::GatherMerge(order) => {
            // Streaming k-way merge over per-segment sorted inputs,
            // tie-breaking on the lowest source segment (same contract as
            // the row kernel's `kway_merge`), but moving rows by index
            // gathers instead of `Vec<Datum>` pops.
            let sources: Vec<ColumnBatch> = one_copy_batches(ctx, &input)
                .iter()
                .map(|bl| ColumnBatch::concat(bl, width))
                .collect();
            let keys = order_positions(order, &input.layout);
            let mut heads = vec![0usize; sources.len()];
            let mut w = BatchWriter::new(width, bs);
            loop {
                let mut best: Option<usize> = None;
                for (src, c) in sources.iter().enumerate() {
                    if heads[src] >= c.len {
                        continue;
                    }
                    best = match best {
                        None => Some(src),
                        Some(b) => {
                            if cmp_rows_at(c, heads[src], &sources[b], heads[b], &keys)
                                == Ordering::Less
                            {
                                Some(src)
                            } else {
                                Some(b)
                            }
                        }
                    };
                }
                let Some(b) = best else { break };
                w.append_row_from(&sources[b], heads[b]);
                heads[b] += 1;
            }
            let len = w.rows();
            out.per_seg[0] = w.finish();
            ctx.stats.bytes_moved += bytes as u64;
            out.avail[0] = input.elapsed() + ctx.net_time(bytes) * 1.15 + ctx.tup_time(len) * 0.2;
        }
        MotionKind::Redistribute(cols) => {
            let pos = key_positions(&input.layout, cols)?;
            let base = input.elapsed();
            let mut writers: Vec<BatchWriter> =
                (0..n).map(|_| BatchWriter::new(width, bs)).collect();
            let mut states: Vec<FnvHasher> = Vec::new();
            let mut sels: Vec<Vec<u32>> = vec![Vec::new(); n];
            for seg_batches in &one_copy_batches(ctx, &input) {
                for b in seg_batches {
                    // Batch-at-a-time fan-out: fold each key column into
                    // per-row hasher states column-major (same per-row
                    // byte stream as `segment_for_key`), then scatter
                    // rows through per-destination selection vectors
                    // instead of per-row appends.
                    states.clear();
                    states.resize_with(b.len, FnvHasher::default);
                    for &p in &pos {
                        b.cols[p].hash_rows_into(&mut states);
                    }
                    for sel in sels.iter_mut() {
                        sel.clear();
                    }
                    for (i, h) in states.iter().enumerate() {
                        sels[(h.finish() % n as u64) as usize].push(i as u32);
                    }
                    for (dest, sel) in sels.iter().enumerate() {
                        if sel.is_empty() {
                            continue;
                        }
                        if sel.len() == b.len {
                            // Whole batch routes to one destination:
                            // move it as `Arc` bumps.
                            writers[dest].push_batch(b.clone());
                        } else {
                            writers[dest].extend_select(b, sel);
                        }
                    }
                }
            }
            for (s, wtr) in writers.into_iter().enumerate() {
                out.per_seg[s] = wtr.finish();
            }
            ctx.stats.bytes_moved += bytes as u64;
            for s in 0..n {
                out.avail[s] = base + ctx.net_time(bytes) / n as f64;
            }
        }
        MotionKind::Broadcast => {
            let all = gathered_batches(&input);
            out.replicated = true;
            // n full copies leave the wire: scale in f64 *before* the
            // integer conversion so large streams don't truncate per-copy.
            ctx.stats.bytes_moved += (bytes * n as f64) as u64;
            let base = input.elapsed();
            for s in 0..n {
                out.per_seg[s] = all.clone();
                out.avail[s] = base + ctx.net_time(bytes);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecEngine;
    use crate::storage::Database;
    use orca_catalog::{ColumnMeta, Distribution, TableDesc};
    use orca_common::{DataType, MdId, SysId};
    use orca_expr::logical::TableRef;
    use orca_expr::scalar::{AggFunc, ArithOp, CmpOp};
    use std::sync::Arc;

    /// 4-segment fixture with NULL-heavy data: t1 hashed, t2 hashed on its
    /// second column, tr replicated.
    fn db() -> (Database, TableRef, TableRef, TableRef) {
        let mut db = Database::new(orca_common::SegmentConfig::default().with_segments(4));
        let mk = |oid: u64, name: &str, dist: Distribution| {
            Arc::new(TableDesc::new(
                MdId::new(SysId::Gpdb, oid, 1),
                name,
                vec![
                    ColumnMeta::new("a", DataType::Int),
                    ColumnMeta::new("b", DataType::Int),
                ],
                dist,
            ))
        };
        let t1 = mk(1, "t1", Distribution::Hashed(vec![0]));
        let t2 = mk(2, "t2", Distribution::Hashed(vec![1]));
        let tr = mk(3, "tr", Distribution::Replicated);
        let val = |v: i64| {
            if v % 9 == 8 {
                Datum::Null
            } else {
                Datum::Int(v)
            }
        };
        let rows1: Vec<Row> = (0..120).map(|i| vec![val(i % 17), val(i)]).collect();
        let rows2: Vec<Row> = (0..50).map(|i| vec![val(i), val(i % 17)]).collect();
        let rowsr: Vec<Row> = (0..12).map(|i| vec![val(i % 5), val(i + 2)]).collect();
        db.load_table(t1.clone(), rows1).unwrap();
        db.load_table(t2.clone(), rows2).unwrap();
        db.load_table(tr.clone(), rowsr).unwrap();
        (db, TableRef(t1), TableRef(t2), TableRef(tr))
    }

    fn scan(t: &TableRef, first: u32) -> PhysicalPlan {
        PhysicalPlan::leaf(PhysicalOp::TableScan {
            table: t.clone(),
            cols: vec![ColId(first), ColId(first + 1)],
            parts: None,
        })
    }

    fn gather(child: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::new(
            PhysicalOp::Motion {
                kind: MotionKind::Gather,
            },
            vec![child],
        )
    }

    /// Every plan here runs through both kernels at batch sizes 1, 7 and
    /// 1024 and must produce byte-identical rows, identical simulated
    /// time, and identical counters.
    #[test]
    fn columnar_matches_row_kernel() {
        let (db0, t1, t2, tr) = db();
        let agg = |func: AggFunc, arg: Option<ColId>, distinct: bool| ScalarExpr::Agg {
            func,
            arg: arg.map(|c| Box::new(ScalarExpr::col(c))),
            distinct,
        };
        let plans: Vec<(PhysicalPlan, Vec<ColId>)> = vec![
            // Figure 6: join + redistribute + sort + gather-merge.
            (
                PhysicalPlan::new(
                    PhysicalOp::Motion {
                        kind: MotionKind::GatherMerge(OrderSpec::by(&[ColId(0)])),
                    },
                    vec![PhysicalPlan::new(
                        PhysicalOp::Sort {
                            order: OrderSpec::by(&[ColId(0)]),
                        },
                        vec![PhysicalPlan::new(
                            PhysicalOp::HashJoin {
                                kind: JoinKind::Inner,
                                left_keys: vec![ColId(0)],
                                right_keys: vec![ColId(3)],
                                residual: None,
                            },
                            vec![
                                scan(&t1, 0),
                                PhysicalPlan::new(
                                    PhysicalOp::Motion {
                                        kind: MotionKind::Redistribute(vec![ColId(3)]),
                                    },
                                    vec![scan(&t2, 2)],
                                ),
                            ],
                        )],
                    )],
                ),
                vec![ColId(0), ColId(1), ColId(2)],
            ),
            // All join kinds against a broadcast build, with a residual.
            (
                gather(PhysicalPlan::new(
                    PhysicalOp::HashJoin {
                        kind: JoinKind::LeftOuter,
                        left_keys: vec![ColId(0)],
                        right_keys: vec![ColId(3)],
                        residual: Some(ScalarExpr::cmp(
                            CmpOp::Lt,
                            ScalarExpr::col(ColId(1)),
                            ScalarExpr::int(60),
                        )),
                    },
                    vec![
                        scan(&t1, 0),
                        PhysicalPlan::new(
                            PhysicalOp::Motion {
                                kind: MotionKind::Broadcast,
                            },
                            vec![scan(&t2, 2)],
                        ),
                    ],
                )),
                vec![ColId(0), ColId(1), ColId(2), ColId(3)],
            ),
            (
                gather(PhysicalPlan::new(
                    PhysicalOp::HashJoin {
                        kind: JoinKind::LeftSemi,
                        left_keys: vec![ColId(0)],
                        right_keys: vec![ColId(3)],
                        residual: None,
                    },
                    vec![
                        scan(&t1, 0),
                        PhysicalPlan::new(
                            PhysicalOp::Motion {
                                kind: MotionKind::Broadcast,
                            },
                            vec![scan(&t2, 2)],
                        ),
                    ],
                )),
                vec![ColId(0), ColId(1)],
            ),
            (
                gather(PhysicalPlan::new(
                    PhysicalOp::HashJoin {
                        kind: JoinKind::LeftAntiSemi,
                        left_keys: vec![ColId(0)],
                        right_keys: vec![ColId(3)],
                        residual: None,
                    },
                    vec![
                        scan(&t1, 0),
                        PhysicalPlan::new(
                            PhysicalOp::Motion {
                                kind: MotionKind::Broadcast,
                            },
                            vec![scan(&t2, 2)],
                        ),
                    ],
                )),
                vec![ColId(0), ColId(1)],
            ),
            // Filter + arithmetic projection (vectorized eval paths).
            (
                gather(PhysicalPlan::new(
                    PhysicalOp::Project {
                        exprs: vec![
                            (ColId(10), ScalarExpr::col(ColId(0))),
                            (
                                ColId(11),
                                ScalarExpr::Arith {
                                    op: ArithOp::Mul,
                                    left: Box::new(ScalarExpr::col(ColId(1))),
                                    right: Box::new(ScalarExpr::int(3)),
                                },
                            ),
                            (
                                ColId(12),
                                ScalarExpr::IsNull(Box::new(ScalarExpr::col(ColId(0)))),
                            ),
                        ],
                    },
                    vec![PhysicalPlan::new(
                        PhysicalOp::Filter {
                            pred: ScalarExpr::and(vec![
                                ScalarExpr::cmp(
                                    CmpOp::Ge,
                                    ScalarExpr::col(ColId(1)),
                                    ScalarExpr::int(5),
                                ),
                                ScalarExpr::Not(Box::new(ScalarExpr::cmp(
                                    CmpOp::Gt,
                                    ScalarExpr::col(ColId(0)),
                                    ScalarExpr::int(15),
                                ))),
                            ]),
                        },
                        vec![scan(&t1, 0)],
                    )],
                )),
                vec![ColId(10), ColId(11), ColId(12)],
            ),
            // Always-false filter: empty batches everywhere downstream.
            (
                gather(PhysicalPlan::new(
                    PhysicalOp::Filter {
                        pred: ScalarExpr::cmp(
                            CmpOp::Gt,
                            ScalarExpr::col(ColId(1)),
                            ScalarExpr::int(1_000_000),
                        ),
                    },
                    vec![scan(&t1, 0)],
                )),
                vec![ColId(0)],
            ),
            // Grouped aggregation with NULL groups and distinct.
            (
                gather(PhysicalPlan::new(
                    PhysicalOp::HashAgg {
                        group_cols: vec![ColId(0)],
                        aggs: vec![
                            (ColId(20), agg(AggFunc::Count, None, false)),
                            (ColId(21), agg(AggFunc::Sum, Some(ColId(1)), false)),
                            (ColId(22), agg(AggFunc::Min, Some(ColId(1)), false)),
                            (ColId(23), agg(AggFunc::Max, Some(ColId(1)), false)),
                            (ColId(24), agg(AggFunc::Count, Some(ColId(1)), true)),
                        ],
                        stage: AggStage::Single,
                    },
                    vec![scan(&t1, 0)],
                )),
                vec![
                    ColId(0),
                    ColId(20),
                    ColId(21),
                    ColId(22),
                    ColId(23),
                    ColId(24),
                ],
            ),
            // Scalar aggregate over empty input via the split-agg path.
            (
                PhysicalPlan::new(
                    PhysicalOp::HashAgg {
                        group_cols: vec![],
                        aggs: vec![(ColId(21), agg(AggFunc::Sum, Some(ColId(20)), false))],
                        stage: AggStage::Global,
                    },
                    vec![gather(PhysicalPlan::new(
                        PhysicalOp::HashAgg {
                            group_cols: vec![],
                            aggs: vec![(ColId(20), agg(AggFunc::Count, None, false))],
                            stage: AggStage::Local,
                        },
                        vec![PhysicalPlan::new(
                            PhysicalOp::Filter {
                                pred: ScalarExpr::cmp(
                                    CmpOp::Gt,
                                    ScalarExpr::col(ColId(1)),
                                    ScalarExpr::int(1_000_000),
                                ),
                            },
                            vec![scan(&t1, 0)],
                        )],
                    ))],
                ),
                vec![ColId(21)],
            ),
            // Sort + limit over a replicated scan, with a stream agg.
            (
                PhysicalPlan::new(
                    PhysicalOp::Limit {
                        order: OrderSpec::by(&[ColId(5)]),
                        offset: 1,
                        count: Some(4),
                    },
                    vec![PhysicalPlan::new(
                        PhysicalOp::Sort {
                            order: OrderSpec::by(&[ColId(5)]),
                        },
                        vec![gather(PhysicalPlan::new(
                            PhysicalOp::StreamAgg {
                                group_cols: vec![ColId(4)],
                                aggs: vec![(ColId(25), agg(AggFunc::Avg, Some(ColId(5)), false))],
                                stage: AggStage::Single,
                            },
                            vec![scan(&tr, 4)],
                        ))],
                    )],
                ),
                vec![ColId(4)],
            ),
            // UnionAll of a hashed and a replicated input.
            (
                gather(PhysicalPlan::new(
                    PhysicalOp::UnionAll {
                        output: vec![ColId(30), ColId(31)],
                        input_cols: vec![vec![ColId(0), ColId(1)], vec![ColId(4), ColId(5)]],
                    },
                    vec![scan(&t1, 0), scan(&tr, 4)],
                )),
                vec![ColId(30), ColId(31)],
            ),
            // Hash set-op (row-path fallback inside the batch kernel).
            (
                gather(PhysicalPlan::new(
                    PhysicalOp::HashSetOp {
                        kind: SetOpKind::Intersect,
                        output: vec![ColId(30)],
                        input_cols: vec![vec![ColId(0)], vec![ColId(5)]],
                    },
                    vec![scan(&t1, 0), scan(&tr, 4)],
                )),
                vec![ColId(30)],
            ),
            // CTE self-join through Sequence + Spool-free sharing.
            (
                gather(PhysicalPlan::new(
                    PhysicalOp::Sequence {
                        id: orca_common::CteId(1),
                    },
                    vec![
                        PhysicalPlan::new(
                            PhysicalOp::CteProducer {
                                id: orca_common::CteId(1),
                                cols: vec![ColId(0), ColId(1)],
                            },
                            vec![scan(&t1, 0)],
                        ),
                        PhysicalPlan::new(
                            PhysicalOp::HashJoin {
                                kind: JoinKind::Inner,
                                left_keys: vec![ColId(40)],
                                right_keys: vec![ColId(50)],
                                residual: None,
                            },
                            vec![
                                PhysicalPlan::leaf(PhysicalOp::CteScan {
                                    id: orca_common::CteId(1),
                                    cols: vec![ColId(40), ColId(41)],
                                    producer_cols: vec![ColId(0), ColId(1)],
                                }),
                                PhysicalPlan::leaf(PhysicalOp::CteScan {
                                    id: orca_common::CteId(1),
                                    cols: vec![ColId(50), ColId(51)],
                                    producer_cols: vec![ColId(0), ColId(1)],
                                }),
                            ],
                        ),
                    ],
                )),
                vec![ColId(40), ColId(51)],
            ),
        ];
        for (pi, (plan, out_cols)) in plans.iter().enumerate() {
            for bs in [1usize, 7, 1024] {
                let mut db = db0.clone();
                db.cluster.batch_size = bs;
                let engine = ExecEngine::new(&db);
                let row = engine.run(plan, out_cols).unwrap();
                let col = engine.run_columnar(plan, out_cols).unwrap();
                assert_eq!(
                    format!("{:?}", row.rows),
                    format!("{:?}", col.rows),
                    "plan {pi} rows diverged at batch_size {bs}"
                );
                assert_eq!(
                    row.sim_seconds.to_bits(),
                    col.sim_seconds.to_bits(),
                    "plan {pi} sim time diverged at batch_size {bs}"
                );
                assert_eq!(
                    row.stats.rows_processed, col.stats.rows_processed,
                    "plan {pi}"
                );
                assert_eq!(row.stats.bytes_moved, col.stats.bytes_moved, "plan {pi}");
                assert_eq!(row.stats.spills, col.stats.spills, "plan {pi}");
                assert_eq!(
                    row.stats.oom_risk_bytes, col.stats.oom_risk_bytes,
                    "plan {pi}"
                );
                // Both kernels fill the per-operator profile.
                assert!(!row.stats.ops.is_empty() && !col.stats.ops.is_empty());
                for (name, p) in &col.stats.ops {
                    let rp = &row.stats.ops[name];
                    assert_eq!(p.rows, rp.rows, "plan {pi} op {name} rows");
                }
            }
        }
    }

    /// The batch kernel reports the OOM failure with the same message.
    #[test]
    fn columnar_oom_matches_row_kernel() {
        let (mut db, t1, t2, _) = db();
        db.cluster.work_mem_bytes = 64;
        db.cluster.can_spill = false;
        let join = gather(PhysicalPlan::new(
            PhysicalOp::HashJoin {
                kind: JoinKind::Inner,
                left_keys: vec![ColId(0)],
                right_keys: vec![ColId(3)],
                residual: None,
            },
            vec![
                scan(&t1, 0),
                PhysicalPlan::new(
                    PhysicalOp::Motion {
                        kind: MotionKind::Broadcast,
                    },
                    vec![scan(&t2, 2)],
                ),
            ],
        ));
        let engine = ExecEngine::new(&db);
        let a = engine.run(&join, &[ColId(0)]).unwrap_err();
        let b = engine.run_columnar(&join, &[ColId(0)]).unwrap_err();
        assert_eq!(a.message(), b.message());
        assert!(b.message().contains("out of memory"));
    }
}
