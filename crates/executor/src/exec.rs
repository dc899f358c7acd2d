//! The operator interpreter: physical plans over per-segment streams.
//!
//! Every operator runs "on all segments" (shared-nothing); motions are the
//! only operators that move rows between segments. A singleton stream
//! lives, by convention, on segment 0 (the master). Alongside the rows,
//! each stream carries `avail[s]` — the simulated time at which segment
//! `s`'s output is complete — which is how the engine produces
//! deterministic "cluster elapsed time" measurements (DESIGN.md §2).

use crate::columnar::batch::ColStream;
use crate::eval::{accepts, compare_rows, eval, AggAccumulator, Env};
use crate::merge::{kway_merge, VecSource};
use crate::storage::{Database, Row};
use orca_common::hash::{segment_for_key, FnvHashMap};
use orca_common::{ColId, CteId, Datum, OrcaError, Result, SegmentConfig};
use orca_expr::logical::{AggStage, JoinKind, SetOpKind};
use orca_expr::physical::{MotionKind, PhysicalOp, PhysicalPlan};
use orca_expr::scalar::ScalarExpr;
use orca_gpos::AbortSignal;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A per-segment row stream with its layout and completion times.
#[derive(Debug, Clone)]
pub struct StreamSet {
    pub layout: Vec<ColId>,
    pub per_seg: Vec<Vec<Row>>,
    /// Simulated completion time of each segment's stream.
    pub avail: Vec<f64>,
    /// Whether every segment holds a *full copy* of the data (the stream
    /// is Replicated). Operators that merge per-segment streams — motions,
    /// UnionAll — must then read exactly one copy; joins, by contrast,
    /// deliberately consume the per-segment copies.
    pub replicated: bool,
}

impl StreamSet {
    pub(crate) fn empty(layout: Vec<ColId>, segments: usize) -> StreamSet {
        StreamSet {
            layout,
            per_seg: vec![Vec::new(); segments],
            avail: vec![0.0; segments],
            replicated: false,
        }
    }

    pub fn total_rows(&self) -> usize {
        self.per_seg.iter().map(Vec::len).sum()
    }

    /// All *distinct-copy* rows: one segment's copy for replicated
    /// streams, the concatenation otherwise (the final gather result reads
    /// seg 0).
    pub fn gathered(&self) -> Vec<Row> {
        if self.replicated {
            return self.per_seg[0].clone();
        }
        self.per_seg.iter().flatten().cloned().collect()
    }

    /// Per-segment view for merging consumers: a single copy (on segment
    /// 0) when replicated, the streams as-is otherwise.
    fn one_copy(&self) -> Vec<Vec<Row>> {
        if self.replicated {
            let mut v = vec![Vec::new(); self.per_seg.len()];
            v[0] = self.per_seg[0].clone();
            v
        } else {
            self.per_seg.clone()
        }
    }

    pub fn elapsed(&self) -> f64 {
        self.avail.iter().copied().fold(0.0, f64::max)
    }

    fn bytes(&self) -> f64 {
        self.per_seg
            .iter()
            .flatten()
            .map(|r| r.iter().map(Datum::width).sum::<u64>() as f64)
            .sum()
    }
}

/// Per-operator profile entry: totals over every invocation of operators
/// with this name in one execution (exclusive time — children excluded).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Rows emitted by this operator.
    pub rows: u64,
    /// Output granularity: columnar batches for the batch kernel,
    /// non-empty segment streams for the row kernel.
    pub batches: u64,
    /// Host-clock nanoseconds spent in this operator itself (time inside
    /// child operators is attributed to the children).
    pub ns: u64,
}

/// Execution counters.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    pub rows_processed: u64,
    pub bytes_moved: u64,
    pub spills: u64,
    pub oom_risk_bytes: u64,
    /// Storage chunks skipped by zone-map pruning in the fused
    /// filter-over-scan path (diagnostic; rows_processed still charges
    /// skipped rows so timing stays comparable with the row oracle).
    pub chunks_skipped: u64,
    /// Chunk×conjunct predicate evaluations answered on dictionary
    /// codes instead of decoded strings.
    pub dict_hits: u64,
    /// Logical bytes copied by scans that had to re-slice chunks
    /// (zero when every scan takes the zero-copy fast path).
    pub scan_bytes_cloned: u64,
    /// Spill partitions / sort runs written by memory-governed operators
    /// ([`crate::spill`]); zero when everything fit in its grant.
    pub spill_partitions: u64,
    /// Bytes serialized into spill files (columnar chunk wire shape).
    pub spill_bytes_written: u64,
    /// Bytes deserialized back out of spill files.
    pub spill_bytes_read: u64,
    /// High-water mark of resident operator state (hash-join build,
    /// aggregate groups, sort run) on any one segment. When an operator
    /// spills this is its largest resident partition, which is how the
    /// bench gate checks `peak ≤ grant`.
    pub peak_mem_bytes: u64,
    /// Per-operator profile, keyed by operator name (`BTreeMap` so report
    /// output is deterministically ordered).
    pub ops: BTreeMap<&'static str, OpProfile>,
}

/// Per-query execution context, shared by both kernels.
///
/// * **cluster mode** (`local_segment == None`) — a whole plan: every
///   stream has one slot per segment and motions move rows between slots.
///   The row kernel ([`exec`]) runs only in this mode, as the serial
///   oracle.
/// * **single-segment mode** (`local_segment == Some(s)`) — one slice
///   instance of a gang, run by the columnar kernel
///   ([`crate::columnar::cexec`]) alone: streams have exactly one slot
///   holding segment `s`'s share, scans read physical segment `s`, and
///   [`PhysicalOp::ExchangeRecv`] leaves resolve against
///   [`ExecCtx::recv_col`] (pre-delivered by the interconnect). Motions
///   never appear (the slicer cut them out), and master-only conventions
///   (ConstTable rows, scalar aggregate emission, AssertOneRow) key on the
///   *physical* segment so an n-instance gang reproduces the serial
///   engine's placement exactly. The row helpers the columnar kernel
///   borrows (`apply_filter`, `apply_project`, `apply_nl_join`,
///   `apply_setop`) keep their single-segment handling for it.
pub struct ExecCtx<'a> {
    pub db: &'a Database,
    pub cluster: &'a SegmentConfig,
    pub cte: FnvHashMap<CteId, StreamSet>,
    pub stats: ExecStats,
    /// `Some(s)` = single-segment mode on physical segment `s`.
    pub local_segment: Option<usize>,
    /// Columnar counterpart of [`ExecCtx::cte`], used by the batch kernel.
    pub(crate) cte_col: FnvHashMap<CteId, ColStream>,
    /// Streams delivered by the interconnect, keyed by motion id (consumed
    /// by `ExchangeRecv`; each motion is delivered to a slice exactly once).
    pub recv_col: FnvHashMap<usize, ColStream>,
    /// Cooperative cancellation: checked at every operator boundary.
    pub abort: Option<Arc<AbortSignal>>,
    /// Cross-query fragment cache ([`crate::sharing`]). `None` (the
    /// default) keeps every scan independent — the batch kernel only
    /// probes/publishes fragments when a cache is attached.
    pub frag: Option<Arc<crate::sharing::FragmentCache>>,
    /// Nanoseconds attributed to child operators of the operator currently
    /// executing — the bookkeeping behind exclusive-time profiling.
    pub(crate) profile_child_ns: u64,
    /// Shared batch-shell free list: scans and builders draw empty
    /// `ColumnBatch` shells from here instead of allocating fresh ones.
    pub pool: Option<Arc<crate::parallel::BatchPool>>,
    /// Per-query memory grant accounting ([`crate::memory`]): one tracker
    /// shared by every kernel instance of the query. The default is an
    /// ungoverned tracker, so `min(work_mem, grant)` degenerates to
    /// `work_mem` exactly as before grants existed.
    pub mem: Arc<crate::memory::MemoryTracker>,
}

impl<'a> ExecCtx<'a> {
    pub fn new(db: &'a Database) -> ExecCtx<'a> {
        ExecCtx {
            db,
            cluster: &db.cluster,
            cte: FnvHashMap::default(),
            stats: ExecStats::default(),
            local_segment: None,
            cte_col: FnvHashMap::default(),
            recv_col: FnvHashMap::default(),
            abort: None,
            frag: None,
            profile_child_ns: 0,
            pool: None,
            mem: Arc::new(crate::memory::MemoryTracker::unbounded()),
        }
    }

    /// An empty batch shell of `width` columns, recycled from the shared
    /// pool when one is attached.
    pub(crate) fn take_shell(&self, width: usize) -> crate::columnar::ColumnBatch {
        match &self.pool {
            Some(p) => p.take(width),
            None => crate::columnar::ColumnBatch::new(width),
        }
    }

    /// A single-segment kernel context for one slice instance of a gang,
    /// run by [`crate::columnar::cexec`]; interconnect deliveries stay in
    /// batch form.
    pub fn for_segment_columnar(
        db: &'a Database,
        segment: usize,
        recv_col: FnvHashMap<usize, ColStream>,
        abort: Arc<AbortSignal>,
    ) -> ExecCtx<'a> {
        ExecCtx {
            local_segment: Some(segment),
            recv_col,
            abort: Some(abort),
            ..ExecCtx::new(db)
        }
    }

    /// Per-segment operator budget: the tighter of the cluster's
    /// `work_mem_bytes` and this query's per-segment memory grant.
    pub(crate) fn op_budget(&self) -> u64 {
        self.mem.operator_budget(self.cluster.work_mem_bytes)
    }

    /// Operator budget for state of `needed` bytes, renegotiating a
    /// degraded grant upward (once per query) the moment the state would
    /// not fit — i.e. immediately before the first spill. If the broker
    /// has bytes back in its pool, the spill may be avoided entirely.
    pub(crate) fn budget_for(&self, needed: u64) -> u64 {
        let budget = self.op_budget();
        if needed > budget && self.mem.try_regrant() {
            return self.op_budget();
        }
        budget
    }

    /// Record `bytes` of resident operator state: the stats high-water
    /// mark plus a bracketed reserve/release on the query tracker (and
    /// through it the process budget).
    pub(crate) fn note_state(&mut self, bytes: u64) {
        self.stats.peak_mem_bytes = self.stats.peak_mem_bytes.max(bytes);
        self.mem.reserve(bytes);
        self.mem.release(bytes);
    }

    /// Fold one spilling operator's counters into the run's stats.
    pub(crate) fn fold_spill(&mut self, m: &crate::spill::SpillMetrics) {
        self.stats.spill_partitions += m.partitions;
        self.stats.spill_bytes_written += m.bytes_written;
        self.stats.spill_bytes_read += m.bytes_read;
        self.note_state(m.peak_state_bytes);
    }

    /// Stream slots per `StreamSet` in this context (see struct docs).
    pub(crate) fn seg_slots(&self) -> usize {
        match self.local_segment {
            Some(_) => 1,
            None => self.cluster.num_segments,
        }
    }

    /// Physical storage segment behind stream slot `slot`.
    pub(crate) fn storage_segment(&self, slot: usize) -> usize {
        self.local_segment.unwrap_or(slot)
    }

    /// Per-slot view with exactly one copy of a (possibly replicated)
    /// stream: the serial convention keeps the surviving copy on the
    /// master segment, which single-segment mode must reproduce from the
    /// physical segment id rather than the slot index.
    fn one_copy_of(&self, s: &StreamSet) -> Vec<Vec<Row>> {
        if !s.replicated {
            return s.per_seg.clone();
        }
        match self.local_segment {
            None => s.one_copy(),
            Some(0) => vec![s.per_seg[0].clone()],
            Some(_) => vec![Vec::new()],
        }
    }

    /// Cooperative cancellation check, called once per operator.
    pub(crate) fn check_abort(&self) -> Result<()> {
        match &self.abort {
            Some(a) => a.check(),
            None => Ok(()),
        }
    }

    pub(crate) fn tup_time(&self, rows: usize) -> f64 {
        rows as f64 / self.cluster.tuples_per_sec
    }

    pub(crate) fn net_time(&self, bytes: f64) -> f64 {
        bytes / self.cluster.net_bytes_per_sec
    }
}

/// Operator name for the per-operator profile ([`ExecStats::ops`]).
pub fn op_name(op: &PhysicalOp) -> &'static str {
    match op {
        PhysicalOp::TableScan { .. } => "TableScan",
        PhysicalOp::IndexScan { .. } => "IndexScan",
        PhysicalOp::Filter { .. } => "Filter",
        PhysicalOp::Project { .. } => "Project",
        PhysicalOp::HashJoin { .. } => "HashJoin",
        PhysicalOp::NLJoin { .. } => "NLJoin",
        PhysicalOp::HashAgg { .. } => "HashAgg",
        PhysicalOp::StreamAgg { .. } => "StreamAgg",
        PhysicalOp::Sort { .. } => "Sort",
        PhysicalOp::Limit { .. } => "Limit",
        PhysicalOp::Motion {
            kind: MotionKind::Gather,
        } => "Motion(Gather)",
        PhysicalOp::Motion {
            kind: MotionKind::GatherMerge(_),
        } => "Motion(GatherMerge)",
        PhysicalOp::Motion {
            kind: MotionKind::Redistribute(_),
        } => "Motion(Redistribute)",
        PhysicalOp::Motion {
            kind: MotionKind::Broadcast,
        } => "Motion(Broadcast)",
        PhysicalOp::Spool => "Spool",
        PhysicalOp::Sequence { .. } => "Sequence",
        PhysicalOp::CteProducer { .. } => "CteProducer",
        PhysicalOp::CteScan { .. } => "CteScan",
        PhysicalOp::ConstTable { .. } => "ConstTable",
        PhysicalOp::AssertOneRow => "AssertOneRow",
        PhysicalOp::UnionAll { .. } => "UnionAll",
        PhysicalOp::HashSetOp { .. } => "HashSetOp",
        PhysicalOp::ExchangeRecv { .. } => "ExchangeRecv",
    }
}

/// Execute a plan, producing the output stream set.
///
/// Wraps the interpreter proper with per-operator profiling: each
/// operator's *exclusive* wall time is `total - nested`, where `nested`
/// is the time its children accumulated (snapshotted through
/// `ExecCtx::profile_child_ns`), so a plan's profile entries sum to
/// roughly the query's wall time instead of multiply counting parents.
pub fn exec(plan: &PhysicalPlan, ctx: &mut ExecCtx<'_>) -> Result<StreamSet> {
    let start = Instant::now();
    let snapshot = ctx.profile_child_ns;
    let result = exec_op(plan, ctx);
    let total = start.elapsed().as_nanos() as u64;
    let nested = ctx.profile_child_ns.saturating_sub(snapshot);
    ctx.profile_child_ns = snapshot + total;
    if let Ok(out) = &result {
        let p = ctx.stats.ops.entry(op_name(&plan.op)).or_default();
        p.rows += out.total_rows() as u64;
        p.batches += out.per_seg.iter().filter(|v| !v.is_empty()).count() as u64;
        p.ns += total.saturating_sub(nested);
    }
    result
}

fn exec_op(plan: &PhysicalPlan, ctx: &mut ExecCtx<'_>) -> Result<StreamSet> {
    ctx.check_abort()?;
    let n = ctx.cluster.num_segments;
    match &plan.op {
        PhysicalOp::TableScan { table, cols, parts } => {
            let t = ctx.db.table(table.mdid)?;
            let mut out = StreamSet::empty(cols.clone(), n);
            out.replicated = t.desc.distribution == orca_catalog::Distribution::Replicated;
            for s in 0..n {
                let rows = t.scan(s, parts);
                ctx.stats.rows_processed += rows.len() as u64;
                out.avail[s] = ctx.tup_time(rows.len());
                out.per_seg[s] = rows;
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
            let t = ctx.db.table(table.mdid)?;
            let order = orca_expr::OrderSpec::by(key_cols);
            let mut out = StreamSet::empty(cols.clone(), n);
            out.replicated = t.desc.distribution == orca_catalog::Distribution::Replicated;
            for s in 0..n {
                let mut rows = t.scan(s, parts);
                rows.sort_by(|a, b| compare_rows(a, b, &order, cols));
                ctx.stats.rows_processed += rows.len() as u64;
                // Ordered retrieval: random-access penalty, but no sort
                // charge (the order comes from the index structure).
                out.avail[s] = ctx.tup_time(rows.len()) * 1.6;
                out.per_seg[s] = rows;
            }
            Ok(out)
        }
        PhysicalOp::Filter { pred } => {
            let input = exec(&plan.children[0], ctx)?;
            apply_filter(input, pred, ctx)
        }
        PhysicalOp::Project { exprs } => {
            let input = exec(&plan.children[0], ctx)?;
            apply_project(input, exprs, ctx)
        }
        PhysicalOp::HashJoin {
            kind,
            left_keys,
            right_keys,
            residual,
        } => exec_hash_join(plan, ctx, *kind, left_keys, right_keys, residual.as_ref()),
        PhysicalOp::NLJoin { kind, pred } => exec_nl_join(plan, ctx, *kind, pred),
        PhysicalOp::HashAgg {
            group_cols,
            aggs,
            stage,
        } => exec_agg(plan, ctx, group_cols, aggs, *stage, false),
        PhysicalOp::StreamAgg {
            group_cols,
            aggs,
            stage,
        } => exec_agg(plan, ctx, group_cols, aggs, *stage, true),
        PhysicalOp::Sort { order } => {
            let input = exec(&plan.children[0], ctx)?;
            let mut out = StreamSet::empty(input.layout.clone(), n);
            out.replicated = input.replicated;
            for s in 0..n {
                let input_bytes: u64 = input.per_seg[s]
                    .iter()
                    .map(|r| r.iter().map(Datum::width).sum::<u64>())
                    .sum();
                let budget = ctx.budget_for(input_bytes);
                let mut spill_factor = 1.0;
                let rows;
                if input_bytes > budget && ctx.cluster.can_spill {
                    // External merge sort: budget-sized stable runs,
                    // k-way merged (≡ stable sort of the whole input).
                    ctx.stats.oom_risk_bytes = ctx.stats.oom_risk_bytes.max(input_bytes);
                    ctx.stats.spills += 1;
                    spill_factor = ctx.cluster.spill_penalty;
                    let (sorted, m) = crate::spill::external_sort(
                        input.per_seg[s].clone(),
                        order,
                        &input.layout,
                        budget,
                        ctx.cluster.batch_size,
                    )?;
                    ctx.fold_spill(&m);
                    rows = sorted;
                } else {
                    ctx.note_state(input_bytes);
                    let mut sorted = input.per_seg[s].clone();
                    sorted.sort_by(|a, b| compare_rows(a, b, order, &input.layout));
                    rows = sorted;
                }
                let len = rows.len() as f64;
                ctx.stats.rows_processed += rows.len() as u64;
                out.avail[s] = input.avail[s]
                    + ctx.tup_time(rows.len()) * (1.0 + len.max(2.0).log2() * 0.1) * spill_factor;
                out.per_seg[s] = rows;
            }
            Ok(out)
        }
        PhysicalOp::Limit { offset, count, .. } => {
            let input = exec(&plan.children[0], ctx)?;
            let mut out = StreamSet::empty(input.layout.clone(), n);
            // Singleton requirement means rows live on segment 0.
            debug_assert!(input.per_seg.iter().skip(1).all(Vec::is_empty));
            let rows: Vec<Row> = input.per_seg[0]
                .iter()
                .skip(*offset as usize)
                .take(count.map(|c| c as usize).unwrap_or(usize::MAX))
                .cloned()
                .collect();
            out.avail[0] = input.elapsed() + ctx.tup_time(rows.len());
            out.per_seg[0] = rows;
            Ok(out)
        }
        PhysicalOp::Motion { kind } => exec_motion(plan, ctx, kind),
        PhysicalOp::Spool => {
            let input = exec(&plan.children[0], ctx)?;
            let mut out = input.clone();
            for s in 0..n {
                out.avail[s] += ctx.tup_time(input.per_seg[s].len()) * 0.6;
            }
            Ok(out)
        }
        PhysicalOp::Sequence { .. } => {
            // Producer side materializes its CTE; consumer side reads it.
            exec(&plan.children[0], ctx)?;
            exec(&plan.children[1], ctx)
        }
        PhysicalOp::CteProducer { id, cols } => {
            let input = exec(&plan.children[0], ctx)?;
            let mut stored = input.clone();
            stored.layout = cols.clone();
            for s in 0..n {
                stored.avail[s] += ctx.tup_time(stored.per_seg[s].len()) * 0.6;
            }
            // Producer output layout must match its declared cols.
            if stored.layout.len() != input.layout.len() {
                return Err(OrcaError::Execution("CTE producer arity mismatch".into()));
            }
            // Reproject positionally: declared col i = input col i.
            ctx.cte.insert(*id, stored.clone());
            Ok(stored)
        }
        PhysicalOp::CteScan {
            id,
            cols,
            producer_cols,
        } => {
            let stash = ctx
                .cte
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
            let mut out = StreamSet::empty(cols.clone(), n);
            for s in 0..n {
                out.per_seg[s] = stash.per_seg[s]
                    .iter()
                    .map(|row| positions.iter().map(|&i| row[i].clone()).collect())
                    .collect();
                ctx.stats.rows_processed += out.per_seg[s].len() as u64;
                out.avail[s] = stash.avail[s] + ctx.tup_time(out.per_seg[s].len()) * 0.5;
            }
            Ok(out)
        }
        PhysicalOp::ConstTable { cols, rows } => {
            // Const rows live on the master by convention.
            let mut out = StreamSet::empty(cols.clone(), n);
            out.per_seg[0] = rows.clone();
            Ok(out)
        }
        PhysicalOp::AssertOneRow => {
            let input = exec(&plan.children[0], ctx)?;
            let mut out = StreamSet::empty(input.layout.clone(), n);
            let total = input.total_rows();
            if total > 1 {
                return Err(OrcaError::Execution(
                    "more than one row returned by a subquery used as an expression".into(),
                ));
            }
            if total == 0 {
                // SQL scalar-subquery semantics: empty → NULL row.
                out.per_seg[0] = vec![vec![Datum::Null; input.layout.len()]];
            } else {
                out.per_seg[0] = input.gathered();
            }
            out.avail[0] = input.elapsed();
            Ok(out)
        }
        PhysicalOp::UnionAll { output, input_cols } => {
            let mut out = StreamSet::empty(output.clone(), n);
            for (i, child) in plan.children.iter().enumerate() {
                let c = exec(child, ctx)?;
                let positions: Vec<usize> = input_cols[i]
                    .iter()
                    .map(|col| {
                        c.layout.iter().position(|x| x == col).ok_or_else(|| {
                            OrcaError::Execution(format!("union input missing {col}"))
                        })
                    })
                    .collect::<Result<_>>()?;
                for (s, seg_rows) in c.one_copy().iter().enumerate() {
                    for row in seg_rows {
                        out.per_seg[s].push(positions.iter().map(|&p| row[p].clone()).collect());
                    }
                    out.avail[s] =
                        out.avail[s].max(c.avail[s]) + ctx.tup_time(seg_rows.len()) * 0.2;
                }
            }
            Ok(out)
        }
        PhysicalOp::HashSetOp {
            kind,
            output,
            input_cols,
        } => exec_setop(plan, ctx, *kind, output, input_cols),
        // Slices run on the columnar kernel only; the row kernel runs
        // whole plans, which hold motions, never their receiving ends.
        PhysicalOp::ExchangeRecv { motion } => Err(OrcaError::Execution(format!(
            "motion {motion} received by the row kernel, which runs whole plans only"
        ))),
    }
}

/// Filter an already-executed stream. Shared with the columnar kernel's
/// subquery-predicate fallback, so the two kernels keep identical
/// per-row subplan accounting.
pub(crate) fn apply_filter(
    input: StreamSet,
    pred: &ScalarExpr,
    ctx: &mut ExecCtx<'_>,
) -> Result<StreamSet> {
    let n = input.per_seg.len();
    let env = Env::default();
    let has_subplan = pred.has_subquery();
    let mut out = StreamSet::empty(input.layout.clone(), n);
    out.replicated = input.replicated;
    for s in 0..n {
        let in_len = input.per_seg[s].len();
        let mut kept = Vec::new();
        let mut subplan_work = 0u64;
        for row in &input.per_seg[s] {
            let ok = if has_subplan {
                // Un-decorrelated predicate: execute the subquery
                // per row (the legacy Planner's SubPlan model).
                let mut rs = crate::reference::RefStats::default();
                let v = crate::reference::eval_scalar_with_subplans(
                    ctx.db,
                    pred,
                    &input.layout,
                    row,
                    &env,
                    &mut rs,
                )?;
                subplan_work += rs.rows_processed;
                v == Datum::Bool(true)
            } else {
                accepts(pred, &input.layout, row, &env)?
            };
            if ok {
                kept.push(row.clone());
            }
        }
        ctx.stats.rows_processed += in_len as u64 + subplan_work;
        out.avail[s] =
            input.avail[s] + ctx.tup_time(in_len) * 0.5 + ctx.tup_time(subplan_work as usize);
        out.per_seg[s] = kept;
    }
    Ok(out)
}

/// Project an already-executed stream (see [`apply_filter`] on sharing).
pub(crate) fn apply_project(
    input: StreamSet,
    exprs: &[(ColId, ScalarExpr)],
    ctx: &mut ExecCtx<'_>,
) -> Result<StreamSet> {
    let n = input.per_seg.len();
    let env = Env::default();
    let layout: Vec<ColId> = exprs.iter().map(|(c, _)| *c).collect();
    let has_subplan = exprs.iter().any(|(_, e)| e.has_subquery());
    let mut out = StreamSet::empty(layout, n);
    out.replicated = input.replicated;
    for s in 0..n {
        let mut rows = Vec::with_capacity(input.per_seg[s].len());
        let mut subplan_work = 0u64;
        for row in &input.per_seg[s] {
            let projected: Vec<Datum> = exprs
                .iter()
                .map(|(_, e)| {
                    if has_subplan && e.has_subquery() {
                        let mut rs = crate::reference::RefStats::default();
                        let v = crate::reference::eval_scalar_with_subplans(
                            ctx.db,
                            e,
                            &input.layout,
                            row,
                            &env,
                            &mut rs,
                        );
                        subplan_work += rs.rows_processed;
                        v
                    } else {
                        eval(e, &input.layout, row, &env)
                    }
                })
                .collect::<Result<_>>()?;
            rows.push(projected);
        }
        ctx.stats.rows_processed += rows.len() as u64 + subplan_work;
        out.avail[s] =
            input.avail[s] + ctx.tup_time(rows.len()) * 0.3 + ctx.tup_time(subplan_work as usize);
        out.per_seg[s] = rows;
    }
    Ok(out)
}

/// Fill `scratch` with the key columns of `row`. The scratch buffer is
/// reused across rows so hot loops (hash join build/probe, aggregation,
/// redistribution) don't allocate a fresh `Vec<Datum>` per row; an owned
/// key is cloned out only when a hash table actually inserts it.
fn fill_key(scratch: &mut Vec<Datum>, row: &Row, positions: &[usize]) {
    scratch.clear();
    scratch.extend(positions.iter().map(|&p| row[p].clone()));
}

pub(crate) fn key_positions(layout: &[ColId], keys: &[ColId]) -> Result<Vec<usize>> {
    keys.iter()
        .map(|k| {
            layout
                .iter()
                .position(|c| c == k)
                .ok_or_else(|| OrcaError::Execution(format!("key column {k} not in layout")))
        })
        .collect()
}

fn exec_hash_join(
    plan: &PhysicalPlan,
    ctx: &mut ExecCtx<'_>,
    kind: JoinKind,
    left_keys: &[ColId],
    right_keys: &[ColId],
    residual: Option<&ScalarExpr>,
) -> Result<StreamSet> {
    let n = ctx.cluster.num_segments;
    let left = exec(&plan.children[0], ctx)?;
    let right = exec(&plan.children[1], ctx)?;
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
    let mut out = StreamSet::empty(layout, n);
    out.replicated = left.replicated && right.replicated;
    for s in 0..n {
        // Build on the right side.
        let build_bytes: u64 = right.per_seg[s]
            .iter()
            .map(|r| r.iter().map(Datum::width).sum::<u64>())
            .sum();
        let budget = ctx.budget_for(build_bytes);
        let mut spill_factor = 1.0;
        let spilling = build_bytes > budget;
        if spilling {
            ctx.stats.oom_risk_bytes = ctx.stats.oom_risk_bytes.max(build_bytes);
            if !ctx.cluster.can_spill {
                // Backstop for bounds preflight could not prove; same
                // message as the columnar kernel's, compared in tests.
                return Err(OrcaError::OutOfMemory(format!(
                    "out of memory: hash join build of {build_bytes} bytes on segment {s}"
                )));
            }
            ctx.stats.spills += 1;
            spill_factor = ctx.cluster.spill_penalty;
        }
        let rows = if spilling {
            // Grace spill: partition the build side to disk, probe one
            // partition at a time, reassemble in probe order (see
            // [`crate::spill`] for the determinism argument).
            let (per_probe, m) = crate::spill::grace_hash_join(
                &right.per_seg[s],
                &left.per_seg[s],
                &lpos,
                &rpos,
                kind,
                residual,
                &combined_layout,
                right.layout.len(),
                &env,
                budget,
                ctx.cluster.batch_size,
            )?;
            ctx.fold_spill(&m);
            per_probe.into_iter().flatten().collect()
        } else {
            ctx.note_state(build_bytes);
            let mut table: FnvHashMap<Vec<Datum>, Vec<usize>> = FnvHashMap::default();
            let mut scratch: Vec<Datum> = Vec::with_capacity(rpos.len().max(lpos.len()));
            for (i, row) in right.per_seg[s].iter().enumerate() {
                fill_key(&mut scratch, row, &rpos);
                if scratch.iter().any(Datum::is_null) {
                    continue; // NULL keys never join.
                }
                match table.get_mut(scratch.as_slice()) {
                    Some(v) => v.push(i),
                    None => {
                        table.insert(scratch.clone(), vec![i]);
                    }
                }
            }
            let mut rows = Vec::new();
            for lrow in &left.per_seg[s] {
                fill_key(&mut scratch, lrow, &lpos);
                let candidates: &[usize] = if scratch.iter().any(Datum::is_null) {
                    &[]
                } else {
                    table
                        .get(scratch.as_slice())
                        .map(|v| v.as_slice())
                        .unwrap_or(&[])
                };
                let mut matched = false;
                for &ri in candidates {
                    let rrow = &right.per_seg[s][ri];
                    let joined: Row = lrow.iter().chain(rrow.iter()).cloned().collect();
                    let ok = match residual {
                        Some(res) => accepts(res, &combined_layout, &joined, &env)?,
                        None => true,
                    };
                    if !ok {
                        continue;
                    }
                    matched = true;
                    match kind {
                        JoinKind::Inner | JoinKind::LeftOuter => rows.push(joined),
                        JoinKind::LeftSemi => {
                            rows.push(lrow.clone());
                            break;
                        }
                        JoinKind::LeftAntiSemi => break,
                    }
                }
                if !matched {
                    match kind {
                        JoinKind::LeftOuter => {
                            let mut joined = lrow.clone();
                            joined.extend(vec![Datum::Null; right.layout.len()]);
                            rows.push(joined);
                        }
                        JoinKind::LeftAntiSemi => rows.push(lrow.clone()),
                        _ => {}
                    }
                }
            }
            rows
        };
        let build = right.per_seg[s].len();
        let probe = left.per_seg[s].len();
        ctx.stats.rows_processed += (build + probe) as u64;
        out.avail[s] = left.avail[s].max(right.avail[s])
            + (ctx.tup_time(build) * 1.8 + ctx.tup_time(probe)) * spill_factor;
        out.per_seg[s] = rows;
    }
    Ok(out)
}

fn exec_nl_join(
    plan: &PhysicalPlan,
    ctx: &mut ExecCtx<'_>,
    kind: JoinKind,
    pred: &ScalarExpr,
) -> Result<StreamSet> {
    let left = exec(&plan.children[0], ctx)?;
    let right = exec(&plan.children[1], ctx)?;
    apply_nl_join(left, right, kind, pred, ctx)
}

/// Join two already-executed streams with nested loops. Shared with the
/// columnar kernel, which keeps this operator on the row path (it is
/// inherently per-pair work with an arbitrary predicate).
pub(crate) fn apply_nl_join(
    left: StreamSet,
    right: StreamSet,
    kind: JoinKind,
    pred: &ScalarExpr,
    ctx: &mut ExecCtx<'_>,
) -> Result<StreamSet> {
    let n = left.per_seg.len();
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
    let mut out = StreamSet::empty(layout, n);
    out.replicated = left.replicated && right.replicated;
    for s in 0..n {
        // The inner side is materialized (rewindability): it must fit in
        // working memory, or spill.
        let inner_bytes: u64 = right.per_seg[s]
            .iter()
            .map(|r| r.iter().map(Datum::width).sum::<u64>())
            .sum();
        let mut spill_factor = 1.0;
        if inner_bytes > ctx.budget_for(inner_bytes) {
            ctx.stats.oom_risk_bytes = ctx.stats.oom_risk_bytes.max(inner_bytes);
            if !ctx.cluster.can_spill {
                return Err(OrcaError::OutOfMemory(format!(
                    "out of memory: nested-loops inner of {inner_bytes} bytes on segment {s}"
                )));
            }
            // The rewind-spill for a nested-loops inner stays simulated
            // (cost only): real spilling is implemented for the hash
            // operators and sort, which is where the planner sends
            // anything large.
            ctx.stats.spills += 1;
            spill_factor = ctx.cluster.spill_penalty;
        }
        let mut rows = Vec::new();
        for lrow in &left.per_seg[s] {
            let mut matched = false;
            for rrow in &right.per_seg[s] {
                let joined: Row = lrow.iter().chain(rrow.iter()).cloned().collect();
                if accepts(pred, &combined_layout, &joined, &env)? {
                    matched = true;
                    match kind {
                        JoinKind::Inner | JoinKind::LeftOuter => rows.push(joined),
                        JoinKind::LeftSemi => {
                            rows.push(lrow.clone());
                            break;
                        }
                        JoinKind::LeftAntiSemi => break,
                    }
                }
            }
            if !matched {
                match kind {
                    JoinKind::LeftOuter => {
                        let mut joined = lrow.clone();
                        joined.extend(vec![Datum::Null; right.layout.len()]);
                        rows.push(joined);
                    }
                    JoinKind::LeftAntiSemi => rows.push(lrow.clone()),
                    _ => {}
                }
            }
        }
        let pairs = left.per_seg[s].len() * right.per_seg[s].len();
        ctx.stats.rows_processed += pairs as u64;
        out.avail[s] =
            left.avail[s].max(right.avail[s]) + ctx.tup_time(pairs) * 0.35 * spill_factor;
        out.per_seg[s] = rows;
    }
    Ok(out)
}

fn exec_agg(
    plan: &PhysicalPlan,
    ctx: &mut ExecCtx<'_>,
    group_cols: &[ColId],
    aggs: &[(ColId, ScalarExpr)],
    stage: AggStage,
    stream: bool,
) -> Result<StreamSet> {
    let n = ctx.cluster.num_segments;
    let input = exec(&plan.children[0], ctx)?;
    let gpos = key_positions(&input.layout, group_cols)?;
    let env = Env::default();
    let mut layout = group_cols.to_vec();
    layout.extend(aggs.iter().map(|(c, _)| *c));
    let mut out = StreamSet::empty(layout, n);
    out.replicated = input.replicated;
    for s in 0..n {
        // Group state is bounded by the input (worst case: all keys
        // distinct), so the deterministic spill trigger is input bytes
        // over budget. Scalar aggregates hold O(1) state and never spill.
        let input_bytes: u64 = input.per_seg[s]
            .iter()
            .map(|r| r.iter().map(Datum::width).sum::<u64>())
            .sum();
        let budget = ctx.budget_for(input_bytes);
        let mut spill_factor = 1.0;
        let spilling = !gpos.is_empty() && input_bytes > budget && ctx.cluster.can_spill;
        let mut rows: Vec<Row>;
        if spilling {
            ctx.stats.oom_risk_bytes = ctx.stats.oom_risk_bytes.max(input_bytes);
            ctx.stats.spills += 1;
            spill_factor = ctx.cluster.spill_penalty;
            let (collected, m) = crate::spill::grace_hash_agg(
                &input.per_seg[s],
                &gpos,
                aggs,
                &input.layout,
                &env,
                budget,
                ctx.cluster.batch_size,
            )?;
            ctx.fold_spill(&m);
            rows = Vec::with_capacity(collected.len());
            for (key, accs) in &collected {
                let mut row = key.clone();
                row.extend(accs.iter().map(AggAccumulator::finish));
                rows.push(row);
            }
        } else {
            // Scalar aggregates hold O(1) accumulator state, not input.
            ctx.note_state(if gpos.is_empty() { 0 } else { input_bytes });
            // Hash grouping (stream aggregation produces identical
            // results; the cost difference is modelled in the time term).
            let mut groups: FnvHashMap<Vec<Datum>, Vec<AggAccumulator>> = FnvHashMap::default();
            let mut order: Vec<Vec<Datum>> = Vec::new();
            let mut scratch: Vec<Datum> = Vec::with_capacity(gpos.len());
            for row in &input.per_seg[s] {
                fill_key(&mut scratch, row, &gpos);
                let accs = match groups.get_mut(scratch.as_slice()) {
                    Some(a) => a,
                    None => {
                        let key = scratch.clone();
                        order.push(key.clone());
                        groups.entry(key).or_insert(
                            aggs.iter()
                                .map(|(_, e)| AggAccumulator::from_expr(e))
                                .collect::<Result<_>>()?,
                        )
                    }
                };
                for acc in accs.iter_mut() {
                    acc.update(&input.layout, row, &env)?;
                }
            }
            rows = Vec::with_capacity(order.len());
            for key in &order {
                let accs = &groups[key];
                let mut row = key.clone();
                row.extend(accs.iter().map(AggAccumulator::finish));
                rows.push(row);
            }
        }
        // Scalar aggregates must emit a row even on empty input: on every
        // segment for Local stage (partials), on the master otherwise.
        if group_cols.is_empty() && rows.is_empty() {
            let emit_here = match stage {
                AggStage::Local => true,
                _ => s == 0,
            };
            if emit_here {
                let accs: Vec<AggAccumulator> = aggs
                    .iter()
                    .map(|(_, e)| AggAccumulator::from_expr(e))
                    .collect::<Result<_>>()?;
                rows.push(accs.iter().map(AggAccumulator::finish).collect());
            }
        }
        let in_len = input.per_seg[s].len();
        ctx.stats.rows_processed += in_len as u64;
        let factor = if stream { 0.6 } else { 1.1 };
        out.avail[s] = input.avail[s] + ctx.tup_time(in_len) * factor * spill_factor;
        out.per_seg[s] = rows;
    }
    Ok(out)
}

/// One distinct copy of a stream's bytes: a replicated input holds `n`
/// identical copies, of which a motion reads (and ships) exactly one.
/// Shared by every motion kind so replicated inputs are accounted the
/// same way under Gather, Redistribute, and Broadcast.
fn distinct_bytes(input: &StreamSet, n: usize) -> f64 {
    if input.replicated {
        input.bytes() / n as f64
    } else {
        input.bytes()
    }
}

fn exec_motion(plan: &PhysicalPlan, ctx: &mut ExecCtx<'_>, kind: &MotionKind) -> Result<StreamSet> {
    let n = ctx.cluster.num_segments;
    let input = exec(&plan.children[0], ctx)?;
    let bytes = distinct_bytes(&input, n);
    let mut out = StreamSet::empty(input.layout.clone(), n);
    match kind {
        MotionKind::Gather => {
            out.per_seg[0] = input.gathered();
            ctx.stats.bytes_moved += bytes as u64;
            out.avail[0] = input.elapsed() + ctx.net_time(bytes);
        }
        MotionKind::GatherMerge(order) => {
            // Inputs are per-segment sorted: a true streaming k-way merge,
            // tie-breaking on the lowest source segment so the output is
            // byte-identical to a stable sort of the gathered stream.
            let sources: Vec<VecSource> =
                input.one_copy().into_iter().map(VecSource::new).collect();
            let rows = kway_merge(sources, order, &input.layout)?;
            let len = rows.len();
            out.per_seg[0] = rows;
            ctx.stats.bytes_moved += bytes as u64;
            out.avail[0] = input.elapsed() + ctx.net_time(bytes) * 1.15 + ctx.tup_time(len) * 0.2;
        }
        MotionKind::Redistribute(cols) => {
            let pos = key_positions(&input.layout, cols)?;
            let base = input.elapsed();
            let mut scratch: Vec<Datum> = Vec::with_capacity(pos.len());
            for seg_rows in &input.one_copy() {
                for row in seg_rows {
                    fill_key(&mut scratch, row, &pos);
                    let dest = segment_for_key(&scratch, n);
                    out.per_seg[dest].push(row.clone());
                }
            }
            ctx.stats.bytes_moved += bytes as u64;
            for s in 0..n {
                out.avail[s] = base + ctx.net_time(bytes) / n as f64;
            }
        }
        MotionKind::Broadcast => {
            let all = input.gathered();
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

fn exec_setop(
    plan: &PhysicalPlan,
    ctx: &mut ExecCtx<'_>,
    kind: SetOpKind,
    output: &[ColId],
    input_cols: &[Vec<ColId>],
) -> Result<StreamSet> {
    let mut children: Vec<StreamSet> = Vec::with_capacity(plan.children.len());
    for child in &plan.children {
        children.push(exec(child, ctx)?);
    }
    apply_setop(children, ctx, kind, output, input_cols)
}

/// Set operation over already-executed children. Shared with the columnar
/// kernel, which keeps set-ops on the row path (rare, dedup-heavy).
pub(crate) fn apply_setop(
    children: Vec<StreamSet>,
    ctx: &mut ExecCtx<'_>,
    kind: SetOpKind,
    output: &[ColId],
    input_cols: &[Vec<ColId>],
) -> Result<StreamSet> {
    let n = ctx.seg_slots();
    let mut aligned: Vec<StreamSet> = Vec::with_capacity(children.len());
    for (i, c) in children.into_iter().enumerate() {
        let positions: Vec<usize> = input_cols[i]
            .iter()
            .map(|col| {
                c.layout
                    .iter()
                    .position(|x| x == col)
                    .ok_or_else(|| OrcaError::Execution(format!("setop input missing {col}")))
            })
            .collect::<Result<_>>()?;
        let copies = ctx.one_copy_of(&c);
        let mut a = StreamSet::empty(output.to_vec(), n);
        for (s, seg_rows) in copies.iter().enumerate() {
            a.per_seg[s] = seg_rows
                .iter()
                .map(|row| positions.iter().map(|&p| row[p].clone()).collect())
                .collect();
            a.avail[s] = c.avail[s];
        }
        aligned.push(a);
    }
    let mut out = StreamSet::empty(output.to_vec(), n);
    for s in 0..n {
        let mut result: Vec<Row> = dedup_rows(&aligned[0].per_seg[s]);
        for other in &aligned[1..] {
            let other_set = dedup_rows(&other.per_seg[s]);
            result = match kind {
                SetOpKind::Union | SetOpKind::UnionAll => {
                    let mut r = result;
                    for row in other_set {
                        if !r.contains(&row) {
                            r.push(row);
                        }
                    }
                    r
                }
                SetOpKind::Intersect => result
                    .into_iter()
                    .filter(|row| other_set.contains(row))
                    .collect(),
                SetOpKind::Except => result
                    .into_iter()
                    .filter(|row| !other_set.contains(row))
                    .collect(),
            };
        }
        let in_rows: usize = aligned.iter().map(|a| a.per_seg[s].len()).sum();
        ctx.stats.rows_processed += in_rows as u64;
        out.avail[s] =
            aligned.iter().map(|a| a.avail[s]).fold(0.0, f64::max) + ctx.tup_time(in_rows) * 1.8;
        out.per_seg[s] = result;
    }
    Ok(out)
}

fn dedup_rows(rows: &[Row]) -> Vec<Row> {
    let mut seen: FnvHashMap<Vec<Datum>, ()> = FnvHashMap::default();
    let mut out = Vec::new();
    for r in rows {
        if seen.insert(r.clone(), ()).is_none() {
            out.push(r.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{sort_rows, ExecEngine};
    use crate::reference::run_reference;
    use crate::storage::Database;
    use orca_catalog::{ColumnMeta, Distribution, TableDesc};
    use orca_common::{DataType, MdId, SysId};
    use orca_expr::logical::{LogicalExpr, LogicalOp, TableRef};
    use orca_expr::props::OrderSpec;
    use orca_expr::scalar::{AggFunc, CmpOp};

    fn db() -> (Database, TableRef, TableRef) {
        let mut db = Database::new(orca_common::SegmentConfig::default().with_segments(4));
        let t1 = std::sync::Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, 1, 1),
            "t1",
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Hashed(vec![0]),
        ));
        let t2 = std::sync::Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, 2, 1),
            "t2",
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Hashed(vec![0]),
        ));
        let rows1: Vec<Row> = (0..100)
            .map(|i| vec![Datum::Int(i % 20), Datum::Int(i)])
            .collect();
        let rows2: Vec<Row> = (0..40)
            .map(|i| vec![Datum::Int(i), Datum::Int(i % 20)])
            .collect();
        db.load_table(t1.clone(), rows1).unwrap();
        db.load_table(t2.clone(), rows2).unwrap();
        (db, TableRef(t1), TableRef(t2))
    }

    fn scan(t: &TableRef, first: u32) -> PhysicalPlan {
        PhysicalPlan::leaf(PhysicalOp::TableScan {
            table: t.clone(),
            cols: vec![ColId(first), ColId(first + 1)],
            parts: None,
        })
    }

    /// The paper's running-example plan (Figure 6): T1 join T2 on
    /// T1.a = T2.b, T2 redistributed on b, sorted and gather-merged.
    #[test]
    fn figure6_plan_matches_reference() {
        let (db, t1, t2) = db();
        let join = PhysicalPlan::new(
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
        );
        let plan = PhysicalPlan::new(
            PhysicalOp::Motion {
                kind: MotionKind::GatherMerge(orca_expr::OrderSpec::by(&[ColId(0)])),
            },
            vec![PhysicalPlan::new(
                PhysicalOp::Sort {
                    order: orca_expr::OrderSpec::by(&[ColId(0)]),
                },
                vec![join],
            )],
        );
        let engine = ExecEngine::new(&db);
        let got = engine.run(&plan, &[ColId(0)]).unwrap();
        // Reference: logical join, same output.
        let logical = LogicalExpr::new(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                pred: ScalarExpr::col_eq_col(ColId(0), ColId(3)),
            },
            vec![
                LogicalExpr::leaf(LogicalOp::Get {
                    table: t1,
                    cols: vec![ColId(0), ColId(1)],
                    parts: None,
                }),
                LogicalExpr::leaf(LogicalOp::Get {
                    table: t2,
                    cols: vec![ColId(2), ColId(3)],
                    parts: None,
                }),
            ],
        );
        let expected = run_reference(&db, &logical, &[ColId(0)]).unwrap();
        assert_eq!(got.rows.len(), expected.len());
        assert_eq!(sort_rows(got.rows.clone()), sort_rows(expected));
        // GatherMerge delivered sorted output.
        let keys: Vec<i64> = got.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(got.sim_seconds > 0.0);
        assert!(got.stats.bytes_moved > 0);
    }

    /// Broadcast-inner join gives identical results to redistribution.
    #[test]
    fn broadcast_join_equivalent() {
        let (db, t1, t2) = db();
        let mk = |inner_motion: MotionKind| {
            PhysicalPlan::new(
                PhysicalOp::Motion {
                    kind: MotionKind::Gather,
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
                            PhysicalOp::Motion { kind: inner_motion },
                            vec![scan(&t2, 2)],
                        ),
                    ],
                )],
            )
        };
        let engine = ExecEngine::new(&db);
        let a = engine
            .run(
                &mk(MotionKind::Redistribute(vec![ColId(3)])),
                &[ColId(0), ColId(2)],
            )
            .unwrap();
        let b = engine
            .run(&mk(MotionKind::Broadcast), &[ColId(0), ColId(2)])
            .unwrap();
        assert_eq!(sort_rows(a.rows), sort_rows(b.rows));
        assert!(
            b.stats.bytes_moved > a.stats.bytes_moved,
            "broadcast ships more"
        );
    }

    /// Split (two-stage) aggregation equals single-stage aggregation.
    #[test]
    fn two_stage_agg_equals_single_stage() {
        let (db, t1, _) = db();
        let engine = ExecEngine::new(&db);
        let agg =
            |stage: AggStage, in_col: ColId, out_col: ColId, func: AggFunc, child: PhysicalPlan| {
                PhysicalPlan::new(
                    PhysicalOp::HashAgg {
                        group_cols: vec![ColId(0)],
                        aggs: vec![(
                            out_col,
                            ScalarExpr::Agg {
                                func,
                                arg: Some(Box::new(ScalarExpr::ColRef(in_col))),
                                distinct: false,
                            },
                        )],
                        stage,
                    },
                    vec![child],
                )
            };
        // Single stage: child already hashed on c0 (t1 is hashed on a).
        let single = PhysicalPlan::new(
            PhysicalOp::Motion {
                kind: MotionKind::Gather,
            },
            vec![agg(
                AggStage::Single,
                ColId(1),
                ColId(10),
                AggFunc::Sum,
                scan(&t1, 0),
            )],
        );
        // Two stages with a redistribution between them (Local over a
        // random redistribution to force partial groups).
        let local = agg(
            AggStage::Local,
            ColId(1),
            ColId(11),
            AggFunc::Sum,
            PhysicalPlan::new(
                PhysicalOp::Motion {
                    kind: MotionKind::Redistribute(vec![ColId(1)]),
                },
                vec![scan(&t1, 0)],
            ),
        );
        let global = agg(
            AggStage::Global,
            ColId(11),
            ColId(10),
            AggFunc::Sum,
            PhysicalPlan::new(
                PhysicalOp::Motion {
                    kind: MotionKind::Redistribute(vec![ColId(0)]),
                },
                vec![local],
            ),
        );
        let split = PhysicalPlan::new(
            PhysicalOp::Motion {
                kind: MotionKind::Gather,
            },
            vec![global],
        );
        let a = engine.run(&single, &[ColId(0), ColId(10)]).unwrap();
        let b = engine.run(&split, &[ColId(0), ColId(10)]).unwrap();
        assert_eq!(sort_rows(a.rows), sort_rows(b.rows));
    }

    /// Scalar count(*) over an empty filter result returns 0, including
    /// via the split-agg path.
    #[test]
    fn scalar_count_on_empty_input() {
        let (db, t1, _) = db();
        let engine = ExecEngine::new(&db);
        let empty = PhysicalPlan::new(
            PhysicalOp::Filter {
                pred: ScalarExpr::cmp(
                    CmpOp::Gt,
                    ScalarExpr::col(ColId(1)),
                    ScalarExpr::int(1_000_000),
                ),
            },
            vec![scan(&t1, 0)],
        );
        let count = ScalarExpr::Agg {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        };
        let local = PhysicalPlan::new(
            PhysicalOp::HashAgg {
                group_cols: vec![],
                aggs: vec![(ColId(20), count.clone())],
                stage: AggStage::Local,
            },
            vec![empty],
        );
        let global = PhysicalPlan::new(
            PhysicalOp::HashAgg {
                group_cols: vec![],
                aggs: vec![(
                    ColId(21),
                    ScalarExpr::Agg {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(ScalarExpr::col(ColId(20)))),
                        distinct: false,
                    },
                )],
                stage: AggStage::Global,
            },
            vec![PhysicalPlan::new(
                PhysicalOp::Motion {
                    kind: MotionKind::Gather,
                },
                vec![local],
            )],
        );
        let got = engine.run(&global, &[ColId(21)]).unwrap();
        assert_eq!(got.rows, vec![vec![Datum::Int(0)]]);
    }

    /// OOM surfaces when spilling is disabled and the build side exceeds
    /// work_mem (§7.3.2's Hadoop-engine failure mode).
    #[test]
    fn hash_join_oom_without_spill() {
        let (mut db_ok, t1, t2) = db();
        db_ok.cluster.work_mem_bytes = 64; // tiny
        db_ok.cluster.can_spill = false;
        let join = PhysicalPlan::new(
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
        );
        let engine = ExecEngine::new(&db_ok);
        let err = engine.run(&join, &[ColId(0)]).unwrap_err();
        assert_eq!(err.kind(), "oom");
        assert!(err.message().contains("out of memory"), "{err}");
        // With spilling enabled the same plan succeeds (slower).
        let mut db_spill = db_ok.clone();
        db_spill.cluster.can_spill = true;
        let engine2 = ExecEngine::new(&db_spill);
        let ok = engine2.run(&join, &[ColId(0)]).unwrap();
        assert!(ok.stats.spills > 0);
    }

    /// Semi/anti joins and outer joins against the reference interpreter.
    #[test]
    fn join_kinds_match_reference() {
        let (db, t1, t2) = db();
        let engine = ExecEngine::new(&db);
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::LeftSemi,
            JoinKind::LeftAntiSemi,
        ] {
            let out_cols = vec![ColId(0), ColId(1)];
            let plan = PhysicalPlan::new(
                PhysicalOp::Motion {
                    kind: MotionKind::Gather,
                },
                vec![PhysicalPlan::new(
                    PhysicalOp::HashJoin {
                        kind,
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
                )],
            );
            let got = engine.run(&plan, &out_cols).unwrap();
            let logical = LogicalExpr::new(
                LogicalOp::Join {
                    kind,
                    pred: ScalarExpr::col_eq_col(ColId(0), ColId(3)),
                },
                vec![
                    LogicalExpr::leaf(LogicalOp::Get {
                        table: t1.clone(),
                        cols: vec![ColId(0), ColId(1)],
                        parts: None,
                    }),
                    LogicalExpr::leaf(LogicalOp::Get {
                        table: t2.clone(),
                        cols: vec![ColId(2), ColId(3)],
                        parts: None,
                    }),
                ],
            );
            let expected = run_reference(&db, &logical, &out_cols).unwrap();
            assert_eq!(
                sort_rows(got.rows),
                sort_rows(expected),
                "join kind {kind:?} diverged"
            );
        }
    }

    /// Limit + order through the physical pipeline.
    #[test]
    fn sort_limit_pipeline() {
        let (db, t1, _) = db();
        let engine = ExecEngine::new(&db);
        let plan = PhysicalPlan::new(
            PhysicalOp::Limit {
                order: OrderSpec::by(&[ColId(1)]),
                offset: 2,
                count: Some(3),
            },
            vec![PhysicalPlan::new(
                PhysicalOp::Sort {
                    order: OrderSpec::by(&[ColId(1)]),
                },
                vec![PhysicalPlan::new(
                    PhysicalOp::Motion {
                        kind: MotionKind::Gather,
                    },
                    vec![scan(&t1, 0)],
                )],
            )],
        );
        let got = engine.run(&plan, &[ColId(1)]).unwrap();
        let vals: Vec<i64> = got.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(vals, vec![2, 3, 4]);
    }

    /// CTE producer/consumer sharing: two consumers see the same rows.
    #[test]
    fn cte_sequence_shares_producer() {
        let (db, t1, _) = db();
        let engine = ExecEngine::new(&db);
        let cte = orca_common::CteId(1);
        let producer = PhysicalPlan::new(
            PhysicalOp::CteProducer {
                id: cte,
                cols: vec![ColId(0), ColId(1)],
            },
            vec![scan(&t1, 0)],
        );
        let consumer = |first: u32| {
            PhysicalPlan::leaf(PhysicalOp::CteScan {
                id: cte,
                cols: vec![ColId(first), ColId(first + 1)],
                producer_cols: vec![ColId(0), ColId(1)],
            })
        };
        // Join the CTE with itself on c20 = c30 (same key column).
        let join = PhysicalPlan::new(
            PhysicalOp::HashJoin {
                kind: JoinKind::Inner,
                left_keys: vec![ColId(20)],
                right_keys: vec![ColId(30)],
                residual: None,
            },
            vec![consumer(20), consumer(30)],
        );
        let plan = PhysicalPlan::new(
            PhysicalOp::Motion {
                kind: MotionKind::Gather,
            },
            vec![PhysicalPlan::new(
                PhysicalOp::Sequence { id: cte },
                vec![producer, join],
            )],
        );
        let got = engine.run(&plan, &[ColId(20), ColId(31)]).unwrap();
        // Self-join on a 20-value key over 100 rows: 100*5 matches per key
        // group → 500 rows (co-located because CTE rows stay in place and
        // both consumers read the same placement).
        assert_eq!(got.rows.len(), 500);
    }
}
