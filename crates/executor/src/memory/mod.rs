//! Memory governance: per-query grants and preflight.
//!
//! Orca (§2.1) targets MPP engines whose operators run under fixed
//! per-segment memory budgets. This module makes `work_mem_bytes` a real
//! constraint instead of cost-model fiction:
//!
//! * [`MemoryTracker`] — one per query, shared by every gang worker of
//!   a parallel run. Carries the query's grant: the effective operator
//!   budget is `min(work_mem_bytes, grant / segments)`, so a degraded
//!   (smaller) grant from the broker forces earlier spilling without
//!   touching cluster config. It also carries the process-wide
//!   [`MemTracker`] that operator state peaks, cached fragments
//!   ([`crate::sharing`]) and parallel CTE spools ([`crate::parallel`])
//!   are counted in. Counting never blocks and never fails: admission
//!   happens before a query starts (the service's grant broker), not in
//!   the middle of an operator, which keeps the executor deadlock-free
//!   by construction.
//! * [`preflight`] — a plan walk that raises a typed
//!   [`OrcaError::OutOfMemory`] *before* execution starts when a
//!   hash/NL-join build side provably cannot fit and the engine cannot
//!   spill, replacing the old mid-query `Execution` abort for every
//!   provable case.

use orca_common::{OrcaError, Result};
use orca_expr::physical::{MotionKind, PhysicalOp, PhysicalPlan};
use orca_gpos::MemTracker;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A one-shot renegotiation callback installed by the grant broker: it
/// grows the query's grant cell and returns the new *total* grant in
/// bytes, or 0 when the pool had nothing to give.
pub type RegrantFn = Box<dyn Fn() -> u64 + Send + Sync>;

/// Per-query grant accounting, shared (via `Arc`) by every kernel
/// instance of one query — the serial interpreter or all gang workers
/// of a parallel run.
#[derive(Default)]
pub struct MemoryTracker {
    /// The query's total grant in bytes, one cell shared with the
    /// broker's grant (a renegotiation grows it under every gang
    /// worker's feet); `None` = ungoverned (operator budget falls back to
    /// `work_mem_bytes` alone).
    grant: Option<Arc<AtomicU64>>,
    num_segments: usize,
    /// The process-wide executor-memory counter, if any.
    process: Option<Arc<MemTracker>>,
    /// One-shot upward renegotiation of a degraded grant, consumed at
    /// the first would-spill moment (see [`MemoryTracker::try_regrant`]).
    regrant: Mutex<Option<RegrantFn>>,
}

impl std::fmt::Debug for MemoryTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryTracker")
            .field("grant", &self.grant)
            .field("num_segments", &self.num_segments)
            .finish_non_exhaustive()
    }
}

impl MemoryTracker {
    /// Ungoverned tracker: no grant ceiling, no process counter.
    pub fn unbounded() -> MemoryTracker {
        MemoryTracker::default()
    }

    /// Tracker for a brokered grant, whose current size lives in
    /// `grant`, split evenly across `num_segments`, counting into
    /// `process`.
    pub fn granted(
        grant: Arc<AtomicU64>,
        num_segments: usize,
        process: Option<Arc<MemTracker>>,
    ) -> MemoryTracker {
        MemoryTracker {
            grant: Some(grant),
            num_segments,
            process,
            ..MemoryTracker::default()
        }
    }

    /// The per-segment operator budget: the tighter of the cluster's
    /// `work_mem_bytes` and this query's per-segment grant. A degraded
    /// grant lowers this below `work_mem`, forcing operators to spill
    /// earlier — the broker's "smaller grant ⇒ forced spill" ladder.
    pub fn operator_budget(&self, work_mem_bytes: u64) -> u64 {
        match &self.grant {
            Some(g) => {
                let per_seg = g.load(Ordering::Relaxed) / self.num_segments.max(1) as u64;
                per_seg.max(1).min(work_mem_bytes)
            }
            None => work_mem_bytes,
        }
    }

    /// Install the degraded grant's one-shot renegotiation callback.
    pub fn set_regrant(&self, hook: RegrantFn) {
        *self.regrant.lock().expect("regrant lock poisoned") = Some(hook);
    }

    /// Renegotiate the grant upward, once, at the first would-spill
    /// moment. Consumes the hook whatever the outcome — a second spill
    /// site must not retry a pool that already said no. Returns `true`
    /// when the grant actually grew (the caller should re-read its
    /// operator budget and may be able to skip the spill).
    pub fn try_regrant(&self) -> bool {
        let hook = self.regrant.lock().expect("regrant lock poisoned").take();
        hook.is_some_and(|hook| hook() != 0)
    }

    /// The process-wide counter this query's memory is counted in, if any.
    pub fn process(&self) -> Option<&Arc<MemTracker>> {
        self.process.as_ref()
    }
}

/// Provable per-segment byte lower bounds of a subtree's output.
///
/// Only subtrees whose output is fully determined by storage are bounded
/// (scans, and motions of bounded inputs); anything that can *reduce*
/// rows (filters, projections that narrow widths, aggregates, joins,
/// limits) bounds to zero so preflight never rejects a query that would
/// have fit at runtime.
struct Bound {
    per_seg: Vec<u64>,
    /// Every slot holds an identical full copy (replicated table or
    /// broadcast result); a motion of such a stream ships one copy.
    replicated: bool,
}

impl Bound {
    fn zero(n: usize) -> Bound {
        Bound {
            per_seg: vec![0; n],
            replicated: false,
        }
    }

    /// Bytes of one distinct copy of the stream.
    fn distinct_total(&self) -> u64 {
        if self.replicated {
            self.per_seg.first().copied().unwrap_or(0)
        } else {
            self.per_seg.iter().sum()
        }
    }
}

fn bound_of(plan: &PhysicalPlan, db: &crate::storage::Database, n: usize) -> Bound {
    match &plan.op {
        PhysicalOp::TableScan { table, parts, .. } | PhysicalOp::IndexScan { table, parts, .. } => {
            let Ok(t) = db.table(table.mdid) else {
                return Bound::zero(n);
            };
            let per_seg: Vec<u64> = (0..n)
                .map(|s| {
                    t.scan(s, parts)
                        .iter()
                        .map(|r| r.iter().map(orca_common::Datum::width).sum::<u64>())
                        .sum()
                })
                .collect();
            let replicated = t.desc.distribution == orca_catalog::Distribution::Replicated;
            Bound {
                per_seg,
                replicated,
            }
        }
        PhysicalOp::Motion { kind } => {
            let child = bound_of(&plan.children[0], db, n);
            let total = child.distinct_total();
            match kind {
                MotionKind::Gather | MotionKind::GatherMerge(_) => {
                    let mut per_seg = vec![0; n];
                    per_seg[0] = total;
                    Bound {
                        per_seg,
                        replicated: false,
                    }
                }
                MotionKind::Broadcast => Bound {
                    per_seg: vec![total; n],
                    replicated: true,
                },
                // A redistribute conserves total bytes but the per-segment
                // placement depends on key hashes; no provable per-segment
                // lower bound without evaluating them.
                MotionKind::Redistribute(_) => Bound::zero(n),
            }
        }
        // Row-preserving pass-throughs.
        PhysicalOp::Sort { .. } | PhysicalOp::Spool | PhysicalOp::CteProducer { .. } => {
            bound_of(&plan.children[0], db, n)
        }
        PhysicalOp::UnionAll { .. } => {
            let mut per_seg = vec![0u64; n];
            for c in &plan.children {
                let b = bound_of(c, db, n);
                for (s, v) in b.per_seg.iter().enumerate() {
                    per_seg[s] += v;
                }
            }
            Bound {
                per_seg,
                replicated: false,
            }
        }
        // Everything else can reduce rows or rewrite widths: unprovable.
        _ => Bound::zero(n),
    }
}

/// Walk `plan` and raise [`OrcaError::OutOfMemory`] for the first join
/// whose materialized build/inner side provably exceeds `budget` bytes
/// on some segment. Callers invoke this only when the engine cannot
/// spill (`can_spill == false`): with spilling available no bound is
/// fatal, and the walk (which scans storage to compute exact bounds) is
/// skipped entirely on the normal path.
pub fn preflight(plan: &PhysicalPlan, db: &crate::storage::Database, budget: u64) -> Result<()> {
    let n = db.num_segments();
    for child in &plan.children {
        preflight(child, db, budget)?;
    }
    let build_side = match &plan.op {
        PhysicalOp::HashJoin { .. } => Some(("hash join build", &plan.children[1])),
        PhysicalOp::NLJoin { .. } => Some(("nested-loops inner", &plan.children[1])),
        _ => None,
    };
    if let Some((what, side)) = build_side {
        let bound = bound_of(side, db, n);
        for (s, &bytes) in bound.per_seg.iter().enumerate() {
            if bytes > budget {
                return Err(OrcaError::OutOfMemory(format!(
                    "out of memory: {what} of {bytes} bytes on segment {s} \
                     exceeds the {budget}-byte grant and spilling is disabled"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(bytes: u64) -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(bytes))
    }

    #[test]
    fn tracker_grant_tightens_operator_budget() {
        let t = MemoryTracker::unbounded();
        assert_eq!(t.operator_budget(1 << 20), 1 << 20);
        let process = Arc::new(MemTracker::new());
        let t = MemoryTracker::granted(cell(8 << 10), 8, Some(Arc::clone(&process)));
        // 8 KiB over 8 segments = 1 KiB per segment, tighter than work_mem.
        assert_eq!(t.operator_budget(1 << 20), 1 << 10);
        // Transient operator state raises the process peak, not its
        // current use.
        t.process().unwrap().note_peak(512);
        assert_eq!(process.current(), 0);
        assert_eq!(process.peak(), 512);
    }

    #[test]
    fn regrant_is_one_shot_and_raises_the_operator_budget() {
        let grant = cell(8 << 10);
        let t = MemoryTracker::granted(Arc::clone(&grant), 8, None);
        assert_eq!(t.operator_budget(1 << 20), 1 << 10);
        // No hook installed: nothing to renegotiate.
        assert!(!t.try_regrant());
        let calls = Arc::new(AtomicU64::new(0));
        let (c, g) = (Arc::clone(&calls), Arc::clone(&grant));
        t.set_regrant(Box::new(move || {
            c.fetch_add(1, Ordering::Relaxed);
            // The broker grows the shared grant cell.
            g.store(64 << 10, Ordering::Relaxed);
            64 << 10
        }));
        assert!(t.try_regrant());
        assert_eq!(grant.load(Ordering::Relaxed), 64 << 10);
        assert_eq!(t.operator_budget(1 << 20), 8 << 10);
        // The hook is consumed: a second would-spill site gets nothing.
        assert!(!t.try_regrant());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn failed_regrant_leaves_the_grant_alone() {
        let grant = cell(8 << 10);
        let t = MemoryTracker::granted(Arc::clone(&grant), 8, None);
        t.set_regrant(Box::new(|| 0));
        assert!(!t.try_regrant());
        assert_eq!(grant.load(Ordering::Relaxed), 8 << 10);
        assert!(!t.try_regrant(), "hook consumed even on failure");
    }
}
