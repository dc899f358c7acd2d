//! Public execution entry point.

use crate::columnar::{cexec, ColStream};
use crate::exec::{exec, ExecCtx};
use crate::storage::{Database, Row};
use orca_common::{ColId, OrcaError, Result};
use orca_expr::physical::PhysicalPlan;

pub use crate::exec::ExecStats;

/// Result of executing one plan.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Final rows, projected to the requested output columns, in stream
    /// order (sorted iff the plan enforced an order).
    pub rows: Vec<Row>,
    /// Deterministic simulated cluster time (seconds) — max over segments
    /// of per-segment work plus interconnect transfers.
    pub sim_seconds: f64,
    pub stats: ExecStats,
}

/// Executes physical plans against a loaded [`Database`].
pub struct ExecEngine<'a> {
    pub db: &'a Database,
    /// Cross-query fragment cache to attach to every run ([`crate::sharing`]).
    pub fragments: Option<std::sync::Arc<crate::sharing::FragmentCache>>,
    /// Per-query memory grant ([`crate::memory`]); `None` = ungoverned.
    pub mem: Option<std::sync::Arc<crate::memory::MemoryTracker>>,
}

impl<'a> ExecEngine<'a> {
    pub fn new(db: &'a Database) -> ExecEngine<'a> {
        ExecEngine {
            db,
            fragments: None,
            mem: None,
        }
    }

    /// Attach a shared fragment cache; subsequent columnar runs probe and
    /// insert filtered scan fragments through it.
    pub fn with_fragments(
        mut self,
        fragments: std::sync::Arc<crate::sharing::FragmentCache>,
    ) -> ExecEngine<'a> {
        self.fragments = Some(fragments);
        self
    }

    /// Attach a per-query memory grant; operators reserve state against
    /// it and spill when they exceed `min(work_mem, per-segment grant)`.
    pub fn with_memory(
        mut self,
        mem: std::sync::Arc<crate::memory::MemoryTracker>,
    ) -> ExecEngine<'a> {
        self.mem = Some(mem);
        self
    }

    /// Run a plan and project its output to `output_cols` (in order).
    pub fn run(&self, plan: &PhysicalPlan, output_cols: &[ColId]) -> Result<ExecResult> {
        self.run_rows(plan, output_cols).map(collect)
    }

    /// Like [`ExecEngine::run`] but through the vectorized batch kernel
    /// ([`crate::columnar`]): identical rows, order, simulated time and
    /// counters — less per-row interpretation.
    pub fn run_columnar(&self, plan: &PhysicalPlan, output_cols: &[ColId]) -> Result<ExecResult> {
        self.run_cols(plan, output_cols).map(collect)
    }

    /// Run `plan` on the row kernel. Its rows are projected as the caller
    /// pulls them, in slot order (one copy of a replicated stream).
    pub(crate) fn run_rows(&self, plan: &PhysicalPlan, output_cols: &[ColId]) -> Result<Run> {
        let mut ctx = self.ctx(plan)?;
        let stream = exec(plan, &mut ctx)?;
        let sim_seconds = stream.elapsed();
        let positions = output_positions(&stream.layout, output_cols)?;
        let copies = if stream.replicated { 1 } else { usize::MAX };
        let rows = stream.per_seg.into_iter().take(copies).flatten();
        let rows = rows.map(move |row| positions.iter().map(|&p| row[p].clone()).collect());
        Ok((Box::new(rows), sim_seconds, ctx.stats))
    }

    /// [`ExecEngine::run_rows`] on the columnar kernel.
    pub(crate) fn run_cols(&self, plan: &PhysicalPlan, output_cols: &[ColId]) -> Result<Run> {
        let mut ctx = self.ctx(plan)?;
        ctx.frag = self.fragments.clone();
        // Sliced scans draw batch shells from a run-local pool instead
        // of fresh allocations.
        ctx.pool = Some(std::sync::Arc::new(crate::parallel::BatchPool::new()));
        let stream = cexec(plan, &mut ctx)?;
        let sim_seconds = stream.elapsed();
        Ok((project_cols(stream, output_cols)?, sim_seconds, ctx.stats))
    }

    /// Per-run setup shared by both kernels. When the engine cannot
    /// spill, provably-oversized plans are rejected *before* anything
    /// runs ([`crate::memory::preflight`]).
    fn ctx(&self, plan: &PhysicalPlan) -> Result<ExecCtx<'a>> {
        if !self.db.cluster.can_spill {
            let budget = self
                .mem
                .as_ref()
                .map(|m| m.operator_budget(self.db.cluster.work_mem_bytes))
                .unwrap_or(self.db.cluster.work_mem_bytes);
            crate::memory::preflight(plan, self.db, budget)?;
        }
        let mut ctx = ExecCtx::new(self.db);
        if let Some(m) = &self.mem {
            ctx.mem = std::sync::Arc::clone(m);
        }
        Ok(ctx)
    }
}

/// Projected rows of a finished run, produced one at a time.
pub(crate) type Rows = Box<dyn Iterator<Item = Row> + Send>;

/// A finished serial run: its rows, simulated seconds and counters.
pub(crate) type Run = (Rows, f64, ExecStats);

fn collect((rows, sim_seconds, stats): Run) -> ExecResult {
    ExecResult {
        rows: rows.collect(),
        sim_seconds,
        stats,
    }
}

/// Project a columnar stream to `output_cols` as [`ExecEngine::run_rows`]
/// does a row stream; each batch is freed once read.
pub(crate) fn project_cols(stream: ColStream, output_cols: &[ColId]) -> Result<Rows> {
    let positions = output_positions(&stream.layout, output_cols)?;
    let copies = if stream.replicated { 1 } else { usize::MAX };
    let batches = stream.per_seg.into_iter().take(copies).flatten();
    Ok(Box::new(batches.flat_map(move |b| {
        let positions = positions.clone();
        (0..b.len).map(move |i| positions.iter().map(|&p| b.cols[p].get(i)).collect())
    })))
}

fn output_positions(layout: &[ColId], output_cols: &[ColId]) -> Result<Vec<usize>> {
    output_cols
        .iter()
        .map(|c| {
            layout.iter().position(|x| x == c).ok_or_else(|| {
                OrcaError::Execution(format!("output column {c} missing from plan output"))
            })
        })
        .collect()
}

/// Canonicalize rows for order-insensitive comparison in tests: sort by a
/// total order over all columns.
pub fn sort_rows(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let ord = x.total_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.len().cmp(&b.len())
    });
    rows
}
