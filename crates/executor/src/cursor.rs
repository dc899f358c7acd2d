//! Streaming cursors over plan execution.
//!
//! [`crate::engine::ExecEngine::run`] buffers the *entire* projected
//! rowset before the caller sees a single row. A [`Cursor`] replaces that
//! contract with incremental delivery: a producer thread runs the plan
//! and hands projected row batches to the consumer through a bounded
//! channel, so
//!
//! * the consumer-side buffer is at most [`CHANNEL_BATCHES`]` + 1`
//!   batches, regardless of result size;
//! * the first batch is available before the producer has finished
//!   projecting the rowset ([`Cursor::producer_finished`] observes the
//!   boundary); and
//! * dropping or [`Cursor::close`]-ing the cursor cancels the plan
//!   mid-flight via the shared [`AbortSignal`] — the kernel checks it at
//!   every operator boundary and the producer checks it before every
//!   send.
//!
//! The hand-off blocks rather than polls: a producer that finds the
//! channel full parks in `SyncSender::send` until the consumer takes a
//! batch, which is the backpressure. Teardown therefore raises the abort
//! and then drains the receiver *before* joining: each receive frees a
//! slot, the parked producer wakes, fails its next abort check and hangs
//! up. Joining first would deadlock on a producer parked on a full
//! channel.
//!
//! Batches, rows, the final simulated time, and every [`ExecStats`]
//! counter are identical to the buffering path — the cursor streams the
//! projection/delivery phase, it does not change what executes.

use crate::columnar::cexec;
use crate::exec::{exec, key_positions, ExecCtx, ExecStats};
use crate::storage::{Database, Row};
use orca_common::{ColId, OrcaError, Result};
use orca_expr::physical::PhysicalPlan;
use orca_gpos::AbortSignal;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Batches buffered in the channel before the producer blocks.
const CHANNEL_BATCHES: usize = 2;

/// Options for [`Cursor::open`].
#[derive(Default)]
pub struct CursorOptions {
    /// Run the vectorized batch kernel instead of the row kernel.
    pub columnar: bool,
    /// Rows per delivered batch; `0` means the cluster's `batch_size`.
    pub batch_rows: usize,
    /// Cross-query fragment cache to attach (columnar runs only).
    pub fragments: Option<Arc<crate::sharing::FragmentCache>>,
    /// Per-query memory grant; `None` = ungoverned.
    pub mem: Option<Arc<crate::memory::MemoryTracker>>,
}

/// Final per-query report, available once the cursor is exhausted.
#[derive(Debug, Clone)]
pub struct CursorSummary {
    /// Deterministic simulated cluster time — identical to
    /// [`crate::engine::ExecResult::sim_seconds`] for the same plan.
    pub sim_seconds: f64,
    pub stats: ExecStats,
    /// Total rows delivered across all batches.
    pub rows_emitted: u64,
}

enum Msg {
    Batch(Vec<Row>),
    Done(Box<CursorSummary>),
    Fail(OrcaError),
}

/// A streaming result handle; see the module docs.
pub struct Cursor {
    rx: Receiver<Msg>,
    abort: Arc<AbortSignal>,
    produced_all: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    summary: Option<CursorSummary>,
    failed: Option<OrcaError>,
    done: bool,
}

impl Cursor {
    /// Start executing `plan` on a producer thread and return immediately.
    ///
    /// Plan errors (including preflight OOM rejections) surface from
    /// [`Cursor::next_batch`], not from `open`.
    pub fn open(
        db: Arc<Database>,
        plan: &PhysicalPlan,
        output_cols: &[ColId],
        opts: CursorOptions,
    ) -> Cursor {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Msg>(CHANNEL_BATCHES);
        let abort = Arc::new(AbortSignal::new());
        let produced_all = Arc::new(AtomicBool::new(false));
        let plan = plan.clone();
        let output_cols = output_cols.to_vec();
        let thread_abort = Arc::clone(&abort);
        let thread_flag = Arc::clone(&produced_all);
        let handle = std::thread::spawn(move || {
            produce(db, plan, output_cols, opts, tx, thread_abort, thread_flag);
        });
        Cursor {
            rx,
            abort,
            produced_all,
            handle: Some(handle),
            summary: None,
            failed: None,
            done: false,
        }
    }

    /// The next batch of projected rows, `None` once exhausted. After
    /// `None`, [`Cursor::summary`] is available.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Row>>> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.done {
            return Ok(None);
        }
        match self.rx.recv() {
            Ok(Msg::Batch(b)) => Ok(Some(b)),
            Ok(Msg::Done(s)) => {
                self.summary = Some(*s);
                self.done = true;
                self.join();
                Ok(None)
            }
            Ok(Msg::Fail(e)) => {
                self.failed = Some(e.clone());
                self.done = true;
                self.join();
                Err(e)
            }
            Err(_) => {
                // Producer hung up without a terminal message: it observed
                // an abort mid-send. Surface the recorded reason.
                let e = self.abort.error();
                self.failed = Some(e.clone());
                self.done = true;
                self.join();
                Err(e)
            }
        }
    }

    /// Whether the producer has emitted its last batch (later batches may
    /// still be queued in the channel). While this is `false`, any batch
    /// the consumer already holds was delivered *before* the rowset was
    /// fully materialized on the producer side.
    pub fn producer_finished(&self) -> bool {
        self.produced_all.load(Ordering::SeqCst)
    }

    /// The final report; `Some` only after [`Cursor::next_batch`] returned
    /// `None`.
    pub fn summary(&self) -> Option<&CursorSummary> {
        self.summary.as_ref()
    }

    /// Cancel the query and discard any undelivered batches. Safe to call
    /// at any point; the producer observes the abort at its next operator
    /// boundary or send attempt.
    pub fn close(&mut self) {
        if !self.done {
            self.abort.abort();
            // Drain until the producer hangs up: each receive frees a slot,
            // so a producer parked on a full channel wakes and then fails
            // its next abort check.
            while let Ok(msg) = self.rx.recv() {
                if let Msg::Done(s) = msg {
                    self.summary = Some(*s);
                    break;
                }
            }
            self.done = true;
        }
        self.join();
    }

    /// Drain every remaining batch and return (all rows, final summary) —
    /// the buffering-path contract, for callers that do want the full
    /// rowset.
    pub fn collect(mut self) -> Result<(Vec<Row>, CursorSummary)> {
        let mut rows = Vec::new();
        while let Some(b) = self.next_batch()? {
            rows.extend(b);
        }
        let summary = self
            .summary
            .take()
            .expect("cursor summary present after final batch");
        Ok((rows, summary))
    }

    fn join(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Cursor {
    fn drop(&mut self) {
        // Abort, drain, then reap: `rx` is dropped only after this body
        // returns, so joining before the drain would wait forever on a
        // producer parked in a blocking send.
        self.close();
    }
}

/// Producer-side body: run the plan, then stream the projection.
fn produce(
    db: Arc<Database>,
    plan: PhysicalPlan,
    output_cols: Vec<ColId>,
    opts: CursorOptions,
    tx: SyncSender<Msg>,
    abort: Arc<AbortSignal>,
    produced_all: Arc<AtomicBool>,
) {
    let result = run_plan(&db, &plan, &output_cols, &opts, &abort, &tx, &produced_all);
    if let Err(e) = result {
        // Best-effort: the consumer may already be gone.
        let _ = send(&tx, &abort, Msg::Fail(e));
    }
}

fn run_plan(
    db: &Database,
    plan: &PhysicalPlan,
    output_cols: &[ColId],
    opts: &CursorOptions,
    abort: &Arc<AbortSignal>,
    tx: &SyncSender<Msg>,
    produced_all: &AtomicBool,
) -> Result<()> {
    // Same preflight rule as `ExecEngine`: reject provably-oversized
    // plans up front when the cluster cannot spill.
    if !db.cluster.can_spill {
        let budget = opts
            .mem
            .as_ref()
            .map(|m| m.operator_budget(db.cluster.work_mem_bytes))
            .unwrap_or(db.cluster.work_mem_bytes);
        crate::memory::preflight(plan, db, budget)?;
    }
    let mut ctx = ExecCtx::new(db);
    ctx.abort = Some(Arc::clone(abort));
    if let Some(m) = &opts.mem {
        ctx.mem = Arc::clone(m);
    }
    let batch_rows = if opts.batch_rows == 0 {
        db.cluster.batch_size.max(1)
    } else {
        opts.batch_rows
    };
    let mut emitter = Emitter {
        tx,
        abort,
        batch_rows,
        chunk: Vec::new(),
        rows_emitted: 0,
    };
    let sim_seconds;
    if opts.columnar {
        ctx.frag = opts.fragments.clone();
        ctx.pool = Some(Arc::new(crate::parallel::BatchPool::new()));
        let stream = cexec(plan, &mut ctx)?;
        sim_seconds = stream.elapsed();
        let positions = key_positions(&stream.layout, output_cols)?;
        let slots = if stream.replicated {
            &stream.per_seg[..1]
        } else {
            &stream.per_seg[..]
        };
        for batches in slots {
            for b in batches {
                for i in 0..b.len {
                    let row = positions.iter().map(|&p| b.cols[p].get(i)).collect();
                    emitter.push(row)?;
                }
            }
        }
    } else {
        let stream = exec(plan, &mut ctx)?;
        sim_seconds = stream.elapsed();
        let positions = key_positions(&stream.layout, output_cols)?;
        let slots = if stream.replicated {
            &stream.per_seg[..1]
        } else {
            &stream.per_seg[..]
        };
        for rows in slots {
            for row in rows {
                let projected = positions.iter().map(|&p| row[p].clone()).collect();
                emitter.push(projected)?;
            }
        }
    }
    emitter.flush()?;
    let rows_emitted = emitter.rows_emitted;
    // Flag first, then Done: a consumer that received a batch while this
    // is still false got it before full materialization.
    produced_all.store(true, Ordering::SeqCst);
    send(
        tx,
        abort,
        Msg::Done(Box::new(CursorSummary {
            sim_seconds,
            stats: ctx.stats,
            rows_emitted,
        })),
    )?;
    Ok(())
}

/// Accumulates projected rows into `batch_rows`-sized chunks and sends
/// each full chunk downstream.
struct Emitter<'a> {
    tx: &'a SyncSender<Msg>,
    abort: &'a AbortSignal,
    batch_rows: usize,
    chunk: Vec<Row>,
    rows_emitted: u64,
}

impl Emitter<'_> {
    fn push(&mut self, row: Row) -> Result<()> {
        self.chunk.push(row);
        if self.chunk.len() >= self.batch_rows {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if self.chunk.is_empty() {
            return Ok(());
        }
        self.rows_emitted += self.chunk.len() as u64;
        let batch = std::mem::take(&mut self.chunk);
        send(self.tx, self.abort, Msg::Batch(batch))
    }
}

/// Bounded send: check the abort flag, then block until the consumer
/// frees a slot. Teardown drains the channel after aborting, so a send
/// parked here always wakes; the check on the next send then stops the
/// producer.
fn send(tx: &SyncSender<Msg>, abort: &AbortSignal, msg: Msg) -> Result<()> {
    abort.check()?;
    // Disconnected: the consumer is gone; treat as cancellation.
    tx.send(msg)
        .map_err(|_| OrcaError::Aborted("cursor closed".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecEngine;
    use orca_catalog::{ColumnMeta, Distribution, TableDesc};
    use orca_common::{DataType, Datum, MdId, SysId};
    use orca_expr::logical::TableRef;
    use orca_expr::physical::{MotionKind, PhysicalOp};

    fn db() -> (Database, TableRef) {
        let mut db = Database::new(orca_common::SegmentConfig::default().with_segments(4));
        let t = std::sync::Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, 1, 1),
            "t1",
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Hashed(vec![0]),
        ));
        let rows: Vec<Row> = (0..200)
            .map(|i| vec![Datum::Int(i), Datum::Int(i % 20)])
            .collect();
        db.load_table(t.clone(), rows).unwrap();
        (db, TableRef(t))
    }

    fn gather_scan(t: &TableRef) -> PhysicalPlan {
        PhysicalPlan::new(
            PhysicalOp::Motion {
                kind: MotionKind::Gather,
            },
            vec![PhysicalPlan::leaf(PhysicalOp::TableScan {
                table: t.clone(),
                cols: vec![ColId(0), ColId(1)],
                parts: None,
            })],
        )
    }

    /// Streamed rows, order, sim time, and stats equal the buffering path
    /// in both kernels.
    #[test]
    fn cursor_matches_buffered_run() {
        let (db, t) = db();
        let plan = gather_scan(&t);
        let cols = [ColId(0), ColId(1)];
        let expect = ExecEngine::new(&db).run(&plan, &cols).unwrap();
        let shared = Arc::new(db);
        for columnar in [false, true] {
            let cursor = Cursor::open(
                Arc::clone(&shared),
                &plan,
                &cols,
                CursorOptions {
                    columnar,
                    ..CursorOptions::default()
                },
            );
            let (rows, summary) = cursor.collect().unwrap();
            assert_eq!(rows, expect.rows);
            assert_eq!(
                summary.sim_seconds.to_bits(),
                expect.sim_seconds.to_bits(),
                "columnar={columnar}"
            );
            assert_eq!(summary.rows_emitted, expect.rows.len() as u64);
            assert_eq!(summary.stats.rows_processed, expect.stats.rows_processed);
        }
    }

    /// The first batch arrives while the producer still has batches to
    /// emit — the cursor does not buffer the whole rowset first.
    #[test]
    fn first_batch_before_full_materialization() {
        let (db, t) = db();
        let plan = gather_scan(&t);
        let mut cursor = Cursor::open(
            Arc::new(db),
            &plan,
            &[ColId(0)],
            CursorOptions {
                batch_rows: 8, // 200 rows -> 25 batches >> channel bound
                ..CursorOptions::default()
            },
        );
        let first = cursor.next_batch().unwrap().expect("first batch");
        assert_eq!(first.len(), 8);
        // With 25 batches and a channel bound of 2, the producer cannot
        // have finished when the first batch is consumed.
        assert!(!cursor.producer_finished());
        let (rest, summary) = cursor.collect().unwrap();
        assert_eq!(first.len() + rest.len(), 200);
        assert_eq!(summary.rows_emitted, 200);
    }

    /// Early close cancels the producer without deadlock and without
    /// draining the full result.
    #[test]
    fn close_cancels_producer() {
        let (db, t) = db();
        let plan = gather_scan(&t);
        let mut cursor = Cursor::open(
            Arc::new(db),
            &plan,
            &[ColId(0)],
            CursorOptions {
                batch_rows: 4,
                ..CursorOptions::default()
            },
        );
        let _ = cursor.next_batch().unwrap().expect("first batch");
        cursor.close(); // joins the producer; must not hang
        assert!(cursor.next_batch().unwrap().is_none());
    }

    /// Yield for a few milliseconds after the first batch: long enough for
    /// the producer to refill the channel and park on its next send. The
    /// channel gives no way to observe the park, so this decides only
    /// whether the parked case is exercised; the assertions hold on any
    /// interleaving.
    fn let_producer_park() {
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(3) {
            std::thread::yield_now();
        }
    }

    /// Early close wakes a producer parked on the full channel at once:
    /// no wait on a poll tick between the abort and the join.
    #[test]
    fn early_close_is_prompt() {
        let (db, t) = db();
        let plan = gather_scan(&t);
        let shared = Arc::new(db);
        let mut took: Vec<std::time::Duration> = (0..20)
            .map(|_| {
                let mut cursor = Cursor::open(
                    Arc::clone(&shared),
                    &plan,
                    &[ColId(0)],
                    CursorOptions {
                        batch_rows: 4, // 200 rows -> 50 batches
                        ..CursorOptions::default()
                    },
                );
                let _ = cursor.next_batch().unwrap().expect("first batch");
                let_producer_park();
                let start = std::time::Instant::now();
                cursor.close();
                start.elapsed()
            })
            .collect();
        took.sort();
        let median = took[took.len() / 2];
        assert!(
            median < std::time::Duration::from_millis(1),
            "median close took {median:?}"
        );
    }

    /// Dropping a cursor whose producer is parked on a full channel, with
    /// nothing drained by the caller, returns and reaps the producer.
    #[test]
    fn drop_mid_stream_reaps_producer() {
        let (db, t) = db();
        let plan = gather_scan(&t);
        let shared = Arc::new(db);
        let mut cursor = Cursor::open(
            Arc::clone(&shared),
            &plan,
            &[ColId(0)],
            CursorOptions {
                batch_rows: 1, // 200 batches: the producer must park
                ..CursorOptions::default()
            },
        );
        let _ = cursor.next_batch().unwrap().expect("first batch");
        let_producer_park();
        assert!(!cursor.producer_finished());
        let (tx, rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(cursor);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("dropping a mid-stream cursor hung");
        dropper.join().unwrap();
        // The producer held the other reference to the database; it was
        // joined, so only ours is left.
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    /// Preflight OOM surfaces from `next_batch` as a typed error.
    #[test]
    fn preflight_oom_surfaces_typed() {
        let (mut db, t) = db();
        db.cluster.work_mem_bytes = 16;
        db.cluster.can_spill = false;
        let plan = PhysicalPlan::new(
            PhysicalOp::Motion {
                kind: MotionKind::Gather,
            },
            vec![PhysicalPlan::new(
                PhysicalOp::HashJoin {
                    kind: orca_expr::JoinKind::Inner,
                    left_keys: vec![ColId(0)],
                    right_keys: vec![ColId(2)],
                    residual: None,
                },
                vec![
                    PhysicalPlan::leaf(PhysicalOp::TableScan {
                        table: t.clone(),
                        cols: vec![ColId(0), ColId(1)],
                        parts: None,
                    }),
                    PhysicalPlan::new(
                        PhysicalOp::Motion {
                            kind: MotionKind::Broadcast,
                        },
                        vec![PhysicalPlan::leaf(PhysicalOp::TableScan {
                            table: t.clone(),
                            cols: vec![ColId(2), ColId(3)],
                            parts: None,
                        })],
                    ),
                ],
            )],
        );
        let mut cursor = Cursor::open(Arc::new(db), &plan, &[ColId(0)], CursorOptions::default());
        let err = cursor.next_batch().unwrap_err();
        assert_eq!(err.kind(), "oom", "{err}");
    }
}
