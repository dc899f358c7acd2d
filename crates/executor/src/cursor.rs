//! Streaming cursors over plan execution.
//!
//! [`crate::engine::ExecEngine::run`] collects the *entire* projected
//! rowset before the caller sees a row. A [`Cursor`] is a pull iterator
//! the caller drives instead: [`Cursor::open`] only records the plan, the
//! first [`Cursor::next_batch`] runs it through the engine's serial path
//! (so time to the first batch includes the whole execution), and each
//! call then projects and returns the next `batch_rows` rows of the
//! finished run. Nothing runs in the background: closing or dropping a
//! cursor drops the rows not yet delivered. Batches, rows, the simulated
//! time, and every [`ExecStats`] counter equal the buffering path's.

use crate::engine::{ExecEngine, Rows, Run};
use crate::exec::ExecStats;
use crate::storage::{Database, Row};
use orca_common::{ColId, OrcaError, Result};
use orca_expr::physical::PhysicalPlan;
use std::iter::Peekable;
use std::sync::Arc;

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

/// Final per-query report, available once the last batch is taken.
#[derive(Debug, Clone)]
pub struct CursorSummary {
    /// Deterministic simulated cluster time — identical to
    /// [`crate::engine::ExecResult::sim_seconds`] for the same plan.
    pub sim_seconds: f64,
    pub stats: ExecStats,
    /// Total rows delivered across all batches.
    pub rows_emitted: u64,
}

enum State {
    /// Runs the recorded plan on the row or the columnar kernel.
    Open(Box<dyn FnOnce() -> Result<Run> + Send>),
    /// The run finished; these rows are not yet delivered.
    Streaming(Peekable<Rows>),
    /// The last batch was taken, or the cursor was closed.
    Done,
    Failed(OrcaError),
}

/// A streaming result handle; see the module docs.
pub struct Cursor {
    state: State,
    batch_rows: usize,
    summary: Option<CursorSummary>,
}

impl Cursor {
    /// Record `plan` for execution; nothing runs until the first
    /// [`Cursor::next_batch`], which is where plan errors (out-of-memory
    /// rejections too) surface.
    pub fn open(
        db: Arc<Database>,
        plan: &PhysicalPlan,
        output_cols: &[ColId],
        opts: CursorOptions,
    ) -> Cursor {
        let batch_rows = match opts.batch_rows {
            0 => db.cluster.batch_size.max(1),
            n => n,
        };
        let (plan, output_cols) = (plan.clone(), output_cols.to_vec());
        let start = move || {
            let engine = ExecEngine {
                db: &db,
                fragments: opts.fragments,
                mem: opts.mem,
            };
            if opts.columnar {
                engine.run_cols(&plan, &output_cols)
            } else {
                engine.run_rows(&plan, &output_cols)
            }
        };
        Cursor {
            state: State::Open(Box::new(start)),
            batch_rows,
            summary: None,
        }
    }

    /// The next batch of projected rows, `None` once exhausted. The first
    /// call runs the plan. After `None`, [`Cursor::summary`] is available.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Row>>> {
        self.state = match std::mem::replace(&mut self.state, State::Done) {
            State::Open(start) => match start() {
                Ok((rows, sim_seconds, stats)) => {
                    self.summary = Some(CursorSummary {
                        sim_seconds,
                        stats,
                        rows_emitted: 0,
                    });
                    State::Streaming(rows.peekable())
                }
                Err(e) => State::Failed(e),
            },
            state => state,
        };
        let rows = match &mut self.state {
            State::Streaming(rows) => rows,
            State::Failed(e) => return Err(e.clone()),
            State::Open(_) | State::Done => return Ok(None),
        };
        let batch: Vec<Row> = rows.by_ref().take(self.batch_rows).collect();
        if rows.peek().is_none() {
            self.state = State::Done;
        }
        if batch.is_empty() {
            return Ok(None);
        }
        if let Some(s) = &mut self.summary {
            s.rows_emitted += batch.len() as u64;
        }
        Ok(Some(batch))
    }

    /// Whether the last batch has been taken. `false` before the first
    /// batch; after it, `false` exactly while more rows remain.
    pub fn producer_finished(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// The final report of a cursor that ran its plan, once the last batch
    /// has been taken or the cursor was closed; `rows_emitted` counts the
    /// rows delivered.
    pub fn summary(&self) -> Option<&CursorSummary> {
        let done = matches!(self.state, State::Done);
        self.summary.as_ref().filter(|_| done)
    }

    /// Stop delivering: the rows not yet taken are dropped. Safe to call
    /// at any point; a cursor closed before its first batch never runs.
    pub fn close(&mut self) {
        if !matches!(self.state, State::Failed(_)) {
            self.state = State::Done;
        }
    }

    /// Drain every remaining batch and return (all rows, final summary) —
    /// the buffering-path contract, for callers that want the full rowset.
    pub fn collect(mut self) -> Result<(Vec<Row>, CursorSummary)> {
        let mut rows = Vec::new();
        while let Some(b) = self.next_batch()? {
            rows.extend(b);
        }
        Ok((
            rows,
            self.summary.expect("cursor summary after final batch"),
        ))
    }
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

    /// The first batch arrives while later batches are still unprojected —
    /// the cursor does not project the whole rowset first.
    #[test]
    fn first_batch_before_full_materialization() {
        let (db, t) = db();
        let plan = gather_scan(&t);
        let mut cursor = Cursor::open(
            Arc::new(db),
            &plan,
            &[ColId(0)],
            CursorOptions {
                batch_rows: 8, // 200 rows -> 25 batches
                ..CursorOptions::default()
            },
        );
        let first = cursor.next_batch().unwrap().expect("first batch");
        assert_eq!(first.len(), 8);
        // 24 batches remain after the first.
        assert!(!cursor.producer_finished());
        let (rest, summary) = cursor.collect().unwrap();
        assert_eq!(first.len() + rest.len(), 200);
        assert_eq!(summary.rows_emitted, 200);
    }

    /// Early close drops the undelivered rows without projecting them; the
    /// cursor then reports exhaustion and the finished run's summary.
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
        cursor.close();
        assert!(cursor.next_batch().unwrap().is_none());
        // The finished run still reports, counting the delivered rows.
        assert_eq!(cursor.summary().expect("summary").rows_emitted, 4);
    }

    /// Early close returns at once: it only drops the rows not yet
    /// delivered.
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

    /// Dropping a cursor mid-stream, with nothing more drained by the
    /// caller, returns and releases the database.
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
                batch_rows: 1, // 200 batches
                ..CursorOptions::default()
            },
        );
        let _ = cursor.next_batch().unwrap().expect("first batch");
        assert!(!cursor.producer_finished());
        let (tx, rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(cursor);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("dropping a mid-stream cursor hung");
        dropper.join().unwrap();
        // The cursor held the other reference to the database until its
        // run started; only ours is left.
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
