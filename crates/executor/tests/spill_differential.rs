//! Differential spill tests: the row kernel is the oracle, and every
//! other execution mode — columnar, streaming cursor through either
//! kernel, parallel at 1/2/4 workers — must agree with it *byte for byte*
//! whether operators run in memory or spill to disk.
//!
//! The matrix runs each plan at three working-memory settings:
//!
//! * `64` bytes — everything spills, with recursive repartitioning;
//! * `4 KiB` — mixed: large states spill, small ones stay resident;
//! * the 64 MiB default — nothing spills (the regression baseline).
//!
//! Beyond row identity, the serial kernels must agree on the simulated
//! clock bit-for-bit and on every spill counter, and the parallel engine
//! must reproduce the serial clock and spill counters exactly at every
//! worker count — spilling is deterministic, not best-effort.

use orca_catalog::{ColumnMeta, Distribution, TableDesc};
use orca_common::{ColId, DataType, Datum, MdId, SegmentConfig, SysId};
use orca_executor::{
    Cursor, CursorOptions, Database, ExecEngine, ExecResult, ParallelConfig, ParallelEngine, Row,
};
use orca_expr::logical::{AggStage, JoinKind, TableRef};
use orca_expr::physical::{MotionKind, PhysicalOp, PhysicalPlan};
use orca_expr::props::OrderSpec;
use orca_expr::scalar::{AggFunc, ScalarExpr};
use proptest::prelude::*;
use std::sync::Arc;

/// 4-segment database over two hashed tables loaded with the given rows.
/// `t1` owns columns 0..2, `t2` columns 2..4.
fn make_db(
    rows1: &[(i64, i64)],
    rows2: &[(i64, i64)],
    work_mem: u64,
) -> (Arc<Database>, TableRef, TableRef) {
    let mut db = Database::new(
        SegmentConfig::default()
            .with_segments(4)
            .with_work_mem(work_mem),
    );
    let mk = |oid: u64, name: &str| {
        Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, oid, 1),
            name,
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Hashed(vec![0]),
        ))
    };
    let t1 = mk(1, "t1");
    let t2 = mk(2, "t2");
    let to_rows = |data: &[(i64, i64)]| -> Vec<Row> {
        data.iter()
            .map(|&(a, b)| {
                // A sprinkle of NULLs and strings exercises the spill
                // codec's full datum range, dictionary page included.
                let key = if a % 11 == 10 {
                    Datum::Null
                } else {
                    Datum::Int(a)
                };
                let payload = if b % 7 == 3 {
                    Datum::Str(format!("p{}", b % 19))
                } else {
                    Datum::Int(b)
                };
                vec![key, payload]
            })
            .collect()
    };
    db.load_table(t1.clone(), to_rows(rows1)).unwrap();
    db.load_table(t2.clone(), to_rows(rows2)).unwrap();
    (Arc::new(db), TableRef(t1), TableRef(t2))
}

fn scan(t: &TableRef, first: u32) -> PhysicalPlan {
    PhysicalPlan::leaf(PhysicalOp::TableScan {
        table: t.clone(),
        cols: vec![ColId(first), ColId(first + 1)],
        parts: None,
    })
}

fn motion(kind: MotionKind, child: PhysicalPlan) -> PhysicalPlan {
    PhysicalPlan::new(PhysicalOp::Motion { kind }, vec![child])
}

/// Figure 6 shape: hash join over a redistribute, sorted, gather-merged.
/// Exercises the join *and* sort spill paths in one plan.
fn join_sort_plan(t1: &TableRef, t2: &TableRef) -> (PhysicalPlan, Vec<ColId>) {
    let join = PhysicalPlan::new(
        PhysicalOp::HashJoin {
            kind: JoinKind::Inner,
            left_keys: vec![ColId(0)],
            right_keys: vec![ColId(3)],
            residual: None,
        },
        vec![
            scan(t1, 0),
            motion(MotionKind::Redistribute(vec![ColId(3)]), scan(t2, 2)),
        ],
    );
    let plan = motion(
        MotionKind::GatherMerge(OrderSpec::by(&[ColId(0)])),
        PhysicalPlan::new(
            PhysicalOp::Sort {
                order: OrderSpec::by(&[ColId(0)]),
            },
            vec![join],
        ),
    );
    (plan, vec![ColId(0), ColId(1), ColId(2)])
}

/// Two-stage grouped aggregate across a redistribute — the hash-agg
/// spill path, local and global stages both under pressure.
fn split_agg_plan(t1: &TableRef) -> (PhysicalPlan, Vec<ColId>) {
    let agg = |stage: AggStage, in_col: ColId, out_col: ColId, child: PhysicalPlan| {
        PhysicalPlan::new(
            PhysicalOp::HashAgg {
                group_cols: vec![ColId(0)],
                aggs: vec![(
                    out_col,
                    ScalarExpr::Agg {
                        func: AggFunc::Count,
                        arg: Some(Box::new(ScalarExpr::col(in_col))),
                        distinct: false,
                    },
                )],
                stage,
            },
            vec![child],
        )
    };
    let local = agg(AggStage::Local, ColId(1), ColId(11), scan(t1, 0));
    let global = agg(
        AggStage::Global,
        ColId(11),
        ColId(10),
        motion(MotionKind::Redistribute(vec![ColId(0)]), local),
    );
    let plan = motion(MotionKind::Gather, global);
    (plan, vec![ColId(0), ColId(10)])
}

/// Run `plan` through every execution mode and hold each to the row
/// kernel's output: identical rows, bit-equal simulated time (serial
/// modes), and identical spill/peak counters everywhere.
fn assert_differential(db: &Arc<Database>, plan: &PhysicalPlan, out: &[ColId]) -> ExecResult {
    let oracle = ExecEngine::new(db).run(plan, out).unwrap();

    let col = ExecEngine::new(db).run_columnar(plan, out).unwrap();
    assert_eq!(col.rows, oracle.rows, "columnar rows diverged");
    assert_eq!(
        col.sim_seconds.to_bits(),
        oracle.sim_seconds.to_bits(),
        "columnar sim clock diverged"
    );
    assert_eq!(col.stats.spills, oracle.stats.spills);
    assert_eq!(col.stats.spill_partitions, oracle.stats.spill_partitions);
    assert_eq!(
        col.stats.spill_bytes_written,
        oracle.stats.spill_bytes_written
    );
    assert_eq!(col.stats.spill_bytes_read, oracle.stats.spill_bytes_read);
    assert_eq!(col.stats.peak_mem_bytes, oracle.stats.peak_mem_bytes);

    for columnar in [false, true] {
        let cursor = Cursor::open(
            Arc::clone(db),
            plan,
            out,
            CursorOptions {
                columnar,
                batch_rows: 7, // deliberately odd, exercises rechunking
                fragments: None,
                mem: None,
            },
        );
        let (rows, summary) = cursor.collect().unwrap();
        assert_eq!(
            rows, oracle.rows,
            "cursor(columnar={columnar}) rows diverged"
        );
        assert_eq!(
            summary.sim_seconds.to_bits(),
            oracle.sim_seconds.to_bits(),
            "cursor(columnar={columnar}) sim clock diverged"
        );
    }

    for workers in [1, 2, 4] {
        let cfg = ParallelConfig {
            workers,
            batch_rows: 7,
            channel_capacity: 2,
            ..ParallelConfig::default()
        };
        let par = ParallelEngine::with_config(db, cfg).run(plan, out).unwrap();
        let tag = format!("parallel workers={workers}");
        assert_eq!(par.rows, oracle.rows, "{tag}: rows diverged");
        assert_eq!(
            par.parallel.sim_seconds.to_bits(),
            oracle.sim_seconds.to_bits(),
            "{tag}: sim clock diverged"
        );
        assert_eq!(par.stats.spills, oracle.stats.spills, "{tag}: spills");
        assert_eq!(
            par.stats.spill_partitions, oracle.stats.spill_partitions,
            "{tag}: spill_partitions"
        );
        assert_eq!(
            par.stats.spill_bytes_written, oracle.stats.spill_bytes_written,
            "{tag}: spill_bytes_written"
        );
        assert_eq!(
            par.stats.spill_bytes_read, oracle.stats.spill_bytes_read,
            "{tag}: spill_bytes_read"
        );
        assert_eq!(
            par.stats.peak_mem_bytes, oracle.stats.peak_mem_bytes,
            "{tag}: peak_mem_bytes"
        );
    }
    oracle
}

/// Deterministic sweep: fixed data through the whole matrix at every
/// memory setting, asserting that the small settings really did spill
/// and the default really did not.
#[test]
fn spill_matrix_join_agg_sort() {
    let rows1: Vec<(i64, i64)> = (0..120).map(|i| (i % 13, i)).collect();
    let rows2: Vec<(i64, i64)> = (0..50).map(|i| (i, i % 13)).collect();
    for work_mem in [64u64, 4096, 64 << 20] {
        let (db, t1, t2) = make_db(&rows1, &rows2, work_mem);
        let (jplan, jout) = join_sort_plan(&t1, &t2);
        let joined = assert_differential(&db, &jplan, &jout);
        let (aplan, aout) = split_agg_plan(&t1);
        let agged = assert_differential(&db, &aplan, &aout);
        let spilled = joined.stats.spill_partitions + agged.stats.spill_partitions;
        if work_mem <= 4096 {
            assert!(spilled > 0, "work_mem={work_mem}: expected spills");
            assert!(joined.stats.spill_bytes_written > 0);
            assert_eq!(
                joined.stats.spill_bytes_read, joined.stats.spill_bytes_written,
                "every spilled byte is read back exactly once"
            );
        } else {
            assert_eq!(spilled, 0, "work_mem={work_mem}: expected no spills");
            assert!(joined.stats.peak_mem_bytes > 0);
        }
    }
}

/// Spilled runs must not change *what* is computed, only *how*: the
/// result at 64 bytes of work_mem equals the result at the default.
#[test]
fn spilled_results_equal_in_memory_results() {
    let rows1: Vec<(i64, i64)> = (0..200).map(|i| (i % 23, 3 * i - 100)).collect();
    let rows2: Vec<(i64, i64)> = (0..60).map(|i| (i, i % 23)).collect();
    let reference = {
        let (db, t1, t2) = make_db(&rows1, &rows2, 64 << 20);
        let (plan, out) = join_sort_plan(&t1, &t2);
        ExecEngine::new(&db).run(&plan, &out).unwrap()
    };
    assert_eq!(reference.stats.spill_partitions, 0);
    let (db, t1, t2) = make_db(&rows1, &rows2, 64);
    let (plan, out) = join_sort_plan(&t1, &t2);
    let spilled = assert_differential(&db, &plan, &out);
    assert!(spilled.stats.spill_partitions > 0);
    assert_eq!(spilled.rows, reference.rows);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Randomized differential sweep: arbitrary data and key skew, every
    /// execution mode, at a spill-everything, a mixed, and an in-memory
    /// work_mem setting.
    #[test]
    fn randomized_spill_differential(
        rows1 in proptest::collection::vec((0i64..16, -500i64..500i64), 1..80),
        rows2 in proptest::collection::vec((0i64..16, -500i64..500i64), 1..40),
        work_mem in proptest::sample::select(vec![64u64, 4096, 64 << 20]),
    ) {
        let (db, t1, t2) = make_db(&rows1, &rows2, work_mem);
        let (jplan, jout) = join_sort_plan(&t1, &t2);
        assert_differential(&db, &jplan, &jout);
        let (aplan, aout) = split_agg_plan(&t1);
        assert_differential(&db, &aplan, &aout);
    }
}
