//! Differential testing of the parallel execution subsystem: random
//! optimized plans must produce *byte-identical* results on the serial
//! engine and on `ParallelEngine` at every worker count, and both must
//! agree with the naive single-node reference interpreter. Plus targeted
//! liveness tests: a mid-query abort and a tiny interconnect window must
//! drain cleanly — no deadlock, no leaked threads.

use orca::engine::{Optimizer, OptimizerConfig, QueryReqs};
use orca_catalog::provider::MdProvider as _;
use orca_catalog::stats::ColumnStats;
use orca_catalog::{ColumnMeta, Distribution, MemoryProvider, TableStats};
use orca_common::{ColId, CteId, DataType, Datum, SegmentConfig};
use orca_executor::engine::sort_rows;
use orca_executor::reference::run_reference;
use orca_executor::{Database, ExecEngine, ParallelConfig, ParallelEngine};
use orca_expr::logical::{AggStage, JoinKind, LogicalExpr, LogicalOp, TableRef};
use orca_expr::physical::{MotionKind, PhysicalOp, PhysicalPlan};
use orca_expr::props::OrderSpec;
use orca_expr::scalar::{AggFunc, CmpOp, ScalarExpr};
use orca_expr::ColumnRegistry;
use orca_gpos::AbortSignal;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const SEGMENTS: usize = 4;
/// Three tables, 3 int columns each; table i owns ColIds 3i..3i+3.
const NCOLS: u32 = 3;

struct Fixture {
    provider: Arc<MemoryProvider>,
    db: Database,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let provider = Arc::new(MemoryProvider::new());
        let mut db = Database::new(SegmentConfig::default().with_segments(SEGMENTS));
        let dists = [
            Distribution::Hashed(vec![0]),
            Distribution::Hashed(vec![1]),
            Distribution::Replicated,
        ];
        for (t, dist) in dists.into_iter().enumerate() {
            let name = format!("dt{t}");
            let id = provider.register(
                &name,
                (0..NCOLS)
                    .map(|c| ColumnMeta::new(&format!("c{c}"), DataType::Int))
                    .collect(),
                dist,
            );
            let rows: Vec<Vec<Datum>> = (0..150)
                .map(|i| {
                    (0..NCOLS)
                        .map(|c| {
                            let v = (i * 11 + (c as i64) * 5 + (t as i64) * 7) % 19;
                            if v == 18 {
                                Datum::Null
                            } else {
                                Datum::Int(v)
                            }
                        })
                        .collect()
                })
                .collect();
            let mut stats = TableStats::new(rows.len() as f64, NCOLS as usize);
            for c in 0..NCOLS as usize {
                let values: Vec<Datum> = rows.iter().map(|r| r[c].clone()).collect();
                stats.columns[c] = Some(ColumnStats::from_column(&values, 8));
            }
            provider.set_stats(id, stats);
            db.load_table(provider.table(id).expect("registered"), rows)
                .expect("load");
        }
        Fixture { provider, db }
    })
}

#[derive(Debug, Clone)]
struct QuerySpec {
    tables: Vec<usize>,
    joins: Vec<(u32, u32, u8)>,
    filters: Vec<(u32, u8, i64)>,
    agg: Option<(u32, bool)>,
    limit: Option<u64>,
}

fn spec_strategy() -> impl Strategy<Value = QuerySpec> {
    (
        prop::sample::subsequence(vec![0usize, 1, 2], 1..=3).prop_shuffle(),
        prop::collection::vec((0u32..NCOLS, 0u32..NCOLS, 0u8..4), 0..2),
        prop::collection::vec((0u32..NCOLS, 0u8..5, 0i64..18), 0..3),
        prop::option::of((0u32..NCOLS, any::<bool>())),
        prop::option::of(1u64..25),
    )
        .prop_map(|(tables, joins, filters, agg, limit)| QuerySpec {
            tables,
            joins,
            filters,
            agg,
            limit,
        })
}

fn col(table: usize, c: u32) -> ColId {
    ColId(table as u32 * NCOLS + c)
}

fn build_query(spec: &QuerySpec, registry: &ColumnRegistry) -> (LogicalExpr, Vec<ColId>) {
    let fx = fixture();
    while registry.len() < (3 * NCOLS) as usize {
        registry.fresh(&format!("c{}", registry.len()), DataType::Int);
    }
    let get = |t: usize| {
        let mdid = fx.provider.table_by_name(&format!("dt{t}")).expect("table");
        LogicalExpr::leaf(LogicalOp::Get {
            table: TableRef(fx.provider.table(mdid).expect("desc")),
            cols: (0..NCOLS).map(|c| col(t, c)).collect(),
            parts: None,
        })
    };
    let mut expr = get(spec.tables[0]);
    let mut visible: Vec<ColId> = expr.output_cols();
    for (i, t) in spec.tables.iter().enumerate().skip(1) {
        let (lc, rc, kindsel) = spec.joins.get(i - 1).copied().unwrap_or((0, 0, 0));
        let left_col = visible[(lc as usize) % visible.len()];
        let right_col = col(*t, rc);
        let kind = match kindsel % 4 {
            0 => JoinKind::Inner,
            1 => JoinKind::LeftOuter,
            2 => JoinKind::LeftSemi,
            _ => JoinKind::LeftAntiSemi,
        };
        expr = LogicalExpr::new(
            LogicalOp::Join {
                kind,
                pred: ScalarExpr::col_eq_col(left_col, right_col),
            },
            vec![expr, get(*t)],
        );
        visible = expr.output_cols();
    }
    let mut conjuncts = Vec::new();
    for (c, op, v) in &spec.filters {
        let target = visible[(*c as usize) % visible.len()];
        let op = match op % 5 {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Ge,
            _ => CmpOp::Le,
        };
        conjuncts.push(ScalarExpr::cmp(
            op,
            ScalarExpr::col(target),
            ScalarExpr::int(*v),
        ));
    }
    if !conjuncts.is_empty() {
        expr = LogicalExpr::new(
            LogicalOp::Select {
                pred: ScalarExpr::and(conjuncts),
            },
            vec![expr],
        );
    }
    let mut output = visible.clone();
    if let Some((gc, use_sum)) = &spec.agg {
        let group = visible[(*gc as usize) % visible.len()];
        let agg_col = registry.fresh("agg_out", DataType::Int);
        let agg_arg = visible[(*gc as usize + 1) % visible.len()];
        let func = if *use_sum {
            AggFunc::Sum
        } else {
            AggFunc::Count
        };
        expr = LogicalExpr::new(
            LogicalOp::GbAgg {
                group_cols: vec![group],
                aggs: vec![(
                    agg_col,
                    ScalarExpr::Agg {
                        func,
                        arg: Some(Box::new(ScalarExpr::col(agg_arg))),
                        distinct: false,
                    },
                )],
                stage: AggStage::Single,
            },
            vec![expr],
        );
        output = vec![group, agg_col];
    }
    if let Some(n) = spec.limit {
        expr = LogicalExpr::new(
            LogicalOp::Limit {
                order: OrderSpec::by(&output),
                offset: 0,
                count: Some(n),
            },
            vec![expr],
        );
    }
    (expr, output)
}

fn optimize(expr: &LogicalExpr, registry: &Arc<ColumnRegistry>, output: &[ColId]) -> PhysicalPlan {
    let fx = fixture();
    let optimizer = Optimizer::new(
        fx.provider.clone(),
        OptimizerConfig::default().with_cluster(SegmentConfig::default().with_segments(SEGMENTS)),
    );
    let reqs = QueryReqs::gather_all(output.to_vec());
    let (plan, _) = optimizer
        .optimize(expr, registry, &reqs)
        .expect("optimizes");
    plan
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// For random optimized plans: row-serial rows == columnar-serial
    /// rows at batch sizes 1, 7 and 1024 (byte-identical, simulated time
    /// bit-equal) == parallel rows and simulated time at 1, 2 and 4
    /// compute workers, and the multiset agrees with the reference
    /// interpreter. The fixture is null-heavy (every 19th value is NULL)
    /// so null bitmaps and NULL join keys are exercised throughout. Odd
    /// batch sizes and a tiny channel window force multi-batch streams
    /// through the interconnect.
    #[test]
    fn parallel_equals_serial_at_every_worker_count(spec in spec_strategy()) {
        let fx = fixture();
        let registry = Arc::new(ColumnRegistry::new());
        let (expr, output) = build_query(&spec, &registry);
        let plan = optimize(&expr, &registry, &output);
        let serial = ExecEngine::new(&fx.db).run(&plan, &output).expect("serial");
        for batch_size in [1usize, 7, 1024] {
            let mut db = fx.db.clone();
            db.cluster.batch_size = batch_size;
            let col = ExecEngine::new(&db).run_columnar(&plan, &output).expect("columnar");
            prop_assert_eq!(
                &col.rows,
                &serial.rows,
                "columnar(batch_size={}) != serial\nspec {:?}\nplan:\n{}",
                batch_size,
                spec,
                orca_expr::pretty::explain_physical(&plan)
            );
            prop_assert_eq!(
                col.sim_seconds.to_bits(),
                serial.sim_seconds.to_bits(),
                "columnar simulated clock diverged at batch_size={}",
                batch_size
            );
        }
        for workers in [1usize, 2, 4] {
            let engine = ParallelEngine::with_config(&fx.db, ParallelConfig {
                workers,
                batch_rows: 7,
                channel_capacity: 2,
                deadline: None,
                ..ParallelConfig::default()
            });
            let par = engine.run(&plan, &output).expect("parallel");
            prop_assert_eq!(
                &par.rows,
                &serial.rows,
                "parallel({}) != serial\nspec {:?}\nplan:\n{}",
                workers,
                spec,
                orca_expr::pretty::explain_physical(&plan)
            );
            prop_assert_eq!(
                par.parallel.sim_seconds.to_bits(),
                serial.sim_seconds.to_bits(),
                "parallel({}) simulated clock diverged",
                workers
            );
        }
        let expected = run_reference(&fx.db, &expr, &output).expect("reference");
        prop_assert_eq!(sort_rows(serial.rows), sort_rows(expected));
    }
}

/// An always-false predicate drives empty batches through every stage
/// (filters, joins, aggregation, motions) of both kernels at several
/// batch sizes — the all-pruned edge case must stay byte-identical too.
#[test]
fn empty_streams_are_identical_across_kernels() {
    let fx = fixture();
    let registry = Arc::new(ColumnRegistry::new());
    let spec = QuerySpec {
        tables: vec![0, 1],
        joins: vec![(0, 0, 0)],
        filters: vec![(0, 0, 1), (0, 2, 1)], // c = 1 AND c < 1: unsatisfiable
        agg: Some((0, true)),
        limit: None,
    };
    let (expr, output) = build_query(&spec, &registry);
    let plan = optimize(&expr, &registry, &output);
    let serial = ExecEngine::new(&fx.db).run(&plan, &output).expect("serial");
    assert!(serial.rows.is_empty(), "filter should prune every row");
    for batch_size in [1usize, 7, 1024] {
        let mut db = fx.db.clone();
        db.cluster.batch_size = batch_size;
        let col = ExecEngine::new(&db)
            .run_columnar(&plan, &output)
            .expect("columnar");
        assert_eq!(col.rows, serial.rows);
        assert_eq!(col.sim_seconds.to_bits(), serial.sim_seconds.to_bits());
    }
    let engine = ParallelEngine::with_config(
        &fx.db,
        ParallelConfig {
            workers: 2,
            batch_rows: 7,
            channel_capacity: 2,
            deadline: None,
            ..ParallelConfig::default()
        },
    );
    let par = engine.run(&plan, &output).expect("parallel");
    assert_eq!(par.rows, serial.rows);
    assert_eq!(
        par.parallel.sim_seconds.to_bits(),
        serial.sim_seconds.to_bits()
    );
}

/// A deliberately motion-heavy plan: two redistributes and a gather over
/// a three-way join with aggregation.
fn motion_heavy_plan() -> (PhysicalPlan, Vec<ColId>) {
    let registry = Arc::new(ColumnRegistry::new());
    let spec = QuerySpec {
        tables: vec![0, 1, 2],
        joins: vec![(1, 2, 0), (2, 1, 0)],
        filters: vec![],
        agg: Some((1, true)),
        limit: None,
    };
    let (expr, output) = build_query(&spec, &registry);
    (optimize(&expr, &registry, &output), output)
}

/// A pre-set abort must unblock every gang promptly — senders blocked on
/// a full two-batch window included — and surface as an "aborted" error
/// with all threads joined (scoped spawning guarantees the join; the
/// test guards against deadlock via an outer timeout thread).
#[test]
fn mid_query_abort_drains_without_deadlock() {
    let fx = fixture();
    let (plan, output) = motion_heavy_plan();
    let abort = Arc::new(AbortSignal::new());
    abort.abort();
    let engine = ParallelEngine::with_config(
        &fx.db,
        ParallelConfig {
            workers: 2,
            batch_rows: 1,
            channel_capacity: 1,
            deadline: None,
            ..ParallelConfig::default()
        },
    );
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let res = engine.run_with_abort(&plan, &output, &abort);
            let err = res.expect_err("aborted run must not succeed");
            assert_eq!(err.kind(), "aborted");
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("aborted query deadlocked instead of draining");
    });
}

/// An immediate deadline expires mid-flight and is reported as a timeout;
/// the tiny interconnect window means senders are very likely parked on
/// backpressure when the deadline fires.
#[test]
fn deadline_under_backpressure_times_out_cleanly() {
    let fx = fixture();
    let (plan, output) = motion_heavy_plan();
    let engine = ParallelEngine::with_config(
        &fx.db,
        ParallelConfig {
            workers: 2,
            batch_rows: 1,
            channel_capacity: 1,
            deadline: Some(Duration::ZERO),
            ..ParallelConfig::default()
        },
    );
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let err = engine
                .run(&plan, &output)
                .expect_err("zero deadline must expire");
            assert_eq!(err.kind(), "timeout");
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("deadline expiry deadlocked instead of draining");
    });
}

// ---------------------------------------------------------------------
// Cross-slice CTE spooling: hand-built physical shapes whose producer
// and consumers land in different slices. These used to drop the whole
// query to the serial engine; now they must run through the shared
// spool — byte-identically, with zero fallbacks — at every worker
// count.
// ---------------------------------------------------------------------

/// Leaf scan of fixture table `dt{t}` with output ids starting at `first`.
fn fixture_scan(t: usize, first: u32) -> PhysicalPlan {
    let fx = fixture();
    let mdid = fx.provider.table_by_name(&format!("dt{t}")).expect("table");
    PhysicalPlan::leaf(PhysicalOp::TableScan {
        table: TableRef(fx.provider.table(mdid).expect("desc")),
        cols: (0..NCOLS).map(|c| ColId(first + c)).collect(),
        parts: None,
    })
}

fn cte_producer(id: CteId, first: u32, child: PhysicalPlan) -> PhysicalPlan {
    PhysicalPlan::new(
        PhysicalOp::CteProducer {
            id,
            cols: (0..NCOLS).map(|c| ColId(first + c)).collect(),
        },
        vec![child],
    )
}

fn cte_scan(id: CteId, first: u32, producer_first: u32) -> PhysicalPlan {
    PhysicalPlan::leaf(PhysicalOp::CteScan {
        id,
        cols: (0..NCOLS).map(|c| ColId(first + c)).collect(),
        producer_cols: (0..NCOLS).map(|c| ColId(producer_first + c)).collect(),
    })
}

fn mot(kind: MotionKind, child: PhysicalPlan) -> PhysicalPlan {
    PhysicalPlan::new(PhysicalOp::Motion { kind }, vec![child])
}

/// Row-serial oracle vs the parallel engine at 1, 2 and 4 workers:
/// byte-identical rows and simulated time, zero serial fallbacks, and the
/// expected number of spool slices. Returns the last run's stats.
fn assert_spooled_identical(
    plan: &PhysicalPlan,
    output: &[ColId],
    expect_spools: usize,
) -> orca_executor::ParallelStats {
    let fx = fixture();
    let serial = ExecEngine::new(&fx.db).run(plan, output).expect("serial");
    let mut last = None;
    for workers in [1usize, 2, 4] {
        let engine = ParallelEngine::with_config(
            &fx.db,
            ParallelConfig {
                workers,
                batch_rows: 7,
                channel_capacity: 2,
                deadline: None,
                ..ParallelConfig::default()
            },
        );
        let par = engine.run(plan, output).expect("parallel");
        assert_eq!(
            par.rows, serial.rows,
            "workers={workers} diverged from serial"
        );
        assert_eq!(
            par.parallel.sim_seconds.to_bits(),
            serial.sim_seconds.to_bits(),
            "workers={workers} simulated clock diverged from serial"
        );
        assert!(
            !par.parallel.serial_fallback,
            "cross-slice CTE must spool, not fall back to serial"
        );
        assert_eq!(par.parallel.cte_spools, expect_spools);
        assert!(par.parallel.spool_rows > 0, "spool must carry rows");
        last = Some(par.parallel);
    }
    last.unwrap()
}

/// One producer, two consumers on opposite sides of a join, each behind
/// its own redistribute — three slices consume one materialization.
#[test]
fn cte_with_two_cross_slice_consumers_is_identical() {
    let id = CteId(7);
    let join = PhysicalPlan::new(
        PhysicalOp::HashJoin {
            kind: JoinKind::Inner,
            left_keys: vec![ColId(10)],
            right_keys: vec![ColId(20)],
            residual: None,
        },
        vec![
            mot(
                MotionKind::Redistribute(vec![ColId(10)]),
                cte_scan(id, 10, 0),
            ),
            mot(
                MotionKind::Redistribute(vec![ColId(20)]),
                cte_scan(id, 20, 0),
            ),
        ],
    );
    let plan = mot(
        MotionKind::Gather,
        PhysicalPlan::new(
            PhysicalOp::Sequence { id },
            vec![cte_producer(id, 0, fixture_scan(0, 0)), join],
        ),
    );
    assert_spooled_identical(&plan, &[ColId(10), ColId(21)], 1);
}

/// The consumer sits under a join against a base table in another slice:
/// the producer is hoisted while the rest of the join pipeline stays
/// parallel.
#[test]
fn cte_consumer_under_join_with_base_table_is_identical() {
    let id = CteId(3);
    let join = PhysicalPlan::new(
        PhysicalOp::HashJoin {
            kind: JoinKind::Inner,
            left_keys: vec![ColId(20)],
            right_keys: vec![ColId(10)],
            residual: None,
        },
        vec![
            fixture_scan(2, 20), // replicated base table
            mot(
                MotionKind::Redistribute(vec![ColId(10)]),
                cte_scan(id, 10, 0),
            ),
        ],
    );
    let plan = mot(
        MotionKind::Gather,
        PhysicalPlan::new(
            PhysicalOp::Sequence { id },
            vec![cte_producer(id, 0, fixture_scan(1, 0)), join],
        ),
    );
    assert_spooled_identical(&plan, &[ColId(21), ColId(12)], 1);
}

/// Nested spooling: a hoisted producer whose subtree consumes *another*
/// CTE across a motion, so both producers must land in spool slices (the
/// slicer's fixpoint case).
#[test]
fn nested_cte_producers_both_spool_identically() {
    let a = CteId(1);
    let b = CteId(2);
    let inner = PhysicalPlan::new(
        PhysicalOp::Sequence { id: b },
        vec![
            cte_producer(
                b,
                10,
                mot(
                    MotionKind::Redistribute(vec![ColId(10)]),
                    cte_scan(a, 10, 0),
                ),
            ),
            mot(
                MotionKind::Redistribute(vec![ColId(21)]),
                cte_scan(b, 20, 10),
            ),
        ],
    );
    let plan = mot(
        MotionKind::Gather,
        PhysicalPlan::new(
            PhysicalOp::Sequence { id: a },
            vec![cte_producer(a, 0, fixture_scan(0, 0)), inner],
        ),
    );
    assert_spooled_identical(&plan, &[ColId(20), ColId(22)], 2);
}

/// The same motion-heavy plan completes — byte-identically — with the
/// smallest legal interconnect window, proving backpressure alone never
/// wedges the gang topology.
#[test]
fn tiny_interconnect_window_still_completes() {
    let fx = fixture();
    let (plan, output) = motion_heavy_plan();
    let serial = ExecEngine::new(&fx.db).run(&plan, &output).expect("serial");
    let engine = ParallelEngine::with_config(
        &fx.db,
        ParallelConfig {
            workers: 1,
            batch_rows: 1,
            channel_capacity: 1,
            deadline: Some(Duration::from_secs(60)),
            ..ParallelConfig::default()
        },
    );
    let par = engine.run(&plan, &output).expect("parallel");
    assert_eq!(par.rows, serial.rows);
    assert!(par.parallel.num_slices >= 3, "plan should be motion-heavy");
    assert!(par.parallel.motion_rows() > 0);
}

// ---------------------------------------------------------------------------
// Zone-map chunk skipping: a pruned fused scan must be observable only in
// the `chunks_skipped` / `dict_hits` counters — rows, order and the
// simulated clock stay byte-identical to the row kernel, at every batch
// size and worker count.
// ---------------------------------------------------------------------------

/// 400 rows in 16-row chunks across 4 segments: z0 ascending ints (tight
/// zone ranges), z1 ints with every 7th value NULL, z2 low-cardinality
/// strings in runs of 40 (dictionary-encoded per chunk).
fn zone_fixture() -> &'static (Database, TableRef) {
    static FX: OnceLock<(Database, TableRef)> = OnceLock::new();
    FX.get_or_init(|| {
        let desc = Arc::new(orca_catalog::TableDesc::new(
            orca_common::MdId::new(orca_common::SysId::Gpdb, 77, 1),
            "zt",
            vec![
                ColumnMeta::new("z0", DataType::Int),
                ColumnMeta::new("z1", DataType::Int),
                ColumnMeta::new("z2", DataType::Str),
            ],
            Distribution::Hashed(vec![0]),
        ));
        let rows: Vec<Vec<Datum>> = (0..400i64)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    if i % 7 == 0 {
                        Datum::Null
                    } else {
                        Datum::Int((i * 3) % 50)
                    },
                    Datum::Str(format!("cat{}", i / 40)),
                ]
            })
            .collect();
        let mut db = Database::new(SegmentConfig::default().with_segments(SEGMENTS));
        db.cluster.batch_size = 16; // chunk size at load time
        db.load_table(desc.clone(), rows).expect("load zone table");
        (db, TableRef(desc))
    })
}

const Z0: ColId = ColId(90);
const Z1: ColId = ColId(91);
const Z2: ColId = ColId(92);

fn zone_scan_plan(pred: ScalarExpr) -> PhysicalPlan {
    let (_, table) = zone_fixture();
    PhysicalPlan::new(
        PhysicalOp::Filter { pred },
        vec![PhysicalPlan::leaf(PhysicalOp::TableScan {
            table: table.clone(),
            cols: vec![Z0, Z1, Z2],
            parts: None,
        })],
    )
}

/// One randomly generated prunable conjunct.
#[derive(Debug, Clone)]
enum ZConj {
    /// `z0 <op> lit` — op index into {Lt, Le, Gt, Ge, Eq}.
    C0(u8, i64),
    /// `z2 = 'cat{n}'` (n up to 12: some categories don't exist).
    C2Eq(usize),
    /// `z2 IN ('cat..', ...)`.
    C2In(Vec<usize>),
    /// `z1 IS NULL` / `NOT (z1 IS NULL)`.
    NullC1(bool),
}

fn zconj_expr(c: &ZConj) -> ScalarExpr {
    match c {
        ZConj::C0(o, v) => ScalarExpr::cmp(
            [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq][(*o as usize) % 5],
            ScalarExpr::col(Z0),
            ScalarExpr::int(*v),
        ),
        ZConj::C2Eq(n) => ScalarExpr::eq(
            ScalarExpr::col(Z2),
            ScalarExpr::Const(Datum::Str(format!("cat{n}"))),
        ),
        ZConj::C2In(ns) => ScalarExpr::InList {
            expr: Box::new(ScalarExpr::col(Z2)),
            list: ns
                .iter()
                .map(|n| ScalarExpr::Const(Datum::Str(format!("cat{n}"))))
                .collect(),
            negated: false,
        },
        ZConj::NullC1(negated) => {
            let e = ScalarExpr::IsNull(Box::new(ScalarExpr::col(Z1)));
            if *negated {
                ScalarExpr::Not(Box::new(e))
            } else {
                e
            }
        }
    }
}

fn zconj_strategy() -> impl Strategy<Value = Vec<ZConj>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..5, -10i64..450).prop_map(|(o, v)| ZConj::C0(o, v)),
            (0usize..13).prop_map(ZConj::C2Eq),
            prop::collection::vec(0usize..13, 1..4).prop_map(ZConj::C2In),
            any::<bool>().prop_map(ZConj::NullC1),
        ],
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Zone-pruned scans ≡ unpruned: for random prunable predicates over
    /// the chunked fixture, the fused columnar scan (batch sizes 1, 7,
    /// 1024 — below and above the 16-row chunk size) and the parallel
    /// engine at 1/2/4 workers all reproduce the row-serial oracle byte
    /// for byte, with a bit-equal simulated clock.
    #[test]
    fn zone_pruned_scan_equals_unpruned(conjs in zconj_strategy()) {
        let (db, _) = zone_fixture();
        let plan = zone_scan_plan(ScalarExpr::and(conjs.iter().map(zconj_expr).collect()));
        let output = vec![Z0, Z1, Z2];
        let serial = ExecEngine::new(db).run(&plan, &output).expect("row serial");
        prop_assert_eq!(serial.stats.chunks_skipped, 0, "row kernel never skips");
        for batch_size in [1usize, 7, 1024] {
            let mut db2 = db.clone();
            db2.cluster.batch_size = batch_size;
            let col = ExecEngine::new(&db2).run_columnar(&plan, &output).expect("columnar");
            prop_assert_eq!(
                &col.rows, &serial.rows,
                "pruned columnar(batch_size={}) != row serial for {:?}",
                batch_size, conjs
            );
            prop_assert_eq!(
                col.sim_seconds.to_bits(),
                serial.sim_seconds.to_bits(),
                "simulated clock diverged at batch_size={} for {:?}",
                batch_size, conjs
            );
        }
        for workers in [1usize, 2, 4] {
            let engine = ParallelEngine::with_config(db, ParallelConfig {
                workers,
                batch_rows: 7,
                channel_capacity: 2,
                deadline: None,
                ..ParallelConfig::default()
            });
            let par = engine.run(&plan, &output).expect("parallel");
            prop_assert_eq!(
                &par.rows, &serial.rows,
                "parallel({}) != serial for {:?}",
                workers, conjs
            );
            prop_assert_eq!(
                par.parallel.sim_seconds.to_bits(),
                serial.sim_seconds.to_bits(),
                "parallel({}) simulated clock diverged for {:?}",
                workers, conjs
            );
        }
    }
}

/// A selective range over the ascending column must actually skip chunks
/// (the fixture has 16-row chunks, so `z0 < 40` leaves most chunks with
/// `min > 40`) while producing exactly the row kernel's output.
#[test]
fn selective_range_skips_chunks() {
    let (db, _) = zone_fixture();
    let plan = zone_scan_plan(ScalarExpr::cmp(
        CmpOp::Lt,
        ScalarExpr::col(Z0),
        ScalarExpr::int(40),
    ));
    let output = vec![Z0, Z1, Z2];
    let row = ExecEngine::new(db).run(&plan, &output).expect("row");
    let col = ExecEngine::new(db)
        .run_columnar(&plan, &output)
        .expect("columnar");
    assert_eq!(col.rows, row.rows);
    assert_eq!(col.rows.len(), 40);
    assert_eq!(col.sim_seconds.to_bits(), row.sim_seconds.to_bits());
    assert!(
        col.stats.chunks_skipped > 0,
        "z0 < 40 should zone-prune chunks, skipped={}",
        col.stats.chunks_skipped
    );
    assert_eq!(row.stats.chunks_skipped, 0);
}

/// A string-equality conjunct over the dictionary-encoded column must be
/// answered in code space: chunks without the category are skipped
/// outright, chunks with it count a dictionary hit — and the output is
/// byte-identical to the row kernel either way.
#[test]
fn dict_equality_skips_and_counts_hits() {
    let (db, _) = zone_fixture();
    let plan = zone_scan_plan(ScalarExpr::eq(
        ScalarExpr::col(Z2),
        ScalarExpr::Const(Datum::Str("cat2".into())),
    ));
    let output = vec![Z0, Z1, Z2];
    let row = ExecEngine::new(db).run(&plan, &output).expect("row");
    let col = ExecEngine::new(db)
        .run_columnar(&plan, &output)
        .expect("columnar");
    assert_eq!(col.rows, row.rows);
    assert_eq!(col.rows.len(), 40, "one 40-row category run");
    assert_eq!(col.sim_seconds.to_bits(), row.sim_seconds.to_bits());
    assert!(col.stats.chunks_skipped > 0, "absent-category chunks skip");
    assert!(
        col.stats.dict_hits > 0,
        "present-category chunks hit the dict"
    );
}
