//! The heavyweight correctness gate: every one of the 111 suite queries is
//! compiled, optimized by Orca, executed on the MPP simulator, and checked
//! against the naive single-node reference interpretation of the bound
//! logical tree. A sample of queries additionally runs through the legacy
//! Planner and the rule-based rival planners — all engines must agree on
//! results (only speed may differ). The first few suite plans also run in
//! every execution mode — both kernels, the parallel engine at several
//! worker counts, a shared fragment cache, a starved memory grant — and
//! must reproduce the row kernel's rows in order.

use orca::engine::{Optimizer, OptimizerConfig, QueryReqs};
use orca_catalog::MemoryProvider;
use orca_common::{ColId, SegmentConfig};
use orca_executor::engine::sort_rows;
use orca_executor::reference::run_reference;
use orca_executor::{
    Database, ExecEngine, ExecResult, ExecStats, FragmentCache, MemoryTracker, ParallelConfig,
    ParallelEngine, Row,
};
use orca_expr::physical::PhysicalPlan;
use orca_expr::LogicalExpr;
use orca_planner::{EngineProfile, LegacyPlanner};
use orca_tpcds::{build_catalog, suite};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

const SCALE: f64 = 0.02;
const SEGMENTS: usize = 4;

fn cluster() -> SegmentConfig {
    SegmentConfig::default().with_segments(SEGMENTS)
}

/// The suite's catalog and data, generated once and shared read-only by
/// every test in this binary.
fn catalog() -> &'static (Arc<MemoryProvider>, Database) {
    static CATALOG: OnceLock<(Arc<MemoryProvider>, Database)> = OnceLock::new();
    CATALOG.get_or_init(|| build_catalog(SCALE, cluster()))
}

/// The reference interpreter's rows for suite query `id`, computed once
/// and shared by every test in this binary: binding the same SQL always
/// yields the same tree, and the naive interpretation of a few suite
/// queries takes seconds each in a debug build.
fn reference_rows(id: &str, expr: &LogicalExpr, output_cols: &[ColId]) -> Vec<Row> {
    type Cells = Mutex<HashMap<String, Arc<OnceLock<Vec<Row>>>>>;
    static ROWS: OnceLock<Cells> = OnceLock::new();
    let cell = Arc::clone(
        ROWS.get_or_init(Cells::default)
            .lock()
            .unwrap()
            .entry(id.to_string())
            .or_default(),
    );
    cell.get_or_init(|| {
        run_reference(&catalog().1, expr, output_cols)
            .unwrap_or_else(|e| panic!("{id} reference: {e}"))
    })
    .clone()
}

#[test]
fn all_111_queries_orca_vs_reference() {
    let (provider, db) = catalog();
    let engine = ExecEngine::new(db);
    let optimizer = Optimizer::new(
        provider.clone(),
        OptimizerConfig::default()
            .with_workers(2)
            .with_cluster(cluster()),
    );
    let mut checked = 0;
    for q in suite() {
        let registry = Arc::new(orca_expr::ColumnRegistry::new());
        let bound = orca_sql::compile(&q.sql, provider.as_ref(), &registry)
            .unwrap_or_else(|e| panic!("{} bind: {e}\n{}", q.id, q.sql));
        let reqs = QueryReqs {
            output_cols: bound.output_cols.clone(),
            order: bound.order.clone(),
            dist: orca_expr::props::DistSpec::Singleton,
        };
        let (plan, stats) = optimizer
            .optimize(&bound.expr, &registry, &reqs)
            .unwrap_or_else(|e| panic!("{} optimize: {e}\n{}", q.id, q.sql));
        assert!(stats.plan_cost.is_finite(), "{}", q.id);
        let got = engine.run(&plan, &bound.output_cols).unwrap_or_else(|e| {
            panic!(
                "{} exec: {e}\n{}",
                q.id,
                orca_expr::pretty::explain_physical(&plan)
            )
        });
        let expected = reference_rows(&q.id, &bound.expr, &bound.output_cols);
        // LIMIT without full ORDER BY is nondeterministic in which rows
        // survive; compare counts there, exact multisets otherwise.
        let deterministic = !q.sql.to_lowercase().contains("limit")
            || bound.order.0.len() >= bound.output_cols.len();
        if deterministic {
            assert_eq!(
                sort_rows(got.rows.clone()),
                sort_rows(expected),
                "{} diverged\n{}\n{}",
                q.id,
                q.sql,
                orca_expr::pretty::explain_physical(&plan)
            );
        } else {
            assert_eq!(
                got.rows.len(),
                expected.len(),
                "{} row count diverged\n{}",
                q.id,
                q.sql
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 111);
}

#[test]
fn legacy_planner_agrees_on_results() {
    let (provider, db) = catalog();
    let engine = ExecEngine::new(db);
    let cache = orca_catalog::MdCache::new();
    // Legacy plans run the same queries; results must match the reference
    // even though the plans are worse. Sample every 4th query to bound
    // test time (SubPlan execution is deliberately slow).
    for (i, q) in suite().into_iter().enumerate() {
        if i % 4 != 0 {
            continue;
        }
        let registry = Arc::new(orca_expr::ColumnRegistry::new());
        let bound = orca_sql::compile(&q.sql, provider.as_ref(), &registry).expect(&q.id);
        let md = orca_catalog::MdAccessor::new(
            cache.clone(),
            provider.clone() as Arc<dyn orca_catalog::provider::MdProvider>,
        );
        let planner = LegacyPlanner::new(&md, &registry);
        let (plan, est_cost) = planner
            .plan(&bound.expr, &bound.order)
            .unwrap_or_else(|e| panic!("{} legacy plan: {e}", q.id));
        assert!(est_cost.is_finite());
        let got = engine.run(&plan, &bound.output_cols).unwrap_or_else(|e| {
            panic!(
                "{} legacy exec: {e}\n{}",
                q.id,
                orca_expr::pretty::explain_physical(&plan)
            )
        });
        let expected = reference_rows(&q.id, &bound.expr, &bound.output_cols);
        let deterministic = !q.sql.to_lowercase().contains("limit")
            || bound.order.0.len() >= bound.output_cols.len();
        if deterministic {
            assert_eq!(
                sort_rows(got.rows.clone()),
                sort_rows(expected),
                "{} legacy diverged\n{}",
                q.id,
                orca_expr::pretty::explain_physical(&plan)
            );
        } else {
            assert_eq!(got.rows.len(), expected.len(), "{} legacy count", q.id);
        }
    }
}

#[test]
fn rival_planners_agree_on_supported_queries() {
    let (provider, db) = catalog();
    // Run with generous memory so plans succeed (the OOM behavior is a
    // benchmark concern, not a correctness one).
    let engine = ExecEngine::new(db);
    for profile in [
        EngineProfile::impala(),
        EngineProfile::presto(),
        EngineProfile::stinger(),
    ] {
        let mut ran = 0;
        for q in suite() {
            if !profile.supports_all(&q.features) {
                continue;
            }
            let registry = Arc::new(orca_expr::ColumnRegistry::new());
            let bound = orca_sql::compile(&q.sql, provider.as_ref(), &registry).expect(&q.id);
            let (plan, _) = profile
                .plan(&bound.expr, &q.features, &bound.order, &registry)
                .unwrap_or_else(|e| panic!("{} {} plan: {e}", profile.name, q.id));
            let got = engine.run(&plan, &bound.output_cols).unwrap_or_else(|e| {
                panic!(
                    "{} {} exec: {e}\n{}",
                    profile.name,
                    q.id,
                    orca_expr::pretty::explain_physical(&plan)
                )
            });
            let expected = reference_rows(&q.id, &bound.expr, &bound.output_cols);
            let deterministic = !q.sql.to_lowercase().contains("limit")
                || bound.order.0.len() >= bound.output_cols.len();
            if deterministic {
                assert_eq!(
                    sort_rows(got.rows.clone()),
                    sort_rows(expected),
                    "{} {} diverged",
                    profile.name,
                    q.id
                );
            } else {
                assert_eq!(got.rows.len(), expected.len());
            }
            ran += 1;
        }
        assert!(ran > 0, "{} ran no queries", profile.name);
    }
}

/// How many suite queries the execution-mode tests run.
const EXEC_CORPUS: usize = 8;
const WORKER_LEVELS: [usize; 4] = [1, 2, 4, 8];

/// One optimized suite query with the row kernel's result, the oracle
/// every other execution mode must reproduce.
struct Executable {
    id: String,
    plan: PhysicalPlan,
    output_cols: Vec<ColId>,
    oracle: ExecResult,
}

/// The first [`EXEC_CORPUS`] suite queries, planned and run once on the
/// row kernel, shared by the execution-mode tests.
fn executable_corpus() -> (&'static Database, &'static [Executable]) {
    static CORPUS: OnceLock<Vec<Executable>> = OnceLock::new();
    let (provider, db) = catalog();
    let corpus = CORPUS.get_or_init(|| {
        let optimizer = Optimizer::new(
            provider.clone(),
            OptimizerConfig::default()
                .with_workers(2)
                .with_cluster(cluster()),
        );
        let engine = ExecEngine::new(db);
        suite()
            .into_iter()
            .take(EXEC_CORPUS)
            .map(|q| {
                let registry = Arc::new(orca_expr::ColumnRegistry::new());
                let bound = orca_sql::compile(&q.sql, provider.as_ref(), &registry).expect(&q.id);
                let reqs = QueryReqs {
                    output_cols: bound.output_cols.clone(),
                    order: bound.order.clone(),
                    dist: orca_expr::props::DistSpec::Singleton,
                };
                let (plan, _) = optimizer
                    .optimize(&bound.expr, &registry, &reqs)
                    .expect(&q.id);
                let oracle = engine.run(&plan, &bound.output_cols).expect(&q.id);
                Executable {
                    id: q.id,
                    plan,
                    output_cols: bound.output_cols,
                    oracle,
                }
            })
            .collect()
    });
    (db, corpus)
}

/// Rows in the oracle's order and a bit-equal simulated clock.
fn assert_matches_oracle(q: &Executable, mode: &str, rows: &[Row], sim_seconds: f64) {
    assert_eq!(rows, q.oracle.rows, "{} ({mode}): rows diverged", q.id);
    assert_eq!(
        sim_seconds.to_bits(),
        q.oracle.sim_seconds.to_bits(),
        "{} ({mode}): sim clock {sim_seconds} vs {} on the row kernel",
        q.id,
        q.oracle.sim_seconds
    );
}

fn spill_counters(stats: &ExecStats) -> (u64, u64, u64) {
    (
        stats.spill_partitions,
        stats.spill_bytes_written,
        stats.spill_bytes_read,
    )
}

#[test]
fn first_suite_queries_identical_in_every_execution_mode() {
    let (db, corpus) = executable_corpus();
    let engine = ExecEngine::new(db);
    let mut chunks_skipped = 0;
    for q in corpus {
        let res = engine.run_columnar(&q.plan, &q.output_cols).expect(&q.id);
        assert_matches_oracle(q, "columnar", &res.rows, res.sim_seconds);
        chunks_skipped += res.stats.chunks_skipped;
    }
    // The corpus carries selective range scans: zone maps must drop a chunk.
    assert!(chunks_skipped > 0, "zone maps skipped no chunk");

    for workers in WORKER_LEVELS {
        let engine = ParallelEngine::with_config(
            db,
            ParallelConfig {
                workers,
                ..ParallelConfig::default()
            },
        );
        let mode = format!("parallel, {workers} workers");
        for q in corpus {
            let res = engine.run(&q.plan, &q.output_cols).expect(&q.id);
            assert_matches_oracle(q, &mode, &res.rows, res.parallel.sim_seconds);
            // Cross-slice CTEs run through the shared spool, so any
            // fallback to the serial engine is a slicing bug.
            assert!(
                !res.parallel.serial_fallback,
                "{} ({mode}): fell back",
                q.id
            );
        }
    }

    // A second sweep through one fragment cache answers its scans from
    // the first sweep's fragments without changing a row.
    let fragments = Arc::new(FragmentCache::new(256 << 20));
    let engine = ExecEngine::new(db).with_fragments(Arc::clone(&fragments));
    for sweep in ["cold fragment cache", "warm fragment cache"] {
        for q in corpus {
            let res = engine.run_columnar(&q.plan, &q.output_cols).expect(&q.id);
            assert_matches_oracle(q, sweep, &res.rows, res.sim_seconds);
        }
    }
    let shared = fragments.stats();
    assert!(shared.inserted > 0 && shared.reused > 0, "{shared:?}");
    assert_eq!(shared.evictions, 0, "budget too small for the corpus");
}

#[test]
fn first_suite_queries_spill_identically_under_1kib_work_mem() {
    // Every mode must spill rather than fail, keep its peak within the
    // grant, return the unconstrained rows, and spill exactly what the
    // row kernel spills: spilling is deterministic, not load-dependent.
    const WORK_MEM: u64 = 1024;
    let granted = WORK_MEM * SEGMENTS as u64;
    let (db, corpus) = executable_corpus();
    let mut db = db.clone();
    db.cluster.work_mem_bytes = WORK_MEM;
    let grant = || Arc::new(MemoryTracker::granted(granted, SEGMENTS, None));
    let check = |q: &Executable, mode: &str, stats: &ExecStats, rows: &[Row]| {
        assert_eq!(rows, q.oracle.rows, "{} ({mode}): rows diverged", q.id);
        assert!(
            stats.peak_mem_bytes <= granted,
            "{} ({mode}): peak {} B exceeds the {granted} B grant",
            q.id,
            stats.peak_mem_bytes
        );
    };

    let engine = ExecEngine::new(&db).with_memory(grant());
    let row_spills: Vec<(u64, u64, u64)> = corpus
        .iter()
        .map(|q| {
            let res = engine.run(&q.plan, &q.output_cols).expect(&q.id);
            check(q, "row kernel", &res.stats, &res.rows);
            spill_counters(&res.stats)
        })
        .collect();
    assert!(
        row_spills.iter().any(|c| c.0 > 0),
        "nothing spilled under {WORK_MEM} B of work_mem"
    );

    let engine = ExecEngine::new(&db).with_memory(grant());
    for (q, spilled) in corpus.iter().zip(&row_spills) {
        let res = engine.run_columnar(&q.plan, &q.output_cols).expect(&q.id);
        check(q, "columnar", &res.stats, &res.rows);
        assert_eq!(spill_counters(&res.stats), *spilled, "{} (columnar)", q.id);
    }
    for workers in WORKER_LEVELS {
        let mut engine = ParallelEngine::with_config(
            &db,
            ParallelConfig {
                workers,
                ..ParallelConfig::default()
            },
        );
        engine.mem = Some(grant());
        let mode = format!("parallel, {workers} workers");
        for (q, spilled) in corpus.iter().zip(&row_spills) {
            let res = engine.run(&q.plan, &q.output_cols).expect(&q.id);
            check(q, &mode, &res.stats, &res.rows);
            assert_eq!(spill_counters(&res.stats), *spilled, "{} ({mode})", q.id);
        }
    }
}
