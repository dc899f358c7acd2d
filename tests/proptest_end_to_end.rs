//! Randomized end-to-end equivalence: generate random logical queries over
//! random data; the Orca-optimized, MPP-executed result must equal the
//! naive single-node reference interpretation. Also: random job graphs on
//! the GPOS scheduler always complete with correct goal deduplication.

use orca::engine::{Optimizer, OptimizerConfig, QueryReqs};
use orca_catalog::provider::MdProvider as _;
use orca_catalog::stats::ColumnStats;
use orca_catalog::{ColumnMeta, Distribution, MemoryProvider, TableStats};
use orca_common::{ColId, DataType, Datum, SegmentConfig};
use orca_executor::engine::sort_rows;
use orca_executor::reference::run_reference;
use orca_executor::{Database, ExecEngine};
use orca_expr::logical::{AggStage, JoinKind, LogicalExpr, LogicalOp, TableRef};
use orca_expr::props::OrderSpec;
use orca_expr::scalar::{AggFunc, CmpOp, ScalarExpr};
use orca_expr::ColumnRegistry;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const SEGMENTS: usize = 3;
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
            let name = format!("pt{t}");
            let id = provider.register(
                &name,
                (0..NCOLS)
                    .map(|c| ColumnMeta::new(&format!("c{c}"), DataType::Int))
                    .collect(),
                dist,
            );
            // Deterministic pseudo-random data with overlapping domains
            // and some NULLs.
            let rows: Vec<Vec<Datum>> = (0..120)
                .map(|i| {
                    (0..NCOLS)
                        .map(|c| {
                            let v = (i * 7 + (c as i64) * 13 + (t as i64) * 3) % 17;
                            if v == 16 {
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

/// Declarative random query: a left-deep join chain over distinct tables
/// with random join columns, filters, and an optional aggregation.
#[derive(Debug, Clone)]
struct QuerySpec {
    tables: Vec<usize>,
    /// join i connects tables[i+1] to tables[0..=i]: (left col offset in
    /// the accumulated output, right col 0..3, join kind).
    joins: Vec<(u32, u32, u8)>,
    filters: Vec<(u32, u8, i64)>,
    agg: Option<(u32, bool)>,
    limit: Option<u64>,
}

fn spec_strategy() -> impl Strategy<Value = QuerySpec> {
    (
        prop::sample::subsequence(vec![0usize, 1, 2], 1..=3).prop_shuffle(),
        prop::collection::vec((0u32..NCOLS, 0u32..NCOLS, 0u8..4), 0..2),
        prop::collection::vec((0u32..NCOLS, 0u8..5, 0i64..16), 0..3),
        prop::option::of((0u32..NCOLS, any::<bool>())),
        prop::option::of(1u64..20),
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
    // Register table columns 0..9 in order, then extra agg columns.
    while registry.len() < (3 * NCOLS) as usize {
        registry.fresh(&format!("c{}", registry.len()), DataType::Int);
    }
    let get = |t: usize| {
        let mdid = fx.provider.table_by_name(&format!("pt{t}")).expect("table");
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
    // Filters over whatever is visible.
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
    // Optional aggregation.
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
    // Optional deterministic top-N (full order over the output).
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Optimized-and-executed equals reference for random queries, at 1
    /// and 4 scheduler workers.
    #[test]
    fn random_queries_match_reference(spec in spec_strategy(), workers in prop::sample::select(vec![1usize, 4])) {
        let fx = fixture();
        let registry = Arc::new(ColumnRegistry::new());
        let (expr, output) = build_query(&spec, &registry);
        let optimizer = Optimizer::new(
            fx.provider.clone(),
            OptimizerConfig::default()
                .with_workers(workers)
                .with_cluster(SegmentConfig::default().with_segments(SEGMENTS)),
        );
        let reqs = QueryReqs::gather_all(output.clone());
        let (plan, _) = optimizer
            .optimize(&expr, &registry, &reqs)
            .expect("optimizes");
        let engine = ExecEngine::new(&fx.db);
        let got = engine.run(&plan, &output).expect("executes");
        let expected = run_reference(&fx.db, &expr, &output).expect("reference");
        // Limit with a full-output order is deterministic up to ties in
        // the sort key; compare multisets after applying the same sort.
        prop_assert_eq!(
            sort_rows(got.rows.clone()),
            sort_rows(expected),
            "spec {:?}\nplan:\n{}",
            spec,
            orca_expr::pretty::explain_physical(&plan)
        );
    }
}

// ---------------------------------------------------------------------
// Scheduler: random dependency graphs
// ---------------------------------------------------------------------

mod sched_props {
    use super::*;
    use orca_gpos::sched::{Job, JobHandle, Scheduler, StepResult};
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Ctx {
        completions: AtomicUsize,
        goal_runs: AtomicUsize,
    }

    /// A job that spawns a random mix of anonymous children and shared
    /// goals, driven by a precomputed shape vector.
    struct RandomJob {
        shape: Vec<(bool, u64)>,
        depth: u8,
        spawned: bool,
    }

    impl Job<Ctx, u64> for RandomJob {
        fn step(&mut self, h: &JobHandle<'_, Ctx, u64>, ctx: &Ctx) -> StepResult {
            if self.depth > 0 && !self.spawned {
                self.spawned = true;
                let mut waiting = false;
                for (anonymous, goal) in &self.shape {
                    if *anonymous {
                        h.spawn(Box::new(RandomJob {
                            shape: self.shape.clone(),
                            depth: self.depth - 1,
                            spawned: false,
                        }));
                        waiting = true;
                    } else {
                        waiting |= h.spawn_goal(*goal, || Box::new(GoalWork(*goal)));
                    }
                }
                if waiting {
                    return StepResult::Suspended;
                }
            }
            ctx.completions.fetch_add(1, Ordering::Relaxed);
            StepResult::Done
        }
    }

    struct GoalWork(#[allow(dead_code)] u64);
    impl Job<Ctx, u64> for GoalWork {
        fn step(&mut self, _h: &JobHandle<'_, Ctx, u64>, ctx: &Ctx) -> StepResult {
            ctx.goal_runs.fetch_add(1, Ordering::Relaxed);
            StepResult::Done
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random job graphs complete (no deadlock, no lost wakeups) and
        /// every goal runs exactly once.
        #[test]
        fn random_job_graphs_complete(
            shape in prop::collection::vec((any::<bool>(), 0u64..6), 1..4),
            depth in 1u8..4,
            roots in 1usize..6,
        ) {
            let sched: Scheduler<Ctx, u64> = Scheduler::new();
            let ctx = Ctx {
                completions: AtomicUsize::new(0),
                goal_runs: AtomicUsize::new(0),
            };
            let jobs: Vec<Box<dyn Job<Ctx, u64>>> = (0..roots)
                .map(|_| {
                    Box::new(RandomJob {
                        shape: shape.clone(),
                        depth,
                        spawned: false,
                    }) as Box<dyn Job<Ctx, u64>>
                })
                .collect();
            sched.run(&ctx, jobs).expect("completes");
            // Distinct goals requested ≤ 6; each ran at most once, and at
            // least once if any root requests goals.
            let distinct_goals: std::collections::HashSet<u64> = shape
                .iter()
                .filter(|(anon, _)| !anon)
                .map(|(_, g)| *g)
                .collect();
            prop_assert!(ctx.goal_runs.load(Ordering::Relaxed) <= distinct_goals.len());
            prop_assert!(ctx.completions.load(Ordering::Relaxed) >= roots);
        }
    }
}
