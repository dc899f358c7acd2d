//! Integration tests of the DXL boundary (Figure 2) and engine-level
//! behaviors: the full DXL-in/DXL-out path, the file-based metadata
//! provider, metadata-cache sharing across sessions, multi-stage
//! optimization with timeouts, rule disabling, and Memo rendering.

use orca::engine::{Optimizer, OptimizerConfig, QueryReqs, StageConfig};
use orca_catalog::provider::MdProvider;
use orca_catalog::stats::ColumnStats;
use orca_catalog::{ColumnMeta, Distribution, MemoryProvider, TableStats};
use orca_common::{ColId, DataType, Datum, OrcaError};
use orca_dxl::FileProvider;
use orca_expr::logical::{JoinKind, LogicalExpr, LogicalOp, TableRef};
use orca_expr::props::{DistSpec, OrderSpec};
use orca_expr::scalar::ScalarExpr;
use orca_expr::ColumnRegistry;
use std::sync::Arc;
use std::time::Duration;

fn provider_with_tables() -> Arc<MemoryProvider> {
    let p = Arc::new(MemoryProvider::new());
    for (name, rows) in [("t1", 10_000.0), ("t2", 50_000.0)] {
        let id = p.register(
            name,
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Hashed(vec![0]),
        );
        let values: Vec<Datum> = (0..1000).map(|i| Datum::Int(i % 250)).collect();
        p.set_stats(
            id,
            TableStats::new(rows, 2)
                .set_column(0, ColumnStats::from_column(&values, 16))
                .set_column(1, ColumnStats::from_column(&values, 16)),
        );
    }
    p
}

fn running_example_dxl(p: &MemoryProvider) -> String {
    let t1 = TableRef(p.table(p.table_by_name("t1").unwrap()).unwrap());
    let t2 = TableRef(p.table(p.table_by_name("t2").unwrap()).unwrap());
    let join = LogicalExpr::new(
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
    orca_dxl::query_to_dxl(&orca_dxl::DxlQuery {
        expr: join,
        output_cols: vec![ColId(0)],
        order: OrderSpec::by(&[ColId(0)]),
        dist: DistSpec::Singleton,
        columns: vec![
            ("t1.a".into(), DataType::Int),
            ("t1.b".into(), DataType::Int),
            ("t2.a".into(), DataType::Int),
            ("t2.b".into(), DataType::Int),
        ],
    })
}

/// Figure 2's loop: DXL query in, DXL plan out — no native structs at the
/// boundary.
#[test]
fn dxl_in_dxl_out() {
    let p = provider_with_tables();
    let optimizer = Optimizer::new(p.clone(), OptimizerConfig::default());
    let query_dxl = running_example_dxl(&p);
    let plan_dxl = optimizer.optimize_dxl(&query_dxl).expect("optimizes");
    assert!(plan_dxl.contains("dxl:Plan"));
    assert!(plan_dxl.contains("dxl:HashJoin"));
    // The emitted plan parses back and carries the Figure 6 shape.
    let plan = orca_dxl::parse_plan_doc(&plan_dxl, p.as_ref()).expect("parses");
    let text = orca_expr::pretty::explain_physical(&plan.plan);
    assert!(
        text.contains("GatherMerge") || text.contains("Gather"),
        "{text}"
    );
    assert!(text.contains("Redistribute"), "{text}");
    assert!(plan.cost > 0.0);
}

/// §5's offline mode: harvest metadata to a DXL file, reload it through
/// the file-based provider, and optimize with no live backend.
#[test]
fn file_provider_offline_optimization() {
    let p = provider_with_tables();
    let query_dxl = running_example_dxl(&p);
    // Harvest the metadata the query needs into a minimal DXL file.
    let parsed = orca_dxl::parse_query(&query_dxl, p.as_ref()).expect("parses");
    let metadata = orca::amper::harvest_metadata(&parsed.expr, p.as_ref()).expect("harvests");
    assert_eq!(metadata.tables.len(), 2);
    let dir = std::env::temp_dir().join("orca_file_provider_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metadata.dxl");
    FileProvider::save(&metadata, &path).expect("saves");

    // A brand-new optimizer against the file — no MemoryProvider at all.
    let file_provider = Arc::new(FileProvider::open(&path).expect("opens"));
    let optimizer = Optimizer::new(file_provider.clone(), OptimizerConfig::default());
    let plan_dxl = optimizer
        .optimize_dxl(&query_dxl)
        .expect("optimizes offline");
    assert!(plan_dxl.contains("dxl:HashJoin"));
    std::fs::remove_file(&path).ok();
}

/// The metadata cache is shared across optimizer sessions: the second
/// optimization of the same tables hits the cache instead of the provider.
#[test]
fn metadata_cache_shared_across_sessions() {
    let p = provider_with_tables();
    let optimizer = Optimizer::new(p.clone(), OptimizerConfig::default());
    let query_dxl = running_example_dxl(&p);
    optimizer.optimize_dxl(&query_dxl).expect("first run");
    let misses_after_first = optimizer.cache().miss_count();
    assert!(misses_after_first > 0);
    optimizer.optimize_dxl(&query_dxl).expect("second run");
    assert_eq!(
        optimizer.cache().miss_count(),
        misses_after_first,
        "second session must be served from the cache"
    );
    assert!(optimizer.cache().hit_count() > 0);
    assert!(optimizer.cache().bytes() > 0);
}

fn bound_join(p: &MemoryProvider, registry: &Arc<ColumnRegistry>) -> (LogicalExpr, QueryReqs) {
    for name in ["t1.a", "t1.b", "t2.a", "t2.b"] {
        registry.fresh(name, DataType::Int);
    }
    let t1 = TableRef(p.table(p.table_by_name("t1").unwrap()).unwrap());
    let t2 = TableRef(p.table(p.table_by_name("t2").unwrap()).unwrap());
    let join = LogicalExpr::new(
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
    (join, QueryReqs::gather_all(vec![ColId(0)]))
}

/// Multi-stage optimization: a restricted first stage with a cost
/// threshold escalates to the full stage, and the reported plan is the
/// better one.
#[test]
fn multistage_escalation_and_rule_subsets() {
    let p = provider_with_tables();
    let registry = Arc::new(ColumnRegistry::new());
    let (expr, reqs) = bound_join(&p, &registry);

    // Full optimization baseline.
    let full = Optimizer::new(p.clone(), OptimizerConfig::default());
    let (_, full_stats) = full.optimize(&expr, &registry, &reqs).expect("full");

    // Stage 1 = NL joins only (bad), threshold forces stage 2 = all rules.
    let staged = Optimizer::new(
        p.clone(),
        OptimizerConfig {
            stages: vec![
                StageConfig {
                    rules: Some(vec![
                        "Get2TableScan",
                        "Select2Filter",
                        "Project2Project",
                        "Join2NLJoin",
                    ]),
                    timeout: None,
                    cost_threshold: Some(0.001), // unreachable: always escalate
                },
                StageConfig::default(),
            ],
            ..OptimizerConfig::default()
        },
    );
    let (_, staged_stats) = staged.optimize(&expr, &registry, &reqs).expect("staged");
    assert_eq!(staged_stats.stages_run, 2);
    assert!(
        (staged_stats.plan_cost - full_stats.plan_cost).abs() < 1e-9,
        "escalation must recover the full-rule plan: {} vs {}",
        staged_stats.plan_cost,
        full_stats.plan_cost
    );

    // A stage whose rule set cannot implement the query at all is skipped
    // in favor of the next stage.
    let crippled_then_full = Optimizer::new(
        p.clone(),
        OptimizerConfig {
            stages: vec![
                StageConfig {
                    rules: Some(vec!["Get2TableScan"]), // no join implementation
                    timeout: None,
                    cost_threshold: None,
                },
                StageConfig::default(),
            ],
            ..OptimizerConfig::default()
        },
    );
    let (_, s) = crippled_then_full
        .optimize(&expr, &registry, &reqs)
        .expect("stage 2 rescues");
    assert!((s.plan_cost - full_stats.plan_cost).abs() < 1e-9);

    // All stages crippled → NoPlan.
    let hopeless = Optimizer::new(
        p.clone(),
        OptimizerConfig {
            stages: vec![StageConfig {
                rules: Some(vec!["Get2TableScan"]),
                timeout: None,
                cost_threshold: None,
            }],
            ..OptimizerConfig::default()
        },
    );
    let err = hopeless.optimize(&expr, &registry, &reqs).unwrap_err();
    assert!(matches!(err, OrcaError::NoPlan(_)), "{err}");
}

/// A zero-length stage timeout aborts that stage; a later stage still
/// produces the plan.
#[test]
fn stage_timeout_falls_through() {
    let p = provider_with_tables();
    let registry = Arc::new(ColumnRegistry::new());
    let (expr, reqs) = bound_join(&p, &registry);
    let optimizer = Optimizer::new(
        p.clone(),
        OptimizerConfig {
            stages: vec![
                StageConfig {
                    rules: None,
                    timeout: Some(Duration::ZERO),
                    cost_threshold: None,
                },
                StageConfig::default(),
            ],
            ..OptimizerConfig::default()
        },
    );
    let (_, stats) = optimizer
        .optimize(&expr, &registry, &reqs)
        .expect("stage 2");
    assert_eq!(stats.stages_run, 2);
    // And if *every* stage times out, the timeout error surfaces.
    let all_timeout = Optimizer::new(
        p,
        OptimizerConfig {
            stages: vec![StageConfig {
                rules: None,
                timeout: Some(Duration::ZERO),
                cost_threshold: None,
            }],
            ..OptimizerConfig::default()
        },
    );
    let err = all_timeout.optimize(&expr, &registry, &reqs).unwrap_err();
    // Deadline expiry surfaces as the *typed* timeout (distinct from
    // external cancellation) so serving layers can degrade instead of fail.
    assert_eq!(err.kind(), "timeout");
}

/// Disabling join reordering globally changes nothing about correctness
/// but can change the chosen plan cost; disabling an implementation rule
/// removes its operators from the plan.
#[test]
fn rule_disabling_is_respected() {
    let p = provider_with_tables();
    let registry = Arc::new(ColumnRegistry::new());
    let (expr, reqs) = bound_join(&p, &registry);
    let no_hash = Optimizer::new(
        p.clone(),
        OptimizerConfig {
            disabled_rules: vec!["Join2HashJoin"],
            ..OptimizerConfig::default()
        },
    );
    let (plan, _) = no_hash.optimize(&expr, &registry, &reqs).expect("plans");
    let text = orca_expr::pretty::explain_physical(&plan);
    assert!(!text.contains("HashJoin"), "{text}");
    assert!(text.contains("NLJoin"), "{text}");
}

/// The Memo renders Figure 6-style: groups, expressions (including
/// enforcers marked with `*`), and best-candidate lines per request.
#[test]
fn memo_explain_shows_figure6_structure() {
    let p = provider_with_tables();
    let registry = Arc::new(ColumnRegistry::new());
    let (expr, reqs) = bound_join(&p, &registry);
    let optimizer = Optimizer::new(p, OptimizerConfig::default());
    let (memo, root, req, _, _) = optimizer
        .optimize_with_memo(&expr, &registry, &reqs)
        .expect("optimizes");
    let text = memo.explain();
    assert!(text.contains("GROUP g0"));
    assert!(text.contains("InnerJoin"), "{text}");
    assert!(text.contains("InnerHashJoin"), "{text}");
    assert!(text.contains("*"), "enforcers are rendered: {text}");
    assert!(text.contains("req {Singleton"), "{text}");
    // The root group's context satisfies the original request.
    let g = memo.group(root);
    let best = g.best_for(memo.intern_req(&req)).expect("best candidate");
    assert!(best.derived.satisfies(&req));
    // TAQO can count a non-trivial plan space from this memo.
    let mut sampler = orca::taqo::PlanSampler::new(&memo);
    assert!(sampler.count(root, &req) >= 2.0, "multiple plans recorded");
}
