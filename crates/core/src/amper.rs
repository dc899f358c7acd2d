//! AMPERe — Automatic capture of Minimal Portable Executable Repros (§6.1).
//!
//! "An AMPERe dump is automatically triggered when an unexpected error is
//! encountered, but can also be produced on demand to investigate
//! suboptimal query plans. The dump captures the minimal amount of data
//! needed to reproduce a problem, including the input query, optimizer
//! configurations and metadata."
//!
//! A dump is fully self-contained DXL: replaying it builds a file-based
//! metadata provider from the embedded metadata section and spawns an
//! optimization session identical to the original (Figure 10). Dumps with
//! an `expected_plan` double as regression test cases: "when replaying the
//! dump file, Orca might generate a plan different from the expected one…
//! such discrepancy causes the test case to fail."

use crate::engine::{OptStats, Optimizer, OptimizerConfig};
use orca_catalog::provider::MdProvider;
use orca_common::{OrcaError, Result};
use orca_dxl::{DxlDump, DxlPlan, DxlQuery, MetadataDoc};
use orca_expr::logical::{LogicalExpr, LogicalOp};
use orca_expr::physical::PhysicalPlan;
use orca_expr::scalar::ScalarExpr;
use std::path::Path;
use std::sync::Arc;

/// Harvest the minimal metadata a query needs: every referenced table,
/// its statistics and its indexes ("the dump captures the state of the MD
/// Cache which includes only the metadata acquired during the course of
/// query optimization").
pub fn harvest_metadata(expr: &LogicalExpr, provider: &dyn MdProvider) -> Result<MetadataDoc> {
    let mut doc = MetadataDoc::default();
    let mut seen = Vec::new();
    harvest_rec(expr, provider, &mut doc, &mut seen)?;
    Ok(doc)
}

fn harvest_rec(
    expr: &LogicalExpr,
    provider: &dyn MdProvider,
    doc: &mut MetadataDoc,
    seen: &mut Vec<orca_common::MdId>,
) -> Result<()> {
    if let LogicalOp::Get { table, .. } = &expr.op {
        if !seen.contains(&table.mdid) {
            seen.push(table.mdid);
            doc.tables.push(table.0.clone());
            if let Ok(stats) = provider.stats(table.mdid) {
                doc.stats.push((table.mdid, stats));
            }
            if let Ok(indexes) = provider.indexes(table.mdid) {
                for ix in indexes.iter() {
                    doc.indexes.push(ix.clone());
                }
            }
        }
    }
    // Subquery markers hold whole trees; harvest them too.
    let mut result = Ok(());
    expr.op.for_each_scalar(&mut |s| {
        if result.is_ok() {
            result = harvest_scalar(s, provider, doc, seen);
        }
    });
    result?;
    for c in &expr.children {
        harvest_rec(c, provider, doc, seen)?;
    }
    Ok(())
}

fn harvest_scalar(
    e: &ScalarExpr,
    provider: &dyn MdProvider,
    doc: &mut MetadataDoc,
    seen: &mut Vec<orca_common::MdId>,
) -> Result<()> {
    match e {
        ScalarExpr::Exists { subquery, .. } | ScalarExpr::ScalarSubquery { subquery, .. } => {
            harvest_rec(subquery, provider, doc, seen)
        }
        ScalarExpr::InSubquery { expr, subquery, .. } => {
            harvest_scalar(expr, provider, doc, seen)?;
            harvest_rec(subquery, provider, doc, seen)
        }
        ScalarExpr::Cmp { left, right, .. } | ScalarExpr::Arith { left, right, .. } => {
            harvest_scalar(left, provider, doc, seen)?;
            harvest_scalar(right, provider, doc, seen)
        }
        ScalarExpr::And(v) | ScalarExpr::Or(v) => {
            for x in v {
                harvest_scalar(x, provider, doc, seen)?;
            }
            Ok(())
        }
        ScalarExpr::Not(x) | ScalarExpr::IsNull(x) => harvest_scalar(x, provider, doc, seen),
        _ => Ok(()),
    }
}

/// Build a dump for a query, optionally recording the error that triggered
/// it (Listing 2's `Stacktrace` section) and an expected plan (test-case
/// mode).
pub fn capture(
    query: &DxlQuery,
    config: &OptimizerConfig,
    provider: &dyn MdProvider,
    error: Option<&OrcaError>,
    expected_plan: Option<DxlPlan>,
) -> Result<DxlDump> {
    let metadata = harvest_metadata(&query.expr, provider)?;
    let stack_trace = error.map(|e| {
        format!(
            "1 orca::OrcaError::{} — {}\n2 orca::engine::Optimizer::optimize\n3 gpos::sched::Scheduler::run",
            e.kind(),
            e.message()
        )
    });
    Ok(DxlDump {
        query: query.clone(),
        config: config.to_kv(),
        metadata,
        stack_trace,
        expected_plan,
    })
}

/// Serialize a dump to disk.
pub fn save(dump: &DxlDump, path: &Path) -> Result<()> {
    std::fs::write(path, orca_dxl::dump_to_dxl(dump))
        .map_err(|e| OrcaError::Dxl(format!("cannot write dump {}: {e}", path.display())))
}

/// Load a dump from disk.
pub fn load(path: &Path) -> Result<DxlDump> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| OrcaError::Dxl(format!("cannot read dump {}: {e}", path.display())))?;
    orca_dxl::parse_dump(&text)
}

/// Replay a dump: rebuild provider + configuration from the dump and run an
/// identical optimization session (Figure 10). The backend system is not
/// involved at all.
pub fn replay(dump: &DxlDump) -> Result<(PhysicalPlan, OptStats)> {
    let provider = Arc::new(orca_dxl::de::provider_from_metadata(&dump.metadata));
    let config = OptimizerConfig::from_kv(&dump.config);
    let optimizer = Optimizer::new(provider, config);
    optimizer.optimize_query(&dump.query)
}

/// Replay a dump as a regression test: fails when the produced plan
/// deviates from the recorded expected plan.
pub fn replay_as_test(dump: &DxlDump) -> Result<PhysicalPlan> {
    let (plan, _) = replay(dump)?;
    if let Some(expected) = &dump.expected_plan {
        if plan != expected.plan {
            return Err(OrcaError::Internal(format!(
                "plan mismatch:\nexpected:\n{}\ngot:\n{}",
                orca_expr::pretty::explain_physical(&expected.plan),
                orca_expr::pretty::explain_physical(&plan)
            )));
        }
    }
    Ok(plan)
}

/// Run an optimization; on failure, capture a dump to `dump_path` before
/// propagating the error (the automatic trigger of §6.1).
pub fn optimize_with_capture(
    optimizer: &Optimizer,
    query: &DxlQuery,
    dump_path: &Path,
) -> Result<(PhysicalPlan, OptStats)> {
    match optimizer.optimize_query(query) {
        Ok(ok) => Ok(ok),
        Err(e) => {
            let dump = capture(
                query,
                &optimizer.config,
                optimizer.provider().as_ref(),
                Some(&e),
                None,
            )?;
            save(&dump, dump_path)?;
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_catalog::stats::ColumnStats;
    use orca_catalog::{ColumnMeta, Distribution, MemoryProvider, TableStats};
    use orca_common::{ColId, DataType, Datum};
    use orca_expr::logical::{JoinKind, TableRef};
    use orca_expr::props::{DistSpec, OrderSpec};

    fn setup() -> (Arc<MemoryProvider>, DxlQuery) {
        let provider = Arc::new(MemoryProvider::new());
        let mut columns = Vec::new();
        for name in ["T1", "T2"] {
            let id = provider.register(
                name,
                vec![
                    ColumnMeta::new("a", DataType::Int),
                    ColumnMeta::new("b", DataType::Int),
                ],
                Distribution::Hashed(vec![0]),
            );
            let values: Vec<Datum> = (0..500).map(|i| Datum::Int(i % 100)).collect();
            provider.set_stats(
                id,
                TableStats::new(5000.0, 2)
                    .set_column(0, ColumnStats::from_column(&values, 8))
                    .set_column(1, ColumnStats::from_column(&values, 8)),
            );
            columns.push((format!("{name}.a"), DataType::Int));
            columns.push((format!("{name}.b"), DataType::Int));
        }
        let tref = |name: &str| {
            TableRef(
                provider
                    .table(provider.table_by_name(name).unwrap())
                    .unwrap(),
            )
        };
        let expr = LogicalExpr::new(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                pred: ScalarExpr::col_eq_col(ColId(0), ColId(3)),
            },
            vec![
                LogicalExpr::leaf(LogicalOp::Get {
                    table: tref("T1"),
                    cols: vec![ColId(0), ColId(1)],
                    parts: None,
                }),
                LogicalExpr::leaf(LogicalOp::Get {
                    table: tref("T2"),
                    cols: vec![ColId(2), ColId(3)],
                    parts: None,
                }),
            ],
        );
        let query = DxlQuery {
            expr,
            output_cols: vec![ColId(0)],
            order: OrderSpec::by(&[ColId(0)]),
            dist: DistSpec::Singleton,
            columns,
        };
        (provider, query)
    }

    #[test]
    fn harvest_collects_each_table_once() {
        let (provider, query) = setup();
        let doc = harvest_metadata(&query.expr, provider.as_ref()).unwrap();
        assert_eq!(doc.tables.len(), 2);
        assert_eq!(doc.stats.len(), 2);
    }

    #[test]
    fn dump_roundtrip_and_replay_produces_identical_plan() {
        let (provider, query) = setup();
        let optimizer = Optimizer::new(provider.clone(), OptimizerConfig::default());
        let (plan, stats) = optimizer.optimize_query(&query).unwrap();
        // Capture with the plan as the expected plan (test-case mode).
        let dump = capture(
            &query,
            &optimizer.config,
            provider.as_ref() as &dyn MdProvider,
            None,
            Some(DxlPlan {
                plan: plan.clone(),
                cost: stats.plan_cost,
            }),
        )
        .unwrap();
        let dir = std::env::temp_dir().join("orca_amper_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repro.dxl");
        save(&dump, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded, dump);
        // Replay *without* the live provider reproduces the same plan.
        let replayed = replay_as_test(&loaded).unwrap();
        assert_eq!(replayed, plan);
        // Dumps from before the dedup-shard knob was removed carry a
        // `dedup_shards` key; it is no longer written, and replay ignores it.
        assert!(dump.config.iter().all(|(k, _)| k != "dedup_shards"));
        let mut old = loaded;
        old.config.push(("dedup_shards".into(), "4".into()));
        save(&old, &path).unwrap();
        assert_eq!(replay_as_test(&load(&path).unwrap()).unwrap(), plan);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_fault_triggers_dump_with_stacktrace() {
        let (provider, query) = setup();
        let config = OptimizerConfig {
            inject_fault: Some("optimize"),
            ..OptimizerConfig::default()
        };
        let optimizer = Optimizer::new(provider, config);
        let dir = std::env::temp_dir().join("orca_amper_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fault.dxl");
        let err = optimize_with_capture(&optimizer, &query, &path).unwrap_err();
        assert_eq!(err.kind(), "injected");
        let dump = load(&path).unwrap();
        let trace = dump.stack_trace.clone().expect("stack trace recorded");
        assert!(trace.contains("injected"), "{trace}");
        assert_eq!(dump.metadata.tables.len(), 2);
        // The dump replays cleanly once the fault flag is gone (from_kv
        // does not restore inject_fault — a repro runs without the fault).
        let (plan, _) = replay(&dump).unwrap();
        assert!(plan.size() > 0);
        std::fs::remove_file(&path).ok();
    }
}
