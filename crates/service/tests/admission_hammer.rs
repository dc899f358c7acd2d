//! Admission hammer: 16 sessions pound a service whose executor-memory
//! pool is deliberately too small for the offered load. Every request
//! must complete (the grant broker queues and degrades, it never
//! rejects), results must stay correct under memory pressure, and the
//! pool must drain back to full once the storm passes.

use orca_catalog::provider::{MdProvider, MemoryProvider};
use orca_catalog::{ColumnMeta, Distribution};
use orca_common::{ColId, DataType, Datum, SegmentConfig};
use orca_dxl::DxlQuery;
use orca_executor::Database;
use orca_expr::logical::{LogicalExpr, LogicalOp, TableRef};
use orca_expr::props::{DistSpec, OrderSpec};
use orca_expr::scalar::{CmpOp, ScalarExpr};
use orca_expr::ColumnRegistry;
use orca_service::{ExecuteConfig, Service, ServiceConfig};
use std::sync::Arc;

const ROWS: i64 = 6000;

fn provider() -> Arc<MemoryProvider> {
    let p = Arc::new(MemoryProvider::new());
    for name in ["t0", "t1"] {
        p.register(
            name,
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Hashed(vec![0]),
        );
    }
    p
}

fn join_query(p: &MemoryProvider) -> DxlQuery {
    let registry = ColumnRegistry::new();
    let mut tables = Vec::new();
    let mut first_col = Vec::new();
    for name in ["t0", "t1"] {
        let mdid = p.table_by_name(name).unwrap();
        let desc = p.table(mdid).unwrap();
        let cols: Vec<ColId> = desc
            .columns
            .iter()
            .map(|c| registry.fresh(&format!("{name}.{}", c.name), c.dtype))
            .collect();
        first_col.push(cols[0]);
        tables.push(LogicalExpr::leaf(LogicalOp::Get {
            table: TableRef(desc),
            cols,
            parts: None,
        }));
    }
    let join = LogicalExpr::new(
        LogicalOp::Join {
            kind: orca_expr::logical::JoinKind::Inner,
            pred: ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::col(first_col[0]),
                ScalarExpr::col(first_col[1]),
            ),
        },
        tables,
    );
    DxlQuery {
        output_cols: vec![first_col[0]],
        order: OrderSpec::any(),
        dist: DistSpec::Singleton,
        columns: registry.snapshot(),
        expr: join,
    }
}

/// 192 KiB pool, 128 KiB grant floor (32 KiB work_mem × 4 segments),
/// and a 128 KiB grant pre-held for the whole storm: every executing
/// request finds only 64 KiB available, so it queues, takes a degraded
/// grant, and spills — yet all 16 sessions finish with correct results.
#[test]
fn sixteen_sessions_hammer_a_small_memory_pool() {
    let p = provider();
    let cfg = ServiceConfig {
        executor_memory_bytes: 192 * 1024,
        execute: Some(ExecuteConfig {
            parallel: false,
            columnar: true,
            ..ExecuteConfig::default()
        }),
        ..ServiceConfig::default()
    };
    let svc = Arc::new(Service::new(p.clone(), cfg));
    let mut db = Database::new(
        SegmentConfig::default()
            .with_segments(4)
            .with_work_mem(32 * 1024),
    );
    for name in ["t0", "t1"] {
        let desc = p.table(p.table_by_name(name).unwrap()).unwrap();
        let rows = (0..ROWS)
            .map(|i| vec![Datum::Int(i), Datum::Int(i * 2)])
            .collect();
        db.load_table(desc, rows).unwrap();
    }
    svc.attach_database(Arc::new(db));
    let query = join_query(&p);

    // Squat on two thirds of the pool so concurrent requests contend.
    let hog = svc.grants().request(128 * 1024);
    assert_eq!(hog.bytes(), 128 * 1024);

    let mut handles = Vec::new();
    for _ in 0..16 {
        let svc = Arc::clone(&svc);
        let query = query.clone();
        handles.push(std::thread::spawn(move || {
            let session = svc.open_session();
            let mut executed = 0u64;
            let mut spilled = 0u64;
            for _ in 0..3 {
                let ticket = svc.submit_query(session, &query, None).unwrap();
                if let Some(exec) = ticket.response.execution {
                    // Unique join keys on both sides: one row per key.
                    assert_eq!(exec.rows.len(), ROWS as usize);
                    assert!(exec.mem_granted > 0);
                    assert!(
                        exec.mem_granted <= 64 * 1024,
                        "with 128 KiB squatted, at most 64 KiB was grantable"
                    );
                    assert!(exec.mem_degraded);
                    executed += 1;
                    spilled += exec.stats.spill_partitions;
                }
            }
            svc.close_session(session).unwrap();
            (executed, spilled)
        }));
    }
    let mut executed = 0u64;
    let mut spilled = 0u64;
    for h in handles {
        let (e, s) = h.join().unwrap();
        executed += e;
        spilled += s;
    }
    drop(hog);

    // Every submission runs its own execution.
    assert_eq!(executed, 48, "executed only {executed} of 48");
    // A degraded 64 KiB grant is 16 KiB per segment against ~25 KiB of
    // per-segment build state: every execution spilled rather than OOMed.
    assert!(spilled > 0, "memory pressure should have forced spills");

    let st = svc.stats();
    assert!(st.mem_admitted >= 48);
    assert!(st.mem_queued >= 48, "every grant contended with the hog");
    assert!(st.mem_degraded_grants >= 48);
    assert!(st.mem_peak_bytes > 0);
    // The storm passed: every grant was released back to the pool.
    assert_eq!(svc.grants().available_bytes(), 192 * 1024);
}
