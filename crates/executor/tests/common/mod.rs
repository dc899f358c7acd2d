//! Fixtures shared by the thread-count checks: the process's thread
//! count and a four-slice plan over a 4-segment table.

use orca_catalog::{ColumnMeta, Distribution, TableDesc};
use orca_common::{ColId, DataType, Datum, MdId, SegmentConfig, SysId};
use orca_executor::{Database, Row};
use orca_expr::logical::{AggStage, TableRef};
use orca_expr::physical::{MotionKind, PhysicalOp, PhysicalPlan};
use orca_expr::scalar::{AggFunc, ScalarExpr};
use std::sync::Arc;

/// This process's thread count, from `/proc/self/status`.
pub fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("no Threads: line in /proc/self/status")
}

/// Two-stage aggregation across two redistributions, gathered: 4 slices.
pub fn split_agg(t: &TableRef) -> PhysicalPlan {
    let scan = PhysicalPlan::leaf(PhysicalOp::TableScan {
        table: t.clone(),
        cols: vec![ColId(0), ColId(1)],
        parts: None,
    });
    let motion = |kind, child| PhysicalPlan::new(PhysicalOp::Motion { kind }, vec![child]);
    let agg = |stage, in_col, out_col, child| {
        PhysicalPlan::new(
            PhysicalOp::HashAgg {
                group_cols: vec![ColId(0)],
                aggs: vec![(
                    out_col,
                    ScalarExpr::Agg {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(ScalarExpr::ColRef(in_col))),
                        distinct: false,
                    },
                )],
                stage,
            },
            vec![child],
        )
    };
    let local = agg(
        AggStage::Local,
        ColId(1),
        ColId(11),
        motion(MotionKind::Redistribute(vec![ColId(1)]), scan),
    );
    let global = agg(
        AggStage::Global,
        ColId(11),
        ColId(10),
        motion(MotionKind::Redistribute(vec![ColId(0)]), local),
    );
    motion(MotionKind::Gather, global)
}

/// A 4-segment table of 2000 rows `(i % 50, i)`.
pub fn table() -> (Database, TableRef) {
    let mut db = Database::new(SegmentConfig::default().with_segments(4));
    let t = Arc::new(TableDesc::new(
        MdId::new(SysId::Gpdb, 1, 1),
        "t",
        vec![
            ColumnMeta::new("a", DataType::Int),
            ColumnMeta::new("b", DataType::Int),
        ],
        Distribution::Hashed(vec![0]),
    ));
    let rows: Vec<Row> = (0..2000)
        .map(|i| vec![Datum::Int(i % 50), Datum::Int(i)])
        .collect();
    db.load_table(t.clone(), rows).unwrap();
    (db, TableRef(t))
}
