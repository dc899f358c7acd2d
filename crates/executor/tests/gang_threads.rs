//! An in-process gang runs on at most `workers` threads: the caller plus
//! `workers − 1` helpers, however many slice×segment tasks the plan has.
//!
//! Linux only: the process's thread count is read from the `Threads:`
//! line of `/proc/self/status`, sampled on a side thread while a
//! four-slice plan (two redistributions under a gather, 16 tasks on a
//! 4-segment cluster) runs 20 times at `workers = 2`.
#![cfg(target_os = "linux")]

use orca_catalog::{ColumnMeta, Distribution, TableDesc};
use orca_common::{ColId, DataType, Datum, MdId, SegmentConfig, SysId};
use orca_executor::{Database, ParallelConfig, ParallelEngine, Row};
use orca_expr::logical::{AggStage, TableRef};
use orca_expr::physical::{MotionKind, PhysicalOp, PhysicalPlan};
use orca_expr::scalar::{AggFunc, ScalarExpr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("no Threads: line in /proc/self/status")
}

/// Two-stage aggregation across two redistributions, gathered: 4 slices.
fn split_agg(t: &TableRef) -> PhysicalPlan {
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

#[test]
fn a_gang_spawns_at_most_workers_minus_one_threads() {
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
    let plan = split_agg(&TableRef(t));
    let workers = 2;
    let cfg = ParallelConfig {
        workers,
        batch_rows: 7,
        ..ParallelConfig::default()
    };

    let done = Arc::new(AtomicBool::new(false));
    let (base_tx, base_rx) = std::sync::mpsc::channel();
    let sampler = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // The baseline counts this sampler thread too.
            base_tx.send(threads()).unwrap();
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                std::thread::yield_now();
            }
            peak
        })
    };
    let baseline = base_rx.recv().unwrap();
    let engine = ParallelEngine::with_config(&db, cfg);
    for _ in 0..20 {
        let r = engine.run(&plan, &[ColId(0), ColId(10)]).unwrap();
        assert_eq!(r.parallel.num_slices, 4);
        assert_eq!(r.rows.len(), 50);
    }
    done.store(true, Ordering::Relaxed);
    let peak = sampler.join().unwrap();
    assert!(
        peak <= baseline + workers,
        "peak {peak} threads, baseline {baseline}, workers {workers}"
    );
}
