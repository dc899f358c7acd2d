//! An in-process gang runs on at most `workers` threads: the caller plus
//! `workers − 1` helpers, however many slice×segment tasks the plan has;
//! and a streaming cursor runs on its caller's thread alone.
//!
//! Linux only: the process's thread count is read from the `Threads:`
//! line of `/proc/self/status`. The gang check samples it on a side
//! thread while a four-slice plan (two redistributions under a gather,
//! 16 tasks on a 4-segment cluster) runs 20 times at `workers = 2`; the
//! cursor check samples it after every open and every batch. The checks
//! take turns (`ONE_AT_A_TIME`) so neither counts the other's threads.
#![cfg(target_os = "linux")]

mod common;

use common::{split_agg, table, threads};
use orca_common::ColId;
use orca_executor::{Cursor, CursorOptions, ParallelConfig, ParallelEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn a_gang_spawns_at_most_workers_minus_one_threads() {
    let _turn = one_at_a_time();
    let (db, t) = table();
    let plan = split_agg(&t);
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

#[test]
fn a_cursor_spawns_no_thread() {
    let _turn = one_at_a_time();
    let (db, t) = table();
    let db = Arc::new(db);
    let plan = split_agg(&t);
    let cols = [ColId(0), ColId(10)];
    let open = || {
        let opts = CursorOptions {
            columnar: true,
            batch_rows: 4, // 50 rows -> 13 batches
            ..CursorOptions::default()
        };
        Cursor::open(Arc::clone(&db), &plan, &cols, opts)
    };
    let baseline = threads();
    let mut peak = baseline;
    for _ in 0..20 {
        let mut cursor = open();
        peak = peak.max(threads());
        let mut batches = 0;
        while let Some(batch) = cursor.next_batch().unwrap() {
            assert!(batch.len() <= 4);
            batches += 1;
            peak = peak.max(threads());
        }
        assert!(batches >= 10, "{batches} batches");
    }
    for _ in 0..5 {
        let mut cursor = open();
        peak = peak.max(threads());
        assert!(cursor.next_batch().unwrap().is_some());
        peak = peak.max(threads());
        cursor.close();
        peak = peak.max(threads());
    }
    assert_eq!(
        peak,
        baseline,
        "cursors spawned {} threads",
        peak - baseline
    );
}
