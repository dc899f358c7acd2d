//! A distributed gang adds no transport thread or socket once its peers'
//! connections are open: every edge of every later query shares the one
//! connection per peer pair and its reader thread.
//!
//! Linux only: the thread count is read from the `Threads:` line of
//! `/proc/self/status`, the sockets from the `socket:` links under
//! `/proc/self/fd`. Two nodes in this process run a four-slice plan
//! (two redistributions under a gather, 16 tasks on a 4-segment cluster)
//! once to open their connections, then 20 more times at `workers = 2`
//! while a side thread samples the thread count. The check has a test
//! binary to itself: the harness starting another test's thread
//! mid-check would count against it.
#![cfg(target_os = "linux")]

mod common;

use common::{split_agg, table, threads};
use orca_common::ColId;
use orca_executor::{ClusterTopology, NetConfig, NetNode, ParallelConfig, ParallelEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open sockets of this process.
fn sockets() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}

/// Spin until the thread count is back to `n`: a joined thread leaves
/// the count a moment after it returns, one that outlives its work fails.
fn settle_to(n: usize, what: &str) {
    let t0 = Instant::now();
    while threads() > n {
        assert!(t0.elapsed() < Duration::from_secs(1), "{what}");
        std::thread::yield_now();
    }
}

#[test]
fn a_distributed_gang_keeps_transport_threads_and_sockets_fixed() {
    let before = threads();
    let (db, t) = table();
    let plan = split_agg(&t);
    let cols = [ColId(0), ColId(10)];
    let workers = 2;
    let cfg = ParallelConfig {
        workers,
        batch_rows: 7,
        ..ParallelConfig::default()
    };
    let nodes: Vec<NetNode> = (0..2)
        .map(|me| NetNode::bind("127.0.0.1:0", me, NetConfig::default()).unwrap())
        .collect();
    let peers = nodes.iter().map(|n| n.addr().to_string()).collect();
    let topo = ClusterTopology::round_robin(peers, 4);
    // Both peers run their share of one query, each on its own caller.
    let run = |query: u64| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = nodes
                .iter()
                .map(|node| {
                    let engine = ParallelEngine::with_config(&db, cfg.clone());
                    let (plan, topo, cols) = (&plan, &topo, &cols);
                    scope.spawn(move || engine.run_distributed(plan, cols, node, topo, query))
                })
                .collect();
            let mut results = handles.into_iter().map(|h| h.join().unwrap().unwrap());
            let coord = results.next().unwrap();
            assert_eq!(coord.rows.len(), 50);
            assert!(coord.parallel.net.remote_edges > 0);
            assert_eq!(coord.parallel.net.reconnects, 0);
        })
    };
    // The warm-up run opens both peer connections and their readers.
    run(1);
    let warm_sockets = sockets();

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
    for query in 2..=21 {
        run(query);
        settle_to(baseline, &format!("a thread outlived run {query}"));
    }
    done.store(true, Ordering::Relaxed);
    let peak = sampler.join().unwrap();
    // The two peer callers, each with its gang's `workers - 1` helpers.
    let allowed = 2 + 2 * (workers - 1);
    assert!(
        peak <= baseline + allowed,
        "peak {peak} threads, warm baseline {baseline}, allowed {allowed} more"
    );
    assert_eq!(sockets(), warm_sockets, "sockets changed across 20 runs");
    drop(nodes);
    settle_to(before, "a transport thread outlived its node");
}
