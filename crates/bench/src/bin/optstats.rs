//! §7.2.2 resource statistics: "The average optimization time is around 4
//! seconds, while the average memory footprint is around 200 MB" (on the
//! authors' 16-node testbed with the full TPC-DS schema; our absolute
//! numbers are smaller, the per-query distribution is the point).
//!
//! Usage: `optstats [scale]`.

use orca::engine::OptimizerConfig;
use orca_bench::report::row;
use orca_bench::BenchEnv;
use orca_tpcds::suite;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    println!("§7.2.2 — optimization time & memory footprint (full rule set)\n");
    let env = BenchEnv::new(scale, 16);
    println!(
        "{}",
        row(&[
            ("query", 6),
            ("time_ms", 9),
            ("groups", 7),
            ("exprs", 7),
            ("jobs", 7),
            ("goalhit", 8),
            ("pruned", 7),
            ("dd_hit", 7),
            ("memo_KB", 8),
            ("md_KB", 7),
        ])
    );
    let mut times = Vec::new();
    let mut memo_bytes = Vec::new();
    let mut jobs_all = Vec::new();
    let mut pruned_all = Vec::new();
    for q in suite() {
        let config = OptimizerConfig::default().with_cluster(env.cluster.clone());
        match env.optimize_only(&q, config) {
            Ok((_, stats)) => {
                let ms = stats.optimization_time.as_secs_f64() * 1e3;
                times.push(ms);
                memo_bytes.push(stats.memo_bytes as f64);
                jobs_all.push(stats.jobs_spawned as f64);
                pruned_all.push(stats.search.contexts_pruned as f64);
                println!(
                    "{}",
                    row(&[
                        (&q.id, 6),
                        (&format!("{ms:.2}"), 9),
                        (&stats.groups.to_string(), 7),
                        (&stats.group_exprs.to_string(), 7),
                        (&stats.jobs_spawned.to_string(), 7),
                        (&stats.goal_hits.to_string(), 8),
                        (&stats.search.contexts_pruned.to_string(), 7),
                        (&stats.search.dedup_hits.to_string(), 7),
                        (&format!("{}", stats.memo_bytes / 1024), 8),
                        (&format!("{}", stats.metadata_bytes / 1024), 7),
                    ])
                );
            }
            Err(e) => println!("{}  FAILED: {e}", q.id),
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
    println!("\n--- summary ---");
    println!("queries optimized        : {}", times.len());
    println!(
        "avg optimization time    : {:.2} ms (max {:.2} ms)",
        avg(&times),
        max(&times)
    );
    println!(
        "avg memo footprint       : {:.1} KB (max {:.1} KB)",
        avg(&memo_bytes) / 1024.0,
        max(&memo_bytes) / 1024.0
    );
    println!(
        "avg optimization jobs    : {:.0} per query (paper: \"hundreds or even thousands\")",
        avg(&jobs_all)
    );
    println!(
        "avg contexts pruned      : {:.0} per query (cost-bound branch-and-bound)",
        avg(&pruned_all)
    );
}
