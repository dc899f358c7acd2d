//! Multi-core optimization (§4.2): optimize a 7-way join with 1, 2, 4 and
//! 8 scheduler workers. The job scheduler steps `Exp`/`Imp`/`Opt`/`Xform`
//! work units on the calling thread whatever the worker count (see
//! `orca_gpos::sched`); the chosen plan (and its cost) must be identical
//! at every worker count.
//!
//! Run: `cargo run --release --example parallel_optimizer`

use orca::engine::{Optimizer, OptimizerConfig, QueryReqs};
use orca_common::SegmentConfig;
use orca_tpcds::build_catalog;
use std::sync::Arc;
use std::time::Instant;

const SQL: &str = "SELECT i.i_brand_id, d.d_moy, count(*) AS n \
                   FROM catalog_sales cs, item i, date_dim d, promotion p, call_center cc, \
                        customer c, customer_address ca \
                   WHERE cs.cs_item_sk = i.i_item_sk \
                     AND cs.cs_sold_date_sk = d.d_date_sk \
                     AND cs.cs_promo_sk = p.p_promo_sk \
                     AND cs.cs_call_center_sk = cc.cc_call_center_sk \
                     AND cs.cs_bill_customer_sk = c.c_customer_sk \
                     AND c.c_current_addr_sk = ca.ca_address_sk \
                   GROUP BY i.i_brand_id, d.d_moy ORDER BY n DESC LIMIT 20";

fn main() {
    let cluster = SegmentConfig::default().with_segments(16);
    let (provider, _db) = build_catalog(0.05, cluster.clone());
    println!("7-way join query:\n{SQL}\n");

    let mut reference_cost = None;
    for workers in [1usize, 2, 4, 8] {
        let registry = Arc::new(orca_expr::ColumnRegistry::new());
        let bound = orca_sql::compile(SQL, provider.as_ref(), &registry).expect("binds");
        let optimizer = Optimizer::new(
            provider.clone(),
            OptimizerConfig::default()
                .with_workers(workers)
                .with_cluster(cluster.clone()),
        );
        let reqs = QueryReqs {
            output_cols: bound.output_cols.clone(),
            order: bound.order.clone(),
            dist: orca_expr::props::DistSpec::Singleton,
        };
        // Warm-up + best-of-3 to steady the wall clock.
        let mut best = f64::INFINITY;
        let mut stats = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let (_, s) = optimizer
                .optimize(&bound.expr, &registry, &reqs)
                .expect("optimizes");
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            stats = Some(s);
        }
        let stats = stats.expect("ran");
        match reference_cost {
            None => reference_cost = Some(stats.plan_cost),
            Some(c) => assert!(
                (c - stats.plan_cost).abs() < 1e-9,
                "plan must not depend on worker count"
            ),
        }
        println!(
            "workers = {workers}: {best:.1} ms  ({} jobs over {} memo groups, plan cost {:.0})",
            stats.jobs_spawned, stats.groups, stats.plan_cost
        );
    }
    println!("\nidentical plan cost at every worker count ✓ (determinism)");
}
