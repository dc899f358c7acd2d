//! Integration tests of the serving layer (`orca-service`): deadline
//! semantics of the underlying `optimize_with_deadline`, end-to-end plan
//! cache invalidation via `bump_table_version`, the degradation ladder
//! (and that no degraded answer is aliased in the text index),
//! a concurrent submit-while-bumping hammer, and byte identity of cached
//! plans with fresh optimizations over a suite corpus.

use orca::engine::{Optimizer, OptimizerConfig, QueryReqs};
use orca_catalog::provider::MdProvider;
use orca_common::{OrcaError, SegmentConfig};
use orca_dxl::{plan_to_dxl, query_to_dxl, DxlPlan, DxlQuery};
use orca_expr::props::DistSpec;
use orca_expr::ColumnRegistry;
use orca_service::{PlanSource, Service, ServiceConfig};
use orca_tpcds::{build_catalog, suite};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The §4.2 benchmark's 7-way join over the TPC-DS-style catalog.
const SEVEN_WAY_JOIN: &str = "SELECT i.i_brand_id, d.d_moy, count(*) AS n, \
     sum(cs.cs_net_profit) AS profit \
     FROM catalog_sales cs, item i, date_dim d, promotion p, call_center cc, \
          customer c, customer_address ca \
     WHERE cs.cs_item_sk = i.i_item_sk \
       AND cs.cs_sold_date_sk = d.d_date_sk \
       AND cs.cs_promo_sk = p.p_promo_sk \
       AND cs.cs_call_center_sk = cc.cc_call_center_sk \
       AND cs.cs_bill_customer_sk = c.c_customer_sk \
       AND c.c_current_addr_sk = ca.ca_address_sk \
       AND d.d_date_sk > 10 \
     GROUP BY i.i_brand_id, d.d_moy ORDER BY profit DESC LIMIT 20";

fn tpcds_env() -> Arc<orca_catalog::MemoryProvider> {
    build_catalog(0.01, SegmentConfig::default().with_segments(16)).0
}

fn compile_query(
    provider: &Arc<orca_catalog::MemoryProvider>,
    sql: &str,
) -> (DxlQuery, Arc<ColumnRegistry>, QueryReqs) {
    let registry = Arc::new(ColumnRegistry::new());
    let bound = orca_sql::compile(sql, provider.as_ref(), &registry).expect("compile");
    let reqs = QueryReqs {
        output_cols: bound.output_cols.clone(),
        order: bound.order.clone(),
        dist: DistSpec::Singleton,
    };
    let query = DxlQuery {
        expr: bound.expr,
        output_cols: bound.output_cols,
        order: bound.order,
        dist: DistSpec::Singleton,
        columns: registry.snapshot(),
    };
    (query, registry, reqs)
}

/// Satellite (a): expiry mid-exploration must yield either a best-so-far
/// plan from a consistent memo (`timed_out` set) or the *typed* `Timeout`
/// error — never a partially-costed extraction, a panic, or a
/// miscategorized error — at 1 and 4 workers.
#[test]
fn seven_way_join_with_near_zero_deadline_is_typed_and_consistent() {
    let provider = tpcds_env();
    let (query, registry, reqs) = compile_query(&provider, SEVEN_WAY_JOIN);
    for workers in [1usize, 4] {
        let optimizer = Optimizer::new(
            provider.clone(),
            OptimizerConfig::default().with_workers(workers),
        );
        // Reference run: no deadline.
        let (_, full_stats) = optimizer
            .optimize(&query.expr, &registry, &reqs)
            .expect("unbounded optimization succeeds");
        assert!(!full_stats.timed_out);

        // ~0 deadline: already expired when the search starts.
        for budget in [Duration::ZERO, Duration::from_micros(50)] {
            let deadline = Instant::now() + budget;
            match optimizer.optimize_with_deadline(&query.expr, &registry, &reqs, deadline) {
                Ok((plan, stats)) => {
                    // Best-so-far extraction: must be a complete, costed
                    // plan and must be flagged.
                    assert!(stats.timed_out, "workers={workers} budget={budget:?}");
                    assert!(stats.plan_cost.is_finite() && stats.plan_cost > 0.0);
                    assert!(plan.children.len() <= 2);
                }
                Err(e) => {
                    assert_eq!(
                        e.kind(),
                        "timeout",
                        "workers={workers} budget={budget:?}: wrong error {e}"
                    );
                }
            }
        }

        // A generous deadline must behave exactly like no deadline.
        let deadline = Instant::now() + Duration::from_secs(600);
        let (_, stats) = optimizer
            .optimize_with_deadline(&query.expr, &registry, &reqs, deadline)
            .expect("generous deadline");
        assert!(!stats.timed_out);
        assert_eq!(stats.plan_cost, full_stats.plan_cost);
    }
}

/// Satellite (b), part 1: cached plan for T → `bump_table_version(T)` →
/// next lookup misses, re-optimizes against the new metadata, and the
/// stale entry is gone.
#[test]
fn bump_invalidates_cached_plan_and_reoptimizes() {
    let provider = tpcds_env();
    let (query, _, _) = compile_query(
        &provider,
        "SELECT i_brand_id, count(*) AS n FROM item, store_sales \
         WHERE i_item_sk = ss_item_sk GROUP BY i_brand_id",
    );
    let svc = Service::new(provider.clone(), ServiceConfig::default());
    let session = svc.open_session();

    let fresh = svc.submit_query(session, &query, None).expect("fresh");
    assert_eq!(fresh.response.source, PlanSource::Fresh);
    let hit = svc.submit_query(session, &query, None).expect("hit");
    assert_eq!(hit.response.source, PlanSource::Cache);
    // Byte-identical DXL from cache (determinism is what makes the cache
    // sound).
    assert_eq!(hit.response.plan_dxl, fresh.response.plan_dxl);

    let item = provider.table_by_name("item").expect("item");
    let new_id = provider.bump_table_version(item).expect("bump");

    let after = svc.submit_query(session, &query, None).expect("re-opt");
    assert_eq!(after.response.source, PlanSource::Fresh);
    assert_eq!(after.response.fingerprint, fresh.response.fingerprint);
    // The re-optimization saw the *new* table version.
    let md_ids = &after.response.stats.as_ref().expect("fresh stats").md_ids;
    assert!(md_ids.contains(&new_id), "md_ids={md_ids:?}");
    assert!(!md_ids.contains(&item));

    let stats = svc.stats();
    assert_eq!(stats.cache_invalidations, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    // And the replacement entry serves the next lookup.
    let rehit = svc.submit_query(session, &query, None).expect("re-hit");
    assert_eq!(rehit.response.source, PlanSource::Cache);
    assert_eq!(rehit.response.plan_dxl, after.response.plan_dxl);
}

/// Satellite (b), part 2: 8 threads hammering the same query while the
/// main thread bumps referenced-table versions. Every response must be a
/// valid non-degraded plan, every plan byte-identical (stats are copied
/// across versions, so the optimum never changes), and the counters must
/// add up.
#[test]
fn concurrent_submissions_survive_version_bumps() {
    let provider = tpcds_env();
    let (query, _, _) = compile_query(
        &provider,
        "SELECT d_year, count(*) AS n FROM store_sales, date_dim \
         WHERE ss_sold_date_sk = d_date_sk GROUP BY d_year",
    );
    let svc = Arc::new(Service::new(provider.clone(), ServiceConfig::default()));
    let query = Arc::new(query);

    const THREADS: usize = 8;
    const ROUNDS: usize = 20;
    let plans: Vec<Arc<str>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let svc = svc.clone();
            let query = query.clone();
            handles.push(scope.spawn(move || {
                let session = svc.open_session();
                let mut plans = Vec::new();
                for _ in 0..ROUNDS {
                    let t = svc.submit_query(session, &query, None).expect("submit");
                    assert!(!t.response.degraded);
                    assert!(matches!(
                        t.response.source,
                        PlanSource::Fresh | PlanSource::Cache
                    ));
                    plans.push(t.response.plan_dxl);
                }
                plans
            }));
        }
        // Interleave version bumps with the submissions.
        let date_dim = provider.table_by_name("date_dim").expect("date_dim");
        let store_sales = provider.table_by_name("store_sales").expect("store_sales");
        let mut cur_d = date_dim;
        let mut cur_s = store_sales;
        for i in 0..6 {
            std::thread::sleep(Duration::from_millis(5));
            if i % 2 == 0 {
                cur_d = provider.bump_table_version(cur_d).expect("bump d");
            } else {
                cur_s = provider.bump_table_version(cur_s).expect("bump s");
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("no panics"))
            .collect()
    });

    assert_eq!(plans.len(), THREADS * ROUNDS);
    // Version bumps copy stats, so the chosen plan is identical throughout
    // up to the Mdid version attributes stamped into table descriptors.
    let normalized: Vec<String> = plans
        .iter()
        .map(|p| orca_dxl::normalize_mdid_versions(p))
        .collect();
    for p in &normalized {
        assert_eq!(p, &normalized[0]);
    }
    let stats = svc.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        (THREADS * ROUNDS) as u64
    );
    assert!(stats.cache_hits > 0, "stats={stats:?}");
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.rejected, 0);
    // At most one entry per live version-set remains.
    assert!(svc.cache().len() <= 1);
}

/// The degradation ladder: a zero budget cannot produce an error — the
/// service falls back to the legacy planner's heuristic plan and tags it.
#[test]
fn zero_budget_degrades_to_fallback_plan() {
    let provider = tpcds_env();
    let (query, _, _) = compile_query(
        &provider,
        "SELECT i_brand_id, count(*) AS n FROM item, store_sales \
         WHERE i_item_sk = ss_item_sk GROUP BY i_brand_id",
    );
    let svc = Service::new(provider, ServiceConfig::default());
    let session = svc.open_session();
    let t = svc
        .submit_query(session, &query, Some(Duration::ZERO))
        .expect("degraded, not failed");
    assert!(t.response.degraded);
    assert_eq!(t.response.source, PlanSource::Fallback);
    assert!(t.response.cost.is_finite());
    assert!(t.response.plan_dxl.contains("dxl:Plan"));
    let stats = svc.stats();
    assert_eq!(stats.degraded, 1);
    // Degraded plans are never cached: the next unconstrained submission
    // optimizes for real and caches.
    let fresh = svc.submit_query(session, &query, None).expect("fresh");
    assert_eq!(fresh.response.source, PlanSource::Fresh);
    assert!(!fresh.response.degraded);
}

/// Degraded answers (a fallback plan or a truncated search's best so
/// far) are never cached, so their request text is never aliased: the
/// text keeps taking the parse path until a full optimization is cached
/// and hit.
#[test]
fn degraded_responses_are_never_aliased() {
    let provider = tpcds_env();
    let (query, _, _) = compile_query(&provider, SEVEN_WAY_JOIN);
    let dxl = query_to_dxl(&query);
    let svc = Service::new(provider, ServiceConfig::default());
    let session = svc.open_session();
    for budget_us in [0u64, 0, 20, 50, 100] {
        let t = svc
            .submit_with_deadline(session, &dxl, Some(Duration::from_micros(budget_us)))
            .expect("degraded, not failed");
        assert!(t.response.degraded, "budget {budget_us} µs");
        assert_eq!(svc.cache().aliases(), 0);
    }
    assert!(svc.cache().is_empty());
    let fresh = svc.submit(session, &dxl).expect("fresh").response;
    assert_eq!(fresh.source, PlanSource::Fresh);
    assert!(!fresh.degraded);
    assert_eq!(svc.cache().aliases(), 0);
    // The first hit aliases the text; the second is served from it.
    for _ in 0..2 {
        let hit = svc.submit(session, &dxl).expect("hit").response;
        assert_eq!(hit.source, PlanSource::Cache);
        assert_eq!(hit.plan_dxl, fresh.plan_dxl);
    }
    assert_eq!(svc.cache().aliases(), 1);
    let stats = svc.stats();
    assert_eq!(stats.cache_text_hits, 1);
    assert_eq!(stats.cache_hits, 2);
}

/// Admission control sheds load past the queue: with one slot, zero queue
/// depth, and a long-running optimization in flight, a second submission
/// is rejected and served by the fallback planner.
#[test]
fn queue_rejection_falls_back() {
    let provider = tpcds_env();
    let (big, _, _) = compile_query(&provider, SEVEN_WAY_JOIN);
    let (small, _, _) = compile_query(
        &provider,
        "SELECT d_year, count(*) AS n FROM date_dim GROUP BY d_year",
    );
    let svc = Arc::new(Service::new(
        provider,
        ServiceConfig {
            max_concurrent: 1,
            queue_depth: 0,
            ..ServiceConfig::default()
        },
    ));
    let big = Arc::new(big);
    let small = Arc::new(small);
    std::thread::scope(|scope| {
        let svc2 = svc.clone();
        let big2 = big.clone();
        let blocker = scope.spawn(move || {
            let s = svc2.open_session();
            svc2.submit_query(s, &big2, None).expect("big query")
        });
        // Wait for the big optimization to occupy the slot, then submit:
        // a `small` that arrived first would take the only slot itself.
        while svc.stats().admitted < 1 {
            std::thread::yield_now();
        }
        let session = svc.open_session();
        let mut saw_rejection = false;
        for _ in 0..200 {
            let t = svc
                .submit_query(session, &small, None)
                .expect("never errors");
            if t.response.source == PlanSource::Fallback {
                assert!(t.response.degraded);
                saw_rejection = true;
                break;
            }
            std::thread::yield_now();
        }
        let big_ticket = blocker.join().expect("no panic");
        assert!(!big_ticket.response.degraded);
        // The race is real: if the big query finished before any small
        // submission arrived, rejection legitimately never happened — but
        // the counters must agree with whatever the gate decided.
        let stats = svc.stats();
        assert_eq!(saw_rejection, stats.rejected > 0, "stats={stats:?}");
        assert_eq!(stats.rejected, stats.degraded);
    });
}

/// Typed timeout propagates through the DXL entry point's error paths
/// untouched (no service in the loop).
#[test]
fn optimizer_timeout_error_is_not_aborted() {
    let provider = tpcds_env();
    let (query, registry, reqs) = compile_query(&provider, SEVEN_WAY_JOIN);
    let optimizer = Optimizer::new(provider, OptimizerConfig::default());
    let expired = Instant::now() - Duration::from_secs(1);
    match optimizer.optimize_with_deadline(&query.expr, &registry, &reqs, expired) {
        Ok((_, stats)) => assert!(stats.timed_out),
        Err(e) => {
            assert!(matches!(e, OrcaError::Timeout(_)), "{e}");
            assert_eq!(e.kind(), "timeout");
        }
    }
}

/// Determinism is what makes plan caching sound: over a 12-query suite
/// corpus served through the DXL entry point, every cached plan is
/// byte-identical to an independent fresh optimization, repeats are served
/// from the cache, and nothing degrades without contention.
#[test]
fn cached_suite_plans_match_fresh_optimization() {
    const CORPUS: usize = 12;
    const REPEATS: usize = 20;
    let provider = tpcds_env();
    let config = OptimizerConfig::default().with_workers(2);
    let corpus: Vec<(String, DxlQuery)> = suite()
        .into_iter()
        .take(CORPUS)
        .map(|q| (q.id, compile_query(&provider, &q.sql).0))
        .collect();
    let svc = Service::new(
        provider.clone(),
        ServiceConfig {
            optimizer: config.clone(),
            ..ServiceConfig::default()
        },
    );
    let session = svc.open_session();
    let texts: Vec<String> = corpus.iter().map(|(_, q)| query_to_dxl(q)).collect();
    let cached: Vec<Arc<str>> = texts
        .iter()
        .map(|dxl| {
            let t = svc.submit(session, dxl).expect("cold submit");
            assert_eq!(t.response.source, PlanSource::Fresh);
            t.response.plan_dxl
        })
        .collect();
    for _ in 0..REPEATS {
        for (dxl, plan) in texts.iter().zip(&cached) {
            let t = svc.submit(session, dxl).expect("repeat submit");
            assert_eq!(t.response.source, PlanSource::Cache);
            assert_eq!(&t.response.plan_dxl, plan);
        }
    }
    let stats = svc.stats();
    let hit_rate = stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses) as f64;
    assert!(hit_rate >= 0.9, "repeat hit rate {hit_rate:.3}: {stats:?}");
    assert_eq!(stats.degraded, 0, "{stats:?}");

    let fresh_optimizer = Optimizer::new(provider, config);
    for ((id, q), plan) in corpus.iter().zip(&cached) {
        let (fresh, opt) = fresh_optimizer
            .optimize_query(q)
            .expect("fresh optimization");
        let fresh = plan_to_dxl(&DxlPlan {
            plan: fresh,
            cost: opt.plan_cost,
        });
        assert_eq!(
            &fresh, &**plan,
            "{id}: cached DXL differs from a fresh plan"
        );
    }
}
