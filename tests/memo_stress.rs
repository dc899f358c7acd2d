//! Memo stress tests (§4.2).
//!
//! Duplicate detection and group merging must keep the Memo canonical
//! under insert storms: identical expression topologies inserted in many
//! different orders land in one group, group ids stay dense and stable,
//! and the dedup index always agrees with the directory
//! (`Memo::check_integrity`). A Memo is owned by one search on one thread,
//! so a storm is a sequence of insert passes, each in its own order. End
//! to end, the configured worker count must never change the plan.

use orca::engine::{Optimizer, OptimizerConfig, QueryReqs};
use orca::memo::{GroupId, Memo, Operator};
use orca_catalog::stats::ColumnStats;
use orca_catalog::{ColumnMeta, Distribution, MdProvider, MemoryProvider, TableDesc, TableStats};
use orca_common::{ColId, DataType, Datum, MdId, SegmentConfig, SysId};
use orca_expr::logical::{JoinKind, LogicalExpr, LogicalOp, TableRef};
use orca_expr::pretty::explain_physical;
use orca_expr::props::DistSpec;
use orca_expr::scalar::ScalarExpr;
use orca_expr::ColumnRegistry;
use orca_tpcds::build_catalog;
use std::collections::HashMap;
use std::sync::Arc;

/// Insert passes per storm, each walking the work in its own order.
const PASSES: usize = 8;

fn tref(oid: u64) -> TableRef {
    TableRef(Arc::new(TableDesc::new(
        MdId::new(SysId::Gpdb, oid, 1),
        &format!("t{oid}"),
        vec![
            ColumnMeta::new("a", DataType::Int),
            ColumnMeta::new("b", DataType::Int),
        ],
        Distribution::Hashed(vec![0]),
    )))
}

fn leaf(oid: u64) -> LogicalExpr {
    let first = (oid as u32 - 1) * 2;
    LogicalExpr::leaf(LogicalOp::Get {
        table: tref(oid),
        cols: vec![ColId(first), ColId(first + 1)],
        parts: None,
    })
}

fn join(l: LogicalExpr, r: LogicalExpr, lcol: u32, rcol: u32) -> LogicalExpr {
    LogicalExpr::new(
        LogicalOp::Join {
            kind: JoinKind::Inner,
            pred: ScalarExpr::col_eq_col(ColId(lcol), ColId(rcol)),
        },
        vec![l, r],
    )
}

/// A family of join trees over a shared pool of leaves, with heavily
/// overlapping sub-trees (every tree `i` reuses the `leaf(i) ⋈ leaf(i+1)`
/// spine of its neighbours).
fn workload(trees: u64) -> Vec<LogicalExpr> {
    (1..=trees)
        .map(|i| {
            let base = join(leaf(i), leaf(i + 1), (i as u32 - 1) * 2, i as u32 * 2);
            join(base, leaf(i + 2), (i as u32 - 1) * 2, (i as u32 + 1) * 2)
        })
        .collect()
}

/// Copy the workload into `memo` in `PASSES` passes, starting with pass
/// `first`; pass `t` walks the tree list from offset `3t`, so insert
/// orders differ from pass to pass.
fn storm(memo: &Memo, work: &[LogicalExpr], first: usize) {
    for t in (first..first + PASSES).map(|t| t % PASSES) {
        for i in 0..work.len() {
            memo.copy_in(&work[(i + t * 3) % work.len()]);
        }
    }
}

/// Every distinct topology must occupy exactly one slot in exactly one
/// group, whatever order the passes inserted it in.
fn assert_no_duplicate_topologies(memo: &Memo) {
    let mut seen: HashMap<(Operator, Vec<GroupId>), (GroupId, usize)> = HashMap::new();
    for idx in 0..memo.num_groups() {
        let gid = GroupId(idx as u32);
        let g = memo.group(gid);
        assert_eq!(g.id, gid, "directory slot {idx} holds the wrong group");
        for (eid, e) in g.exprs.iter().enumerate() {
            let prev = seen.insert((e.op.clone(), e.children.clone()), (gid, eid));
            assert!(
                prev.is_none(),
                "topology stored twice: {gid}/{eid} and {:?}",
                prev
            );
        }
    }
}

#[test]
fn concurrent_copy_in_storm_is_canonical() {
    let work = workload(24);
    let memo = Memo::new();
    storm(&memo, &work, 0);

    // Reference: the storm must produce exactly the groups a single
    // in-order copy-in produces.
    let reference = Memo::new();
    for tree in &work {
        reference.copy_in(tree);
    }
    assert_eq!(memo.num_groups(), reference.num_groups());
    assert_eq!(memo.num_exprs(), reference.num_exprs());

    assert_no_duplicate_topologies(&memo);
    memo.check_integrity().expect("index/directory agreement");

    // The overlap was real: most insertions were answered by dedup.
    let snap = memo.metrics().snapshot();
    assert!(snap.dedup_hits > snap.exprs_inserted);
}

#[test]
fn repeated_storms_reach_identical_group_counts() {
    let work = workload(16);
    let counts: Vec<(usize, usize)> = (0..3)
        .map(|first| {
            let memo = Memo::new();
            storm(&memo, &work, first);
            memo.check_integrity().expect("index/directory agreement");
            (memo.num_groups(), memo.num_exprs())
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "group/expr counts varied across storms: {counts:?}"
    );
}

/// Canonical-aware duplicate check: across all *canonical* groups, every
/// live topology must be stored exactly once. (Merged shells are drained,
/// so they are skipped by construction.)
fn assert_single_canonical_home_per_topology(memo: &Memo) {
    let mut seen: HashMap<(Operator, Vec<GroupId>), (GroupId, usize)> = HashMap::new();
    for gid in memo.canonical_groups() {
        let g = memo.group(gid);
        for (eid, e) in g.exprs.iter().enumerate() {
            if e.dead {
                continue;
            }
            let prev = seen.insert((e.op.clone(), e.children.clone()), (gid, eid));
            assert!(
                prev.is_none(),
                "topology stored twice after merges: {gid}/{eid} and {:?}",
                prev
            );
        }
    }
}

#[test]
fn merge_storm_single_canonical_group_per_topology() {
    // Passes interleave standalone spellings of shared join shapes with
    // targeted copies of the same shapes aimed at pass-private host
    // groups — exactly the collision §4.2 group merging resolves. Every
    // host must end up merged with the shape's standalone home, leaving
    // one canonical group per topology whatever the insert order.
    const SHAPES: u64 = 6;
    let memo = Memo::new();
    // Shared leaf groups minted up front so every pass references the
    // same children.
    let shapes: Vec<(GroupId, GroupId, Operator)> = (1..=SHAPES)
        .map(|i| {
            let l = memo.copy_in(&leaf(i));
            let r = memo.copy_in(&leaf(i + 1));
            let op = Operator::Logical(LogicalOp::Join {
                kind: JoinKind::Inner,
                pred: ScalarExpr::col_eq_col(ColId((i as u32 - 1) * 2), ColId(i as u32 * 2)),
            });
            (l, r, op)
        })
        .collect();
    let mut hosts: Vec<(usize, GroupId)> = Vec::new();
    for t in 0..PASSES {
        for k in 0..shapes.len() {
            let (l, r, op) = &shapes[(k + t) % shapes.len()];
            if t % 2 == 0 {
                // Standalone spelling: lands in (or dedups to) the shape's
                // home group.
                memo.insert_expr(None, op.clone(), vec![*l, *r]);
            } else {
                // Pass-private host group (unique predicate makes the
                // topology unique), then a targeted copy of the shared
                // shape — the merge trigger.
                let unique = Operator::Logical(LogicalOp::Join {
                    kind: JoinKind::Inner,
                    pred: ScalarExpr::col_eq_col(
                        ColId(1000 + (t * SHAPES as usize + k) as u32),
                        ColId(0),
                    ),
                });
                let (host, _, _) = memo.insert_expr(None, unique, vec![*l, *r]);
                let (home, _, _) = memo.insert_expr(Some(host), op.clone(), vec![*l, *r]);
                hosts.push(((k + t) % shapes.len(), home));
            }
        }
    }
    // Merges actually happened (every odd pass forced at least one).
    let snap = memo.metrics().snapshot();
    assert!(snap.groups_merged > 0, "storm never triggered a merge");
    // Every host that received a targeted copy of shape k now resolves to
    // the same canonical group as every other copy of shape k.
    for &(k, home) in &hosts {
        let (l, r, op) = &shapes[k];
        let (canon, _, added) = memo.insert_expr(None, op.clone(), vec![*l, *r]);
        assert!(!added, "shape {k} lost its dedup entry");
        assert_eq!(
            memo.resolve(home),
            memo.resolve(canon),
            "shape {k}: targeted home and standalone home did not merge"
        );
    }
    assert_single_canonical_home_per_topology(&memo);
    memo.check_integrity().expect("index/directory agreement");
}

#[test]
fn merge_purges_loser_scoped_selectivity_entries() {
    // Warm the selectivity cache under two groups that are about to merge,
    // then force the merge (targeted copy of a shared shape, exactly as in
    // `merge_storm_...`). Probes under the pre-merge loser id must resolve
    // through the union-find to the surviving winner-scoped entry — the
    // loser-keyed value is purged at merge time and can never be served.
    let memo = Memo::new();
    let l = memo.copy_in(&leaf(1));
    let r = memo.copy_in(&leaf(2));
    let shared = Operator::Logical(LogicalOp::Join {
        kind: JoinKind::Inner,
        pred: ScalarExpr::col_eq_col(ColId(0), ColId(2)),
    });
    let (home, _, _) = memo.insert_expr(None, shared.clone(), vec![l, r]);
    let unique = Operator::Logical(LogicalOp::Join {
        kind: JoinKind::Inner,
        pred: ScalarExpr::col_eq_col(ColId(1000), ColId(0)),
    });
    let (host, _, _) = memo.insert_expr(None, unique, vec![l, r]);
    assert_ne!(home, host);

    let pid = memo.intern_scalar(&ScalarExpr::col_eq_col(ColId(0), ColId(2)));
    const HOME_SEL: f64 = 0.25;
    const HOST_SEL: f64 = 0.5;
    memo.note_selectivity(home, home, pid, HOME_SEL);
    memo.note_selectivity(host, host, pid, HOST_SEL);
    assert_eq!(memo.cached_selectivity(home, home, pid), Some(HOME_SEL));
    assert_eq!(memo.cached_selectivity(host, host, pid), Some(HOST_SEL));

    // Targeted copy of the shared shape into `host` triggers the merge.
    memo.insert_expr(Some(host), shared, vec![l, r]);
    let winner = memo.resolve(host);
    assert_eq!(winner, memo.resolve(home), "host and home did not merge");
    assert!(memo.metrics().snapshot().groups_merged > 0);

    // Only the entry noted under the surviving canonical id is left; the
    // loser-scoped entry is gone. Probing under EITHER pre-merge id now
    // canonicalizes to the winner and yields the winner's value.
    let winner_sel = if winner == home { HOME_SEL } else { HOST_SEL };
    let loser_sel = if winner == home { HOST_SEL } else { HOME_SEL };
    for scope in [home, host, winner] {
        let got = memo.cached_selectivity(scope, scope, pid);
        assert_eq!(got, Some(winner_sel), "scope {scope} served a stale value");
        assert_ne!(got, Some(loser_sel));
    }
    // check_integrity additionally walks the whole cache and rejects any
    // key whose scope ids are not union-find roots.
    memo.check_integrity().expect("no stale loser-scoped keys");
}

#[test]
fn merge_heavy_optimization_cost_stable_across_workers() {
    // A 5-way star-with-tail join (s2/s3 hang off s1, s5 chains off s4 —
    // a smaller form of the `seven_way_join` query below) explores equivalent
    // join orders whose associativity rewrites re-derive the same topology
    // in two homes, triggering §4.2 group merging with the estimation
    // caches already warm. The cached selectivities must
    // migrate/invalidate coherently: the winning plan cost has to be
    // bit-identical at 1 and 4 workers.
    let p = Arc::new(MemoryProvider::new());
    for (i, (name, rows)) in [
        ("s1", 10_000.0),
        ("s2", 50_000.0),
        ("s3", 20_000.0),
        ("s4", 5_000.0),
        ("s5", 40_000.0),
    ]
    .iter()
    .enumerate()
    {
        let id = p.register(
            name,
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Hashed(vec![0]),
        );
        let values: Vec<Datum> = (0..1000)
            .map(|v| Datum::Int((v + i as i64) % 250))
            .collect();
        p.set_stats(
            id,
            TableStats::new(*rows, 2)
                .set_column(0, ColumnStats::from_column(&values, 16))
                .set_column(1, ColumnStats::from_column(&values, 16)),
        );
    }
    let registry = Arc::new(ColumnRegistry::new());
    for name in [
        "s1.a", "s1.b", "s2.a", "s2.b", "s3.a", "s3.b", "s4.a", "s4.b", "s5.a", "s5.b",
    ] {
        registry.fresh(name, DataType::Int);
    }
    let get = |name: &str, first: u32| {
        LogicalExpr::leaf(LogicalOp::Get {
            table: TableRef(p.table(p.table_by_name(name).unwrap()).unwrap()),
            cols: vec![ColId(first), ColId(first + 1)],
            parts: None,
        })
    };
    let join2 = |l: LogicalExpr, r: LogicalExpr, lc: u32, rc: u32| {
        LogicalExpr::new(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                pred: ScalarExpr::col_eq_col(ColId(lc), ColId(rc)),
            },
            vec![l, r],
        )
    };
    let chain = join2(
        join2(
            join2(join2(get("s1", 0), get("s2", 2), 0, 2), get("s3", 4), 0, 4),
            get("s4", 6),
            1,
            6,
        ),
        get("s5", 8),
        7,
        8,
    );
    let reqs = QueryReqs::gather_all(vec![ColId(0)]);

    let mut costs = Vec::new();
    for workers in [1usize, 4] {
        let optimizer = Optimizer::new(p.clone(), OptimizerConfig::default().with_workers(workers));
        let (_, stats) = optimizer.optimize(&chain, &registry, &reqs).expect("plans");
        // A correct multi-worker search can finish without merging a
        // group, so merges are not asserted; the cost equality below is.
        assert!(
            stats.search.sel_cache_hits > 0,
            "estimation caches never hit at {workers} workers"
        );
        costs.push(stats.plan_cost);
    }
    assert!(
        costs[0] == costs[1],
        "plan cost changed with worker count: {} vs {}",
        costs[0],
        costs[1]
    );
}

#[test]
fn targeted_insert_storm_no_intra_group_duplicates() {
    // One join group per tree; every pass re-inserts the original and the
    // commuted variant into the SAME group.
    let work = workload(8);
    let memo = Memo::new();
    let roots: Vec<GroupId> = work.iter().map(|t| memo.copy_in(t)).collect();
    for _ in 0..PASSES {
        for &root in &roots {
            let (op, c1, c2) = {
                let g = memo.group(root);
                let e = &g.exprs[0];
                (e.op.clone(), e.children[0], e.children[1])
            };
            for _ in 0..50 {
                memo.insert_expr(Some(root), op.clone(), vec![c1, c2]);
                memo.insert_expr(Some(root), op.clone(), vec![c2, c1]);
            }
        }
    }
    for &root in &roots {
        assert_eq!(
            memo.group(root).exprs.len(),
            2,
            "group {root} holds exactly the original and the commuted join"
        );
    }
    assert_no_duplicate_topologies(&memo);
    memo.check_integrity().expect("index/directory agreement");
}

/// The §4.2 scaling query: a 7-way join over the TPC-DS-style catalog,
/// wide enough to feed several workers. `variant` shifts the date filter.
fn seven_way_join(variant: usize) -> String {
    format!(
        "SELECT i.i_brand_id, d.d_moy, count(*) AS n, sum(cs.cs_net_profit) AS profit \
         FROM catalog_sales cs, item i, date_dim d, promotion p, call_center cc, \
              customer c, customer_address ca \
         WHERE cs.cs_item_sk = i.i_item_sk \
           AND cs.cs_sold_date_sk = d.d_date_sk \
           AND cs.cs_promo_sk = p.p_promo_sk \
           AND cs.cs_call_center_sk = cc.cc_call_center_sk \
           AND cs.cs_bill_customer_sk = c.c_customer_sk \
           AND c.c_current_addr_sk = ca.ca_address_sk \
           AND d.d_date_sk > {} \
         GROUP BY i.i_brand_id, d.d_moy ORDER BY profit DESC LIMIT 20",
        variant * 10
    )
}

#[test]
fn seven_way_join_plan_identical_at_1_and_4_workers() {
    // Parallel exploration with group merging must converge on the same
    // memo as one worker: the same extracted plan, a bit-equal cost, and
    // a job count within 10 % (the slack covers goal-dedup timing only).
    // Branch-and-bound must fire, and the memoized selectivity and
    // cardinality caches must absorb at least half of all probes.
    let cluster = SegmentConfig::default().with_segments(16);
    let (provider, _) = build_catalog(0.01, cluster.clone());
    let mut baseline = Vec::new();
    for workers in [1usize, 4] {
        let optimizer = Optimizer::new(
            provider.clone(),
            OptimizerConfig::default()
                .with_workers(workers)
                .with_cluster(cluster.clone()),
        );
        let (mut pruned, mut sel_hits, mut sel_misses) = (0, 0, 0);
        for variant in 0..3 {
            let registry = Arc::new(ColumnRegistry::new());
            let bound = orca_sql::compile(&seven_way_join(variant), provider.as_ref(), &registry)
                .expect("binds");
            let reqs = QueryReqs {
                output_cols: bound.output_cols.clone(),
                order: bound.order.clone(),
                dist: DistSpec::Singleton,
            };
            let (plan, stats) = optimizer
                .optimize(&bound.expr, &registry, &reqs)
                .expect("plans");
            pruned += stats.search.contexts_pruned;
            sel_hits += stats.search.sel_cache_hits;
            sel_misses += stats.search.sel_cache_misses;
            if workers == 1 {
                baseline.push((plan, stats.plan_cost, stats.jobs_spawned));
                continue;
            }
            let (base_plan, base_cost, base_jobs) = &baseline[variant];
            assert!(
                plan == *base_plan,
                "variant {variant}: {workers} workers changed the plan\n{}\nvs\n{}",
                explain_physical(base_plan),
                explain_physical(&plan)
            );
            assert_eq!(
                stats.plan_cost.to_bits(),
                base_cost.to_bits(),
                "variant {variant}: plan cost {} vs {base_cost} at 1 worker",
                stats.plan_cost
            );
            let drift = stats.jobs_spawned.abs_diff(*base_jobs) as f64 / *base_jobs as f64;
            assert!(
                drift <= 0.10,
                "variant {variant}: {} jobs at {workers} workers vs {base_jobs} at 1",
                stats.jobs_spawned
            );
        }
        assert!(
            pruned > 0,
            "branch-and-bound never fired at {workers} workers"
        );
        let hit_rate = sel_hits as f64 / (sel_hits + sel_misses) as f64;
        assert!(
            hit_rate >= 0.5,
            "sel-cache hit rate {hit_rate:.3} at {workers} workers \
             ({sel_hits} hits, {sel_misses} misses)"
        );
    }
}
