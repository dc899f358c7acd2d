//! The golden plan ledger: what the optimizer picks, committed.
//!
//! Paper §6.1 turns dumps with expected plans into regression tests that
//! span versions. This is the cheap form of that: `tests/golden/plans.tsv`
//! holds one line per query — the 111 suite queries, the §4.2 7-way join
//! and a 5-way star — with
//!
//! * a hash of the `explain_physical` text,
//! * the bits of the plan cost,
//! * the bits of the simulated seconds of a columnar run at scale 0.02,
//! * the memo's `groups` and `group_exprs` counts.
//!
//! The test recomputes the ledger and compares it with the file, field by
//! field. Every search steps its jobs on one thread, so the ledger is
//! computed once, at the default configuration.
//!
//! A change that moves a plan on purpose regenerates the file and shows
//! up as a reviewable diff:
//!
//! ```text
//! ORCA_BLESS=1 cargo test --release --test golden_plans
//! ```

use orca::engine::{Optimizer, OptimizerConfig, QueryReqs};
use orca_catalog::stats::ColumnStats;
use orca_catalog::{ColumnMeta, Distribution, MdProvider, MemoryProvider, TableStats};
use orca_common::hash::fnv_hash;
use orca_common::{ColId, DataType, Datum, SegmentConfig};
use orca_executor::{Database, ExecEngine};
use orca_expr::logical::{JoinKind, LogicalExpr, LogicalOp, TableRef};
use orca_expr::physical::PhysicalPlan;
use orca_expr::pretty::explain_physical;
use orca_expr::props::DistSpec;
use orca_expr::scalar::ScalarExpr;
use orca_expr::ColumnRegistry;
use orca_tpcds::{build_catalog, suite};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

const SCALE: f64 = 0.02;
const SEGMENTS: usize = 4;
const HEADER: &str = "# id\tplan_hash\tcost_bits\tsim_bits\tgroups\tgroup_exprs";

fn ledger_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plans.tsv")
}

/// One query to plan: its logical tree, requirements and data.
struct Case {
    id: String,
    provider: Arc<MemoryProvider>,
    db: Arc<Database>,
    registry: Arc<ColumnRegistry>,
    expr: LogicalExpr,
    reqs: QueryReqs,
}

/// The §4.2 scaling query (the 7-way join of `memo_stress`, variant 0).
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
       AND d.d_date_sk > 0 \
     GROUP BY i.i_brand_id, d.d_moy ORDER BY profit DESC LIMIT 20";

fn suite_cases(cluster: &SegmentConfig) -> Vec<Case> {
    let (provider, db) = build_catalog(SCALE, cluster.clone());
    let db = Arc::new(db);
    let mut queries: Vec<(String, String)> = suite().into_iter().map(|q| (q.id, q.sql)).collect();
    queries.push(("join7".into(), SEVEN_WAY_JOIN.into()));
    queries
        .into_iter()
        .map(|(id, sql)| {
            let registry = Arc::new(ColumnRegistry::new());
            let bound = orca_sql::compile(&sql, provider.as_ref(), &registry)
                .unwrap_or_else(|e| panic!("{id} bind: {e}"));
            Case {
                id,
                provider: provider.clone(),
                db: db.clone(),
                registry,
                reqs: QueryReqs {
                    output_cols: bound.output_cols.clone(),
                    order: bound.order.clone(),
                    dist: DistSpec::Singleton,
                },
                expr: bound.expr,
            }
        })
        .collect()
}

/// The 5-way star-with-tail join of `memo_stress` (s2/s3 hang off s1, s5
/// chains off s4), with 100 rows of data per table.
fn star_case(cluster: &SegmentConfig) -> Case {
    let p = Arc::new(MemoryProvider::new());
    let mut db = Database::new(cluster.clone());
    let registry = Arc::new(ColumnRegistry::new());
    let tables = [
        ("s1", 10_000.0),
        ("s2", 50_000.0),
        ("s3", 20_000.0),
        ("s4", 5_000.0),
        ("s5", 40_000.0),
    ];
    for (i, (name, rows)) in tables.iter().enumerate() {
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
        let data = (0..100)
            .map(|v| vec![Datum::Int(v + i as i64), Datum::Int(v)])
            .collect();
        db.load_table(p.table(id).unwrap(), data).unwrap();
        registry.fresh(&format!("{name}.a"), DataType::Int);
        registry.fresh(&format!("{name}.b"), DataType::Int);
    }
    let get = |name: &str, first: u32| {
        LogicalExpr::leaf(LogicalOp::Get {
            table: TableRef(p.table(p.table_by_name(name).unwrap()).unwrap()),
            cols: vec![ColId(first), ColId(first + 1)],
            parts: None,
        })
    };
    let join = |l: LogicalExpr, r: LogicalExpr, lc: u32, rc: u32| {
        LogicalExpr::new(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                pred: ScalarExpr::col_eq_col(ColId(lc), ColId(rc)),
            },
            vec![l, r],
        )
    };
    let expr = join(
        join(
            join(join(get("s1", 0), get("s2", 2), 0, 2), get("s3", 4), 0, 4),
            get("s4", 6),
            1,
            6,
        ),
        get("s5", 8),
        7,
        8,
    );
    Case {
        id: "star5".into(),
        provider: p,
        db: Arc::new(db),
        registry,
        expr,
        reqs: QueryReqs::gather_all(vec![ColId(0)]),
    }
}

/// One ledger line, plus the plan it summarizes.
struct Entry {
    id: String,
    plan: PhysicalPlan,
    plan_hash: u64,
    cost_bits: u64,
    sim_bits: u64,
    groups: usize,
    group_exprs: usize,
}

impl Entry {
    fn line(&self) -> String {
        format!(
            "{}\t{:016x}\t{:016x}\t{:016x}\t{}\t{}",
            self.id, self.plan_hash, self.cost_bits, self.sim_bits, self.groups, self.group_exprs
        )
    }
}

/// The ledger: each case optimized and its plan run.
fn ledger(cases: &[Case], cluster: &SegmentConfig) -> Vec<Entry> {
    cases
        .iter()
        .map(|case| {
            let optimizer = Optimizer::new(
                case.provider.clone(),
                OptimizerConfig::default().with_cluster(cluster.clone()),
            );
            let (plan, stats) = optimizer
                .optimize(&case.expr, &case.registry, &case.reqs)
                .unwrap_or_else(|e| panic!("{}: {e}", case.id));
            let res = ExecEngine::new(&case.db)
                .run_columnar(&plan, &case.reqs.output_cols)
                .unwrap_or_else(|e| panic!("{} executes: {e}", case.id));
            Entry {
                id: case.id.clone(),
                plan_hash: fnv_hash(&explain_physical(&plan)),
                cost_bits: stats.plan_cost.to_bits(),
                sim_bits: res.sim_seconds.to_bits(),
                groups: stats.groups,
                group_exprs: stats.group_exprs,
                plan,
            }
        })
        .collect()
}

/// The committed ledger: id → the line's fields after the id.
fn recorded() -> BTreeMap<String, Vec<String>> {
    let text = std::fs::read_to_string(ledger_path())
        .unwrap_or_else(|e| panic!("{}: {e}", ledger_path().display()));
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let mut fields = l.split('\t').map(str::to_string);
            let id = fields.next().unwrap();
            (id, fields.collect())
        })
        .collect()
}

#[test]
fn golden_plan_ledger_holds() {
    let cluster = SegmentConfig::default().with_segments(SEGMENTS);
    let mut cases = suite_cases(&cluster);
    cases.push(star_case(&cluster));

    let entries = ledger(&cases, &cluster);
    if std::env::var_os("ORCA_BLESS").is_some_and(|v| v == "1") {
        let mut text = String::from(HEADER);
        for e in &entries {
            write!(text, "\n{}", e.line()).unwrap();
        }
        text.push('\n');
        std::fs::write(ledger_path(), text).unwrap();
    }
    let file = recorded();
    assert_eq!(
        file.len(),
        cases.len(),
        "the ledger lists {} queries, the test plans {}",
        file.len(),
        cases.len()
    );

    let mut report = String::new();
    for e in &entries {
        let fields: Vec<String> = e.line().split('\t').skip(1).map(str::to_string).collect();
        let want = file
            .get(&e.id)
            .unwrap_or_else(|| panic!("{} is missing from the ledger", e.id));
        if fields != *want {
            writeln!(
                report,
                "{}\n  recorded: {}\n  computed: {}\n  plan now:\n{}",
                e.id,
                want.join("\t"),
                fields.join("\t"),
                explain_physical(&e.plan)
            )
            .unwrap();
        }
    }
    assert!(
        report.is_empty(),
        "the optimizer's plans left the golden ledger (rerun with ORCA_BLESS=1 \
         if the change is intended, and review the diff):\n{report}"
    );
}
