//! The optimizer facade: configuration, the §4.1 workflow, multi-stage
//! optimization, and the DXL entry points of Figure 2.

use crate::cost::{CostModel, CostParams};
use crate::memo::{GroupId, Memo, SearchMetricsSnapshot};
use crate::preprocess::preprocess;
use crate::props::ReqdProps;
use crate::rules::RuleSet;
use crate::search::{self, SearchCtx};
use crate::stats::StatsDeriver;
use orca_catalog::provider::MdProvider;
use orca_catalog::{MdAccessor, MdCache};
use orca_common::{ColId, MdId, OrcaError, Result, SegmentConfig};
use orca_dxl::{DxlPlan, DxlQuery};
use orca_expr::logical::LogicalExpr;
use orca_expr::physical::PhysicalPlan;
use orca_expr::props::DistSpec;
use orca_expr::{ColumnRegistry, OrderSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One optimization stage (§4.1 "Multi-Stage Optimization"): "a complete
/// optimization workflow using a subset of transformation rules and
/// (optional) time-out and cost threshold".
#[derive(Debug, Clone, Default)]
pub struct StageConfig {
    /// Rules enabled in this stage (`None` = all).
    pub rules: Option<Vec<&'static str>>,
    /// Give up on the stage after this long.
    pub timeout: Option<Duration>,
    /// Stop staging once a plan at or below this cost is found.
    pub cost_threshold: Option<f64>,
}

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Threads for one search's jobs (§4.2). Currently has no effect:
    /// every search steps its jobs on the calling thread (see
    /// `orca_gpos::sched`); the value is kept in configs and dumps.
    pub workers: usize,
    /// Cluster description shared with the cost model.
    pub cluster: SegmentConfig,
    pub cost_params: CostParams,
    /// Optimization stages, tried in order. Empty = single unrestricted
    /// stage.
    pub stages: Vec<StageConfig>,
    /// Rules disabled globally (trace-flag style).
    pub disabled_rules: Vec<&'static str>,
    /// Testing hook (§6.1): raise an injected fault at the named point
    /// ("explore", "implement", "optimize").
    pub inject_fault: Option<&'static str>,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            workers: 1,
            cluster: SegmentConfig::default(),
            cost_params: CostParams::default(),
            stages: Vec::new(),
            disabled_rules: Vec::new(),
            inject_fault: None,
        }
    }
}

impl OptimizerConfig {
    pub fn with_workers(mut self, workers: usize) -> OptimizerConfig {
        self.workers = workers.max(1);
        self
    }

    pub fn with_cluster(mut self, cluster: SegmentConfig) -> OptimizerConfig {
        self.cluster = cluster;
        self
    }

    /// Serialize to key/value pairs for AMPERe dumps.
    pub fn to_kv(&self) -> Vec<(String, String)> {
        let mut kv = vec![
            ("workers".into(), self.workers.to_string()),
            ("segments".into(), self.cluster.num_segments.to_string()),
        ];
        for r in &self.disabled_rules {
            kv.push(("disabled_rule".into(), (*r).to_string()));
        }
        if let Some(f) = self.inject_fault {
            kv.push(("inject_fault".into(), f.to_string()));
        }
        kv
    }

    /// Rebuild (partially) from dump key/value pairs.
    pub fn from_kv(kv: &[(String, String)]) -> OptimizerConfig {
        let mut cfg = OptimizerConfig::default();
        for (k, v) in kv {
            match k.as_str() {
                "workers" => cfg.workers = v.parse().unwrap_or(1),
                "segments" => {
                    cfg.cluster.num_segments = v.parse().unwrap_or(cfg.cluster.num_segments)
                }
                _ => {}
            }
        }
        cfg
    }
}

/// Query-level requirements (what Listing 1 encodes alongside the tree).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReqs {
    pub output_cols: Vec<ColId>,
    pub order: OrderSpec,
    pub dist: DistSpec,
}

impl QueryReqs {
    pub fn gather_all(output_cols: Vec<ColId>) -> QueryReqs {
        QueryReqs {
            output_cols,
            order: OrderSpec::any(),
            dist: DistSpec::Singleton,
        }
    }
}

/// Diagnostics from one optimization run (feeds the §7.2.2 resource
/// statistics experiment).
#[derive(Debug, Clone, Default)]
pub struct OptStats {
    pub groups: usize,
    pub group_exprs: usize,
    pub jobs_spawned: usize,
    pub job_steps: usize,
    /// Scheduler goal requests answered by an existing job (§4.2 dedup).
    pub goal_hits: usize,
    pub memo_bytes: u64,
    pub metadata_bytes: u64,
    pub optimization_time: Duration,
    /// Per-phase wall time of the winning stage (§4.2 scaling bench needs
    /// exploration separated out, now that it runs on the full pool).
    pub explore_time: Duration,
    pub implement_time: Duration,
    pub optimize_time: Duration,
    pub plan_cost: f64,
    pub stages_run: usize,
    /// Memo-level search counters (dedup hits, merges, pruned
    /// contexts, ...) from the winning stage.
    pub search: SearchMetricsSnapshot,
    /// Distinct metadata ids (version included) accessed during
    /// optimization — the invalidation component of a plan-cache key: a
    /// `bump_table_version` changes the current id set, so a cached plan
    /// stored under the old set misses on next lookup.
    pub md_ids: Vec<MdId>,
    /// The deadline expired mid-search: the plan (if any) is the best found
    /// so far, not the exhaustive optimum. Serving layers surface this as
    /// `degraded`.
    pub timed_out: bool,
}

/// The optimizer. Holds the metadata cache (shared across sessions) and a
/// provider plug-in; each `optimize` call is an independent session with
/// its own `MdAccessor` (§5).
pub struct Optimizer {
    provider: Arc<dyn MdProvider>,
    cache: Arc<MdCache>,
    pub config: OptimizerConfig,
}

impl Optimizer {
    pub fn new(provider: Arc<dyn MdProvider>, config: OptimizerConfig) -> Optimizer {
        Optimizer {
            provider,
            cache: MdCache::new(),
            config,
        }
    }

    pub fn provider(&self) -> &Arc<dyn MdProvider> {
        &self.provider
    }

    pub fn cache(&self) -> &Arc<MdCache> {
        &self.cache
    }

    /// DXL entry point (Figure 2): DXL query in, DXL plan out.
    pub fn optimize_dxl(&self, dxl: &str) -> Result<String> {
        let query = orca_dxl::parse_query(dxl, self.provider.as_ref())?;
        let (plan, stats) = self.optimize_query(&query)?;
        Ok(orca_dxl::plan_to_dxl(&DxlPlan {
            plan,
            cost: stats.plan_cost,
        }))
    }

    /// Optimize a parsed DXL query document.
    pub fn optimize_query(&self, q: &DxlQuery) -> Result<(PhysicalPlan, OptStats)> {
        self.optimize_query_with_deadline(q, None)
    }

    /// Optimize a parsed DXL query document under an optional wall-clock
    /// deadline (the serving layer's per-request budget).
    pub fn optimize_query_with_deadline(
        &self,
        q: &DxlQuery,
        deadline: Option<Instant>,
    ) -> Result<(PhysicalPlan, OptStats)> {
        let registry = Arc::new(ColumnRegistry::new());
        for (name, ty) in &q.columns {
            registry.fresh(name, *ty);
        }
        let reqs = QueryReqs {
            output_cols: q.output_cols.clone(),
            order: q.order.clone(),
            dist: q.dist.clone(),
        };
        self.optimize_inner(&q.expr, &registry, &reqs, deadline)
    }

    /// Optimize a logical expression tree under query requirements.
    ///
    /// This runs the full §4.1 workflow per stage: preprocess → copy-in →
    /// exploration → statistics derivation → implementation →
    /// optimization → extraction.
    pub fn optimize(
        &self,
        expr: &LogicalExpr,
        registry: &Arc<ColumnRegistry>,
        reqs: &QueryReqs,
    ) -> Result<(PhysicalPlan, OptStats)> {
        self.optimize_inner(expr, registry, reqs, None)
    }

    /// Like [`Optimizer::optimize`] but with a hard wall-clock deadline
    /// spanning *all* stages. On expiry the best plan found so far is
    /// returned with `OptStats::timed_out = true`; if no stage produced any
    /// plan by then, a typed [`OrcaError::Timeout`] surfaces so callers can
    /// degrade (e.g. to a heuristic fallback plan) instead of failing.
    pub fn optimize_with_deadline(
        &self,
        expr: &LogicalExpr,
        registry: &Arc<ColumnRegistry>,
        reqs: &QueryReqs,
        deadline: Instant,
    ) -> Result<(PhysicalPlan, OptStats)> {
        self.optimize_inner(expr, registry, reqs, Some(deadline))
    }

    fn optimize_inner(
        &self,
        expr: &LogicalExpr,
        registry: &Arc<ColumnRegistry>,
        reqs: &QueryReqs,
        deadline: Option<Instant>,
    ) -> Result<(PhysicalPlan, OptStats)> {
        let started = Instant::now();
        let accessor = MdAccessor::new(self.cache.clone(), self.provider.clone());
        let preprocessed = preprocess(expr, registry)?;
        let req = ReqdProps::new(reqs.order.clone(), reqs.dist.clone());

        let stages: Vec<StageConfig> = if self.config.stages.is_empty() {
            vec![StageConfig::default()]
        } else {
            self.config.stages.clone()
        };

        let mut best: Option<(PhysicalPlan, f64, OptStats)> = None;
        let mut last_err: Option<OrcaError> = None;
        let mut stages_run = 0;
        for stage in &stages {
            stages_run += 1;
            match self.run_stage(&preprocessed, registry, &accessor, &req, stage, deadline) {
                Ok((plan, cost, mut stats)) => {
                    stats.metadata_bytes = self.cache.bytes();
                    let better = best.as_ref().map(|(_, c, _)| cost < *c).unwrap_or(true);
                    if better {
                        best = Some((plan, cost, stats));
                    }
                    if let (Some(th), Some((_, c, _))) = (stage.cost_threshold, best.as_ref()) {
                        if *c <= th {
                            break;
                        }
                    }
                    if stage.cost_threshold.is_none() && stages.len() == 1 {
                        break;
                    }
                }
                Err(e) => {
                    last_err = Some(e);
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                // The request's whole budget is spent; later stages would
                // abort on their first scheduler step anyway.
                break;
            }
        }
        match best {
            Some((plan, cost, mut stats)) => {
                stats.plan_cost = cost;
                stats.optimization_time = started.elapsed();
                stats.stages_run = stages_run;
                stats.md_ids = accessor.accessed_mdids();
                Ok((plan, stats))
            }
            None => {
                Err(last_err
                    .unwrap_or_else(|| OrcaError::NoPlan("no stage produced a plan".into())))
            }
        }
    }

    /// Like [`Optimizer::optimize`] but single-stage, returning the Memo
    /// alongside the plan — the entry point TAQO's plan sampler needs
    /// (§6.2: "optimization requests' linkage structure provides the
    /// infrastructure used by TAQO to build a uniform plan sampler").
    pub fn optimize_with_memo(
        &self,
        expr: &LogicalExpr,
        registry: &Arc<ColumnRegistry>,
        reqs: &QueryReqs,
    ) -> Result<(Memo, GroupId, ReqdProps, PhysicalPlan, f64)> {
        let accessor = MdAccessor::new(self.cache.clone(), self.provider.clone());
        let preprocessed = preprocess(expr, registry)?;
        let req = ReqdProps::new(reqs.order.clone(), reqs.dist.clone());
        let mut rules = RuleSet::all();
        for r in &self.config.disabled_rules {
            let _ = rules.disable(r);
        }
        let cost = CostModel::new(self.config.cost_params.clone(), self.config.cluster.clone());
        let memo = Memo::new();
        let root = memo.copy_in(&preprocessed);
        let ctx = SearchCtx {
            memo: &memo,
            rules: &rules,
            registry,
            md: &accessor,
            cost: &cost,
        };
        search::explore(&ctx, root)?;
        let deriver =
            StatsDeriver::new(&memo, &accessor, registry, self.config.cluster.num_segments);
        for g in memo.canonical_groups() {
            deriver.derive(g)?;
        }
        search::implement(&ctx, root)?;
        search::optimize(&ctx, root, &req)?;
        let plan = crate::extract::extract_plan(&memo, root, &req)?;
        let plan_cost = crate::extract::best_cost(&memo, root, &req)?;
        Ok((memo, root, req, plan, plan_cost))
    }

    fn run_stage(
        &self,
        expr: &LogicalExpr,
        registry: &Arc<ColumnRegistry>,
        accessor: &MdAccessor,
        req: &ReqdProps,
        stage: &StageConfig,
        global_deadline: Option<Instant>,
    ) -> Result<(PhysicalPlan, f64, OptStats)> {
        let mut rules = RuleSet::all();
        if let Some(enabled) = &stage.rules {
            rules.enable_only(enabled);
        }
        for r in &self.config.disabled_rules {
            // Ignore unknown names: disabled lists may target rules of
            // other stages.
            let _ = rules.disable(r);
        }
        // A stage runs under the tighter of its own timeout and the
        // request-level deadline.
        let stage_deadline = stage.timeout.map(|t| Instant::now() + t);
        let deadline = match (stage_deadline, global_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let cost = CostModel::new(self.config.cost_params.clone(), self.config.cluster.clone());
        let memo = Memo::new();
        let root = memo.copy_in(expr);
        let ctx = SearchCtx {
            memo: &memo,
            rules: &rules,
            registry,
            md: accessor,
            cost: &cost,
        };

        self.fault_check("explore")?;
        let t_explore = Instant::now();
        let explore_to = search::explore_with_deadline(&ctx, root, deadline)?;
        let explore_time = t_explore.elapsed();

        // Statistics derivation (§4.1 step 2) for every canonical group the
        // exploration produced (merged shells resolve to their winners).
        let deriver =
            StatsDeriver::new(&memo, accessor, registry, self.config.cluster.num_segments);
        for g in memo.canonical_groups() {
            deriver.derive(g)?;
        }

        self.fault_check("implement")?;
        let t_implement = Instant::now();
        let implement_to = search::implement_with_deadline(&ctx, root, deadline)?;
        let implement_time = t_implement.elapsed();

        self.fault_check("optimize")?;
        let t_optimize = Instant::now();
        let run = search::optimize_with_deadline(&ctx, root, req, deadline)?;
        let optimize_time = t_optimize.elapsed();

        let timed_out = explore_to || implement_to || run.timed_out;
        // Extraction walks only fully-costed optimization contexts, so even
        // after a mid-phase timeout it yields a consistent best-so-far plan —
        // or fails cleanly when no context finished costing, which under a
        // timeout is reported as the typed `Timeout` the serving layer
        // degrades on (not as a spurious `NoPlan`).
        let extracted = crate::extract::extract_plan(&memo, root, req)
            .and_then(|plan| crate::extract::best_cost(&memo, root, req).map(|c| (plan, c)));
        let (plan, plan_cost) = match extracted {
            Ok(pc) => pc,
            Err(e) if timed_out => {
                return Err(OrcaError::Timeout(format!(
                    "deadline expired before any complete plan was costed ({e})"
                )));
            }
            Err(e) => return Err(e),
        };
        let stats = OptStats {
            groups: memo.num_canonical_groups(),
            group_exprs: memo.num_exprs(),
            jobs_spawned: run.jobs_spawned,
            job_steps: run.job_steps,
            goal_hits: run.goal_hits,
            memo_bytes: memo.bytes(),
            metadata_bytes: 0,
            optimization_time: Duration::ZERO,
            explore_time,
            implement_time,
            optimize_time,
            plan_cost,
            stages_run: 0,
            search: memo.metrics_snapshot(),
            md_ids: Vec::new(),
            timed_out,
        };
        Ok((plan, plan_cost, stats))
    }

    fn fault_check(&self, point: &str) -> Result<()> {
        if self.config.inject_fault.is_some_and(|f| f == point) {
            return Err(OrcaError::InjectedFault(format!(
                "injected fault at {point}"
            )));
        }
        Ok(())
    }
}
