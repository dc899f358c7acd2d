//! Optimizer-as-a-service (§3): an in-process serving layer in front of
//! [`orca::Optimizer`].
//!
//! The paper's headline architectural claim is that Orca runs *outside*
//! the host DBMS as a standalone service exchanging DXL. This crate
//! supplies the serving substrate that claim implies:
//!
//! * **sessions** ([`session`]) — one per client connection, each owning a
//!   per-session `MdAccessor` over the shared metadata cache;
//! * **admission control** ([`admission`]) — a bounded set of concurrent
//!   optimizations with a FIFO overflow queue and per-request deadlines;
//! * **a versioned plan cache** ([`cache`]) — keyed on a
//!   version-normalized query fingerprint, invalidated by `MdId` version
//!   drift, evicted LRU under a byte budget;
//! * **graceful degradation** — on deadline expiry or queue rejection the
//!   service answers with the best-so-far plan or the legacy planner's
//!   heuristic plan, tagged `degraded: true`, instead of an error;
//! * **a shared scan-fragment cache** ([`orca_executor::FragmentCache`]) —
//!   one byte-budgeted cache attached to every engine the execute path
//!   builds, so concurrent and repeated queries share materialized scan
//!   fragments (cooperative scans) across requests;
//! * **executor memory grants** ([`grants`]) — every execute-after-optimize
//!   request is admitted against a global executor-memory pool sized by
//!   [`ServiceConfig::executor_memory_bytes`]; the grant (seeded from the
//!   optimizer's cost estimate) becomes the query's
//!   [`orca_executor::MemoryTracker`], and a degraded (smaller) grant
//!   tightens the per-operator budget so the query spills instead of
//!   failing;
//! * **metrics** ([`metrics`]) — admission/cache/sharing counters and
//!   optimize latency percentiles.
//!
//! Every request takes one path, and every response goes out through a
//! [`StreamSink`]: the TCP front-end's sink writes frames to the socket,
//! and the in-process `submit*` calls pass a sink that collects the rows
//! into [`ExecSummary::rows`].
//!
//! ```text
//! submit(dxl) ─ parse ─ rebind tables to current versions ─ fingerprint
//!    ├─ cache hit (id set matches) ──────────────────────► cached plan
//!    └─ miss/stale ─ admission gate ─┬─ admitted ─ optimize(deadline)
//!                                    │     ├─ done ── cache + return
//!                                    │     ├─ truncated ─ degraded plan
//!                                    │     └─ timeout ─ fallback, degraded
//!                                    └─ rejected/queue-timeout ─ fallback
//!    then: sink.on_plan(header) ─ execute ─ sink.on_rows(batch)…
//! ```

pub mod admission;
pub mod cache;
pub mod grants;
pub mod metrics;
pub mod server;
pub mod session;

pub use admission::{Admission, AdmissionGate};
pub use cache::{CacheLookup, CachedPlan, PlanCache};
pub use grants::{MemoryGrant, MemoryGrantBroker};
pub use metrics::{ServiceMetrics, ServiceStats};
pub use server::{ServiceClient, ServiceServer};
pub use session::{Session, SessionId, SessionManager};

use orca::{OptStats, Optimizer, OptimizerConfig};
use orca_catalog::provider::MdProvider;
use orca_catalog::MdAccessor;
use orca_common::{ColId, MdId, OrcaError, Result};
use orca_dxl::{plan_to_dxl, query_fingerprint, DxlPlan, DxlQuery};
use orca_executor::{
    Cursor, CursorOptions, Database, ExecStats, FragmentCache, MemoryBudget, MemoryTracker,
    ParallelConfig, ParallelEngine, ParallelStats, Row,
};
use orca_expr::logical::TableRef;
use orca_expr::physical::PhysicalPlan;
use orca_expr::ColumnRegistry;
use orca_planner::LegacyPlanner;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub optimizer: OptimizerConfig,
    /// Concurrent optimizations admitted at once. `0` = the host's
    /// parallelism (the default): every admitted search steps its jobs on
    /// its own thread, so one search per CPU keeps every CPU busy without
    /// oversubscribing any.
    pub max_concurrent: usize,
    /// FIFO overflow queue depth; arrivals beyond it are shed to the
    /// fallback planner.
    pub queue_depth: usize,
    /// Per-request optimization budget (admission wait + search). `None` =
    /// unbounded.
    pub default_deadline: Option<Duration>,
    /// Plan-cache byte budget.
    pub cache_bytes: u64,
    /// Byte budget of the shared scan-fragment cache the execute path
    /// attaches to every engine it builds.
    pub fragment_cache_bytes: u64,
    /// Global executor-memory pool every execution is admitted against
    /// (grants, fragment cache, and CTE spools all draw on it). `0` =
    /// unbounded: every request gets its full ask immediately and nothing
    /// queues or degrades.
    pub executor_memory_bytes: u64,
    /// Execute plans after planning (requires [`Service::attach_database`]);
    /// `None` = planning-only service.
    pub execute: Option<ExecuteConfig>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            optimizer: OptimizerConfig::default(),
            max_concurrent: 0,
            queue_depth: 32,
            default_deadline: None,
            cache_bytes: 8 << 20,
            fragment_cache_bytes: 32 << 20,
            executor_memory_bytes: 0,
            execute: None,
        }
    }
}

/// How the execute-after-optimize path runs plans.
#[derive(Debug, Clone)]
pub struct ExecuteConfig {
    /// Run on the [`ParallelEngine`]; `false` = the serial engine.
    pub parallel: bool,
    /// Threads running each parallel gang (the caller plus `workers − 1`
    /// helpers); `0` = host parallelism.
    pub workers: usize,
    /// Interconnect batch size in rows.
    pub batch_rows: usize,
    /// Per-query execution deadline.
    pub deadline: Option<Duration>,
    /// Serial runs (`parallel: false`) only: stream through the
    /// vectorized columnar kernel (`false` = the row-at-a-time oracle;
    /// results are byte-identical). Parallel runs ignore it: every gang
    /// slice runs the columnar kernel.
    pub columnar: bool,
}

impl Default for ExecuteConfig {
    fn default() -> ExecuteConfig {
        ExecuteConfig {
            parallel: true,
            workers: 0,
            batch_rows: 256,
            deadline: None,
            columnar: true,
        }
    }
}

impl ExecuteConfig {
    fn parallel_config(&self) -> ParallelConfig {
        let mut cfg = ParallelConfig::default();
        if self.workers != 0 {
            cfg.workers = self.workers;
        }
        cfg.batch_rows = self.batch_rows;
        cfg.deadline = self.deadline;
        cfg
    }
}

/// Outcome of executing a plan on the attached database.
#[derive(Debug, Clone)]
pub struct ExecSummary {
    /// The query's result rows, projected to its output columns, when
    /// the in-process `submit*` calls collected them; empty when
    /// [`Service::submit_streaming`] sent them to its sink.
    pub rows: Vec<Row>,
    /// Wall time of the execution alone (also folded into the service's
    /// execute-latency reservoir).
    pub latency: Duration,
    pub stats: ExecStats,
    /// Parallel-engine diagnostics; `None` when the serial engine ran.
    pub parallel: Option<ParallelStats>,
    /// Executor-memory bytes this query was granted on admission.
    pub mem_granted: u64,
    /// The grant was smaller than requested — the query ran with a
    /// tightened per-operator budget and spilled sooner.
    pub mem_degraded: bool,
    /// Time spent waiting in the memory-grant queue.
    pub mem_wait: Duration,
    /// Latency to the first delivered batch (streaming serial runs only;
    /// `None` on the parallel engine, which materializes before merging).
    pub first_batch: Option<Duration>,
    /// More batches remained when the first was delivered — the cursor
    /// genuinely streamed.
    pub streamed: bool,
}

/// Where a response's plan came from: each request takes exactly one of
/// these paths on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanSource {
    /// Served from the plan cache (no optimization ran).
    Cache,
    /// Freshly optimized this request.
    Fresh,
    /// The legacy planner's heuristic plan (always `degraded`).
    Fallback,
}

/// The service's answer to one submitted query.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// Serialized DXL plan document (Figure 2's output message).
    pub plan_dxl: String,
    pub cost: f64,
    /// The plan is best-effort: a truncated search's best-so-far result or
    /// the fallback planner's heuristic, not the exhaustive optimum.
    pub degraded: bool,
    pub source: PlanSource,
    /// Version-normalized query fingerprint (the cache key's identity
    /// half); stable across catalog version bumps.
    pub fingerprint: u64,
    /// Time spent in the admission queue.
    pub queue_wait: Duration,
    /// End-to-end service latency for this request.
    pub latency: Duration,
    /// Diagnostics of the optimization that produced the plan (`None` for
    /// fallback plans; for cache hits, the stats of the original run).
    pub stats: Option<OptStats>,
    /// Result of executing the plan, when the service is configured with
    /// an [`ExecuteConfig`] and a database is attached.
    pub execution: Option<ExecSummary>,
}

/// Receipt for one submission.
#[derive(Debug, Clone)]
pub struct PlanTicket {
    pub id: u64,
    pub session: SessionId,
    pub response: PlanResponse,
}

/// The streaming response header: everything about the plan that is
/// known before the first result row, sent to a [`StreamSink`] ahead of
/// the rows.
#[derive(Debug, Clone, Copy)]
pub struct PlanHeader<'a> {
    pub plan_dxl: &'a str,
    pub cost: f64,
    pub degraded: bool,
    pub source: PlanSource,
    pub fingerprint: u64,
}

/// Receives a streaming response: the plan header first, then result
/// rows batch by batch *as execution produces them* (the serial cursor
/// path genuinely streams; the parallel engine materializes first and
/// replays in batch-sized chunks). Implemented by the TCP front-end's
/// connection writer ([`server`]); any in-process consumer that wants
/// incremental delivery can implement it too.
pub trait StreamSink {
    /// The response header, exactly once, before any rows.
    fn on_plan(&mut self, header: &PlanHeader<'_>) -> Result<()>;
    /// One batch of result rows. Return `Ok(false)` to close the stream
    /// early: the rest is dropped, the request still succeeds, and the
    /// rows delivered so far are the response.
    fn on_rows(&mut self, rows: &[Row]) -> Result<bool>;
}

/// The sink the in-process `submit*` calls pass down the request path:
/// it keeps the rows, which then become [`ExecSummary::rows`].
#[derive(Default)]
struct CollectSink {
    rows: Vec<Row>,
}

impl StreamSink for CollectSink {
    fn on_plan(&mut self, _: &PlanHeader<'_>) -> Result<()> {
        Ok(())
    }

    fn on_rows(&mut self, rows: &[Row]) -> Result<bool> {
        self.rows.extend_from_slice(rows);
        Ok(true)
    }
}

/// The optimizer service.
pub struct Service {
    optimizer: Optimizer,
    config: ServiceConfig,
    sessions: SessionManager,
    gate: AdmissionGate,
    cache: PlanCache,
    metrics: ServiceMetrics,
    next_ticket: AtomicU64,
    /// Execution backend for the execute-after-optimize path; absent in a
    /// planning-only deployment.
    database: RwLock<Option<Arc<Database>>>,
    /// Shared scan-fragment cache attached to every engine the execute
    /// path builds (cross-query cooperative scans).
    fragments: Arc<FragmentCache>,
    /// Admits executions against the global executor-memory pool.
    grants: Arc<MemoryGrantBroker>,
    /// Process-wide executor-memory accounting: operator state, spooled
    /// CTEs, and cached fragments all charge here.
    exec_budget: Arc<MemoryBudget>,
}

impl Service {
    pub fn new(provider: Arc<dyn MdProvider>, config: ServiceConfig) -> Service {
        let optimizer = Optimizer::new(provider, config.optimizer.clone());
        let max_concurrent = if config.max_concurrent == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.max_concurrent
        };
        let exec_budget = Arc::new(MemoryBudget::new(config.executor_memory_bytes));
        Service {
            gate: AdmissionGate::new(max_concurrent, config.queue_depth),
            cache: PlanCache::new(config.cache_bytes),
            metrics: ServiceMetrics::new(),
            sessions: SessionManager::new(),
            next_ticket: AtomicU64::new(0),
            database: RwLock::new(None),
            fragments: Arc::new(
                FragmentCache::new(config.fragment_cache_bytes)
                    .with_process_budget(Arc::clone(&exec_budget)),
            ),
            grants: Arc::new(MemoryGrantBroker::new(config.executor_memory_bytes)),
            exec_budget,
            optimizer,
            config,
        }
    }

    /// Attach (or replace) the execution backend. With
    /// [`ServiceConfig::execute`] set, every subsequent response also
    /// carries the executed result rows.
    ///
    /// The shared fragment cache is keyed on (table name, `MdId` version,
    /// fingerprint), so replacing a database with one that reuses table
    /// names *and* versions for different data must bump versions first —
    /// otherwise stale fragments would satisfy new scans.
    pub fn attach_database(&self, db: Arc<Database>) {
        *self.database.write().unwrap() = Some(db);
    }

    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The shared scan-fragment cache the execute path attaches to every
    /// engine it builds.
    pub fn fragments(&self) -> &Arc<FragmentCache> {
        &self.fragments
    }

    /// The executor-memory grant broker executions are admitted through.
    pub fn grants(&self) -> &Arc<MemoryGrantBroker> {
        &self.grants
    }

    /// Process-wide executor-memory accounting (operator state, spooled
    /// CTEs, cached fragments).
    pub fn exec_budget(&self) -> &Arc<MemoryBudget> {
        &self.exec_budget
    }

    /// Open a session: mints a per-session `MdAccessor` over the shared
    /// metadata cache.
    pub fn open_session(&self) -> SessionId {
        let accessor = MdAccessor::new(
            self.optimizer.cache().clone(),
            self.optimizer.provider().clone(),
        );
        self.sessions.open(accessor)
    }

    pub fn close_session(&self, id: SessionId) -> Result<()> {
        self.sessions.close(id)
    }

    pub fn live_sessions(&self) -> usize {
        self.sessions.live_count()
    }

    /// Submit a DXL query document under the configured default deadline.
    pub fn submit(&self, session: SessionId, dxl: &str) -> Result<PlanTicket> {
        self.submit_with_deadline(session, dxl, self.config.default_deadline)
    }

    /// Submit with an explicit per-request budget (overrides the default).
    pub fn submit_with_deadline(
        &self,
        session: SessionId,
        dxl: &str,
        budget: Option<Duration>,
    ) -> Result<PlanTicket> {
        let query = orca_dxl::parse_query(dxl, self.optimizer.provider().as_ref())?;
        self.submit_query(session, &query, budget)
    }

    /// Submit an already-parsed query document (what in-process callers
    /// use to skip XML parsing). The rows are collected into the ticket's
    /// `execution.rows`.
    pub fn submit_query(
        &self,
        session: SessionId,
        query: &DxlQuery,
        budget: Option<Duration>,
    ) -> Result<PlanTicket> {
        let mut sink = CollectSink::default();
        let mut ticket = self.submit_query_inner(session, query, budget, &mut sink)?;
        if let Some(execution) = &mut ticket.response.execution {
            execution.rows = sink.rows;
        }
        Ok(ticket)
    }

    /// Submit a DXL document and stream the response through `sink`: the
    /// plan header first, then result rows batch by batch. The returned
    /// ticket's `execution.rows` is empty — the rows went to the sink.
    pub fn submit_streaming(
        &self,
        session: SessionId,
        dxl: &str,
        budget: Option<Duration>,
        sink: &mut dyn StreamSink,
    ) -> Result<PlanTicket> {
        let query = orca_dxl::parse_query(dxl, self.optimizer.provider().as_ref())?;
        self.submit_query_inner(session, &query, budget, sink)
    }

    fn submit_query_inner(
        &self,
        session: SessionId,
        query: &DxlQuery,
        budget: Option<Duration>,
        sink: &mut dyn StreamSink,
    ) -> Result<PlanTicket> {
        let started = Instant::now();
        let deadline = budget.map(|b| started + b);
        let sess = self.sessions.get(session)?;
        sess.submitted.fetch_add(1, Ordering::Relaxed);
        let ticket_id = self.next_ticket.fetch_add(1, Ordering::Relaxed);

        // Rebind every table to its *current* catalog version. DXL carries
        // explicit versioned MdIds, so without this a resubmission after
        // `bump_table_version` would silently optimize against stale
        // metadata — and the cache could never be told apart from it.
        let expr = query.expr.try_map_tables(&mut |t: &TableRef| {
            sess.accessor.table_by_name(&t.name).map(TableRef)
        })?;
        let query = DxlQuery {
            expr,
            output_cols: query.output_cols.clone(),
            order: query.order.clone(),
            dist: query.dist.clone(),
            columns: query.columns.clone(),
        };
        let fingerprint = query_fingerprint(&query);
        let mut current_ids: Vec<MdId> = Vec::new();
        query.expr.visit_tables(&mut |t| current_ids.push(t.mdid));
        current_ids.sort();
        current_ids.dedup();

        match self.cache.lookup(fingerprint, &current_ids) {
            CacheLookup::Hit(cached) => {
                ServiceMetrics::bump(&self.metrics.cache_hits);
                sink.on_plan(&PlanHeader {
                    plan_dxl: &cached.plan_dxl,
                    cost: cached.cost,
                    degraded: false,
                    source: PlanSource::Cache,
                    fingerprint,
                })?;
                let execution =
                    self.maybe_execute(&cached.plan, &query.output_cols, cached.cost, sink)?;
                return Ok(self.ticket(
                    ticket_id,
                    session,
                    PlanResponse {
                        plan_dxl: cached.plan_dxl.clone(),
                        cost: cached.cost,
                        degraded: false,
                        source: PlanSource::Cache,
                        fingerprint,
                        queue_wait: Duration::ZERO,
                        latency: started.elapsed(),
                        stats: Some(cached.stats.clone()),
                        execution,
                    },
                ));
            }
            CacheLookup::Stale | CacheLookup::Miss => {
                ServiceMetrics::bump(&self.metrics.cache_misses);
            }
        }

        let queue_wait = match self.gate.acquire(ticket_id, deadline) {
            Admission::Immediate => Duration::ZERO,
            Admission::Queued(w) => {
                ServiceMetrics::bump(&self.metrics.queued);
                w
            }
            Admission::Rejected => {
                ServiceMetrics::bump(&self.metrics.rejected);
                return self.fallback(
                    ticket_id,
                    session,
                    &sess.accessor,
                    &query,
                    fingerprint,
                    started,
                    Duration::ZERO,
                    sink,
                );
            }
            Admission::TimedOut => {
                ServiceMetrics::bump(&self.metrics.queued);
                return self.fallback(
                    ticket_id,
                    session,
                    &sess.accessor,
                    &query,
                    fingerprint,
                    started,
                    started.elapsed(),
                    sink,
                );
            }
        };
        ServiceMetrics::bump(&self.metrics.admitted);
        let result = self
            .optimizer
            .optimize_query_with_deadline(&query, deadline);
        self.gate.release();

        match result {
            Ok((plan, stats)) => {
                let plan_dxl = plan_to_dxl(&DxlPlan {
                    plan: plan.clone(),
                    cost: stats.plan_cost,
                });
                let degraded = stats.timed_out;
                if degraded {
                    // Best-so-far from a truncated search: usable, but not
                    // worth caching — the next uncontended request should
                    // produce (and cache) the real optimum.
                    ServiceMetrics::bump(&self.metrics.degraded);
                } else {
                    self.cache.insert(
                        fingerprint,
                        stats.md_ids.clone(),
                        Arc::new(CachedPlan {
                            plan_dxl: plan_dxl.clone(),
                            plan: plan.clone(),
                            cost: stats.plan_cost,
                            stats: stats.clone(),
                        }),
                    );
                }
                self.metrics.record_latency(started.elapsed());
                sink.on_plan(&PlanHeader {
                    plan_dxl: &plan_dxl,
                    cost: stats.plan_cost,
                    degraded,
                    source: PlanSource::Fresh,
                    fingerprint,
                })?;
                let execution =
                    self.maybe_execute(&plan, &query.output_cols, stats.plan_cost, sink)?;
                Ok(self.ticket(
                    ticket_id,
                    session,
                    PlanResponse {
                        plan_dxl,
                        cost: stats.plan_cost,
                        degraded,
                        source: PlanSource::Fresh,
                        fingerprint,
                        queue_wait,
                        latency: started.elapsed(),
                        stats: Some(stats),
                        execution,
                    },
                ))
            }
            Err(OrcaError::Timeout(_)) => self.fallback(
                ticket_id,
                session,
                &sess.accessor,
                &query,
                fingerprint,
                started,
                queue_wait,
                sink,
            ),
            Err(e) => Err(e),
        }
    }

    /// Metrics snapshot.
    pub fn stats(&self) -> ServiceStats {
        let mut s = self.metrics.snapshot();
        self.cache.fill_stats(&mut s);
        s.cache_bytes = self.cache.bytes();
        s.cache_entries = self.cache.len() as u64;
        let f = self.fragments.stats();
        s.fragment_bytes = f.bytes;
        s.fragment_entries = f.entries;
        s.fragments_reused = f.reused;
        s.fragments_inserted = f.inserted;
        s.fragment_coop_attached = f.coop_attached;
        s.fragment_evictions = f.evictions;
        s.fragment_invalidations = f.invalidations;
        let (admitted, queued, degraded) = self.grants.counters();
        s.mem_admitted = admitted;
        s.mem_queued = queued;
        s.mem_degraded_grants = degraded;
        s.mem_regranted = self.grants.regranted();
        s.mem_used_bytes = self.exec_budget.used_bytes();
        s.mem_peak_bytes = self.exec_budget.peak_bytes();
        s
    }

    fn ticket(&self, id: u64, session: SessionId, response: PlanResponse) -> PlanTicket {
        PlanTicket {
            id,
            session,
            response,
        }
    }

    /// Heuristic degradation path: the legacy bottom-up planner is orders
    /// of magnitude cheaper than the Memo search, so it always answers —
    /// the serving equivalent of the §4.1 stage fallback.
    #[allow(clippy::too_many_arguments)]
    fn fallback(
        &self,
        ticket_id: u64,
        session: SessionId,
        accessor: &MdAccessor,
        query: &DxlQuery,
        fingerprint: u64,
        started: Instant,
        queue_wait: Duration,
        sink: &mut dyn StreamSink,
    ) -> Result<PlanTicket> {
        let registry = ColumnRegistry::new();
        for (name, ty) in &query.columns {
            registry.fresh(name, *ty);
        }
        let (plan, cost) =
            LegacyPlanner::new(accessor, &registry).plan(&query.expr, &query.order)?;
        ServiceMetrics::bump(&self.metrics.degraded);
        let plan_dxl = plan_to_dxl(&DxlPlan {
            plan: plan.clone(),
            cost,
        });
        sink.on_plan(&PlanHeader {
            plan_dxl: &plan_dxl,
            cost,
            degraded: true,
            source: PlanSource::Fallback,
            fingerprint,
        })?;
        let execution = self.maybe_execute(&plan, &query.output_cols, cost, sink)?;
        Ok(self.ticket(
            ticket_id,
            session,
            PlanResponse {
                plan_dxl,
                cost,
                degraded: true,
                source: PlanSource::Fallback,
                fingerprint,
                queue_wait,
                latency: started.elapsed(),
                stats: None,
                execution,
            },
        ))
    }

    /// Execute-after-optimize: run `plan` on the attached database when
    /// the service is configured to, sending the rows to `sink`. Quietly
    /// skipped (returns `None`)
    /// when execution is off or no database is attached; execution
    /// *errors* are not quiet — a plan that fails to run is a failed
    /// request.
    fn maybe_execute(
        &self,
        plan: &PhysicalPlan,
        output_cols: &[ColId],
        cost: f64,
        sink: &mut dyn StreamSink,
    ) -> Result<Option<ExecSummary>> {
        let Some(exec_cfg) = &self.config.execute else {
            return Ok(None);
        };
        let guard = self.database.read().unwrap();
        let Some(db) = guard.as_ref() else {
            return Ok(None);
        };
        // Admission: size the initial grant from the optimizer's cost
        // estimate, then hold it (RAII) for the whole execution. A
        // degraded grant tightens the tracker's per-segment budget, which
        // forces earlier spilling instead of failure.
        let desired = Self::grant_estimate(cost, &db.cluster);
        let grant = self.grants.request(desired);
        let tracker = Arc::new(MemoryTracker::granted(
            grant.bytes(),
            db.cluster.num_segments,
            Some(Arc::clone(&self.exec_budget)),
        ));
        if grant.degraded {
            // A degraded grant may renegotiate upward once, at the first
            // would-spill moment, if other queries have drained their
            // grants back into the pool by then.
            tracker.set_regrant(grant.regrant_hook());
        }
        let t0 = Instant::now();
        let summary = if exec_cfg.parallel {
            let engine = ParallelEngine::with_config(db, exec_cfg.parallel_config())
                .with_fragments(Arc::clone(&self.fragments))
                .with_memory(Arc::clone(&tracker));
            let r = engine.run(plan, output_cols)?;
            // The gang merge materialized the rowset; replay it to the
            // sink in batch-sized frames so clients see one response
            // shape regardless of engine.
            for chunk in r.rows.chunks(exec_cfg.batch_rows.max(1)) {
                if !sink.on_rows(chunk)? {
                    break;
                }
            }
            ExecSummary {
                rows: Vec::new(),
                latency: t0.elapsed(),
                stats: r.stats,
                parallel: Some(r.parallel),
                mem_granted: grant.bytes(),
                mem_degraded: grant.degraded,
                mem_wait: grant.wait,
                first_batch: None,
                streamed: false,
            }
        } else {
            // The serial path streams through a cursor: the plan runs at
            // the first pull, then rows are projected batch by batch and go
            // straight to the sink instead of as one rowset at the end.
            let mut cursor = Cursor::open(
                Arc::clone(db),
                plan,
                output_cols,
                CursorOptions {
                    columnar: exec_cfg.columnar,
                    batch_rows: exec_cfg.batch_rows,
                    fragments: Some(Arc::clone(&self.fragments)),
                    mem: Some(Arc::clone(&tracker)),
                },
            );
            let mut first_batch = None;
            let mut streamed = false;
            while let Some(batch) = cursor.next_batch()? {
                if first_batch.is_none() {
                    first_batch = Some(t0.elapsed());
                    streamed = !cursor.producer_finished();
                }
                if !sink.on_rows(&batch)? {
                    // Client closed the stream: drop the undelivered rows.
                    // The request still counts as executed, with the
                    // finished run's report.
                    cursor.close();
                    break;
                }
            }
            let stats = cursor
                .summary()
                .expect("a cursor that ran reports")
                .stats
                .clone();
            ExecSummary {
                rows: Vec::new(),
                latency: t0.elapsed(),
                stats,
                parallel: None,
                mem_granted: grant.bytes(),
                mem_degraded: grant.degraded,
                mem_wait: grant.wait,
                first_batch,
                streamed,
            }
        };
        ServiceMetrics::bump(&self.metrics.executed);
        self.metrics.record_exec_latency(summary.latency);
        Ok(Some(summary))
    }

    /// Initial memory grant from the optimizer's cost estimate: scale
    /// simulated seconds to bytes, floored at one full `work_mem` per
    /// segment so an uncontended grant never tightens the configured
    /// operator budget below what the cluster already allows.
    fn grant_estimate(cost: f64, cluster: &orca_common::SegmentConfig) -> u64 {
        let floor = cluster
            .work_mem_bytes
            .saturating_mul(cluster.num_segments.max(1) as u64);
        let cost_bytes = (cost.max(0.0) * (1u64 << 20) as f64).min(1e18) as u64;
        cost_bytes.max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_catalog::provider::MemoryProvider;
    use orca_catalog::{ColumnMeta, Distribution};
    use orca_common::{ColId, DataType};
    use orca_expr::logical::{LogicalExpr, LogicalOp};
    use orca_expr::props::DistSpec;
    use orca_expr::props::OrderSpec;
    use orca_expr::scalar::{CmpOp, ScalarExpr};

    fn provider_with_tables(n: usize) -> Arc<MemoryProvider> {
        let p = Arc::new(MemoryProvider::new());
        for i in 0..n {
            p.register(
                &format!("t{i}"),
                vec![
                    ColumnMeta::new("a", DataType::Int),
                    ColumnMeta::new("b", DataType::Int),
                ],
                Distribution::Hashed(vec![0]),
            );
        }
        p
    }

    fn two_table_query(p: &MemoryProvider) -> DxlQuery {
        let registry = ColumnRegistry::new();
        let mut tables = Vec::new();
        let mut first_col = Vec::new();
        for name in ["t0", "t1"] {
            let mdid = p.table_by_name(name).unwrap();
            let desc = p.table(mdid).unwrap();
            let cols: Vec<ColId> = desc
                .columns
                .iter()
                .map(|c| registry.fresh(&format!("{name}.{}", c.name), c.dtype))
                .collect();
            first_col.push(cols[0]);
            tables.push(LogicalExpr::leaf(LogicalOp::Get {
                table: TableRef(desc),
                cols,
                parts: None,
            }));
        }
        let join = LogicalExpr::new(
            LogicalOp::Join {
                kind: orca_expr::logical::JoinKind::Inner,
                pred: ScalarExpr::cmp(
                    CmpOp::Eq,
                    ScalarExpr::col(first_col[0]),
                    ScalarExpr::col(first_col[1]),
                ),
            },
            tables,
        );
        DxlQuery {
            output_cols: vec![first_col[0]],
            order: OrderSpec::any(),
            dist: DistSpec::Singleton,
            columns: registry.snapshot(),
            expr: join,
        }
    }

    #[test]
    fn default_config_admits_one_search_per_cpu() {
        // The default optimizer runs 1 worker; admission must still follow
        // the host's CPUs, not the worker count.
        let config = ServiceConfig::default();
        assert_eq!(config.optimizer.workers, 1);
        let svc = Service::new(provider_with_tables(2), config);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        for ticket in 0..cpus as u64 {
            assert_eq!(svc.gate.acquire(ticket, None), Admission::Immediate);
        }
        assert_eq!(
            svc.gate.acquire(cpus as u64, Some(Instant::now())),
            Admission::TimedOut,
            "admitted more than {cpus} concurrent optimizations"
        );
        for _ in 0..cpus {
            svc.gate.release();
        }
    }

    #[test]
    fn repeat_submission_hits_cache_with_identical_dxl() {
        let p = provider_with_tables(2);
        let svc = Service::new(p.clone(), ServiceConfig::default());
        let s = svc.open_session();
        let q = two_table_query(&p);
        let fresh = svc.submit_query(s, &q, None).unwrap();
        assert_eq!(fresh.response.source, PlanSource::Fresh);
        assert!(!fresh.response.degraded);
        let hit = svc.submit_query(s, &q, None).unwrap();
        assert_eq!(hit.response.source, PlanSource::Cache);
        assert_eq!(hit.response.plan_dxl, fresh.response.plan_dxl);
        assert_eq!(hit.response.cost, fresh.response.cost);
        let st = svc.stats();
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.cache_misses, 1);
        assert_eq!(st.degraded, 0);
    }

    #[test]
    fn version_bump_invalidates_and_reoptimizes() {
        let p = provider_with_tables(2);
        let svc = Service::new(p.clone(), ServiceConfig::default());
        let s = svc.open_session();
        let q = two_table_query(&p);
        let first = svc.submit_query(s, &q, None).unwrap();
        let t0 = p.table_by_name("t0").unwrap();
        p.bump_table_version(t0).unwrap();
        let second = svc.submit_query(s, &q, None).unwrap();
        // Same query shape → same fingerprint, but the bumped version
        // forces a re-optimization.
        assert_eq!(first.response.fingerprint, second.response.fingerprint);
        assert_eq!(second.response.source, PlanSource::Fresh);
        let st = svc.stats();
        assert_eq!(st.cache_invalidations, 1);
        assert_eq!(st.cache_misses, 2);
        // The re-optimized plan is cached again under the new id set.
        let third = svc.submit_query(s, &q, None).unwrap();
        assert_eq!(third.response.source, PlanSource::Cache);
    }

    #[test]
    fn sessions_open_and_close() {
        let p = provider_with_tables(1);
        let svc = Service::new(p, ServiceConfig::default());
        let a = svc.open_session();
        let b = svc.open_session();
        assert_ne!(a, b);
        assert_eq!(svc.live_sessions(), 2);
        svc.close_session(a).unwrap();
        assert!(svc.close_session(a).is_err());
        assert_eq!(svc.live_sessions(), 1);
        let q = two_table_query_single(&svc);
        assert!(svc.submit_query(a, &q, None).is_err());
        assert!(svc.submit_query(b, &q, None).is_ok());
    }

    #[test]
    fn execute_after_optimize_runs_plans_and_records_latency() {
        use orca_common::{Datum, SegmentConfig};

        let p = provider_with_tables(2);
        let cfg = ServiceConfig {
            execute: Some(ExecuteConfig {
                workers: 2,
                ..ExecuteConfig::default()
            }),
            ..ServiceConfig::default()
        };
        let svc = Service::new(p.clone(), cfg);
        let s = svc.open_session();
        let q = two_table_query(&p);

        // No database attached yet: planning succeeds, execution is
        // quietly skipped.
        let planned = svc.submit_query(s, &q, None).unwrap();
        assert_eq!(planned.response.source, PlanSource::Fresh);
        assert!(planned.response.execution.is_none());

        // Attach data and resubmit: the cache hit executes the cached
        // plan on the parallel engine.
        let mut db = Database::new(SegmentConfig::default());
        for name in ["t0", "t1"] {
            let desc = p.table(p.table_by_name(name).unwrap()).unwrap();
            let rows = (0..20i64)
                .map(|i| vec![Datum::Int(i), Datum::Int(i * 2)])
                .collect();
            db.load_table(desc, rows).unwrap();
        }
        svc.attach_database(Arc::new(db));
        let hit = svc.submit_query(s, &q, None).unwrap();
        assert_eq!(hit.response.source, PlanSource::Cache);
        let exec = hit.response.execution.expect("plan should have executed");
        // t0 ⋈ t1 on a = a over identical 20-row tables → 20 rows.
        assert_eq!(exec.rows.len(), 20);
        let pstats = exec.parallel.expect("parallel engine stats");
        assert_eq!(pstats.workers, 2);
        assert!(pstats.num_slices >= 1);
        let st = svc.stats();
        assert_eq!(st.executed, 1);
        assert_eq!(st.exec_latency_samples, 1);
        assert!(st.p50_execute > Duration::ZERO || st.exec_latency_samples > 0);
    }

    #[test]
    fn concurrent_identical_submissions_account_for_every_source() {
        let p = provider_with_tables(2);
        let svc = Arc::new(Service::new(p.clone(), ServiceConfig::default()));
        let q = two_table_query(&p);
        let n = 6;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let q = q.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let s = svc.open_session();
                    barrier.wait();
                    svc.submit_query(s, &q, None).unwrap().response
                })
            })
            .collect();
        let responses: Vec<PlanResponse> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut counts = std::collections::HashMap::new();
        for r in &responses {
            assert!(!r.degraded);
            assert_eq!(r.plan_dxl, responses[0].plan_dxl, "all must get one plan");
            assert!(
                matches!(r.source, PlanSource::Fresh | PlanSource::Cache),
                "every racer optimizes or hits the cache, got {:?}",
                r.source
            );
            *counts.entry(r.source).or_insert(0u64) += 1;
        }
        let st = svc.stats();
        // Every response source must be reflected in the counters, however
        // the race resolved.
        assert_eq!(
            st.cache_hits,
            counts.get(&PlanSource::Cache).copied().unwrap_or(0)
        );
        assert_eq!(st.cache_hits + st.cache_misses, n as u64);
        assert_eq!(st.coalesced, 0);
        assert!(counts.get(&PlanSource::Fresh).copied().unwrap_or(0) >= 1);
    }

    #[test]
    fn execute_path_shares_scan_fragments_across_requests() {
        use orca_common::{Datum, SegmentConfig};

        let p = provider_with_tables(2);
        let cfg = ServiceConfig {
            execute: Some(ExecuteConfig {
                parallel: false,
                columnar: true,
                ..ExecuteConfig::default()
            }),
            ..ServiceConfig::default()
        };
        let svc = Service::new(p.clone(), cfg);
        let s = svc.open_session();
        let mut db = Database::new(SegmentConfig::default());
        for name in ["t0", "t1"] {
            let desc = p.table(p.table_by_name(name).unwrap()).unwrap();
            let rows = (0..20i64)
                .map(|i| vec![Datum::Int(i), Datum::Int(i * 2)])
                .collect();
            db.load_table(desc, rows).unwrap();
        }
        svc.attach_database(Arc::new(db));
        let q = two_table_query(&p);
        let first = svc.submit_query(s, &q, None).unwrap();
        let second = svc.submit_query(s, &q, None).unwrap();
        let (a, b) = (
            first.response.execution.expect("executed"),
            second.response.execution.expect("executed"),
        );
        assert_eq!(a.rows, b.rows, "shared fragments must not change results");
        let st = svc.stats();
        assert!(st.fragments_inserted > 0, "first run must materialize");
        assert!(st.fragments_reused > 0, "second run must reuse");
        assert!(st.fragment_bytes > 0);
        assert_eq!(st.fragment_entries, st.fragments_inserted);
        assert_eq!(st.fragment_evictions, 0);
    }

    #[test]
    fn parallel_runs_ignore_the_columnar_flag() {
        use orca_common::{Datum, SegmentConfig};

        let p = provider_with_tables(2);
        let mut db = Database::new(SegmentConfig::default());
        for name in ["t0", "t1"] {
            let desc = p.table(p.table_by_name(name).unwrap()).unwrap();
            let rows = (0..20i64)
                .map(|i| vec![Datum::Int(i % 7), Datum::Int(i * 2)])
                .collect();
            db.load_table(desc, rows).unwrap();
        }
        let db = Arc::new(db);
        let q = two_table_query(&p);
        let run = |execute: ExecuteConfig| {
            let svc = Service::new(
                p.clone(),
                ServiceConfig {
                    execute: Some(execute),
                    ..ServiceConfig::default()
                },
            );
            svc.attach_database(Arc::clone(&db));
            let s = svc.open_session();
            let exec = svc.submit_query(s, &q, None).unwrap().response.execution;
            let exec = exec.expect("executed");
            assert!(exec.parallel.is_some(), "the gang must run");
            exec.rows
        };
        let pinned_row = run(ExecuteConfig {
            parallel: true,
            columnar: false,
            ..ExecuteConfig::default()
        });
        let default = run(ExecuteConfig::default());
        assert!(!default.is_empty());
        assert_eq!(pinned_row, default);
    }

    fn two_table_query_single(svc: &Service) -> DxlQuery {
        let registry = ColumnRegistry::new();
        let mdid = svc.optimizer().provider().table_by_name("t0").unwrap();
        let desc = svc.optimizer().provider().table(mdid).unwrap();
        let cols: Vec<ColId> = desc
            .columns
            .iter()
            .map(|c| registry.fresh(&c.name, c.dtype))
            .collect();
        DxlQuery {
            output_cols: vec![cols[0]],
            order: OrderSpec::any(),
            dist: DistSpec::Singleton,
            columns: registry.snapshot(),
            expr: LogicalExpr::leaf(LogicalOp::Get {
                table: TableRef(desc),
                cols,
                parts: None,
            }),
        }
    }
}
