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
//!   optimizations with a FIFO overflow queue and per-request deadlines,
//!   on the same FIFO [`Pool`] the memory grants use;
//! * **a versioned plan cache** ([`cache`]) — keyed on a
//!   version-normalized query fingerprint, invalidated by `MdId` version
//!   drift, evicted LRU under a byte budget, with a text index that
//!   serves a repeated request text without parsing it;
//! * **graceful degradation** — on deadline expiry or queue rejection the
//!   service answers with the best-so-far plan or the legacy planner's
//!   heuristic plan, tagged `degraded: true`, instead of an error;
//! * **a shared scan-fragment cache** ([`orca_executor::FragmentCache`]) —
//!   one byte-budgeted cache attached to every engine the execute path
//!   builds, so repeated queries reuse the *filtered* scans (a Filter
//!   fused into a TableScan) they share across requests; unfiltered
//!   scans are zero-copy already and are never cached;
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
//! submit(dxl) ─ text index: alias found, every binding still current,
//!    │          its entry a hit (id set matches) ─────────────────► cached plan
//!    └─ no alias / a binding moved / stale ─ parse ─ rebind tables to
//!       current versions ─ fingerprint
//!       ├─ cache hit (id set matches) ─ alias the text ──────────► cached plan
//!       └─ miss/stale ─ admission gate ─┬─ admitted ─ optimize(deadline)
//!                                       │     ├─ done ── cache + return
//!                                       │     ├─ truncated ─ degraded plan
//!                                       │     └─ timeout ─ fallback, degraded
//!                                       └─ rejected/queue-timeout ─ fallback
//!    then: sink.on_plan(header) ─ execute ─ sink.on_rows(batch)…
//! ```
//!
//! Both cache hits go through one function (`serve_hit`); the text hit
//! only skips the parse, the rebind and the fingerprint in front of it.

pub mod admission;
pub mod cache;
pub mod grants;
pub mod metrics;
pub mod server;
pub mod session;

pub use admission::{Admission, Pool};
pub use cache::{CacheLookup, CachedPlan, PlanCache, TextAlias};
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
    Cursor, CursorOptions, Database, ExecStats, FragmentCache, MemoryTracker, ParallelConfig,
    ParallelEngine, ParallelStats, Row,
};
use orca_expr::logical::TableRef;
use orca_expr::physical::PhysicalPlan;
use orca_expr::ColumnRegistry;
use orca_gpos::MemTracker;
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
    /// attaches to every engine it builds. Only filtered scans are kept
    /// (unfiltered ones leave storage zero-copy); their resident bytes
    /// also count in `ServiceStats::mem_used_bytes`.
    pub fragment_cache_bytes: u64,
    /// Global executor-memory pool every execution's grant is admitted
    /// against. `0` = unbounded: every request gets its full ask
    /// immediately and nothing queues or degrades. Cached fragments and
    /// CTE spools take no grant; they are only counted, with operator
    /// state peaks, in `ServiceStats::mem_used_bytes`/`mem_peak_bytes`.
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
    /// Serialized DXL plan document (Figure 2's output message); a cache
    /// hit shares the cached entry's.
    pub plan_dxl: Arc<str>,
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
    /// fallback plans; for cache hits, the stats of the original run,
    /// shared with the cache entry).
    pub stats: Option<Arc<OptStats>>,
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

/// One submission in flight: its session, ticket number and start time.
struct Request {
    sess: Arc<Session>,
    ticket: u64,
    started: Instant,
}

impl Request {
    fn ticket(self, response: PlanResponse) -> PlanTicket {
        PlanTicket {
            id: self.ticket,
            session: self.sess.id,
            response,
        }
    }
}

/// The optimizer service.
pub struct Service {
    optimizer: Optimizer,
    config: ServiceConfig,
    sessions: SessionManager,
    /// The optimizer gate: `max_concurrent` slots, taken one at a time.
    gate: Pool,
    cache: PlanCache,
    metrics: ServiceMetrics,
    next_ticket: AtomicU64,
    /// Execution backend for the execute-after-optimize path; absent in a
    /// planning-only deployment.
    database: RwLock<Option<Arc<Database>>>,
    /// Shared scan-fragment cache attached to every engine the execute
    /// path builds.
    fragments: Arc<FragmentCache>,
    /// Admits executions against the global executor-memory pool.
    grants: Arc<MemoryGrantBroker>,
    /// Process-wide executor-memory accounting: operator state peaks,
    /// spooled CTEs, and cached fragments all count here.
    exec_budget: Arc<MemTracker>,
}

impl Service {
    pub fn new(provider: Arc<dyn MdProvider>, config: ServiceConfig) -> Service {
        let optimizer = Optimizer::new(provider, config.optimizer.clone());
        let max_concurrent = if config.max_concurrent == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.max_concurrent
        };
        let exec_budget = Arc::new(MemTracker::new());
        Service {
            gate: Pool::new(max_concurrent as u64, config.queue_depth),
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
    pub fn exec_budget(&self) -> &Arc<MemTracker> {
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
    /// The rows are collected into the ticket's `execution.rows`.
    pub fn submit_with_deadline(
        &self,
        session: SessionId,
        dxl: &str,
        budget: Option<Duration>,
    ) -> Result<PlanTicket> {
        Self::collect(|sink| self.submit_streaming(session, dxl, budget, sink))
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
        Self::collect(|sink| {
            let req = self.begin(session)?;
            self.submit_parsed(req, query, None, budget, sink)
        })
    }

    /// Run one submission against a sink that keeps the rows, and move
    /// them into the ticket.
    fn collect(
        submit: impl FnOnce(&mut dyn StreamSink) -> Result<PlanTicket>,
    ) -> Result<PlanTicket> {
        let mut sink = CollectSink::default();
        let mut ticket = submit(&mut sink)?;
        if let Some(execution) = &mut ticket.response.execution {
            execution.rows = sink.rows;
        }
        Ok(ticket)
    }

    /// Submit a DXL document and stream the response through `sink`: the
    /// plan header first, then result rows batch by batch. The returned
    /// ticket's `execution.rows` is empty — the rows went to the sink.
    ///
    /// A text that hit the plan cache before is served from the cache's
    /// text index without being parsed; any other text is parsed.
    pub fn submit_streaming(
        &self,
        session: SessionId,
        dxl: &str,
        budget: Option<Duration>,
        sink: &mut dyn StreamSink,
    ) -> Result<PlanTicket> {
        let req = self.begin(session)?;
        if let Some((alias, cached)) = self.text_hit(dxl) {
            ServiceMetrics::bump(&self.metrics.cache_text_hits);
            return self.serve_hit(req, &cached, alias.fingerprint, &alias.output_cols, sink);
        }
        let query = orca_dxl::parse_query(dxl, self.optimizer.provider().as_ref())?;
        self.submit_parsed(req, &query, Some(dxl), budget, sink)
    }

    /// Open a request on `session`: count it and give it a ticket number.
    fn begin(&self, session: SessionId) -> Result<Request> {
        let started = Instant::now();
        let sess = self.sessions.get(session)?;
        sess.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(Request {
            sess,
            ticket: self.next_ticket.fetch_add(1, Ordering::Relaxed),
            started,
        })
    }

    /// The cache hit the request text `dxl` resolves to without a parse:
    /// the text has an alias, every table it bound still has the version
    /// it was bound to, and the alias's entry is a hit for that id set.
    /// `None` sends the text down the parse path, which then settles a
    /// stale entry exactly as it would have without the text index.
    fn text_hit(&self, dxl: &str) -> Option<(Arc<TextAlias>, Arc<CachedPlan>)> {
        let alias = self.cache.alias(dxl)?;
        let provider = self.optimizer.provider();
        if !alias
            .bindings
            .iter()
            .all(|(name, mdid)| provider.table_by_name(name) == Some(*mdid))
        {
            return None;
        }
        match self.cache.lookup(alias.fingerprint, &alias.md_ids) {
            CacheLookup::Hit(cached) => Some((alias, cached)),
            CacheLookup::Stale | CacheLookup::Miss => None,
        }
    }

    /// A parsed query's path: rebind, fingerprint, probe the cache, and
    /// on a miss optimize (or fall back). `text` is the request text it
    /// was parsed from, aliased to the entry on a hit.
    fn submit_parsed(
        &self,
        req: Request,
        query: &DxlQuery,
        text: Option<&str>,
        budget: Option<Duration>,
        sink: &mut dyn StreamSink,
    ) -> Result<PlanTicket> {
        let deadline = budget.map(|b| req.started + b);

        // Rebind every table to its *current* catalog version. DXL carries
        // explicit versioned MdIds, so without this a resubmission after
        // `bump_table_version` would silently optimize against stale
        // metadata — and the cache could never be told apart from it.
        let mut bindings: Vec<(String, MdId)> = Vec::new();
        let expr = query.expr.try_map_tables(&mut |t: &TableRef| {
            let desc = req.sess.accessor.table_by_name(&t.name)?;
            bindings.push((t.name.clone(), desc.mdid));
            Ok(TableRef(desc))
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
                if let Some(text) = text {
                    bindings.sort();
                    bindings.dedup();
                    self.cache.record_alias(
                        text,
                        TextAlias {
                            fingerprint,
                            bindings,
                            md_ids: current_ids,
                            output_cols: query.output_cols.clone(),
                        },
                    );
                }
                return self.serve_hit(req, &cached, fingerprint, &query.output_cols, sink);
            }
            CacheLookup::Stale | CacheLookup::Miss => {
                ServiceMetrics::bump(&self.metrics.cache_misses);
            }
        }

        let queue_wait = match self.gate.acquire(1, 1, deadline).0 {
            Admission::Immediate => Duration::ZERO,
            Admission::Queued(w) => {
                ServiceMetrics::bump(&self.metrics.queued);
                w
            }
            Admission::Rejected => {
                ServiceMetrics::bump(&self.metrics.rejected);
                return self.fallback(req, &query, fingerprint, Duration::ZERO, sink);
            }
            Admission::TimedOut => {
                ServiceMetrics::bump(&self.metrics.queued);
                let waited = req.started.elapsed();
                return self.fallback(req, &query, fingerprint, waited, sink);
            }
        };
        ServiceMetrics::bump(&self.metrics.admitted);
        let result = self
            .optimizer
            .optimize_query_with_deadline(&query, deadline);
        self.gate.release(1);

        match result {
            Ok((plan, stats)) => {
                let plan_dxl: Arc<str> = plan_to_dxl(&DxlPlan {
                    plan: plan.clone(),
                    cost: stats.plan_cost,
                })
                .into();
                let stats = Arc::new(stats);
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
                            plan_dxl: Arc::clone(&plan_dxl),
                            plan: plan.clone(),
                            cost: stats.plan_cost,
                            stats: Arc::clone(&stats),
                        }),
                    );
                }
                self.metrics.record_latency(req.started.elapsed());
                sink.on_plan(&PlanHeader {
                    plan_dxl: &plan_dxl,
                    cost: stats.plan_cost,
                    degraded,
                    source: PlanSource::Fresh,
                    fingerprint,
                })?;
                let execution =
                    self.maybe_execute(&plan, &query.output_cols, stats.plan_cost, sink)?;
                let latency = req.started.elapsed();
                Ok(req.ticket(PlanResponse {
                    plan_dxl,
                    cost: stats.plan_cost,
                    degraded,
                    source: PlanSource::Fresh,
                    fingerprint,
                    queue_wait,
                    latency,
                    stats: Some(stats),
                    execution,
                }))
            }
            Err(OrcaError::Timeout(_)) => self.fallback(req, &query, fingerprint, queue_wait, sink),
            Err(e) => Err(e),
        }
    }

    /// The one cache-hit path, whether the request text or its parse
    /// found the entry: send the cached plan, execute it, answer.
    fn serve_hit(
        &self,
        req: Request,
        cached: &CachedPlan,
        fingerprint: u64,
        output_cols: &[ColId],
        sink: &mut dyn StreamSink,
    ) -> Result<PlanTicket> {
        ServiceMetrics::bump(&self.metrics.cache_hits);
        sink.on_plan(&PlanHeader {
            plan_dxl: &cached.plan_dxl,
            cost: cached.cost,
            degraded: false,
            source: PlanSource::Cache,
            fingerprint,
        })?;
        let execution = self.maybe_execute(&cached.plan, output_cols, cached.cost, sink)?;
        let latency = req.started.elapsed();
        Ok(req.ticket(PlanResponse {
            plan_dxl: Arc::clone(&cached.plan_dxl),
            cost: cached.cost,
            degraded: false,
            source: PlanSource::Cache,
            fingerprint,
            queue_wait: Duration::ZERO,
            latency,
            stats: Some(Arc::clone(&cached.stats)),
            execution,
        }))
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
        s.fragment_evictions = f.evictions;
        s.fragment_invalidations = f.invalidations;
        let (admitted, queued, degraded) = self.grants.counters();
        s.mem_admitted = admitted;
        s.mem_queued = queued;
        s.mem_degraded_grants = degraded;
        s.mem_regranted = self.grants.regranted();
        s.mem_used_bytes = self.exec_budget.current();
        s.mem_peak_bytes = self.exec_budget.peak();
        s
    }

    /// Heuristic degradation path: the legacy bottom-up planner is orders
    /// of magnitude cheaper than the Memo search, so it always answers —
    /// the serving equivalent of the §4.1 stage fallback.
    fn fallback(
        &self,
        req: Request,
        query: &DxlQuery,
        fingerprint: u64,
        queue_wait: Duration,
        sink: &mut dyn StreamSink,
    ) -> Result<PlanTicket> {
        let registry = ColumnRegistry::new();
        for (name, ty) in &query.columns {
            registry.fresh(name, *ty);
        }
        let (plan, cost) =
            LegacyPlanner::new(&req.sess.accessor, &registry).plan(&query.expr, &query.order)?;
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
        let latency = req.started.elapsed();
        Ok(req.ticket(PlanResponse {
            plan_dxl: plan_dxl.into(),
            cost,
            degraded: true,
            source: PlanSource::Fallback,
            fingerprint,
            queue_wait,
            latency,
            stats: None,
            execution,
        }))
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
            grant.bytes_cell(),
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
        for _ in 0..cpus {
            assert_eq!(svc.gate.acquire(1, 1, None).0, Admission::Immediate);
        }
        assert_eq!(
            svc.gate.acquire(1, 1, Some(Instant::now())).0,
            Admission::TimedOut,
            "admitted more than {cpus} concurrent optimizations"
        );
        for _ in 0..cpus {
            svc.gate.release(1);
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

    /// A service that runs plans as `execute` says over `t0` and `t1`,
    /// each holding `rows` rows `(i, 2i)` and row-count stats to match.
    fn executing_service(p: &Arc<MemoryProvider>, execute: ExecuteConfig, rows: i64) -> Service {
        use orca_common::{Datum, SegmentConfig};

        let cfg = ServiceConfig {
            execute: Some(execute),
            ..ServiceConfig::default()
        };
        let svc = Service::new(p.clone(), cfg);
        let mut db = Database::new(SegmentConfig::default());
        for name in ["t0", "t1"] {
            let mdid = p.table_by_name(name).unwrap();
            // With row counts, a filter costs less below the Gather: on
            // the scan, where the fragment cache sees it.
            p.set_stats(mdid, orca_catalog::TableStats::new(rows as f64, 2));
            let rows = (0..rows)
                .map(|i| vec![Datum::Int(i), Datum::Int(i * 2)])
                .collect();
            db.load_table(p.table(mdid).unwrap(), rows).unwrap();
        }
        svc.attach_database(Arc::new(db));
        svc
    }

    #[test]
    fn execute_path_shares_scan_fragments_across_requests() {
        let p = provider_with_tables(2);
        let serial = ExecuteConfig {
            parallel: false,
            columnar: true,
            ..ExecuteConfig::default()
        };
        let svc = executing_service(&p, serial, 20);
        let s = svc.open_session();
        // Unfiltered scans are zero-copy already: the join inserts nothing.
        let join = two_table_query(&p);
        for _ in 0..2 {
            svc.submit_query(s, &join, None).unwrap();
        }
        let st = svc.stats();
        assert_eq!(st.fragments_inserted, 0, "unfiltered scans are not cached");
        assert_eq!((st.fragment_entries, st.fragment_bytes), (0, 0));
        let q = filter_query(&p, 7);
        let first = svc.submit_query(s, &q, None).unwrap();
        let second = svc.submit_query(s, &q, None).unwrap();
        let (a, b) = (
            first.response.execution.expect("executed"),
            second.response.execution.expect("executed"),
        );
        assert_eq!(a.rows, b.rows, "shared fragments must not change results");
        assert_eq!(a.rows.len(), 1);
        let st = svc.stats();
        assert!(st.fragments_inserted > 0, "first run must materialize");
        assert!(st.fragments_reused > 0, "second run must reuse");
        assert!(st.fragment_bytes > 0);
        assert_eq!(st.fragment_entries, st.fragments_inserted);
        assert_eq!(st.fragment_evictions, 0);
    }

    /// A sink that takes one batch, then closes the stream.
    struct FirstBatchSink {
        rows: usize,
    }

    impl StreamSink for FirstBatchSink {
        fn on_plan(&mut self, _: &PlanHeader<'_>) -> Result<()> {
            Ok(())
        }

        fn on_rows(&mut self, rows: &[Row]) -> Result<bool> {
            self.rows += rows.len();
            Ok(false)
        }
    }

    /// Every execution hands its operator state back: after a serial, a
    /// parallel and an early-closed streamed run on one service, the
    /// executor-memory counter holds exactly the resident fragments.
    #[test]
    fn executions_return_all_memory_but_resident_fragments() {
        let p = provider_with_tables(2);
        let serial = ExecuteConfig {
            parallel: false,
            batch_rows: 4,
            ..ExecuteConfig::default()
        };
        let mut svc = executing_service(&p, serial.clone(), 200);
        let s = svc.open_session();
        let settled = |svc: &Service, what: &str| {
            let st = svc.stats();
            assert_eq!(st.mem_used_bytes, st.fragment_bytes, "after the {what} run");
        };
        let serial_rows = svc.submit_query(s, &filter_query(&p, 7), None).unwrap();
        assert_eq!(serial_rows.response.execution.unwrap().rows.len(), 1);
        assert!(
            svc.stats().fragment_bytes > 0,
            "the filtered scan is cached"
        );
        settled(&svc, "serial");

        svc.config.execute = Some(ExecuteConfig {
            parallel: true,
            workers: 2,
            ..serial.clone()
        });
        let par = svc.submit_query(s, &filter_query(&p, 9), None).unwrap();
        let par = par.response.execution.unwrap();
        assert!(par.parallel.is_some(), "the gang ran");
        assert_eq!(par.rows.len(), 1);
        settled(&svc, "parallel");

        svc.config.execute = Some(serial);
        let dxl = orca_dxl::query_to_dxl(&two_table_query(&p));
        let mut sink = FirstBatchSink { rows: 0 };
        let streamed = svc.submit_streaming(s, &dxl, None, &mut sink).unwrap();
        let streamed = streamed.response.execution.unwrap();
        assert!(streamed.streamed, "more batches followed the first");
        assert_eq!(sink.rows, 4, "the sink closed after one batch");
        settled(&svc, "streamed");
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

    /// `SELECT t0.b FROM t0 WHERE t0.a = literal`: one fingerprint per
    /// literal, like `plan_cold`'s unique range literals.
    fn filter_query(p: &MemoryProvider, literal: i64) -> DxlQuery {
        let registry = ColumnRegistry::new();
        let desc = p.table(p.table_by_name("t0").unwrap()).unwrap();
        let cols: Vec<ColId> = desc
            .columns
            .iter()
            .map(|c| registry.fresh(&format!("t0.{}", c.name), c.dtype))
            .collect();
        let pred = ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::col(cols[0]),
            ScalarExpr::int(literal),
        );
        let scan = LogicalExpr::leaf(LogicalOp::Get {
            table: TableRef(desc),
            cols: cols.clone(),
            parts: None,
        });
        DxlQuery {
            output_cols: vec![cols[1]],
            order: OrderSpec::any(),
            dist: DistSpec::Singleton,
            columns: registry.snapshot(),
            expr: LogicalExpr::new(LogicalOp::Select { pred }, vec![scan]),
        }
    }

    #[test]
    fn repeated_text_skips_the_parse_until_a_version_bump() {
        let p = provider_with_tables(2);
        let svc = Service::new(p.clone(), ServiceConfig::default());
        let s = svc.open_session();
        let dxl = orca_dxl::query_to_dxl(&two_table_query(&p));
        let submit = || svc.submit(s, &dxl).unwrap().response;

        let fresh = submit();
        assert_eq!(fresh.source, PlanSource::Fresh);
        // The first hit parses and aliases the text; the next skips both.
        let parsed_hit = submit();
        assert_eq!(parsed_hit.source, PlanSource::Cache);
        assert_eq!(svc.stats().cache_text_hits, 0);
        assert_eq!(svc.cache().aliases(), 1);
        let text_hit = submit();
        assert_eq!(text_hit.source, PlanSource::Cache);
        assert_eq!(text_hit.plan_dxl, fresh.plan_dxl);
        assert_eq!(text_hit.fingerprint, fresh.fingerprint);
        let st = svc.stats();
        assert_eq!(
            (st.cache_hits, st.cache_text_hits, st.cache_misses),
            (2, 1, 1)
        );

        // A bump breaks the binding: the same text re-optimizes, and the
        // stale entry is invalidated exactly once, with its alias.
        p.bump_table_version(p.table_by_name("t0").unwrap())
            .unwrap();
        let after = submit();
        assert_eq!(after.source, PlanSource::Fresh);
        assert_eq!(after.fingerprint, fresh.fingerprint);
        let st = svc.stats();
        assert_eq!(st.cache_invalidations, 1);
        assert_eq!(
            (st.cache_hits, st.cache_text_hits, st.cache_misses),
            (2, 1, 2)
        );
        assert_eq!(svc.cache().aliases(), 0);

        // The new entry is aliased again on its first hit.
        assert_eq!(submit().source, PlanSource::Cache);
        assert_eq!(submit().source, PlanSource::Cache);
        let st = svc.stats();
        assert_eq!(
            (st.cache_hits, st.cache_text_hits, st.cache_misses),
            (4, 2, 2)
        );
        assert_eq!(st.cache_invalidations, 1);
        svc.cache().assert_consistent();
    }

    #[test]
    fn texts_of_one_query_share_one_entry() {
        let p = provider_with_tables(2);
        let svc = Service::new(p.clone(), ServiceConfig::default());
        let s = svc.open_session();
        let dxl = orca_dxl::query_to_dxl(&two_table_query(&p));
        let spaced = dxl.replace("\n", "\n  ");
        assert_ne!(dxl, spaced);

        let fresh = svc.submit(s, &dxl).unwrap().response;
        assert_eq!(
            svc.submit(s, &dxl).unwrap().response.source,
            PlanSource::Cache
        );
        // Another text of the same query parses, then hits the one entry.
        let parsed = svc.submit(s, &spaced).unwrap().response;
        assert_eq!(parsed.source, PlanSource::Cache);
        assert_eq!(parsed.plan_dxl, fresh.plan_dxl);
        assert_eq!(parsed.fingerprint, fresh.fingerprint);
        assert_eq!(svc.stats().cache_text_hits, 0);
        for text in [&dxl, &spaced] {
            let hit = svc.submit(s, text).unwrap().response;
            assert_eq!(hit.source, PlanSource::Cache);
            assert_eq!(hit.plan_dxl, fresh.plan_dxl);
        }
        assert_eq!(svc.stats().cache_text_hits, 2);
        assert_eq!(svc.cache().len(), 1);
        assert_eq!(svc.cache().aliases(), 2);
        svc.cache().assert_consistent();
    }

    #[test]
    fn fallback_plans_are_never_aliased() {
        let p = provider_with_tables(2);
        let svc = Service::new(p.clone(), ServiceConfig::default());
        let s = svc.open_session();
        let dxl = orca_dxl::query_to_dxl(&two_table_query(&p));
        for _ in 0..3 {
            let r = svc
                .submit_with_deadline(s, &dxl, Some(Duration::ZERO))
                .unwrap()
                .response;
            assert_eq!(r.source, PlanSource::Fallback);
            assert!(r.degraded);
        }
        assert_eq!(svc.cache().aliases(), 0);
        assert_eq!(svc.stats().cache_text_hits, 0);
        // Nothing was cached either: the next request optimizes.
        let r = svc.submit(s, &dxl).unwrap().response;
        assert_eq!(r.source, PlanSource::Fresh);
        assert_eq!(svc.cache().aliases(), 0);
    }

    #[test]
    fn unique_texts_keep_the_cache_within_budget() {
        let p = provider_with_tables(1);
        let budget = 24 << 10;
        let svc = Service::new(
            p.clone(),
            ServiceConfig {
                cache_bytes: budget,
                ..ServiceConfig::default()
            },
        );
        let s = svc.open_session();
        for literal in 0..2_000 {
            let dxl = orca_dxl::query_to_dxl(&filter_query(&p, literal));
            assert_eq!(
                svc.submit(s, &dxl).unwrap().response.source,
                PlanSource::Fresh
            );
            assert_eq!(
                svc.submit(s, &dxl).unwrap().response.source,
                PlanSource::Cache
            );
            assert!(svc.cache().bytes() <= budget);
            if literal % 100 == 0 {
                svc.cache().assert_consistent();
            }
        }
        svc.cache().assert_consistent();
        let st = svc.stats();
        assert!(st.cache_evictions > 0, "the budget must have been exceeded");
        assert!(svc.cache().aliases() <= svc.cache().len());
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
