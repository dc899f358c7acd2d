//! The `--trace 1` run: one client, a fixed request count, spans around
//! the calls into each crate, and the per-layer ledger computed from them.
//!
//! Per request a root span, then child spans around `orca_sql::compile`
//! (+ building the query document), `query_to_dxl` and
//! `ServiceClient::submit`. What happens inside `submit` is server-side, so
//! it is *replayed*: once all traced requests are done, the same work is run
//! on standalone objects — `parse_query`, `Optimizer::optimize_query`,
//! `plan_to_dxl`, a cursor / `ParallelEngine` execution — and their
//! durations become child spans laid out inside the `submit` interval.
//! What `submit` has left after them is `service.self`: known only by
//! subtraction until the product carries its own spans.
//!
//! Two standalone optimizers: one configured like the service (nproc
//! workers) for *times*, one at a single worker for *counts* and for the
//! plans the executor attribution runs. At nproc workers the seed optimizer
//! picks among near-equal plans by thread interleaving, so only the
//! single-worker plans make counts that repeat exactly.

use crate::cluster::Gang;
use crate::gen::{Corpus, Execute, Kind, Spec, Stream, COLD_WARMUP};
use crate::harness::{
    err, expectations, optimizer_config, reference_optimizer, service_config, sql_to_query,
    Checker, Data, Res, Stack,
};
use crate::metrics::{RunResult, Values};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Args;
use orca::{OptStats, Optimizer};
use orca_common::ColId;
use orca_dxl::DxlQuery;
use orca_dxl::{parse_plan_doc, parse_query, plan_to_dxl, query_to_dxl, DxlPlan};
use orca_executor::parallel::slice::slice_plan;
use orca_executor::{
    Cursor, CursorOptions, ExecEngine, ExecStats, FragmentCache, ParallelConfig, ParallelEngine,
    ParallelStats, Row,
};
use orca_expr::physical::PhysicalPlan;
use orca_service::{
    ExecuteConfig, PlanHeader, PlanSource, Service, ServiceConfig, ServiceStats, SessionId,
    StreamSink,
};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Operators with a span name and a metric of their own; the rest go to
/// `executor.op.other`.
const OPS: &[(&str, &str, &str)] = &[
    (
        "TableScan",
        "executor.op.TableScan",
        "executor.op.TableScan_ms",
    ),
    ("Filter", "executor.op.Filter", "executor.op.Filter_ms"),
    ("Project", "executor.op.Project", "executor.op.Project_ms"),
    (
        "HashJoin",
        "executor.op.HashJoin",
        "executor.op.HashJoin_ms",
    ),
    ("HashAgg", "executor.op.HashAgg", "executor.op.HashAgg_ms"),
    ("Sort", "executor.op.Sort", "executor.op.Sort_ms"),
    ("Limit", "executor.op.Limit", "executor.op.Limit_ms"),
    (
        "Motion(Redistribute)",
        "executor.op.Motion_Redistribute",
        "executor.op.Motion_Redistribute_ms",
    ),
    (
        "Motion(Gather)",
        "executor.op.Motion_Gather",
        "executor.op.Motion_Gather_ms",
    ),
    (
        "Motion(GatherMerge)",
        "executor.op.Motion_GatherMerge",
        "executor.op.Motion_GatherMerge_ms",
    ),
    (
        "Motion(Broadcast)",
        "executor.op.Motion_Broadcast",
        "executor.op.Motion_Broadcast_ms",
    ),
];

fn ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Named sample vectors.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn mean(&self, name: &str) -> Option<f64> {
        let v = self.get(name);
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Executor counters summed over the traced requests.
#[derive(Default)]
struct ExecTotals {
    stats: ExecStats,
    op_ns: BTreeMap<&'static str, u64>,
    run_ns: u64,
    slices: u64,
    runs: u64,
    motion_rows: u64,
    motion_bytes: u64,
    peak_queue_depth: usize,
    batches_reused: u64,
    cte_spools: u64,
    serial_fallbacks: u64,
    net_frames_tx: u64,
    net_bytes_tx: u64,
    remote_edges: u64,
    reconnects: u64,
    open_rtt_max_s: f64,
}

impl ExecTotals {
    fn add(&mut self, s: &ExecStats, run_ns: u64) {
        let t = &mut self.stats;
        t.rows_processed += s.rows_processed;
        t.bytes_moved += s.bytes_moved;
        t.spills += s.spills;
        t.chunks_skipped += s.chunks_skipped;
        t.dict_hits += s.dict_hits;
        t.scan_bytes_cloned += s.scan_bytes_cloned;
        t.spill_partitions += s.spill_partitions;
        t.spill_bytes_written += s.spill_bytes_written;
        t.spill_bytes_read += s.spill_bytes_read;
        t.peak_mem_bytes = t.peak_mem_bytes.max(s.peak_mem_bytes);
        for (name, p) in &s.ops {
            *self.op_ns.entry(name).or_insert(0) += p.ns;
        }
        self.run_ns += run_ns;
        self.runs += 1;
    }

    fn add_parallel(&mut self, p: &ParallelStats) {
        self.slices += p.num_slices as u64;
        self.motion_rows += p.motion_rows();
        self.motion_bytes += p.motion_bytes();
        self.peak_queue_depth = self.peak_queue_depth.max(p.peak_queue_depth());
        self.batches_reused += p.batches_reused;
        self.cte_spools += p.cte_spools as u64;
        self.serial_fallbacks += p.serial_fallback as u64;
        self.net_frames_tx += p.net.frames_tx;
        self.net_bytes_tx += p.net.bytes_tx;
        self.remote_edges += p.net.remote_edges;
        self.reconnects += p.net.reconnects;
        self.open_rtt_max_s = self.open_rtt_max_s.max(p.net.open_rtt_max_seconds);
    }

    fn emit(&self, v: &mut Values, parallel: bool) {
        let s = &self.stats;
        v.set("executor.rows_processed", s.rows_processed as f64);
        v.set("executor.bytes_moved", s.bytes_moved as f64);
        if self.run_ns > 0 {
            v.set(
                "executor.rows_per_s",
                s.rows_processed as f64 / (self.run_ns as f64 / 1e9),
            );
        }
        let mut other = 0u64;
        for (name, ns) in &self.op_ns {
            match OPS.iter().find(|(op, _, _)| op == name) {
                Some((_, _, metric)) => v.set(metric, *ns as f64 / 1e6),
                None => other += ns,
            }
        }
        v.set("executor.op.other_ms", other as f64 / 1e6);
        v.set("executor.chunks_skipped", s.chunks_skipped as f64);
        v.set("executor.dict_hits", s.dict_hits as f64);
        v.set("executor.scan_bytes_cloned", s.scan_bytes_cloned as f64);
        v.set("executor.spills", s.spills as f64);
        v.set("executor.spill_partitions", s.spill_partitions as f64);
        v.set("executor.spill_bytes_written", s.spill_bytes_written as f64);
        v.set("executor.spill_bytes_read", s.spill_bytes_read as f64);
        v.set("executor.peak_mem_bytes", s.peak_mem_bytes as f64);
        if parallel && self.runs > 0 {
            v.set(
                "executor.parallel.slices_avg",
                self.slices as f64 / self.runs as f64,
            );
            v.set("executor.parallel.motion_rows", self.motion_rows as f64);
            v.set("executor.parallel.motion_bytes", self.motion_bytes as f64);
            v.set(
                "executor.parallel.peak_queue_depth",
                self.peak_queue_depth as f64,
            );
            v.set(
                "executor.parallel.batches_reused",
                self.batches_reused as f64,
            );
            v.set("executor.parallel.cte_spools", self.cte_spools as f64);
            v.set(
                "executor.parallel.serial_fallbacks",
                self.serial_fallbacks as f64,
            );
        }
    }
}

/// Operator children of an `executor.run` span, in name order.
fn op_children(stats: &ExecStats) -> Vec<(&'static str, u64)> {
    stats
        .ops
        .iter()
        .map(|(name, p)| {
            let span = OPS
                .iter()
                .find(|(op, _, _)| op == name)
                .map_or("executor.op.other", |(_, span, _)| span);
            (span, p.ns)
        })
        .collect()
}

/// The deterministic (single-worker) plan of one distinct query.
struct RefPlan {
    plan: PhysicalPlan,
    output_cols: Vec<ColId>,
    seen: u32,
}

/// What phase A keeps of one traced request for phase B.
struct Traced {
    r: u64,
    query: Option<usize>,
    sql: String,
    dxl: String,
    output_cols: Vec<ColId>,
    source: PlanSource,
    cost: f64,
    /// Id, start and length of its `service.submit` span.
    submit: u64,
    submit_start: u64,
    submit_ns: u64,
}

/// `StreamSink` that only notes when the plan and the first rows arrived.
struct StampSink {
    start: Instant,
    plan_ns: Option<u64>,
    first_rows_ns: Option<u64>,
}

impl StreamSink for StampSink {
    fn on_plan(&mut self, _: &PlanHeader<'_>) -> orca_common::Result<()> {
        self.plan_ns = Some(self.start.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn on_rows(&mut self, rows: &[Row]) -> orca_common::Result<bool> {
        if self.first_rows_ns.is_none() && !rows.is_empty() {
            self.first_rows_ns = Some(self.start.elapsed().as_nanos() as u64);
        }
        Ok(true)
    }
}

/// One standalone execution the way the service would run it.
struct ExecRun {
    stats: ExecStats,
    parallel: Option<ParallelStats>,
    sim_seconds: f64,
    run_ns: u64,
    first_batch_ns: Option<u64>,
}

fn execute(
    spec: &Spec,
    data: &Data,
    frags: &Arc<FragmentCache>,
    plan: &PhysicalPlan,
    cols: &[ColId],
) -> Res<ExecRun> {
    let t0 = Instant::now();
    if spec.execute == Execute::Parallel {
        let res = ParallelEngine::with_config(&data.db, ParallelConfig::default())
            .with_fragments(frags.clone())
            .run(plan, cols)
            .map_err(err("standalone parallel run"))?;
        return Ok(ExecRun {
            sim_seconds: res.parallel.sim_seconds,
            stats: res.stats,
            parallel: Some(res.parallel),
            run_ns: t0.elapsed().as_nanos() as u64,
            first_batch_ns: None,
        });
    }
    // The serial service path is a cursor; so is its replay.
    let mut cursor = Cursor::open(
        data.db.clone(),
        plan,
        cols,
        CursorOptions {
            columnar: true,
            batch_rows: ExecuteConfig::default().batch_rows,
            fragments: Some(frags.clone()),
            mem: None,
        },
    );
    let mut first_batch_ns = None;
    while cursor
        .next_batch()
        .map_err(err("standalone cursor"))?
        .is_some()
    {
        first_batch_ns.get_or_insert(t0.elapsed().as_nanos() as u64);
    }
    let run_ns = t0.elapsed().as_nanos() as u64;
    let summary = cursor
        .summary()
        .ok_or("cursor finished without a summary")?;
    Ok(ExecRun {
        stats: summary.stats.clone(),
        parallel: None,
        sim_seconds: summary.sim_seconds,
        run_ns,
        first_batch_ns,
    })
}

/// Optimizer diagnostics summed over the fresh requests.
#[derive(Default)]
struct CoreTotals {
    n: f64,
    total_ns: f64,
    explore_ns: f64,
    implement_ns: f64,
    optimize_ns: f64,
    jobs: f64,
    job_steps: f64,
    goal_hits: f64,
    sel_hits: f64,
    sel_misses: f64,
    dedup_hits: f64,
    contexts_pruned: f64,
    groups_merged: f64,
    intern_hits: f64,
    memo_bytes: f64,
}

impl CoreTotals {
    fn add(&mut self, s: &OptStats) {
        self.n += 1.0;
        self.total_ns += s.optimization_time.as_nanos() as f64;
        self.explore_ns += s.explore_time.as_nanos() as f64;
        self.implement_ns += s.implement_time.as_nanos() as f64;
        self.optimize_ns += s.optimize_time.as_nanos() as f64;
        self.jobs += s.jobs_spawned as f64;
        self.job_steps += s.job_steps as f64;
        self.goal_hits += s.goal_hits as f64;
        self.sel_hits += s.search.sel_cache_hits as f64;
        self.sel_misses += s.search.sel_cache_misses as f64;
        self.dedup_hits += s.search.dedup_hits as f64;
        self.contexts_pruned += s.search.contexts_pruned as f64;
        self.groups_merged += s.search.groups_merged as f64;
        self.intern_hits += s.search.intern_hits as f64;
        self.memo_bytes += s.memo_bytes as f64;
    }

    fn emit(&self, v: &mut Values) {
        if self.n == 0.0 || self.total_ns == 0.0 {
            return;
        }
        let phases = self.explore_ns + self.implement_ns + self.optimize_ns;
        v.set("core.explore_share", self.explore_ns / self.total_ns);
        v.set("core.implement_share", self.implement_ns / self.total_ns);
        v.set(
            "core.optimize_phase_share",
            self.optimize_ns / self.total_ns,
        );
        v.set("core.other_share", 1.0 - phases / self.total_ns);
        v.set("core.jobs_avg", self.jobs / self.n);
        v.set("core.job_steps_avg", self.job_steps / self.n);
        v.set(
            "core.goal_hit_rate",
            self.goal_hits / (self.goal_hits + self.jobs).max(1.0),
        );
        v.set(
            "core.sel_cache_hit_rate",
            self.sel_hits / (self.sel_hits + self.sel_misses).max(1.0),
        );
        v.set("core.dedup_hits_avg", self.dedup_hits / self.n);
        v.set("core.contexts_pruned_avg", self.contexts_pruned / self.n);
        v.set("core.groups_merged_avg", self.groups_merged / self.n);
        v.set("core.intern_hits_avg", self.intern_hits / self.n);
        v.set("core.memo_bytes_avg", self.memo_bytes / self.n);
    }
}

/// Write the spans out and print each layer's share of traced request
/// time (self times summed by the crate prefix of the span name).
fn write_trace(spec: &Spec, tracer: &Tracer) -> Res<()> {
    let path = format!("trace-{}.json", spec.name);
    std::fs::write(&path, tracer.to_chrome_json()).map_err(err("write trace"))?;
    println!("# wrote {path} ({} spans)", tracer.spans.len());
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, own) in tracer.self_ns_by_name() {
        let layer = name.split('.').next().unwrap_or(name);
        *by_layer.entry(layer).or_insert(0) += own;
    }
    let total: u64 = by_layer.values().sum();
    for (layer, own) in by_layer {
        println!(
            "# layer_share {} {layer} {:.4}",
            spec.name,
            own as f64 / total.max(1) as f64
        );
    }
    Ok(())
}

/// `trace.unattributed_share`: the share of traced request time not inside
/// a span around a product call, measured or replayed — the harness's own
/// gaps (self time of `request`) plus the self time of `enclosing`, the
/// span whose inside is known only by subtraction.
fn unattributed_share(tracer: &Tracer, enclosing: &str) -> f64 {
    let by_name = tracer.self_ns_by_name();
    let own = |name| by_name.get(name).copied().unwrap_or(0);
    let total: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.dur_ns())
        .sum();
    (own("request") + own(enclosing)) as f64 / total.max(1) as f64
}

/// Durations, in microseconds, of every span called `name`.
fn span_us(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Sums the replay phase keeps besides the sample vectors.
#[derive(Default)]
struct Sums {
    groups: f64,
    group_exprs: f64,
    cost_total: f64,
    served_cost: f64,
    metadata_bytes: u64,
    /// 7-way joins: optimize time at one worker and at nproc workers.
    wide_one_worker_ns: u64,
    wide_served_ns: u64,
    sim_total: f64,
    /// Second visits: the same plan serial and parallel, 4 KiB and roomy.
    serial_ns: u64,
    parallel_ns: u64,
    tight_ns: u64,
    roomy_ns: u64,
}

/// The standalone objects the server's half of a request is replayed on,
/// and what the replays add up to.
struct Replay<'a> {
    spec: &'a Spec,
    data: &'a Data,
    /// Configured like the service (nproc workers): times.
    served_opt: Optimizer,
    /// Single worker: counts, and the plans the executor replays run.
    ref_opt: &'a Optimizer,
    frags: Arc<FragmentCache>,
    /// `exec_spill` only: the same data under the default `work_mem`.
    roomy: Option<Data>,
    /// In-process twin of the service, for what the socket adds.
    twin: Service,
    twin_session: SessionId,
    refs: BTreeMap<usize, RefPlan>,
    samples: Samples,
    core: CoreTotals,
    exec: ExecTotals,
    sums: Sums,
}

impl<'a> Replay<'a> {
    fn new(spec: &'a Spec, data: &'a Data, ref_opt: &'a Optimizer) -> Replay<'a> {
        let twin = Service::new(
            data.provider.clone(),
            service_config(spec, &data.db.cluster),
        );
        twin.attach_database(data.db.clone());
        Replay {
            spec,
            data,
            served_opt: Optimizer::new(data.provider.clone(), optimizer_config(&data.db.cluster)),
            ref_opt,
            frags: Arc::new(FragmentCache::new(
                ServiceConfig::default().fragment_cache_bytes,
            )),
            roomy: spec.work_mem_bytes.map(|_| {
                Data::build(&Spec {
                    work_mem_bytes: None,
                    ..*spec
                })
            }),
            twin_session: twin.open_session(),
            twin,
            refs: BTreeMap::new(),
            samples: Samples::default(),
            core: CoreTotals::default(),
            exec: ExecTotals::default(),
            sums: Sums::default(),
        }
    }

    /// Replay the server's half of one request and lay the durations out
    /// inside its `service.submit` span.
    fn request(&mut self, t: &Traced, tracer: &mut Tracer) -> Res<()> {
        let provider = self.data.provider.as_ref();
        let (parsed, de_ns) = ns(|| parse_query(&t.dxl, provider));
        let parsed = parsed.map_err(err("parse_query"))?;
        self.samples.push("dxl.query_de_us", de_ns as f64 / 1e3);
        let mut replay: Vec<(&'static str, u64)> = vec![("dxl.query_de", de_ns)];
        let phases = if t.source == PlanSource::Fresh {
            Some(self.fresh(t, &parsed, &mut replay)?)
        } else {
            None
        };
        let exec_run = match t.query {
            Some(q) => self.corpus_query(t, q, &parsed, &mut replay)?,
            None => None,
        };

        let (ids, replay_end) = tracer.replay(t.r, t.submit, t.submit_start, &replay);
        for ((name, _), id) in replay.iter().zip(&ids) {
            let start = tracer.spans[*id as usize - 1].start_ns;
            match (*name, &phases, &exec_run) {
                ("core.optimize", Some(phases), _) => {
                    tracer.replay(t.r, *id, start, phases);
                }
                ("executor.run", _, Some(run)) => {
                    tracer.replay(t.r, *id, start, &op_children(&run.stats));
                }
                _ => {}
            }
        }
        let replayed = replay_end - t.submit_start;
        self.samples.push(
            "service.self_us",
            t.submit_ns.saturating_sub(replayed) as f64 / 1e3,
        );
        // The socket's share matters on plan-only requests and bulk row
        // streams; on `exec_*` the twin would only execute every query once
        // more.
        if self.spec.execute == Execute::PlanOnly || self.spec.kind == Kind::StreamRows {
            self.twin(t)?;
        }
        Ok(())
    }

    /// A request the service optimized: the same optimization on both
    /// standalone optimizers. Returns the phase children of `core.optimize`.
    fn fresh(
        &mut self,
        t: &Traced,
        parsed: &DxlQuery,
        replay: &mut Vec<(&'static str, u64)>,
    ) -> Res<[(&'static str, u64); 3]> {
        let provider = self.data.provider.as_ref();
        let (out, opt_ns) = ns(|| self.served_opt.optimize_query(parsed));
        let (plan, stats) = out.map_err(err("standalone optimize"))?;
        let (plan_dxl, ser_ns) = ns(|| {
            plan_to_dxl(&DxlPlan {
                plan,
                cost: stats.plan_cost,
            })
        });
        let (doc, plan_de_ns) = ns(|| parse_plan_doc(&plan_dxl, provider));
        doc.map_err(err("parse_plan_doc"))?;
        self.samples.push("dxl.plan_de_us", plan_de_ns as f64 / 1e3);
        self.samples.push("core.optimize_ms", opt_ns as f64 / 1e6);
        self.samples.push("dxl.plan_ser_us", ser_ns as f64 / 1e3);
        self.core.add(&stats);
        replay.push(("core.optimize", opt_ns));
        replay.push(("dxl.plan_ser", ser_ns));

        // Counts from the single-worker optimizer.
        let (out, one_ns) = ns(|| self.ref_opt.optimize_query(parsed));
        let (one_plan, one) = out.map_err(err("single-worker optimize"))?;
        let one_dxl = plan_to_dxl(&DxlPlan {
            plan: one_plan,
            cost: one.plan_cost,
        });
        self.samples.push("dxl.plan_bytes", one_dxl.len() as f64);
        let sums = &mut self.sums;
        sums.served_cost += t.cost;
        sums.groups += one.groups as f64;
        sums.group_exprs += one.group_exprs as f64;
        sums.cost_total += one.plan_cost;
        sums.metadata_bytes = sums.metadata_bytes.max(one.metadata_bytes);
        if t.sql.contains("customer_address") {
            sums.wide_one_worker_ns += one_ns;
            sums.wide_served_ns += opt_ns;
        }
        Ok([
            ("core.explore", stats.explore_time.as_nanos() as u64),
            ("core.implement", stats.implement_time.as_nanos() as u64),
            ("core.optimize_phase", stats.optimize_time.as_nanos() as u64),
        ])
    }

    /// A request for distinct corpus query `q`: its single-worker plan
    /// (made on the first visit) and, on executing workloads, one standalone
    /// execution of it.
    fn corpus_query(
        &mut self,
        t: &Traced,
        q: usize,
        parsed: &DxlQuery,
        replay: &mut Vec<(&'static str, u64)>,
    ) -> Res<Option<ExecRun>> {
        let provider = self.data.provider.as_ref();
        if let Entry::Vacant(slot) = self.refs.entry(q) {
            let (plan, stats) = self
                .ref_opt
                .optimize_query(parsed)
                .map_err(err("single-worker optimize"))?;
            self.sums.cost_total += stats.plan_cost;
            self.sums.served_cost += t.cost;
            self.sums.metadata_bytes = self.sums.metadata_bytes.max(stats.metadata_bytes);
            let (plan_dxl, ser_ns) = ns(|| {
                plan_to_dxl(&DxlPlan {
                    plan: plan.clone(),
                    cost: stats.plan_cost,
                })
            });
            let (doc, plan_de_ns) = ns(|| parse_plan_doc(&plan_dxl, provider));
            doc.map_err(err("parse_plan_doc"))?;
            self.samples.push("dxl.plan_ser_us", ser_ns as f64 / 1e3);
            self.samples.push("dxl.plan_de_us", plan_de_ns as f64 / 1e3);
            self.samples.push("dxl.plan_bytes", plan_dxl.len() as f64);
            slot.insert(RefPlan {
                plan,
                output_cols: t.output_cols.clone(),
                seen: 0,
            });
        }
        let rp = self.refs.get_mut(&q).expect("just inserted");
        rp.seen += 1;
        if self.spec.execute == Execute::PlanOnly {
            return Ok(None);
        }
        let (_, slice_ns) = ns(|| slice_plan(&rp.plan));
        self.samples
            .push("executor.slice_plan_us", slice_ns as f64 / 1e3);
        let run = execute(self.spec, self.data, &self.frags, &rp.plan, &rp.output_cols)?;
        self.samples
            .push("executor.run_ms", run.run_ns as f64 / 1e6);
        if let Some(f) = run.first_batch_ns {
            self.samples
                .push("executor.cursor.first_batch_ms", f as f64 / 1e6);
        }
        self.exec.add(&run.stats, run.run_ns);
        if let Some(p) = &run.parallel {
            self.exec.add_parallel(p);
        }
        if rp.seen == 1 {
            self.sums.sim_total += run.sim_seconds;
        }
        // On a query's second visit, with caches warm: the same plan the
        // other way (serial vs parallel, roomy vs 4 KiB).
        if rp.seen == 2 {
            let columnar = |d: &Data| -> Res<u64> {
                let (out, t) = ns(|| {
                    ExecEngine::new(&d.db)
                        .with_fragments(self.frags.clone())
                        .run_columnar(&rp.plan, &rp.output_cols)
                });
                out.map_err(err("comparison run"))?;
                Ok(t)
            };
            if self.spec.execute == Execute::Parallel {
                self.sums.serial_ns += columnar(self.data)?;
                self.sums.parallel_ns += run.run_ns;
            }
            if let Some(roomy) = &self.roomy {
                self.sums.tight_ns += columnar(self.data)?;
                self.sums.roomy_ns += columnar(roomy)?;
            }
        }
        replay.push(("executor.run", run.run_ns));
        Ok(Some(run))
    }

    /// The same request in-process, on the twin service.
    fn twin(&mut self, t: &Traced) -> Res<()> {
        let mut sink = StampSink {
            start: Instant::now(),
            plan_ns: None,
            first_rows_ns: None,
        };
        let (ticket, twin_ns) = ns(|| {
            self.twin
                .submit_streaming(self.twin_session, &t.dxl, None, &mut sink)
        });
        let ticket = ticket.map_err(err("in-process submit_streaming"))?;
        // Like for like only: a cache hit against a cache hit.
        if ticket.response.source == t.source {
            self.samples.push(
                "service.tcp_overhead_us",
                (t.submit_ns as f64 - twin_ns as f64) / 1e3,
            );
            if let Some(ns) = sink.plan_ns {
                self.samples
                    .push("service.time_to_plan_ms", ns as f64 / 1e6);
            }
            if let Some(ns) = sink.first_rows_ns {
                self.samples.push("service.first_rows_ms", ns as f64 / 1e6);
            }
        }
        Ok(())
    }

    /// Everything the replays measured, into the ledger.
    fn emit(&self, v: &mut Values) {
        let (samples, sums) = (&self.samples, &self.sums);
        v.set_opt("sql.text_bytes_avg", samples.mean("sql.text_bytes"));
        for (metric, name) in [
            ("dxl.query_de_us_p50", "dxl.query_de_us"),
            ("dxl.plan_ser_us_p50", "dxl.plan_ser_us"),
            ("dxl.plan_de_us_p50", "dxl.plan_de_us"),
            ("core.optimize_ms_p50", "core.optimize_ms"),
            ("service.self_us_p50", "service.self_us"),
            ("service.tcp_overhead_us_p50", "service.tcp_overhead_us"),
            ("service.time_to_plan_ms_p50", "service.time_to_plan_ms"),
            ("service.first_rows_ms_p50", "service.first_rows_ms"),
        ] {
            v.set_opt(metric, median(samples.get(name)));
        }
        v.set_opt("dxl.query_bytes_avg", samples.mean("dxl.query_bytes"));
        v.set_opt("dxl.plan_bytes_avg", samples.mean("dxl.plan_bytes"));
        v.set_opt(
            "core.optimize_ms_p95",
            percentile(samples.get("core.optimize_ms"), 95.0),
        );
        v.set_opt(
            "service.latency_p99_ms",
            percentile(samples.get("latency_ms"), 99.0),
        );
        self.core.emit(v);
        if self.core.n > 0.0 {
            v.set("core.groups_avg", sums.groups / self.core.n);
            v.set("core.group_exprs_avg", sums.group_exprs / self.core.n);
        }
        v.set("core.metadata_bytes", sums.metadata_bytes as f64);
        v.set("core.plan_cost_total", sums.cost_total);
        if sums.cost_total > 0.0 {
            v.set("core.served_cost_ratio", sums.served_cost / sums.cost_total);
        }
        if sums.wide_served_ns > 0 {
            v.set(
                "core.parallel_speedup",
                sums.wide_one_worker_ns as f64 / sums.wide_served_ns as f64,
            );
        }
        if self.spec.execute == Execute::PlanOnly {
            return;
        }
        for (metric, name) in [
            ("executor.run_ms_p50", "executor.run_ms"),
            ("executor.slice_plan_us_p50", "executor.slice_plan_us"),
            (
                "executor.cursor.first_batch_ms_p50",
                "executor.cursor.first_batch_ms",
            ),
        ] {
            v.set_opt(metric, median(samples.get(name)));
        }
        v.set_opt(
            "executor.run_ms_p95",
            percentile(samples.get("executor.run_ms"), 95.0),
        );
        v.set("executor.sim_s_total", sums.sim_total);
        self.exec.emit(v, self.spec.execute == Execute::Parallel);
        if sums.parallel_ns > 0 {
            v.set(
                "executor.parallel.speedup_vs_serial",
                sums.serial_ns as f64 / sums.parallel_ns as f64,
            );
        }
        if sums.roomy_ns > 0 {
            v.set(
                "executor.spill_slowdown",
                sums.tight_ns as f64 / sums.roomy_ns as f64,
            );
        }
    }
}

/// Service counters over the served load of the traced run (`before` is
/// read after warm-up, `after` when the last traced response is in).
fn emit_service_counters(
    v: &mut Values,
    before: &ServiceStats,
    after: &ServiceStats,
    rows_received: u64,
    submit_ns_total: u64,
) {
    let d = |f: fn(&ServiceStats) -> u64| (f(after) - f(before)) as f64;
    let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
    v.set(
        "service.plan_cache_hit_rate",
        hits / (hits + misses).max(1.0),
    );
    v.set("service.plan_cache_evictions", d(|s| s.cache_evictions));
    v.set("service.plan_cache_bytes", after.cache_bytes as f64);
    v.set("service.coalesced", d(|s| s.coalesced));
    v.set("service.queued", d(|s| s.queued));
    v.set("service.rejected", d(|s| s.rejected));
    v.set("service.degraded", d(|s| s.degraded));
    v.set("service.mem_queued", d(|s| s.mem_queued));
    v.set("service.mem_degraded_grants", d(|s| s.mem_degraded_grants));
    v.set("service.mem_peak_bytes", after.mem_peak_bytes as f64);
    v.set("service.fragments_reused", d(|s| s.fragments_reused));
    v.set("service.fragment_evictions", d(|s| s.fragment_evictions));
    v.set("service.fragment_bytes", after.fragment_bytes as f64);
    v.set("service.net_frames_tx", d(|s| s.net_frames_tx));
    v.set("service.net_bytes_tx", d(|s| s.net_bytes_tx));
    if rows_received > 0 {
        v.set(
            "service.net_bytes_per_row",
            d(|s| s.net_bytes_tx) / rows_received as f64,
        );
        v.set(
            "service.rows_per_s",
            rows_received as f64 / (submit_ns_total as f64 / 1e9),
        );
    }
    v.set(
        "service.net_streamed_share",
        d(|s| s.net_streamed) / d(|s| s.net_requests).max(1.0),
    );
}

pub fn run_traced(spec: &'static Spec, args: &Args) -> Res<RunResult> {
    let corpus = Corpus::of(spec);
    if spec.kind == Kind::ClusterLoopback {
        return run_traced_loopback(spec, &corpus, args);
    }
    let mut stack = Stack::setup(spec, &corpus, args.seed, 1)?;
    let (expected, _) = expectations(spec, &corpus, &stack)?;
    // Service counters cover both passes below: all of it is served load.
    let stats_before = stack.svc.stats();
    let data = &stack.data;
    let provider = data.provider.as_ref();
    let ref_opt = reference_optimizer(data);
    let checker = Checker {
        spec,
        data,
        expected: &expected,
        optimizer: &ref_opt,
    };
    let client = &mut stack.clients[0];

    // Untraced pass first: its median against the traced one is what the
    // spans cost.
    let mut untraced = Vec::new();
    let mut stream = Stream::new(&corpus, args.seed, 0, 1, COLD_WARMUP as u64);
    for _ in 0..spec.untraced_requests {
        let req = stream.next();
        let t0 = Instant::now();
        crate::harness::issue(&req.sql, provider, client)?;
        untraced.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Phase A: the traced requests, back to back, nothing in between — the
    // served path sees the same load as in the untraced pass.
    let mut tracer = Tracer::new();
    let mut replay = Replay::new(spec, data, &ref_opt);
    let (mut attempted, mut failed, mut fallbacks) = (0u64, 0u64, 0u64);
    let mut first_error = None;
    let (mut rows_received, mut submit_ns_total) = (0u64, 0u64);
    let base = COLD_WARMUP + spec.untraced_requests;
    let mut stream = Stream::new(&corpus, args.seed, 0, 1, base as u64);
    let mut traced: Vec<Traced> = Vec::new();
    for r in 1..=spec.trace_requests as u64 {
        let req = stream.next();
        attempted += 1;
        let root = tracer.begin(r, 0, "request");
        let query = tracer.time(r, root, "sql.compile", || sql_to_query(&req.sql, provider))?;
        let dxl = tracer.time(r, root, "dxl.query_ser", || query_to_dxl(&query));
        let submit = tracer.begin(r, root, "service.submit");
        let resp = client.submit(&dxl, None);
        let (submit_start, submit_ns) = {
            let s = tracer.end(submit);
            (s.start_ns, s.dur_ns())
        };
        let root_ns = tracer.end(root).dur_ns();
        if matches!(&resp, Ok(r) if r.plan.source == PlanSource::Fallback) {
            fallbacks += 1;
        }
        let resp = match resp
            .map_err(err("submit"))
            .and_then(|resp| checker.check(&req, &resp, r).map(|_| resp))
        {
            Ok(resp) => resp,
            Err(e) => {
                failed += 1;
                first_error.get_or_insert(e);
                continue;
            }
        };
        replay.samples.push("latency_ms", root_ns as f64 / 1e6);
        replay.samples.push("sql.text_bytes", req.sql.len() as f64);
        replay.samples.push("dxl.query_bytes", dxl.len() as f64);
        rows_received += resp.rows.len() as u64;
        submit_ns_total += submit_ns;
        traced.push(Traced {
            r,
            query: req.query,
            sql: req.sql.into_owned(),
            dxl,
            output_cols: query.output_cols,
            source: resp.plan.source,
            cost: resp.plan.cost,
            submit,
            submit_start,
            submit_ns,
        });
    }
    let stats_after = stack.svc.stats();
    if let Some(e) = &first_error {
        eprintln!("e2e_bench: {failed} of {attempted} traced requests failed; first: {e}");
    }

    // Phase B: the server's half of every request, on standalone objects.
    for t in &traced {
        replay.request(t, &mut tracer)?;
    }

    let mut values = Values::default();
    let v = &mut values;
    let compile_us = span_us(&tracer, "sql.compile");
    v.set_opt("sql.compile_us_p50", median(&compile_us));
    v.set_opt("sql.compile_us_p95", percentile(&compile_us, 95.0));
    v.set_opt(
        "dxl.query_ser_us_p50",
        median(&span_us(&tracer, "dxl.query_ser")),
    );
    replay.emit(v);
    emit_service_counters(
        v,
        &stats_before,
        &stats_after,
        rows_received,
        submit_ns_total,
    );
    v.set("service.fallbacks", fallbacks as f64);
    v.set("tpcds.datagen_s", data.datagen_s);
    v.set("tpcds.rows_loaded", data.rows_loaded() as f64);
    v.set(
        "trace.unattributed_share",
        unattributed_share(&tracer, "service.submit"),
    );
    if let (Some(t), Some(u)) = (median(replay.samples.get("latency_ms")), median(&untraced)) {
        v.set("trace.overhead_share", t / u - 1.0);
    }
    write_trace(spec, &tracer)?;
    drop(replay);
    stack.teardown();
    Ok(RunResult {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        values,
    })
}

/// `cluster_loopback`: spans around `run_distributed`, with the worker's
/// DXL parse and an in-process `ParallelEngine::run` of the same plan
/// replayed inside it; what is left is what the sockets add.
fn run_traced_loopback(spec: &'static Spec, corpus: &Corpus, args: &Args) -> Res<RunResult> {
    let mut gang = Gang::setup(spec, corpus)?;
    gang.expectations()?;
    let frags = Arc::new(FragmentCache::new(
        ServiceConfig::default().fragment_cache_bytes,
    ));
    let n = spec.trace_requests;

    let mut untraced = Vec::new();
    let mut stream = Stream::new(corpus, args.seed, 0, 1, 0);
    for _ in 0..spec.untraced_requests {
        let q = stream.next().query.expect("fixed corpus");
        untraced.push(gang.run(q)?.1.as_secs_f64() * 1e3);
    }

    let mut tracer = Tracer::new();
    let mut samples = Samples::default();
    let mut dist = ExecTotals::default();
    let mut seen = vec![0u32; corpus.fixed().len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_error = None;
    let (mut dist_ns, mut inproc_ns) = (0u64, 0u64);
    let (mut sim_total, mut cost_total) = (0.0, 0.0);
    let mut done = Vec::new();

    let mut stream = Stream::new(corpus, args.seed, 0, 1, 0);
    for r in 1..=n as u64 {
        let q = stream.next().query.expect("fixed corpus");
        attempted += 1;
        let root = tracer.begin(r, 0, "request");
        let span = tracer.begin(r, root, "executor.net.run_distributed");
        let out = gang.run(q);
        let (start, took_ns) = {
            let s = tracer.end(span);
            (s.start_ns, s.dur_ns())
        };
        tracer.end(root);
        let res = match out.and_then(|(res, _)| gang.check(q, &res, r).map(|_| res)) {
            Ok(res) => res,
            Err(e) => {
                failed += 1;
                first_error.get_or_insert(e);
                continue;
            }
        };
        samples.push("latency_ms", took_ns as f64 / 1e6);
        samples.push("dxl.plan_bytes", gang.shipped[q].dxl.len() as f64);
        dist.add(&res.stats, took_ns);
        dist.add_parallel(&res.parallel);
        seen[q] += 1;
        if seen[q] == 1 {
            sim_total += res.parallel.sim_seconds;
            cost_total += gang.shipped[q].cost;
        }
        dist_ns += took_ns;
        done.push((r, q, span, start));
    }

    // Replays after the last distributed run, so they do not sit between
    // two of them.
    for (r, q, span, start) in done {
        let s = &gang.shipped[q];
        let (doc, de_ns) = ns(|| parse_plan_doc(&s.dxl, gang.data.provider.as_ref()));
        doc.map_err(err("parse_plan_doc"))?;
        samples.push("dxl.plan_de_us", de_ns as f64 / 1e3);
        let (_, slice_ns) = ns(|| slice_plan(&s.plan));
        samples.push("executor.slice_plan_us", slice_ns as f64 / 1e3);
        let twin = execute(spec, &gang.data, &frags, &s.plan, &s.output_cols)?;
        samples.push("executor.run_ms", twin.run_ns as f64 / 1e6);
        inproc_ns += twin.run_ns;
        let replay = [("dxl.plan_de", de_ns), ("executor.run", twin.run_ns)];
        let (ids, _) = tracer.replay(r, span, start, &replay);
        let run_start = tracer.spans[ids[1] as usize - 1].start_ns;
        tracer.replay(r, ids[1], run_start, &op_children(&twin.stats));
    }
    if let Some(e) = &first_error {
        eprintln!("e2e_bench: {failed} of {attempted} traced requests failed; first: {e}");
    }

    let mut values = Values::default();
    let v = &mut values;
    let us = |name| samples.get(name);
    v.set_opt("dxl.plan_de_us_p50", median(us("dxl.plan_de_us")));
    v.set_opt("dxl.plan_bytes_avg", samples.mean("dxl.plan_bytes"));
    v.set("core.plan_cost_total", cost_total);
    v.set_opt("executor.run_ms_p50", median(us("executor.run_ms")));
    v.set_opt(
        "executor.run_ms_p95",
        percentile(us("executor.run_ms"), 95.0),
    );
    v.set_opt(
        "executor.slice_plan_us_p50",
        median(us("executor.slice_plan_us")),
    );
    v.set("executor.sim_s_total", sim_total);
    dist.emit(v, true);
    v.set("executor.net.frames_tx", dist.net_frames_tx as f64);
    v.set("executor.net.bytes_tx", dist.net_bytes_tx as f64);
    v.set("executor.net.remote_edges", dist.remote_edges as f64);
    v.set("executor.net.open_rtt_max_ms", dist.open_rtt_max_s * 1e3);
    v.set("executor.net.reconnects", dist.reconnects as f64);
    if inproc_ns > 0 {
        v.set(
            "executor.net.slowdown_vs_inproc",
            dist_ns as f64 / inproc_ns as f64,
        );
    }
    v.set("tpcds.datagen_s", gang.data.datagen_s);
    v.set("tpcds.rows_loaded", gang.data.rows_loaded() as f64);
    // Here the span known only by subtraction is the distributed run itself.
    v.set(
        "trace.unattributed_share",
        unattributed_share(&tracer, "executor.net.run_distributed"),
    );
    if let (Some(t), Some(u)) = (median(us("latency_ms")), median(&untraced)) {
        v.set("trace.overhead_share", t / u - 1.0);
    }
    write_trace(spec, &tracer)?;
    Ok(RunResult {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        values,
    })
}
