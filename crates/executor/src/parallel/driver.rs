//! The parallel driver: gang scheduling, cancellation, result assembly.
//!
//! Each slice×segment pair is one **task** with a three-phase lifecycle:
//! read every input motion's stream from its complete mailbox (and every
//! spooled CTE it consumes), run the columnar kernel ([`cexec`]) in
//! single-segment mode, then route the output into the receivers'
//! mailboxes (the root slice instead parks its stream for final
//! assembly). The row kernel never runs a slice: it runs whole plans
//! only, as the serial oracle gang results are compared against.
//!
//! A run is one dependency-ordered pass over the tasks. A task is ready
//! once every input mailbox holds all its senders' `Eos` and every
//! spooled CTE it reads is published; `workers` threads — the caller
//! plus `workers − 1` scoped helpers — pop ready tasks from one stack.
//! No task waits on another, so the run has one wait point: an idle
//! worker waiting for a ready task, for a remote edge to complete, or
//! for the abort. Sends never wait on receivers and every peer of a
//! distributed gang runs its tasks in dependency order, so distributed
//! runs cannot deadlock either.
//!
//! A failing task (or a failed remote edge) records its error and trips
//! the shared [`AbortSignal`]; the run's one abort waker wakes the idle
//! workers, kernels check the signal at operator boundaries, and the run
//! returns the root cause. Deadlines ride the same signal.

use crate::columnar::{cexec, ColStream};
use crate::engine::project_cols;
use crate::exec::{ExecCtx, ExecStats};
use crate::net::{
    ClusterTopology, EndpointKey, NetMotionCounters, NetNode, NetShared, RESULT_MOTION,
};
use crate::parallel::interconnect::{
    read_slot, receive_stream, send_stream, BatchPool, Mailbox, MotionCounters, Msg, MsgSender,
};
use crate::parallel::metrics::{MotionMetrics, ParallelStats, SliceMetrics};
use crate::parallel::slice::{slice_plan, Slice, SlicedPlan};
use crate::parallel::spool::{SharedSpool, SpoolPayload};
use crate::storage::{Database, Row};
use orca_common::hash::FnvHashMap;
use orca_common::{ColId, CteId, OrcaError, Result};
use orca_expr::physical::PhysicalPlan;
use orca_gpos::{wait_until, AbortSignal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs for one [`ParallelEngine`].
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Threads that run a gang's tasks (≥ 1): the caller plus
    /// `workers − 1` helpers.
    pub workers: usize,
    /// Rows per interconnect batch.
    pub batch_rows: usize,
    /// Overall execution deadline, enforced via the abort signal.
    pub deadline: Option<Duration>,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            batch_rows: 256,
            deadline: None,
        }
    }
}

/// Result of one parallel execution.
#[derive(Debug, Clone)]
pub struct ParallelResult {
    /// Final rows, projected to the requested output columns —
    /// byte-identical to [`crate::engine::ExecEngine::run`] on the same plan.
    pub rows: Vec<Row>,
    /// Kernel counters summed across all slice instances, plus the
    /// interconnect's measured wire bytes.
    pub stats: ExecStats,
    pub parallel: ParallelStats,
}

/// Executes sliced physical plans on a gang-per-slice worker pool.
pub struct ParallelEngine<'a> {
    pub db: &'a Database,
    pub cfg: ParallelConfig,
    /// Cross-query fragment cache attached to every slice kernel
    /// ([`crate::sharing`]).
    pub fragments: Option<Arc<crate::sharing::FragmentCache>>,
    /// Per-query memory grant shared by every slice kernel
    /// ([`crate::memory`]); `None` = ungoverned.
    pub mem: Option<Arc<crate::memory::MemoryTracker>>,
}

impl<'a> ParallelEngine<'a> {
    pub fn new(db: &'a Database) -> ParallelEngine<'a> {
        ParallelEngine {
            db,
            cfg: ParallelConfig::default(),
            fragments: None,
            mem: None,
        }
    }

    pub fn with_config(db: &'a Database, cfg: ParallelConfig) -> ParallelEngine<'a> {
        ParallelEngine {
            db,
            cfg,
            fragments: None,
            mem: None,
        }
    }

    /// Attach a shared fragment cache; slice kernels probe and insert
    /// filtered scan fragments through it.
    pub fn with_fragments(
        mut self,
        fragments: Arc<crate::sharing::FragmentCache>,
    ) -> ParallelEngine<'a> {
        self.fragments = Some(fragments);
        self
    }

    /// Attach a per-query memory grant; every slice kernel charges its
    /// operator state against the same tracker.
    pub fn with_memory(mut self, mem: Arc<crate::memory::MemoryTracker>) -> ParallelEngine<'a> {
        self.mem = Some(mem);
        self
    }

    /// Run a plan and project its output to `output_cols` (in order).
    pub fn run(&self, plan: &PhysicalPlan, output_cols: &[ColId]) -> Result<ParallelResult> {
        self.run_with_abort(plan, output_cols, &Arc::new(AbortSignal::new()))
    }

    /// Run under an external cancellation token (e.g. a session abort).
    /// A configured deadline is installed on — and cleared from — the
    /// provided signal.
    pub fn run_with_abort(
        &self,
        plan: &PhysicalPlan,
        output_cols: &[ColId],
        abort: &Arc<AbortSignal>,
    ) -> Result<ParallelResult> {
        let t0 = Instant::now();
        if let Some(d) = self.cfg.deadline {
            abort.set_deadline(Instant::now() + d);
        }
        let mut result = self.run_inner(plan, output_cols, abort, None);
        if self.cfg.deadline.is_some() {
            abort.clear_deadline();
        }
        if let Ok(r) = result.as_mut() {
            r.parallel.wall_seconds = t0.elapsed().as_secs_f64();
        }
        result
    }

    /// Run one instance of a distributed gang: every peer named by the
    /// topology calls this with the *same* plan, output columns, and
    /// `query_id`; segments owned by other peers are reached over the
    /// socket interconnect. The coordinator (peer 0) returns the
    /// assembled rows; workers return an empty row set but full local
    /// statistics. A degenerate (single-peer) topology takes the
    /// all-in-process fast path and opens no sockets.
    pub fn run_distributed(
        &self,
        plan: &PhysicalPlan,
        output_cols: &[ColId],
        node: &NetNode,
        topo: &ClusterTopology,
        query_id: u64,
    ) -> Result<ParallelResult> {
        self.run_distributed_with_abort(
            plan,
            output_cols,
            node,
            topo,
            query_id,
            &Arc::new(AbortSignal::new()),
        )
    }

    /// [`ParallelEngine::run_distributed`] under an external
    /// cancellation token.
    #[allow(clippy::too_many_arguments)]
    pub fn run_distributed_with_abort(
        &self,
        plan: &PhysicalPlan,
        output_cols: &[ColId],
        node: &NetNode,
        topo: &ClusterTopology,
        query_id: u64,
        abort: &Arc<AbortSignal>,
    ) -> Result<ParallelResult> {
        if topo.segment_peer.len() != self.db.cluster.num_segments {
            return Err(OrcaError::Execution(format!(
                "topology maps {} segments, cluster has {}",
                topo.segment_peer.len(),
                self.db.cluster.num_segments
            )));
        }
        if !topo.is_distributed() {
            return self.run_with_abort(plan, output_cols, abort);
        }
        let t0 = Instant::now();
        if let Some(d) = self.cfg.deadline {
            abort.set_deadline(Instant::now() + d);
        }
        let dist = DistRun {
            node,
            topo,
            query_id,
        };
        let mut result = self.run_inner(plan, output_cols, abort, Some(&dist));
        if self.cfg.deadline.is_some() {
            abort.clear_deadline();
        }
        // A local failure is broadcast to every pooled peer so remote
        // gangs drain promptly instead of waiting out their deadlines;
        // either way this query's registrations are dropped before
        // returning.
        if let Err(e) = &result {
            node.server.abort_query(query_id, e);
        }
        node.server.end_query(query_id);
        if let Ok(r) = result.as_mut() {
            r.parallel.wall_seconds = t0.elapsed().as_secs_f64();
        }
        result
    }

    fn run_inner(
        &self,
        plan: &PhysicalPlan,
        output_cols: &[ColId],
        abort: &Arc<AbortSignal>,
        dist: Option<&DistRun<'_>>,
    ) -> Result<ParallelResult> {
        abort.check()?;
        // Same preflight rule as `ExecEngine`: when the cluster cannot
        // spill, reject provably-oversized plans before starting a gang.
        if !self.db.cluster.can_spill {
            let budget = self
                .mem
                .as_ref()
                .map(|m| m.operator_budget(self.db.cluster.work_mem_bytes))
                .unwrap_or(self.db.cluster.work_mem_bytes);
            crate::memory::preflight(plan, self.db, budget)?;
        }
        let sliced = slice_plan(plan);
        let n = self.db.cluster.num_segments;
        let workers = self.cfg.workers.max(1);
        let me = dist.map_or(0, |d| d.node.me);
        let local = |seg: usize| dist.is_none_or(|d| d.topo.owner(seg) == me);

        // The tasks this peer hosts, and each slice×segment's task id.
        let mut tasks: Vec<Task<'_>> = Vec::new();
        let mut task_of: Vec<Vec<Option<usize>>> = vec![vec![None; n]; sliced.slices.len()];
        for slice in &sliced.slices {
            for seg in (0..n).filter(|&s| local(s)) {
                task_of[slice.id][seg] = Some(tasks.len());
                tasks.push(Task {
                    slice,
                    seg,
                    txs: None,
                    result_tx: None,
                });
            }
        }
        // The coordinator collects remote root-slice instances' streams
        // over the reserved result motion, one mailbox per remote segment.
        let remote_roots: Vec<usize> = match dist {
            Some(_) if me == 0 => (0..n).filter(|&s| !local(s)).collect(),
            _ => Vec::new(),
        };
        let gang = Arc::new(Gang::new(
            Arc::clone(abort),
            tasks
                .iter()
                .map(|t| t.slice.inputs.len() + t.slice.spool_inputs.len())
                .collect(),
            tasks.len() + remote_roots.len(),
        ));
        // The run's one abort waker.
        let woken = Arc::clone(&gang);
        let _woken = abort.on_abort(move || woken.wake_all());

        // Interconnect state: a mailbox per motion × local receiver
        // instance, plus one counter block per motion.
        let net_shared = Arc::new(NetShared::default());
        let net_counters: Vec<Arc<NetMotionCounters>> = sliced
            .motions
            .iter()
            .map(|_| Arc::new(NetMotionCounters::default()))
            .collect();
        let result_counters = Arc::new(NetMotionCounters::default());
        let inboxes: Vec<Vec<Option<Arc<Mailbox>>>> = sliced
            .motions
            .iter()
            .map(|edge| {
                task_of[edge.receiver]
                    .iter()
                    .map(|t| t.map(|t| Arc::new(Mailbox::new(n, gang.hook(Some(t))))))
                    .collect()
            })
            .collect();
        let mut result_inboxes: Vec<Option<Arc<Mailbox>>> = vec![None; n];
        for &s in &remote_roots {
            result_inboxes[s] = Some(Arc::new(Mailbox::new(1, gang.hook(None))));
        }
        if let Some(d) = dist {
            // Register every inbound remote edge; frames a faster peer
            // already sent are handed over from the server's parking.
            for (m, row) in inboxes.iter().enumerate() {
                for (r, inbox) in row.iter().enumerate() {
                    let Some(inbox) = inbox else { continue };
                    for s in (0..n).filter(|&s| !local(s)) {
                        d.node.server.expect(
                            d.key(m as u32, s, r),
                            Arc::clone(inbox),
                            s,
                            &d.topo.peers[d.topo.owner(s)],
                            Arc::clone(&net_counters[m]),
                            Arc::clone(&net_shared),
                        );
                    }
                }
            }
            for (s, inbox) in result_inboxes.iter().enumerate() {
                if let Some(inbox) = inbox {
                    d.node.server.expect(
                        d.key(RESULT_MOTION, s, 0),
                        Arc::clone(inbox),
                        0,
                        &d.topo.peers[d.topo.owner(s)],
                        Arc::clone(&result_counters),
                        Arc::clone(&net_shared),
                    );
                }
            }
        }
        // Each sender instance's edges: the local receivers' mailbox
        // slots, or the pooled connection to the peer hosting the receiver.
        for task in &mut tasks {
            let seg = task.seg;
            if let Some(m) = task.slice.output {
                let txs = (0..n)
                    .map(|r| match (&inboxes[m][r], dist) {
                        (Some(inbox), _) => Ok(MsgSender::Mailbox(Arc::clone(inbox), seg)),
                        (None, Some(d)) => d.connect(
                            d.topo.owner(r),
                            d.key(m as u32, seg, r),
                            abort,
                            &net_counters[m],
                            &net_shared,
                        ),
                        (None, None) => unreachable!("in-process receivers all have mailboxes"),
                    })
                    .collect::<Result<_>>()?;
                task.txs = Some(txs);
            } else if let (Some(d), None) = (dist, task.slice.spool_output) {
                if me != 0 {
                    // A root instance on a worker peer ships its stream
                    // home over the reserved result motion.
                    task.result_tx = Some(d.connect(
                        0,
                        d.key(RESULT_MOTION, seg, 0),
                        abort,
                        &result_counters,
                        &net_shared,
                    )?);
                }
            }
        }

        // Which tasks read each spooled `(cte, segment)`.
        let mut spool_readers: FnvHashMap<(CteId, usize), Vec<usize>> = FnvHashMap::default();
        for (t, task) in tasks.iter().enumerate() {
            for &id in &task.slice.spool_inputs {
                spool_readers.entry((id, task.seg)).or_default().push(t);
            }
        }
        let helpers = workers.min(tasks.len()).saturating_sub(1);
        let run = Run {
            db: self.db,
            sliced: &sliced,
            tasks,
            inboxes,
            spool_readers,
            gang: &gang,
            batch_rows: self.cfg.batch_rows,
            abort,
            pool: Arc::new(BatchPool::new()),
            // Spooled CTE bytes count in the process-wide counter (if the
            // grant carries one) for the duration of the run.
            spool: SharedSpool::new(self.mem.as_ref().and_then(|m| m.process().cloned())),
            frag: &self.fragments,
            mem: &self.mem,
            counters: sliced
                .motions
                .iter()
                .map(|_| MotionCounters::default())
                .collect(),
            merged_stats: Mutex::new(ExecStats::default()),
            root_out: Mutex::new(vec![None; n]),
            wall_ns: sliced.slices.iter().map(|_| AtomicU64::new(0)).collect(),
            compute_ns: sliced.slices.iter().map(|_| AtomicU64::new(0)).collect(),
        };
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(|| work(&run));
            }
            work(&run);
        });

        // Every worker returned; surface the root cause (a task or edge
        // error, or an external abort/deadline that fired after the last
        // task).
        if let Some(e) = gang
            .first_err
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(e);
        }
        abort.check()?;

        // Assembly (coordinator only): stitch locally parked streams and
        // remotely shipped result streams back into one n-slot stream.
        // Each instance's clock lands in its segment's `avail` slot, so
        // `sim_seconds` — the max over slots — reproduces the serial
        // engine's bit for bit.
        let mut sim_seconds = 0.0;
        let rows = if me == 0 {
            let streams = run.root_out.into_inner().expect("root_out lock poisoned");
            let mut combined = ColStream::empty(Vec::new(), n);
            for (s, stream) in streams.into_iter().enumerate() {
                let stream = match (stream, &result_inboxes[s]) {
                    (Some(cs), _) => cs,
                    (None, Some(inbox)) => read_result(inbox)?,
                    (None, None) => {
                        return Err(OrcaError::Execution("root slice produced no stream".into()))
                    }
                };
                combined.layout = stream.layout.clone();
                combined.replicated = stream.replicated;
                combined.avail[s] = stream.avail[0];
                combined.per_seg[s] = stream.per_seg.into_iter().next().unwrap_or_default();
            }
            sim_seconds = combined.elapsed();
            project_cols(combined, output_cols)?.collect()
        } else {
            Vec::new()
        };

        let counters = run.counters;
        let mut stats = run.merged_stats.into_inner().expect("stats lock poisoned");
        stats.bytes_moved += counters
            .iter()
            .map(|c| c.bytes.load(Ordering::Relaxed))
            .sum::<u64>();
        let parallel = ParallelStats {
            workers,
            num_slices: sliced.slices.len(),
            serial_fallback: false,
            wall_seconds: 0.0, // stamped by run_with_abort
            sim_seconds,
            net: net_shared.snapshot(),
            batches_reused: run.pool.reused(),
            cte_spools: sliced.spool_count(),
            spool_rows: run.spool.rows_published(),
            slices: sliced
                .slices
                .iter()
                .map(|s| SliceMetrics {
                    slice: s.id,
                    wall_seconds: run.wall_ns[s.id].load(Ordering::Relaxed) as f64 / 1e9,
                    compute_seconds: run.compute_ns[s.id].load(Ordering::Relaxed) as f64 / 1e9,
                })
                .collect(),
            motions: sliced
                .motions
                .iter()
                .map(|m| MotionMetrics {
                    motion: m.id,
                    kind: format!("{:?}", m.kind),
                    rows: counters[m.id].rows.load(Ordering::Relaxed),
                    bytes: counters[m.id].bytes.load(Ordering::Relaxed),
                    peak_queue_depth: counters[m.id].peak_queue.load(Ordering::Relaxed),
                    net_frames_tx: net_counters[m.id].frames_tx.load(Ordering::Relaxed),
                    net_bytes_tx: net_counters[m.id].bytes_tx.load(Ordering::Relaxed),
                    net_frames_rx: net_counters[m.id].frames_rx.load(Ordering::Relaxed),
                    net_bytes_rx: net_counters[m.id].bytes_rx.load(Ordering::Relaxed),
                })
                .collect(),
        };
        Ok(ParallelResult {
            rows,
            stats,
            parallel,
        })
    }
}

/// One slice×segment instance hosted by this peer.
struct Task<'a> {
    slice: &'a Slice,
    seg: usize,
    /// Edges into the slice's output motion, one per receiver instance.
    txs: Option<Vec<MsgSender>>,
    /// Root-slice instances on worker peers ship their parked stream to
    /// the coordinator through this instead of `root_out`.
    result_tx: Option<MsgSender>,
}

/// Everything the workers of one run share.
struct Run<'env> {
    db: &'env Database,
    sliced: &'env SlicedPlan,
    tasks: Vec<Task<'env>>,
    /// `inboxes[motion][receiver]`; `None` where another peer hosts the
    /// receiving instance.
    inboxes: Vec<Vec<Option<Arc<Mailbox>>>>,
    spool_readers: FnvHashMap<(CteId, usize), Vec<usize>>,
    gang: &'env Gang,
    batch_rows: usize,
    abort: &'env Arc<AbortSignal>,
    pool: Arc<BatchPool>,
    spool: SharedSpool,
    frag: &'env Option<Arc<crate::sharing::FragmentCache>>,
    mem: &'env Option<Arc<crate::memory::MemoryTracker>>,
    counters: Vec<MotionCounters>,
    merged_stats: Mutex<ExecStats>,
    root_out: Mutex<Vec<Option<ColStream>>>,
    /// Per-slice timing maxima over gang instances, in nanoseconds.
    wall_ns: Vec<AtomicU64>,
    compute_ns: Vec<AtomicU64>,
}

/// One worker: run ready tasks until the run completes or aborts.
fn work(run: &Run<'_>) {
    while let Some(t) = run.gang.next() {
        // A panicking task must not leave the other workers waiting for
        // it; `scope` re-raises the panic once they return.
        let _unwind = FailOnUnwind(run.gang);
        match run_task(run, t) {
            Ok(()) => run.gang.retire(),
            Err(e) => run.gang.fail(e),
        }
    }
}

struct FailOnUnwind<'a>(&'a Gang);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .fail(OrcaError::Internal("a gang task panicked".into()));
        }
    }
}

fn run_task(run: &Run<'_>, t: usize) -> Result<()> {
    let task = &run.tasks[t];
    let (slice, seg) = (task.slice, task.seg);
    let t_start = Instant::now();
    // Phase 1 — read every input motion and every spooled CTE; the task
    // is ready only once all of them are complete.
    let mut delivered: FnvHashMap<usize, ColStream> = FnvHashMap::default();
    for &m in &slice.inputs {
        let inbox = run.inboxes[m][seg]
            .as_ref()
            .expect("a hosted receiver has a mailbox");
        let kind = &run.sliced.motions[m].kind;
        delivered.insert(
            m,
            receive_stream(kind, inbox, seg, &run.db.cluster, &run.pool, run.batch_rows)?,
        );
    }
    let mut spooled: Vec<(CteId, Arc<SpoolPayload>)> = Vec::new();
    for &id in &slice.spool_inputs {
        let payload = run.spool.get(id, seg).ok_or_else(|| {
            OrcaError::Internal(format!("spooled {id} read before it was published"))
        })?;
        spooled.push((id, payload));
    }
    // Phase 2 — the kernel. Spooled CTEs are seeded into the kernel's
    // stash so its CteScan arm finds exactly the stream the serial engine
    // would have materialized.
    run.abort.check()?;
    let t_compute = Instant::now();
    let (out, stats) = {
        let mut ctx = ExecCtx::for_segment_columnar(run.db, seg, delivered, run.abort.clone());
        if let Some(m) = run.mem {
            ctx.mem = Arc::clone(m);
        }
        ctx.frag = run.frag.clone();
        // Scans draw their batch shells from the run-wide pool, so
        // shells recycled by the interconnect feed the kernel too.
        ctx.pool = Some(Arc::clone(&run.pool));
        for (id, p) in &spooled {
            ctx.cte_col.insert(*id, p.to_colstream());
        }
        // A spool slice's output is its materialized CTE, taken from the
        // kernel's stash (the slice's nominal output stream is discarded,
        // exactly as `Sequence` discards its producer child's output).
        let out = cexec(&slice.root, &mut ctx).and_then(|cs| match slice.spool_output {
            None => Ok(cs),
            Some(id) => ctx.cte_col.remove(&id).ok_or_else(|| {
                OrcaError::Execution(format!("spool slice did not materialize {id}"))
            }),
        });
        (out, ctx.stats)
    };
    let compute = t_compute.elapsed().as_nanos() as u64;
    merge_stats(
        &mut run.merged_stats.lock().expect("stats lock poisoned"),
        &stats,
    );
    // Phase 3 — publish (spool slices), ship (sender slices), or park
    // (the root slice).
    let cs = out?;
    match (slice.spool_output, &task.txs, slice.output) {
        (Some(id), ..) => {
            run.spool.publish(id, seg, SpoolPayload::from_colstream(cs));
            for &reader in run.spool_readers.get(&(id, seg)).into_iter().flatten() {
                run.gang.deliver(reader);
            }
        }
        (None, Some(txs), Some(m)) => {
            let kind = &run.sliced.motions[m].kind;
            send_stream(
                kind,
                cs,
                seg,
                txs,
                run.batch_rows,
                run.abort,
                &run.counters[m],
                &run.pool,
                run.sliced.motions[m].key_pos.as_deref(),
            )?;
        }
        _ => match &task.result_tx {
            Some(tx) => ship_result(tx, cs, run.abort)?,
            None => run.root_out.lock().expect("root_out lock poisoned")[seg] = Some(cs),
        },
    }
    run.compute_ns[slice.id].fetch_max(compute, Ordering::Relaxed);
    run.wall_ns[slice.id].fetch_max(t_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    Ok(())
}

/// The run's ready queue and its one wait point.
struct Gang {
    state: Mutex<GangState>,
    wake: Condvar,
    abort: Arc<AbortSignal>,
    first_err: Mutex<Option<OrcaError>>,
}

struct GangState {
    /// Per task: input mailboxes and spooled CTEs not yet complete.
    pending: Vec<usize>,
    /// Ready tasks, run last-in first-out: a receiver made ready by the
    /// task that just finished runs next, so its mailboxes are drained
    /// before more senders fill others.
    ready: Vec<usize>,
    /// Local tasks not yet finished plus remote result streams not yet
    /// complete; the run is over at zero.
    outstanding: usize,
}

impl Gang {
    fn new(abort: Arc<AbortSignal>, pending: Vec<usize>, outstanding: usize) -> Gang {
        let ready = (0..pending.len()).filter(|&t| pending[t] == 0).collect();
        Gang {
            state: Mutex::new(GangState {
                pending,
                ready,
                outstanding,
            }),
            wake: Condvar::new(),
            abort,
            first_err: Mutex::new(None),
        }
    }

    /// A mailbox's completion hook: a complete input of `task`, or with
    /// `None` a complete remote result stream; an edge failure fails the
    /// run.
    fn hook(self: &Arc<Gang>, task: Option<usize>) -> impl Fn(Result<()>) + Send + Sync {
        let gang = Arc::clone(self);
        move |done| match (done, task) {
            (Ok(()), Some(t)) => gang.deliver(t),
            (Ok(()), None) => gang.retire(),
            (Err(e), _) => gang.fail(e),
        }
    }

    fn state(&self) -> MutexGuard<'_, GangState> {
        // Nothing panics while holding this lock.
        self.state.lock().expect("gang state lock poisoned")
    }

    /// One input of `task` is complete; queue the task if it was the last.
    fn deliver(&self, task: usize) {
        let mut st = self.state();
        st.pending[task] -= 1;
        if st.pending[task] == 0 {
            st.ready.push(task);
            self.wake.notify_one();
        }
    }

    /// A local task finished, or a remote result stream completed.
    fn retire(&self) {
        let mut st = self.state();
        st.outstanding -= 1;
        if st.outstanding == 0 {
            self.wake.notify_all();
        }
    }

    /// Record `err` and trip the abort, which wakes every idle worker.
    fn fail(&self, err: OrcaError) {
        abort_once(&self.first_err, &self.abort, err);
    }

    /// The wait point: the next ready task, or `None` once the run is
    /// complete or aborted. A wait on a remote edge is bounded by the
    /// deadline, since nothing local may notice its expiry meanwhile.
    fn next(&self) -> Option<usize> {
        let mut st = self.state();
        loop {
            if self.abort.is_tripped() || st.outstanding == 0 {
                return None;
            }
            if let Some(t) = st.ready.pop() {
                return Some(t);
            }
            st = match wait_until(&self.wake, st, self.abort.deadline()) {
                Ok(st) => st,
                Err(st) => {
                    // Past the deadline: trip the signal, whose waker
                    // takes this lock.
                    drop(st);
                    self.abort.is_aborted();
                    self.state()
                }
            };
        }
    }

    /// The run's abort waker.
    fn wake_all(&self) {
        drop(self.state.lock());
        self.wake.notify_all();
    }
}

/// How a distributed run plugs into the cluster: this peer's server and
/// identity, the static topology, and the query id that names this
/// run's edges on the wire.
struct DistRun<'a> {
    node: &'a NetNode,
    topo: &'a ClusterTopology,
    query_id: u64,
}

impl DistRun<'_> {
    fn key(&self, motion: u32, sender: usize, receiver: usize) -> EndpointKey {
        EndpointKey {
            query: self.query_id,
            motion,
            sender: sender as u32,
            receiver: receiver as u32,
        }
    }

    /// The edge `key` to `peer`, over this node's pooled connection.
    fn connect(
        &self,
        peer: usize,
        key: EndpointKey,
        abort: &AbortSignal,
        counters: &Arc<NetMotionCounters>,
        shared: &Arc<NetShared>,
    ) -> Result<MsgSender> {
        let tx = self.node.server.sender(
            &self.topo.peers[peer],
            key,
            abort,
            Arc::clone(counters),
            Arc::clone(shared),
        )?;
        Ok(MsgSender::Net(tx))
    }
}

/// Ship a remote root-slice instance's parked stream to the coordinator
/// over the reserved result motion: a raw transfer — no motion-cost
/// replay — whose `Open` carries the stream clock for final assembly.
fn ship_result(tx: &MsgSender, cs: ColStream, abort: &AbortSignal) -> Result<()> {
    tx.send(
        Msg::Open {
            layout: cs.layout.clone(),
            avail: cs.avail[0],
            bytes: cs.bytes(),
            replicated: cs.replicated,
        },
        abort,
    )?;
    for b in cs.per_seg.into_iter().next().unwrap_or_default() {
        if !b.is_empty() {
            tx.send(Msg::Batch(b), abort)?;
        }
    }
    tx.send(Msg::Eos, abort)
}

/// Coordinator-side counterpart of [`ship_result`]: rebuild the remote
/// instance's single-slot stream, clock included, from its complete
/// mailbox.
fn read_result(inbox: &Mailbox) -> Result<ColStream> {
    let slot = inbox.take().pop().unwrap_or_default();
    let d = read_slot(slot)?;
    let mut cs = ColStream::empty(d.layout, 1);
    cs.avail[0] = d.avail;
    cs.replicated = d.replicated;
    cs.per_seg[0] = d.batches;
    Ok(cs)
}

fn merge_stats(into: &mut ExecStats, from: &ExecStats) {
    into.rows_processed += from.rows_processed;
    into.bytes_moved += from.bytes_moved;
    into.spills += from.spills;
    into.oom_risk_bytes = into.oom_risk_bytes.max(from.oom_risk_bytes);
    into.spill_partitions += from.spill_partitions;
    into.spill_bytes_written += from.spill_bytes_written;
    into.spill_bytes_read += from.spill_bytes_read;
    // A max, not a sum: the serial kernel's peak is the max over every
    // operator's state, so max-merging per-task peaks reproduces it.
    into.peak_mem_bytes = into.peak_mem_bytes.max(from.peak_mem_bytes);
    into.chunks_skipped += from.chunks_skipped;
    into.dict_hits += from.dict_hits;
    into.scan_bytes_cloned += from.scan_bytes_cloned;
    for (name, p) in &from.ops {
        let e = into.ops.entry(name).or_default();
        e.rows += p.rows;
        e.batches += p.batches;
        e.ns += p.ns;
    }
}

/// Record the first task error and trip the abort so every other task
/// drains. Later errors are almost always consequences of the first
/// (aborts, which is how a disconnect is reported too) and are dropped.
fn abort_once(first_err: &Mutex<Option<OrcaError>>, abort: &AbortSignal, err: OrcaError) {
    {
        // Called while unwinding too, so it must not panic; every write
        // leaves the slot valid.
        let mut slot = first_err.lock().unwrap_or_else(PoisonError::into_inner);
        // An abort-shaped error is a symptom, not a cause: never let it
        // shadow a real error, and prefer a real error over it even if
        // the symptom arrived first.
        let symptom = matches!(err, OrcaError::Aborted(_));
        match &*slot {
            None => *slot = Some(err.clone()),
            Some(OrcaError::Aborted(_)) if !symptom => *slot = Some(err.clone()),
            _ => {}
        }
    }
    abort.abort_with(err);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecEngine;
    use crate::net::NetConfig;
    use crate::storage::Row;
    use orca_catalog::{ColumnMeta, Distribution, TableDesc};
    use orca_common::{ColId, DataType, Datum, MdId, SysId};
    use orca_expr::logical::{AggStage, JoinKind, TableRef};
    use orca_expr::physical::{MotionKind, PhysicalOp};
    use orca_expr::props::OrderSpec;
    use orca_expr::scalar::{AggFunc, ScalarExpr};

    fn db() -> (Database, TableRef, TableRef, TableRef) {
        let mut db = Database::new(orca_common::SegmentConfig::default().with_segments(4));
        let t1 = std::sync::Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, 1, 1),
            "t1",
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Hashed(vec![0]),
        ));
        let t2 = std::sync::Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, 2, 1),
            "t2",
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Hashed(vec![0]),
        ));
        let tr = std::sync::Arc::new(TableDesc::new(
            MdId::new(SysId::Gpdb, 3, 1),
            "tr",
            vec![
                ColumnMeta::new("a", DataType::Int),
                ColumnMeta::new("b", DataType::Int),
            ],
            Distribution::Replicated,
        ));
        let rows1: Vec<Row> = (0..100)
            .map(|i| vec![Datum::Int(i % 20), Datum::Int(i)])
            .collect();
        let rows2: Vec<Row> = (0..40)
            .map(|i| vec![Datum::Int(i), Datum::Int(i % 20)])
            .collect();
        let rowsr: Vec<Row> = (0..10)
            .map(|i| vec![Datum::Int(i), Datum::Int(100 + i)])
            .collect();
        db.load_table(t1.clone(), rows1).unwrap();
        db.load_table(t2.clone(), rows2).unwrap();
        db.load_table(tr.clone(), rowsr).unwrap();
        (db, TableRef(t1), TableRef(t2), TableRef(tr))
    }

    fn scan(t: &TableRef, first: u32) -> PhysicalPlan {
        PhysicalPlan::leaf(PhysicalOp::TableScan {
            table: t.clone(),
            cols: vec![ColId(first), ColId(first + 1)],
            parts: None,
        })
    }

    fn motion(kind: MotionKind, child: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::new(PhysicalOp::Motion { kind }, vec![child])
    }

    /// Assert the parallel engine matches the serial row oracle byte for
    /// byte at several worker counts and return the last parallel result.
    /// The simulated cluster clock must match bit for bit too: the
    /// interconnect replays the serial motion-cost formulas from the wire
    /// headers.
    fn assert_identical(db: &Database, plan: &PhysicalPlan, out_cols: &[ColId]) -> ParallelResult {
        let serial = ExecEngine::new(db).run(plan, out_cols).unwrap();
        let mut last = None;
        for workers in [1, 2, 4] {
            let cfg = ParallelConfig {
                workers,
                batch_rows: 7, // deliberately odd, exercises batching
                deadline: None,
            };
            let par = ParallelEngine::with_config(db, cfg)
                .run(plan, out_cols)
                .unwrap();
            assert_eq!(par.rows, serial.rows, "workers={workers} diverged");
            assert_eq!(
                par.parallel.sim_seconds.to_bits(),
                serial.sim_seconds.to_bits(),
                "workers={workers} sim clock diverged: parallel {} vs serial {}",
                par.parallel.sim_seconds,
                serial.sim_seconds,
            );
            assert_eq!(par.parallel.net, crate::net::NetStats::default());
            last = Some(par);
        }
        last.unwrap()
    }

    /// Run the same plan as a real loopback-TCP cluster: each peer is a
    /// thread with its own server, sharing the database the
    /// way separate processes would share identically-loaded storage.
    /// Returns every peer's result, coordinator first.
    fn run_loopback(
        db: &Database,
        plan: &PhysicalPlan,
        out_cols: &[ColId],
        npeers: usize,
        cfg: &ParallelConfig,
        query_id: u64,
    ) -> Vec<Result<ParallelResult>> {
        let n = db.cluster.num_segments;
        let nodes: Vec<NetNode> = (0..npeers)
            .map(|me| NetNode::bind("127.0.0.1:0", me, NetConfig::default()).unwrap())
            .collect();
        let peers: Vec<String> = nodes.iter().map(|nd| nd.addr().to_string()).collect();
        let topo = ClusterTopology::round_robin(peers, n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = nodes
                .iter()
                .map(|node| {
                    let topo = &topo;
                    let cfg = cfg.clone();
                    scope.spawn(move || {
                        ParallelEngine::with_config(db, cfg)
                            .run_distributed(plan, out_cols, node, topo, query_id)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// The distributed gang over loopback TCP produces byte-identical
    /// rows and a bit-equal simulated clock vs the in-process
    /// interconnect and the serial oracle — across peer and worker counts —
    /// with zero connect retries on a healthy cluster.
    #[test]
    fn loopback_tcp_matches_in_process() {
        let (db, t1, t2, _) = db();
        let join = PhysicalPlan::new(
            PhysicalOp::HashJoin {
                kind: JoinKind::Inner,
                left_keys: vec![ColId(0)],
                right_keys: vec![ColId(3)],
                residual: None,
            },
            vec![
                scan(&t1, 0),
                motion(MotionKind::Redistribute(vec![ColId(3)]), scan(&t2, 2)),
            ],
        );
        let plan = motion(
            MotionKind::GatherMerge(OrderSpec::by(&[ColId(0)])),
            PhysicalPlan::new(
                PhysicalOp::Sort {
                    order: OrderSpec::by(&[ColId(0)]),
                },
                vec![join],
            ),
        );
        let out_cols = [ColId(0), ColId(2)];
        let serial = ExecEngine::new(&db).run(&plan, &out_cols).unwrap();
        let mut query_id = 100;
        for workers in [1, 2, 4] {
            for npeers in [2, 3] {
                let cfg = ParallelConfig {
                    workers,
                    batch_rows: 7,
                    ..ParallelConfig::default()
                };
                let inproc = ParallelEngine::with_config(&db, cfg.clone())
                    .run(&plan, &out_cols)
                    .unwrap();
                query_id += 1;
                let mut results = run_loopback(&db, &plan, &out_cols, npeers, &cfg, query_id);
                let tag = format!("workers={workers} peers={npeers}");
                for r in &results[1..] {
                    let r = r.as_ref().expect("worker peer failed");
                    assert!(r.rows.is_empty(), "{tag}: worker returned rows");
                }
                let coord = results.remove(0).expect("coordinator failed");
                assert_eq!(coord.rows, serial.rows, "{tag}: rows diverged");
                assert_eq!(coord.rows, inproc.rows, "{tag}: net vs in-process rows");
                assert_eq!(
                    coord.parallel.sim_seconds.to_bits(),
                    serial.sim_seconds.to_bits(),
                    "{tag}: sim clock diverged from the serial oracle"
                );
                assert_eq!(
                    coord.parallel.sim_seconds.to_bits(),
                    inproc.parallel.sim_seconds.to_bits(),
                    "{tag}: sim clock diverged over TCP"
                );
                assert!(!coord.parallel.serial_fallback, "{tag}: serial fallback");
                assert_eq!(coord.parallel.net.reconnects, 0, "{tag}: reconnects");
                assert!(
                    coord.parallel.net.remote_edges > 0,
                    "{tag}: no remote edges on a {npeers}-peer topology"
                );
                assert!(coord.parallel.net.frames_tx > 0, "{tag}: no frames sent");
                assert!(
                    coord.parallel.net.open_rtt_max_seconds > 0.0,
                    "{tag}: open RTT not measured"
                );
            }
        }
    }

    /// Broadcast + replicated inputs keep their accounting across the
    /// wire (the `distinct_bytes` replay divides the summed copies).
    #[test]
    fn loopback_tcp_broadcast_and_replicated_match() {
        let (db, t1, t2, tr) = db();
        let plans = [
            (
                motion(
                    MotionKind::Gather,
                    PhysicalPlan::new(
                        PhysicalOp::HashJoin {
                            kind: JoinKind::LeftOuter,
                            left_keys: vec![ColId(0)],
                            right_keys: vec![ColId(3)],
                            residual: None,
                        },
                        vec![scan(&t1, 0), motion(MotionKind::Broadcast, scan(&t2, 2))],
                    ),
                ),
                vec![ColId(0), ColId(1), ColId(2)],
            ),
            (
                motion(MotionKind::Gather, scan(&tr, 0)),
                vec![ColId(0), ColId(1)],
            ),
        ];
        for (i, (plan, out_cols)) in plans.iter().enumerate() {
            let serial = ExecEngine::new(&db).run(plan, out_cols).unwrap();
            let cfg = ParallelConfig {
                workers: 2,
                batch_rows: 7,
                ..ParallelConfig::default()
            };
            let inproc = ParallelEngine::with_config(&db, cfg.clone())
                .run(plan, out_cols)
                .unwrap();
            let mut results = run_loopback(&db, plan, out_cols, 2, &cfg, 200 + i as u64);
            let coord = results.remove(0).expect("coordinator failed");
            results
                .into_iter()
                .for_each(|r| drop(r.expect("worker failed")));
            assert_eq!(coord.rows, serial.rows, "plan {i}: rows diverged");
            assert_eq!(
                coord.parallel.sim_seconds.to_bits(),
                inproc.parallel.sim_seconds.to_bits(),
                "plan {i}: sim clock diverged over TCP"
            );
        }
    }

    /// A deadline expiring mid-distributed-run surfaces as a typed
    /// timeout on the coordinator and never hangs; the abort broadcast
    /// drains the worker peers promptly too.
    #[test]
    fn loopback_tcp_deadline_expiry_is_live() {
        let (db, t1, t2, _) = db();
        let plan = motion(
            MotionKind::Gather,
            PhysicalPlan::new(
                PhysicalOp::HashJoin {
                    kind: JoinKind::Inner,
                    left_keys: vec![ColId(0)],
                    right_keys: vec![ColId(3)],
                    residual: None,
                },
                vec![scan(&t1, 0), motion(MotionKind::Broadcast, scan(&t2, 2))],
            ),
        );
        let cfg = ParallelConfig {
            workers: 1,
            batch_rows: 1,
            // Already expired when the gang starts: the run must still
            // tear down promptly rather than hang on a socket.
            deadline: Some(Duration::ZERO),
        };
        let results = run_loopback(&db, &plan, &[ColId(0)], 2, &cfg, 300);
        // Every peer must come back (no hang); the coordinator reports
        // the deadline. Workers race the broadcast abort and may
        // land on either side of their own deadline.
        let coord_err = results
            .into_iter()
            .next()
            .unwrap()
            .expect_err("deadline did not fire");
        assert_eq!(coord_err.kind(), "timeout");
    }

    /// A peer that never joins the gang (its server is up, but it never
    /// registers endpoints or connects) surfaces as a typed Net error
    /// within the transport's handshake budget — never a hang.
    #[test]
    fn loopback_tcp_dead_peer_is_a_net_error() {
        let (db, t1, _, _) = db();
        let plan = motion(MotionKind::Gather, scan(&t1, 0));
        let n = db.cluster.num_segments;
        let net = NetConfig {
            connect_timeout: Duration::from_millis(300),
            handshake_timeout: Duration::from_millis(300),
        };
        let coord = NetNode::bind("127.0.0.1:0", 0, net.clone()).unwrap();
        // The "dead" peer: bound and accepting, but it never runs the
        // query, so the frames sent to it are never claimed.
        let ghost = NetNode::bind("127.0.0.1:0", 1, net.clone()).unwrap();
        let topo = ClusterTopology::round_robin(
            vec![coord.addr().to_string(), ghost.addr().to_string()],
            n,
        );
        let cfg = ParallelConfig {
            workers: 2,
            ..ParallelConfig::default()
        };
        let err = ParallelEngine::with_config(&db, cfg)
            .run_distributed(&plan, &[ColId(0), ColId(1)], &coord, &topo, 400)
            .unwrap_err();
        assert_eq!(err.kind(), "net", "expected typed Net error, got: {err}");
    }

    /// The paper's Figure 6 shape: join with a redistribute under one
    /// side, sorted, gather-merged to the master.
    #[test]
    fn figure6_plan_identical_to_serial() {
        let (db, t1, t2, _) = db();
        let join = PhysicalPlan::new(
            PhysicalOp::HashJoin {
                kind: JoinKind::Inner,
                left_keys: vec![ColId(0)],
                right_keys: vec![ColId(3)],
                residual: None,
            },
            vec![
                scan(&t1, 0),
                motion(MotionKind::Redistribute(vec![ColId(3)]), scan(&t2, 2)),
            ],
        );
        let plan = motion(
            MotionKind::GatherMerge(OrderSpec::by(&[ColId(0)])),
            PhysicalPlan::new(
                PhysicalOp::Sort {
                    order: OrderSpec::by(&[ColId(0)]),
                },
                vec![join],
            ),
        );
        let par = assert_identical(&db, &plan, &[ColId(0), ColId(2)]);
        assert_eq!(par.parallel.num_slices, 3);
        assert!(!par.parallel.serial_fallback);
        assert!(par.parallel.motion_rows() > 0);
        assert!(par.parallel.motion_bytes() > 0);
        assert_eq!(par.parallel.slices.len(), 3);
        assert!(par.parallel.slices.iter().all(|s| s.wall_seconds > 0.0));
        // The per-operator profile survives the cross-gang stats merge.
        assert!(par.stats.ops.contains_key("HashJoin"));
        assert!(par.stats.ops["HashJoin"].rows > 0);
    }

    #[test]
    fn broadcast_join_identical_to_serial() {
        let (db, t1, t2, _) = db();
        let plan = motion(
            MotionKind::Gather,
            PhysicalPlan::new(
                PhysicalOp::HashJoin {
                    kind: JoinKind::LeftOuter,
                    left_keys: vec![ColId(0)],
                    right_keys: vec![ColId(3)],
                    residual: None,
                },
                vec![scan(&t1, 0), motion(MotionKind::Broadcast, scan(&t2, 2))],
            ),
        );
        assert_identical(&db, &plan, &[ColId(0), ColId(1), ColId(2)]);
    }

    /// Replicated base table under a gather: exactly one copy survives.
    #[test]
    fn replicated_scan_identical_to_serial() {
        let (db, _, _, tr) = db();
        let plan = motion(MotionKind::Gather, scan(&tr, 0));
        let par = assert_identical(&db, &plan, &[ColId(0), ColId(1)]);
        assert_eq!(par.rows.len(), 10);
    }

    /// Two-stage aggregation across two redistributions.
    #[test]
    fn split_agg_identical_to_serial() {
        let (db, t1, _, _) = db();
        let agg = |stage: AggStage, in_col: ColId, out_col: ColId, child: PhysicalPlan| {
            PhysicalPlan::new(
                PhysicalOp::HashAgg {
                    group_cols: vec![ColId(0)],
                    aggs: vec![(
                        out_col,
                        ScalarExpr::Agg {
                            func: AggFunc::Sum,
                            arg: Some(Box::new(ScalarExpr::ColRef(in_col))),
                            distinct: false,
                        },
                    )],
                    stage,
                },
                vec![child],
            )
        };
        let local = agg(
            AggStage::Local,
            ColId(1),
            ColId(11),
            motion(MotionKind::Redistribute(vec![ColId(1)]), scan(&t1, 0)),
        );
        let global = agg(
            AggStage::Global,
            ColId(11),
            ColId(10),
            motion(MotionKind::Redistribute(vec![ColId(0)]), local),
        );
        let plan = motion(MotionKind::Gather, global);
        let par = assert_identical(&db, &plan, &[ColId(0), ColId(10)]);
        assert_eq!(par.parallel.num_slices, 4);
        // The mid-plan slice receives one redistribute and sends another
        // on the same thread, so its phase-3 builder takes are ordered
        // after its phase-1 shell returns: reuse is guaranteed.
        assert!(par.parallel.batches_reused > 0);
    }

    /// A plan with no motions still runs (single-slice gang).
    #[test]
    fn motionless_plan_identical_to_serial() {
        let (db, t1, _, _) = db();
        let plan = scan(&t1, 0);
        let par = assert_identical(&db, &plan, &[ColId(0), ColId(1)]);
        assert_eq!(par.parallel.num_slices, 1);
        assert!(par.parallel.motions.is_empty());
    }

    /// Cross-slice CTE runs through the shared spool — no serial
    /// fallback, byte-identical rows at every worker count.
    #[test]
    fn cross_slice_cte_runs_through_the_spool() {
        let (db, t1, _, _) = db();
        let cte = orca_common::CteId(1);
        let producer = PhysicalPlan::new(
            PhysicalOp::CteProducer {
                id: cte,
                cols: vec![ColId(0), ColId(1)],
            },
            vec![scan(&t1, 0)],
        );
        let consumer = PhysicalPlan::leaf(PhysicalOp::CteScan {
            id: cte,
            cols: vec![ColId(20), ColId(21)],
            producer_cols: vec![ColId(0), ColId(1)],
        });
        // Motion between producer and consumer → producer is hoisted
        // into a spool slice and materialized exactly once per segment.
        let plan = motion(
            MotionKind::Gather,
            PhysicalPlan::new(
                PhysicalOp::Sequence { id: cte },
                vec![
                    producer,
                    motion(MotionKind::Redistribute(vec![ColId(21)]), consumer),
                ],
            ),
        );
        let par = assert_identical(&db, &plan, &[ColId(20)]);
        assert!(!par.parallel.serial_fallback);
        assert_eq!(par.parallel.cte_spools, 1);
        // 100 rows in t1 → one spool copy per storage segment, total 100.
        assert_eq!(par.parallel.spool_rows, 100);
    }

    /// A mid-query abort drains the gang: the run errors out promptly,
    /// every thread joins (scope guarantees it), nothing deadlocks even
    /// with a tiny interconnect window.
    #[test]
    fn abort_mid_query_drains_without_deadlock() {
        let (db, t1, t2, _) = db();
        let plan = motion(
            MotionKind::Gather,
            PhysicalPlan::new(
                PhysicalOp::HashJoin {
                    kind: JoinKind::Inner,
                    left_keys: vec![ColId(0)],
                    right_keys: vec![ColId(3)],
                    residual: None,
                },
                vec![scan(&t1, 0), motion(MotionKind::Broadcast, scan(&t2, 2))],
            ),
        );
        let cfg = ParallelConfig {
            workers: 2,
            batch_rows: 1,
            deadline: None,
        };
        let engine = ParallelEngine::with_config(&db, cfg);
        let abort = Arc::new(AbortSignal::new());
        abort.abort(); // already cancelled before the gang starts
        let err = engine
            .run_with_abort(&plan, &[ColId(0)], &abort)
            .unwrap_err();
        assert_eq!(err.kind(), "aborted");
    }

    /// No wait re-checks on a clock, so a missed notify is a hang rather
    /// than a stall. 500 runs of the three-slice Figure 6 shape under the
    /// tightest window, half of them cancelled 0–2 ms in, must all finish
    /// — correct or "aborted" — within 60 s.
    #[test]
    fn no_lost_wakeup_under_a_one_batch_window() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (db, t1, t2, _) = db();
        let join = PhysicalPlan::new(
            PhysicalOp::HashJoin {
                kind: JoinKind::Inner,
                left_keys: vec![ColId(0)],
                right_keys: vec![ColId(3)],
                residual: None,
            },
            vec![
                scan(&t1, 0),
                motion(MotionKind::Redistribute(vec![ColId(3)]), scan(&t2, 2)),
            ],
        );
        let plan = motion(
            MotionKind::GatherMerge(OrderSpec::by(&[ColId(0)])),
            PhysicalPlan::new(
                PhysicalOp::Sort {
                    order: OrderSpec::by(&[ColId(0)]),
                },
                vec![join],
            ),
        );
        let out_cols = [ColId(0), ColId(2)];
        let expected = ExecEngine::new(&db).run(&plan, &out_cols).unwrap().rows;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(34);
            for i in 0..500 {
                let cfg = ParallelConfig {
                    workers: 1 + i % 4,
                    batch_rows: 1,
                    deadline: None,
                };
                let abort = Arc::new(AbortSignal::new());
                let cancel = ((i / 8) % 2 == 1).then(|| {
                    let abort = Arc::clone(&abort);
                    let delay = Duration::from_micros(rng.gen_range(0..2000));
                    std::thread::spawn(move || {
                        std::thread::sleep(delay);
                        abort.abort();
                    })
                });
                let engine = ParallelEngine::with_config(&db, cfg);
                match engine.run_with_abort(&plan, &out_cols, &abort) {
                    Ok(r) => assert_eq!(r.rows, expected, "run {i}"),
                    Err(e) => assert!(cancel.is_some() && e.kind() == "aborted", "run {i}: {e}"),
                }
                if let Some(c) = cancel {
                    c.join().unwrap();
                }
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a run hung: some wait missed its wake-up");
    }

    /// A failing task records its error before its channel ends drop, so
    /// the peers that see the disconnect report the root cause, never
    /// the disconnect. Looped because the race it closes was timing-bound.
    #[test]
    fn failing_task_reports_the_root_cause_not_a_disconnect() {
        let (db, t1, t2, _) = db();
        let bad_filter = PhysicalPlan::new(
            PhysicalOp::Filter {
                pred: ScalarExpr::Cmp {
                    op: orca_expr::scalar::CmpOp::Eq,
                    left: Box::new(ScalarExpr::ColRef(ColId(99))),
                    right: Box::new(ScalarExpr::Const(Datum::Int(1))),
                },
            },
            vec![scan(&t2, 2)],
        );
        let plan = motion(
            MotionKind::Gather,
            PhysicalPlan::new(
                PhysicalOp::HashJoin {
                    kind: JoinKind::Inner,
                    left_keys: vec![ColId(0)],
                    right_keys: vec![ColId(3)],
                    residual: None,
                },
                vec![scan(&t1, 0), motion(MotionKind::Broadcast, bad_filter)],
            ),
        );
        let mut other = Vec::new();
        for i in 0..400 {
            let cfg = ParallelConfig {
                workers: 1 + i % 4,
                batch_rows: 1,
                deadline: None,
            };
            let err = ParallelEngine::with_config(&db, cfg)
                .run(&plan, &[ColId(0)])
                .unwrap_err();
            if !err.to_string().contains("unbound column") {
                other.push(err);
            }
        }
        assert!(
            other.is_empty(),
            "{} of 400 runs: {:?}",
            other.len(),
            other[0]
        );
    }

    /// An expired deadline surfaces as a timeout error.
    #[test]
    fn deadline_expiry_is_a_timeout() {
        let (db, t1, t2, _) = db();
        let plan = motion(
            MotionKind::Gather,
            PhysicalPlan::new(
                PhysicalOp::HashJoin {
                    kind: JoinKind::Inner,
                    left_keys: vec![ColId(0)],
                    right_keys: vec![ColId(3)],
                    residual: None,
                },
                vec![scan(&t1, 0), motion(MotionKind::Broadcast, scan(&t2, 2))],
            ),
        );
        let cfg = ParallelConfig {
            workers: 1,
            batch_rows: 1,
            deadline: Some(Duration::from_nanos(1)),
        };
        let err = ParallelEngine::with_config(&db, cfg)
            .run(&plan, &[ColId(0)])
            .unwrap_err();
        assert_eq!(err.kind(), "timeout");
    }
}
