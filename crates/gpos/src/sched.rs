//! The job scheduler of §4.2.
//!
//! Optimization is broken into small work units ("jobs"). Jobs form a
//! dependency graph: a parent spawns children and **suspends** until they
//! finish, freeing its worker thread to pick up other runnable jobs — this
//! is what lets thousands of fine-grained `Exp`/`Imp`/`Opt`/`Xform` jobs
//! saturate multiple cores. The scheduler reproduces the paper's three key
//! mechanisms:
//!
//! 1. **Re-entrant jobs**: a job is a state machine whose [`Job::step`] is
//!    called repeatedly; between calls it may be parked.
//! 2. **Dependency tracking**: children notify suspended parents on
//!    completion ("a parent job cannot finish before its child jobs
//!    finish").
//! 3. **Goal deduplication** (the per-group job queues): jobs are
//!    optionally registered under a *goal* key; a second request for an
//!    in-flight or finished goal never recomputes — it either links as a
//!    waiter or returns immediately ("suspended jobs can pick up the
//!    results of the completed job").
//!
//! Implementation: lock-free work distribution (crossbeam work-stealing
//! deques, one per worker, plus a global injector), atomic job states and
//! dependency counters, and small per-job mutexes only for the waiter
//! lists. Queue items are `Arc<JobEntry>` handles, so there is no global
//! job directory at all; the only global lock is the (low-traffic) goal
//! map.
//!
//! The scheduler is generic over a shared context `C` (the optimizer passes
//! its memo + metadata accessor) and a goal key `K`.

use crate::task::AbortSignal;
use crossbeam::deque::{Injector, Stealer, Worker as Deque};
use orca_common::hash::FnvHashMap;
use orca_common::{OrcaError, Result};
use parking_lot::{Mutex, RwLock};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// Outcome of one [`Job::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The job has finished; waiters are notified.
    Done,
    /// The job advanced its state and wants to run again soon.
    Runnable,
    /// The job is waiting for children spawned during this step. If all of
    /// them already finished, it is immediately re-queued.
    Suspended,
}

/// A re-entrant unit of work.
pub trait Job<C: ?Sized, K>: Send {
    /// Execute one step. Use `h` to spawn children; return
    /// [`StepResult::Suspended`] to wait for them.
    fn step(&mut self, h: &JobHandle<'_, C, K>, ctx: &C) -> StepResult;

    /// Human-readable kind, for tracing and stats.
    fn name(&self) -> &'static str {
        "job"
    }
}

const ST_QUEUED: u8 = 0;
const ST_RUNNING: u8 = 1;
const ST_SUSPENDED: u8 = 2;
const ST_DONE: u8 = 3;

struct JobEntry<C: ?Sized, K> {
    /// Present unless running or done.
    body: Mutex<Option<Box<dyn Job<C, K>>>>,
    state: AtomicU8,
    /// Unfinished children this job waits on.
    deps: AtomicUsize,
    /// Parents to notify on completion.
    waiters: Mutex<Vec<Handle<C, K>>>,
    goal: Option<K>,
}

type Handle<C, K> = std::sync::Arc<JobEntry<C, K>>;

enum GoalState<C: ?Sized, K> {
    Active(Handle<C, K>),
    Done,
}

/// Multi-core job scheduler (see module docs).
pub struct Scheduler<C: ?Sized, K> {
    goals: Mutex<FnvHashMap<K, GoalState<C, K>>>,
    injector: Injector<Handle<C, K>>,
    stealers: RwLock<Vec<Stealer<Handle<C, K>>>>,
    unfinished: AtomicUsize,
    abort: AbortSignal,
    steps: AtomicUsize,
    spawned: AtomicUsize,
    goal_hits: AtomicUsize,
}

/// Handle passed to a running job, used to spawn children. Spawned jobs go
/// to the calling worker's local deque when possible.
pub struct JobHandle<'s, C: ?Sized, K> {
    sched: &'s Scheduler<C, K>,
    me: &'s Handle<C, K>,
    local: Option<&'s Deque<Handle<C, K>>>,
}

impl<C: ?Sized + Sync, K: Hash + Eq + Clone + Send + Sync> Scheduler<C, K> {
    pub fn new() -> Self {
        Scheduler {
            goals: Mutex::new(FnvHashMap::default()),
            injector: Injector::new(),
            stealers: RwLock::new(Vec::new()),
            unfinished: AtomicUsize::new(0),
            abort: AbortSignal::new(),
            steps: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
            goal_hits: AtomicUsize::new(0),
        }
    }

    /// The session's abort signal; jobs and external callers may trip it.
    pub fn abort_signal(&self) -> &AbortSignal {
        &self.abort
    }

    /// Total `step` invocations so far (diagnostics).
    pub fn steps_executed(&self) -> usize {
        self.steps.load(Ordering::Relaxed)
    }

    /// Total jobs created so far (diagnostics; the paper notes "hundreds or
    /// even thousands of job instances" per query).
    pub fn jobs_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// `spawn_goal` requests answered by an existing (active or finished)
    /// goal job instead of creating a new one — the effectiveness of the
    /// §4.2 goal deduplication.
    pub fn goal_hits(&self) -> usize {
        self.goal_hits.load(Ordering::Relaxed)
    }

    /// Create a job entry (not yet queued).
    fn create(&self, job: Box<dyn Job<C, K>>, goal: Option<K>) -> Handle<C, K> {
        self.unfinished.fetch_add(1, Ordering::SeqCst);
        self.spawned.fetch_add(1, Ordering::Relaxed);
        std::sync::Arc::new(JobEntry {
            body: Mutex::new(Some(job)),
            state: AtomicU8::new(ST_QUEUED),
            deps: AtomicUsize::new(0),
            waiters: Mutex::new(Vec::new()),
            goal,
        })
    }

    fn push_runnable(&self, entry: Handle<C, K>, local: Option<&Deque<Handle<C, K>>>) {
        match local {
            Some(d) => d.push(entry),
            None => self.injector.push(entry),
        }
    }

    /// Run `roots` plus everything they spawn to completion on `workers`
    /// threads (`workers == 1` executes inline on the calling thread).
    pub fn run(&self, ctx: &C, roots: Vec<Box<dyn Job<C, K>>>, workers: usize) -> Result<()> {
        for job in roots {
            let entry = self.create(job, None);
            self.injector.push(entry);
        }
        let workers = workers.max(1);
        let deques: Vec<Deque<Handle<C, K>>> = (0..workers).map(|_| Deque::new_fifo()).collect();
        {
            let mut st = self.stealers.write();
            st.clear();
            st.extend(deques.iter().map(|d| d.stealer()));
        }
        if workers == 1 {
            let d = deques.into_iter().next().expect("one deque");
            self.worker_loop(ctx, d);
        } else {
            std::thread::scope(|s| {
                for d in deques {
                    s.spawn(move || self.worker_loop(ctx, d));
                }
            });
        }
        if self.abort.is_aborted() {
            Err(self.abort.error())
        } else {
            Ok(())
        }
    }

    fn find_work(&self, local: &Deque<Handle<C, K>>) -> Option<Handle<C, K>> {
        if let Some(e) = local.pop() {
            return Some(e);
        }
        loop {
            match self.injector.steal_batch_and_pop(local) {
                crossbeam::deque::Steal::Success(e) => return Some(e),
                crossbeam::deque::Steal::Retry => continue,
                crossbeam::deque::Steal::Empty => break,
            }
        }
        let stealers = self.stealers.read();
        for st in stealers.iter() {
            loop {
                match st.steal() {
                    crossbeam::deque::Steal::Success(e) => return Some(e),
                    crossbeam::deque::Steal::Retry => continue,
                    crossbeam::deque::Steal::Empty => break,
                }
            }
        }
        None
    }

    fn worker_loop(&self, ctx: &C, local: Deque<Handle<C, K>>) {
        let local = &local;
        let mut backoff = 0u32;
        loop {
            if self.abort.is_aborted() {
                // Mark the session drained so siblings exit too.
                self.unfinished.store(0, Ordering::SeqCst);
                return;
            }
            if self.unfinished.load(Ordering::SeqCst) == 0 {
                return;
            }
            let Some(entry) = self.find_work(local) else {
                // Nothing runnable right now: suspended jobs may wake soon.
                backoff = (backoff + 1).min(10);
                if backoff > 6 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            };
            backoff = 0;
            let mut job = entry
                .body
                .lock()
                .take()
                .expect("runnable job owns its body");
            entry.state.store(ST_RUNNING, Ordering::SeqCst);

            self.steps.fetch_add(1, Ordering::Relaxed);
            let handle = JobHandle {
                sched: self,
                me: &entry,
                local: Some(local),
            };
            let res = catch_unwind(AssertUnwindSafe(|| job.step(&handle, ctx)));

            match res {
                Err(_) => {
                    self.abort.abort_with(OrcaError::Internal(format!(
                        "job '{}' panicked",
                        job.name()
                    )));
                }
                Ok(StepResult::Done) => {
                    self.complete(&entry, local);
                }
                Ok(StepResult::Runnable) => {
                    *entry.body.lock() = Some(job);
                    entry.state.store(ST_QUEUED, Ordering::SeqCst);
                    self.push_runnable(entry.clone(), Some(local));
                }
                Ok(StepResult::Suspended) => {
                    *entry.body.lock() = Some(job);
                    entry.state.store(ST_SUSPENDED, Ordering::SeqCst);
                    // Children may all have finished while we were
                    // stepping: claim the wake-up ourselves if so.
                    if entry.deps.load(Ordering::SeqCst) == 0
                        && entry
                            .state
                            .compare_exchange(
                                ST_SUSPENDED,
                                ST_QUEUED,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_ok()
                    {
                        self.push_runnable(entry.clone(), Some(local));
                    }
                }
            }
        }
    }

    fn complete(&self, entry: &Handle<C, K>, local: &Deque<Handle<C, K>>) {
        // Publish the goal before DONE: a linker that sees DONE resumes at
        // once and expects `goal_done` to hold.
        if let Some(goal) = &entry.goal {
            self.goals.lock().insert(goal.clone(), GoalState::Done);
        }
        entry.state.store(ST_DONE, Ordering::SeqCst);
        let waiters: Vec<Handle<C, K>> = std::mem::take(&mut *entry.waiters.lock());
        for we in waiters {
            let before = we.deps.fetch_sub(1, Ordering::SeqCst);
            debug_assert!(before > 0, "dependency underflow");
            if before == 1
                && we
                    .state
                    .compare_exchange(ST_SUSPENDED, ST_QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                self.push_runnable(we, Some(local));
            }
        }
        self.unfinished.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<C: ?Sized + Sync, K: Hash + Eq + Clone + Send + Sync> Default for Scheduler<C, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: ?Sized + Sync, K: Hash + Eq + Clone + Send + Sync> JobHandle<'_, C, K> {
    /// The abort signal, for jobs that hit errors mid-step.
    pub fn abort_signal(&self) -> &AbortSignal {
        self.sched.abort_signal()
    }

    /// Spawn an anonymous child job; the current job will not resume until
    /// it completes (once the current step returns `Suspended`).
    ///
    /// Ordering matters: the parent's dependency count is raised *before*
    /// the child becomes reachable, so a fast child can never decrement a
    /// counter that was not yet incremented.
    pub fn spawn(&self, job: Box<dyn Job<C, K>>) {
        let child = self.sched.create(job, None);
        self.me.deps.fetch_add(1, Ordering::SeqCst);
        child.waiters.lock().push(self.me.clone());
        self.sched.push_runnable(child, self.local);
    }

    /// Spawn — or link to — the job computing `goal`.
    ///
    /// Returns `true` if the current job now depends on an unfinished goal
    /// (it should eventually return `Suspended`), `false` if the goal had
    /// already completed (its results are available in shared state).
    pub fn spawn_goal<F>(&self, goal: K, make: F) -> bool
    where
        F: FnOnce() -> Box<dyn Job<C, K>>,
    {
        // Hold the goal lock across linking so a completing goal job
        // cannot slip between the lookup and the waiter registration (the
        // completion path takes the same lock to mark Done).
        let mut goals = self.sched.goals.lock();
        match goals.get(&goal) {
            Some(GoalState::Done) => {
                self.sched.goal_hits.fetch_add(1, Ordering::Relaxed);
                false
            }
            Some(GoalState::Active(entry)) => {
                self.sched.goal_hits.fetch_add(1, Ordering::Relaxed);
                let entry = entry.clone();
                drop(goals);
                // Raise the dependency first, then register under the
                // waiter lock, re-checking DONE: `complete` stores DONE
                // *before* draining waiters, so seeing !DONE under this
                // lock guarantees the drain has not happened yet and will
                // observe our registration.
                self.me.deps.fetch_add(1, Ordering::SeqCst);
                let mut w = entry.waiters.lock();
                if entry.state.load(Ordering::SeqCst) == ST_DONE {
                    drop(w);
                    self.me.deps.fetch_sub(1, Ordering::SeqCst);
                    return false;
                }
                w.push(self.me.clone());
                true
            }
            None => {
                let child = self.sched.create(make(), Some(goal.clone()));
                goals.insert(goal, GoalState::Active(child.clone()));
                drop(goals);
                self.me.deps.fetch_add(1, Ordering::SeqCst);
                child.waiters.lock().push(self.me.clone());
                self.sched.push_runnable(child, self.local);
                true
            }
        }
    }

    /// Whether a goal has already completed.
    pub fn goal_done(&self, goal: &K) -> bool {
        matches!(self.sched.goals.lock().get(goal), Some(GoalState::Done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Context: a counter jobs bump on completion.
    struct Ctx {
        done: AtomicUsize,
        goal_runs: AtomicUsize,
    }

    /// A job that spawns `fanout` children `depth` deep, then completes.
    struct TreeJob {
        depth: u32,
        fanout: usize,
        spawned: bool,
    }

    impl Job<Ctx, u64> for TreeJob {
        fn step(&mut self, h: &JobHandle<'_, Ctx, u64>, ctx: &Ctx) -> StepResult {
            if self.depth > 0 && !self.spawned {
                self.spawned = true;
                for _ in 0..self.fanout {
                    h.spawn(Box::new(TreeJob {
                        depth: self.depth - 1,
                        fanout: self.fanout,
                        spawned: false,
                    }));
                }
                return StepResult::Suspended;
            }
            ctx.done.fetch_add(1, Ordering::Relaxed);
            StepResult::Done
        }
    }

    fn tree_size(depth: u32, fanout: usize) -> usize {
        if depth == 0 {
            1
        } else {
            1 + fanout * tree_size(depth - 1, fanout)
        }
    }

    #[test]
    fn tree_of_jobs_completes_serial_and_parallel() {
        for workers in [1, 4] {
            let sched: Scheduler<Ctx, u64> = Scheduler::new();
            let ctx = Ctx {
                done: AtomicUsize::new(0),
                goal_runs: AtomicUsize::new(0),
            };
            sched
                .run(
                    &ctx,
                    vec![Box::new(TreeJob {
                        depth: 4,
                        fanout: 3,
                        spawned: false,
                    })],
                    workers,
                )
                .unwrap();
            assert_eq!(ctx.done.load(Ordering::Relaxed), tree_size(4, 3));
            assert_eq!(sched.jobs_spawned(), tree_size(4, 3));
        }
    }

    /// A goal job that records it ran; parents dedup on the same goal.
    struct GoalJob;
    impl Job<Ctx, u64> for GoalJob {
        fn step(&mut self, _h: &JobHandle<'_, Ctx, u64>, ctx: &Ctx) -> StepResult {
            ctx.goal_runs.fetch_add(1, Ordering::Relaxed);
            StepResult::Done
        }
    }

    struct ParentJob {
        goal: u64,
        spawned: bool,
    }
    impl Job<Ctx, u64> for ParentJob {
        fn step(&mut self, h: &JobHandle<'_, Ctx, u64>, ctx: &Ctx) -> StepResult {
            if !self.spawned {
                self.spawned = true;
                if h.spawn_goal(self.goal, || Box::new(GoalJob)) {
                    return StepResult::Suspended;
                }
            }
            assert!(h.goal_done(&self.goal));
            ctx.done.fetch_add(1, Ordering::Relaxed);
            StepResult::Done
        }
    }

    #[test]
    fn goal_dedup_runs_goal_once() {
        for workers in [1, 8] {
            let sched: Scheduler<Ctx, u64> = Scheduler::new();
            let ctx = Ctx {
                done: AtomicUsize::new(0),
                goal_runs: AtomicUsize::new(0),
            };
            let roots: Vec<Box<dyn Job<Ctx, u64>>> = (0..64)
                .map(|_| {
                    Box::new(ParentJob {
                        goal: 42,
                        spawned: false,
                    }) as Box<dyn Job<Ctx, u64>>
                })
                .collect();
            sched.run(&ctx, roots, workers).unwrap();
            assert_eq!(ctx.goal_runs.load(Ordering::Relaxed), 1, "goal ran once");
            assert_eq!(ctx.done.load(Ordering::Relaxed), 64);
        }
    }

    struct AbortingJob;
    impl Job<Ctx, u64> for AbortingJob {
        fn step(&mut self, h: &JobHandle<'_, Ctx, u64>, _ctx: &Ctx) -> StepResult {
            h.abort_signal()
                .abort_with(OrcaError::InjectedFault("boom".into()));
            StepResult::Done
        }
    }

    #[test]
    fn abort_propagates_error_and_stops() {
        let sched: Scheduler<Ctx, u64> = Scheduler::new();
        let ctx = Ctx {
            done: AtomicUsize::new(0),
            goal_runs: AtomicUsize::new(0),
        };
        let mut roots: Vec<Box<dyn Job<Ctx, u64>>> = vec![Box::new(AbortingJob)];
        for _ in 0..16 {
            roots.push(Box::new(TreeJob {
                depth: 2,
                fanout: 2,
                spawned: false,
            }));
        }
        let err = sched.run(&ctx, roots, 4).unwrap_err();
        assert_eq!(err, OrcaError::InjectedFault("boom".into()));
    }

    struct PanickingJob;
    impl Job<Ctx, u64> for PanickingJob {
        fn step(&mut self, _h: &JobHandle<'_, Ctx, u64>, _ctx: &Ctx) -> StepResult {
            panic!("unexpected");
        }
        fn name(&self) -> &'static str {
            "panicker"
        }
    }

    #[test]
    fn panic_becomes_internal_error() {
        let sched: Scheduler<Ctx, u64> = Scheduler::new();
        let ctx = Ctx {
            done: AtomicUsize::new(0),
            goal_runs: AtomicUsize::new(0),
        };
        let err = sched
            .run(&ctx, vec![Box::new(PanickingJob)], 2)
            .unwrap_err();
        assert_eq!(err.kind(), "internal");
        assert!(err.message().contains("panicker"));
    }

    #[test]
    fn deep_tree_many_workers() {
        let sched: Scheduler<Ctx, u64> = Scheduler::new();
        let ctx = Ctx {
            done: AtomicUsize::new(0),
            goal_runs: AtomicUsize::new(0),
        };
        sched
            .run(
                &ctx,
                vec![Box::new(TreeJob {
                    depth: 9,
                    fanout: 2,
                    spawned: false,
                })],
                8,
            )
            .unwrap();
        assert_eq!(ctx.done.load(Ordering::Relaxed), tree_size(9, 2));
        assert!(sched.steps_executed() >= tree_size(9, 2));
    }

    /// Many parents race to register against the same goal while it is
    /// completing — no lost wakeups, no double execution.
    #[test]
    fn goal_linking_race_stress() {
        for _ in 0..20 {
            let sched: Scheduler<Ctx, u64> = Scheduler::new();
            let ctx = Ctx {
                done: AtomicUsize::new(0),
                goal_runs: AtomicUsize::new(0),
            };
            let roots: Vec<Box<dyn Job<Ctx, u64>>> = (0..128)
                .map(|i| {
                    Box::new(ParentJob {
                        goal: (i % 4) as u64,
                        spawned: false,
                    }) as Box<dyn Job<Ctx, u64>>
                })
                .collect();
            sched.run(&ctx, roots, 8).unwrap();
            assert_eq!(ctx.goal_runs.load(Ordering::Relaxed), 4);
            assert_eq!(ctx.done.load(Ordering::Relaxed), 128);
        }
    }
}
