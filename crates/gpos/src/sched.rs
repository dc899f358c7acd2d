//! The job scheduler of §4.2.
//!
//! Optimization is broken into small work units ("jobs"). Jobs form a
//! dependency graph: a parent spawns children and **suspends** until they
//! finish, so thousands of fine-grained `Exp`/`Imp`/`Opt`/`Xform` jobs
//! interleave without recursion. The scheduler reproduces the paper's
//! three key mechanisms:
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
//! Threads: [`Scheduler::run`] steps every job on the thread that calls
//! it, popping one FIFO of runnable jobs in the order they became
//! runnable, so a search is deterministic. Concurrent searches each run on
//! their own caller's thread and share no pool. The paper's multi-core
//! stepping of one search is not done: on a 2-CPU host a second thread
//! made every measured search (2- to 7-way joins) 1.3–1.4× slower than
//! one, as contention on the shared memo outweighs the second core.
//!
//! Job states and dependency counters are atomic and the queue, waiter
//! lists and goal map sit behind small mutexes, as in the concurrent memo
//! the jobs drive. Queue items are `Arc<JobEntry>` handles, so there is no
//! global job directory.
//!
//! The scheduler is generic over a shared context `C` (the optimizer passes
//! its memo + metadata accessor) and a goal key `K`.

use crate::task::AbortSignal;
use orca_common::hash::FnvHashMap;
use orca_common::{OrcaError, Result};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

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

type Handle<C, K> = Arc<JobEntry<C, K>>;

enum GoalState<C: ?Sized, K> {
    Active(Handle<C, K>),
    Done,
}

/// Dependency-aware job scheduler (see module docs).
pub struct Scheduler<C: ?Sized, K> {
    goals: Mutex<FnvHashMap<K, GoalState<C, K>>>,
    /// Runnable jobs, in the order they became runnable.
    queue: Mutex<VecDeque<Handle<C, K>>>,
    unfinished: AtomicUsize,
    abort: AbortSignal,
    steps: AtomicUsize,
    spawned: AtomicUsize,
    goal_hits: AtomicUsize,
}

/// Handle passed to a running job, used to spawn children.
pub struct JobHandle<'s, C: ?Sized, K> {
    sched: &'s Scheduler<C, K>,
    me: &'s Handle<C, K>,
}

impl<C: ?Sized + Sync, K: Hash + Eq + Clone + Send + Sync> Scheduler<C, K> {
    pub fn new() -> Self {
        Scheduler {
            goals: Mutex::new(FnvHashMap::default()),
            queue: Mutex::new(VecDeque::new()),
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
        Arc::new(JobEntry {
            body: Mutex::new(Some(job)),
            state: AtomicU8::new(ST_QUEUED),
            deps: AtomicUsize::new(0),
            waiters: Mutex::new(Vec::new()),
            goal,
        })
    }

    fn push_runnable(&self, entry: Handle<C, K>) {
        self.queue.lock().push_back(entry);
    }

    /// Run `roots` plus everything they spawn to completion on the calling
    /// thread, stopping early if the abort signal trips (its deadline
    /// included).
    pub fn run(&self, ctx: &C, roots: Vec<Box<dyn Job<C, K>>>) -> Result<()> {
        for job in roots {
            let entry = self.create(job, None);
            self.push_runnable(entry);
        }
        while !self.abort.is_aborted() {
            let Some(entry) = self.queue.lock().pop_front() else {
                break;
            };
            self.step(ctx, entry);
        }
        if self.abort.is_aborted() {
            return Err(self.abort.error());
        }
        // Only a finishing job makes a suspended one runnable again, so
        // jobs left over now wait on each other (a goal cycle).
        match self.unfinished.load(Ordering::SeqCst) {
            0 => Ok(()),
            n => Err(OrcaError::Internal(format!(
                "{n} jobs suspended with none runnable"
            ))),
        }
    }

    fn step(&self, ctx: &C, entry: Handle<C, K>) {
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
                self.complete(&entry);
            }
            Ok(StepResult::Runnable) => {
                *entry.body.lock() = Some(job);
                entry.state.store(ST_QUEUED, Ordering::SeqCst);
                self.push_runnable(entry);
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
                    self.push_runnable(entry);
                }
            }
        }
    }

    fn complete(&self, entry: &Handle<C, K>) {
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
                self.push_runnable(we);
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
        self.sched.push_runnable(child);
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
                self.sched.push_runnable(child);
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
    use std::time::{Duration, Instant};

    /// Context: a counter jobs bump on completion.
    struct Ctx {
        done: AtomicUsize,
        goal_runs: AtomicUsize,
    }

    fn fresh_ctx() -> Ctx {
        Ctx {
            done: AtomicUsize::new(0),
            goal_runs: AtomicUsize::new(0),
        }
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

    fn tree(depth: u32, fanout: usize) -> Box<dyn Job<Ctx, u64>> {
        Box::new(TreeJob {
            depth,
            fanout,
            spawned: false,
        })
    }

    #[test]
    fn tree_of_jobs_completes_serial_and_parallel() {
        let sched: Scheduler<Ctx, u64> = Scheduler::new();
        let ctx = fresh_ctx();
        sched.run(&ctx, vec![tree(4, 3)]).unwrap();
        assert_eq!(ctx.done.load(Ordering::Relaxed), tree_size(4, 3));
        assert_eq!(sched.jobs_spawned(), tree_size(4, 3));
        // Searches on concurrent callers share nothing.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let sched: Scheduler<Ctx, u64> = Scheduler::new();
                    let ctx = fresh_ctx();
                    sched.run(&ctx, vec![tree(4, 3)]).unwrap();
                    assert_eq!(ctx.done.load(Ordering::Relaxed), tree_size(4, 3));
                });
            }
        });
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

    fn parents(n: usize, goals: u64) -> Vec<Box<dyn Job<Ctx, u64>>> {
        (0..n)
            .map(|i| {
                Box::new(ParentJob {
                    goal: i as u64 % goals,
                    spawned: false,
                }) as Box<dyn Job<Ctx, u64>>
            })
            .collect()
    }

    #[test]
    fn goal_dedup_runs_goal_once() {
        let sched: Scheduler<Ctx, u64> = Scheduler::new();
        let ctx = fresh_ctx();
        sched.run(&ctx, parents(64, 1)).unwrap();
        assert_eq!(ctx.goal_runs.load(Ordering::Relaxed), 1, "goal ran once");
        assert_eq!(ctx.done.load(Ordering::Relaxed), 64);
        assert_eq!(sched.goal_hits(), 63);
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
        let ctx = fresh_ctx();
        let err = sched
            .run(&ctx, vec![Box::new(AbortingJob), tree(4, 3)])
            .unwrap_err();
        assert_eq!(err, OrcaError::InjectedFault("boom".into()));
        assert_eq!(sched.steps_executed(), 1, "no job ran after the abort");
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
        let ctx = fresh_ctx();
        let err = sched
            .run(&ctx, vec![Box::new(PanickingJob), tree(4, 3)])
            .unwrap_err();
        assert_eq!(err.kind(), "internal");
        assert!(err.message().contains("panicker"));
        assert_eq!(sched.steps_executed(), 1, "no job ran after the panic");
    }

    #[test]
    fn deep_tree_many_workers() {
        let sched: Scheduler<Ctx, u64> = Scheduler::new();
        let ctx = fresh_ctx();
        sched.run(&ctx, vec![tree(9, 2)]).unwrap();
        assert_eq!(ctx.done.load(Ordering::Relaxed), tree_size(9, 2));
        assert!(sched.steps_executed() >= tree_size(9, 2));
    }

    /// Many parents link against few goals, most while the goal is still
    /// queued — each goal runs once and wakes every waiter.
    #[test]
    fn goal_linking_race_stress() {
        for _ in 0..20 {
            let sched: Scheduler<Ctx, u64> = Scheduler::new();
            let ctx = fresh_ctx();
            sched.run(&ctx, parents(128, 4)).unwrap();
            assert_eq!(ctx.goal_runs.load(Ordering::Relaxed), 4);
            assert_eq!(ctx.done.load(Ordering::Relaxed), 128);
        }
    }

    /// A job that never finishes on its own.
    struct Endless;
    impl Job<Ctx, u64> for Endless {
        fn step(&mut self, _h: &JobHandle<'_, Ctx, u64>, _ctx: &Ctx) -> StepResult {
            StepResult::Runnable
        }
    }

    #[test]
    fn deadline_stops_the_run() {
        let sched: Scheduler<Ctx, u64> = Scheduler::new();
        sched
            .abort_signal()
            .set_deadline(Instant::now() + Duration::from_millis(20));
        let err = sched
            .run(&fresh_ctx(), vec![Box::new(Endless)])
            .unwrap_err();
        assert_eq!(err.kind(), "timeout");
    }

    /// Spawns goal 7 as another `SelfWaiting`, which then links to itself.
    struct SelfWaiting;
    impl Job<Ctx, u64> for SelfWaiting {
        fn step(&mut self, h: &JobHandle<'_, Ctx, u64>, _ctx: &Ctx) -> StepResult {
            if h.spawn_goal(7, || Box::new(SelfWaiting)) {
                StepResult::Suspended
            } else {
                StepResult::Done
            }
        }
    }

    #[test]
    fn goal_cycle_is_an_error_not_a_hang() {
        let sched: Scheduler<Ctx, u64> = Scheduler::new();
        let err = sched
            .run(&fresh_ctx(), vec![Box::new(SelfWaiting)])
            .unwrap_err();
        assert_eq!(err.kind(), "internal");
        assert!(err.message().contains("suspended"), "{err}");
    }
}
