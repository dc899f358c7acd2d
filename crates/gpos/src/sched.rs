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
//!    finish"). A job that returns [`StepResult::Done`] with children
//!    still unfinished is a bug in that job and fails the run.
//! 3. **Goal deduplication** (the per-group job queues): jobs are
//!    optionally registered under a *goal* key; a second request for an
//!    in-flight or finished goal never recomputes — it either links as a
//!    waiter or returns immediately ("suspended jobs can pick up the
//!    results of the completed job").
//!
//! One owner: [`Scheduler::run`] steps every job on the thread that calls
//! it, popping one FIFO of runnable jobs in the order they became
//! runnable, so a search is deterministic. Concurrent searches each run on
//! their own caller's thread and share nothing. The paper's multi-core
//! stepping of one search is not done: on a 2-CPU host a second thread
//! made every measured search (2- to 7-way joins) 1.3–1.4× slower than
//! one, as contention on the shared memo outweighs the second core.
//!
//! Jobs live in an arena owned by the scheduler and are named by their
//! index. Dependency counts, waiter lists, the queue and the goal map are
//! plain fields behind one `RefCell` that is never borrowed while a job
//! steps. The scheduler is `!Sync`, so the compiler, not a lock, keeps a
//! run on one thread; only its [`AbortSignal`] is shared, so another
//! thread (or a deadline) can cancel the run.
//!
//! The scheduler is generic over a context `C` (the optimizer passes its
//! memo + metadata accessor) and a goal key `K`.

use crate::task::AbortSignal;
use orca_common::hash::FnvHashMap;
use orca_common::{OrcaError, Result};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of one [`Job::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The job has finished; waiters are notified. Returning this while
    /// children spawned by the job are unfinished fails the run.
    Done,
    /// The job advanced its state and wants to run again soon.
    Runnable,
    /// The job is waiting for children spawned during this step. If all of
    /// them already finished, it is immediately re-queued.
    Suspended,
}

/// A re-entrant unit of work.
pub trait Job<C: ?Sized, K> {
    /// Execute one step. Use `h` to spawn children; return
    /// [`StepResult::Suspended`] to wait for them.
    fn step(&mut self, h: &JobHandle<'_, C, K>, ctx: &C) -> StepResult;

    /// Human-readable kind, for tracing and stats.
    fn name(&self) -> &'static str {
        "job"
    }
}

/// Index of a job in the scheduler's arena.
type JobId = usize;

struct JobEntry<C: ?Sized, K> {
    /// Present unless running or done.
    body: Option<Box<dyn Job<C, K>>>,
    /// Returned `Suspended` and waits for `deps` to reach zero.
    suspended: bool,
    /// Unfinished children this job waits on.
    deps: usize,
    /// Parents to notify on completion.
    waiters: Vec<JobId>,
    goal: Option<K>,
}

#[derive(Clone, Copy)]
enum GoalState {
    Active(JobId),
    Done,
}

struct State<C: ?Sized, K> {
    jobs: Vec<JobEntry<C, K>>,
    goals: FnvHashMap<K, GoalState>,
    /// Runnable jobs, in the order they became runnable.
    queue: VecDeque<JobId>,
    unfinished: usize,
    steps: usize,
    goal_hits: usize,
}

/// Dependency-aware job scheduler (see module docs).
pub struct Scheduler<C: ?Sized, K> {
    state: RefCell<State<C, K>>,
    abort: AbortSignal,
}

/// Handle passed to a running job, used to spawn children.
pub struct JobHandle<'s, C: ?Sized, K> {
    sched: &'s Scheduler<C, K>,
    me: JobId,
}

impl<C: ?Sized, K: Hash + Eq> State<C, K> {
    /// Create a job, make `parent` (if any) wait on it, and queue it.
    fn push(&mut self, job: Box<dyn Job<C, K>>, goal: Option<K>, parent: Option<JobId>) -> JobId {
        let id = self.jobs.len();
        self.jobs.push(JobEntry {
            body: Some(job),
            suspended: false,
            deps: 0,
            waiters: parent.into_iter().collect(),
            goal,
        });
        if let Some(p) = parent {
            self.jobs[p].deps += 1;
        }
        self.unfinished += 1;
        self.queue.push_back(id);
        id
    }

    /// Mark the finished job's goal done and re-queue every waiter whose
    /// last dependency this was.
    fn complete(&mut self, id: JobId) {
        if let Some(goal) = self.jobs[id].goal.take() {
            self.goals.insert(goal, GoalState::Done);
        }
        for w in std::mem::take(&mut self.jobs[id].waiters) {
            let we = &mut self.jobs[w];
            we.deps -= 1;
            if we.deps == 0 && we.suspended {
                we.suspended = false;
                self.queue.push_back(w);
            }
        }
        self.unfinished -= 1;
    }
}

impl<C: ?Sized, K: Hash + Eq + Clone> Scheduler<C, K> {
    pub fn new() -> Self {
        Scheduler {
            state: RefCell::new(State {
                jobs: Vec::new(),
                goals: FnvHashMap::default(),
                queue: VecDeque::new(),
                unfinished: 0,
                steps: 0,
                goal_hits: 0,
            }),
            abort: AbortSignal::new(),
        }
    }

    /// The session's abort signal; jobs and external callers may trip it.
    pub fn abort_signal(&self) -> &AbortSignal {
        &self.abort
    }

    /// Total `step` invocations so far (diagnostics).
    pub fn steps_executed(&self) -> usize {
        self.state.borrow().steps
    }

    /// Total jobs created so far (diagnostics; the paper notes "hundreds or
    /// even thousands of job instances" per query).
    pub fn jobs_spawned(&self) -> usize {
        self.state.borrow().jobs.len()
    }

    /// `spawn_goal` requests answered by an existing (active or finished)
    /// goal job instead of creating a new one — the effectiveness of the
    /// §4.2 goal deduplication.
    pub fn goal_hits(&self) -> usize {
        self.state.borrow().goal_hits
    }

    /// Run `roots` plus everything they spawn to completion on the calling
    /// thread, stopping early if the abort signal trips (its deadline
    /// included).
    pub fn run(&self, ctx: &C, roots: Vec<Box<dyn Job<C, K>>>) -> Result<()> {
        for job in roots {
            self.state.borrow_mut().push(job, None, None);
        }
        while !self.abort.is_aborted() {
            let Some(id) = self.state.borrow_mut().queue.pop_front() else {
                break;
            };
            self.step(ctx, id);
        }
        if self.abort.is_aborted() {
            return Err(self.abort.error());
        }
        // Only a finishing job makes a suspended one runnable again, so
        // jobs left over now wait on each other (a goal cycle).
        match self.state.borrow().unfinished {
            0 => Ok(()),
            n => Err(OrcaError::Internal(format!(
                "{n} jobs suspended with none runnable"
            ))),
        }
    }

    fn step(&self, ctx: &C, id: JobId) {
        let mut job = {
            let mut st = self.state.borrow_mut();
            st.steps += 1;
            st.jobs[id].body.take().expect("runnable job owns its body")
        };
        let handle = JobHandle {
            sched: self,
            me: id,
        };
        let res = catch_unwind(AssertUnwindSafe(|| job.step(&handle, ctx)));

        let mut st = self.state.borrow_mut();
        match res {
            Err(_) => {
                self.abort.abort_with(OrcaError::Internal(format!(
                    "job '{}' panicked",
                    job.name()
                )));
            }
            Ok(StepResult::Done) if st.jobs[id].deps > 0 => {
                self.abort.abort_with(OrcaError::Internal(format!(
                    "job '{}' returned Done with {} children unfinished",
                    job.name(),
                    st.jobs[id].deps
                )));
            }
            Ok(StepResult::Done) => st.complete(id),
            Ok(StepResult::Runnable) => {
                st.jobs[id].body = Some(job);
                st.queue.push_back(id);
            }
            Ok(StepResult::Suspended) => {
                let entry = &mut st.jobs[id];
                entry.body = Some(job);
                if entry.deps == 0 {
                    st.queue.push_back(id);
                } else {
                    entry.suspended = true;
                }
            }
        }
    }
}

impl<C: ?Sized, K: Hash + Eq + Clone> Default for Scheduler<C, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: ?Sized, K: Hash + Eq + Clone> JobHandle<'_, C, K> {
    /// The abort signal, for jobs that hit errors mid-step.
    pub fn abort_signal(&self) -> &AbortSignal {
        self.sched.abort_signal()
    }

    /// Spawn an anonymous child job; the current job will not resume until
    /// it completes (once the current step returns `Suspended`).
    pub fn spawn(&self, job: Box<dyn Job<C, K>>) {
        self.sched.state.borrow_mut().push(job, None, Some(self.me));
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
        let mut st = self.sched.state.borrow_mut();
        match st.goals.get(&goal).copied() {
            Some(GoalState::Done) => {
                st.goal_hits += 1;
                false
            }
            Some(GoalState::Active(id)) => {
                st.goal_hits += 1;
                st.jobs[self.me].deps += 1;
                st.jobs[id].waiters.push(self.me);
                true
            }
            None => {
                let id = st.push(make(), Some(goal.clone()), Some(self.me));
                st.goals.insert(goal, GoalState::Active(id));
                true
            }
        }
    }

    /// Whether a goal has already completed.
    pub fn goal_done(&self, goal: &K) -> bool {
        matches!(
            self.sched.state.borrow().goals.get(goal),
            Some(GoalState::Done)
        )
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

    /// Spawns a child, then reports itself finished without waiting.
    struct Impatient;
    impl Job<Ctx, u64> for Impatient {
        fn step(&mut self, h: &JobHandle<'_, Ctx, u64>, _ctx: &Ctx) -> StepResult {
            h.spawn(tree(0, 1));
            StepResult::Done
        }
        fn name(&self) -> &'static str {
            "impatient"
        }
    }

    #[test]
    fn done_with_children_outstanding_is_an_error() {
        let sched: Scheduler<Ctx, u64> = Scheduler::new();
        let ctx = fresh_ctx();
        let err = sched.run(&ctx, vec![Box::new(Impatient)]).unwrap_err();
        assert_eq!(err.kind(), "internal");
        assert!(err.message().contains("impatient"), "{err}");
        assert_eq!(ctx.done.load(Ordering::Relaxed), 0, "no job ran after it");
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
