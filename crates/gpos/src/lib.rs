//! `orca-gpos` — the OS-abstraction substrate from §3 of the paper.
//!
//! GPOS gives Orca "a memory manager, primitives for concurrency control,
//! exception handling, file I/O and synchronized data structures", plus the
//! specialized **job scheduler** of §4.2 that runs fine-grained optimization
//! jobs across cores. This crate reproduces the pieces the optimizer needs:
//!
//! * [`sched`] — a dependency-aware job scheduler: jobs are re-entrant state
//!   machines that can spawn child jobs and suspend until they finish; jobs
//!   with the same *goal* are deduplicated so concurrent requests share one
//!   computation (the per-group job queues of §4.2).
//! * [`task`] — cooperative cancellation: abort flags, deadlines, error
//!   capture so a failing job can tear down the whole optimization session,
//!   and the abort wake list every blocked thread in the process relies on.
//! * [`lru`] — the least-recently-used order the byte-budgeted caches
//!   (plans, scan fragments) evict by.
//! * [`mem`] — memory accounting used to report the optimizer footprint
//!   statistics of §7.2.2, and the executor's process-wide memory counter.

pub mod lru;
pub mod mem;
pub mod sched;
pub mod task;

pub use lru::LruOrder;
pub use mem::MemTracker;
pub use sched::{Job, JobHandle, Scheduler, StepResult};
pub use task::{wait_until, AbortSignal, OnAbort};
