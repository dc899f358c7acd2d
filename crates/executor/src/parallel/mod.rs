//! Parallel MPP execution: slice scheduler + batched interconnect.
//!
//! The serial [`crate::engine::ExecEngine`] *simulates* the cluster of
//! §2.1 inside one thread: streams carry one slot per segment and
//! motions shuffle rows between slots. This module realizes the same
//! model with actual concurrency, the way GPDB runs Orca's plans:
//!
//! * [`slice`](mod@slice) cuts a physical plan at every Motion into a DAG of
//!   **slices**; each slice is instantiated once per segment (a *gang*),
//!   and each instance runs the columnar kernel ([`crate::columnar`]) in
//!   single-segment mode (see [`crate::exec::ExecCtx`]). The row
//!   interpreter runs whole plans only, as the serial oracle.
//! * [`interconnect`] moves **columnar batches** between gangs —
//!   Gather, GatherMerge (k-way merge at the receiver), Redistribute
//!   (hash fan-out into per-destination column builders), Broadcast —
//!   into per-receiver mailboxes with one slot per sender, EOS markers
//!   ending each slot, and a shared [`interconnect::BatchPool`]
//!   recycling consumed batch shells.
//! * [`spool`] materializes cross-slice CTE producers exactly once per
//!   segment into a shared map (hoisted by [`slice`](mod@slice) into spool slices),
//!   so consumer gangs read them instead of the plan falling back to
//!   serial execution.
//! * [`driver`] runs the slice×segment tasks as one dependency-ordered
//!   pass on `workers` threads — a task runs once its mailboxes and
//!   spooled CTEs are complete, so no task ever blocks on another —
//!   propagates errors/cancellation/deadlines through a shared
//!   [`orca_gpos::AbortSignal`], and assembles the final result.
//! * [`metrics`] reports per-slice wall times, per-motion rows/bytes,
//!   and the largest mailbox slot.
//!
//! Correctness bar: for any plan the serial engine can run, the parallel
//! engine returns a **byte-identical** result set at every worker count.
//! Receivers drain senders in segment order and merge ties toward the
//! lowest sender, exactly reproducing the serial engine's deterministic
//! stream order.

pub mod driver;
pub mod interconnect;
pub mod metrics;
pub mod slice;
pub mod spool;

pub use driver::{ParallelConfig, ParallelEngine, ParallelResult};
pub use interconnect::BatchPool;
pub use metrics::{MotionMetrics, ParallelStats, SliceMetrics};
pub use spool::{SharedSpool, SpoolPayload};
