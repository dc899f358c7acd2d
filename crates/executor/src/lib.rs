//! `orca-executor` — a shared-nothing MPP execution engine (§2.1).
//!
//! The paper evaluates Orca on physical GPDB/HAWQ clusters; this crate is
//! the simulated substitute (DESIGN.md §2): it *really executes* physical
//! plans — segmented storage, hash/NL joins, aggregation, sorts, motions —
//! and additionally maintains a deterministic **simulated cluster clock**
//! (per-segment work + interconnect transfer model), so experiments
//! measure plan quality rather than host-machine noise.
//!
//! * [`storage`] — per-segment, per-partition row storage and loading
//!   under the four GPDB distribution policies.
//! * [`eval`] — scalar expression evaluation and aggregate accumulators.
//! * [`exec`] — the operator interpreter over per-segment streams.
//! * [`engine`] — the public entry point: run a plan, get rows, the
//!   simulated elapsed time, and execution statistics.
//! * [`columnar`] — the vectorized batch kernel: typed column vectors
//!   with null bitmaps, selection-vector filters, column-at-a-time scalar
//!   evaluation, and batch-keyed joins/aggregates. Produces byte-identical
//!   results to [`exec`] (the row kernel is the differential oracle) with
//!   far less per-row interpretation work.
//! * [`merge`] — streaming k-way merge shared by the row kernel's
//!   GatherMerge motion and the spill sort.
//! * [`parallel`] — the parallel engine: plans cut into slices at motion
//!   boundaries, one gang of single-segment kernels per slice, run as a
//!   dependency-ordered pass on a few worker threads, with batches
//!   delivered into per-receiver mailboxes (§2.1's dispatcher /
//!   interconnect).
//! * [`mod@reference`] — an independent, naive single-node interpreter of
//!   *logical* trees (including correlated-subquery markers, evaluated per
//!   row). It serves as the correctness oracle for every physical plan and
//!   doubles as the execution model of engines without decorrelation.
//! * [`sharing`] — cross-query work sharing: a byte-budgeted shared
//!   fragment cache of filtered scan results, keyed on (table name,
//!   table version, predicate/projection fingerprint, segment).
//! * [`codec`] — the self-delimiting columnar batch codec shared by
//!   spill files and the network wire format.
//! * [`net`] — the socket interconnect: a length-prefixed frame codec
//!   for the `Msg` protocol, a TCP transport whose reader threads fill
//!   the same mailboxes as in-process senders, and the
//!   [`net::ClusterTopology`] that maps segments onto peer processes.

pub mod codec;
pub mod columnar;
pub mod cursor;
pub mod engine;
pub mod eval;
pub mod exec;
pub mod memory;
pub mod merge;
pub mod net;
pub mod parallel;
pub mod reference;
pub mod sharing;
pub mod spill;
pub mod storage;

pub use columnar::{ColStream, Column, ColumnBatch};
pub use cursor::{Cursor, CursorOptions};
pub use engine::{ExecEngine, ExecResult, ExecStats};
pub use memory::{preflight, MemoryTracker};
pub use net::{ClusterTopology, NetConfig, NetNode, NetStats};
pub use parallel::{ParallelConfig, ParallelEngine, ParallelStats};
pub use sharing::{FragmentCache, FragmentCacheStats, FragmentKey};
pub use storage::{Database, Row};

#[cfg(test)]
pub(crate) mod test_util {
    use orca_common::Result;
    use orca_gpos::AbortSignal;
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// Median time from `abort()` to a blocked wait returning, over 20
    /// cycles. `park` starts a thread that registers its wait's abort
    /// waker and blocks in the wait; it must come back "aborted".
    pub(crate) fn median_abort_latency<T: std::fmt::Debug + Send + 'static>(
        mut park: impl FnMut(Arc<AbortSignal>) -> JoinHandle<Result<T>>,
    ) -> Duration {
        let mut samples: Vec<Duration> = (0..20)
            .map(|_| {
                let abort = Arc::new(AbortSignal::new());
                let waiter = park(Arc::clone(&abort));
                // Let the waiter reach its blocking call.
                std::thread::sleep(Duration::from_millis(3));
                let t0 = Instant::now();
                abort.abort();
                let err = waiter.join().unwrap().unwrap_err();
                let took = t0.elapsed();
                assert_eq!(err.kind(), "aborted", "{err}");
                took
            })
            .collect();
        samples.sort();
        samples[samples.len() / 2]
    }
}
