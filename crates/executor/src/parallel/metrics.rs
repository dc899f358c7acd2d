//! Observability for parallel execution.

use crate::net::NetStats;

/// Timing for one slice, taken as the maximum over its gang instances
/// (the slice is done when its slowest instance is).
#[derive(Debug, Clone, Default)]
pub struct SliceMetrics {
    pub slice: usize,
    /// Full task lifecycle: receive + compute + send.
    pub wall_seconds: f64,
    /// Kernel time only (under the compute gate).
    pub compute_seconds: f64,
}

/// Wire traffic for one motion, summed over its channels.
#[derive(Debug, Clone, Default)]
pub struct MotionMetrics {
    pub motion: usize,
    /// Debug rendering of the [`orca_expr::physical::MotionKind`].
    pub kind: String,
    pub rows: u64,
    pub bytes: u64,
    /// Highest observed in-flight batch count on any single channel.
    /// Equal to the configured channel capacity ⇒ backpressure engaged.
    pub peak_queue_depth: usize,
    /// Frames this process wrote to sockets for this motion's remote
    /// edges (zero when every edge was in-process).
    pub net_frames_tx: u64,
    /// Socket bytes written for this motion, frame headers included.
    pub net_bytes_tx: u64,
    /// Frames this process read off sockets for this motion.
    pub net_frames_rx: u64,
    /// Socket bytes read for this motion.
    pub net_bytes_rx: u64,
}

/// Execution-wide parallel statistics, returned alongside the rows.
#[derive(Debug, Clone, Default)]
pub struct ParallelStats {
    /// Compute-phase parallelism the run was configured with.
    pub workers: usize,
    pub num_slices: usize,
    /// Always `false`: every plan is sliced (cross-slice CTEs run through
    /// the shared spool) and every slice runs on the columnar kernel, so
    /// no run falls back to the serial engine. Kept because `e2e_bench`
    /// reads it (`executor.parallel.serial_fallbacks`).
    pub serial_fallback: bool,
    /// Hoisted cross-slice CTE producer slices in this plan (each one
    /// materialized its CTE exactly once per segment into the shared
    /// spool).
    pub cte_spools: usize,
    /// Total rows published into the shared spool across all spool
    /// slices and segments.
    pub spool_rows: u64,
    /// End-to-end wall time of the parallel run.
    pub wall_seconds: f64,
    /// The simulated cluster clock of the assembled output stream —
    /// bit-equal to the serial engine's `sim_seconds` on the same plan,
    /// whether the gang ran in one process or across the socket
    /// interconnect (the receivers replay the serial motion-cost
    /// formulas from bit-exact wire headers).
    pub sim_seconds: f64,
    /// Socket-transport counters for this run; all zeros when the
    /// topology kept every motion edge in-process.
    pub net: NetStats,
    /// Interconnect batch shells served from the shared free list
    /// instead of freshly allocated (see
    /// [`crate::parallel::interconnect::BatchPool`]).
    pub batches_reused: u64,
    pub slices: Vec<SliceMetrics>,
    pub motions: Vec<MotionMetrics>,
}

impl ParallelStats {
    /// Total rows that crossed the interconnect.
    pub fn motion_rows(&self) -> u64 {
        self.motions.iter().map(|m| m.rows).sum()
    }

    /// Total bytes that crossed the interconnect.
    pub fn motion_bytes(&self) -> u64 {
        self.motions.iter().map(|m| m.bytes).sum()
    }

    /// Highest channel occupancy seen on any motion.
    pub fn peak_queue_depth(&self) -> usize {
        self.motions
            .iter()
            .map(|m| m.peak_queue_depth)
            .max()
            .unwrap_or(0)
    }
}
