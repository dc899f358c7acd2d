//! Service-level observability, in the style of the Memo's
//! `SearchMetrics`: lock-free counters on the hot path, an explicit
//! snapshot type for consumers.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How many latencies each reservoir keeps. Old samples are overwritten
/// ring-buffer style, so percentiles reflect recent traffic.
const LATENCY_SAMPLES: usize = 4096;

/// Point-in-time snapshot of every service counter (the `ServiceStats` of
/// the serving-layer design).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests that entered optimization (immediately or after queueing).
    pub admitted: u64,
    /// Admitted requests that had to wait in the overflow queue first.
    pub queued: u64,
    /// Requests turned away because the overflow queue was full.
    pub rejected: u64,
    /// Responses tagged `degraded: true` (fallback plan or truncated
    /// search).
    pub degraded: u64,
    /// Requests served from the plan cache, however the entry was found.
    pub cache_hits: u64,
    /// Those of `cache_hits` served from the request text alone, without
    /// parsing it (the plan cache's text index).
    pub cache_text_hits: u64,
    pub cache_misses: u64,
    /// Entries displaced by the byte-budget LRU.
    pub cache_evictions: u64,
    /// Entries dropped because a referenced `MdId` version moved on.
    pub cache_invalidations: u64,
    /// Bytes currently resident in the plan cache.
    pub cache_bytes: u64,
    /// Plans currently resident in the plan cache.
    pub cache_entries: u64,
    /// Always 0: every request optimizes or hits the plan cache on its
    /// own, nothing coalesces. Kept because benchmark ledgers report it.
    pub coalesced: u64,
    /// Plans executed after planning (execute-after-optimize path).
    pub executed: u64,
    /// Bytes currently resident in the shared scan-fragment cache.
    pub fragment_bytes: u64,
    /// Fragments currently resident in the shared scan-fragment cache.
    pub fragment_entries: u64,
    /// Scans answered from an already-materialized cached fragment.
    pub fragments_reused: u64,
    /// Fragments a scan materialized and inserted.
    pub fragments_inserted: u64,
    /// Fragments displaced by the fragment cache's byte-budget LRU.
    pub fragment_evictions: u64,
    /// Fragments dropped because their table's `MdId` version moved on.
    pub fragment_invalidations: u64,
    /// Executions admitted through the memory-grant broker.
    pub mem_admitted: u64,
    /// Grant requests that had to queue for executor memory.
    pub mem_queued: u64,
    /// Grants issued smaller than requested (the query spilled sooner).
    pub mem_degraded_grants: u64,
    /// Degraded grants that renegotiated upward mid-query (the pool had
    /// refilled by the first would-spill moment).
    pub mem_regranted: u64,
    /// Executor-memory bytes currently charged against the global budget.
    pub mem_used_bytes: u64,
    /// High-water mark of the global executor-memory budget.
    pub mem_peak_bytes: u64,
    /// TCP connections the network front-end has accepted.
    pub net_connections: u64,
    /// Requests that arrived over the network front-end.
    pub net_requests: u64,
    /// Network responses whose first row frame was written while more
    /// remained (genuinely streamed to the client).
    pub net_streamed: u64,
    /// Streaming responses the client closed early (cursor early-close).
    pub net_early_closed: u64,
    /// Frames written to service clients (plan, row, done, error).
    pub net_frames_tx: u64,
    /// Socket bytes written to service clients, frame headers included.
    pub net_bytes_tx: u64,
    /// Frames read from service clients.
    pub net_frames_rx: u64,
    /// Socket bytes read from service clients.
    pub net_bytes_rx: u64,
    /// Median full-optimization latency (admission wait included).
    pub p50_optimize: Duration,
    /// Tail full-optimization latency.
    pub p99_optimize: Duration,
    /// Latency samples currently in the reservoir.
    pub latency_samples: usize,
    /// Median plan-execution latency.
    pub p50_execute: Duration,
    /// Tail plan-execution latency.
    pub p99_execute: Duration,
    /// Execution latency samples currently in the reservoir.
    pub exec_latency_samples: usize,
}

/// Shared counters. Cache-side counters (evictions/invalidations) live in
/// the cache itself and are merged at snapshot time by the service.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    pub admitted: AtomicU64,
    pub queued: AtomicU64,
    pub rejected: AtomicU64,
    pub degraded: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_text_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub executed: AtomicU64,
    pub net_connections: AtomicU64,
    pub net_requests: AtomicU64,
    pub net_streamed: AtomicU64,
    pub net_early_closed: AtomicU64,
    pub net_frames_tx: AtomicU64,
    pub net_bytes_tx: AtomicU64,
    pub net_frames_rx: AtomicU64,
    pub net_bytes_rx: AtomicU64,
    latencies: Mutex<LatencyRing>,
    exec_latencies: Mutex<LatencyRing>,
}

#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<u64>, // microseconds
    next: usize,
}

impl LatencyRing {
    fn record(&mut self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        if self.samples.len() < LATENCY_SAMPLES {
            self.samples.push(us);
        } else {
            let slot = self.next;
            self.samples[slot] = us;
        }
        self.next = (self.next + 1) % LATENCY_SAMPLES;
    }

    /// (p50, p99, sample count).
    fn percentiles(&self) -> (Duration, Duration, usize) {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let pct = |p: f64| -> Duration {
            if sorted.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            Duration::from_micros(sorted[idx])
        };
        (pct(0.50), pct(0.99), sorted.len())
    }
}

impl ServiceMetrics {
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::default()
    }

    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_latency(&self, d: Duration) {
        self.latencies.lock().record(d);
    }

    pub fn record_exec_latency(&self, d: Duration) {
        self.exec_latencies.lock().record(d);
    }

    /// Snapshot counters and compute latency percentiles.
    pub fn snapshot(&self) -> ServiceStats {
        let (p50, p99, n) = self.latencies.lock().percentiles();
        let (ep50, ep99, en) = self.exec_latencies.lock().percentiles();
        ServiceStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_text_hits: self.cache_text_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            coalesced: 0,
            executed: self.executed.load(Ordering::Relaxed),
            net_connections: self.net_connections.load(Ordering::Relaxed),
            net_requests: self.net_requests.load(Ordering::Relaxed),
            net_streamed: self.net_streamed.load(Ordering::Relaxed),
            net_early_closed: self.net_early_closed.load(Ordering::Relaxed),
            net_frames_tx: self.net_frames_tx.load(Ordering::Relaxed),
            net_bytes_tx: self.net_bytes_tx.load(Ordering::Relaxed),
            net_frames_rx: self.net_frames_rx.load(Ordering::Relaxed),
            net_bytes_rx: self.net_bytes_rx.load(Ordering::Relaxed),
            p50_optimize: p50,
            p99_optimize: p99,
            latency_samples: n,
            p50_execute: ep50,
            p99_execute: ep99,
            exec_latency_samples: en,
            // Occupancy, plan-cache eviction/invalidation and fragment-cache
            // counters live next to their owners; the service fills them
            // in after snapshotting.
            ..ServiceStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_reservoir() {
        let m = ServiceMetrics::new();
        for i in 1..=100u64 {
            m.record_latency(Duration::from_micros(i * 10));
        }
        let s = m.snapshot();
        assert_eq!(s.latency_samples, 100);
        // Index: round((100-1) * 0.5) = 50 → the 51st sample.
        assert_eq!(s.p50_optimize, Duration::from_micros(510));
        assert_eq!(s.p99_optimize, Duration::from_micros(990));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let m = ServiceMetrics::new();
        for _ in 0..(LATENCY_SAMPLES + 100) {
            m.record_latency(Duration::from_micros(7));
        }
        let s = m.snapshot();
        assert_eq!(s.latency_samples, LATENCY_SAMPLES);
        assert_eq!(s.p99_optimize, Duration::from_micros(7));
    }

    #[test]
    fn exec_latencies_are_a_separate_reservoir() {
        let m = ServiceMetrics::new();
        m.record_latency(Duration::from_micros(100));
        m.record_exec_latency(Duration::from_micros(7));
        m.record_exec_latency(Duration::from_micros(9));
        let s = m.snapshot();
        assert_eq!(s.latency_samples, 1);
        assert_eq!(s.exec_latency_samples, 2);
        assert_eq!(s.p50_execute, Duration::from_micros(9));
        assert_eq!(s.p99_optimize, Duration::from_micros(100));
    }
}
