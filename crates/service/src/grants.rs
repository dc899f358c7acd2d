//! Executor memory grants: the service's second [`Pool`], of
//! `executor_memory_bytes`.
//!
//! Every execute-after-optimize request asks the [`MemoryGrantBroker`]
//! for a grant sized from the optimizer's cost estimate before any
//! kernel runs. The answer is one of three:
//!
//! * **immediate** — the pool covers the request; full grant;
//! * **queued** — the full ask does not fit (or others wait ahead); the
//!   request waits its turn in FIFO order until at least the minimum
//!   grant is free;
//! * **degraded** — it got at least the minimum but not the full ask;
//!   the query runs with a smaller grant, which tightens its
//!   per-operator budget (`min(work_mem, grant/segments)`) and forces
//!   earlier spilling instead of failure.
//!
//! Grants are RAII ([`MemoryGrant`]): dropping one returns its bytes and
//! wakes the queue. The broker never rejects — a query can always run
//! with the minimum grant and spill its way through, which is exactly
//! the §7.3.2 contrast with engines that fall over under memory
//! pressure.
//!
//! A **degraded** grant additionally carries a one-shot renegotiation
//! right ([`MemoryGrant::regrant_hook`]): the instant the executor is
//! about to take its first spill, it may ask the broker once whether
//! other queries have since drained their grants back into the pool. If
//! bytes are free (and nobody is queued ahead), the grant upgrades
//! toward its original ask and the spill may be avoided entirely.

use crate::admission::{Admission, Pool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Floor for any grant: even a degraded query gets this much. Keeps the
/// per-operator budget non-trivial so spill fanout stays bounded.
pub const MIN_GRANT_BYTES: u64 = 64 * 1024;

/// Admits query executions against a global executor-memory budget.
pub struct MemoryGrantBroker {
    /// `None` = unbounded: every request gets its full ask at once.
    pool: Option<Pool>,
    min_grant: u64,
    admitted: AtomicU64,
    queued: AtomicU64,
    degraded: AtomicU64,
    regranted: AtomicU64,
}

/// One admitted execution's share of the pool. Dropping it releases the
/// bytes and wakes queued requests.
pub struct MemoryGrant {
    broker: Arc<MemoryGrantBroker>,
    /// Bytes currently granted: one cell shared with the query's
    /// [`orca_executor::MemoryTracker`], which a renegotiation grows.
    bytes: Arc<AtomicU64>,
    /// What the query originally asked for (clamped to the pool size).
    desired: u64,
    /// The grant started smaller than requested — the executor will
    /// spill sooner than the estimate assumed (a later renegotiation may
    /// have raised [`MemoryGrant::bytes`] since).
    pub degraded: bool,
    /// Time spent queued waiting for bytes.
    pub wait: Duration,
}

impl Drop for MemoryGrant {
    fn drop(&mut self) {
        if let Some(pool) = &self.broker.pool {
            pool.release(self.bytes());
        }
    }
}

impl MemoryGrant {
    /// Bytes currently granted (≤ the request; can grow once via
    /// renegotiation).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The cell holding the grant's current size, for the query's
    /// [`orca_executor::MemoryTracker`].
    pub fn bytes_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.bytes)
    }

    /// A renegotiation closure for the executor's memory tracker: called
    /// at most once, at the moment the query would otherwise take its
    /// first spill. Returns the new *total* grant in bytes, or 0 when
    /// the pool had nothing to give (the spill proceeds).
    pub fn regrant_hook(&self) -> Box<dyn Fn() -> u64 + Send + Sync> {
        let broker = Arc::clone(&self.broker);
        let bytes = Arc::clone(&self.bytes);
        let desired = self.desired;
        Box::new(move || broker.upgrade(&bytes, desired))
    }
}

impl MemoryGrantBroker {
    /// A broker over `total_bytes` of executor memory. `0` = unbounded
    /// (every request gets its full ask immediately).
    pub fn new(total_bytes: u64) -> MemoryGrantBroker {
        MemoryGrantBroker {
            pool: (total_bytes > 0).then(|| Pool::new(total_bytes, usize::MAX)),
            min_grant: MIN_GRANT_BYTES.min(total_bytes.max(1)),
            admitted: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            regranted: AtomicU64::new(0),
        }
    }

    /// Acquire a grant of up to `desired` bytes. Unless the whole ask is
    /// free and nobody waits, blocks in FIFO order until at least the
    /// minimum grant is free. Never fails.
    pub fn request(self: &Arc<Self>, desired: u64) -> MemoryGrant {
        let (admission, bytes, desired) = match &self.pool {
            None => {
                let bytes = desired.max(1);
                (Admission::Immediate, bytes, bytes)
            }
            Some(pool) => {
                let desired = desired.clamp(self.min_grant, pool.capacity());
                let (admission, bytes) = pool.acquire(self.min_grant, desired, None);
                (admission, bytes, desired)
            }
        };
        let wait = match admission {
            Admission::Queued(wait) => {
                self.queued.fetch_add(1, Ordering::Relaxed);
                wait
            }
            _ => Duration::ZERO,
        };
        let degraded = bytes < desired;
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        MemoryGrant {
            broker: Arc::clone(self),
            bytes: Arc::new(AtomicU64::new(bytes)),
            desired,
            degraded,
            wait,
        }
    }

    /// Renegotiate a degraded grant upward toward its original ask:
    /// claim whatever the pool can spare *now* (other queries may have
    /// drained their grants back since admission), never ahead of a
    /// queued request. Returns the grant's new total in bytes, or 0 when
    /// nothing was free.
    fn upgrade(&self, bytes: &AtomicU64, desired: u64) -> u64 {
        let Some(pool) = &self.pool else {
            return 0;
        };
        let current = bytes.load(Ordering::Relaxed);
        let extra = pool.top_up(desired.saturating_sub(current));
        if extra == 0 {
            return 0;
        }
        bytes.fetch_add(extra, Ordering::Relaxed);
        self.regranted.fetch_add(1, Ordering::Relaxed);
        current + extra
    }

    /// (admitted, queued, degraded) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.admitted.load(Ordering::Relaxed),
            self.queued.load(Ordering::Relaxed),
            self.degraded.load(Ordering::Relaxed),
        )
    }

    /// Degraded grants that successfully renegotiated upward mid-query.
    pub fn regranted(&self) -> u64 {
        self.regranted.load(Ordering::Relaxed)
    }

    /// Bytes currently uncommitted.
    pub fn available_bytes(&self) -> u64 {
        self.pool.as_ref().map_or(u64::MAX, Pool::available)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_grant_when_pool_covers() {
        let b = Arc::new(MemoryGrantBroker::new(1 << 20));
        let g = b.request(512 * 1024);
        assert_eq!(g.bytes(), 512 * 1024);
        assert!(!g.degraded);
        assert_eq!(b.available_bytes(), 512 * 1024);
        drop(g);
        assert_eq!(b.available_bytes(), 1 << 20);
        assert_eq!(b.counters(), (1, 0, 0));
    }

    #[test]
    fn degraded_grant_under_pressure() {
        let b = Arc::new(MemoryGrantBroker::new(1 << 20));
        let hog = b.request(1 << 20); // drains to ~0... not quite: full pool
        assert_eq!(b.available_bytes(), 0);
        drop(hog);
        let hold = b.request(900 * 1024);
        // 124KiB left; a 500KiB ask degrades to what's available.
        let g = b.request(500 * 1024);
        assert!(g.degraded);
        assert_eq!(g.bytes(), (1 << 20) - 900 * 1024);
        drop(g);
        drop(hold);
        let (_, _, degraded) = b.counters();
        assert_eq!(degraded, 1);
    }

    #[test]
    fn degraded_grant_renegotiates_after_the_pool_refills() {
        let b = Arc::new(MemoryGrantBroker::new(1 << 20));
        let hog = b.request(900 * 1024);
        let g = b.request(500 * 1024); // degrades to 124 KiB
        assert!(g.degraded);
        let hook = g.regrant_hook();
        // Nothing free yet: renegotiation yields nothing, grant unchanged.
        assert_eq!(hook(), 0);
        assert_eq!(b.regranted(), 0);
        // The hog finishes; its bytes drain back into the pool.
        drop(hog);
        let new_total = hook();
        assert_eq!(new_total, 500 * 1024, "upgrade tops up to the original ask");
        assert_eq!(g.bytes(), 500 * 1024);
        assert_eq!(b.regranted(), 1);
        assert_eq!(b.available_bytes(), (1 << 20) - 500 * 1024);
        // Dropping the upgraded grant returns the *upgraded* total.
        drop(g);
        assert_eq!(b.available_bytes(), 1 << 20);
    }

    #[test]
    fn upgrade_never_starves_the_queue() {
        let b = Arc::new(MemoryGrantBroker::new(256 * 1024));
        let hog = b.request(180 * 1024);
        let g = b.request(100 * 1024); // degraded to the 76 KiB remainder
        assert!(g.degraded);
        let hook = g.regrant_hook();
        // A third request parks in the FIFO (pool is drained to zero).
        let (tx, rx) = std::sync::mpsc::channel();
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || tx.send(b2.request(200 * 1024)).unwrap());
        std::thread::sleep(Duration::from_millis(30));
        drop(hog); // bytes free up, but the queued request has priority
        assert_eq!(hook(), 0, "upgrade must yield to the queued request");
        let queued_grant = rx.recv().unwrap();
        waiter.join().unwrap();
        assert_eq!(b.regranted(), 0);
        drop(queued_grant);
        assert_eq!(b.available_bytes(), 180 * 1024);
    }

    #[test]
    fn queued_request_wakes_on_release() {
        let b = Arc::new(MemoryGrantBroker::new(256 * 1024));
        let g = b.request(256 * 1024); // drain the pool entirely
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || {
            let g = b2.request(128 * 1024);
            (g.bytes(), g.degraded)
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(g); // release; the waiter's full ask now fits
        let (bytes, degraded) = waiter.join().unwrap();
        assert_eq!(bytes, 128 * 1024);
        assert!(!degraded);
        let (admitted, queued, _) = b.counters();
        assert_eq!(admitted, 2);
        assert_eq!(queued, 1);
    }

    #[test]
    fn unbounded_broker_grants_everything() {
        let b = Arc::new(MemoryGrantBroker::new(0));
        let g = b.request(u64::MAX / 2);
        assert!(!g.degraded);
        assert_eq!(g.bytes(), u64::MAX / 2);
    }
}
