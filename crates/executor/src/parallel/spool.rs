//! Shared columnar spool for cross-slice CTE materialization.
//!
//! A hoisted producer slice (see [`super::slice`]) runs once per segment
//! and publishes its segment's share of the CTE here; every consumer
//! gang instance waits for the `(cte, segment)` payload it needs before
//! entering its compute phase. Publishing happens after the producer
//! releases its compute slot and waiting happens before the consumer
//! acquires one, so the spool never interacts with the compute gate —
//! the same discipline that keeps the interconnect deadlock-free.
//!
//! A wait blocks until a publish or the run's abort wakes it (the run
//! registers [`SharedSpool::wake`] with its [`AbortSignal`]), so a failed
//! or cancelled producer drains its consumers at once instead of hanging
//! them.

use crate::columnar::{ColStream, ColumnBatch};
use orca_common::{ColId, CteId, Result};
use orca_gpos::AbortSignal;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One segment's share of a materialized CTE: exactly the per-slot state
/// the serial kernel would have stashed for that segment.
#[derive(Debug, Clone)]
pub struct SpoolPayload {
    pub layout: Vec<ColId>,
    pub batches: Vec<ColumnBatch>,
    /// Simulated availability time of this segment's stream.
    pub avail: f64,
    pub replicated: bool,
}

impl SpoolPayload {
    /// Capture the single-slot stream a producer task materialized.
    pub fn from_colstream(cs: ColStream) -> SpoolPayload {
        let avail = cs.avail.first().copied().unwrap_or(0.0);
        SpoolPayload {
            layout: cs.layout,
            batches: cs.per_seg.into_iter().next().unwrap_or_default(),
            avail,
            replicated: cs.replicated,
        }
    }

    /// Rebuild the single-slot stream a consumer kernel expects to find
    /// in its CTE stash.
    pub fn to_colstream(&self) -> ColStream {
        ColStream {
            layout: self.layout.clone(),
            per_seg: vec![self.batches.clone()],
            avail: vec![self.avail],
            replicated: self.replicated,
        }
    }

    pub fn rows(&self) -> u64 {
        self.batches.iter().map(|b| b.len as u64).sum()
    }

    /// Payload size in datum bytes ([`ColumnBatch::bytes`] sums) — what a
    /// process-wide memory budget is charged for holding it.
    pub fn bytes(&self) -> u64 {
        self.batches.iter().map(ColumnBatch::bytes).sum()
    }
}

/// The per-run spool: a rendezvous map from `(cte, segment)` to the
/// published payload. One instance lives for the duration of one
/// parallel run, shared by every task thread.
#[derive(Default)]
pub struct SharedSpool {
    slots: Mutex<HashMap<(CteId, usize), Arc<SpoolPayload>>>,
    ready: Condvar,
    rows: AtomicU64,
    /// Process-wide executor memory budget ([`crate::memory`]); spooled
    /// CTE bytes are charged for the spool's lifetime.
    budget: Option<Arc<crate::memory::MemoryBudget>>,
    charged: AtomicU64,
}

impl SharedSpool {
    pub fn new() -> SharedSpool {
        SharedSpool::default()
    }

    /// Charge published payload bytes against a process-wide budget.
    pub fn with_budget(mut self, budget: Arc<crate::memory::MemoryBudget>) -> SharedSpool {
        self.budget = Some(budget);
        self
    }

    /// Publish one segment's payload and wake every waiter.
    pub fn publish(&self, id: CteId, seg: usize, payload: SpoolPayload) {
        self.rows.fetch_add(payload.rows(), Ordering::Relaxed);
        if let Some(b) = &self.budget {
            let bytes = payload.bytes();
            b.charge(bytes);
            self.charged.fetch_add(bytes, Ordering::Relaxed);
        }
        self.slots
            .lock()
            .unwrap()
            .insert((id, seg), Arc::new(payload));
        self.ready.notify_all();
    }

    /// Block until the producer gang publishes `(id, seg)` or the abort
    /// trips.
    pub fn wait(&self, id: CteId, seg: usize, abort: &AbortSignal) -> Result<Arc<SpoolPayload>> {
        abort.check()?;
        let mut slots = self.slots.lock().unwrap();
        loop {
            if let Some(p) = slots.get(&(id, seg)) {
                return Ok(Arc::clone(p));
            }
            if abort.is_tripped() {
                drop(slots);
                return Err(abort.error());
            }
            slots = self.ready.wait(slots).unwrap();
        }
    }

    /// Wake every waiter; the run's abort waker.
    pub fn wake(&self) {
        drop(self.slots.lock());
        self.ready.notify_all();
    }

    /// Total rows published so far.
    pub fn rows_published(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
}

impl Drop for SharedSpool {
    fn drop(&mut self) {
        // The spool lives for one parallel run; return its bytes when the
        // run ends.
        if let Some(b) = &self.budget {
            b.uncharge(self.charged.load(Ordering::Relaxed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_wait_round_trips() {
        let spool = SharedSpool::new();
        let cs = ColStream {
            layout: vec![ColId(3)],
            per_seg: vec![vec![ColumnBatch::from_rows(
                &[
                    vec![orca_common::Datum::Int(1)],
                    vec![orca_common::Datum::Int(2)],
                ],
                1,
            )]],
            avail: vec![1.5],
            replicated: false,
        };
        spool.publish(CteId(4), 2, SpoolPayload::from_colstream(cs));
        let abort = AbortSignal::new();
        let p = spool.wait(CteId(4), 2, &abort).unwrap();
        assert_eq!(p.rows(), 2);
        assert_eq!(p.avail, 1.5);
        assert_eq!(spool.rows_published(), 2);
        let back = p.to_colstream();
        assert_eq!(back.seg_rows(0), 2);
    }

    #[test]
    fn wait_observes_abort() {
        let spool = SharedSpool::new();
        let abort = AbortSignal::new();
        abort.abort();
        assert!(spool.wait(CteId(1), 0, &abort).is_err());
    }

    /// A consumer whose producer never publishes returns within a
    /// millisecond of the abort.
    #[test]
    fn abort_wakes_a_waiting_consumer() {
        let median = crate::test_util::median_abort_latency(|abort| {
            std::thread::spawn(move || {
                let spool = Arc::new(SharedSpool::new());
                let woken = Arc::clone(&spool);
                let _wake = abort.on_abort(move || woken.wake());
                spool.wait(CteId(1), 0, &abort)
            })
        });
        assert!(
            median < std::time::Duration::from_millis(1),
            "median {median:?}"
        );
    }
}
