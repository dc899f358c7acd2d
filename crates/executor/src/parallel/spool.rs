//! Shared columnar spool for cross-slice CTE materialization.
//!
//! A hoisted producer slice (see [`super::slice`]) runs once per segment
//! and publishes its segment's share of the CTE here. A consumer task
//! counts each `(cte, segment)` payload it reads among its inputs, so
//! the driver runs it only after the producer task published: reading
//! the spool never waits.

use crate::columnar::{ColStream, ColumnBatch};
use orca_common::{ColId, CteId};
use orca_gpos::MemTracker;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

    /// Payload size in datum bytes ([`ColumnBatch::bytes`] sums) — what
    /// the process-wide memory counter records for holding it.
    pub fn bytes(&self) -> u64 {
        self.batches.iter().map(ColumnBatch::bytes).sum()
    }
}

/// The per-run spool: a map from `(cte, segment)` to the published
/// payload. One instance lives for the duration of one parallel run,
/// shared by every worker thread.
pub struct SharedSpool {
    slots: Mutex<HashMap<(CteId, usize), Arc<SpoolPayload>>>,
    rows: AtomicU64,
    /// Process-wide executor memory counter ([`crate::memory`]); spooled
    /// CTE bytes are counted for the spool's lifetime.
    process: Option<Arc<MemTracker>>,
    charged: AtomicU64,
}

impl SharedSpool {
    /// An empty spool counting its payload bytes in `process`, if given.
    pub fn new(process: Option<Arc<MemTracker>>) -> SharedSpool {
        SharedSpool {
            slots: Mutex::default(),
            rows: AtomicU64::new(0),
            process,
            charged: AtomicU64::new(0),
        }
    }

    /// Publish one segment's payload.
    pub fn publish(&self, id: CteId, seg: usize, payload: SpoolPayload) {
        self.rows.fetch_add(payload.rows(), Ordering::Relaxed);
        if let Some(p) = &self.process {
            let bytes = payload.bytes();
            p.add(bytes);
            self.charged.fetch_add(bytes, Ordering::Relaxed);
        }
        self.slots
            .lock()
            .unwrap()
            .insert((id, seg), Arc::new(payload));
    }

    /// The published payload of `(id, seg)`, if its producer has run.
    pub fn get(&self, id: CteId, seg: usize) -> Option<Arc<SpoolPayload>> {
        self.slots.lock().unwrap().get(&(id, seg)).cloned()
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
        if let Some(p) = &self.process {
            p.sub(self.charged.load(Ordering::Relaxed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_wait_round_trips() {
        let spool = SharedSpool::new(None);
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
        let p = spool.get(CteId(4), 2).unwrap();
        assert_eq!(p.rows(), 2);
        assert_eq!(p.avail, 1.5);
        assert_eq!(spool.rows_published(), 2);
        let back = p.to_colstream();
        assert_eq!(back.seg_rows(0), 2);
    }
}
