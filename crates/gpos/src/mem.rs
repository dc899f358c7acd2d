//! Memory accounting.
//!
//! GPOS ships a full memory manager with allocation pools; in safe Rust the
//! global allocator does the allocating, and what the optimizer actually
//! *uses* the memory manager for in the paper's evaluation is footprint
//! reporting ("the average memory footprint is around 200 MB", §7.2.2).
//! [`MemTracker`] is a thread-safe byte counter with peak tracking that the
//! Memo and metadata cache report their estimated sizes to, and the
//! executor counts its process-wide memory in (operator state peaks,
//! cached scan fragments, CTE spools).

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe byte accounting with a high-water mark.
#[derive(Debug, Default)]
pub struct MemTracker {
    current: AtomicU64,
    peak: AtomicU64,
}

impl MemTracker {
    pub fn new() -> MemTracker {
        MemTracker::default()
    }

    /// Record an allocation of `bytes`.
    pub fn add(&self, bytes: u64) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Record a transient allocation of `bytes` that is released at once:
    /// raises the peak to `current + bytes` without moving `current`.
    pub fn note_peak(&self, bytes: u64) {
        let now = self.current.load(Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Record a release of `bytes`. Saturates at zero rather than panicking:
    /// trackers are diagnostics, not correctness.
    pub fn sub(&self, bytes: u64) {
        let mut cur = self.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.current.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

/// Rough heap size estimation for footprint reporting. Implementors return
/// their owned bytes (not including `size_of::<Self>()` unless boxed).
pub trait HeapSize {
    fn heap_bytes(&self) -> u64;
}

impl HeapSize for String {
    fn heap_bytes(&self) -> u64 {
        self.capacity() as u64
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> u64 {
        self.capacity() as u64 * std::mem::size_of::<T>() as u64
            + self.iter().map(HeapSize::heap_bytes).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_and_peak() {
        let t = MemTracker::new();
        t.add(100);
        t.add(50);
        assert_eq!(t.current(), 150);
        t.sub(120);
        assert_eq!(t.current(), 30);
        assert_eq!(t.peak(), 150);
        // Saturating subtraction.
        t.sub(1000);
        assert_eq!(t.current(), 0);
        assert_eq!(t.peak(), 150);
        t.reset();
        assert_eq!(t.peak(), 0);
    }

    #[test]
    fn concurrent_accounting_balances() {
        let t = std::sync::Arc::new(MemTracker::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.add(7);
                        t.sub(7);
                    }
                });
            }
        });
        assert_eq!(t.current(), 0);
        assert!(t.peak() >= 7);
    }
}
