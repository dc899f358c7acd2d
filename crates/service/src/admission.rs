//! Admission control: one FIFO pool, used twice by the service.
//!
//! A [`Pool`] hands out units of one resource in arrival order:
//!
//! * the optimizer gate is a pool of `max_concurrent` slots taken one at
//!   a time. Up to `queue_depth` more requests wait, each until its own
//!   deadline ([`orca_gpos::wait_until`]); everyone else is rejected at
//!   once, so the caller can degrade to a heuristic plan instead of
//!   piling onto a saturated optimizer;
//! * the executor-memory broker ([`crate::grants`]) is a pool of
//!   `executor_memory_bytes` taken `min_grant..desired` at a time, with
//!   an unbounded queue and no deadline.
//!
//! A request is served at once only when its whole ask fits and nobody
//! is queued. Otherwise it joins the queue; the head is admitted as soon
//! as at least its minimum is free, and takes what is free up to its
//! ask. Every release wakes the queue, and a top-up of units already
//! held ([`Pool::top_up`]) never jumps it.

use orca_gpos::wait_until;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Outcome of [`Pool::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The whole ask was free; no waiting.
    Immediate,
    /// Waited in the queue for this long before being admitted.
    Queued(Duration),
    /// Queue full — shed immediately.
    Rejected,
    /// The request's deadline expired while still queued.
    TimedOut,
}

#[derive(Debug)]
struct PoolState {
    available: u64,
    /// Ticket ids in arrival order; the head is next to admit.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// A FIFO pool of `capacity` units.
#[derive(Debug)]
pub struct Pool {
    capacity: u64,
    /// Waiters the queue holds; arrivals beyond it are rejected.
    queue_bound: usize,
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl Pool {
    pub fn new(capacity: u64, queue_bound: usize) -> Pool {
        Pool {
            capacity,
            queue_bound,
            state: Mutex::new(PoolState {
                available: capacity,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The pool's state. Every update leaves it valid, so a lock
    /// poisoned by a panicking holder is recovered.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Take between `min` and `desired` units (`min ≤ desired ≤
    /// capacity`), waiting in FIFO order at most until `deadline`.
    /// Returns the outcome and the units taken, which the caller MUST
    /// [`Pool::release`]; a `Rejected` or `TimedOut` request took 0.
    pub fn acquire(&self, min: u64, desired: u64, deadline: Option<Instant>) -> (Admission, u64) {
        let mut st = self.state();
        if st.queue.is_empty() && st.available >= desired {
            st.available -= desired;
            return (Admission::Immediate, desired);
        }
        if st.queue.len() >= self.queue_bound {
            return (Admission::Rejected, 0);
        }
        let enqueued = Instant::now();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        loop {
            if st.queue.front() == Some(&ticket) && st.available >= min {
                st.queue.pop_front();
                let units = st.available.min(desired);
                st.available -= units;
                // The next waiter may also be admittable (several
                // releases can land between our wakeups).
                self.cv.notify_all();
                return (Admission::Queued(enqueued.elapsed()), units);
            }
            st = match wait_until(&self.cv, st, deadline) {
                Ok(guard) => guard,
                Err(mut st) => {
                    st.queue.retain(|t| *t != ticket);
                    // Our departure may unblock the head-of-line check
                    // for whoever is behind us.
                    self.cv.notify_all();
                    return (Admission::TimedOut, 0);
                }
            };
        }
    }

    /// Take up to `want` more units for a holder, only while nobody is
    /// queued: a top-up never starves the FIFO head. Returns the units
    /// taken (0 when none were free).
    pub fn top_up(&self, want: u64) -> u64 {
        let mut st = self.state();
        if !st.queue.is_empty() {
            return 0;
        }
        let extra = st.available.min(want);
        st.available -= extra;
        extra
    }

    /// Return `units`, waking the queue.
    pub fn release(&self, units: u64) {
        let mut st = self.state();
        st.available = (st.available + units).min(self.capacity);
        drop(st);
        self.cv.notify_all();
    }

    /// Units currently free.
    pub fn available(&self) -> u64 {
        self.state().available
    }

    /// Requests currently queued.
    pub fn queued(&self) -> usize {
        self.state().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// One optimizer-gate slot.
    fn slot(g: &Pool, deadline: Option<Instant>) -> Admission {
        g.acquire(1, 1, deadline).0
    }

    #[test]
    fn immediate_until_full_then_rejects_past_queue() {
        let g = Pool::new(2, 1);
        assert_eq!(slot(&g, None), Admission::Immediate);
        assert_eq!(slot(&g, None), Admission::Immediate);
        // Slots full, queue depth 1: the third waits (use a deadline so the
        // test can't hang), the fourth is rejected while 3 occupies the
        // queue.
        let g = Arc::new(Pool::new(1, 0));
        assert_eq!(slot(&g, None), Admission::Immediate);
        assert_eq!(slot(&g, None), Admission::Rejected);
        g.release(1);
        assert_eq!(slot(&g, None), Admission::Immediate);
    }

    #[test]
    fn queued_request_times_out_at_deadline() {
        let g = Pool::new(1, 4);
        assert_eq!(slot(&g, None), Admission::Immediate);
        let d = Instant::now() + Duration::from_millis(20);
        assert_eq!(slot(&g, Some(d)), Admission::TimedOut);
        assert_eq!(g.queued(), 0);
        g.release(1);
    }

    #[test]
    fn fifo_order_and_handoff() {
        let g = Arc::new(Pool::new(1, 8));
        assert_eq!(slot(&g, None), Admission::Immediate);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 1..=4u64 {
            let g = g.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                // Stagger arrivals so queue order is deterministic: the gate
                // is held by the first request until all four are queued, so
                // the queue length only grows during this phase.
                while g.queued() != (t - 1) as usize {
                    std::thread::yield_now();
                }
                let a = slot(&g, None);
                assert!(matches!(a, Admission::Queued(_)));
                order.lock().unwrap().push(t);
                g.release(1);
            }));
        }
        // Wait until all four are queued, then open the gate.
        while g.queued() < 4 {
            std::thread::yield_now();
        }
        g.release(1);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3, 4]);
        // Nothing running: the one slot is free again.
        assert_eq!(g.available(), 1);
    }
}
