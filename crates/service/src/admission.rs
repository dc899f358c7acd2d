//! Admission control: a bounded set of concurrent optimizations plus a
//! FIFO overflow queue.
//!
//! The gate is the service's load shedder. At most `max_concurrent`
//! requests optimize at once; up to `queue_depth` more wait in arrival
//! order; everyone else is rejected immediately so the caller can degrade
//! to a heuristic plan instead of piling onto a saturated optimizer.
//!
//! Deliberately built on `std::sync::{Mutex, Condvar}` — the vendored
//! `parking_lot` shim has no condition variable, and the queue wait path
//! blocks until a release or the request's own deadline
//! ([`orca_gpos::wait_until`]).

use orca_gpos::wait_until;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Outcome of [`AdmissionGate::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A slot was free; no waiting.
    Immediate,
    /// Waited in the overflow queue for this long before getting a slot.
    Queued(Duration),
    /// Overflow queue full — shed immediately.
    Rejected,
    /// The request's deadline expired while still queued.
    TimedOut,
}

#[derive(Debug, Default)]
struct GateState {
    running: usize,
    /// Ticket ids in arrival order; the head is next to admit.
    queue: VecDeque<u64>,
}

#[derive(Debug)]
pub struct AdmissionGate {
    max_concurrent: usize,
    queue_depth: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl AdmissionGate {
    pub fn new(max_concurrent: usize, queue_depth: usize) -> AdmissionGate {
        AdmissionGate {
            max_concurrent: max_concurrent.max(1),
            queue_depth,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    /// Try to enter the optimize section. On `Immediate`/`Queued` the
    /// caller MUST call [`AdmissionGate::release`] when done; on
    /// `Rejected`/`TimedOut` it must not.
    pub fn acquire(&self, ticket: u64, deadline: Option<Instant>) -> Admission {
        let mut st = self.state.lock().expect("gate poisoned");
        if st.running < self.max_concurrent && st.queue.is_empty() {
            st.running += 1;
            return Admission::Immediate;
        }
        if st.queue.len() >= self.queue_depth {
            return Admission::Rejected;
        }
        let enqueued = Instant::now();
        st.queue.push_back(ticket);
        loop {
            if st.running < self.max_concurrent && st.queue.front() == Some(&ticket) {
                st.queue.pop_front();
                st.running += 1;
                // The next waiter may also be admittable (multiple releases
                // can land between our wakeups).
                self.cv.notify_all();
                return Admission::Queued(enqueued.elapsed());
            }
            st = match wait_until(&self.cv, st, deadline) {
                Ok(guard) => guard,
                Err(mut st) => {
                    st.queue.retain(|t| *t != ticket);
                    // Our departure may unblock the head-of-line check
                    // for whoever is behind us.
                    self.cv.notify_all();
                    return Admission::TimedOut;
                }
            };
        }
    }

    /// Leave the optimize section, waking queued waiters.
    pub fn release(&self) {
        let mut st = self.state.lock().expect("gate poisoned");
        st.running = st.running.saturating_sub(1);
        drop(st);
        self.cv.notify_all();
    }

    /// Currently-running count (tests / introspection).
    pub fn running(&self) -> usize {
        self.state.lock().expect("gate poisoned").running
    }

    /// Currently-queued count (tests / introspection).
    pub fn queued(&self) -> usize {
        self.state.lock().expect("gate poisoned").queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn immediate_until_full_then_rejects_past_queue() {
        let g = AdmissionGate::new(2, 1);
        assert_eq!(g.acquire(1, None), Admission::Immediate);
        assert_eq!(g.acquire(2, None), Admission::Immediate);
        // Slots full, queue depth 1: the third waits (use a deadline so the
        // test can't hang), the fourth is rejected while 3 occupies the
        // queue.
        let g = Arc::new(AdmissionGate::new(1, 0));
        assert_eq!(g.acquire(1, None), Admission::Immediate);
        assert_eq!(g.acquire(2, None), Admission::Rejected);
        g.release();
        assert_eq!(g.acquire(3, None), Admission::Immediate);
    }

    #[test]
    fn queued_request_times_out_at_deadline() {
        let g = AdmissionGate::new(1, 4);
        assert_eq!(g.acquire(1, None), Admission::Immediate);
        let d = Instant::now() + Duration::from_millis(20);
        assert_eq!(g.acquire(2, Some(d)), Admission::TimedOut);
        assert_eq!(g.queued(), 0);
        g.release();
    }

    #[test]
    fn fifo_order_and_handoff() {
        let g = Arc::new(AdmissionGate::new(1, 8));
        assert_eq!(g.acquire(0, None), Admission::Immediate);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 1..=4u64 {
            let g = g.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                // Stagger arrivals so queue order is deterministic: the gate
                // is held by ticket 0 until all four are queued, so the
                // queue length only grows during this phase.
                while g.queued() != (t - 1) as usize {
                    std::thread::yield_now();
                }
                let a = g.acquire(t, None);
                assert!(matches!(a, Admission::Queued(_)));
                order.lock().unwrap().push(t);
                g.release();
            }));
        }
        // Wait until all four are queued, then open the gate.
        while g.queued() < 4 {
            std::thread::yield_now();
        }
        g.release();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(g.running(), 0);
    }
}
