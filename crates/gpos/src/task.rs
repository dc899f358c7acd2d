//! Cooperative cancellation and error capture.
//!
//! Orca's exception handling unwinds an optimization session when a job
//! raises; here a failing job records its error in the shared
//! [`AbortSignal`], every worker observes the flag and stops picking up
//! work, and the session entry point surfaces the first recorded error.
//! Deadlines implement the per-stage timeouts of §4.1 (multi-stage
//! optimization).
//!
//! Blocked threads never poll the signal: they register a waker with
//! [`AbortSignal::on_abort`] and wake on progress or abort, not a clock.

use orca_common::{OrcaError, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, MutexGuard, PoisonError};
use std::time::Instant;

type Waker = Box<dyn FnOnce() + Send>;

/// Registered wakers, keyed so a registration can be withdrawn.
#[derive(Default)]
struct Wakers {
    next_id: u64,
    list: Vec<(u64, Waker)>,
}

impl std::fmt::Debug for Wakers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} wakers", self.list.len())
    }
}

/// Shared cancellation token for one optimization session (or stage).
///
/// The hot path ([`AbortSignal::is_aborted`]) is lock-free — it is called
/// once per scheduler job step by every worker, so a mutex here would
/// serialize the whole optimizer.
#[derive(Debug)]
pub struct AbortSignal {
    aborted: AtomicBool,
    reason: Mutex<Option<OrcaError>>,
    /// Deadline as nanoseconds after `base`; 0 = no deadline.
    deadline_ns: AtomicU64,
    base: Instant,
    /// Run once by whichever call trips the flag.
    wakers: Mutex<Wakers>,
}

impl Default for AbortSignal {
    fn default() -> AbortSignal {
        AbortSignal {
            aborted: AtomicBool::new(false),
            reason: Mutex::new(None),
            deadline_ns: AtomicU64::new(0),
            base: Instant::now(),
            wakers: Mutex::new(Wakers::default()),
        }
    }
}

impl AbortSignal {
    pub fn new() -> AbortSignal {
        AbortSignal::default()
    }

    /// Install a deadline; [`AbortSignal::check`] starts failing once it has
    /// passed.
    pub fn set_deadline(&self, deadline: Instant) {
        let ns = deadline
            .saturating_duration_since(self.base)
            .as_nanos()
            .max(1) as u64;
        self.deadline_ns.store(ns, Ordering::SeqCst);
    }

    pub fn clear_deadline(&self) {
        self.deadline_ns.store(0, Ordering::SeqCst);
    }

    /// The installed deadline. A wait on another process is bounded by
    /// it, since nothing local may notice the expiry meanwhile.
    pub fn deadline(&self) -> Option<Instant> {
        match self.deadline_ns.load(Ordering::SeqCst) {
            0 => None,
            ns => Some(self.base + std::time::Duration::from_nanos(ns)),
        }
    }

    /// Record an error and trip the flag. The first error wins; later ones
    /// are dropped (they are almost always consequences of the first).
    /// The call that trips the flag runs the registered wakers.
    pub fn abort_with(&self, err: OrcaError) {
        {
            let mut r = self.reason.lock();
            if r.is_none() {
                *r = Some(err);
            }
        }
        self.aborted.store(true, Ordering::SeqCst);
        let wakers = std::mem::take(&mut self.wakers.lock().list);
        for (_, wake) in wakers {
            wake();
        }
    }

    /// Trip the flag without an error payload (external cancellation).
    pub fn abort(&self) {
        self.abort_with(OrcaError::Aborted("cancelled".into()));
    }

    /// Whether the signal has tripped, noticing (and tripping on) an
    /// expired deadline — which runs the wakers on this thread.
    pub fn is_aborted(&self) -> bool {
        if self.aborted.load(Ordering::Relaxed) {
            return true;
        }
        let deadline = self.deadline_ns.load(Ordering::Relaxed);
        if deadline != 0 && self.base.elapsed().as_nanos() as u64 >= deadline {
            self.abort_with(OrcaError::Timeout("deadline expired".into()));
            return true;
        }
        false
    }

    /// The plain flag, read without noticing the deadline (so without
    /// running wakers): the read to use under a lock a waker takes.
    pub fn is_tripped(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Run `waker` once when the signal trips (`abort`, `abort_with`, or
    /// a deadline expiry `is_aborted` notices), on the tripping thread with
    /// no lock of the signal held; at once if it has tripped already.
    /// Dropping the guard withdraws the waker; `reset` drops them all.
    ///
    /// Wakers take their waiter's lock, so under that lock a waiter reads
    /// [`AbortSignal::is_tripped`], never `check`/`is_aborted`. Register
    /// at setup, before any such lock is taken.
    #[must_use = "dropping the guard withdraws the waker"]
    pub fn on_abort(&self, waker: impl FnOnce() + Send + 'static) -> OnAbort<'_> {
        let mut wakers = self.wakers.lock();
        wakers.next_id += 1;
        let id = wakers.next_id;
        if self.is_tripped() {
            drop(wakers);
            waker();
        } else {
            wakers.list.push((id, Box::new(waker)));
        }
        OnAbort { signal: self, id }
    }

    /// Whether the abort (if any) was caused by deadline expiry rather than
    /// a hard error. Search drivers use this to truncate gracefully — a
    /// timed-out phase leaves a consistent (if incomplete) memo — while
    /// still surfacing real errors.
    pub fn deadline_expired(&self) -> bool {
        self.is_aborted() && matches!(&*self.reason.lock(), Some(OrcaError::Timeout(_)))
    }

    /// `Err` once aborted; call this at job boundaries and inside long loops.
    pub fn check(&self) -> Result<()> {
        if self.is_aborted() {
            Err(self.error())
        } else {
            Ok(())
        }
    }

    /// The recorded error, or a generic `Aborted` if only the flag was set.
    pub fn error(&self) -> OrcaError {
        self.reason
            .lock()
            .clone()
            .unwrap_or_else(|| OrcaError::Aborted("aborted".into()))
    }

    /// Reset for reuse across optimization stages. Only meaningful between
    /// `Scheduler::run` calls.
    pub fn reset(&self) {
        self.aborted.store(false, Ordering::SeqCst);
        *self.reason.lock() = None;
        self.deadline_ns.store(0, Ordering::SeqCst);
        self.wakers.lock().list.clear();
    }
}

/// A waker registration; see [`AbortSignal::on_abort`].
pub struct OnAbort<'a> {
    signal: &'a AbortSignal,
    id: u64,
}

impl Drop for OnAbort<'_> {
    fn drop(&mut self) {
        let mut wakers = self.signal.wakers.lock();
        wakers.list.retain(|(id, _)| *id != self.id);
    }
}

/// Wait on `cv` until notified, at most until `deadline` if given. Past
/// the deadline this returns `Err(guard)` without waiting, so the caller
/// gives up still holding the lock. A poisoned lock is recovered.
pub fn wait_until<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    deadline: Option<Instant>,
) -> std::result::Result<MutexGuard<'a, T>, MutexGuard<'a, T>> {
    match deadline {
        None => Ok(cv.wait(guard).unwrap_or_else(PoisonError::into_inner)),
        Some(d) => {
            let now = Instant::now();
            if now >= d {
                return Err(guard);
            }
            let (guard, _) = cv
                .wait_timeout(guard, d - now)
                .unwrap_or_else(PoisonError::into_inner);
            Ok(guard)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn abort_records_first_error() {
        let s = AbortSignal::new();
        assert!(s.check().is_ok());
        s.abort_with(OrcaError::Internal("first".into()));
        s.abort_with(OrcaError::Internal("second".into()));
        assert!(s.is_aborted());
        assert_eq!(s.error(), OrcaError::Internal("first".into()));
    }

    #[test]
    fn deadline_trips_typed_timeout() {
        let s = AbortSignal::new();
        s.set_deadline(Instant::now() - Duration::from_millis(1));
        assert!(s.check().is_err());
        assert_eq!(s.error().kind(), "timeout");
        assert!(s.deadline_expired());
        // An externally-cancelled signal is NOT a deadline expiry.
        let c = AbortSignal::new();
        c.abort();
        assert!(!c.deadline_expired());
        assert_eq!(c.error().kind(), "aborted");
    }

    fn counter() -> (Arc<AtomicUsize>, impl Fn() -> Box<dyn FnOnce() + Send>) {
        let n = Arc::new(AtomicUsize::new(0));
        let m = Arc::clone(&n);
        let make = move || -> Box<dyn FnOnce() + Send> {
            let m = Arc::clone(&m);
            Box::new(move || {
                m.fetch_add(1, Ordering::SeqCst);
            })
        };
        (n, make)
    }

    #[test]
    fn every_kind_of_trip_runs_each_waker_once() {
        let (n, waker) = counter();
        let s = AbortSignal::new();
        let _a = s.on_abort(waker());
        let _b = s.on_abort(waker());
        s.abort_with(OrcaError::Internal("first".into()));
        s.abort();
        assert_eq!(n.load(Ordering::SeqCst), 2);
        // Registered after the trip: runs at once.
        let _c = s.on_abort(waker());
        assert_eq!(n.load(Ordering::SeqCst), 3);

        // A deadline expiry trips through whoever notices it.
        let (n, waker) = counter();
        let d = AbortSignal::new();
        let _w = d.on_abort(waker());
        d.set_deadline(Instant::now() - Duration::from_millis(1));
        assert!(
            !d.is_tripped(),
            "the plain flag never looks at the deadline"
        );
        assert_eq!(n.load(Ordering::SeqCst), 0);
        assert!(d.is_aborted());
        assert!(d.is_aborted());
        assert_eq!(n.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropped_guard_and_reset_withdraw_wakers() {
        let (n, waker) = counter();
        let s = AbortSignal::new();
        drop(s.on_abort(waker()));
        let _kept = s.on_abort(waker());
        s.reset();
        s.abort();
        assert_eq!(n.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn waker_wakes_a_condvar_waiter_from_another_thread() {
        let s = Arc::new(AbortSignal::new());
        let state = Arc::new((std::sync::Mutex::new(()), Condvar::new()));
        let woken = Arc::clone(&state);
        let _w = s.on_abort(move || {
            drop(woken.0.lock());
            woken.1.notify_all();
        });
        let t = std::thread::spawn({
            let s = Arc::clone(&s);
            move || {
                std::thread::sleep(Duration::from_millis(5));
                s.abort();
            }
        });
        let mut g = state.0.lock().unwrap();
        while !s.is_tripped() {
            g = wait_until(&state.1, g, None).unwrap();
        }
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn wait_until_gives_up_at_the_deadline() {
        let m = std::sync::Mutex::new(());
        let cv = Condvar::new();
        let past = Instant::now() - Duration::from_millis(1);
        assert!(wait_until(&cv, m.lock().unwrap(), Some(past)).is_err());
        let soon = Instant::now() + Duration::from_millis(5);
        assert!(wait_until(&cv, m.lock().unwrap(), Some(soon)).is_ok());
    }

    #[test]
    fn reset_clears_state() {
        let s = AbortSignal::new();
        s.abort();
        s.reset();
        assert!(s.check().is_ok());
    }
}
