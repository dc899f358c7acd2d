//! Offline shim for the `crossbeam` crate (the build environment has no
//! crates.io access). Two surfaces are provided: `crossbeam::deque` (the
//! GPOS scheduler's work-distribution queues) and `crossbeam::channel`
//! (the bounded batch channels of the parallel executor's interconnect).
//!
//! The implementation favours simplicity over the lock-free Chase–Lev
//! algorithm of the real crate: each queue is a `Mutex<VecDeque>`. The
//! scheduler's jobs are coarse enough (rule binding, costing) that queue
//! transfer time is noise; fairness and the `Steal` protocol (including
//! `steal_batch_and_pop` moving half the injector backlog to the local
//! queue) are preserved so the scheduler code runs unchanged. Likewise
//! the channels move row *batches*, so a Mutex+Condvar ring is far from
//! the bottleneck. Only untimed blocking `send`/`recv` exist, with
//! `crossbeam-channel`'s disconnect semantics, plus a `Closer` that
//! disconnects a channel on demand (how an abort wakes a blocked end).

pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Result of a steal attempt, mirroring `crossbeam::deque::Steal`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        Empty,
        Success(T),
        Retry,
    }

    type Shared<T> = Arc<Mutex<VecDeque<T>>>;

    fn locked<T, R>(q: &Shared<T>, f: impl FnOnce(&mut VecDeque<T>) -> R) -> R {
        f(&mut q.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// A worker-owned FIFO queue other threads can steal from.
    pub struct Worker<T> {
        q: Shared<T>,
    }

    impl<T> Worker<T> {
        pub fn new_fifo() -> Worker<T> {
            Worker {
                q: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        pub fn push(&self, item: T) {
            locked(&self.q, |q| q.push_back(item));
        }

        pub fn pop(&self) -> Option<T> {
            locked(&self.q, |q| q.pop_front())
        }

        pub fn is_empty(&self) -> bool {
            locked(&self.q, |q| q.is_empty())
        }

        pub fn stealer(&self) -> Stealer<T> {
            Stealer { q: self.q.clone() }
        }
    }

    /// A handle for stealing from another worker's queue.
    pub struct Stealer<T> {
        q: Shared<T>,
    }

    impl<T> Stealer<T> {
        pub fn steal(&self) -> Steal<T> {
            match locked(&self.q, |q| q.pop_front()) {
                Some(item) => Steal::Success(item),
                None => Steal::Empty,
            }
        }
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Stealer<T> {
            Stealer { q: self.q.clone() }
        }
    }

    /// The global injection queue shared by all workers.
    pub struct Injector<T> {
        q: Mutex<VecDeque<T>>,
    }

    impl<T> Injector<T> {
        #[allow(clippy::new_without_default)]
        pub fn new() -> Injector<T> {
            Injector {
                q: Mutex::new(VecDeque::new()),
            }
        }

        pub fn push(&self, item: T) {
            self.q
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(item);
        }

        pub fn is_empty(&self) -> bool {
            self.q.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
        }

        pub fn steal(&self) -> Steal<T> {
            match self.q.lock().unwrap_or_else(|e| e.into_inner()).pop_front() {
                Some(item) => Steal::Success(item),
                None => Steal::Empty,
            }
        }

        /// Move up to half the backlog into `dest`'s queue and pop one item.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut batch = {
                let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
                if q.is_empty() {
                    return Steal::Empty;
                }
                let take = q.len().div_ceil(2).min(32);
                q.drain(..take).collect::<VecDeque<T>>()
            };
            let first = batch.pop_front().expect("non-empty batch");
            if !batch.is_empty() {
                locked(&dest.q, |q| q.extend(batch));
            }
            Steal::Success(first)
        }
    }
}

pub mod channel {
    //! Bounded channels with one sender and one receiver each, mirroring
    //! the `crossbeam-channel` API subset the interconnect uses: blocking
    //! `send`/`recv`, queue depth (`len`), and disconnection when the
    //! other side drops. A [`Closer`] disconnects a channel on demand,
    //! which is how an abort wakes a thread blocked on one. A
    //! zero-capacity request is rounded up to one slot (the shim has no
    //! rendezvous mode; the interconnect always wants at least one
    //! in-flight batch).

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    struct State<T> {
        buf: VecDeque<T>,
        /// Either side dropped, or a [`Closer`] fired.
        closed: bool,
    }

    struct Inner<T> {
        cap: usize,
        state: Mutex<State<T>>,
        /// Signalled when a slot frees up or the channel closes.
        not_full: Condvar,
        /// Signalled when a message arrives or the channel closes.
        not_empty: Condvar,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn close(&self) {
            self.lock().closed = true;
            self.not_full.notify_all();
            self.not_empty.notify_all();
        }
    }

    /// Create a bounded channel with room for `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            cap: cap.max(1),
            state: Mutex::new(State {
                buf: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Disconnects a channel without being one of its ends.
    pub struct Closer<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> Closer<T> {
        /// Close the channel as if both ends had dropped: every blocked
        /// and later `send` fails, and `recv` fails once the buffer is
        /// drained.
        pub fn close(&self) {
            self.inner.close();
        }
    }

    impl<T> Sender<T> {
        /// Block until the message is enqueued or the channel closes.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.inner.lock();
            loop {
                if state.closed {
                    return Err(SendError(msg));
                }
                if state.buf.len() < self.inner.cap {
                    state.buf.push_back(msg);
                    drop(state);
                    self.inner.not_empty.notify_one();
                    return Ok(());
                }
                state = self
                    .inner
                    .not_full
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Messages currently queued (racy; for observability only).
        pub fn len(&self) -> usize {
            self.inner.lock().buf.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.inner.close();
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives; fails once the channel is closed
        /// and drained.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.inner.lock();
            loop {
                if let Some(m) = state.buf.pop_front() {
                    drop(state);
                    self.inner.not_full.notify_one();
                    return Ok(m);
                }
                if state.closed {
                    return Err(RecvError);
                }
                state = self
                    .inner
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// A handle that can close this channel from any thread.
        pub fn closer(&self) -> Closer<T> {
            Closer {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.close();
        }
    }
}

#[cfg(test)]
mod channel_tests {
    use super::channel::bounded;
    use std::time::Duration;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(tx.is_empty());
    }

    #[test]
    fn backpressure_blocks_and_drains() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        assert_eq!(tx.len(), 1); // full: the next send blocks
        let h = std::thread::spawn(move || {
            for i in 1..100u32 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().unwrap());
        }
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn drop_disconnects_both_ways() {
        let (tx, rx) = bounded(2);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7)); // buffered survives sender drop
        assert!(rx.recv().is_err());
        let (tx2, rx2) = bounded(1);
        drop(rx2);
        assert!(tx2.send(1).is_err());
    }

    #[test]
    fn blocked_sender_wakes_on_receiver_drop() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let h = std::thread::spawn(move || tx.send(1).is_err());
        std::thread::sleep(Duration::from_millis(10));
        drop(rx);
        // The blocked send must observe the disconnect and error out.
        assert!(h.join().unwrap());
    }

    #[test]
    fn close_wakes_both_sides_while_the_peers_live() {
        // A sender parked on a full channel.
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let closer = rx.closer();
        let h = std::thread::spawn(move || tx.send(1).is_err());
        std::thread::sleep(Duration::from_millis(10));
        closer.close();
        assert!(h.join().unwrap());
        assert_eq!(rx.recv(), Ok(0)); // the buffer still drains
        assert!(rx.recv().is_err());

        // A receiver parked on an empty channel.
        let (tx, rx) = bounded::<u32>(1);
        let closer = rx.closer();
        let h = std::thread::spawn(move || rx.recv().is_err());
        std::thread::sleep(Duration::from_millis(10));
        closer.close();
        assert!(h.join().unwrap());
        drop(tx);
    }
}

#[cfg(test)]
mod tests {
    use super::deque::{Injector, Steal, Worker};

    #[test]
    fn fifo_and_steal_protocol() {
        let w: Worker<u32> = Worker::new_fifo();
        w.push(1);
        w.push(2);
        assert_eq!(w.pop(), Some(1));
        let s = w.stealer();
        assert_eq!(s.steal(), Steal::Success(2));
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn injector_batch_moves_work() {
        let inj: Injector<u32> = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        let w = Worker::new_fifo();
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(0));
        // Half the backlog (5 items) moved; first was popped, 4 remain local.
        assert_eq!(w.pop(), Some(1));
        assert!(!inj.is_empty());
    }

    #[test]
    fn cross_thread_stealing() {
        let w: Worker<u32> = Worker::new_fifo();
        for i in 0..100 {
            w.push(i);
        }
        let s = w.stealer();
        let total: u32 = std::thread::scope(|scope| {
            let h = scope.spawn(move || {
                let mut n = 0;
                while let Steal::Success(_) = s.steal() {
                    n += 1;
                }
                n
            });
            let mut n = 0;
            while w.pop().is_some() {
                n += 1;
            }
            n + h.join().unwrap()
        });
        assert_eq!(total, 100);
    }
}
