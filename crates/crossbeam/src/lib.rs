//! Offline shim for the `crossbeam` crate (the build environment has no
//! crates.io access). One surface is provided: `crossbeam::channel`, the
//! bounded batch channels of the parallel executor's interconnect.
//!
//! The implementation favours simplicity over the lock-free algorithms of
//! the real crate: each channel is a `Mutex<VecDeque>` ring with two
//! Condvars. The channels move row *batches*, so the lock is far from the
//! bottleneck. Only untimed blocking `send`/`recv` exist, with
//! `crossbeam-channel`'s disconnect semantics, plus a `Closer` that
//! disconnects a channel on demand (how an abort wakes a blocked end).

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
