//! Offline vendored subset of the [`crossbeam`](https://docs.rs/crossbeam)
//! API.
//!
//! The build environment has no network access to crates.io, so the
//! workspace ships the two crossbeam features it uses:
//!
//! * [`channel::unbounded`] — a multi-producer channel with cloneable
//!   senders and `try_iter` draining (a `Mutex<VecDeque>` underneath; the
//!   runtime drains between barriers, so lock contention is not on the
//!   critical path);
//! * [`thread::scope`] — scoped threads, implemented on top of
//!   `std::thread::scope` with crossbeam's closure signature (the spawn
//!   closure receives the scope, and `scope` returns a `Result`).

/// MPMC channels (subset of `crossbeam::channel`).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::Arc;

    #[expect(
        clippy::disallowed_types,
        reason = "the channel's queue; each send or receive holds it alone"
    )]
    struct Inner<T> {
        queue: std::sync::Mutex<VecDeque<T>>,
    }

    /// The sending half; cloneable across threads.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    /// The receiving half.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned when the channel is disconnected (cannot happen with
    /// this shim's lifetime discipline, but kept for API parity).
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message (never blocks; the channel is unbounded).
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.inner
                .queue
                .lock()
                .expect("channel poisoned")
                .push_back(msg);
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Iterator draining every message currently in the channel
        /// without blocking.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }
    }

    /// Iterator over currently available messages.
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver
                .inner
                .queue
                .lock()
                .expect("channel poisoned")
                .pop_front()
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: VecDeque::new().into(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }
}

/// Scoped threads (subset of `crossbeam::thread`).
pub mod thread {
    use std::any::Any;

    /// A scope handle; lets spawned threads borrow from the enclosing
    /// stack frame.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to a scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the thread and returns its result (`Err` if it
        /// panicked).
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. As in crossbeam, the closure receives
        /// the scope (allowing nested spawns).
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: self.inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Runs `f` with a scope in which borrowed-data threads can be
    /// spawned; all threads are joined before this returns.
    ///
    /// Unlike crossbeam, a panic in an unjoined child propagates as a
    /// panic out of `scope` (std semantics) instead of arriving as `Err`;
    /// every caller in this workspace treats both identically (via
    /// `expect`).
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn channel_delivers_in_order_across_clones() {
        let (tx, rx) = super::channel::unbounded::<u32>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        let got: Vec<u32> = rx.try_iter().collect();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(rx.try_iter().count(), 0);
    }

    #[test]
    fn scope_borrows_and_joins() {
        let data = [1u64, 2, 3, 4];
        let mut results = vec![0u64; 2];
        super::thread::scope(|s| {
            let mut handles = Vec::new();
            for chunk in data.chunks(2) {
                handles.push(s.spawn(move |_| chunk.iter().sum::<u64>()));
            }
            for (slot, h) in results.iter_mut().zip(handles) {
                *slot = h.join().unwrap();
            }
        })
        .unwrap();
        assert_eq!(results, vec![3, 7]);
    }
}
