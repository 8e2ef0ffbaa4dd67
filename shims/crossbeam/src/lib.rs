//! Offline shim for the `crossbeam` API subset used by this workspace:
//! `crossbeam::channel` (unbounded MPMC channel). Backed by std primitives —
//! correct, if less scalable than the real crate.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    struct Shared<T> {
        queue: Mutex<Inner<T>>,
        ready: Condvar,
    }

    struct Inner<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Sending half; cheap to clone.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// Receiving half; cheap to clone (MPMC).
    pub struct Receiver<T>(Arc<Shared<T>>);

    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Inner { items: VecDeque::new(), senders: 1, receivers: 1 }),
            ready: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.0.queue.lock().unwrap().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.0.queue.lock().unwrap().senders -= 1;
            self.0.ready.notify_all();
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.0.queue.lock().unwrap().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.queue.lock().unwrap().receivers -= 1;
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.0.queue.lock().unwrap();
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            inner.items.push_back(value);
            drop(inner);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.0.queue.lock().unwrap();
            loop {
                if let Some(v) = inner.items.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.0.ready.wait(inner).unwrap();
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.0.queue.lock().unwrap();
            match inner.items.pop_front() {
                Some(v) => Ok(v),
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut inner = self.0.queue.lock().unwrap();
            loop {
                if let Some(v) = inner.items.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (g, res) = self.0.ready.wait_timeout(inner, deadline - now).unwrap();
                inner = g;
                if res.timed_out() && inner.items.is_empty() {
                    if inner.senders == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        pub fn is_empty(&self) -> bool {
            self.0.queue.lock().unwrap().items.is_empty()
        }

        pub fn len(&self) -> usize {
            self.0.queue.lock().unwrap().items.len()
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn channel_mpmc() {
        let (tx, rx) = super::channel::unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        drop(tx2);
        assert!(rx.recv().is_err());
    }
}
