//! Synchronization primitives over `std::sync`.
//!
//! [`Mutex`] and [`RwLock`] are thin poison-transparent wrappers with
//! the `parking_lot` calling convention (`lock()`/`read()`/`write()`
//! return guards directly — a poisoned lock just hands back the inner
//! guard, since hiloc treats a panic while holding a lock as fatal to
//! the test/process, not to the lock). [`channel`] is a multi-producer
//! queue with a non-blocking send and disconnect semantics, standing
//! in for `crossbeam::channel`. [`spin_poll`] is the receive rule every
//! real transport shares: a hot receiver polls briefly before it naps.

// lint:allow-file(wallclock) condvar timeouts and the receive spin are wall-clock deadlines

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A mutual-exclusion lock that does not surface poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a lock holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A readers-writer lock that does not surface poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the exclusive write guard.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// The longest a hot receiver polls before it falls back to a timed
/// wait ([`spin_poll`]). A wake-up from a timed wait costs tens of
/// microseconds; a reply that crosses one other thread usually arrives
/// within this budget, and an idle receiver gives its core back after
/// it.
pub const SPIN: Duration = Duration::from_micros(50);

/// The spin budget on a host with `cpus` cores: [`SPIN`], or zero on
/// one core, where a spinning receiver only delays the thread that
/// would send to it.
pub fn spin_budget(cpus: usize) -> Duration {
    if cpus > 1 {
        SPIN
    } else {
        Duration::ZERO
    }
}

/// [`spin_budget`] for this process's available parallelism, read
/// once.
pub fn host_spin_budget() -> Duration {
    static BUDGET: OnceLock<Duration> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        spin_budget(std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The receive rule of every real transport. A receiver whose last
/// call received traffic is *hot*, and a hot receiver calls this before
/// it blocks: `poll`, which must not block, runs until it returns
/// something or `min(budget, nap)` has passed, and the thread yields
/// its core between polls. `poll` runs at least once, even on a zero
/// budget.
///
/// Returns `poll`'s first `Some`, or `Err(left)` once the spin ran
/// out: `left` is what remains of `nap` for the caller's timed wait
/// (zero when the spin used all of it).
pub fn spin_poll<T>(
    budget: Duration,
    nap: Duration,
    mut poll: impl FnMut() -> Option<T>,
) -> Result<T, Duration> {
    let limit = budget.min(nap);
    let start = Instant::now();
    loop {
        if let Some(got) = poll() {
            return Ok(got);
        }
        let spun = start.elapsed();
        if spun >= limit {
            return Err(nap.saturating_sub(spun));
        }
        std::thread::yield_now();
    }
}

pub mod channel {
    //! Unbounded and bounded channels with `recv_timeout` and
    //! crossbeam-style disconnect semantics.
    //!
    //! Senders are cheap to clone; the receiver observes disconnection
    //! once every sender is dropped **and** the queue has drained.
    //! The one send, [`Sender::try_send`], never blocks: on a full
    //! bounded channel ([`bounded`]) it reports [`TrySendError::Full`]
    //! — the primitive behind the sharded runtime's shed-on-overload
    //! inboxes — and on an unbounded one it never does. Since no sender
    //! ever waits, a receive wakes nobody: the only condition variable
    //! is the receiver's.

    use super::{spin_poll, Mutex};
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Condvar};
    use std::time::{Duration, Instant};

    /// Outcome of a failed [`Sender::try_send`]; both hand the value
    /// back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// A bounded queue is at capacity: the caller sheds (count +
        /// drop) or retries.
        Full(T),
        /// The receiver has been dropped.
        Disconnected(T),
    }

    /// Blocking receive on a channel with no remaining senders.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Outcome of a non-blocking receive attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    /// Outcome of a bounded-wait receive attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait elapsed with nothing queued.
        Timeout,
        /// Every sender is gone and the queue is drained.
        Disconnected,
    }

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver_alive: bool,
        /// `None` for unbounded channels.
        cap: Option<usize>,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        /// Signalled when a message is queued or the last sender goes.
        available: Condvar,
    }

    /// The sending half; clone freely.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
        /// Set by [`Receiver::recv_spinning`]; a stale read costs one spin.
        hot: AtomicBool,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Sender").finish_non_exhaustive()
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Receiver").finish_non_exhaustive()
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    /// Creates a bounded channel holding at most `cap` messages;
    /// [`Sender::try_send`] returns [`TrySendError::Full`] beyond that,
    /// letting the caller shed.
    ///
    /// # Panics
    ///
    /// Panics when `cap == 0`: a zero-capacity rendezvous channel is
    /// not supported (every `try_send` would shed).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "bounded channel capacity must be at least 1");
        new_channel(Some(cap))
    }

    fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receiver_alive: true,
                cap,
            }),
            available: Condvar::new(),
        });
        (Sender { inner: Arc::clone(&inner) }, Receiver { inner, hot: AtomicBool::new(false) })
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().senders += 1;
            Sender { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.inner.available.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.state.lock().receiver_alive = false;
        }
    }

    impl<T> Sender<T> {
        /// Non-blocking enqueue.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] when a bounded queue is at capacity
        /// (the shed outcome; never on an unbounded channel),
        /// [`TrySendError::Disconnected`] when the receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.inner.state.lock();
            if !st.receiver_alive {
                return Err(TrySendError::Disconnected(value));
            }
            if st.cap.is_some_and(|cap| st.queue.len() >= cap) {
                return Err(TrySendError::Full(value));
            }
            st.queue.push_back(value);
            drop(st);
            self.inner.available.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives.
        ///
        /// # Errors
        ///
        /// Returns an error when all senders are gone and the queue is
        /// empty.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.inner.state.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .inner
                    .available
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Blocks up to `timeout` for a message.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] when the wait elapses,
        /// [`RecvTimeoutError::Disconnected`] when no sender remains.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.inner.state.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .inner
                    .available
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        }

        /// [`recv_timeout`](Receiver::recv_timeout) for up to `nap` under
        /// the receive rule ([`spin_poll`]): a receiver whose last call got
        /// a message is *hot*, and polls for up to `min(budget, nap)`
        /// ([`host_spin_budget`](super::host_spin_budget), 0 on one core)
        /// before a timed wait for the rest, whose expiry alone cools it.
        ///
        /// # Errors
        ///
        /// As [`recv_timeout`](Receiver::recv_timeout).
        pub fn recv_spinning(&self, nap: Duration) -> Result<T, RecvTimeoutError> {
            self.spin_then_wait(super::host_spin_budget(), nap)
        }

        /// [`recv_spinning`](Receiver::recv_spinning) with an explicit budget.
        fn spin_then_wait(&self, spin: Duration, nap: Duration) -> Result<T, RecvTimeoutError> {
            let mut wait = nap;
            if self.hot.load(Ordering::Relaxed) && !spin.is_zero() {
                let polled = spin_poll(spin, nap, || match self.try_recv() {
                    Err(TryRecvError::Empty) => None,
                    got => Some(got.map_err(|_| RecvTimeoutError::Disconnected)),
                });
                match polled {
                    Ok(got) => return got,
                    // The spin used the whole nap: no wait ran out.
                    Err(left) if left.is_zero() => return Err(RecvTimeoutError::Timeout),
                    Err(left) => wait = left,
                }
            }
            let got = self.recv_timeout(wait);
            self.hot.store(got.is_ok(), Ordering::Relaxed);
            got
        }

        /// Non-blocking receive.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] or [`TryRecvError::Disconnected`].
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.inner.state.lock();
            match st.queue.pop_front() {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn try_recv_states() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.try_send(7).unwrap();
            assert_eq!(rx.try_recv(), Ok(7));
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn disconnect_drains_queue_first() {
            let (tx, rx) = unbounded();
            tx.try_send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn timeout_elapses() {
            let (_tx, rx) = unbounded::<u32>();
            let err = rx.recv_timeout(Duration::from_millis(10)).unwrap_err();
            assert_eq!(err, RecvTimeoutError::Timeout);
        }

        #[test]
        fn clone_tracks_sender_count() {
            let (tx, rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            drop(tx);
            tx2.try_send(3).unwrap();
            drop(tx2);
            assert_eq!(rx.recv(), Ok(3));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn cross_thread_wakeup() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.try_send(99u64).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(99));
            h.join().unwrap();
        }

        #[test]
        fn bounded_try_send_sheds_when_full() {
            let (tx, rx) = bounded::<u32>(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            // Popping one frees one slot.
            assert_eq!(rx.recv(), Ok(1));
            tx.try_send(3).unwrap();
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        }

        #[test]
        fn try_send_to_dropped_receiver_is_disconnected() {
            let (tx, rx) = bounded::<u32>(1);
            drop(rx);
            assert_eq!(tx.try_send(7), Err(TrySendError::Disconnected(7)));
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.try_send(5), Err(TrySendError::Disconnected(5)));
        }

        #[test]
        fn unbounded_try_send_never_full() {
            let (tx, rx) = unbounded::<u32>();
            for i in 0..10_000 {
                tx.try_send(i).unwrap();
            }
            drop(tx);
            assert_eq!(std::iter::from_fn(|| rx.try_recv().ok()).count(), 10_000);
        }

        /// A spin budget far above any test's send delay.
        const LONG_SPIN: Duration = Duration::from_secs(5);

        /// Makes `rx` hot: one message through `spin_then_wait`.
        fn heat(tx: &Sender<u32>, rx: &Receiver<u32>) {
            tx.try_send(0).unwrap();
            assert_eq!(rx.spin_then_wait(LONG_SPIN, Duration::from_secs(5)), Ok(0));
            assert!(rx.hot.load(Ordering::Relaxed));
        }

        #[test]
        fn a_message_sent_during_the_spin_is_delivered_by_that_call() {
            let (tx, rx) = unbounded();
            heat(&tx, &rx);
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.try_send(5).unwrap();
            });
            // The spin covers the whole timeout, so no timed wait runs.
            assert_eq!(rx.spin_then_wait(LONG_SPIN, LONG_SPIN), Ok(5));
            assert!(rx.hot.load(Ordering::Relaxed));
            sender.join().unwrap();
        }

        #[test]
        fn a_zero_spin_budget_goes_straight_to_the_timed_wait() {
            let (tx, rx) = unbounded();
            // A spin that uses the whole timeout leaves the receiver hot;
            // a zero budget runs the timed wait, whose expiry cools it.
            let timeout = Err(RecvTimeoutError::Timeout);
            heat(&tx, &rx);
            assert_eq!(rx.spin_then_wait(LONG_SPIN, Duration::ZERO), timeout);
            assert!(rx.hot.load(Ordering::Relaxed));
            assert_eq!(rx.spin_then_wait(Duration::ZERO, Duration::ZERO), timeout);
            assert!(!rx.hot.load(Ordering::Relaxed));
            // Hot with no traffic, spin and wait together never return
            // before the timeout; a message in the wait is delivered.
            for spin in [Duration::ZERO, crate::sync::SPIN] {
                for wait in [0, 10, 80, 2_200].map(Duration::from_micros) {
                    heat(&tx, &rx);
                    let t0 = std::time::Instant::now();
                    assert_eq!(rx.spin_then_wait(spin, wait), timeout);
                    assert!(t0.elapsed() >= wait, "{:?} returned after {:?}", wait, t0.elapsed());
                }
            }
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                tx.try_send(7).unwrap();
            });
            assert_eq!(rx.spin_then_wait(Duration::ZERO, Duration::from_secs(5)), Ok(7));
            assert!(rx.hot.load(Ordering::Relaxed));
            sender.join().unwrap();
            let gone = Err(RecvTimeoutError::Disconnected);
            assert_eq!(rx.spin_then_wait(LONG_SPIN, LONG_SPIN), gone);
        }

        #[test]
        #[should_panic(expected = "capacity must be at least 1")]
        fn zero_capacity_rejected() {
            let _ = bounded::<u32>(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn spin_budget_is_zero_on_one_cpu() {
        assert_eq!(spin_budget(0), Duration::ZERO);
        assert_eq!(spin_budget(1), Duration::ZERO);
        assert_eq!(spin_budget(2), SPIN);
        assert_eq!(spin_budget(64), SPIN);
    }

    #[test]
    fn spin_poll_stops_at_the_first_answer_or_the_shorter_limit() {
        let mut polls = 0;
        let got = spin_poll(Duration::from_secs(5), Duration::from_secs(5), || {
            polls += 1;
            (polls == 3).then_some(polls)
        });
        assert_eq!(got, Ok(3));
        // A zero budget polls once and leaves the whole nap.
        let mut polls = 0;
        let left = spin_poll(Duration::ZERO, Duration::from_secs(5), || {
            polls += 1;
            None::<()>
        });
        assert_eq!(polls, 1);
        assert!(left.unwrap_err() > Duration::from_secs(4));
        // A nap shorter than the budget bounds the spin and leaves nothing.
        let t0 = Instant::now();
        let left = spin_poll(Duration::from_secs(5), Duration::from_millis(2), || None::<()>);
        assert_eq!(left, Err(Duration::ZERO));
        assert!(t0.elapsed() >= Duration::from_millis(2));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn poisoned_mutex_still_usable() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
