//! The park/wake shims blocking code is built on.
//!
//! Two shapes cover the workspace:
//!
//! * A blocking receive parks the *thread* it runs on:
//!   [`SessionTransport::receive_frame`](crate::SessionTransport::receive_frame)
//!   registers a waker that unparks its thread on the empty mailbox,
//!   and parks until the transport fires it.
//! * Everything else that waits on shared state — the pooled runtime's
//!   run queue and result cells, the TCP flusher — takes a lock, checks
//!   a predicate, and parks until a producer changes the state.
//!   [`WaitQueue`] packages that shape: a mutex fused with its condvar,
//!   so nobody waits on a condvar that guards different state, with an
//!   optional deadline so a stall surfaces as an error instead of a
//!   hang.
//!
//! Determinism note: a `WaitQueue` adds no scheduling decisions of its
//! own. Wakes are broadcast (`notify_all`) and every woken waiter
//! re-checks its predicate under the single lock, so *which* waiter
//! proceeds is decided by the guarded state, never by wake order.

use crate::transport::MailboxWaker;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

thread_local! {
    static THREAD_WAKER: MailboxWaker = {
        let thread = std::thread::current();
        Arc::new(move || thread.unpark())
    };
}

/// A [`MailboxWaker`] that unparks the calling thread.
///
/// Built once per thread and handed out as a reference-count bump, so a
/// blocking receive that parks allocates nothing. A stale firing (the
/// waker outlived the receive that registered it) is an ordinary
/// spurious unpark: every parker re-checks its condition.
pub(crate) fn thread_waker() -> MailboxWaker {
    THREAD_WAKER.with(Arc::clone)
}

/// The workspace-wide default watchdog timeout for bounded parks.
///
/// It is the default
/// [`SessionTransport::stall_deadline`](crate::SessionTransport::stall_deadline),
/// the one deadline that bounds a blocking receive, a pooled session
/// parked on a mailbox and a TCP sender parked at its retention
/// watermark. Override it with the `CHORUS_WATCHDOG_MS`
/// environment variable (milliseconds, read once per process); the
/// built-in default is 30 000 ms, and a zero or unparsable value means
/// the default, as for the `CHORUS_TCP_*` knobs.
///
/// A CI job that wants hangs to surface fast sets `CHORUS_WATCHDOG_MS`
/// low; a debugging session that wants to poke around under a debugger
/// sets it high. Code that needs a *specific* deadline (e.g. a test
/// pinning watchdog behavior) runs over a transport that carries its
/// own, such as a simulated one with `FaultPlan::with_watchdog`.
pub fn default_watchdog() -> Duration {
    static WATCHDOG: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *WATCHDOG.get_or_init(|| watchdog_from(std::env::var("CHORUS_WATCHDOG_MS").ok().as_deref()))
}

/// The watchdog a `CHORUS_WATCHDOG_MS` value asks for. Zero counts as
/// unset: a zero deadline would fail every receive that finds its
/// mailbox empty, and every parked pooled session at the first sweep.
fn watchdog_from(raw: Option<&str>) -> Duration {
    let millis = raw.and_then(|raw| raw.trim().parse::<u64>().ok()).filter(|ms| *ms > 0);
    Duration::from_millis(millis.unwrap_or(30_000))
}

/// A mutex fused with the condvar that announces changes to its state.
///
/// ```
/// use chorus_core::park::WaitQueue;
///
/// let queue = WaitQueue::new(Vec::<u32>::new());
/// let mut guard = queue.lock();
/// guard.push(7);
/// drop(guard);
/// queue.notify_all();
/// assert_eq!(queue.lock().pop(), Some(7));
/// ```
#[derive(Debug, Default)]
pub struct WaitQueue<T> {
    state: Mutex<T>,
    cv: Condvar,
}

impl<T> WaitQueue<T> {
    /// Wraps `state` in a queue.
    pub fn new(state: T) -> Self {
        WaitQueue { state: Mutex::new(state), cv: Condvar::new() }
    }

    /// Locks the guarded state.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the lock panicked (the state may
    /// be torn; transports treat this as unrecoverable).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.state.lock().expect("wait queue poisoned")
    }

    /// Parks until another thread calls [`notify_all`](Self::notify_all)
    /// (or a spurious wake occurs — callers re-check their predicate in
    /// a loop).
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn wait<'a>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.cv.wait(guard).expect("wait queue poisoned")
    }

    /// Parks like [`wait`](Self::wait), but never past `deadline`.
    ///
    /// Returns the re-acquired guard and whether the deadline elapsed
    /// while parked. Callers use the flag as a *watchdog*: a `true`
    /// result after the predicate re-check still fails means the system
    /// has stalled, and the caller should surface an error instead of
    /// parking again.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn wait_deadline<'a>(
        &self,
        guard: MutexGuard<'a, T>,
        deadline: Instant,
    ) -> (MutexGuard<'a, T>, bool) {
        let now = Instant::now();
        if now >= deadline {
            return (guard, true);
        }
        let (guard, result) =
            self.cv.wait_timeout(guard, deadline - now).expect("wait queue poisoned");
        (guard, result.timed_out())
    }

    /// Wakes every parked thread; each re-checks its predicate under the
    /// lock.
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }

    /// Wakes at most one parked thread.
    ///
    /// Only correct when every parked thread waits on the *same*
    /// predicate and any one of them can consume the state change — the
    /// work-queue shape, where one pushed item needs one worker. A
    /// queue whose sleepers wait on different predicates must use
    /// [`notify_all`](Self::notify_all), or a wake can land on a thread
    /// whose predicate still fails while the right one stays parked.
    pub fn notify_one(&self) {
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn producer_wakes_parked_consumer() {
        let queue = Arc::new(WaitQueue::new(Option::<u32>::None));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut guard = queue.lock();
                loop {
                    if let Some(v) = guard.take() {
                        return v;
                    }
                    guard = queue.wait(guard);
                }
            })
        };
        *queue.lock() = Some(99);
        queue.notify_all();
        assert_eq!(consumer.join().unwrap(), 99);
    }

    #[test]
    fn wait_deadline_reports_timeout() {
        let queue = WaitQueue::new(());
        let guard = queue.lock();
        let (_guard, timed_out) =
            queue.wait_deadline(guard, Instant::now() + Duration::from_millis(10));
        assert!(timed_out, "nobody notifies, so the watchdog must fire");
    }

    #[test]
    fn default_watchdog_is_a_usable_deadline() {
        // The env override is read once per process, so this test only
        // pins the invariants every caller relies on: the default is
        // finite, nonzero, and stable across calls.
        let first = default_watchdog();
        assert!(first > Duration::ZERO);
        assert_eq!(first, default_watchdog());
    }

    #[test]
    fn watchdog_zero_or_garbage_means_the_default() {
        let default = Duration::from_secs(30);
        assert_eq!(watchdog_from(None), default);
        assert_eq!(watchdog_from(Some("0")), default);
        assert_eq!(watchdog_from(Some("soon")), default);
        assert_eq!(watchdog_from(Some("-5")), default);
        assert_eq!(watchdog_from(Some(" 250 ")), Duration::from_millis(250));
    }

    #[test]
    fn expired_deadline_returns_immediately() {
        let queue = WaitQueue::new(());
        let guard = queue.lock();
        let (_guard, timed_out) = queue.wait_deadline(guard, Instant::now());
        assert!(timed_out);
    }
}
