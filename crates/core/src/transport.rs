//! The transport abstraction.
//!
//! Choreographies are transport-agnostic (§2.1): "a single choreography can
//! be executed as either a protocol in which machines communicate using
//! HTTPS or as a protocol in which threads on a single machine communicate
//! using sockets". A [`SessionTransport`] is one endpoint's connection to
//! the rest of the system; concrete implementations (in-process channels,
//! TCP, a deterministic network simulation) live in the `chorus-transport`
//! crate.
//!
//! A transport implements three primitives: send a frame, pop a frame
//! without blocking, and register a readiness waker. The blocking
//! receive every [`Session`](crate::Session) uses is built from the
//! last two, once, in [`SessionTransport::receive_frame`].

use crate::location::{ChoreographyLocation, LocationSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors a transport can report.
#[derive(Debug)]
#[non_exhaustive]
pub enum TransportError {
    /// A message named a location the transport does not know.
    UnknownLocation(String),
    /// An I/O failure in a socket-backed transport.
    Io(std::io::Error),
    /// A payload failed to encode or decode.
    Codec(chorus_wire::WireError),
    /// A peer violated the session protocol (e.g. a frame arrived out of
    /// sequence within one session).
    Protocol(String),
    /// A resilient link exhausted its reconnect budget and gave up.
    ///
    /// The link *supervisor* tried to re-establish the connection
    /// `attempts` times over `elapsed` and the peer never came back.
    /// Sessions see this instead of hanging on a dead edge.
    LinkDown {
        /// The failing edge, as `"sender->receiver"` location names.
        edge: String,
        /// Wall-clock time spent retrying before giving up.
        elapsed: std::time::Duration,
        /// Number of connection attempts made.
        attempts: u32,
    },
    /// A resilient link's retention queue reached its configured
    /// watermark and could not drain.
    ///
    /// The sender parked at the watermark waiting for the peer's acks
    /// to prune the queue, but the link resolved down (or the
    /// transport's [stall deadline](SessionTransport::stall_deadline)
    /// passed) first. Holding more frames for a peer that is not
    /// acknowledging would only hoard memory — this is the bound that
    /// keeps a dead peer from OOMing its senders.
    RetentionExceeded {
        /// The stalled edge, as `"sender->receiver"` location names.
        edge: String,
        /// Bytes retained for the peer when the sender gave up.
        retained_bytes: usize,
        /// The configured watermark (`CHORUS_TCP_RETAIN_MAX` or the
        /// builder override).
        limit: usize,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownLocation(name) => {
                write!(f, "unknown location {name}")
            }
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Codec(e) => write!(f, "payload codec error: {e}"),
            TransportError::Protocol(msg) => write!(f, "session protocol violation: {msg}"),
            TransportError::LinkDown { edge, elapsed, attempts } => write!(
                f,
                "link {edge} is down: gave up after {attempts} connection attempts over {}ms",
                elapsed.as_millis()
            ),
            TransportError::RetentionExceeded { edge, retained_bytes, limit } => write!(
                f,
                "link {edge} retention watermark exceeded: {retained_bytes} bytes retained \
                 (limit {limit}) with the peer not acknowledging"
            ),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<chorus_wire::WireError> for TransportError {
    fn from(e: chorus_wire::WireError) -> Self {
        TransportError::Codec(e)
    }
}

/// Identifies one choreography run multiplexed over a shared transport.
pub type SessionId = u64;

/// A readiness callback registered on a per-(session, sender) mailbox.
///
/// Both ways of waiting for a frame register one of these on the
/// mailbox: the blocking [`SessionTransport::receive_frame`] registers
/// a waker that unparks its thread, and the pooled session runtime,
/// which parks *sessions* rather than threads, registers one that
/// re-enqueues the session and moves on to other runnable sessions. The
/// transport fires the waker — at most once per registration — when
/// the mailbox gains a frame or the link enters an error state (dead,
/// poisoned, silenced).
///
/// Wakers must be cheap and non-blocking: transports may invoke them
/// from a sender's thread with no locks held, and a *spurious* wake
/// (the frame was consumed by the time the session runs) must be
/// harmless to the registrant.
///
/// Transports that deliver frames in batches fire each waker once per
/// *drain*, not once per frame: a burst of frames for one mailbox costs
/// one wake, and only mailboxes that actually received a frame (or hit
/// an error) are woken.
pub type MailboxWaker = std::sync::Arc<dyn Fn() + Send + Sync>;

/// A transport that carries many concurrent choreography sessions over
/// one set of links, demultiplexing incoming frames into
/// per-(session, sender) FIFO mailboxes.
///
/// Frames are [`chorus_wire::Envelope`]s: session id, per-edge sequence
/// number, payload. Implementations must preserve per-sender FIFO order
/// *within* each session — the guarantee the λN model assumes (§4.1) —
/// while letting different sessions interleave freely on the wire.
///
/// This is the transport interface [`Endpoint`](crate::Endpoint) is
/// built on. Implementations provide [`send_frame`](Self::send_frame),
/// [`try_receive_frame`](Self::try_receive_frame) and
/// [`register_waker`](Self::register_waker); the blocking
/// [`receive_frame`](Self::receive_frame) is provided on top of them,
/// so every transport shares one park/wake path and one stall deadline.
pub trait SessionTransport<L: LocationSet, Target: ChoreographyLocation> {
    /// The names of every location this transport can reach (including
    /// `Target` itself).
    fn locations(&self) -> Vec<&'static str> {
        L::names()
    }

    /// Sends one frame to the location named `to`.
    ///
    /// # Errors
    ///
    /// Returns an error if `to` is unknown or the link fails.
    fn send_frame(&self, to: &str, frame: chorus_wire::Envelope) -> Result<(), TransportError>;

    /// Blocks until a frame of `session` from the location named `from`
    /// arrives, and returns it.
    ///
    /// Frames of other sessions arriving meanwhile are queued into their
    /// own mailboxes, never dropped.
    ///
    /// The provided implementation polls
    /// [`try_receive_frame`](Self::try_receive_frame); on an empty
    /// mailbox it registers a waker that unparks the calling thread
    /// (cached per thread, so parking allocates nothing), re-polls at
    /// once if the registration reports the mailbox ready, and
    /// otherwise parks. A wait longer than
    /// [`stall_deadline`](Self::stall_deadline) fails with a
    /// [`TransportError::Protocol`] naming the session, the edge and
    /// the deadline, instead of hanging the thread.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown, the link fails, the peer
    /// violates per-session frame ordering, or the deadline passes.
    fn receive_frame(
        &self,
        session: SessionId,
        from: &str,
    ) -> Result<chorus_wire::Envelope, TransportError> {
        if let Some(frame) = self.try_receive_frame(session, from)? {
            return Ok(frame);
        }
        let deadline = self.stall_deadline();
        let started = Instant::now();
        let waker = crate::park::thread_waker();
        loop {
            if !self.register_waker(session, from, MailboxWaker::clone(&waker))? {
                let Some(remaining) = deadline.checked_sub(started.elapsed()) else {
                    return Err(stall_error(session, from, Target::NAME, deadline));
                };
                std::thread::park_timeout(remaining);
            }
            if let Some(frame) = self.try_receive_frame(session, from)? {
                return Ok(frame);
            }
        }
    }

    /// How long this transport waits before reporting a stall: the
    /// workspace watchdog
    /// ([`park::default_watchdog`](crate::park::default_watchdog)) unless
    /// the transport carries its own.
    ///
    /// It bounds every wait on the transport: a blocking
    /// [`receive_frame`](Self::receive_frame), a pooled session parked
    /// on one of its mailboxes (which stalls out with the same error a
    /// blocking receive raises on that edge), and a resilient TCP
    /// sender parked at its retention watermark.
    fn stall_deadline(&self) -> Duration {
        crate::park::default_watchdog()
    }

    /// Pops the next frame of `session` from the location named `from`
    /// if one is already deliverable, **without blocking**.
    ///
    /// Returns `Ok(None)` when the mailbox is merely empty. This is the
    /// receive path the pooled session runtime drives: a session that
    /// sees `None` yields its pool thread (after registering a
    /// [`MailboxWaker`]) instead of parking it.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown or the link has failed.
    fn try_receive_frame(
        &self,
        session: SessionId,
        from: &str,
    ) -> Result<Option<chorus_wire::Envelope>, TransportError>;

    /// Registers `waker` to fire when a frame of `session` from `from`
    /// becomes deliverable (or the link fails).
    ///
    /// Returns `Ok(true)` if the mailbox is *already* ready — a frame is
    /// queued, or the link is in an error state — in which case the
    /// waker is **not** stored and the caller should immediately retry
    /// [`try_receive_frame`](Self::try_receive_frame). Returns
    /// `Ok(false)` if the waker was parked on the mailbox. The
    /// ready-check and the registration happen under the mailbox lock,
    /// so a deposit can never slip between them (no lost wakeups).
    ///
    /// At most one waker is held per (session, sender) mailbox; a new
    /// registration replaces the previous one. Registered wakers fire at
    /// most once and are dropped after firing — re-register on every
    /// would-block receive.
    ///
    /// # Errors
    ///
    /// Returns an error if `from` is unknown or the transport cannot
    /// provide readiness notifications.
    fn register_waker(
        &self,
        session: SessionId,
        from: &str,
        waker: MailboxWaker,
    ) -> Result<bool, TransportError>;
}

impl<L, Target, T> SessionTransport<L, Target> for &T
where
    L: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<L, Target> + ?Sized,
{
    fn locations(&self) -> Vec<&'static str> {
        (**self).locations()
    }

    fn send_frame(&self, to: &str, frame: chorus_wire::Envelope) -> Result<(), TransportError> {
        (**self).send_frame(to, frame)
    }

    fn receive_frame(
        &self,
        session: SessionId,
        from: &str,
    ) -> Result<chorus_wire::Envelope, TransportError> {
        (**self).receive_frame(session, from)
    }

    fn stall_deadline(&self) -> Duration {
        (**self).stall_deadline()
    }

    fn try_receive_frame(
        &self,
        session: SessionId,
        from: &str,
    ) -> Result<Option<chorus_wire::Envelope>, TransportError> {
        (**self).try_receive_frame(session, from)
    }

    fn register_waker(
        &self,
        session: SessionId,
        from: &str,
        waker: MailboxWaker,
    ) -> Result<bool, TransportError> {
        (**self).register_waker(session, from, waker)
    }
}

/// The error a receive reports when no frame of `session` crossed the
/// edge `from -> to` within `deadline`, whether a thread or a pooled
/// session was waiting.
pub(crate) fn stall_error(
    session: SessionId,
    from: &str,
    to: &str,
    deadline: Duration,
) -> TransportError {
    TransportError::Protocol(format!(
        "receive watchdog: no frame of session {session} on edge {from}->{to} within the \
         {}ms deadline (schedule stalled or sender never sent)",
        deadline.as_millis()
    ))
}

/// A census's names, resolved once so hot paths can validate and
/// intern location names without allocating or re-materializing
/// `L::names()` (a fresh `Vec`) per message.
///
/// Endpoints and every transport in the workspace keep one of these;
/// the `&'static str` it hands back is the key used for mailbox
/// routing.
#[derive(Debug, Clone)]
pub struct InternedNames(Vec<&'static str>);

impl InternedNames {
    /// Resolves the census `L` once.
    pub fn of<L: LocationSet>() -> Self {
        InternedNames(L::names())
    }

    /// Resolves `name` to its interned census entry.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnknownLocation`] if `name` is not in
    /// the census.
    pub fn resolve(&self, name: &str) -> Result<&'static str, TransportError> {
        self.0
            .iter()
            .copied()
            .find(|n| *n == name)
            .ok_or_else(|| TransportError::UnknownLocation(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chorus_wire::Envelope;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    crate::locations! { Alpha, Beta }
    type Census = crate::LocationSet!(Alpha, Beta);

    /// A one-mailbox transport at `Beta` that implements only the three
    /// required primitives, so `receive_frame` is the provided one.
    /// Tests deposit frames and link errors into it from any thread.
    struct Mailbox {
        state: Mutex<MailboxState>,
        deadline: Duration,
        /// Kill the link from inside `register_waker`, after the waker
        /// is stored: a link error landing between registration and
        /// park.
        fail_after_register: bool,
    }

    #[derive(Default)]
    struct MailboxState {
        frames: VecDeque<Envelope>,
        error: Option<String>,
        waker: Option<MailboxWaker>,
    }

    impl Mailbox {
        fn new(deadline: Duration) -> Self {
            Mailbox { state: Mutex::default(), deadline, fail_after_register: false }
        }

        /// Deposits `frame` and fires the parked waker, as a sender does.
        fn deposit(&self, frame: Envelope) {
            let waker = {
                let mut state = self.state.lock().unwrap();
                state.frames.push_back(frame);
                state.waker.take()
            };
            if let Some(waker) = waker {
                waker();
            }
        }
    }

    impl SessionTransport<Census, Beta> for Mailbox {
        fn send_frame(&self, _to: &str, _frame: Envelope) -> Result<(), TransportError> {
            Ok(())
        }

        fn try_receive_frame(
            &self,
            _session: SessionId,
            _from: &str,
        ) -> Result<Option<Envelope>, TransportError> {
            let mut state = self.state.lock().unwrap();
            if let Some(frame) = state.frames.pop_front() {
                return Ok(Some(frame));
            }
            match &state.error {
                Some(reason) => Err(TransportError::Protocol(reason.clone())),
                None => Ok(None),
            }
        }

        fn register_waker(
            &self,
            _session: SessionId,
            _from: &str,
            waker: MailboxWaker,
        ) -> Result<bool, TransportError> {
            let mut state = self.state.lock().unwrap();
            if state.error.is_some() || !state.frames.is_empty() {
                return Ok(true);
            }
            if self.fail_after_register {
                state.error = Some("link from Alpha is down: peer reset".into());
                drop(state);
                waker();
                return Ok(false);
            }
            state.waker = Some(waker);
            Ok(false)
        }

        fn stall_deadline(&self) -> Duration {
            self.deadline
        }
    }

    #[test]
    fn provided_receive_wakes_on_a_frame_from_another_thread() {
        let mailbox = Arc::new(Mailbox::new(Duration::from_secs(30)));
        let sender = {
            let mailbox = Arc::clone(&mailbox);
            std::thread::spawn(move || {
                // Deposit only once the receiver has parked its waker,
                // so the frame can only reach it through the wake.
                while mailbox.state.lock().unwrap().waker.is_none() {
                    std::thread::yield_now();
                }
                mailbox.deposit(Envelope::new(7, 0, b"woken".to_vec()));
            })
        };
        let frame = mailbox.receive_frame(7, "Alpha").unwrap();
        assert_eq!(frame.payload, b"woken");
        sender.join().unwrap();
    }

    #[test]
    fn provided_receive_surfaces_a_link_error_raised_before_the_park() {
        let mut mailbox = Mailbox::new(Duration::from_secs(10));
        mailbox.fail_after_register = true;
        let started = Instant::now();
        let err = mailbox.receive_frame(7, "Alpha").unwrap_err();
        assert!(err.to_string().contains("peer reset"), "got: {err}");
        assert!(started.elapsed() < Duration::from_secs(5), "the error must not wait out the park");
    }

    #[test]
    fn provided_receive_watchdog_names_session_edge_and_deadline() {
        let mailbox = Mailbox::new(Duration::from_millis(30));
        let err = mailbox.receive_frame(7, "Alpha").unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "got: {err:?}");
        let text = err.to_string();
        assert!(text.contains("watchdog"), "got: {text}");
        assert!(text.contains("session 7"), "got: {text}");
        assert!(text.contains("Alpha->Beta"), "got: {text}");
        assert!(text.contains("30ms"), "got: {text}");
    }

    #[test]
    fn link_down_display_names_edge_budget_and_elapsed() {
        let err = TransportError::LinkDown {
            edge: "Alpha->Beta".into(),
            elapsed: std::time::Duration::from_millis(1500),
            attempts: 60,
        };
        let text = err.to_string();
        assert!(text.contains("Alpha->Beta"), "got: {text}");
        assert!(text.contains("60 connection attempts"), "got: {text}");
        assert!(text.contains("1500ms"), "got: {text}");
    }

    #[test]
    fn retention_exceeded_display_names_edge_and_watermark() {
        let err = TransportError::RetentionExceeded {
            edge: "Alpha->Beta".into(),
            retained_bytes: 70_000_000,
            limit: 67_108_864,
        };
        let text = err.to_string();
        assert!(text.contains("Alpha->Beta"), "got: {text}");
        assert!(text.contains("70000000"), "got: {text}");
        assert!(text.contains("67108864"), "got: {text}");
    }

    #[test]
    fn interned_names_resolve_census_members() {
        let names = InternedNames::of::<Census>();
        assert_eq!(names.resolve("Alpha").unwrap(), "Alpha");
        assert_eq!(names.resolve("Beta").unwrap(), "Beta");
    }

    #[test]
    fn interned_names_reject_unknown_names_usefully() {
        let names = InternedNames::of::<Census>();
        let err = names.resolve("Mallory").unwrap_err();
        match &err {
            TransportError::UnknownLocation(name) => assert_eq!(name, "Mallory"),
            other => panic!("expected UnknownLocation, got {other:?}"),
        }
        // The display names the offending census name, so a typo in a
        // choreography points straight at itself.
        assert!(err.to_string().contains("unknown location Mallory"), "got: {err}");
    }
}
