//! The receive mailboxes every transport shares.
//!
//! The λN model (§4.1) asks one thing of the network: a FIFO queue per
//! (session, sender) edge. [`Mailboxes`] is that queue for one directed
//! link, and the only copy of it in the workspace. Local, TCP and the
//! simulated network each keep one per link, behind the lock their
//! senders deposit under, and add only what is their own: the wire and
//! link cursor (TCP), the in-flight heap and reorder stage (sim).
//!
//! Per session it holds the next expected sequence number, the queued
//! frames and at most one parked waker, in one map entry, so a deposit
//! costs one hash lookup. Per link it holds the failure slot: the first
//! violation fails every session on the link, withholds every later
//! frame, and hands back every parked waker.
//!
//! No method fires a waker. Methods that release one move it into a
//! [`Wakers`] the caller fires once the lock is released.

use chorus_core::{MailboxWaker, SessionId, TransportError};
use chorus_wire::Envelope;
use std::collections::{HashMap, VecDeque};

/// One directed link's per-session FIFO mailboxes and failure slot.
pub(crate) struct Mailboxes {
    /// The sending location, named in the error a failed link reports.
    from: &'static str,
    sessions: HashMap<SessionId, Mailbox>,
    /// Why the link failed; set once, by the first failure.
    failure: Option<String>,
}

#[derive(Default)]
struct Mailbox {
    /// The sequence number the next frame must carry. A frame with
    /// `seq == 0` is always accepted: it starts a fresh run reusing the
    /// session id on a long-lived link, as consecutive
    /// `endpoint.session_with_id(id).epp_and_run(..)` calls do.
    next_seq: u64,
    frames: VecDeque<Envelope>,
    /// Fires when `frames` gains a frame or the link fails.
    waker: Option<MailboxWaker>,
}

impl Mailbox {
    /// Advances the sequence expectation past `seq`, or returns the
    /// sequence number that was expected instead.
    fn accept(&mut self, seq: u64) -> Result<(), u64> {
        if seq == self.next_seq || seq == 0 {
            self.next_seq = seq + 1;
            Ok(())
        } else {
            Err(self.next_seq)
        }
    }
}

/// Wakers released under a mailbox lock, to fire once it is dropped.
///
/// The first waker is held inline, so a deposit that wakes one session
/// allocates nothing.
#[derive(Default)]
pub(crate) struct Wakers {
    first: Option<MailboxWaker>,
    rest: Vec<MailboxWaker>,
}

impl Wakers {
    /// Fires every collected waker. Call it with no lock held: a waker
    /// re-enqueues into a scheduler queue, and calling it under the
    /// mailbox lock invites ordering deadlocks.
    pub(crate) fn fire(self) {
        for waker in self.first.into_iter().chain(self.rest) {
            waker();
        }
    }
}

impl Extend<MailboxWaker> for Wakers {
    fn extend<I: IntoIterator<Item = MailboxWaker>>(&mut self, wakers: I) {
        for waker in wakers {
            match self.first {
                None => self.first = Some(waker),
                Some(_) => self.rest.push(waker),
            }
        }
    }
}

impl Mailboxes {
    /// Empty mailboxes for the link from `from`.
    pub(crate) fn new(from: &'static str) -> Self {
        Mailboxes { from, sessions: HashMap::new(), failure: None }
    }

    /// Sequence-checks `frame` and appends it to its session's FIFO,
    /// releasing that session's parked waker into `wake`.
    ///
    /// A frame out of sequence fails the link; a frame arriving on a
    /// failed link is withheld.
    pub(crate) fn deposit(&mut self, frame: Envelope, wake: &mut Wakers) {
        if self.failure.is_some() {
            return;
        }
        let mailbox = self.sessions.entry(frame.session).or_default();
        match mailbox.accept(frame.seq) {
            Ok(()) => {
                mailbox.frames.push_back(frame);
                wake.extend(mailbox.waker.take());
            }
            Err(expected) => {
                let reason = out_of_order(frame.session, expected, frame.seq);
                self.fail(reason, wake);
            }
        }
    }

    /// The sequence check of [`deposit`](Self::deposit) alone, for a
    /// transport that checks at send time and queues later: returns
    /// `false` if the frame must be withheld (the link had failed, or
    /// this frame failed it).
    pub(crate) fn check(&mut self, session: SessionId, seq: u64, wake: &mut Wakers) -> bool {
        if self.failure.is_some() {
            return false;
        }
        match self.sessions.entry(session).or_default().accept(seq) {
            Ok(()) => true,
            Err(expected) => {
                self.fail(out_of_order(session, expected, seq), wake);
                false
            }
        }
    }

    /// The queueing half of [`deposit`](Self::deposit), for a frame
    /// already [`check`](Self::check)ed.
    pub(crate) fn push(&mut self, frame: Envelope, wake: &mut Wakers) {
        let mailbox = self.sessions.entry(frame.session).or_default();
        mailbox.frames.push_back(frame);
        wake.extend(mailbox.waker.take());
    }

    /// Pops the next frame of `session`. Queued frames drain before a
    /// failure surfaces.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Protocol`] naming the sender and the
    /// reason once the mailbox is empty on a failed link.
    pub(crate) fn try_take(
        &mut self,
        session: SessionId,
    ) -> Result<Option<Envelope>, TransportError> {
        if let Some(frame) = self.sessions.get_mut(&session).and_then(|m| m.frames.pop_front()) {
            return Ok(Some(frame));
        }
        match &self.failure {
            Some(reason) => {
                Err(TransportError::Protocol(format!("link from {} is down: {reason}", self.from)))
            }
            None => Ok(None),
        }
    }

    /// Parks `waker` on `session`'s mailbox, unless a frame is queued
    /// there or the link has failed: then returns `true` and stores
    /// nothing. Checking and parking under the one lock deposits take
    /// is what rules out a lost wakeup.
    pub(crate) fn register(&mut self, session: SessionId, waker: MailboxWaker) -> bool {
        if self.failure.is_some() {
            return true;
        }
        let mailbox = self.sessions.entry(session).or_default();
        if !mailbox.frames.is_empty() {
            return true;
        }
        mailbox.waker = Some(waker);
        false
    }

    /// Fails the link for every session, keeping the first reason, and
    /// releases every parked waker into `wake`: each parked session can
    /// now observe the error.
    pub(crate) fn fail(&mut self, reason: String, wake: &mut Wakers) {
        self.failure.get_or_insert(reason);
        wake.extend(self.sessions.values_mut().filter_map(|m| m.waker.take()));
    }

    /// Whether the link has failed.
    pub(crate) fn is_failed(&self) -> bool {
        self.failure.is_some()
    }
}

fn out_of_order(session: SessionId, expected: u64, seq: u64) -> String {
    format!("frame in session {session} arrived out of order: expected seq {expected}, got {seq}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn frame(session: SessionId, seq: u64) -> Envelope {
        Envelope::new(session, seq, b"x".to_vec())
    }

    /// Deposits `frame`, reporting whether the link still stands.
    fn deposit(mailboxes: &mut Mailboxes, frame: Envelope) -> bool {
        mailboxes.deposit(frame, &mut Wakers::default());
        !mailboxes.is_failed()
    }

    fn counting_waker(count: &Arc<AtomicUsize>) -> MailboxWaker {
        let count = Arc::clone(count);
        Arc::new(move || {
            count.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn sequence_accepts_an_in_order_stream() {
        let mut mailboxes = Mailboxes::new("Alpha");
        for seq in 0..5 {
            assert!(deposit(&mut mailboxes, frame(1, seq)), "in-order frames are fine");
        }
        for seq in 0..5 {
            assert_eq!(mailboxes.try_take(1).unwrap().unwrap().seq, seq);
        }
    }

    #[test]
    fn sequence_rejects_a_duplicate() {
        let mut mailboxes = Mailboxes::new("Alpha");
        assert!(deposit(&mut mailboxes, frame(1, 0)));
        assert!(deposit(&mut mailboxes, frame(1, 1)));
        // Replaying seq 1 is neither the expected 2 nor a restart at 0.
        assert!(!deposit(&mut mailboxes, frame(1, 1)));
        mailboxes.try_take(1).unwrap();
        mailboxes.try_take(1).unwrap();
        let err = mailboxes.try_take(1).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)));
        assert!(err.to_string().contains("expected seq 2, got 1"), "got: {err}");
        assert!(err.to_string().contains("link from Alpha"), "got: {err}");
    }

    #[test]
    fn sequence_rejects_a_gap() {
        let mut mailboxes = Mailboxes::new("Beta");
        let mut wake = Wakers::default();
        assert!(mailboxes.check(7, 0, &mut wake));
        assert!(!mailboxes.check(7, 2, &mut wake));
        let err = mailboxes.try_take(7).unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)));
        assert!(err.to_string().contains("expected seq 1, got 2"), "got: {err}");
    }

    #[test]
    fn sequence_keeps_interleaved_sessions_independent() {
        // Two sessions interleave on one link; each keeps its own
        // expectation, and a frame that restarts one session at zero
        // leaves the other's stream where it was.
        let mut mailboxes = Mailboxes::new("Alpha");
        for (session, seq) in [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 0), (1, 3), (2, 1)] {
            assert!(deposit(&mut mailboxes, frame(session, seq)), "session {session} seq {seq}");
        }
        // A violation in session 2 fails the whole link...
        assert!(!deposit(&mut mailboxes, frame(2, 5)));
        // ...but what session 1 already queued still drains, in order.
        for seq in 0..4 {
            assert_eq!(mailboxes.try_take(1).unwrap().unwrap().seq, seq);
        }
        assert!(mailboxes.try_take(1).is_err());
    }

    #[test]
    fn sequence_accepts_a_restart_at_zero() {
        let mut mailboxes = Mailboxes::new("Alpha");
        // A fresh run reusing the session id restarts at zero.
        for seq in [0, 1, 0, 1] {
            assert!(deposit(&mut mailboxes, frame(1, seq)));
        }
    }

    #[test]
    fn fail_releases_every_parked_waker_and_keeps_the_first_reason() {
        let mut mailboxes = Mailboxes::new("Alpha");
        let fired = Arc::new(AtomicUsize::new(0));
        for session in 1..=3 {
            assert!(!mailboxes.register(session, counting_waker(&fired)));
        }
        let mut wake = Wakers::default();
        mailboxes.fail("first".into(), &mut wake);
        mailboxes.fail("second".into(), &mut wake);
        wake.fire();
        assert_eq!(fired.load(Ordering::SeqCst), 3);
        // A failed link is ready for everyone and withholds new frames.
        assert!(mailboxes.register(4, counting_waker(&fired)));
        mailboxes.deposit(frame(4, 0), &mut Wakers::default());
        let err = mailboxes.try_take(4).unwrap_err().to_string();
        assert!(err.contains("link from Alpha is down: first"), "got: {err}");
    }
}
