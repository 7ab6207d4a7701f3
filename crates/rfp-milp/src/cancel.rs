//! Cooperative cancellation.
//!
//! A [`CancelToken`] is a cheap, cloneable handle around a shared atomic
//! flag. Long-running solver loops poll [`CancelToken::is_cancelled`] and
//! unwind as soon as any clone of the token is [`CancelToken::cancel`]led —
//! the mechanism the engine portfolio uses to stop losing engines once a
//! proven result is available, and that interactive callers use to abort a
//! solve from another thread.
//!
//! A token is also the solve's one wall-clock budget: a child made with
//! [`CancelToken::with_deadline`] reads as cancelled once its instant has
//! passed. An engine derives that child once, on entry, and hands it to
//! every layer below, so one poll at each stop site covers both the
//! caller's cancellation and the deadline, and no layer keeps a clock of
//! its own.
//!
//! Cancellation is *cooperative*: it never interrupts a pivot or a node
//! mid-flight, it only stops the search at the next poll point, so a
//! cancelled solve still returns a well-formed (budget-exhausted) result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shareable cancellation flag polled by the solver inner loops.
///
/// Clones share the same flag; cancelling any clone cancels them all.
///
/// ```
/// use rfp_milp::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// The instant after which this token reads as cancelled, if any.
    deadline: Option<Instant>,
    /// Optional parent: a child token is also cancelled when any ancestor
    /// is, without the child's own flag ever touching the parent.
    parent: Option<Box<CancelToken>>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Derives a *child* token: cancelling the parent (or any ancestor)
    /// cancels the child, but cancelling the child leaves the parent
    /// untouched. The parallel branch-and-bound uses this for its internal
    /// stop signal — workers wind down when the search decides to stop *or*
    /// the caller cancels, while an internal stop never masquerades as a
    /// caller cancellation.
    pub fn child(&self) -> CancelToken {
        self.with_deadline(None)
    }

    /// Derives a child token (see [`CancelToken::child`]) that also reads as
    /// cancelled once `deadline` has passed. The deadline stays on the
    /// child: the parent never observes it. `None` adds no deadline.
    pub fn with_deadline(&self, deadline: Option<Instant>) -> CancelToken {
        CancelToken { flag: Arc::default(), deadline, parent: Some(Box::new(self.clone())) }
    }

    /// Requests cancellation; every clone of this token (and every child
    /// derived from it) observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Returns `true` once any clone — or, for a child token, any ancestor —
    /// has been cancelled, or once the deadline of this token or of an
    /// ancestor has passed.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
            || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        a.cancel();
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn child_tokens_observe_the_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();
        assert!(!child.is_cancelled());
        child.cancel();
        assert!(child.is_cancelled() && grandchild.is_cancelled());
        assert!(!parent.is_cancelled(), "a child cancel must not leak upward");
        let child2 = parent.child();
        parent.cancel();
        assert!(child2.is_cancelled() && parent.is_cancelled());
    }

    #[test]
    fn a_deadline_child_fires_at_its_instant_and_not_before() {
        let parent = CancelToken::new();
        let at = Instant::now() + std::time::Duration::from_millis(50);
        let timed = parent.with_deadline(Some(at));
        assert!(!timed.is_cancelled(), "silent before its instant");
        while Instant::now() < at {
            std::thread::yield_now();
        }
        assert!(timed.is_cancelled(), "fires once the instant has passed");
        assert!(timed.child().is_cancelled(), "its children inherit the deadline");
        assert!(!parent.is_cancelled(), "a deadline must not leak upward");
    }

    #[test]
    fn a_deadline_child_still_observes_the_parent() {
        let parent = CancelToken::new();
        let timed =
            parent.with_deadline(Some(Instant::now() + std::time::Duration::from_secs(3600)));
        assert!(!timed.is_cancelled());
        parent.cancel();
        assert!(timed.is_cancelled());
    }

    #[test]
    fn with_deadline_none_never_fires_on_its_own() {
        let parent = CancelToken::new();
        let untimed = parent.with_deadline(None);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(!untimed.is_cancelled());
        parent.cancel();
        assert!(untimed.is_cancelled());
    }

    #[test]
    fn cancellation_is_visible_across_threads() {
        let token = CancelToken::new();
        let remote = token.clone();
        let handle = std::thread::spawn(move || {
            while !remote.is_cancelled() {
                std::thread::yield_now();
            }
            true
        });
        token.cancel();
        assert!(handle.join().unwrap());
    }
}
