//! History-recording wrapper for stepped TMs.
//!
//! Wraps any [`SteppedTm`] and records the produced [`History`], so that
//! safety checkers, liveness classifiers and experiment harnesses can
//! inspect exactly what the TM did.

use tm_core::{Event, History, Invocation, ProcessId, Response};

use crate::api::{BoxedTm, Outcome, SteppedTm};

/// A [`SteppedTm`] that records every event it sees.
///
/// # Examples
///
/// ```
/// use tm_core::{Invocation, ProcessId, TVarId};
/// use tm_stm::{Recorded, SteppedTm, Tl2};
///
/// let (p1, x) = (ProcessId(0), TVarId(0));
/// let mut tm = Recorded::new(Tl2::new(2, 1));
/// tm.invoke(p1, Invocation::Read(x));
/// tm.invoke(p1, Invocation::TryCommit);
/// assert_eq!(tm.history().len(), 4);
/// assert!(tm.history().is_well_formed());
/// ```
#[derive(Debug, Clone)]
pub struct Recorded<T> {
    inner: T,
    history: History,
}

impl<T: SteppedTm> Recorded<T> {
    /// Wraps a TM, starting with an empty history.
    pub fn new(inner: T) -> Self {
        Recorded {
            inner,
            history: History::new(),
        }
    }

    /// The recorded history so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The wrapped TM.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Consumes the wrapper, returning the recorded history.
    pub fn into_history(self) -> History {
        self.history
    }
}

impl<T: SteppedTm> SteppedTm for Recorded<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn process_count(&self) -> usize {
        self.inner.process_count()
    }

    fn tvar_count(&self) -> usize {
        self.inner.tvar_count()
    }

    fn invoke(&mut self, process: ProcessId, invocation: Invocation) -> Outcome {
        self.history.push(Event::invocation(process, invocation));
        let outcome = self.inner.invoke(process, invocation);
        if let Outcome::Response(resp) = outcome {
            self.history.push(Event::response(process, resp));
        }
        outcome
    }

    fn poll(&mut self, process: ProcessId) -> Option<Response> {
        let resp = self.inner.poll(process)?;
        self.history.push(Event::response(process, resp));
        Some(resp)
    }

    fn has_pending(&self, process: ProcessId) -> bool {
        self.inner.has_pending(process)
    }

    fn fork(&self) -> BoxedTm {
        // Type-erase the inner TM through its own fork, so recording
        // wrappers participate in model-checker branching regardless of
        // whether `T` itself is `Clone`.
        Box::new(Recorded {
            inner: self.inner.fork(),
            history: self.history.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_lock::GlobalLock;
    use crate::tl2::Tl2;
    use tm_core::TVarId;

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);

    #[test]
    fn records_immediate_responses() {
        let mut tm = Recorded::new(Tl2::new(1, 1));
        tm.invoke(P1, Invocation::Read(X));
        assert_eq!(tm.history().len(), 2);
        let events = tm.history().events();
        assert!(events[0].is_invocation());
        assert!(events[1].is_response());
    }

    #[test]
    fn records_pending_then_polled_responses() {
        let mut tm = Recorded::new(GlobalLock::new(2, 1));
        tm.invoke(P1, Invocation::Read(X)); // holds the lock
        let out = tm.invoke(P2, Invocation::Read(X));
        assert!(out.is_pending());
        // Invocation recorded, response not yet.
        assert_eq!(tm.history().len(), 3);
        assert!(tm.has_pending(P2));
        // Release the lock; poll delivers and records.
        tm.invoke(P1, Invocation::TryCommit);
        let r = tm.poll(P2);
        assert_eq!(r, Some(Response::Value(0)));
        assert_eq!(tm.history().len(), 6);
        assert!(tm.history().is_well_formed());
    }
}
