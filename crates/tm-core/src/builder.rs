//! Ergonomic construction of histories.
//!
//! The paper's figures are sequences of complete operations (`r → v`,
//! `w(v)` + `ok`, `tryC` + `C`/`A`). [`HistoryBuilder`] appends such
//! operation pairs — or raw events for partial operations — and validates
//! well-formedness at [`HistoryBuilder::build`] time.

use crate::event::{Event, Invocation, Response};
use crate::history::{History, WellFormednessError};
use crate::ids::{ProcessId, TVarId, Value};

/// Non-consuming builder for [`History`] values.
///
/// # Examples
///
/// Figure 4 of the paper (strictly serializable but not opaque):
///
/// ```
/// use tm_core::{HistoryBuilder, ProcessId, TVarId};
///
/// let (p1, p2, x) = (ProcessId(0), ProcessId(1), TVarId(0));
/// let h = HistoryBuilder::new()
///     .read(p1, x, 0)          // p1: x.read → 0
///     .write_ok(p2, x, 1)      // p2: x.write(1) → ok
///     .commit(p2)              // p2: tryC → C
///     .read(p1, x, 1)          // p1: x.read → 1
///     .abort_on_try_commit(p1) // p1: tryC → A  (completion-style abort)
///     .build()?;
/// assert_eq!(h.transactions().len(), 2);
/// # Ok::<(), tm_core::WellFormednessError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryBuilder {
    events: Vec<Event>,
}

impl HistoryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        HistoryBuilder::default()
    }

    /// Appends a raw event.
    pub fn push(&mut self, event: Event) -> &mut Self {
        self.events.push(event);
        self
    }

    /// Appends a bare invocation (left pending).
    pub fn invoke(&mut self, process: ProcessId, invocation: Invocation) -> &mut Self {
        self.push(Event::invocation(process, invocation))
    }

    /// Appends a bare response.
    pub fn respond(&mut self, process: ProcessId, response: Response) -> &mut Self {
        self.push(Event::response(process, response))
    }

    /// Appends a completed read: `x.read_k · v_k`.
    pub fn read(&mut self, process: ProcessId, x: TVarId, value: Value) -> &mut Self {
        self.push(Event::read(process, x));
        self.push(Event::value(process, value))
    }

    /// Appends a read answered by abort: `x.read_k · A_k`.
    pub fn read_abort(&mut self, process: ProcessId, x: TVarId) -> &mut Self {
        self.push(Event::read(process, x));
        self.push(Event::aborted(process))
    }

    /// Appends a completed write: `x.write_k(v) · ok_k`.
    pub fn write_ok(&mut self, process: ProcessId, x: TVarId, value: Value) -> &mut Self {
        self.push(Event::write(process, x, value));
        self.push(Event::ok(process))
    }

    /// Appends a write answered by abort: `x.write_k(v) · A_k`.
    pub fn write_abort(&mut self, process: ProcessId, x: TVarId, value: Value) -> &mut Self {
        self.push(Event::write(process, x, value));
        self.push(Event::aborted(process))
    }

    /// Appends a successful commit: `tryC_k · C_k`.
    pub fn commit(&mut self, process: ProcessId) -> &mut Self {
        self.push(Event::try_commit(process));
        self.push(Event::committed(process))
    }

    /// Appends a failed commit: `tryC_k · A_k`.
    pub fn abort_on_try_commit(&mut self, process: ProcessId) -> &mut Self {
        self.push(Event::try_commit(process));
        self.push(Event::aborted(process))
    }

    /// Number of events appended so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been appended.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates and returns the history.
    ///
    /// # Errors
    ///
    /// Returns a [`WellFormednessError`] if the event sequence violates the
    /// per-process alphabet `Σ_k`.
    pub fn build(&self) -> Result<History, WellFormednessError> {
        History::try_from_events(self.events.clone())
    }

    /// Returns the history without validating well-formedness (useful for
    /// constructing deliberately malformed sequences in tests).
    pub fn build_unchecked(&self) -> History {
        History::from_events_unchecked(self.events.clone())
    }
}

/// Pre-built histories for the paper's numbered figures.
///
/// Each function returns the *finite* history depicted (or, for the infinite
/// figures, the canonical finite pattern used by the corresponding lasso in
/// `tm-liveness`). The `opacity` and `strict_ser` tests of `tm-safety`
/// check each one against the paper's stated verdicts.
pub mod figures {
    use super::*;

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);

    /// Figure 1: `p1` reads 0 from `x`; `p2` reads 0, writes 1 and commits;
    /// `p1` then writes 1 and is aborted. Opaque and strictly serializable.
    pub fn figure_1() -> History {
        HistoryBuilder::new()
            .read(P1, X, 0)
            .read(P2, X, 0)
            .write_ok(P2, X, 1)
            .commit(P2)
            .write_ok(P1, X, 1)
            .abort_on_try_commit(P1)
            .build()
            .expect("figure 1 is well-formed")
    }

    /// Figure 3: both processes read 0 from `x`, write 1 and commit.
    /// Neither opaque nor strictly serializable.
    pub fn figure_3() -> History {
        HistoryBuilder::new()
            .read(P1, X, 0)
            .read(P2, X, 0)
            .write_ok(P2, X, 1)
            .commit(P2)
            .write_ok(P1, X, 1)
            .commit(P1)
            .build()
            .expect("figure 3 is well-formed")
    }

    /// Figure 4: `p2` writes 1 and commits while `p1`'s transaction is live;
    /// `p1` then reads 1 (the committed value) and aborts. Strictly
    /// serializable (only committed transactions need explaining) but not
    /// opaque (`p1` read 0 then observed state written after its snapshot).
    pub fn figure_4() -> History {
        HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P2, X, 1)
            .commit(P2)
            .read(P1, X, 1)
            .abort_on_try_commit(P1)
            .build()
            .expect("figure 4 is well-formed")
    }

    /// Figure 8 / Figure 11: the *would-be terminating* suffix of
    /// Algorithms 1 and 2 — `p1` reads `v`, `p2` reads `v`, writes `v+1`
    /// and commits, then `p1` writes `v+1` and commits. Not opaque (the
    /// checker proves the adversary's central claim).
    pub fn figure_8(v: Value) -> History {
        HistoryBuilder::new()
            .read(P1, X, v)
            .read(P2, X, v)
            .write_ok(P2, X, v + 1)
            .commit(P2)
            .write_ok(P1, X, v + 1)
            .commit(P1)
            .build()
            .expect("figure 8 is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::figures;
    use super::*;
    use crate::transaction::TxStatus;

    const P1: ProcessId = ProcessId(0);
    const X: TVarId = TVarId(0);

    #[test]
    fn builder_chains_and_validates() {
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P1, X, 1)
            .commit(P1)
            .build()
            .unwrap();
        assert_eq!(h.len(), 6);
        assert!(h.is_complete());
    }

    #[test]
    fn builder_rejects_malformed() {
        let err = HistoryBuilder::new()
            .respond(P1, Response::Ok)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            WellFormednessError::ResponseWithoutInvocation { .. }
        ));
    }

    #[test]
    fn build_unchecked_permits_malformed() {
        let h = HistoryBuilder::new()
            .respond(P1, Response::Ok)
            .build_unchecked();
        assert_eq!(h.len(), 1);
        assert!(!h.is_well_formed());
    }

    #[test]
    fn figure_1_shape() {
        let h = figures::figure_1();
        assert!(h.is_well_formed());
        let txs = h.transactions();
        assert_eq!(txs.len(), 2);
        let t1 = txs.iter().find(|t| t.process() == P1).unwrap();
        let t2 = txs.iter().find(|t| t.process() == ProcessId(1)).unwrap();
        assert_eq!(t1.status, TxStatus::Aborted);
        assert_eq!(t2.status, TxStatus::Committed);
        assert!(t1.concurrent_with(t2));
    }

    #[test]
    fn figure_3_both_commit() {
        let h = figures::figure_3();
        let txs = h.transactions();
        assert!(txs.iter().all(|t| t.status == TxStatus::Committed));
    }

    #[test]
    fn figure_4_shape() {
        let h = figures::figure_4();
        let txs = h.transactions();
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].status, TxStatus::Aborted); // p1
        assert_eq!(txs[1].status, TxStatus::Committed); // p2
    }

    #[test]
    fn figure_8_parameterized_by_value() {
        let h = figures::figure_8(41);
        let txs = h.transactions();
        assert!(txs.iter().all(|t| t.status == TxStatus::Committed));
        assert!(h.to_string().contains("x.write(42)"));
    }

    #[test]
    fn len_and_is_empty() {
        let mut b = HistoryBuilder::new();
        assert!(b.is_empty());
        b.read(P1, X, 0);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }
}
