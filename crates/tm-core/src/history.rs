//! Finite histories of a TM implementation.
//!
//! A history `H` is a finite sequence of events over `Inv ∪ Res` such that
//! for every process `pk` the projection `H|pk` is a word of `Σ_k^∞`:
//! invocations and responses strictly alternate (starting with an
//! invocation), and each response answers the preceding invocation. A
//! history may end with unanswered (pending) invocations.

use core::fmt;
use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::event::{Event, EventKind, Invocation, Response};
use crate::ids::{ProcessId, TVarId};
use crate::transaction::{transactions_of, Transaction, TxStatus};

/// A finite history: a well-formed (or to-be-validated) sequence of events.
///
/// `History` is an append-only sequence with structural helpers mirroring
/// the paper's definitions: projection `H|pk`, completion `com(H)`,
/// equivalence, sequentiality, and the committed-transaction subsequence
/// used by strict serializability.
///
/// # Examples
///
/// ```
/// use tm_core::{History, HistoryBuilder, ProcessId, TVarId};
///
/// let (p1, x) = (ProcessId(0), TVarId(0));
/// let h: History = HistoryBuilder::new()
///     .read(p1, x, 0)
///     .write_ok(p1, x, 1)
///     .commit(p1)
///     .build()
///     .expect("well-formed");
/// assert_eq!(h.len(), 6);
/// assert!(h.is_complete());
/// assert!(h.is_sequential());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct History {
    events: Vec<Event>,
}

/// Why a sequence of events is not a well-formed history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormednessError {
    /// A response event arrived for a process with no pending invocation.
    ResponseWithoutInvocation {
        /// Index of the offending event.
        position: usize,
        /// The offending response event.
        event: Event,
    },
    /// An invocation arrived while the process still awaits a response.
    InvocationWhilePending {
        /// Index of the offending event.
        position: usize,
        /// The offending invocation event.
        event: Event,
    },
    /// A response does not answer the pending invocation per `Σ_k`.
    MismatchedResponse {
        /// Index of the offending event.
        position: usize,
        /// The invocation awaiting a response.
        invocation: Invocation,
        /// The non-matching response.
        response: Response,
        /// The process involved.
        process: ProcessId,
    },
}

impl fmt::Display for WellFormednessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormednessError::ResponseWithoutInvocation { position, event } => write!(
                f,
                "response {event} at position {position} has no pending invocation"
            ),
            WellFormednessError::InvocationWhilePending { position, event } => write!(
                f,
                "invocation {event} at position {position} while a response is still pending"
            ),
            WellFormednessError::MismatchedResponse {
                position,
                invocation,
                response,
                process,
            } => write!(
                f,
                "response {response} at position {position} does not answer {process}'s pending invocation {invocation}"
            ),
        }
    }
}

impl std::error::Error for WellFormednessError {}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Creates a history from raw events **without** validating
    /// well-formedness. Use [`History::try_from_events`] to validate.
    pub fn from_events_unchecked(events: Vec<Event>) -> Self {
        History { events }
    }

    /// Creates a history from raw events, validating well-formedness.
    ///
    /// # Errors
    ///
    /// Returns a [`WellFormednessError`] if any per-process projection
    /// violates the alternation or matching rules of `Σ_k`.
    pub fn try_from_events(events: Vec<Event>) -> Result<Self, WellFormednessError> {
        let h = History { events };
        h.validate()?;
        Ok(h)
    }

    /// Number of events in the history.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The underlying event slice.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Iterates over the events in order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Appends an event without validation.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Appends an event, validating that the resulting history stays
    /// well-formed with respect to the process's pending invocation.
    ///
    /// # Errors
    ///
    /// Returns a [`WellFormednessError`] describing the violation; the
    /// history is left unchanged in that case.
    pub fn push_checked(&mut self, event: Event) -> Result<(), WellFormednessError> {
        let pending = self.pending_invocation(event.process);
        let position = self.events.len();
        match (event.kind, pending) {
            (EventKind::Invocation(_), Some(_)) => {
                return Err(WellFormednessError::InvocationWhilePending { position, event })
            }
            (EventKind::Response(_), None) => {
                return Err(WellFormednessError::ResponseWithoutInvocation { position, event })
            }
            (EventKind::Response(resp), Some(inv)) if !resp.answers(inv) => {
                return Err(WellFormednessError::MismatchedResponse {
                    position,
                    invocation: inv,
                    response: resp,
                    process: event.process,
                })
            }
            _ => {}
        }
        self.events.push(event);
        Ok(())
    }

    /// Validates well-formedness of the entire history.
    ///
    /// # Errors
    ///
    /// Returns the first [`WellFormednessError`] encountered scanning left
    /// to right.
    pub fn validate(&self) -> Result<(), WellFormednessError> {
        let mut pending: std::collections::BTreeMap<ProcessId, Invocation> = Default::default();
        for (position, event) in self.events.iter().enumerate() {
            match event.kind {
                EventKind::Invocation(inv) => {
                    if pending.contains_key(&event.process) {
                        return Err(WellFormednessError::InvocationWhilePending {
                            position,
                            event: *event,
                        });
                    }
                    pending.insert(event.process, inv);
                }
                EventKind::Response(resp) => match pending.remove(&event.process) {
                    None => {
                        return Err(WellFormednessError::ResponseWithoutInvocation {
                            position,
                            event: *event,
                        })
                    }
                    Some(inv) if !resp.answers(inv) => {
                        return Err(WellFormednessError::MismatchedResponse {
                            position,
                            invocation: inv,
                            response: resp,
                            process: event.process,
                        })
                    }
                    Some(_) => {}
                },
            }
        }
        Ok(())
    }

    /// Whether the history is well-formed.
    pub fn is_well_formed(&self) -> bool {
        self.validate().is_ok()
    }

    /// The projection `H|pk`: the longest subsequence of events belonging to
    /// process `pk`.
    pub fn project(&self, process: ProcessId) -> History {
        History {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.process == process)
                .collect(),
        }
    }

    /// The set of processes that have at least one event in the history.
    pub fn processes(&self) -> BTreeSet<ProcessId> {
        self.events.iter().map(|e| e.process).collect()
    }

    /// The set of t-variables accessed by any invocation in the history.
    pub fn tvars(&self) -> BTreeSet<TVarId> {
        self.events.iter().filter_map(Event::tvar).collect()
    }

    /// The invocation of `process` that has not yet been answered, if any.
    pub fn pending_invocation(&self, process: ProcessId) -> Option<Invocation> {
        let mut pending = None;
        for event in self.events.iter().filter(|e| e.process == process) {
            match event.kind {
                EventKind::Invocation(inv) => pending = Some(inv),
                EventKind::Response(_) => pending = None,
            }
        }
        pending
    }

    /// Two histories are *equivalent* iff every process's projection is the
    /// same in both.
    pub fn equivalent(&self, other: &History) -> bool {
        let procs: BTreeSet<ProcessId> = self
            .processes()
            .union(&other.processes())
            .copied()
            .collect();
        procs
            .iter()
            .all(|&p| self.project(p).events == other.project(p).events)
    }

    /// Parses the history into transactions (in order of first event).
    pub fn transactions(&self) -> Vec<Transaction> {
        transactions_of(self)
    }

    /// The completion `com(H)`: every transaction that is neither committed
    /// nor aborted is aborted by appending events at the end of the history.
    ///
    /// * A pending invocation is answered with `A_k` (allowed by `Σ_k`:
    ///   `e · A_k` for any invocation `e`).
    /// * A live transaction whose last event is a response is closed with
    ///   `tryC_k · A_k` so that the extended projection remains in `Σ_k^∞`.
    ///
    /// Returns `H` unchanged (a clone) if it is already complete.
    pub fn complete(&self) -> History {
        let mut out = self.clone();
        for tx in self.transactions() {
            match tx.status {
                TxStatus::Committed | TxStatus::Aborted => {}
                TxStatus::CommitPending => out.push(Event::aborted(tx.id.process)),
                TxStatus::Live => {
                    if self.pending_invocation(tx.id.process).is_some() {
                        out.push(Event::aborted(tx.id.process));
                    } else {
                        out.push(Event::try_commit(tx.id.process));
                        out.push(Event::aborted(tx.id.process));
                    }
                }
            }
        }
        out
    }

    /// Whether `com(H) = H`, i.e. every transaction is committed or aborted.
    pub fn is_complete(&self) -> bool {
        self.transactions()
            .iter()
            .all(|t| matches!(t.status, TxStatus::Committed | TxStatus::Aborted))
    }

    /// Whether the history is *sequential*: no two transactions are
    /// concurrent (every transaction but possibly the last finishes before
    /// the next one starts).
    pub fn is_sequential(&self) -> bool {
        let txs = self.transactions();
        for pair in txs.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            // Transactions are sorted by first position; `a` must terminate
            // (commit or abort) before `b` starts.
            if !matches!(a.status, TxStatus::Committed | TxStatus::Aborted)
                || a.last_pos >= b.first_pos
            {
                return false;
            }
        }
        true
    }

    /// The longest subsequence of `H` containing only events of committed
    /// transactions (used by strict serializability, where only committed
    /// transactions must be explainable).
    pub fn committed_projection(&self) -> History {
        let mut keep = vec![false; self.events.len()];
        for tx in self.transactions() {
            if tx.status == TxStatus::Committed {
                for &pos in &tx.positions {
                    keep[pos] = true;
                }
            }
        }
        History {
            events: self
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| keep[i].then_some(*e))
                .collect(),
        }
    }

    /// Concatenates two histories.
    pub fn concat(&self, other: &History) -> History {
        let mut events = self.events.clone();
        events.extend_from_slice(&other.events);
        History { events }
    }

    /// Number of commit events `C_k` of the given process.
    pub fn commit_count(&self, process: ProcessId) -> usize {
        self.events
            .iter()
            .filter(|e| e.process == process && e.is_commit())
            .count()
    }

    /// Number of abort events `A_k` of the given process.
    pub fn abort_count(&self, process: ProcessId) -> usize {
        self.events
            .iter()
            .filter(|e| e.process == process && e.is_abort())
            .count()
    }

    /// Number of `tryC_k` invocations of the given process.
    pub fn try_commit_count(&self, process: ProcessId) -> usize {
        self.events
            .iter()
            .filter(|e| e.process == process && e.is_try_commit())
            .count()
    }

    /// Renders the history as per-process lanes in the style of the paper's
    /// figures: one line per process, operations joined left to right in
    /// global order.
    ///
    /// ```text
    /// p1 | x.read→0                      x.write(1)→A
    /// p2 |          x.read→0 x.write(1)→ok tryC→C
    /// ```
    pub fn render_lanes(&self) -> String {
        use std::fmt::Write as _;
        let procs: Vec<ProcessId> = self.processes().into_iter().collect();
        if procs.is_empty() {
            return String::from("(empty history)\n");
        }
        // Pair invocations with their responses into "cells".
        struct Cell {
            process: ProcessId,
            text: String,
        }
        let mut cells: Vec<Cell> = Vec::new();
        let mut open: std::collections::BTreeMap<ProcessId, usize> = Default::default();
        for event in &self.events {
            match event.kind {
                EventKind::Invocation(inv) => {
                    open.insert(event.process, cells.len());
                    cells.push(Cell {
                        process: event.process,
                        text: inv.to_string(),
                    });
                }
                EventKind::Response(resp) => {
                    if let Some(&idx) = open.get(&event.process) {
                        let _ = write!(cells[idx].text, "→{resp}");
                        open.remove(&event.process);
                    }
                }
            }
        }
        let mut lanes: std::collections::BTreeMap<ProcessId, String> = procs
            .iter()
            .map(|&p| (p, format!("{p:>4} |", p = p.to_string())))
            .collect();
        for cell in &cells {
            let width = cell.text.len() + 1;
            for (&p, lane) in lanes.iter_mut() {
                if p == cell.process {
                    let _ = write!(lane, " {}", cell.text);
                } else {
                    let _ = write!(lane, "{:width$}", "", width = width);
                }
            }
        }
        let mut out = String::new();
        for (_, lane) in lanes {
            out.push_str(lane.trim_end());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for event in &self.events {
            if !first {
                write!(f, " · ")?;
            }
            write!(f, "{event}")?;
            first = false;
        }
        if first {
            write!(f, "ε")?;
        }
        Ok(())
    }
}

impl FromIterator<Event> for History {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        History {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<Event> for History {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl<'a> IntoIterator for &'a History {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for History {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);

    fn committed_write_history() -> History {
        HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P1, X, 1)
            .commit(P1)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_history_is_well_formed_complete_sequential() {
        let h = History::new();
        assert!(h.is_well_formed());
        assert!(h.is_complete());
        assert!(h.is_sequential());
        assert!(h.is_empty());
        assert_eq!(h.to_string(), "ε");
    }

    #[test]
    fn validation_rejects_response_without_invocation() {
        let h = History::from_events_unchecked(vec![Event::value(P1, 0)]);
        assert!(matches!(
            h.validate(),
            Err(WellFormednessError::ResponseWithoutInvocation { position: 0, .. })
        ));
    }

    #[test]
    fn validation_rejects_double_invocation() {
        let h = History::from_events_unchecked(vec![Event::read(P1, X), Event::read(P1, X)]);
        assert!(matches!(
            h.validate(),
            Err(WellFormednessError::InvocationWhilePending { position: 1, .. })
        ));
    }

    #[test]
    fn validation_rejects_mismatched_response() {
        let h = History::from_events_unchecked(vec![Event::read(P1, X), Event::ok(P1)]);
        assert!(matches!(
            h.validate(),
            Err(WellFormednessError::MismatchedResponse { position: 1, .. })
        ));
    }

    #[test]
    fn validation_allows_interleaving_across_processes() {
        let h = History::from_events_unchecked(vec![
            Event::read(P1, X),
            Event::read(P2, X),
            Event::value(P2, 0),
            Event::value(P1, 0),
        ]);
        assert!(h.is_well_formed());
    }

    #[test]
    fn push_checked_accepts_valid_and_rejects_invalid() {
        let mut h = History::new();
        h.push_checked(Event::read(P1, X)).unwrap();
        assert!(h.push_checked(Event::write(P1, X, 1)).is_err());
        h.push_checked(Event::value(P1, 0)).unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn projection_extracts_single_process() {
        let h = History::from_events_unchecked(vec![
            Event::read(P1, X),
            Event::read(P2, X),
            Event::value(P2, 0),
            Event::value(P1, 0),
        ]);
        let p1 = h.project(P1);
        assert_eq!(p1.events(), &[Event::read(P1, X), Event::value(P1, 0)][..]);
        assert_eq!(h.project(ProcessId(9)).len(), 0);
    }

    #[test]
    fn pending_invocation_tracking() {
        let mut h = History::new();
        assert_eq!(h.pending_invocation(P1), None);
        h.push(Event::read(P1, X));
        assert_eq!(h.pending_invocation(P1), Some(Invocation::Read(X)));
        h.push(Event::value(P1, 0));
        assert_eq!(h.pending_invocation(P1), None);
    }

    #[test]
    fn equivalence_ignores_interleaving_but_not_content() {
        let a = History::from_events_unchecked(vec![
            Event::read(P1, X),
            Event::read(P2, X),
            Event::value(P1, 0),
            Event::value(P2, 0),
        ]);
        let b = History::from_events_unchecked(vec![
            Event::read(P2, X),
            Event::value(P2, 0),
            Event::read(P1, X),
            Event::value(P1, 0),
        ]);
        assert!(a.equivalent(&b));

        let c = History::from_events_unchecked(vec![
            Event::read(P2, X),
            Event::value(P2, 1), // different value
            Event::read(P1, X),
            Event::value(P1, 0),
        ]);
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn completion_of_complete_history_is_identity() {
        let h = committed_write_history();
        assert!(h.is_complete());
        assert_eq!(h.complete(), h);
    }

    #[test]
    fn completion_aborts_pending_invocation() {
        let h = History::from_events_unchecked(vec![Event::read(P1, X)]);
        let c = h.complete();
        assert!(c.is_complete());
        assert_eq!(c.len(), 2);
        assert!(c.events()[1].is_abort());
        assert!(c.is_well_formed());
    }

    #[test]
    fn completion_closes_live_transaction_with_tryc_abort() {
        let h = HistoryBuilder::new().read(P1, X, 0).build().unwrap();
        let c = h.complete();
        assert!(c.is_complete());
        assert!(c.is_well_formed());
        assert_eq!(c.len(), 4); // read, value, tryC, A
        assert!(c.events()[2].is_try_commit());
        assert!(c.events()[3].is_abort());
    }

    #[test]
    fn completion_aborts_commit_pending_transaction() {
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .invoke(P1, Invocation::TryCommit)
            .build()
            .unwrap();
        let c = h.complete();
        assert!(c.is_well_formed());
        assert!(c.is_complete());
        assert!(c.events().last().unwrap().is_abort());
    }

    #[test]
    fn sequential_detection() {
        let seq = HistoryBuilder::new()
            .read(P1, X, 0)
            .commit(P1)
            .read(P2, X, 0)
            .commit(P2)
            .build()
            .unwrap();
        assert!(seq.is_sequential());

        let conc = History::from_events_unchecked(vec![
            Event::read(P1, X),
            Event::read(P2, X),
            Event::value(P1, 0),
            Event::value(P2, 0),
        ]);
        assert!(!conc.is_sequential());
    }

    #[test]
    fn committed_projection_keeps_only_committed_transactions() {
        // p1 commits; p2 aborts.
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .read_abort(P2, X)
            .commit(P1)
            .build()
            .unwrap();
        let cp = h.committed_projection();
        assert!(cp.iter().all(|e| e.process == P1));
        assert_eq!(cp.len(), 4); // read, value, tryC, C
    }

    #[test]
    fn event_counters() {
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .commit(P1)
            .read_abort(P1, X)
            .build()
            .unwrap();
        assert_eq!(h.commit_count(P1), 1);
        assert_eq!(h.abort_count(P1), 1);
        assert_eq!(h.try_commit_count(P1), 1);
        assert_eq!(h.commit_count(P2), 0);
    }

    #[test]
    fn concat_appends_events() {
        let a = HistoryBuilder::new().read(P1, X, 0).build().unwrap();
        let b = HistoryBuilder::new().commit(P1).build().unwrap();
        let ab = a.concat(&b);
        assert_eq!(ab.len(), a.len() + b.len());
        assert!(ab.is_well_formed());
    }

    #[test]
    fn render_lanes_contains_each_process_row() {
        let h = committed_write_history();
        let lanes = h.render_lanes();
        assert!(lanes.contains("p1 |"));
        assert!(lanes.contains("x.read→0"));
        assert!(lanes.contains("tryC→C"));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut h: History = vec![Event::read(P1, X)].into_iter().collect();
        h.extend(vec![Event::value(P1, 0)]);
        assert_eq!(h.len(), 2);
        assert!(h.is_well_formed());
    }
}
