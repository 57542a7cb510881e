//! Lasso-shaped infinite histories.
//!
//! The paper's liveness definitions quantify over *infinite* histories.
//! Every infinite history appearing in the paper — the figures, the
//! adversary outcomes, the counterexamples — is **eventually periodic**:
//! it has the form `prefix · cycle^ω`. On that class, all of the paper's
//! "finitely many events of kind k" / "infinitely many events of kind k"
//! predicates are exactly decidable, which makes the liveness
//! classification in [`mod@crate::classify`] exact rather than heuristic.

use core::fmt;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use tm_core::{History, Invocation, ProcessId, WellFormednessError};

/// An eventually periodic infinite history `prefix · cycle^ω`.
///
/// # Examples
///
/// ```
/// use tm_core::{HistoryBuilder, ProcessId, TVarId};
/// use tm_liveness::InfiniteHistory;
///
/// let (p1, x) = (ProcessId(0), TVarId(0));
/// // p1 commits a transaction over and over: prefix is empty, the cycle is
/// // one committed transaction.
/// let cycle = HistoryBuilder::new()
///     .read(p1, x, 0)
///     .write_ok(p1, x, 0)
///     .commit(p1)
///     .build()?;
/// let h = InfiniteHistory::new(tm_core::History::new(), cycle)?;
/// assert!(h.cycle_projection_nonempty(p1));
/// # Ok::<(), tm_liveness::LassoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InfiniteHistory {
    prefix: History,
    cycle: History,
}

/// Why a `(prefix, cycle)` pair does not describe a well-formed infinite
/// history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LassoError {
    /// The cycle is empty, so the history would be finite.
    EmptyCycle,
    /// `prefix · cycle` is not a well-formed finite history.
    IllFormed(WellFormednessError),
    /// The per-process pending-invocation state after `prefix` differs from
    /// the state after `prefix · cycle`, so the unrolling
    /// `prefix · cycle · cycle · …` would be ill-formed.
    InconsistentCycle {
        /// A process whose pending state differs at the cycle boundary.
        process: ProcessId,
    },
}

impl fmt::Display for LassoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LassoError::EmptyCycle => write!(f, "cycle must be non-empty"),
            LassoError::IllFormed(e) => write!(f, "prefix·cycle is ill-formed: {e}"),
            LassoError::InconsistentCycle { process } => write!(
                f,
                "pending-invocation state of {process} differs across the cycle boundary"
            ),
        }
    }
}

impl std::error::Error for LassoError {}

impl From<WellFormednessError> for LassoError {
    fn from(e: WellFormednessError) -> Self {
        LassoError::IllFormed(e)
    }
}

fn pending_map(h: &History) -> BTreeMap<ProcessId, Option<Invocation>> {
    h.processes()
        .into_iter()
        .map(|p| (p, h.pending_invocation(p)))
        .collect()
}

impl InfiniteHistory {
    /// Creates a validated lasso history.
    ///
    /// # Errors
    ///
    /// * [`LassoError::EmptyCycle`] if `cycle` has no events;
    /// * [`LassoError::IllFormed`] if `prefix · cycle` violates `Σ_k`;
    /// * [`LassoError::InconsistentCycle`] if unrolling the cycle twice
    ///   would violate `Σ_k`.
    pub fn new(prefix: History, cycle: History) -> Result<Self, LassoError> {
        if cycle.is_empty() {
            return Err(LassoError::EmptyCycle);
        }
        let once = prefix.concat(&cycle);
        once.validate()?;
        // If `prefix·cycle` is well-formed but `prefix·cycle·cycle` is not,
        // the second repetition failed at the cycle boundary: the cycle
        // leaves some process in a pending state it cannot re-enter with.
        // (Conversely, if both validate, the per-process pending state after
        // one and two repetitions must agree, so every further unrolling is
        // well-formed by induction.)
        let twice = once.concat(&cycle);
        if let Err(e) = twice.validate() {
            let process = match e {
                WellFormednessError::ResponseWithoutInvocation { event, .. }
                | WellFormednessError::InvocationWhilePending { event, .. } => event.process,
                WellFormednessError::MismatchedResponse { process, .. } => process,
            };
            return Err(LassoError::InconsistentCycle { process });
        }
        debug_assert_eq!(pending_map(&once), pending_map(&twice));
        Ok(InfiniteHistory { prefix, cycle })
    }

    /// The finite prefix before the periodic part.
    pub fn prefix(&self) -> &History {
        &self.prefix
    }

    /// The period: the event sequence repeated forever.
    pub fn cycle(&self) -> &History {
        &self.cycle
    }

    /// The set of processes with at least one event in the history.
    pub fn processes(&self) -> std::collections::BTreeSet<ProcessId> {
        let mut set = self.prefix.processes();
        set.extend(self.cycle.processes());
        set
    }

    /// Whether `process` has at least one event in the history (the paper's
    /// histories implicitly range over participating processes; see
    /// [`crate::classify::is_correct`] on absent processes).
    pub fn participates(&self, process: ProcessId) -> bool {
        self.prefix.project(process).len() + self.cycle.project(process).len() > 0
    }

    /// Whether `process` has events inside the periodic part — i.e. whether
    /// `H|pk` is infinite.
    pub fn cycle_projection_nonempty(&self, process: ProcessId) -> bool {
        !self.cycle.project(process).is_empty()
    }

    /// Materializes the finite history `prefix · cycle^n`.
    pub fn unroll(&self, n: usize) -> History {
        let mut h = self.prefix.clone();
        for _ in 0..n {
            h.extend(self.cycle.iter().copied());
        }
        h
    }

    /// Number of commit events `C_k` of `process` per cycle repetition.
    pub fn commits_per_cycle(&self, process: ProcessId) -> usize {
        self.cycle.commit_count(process)
    }

    /// Number of abort events `A_k` of `process` per cycle repetition.
    pub fn aborts_per_cycle(&self, process: ProcessId) -> usize {
        self.cycle.abort_count(process)
    }

    /// Number of `tryC_k` invocations of `process` per cycle repetition.
    pub fn try_commits_per_cycle(&self, process: ProcessId) -> usize {
        self.cycle.try_commit_count(process)
    }

    /// Renders `prefix · cycle · cycle · …` lanes with the cycle marked.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.prefix.is_empty() {
            out.push_str("prefix:\n");
            out.push_str(&self.prefix.render_lanes());
        }
        out.push_str("cycle (repeats forever):\n");
        out.push_str(&self.cycle.render_lanes());
        out
    }
}

impl fmt::Display for InfiniteHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} · ({})^ω", self.prefix, self.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{Event, HistoryBuilder, TVarId};

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);

    fn commit_cycle(p: ProcessId) -> History {
        HistoryBuilder::new()
            .read(p, X, 0)
            .commit(p)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_cycle_rejected() {
        assert_eq!(
            InfiniteHistory::new(History::new(), History::new()),
            Err(LassoError::EmptyCycle)
        );
    }

    #[test]
    fn well_formed_lasso_accepted() {
        let h = InfiniteHistory::new(History::new(), commit_cycle(P1)).unwrap();
        assert_eq!(h.commits_per_cycle(P1), 1);
        assert!(h.participates(P1));
        assert!(!h.participates(P2));
    }

    #[test]
    fn ill_formed_concatenation_rejected() {
        // Prefix leaves a pending read; cycle starts with another invocation
        // by the same process.
        let prefix = HistoryBuilder::new()
            .invoke(P1, Invocation::Read(X))
            .build()
            .unwrap();
        let cycle = HistoryBuilder::new()
            .invoke(P1, Invocation::Read(X))
            .build_unchecked();
        assert!(matches!(
            InfiniteHistory::new(prefix, cycle),
            Err(LassoError::IllFormed(_))
        ));
    }

    #[test]
    fn inconsistent_cycle_boundary_rejected() {
        // Cycle contains a lone invocation: fine after the empty prefix, but
        // the second unrolling would stack two pending invocations.
        let cycle = History::from_events_unchecked(vec![Event::read(P1, X)]);
        assert!(matches!(
            InfiniteHistory::new(History::new(), cycle),
            Err(LassoError::InconsistentCycle { .. })
        ));
    }

    #[test]
    fn mismatched_response_in_concatenation_rejected() {
        // The cycle answers the prefix's pending read with `Ok` (a write
        // acknowledgement): `prefix · cycle` violates Σ_k with a
        // MismatchedResponse, surfacing as IllFormed.
        let prefix = HistoryBuilder::new()
            .invoke(P1, Invocation::Read(X))
            .build()
            .unwrap();
        let cycle = History::from_events_unchecked(vec![Event::ok(P1)]);
        assert!(matches!(
            InfiniteHistory::new(prefix, cycle),
            Err(LassoError::IllFormed(
                tm_core::WellFormednessError::MismatchedResponse { .. }
            ))
        ));
    }

    #[test]
    fn response_without_invocation_rejected() {
        let cycle = History::from_events_unchecked(vec![Event::committed(P1)]);
        assert!(matches!(
            InfiniteHistory::new(History::new(), cycle),
            Err(LassoError::IllFormed(
                tm_core::WellFormednessError::ResponseWithoutInvocation { .. }
            ))
        ));
    }

    #[test]
    fn inconsistent_cycle_names_the_offending_process() {
        // P2's lone invocation stacks at the boundary; the error must
        // name P2, not P1 (whose projection is fine).
        let prefix = HistoryBuilder::new().read(P1, X, 0).build().unwrap();
        let cycle = History::from_events_unchecked(vec![Event::read(P2, X)]);
        assert_eq!(
            InfiniteHistory::new(prefix, cycle),
            Err(LassoError::InconsistentCycle { process: P2 })
        );
    }

    #[test]
    fn open_transaction_across_cycle_is_allowed() {
        // A parasitic process keeps a transaction open forever with
        // completed ops: no pending invocation at the boundary.
        let cycle = HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P1, X, 1)
            .build()
            .unwrap();
        let h = InfiniteHistory::new(History::new(), cycle).unwrap();
        assert!(h.cycle_projection_nonempty(P1));
        assert_eq!(h.try_commits_per_cycle(P1), 0);
    }

    #[test]
    fn unroll_materializes_prefix_plus_n_cycles() {
        let prefix = HistoryBuilder::new().read(P2, X, 0).build().unwrap();
        let h = InfiniteHistory::new(prefix, commit_cycle(P1)).unwrap();
        let u0 = h.unroll(0);
        assert_eq!(u0.len(), h.prefix().len());
        let u3 = h.unroll(3);
        assert_eq!(u3.len(), h.prefix().len() + 3 * h.cycle().len());
        assert!(u3.is_well_formed());
        assert_eq!(u3.commit_count(P1), 3);
    }

    #[test]
    fn per_cycle_counters() {
        let cycle = HistoryBuilder::new()
            .read(P1, X, 0)
            .abort_on_try_commit(P1)
            .read(P1, X, 0)
            .commit(P1)
            .build()
            .unwrap();
        let h = InfiniteHistory::new(History::new(), cycle).unwrap();
        assert_eq!(h.commits_per_cycle(P1), 1);
        assert_eq!(h.aborts_per_cycle(P1), 1);
        assert_eq!(h.try_commits_per_cycle(P1), 2);
    }

    #[test]
    fn processes_unions_prefix_and_cycle() {
        let prefix = HistoryBuilder::new().read(P2, X, 0).build().unwrap();
        let h = InfiniteHistory::new(prefix, commit_cycle(P1)).unwrap();
        let procs = h.processes();
        assert!(procs.contains(&P1) && procs.contains(&P2));
    }

    #[test]
    fn render_mentions_cycle() {
        let h = InfiniteHistory::new(History::new(), commit_cycle(P1)).unwrap();
        assert!(h.render().contains("cycle"));
    }
}
