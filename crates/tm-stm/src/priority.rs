//! A priority-shielding TM, probing the paper's §7 future work.
//!
//! `PriorityFgp` is the `Fgp` idea with one twist: a transaction may only
//! commit if **no concurrently active transaction belongs to a process of
//! strictly higher priority** — lower-priority commit attempts abort
//! *themselves* instead of dooming the shielded transaction. In fault-free
//! executions this guarantees the top-priority process commits every
//! transaction it attempts, on *any* schedule (the adversary that starves
//! `p1` on plain `Fgp` bounces off).
//!
//! The price is exactly what the paper's impossibility machinery predicts:
//! the shield is a wait. If the top-priority process crashes or turns
//! parasitic *mid-transaction*, it stays in the concurrent group forever
//! and every lower-priority process aborts forever — so "the
//! highest-priority **correct** process makes progress" fails in
//! fault-prone systems even though the property is not biprogressing and
//! thus outside Theorem 2. `tests/extensions.rs` runs both sides of this
//! trade-off.

use std::collections::BTreeMap;

use tm_core::{Invocation, ProcessId, Response, TVarId, Value, INITIAL_VALUE};

use crate::api::{BoxedTm, Outcome, SteppedTm};

#[derive(Debug, Clone)]
enum TxState {
    Idle,
    Active {
        writes: BTreeMap<usize, Value>,
    },
    /// Doomed by a higher-or-equal-priority commit; aborts at next event.
    Doomed,
}

/// Priority-shielding Fgp-style TM. See the module docs.
///
/// # Examples
///
/// ```
/// use tm_core::{Invocation, ProcessId, Response, TVarId};
/// use tm_stm::{Outcome, PriorityFgp, SteppedTm};
///
/// let (p1, p2, x) = (ProcessId(0), ProcessId(1), TVarId(0));
/// // p1 has priority 2, p2 priority 1.
/// let mut tm = PriorityFgp::new(vec![2, 1], 1);
/// tm.invoke(p1, Invocation::Read(x));
/// tm.invoke(p2, Invocation::Write(x, 5));
/// // p2 cannot commit while the higher-priority p1 is active...
/// assert_eq!(tm.invoke(p2, Invocation::TryCommit), Outcome::Response(Response::Aborted));
/// // ...so p1's conflicting commit goes through.
/// assert_eq!(tm.invoke(p1, Invocation::Write(x, 1)), Outcome::Response(Response::Ok));
/// assert_eq!(tm.invoke(p1, Invocation::TryCommit), Outcome::Response(Response::Committed));
/// ```
#[derive(Debug, Clone)]
pub struct PriorityFgp {
    priorities: Vec<u32>,
    committed: Vec<Value>,
    txs: Vec<TxState>,
}

impl PriorityFgp {
    /// Creates the TM with one priority per process (larger = more
    /// important) and `tvars` t-variables.
    ///
    /// # Panics
    ///
    /// Panics if `priorities` is empty or `tvars` is zero.
    pub fn new(priorities: Vec<u32>, tvars: usize) -> Self {
        assert!(!priorities.is_empty(), "need at least one process");
        assert!(tvars > 0, "need at least one t-variable");
        let n = priorities.len();
        PriorityFgp {
            priorities,
            committed: vec![INITIAL_VALUE; tvars],
            txs: vec![TxState::Idle; n],
        }
    }

    /// The committed value of a t-variable.
    pub fn committed_value(&self, x: TVarId) -> Value {
        self.committed[x.index()]
    }

    /// The configured priority of a process.
    pub fn priority_of(&self, p: ProcessId) -> u32 {
        self.priorities[p.index()]
    }

    fn ensure_active(&mut self, k: usize) -> &mut BTreeMap<usize, Value> {
        if matches!(self.txs[k], TxState::Idle) {
            self.txs[k] = TxState::Active {
                writes: BTreeMap::new(),
            };
        }
        match &mut self.txs[k] {
            TxState::Active { writes } => writes,
            _ => unreachable!("caller handles Doomed before ensure_active"),
        }
    }

    /// Whether some *other* active transaction outranks process `k`.
    fn shielded_by_higher(&self, k: usize) -> bool {
        self.txs.iter().enumerate().any(|(k2, tx)| {
            k2 != k
                && matches!(tx, TxState::Active { .. })
                && self.priorities[k2] > self.priorities[k]
        })
    }
}

impl SteppedTm for PriorityFgp {
    fn name(&self) -> &'static str {
        "priority-fgp"
    }

    fn process_count(&self) -> usize {
        self.txs.len()
    }

    fn tvar_count(&self) -> usize {
        self.committed.len()
    }

    fn invoke(&mut self, process: ProcessId, invocation: Invocation) -> Outcome {
        let k = process.index();
        assert!(k < self.txs.len(), "process out of range");
        if matches!(self.txs[k], TxState::Doomed) {
            self.txs[k] = TxState::Idle;
            return Outcome::Response(Response::Aborted);
        }
        match invocation {
            Invocation::Read(x) => {
                let j = x.index();
                let writes = self.ensure_active(k);
                let value = writes.get(&j).copied().unwrap_or(self.committed[j]);
                // Reads are consistent: any commit since this transaction
                // began would have doomed it (handled above), so the
                // committed state is unchanged since its first event.
                Outcome::Response(Response::Value(value))
            }
            Invocation::Write(x, v) => {
                let j = x.index();
                self.ensure_active(k).insert(j, v);
                Outcome::Response(Response::Ok)
            }
            Invocation::TryCommit => {
                self.ensure_active(k);
                if self.shielded_by_higher(k) {
                    // The shield: yield to the more important transaction.
                    self.txs[k] = TxState::Idle;
                    return Outcome::Response(Response::Aborted);
                }
                let writes = match std::mem::replace(&mut self.txs[k], TxState::Idle) {
                    TxState::Active { writes } => writes,
                    _ => unreachable!(),
                };
                for (j, v) in writes {
                    self.committed[j] = v;
                }
                for (k2, tx) in self.txs.iter_mut().enumerate() {
                    if k2 != k && matches!(tx, TxState::Active { .. }) {
                        *tx = TxState::Doomed;
                    }
                }
                Outcome::Response(Response::Committed)
            }
        }
    }

    fn poll(&mut self, _process: ProcessId) -> Option<Response> {
        None // aborts instead of blocking
    }

    fn has_pending(&self, _process: ProcessId) -> bool {
        false
    }

    fn fork(&self) -> BoxedTm {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorded;
    use tm_core::Invocation as Inv;
    use tm_safety::is_opaque;

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);

    fn resp(tm: &mut impl SteppedTm, p: ProcessId, inv: Inv) -> Response {
        tm.invoke(p, inv).response().expect("never blocks")
    }

    #[test]
    fn shield_protects_the_high_priority_transaction() {
        let mut tm = Recorded::new(PriorityFgp::new(vec![2, 1], 1));
        // The Algorithm 1 opening: p1 reads, p2 tries to commit over it.
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Value(0));
        resp(&mut tm, P2, Inv::Write(X, 1));
        // p2's commit is refused while p1 is active.
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Aborted);
        // p1 commits its conflicting write — the adversary's round fails.
        resp(&mut tm, P1, Inv::Write(X, 1));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        assert!(is_opaque(tm.history()));
    }

    #[test]
    fn low_priority_processes_proceed_between_shielded_transactions() {
        let mut tm = PriorityFgp::new(vec![2, 1], 1);
        // p1 idle: p2 commits freely.
        resp(&mut tm, P2, Inv::Write(X, 5));
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.committed_value(X), 5);
    }

    #[test]
    fn commit_dooms_concurrent_transactions() {
        let mut tm = PriorityFgp::new(vec![2, 1], 1);
        resp(&mut tm, P2, Inv::Read(X));
        resp(&mut tm, P1, Inv::Write(X, 3));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        // p2 was concurrent: next event aborts, then it reads fresh state.
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Aborted);
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Value(3));
    }

    #[test]
    fn equal_priorities_behave_like_fgp() {
        let mut tm = PriorityFgp::new(vec![1, 1], 1);
        resp(&mut tm, P1, Inv::Read(X));
        resp(&mut tm, P2, Inv::Read(X));
        resp(&mut tm, P2, Inv::Write(X, 1));
        // No strictly-higher active transaction: first committer wins.
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        assert_eq!(resp(&mut tm, P1, Inv::Write(X, 1)), Response::Aborted);
    }

    #[test]
    fn crashed_top_priority_transaction_starves_everyone_below() {
        // The impossibility side: p1 (priority 2) opens a transaction and
        // "crashes"; p2 aborts at every commit attempt forever.
        let mut tm = PriorityFgp::new(vec![2, 1], 1);
        resp(&mut tm, P1, Inv::Read(X));
        for _ in 0..100 {
            resp(&mut tm, P2, Inv::Write(X, 9));
            assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Aborted);
        }
        assert_eq!(tm.committed_value(X), 0);
    }

    #[test]
    fn random_interleaving_histories_are_opaque() {
        let mut tm = Recorded::new(PriorityFgp::new(vec![3, 1, 2], 2));
        let mut seed = 0xFACEu64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..400 {
            let p = ProcessId((rng() % 3) as usize);
            let x = TVarId((rng() % 2) as usize);
            let inv = match rng() % 4 {
                0 | 1 => Inv::Read(x),
                2 => Inv::Write(x, rng() % 4),
                _ => Inv::TryCommit,
            };
            tm.invoke(p, inv);
        }
        let mut checker = tm_safety::IncrementalChecker::new(tm_safety::Mode::Opacity);
        checker
            .push_all(tm.history().iter().copied())
            .expect("every PriorityFgp prefix must be opaque");
    }
}
