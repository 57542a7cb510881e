//! A DSTM-style obstruction-free TM (Herlihy, Luchangco, Moir, Scherer;
//! PODC 2003) in stepped form, with an **aggressive** contention manager.
//!
//! The paper (§3.2.3) credits obstruction-free TMs with solo progress in
//! parasitic-free systems. DSTM's signature behaviours, preserved here:
//!
//! * writers acquire per-t-variable *ownership records* at encounter time,
//!   holding `(old value, new value)`; the committed (logical) value stays
//!   the old one until commit;
//! * readers read the committed value even of an owned t-variable;
//! * on a write-write conflict the aggressive contention manager **aborts
//!   the victim** (the current owner) rather than waiting — obstruction
//!   freedom: a transaction running alone always commits, but two
//!   contending writers can doom each other forever (livelock), which
//!   `livelock_under_contention` demonstrates;
//! * a doomed transaction learns of its fate at its next event: the
//!   response is `A_k`.

use tm_core::{Invocation, ProcessId, Response, TVarId, Value, INITIAL_VALUE};

use crate::api::{BoxedTm, Outcome, StepFootprint, SteppedTm};

#[derive(Debug, Clone)]
struct VarSlot {
    committed: Value,
    owner: Option<usize>,
    new_value: Value,
}

#[derive(Debug, Clone)]
struct ActiveTx {
    /// `(var, committed value at read time)` — value-validated.
    reads: Vec<(usize, Value)>,
}

#[derive(Debug, Clone)]
enum TxState {
    Idle,
    Active(ActiveTx),
    /// Aborted by another transaction's contention manager; the process
    /// learns at its next invocation.
    Doomed,
}

/// DSTM-style stepped TM (visible writers, invisible value-validated
/// readers, aggressive contention management).
///
/// # Examples
///
/// ```
/// use tm_core::{Invocation, ProcessId, Response, TVarId};
/// use tm_stm::{Dstm, Outcome, SteppedTm};
///
/// let (p1, p2, x) = (ProcessId(0), ProcessId(1), TVarId(0));
/// let mut tm = Dstm::new(2, 1);
/// assert_eq!(tm.invoke(p1, Invocation::Write(x, 1)), Outcome::Response(Response::Ok));
/// // p2's write steals ownership, dooming p1.
/// assert_eq!(tm.invoke(p2, Invocation::Write(x, 2)), Outcome::Response(Response::Ok));
/// assert_eq!(tm.invoke(p1, Invocation::TryCommit), Outcome::Response(Response::Aborted));
/// assert_eq!(tm.invoke(p2, Invocation::TryCommit), Outcome::Response(Response::Committed));
/// ```
#[derive(Debug, Clone)]
pub struct Dstm {
    vars: Vec<VarSlot>,
    txs: Vec<TxState>,
}

impl Dstm {
    /// Creates a DSTM instance for `processes` processes and `tvars`
    /// t-variables.
    ///
    /// # Panics
    ///
    /// Panics if `processes` or `tvars` is zero.
    pub fn new(processes: usize, tvars: usize) -> Self {
        assert!(processes > 0, "need at least one process");
        assert!(tvars > 0, "need at least one t-variable");
        Dstm {
            vars: vec![
                VarSlot {
                    committed: INITIAL_VALUE,
                    owner: None,
                    new_value: INITIAL_VALUE,
                };
                tvars
            ],
            txs: vec![TxState::Idle; processes],
        }
    }

    /// The committed (logical) value of a t-variable.
    pub fn committed_value(&self, x: TVarId) -> Value {
        self.vars[x.index()].committed
    }

    /// Dooms the transaction of process `victim`: releases its ownerships
    /// (the committed values stay) and marks it for abort at its next
    /// event.
    fn doom(&mut self, victim: usize) {
        for slot in &mut self.vars {
            if slot.owner == Some(victim) {
                slot.owner = None;
            }
        }
        self.txs[victim] = TxState::Doomed;
    }

    fn tx_mut(&mut self, k: usize) -> &mut ActiveTx {
        if matches!(self.txs[k], TxState::Idle) {
            self.txs[k] = TxState::Active(ActiveTx { reads: Vec::new() });
        }
        match &mut self.txs[k] {
            TxState::Active(tx) => tx,
            _ => unreachable!("caller handles Doomed before tx_mut"),
        }
    }

    fn reads_valid(vars: &[VarSlot], tx: &ActiveTx) -> bool {
        tx.reads.iter().all(|&(j, v)| vars[j].committed == v)
    }

    fn abort_self(&mut self, k: usize) -> Outcome {
        for slot in &mut self.vars {
            if slot.owner == Some(k) {
                slot.owner = None;
            }
        }
        self.txs[k] = TxState::Idle;
        Outcome::Response(Response::Aborted)
    }
}

impl SteppedTm for Dstm {
    fn name(&self) -> &'static str {
        "dstm"
    }

    fn process_count(&self) -> usize {
        self.txs.len()
    }

    fn tvar_count(&self) -> usize {
        self.vars.len()
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
                self.tx_mut(k);
                let value = {
                    let slot = &self.vars[j];
                    if slot.owner == Some(k) {
                        // Own speculative write.
                        return Outcome::Response(Response::Value(slot.new_value));
                    }
                    slot.committed
                };
                let tx_snapshot = self.tx_mut(k).clone();
                if !Self::reads_valid(&self.vars, &tx_snapshot) {
                    return self.abort_self(k);
                }
                self.tx_mut(k).reads.push((j, value));
                Outcome::Response(Response::Value(value))
            }
            Invocation::Write(x, v) => {
                let j = x.index();
                self.tx_mut(k);
                match self.vars[j].owner {
                    Some(owner) if owner != k => {
                        // Aggressive contention management: doom the owner.
                        self.doom(owner);
                        self.vars[j].owner = Some(k);
                        self.vars[j].new_value = v;
                    }
                    _ => {
                        self.vars[j].owner = Some(k);
                        self.vars[j].new_value = v;
                    }
                }
                Outcome::Response(Response::Ok)
            }
            Invocation::TryCommit => {
                let tx = self.tx_mut(k).clone();
                if !Self::reads_valid(&self.vars, &tx) {
                    return self.abort_self(k);
                }
                for slot in &mut self.vars {
                    if slot.owner == Some(k) {
                        slot.committed = slot.new_value;
                        slot.owner = None;
                    }
                }
                self.txs[k] = TxState::Idle;
                Outcome::Response(Response::Committed)
            }
        }
    }

    fn poll(&mut self, _process: ProcessId) -> Option<Response> {
        None // obstruction-free: never withholds responses
    }

    fn has_pending(&self, _process: ProcessId) -> bool {
        false
    }

    fn fork(&self) -> BoxedTm {
        Box::new(self.clone())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn refork_from(&mut self, source: &dyn SteppedTm) -> bool {
        let Some(source) = source.as_any().and_then(|a| a.downcast_ref::<Dstm>()) else {
            return false;
        };
        if self.txs.len() != source.txs.len() || self.vars.len() != source.vars.len() {
            return false;
        }
        self.vars.clone_from(&source.vars);
        for (dst, src) in self.txs.iter_mut().zip(&source.txs) {
            match (dst, src) {
                // Same-variant case reuses the read vector's buffer
                // instead of reallocating.
                (TxState::Active(dst), TxState::Active(src)) => {
                    dst.reads.clone_from(&src.reads);
                }
                (dst, src) => *dst = src.clone(),
            }
        }
        true
    }

    fn step_footprint(&self, process: ProcessId, invocation: Invocation) -> StepFootprint {
        // Audited conflict oracle. Shared state: per-variable ownership
        // records `(committed, owner, new_value)` plus — because the
        // aggressive contention manager dooms the current owner — every
        // process's transaction status. Doom checks make every step a
        // global reader; a stealing write is a global writer.
        let k = process.index();
        if matches!(self.txs[k], TxState::Doomed) {
            let mut fp = StepFootprint::local();
            fp.global_read = true;
            fp.ends = true;
            return fp;
        }
        let tx = match &self.txs[k] {
            TxState::Active(tx) => Some(tx),
            _ => None,
        };
        let mut fp = StepFootprint::local();
        fp.global_read = true; // doom flag, set by other processes' CM
        match invocation {
            Invocation::Read(x) => {
                let j = x.index();
                fp.add_read(x);
                if self.vars[j].owner != Some(k) {
                    if let Some(tx) = tx {
                        for &(j, _) in &tx.reads {
                            fp.add_read_index(j); // value revalidation
                        }
                        fp.ends = !Self::reads_valid(&self.vars, tx);
                    }
                }
            }
            Invocation::Write(x, _) => {
                let j = x.index();
                fp.add_write(x); // acquires (or steals) the ownership record
                if self.vars[j].owner.is_some_and(|o| o != k) {
                    // Aggressive CM: dooms the owner, releasing its
                    // ownerships across variables.
                    fp.global_write = true;
                }
            }
            Invocation::TryCommit => {
                fp.ends = true;
                if let Some(tx) = tx {
                    for &(j, _) in &tx.reads {
                        fp.add_read_index(j); // value validation
                    }
                    // Commit publishes owned slots; abort releases them.
                    for (j, slot) in self.vars.iter().enumerate() {
                        if slot.owner == Some(k) {
                            fp.add_write_index(j);
                        }
                    }
                }
            }
        }
        fp
    }

    fn state_digest(&self) -> Option<u64> {
        use std::hash::Hash;
        // No clocks — the state is naturally recurrent. One
        // canonicalization: an unowned slot's `new_value` is stale
        // residue from a finished owner (doom and abort release the
        // slot without clearing it), so it is hashed only while owned.
        let mut h = tm_core::StableHasher::new();
        for slot in &self.vars {
            (
                slot.committed,
                slot.owner,
                slot.owner.map(|_| slot.new_value),
            )
                .hash(&mut h);
        }
        for tx in &self.txs {
            match tx {
                TxState::Idle => 0u8.hash(&mut h),
                TxState::Doomed => 2u8.hash(&mut h),
                TxState::Active(tx) => {
                    1u8.hash(&mut h);
                    tx.reads.hash(&mut h);
                }
            }
        }
        Some(std::hash::Hasher::finish(&h))
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
    const Y: TVarId = TVarId(1);

    fn resp(tm: &mut impl SteppedTm, p: ProcessId, inv: Inv) -> Response {
        tm.invoke(p, inv).response().expect("dstm never blocks")
    }

    #[test]
    fn readers_see_committed_value_of_owned_var() {
        let mut tm = Dstm::new(2, 1);
        resp(&mut tm, P1, Inv::Write(X, 9));
        // p2 reads the committed value, not p1's speculative one — and is
        // not aborted (readers don't conflict with writers in this model).
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Value(0));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.committed_value(X), 9);
    }

    #[test]
    fn aggressive_cm_dooms_current_owner() {
        let mut tm = Recorded::new(Dstm::new(2, 1));
        resp(&mut tm, P1, Inv::Write(X, 1));
        resp(&mut tm, P2, Inv::Write(X, 2)); // steals, dooms p1
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Aborted);
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.inner().committed_value(X), 2);
        assert!(is_opaque(tm.history()));
    }

    #[test]
    fn livelock_under_contention() {
        // Two writers in the classic obstruction-freedom livelock schedule:
        // each steals ownership (dooming the other) before the other's
        // commit attempt, so nobody ever commits.
        let mut tm = Dstm::new(2, 1);
        assert_eq!(resp(&mut tm, P1, Inv::Write(X, 1)), Response::Ok);
        assert_eq!(resp(&mut tm, P2, Inv::Write(X, 2)), Response::Ok); // dooms p1
        let mut commits = 0;
        for _ in 0..100 {
            if resp(&mut tm, P1, Inv::TryCommit) == Response::Committed {
                commits += 1; // doomed: always A
            }
            assert_eq!(resp(&mut tm, P1, Inv::Write(X, 1)), Response::Ok); // dooms p2
            if resp(&mut tm, P2, Inv::TryCommit) == Response::Committed {
                commits += 1; // doomed: always A
            }
            assert_eq!(resp(&mut tm, P2, Inv::Write(X, 2)), Response::Ok); // dooms p1
        }
        assert_eq!(commits, 0);
        assert_eq!(tm.committed_value(X), 0);
    }

    #[test]
    fn solo_transaction_always_commits() {
        let mut tm = Dstm::new(2, 2);
        for round in 0..20u64 {
            assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(round));
            resp(&mut tm, P1, Inv::Write(X, round + 1));
            resp(&mut tm, P1, Inv::Write(Y, round));
            assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        }
    }

    #[test]
    fn doomed_transaction_aborts_once_then_recovers() {
        let mut tm = Dstm::new(2, 1);
        resp(&mut tm, P1, Inv::Write(X, 1));
        resp(&mut tm, P2, Inv::Write(X, 2));
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Aborted);
        // Fresh transaction proceeds.
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
    }

    #[test]
    fn dooming_releases_ownership_keeping_committed_value() {
        let mut tm = Dstm::new(3, 2);
        resp(&mut tm, P1, Inv::Write(X, 5));
        resp(&mut tm, P1, Inv::Write(Y, 6));
        // p2 steals x only; p1's ownership of y must also be released.
        resp(&mut tm, P2, Inv::Write(X, 7));
        assert_eq!(tm.vars[1].owner, None);
        assert_eq!(tm.committed_value(X), 0);
        assert_eq!(tm.committed_value(Y), 0);
    }

    #[test]
    fn value_validation_keeps_readers_consistent() {
        let mut tm = Dstm::new(2, 2);
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        resp(&mut tm, P2, Inv::Write(X, 1));
        resp(&mut tm, P2, Inv::Write(Y, 1));
        resp(&mut tm, P2, Inv::TryCommit);
        // p1's read of y now triggers validation failure on x.
        assert_eq!(resp(&mut tm, P1, Inv::Read(Y)), Response::Aborted);
    }

    #[test]
    fn random_interleaving_histories_are_opaque() {
        let mut tm = Recorded::new(Dstm::new(3, 2));
        let mut seed = 31337u64;
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
            .expect("every DSTM prefix must be opaque");
    }
}
