//! A TinySTM-style TM (Felber, Riegel, Fetzer; PPoPP 2008) in stepped form:
//! encounter-time locking with write-through updates and an undo log.
//!
//! Unlike TL2, writes acquire a per-t-variable lock **at encounter time**
//! and mutate the store in place, undoing on abort. Because locks persist
//! across steps, a suspended (crashed) writer leaves t-variables locked —
//! which is exactly why the paper classifies encounter-time lock-based TMs
//! (TinySTM, SwissTM) as ensuring solo progress only in systems that are
//! both crash-free and parasitic-free (§3.2.3). The contention policy is
//! *timid*: a transaction that runs into a lock aborts itself.

use tm_core::{Invocation, ProcessId, Response, TVarId, Value, INITIAL_VALUE};

use crate::api::{BoxedTm, Outcome, StepFootprint, SteppedTm};

#[derive(Debug, Clone)]
struct VarSlot {
    value: Value,
    version: u64,
    owner: Option<usize>,
}

#[derive(Debug, Clone)]
struct ActiveTx {
    rv: u64,
    reads: Vec<usize>,
    /// `(var, previous value)` in acquisition order; replayed backwards on
    /// abort.
    undo: Vec<(usize, Value)>,
}

#[derive(Debug, Clone)]
enum TxState {
    Idle,
    Active(ActiveTx),
}

/// TinySTM-style stepped TM (encounter-time locking, write-through).
///
/// # Examples
///
/// ```
/// use tm_core::{Invocation, ProcessId, Response, TVarId};
/// use tm_stm::{Outcome, SteppedTm, TinyStm};
///
/// let (p1, p2, x) = (ProcessId(0), ProcessId(1), TVarId(0));
/// let mut tm = TinyStm::new(2, 1);
/// // p1 writes x in place (lock held until commit)...
/// assert_eq!(tm.invoke(p1, Invocation::Write(x, 5)), Outcome::Response(Response::Ok));
/// // ...so p2's access to x aborts (timid contention management).
/// assert_eq!(tm.invoke(p2, Invocation::Read(x)), Outcome::Response(Response::Aborted));
/// ```
#[derive(Debug, Clone)]
pub struct TinyStm {
    clock: u64,
    vars: Vec<VarSlot>,
    txs: Vec<TxState>,
}

impl TinyStm {
    /// Creates a TinySTM instance for `processes` processes and `tvars`
    /// t-variables.
    ///
    /// # Panics
    ///
    /// Panics if `processes` or `tvars` is zero.
    pub fn new(processes: usize, tvars: usize) -> Self {
        assert!(processes > 0, "need at least one process");
        assert!(tvars > 0, "need at least one t-variable");
        TinyStm {
            clock: 0,
            vars: vec![
                VarSlot {
                    value: INITIAL_VALUE,
                    version: 0,
                    owner: None,
                };
                tvars
            ],
            txs: vec![TxState::Idle; processes],
        }
    }

    /// The committed value of a t-variable: the in-place value unless an
    /// active writer holds the lock, in which case the undo log holds the
    /// committed value.
    pub fn committed_value(&self, x: TVarId) -> Value {
        let j = x.index();
        let slot = &self.vars[j];
        let Some(owner) = slot.owner else {
            return slot.value;
        };
        if let TxState::Active(tx) = &self.txs[owner] {
            // First undo entry for j is the pre-transaction value.
            if let Some(&(_, old)) = tx.undo.iter().find(|&&(var, _)| var == j) {
                return old;
            }
        }
        slot.value
    }

    fn tx_mut(&mut self, k: usize) -> &mut ActiveTx {
        if matches!(self.txs[k], TxState::Idle) {
            self.txs[k] = TxState::Active(ActiveTx {
                rv: self.clock,
                reads: Vec::new(),
                undo: Vec::new(),
            });
        }
        match &mut self.txs[k] {
            TxState::Active(tx) => tx,
            TxState::Idle => unreachable!(),
        }
    }

    fn abort(&mut self, k: usize) -> Outcome {
        if let TxState::Active(tx) = std::mem::replace(&mut self.txs[k], TxState::Idle) {
            for &(j, old) in tx.undo.iter().rev() {
                self.vars[j].value = old;
            }
            for slot in &mut self.vars {
                if slot.owner == Some(k) {
                    slot.owner = None;
                }
            }
        }
        Outcome::Response(Response::Aborted)
    }
}

impl SteppedTm for TinyStm {
    fn name(&self) -> &'static str {
        "tinystm"
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
        match invocation {
            Invocation::Read(x) => {
                let j = x.index();
                self.tx_mut(k);
                let slot = &self.vars[j];
                match slot.owner {
                    Some(owner) if owner == k => {
                        // Own in-place write.
                        Outcome::Response(Response::Value(slot.value))
                    }
                    Some(_) => self.abort(k), // timid: locked by another
                    None => {
                        let (value, version) = (slot.value, slot.version);
                        let tx = self.tx_mut(k);
                        if version > tx.rv {
                            return self.abort(k);
                        }
                        tx.reads.push(j);
                        Outcome::Response(Response::Value(value))
                    }
                }
            }
            Invocation::Write(x, v) => {
                let j = x.index();
                self.tx_mut(k);
                match self.vars[j].owner {
                    Some(owner) if owner != k => self.abort(k),
                    Some(_) => {
                        self.vars[j].value = v;
                        Outcome::Response(Response::Ok)
                    }
                    None => {
                        let old = self.vars[j].value;
                        self.vars[j].owner = Some(k);
                        self.vars[j].value = v;
                        self.tx_mut(k).undo.push((j, old));
                        Outcome::Response(Response::Ok)
                    }
                }
            }
            Invocation::TryCommit => {
                let tx = self.tx_mut(k).clone();
                let valid = tx.reads.iter().all(|&j| {
                    let slot = &self.vars[j];
                    slot.version <= tx.rv && (slot.owner.is_none() || slot.owner == Some(k))
                });
                if !valid {
                    return self.abort(k);
                }
                let wrote = self.vars.iter().any(|s| s.owner == Some(k));
                if wrote {
                    self.clock += 1;
                    let wv = self.clock;
                    for slot in &mut self.vars {
                        if slot.owner == Some(k) {
                            slot.version = wv;
                            slot.owner = None;
                        }
                    }
                }
                self.txs[k] = TxState::Idle;
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

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn refork_from(&mut self, source: &dyn SteppedTm) -> bool {
        let Some(source) = source.as_any().and_then(|a| a.downcast_ref::<TinyStm>()) else {
            return false;
        };
        if self.txs.len() != source.txs.len() || self.vars.len() != source.vars.len() {
            return false;
        }
        self.clock = source.clock;
        self.vars.clone_from(&source.vars);
        for (dst, src) in self.txs.iter_mut().zip(&source.txs) {
            match (dst, src) {
                // Same-variant case reuses the read vector's and undo
                // log's existing buffers instead of reallocating.
                (TxState::Active(dst), TxState::Active(src)) => {
                    dst.rv = src.rv;
                    dst.reads.clone_from(&src.reads);
                    dst.undo.clone_from(&src.undo);
                }
                (dst, src) => *dst = src.clone(),
            }
        }
        true
    }

    fn state_digest(&self) -> Option<u64> {
        use std::hash::Hash;
        // Like TL2, TinySTM compares its version clock only relatively
        // (`version > rv`; commit draws `clock + 1`, a fresh maximum), so
        // the canonical digest hashes timestamp *ranks* rather than
        // absolute values (see [`crate::fingerprint::Ranks`]).
        let mut stamps = Vec::with_capacity(self.vars.len() + self.txs.len() + 1);
        stamps.push(self.clock);
        stamps.extend(self.vars.iter().map(|s| s.version));
        for tx in &self.txs {
            if let TxState::Active(tx) = tx {
                stamps.push(tx.rv);
            }
        }
        let ranks = crate::fingerprint::Ranks::new(stamps);
        let rank = |t: u64| ranks.rank(t);
        let mut h = tm_core::StableHasher::new();
        rank(self.clock).hash(&mut h);
        for slot in &self.vars {
            // Write-through: the in-place value is exact state whether or
            // not the slot is locked (the undo log holds the rollback).
            (slot.value, rank(slot.version), slot.owner).hash(&mut h);
        }
        for tx in &self.txs {
            match tx {
                TxState::Idle => 0u8.hash(&mut h),
                TxState::Active(tx) => {
                    1u8.hash(&mut h);
                    rank(tx.rv).hash(&mut h);
                    tx.reads.hash(&mut h);
                    tx.undo.hash(&mut h);
                }
            }
        }
        Some(std::hash::Hasher::finish(&h))
    }

    fn step_footprint(&self, process: ProcessId, invocation: Invocation) -> StepFootprint {
        // Audited conflict oracle. Shared state: per-variable slots
        // `(value, version, owner)` — write-through, so values *and*
        // encounter-time locks live in the slots — plus the global
        // clock. A step that may abort rolls back and unlocks the
        // transaction's whole undo log, so it writes every undone
        // variable.
        let k = process.index();
        let tx = match &self.txs[k] {
            TxState::Active(tx) => Some(tx),
            TxState::Idle => None,
        };
        let mut fp = StepFootprint::local();
        fp.global_read = tx.is_none(); // begin samples the clock
        let undo_writes = |fp: &mut StepFootprint| {
            if let Some(tx) = tx {
                for &(j, _) in &tx.undo {
                    fp.add_write_index(j);
                }
            }
        };
        match invocation {
            Invocation::Read(x) => {
                let j = x.index();
                fp.add_read(x);
                let slot = &self.vars[j];
                fp.ends = match slot.owner {
                    Some(owner) if owner == k => false, // own in-place write
                    Some(_) => true,                    // timid: locked by another
                    None => tx.is_some_and(|tx| slot.version > tx.rv),
                };
                if fp.ends {
                    undo_writes(&mut fp); // abort rolls back the undo log
                }
            }
            Invocation::Write(x, _) => {
                fp.add_write(x); // acquires the lock, writes in place
                fp.ends = self.vars[x.index()].owner.is_some_and(|o| o != k);
                if fp.ends {
                    undo_writes(&mut fp);
                }
            }
            Invocation::TryCommit => {
                fp.ends = true;
                if let Some(tx) = tx {
                    for &j in &tx.reads {
                        fp.add_read_index(j); // validation: version + owner
                    }
                    // Commit publishes versions and unlocks; abort rolls
                    // back — either way every owned slot is written.
                    let mut wrote = false;
                    for (j, slot) in self.vars.iter().enumerate() {
                        if slot.owner == Some(k) {
                            fp.add_write_index(j);
                            wrote = true;
                        }
                    }
                    if wrote {
                        fp.global_write = true; // clock bump on commit
                    }
                }
            }
        }
        fp
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
        tm.invoke(p, inv).response().expect("tiny never blocks")
    }

    #[test]
    fn write_through_updates_in_place_but_committed_view_lags() {
        let mut tm = TinyStm::new(2, 1);
        resp(&mut tm, P1, Inv::Write(X, 5));
        // In-place: the raw slot holds 5, the committed view reports 0.
        assert_eq!(tm.vars[0].value, 5);
        assert_eq!(tm.committed_value(X), 0);
        // p2 hits the lock and aborts itself.
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Aborted);
        // p1 commits: the committed view catches up.
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.committed_value(X), 5);
    }

    #[test]
    fn undo_restores_value_when_writer_aborts() {
        let mut tm = TinyStm::new(2, 2);
        // p1 reads y (rv = 0), then writes x in place.
        resp(&mut tm, P1, Inv::Read(Y));
        resp(&mut tm, P1, Inv::Write(X, 9));
        assert_eq!(tm.vars[0].value, 9);
        // p2 commits y, bumping its version beyond p1's rv.
        resp(&mut tm, P2, Inv::Write(Y, 1));
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        // p1's commit validation fails; undo restores x.
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Aborted);
        assert_eq!(tm.vars[0].value, 0);
        assert_eq!(tm.vars[0].owner, None);
    }

    #[test]
    fn lock_conflict_aborts_self() {
        let mut tm = TinyStm::new(2, 1);
        resp(&mut tm, P1, Inv::Write(X, 1));
        assert_eq!(resp(&mut tm, P2, Inv::Write(X, 2)), Response::Aborted);
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Aborted);
        // p1 unaffected.
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
    }

    #[test]
    fn own_reads_see_own_writes() {
        let mut tm = TinyStm::new(1, 1);
        resp(&mut tm, P1, Inv::Write(X, 3));
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(3));
        resp(&mut tm, P1, Inv::TryCommit);
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(3));
    }

    #[test]
    fn algorithm_1_pattern_starves_reader() {
        let mut tm = Recorded::new(TinyStm::new(2, 1));
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Value(0));
        resp(&mut tm, P2, Inv::Write(X, 1));
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        // p1's write now conflicts only at commit time (lock is free);
        // commit-time validation kills it.
        assert_eq!(resp(&mut tm, P1, Inv::Write(X, 1)), Response::Ok);
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Aborted);
        assert!(is_opaque(tm.history()));
    }

    #[test]
    fn crashed_writer_blocks_others_forever() {
        // The §3.2.3 claim: encounter-time locking loses solo progress
        // under crashes — p1 "crashes" while holding the lock, p2 aborts
        // forever (it never blocks, but can never succeed either).
        let mut tm = TinyStm::new(2, 1);
        resp(&mut tm, P1, Inv::Write(X, 1));
        for _ in 0..100 {
            assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Aborted);
        }
    }

    #[test]
    fn random_interleaving_histories_are_opaque() {
        let mut tm = Recorded::new(TinyStm::new(3, 2));
        let mut seed = 7u64;
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
            .expect("every TinySTM prefix must be opaque");
    }
}
