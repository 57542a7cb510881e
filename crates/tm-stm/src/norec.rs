//! A NOrec-style TM (Dalessandro, Spear, Scott; PPoPP 2010) in stepped
//! form: no per-location metadata, one global sequence number, and
//! value-based validation.
//!
//! * a transaction snapshots the global sequence number at begin;
//! * every read records `(t-variable, value)`; if the sequence number has
//!   moved since the snapshot, the whole read set is re-validated **by
//!   value** — if every recorded value is unchanged, the snapshot is
//!   extended instead of aborting;
//! * writes are buffered; commit re-validates, applies the write set and
//!   bumps the sequence number.
//!
//! NOrec is included both as a baseline with a completely different
//! conflict-detection granularity (one orec for the whole memory) and
//! because value-based validation gives it a distinctive behaviour under
//! the paper's adversary: writing the *same* value back lets doomed
//! readers survive (silent-store tolerance, see `silent_store_tolerance`).

use std::collections::BTreeMap;

use tm_core::{Invocation, ProcessId, Response, TVarId, Value, INITIAL_VALUE};

use crate::api::{BoxedTm, Outcome, StepFootprint, SteppedTm};

#[derive(Debug, Clone)]
struct ActiveTx {
    snapshot: u64,
    reads: Vec<(usize, Value)>,
    writes: BTreeMap<usize, Value>,
}

#[derive(Debug, Clone)]
enum TxState {
    Idle,
    Active(ActiveTx),
}

/// NOrec-style stepped TM (global seqlock + value validation).
///
/// # Examples
///
/// ```
/// use tm_core::{Invocation, ProcessId, Response, TVarId};
/// use tm_stm::{Outcome, NOrec, SteppedTm};
///
/// let (p1, x) = (ProcessId(0), TVarId(0));
/// let mut tm = NOrec::new(1, 1);
/// assert_eq!(tm.invoke(p1, Invocation::Write(x, 2)), Outcome::Response(Response::Ok));
/// assert_eq!(tm.invoke(p1, Invocation::TryCommit), Outcome::Response(Response::Committed));
/// assert_eq!(tm.committed_value(x), 2);
/// ```
#[derive(Debug, Clone)]
pub struct NOrec {
    seq: u64,
    vars: Vec<Value>,
    txs: Vec<TxState>,
}

impl NOrec {
    /// Creates a NOrec instance for `processes` processes and `tvars`
    /// t-variables.
    ///
    /// # Panics
    ///
    /// Panics if `processes` or `tvars` is zero.
    pub fn new(processes: usize, tvars: usize) -> Self {
        assert!(processes > 0, "need at least one process");
        assert!(tvars > 0, "need at least one t-variable");
        NOrec {
            seq: 0,
            vars: vec![INITIAL_VALUE; tvars],
            txs: vec![TxState::Idle; processes],
        }
    }

    /// The committed value of a t-variable.
    pub fn committed_value(&self, x: TVarId) -> Value {
        self.vars[x.index()]
    }

    fn tx_mut(&mut self, k: usize) -> &mut ActiveTx {
        if matches!(self.txs[k], TxState::Idle) {
            self.txs[k] = TxState::Active(ActiveTx {
                snapshot: self.seq,
                reads: Vec::new(),
                writes: BTreeMap::new(),
            });
        }
        match &mut self.txs[k] {
            TxState::Active(tx) => tx,
            TxState::Idle => unreachable!(),
        }
    }

    /// Re-validates the read set by value; on success extends the snapshot
    /// to the current sequence number. Returns false if any read changed.
    fn revalidate(vars: &[Value], seq: u64, tx: &mut ActiveTx) -> bool {
        if tx.snapshot == seq {
            return true;
        }
        if tx.reads.iter().all(|&(j, v)| vars[j] == v) {
            tx.snapshot = seq;
            true
        } else {
            false
        }
    }

    fn abort(&mut self, k: usize) -> Outcome {
        self.txs[k] = TxState::Idle;
        Outcome::Response(Response::Aborted)
    }
}

impl SteppedTm for NOrec {
    fn name(&self) -> &'static str {
        "norec"
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
                let seq = self.seq;
                let vars = std::mem::take(&mut self.vars);
                let tx = self.tx_mut(k);
                if let Some(&v) = tx.writes.get(&j) {
                    self.vars = vars;
                    return Outcome::Response(Response::Value(v));
                }
                let ok = Self::revalidate(&vars, seq, tx);
                let value = vars[j];
                if ok {
                    tx.reads.push((j, value));
                }
                self.vars = vars;
                if !ok {
                    return self.abort(k);
                }
                Outcome::Response(Response::Value(value))
            }
            Invocation::Write(x, v) => {
                let j = x.index();
                self.tx_mut(k).writes.insert(j, v);
                Outcome::Response(Response::Ok)
            }
            Invocation::TryCommit => {
                let seq = self.seq;
                let vars = std::mem::take(&mut self.vars);
                let tx = self.tx_mut(k);
                let ok = Self::revalidate(&vars, seq, tx);
                let writes = tx.writes.clone();
                self.vars = vars;
                if !ok {
                    return self.abort(k);
                }
                if !writes.is_empty() {
                    self.seq += 1;
                    for (j, v) in writes {
                        self.vars[j] = v;
                    }
                }
                self.txs[k] = TxState::Idle;
                Outcome::Response(Response::Committed)
            }
        }
    }

    fn poll(&mut self, _process: ProcessId) -> Option<Response> {
        None // NOrec never withholds responses.
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
        let Some(source) = source.as_any().and_then(|a| a.downcast_ref::<NOrec>()) else {
            return false;
        };
        if self.txs.len() != source.txs.len() || self.vars.len() != source.vars.len() {
            return false;
        }
        self.seq = source.seq;
        self.vars.clone_from(&source.vars);
        for (dst, src) in self.txs.iter_mut().zip(&source.txs) {
            match (dst, src) {
                // Same-variant case reuses the read vector's and write
                // map's existing buffers instead of reallocating.
                (TxState::Active(dst), TxState::Active(src)) => {
                    dst.snapshot = src.snapshot;
                    dst.reads.clone_from(&src.reads);
                    dst.writes.clone_from(&src.writes);
                }
                (dst, src) => *dst = src.clone(),
            }
        }
        true
    }

    fn state_digest(&self) -> Option<u64> {
        use std::hash::Hash;
        // NOrec compares its sequence number only for *equality*
        // (`snapshot == seq` decides whether a value revalidation runs),
        // so the canonical digest reduces each transaction's snapshot to
        // a staleness bit and drops the absolute sequence number — a
        // commit flips every staleness bit identically in any two states
        // digesting equal (see [`SteppedTm::state_digest`]).
        let mut h = tm_core::StableHasher::new();
        self.vars.hash(&mut h);
        for tx in &self.txs {
            match tx {
                TxState::Idle => 0u8.hash(&mut h),
                TxState::Active(tx) => {
                    1u8.hash(&mut h);
                    (tx.snapshot == self.seq).hash(&mut h);
                    tx.reads.hash(&mut h);
                    tx.writes.hash(&mut h);
                }
            }
        }
        Some(std::hash::Hasher::finish(&h))
    }

    fn step_footprint(&self, process: ProcessId, invocation: Invocation) -> StepFootprint {
        // Audited conflict oracle. Shared state: the committed value
        // array and the single global sequence number. Every read
        // compares `snapshot` against `seq` (and may value-revalidate
        // the whole read set), so reads carry `global_read` and the read
        // set's variables; writes buffer locally; only a committing
        // `tryC` bumps `seq` and publishes values.
        let k = process.index();
        let tx = match &self.txs[k] {
            TxState::Active(tx) => Some(tx),
            TxState::Idle => None,
        };
        let mut fp = StepFootprint::local();
        match invocation {
            Invocation::Read(x) => {
                let j = x.index();
                if tx.is_some_and(|tx| tx.writes.contains_key(&j)) {
                    return fp; // served from the local write buffer
                }
                fp.global_read = true; // snapshot-vs-seq comparison (or begin)
                fp.add_read(x);
                if let Some(tx) = tx {
                    for &(j, _) in &tx.reads {
                        fp.add_read_index(j); // value revalidation
                    }
                    fp.ends = tx.snapshot != self.seq
                        && !tx.reads.iter().all(|&(j, v)| self.vars[j] == v);
                }
            }
            Invocation::Write(..) => {
                fp.global_read = tx.is_none(); // begin snapshots seq
            }
            Invocation::TryCommit => {
                fp.ends = true;
                fp.global_read = true;
                if let Some(tx) = tx {
                    for &(j, _) in &tx.reads {
                        fp.add_read_index(j);
                    }
                    if !tx.writes.is_empty() {
                        fp.global_write = true; // seq bump
                        for &j in tx.writes.keys() {
                            fp.add_write_index(j);
                        }
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
        tm.invoke(p, inv).response().expect("norec never blocks")
    }

    #[test]
    fn basic_commit_applies_writes() {
        let mut tm = NOrec::new(1, 2);
        resp(&mut tm, P1, Inv::Write(X, 4));
        resp(&mut tm, P1, Inv::Write(Y, 5));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.committed_value(X), 4);
        assert_eq!(tm.committed_value(Y), 5);
        assert_eq!(tm.seq, 1);
    }

    #[test]
    fn snapshot_extension_tolerates_unrelated_commits() {
        let mut tm = NOrec::new(2, 2);
        // p1 reads x; p2 commits a write to y; p1 reads y and can still
        // commit: value validation of x passes, snapshot extends.
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        resp(&mut tm, P2, Inv::Write(Y, 9));
        resp(&mut tm, P2, Inv::TryCommit);
        assert_eq!(resp(&mut tm, P1, Inv::Read(Y)), Response::Value(9));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
    }

    #[test]
    fn silent_store_tolerance() {
        // p2 writes back the same value: p1's value-based validation
        // succeeds where TL2's version check would abort.
        let mut tm = NOrec::new(2, 1);
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        resp(&mut tm, P2, Inv::Write(X, 0)); // silent store
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
    }

    #[test]
    fn conflicting_write_aborts_reader() {
        let mut tm = Recorded::new(NOrec::new(2, 1));
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        resp(&mut tm, P2, Inv::Write(X, 1));
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        resp(&mut tm, P1, Inv::Write(X, 1));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Aborted);
        assert!(is_opaque(tm.history()));
    }

    #[test]
    fn torn_read_aborts_at_read_time() {
        let mut tm = NOrec::new(2, 2);
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        resp(&mut tm, P2, Inv::Write(X, 1));
        resp(&mut tm, P2, Inv::Write(Y, 1));
        resp(&mut tm, P2, Inv::TryCommit);
        // p1's next read triggers revalidation: x changed → abort.
        assert_eq!(resp(&mut tm, P1, Inv::Read(Y)), Response::Aborted);
    }

    #[test]
    fn own_writes_read_back() {
        let mut tm = NOrec::new(1, 1);
        resp(&mut tm, P1, Inv::Write(X, 8));
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(8));
    }

    #[test]
    fn read_only_transactions_do_not_bump_seq() {
        let mut tm = NOrec::new(1, 1);
        resp(&mut tm, P1, Inv::Read(X));
        resp(&mut tm, P1, Inv::TryCommit);
        assert_eq!(tm.seq, 0);
    }

    #[test]
    fn random_interleaving_histories_are_opaque() {
        let mut tm = Recorded::new(NOrec::new(3, 2));
        let mut seed = 1234u64;
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
            .expect("every NOrec prefix must be opaque");
    }
}
