//! A TL2-style TM (Dice, Shalev, Shavit; DISC 2006) in stepped form.
//!
//! Deferred updates, a global version clock, and commit-time validation:
//!
//! * a transaction samples the clock at begin (`rv`);
//! * reads of t-variables with version `> rv` abort (the snapshot would be
//!   torn), otherwise the read is recorded invisibly;
//! * writes are buffered;
//! * commit re-validates the read set against `rv`, then advances the
//!   clock and publishes the write set at the new version.
//!
//! In the stepped model each invocation is atomic, so TL2's short
//! commit-time lock acquisition is invisible (locks never straddle a
//! step); what remains — and what the paper's adversary exploits — is the
//! version-clock conflict rule. TL2 uses deferred updates, which is why
//! the paper credits it with solo progress even in crash-prone systems
//! (§3.2.3): a crashed transaction holds nothing that blocks others.

use std::hash::Hash;

use tm_core::{Invocation, ProcessId, Response, TVarId, Value, INITIAL_VALUE};

use crate::api::{BoxedTm, Outcome, StepFootprint, SteppedTm};

#[derive(Debug, Clone)]
struct VarSlot {
    value: Value,
    version: u64,
}

#[derive(Debug, Clone)]
struct ActiveTx {
    rv: u64,
    reads: Vec<usize>,
    writes: std::collections::BTreeMap<usize, Value>,
}

#[derive(Debug, Clone)]
enum TxState {
    Idle,
    Active(ActiveTx),
}

/// TL2-style stepped TM. See the module docs.
///
/// # Examples
///
/// ```
/// use tm_core::{Invocation, ProcessId, Response, TVarId};
/// use tm_stm::{Outcome, SteppedTm, Tl2};
///
/// let (p1, x) = (ProcessId(0), TVarId(0));
/// let mut tm = Tl2::new(1, 1);
/// assert_eq!(
///     tm.invoke(p1, Invocation::Read(x)),
///     Outcome::Response(Response::Value(0))
/// );
/// assert_eq!(
///     tm.invoke(p1, Invocation::TryCommit),
///     Outcome::Response(Response::Committed)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Tl2 {
    clock: u64,
    vars: Vec<VarSlot>,
    txs: Vec<TxState>,
}

impl Tl2 {
    /// Creates a TL2 instance for `processes` processes and `tvars`
    /// t-variables.
    ///
    /// # Panics
    ///
    /// Panics if `processes` or `tvars` is zero.
    pub fn new(processes: usize, tvars: usize) -> Self {
        assert!(processes > 0, "need at least one process");
        assert!(tvars > 0, "need at least one t-variable");
        Tl2 {
            clock: 0,
            vars: vec![
                VarSlot {
                    value: INITIAL_VALUE,
                    version: 0
                };
                tvars
            ],
            txs: vec![TxState::Idle; processes],
        }
    }

    /// The committed value of a t-variable (writes are deferred, so the
    /// store always holds committed state).
    pub fn committed_value(&self, x: TVarId) -> Value {
        self.vars[x.index()].value
    }

    fn tx_mut(&mut self, k: usize) -> &mut ActiveTx {
        if matches!(self.txs[k], TxState::Idle) {
            self.txs[k] = TxState::Active(ActiveTx {
                rv: self.clock,
                reads: Vec::new(),
                writes: Default::default(),
            });
        }
        match &mut self.txs[k] {
            TxState::Active(tx) => tx,
            TxState::Idle => unreachable!(),
        }
    }

    fn abort(&mut self, k: usize) -> Outcome {
        self.txs[k] = TxState::Idle;
        Outcome::Response(Response::Aborted)
    }

    /// Rank table over every timestamp in the state: the clock, each
    /// slot version and each active transaction's `rv` (see
    /// [`crate::fingerprint::Ranks`] for why digests hash ranks).
    fn timestamp_ranks(&self) -> crate::fingerprint::Ranks {
        let mut stamps = Vec::with_capacity(self.vars.len() + self.txs.len() + 1);
        stamps.push(self.clock);
        stamps.extend(self.vars.iter().map(|s| s.version));
        for tx in &self.txs {
            if let TxState::Active(tx) = tx {
                stamps.push(tx.rv);
            }
        }
        crate::fingerprint::Ranks::new(stamps)
    }
}

impl SteppedTm for Tl2 {
    fn name(&self) -> &'static str {
        "tl2"
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
                let tx = self.tx_mut(k);
                if let Some(&v) = tx.writes.get(&j) {
                    return Outcome::Response(Response::Value(v));
                }
                let rv = tx.rv;
                let slot = &self.vars[j];
                if slot.version > rv {
                    return self.abort(k);
                }
                let value = slot.value;
                self.tx_mut(k).reads.push(j);
                Outcome::Response(Response::Value(value))
            }
            Invocation::Write(x, v) => {
                let j = x.index();
                self.tx_mut(k).writes.insert(j, v);
                Outcome::Response(Response::Ok)
            }
            Invocation::TryCommit => {
                let tx = self.tx_mut(k).clone();
                let valid = tx.reads.iter().all(|&j| self.vars[j].version <= tx.rv);
                if !valid {
                    return self.abort(k);
                }
                if !tx.writes.is_empty() {
                    self.clock += 1;
                    let wv = self.clock;
                    for (&j, &v) in &tx.writes {
                        self.vars[j] = VarSlot {
                            value: v,
                            version: wv,
                        };
                    }
                }
                self.txs[k] = TxState::Idle;
                Outcome::Response(Response::Committed)
            }
        }
    }

    fn poll(&mut self, _process: ProcessId) -> Option<Response> {
        None // TL2 never withholds responses.
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
        let Some(source) = source.as_any().and_then(|a| a.downcast_ref::<Tl2>()) else {
            return false;
        };
        if self.txs.len() != source.txs.len() || self.vars.len() != source.vars.len() {
            return false;
        }
        self.clock = source.clock;
        self.vars.clone_from(&source.vars);
        for (dst, src) in self.txs.iter_mut().zip(&source.txs) {
            match (dst, src) {
                // Same-variant case reuses the read vector's and write
                // map's existing buffers instead of reallocating.
                (TxState::Active(dst), TxState::Active(src)) => {
                    dst.rv = src.rv;
                    dst.reads.clone_from(&src.reads);
                    dst.writes.clone_from(&src.writes);
                }
                (dst, src) => *dst = src.clone(),
            }
        }
        true
    }

    fn state_digest(&self) -> Option<u64> {
        let ranks = self.timestamp_ranks();
        let rank = |t: u64| ranks.rank(t);
        let mut h = tm_core::StableHasher::new();
        rank(self.clock).hash(&mut h);
        for slot in &self.vars {
            (slot.value, rank(slot.version)).hash(&mut h);
        }
        for tx in &self.txs {
            match tx {
                TxState::Idle => 0u8.hash(&mut h),
                TxState::Active(tx) => {
                    1u8.hash(&mut h);
                    rank(tx.rv).hash(&mut h);
                    // Read/write sets are exact state: reads are replayed
                    // against versions at commit, buffered writes shadow
                    // reads and publish on commit. Their order is already
                    // canonical (invocation order per the deterministic
                    // client; key order for the map).
                    tx.reads.hash(&mut h);
                    tx.writes.hash(&mut h);
                }
            }
        }
        Some(std::hash::Hasher::finish(&h))
    }

    fn step_footprint(&self, process: ProcessId, invocation: Invocation) -> StepFootprint {
        // Audited conflict oracle. Shared state: per-variable slots
        // `(value, version)` and the global clock. Reads sample a slot
        // and validate `version > rv` (rv is transaction-local, drawn
        // from the clock at begin); writes buffer into the local write
        // set and touch nothing shared; only a committing `tryC`
        // advances the clock and publishes slots.
        let k = process.index();
        let tx = match &self.txs[k] {
            TxState::Active(tx) => Some(tx),
            TxState::Idle => None,
        };
        let mut fp = StepFootprint::local();
        // Begin samples the global clock.
        fp.global_read = tx.is_none();
        match invocation {
            Invocation::Read(x) => {
                let j = x.index();
                if tx.is_some_and(|tx| tx.writes.contains_key(&j)) {
                    return fp; // served from the local write buffer
                }
                fp.add_read(x);
                // Deterministic: the read aborts now iff the slot is
                // newer than the snapshot (a fresh transaction's rv is
                // the current clock, which no version exceeds).
                fp.ends = tx.is_some_and(|tx| self.vars[j].version > tx.rv);
            }
            Invocation::Write(..) => {} // buffered: local
            Invocation::TryCommit => {
                fp.ends = true;
                if let Some(tx) = tx {
                    for &j in &tx.reads {
                        fp.add_read_index(j); // commit-time validation
                    }
                    if !tx.writes.is_empty() {
                        fp.global_write = true; // clock bump
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
        tm.invoke(p, inv).response().expect("tl2 never blocks")
    }

    #[test]
    fn read_write_commit_cycle() {
        let mut tm = Tl2::new(1, 1);
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        assert_eq!(resp(&mut tm, P1, Inv::Write(X, 7)), Response::Ok);
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.committed_value(X), 7);
    }

    #[test]
    fn buffered_writes_read_back_and_stay_invisible() {
        let mut tm = Tl2::new(2, 1);
        resp(&mut tm, P1, Inv::Write(X, 5));
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(5));
        // Invisible to p2 and to the committed store.
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Value(0));
        assert_eq!(tm.committed_value(X), 0);
    }

    #[test]
    fn conflicting_writer_aborts_reader_at_commit() {
        // The Algorithm 1 pattern: p1 reads, p2 commits a write, p1 cannot
        // commit its own write of x.
        let mut tm = Recorded::new(Tl2::new(2, 1));
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Value(0));
        assert_eq!(resp(&mut tm, P2, Inv::Write(X, 1)), Response::Ok);
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        assert_eq!(resp(&mut tm, P1, Inv::Write(X, 1)), Response::Ok);
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Aborted);
        assert!(is_opaque(tm.history()));
    }

    #[test]
    fn stale_read_aborts_immediately() {
        let mut tm = Tl2::new(2, 2);
        // p1 begins (rv = 0) by reading y.
        assert_eq!(resp(&mut tm, P1, Inv::Read(Y)), Response::Value(0));
        // p2 commits x at version 1.
        resp(&mut tm, P2, Inv::Write(X, 9));
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        // p1's read of x sees version 1 > rv 0: abort at the read.
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Aborted);
    }

    #[test]
    fn read_only_transaction_commits_without_clock_bump() {
        let mut tm = Tl2::new(1, 1);
        resp(&mut tm, P1, Inv::Read(X));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.clock, 0);
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let mut tm = Tl2::new(2, 2);
        resp(&mut tm, P1, Inv::Write(X, 1));
        resp(&mut tm, P2, Inv::Write(Y, 2));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.committed_value(X), 1);
        assert_eq!(tm.committed_value(Y), 2);
    }

    #[test]
    fn aborted_transaction_leaves_no_trace() {
        let mut tm = Tl2::new(2, 1);
        resp(&mut tm, P1, Inv::Read(X));
        resp(&mut tm, P2, Inv::Write(X, 3));
        resp(&mut tm, P2, Inv::TryCommit);
        resp(&mut tm, P1, Inv::Write(X, 8));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Aborted);
        assert_eq!(tm.committed_value(X), 3);
        // p1 retries and succeeds.
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(3));
        resp(&mut tm, P1, Inv::Write(X, 8));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
    }

    #[test]
    fn random_interleaving_histories_are_opaque() {
        let mut tm = Recorded::new(Tl2::new(3, 2));
        let mut seed = 42u64;
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
            .expect("every TL2 prefix must be opaque");
    }
}
