//! A SwissTM-style TM (Dragojević, Guerraoui, Kapałka; PLDI 2009) in
//! stepped form: two-phase conflict detection with a greedy contention
//! manager.
//!
//! SwissTM's signature mix, preserved here:
//!
//! * **write/write conflicts eagerly**: a write acquires the t-variable's
//!   write lock at encounter time; on conflict the **greedy** contention
//!   manager compares transaction ages (global begin timestamps): the
//!   *older* transaction wins and the younger one is aborted — no
//!   livelock, unlike DSTM's aggressive CM (the test
//!   `no_livelock_under_alternating_steal` runs the schedule that
//!   livelocks DSTM);
//! * **read/write conflicts lazily**: writes are buffered (deferred
//!   update), reads are invisible and validated against a TL2-style global
//!   version clock, so readers never block writers and vice versa;
//! * commit validates the read set, publishes the write set at a new
//!   version and releases the write locks.
//!
//! The paper cites SwissTM (§3.2.3) among the lock-based TMs ensuring solo
//! progress only in systems that are both crash-free and parasitic-free:
//! like TinySTM, an orphaned write lock starves conflicting writers — but
//! thanks to deferred updates, *readers* of the locked variable still
//! proceed (a distinction the liveness tests pin down).

use std::collections::BTreeMap;

use tm_core::{Invocation, ProcessId, Response, TVarId, Value, INITIAL_VALUE};

use crate::api::{BoxedTm, Outcome, StepFootprint, SteppedTm};

#[derive(Debug, Clone)]
struct VarSlot {
    value: Value,
    version: u64,
    /// Encounter-time write lock (owner's process index).
    writer: Option<usize>,
}

#[derive(Debug, Clone)]
struct ActiveTx {
    /// Global begin timestamp (greedy CM: smaller = older = wins).
    age: u64,
    rv: u64,
    reads: Vec<usize>,
    writes: BTreeMap<usize, Value>,
}

#[derive(Debug, Clone)]
enum TxState {
    Idle,
    Active(ActiveTx),
    /// Aborted by the greedy contention manager; the process learns at its
    /// next event.
    Doomed,
}

/// SwissTM-style stepped TM (eager W/W with greedy CM, lazy R/W).
///
/// # Examples
///
/// ```
/// use tm_core::{Invocation, ProcessId, Response, TVarId};
/// use tm_stm::{Outcome, SteppedTm, SwissTm};
///
/// let (p1, p2, x) = (ProcessId(0), ProcessId(1), TVarId(0));
/// let mut tm = SwissTm::new(2, 1);
/// // p1 (older) locks x; p2's conflicting write loses to the greedy CM.
/// assert_eq!(tm.invoke(p1, Invocation::Write(x, 1)), Outcome::Response(Response::Ok));
/// assert_eq!(tm.invoke(p2, Invocation::Write(x, 2)), Outcome::Response(Response::Aborted));
/// assert_eq!(tm.invoke(p1, Invocation::TryCommit), Outcome::Response(Response::Committed));
/// ```
#[derive(Debug, Clone)]
pub struct SwissTm {
    clock: u64,
    /// Monotonic source of transaction begin timestamps.
    next_age: u64,
    vars: Vec<VarSlot>,
    txs: Vec<TxState>,
}

impl SwissTm {
    /// Creates a SwissTM instance for `processes` processes and `tvars`
    /// t-variables.
    ///
    /// # Panics
    ///
    /// Panics if `processes` or `tvars` is zero.
    pub fn new(processes: usize, tvars: usize) -> Self {
        assert!(processes > 0, "need at least one process");
        assert!(tvars > 0, "need at least one t-variable");
        SwissTm {
            clock: 0,
            next_age: 0,
            vars: vec![
                VarSlot {
                    value: INITIAL_VALUE,
                    version: 0,
                    writer: None,
                };
                tvars
            ],
            txs: vec![TxState::Idle; processes],
        }
    }

    /// The committed value of a t-variable (updates are deferred, so the
    /// store always holds committed state).
    pub fn committed_value(&self, x: TVarId) -> Value {
        self.vars[x.index()].value
    }

    fn tx_mut(&mut self, k: usize) -> &mut ActiveTx {
        if matches!(self.txs[k], TxState::Idle) {
            self.next_age += 1;
            self.txs[k] = TxState::Active(ActiveTx {
                age: self.next_age,
                rv: self.clock,
                reads: Vec::new(),
                writes: BTreeMap::new(),
            });
        }
        match &mut self.txs[k] {
            TxState::Active(tx) => tx,
            _ => unreachable!("caller handles Doomed before tx_mut"),
        }
    }

    fn age_of(&self, k: usize) -> Option<u64> {
        match &self.txs[k] {
            TxState::Active(tx) => Some(tx.age),
            _ => None,
        }
    }

    /// Releases every write lock held by `k`.
    fn release_locks(&mut self, k: usize) {
        for slot in &mut self.vars {
            if slot.writer == Some(k) {
                slot.writer = None;
            }
        }
    }

    fn abort_self(&mut self, k: usize) -> Outcome {
        self.release_locks(k);
        self.txs[k] = TxState::Idle;
        Outcome::Response(Response::Aborted)
    }

    /// Dooms the transaction of `victim` (greedy CM decision).
    fn doom(&mut self, victim: usize) {
        self.release_locks(victim);
        self.txs[victim] = TxState::Doomed;
    }
}

impl SteppedTm for SwissTm {
    fn name(&self) -> &'static str {
        "swisstm"
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
                let tx = self.tx_mut(k);
                if let Some(&v) = tx.writes.get(&j) {
                    return Outcome::Response(Response::Value(v));
                }
                let rv = tx.rv;
                // Deferred updates: the slot value is committed state even
                // while write-locked, so readers never block on writers.
                let (value, version) = {
                    let slot = &self.vars[j];
                    (slot.value, slot.version)
                };
                if version > rv {
                    return self.abort_self(k);
                }
                self.tx_mut(k).reads.push(j);
                Outcome::Response(Response::Value(value))
            }
            Invocation::Write(x, v) => {
                let j = x.index();
                let my_age = self.tx_mut(k).age;
                match self.vars[j].writer {
                    Some(owner) if owner != k => {
                        // Eager W/W conflict: greedy CM — older wins.
                        let owner_age = self.age_of(owner).unwrap_or(u64::MAX);
                        if my_age < owner_age {
                            self.doom(owner);
                            self.vars[j].writer = Some(k);
                            self.tx_mut(k).writes.insert(j, v);
                            Outcome::Response(Response::Ok)
                        } else {
                            self.abort_self(k)
                        }
                    }
                    _ => {
                        self.vars[j].writer = Some(k);
                        self.tx_mut(k).writes.insert(j, v);
                        Outcome::Response(Response::Ok)
                    }
                }
            }
            Invocation::TryCommit => {
                let tx = self.tx_mut(k).clone();
                let valid = tx.reads.iter().all(|&j| self.vars[j].version <= tx.rv);
                if !valid {
                    return self.abort_self(k);
                }
                if !tx.writes.is_empty() {
                    self.clock += 1;
                    let wv = self.clock;
                    for (&j, &v) in &tx.writes {
                        self.vars[j] = VarSlot {
                            value: v,
                            version: wv,
                            writer: None,
                        };
                    }
                    self.release_locks(k);
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
        let Some(source) = source.as_any().and_then(|a| a.downcast_ref::<SwissTm>()) else {
            return false;
        };
        if self.txs.len() != source.txs.len() || self.vars.len() != source.vars.len() {
            return false;
        }
        self.clock = source.clock;
        self.next_age = source.next_age;
        self.vars.clone_from(&source.vars);
        for (dst, src) in self.txs.iter_mut().zip(&source.txs) {
            match (dst, src) {
                // Same-variant case reuses the read vector's and write
                // map's existing buffers instead of reallocating.
                (TxState::Active(dst), TxState::Active(src)) => {
                    dst.age = src.age;
                    dst.rv = src.rv;
                    dst.reads.clone_from(&src.reads);
                    dst.writes.clone_from(&src.writes);
                }
                (dst, src) => *dst = src.clone(),
            }
        }
        true
    }

    fn step_footprint(&self, process: ProcessId, invocation: Invocation) -> StepFootprint {
        // Audited conflict oracle. Shared state: per-variable slots
        // `(value, version, write lock)`, the global version clock, the
        // age counter, and — because the greedy contention manager dooms
        // other processes' transactions — every process's transaction
        // status. Doom checks make every step a global reader; begin
        // *draws* a fresh age (the relative age order is observable to
        // the CM), so beginning steps are global writers.
        let k = process.index();
        if matches!(self.txs[k], TxState::Doomed) {
            // Learns of its doom: responds A and clears local state only.
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
        if tx.is_none() {
            fp.global_write = true; // begin draws next_age + 1
        }
        match invocation {
            Invocation::Read(x) => {
                let j = x.index();
                if tx.is_some_and(|tx| tx.writes.contains_key(&j)) {
                    return fp; // served from the local write buffer
                }
                fp.add_read(x);
                fp.ends = tx.is_some_and(|tx| self.vars[j].version > tx.rv);
            }
            Invocation::Write(x, _) => {
                let j = x.index();
                fp.add_write(x); // acquires (or steals) the write lock
                if self.vars[j].writer.is_some_and(|o| o != k) {
                    // Eager W/W conflict: either dooms the owner
                    // (releasing its locks across variables) or aborts
                    // self (releasing own locks) — both mutate another
                    // process's transaction state or multi-variable lock
                    // state, so the step is a global writer.
                    fp.global_write = true;
                    let my_age = tx.map_or(self.next_age + 1, |tx| tx.age);
                    let owner_age = self
                        .age_of(self.vars[j].writer.expect("checked above"))
                        .unwrap_or(u64::MAX);
                    fp.ends = my_age >= owner_age; // younger loses: self-abort
                    if let Some(tx) = tx {
                        for &j in tx.writes.keys() {
                            fp.add_write_index(j); // lock releases on loss
                        }
                    }
                }
            }
            Invocation::TryCommit => {
                fp.ends = true;
                if let Some(tx) = tx {
                    for &j in &tx.reads {
                        fp.add_read_index(j); // commit-time validation
                    }
                    if !tx.writes.is_empty() {
                        fp.global_write = true; // clock bump
                        for &j in tx.writes.keys() {
                            fp.add_write_index(j); // publish + unlock
                        }
                    }
                }
            }
        }
        fp
    }

    fn state_digest(&self) -> Option<u64> {
        use std::hash::Hash;
        // Two unbounded counters, both compared only relatively, both
        // rank-canonicalized (see [`SteppedTm::state_digest`]):
        //
        // * the version clock (`version > rv`; commit draws a fresh
        //   maximum) — ranked over `{clock, versions, rvs}`;
        // * transaction ages (greedy CM compares `my_age < owner_age`;
        //   a fresh transaction draws `next_age + 1`, a fresh maximum
        //   above every *active* age) — ranked among active ages, with
        //   `next_age` itself excluded.
        let mut stamps = Vec::with_capacity(self.vars.len() + self.txs.len() + 1);
        stamps.push(self.clock);
        stamps.extend(self.vars.iter().map(|s| s.version));
        let mut ages = Vec::with_capacity(self.txs.len());
        for tx in &self.txs {
            if let TxState::Active(tx) = tx {
                stamps.push(tx.rv);
                ages.push(tx.age);
            }
        }
        let stamps = crate::fingerprint::Ranks::new(stamps);
        let ages = crate::fingerprint::Ranks::new(ages);
        let rank = |t: u64| stamps.rank(t);
        let age_rank = |a: u64| ages.rank(a);
        let mut h = tm_core::StableHasher::new();
        rank(self.clock).hash(&mut h);
        for slot in &self.vars {
            (slot.value, rank(slot.version), slot.writer).hash(&mut h);
        }
        for tx in &self.txs {
            match tx {
                TxState::Idle => 0u8.hash(&mut h),
                TxState::Doomed => 2u8.hash(&mut h),
                TxState::Active(tx) => {
                    1u8.hash(&mut h);
                    (age_rank(tx.age), rank(tx.rv)).hash(&mut h);
                    tx.reads.hash(&mut h);
                    tx.writes.hash(&mut h);
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
        tm.invoke(p, inv).response().expect("swiss never blocks")
    }

    #[test]
    fn greedy_cm_older_writer_wins() {
        let mut tm = SwissTm::new(2, 1);
        resp(&mut tm, P1, Inv::Write(X, 1)); // p1 begins first (older)
        assert_eq!(resp(&mut tm, P2, Inv::Write(X, 2)), Response::Aborted);
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.committed_value(X), 1);
    }

    #[test]
    fn greedy_cm_younger_owner_is_doomed() {
        let mut tm = SwissTm::new(2, 1);
        // p1 begins first (older) by reading y... single var here: use a
        // read on x to establish age, then p2 acquires the lock, then p1's
        // write steals it back.
        resp(&mut tm, P1, Inv::Read(X)); // p1: age 1
        resp(&mut tm, P2, Inv::Write(X, 2)); // p2: age 2, owns x
        assert_eq!(resp(&mut tm, P1, Inv::Write(X, 1)), Response::Ok); // steals
                                                                       // p2 learns of its doom at its next event.
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Aborted);
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.committed_value(X), 1);
    }

    #[test]
    fn no_livelock_under_alternating_steal() {
        // The alternating-steal schedule that livelocks DSTM: with greedy
        // CM the older transaction always survives, so someone commits
        // every round.
        let mut tm = SwissTm::new(2, 1);
        let mut commits = 0;
        resp(&mut tm, P1, Inv::Write(X, 1));
        resp(&mut tm, P2, Inv::Write(X, 2)); // younger: aborts itself
        for _ in 0..100 {
            if resp(&mut tm, P1, Inv::TryCommit) == Response::Committed {
                commits += 1;
            }
            let _ = resp(&mut tm, P1, Inv::Write(X, 1));
            if resp(&mut tm, P2, Inv::TryCommit) == Response::Committed {
                commits += 1;
            }
            let _ = resp(&mut tm, P2, Inv::Write(X, 2));
        }
        assert!(commits >= 99, "greedy CM must prevent livelock ({commits})");
    }

    #[test]
    fn readers_pass_through_write_locks() {
        // Deferred updates: p2 can read x while p1 holds its write lock —
        // the distinction from TinySTM's write-through design.
        let mut tm = SwissTm::new(2, 1);
        resp(&mut tm, P1, Inv::Write(X, 9));
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Value(0));
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Committed);
        assert_eq!(tm.committed_value(X), 9);
    }

    #[test]
    fn crashed_lock_holder_starves_writers_but_not_readers() {
        // §3.2.3: SwissTM keeps solo progress only crash-free — an
        // orphaned write lock starves conflicting *writers*; readers of
        // the same variable keep committing (deferred updates).
        let mut tm = SwissTm::new(3, 1);
        resp(&mut tm, P1, Inv::Write(X, 1)); // p1 then "crashes"
        for _ in 0..50 {
            // p2, a writer, aborts forever (it is always younger).
            assert_eq!(resp(&mut tm, P2, Inv::Write(X, 2)), Response::Aborted);
            // p3, a reader, commits forever.
            assert_eq!(
                resp(&mut tm, ProcessId(2), Inv::Read(X)),
                Response::Value(0)
            );
            assert_eq!(
                resp(&mut tm, ProcessId(2), Inv::TryCommit),
                Response::Committed
            );
        }
    }

    #[test]
    fn read_validation_aborts_stale_snapshots() {
        let mut tm = SwissTm::new(2, 2);
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        resp(&mut tm, P2, Inv::Write(X, 1));
        resp(&mut tm, P2, Inv::Write(Y, 1));
        resp(&mut tm, P2, Inv::TryCommit);
        // p1's read of y sees version > rv: abort at the read.
        assert_eq!(resp(&mut tm, P1, Inv::Read(Y)), Response::Aborted);
    }

    #[test]
    fn algorithm_1_pattern_starves_reader() {
        let mut tm = Recorded::new(SwissTm::new(2, 1));
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Value(0));
        resp(&mut tm, P2, Inv::Write(X, 1));
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        resp(&mut tm, P1, Inv::Write(X, 1));
        assert_eq!(resp(&mut tm, P1, Inv::TryCommit), Response::Aborted);
        assert!(is_opaque(tm.history()));
    }

    #[test]
    fn random_interleaving_histories_are_opaque() {
        let mut tm = Recorded::new(SwissTm::new(3, 2));
        let mut seed = 0xABCDu64;
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
            .expect("every SwissTM prefix must be opaque");
    }
}
