//! Online, incremental safety certification for long histories.
//!
//! The exact checkers enumerate witness orders and are limited to ~10²
//! transactions. Adversary games and STM simulations produce histories with
//! 10⁴–10⁶ transactions, so this module provides a **sound but incomplete**
//! online certifier based on *commit-order* witnesses:
//!
//! * committed transactions are serialized in the order of their commit
//!   events (which always extends the real-time order among committed
//!   transactions);
//! * every other transaction (aborted, live, commit-pending) must observe
//!   the committed state at *some* point between its first event and the
//!   present — tracked as a set of candidate serialization slots that
//!   shrinks with every read and grows with every commit.
//!
//! If the certifier accepts a history, the history is opaque (respectively
//! strictly serializable): an explicit witness can be read off the
//! accepted slots. If it rejects, the history may still be safe under a
//! witness that reorders committed transactions — callers should fall back
//! to the exact checker when feasible ([`crate::check_opacity_auto`]).
//!
//! Because candidate slots are checked **eagerly at every read**, an
//! accepted run certifies every prefix of the history, matching the
//! prefix-closedness of the paper's safety properties.
//!
//! # Checkpoint / rollback
//!
//! The model checker walks a *tree* of histories depth-first, so the
//! certifier supports O(events-since) rollback: [`IncrementalChecker::checkpoint`]
//! marks a point, every [`IncrementalChecker::push`] appends inverse
//! operations to an undo log, and [`IncrementalChecker::rollback`]
//! replays the inverses. Certification thereby advances one event per
//! tree edge instead of re-certifying each complete history from event
//! zero, and a rejection latches at the **shortest failing prefix** of
//! the current branch.
//!
//! # Candidate-slot representation
//!
//! Candidate serialization slots are kept in a [`SlotSet`]: a bitset
//! based at the commit count when the transaction began (slots only
//! ever grow upward from there). One inline word covers transactions
//! spanning ≤ 64 commits — the overwhelmingly common case — so pruning
//! on a read is branch-free word masking with **no reallocation**, and
//! each slot is set and cleared at most once over the transaction's
//! lifetime (amortized O(1) per slot, versus re-scanning and shifting a
//! `Vec<usize>` on every read).

use serde::{Deserialize, Serialize};

use tm_core::{Event, EventKind, Invocation, ProcessId, Response, TVarId, Value, INITIAL_VALUE};

/// Which safety property the incremental certifier enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Every transaction (even aborted/live) must observe a consistent
    /// state.
    Opacity,
    /// Only committed transactions must be explainable.
    StrictSerializability,
}

/// A violation detected by the incremental certifier.
///
/// Note that (unlike [`crate::SafetyVerdict::Violated`]) this is evidence
/// that the *commit-order* witness fails, not that no witness exists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitOrderViolation {
    /// The process whose event triggered the violation.
    pub process: ProcessId,
    /// Index of the offending event in the pushed sequence.
    pub position: usize,
    /// Human-readable description.
    pub detail: String,
}

impl core::fmt::Display for CommitOrderViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "commit-order violation by {} at event {}: {}",
            self.process, self.position, self.detail
        )
    }
}

impl std::error::Error for CommitOrderViolation {}

/// A compact set of candidate serialization slots.
///
/// Slots are indices into the committed-state sequence; a transaction's
/// candidates always lie in `[base, base + 64 * (1 + spill.len()))`
/// where `base` is the commit count at its first event, because commits
/// only ever *append* slots. One inline word covers transactions that
/// span up to 64 commits, so the common case never allocates; pruning
/// clears bits in place and each slot toggles on and off at most once
/// over the transaction's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotSet {
    base: usize,
    head: u64,
    spill: Vec<u64>,
}

impl SlotSet {
    /// The set `{slot}`, anchoring the base at `slot`.
    pub fn singleton(slot: usize) -> Self {
        SlotSet {
            base: slot,
            head: 1,
            spill: Vec::new(),
        }
    }

    fn word_bit(&self, slot: usize) -> (usize, u64) {
        debug_assert!(slot >= self.base, "slots never precede the base");
        let offset = slot - self.base;
        (offset / 64, 1u64 << (offset % 64))
    }

    /// Inserts `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` precedes the base the set was created with
    /// (slots only ever grow upward from the base by construction).
    pub fn insert(&mut self, slot: usize) {
        assert!(slot >= self.base, "slot precedes the set's base");
        let (word, bit) = self.word_bit(slot);
        if word == 0 {
            self.head |= bit;
        } else {
            if self.spill.len() < word {
                self.spill.resize(word, 0);
            }
            self.spill[word - 1] |= bit;
        }
    }

    /// Removes `slot` if present (below-base slots are never present).
    pub fn remove(&mut self, slot: usize) {
        if slot < self.base {
            return;
        }
        let (word, bit) = self.word_bit(slot);
        if word == 0 {
            self.head &= !bit;
        } else if let Some(w) = self.spill.get_mut(word - 1) {
            *w &= !bit;
        }
    }

    /// Whether `slot` is in the set.
    pub fn contains(&self, slot: usize) -> bool {
        if slot < self.base {
            return false;
        }
        let (word, bit) = self.word_bit(slot);
        let w = if word == 0 {
            self.head
        } else {
            self.spill.get(word - 1).copied().unwrap_or(0)
        };
        w & bit != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.head == 0 && self.spill.iter().all(|&w| w == 0)
    }

    /// Number of slots in the set.
    pub fn len(&self) -> usize {
        (self.head.count_ones() as usize)
            + self
                .spill
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// Removes every slot failing `keep`, in place, allocation-free.
    pub fn prune(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for word in 0..=self.spill.len() {
            let w = if word == 0 {
                self.head
            } else {
                self.spill[word - 1]
            };
            let mut bits = w;
            while bits != 0 {
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = self.base + word * 64 + tz;
                if !keep(slot) {
                    if word == 0 {
                        self.head &= !(1u64 << tz);
                    } else {
                        self.spill[word - 1] &= !(1u64 << tz);
                    }
                }
            }
        }
    }

    /// The slots in ascending order (diagnostics and witness extraction).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let base = self.base;
        std::iter::once(self.head)
            .chain(self.spill.iter().copied())
            .enumerate()
            .flat_map(move |(word, w)| {
                (0..64)
                    .filter(move |bit| w & (1u64 << bit) != 0)
                    .map(move |bit| base + word * 64 + bit)
            })
    }
}

#[derive(Debug, Clone, Default)]
struct OpenTx {
    pending: Option<Invocation>,
    /// Write set, last-write-wins per t-variable (a handful of entries;
    /// a linear vector beats a tree map at this size).
    writes: Vec<(TVarId, Value)>,
    reads: Vec<(TVarId, Value)>,
    /// Candidate serialization slots: indices into `states` at which every
    /// read so far is consistent. Only maintained in opacity mode.
    candidates: SlotSet,
}

impl OpenTx {
    fn write_of(&self, x: TVarId) -> Option<Value> {
        self.writes.iter().find(|&&(y, _)| y == x).map(|&(_, v)| v)
    }

    /// Records a write, returning the previous buffered value for `x`.
    fn record_write(&mut self, x: TVarId, v: Value) -> Option<Value> {
        for entry in &mut self.writes {
            if entry.0 == x {
                return Some(std::mem::replace(&mut entry.1, v));
            }
        }
        self.writes.push((x, v));
        None
    }

    /// Reverses [`OpenTx::record_write`].
    fn unrecord_write(&mut self, x: TVarId, previous: Option<Value>) {
        match previous {
            Some(v) => {
                for entry in &mut self.writes {
                    if entry.0 == x {
                        entry.1 = v;
                        return;
                    }
                }
            }
            None => self.writes.retain(|&(y, _)| y != x),
        }
    }
}

/// One inverse operation in the undo log; applying it reverses the
/// corresponding [`IncrementalChecker::push`]. Entries sit on the model
/// checker's per-edge hot path, so the common ones are kept word-sized:
/// the pending invocation a response consumed is *derived* from the
/// transaction record where possible (a read's variable is its last
/// recorded read, a write's buffered value is in the write set), and
/// retired records are boxed.
#[derive(Debug, Clone)]
enum UndoEntry {
    /// An invocation created this transaction's record.
    OpenInserted(ProcessId),
    /// An invocation set `pending` on an existing record.
    PendingSet(ProcessId, Option<Invocation>),
    /// A read response was accepted in strict-serializability mode
    /// (candidates are not maintained): pop the read and re-derive
    /// `pending` from it.
    ReadKept(ProcessId),
    /// A read response was accepted in opacity mode: additionally
    /// restore the pre-prune candidate set.
    ReadPruned(ProcessId, SlotSet),
    /// A read of the transaction's own write of `var` was accepted.
    OwnReadObserved(ProcessId, TVarId),
    /// A write response was accepted (`previous` = the overwritten
    /// buffered value; the written value is re-derived from the record).
    WriteRecorded(ProcessId, TVarId, Option<Value>),
    /// The transaction aborted and its record was retired.
    TxAborted(ProcessId, Box<OpenTx>),
    /// The transaction committed: a state was appended and the open
    /// transactions in the `granted` bitmask gained the new slot as a
    /// candidate.
    TxCommitted {
        process: ProcessId,
        tx: Box<OpenTx>,
        granted: u64,
    },
    /// The event latched a violation (restoring clears it); the record,
    /// if one was open, was retired.
    Failed(ProcessId, Option<Box<OpenTx>>),
    /// A fused [`IncrementalChecker::push_call`] accepted a read
    /// (`fresh` = the call also created the record).
    CallRead {
        process: ProcessId,
        fresh: bool,
        prior: SlotSet,
    },
    /// A fused call accepted a write.
    CallWrite {
        process: ProcessId,
        fresh: bool,
        var: TVarId,
        previous: Option<Value>,
    },
    /// A fused call aborted the transaction (`None` = the record was
    /// created by the same call, so there is nothing to restore).
    CallAborted(ProcessId, Option<Box<OpenTx>>),
    /// A fused call committed the transaction.
    CallCommitted {
        process: ProcessId,
        tx: Option<Box<OpenTx>>,
        granted: u64,
    },
    /// A fused call latched a violation.
    CallFailed(ProcessId, Option<Box<OpenTx>>),
}

/// A position in the certifier's history, produced by
/// [`IncrementalChecker::checkpoint`] and consumed by
/// [`IncrementalChecker::rollback`].
///
/// Checkpoints form a stack discipline: rolling back to a checkpoint
/// invalidates every checkpoint taken after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    log_len: usize,
    position: usize,
}

/// Online certifier for opacity / strict serializability via commit-order
/// witnesses. Push events as the TM produces them; the first violation is
/// returned (and the certifier latches it).
///
/// # Examples
///
/// ```
/// use tm_core::builder::figures;
/// use tm_safety::{IncrementalChecker, Mode};
///
/// let mut checker = IncrementalChecker::new(Mode::Opacity);
/// for &event in figures::figure_1().events() {
///     checker.push(event).expect("figure 1 is opaque");
/// }
/// assert_eq!(checker.commits(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalChecker {
    mode: Mode,
    /// `states[i]` = committed t-variable state after `i` commits, as a
    /// dense per-t-variable vector (absent index = [`INITIAL_VALUE`]).
    states: Vec<Vec<Value>>,
    /// Open transaction per process, indexed by process id (dense and
    /// small in every workload; direct indexing keeps the per-event cost
    /// flat).
    open: Vec<Option<OpenTx>>,
    position: usize,
    violation: Option<CommitOrderViolation>,
    /// Inverse operations for [`IncrementalChecker::rollback`]. Only
    /// recorded once a checkpoint has been taken: pure streaming users
    /// (adversary games, simulations with millions of events) pay
    /// neither time nor memory for rollback support.
    log: Vec<UndoEntry>,
    logging: bool,
}

impl IncrementalChecker {
    /// Creates a certifier in the given mode with all t-variables at
    /// [`INITIAL_VALUE`].
    pub fn new(mode: Mode) -> Self {
        IncrementalChecker {
            mode,
            states: vec![Vec::new()],
            open: Vec::new(),
            position: 0,
            violation: None,
            log: Vec::new(),
            logging: false,
        }
    }

    /// Creates a certifier whose initial committed state is `frontier`
    /// (sparse `(t-variable, value)` pairs; unlisted t-variables stay at
    /// [`INITIAL_VALUE`]) — the entry point for *chunked* certification,
    /// where a history suffix is checked independently against the
    /// committed state its prefix left behind. The frontier occupies
    /// state slot 0, so a transaction that opens inside the chunk can
    /// never serialize before the pre-chunk commits it post-dates.
    ///
    /// ```
    /// use tm_core::{Event, ProcessId, TVarId};
    /// use tm_safety::{IncrementalChecker, Mode};
    ///
    /// let p = ProcessId(0);
    /// let x = TVarId(0);
    /// let mut checker = IncrementalChecker::with_frontier(Mode::Opacity, &[(x, 7)]);
    /// checker.push(Event::read(p, x)).unwrap();
    /// // Reading the frontier value is consistent; reading 0 would not be.
    /// checker.push(Event::value(p, 7)).unwrap();
    /// ```
    pub fn with_frontier(mode: Mode, frontier: &[(TVarId, Value)]) -> Self {
        let mut checker = Self::new(mode);
        for &(x, v) in frontier {
            Self::apply_write(&mut checker.states[0], x, v);
        }
        checker
    }

    /// Largest process/t-variable id the dense tables accept. Real
    /// workloads use small dense ids; this bound turns a malformed or
    /// adversarial id (which would otherwise demand a huge allocation)
    /// into a clear panic.
    const MAX_DENSE_ID: usize = 1 << 20;

    fn open_slot(&mut self, process: ProcessId) -> &mut Option<OpenTx> {
        let k = process.index();
        assert!(
            k <= Self::MAX_DENSE_ID,
            "process id {k} exceeds the certifier's dense-id bound"
        );
        if self.open.len() <= k {
            self.open.resize_with(k + 1, || None);
        }
        &mut self.open[k]
    }

    fn apply_write(next: &mut Vec<Value>, x: TVarId, v: Value) {
        assert!(
            x.index() <= Self::MAX_DENSE_ID,
            "t-variable id {} exceeds the certifier's dense-id bound",
            x.index()
        );
        if next.len() <= x.index() {
            next.resize(x.index() + 1, INITIAL_VALUE);
        }
        next[x.index()] = v;
    }

    /// Marks the current state; [`IncrementalChecker::rollback`] returns
    /// to it in time proportional to the events pushed since.
    ///
    /// The first checkpoint switches the certifier into logging mode:
    /// from here on every push records its inverse (amortized O(1)).
    pub fn checkpoint(&mut self) -> Checkpoint {
        self.logging = true;
        Checkpoint {
            log_len: self.log.len(),
            position: self.position,
        }
    }

    /// Rolls the certifier back to `checkpoint`, undoing every event
    /// pushed since — including any latched violation.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint` was invalidated by an earlier rollback
    /// (checkpoints are a stack, not random access).
    pub fn rollback(&mut self, checkpoint: Checkpoint) {
        assert!(
            checkpoint.log_len <= self.log.len(),
            "checkpoint invalidated by an earlier rollback"
        );
        while self.log.len() > checkpoint.log_len {
            let entry = self.log.pop().expect("length checked");
            self.undo(entry);
        }
        self.position = checkpoint.position;
    }

    fn undo(&mut self, entry: UndoEntry) {
        match entry {
            UndoEntry::OpenInserted(p) => {
                self.open[p.index()] = None;
            }
            UndoEntry::PendingSet(p, pending) => {
                if let Some(tx) = self.open[p.index()].as_mut() {
                    tx.pending = pending;
                }
            }
            UndoEntry::ReadKept(process) => {
                let tx = self.open[process.index()]
                    .as_mut()
                    .expect("read had an open tx");
                let (x, _) = tx.reads.pop().expect("undo matches a recorded read");
                tx.pending = Some(Invocation::Read(x));
            }
            UndoEntry::ReadPruned(process, prior) => {
                let tx = self.open[process.index()]
                    .as_mut()
                    .expect("read had an open tx");
                let (x, _) = tx.reads.pop().expect("undo matches a recorded read");
                tx.candidates = prior;
                tx.pending = Some(Invocation::Read(x));
            }
            UndoEntry::OwnReadObserved(process, var) => {
                let tx = self.open[process.index()]
                    .as_mut()
                    .expect("read had an open tx");
                tx.pending = Some(Invocation::Read(var));
            }
            UndoEntry::WriteRecorded(process, var, previous) => {
                let tx = self.open[process.index()]
                    .as_mut()
                    .expect("write had an open tx");
                let written = tx.write_of(var).expect("undo matches a recorded write");
                tx.pending = Some(Invocation::Write(var, written));
                tx.unrecord_write(var, previous);
            }
            UndoEntry::TxAborted(p, tx) => {
                self.open[p.index()] = Some(*tx);
            }
            UndoEntry::TxCommitted {
                process,
                tx,
                granted,
            } => {
                let new_slot = self.states.len() - 1;
                for (q, other) in self.open.iter_mut().enumerate() {
                    if q < 64 && granted & (1 << q) != 0 {
                        if let Some(other) = other.as_mut() {
                            other.candidates.remove(new_slot);
                        }
                    }
                }
                self.states.pop();
                self.open[process.index()] = Some(*tx);
            }
            UndoEntry::Failed(p, tx) => {
                self.violation = None;
                if let Some(tx) = tx {
                    self.open[p.index()] = Some(*tx);
                }
            }
            UndoEntry::CallRead {
                process,
                fresh,
                prior,
            } => {
                if fresh {
                    self.open[process.index()] = None;
                } else {
                    let tx = self.open[process.index()]
                        .as_mut()
                        .expect("fused read had an open tx");
                    tx.reads.pop();
                    tx.candidates = prior;
                }
            }
            UndoEntry::CallWrite {
                process,
                fresh,
                var,
                previous,
            } => {
                if fresh {
                    self.open[process.index()] = None;
                } else {
                    let tx = self.open[process.index()]
                        .as_mut()
                        .expect("fused write had an open tx");
                    tx.unrecord_write(var, previous);
                }
            }
            UndoEntry::CallAborted(p, tx) => {
                self.open[p.index()] = tx.map(|tx| *tx);
            }
            UndoEntry::CallCommitted {
                process,
                tx,
                granted,
            } => {
                let new_slot = self.states.len() - 1;
                for (q, other) in self.open.iter_mut().enumerate() {
                    if q < 64 && granted & (1 << q) != 0 {
                        if let Some(other) = other.as_mut() {
                            other.candidates.remove(new_slot);
                        }
                    }
                }
                self.states.pop();
                self.open[process.index()] = tx.map(|tx| *tx);
            }
            UndoEntry::CallFailed(p, tx) => {
                self.violation = None;
                self.open[p.index()] = tx.map(|tx| *tx);
            }
        }
    }

    /// Number of commit events processed so far.
    pub fn commits(&self) -> usize {
        self.states.len() - 1
    }

    /// Number of events pushed so far.
    pub fn events_pushed(&self) -> usize {
        self.position
    }

    /// The first violation encountered, if any.
    pub fn violation(&self) -> Option<&CommitOrderViolation> {
        self.violation.as_ref()
    }

    /// The committed value of `x` in the latest committed state.
    pub fn committed_value(&self, x: TVarId) -> Value {
        self.states
            .last()
            .and_then(|s| s.get(x.index()))
            .copied()
            .unwrap_or(INITIAL_VALUE)
    }

    fn state_value(&self, slot: usize, x: TVarId) -> Value {
        self.states[slot]
            .get(x.index())
            .copied()
            .unwrap_or(INITIAL_VALUE)
    }

    fn fail(&mut self, process: ProcessId, detail: String) -> CommitOrderViolation {
        let v = CommitOrderViolation {
            process,
            position: self.position,
            detail,
        };
        self.violation = Some(v.clone());
        v
    }

    /// Pushes the next event of the history.
    ///
    /// # Errors
    ///
    /// Returns the violation if the commit-order witness fails at this
    /// event (or failed earlier — the certifier latches).
    pub fn push(&mut self, event: Event) -> Result<(), CommitOrderViolation> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        let process = event.process;
        match event.kind {
            EventKind::Invocation(inv) => {
                let top = self.commits();
                let logging = self.logging;
                let slot = self.open_slot(process);
                let entry = match slot {
                    Some(tx) => UndoEntry::PendingSet(process, tx.pending.replace(inv)),
                    None => {
                        *slot = Some(OpenTx {
                            pending: Some(inv),
                            writes: Vec::new(),
                            reads: Vec::new(),
                            // A fresh transaction can only be serialized at
                            // or after the current committed state.
                            candidates: SlotSet::singleton(top),
                        });
                        UndoEntry::OpenInserted(process)
                    }
                };
                if logging {
                    self.log.push(entry);
                }
            }
            EventKind::Response(resp) => match self.on_response(process, resp) {
                Ok(entry) => {
                    if self.logging {
                        if let Some(entry) = entry {
                            self.log.push(entry);
                        }
                    }
                }
                Err((detail, tx)) => {
                    let v = self.fail(process, detail);
                    if self.logging {
                        self.log.push(UndoEntry::Failed(process, tx));
                    }
                    self.position += 1;
                    return Err(v);
                }
            },
        }
        self.position += 1;
        Ok(())
    }

    /// Handles a response event. Returns the undo-log entry on success;
    /// on failure returns the violation detail together with the retired
    /// transaction record (restored to its pre-event state, captured
    /// only while logging) for the log.
    #[allow(clippy::type_complexity)]
    fn on_response(
        &mut self,
        process: ProcessId,
        resp: Response,
    ) -> Result<Option<UndoEntry>, (String, Option<Box<OpenTx>>)> {
        let Some(mut tx) = self.open_slot(process).take() else {
            // A response with no open transaction: treat as malformed input.
            return Err(("response without an open transaction".to_string(), None));
        };
        let logging = self.logging;
        let pending = tx.pending.take();
        let retire = move |mut tx: OpenTx, pending: Option<Invocation>, detail: String| {
            tx.pending = pending;
            (detail, logging.then(|| Box::new(tx)))
        };
        match resp {
            Response::Aborted => {
                // The transaction ends. In opacity mode its reads were
                // checked eagerly, so nothing further to verify. The
                // retired record is boxed only while logging — streaming
                // users pay no allocation here.
                tx.pending = pending;
                Ok(logging.then(|| UndoEntry::TxAborted(process, Box::new(tx))))
            }
            Response::Value(v) => {
                let Some(Invocation::Read(x)) = pending else {
                    return Err(retire(
                        tx,
                        pending,
                        "value response without pending read".to_string(),
                    ));
                };
                if let Some(w) = tx.write_of(x) {
                    if w != v {
                        return Err(retire(
                            tx,
                            pending,
                            format!(
                                "read of {x} returned {v} but the transaction's own write was {w}"
                            ),
                        ));
                    }
                    self.open[process.index()] = Some(tx);
                    Ok(Some(UndoEntry::OwnReadObserved(process, x)))
                } else {
                    // Capture the pre-prune candidates only while logging
                    // (allocation-free unless the set spilled past 64
                    // commits).
                    let prior = if logging {
                        tx.candidates.clone()
                    } else {
                        SlotSet::default()
                    };
                    let mut narrowed = false;
                    if self.mode == Mode::Opacity {
                        let states = &self.states;
                        tx.candidates.prune(|s| {
                            states[s].get(x.index()).copied().unwrap_or(INITIAL_VALUE) == v
                        });
                        if tx.candidates.is_empty() {
                            if logging {
                                tx.candidates = prior;
                            }
                            return Err(retire(
                                tx,
                                pending,
                                format!(
                                    "read of {x} returned {v}, inconsistent with every candidate \
                                     serialization point"
                                ),
                            ));
                        }
                        // Always restore candidates on undo in opacity
                        // mode: a did-it-narrow comparison to emit the
                        // slimmer `ReadKept` measures consistently slower
                        // than carrying the 40-byte set unconditionally.
                        narrowed = logging;
                    }
                    tx.reads.push((x, v));
                    self.open[process.index()] = Some(tx);
                    Ok(Some(if narrowed {
                        UndoEntry::ReadPruned(process, prior)
                    } else {
                        UndoEntry::ReadKept(process)
                    }))
                }
            }
            Response::Ok => {
                let Some(Invocation::Write(x, v)) = pending else {
                    return Err(retire(
                        tx,
                        pending,
                        "ok response without pending write".to_string(),
                    ));
                };
                let previous = tx.record_write(x, v);
                self.open[process.index()] = Some(tx);
                Ok(Some(UndoEntry::WriteRecorded(process, x, previous)))
            }
            Response::Committed => {
                if !matches!(pending, Some(Invocation::TryCommit)) {
                    return Err(retire(
                        tx,
                        pending,
                        "commit response without pending tryC".to_string(),
                    ));
                }
                let top = self.commits();
                // The committed transaction is serialized last: all its
                // reads must be consistent with the current committed state.
                for &(x, v) in &tx.reads {
                    let cur = self.state_value(top, x);
                    if cur != v {
                        return Err(retire(
                            tx,
                            pending,
                            format!(
                                "committed transaction read {x}={v} but the committed state at \
                                 its serialization point has {x}={cur}"
                            ),
                        ));
                    }
                }
                // Apply its writes to form the next committed state.
                let mut next = self.states[top].clone();
                for &(x, v) in &tx.writes {
                    Self::apply_write(&mut next, x, v);
                }
                self.states.push(next);
                let new_slot = self.commits();
                // The new state is a candidate serialization point for every
                // still-open transaction whose reads it satisfies.
                let mut granted = 0u64;
                if self.mode == Mode::Opacity {
                    let states = &self.states;
                    for (q, other) in self.open.iter_mut().enumerate() {
                        let Some(other) = other.as_mut() else {
                            continue;
                        };
                        let fits = other.reads.iter().all(|&(x, v)| {
                            states[new_slot]
                                .get(x.index())
                                .copied()
                                .unwrap_or(INITIAL_VALUE)
                                == v
                        });
                        if fits {
                            other.candidates.insert(new_slot);
                            if logging {
                                assert!(q < 64, "rollback logging supports at most 64 processes");
                                granted |= 1 << q;
                            }
                        }
                    }
                }
                tx.pending = pending;
                Ok(logging.then(|| UndoEntry::TxCommitted {
                    process,
                    tx: Box::new(tx),
                    granted,
                }))
            }
        }
    }

    /// Pushes an invocation and the response that immediately answers it
    /// as one fused operation — observationally identical to two
    /// [`IncrementalChecker::push`] calls (same verdicts, positions and
    /// rollback behaviour) with one record lookup and one undo-log entry.
    /// This is the model checker's per-edge hot path: non-blocking TMs
    /// answer almost every invocation immediately.
    ///
    /// The caller must respect the sequential-process contract (no other
    /// invocation of `process` may be outstanding).
    ///
    /// # Errors
    ///
    /// Returns the violation if the commit-order witness fails at the
    /// response (or failed earlier — the certifier latches).
    pub fn push_call(
        &mut self,
        process: ProcessId,
        invocation: Invocation,
        response: Response,
    ) -> Result<(), CommitOrderViolation> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        let top = self.commits();
        let logging = self.logging;
        let (mut tx, fresh) = match self.open_slot(process).take() {
            Some(tx) => {
                debug_assert!(
                    tx.pending.is_none(),
                    "driver violated the sequential-process contract"
                );
                (tx, false)
            }
            None => (
                OpenTx {
                    pending: None,
                    writes: Vec::new(),
                    reads: Vec::new(),
                    // A fresh transaction can only be serialized at or
                    // after the current committed state.
                    candidates: SlotSet::singleton(top),
                },
                true,
            ),
        };
        // Failure helper: the response event (position + 1) latches; the
        // consumed record is retired exactly as two sequential pushes
        // would leave it.
        macro_rules! fail_call {
            ($tx:expr, $detail:expr) => {{
                let v = CommitOrderViolation {
                    process,
                    position: self.position + 1,
                    detail: $detail,
                };
                self.violation = Some(v.clone());
                if logging {
                    let retired = if fresh { None } else { Some(Box::new($tx)) };
                    self.log.push(UndoEntry::CallFailed(process, retired));
                }
                self.position += 2;
                return Err(v);
            }};
        }
        let entry = match response {
            Response::Aborted => {
                // The transaction ends; eager read checks already ran.
                // The retired record is boxed only while logging.
                if !logging {
                    self.position += 2;
                    return Ok(());
                }
                let retired = if fresh { None } else { Some(Box::new(tx)) };
                UndoEntry::CallAborted(process, retired)
            }
            Response::Value(v) => {
                let Invocation::Read(x) = invocation else {
                    fail_call!(tx, "value response without pending read".to_string());
                };
                if let Some(w) = tx.write_of(x) {
                    if w != v {
                        fail_call!(
                            tx,
                            format!(
                                "read of {x} returned {v} but the transaction's own write was {w}"
                            )
                        );
                    }
                    // Reading the own buffered write mutates nothing.
                    self.open[process.index()] = Some(tx);
                    self.position += 2;
                    return Ok(());
                }
                let prior = if logging {
                    tx.candidates.clone()
                } else {
                    SlotSet::default()
                };
                if self.mode == Mode::Opacity {
                    let states = &self.states;
                    tx.candidates
                        .prune(|s| states[s].get(x.index()).copied().unwrap_or(INITIAL_VALUE) == v);
                    if tx.candidates.is_empty() {
                        if logging {
                            tx.candidates = prior;
                        }
                        fail_call!(
                            tx,
                            format!(
                                "read of {x} returned {v}, inconsistent with every candidate \
                                 serialization point"
                            )
                        );
                    }
                }
                tx.reads.push((x, v));
                self.open[process.index()] = Some(tx);
                UndoEntry::CallRead {
                    process,
                    fresh,
                    prior,
                }
            }
            Response::Ok => {
                let Invocation::Write(x, v) = invocation else {
                    fail_call!(tx, "ok response without pending write".to_string());
                };
                let previous = tx.record_write(x, v);
                self.open[process.index()] = Some(tx);
                UndoEntry::CallWrite {
                    process,
                    fresh,
                    var: x,
                    previous,
                }
            }
            Response::Committed => {
                if invocation != Invocation::TryCommit {
                    fail_call!(tx, "commit response without pending tryC".to_string());
                }
                for &(x, v) in &tx.reads {
                    let cur = self.state_value(top, x);
                    if cur != v {
                        fail_call!(
                            tx,
                            format!(
                                "committed transaction read {x}={v} but the committed state at \
                                 its serialization point has {x}={cur}"
                            )
                        );
                    }
                }
                let mut next = self.states[top].clone();
                for &(x, v) in &tx.writes {
                    Self::apply_write(&mut next, x, v);
                }
                self.states.push(next);
                let new_slot = self.commits();
                let mut granted = 0u64;
                if self.mode == Mode::Opacity {
                    let states = &self.states;
                    for (q, other) in self.open.iter_mut().enumerate() {
                        let Some(other) = other.as_mut() else {
                            continue;
                        };
                        let fits = other.reads.iter().all(|&(x, v)| {
                            states[new_slot]
                                .get(x.index())
                                .copied()
                                .unwrap_or(INITIAL_VALUE)
                                == v
                        });
                        if fits {
                            other.candidates.insert(new_slot);
                            if logging {
                                assert!(q < 64, "rollback logging supports at most 64 processes");
                                granted |= 1 << q;
                            }
                        }
                    }
                }
                if !logging {
                    self.position += 2;
                    return Ok(());
                }
                let retired = if fresh { None } else { Some(Box::new(tx)) };
                UndoEntry::CallCommitted {
                    process,
                    tx: retired,
                    granted,
                }
            }
        };
        if logging {
            self.log.push(entry);
        }
        self.position += 2;
        Ok(())
    }

    /// Pushes every event of an iterator, stopping at the first violation.
    ///
    /// # Errors
    ///
    /// Returns the first violation encountered.
    pub fn push_all<I: IntoIterator<Item = Event>>(
        &mut self,
        events: I,
    ) -> Result<(), CommitOrderViolation> {
        for event in events {
            self.push(event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::builder::figures;
    use tm_core::{HistoryBuilder, ProcessId, TVarId};

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    fn accepts(mode: Mode, h: &tm_core::History) -> bool {
        let mut c = IncrementalChecker::new(mode);
        c.push_all(h.iter().copied()).is_ok()
    }

    #[test]
    fn figure_1_accepted_in_both_modes() {
        let h = figures::figure_1();
        assert!(accepts(Mode::Opacity, &h));
        assert!(accepts(Mode::StrictSerializability, &h));
    }

    #[test]
    fn figure_3_rejected_in_both_modes() {
        let h = figures::figure_3();
        assert!(!accepts(Mode::Opacity, &h));
        assert!(!accepts(Mode::StrictSerializability, &h));
    }

    #[test]
    fn figure_4_split_verdict() {
        let h = figures::figure_4();
        assert!(!accepts(Mode::Opacity, &h));
        assert!(accepts(Mode::StrictSerializability, &h));
    }

    #[test]
    fn violation_latches() {
        let h = figures::figure_3();
        let mut c = IncrementalChecker::new(Mode::Opacity);
        let err = c.push_all(h.iter().copied()).unwrap_err();
        assert_eq!(c.violation(), Some(&err));
        // Further pushes keep failing.
        assert!(c.push(Event::read(P1, X)).is_err());
    }

    #[test]
    fn eager_read_check_rejects_torn_snapshot_mid_transaction() {
        let mut c = IncrementalChecker::new(Mode::Opacity);
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P2, X, 1)
            .write_ok(P2, Y, 1)
            .commit(P2)
            .build()
            .unwrap();
        c.push_all(h.iter().copied()).unwrap();
        // p1 now reads the *new* y while holding the *old* x: violation at
        // the read, before p1 even terminates.
        c.push(Event::read(P1, Y)).unwrap();
        assert!(c.push(Event::value(P1, 1)).is_err());
    }

    #[test]
    fn snapshot_before_writer_is_accepted() {
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P2, X, 1)
            .write_ok(P2, Y, 1)
            .commit(P2)
            .read(P1, Y, 0) // consistent with the pre-commit slot
            .abort_on_try_commit(P1)
            .build()
            .unwrap();
        assert!(accepts(Mode::Opacity, &h));
    }

    #[test]
    fn late_candidate_slot_allows_reading_new_state() {
        // p1 starts, then p2 commits x=1, then p1 reads x=1: p1 serializes
        // after p2.
        let h = HistoryBuilder::new()
            .read(P1, Y, 0)
            .write_ok(P2, X, 1)
            .commit(P2)
            .read(P1, X, 1)
            .abort_on_try_commit(P1)
            .build()
            .unwrap();
        assert!(accepts(Mode::Opacity, &h));
    }

    #[test]
    fn own_write_shadowing() {
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 7)
            .read(P1, X, 7)
            .commit(P1)
            .build()
            .unwrap();
        assert!(accepts(Mode::Opacity, &h));

        let bad = HistoryBuilder::new()
            .write_ok(P1, X, 7)
            .read(P1, X, 0)
            .commit(P1)
            .build()
            .unwrap();
        assert!(!accepts(Mode::Opacity, &bad));
    }

    #[test]
    fn committed_value_tracks_state() {
        let mut c = IncrementalChecker::new(Mode::Opacity);
        assert_eq!(c.committed_value(X), 0);
        let h = HistoryBuilder::new()
            .write_ok(P1, X, 5)
            .commit(P1)
            .build()
            .unwrap();
        c.push_all(h.iter().copied()).unwrap();
        assert_eq!(c.committed_value(X), 5);
        assert_eq!(c.commits(), 1);
    }

    #[test]
    fn frontier_seeds_the_initial_state() {
        // A chunk whose prefix committed X=5: reading 5 is consistent,
        // reading the stale initial 0 is not.
        let h = HistoryBuilder::new()
            .read(P1, X, 5)
            .commit(P1)
            .build()
            .unwrap();
        let mut c = IncrementalChecker::with_frontier(Mode::Opacity, &[(X, 5)]);
        assert!(c.push_all(h.iter().copied()).is_ok());
        assert_eq!(c.committed_value(X), 5);

        let stale = HistoryBuilder::new()
            .read(P1, X, 0)
            .commit(P1)
            .build()
            .unwrap();
        let mut c = IncrementalChecker::with_frontier(Mode::Opacity, &[(X, 5)]);
        assert!(c.push_all(stale.iter().copied()).is_err());
    }

    #[test]
    fn long_adversary_shaped_run_is_linear_time() {
        // 10_000 rounds of the Figure 1 pattern; the certifier must accept
        // every prefix.
        let mut c = IncrementalChecker::new(Mode::Opacity);
        for v in 0..10_000 {
            let round = HistoryBuilder::new()
                .read(P1, X, v)
                .read(P2, X, v)
                .write_ok(P2, X, v + 1)
                .commit(P2)
                .write_ok(P1, X, v + 1)
                .abort_on_try_commit(P1)
                .build()
                .unwrap();
            c.push_all(round.iter().copied()).unwrap();
        }
        assert_eq!(c.commits(), 10_000);
    }

    #[test]
    fn slot_set_basic_operations() {
        let mut s = SlotSet::singleton(5);
        assert!(s.contains(5));
        assert!(!s.contains(4));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 1);
        s.insert(7);
        s.insert(6);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 6, 7]);
        s.remove(6);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 7]);
        s.prune(|slot| slot >= 7);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![7]);
        s.remove(7);
        assert!(s.is_empty());
    }

    #[test]
    fn slot_set_below_base_is_safe() {
        let mut s = SlotSet::singleton(10);
        assert!(!s.contains(5));
        s.remove(5); // never present: a no-op, not a wrap-around
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "slot precedes the set's base")]
    fn slot_set_insert_below_base_panics() {
        SlotSet::singleton(10).insert(5);
    }

    #[test]
    #[should_panic(expected = "dense-id bound")]
    fn absurd_process_ids_panic_cleanly() {
        // The dense tables refuse multi-terabyte ids with a clear panic
        // instead of attempting the allocation.
        let mut c = IncrementalChecker::new(Mode::Opacity);
        let _ = c.push(Event::read(ProcessId(1 << 40), X));
    }

    #[test]
    fn slot_set_spills_past_sixty_four_slots() {
        let mut s = SlotSet::singleton(10);
        for slot in 10..10 + 200 {
            s.insert(slot);
        }
        assert_eq!(s.len(), 200);
        assert!(s.contains(10 + 199));
        s.prune(|slot| slot % 2 == 0);
        assert_eq!(s.len(), 100);
        assert!(s.iter().all(|slot| slot % 2 == 0));
        for slot in (11..10 + 200).step_by(2) {
            s.insert(slot);
        }
        assert_eq!(s.len(), 200);
    }

    /// Replaying a suffix after rollback must be indistinguishable from a
    /// fresh certifier that saw the same events — for every split point.
    fn assert_rollback_transparent(h: &tm_core::History, mode: Mode) {
        let events: Vec<Event> = h.iter().copied().collect();
        let mut fresh = IncrementalChecker::new(mode);
        let fresh_verdicts: Vec<bool> = events.iter().map(|e| fresh.push(*e).is_ok()).collect();
        for split in 0..=events.len() {
            let mut c = IncrementalChecker::new(mode);
            for e in &events[..split] {
                let _ = c.push(*e);
            }
            let cp = c.checkpoint();
            let first: Vec<bool> = events[split..].iter().map(|e| c.push(*e).is_ok()).collect();
            c.rollback(cp);
            let second: Vec<bool> = events[split..].iter().map(|e| c.push(*e).is_ok()).collect();
            assert_eq!(first, second, "split {split}: replay diverged");
            assert_eq!(
                first.as_slice(),
                &fresh_verdicts[split..],
                "split {split}: rollback replay diverged from fresh run"
            );
            assert_eq!(c.commits(), fresh.commits(), "split {split}");
            assert_eq!(c.events_pushed(), fresh.events_pushed(), "split {split}");
            assert_eq!(
                c.violation().map(|v| v.position),
                fresh.violation().map(|v| v.position),
                "split {split}"
            );
        }
    }

    #[test]
    fn rollback_is_transparent_on_the_figures() {
        for h in [
            figures::figure_1(),
            figures::figure_3(),
            figures::figure_4(),
        ] {
            assert_rollback_transparent(&h, Mode::Opacity);
            assert_rollback_transparent(&h, Mode::StrictSerializability);
        }
    }

    /// Pushes `events` using `push_call` for adjacent invocation/response
    /// pairs of one process and `push` otherwise, mirroring the explorer.
    fn push_fused(c: &mut IncrementalChecker, events: &[Event]) -> Vec<bool> {
        let mut verdicts = Vec::new();
        let mut i = 0;
        while i < events.len() {
            let e = events[i];
            let fuse = match (e.kind, events.get(i + 1)) {
                (EventKind::Invocation(inv), Some(next)) if next.process == e.process => {
                    match next.kind {
                        EventKind::Response(resp) => Some((inv, resp)),
                        EventKind::Invocation(_) => None,
                    }
                }
                _ => None,
            };
            if let Some((inv, resp)) = fuse {
                let ok = c.push_call(e.process, inv, resp).is_ok();
                verdicts.push(ok);
                verdicts.push(ok);
                i += 2;
            } else {
                verdicts.push(c.push(e).is_ok());
                i += 1;
            }
        }
        verdicts
    }

    /// Fused pushes must be observationally identical to sequential
    /// pushes — verdicts, positions, commits — including after a
    /// rollback/replay cycle.
    fn assert_fused_matches_sequential(h: &tm_core::History, mode: Mode) {
        let events: Vec<Event> = h.iter().copied().collect();
        let mut seq = IncrementalChecker::new(mode);
        let _seq_verdicts: Vec<bool> = events.iter().map(|e| seq.push(*e).is_ok()).collect();

        let mut fused = IncrementalChecker::new(mode);
        let cp = fused.checkpoint();
        let first = push_fused(&mut fused, &events);
        assert_eq!(first.len(), events.len());
        assert_eq!(fused.commits(), seq.commits());
        assert_eq!(fused.events_pushed(), seq.events_pushed());
        assert_eq!(
            fused.violation().map(|v| (v.position, v.detail.clone())),
            seq.violation().map(|v| (v.position, v.detail.clone()))
        );
        // Roll back and replay: identical behaviour again.
        fused.rollback(cp);
        assert!(fused.violation().is_none());
        assert_eq!(fused.events_pushed(), 0);
        assert_eq!(fused.commits(), 0);
        let second = push_fused(&mut fused, &events);
        assert_eq!(first, second);
        assert_eq!(fused.commits(), seq.commits());
        assert_eq!(
            fused.violation().map(|v| v.position),
            seq.violation().map(|v| v.position)
        );
    }

    #[test]
    fn fused_calls_match_sequential_pushes() {
        let contended = HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P2, X, 1)
            .write_ok(P2, Y, 1)
            .commit(P2)
            .read(P1, Y, 0)
            .write_ok(P1, X, 9)
            .read(P1, X, 9)
            .abort_on_try_commit(P1)
            .read(P2, X, 1)
            .write_ok(P2, X, 2)
            .commit(P2)
            .build()
            .unwrap();
        for h in [
            figures::figure_1(),
            figures::figure_3(),
            figures::figure_4(),
            contended,
        ] {
            assert_fused_matches_sequential(&h, Mode::Opacity);
            assert_fused_matches_sequential(&h, Mode::StrictSerializability);
        }
    }

    #[test]
    fn fused_calls_handle_malformed_pairs() {
        // Ok response answering a read: both forms latch with the same
        // detail and position.
        let mut seq = IncrementalChecker::new(Mode::Opacity);
        seq.push(Event::read(P1, X)).unwrap();
        let seq_err = seq.push(Event::ok(P1)).unwrap_err();
        let mut fused = IncrementalChecker::new(Mode::Opacity);
        let fused_err = fused
            .push_call(P1, Invocation::Read(X), Response::Ok)
            .unwrap_err();
        assert_eq!(seq_err.position, fused_err.position);
        assert_eq!(seq_err.detail, fused_err.detail);
    }

    #[test]
    fn rollback_is_transparent_on_a_contended_interleaving() {
        // Multiple commits, an abort, own-write shadowing and snapshot
        // reads — exercises every undo-entry variant.
        let h = HistoryBuilder::new()
            .read(P1, X, 0)
            .write_ok(P2, X, 1)
            .write_ok(P2, Y, 1)
            .commit(P2)
            .read(P1, Y, 0)
            .write_ok(P1, X, 9)
            .read(P1, X, 9)
            .abort_on_try_commit(P1)
            .read(P2, X, 1)
            .write_ok(P2, X, 2)
            .commit(P2)
            .build()
            .unwrap();
        assert_rollback_transparent(&h, Mode::Opacity);
        assert_rollback_transparent(&h, Mode::StrictSerializability);
    }

    #[test]
    fn rollback_clears_a_latched_violation() {
        let mut c = IncrementalChecker::new(Mode::Opacity);
        let cp = c.checkpoint();
        let bad = figures::figure_3();
        assert!(c.push_all(bad.iter().copied()).is_err());
        assert!(c.violation().is_some());
        c.rollback(cp);
        assert!(c.violation().is_none());
        assert_eq!(c.events_pushed(), 0);
        assert_eq!(c.commits(), 0);
        // The certifier is fully reusable after the rollback.
        assert!(c.push_all(figures::figure_1().iter().copied()).is_ok());
        assert_eq!(c.commits(), 1);
    }

    #[test]
    fn checkpoints_nest_like_a_stack() {
        let mut c = IncrementalChecker::new(Mode::Opacity);
        let cp0 = c.checkpoint();
        c.push(Event::write(P1, X, 3)).unwrap();
        c.push(Event::ok(P1)).unwrap();
        let cp1 = c.checkpoint();
        c.push(Event::try_commit(P1)).unwrap();
        c.push(Event::committed(P1)).unwrap();
        assert_eq!(c.commits(), 1);
        c.rollback(cp1);
        assert_eq!(c.commits(), 0);
        assert_eq!(c.committed_value(X), 0);
        c.rollback(cp0);
        assert_eq!(c.events_pushed(), 0);
    }

    #[test]
    #[should_panic(expected = "checkpoint invalidated")]
    fn stale_checkpoint_panics() {
        let mut c = IncrementalChecker::new(Mode::Opacity);
        c.push(Event::read(P1, X)).unwrap();
        let outer = c.checkpoint();
        c.push(Event::value(P1, 0)).unwrap();
        let inner = c.checkpoint();
        c.rollback(outer);
        c.rollback(inner);
    }

    #[test]
    fn strict_serializability_ignores_aborted_reads() {
        let h = HistoryBuilder::new()
            .read(P1, X, 42)
            .abort_on_try_commit(P1)
            .build()
            .unwrap();
        assert!(accepts(Mode::StrictSerializability, &h));
        assert!(!accepts(Mode::Opacity, &h));
    }
}
