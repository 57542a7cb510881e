//! The paper's `Fgp` automaton (§6): opacity + global progress in any
//! fault-prone system.
//!
//! Each state is a tuple `s = (Status, CP, Val, f)`:
//!
//! * `Status[k] ∈ {c, a}` — whether `pk`'s next response may be normal
//!   (`c`) or must be an abort (`a`, set when another process committed
//!   while `pk` was concurrent to it);
//! * `CP ⊆ P` — the current group of mutually concurrent processes none of
//!   which has committed;
//! * `Val[k][j]` — the value of t-variable `xj` as seen by `pk`;
//! * `f(pk)` — `pk`'s pending invocation, or `⊥`.
//!
//! # Variants
//!
//! The paper's prose and formal transition rules disagree in two places,
//! and the formal rules contain an outright bug; we implement all three
//! readings so the differences are mechanically checkable:
//!
//! * [`FgpVariant::Literal`] — the formal transition relation *verbatim*.
//!   Its write rule updates `Val[k][j]` at invocation time even when
//!   `Status[k] = a` (the write will be answered by an abort), and nothing
//!   ever rolls the value back, so the process's **next** transaction can
//!   read its own aborted write. This variant is **not opaque** — the test
//!   suite and the model checker exhibit concrete non-opaque histories.
//! * [`FgpVariant::Strict`] — the formal rules with the minimal fix:
//!   a write invocation updates `Val` only when `Status[k] = c`. Since
//!   `Status[k] = a` can only be set by a commit, and every commit
//!   overwrites all rows of `Val`, no aborted write can survive into a
//!   later transaction. Commits abort **every** other process, per the
//!   formal `C_k` rule.
//! * [`FgpVariant::CpOnly`] — the prose semantics: processes join `CP`
//!   only when `Status[k] = c`, and a commit aborts only the members of
//!   `CP`, not every process. This matches the example history of
//!   Figure 16. Default.
//!
//! All variants produce exactly the 10-state reachable graph of Figure 15
//! for one process and one binary t-variable (a single process never has
//! `Status = a`, where the variants differ).

use serde::{Deserialize, Serialize};

use tm_core::{Invocation, ProcessId, Response, TVarId, Value, INITIAL_VALUE};

use crate::ioa::TmAutomaton;

/// Which reading of the paper's `Fgp` definition to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FgpVariant {
    /// The formal transition rules verbatim — **known non-opaque** (aborted
    /// writes leak into the next transaction's reads).
    Literal,
    /// Formal rules + status-gated writes; commit aborts all other
    /// processes.
    Strict,
    /// Prose rules: commit aborts only the concurrent group `CP`. Default.
    #[default]
    CpOnly,
}

/// Per-process status: `c` (may receive normal responses) or `a` (next
/// response is an abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PStatus {
    /// `c` in the paper.
    Clear,
    /// `a` in the paper.
    Doomed,
}

/// The concurrent group `CP` as a bitmask over process indices.
///
/// The automaton supports at most 64 processes (far beyond any
/// enumerable state space); a machine word keeps `FgpState` clones —
/// the unit of work of the model checker's `fork` — allocation-free for
/// this component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CpSet(u64);

impl CpSet {
    /// The empty group.
    pub fn new() -> Self {
        CpSet(0)
    }

    /// Adds process `k`.
    pub fn insert(&mut self, k: usize) {
        debug_assert!(k < 64);
        self.0 |= 1 << k;
    }

    /// Empties the group.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Whether process `k` is in the group.
    pub fn contains(&self, k: usize) -> bool {
        k < 64 && self.0 & (1 << k) != 0
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of processes in the group.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// The member process indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let bits = self.0;
        (0..64).filter(move |k| bits & (1 << k) != 0)
    }
}

/// A state `(Status, CP, Val, f)` of the `Fgp` automaton.
///
/// `Val` is stored row-major in one flat vector (row `k` = process
/// `k`'s view), so cloning a state — the automaton API is functional,
/// and the model checker forks states on every tree edge — costs three
/// vector allocations regardless of the t-variable count.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct FgpState {
    /// `Status[k]` for each process: bit `k` set means `Doomed` (`a`).
    /// A machine word, like [`CpSet`], so state clones stay cheap.
    doomed: u64,
    /// The concurrent group `CP`.
    pub cp: CpSet,
    /// `Val[k][j]` flattened to `val[k * tvars + j]`.
    val: Vec<Value>,
    /// Row length of `val` (the t-variable count).
    tvars: usize,
    /// `f(pk)`: pending invocation per process.
    pub pending: Vec<Option<Invocation>>,
}

// Hand-written so `clone_from` reuses the target's vector buffers — the
// model checker reforks states through it on every recycled tree edge.
impl Clone for FgpState {
    fn clone(&self) -> Self {
        FgpState {
            doomed: self.doomed,
            cp: self.cp,
            val: self.val.clone(),
            tvars: self.tvars,
            pending: self.pending.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.doomed = source.doomed;
        self.cp = source.cp;
        self.val.clone_from(&source.val);
        self.tvars = source.tvars;
        self.pending.clone_from(&source.pending);
    }
}

impl FgpState {
    /// `Val[k][j]`: process `k`'s view of t-variable `j`.
    pub fn val(&self, k: usize, j: usize) -> Value {
        self.val[k * self.tvars + j]
    }

    fn val_mut(&mut self, k: usize, j: usize) -> &mut Value {
        &mut self.val[k * self.tvars + j]
    }

    /// `Status[k]`.
    pub fn status(&self, k: usize) -> PStatus {
        if self.doomed & (1 << k) != 0 {
            PStatus::Doomed
        } else {
            PStatus::Clear
        }
    }

    fn set_status(&mut self, k: usize, status: PStatus) {
        match status {
            PStatus::Doomed => self.doomed |= 1 << k,
            PStatus::Clear => self.doomed &= !(1 << k),
        }
    }
}

/// The `Fgp` TM automaton for a fixed number of processes and t-variables.
///
/// # Examples
///
/// ```
/// use tm_automata::{Fgp, FgpVariant, Runner};
/// use tm_core::{Invocation, ProcessId, Response, TVarId};
///
/// let mut r = Runner::new(Fgp::new(2, 1, FgpVariant::CpOnly));
/// let (p1, p2, x) = (ProcessId(0), ProcessId(1), TVarId(0));
/// // p1 reads, p2 reads+writes+commits, then p1's write must abort.
/// assert_eq!(r.invoke_and_deliver(p1, Invocation::Read(x)).unwrap(), Some(Response::Value(0)));
/// assert_eq!(r.invoke_and_deliver(p2, Invocation::Read(x)).unwrap(), Some(Response::Value(0)));
/// assert_eq!(r.invoke_and_deliver(p2, Invocation::Write(x, 1)).unwrap(), Some(Response::Ok));
/// assert_eq!(r.invoke_and_deliver(p2, Invocation::TryCommit).unwrap(), Some(Response::Committed));
/// assert_eq!(r.invoke_and_deliver(p1, Invocation::Write(x, 1)).unwrap(), Some(Response::Aborted));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fgp {
    processes: usize,
    tvars: usize,
    variant: FgpVariant,
}

impl Fgp {
    /// Creates an `Fgp` automaton for `processes` processes and `tvars`
    /// t-variables.
    ///
    /// # Panics
    ///
    /// Panics if `processes` or `tvars` is zero.
    pub fn new(processes: usize, tvars: usize, variant: FgpVariant) -> Self {
        assert!(processes > 0, "need at least one process");
        assert!(tvars > 0, "need at least one t-variable");
        Fgp {
            processes,
            tvars,
            variant,
        }
    }

    /// The variant in use.
    pub fn variant(&self) -> FgpVariant {
        self.variant
    }
}

impl TmAutomaton for Fgp {
    type State = FgpState;

    fn initial_state(&self) -> FgpState {
        FgpState {
            doomed: 0,
            cp: CpSet::new(),
            val: vec![INITIAL_VALUE; self.processes * self.tvars],
            tvars: self.tvars,
            pending: vec![None; self.processes],
        }
    }

    fn process_count(&self) -> usize {
        self.processes
    }

    fn tvar_count(&self) -> usize {
        self.tvars
    }

    fn apply_invocation(
        &self,
        state: &FgpState,
        process: ProcessId,
        invocation: Invocation,
    ) -> Option<FgpState> {
        let mut s = state.clone();
        self.apply_invocation_mut(&mut s, process, invocation)
            .then_some(s)
    }

    fn enabled_response(
        &self,
        state: &FgpState,
        process: ProcessId,
    ) -> Option<(Response, FgpState)> {
        let mut s = state.clone();
        let response = self.enabled_response_mut(&mut s, process)?;
        Some((response, s))
    }

    fn apply_invocation_mut(
        &self,
        s: &mut FgpState,
        process: ProcessId,
        invocation: Invocation,
    ) -> bool {
        let k = process.index();
        if k >= self.processes || s.pending[k].is_some() {
            return false;
        }
        if let Some(x) = invocation.tvar() {
            if x.index() >= self.tvars {
                return false;
            }
        }
        s.pending[k] = Some(invocation);
        // CP joining: the formal rules add on every invocation; the prose
        // adds only processes whose status is `c`.
        let joins = match self.variant {
            FgpVariant::Literal | FgpVariant::Strict => true,
            FgpVariant::CpOnly => s.status(k) == PStatus::Clear,
        };
        if joins {
            s.cp.insert(k);
        }
        // The formal write rule updates Val at invocation time. Literal
        // does so unconditionally (the documented bug); the fixed variants
        // gate it on Status[k] = c so an aborted write cannot pollute the
        // process's view.
        if let Invocation::Write(x, v) = invocation {
            let applies = match self.variant {
                FgpVariant::Literal => true,
                FgpVariant::Strict | FgpVariant::CpOnly => s.status(k) == PStatus::Clear,
            };
            if applies {
                *s.val_mut(k, x.index()) = v;
            }
        }
        true
    }

    fn enabled_response_mut(&self, s: &mut FgpState, process: ProcessId) -> Option<Response> {
        let k = process.index();
        let inv = (*s.pending.get(k)?)?;
        s.pending[k] = None;
        match s.status(k) {
            PStatus::Doomed => {
                // A_k: the only enabled response; status resets to c.
                s.set_status(k, PStatus::Clear);
                Some(Response::Aborted)
            }
            PStatus::Clear => match inv {
                Invocation::Read(x) => Some(Response::Value(s.val(k, x.index()))),
                Invocation::Write(..) => Some(Response::Ok),
                Invocation::TryCommit => {
                    // C_k: doom the losers, sync every view to the
                    // committer's, empty CP.
                    match self.variant {
                        FgpVariant::Literal | FgpVariant::Strict => {
                            for k2 in 0..self.processes {
                                if k2 != k {
                                    s.set_status(k2, PStatus::Doomed);
                                }
                            }
                        }
                        FgpVariant::CpOnly => {
                            // Reads CP as of the pre-transition state:
                            // nothing above mutates it.
                            let cp = s.cp;
                            for k2 in cp.iter() {
                                if k2 != k {
                                    s.set_status(k2, PStatus::Doomed);
                                }
                            }
                        }
                    }
                    // Sync every view to the committer's row (in place —
                    // the committer's own row is already correct).
                    let tvars = self.tvars;
                    for k2 in 0..self.processes {
                        if k2 != k {
                            s.val.copy_within(k * tvars..(k + 1) * tvars, k2 * tvars);
                        }
                    }
                    s.cp.clear();
                    Some(Response::Committed)
                }
            },
        }
    }
}

/// Convenience: the committed view of a t-variable at a state (the row of
/// any process is the committed state immediately after a commit; between
/// commits the rows of non-writers remain the committed state).
pub fn view_of(state: &FgpState, process: ProcessId, x: TVarId) -> Value {
    state.val(process.index(), x.index())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ioa::Runner;
    use tm_core::{Invocation as Inv, TVarId};
    use tm_safety::{is_opaque, is_strictly_serializable, IncrementalChecker, Mode};

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const P3: ProcessId = ProcessId(2);
    const X: TVarId = TVarId(0);
    const Y: TVarId = TVarId(1);

    fn runner(n: usize, m: usize, variant: FgpVariant) -> Runner<Fgp> {
        Runner::new(Fgp::new(n, m, variant))
    }

    #[test]
    fn sequential_transactions_commit() {
        for variant in [FgpVariant::Literal, FgpVariant::Strict, FgpVariant::CpOnly] {
            let mut r = runner(1, 1, variant);
            assert_eq!(
                r.invoke_and_deliver(P1, Inv::Read(X)).unwrap(),
                Some(Response::Value(0))
            );
            assert_eq!(
                r.invoke_and_deliver(P1, Inv::Write(X, 1)).unwrap(),
                Some(Response::Ok)
            );
            assert_eq!(
                r.invoke_and_deliver(P1, Inv::TryCommit).unwrap(),
                Some(Response::Committed)
            );
            assert_eq!(
                r.invoke_and_deliver(P1, Inv::Read(X)).unwrap(),
                Some(Response::Value(1))
            );
            assert!(is_opaque(r.history()));
        }
    }

    #[test]
    fn first_committer_wins_concurrent_group() {
        for variant in [FgpVariant::Strict, FgpVariant::CpOnly] {
            let mut r = runner(2, 1, variant);
            r.invoke_and_deliver(P1, Inv::Read(X)).unwrap();
            r.invoke_and_deliver(P2, Inv::Read(X)).unwrap();
            r.invoke_and_deliver(P2, Inv::Write(X, 1)).unwrap();
            assert_eq!(
                r.invoke_and_deliver(P2, Inv::TryCommit).unwrap(),
                Some(Response::Committed)
            );
            // p1 was concurrent: its next operation aborts.
            assert_eq!(
                r.invoke_and_deliver(P1, Inv::Write(X, 1)).unwrap(),
                Some(Response::Aborted)
            );
            // p1's fresh transaction then sees the committed value.
            assert_eq!(
                r.invoke_and_deliver(P1, Inv::Read(X)).unwrap(),
                Some(Response::Value(1))
            );
            assert!(is_opaque(r.history()));
        }
    }

    #[test]
    fn own_writes_are_visible_before_commit() {
        let mut r = runner(2, 2, FgpVariant::CpOnly);
        r.invoke_and_deliver(P1, Inv::Write(X, 7)).unwrap();
        assert_eq!(
            r.invoke_and_deliver(P1, Inv::Read(X)).unwrap(),
            Some(Response::Value(7))
        );
        // ...but invisible to p2.
        assert_eq!(
            r.invoke_and_deliver(P2, Inv::Read(X)).unwrap(),
            Some(Response::Value(0))
        );
    }

    #[test]
    fn literal_variant_leaks_aborted_write() {
        // The documented bug in the paper's formal rules: p1's *aborted*
        // write persists in Val[1] and is read by p1's next transaction.
        let mut r = runner(2, 1, FgpVariant::Literal);
        r.invoke_and_deliver(P1, Inv::Read(X)).unwrap(); // p1 joins CP
        r.invoke_and_deliver(P2, Inv::Read(X)).unwrap();
        r.invoke_and_deliver(P2, Inv::Write(X, 1)).unwrap();
        r.invoke_and_deliver(P2, Inv::TryCommit).unwrap(); // commit: x = 1
                                                           // p1 is doomed; its write invocation still updates Val[1][x] = 5.
        assert_eq!(
            r.invoke_and_deliver(P1, Inv::Write(X, 5)).unwrap(),
            Some(Response::Aborted)
        );
        // p1's *new* transaction reads 5 — a value no one ever committed.
        assert_eq!(
            r.invoke_and_deliver(P1, Inv::Read(X)).unwrap(),
            Some(Response::Value(5))
        );
        assert_eq!(
            r.invoke_and_deliver(P1, Inv::TryCommit).unwrap(),
            Some(Response::Committed)
        );
        assert!(!is_opaque(r.history()), "literal Fgp must violate opacity");
    }

    #[test]
    fn fixed_variants_do_not_leak_aborted_writes() {
        for variant in [FgpVariant::Strict, FgpVariant::CpOnly] {
            let mut r = runner(2, 1, variant);
            r.invoke_and_deliver(P1, Inv::Read(X)).unwrap();
            r.invoke_and_deliver(P2, Inv::Read(X)).unwrap();
            r.invoke_and_deliver(P2, Inv::Write(X, 1)).unwrap();
            r.invoke_and_deliver(P2, Inv::TryCommit).unwrap();
            assert_eq!(
                r.invoke_and_deliver(P1, Inv::Write(X, 5)).unwrap(),
                Some(Response::Aborted)
            );
            assert_eq!(
                r.invoke_and_deliver(P1, Inv::Read(X)).unwrap(),
                Some(Response::Value(1)),
                "{variant:?} must not leak the aborted write"
            );
            assert!(is_opaque(r.history()));
        }
    }

    #[test]
    fn strict_dooms_everyone_cponly_dooms_only_cp() {
        // p3 has no transaction when p2 commits.
        let mut strict = runner(3, 1, FgpVariant::Strict);
        let mut cponly = runner(3, 1, FgpVariant::CpOnly);
        for r in [&mut strict, &mut cponly] {
            r.invoke_and_deliver(P2, Inv::Write(X, 1)).unwrap();
            r.invoke_and_deliver(P2, Inv::TryCommit).unwrap();
        }
        // Strict: p3's first-ever operation is aborted.
        assert_eq!(
            strict.invoke_and_deliver(P3, Inv::Read(X)).unwrap(),
            Some(Response::Aborted)
        );
        // CpOnly: p3 was not concurrent, so it reads normally.
        assert_eq!(
            cponly.invoke_and_deliver(P3, Inv::Read(X)).unwrap(),
            Some(Response::Value(1))
        );
    }

    #[test]
    fn figure_16_style_history_with_two_tvars() {
        // Three processes, two t-variables, CpOnly: two interleavings with
        // the per-process shape of the paper's Figure 16 history Hex. p1
        // commits a write of x, dooming the concurrent p3 (first
        // interleaving) or p2 and p3 (second); p3 retries and commits a
        // write of y; p2 reads both committed values and commits. The
        // second ends with p3 dooming p1's next transaction, so p1 and p2
        // each abort once, like the figure.
        use Response::{Aborted, Committed, Value};
        let ok = Response::Ok;
        let first = [
            (P1, Inv::Read(X), Value(0)),
            (P1, Inv::Write(X, 1), ok),
            (P3, Inv::Read(Y), Value(0)),
            (P3, Inv::Write(Y, 1), ok),
            (P1, Inv::TryCommit, Committed),
            (P3, Inv::TryCommit, Aborted),
            (P3, Inv::Read(Y), Value(0)),
            (P3, Inv::Write(Y, 1), ok),
            (P3, Inv::TryCommit, Committed),
            (P2, Inv::Read(Y), Value(1)),
            (P2, Inv::Read(X), Value(1)),
            (P2, Inv::TryCommit, Committed),
        ];
        let second = [
            (P1, Inv::Read(X), Value(0)),
            (P2, Inv::Write(Y, 1), ok),
            (P3, Inv::Read(Y), Value(0)),
            (P1, Inv::Write(X, 1), ok),
            (P1, Inv::TryCommit, Committed),
            (P2, Inv::TryCommit, Aborted),
            (P3, Inv::Write(Y, 1), Aborted),
            (P3, Inv::Read(Y), Value(0)),
            (P3, Inv::Write(Y, 1), ok),
            (P3, Inv::TryCommit, Committed),
            (P2, Inv::Read(Y), Value(1)),
            (P2, Inv::Read(X), Value(1)),
            (P2, Inv::TryCommit, Committed),
            (P1, Inv::Read(Y), Value(1)),
            (P3, Inv::Read(Y), Value(1)),
            (P3, Inv::Write(Y, 0), ok),
            (P3, Inv::TryCommit, Committed),
            (P1, Inv::TryCommit, Aborted),
        ];
        // (steps, commits and aborts per process)
        let cases: [(&[_], _, _); 2] = [
            (&first, [1, 1, 1], [0, 0, 1]),
            (&second, [1, 1, 2], [1, 1, 1]),
        ];
        for (steps, commits, aborts) in cases {
            let mut r = runner(3, 2, FgpVariant::CpOnly);
            for &(p, inv, want) in steps {
                let got = r.invoke_and_deliver(p, inv).unwrap();
                assert_eq!(got, Some(want), "{p}: {inv}");
            }
            let h = r.history();
            assert!(is_opaque(h));
            assert!(is_strictly_serializable(h));
            for (k, p) in [P1, P2, P3].into_iter().enumerate() {
                assert_eq!(h.commit_count(p), commits[k], "{p}");
                assert_eq!(h.abort_count(p), aborts[k], "{p}");
            }
        }
    }

    #[test]
    fn long_random_run_is_commit_order_opaque() {
        // 3 processes, 2 tvars, fixed pseudo-random schedule: every prefix
        // certified opaque by the incremental checker.
        for variant in [FgpVariant::Strict, FgpVariant::CpOnly] {
            let mut r = runner(3, 2, variant);
            let mut checker = IncrementalChecker::new(Mode::Opacity);
            let mut seed = 0x9E3779B97F4A7C15u64;
            let mut rng = move || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            };
            for _ in 0..3000 {
                let p = ProcessId((rng() % 3) as usize);
                let x = TVarId((rng() % 2) as usize);
                let inv = match rng() % 4 {
                    0 => Inv::Read(x),
                    1 | 2 => Inv::Write(x, rng() % 5),
                    _ => Inv::TryCommit,
                };
                let _ = r.invoke_and_deliver(p, inv).unwrap();
            }
            checker
                .push_all(r.history().iter().copied())
                .expect("every Fgp prefix must be opaque");
        }
    }

    #[test]
    fn doomed_process_aborts_exactly_once() {
        let mut r = runner(2, 1, FgpVariant::Strict);
        r.invoke_and_deliver(P1, Inv::Read(X)).unwrap();
        r.invoke_and_deliver(P2, Inv::Write(X, 1)).unwrap();
        r.invoke_and_deliver(P2, Inv::TryCommit).unwrap();
        assert_eq!(
            r.invoke_and_deliver(P1, Inv::Read(X)).unwrap(),
            Some(Response::Aborted)
        );
        // After the single abort the process is clear again.
        assert_eq!(
            r.invoke_and_deliver(P1, Inv::Read(X)).unwrap(),
            Some(Response::Value(1))
        );
    }

    #[test]
    fn view_of_exposes_val() {
        let fgp = Fgp::new(2, 1, FgpVariant::CpOnly);
        let s = fgp.initial_state();
        assert_eq!(view_of(&s, P1, X), 0);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_panics() {
        let _ = Fgp::new(0, 1, FgpVariant::CpOnly);
    }
}
