//! Algorithm 1 of the paper (Theorem 1, parasitic-free systems).
//!
//! Two processes, one t-variable `x`:
//!
//! * **Step 1** — `p1` reads `x`, receiving a value `v` or `A1`; go to
//!   Step 2.
//! * **Step 2** — `p2` reads `x`; on `A2` repeat Step 2; else `p2` writes
//!   `v2 + 1`; on `A2` repeat Step 2; else `p2` invokes `tryC`; on `C2` go
//!   to Step 3, else repeat Step 2.
//! * **Step 3** — if `p1`'s Step-1 response was `A1`, go to Step 1; else
//!   `p1` writes `v + 1`; on `A1` go to Step 1; else `p1` invokes `tryC`;
//!   on `C1` **stop** — the paper proves the resulting history (Figure 8)
//!   is not opaque, so an opaque TM never lets this happen — else go to
//!   Step 1.
//!
//! While `p2` is looping in Step 2, `p1` is silent: the environment
//! behaves exactly as if `p1` had crashed (Figure 9); if the algorithm
//! reaches Step 3 forever, `p1` aborts forever (Figure 10). Either way
//! some correct process starves, contradicting local progress.

use tm_core::{Invocation, ProcessId, Response, TVarId, Value};

use crate::strategy::{Strategy, ValueMode};

const P1: ProcessId = ProcessId(0);
const P2: ProcessId = ProcessId(1);

/// Strategy state: `*Due` states emit an invocation from
/// [`Strategy::next`]; `Await*` states consume a response in
/// [`Strategy::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Step1ReadDue,
    AwaitStep1Read,
    Step2ReadDue,
    AwaitStep2Read,
    Step2WriteDue,
    AwaitStep2Write,
    Step2TryCDue,
    AwaitStep2TryC,
    Step3Due,
    AwaitStep3Write,
    Step3TryCDue,
    AwaitStep3TryC,
    Finished,
}

/// The Algorithm 1 adversary.
#[derive(Debug, Clone)]
pub struct Algorithm1 {
    x: TVarId,
    state: State,
    /// `p1`'s Step-1 response: `Some(v)` or `None` for `A1`.
    p1_read: Option<Value>,
    /// `p2`'s most recent read value.
    p2_read: Value,
    /// Offset the victim writes (`v + victim_offset`); the paper uses 1.
    /// Ignored in [`ValueMode::Binary`].
    victim_offset: Value,
    mode: ValueMode,
    rounds: usize,
}

impl Algorithm1 {
    /// Creates the adversary playing on t-variable `x` (processes `p1` and
    /// `p2` are indices 0 and 1).
    pub fn new(x: TVarId) -> Self {
        Self::with_victim_offset(x, 1)
    }

    /// Like [`Algorithm1::new`], but the victim writes `v + offset`
    /// instead of `v + 1`. Against a correct TM this changes nothing (the
    /// victim's writes never commit); against the literal `Fgp` variant an
    /// offset ≠ 1 makes the leaked aborted write *observable*, which the
    /// safety experiments exploit.
    pub fn with_victim_offset(x: TVarId, offset: Value) -> Self {
        Algorithm1 {
            x,
            state: State::Step1ReadDue,
            p1_read: None,
            p2_read: 0,
            victim_offset: offset,
            mode: ValueMode::Increment,
            rounds: 0,
        }
    }

    /// Binary-domain variant: both processes write `1 − v` instead of
    /// `v + 1`, so the produced run is eventually periodic and the lasso
    /// detector can recover the infinite history (see
    /// `every_tms_adversary_run_is_formally_a_local_progress_violation` in
    /// `tests/extensions.rs`).
    pub fn binary(x: TVarId) -> Self {
        let mut a = Self::new(x);
        a.mode = ValueMode::Binary;
        a
    }
}

impl Strategy for Algorithm1 {
    fn name(&self) -> &'static str {
        "algorithm-1"
    }

    fn next(&mut self) -> (ProcessId, Invocation) {
        match self.state {
            State::Step1ReadDue => {
                self.state = State::AwaitStep1Read;
                (P1, Invocation::Read(self.x))
            }
            State::Step2ReadDue => {
                self.state = State::AwaitStep2Read;
                (P2, Invocation::Read(self.x))
            }
            State::Step2WriteDue => {
                self.state = State::AwaitStep2Write;
                (P2, Invocation::Write(self.x, self.mode.next(self.p2_read)))
            }
            State::Step2TryCDue => {
                self.state = State::AwaitStep2TryC;
                (P2, Invocation::TryCommit)
            }
            State::Step3Due => match self.p1_read {
                // p1 was aborted at Step 1: restart from Step 1.
                None => {
                    self.state = State::AwaitStep1Read;
                    (P1, Invocation::Read(self.x))
                }
                Some(v) => {
                    self.state = State::AwaitStep3Write;
                    let value = match self.mode {
                        ValueMode::Increment => v + self.victim_offset,
                        ValueMode::Binary => v ^ 1,
                    };
                    (P1, Invocation::Write(self.x, value))
                }
            },
            State::Step3TryCDue => {
                self.state = State::AwaitStep3TryC;
                (P1, Invocation::TryCommit)
            }
            State::AwaitStep1Read
            | State::AwaitStep2Read
            | State::AwaitStep2Write
            | State::AwaitStep2TryC
            | State::AwaitStep3Write
            | State::AwaitStep3TryC => unreachable!("next() while awaiting a response"),
            State::Finished => unreachable!("next() after finish"),
        }
    }

    fn observe(&mut self, process: ProcessId, response: Response) {
        self.state = match (self.state, process, response) {
            (State::AwaitStep1Read, p, Response::Value(v)) if p == P1 => {
                self.p1_read = Some(v);
                State::Step2ReadDue
            }
            (State::AwaitStep1Read, p, Response::Aborted) if p == P1 => {
                self.p1_read = None;
                State::Step2ReadDue
            }
            (State::AwaitStep2Read, p, Response::Value(v)) if p == P2 => {
                self.p2_read = v;
                State::Step2WriteDue
            }
            (State::AwaitStep2Read, p, Response::Aborted) if p == P2 => State::Step2ReadDue,
            (State::AwaitStep2Write, p, Response::Ok) if p == P2 => State::Step2TryCDue,
            (State::AwaitStep2Write, p, Response::Aborted) if p == P2 => State::Step2ReadDue,
            (State::AwaitStep2TryC, p, Response::Committed) if p == P2 => {
                self.rounds += 1;
                State::Step3Due
            }
            (State::AwaitStep2TryC, p, Response::Aborted) if p == P2 => State::Step2ReadDue,
            (State::AwaitStep3Write, p, Response::Ok) if p == P1 => State::Step3TryCDue,
            (State::AwaitStep3Write, p, Response::Aborted) if p == P1 => State::Step1ReadDue,
            (State::AwaitStep3TryC, p, Response::Committed) if p == P1 => State::Finished,
            (State::AwaitStep3TryC, p, Response::Aborted) if p == P1 => State::Step1ReadDue,
            (state, p, r) => unreachable!("unexpected response {r:?} from {p} in {state:?}"),
        };
    }

    fn finished(&self) -> bool {
        self.state == State::Finished
    }

    fn rounds(&self) -> usize {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{run_game, GameConfig};
    use tm_stm::nonblocking_catalog;

    const X: TVarId = TVarId(0);

    #[test]
    fn starves_p1_against_every_opaque_tm() {
        for mut tm in nonblocking_catalog(2, 1) {
            let mut strategy = Algorithm1::new(X);
            let report = run_game(tm.as_mut(), &mut strategy, GameConfig::steps(5_000));
            assert!(
                !report.terminated,
                "{}: adversary must not terminate",
                tm.name()
            );
            assert_eq!(
                report.commits[P1.index()],
                0,
                "{}: p1 must never commit",
                tm.name()
            );
            assert!(
                report.commits[P2.index()] >= 100,
                "{}: p2 should commit every round (got {})",
                tm.name(),
                report.commits[P2.index()]
            );
            assert!(
                report.aborts[P1.index()] >= 100,
                "{}: p1 should abort every round",
                tm.name()
            );
        }
    }

    #[test]
    fn histories_remain_opaque_throughout() {
        for mut tm in nonblocking_catalog(2, 1) {
            let mut strategy = Algorithm1::new(X);
            let report = run_game(
                tm.as_mut(),
                &mut strategy,
                GameConfig::steps(2_000).check_opacity(),
            );
            assert!(
                report.safety_ok,
                "{}: every prefix must stay opaque",
                tm.name()
            );
        }
    }

    #[test]
    fn global_lock_escapes_by_blocking() {
        // The global-lock TM defeats Algorithm 1 differently: p1's read
        // acquires the lock, p2 blocks forever. Nobody aborts, nobody
        // commits — and in a crash-prone world p1 might never come back.
        let mut tm = tm_stm::GlobalLock::new(2, 1);
        let mut strategy = Algorithm1::new(X);
        let report = run_game(&mut tm, &mut strategy, GameConfig::steps(1_000));
        assert!(!report.terminated);
        assert_eq!(report.commits, vec![0, 0]);
        assert_eq!(report.aborts, vec![0, 0]);
        assert!(report.stalled_steps > 900);
    }

    #[test]
    fn rounds_count_p2_commits() {
        let mut tm = tm_stm::Tl2::new(2, 1);
        let mut strategy = Algorithm1::new(X);
        let report = run_game(&mut tm, &mut strategy, GameConfig::steps(1_000));
        assert_eq!(strategy.rounds(), report.commits[P2.index()]);
    }
}
