//! The paper's `Fgp` automaton behind the [`SteppedTm`] interface.
//!
//! This is the same automaton as [`tm_automata::Fgp`] (Section 6 of the
//! paper) packaged for the schedulers, adversaries and model checker that
//! drive [`SteppedTm`] implementations. `Fgp` never withholds a response,
//! so [`SteppedTm::poll`] never has work to do.

use tm_automata::{Fgp, FgpVariant, Runner, TmAutomaton};
use tm_core::{Invocation, ProcessId, Response, TVarId, Value};

use crate::api::{BoxedTm, Outcome, StepFootprint, SteppedTm};

/// Stepped adapter around the `Fgp` I/O automaton.
///
/// # Examples
///
/// ```
/// use tm_core::{Invocation, ProcessId, Response, TVarId};
/// use tm_stm::{FgpTm, Outcome, SteppedTm};
/// use tm_automata::FgpVariant;
///
/// let (p1, x) = (ProcessId(0), TVarId(0));
/// let mut tm = FgpTm::new(2, 1, FgpVariant::CpOnly);
/// assert_eq!(tm.invoke(p1, Invocation::Read(x)), Outcome::Response(Response::Value(0)));
/// ```
#[derive(Debug, Clone)]
pub struct FgpTm {
    runner: Runner<Fgp>,
    name: &'static str,
}

impl FgpTm {
    /// Creates a stepped `Fgp` TM.
    ///
    /// # Panics
    ///
    /// Panics if `processes` or `tvars` is zero.
    pub fn new(processes: usize, tvars: usize, variant: FgpVariant) -> Self {
        // The adapter is driven by harnesses that record histories
        // themselves (`Recorded`, the model checker), so the runner's own
        // log is dead weight — and would make `fork` O(history).
        let mut runner = Runner::new(Fgp::new(processes, tvars, variant));
        runner.disable_recording();
        FgpTm {
            runner,
            name: match variant {
                FgpVariant::Literal => "fgp-literal",
                FgpVariant::Strict => "fgp-strict",
                FgpVariant::CpOnly => "fgp",
            },
        }
    }

    /// The variant of the underlying automaton.
    pub fn variant(&self) -> FgpVariant {
        self.runner.automaton().variant()
    }

    /// The committed view of a t-variable: after every commit all `Val`
    /// rows coincide; between commits the committer's row is authoritative.
    /// For inspection purposes the row of any process with `Status = c`
    /// and no own writes is the committed state; we return row 0's view,
    /// which is exact for the tests that use it (they query at commit
    /// boundaries).
    pub fn view(&self, process: ProcessId, x: TVarId) -> Value {
        tm_automata::fgp::view_of(self.runner.state(), process, x)
    }
}

impl SteppedTm for FgpTm {
    fn name(&self) -> &'static str {
        self.name
    }

    fn process_count(&self) -> usize {
        self.runner.automaton().process_count()
    }

    fn tvar_count(&self) -> usize {
        self.runner.automaton().tvar_count()
    }

    fn invoke(&mut self, process: ProcessId, invocation: Invocation) -> Outcome {
        self.runner
            .invoke(process, invocation)
            .expect("driver must respect the sequential-process contract");
        let response = self
            .runner
            .deliver(process)
            .expect("Fgp always has an enabled response");
        Outcome::Response(response)
    }

    fn poll(&mut self, _process: ProcessId) -> Option<Response> {
        None // Fgp never withholds responses.
    }

    fn has_pending(&self, process: ProcessId) -> bool {
        self.runner.state().pending[process.index()].is_some()
    }

    fn fork(&self) -> BoxedTm {
        Box::new(self.clone())
    }

    fn step_footprint(&self, process: ProcessId, invocation: Invocation) -> StepFootprint {
        // Audited conflict oracle, for all three variants. An operation
        // step touches only the process's own `Val` row and `Status`
        // bit, plus a *commutative* insert into `CP` — so operation
        // steps by different processes commute even on the same
        // t-variable, and the per-variable masks stay empty. The
        // `Status` bit is set by other processes' commits and `CP` is
        // read (and cleared) by them, so operations are global readers;
        // `tryC` — which dooms, syncs every view and clears `CP` — is
        // the lone global writer.
        let k = process.index();
        let doomed = self.runner.state().status(k) == tm_automata::fgp::PStatus::Doomed;
        let mut fp = StepFootprint::local();
        fp.global_read = true;
        match invocation {
            Invocation::Read(_) | Invocation::Write(..) => fp.ends = doomed,
            Invocation::TryCommit => {
                fp.ends = true;
                fp.global_write = true;
            }
        }
        fp
    }

    fn state_digest(&self) -> Option<u64> {
        // The automaton state `(Status, CP, Val, f)` is already canonical:
        // no unbounded counters, every component behaviour-relevant. The
        // runner's (disabled) history is deliberately excluded.
        Some(tm_core::digest_of(self.runner.state()))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn refork_from(&mut self, source: &dyn SteppedTm) -> bool {
        let Some(source) = source.as_any().and_then(|a| a.downcast_ref::<FgpTm>()) else {
            return false;
        };
        if self.process_count() != source.process_count()
            || self.tvar_count() != source.tvar_count()
            || self.variant() != source.variant()
        {
            return false;
        }
        self.runner.copy_from(&source.runner);
        self.name = source.name;
        true
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
        tm.invoke(p, inv).response().expect("fgp never blocks")
    }

    #[test]
    fn adapter_matches_automaton_behaviour() {
        let mut tm = Recorded::new(FgpTm::new(2, 1, FgpVariant::CpOnly));
        assert_eq!(resp(&mut tm, P1, Inv::Read(X)), Response::Value(0));
        assert_eq!(resp(&mut tm, P2, Inv::Read(X)), Response::Value(0));
        resp(&mut tm, P2, Inv::Write(X, 1));
        assert_eq!(resp(&mut tm, P2, Inv::TryCommit), Response::Committed);
        assert_eq!(resp(&mut tm, P1, Inv::Write(X, 1)), Response::Aborted);
        assert!(is_opaque(tm.history()));
    }

    #[test]
    fn names_reflect_variants() {
        assert_eq!(FgpTm::new(1, 1, FgpVariant::CpOnly).name(), "fgp");
        assert_eq!(FgpTm::new(1, 1, FgpVariant::Strict).name(), "fgp-strict");
        assert_eq!(FgpTm::new(1, 1, FgpVariant::Literal).name(), "fgp-literal");
    }

    #[test]
    fn never_pending() {
        let mut tm = FgpTm::new(1, 1, FgpVariant::CpOnly);
        assert!(!tm.has_pending(P1));
        resp(&mut tm, P1, Inv::Read(X));
        assert!(!tm.has_pending(P1));
        assert_eq!(tm.poll(P1), None);
    }
}
