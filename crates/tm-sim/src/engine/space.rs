//! The configuration layer of the exploration kernel: one scheduler
//! step, recorded; and the [`SearchSpace`] contract both checkers'
//! search states implement.

use tm_core::{Event, Invocation, ProcessId, Response};
use tm_stm::{BoxedTm, Outcome, SteppedTm, TmPool};
use tm_telemetry::{Json, Telemetry};

use crate::workload::{Client, ClientScript};

/// What one scheduler step of one process did, as recorded by
/// [`SearchSpace::step`]. A step is either the delivery attempt of a
/// withheld response (a poll) or the client's next invocation with the
/// TM's immediate answer (or lack of one). The record carries everything
/// either checker derives from a step: the produced events, the
/// transaction-completion facts, and the `tryC` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepRecord {
    /// The process had a pending invocation; the poll delivered the
    /// response, or `None` while the TM still blocks.
    Polled(Option<Response>),
    /// The invocation was answered immediately.
    Call(Invocation, Response),
    /// The invocation was withheld (a blocking TM); poll later.
    Withheld(Invocation),
}

impl StepRecord {
    /// The events the step appended to the history (at most two),
    /// attributed to process `p`.
    pub fn events(&self, p: ProcessId) -> [Option<Event>; 2] {
        match *self {
            StepRecord::Polled(None) => [None, None],
            StepRecord::Polled(Some(resp)) => [Some(Event::response(p, resp)), None],
            StepRecord::Call(inv, resp) => [
                Some(Event::invocation(p, inv)),
                Some(Event::response(p, resp)),
            ],
            StepRecord::Withheld(inv) => [Some(Event::invocation(p, inv)), None],
        }
    }

    /// How many events the step produced (0, 1 or 2).
    pub fn event_count(&self) -> u8 {
        match self {
            StepRecord::Polled(None) => 0,
            StepRecord::Polled(Some(_)) | StepRecord::Withheld(_) => 1,
            StepRecord::Call(..) => 2,
        }
    }

    /// The response the step delivered, if any.
    pub fn response(&self) -> Option<Response> {
        match *self {
            StepRecord::Polled(resp) => resp,
            StepRecord::Call(_, resp) => Some(resp),
            StepRecord::Withheld(_) => None,
        }
    }

    /// Whether the step *invoked* `tryC` (a poll that merely delivers a
    /// commit response is not a `tryC` step — the invocation happened at
    /// an earlier step).
    pub fn invoked_tryc(&self) -> bool {
        matches!(
            self,
            StepRecord::Call(Invocation::TryCommit, _)
                | StepRecord::Withheld(Invocation::TryCommit)
        )
    }
}

/// One scheduler step of process `k` against the TM: deliver a withheld
/// response if one exists, otherwise issue the client's next invocation.
/// Produced events are appended to `history` and responses are fed to
/// the client. With `parasitic`, a client about to invoke `tryC` loops
/// its transaction instead (the paper's §2.3 parasitic processes); the
/// simulator ([`crate::runner::simulate`]) applies the same rule to a
/// [`crate::faults::FaultPlan`]'s parasitic turns.
///
/// This is the single stepper beneath both checkers: the safety
/// explorer's certifier feed and the liveness checker's edge labelling
/// are both derived from the returned [`StepRecord`].
pub(crate) fn step_process(
    tm: &mut BoxedTm,
    clients: &mut [Client],
    k: usize,
    parasitic: bool,
    history: &mut Vec<Event>,
) -> StepRecord {
    let p = ProcessId(k);
    if tm.has_pending(p) {
        let polled = tm.poll(p);
        if let Some(resp) = polled {
            history.push(Event::response(p, resp));
            clients[k].observe(resp);
        }
        return StepRecord::Polled(polled);
    }
    if parasitic && clients[k].next_invocation() == Invocation::TryCommit {
        clients[k].restart_transaction();
    }
    let inv = clients[k].next_invocation();
    history.push(Event::invocation(p, inv));
    match tm.invoke(p, inv) {
        Outcome::Response(resp) => {
            history.push(Event::response(p, resp));
            clients[k].observe(resp);
            StepRecord::Call(inv, resp)
        }
        Outcome::Pending => StepRecord::Withheld(inv),
    }
}

/// The kernel's contract for a checker's mutable search state: a
/// *configuration* that can be expanded one process-step at a time and
/// unwound in O(1) on backtrack.
///
/// The safety explorer's `ScheduleSpace` (clients, schedule path,
/// history, incremental certifier) and the liveness checker's
/// `GraphSpace` (clients, fault masks) are the two
/// instantiations; generic kernel helpers such as `expand_child` (the
/// pool-fork-then-step expansion every walker shares) drive either.
pub trait SearchSpace {
    /// Everything [`SearchSpace::step`] mutates besides the TM, captured
    /// before a step and restored after its subtree unwinds: client
    /// cursor, history length, and (for the safety explorer) the
    /// certifier checkpoint.
    type Mark;

    /// The branching factor: one successor per process.
    fn width(&self) -> usize;

    /// Snapshots the state `step(k)` will mutate.
    fn mark(&mut self, k: usize) -> Self::Mark;

    /// Executes one scheduler step of process `k` against `tm`,
    /// recording path/history/certifier effects in the space.
    fn step(&mut self, tm: &mut BoxedTm, k: usize) -> StepRecord;

    /// Unwinds one [`SearchSpace::step`] of process `k`.
    fn rewind(&mut self, k: usize, mark: Self::Mark);
}

/// Replays `schedule` from the initial configuration — `tm` fresh from
/// Identity of the witness a `trace` event annotates: which engine and
/// event kind it is adjacent to, its index within the run, and (for
/// lassos) where the repeated cycle begins in the schedule.
pub(crate) struct TraceWitness<'a> {
    /// The producing engine (`"explore"` / `"livecheck"`).
    pub engine: &'a str,
    /// `"violation"` or `"lasso"`.
    pub kind: &'a str,
    /// Witness index within the run.
    pub idx: usize,
    /// Lasso only: the step index where the cycle starts.
    pub cycle_start: Option<usize>,
}

/// Replays `schedule` from the initial configuration — `tm` fresh from
/// the factory (or a fork of the root) and clients fresh from `scripts`
/// — and emits one v1 `trace` event annotating the witness: a
/// `{"p","op","resp","digest"}` object per scheduler step, the digest
/// taken *after* the step (the canonical fingerprint of the state the
/// step produced). Stepping is deterministic, so the replay reproduces
/// exactly the history the search recorded for this schedule; it runs
/// outside the search hot path and touches no counters, so enabling
/// traces cannot perturb [`tm_telemetry::Snapshot`] equality.
///
/// `plan` is the witness's concrete fault plan (indexed by *process*
/// step, matching `schedule`, which carries process steps only): a
/// process turned parasitic at step `t` loops instead of committing
/// from step `t` on, exactly as the search stepped it. Crashed
/// processes simply stop appearing in `schedule`, so crashes need no
/// replay action.
pub(crate) fn emit_trace(
    telemetry: &Telemetry,
    witness: &TraceWitness<'_>,
    mut tm: BoxedTm,
    scripts: &[ClientScript],
    parasitic: u64,
    plan: &crate::faults::FaultPlan,
    schedule: &[ProcessId],
) {
    let mut clients: Vec<Client> = scripts.iter().cloned().map(Client::new).collect();
    let mut history = Vec::new();
    let mut steps = Vec::with_capacity(schedule.len());
    for (i, &p) in schedule.iter().enumerate() {
        let k = p.0;
        let record = step_process(
            &mut tm,
            &mut clients,
            k,
            parasitic & (1 << k) != 0 || plan.is_parasitic(p, i),
            &mut history,
        );
        let op = match record {
            StepRecord::Polled(_) => "poll".to_string(),
            StepRecord::Call(inv, _) | StepRecord::Withheld(inv) => inv.to_string(),
        };
        let resp = record
            .response()
            .map_or(Json::Null, |r| Json::str(r.to_string()));
        let mut step = vec![
            ("p".to_string(), Json::Int(k as i64)),
            ("op".to_string(), Json::Str(op)),
            ("resp".to_string(), resp),
        ];
        if let Some(digest) = tm.state_digest() {
            step.push(("digest".to_string(), Json::Str(format!("{digest:016x}"))));
        }
        steps.push(Json::Obj(step));
    }
    let schedule_json = Json::Arr(schedule.iter().map(|p| Json::Int(p.0 as i64)).collect());
    let mut fields = vec![
        ("engine", Json::str(witness.engine)),
        ("kind", Json::str(witness.kind)),
        ("idx", Json::Int(witness.idx as i64)),
        ("schedule", schedule_json),
    ];
    if let Some(start) = witness.cycle_start {
        fields.push(("cycle_start", Json::Int(start as i64)));
    }
    if !plan.is_empty() {
        fields.push(("faults", plan.to_json()));
    }
    fields.push(("steps", Json::Arr(steps)));
    telemetry.event("trace", &fields);
}

/// Branches `parent` through the pool and steps process `k` on the
/// branch: the kernel's per-tree-edge expansion, shared by every walker
/// (the last child of a node skips this and consumes the parent's box
/// directly via [`SearchSpace::step`]).
pub(crate) fn expand_child<S: SearchSpace>(
    space: &mut S,
    pool: &mut TmPool,
    parent: &BoxedTm,
    k: usize,
) -> (BoxedTm, StepRecord) {
    let mut child = pool.fork_child(parent);
    let record = space.step(&mut child, k);
    (child, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_record_events_and_counts() {
        let p = ProcessId(1);
        let call = StepRecord::Call(Invocation::TryCommit, Response::Committed);
        assert_eq!(call.event_count(), 2);
        assert!(call.invoked_tryc());
        assert_eq!(call.response(), Some(Response::Committed));
        let [a, b] = call.events(p);
        assert_eq!(
            a.and_then(|e| e.as_invocation()),
            Some(Invocation::TryCommit)
        );
        assert_eq!(b.and_then(|e| e.as_response()), Some(Response::Committed));

        let blocked = StepRecord::Polled(None);
        assert_eq!(blocked.event_count(), 0);
        assert_eq!(blocked.events(p), [None, None]);
        assert!(!blocked.invoked_tryc());

        // A poll delivering a commit is not a tryC *invocation*.
        let delivered = StepRecord::Polled(Some(Response::Committed));
        assert_eq!(delivered.event_count(), 1);
        assert!(!delivered.invoked_tryc());
    }
}
