//! Bounded-exhaustive interleaving exploration (the model checker).
//!
//! Theorem 3 claims **every** finite history of `Fgp` is opaque. For an
//! automaton-level ∀-claim the executable analogue is bounded-exhaustive
//! checking: enumerate *all* schedules of `n` deterministic clients up to
//! a depth and verify every produced history. Acceptance uses the fast
//! commit-order certifier and falls back to the exact witness search on
//! rejection, so every reported violation is definitive.
//!
//! The explorer has one walk and one oracle. [`explore_with`], the
//! production entry point, takes the sequential optimal-DPOR walk.
//! [`explore_schedules`] is the from-scratch enumerator it is tested
//! against: it replays every schedule on a fresh TM and certifies each
//! history from event zero, sharing none of the walk's machinery.
//!
//! The explorer quantifies over schedules only. The paper's crashed and
//! parasitic processes define its *liveness* model, and only the
//! liveness checker ([`mod@crate::livecheck`]) branches on them. A crash
//! adds nothing to safety: the history it leaves is a prefix of one the
//! explorer already walks, and opacity is prefix-closed.
//!
//! # Prefix-sharing DFS
//!
//! Schedules of length `d` over `n` processes form the complete `n`-ary
//! tree of depth `d`; two schedules with a common prefix reach the *same*
//! intermediate state. The walk therefore goes depth-first through the
//! part of that tree it visits and extends the parent state by **one
//! step per edge** instead of replaying each schedule from scratch:
//!
//! * the TM branches via [`tm_stm::SteppedTm::fork`], recycled through
//!   the shared [`tm_stm::TmPool`];
//! * the client that stepped backtracks via an O(1)
//!   [`Client::mark`]/[`Client::restore`] snapshot;
//! * the commit-order certifier advances one event at a time and unwinds
//!   through [`IncrementalChecker::rollback`], so a rejection latches at
//!   the **shortest failing prefix** of the branch (reported per
//!   violation in [`Violation::fast_reject_at`]).
//!
//! Per-edge cost is thereby amortized O(1) TM/client/certifier work plus
//! one TM fork, versus the enumerator's O(depth) replay and O(history)
//! re-certification per schedule. The enumerator stays the oracle
//! precisely because it shares neither the stepper, the certifier
//! rollback nor the pool with the walk: a fault in any of them shows up
//! on one side of the differential tests only.
//!
//! # Optimal DPOR: one schedule per equivalence class
//!
//! Most interleavings differ only by swaps of **independent** steps and
//! therefore carry the same verdict; the paper's quantitative results
//! are themselves stated per Mazurkiewicz equivalence class. An
//! [`explore_with`] run visits **one representative schedule per
//! class** instead of every member, using the optimal dynamic
//! partial-order reduction of Abdulla, Aronis, Jonsson and Sagonas:
//! wakeup trees of race reversals over sleep sets.
//!
//! **The independence relation.** Per-TM, via the conflict oracle
//! [`tm_stm::SteppedTm::step_footprint`]: before a step executes, the TM
//! declares the shared state it may touch — per-variable read/write
//! masks (including read-set revalidation and abort-time rollback or
//! lock-release sets), global-channel read/write bits (clocks, sequence
//! numbers, age counters, cross-process dooming), and whether the step
//! may complete a transaction now; the driver adds whether it begins
//! one. Two next-steps by different processes are independent iff their
//! footprints do not [`tm_stm::StepFootprint::conflicts`]. The oracle's
//! audited contract is that independent steps *commute*: either order
//! yields the same TM state and responses, and client state is
//! per-process, so the clients commute trivially.
//!
//! **Verdict invariance.** The begin/end flags extend commutation from
//! states to **verdicts**: a swap of two interior op steps preserves
//! per-process event sequences, read values, and every transaction's
//! real-time precedence, so the opacity verdict of each leaf history —
//! and of every extension — is class-invariant. (A transaction-*ending*
//! step swapped with a transaction-*beginning* one would reorder a
//! completion past a start and could relax real-time precedence, so
//! such pairs are declared conflicting.) TMs that keep the conservative
//! default oracle conflict on every pair and soundly degenerate to full
//! exploration — the blocking global-lock TM does so by audit, not by
//! default.
//!
//! **The walk.** Each executed schedule carries vector clocks over the
//! conflict relation. At every node — leaves included, since at the
//! depth frontier the racing "second" step never executes — the walk
//! checks each process's next step against the trace for *races*:
//! conflicting earlier steps not already ordered before it. Each race
//! yields a **reversal sequence** (the steps after the earlier one that
//! do not depend on it, then the racing step), inserted into the
//! **wakeup tree** of the earlier step's node unless a weak-initial
//! sleep guard proves an explored or pending branch already covers it.
//! A node explores exactly its tree: the walk pops the first edge,
//! executes it, and hands the edge's subtree to the child, seeding one
//! free representative only at nodes whose tree is empty. A sleeping
//! process — one an explored sibling already covers — stays asleep in a
//! child while its next step is independent of the step just taken.
//!
//! **What the bookkeeping costs.** Race detection and the clock join of
//! each executed step visit only the steps above a process's *causal
//! floor* — the oldest step, by any other process, not yet in the causal
//! past of its last step, read off that step's clock — and the join also
//! skips steps the clock being built already covers. A process whose
//! footprint is unchanged and that did not just step checks the newest
//! step only. Reversal sequences are built in one reusable buffer and
//! allocate only when appended to a tree as a fresh chain (see
//! `engine::reduction`'s module docs).
//!
//! **Soundness of the certified verdict.** Every schedule of the full
//! tree is reachable from an explored one by swapping adjacent
//! independent steps, each swap preserves the leaf verdict (above), and
//! the incremental certifier never accepts a violating history — so
//! `all_opaque` is preserved exactly, and every violation the walk
//! reports is one [`explore_schedules`] reports verbatim.
//!
//! **Optimality, with two caveats.** The walk never starts a schedule it
//! abandons as redundant: an edge whose head has fallen asleep is
//! dropped before any of its steps execute. Executed schedules are
//! therefore pairwise inequivalent (asserted via
//! [`schedule_normal_form`]). Both caveats come from measuring against
//! *this* engine rather than the paper's abstract setting. First, the
//! classic theorem ("exactly one execution per Mazurkiewicz class")
//! assumes a static independence relation; our footprints are
//! state-dependent, so an inserted reversal can lose its justifying
//! conflict by the time it is replayed and is then dropped, asleep, at
//! pop time (see `engine::reduction`'s module docs). Second, at the
//! bounded-depth frontier the one-step race lookahead lets one executed
//! schedule cover truncated neighbour classes it never runs. The class
//! count from [`mazurkiewicz_classes`] is thus a ceiling, not an
//! equality.
//!
//! **Composition.** A [`Budget`] cap unwinds the walk into a partial
//! report.
//!
//! # Panic containment
//!
//! A TM that panics mid-step does not take the explorer down: the walk
//! runs under one `catch_unwind`, and a panic ends it with a partial
//! report — [`Exploration::exhausted`] set to `"TM step panicked"`
//! ([`BudgetMeter::trip_external`]) — carrying the schedules certified
//! so far. The walk is a single thread, so containment costs nothing
//! per step. The enumerator [`explore_schedules`] is a test oracle and
//! has no containment: a panicking TM panics it.
//!
//! # The exploration kernel
//!
//! This explorer is one of two instantiations of the shared search
//! kernel in [`crate::engine`] (the other is the liveness checker,
//! [`mod@crate::livecheck`]): its `ScheduleSpace` steps through the
//! kernel's one stepper and marks and rewinds each step (client
//! mark/restore, certifier checkpoint/rollback), TM branching runs
//! through the shared [`tm_stm::TmPool`], and the happens-before trace
//! and wakeup trees live in the kernel's reduction layer.

use tm_core::{Event, History, ProcessId};
use tm_safety::{check_opacity, Checkpoint, IncrementalChecker, Mode, SafetyVerdict};
use tm_stm::{BoxedTm, Outcome, StepFootprint, SteppedTm, TmPool};
use tm_telemetry::{Counter, Json, Telemetry, Timer};

use crate::engine::budget::{Budget, BudgetMeter};
use crate::engine::reduction::{self, OptimalDpor, WakeupTree};
use crate::engine::space::{emit_trace, step_process, StepRecord, TraceWitness};
use crate::faults::FaultPlan;
use crate::workload::{Client, ClientMark, ClientScript};

/// A definitive safety violation found during exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The schedule (process per step) that produced the history.
    pub schedule: Vec<ProcessId>,
    /// The offending history.
    pub history: History,
    /// Why it is not opaque.
    pub detail: String,
    /// Index of the event at which the commit-order certifier first
    /// rejected — the shortest failing prefix of this schedule's branch.
    pub fast_reject_at: usize,
}

/// Outcome of an exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exploration {
    /// Complete schedules replayed (leaves visited).
    pub schedules: usize,
    /// Histories that needed the exact checker (fast path rejected).
    pub exact_fallbacks: usize,
    /// Definitive opacity violations, in schedule-lexicographic order.
    pub violations: Vec<Violation>,
    /// Every executed schedule (process index per step), in exploration
    /// order. Populated only under
    /// [`ExploreConfig::with_schedule_log`] — an oracle/debugging aid
    /// for the optimality tests, empty otherwise.
    pub schedule_log: Vec<Vec<u8>>,
    /// `Some(reason)` when the run degraded into a **partial** report —
    /// an exploration [`Budget`] cap tripped or a TM step panicked. A
    /// partial report is a sound under-approximation: every violation
    /// it carries is real, but [`Exploration::all_opaque`] is *not* a
    /// certification (the unexplored remainder may violate).
    pub exhausted: Option<String>,
}

impl Exploration {
    /// Whether every explored history was opaque.
    pub fn all_opaque(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Configuration for [`explore_with`]: one sequential optimal-DPOR walk
/// to `depth` (see the module docs).
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Schedule length to explore.
    pub depth: usize,
    /// Record every executed schedule into
    /// [`Exploration::schedule_log`].
    pub record_schedules: bool,
    /// Resource caps ([`Budget`]): when a cap trips, the walk unwinds
    /// and the run returns a *partial* report with
    /// [`Exploration::exhausted`] set instead of running unbounded.
    /// Unlimited by default.
    pub budget: Budget,
    /// Observability handle (off by default — hooks are no-ops). See
    /// the `tm_telemetry` module docs for the schema and contract.
    pub telemetry: Telemetry,
}

impl ExploreConfig {
    /// The production walk to `depth`, optimal DPOR: `schedules` counts
    /// *executed* schedules, one per Mazurkiewicz class of the TM's
    /// conflict oracle ([`tm_stm::SteppedTm::step_footprint`]),
    /// typically orders of magnitude below `n^depth`. The verdict
    /// (`all_opaque`, and every violation actually reported) is the one
    /// over all `n^depth` schedules: each reported violation is a real
    /// explored schedule that the enumerator [`explore_schedules`] also
    /// reports. For TMs that keep the conservative default oracle every
    /// step conflicts, and the walk soundly degenerates to full
    /// exploration.
    pub fn new(depth: usize) -> Self {
        ExploreConfig {
            depth,
            record_schedules: false,
            budget: Budget::unlimited(),
            telemetry: Telemetry::off(),
        }
    }

    /// The identity: the explorer's one walk is already sequential. Kept
    /// because existing callers (tmbench) still chain it.
    pub fn sequential(self) -> Self {
        self
    }

    /// The identity: optimal DPOR is already the production walk. Kept
    /// because existing callers (tmbench) still chain it.
    pub fn with_optimal_dpor(self) -> Self {
        self
    }

    /// Records executed schedules into [`Exploration::schedule_log`].
    pub fn with_schedule_log(mut self) -> Self {
        self.record_schedules = true;
        self
    }

    /// Caps the run's resources ([`Budget`]); a tripped cap yields a
    /// partial report with [`Exploration::exhausted`] set.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a telemetry handle (counters, phase spans and — when the
    /// handle streams — NDJSON progress events).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }
}

/// The safety explorer's search state: a schedule-tree configuration —
/// client cursors, the schedule path, the growing history, and the
/// incremental opacity certifier whose verdict latches on rejection. The
/// TM itself is threaded through the walk separately (ownership moves
/// along tree edges).
struct ScheduleSpace {
    clients: Vec<Client>,
    path: Vec<usize>,
    history: Vec<Event>,
    checker: IncrementalChecker,
    telemetry: Telemetry,
    /// Steps this space executed — a plain tally, flushed once per walk
    /// as [`tm_telemetry::Counter::WorkerSteps`].
    steps: u64,
    /// Record executed schedules at the leaves
    /// ([`ExploreConfig::record_schedules`]).
    log_schedules: bool,
}

/// Everything one [`ScheduleSpace`] step mutates, for O(1) backtrack.
struct ScheduleMark {
    checkpoint: Checkpoint,
    history_len: usize,
    client: ClientMark,
}

impl ScheduleSpace {
    fn new(
        scripts: &[ClientScript],
        depth: usize,
        telemetry: Telemetry,
        log_schedules: bool,
    ) -> Self {
        ScheduleSpace {
            clients: scripts.iter().cloned().map(Client::new).collect(),
            path: Vec::with_capacity(depth),
            history: Vec::with_capacity(depth * 2),
            checker: IncrementalChecker::new(Mode::Opacity),
            telemetry,
            steps: 0,
            log_schedules,
        }
    }

    /// The branching factor: one successor per process.
    fn width(&self) -> usize {
        self.clients.len()
    }

    /// Snapshots the state `step(k)` will mutate.
    fn mark(&mut self, k: usize) -> ScheduleMark {
        ScheduleMark {
            checkpoint: self.checker.checkpoint(),
            history_len: self.history.len(),
            client: self.clients[k].mark(),
        }
    }

    /// Executes one scheduler step of process `k` against `tm`,
    /// recording its path, history and certifier effects.
    fn step(&mut self, tm: &mut BoxedTm, k: usize) -> StepRecord {
        self.steps += 1;
        let started = self.telemetry.timer_start();
        self.path.push(k);
        let record = step_process(&mut **tm, &mut self.clients, k, false, &mut self.history);
        self.telemetry.timer_stop(Timer::Step, started);
        // Feed the certifier from the record; its verdict latches on
        // rejection, so pushes after a reject are deliberate no-ops.
        match record {
            StepRecord::Polled(Some(resp)) => {
                let _ = self.checker.push(Event::response(ProcessId(k), resp));
            }
            StepRecord::Polled(None) => {}
            StepRecord::Call(inv, resp) => {
                // Fused invocation+response certification: one record
                // lookup and one undo entry, observationally identical
                // to two `push` calls.
                let _ = self.checker.push_call(ProcessId(k), inv, resp);
            }
            StepRecord::Withheld(inv) => {
                let _ = self.checker.push(Event::invocation(ProcessId(k), inv));
            }
        }
        record
    }

    /// Unwinds one [`ScheduleSpace::step`] of process `k`.
    fn rewind(&mut self, k: usize, mark: ScheduleMark) {
        self.path.pop();
        self.history.truncate(mark.history_len);
        self.checker.rollback(mark.checkpoint);
        self.clients[k].restore(mark.client);
    }
}

/// Certifies a completed schedule as [`explore_schedules`] does: count
/// it, and when the (latched) fast certifier rejected somewhere on this
/// branch, fall back to the exact checker on the full history.
fn certify_leaf(space: &ScheduleSpace, out: &mut Exploration) {
    out.schedules += 1;
    if space.log_schedules {
        out.schedule_log
            .push(space.path.iter().map(|&k| k as u8).collect());
    }
    let Some(reject) = space.checker.violation() else {
        return;
    };
    out.exact_fallbacks += 1;
    let mut history = History::new();
    for &event in &space.history {
        history.push(event);
    }
    let detail = match check_opacity(&history) {
        Ok(SafetyVerdict::Satisfied { .. }) => return,
        Ok(SafetyVerdict::Violated) => "no legal sequential witness exists".to_string(),
        Err(e) => format!("exact check infeasible: {e}"),
    };
    out.violations.push(Violation {
        schedule: space.path.iter().copied().map(ProcessId).collect(),
        history,
        detail,
        fast_reject_at: reject.position,
    });
}

/// The walk's mutable state. The TM is owned and consumed per call;
/// the search space unwinds in place through the [`ScheduleSpace`]
/// marks.
struct Walk {
    /// The kernel search space: clients, path, history, certifier.
    space: ScheduleSpace,
    out: Exploration,
    /// The shared fork/refork recycling pool ([`tm_stm::TmPool`]): left
    /// non-recycling for TMs without the `refork_from` fast path
    /// (probed once per exploration), so they pay no per-edge
    /// pop/refork-attempt overhead.
    pool: TmPool,
    /// The run's budget meter: one check per tree node, short-circuited
    /// to a load-free `true` when unlimited.
    meter: BudgetMeter,
    /// The reduction's bookkeeping: happens-before trace, per-node
    /// footprints, sleep sets and wakeup trees.
    opt: OptimalDpor,
}

/// Optimal-DPOR walk (see the module docs): at each node, explore
/// exactly the branches of its wakeup tree — full reversal sequences
/// race detection inserted, minus those the weak-initial sleep guard
/// proved covered — seeding one free representative only when the tree
/// is empty. `wut` is the pending subtree the parent's popped edge
/// handed down. Returns the TM box for recycling.
fn walk_optimal(
    walk: &mut Walk,
    tm: BoxedTm,
    remaining: usize,
    mut sleep: u64,
    wut: WakeupTree,
) -> BoxedTm {
    if !walk.meter.note_state() {
        return tm;
    }
    let n = walk.space.width();
    let depth = walk.opt.core.steps.len();
    walk.opt
        .push_feet((0..n).map(|q| reduction::next_footprint(&tm, &walk.space.clients, q)));
    // Race detection at *every* node for *every* process's next step,
    // leaves included: at the depth frontier the racing step never
    // executes. Rescans happen exactly for the process that stepped and
    // on a state-induced footprint change, and start at that process's
    // causal floor; every other process checks the newest step only.
    // Reversals insert into *ancestor* nodes' wakeup trees (this node's
    // own tree is pushed below, after detection).
    walk.opt.detect_node_races();
    if remaining == 0 {
        walk.opt.pop_feet();
        certify_leaf(&walk.space, &mut walk.out);
        walk.meter.note_schedule();
        return tm;
    }
    walk.opt.push_node(sleep, wut);
    // Free seeding: only a node no pending reversal targets picks an
    // arbitrary first representative. A node entered with a non-empty
    // pending tree explores exactly those branches.
    if walk.opt.wut_is_empty(depth) {
        if let Some(first) = (0..n).find(|q| sleep & (1 << q) == 0) {
            walk.opt.seed(depth, first);
        }
    }
    while let Some(edge) = walk.opt.pop_edge(depth) {
        let k = edge.proc as usize;
        if sleep & (1 << k) != 0 {
            // Late-detected redundancy. Footprints are state-dependent,
            // so a reversal inserted from one execution context can
            // carry a conflict (say, a `TryCommit` about to hit a
            // locked word) that has dissolved by the time the walk
            // replays the branch in the node's own context. Sleep
            // inheritance re-checks independence against the *actual*
            // footprints on this path, so an asleep head proves an
            // already-explored sibling subtree covers the whole branch,
            // sub-tree included. Drop it before executing anything: the
            // schedule never starts, so this is a redundant reversal,
            // not an abandoned execution.
            walk.opt.redundant += 1;
            continue;
        }
        let mark = walk.space.mark(k);
        let mut child = walk.pool.fork_child(&tm);
        walk.space.step(&mut child, k);
        let child_sleep = walk.opt.child_sleep(depth, sleep, k);
        walk.opt.core.push(k, walk.opt.feet(depth)[k]);
        let recycled = walk_optimal(walk, child, remaining - 1, child_sleep, edge.sub);
        walk.pool.put_back(recycled);
        walk.opt.core.pop();
        walk.space.rewind(k, mark);
        walk.opt.sleep_child(depth, k);
        sleep |= 1 << k;
    }
    walk.opt.pop_node();
    tm
}

/// Explores the schedules of length `config.depth` over `scripts.len()`
/// processes against TMs built by `factory` (called once per run, plus
/// once per streamed violation witness; the tree branches via
/// [`tm_stm::SteppedTm::fork`]), checking opacity of every produced
/// history — and, because the certifier is incremental and eager, of
/// every prefix. The run takes the optimal-DPOR walk, one schedule per
/// equivalence class, then flushes the report into the telemetry handle.
///
/// A TM that panics mid-walk ends the run in a partial report (see the
/// module docs' "Panic containment" section).
///
/// # Panics
///
/// Panics if `scripts` is empty, has more than 64 entries, or does not
/// match the factory's process count.
pub fn explore_with<F>(factory: F, scripts: &[ClientScript], config: &ExploreConfig) -> Exploration
where
    F: Fn() -> BoxedTm,
{
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    assert!(n <= 64, "process sets are a u64 bitmask");
    let tm = factory();
    assert_eq!(tm.process_count(), n, "factory must match scripts");
    let telemetry = config.telemetry.clone();
    let tm_name = tm.name();
    telemetry.event(
        "run_start",
        &[
            ("engine", Json::str("explore")),
            ("tm", Json::str(tm_name)),
            ("depth", Json::Int(config.depth as i64)),
            ("processes", Json::Int(n as i64)),
        ],
    );
    let mut walk = Walk {
        space: ScheduleSpace::new(
            scripts,
            config.depth,
            telemetry.clone(),
            config.record_schedules,
        ),
        out: Exploration::default(),
        // Probe refork support once ([`TmPool::for_tm`]): TMs without it
        // keep the spare pool empty rather than paying a failed dynamic
        // refork per tree edge.
        pool: TmPool::for_tm(&tm).instrument(&telemetry),
        // The run's budget meter. Its verdict is read once at the end: a
        // tripped cap makes the report partial.
        meter: BudgetMeter::new(config.budget),
        opt: OptimalDpor::new(n),
    };
    {
        let _span = telemetry.phase("explore", "walk");
        // A panicking TM step unwinds out of the walk; the schedules
        // certified so far still make a sound partial report.
        let walked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            walk_optimal(&mut walk, tm, config.depth, 0, WakeupTree::default())
        }));
        if walked.is_err() {
            walk.meter.trip_external();
        }
    }
    let Walk {
        space,
        mut out,
        mut pool,
        meter,
        opt,
    } = walk;
    telemetry.add(Counter::DporRaces, opt.core.races);
    telemetry.add(Counter::WakeupInserts, opt.inserts);
    telemetry.add(Counter::WakeupRedundant, opt.redundant);
    telemetry.add(Counter::WorkerSteps, space.steps);
    // Before the counter snapshot below streams ([`TmPool::flush_counters`]).
    pool.flush_counters();
    // The budget verdict, read once: any tripped cap (including a
    // panicked TM step) turns the report partial.
    out.exhausted = meter.exhausted().map(str::to_string);

    // The deterministic end-of-run flush: every count below is a fixed
    // property of the search. `SchedulesExecuted` is flushed from the
    // report itself, making "snapshot equals report" true by
    // construction.
    telemetry.add(Counter::SchedulesExecuted, out.schedules as u64);
    let pruned = (n as u128)
        .checked_pow(config.depth as u32)
        .map_or(u64::MAX, |total| {
            u64::try_from(total.saturating_sub(out.schedules as u128)).unwrap_or(u64::MAX)
        });
    telemetry.add(Counter::SchedulesPruned, pruned);
    telemetry.add(Counter::ExactFallbacks, out.exact_fallbacks as u64);
    telemetry.add(Counter::ViolationsFound, out.violations.len() as u64);
    if telemetry.streams() {
        for (idx, v) in out.violations.iter().take(8).enumerate() {
            telemetry.event(
                "violation",
                &[
                    ("engine", Json::str("explore")),
                    (
                        "schedule",
                        Json::Arr(v.schedule.iter().map(|p| Json::Int(p.0 as i64)).collect()),
                    ),
                    ("detail", Json::str(v.detail.as_str())),
                ],
            );
            // The witness timeline: a deterministic replay of the
            // violating schedule from a fresh TM, one `trace` event per
            // violation, adjacent to it in the stream.
            emit_trace(
                &telemetry,
                &TraceWitness {
                    engine: "explore",
                    kind: "violation",
                    idx,
                    cycle_start: None,
                },
                factory(),
                scripts,
                0,
                &FaultPlan::none(),
                &v.schedule,
            );
        }
        telemetry.heartbeat_now(
            "explore",
            &[
                (
                    "steps",
                    Json::Int(telemetry.value(Counter::WorkerSteps) as i64),
                ),
                ("schedules", Json::Int(out.schedules as i64)),
            ],
        );
        telemetry.emit_counters(tm_name);
        // Partial runs carry no boolean headline: an exhausted search
        // proved nothing about the schedules it never reached, so the
        // verdict says `partial` + `reason` instead of `all_opaque`
        // (consumers render it as inconclusive).
        if let Some(reason) = &out.exhausted {
            telemetry.event(
                "budget_exhausted",
                &[
                    ("engine", Json::str("explore")),
                    ("reason", Json::str(reason.as_str())),
                ],
            );
            telemetry.event(
                "verdict",
                &[
                    ("engine", Json::str("explore")),
                    ("tm", Json::str(tm_name)),
                    ("partial", Json::Bool(true)),
                    ("reason", Json::str(reason.as_str())),
                    ("schedules", Json::Int(out.schedules as i64)),
                ],
            );
        } else {
            telemetry.event(
                "verdict",
                &[
                    ("engine", Json::str("explore")),
                    ("tm", Json::str(tm_name)),
                    ("all_opaque", Json::Bool(out.all_opaque())),
                    ("schedules", Json::Int(out.schedules as i64)),
                ],
            );
        }
    }
    out
}

/// The from-scratch enumerator, the oracle [`explore_with`] is tested
/// against: replays every one of the `processes^depth` schedules on a
/// fresh TM from `factory` and certifies each complete history from
/// event zero, falling back to the exact checker on rejection. It shares
/// no stepper, certifier rollback, TM pool, budget or panic containment
/// with the walk, and streams no telemetry. Violations come in
/// schedule-lexicographic order. Quadratically wasteful by design; only
/// tests and examples call it.
///
/// # Panics
///
/// Panics if `scripts` is empty or does not match the factory's process
/// count.
pub fn explore_schedules<F>(factory: F, scripts: &[ClientScript], depth: usize) -> Exploration
where
    F: Fn() -> BoxedTm,
{
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    let mut exploration = Exploration::default();
    let mut schedule = vec![0usize; depth];

    loop {
        // Replay this schedule.
        let mut tm = factory();
        assert_eq!(tm.process_count(), n, "factory must match scripts");
        let mut clients: Vec<Client> = scripts.iter().cloned().map(Client::new).collect();
        let mut history = History::new();
        for &k in &schedule {
            let p = ProcessId(k);
            if tm.has_pending(p) {
                if let Some(resp) = tm.poll(p) {
                    history.push(Event::response(p, resp));
                    clients[k].observe(resp);
                }
                continue;
            }
            let inv = clients[k].next_invocation();
            history.push(Event::invocation(p, inv));
            match tm.invoke(p, inv) {
                Outcome::Response(resp) => {
                    history.push(Event::response(p, resp));
                    clients[k].observe(resp);
                }
                Outcome::Pending => {}
            }
        }
        exploration.schedules += 1;

        // Certify; fall back to the exact checker on rejection.
        let mut fast = IncrementalChecker::new(Mode::Opacity);
        if let Err(reject) = fast.push_all(history.iter().copied()) {
            exploration.exact_fallbacks += 1;
            let fast_reject_at = reject.position;
            match check_opacity(&history) {
                Ok(SafetyVerdict::Satisfied { .. }) => {}
                Ok(SafetyVerdict::Violated) => {
                    exploration.violations.push(Violation {
                        schedule: schedule.iter().copied().map(ProcessId).collect(),
                        history: history.clone(),
                        detail: "no legal sequential witness exists".to_string(),
                        fast_reject_at,
                    });
                }
                Err(e) => {
                    exploration.violations.push(Violation {
                        schedule: schedule.iter().copied().map(ProcessId).collect(),
                        history: history.clone(),
                        detail: format!("exact check infeasible: {e}"),
                        fast_reject_at,
                    });
                }
            }
        }

        if !next_schedule(&mut schedule, n) {
            return exploration;
        }
    }
}

/// Advances `schedule` to the next schedule over `n` processes in
/// lexicographic order; `false` once it wraps past the last one.
fn next_schedule(schedule: &mut [usize], n: usize) -> bool {
    for slot in schedule.iter_mut().rev() {
        *slot += 1;
        if *slot < n {
            return true;
        }
        *slot = 0;
    }
    false
}

/// Lexicographic normal form of the dependence DAG of one executed
/// schedule: repeatedly emit the lowest-numbered process among the steps
/// whose predecessors (program order or conflicting footprints) have all
/// been emitted — the canonical representative of the schedule's
/// Mazurkiewicz class.
fn lex_normal_form(schedule: &[usize], feet: &[StepFootprint]) -> Vec<u8> {
    let depth = schedule.len();
    let mut emitted = vec![false; depth];
    let mut normal = Vec::with_capacity(depth);
    for _ in 0..depth {
        let next = (0..depth)
            .filter(|&j| {
                !emitted[j]
                    && (0..j).all(|i| {
                        emitted[i] || (schedule[i] != schedule[j] && !feet[i].conflicts(&feet[j]))
                    })
            })
            .min_by_key(|&j| schedule[j])
            .expect("the dependence DAG always has a minimal step");
        emitted[next] = true;
        normal.push(schedule[next] as u8);
    }
    normal
}

/// The canonical (lexicographically least) representative of one
/// schedule's Mazurkiewicz class, by fresh replay against a TM built by
/// `factory`: two schedules are equivalent — reachable from each other
/// by swaps of adjacent independent steps — iff their normal forms are
/// equal. The optimality tests map the explorer's
/// [`Exploration::schedule_log`] through this and assert the images are
/// pairwise distinct: at most one executed schedule per class.
pub fn schedule_normal_form<F>(factory: F, scripts: &[ClientScript], schedule: &[u8]) -> Vec<u8>
where
    F: Fn() -> BoxedTm,
{
    let mut tm = factory();
    let mut clients: Vec<Client> = scripts.iter().cloned().map(Client::new).collect();
    let mut feet = Vec::with_capacity(schedule.len());
    let mut history = Vec::new();
    for &k in schedule {
        feet.push(reduction::next_footprint(&tm, &clients, k as usize));
        step_process(&mut *tm, &mut clients, k as usize, false, &mut history);
        history.clear();
    }
    let widened: Vec<usize> = schedule.iter().map(|&k| k as usize).collect();
    lex_normal_form(&widened, &feet)
}

/// Brute-force count of the Mazurkiewicz equivalence classes of the
/// `processes^depth` bounded schedules, under the dependence relation
/// declared by the TM's conflict oracle
/// ([`tm_stm::SteppedTm::step_footprint`]) — the independent
/// **optimality oracle** ceiling for the wakeup-tree explorer: optimal
/// DPOR executes pairwise-inequivalent schedules, so its executed count
/// is bounded above by this. (It is a ceiling, not an equality: at a
/// bounded depth the walk's one-step race lookahead lets one executed
/// schedule cover frontier-truncated neighbour classes it never runs —
/// see the optimal-DPOR section of the module docs.)
///
/// Every schedule is replayed from scratch and its per-step footprints
/// recorded; the schedule's class is represented by its lexicographic
/// normal form (the least linearization of the trace's dependence DAG,
/// computed greedily — well-defined because the commutation contract
/// makes footprints class-invariant), and distinct normal forms are
/// counted. Exponential in `depth` by construction; a differential
/// baseline for small shapes, not an explorer.
pub fn mazurkiewicz_classes<F>(factory: F, scripts: &[ClientScript], depth: usize) -> usize
where
    F: Fn() -> BoxedTm,
{
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    let mut canonical = std::collections::HashSet::new();
    let mut schedule = vec![0usize; depth];
    let mut feet: Vec<StepFootprint> = Vec::with_capacity(depth);

    loop {
        // Replay this schedule, recording each executed step's footprint
        // exactly as the DPOR walk sees it (the conservative global
        // footprint for blocked polls, the begin flag from the cursor).
        let mut tm = factory();
        let mut clients: Vec<Client> = scripts.iter().cloned().map(Client::new).collect();
        feet.clear();
        for &k in &schedule {
            feet.push(reduction::next_footprint(&tm, &clients, k));
            let mut history = Vec::new();
            step_process(&mut *tm, &mut clients, k, false, &mut history);
        }

        canonical.insert(lex_normal_form(&schedule, &feet));
        if !next_schedule(&mut schedule, n) {
            return canonical.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_automata::FgpVariant;
    use tm_core::TVarId;
    use tm_stm::FgpTm;

    const X: TVarId = TVarId(0);

    fn two_increments() -> Vec<ClientScript> {
        vec![ClientScript::increment(X), ClientScript::increment(X)]
    }

    #[test]
    fn fgp_all_histories_opaque_two_processes() {
        for variant in [FgpVariant::Strict, FgpVariant::CpOnly] {
            let result =
                explore_schedules(|| Box::new(FgpTm::new(2, 1, variant)), &two_increments(), 9);
            assert_eq!(result.schedules, 512);
            assert!(result.all_opaque(), "{variant:?}: {:?}", result.violations);
        }
    }

    #[test]
    fn literal_fgp_violations_are_found_by_exploration() {
        // The model checker finds the aborted-write leak of the literal
        // formal rules without any hand-crafted scenario: some schedule of
        // two increment clients exposes it.
        let result = explore_schedules(
            || tm_stm::literal_fgp(2, 1),
            &[
                ClientScript::increment(X),
                // A client writing a distinguishable constant.
                ClientScript::new(vec![
                    crate::workload::PlannedOp::Read(X),
                    crate::workload::PlannedOp::Write(X, 5),
                ]),
            ],
            10,
        );
        assert!(
            !result.all_opaque(),
            "expected the literal-Fgp leak to surface within depth 10"
        );
        // Violations surface their shortest failing prefix.
        for v in &result.violations {
            assert!(v.fast_reject_at < v.history.len());
        }
    }

    #[test]
    fn every_catalog_tm_is_opaque_at_depth_eight() {
        for tm in tm_stm::full_catalog(2, 1) {
            // A fork of a fresh TM is a fresh TM.
            let result = explore_schedules(|| tm.fork(), &two_increments(), 8);
            assert!(
                result.all_opaque(),
                "{}: {:?}",
                tm.name(),
                result.violations
            );
        }
    }

    #[test]
    fn three_process_exploration() {
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::increment(X),
            ClientScript::read_both(X, TVarId(1)),
        ];
        let result = explore_schedules(
            || Box::new(FgpTm::new(3, 2, FgpVariant::CpOnly)),
            &scripts,
            7,
        );
        assert_eq!(result.schedules, 3usize.pow(7));
        assert!(result.all_opaque());
    }

    #[test]
    fn dpor_reduces_schedules_and_preserves_verdicts() {
        let scripts = two_increments();
        let full = explore_schedules(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            9,
        );
        let dpor = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(9),
        );
        assert!(
            dpor.schedules < full.schedules,
            "reduction must fire: {} vs {}",
            dpor.schedules,
            full.schedules
        );
        assert_eq!(full.all_opaque(), dpor.all_opaque());
    }
}
