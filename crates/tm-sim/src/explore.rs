//! Bounded-exhaustive interleaving exploration (the model checker).
//!
//! Theorem 3 claims **every** finite history of `Fgp` is opaque. For an
//! automaton-level ∀-claim the executable analogue is bounded-exhaustive
//! checking: enumerate *all* schedules of `n` deterministic clients up to
//! a depth and verify every produced history. Acceptance uses the fast
//! commit-order certifier and falls back to the exact witness search on
//! rejection, so every reported violation is definitive.
//!
//! The explorer has two walks over one search space, both sequential.
//! [`explore_with`], the production entry point, takes the optimal-DPOR
//! walk on a fault-free run and the exhaustive walk when
//! [`ExploreConfig::faults`] is enabled. [`explore_schedules`] takes the
//! exhaustive walk on a fault-free run: it is the reference the reduced
//! walk is tested against, and it reports exactly what
//! [`explore_schedules_naive`] reports.
//!
//! # Prefix-sharing DFS
//!
//! Schedules of length `d` over `n` processes form the complete `n`-ary
//! tree of depth `d`; two schedules with a common prefix reach the *same*
//! intermediate state. The explorer therefore walks that tree depth-first
//! and extends the parent state by **one step per edge** instead of
//! replaying each of the `n^d` schedules from scratch:
//!
//! * the TM branches via [`tm_stm::SteppedTm::fork`] (all but a node's
//!   last child fork; the last child consumes the parent's instance, so a
//!   binary tree performs about one fork per node, not two);
//! * the client that stepped backtracks via an O(1)
//!   [`Client::mark`]/[`Client::restore`] snapshot;
//! * the commit-order certifier advances one event at a time and unwinds
//!   through [`IncrementalChecker::rollback`], so a rejection latches at
//!   the **shortest failing prefix** of the branch (reported per
//!   violation in [`Violation::fast_reject_at`]).
//!
//! Per-edge cost is thereby amortized O(1) TM/client/certifier work plus
//! one TM fork, versus the naive enumerator's O(depth) replay and
//! O(history) re-certification per schedule — the asymptotic gap grows
//! linearly with depth. The naive enumerator survives as
//! [`explore_schedules_naive`] for differential testing; it and
//! [`explore_schedules`] produce *identical* [`Exploration`] reports
//! (same schedule counts, fallback counts and violation lists, in the
//! same lexicographic order).
//!
//! # Optimal DPOR: one schedule per equivalence class
//!
//! Most interleavings differ only by swaps of **independent** steps and
//! therefore carry the same verdict; the paper's quantitative results
//! are themselves stated per Mazurkiewicz equivalence class. A
//! fault-free [`explore_with`] run visits **one representative schedule
//! per class** instead of every member, using the optimal dynamic
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
//! reports is one the exhaustive explorer reports verbatim.
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
//! **Composition.** With [`ExploreConfig::faults`] enabled, the run
//! takes the exhaustive walk (see [`explore_with`]). A [`Budget`] cap
//! unwinds either walk into a partial report.
//!
//! # Panic containment
//!
//! A TM that panics mid-step does not take the explorer down: the walk
//! runs under one `catch_unwind`, and a panic ends it with a partial
//! report — [`Exploration::exhausted`] set to `"TM step panicked"`
//! ([`BudgetMeter::trip_external`]) — carrying the schedules certified
//! so far. The walk is a single thread, so containment costs nothing
//! per step.
//!
//! # The exploration kernel
//!
//! This explorer is one of two instantiations of the shared search
//! kernel in [`crate::engine`] (the other is the liveness checker,
//! [`mod@crate::livecheck`]): its `ScheduleSpace` implements the kernel's
//! [`SearchSpace`] contract (one stepper, client mark/restore, certifier
//! checkpoint/rollback), TM branching runs through the shared
//! [`tm_stm::TmPool`], and the happens-before trace and wakeup trees
//! live in the kernel's reduction layer.

use tm_core::{Event, History, ProcessId};
use tm_safety::{check_opacity, Checkpoint, IncrementalChecker, Mode, SafetyVerdict};
use tm_stm::{BoxedTm, Outcome, StepFootprint, SteppedTm, TmPool};
use tm_telemetry::{Counter, Json, Telemetry, Timer};

use crate::engine::budget::{Budget, BudgetMeter};
use crate::engine::reduction::{self, OptimalDpor, WakeupTree};
use crate::engine::space::{
    emit_trace, expand_child, step_process, SearchSpace, StepRecord, TraceWitness,
};
use crate::faults::{Fault, FaultConfig, FaultPlan, FaultState};
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
    /// The concrete fault placements of this branch (`at_step` indexes
    /// into `schedule`, which carries process steps only). Empty for a
    /// fault-free run.
    pub faults: FaultPlan,
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
    /// Processes a `crash(p)` transition was exercised for (bitmask; 0
    /// for a fault-free run).
    pub crash_injected: u64,
    /// Processes a `parasite(p)` transition was exercised for (bitmask).
    pub parasite_injected: u64,
}

impl Exploration {
    /// Whether every explored history was opaque.
    pub fn all_opaque(&self) -> bool {
        self.violations.is_empty()
    }

    /// The *report* portion of the exploration — schedule count, exact
    /// fallback count and violations. Search diagnostics (the schedule
    /// log) are excluded: two explorations "report identically" iff
    /// these match.
    pub fn report(&self) -> (usize, usize, &[Violation]) {
        (self.schedules, self.exact_fallbacks, &self.violations)
    }
}

/// Configuration for [`explore_with`]: one sequential walk to `depth`,
/// optimal DPOR on a fault-free run and exhaustive under
/// [`ExploreConfig::faults`] (see the module docs).
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Schedule length to explore.
    pub depth: usize,
    /// Record every executed schedule into
    /// [`Exploration::schedule_log`].
    pub record_schedules: bool,
    /// Fault quantification (see the module docs): with a non-trivial
    /// config, `crash(p)` / `parasite(p)` become scheduler-level
    /// transitions of the search, exhaustively explored like any process
    /// step. Each fault transition consumes one depth unit and leaves
    /// the TM untouched; every reported [`Violation`] carries the
    /// concrete [`FaultPlan`] its branch chose. With
    /// [`FaultConfig::none()`] (the default) the run is fault-free and
    /// takes the optimal-DPOR walk.
    pub faults: FaultConfig,
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
    /// The production walk to `depth`: fault-free, so optimal DPOR —
    /// `schedules` then counts *executed* schedules, one per
    /// Mazurkiewicz class of the TM's conflict oracle
    /// ([`tm_stm::SteppedTm::step_footprint`]), typically orders of
    /// magnitude below `n^depth`. The verdict (`all_opaque`, and every
    /// violation actually reported) is the exhaustive walk's: each
    /// reported violation is a real explored schedule that
    /// [`explore_schedules`] also reports. For TMs that keep the
    /// conservative default oracle every step conflicts, and the walk
    /// soundly degenerates to full exploration.
    pub fn new(depth: usize) -> Self {
        ExploreConfig {
            depth,
            record_schedules: false,
            faults: FaultConfig::none(),
            budget: Budget::unlimited(),
            telemetry: Telemetry::off(),
        }
    }

    /// The identity: the explorer's one walk is already sequential. Kept
    /// because existing callers (tmbench) still chain it.
    pub fn sequential(self) -> Self {
        self
    }

    /// The identity: optimal DPOR is already the fault-free walk. Kept
    /// because existing callers (tmbench) still chain it.
    pub fn with_optimal_dpor(self) -> Self {
        self
    }

    /// Records executed schedules into [`Exploration::schedule_log`].
    pub fn with_schedule_log(mut self) -> Self {
        self.record_schedules = true;
        self
    }

    /// Quantifies over crash/parasitic faults ([`FaultConfig`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
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

/// The safety explorer's instantiation of the kernel's [`SearchSpace`]:
/// a schedule-tree configuration — client cursors, the schedule path,
/// the growing history, and the incremental opacity certifier whose
/// verdict latches on rejection. The TM itself is threaded through the
/// walk separately (ownership moves along tree edges).
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
    /// Crash/parasitic masks of the current branch. Mutated only along
    /// fault edges (saved/restored by the walker, not via [`Self::Mark`]
    /// — process steps never touch it).
    fstate: FaultState,
    /// The fault transitions taken along the current branch, in order —
    /// the concrete [`FaultPlan`] a violation on this branch reports.
    fault_log: Vec<Fault>,
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
            fstate: FaultState::none(),
            fault_log: Vec::new(),
        }
    }
}

impl SearchSpace for ScheduleSpace {
    type Mark = ScheduleMark;

    fn width(&self) -> usize {
        self.clients.len()
    }

    fn mark(&mut self, k: usize) -> ScheduleMark {
        ScheduleMark {
            checkpoint: self.checker.checkpoint(),
            history_len: self.history.len(),
            client: self.clients[k].mark(),
        }
    }

    fn step(&mut self, tm: &mut BoxedTm, k: usize) -> StepRecord {
        self.steps += 1;
        let started = self.telemetry.timer_start();
        self.path.push(k);
        let parasitic = self.fstate.parasitic & (1 << k) != 0;
        let record = step_process(tm, &mut self.clients, k, parasitic, &mut self.history);
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

    fn rewind(&mut self, k: usize, mark: ScheduleMark) {
        self.path.pop();
        self.history.truncate(mark.history_len);
        self.checker.rollback(mark.checkpoint);
        self.clients[k].restore(mark.client);
    }
}

/// Certify a completed schedule exactly as the naive enumerator does:
/// count it, and when the (latched) fast certifier rejected somewhere on
/// this branch, fall back to the exact checker on the full history.
fn certify_leaf(space: &ScheduleSpace, out: &mut Exploration) {
    out.schedules += 1;
    if space.log_schedules {
        out.schedule_log
            .push(space.path.iter().map(|&k| k as u8).collect());
    }
    let Some(reject) = space.checker.violation() else {
        return;
    };
    let (path, history) = (&space.path, &space.history);
    out.exact_fallbacks += 1;
    let fast_reject_at = reject.position;
    let mut full = History::new();
    for &event in history {
        full.push(event);
    }
    match check_opacity(&full) {
        Ok(SafetyVerdict::Satisfied { .. }) => {}
        Ok(SafetyVerdict::Violated) => {
            out.violations.push(Violation {
                schedule: path.iter().copied().map(ProcessId).collect(),
                history: full,
                detail: "no legal sequential witness exists".to_string(),
                fast_reject_at,
                faults: FaultPlan::from_faults(space.fault_log.clone()),
            });
        }
        Err(e) => {
            out.violations.push(Violation {
                schedule: path.iter().copied().map(ProcessId).collect(),
                history: full,
                detail: format!("exact check infeasible: {e}"),
                fast_reject_at,
                faults: FaultPlan::from_faults(space.fault_log.clone()),
            });
        }
    }
}

/// The per-path mutable state of the depth-first walk. The TM is owned
/// and consumed per call (the last child of a node steals the parent's
/// instance); everything else unwinds in place through the
/// [`ScheduleSpace`] marks.
struct Walk<'a> {
    /// The kernel search space: clients, path, history, certifier.
    space: &'a mut ScheduleSpace,
    out: &'a mut Exploration,
    /// The shared fork/refork recycling pool ([`tm_stm::TmPool`]): left
    /// non-recycling for TMs without the `refork_from` fast path
    /// (probed once per exploration), so they pay no per-edge
    /// pop/refork-attempt overhead.
    pool: &'a mut TmPool,
    /// Fault transitions (`crash(p)` / `parasite(p)`) the walk took — a
    /// plain tally, flushed once per run as
    /// [`tm_telemetry::Counter::FaultsInjected`].
    faults_injected: u64,
    /// The run's fault quantification ([`ExploreConfig::faults`]).
    faults: FaultConfig,
    /// The run's budget meter: one check per tree node, short-circuited
    /// to a load-free `true` when unlimited.
    meter: &'a BudgetMeter,
}

/// Exhaustive depth-first walk of the schedule tree below the current
/// path, certifying each leaf at depth `remaining == 0`. Returns the TM
/// box for recycling.
///
/// With faults enabled ([`Walk::faults`]) each node additionally
/// branches on every `crash(p)` / `parasite(p)` the config still allows:
/// fault edges consume one depth unit and leave the TM and the schedule
/// path untouched, and crashed processes drop out of the eligible set.
/// With `FaultConfig::none()` the node shape — including which child
/// consumes the parent's box — is exactly the fault-free walk.
fn walk_tree(walk: &mut Walk<'_>, mut tm: BoxedTm, remaining: usize) -> BoxedTm {
    // Budget gate before any expansion: a tripped meter unwinds the
    // whole walk into a partial report ([`Exploration::exhausted`]).
    if !walk.meter.note_state() {
        return tm;
    }
    if remaining == 0 {
        certify_leaf(walk.space, walk.out);
        walk.meter.note_schedule();
        return tm;
    }
    let n = walk.space.width();
    // The fault transitions available at this node, in canonical order
    // (crashes ascending, then parasitic turns ascending) — empty in
    // fault-free runs, so the node shape below degenerates exactly to
    // the fault-free walk.
    let crashed = walk.space.fstate.crashed;
    let mut fault_edges: Vec<Fault> = Vec::new();
    if walk.faults.enabled() {
        let at_step = walk.space.path.len();
        for k in 0..n {
            if walk.space.fstate.can_crash(&walk.faults, k) {
                let process = ProcessId(k);
                fault_edges.push(Fault::Crash { process, at_step });
            }
        }
        for k in 0..n {
            if walk.space.fstate.can_parasite(&walk.faults, k) {
                let process = ProcessId(k);
                fault_edges.push(Fault::Parasitic { process, at_step });
            }
        }
    }
    let last = (0..n)
        .rev()
        .find(|k| crashed & (1 << k) == 0)
        .expect("a live step is always possible");
    // With fault edges pending, every process child forks and the *last
    // fault edge* consumes the parent's box instead.
    let consume_last = fault_edges.is_empty();
    for k in 0..n {
        if crashed & (1 << k) != 0 || (consume_last && k == last) {
            continue;
        }
        let mark = walk.space.mark(k);
        let (child, _) = expand_child(walk.space, walk.pool, &tm, k);
        let recycled = walk_tree(walk, child, remaining - 1);
        walk.pool.put_back(recycled);
        walk.space.rewind(k, mark);
    }
    if consume_last {
        // The last child consumes the parent's TM instance: no fork.
        // (Deferring this edge's rollback to an ancestor is semantically
        // sound but measurably slower — it trades the undo log's tight
        // LIFO locality for large cold sweeps.)
        let mark = walk.space.mark(last);
        walk.space.step(&mut tm, last);
        let recycled = walk_tree(walk, tm, remaining - 1);
        walk.space.rewind(last, mark);
        return recycled;
    }
    // Fault branches. A fault edge mutates only the fault state and the
    // per-branch fault log: the TM is untouched (a crash is the
    // *absence* of future steps; a parasitic turn reroutes the client at
    // its next `tryC`), so the box forks unchanged and the last fault
    // edge consumes it.
    let count = fault_edges.len();
    for (i, fault) in fault_edges.into_iter().enumerate() {
        let saved = walk.space.fstate;
        let k = fault.process().0;
        match fault {
            Fault::Crash { .. } => {
                walk.space.fstate.crash(k);
                walk.out.crash_injected |= 1 << k;
            }
            Fault::Parasitic { .. } => {
                walk.space.fstate.parasite(k);
                walk.out.parasite_injected |= 1 << k;
            }
        }
        walk.faults_injected += 1;
        walk.space.fault_log.push(fault);
        if i + 1 == count {
            tm = walk_tree(walk, tm, remaining - 1);
        } else {
            let child = walk.pool.fork_child(&tm);
            let recycled = walk_tree(walk, child, remaining - 1);
            walk.pool.put_back(recycled);
        }
        walk.space.fault_log.pop();
        walk.space.fstate = saved;
    }
    tm
}

/// Optimal-DPOR walk (see the module docs): at each node, explore
/// exactly the branches of its wakeup tree — full reversal sequences
/// race detection inserted, minus those the weak-initial sleep guard
/// proved covered — seeding one free representative only when the tree
/// is empty. `wut` is the pending subtree the parent's popped edge
/// handed down. Returns the TM box for recycling.
fn walk_optimal(
    walk: &mut Walk<'_>,
    opt: &mut OptimalDpor,
    tm: BoxedTm,
    remaining: usize,
    mut sleep: u64,
    wut: WakeupTree,
) -> BoxedTm {
    if !walk.meter.note_state() {
        return tm;
    }
    let n = walk.space.width();
    let depth = opt.core.steps.len();
    opt.push_feet((0..n).map(|q| reduction::next_footprint(&tm, &walk.space.clients, q)));
    // Race detection at *every* node for *every* process's next step,
    // leaves included: at the depth frontier the racing step never
    // executes. Rescans happen exactly for the process that stepped and
    // on a state-induced footprint change, and start at that process's
    // causal floor; every other process checks the newest step only.
    // Reversals insert into *ancestor* nodes' wakeup trees (this node's
    // own tree is pushed below, after detection).
    opt.detect_node_races();
    if remaining == 0 {
        opt.pop_feet();
        certify_leaf(walk.space, walk.out);
        walk.meter.note_schedule();
        return tm;
    }
    opt.push_node(sleep, wut);
    // Free seeding: only a node no pending reversal targets picks an
    // arbitrary first representative. A node entered with a non-empty
    // pending tree explores exactly those branches.
    if opt.wut_is_empty(depth) {
        if let Some(first) = (0..n).find(|q| sleep & (1 << q) == 0) {
            opt.seed(depth, first);
        }
    }
    while let Some(edge) = opt.pop_edge(depth) {
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
            opt.redundant += 1;
            continue;
        }
        let mark = walk.space.mark(k);
        let (child, _) = expand_child(walk.space, walk.pool, &tm, k);
        let child_sleep = opt.child_sleep(depth, sleep, k);
        opt.core.push(k, opt.feet(depth)[k]);
        let recycled = walk_optimal(walk, opt, child, remaining - 1, child_sleep, edge.sub);
        walk.pool.put_back(recycled);
        opt.core.pop();
        walk.space.rewind(k, mark);
        opt.sleep_child(depth, k);
        sleep |= 1 << k;
    }
    opt.pop_node();
    tm
}

/// Explores the schedules of length `config.depth` over `scripts.len()`
/// processes against TMs built by `factory` (called once per run, plus
/// once per streamed violation witness; the tree branches via
/// [`tm_stm::SteppedTm::fork`]), checking opacity of every produced
/// history — and, because the certifier is incremental and eager, of
/// every prefix. A fault-free run takes the optimal-DPOR walk, one
/// schedule per equivalence class. A run with [`ExploreConfig::faults`]
/// enabled takes the exhaustive walk: the only sound footprint for a
/// `crash(p)` / `parasite(p)` transition is the global one (a crash
/// reshapes every process's future), under which the race analysis
/// would demand every reversal anyway.
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
    explore(factory, scripts, config, config.faults.enabled())
}

/// Explores every schedule of length `depth` over `scripts.len()`
/// processes, fault-free: the exhaustive walk, whose reports are
/// identical to the naive enumerator's. The reference [`explore_with`]'s
/// reduced walk is tested against.
pub fn explore_schedules<F>(factory: F, scripts: &[ClientScript], depth: usize) -> Exploration
where
    F: Fn() -> BoxedTm,
{
    explore(factory, scripts, &ExploreConfig::new(depth), true)
}

/// The one driver behind [`explore_with`] and [`explore_schedules`]:
/// runs the exhaustive walk when `exhaustive` holds and the optimal-DPOR
/// walk otherwise, then flushes the report into the telemetry handle.
fn explore<F>(
    factory: F,
    scripts: &[ClientScript],
    config: &ExploreConfig,
    exhaustive: bool,
) -> Exploration
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
    // Probe refork support once ([`TmPool::for_tm`]): TMs without it
    // keep the spare pool empty rather than paying a failed dynamic
    // refork per tree edge.
    let mut pool = TmPool::for_tm(&tm).instrument(&telemetry);
    // The run's budget meter. Its verdict is read once at the end: a
    // tripped cap makes the report partial.
    let meter = BudgetMeter::new(config.budget);
    // Crashing every process trivially halts the system, so the crash
    // budget is clamped to n-1: the adversary gains nothing beyond it
    // and the walk always has a live step to take.
    let faults = FaultConfig {
        max_crashes: config.faults.max_crashes.min(n.saturating_sub(1)),
        ..config.faults
    };
    let mut space = ScheduleSpace::new(
        scripts,
        config.depth,
        telemetry.clone(),
        config.record_schedules,
    );
    let mut out = Exploration::default();
    let mut walk = Walk {
        space: &mut space,
        out: &mut out,
        pool: &mut pool,
        faults_injected: 0,
        faults,
        meter: &meter,
    };
    let mut opt = OptimalDpor::new(n);
    {
        let _span = telemetry.phase("explore", "walk");
        // A panicking TM step unwinds out of the walk; the schedules
        // certified so far still make a sound partial report.
        let walked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if exhaustive {
                walk_tree(&mut walk, tm, config.depth);
            } else {
                walk_optimal(
                    &mut walk,
                    &mut opt,
                    tm,
                    config.depth,
                    0,
                    WakeupTree::default(),
                );
            }
        }));
        if walked.is_err() {
            meter.trip_external();
        }
    }
    telemetry.add(Counter::FaultsInjected, walk.faults_injected);
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
        // One `fault_injected` event per distinct fault transition the
        // search exercised — a compact, deterministic digest of the
        // adversary moves this run quantified over.
        for k in 0..n {
            if out.crash_injected & (1 << k) != 0 {
                telemetry.event(
                    "fault_injected",
                    &[
                        ("engine", Json::str("explore")),
                        ("kind", Json::str("crash")),
                        ("process", Json::Int(k as i64)),
                    ],
                );
            }
        }
        for k in 0..n {
            if out.parasite_injected & (1 << k) != 0 {
                telemetry.event(
                    "fault_injected",
                    &[
                        ("engine", Json::str("explore")),
                        ("kind", Json::str("parasite")),
                        ("process", Json::Int(k as i64)),
                    ],
                );
            }
        }
        for (idx, v) in out.violations.iter().take(8).enumerate() {
            let mut fields = vec![
                ("engine", Json::str("explore")),
                (
                    "schedule",
                    Json::Arr(v.schedule.iter().map(|p| Json::Int(p.0 as i64)).collect()),
                ),
                ("detail", Json::str(v.detail.as_str())),
            ];
            if !v.faults.is_empty() {
                fields.push(("faults", v.faults.to_json()));
            }
            telemetry.event("violation", &fields);
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
                &v.faults,
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

/// The seed enumerator: replays every one of the `processes^depth`
/// schedules from scratch and certifies each complete history from event
/// zero. Quadratically wasteful — kept (not exported to the prelude) as
/// the differential-testing baseline for [`explore_with`].
pub fn explore_schedules_naive<F>(factory: F, scripts: &[ClientScript], depth: usize) -> Exploration
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
                        faults: FaultPlan::none(),
                    });
                }
                Err(e) => {
                    exploration.violations.push(Violation {
                        schedule: schedule.iter().copied().map(ProcessId).collect(),
                        history: history.clone(),
                        detail: format!("exact check infeasible: {e}"),
                        fast_reject_at,
                        faults: FaultPlan::none(),
                    });
                }
            }
        }

        // Next schedule in lexicographic order.
        let mut i = depth;
        loop {
            if i == 0 {
                return exploration;
            }
            i -= 1;
            schedule[i] += 1;
            if schedule[i] < n {
                break;
            }
            schedule[i] = 0;
        }
    }
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
        step_process(&mut tm, &mut clients, k as usize, false, &mut history);
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
            step_process(&mut tm, &mut clients, k, false, &mut history);
        }

        canonical.insert(lex_normal_form(&schedule, &feet));

        // Next schedule in lexicographic order.
        let mut i = depth;
        loop {
            if i == 0 {
                return canonical.len();
            }
            i -= 1;
            schedule[i] += 1;
            if schedule[i] < n {
                break;
            }
            schedule[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_automata::FgpVariant;
    use tm_core::TVarId;
    use tm_stm::{Dstm, FgpTm, GlobalLock, NOrec, Ostm, TinyStm, Tl2};

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

    type Factory = Box<dyn Fn() -> BoxedTm>;

    #[test]
    fn every_catalog_tm_is_opaque_at_depth_eight() {
        let factories: Vec<(&str, Factory)> = vec![
            ("tl2", Box::new(|| Box::new(Tl2::new(2, 1)) as BoxedTm)),
            ("tiny", Box::new(|| Box::new(TinyStm::new(2, 1)) as BoxedTm)),
            ("norec", Box::new(|| Box::new(NOrec::new(2, 1)) as BoxedTm)),
            ("ostm", Box::new(|| Box::new(Ostm::new(2, 1)) as BoxedTm)),
            ("dstm", Box::new(|| Box::new(Dstm::new(2, 1)) as BoxedTm)),
            (
                "global-lock",
                Box::new(|| Box::new(GlobalLock::new(2, 1)) as BoxedTm),
            ),
        ];
        for (name, factory) in factories {
            let result = explore_schedules(&*factory, &two_increments(), 8);
            assert!(result.all_opaque(), "{name}: {:?}", result.violations);
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
    fn dfs_matches_naive_exactly_on_an_opaque_tm() {
        let scripts = two_increments();
        let naive = explore_schedules_naive(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            8,
        );
        let dfs = explore_schedules(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            8,
        );
        assert_eq!(naive, dfs);
    }

    #[test]
    fn dfs_matches_naive_exactly_on_the_buggy_tm() {
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::new(vec![
                crate::workload::PlannedOp::Read(X),
                crate::workload::PlannedOp::Write(X, 5),
            ]),
        ];
        let naive = explore_schedules_naive(|| tm_stm::literal_fgp(2, 1), &scripts, 9);
        let dfs = explore_schedules(|| tm_stm::literal_fgp(2, 1), &scripts, 9);
        assert!(!naive.all_opaque());
        assert_eq!(naive, dfs);
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

    #[test]
    fn dpor_still_catches_the_buggy_tm_with_a_subset_of_violations() {
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::new(vec![
                crate::workload::PlannedOp::Read(X),
                crate::workload::PlannedOp::Write(X, 5),
            ]),
        ];
        let full = explore_schedules(|| tm_stm::literal_fgp(2, 1), &scripts, 9);
        let dpor = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(9),
        );
        assert!(!full.all_opaque() && !dpor.all_opaque());
        // Every DPOR violation is a real schedule the exhaustive explorer
        // also reports, verbatim.
        for v in &dpor.violations {
            assert!(full.violations.contains(v), "unknown violation {v:?}");
        }
    }

    #[test]
    fn dpor_degenerates_to_full_exploration_for_conservative_oracles() {
        // The global-lock TM's audited oracle conflicts on every pair,
        // so DPOR must visit every schedule — same report as plain DFS.
        let scripts = two_increments();
        let full = explore_schedules(|| Box::new(GlobalLock::new(2, 1)), &scripts, 8);
        let dpor = explore_with(
            || Box::new(GlobalLock::new(2, 1)),
            &scripts,
            &ExploreConfig::new(8),
        );
        assert_eq!(full, dpor);
    }
}
