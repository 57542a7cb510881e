//! Bounded-exhaustive interleaving exploration (the model checker).
//!
//! Theorem 3 claims **every** finite history of `Fgp` is opaque. For an
//! automaton-level ∀-claim the executable analogue is bounded-exhaustive
//! checking: enumerate *all* schedules of `n` deterministic clients up to
//! a depth and verify every produced history. Acceptance uses the fast
//! commit-order certifier and falls back to the exact witness search on
//! rejection, so every reported violation is definitive.
//!
//! The explorer has two walkers over one search space: the plain
//! exhaustive walk (the default, and the differential oracle next to
//! [`explore_schedules_naive`]) and the optimal-DPOR walk behind
//! [`ExploreConfig::optimal_dpor`], the only reduced one.
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
//! [`explore_schedules_naive`] for differential testing; both explorers
//! produce *identical* [`Exploration`] reports (same schedule counts,
//! fallback counts and violation lists, in the same lexicographic
//! order).
//!
//! # Parallel frontier
//!
//! With [`ExploreConfig::parallel`], the tree is split at a fixed depth:
//! every node at that depth becomes a subtree root carrying its own
//! forked TM, client snapshots and a compacted clone of the certifier,
//! and the roots are distributed over a thread pool (dynamic dealing —
//! idle workers claim the next root, so skewed subtrees balance). Roots
//! are processed in lexicographic order and merged in order, keeping the
//! report deterministic regardless of thread count.
//!
//! # Digest dedup: collapsing the tree into a DAG
//!
//! Distinct schedule prefixes routinely reach the *same* configuration —
//! the same TM state, client cursors and certifier state (permuting two
//! processes' already-certified steps is the canonical case). The subtree
//! below such a configuration depends on nothing else, so with
//! [`ExploreConfig::dedup`] the explorer keys a worker-local seen set on
//!
//! `(TM state digest, client cursors, certifier digest, remaining depth)`
//!
//! and, on a hit, *replays the memoized subtree summary* (its schedule
//! count) instead of walking the subtree again — turning the schedule
//! tree into a DAG. TM digests come from the per-algorithm
//! [`tm_stm::SteppedTm::state_digest`] canonicalization contract;
//! certifier digests from
//! [`tm_safety::IncrementalChecker::state_digest`]. For TMs without a
//! fingerprint the option silently disables.
//!
//! Two rules keep the reports **byte-identical** to the exhaustive
//! explorer's (differential-tested across the catalogue):
//!
//! * a subtree is memoized only when it certified *silently* — no
//!   violations and no exact-checker fallbacks. Those rare subtrees
//!   carry path-dependent report data (violation schedules/histories,
//!   exact re-checks of the full history), so every prefix re-explores
//!   them and reports its own copy;
//! * no lookup happens while a fast-certifier rejection is latched (all
//!   leaves below it fall back to the exact checker).
//!
//! Equal keys imply equal futures: the TM digest determines every future
//! response (the fingerprint contract), cursors determine every future
//! invocation, and the certifier digest determines every future verdict —
//! so the memoized counts transfer exactly, collision risk aside (which
//! is what the differential suite guards).
//!
//! # Optimal DPOR: one schedule per equivalence class
//!
//! Most interleavings differ only by swaps of **independent** steps and
//! therefore carry the same verdict; the paper's quantitative results
//! are themselves stated per Mazurkiewicz equivalence class. With
//! [`ExploreConfig::optimal_dpor`] the explorer visits **one
//! representative schedule per class** instead of every member, using
//! the optimal dynamic partial-order reduction of Abdulla, Aronis,
//! Jonsson and Sagonas: wakeup trees of race reversals over sleep sets.
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
//! **Composition.** With [`ExploreConfig::dedup`], the seen-set key
//! adds the node's sleep set and the digest of its pending wakeup tree,
//! and a memoized summary additionally stores the union of every
//! footprint the subtree queried or executed; a hit is replayed only
//! when nothing in the current trace conflicts with that union —
//! otherwise the skipped walk could owe race reversals to the prefix.
//! (Subtree *shape* is prefix-independent: race insertions into the
//! subtree depend only on its own trace, because trace indices put
//! subtree steps after every prefix step in the max-scan and
//! happens-before chains between subtree events cannot route through
//! the prefix.) With [`ExploreConfig::parallel`], the exhaustive walk
//! enumerates the prefix tree up to the split depth — a reduced prefix
//! tree could owe reversals across the boundary — and each root runs an
//! independent wakeup-tree walk from a fresh trace, so reports stay
//! deterministic and byte-identical across thread counts. With
//! [`ExploreConfig::faults`], the run takes the exhaustive walk (see
//! [`explore_with`]).
//!
//! # The exploration kernel
//!
//! This explorer is one of two instantiations of the shared search
//! kernel in [`crate::engine`] (the other is the liveness checker,
//! [`mod@crate::livecheck`]): its `ScheduleSpace` implements the kernel's
//! [`SearchSpace`] contract (one stepper, client mark/restore, certifier
//! checkpoint/rollback, canonical configuration keys), TM branching runs
//! through the shared [`tm_stm::TmPool`], the seen set is the kernel's
//! worker-local [`crate::engine::memo::SeenSet`], the happens-before
//! trace and wakeup trees live in the kernel's reduction layer, and the
//! parallel frontier merges subtree reports deterministically via
//! [`crate::engine::frontier::distribute`].

use tm_core::{Event, History, ProcessId};
use tm_safety::{check_opacity, Checkpoint, IncrementalChecker, Mode, SafetyVerdict};
use tm_stm::{BoxedTm, Outcome, StepFootprint, SteppedTm, TmPool};
use tm_telemetry::{Counter, Json, Telemetry, Timer};

use crate::engine::budget::{Budget, BudgetMeter};
use crate::engine::frontier;
use crate::engine::memo::SeenSet;
use crate::engine::reduction::{self, OptimalDpor, WakeupTree};
use crate::engine::space::{
    emit_trace, expand_child, step_process, SearchSpace, StepRecord, TraceWitness,
};
use crate::faults::{Fault, FaultConfig, FaultPlan, FaultState};
use crate::workload::{clients_digest, Client, ClientMark, ClientScript};

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
    /// Subtrees replayed from the digest seen set (0 unless enabled).
    pub dedup_hits: usize,
    /// Every executed schedule (process index per step), in exploration
    /// order. Populated only under
    /// [`ExploreConfig::with_schedule_log`] — an oracle/debugging aid
    /// for the optimality tests, empty otherwise.
    pub schedule_log: Vec<Vec<u8>>,
    /// `Some(reason)` when the run degraded into a **partial** report —
    /// an exploration [`Budget`] cap tripped or a frontier worker
    /// panicked. A partial report is a sound under-approximation: every
    /// violation it carries is real, but [`Exploration::all_opaque`] is
    /// *not* a certification (the unexplored remainder may violate).
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
    /// fallback count and violations. Search diagnostics (dedup-hit
    /// counts, the schedule log) are excluded: two explorations "report
    /// identically" iff these match.
    pub fn report(&self) -> (usize, usize, &[Violation]) {
        (self.schedules, self.exact_fallbacks, &self.violations)
    }

    fn absorb(&mut self, other: Exploration) {
        self.schedules += other.schedules;
        self.exact_fallbacks += other.exact_fallbacks;
        self.violations.extend(other.violations);
        self.dedup_hits += other.dedup_hits;
        self.schedule_log.extend(other.schedule_log);
        if self.exhausted.is_none() {
            self.exhausted = other.exhausted;
        }
        self.crash_injected |= other.crash_injected;
        self.parasite_injected |= other.parasite_injected;
    }
}

/// Configuration for [`explore_with`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Schedule length to explore exhaustively.
    pub depth: usize,
    /// Distribute subtrees over a thread pool.
    pub parallel: bool,
    /// Prefix length at which the tree is split into parallel subtree
    /// roots; `None` picks the smallest prefix yielding at least eight
    /// roots per worker thread.
    pub split_depth: Option<usize>,
    /// Collapse the schedule tree into a DAG via the digest seen set
    /// (see the module docs). Reports stay byte-identical; `schedules`
    /// still counts every leaf of the full tree. Takes effect only for
    /// TMs implementing [`tm_stm::SteppedTm::state_digest`]; for the
    /// rest dedup is silently disabled.
    pub dedup: bool,
    /// Optimal dynamic partial-order reduction (see the module docs):
    /// explore **one representative schedule per Mazurkiewicz
    /// equivalence class** of the independence relation declared by the
    /// TM's conflict oracle ([`tm_stm::SteppedTm::step_footprint`]).
    /// `schedules` then counts *executed* schedules — typically orders
    /// of magnitude below `n^depth` — while the violation verdict
    /// (`all_opaque`, and every violation actually reported) is
    /// preserved: each reported violation is a real explored schedule
    /// the exhaustive explorer also reports. The walk never starts a
    /// schedule it abandons as redundant. For TMs that keep the
    /// conservative default oracle, every step conflicts and the walk
    /// soundly degenerates to full exploration.
    pub optimal_dpor: bool,
    /// Record every executed schedule into
    /// [`Exploration::schedule_log`]. Disables digest dedup for the run
    /// (a replayed subtree summary cannot reproduce its schedules).
    pub record_schedules: bool,
    /// Fault quantification (see the module docs): with a non-trivial
    /// config, `crash(p)` / `parasite(p)` become scheduler-level
    /// transitions of the search, exhaustively explored like any process
    /// step. Each fault transition consumes one depth unit and leaves
    /// the TM untouched; every reported [`Violation`] carries the
    /// concrete [`FaultPlan`] its branch chose. With
    /// [`FaultConfig::none()`] (the default) reports are byte-identical
    /// to fault-free exploration.
    pub faults: FaultConfig,
    /// Resource caps ([`Budget`]): when a cap trips, the walk unwinds
    /// and the run returns a *partial* report with
    /// [`Exploration::exhausted`] set instead of running unbounded.
    /// Unlimited by default.
    pub budget: Budget,
    /// Observability handle (off by default — hooks are no-ops). The
    /// counters it accumulates are deterministic at any thread count;
    /// see the `tm_telemetry` module docs for the schema and contract.
    pub telemetry: Telemetry,
}

impl ExploreConfig {
    /// Exhaustive exploration to `depth`: parallel, no reduction — the
    /// drop-in semantics of [`explore_schedules`].
    pub fn new(depth: usize) -> Self {
        ExploreConfig {
            depth,
            parallel: true,
            split_depth: None,
            dedup: false,
            optimal_dpor: false,
            record_schedules: false,
            faults: FaultConfig::none(),
            budget: Budget::unlimited(),
            telemetry: Telemetry::off(),
        }
    }

    /// Disables the parallel frontier.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Pins the parallel split depth.
    pub fn with_split_depth(mut self, split: usize) -> Self {
        self.split_depth = Some(split);
        self
    }

    /// Enables digest dedup (the cross-schedule seen set).
    pub fn with_dedup(mut self) -> Self {
        self.dedup = true;
        self
    }

    /// Enables optimal DPOR (wakeup trees over sleep sets).
    pub fn with_optimal_dpor(mut self) -> Self {
        self.optimal_dpor = true;
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
    /// Steps this space executed — a plain worker-local tally, flushed
    /// once per walk as [`tm_telemetry::Counter::WorkerSteps`].
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

    /// A self-contained copy for a parallel subtree root, with the
    /// certifier's undo log compacted away (roots never unwind past
    /// their own split point).
    fn subtree_root(&self) -> Self {
        let mut checker = self.checker.clone();
        checker.compact();
        ScheduleSpace {
            clients: self.clients.clone(),
            path: self.path.clone(),
            history: self.history.clone(),
            checker,
            telemetry: self.telemetry.clone(),
            steps: 0,
            log_schedules: self.log_schedules,
            fstate: self.fstate,
            fault_log: self.fault_log.clone(),
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

    fn config_key(&self, tm: &BoxedTm) -> Option<(u64, u64)> {
        tm.state_digest()
            .map(|d| (d, clients_digest(&self.clients)))
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

/// Key of the digest seen set: one explored configuration of the search,
/// at one remaining depth (memoized subtree summaries only transfer
/// between identical residual searches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    tm: u64,
    clients: u64,
    checker: u64,
    /// The node's sleep set (optimal mode only; 0 otherwise).
    sleep: u64,
    remaining: u32,
    /// Structural digest of the node's *pending* wakeup tree (optimal
    /// mode only; 0 otherwise): a memoized summary transfers only
    /// between nodes owing the same reversal branches.
    wut: u64,
    /// [`FaultState::key`] of the branch (0 in fault-free runs): a
    /// summary never transfers between distinct crash/parasitic masks —
    /// the residual searches differ in both branching and stepping.
    faults: u64,
}

/// The memoized summary of a silently-certified subtree.
#[derive(Debug, Clone, Copy)]
struct MemoDelta {
    schedules: usize,
    /// Union of every footprint the subtree queried or executed — the
    /// optimal-mode replay guard (see the module docs). Unused (empty)
    /// in the exhaustive walk.
    agg: StepFootprint,
}

/// The digest seen set of one walk (worker-local).
type Memo = SeenSet<MemoKey, MemoDelta>;

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
    /// The digest seen set (disabled during the parallel split walk,
    /// whose "leaves" collect subtree roots rather than certifying).
    memo: &'a mut Memo,
    /// Worker-local telemetry tallies: plain integer increments on the
    /// hot path, one atomic add each at flush.
    tally: Tally,
    /// The run's fault quantification ([`ExploreConfig::faults`]).
    faults: FaultConfig,
    /// The run's shared budget meter: one atomic check per tree node,
    /// short-circuited to a load-free `true` when unlimited.
    meter: &'a BudgetMeter,
}

/// The per-walk telemetry tallies (see [`Walk::tally`]).
#[derive(Default)]
struct Tally {
    /// Seen-set lookups that did not replay a summary (true misses plus
    /// optimal-mode hits blocked by the footprint replay guard).
    memo_misses: u64,
    /// Reversible races the optimal-DPOR analysis detected.
    dpor_races: u64,
    /// Reversal sequences inserted into wakeup trees.
    wakeup_inserts: u64,
    /// Reversals proved covered and dropped: rejected at insertion by
    /// the weak-initial sleep guard, subsumed by a pending branch, or —
    /// because footprints are state-dependent — popped with an asleep
    /// head and discarded before executing anything.
    wakeup_redundant: u64,
    /// Fault transitions (`crash(p)` / `parasite(p)`) the walk took.
    faults_injected: u64,
}

impl Tally {
    fn flush(&self, telemetry: &Telemetry) {
        telemetry.add(Counter::MemoMisses, self.memo_misses);
        telemetry.add(Counter::DporRaces, self.dpor_races);
        telemetry.add(Counter::WakeupInserts, self.wakeup_inserts);
        telemetry.add(Counter::WakeupRedundant, self.wakeup_redundant);
        telemetry.add(Counter::FaultsInjected, self.faults_injected);
    }
}

/// Exhaustive depth-first walk of the schedule tree below the current
/// path, invoking `leaf` at depth `remaining == 0` with ownership of the
/// TM. Returns the TM box for recycling (`None` if a leaf kept it).
///
/// With faults enabled ([`Walk::faults`]) each node additionally
/// branches on every `crash(p)` / `parasite(p)` the config still allows:
/// fault edges consume one depth unit and leave the TM and the schedule
/// path untouched. Crashed processes drop out of the eligible set, and
/// the [`FaultState`] masks fold into the memo key so summaries never
/// leak across fault placements. With `FaultConfig::none()` the node
/// shape — including which child consumes the parent's box — is exactly
/// the fault-free walk, which is what keeps those reports byte-identical.
fn walk_tree<L>(
    walk: &mut Walk<'_>,
    mut tm: BoxedTm,
    remaining: usize,
    leaf: &mut L,
) -> Option<BoxedTm>
where
    L: FnMut(&mut Walk<'_>, BoxedTm) -> Option<BoxedTm>,
{
    // Budget gate before any expansion: a tripped meter unwinds the
    // whole walk into a partial report ([`Exploration::exhausted`]).
    if !walk.meter.note_state() {
        return Some(tm);
    }
    if remaining == 0 {
        return leaf(walk, tm);
    }
    // Digest dedup: replay a memoized subtree summary, or note the entry
    // counters so this subtree can be memoized on the way out. No lookup
    // while a rejection is latched (every leaf below falls back to the
    // exact checker on the full, path-dependent history).
    let memo_note = if walk.memo.enabled() && walk.space.checker.violation().is_none() {
        let (tm_digest, clients) = walk
            .space
            .config_key(&tm)
            .expect("dedup runs only for fingerprinting TMs");
        let key = MemoKey {
            tm: tm_digest,
            clients,
            checker: walk.space.checker.state_digest(),
            sleep: 0,
            remaining: remaining as u32,
            wut: 0,
            faults: walk.space.fstate.key(),
        };
        if let Some(delta) = walk.memo.get(&key) {
            walk.out.schedules += delta.schedules;
            walk.out.dedup_hits += 1;
            return Some(tm);
        }
        walk.tally.memo_misses += 1;
        Some((
            key,
            walk.out.schedules,
            walk.out.exact_fallbacks,
            walk.out.violations.len(),
        ))
    } else {
        None
    };
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
        let recycled = walk_tree(walk, child, remaining - 1, leaf);
        if let Some(recycled) = recycled {
            walk.pool.put_back(recycled);
        }
        walk.space.rewind(k, mark);
    }
    let recycled = if consume_last {
        // The last child consumes the parent's TM instance: no fork.
        // (Deferring this edge's rollback to an ancestor is semantically
        // sound but measurably slower — it trades the undo log's tight
        // LIFO locality for large cold sweeps.)
        let mark = walk.space.mark(last);
        walk.space.step(&mut tm, last);
        let recycled = walk_tree(walk, tm, remaining - 1, leaf);
        walk.space.rewind(last, mark);
        recycled
    } else {
        // Fault branches. A fault edge mutates only the fault state and
        // the per-branch fault log: the TM is untouched (a crash is the
        // *absence* of future steps; a parasitic turn reroutes the
        // client at its next `tryC`), so the box forks unchanged.
        let count = fault_edges.len();
        let mut slot = Some(tm);
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
            walk.tally.faults_injected += 1;
            walk.space.fault_log.push(fault);
            let is_last = i + 1 == count;
            let child = if is_last {
                slot.take().expect("the last fault edge consumes the box")
            } else {
                walk.pool
                    .fork_child(slot.as_ref().expect("box still owned"))
            };
            let recycled = walk_tree(walk, child, remaining - 1, leaf);
            if let Some(recycled) = recycled {
                if is_last {
                    slot = Some(recycled);
                } else {
                    walk.pool.put_back(recycled);
                }
            }
            walk.space.fault_log.pop();
            walk.space.fstate = saved;
        }
        slot
    };
    // Memoize only silently-certified subtrees: violations and exact
    // fallbacks carry path-dependent report data that must be recomputed
    // per prefix (see the module docs) — and never a subtree truncated
    // by a tripped budget (its summary would under-count on replay).
    if let Some((key, schedules, fallbacks, violations)) = memo_note {
        if walk.out.exact_fallbacks == fallbacks
            && walk.out.violations.len() == violations
            && walk.meter.within()
        {
            walk.memo.insert(
                key,
                MemoDelta {
                    schedules: walk.out.schedules - schedules,
                    agg: StepFootprint::local(),
                },
            );
        }
    }
    recycled
}

/// Optimal-DPOR walk (see the module docs): at each node, explore
/// exactly the branches of its wakeup tree — full reversal sequences
/// race detection inserted, minus those the weak-initial sleep guard
/// proved covered — seeding one free representative only when the tree
/// is empty. `wut` is the pending subtree the parent's popped edge
/// handed down. Returns the TM box for recycling and the union of every
/// footprint the subtree queried or executed (the memo replay guard).
fn walk_optimal(
    walk: &mut Walk<'_>,
    opt: &mut OptimalDpor,
    tm: BoxedTm,
    remaining: usize,
    mut sleep: u64,
    wut: WakeupTree,
) -> (BoxedTm, StepFootprint) {
    if !walk.meter.note_state() {
        return (tm, StepFootprint::local());
    }
    let n = walk.space.width();
    let depth = opt.core.steps.len();
    opt.push_feet((0..n).map(|q| reduction::next_footprint(&tm, &walk.space.clients, q)));
    let mut agg = StepFootprint::local();
    for foot in opt.feet(depth) {
        agg.merge(foot);
    }
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
        return (tm, agg);
    }
    // Digest dedup, optimal flavour: a stored subtree summary may be
    // replayed only when nothing in the current trace conflicts with
    // anything the stored subtree touched — otherwise the skipped walk
    // could owe race reversals to the prefix — and the pending-tree
    // digest in the key makes a summary transfer only between nodes
    // owing identical reversal branches (see the module docs).
    let memo_note = if walk.memo.enabled() && walk.space.checker.violation().is_none() {
        let (tm_digest, clients) = walk
            .space
            .config_key(&tm)
            .expect("dedup runs only for fingerprinting TMs");
        let key = MemoKey {
            tm: tm_digest,
            clients,
            checker: walk.space.checker.state_digest(),
            sleep,
            remaining: remaining as u32,
            wut: wut.digest(),
            faults: walk.space.fstate.key(),
        };
        if let Some(delta) = walk.memo.get(&key) {
            if opt.core.steps.iter().all(|s| !s.foot.conflicts(&delta.agg)) {
                opt.pop_feet();
                walk.out.schedules += delta.schedules;
                walk.out.dedup_hits += 1;
                return (tm, delta.agg);
            }
        }
        walk.tally.memo_misses += 1;
        Some((
            key,
            walk.out.schedules,
            walk.out.exact_fallbacks,
            walk.out.violations.len(),
        ))
    } else {
        None
    };
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
        let (recycled, child_agg) =
            walk_optimal(walk, opt, child, remaining - 1, child_sleep, edge.sub);
        agg.merge(&child_agg);
        walk.pool.put_back(recycled);
        opt.core.pop();
        walk.space.rewind(k, mark);
        opt.sleep_child(depth, k);
        sleep |= 1 << k;
    }
    opt.pop_node();
    if let Some((key, schedules, fallbacks, violations)) = memo_note {
        if walk.out.exact_fallbacks == fallbacks
            && walk.out.violations.len() == violations
            && walk.meter.within()
        {
            walk.memo.insert(
                key,
                MemoDelta {
                    schedules: walk.out.schedules - schedules,
                    agg,
                },
            );
        }
    }
    (tm, agg)
}

/// A node at the parallel split depth, carrying everything a worker
/// needs to explore its subtree independently.
struct SubtreeRoot {
    tm: BoxedTm,
    space: ScheduleSpace,
}

/// Explores every schedule of length `config.depth` over `scripts.len()`
/// processes against TMs built by `factory` (called once; the tree
/// branches via [`tm_stm::SteppedTm::fork`]), checking opacity of every
/// produced history — and, because the certifier is incremental and
/// eager, of every prefix.
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
    // Probe refork support once ([`TmPool::for_tm`]): TMs without it
    // keep the spare pool empty rather than paying a failed dynamic
    // refork per tree edge.
    let pool = TmPool::for_tm(&tm).instrument(&telemetry);
    // Digest dedup silently disables for TMs without a fingerprint —
    // and under schedule logging, whose replayed summaries could not
    // reproduce their schedules.
    let dedup = config.dedup && !config.record_schedules && tm.state_digest().is_some();
    // The run's budget meter, shared by every worker. Its verdict is
    // read once at the end: a tripped cap makes the report partial.
    let meter = BudgetMeter::new(config.budget);

    // Fault quantification routes DPOR requests to the exhaustive walk:
    // the only sound footprint for a `crash(p)` / `parasite(p)`
    // transition is the global one (a crash reshapes every process's
    // future), under which the race analysis would demand every
    // reversal anyway — so the kernel takes the honest exhaustive walk
    // instead of a vacuous reduction.
    let fault_mode = config.faults.enabled();
    let out = if config.optimal_dpor && !fault_mode {
        // Optimal DPOR. Parallel: the prefix tree up to the split depth
        // is enumerated exhaustively and each root runs an independent
        // wakeup-tree walk with a fresh, empty trace; every full
        // schedule then has its exact prefix explored and a
        // representative of its suffix class explored from that exact
        // state, which preserves the verdict.
        explore_split(
            tm,
            pool,
            scripts,
            config,
            dedup,
            &meter,
            move |walk, tm, remaining| {
                let mut opt = OptimalDpor::new(n);
                walk_optimal(walk, &mut opt, tm, remaining, 0, WakeupTree::default());
                walk.tally.dpor_races += opt.core.races;
                walk.tally.wakeup_inserts += opt.inserts;
                walk.tally.wakeup_redundant += opt.redundant;
            },
        )
    } else {
        explore_split(
            tm,
            pool,
            scripts,
            config,
            dedup,
            &meter,
            |walk, tm, remaining| {
                walk_tree(walk, tm, remaining, &mut |walk, tm| {
                    certify_leaf(walk.space, walk.out);
                    walk.meter.note_schedule();
                    Some(tm)
                });
            },
        )
    };

    // The budget verdict, read once: any tripped cap (including a
    // panicked frontier worker, tripped externally by the split driver)
    // turns the report partial.
    let mut out = out;
    if out.exhausted.is_none() {
        out.exhausted = meter.exhausted().map(str::to_string);
    }

    // The deterministic end-of-run flush: every count below is a fixed
    // property of the search, so the snapshot is thread-count-invariant.
    // `SchedulesExecuted` is flushed from the report itself, making
    // "snapshot equals report" true by construction.
    telemetry.add(Counter::SchedulesExecuted, out.schedules as u64);
    let pruned = (n as u128)
        .checked_pow(config.depth as u32)
        .map_or(u64::MAX, |total| {
            u64::try_from(total.saturating_sub(out.schedules as u128)).unwrap_or(u64::MAX)
        });
    telemetry.add(Counter::SchedulesPruned, pruned);
    telemetry.add(Counter::MemoHits, out.dedup_hits as u64);
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

/// The shared driver behind both walkers: runs `walk_root` once from
/// the initial configuration (sequential / zero split), or splits the
/// tree at the parallel frontier — the exhaustive split walk collects
/// subtree roots, `walk_root` runs per root on the rayon pool, and the
/// reports merge in lexicographic root order, keeping the result
/// deterministic regardless of thread count. `dedup` is already
/// resolved against the TM's fingerprint support.
fn explore_split<R>(
    tm: BoxedTm,
    mut pool: TmPool,
    scripts: &[ClientScript],
    config: &ExploreConfig,
    dedup: bool,
    meter: &BudgetMeter,
    walk_root: R,
) -> Exploration
where
    R: Fn(&mut Walk<'_>, BoxedTm, usize) + Sync,
{
    let n = scripts.len();
    let recycle = pool.recycles();
    let telemetry = config.telemetry.clone();
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

    let split = if config.parallel {
        config
            .split_depth
            .unwrap_or_else(|| frontier::auto_split_depth(n, config.depth))
            .min(config.depth)
    } else {
        0
    };

    if !config.parallel || split == 0 {
        let mut memo = Memo::new(dedup);
        let tally = {
            let mut walk = Walk {
                space: &mut space,
                out: &mut out,
                pool: &mut pool,
                memo: &mut memo,
                tally: Tally::default(),
                faults,
                meter,
            };
            let _span = telemetry.phase("explore", "walk");
            walk_root(&mut walk, tm, config.depth);
            walk.tally
        };
        tally.flush(&telemetry);
        telemetry.add(Counter::WorkerSteps, space.steps);
        return out;
    }

    let mut roots = Vec::new();
    {
        // The split walk's "leaves" collect subtree roots instead of
        // certifying, so its subtree summaries would be vacuous: dedup
        // stays off here and runs per worker below.
        let _span = telemetry.phase("explore", "split");
        let mut memo = Memo::new(false);
        let mut walk = Walk {
            space: &mut space,
            out: &mut out,
            pool: &mut pool,
            memo: &mut memo,
            tally: Tally::default(),
            faults,
            meter,
        };
        walk_tree(&mut walk, tm, split, &mut |walk, tm| {
            roots.push(SubtreeRoot {
                tm,
                space: walk.space.subtree_root(),
            });
            None
        });
    }
    telemetry.add(Counter::WorkerSteps, space.steps);
    telemetry.add(Counter::FrontierSplits, 1);
    telemetry.add(Counter::FrontierItems, roots.len() as u64);
    // Per-worker seen sets: sound (digests are thread-agnostic),
    // deterministic, and lock-free; only cross-subtree hits are forgone
    // relative to the sequential walk.
    let remaining = config.depth - split;
    let results = {
        let telemetry = &telemetry;
        let walk_root = &walk_root;
        let _span = telemetry.phase("explore", "walk");
        // Panic isolation: a worker that panics loses its subtree's
        // results but not the run — its slot comes back `None`, the
        // meter trips, and the merged report is explicitly partial.
        frontier::distribute_isolated(roots, move |mut root| {
            let mut sub = Exploration::default();
            let mut pool = TmPool::new(recycle).instrument(telemetry);
            let mut memo = Memo::new(dedup);
            let tally = {
                let mut walk = Walk {
                    space: &mut root.space,
                    out: &mut sub,
                    pool: &mut pool,
                    memo: &mut memo,
                    tally: Tally::default(),
                    faults,
                    meter,
                };
                walk_root(&mut walk, root.tm, remaining);
                walk.tally
            };
            tally.flush(telemetry);
            telemetry.add(Counter::WorkerSteps, root.space.steps);
            telemetry.heartbeat("explore", || {
                let steps = telemetry.value(Counter::WorkerSteps);
                vec![
                    ("steps", Json::Int(steps as i64)),
                    (
                        "steps_per_sec",
                        Json::Num(steps as f64 / telemetry.elapsed_secs().max(1e-9)),
                    ),
                ]
            });
            sub
        })
    };
    for sub in results {
        match sub {
            Some(sub) => out.absorb(sub),
            None => meter.trip_external(),
        }
    }
    out
}

/// Explores every schedule of length `depth` over `scripts.len()`
/// processes: the drop-in entry point (prefix-sharing DFS, parallel
/// frontier, no reduction — reports are identical to the naive
/// enumerator's).
pub fn explore_schedules<F>(factory: F, scripts: &[ClientScript], depth: usize) -> Exploration
where
    F: Fn() -> BoxedTm,
{
    explore_with(factory, scripts, &ExploreConfig::new(depth))
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
        let dfs = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(8).sequential(),
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
        let dfs = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(9).sequential(),
        );
        assert!(!naive.all_opaque());
        assert_eq!(naive, dfs);
    }

    #[test]
    fn parallel_split_depths_do_not_change_the_report() {
        let scripts = two_increments();
        let base = explore_with(
            || Box::new(Tl2::new(2, 1)),
            &scripts,
            &ExploreConfig::new(9).sequential(),
        );
        for split in [0, 1, 3, 5, 9] {
            let par = explore_with(
                || Box::new(Tl2::new(2, 1)),
                &scripts,
                &ExploreConfig::new(9).with_split_depth(split),
            );
            assert_eq!(base, par, "split depth {split}");
        }
    }

    #[test]
    fn dedup_replays_subtrees_but_reports_identically() {
        let scripts = two_increments();
        let full = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(10).sequential(),
        );
        let deduped = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(10).sequential().with_dedup(),
        );
        assert!(deduped.dedup_hits > 0, "the increment workload must merge");
        assert_eq!(full.report(), deduped.report());
        assert_eq!(deduped.schedules, 1 << 10, "hits still count every leaf");
    }

    #[test]
    fn dedup_still_catches_the_buggy_tm_with_identical_violations() {
        let scripts = vec![
            ClientScript::increment(X),
            ClientScript::new(vec![
                crate::workload::PlannedOp::Read(X),
                crate::workload::PlannedOp::Write(X, 5),
            ]),
        ];
        let full = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(10).sequential(),
        );
        let deduped = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(10).sequential().with_dedup(),
        );
        assert!(!full.all_opaque());
        assert_eq!(full.report(), deduped.report());
    }

    #[test]
    fn dpor_reduces_schedules_and_preserves_verdicts() {
        let scripts = two_increments();
        let full = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(9).sequential(),
        );
        let dpor = explore_with(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &ExploreConfig::new(9).sequential().with_optimal_dpor(),
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
        let full = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(9).sequential(),
        );
        let dpor = explore_with(
            || tm_stm::literal_fgp(2, 1),
            &scripts,
            &ExploreConfig::new(9).sequential().with_optimal_dpor(),
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
        let full = explore_with(
            || Box::new(GlobalLock::new(2, 1)),
            &scripts,
            &ExploreConfig::new(8).sequential(),
        );
        let dpor = explore_with(
            || Box::new(GlobalLock::new(2, 1)),
            &scripts,
            &ExploreConfig::new(8).sequential().with_optimal_dpor(),
        );
        assert_eq!(full, dpor);
    }

    #[test]
    fn dpor_composes_with_parallel_split_and_dedup() {
        // Same-variable increments on Fgp, and disjoint-variable
        // increments on TL2, where almost every op step commutes.
        let shapes: Vec<(Factory, Vec<ClientScript>)> = vec![
            (
                Box::new(|| Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm),
                two_increments(),
            ),
            (
                Box::new(|| Box::new(Tl2::new(2, 2)) as BoxedTm),
                vec![
                    ClientScript::increment(X),
                    ClientScript::increment(TVarId(1)),
                ],
            ),
        ];
        for (factory, scripts) in shapes {
            let base = explore_with(
                &*factory,
                &scripts,
                &ExploreConfig::new(9).sequential().with_optimal_dpor(),
            );
            let deduped = explore_with(
                &*factory,
                &scripts,
                &ExploreConfig::new(9)
                    .sequential()
                    .with_optimal_dpor()
                    .with_dedup(),
            );
            // Dedup must not change the verdict; executed-schedule counts
            // may legitimately differ only through replayed summaries,
            // which are themselves executed-schedule counts — so they
            // must match too.
            assert_eq!(base.report(), deduped.report());
            for split in [1, 3, 5] {
                let par = explore_with(
                    &*factory,
                    &scripts,
                    &ExploreConfig::new(9)
                        .with_split_depth(split)
                        .with_optimal_dpor()
                        .with_dedup(),
                );
                // The parallel frontier enumerates prefixes exhaustively,
                // so its executed-schedule count sits between the
                // sequential DPOR count and the full tree; the verdict is
                // preserved.
                assert_eq!(par.all_opaque(), base.all_opaque(), "split {split}");
                assert!(par.schedules >= base.schedules, "split {split}");
                assert!(par.schedules <= 1 << 9, "split {split}");
            }
        }
    }
}
