//! Bounded liveness model checking: lasso detection over the canonical
//! state graph.
//!
//! The safety explorer ([`crate::explore`]) certifies *finite* behaviour
//! (opacity of every history up to a depth). The paper's central results,
//! however, are about *infinite* behaviour: which processes starve, which
//! are parasitic, which progress (§2.3, Figures 5–7). Infinite
//! counterexamples of finite-state systems are **lassos** — a finite
//! prefix leading into a cycle repeated forever — so liveness checking
//! reduces to cycle detection in a canonical state graph. This module
//! builds that graph and searches it.
//!
//! # The canonical state graph
//!
//! A *configuration* is `(TM state, client cursors)`; it determines every
//! future response and invocation, so the bounded run graph is exactly
//! the graph over configurations with one edge per scheduled process.
//! Configurations are interned by their canonical digests —
//! [`tm_stm::SteppedTm::state_digest`] (whose per-algorithm
//! canonicalization contract normalizes unbounded version clocks into
//! rank patterns, making recurrence *possible* at all) and
//! [`crate::workload::Client::cursor`] (which excludes the commit/abort
//! tallies for the same reason). A DFS bounded by
//! [`LivecheckConfig::depth`] explores the graph once per configuration
//! (re-expanding only when revisited with a larger remaining budget), so
//! the cost scales with the number of *distinct states*, not with the
//! `n^depth` schedule tree.
//!
//! # Lassos: concrete witnesses
//!
//! When the DFS steps into a configuration already on its own path, the
//! events since that configuration's frame form a cycle that the
//! scheduler can repeat forever. Each such cycle is converted into a
//! [`tm_liveness::InfiniteHistory`] via
//! [`tm_liveness::detect::lasso_from_cycle`] and every process is
//! classified with the paper's Figure 2 taxonomy
//! ([`fn@tm_liveness::classify`]): progressing, starving, parasitic,
//! crashed (the scheduler abandoned it), or absent. Findings are
//! deduplicated and capped at [`LivecheckConfig::max_lassos`].
//!
//! A cycle can also contain **no events at all** — a blocked process
//! polling a withheld response forever (the global-lock TM under a
//! crashed lock holder). Such cycles admit no `InfiniteHistory` (the
//! paper's histories are event sequences; an eventless suffix is
//! Figure 14's blocking shape) and are certified separately below.
//!
//! # Certified verdicts: the SCC pass
//!
//! On-path detection yields witnesses, but *absence* claims ("no
//! starvation lasso at this bound") need a completeness argument that
//! per-path search cannot give once the seen set prunes re-expansion.
//! The checker therefore also records the explored graph explicitly and
//! decides cycle **existence** exactly, per process, via the SCC
//! certificates of [`tm_liveness::scc`] (Tarjan over edge-filtered
//! views; see that module for the per-verdict edge deletions):
//!
//! * **starving** — a cycle aborts the process infinitely often and
//!   never commits it;
//! * **parasitic** — a cycle gives the process infinitely many events
//!   but finitely many `tryC`/aborts;
//! * **blocked** — the scheduler can run the process forever without the
//!   TM ever responding;
//! * **progressing** — a cycle commits the process infinitely often.
//!
//! These verdicts are exact *for the explored subgraph*: configurations
//! first reached at the depth bound are frontier nodes without outgoing
//! edges, so the certificate is "no such cycle within the bound", the
//! standard bounded-model-checking guarantee.
//! [`LivecheckReport::lasso_starvation_free`] is the resulting per-TM
//! certificate. After the search the recorded graph is copied once into
//! a [`tm_liveness::CycleGraph`], and one [`tm_liveness::certify`] call
//! decides every process's plain and fair verdicts: a Tarjan pass over
//! the whole graph, then one pass per process and verdict over the edges
//! inside its strongly connected components.
//!
//! # Parasitic processes
//!
//! [`LivecheckConfig::with_parasitic`] marks processes that never invoke
//! `tryC` (§2.3): their clients loop their operations via
//! [`Client::restart_transaction`] instead of reaching the script's
//! implicit commit. This reproduces the Figure 12 shape — a parasitic
//! reader starving a writer — mechanically.
//!
//! # Equivalence-class reduction
//!
//! The safety explorer's optimal DPOR ([`crate::explore`]) prunes
//! whole interleaving classes because a *verdict* is class-invariant.
//! Liveness certification cannot prune schedules that way: for two
//! independent steps `a | b`, the interleavings `ab` and `ba` pass
//! through **different intermediate configurations** (`after-a` vs
//! `after-b`), and both must be interned for the state/edge/lasso sets —
//! the very objects the SCC certificates quantify over — to be complete.
//! What *is* redundant is re-executing a transition the graph already
//! records: the budget-bounded DFS re-walks a node's subtree whenever a
//! shorter path reaches it with a larger remaining budget, re-deriving
//! edges whose targets, labels and events are already known.
//!
//! [`LivecheckConfig::reduce`] prunes exactly that redundancy — one
//! *executed* representative per transition, every re-derivation
//! replayed: first expansions record each edge's (at most two) events;
//! re-walks replay recorded edges into the history and client cursors
//! (stepping is deterministic, so the replay is byte-identical) without
//! touching a TM; and a frontier node reached but not yet expanded
//! *parks* its TM box so a later, deeper re-walk can expand it in place
//! instead of re-executing the path to it. Every TM transition is thus
//! executed exactly once; the traversal order, the explored graph, the
//! lasso findings and the certified verdicts are unchanged (asserted by
//! the differential suite), and
//! `steps(plain) = steps(reduced) + replayed_steps(reduced)`.
//!
//! The safety explorer's wakeup trees
//! ([`crate::explore`](crate::explore#optimal-dpor-one-schedule-per-equivalence-class))
//! never *start* a schedule later abandoned as redundant. Transition
//! memoization is this checker's analogue of that optimality: where wakeup trees guarantee at most
//! one executed schedule per interleaving class, `reduce` guarantees
//! exactly one executed step per state-graph edge — the quantified
//! object each checker certifies over. A wakeup-tree mode for liveness
//! itself would be unsound for the same reason sleep sets are: pruned
//! interleavings pass through unexplored intermediate configurations,
//! and the SCC certificates must quantify over all of them.
//!
//! # Panic containment
//!
//! A TM that panics mid-step does not take the checker down: the walk
//! runs under one `catch_unwind`, and a panic ends it with a partial
//! report — [`LivecheckReport::exhausted`] set to `"TM step panicked"`
//! ([`BudgetMeter::trip_external`]) — built from the graph interned so
//! far. The walk is a single thread, so containment costs nothing per
//! step. The safety explorer contains panics the same way.
//!
//! # The exploration kernel
//!
//! This checker is the graph-search instantiation of the shared kernel
//! in [`crate::engine`] (the safety explorer is the tree-search one):
//! its `GraphSpace` implements the kernel's [`SearchSpace`] contract
//! over the shared stepper, TM branching runs through the shared
//! [`tm_stm::TmPool`], configurations are interned through
//! [`crate::engine::memo::Interner`], and resource caps go through the
//! kernel's [`BudgetMeter`]. The walk runs on one thread: it beat a
//! level-parallel frontier on every measured row, and a per-process SCC
//! fan-out gained nothing.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use tm_core::{digest_of, Event, Invocation, ProcessId, StableHasher};
use tm_liveness::{
    classify, detect::lasso_from_cycle, CycleEdge, CycleGraph, InfiniteHistory, ProcessClass,
};
use tm_stm::{BoxedTm, SteppedTm, TmPool};
use tm_telemetry::{Counter, Json, Telemetry, Timer};

use crate::engine::budget::{Budget, BudgetMeter};
use crate::engine::memo::Interner;
use crate::engine::space::{emit_trace, step_process, SearchSpace, StepRecord, TraceWitness};
use crate::faults::{Fault, FaultConfig, FaultPlan, FaultState};
use crate::workload::{clients_digest, Client, ClientMark, ClientScript};

pub use tm_liveness::{FairProcessVerdicts, ProcessCycleVerdicts};

/// Configuration for [`livecheck`].
#[derive(Debug, Clone)]
pub struct LivecheckConfig {
    /// Maximum schedule length explored from the initial configuration.
    /// Cycle existence is decided exactly for the subgraph reachable
    /// within this bound.
    pub depth: usize,
    /// Cap on *stored* lasso findings (detection keeps counting).
    pub max_lassos: usize,
    /// Transition-level reduction: execute every TM transition **once**
    /// and replay recorded edges on re-walks (see the module docs'
    /// "Equivalence-class reduction" section). This is the production
    /// walk; leaving it off selects the plain walk, which re-executes
    /// every re-walked edge and is kept only as the differential oracle.
    /// The explored graph, lassos and verdicts are identical; only
    /// [`LivecheckReport::steps`] (TM executions) drops — re-walked
    /// edges count in [`LivecheckReport::replayed_steps`] instead.
    pub reduce: bool,
    /// Bitmask of processes that never invoke `tryC` (loop their
    /// operations forever): the paper's parasitic processes.
    parasitic: u64,
    /// Fault quantification: with a non-trivial config, `crash(p)` /
    /// `parasite(p)` become scheduler-level transitions of the graph
    /// search, exhaustively explored. Fault state folds into node
    /// identities (same TM state under different crash masks is a
    /// different configuration) and each lasso finding carries the
    /// concrete [`FaultPlan`] its branch chose. With
    /// [`FaultConfig::none()`] (the default) reports are byte-identical
    /// to fault-free checking.
    pub faults: FaultConfig,
    /// Resource caps ([`Budget`]): a tripped cap degrades the run into a
    /// partial report with [`LivecheckReport::exhausted`] set (absence
    /// claims are then only sound for the subgraph actually explored).
    /// Unlimited by default.
    pub budget: Budget,
    /// Observability handle (off by default — hooks are no-ops). The
    /// counters it accumulates are deterministic at any thread count;
    /// see the `tm_telemetry` module docs for the schema and contract.
    pub telemetry: Telemetry,
}

impl LivecheckConfig {
    /// Exploration to `depth` with the default finding cap.
    pub fn new(depth: usize) -> Self {
        LivecheckConfig {
            depth,
            max_lassos: 32,
            reduce: false,
            parasitic: 0,
            faults: FaultConfig::none(),
            budget: Budget::unlimited(),
            telemetry: Telemetry::off(),
        }
    }

    /// Quantifies over crash/parasitic faults ([`FaultConfig`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Caps the run's resources ([`Budget`]); a tripped cap yields a
    /// partial report with [`LivecheckReport::exhausted`] set.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables the transition-level reduction (execute each TM
    /// transition once; replay recorded edges on re-walks).
    pub fn with_reduction(mut self) -> Self {
        self.reduce = true;
        self
    }

    /// Marks `process` parasitic: it loops its script's operations
    /// forever instead of ever invoking `tryC`.
    pub fn with_parasitic(mut self, process: ProcessId) -> Self {
        assert!(process.index() < 64, "parasitic mask is a u64");
        self.parasitic |= 1 << process.index();
        self
    }

    /// Caps the number of stored lasso findings.
    pub fn with_max_lassos(mut self, max: usize) -> Self {
        self.max_lassos = max;
        self
    }

    /// Attaches a telemetry handle (counters, phase spans and — when the
    /// handle streams — NDJSON progress events).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }
}

/// A concrete lasso found by the bounded search: a schedule the
/// adversarial scheduler can repeat forever, with the paper's per-process
/// classification of the resulting infinite history.
#[derive(Debug, Clone)]
pub struct LassoFinding {
    /// The schedule reaching the cycle's entry configuration.
    pub schedule_prefix: Vec<ProcessId>,
    /// The schedule segment the scheduler repeats forever.
    pub schedule_cycle: Vec<ProcessId>,
    /// The induced infinite history `prefix · cycle^ω`.
    pub lasso: InfiniteHistory,
    /// Figure 2 classification of every configured process.
    pub classes: Vec<(ProcessId, ProcessClass)>,
    /// The concrete fault placements on the branch reaching this lasso
    /// (`at_step` indexes into `schedule_prefix · schedule_cycle`,
    /// process steps only). Empty for fault-free branches.
    pub plan: FaultPlan,
}

impl LassoFinding {
    /// The processes this lasso starves.
    pub fn starving(&self) -> Vec<ProcessId> {
        self.with_class(ProcessClass::Starving)
    }

    /// The processes this lasso makes parasitic.
    pub fn parasitic(&self) -> Vec<ProcessId> {
        self.with_class(ProcessClass::Parasitic)
    }

    /// The processes this lasso keeps progressing.
    pub fn progressing(&self) -> Vec<ProcessId> {
        self.with_class(ProcessClass::Progressing)
    }

    fn with_class(&self, class: ProcessClass) -> Vec<ProcessId> {
        self.classes
            .iter()
            .filter(|&&(_, c)| c == class)
            .map(|&(p, _)| p)
            .collect()
    }
}

/// Outcome of a bounded liveness check of one TM.
#[derive(Debug, Clone)]
pub struct LivecheckReport {
    /// The checked TM's name.
    pub tm: String,
    /// The exploration bound used.
    pub depth: usize,
    /// Distinct configurations interned (including frontier nodes).
    pub states: usize,
    /// Edges of the explored graph.
    pub edges: usize,
    /// Scheduler steps executed against a TM (edges walked fresh; with
    /// [`LivecheckConfig::reduce`] each graph transition is executed
    /// exactly once, so this equals the edge count of the expanded
    /// subgraph).
    pub steps: usize,
    /// Edge re-walks served by replaying recorded events instead of
    /// executing the TM (0 unless [`LivecheckConfig::reduce`]).
    pub replayed_steps: usize,
    /// Subtree re-expansions avoided by the seen set.
    pub dedup_hits: usize,
    /// Back-edges encountered (cycles, counted with multiplicity).
    pub cycles_detected: usize,
    /// Cycles with no events (blocked shapes; certified via
    /// [`ProcessCycleVerdicts::blocked`], not convertible to lassos).
    pub eventless_cycles: usize,
    /// Cycles rejected by lasso validation — always 0 unless a TM's
    /// fingerprint canonicalization is unsound.
    pub rejected_cycles: usize,
    /// Stored findings (deduplicated, capped at
    /// [`LivecheckConfig::max_lassos`]).
    pub lassos: Vec<LassoFinding>,
    /// Whether findings were dropped by the cap.
    pub truncated: bool,
    /// Certified per-process cycle-existence verdicts
    /// ([`tm_liveness::certify`]).
    pub verdicts: Vec<ProcessCycleVerdicts>,
    /// Fairness-filtered verdicts (the same [`tm_liveness::certify`] call):
    /// cycle existence restricted to cycles scheduling every live
    /// process infinitely often, separating scheduler-abandoned shapes
    /// (unfair: the plain verdict holds, the fair one does not),
    /// crash-induced starvation (`crash_victim`), and genuinely
    /// TM-induced starvation (fair verdict holds with no crash).
    pub fair_verdicts: Vec<FairProcessVerdicts>,
    /// Bitmask of processes some explored branch crashed (0 without
    /// fault quantification).
    pub crash_injected: u64,
    /// Bitmask of processes some explored branch turned parasitic via a
    /// fault transition (0 without fault quantification).
    pub parasite_injected: u64,
    /// `Some(reason)` when a [`Budget`] cap tripped before the bounded
    /// graph was fully explored: the report is *partial* — counts and
    /// witnesses are sound, but absence claims (including
    /// [`LivecheckReport::lasso_starvation_free`]) cover only the
    /// subgraph actually explored and certify nothing at the bound.
    pub exhausted: Option<String>,
}

impl LivecheckReport {
    /// The certificate the paper's taxonomy calls for: **no** process has
    /// a starving or parasitic cycle anywhere in the explored subgraph.
    /// (Blocked cycles are reported separately: a blocked process is
    /// pending forever but takes no effective steps — the paper's
    /// blocking TMs fail *nonblocking* properties, not starvation
    /// freedom.)
    pub fn lasso_starvation_free(&self) -> bool {
        self.verdicts.iter().all(|v| !v.starving && !v.parasitic)
    }

    /// Processes with a certified starving cycle.
    pub fn starving_processes(&self) -> Vec<ProcessId> {
        self.collect(|v| v.starving)
    }

    /// Processes with a certified parasitic cycle.
    pub fn parasitic_processes(&self) -> Vec<ProcessId> {
        self.collect(|v| v.parasitic)
    }

    /// Processes with a certified blocked cycle.
    pub fn blocked_processes(&self) -> Vec<ProcessId> {
        self.collect(|v| v.blocked)
    }

    /// Processes with a certified progressing cycle.
    pub fn progressing_processes(&self) -> Vec<ProcessId> {
        self.collect(|v| v.progressing)
    }

    /// The fairness-filtered counterpart of
    /// [`LivecheckReport::lasso_starvation_free`]: no process has a
    /// starving or parasitic cycle along which every *live* process is
    /// scheduled infinitely often. Weaker claims than the plain
    /// certificate (fair cycles are a subset), so a TM can fail the
    /// plain certificate through scheduler-abandonment shapes alone and
    /// still pass this one.
    pub fn fair_starvation_free(&self) -> bool {
        self.fair_verdicts
            .iter()
            .all(|v| !v.starving && !v.parasitic)
    }

    /// Processes with a certified *fair* starving cycle.
    pub fn fair_starving_processes(&self) -> Vec<ProcessId> {
        self.fair_verdicts
            .iter()
            .filter(|v| v.starving)
            .map(|v| v.process)
            .collect()
    }

    /// Processes whose fair starving/blocked witness runs through a
    /// crash: the Theorem-1 corollary shape (a crashed peer starves or
    /// blocks them under every fair schedule of the witness component).
    pub fn crash_victims(&self) -> Vec<ProcessId> {
        self.fair_verdicts
            .iter()
            .filter(|v| v.crash_victim)
            .map(|v| v.process)
            .collect()
    }

    fn collect(&self, f: impl Fn(&ProcessCycleVerdicts) -> bool) -> Vec<ProcessId> {
        self.verdicts
            .iter()
            .filter(|v| f(v))
            .map(|v| v.process)
            .collect()
    }
}

/// What one scheduler step did, for edge labelling.
#[derive(Debug, Clone, Copy, Default)]
struct StepFacts {
    events: u8,
    committed: bool,
    aborted: bool,
    tryc: bool,
}

impl StepFacts {
    /// Derives the edge label from the kernel's step record.
    fn of(record: &StepRecord) -> StepFacts {
        let resp = record.response();
        StepFacts {
            events: record.event_count(),
            committed: resp == Some(tm_core::Response::Committed),
            aborted: resp == Some(tm_core::Response::Aborted),
            tryc: record.invoked_tryc(),
        }
    }
}

/// What kind of scheduler transition an edge is: a process step, or one
/// of the fault transitions a [`FaultConfig`] adds. Fault edges carry no
/// events, leave the TM untouched, and — because fault masks only grow
/// along edges while node identity includes them — can never lie on a
/// cycle, so they are excluded from the SCC certification graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    Step,
    Crash,
    Parasite,
}

/// One edge of the explored configuration graph.
#[derive(Debug, Clone, Copy)]
struct Edge {
    target: u32,
    process: u8,
    kind: EdgeKind,
    facts: StepFacts,
    /// The (at most two) events the step produced, recorded so
    /// reduced-mode re-walks can replay the edge — history bytes, client
    /// transitions and lasso findings included — without touching a TM.
    events: [Option<Event>; 2],
}

/// [`Node::frame`] of a node that is not on the DFS path.
const OFF_PATH: u32 = u32::MAX;

/// One interned configuration.
struct Node {
    /// Largest remaining budget this node has been expanded with
    /// (`None` = frontier: interned but never expanded).
    budget: Option<usize>,
    /// Index of this node's frame in [`Search::frames`] while the DFS
    /// path runs through it, [`OFF_PATH`] otherwise.
    frame: u32,
    /// Outgoing edges, recorded on first expansion (stepping is
    /// deterministic, so re-expansions would record the same edges).
    edges: Vec<Edge>,
    /// Crashed-process mask of this configuration (0 without fault
    /// quantification) — the per-node input the fairness certificates
    /// need to exempt dead processes.
    crashed: u64,
    /// Reduced mode only: the configuration's TM, parked while the node
    /// is an unexpanded frontier so a later, deeper re-walk can expand
    /// it without re-executing the path to it. Taken (and dropped) on
    /// first expansion — after that the recorded edges carry everything.
    parked_tm: Option<BoxedTm>,
}

/// A node currently on the DFS path.
struct Frame {
    history_len: usize,
    sched_len: usize,
}

/// The liveness checker's instantiation of the kernel's [`SearchSpace`]:
/// a graph-walk configuration — client cursors, the growing history and
/// schedule — plus the parasitic-process mask the stepper needs. (No
/// certifier: liveness is decided on the recorded graph, not per
/// history prefix.)
struct GraphSpace {
    clients: Vec<Client>,
    history: Vec<Event>,
    sched: Vec<usize>,
    /// The *static* parasitic mask ([`LivecheckConfig::with_parasitic`]);
    /// fault-induced parasitism lives in [`GraphSpace::fstate`] and the
    /// stepper honours the union of both.
    parasitic: u64,
    /// Crash/parasitic masks of the current branch, mutated only along
    /// fault edges (saved/restored by the walker — process steps and
    /// [`GraphSpace::rewind`] never touch it).
    fstate: FaultState,
    /// The fault transitions taken along the current branch, in order —
    /// the concrete [`FaultPlan`] a lasso on this branch reports.
    fault_log: Vec<Fault>,
    telemetry: Telemetry,
}

/// Everything one [`GraphSpace`] step mutates, for O(1) backtrack.
struct GraphMark {
    history_len: usize,
    client: ClientMark,
}

impl GraphSpace {
    fn new(scripts: &[ClientScript], parasitic: u64, telemetry: Telemetry) -> Self {
        GraphSpace {
            clients: scripts.iter().cloned().map(Client::new).collect(),
            history: Vec::new(),
            sched: Vec::new(),
            parasitic,
            fstate: FaultState::none(),
            fault_log: Vec::new(),
            telemetry,
        }
    }

    /// The canonical configuration key — `(TM state digest, clients
    /// digest)` — or `None` when the TM does not fingerprint. Equal keys
    /// mean observationally equivalent configurations (every future
    /// invocation and response coincides); this is what the node
    /// interner hashes.
    fn config_key(&self, tm: &BoxedTm) -> Option<(u64, u64)> {
        tm.state_digest()
            .map(|d| (d, clients_digest(&self.clients)))
    }

    /// Whether process `k` currently steps parasitically: statically
    /// configured, or turned by a fault transition on this branch.
    fn is_parasitic(&self, k: usize) -> bool {
        (self.parasitic | self.fstate.parasitic) & (1 << k) != 0
    }

    /// Reduced-mode re-walk of one recorded edge: replays its events
    /// into the history and the client — identically to re-executing
    /// the step, since stepping is deterministic — without touching a
    /// TM. Mirrors [`GraphSpace::step`]'s client handling, including
    /// the parasitic loop rule.
    fn replay(&mut self, k: usize, events: &[Option<Event>; 2]) {
        self.sched.push(k);
        if let Some(first) = events[0] {
            if first.is_invocation() {
                if self.is_parasitic(k)
                    && self.clients[k].next_invocation() == Invocation::TryCommit
                {
                    self.clients[k].restart_transaction();
                }
                debug_assert_eq!(
                    first.as_invocation(),
                    Some(self.clients[k].next_invocation())
                );
            }
            for event in events.iter().flatten() {
                self.history.push(*event);
                if let Some(resp) = event.as_response() {
                    self.clients[k].observe(resp);
                }
            }
        }
    }
}

impl SearchSpace for GraphSpace {
    type Mark = GraphMark;

    fn width(&self) -> usize {
        self.clients.len()
    }

    fn mark(&mut self, k: usize) -> GraphMark {
        GraphMark {
            history_len: self.history.len(),
            client: self.clients[k].mark(),
        }
    }

    fn step(&mut self, tm: &mut BoxedTm, k: usize) -> StepRecord {
        self.sched.push(k);
        let parasitic = self.is_parasitic(k);
        let started = self.telemetry.timer_start();
        let record = step_process(tm, &mut self.clients, k, parasitic, &mut self.history);
        self.telemetry.timer_stop(Timer::Step, started);
        record
    }

    fn rewind(&mut self, k: usize, mark: GraphMark) {
        self.sched.pop();
        self.history.truncate(mark.history_len);
        self.clients[k].restore(mark.client);
    }
}

struct Search<'a> {
    config: &'a LivecheckConfig,
    space: GraphSpace,
    frames: Vec<Frame>,
    /// Node identity: `(TM digest, clients digest, fault-state key)` —
    /// the same TM/client state under different crash/parasitic masks
    /// has different futures and must be a different node.
    ids: Interner<(u64, u64, u64)>,
    nodes: Vec<Node>,
    pool: TmPool,
    reduce: bool,
    /// The run's fault quantification, crash budget pre-clamped to n−1.
    faults: FaultConfig,
    /// The run's budget meter.
    meter: &'a BudgetMeter,
    steps: usize,
    replayed: usize,
    dedup_hits: usize,
    cycles_detected: usize,
    eventless_cycles: usize,
    rejected_cycles: usize,
    /// Fault transitions exercised, as process bitmasks (for the
    /// `fault_injected` events and the report).
    crash_injected: u64,
    parasite_injected: u64,
    faults_injected: u64,
    seen_cycles: HashSet<u64, BuildHasherDefault<StableHasher>>,
    lassos: Vec<LassoFinding>,
    truncated: bool,
    /// A fork of the root TM plus the scripts, kept only when the
    /// telemetry handle streams: each stored lasso finding is replayed
    /// from here (out of band, off the counters) to emit its `trace`
    /// event adjacent to the `lasso_found` event.
    trace_seed: Option<(BoxedTm, Vec<ClientScript>)>,
}

impl Search<'_> {
    fn key_of(&self, tm: &BoxedTm) -> (u64, u64, u64) {
        let (tm_digest, clients) = self
            .space
            .config_key(tm)
            .expect("livecheck requires a fingerprinting TM (SteppedTm::state_digest)");
        (tm_digest, clients, self.space.fstate.key())
    }

    fn intern(&mut self, key: (u64, u64, u64)) -> u32 {
        let (id, new) = self.ids.intern(key);
        if new {
            self.nodes.push(Node {
                budget: None,
                frame: OFF_PATH,
                edges: Vec::new(),
                crashed: self.space.fstate.crashed,
                parked_tm: None,
            });
        }
        id
    }

    /// The frame index of `id` if the DFS path runs through it.
    fn on_path(&self, id: u32) -> Option<usize> {
        let frame = self.nodes[id as usize].frame;
        (frame != OFF_PATH).then_some(frame as usize)
    }

    /// The fault transitions available from the current configuration,
    /// in canonical order (crashes ascending, then parasitic turns
    /// ascending) — empty in fault-free runs. Statically-parasitic
    /// processes get no parasitic fault edge: the turn would change the
    /// node identity without changing any future behaviour.
    fn fault_edges(&self) -> Vec<Fault> {
        let mut out = Vec::new();
        if !self.faults.enabled() {
            return out;
        }
        let at_step = self.space.sched.len();
        let n = self.space.width();
        for k in 0..n {
            if self.space.fstate.can_crash(&self.faults, k) {
                let process = ProcessId(k);
                out.push(Fault::Crash { process, at_step });
            }
        }
        for k in 0..n {
            if self.space.fstate.can_parasite(&self.faults, k)
                && self.space.parasitic & (1 << k) == 0
            {
                let process = ProcessId(k);
                out.push(Fault::Parasitic { process, at_step });
            }
        }
        out
    }

    /// Expands `id` (not on the path) with `remaining ≥ 1` budget.
    /// Fresh expansions (recorded edges absent) consume the given TM and
    /// return it for recycling; reduced-mode re-expansions replay the
    /// recorded edges and need no TM at all.
    fn expand(&mut self, tm: Option<BoxedTm>, id: u32, remaining: usize) -> Option<BoxedTm> {
        // Budget gate before any expansion: once the meter trips, the
        // walk unwinds (the node stays an unexpanded frontier) and the
        // run reports a partial result.
        if !self.meter.note_state() {
            return tm;
        }
        let replay = self.reduce && !self.nodes[id as usize].edges.is_empty();
        let record = self.nodes[id as usize].edges.is_empty();
        self.nodes[id as usize].budget = Some(remaining);
        self.nodes[id as usize].frame =
            u32::try_from(self.frames.len()).expect("DFS path exceeds u32 frames");
        self.frames.push(Frame {
            history_len: self.space.history.len(),
            sched_len: self.space.sched.len(),
        });
        let tm = if replay {
            for idx in 0..self.nodes[id as usize].edges.len() {
                let edge = self.nodes[id as usize].edges[idx];
                self.replay_edge(edge, remaining);
            }
            tm
        } else {
            let tm = tm.expect("fresh expansion requires the configuration's TM");
            let n = self.space.width();
            // Live process steps first (ascending), then fault edges —
            // the canonical child order. The last child overall consumes
            // the parent's box instead of forking.
            let alive: Vec<usize> = (0..n)
                .filter(|&k| !self.space.fstate.is_crashed(k))
                .collect();
            let fault_edges = self.fault_edges();
            let total = alive.len() + fault_edges.len();
            let mut kept = None;
            let mut slot = Some(tm);
            for (i, &k) in alive.iter().enumerate() {
                let is_last = i + 1 == total;
                let child = if is_last {
                    slot.take().expect("the last child consumes the box")
                } else {
                    self.pool
                        .fork_child(slot.as_ref().expect("box still owned"))
                };
                let recycled = self.child_step(child, k, id, remaining, record);
                if let Some(recycled) = recycled {
                    if is_last {
                        kept = Some(recycled);
                    } else {
                        self.pool.put_back(recycled);
                    }
                }
            }
            let alive_count = alive.len();
            for (j, fault) in fault_edges.into_iter().enumerate() {
                let is_last = alive_count + j + 1 == total;
                let child = if is_last {
                    slot.take().expect("the last child consumes the box")
                } else {
                    self.pool
                        .fork_child(slot.as_ref().expect("box still owned"))
                };
                let recycled = self.fault_step(child, fault, id, remaining, record);
                if let Some(recycled) = recycled {
                    if is_last {
                        kept = Some(recycled);
                    } else {
                        self.pool.put_back(recycled);
                    }
                }
            }
            kept
        };
        self.frames.pop();
        self.nodes[id as usize].frame = OFF_PATH;
        tm
    }

    /// Steps process `k` from the configuration `parent`, classifies the
    /// resulting edge, and recurses unless the child closes a cycle, is
    /// already explored at this budget, or sits at the depth bound.
    /// Returns the stepped TM for recycling — or `None` in reduced mode
    /// when the box was parked on a new frontier node instead.
    fn child_step(
        &mut self,
        mut tm: BoxedTm,
        k: usize,
        parent: u32,
        remaining: usize,
        record: bool,
    ) -> Option<BoxedTm> {
        let mark = self.space.mark(k);
        let rec = self.space.step(&mut tm, k);
        self.steps += 1;
        let key = self.key_of(&tm);
        let child = self.intern(key);
        if record {
            self.nodes[parent as usize].edges.push(Edge {
                target: child,
                process: u8::try_from(k).expect("≤ 64 processes"),
                kind: EdgeKind::Step,
                facts: StepFacts::of(&rec),
                events: rec.events(ProcessId(k)),
            });
        }
        let mut tm = Some(tm);
        let mut expanded = false;
        if let Some(frame) = self.on_path(child) {
            self.record_cycle(frame);
        } else if remaining > 1 {
            let explored = self.nodes[child as usize]
                .budget
                .is_some_and(|b| b >= remaining - 1);
            if explored {
                self.dedup_hits += 1;
            } else {
                // The recursion may itself park the box on a deeper
                // frontier node (reduced mode), returning None.
                tm = self.expand(tm, child, remaining - 1);
                expanded = true;
            }
        }
        self.space.rewind(k, mark);
        // Reduced mode: park the TM of a still-unexpanded frontier child
        // so a later, deeper re-walk can expand it from the recorded
        // graph without re-executing the path to it.
        if self.reduce && !expanded {
            let node = &mut self.nodes[child as usize];
            if node.edges.is_empty() && node.parked_tm.is_none() && node.frame == OFF_PATH {
                node.parked_tm = tm.take();
            }
        }
        tm
    }

    /// Takes one fault transition from the configuration `parent`: the
    /// TM and the clients are untouched (the box forks unchanged; only
    /// the fault masks move), so the edge carries no events and — since
    /// masks grow strictly along edges while node identity includes
    /// them — can never close a cycle.
    fn fault_step(
        &mut self,
        tm: BoxedTm,
        fault: Fault,
        parent: u32,
        remaining: usize,
        record: bool,
    ) -> Option<BoxedTm> {
        let saved = self.space.fstate;
        let k = fault.process().index();
        let kind = match fault {
            Fault::Crash { .. } => {
                self.space.fstate.crash(k);
                self.crash_injected |= 1 << k;
                EdgeKind::Crash
            }
            Fault::Parasitic { .. } => {
                self.space.fstate.parasite(k);
                self.parasite_injected |= 1 << k;
                EdgeKind::Parasite
            }
        };
        self.space.fault_log.push(fault);
        self.steps += 1;
        self.faults_injected += 1;
        let key = self.key_of(&tm);
        let child = self.intern(key);
        if record {
            self.nodes[parent as usize].edges.push(Edge {
                target: child,
                process: u8::try_from(k).expect("≤ 64 processes"),
                kind,
                facts: StepFacts::default(),
                events: [None, None],
            });
        }
        debug_assert!(
            self.on_path(child).is_none(),
            "fault masks grow strictly along edges — a fault edge cannot close a cycle"
        );
        let mut tm = Some(tm);
        let mut expanded = false;
        if remaining > 1 {
            let explored = self.nodes[child as usize]
                .budget
                .is_some_and(|b| b >= remaining - 1);
            if explored {
                self.dedup_hits += 1;
            } else {
                tm = self.expand(tm, child, remaining - 1);
                expanded = true;
            }
        }
        self.space.fault_log.pop();
        self.space.fstate = saved;
        if self.reduce && !expanded {
            let node = &mut self.nodes[child as usize];
            if node.edges.is_empty() && node.parked_tm.is_none() && node.frame == OFF_PATH {
                node.parked_tm = tm.take();
            }
        }
        tm
    }

    /// Reduced-mode re-walk of one recorded edge: replays its events via
    /// [`GraphSpace::replay`], detects cycles, and recurses using parked
    /// TMs only where a frontier node genuinely needs its first
    /// expansion.
    fn replay_edge(&mut self, edge: Edge, remaining: usize) {
        let k = edge.process as usize;
        let child = edge.target;
        match edge.kind {
            EdgeKind::Step => {
                let mark = self.space.mark(k);
                self.space.replay(k, &edge.events);
                self.replayed += 1;
                if let Some(frame) = self.on_path(child) {
                    self.record_cycle(frame);
                } else if remaining > 1 {
                    self.replay_descend(child, remaining);
                }
                self.space.rewind(k, mark);
            }
            EdgeKind::Crash | EdgeKind::Parasite => {
                // Re-walk of a recorded fault transition: restore the
                // masks the original walk applied; no events, no cycle
                // check (fault edges never close cycles).
                let saved = self.space.fstate;
                let fault = match edge.kind {
                    EdgeKind::Crash => {
                        self.space.fstate.crash(k);
                        Fault::Crash {
                            process: ProcessId(k),
                            at_step: self.space.sched.len(),
                        }
                    }
                    _ => {
                        self.space.fstate.parasite(k);
                        Fault::Parasitic {
                            process: ProcessId(k),
                            at_step: self.space.sched.len(),
                        }
                    }
                };
                self.space.fault_log.push(fault);
                self.replayed += 1;
                if remaining > 1 {
                    self.replay_descend(child, remaining);
                }
                self.space.fault_log.pop();
                self.space.fstate = saved;
            }
        }
    }

    /// The recursion step shared by both replay arms: dedup against the
    /// recorded budget, or expand the child from its parked TM. A node
    /// with neither parked TM nor recorded edges is a budget-truncated
    /// frontier from the tripped original walk — leave it unexpanded;
    /// the report is partial either way.
    fn replay_descend(&mut self, child: u32, remaining: usize) {
        let explored = self.nodes[child as usize]
            .budget
            .is_some_and(|b| b >= remaining - 1);
        if explored {
            self.dedup_hits += 1;
            return;
        }
        let parked = self.nodes[child as usize].parked_tm.take();
        if parked.is_none() && self.nodes[child as usize].edges.is_empty() {
            return;
        }
        if let Some(recycled) = self.expand(parked, child, remaining - 1) {
            self.pool.put_back(recycled);
        }
    }

    /// The DFS stepped back into the configuration at `frames[frame]`:
    /// everything since is a repeatable cycle.
    fn record_cycle(&mut self, frame: usize) {
        self.cycles_detected += 1;
        let frame = &self.frames[frame];
        let (prefix, cycle) = self.space.history.split_at(frame.history_len);
        if cycle.is_empty() {
            // Blocked shape: steps without events. Certified by the SCC
            // pass; there is no event cycle to classify.
            self.eventless_cycles += 1;
            return;
        }
        // Once the cap has dropped a finding no further one can be
        // stored, so there is no point hashing the cycle.
        if self.truncated {
            return;
        }
        let sched_cycle = &self.space.sched[frame.sched_len..];
        if !self.seen_cycles.insert(digest_of(&(cycle, sched_cycle))) {
            return;
        }
        if self.lassos.len() >= self.config.max_lassos {
            self.truncated = true;
            return;
        }
        match lasso_from_cycle(prefix, cycle) {
            Ok(lasso) => {
                let classes = (0..self.space.width())
                    .map(|k| (ProcessId(k), classify(&lasso, ProcessId(k))))
                    .collect();
                let finding = LassoFinding {
                    schedule_prefix: self.space.sched[..frame.sched_len]
                        .iter()
                        .copied()
                        .map(ProcessId)
                        .collect(),
                    schedule_cycle: sched_cycle.iter().copied().map(ProcessId).collect(),
                    plan: FaultPlan::from_faults(self.space.fault_log.clone()),
                    lasso,
                    classes,
                };
                if self.config.telemetry.streams() {
                    let procs = |ps: &[ProcessId]| {
                        Json::Arr(ps.iter().map(|p| Json::Int(p.0 as i64)).collect())
                    };
                    let mut fields = vec![
                        (
                            "prefix_len",
                            Json::Int(finding.schedule_prefix.len() as i64),
                        ),
                        ("cycle_len", Json::Int(finding.schedule_cycle.len() as i64)),
                        ("starving", procs(&finding.starving())),
                        ("parasitic", procs(&finding.parasitic())),
                    ];
                    if !finding.plan.is_empty() {
                        fields.push(("faults", finding.plan.to_json()));
                    }
                    self.config.telemetry.event("lasso_found", &fields);
                    // The witness timeline: replay prefix + cycle from a
                    // fork of the root, one `trace` event per stored
                    // lasso, adjacent to its `lasso_found` event.
                    if let Some((root, scripts)) = &self.trace_seed {
                        let mut schedule = finding.schedule_prefix.clone();
                        schedule.extend_from_slice(&finding.schedule_cycle);
                        emit_trace(
                            &self.config.telemetry,
                            &TraceWitness {
                                engine: "livecheck",
                                kind: "lasso",
                                idx: self.lassos.len(),
                                cycle_start: Some(finding.schedule_prefix.len()),
                            },
                            root.fork(),
                            scripts,
                            self.config.parasitic,
                            &finding.plan,
                            &schedule,
                        );
                    }
                }
                self.lassos.push(finding);
            }
            Err(_) => self.rejected_cycles += 1,
        }
    }

    /// Assembles the report: counters, findings, and the SCC-certified
    /// verdicts.
    fn into_report(mut self, tm: String, depth: usize) -> LivecheckReport {
        // The pool normally flushes its fork tallies at drop, which is
        // after the counter_snapshot below — flush now so the emitted
        // snapshot carries the complete run.
        self.pool.flush_counters();
        let processes = self.space.width();
        let edge_count: usize = self.nodes.iter().map(|n| n.edges.len()).sum();
        // The certification graph keeps process steps only: fault masks
        // grow strictly along fault edges while node identity includes
        // them, so a fault edge can never lie on a cycle — dropping them
        // here (node count preserved) changes no certificate and keeps
        // every SCC at a constant fault state.
        let mut graph = CycleGraph::with_capacity(self.nodes.len(), edge_count);
        for node in &self.nodes {
            graph.push_node(
                node.crashed,
                node.edges
                    .iter()
                    .filter(|e| e.kind == EdgeKind::Step)
                    .map(|e| CycleEdge {
                        target: e.target,
                        process: e.process,
                        events: e.facts.events,
                        committed: e.facts.committed,
                        aborted: e.facts.aborted,
                        tryc: e.facts.tryc,
                    }),
            );
        }
        let telemetry = self.config.telemetry.clone();
        let (verdicts, fair_verdicts) = {
            let _span = telemetry.phase("livecheck", "scc_certify");
            tm_liveness::certify(&graph, processes)
        };
        let report = LivecheckReport {
            tm,
            depth,
            states: self.nodes.len(),
            edges: edge_count,
            steps: self.steps,
            replayed_steps: self.replayed,
            dedup_hits: self.dedup_hits,
            cycles_detected: self.cycles_detected,
            eventless_cycles: self.eventless_cycles,
            rejected_cycles: self.rejected_cycles,
            lassos: self.lassos,
            truncated: self.truncated,
            verdicts,
            fair_verdicts,
            crash_injected: self.crash_injected,
            parasite_injected: self.parasite_injected,
            exhausted: self.meter.exhausted().map(str::to_string),
        };
        // The deterministic end-of-run flush: every count below comes
        // from the report itself (fixed properties of the bounded
        // graph), so the snapshot is thread-count-invariant.
        telemetry.add(Counter::GraphNodes, report.states as u64);
        telemetry.add(Counter::GraphEdges, report.edges as u64);
        telemetry.add(Counter::StepsExecuted, report.steps as u64);
        telemetry.add(Counter::StepsReplayed, report.replayed_steps as u64);
        telemetry.add(Counter::MemoHits, report.dedup_hits as u64);
        telemetry.add(Counter::CyclesDetected, report.cycles_detected as u64);
        telemetry.add(Counter::EventlessCycles, report.eventless_cycles as u64);
        telemetry.add(Counter::LassosFound, report.lassos.len() as u64);
        telemetry.add(Counter::FaultsInjected, self.faults_injected);
        if telemetry.streams() {
            // One `fault_injected` event per distinct fault transition
            // the search exercised (zero in fault-free runs — the stream
            // stays byte-identical).
            for k in 0..processes {
                if report.crash_injected & (1 << k) != 0 {
                    telemetry.event(
                        "fault_injected",
                        &[
                            ("engine", Json::str("livecheck")),
                            ("kind", Json::str("crash")),
                            ("process", Json::Int(k as i64)),
                        ],
                    );
                }
            }
            for k in 0..processes {
                if report.parasite_injected & (1 << k) != 0 {
                    telemetry.event(
                        "fault_injected",
                        &[
                            ("engine", Json::str("livecheck")),
                            ("kind", Json::str("parasite")),
                            ("process", Json::Int(k as i64)),
                        ],
                    );
                }
            }
            telemetry.heartbeat_now(
                "livecheck",
                &[
                    ("states", Json::Int(report.states as i64)),
                    ("steps", Json::Int(report.steps as i64)),
                    ("lassos", Json::Int(report.lassos.len() as i64)),
                    (
                        "states_per_sec",
                        Json::Num(report.states as f64 / telemetry.elapsed_secs().max(1e-9)),
                    ),
                ],
            );
            telemetry.emit_counters(&report.tm);
            // A tripped budget downgrades the verdict: `partial` + the
            // reason instead of a `starvation_free` claim the truncated
            // search cannot back.
            if let Some(reason) = &report.exhausted {
                telemetry.event(
                    "budget_exhausted",
                    &[
                        ("engine", Json::str("livecheck")),
                        ("reason", Json::str(reason.as_str())),
                    ],
                );
                telemetry.event(
                    "verdict",
                    &[
                        ("engine", Json::str("livecheck")),
                        ("tm", Json::str(report.tm.as_str())),
                        ("partial", Json::Bool(true)),
                        ("reason", Json::str(reason.as_str())),
                        ("states", Json::Int(report.states as i64)),
                        ("edges", Json::Int(report.edges as i64)),
                        ("lassos", Json::Int(report.lassos.len() as i64)),
                        ("depth", Json::Int(report.depth as i64)),
                    ],
                );
            } else {
                telemetry.event(
                    "verdict",
                    &[
                        ("engine", Json::str("livecheck")),
                        ("tm", Json::str(report.tm.as_str())),
                        (
                            "starvation_free",
                            Json::Bool(report.lasso_starvation_free()),
                        ),
                        ("states", Json::Int(report.states as i64)),
                        ("edges", Json::Int(report.edges as i64)),
                        ("lassos", Json::Int(report.lassos.len() as i64)),
                        ("depth", Json::Int(report.depth as i64)),
                    ],
                );
            }
        }
        report
    }
}

/// Runs the bounded liveness check of the TM built by `factory` under
/// the given client scripts.
///
/// # Panics
///
/// Panics if `scripts` is empty or exceeds 64 processes, if the factory's
/// process count does not match, if `config.depth` is zero, or if the TM
/// does not implement [`tm_stm::SteppedTm::state_digest`] (liveness
/// checking is built on state recurrence; there is no meaningful
/// degraded mode without a fingerprint). A TM that panics once the walk
/// is under way does not panic the caller: the run ends in a partial
/// report (see the module docs' "Panic containment" section).
pub fn livecheck<F>(
    factory: F,
    scripts: &[ClientScript],
    config: &LivecheckConfig,
) -> LivecheckReport
where
    F: Fn() -> BoxedTm,
{
    let n = scripts.len();
    assert!(n > 0, "need at least one process");
    assert!(n <= 64, "parasitic and step masks are u64s");
    assert!(config.depth > 0, "depth must be at least 1");
    let tm = factory();
    assert_eq!(tm.process_count(), n, "factory must match scripts");
    let name = tm.name().to_string();
    config.telemetry.event(
        "run_start",
        &[
            ("engine", Json::str("livecheck")),
            ("tm", Json::str(name.as_str())),
            ("depth", Json::Int(config.depth as i64)),
            ("processes", Json::Int(n as i64)),
        ],
    );
    // Crashing every process trivially halts the run — cap the crash
    // budget at n−1 so a live step always exists below the depth bound.
    let faults = FaultConfig {
        max_crashes: config.faults.max_crashes.min(n - 1),
        ..config.faults
    };
    let meter = BudgetMeter::new(config.budget);
    let mut search = Search {
        config,
        space: GraphSpace::new(scripts, config.parasitic, config.telemetry.clone()),
        frames: Vec::new(),
        ids: Interner::new(),
        nodes: Vec::new(),
        pool: TmPool::for_tm(&tm).instrument(&config.telemetry),
        reduce: config.reduce,
        faults,
        meter: &meter,
        steps: 0,
        replayed: 0,
        dedup_hits: 0,
        cycles_detected: 0,
        eventless_cycles: 0,
        rejected_cycles: 0,
        crash_injected: 0,
        parasite_injected: 0,
        faults_injected: 0,
        seen_cycles: HashSet::default(),
        lassos: Vec::new(),
        truncated: false,
        trace_seed: config
            .telemetry
            .streams()
            .then(|| (tm.fork(), scripts.to_vec())),
    };
    let root_key = search.key_of(&tm);
    let root = search.intern(root_key);
    {
        let _span = config.telemetry.phase("livecheck", "search");
        // A panicking TM step unwinds out of the walk; the graph interned
        // so far still yields a sound partial report.
        let walk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            search.expand(Some(tm), root, config.depth);
        }));
        if walk.is_err() {
            meter.trip_external();
        }
    }
    search.into_report(name, config.depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_automata::FgpVariant;
    use tm_core::TVarId;
    use tm_stm::{FgpTm, GlobalLock, NOrec, Tl2};

    use crate::workload::PlannedOp;

    const X: TVarId = TVarId(0);

    /// A bounded-domain contended workload: constant writes, so the
    /// value space (and with it the canonical state graph) is finite.
    fn contended() -> Vec<ClientScript> {
        vec![
            ClientScript::new(vec![PlannedOp::Write(X, 1)]),
            ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
        ]
    }

    #[test]
    fn fgp_contention_yields_a_classified_starvation_lasso() {
        let report = livecheck(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &contended(),
            &LivecheckConfig::new(12),
        );
        // The certified verdict and a concrete witness must agree: some
        // schedule commits p1 forever while p2 aborts forever.
        let p2 = ProcessId(1);
        assert!(report.starving_processes().contains(&p2), "{report:?}");
        assert!(report
            .lassos
            .iter()
            .any(|l| l.starving().contains(&p2) && !l.progressing().is_empty()));
        assert_eq!(report.rejected_cycles, 0);
        assert!(!report.lasso_starvation_free());
    }

    #[test]
    fn global_lock_is_certified_starvation_free_at_the_bound() {
        let report = livecheck(
            || Box::new(GlobalLock::new(2, 1)),
            &contended(),
            &LivecheckConfig::new(12),
        );
        // The lock TM never aborts: nobody starves, nobody is parasitic —
        // but a crashed holder blocks the other process forever, which
        // the blocked verdict captures (the paper's §1.1 failure).
        assert!(report.lasso_starvation_free(), "{report:?}");
        assert!(!report.blocked_processes().is_empty());
        assert!(!report.progressing_processes().is_empty());
        assert_eq!(report.rejected_cycles, 0);
    }

    #[test]
    fn parasitic_reader_is_detected_as_parasitic() {
        // Figure 12's shape: p1 reads forever (never tryC), and under
        // greedy Fgp some schedule aborts p2 forever alongside it.
        let scripts = vec![
            ClientScript::new(vec![PlannedOp::Read(X)]),
            ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
        ];
        let report = livecheck(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &LivecheckConfig::new(10).with_parasitic(ProcessId(0)),
        );
        assert!(
            report.parasitic_processes().contains(&ProcessId(0)),
            "{report:?}"
        );
        assert!(report
            .lassos
            .iter()
            .any(|l| l.parasitic().contains(&ProcessId(0))));
        assert_eq!(report.rejected_cycles, 0);
    }

    #[test]
    fn dedup_collapses_the_search_and_findings_replay() {
        let shallow = livecheck(
            || Box::new(Tl2::new(2, 1)),
            &contended(),
            &LivecheckConfig::new(10),
        );
        assert!(shallow.dedup_hits > 0, "bounded workload must merge");
        // Steps grow with distinct states, not with 2^depth.
        assert!(
            shallow.steps < 1 << 10,
            "DAG collapse failed: {} steps",
            shallow.steps
        );
        assert_eq!(shallow.rejected_cycles, 0);
    }

    #[test]
    fn norec_and_tl2_canonicalization_admits_recurrence() {
        for (name, factory) in [
            (
                "tl2",
                Box::new(|| Box::new(Tl2::new(2, 1)) as BoxedTm) as Box<dyn Fn() -> BoxedTm>,
            ),
            ("norec", Box::new(|| Box::new(NOrec::new(2, 1)) as BoxedTm)),
        ] {
            let report = livecheck(&*factory, &contended(), &LivecheckConfig::new(12));
            // Version clocks are rank-canonicalized, so committing the
            // same values forever revisits the same canonical states:
            // cycles must exist and validate.
            assert!(report.cycles_detected > 0, "{name}: no cycles found");
            assert_eq!(report.rejected_cycles, 0, "{name}");
            assert!(!report.progressing_processes().is_empty(), "{name}");
        }
    }

    #[test]
    fn reduction_preserves_the_graph_and_every_finding() {
        for (name, factory) in [
            (
                "fgp",
                Box::new(|| Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)) as BoxedTm)
                    as Box<dyn Fn() -> BoxedTm>,
            ),
            ("tl2", Box::new(|| Box::new(Tl2::new(2, 1)) as BoxedTm)),
            (
                "global-lock",
                Box::new(|| Box::new(GlobalLock::new(2, 1)) as BoxedTm),
            ),
        ] {
            let plain = livecheck(&*factory, &contended(), &LivecheckConfig::new(12));
            let reduced = livecheck(
                &*factory,
                &contended(),
                &LivecheckConfig::new(12).with_reduction(),
            );
            assert_eq!(plain.states, reduced.states, "{name}");
            assert_eq!(plain.edges, reduced.edges, "{name}");
            assert_eq!(plain.cycles_detected, reduced.cycles_detected, "{name}");
            assert_eq!(plain.eventless_cycles, reduced.eventless_cycles, "{name}");
            assert_eq!(plain.lassos.len(), reduced.lassos.len(), "{name}");
            for (a, b) in plain.lassos.iter().zip(&reduced.lassos) {
                assert_eq!(a.schedule_prefix, b.schedule_prefix, "{name}");
                assert_eq!(a.schedule_cycle, b.schedule_cycle, "{name}");
                assert_eq!(a.classes, b.classes, "{name}");
            }
            assert_eq!(plain.verdicts, reduced.verdicts, "{name}");
            // Every re-walk the plain search paid in TM executions is
            // either executed once or replayed from the recorded graph.
            assert_eq!(
                plain.steps,
                reduced.steps + reduced.replayed_steps,
                "{name}"
            );
            assert!(
                reduced.steps < plain.steps,
                "{name}: reduction never fired ({} steps)",
                reduced.steps
            );
            assert_eq!(plain.replayed_steps, 0, "{name}");
        }
    }

    #[test]
    fn reduction_with_parasitic_processes_is_identical_too() {
        let scripts = vec![
            ClientScript::new(vec![PlannedOp::Read(X)]),
            ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
        ];
        let config = LivecheckConfig::new(10).with_parasitic(ProcessId(0));
        let plain = livecheck(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &config,
        );
        let reduced = livecheck(
            || Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &config.clone().with_reduction(),
        );
        assert_eq!(plain.states, reduced.states);
        assert_eq!(plain.edges, reduced.edges);
        assert_eq!(plain.lassos.len(), reduced.lassos.len());
        assert_eq!(plain.verdicts, reduced.verdicts);
        assert!(reduced
            .lassos
            .iter()
            .any(|l| l.parasitic().contains(&ProcessId(0))));
    }

    #[test]
    fn depth_one_explores_single_steps_only() {
        let report = livecheck(
            || Box::new(Tl2::new(2, 1)),
            &contended(),
            &LivecheckConfig::new(1),
        );
        assert_eq!(report.steps, 2);
        assert_eq!(report.cycles_detected, 0);
        assert!(report.lasso_starvation_free());
        // The reduced walk executes the same two transitions.
        let reduced = livecheck(
            || Box::new(Tl2::new(2, 1)),
            &contended(),
            &LivecheckConfig::new(1).with_reduction(),
        );
        assert_eq!(reduced.steps, 2);
        assert_eq!(reduced.replayed_steps, 0);
        assert_eq!(reduced.states, report.states);
    }
}
