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
//! builds that graph and decides it.
//!
//! # The canonical state graph
//!
//! A *configuration* is `(TM state, client cursors, fault masks)`; it
//! determines every future response and invocation, so the bounded run
//! graph is exactly the graph over configurations with one edge per
//! scheduler transition. Configurations are interned by their canonical
//! digests — [`tm_stm::SteppedTm::state_digest`] (whose per-algorithm
//! canonicalization contract normalizes unbounded version clocks into
//! rank patterns, making recurrence *possible* at all) and
//! [`crate::workload::Client::cursor`] (which excludes the commit/abort
//! tallies for the same reason).
//!
//! The walk is one breadth-first worklist. It expands every
//! configuration whose shortest distance from the initial one is below
//! [`LivecheckConfig::depth`] exactly once (stepping each live process,
//! then each fault transition, and recording one edge per transition
//! with its events), and it interns, but does not expand, those at
//! distance `depth`. Each node keeps the edge that first reached it: its
//! breadth-first *stem*.
//!
//! # Why breadth-first
//!
//! Breadth-first order reaches every configuration first along a
//! shortest path, so one expansion per configuration covers exactly the
//! states and edges a depth-budget DFS reaches, without the DFS's
//! re-walks of subtrees that a shorter path reaches again with a larger
//! remaining budget. That DFS is kept as [`livecheck_reference`], the
//! differential oracle: it re-executes every re-walked edge and checks
//! it against the recorded one, the digest contract one step deep.
//!
//! # Certified verdicts: the SCC pass
//!
//! After the walk the recorded graph is copied once into a
//! [`tm_liveness::CycleGraph`], and one [`tm_liveness::certify`] call
//! decides every process's plain and fair verdicts exactly (see that
//! module for the per-verdict edge filters):
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
//! certificate.
//!
//! # Lassos: concrete witnesses
//!
//! The same call returns, for each certified plain progressing, starving
//! or parasitic verdict, a closed walk inside one component of that
//! verdict's filtered graph ([`tm_liveness::CycleWitness`]). Its lasso's
//! prefix is the stem of the walk's first node; prefix and cycle are
//! read off the recorded edges, with no TM work, validated by
//! [`tm_liveness::detect::lasso_from_cycle`] (a rejection counts in
//! [`LivecheckReport::rejected_cycles`]) and classified with the paper's
//! Figure 2 taxonomy ([`fn@tm_liveness::classify`]). A report thus holds
//! at most three lassos per process. Blocked cycles have **no events**
//! (a process polling a withheld response forever, Figure 14's shape),
//! so they admit no `InfiniteHistory` and stay verdict-only.
//!
//! # Parasitic processes
//!
//! [`LivecheckConfig::with_parasitic`] marks processes that never invoke
//! `tryC` (§2.3): their clients loop their operations via
//! [`Client::restart_transaction`] instead of reaching the script's
//! implicit commit. This reproduces the Figure 12 shape — a parasitic
//! reader starving a writer — mechanically.
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

use std::collections::VecDeque;

use tm_core::{Event, ProcessId};
use tm_liveness::{
    classify, detect::lasso_from_cycle, CycleEdge, CycleGraph, CycleWitness, InfiniteHistory,
    LassoError, ProcessClass,
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
    /// Bitmask of processes that never invoke `tryC` (loop their
    /// operations forever): the paper's parasitic processes.
    parasitic: u64,
    /// Fault quantification: with a non-trivial config, `crash(p)` /
    /// `parasite(p)` become scheduler-level transitions of the graph
    /// search, exhaustively explored. Fault state folds into node
    /// identities (same TM state under different crash masks is a
    /// different configuration) and each lasso finding carries the
    /// concrete [`FaultPlan`] its stem chose. With
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
    /// Exploration to `depth`.
    pub fn new(depth: usize) -> Self {
        LivecheckConfig {
            depth,
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

    /// Returns the configuration unchanged: the walk always executes
    /// each graph transition once. Kept only because the benchmark
    /// (`tmbench`) still calls it.
    pub fn with_reduction(self) -> Self {
        self
    }

    /// Marks `process` parasitic: it loops its script's operations
    /// forever instead of ever invoking `tryC`.
    pub fn with_parasitic(mut self, process: ProcessId) -> Self {
        assert!(process.index() < 64, "parasitic mask is a u64");
        self.parasitic |= 1 << process.index();
        self
    }

    /// Attaches a telemetry handle (counters, phase spans and — when the
    /// handle streams — NDJSON progress events).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }
}

/// A concrete lasso read off a certified component: a schedule the
/// adversarial scheduler can repeat forever, with the paper's
/// per-process classification of the resulting infinite history.
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
    /// The certified plain verdict this lasso witnesses: the process and
    /// its class on the lasso (progressing, starving or parasitic).
    pub witnesses: (ProcessId, ProcessClass),
    /// The concrete fault placements on the stem reaching this lasso
    /// (`at_step` indexes into `schedule_prefix · schedule_cycle`,
    /// process steps only). Empty for fault-free stems.
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
    /// Process steps executed against a TM. [`livecheck`] executes each
    /// step edge once; [`livecheck_reference`] also counts its re-walks.
    /// Fault edges execute nothing.
    pub steps: usize,
    /// Witness cycles rejected by lasso validation — always 0 unless a
    /// TM's fingerprint canonicalization is unsound.
    pub rejected_cycles: usize,
    /// One lasso per certified plain progressing, starving or parasitic
    /// verdict, ordered by process and then in that order.
    pub lassos: Vec<LassoFinding>,
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

/// What [`livecheck_reference`]'s re-walks found when they re-executed
/// an already recorded edge and compared the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestCheck {
    /// Edges re-executed on a re-walk and compared with the recorded one.
    pub rechecked: usize,
    /// Re-executed edges that differed from the recorded one in target,
    /// process, kind or events. Each is a `state_digest` that merged
    /// configurations with different futures.
    pub mismatches: usize,
}

/// What kind of scheduler transition an edge is: a process step with
/// what it did, or one of the fault transitions a [`FaultConfig`] adds.
/// Fault edges carry no events, leave the TM untouched, and — because
/// fault masks only grow along edges while node identity includes
/// them — can never lie on a cycle, so they are excluded from the SCC
/// certification graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    Step(StepRecord),
    Crash,
    Parasite,
}

/// One edge of the explored configuration graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    target: u32,
    process: u8,
    kind: EdgeKind,
}

impl Edge {
    /// The edge as the certification graph sees it; `None` for a fault
    /// edge.
    fn cycle_edge(&self) -> Option<CycleEdge> {
        let EdgeKind::Step(record) = self.kind else {
            return None;
        };
        let response = record.response();
        Some(CycleEdge {
            target: self.target,
            process: self.process,
            events: record.event_count(),
            committed: response == Some(tm_core::Response::Committed),
            aborted: response == Some(tm_core::Response::Aborted),
            tryc: record.invoked_tryc(),
        })
    }
}

/// One interned configuration.
struct Node {
    /// Crashed-process mask of this configuration (0 without fault
    /// quantification) — the per-node input the fairness certificates
    /// need to exempt dead processes.
    crashed: u64,
    /// The edge that first reached this node, as `(source, index among
    /// the source's out-edges)`; `None` at the root. Following it back
    /// gives the node's stem.
    stem: Option<(u32, u32)>,
}

/// A scheduler transition out of the current configuration.
#[derive(Debug, Clone, Copy)]
enum Move {
    Step(usize),
    Crash(usize),
    Parasite(usize),
}

/// The explored graph as both walks hand it to the report: nodes in id
/// order, node `u`'s out-edges at `edges[offsets[u]..offsets[u + 1]]`.
struct Explored {
    nodes: Vec<Node>,
    offsets: Vec<u32>,
    edges: Vec<Edge>,
}

impl Explored {
    fn out_edges(&self, u: usize) -> &[Edge] {
        &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Closes the offsets of the nodes never expanded (the depth
    /// frontier, or everything after a tripped budget or a panic).
    fn close(&mut self) {
        let end = u32::try_from(self.edges.len()).expect("graph exceeds u32 edges");
        self.offsets.resize(self.nodes.len() + 1, end);
    }

    /// The lasso witnessing `witness`: the stem of its first node as the
    /// prefix, the walk as the cycle, both read off the recorded edges.
    fn lasso(&self, witness: &CycleWitness, processes: usize) -> Result<LassoFinding, LassoError> {
        let mut stem = Vec::new();
        let mut at = witness.walk[0].0;
        while let Some((source, slot)) = self.nodes[at as usize].stem {
            stem.push(self.out_edges(source as usize)[slot as usize]);
            at = source;
        }
        let (mut prefix, mut schedule_prefix, mut faults) = (Vec::new(), Vec::new(), Vec::new());
        for edge in stem.iter().rev() {
            let process = ProcessId(edge.process as usize);
            let at_step = schedule_prefix.len();
            match edge.kind {
                EdgeKind::Step(record) => {
                    prefix.extend(record.events(process).into_iter().flatten());
                    schedule_prefix.push(process);
                }
                EdgeKind::Crash => faults.push(Fault::Crash { process, at_step }),
                EdgeKind::Parasite => faults.push(Fault::Parasitic { process, at_step }),
            }
        }
        let (mut cycle, mut schedule_cycle) = (Vec::new(), Vec::new());
        for &(u, q) in &witness.walk {
            let record = self
                .out_edges(u as usize)
                .iter()
                .find_map(|e| match e.kind {
                    EdgeKind::Step(record) if e.process == q => Some(record),
                    _ => None,
                })
                .expect("a witness walks recorded step edges");
            let process = ProcessId(q as usize);
            cycle.extend(record.events(process).into_iter().flatten());
            schedule_cycle.push(process);
        }
        let lasso = lasso_from_cycle(&prefix, &cycle)?;
        let classes = (0..processes)
            .map(|k| (ProcessId(k), classify(&lasso, ProcessId(k))))
            .collect();
        Ok(LassoFinding {
            schedule_prefix,
            schedule_cycle,
            lasso,
            classes,
            witnesses: (witness.process, witness.class),
            plan: FaultPlan::from_faults(faults),
        })
    }
}

/// The liveness checker's instantiation of the kernel's [`SearchSpace`]:
/// the client cursors and fault masks of the configuration being
/// expanded, plus the static parasitic mask the stepper needs. (No
/// certifier: liveness is decided on the recorded graph, not per
/// history prefix.)
struct GraphSpace {
    clients: Vec<Client>,
    /// Scratch for the stepper's events; each edge keeps its step's
    /// events in its [`StepRecord`].
    history: Vec<Event>,
    /// The *static* parasitic mask ([`LivecheckConfig::with_parasitic`]);
    /// fault-induced parasitism lives in [`GraphSpace::fstate`] and the
    /// stepper honours the union of both.
    parasitic: u64,
    /// Crash/parasitic masks of the current configuration, changed only
    /// by fault transitions.
    fstate: FaultState,
    telemetry: Telemetry,
}

impl GraphSpace {
    /// The canonical configuration key — `(TM state digest, clients
    /// digest, fault-state key)`. Equal keys mean observationally
    /// equivalent configurations (every future invocation and response
    /// coincides); this is what the node interner hashes. The same
    /// TM/client state under different crash/parasitic masks has
    /// different futures and must be a different node.
    fn config_key(&self, tm: &BoxedTm) -> (u64, u64, u64) {
        let tm_digest = tm
            .state_digest()
            .expect("livecheck requires a fingerprinting TM (SteppedTm::state_digest)");
        (tm_digest, clients_digest(&self.clients), self.fstate.key())
    }
}

impl SearchSpace for GraphSpace {
    type Mark = ClientMark;

    fn width(&self) -> usize {
        self.clients.len()
    }

    fn mark(&mut self, k: usize) -> ClientMark {
        self.clients[k].mark()
    }

    fn step(&mut self, tm: &mut BoxedTm, k: usize) -> StepRecord {
        let parasitic = (self.parasitic | self.fstate.parasitic) & (1 << k) != 0;
        let started = self.telemetry.timer_start();
        let record = step_process(tm, &mut self.clients, k, parasitic, &mut self.history);
        self.telemetry.timer_stop(Timer::Step, started);
        self.history.clear();
        record
    }

    fn rewind(&mut self, k: usize, mark: ClientMark) {
        self.clients[k].restore(mark);
    }
}

/// The state both walks share: the configuration being expanded, the
/// node table and the run's tallies.
struct Walker<'a> {
    space: GraphSpace,
    ids: Interner<(u64, u64, u64)>,
    nodes: Vec<Node>,
    pool: TmPool,
    /// The run's fault quantification, crash budget pre-clamped to n−1.
    faults: FaultConfig,
    meter: &'a BudgetMeter,
    steps: usize,
    /// Fault transitions exercised, as process bitmasks (for the
    /// `fault_injected` events and the report).
    crash_injected: u64,
    parasite_injected: u64,
    faults_injected: u64,
}

impl Walker<'_> {
    /// Interns the current configuration, first reached along `stem`.
    /// Returns its id and whether it is new.
    fn intern(&mut self, tm: &BoxedTm, stem: Option<(u32, u32)>) -> (u32, bool) {
        let (id, fresh) = self.ids.intern(self.space.config_key(tm));
        if fresh {
            self.nodes.push(Node {
                crashed: self.space.fstate.crashed,
                stem,
            });
        }
        (id, fresh)
    }

    /// The transitions out of the current configuration, in canonical
    /// order: live process steps ascending, then crashes ascending, then
    /// parasitic turns ascending. Statically parasitic processes get no
    /// parasitic turn: it would change the node identity without
    /// changing any future behaviour.
    fn moves(&self) -> Vec<Move> {
        let fstate = &self.space.fstate;
        let n = self.space.width();
        let mut moves: Vec<Move> = (0..n)
            .filter(|&k| !fstate.is_crashed(k))
            .map(Move::Step)
            .collect();
        if self.faults.enabled() {
            moves.extend(
                (0..n)
                    .filter(|&k| fstate.can_crash(&self.faults, k))
                    .map(Move::Crash),
            );
            moves.extend(
                (0..n)
                    .filter(|&k| {
                        fstate.can_parasite(&self.faults, k) && self.space.parasitic & (1 << k) == 0
                    })
                    .map(Move::Parasite),
            );
        }
        moves
    }

    /// Takes `mv` from node `source` on `tm`, whose box is the child's:
    /// steps the process (or moves the fault masks) and interns the
    /// target. Returns the edge, whether its target is new, and what
    /// [`Walker::undo`] needs to restore the source configuration.
    fn take(
        &mut self,
        tm: &mut BoxedTm,
        source: u32,
        slot: usize,
        mv: Move,
    ) -> (Edge, bool, (ClientMark, FaultState)) {
        let (Move::Step(k) | Move::Crash(k) | Move::Parasite(k)) = mv;
        let saved = (self.space.mark(k), self.space.fstate);
        let kind = match mv {
            Move::Step(_) => {
                self.steps += 1;
                EdgeKind::Step(self.space.step(tm, k))
            }
            Move::Crash(_) => {
                self.space.fstate.crash(k);
                self.crash_injected |= 1 << k;
                self.faults_injected += 1;
                EdgeKind::Crash
            }
            Move::Parasite(_) => {
                self.space.fstate.parasite(k);
                self.parasite_injected |= 1 << k;
                self.faults_injected += 1;
                EdgeKind::Parasite
            }
        };
        let slot = u32::try_from(slot).expect("≤ 64 processes");
        let (target, fresh) = self.intern(tm, Some((source, slot)));
        let edge = Edge {
            target,
            process: u8::try_from(k).expect("≤ 64 processes"),
            kind,
        };
        (edge, fresh, saved)
    }

    /// Restores the source configuration after [`Walker::take`].
    fn undo(&mut self, edge: &Edge, (mark, fstate): (ClientMark, FaultState)) {
        self.space.rewind(edge.process as usize, mark);
        self.space.fstate = fstate;
    }

    /// The box for child `i` of `moves` children: a pool fork of the
    /// parent's, except that the last child takes the parent's box.
    fn child_box(&mut self, parent: &mut Option<BoxedTm>, i: usize, moves: usize) -> BoxedTm {
        if i + 1 == moves {
            parent.take().expect("the last child takes the box")
        } else {
            self.pool
                .fork_child(parent.as_ref().expect("the parent box is still owned"))
        }
    }
}

impl Walker<'_> {
    /// The production walk: expands every configuration at distance
    /// below `depth` once, breadth-first, and interns those at `depth`.
    /// Each worklist entry holds a configuration's distance, TM and fault
    /// masks; its client marks wait in `marks`, one per process, in the
    /// same order. Configurations are expanded in the order they were
    /// interned, so node `u` is the `u`-th expanded.
    fn walk_levels(&mut self, graph: &mut Explored, root: BoxedTm, depth: usize) {
        let mut queue = VecDeque::from([(0, root, self.space.fstate)]);
        let mut marks: VecDeque<ClientMark> = self.space.clients.iter().map(Client::mark).collect();
        while let Some((distance, tm, fstate)) = queue.pop_front() {
            if !self.meter.note_state() {
                return;
            }
            let source = u32::try_from(graph.offsets.len() - 1).expect("u32 nodes");
            for client in &mut self.space.clients {
                client.restore(marks.pop_front().expect("one mark per process"));
            }
            self.space.fstate = fstate;
            let moves = self.moves();
            let mut parent = Some(tm);
            for (i, &mv) in moves.iter().enumerate() {
                let mut tm = self.child_box(&mut parent, i, moves.len());
                let (edge, fresh, saved) = self.take(&mut tm, source, i, mv);
                graph.edges.push(edge);
                if fresh && distance + 1 < depth {
                    queue.push_back((distance + 1, tm, self.space.fstate));
                    marks.extend(self.space.clients.iter().map(Client::mark));
                } else {
                    self.pool.put_back(tm);
                }
                self.undo(&edge, saved);
            }
            graph
                .offsets
                .push(u32::try_from(graph.edges.len()).expect("graph exceeds u32 edges"));
        }
    }
}

/// The reference walk's own bookkeeping: per-node edge lists (it expands
/// nodes out of id order) and the largest remaining budget each node was
/// expanded with (0 = never).
struct Reference {
    edges: Vec<Vec<Edge>>,
    budget: Vec<usize>,
    check: DigestCheck,
}

impl Walker<'_> {
    /// The reference walk: a DFS bounded by the remaining budget, which
    /// re-expands a node whenever it is reached with a larger budget than
    /// before and re-executes every edge of that re-expansion. A
    /// re-executed edge is compared with the recorded one. Returns the
    /// box of `u` for recycling, when it was not consumed.
    fn walk_budget(
        &mut self,
        reference: &mut Reference,
        tm: BoxedTm,
        u: u32,
        remaining: usize,
    ) -> Option<BoxedTm> {
        if !self.meter.note_state() {
            return Some(tm);
        }
        let first = reference.budget[u as usize] == 0;
        reference.budget[u as usize] = remaining;
        let moves = self.moves();
        let mut parent = Some(tm);
        let mut kept = None;
        for (i, &mv) in moves.iter().enumerate() {
            let mut tm = self.child_box(&mut parent, i, moves.len());
            let (edge, _, saved) = self.take(&mut tm, u, i, mv);
            reference.edges.resize_with(self.nodes.len(), Vec::new);
            reference.budget.resize(self.nodes.len(), 0);
            if first {
                reference.edges[u as usize].push(edge);
            } else {
                reference.check.rechecked += 1;
                if reference.edges[u as usize][i] != edge {
                    reference.check.mismatches += 1;
                }
            }
            let tm = if remaining > 1 && reference.budget[edge.target as usize] < remaining - 1 {
                self.walk_budget(reference, tm, edge.target, remaining - 1)
            } else {
                Some(tm)
            };
            self.undo(&edge, saved);
            match tm {
                Some(tm) if i + 1 == moves.len() => kept = Some(tm),
                Some(tm) => self.pool.put_back(tm),
                None => {}
            }
        }
        kept
    }
}

/// The run's fixed inputs, checked and announced: the root TM, the
/// walker around it and the interned root.
fn start<'a, F>(
    factory: F,
    scripts: &[ClientScript],
    config: &LivecheckConfig,
    meter: &'a BudgetMeter,
) -> (BoxedTm, Walker<'a>, String)
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
    let mut walker = Walker {
        space: GraphSpace {
            clients: scripts.iter().cloned().map(Client::new).collect(),
            history: Vec::new(),
            parasitic: config.parasitic,
            fstate: FaultState::none(),
            telemetry: config.telemetry.clone(),
        },
        ids: Interner::new(),
        nodes: Vec::new(),
        pool: TmPool::for_tm(&tm).instrument(&config.telemetry),
        faults,
        meter,
        steps: 0,
        crash_injected: 0,
        parasite_injected: 0,
        faults_injected: 0,
    };
    walker.intern(&tm, None);
    (tm, walker, name)
}

/// Runs `walk` under the `search` span and one `catch_unwind`: a
/// panicking TM step unwinds out of the walk, and the graph interned so
/// far still yields a sound partial report.
fn contained(config: &LivecheckConfig, meter: &BudgetMeter, walk: impl FnOnce()) {
    let _span = config.telemetry.phase("livecheck", "search");
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(walk)).is_err() {
        meter.trip_external();
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
    let meter = BudgetMeter::new(config.budget);
    let (tm, mut walker, name) = start(factory, scripts, config, &meter);
    let trace_seed = config.telemetry.streams().then(|| tm.fork());
    let mut graph = Explored {
        nodes: Vec::new(),
        offsets: vec![0],
        edges: Vec::new(),
    };
    contained(config, &meter, || {
        walker.walk_levels(&mut graph, tm, config.depth);
    });
    graph.nodes = std::mem::take(&mut walker.nodes);
    into_report(walker, graph, config, name, trace_seed, scripts)
}

/// The differential oracle of [`livecheck`]: the plain depth-budget DFS
/// (see the module docs' "Why breadth-first" section). It reaches the
/// same states, edges and verdicts; its witnesses may differ, because
/// its node order does. Every re-walked edge is re-executed and compared
/// with the recorded one; the [`DigestCheck`] counts the comparisons and
/// the mismatches. Its report counts the re-executions in
/// [`LivecheckReport::steps`].
///
/// # Panics
///
/// As [`livecheck`].
pub fn livecheck_reference<F>(
    factory: F,
    scripts: &[ClientScript],
    config: &LivecheckConfig,
) -> (LivecheckReport, DigestCheck)
where
    F: Fn() -> BoxedTm,
{
    let meter = BudgetMeter::new(config.budget);
    let (tm, mut walker, name) = start(factory, scripts, config, &meter);
    let trace_seed = config.telemetry.streams().then(|| tm.fork());
    let mut reference = Reference {
        edges: vec![Vec::new()],
        budget: vec![0],
        check: DigestCheck::default(),
    };
    contained(config, &meter, || {
        walker.walk_budget(&mut reference, tm, 0, config.depth);
    });
    let nodes = std::mem::take(&mut walker.nodes);
    reference.edges.resize_with(nodes.len(), Vec::new);
    let mut offsets = vec![0u32];
    for edges in &reference.edges {
        let end = offsets.last().copied().unwrap_or(0) as usize + edges.len();
        offsets.push(u32::try_from(end).expect("graph exceeds u32 edges"));
    }
    let graph = Explored {
        nodes,
        offsets,
        edges: reference.edges.concat(),
    };
    let check = reference.check;
    (
        into_report(walker, graph, config, name, trace_seed, scripts),
        check,
    )
}

/// Assembles the report: counters, the SCC-certified verdicts, and a
/// lasso per witness.
fn into_report(
    mut walker: Walker<'_>,
    mut graph: Explored,
    config: &LivecheckConfig,
    tm: String,
    trace_seed: Option<BoxedTm>,
    scripts: &[ClientScript],
) -> LivecheckReport {
    // The pool normally flushes its fork tallies at drop, which is
    // after the counter_snapshot below — flush now so the emitted
    // snapshot carries the complete run.
    walker.pool.flush_counters();
    graph.close();
    let processes = walker.space.width();
    // The certification graph keeps process steps only: fault masks
    // grow strictly along fault edges while node identity includes
    // them, so a fault edge can never lie on a cycle — dropping them
    // here (node count preserved) changes no certificate and keeps
    // every SCC at a constant fault state.
    let mut cycles = CycleGraph::with_capacity(graph.nodes.len(), graph.edges.len());
    for (u, node) in graph.nodes.iter().enumerate() {
        cycles.push_node(
            node.crashed,
            graph.out_edges(u).iter().filter_map(Edge::cycle_edge),
        );
    }
    let telemetry = config.telemetry.clone();
    let certificate = {
        let _span = telemetry.phase("livecheck", "scc_certify");
        tm_liveness::certify(&cycles, processes)
    };
    drop(cycles);
    let mut lassos = Vec::new();
    let mut rejected_cycles = 0;
    for witness in &certificate.witnesses {
        match graph.lasso(witness, processes) {
            Ok(finding) => {
                if telemetry.streams() {
                    stream_lasso(config, &finding, lassos.len(), trace_seed.as_ref(), scripts);
                }
                lassos.push(finding);
            }
            Err(_) => rejected_cycles += 1,
        }
    }
    let report = LivecheckReport {
        tm,
        depth: config.depth,
        states: graph.nodes.len(),
        edges: graph.edges.len(),
        steps: walker.steps,
        rejected_cycles,
        lassos,
        verdicts: certificate.verdicts,
        fair_verdicts: certificate.fair,
        crash_injected: walker.crash_injected,
        parasite_injected: walker.parasite_injected,
        exhausted: walker.meter.exhausted().map(str::to_string),
    };
    // The deterministic end-of-run flush: every count below comes
    // from the report itself (fixed properties of the bounded
    // graph), so the snapshot is thread-count-invariant.
    telemetry.add(Counter::GraphNodes, report.states as u64);
    telemetry.add(Counter::GraphEdges, report.edges as u64);
    telemetry.add(Counter::StepsExecuted, report.steps as u64);
    telemetry.add(Counter::LassosFound, report.lassos.len() as u64);
    telemetry.add(Counter::FaultsInjected, walker.faults_injected);
    if telemetry.streams() {
        stream_verdict(&telemetry, &report, processes);
    }
    report
}

/// Streams one `lasso_found` event and, right after it, the witness's
/// `trace`: prefix + cycle replayed from a fork of the root, out of band
/// and off the counters.
fn stream_lasso(
    config: &LivecheckConfig,
    finding: &LassoFinding,
    idx: usize,
    root: Option<&BoxedTm>,
    scripts: &[ClientScript],
) {
    let procs = |ps: &[ProcessId]| Json::Arr(ps.iter().map(|p| Json::Int(p.0 as i64)).collect());
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
    config.telemetry.event("lasso_found", &fields);
    if let Some(root) = root {
        let mut schedule = finding.schedule_prefix.clone();
        schedule.extend_from_slice(&finding.schedule_cycle);
        emit_trace(
            &config.telemetry,
            &TraceWitness {
                engine: "livecheck",
                kind: "lasso",
                idx,
                cycle_start: Some(finding.schedule_prefix.len()),
            },
            root.fork(),
            scripts,
            config.parasitic,
            &finding.plan,
            &schedule,
        );
    }
}

/// Streams the run's closing events: the fault transitions exercised,
/// the final heartbeat, the counter snapshot and the verdict.
fn stream_verdict(telemetry: &Telemetry, report: &LivecheckReport, processes: usize) {
    // One `fault_injected` event per distinct fault transition the
    // search exercised (zero in fault-free runs — the stream stays
    // byte-identical).
    for (mask, kind) in [
        (report.crash_injected, "crash"),
        (report.parasite_injected, "parasite"),
    ] {
        for k in (0..processes).filter(|k| mask & (1 << k) != 0) {
            telemetry.event(
                "fault_injected",
                &[
                    ("engine", Json::str("livecheck")),
                    ("kind", Json::str(kind)),
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
    // A tripped budget downgrades the verdict: `partial` + the reason
    // instead of a `starvation_free` claim the truncated search cannot
    // back.
    let claim = match &report.exhausted {
        Some(reason) => {
            telemetry.event(
                "budget_exhausted",
                &[
                    ("engine", Json::str("livecheck")),
                    ("reason", Json::str(reason.as_str())),
                ],
            );
            vec![
                ("partial", Json::Bool(true)),
                ("reason", Json::str(reason.as_str())),
            ]
        }
        None => vec![(
            "starvation_free",
            Json::Bool(report.lasso_starvation_free()),
        )],
    };
    let mut fields = vec![
        ("engine", Json::str("livecheck")),
        ("tm", Json::str(report.tm.as_str())),
    ];
    fields.extend(claim);
    fields.extend([
        ("states", Json::Int(report.states as i64)),
        ("edges", Json::Int(report.edges as i64)),
        ("lassos", Json::Int(report.lassos.len() as i64)),
        ("depth", Json::Int(report.depth as i64)),
    ]);
    telemetry.event("verdict", &fields);
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

    /// The production walk against the reference: the same graph,
    /// verdicts, fault masks and witnessed verdicts; a digest contract
    /// that held on every re-executed edge; and every re-executed step
    /// accounted for.
    fn assert_matches_reference(
        name: &str,
        factory: &dyn Fn() -> BoxedTm,
        scripts: &[ClientScript],
        config: &LivecheckConfig,
    ) -> LivecheckReport {
        let production = livecheck(factory, scripts, config);
        let (reference, check) = livecheck_reference(factory, scripts, config);
        let claims = |r: &LivecheckReport| {
            let witnessed: Vec<_> = r.lassos.iter().map(|l| l.witnesses).collect();
            format!(
                "{} {} {:?} {:?} {witnessed:?}",
                r.states, r.edges, r.verdicts, r.fair_verdicts
            )
        };
        assert_eq!(claims(&production), claims(&reference), "{name}");
        assert_eq!(check.mismatches, 0, "{name}: {check:?}");
        assert_eq!(
            reference.steps,
            production.steps + check.rechecked,
            "{name}"
        );
        production
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
        // More edges than a tree over the states: paths merge.
        assert!(
            shallow.edges > shallow.states - 1,
            "bounded workload must merge"
        );
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
            assert!(!report.lassos.is_empty(), "{name}: no cycles found");
            assert_eq!(report.rejected_cycles, 0, "{name}");
            assert!(!report.progressing_processes().is_empty(), "{name}");
        }
    }

    #[test]
    fn production_walk_matches_the_reference_walk() {
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
            let report =
                assert_matches_reference(name, &*factory, &contended(), &LivecheckConfig::new(12));
            assert_eq!(report.rejected_cycles, 0, "{name}");
        }
    }

    #[test]
    fn parasitic_production_walk_matches_the_reference_walk() {
        let scripts = vec![
            ClientScript::new(vec![PlannedOp::Read(X)]),
            ClientScript::new(vec![PlannedOp::Read(X), PlannedOp::Write(X, 2)]),
        ];
        let report = assert_matches_reference(
            "fgp",
            &|| Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)),
            &scripts,
            &LivecheckConfig::new(10).with_parasitic(ProcessId(0)),
        );
        assert!(report
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
        assert!(report.lassos.is_empty());
        assert!(report.lasso_starvation_free());
        // The reference walk executes the same two transitions.
        let (reference, check) = livecheck_reference(
            || Box::new(Tl2::new(2, 1)),
            &contended(),
            &LivecheckConfig::new(1),
        );
        assert_eq!(reference.steps, 2);
        assert_eq!(check, DigestCheck::default());
        assert_eq!(reference.states, report.states);
    }
}
