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
//! A *configuration* is `(TM state, client cursors)`, and a graph *node*
//! is a configuration under a pair of fault masks (crashed and parasitic
//! processes). A node determines every future response and invocation,
//! so the bounded run graph is exactly the graph over nodes with one
//! edge per scheduler transition. Configurations are interned by their
//! canonical digests — [`tm_stm::SteppedTm::state_digest`] (whose
//! per-algorithm canonicalization contract normalizes unbounded version
//! clocks into rank patterns, making recurrence *possible* at all) and
//! [`crate::workload::Client::cursor`] (which excludes the commit/abort
//! tallies for the same reason). Fault states are interned whole to
//! dense ids, and a node is identified by `(configuration id,
//! fault-state id)`.
//!
//! The walk is one breadth-first worklist. It expands every node whose
//! shortest distance from the initial one is below
//! [`LivecheckConfig::depth`] exactly once (each live process's step,
//! then each fault transition, one edge per transition with its events),
//! and it interns, but does not expand, those at distance `depth`. Each
//! node keeps the edge that first reached it: its breadth-first *stem*.
//!
//! # Each TM transition once: the transition memo
//!
//! In the paper's fault model (§2.3) a crash or a parasitic turn is an
//! adversary move that leaves the TM and the clients alone: a crashed
//! process stops taking steps, a parasitic one never invokes `tryC`. So
//! a step of process `k` depends on its node's fault masks only through
//! whether `k` is parasitic. The walk keeps one representative TM box
//! and its client marks per configuration (those of the first node that
//! reached it) and a memo `(configuration, process, parasitic) →
//! (target configuration, step record)`. The first time a transition is
//! needed, the walk forks the representative, steps it and digests the
//! result; every later node of that configuration, under any fault
//! masks, reads the transition from the memo with no TM work. A fault
//! edge keeps its source's configuration, so it forks and digests
//! nothing. Fault-free, every node has its own configuration and every
//! step edge executes once; fault-prone, each TM transition executes
//! once however many fault masks reach it.
//!
//! The memo is sound by the digest contract the interner already relies
//! on: two TM states with equal digests and equal client cursors have
//! the same futures, which is what lets one node stand for every path
//! that reaches it. The memo extends that assumption from one fault mask
//! to all of them: a configuration reached under another mask is the
//! same configuration. [`livecheck_reference`] steps every edge on its
//! own concrete TM and re-checks every re-walked edge against the
//! recorded one, so the differential tests hold the memo to the
//! contract too.
//!
//! A representative is returned to the TM pool as soon as every memo
//! slot a node can ask of its configuration is filled: a process's
//! parasitic slot can be asked only when parasitic turns are quantified
//! or the process is statically parasitic, its plain slot only when it
//! is not statically parasitic. After that no miss can fork it.
//!
//! # Dense product-graph indexing
//!
//! The graph is the product of configurations and fault states, and
//! both factors already have dense ids, so the production walk indexes
//! it with no hashed node key, no per-node allocation and no copied
//! step records:
//!
//! * **Node rows.** Node ids live in one `Vec<u32>` row per fault-state
//!   id, indexed by configuration id, with a sentinel for "no node".
//!   Ids are assigned in first-seen order, as an interner would. A row
//!   grows only to the largest configuration id reached under its fault
//!   state, so the rows hold at most fault states × configurations
//!   cells: tmbench `liveness`'s fault-prone swisstm graph, 175,213
//!   nodes over 11,056 configurations and 32 fault states, takes 285,344
//!   cells, 1.1 MB (1.6 MB allocated), where a hash table of its nodes
//!   takes 262,144 buckets of a 12-byte entry and a control byte each
//!   (3.4 MB).
//! * **Move lists.** A node's scheduler transitions depend on its fault
//!   masks alone (and the run's fixed static parasitic mask), so each
//!   fault state lists its moves once, each fault move with its target
//!   fault-state id. Both walks read these lists; a fault edge hashes no
//!   fault masks.
//! * **Record table.** An edge is 12 bytes: its target node, its process
//!   and the `u32` id of its step record in one table, or a sentinel for
//!   a crash or a parasitic turn. The production walk pushes a record
//!   once per memo miss and the memo keeps its id, so every step edge of
//!   one TM transition shares one record.
//!
//! # Why breadth-first
//!
//! Breadth-first order reaches every node first along a shortest path,
//! so one expansion per node covers exactly the states and edges a
//! depth-budget DFS reaches, without the DFS's re-walks of subtrees that
//! a shorter path reaches again with a larger remaining budget. That DFS
//! is kept as [`livecheck_reference`], the differential oracle: it
//! re-executes every re-walked edge and checks it against the recorded
//! one, the digest contract one step deep.
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
//! its `GraphSpace` steps through the kernel's one stepper, TM
//! branching runs through the shared [`tm_stm::TmPool`], configurations
//! and fault states are interned through [`crate::engine::memo::Interner`]
//! (nodes are indexed by the two ids, see above), and resource
//! caps go through the kernel's [`BudgetMeter`]. The walk runs on one
//! thread: it beat a level-parallel frontier on every measured row, and
//! a per-process SCC fan-out gained nothing.

use std::collections::VecDeque;
use std::ops::Range;

use tm_core::{Event, ProcessId};
use tm_liveness::{
    classify, detect::lasso_from_cycle, CycleEdge, CycleGraph, CycleWitness, InfiniteHistory,
    LassoError, ProcessClass,
};
use tm_stm::{BoxedTm, SteppedTm, TmPool};
use tm_telemetry::{Counter, Json, Telemetry, Timer};

use crate::engine::budget::{Budget, BudgetMeter};
use crate::engine::memo::Interner;
use crate::engine::space::{emit_trace, step_process, StepRecord, TraceWitness};
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
    /// search, exhaustively explored. Fault masks are part of node
    /// identity (one configuration under different crash masks is a
    /// different node) and each lasso finding carries the
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
    /// Distinct nodes — configurations under fault masks — interned
    /// (including frontier nodes).
    pub states: usize,
    /// Edges of the explored graph.
    pub edges: usize,
    /// Process steps executed against a TM. [`livecheck`] executes each
    /// TM transition — `(configuration, process, parasitic)` — once and
    /// reads every other step edge from its transition memo, so it
    /// executes each step edge once fault-free and fewer steps than step
    /// edges fault-prone; [`livecheck_reference`] executes every step
    /// edge it walks, re-walks included. Fault edges execute nothing.
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

/// [`Edge::record`] of a crash edge.
const CRASH: u32 = u32::MAX;
/// [`Edge::record`] of a parasitic-turn edge.
const PARASITE: u32 = u32::MAX - 1;

impl EdgeKind {
    /// The kind as an [`Edge::record`]: a fault's sentinel, or the id of
    /// a step's record once pushed onto `records`.
    fn record(self, records: &mut Vec<StepRecord>) -> u32 {
        match self {
            EdgeKind::Step(record) => push_record(records, record),
            EdgeKind::Crash => CRASH,
            EdgeKind::Parasite => PARASITE,
        }
    }
}

/// Pushes `record` onto the record table and returns its id.
fn push_record(records: &mut Vec<StepRecord>, record: StepRecord) -> u32 {
    let id = u32::try_from(records.len())
        .ok()
        .filter(|&id| id < PARASITE)
        .expect("graph exceeds u32 step records");
    records.push(record);
    id
}

/// One edge of the explored configuration graph (see the module docs'
/// "Dense product-graph indexing" section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    target: u32,
    /// The id of the step's record in [`Explored::records`], or
    /// [`CRASH`] or [`PARASITE`] for a fault edge.
    record: u32,
    process: u8,
}

impl Edge {
    fn new(target: u32, k: usize, record: u32) -> Self {
        Edge {
            target,
            record,
            process: u8::try_from(k).expect("≤ 64 processes"),
        }
    }

    /// What the edge did, its step record read from `records`.
    fn kind(&self, records: &[StepRecord]) -> EdgeKind {
        match self.record {
            CRASH => EdgeKind::Crash,
            PARASITE => EdgeKind::Parasite,
            id => EdgeKind::Step(records[id as usize]),
        }
    }

    /// The edge as the certification graph sees it; `None` for a fault
    /// edge.
    fn cycle_edge(&self, records: &[StepRecord]) -> Option<CycleEdge> {
        let EdgeKind::Step(record) = self.kind(records) else {
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

impl Move {
    /// The process the transition steps or faults.
    fn process(self) -> usize {
        let (Move::Step(k) | Move::Crash(k) | Move::Parasite(k)) = self;
        k
    }
}

/// The explored graph as both walks hand it to the report: nodes in id
/// order, node `u`'s out-edges at `edges[offsets[u]..offsets[u + 1]]`,
/// and the step records the edges point into.
struct Explored {
    nodes: Vec<Node>,
    offsets: Vec<u32>,
    edges: Vec<Edge>,
    records: Vec<StepRecord>,
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
            match edge.kind(&self.records) {
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
                .find_map(|e| match e.kind(&self.records) {
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

/// The liveness checker's search state: the client cursors and fault
/// masks of the node being expanded, plus the static parasitic mask the
/// stepper needs. (No certifier: liveness is decided on the recorded
/// graph, not per history prefix.)
struct GraphSpace {
    clients: Vec<Client>,
    /// Scratch for the stepper's events; each edge keeps its step's
    /// events in its [`StepRecord`].
    history: Vec<Event>,
    /// The *static* parasitic mask ([`LivecheckConfig::with_parasitic`]);
    /// fault-induced parasitism lives in [`GraphSpace::fstate`] and the
    /// stepper honours the union of both.
    parasitic: u64,
    /// Crash/parasitic masks of the current node, read from the fault
    /// state table.
    fstate: FaultState,
    telemetry: Telemetry,
}

impl GraphSpace {
    /// The canonical configuration key — `(TM state digest, clients
    /// digest)`. Equal keys mean observationally equivalent
    /// configurations (every future invocation and response coincides);
    /// this is what the configuration interner hashes.
    fn config_key(&self, tm: &BoxedTm) -> (u64, u64) {
        let tm_digest = tm
            .state_digest()
            .expect("livecheck requires a fingerprinting TM (SteppedTm::state_digest)");
        (tm_digest, clients_digest(&self.clients))
    }

    /// The branching factor: one successor per process.
    fn width(&self) -> usize {
        self.clients.len()
    }

    /// Whether process `k` steps parasitically under the current masks.
    fn is_parasitic(&self, k: usize) -> bool {
        (self.parasitic | self.fstate.parasitic) & (1 << k) != 0
    }

    /// Snapshots the client cursor `step(k)` will advance.
    fn mark(&mut self, k: usize) -> ClientMark {
        self.clients[k].mark()
    }

    /// Executes one scheduler step of process `k` against `tm`.
    fn step(&mut self, tm: &mut BoxedTm, k: usize) -> StepRecord {
        let parasitic = self.is_parasitic(k);
        let started = self.telemetry.timer_start();
        let record = step_process(
            &mut **tm,
            &mut self.clients,
            k,
            parasitic,
            &mut self.history,
        );
        self.telemetry.timer_stop(Timer::Step, started);
        self.history.clear();
        record
    }

    /// Unwinds one [`GraphSpace::step`] of process `k`.
    fn rewind(&mut self, k: usize, mark: ClientMark) {
        self.clients[k].restore(mark);
    }
}

/// The fault states a run reaches, interned whole to dense ids, each
/// with its scheduler transitions listed once and its row of node ids
/// (see the module docs' "Dense product-graph indexing" section).
struct FaultStates {
    ids: Interner<FaultState>,
    /// The masks of each fault-state id.
    masks: Vec<FaultState>,
    /// Fault state `f`'s transitions are `moves[spans[f]]`, each with
    /// its target fault-state id; `None` until first listed.
    spans: Vec<Option<Range<usize>>>,
    moves: Vec<(Move, u32)>,
    /// `rows[f][config]`: the node id of configuration `config` under
    /// fault state `f`, or [`NO_NODE`].
    rows: Vec<Vec<u32>>,
}

impl FaultStates {
    /// The table of a run, holding the fault-free state as id 0.
    fn new() -> Self {
        let mut states = FaultStates {
            ids: Interner::new(),
            masks: Vec::new(),
            spans: Vec::new(),
            moves: Vec::new(),
            rows: Vec::new(),
        };
        states.intern(FaultState::none());
        states
    }

    fn intern(&mut self, masks: FaultState) -> u32 {
        let (id, fresh) = self.ids.intern(masks);
        if fresh {
            self.masks.push(masks);
            self.spans.push(None);
            self.rows.push(Vec::new());
        }
        id
    }

    /// The indices into `moves` of the transitions out of any node of
    /// fault state `fault`, in canonical order: live process steps
    /// ascending, then crashes ascending, then parasitic turns ascending.
    /// Statically parasitic processes (`parasitic`) get no parasitic
    /// turn: it would change the node identity without changing any
    /// future behaviour.
    fn moves(
        &mut self,
        fault: u32,
        faults: &FaultConfig,
        parasitic: u64,
        width: usize,
    ) -> Range<usize> {
        if let Some(span) = &self.spans[fault as usize] {
            return span.clone();
        }
        let masks = self.masks[fault as usize];
        let start = self.moves.len();
        for k in (0..width).filter(|&k| !masks.is_crashed(k)) {
            self.moves.push((Move::Step(k), fault));
        }
        if faults.enabled() {
            for k in (0..width).filter(|&k| masks.can_crash(faults, k)) {
                let mut target = masks;
                target.crash(k);
                let target = self.intern(target);
                self.moves.push((Move::Crash(k), target));
            }
            for k in
                (0..width).filter(|&k| masks.can_parasite(faults, k) && parasitic & (1 << k) == 0)
            {
                let mut target = masks;
                target.parasite(k);
                let target = self.intern(target);
                self.moves.push((Move::Parasite(k), target));
            }
        }
        self.spans[fault as usize] = Some(start..self.moves.len());
        start..self.moves.len()
    }
}

/// A node-row cell with no node.
const NO_NODE: u32 = u32::MAX;

/// The state both walks share: the configuration interner, the fault
/// states with their node rows, the node table and the run's tallies.
struct Walker<'a> {
    space: GraphSpace,
    /// `(state digest, clients digest)` → configuration id.
    configs: Interner<(u64, u64)>,
    fault_states: FaultStates,
    nodes: Vec<Node>,
    pool: TmPool,
    /// The run's fault quantification, crash budget pre-clamped to n−1.
    faults: FaultConfig,
    meter: &'a BudgetMeter,
    steps: usize,
    /// Step edges the production walk read from its transition memo.
    memo_hits: u64,
    /// Fault transitions exercised, as process bitmasks (for the
    /// `fault_injected` events and the report).
    crash_injected: u64,
    parasite_injected: u64,
    faults_injected: u64,
}

impl Walker<'_> {
    /// Interns `tm`'s configuration under fault state `fault`, first
    /// reached along `stem`. Returns the node id and whether it is new.
    fn intern(&mut self, tm: &BoxedTm, fault: u32, stem: Option<(u32, u32)>) -> (u32, bool) {
        let (config, _) = self.configs.intern(self.space.config_key(tm));
        self.intern_node(config, fault, stem)
    }

    /// The node of configuration `config` under fault state `fault`,
    /// assigned the next id on first sight along `stem`. Returns the node
    /// id and whether it is new.
    fn intern_node(&mut self, config: u32, fault: u32, stem: Option<(u32, u32)>) -> (u32, bool) {
        let (config, fault) = (config as usize, fault as usize);
        let row = &mut self.fault_states.rows[fault];
        if row.len() <= config {
            row.resize(config + 1, NO_NODE);
        }
        if row[config] != NO_NODE {
            return (row[config], false);
        }
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != NO_NODE)
            .expect("state graph exceeds u32 nodes");
        row[config] = id;
        self.nodes.push(Node {
            crashed: self.fault_states.masks[fault].crashed,
            stem,
        });
        (id, true)
    }

    /// The indices into `fault_states.moves` of the transitions out of a
    /// node of fault state `fault`.
    fn moves(&mut self, fault: u32) -> Range<usize> {
        self.fault_states.moves(
            fault,
            &self.faults,
            self.space.parasitic,
            self.space.width(),
        )
    }

    /// Counts fault transition `mv` for the report and returns its kind.
    fn tally(&mut self, mv: Move) -> EdgeKind {
        self.faults_injected += 1;
        match mv {
            Move::Crash(k) => {
                self.crash_injected |= 1 << k;
                EdgeKind::Crash
            }
            Move::Parasite(k) => {
                self.parasite_injected |= 1 << k;
                EdgeKind::Parasite
            }
            Move::Step(_) => unreachable!("a process step is not a fault"),
        }
    }

    /// Takes `mv` into fault state `fault` from node `source` on `tm`,
    /// whose box is the child's: steps the process (or moves the fault
    /// masks) and interns the target. Returns the target node, what the
    /// edge did, and the client mark that restores the source node.
    fn take(
        &mut self,
        tm: &mut BoxedTm,
        source: u32,
        slot: usize,
        (mv, fault): (Move, u32),
    ) -> (u32, EdgeKind, ClientMark) {
        let k = mv.process();
        let mark = self.space.mark(k);
        let kind = match mv {
            Move::Step(_) => {
                self.steps += 1;
                EdgeKind::Step(self.space.step(tm, k))
            }
            _ => {
                self.space.fstate = self.fault_states.masks[fault as usize];
                self.tally(mv)
            }
        };
        let (target, _) = self.intern(tm, fault, stem(source, slot));
        (target, kind, mark)
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

/// The stem of a node first reached by out-edge `slot` of `source`.
fn stem(source: u32, slot: usize) -> Option<(u32, u32)> {
    Some((source, u32::try_from(slot).expect("≤ 64 processes")))
}

/// The production walk's per-configuration tables (see the module docs'
/// "Each TM transition once" section), indexed by configuration id.
struct Transitions {
    width: usize,
    /// How many of a configuration's `2 · width` memo slots some node can
    /// ask (see [`Transitions::new`]).
    askable: u8,
    /// The representative box of each configuration; `None` for one
    /// first reached at the depth bound, which no node expands, and
    /// once all its askable memo slots are filled.
    tms: Vec<Option<BoxedTm>>,
    /// The representative's client marks, `width` per configuration.
    marks: Vec<ClientMark>,
    /// `memo[(config · width + k) · 2 + parasitic]`: the target
    /// configuration and record id of that step, once executed.
    memo: Vec<Option<(u32, u32)>>,
    /// Memo slots filled, per configuration.
    filled: Vec<u8>,
}

impl Transitions {
    /// The tables of a run over `width` processes with static parasitic
    /// mask `parasitic`. A process's plain slot can be asked unless it is
    /// statically parasitic; its parasitic slot only if it is, or if
    /// `parasitic_turns` quantifies parasitic turns.
    fn new(width: usize, parasitic: u64, parasitic_turns: bool) -> Self {
        let askable = (0..width)
            .map(|k| match parasitic & (1 << k) != 0 {
                true => 1,
                false => 1 + u8::from(parasitic_turns),
            })
            .sum();
        Transitions {
            width,
            askable,
            tms: Vec::new(),
            marks: Vec::new(),
            memo: Vec::new(),
            filled: Vec::new(),
        }
    }

    /// Adds the next configuration, represented by `tm` and `clients`.
    fn push(&mut self, tm: Option<BoxedTm>, clients: &[Client]) {
        self.tms.push(tm);
        self.marks.extend(clients.iter().map(Client::mark));
        self.memo.resize(self.memo.len() + 2 * self.width, None);
        self.filled.push(0);
    }

    fn slot(&self, config: u32, k: usize, parasitic: bool) -> usize {
        (config as usize * self.width + k) * 2 + usize::from(parasitic)
    }

    /// Fills memo slot `slot` of configuration `config`. Returns the
    /// configuration's representative once no miss can ask for it.
    fn fill(&mut self, config: u32, slot: usize, entry: (u32, u32)) -> Option<BoxedTm> {
        self.memo[slot] = Some(entry);
        let filled = &mut self.filled[config as usize];
        *filled += 1;
        if *filled == self.askable {
            self.tms[config as usize].take()
        } else {
            None
        }
    }
}

impl Walker<'_> {
    /// The production walk: expands every node at distance below `depth`
    /// once, breadth-first, and interns those at `depth`. Each worklist
    /// entry is a node's distance, configuration and fault-state id; its TM
    /// and clients are its configuration's representative. Nodes are
    /// expanded in the order they were interned, so node `u` is the
    /// `u`-th expanded.
    fn walk_levels(&mut self, graph: &mut Explored, root: BoxedTm, depth: usize) {
        let width = self.space.width();
        let mut table = Transitions::new(width, self.space.parasitic, self.faults.allow_parasitic);
        table.push(Some(root), &self.space.clients);
        let mut queue = VecDeque::from([(0, 0, 0)]);
        while let Some((distance, config, fault)) = queue.pop_front() {
            if !self.meter.note_state() {
                return;
            }
            let source = u32::try_from(graph.offsets.len() - 1).expect("u32 nodes");
            let expand = distance + 1 < depth;
            self.space.fstate = self.fault_states.masks[fault as usize];
            let moves = self.moves(fault);
            for i in moves.clone() {
                let (mv, target_fault) = self.fault_states.moves[i];
                let (target, record) = match mv {
                    Move::Step(k) => {
                        self.transition(&mut table, &mut graph.records, config, k, expand)
                    }
                    _ => (config, self.tally(mv).record(&mut graph.records)),
                };
                let (node, fresh) =
                    self.intern_node(target, target_fault, stem(source, i - moves.start));
                graph.edges.push(Edge::new(node, mv.process(), record));
                if fresh && expand {
                    queue.push_back((distance + 1, target, target_fault));
                }
            }
            graph
                .offsets
                .push(u32::try_from(graph.edges.len()).expect("graph exceeds u32 edges"));
        }
    }

    /// The step of process `k` from configuration `config` under the
    /// current fault masks, as its target configuration and record id:
    /// read from the memo or, the first time, run on a fork of the
    /// configuration's representative, its record pushed onto `records`
    /// and its target interned as a configuration. A fresh target keeps
    /// the stepped box as its representative when `expand` says its node
    /// is expanded.
    fn transition(
        &mut self,
        table: &mut Transitions,
        records: &mut Vec<StepRecord>,
        config: u32,
        k: usize,
        expand: bool,
    ) -> (u32, u32) {
        let slot = table.slot(config, k, self.space.is_parasitic(k));
        if let Some(hit) = table.memo[slot] {
            self.memo_hits += 1;
            return hit;
        }
        self.steps += 1;
        let n = table.width;
        let marks = &table.marks[config as usize * n..][..n];
        for (client, &mark) in self.space.clients.iter_mut().zip(marks) {
            client.restore(mark);
        }
        let representative = table.tms[config as usize]
            .as_ref()
            .expect("an expanded configuration keeps its representative");
        let mut tm = self.pool.fork_child(representative);
        let record = self.space.step(&mut tm, k);
        let (target, fresh) = self.configs.intern(self.space.config_key(&tm));
        let kept = if fresh && expand {
            Some(tm)
        } else {
            self.pool.put_back(tm);
            None
        };
        if fresh {
            table.push(kept, &self.space.clients);
        }
        let entry = (target, push_record(records, record));
        if let Some(done) = table.fill(config, slot, entry) {
            self.pool.put_back(done);
        }
        entry
    }
}

/// The reference walk's own bookkeeping: per-node edge lists (it expands
/// nodes out of id order), the records they point into, and the largest
/// remaining budget each node was expanded with (0 = never).
struct Reference {
    edges: Vec<Vec<Edge>>,
    records: Vec<StepRecord>,
    budget: Vec<usize>,
    check: DigestCheck,
}

impl Walker<'_> {
    /// The reference walk: a DFS bounded by the remaining budget, which
    /// re-expands a node whenever it is reached with a larger budget than
    /// before and re-executes every edge of that re-expansion. A
    /// re-executed edge is compared with the recorded one. `u` is a node
    /// of fault state `fault`, whose masks the space holds. Returns the
    /// box of `u` for recycling, when it was not consumed.
    fn walk_budget(
        &mut self,
        reference: &mut Reference,
        tm: BoxedTm,
        (u, fault): (u32, u32),
        remaining: usize,
    ) -> Option<BoxedTm> {
        if !self.meter.note_state() {
            return Some(tm);
        }
        let first = reference.budget[u as usize] == 0;
        reference.budget[u as usize] = remaining;
        let moves = self.moves(fault);
        let mut parent = Some(tm);
        let mut kept = None;
        for (i, index) in moves.clone().enumerate() {
            let mv = self.fault_states.moves[index];
            let mut tm = self.child_box(&mut parent, i, moves.len());
            let (target, kind, mark) = self.take(&mut tm, u, i, mv);
            let k = mv.0.process();
            reference.edges.resize_with(self.nodes.len(), Vec::new);
            reference.budget.resize(self.nodes.len(), 0);
            if first {
                let record = kind.record(&mut reference.records);
                reference.edges[u as usize].push(Edge::new(target, k, record));
            } else {
                reference.check.rechecked += 1;
                let recorded = reference.edges[u as usize][i];
                if (recorded.target, recorded.process as usize) != (target, k)
                    || recorded.kind(&reference.records) != kind
                {
                    reference.check.mismatches += 1;
                }
            }
            let tm = if remaining > 1 && reference.budget[target as usize] < remaining - 1 {
                self.walk_budget(reference, tm, (target, mv.1), remaining - 1)
            } else {
                Some(tm)
            };
            self.space.rewind(k, mark);
            self.space.fstate = self.fault_states.masks[fault as usize];
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
        configs: Interner::new(),
        fault_states: FaultStates::new(),
        nodes: Vec::new(),
        pool: TmPool::for_tm(&tm).instrument(&config.telemetry),
        faults,
        meter,
        steps: 0,
        memo_hits: 0,
        crash_injected: 0,
        parasite_injected: 0,
        faults_injected: 0,
    };
    walker.intern(&tm, 0, None);
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
        records: Vec::new(),
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
        records: Vec::new(),
        budget: vec![0],
        check: DigestCheck::default(),
    };
    contained(config, &meter, || {
        walker.walk_budget(&mut reference, tm, (0, 0), config.depth);
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
        records: std::mem::take(&mut reference.records),
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
            graph
                .out_edges(u)
                .iter()
                .filter_map(|e| e.cycle_edge(&graph.records)),
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
    telemetry.add(Counter::MemoHits, walker.memo_hits);
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
    fn edge_size_is_pinned() {
        // The production walk stores one edge per transition: its
        // target, its process and its step record's id, 12 bytes on
        // every target. No field may grow it past that.
        assert!(std::mem::size_of::<Edge>() <= 12);
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
