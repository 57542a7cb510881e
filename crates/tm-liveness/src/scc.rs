//! Certified cycle-existence verdicts over explored state graphs.
//!
//! The liveness model checker (`tm_sim::livecheck`) records the explored
//! configuration graph explicitly and needs **completeness** claims over
//! it: "no cycle starves process `p` within the bound". This module
//! decides cycle existence exactly, per process, by strongly connected
//! components (Tarjan over edge-filtered views of a [`CycleGraph`]): an
//! edge lies on a cycle of a filtered graph iff both endpoints share an
//! SCC.
//!
//! [`certify`] answers every question with `1 + 3·processes` Tarjan
//! passes (10 for three processes):
//!
//! 1. one pass over the whole graph, which decides `progressing`;
//! 2. **intra-component pruning**: every edge whose endpoints lie in
//!    different full-graph SCCs is dropped, and so is every node left
//!    without edges. A filtered subgraph's cycles are cycles of the full
//!    graph, so no filtered verdict can use a dropped edge;
//! 3. one pass per process and filter (starving, parasitic, blocked)
//!    over that much smaller core. Each pass's per-component summary
//!    yields both the plain verdict (a kept want edge inside a
//!    component) and the fair one (the same component also schedules or
//!    has crashed every process).
//!
//! Every plain `progressing`, `starving` and `parasitic` verdict also
//! comes with a [`CycleWitness`]: a closed walk read off the same
//! components, through the first want edge in node order and back to
//! its source by breadth-first search. Blocked cycles carry no events,
//! so they stay verdict-only.
//!
//! The passes run in process-id order on one thread. A rayon fan-out
//! over the processes measured no faster, so there is none.

use std::collections::VecDeque;

use tm_core::ProcessId;

use crate::classify::ProcessClass;

/// One labelled edge of an explored configuration graph, in the compact
/// form the cycle certificates need: the scheduled process and what its
/// step did (event count, commit/abort delivery, `tryC` invocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleEdge {
    /// Index of the target node in the graph.
    pub target: u32,
    /// The process whose step this edge is.
    pub process: u8,
    /// How many events the step produced (0 for a blocked poll).
    pub events: u8,
    /// The step delivered `Committed` to its process.
    pub committed: bool,
    /// The step delivered `Aborted` to its process.
    pub aborted: bool,
    /// The step invoked `tryC`.
    pub tryc: bool,
}

/// An explored configuration graph in compressed sparse row form: the
/// out-edges of every node in one array, indexed by per-node offsets,
/// plus each node's crashed-process mask (all zeros for a fault-free
/// graph). Nodes are numbered in [`CycleGraph::push_node`] order.
#[derive(Debug, Clone)]
pub struct CycleGraph {
    /// `edges[offsets[u]..offsets[u + 1]]` are node `u`'s out-edges.
    offsets: Vec<u32>,
    edges: Vec<CycleEdge>,
    crashed: Vec<u64>,
}

impl CycleGraph {
    /// An empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        CycleGraph {
            offsets,
            edges: Vec::with_capacity(edges),
            crashed: Vec::with_capacity(nodes),
        }
    }

    /// Appends the next node with its crashed-process mask and its
    /// out-edges. Edge targets may name nodes not pushed yet, but every
    /// target must exist by the time the graph is certified.
    pub fn push_node(&mut self, crashed: u64, edges: impl IntoIterator<Item = CycleEdge>) {
        self.edges.extend(edges);
        let end = u32::try_from(self.edges.len()).expect("graph exceeds u32 edges");
        self.offsets.push(end);
        self.crashed.push(crashed);
    }

    fn node_count(&self) -> usize {
        self.crashed.len()
    }

    fn out_edges(&self, u: usize) -> &[CycleEdge] {
        &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

/// Certified cycle-existence verdicts for one process over an explored
/// subgraph (see the module docs).
///
/// Each flag is an independent **existential** claim — "some cycle with
/// this shape exists" — and different flags are generally witnessed by
/// *different* cycles, so several can hold at once. In particular a
/// process modelled as parasitic (it never invokes `tryC`) can be
/// certified both `parasitic` (a cycle where its reads succeed forever)
/// *and* `starving` (a cycle where the TM aborts those reads forever):
/// by the paper's Figure 2 definitions a history with infinitely many
/// `A_k` is **not** parasitic — the process is correct and pending,
/// i.e. starving — and [`crate::classify()`] returns exactly that on the
/// corresponding lasso witnesses. Within any *one* cycle the classes
/// remain mutually exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessCycleVerdicts {
    /// The process.
    pub process: ProcessId,
    /// A cycle commits the process infinitely often.
    pub progressing: bool,
    /// A cycle aborts the process infinitely often and never commits it.
    pub starving: bool,
    /// A cycle gives the process infinitely many events but finitely
    /// many `tryC`/aborts.
    pub parasitic: bool,
    /// A cycle schedules the process forever without the TM ever
    /// responding (blocking, the Figure 14 shape).
    pub blocked: bool,
}

/// Fairness-filtered cycle-existence verdicts for one process.
///
/// The plain [`ProcessCycleVerdicts`] quantify over *all* cycles — a
/// starving verdict may be witnessed by a lasso whose scheduler simply
/// abandons every other process. The fair verdicts restrict each
/// existential claim to cycles along which **every live (non-crashed)
/// process is scheduled infinitely often** — the weak-fairness filter of
/// the paper's §2 schedules. A flag that holds unfairly but not fairly
/// is therefore *scheduler-induced*; a flag that survives the filter is
/// induced by the TM itself (or, when [`FairProcessVerdicts::crash_victim`]
/// is set, by a crash the TM cannot recover from — the Theorem 1
/// adversary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairProcessVerdicts {
    /// The process.
    pub process: ProcessId,
    /// A fair cycle aborts the process infinitely often, never commits it.
    pub starving: bool,
    /// A fair cycle gives the process infinitely many events but finitely
    /// many `tryC`/aborts.
    pub parasitic: bool,
    /// A fair cycle schedules the process forever without a response.
    pub blocked: bool,
    /// Some witnessing fair starving/blocked cycle runs in a region of
    /// the graph where at least one process has crashed: the starvation
    /// is crash-induced (Theorem 1's shape), not reachable fault-free.
    pub crash_victim: bool,
}

/// A closed walk witnessing one plain verdict: it stays inside one
/// component of the verdict's filtered graph and repeats its want edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleWitness {
    /// The process the verdict is about.
    pub process: ProcessId,
    /// The verdict: [`ProcessClass::Progressing`],
    /// [`ProcessClass::Starving`] or [`ProcessClass::Parasitic`].
    pub class: ProcessClass,
    /// The walk as `(node, process)` steps, each naming the node's
    /// out-edge of that process. It starts at the source of the want
    /// edge and ends back there. A pair is unambiguous because the
    /// graphs livecheck certifies have at most one edge per process per
    /// node.
    pub walk: Vec<(u32, u8)>,
}

/// Everything [`certify`] decides about one graph, per process in
/// process-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The plain cycle-existence verdicts.
    pub verdicts: Vec<ProcessCycleVerdicts>,
    /// The fairness-filtered verdicts.
    pub fair: Vec<FairProcessVerdicts>,
    /// One witness per plain `progressing`, `starving` and `parasitic`
    /// verdict, in that order within each process.
    pub witnesses: Vec<CycleWitness>,
}

/// A cycle shape [`certify`] decides, as two edge filters for a process
/// `p`: the edges such a cycle may `keep`, and the edge it must repeat
/// (`want`).
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `p` commits infinitely often.
    Progressing,
    /// `p` aborts infinitely often and never commits.
    Starving,
    /// `p` takes effective steps but never `tryC`, commits or aborts.
    Parasitic,
    /// `p` is scheduled but never gets an event.
    Blocked,
}

impl Shape {
    fn keep(self, p: u8, e: &CycleEdge) -> bool {
        let mine = e.process == p;
        match self {
            Shape::Progressing => true,
            Shape::Starving => !(mine && e.committed),
            Shape::Parasitic => !(mine && (e.committed || e.aborted || e.tryc)),
            Shape::Blocked => !(mine && e.events > 0),
        }
    }

    fn want(self, p: u8, e: &CycleEdge) -> bool {
        e.process == p
            && match self {
                Shape::Progressing => e.committed,
                Shape::Starving => e.aborted,
                Shape::Parasitic => e.events > 0,
                Shape::Blocked => e.events == 0,
            }
    }
}

const UNVISITED: u32 = u32::MAX;

/// Scratch arrays of the iterative Tarjan passes, reused across passes.
#[derive(Default)]
struct Tarjan {
    index: Vec<u32>,
    low: Vec<u32>,
    /// The component id of every node after [`Tarjan::run`]. During a
    /// pass a visited node is on the Tarjan stack iff its entry is
    /// still [`UNVISITED`].
    comp: Vec<u32>,
    stack: Vec<u32>,
    /// (node, next edge offset) — an explicit call stack.
    call: Vec<(u32, u32)>,
}

impl Tarjan {
    /// Labels every node of `graph` with its SCC over the edges passing
    /// `keep`; returns the number of components. Nodes without edges are
    /// singleton components at O(1) cost, off the Tarjan stack.
    fn run(&mut self, graph: &CycleGraph, keep: impl Fn(&CycleEdge) -> bool) -> usize {
        let n = graph.node_count();
        let offsets = &graph.offsets;
        let edges = &graph.edges;
        let edgeless = |u: usize| offsets[u] == offsets[u + 1];
        self.index.clear();
        self.index.resize(n, UNVISITED);
        self.low.resize(n, 0);
        self.comp.clear();
        self.comp.resize(n, UNVISITED);
        let (index, low, comp) = (&mut self.index, &mut self.low, &mut self.comp);
        let (stack, call) = (&mut self.stack, &mut self.call);
        let mut next_index = 0u32;
        let mut next_comp = 0u32;
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            if edgeless(root) {
                comp[root] = next_comp;
                next_comp += 1;
                continue;
            }
            stack.push(root as u32);
            call.push((root as u32, offsets[root]));
            while let Some(&(v, cursor)) = call.last() {
                let vu = v as usize;
                let end = offsets[vu + 1];
                let mut at = cursor;
                while at < end && !keep(&edges[at as usize]) {
                    at += 1;
                }
                if at < end {
                    call.last_mut().expect("v is on the call stack").1 = at + 1;
                    let w = edges[at as usize].target;
                    let wu = w as usize;
                    if index[wu] == UNVISITED {
                        index[wu] = next_index;
                        low[wu] = next_index;
                        next_index += 1;
                        if edgeless(wu) {
                            comp[wu] = next_comp;
                            next_comp += 1;
                        } else {
                            stack.push(w);
                            call.push((w, offsets[wu]));
                        }
                    } else if comp[wu] == UNVISITED {
                        low[vu] = low[vu].min(index[wu]);
                    }
                } else {
                    call.pop();
                    if low[vu] == index[vu] {
                        loop {
                            let w = stack.pop().expect("root still on stack");
                            comp[w as usize] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                    if let Some(&(parent, _)) = call.last() {
                        let pu = parent as usize;
                        low[pu] = low[pu].min(low[vu]);
                    }
                }
            }
        }
        next_comp as usize
    }
}

/// What one filtered pass certifies: some kept `want` edge lies inside a
/// component (`unfair`), some such component is also fair (`fair`), and
/// some fair witness component has a non-empty crashed mask (`victim`).
#[derive(Default)]
struct FilterVerdict {
    unfair: bool,
    fair: bool,
    victim: bool,
}

/// Per-component summary of one filtered pass.
#[derive(Clone, Copy, Default)]
struct Component {
    /// Processes with a kept intra-component edge.
    scheduled: u64,
    /// Union of the component's crashed masks.
    crashed: u64,
    /// A kept `want` edge is intra-component.
    want: bool,
}

/// One Tarjan pass over the graph restricted to `shape`'s kept edges for
/// process `p`, and its component summary.
///
/// The unfair flag needs a kept intra-component `want` edge. The fair
/// flag also needs every live process to have a kept intra-component
/// edge or to have crashed in that component — the exact criterion for
/// a **fair** cycle with the wanted recurring shape. Soundness and
/// completeness both follow from strong connectivity: any fair cycle
/// lies inside one SCC of the kept graph and contributes an
/// intra-component edge per live process plus the recurring want edge;
/// conversely, given those edges, strong connectivity stitches them into
/// one closed walk that schedules every live process and repeats the
/// want edge infinitely often.
///
/// Fault masks only grow along edges, so every node of a cycle-bearing
/// SCC carries the same mask; processes crashed in a component are
/// exempt from its fairness obligation.
///
/// With `witness` set, a certified unfair flag also returns its
/// [`closed_walk`].
fn filter_pass(
    graph: &CycleGraph,
    tarjan: &mut Tarjan,
    live: u64,
    (shape, p): (Shape, u8),
    witness: bool,
) -> (FilterVerdict, Option<Vec<(u32, u8)>>) {
    let keep = |e: &CycleEdge| shape.keep(p, e);
    let ncomp = tarjan.run(graph, keep);
    let comp = &tarjan.comp;
    let mut summary = vec![Component::default(); ncomp];
    for (u, &c) in comp.iter().enumerate() {
        let s = &mut summary[c as usize];
        s.crashed |= graph.crashed[u];
        for e in graph.out_edges(u) {
            if keep(e) && comp[e.target as usize] == c {
                s.scheduled |= 1 << e.process;
                s.want |= shape.want(p, e);
            }
        }
    }
    let mut verdict = FilterVerdict::default();
    for s in summary.iter().filter(|s| s.want) {
        verdict.unfair = true;
        if (s.scheduled | s.crashed) & live == live {
            verdict.fair = true;
            verdict.victim |= s.crashed != 0;
        }
    }
    let walk = (witness && verdict.unfair)
        .then(|| closed_walk(graph, comp, (shape, p)))
        .flatten();
    (verdict, walk)
}

/// A closed walk inside one component of `comp` (components over
/// `shape`'s kept edges for `p`): the first kept want edge in node order
/// whose endpoints share a component, then a shortest kept path from its
/// target back to its source, found by breadth-first search inside that
/// component. `None` when no want edge lies inside a component.
fn closed_walk(
    graph: &CycleGraph,
    comp: &[u32],
    (shape, p): (Shape, u8),
) -> Option<Vec<(u32, u8)>> {
    let inside = |u: usize, e: &CycleEdge| shape.keep(p, e) && comp[e.target as usize] == comp[u];
    let (source, want) = (0..graph.node_count()).find_map(|u| {
        graph
            .out_edges(u)
            .iter()
            .find(|e| shape.want(p, e) && inside(u, e))
            .map(|e| (u, *e))
    })?;
    let start = want.target as usize;
    // `prev[v]` is the step that first reached `v`; `start` marks itself.
    let mut prev = vec![(UNVISITED, 0u8); graph.node_count()];
    prev[start] = (want.target, want.process);
    let mut queue = VecDeque::from([start]);
    while let Some(u) = queue.pop_front() {
        if u == source {
            break;
        }
        for e in graph.out_edges(u).iter().filter(|e| inside(u, e)) {
            let t = e.target as usize;
            if prev[t].0 == UNVISITED {
                prev[t] = (u as u32, e.process);
                queue.push_back(t);
            }
        }
    }
    let mut back = Vec::new();
    let mut at = source;
    while at != start {
        let step = prev[at];
        back.push(step);
        at = step.0 as usize;
    }
    let mut walk = vec![(source as u32, want.process)];
    walk.extend(back.into_iter().rev());
    Some(walk)
}

/// Certifies every process's plain and fairness-filtered cycle verdicts
/// over the explored graph, with a witness per plain `progressing`,
/// `starving` and `parasitic` verdict (see the module docs for the
/// passes).
///
/// Plain verdicts quantify over all cycles; fair verdicts keep only
/// cycles that schedule every live process infinitely often, where a
/// process crashed in a component is exempt from that component's
/// obligation. Both use the same edge filters, so `fair.starving →
/// plain.starving` etc. by construction, and a witness walks the
/// filtered graph its verdict was decided on.
///
/// # Panics
///
/// If `processes` exceeds 64, or an edge targets a node the graph does
/// not have.
pub fn certify(graph: &CycleGraph, processes: usize) -> Certificate {
    assert!(processes <= 64, "process masks are u64s");
    let mut tarjan = Tarjan::default();
    tarjan.run(graph, |_| true);
    let full = &tarjan.comp;
    let intra = |u: usize, e: &CycleEdge| full[u] == full[e.target as usize];
    // The core: nodes with an edge inside their full component, densely
    // renumbered in node order. Both endpoints of an intra-component
    // edge are in it; `members` maps core ids back.
    let mut local = vec![UNVISITED; graph.node_count()];
    let mut members = Vec::new();
    let mut kept_edges = 0usize;
    let mut progressing = 0u64;
    for (u, slot) in local.iter_mut().enumerate() {
        let mut any = false;
        for e in graph.out_edges(u).iter().filter(|e| intra(u, e)) {
            any = true;
            kept_edges += 1;
            if e.committed {
                progressing |= 1 << e.process;
            }
        }
        if any {
            *slot = members.len() as u32;
            members.push(u as u32);
        }
    }
    let progressing_walks: Vec<Option<Vec<(u32, u8)>>> = (0..processes)
        .map(|k| {
            let p = u8::try_from(k).expect("≤ 64 processes");
            (progressing >> k & 1 != 0)
                .then(|| closed_walk(graph, full, (Shape::Progressing, p)))
                .flatten()
        })
        .collect();
    let mut core = CycleGraph::with_capacity(members.len(), kept_edges);
    for &u in &members {
        let u = u as usize;
        core.push_node(
            graph.crashed[u],
            graph
                .out_edges(u)
                .iter()
                .filter(|e| intra(u, e))
                .map(|e| CycleEdge {
                    target: local[e.target as usize],
                    ..*e
                }),
        );
    }
    let live = if processes == 64 {
        u64::MAX
    } else {
        (1u64 << processes) - 1
    };
    let mut verdicts = Vec::with_capacity(processes);
    let mut fair = Vec::with_capacity(processes);
    let mut witnesses = Vec::new();
    for (k, progressing_walk) in progressing_walks.into_iter().enumerate() {
        let p = u8::try_from(k).expect("≤ 64 processes");
        let process = ProcessId(k);
        let (starving, starving_walk) =
            filter_pass(&core, &mut tarjan, live, (Shape::Starving, p), true);
        let (parasitic, parasitic_walk) =
            filter_pass(&core, &mut tarjan, live, (Shape::Parasitic, p), true);
        let (blocked, _) = filter_pass(&core, &mut tarjan, live, (Shape::Blocked, p), false);
        verdicts.push(ProcessCycleVerdicts {
            process,
            progressing: progressing >> k & 1 != 0,
            starving: starving.unfair,
            parasitic: parasitic.unfair,
            blocked: blocked.unfair,
        });
        fair.push(FairProcessVerdicts {
            process,
            starving: starving.fair,
            parasitic: parasitic.fair,
            blocked: blocked.fair,
            crash_victim: starving.victim || blocked.victim,
        });
        let lift = |walk: Vec<(u32, u8)>| {
            walk.iter()
                .map(|&(u, q)| (members[u as usize], q))
                .collect()
        };
        for (class, walk) in [
            (ProcessClass::Progressing, progressing_walk),
            (ProcessClass::Starving, starving_walk.map(lift)),
            (ProcessClass::Parasitic, parasitic_walk.map(lift)),
        ] {
            witnesses.extend(walk.map(|walk| CycleWitness {
                process,
                class,
                walk,
            }));
        }
    }
    Certificate {
        verdicts,
        fair,
        witnesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(target: u32, process: u8, committed: bool, aborted: bool) -> CycleEdge {
        CycleEdge {
            target,
            process,
            events: 2,
            committed,
            aborted,
            tryc: committed || aborted,
        }
    }

    fn eventless(target: u32, process: u8) -> CycleEdge {
        CycleEdge {
            target,
            process,
            events: 0,
            committed: false,
            aborted: false,
            tryc: false,
        }
    }

    /// A [`CycleGraph`] from adjacency lists and per-node crashed masks.
    fn graph(adjacency: &[Vec<CycleEdge>], crashed: &[u64]) -> CycleGraph {
        assert_eq!(adjacency.len(), crashed.len());
        let mut g = CycleGraph::with_capacity(adjacency.len(), 0);
        for (edges, &mask) in adjacency.iter().zip(crashed) {
            g.push_node(mask, edges.iter().copied());
        }
        g
    }

    /// Plain verdicts of a fault-free graph.
    fn plain(adjacency: &[Vec<CycleEdge>], processes: usize) -> Vec<ProcessCycleVerdicts> {
        certify(&graph(adjacency, &vec![0; adjacency.len()]), processes).verdicts
    }

    fn fair(adjacency: &[Vec<CycleEdge>], crashed: &[u64]) -> Vec<FairProcessVerdicts> {
        certify(&graph(adjacency, crashed), 2).fair
    }

    /// Two nodes in a loop: p0 commits around the cycle, p1 aborts
    /// around it.
    fn starving_graph() -> Vec<Vec<CycleEdge>> {
        vec![vec![edge(1, 0, true, false)], vec![edge(0, 1, false, true)]]
    }

    #[test]
    fn starving_and_progressing_are_certified() {
        let verdicts = plain(&starving_graph(), 2);
        assert!(verdicts[0].progressing && !verdicts[0].starving);
        assert!(verdicts[1].starving && !verdicts[1].progressing);
    }

    #[test]
    fn deleting_the_cycle_edge_kills_the_verdict() {
        // A dead-end tail: no cycles at all.
        let verdicts = plain(&[vec![edge(1, 0, true, false)], vec![]], 2);
        assert!(verdicts.iter().all(|v| !v.progressing && !v.starving));
    }

    #[test]
    fn blocked_needs_an_eventless_cycle_edge(// the Figure 14 shape
    ) {
        let mut adjacency = starving_graph();
        // p1 also spins a self-loop poll with no events at node 0.
        adjacency[0].push(eventless(0, 1));
        let verdicts = plain(&adjacency, 2);
        assert!(verdicts[1].blocked);
        assert!(!verdicts[0].blocked);
    }

    #[test]
    fn fair_starving_requires_every_live_process_on_the_cycle() {
        // Both processes scheduled around the loop: p1's starvation
        // survives the fairness filter and is not crash-induced.
        let verdicts = fair(&starving_graph(), &[0, 0]);
        assert!(verdicts[1].starving && !verdicts[1].crash_victim);
        assert!(!verdicts[0].starving);

        // A self-loop aborting p1 while p0 is never scheduled: p1
        // starves unfairly (the scheduler abandons p0) but NOT fairly.
        let abandoned = vec![vec![edge(0, 1, false, true)]];
        assert!(plain(&abandoned, 2)[1].starving);
        assert!(!fair(&abandoned, &[0])[1].starving);
    }

    #[test]
    fn crashed_processes_are_exempt_and_flagged() {
        // p0 has crashed (mask bit 0 set at both nodes); p1 aborts
        // around the loop alone. Fairness no longer owes p0 a slot, so
        // the starvation is certified fair — and crash-induced.
        let adjacency = vec![vec![edge(1, 1, false, true)], vec![edge(0, 1, false, true)]];
        let verdicts = fair(&adjacency, &[1, 1]);
        assert!(verdicts[1].starving);
        assert!(verdicts[1].crash_victim);

        // The same graph with nobody crashed: unfair only.
        assert!(!fair(&adjacency, &[0, 0])[1].starving);
    }

    #[test]
    fn fair_blocked_needs_the_other_process_in_the_same_component() {
        // p1 spins an eventless poll at node 0 while p0 commits a
        // self-loop at the same node: the kept graph for "p1 blocked"
        // keeps both, one SCC schedules both processes → fair blocked.
        let adjacency = vec![vec![edge(0, 0, true, false), eventless(0, 1)]];
        let verdicts = fair(&adjacency, &[0]);
        assert!(verdicts[1].blocked && !verdicts[1].crash_victim);
        // Fair implies unfair by construction.
        assert!(plain(&adjacency, 2)[1].blocked);

        // Without p0's self-loop the same poll cycle abandons p0: the
        // unfair verdict stays, the fair one falls.
        let lonely = vec![vec![eventless(0, 1)]];
        assert!(plain(&lonely, 2)[1].blocked);
        assert!(!fair(&lonely, &[0])[1].blocked);
    }

    /// Reflexive reachability over the edges passing `keep`:
    /// `reach[u][v]` iff a kept path leads from `u` to `v`.
    fn reachability(
        adjacency: &[Vec<CycleEdge>],
        keep: &dyn Fn(&CycleEdge) -> bool,
    ) -> Vec<Vec<bool>> {
        let n = adjacency.len();
        (0..n)
            .map(|source| {
                let mut seen = vec![false; n];
                seen[source] = true;
                let mut todo = vec![source];
                while let Some(u) = todo.pop() {
                    for e in adjacency[u].iter().filter(|e| keep(e)) {
                        let t = e.target as usize;
                        if !seen[t] {
                            seen[t] = true;
                            todo.push(t);
                        }
                    }
                }
                seen
            })
            .collect()
    }

    /// The naive oracle of one filter: a kept `want` edge `u → v` lies on
    /// a kept cycle iff `v` reaches `u`; the cycle is fair iff the
    /// mutual-reachability class of `u` schedules or has crashed every
    /// process.
    fn oracle_filter(
        adjacency: &[Vec<CycleEdge>],
        crashed: &[u64],
        live: u64,
        keep: &dyn Fn(&CycleEdge) -> bool,
        want: &dyn Fn(&CycleEdge) -> bool,
    ) -> (bool, bool, bool) {
        let reach = reachability(adjacency, keep);
        let same = |a: usize, b: usize| reach[a][b] && reach[b][a];
        let (mut unfair, mut fair, mut victim) = (false, false, false);
        for (u, edges) in adjacency.iter().enumerate() {
            for e in edges.iter().filter(|e| keep(e) && want(e)) {
                if !same(u, e.target as usize) {
                    continue;
                }
                unfair = true;
                let members: Vec<usize> = (0..adjacency.len()).filter(|&x| same(u, x)).collect();
                let mask = members.iter().fold(0, |m, &x| m | crashed[x]);
                let scheduled = members.iter().fold(0u64, |m, &x| {
                    adjacency[x]
                        .iter()
                        .filter(|f| keep(f) && same(x, f.target as usize))
                        .fold(m, |m, f| m | 1 << f.process)
                });
                if (scheduled | mask) & live == live {
                    fair = true;
                    victim |= mask != 0;
                }
            }
        }
        (unfair, fair, victim)
    }

    fn oracle(
        adjacency: &[Vec<CycleEdge>],
        crashed: &[u64],
        processes: usize,
    ) -> (Vec<ProcessCycleVerdicts>, Vec<FairProcessVerdicts>) {
        let live = (1u64 << processes) - 1;
        let full = reachability(adjacency, &|_| true);
        let mut verdicts = Vec::new();
        let mut fair = Vec::new();
        for k in 0..processes {
            let p = k as u8;
            let progressing = adjacency.iter().enumerate().any(|(u, edges)| {
                edges
                    .iter()
                    .any(|e| e.process == p && e.committed && full[e.target as usize][u])
            });
            let starving = oracle_filter(
                adjacency,
                crashed,
                live,
                &|e| !(e.process == p && e.committed),
                &|e| e.process == p && e.aborted,
            );
            let parasitic = oracle_filter(
                adjacency,
                crashed,
                live,
                &|e| !(e.process == p && (e.committed || e.aborted || e.tryc)),
                &|e| e.process == p && e.events > 0,
            );
            let blocked = oracle_filter(
                adjacency,
                crashed,
                live,
                &|e| !(e.process == p && e.events > 0),
                &|e| e.process == p && e.events == 0,
            );
            verdicts.push(ProcessCycleVerdicts {
                process: ProcessId(k),
                progressing,
                starving: starving.0,
                parasitic: parasitic.0,
                blocked: blocked.0,
            });
            fair.push(FairProcessVerdicts {
                process: ProcessId(k),
                starving: starving.1,
                parasitic: parasitic.1,
                blocked: blocked.1,
                crash_victim: starving.2 || blocked.2,
            });
        }
        (verdicts, fair)
    }

    /// xorshift64: a dependency-free seeded stream for graph generation.
    struct Xorshift(u64);

    impl Xorshift {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }
    }

    /// A random edge out of node `u`: self-loops, eventless polls and
    /// arbitrary commit/abort/`tryC` labels all occur.
    fn random_edge(rng: &mut Xorshift, u: usize, nodes: usize, processes: usize) -> CycleEdge {
        let target = if rng.below(5) == 0 {
            u
        } else {
            rng.below(nodes as u64) as usize
        };
        let events = rng.below(3) as u8;
        let delivered = events > 0 && rng.below(2) == 0;
        let committed = delivered && rng.below(2) == 0;
        CycleEdge {
            target: target as u32,
            process: rng.below(processes as u64) as u8,
            events,
            committed,
            aborted: delivered && !committed,
            tryc: events > 0 && rng.below(3) == 0,
        }
    }

    #[test]
    fn certify_matches_the_reachability_oracle_on_random_graphs() {
        let mut rng = Xorshift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..600 {
            let processes = 1 + rng.below(3) as usize;
            let nodes = rng.below(41) as usize;
            let adjacency: Vec<Vec<CycleEdge>> = (0..nodes)
                .map(|u| {
                    // Two in five nodes have no edges at all.
                    let degree = rng.below(5).saturating_sub(1);
                    (0..degree)
                        .map(|_| random_edge(&mut rng, u, nodes, processes))
                        .collect()
                })
                .collect();
            // Either a fault-free graph or random crashed masks.
            let faulty = rng.below(2) == 0;
            let crashed: Vec<u64> = (0..nodes)
                .map(|_| if faulty { rng.below(1 << processes) } else { 0 })
                .collect();
            let got = certify(&graph(&adjacency, &crashed), processes);
            let want = oracle(&adjacency, &crashed, processes);
            assert_eq!(
                (got.verdicts.clone(), got.fair.clone()),
                want,
                "graph {adjacency:?} crashed {crashed:?}"
            );
            assert_witnesses_walk_their_filters(&adjacency, &got);
        }
    }

    /// Every plain progressing, starving and parasitic verdict has
    /// exactly one witness, and no other witness exists. Each witness
    /// is a closed walk of edges its shape keeps, entered by a want
    /// edge.
    fn assert_witnesses_walk_their_filters(adjacency: &[Vec<CycleEdge>], got: &Certificate) {
        let expected: Vec<_> = (got.verdicts.iter())
            .flat_map(|v| {
                [
                    (v.progressing, ProcessClass::Progressing),
                    (v.starving, ProcessClass::Starving),
                    (v.parasitic, ProcessClass::Parasitic),
                ]
                .into_iter()
                .filter(|&(holds, _)| holds)
                .map(move |(_, class)| (v.process, class))
            })
            .collect();
        let found: Vec<_> = got.witnesses.iter().map(|w| (w.process, w.class)).collect();
        assert_eq!(found, expected, "{adjacency:?}");
        for w in &got.witnesses {
            let p = w.process.index() as u8;
            let shape = match w.class {
                ProcessClass::Progressing => Shape::Progressing,
                ProcessClass::Starving => Shape::Starving,
                _ => Shape::Parasitic,
            };
            for (i, &(u, q)) in w.walk.iter().enumerate() {
                let next = w.walk[(i + 1) % w.walk.len()].0;
                assert!(
                    adjacency[u as usize].iter().any(|e| {
                        e.target == next
                            && e.process == q
                            && shape.keep(p, e)
                            && (i > 0 || shape.want(p, e))
                    }),
                    "{w:?} leaves its filter at step {i}: {adjacency:?}"
                );
            }
        }
    }
}
