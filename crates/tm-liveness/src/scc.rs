//! Certified cycle-existence verdicts over explored state graphs.
//!
//! The liveness model checker (`tm_sim::livecheck`) records the explored
//! configuration graph explicitly and needs **completeness** claims over
//! it — "no cycle starves process `p` within the bound" — that on-path
//! lasso detection cannot give once a seen set prunes re-expansion. This
//! module decides cycle existence exactly, per process, by strongly
//! connected components (Tarjan over edge-filtered views of the graph):
//! an edge lies on a cycle of a filtered graph iff both endpoints share
//! an SCC.
//!
//! Per-process queries are independent — each runs its own four Tarjan
//! passes over read-only edges, sharing one full-graph SCC labelling —
//! and [`certify_cycles`] runs them in process-id order. A rayon
//! fan-out over the processes measured no faster than this sequential
//! pass, so there is none.

use tm_core::ProcessId;

/// One labelled edge of an explored configuration graph, in the compact
/// form the cycle certificates need: the scheduled process and what its
/// step did (event count, commit/abort delivery, `tryC` invocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleEdge {
    /// Index of the target node in the graph's node vector.
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

/// Iterative Tarjan SCC over the graph, restricted to edges passing
/// `keep`. Returns the component id of every node.
pub fn sccs(graph: &[Vec<CycleEdge>], keep: impl Fn(&CycleEdge) -> bool) -> Vec<u32> {
    const UNVISITED: u32 = u32::MAX;
    let n = graph.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut comp = vec![UNVISITED; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut next_comp = 0u32;
    // (node, next edge offset) — an explicit call stack.
    let mut call: Vec<(u32, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call.push((root as u32, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut edge)) = call.last_mut() {
            let vu = v as usize;
            let next = graph[vu][*edge..].iter().position(&keep);
            if let Some(offset) = next {
                *edge += offset + 1;
                let w = graph[vu][*edge - 1].target;
                let wu = w as usize;
                if index[wu] == UNVISITED {
                    index[wu] = next_index;
                    low[wu] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wu] = true;
                    call.push((w, 0));
                } else if on_stack[wu] {
                    low[vu] = low[vu].min(index[wu]);
                }
            } else {
                call.pop();
                if low[vu] == index[vu] {
                    loop {
                        let w = stack.pop().expect("root still on stack");
                        on_stack[w as usize] = false;
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
    comp
}

/// Whether some kept edge passing `want` lies on a cycle of the
/// `keep`-restricted graph (both endpoints in one SCC).
pub fn cycle_edge_exists(
    graph: &[Vec<CycleEdge>],
    keep: impl Fn(&CycleEdge) -> bool + Copy,
    want: impl Fn(&CycleEdge) -> bool,
) -> bool {
    let comp = sccs(graph, keep);
    graph.iter().enumerate().any(|(u, edges)| {
        edges
            .iter()
            .any(|e| keep(e) && want(e) && comp[u] == comp[e.target as usize])
    })
}

/// The four certificates of one process: `full` is the SCC labelling of
/// the unrestricted graph (shared across processes — only the
/// `progressing` claim uses it).
fn verdicts_for(graph: &[Vec<CycleEdge>], full: &[u32], k: usize) -> ProcessCycleVerdicts {
    let p = u8::try_from(k).expect("≤ 64 processes");
    let progressing = graph.iter().enumerate().any(|(u, edges)| {
        edges
            .iter()
            .any(|e| e.process == p && e.committed && full[u] == full[e.target as usize])
    });
    let starving = cycle_edge_exists(
        graph,
        |e| !(e.process == p && e.committed),
        |e| e.process == p && e.aborted,
    );
    let parasitic = cycle_edge_exists(
        graph,
        |e| !(e.process == p && (e.committed || e.aborted || e.tryc)),
        |e| e.process == p && e.events > 0,
    );
    let blocked = cycle_edge_exists(
        graph,
        |e| !(e.process == p && e.events > 0),
        |e| e.process == p && e.events == 0,
    );
    ProcessCycleVerdicts {
        process: ProcessId(k),
        progressing,
        starving,
        parasitic,
        blocked,
    }
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

/// Whether some `keep`-restricted SCC contains a `want` edge of the
/// process *and* intra-component edges of every live process — the exact
/// criterion for a **fair** cycle with the wanted recurring shape.
///
/// Soundness and completeness both follow from strong connectivity: any
/// fair cycle lies inside one SCC of the kept graph and contributes an
/// intra-component edge per live process plus the recurring want edge;
/// conversely, given those edges, strong connectivity stitches them into
/// one closed walk that schedules every live process and repeats the
/// want edge infinitely often.
///
/// `crashed` gives the per-node crashed-process mask (all zeros for a
/// fault-free graph). Fault masks only grow along edges, so every node
/// of a cycle-bearing SCC carries the same mask; processes crashed in a
/// component are exempt from its fairness obligation. Returns the
/// verdict and whether some witnessing component has a non-empty
/// crashed mask.
fn fair_cycle_exists(
    graph: &[Vec<CycleEdge>],
    crashed: &[u64],
    processes: usize,
    keep: impl Fn(&CycleEdge) -> bool + Copy,
    want: impl Fn(&CycleEdge) -> bool,
) -> (bool, bool) {
    let comp = sccs(graph, keep);
    let ncomp = comp.iter().copied().max().map_or(0, |c| c as usize + 1);
    // Per component: which processes have a kept intra-component edge,
    // whether a want edge is intra-component, and the component's
    // crashed mask.
    let mut scheduled = vec![0u64; ncomp];
    let mut want_hit = vec![false; ncomp];
    let mut comp_crashed = vec![0u64; ncomp];
    for (u, edges) in graph.iter().enumerate() {
        let c = comp[u] as usize;
        comp_crashed[c] |= crashed[u];
        for e in edges {
            if keep(e) && comp[u] == comp[e.target as usize] {
                scheduled[c] |= 1 << e.process;
                if want(e) {
                    want_hit[c] = true;
                }
            }
        }
    }
    let live_mask = if processes >= 64 {
        u64::MAX
    } else {
        (1u64 << processes) - 1
    };
    let mut holds = false;
    let mut victim = false;
    for c in 0..ncomp {
        let fair = want_hit[c] && (scheduled[c] | comp_crashed[c]) & live_mask == live_mask;
        holds |= fair;
        victim |= fair && comp_crashed[c] != 0;
    }
    (holds, victim)
}

/// The three fairness-filtered certificates of one process (see
/// [`FairProcessVerdicts`]). The filters are exactly those of the unfair
/// verdicts, so `fair.starving → unfair.starving` etc. by construction.
fn fair_verdicts_for(
    graph: &[Vec<CycleEdge>],
    crashed: &[u64],
    processes: usize,
    k: usize,
) -> FairProcessVerdicts {
    let p = u8::try_from(k).expect("≤ 64 processes");
    let (starving, starve_crash) = fair_cycle_exists(
        graph,
        crashed,
        processes,
        |e| !(e.process == p && e.committed),
        |e| e.process == p && e.aborted,
    );
    let (parasitic, _) = fair_cycle_exists(
        graph,
        crashed,
        processes,
        |e| !(e.process == p && (e.committed || e.aborted || e.tryc)),
        |e| e.process == p && e.events > 0,
    );
    let (blocked, block_crash) = fair_cycle_exists(
        graph,
        crashed,
        processes,
        |e| !(e.process == p && e.events > 0),
        |e| e.process == p && e.events == 0,
    );
    FairProcessVerdicts {
        process: ProcessId(k),
        starving,
        parasitic,
        blocked,
        crash_victim: starve_crash || block_crash,
    }
}

/// Certifies fair starving/parasitic/blocked cycle existence for every
/// process over the explored graph. `crashed[u]` is the crashed-process
/// mask at node `u` (all zeros for a fault-free graph); crashed
/// processes are exempt from the fairness obligation of the components
/// they crashed in.
///
/// # Panics
///
/// If `crashed` is not one mask per graph node.
pub fn certify_fair_cycles(
    graph: &[Vec<CycleEdge>],
    crashed: &[u64],
    processes: usize,
) -> Vec<FairProcessVerdicts> {
    assert_eq!(crashed.len(), graph.len(), "one crashed mask per node");
    (0..processes)
        .map(|k| fair_verdicts_for(graph, crashed, processes, k))
        .collect()
}

/// Certifies starving/parasitic/blocked/progressing cycle existence for
/// every process over the explored graph.
pub fn certify_cycles(graph: &[Vec<CycleEdge>], processes: usize) -> Vec<ProcessCycleVerdicts> {
    let full = sccs(graph, |_| true);
    (0..processes)
        .map(|k| verdicts_for(graph, &full, k))
        .collect()
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

    /// Two nodes in a loop: p0 commits around the cycle, p1 aborts
    /// around it.
    fn starving_graph() -> Vec<Vec<CycleEdge>> {
        vec![vec![edge(1, 0, true, false)], vec![edge(0, 1, false, true)]]
    }

    #[test]
    fn starving_and_progressing_are_certified() {
        let graph = starving_graph();
        let verdicts = certify_cycles(&graph, 2);
        assert!(verdicts[0].progressing && !verdicts[0].starving);
        assert!(verdicts[1].starving && !verdicts[1].progressing);
    }

    #[test]
    fn deleting_the_cycle_edge_kills_the_verdict() {
        // A dead-end tail: no cycles at all.
        let graph = vec![vec![edge(1, 0, true, false)], vec![]];
        let verdicts = certify_cycles(&graph, 2);
        assert!(verdicts.iter().all(|v| !v.progressing && !v.starving));
    }

    #[test]
    fn blocked_needs_an_eventless_cycle_edge(// the Figure 14 shape
    ) {
        let mut graph = starving_graph();
        // p1 also spins a self-loop poll with no events at node 0.
        graph[0].push(CycleEdge {
            target: 0,
            process: 1,
            events: 0,
            committed: false,
            aborted: false,
            tryc: false,
        });
        let verdicts = certify_cycles(&graph, 2);
        assert!(verdicts[1].blocked);
        assert!(!verdicts[0].blocked);
    }

    #[test]
    fn fair_starving_requires_every_live_process_on_the_cycle() {
        // Both processes scheduled around the loop: p1's starvation
        // survives the fairness filter and is not crash-induced.
        let graph = starving_graph();
        let fair = certify_fair_cycles(&graph, &[0, 0], 2);
        assert!(fair[1].starving && !fair[1].crash_victim);
        assert!(!fair[0].starving);

        // A self-loop aborting p1 while p0 is never scheduled: p1
        // starves unfairly (the scheduler abandons p0) but NOT fairly.
        let abandoned = vec![vec![edge(0, 1, false, true)]];
        let unfair = certify_cycles(&abandoned, 2);
        assert!(unfair[1].starving);
        let fair = certify_fair_cycles(&abandoned, &[0], 2);
        assert!(!fair[1].starving);
    }

    #[test]
    fn crashed_processes_are_exempt_and_flagged() {
        // p0 has crashed (mask bit 0 set at both nodes); p1 aborts
        // around the loop alone. Fairness no longer owes p0 a slot, so
        // the starvation is certified fair — and crash-induced.
        let graph = vec![vec![edge(1, 1, false, true)], vec![edge(0, 1, false, true)]];
        let fair = certify_fair_cycles(&graph, &[1, 1], 2);
        assert!(fair[1].starving);
        assert!(fair[1].crash_victim);

        // The same graph with nobody crashed: unfair only.
        let fair = certify_fair_cycles(&graph, &[0, 0], 2);
        assert!(!fair[1].starving);
    }

    #[test]
    fn fair_blocked_needs_the_other_process_in_the_same_component() {
        // p1 spins an eventless poll at node 0 while p0 commits a
        // self-loop at the same node: the kept graph for "p1 blocked"
        // keeps both, one SCC schedules both processes → fair blocked.
        let eventless = |target: u32| CycleEdge {
            target,
            process: 1,
            events: 0,
            committed: false,
            aborted: false,
            tryc: false,
        };
        let graph = vec![vec![edge(0, 0, true, false), eventless(0)]];
        let fair = certify_fair_cycles(&graph, &[0], 2);
        assert!(fair[1].blocked && !fair[1].crash_victim);
        // Fair implies unfair by construction.
        assert!(certify_cycles(&graph, 2)[1].blocked);

        // Without p0's self-loop the same poll cycle abandons p0: the
        // unfair verdict stays, the fair one falls.
        let lonely = vec![vec![eventless(0)]];
        assert!(certify_cycles(&lonely, 2)[1].blocked);
        assert!(!certify_fair_cycles(&lonely, &[0], 2)[1].blocked);
    }
}
