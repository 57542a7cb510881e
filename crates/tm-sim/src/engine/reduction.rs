//! The reduction layer of the exploration kernel: the optimal-DPOR state
//! the schedule-tree search threads through its walk.
//!
//! One reduction lives here, driven by the per-TM conflict oracle
//! `SteppedTm::step_footprint` (see the soundness discussion in
//! [`crate::explore`]'s module docs): **optimal DPOR**
//! ([`OptimalDpor`]), the wakeup-tree algorithm of Abdulla, Aronis,
//! Jonsson and Sagonas. Its [`HbTrace`] is the executed path with
//! vector clocks over the conflict relation (happens-before), from
//! which race detection derives reversal *sequences* that are inserted
//! into ordered, sleep-set-aware wakeup trees.
//!
//! # Wakeup trees
//!
//! A [`WakeupTree`] is an ordered tree whose edges are labelled with
//! steps (process + footprint); the children of every node carry
//! pairwise-distinct process labels, in insertion order. Each node of
//! the *schedule* tree being explored owns one wakeup tree holding the
//! race reversals still owed below it; exploration at a node pops the
//! tree's first edge, executes it, and hands the edge's subtree to the
//! child — so a multi-step reversal sequence is walked verbatim before
//! free seeding resumes at its end.
//!
//! **Insertion rule.** When race detection derives a reversal sequence
//! `v` for the node `e` (the not-yet-dependent suffix `notdep(e, E)`
//! followed by the racing process's step), the sequence is first guarded
//! by the *weak-initials* test: if `WI(v)` — the processes whose first
//! `v`-step has no happens-before predecessor inside `v`, plus the
//! processes not in `v` whose next step at `e` is independent of all of
//! `v` — meets `e`'s sleep set, an equivalent execution is already
//! explored or in progress and the insertion is dropped (counted
//! redundant). Otherwise the walk descends the ordered tree: at each
//! node, the first child edge whose label either *is* an initial of the
//! remaining `v` (consume that occurrence) or is independent of all of
//! it (pass `v` through unchanged) is entered; reaching the end of an
//! existing branch with `v` unconsumed proves subsumption (redundant);
//! if no child accepts, `v` is appended as a fresh chain in arrival
//! order. Appended chains always start with a process distinct from
//! every sibling label — a matching label would have been consumed as an
//! initial — which keeps child labels unique.
//!
//! **Why no execution is ever abandoned.** A node's sleep set grows
//! only by (a) inheritance — sleeping siblings filtered through the
//! independence test — and (b) its own explored children, and the
//! weak-initial guard checks both against `v` at insertion time. That
//! guard is exact for a *static* independence relation; our footprints
//! are state-dependent, so a sequence inserted from one execution
//! context (where, say, a `TryCommit` was about to hit a locked word)
//! may be replayed in the node's own context where that conflict has
//! dissolved — and sleep inheritance, which re-checks independence
//! against the actual footprints on the path, then keeps the head
//! asleep. The walk therefore re-tests each popped edge: an asleep head
//! certifies that an already-explored sibling subtree covers the whole
//! branch, and the edge is dropped — subtree included — *before any
//! step executes* (counted redundant). The walk thus never starts a
//! schedule it then abandons.
//!
//! The graph search's transition memoization (execute each state-graph
//! edge once, replay re-walks) is the liveness checker's analogue; it
//! lives with the graph structures in [`crate::livecheck`].

use tm_core::ProcessId;
use tm_stm::{BoxedTm, StepFootprint, SteppedTm};

use crate::workload::Client;

/// The next-step footprint of process `q` at the current configuration:
/// the TM's conflict oracle for the pending invocation, with the
/// transaction-begin flag supplied by the driver (which owns the client
/// cursor), or the fully conservative footprint for a blocked poll.
pub(crate) fn next_footprint(tm: &BoxedTm, clients: &[Client], q: usize) -> StepFootprint {
    if tm.has_pending(ProcessId(q)) {
        StepFootprint::global()
    } else {
        let mut foot = tm.step_footprint(ProcessId(q), clients[q].next_invocation());
        foot.begins = !clients[q].mid_transaction();
        foot
    }
}

/// One executed step of the happens-before trace (the current path of
/// the walk, annotated with the data race reversal needs).
#[derive(Debug)]
pub(crate) struct TraceStep {
    pub(crate) proc: u8,
    pub(crate) foot: StepFootprint,
    /// 1-based count of this process's steps up to and including this one.
    local_index: u32,
    /// The process's previous step's trace index (restored on pop).
    prev_of_proc: Option<u32>,
}

/// The executed trace riding along the depth-first walk, with vector
/// clocks over the conflict relation (happens-before).
#[derive(Debug)]
pub(crate) struct HbTrace {
    n: usize,
    pub(crate) steps: Vec<TraceStep>,
    /// Flat vector-clock matrix: `clocks[i * n + q]` = how many of
    /// process `q`'s steps happen before (or are) step `i`.
    clocks: Vec<u32>,
    /// Per-process trace index of the last executed step.
    last_of: Vec<Option<u32>>,
    /// Reversible races detected over this instance's lifetime
    /// (telemetry tally, flushed per worker as [`Counter::DporRaces`]).
    ///
    /// [`Counter::DporRaces`]: tm_telemetry::Counter::DporRaces
    pub(crate) races: u64,
}

impl HbTrace {
    pub(crate) fn new(n: usize) -> Self {
        HbTrace {
            n,
            steps: Vec::new(),
            clocks: Vec::new(),
            last_of: vec![None; n],
            races: 0,
        }
    }

    /// Records the execution of one step by `k` with footprint `foot`:
    /// its clock is the join of the process's previous clock and the
    /// clocks of every earlier conflicting step, plus itself.
    ///
    /// Kept out of line: inlined into the recursive `walk_optimal`, it
    /// enlarges every frame of the walk, which measurably slows it.
    #[inline(never)]
    pub(crate) fn push(&mut self, k: usize, foot: StepFootprint) {
        let n = self.n;
        let i = self.steps.len();
        let base = self.clocks.len();
        match self.last_of[k] {
            Some(p) => {
                let row = p as usize * n;
                for q in 0..n {
                    let c = self.clocks[row + q];
                    self.clocks.push(c);
                }
            }
            None => self.clocks.resize(base + n, 0),
        }
        for j in 0..i {
            if self.steps[j].foot.conflicts(&foot) {
                let row = j * n;
                for q in 0..n {
                    if self.clocks[row + q] > self.clocks[base + q] {
                        self.clocks[base + q] = self.clocks[row + q];
                    }
                }
            }
        }
        let local_index = self.last_of[k].map_or(0, |p| self.steps[p as usize].local_index) + 1;
        self.clocks[base + k] = local_index;
        self.steps.push(TraceStep {
            proc: u8::try_from(k).expect("≤ 64 processes"),
            foot,
            local_index,
            prev_of_proc: self.last_of[k],
        });
        self.last_of[k] = Some(u32::try_from(i).expect("trace fits u32"));
    }

    pub(crate) fn pop(&mut self) {
        let step = self.steps.pop().expect("pop matches push");
        self.last_of[step.proc as usize] = step.prev_of_proc;
        self.clocks.truncate(self.steps.len() * self.n);
    }

    /// Whether step `i` happens-before step `j` (`i < j`).
    fn hb_steps(&self, i: usize, j: usize) -> bool {
        self.clocks[j * self.n + self.steps[i].proc as usize] >= self.steps[i].local_index
    }

    /// Whether step `i` happens-before the *next* (unexecuted) step of
    /// process `q` — i.e. `i` is in the causal past of `q`'s last step.
    fn hb_to_next(&self, i: usize, q: usize) -> bool {
        if self.steps[i].proc as usize == q {
            return true;
        }
        match self.last_of[q] {
            None => false,
            Some(l) => {
                self.clocks[l as usize * self.n + self.steps[i].proc as usize]
                    >= self.steps[i].local_index
            }
        }
    }
}

/// One step of a wakeup-tree sequence: the racing process and the
/// footprint its step had when the reversal was derived (footprints are
/// class-invariant under the commutation contract, so the recorded
/// footprint equals the footprint at execution time).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WakeupStep {
    pub(crate) proc: u8,
    pub(crate) foot: StepFootprint,
}

/// An edge of a wakeup tree: a labelled step and the subtree to explore
/// after executing it.
#[derive(Debug)]
pub(crate) struct WakeupEdge {
    pub(crate) proc: u8,
    pub(crate) foot: StepFootprint,
    pub(crate) sub: WakeupTree,
}

/// An ordered tree of race-reversal sequences (see the module docs):
/// children carry pairwise-distinct process labels in insertion order.
/// Exploration pops edges front-first; insertion descends by the
/// weak-initial rule.
#[derive(Debug, Default)]
pub(crate) struct WakeupTree {
    pub(crate) edges: Vec<WakeupEdge>,
}

/// Whether `v[i]` is an initial of `v`: no earlier element is a
/// happens-before predecessor (same process, or conflicting footprint —
/// any longer happens-before chain into `v[i]` ends in one of those
/// direct edges, so the direct check suffices).
fn is_initial(v: &[WakeupStep], i: usize) -> bool {
    v[..i]
        .iter()
        .all(|s| s.proc != v[i].proc && !s.foot.conflicts(&v[i].foot))
}

impl WakeupTree {
    pub(crate) fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Removes and returns the first (oldest) edge.
    pub(crate) fn pop_first(&mut self) -> Option<WakeupEdge> {
        if self.edges.is_empty() {
            None
        } else {
            Some(self.edges.remove(0))
        }
    }

    /// Seeds an exhausted tree with a single free step (the walk's
    /// arbitrary first representative at a node no reversal targets).
    pub(crate) fn seed(&mut self, proc: u8, foot: StepFootprint) {
        debug_assert!(self.edges.is_empty());
        self.edges.push(WakeupEdge {
            proc,
            foot,
            sub: WakeupTree::default(),
        });
    }

    /// Inserts the reversal sequence `v` by the ordered-tree rule
    /// (module docs): descend into the first child edge whose label is
    /// an initial of the remaining sequence (consuming that occurrence)
    /// or independent of all of it (passing it through); append the
    /// remainder as a fresh chain when no child accepts; report
    /// subsumption (`false`) when an existing branch ends first or the
    /// sequence is consumed entirely.
    pub(crate) fn insert(&mut self, v: Vec<WakeupStep>) -> bool {
        self.insert_from(v, false)
    }

    fn insert_from(&mut self, v: Vec<WakeupStep>, interior: bool) -> bool {
        if v.is_empty() {
            return false; // consumed: an existing branch covers it
        }
        if interior && self.edges.is_empty() {
            // End of an existing branch with steps left over: the
            // branch's own exploration (free seeding plus its own race
            // detection) subsumes the remainder.
            return false;
        }
        for i in 0..self.edges.len() {
            let edge = &self.edges[i];
            if let Some(pos) = v.iter().position(|s| s.proc == edge.proc) {
                if is_initial(&v, pos) {
                    let mut rest = v;
                    rest.remove(pos);
                    return self.edges[i].sub.insert_from(rest, true);
                }
                // The label's process occurs in v but is not an initial:
                // this branch cannot host the reversal; try the next.
            } else if v.iter().all(|s| !edge.foot.conflicts(&s.foot)) {
                return self.edges[i].sub.insert_from(v, true);
            }
        }
        // No child accepts: append v as a fresh chain. Its head process
        // is distinct from every sibling label (a matching label would
        // have consumed it as an initial above), keeping labels unique.
        let mut sub = WakeupTree::default();
        for s in v.into_iter().rev() {
            let mut wrap = WakeupTree::default();
            wrap.edges.push(WakeupEdge {
                proc: s.proc,
                foot: s.foot,
                sub,
            });
            sub = wrap;
        }
        self.edges.append(&mut sub.edges);
        true
    }

    /// Order-sensitive structural digest (FNV-1a over a preorder walk),
    /// for the dedup seen-set key: two nodes with equal configuration
    /// digests but different pending reversals must not share a
    /// memoized subtree summary.
    pub(crate) fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        self.digest_into(&mut h);
        h
    }

    fn digest_into(&self, h: &mut u64) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: &mut u64, v: u64) {
            *h ^= v;
            *h = h.wrapping_mul(PRIME);
        }
        mix(h, self.edges.len() as u64);
        for edge in &self.edges {
            mix(h, u64::from(edge.proc) | 0x100);
            mix(h, edge.foot.var_reads);
            mix(h, edge.foot.var_writes);
            mix(
                h,
                u64::from(edge.foot.global_read)
                    | u64::from(edge.foot.global_write) << 1
                    | u64::from(edge.foot.ends) << 2
                    | u64::from(edge.foot.begins) << 3,
            );
            edge.sub.digest_into(h);
        }
    }
}

/// The optimal-DPOR state riding along the walk: the happens-before
/// trace plus per-path-node context — the sleep set, the wakeup tree,
/// and every process's next-step footprint at that node (for the
/// weak-initial guard).
#[derive(Debug)]
pub(crate) struct OptimalDpor {
    pub(crate) core: HbTrace,
    n: usize,
    /// Per-node sleep sets along the current path (inherited sleepers
    /// plus explored children), indexed by node depth.
    sleeps: Vec<u64>,
    /// Per-node wakeup trees along the current path (pending reversal
    /// branches only; the edge being explored is popped).
    wuts: Vec<WakeupTree>,
    /// Flat per-node footprints: `feet[node * n + q]` is process `q`'s
    /// next-step footprint at that node.
    feet: Vec<StepFootprint>,
    /// Reversal sequences inserted into wakeup trees (telemetry tally).
    pub(crate) inserts: u64,
    /// Reversals proved covered: rejected by the weak-initial sleep
    /// guard, subsumed by an existing branch, or popped with an asleep
    /// head — state-dependent footprints make the insertion-time guard
    /// conservative, so coverage can surface late (telemetry tally).
    pub(crate) redundant: u64,
}

impl OptimalDpor {
    pub(crate) fn new(n: usize) -> Self {
        OptimalDpor {
            core: HbTrace::new(n),
            n,
            sleeps: Vec::new(),
            wuts: Vec::new(),
            feet: Vec::new(),
            inserts: 0,
            redundant: 0,
        }
    }

    /// Enters a node at depth `sleeps.len()`: records its sleep set,
    /// pending wakeup tree, and next-step footprints.
    pub(crate) fn push_node(&mut self, sleep: u64, wut: WakeupTree, feet: &[StepFootprint]) {
        debug_assert_eq!(feet.len(), self.n);
        self.sleeps.push(sleep);
        self.wuts.push(wut);
        self.feet.extend_from_slice(feet);
    }

    pub(crate) fn pop_node(&mut self) {
        self.sleeps.pop().expect("pop matches push");
        self.wuts.pop();
        self.feet.truncate(self.feet.len() - self.n);
    }

    /// Marks `k` explored at the node at `depth` (joins its sleep set).
    pub(crate) fn sleep_child(&mut self, depth: usize, k: usize) {
        self.sleeps[depth] |= 1 << k;
    }

    pub(crate) fn wut_is_empty(&self, depth: usize) -> bool {
        self.wuts[depth].is_empty()
    }

    pub(crate) fn seed(&mut self, depth: usize, proc: u8, foot: StepFootprint) {
        self.wuts[depth].seed(proc, foot);
    }

    pub(crate) fn pop_edge(&mut self, depth: usize) -> Option<WakeupEdge> {
        self.wuts[depth].pop_first()
    }

    /// Race detection for the next step of process `k` (footprint
    /// `fp`) against trace steps `lo..`: for every reversible race — a
    /// conflicting step by another process, not already ordered before
    /// `k` — derive the full reversal sequence `notdep(e, E) · k` and
    /// insert it into the racing node's wakeup tree unless the
    /// weak-initial sleep guard proves it covered.
    ///
    /// Callers pass `lo = 0` for a full scan, or `lo = len - 1` to check
    /// only the step just executed: a race handled at an ancestor stays
    /// handled, because an initial of the shorter reversed continuation
    /// remains an initial of every extension (new events by other
    /// processes cannot become happens-before predecessors of it), so
    /// only the *new* step needs checking when neither `k`'s footprint
    /// nor its clock changed.
    pub(crate) fn detect_races(&mut self, k: usize, fp: &StepFootprint, lo: usize) {
        let len = self.core.steps.len();
        for e in (lo..len).rev() {
            let step = &self.core.steps[e];
            if step.proc as usize == k || !step.foot.conflicts(fp) || self.core.hb_to_next(e, k) {
                continue;
            }
            self.core.races += 1;
            let mut v: Vec<WakeupStep> = (e + 1..len)
                .filter(|&j| !self.core.hb_steps(e, j))
                .map(|j| WakeupStep {
                    proc: self.core.steps[j].proc,
                    foot: self.core.steps[j].foot,
                })
                .collect();
            v.push(WakeupStep {
                proc: u8::try_from(k).expect("≤ 64 processes"),
                foot: *fp,
            });
            let wi = self.weak_initials(e, &v);
            if wi & self.sleeps[e] != 0 {
                self.redundant += 1; // an explored or sleeping branch covers it
            } else if self.wuts[e].insert(v) {
                self.inserts += 1;
            } else {
                self.redundant += 1; // subsumed by a pending branch
            }
        }
    }

    /// `WI(v)` at the node at depth `e`: initials of `v`, plus processes
    /// outside `v` whose next step at that node is independent of all of
    /// `v` (the weak part — executing such a step first commutes with
    /// the whole reversal).
    fn weak_initials(&self, e: usize, v: &[WakeupStep]) -> u64 {
        let mut wi = 0u64;
        let mut procs = 0u64;
        for (i, s) in v.iter().enumerate() {
            let bit = 1u64 << s.proc;
            if procs & bit == 0 {
                procs |= bit;
                if is_initial(v, i) {
                    wi |= bit;
                }
            }
        }
        for q in 0..self.n {
            let bit = 1u64 << q;
            if procs & bit != 0 {
                continue;
            }
            let foot = &self.feet[e * self.n + q];
            if v.iter().all(|s| !foot.conflicts(&s.foot)) {
                wi |= bit;
            }
        }
        wi
    }
}
