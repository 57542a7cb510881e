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
//! # Bookkeeping cost
//!
//! The walk runs race detection at every node for every process, so the
//! trace bookkeeping is kept proportional to the steps that can still
//! race rather than to the depth:
//!
//! - **Causal floor.** [`HbTrace`] keeps, per process, the trace indices
//!   of its steps. The clock of `k`'s last step counts, for each other
//!   process `p`, how many of `p`'s steps are in `k`'s causal past; the
//!   index of `p`'s next step after those, minimised over `p ≠ k`, is
//!   `k`'s causal floor. Every step below it is `k`'s own or already
//!   happens-before `k`'s next step, so [`OptimalDpor::detect_races`]
//!   scans newest-first from the trace end down to the floor only (races
//!   are still visited newest-first, so insertion order is unchanged),
//!   and [`HbTrace::push`] starts its clock join at the floor of `k`'s
//!   previous step.
//! - **Dominance skip.** [`HbTrace::push`] scans newest-first and skips
//!   every step whose own component the clock being built already
//!   covers: that step happens-before one already joined.
//! - **Guard while building.** Each reversal sequence is built under the
//!   weak-initials guard with a running union of its footprints so far:
//!   a step conflicts with the union iff it conflicts with some earlier
//!   step (footprint conflict distributes over `merge`), so each initial
//!   test, and the weak test of each sleeper outside the sequence, is
//!   one `conflicts` call, and the build stops at the first sleeping
//!   initial. The guard is linear in the sequence's length, and most
//!   redundant reversals are never built in full.
//! - **Allocation.** Each reversal sequence is built in one scratch
//!   buffer owned by [`OptimalDpor`], and [`WakeupTree::insert`]
//!   consumes steps by rotating them out of a shrinking slice. A race
//!   allocates only when its sequence is appended as a fresh chain.
//!   Next-step footprints are stored once per path node, `n` wide, and
//!   read from there by the walk.
//!
//! The liveness checker needs no such layer: its breadth-first walk
//! expands each node once and executes each TM transition once (see
//! [`crate::livecheck`]).

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
}

/// The executed trace riding along the depth-first walk, with vector
/// clocks over the conflict relation (happens-before).
///
/// Besides the clocks it keeps, per process, the trace indices of that
/// process's steps; with the clocks they give each process's causal
/// floor ([`HbTrace::causal_floor`]), below which neither the clock join
/// nor the race scan looks (module docs, "Bookkeeping cost").
#[derive(Debug)]
pub(crate) struct HbTrace {
    n: usize,
    pub(crate) steps: Vec<TraceStep>,
    /// Flat vector-clock matrix: `clocks[i * n + q]` = how many of
    /// process `q`'s steps happen before (or are) step `i`.
    clocks: Vec<u32>,
    /// Per-process trace indices of its executed steps, in order:
    /// `of_proc[p][c]` is the index of `p`'s `(c + 1)`-th step.
    of_proc: Vec<Vec<u32>>,
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
            of_proc: vec![Vec::new(); n],
            races: 0,
        }
    }

    /// The smallest trace index that may hold a step unordered with the
    /// next step of `k` (see the type docs): every step below it is
    /// `k`'s own or in the causal past of `k`'s last step. `0` when `k`
    /// has not stepped yet; the trace length when nothing is unordered.
    fn causal_floor(&self, k: usize) -> usize {
        let Some(&last) = self.of_proc[k].last() else {
            return 0;
        };
        let row = &self.clocks[last as usize * self.n..][..self.n];
        let mut floor = self.steps.len();
        for (p, (&seen, idx)) in row.iter().zip(&self.of_proc).enumerate() {
            if p != k {
                if let Some(&next) = idx.get(seen as usize) {
                    floor = floor.min(next as usize);
                }
            }
        }
        floor
    }

    /// Records the execution of one step by `k` with footprint `foot`:
    /// its clock is the join of the process's previous clock and the
    /// clocks of every earlier conflicting step, plus itself.
    ///
    /// The join scans newest-first from the causal floor of `k`'s
    /// previous step (older steps are already folded into that step's
    /// clock) and skips every step whose own component the clock being
    /// built already covers: such a step happens-before one already
    /// joined, so its row cannot raise the clock.
    ///
    /// Kept out of line: inlined into the recursive `walk_optimal`, it
    /// enlarges every frame of the walk, which measurably slows it.
    #[inline(never)]
    pub(crate) fn push(&mut self, k: usize, foot: StepFootprint) {
        let n = self.n;
        let i = self.steps.len();
        let base = self.clocks.len();
        let floor = self.causal_floor(k);
        match self.of_proc[k].last() {
            Some(&prev) => {
                let row = prev as usize * n;
                self.clocks.extend_from_within(row..row + n);
            }
            None => self.clocks.resize(base + n, 0),
        }
        let (past, clock) = self.clocks.split_at_mut(base);
        for (j, step) in self.steps.iter().enumerate().skip(floor).rev() {
            if clock[step.proc as usize] >= step.local_index || !step.foot.conflicts(&foot) {
                continue;
            }
            for (c, &r) in clock.iter_mut().zip(&past[j * n..(j + 1) * n]) {
                *c = (*c).max(r);
            }
        }
        let local_index = u32::try_from(self.of_proc[k].len() + 1).expect("trace fits u32");
        clock[k] = local_index;
        self.steps.push(TraceStep {
            proc: u8::try_from(k).expect("≤ 64 processes"),
            foot,
            local_index,
        });
        self.of_proc[k].push(u32::try_from(i).expect("trace fits u32"));
    }

    pub(crate) fn pop(&mut self) {
        let step = self.steps.pop().expect("pop matches push");
        self.of_proc[step.proc as usize].pop();
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
        match self.of_proc[q].last() {
            None => false,
            Some(&l) => {
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
#[derive(Debug, PartialEq)]
pub(crate) struct WakeupEdge {
    pub(crate) proc: u8,
    pub(crate) foot: StepFootprint,
    pub(crate) sub: WakeupTree,
}

/// An ordered tree of race-reversal sequences (see the module docs):
/// children carry pairwise-distinct process labels in insertion order.
/// Exploration pops edges front-first; insertion descends by the
/// weak-initial rule.
#[derive(Debug, Default, PartialEq)]
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
    ///
    /// `v` is scratch: a consumed occurrence is rotated past the end of
    /// the slice the descent goes on with, so only an appended chain
    /// allocates.
    pub(crate) fn insert(&mut self, v: &mut [WakeupStep]) -> bool {
        self.insert_from(v, false)
    }

    fn insert_from(&mut self, v: &mut [WakeupStep], interior: bool) -> bool {
        let Some((head, tail)) = v.split_first() else {
            return false; // consumed: an existing branch covers it
        };
        if interior && self.edges.is_empty() {
            // End of an existing branch with steps left over: the
            // branch's own exploration (free seeding plus its own race
            // detection) subsumes the remainder.
            return false;
        }
        for i in 0..self.edges.len() {
            let edge = &self.edges[i];
            if let Some(pos) = v.iter().position(|s| s.proc == edge.proc) {
                if is_initial(v, pos) {
                    v[pos..].rotate_left(1);
                    let rest = v.len() - 1;
                    return self.edges[i].sub.insert_from(&mut v[..rest], true);
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
        for s in tail.iter().rev() {
            sub = WakeupTree {
                edges: vec![WakeupEdge {
                    proc: s.proc,
                    foot: s.foot,
                    sub,
                }],
            };
        }
        self.edges.push(WakeupEdge {
            proc: head.proc,
            foot: head.foot,
            sub,
        });
        true
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
    /// next-step footprint at that node. A node's footprints are pushed
    /// before its race detection, so they run one node ahead of
    /// `sleeps` and `wuts` while the node is being entered.
    feet: Vec<StepFootprint>,
    /// The reversal sequence under construction: one buffer reused by
    /// every race, so a race allocates only when its sequence is
    /// appended to a wakeup tree as a fresh chain.
    reversal: Vec<WakeupStep>,
    /// Reversal sequences inserted into wakeup trees (telemetry tally).
    pub(crate) inserts: u64,
    /// Reversals proved covered: rejected by the weak-initial sleep
    /// guard, subsumed by an existing branch, or popped with an asleep
    /// head — state-dependent footprints make the insertion-time guard
    /// conservative, so coverage can surface late (telemetry tally).
    pub(crate) redundant: u64,
    /// Every race handled, in order: the racing trace index and whether
    /// its reversal was inserted (the oracle tests' view of the scan).
    #[cfg(test)]
    log: Vec<(usize, bool)>,
}

impl OptimalDpor {
    pub(crate) fn new(n: usize) -> Self {
        OptimalDpor {
            core: HbTrace::new(n),
            n,
            sleeps: Vec::new(),
            wuts: Vec::new(),
            feet: Vec::new(),
            reversal: Vec::new(),
            inserts: 0,
            redundant: 0,
            #[cfg(test)]
            log: Vec::new(),
        }
    }

    /// Records the next-step footprints of the node being entered (at
    /// depth `core.steps.len()`), one per process.
    pub(crate) fn push_feet(&mut self, feet: impl IntoIterator<Item = StepFootprint>) {
        self.feet.extend(feet);
        debug_assert_eq!(self.feet.len(), (self.core.steps.len() + 1) * self.n);
    }

    /// Drops the footprints of a node left before [`Self::push_node`].
    pub(crate) fn pop_feet(&mut self) {
        self.feet.truncate(self.feet.len() - self.n);
    }

    /// The next-step footprints at the node at `depth`.
    pub(crate) fn feet(&self, depth: usize) -> &[StepFootprint] {
        &self.feet[depth * self.n..][..self.n]
    }

    /// Enters a node at depth `sleeps.len()`, whose footprints
    /// [`Self::push_feet`] recorded: records its sleep set and pending
    /// wakeup tree.
    pub(crate) fn push_node(&mut self, sleep: u64, wut: WakeupTree) {
        debug_assert_eq!(self.feet.len(), (self.sleeps.len() + 1) * self.n);
        self.sleeps.push(sleep);
        self.wuts.push(wut);
    }

    pub(crate) fn pop_node(&mut self) {
        self.sleeps.pop().expect("pop matches push");
        self.wuts.pop();
        self.pop_feet();
    }

    /// Marks `k` explored at the node at `depth` (joins its sleep set).
    pub(crate) fn sleep_child(&mut self, depth: usize, k: usize) {
        self.sleeps[depth] |= 1 << k;
    }

    /// The sleep set a child of the node at `depth` inherits when `k`
    /// steps there: a sleeper stays asleep only while its next step is
    /// independent of the step just taken.
    pub(crate) fn child_sleep(&self, depth: usize, sleep: u64, k: usize) -> u64 {
        let feet = self.feet(depth);
        let mut child = 0u64;
        for (q, foot) in feet.iter().enumerate() {
            if sleep & (1 << q) != 0 && !foot.conflicts(&feet[k]) {
                child |= 1 << q;
            }
        }
        child
    }

    pub(crate) fn wut_is_empty(&self, depth: usize) -> bool {
        self.wuts[depth].is_empty()
    }

    /// Seeds the node at `depth` with a free step by `proc`.
    pub(crate) fn seed(&mut self, depth: usize, proc: usize) {
        let foot = self.feet(depth)[proc];
        self.wuts[depth].seed(u8::try_from(proc).expect("≤ 64 processes"), foot);
    }

    pub(crate) fn pop_edge(&mut self, depth: usize) -> Option<WakeupEdge> {
        self.wuts[depth].pop_first()
    }

    /// Race detection at the node being entered, for *every* process's
    /// next step, leaves included: at the depth frontier the conflicting
    /// "second" step never executes, so detection keyed on executed
    /// steps alone would miss reversals that only differ in the final
    /// steps of the bounded window. Incremental: a process that did not
    /// just step and whose footprint is unchanged since the parent node
    /// has all its races against older steps already handled there (its
    /// clock is unchanged too), so only the newest trace step needs
    /// checking. The other processes — the one that stepped and any
    /// whose footprint changed with the state — rescan from their causal
    /// floor. Reversal sequences insert into *ancestor* nodes' wakeup
    /// trees; the node's own tree is pushed after detection.
    pub(crate) fn detect_node_races(&mut self) {
        let len = self.core.steps.len();
        let Some(last) = self.core.steps.last() else {
            return;
        };
        let last_proc = last.proc as usize;
        for q in 0..self.n {
            let foot = self.feet(len)[q];
            let rescan = q == last_proc || self.feet(len - 1)[q] != foot;
            self.detect_races(q, &foot, if rescan { 0 } else { len - 1 });
        }
    }

    /// Race detection for the next step of process `k` (footprint
    /// `fp`) against trace steps `lo..`: for every reversible race — a
    /// conflicting step by another process, not already ordered before
    /// `k` — derive the full reversal sequence `notdep(e, E) · k` and
    /// insert it into the racing node's wakeup tree unless the
    /// weak-initial sleep guard proves it covered.
    ///
    /// The scan runs newest-first over `max(lo, floor)..`, where `floor`
    /// is `k`'s causal floor: no step below it can race with `k`. Callers
    /// pass `lo = 0` for a full scan, or `lo = len - 1` to check only the
    /// step just executed: a race handled at an ancestor stays handled,
    /// because an initial of the shorter reversed continuation remains an
    /// initial of every extension (new events by other processes cannot
    /// become happens-before predecessors of it), so only the *new* step
    /// needs checking when neither `k`'s footprint nor its clock changed.
    pub(crate) fn detect_races(&mut self, k: usize, fp: &StepFootprint, lo: usize) {
        let len = self.core.steps.len();
        let from = lo.max(self.core.causal_floor(k));
        for e in (from..len).rev() {
            let step = &self.core.steps[e];
            if step.proc as usize == k || !step.foot.conflicts(fp) || self.core.hb_to_next(e, k) {
                continue;
            }
            self.core.races += 1;
            // Redundant when an explored or sleeping branch covers it
            // (the guard) or a pending branch subsumes it (the insertion).
            let inserted =
                self.guarded_reversal(e, k, fp) && self.wuts[e].insert(&mut self.reversal);
            if inserted {
                self.inserts += 1;
            } else {
                self.redundant += 1;
            }
            #[cfg(test)]
            self.log.push((e, inserted));
        }
    }

    /// Builds the reversal `v = notdep(e, E) · k` of the race at trace
    /// index `e` into the scratch buffer, under the weak-initials guard:
    /// returns `false`, possibly before `v` is complete, once `WI(v)` —
    /// the initials of `v`, plus the processes outside `v` whose next
    /// step at `e` is independent of all of `v` (executing such a step
    /// first commutes with the whole reversal) — meets `e`'s sleep set.
    /// A running union of the footprints built so far stands for "some
    /// earlier step of `v`" (a footprint conflicts with a union iff it
    /// conflicts with one of its parts), so each step's initial test and
    /// each sleeper's weak test is one `conflicts` call: the guard is
    /// linear in `|v|`, and the build stops at the first sleeping
    /// initial.
    fn guarded_reversal(&mut self, e: usize, k: usize, fp: &StepFootprint) -> bool {
        let sleep = self.sleeps[e];
        let core = &self.core;
        let last = WakeupStep {
            proc: u8::try_from(k).expect("≤ 64 processes"),
            foot: *fp,
        };
        let v = (e + 1..core.steps.len())
            .filter(|&j| !core.hb_steps(e, j))
            .map(|j| WakeupStep {
                proc: core.steps[j].proc,
                foot: core.steps[j].foot,
            })
            .chain(std::iter::once(last));
        self.reversal.clear();
        let mut union = StepFootprint::local();
        let mut procs = 0u64;
        for step in v {
            let bit = 1u64 << step.proc;
            if procs & bit == 0 {
                if sleep & bit != 0 && !step.foot.conflicts(&union) {
                    return false;
                }
                procs |= bit;
            }
            union.merge(&step.foot);
            self.reversal.push(step);
        }
        let feet = &self.feet[e * self.n..][..self.n];
        feet.iter()
            .enumerate()
            .all(|(q, foot)| sleep & !procs & (1 << q) == 0 || foot.conflicts(&union))
    }
}

#[cfg(test)]
mod tests {
    //! Naive oracles for the reduction bookkeeping: seeded random walks
    //! push and pop steps and nodes on a production [`OptimalDpor`] and
    //! on an oracle twin whose race detection is a naive full scan over
    //! a transitive-closure happens-before relation, with the reversal
    //! built in a fresh `Vec` and inserted by `Vec::remove`.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_foot(rng: &mut StdRng) -> StepFootprint {
        match rng.gen_range(0..8u8) {
            0 => StepFootprint::global(),
            1 => StepFootprint::local(),
            _ => StepFootprint {
                var_reads: rng.gen_range(0..8u64),
                var_writes: rng.gen_range(0..8u64) & rng.gen_range(0..8u64),
                global_read: rng.gen_bool(0.2),
                global_write: rng.gen_bool(0.1),
                ends: rng.gen_bool(0.3),
                begins: rng.gen_bool(0.3),
            },
        }
    }

    /// `preds[i]`: the bitset of trace steps that happen before step
    /// `i`, as the transitive closure of program order and conflicts.
    fn naive_preds(steps: &[TraceStep]) -> Vec<u64> {
        let mut preds: Vec<u64> = Vec::with_capacity(steps.len());
        for (i, s) in steps.iter().enumerate() {
            let mut p = 0u64;
            for (j, t) in steps[..i].iter().enumerate() {
                if t.proc == s.proc || t.foot.conflicts(&s.foot) {
                    p |= preds[j] | 1 << j;
                }
            }
            preds.push(p);
        }
        preds
    }

    /// Whether step `e` is ordered before the next step of `k`.
    fn naive_hb_to_next(steps: &[TraceStep], preds: &[u64], e: usize, k: usize) -> bool {
        steps[e].proc as usize == k
            || steps
                .iter()
                .rposition(|s| s.proc as usize == k)
                .is_some_and(|last| preds[last] & 1 << e != 0)
    }

    /// The races of `k`'s next step (footprint `fp`) among steps `lo..`,
    /// newest first, by a scan of every step.
    fn naive_races(
        steps: &[TraceStep],
        preds: &[u64],
        k: usize,
        fp: &StepFootprint,
        lo: usize,
    ) -> Vec<usize> {
        (lo..steps.len())
            .rev()
            .filter(|&e| {
                steps[e].proc as usize != k
                    && steps[e].foot.conflicts(fp)
                    && !naive_hb_to_next(steps, preds, e, k)
            })
            .collect()
    }

    /// Each clock row equals the naive join: per process, the count of
    /// its steps among the step's closure predecessors, plus itself.
    fn assert_clocks(hb: &HbTrace) {
        let preds = naive_preds(&hb.steps);
        for (i, &past) in preds.iter().enumerate() {
            let row: Vec<u32> = (0..hb.n)
                .map(|q| {
                    let mine = hb.steps[..=i]
                        .iter()
                        .enumerate()
                        .filter(|&(j, t)| t.proc as usize == q && (j == i || past & 1 << j != 0))
                        .count();
                    u32::try_from(mine).unwrap()
                })
                .collect();
            assert_eq!(&hb.clocks[i * hb.n..][..hb.n], &row[..], "clock row {i}");
        }
    }

    /// The causal floor never skips a step a naive `0..len` scan would
    /// report as a race, for any footprint (`global()` conflicts with
    /// every step), and everything under it is ordered before `k`.
    fn assert_floors(hb: &HbTrace) {
        let preds = naive_preds(&hb.steps);
        for k in 0..hb.n {
            let floor = hb.causal_floor(k);
            for e in 0..floor {
                assert!(
                    naive_hb_to_next(&hb.steps, &preds, e, k),
                    "floor {floor} of {k} skips unordered step {e}"
                );
            }
            let races = naive_races(&hb.steps, &preds, k, &StepFootprint::global(), 0);
            assert!(
                races.iter().all(|&e| e >= floor),
                "floor {floor} of {k} skips a race"
            );
        }
    }

    /// The pre-scratch insertion: consumes by `Vec::remove`.
    fn naive_insert(tree: &mut WakeupTree, mut v: Vec<WakeupStep>, interior: bool) -> bool {
        if v.is_empty() || (interior && tree.edges.is_empty()) {
            return false;
        }
        for i in 0..tree.edges.len() {
            let edge = &tree.edges[i];
            if let Some(pos) = v.iter().position(|s| s.proc == edge.proc) {
                if is_initial(&v, pos) {
                    v.remove(pos);
                    return naive_insert(&mut tree.edges[i].sub, v, true);
                }
            } else if v.iter().all(|s| !edge.foot.conflicts(&s.foot)) {
                return naive_insert(&mut tree.edges[i].sub, v, true);
            }
        }
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
        tree.edges.append(&mut sub.edges);
        true
    }

    /// `WI(v)` at the node at depth `e`, computed pairwise: initials of
    /// `v`, plus processes outside `v` whose next step at that node is
    /// independent of every step of `v`.
    fn weak_initials(o: &OptimalDpor, e: usize, v: &[WakeupStep]) -> u64 {
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
        for q in 0..o.n {
            let bit = 1u64 << q;
            if procs & bit != 0 {
                continue;
            }
            let foot = &o.feet[e * o.n + q];
            if v.iter().all(|s| !foot.conflicts(&s.foot)) {
                wi |= bit;
            }
        }
        wi
    }

    /// The oracle's race detection: a naive scan of `lo..`, a fresh
    /// reversal `Vec` per race.
    fn naive_detect(o: &mut OptimalDpor, k: usize, fp: &StepFootprint, lo: usize) {
        let len = o.core.steps.len();
        let preds = naive_preds(&o.core.steps);
        for e in naive_races(&o.core.steps, &preds, k, fp, lo) {
            o.core.races += 1;
            let mut v: Vec<WakeupStep> = (e + 1..len)
                .filter(|&j| preds[j] & 1 << e == 0)
                .map(|j| WakeupStep {
                    proc: o.core.steps[j].proc,
                    foot: o.core.steps[j].foot,
                })
                .collect();
            v.push(WakeupStep {
                proc: u8::try_from(k).unwrap(),
                foot: *fp,
            });
            let inserted = weak_initials(o, e, &v) & o.sleeps[e] == 0
                && naive_insert(&mut o.wuts[e], v, false);
            if inserted {
                o.inserts += 1;
            } else {
                o.redundant += 1;
            }
            o.log.push((e, inserted));
        }
    }

    fn naive_detect_node(o: &mut OptimalDpor) {
        let len = o.core.steps.len();
        let Some(last) = o.core.steps.last() else {
            return;
        };
        let last_proc = last.proc as usize;
        for q in 0..o.n {
            let foot = o.feet(len)[q];
            let rescan = q == last_proc || o.feet(len - 1)[q] != foot;
            naive_detect(o, q, &foot, if rescan { 0 } else { len - 1 });
        }
    }

    fn assert_same(prod: &OptimalDpor, oracle: &OptimalDpor) {
        assert_eq!(prod.log, oracle.log, "races, their order and decisions");
        assert_eq!(
            (prod.core.races, prod.inserts, prod.redundant),
            (oracle.core.races, oracle.inserts, oracle.redundant)
        );
        assert_eq!(prod.wuts, oracle.wuts, "wakeup trees");
    }

    /// Enters a node on both twins: footprints (each kept from the
    /// parent or redrawn), race detection, then a random sleep set.
    fn enter(rng: &mut StdRng, prod: &mut OptimalDpor, oracle: &mut OptimalDpor) {
        let n = prod.n;
        let depth = prod.core.steps.len();
        let feet: Vec<StepFootprint> = (0..n)
            .map(|q| {
                if depth > 0 && rng.gen_bool(0.5) {
                    prod.feet(depth - 1)[q]
                } else {
                    random_foot(rng)
                }
            })
            .collect();
        prod.push_feet(feet.iter().copied());
        oracle.push_feet(feet);
        prod.detect_node_races();
        naive_detect_node(oracle);
        assert_same(prod, oracle);
        // A full scan for an arbitrary footprint, too.
        if rng.gen_bool(0.3) {
            let k = rng.gen_range(0..n);
            let fp = random_foot(rng);
            prod.detect_races(k, &fp, 0);
            naive_detect(oracle, k, &fp, 0);
            assert_same(prod, oracle);
        }
        let sleep = (0..n).fold(0u64, |s, q| s | u64::from(rng.gen_bool(0.2)) << q);
        prod.push_node(sleep, WakeupTree::default());
        oracle.push_node(sleep, WakeupTree::default());
    }

    #[test]
    fn bookkeeping_matches_naive_oracles_on_random_walks() {
        let mut descents = 0;
        let mut races = 0;
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=4usize);
            let max_depth = rng.gen_range(4..=28usize);
            let mut prod = OptimalDpor::new(n);
            let mut oracle = OptimalDpor::new(n);
            enter(&mut rng, &mut prod, &mut oracle);
            for _ in 0..160 {
                let depth = prod.core.steps.len();
                if depth < max_depth && (depth == 0 || rng.gen_bool(0.6)) {
                    // Descend like the walk: the node's first pending
                    // edge, or a free step.
                    let k = match prod.pop_edge(depth) {
                        Some(edge) => {
                            let twin = oracle.pop_edge(depth).expect("twin edge");
                            assert_eq!(edge.proc, twin.proc);
                            edge.proc as usize
                        }
                        None => rng.gen_range(0..n),
                    };
                    let foot = prod.feet(depth)[k];
                    prod.core.push(k, foot);
                    oracle.core.push(k, foot);
                    descents += 1;
                    enter(&mut rng, &mut prod, &mut oracle);
                } else if depth > 0 {
                    prod.pop_node();
                    oracle.pop_node();
                    let k = prod.core.steps.last().expect("a step").proc as usize;
                    prod.core.pop();
                    oracle.core.pop();
                    prod.sleep_child(depth - 1, k);
                    oracle.sleep_child(depth - 1, k);
                }
                assert_clocks(&prod.core);
                assert_floors(&prod.core);
            }
            races += prod.core.races;
        }
        // The walks are not vacuous.
        assert!(
            descents > 10_000 && races > 10_000,
            "{descents} descents, {races} races"
        );
    }
}
