//! The exploration kernel: the search substrate shared by the safety
//! explorer and the liveness checker.
//!
//! Both model checkers in this crate are bounded searches over the
//! configurations of a stepped TM driven by deterministic clients. They
//! differ in *what* they search — the safety explorer walks the
//! `n^depth` **schedule tree** certifying opacity of every history
//! prefix; the liveness checker walks the canonical **state graph**
//! hunting lassos — but the substrate beneath them is the same, and
//! before this module existed each checker carried its own copy: a DFS
//! frontier, fork/refork TM recycling, client mark/restore, digest-keyed
//! seen sets, reduction hooks, and a rayon frontier. This module owns
//! that substrate once.
//!
//! # Layers
//!
//! ```text
//!   report      Exploration (explore)        LivecheckReport (livecheck)
//!      ▲                ▲                            ▲
//!   budget      [`budget::BudgetMeter`] — shared atomic caps on states /
//!      │        schedules / wall clock; a tripped cap degrades the run
//!      │        into a partial report with an explicit `exhausted` verdict
//!      ▲                ▲                            ▲
//!   frontier    [`frontier::distribute`] — deterministic order-preserving
//!      │        parallel map over subtree roots (explorer only; the graph
//!      │        walk is sequential), lexicographic merge;
//!      │        [`frontier::distribute_isolated`] adds per-item panic
//!      │        isolation; [`frontier::auto_split_depth`] splits
//!      ▲                ▲                            ▲
//!   faults      [`crate::faults::FaultConfig`] widens the branch space with
//!      │        `crash(p)` / `parasite(p)` scheduler transitions; the
//!      │        per-branch [`crate::faults::FaultState`] masks fold into
//!      │        memo keys and node identities so dedup stays sound
//!      ▲                ▲                            ▲
//!   reduction   optimal DPOR: wakeup trees    transition memoization
//!      │        (`reduction`, schedule search) (edge replay, graph search)
//!      ▲                ▲                            ▲
//!   seen sets   [`memo::SeenSet`] — per-worker deterministic tables;
//!      │        [`memo::Interner`] for the graph checker's configuration ids
//!      ▲                ▲                            ▲
//!   space       [`SearchSpace`] — expand a configuration one process-step
//!      │        at a time ([`StepRecord`]), digest it, checkpoint/rollback
//!      │        the client (and certifier) state
//!      ▲                ▲                            ▲
//!   TM pool     [`TmPool`] — allocation-free fork/refork box recycling
//!               (hoisted into `tm_stm::api`, shared by every walker)
//! ```
//!
//! The two checkers are instantiations of this stack:
//!
//! * [`crate::explore::explore_with`] drives a `ScheduleSpace` (clients +
//!   schedule path + history + incremental opacity certifier) through the
//!   schedule tree, exhaustively or under optimal-DPOR reduction, with
//!   the split-depth parallel frontier;
//! * [`crate::livecheck::livecheck`] drives a `GraphSpace` (clients +
//!   schedule + history, no certifier) through the interned state graph
//!   on one thread, with transition-level reduction (execute each graph
//!   edge once, replay re-walks) and the unreduced walk kept as its
//!   differential oracle; a panicking TM step ends the walk in a partial
//!   report.
//!
//! Determinism is the kernel's invariant: the explorer's parallel
//! frontier merges worker results in lexicographic subtree-root order,
//! and the graph walk is sequential, so reports are byte-identical
//! regardless of thread count — the property all differential suites
//! pin.

pub mod budget;
pub mod frontier;
pub mod memo;
pub(crate) mod reduction;
pub mod space;

pub use budget::{Budget, BudgetMeter};
pub use space::{SearchSpace, StepRecord};
pub use tm_stm::TmPool;
