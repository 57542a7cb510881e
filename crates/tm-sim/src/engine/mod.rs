//! The exploration kernel: the search substrate shared by the safety
//! explorer and the liveness checker.
//!
//! Both model checkers in this crate are bounded searches over the
//! configurations of a stepped TM driven by deterministic clients. They
//! differ in *what* they search — the safety explorer walks the
//! `n^depth` **schedule tree** certifying opacity of every history
//! prefix; the liveness checker walks the canonical **state graph**
//! hunting lassos — but the substrate beneath them is the same:
//! fork/refork TM recycling, client mark/restore, a budget meter and
//! reduction hooks. This module owns that substrate once.
//!
//! # Layers
//!
//! ```text
//!   report      Exploration (explore)        LivecheckReport (livecheck)
//!      ▲                ▲                            ▲
//!   budget      [`budget::BudgetMeter`] — caps on states / schedules /
//!      │        wall clock; a tripped cap or a panicking TM step
//!      │        degrades the run into a partial report with an explicit
//!      │        `exhausted` verdict
//!      ▲                ▲                            ▲
//!   faults                                    `FaultConfig` adds
//!      │                                      `crash(p)`/`parasite(p)`
//!      │                                      transitions; `FaultState`
//!      │                                      folds into the node ids
//!      ▲                ▲                            ▲
//!   reduction   optimal DPOR: wakeup trees    one expansion per state
//!      │        (`reduction`, schedule search) (breadth-first, graph search)
//!      ▲                ▲                            ▲
//!   interning                                 [`memo::Interner`] — the
//!      │                                      graph checker's node ids
//!      ▲                ▲                            ▲
//!   space       one stepper — expand a configuration one process-step
//!      │        at a time ([`StepRecord`]); each checker's space marks
//!      │        and rewinds its client (and certifier) state
//!      ▲                ▲                            ▲
//!   TM pool     [`TmPool`] — allocation-free fork/refork box recycling
//!               (hoisted into `tm_stm::api`, shared by every walker)
//! ```
//!
//! The two checkers are instantiations of this stack, each one
//! sequential walk:
//!
//! * [`crate::explore::explore_with`] drives a `ScheduleSpace` (clients +
//!   schedule path + history + incremental opacity certifier) through the
//!   schedule tree under optimal-DPOR reduction. It quantifies over
//!   schedules only; its oracle, the from-scratch enumerator
//!   [`crate::explore::explore_schedules`], uses none of this stack;
//! * [`crate::livecheck::livecheck`] drives a `GraphSpace` (clients +
//!   fault masks, no certifier) breadth-first through the interned state
//!   graph, expanding each node once and executing each TM transition
//!   once (a transition memo shares it across fault masks). It is the
//!   one checker that quantifies over the
//!   crashes and parasitic turns a [`crate::faults::FaultConfig`]
//!   allows; [`crate::livecheck::livecheck_reference`], the
//!   depth-budget DFS that re-executes its re-walks, is the differential
//!   oracle.
//!
//! In both, a panicking TM step ends the walk in a partial report.
//! Determinism is the kernel's invariant: both walks are sequential, so
//! reports are byte-identical from run to run and at any rayon thread
//! count — the property all differential suites pin.
//! [`frontier::distribute`] remains as the kernel's order-preserving
//! parallel map for callers outside the two walks.

pub mod budget;
pub mod frontier;
pub mod memo;
pub(crate) mod reduction;
pub mod space;

pub use budget::{Budget, BudgetMeter};
pub use space::StepRecord;
pub use tm_stm::TmPool;
