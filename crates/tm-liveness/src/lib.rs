//! TM-liveness properties over infinite histories.
//!
//! This crate implements Section 3 ("Liveness of a TM") and the property
//! classes of Section 5.1 of *On the Liveness of Transactional Memory*
//! (PODC 2012):
//!
//! * [`InfiniteHistory`] — eventually periodic (`prefix · cycle^ω`) infinite
//!   histories, on which all of the paper's "infinitely often" predicates
//!   are exactly decidable;
//! * [`classify`](classify()) — the process classes of Figure 2 (crashed, parasitic,
//!   pending, starving, correct, faulty) and derived predicates
//!   (makes-progress, runs-alone);
//! * [`LocalProgress`], [`GlobalProgress`], [`SoloProgress`] — the paper's
//!   three TM-liveness properties behind the [`TmLivenessProperty`] trait;
//! * [`meta`] — the *nonblocking* and *biprogressing* property classes of
//!   Theorem 2, as per-history conditions plus corpus-level counterexample
//!   search;
//! * [`scc`] — certified cycle-existence verdicts (starving / parasitic /
//!   blocked / progressing) over explored state graphs, plus
//!   fairness-filtered variants that keep only cycles scheduling every
//!   live process infinitely often and separate crash-induced from
//!   TM-induced starvation. One [`certify`] call decides both with
//!   `1 + 3·processes` Tarjan passes: one over the whole [`CycleGraph`],
//!   then one per process and filter over its intra-component edges;
//! * [`figures`] — the paper's infinite-history figures (5, 6, 7, 9, 10,
//!   12, 13, 14) as ready-made lassos.
//!
//! ```
//! use tm_liveness::{figures, GlobalProgress, LocalProgress, TmLivenessProperty};
//!
//! let h = figures::figure_6();
//! assert!(GlobalProgress.contains(&h));
//! assert!(!LocalProgress.contains(&h)); // p2 starves
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod detect;
pub mod figures;
pub mod lasso;
pub mod meta;
pub mod properties;
pub mod scc;

pub use classify::{
    classify, classify_all, correct_processes, is_correct, is_crashed, is_faulty, is_parasitic,
    is_pending, is_starving, makes_progress, progressing_processes, runs_alone, ProcessClass,
};
pub use detect::{detect_lasso, lasso_from_cycle};
pub use lasso::{InfiniteHistory, LassoError};
pub use meta::{satisfies_biprogressing_condition, satisfies_nonblocking_condition};
pub use properties::{
    GlobalProgress, LocalProgress, PriorityProgress, SoloProgress, TmLivenessProperty,
};
pub use scc::{certify, CycleEdge, CycleGraph, FairProcessVerdicts, ProcessCycleVerdicts};
