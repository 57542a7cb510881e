//! Simulation substrate: schedulers, faults, workloads, and a bounded
//! model checker for stepped TMs.
//!
//! The paper's systems model is an asynchronous shared-memory system where
//! a scheduler — beyond anyone's control — orders process steps, and any
//! number of processes may crash or turn parasitic. This crate makes that
//! model executable:
//!
//! * [`Scheduler`] implementations ([`RoundRobin`], [`RandomScheduler`],
//!   [`WeightedScheduler`], [`FixedSchedule`]);
//! * [`FaultPlan`] — crash and parasitic-turn injection at chosen steps;
//! * [`Client`] / [`ClientScript`] — the transactional programs processes
//!   run, with retry-on-abort;
//! * [`simulate`] — the simulation loop, with per-process progress
//!   accounting and optional online opacity certification;
//! * [`explore_with`] — bounded-exhaustive opacity checking over all
//!   interleavings by one optimal-DPOR walk, the executable analogue of
//!   Theorem 3's "every finite history of `Fgp` is opaque", with the
//!   from-scratch enumerator [`explore_schedules`] as its differential
//!   oracle;
//! * [`livecheck`](livecheck()) — bounded *liveness* model checking: lasso detection
//!   over the canonical state graph, classifying which processes a TM
//!   can starve, block, or keep progressing (the paper's Figure 2
//!   taxonomy, decided mechanically) by one breadth-first walk that
//!   executes each TM transition once, with
//!   [`livecheck_reference`] as its differential oracle;
//! * [`FaultConfig`] — fault-*prone* liveness checking: crash and
//!   parasitic-turn transitions quantified exhaustively inside
//!   livecheck (every fault placement the budget admits, not one
//!   scripted plan), with witnesses carrying their concrete
//!   [`FaultPlan`];
//! * [`Budget`] — graceful degradation: state/schedule/wall-clock caps
//!   that stop the search and downgrade the result to an explicit
//!   partial verdict instead of running unbounded;
//! * [`online`] — streaming opacity certification at production
//!   traffic: the consumer side of `tm_stm`'s sharded recorder, sealing
//!   the merged event stream into epochs, cutting it into
//!   independently certifiable chunks, and certifying them on a rayon
//!   pool while worker threads keep committing
//!   ([`certify_workload`]);
//! * [`engine`] — the exploration kernel beneath both model checkers:
//!   the shared stepper and its [`engine::StepRecord`], TM
//!   fork/refork pooling ([`tm_stm::TmPool`]), the state interner,
//!   reduction state, budgets, and a deterministic parallel map.
//!
//! ```
//! use tm_core::TVarId;
//! use tm_sim::{simulate, Client, ClientScript, FaultPlan, RandomScheduler, SimConfig};
//! use tm_stm::Tl2;
//!
//! let x = TVarId(0);
//! let mut tm = Tl2::new(2, 1);
//! let mut clients = vec![
//!     Client::new(ClientScript::increment(x)),
//!     Client::new(ClientScript::increment(x)),
//! ];
//! let report = simulate(
//!     &mut tm,
//!     &mut clients,
//!     &mut RandomScheduler::new(42),
//!     &FaultPlan::none(),
//!     SimConfig::steps(300).check_opacity(),
//! );
//! assert!(report.safety_ok);
//! assert!(report.commits.iter().all(|&c| c > 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod explore;
pub mod faults;
pub mod livecheck;
pub mod online;
pub mod runner;
pub mod scheduler;
pub mod workload;

pub use engine::{Budget, BudgetMeter};
pub use explore::{
    explore_schedules, explore_with, mazurkiewicz_classes, schedule_normal_form, Exploration,
    ExploreConfig, Violation,
};
pub use faults::{Fault, FaultConfig, FaultPlan, FaultState};
pub use livecheck::{
    livecheck, livecheck_reference, DigestCheck, FairProcessVerdicts, LassoFinding,
    LivecheckConfig, LivecheckReport, ProcessCycleVerdicts,
};
pub use online::{
    certify_chunk, certify_workload, Chunk, Chunker, OnlineConfig, OnlinePipeline, OnlineReport,
    OnlineViolation, OnlineWorkload,
};
pub use runner::{simulate, SimConfig, SimReport};
pub use scheduler::{FixedSchedule, RandomScheduler, RoundRobin, Scheduler, WeightedScheduler};
pub use workload::{random_script, Client, ClientMark, ClientScript, PlannedOp, WorkloadConfig};
