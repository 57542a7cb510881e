//! # tm-liveness-repro
//!
//! A full reproduction of **“On the Liveness of Transactional Memory”**
//! (Bushkov, Guerraoui, Kapałka; PODC 2012) as a Rust workspace. This
//! umbrella crate re-exports the member crates under stable module names:
//!
//! * [`core`] — events, histories, transactions, the sequential
//!   specification, and the paper's figure histories;
//! * [`safety`] — exact opacity / strict serializability checkers and the
//!   incremental commit-order certifier;
//! * [`liveness`] — lasso-shaped infinite histories, process
//!   classification (Figure 2), the TM-liveness properties (local /
//!   global / solo progress) and the nonblocking/biprogressing property
//!   classes;
//! * [`automata`] — the TM I/O-automaton framework, the paper's `Fgp`
//!   automaton (Theorem 3) and reachable-state enumeration (Figure 15);
//! * [`stm`] — seven executable STM algorithms in stepped form plus three
//!   concurrent (thread-driven) forms;
//! * [`adversary`] — Algorithms 1 and 2 from Theorem 1's proof and the
//!   n-process generalization (Lemma 1), with the game driver;
//! * [`sim`] — schedulers, crash/parasitic fault injection, workloads, and
//!   the bounded-exhaustive interleaving model checker;
//! * [`telemetry`] — engine-wide counters, phase spans and the NDJSON
//!   event stream both checkers emit (see its module docs for the wire
//!   schema and the counter-semantics contract);
//! * [`obs`] — the consumer side of that stream: a typed
//!   forward-compatible parser plus run summaries, live progress,
//!   witness timelines and the counter-snapshot diff behind the
//!   `tm-obs` binary.
//!
//! ## Quickstart
//!
//! ```
//! use tm_liveness_repro::prelude::*;
//!
//! // 1. The paper's Figure 1 history is opaque; Figure 3's is not.
//! assert!(is_opaque(&figures::figure_1()));
//! assert!(!is_opaque(&figures::figure_3()));
//!
//! // 2. Theorem 1: the Algorithm 1 adversary starves p1 against TL2.
//! let mut tm = Tl2::new(2, 1);
//! let mut adv = Algorithm1::new(TVarId(0));
//! let report = run_game(&mut tm, &mut adv, GameConfig::steps(1_000));
//! assert_eq!(report.commits[0], 0);
//!
//! // 3. Theorem 3: Fgp keeps global progress under the same attack.
//! assert!(report.commits[1] > 0);
//! ```

pub use tm_adversary as adversary;
pub use tm_automata as automata;
pub use tm_core as core;
pub use tm_liveness as liveness;
pub use tm_obs as obs;
pub use tm_safety as safety;
pub use tm_sim as sim;
pub use tm_stm as stm;
pub use tm_telemetry as telemetry;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use tm_adversary::{
        run_game, Algorithm1, Algorithm2, GameConfig, GameReport, RotatingStarver, Strategy,
    };
    pub use tm_automata::{enumerate_states, Fgp, FgpVariant, GlobalLockTm, Runner, TmAutomaton};
    pub use tm_core::builder::figures;
    pub use tm_core::{
        Event, History, HistoryBuilder, Invocation, ProcessId, Response, TVarId, Transaction,
        TxStatus, Value,
    };
    pub use tm_liveness::{
        classify, GlobalProgress, InfiniteHistory, LocalProgress, ProcessClass, SoloProgress,
        TmLivenessProperty,
    };
    pub use tm_safety::{
        check_opacity, check_opacity_auto, check_strict_serializability, is_opaque,
        is_strictly_serializable, IncrementalChecker, Mode, SafetyProperty,
    };
    pub use tm_sim::{
        certify_workload, explore_schedules, explore_with, livecheck, simulate, Budget, Client,
        ClientScript, ExploreConfig, FairProcessVerdicts, FaultConfig, FaultPlan, LassoFinding,
        LivecheckConfig, LivecheckReport, OnlineConfig, OnlinePipeline, OnlineReport,
        OnlineWorkload, RandomScheduler, RoundRobin, Scheduler, SimConfig,
    };
    pub use tm_stm::{
        concurrent::{
            atomically, ConcurrentBuggy, ConcurrentGlobalLock, ConcurrentNOrec, ConcurrentTl2,
        },
        full_catalog, nonblocking_catalog, Dstm, FgpTm, GlobalLock, NOrec, Ostm, Outcome, Recorded,
        SteppedTm, TinyStm, Tl2,
    };
    pub use tm_telemetry::{Counter, Snapshot, Telemetry};
}
