//! Fault injection: crashes and parasitic turns.
//!
//! The paper's fault-prone systems allow any number of processes to crash
//! (stop taking steps forever) or to be parasitic (keep executing
//! operations but never attempt to commit). Both are *schedule-level*
//! phenomena — the TM cannot distinguish a crashed process from a slow
//! one — so they are injected at the scheduler layer:
//!
//! * a **crash** at step `t` removes the process from the eligible set of
//!   every step `≥ t`;
//! * a **parasitic turn** at step `t` makes the process restart its
//!   current transaction whenever it would invoke `tryC`, from step `t`
//!   on, so it repeats that transaction's operations forever.
//!
//! Two layers consume this module:
//!
//! * the concrete simulation loop ([`crate::runner::simulate`]) replays a
//!   fixed [`FaultPlan`] — one chosen adversary;
//! * the liveness checker ([`mod@crate::livecheck`]) quantifies over
//!   *all* fault placements a [`FaultConfig`] allows: `crash(p)` /
//!   `parasite(p)` become scheduler-level transitions of the search,
//!   explored exhaustively like any process step, and each
//!   [`crate::livecheck::LassoFinding`] carries the concrete
//!   [`FaultPlan`] its branch chose. The per-branch bookkeeping is a
//!   [`FaultState`] — the crashed/parasitic masks plus the remaining
//!   crash budget — which folds into the graph-node identities so states
//!   never merge across fault placements.
//!
//! Only livecheck quantifies faults: crashes and parasitic turns decide
//! liveness verdicts. The safety explorer ([`mod@crate::explore`])
//! walks fault-free schedules; a crashed process leaves a prefix of a
//! fault-free history, and opacity is prefix-closed.

use serde::{Deserialize, Serialize};

use tm_core::ProcessId;
use tm_telemetry::Json;

/// A single injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// The process takes no steps at or after the given step.
    Crash {
        /// The affected process.
        process: ProcessId,
        /// The global step at which the process disappears.
        at_step: usize,
    },
    /// The process never invokes `tryC` again: the simulation and the
    /// liveness checker restart its current transaction each time it
    /// reaches `tryC`, so it repeats that transaction's operations.
    Parasitic {
        /// The affected process.
        process: ProcessId,
        /// The global step at which the switch happens.
        at_step: usize,
    },
}

impl Fault {
    /// The process affected by the fault.
    pub fn process(&self) -> ProcessId {
        match *self {
            Fault::Crash { process, .. } | Fault::Parasitic { process, .. } => process,
        }
    }

    /// The step at which the fault takes effect.
    pub fn at_step(&self) -> usize {
        match *self {
            Fault::Crash { at_step, .. } | Fault::Parasitic { at_step, .. } => at_step,
        }
    }
}

/// What fault placements a liveness-checking run
/// ([`crate::livecheck::LivecheckConfig::faults`]) quantifies over.
///
/// `FaultConfig::none()` (the default) keeps livecheck byte-identical
/// to fault-free exploration: no fault transitions exist and no fault
/// state is folded into any key. With `max_crashes > 0` the scheduler
/// gains a `crash(p)` transition per live process while the crash budget
/// lasts; with `allow_parasitic` it gains a `parasite(p)` transition per
/// live, not-yet-parasitic process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// How many crashes the adversary may inject (0 disables crashes).
    pub max_crashes: usize,
    /// Whether the adversary may turn processes parasitic.
    pub allow_parasitic: bool,
}

impl FaultConfig {
    /// No faults: livecheck explores exactly the fault-free space.
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// Allows up to `max_crashes` crashes.
    pub fn with_crashes(max_crashes: usize) -> Self {
        FaultConfig {
            max_crashes,
            ..FaultConfig::default()
        }
    }

    /// Allows parasitic turns (builder style).
    pub fn and_parasitic(mut self) -> Self {
        self.allow_parasitic = true;
        self
    }

    /// Whether any fault transition exists at all.
    pub fn enabled(&self) -> bool {
        self.max_crashes > 0 || self.allow_parasitic
    }
}

/// The per-branch fault bookkeeping of a fault-quantified search: which
/// processes have crashed, which have turned parasitic. Together with
/// the [`FaultConfig`] (fixed per run) this determines the remaining
/// crash budget, so the pair of masks is the *complete* key material a
/// memo key or graph-node identity needs to stay sound across fault
/// placements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FaultState {
    /// Bitmask of crashed processes.
    pub crashed: u64,
    /// Bitmask of processes turned parasitic by a fault transition.
    pub parasitic: u64,
}

impl FaultState {
    /// The fault-free state.
    pub fn none() -> Self {
        FaultState::default()
    }

    /// Whether `k` has crashed.
    pub fn is_crashed(&self, k: usize) -> bool {
        self.crashed & (1 << k) != 0
    }

    /// Whether the adversary may still crash process `k` under `config`.
    pub fn can_crash(&self, config: &FaultConfig, k: usize) -> bool {
        (self.crashed.count_ones() as usize) < config.max_crashes && !self.is_crashed(k)
    }

    /// Whether the adversary may turn process `k` parasitic under
    /// `config`.
    pub fn can_parasite(&self, config: &FaultConfig, k: usize) -> bool {
        config.allow_parasitic && !self.is_crashed(k) && self.parasitic & (1 << k) == 0
    }

    /// Marks `k` crashed.
    pub fn crash(&mut self, k: usize) {
        self.crashed |= 1 << k;
    }

    /// Marks `k` parasitic.
    pub fn parasite(&mut self, k: usize) {
        self.parasitic |= 1 << k;
    }
}

/// A set of faults to inject into a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// No faults: every process is correct.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from an explicit fault list — how livecheck packages the
    /// fault transitions of a witness branch (`at_step` indexes into the
    /// witness schedule, which carries process steps only).
    pub fn from_faults(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// Adds a crash of `process` at `at_step`.
    pub fn crash(mut self, process: ProcessId, at_step: usize) -> Self {
        self.faults.push(Fault::Crash { process, at_step });
        self
    }

    /// Adds a parasitic turn of `process` at `at_step`.
    pub fn parasitic(mut self, process: ProcessId, at_step: usize) -> Self {
        self.faults.push(Fault::Parasitic { process, at_step });
        self
    }

    /// The planned faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether `process` has crashed by `step`.
    pub fn is_crashed(&self, process: ProcessId, step: usize) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::Crash { .. }) && f.process() == process && step >= f.at_step()
        })
    }

    /// Whether `process` has turned parasitic at or before `step`
    /// (parasitic turns are sticky).
    pub fn is_parasitic(&self, process: ProcessId, step: usize) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::Parasitic { .. }) && f.process() == process && step >= f.at_step()
        })
    }

    /// Whether `process` is scheduled as parasitic at some point.
    pub fn is_eventually_parasitic(&self, process: ProcessId) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::Parasitic { .. }) && f.process() == process)
    }

    /// Processes unaffected by any fault (the *correct* processes of the
    /// planned run, assuming they keep retrying transactions).
    pub fn correct_processes(&self, total: usize) -> Vec<ProcessId> {
        (0..total)
            .map(ProcessId)
            .filter(|p| !self.faults.iter().any(|f| f.process() == *p))
            .collect()
    }

    /// Whether the plan injects no fault at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The plan as a JSON array of `{"kind","p","at"}` objects — the
    /// wire form fault-carrying witness events use. (The in-repo serde
    /// shim carries no format crate, so the NDJSON layer serializes
    /// through [`tm_telemetry::Json`] directly.)
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.faults
                .iter()
                .map(|f| {
                    let kind = match f {
                        Fault::Crash { .. } => "crash",
                        Fault::Parasitic { .. } => "parasite",
                    };
                    Json::Obj(vec![
                        ("kind".to_string(), Json::str(kind)),
                        ("p".to_string(), Json::Int(f.process().0 as i64)),
                        ("at".to_string(), Json::Int(f.at_step() as i64)),
                    ])
                })
                .collect(),
        )
    }

    /// Parses the wire form produced by [`FaultPlan::to_json`]. Entries
    /// with an unknown kind or missing fields are rejected.
    pub fn from_json(json: &Json) -> Result<FaultPlan, String> {
        let Json::Arr(items) = json else {
            return Err("fault plan is not a JSON array".to_string());
        };
        let mut plan = FaultPlan::none();
        for item in items {
            let p = item
                .get("p")
                .and_then(Json::as_int)
                .ok_or_else(|| "fault entry missing `p`".to_string())?;
            let at = item
                .get("at")
                .and_then(Json::as_int)
                .ok_or_else(|| "fault entry missing `at`".to_string())?;
            let (process, at_step) = (ProcessId(p as usize), at as usize);
            match item.get("kind").and_then(Json::as_str) {
                Some("crash") => plan = plan.crash(process, at_step),
                Some("parasite") => plan = plan.parasitic(process, at_step),
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);

    #[test]
    fn crash_takes_effect_at_step() {
        let plan = FaultPlan::none().crash(P1, 10);
        assert!(!plan.is_crashed(P1, 9));
        assert!(plan.is_crashed(P1, 10));
        assert!(plan.is_crashed(P1, 1000));
        assert!(!plan.is_crashed(P2, 1000));
    }

    #[test]
    fn parasitic_turn_triggers_once() {
        let plan = FaultPlan::none().parasitic(P2, 5);
        assert!(plan.is_parasitic(P2, 5));
        assert!(!plan.is_parasitic(P2, 4));
        assert!(plan.is_eventually_parasitic(P2));
        assert!(!plan.is_eventually_parasitic(P1));
    }

    #[test]
    fn correct_processes_excludes_faulty() {
        let plan = FaultPlan::none().crash(P1, 3).parasitic(P2, 9);
        assert_eq!(plan.correct_processes(4), vec![ProcessId(2), ProcessId(3)]);
    }

    #[test]
    fn crash_at_step_zero_removes_the_process_entirely() {
        let plan = FaultPlan::none().crash(P1, 0);
        assert!(plan.is_crashed(P1, 0));
        assert!(plan.is_crashed(P1, 1));
        assert_eq!(plan.correct_processes(2), vec![P2]);
    }

    #[test]
    fn crash_and_parasitic_on_the_same_process_coexist() {
        // A process that turns parasitic and later crashes: both
        // predicates answer independently.
        let plan = FaultPlan::none().parasitic(P1, 2).crash(P1, 5);
        assert!(plan.is_parasitic(P1, 2));
        assert!(plan.is_eventually_parasitic(P1));
        assert!(!plan.is_crashed(P1, 4));
        assert!(plan.is_crashed(P1, 5));
        assert_eq!(plan.correct_processes(2), vec![P2]);
    }

    #[test]
    fn unordered_plan_construction_is_order_insensitive() {
        // Builders appended out of step order answer the same queries.
        let forward = FaultPlan::none().crash(P1, 3).parasitic(P2, 1);
        let backward = FaultPlan::none().parasitic(P2, 1).crash(P1, 3);
        for step in 0..6 {
            for p in [P1, P2] {
                assert_eq!(forward.is_crashed(p, step), backward.is_crashed(p, step));
                assert_eq!(
                    forward.is_parasitic(p, step),
                    backward.is_parasitic(p, step)
                );
            }
        }
        assert_eq!(forward.correct_processes(3), backward.correct_processes(3));
    }

    // Round-trip property: every plan shape survives the wire form
    // (text → parse → re-render) unchanged. A small deterministic
    // generator walks a spread of plan shapes instead of a randomized
    // harness (the in-repo proptest shim has no generators for this).
    #[test]
    fn fault_plans_round_trip_through_json() {
        let mut plans = vec![FaultPlan::none()];
        for p in 0..4usize {
            for step in [0usize, 1, 7, 1000] {
                plans.push(FaultPlan::none().crash(ProcessId(p), step));
                plans.push(FaultPlan::none().parasitic(ProcessId(p), step));
                plans.push(
                    FaultPlan::none()
                        .crash(ProcessId(p), step)
                        .parasitic(ProcessId((p + 1) % 4), step + 2),
                );
            }
        }
        for plan in plans {
            let text = plan.to_json().to_string();
            let parsed = Json::parse(&text).expect("wire form parses");
            let back = FaultPlan::from_json(&parsed).expect("deserialize");
            assert_eq!(back, plan);
            // A second round trip is a fixpoint.
            assert_eq!(back.to_json().to_string(), text);
        }
    }

    #[test]
    fn fault_plan_wire_form_rejects_garbage() {
        assert!(FaultPlan::from_json(&Json::Null).is_err());
        let bad_kind = Json::parse(r#"[{"kind":"melt","p":0,"at":1}]"#).expect("parse");
        assert!(FaultPlan::from_json(&bad_kind).is_err());
        let missing = Json::parse(r#"[{"kind":"crash","p":0}]"#).expect("parse");
        assert!(FaultPlan::from_json(&missing).is_err());
    }

    #[test]
    fn fault_config_gates_transitions() {
        for config in [
            FaultConfig::none(),
            FaultConfig::with_crashes(1),
            FaultConfig::with_crashes(2).and_parasitic(),
            FaultConfig::none().and_parasitic(),
        ] {
            assert_eq!(
                config.enabled(),
                config.max_crashes > 0 || config.allow_parasitic
            );
        }

        let config = FaultConfig::with_crashes(1).and_parasitic();
        let mut state = FaultState::none();
        assert!(state.can_crash(&config, 0));
        state.crash(0);
        // Budget spent: nobody else may crash, and a crashed process
        // cannot turn parasitic.
        assert!(!state.can_crash(&config, 1));
        assert!(!state.can_parasite(&config, 0));
        assert!(state.can_parasite(&config, 1));
        state.parasite(1);
        assert!(!state.can_parasite(&config, 1));
    }
}
