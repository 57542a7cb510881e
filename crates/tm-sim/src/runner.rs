//! The simulation loop: TM × clients × scheduler × faults.
//!
//! Each step, the scheduler picks an eligible (non-crashed) process; the
//! process either polls its withheld response (blocking TMs) or issues its
//! client's next invocation. Faults from the [`FaultPlan`] are applied at
//! their trigger steps. The report carries per-process commit/abort
//! counts, a commit log for progress-over-time analysis, and an optional
//! online opacity certificate.

use serde::{Deserialize, Serialize};

use tm_core::{Event, Invocation, ProcessId, Response};
use tm_safety::{IncrementalChecker, Mode};
use tm_stm::{Outcome, SteppedTm};

use crate::faults::FaultPlan;
use crate::scheduler::Scheduler;
use crate::workload::Client;

/// Configuration for [`simulate`].
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of scheduler steps.
    pub steps: usize,
    /// Optional online safety certification.
    pub check: Option<Mode>,
}

impl SimConfig {
    /// `steps` steps, no safety checking.
    pub fn steps(steps: usize) -> Self {
        SimConfig { steps, check: None }
    }

    /// Enables online opacity certification.
    pub fn check_opacity(mut self) -> Self {
        self.check = Some(Mode::Opacity);
        self
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// TM algorithm name.
    pub tm_name: String,
    /// Steps actually executed.
    pub steps: usize,
    /// Commits per process.
    pub commits: Vec<usize>,
    /// Aborted attempts per process.
    pub aborts: Vec<usize>,
    /// Fruitless polls per process (blocking TMs).
    pub stalls: Vec<usize>,
    /// `(step, process)` for every commit, for windowed progress analysis.
    pub commit_log: Vec<(usize, ProcessId)>,
    /// Whether the online safety check passed (true when disabled).
    pub safety_ok: bool,
    /// Description of the safety violation, if detected.
    pub safety_violation: Option<String>,
}

impl SimReport {
    /// The processes that committed at least once at or after `from_step`
    /// — used to decide who "keeps making progress" in the tail of a run.
    pub fn progressing_since(&self, from_step: usize) -> Vec<ProcessId> {
        let mut out: Vec<ProcessId> = self
            .commit_log
            .iter()
            .filter(|&&(s, _)| s >= from_step)
            .map(|&(_, p)| p)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether every window of `window` steps (up to `self.steps`)
    /// contains a commit by one of `processes` — the finite-run rendering
    /// of "some correct process commits infinitely often".
    pub fn global_progress_in_windows(&self, window: usize, processes: &[ProcessId]) -> bool {
        if window == 0 || self.steps == 0 {
            return true;
        }
        let mut window_start = 0;
        while window_start + window <= self.steps {
            let hit = self.commit_log.iter().any(|&(s, p)| {
                s >= window_start && s < window_start + window && processes.contains(&p)
            });
            if !hit {
                return false;
            }
            window_start += window;
        }
        true
    }
}

/// Runs the simulation.
///
/// # Panics
///
/// Panics if `clients.len()` differs from the TM's process count.
pub fn simulate(
    tm: &mut dyn SteppedTm,
    clients: &mut [Client],
    scheduler: &mut dyn Scheduler,
    faults: &FaultPlan,
    config: SimConfig,
) -> SimReport {
    let n = tm.process_count();
    assert_eq!(clients.len(), n, "one client per process");
    let mut stalls = vec![0usize; n];
    let mut commit_log: Vec<(usize, ProcessId)> = Vec::new();
    let mut checker = config.check.map(IncrementalChecker::new);
    let mut safety_ok = true;
    let mut safety_violation: Option<String> = None;
    let mut steps_done = 0;

    for step in 0..config.steps {
        let eligible: Vec<ProcessId> = (0..n)
            .map(ProcessId)
            .filter(|&p| !faults.is_crashed(p, step))
            .collect();
        if eligible.is_empty() {
            break; // everyone crashed
        }
        steps_done = step + 1;
        let p = scheduler.pick(step, &eligible);
        let k = p.index();

        if tm.has_pending(p) {
            match tm.poll(p) {
                Some(response) => {
                    if let Some(c) = &mut checker {
                        if safety_ok {
                            if let Err(v) = c.push(Event::response(p, response)) {
                                safety_ok = false;
                                safety_violation = Some(v.to_string());
                            }
                        }
                    }
                    if response == Response::Committed {
                        commit_log.push((step, p));
                    }
                    clients[k].observe(response);
                }
                None => stalls[k] += 1,
            }
            continue;
        }

        // A parasitic process never invokes tryC: it restarts its
        // transaction instead, exactly as the checkers' stepper does.
        if faults.is_parasitic(p, step) && clients[k].next_invocation() == Invocation::TryCommit {
            clients[k].restart_transaction();
        }
        let invocation = clients[k].next_invocation();
        if let Some(c) = &mut checker {
            if safety_ok {
                if let Err(v) = c.push(Event::invocation(p, invocation)) {
                    safety_ok = false;
                    safety_violation = Some(v.to_string());
                }
            }
        }
        match tm.invoke(p, invocation) {
            Outcome::Response(response) => {
                if let Some(c) = &mut checker {
                    if safety_ok {
                        if let Err(v) = c.push(Event::response(p, response)) {
                            safety_ok = false;
                            safety_violation = Some(v.to_string());
                        }
                    }
                }
                if response == Response::Committed {
                    commit_log.push((step, p));
                }
                clients[k].observe(response);
            }
            Outcome::Pending => {}
        }
    }

    SimReport {
        tm_name: tm.name().to_string(),
        steps: steps_done,
        commits: clients.iter().map(|c| c.commits).collect(),
        aborts: clients.iter().map(|c| c.aborts).collect(),
        stalls,
        commit_log,
        safety_ok,
        safety_violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{RandomScheduler, RoundRobin};
    use crate::workload::ClientScript;
    use tm_core::TVarId;
    use tm_stm::{GlobalLock, Tl2};

    const P1: ProcessId = ProcessId(0);
    const P2: ProcessId = ProcessId(1);
    const X: TVarId = TVarId(0);

    fn increment_clients(n: usize) -> Vec<Client> {
        (0..n)
            .map(|_| Client::new(ClientScript::increment(X)))
            .collect()
    }

    #[test]
    fn fault_free_random_run_all_processes_commit() {
        let mut tm = Tl2::new(2, 1);
        let mut clients = increment_clients(2);
        let mut sched = RandomScheduler::new(17);
        let report = simulate(
            &mut tm,
            &mut clients,
            &mut sched,
            &FaultPlan::none(),
            SimConfig::steps(600).check_opacity(),
        );
        assert!(report.safety_ok);
        assert!(report.commits[0] > 10);
        assert!(report.commits[1] > 10);
        // Increments never get lost: committed value = total commits of
        // increment transactions.
        assert_eq!(
            tm.committed_value(X),
            (report.commits[0] + report.commits[1]) as u64
        );
    }

    #[test]
    fn round_robin_lockstep_starves_the_second_incrementer() {
        // A *finding*, not a bug: under strict alternation p1 always
        // reaches tryC first, so TL2 aborts p2 every round — a concrete
        // local-progress violation produced by a fair-looking scheduler.
        let mut tm = Tl2::new(2, 1);
        let mut clients = increment_clients(2);
        let mut sched = RoundRobin::new();
        let report = simulate(
            &mut tm,
            &mut clients,
            &mut sched,
            &FaultPlan::none(),
            SimConfig::steps(600).check_opacity(),
        );
        assert!(report.safety_ok);
        assert!(report.commits[0] > 50);
        assert_eq!(report.commits[1], 0);
        assert!(report.aborts[1] > 50);
    }

    #[test]
    fn crash_fault_starves_global_lock_but_not_tl2() {
        let faults = FaultPlan::none().crash(P1, 3);
        // Global lock: p1 likely holds the lock at step 3 → p2 stalls out.
        let mut gl = GlobalLock::new(2, 1);
        let mut clients = increment_clients(2);
        let mut sched = RoundRobin::new();
        let gl_report = simulate(
            &mut gl,
            &mut clients,
            &mut sched,
            &faults,
            SimConfig::steps(500),
        );
        assert_eq!(gl_report.commits[1], 0, "p2 must starve behind the lock");
        assert!(gl_report.stalls[1] > 100);

        // TL2: p2 sails on.
        let mut tl2 = Tl2::new(2, 1);
        let mut clients = increment_clients(2);
        let mut sched = RoundRobin::new();
        let tl2_report = simulate(
            &mut tl2,
            &mut clients,
            &mut sched,
            &faults,
            SimConfig::steps(500),
        );
        assert!(tl2_report.commits[1] > 50);
    }

    #[test]
    fn parasitic_fault_stops_commits_of_victim() {
        let faults = FaultPlan::none().parasitic(P2, 50);
        let mut tm = Tl2::new(2, 1);
        let mut clients = increment_clients(2);
        let mut sched = RandomScheduler::new(11);
        let report = simulate(
            &mut tm,
            &mut clients,
            &mut sched,
            &faults,
            SimConfig::steps(2_000),
        );
        // p2 committed only before its parasitic turn.
        assert!(report.commit_log.iter().all(|&(s, p)| p != P2 || s < 50));
        // p1 keeps going.
        assert!(report.commits[0] > 50);
    }

    /// Forwards to a TM and logs every invocation in order.
    struct Logged {
        inner: Tl2,
        log: Vec<(ProcessId, Invocation)>,
    }

    impl SteppedTm for Logged {
        fn name(&self) -> &'static str {
            "logged"
        }
        fn process_count(&self) -> usize {
            self.inner.process_count()
        }
        fn tvar_count(&self) -> usize {
            self.inner.tvar_count()
        }
        fn invoke(&mut self, process: ProcessId, invocation: Invocation) -> Outcome {
            self.log.push((process, invocation));
            self.inner.invoke(process, invocation)
        }
        fn poll(&mut self, process: ProcessId) -> Option<Response> {
            self.inner.poll(process)
        }
        fn has_pending(&self, process: ProcessId) -> bool {
            self.inner.has_pending(process)
        }
        fn fork(&self) -> tm_stm::BoxedTm {
            self.inner.fork()
        }
    }

    #[test]
    fn parasitic_turn_repeats_the_own_transaction_without_try_commit() {
        // The checkers' parasite: from its turn on, p1 restarts its own
        // transaction whenever it would invoke tryC. TL2 never blocks,
        // so under round robin invocation `i` is step `i`.
        let y = TVarId(1);
        let turn = 8;
        let mut tm = Logged {
            inner: Tl2::new(2, 2),
            log: Vec::new(),
        };
        let mut clients = vec![
            Client::new(ClientScript::increment(y)),
            Client::new(ClientScript::increment(X)),
        ];
        simulate(
            &mut tm,
            &mut clients,
            &mut RoundRobin::new(),
            &FaultPlan::none().parasitic(P1, turn),
            SimConfig::steps(400),
        );
        assert_eq!(tm.log.len(), 400);
        let (before, after) = tm.log.split_at(turn);
        assert!(before.contains(&(P1, Invocation::TryCommit)));
        let mine: Vec<Invocation> = after
            .iter()
            .filter(|&&(p, _)| p == P1)
            .map(|&(_, inv)| inv)
            .collect();
        assert_eq!(mine.len(), 196);
        // Its own script's operations, writes included; never tryC.
        assert!(mine
            .iter()
            .all(|inv| matches!(inv, Invocation::Read(v) | Invocation::Write(v, _) if *v == y)));
        assert!(mine.iter().any(|inv| matches!(inv, Invocation::Write(..))));
    }

    #[test]
    fn progressing_since_and_windows() {
        let mut tm = Tl2::new(2, 1);
        let mut clients = increment_clients(2);
        let mut sched = RandomScheduler::new(23);
        let report = simulate(
            &mut tm,
            &mut clients,
            &mut sched,
            &FaultPlan::none(),
            SimConfig::steps(1_000),
        );
        let tail = report.progressing_since(500);
        assert!(tail.contains(&P1) && tail.contains(&P2));
        assert!(report.global_progress_in_windows(200, &[P1, P2]));
    }

    #[test]
    fn all_crashed_run_stops_early() {
        let faults = FaultPlan::none().crash(P1, 2).crash(P2, 2);
        let mut tm = Tl2::new(2, 1);
        let mut clients = increment_clients(2);
        let mut sched = RoundRobin::new();
        let report = simulate(
            &mut tm,
            &mut clients,
            &mut sched,
            &faults,
            SimConfig::steps(1_000),
        );
        assert_eq!(report.steps, 2);
    }
}
