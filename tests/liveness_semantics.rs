//! Integration: the liveness claims of §3.2 for concrete TMs, obtained by
//! *running* them rather than asserting them.
//!
//! * global-lock TM: local progress without faults; total starvation after
//!   a crash (footnote 1's Amdahl argument);
//! * the non-blocking catalogue under the same crash: deferred-update TMs
//!   and DSTM's stealing CM keep the survivors committing, while the
//!   encounter-time locks of TinySTM and SwissTM starve them;
//! * TinySTM (encounter-time locks): a crashed lock holder starves
//!   conflicting processes, disjoint ones survive;
//! * DSTM (obstruction-free): solo progress, but livelock under the
//!   alternating-steal schedule, where OSTM and Fgp keep committing.

use tm_automata::FgpVariant;
use tm_core::{Invocation, ProcessId, Response, TVarId};
use tm_sim::{simulate, Client, ClientScript, FaultPlan, RandomScheduler, RoundRobin, SimConfig};
use tm_stm::{
    nonblocking_catalog, BoxedTm, Dstm, FgpTm, GlobalLock, Ostm, SteppedTm, TinyStm, Tl2,
};

const P1: ProcessId = ProcessId(0);
const P2: ProcessId = ProcessId(1);
const X: TVarId = TVarId(0);
const Y: TVarId = TVarId(1);

fn increment_clients(n: usize) -> Vec<Client> {
    (0..n)
        .map(|_| Client::new(ClientScript::increment(X)))
        .collect()
}

#[test]
fn global_lock_local_progress_without_faults() {
    // Crash-free and parasitic-free: everyone commits forever (the paper's
    // §3.2.1 possibility result).
    let mut tm = GlobalLock::new(3, 1);
    let mut clients = increment_clients(3);
    let mut sched = RoundRobin::new();
    let report = simulate(
        &mut tm,
        &mut clients,
        &mut sched,
        &FaultPlan::none(),
        SimConfig::steps(3_000).check_opacity(),
    );
    assert!(report.safety_ok);
    for k in 0..3 {
        assert!(
            report.commits[k] > 50,
            "p{} committed only {} times",
            k + 1,
            report.commits[k]
        );
        assert_eq!(report.aborts[k], 0, "the global lock never aborts");
    }
}

#[test]
fn global_lock_crash_starves_everyone_abl1() {
    // One crash while (probably) holding the lock: from that point on,
    // nobody else ever commits again.
    let mut tm = GlobalLock::new(3, 1);
    let mut clients = increment_clients(3);
    let mut sched = RoundRobin::new();
    // Crash p1 at step 4: with round-robin over 3 processes it is mid-
    // transaction and holds the lock.
    let faults = FaultPlan::none().crash(P1, 4);
    let report = simulate(
        &mut tm,
        &mut clients,
        &mut sched,
        &faults,
        SimConfig::steps(3_000),
    );
    let commits_after: usize = report.commit_log.iter().filter(|&&(s, _)| s >= 4).count();
    assert_eq!(
        commits_after, 0,
        "a crashed lock holder must block all further commits"
    );
    assert!(report.stalls.iter().sum::<usize>() > 1_000);
}

#[test]
fn nonblocking_catalog_under_the_same_crash() {
    // §3.2.3: deferred-update TMs (TL2, NOrec, OSTM, Fgp) shrug the crash
    // off and DSTM's aggressive CM steals the dead writer's ownership;
    // TinySTM and SwissTM hold encounter-time write locks, so the crashed
    // holder orphans them and the conflicting survivors starve.
    for mut tm in nonblocking_catalog(3, 1) {
        let mut clients = increment_clients(3);
        let mut sched = RoundRobin::new();
        let faults = FaultPlan::none().crash(P1, 4);
        let report = simulate(
            tm.as_mut(),
            &mut clients,
            &mut sched,
            &faults,
            SimConfig::steps(3_000).check_opacity(),
        );
        let name = report.tm_name.as_str();
        assert!(report.safety_ok, "{name}");
        let survivors_commits: usize = report.commits[1] + report.commits[2];
        if matches!(name, "tinystm" | "swisstm") {
            assert_eq!(
                survivors_commits, 0,
                "{name}: survivors must starve behind the orphaned lock"
            );
        } else {
            assert!(
                survivors_commits > 100,
                "{name}: survivors must keep committing (got {survivors_commits})"
            );
        }
    }
}

#[test]
fn tinystm_crashed_lock_holder_starves_conflicting_processes() {
    // p1 crashes between acquiring the encounter-time lock on x and
    // committing. p2 (same variable) starves; p3 (disjoint variable)
    // survives — the §3.2.3 distinction between encounter-time and
    // deferred locking.
    let mut tm = TinyStm::new(3, 2);
    let mut clients = vec![
        Client::new(ClientScript::blind_write(X, 9)), // p1: write x then commit
        Client::new(ClientScript::increment(X)),      // p2: conflicts with p1
        Client::new(ClientScript::increment(Y)),      // p3: disjoint
    ];
    let mut sched = RoundRobin::new();
    // Round-robin: step 0 = p1's write(x) invocation (lock acquired);
    // crash p1 at step 3, before its tryC (which would be step 3).
    let faults = FaultPlan::none().crash(P1, 3);
    let report = simulate(
        &mut tm,
        &mut clients,
        &mut sched,
        &faults,
        SimConfig::steps(4_000),
    );
    assert_eq!(report.commits[0], 0, "p1 crashed before committing");
    assert_eq!(
        report.commits[1], 0,
        "p2 must starve behind the orphaned lock"
    );
    assert!(report.aborts[1] > 100, "p2 keeps aborting (timid CM)");
    assert!(report.commits[2] > 100, "p3 is unaffected");
}

#[test]
fn dstm_two_contenders_with_random_schedule_both_progress_sometimes() {
    // Obstruction freedom does not forbid progress — under a random
    // (non-adversarial) schedule contenders usually sneak through.
    let mut tm = Dstm::new(2, 1);
    let mut clients = increment_clients(2);
    let mut sched = RandomScheduler::new(5);
    let report = simulate(
        &mut tm,
        &mut clients,
        &mut sched,
        &FaultPlan::none(),
        SimConfig::steps(4_000).check_opacity(),
    );
    assert!(report.safety_ok);
    assert!(report.commits[0] > 0);
    assert!(report.commits[1] > 0);
}

#[test]
fn obstruction_freedom_livelocks_where_lock_free_tms_progress() {
    // The alternating-steal schedule: each process writes x (on DSTM,
    // stealing ownership and dooming the other) before the other's commit
    // attempt. DSTM livelocks; OSTM (first committer wins) and Fgp keep
    // someone committing. Running alone, each commits every transaction.
    fn resp(tm: &mut dyn SteppedTm, p: ProcessId, inv: Invocation) -> Response {
        tm.invoke(p, inv).response().expect("non-blocking TM")
    }
    let rounds = 1_000;
    let tms: [(fn() -> BoxedTm, bool); 3] = [
        (|| Box::new(Dstm::new(2, 1)), true),
        (|| Box::new(Ostm::new(2, 1)), false),
        (|| Box::new(FgpTm::new(2, 1, FgpVariant::CpOnly)), false),
    ];
    for (make, livelocks) in tms {
        let (mut contended, mut solo) = (make(), make());
        let (tm, solo) = (contended.as_mut(), solo.as_mut());
        let name = tm.name();
        let mut commits = 0;
        resp(tm, P1, Invocation::Write(X, 1));
        resp(tm, P2, Invocation::Write(X, 2));
        for _ in 0..rounds {
            for (p, v) in [(P1, 1), (P2, 2)] {
                if resp(tm, p, Invocation::TryCommit) == Response::Committed {
                    commits += 1;
                }
                resp(tm, p, Invocation::Write(X, v));
            }
        }
        if livelocks {
            assert_eq!(commits, 0, "{name} must livelock");
        } else {
            assert!(commits > rounds / 2, "{name}: only {commits} commits");
        }

        for v in 0..rounds {
            assert_eq!(resp(solo, P1, Invocation::Read(X)), Response::Value(v));
            assert_eq!(resp(solo, P1, Invocation::Write(X, v + 1)), Response::Ok);
            assert_eq!(resp(solo, P1, Invocation::TryCommit), Response::Committed);
        }
    }
}

#[test]
fn parasitic_process_blocks_nobody_on_nonblocking_tms() {
    // A parasitic process keeps a transaction open forever; TL2's
    // deferred, invisible design means others never notice.
    let mut tm = Tl2::new(2, 1);
    let mut clients = increment_clients(2);
    let mut sched = RandomScheduler::new(3);
    let faults = FaultPlan::none().parasitic(P2, 10);
    let report = simulate(
        &mut tm,
        &mut clients,
        &mut sched,
        &faults,
        SimConfig::steps(4_000).check_opacity(),
    );
    assert!(report.safety_ok);
    assert!(report.commits[0] > 100, "p1 unaffected by the parasite");
}

#[test]
fn fault_plan_correctness_matches_simulation_outcome() {
    // The FaultPlan's notion of "correct processes" agrees with who can
    // still commit at the end of a long TL2 run.
    let n = 4;
    let faults = FaultPlan::none()
        .crash(ProcessId(1), 50)
        .parasitic(ProcessId(2), 60);
    let correct = faults.correct_processes(n);
    assert_eq!(correct, vec![ProcessId(0), ProcessId(3)]);

    let mut tm = Tl2::new(n, 1);
    let mut clients = increment_clients(n);
    let mut sched = RandomScheduler::new(8);
    let report = simulate(
        &mut tm,
        &mut clients,
        &mut sched,
        &faults,
        SimConfig::steps(6_000),
    );
    let tail = report.progressing_since(3_000);
    assert_eq!(tail, correct);
}
