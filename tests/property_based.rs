//! Property-based tests across the workspace (proptest).
//!
//! * checker soundness: the commit-order certifier never accepts a
//!   history the exact checker rejects;
//! * the certifier's fused `push_call` and split `push` entry points
//!   agree, rollback to a checkpoint replays identically, and a branch
//!   taken after a rollback matches a fresh certifier;
//! * opacity ⇒ strict serializability on random histories;
//! * every STM in the catalogue produces opaque histories under random
//!   schedules and workloads;
//! * committed effects of every STM equal a serial execution of its
//!   committed transactions;
//! * the Figure 2 classification lattice holds for random lassos.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use tm_core::{Event, EventKind, History, Invocation, ProcessId, Response, TVarId};
use tm_liveness::{classify, InfiniteHistory, ProcessClass};
use tm_safety::{
    check_opacity, check_strict_serializability, IncrementalChecker, Mode, SafetyVerdict,
};
use tm_sim::{simulate, Client, FaultPlan, RandomScheduler, SimConfig, WorkloadConfig};
use tm_stm::{nonblocking_catalog, Recorded, SteppedTm};

/// A generator of small arbitrary (well-formed) histories: a sequence of
/// per-process actions mapped onto complete operations with arbitrary
/// response values — deliberately *not* produced by any TM, so both
/// checker verdicts occur.
fn arb_history() -> impl Strategy<Value = History> {
    arb_history_over(3)
}

/// [`arb_history`] with read and written values drawn from `0..values`.
fn arb_history_over(values: u64) -> impl Strategy<Value = History> {
    let op = (0..3usize, 0..2usize, 0..values, 0..4u8);
    proptest::collection::vec(op, 0..12).prop_map(|ops| {
        let mut h = History::new();
        for (p, x, v, kind) in ops {
            let p = ProcessId(p);
            let x = TVarId(x);
            match kind {
                0 => {
                    h.push(Event::read(p, x));
                    h.push(Event::value(p, v));
                }
                1 => {
                    h.push(Event::write(p, x, v));
                    h.push(Event::ok(p));
                }
                2 => {
                    h.push(Event::try_commit(p));
                    h.push(Event::committed(p));
                }
                _ => {
                    h.push(Event::try_commit(p));
                    h.push(Event::aborted(p));
                }
            }
        }
        h
    })
}

/// Pushes `events` one by one, returning each push's verdict.
fn push_split(c: &mut IncrementalChecker, events: &[Event]) -> Vec<bool> {
    events.iter().map(|&e| c.push(e).is_ok()).collect()
}

/// Pushes `events` with `push_call` for each adjacent invocation/response
/// pair of one process and `push` otherwise (as the explorer does),
/// returning one verdict per call.
fn push_fused(c: &mut IncrementalChecker, events: &[Event]) -> Vec<bool> {
    let mut verdicts = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let e = events[i];
        match (
            e.kind,
            events.get(i + 1).map(|next| (next.process, next.kind)),
        ) {
            (EventKind::Invocation(inv), Some((q, EventKind::Response(resp))))
                if q == e.process =>
            {
                verdicts.push(c.push_call(e.process, inv, resp).is_ok());
                i += 2;
            }
            _ => {
                verdicts.push(c.push(e).is_ok());
                i += 1;
            }
        }
    }
    verdicts
}

/// Certifies `ops` (invocation/response pairs, pushed fused or split)
/// with every read answered and every write writing both 0 and 1,
/// depth-first with a checkpoint before each alternative and a rollback
/// after it, as the explorer walks sibling schedules. At every leaf the
/// certifier must match a fresh one fed the same history.
fn walk_alternatives(
    c: &mut IncrementalChecker,
    mode: Mode,
    fused: bool,
    ops: &[(ProcessId, Invocation, Response)],
    path: &mut Vec<Event>,
) -> Result<(), TestCaseError> {
    let Some((&(p, invocation, response), rest)) = ops.split_first() else {
        let mut fresh = IncrementalChecker::new(mode);
        push_split(&mut fresh, path);
        prop_assert_eq!(certifier_state(c), certifier_state(&fresh));
        return Ok(());
    };
    let alternatives = match (invocation, response) {
        (_, Response::Value(_)) => vec![
            (invocation, Response::Value(0)),
            (invocation, Response::Value(1)),
        ],
        (Invocation::Write(x, _), _) => vec![
            (Invocation::Write(x, 0), response),
            (Invocation::Write(x, 1), response),
        ],
        _ => vec![(invocation, response)],
    };
    for (invocation, response) in alternatives {
        let checkpoint = c.checkpoint();
        let op = [
            Event::invocation(p, invocation),
            Event::response(p, response),
        ];
        if fused {
            let _ = c.push_call(p, invocation, response);
        } else {
            push_split(c, &op);
        }
        path.extend(op);
        walk_alternatives(c, mode, fused, rest, path)?;
        path.truncate(path.len() - 2);
        c.rollback(checkpoint);
    }
    Ok(())
}

/// What a certifier reports: events pushed, commits and the latched
/// violation's position and detail.
fn certifier_state(c: &IncrementalChecker) -> (usize, usize, Option<(usize, String)>) {
    (
        c.events_pushed(),
        c.commits(),
        c.violation().map(|v| (v.position, v.detail.clone())),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_histories_are_well_formed(h in arb_history()) {
        prop_assert!(h.is_well_formed());
    }

    #[test]
    fn commit_order_certifier_is_sound(h in arb_history()) {
        let mut fast = IncrementalChecker::new(Mode::Opacity);
        if fast.push_all(h.iter().copied()).is_ok() {
            // The certifier accepted: the exact checker must agree.
            let exact_agrees = matches!(check_opacity(&h), Ok(SafetyVerdict::Satisfied { .. }));
            prop_assert!(exact_agrees);
        }
    }

    #[test]
    fn fused_and_split_pushes_agree_across_rollback(h in arb_history(), cut in 0usize..32) {
        let events: Vec<Event> = h.iter().copied().collect();
        let cut = cut % (events.len() + 1);
        let (prefix, suffix) = events.split_at(cut);
        for mode in [Mode::Opacity, Mode::StrictSerializability] {
            let mut split = IncrementalChecker::new(mode);
            let mut fused = IncrementalChecker::new(mode);
            push_split(&mut split, prefix);
            push_fused(&mut fused, prefix);
            prop_assert_eq!(certifier_state(&split), certifier_state(&fused));
            let at_checkpoint = certifier_state(&split);
            let (split_cp, fused_cp) = (split.checkpoint(), fused.checkpoint());

            let split_first = push_split(&mut split, suffix);
            let fused_first = push_fused(&mut fused, suffix);
            prop_assert_eq!(certifier_state(&split), certifier_state(&fused));
            let at_end = certifier_state(&split);

            split.rollback(split_cp);
            fused.rollback(fused_cp);
            prop_assert_eq!(certifier_state(&split), at_checkpoint);
            prop_assert_eq!(certifier_state(&fused), at_checkpoint);
            prop_assert_eq!(push_split(&mut split, suffix), split_first);
            prop_assert_eq!(push_fused(&mut fused, suffix), fused_first);
            prop_assert_eq!(certifier_state(&split), at_end);
            prop_assert_eq!(certifier_state(&fused), at_end);
        }
    }

    #[test]
    fn opacity_implies_strict_serializability(h in arb_history()) {
        if check_opacity(&h).unwrap().holds() {
            prop_assert!(check_strict_serializability(&h).unwrap().holds());
        }
    }

    #[test]
    fn completion_is_idempotent_and_complete(h in arb_history()) {
        let c = h.complete();
        prop_assert!(c.is_complete());
        prop_assert_eq!(c.complete(), c.clone());
        prop_assert!(c.is_well_formed());
    }

    #[test]
    fn projection_partitions_events(h in arb_history()) {
        let total: usize = h.processes().iter().map(|&p| h.project(p).len()).sum();
        prop_assert_eq!(total, h.len());
    }

    #[test]
    fn every_catalog_tm_is_opaque_under_random_load(
        seed in 0u64..500,
        write_fraction in 0.1f64..0.9,
    ) {
        let config = WorkloadConfig {
            tvars: 3,
            min_ops: 1,
            max_ops: 4,
            write_fraction,
            value_range: 5,
        };
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for mut tm in nonblocking_catalog(3, 3) {
            let mut clients: Vec<Client> = (0..3)
                .map(|_| Client::new(tm_sim::random_script(&config, &mut rng)))
                .collect();
            let mut sched = RandomScheduler::new(seed.wrapping_mul(31));
            let report = simulate(
                tm.as_mut(),
                &mut clients,
                &mut sched,
                &FaultPlan::none(),
                SimConfig::steps(300).check_opacity(),
            );
            prop_assert!(
                report.safety_ok,
                "{}: {:?}", report.tm_name, report.safety_violation
            );
        }
    }

    #[test]
    fn committed_effects_match_serial_execution(seed in 0u64..200) {
        // Record a run of each TM, then check that the final committed
        // values equal the serial replay of committed transactions in the
        // witness order found by the exact checker.
        use rand::SeedableRng;
        let config = WorkloadConfig { tvars: 2, min_ops: 1, max_ops: 3, write_fraction: 0.6, value_range: 4 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for tm in nonblocking_catalog(2, 2) {
            let mut recorded = Recorded::new(tm);
            let mut clients: Vec<Client> = (0..2)
                .map(|_| Client::new(tm_sim::random_script(&config, &mut rng)))
                .collect();
            let mut sched = RandomScheduler::new(seed.wrapping_add(7));
            let _ = simulate(
                &mut recorded,
                &mut clients,
                &mut sched,
                &FaultPlan::none(),
                SimConfig::steps(120),
            );
            let history = recorded.history();
            if let Ok(SafetyVerdict::Satisfied { witness }) = check_opacity(history) {
                // Serial replay in witness order must be legal.
                let completed = history.complete();
                let txs = completed.transactions();
                let ordered: Vec<_> = witness
                    .iter()
                    .map(|id| txs.iter().find(|t| t.id == *id).unwrap().clone())
                    .collect();
                prop_assert!(tm_core::sequential::check_transactions_legality(&ordered).is_legal());
            } else {
                prop_assert!(false, "{}: history not opaque", recorded.name());
            }
        }
    }

    #[test]
    fn lasso_classification_lattice(
        p1_in_cycle in proptest::bool::ANY,
        p1_commits in proptest::bool::ANY,
        p1_aborts in proptest::bool::ANY,
    ) {
        // Random lasso over one process: Figure 2's implications hold.
        use tm_core::HistoryBuilder;
        let p = ProcessId(0);
        let x = TVarId(0);
        let prefix = HistoryBuilder::new().read(p, x, 0).build().unwrap();
        let mut b = HistoryBuilder::new();
        // Always include a second process so the cycle is non-empty.
        b.read(ProcessId(1), x, 0);
        if p1_in_cycle {
            b.read(p, x, 0);
            if p1_commits {
                b.commit(p);
            }
            if p1_aborts {
                b.abort_on_try_commit(p);
            }
        }
        let cycle = b.build().unwrap();
        let Ok(h) = InfiniteHistory::new(prefix, cycle) else {
            // Open transaction crossing the boundary is fine; builder
            // combinations are always valid here.
            return Ok(());
        };
        let class = classify(&h, p);
        match class {
            ProcessClass::Crashed => {
                prop_assert!(!p1_in_cycle);
                prop_assert!(tm_liveness::is_faulty(&h, p));
                prop_assert!(tm_liveness::is_pending(&h, p));
            }
            ProcessClass::Parasitic => {
                prop_assert!(p1_in_cycle && !p1_commits && !p1_aborts);
                prop_assert!(tm_liveness::is_faulty(&h, p));
            }
            ProcessClass::Starving => {
                prop_assert!(p1_in_cycle && !p1_commits && p1_aborts);
                prop_assert!(tm_liveness::is_correct(&h, p));
                prop_assert!(tm_liveness::is_pending(&h, p));
            }
            ProcessClass::Progressing => {
                prop_assert!(p1_in_cycle && p1_commits);
                prop_assert!(tm_liveness::is_correct(&h, p));
                prop_assert!(!tm_liveness::is_pending(&h, p));
            }
            ProcessClass::Absent => prop_assert!(false, "p1 appears in the prefix"),
        }
    }
}

proptest! {
    // Seeded faults in the undo of a read (candidates kept pruned), a
    // write (write kept) or a commit (granted slot kept) each fail
    // within the first 100 cases.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn branches_after_a_rollback_match_a_fresh_certifier(h in arb_history_over(2)) {
        let ops: Vec<(ProcessId, Invocation, Response)> = h
            .events()
            .chunks(2)
            .map(|op| {
                let (inv, resp) = (op[0].as_invocation(), op[1].as_response());
                (op[0].process, inv.expect("an invocation"), resp.expect("its response"))
            })
            .collect();
        for mode in [Mode::Opacity, Mode::StrictSerializability] {
            for fused in [false, true] {
                let mut c = IncrementalChecker::new(mode);
                walk_alternatives(&mut c, mode, fused, &ops, &mut Vec::new())?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lasso_unroll_detect_round_trip(
        repeats in 3usize..8,
        commits_p1 in proptest::bool::ANY,
        aborts_p2 in proptest::bool::ANY,
    ) {
        // Build a lasso, unroll it, re-detect: the classification of every
        // process must survive the round trip (the detected period may be
        // a divisor-rotation of the original, which preserves all
        // classifications).
        use tm_core::HistoryBuilder;
        use tm_liveness::{classify, detect_lasso, InfiniteHistory};
        let (p1, p2, x) = (ProcessId(0), ProcessId(1), TVarId(0));
        let mut b = HistoryBuilder::new();
        b.read(p1, x, 0);
        if commits_p1 {
            b.commit(p1);
        } else {
            b.abort_on_try_commit(p1);
        }
        b.read(p2, x, 0);
        if aborts_p2 {
            b.abort_on_try_commit(p2);
        } else {
            b.commit(p2);
        }
        let cycle = b.build().unwrap();
        let original = InfiniteHistory::new(tm_core::History::new(), cycle).unwrap();
        let unrolled = original.unroll(repeats);
        let detected = detect_lasso(&unrolled, repeats.min(3)).expect("periodic by construction");
        for p in [p1, p2] {
            prop_assert_eq!(classify(&original, p), classify(&detected, p));
        }
    }

    #[test]
    fn priority_fgp_is_opaque_and_shields_under_random_schedules(
        seed in 0u64..300,
        top in 0usize..3,
    ) {
        // PriorityFgp with a random top-priority process: opaque under
        // random scheduling, and the top process commits whenever it is
        // scheduled often enough.
        let mut priorities = vec![1u32; 3];
        priorities[top] = 2;
        let mut tm = tm_stm::PriorityFgp::new(priorities, 2);
        let mut clients: Vec<Client> = (0..3)
            .map(|_| Client::new(tm_sim::ClientScript::increment(TVarId(0))))
            .collect();
        let mut sched = RandomScheduler::new(seed);
        let report = simulate(
            &mut tm,
            &mut clients,
            &mut sched,
            &FaultPlan::none(),
            SimConfig::steps(600).check_opacity(),
        );
        prop_assert!(report.safety_ok, "{:?}", report.safety_violation);
        prop_assert!(
            report.commits[top] > 0,
            "top-priority process committed nothing: {:?}",
            report.commits
        );
    }
}
