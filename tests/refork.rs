//! `refork_from` across the whole stepped catalogue, the global-lock TM
//! included: it must succeed, reproduce the state an allocating `fork`
//! gives, and — in release builds — beat `fork` by at least 1.3×. Both
//! checkers recycle TM boxes through it on every tree edge, so a TM
//! that loses the refork path silently pays an allocation per edge.

use tm_core::{Invocation, ProcessId, TVarId};
use tm_stm::{full_catalog, BoxedTm};

const X: TVarId = TVarId(0);

/// The catalogue with process 0 mid-transaction (one read, one write),
/// so a fork copies real per-transaction state.
fn mid_transaction_catalog() -> Vec<BoxedTm> {
    let mut tms = full_catalog(2, 2);
    for tm in &mut tms {
        tm.invoke(ProcessId(0), Invocation::Read(X));
        tm.invoke(ProcessId(0), Invocation::Write(X, 3));
    }
    tms
}

#[test]
fn refork_reproduces_the_fork_across_the_catalogue() {
    for tm in mid_transaction_catalog() {
        let name = tm.name();
        let fork = tm.fork();
        // A spare from a fresh instance, so refork must overwrite state.
        let mut spare = full_catalog(2, 2)
            .into_iter()
            .find(|t| t.name() == name)
            .expect("catalogue names are unique");
        assert!(spare.refork_from(&*tm), "{name} must support refork");
        assert!(fork.state_digest().is_some(), "{name} has no digest");
        assert_eq!(
            spare.state_digest(),
            fork.state_digest(),
            "{name}: the reforked state differs from the forked one"
        );
    }
}

/// Seconds per call of `f` over one batch of at least 2 ms.
#[cfg(not(debug_assertions))]
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    use std::time::{Duration, Instant};
    let start = Instant::now();
    let mut calls = 0u32;
    while start.elapsed() < Duration::from_millis(2) {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

// Timing floors mean nothing in an unoptimized build.
#[cfg(not(debug_assertions))]
#[test]
fn refork_beats_fork_across_the_catalogue() {
    use std::hint::black_box;
    for tm in mid_transaction_catalog() {
        let name = tm.name();
        let mut spare = tm.fork();
        assert!(spare.refork_from(&*tm), "{name} must support refork");
        let (mut fork_s, mut refork_s) = (f64::INFINITY, f64::INFINITY);
        // Best of 7 batches each, alternating so slow drift hits both
        // evenly: preemption and frequency drift only inflate a sample.
        for _ in 0..7 {
            fork_s = fork_s.min(secs_per_call(|| {
                black_box(tm.fork());
            }));
            refork_s = refork_s.min(secs_per_call(|| {
                black_box(spare.refork_from(&*tm));
            }));
        }
        assert!(
            fork_s / refork_s >= 1.3,
            "{name}: refork is only {:.2}x faster than fork",
            fork_s / refork_s
        );
    }
}
