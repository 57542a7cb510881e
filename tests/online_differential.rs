//! Differential and decomposition suites for the online certification
//! pipeline (sharded recorder → chunker → parallel certifier).
//!
//! Three equalities are pinned:
//!
//! 1. **online == offline** — on real multi-threaded executions across
//!    the concurrent catalogue (TL2, NOrec, global-lock) plus the
//!    seeded-buggy lost-update TM, the pipeline's chunked verdict must
//!    equal the offline [`IncrementalChecker`] run over the *same*
//!    merged history in one piece. The correct TMs must certify opaque
//!    and the buggy TM must be flagged — by both sides.
//! 2. **chunked == whole** — for random synthetic histories (valid and
//!    corrupted), cutting at quiescent points with conflict-component
//!    splits and frontier seeding must not change the verdict, for any
//!    chunking granularity.
//! 3. **verdict independent of the certifier count** — on one
//!    deterministic history with several failing chunks, the pipeline
//!    reports the same first violation and the same tallies whether one
//!    certifier or several take the epochs.

use tm_core::{Event, ProcessId, TVarId, INITIAL_VALUE};
use tm_safety::{IncrementalChecker, Mode};
use tm_sim::{
    certify_chunk, certify_workload, Chunk, Chunker, OnlineConfig, OnlinePipeline, OnlineReport,
    OnlineViolation, OnlineWorkload,
};
use tm_stm::concurrent::{
    atomically_sharded, ConcurrentBuggy, ConcurrentGlobalLock, ConcurrentNOrec, ConcurrentTl2,
    ShardedRecorder,
};

fn online_config(seed: u64) -> OnlineConfig {
    // Vary the chunking shape with the seed so the suite exercises
    // different epoch/segment granularities.
    OnlineConfig {
        epoch_events: [64, 256, 1024][(seed % 3) as usize],
        min_chunk_events: [1, 16, 128][((seed / 3) % 3) as usize],
        keep_history: true,
        ..OnlineConfig::default()
    }
}

fn workload(seed: u64, threads: usize) -> OnlineWorkload {
    OnlineWorkload {
        threads,
        accounts: 6,
        txs_per_thread: 400,
        seed,
    }
}

/// Offline verdict: one checker over the whole merged history.
fn offline_violation(history: &[Event]) -> Option<usize> {
    let mut checker = IncrementalChecker::new(Mode::Opacity);
    checker
        .push_all(history.iter().copied())
        .err()
        .map(|v| v.position)
}

/// Pushes every event of `history` through the chunker at the given
/// granularity, stamping each with its position.
fn chunks_of(history: &[Event], min_segment: usize) -> Vec<Chunk> {
    let mut chunker = Chunker::new(min_segment);
    let mut chunks = Vec::new();
    for (i, &event) in history.iter().enumerate() {
        chunker.push(i as u64, event, &mut chunks);
    }
    chunker.finish(&mut chunks);
    chunks
}

#[test]
fn online_equals_offline_on_correct_tms() {
    for seed in 0..6u64 {
        for threads in [1usize, 3] {
            let wl = workload(0xd1ff ^ seed, threads);
            let run = |name: &str| match name {
                "tl2" => certify_workload(ConcurrentTl2::new(6), &wl, online_config(seed)),
                "norec" => certify_workload(ConcurrentNOrec::new(6), &wl, online_config(seed)),
                "global-lock" => {
                    certify_workload(ConcurrentGlobalLock::new(6), &wl, online_config(seed))
                }
                _ => unreachable!(),
            };
            for name in ["tl2", "norec", "global-lock"] {
                let report = run(name);
                assert!(
                    report.certified_opaque(),
                    "{name} (seed {seed}, {threads} threads) flagged online: {:?}",
                    report.violation
                );
                let history = report.history.as_ref().expect("keep_history");
                assert!(history.is_well_formed(), "{name}: merged history malformed");
                assert_eq!(
                    offline_violation(history.events()),
                    None,
                    "{name} (seed {seed}): offline checker disagrees with online verdict"
                );
            }
        }
    }
}

#[test]
fn online_equals_offline_on_seeded_buggy_tm() {
    for seed in 0..4u64 {
        for threads in [1usize, 2] {
            let wl = OnlineWorkload {
                threads,
                accounts: 2,
                txs_per_thread: 50,
                seed: 0xb066 ^ seed,
            };
            // Drop a commit in the middle of the run; transfer/audit
            // read-modify-write transactions re-read the dropped value,
            // so the divergence is certifier-visible.
            let drop_at = 10 + seed * 7;
            let report =
                certify_workload(ConcurrentBuggy::new(2, drop_at), &wl, online_config(seed));
            let online = report.violation.clone();
            let history = report.history.as_ref().expect("keep_history");
            let offline = offline_violation(history.events());
            assert!(
                online.is_some(),
                "seed {seed}, {threads} threads: lost update escaped the online pipeline"
            );
            assert!(
                offline.is_some(),
                "seed {seed}, {threads} threads: lost update escaped the offline checker"
            );
            // Both sides must point at the same event: the chunk's
            // stamps recover the global position of the offline find.
            let online_seq = online.expect("checked above").seq;
            let offline_pos = offline.expect("checked above") as u64;
            assert_eq!(
                online_seq, offline_pos,
                "seed {seed}: online and offline locate different events"
            );
        }
    }
}

#[test]
fn drop_at_zero_buggy_tm_is_certified_opaque() {
    // The canary's correct configuration must *not* be flagged —
    // detection is about the seeded defect, not the TM's shape.
    let wl = workload(0xc0de, 2);
    let report = certify_workload(ConcurrentBuggy::new(6, 0), &wl, online_config(1));
    assert!(report.certified_opaque(), "{:?}", report.violation);
}

/// One writer thread over [`ConcurrentBuggy`]: three increments of
/// `x0` (the third commit's write is lost), then 200 transactions that
/// each read `x0` and write `x1`. Every transaction after the lost
/// update reads the stale `x0`, so every later chunk fails on its own
/// frontier.
fn lost_update_stream(config: OnlineConfig) -> OnlineReport {
    let (recorder, stream) = ShardedRecorder::new(ConcurrentBuggy::new(2, 3));
    let pipeline = OnlinePipeline::spawn(stream, config);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut writer = recorder.shard(ProcessId(0));
            for _ in 0..3 {
                atomically_sharded(&mut writer, |tx| {
                    let v = tx.read(TVarId(0))?;
                    tx.write(TVarId(0), v + 1)
                });
            }
            for _ in 0..200 {
                atomically_sharded(&mut writer, |tx| {
                    let v = tx.read(TVarId(0))?;
                    tx.write(TVarId(1), v)
                });
            }
        });
    });
    recorder.close();
    pipeline.join()
}

#[test]
fn verdict_fold_does_not_depend_on_the_certifier_count() {
    let config = OnlineConfig {
        epoch_events: 16,
        min_chunk_events: 1,
        keep_history: true,
        ..OnlineConfig::default()
    };
    let run = |certifiers: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(certifiers)
            .build()
            .expect("pool")
            .install(|| lost_update_stream(config.clone()))
    };

    let reference = run(1);
    let history = reference.history.as_ref().expect("keep_history");
    let failing = chunks_of(history.events(), config.min_chunk_events)
        .iter()
        .filter(|chunk| certify_chunk(Mode::Opacity, chunk).is_some())
        .count();
    assert!(
        failing > 1,
        "only {failing} chunk fails: the fold has no choice"
    );

    let first = reference.violation.clone().expect("lost update flagged");
    assert_eq!(
        Some(first.seq),
        offline_violation(history.events()).map(|p| p as u64),
        "the folded violation must be the offline checker's first"
    );
    // Which certifier takes which epoch varies from run to run, so each
    // count runs a few times.
    for certifiers in [2usize, 4, 2, 4, 2, 4] {
        let report = run(certifiers);
        let violation = report.violation.expect("lost update flagged");
        assert_eq!(
            (violation.seq, violation.process),
            (first.seq, first.process),
            "{certifiers} certifiers: different first violation"
        );
        assert_eq!(report.events, reference.events, "{certifiers} certifiers");
        assert_eq!(
            report.epochs_sealed, reference.epochs_sealed,
            "{certifiers} certifiers"
        );
        assert_eq!(
            report.chunks_certified, reference.chunks_certified,
            "{certifiers} certifiers"
        );
    }
}

// ---------------------------------------------------------------------
// Decomposition property: chunked == whole on random histories.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Default)]
struct OpenTx {
    writes: Vec<(usize, u64)>,
    /// Read set as emitted: (variable, value the response carried).
    reads: Vec<(usize, u64)>,
}

/// Generates a complete history of ~`txs` transactions over `procs`
/// processes and `tvars` variables, mimicking a commit-time-validating
/// TM: reads return the *current* committed value (or the local write
/// buffer), and a transaction whose read set has been overwritten by a
/// later commit is forced to abort — both before issuing further reads
/// (so every prefix of its reads is consistent at the slot of its last
/// read) and at its commit attempt. Uncorrupted histories are therefore
/// certifiable by the commit-order checker. With `corrupt`, ~1/16 reads
/// return an off-by-1000 value, seeding violations at known events.
/// Transactions interleave (up to `procs` open at once), so quiescent
/// points are sparse and conflict-component splits real.
fn random_history(seed: u64, corrupt: bool) -> Vec<Event> {
    let (procs, tvars, txs) = (4usize, 5usize, 120u64);
    let mut rng = Rng(seed | 1);
    let mut committed = vec![INITIAL_VALUE; tvars];
    let mut events = Vec::new();
    let mut open: Vec<(usize, OpenTx)> = Vec::new();
    let mut started = 0u64;
    let mut free: Vec<usize> = (0..procs).collect();
    let terminate = |events: &mut Vec<Event>,
                     committed: &mut Vec<u64>,
                     free: &mut Vec<usize>,
                     p: usize,
                     tx: OpenTx,
                     force_abort: bool,
                     coin: u64| {
        let process = ProcessId(p);
        let valid = tx.reads.iter().all(|&(x, v)| committed[x] == v);
        events.push(Event::try_commit(process));
        if force_abort || !valid || coin == 0 {
            events.push(Event::aborted(process));
        } else {
            for &(x, v) in &tx.writes {
                committed[x] = v;
            }
            events.push(Event::committed(process));
        }
        free.push(p);
    };
    while started < txs || !open.is_empty() {
        let can_open = started < txs && !free.is_empty();
        if open.is_empty() || (can_open && rng.below(3) == 0) {
            if !can_open {
                break;
            }
            let p = free.swap_remove(rng.below(free.len() as u64) as usize);
            open.push((p, OpenTx::default()));
            started += 1;
            continue;
        }
        let slot = rng.below(open.len() as u64) as usize;
        let p = open[slot].0;
        let process = ProcessId(p);
        let x = rng.below(tvars as u64) as usize;
        match rng.below(4) {
            0 | 1 => {
                // A transaction whose read set was overwritten must not
                // read further — a fresh read could be inconsistent
                // with every candidate slot. Mimic a validating TM and
                // abort it instead.
                let stale = open[slot].1.reads.iter().any(|&(y, v)| committed[y] != v);
                if stale {
                    let (p, tx) = open.swap_remove(slot);
                    terminate(&mut events, &mut committed, &mut free, p, tx, true, 1);
                    continue;
                }
                let local = open[slot].1.writes.iter().rev().find(|&&(y, _)| y == x);
                let from_store = local.is_none();
                let mut v = local.map_or(committed[x], |&(_, v)| v);
                if corrupt && rng.below(16) == 0 {
                    v = v.wrapping_add(1000);
                }
                events.push(Event::read(process, TVarId(x)));
                events.push(Event::value(process, v));
                if from_store {
                    open[slot].1.reads.push((x, v));
                }
            }
            2 => {
                let v = rng.below(90);
                events.push(Event::write(process, TVarId(x), v));
                events.push(Event::ok(process));
                open[slot].1.writes.push((x, v));
            }
            _ => {
                let coin = rng.below(4);
                let (p, tx) = open.swap_remove(slot);
                terminate(&mut events, &mut committed, &mut free, p, tx, false, coin);
            }
        }
    }
    events
}

/// Chunked verdict over a synthetic history: certify each chunk, fold
/// by smallest sequence stamp.
fn chunked_violation(history: &[Event], min_segment: usize) -> Option<OnlineViolation> {
    chunks_of(history, min_segment)
        .iter()
        .filter_map(|chunk| certify_chunk(Mode::Opacity, chunk))
        .min_by_key(|v| v.seq)
}

#[test]
fn chunked_certification_agrees_with_whole_history() {
    let mut checked = 0u32;
    for seed in 1..=40u64 {
        for corrupt in [false, true] {
            let history = random_history(seed.wrapping_mul(0x9e37_79b9), corrupt);
            let whole = offline_violation(&history);
            for min_segment in [1usize, 7, 64, 1 << 20] {
                let chunked = chunked_violation(&history, min_segment);
                assert_eq!(
                    whole.map(|p| p as u64),
                    chunked.as_ref().map(|v| v.seq),
                    "seed {seed} corrupt {corrupt} min_segment {min_segment}: \
                     whole-history and chunked verdicts disagree"
                );
                checked += 1;
            }
            if !corrupt {
                assert_eq!(whole, None, "uncorrupted random history must certify");
            }
        }
    }
    assert_eq!(checked, 320);
}
