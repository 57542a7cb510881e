//! Streaming opacity certification at production traffic.
//!
//! This module is the consumer side of the sharded recorder
//! ([`tm_stm::concurrent::ShardedRecorder`]): a pipeline that certifies
//! a live multi-threaded execution *while it runs*, instead of
//! collecting a history and checking it afterwards. Three stages:
//!
//! 1. **sealer** (one thread) — polls the recorder's [`EventStream`]
//!    for the merged seq-contiguous prefix, feeds it to the [`Chunker`]
//!    (temporal cuts at quiescent points + conflict-component splits,
//!    both argued sound in the `tm_stm::concurrent` module docs), and
//!    groups sealed chunks into *epochs* of roughly
//!    [`OnlineConfig::epoch_events`] events;
//! 2. **certifiers** (`rayon::current_num_threads()` threads, started
//!    once per pipeline) — each takes whole epochs from the shared epoch
//!    channel and certifies their chunks in merged order: one
//!    [`IncrementalChecker`] per chunk, seeded with the chunk's frontier
//!    committed-state;
//! 3. **verdict fold** — every chunk carries its own frontier, so each
//!    chunk's verdict is independent of the others; each certifier keeps
//!    the violation with the smallest global sequence number and
//!    [`OnlinePipeline::join`] folds the certifiers the same way, so the
//!    reported first violation is independent of the certifier count and
//!    of which certifier took which epoch.
//!
//! The distance between the stages is observable: *checker lag* is the
//! number of epochs sealed but not yet certified — queued or in flight
//! on a certifier — tallied as a high-water mark in
//! [`Counter::CheckerLagEpochs`] and streamed in the NDJSON heartbeats,
//! so `tm-obs tail` doubles as a live dashboard for how far
//! certification trails recording.
//!
//! The pipeline is sound but (like the incremental checker it feeds)
//! not complete: a reported violation means the committed transactions
//! cannot be serialized in commit order with reads explained by
//! committed state — the certificate this layer checks — and a clean
//! verdict means every chunk passed that test.
//!
//! A run whose recorded history has a hole — a worker died between
//! drawing a stamp and shipping its event — ends in an explicit
//! *incomplete* verdict ([`OnlineReport::undelivered_stamps`] > 0): the
//! pipeline certifies the merged prefix up to the hole and makes no
//! claim about the rest.

pub mod chunk;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tm_core::{EventKind, History, ProcessId, Response};
use tm_safety::{IncrementalChecker, Mode};
use tm_stm::concurrent::{atomically_sharded, EventStream, StampedEvent, StreamStatus};
use tm_telemetry::{Counter, Json, Telemetry};

pub use chunk::{Chunk, Chunker};

/// Configuration for the online certification pipeline.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// What the certifier checks: opacity (default) or strict
    /// serializability.
    pub mode: Mode,
    /// Target merged events per epoch; sealed chunks are dispatched to
    /// the certifier once at least this many events have accumulated.
    pub epoch_events: usize,
    /// Minimum events per temporal segment (passed to [`Chunker`];
    /// 1 = cut at every quiescent point).
    pub min_chunk_events: usize,
    /// Keep the merged history in the report (for differential tests;
    /// costs memory proportional to the run).
    pub keep_history: bool,
    /// Counter and NDJSON sink; the pipeline tallies
    /// [`Counter::EpochsSealed`], [`Counter::ChunksCertified`] and
    /// [`Counter::CheckerLagEpochs`] and heartbeats sustained ops/sec.
    pub telemetry: Telemetry,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            mode: Mode::Opacity,
            epoch_events: 4096,
            min_chunk_events: 64,
            keep_history: false,
            telemetry: Telemetry::off(),
        }
    }
}

/// A certification failure, located by global sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineViolation {
    /// The process whose event triggered the violation.
    pub process: ProcessId,
    /// Global sequence stamp of the offending event.
    pub seq: u64,
    /// Human-readable description from the incremental checker.
    pub detail: String,
}

/// The pipeline's final report.
#[derive(Debug)]
pub struct OnlineReport {
    /// First violation by global sequence number, if any.
    pub violation: Option<OnlineViolation>,
    /// Total merged events the sealer consumed.
    pub events: u64,
    /// Committed transactions observed in the stream.
    pub commits: u64,
    /// Aborted transactions observed in the stream.
    pub aborts: u64,
    /// Epochs dispatched to the certifier.
    pub epochs_sealed: u64,
    /// Chunks certified (across all epochs).
    pub chunks_certified: u64,
    /// High-water mark of epochs sealed but not yet certified (queued
    /// or in flight on a certifier), sampled as each epoch reaches a
    /// certifier.
    pub max_lag_epochs: u64,
    /// Stamps the recorder drew that never reached the pipeline (see
    /// [`EventStream::undelivered_stamps`]); nonzero makes the report
    /// incomplete.
    pub undelivered_stamps: u64,
    /// The merged history, when [`OnlineConfig::keep_history`] was set.
    pub history: Option<History>,
}

impl OnlineReport {
    /// Whether the pipeline certified the whole recorded history, as
    /// opposed to the prefix before a lost stamp.
    pub fn is_complete(&self) -> bool {
        self.undelivered_stamps == 0
    }

    /// Whether the whole history was certified and every chunk passed.
    /// An incomplete run is never certified opaque, though a violation
    /// it found in its prefix stands.
    pub fn certified_opaque(&self) -> bool {
        self.violation.is_none() && self.is_complete()
    }
}

/// Certifies one chunk: an [`IncrementalChecker`] seeded with the
/// chunk's frontier, fed the chunk's events in merged order. Returns
/// the first violation, located by global sequence stamp.
pub fn certify_chunk(mode: Mode, chunk: &Chunk) -> Option<OnlineViolation> {
    let mut checker = IncrementalChecker::with_frontier(mode, &chunk.frontier);
    for &(seq, event) in &chunk.events {
        if let Err(v) = checker.push(event) {
            let seq = chunk
                .events
                .get(v.position)
                .map_or(seq, |&(stamp, _)| stamp);
            return Some(OnlineViolation {
                process: v.process,
                seq,
                detail: v.detail,
            });
        }
    }
    None
}

/// Merges two optional violations, keeping the one earlier in the
/// merged order (smaller global sequence stamp).
fn earlier(a: Option<OnlineViolation>, b: Option<OnlineViolation>) -> Option<OnlineViolation> {
    match (a, b) {
        (Some(a), Some(b)) => Some(if a.seq <= b.seq { a } else { b }),
        (a, None) => a,
        (None, b) => b,
    }
}

struct SealerOut {
    events: u64,
    commits: u64,
    aborts: u64,
    epochs: u64,
    undelivered_stamps: u64,
    history: Option<History>,
}

#[derive(Default)]
struct CertifierOut {
    violation: Option<OnlineViolation>,
    chunks: u64,
    max_lag: u64,
}

/// The running pipeline: a sealer thread chunking the merged stream and
/// a fixed set of certifier threads, each checking whole epochs. Close
/// the recorder (dropping all shard writers first), then [`join`] for
/// the verdict.
///
/// [`join`]: OnlinePipeline::join
#[derive(Debug)]
pub struct OnlinePipeline {
    sealer: JoinHandle<SealerOut>,
    certifiers: Vec<JoinHandle<CertifierOut>>,
}

impl OnlinePipeline {
    /// Spawns the sealer and `rayon::current_num_threads()` certifier
    /// threads over `stream` (so [`rayon::ThreadPool::install`] sets the
    /// certifier count).
    pub fn spawn(stream: EventStream, config: OnlineConfig) -> OnlinePipeline {
        let sealed = Arc::new(AtomicU64::new(0));
        let certified = Arc::new(AtomicU64::new(0));
        let (epoch_tx, epoch_rx) = channel::<Vec<Chunk>>();
        let epoch_rx = Arc::new(Mutex::new(epoch_rx));

        let certifiers = (0..rayon::current_num_threads())
            .map(|_| {
                let epoch_rx = Arc::clone(&epoch_rx);
                let config = config.clone();
                let sealed = Arc::clone(&sealed);
                let certified = Arc::clone(&certified);
                std::thread::spawn(move || run_certifier(epoch_rx, &config, &sealed, &certified))
            })
            .collect();
        let sealer =
            std::thread::spawn(move || run_sealer(stream, &config, &sealed, &certified, &epoch_tx));
        OnlinePipeline { sealer, certifiers }
    }

    /// Waits for every stage to drain and folds their outputs into the
    /// final report. Returns once the recorder has been closed and
    /// every sealed epoch is certified.
    pub fn join(self) -> OnlineReport {
        let sealer = self.sealer.join().expect("sealer thread panicked");
        let mut certified = CertifierOut::default();
        for certifier in self.certifiers {
            let out = certifier.join().expect("certifier thread panicked");
            certified.violation = earlier(certified.violation, out.violation);
            certified.chunks += out.chunks;
            certified.max_lag = certified.max_lag.max(out.max_lag);
        }
        OnlineReport {
            violation: certified.violation,
            events: sealer.events,
            commits: sealer.commits,
            aborts: sealer.aborts,
            epochs_sealed: sealer.epochs,
            chunks_certified: certified.chunks,
            max_lag_epochs: certified.max_lag,
            undelivered_stamps: sealer.undelivered_stamps,
            history: sealer.history,
        }
    }
}

fn run_sealer(
    mut stream: EventStream,
    config: &OnlineConfig,
    sealed: &AtomicU64,
    certified: &AtomicU64,
    epoch_tx: &Sender<Vec<Chunk>>,
) -> SealerOut {
    let start = Instant::now();
    let mut chunker = Chunker::new(config.min_chunk_events);
    let mut buf: Vec<StampedEvent> = Vec::new();
    let mut pending: Vec<Chunk> = Vec::new();
    let mut pending_events = 0usize;
    let mut out = SealerOut {
        events: 0,
        commits: 0,
        aborts: 0,
        epochs: 0,
        undelivered_stamps: 0,
        history: config.keep_history.then(History::new),
    };
    // Dispatches the accumulated chunks as one epoch. A send error
    // means the certifier hung up (it only does so after a panic); the
    // sealer keeps draining the stream so writers never block.
    fn dispatch(
        pending: &mut Vec<Chunk>,
        out: &mut SealerOut,
        sealed: &AtomicU64,
        telemetry: &Telemetry,
        epoch_tx: &Sender<Vec<Chunk>>,
    ) {
        out.epochs += 1;
        sealed.store(out.epochs, Ordering::Release);
        telemetry.add(Counter::EpochsSealed, 1);
        if epoch_tx.send(std::mem::take(pending)).is_err() {
            pending.clear();
        }
    }
    loop {
        let status = stream.poll(Duration::from_millis(1), &mut buf);
        for stamped in buf.drain(..) {
            out.events += 1;
            if let EventKind::Response(resp) = stamped.event.kind {
                match resp {
                    Response::Committed => out.commits += 1,
                    Response::Aborted => out.aborts += 1,
                    _ => {}
                }
            }
            if let Some(history) = &mut out.history {
                history.push(stamped.event);
            }
            let sealed_before = pending.len();
            chunker.push(stamped.seq, stamped.event, &mut pending);
            for chunk in &pending[sealed_before..] {
                pending_events += chunk.events.len();
            }
            // The epoch boundary is checked per event, not per poll: a
            // single poll can drain a large backlog, and one epoch per
            // backlog would make the lag gauge meaningless.
            if pending_events >= config.epoch_events {
                pending_events = 0;
                dispatch(&mut pending, &mut out, sealed, &config.telemetry, epoch_tx);
            }
        }
        let closed = status == StreamStatus::Closed;
        if closed {
            chunker.finish(&mut pending);
        }
        if closed && !pending.is_empty() {
            pending_events = 0;
            dispatch(&mut pending, &mut out, sealed, &config.telemetry, epoch_tx);
        }
        config.telemetry.heartbeat("online", || {
            let lag = out.epochs.saturating_sub(certified.load(Ordering::Acquire));
            vec![
                ("ops", Json::Int(out.events as i64)),
                (
                    "ops_per_sec",
                    Json::Num(out.events as f64 / start.elapsed().as_secs_f64().max(1e-9)),
                ),
                ("epochs_sealed", Json::Int(out.epochs as i64)),
                ("lag_epochs", Json::Int(lag as i64)),
            ]
        });
        if closed {
            out.undelivered_stamps = stream.undelivered_stamps();
            return out;
        }
    }
}

fn run_certifier(
    epoch_rx: Arc<Mutex<Receiver<Vec<Chunk>>>>,
    config: &OnlineConfig,
    sealed: &AtomicU64,
    certified: &AtomicU64,
) -> CertifierOut {
    let mut out = CertifierOut::default();
    loop {
        // The lock is held only while waiting for the next epoch, so the
        // other certifiers check theirs meanwhile.
        let Ok(epoch) = epoch_rx
            .lock()
            .expect("epoch receiver lock poisoned")
            .recv()
        else {
            return out;
        };
        let lag = sealed
            .load(Ordering::Acquire)
            .saturating_sub(certified.load(Ordering::Acquire));
        out.max_lag = out.max_lag.max(lag);
        config.telemetry.record_max(Counter::CheckerLagEpochs, lag);
        out.chunks += epoch.len() as u64;
        config
            .telemetry
            .add(Counter::ChunksCertified, epoch.len() as u64);
        for chunk in &epoch {
            out.violation = earlier(out.violation, certify_chunk(config.mode, chunk));
        }
        certified.fetch_add(1, Ordering::Release);
    }
}

/// A bank-style contended workload for the online pipeline: `threads`
/// worker threads, each running `txs_per_thread` transactions against
/// `accounts` t-variables — a seeded splitmix64 mix of transfers
/// (read/read/write/write between two accounts) and audits (read a
/// window of accounts).
#[derive(Debug, Clone)]
pub struct OnlineWorkload {
    /// Worker threads (one recorder shard each).
    pub threads: usize,
    /// T-variables ("accounts") in the store.
    pub accounts: usize,
    /// Committed transactions per thread.
    pub txs_per_thread: u64,
    /// Workload seed (per-thread streams derive from it).
    pub seed: u64,
}

impl Default for OnlineWorkload {
    fn default() -> Self {
        OnlineWorkload {
            threads: 2,
            accounts: 8,
            txs_per_thread: 2_000,
            seed: 0x5eed_1e55,
        }
    }
}

/// splitmix64: every state, zero included, yields a full-period
/// stream.
#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the bank workload on `tm` under the sharded recorder with the
/// online pipeline certifying concurrently, and returns the verdict.
/// Emits `run_start` and `verdict` NDJSON events (engine `"online"`)
/// plus the counter roll-up through the config's [`Telemetry`].
pub fn certify_workload<T>(tm: T, workload: &OnlineWorkload, config: OnlineConfig) -> OnlineReport
where
    T: tm_stm::concurrent::ConcurrentTm + Sync,
{
    assert!(workload.threads > 0, "need at least one worker thread");
    assert!(workload.accounts > 0, "need at least one account");
    let telemetry = config.telemetry.clone();
    let name = tm.name();
    telemetry.event(
        "run_start",
        &[
            ("engine", Json::str("online")),
            ("tm", Json::str(name)),
            ("processes", Json::Int(workload.threads as i64)),
            (
                "txs",
                Json::Int((workload.txs_per_thread * workload.threads as u64) as i64),
            ),
        ],
    );
    let (recorder, stream) =
        tm_stm::concurrent::ShardedRecorder::with_telemetry(tm, telemetry.clone());
    let pipeline = OnlinePipeline::spawn(stream, config);
    std::thread::scope(|scope| {
        for t in 0..workload.threads {
            let recorder = &recorder;
            let accounts = workload.accounts;
            let txs = workload.txs_per_thread;
            let mut rng = workload.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1));
            scope.spawn(move || {
                let mut writer = recorder.shard(ProcessId(t));
                for _ in 0..txs {
                    let r = splitmix(&mut rng);
                    let a = (r as usize >> 8) % accounts;
                    let b = (r as usize >> 24) % accounts;
                    if r.is_multiple_of(4) && accounts > 1 {
                        // Audit: read a two-account window.
                        atomically_sharded(&mut writer, |tx| {
                            let x = tx.read(tm_core::TVarId(a))?;
                            let y = tx.read(tm_core::TVarId(b))?;
                            tx.write(tm_core::TVarId(a), x.wrapping_add(y) & 0xffff)
                        });
                    } else {
                        // Transfer: move one unit from `a` to `b`.
                        atomically_sharded(&mut writer, |tx| {
                            let x = tx.read(tm_core::TVarId(a))?;
                            let y = tx.read(tm_core::TVarId(b))?;
                            tx.write(tm_core::TVarId(a), x.wrapping_sub(1))?;
                            tx.write(tm_core::TVarId(b), y.wrapping_add(1))
                        });
                    }
                }
            });
        }
    });
    recorder.close();
    let report = pipeline.join();
    telemetry.event(
        "verdict",
        &[
            ("engine", Json::str("online")),
            ("tm", Json::str(name)),
            ("all_opaque", Json::Bool(report.certified_opaque())),
            ("ops", Json::Int(report.events as i64)),
            ("epochs", Json::Int(report.epochs_sealed as i64)),
            ("chunks", Json::Int(report.chunks_certified as i64)),
            ("max_lag_epochs", Json::Int(report.max_lag_epochs as i64)),
        ],
    );
    telemetry.emit_counters(name);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::TVarId;
    use tm_stm::concurrent::{
        atomically_sharded, ConcurrentBuggy, ConcurrentTl2, ConcurrentTm, ShardedRecorder,
        Transaction, TxAbort,
    };

    fn pipeline_over<T, F>(tm: T, threads: usize, config: OnlineConfig, body: F) -> OnlineReport
    where
        T: tm_stm::concurrent::ConcurrentTm + Sync,
        F: Fn(&mut tm_stm::concurrent::ShardWriter<'_, T>, usize) + Sync,
    {
        let (recorder, stream) = ShardedRecorder::new(tm);
        let pipeline = OnlinePipeline::spawn(stream, config);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let recorder = &recorder;
                let body = &body;
                scope.spawn(move || {
                    let mut writer = recorder.shard(ProcessId(t));
                    body(&mut writer, t);
                });
            }
        });
        recorder.close();
        pipeline.join()
    }

    #[test]
    fn tl2_run_certifies_opaque_online() {
        let config = OnlineConfig {
            epoch_events: 32,
            min_chunk_events: 8,
            ..OnlineConfig::default()
        };
        let report = pipeline_over(ConcurrentTl2::new(4), 3, config, |writer, t| {
            for i in 0..40u64 {
                atomically_sharded(writer, |tx| {
                    let a = tx.read(TVarId((i as usize + t) % 4))?;
                    tx.write(TVarId((i as usize + t + 1) % 4), a + 1)
                });
            }
        });
        assert!(
            report.certified_opaque(),
            "TL2 flagged: {:?}",
            report.violation
        );
        assert_eq!(report.commits, 120);
        assert!(report.epochs_sealed >= 1);
        assert!(report.chunks_certified >= report.epochs_sealed);
        assert_eq!(report.events % 2, 0, "events pair up as inv/resp");
    }

    #[test]
    fn seeded_lost_update_is_flagged_online() {
        let config = OnlineConfig {
            epoch_events: 16,
            min_chunk_events: 1,
            ..OnlineConfig::default()
        };
        let report = pipeline_over(ConcurrentBuggy::new(1, 3), 1, config, |writer, _| {
            for _ in 0..6 {
                atomically_sharded(writer, |tx| {
                    let v = tx.read(TVarId(0))?;
                    tx.write(TVarId(0), v + 1)
                });
            }
        });
        let violation = report.violation.expect("lost update must be flagged");
        assert!(violation.seq > 0);
    }

    #[test]
    fn kept_history_matches_event_count() {
        let config = OnlineConfig {
            keep_history: true,
            ..OnlineConfig::default()
        };
        let report = pipeline_over(ConcurrentTl2::new(2), 2, config, |writer, _| {
            for _ in 0..5u64 {
                atomically_sharded(writer, |tx| {
                    let v = tx.read(TVarId(0))?;
                    tx.write(TVarId(1), v)
                });
            }
        });
        let history = report.history.expect("keep_history was set");
        assert_eq!(history.len() as u64, report.events);
        assert!(history.is_well_formed());
    }

    #[test]
    fn chunk_verdict_agrees_with_whole_history_checker() {
        let config = OnlineConfig {
            epoch_events: 8,
            min_chunk_events: 1,
            keep_history: true,
            ..OnlineConfig::default()
        };
        let report = pipeline_over(ConcurrentTl2::new(3), 2, config, |writer, t| {
            for i in 0..20u64 {
                atomically_sharded(writer, |tx| {
                    let a = tx.read(TVarId((i as usize + t) % 3))?;
                    tx.write(TVarId((i as usize + 2 * t) % 3), a + i)
                });
            }
        });
        let history = report.history.as_ref().expect("keep_history was set");
        let mut whole = IncrementalChecker::new(Mode::Opacity);
        let offline = whole.push_all(history.events().iter().copied());
        assert_eq!(
            offline.is_ok(),
            report.certified_opaque(),
            "chunked and whole-history verdicts must agree"
        );
    }

    #[test]
    fn every_seed_gives_each_thread_a_live_stream() {
        // This seed zeroes thread 0's initial state; a generator stuck
        // at zero would run audits of account 0 only.
        let workload = OnlineWorkload {
            threads: 2,
            accounts: 8,
            txs_per_thread: 50,
            seed: 0x9e37_79b9_7f4a_7c15,
        };
        let config = OnlineConfig {
            keep_history: true,
            ..OnlineConfig::default()
        };
        let report = certify_workload(ConcurrentTl2::new(workload.accounts), &workload, config);
        assert!(report.certified_opaque(), "{:?}", report.violation);
        let history = report.history.expect("keep_history was set");
        let touched: std::collections::BTreeSet<TVarId> = history
            .events()
            .iter()
            .filter(|e| e.process == ProcessId(0))
            .filter_map(|e| e.tvar())
            .collect();
        assert!(touched.len() > 1, "thread 0 touched only {touched:?}");
    }

    /// TL2 whose `commits`-th commit calls `point` and then panics, so
    /// the drawn stamp never reaches an event.
    struct PanicsAfterPoint {
        inner: ConcurrentTl2,
        commits: AtomicU64,
    }

    struct PanicsAfterPointTx<'a> {
        tm: &'a PanicsAfterPoint,
        inner: <ConcurrentTl2 as ConcurrentTm>::Tx<'a>,
    }

    impl ConcurrentTm for PanicsAfterPoint {
        type Tx<'a> = PanicsAfterPointTx<'a>;

        fn name(&self) -> &'static str {
            "panics-after-point"
        }

        fn tvar_count(&self) -> usize {
            self.inner.tvar_count()
        }

        fn begin(&self) -> Self::Tx<'_> {
            PanicsAfterPointTx {
                tm: self,
                inner: self.inner.begin(),
            }
        }
    }

    impl Transaction for PanicsAfterPointTx<'_> {
        fn read(&mut self, x: TVarId) -> Result<u64, TxAbort> {
            self.inner.read(x)
        }

        fn write(&mut self, x: TVarId, v: u64) -> Result<(), TxAbort> {
            self.inner.write(x, v)
        }

        fn commit_at(self, point: &mut dyn FnMut()) -> Result<(), TxAbort> {
            if self.tm.commits.fetch_sub(1, Ordering::Relaxed) == 1 {
                point();
                panic!("TM failed inside its commit");
            }
            self.inner.commit_at(point)
        }
    }

    #[test]
    fn a_lost_stamp_ends_in_an_incomplete_verdict() {
        let tm = PanicsAfterPoint {
            inner: ConcurrentTl2::new(4),
            commits: AtomicU64::new(20),
        };
        let (recorder, stream) = ShardedRecorder::new(tm);
        let pipeline = OnlinePipeline::spawn(stream, OnlineConfig::default());
        let panicked = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|t| {
                    let recorder = &recorder;
                    scope.spawn(move || {
                        let mut writer = recorder.shard(ProcessId(t));
                        for i in 0..200usize {
                            atomically_sharded(&mut writer, |tx| {
                                let a = tx.read(TVarId((i + t) % 4))?;
                                tx.write(TVarId((i + t + 1) % 4), a + 1)
                            });
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().is_err())
                .filter(|&p| p)
                .count()
        });
        assert_eq!(panicked, 1, "exactly one worker hits the failing commit");
        recorder.close();
        let (done_tx, done_rx) = channel();
        let joiner = std::thread::spawn(move || {
            let _ = done_tx.send(pipeline.join());
        });
        let report = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("OnlinePipeline::join must return after a lost stamp");
        joiner.join().expect("joiner thread");
        assert!(report.undelivered_stamps >= 1);
        assert!(!report.is_complete());
        assert!(
            !report.certified_opaque(),
            "an incomplete run claims nothing"
        );
        assert_eq!(report.violation, None, "the prefix is a real TL2 history");
        assert_eq!(
            report.events + report.undelivered_stamps,
            recorder.events_stamped()
        );
    }
}
