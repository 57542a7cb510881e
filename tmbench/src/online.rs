//! `online-hot` and `online-cold`: streaming opacity certification while
//! the application runs.
//!
//! The benchmark's own seeded generator drives two worker threads (one
//! recorder shard each) through `ShardedRecorder`, with
//! `OnlinePipeline::spawn(.., OnlineConfig::default())` sealing,
//! chunking and certifying concurrently. The mix is 75% transfers and
//! 25% audits, as in `tm_sim::certify_workload`; each worker runs a
//! closed loop of 100k transactions. TMs: TL2, NOrec, the global lock.
//!
//! * `online-hot` — 16 accounts: high contention (a few percent of TL2
//!   attempts abort) and few, large chunks. Stresses the recorder and
//!   the TMs' abort paths.
//! * `online-cold` — 1024 accounts: aborts are rare and chunks are
//!   about twice as many and smaller, so the sealer, chunker and
//!   fan-out work per chunk rather than per conflict. A change that
//!   helps one contention level and hurts the other shows up as a pair.
//!
//! The traced pass also sends the same streams through each layer on
//! its own: `atomically` with no recorder (the bare TM),
//! `atomically_sharded` with nobody consuming (recording), a timed
//! `EventStream` drain (merging), `Chunker::push`/`finish`, sequential
//! `certify_chunk`, and 4096-event epochs through
//! `engine::frontier::distribute`.

use std::time::Instant;

use tm_core::{ProcessId, TVarId};
use tm_sim::engine::frontier::distribute;
use tm_sim::{certify_chunk, Chunk, Chunker, OnlineConfig, OnlinePipeline};
use tm_stm::concurrent::{
    atomically, atomically_sharded, ConcurrentBuggy, ConcurrentGlobalLock, ConcurrentNOrec,
    ConcurrentTl2, ConcurrentTm, ShardWriter, ShardedRecorder, StampedEvent, Transaction,
};
use tm_telemetry::Telemetry;

use crate::workload::{guarded, Raw, RowRun, Size, Workload};

const TMS: [&str; 3] = ["tl2", "norec", "global-lock"];

/// Worker threads: the load never uses more threads than a 2-core
/// machine has.
const THREADS: usize = 2;

/// Transactions per worker thread, `[full, smoke]`.
const TXS: [usize; 2] = [100_000, 2_000];

/// Calls `$body` with `$tm` bound to a fresh concurrent TM named `$name`.
macro_rules! with_tm {
    ($name:expr, $accounts:expr, |$tm:ident| $body:expr) => {
        match $name {
            "tl2" => {
                let $tm = ConcurrentTl2::new($accounts);
                $body
            }
            "norec" => {
                let $tm = ConcurrentNOrec::new($accounts);
                $body
            }
            "global-lock" => {
                let $tm = ConcurrentGlobalLock::new($accounts);
                $body
            }
            other => unreachable!("no concurrent TM named {other}"),
        }
    };
}

#[derive(Debug, Clone, Copy)]
enum Tx {
    /// Move one unit from the first account to the second.
    Transfer(TVarId, TVarId),
    /// Read two accounts, write a digest of them into the first.
    Audit(TVarId, TVarId),
}

/// splitmix64: a full-period generator, so every seed (0 included)
/// yields a usable stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One transaction stream per worker thread, made from `seed` alone.
fn generate(seed: u64, accounts: usize, txs: usize) -> Vec<Vec<Tx>> {
    let mut state = seed;
    (0..THREADS)
        .map(|_| {
            (0..txs)
                .map(|_| {
                    let r = splitmix(&mut state);
                    let a = TVarId((r >> 8) as usize % accounts);
                    let b = TVarId((r >> 24) as usize % accounts);
                    if r.is_multiple_of(4) {
                        Tx::Audit(a, b)
                    } else {
                        Tx::Transfer(a, b)
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs `tx` to commit on the bare TM; returns the aborted attempts.
fn run_bare<T: ConcurrentTm>(tm: &T, tx: Tx) -> u64 {
    match tx {
        Tx::Transfer(a, b) => {
            atomically(tm, |t| {
                let (x, y) = (t.read(a)?, t.read(b)?);
                t.write(a, x.wrapping_sub(1))?;
                t.write(b, y.wrapping_add(1))
            })
            .1
        }
        Tx::Audit(a, b) => {
            atomically(tm, |t| {
                let (x, y) = (t.read(a)?, t.read(b)?);
                t.write(a, x.wrapping_add(y) & 0xffff)
            })
            .1
        }
    }
}

/// [`run_bare`] through a recorder shard.
fn run_recorded<T: ConcurrentTm>(writer: &mut ShardWriter<'_, T>, tx: Tx) {
    match tx {
        Tx::Transfer(a, b) => {
            atomically_sharded(writer, |t| {
                let (x, y) = (t.read(a)?, t.read(b)?);
                t.write(a, x.wrapping_sub(1))?;
                t.write(b, y.wrapping_add(1))
            });
        }
        Tx::Audit(a, b) => {
            atomically_sharded(writer, |t| {
                let (x, y) = (t.read(a)?, t.read(b)?);
                t.write(a, x.wrapping_add(y) & 0xffff)
            });
        }
    };
}

/// Runs the first `txs` transactions of each stream on its own recorder
/// shard, one thread per stream, and returns when every worker is done
/// with the instant the last one finished.
fn run_workers<T: ConcurrentTm + Sync>(
    recorder: &ShardedRecorder<T>,
    streams: &[Vec<Tx>],
    txs: usize,
) -> Instant {
    std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, stream)| {
                scope.spawn(move || {
                    let mut writer = recorder.shard(ProcessId(t));
                    for &tx in &stream[..txs] {
                        run_recorded(&mut writer, tx);
                    }
                    Instant::now()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .max()
            .expect("at least one worker")
    })
}

/// One monitored run: the workers commit through the recorder while the
/// pipeline certifies; the row's time runs from the first transaction
/// to the verdict.
fn pipeline_row<T: ConcurrentTm + Sync>(
    tm: T,
    streams: &[Vec<Tx>],
    txs: usize,
    telemetry: &Telemetry,
) -> RowRun {
    let (recorder, stream) = ShardedRecorder::with_telemetry(tm, telemetry.clone());
    let config = OnlineConfig {
        telemetry: telemetry.clone(),
        ..OnlineConfig::default()
    };
    let pipeline = OnlinePipeline::spawn(stream, config);
    let start = Instant::now();
    let workers_done = run_workers(&recorder, streams, txs);
    recorder.close();
    let report = pipeline.join();
    let secs = start.elapsed().as_secs_f64();
    let expected = (streams.len() * txs) as u64;
    let failure = match &report.violation {
        Some(v) => Some(format!("violation at seq {}: {}", v.seq, v.detail)),
        None => (report.commits != expected)
            .then(|| format!("{} commits, expected {expected}", report.commits)),
    };
    let worker_s = (workers_done - start).as_secs_f64();
    RowRun {
        secs,
        failure,
        figures: vec![
            ("worker_s", worker_s),
            ("lag_s", secs - worker_s),
            ("events", report.events as f64),
            ("commits", report.commits as f64),
            ("aborts", report.aborts as f64),
            ("epochs", report.epochs_sealed as f64),
            ("chunks", report.chunks_certified as f64),
            ("max_lag_epochs", report.max_lag_epochs as f64),
        ],
    }
}

/// The bare TM: the streams through `atomically`, no recorder. Returns
/// the seconds the workers ran and the aborted attempts.
fn bare_pass<T: ConcurrentTm + Sync>(tm: T, streams: &[Vec<Tx>], txs: usize) -> (f64, u64) {
    let tm = &tm;
    let start = Instant::now();
    let aborts = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    stream[..txs]
                        .iter()
                        .map(|&tx| run_bare(tm, tx))
                        .sum::<u64>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .sum()
    });
    (start.elapsed().as_secs_f64(), aborts)
}

/// Recording with nobody consuming, then a timed drain of the merged
/// stream. Returns both times and the merged history.
fn recorded_pass<T: ConcurrentTm + Sync>(
    tm: T,
    streams: &[Vec<Tx>],
    txs: usize,
) -> (f64, f64, Vec<StampedEvent>) {
    let (recorder, stream) = ShardedRecorder::new(tm);
    let start = Instant::now();
    run_workers(&recorder, streams, txs);
    let record_s = start.elapsed().as_secs_f64();
    recorder.close();
    let start = Instant::now();
    let events = stream.drain_all();
    (record_s, start.elapsed().as_secs_f64(), events)
}

/// Groups chunks into epochs of at least `epoch_events` events, the way
/// the pipeline's sealer does.
fn epochs_of(chunks: Vec<Chunk>, epoch_events: usize) -> Vec<Vec<Chunk>> {
    let mut epochs = Vec::new();
    let (mut epoch, mut events) = (Vec::new(), 0);
    for chunk in chunks {
        events += chunk.events.len();
        epoch.push(chunk);
        if events >= epoch_events {
            epochs.push(std::mem::take(&mut epoch));
            events = 0;
        }
    }
    if !epoch.is_empty() {
        epochs.push(epoch);
    }
    epochs
}

/// Chunking, sequential certification and the parallel fan-out over one
/// merged history; adds their times and counts to `raw` and returns the
/// opacity violations sequential and parallel certification found.
fn certify_passes(events: &[StampedEvent], raw: &mut Raw) -> usize {
    let config = OnlineConfig::default();
    let mode = config.mode;
    let start = Instant::now();
    let mut chunker = Chunker::new(config.min_chunk_events);
    let mut chunks = Vec::new();
    for e in events {
        chunker.push(e.seq, e.event, &mut chunks);
    }
    chunker.finish(&mut chunks);
    add(raw, "chunker_s", start.elapsed().as_secs_f64());
    add(raw, "events", events.len() as f64);
    add(raw, "chunks", chunks.len() as f64);

    let start = Instant::now();
    let sequential = chunks
        .iter()
        .filter(|chunk| certify_chunk(mode, chunk).is_some())
        .count();
    add(raw, "certify_s", start.elapsed().as_secs_f64());

    let epochs = epochs_of(chunks, config.epoch_events);
    let start = Instant::now();
    let parallel: usize = epochs
        .into_iter()
        .map(|epoch| {
            distribute(epoch, |chunk| certify_chunk(mode, &chunk))
                .iter()
                .flatten()
                .count()
        })
        .sum();
    add(raw, "distribute_s", start.elapsed().as_secs_f64());
    sequential + parallel
}

fn add(raw: &mut Raw, key: &str, value: f64) {
    *raw.entry(key.to_string()).or_default() += value;
}

pub struct Online {
    size: Size,
    accounts: usize,
    streams: Vec<Vec<Tx>>,
}

/// Generates the streams from `seed` and runs the warm-up: the global
/// lock, monitored, on the first tenth of each stream.
pub fn setup(size: Size, accounts: usize, seed: u64) -> Online {
    let online = Online {
        size,
        accounts,
        streams: generate(seed, accounts, TXS[size.index()]),
    };
    let warm_up = TXS[size.index()] / 10;
    with_tm!("global-lock", accounts, |tm| pipeline_row(
        tm,
        &online.streams,
        warm_up,
        &Telemetry::off()
    ));
    online
}

impl Online {
    fn txs(&self) -> usize {
        TXS[self.size.index()]
    }

    /// One TM through the monitored pipeline (counters on) and then
    /// through each layer alone.
    fn traced_row(&self, tm: &str, telemetry: &Telemetry, raw: &mut Raw) -> RowRun {
        let (accounts, streams, txs) = (self.accounts, &self.streams, self.txs());
        let mut run = with_tm!(tm, accounts, |t| pipeline_row(t, streams, txs, telemetry));
        add(raw, "wall_s", run.secs);
        add(raw, "lag_s", run.figure("lag_s"));

        let (bare_s, aborts) = with_tm!(tm, accounts, |t| bare_pass(t, streams, txs));
        add(raw, "bare_s", bare_s);
        add(raw, "bare_aborts", aborts as f64);
        add(raw, "txs", (streams.len() * txs) as f64);

        let (record_s, merge_s, events) =
            with_tm!(tm, accounts, |t| recorded_pass(t, streams, txs));
        add(raw, "record_s", record_s);
        add(raw, "merge_s", merge_s);
        let violations = certify_passes(&events, raw);
        if run.failure.is_none() && violations > 0 {
            run.failure = Some(format!(
                "{violations} chunks failed layer-by-layer certification"
            ));
        }
        run
    }
}

impl Workload for Online {
    fn rows(&self) -> Vec<String> {
        TMS.iter().map(|tm| tm.to_string()).collect()
    }

    fn run_row(&self, row: usize) -> RowRun {
        let (accounts, streams, txs) = (self.accounts, &self.streams, self.txs());
        guarded(|| {
            with_tm!(TMS[row], accounts, |tm| pipeline_row(
                tm,
                streams,
                txs,
                &Telemetry::off()
            ))
        })
    }

    fn traced_pass(&self) -> (Vec<RowRun>, Raw) {
        let telemetry = Telemetry::counters();
        let mut raw = Raw::new();
        let runs = TMS
            .iter()
            .map(|tm| guarded(|| self.traced_row(tm, &telemetry, &mut raw)))
            .collect();
        for (counter, value) in telemetry.snapshot().nonzero() {
            raw.insert(counter.to_string(), value as f64);
        }
        let get = |key: &str| raw.get(key).copied().unwrap_or(0.0);
        let rate = |count: &str, secs: &str| get(count) / get(secs);
        let rates = [
            ("bare_tx_per_s", rate("txs", "bare_s")),
            ("recorded_tx_per_s", rate("txs", "record_s")),
            ("merge_events_per_s", rate("events", "merge_s")),
            ("chunker_events_per_s", rate("events", "chunker_s")),
            ("certify_events_per_s", rate("events", "certify_s")),
        ];
        raw.extend(rates.map(|(k, v)| (k.to_string(), v)));
        (runs, raw)
    }

    fn extra_gates(&self) -> Vec<(String, Option<String>)> {
        vec![("concurrent-buggy flagged".to_string(), canary())]
    }
}

/// The pipeline must flag a TM with one seeded lost update: a single
/// worker increments one t-variable, and the 10th commit's write is
/// dropped, so the next read sees a value no serialization explains.
fn canary() -> Option<String> {
    let (recorder, stream) = ShardedRecorder::new(ConcurrentBuggy::new(1, 10));
    let pipeline = OnlinePipeline::spawn(stream, OnlineConfig::default());
    {
        let mut writer = recorder.shard(ProcessId(0));
        for _ in 0..64 {
            atomically_sharded(&mut writer, |t| {
                let v = t.read(TVarId(0))?;
                t.write(TVarId(0), v + 1)
            });
        }
    }
    recorder.close();
    let report = pipeline.join();
    report
        .violation
        .is_none()
        .then(|| "seeded lost update not flagged".to_string())
}
