//! Engine-wide observability for the model checkers: deterministic
//! counters, phase spans, timing histograms and a line-buffered NDJSON
//! event stream.
//!
//! The checkers prune aggressively (DPOR, transition memoization) but
//! used to be opaque while running: the only output was the final
//! report. This crate is the observability layer threaded through the
//! whole stack — `tm_sim::engine` (worker steps, memo hits, DPOR races,
//! wakeup-tree inserts), both checkers (phase spans, schedule
//! and state counters, lasso/violation/verdict events) and `tm_stm`
//! (TmPool fork/refork tallies and timing histograms) — and the wire
//! format the ROADMAP's portfolio checking service consumes: racing
//! engines with first-to-verdict cancellation need live per-engine
//! progress, which is exactly the heartbeat/verdict stream below.
//!
//! # The `Telemetry` handle
//!
//! [`Telemetry`] is a cheap-to-clone handle (an `Option<Arc<_>>`). The
//! default handle is **off**: every hot-path hook compiles to one
//! predictable branch on a `None`, counters are not allocated, and no
//! I/O ever happens. An enabled handle counts into relaxed atomics;
//! hot loops additionally batch into plain locals and flush at phase
//! boundaries, so enabling counters does not perturb the measured
//! loops. Construction:
//!
//! * [`Telemetry::off`] — the no-op default (what `Default` returns);
//! * [`Telemetry::counters`] — in-memory counters only, for
//!   [`Telemetry::snapshot`] assertions in tests and tmbench;
//! * [`Telemetry::to_stderr`] / [`Telemetry::to_path`] — counters plus
//!   the NDJSON event stream;
//! * [`Telemetry::from_env`] — the CLI entry point: `TM_TELEMETRY=path`
//!   or `TM_TELEMETRY=stderr` selects the stream destination (unset:
//!   off), `TM_TELEMETRY_TIMING=1` enables the timing histograms, and
//!   `TM_TELEMETRY_HEARTBEAT_MS` tunes the heartbeat rate limit
//!   (default 200 ms).
//!
//! # Counter semantics
//!
//! Counters accumulate over the lifetime of one handle (pass a fresh
//! handle per run to get per-run numbers) and are **deterministic**:
//! every increment is a fixed property of the search (an executed
//! transition, a memo hit, a fork), never of thread scheduling, so
//! for a fixed configuration the [`Snapshot`] is byte-identical across
//! thread counts and runs. Wall-clock data (timing histograms, phase
//! durations, heartbeats) is deliberately **excluded** from the
//! snapshot.
//!
//! The executed / pruned contract, shared by both checkers:
//!
//! * **executed** counts work actually performed against a TM:
//!   [`Counter::SchedulesExecuted`] is every complete schedule the
//!   safety explorer certifies (it equals the report's `schedules`
//!   field), and
//!   [`Counter::StepsExecuted`] is every process step the liveness
//!   checker executes (each TM transition once).
//! * **pruned** counts search the engine proved redundant and skipped
//!   entirely: [`Counter::SchedulesPruned`] (leaves of the full
//!   `n^depth` tree minus executed leaves, saturating),
//!   [`Counter::WakeupRedundant`] (race reversals proved covered) and
//!   [`Counter::MemoHits`] (step edges the liveness checker read from
//!   its transition memo instead of executing).
//!
//! **Exception — the online-pipeline counters.** The streaming
//! certifier (`tm_sim::online`) runs real OS threads against real
//! atomics, so its counters are properties of one physical execution,
//! not of a deterministic search: [`Counter::TxCommits`] and
//! [`Counter::OpsRecorded`] are workload-determined, but
//! [`Counter::TxAborts`] (contention), [`Counter::EpochsSealed`],
//! [`Counter::ChunksCertified`] (batching boundaries) and
//! [`Counter::CheckerLagEpochs`] (a scheduling-dependent high-water
//! mark recorded via [`Telemetry::record_max`]) legitimately vary
//! across runs. Determinism suites must not snapshot-compare them.
//!
//! # The NDJSON event schema (version 1)
//!
//! With a stream destination configured, the sink emits **one JSON
//! object per line** (no pretty-printing, `\n` terminated, flushed per
//! line). Every event carries:
//!
//! * `"v"` — the schema version, currently `1`;
//! * `"ev"` — the event tag, one of [`EVENT_TAGS`];
//! * `"t_ms"` — milliseconds since the handle was created (wall clock,
//!   not deterministic).
//!
//! Event tags and their additional fields:
//!
//! | `ev` | fields |
//! |------|--------|
//! | `run_start` | `engine` (`"explore"` \| `"livecheck"` \| `"online"`), `tm`, `depth`, `processes` |
//! | `phase_start` | `engine`, `phase` |
//! | `phase_end` | `engine`, `phase`, `dur_us` |
//! | `heartbeat` | `engine` plus live gauges (e.g. `steps`, `schedules`, `states`, `lassos`, `states_per_sec`; the online certifier streams `ops`, `ops_per_sec`, `epochs_sealed`, `lag_epochs`) |
//! | `lasso_found` | `prefix_len`, `cycle_len`, `starving`, `parasitic` (process index arrays) |
//! | `violation` | `engine`, `schedule` (process index array), `detail` |
//! | `trace` | `engine`, `kind` (`"violation"` \| `"lasso"`), `idx` (witness index within the run), `schedule` (process index array), `cycle_start` (lasso only: step index where the repeated cycle begins), `steps` (per-step objects `{"p","op","resp","digest"}`: process, operation, TM response — `null` while withheld — and the canonical state fingerprint after the step, present when the TM implements `state_digest`) |
//! | `verdict` | `engine`, `tm`, plus the engine's headline result (`all_opaque` + `schedules`, or `starvation_free` + `states`/`edges`/`lassos`; the online certifier reuses `all_opaque` + `ops`/`epochs`/`chunks`/`max_lag_epochs`) — or, for a budget-exhausted/partial run, `partial: true` + `reason` and **no** boolean headline |
//! | `counter_snapshot` | `label`, `counters` (object of non-zero counters), `timers` (object of log2 bucket arrays, only with timing) |
//! | `fault_injected` | `engine` (always `"livecheck"`: only the liveness checker quantifies faults), `kind` (`"crash"` \| `"parasite"`), `process` — one event per distinct fault transition the fault-prone search exercised |
//! | `budget_exhausted` | `engine`, `reason` (which cap tripped) — the run degrades to a partial report; its `verdict` carries `partial: true` |
//!
//! Consumers must ignore unknown fields and unknown `ev` tags within a
//! major version; field *removal* or semantic change bumps `"v"`.
//! Heartbeats are rate-limited ([`Telemetry::heartbeat`]); each checker
//! run additionally emits one final unconditional heartbeat before its
//! `verdict`, so even sub-millisecond runs produce at least one.
//! Each `trace` event immediately follows the `violation` /
//! `lasso_found` event it annotates, and is produced by a deterministic
//! out-of-band replay of the witness schedule — never by the search hot
//! path — so enabling traces cannot perturb [`Snapshot`] equality.
//!
//! # Consuming the stream
//!
//! The workspace ships a reference consumer: the `tm-obs` crate
//! (`crates/tm-obs`), a typed forward-compatible parser for this schema
//! plus a binary with four subcommands — `tm-obs summary` (per-run
//! reports and a TM × config verdict matrix), `tm-obs tail` (live
//! single-line progress rendered from heartbeats), `tm-obs explain`
//! (annotated per-step witness timelines from `trace` events) and
//! `tm-obs diff` (threshold-based drift check between two streams'
//! counter snapshots). New
//! consumers — the portfolio service above all — should build on
//! `tm_obs::event` rather than re-parsing lines by hand.
//!
//! # Timing histograms
//!
//! With timing enabled, [`Telemetry::timer_start`]/[`timer_stop`]
//! record per-TM fork, refork and step durations into fixed-bucket
//! [`Log2Histogram`]s (bucket `i` counts durations in
//! `[2^(i-1), 2^i)` nanoseconds) — no allocation, no dependencies, and
//! a strictly bounded footprint. Timing data is wall-clock and
//! therefore never part of [`Snapshot`] equality.
//!
//! [`timer_stop`]: Telemetry::timer_stop

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

pub use json::Json;

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every event tag the version-1 NDJSON schema may emit (see the module
/// docs for per-tag fields). Validation suites check emitted `ev`
/// values against this list.
pub const EVENT_TAGS: &[&str] = &[
    "run_start",
    "phase_start",
    "phase_end",
    "heartbeat",
    "lasso_found",
    "violation",
    "trace",
    "verdict",
    "counter_snapshot",
    "fault_injected",
    "budget_exhausted",
];

/// The deterministic engine counters (see the module docs for the
/// executed / pruned contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Schedule-tree walk steps (`ScheduleSpace::step` executions in
    /// the safety explorer, interior nodes included).
    WorkerSteps,
    /// Reversible races the optimal-DPOR analysis detected.
    DporRaces,
    /// Complete schedules the safety explorer certified (equals the
    /// report's `schedules`).
    SchedulesExecuted,
    /// Leaves of the full `width^depth` schedule tree not accounted for
    /// (saturating at `u64::MAX` for unrepresentable trees).
    SchedulesPruned,
    /// Histories that fell back to the exact opacity checker.
    ExactFallbacks,
    /// Definitive opacity violations reported.
    ViolationsFound,
    /// Distinct configurations interned by the liveness checker (the
    /// interner's size: states including frontier nodes).
    GraphNodes,
    /// Edges of the explored liveness state graph.
    GraphEdges,
    /// Process steps the liveness checker executed against a TM: each
    /// TM transition — `(configuration, process, parasitic)` — once.
    /// Fault-free that is each step edge of its graph once; fault-prone,
    /// the step edges of the other fault masks count in
    /// [`Counter::MemoHits`].
    StepsExecuted,
    /// Step edges the liveness checker read from its transition memo
    /// with no TM work: `steps_executed + memo_hits` is the step-edge
    /// count of the graph.
    MemoHits,
    /// Lasso findings stored (at most one per certified plain
    /// progressing, starving or parasitic verdict).
    LassosFound,
    /// Allocating TM forks performed by the branching pool.
    TmForks,
    /// Allocation-free TM reforks performed by the branching pool.
    TmReforks,
    /// Race-reversal sequences inserted into wakeup trees (optimal
    /// DPOR).
    WakeupInserts,
    /// Race reversals proved already covered — rejected by the
    /// weak-initial sleep guard, subsumed by an existing wakeup-tree
    /// branch, or (footprints being state-dependent) popped with an
    /// asleep head and dropped before executing anything (optimal
    /// DPOR).
    WakeupRedundant,
    /// Fault transitions (`crash(p)` / `parasite(p)`) livecheck's
    /// fault-prone search executed as scheduler-level branches.
    FaultsInjected,
    /// Transactions committed by an `atomically*` retry loop (one per
    /// successful loop exit; workload-determined).
    TxCommits,
    /// Attempts aborted by an `atomically*` retry loop (one per retry;
    /// contention-dependent — see the online-counter exception in the
    /// module docs).
    TxAborts,
    /// Operations (read / write / commit attempts) stamped by the
    /// sharded online recorder.
    OpsRecorded,
    /// Epochs the online pipeline's sealer closed and handed to the
    /// certifier.
    EpochsSealed,
    /// History chunks the online certifier checked to completion.
    ChunksCertified,
    /// High-water mark of the online checker's lag (epochs sealed but
    /// not yet certified), recorded via [`Telemetry::record_max`] —
    /// scheduling-dependent, never snapshot-compared.
    CheckerLagEpochs,
}

impl Counter {
    /// Number of counters (the snapshot array length).
    pub const COUNT: usize = 22;

    /// Every counter, in snapshot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::WorkerSteps,
        Counter::DporRaces,
        Counter::SchedulesExecuted,
        Counter::SchedulesPruned,
        Counter::ExactFallbacks,
        Counter::ViolationsFound,
        Counter::GraphNodes,
        Counter::GraphEdges,
        Counter::StepsExecuted,
        Counter::MemoHits,
        Counter::LassosFound,
        Counter::TmForks,
        Counter::TmReforks,
        Counter::WakeupInserts,
        Counter::WakeupRedundant,
        Counter::FaultsInjected,
        Counter::TxCommits,
        Counter::TxAborts,
        Counter::OpsRecorded,
        Counter::EpochsSealed,
        Counter::ChunksCertified,
        Counter::CheckerLagEpochs,
    ];

    /// The counter's stable snake_case name (the `counter_snapshot`
    /// field key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::WorkerSteps => "worker_steps",
            Counter::DporRaces => "dpor_races",
            Counter::SchedulesExecuted => "schedules_executed",
            Counter::SchedulesPruned => "schedules_pruned",
            Counter::ExactFallbacks => "exact_fallbacks",
            Counter::ViolationsFound => "violations_found",
            Counter::GraphNodes => "graph_nodes",
            Counter::GraphEdges => "graph_edges",
            Counter::StepsExecuted => "steps_executed",
            Counter::MemoHits => "memo_hits",
            Counter::LassosFound => "lassos_found",
            Counter::TmForks => "tm_forks",
            Counter::TmReforks => "tm_reforks",
            Counter::WakeupInserts => "wakeup_inserts",
            Counter::WakeupRedundant => "wakeup_redundant",
            Counter::FaultsInjected => "faults_injected",
            Counter::TxCommits => "tx_commits",
            Counter::TxAborts => "tx_aborts",
            Counter::OpsRecorded => "ops_recorded",
            Counter::EpochsSealed => "epochs_sealed",
            Counter::ChunksCertified => "chunks_certified",
            Counter::CheckerLagEpochs => "checker_lag_epochs",
        }
    }
}

/// The timed operations (histogram slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Timer {
    /// An allocating `fork` of the checked TM.
    Fork,
    /// An allocation-free refork into a recycled box.
    Refork,
    /// One scheduler step executed against the TM.
    Step,
}

impl Timer {
    /// Number of timers.
    pub const COUNT: usize = 3;

    /// Every timer, in slot order.
    pub const ALL: [Timer; Timer::COUNT] = [Timer::Fork, Timer::Refork, Timer::Step];

    /// The timer's stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Timer::Fork => "fork_ns",
            Timer::Refork => "refork_ns",
            Timer::Step => "step_ns",
        }
    }
}

const HIST_BUCKETS: usize = 40;

/// A fixed-bucket base-2 logarithmic histogram of nanosecond durations:
/// bucket `i` counts samples in `[2^(i-1), 2^i)` ns (bucket 0 counts
/// zeros; the last bucket absorbs everything ≥ `2^38` ns ≈ 4.6 min).
/// Lock-free (relaxed atomics), allocation-free, dependency-free.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Log2Histogram {
    /// Records one duration.
    pub fn record(&self, nanos: u64) {
        let idx = (64 - nanos.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Relaxed);
    }

    /// The per-bucket counts.
    pub fn counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }
}

/// A deterministic, comparable copy of every counter (see the module
/// docs: timing data is excluded, so equality across thread counts is
/// an invariant the test suites assert).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    counts: [u64; Counter::COUNT],
}

impl Snapshot {
    /// One counter's value.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    /// The non-zero counters, in snapshot order, by stable name.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .filter(|&&c| self.counts[c as usize] != 0)
            .map(|&c| (c.name(), self.counts[c as usize]))
            .collect()
    }

    /// Whether every counter is zero (e.g. the handle was off).
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut map = f.debug_map();
        for (name, value) in self.nonzero() {
            map.entry(&name, &value);
        }
        map.finish()
    }
}

struct Inner {
    counters: [AtomicU64; Counter::COUNT],
    timers: [Log2Histogram; Timer::COUNT],
    timing: bool,
    /// Completed phase spans: `(name, duration_nanos)` — inspectable
    /// in-memory even without a stream sink.
    phases: Mutex<Vec<(String, u64)>>,
    sink: Option<Mutex<Box<dyn Write + Send>>>,
    start: Instant,
    heartbeat_ms: u64,
    /// Milliseconds-since-start of the last heartbeat, plus one
    /// (so zero means "never"). A benign race: two threads may both
    /// pass the gate and emit, which only makes heartbeats denser.
    last_beat: AtomicU64,
}

/// The observability handle threaded through the engine, the checkers
/// and the TM pool. Cheap to clone (an `Option<Arc<_>>`); the default
/// handle is off and every hook on it is a no-op. See the module docs
/// for the schema and counter contracts.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(off)"),
            Some(inner) if inner.sink.is_some() => f.write_str("Telemetry(streaming)"),
            Some(_) => f.write_str("Telemetry(counters)"),
        }
    }
}

fn build(sink: Option<Box<dyn Write + Send>>) -> Telemetry {
    Telemetry {
        inner: Some(Arc::new(Inner {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            timers: std::array::from_fn(|_| Log2Histogram::default()),
            timing: false,
            phases: Mutex::new(Vec::new()),
            sink: sink.map(Mutex::new),
            start: Instant::now(),
            heartbeat_ms: 200,
            last_beat: AtomicU64::new(0),
        })),
    }
}

impl Telemetry {
    /// The no-op handle: no counters, no I/O, hooks compile to a branch.
    pub fn off() -> Telemetry {
        Telemetry::default()
    }

    /// In-memory counters and phase spans only — no event stream. The
    /// handle the determinism suites snapshot.
    pub fn counters() -> Telemetry {
        build(None)
    }

    /// Counters plus the NDJSON event stream on standard error.
    pub fn to_stderr() -> Telemetry {
        build(Some(Box::new(std::io::stderr())))
    }

    /// Counters plus the NDJSON event stream appended to a file.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn to_path(path: impl AsRef<std::path::Path>) -> std::io::Result<Telemetry> {
        let file = std::fs::File::create(path)?;
        Ok(build(Some(Box::new(std::io::BufWriter::new(file)))))
    }

    /// The environment entry point (see the module docs):
    /// `TM_TELEMETRY=stderr|<path>` selects the stream (unset or empty:
    /// off), `TM_TELEMETRY_TIMING=1` enables timing histograms,
    /// `TM_TELEMETRY_HEARTBEAT_MS=<ms>` tunes the heartbeat rate limit.
    pub fn from_env() -> Telemetry {
        let dest = match std::env::var("TM_TELEMETRY") {
            Ok(dest) if !dest.is_empty() => dest,
            _ => return Telemetry::off(),
        };
        let mut telemetry = if dest == "stderr" {
            Telemetry::to_stderr()
        } else {
            match Telemetry::to_path(&dest) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("TM_TELEMETRY: cannot open `{dest}` ({e}); streaming to stderr");
                    Telemetry::to_stderr()
                }
            }
        };
        if std::env::var("TM_TELEMETRY_TIMING").is_ok_and(|v| v == "1") {
            telemetry = telemetry.with_timing();
        }
        if let Some(ms) = std::env::var("TM_TELEMETRY_HEARTBEAT_MS")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            telemetry = telemetry.with_heartbeat_ms(ms);
        }
        telemetry
    }

    /// Enables the fork/refork/step timing histograms. Construction-time
    /// option: a no-op once the handle has been cloned.
    #[must_use]
    pub fn with_timing(mut self) -> Telemetry {
        if let Some(inner) = self.inner.as_mut().and_then(Arc::get_mut) {
            inner.timing = true;
        }
        self
    }

    /// Sets the heartbeat rate limit. Construction-time option: a no-op
    /// once the handle has been cloned.
    #[must_use]
    pub fn with_heartbeat_ms(mut self, ms: u64) -> Telemetry {
        if let Some(inner) = self.inner.as_mut().and_then(Arc::get_mut) {
            inner.heartbeat_ms = ms;
        }
        self
    }

    /// Whether any instrumentation is active (counters at minimum).
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the NDJSON event stream is configured.
    #[inline]
    pub fn streams(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.sink.is_some())
    }

    /// Whether the timing histograms are recording.
    #[inline]
    pub fn timing_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.timing)
    }

    /// Adds `n` to a counter (relaxed atomic; a no-op when off).
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            if n != 0 {
                inner.counters[counter as usize].fetch_add(n, Relaxed);
            }
        }
    }

    /// Raises a counter to `v` if `v` exceeds its current value — the
    /// high-water-mark discipline for gauge-like counters such as
    /// [`Counter::CheckerLagEpochs`] (relaxed atomic; a no-op when off).
    #[inline]
    pub fn record_max(&self, counter: Counter, v: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter as usize].fetch_max(v, Relaxed);
        }
    }

    /// One counter's current value (0 when off).
    pub fn value(&self, counter: Counter) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.counters[counter as usize].load(Relaxed))
    }

    /// Seconds since the handle was created (0.0 when off).
    pub fn elapsed_secs(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |i| i.start.elapsed().as_secs_f64())
    }

    /// A deterministic copy of every counter (all-zero when off).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            None => Snapshot::default(),
            Some(inner) => Snapshot {
                counts: std::array::from_fn(|i| inner.counters[i].load(Relaxed)),
            },
        }
    }

    /// Starts a duration measurement iff timing is enabled; pass the
    /// result to [`Telemetry::timer_stop`]. The disabled path is one
    /// branch — no clock read.
    #[inline]
    pub fn timer_start(&self) -> Option<Instant> {
        match &self.inner {
            Some(inner) if inner.timing => Some(Instant::now()),
            _ => None,
        }
    }

    /// Completes a measurement started by [`Telemetry::timer_start`].
    #[inline]
    pub fn timer_stop(&self, timer: Timer, started: Option<Instant>) {
        if let (Some(inner), Some(started)) = (&self.inner, started) {
            inner.timers[timer as usize]
                .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Total samples one timing histogram has recorded.
    pub fn timer_total(&self, timer: Timer) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.timers[timer as usize].total())
    }

    /// Completed phase spans as `(name, duration_nanos)`, in completion
    /// order.
    pub fn phases(&self) -> Vec<(String, u64)> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.phases.lock().expect("phases lock").clone())
    }

    /// Opens a phase span: emits `phase_start` now and, when the guard
    /// drops, records the duration and emits `phase_end`.
    #[must_use = "the span measures until dropped — bind it with `let _span = ...`"]
    pub fn phase(&self, engine: &'static str, name: &'static str) -> PhaseSpan {
        let start = self.inner.as_ref().map(|_| Instant::now());
        if start.is_some() {
            self.event(
                "phase_start",
                &[("engine", Json::str(engine)), ("phase", Json::str(name))],
            );
        }
        PhaseSpan {
            telemetry: self.clone(),
            engine,
            name,
            start,
        }
    }

    /// Emits one NDJSON event (a no-op without a stream sink). The
    /// standard envelope fields `v`, `ev` and `t_ms` are prepended.
    pub fn event(&self, ev: &str, fields: &[(&str, Json)]) {
        let Some(inner) = &self.inner else { return };
        let Some(sink) = &inner.sink else { return };
        let mut pairs = Vec::with_capacity(fields.len() + 3);
        pairs.push(("v".to_string(), Json::Int(1)));
        pairs.push(("ev".to_string(), Json::str(ev)));
        pairs.push((
            "t_ms".to_string(),
            Json::Num(inner.start.elapsed().as_secs_f64() * 1e3),
        ));
        for (k, v) in fields {
            pairs.push(((*k).to_string(), v.clone()));
        }
        let line = Json::Obj(pairs);
        // Telemetry is best-effort: a closed pipe must not kill a run.
        let mut out = sink.lock().expect("sink lock");
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }

    /// Emits a rate-limited `heartbeat` event; `fields` is only
    /// evaluated when a beat is due (a no-op without a stream sink).
    pub fn heartbeat<F>(&self, engine: &str, fields: F)
    where
        F: FnOnce() -> Vec<(&'static str, Json)>,
    {
        let Some(inner) = &self.inner else { return };
        if inner.sink.is_none() {
            return;
        }
        let now = u64::try_from(inner.start.elapsed().as_millis()).unwrap_or(u64::MAX);
        let last = inner.last_beat.load(Relaxed);
        if last != 0 && now.saturating_sub(last - 1) < inner.heartbeat_ms {
            return;
        }
        inner.last_beat.store(now + 1, Relaxed);
        self.emit_heartbeat(engine, &fields());
    }

    /// Emits a `heartbeat` event unconditionally — each checker run's
    /// final beat, so even sub-millisecond runs stream at least one.
    pub fn heartbeat_now(&self, engine: &str, fields: &[(&'static str, Json)]) {
        if self.streams() {
            if let Some(inner) = &self.inner {
                let now = u64::try_from(inner.start.elapsed().as_millis()).unwrap_or(u64::MAX);
                inner.last_beat.store(now + 1, Relaxed);
            }
            self.emit_heartbeat(engine, fields);
        }
    }

    fn emit_heartbeat(&self, engine: &str, fields: &[(&'static str, Json)]) {
        let mut all: Vec<(&str, Json)> = vec![("engine", Json::str(engine))];
        all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
        self.event("heartbeat", &all);
    }

    /// Emits a `counter_snapshot` event of every non-zero counter (plus
    /// the timing histograms when enabled); a no-op without a sink.
    pub fn emit_counters(&self, label: &str) {
        let Some(inner) = &self.inner else { return };
        if inner.sink.is_none() {
            return;
        }
        let snapshot = self.snapshot();
        let counters = Json::Obj(
            Counter::ALL
                .iter()
                .filter(|&&c| snapshot.get(c) != 0)
                .map(|&c| {
                    (
                        c.name().to_string(),
                        Json::Int(i64::try_from(snapshot.get(c)).unwrap_or(i64::MAX)),
                    )
                })
                .collect(),
        );
        let mut fields = vec![("label", Json::str(label)), ("counters", counters)];
        if inner.timing {
            let timers = Json::Obj(
                Timer::ALL
                    .iter()
                    .filter(|&&t| inner.timers[t as usize].total() != 0)
                    .map(|&t| {
                        let counts = inner.timers[t as usize].counts();
                        let last = counts.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
                        (
                            t.name().to_string(),
                            Json::Arr(
                                counts[..last]
                                    .iter()
                                    .map(|&c| Json::Int(i64::try_from(c).unwrap_or(i64::MAX)))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            );
            fields.push(("timers", timers));
        }
        self.event("counter_snapshot", &fields);
    }
}

/// An RAII phase span returned by [`Telemetry::phase`]: measures from
/// creation to drop, records the duration in-memory, and emits the
/// `phase_start`/`phase_end` event pair when streaming.
pub struct PhaseSpan {
    telemetry: Telemetry,
    engine: &'static str,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(inner) = &self.telemetry.inner {
            inner
                .phases
                .lock()
                .expect("phases lock")
                .push((self.name.to_string(), nanos));
        }
        self.telemetry.event(
            "phase_end",
            &[
                ("engine", Json::str(self.engine)),
                ("phase", Json::str(self.name)),
                ("dur_us", Json::Num(nanos as f64 / 1e3)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_off_handle_is_inert() {
        let t = Telemetry::off();
        t.add(Counter::WorkerSteps, 10);
        assert!(!t.is_on() && !t.streams() && !t.timing_enabled());
        assert!(t.snapshot().is_empty());
        assert_eq!(t.timer_start(), None);
        let _span = t.phase("explore", "walk");
        drop(_span);
        assert!(t.phases().is_empty());
    }

    #[test]
    fn counters_accumulate_and_snapshot_compares() {
        let a = Telemetry::counters();
        let b = Telemetry::counters();
        for t in [&a, &b] {
            t.add(Counter::SchedulesExecuted, 100);
            t.add(Counter::DporRaces, 7);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().get(Counter::SchedulesExecuted), 100);
        b.add(Counter::DporRaces, 1);
        assert_ne!(a.snapshot(), b.snapshot());
        assert_eq!(
            a.snapshot().nonzero(),
            vec![("dpor_races", 7), ("schedules_executed", 100)]
        );
    }

    #[test]
    fn clones_share_the_counter_store() {
        let t = Telemetry::counters();
        let clone = t.clone();
        clone.add(Counter::TmForks, 3);
        assert_eq!(t.value(Counter::TmForks), 3);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Log2Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // [1,2) -> bucket 1
        h.record(2); // [2,4) -> bucket 2
        h.record(3);
        h.record(1024); // bucket 11
        h.record(u64::MAX); // clamped to the last bucket
        let counts = h.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 2);
        assert_eq!(counts[11], 1);
        assert_eq!(counts[HIST_BUCKETS - 1], 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn timing_is_opt_in() {
        let plain = Telemetry::counters();
        assert_eq!(plain.timer_start(), None);
        let timed = Telemetry::counters().with_timing();
        let started = timed.timer_start();
        assert!(started.is_some());
        timed.timer_stop(Timer::Fork, started);
        assert_eq!(timed.timer_total(Timer::Fork), 1);
        assert_eq!(timed.timer_total(Timer::Step), 0);
    }

    #[test]
    fn phase_spans_record_in_memory() {
        let t = Telemetry::counters();
        {
            let _span = t.phase("livecheck", "graph_build");
        }
        let phases = t.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "graph_build");
    }

    #[test]
    fn stream_lines_are_schema_valid_json() {
        let path =
            std::env::temp_dir().join(format!("tm_telemetry_unit_{}.ndjson", std::process::id()));
        let t = Telemetry::to_path(&path).expect("open sink");
        t.add(Counter::StepsExecuted, 5);
        t.event(
            "run_start",
            &[("engine", Json::str("livecheck")), ("tm", Json::str("tl2"))],
        );
        {
            let _span = t.phase("livecheck", "search");
        }
        t.heartbeat_now("livecheck", &[("states", Json::Int(9))]);
        t.emit_counters("tl2");
        drop(t);
        let text = std::fs::read_to_string(&path).expect("read stream");
        let _ = std::fs::remove_file(&path);
        let mut tags = Vec::new();
        for line in text.lines() {
            let doc = Json::parse(line).expect("every line parses");
            assert_eq!(doc.get("v").and_then(Json::as_int), Some(1));
            let tag = doc
                .get("ev")
                .and_then(Json::as_str)
                .expect("ev present")
                .to_string();
            assert!(EVENT_TAGS.contains(&tag.as_str()), "unknown tag {tag}");
            tags.push(tag);
        }
        assert_eq!(
            tags,
            vec![
                "run_start",
                "phase_start",
                "phase_end",
                "heartbeat",
                "counter_snapshot"
            ]
        );
    }

    #[test]
    fn heartbeats_are_rate_limited_but_now_is_unconditional() {
        let path =
            std::env::temp_dir().join(format!("tm_telemetry_beats_{}.ndjson", std::process::id()));
        let t = Telemetry::to_path(&path)
            .expect("open sink")
            .with_heartbeat_ms(10_000);
        let mut evaluated = 0;
        for _ in 0..5 {
            t.heartbeat("explore", || {
                evaluated += 1;
                vec![("steps", Json::Int(1))]
            });
        }
        t.heartbeat_now("explore", &[("steps", Json::Int(2))]);
        drop(t);
        let text = std::fs::read_to_string(&path).expect("read stream");
        let _ = std::fs::remove_file(&path);
        assert_eq!(evaluated, 1, "rate limit must skip field construction");
        assert_eq!(text.lines().count(), 2, "one limited beat + one forced");
    }
}
