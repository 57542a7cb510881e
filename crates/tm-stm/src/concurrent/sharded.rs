//! Sharded, sequence-stamped recording for production traffic.
//!
//! A recorder that appended every event to one shared history under a
//! global mutex would be correct, but a hard single-core ceiling on
//! recording throughput. [`ShardedRecorder`] keeps shared state off the
//! hot path entirely:
//!
//! * **per-thread shards** — each worker thread owns a [`ShardWriter`]
//!   with a private append-only event buffer; no cross-thread writes,
//!   no locks, no false sharing on the log;
//! * **atomic sequence stamps** — one global `AtomicU64` is
//!   `fetch_add`ed per event, giving every invocation/response a dense
//!   global sequence number. The stamp for an invocation is taken
//!   *before* the underlying operation starts and the stamp for its
//!   response *after* it returns, so sorting by stamp yields a faithful
//!   real-time-consistent history, because the stamp's atomic RMW is a
//!   single linearization point inside the operation's window (the
//!   argument is spelled out in the [`super`] module docs). Commit
//!   responses are stamped more
//!   precisely: *at the TM's serialization point*, from inside
//!   [`Transaction::commit_at`] (possibly optimistically, before the
//!   TM's final validation — a failed commit's stamp is charged to its
//!   abort response), so the merged order of commit events equals the
//!   TM's serialization order — the witness order the commit-order
//!   certifier checks (stamping after `commit` returns races in the
//!   unlock-to-stamp window and records false commit inversions);
//! * **batched hand-off** — a shard sends its buffered events to the
//!   consumer once per *transaction attempt* (commit, abort, or
//!   abandon) over a lock-free channel, so the channel cost is
//!   amortized over the attempt's operations. The batch is an
//!   exact-size copy of the attempt's events (about ten for a
//!   two-account transfer) tagged with the shard's index; the shard
//!   keeps its one reusable append buffer, so a backlog of queued
//!   batches holds the recorded events and no spare capacity.
//!
//! The consumer end is [`EventStream`], which merges the per-shard
//! batches back into one stream by sequence number. Two facts make the
//! merge O(1) per event:
//!
//! * one thread stamps each shard, in program order, so stamps strictly
//!   increase within a shard — the commit response's
//!   serialization-point stamp included, since it is drawn after every
//!   earlier stamp of its attempt and before any later one;
//! * the channel delivers each sender's batches in FIFO order.
//!
//! So the stream keeps one FIFO of batches per shard, with a read
//! cursor into the front batch, and a shard that holds the next stamp
//! holds it at its head: everything the shard stamped earlier has a
//! smaller stamp and is already out. Draining copies a run from one
//! shard while its head continues the sequence, then looks across the
//! shard heads for the next stamp — O(1) per event and O(shards) per
//! run. Because stamps are dense (`fetch_add(1)` per event, no gaps),
//! the contiguous stamp prefix is exactly the complete merged history
//! so far — no quiescence protocol, no epoch barriers stalling
//! writers. A long-running straggler transaction simply holds back the
//! prefix, which downstream surfaces honestly as checker lag rather
//! than being papered over by reordering. A stamp drawn by a writer
//! that dies before shipping its event leaves a permanent gap; the
//! stream then closes at the gap and reports the stamps it could not
//! deliver ([`EventStream::undelivered_stamps`]).
//!
//! `tm_sim::online` builds the epoch sealer, chunker, and parallel
//! certifier on top of this stream; the layer diagram lives in the
//! [`concurrent`](super) module docs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use parking_lot::Mutex;

use tm_core::{Event, ProcessId, TVarId, Value};
use tm_telemetry::{Counter, Telemetry};

use super::api::{ConcurrentTm, Transaction, TxAbort};

/// A recorded event together with its dense global sequence stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampedEvent {
    /// Position in the merged history (dense: every value in
    /// `0..total` occurs exactly once).
    pub seq: u64,
    /// The history event.
    pub event: Event,
}

/// Batches travel shard → consumer once per transaction attempt,
/// tagged with the index of the shard that recorded them.
type Batch = (usize, Vec<StampedEvent>);

/// A sharded, lock-free history recorder around a concurrent TM.
///
/// Created with [`ShardedRecorder::new`], which also returns the
/// consumer-side [`EventStream`]. Worker threads obtain per-thread
/// [`ShardWriter`]s via [`ShardedRecorder::shard`]; when the workload is
/// done (all writers dropped) and [`ShardedRecorder::close`] has been
/// called, the stream reports end-of-history.
#[derive(Debug)]
pub struct ShardedRecorder<T> {
    inner: T,
    /// The global stamp counter, shared with the stream so that it can
    /// count stamps that never arrive.
    seq: Arc<AtomicU64>,
    /// Shards created so far, hence the next shard's index.
    shards: AtomicUsize,
    telemetry: Telemetry,
    /// Prototype sender, cloned once per shard. Behind a mutex only so
    /// the recorder stays `Sync`; the hot path never touches it.
    sender: Mutex<Option<Sender<Batch>>>,
}

impl<T: ConcurrentTm> ShardedRecorder<T> {
    /// Wraps `inner`, returning the recorder and the merged event
    /// stream its shards feed.
    pub fn new(inner: T) -> (Self, EventStream) {
        Self::with_telemetry(inner, Telemetry::off())
    }

    /// [`ShardedRecorder::new`] with a telemetry handle: shards tally
    /// [`Counter::OpsRecorded`] (once per batch flush) and the
    /// [`atomically_sharded`] loop tallies [`Counter::TxCommits`] /
    /// [`Counter::TxAborts`].
    pub fn with_telemetry(inner: T, telemetry: Telemetry) -> (Self, EventStream) {
        let (tx, rx) = channel();
        let seq = Arc::new(AtomicU64::new(0));
        let stream = EventStream::new(rx, Arc::clone(&seq));
        let recorder = ShardedRecorder {
            inner,
            seq,
            shards: AtomicUsize::new(0),
            telemetry,
            sender: Mutex::new(Some(tx)),
        };
        (recorder, stream)
    }

    /// The wrapped TM.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The telemetry handle shards and retry loops tally into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Creates the calling thread's shard, attributing its events to
    /// `process`.
    ///
    /// # Panics
    ///
    /// Panics if the recorder was already [`close`](Self::close)d.
    pub fn shard(&self, process: ProcessId) -> ShardWriter<'_, T> {
        let sender = self
            .sender
            .lock()
            .as_ref()
            .expect("recorder already closed")
            .clone();
        ShardWriter {
            recorder: self,
            sender,
            // Relaxed: the index only has to be unique.
            index: self.shards.fetch_add(1, Ordering::Relaxed),
            process,
            batch: Vec::with_capacity(64),
            ops: 0,
        }
    }

    /// Retires the recorder's channel handle. Once every outstanding
    /// [`ShardWriter`] is dropped too, the [`EventStream`] observes
    /// end-of-history. Idempotent.
    pub fn close(&self) {
        self.sender.lock().take();
    }

    /// Events stamped so far (monotonic; racy against in-flight
    /// writers, exact once they are done).
    pub fn events_stamped(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }
}

/// One thread's private recording shard.
///
/// Not `Sync` by design — exactly one worker thread appends to it, so
/// the buffer needs no synchronization. Event discipline: invocation
/// stamped before the underlying operation, response after, abort
/// events on failure, and [`ShardedTx::abandon`] completing live
/// transactions with `tryC · A` so recorded histories stay complete.
#[derive(Debug)]
pub struct ShardWriter<'a, T: ConcurrentTm> {
    recorder: &'a ShardedRecorder<T>,
    sender: Sender<Batch>,
    /// This shard's slot in the stream's per-shard queues.
    index: usize,
    process: ProcessId,
    batch: Vec<StampedEvent>,
    /// Operations since the last flush (flushed into
    /// [`Counter::OpsRecorded`] alongside the batch).
    ops: u64,
}

impl<'a, T: ConcurrentTm> ShardWriter<'a, T> {
    /// The process id this shard's events carry.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// Stamps `event` with the next global sequence number and appends
    /// it to the shard's private buffer.
    fn log(&mut self, event: Event) {
        // AcqRel: the RMW must not be reordered with the operation it
        // brackets, so stamp order refines real-time order.
        let seq = self.recorder.seq.fetch_add(1, Ordering::AcqRel);
        self.batch.push(StampedEvent { seq, event });
    }

    /// Ships the buffered attempt to the consumer. Called at every
    /// attempt boundary (commit, abort, abandon).
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        // Ship an exact-size copy and keep the buffer's capacity for the
        // next attempt: a queued batch then holds no spare slots.
        let batch = self.batch.to_vec();
        self.batch.clear();
        self.recorder
            .telemetry
            .add(Counter::OpsRecorded, std::mem::take(&mut self.ops));
        // A dropped receiver means the consumer is gone; recording
        // degrades to a no-op rather than poisoning the workload.
        let _ = self.sender.send((self.index, batch));
    }

    /// Starts a recorded transaction on this shard.
    pub fn begin(&mut self) -> ShardedTx<'_, 'a, T> {
        let inner = self.recorder.inner.begin();
        ShardedTx {
            writer: self,
            inner: Some(inner),
        }
    }
}

impl<T: ConcurrentTm> Drop for ShardWriter<'_, T> {
    fn drop(&mut self) {
        // Defensive: a panicking worker still ships what it recorded.
        self.flush();
    }
}

/// A recording transaction handle on a [`ShardWriter`].
pub struct ShardedTx<'w, 'a, T: ConcurrentTm> {
    writer: &'w mut ShardWriter<'a, T>,
    inner: Option<T::Tx<'a>>,
}

impl<T: ConcurrentTm> ShardedTx<'_, '_, T> {
    /// Transactional read, recorded.
    ///
    /// # Errors
    ///
    /// [`TxAbort`] when the underlying transaction aborts; the abort
    /// event `A_k` is recorded, the attempt is flushed, and the handle
    /// must be dropped.
    pub fn read(&mut self, x: TVarId) -> Result<Value, TxAbort> {
        let p = self.writer.process;
        self.writer.ops += 1;
        self.writer.log(Event::read(p, x));
        match self.inner.as_mut().expect("live transaction").read(x) {
            Ok(v) => {
                self.writer.log(Event::value(p, v));
                Ok(v)
            }
            Err(TxAbort) => {
                self.writer.log(Event::aborted(p));
                self.inner = None;
                self.writer.flush();
                Err(TxAbort)
            }
        }
    }

    /// Transactional write, recorded.
    ///
    /// # Errors
    ///
    /// [`TxAbort`] when the underlying transaction aborts.
    pub fn write(&mut self, x: TVarId, v: Value) -> Result<(), TxAbort> {
        let p = self.writer.process;
        self.writer.ops += 1;
        self.writer.log(Event::write(p, x, v));
        match self.inner.as_mut().expect("live transaction").write(x, v) {
            Ok(()) => {
                self.writer.log(Event::ok(p));
                Ok(())
            }
            Err(TxAbort) => {
                self.writer.log(Event::aborted(p));
                self.inner = None;
                self.writer.flush();
                Err(TxAbort)
            }
        }
    }

    /// Commit attempt, recorded as `tryC · C` or `tryC · A`; either way
    /// the attempt's batch is shipped to the consumer.
    ///
    /// # Errors
    ///
    /// [`TxAbort`] when validation fails.
    pub fn commit(mut self) -> Result<(), TxAbort> {
        let p = self.writer.process;
        self.writer.ops += 1;
        self.writer.log(Event::try_commit(p));
        // The commit response's stamp is taken *at the TM's
        // serialization point* (via [`Transaction::commit_at`], possibly
        // optimistically before the TM's final validation) — so the
        // merged order of commit events equals the TM's serialization
        // order, which is exactly the witness order the commit-order
        // certifier checks. A stamp taken after `commit` returns would
        // race: another conflicting commit can complete *and stamp*
        // inside the window between this TM's internal unlock and our
        // stamp, inverting the recorded commit order and manifesting as
        // false violations.
        let recorder = self.writer.recorder;
        let mut point_seq: Option<u64> = None;
        let result = self
            .inner
            .take()
            .expect("live transaction")
            .commit_at(&mut || {
                if point_seq.is_none() {
                    point_seq = Some(recorder.seq.fetch_add(1, Ordering::AcqRel));
                }
            });
        // Fall back to stamping now if the TM skipped its `point` call
        // (or use the taken stamp for the abort event if it called
        // `point` and then failed): either way every stamp drawn from
        // the counter lands in exactly one event, keeping the sequence
        // dense for the merge.
        let seq = point_seq.unwrap_or_else(|| recorder.seq.fetch_add(1, Ordering::AcqRel));
        let event = match result {
            Ok(()) => Event::committed(p),
            Err(TxAbort) => Event::aborted(p),
        };
        self.writer.batch.push(StampedEvent { seq, event });
        self.writer.flush();
        result
    }

    /// Abandons the transaction, recording a completion abort if it is
    /// still live (so recorded histories stay complete).
    pub fn abandon(mut self) {
        if self.inner.take().is_some() {
            let p = self.writer.process;
            self.writer.log(Event::try_commit(p));
            self.writer.log(Event::aborted(p));
            self.writer.flush();
        }
    }
}

/// Retry loop for sharded recording: runs `body` until commit,
/// returning the result and the number of aborted attempts, with
/// commit/abort tallies flushed through the recorder's counter path.
pub fn atomically_sharded<T, R, F>(writer: &mut ShardWriter<'_, T>, mut body: F) -> (R, u64)
where
    T: ConcurrentTm,
    F: FnMut(&mut ShardedTx<'_, '_, T>) -> Result<R, TxAbort>,
{
    let mut aborts = 0;
    loop {
        let mut tx = writer.begin();
        let committed = match body(&mut tx) {
            Ok(result) => match tx.commit() {
                Ok(()) => Some(result),
                Err(TxAbort) => None,
            },
            Err(TxAbort) => None,
        };
        match committed {
            Some(result) => {
                let telemetry = writer.recorder.telemetry();
                telemetry.add(Counter::TxCommits, 1);
                telemetry.add(Counter::TxAborts, aborts);
                return (result, aborts);
            }
            None => aborts += 1,
        }
    }
}

/// Whether an [`EventStream`] can still produce events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStatus {
    /// Writers may still be active; poll again.
    Open,
    /// Every shard writer and the recorder's prototype sender are gone
    /// and every event that can be merged has been handed out (see
    /// [`EventStream::undelivered_stamps`] for any that cannot).
    Closed,
}

/// One shard's undelivered batches, oldest first.
#[derive(Debug, Default)]
struct ShardQueue {
    batches: VecDeque<Vec<StampedEvent>>,
    /// Events of the front batch already handed out.
    cursor: usize,
}

impl ShardQueue {
    /// The smallest stamp the shard still holds.
    fn head(&self) -> Option<u64> {
        self.batches.front().map(|batch| batch[self.cursor].seq)
    }

    /// Hands out the shard's events while they continue the merged
    /// prefix at `next`; returns the first stamp not handed out.
    fn drain_run(&mut self, mut next: u64, out: &mut Vec<StampedEvent>) -> u64 {
        while let Some(batch) = self.batches.front() {
            let rest = &batch[self.cursor..];
            let run = rest
                .iter()
                .zip(next..)
                .take_while(|(stamped, seq)| stamped.seq == *seq)
                .count();
            out.extend_from_slice(&rest[..run]);
            next += run as u64;
            if run < rest.len() {
                self.cursor += run;
                break;
            }
            self.batches.pop_front();
            self.cursor = 0;
        }
        next
    }
}

/// The consumer end of a [`ShardedRecorder`]: merges per-shard batches
/// into the single sequence-ordered history.
///
/// Owns no reference to the recorder, so it can move to a dedicated
/// consumer thread while worker threads borrow the recorder.
#[derive(Debug)]
pub struct EventStream {
    rx: Receiver<Batch>,
    /// Per-shard FIFOs, indexed by shard.
    queues: Vec<ShardQueue>,
    /// The recorder's stamp counter.
    stamped: Arc<AtomicU64>,
    next_seq: u64,
    disconnected: bool,
}

impl EventStream {
    fn new(rx: Receiver<Batch>, stamped: Arc<AtomicU64>) -> Self {
        EventStream {
            rx,
            queues: Vec::new(),
            stamped,
            next_seq: 0,
            disconnected: false,
        }
    }

    /// Sequence number the merged prefix has reached: every event with
    /// `seq < merged_up_to()` has been handed out in order.
    pub fn merged_up_to(&self) -> u64 {
        self.next_seq
    }

    /// Stamps the recorder drew that this stream will never hand out.
    ///
    /// Zero while the stream is open and after a clean close. Nonzero
    /// only when a writer drew a stamp and died before shipping the
    /// event for it — a TM that panics inside
    /// [`Transaction::commit_at`] after calling `point`. The merged
    /// history then ends at that gap, and the count includes every
    /// event recorded after it: handing those out would present a
    /// history with a hole as a complete one.
    pub fn undelivered_stamps(&self) -> u64 {
        if self.disconnected {
            // Every writer drew its stamps before dropping its sender,
            // and observing the disconnect synchronizes with those
            // drops, so the counter is final here.
            self.stamped.load(Ordering::Acquire) - self.next_seq
        } else {
            0
        }
    }

    fn absorb(&mut self, (shard, events): Batch) {
        if shard >= self.queues.len() {
            self.queues.resize_with(shard + 1, ShardQueue::default);
        }
        self.queues[shard].batches.push_back(events);
    }

    fn drain_prefix(&mut self, out: &mut Vec<StampedEvent>) {
        // Stamps increase within a shard, so the shard holding
        // `next_seq` holds it at its head.
        while let Some(queue) = self
            .queues
            .iter_mut()
            .find(|queue| queue.head() == Some(self.next_seq))
        {
            self.next_seq = queue.drain_run(self.next_seq, out);
        }
    }

    /// Waits up to `timeout` for progress, then appends every newly
    /// contiguous event (in sequence order) to `out`.
    ///
    /// Returns [`StreamStatus::Closed`] once all writers are gone and
    /// everything mergeable is drained; `out` may still have received
    /// final events on that call.
    pub fn poll(
        &mut self,
        timeout: std::time::Duration,
        out: &mut Vec<StampedEvent>,
    ) -> StreamStatus {
        use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
        if !self.disconnected {
            // One bounded wait, then drain whatever else is ready.
            match self.rx.recv_timeout(timeout) {
                Ok(batch) => self.absorb(batch),
                Err(RecvTimeoutError::Disconnected) => self.disconnected = true,
                Err(RecvTimeoutError::Timeout) => {}
            }
            loop {
                match self.rx.try_recv() {
                    Ok(batch) => self.absorb(batch),
                    Err(TryRecvError::Disconnected) => {
                        self.disconnected = true;
                        break;
                    }
                    Err(TryRecvError::Empty) => break,
                }
            }
        }
        self.drain_prefix(out);
        // Once disconnected every batch has arrived, so whatever the
        // drain left behind sits past a gap that can never fill.
        if self.disconnected {
            StreamStatus::Closed
        } else {
            StreamStatus::Open
        }
    }

    /// Blocks until the stream closes and returns the merged history
    /// (convenience for tests and offline replay).
    pub fn drain_all(mut self) -> Vec<StampedEvent> {
        let mut out = Vec::new();
        while self.poll(std::time::Duration::from_millis(50), &mut out) == StreamStatus::Open {}
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{ConcurrentNOrec, ConcurrentTl2};
    use std::time::Duration;
    use tm_core::History;
    use tm_safety::{check_opacity_auto, CheckOutcome, IncrementalChecker, Mode};

    const X: TVarId = TVarId(0);

    fn merged_history(events: &[StampedEvent]) -> History {
        let mut h = History::new();
        for stamped in events {
            h.push(stamped.event);
        }
        h
    }

    #[test]
    fn stamps_are_dense_and_merge_in_order() {
        let (recorder, stream) = ShardedRecorder::new(ConcurrentTl2::new(2));
        let mut shard = recorder.shard(ProcessId(0));
        for i in 0..10u64 {
            atomically_sharded(&mut shard, |tx| {
                let v = tx.read(X)?;
                tx.write(X, v + i)
            });
        }
        drop(shard);
        recorder.close();
        let events = stream.drain_all();
        assert!(!events.is_empty());
        for (i, stamped) in events.iter().enumerate() {
            assert_eq!(stamped.seq, i as u64, "merged stream must be dense");
        }
        let h = merged_history(&events);
        assert!(h.is_well_formed());
        assert!(h.is_complete());
        assert_eq!(check_opacity_auto(&h), CheckOutcome::Holds);
    }

    #[test]
    fn multi_threaded_merge_is_a_faithful_opaque_history() {
        let (recorder, stream) = ShardedRecorder::new(ConcurrentNOrec::new(4));
        std::thread::scope(|s| {
            for t in 0..3 {
                let mut shard = recorder.shard(ProcessId(t));
                s.spawn(move || {
                    for i in 0..40u64 {
                        atomically_sharded(&mut shard, |tx| {
                            let a = tx.read(TVarId((i % 4) as usize))?;
                            tx.write(TVarId(((i + 1) % 4) as usize), a + 1)
                        });
                    }
                });
            }
        });
        recorder.close();
        let events = stream.drain_all();
        for (i, stamped) in events.iter().enumerate() {
            assert_eq!(stamped.seq, i as u64);
        }
        let h = merged_history(&events);
        assert!(h.is_well_formed());
        assert_ne!(
            check_opacity_auto(&h),
            CheckOutcome::Violated,
            "real NOrec interleavings must be opaque"
        );
    }

    #[test]
    fn abandon_completes_the_recorded_attempt() {
        let (recorder, stream) = ShardedRecorder::new(ConcurrentTl2::new(1));
        let mut shard = recorder.shard(ProcessId(0));
        let mut tx = shard.begin();
        let _ = tx.read(X);
        tx.abandon();
        drop(shard);
        recorder.close();
        let h = merged_history(&stream.drain_all());
        assert!(h.is_complete());
        assert_eq!(h.abort_count(ProcessId(0)), 1);
    }

    #[test]
    fn ops_and_outcomes_reach_the_counters() {
        use tm_telemetry::Telemetry;
        let telemetry = Telemetry::counters();
        let (recorder, stream) =
            ShardedRecorder::with_telemetry(ConcurrentTl2::new(1), telemetry.clone());
        let mut shard = recorder.shard(ProcessId(0));
        for _ in 0..5 {
            atomically_sharded(&mut shard, |tx| {
                let v = tx.read(X)?;
                tx.write(X, v + 1)
            });
        }
        drop(shard);
        recorder.close();
        let events = stream.drain_all();
        let snapshot = telemetry.snapshot();
        // 5 transactions × (read + write + commit) = 15 operations.
        assert_eq!(snapshot.get(Counter::OpsRecorded), 15);
        assert_eq!(snapshot.get(Counter::TxCommits), 5);
        assert_eq!(snapshot.get(Counter::TxAborts), 0);
        assert_eq!(events.len() as u64, recorder.events_stamped());
    }

    #[test]
    fn eight_thread_merge_is_dense_and_opaque() {
        let (recorder, stream) = ShardedRecorder::new(ConcurrentTl2::new(4));
        std::thread::scope(|s| {
            for t in 0..8 {
                let mut shard = recorder.shard(ProcessId(t));
                s.spawn(move || {
                    for i in 0..300usize {
                        atomically_sharded(&mut shard, |tx| {
                            let a = tx.read(TVarId((i + t) % 4))?;
                            tx.write(TVarId((i + 2 * t + 1) % 4), a + 1)
                        });
                    }
                });
            }
        });
        recorder.close();
        let events = stream.drain_all();
        assert_eq!(events.len() as u64, recorder.events_stamped());
        for (i, stamped) in events.iter().enumerate() {
            assert_eq!(stamped.seq, i as u64, "merged stream must be dense");
        }
        let h = merged_history(&events);
        assert!(h.is_well_formed());
        assert!(h.is_complete());
        assert_eq!(h.events().iter().filter(|e| e.is_commit()).count(), 8 * 300);
        let verdict = IncrementalChecker::new(Mode::Opacity).push_all(h.events().iter().copied());
        assert!(
            verdict.is_ok(),
            "real TL2 interleavings must certify: {verdict:?}"
        );
    }

    #[test]
    fn flushed_batches_are_exact_size() {
        let (recorder, stream) = ShardedRecorder::new(ConcurrentTl2::new(2));
        let mut shard = recorder.shard(ProcessId(0));
        atomically_sharded(&mut shard, |tx| {
            let v = tx.read(X)?;
            tx.write(X, v + 1)
        });
        let (index, batch) = stream.rx.try_recv().expect("one batch per attempt");
        assert_eq!(index, 0);
        // read · value · write · ok · tryC · C
        assert_eq!(batch.len(), 6);
        assert_eq!(
            batch.capacity(),
            batch.len(),
            "a queued batch holds no spare slots"
        );
        assert!(shard.batch.is_empty());
        assert!(
            shard.batch.capacity() >= 64,
            "the shard keeps its append buffer"
        );
    }

    /// splitmix64, for the random delivery schedules below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(rng: &mut u64, n: usize) -> usize {
        (splitmix(rng) % n as u64) as usize
    }

    /// Differential test of the per-shard merge against sort-by-seq.
    /// Each case splits dense stamps `0..n` across 1–8 shards (in
    /// increasing order within a shard, as one writer thread draws
    /// them), cuts every shard into random batches, and delivers the
    /// batches in a random interleaving that keeps each shard's FIFO
    /// order. Odd cases hold back the shard owning stamp 0 until every
    /// other shard is done. The stream is polled at random points:
    /// each poll must have handed out exactly the delivered contiguous
    /// prefix in stamp order, and report `Closed` only once every
    /// shard is done and the last event is out.
    #[test]
    fn per_shard_merge_equals_sort_by_seq() {
        for case in 0..400u64 {
            let mut rng = case;
            let shards = 1 + below(&mut rng, 8);
            let n = below(&mut rng, 200) as u64;
            let mut per_shard = vec![Vec::new(); shards];
            for seq in 0..n {
                let s = below(&mut rng, shards);
                let event = Event::read(ProcessId(s), TVarId(seq as usize % 3));
                per_shard[s].push(StampedEvent { seq, event });
            }
            let mut expected: Vec<StampedEvent> = per_shard.concat();
            expected.sort_by_key(|stamped| stamped.seq);
            let mut batches: Vec<VecDeque<Vec<StampedEvent>>> = per_shard
                .iter()
                .map(|events| {
                    let mut queue = VecDeque::new();
                    let mut rest = &events[..];
                    while !rest.is_empty() {
                        let k = (1 + below(&mut rng, 6)).min(rest.len());
                        queue.push_back(rest[..k].to_vec());
                        rest = &rest[k..];
                    }
                    queue
                })
                .collect();
            let straggler = (case % 2 == 1 && n > 0).then(|| owner_of(&per_shard, 0));

            let (tx, rx) = channel();
            let mut stream = EventStream::new(rx, Arc::new(AtomicU64::new(n)));
            let mut senders: Vec<Option<Sender<Batch>>> = batches
                .iter()
                .map(|queue| (!queue.is_empty()).then(|| tx.clone()))
                .collect();
            drop(tx);
            let mut delivered = vec![false; n as usize];
            let mut out = Vec::new();
            let mut check = |stream: &mut EventStream, delivered: &[bool], done: bool| {
                let status = stream.poll(Duration::ZERO, &mut out);
                let prefix = delivered.iter().take_while(|d| **d).count();
                assert_eq!(out, expected[..prefix], "case {case}: merged prefix");
                assert_eq!(stream.merged_up_to(), prefix as u64);
                assert_eq!(status == StreamStatus::Closed, done, "case {case}: status");
            };
            loop {
                let live: Vec<usize> = (0..shards).filter(|&s| senders[s].is_some()).collect();
                if live.is_empty() {
                    break;
                }
                let candidates: Vec<usize> = live
                    .iter()
                    .copied()
                    .filter(|&s| Some(s) != straggler || live.len() == 1)
                    .collect();
                let s = candidates[below(&mut rng, candidates.len())];
                let batch = batches[s].pop_front().expect("live shard has batches");
                for stamped in &batch {
                    delivered[stamped.seq as usize] = true;
                }
                senders[s]
                    .as_ref()
                    .expect("live")
                    .send((s, batch))
                    .expect("stream alive");
                if batches[s].is_empty() {
                    senders[s] = None;
                }
                if below(&mut rng, 3) == 0 {
                    let done = senders.iter().all(Option::is_none);
                    check(&mut stream, &delivered, done);
                }
            }
            check(&mut stream, &delivered, true);
            assert_eq!(stream.undelivered_stamps(), 0);
        }
    }

    /// The shard that recorded stamp `seq`.
    fn owner_of(per_shard: &[Vec<StampedEvent>], seq: u64) -> usize {
        per_shard
            .iter()
            .position(|events| events.iter().any(|e| e.seq == seq))
            .expect("stamp is owned")
    }

    fn stamped_reads(seqs: std::ops::Range<u64>) -> Vec<StampedEvent> {
        seqs.map(|seq| StampedEvent {
            seq,
            event: Event::read(ProcessId(0), X),
        })
        .collect()
    }

    #[test]
    fn a_lost_stamp_closes_the_stream_at_the_gap() {
        // Stamps 0..6 drawn; stamp 2's writer died before shipping it.
        let (tx, rx) = channel();
        let mut stream = EventStream::new(rx, Arc::new(AtomicU64::new(6)));
        tx.send((0, stamped_reads(0..2))).unwrap();
        tx.send((1, stamped_reads(3..6))).unwrap();
        let mut out = Vec::new();
        assert_eq!(stream.poll(Duration::ZERO, &mut out), StreamStatus::Open);
        assert_eq!(
            stream.undelivered_stamps(),
            0,
            "open streams owe nothing yet"
        );
        drop(tx);
        assert_eq!(stream.poll(Duration::ZERO, &mut out), StreamStatus::Closed);
        assert_eq!(out, stamped_reads(0..2));
        assert_eq!(stream.merged_up_to(), 2);
        assert_eq!(stream.undelivered_stamps(), 4);
    }

    #[test]
    fn a_lost_final_stamp_is_counted() {
        let (tx, rx) = channel();
        let stream = EventStream::new(rx, Arc::new(AtomicU64::new(4)));
        tx.send((0, stamped_reads(0..3))).unwrap();
        drop(tx);
        let mut stream = stream;
        let mut out = Vec::new();
        assert_eq!(stream.poll(Duration::ZERO, &mut out), StreamStatus::Closed);
        assert_eq!(out.len(), 3);
        assert_eq!(stream.undelivered_stamps(), 1);
    }
}
