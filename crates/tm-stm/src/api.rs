//! The stepped TM interface.
//!
//! A *stepped* TM is a deterministic state machine driven by an explicit
//! scheduler: at every step the scheduler picks a process, the process
//! issues an invocation, and the TM either responds immediately or — for
//! blocking TMs such as the global-lock TM — withholds the response until
//! a later poll succeeds. Interleaving each invocation/response pair
//! atomically is exactly the paper's asynchronous model: the scheduler
//! (or the adversary of Theorem 1) controls the order of process steps,
//! including never scheduling a process again (a crash) or never letting
//! it invoke `tryC` (a parasitic process).

use tm_core::{Invocation, ProcessId, Response, TVarId};
use tm_telemetry::{Counter, Telemetry, Timer};

/// The shared-state footprint of one scheduler step, as declared by a
/// TM's conflict oracle ([`SteppedTm::step_footprint`]) *before* the step
/// executes.
///
/// Two steps by different processes whose footprints do not
/// [`StepFootprint::conflicts`] are **independent**: executing them in
/// either order from any state where both are the processes' next steps
/// yields the same TM state (up to [`SteppedTm::state_digest`]
/// equivalence), the same responses, and — because the begin/end flags
/// pin transaction real-time order — the same safety verdict for every
/// extension. This is the independence relation behind the model
/// checker's optimal dynamic partial-order reduction.
///
/// # Fields and the over-approximation contract
///
/// A footprint must cover every piece of *shared* state (state readable
/// or writable by more than one process) the step may touch, evaluated
/// in the current TM state and stable under reordering of independent
/// steps (a step's shared accesses may depend only on state that
/// conflicting steps mutate — e.g. a transaction's own read/write sets,
/// the variable's lock word — never on state an independent step could
/// change):
///
/// * `var_reads`/`var_writes` — bitmasks of t-variables whose per-variable
///   shared state (committed value, version, lock/ownership word) the
///   step may read resp. mutate. Incremental validation that re-reads the
///   whole read set must include the read set's variables; an abort that
///   rolls back or unlocks the write set must include the write set's
///   variables in `var_writes`.
/// * `global_read`/`global_write` — the step reads resp. mutates global
///   shared state (version clocks, sequence numbers, age counters, the
///   global lock, another process's transaction status). *Commutative*
///   updates to global state (e.g. inserting into a set that only
///   globally-writing steps observe) may be declared as `global_read`:
///   two such updates commute with each other, which is exactly what the
///   conflict relation then encodes.
/// * `ends` — the step may complete a transaction *now* (respond
///   `Committed` or `Aborted`). Deterministic TMs can compute this
///   exactly from the current state.
/// * `begins` — the step is the first event of a new transaction.
///   **Set by the driver** (which owns the client cursor), not by the TM.
///
/// `ends`/`begins` exist because swapping an adjacent transaction-ending
/// step with a transaction-beginning step of another process changes the
/// transactions' real-time order — and with it, potentially, the opacity
/// verdict — even when the TM states commute. Such pairs are therefore
/// declared conflicting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepFootprint {
    /// T-variables whose shared per-variable state the step may read.
    pub var_reads: u64,
    /// T-variables whose shared per-variable state the step may mutate.
    pub var_writes: u64,
    /// Reads global shared state (or performs a commutative update to it).
    pub global_read: bool,
    /// Mutates global shared state non-commutatively.
    pub global_write: bool,
    /// May respond `Committed`/`Aborted` now (driver-visible tx end).
    pub ends: bool,
    /// First event of a new transaction (set by the driver, not the TM).
    pub begins: bool,
}

impl StepFootprint {
    /// The empty footprint: touches no shared state.
    pub fn local() -> Self {
        StepFootprint::default()
    }

    /// The fully conservative footprint: conflicts with every step.
    /// This is the [`SteppedTm::step_footprint`] default — sound for any
    /// TM, and it degrades partial-order reduction to full exploration.
    pub fn global() -> Self {
        StepFootprint {
            var_reads: u64::MAX,
            var_writes: u64::MAX,
            global_read: true,
            global_write: true,
            ends: true,
            begins: false,
        }
    }

    /// Marks `x`'s shared state as read. Variables beyond the 64-bit mask
    /// fall back to the global channel (conservative).
    pub fn add_read(&mut self, x: TVarId) {
        self.add_read_index(x.index());
    }

    /// Marks `x`'s shared state as mutated (same 64-variable fallback).
    pub fn add_write(&mut self, x: TVarId) {
        self.add_write_index(x.index());
    }

    /// [`StepFootprint::add_read`] by raw variable index.
    pub fn add_read_index(&mut self, j: usize) {
        if j < 64 {
            self.var_reads |= 1 << j;
        } else {
            self.global_read = true;
            self.global_write = true;
        }
    }

    /// [`StepFootprint::add_write`] by raw variable index.
    pub fn add_write_index(&mut self, j: usize) {
        if j < 64 {
            self.var_writes |= 1 << j;
        } else {
            self.global_read = true;
            self.global_write = true;
        }
    }

    /// Whether two steps **by different processes** may not commute: the
    /// symmetric dependence relation of the partial-order reduction.
    pub fn conflicts(&self, other: &StepFootprint) -> bool {
        self.var_writes & (other.var_reads | other.var_writes) != 0
            || other.var_writes & self.var_reads != 0
            || (self.global_write && (other.global_read || other.global_write))
            || (other.global_write && self.global_read)
            || (self.ends && other.begins)
            || (other.ends && self.begins)
    }

    /// Unions `other` into `self` (the footprint of "any of these steps").
    pub fn merge(&mut self, other: &StepFootprint) {
        self.var_reads |= other.var_reads;
        self.var_writes |= other.var_writes;
        self.global_read |= other.global_read;
        self.global_write |= other.global_write;
        self.ends |= other.ends;
        self.begins |= other.begins;
    }
}

/// Outcome of an invocation against a [`SteppedTm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The TM responded immediately.
    Response(Response),
    /// The TM withheld the response (a blocking TM); poll later.
    Pending,
}

impl Outcome {
    /// The response, if one was produced.
    pub fn response(self) -> Option<Response> {
        match self {
            Outcome::Response(r) => Some(r),
            Outcome::Pending => None,
        }
    }

    /// Whether the invocation is still awaiting its response.
    pub fn is_pending(self) -> bool {
        matches!(self, Outcome::Pending)
    }
}

/// A TM implementation driven one step at a time by a scheduler.
///
/// # Contract
///
/// * Processes are sequential: the driver must not call
///   [`SteppedTm::invoke`] for a process whose previous invocation is
///   still pending (implementations may panic).
/// * Every response answers the pending invocation per the alphabet `Σ_k`
///   (reads get values or aborts, writes get `ok` or aborts, `tryC` gets
///   commit or abort).
/// * Implementations are deterministic: the same invocation sequence
///   produces the same responses.
pub trait SteppedTm {
    /// The algorithm's name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Number of processes this instance is configured for.
    fn process_count(&self) -> usize;

    /// Number of t-variables this instance is configured for.
    fn tvar_count(&self) -> usize;

    /// Process `process` invokes `invocation`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `process` already has a pending
    /// invocation or the ids are out of range (driver bugs).
    fn invoke(&mut self, process: ProcessId, invocation: Invocation) -> Outcome;

    /// Attempts to deliver the withheld response of `process`. Returns
    /// `None` while the TM still blocks (or if nothing is pending).
    fn poll(&mut self, process: ProcessId) -> Option<Response>;

    /// Whether `process` has an invocation awaiting its response.
    fn has_pending(&self, process: ProcessId) -> bool;

    /// Forks an independent copy of the TM in its current state.
    ///
    /// Branching the state machine is what lets the model checker share
    /// schedule prefixes: a tree node extends its parent by *one* step
    /// instead of replaying the whole schedule against a fresh instance.
    /// The fork must be deterministic and observationally identical to
    /// the original — every stepped TM here is a plain value, so this is
    /// a structural clone behind a boxed trait object.
    fn fork(&self) -> BoxedTm;

    /// The concrete TM as [`std::any::Any`], enabling the state-reuse
    /// downcast behind [`SteppedTm::refork_from`]. Wrappers may return
    /// `None` (the default), falling back to allocating forks.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Re-initializes `self` as a fork of `source`, reusing existing
    /// buffers where possible, and reports success. `false` (the
    /// default) means the types or configurations differ and the caller
    /// must fall back to [`SteppedTm::fork`].
    ///
    /// The model checker recycles TM boxes through this hook, making the
    /// per-tree-edge fork allocation-free for TMs that implement it.
    fn refork_from(&mut self, source: &dyn SteppedTm) -> bool {
        let _ = source;
        false
    }

    /// A canonical 64-bit digest of the TM's current state, or `None` if
    /// the algorithm has not opted into fingerprinting.
    ///
    /// # Canonicalization contract
    ///
    /// Digests feed the liveness checker's state-graph interner: two
    /// instances (created by the same factory — digests are never compared
    /// across algorithms or configurations) whose digests are equal are
    /// treated as **observationally equivalent**, i.e. every future
    /// invocation sequence produces the same responses and equal digests
    /// again. An implementation must therefore:
    ///
    /// * **cover** every mutable component that can influence any future
    ///   response or poll outcome (pending invocations, per-transaction
    ///   read/write sets, locks, doom marks, committed values, …) — an
    ///   omission makes the interner merge distinct states;
    /// * **canonicalize** components whose concrete representation can
    ///   differ between behaviourally equivalent reachable states. The
    ///   recurring case is unbounded monotonic counters compared only
    ///   relatively: a TL2-style version clock must be hashed as the
    ///   *rank pattern* of `{clock, slot versions, transaction rvs}`
    ///   rather than as absolute values (behaviour is invariant under
    ///   order-preserving remapping, and absolute values would keep
    ///   states from ever recurring — defeating the lasso search); a
    ///   NOrec-style sequence number is compared only
    ///   for equality and is hashed as per-transaction staleness bits.
    ///   Extra precision is always *sound* (it only splits equivalence
    ///   classes, never merges them) but costs collapsing power.
    ///
    /// Collisions of the 64-bit digest are possible in principle; the
    /// liveness checker's reference walk re-executes every re-walked
    /// edge and compares it with the recorded one to keep that risk
    /// visible.
    fn state_digest(&self) -> Option<u64> {
        None
    }

    /// Whether two *operation* steps (a read or write invocation
    /// answered immediately, no `tryC`) by **different processes** on
    /// **different t-variables** always commute: executing them in
    /// either order yields the same TM state and the same responses.
    ///
    /// No checker reads this: the model checker's reduction uses the
    /// finer conflict oracle [`SteppedTm::step_footprint`]. The default
    /// `false` is always sound; the method stays declared only because
    /// `tmbench`'s timing wrapper still forwards it.
    fn disjoint_var_ops_commute(&self) -> bool {
        false
    }

    /// The conflict oracle: the shared-state footprint of the step that
    /// would execute `invocation` for `process` **from the current
    /// state** (see [`StepFootprint`] for the contract). The model
    /// checker's partial-order reduction treats two next-steps by
    /// different processes as independent exactly when their footprints
    /// do not [`StepFootprint::conflicts`].
    ///
    /// The default is [`StepFootprint::global`] — sound for every TM,
    /// conflicting with everything, so reduction silently degrades to
    /// full exploration. Catalog TMs refine it from their read/write/lock
    /// footprints; each refinement is an audited per-algorithm
    /// commutativity claim, differential-tested against unreduced
    /// exploration.
    fn step_footprint(&self, process: ProcessId, invocation: Invocation) -> StepFootprint {
        let _ = (process, invocation);
        StepFootprint::global()
    }
}

/// A recycling pool of TM boxes for tree/graph search drivers.
///
/// Every model-checking walk branches the TM once per explored edge. A
/// naive driver allocates a fresh box per branch ([`SteppedTm::fork`]);
/// TMs that implement [`SteppedTm::refork_from`] can instead
/// re-initialize a previously used box in place, making the per-edge
/// branch allocation-free. Both the safety explorer and the liveness
/// checker used to carry private copies of this recycling logic; the
/// pool is the shared form.
///
/// The pool probes refork support once at construction
/// ([`TmPool::for_tm`]): TMs without the fast path keep the pool empty
/// (`recycle == false`), so they pay neither the spare-box storage nor a
/// failed dynamic refork attempt per edge.
#[derive(Default)]
pub struct TmPool {
    spare: Vec<BoxedTm>,
    recycle: bool,
    telemetry: Telemetry,
    forks: u64,
    reforks: u64,
}

impl std::fmt::Debug for TmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmPool")
            .field("spare", &self.spare.len())
            .field("recycle", &self.recycle)
            .finish()
    }
}

impl Drop for TmPool {
    fn drop(&mut self) {
        // Flush the branch tallies once per pool lifetime so the hot
        // fork path pays plain integer increments, never atomics.
        self.flush_counters();
    }
}

impl TmPool {
    /// A pool for TMs of `tm`'s concrete type: probes
    /// [`SteppedTm::refork_from`] once and, when supported, seeds the
    /// pool with the probe box.
    pub fn for_tm(tm: &BoxedTm) -> Self {
        let mut probe = tm.fork();
        let recycle = probe.refork_from(&**tm);
        let mut pool = TmPool::new(recycle);
        if recycle {
            pool.spare.push(probe);
        }
        pool
    }

    /// An empty pool with a pre-decided recycle capability — for
    /// parallel workers whose driver probed once via [`TmPool::for_tm`]
    /// and fans the answer out instead of re-probing per worker.
    pub fn new(recycle: bool) -> Self {
        TmPool {
            spare: Vec::new(),
            recycle,
            telemetry: Telemetry::off(),
            forks: 0,
            reforks: 0,
        }
    }

    /// An empty pool that never recycles (every branch allocates).
    pub fn disabled() -> Self {
        TmPool::default()
    }

    /// Whether the pooled TM type supports allocation-free reforking.
    pub fn recycles(&self) -> bool {
        self.recycle
    }

    /// Flushes the fork/refork tallies to the attached telemetry handle
    /// now rather than at drop — engines that emit a `counter_snapshot`
    /// while the pool is still alive must call this first, or the
    /// snapshot under-reports [`Counter::TmForks`] /
    /// [`Counter::TmReforks`]. Idempotent: the tallies reset to zero.
    pub fn flush_counters(&mut self) {
        self.telemetry
            .add(Counter::TmForks, std::mem::take(&mut self.forks));
        self.telemetry
            .add(Counter::TmReforks, std::mem::take(&mut self.reforks));
    }

    /// Attaches a telemetry handle: the pool tallies forks/reforks
    /// locally and flushes them ([`Counter::TmForks`] /
    /// [`Counter::TmReforks`]) when dropped; with timing enabled each
    /// branch is recorded into the fork/refork histograms.
    #[must_use]
    pub fn instrument(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Branches `parent` one step: re-initializes a recycled box via
    /// [`SteppedTm::refork_from`] when one is available, falling back to
    /// an allocating [`SteppedTm::fork`].
    pub fn fork_child(&mut self, parent: &BoxedTm) -> BoxedTm {
        let started = self.telemetry.timer_start();
        if let Some(mut spare) = self.spare.pop() {
            if spare.refork_from(&**parent) {
                self.reforks += 1;
                self.telemetry.timer_stop(Timer::Refork, started);
                return spare;
            }
            // Refork refused (e.g. a capacity mismatch): fall through to
            // the allocating fork; the stale box is dropped.
        }
        self.forks += 1;
        let child = parent.fork();
        self.telemetry.timer_stop(Timer::Fork, started);
        child
    }

    /// Returns a box to the pool for later reuse. A no-op (the box is
    /// dropped) when the TM type does not support reforking.
    pub fn put_back(&mut self, tm: BoxedTm) {
        if self.recycle {
            self.spare.push(tm);
        }
    }
}

/// Extension helpers for driving a [`SteppedTm`] through whole operations.
pub trait SteppedTmExt: SteppedTm {
    /// Invokes and, if the TM blocks, polls until the response arrives.
    ///
    /// Only meaningful for TMs whose blocking is resolved by *this*
    /// process's progress — for the global-lock TM this spins forever if
    /// another process holds the lock, so drivers that model crashes must
    /// use [`SteppedTm::invoke`]/[`SteppedTm::poll`] directly instead.
    fn invoke_blocking(&mut self, process: ProcessId, invocation: Invocation) -> Response {
        match self.invoke(process, invocation) {
            Outcome::Response(r) => r,
            Outcome::Pending => loop {
                if let Some(r) = self.poll(process) {
                    break r;
                }
            },
        }
    }
}

impl<T: SteppedTm + ?Sized> SteppedTmExt for T {}

/// A boxed stepped TM, the form used by harnesses that iterate over every
/// algorithm. `Send` so a harness can move forked instances across
/// threads.
pub type BoxedTm = Box<dyn SteppedTm + Send>;

impl SteppedTm for BoxedTm {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn process_count(&self) -> usize {
        (**self).process_count()
    }

    fn tvar_count(&self) -> usize {
        (**self).tvar_count()
    }

    fn invoke(&mut self, process: ProcessId, invocation: Invocation) -> Outcome {
        (**self).invoke(process, invocation)
    }

    fn poll(&mut self, process: ProcessId) -> Option<Response> {
        (**self).poll(process)
    }

    fn has_pending(&self, process: ProcessId) -> bool {
        (**self).has_pending(process)
    }

    fn fork(&self) -> BoxedTm {
        (**self).fork()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }

    fn refork_from(&mut self, source: &dyn SteppedTm) -> bool {
        (**self).refork_from(source)
    }

    fn state_digest(&self) -> Option<u64> {
        (**self).state_digest()
    }

    fn step_footprint(&self, process: ProcessId, invocation: Invocation) -> StepFootprint {
        (**self).step_footprint(process, invocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        assert_eq!(
            Outcome::Response(Response::Ok).response(),
            Some(Response::Ok)
        );
        assert_eq!(Outcome::Pending.response(), None);
        assert!(Outcome::Pending.is_pending());
        assert!(!Outcome::Response(Response::Aborted).is_pending());
    }
}
