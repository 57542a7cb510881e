//! Concurrent (thread-driven) TM implementations on real atomics.
//!
//! Three algorithms spanning the conflict-granularity spectrum the paper's
//! footnote 1 alludes to (resilient TMs scale, coarse locks do not):
//!
//! * [`ConcurrentGlobalLock`] — one mutex, never aborts, never scales;
//! * [`ConcurrentTl2`] — per-t-variable versioned write-locks and a global
//!   version clock;
//! * [`ConcurrentNOrec`] — a single global sequence lock with value-based
//!   validation.
//!
//! All three guarantee that committed transactions form a serial order
//! consistent with real time. [`ConcurrentBuggy`] deliberately does not
//! (one seeded lost update) — it exists so the checking pipeline below
//! has a defect it must provably catch.
//!
//! # Recording: from thread interleavings to streaming certification
//!
//! [`ShardedRecorder`] turns real thread interleavings into formal
//! histories the `tm-safety` checkers can verify — the bridge between
//! the atomics-based code and the paper's model. Per-thread shards
//! append to private buffers; a global `AtomicU64` stamps every event
//! with a dense sequence number; exact-size batches travel to the
//! consumer once per transaction attempt over a lock-free channel, and
//! the consumer merges them shard by shard — stamps increase within a
//! shard, so the next stamp, once it has arrived, is at the head of its
//! shard's FIFO.
//!
//! On top of the sharded stream, `tm_sim::online` runs the streaming
//! certification pipeline:
//!
//! ```text
//!  worker threads                    consumer side (tm_sim::online)
//!  ──────────────                    ──────────────────────────────
//!  shard 0 ─ events ─┐
//!  shard 1 ─ events ─┼─► EventStream ─► sealer ──► chunker ─► certifiers
//!  shard 2 ─ events ─┘   (per-shard     (epoch =    (cut at     (one thread per
//!        │                FIFO merge     merged      quiescent    rayon thread, started
//!   AtomicU64 seq         by seq stamp;  prefix      points +     once; each takes whole
//!   fetch_add per         contiguous     slices)     conflict     epochs: one
//!   event                 prefix =                   components)  IncrementalChecker per
//!                         complete                        │       chunk, seeded with its
//!                         history)                        │       frontier state)
//!                                                         ▼
//!                                              deterministic verdict fold
//!                                              (first violation by seq)
//! ```
//!
//! **Why the merge is sound.** Each event's stamp is taken inside its
//! invocation/response window (invocation stamped before the inner
//! operation starts, response after it returns), and the stamp's atomic
//! RMW is a single linearization point, so stamp order is a legitimate
//! linearization of real time: if operation A completed before B began,
//! every stamp of A precedes every stamp of B. Sorting by stamp
//! therefore yields a faithful history — its real-time order is a
//! sub-order of physical real time, so it is at worst *stricter* than
//! physical time was, which only narrows what the opacity check may
//! reorder.
//!
//! One event needs a sharper rule: the **commit response** is stamped
//! at the TM's *serialization point* (via [`Transaction::commit_at`]),
//! not after `commit` returns. The downstream certifier serializes
//! committed transactions in commit-*event* order, so that order must
//! equal the TM's serialization order; a post-return stamp races in
//! the window between the TM's internal unlock and the stamp, and a
//! conflicting commit that squeezes into that window records an
//! inverted commit order — a false violation the checker cannot tell
//! from a real one. The same inversion hides one layer deeper when a
//! read set is protected by versions rather than locks: validating and
//! *then* stamping leaves a window in which a writer of a read-set
//! variable can commit and stamp first. TL2 and NOrec therefore stamp
//! **optimistically, before the final read validation** — version
//! monotonicity (TL2) / value equality under a stable sequence (NOrec)
//! prove retroactively that a passing validation extends back to the
//! stamp, and a commit that fails after stamping charges its stamp to
//! the abort response, which constrains nothing.
//!
//! **Why the cuts are sound.** The chunker slices the merged history
//! twice, and neither slice can mask a violation:
//!
//! 1. *Temporal cuts at quiescent points* — a segment boundary is
//!    placed only where no transaction is live, so every attempt falls
//!    entirely inside one segment. The next segment's checker is seeded
//!    with the committed state at the cut (its *frontier*) occupying
//!    slot 0 of its state sequence. A transaction that opens after the
//!    cut also opened after every pre-cut commit in real time, so the
//!    global checker would equally refuse to serialize it before them:
//!    slot 0 = frontier loses no candidate and admits no new one.
//! 2. *Conflict-component splits within a segment* — transactions and
//!    t-variables are grouped by union-find (a transaction joins every
//!    variable it reads or writes, mirroring dbcop's communication
//!    graph), so the segment's variables *partition* across components.
//!    A read of `x` is then certified against exactly the commits that
//!    write `x` — commits in other components touch disjoint variables
//!    and cannot change any value the component observes. Slot
//!    positions renumber (component-local commit counts instead of
//!    global ones), but the gaps between a component's commits
//!    correspond one-to-one to the global gaps between them, so a
//!    serialization exists component-locally iff it exists globally.
//!
//! The differential and decomposition property suites
//! (`tests/online_differential.rs`) pin both arguments executably:
//! chunked verdicts must equal whole-history verdicts on recorded
//! multi-threaded runs and on adversarial random histories alike.

pub mod api;
pub mod buggy;
pub mod global_lock;
pub mod norec;
pub mod sharded;
pub mod tl2;

pub use api::{atomically, atomically_telemetered, ConcurrentTm, Transaction, TxAbort};
pub use buggy::ConcurrentBuggy;
pub use global_lock::ConcurrentGlobalLock;
pub use norec::ConcurrentNOrec;
pub use sharded::{
    atomically_sharded, EventStream, ShardWriter, ShardedRecorder, ShardedTx, StampedEvent,
    StreamStatus,
};
pub use tl2::ConcurrentTl2;
