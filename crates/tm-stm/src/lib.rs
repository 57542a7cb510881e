//! Executable STM implementations for the PODC 2012 liveness study.
//!
//! The paper's subject is the behaviour of *real* TM algorithms under
//! adversarial asynchrony: which of them keep which processes progressing
//! when processes crash or turn parasitic. This crate implements the TM
//! algorithms the paper discusses, in two forms:
//!
//! **Stepped** ([`SteppedTm`]) — deterministic state machines driven by an
//! explicit scheduler, exactly the paper's asynchronous model. These are
//! the inputs to the adversary games (`tm-adversary`) and the model
//! checker (`tm-sim`):
//!
//! | TM | paper reference | liveness character |
//! |----|-----------------|--------------------|
//! | [`GlobalLock`] | §1.1, §3.2.1 | local progress without faults; starves everyone on a crash |
//! | [`FgpTm`] | §6 | opacity + global progress in any fault-prone system |
//! | [`Tl2`] | §3.2.3 \[15\] | deferred updates: solo progress in crash-prone systems |
//! | [`TinyStm`] | §3.2.3 \[17\] | encounter-time locks: solo progress only crash-free |
//! | [`SwissTm`] | §3.2.3 \[16\] | eager W/W + greedy CM: livelock-free, solo progress only crash-free |
//! | [`NOrec`] | baseline | value validation, single global orec |
//! | [`Ostm`] | §6 \[13\] | lock-free, global progress |
//! | [`Dstm`] | §3.2.3 \[14\] | obstruction-free, livelocks under contention |
//!
//! **Concurrent** ([`concurrent`]) — thread-driven forms of the global
//! lock, TL2 and NOrec on real atomics, for online certification.
//!
//! ```
//! use tm_core::{Invocation, ProcessId, Response, TVarId};
//! use tm_stm::{Recorded, SteppedTm, Tl2};
//! use tm_safety::is_opaque;
//!
//! let (p1, x) = (ProcessId(0), TVarId(0));
//! let mut tm = Recorded::new(Tl2::new(2, 1));
//! tm.invoke(p1, Invocation::Read(x));
//! tm.invoke(p1, Invocation::TryCommit);
//! assert!(is_opaque(tm.history()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod catalog;
pub mod concurrent;
pub mod dstm;
pub mod fgp;
mod fingerprint;
pub mod global_lock;
pub mod norec;
pub mod ostm;
pub mod priority;
pub mod recorder;
pub mod swiss;
pub mod tiny;
pub mod tl2;

pub use api::{BoxedTm, Outcome, StepFootprint, SteppedTm, SteppedTmExt, TmPool};
pub use catalog::{full_catalog, literal_fgp, nonblocking_catalog};
pub use dstm::Dstm;
pub use fgp::FgpTm;
pub use global_lock::GlobalLock;
pub use norec::NOrec;
pub use ostm::Ostm;
pub use priority::PriorityFgp;
pub use recorder::Recorded;
pub use swiss::SwissTm;
pub use tiny::TinyStm;
pub use tl2::Tl2;
