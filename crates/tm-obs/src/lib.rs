//! The consumer side of the tm-telemetry NDJSON v1 stream.
//!
//! `tm-telemetry` defines the wire format both checkers emit (one JSON
//! object per line; see that crate's module docs for the versioned
//! schema); this crate is the other half of the contract — a typed,
//! **forward-compatible** parser plus the aggregations every consumer
//! of the stream needs:
//!
//! * [`event`] — [`event::parse_stream`] turns raw NDJSON into typed
//!   [`event::Envelope`]s, ignoring unknown `ev` tags and unknown
//!   fields on known tags exactly as the v1 contract requires (only a
//!   major-version bump or malformed JSON is an error);
//! * [`summary`] — per-run reports (phase durations, counter tables,
//!   witness counts) and a TM × config verdict matrix for catalogue
//!   sweeps; the counter tables are the stream's `counter_snapshot`
//!   events verbatim, so they cross-check byte-identical against the
//!   engines' in-memory [`tm_telemetry::Snapshot`]s;
//! * [`tail`] — folds a live stream into single-line progress rendered
//!   from heartbeat gauges (steps/sec, frontier size);
//! * [`explain`] — renders `violation` / `lasso_found` events and their
//!   adjacent `trace` events as annotated per-step witness timelines;
//! * [`diff`] — threshold-based drift check between two streams'
//!   counter snapshots (counts only; timing regressions are
//!   `tmbench compare`'s job).
//!
//! The `tm-obs` binary exposes each module as a subcommand (`summary`,
//! `tail`, `explain`, `diff`). New consumers — the ROADMAP's portfolio
//! checking service above all — should build on [`event`] rather than
//! re-parsing lines by hand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod event;
pub mod explain;
pub mod summary;
pub mod tail;

pub use event::{parse_line, parse_stream, Envelope, EventBody, ParseError};
