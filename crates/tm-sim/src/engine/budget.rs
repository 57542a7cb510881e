//! Exploration budgets: bounded resources with graceful degradation.
//!
//! A long-running checker must never turn a too-large search space into
//! a hang or an OOM. A [`Budget`] caps the resources one run may spend —
//! states expanded, schedules completed, wall-clock time — and a shared
//! [`BudgetMeter`] trips **once** when any cap is hit. Walkers poll the
//! meter at node entry and unwind normally; the run then finishes as a
//! *partial* report carrying an explicit `exhausted` reason instead of a
//! conclusive verdict (the `budget_exhausted` NDJSON event and the
//! report's `exhausted` field).
//!
//! The meter is a bundle of relaxed atomics, so a walker notes through
//! a shared reference; the first cap to trip wins the reason
//! (compare-exchange), and wall-clock checks are amortized to one
//! `Instant::now()` per `WALL_CHECK_MASK`+1 state notes. Exhausted
//! runs are inherently timing-dependent, so the byte-identity
//! determinism contract applies to runs that finish *within* budget —
//! a partial report only promises a sound under-approximation plus the
//! explicit non-conclusive verdict.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// Resource caps for one checker run. `Budget::unlimited()` (the
/// default) disables metering entirely — no atomics are touched on the
/// hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Cap on states *expanded*: tree nodes entered by the safety
    /// explorer, graph nodes whose transitions the liveness checker
    /// steps. Interned frontier nodes do not count.
    pub max_states: Option<u64>,
    /// Cap on completed schedules (safety explorer leaves; unused by the
    /// graph checker).
    pub max_schedules: Option<u64>,
    /// Wall-clock cap in milliseconds.
    pub wall_ms: Option<u64>,
}

impl Budget {
    /// No caps: the search runs to completion.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps states expanded.
    pub fn with_max_states(mut self, max: u64) -> Self {
        self.max_states = Some(max);
        self
    }

    /// Caps completed schedules.
    pub fn with_max_schedules(mut self, max: u64) -> Self {
        self.max_schedules = Some(max);
        self
    }

    /// Caps wall-clock time.
    pub fn with_wall_ms(mut self, ms: u64) -> Self {
        self.wall_ms = Some(ms);
        self
    }

    /// Whether any cap is set.
    pub fn is_limited(&self) -> bool {
        self.max_states.is_some() || self.max_schedules.is_some() || self.wall_ms.is_some()
    }
}

/// Which cap tripped first (stored as an atomic code; 0 = none).
const TRIP_NONE: u8 = 0;
const TRIP_STATES: u8 = 1;
const TRIP_SCHEDULES: u8 = 2;
const TRIP_WALL: u8 = 3;
const TRIP_PANIC: u8 = 4;

/// Amortization mask for wall-clock checks: one `Instant::now()` per
/// `WALL_CHECK_MASK + 1` state notes.
const WALL_CHECK_MASK: u64 = 0x3f;

/// The lock-free run meter of a [`Budget`]. One per run; poll
/// [`BudgetMeter::within`] at node entry.
#[derive(Debug)]
pub struct BudgetMeter {
    limits: Budget,
    start: Instant,
    states: AtomicU64,
    schedules: AtomicU64,
    tripped: AtomicU8,
}

impl BudgetMeter {
    /// A fresh meter; the wall clock starts now.
    pub fn new(limits: Budget) -> Self {
        BudgetMeter {
            limits,
            start: Instant::now(),
            states: AtomicU64::new(0),
            schedules: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
        }
    }

    fn trip(&self, code: u8) {
        // First cap to trip wins the reason.
        let _ =
            self.tripped
                .compare_exchange(TRIP_NONE, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Notes one expanded state and reports whether the run is still
    /// within budget. Also performs the amortized wall-clock check.
    pub fn note_state(&self) -> bool {
        if !self.limits.is_limited() {
            return true;
        }
        let n = self.states.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.limits.max_states {
            if n > max {
                self.trip(TRIP_STATES);
            }
        }
        if let Some(wall) = self.limits.wall_ms {
            if n & WALL_CHECK_MASK == 0 && self.start.elapsed().as_millis() as u64 >= wall {
                self.trip(TRIP_WALL);
            }
        }
        self.within()
    }

    /// Notes one completed schedule and reports whether the run is
    /// still within budget.
    pub fn note_schedule(&self) -> bool {
        if !self.limits.is_limited() {
            return true;
        }
        let n = self.schedules.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.limits.max_schedules {
            if n > max {
                self.trip(TRIP_SCHEDULES);
            }
        }
        self.within()
    }

    /// Whether no cap has tripped yet.
    pub fn within(&self) -> bool {
        self.tripped.load(Ordering::Relaxed) == TRIP_NONE
    }

    /// Marks the run exhausted for a reason outside the metered caps: a
    /// TM step that panicked inside either checker's walk, reported as
    /// "TM step panicked". Does not override an earlier trip.
    pub fn trip_external(&self) {
        self.trip(TRIP_PANIC);
    }

    /// The human-readable exhaustion reason, if any cap tripped.
    pub fn exhausted(&self) -> Option<&'static str> {
        match self.tripped.load(Ordering::Relaxed) {
            TRIP_NONE => None,
            TRIP_STATES => Some("state budget exhausted"),
            TRIP_SCHEDULES => Some("schedule budget exhausted"),
            TRIP_WALL => Some("wall-clock budget exhausted"),
            _ => Some("TM step panicked"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let meter = BudgetMeter::new(Budget::unlimited());
        for _ in 0..10_000 {
            assert!(meter.note_state());
            assert!(meter.note_schedule());
        }
        assert_eq!(meter.exhausted(), None);
    }

    #[test]
    fn state_cap_trips_once_and_stays_tripped() {
        let meter = BudgetMeter::new(Budget::unlimited().with_max_states(3));
        assert!(meter.note_state());
        assert!(meter.note_state());
        assert!(meter.note_state());
        assert!(!meter.note_state());
        assert!(!meter.within());
        assert_eq!(meter.exhausted(), Some("state budget exhausted"));
        // A later schedule cap cannot steal the reason.
        let capped = BudgetMeter::new(Budget::unlimited().with_max_states(1).with_max_schedules(1));
        assert!(capped.note_state());
        assert!(!capped.note_state());
        assert!(!capped.note_schedule());
        assert_eq!(capped.exhausted(), Some("state budget exhausted"));
    }

    #[test]
    fn schedule_cap_trips() {
        let meter = BudgetMeter::new(Budget::unlimited().with_max_schedules(2));
        assert!(meter.note_schedule());
        assert!(meter.note_schedule());
        assert!(!meter.note_schedule());
        assert_eq!(meter.exhausted(), Some("schedule budget exhausted"));
    }

    #[test]
    fn zero_wall_budget_trips_at_the_first_amortized_check() {
        let meter = BudgetMeter::new(Budget::unlimited().with_wall_ms(0));
        // The wall check fires every WALL_CHECK_MASK+1 notes.
        let mut tripped = false;
        for _ in 0..=WALL_CHECK_MASK + 1 {
            tripped |= !meter.note_state();
        }
        assert!(tripped);
        assert_eq!(meter.exhausted(), Some("wall-clock budget exhausted"));
    }

    #[test]
    fn external_trip_reports_a_panic() {
        let meter = BudgetMeter::new(Budget::unlimited().with_max_states(100));
        meter.trip_external();
        assert!(!meter.within());
        assert_eq!(meter.exhausted(), Some("TM step panicked"));
    }
}
