//! `TimedTm`: the stepped-TM layer, timed from outside.
//!
//! The checkers reach a TM only through the `SteppedTm` trait, so
//! wrapping each catalogue box splits the checkers' wall time into the
//! TM's own work and everything else without touching the program. The
//! wrapper times four call families — step (`invoke`/`poll`), branch
//! (`fork`/`refork_from`), digest (`state_digest`) and footprint
//! (`step_footprint`) — into a shared [`LayerClock`]. Its `as_any`
//! returns the wrapper itself, so the checkers' `TmPool` still probes
//! and uses the allocation-free refork path (the trace-fidelity test
//! pins that the pool reforks through the wrapper).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use tm_core::{Invocation, ProcessId, Response};
use tm_stm::{BoxedTm, Outcome, StepFootprint, SteppedTm};
use tm_telemetry::Telemetry;

use crate::workload::{Raw, RowRun};

/// The timed call families, in [`LayerClock`] slot order.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    Step,
    Branch,
    Digest,
    Footprint,
}

impl Layer {
    pub const ALL: [Layer; 4] = [Layer::Step, Layer::Branch, Layer::Digest, Layer::Footprint];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Step => "step",
            Layer::Branch => "branch",
            Layer::Digest => "digest",
            Layer::Footprint => "footprint",
        }
    }
}

/// Call counts and busy nanoseconds per [`Layer`], shared by every box
/// forked from one wrapped TM. The counters are statistics that publish
/// no other data, hence relaxed.
#[derive(Debug, Default)]
pub struct LayerClock {
    calls: [AtomicU64; 4],
    nanos: [AtomicU64; 4],
}

impl LayerClock {
    #[inline]
    fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls[layer as usize].fetch_add(1, Relaxed);
        self.nanos[layer as usize].fetch_add(nanos, Relaxed);
        out
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize].load(Relaxed)
    }

    pub fn busy_secs(&self, layer: Layer) -> f64 {
        self.nanos[layer as usize].load(Relaxed) as f64 * 1e-9
    }
}

/// The raw layer measurements of one traced checker pass: the traced
/// verdict-table time, each TM call family's calls and busy time, every
/// non-zero engine counter, and the checker phase spans summed by name.
pub fn checker_raw(runs: &[RowRun], clock: &LayerClock, telemetry: &Telemetry) -> Raw {
    let mut raw = Raw::new();
    raw.insert("wall_s".into(), runs.iter().map(|r| r.secs).sum());
    for layer in Layer::ALL {
        let name = layer.name();
        raw.insert(format!("{name}.calls"), clock.calls(layer) as f64);
        raw.insert(format!("{name}.busy_s"), clock.busy_secs(layer));
    }
    for (counter, value) in telemetry.snapshot().nonzero() {
        raw.insert(counter.to_string(), value as f64);
    }
    for (phase, nanos) in telemetry.phases() {
        *raw.entry(format!("{phase}_s")).or_default() += nanos as f64 * 1e-9;
    }
    raw
}

/// A catalogue TM whose calls are timed into a [`LayerClock`].
pub struct TimedTm {
    inner: BoxedTm,
    clock: Arc<LayerClock>,
}

/// Wraps `tm` so that it and every fork of it time into `clock`.
pub fn timed(tm: BoxedTm, clock: &Arc<LayerClock>) -> BoxedTm {
    Box::new(TimedTm {
        inner: tm,
        clock: Arc::clone(clock),
    })
}

impl SteppedTm for TimedTm {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn process_count(&self) -> usize {
        self.inner.process_count()
    }

    fn tvar_count(&self) -> usize {
        self.inner.tvar_count()
    }

    fn invoke(&mut self, process: ProcessId, invocation: Invocation) -> Outcome {
        self.clock
            .time(Layer::Step, || self.inner.invoke(process, invocation))
    }

    fn poll(&mut self, process: ProcessId) -> Option<Response> {
        self.clock.time(Layer::Step, || self.inner.poll(process))
    }

    fn has_pending(&self, process: ProcessId) -> bool {
        self.inner.has_pending(process)
    }

    fn fork(&self) -> BoxedTm {
        let inner = self.clock.time(Layer::Branch, || self.inner.fork());
        timed(inner, &self.clock)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn refork_from(&mut self, source: &dyn SteppedTm) -> bool {
        let Some(source) = source
            .as_any()
            .and_then(|any| any.downcast_ref::<TimedTm>())
        else {
            return false;
        };
        self.clock
            .time(Layer::Branch, || self.inner.refork_from(&*source.inner))
    }

    fn state_digest(&self) -> Option<u64> {
        self.clock.time(Layer::Digest, || self.inner.state_digest())
    }

    fn disjoint_var_ops_commute(&self) -> bool {
        self.inner.disjoint_var_ops_commute()
    }

    fn step_footprint(&self, process: ProcessId, invocation: Invocation) -> StepFootprint {
        self.clock.time(Layer::Footprint, || {
            self.inner.step_footprint(process, invocation)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::TVarId;
    use tm_sim::{
        explore_with, livecheck, ClientScript, ExploreConfig, FaultConfig, LivecheckConfig,
    };
    use tm_stm::{full_catalog, literal_fgp};
    use tm_telemetry::Counter;

    /// Catalogue TM `i`, or for `i == 9` the buggy literal Fgp, so a
    /// violating report is compared too.
    fn make(i: usize) -> BoxedTm {
        if i == 9 {
            literal_fgp(3, 2)
        } else {
            full_catalog(3, 2).swap_remove(i)
        }
    }

    // The traced run must measure the same program: wrapping every box in
    // a TimedTm changes no report of either checker, and the pool still
    // recycles boxes through the wrapper.
    #[test]
    fn timed_tms_leave_every_report_unchanged() {
        let (x, y) = (TVarId(0), TVarId(1));
        let scripts = [
            ClientScript::increment(x),
            ClientScript::transfer(x, y),
            ClientScript::read_both(x, y),
        ];
        for i in 0..10 {
            let name = make(i).name();
            let clock = Arc::new(LayerClock::default());
            let telemetry = Telemetry::counters();

            let explore = ExploreConfig::new(6).sequential().with_optimal_dpor();
            let plain = explore_with(|| make(i), &scripts, &explore);
            let traced = explore_with(
                || timed(make(i), &clock),
                &scripts,
                &explore.clone().with_telemetry(&telemetry),
            );
            assert_eq!(plain, traced, "{name}: explore_with");
            assert_eq!(plain.all_opaque(), i != 9, "{name}: known verdict");

            let live = LivecheckConfig::new(6)
                .with_reduction()
                .with_faults(FaultConfig::with_crashes(1).and_parasitic());
            let plain = livecheck(|| make(i), &scripts, &live);
            let traced = livecheck(
                || timed(make(i), &clock),
                &scripts,
                &live.with_telemetry(&telemetry),
            );
            assert_eq!(
                format!("{plain:?}"),
                format!("{traced:?}"),
                "{name}: livecheck"
            );

            assert!(
                telemetry.snapshot().get(Counter::TmReforks) > 0,
                "{name}: no refork"
            );
            for layer in [Layer::Step, Layer::Branch, Layer::Digest, Layer::Footprint] {
                assert!(
                    clock.calls(layer) > 0,
                    "{name}: no {} call timed",
                    layer.name()
                );
            }
        }
    }
}
