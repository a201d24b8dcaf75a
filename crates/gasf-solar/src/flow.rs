//! Input-buffer flow control.
//!
//! §4.8: "with a large group size, the overhead can cause congestion at
//! the input buffer of the filter. The system needs to resort to other
//! mechanisms to resolve it. For example, Solar installs flow-control
//! filters in the buffer to alleviate congestion. The system may also
//! employ more aggressive sampling to shed data load, or gracefully
//! degrade the quality requirements of the filters."
//!
//! [`FlowMonitor`] implements that control loop: it compares the measured
//! per-tuple processing cost against the stream's inter-arrival interval
//! (an EWMA of both) and recommends one of the paper's remedies once the
//! utilisation crosses its thresholds. Output-side accounting composes
//! into the sink dataflow via [`Metered`], an
//! [`EmissionSink`](gasf_core::sink::EmissionSink) adapter that tees every
//! emission into the monitor on its way to the real destination.

use gasf_core::engine::Emission;
use gasf_core::sink::EmissionSink;
use gasf_core::time::Micros;
use std::time::Duration;

/// The remedy recommended by the monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowDecision {
    /// Utilisation is comfortably below capacity.
    Ok,
    /// Utilisation is near capacity: shed the given fraction of input
    /// tuples (0, 1] via sampling to stay ahead of the stream.
    Shed {
        /// Fraction of input to drop.
        drop_fraction: f64,
    },
    /// Even shedding will not help (utilisation ≥ 2): degrade quality —
    /// regroup filters or disable group-awareness (§4.8, §6.2).
    DegradeQuality,
}

/// EWMA-based congestion monitor for a filtering stage.
///
/// Besides the utilisation EWMAs it keeps the stage's output-side counts
/// (fed by [`Metered`]) and its shedding counts. Event-time counts — late
/// drops and patches — are not kept here: the source's
/// [`ReorderBuffer`](gasf_core::event_time::ReorderBuffer) owns them.
#[derive(Debug, Clone)]
pub struct FlowMonitor {
    /// Smoothed per-tuple CPU cost (microseconds).
    cpu_ewma_us: f64,
    /// Smoothed inter-arrival interval (microseconds).
    interval_ewma_us: f64,
    last_arrival: Option<Micros>,
    alpha: f64,
    samples: u64,
    /// Emissions that flowed through the output side (via [`Metered`]).
    emitted: u64,
    /// Recipient labels across those emissions (the multicast fan-out).
    emitted_labels: u64,
    /// Credit-gated pushes refused with `PushOutcome::Throttled`.
    throttled: u64,
    /// Tuples dropped by the shedder after the degradation ladder was
    /// exhausted (the last-resort remedy).
    shed_dropped: u64,
    /// Quality-degradation steps applied (ladder rung climbed).
    degrade_ops: u64,
    /// Quality-restoration steps applied (ladder rung descended).
    restore_ops: u64,
}

impl FlowMonitor {
    /// Creates a monitor with smoothing factor `alpha` in `(0, 1]`
    /// (weight of the newest sample; 0.2 is a sensible default).
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        FlowMonitor {
            cpu_ewma_us: 0.0,
            interval_ewma_us: 0.0,
            last_arrival: None,
            alpha,
            samples: 0,
            emitted: 0,
            emitted_labels: 0,
            throttled: 0,
            shed_dropped: 0,
            degrade_ops: 0,
            restore_ops: 0,
        }
    }

    /// Records one processed tuple: its arrival timestamp and the CPU time
    /// the filtering stage spent on it.
    pub fn observe(&mut self, arrival: Micros, cpu: Duration) {
        let cpu_us = cpu.as_secs_f64() * 1e6;
        if self.samples == 0 {
            self.cpu_ewma_us = cpu_us;
        } else {
            self.cpu_ewma_us = self.alpha * cpu_us + (1.0 - self.alpha) * self.cpu_ewma_us;
        }
        if let Some(last) = self.last_arrival {
            let gap = arrival.saturating_sub(last).as_micros() as f64;
            if self.interval_ewma_us == 0.0 {
                self.interval_ewma_us = gap;
            } else {
                self.interval_ewma_us =
                    self.alpha * gap + (1.0 - self.alpha) * self.interval_ewma_us;
            }
        }
        self.last_arrival = Some(arrival);
        self.samples += 1;
    }

    /// Current utilisation: smoothed CPU cost over smoothed inter-arrival
    /// time. `> 1.0` means the filter cannot keep up.
    pub fn utilization(&self) -> f64 {
        if self.interval_ewma_us <= 0.0 {
            0.0
        } else {
            self.cpu_ewma_us / self.interval_ewma_us
        }
    }

    /// Number of observations so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Records one released emission (output-side accounting; fed by
    /// [`Metered`] as emissions stream past).
    pub fn observe_emission(&mut self, emission: &Emission) {
        self.emitted += 1;
        self.emitted_labels += emission.recipients.len() as u64;
    }

    /// Emissions observed on the output side. A late-tuple patch is one
    /// more emission on that side and counts here once.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Recipient labels observed on the output side — `emitted_labels /
    /// emitted` is the mean multicast fan-out.
    pub fn emitted_labels(&self) -> u64 {
        self.emitted_labels
    }

    /// Records one credit-gated push refused with
    /// [`PushOutcome::Throttled`](gasf_core::shed::PushOutcome).
    pub fn observe_throttle(&mut self) {
        self.throttled += 1;
    }

    /// Records one tuple dropped by the shedder (ladder exhausted).
    pub fn observe_shed_drop(&mut self) {
        self.shed_dropped += 1;
    }

    /// Records one quality-degradation step (a subscription climbed one
    /// rung of its declared ladder).
    pub fn observe_degrade(&mut self) {
        self.degrade_ops += 1;
    }

    /// Records one quality-restoration step (a subscription descended one
    /// rung after pressure cleared).
    pub fn observe_restore(&mut self) {
        self.restore_ops += 1;
    }

    /// Throttled pushes counted by [`observe_throttle`](Self::observe_throttle).
    pub fn throttled(&self) -> u64 {
        self.throttled
    }

    /// Tuples dropped by the shedder.
    pub fn shed_dropped(&self) -> u64 {
        self.shed_dropped
    }

    /// Degradation steps applied.
    pub fn degrade_ops(&self) -> u64 {
        self.degrade_ops
    }

    /// Restoration steps applied.
    pub fn restore_ops(&self) -> u64 {
        self.restore_ops
    }

    /// The recommended remedy at the current utilisation.
    ///
    /// * `< 0.8` → [`FlowDecision::Ok`]
    /// * `0.8..2.0` → shed just enough load to get back to 0.8
    /// * `>= 2.0` → [`FlowDecision::DegradeQuality`]
    pub fn decision(&self) -> FlowDecision {
        let u = self.utilization();
        if u < 0.8 {
            FlowDecision::Ok
        } else if u < 2.0 {
            FlowDecision::Shed {
                drop_fraction: (1.0 - 0.8 / u).clamp(0.0, 1.0),
            }
        } else {
            FlowDecision::DegradeQuality
        }
    }
}

impl Default for FlowMonitor {
    fn default() -> Self {
        Self::new(0.2)
    }
}

/// An [`EmissionSink`] adapter that tees output-side accounting into a
/// [`FlowMonitor`] while forwarding every emission to the inner sink.
/// Every way in (`accept`, `accept_batch`, `accept_route`) counts each
/// emission once, whether the engine released it or it is a late-tuple
/// patch the middleware sends past the engine.
///
/// This is how the pipeline composes flow control into the dataflow: the
/// monitor sits *next to* the dissemination sink instead of requiring the
/// engine (or callers) to collect emissions just to count them.
#[derive(Debug)]
pub struct Metered<'m, S> {
    inner: S,
    monitor: &'m mut FlowMonitor,
}

impl<'m, S: EmissionSink> Metered<'m, S> {
    /// Wraps `inner`, accounting every emission into `monitor`.
    pub fn new(inner: S, monitor: &'m mut FlowMonitor) -> Self {
        Metered { inner, monitor }
    }

    /// The monitor (for input-side observations and decisions).
    pub fn monitor(&mut self) -> &mut FlowMonitor {
        self.monitor
    }

    /// The wrapped sink.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EmissionSink> EmissionSink for Metered<'_, S> {
    fn accept(&mut self, emission: &Emission) {
        self.monitor.observe_emission(emission);
        self.inner.accept(emission);
    }

    fn accept_batch(&mut self, emissions: &[Emission]) {
        for e in emissions {
            self.monitor.observe_emission(e);
        }
        self.inner.accept_batch(emissions);
    }

    fn accept_route(&mut self, route: usize, emissions: &[Emission]) {
        for e in emissions {
            self.monitor.observe_emission(e);
        }
        self.inner.accept_route(route, emissions);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(m: &mut FlowMonitor, interval_us: u64, cpu_us: u64, n: usize) {
        for i in 0..n {
            m.observe(
                Micros(interval_us * (i as u64 + 1)),
                Duration::from_micros(cpu_us),
            );
        }
    }

    #[test]
    fn idle_filter_is_ok() {
        let mut m = FlowMonitor::default();
        feed(&mut m, 10_000, 1_000, 50); // 1 ms work per 10 ms tuple
        assert!((m.utilization() - 0.1).abs() < 0.02, "{}", m.utilization());
        assert_eq!(m.decision(), FlowDecision::Ok);
        assert_eq!(m.samples(), 50);
    }

    #[test]
    fn overloaded_filter_sheds() {
        let mut m = FlowMonitor::default();
        feed(&mut m, 10_000, 12_000, 50); // 12 ms work per 10 ms tuple
        assert!(m.utilization() > 1.0);
        match m.decision() {
            FlowDecision::Shed { drop_fraction } => {
                assert!(
                    drop_fraction > 0.2 && drop_fraction < 0.5,
                    "{drop_fraction}"
                );
            }
            other => panic!("expected shedding, got {other:?}"),
        }
    }

    #[test]
    fn hopeless_overload_degrades_quality() {
        let mut m = FlowMonitor::default();
        feed(&mut m, 10_000, 25_000, 50);
        assert_eq!(m.decision(), FlowDecision::DegradeQuality);
    }

    #[test]
    fn no_samples_is_ok() {
        let m = FlowMonitor::default();
        assert_eq!(m.utilization(), 0.0);
        assert_eq!(m.decision(), FlowDecision::Ok);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let _ = FlowMonitor::new(0.0);
    }

    #[test]
    fn metered_tees_emissions_into_monitor() {
        use gasf_core::bitset::FilterSet;
        use gasf_core::candidate::FilterId;
        use gasf_core::schema::Schema;
        use gasf_core::sink::VecSink;
        use gasf_core::tuple::TupleBuilder;
        use std::sync::Arc;

        let schema = Schema::new(["t"]);
        let mut b = TupleBuilder::new(&schema);
        let tuple = Arc::new(b.at_millis(10).set("t", 1.0).build().unwrap());
        let mut recipients = FilterSet::new();
        recipients.insert(FilterId::from_index(0));
        recipients.insert(FilterId::from_index(2));
        let e = Emission {
            tuple,
            recipients,
            emitted_at: Micros::from_millis(10),
        };

        let mut monitor = FlowMonitor::default();
        let mut metered = Metered::new(VecSink::new(), &mut monitor);
        metered.accept(&e);
        metered.accept_batch(std::slice::from_ref(&e));
        metered.flush();
        assert_eq!(metered.inner_mut().len(), 2);
        assert_eq!(metered.into_inner().len(), 2);
        assert_eq!(monitor.emitted(), 2);
        assert_eq!(monitor.emitted_labels(), 4);
    }

    #[test]
    fn shedding_counters_accumulate() {
        let mut m = FlowMonitor::default();
        m.observe_throttle();
        m.observe_throttle();
        m.observe_shed_drop();
        m.observe_degrade();
        m.observe_degrade();
        m.observe_degrade();
        m.observe_restore();
        assert_eq!(m.throttled(), 2);
        assert_eq!(m.shed_dropped(), 1);
        assert_eq!(m.degrade_ops(), 3);
        assert_eq!(m.restore_ops(), 1);
    }

    #[test]
    fn ewma_adapts_to_change() {
        let mut m = FlowMonitor::default();
        feed(&mut m, 10_000, 1_000, 20);
        let low = m.utilization();
        // workload spikes
        for i in 20..60 {
            m.observe(Micros(10_000 * (i + 1)), Duration::from_micros(9_000));
        }
        assert!(m.utilization() > low * 3.0);
    }
}
