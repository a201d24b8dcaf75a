//! The streaming seam: push-based dataflow without per-push allocation.
//!
//! The paper's architecture (Fig. 4.1) is a push pipeline — source →
//! group-aware engine → output scheduler → tuple-level multicast. This
//! module is that seam as an API: an operator *emits into a sink* instead
//! of materialising a fresh `Vec<Emission>` on every step.
//!
//! * [`EmissionSink`] — anything that consumes released [`Emission`]s by
//!   reference. Implementations decide what "consume" means: collect
//!   ([`VecSink`]), discard ([`NullSink`]), or — in `gasf-solar` — meter
//!   and multicast over the overlay.
//!
//! The sink is the only way emissions leave an engine. The engine's hot
//! path writes into it through a reusable internal scratch buffer, so a
//! steady-state `push_into` performs **no** `Vec<Emission>` allocation; a
//! caller that wants the output materialised passes a [`VecSink`].
//!
//! # Writing a custom sink
//!
//! A sink only has to implement [`accept`](EmissionSink::accept); the
//! batch and flush hooks have sensible defaults. A counting sink in full:
//!
//! ```rust
//! use gasf_core::prelude::*;
//! use gasf_core::sink::EmissionSink;
//!
//! /// Counts emissions and recipient labels without keeping payloads.
//! #[derive(Debug, Default)]
//! struct CountingSink {
//!     emissions: u64,
//!     labels: u64,
//! }
//!
//! impl EmissionSink for CountingSink {
//!     fn accept(&mut self, emission: &Emission) {
//!         self.emissions += 1;
//!         self.labels += emission.recipients.len() as u64;
//!     }
//! }
//!
//! # fn main() -> Result<(), gasf_core::Error> {
//! let schema = Schema::new(["t"]);
//! let mut engine = GroupEngine::builder(schema.clone())
//!     .filter(FilterSpec::delta("t", 2.0, 0.9))
//!     .filter(FilterSpec::delta("t", 3.0, 1.4))
//!     .build()?;
//!
//! let mut b = TupleBuilder::new(&schema);
//! let tuples = (0..20).map(|i| {
//!     b.at_millis(10 * (i + 1)).set("t", (i as f64 * 0.7).sin() * 5.0).build().unwrap()
//! });
//!
//! let mut counter = CountingSink::default();
//! engine.run_into(tuples, &mut counter)?;
//! assert!(counter.emissions > 0);
//! assert!(counter.labels >= counter.emissions);
//! # Ok(())
//! # }
//! ```

use crate::engine::Emission;

/// A consumer of released [`Emission`]s.
///
/// Sinks receive emissions **by reference** in release order. A sink that
/// needs to keep an emission clones it (the payload is an `Arc<Tuple>`, so
/// a clone is a reference-count bump plus the recipient bitset); a sink
/// that only inspects or forwards pays nothing.
pub trait EmissionSink {
    /// Consumes one emission.
    fn accept(&mut self, emission: &Emission);

    /// Consumes a batch of emissions released by a single step.
    ///
    /// The default forwards to [`accept`](Self::accept) per emission;
    /// override it when the sink can amortise per-batch work.
    fn accept_batch(&mut self, emissions: &[Emission]) {
        for e in emissions {
            self.accept(e);
        }
    }

    /// Consumes a batch of emissions released by one *route* of a
    /// multi-route host ([`ShardedEngine`](crate::shard::ShardedEngine)
    /// delivers everything it merges through here, the route being the
    /// index of the group that released the batch).
    ///
    /// The default ignores the route and forwards to
    /// [`accept_batch`](Self::accept_batch); a sink that serves each
    /// route differently — the middleware sends each route to its own
    /// part's multicast tree — overrides it.
    fn accept_route(&mut self, route: usize, emissions: &[Emission]) {
        let _ = route;
        self.accept_batch(emissions);
    }

    /// Flushes any internally buffered state.
    ///
    /// Called by [`GroupEngine::finish_into`](crate::engine::GroupEngine::finish_into)
    /// (and therefore at the end of every
    /// [`run_into`](crate::engine::GroupEngine::run_into)) after the final
    /// emissions. The default does nothing.
    fn flush(&mut self) {}
}

/// Sinks compose by mutable reference: `&mut S` forwards to `S`, so an
/// operator taking `&mut impl EmissionSink` can hand the same sink to
/// nested stages.
impl<S: EmissionSink + ?Sized> EmissionSink for &mut S {
    fn accept(&mut self, emission: &Emission) {
        (**self).accept(emission);
    }

    fn accept_batch(&mut self, emissions: &[Emission]) {
        (**self).accept_batch(emissions);
    }

    fn accept_route(&mut self, route: usize, emissions: &[Emission]) {
        (**self).accept_route(route, emissions);
    }

    fn flush(&mut self) {
        (**self).flush();
    }
}

/// A sink that collects cloned emissions into a `Vec`.
///
/// This is the bridge between the streaming path and code that wants the
/// whole output materialised: pass it to
/// [`GroupEngine::push_into`](crate::engine::GroupEngine::push_into),
/// [`run_into`](crate::engine::GroupEngine::run_into) or any other
/// `*_into` method and read the emissions back in release order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VecSink {
    emissions: Vec<Emission>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of emissions collected so far.
    pub fn len(&self) -> usize {
        self.emissions.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.emissions.is_empty()
    }

    /// The collected emissions, in release order.
    pub fn as_slice(&self) -> &[Emission] {
        &self.emissions
    }

    /// Consumes the sink, returning the collected emissions.
    pub fn into_vec(self) -> Vec<Emission> {
        self.emissions
    }

    /// Removes and returns the collected emissions, leaving the sink
    /// empty (the returned `Vec` keeps the allocation; the sink restarts
    /// from an unallocated buffer).
    pub fn drain_vec(&mut self) -> Vec<Emission> {
        std::mem::take(&mut self.emissions)
    }

    /// Drops the collected emissions, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.emissions.clear();
    }
}

impl EmissionSink for VecSink {
    fn accept(&mut self, emission: &Emission) {
        self.emissions.push(emission.clone());
    }

    fn accept_batch(&mut self, emissions: &[Emission]) {
        self.emissions.extend_from_slice(emissions);
    }
}

/// A sink that discards everything — the zero-cost endpoint for runs that
/// only need engine metrics (benchmarks, capacity probes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl EmissionSink for NullSink {
    fn accept(&mut self, _emission: &Emission) {}

    fn accept_batch(&mut self, _emissions: &[Emission]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::FilterSet;
    use crate::candidate::FilterId;
    use crate::schema::Schema;
    use crate::time::Micros;
    use crate::tuple::TupleBuilder;
    use std::sync::Arc;

    fn emission(seq: u64) -> Emission {
        let schema = Schema::new(["t"]);
        let mut b = TupleBuilder::new(&schema);
        let t = b
            .at_millis(10 * (seq + 1))
            .set("t", seq as f64)
            .build()
            .unwrap();
        let mut recipients = FilterSet::new();
        recipients.insert(FilterId::from_index(0));
        Emission {
            tuple: Arc::new(t),
            recipients,
            emitted_at: Micros::from_millis(10 * (seq + 1)),
        }
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::new();
        assert!(sink.is_empty());
        let (a, b) = (emission(0), emission(1));
        sink.accept(&a);
        sink.accept_batch(std::slice::from_ref(&b));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.as_slice(), &[a.clone(), b.clone()]);
        assert_eq!(sink.drain_vec(), vec![a, b]);
        assert!(sink.is_empty());
    }

    #[test]
    fn null_sink_discards() {
        let mut sink = NullSink;
        sink.accept(&emission(0));
        sink.accept_batch(&[emission(1), emission(2)]);
        sink.flush();
    }

    #[test]
    fn mut_ref_forwards() {
        // Generic over S so `&mut VecSink` resolves to the blanket impl.
        fn feed<S: EmissionSink>(mut sink: S) {
            sink.accept(&emission(0));
            sink.accept_batch(&[emission(1)]);
            sink.flush();
        }
        let mut sink = VecSink::new();
        feed(&mut sink);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn routes_reach_the_sink_through_a_reference() {
        #[derive(Default)]
        struct Routes(Vec<(usize, usize)>);
        impl EmissionSink for Routes {
            fn accept(&mut self, _: &Emission) {}
            fn accept_route(&mut self, route: usize, emissions: &[Emission]) {
                self.0.push((route, emissions.len()));
            }
        }
        fn feed<S: EmissionSink>(mut sink: S) {
            sink.accept_route(3, &[emission(0), emission(1)]);
        }
        let mut routes = Routes::default();
        feed(&mut routes);
        assert_eq!(routes.0, [(3, 2)]);
        // the default ignores the route
        let mut sink = VecSink::new();
        sink.accept_route(1, &[emission(0)]);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn default_batch_loops_over_accept() {
        struct Counter(u64);
        impl EmissionSink for Counter {
            fn accept(&mut self, _: &Emission) {
                self.0 += 1;
            }
        }
        let mut c = Counter(0);
        c.accept_batch(&[emission(0), emission(1), emission(2)]);
        assert_eq!(c.0, 3);
    }
}
