//! # gasf-sources — data-source substrate
//!
//! The paper evaluates group-aware stream filtering against four real
//! deployments (§4.2, §4.7.4) plus one engineered model (§5.5.1):
//!
//! * **NAMOS buoy** traces (UCLA CENS, Lake Fulmor 2006): ~100 Hz tuples
//!   with a fluorometer reading and six thermistor readings,
//! * a **cow-orientation** trace (MIT bio-monitoring): long flat stretches
//!   with clustered brief changes (Fig. 4.21),
//! * **volcano seismometer** readings (Peru deployment): smooth
//!   low-amplitude oscillation with event swarms (Fig. 4.22),
//! * **fire-experiment HRR(Q)** readings (WPI): a smooth growth/decay
//!   curve (Fig. 4.23), and
//! * a **chlorine-concentration** source driven by a carefully engineered
//!   diffusion model for the Baton Rouge train-derailment exercise.
//!
//! We do not have the original traces, so this crate provides deterministic
//! synthetic generators that match the *shape* characteristics the paper's
//! results depend on (update magnitudes and burstiness), plus
//! [`Trace`]/[`SourceStats`] utilities used to derive filter parameters
//! exactly the way the paper does (delta ∈ \[1,3\]·srcStatistics, slack ≈
//! 50 % of delta).
//!
//! ```rust
//! use gasf_sources::{NamosBuoy, SourceStats};
//! let trace = NamosBuoy::new().tuples(1000).seed(7).generate();
//! let stats = trace.stats("tmpr4").unwrap();
//! assert!(stats.mean_abs_delta > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod chlorine;
mod cow;
pub mod csv;
mod disorder;
mod fire;
mod namos;
mod replay;
mod stats;
mod trace;
mod volcano;

pub use chlorine::ChlorinePlume;
pub use cow::CowOrientation;
pub use csv::{from_csv, to_csv, CsvError};
pub use disorder::Disorder;
pub use fire::FireHrr;
pub use namos::NamosBuoy;
pub use replay::{ArrivalReplay, TraceReplay};
pub use stats::SourceStats;
pub use trace::Trace;
pub use volcano::VolcanoSeismic;

/// All built-in generators behind one name, for sweep-style experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// NAMOS lake-buoy trace (fluorometer + thermistors).
    Namos,
    /// Cow-orientation trace (clustered brief changes).
    Cow,
    /// Volcano seismometer trace (low-amplitude oscillation + events).
    Volcano,
    /// Fire-experiment heat-release-rate trace (smooth curve).
    Fire,
    /// Chlorine-concentration plume trace (emergency-response model).
    Chlorine,
}

impl SourceKind {
    /// Generates a trace of `n` tuples with this kind's default settings.
    pub fn generate(self, n: usize, seed: u64) -> Trace {
        match self {
            SourceKind::Namos => NamosBuoy::new().tuples(n).seed(seed).generate(),
            SourceKind::Cow => CowOrientation::new().tuples(n).seed(seed).generate(),
            SourceKind::Volcano => VolcanoSeismic::new().tuples(n).seed(seed).generate(),
            SourceKind::Fire => FireHrr::new().tuples(n).seed(seed).generate(),
            SourceKind::Chlorine => ChlorinePlume::new().tuples(n).seed(seed).generate(),
        }
    }

    /// Generates a trace of `n` tuples and the **arrival** sequence a
    /// filtering node would see under `disorder` — the event-time
    /// companion to [`generate`](Self::generate). The trace stays
    /// ordered (it is the reorder-buffer oracle); the returned vector is
    /// the jittered permutation to actually feed the pipeline.
    pub fn generate_arrivals(
        self,
        n: usize,
        seed: u64,
        disorder: Disorder,
    ) -> (Trace, Vec<gasf_core::tuple::Tuple>) {
        let trace = self.generate(n, seed);
        let arrivals = disorder.apply(&trace);
        (trace, arrivals)
    }

    /// The primary attribute the paper filters on for this source.
    pub fn primary_attr(self) -> &'static str {
        match self {
            SourceKind::Namos => "tmpr4",
            SourceKind::Cow => "e_orient",
            SourceKind::Volcano => "seis",
            SourceKind::Fire => "hrr",
            SourceKind::Chlorine => "chlorine",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_kind_generates_all() {
        for kind in [
            SourceKind::Namos,
            SourceKind::Cow,
            SourceKind::Volcano,
            SourceKind::Fire,
            SourceKind::Chlorine,
        ] {
            let t = kind.generate(100, 1);
            assert_eq!(t.len(), 100);
            assert!(t.schema().attr(kind.primary_attr()).is_ok());
        }
    }
}
