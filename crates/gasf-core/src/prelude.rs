//! Convenience re-exports for typical gasf-core usage.
//!
//! ```rust
//! use gasf_core::prelude::*;
//! ```

pub use crate::batch::TupleBatch;
pub use crate::bitset::{BitSet, FilterSet};
pub use crate::candidate::{CandidateTuple, CloseCause, ClosedSet, FilterId, TimeCover};
pub use crate::connector::{Chunk, SourceConnector};
pub use crate::cuts::{RuntimePredictor, TimeConstraint};
pub use crate::engine::{Algorithm, Emission, GroupEngine, GroupEngineBuilder, OutputStrategy};
pub use crate::error::Error;
pub use crate::event_time::{
    Aggregate, EventTimeConfig, LatePolicy, LateTuple, ReorderBuffer, Watermark, WindowFilter,
    WindowKind, WindowOutput,
};
pub use crate::filter::{
    build_filter, DeltaCompression, GroupFilter, MultiAttrDelta, ReservoirSampler,
    StratifiedSampler, TrendDelta,
};
pub use crate::metrics::{BoxPlot, EngineMetrics, Histogram};
pub use crate::monitor::{BenefitMonitor, BenefitReport, Recommendation};
pub use crate::plan::{CompiledRoster, RosterPlan};
pub use crate::quality::{Dependency, FilterKind, FilterSpec, PickDegree, PickSpec, Prescription};
pub use crate::region::{Region, RegionTracker};
pub use crate::schema::{AttrId, Schema};
pub use crate::shard::{ShardedEngine, ShardedEngineBuilder};
pub use crate::shed::{PushOutcome, ShedHeadroom};
pub use crate::sink::{EmissionSink, NullSink, VecSink};
pub use crate::snapshot::{EngineSnapshot, GroupSnapshot};
pub use crate::time::Micros;
pub use crate::tuple::{series, Tuple, TupleBuilder, TupleId, TuplePool};
pub use crate::utility::GroupUtility;
