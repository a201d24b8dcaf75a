//! Helpers shared by the equivalence suites.

use gasf_core::metrics::{EngineMetrics, FilterMetrics};

/// The oracle of a churned or checkpointed engine's lifetime metrics: the
/// metrics of the static engines that ran its segments, added up —
/// per-filter counters by filter id, which every segment keeps pinned.
pub fn fold_by_id(segments: &[&EngineMetrics]) -> EngineMetrics {
    let mut total = EngineMetrics::default();
    for &m in segments {
        let mut scalars = m.clone();
        let per_filter = std::mem::take(&mut scalars.per_filter);
        total.merge(&scalars);
        if total.per_filter.len() < per_filter.len() {
            total
                .per_filter
                .resize(per_filter.len(), FilterMetrics::default());
        }
        for (sum, f) in total.per_filter.iter_mut().zip(&per_filter) {
            sum.references += f.references;
            sum.chosen += f.chosen;
            sum.sets_closed += f.sets_closed;
            sum.sets_cut += f.sets_cut;
            sum.admitted += f.admitted;
            sum.dismissed += f.dismissed;
        }
    }
    total
}
