//! Filter-group specifications, derived exactly the way the paper does.
//!
//! §4.3: delta values are picked from `[srcStatistics, 3*srcStatistics]`
//! (or up to 20· for the Hybrid group), slack ≈ 50 % of delta. §5.4 sets
//! per-group deltas at `1·ASC`, `2·ASC` and a random value in between.
//! The concrete numbers in Tables 4.1/5.2 came from the authors' traces;
//! ours come from the synthetic traces via the same procedure, seeded for
//! reproducibility.

use gasf_core::quality::FilterSpec;
use gasf_core::time::Micros;
use gasf_sources::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Calibration factor applied to the paper's srcStatistics multipliers.
///
/// The paper's real traces come from quantised ADCs: most consecutive
/// deltas are zero, so their `srcStatistics` is far below the *typical
/// non-zero* step, and "delta in \[1,3\]·srcStatistics" still spans several
/// typical steps. Our synthetic traces are continuous (every delta is
/// non-zero), which would make the same multipliers produce single-tuple
/// candidate sets. Scaling the multipliers by 2 restores the paper's
/// effective delta-to-typical-step ratio. It does not reach the paper's
/// GA/SI output ratios of 0.6–0.8: at `Params::full()` fig4_16 reads
/// 0.91–0.96 and fig5_2 0.81–0.96.
pub const DELTA_SCALE: f64 = 2.0;

/// A named group of filters (one row block of Table 4.1 / 5.2).
#[derive(Debug, Clone)]
pub struct Group {
    /// Group name (`DC_Fluoro`, …).
    pub name: String,
    /// The member filter specs.
    pub specs: Vec<FilterSpec>,
}

impl Group {
    fn new(name: &str, specs: Vec<FilterSpec>) -> Self {
        Group {
            name: name.into(),
            specs,
        }
    }
}

fn src_stat(trace: &Trace, attr: &str) -> f64 {
    trace
        .stats(attr)
        .expect("experiment attribute exists")
        .mean_abs_delta
}

/// A DC1 spec with slack = `slack_frac`·delta.
pub fn dc(attr: &str, delta: f64, slack_frac: f64) -> FilterSpec {
    FilterSpec::delta(attr, delta, delta * slack_frac)
}

/// Table 4.1's `DC_Fluoro` group: four DC filters on `fluoro` with deltas
/// in `[1, 3]·srcStatistics` and slack ≈ 50 % (one with smaller slack, as
/// in the paper's table).
pub fn dc_fluoro(trace: &Trace) -> Group {
    let s = src_stat(trace, "fluoro");
    let mut rng = StdRng::seed_from_u64(41);
    let d3: f64 = rng.gen_range(1.0..3.0) * DELTA_SCALE;
    Group::new(
        "DC_Fluoro",
        vec![
            dc("fluoro", s * 1.3 * DELTA_SCALE, 0.5),
            dc("fluoro", s * 3.0 * DELTA_SCALE, 0.43),
            dc("fluoro", s * d3, 0.5),
            dc("fluoro", s * 3.0 * DELTA_SCALE, 0.14),
        ],
    )
}

/// Table 4.1's `DC_Hybrid` group: mixed attributes, deltas in
/// `[1, 20]·srcStatistics`, slacks below 50 %.
pub fn dc_hybrid(trace: &Trace) -> Group {
    let mut rng = StdRng::seed_from_u64(42);
    let mut pick = |attr: &str| {
        let s = src_stat(trace, attr);
        // no DELTA_SCALE here: the Hybrid range already reaches 20x and
        // scaling it further produces region spans far beyond the paper's
        // latency regime.
        let mult: f64 = rng.gen_range(2.0..20.0);
        let slack_frac: f64 = rng.gen_range(0.2..0.5);
        dc(attr, s * mult, slack_frac)
    };
    Group::new(
        "DC_Hybrid",
        vec![pick("fluoro"), pick("tmpr2"), pick("tmpr4")],
    )
}

/// Table 4.1's `DC_Tmpr` group: three DC filters on `tmpr4`, deltas
/// 1·/2·/random·srcStatistics, slack 50 %.
pub fn dc_tmpr(trace: &Trace) -> Group {
    let s = src_stat(trace, "tmpr4");
    let mut rng = StdRng::seed_from_u64(43);
    let mid: f64 = rng.gen_range(1.0..2.0) * DELTA_SCALE;
    Group::new(
        "DC_Tmpr",
        vec![
            dc("tmpr4", s * DELTA_SCALE, 0.5),
            dc("tmpr4", s * 2.0 * DELTA_SCALE, 0.5),
            dc("tmpr4", s * mid, 0.5),
        ],
    )
}

/// The three NAMOS groups of Table 4.1, in order.
pub fn table_4_1(trace: &Trace) -> Vec<Group> {
    vec![dc_fluoro(trace), dc_hybrid(trace), dc_tmpr(trace)]
}

/// Fig. 4.19's groups for the other data sources (3 DC filters each,
/// deltas 1–3·srcStatistics, slack 50 %).
pub fn source_group(trace: &Trace, attr: &str, name: &str, seed: u64) -> Group {
    let s = src_stat(trace, attr);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mults = [0.0; 3];
    for m in &mut mults {
        *m = rng.gen_range(1.0..3.0) * DELTA_SCALE;
    }
    Group::new(name, mults.iter().map(|&m| dc(attr, s * m, 0.5)).collect())
}

/// A random group of `n` DC1 filters on one attribute, fixed slack value
/// and deltas in `[lo, hi]·srcStatistics` (Fig. 4.17's generator).
pub fn random_group(
    trace: &Trace,
    attr: &str,
    n: usize,
    mult_range: (f64, f64),
    slack_abs: f64,
    seed: u64,
) -> Vec<FilterSpec> {
    let s = src_stat(trace, attr);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let delta = s * rng.gen_range(mult_range.0..mult_range.1);
            // keep Axiom 1: slack <= delta/2
            FilterSpec::delta(attr, delta, slack_abs.min(delta / 2.0))
        })
        .collect()
}

/// Table 5.2's ten groups (types of Table 5.1) over the NAMOS trace.
pub fn ten_groups(trace: &Trace) -> Vec<Group> {
    let mut rng = StdRng::seed_from_u64(52);
    let mut trio = |attr: &str| -> Vec<FilterSpec> {
        let s = src_stat(trace, attr) * DELTA_SCALE;
        let mid: f64 = rng.gen_range(1.0..2.0);
        vec![
            dc(attr, s, 0.5),
            dc(attr, s * 2.0, 0.5),
            dc(attr, s * mid, 0.5),
        ]
    };
    let g1 = Group::new("G1 (DC1 fluoro)", trio("fluoro"));
    let g2 = Group::new("G2 (DC1 tmpr2)", trio("tmpr2"));
    let g3 = Group::new("G3 (DC1 tmpr4)", trio("tmpr4"));
    let g4 = Group::new("G4 (DC1 tmpr6)", trio("tmpr6"));

    let avg_attrs = ["tmpr2", "tmpr4", "tmpr6"];
    let s_avg = {
        // srcStatistics of the averaged series
        let ids: Vec<_> = avg_attrs
            .iter()
            .map(|a| trace.schema().attr(a).expect("attr"))
            .collect();
        let series: Vec<f64> = trace
            .tuples()
            .iter()
            .map(|t| ids.iter().map(|&id| t.get(id).unwrap_or(0.0)).sum::<f64>() / ids.len() as f64)
            .collect();
        gasf_sources::SourceStats::from_values(series).mean_abs_delta
    };
    let s_avg = s_avg * DELTA_SCALE;
    let mid: f64 = rng.gen_range(1.0..2.0);
    let g5 = Group::new(
        "G5 (DC3 tmpr2/4/6)",
        vec![
            FilterSpec::multi_attr_delta(avg_attrs, s_avg, s_avg * 0.5),
            FilterSpec::multi_attr_delta(avg_attrs, s_avg * 2.0, s_avg),
            FilterSpec::multi_attr_delta(avg_attrs, s_avg * mid, s_avg * mid * 0.5),
        ],
    );

    // DC2 on the fluoro trend: srcStatistics of the derivative series.
    let s_trend = {
        let id = trace.schema().attr("fluoro").expect("attr");
        let series = trace.series_of("fluoro").expect("series");
        let mut trends = Vec::with_capacity(series.len());
        for w in series.windows(2) {
            let dt = (w[1].0.as_secs_f64() - w[0].0.as_secs_f64()).max(1e-9);
            trends.push((w[1].1 - w[0].1) / dt);
        }
        let _ = id;
        gasf_sources::SourceStats::from_values(trends).mean_abs_delta * DELTA_SCALE
    };
    let mid2: f64 = rng.gen_range(1.0..2.0);
    let g6 = Group::new(
        "G6 (DC2 fluoro)",
        vec![
            FilterSpec::trend_delta("fluoro", s_trend * 2.0, s_trend),
            FilterSpec::trend_delta("fluoro", s_trend * 4.0, s_trend * 2.0),
            FilterSpec::trend_delta("fluoro", s_trend * 2.0 * mid2, s_trend * mid2),
        ],
    );

    // SS on tmpr4: 1 s windows, thresholds around the typical window range.
    let window = Micros::from_secs(1);
    let range = trace.stats("tmpr4").expect("attr").range();
    let g7 = Group::new(
        "G7 (SS tmpr4)",
        vec![
            FilterSpec::stratified_sample("tmpr4", window, range * 0.15, 50.0, 20.0),
            FilterSpec::stratified_sample("tmpr4", window, range * 0.30, 50.0, 20.0),
            FilterSpec::stratified_sample("tmpr4", window, range * 0.23, 50.0, 20.0),
        ],
    );

    let s4 = src_stat(trace, "tmpr4") * DELTA_SCALE;
    let s5 = src_stat(trace, "tmpr5") * DELTA_SCALE;
    let g8 = Group::new(
        "G8 (DC1+DC3+DC1)",
        vec![
            dc("tmpr4", s4, 0.5),
            FilterSpec::multi_attr_delta(avg_attrs, s_avg, s_avg * 0.5),
            dc("tmpr5", s5, 0.5),
        ],
    );
    let g9 = Group::new(
        "G9 (DC1+DC3+DC2)",
        vec![
            dc("tmpr4", s4, 0.5),
            FilterSpec::multi_attr_delta(avg_attrs, s_avg, s_avg * 0.5),
            FilterSpec::trend_delta("fluoro", s_trend * 2.0, s_trend),
        ],
    );
    let g10 = Group::new(
        "G10 (DC1+DC3+SS)",
        vec![
            dc("tmpr4", s4, 0.5),
            FilterSpec::multi_attr_delta(avg_attrs, s_avg, s_avg * 0.5),
            FilterSpec::stratified_sample("tmpr4", window, range * 0.10, 90.0, 50.0),
        ],
    );
    vec![g1, g2, g3, g4, g5, g6, g7, g8, g9, g10]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasf_sources::NamosBuoy;

    fn trace() -> Trace {
        NamosBuoy::new().tuples(2_000).seed(1).generate()
    }

    #[test]
    fn table_4_1_groups_are_valid() {
        let t = trace();
        for g in table_4_1(&t) {
            assert!(!g.specs.is_empty(), "{}", g.name);
            for s in &g.specs {
                s.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name));
            }
        }
    }

    #[test]
    fn ten_groups_are_valid_and_named() {
        let t = trace();
        let groups = ten_groups(&t);
        assert_eq!(groups.len(), 10);
        for g in &groups {
            assert_eq!(g.specs.len(), 3, "{}", g.name);
            for s in &g.specs {
                s.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name));
            }
        }
    }

    #[test]
    fn random_group_respects_axiom_1() {
        let t = trace();
        for seed in 0..5 {
            let specs = random_group(&t, "tmpr4", 10, (1.0, 6.0), 0.015, seed);
            assert_eq!(specs.len(), 10);
            for s in specs {
                s.validate().unwrap();
            }
        }
    }

    #[test]
    fn specs_are_deterministic() {
        let t = trace();
        let a = dc_hybrid(&t);
        let b = dc_hybrid(&t);
        assert_eq!(a.specs, b.specs);
    }
}
