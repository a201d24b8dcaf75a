//! Ablations of the design choices the dissertation argues for.
//!
//! * `abl_regions` — why region-based segmentation matters: solving the
//!   hitting set per region keeps decision latency bounded and the solver
//!   cheap, at zero bandwidth cost (Theorem 2).
//! * `abl_predictor` — the run-time predictor's overestimation constant
//!   (§3.3): conservativeness vs. bandwidth.
//! * `abl_stateful` — stateful vs. stateless candidate sets under the
//!   per-candidate-set algorithm (§2.3.3's compression-ratio discussion).

use super::Params;
use crate::report::{f3, f4, Table};
use crate::runner::{output_ratio, run_variant, Variant};
use crate::specs::dc_tmpr;
use gasf_core::candidate::{CloseCause, FilterId};
use gasf_core::cuts::TimeConstraint;
use gasf_core::engine::{Algorithm, GroupEngine, OutputStrategy};
use gasf_core::filter::{build_filter, GroupFilter};
use gasf_core::hitting_set::greedy_hitting_set;
use gasf_core::quality::{Dependency, FilterKind, FilterSpec};
use gasf_core::region::RegionTracker;
use gasf_core::sink::VecSink;
use gasf_core::time::Micros;
use std::time::Instant;

/// `abl_regions` — region-segmented greedy vs. one whole-stream solve.
pub fn abl_regions(params: &Params) -> Vec<Table> {
    let trace = params.namos(0);
    let group = dc_tmpr(&trace);

    // Collect every closed candidate set by driving the filters directly.
    let mut filters: Vec<Box<dyn GroupFilter>> = group
        .specs
        .iter()
        .enumerate()
        .map(|(i, s)| build_filter(s, FilterId::from_index(i), trace.schema()).expect("valid"))
        .collect();
    let mut sets = Vec::new();
    for t in trace.tuples() {
        for f in &mut filters {
            sets.extend(f.process(t).expect("no missing values").closed);
        }
    }
    for f in &mut filters {
        sets.extend(f.force_close(CloseCause::EndOfStream).closed);
    }

    // Whole-stream solve: wait for everything, one big instance.
    let t0 = Instant::now();
    let whole = greedy_hitting_set(&sets);
    let whole_cpu = t0.elapsed();

    // Region-based solve.
    let mut tracker = RegionTracker::new();
    let total_sets = sets.len();
    for s in sets {
        tracker.add(s);
    }
    let regions = tracker.drain_all();
    let t1 = Instant::now();
    let mut region_outputs = 0usize;
    let mut max_span = Micros::ZERO;
    for r in &regions {
        region_outputs += greedy_hitting_set(r.sets()).len();
        max_span = max_span.max(r.cover().span());
    }
    let region_cpu = t1.elapsed();
    let stream_span = trace
        .tuples()
        .last()
        .map(|t| t.timestamp())
        .unwrap_or(Micros::ZERO);

    let mut t = Table::new(
        "abl_regions",
        "ablation: region-segmented greedy vs whole-stream greedy",
        ["mode", "outputs", "solver cpu (us)", "worst decision wait"],
    );
    t.row([
        "whole stream".to_string(),
        whole.len().to_string(),
        f3(whole_cpu.as_secs_f64() * 1e6),
        stream_span.to_string(),
    ]);
    t.row([
        format!("per region ({} regions, {total_sets} sets)", regions.len()),
        region_outputs.to_string(),
        f3(region_cpu.as_secs_f64() * 1e6),
        max_span.to_string(),
    ]);
    t.note("Theorem 2: identical output counts; segmentation bounds the wait by the region span instead of the stream length");
    vec![t]
}

/// `abl_predictor` — cut conservativeness: overestimation constant sweep.
pub fn abl_predictor(params: &Params) -> Vec<Table> {
    let trace = params.namos(0);
    let group = dc_tmpr(&trace);
    let deadline = Micros::from_millis(40);
    let mut t = Table::new(
        "abl_predictor",
        "ablation: run-time predictor overestimation (deadline 40 ms)",
        [
            "overestimate (us)",
            "deadline violations",
            "O/I ratio",
            "% regions cut",
        ],
    );
    for overestimate in [0.0, 10_000.0, 20_000.0] {
        let mut engine = GroupEngine::builder(trace.schema().clone())
            .algorithm(Algorithm::RegionGreedy)
            .output_strategy(OutputStrategy::Earliest)
            .time_constraint(TimeConstraint::max_delay(deadline))
            .predictor(10, overestimate)
            .filters(group.specs.clone())
            .build()
            .expect("valid");
        let mut emissions = VecSink::new();
        engine
            .run_into(trace.tuples().to_vec(), &mut emissions)
            .expect("run");
        let m = engine.metrics();
        let violations = (emissions.as_slice().iter())
            .filter(|e| e.latency() > deadline)
            .count() as f64
            / emissions.len().max(1) as f64;
        t.row([
            format!("{overestimate:.0}"),
            format!("{:.1}%", violations * 100.0),
            f4(m.oi_ratio()),
            format!("{:.1}%", m.cut_fraction() * 100.0),
        ]);
    }
    t.note(
        "more overestimation cuts earlier: fewer deadline violations, slightly worse O/I (§3.3)",
    );
    vec![t]
}

/// `abl_stateful` — stateful vs. stateless candidate sets under PS.
pub fn abl_stateful(params: &Params) -> Vec<Table> {
    let trace = params.namos(0);
    let group = dc_tmpr(&trace);
    let stateful_specs: Vec<FilterSpec> = group
        .specs
        .iter()
        .map(|s| {
            let mut s = s.clone();
            if let FilterKind::Delta { dependency, .. } = &mut s.kind {
                *dependency = Dependency::Stateful;
            }
            s
        })
        .collect();

    let mut t = Table::new(
        "abl_stateful",
        "ablation: stateless vs stateful candidate sets (PS algorithm)",
        ["dependency", "O/I", "output ratio vs SI", "sets per filter"],
    );
    for (name, specs) in [("stateless", &group.specs), ("stateful", &stateful_specs)] {
        // each row against SI over its own specs
        let si = run_variant(&trace, specs, Variant::Si, Micros::MAX);
        let out = crate::runner::run_engine(
            &trace,
            specs,
            Algorithm::PerCandidateSet,
            OutputStrategy::Earliest,
            None,
        );
        let sets: Vec<String> = out
            .metrics
            .per_filter
            .iter()
            .map(|f| f.sets_closed.to_string())
            .collect();
        t.row([
            name.to_string(),
            f4(out.metrics.oi_ratio()),
            f4(output_ratio(&out, &si)),
            sets.join("/"),
        ]);
    }
    t.note("§2.3.3: stateful sets re-anchor on the chosen output, so the compression ratio may drift from the stateless one");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Params {
        Params {
            tuples: 1_000,
            reps: 1,
        }
    }

    #[test]
    fn region_ablation_outputs_match() {
        let t = &abl_regions(&p())[0];
        let whole: u64 = t.rows[0][1].parse().unwrap();
        let per_region: u64 = t.rows[1][1].parse().unwrap();
        assert_eq!(whole, per_region, "Theorem 2 violated");
    }

    #[test]
    fn predictor_overestimation_cuts_more() {
        let t = &abl_predictor(&p())[0];
        let viol: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[1].trim_end_matches('%').parse().unwrap())
            .collect();
        assert!(
            viol.last().unwrap() <= viol.first().unwrap(),
            "conservative cuts must not increase violations: {viol:?}"
        );
        let cut_pct: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[3].trim_end_matches('%').parse().unwrap())
            .collect();
        assert!(
            cut_pct.last().unwrap() >= cut_pct.first().unwrap(),
            "conservative predictions must cut at least as often: {cut_pct:?}"
        );
    }

    #[test]
    fn stateful_ablation_rows_valid() {
        let t = &abl_stateful(&p())[0];
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let oi: f64 = row[1].parse().unwrap();
            assert!(oi > 0.0 && oi < 1.0);
        }
    }
}
