//! Extensible-framework evaluation (Tables 5.1–5.3, Figs. 5.2–5.3): ten
//! groups mixing DC1/DC2/DC3/SS filter types over the NAMOS trace.

use super::Params;
use crate::report::{f3, f4, Table};
use crate::runner::{per_batch_output_ratios, run_variant, Variant};
use crate::specs::ten_groups;
use gasf_core::time::Micros;

const CUT: Micros = Micros::from_millis(125);

/// Tables 5.1/5.2 — the ten groups' specifications.
pub fn tab5_2(params: &Params) -> Vec<Table> {
    let trace = params.namos(0);
    let mut t = Table::new(
        "tab5_2",
        "Table 5.2: specifications for ten groups of filters (types of Table 5.1)",
        ["group", "filter 1", "filter 2", "filter 3"],
    );
    for g in ten_groups(&trace) {
        let mut cells = vec![g.name.clone()];
        cells.extend(g.specs.iter().map(|s| s.to_string()));
        t.row(cells);
    }
    vec![t]
}

/// Fig. 5.2 — benefit of group-aware filtering: average and median
/// per-100-tuple-batch output ratio (GA vs SI) for the ten groups.
pub fn fig5_2(params: &Params) -> Vec<Table> {
    let trace = params.namos(0);
    let mut t = Table::new(
        "fig5_2",
        "Fig 5.2: output ratio of ten groups of filters (lower is better)",
        ["group", "average", "median"],
    );
    for g in ten_groups(&trace) {
        let ga = run_variant(&trace, &g.specs, Variant::Ps, CUT);
        let si = run_variant(&trace, &g.specs, Variant::Si, CUT);
        let mut ratios = per_batch_output_ratios(&ga, &si, 100);
        if ratios.is_empty() {
            continue;
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let median = ratios[ratios.len() / 2];
        t.row([g.name.clone(), f4(avg), f4(median)]);
    }
    t.note("paper: eight of ten groups average below 0.80");
    vec![t]
}

/// Table 5.3 — average CPU cost per batch of 100 tuples, group-aware vs
/// self-interested.
pub fn tab5_3(params: &Params) -> Vec<Table> {
    let trace = params.namos(0);
    let mut t = Table::new(
        "tab5_3",
        "Table 5.3: average CPU cost per batch of 100 tuples (ms)",
        ["group", "group-aware", "self-interested"],
    );
    for g in ten_groups(&trace) {
        let ga = run_variant(&trace, &g.specs, Variant::Ps, CUT);
        let si = run_variant(&trace, &g.specs, Variant::Si, CUT);
        let per_batch = |out: &crate::runner::RunOutcome| {
            out.metrics.cpu.as_secs_f64() * 1e3 / (out.metrics.input_tuples as f64 / 100.0)
        };
        t.row([g.name.clone(), f3(per_batch(&ga)), f3(per_batch(&si))]);
    }
    t.note("paper: 22-685 ms per batch on 2005 Java; ratios matter, complex filters (DC2/DC3) cost more");
    vec![t]
}

/// Fig. 5.3 — CPU overhead ratios (group-aware over self-interested).
pub fn fig5_3(params: &Params) -> Vec<Table> {
    let mut t = Table::new(
        "fig5_3",
        "Fig 5.3: CPU overhead ratios (group-aware / self-interested)",
        ["group", "average", "median"],
    );
    let names: Vec<String> = ten_groups(&params.namos(0))
        .into_iter()
        .map(|g| g.name)
        .collect();
    for (gi, name) in names.iter().enumerate() {
        let mut ratios = Vec::new();
        for rep in 0..params.reps {
            let trace = params.namos(rep);
            let g = &ten_groups(&trace)[gi];
            let ga = run_variant(&trace, &g.specs, Variant::Ps, CUT);
            let si = run_variant(&trace, &g.specs, Variant::Si, CUT);
            let ratio = ga.metrics.cpu.as_secs_f64() / si.metrics.cpu.as_secs_f64().max(1e-12);
            ratios.push(ratio);
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        t.row([name.clone(), f3(avg), f3(ratios[ratios.len() / 2])]);
    }
    t.note("paper: overhead up to ~2.8x, group coordination roughly doubles CPU");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Params {
        Params {
            tuples: 1_200,
            reps: 1,
        }
    }

    #[test]
    fn tab5_2_has_ten_groups() {
        let t = &tab5_2(&p())[0];
        assert_eq!(t.rows.len(), 10);
    }

    #[test]
    fn fig5_2_ratios_are_sane() {
        let t = &fig5_2(&p())[0];
        assert!(t.rows.len() >= 8, "most groups produce batches");
        for row in &t.rows {
            let avg: f64 = row[1].parse().unwrap();
            assert!(avg > 0.1 && avg <= 1.3, "{}: {avg}", row[0]);
        }
    }

    #[test]
    fn overhead_ratio_at_least_one_ish() {
        // Each ratio divides two single wall-clock samples, so a busy
        // host (or a faster engine) can push it anywhere. What makes it
        // "at least one-ish" is deterministic: on the same input the
        // group-aware run does the first stage like SI *plus* a second
        // stage — assert that, and only the table's shape on the timings.
        let params = p();
        let trace = params.namos(0);
        for g in ten_groups(&trace) {
            let ga = run_variant(&trace, &g.specs, Variant::Ps, CUT);
            let si = run_variant(&trace, &g.specs, Variant::Si, CUT);
            assert_eq!(
                ga.metrics.input_tuples, si.metrics.input_tuples,
                "{}",
                g.name
            );
            assert!(ga.metrics.regions > 0, "{}", g.name);
            assert_eq!(si.metrics.regions, 0, "{}", g.name);
        }
        let t = &fig5_3(&params)[0];
        assert_eq!(t.rows.len(), 10);
        for row in &t.rows {
            let r: f64 = row[1].parse().unwrap();
            assert!(r.is_finite() && r >= 0.0, "{}: {r}", row[0]);
        }
    }

    #[test]
    fn tab5_3_costs_positive() {
        let t = &tab5_3(&p())[0];
        for row in &t.rows {
            assert!(row[1].parse::<f64>().unwrap() > 0.0);
            assert!(row[2].parse::<f64>().unwrap() > 0.0);
        }
    }
}
