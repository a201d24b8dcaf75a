//! One runner per table/figure of the paper's evaluation.
//!
//! Every runner returns [`Table`]s whose rows mirror the paper's artefact,
//! with the paper's claim noted (`paper: …`) next to the measured rows.

mod ablations;
mod ch4_basic;
mod ch4_cuts;
mod ch4_factors;
mod ch4_output;
mod ch4_sources;
mod ch5;
mod network;

use crate::report::Table;
use gasf_sources::{NamosBuoy, Trace};

/// Workload sizing shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tuples per trace.
    pub tuples: usize,
    /// Independent repetitions (different generator seeds).
    pub reps: u64,
}

impl Params {
    /// Paper-scale runs (§4.2: "more than ten thousand measurements",
    /// box plots over ten results).
    pub fn full() -> Self {
        Params {
            tuples: 10_000,
            reps: 10,
        }
    }

    /// Reduced sizing for CI/tests.
    pub fn fast() -> Self {
        Params {
            tuples: 1_000,
            reps: 3,
        }
    }

    /// The NAMOS trace for repetition `rep`.
    pub fn namos(&self, rep: u64) -> Trace {
        NamosBuoy::new()
            .tuples(self.tuples)
            .seed(rep + 1)
            .generate()
    }
}

/// All experiment ids, in paper order.
pub const ALL_IDS: &[&str] = &[
    "tab4_1",
    "fig4_2",
    "fig4_3",
    "fig4_6",
    "fig4_9",
    "fig4_10",
    "fig4_11",
    "fig4_12",
    "fig4_13",
    "fig4_14",
    "fig4_15",
    "fig4_16",
    "fig4_17",
    "fig4_18",
    "fig4_19",
    "fig4_20",
    "fig4_21",
    "fig4_24",
    "tab5_2",
    "fig5_2",
    "tab5_3",
    "fig5_3",
    "fig1_3",
    "sec4_1_2",
    "sec5_5_1",
    "abl_regions",
    "abl_predictor",
    "abl_stateful",
];

/// Runs one experiment by id; `None` for unknown ids.
pub fn run(id: &str, params: &Params) -> Option<Vec<Table>> {
    let tables = match id {
        "tab4_1" => ch4_basic::tab4_1(params),
        "fig4_2" => ch4_basic::fig4_2(params),
        "fig4_3" => ch4_basic::fig4_3(params),
        "fig4_6" => ch4_basic::fig4_6(params),
        "fig4_9" => ch4_cuts::sweep_table(params, ch4_cuts::CutMetric::Latency),
        "fig4_10" => ch4_cuts::sweep_table(params, ch4_cuts::CutMetric::Cpu),
        "fig4_11" => ch4_cuts::sweep_table(params, ch4_cuts::CutMetric::RegionsCut),
        "fig4_12" => ch4_cuts::sweep_table(params, ch4_cuts::CutMetric::OiRatio),
        "fig4_13" => ch4_output::fig4_13(params),
        "fig4_14" => ch4_output::fig4_14(params),
        "fig4_15" => ch4_factors::fig4_15(params),
        "fig4_16" => ch4_factors::fig4_16(params),
        "fig4_17" => ch4_factors::fig4_17(params),
        "fig4_18" => ch4_factors::fig4_18(params),
        "fig4_19" => ch4_sources::fig4_19(params),
        "fig4_20" => ch4_sources::fig4_20(params),
        "fig4_21" => ch4_sources::fig4_21(params),
        "fig4_24" => ch4_sources::fig4_24(params),
        "tab5_2" => ch5::tab5_2(params),
        "fig5_2" => ch5::fig5_2(params),
        "tab5_3" => ch5::tab5_3(params),
        "fig5_3" => ch5::fig5_3(params),
        "fig1_3" => network::fig1_3(params),
        "sec4_1_2" => network::sec4_1_2(params),
        "sec5_5_1" => network::sec5_5_1(params),
        "abl_regions" => ablations::abl_regions(params),
        "abl_predictor" => ablations::abl_predictor(params),
        "abl_stateful" => ablations::abl_stateful(params),
        _ => return None,
    };
    Some(tables)
}

/// Runs every experiment.
pub fn run_all(params: &Params) -> Vec<Table> {
    ALL_IDS
        .iter()
        .flat_map(|id| run(id, params).expect("registered id"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_is_registered() {
        let p = Params {
            tuples: 200,
            reps: 1,
        };
        for id in ALL_IDS {
            let tables = run(id, &p).unwrap_or_else(|| panic!("{id} unregistered"));
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id}:{} has no rows", t.id);
            }
        }
        assert!(run("nope", &p).is_none());
    }
}
