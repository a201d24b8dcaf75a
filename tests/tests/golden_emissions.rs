//! Golden digests of whole engine runs: every emission's canonical bytes
//! folded into a `StreamDigest`, next to a hash of the engine's
//! deterministic metrics, pinned per run.
//!
//! The equivalence suites compare one path of this build against
//! another, so a change that moves both sides alike passes them. These
//! values were recorded once and move only on purpose: a first-stage or
//! second-stage change that keeps them is byte-identical to the engine
//! that recorded them.
//!
//! The inputs are a short seeded NAMOS trace, the four roster shapes of
//! the benchmark workloads (`perfbench/src/workloads.rs`) and one sampler
//! shape, run under every algorithm × output strategy. The benchmark
//! rosters hold only delta filters, so only the sampler shape gives the
//! hitting-set solver sets of degree above 1 and ranked (top/bottom)
//! sets. Time-constrained runs are left out: their cuts read the greedy
//! solver's measured run time, so they are not a function of the input.

use gasf_core::engine::{Algorithm, GroupEngine, OutputStrategy};
use gasf_core::metrics::{EngineMetrics, Histogram};
use gasf_core::quality::{FilterSpec, Prescription};
use gasf_core::sink::VecSink;
use gasf_core::time::Micros;
use gasf_net::{GroupId, NodeId};
use gasf_sources::{NamosBuoy, Trace};
use gasf_wire::codec::{canon_hash, canonical_emission};
use gasf_wire::StreamDigest;
use std::sync::Arc;

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::RegionGreedy,
    Algorithm::SelfInterested,
    Algorithm::PerCandidateSet,
];

const STRATEGIES: [OutputStrategy; 3] = [
    OutputStrategy::Earliest,
    OutputStrategy::PerCandidateSet,
    OutputStrategy::Batched(8),
];

/// The benchmark's overlapping roster: one attribute, granularities
/// spread from tight to loose, one small slack for all.
fn overlapping(trace: &Trace, n: usize) -> Vec<FilterSpec> {
    let s = trace.stats("tmpr4").unwrap().mean_abs_delta;
    (0..n)
        .map(|i| FilterSpec::delta("tmpr4", s * (3.0 + 0.25 * i as f64), s * 0.6))
        .collect()
}

/// Two tight filters on each of eight attributes.
fn fanout(trace: &Trace) -> Vec<FilterSpec> {
    let attrs = [
        "fluoro", "tmpr1", "tmpr2", "tmpr3", "tmpr4", "tmpr5", "tmpr6", "wind",
    ];
    (0..16)
        .map(|i| {
            let attr = attrs[i % 8];
            let s = trace.stats(attr).unwrap().mean_abs_delta;
            let k = (i / 8) as f64;
            FilterSpec::delta(attr, s * (2.2 + 0.9 * k), s * (0.5 + 0.3 * k))
        })
        .collect()
}

/// The four roster shapes, by workload name.
fn shapes(trace: &Trace) -> [(&'static str, Vec<FilterSpec>); 4] {
    let combos = overlapping(trace, 64);
    [
        ("wide-roster", overlapping(trace, 256)),
        ("fanout-wire", fanout(trace)),
        ("disorder-rows", overlapping(trace, 64)),
        (
            "churn-sharded",
            (0..512).map(|i| combos[i % combos.len()].clone()).collect(),
        ),
    ]
}

/// Samplers over two attributes next to a few delta filters: reservoir
/// samplers of degree 2 and 3 (unranked sets), stratified samplers that
/// keep the top or the bottom values (ranked sets, degree from the
/// stratum's rate), and delta filters whose sets overlap theirs.
fn samplers(trace: &Trace) -> Vec<FilterSpec> {
    let mut specs = Vec::new();
    for (i, attr) in ["tmpr4", "fluoro"].into_iter().enumerate() {
        let stats = trace.stats(attr).unwrap();
        let s = stats.mean_abs_delta;
        let window = Micros::from_millis(60 + 40 * i as u64);
        specs.extend([
            FilterSpec::reservoir(attr, window, 2),
            FilterSpec::reservoir(attr, Micros::from_millis(90), 3),
            FilterSpec::stratified_sample(attr, window, stats.mean, 40.0, 20.0)
                .with_prescription(Prescription::Top),
            FilterSpec::stratified_sample(attr, Micros::from_millis(120), stats.mean, 25.0, 50.0)
                .with_prescription(Prescription::Bottom),
            FilterSpec::delta(attr, s * 2.5, s * 0.6),
            FilterSpec::delta(attr, s * 4.0, s * 1.2),
        ]);
    }
    specs
}

/// One run's pinned values: the emission digest's count and hash, and
/// the metrics hash.
type Golden = (u64, u64, u64);

/// Hashes the metrics an input determines: every counter, both
/// histograms by count, sum, max and three quantiles, and every
/// per-filter counter. CPU times are left out.
fn metrics_hash(m: &EngineMetrics) -> u64 {
    let mut words: Vec<u64> = vec![
        m.input_tuples,
        m.output_tuples,
        m.emissions,
        m.recipient_labels,
        m.disordered_emissions,
        m.regions,
        m.regions_cut,
    ];
    let mut histogram = |h: &Histogram| {
        let sum = h.sum();
        words.extend([h.count(), sum as u64, (sum >> 64) as u64, h.max()]);
        words.extend([0.5, 0.9, 0.99].map(|q| h.quantile(q)));
    };
    histogram(&m.region_size);
    histogram(&m.latency_us);
    for f in &m.per_filter {
        words.extend([
            f.references,
            f.chosen,
            f.sets_closed,
            f.sets_cut,
            f.admitted,
            f.dismissed,
        ]);
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    canon_hash(&bytes)
}

fn run(
    trace: &Trace,
    specs: &[FilterSpec],
    algorithm: Algorithm,
    strategy: OutputStrategy,
) -> Golden {
    let mut engine = GroupEngine::builder(trace.schema().clone())
        .algorithm(algorithm)
        .output_strategy(strategy)
        .filters(specs.iter().cloned())
        .build()
        .unwrap();
    let mut sink = VecSink::new();
    for batch in trace.batches(256) {
        engine
            .push_batch_columnar(&Arc::new(batch), &mut sink)
            .unwrap();
    }
    engine.finish_into(&mut sink).unwrap();
    let mut digest = StreamDigest::default();
    let mut canon = Vec::new();
    for e in sink.into_vec() {
        canonical_emission(&mut canon, GroupId::from_raw(0), NodeId(0), &e);
        digest.update(&canon);
    }
    (digest.count, digest.hash, metrics_hash(engine.metrics()))
}

/// Recorded by the engine before vicinity sets were shared, in the order
/// shape × algorithm × strategy of [`shapes`], [`ALGORITHMS`] and
/// [`STRATEGIES`].
const GOLDEN: [Golden; 36] = [
    (812, 0x08aced1a93b05121, 0x9b2dbc01eeafa511), // wide-roster/RegionGreedy/Earliest
    (812, 0x08aced1a93b05121, 0x9b2dbc01eeafa511), // wide-roster/RegionGreedy/PerCandidateSet
    (812, 0x444c664f8c11d3fa, 0x369946c66121b1ae), // wide-roster/RegionGreedy/Batched(8)
    (994, 0x3e7ccdd4938d78f7, 0x94e722ba06784f0e), // wide-roster/SelfInterested/Earliest
    (994, 0x3e7ccdd4938d78f7, 0x94e722ba06784f0e), // wide-roster/SelfInterested/PerCandidateSet
    (994, 0x3e7ccdd4938d78f7, 0x94e722ba06784f0e), // wide-roster/SelfInterested/Batched(8)
    (812, 0xdfabae2c04b641bd, 0x8d5beff64c94c756), // wide-roster/PerCandidateSet/Earliest
    (895, 0x8850844c9b1de023, 0x92cf33e0f6d6addb), // wide-roster/PerCandidateSet/PerCandidateSet
    (834, 0xc3de49741076e097, 0xf0d8d2cc55f80564), // wide-roster/PerCandidateSet/Batched(8)
    (2358, 0x809be21f65a87573, 0x10db0197bcea169d), // fanout-wire/RegionGreedy/Earliest
    (2358, 0x809be21f65a87573, 0x10db0197bcea169d), // fanout-wire/RegionGreedy/PerCandidateSet
    (2358, 0x27902cc835353570, 0x50a4bf031d02751c), // fanout-wire/RegionGreedy/Batched(8)
    (2631, 0x2bcaad743380559f, 0x3baadcd8931cfe77), // fanout-wire/SelfInterested/Earliest
    (2631, 0x2bcaad743380559f, 0x3baadcd8931cfe77), // fanout-wire/SelfInterested/PerCandidateSet
    (2631, 0x2bcaad743380559f, 0x3baadcd8931cfe77), // fanout-wire/SelfInterested/Batched(8)
    (2356, 0x26472368f9542a86, 0xba9c9383c4816b60), // fanout-wire/PerCandidateSet/Earliest
    (3091, 0xc27f642e719f430b, 0x19eabf9722b450db), // fanout-wire/PerCandidateSet/PerCandidateSet
    (2479, 0x7728e90e409c520b, 0xb0ca68fd07d47633), // fanout-wire/PerCandidateSet/Batched(8)
    (807, 0x605784313a113844, 0xd67707e7973115cd), // disorder-rows/RegionGreedy/Earliest
    (807, 0x605784313a113844, 0xd67707e7973115cd), // disorder-rows/RegionGreedy/PerCandidateSet
    (807, 0xec4deefd3491ae15, 0x307e4140718cae2e), // disorder-rows/RegionGreedy/Batched(8)
    (974, 0x0814022ea090c863, 0x6183c94d15f0a176), // disorder-rows/SelfInterested/Earliest
    (974, 0x0814022ea090c863, 0x6183c94d15f0a176), // disorder-rows/SelfInterested/PerCandidateSet
    (974, 0x0814022ea090c863, 0x6183c94d15f0a176), // disorder-rows/SelfInterested/Batched(8)
    (807, 0x3eba8fa287106c7e, 0xfad82b30fda53965), // disorder-rows/PerCandidateSet/Earliest
    (884, 0xdabcbb4aaead341a, 0x172b7769c440b935), // disorder-rows/PerCandidateSet/PerCandidateSet
    (827, 0xe4f2a9d8eb95cf42, 0x107390c243d74b5b), // disorder-rows/PerCandidateSet/Batched(8)
    (807, 0xd730967ecdc95f88, 0xcade723d75380a97), // churn-sharded/RegionGreedy/Earliest
    (807, 0xd730967ecdc95f88, 0xcade723d75380a97), // churn-sharded/RegionGreedy/PerCandidateSet
    (807, 0xa71bd3958a802cef, 0x83c82ce2de76d51f), // churn-sharded/RegionGreedy/Batched(8)
    (974, 0x0b12c879988f60d7, 0x64e11c6e9b8fe18d), // churn-sharded/SelfInterested/Earliest
    (974, 0x0b12c879988f60d7, 0x64e11c6e9b8fe18d), // churn-sharded/SelfInterested/PerCandidateSet
    (974, 0x0b12c879988f60d7, 0x64e11c6e9b8fe18d), // churn-sharded/SelfInterested/Batched(8)
    (807, 0x6d57c44200881a84, 0x8d958411e0849d94), // churn-sharded/PerCandidateSet/Earliest
    (884, 0x7e4c5c19468908ab, 0x9f44199d9cae58f2), // churn-sharded/PerCandidateSet/PerCandidateSet
    (827, 0xf1724d62364e1d3f, 0xe008088eec82e79e), // churn-sharded/PerCandidateSet/Batched(8)
];

/// Recorded on `d5d41f4`, before the incremental greedy solver, in the
/// order algorithm × strategy of [`ALGORITHMS`] and [`STRATEGIES`].
const GOLDEN_SAMPLERS: [Golden; 9] = [
    (2831, 0x07038aa1b46f4e32, 0xdcd3f45cfe8234da), // samplers/RegionGreedy/Earliest
    (2831, 0x07038aa1b46f4e32, 0xdcd3f45cfe8234da), // samplers/RegionGreedy/PerCandidateSet
    (2831, 0x2af9a4835a2bbfb6, 0xae883cb849ca7974), // samplers/RegionGreedy/Batched(8)
    (4593, 0x1d3aedaef106d945, 0x9e5da3cfc8de95c5), // samplers/SelfInterested/Earliest
    (4593, 0x1d3aedaef106d945, 0x9e5da3cfc8de95c5), // samplers/SelfInterested/PerCandidateSet
    (4593, 0x1d3aedaef106d945, 0x9e5da3cfc8de95c5), // samplers/SelfInterested/Batched(8)
    (2854, 0x9abe21e816f03261, 0xc50c49bb7726ca68), // samplers/PerCandidateSet/Earliest
    (5720, 0x88ae0e0bb76bacb5, 0xbb437d26d8f4f304), // samplers/PerCandidateSet/PerCandidateSet
    (3807, 0x847f37f01054b51b, 0x2dfb61ee7783f2d1), // samplers/PerCandidateSet/Batched(8)
];

#[test]
fn every_run_reproduces_its_recorded_digest() {
    let trace = NamosBuoy::new().tuples(3_000).seed(1).generate();
    let mut got = Vec::new();
    for (shape, specs) in shapes(&trace) {
        for algorithm in ALGORITHMS {
            for strategy in STRATEGIES {
                let golden = run(&trace, &specs, algorithm, strategy);
                assert!(golden.0 > 0, "{shape}/{algorithm:?}/{strategy:?} emits");
                got.push((format!("{shape}/{algorithm:?}/{strategy:?}"), golden));
            }
        }
    }
    let table: String = (got.iter())
        .map(|(run, (n, h, m))| format!("    ({n}, {h:#018x}, {m:#018x}), // {run}\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "recorded table:\n{table}");
    for ((run, golden), want) in got.iter().zip(GOLDEN) {
        assert_eq!(*golden, want, "{run} moved; this build's table:\n{table}");
    }
}

#[test]
fn sampler_runs_reproduce_their_recorded_digests() {
    let trace = NamosBuoy::new().tuples(3_000).seed(1).generate();
    let specs = samplers(&trace);
    let mut got = Vec::new();
    for algorithm in ALGORITHMS {
        for strategy in STRATEGIES {
            let golden = run(&trace, &specs, algorithm, strategy);
            assert!(golden.0 > 0, "samplers/{algorithm:?}/{strategy:?} emits");
            got.push((format!("samplers/{algorithm:?}/{strategy:?}"), golden));
        }
    }
    let table: String = (got.iter())
        .map(|(run, (n, h, m))| format!("    ({n}, {h:#018x}, {m:#018x}), // {run}\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN_SAMPLERS.len(), "recorded table:\n{table}");
    for ((run, golden), want) in got.iter().zip(GOLDEN_SAMPLERS) {
        assert_eq!(*golden, want, "{run} moved; this build's table:\n{table}");
    }
}
