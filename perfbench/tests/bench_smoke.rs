//! Keeps the benchmark building and `BENCHMARK.json` in step with what
//! the `bench` binary emits: a `--smoke` run of every workload must print
//! exactly the declared workload and metric names, and a run whose
//! reference is corrupted must fail its correctness check.

use gasf_perfbench::report::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// Runs the binary from the repository root, as the driver does.
fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("bench runs")
}

fn names(list: &Json) -> Vec<String> {
    list.arr()
        .iter()
        .map(|m| m.get("name").and_then(Json::str).expect("name").to_string())
        .collect()
}

#[test]
fn smoke_emits_exactly_the_declared_workloads_and_metrics() {
    let declared =
        Json::parse(&std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap()).unwrap();
    let started = std::time::Instant::now();
    let out_file = "perfbench/out/smoke-test.json";
    let run = bench(&["--smoke", "--trace", "1", "--out", out_file]);
    assert!(
        run.status.success(),
        "smoke run failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 15,
        "smoke must stay under 15 s"
    );
    let result =
        Json::parse(&std::fs::read_to_string(repo_root().join(out_file)).unwrap()).unwrap();
    assert!(result.get("fingerprint").unwrap().get("nproc").is_some());

    let metric_names = |record: &Json| -> Vec<String> {
        match record.get("metrics").expect("metrics") {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("metrics is not an object: {other:?}"),
        }
    };
    let records = result.get("workloads").unwrap().arr();
    let mut seen = Vec::new();
    // Per workload: the untraced record, then the traced one.
    for pair in records.chunks(2) {
        let name = pair[0].get("workload").and_then(Json::str).unwrap();
        assert_eq!(pair[1].get("workload").and_then(Json::str), Some(name));
        seen.push(name.to_string());
        assert_eq!(
            metric_names(&pair[0]),
            names(declared.get("end_to_end").unwrap()),
            "{name}: end-to-end metrics"
        );
        assert_eq!(
            metric_names(&pair[1]),
            names(declared.get("per_layer").unwrap()),
            "{name}: per-layer metrics"
        );
        for record in pair {
            assert_eq!(record.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert_eq!(
                record.get("ops_failed").and_then(Json::f64),
                Some(0.0),
                "{name}"
            );
        }
    }
    assert_eq!(seen, names(declared.get("workloads").unwrap()));
}

#[test]
fn corrupted_reference_fails_the_check() {
    for workload in ["fanout-wire", "wide-roster"] {
        let run = bench(&["--workload", workload, "--smoke", "--corrupt-reference"]);
        assert!(!run.status.success(), "{workload} must exit non-zero");
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
        assert_eq!(last.get("correct"), Some(&Json::Bool(false)), "{workload}");
        assert!(last.get("failed").and_then(Json::f64).unwrap() > 0.0);
    }
}

#[test]
fn contract_line_has_exactly_the_four_keys() {
    let run = bench(&[
        "--workload",
        "disorder-rows",
        "--smoke",
        "--seed",
        "3",
        "--trace",
        "0",
    ]);
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let Json::Obj(fields) = Json::parse(stdout.lines().last().unwrap()).unwrap() else {
        panic!("last line is not a JSON object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}
