//! `bench` — the one benchmark command `BENCHMARK.json` declares.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
//! bench [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]   # all four, a child each
//! bench --compare OLD.json NEW.json
//! ```
//!
//! With `--workload` it runs that workload in this process, prints every
//! metric as `name workload value unit`, and ends with one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`): the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md`.

use gasf_perfbench::driver::{run_rep, Outcome, Phase, RepOpts, RepOut};
use gasf_perfbench::hist::Histogram;
use gasf_perfbench::report::{self, escape, num, Json, Metric};
use gasf_perfbench::workloads::{self, Inputs, Kind, Workload, WORKLOADS};
use gasf_perfbench::{layers, Res};
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Instant;

/// Where traces are written, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";
/// Stream length and per-phase repetitions of `--smoke`.
const SMOKE_TUPLES: usize = 20_000;
/// Share of `--seconds` the closed phase may use; the paced phase gets
/// the rest.
const CLOSED_SHARE: f64 = 0.45;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    /// Test hook: perturb the reference outcome so the check must fail.
    corrupt_reference: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
        corrupt_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => args.trace = value()?.parse::<u8>()? != 0,
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--smoke" => args.smoke = true,
            "--corrupt-reference" => args.corrupt_reference = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    Ok(args)
}

/// A field of `/proc/self/status` in MiB (`VmRSS`, `VmHWM`).
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one workload run produced.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Checks a repetition against the reference and books its rows.
struct Ledger {
    reference: Outcome,
    bytes_per_tuple: Option<f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
    setups: Vec<f64>,
    /// `backlog_rows` of every paced repetition.
    backlogs: Vec<f64>,
}

impl Ledger {
    fn book(&mut self, rep: &RepOut) {
        self.attempted += rep.tuples;
        self.failed += rep.rows_failed;
        self.setups.push(rep.setup.total_s);
        if rep.lag.count() > 0 {
            self.backlogs.push(rep.backlog_rows as f64);
        }
        let outcome = rep
            .outcome
            .as_ref()
            .expect("every repetition has an outcome");
        if *outcome != self.reference {
            self.correct = false;
            self.failed += outcome.missing(&self.reference);
        }
        // The data plane's byte count is part of the contract too.
        let bpt = rep.bytes as f64 / rep.tuples as f64;
        if *self.bytes_per_tuple.get_or_insert(bpt) != bpt {
            self.correct = false;
        }
    }
}

fn least(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::MAX, f64::min)
}

fn median_of(samples: &[f64]) -> f64 {
    report::Summary::of(samples).median
}

fn run_workload(w: &Workload, args: &Args) -> Res<RunResult> {
    let tuples = if args.smoke { SMOKE_TUPLES } else { w.tuples };
    let inputs = w.inputs(args.seed, tuples);
    let rss_after_gen = status_mib("VmRSS");
    let listener = match w.kind {
        Kind::FanoutWire => Some(TcpListener::bind("127.0.0.1:0")?),
        _ => None,
    };
    let rep = |phase, trace, reference| {
        let opts = RepOpts {
            phase,
            trace,
            reference,
        };
        run_rep(w, &inputs, opts, listener.as_ref())
    };

    let reference = rep(Phase::Closed, false, true)?;
    // Also the single-threaded, ungated, pre-sorted baseline of the job.
    println!(
        "reference_tuples_per_s {} {} tuples/s",
        w.name,
        num(reference.tuples as f64 / reference.wall_s)
    );
    let mut reference = reference.outcome.expect("reference outcome");
    if args.corrupt_reference {
        match &mut reference {
            Outcome::Overlay { network_bytes, .. } => *network_bytes += 1,
            Outcome::Wire(digests) => digests.values_mut().for_each(|d| d.hash ^= 1),
        }
    }
    let mut ledger = Ledger {
        reference,
        bytes_per_tuple: None,
        correct: true,
        attempted: 0,
        failed: 0,
        setups: Vec::new(),
        backlogs: Vec::new(),
    };
    if !args.smoke {
        // One untimed pass of the real deployment: caches, allocator and
        // the loopback path warm before anything is measured.
        ledger.book(&rep(Phase::Closed, false, false)?);
    }
    let paced_rep_s = tuples as f64 / w.rate;
    let paced_reps = if args.smoke {
        1
    } else {
        (((1.0 - CLOSED_SHARE) * args.seconds / paced_rep_s) as usize).max(1)
    };

    let metrics = if args.trace {
        traced(w, args, &inputs, &rep, &mut ledger)?
    } else {
        // Closed and paced repetitions alternate — a group of closed ones,
        // then one paced — so each phase's samples span the whole run and
        // a slow spell of the shared host lands on a minority of them.
        let mut rates = Vec::new();
        let mut p50 = Vec::new();
        let mut deliveries = Histogram::default();
        let clock = Instant::now();
        for group in 1..=paced_reps {
            let closed_until = CLOSED_SHARE * args.seconds * group as f64 / paced_reps as f64
                + paced_rep_s * (group - 1) as f64;
            while rates.len() < group
                || (!args.smoke && clock.elapsed().as_secs_f64() < closed_until)
            {
                let out = rep(Phase::Closed, false, false)?;
                ledger.book(&out);
                rates.push(out.tuples as f64 / out.wall_s);
            }
            let out = rep(Phase::Paced, false, false)?;
            ledger.book(&out);
            for quarter in &out.delivery_quarters {
                p50.push(quarter.quantile(0.5) / 1e3);
            }
            deliveries.merge(&out.delivery);
        }
        println!("delivery_samples {} {} count", w.name, deliveries.count());
        vec![
            Metric::new("tuples_per_s", "tuples/s", &rates),
            Metric::new("delivery_p50_us", "us", &p50),
            Metric::new(
                "bytes_per_tuple",
                "bytes",
                &[ledger.bytes_per_tuple.unwrap_or(0.0)],
            ),
            Metric::new("setup_s", "s", &ledger.setups),
            Metric::new("peak_rss_mb", "MiB", &[status_mib("VmHWM") - rss_after_gen]),
        ]
    };
    // A sustained overload leaves every paced repetition behind schedule;
    // one stall of the shared host leaves one. Only the former — a median
    // backlog above zero — fails the run. `--smoke` (cold 0.2 s phases)
    // and `--trace 1` (a single paced repetition, reported as
    // `loadgen.backlog_rows`) cannot tell the two apart and are exempt.
    let overloaded = !args.smoke && !args.trace && median_of(&ledger.backlogs) > 0.0;
    if overloaded {
        eprintln!("{}: the paced phase ended behind schedule", w.name);
    }
    Ok(RunResult {
        correct: ledger.correct && !overloaded,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    })
}

/// The `--trace 1` run: untraced/traced closed pairs, one traced paced
/// repetition, then the standalone replays.
fn traced(
    w: &Workload,
    args: &Args,
    inputs: &Inputs,
    rep: &dyn Fn(Phase, bool, bool) -> Res<RepOut>,
    ledger: &mut Ledger,
) -> Res<Vec<Metric>> {
    let clock = Instant::now();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    // The fastest traced repetition: on a host that runs uniformly slower
    // for spells at a time, the one least touched by it.
    let mut last: Option<RepOut> = None;
    // Alternate which side runs first so drift hits both alike.
    while last.is_none()
        || (!args.smoke && clock.elapsed().as_secs_f64() < CLOSED_SHARE * args.seconds)
    {
        for traced in [plain_s.len() % 2 == 1, plain_s.len() % 2 == 0] {
            let out = rep(Phase::Closed, traced, false)?;
            ledger.book(&out);
            if !traced {
                plain_s.push(out.wall_s);
                continue;
            }
            traced_s.push(out.wall_s);
            if last.as_ref().is_none_or(|best| out.wall_s < best.wall_s) {
                last = Some(out);
            }
        }
    }
    let closed = last.expect("at least one traced repetition");
    let paced = rep(Phase::Paced, true, false)?;
    ledger.book(&paced);
    let layers = layers::replay(w, inputs)?;
    write_spans(w, &closed)?;

    let tuples = closed.tuples as f64;
    let per_tuple = |ns: u64| ns as f64 / tuples;
    let median_u64 = |v: &[u64]| median_of(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
    let wall_ns = closed.wall_s * 1e9;
    let rooted_ns = closed.chunk_ns.iter().sum::<u64>() + closed.finish_ns;
    // The engine path the workload takes, and its dissemination, timed
    // standalone; what is left of the push spans is the middleware's own.
    let engine_ns = match w.kind {
        Kind::DisorderRows => layers.row_ns_per_tuple + layers.reorder_ns_per_tuple,
        _ => layers.columnar_ns_per_tuple,
    };
    let emissions = layers.emissions as f64;
    let transport_ns = match w.kind {
        Kind::FanoutWire => per_tuple(closed.send_ns + closed.flush_ns),
        _ => layers.multicast_ns_per_emission * emissions / tuples,
    };
    let self_ns = per_tuple(rooted_ns) - per_tuple(closed.connector_ns) - engine_ns - transport_ns;
    let boundary: Vec<u64> = closed
        .boundary_chunks
        .iter()
        .map(|&k| closed.chunk_ns[k])
        .collect();
    let boundary_push_us = if boundary.is_empty() {
        0.0
    } else {
        (median_u64(&boundary) - median_u64(&closed.chunk_ns)) / 1e3
    };
    let sub = closed.subscriber.as_ref();
    let accepted = match w.kind {
        Kind::WideRoster | Kind::DisorderRows => closed.ingest.accepted,
        _ => closed.tuples,
    };
    let m = &layers.engine;
    let one = |name, unit, value: f64| Metric::new(name, unit, &[value]);
    Ok(vec![
        one(
            "sources.replay.next_chunk_ns_per_tuple",
            "ns",
            per_tuple(closed.connector_ns),
        ),
        one(
            "core.event_time.reorder_ns_per_tuple",
            "ns",
            layers.reorder_ns_per_tuple,
        ),
        one("core.event_time.released", "count", closed.released as f64),
        one(
            "core.event_time.late_dropped",
            "count",
            closed.late_dropped as f64,
        ),
        one("core.plan.build_us", "us", layers.plan_build_us),
        one("core.plan.classes", "count", layers.plan_classes),
        one("core.plan.members", "count", layers.plan_members),
        one(
            "core.engine.columnar_ns_per_tuple",
            "ns",
            layers.columnar_ns_per_tuple,
        ),
        one(
            "core.engine.row_ns_per_tuple",
            "ns",
            layers.row_ns_per_tuple,
        ),
        one(
            "core.engine.greedy_ns_per_tuple",
            "ns",
            m.greedy_cpu.as_nanos() as f64 / tuples,
        ),
        one("core.engine.output_ratio", "ratio", m.oi_ratio()),
        one("core.engine.emissions", "count", m.emissions as f64),
        one(
            "core.engine.recipient_labels",
            "count",
            m.recipient_labels as f64,
        ),
        one("core.engine.regions", "count", m.regions as f64),
        one(
            "core.engine.mean_region_size",
            "count",
            m.mean_region_size(),
        ),
        one("core.shard.speedup", "ratio", layers.shard_speedup),
        one(
            "core.shard.overhead_ns_per_tuple",
            "ns",
            layers.shard_overhead_ns_per_tuple,
        ),
        one(
            "core.snapshot.checkpoint_us",
            "us",
            median_u64(&closed.checkpoint_ns) / 1e3,
        ),
        one("solar.middleware.self_ns_per_tuple", "ns", self_ns),
        one("solar.middleware.deploy_ms", "ms", closed.setup.deploy_ms),
        one("solar.regroup.regroup_ms", "ms", closed.setup.regroup_ms),
        one(
            "solar.middleware.control_op_us",
            "us",
            median_u64(&closed.control_op_ns) / 1e3,
        ),
        one("solar.middleware.boundary_push_us", "us", boundary_push_us),
        one(
            "solar.backpressure.throttled",
            "count",
            closed.ingest.throttled as f64,
        ),
        one("solar.middleware.accepted", "count", accepted as f64),
        one(
            "solar.middleware.dropped",
            "count",
            closed.ingest.dropped as f64,
        ),
        one(
            "net.multicast.send_ns_per_emission",
            "ns",
            layers.multicast_ns_per_emission,
        ),
        one(
            "net.multicast.bytes_per_emission",
            "bytes",
            layers.multicast_bytes_per_emission,
        ),
        one(
            "wire.tcp.send_ns_per_emission",
            "ns",
            closed.send_ns as f64 / (closed.sends as f64).max(1.0),
        ),
        one(
            "wire.tcp.flush_us_per_chunk",
            "us",
            closed.flush_ns as f64 / (closed.flushes as f64).max(1.0) / 1e3,
        ),
        one("wire.tcp.connect_ms", "ms", closed.setup.connect_ms),
        one(
            "wire.frame.encode_ns_per_emission",
            "ns",
            layers.encode_ns_per_emission,
        ),
        one(
            "wire.frame.decode_ns_per_frame",
            "ns",
            sub.map_or(0.0, |s| s.decode_ns as f64 / (s.frames as f64).max(1.0)),
        ),
        one(
            "wire.frame.bytes_per_emission",
            "bytes",
            layers.frame_bytes_per_emission,
        ),
        one("sub.busy_share", "ratio", sub.map_or(0.0, |s| s.busy_share)),
        one(
            "sub.delivery_p90_us",
            "us",
            paced.delivery.quantile(0.9) / 1e3,
        ),
        one(
            "sub.delivery_p99_us",
            "us",
            paced.delivery.quantile(0.99) / 1e3,
        ),
        one(
            "sub.delivery_max_us",
            "us",
            paced.delivery.max() as f64 / 1e3,
        ),
        one("loadgen.lag_p99_us", "us", paced.lag.quantile(0.99) / 1e3),
        one("loadgen.backlog_rows", "count", paced.backlog_rows as f64),
        one("loadgen.gen_s", "s", inputs.gen_s),
        one(
            "trace.overhead_pct",
            "%",
            (least(&traced_s) / least(&plain_s) - 1.0) * 100.0,
        ),
        one(
            "trace.unattributed_pct",
            "%",
            (wall_ns - rooted_ns as f64) / wall_ns * 100.0,
        ),
    ])
}

/// Writes the traced repetition's spans to `perfbench/out/trace-<workload>.json`.
fn write_spans(w: &Workload, rep: &RepOut) -> Res<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/trace-{}.json", w.name);
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        file,
        "{{\"workload\":\"{}\",\"unit\":\"ns\",\"spans\":[",
        w.name
    )?;
    for (i, s) in rep.spans.iter().enumerate() {
        let comma = if i + 1 == rep.spans.len() { "" } else { "," };
        writeln!(
            file,
            "{{\"name\":\"{}\",\"parent\":\"{}\",\"chunk\":{},\"start\":{},\"end\":{}}}{comma}",
            s.name, s.parent, s.chunk, s.start, s.end
        )?;
    }
    writeln!(file, "]}}")?;
    file.flush()?;
    Ok(())
}

/// The detailed record of one workload run (also what `--out` holds).
fn detail_json(w: &Workload, args: &Args, r: &RunResult) -> String {
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"tuples\":{},\"rate\":{},\"chunk_rows\":{},\"correct\":{},\"ops_attempted\":{},\"ops_failed\":{},\"metrics\":{{",
        w.name,
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        args.smoke,
        if args.smoke { SMOKE_TUPLES } else { w.tuples },
        num(w.rate),
        w.chunk_rows,
        r.correct,
        r.attempted,
        r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"q1\":{},\"q3\":{},\"n\":{},\"samples\":[{}]}}",
            m.name,
            num(m.summary.median),
            escape(m.unit),
            num(m.summary.q1),
            num(m.summary.q3),
            m.summary.n,
            m.samples.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",")
        );
    }
    s.push_str("}}");
    s
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn contract_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.summary.median),
                escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    )
}

fn single(w: &Workload, args: &Args) -> Res<ExitCode> {
    let result = run_workload(w, args)?;
    for m in &result.metrics {
        println!(
            "{} {} {} {}  (q1 {} q3 {} n {})",
            m.name,
            w.name,
            num(m.summary.median),
            m.unit,
            num(m.summary.q1),
            num(m.summary.q3),
            m.summary.n
        );
    }
    println!("ops_attempted {} {} count", w.name, result.attempted);
    println!("ops_failed {} {} count", w.name, result.failed);
    if let Some(path) = &args.out {
        std::fs::write(path, detail_json(w, args, &result))?;
    }
    println!("{}", contract_json(&result));
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: correctness check failed", w.name);
        ExitCode::FAILURE
    })
}

/// Every workload, each in a fresh child of this same executable, run
/// one after the other; their records joined under one fingerprint.
fn all(args: &Args) -> Res<ExitCode> {
    std::fs::create_dir_all(OUT_DIR)?;
    let exe = std::env::current_exe()?;
    let mut records = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let part = format!("{OUT_DIR}/part-{}-{}.json", w.name, u8::from(trace));
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", w.name, "--out", &part])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            ok &= child.status()?.success();
            records.push(std::fs::read_to_string(&part)?);
            std::fs::remove_file(&part)?;
        }
    }
    let combined = format!(
        "{{\"fingerprint\":{},\n\"workloads\":[\n{}\n]}}\n",
        report::fingerprint(args.seed),
        records.join(",\n")
    );
    match &args.out {
        Some(path) => std::fs::write(path, combined)?,
        None => print!("{combined}"),
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(old: &str, new: &str) -> Res<ExitCode> {
    let read = |path: &str| -> Res<Json> { Json::parse(&std::fs::read_to_string(path)?) };
    let (table, failed) = report::compare(&read("BENCHMARK.json")?, &read(old)?, &read(new)?)?;
    print!("{table}");
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run() -> Res<ExitCode> {
    let args = parse_args()?;
    if let Some((old, new)) = &args.compare {
        return compare(old, new);
    }
    match &args.workload {
        Some(name) => {
            let w = workloads::by_name(name).ok_or(format!("unknown workload {name}"))?;
            single(&w, &args)
        }
        None => all(&args),
    }
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::from(2)
    })
}
