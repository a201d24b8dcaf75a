//! Allocation guard for the steady-state per-tuple path: heap
//! allocations are counted, not timed, so the figures repeat on any host.
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`. It counts per thread, and process-wide for the
//! case whose work spans a shard worker thread; the file's tests run one
//! at a time (`serial`), so the process-wide count sees one case only.
//! The same allocator tracks each thread's live bytes, which gates the
//! middleware's heap and checkpoint size against stream length.

use gasf_core::batch::TupleBatch;
use gasf_core::bitset::FilterSet;
use gasf_core::candidate::FilterId;
use gasf_core::engine::{Algorithm, Emission, GroupEngine, GroupEngineBuilder};
use gasf_core::plan::CompiledRoster;
use gasf_core::quality::FilterSpec;
use gasf_core::schema::Schema;
use gasf_core::shard::ShardedEngine;
use gasf_core::sink::NullSink;
use gasf_core::time::Micros;
use gasf_net::{GroupId, NodeId, Overlay, Topology, Transport};
use gasf_solar::Middleware;
use gasf_sources::NamosBuoy;
use gasf_wire::{HostLayout, TcpTransport, WireConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

struct Counting;

thread_local! {
    /// Allocations and reallocations made by this thread (a plain
    /// `Cell` with no destructor, so the allocator may touch it at any
    /// point of the thread's life).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Allocations and reallocations made by every thread of the process
/// (a statistic: `Relaxed`, it publishes nothing else).
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

fn add_live(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters (thread-local and a static
// atomic) touch no memory the allocation hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            add_live(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        let grown = System.realloc(ptr, layout, new_size);
        // A failed realloc leaves the old block in place.
        if !grown.is_null() {
            add_live(new_size as i64 - layout.size() as i64);
        }
        grown
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// This thread's live bytes now (only differences mean anything).
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// [`allocations_during`] over every thread of the process.
fn process_allocations_during(f: impl FnOnce()) -> u64 {
    let before = PROCESS_ALLOCATIONS.load(Ordering::Relaxed);
    f();
    PROCESS_ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Serialises this file's tests, so a process-wide count sees only the
/// case that takes it. (A test that panicked while holding the lock left
/// nothing behind it, so a poisoned lock is taken over as is.)
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One overlay send allocates only the `Delivery::latencies` map it
/// returns — a single B-tree leaf for up to eleven recipients.
///
/// Measured: 1.00 allocation per send (124.0 before the per-send hash
/// maps, per-hop BFS paths and queue were replaced by resolved hops, a
/// node-indexed tree and stamped per-node scratch).
#[test]
fn overlay_send_allocates_only_its_delivery() {
    let _serial = serial();
    let mut overlay = Overlay::new(Topology::ring(9).build());
    let members: Vec<NodeId> = (0..9).map(NodeId).collect();
    let group = overlay.create_group("guard", &members).unwrap();
    let schema = gasf_core::schema::Schema::new(["t"]);
    let tuple = gasf_core::tuple::TupleBuilder::new(&schema)
        .at_millis(10)
        .set("t", 1.0)
        .build()
        .unwrap();
    let emission = Emission {
        tuple: Arc::new(tuple),
        recipients: (0..8).map(FilterId::from_index).collect::<FilterSet>(),
        emitted_at: gasf_core::time::Micros::from_millis(10),
    };
    let node_of = |f: FilterId| NodeId(f.index() as u32 + 1);
    let send = |overlay: &mut Overlay| {
        let delivery = overlay
            .multicast_emission(group, NodeId(0), &emission, node_of)
            .unwrap();
        assert_eq!(delivery.latencies.len(), 8);
    };
    // Warm-up: resolves every hop of the tree and sizes the scratch.
    send(&mut overlay);
    const SENDS: u64 = 1000;
    let allocations = allocations_during(|| {
        for _ in 0..SENDS {
            send(&mut overlay);
        }
    });
    assert!(
        allocations <= SENDS,
        "{allocations} allocations over {SENDS} sends (want at most one per send)"
    );
}

/// A warmed loopback `TcpTransport` send allocates only the
/// `Delivery::latencies` map it returns: the canonical bytes, the frame
/// and the per-peer node list reuse scratch, the peer buffer keeps its
/// capacity across flushes, and the sent digests are a node-indexed
/// table.
///
/// Measured: 1.00 allocation per send.
#[test]
fn tcp_send_allocates_only_its_delivery() {
    let _serial = serial();
    let layout = HostLayout::from_toml(
        r#"
[deployment]
name = "alloc-guard"
[[process]]
id = 0
role = "source"
addr = "127.0.0.1:0"
nodes = [0]
[[process]]
id = 1
role = "subscriber"
addr = "127.0.0.1:0"
nodes = [1, 2, 3]
"#,
    )
    .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let drain = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        std::io::copy(&mut stream, &mut std::io::sink()).unwrap()
    });
    let mut wire = TcpTransport::connect(&layout, 0, WireConfig::default(), |_| Ok(addr)).unwrap();
    let schema = gasf_core::schema::Schema::new(["t", "u"]);
    let tuple = gasf_core::tuple::TupleBuilder::new(&schema)
        .at_millis(10)
        .set("t", 1.0)
        .set("u", 2.0)
        .build()
        .unwrap();
    let emission = Emission {
        tuple: Arc::new(tuple),
        recipients: (0..6).map(FilterId::from_index).collect::<FilterSet>(),
        emitted_at: gasf_core::time::Micros::from_millis(10),
    };
    let nodes = [NodeId(1), NodeId(2), NodeId(3)];
    let group = GroupId::from_raw(7);
    let send = |wire: &mut TcpTransport| {
        let delivery = wire
            .send_to_nodes(group, NodeId(0), &emission, &nodes, &mut |f| {
                NodeId(f.index() as u32 / 2 + 1)
            })
            .unwrap();
        assert_eq!(delivery.latencies.len(), 3);
    };
    // Warm-up: well past one flush of the peer buffer, which then keeps
    // its capacity.
    const SENDS: u64 = 1000;
    for _ in 0..SENDS {
        send(&mut wire);
    }
    let allocations = allocations_during(|| {
        for _ in 0..SENDS {
            send(&mut wire);
        }
    });
    drop(wire);
    assert!(drain.join().unwrap() > 0, "the peer received the frames");
    println!(
        "loopback tcp send: {:.3} allocations per send",
        allocations as f64 / SENDS as f64
    );
    assert!(
        allocations <= SENDS,
        "{allocations} allocations over {SENDS} sends (want at most one per send)"
    );
}

const WARM_UP: usize = 16;
const MEASURED: usize = 64;
const ROWS: usize = 1024;

/// The seed-1 Namos trace in 1024-row batches, and a maker of the
/// region-greedy engine builder over `specs(step)` — `step` is the
/// trace's mean |Δ| on the filtered attribute.
fn steady_state_input(
    specs: impl Fn(f64) -> Vec<FilterSpec>,
) -> (Vec<Arc<TupleBatch>>, impl Fn() -> GroupEngineBuilder) {
    let trace = NamosBuoy::new()
        .tuples((WARM_UP + MEASURED) * ROWS)
        .seed(1)
        .generate();
    let step = trace.stats("tmpr4").expect("namos attr").mean_abs_delta;
    let (schema, specs) = (trace.schema().clone(), specs(step));
    let builder = move || {
        GroupEngine::builder(schema.clone())
            .algorithm(Algorithm::RegionGreedy)
            .filters(specs.clone())
    };
    let batches = trace.batches(ROWS).into_iter().map(Arc::new).collect();
    (batches, builder)
}

/// Drives `specs(step)` through the columnar engine and returns
/// (allocations, emissions) per tuple over 64 × 1024 rows after a
/// 16 × 1024-row warm-up.
fn columnar_steady_state(specs: impl Fn(f64) -> Vec<FilterSpec>) -> (f64, f64) {
    let (batches, builder) = steady_state_input(specs);
    let mut engine = builder().build().unwrap();
    let (warm_up, measured) = batches.split_at(WARM_UP);
    for batch in warm_up {
        engine.push_batch_columnar(batch, &mut NullSink).unwrap();
    }
    let emitted = engine.metrics().emissions;
    let allocations = allocations_during(|| {
        for batch in measured {
            engine.push_batch_columnar(batch, &mut NullSink).unwrap();
        }
    });
    let tuples = (MEASURED * ROWS) as f64;
    (
        allocations as f64 / tuples,
        (engine.metrics().emissions - emitted) as f64 / tuples,
    )
}

/// Process-wide allocations per tuple of `specs` hosted by a plain
/// `GroupEngine` and behind a single-route sharded engine at
/// `parallelism` (0: no worker, the shard runs on the caller thread).
/// Each window opens right after a safe point crossed at the end of the
/// warm-up (for the sharded engine a checkpoint, which also leaves a
/// worker idle) and closes after `finish_into`, so it holds exactly the
/// measured batches and the finish, on either host.
fn inline_and_sharded(specs: impl Fn(f64) -> Vec<FilterSpec>, parallelism: usize) -> (f64, f64) {
    let (batches, builder) = steady_state_input(specs);
    let (warm_up, measured) = batches.split_at(WARM_UP);
    let tuples = (MEASURED * ROWS) as f64;
    let mut inline = builder().build().unwrap();
    for batch in warm_up {
        inline.push_batch_columnar(batch, &mut NullSink).unwrap();
    }
    inline.snapshot_into(&mut NullSink).unwrap();
    let inline_allocations = process_allocations_during(|| {
        for batch in measured {
            inline.push_batch_columnar(batch, &mut NullSink).unwrap();
        }
        inline.finish_into(&mut NullSink).unwrap();
    });
    let mut sharded = ShardedEngine::builder()
        .parallelism(parallelism)
        .route("roster", builder())
        .build()
        .unwrap();
    for batch in warm_up {
        sharded.push_batch_columnar(batch, &mut NullSink).unwrap();
    }
    sharded.checkpoint(&mut NullSink).unwrap();
    let sharded_allocations = process_allocations_during(|| {
        for batch in measured {
            sharded.push_batch_columnar(batch, &mut NullSink).unwrap();
        }
        sharded.finish_into(&mut NullSink).unwrap();
    });
    (
        inline_allocations as f64 / tuples,
        sharded_allocations as f64 / tuples,
    )
}

/// The overlapping roster of perfbench's wide-roster workload: `n`
/// deltas on one attribute, granularities spread from tight to loose,
/// fixed small slack.
fn overlapping(step: f64, n: usize) -> Vec<FilterSpec> {
    (0..n)
        .map(|i| FilterSpec::delta("tmpr4", step * (3.0 + 0.25 * i as f64), step * 0.6))
        .collect()
}

/// The columnar engine path over the 256-filter overlapping roster stays
/// under a pinned allocations-per-tuple ceiling.
///
/// Measured: 0.828 allocations per tuple (1.101 while a materialised
/// row collected a `Vec` that the tuple then copied into its own slice;
/// 1.110 before filters that take a reference together shared one
/// vicinity set and the self-interested path recycled its sets; 26.139
/// before the flat cohort table, the scratch-reusing region solve and
/// the recycling of closed sets' lists). What is left is per emission
/// (0.27 per tuple here): the materialised payload and the recipient
/// set. Moving the pending outputs out of a `BTreeMap` and a `BTreeSet`
/// into the tuple pool's slots left the figure unchanged: a tree drained
/// to empty keeps its root leaf, so neither had allocated in the steady
/// state. The ceiling is 1.5× the measurement.
#[test]
fn columnar_engine_stays_under_its_allocation_ceiling() {
    let _serial = serial();
    const CEILING_PER_TUPLE: f64 = 1.24;
    let (per_tuple, _) = columnar_steady_state(|step| overlapping(step, 256));
    println!("columnar engine: {per_tuple:.3} allocations per tuple");
    assert!(
        per_tuple <= CEILING_PER_TUPLE,
        "{per_tuple:.3} allocations per tuple (ceiling {CEILING_PER_TUPLE})"
    );
}

/// Four copies of each of 64 specs cost the allocator what the 64 specs
/// cost, plus what their wider labels cost per emission: the copies are
/// folded into the 64 members and never evaluated, so nothing per tuple
/// may grow with them.
///
/// Measured: 0.820 allocations per tuple for both rosters at 0.272
/// emissions per tuple (1.093 before a materialised row took one
/// allocation instead of two; 1.099 before shared vicinity sets;
/// unchanged by the move of the pending outputs into the tuple pool) —
/// 0.000 more
/// per emission (a recipient set over
/// 256 slots is four blocks, inside the first allocation a set makes).
/// Unfolded, the copies cost 1.128: 0.103 more per emission, from the
/// region lists and solver buffers four times the sets grew. The
/// allowance is 0.05 per emission.
#[test]
fn folded_twins_allocate_per_emission_only() {
    let _serial = serial();
    const EXTRA_PER_EMISSION: f64 = 0.05;
    let (solo, solo_emissions) = columnar_steady_state(|step| overlapping(step, 64));
    let (twins, emissions) = columnar_steady_state(|step| {
        let distinct = overlapping(step, 64);
        (0..256).map(|i| distinct[i % 64].clone()).collect()
    });
    println!(
        "64 specs: {solo:.3} allocations per tuple; 4 x 64: {twins:.3} \
         ({emissions:.3} emissions per tuple, {:.3} more allocations per emission)",
        (twins - solo) / emissions
    );
    assert_eq!(
        emissions, solo_emissions,
        "copies change who is told, not what is sent"
    );
    assert!(
        twins <= solo + EXTRA_PER_EMISSION * emissions,
        "{twins:.3} allocations per tuple against {solo:.3} for the distinct specs: \
         {:.3} more per emission (allowance {EXTRA_PER_EMISSION})",
        (twins - solo) / emissions
    );
}

/// A single-route sharded engine adds next to nothing per tuple to the
/// engine it hosts: with one worker (caller and worker together) and with
/// none (the shard on the caller thread, as the middleware runs every
/// part at parallelism 1), it stays within 0.05 allocations per tuple of
/// a plain `GroupEngine`, on the 256-filter roster.
///
/// Measured: 0.847 allocations per tuple for the plain engine, 0.850
/// behind a worker and inline alike (+0.003: each batch's two reply
/// vectors; 1.120 and 1.123 before a materialised row took one
/// allocation instead of two, 1.146 and 1.149 before shared vicinity
/// sets).
/// Before the flat replies a worker cost 1.562 (+0.416): every emitting
/// row's emissions left in a `Vec` taken from the engine's release
/// buffer, which then regrew it, and were pushed onto a per-row step
/// vector that allocated too.
#[test]
fn sharded_engine_adds_nothing_per_tuple() {
    const EXTRA_PER_TUPLE: f64 = 0.05;
    let _serial = serial();
    for parallelism in [1, 0] {
        let (plain, sharded) = inline_and_sharded(|step| overlapping(step, 256), parallelism);
        println!(
            "sharded engine at parallelism {parallelism}: {sharded:.3} allocations per tuple \
             (plain {plain:.3})"
        );
        assert!(
            sharded <= plain + EXTRA_PER_TUPLE,
            "{sharded:.3} allocations per tuple at parallelism {parallelism} against \
             {plain:.3} (allowance {EXTRA_PER_TUPLE})"
        );
    }
}

/// Compiling a roster allocates per distinct member and per class, not
/// per filter: 512 one-attribute delta filters, 64 specs × 8 (the roster
/// of perfbench's churn-sharded workload), which the engine recompiles at
/// every build, restore and epoch boundary.
///
/// Measured: 0.22 allocations per filter (0.20 before the delta arena
/// kept each member's vicinity leader and followers, two more columns
/// that grow by doubling; 19.20 while lowering also built and normalised
/// a boxed admission-predicate tree for every filter, which nothing
/// executed). The ceiling is 1.5× the 0.20 it was set at.
#[test]
fn roster_compile_stays_under_its_allocation_ceiling() {
    const CEILING_PER_FILTER: f64 = 0.30;
    let _serial = serial();
    let trace = NamosBuoy::new().tuples(ROWS).seed(1).generate();
    let step = trace.stats("tmpr4").expect("namos attr").mean_abs_delta;
    let distinct = overlapping(step, 64);
    let roster: Vec<FilterSpec> = (0..512).map(|i| distinct[i % 64].clone()).collect();
    let mut compiled = None;
    let allocations = allocations_during(|| {
        compiled = Some(
            CompiledRoster::compile(
                (0..).map(FilterId::from_index).zip(&roster),
                trace.schema(),
                Algorithm::RegionGreedy,
            )
            .unwrap(),
        );
    });
    let compiled = compiled.unwrap();
    assert_eq!(
        (compiled.member_count(), compiled.distinct_members()),
        (512, 64)
    );
    let per_filter = allocations as f64 / roster.len() as f64;
    println!("roster compile: {per_filter:.2} allocations per filter");
    assert!(
        per_filter <= CEILING_PER_FILTER,
        "{per_filter:.2} allocations per filter (ceiling {CEILING_PER_FILTER})"
    );
}

/// Rows per batch of the live-bytes gate's stream.
const GATE_ROWS: usize = 1024;

/// Drives a six-subscription middleware (parallelism 1: every part runs
/// on this thread, which is what the live-bytes counter sees) over
/// `tuples` rows of a one-attribute stream, made batch by batch so the
/// stream is never held whole. One subscription joins and one leaves
/// early; every 8th batch retunes a subscription, every 16th is followed
/// by a checkpoint. Returns the middleware's live heap after the last
/// batch and the heap one more `checkpoint()`'s snapshot holds.
fn middleware_footprint(tuples: usize) -> (i64, i64) {
    let schema = Schema::new(["t"]);
    let spec = |k: usize, retuned: bool| {
        let slack = 2.0 + 0.5 * k as f64 + if retuned { 1.5 } else { 0.0 };
        FilterSpec::delta("t", 8.0 + 3.0 * k as f64, slack)
    };
    let base = live_bytes();
    let mut mw = Middleware::new(Overlay::new(Topology::ring(8).build()));
    let src = mw.register_source("s", NodeId(0), schema.clone()).unwrap();
    let subs: Vec<_> = (0..6)
        .map(|k| {
            let node = NodeId(1 + k as u32);
            mw.subscribe(format!("a{k}"), node, src, spec(k, false))
                .unwrap()
        })
        .collect();
    mw.deploy().unwrap();
    for (b, start) in (0..tuples).step_by(GATE_ROWS).enumerate() {
        let rows = start..(start + GATE_ROWS).min(tuples);
        let ts = rows.clone().map(|i| Micros(10_000 * (i as u64 + 1)));
        let t = rows
            .clone()
            .map(|i| (i as f64 * 0.7).sin() * 40.0 + (i % 4096) as f64 * 0.01);
        let batch =
            TupleBatch::from_columns(&schema, start as u64, ts.collect(), vec![t.collect()]);
        let batch = Arc::new(batch.unwrap());
        mw.pipeline(src).unwrap().push_columnar(&batch).unwrap();
        if b == 2 {
            let _ = mw
                .subscribe("late", NodeId(7), src, spec(6, false))
                .unwrap();
        }
        if b == 4 {
            mw.unsubscribe(subs[0]).unwrap();
        }
        if b % 8 == 7 {
            let k = 1 + b / 8 % 5;
            mw.resubscribe(subs[k], spec(k, b / 8 % 2 == 0)).unwrap();
        }
        if b % 16 == 15 {
            drop(mw.checkpoint().unwrap());
        }
    }
    let live = live_bytes() - base;
    let snapshot = mw.checkpoint().unwrap();
    let held = live_bytes();
    drop(snapshot);
    (live, held - live_bytes())
}

/// A long-running middleware's heap and its checkpoints do not grow with
/// the stream: over ten times the tuples (with ten times the retunes and
/// checkpoints), the live heap after the run and the heap one
/// checkpoint's snapshot holds stay within `FLAT_BYTES` of the short
/// run's. Metrics are one lifetime accumulator of fixed-footprint
/// histograms, so nothing is kept per emission, per region or per epoch.
///
/// Measured (10⁵ → 10⁶ tuples): live heap 164 634 → 159 898 bytes, one
/// snapshot 11 886 → 12 182 bytes. When the engine kept one latency per
/// emission and one size per region, archived one `EngineMetrics` per
/// epoch and cloned the archive into every snapshot, the same runs read
/// 1 799 002 → 16 242 490 and 1 206 374 → 11 931 494 bytes.
#[test]
fn middleware_heap_and_checkpoints_stay_flat_over_stream_length() {
    const FLAT_BYTES: i64 = 32 * 1024;
    let _serial = serial();
    let (short_live, short_checkpoint) = middleware_footprint(100_000);
    let (long_live, long_checkpoint) = middleware_footprint(1_000_000);
    println!(
        "middleware live heap {short_live} -> {long_live} bytes, one checkpoint \
         {short_checkpoint} -> {long_checkpoint} bytes (1e5 -> 1e6 tuples)"
    );
    assert!(
        long_live <= short_live + FLAT_BYTES,
        "live heap grew with the stream: {short_live} -> {long_live} bytes"
    );
    assert!(
        long_checkpoint <= short_checkpoint + FLAT_BYTES,
        "a checkpoint grew with the stream: {short_checkpoint} -> {long_checkpoint} bytes"
    );
}
