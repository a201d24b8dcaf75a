//! Failover: checkpoint/restore fault tolerance, end to end.
//!
//! **Paper scenario:** the middleware is meant to run *long-lived* on a
//! Scribe-style overlay where brokers crash, subscriber hosts die and
//! filter workers get recycled — Solar's deployments measured in months,
//! not trace replays. This demo drives all three recovery layers without
//! losing determinism: (1) a sharded engine streams a NAMOS buoy trace and
//! takes a safe-point **checkpoint barrier**, whose snapshot restores a
//! **whole new engine** after a simulated process crash, which replays
//! the suffix to the identical tail — the same recovery a dead worker
//! shard gets, since workers are fail-stop; (2) a live middleware
//! deployment survives a **failed interior overlay node** (Scribe
//! re-graft; every subscriber keeps receiving) and (3) a middleware
//! **crash + recover** that continues per-app delivery reports under the
//! same stable handles.
//!
//! **Knobs exercised:** `ShardedEngine::{push_batch_columnar, checkpoint,
//! restore}`, `GroupEngine::{snapshot_into, restore}`,
//! `Overlay::{fail_node, recover_node}` + `Delivery::repair_bytes`,
//! `Middleware::{checkpoint, recover, fail_node}`.
//!
//! ```text
//! cargo run --release --example failover
//! ```

use gasf_core::prelude::*;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{Middleware, MiddlewareConfig};
use gasf_sources::NamosBuoy;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = NamosBuoy::new().tuples(3_000).seed(13).generate();
    let s = trace.stats("tmpr4").expect("buoy attr").mean_abs_delta;
    let tuples = trace.tuples();
    // The sharded engine takes the stream in batches: 64 rows per push.
    let feed = |engine: &mut ShardedEngine, rows: &[Tuple], out: &mut VecSink| {
        for chunk in rows.chunks(64) {
            let batch = TupleBatch::from_tuples(trace.schema(), chunk)?;
            engine.push_batch_columnar(&Arc::new(batch), out)?;
        }
        Ok::<(), gasf_core::Error>(())
    };
    let group = || {
        GroupEngine::builder(trace.schema().clone())
            .filter(FilterSpec::delta("tmpr4", s * 2.0, s))
            .filter(FilterSpec::delta("tmpr4", s * 3.0, s * 1.4))
            .filter(FilterSpec::delta("tmpr4", s * 2.5, s * 1.2))
    };

    // ------------------------------------------------------------------
    // 1. whole-process crash: persist the checkpoint, restore, replay
    // ------------------------------------------------------------------
    println!("1. process crash + EngineSnapshot restore (checkpoint @1500)");
    let mut engine = ShardedEngine::builder()
        .parallelism(2)
        .route("buoy", group())
        .build()?;
    let mut pre = VecSink::new();
    feed(&mut engine, &tuples[..1_500], &mut pre)?;
    let snapshot = engine.checkpoint(&mut pre)?;
    let mut post = VecSink::new();
    feed(&mut engine, &tuples[1_500..], &mut post)?;
    engine.finish_into(&mut post)?;
    drop(engine); // "the process dies" — only the snapshot survives

    let mut restored = ShardedEngine::restore(&snapshot)?;
    let mut replayed = VecSink::new();
    feed(&mut restored, &tuples[1_500..], &mut replayed)?;
    restored.finish_into(&mut replayed)?;
    assert_eq!(replayed.as_slice(), post.as_slice());
    println!(
        "   snapshot @{} tuples ({} route(s)) → restored engine replayed {} emissions, \
         byte-identical ✔\n",
        snapshot.input_tuples(),
        snapshot.routes(),
        replayed.len()
    );

    // ------------------------------------------------------------------
    // 2. overlay node failure + middleware crash/recover
    // ------------------------------------------------------------------
    println!("2. overlay self-repair + middleware recover (ring of 9)");
    let mut mw = Middleware::with_config(
        Overlay::new(Topology::ring(9).build()),
        MiddlewareConfig::default(),
    );
    let src = mw.register_source("buoy", NodeId(0), trace.schema().clone())?;
    for (name, node) in [("dash", 2u32), ("logger", 4), ("alarm", 6)] {
        let _ = mw.subscribe(
            name,
            NodeId(node),
            src,
            FilterSpec::delta("tmpr4", s * 2.0, s),
        )?;
    }
    mw.deploy()?;
    mw.pipeline(src)?.push_batch(tuples[..1_000].to_vec())?;

    // an interior forwarder dies; Scribe re-grafts its children
    let mut repair = gasf_net::RepairReport::default();
    for forwarder in [1u32, 3, 5] {
        let r = mw.fail_node(NodeId(forwarder))?;
        repair.regrafts += r.regrafts;
        repair.reroots += r.reroots;
        repair.control_bytes += r.control_bytes;
    }
    println!(
        "   failed forwarders n1/n3/n5 → {} re-graft(s), {} re-root(s), {} control bytes",
        repair.regrafts, repair.reroots, repair.control_bytes
    );
    mw.pipeline(src)?
        .push_batch(tuples[1_000..2_000].to_vec())?;

    // checkpoint, crash, recover on a fresh overlay, finish the stream
    let snap = mw.checkpoint()?;
    drop(mw); // middleware process dies
    let mut mw = Middleware::recover(Overlay::new(Topology::ring(9).build()), &snap)?;
    mw.pipeline(src)?.push_batch(tuples[2_000..].to_vec())?;
    mw.finish(src)?;
    let report = mw.report(src)?;
    println!(
        "   recovered middleware finished the stream: O/I {:.3}, {} subscriptions continued",
        report.engine.oi_ratio(),
        report.per_app.len()
    );
    for app in &report.per_app {
        assert!(app.tuples > 0, "{} lost its deliveries", app.name);
        println!(
            "     {:>6}  {:>5} tuples  mean e2e {:>7.1} ms  (handle {} preserved)",
            app.name,
            app.tuples,
            app.mean_e2e_latency.as_millis_f64(),
            app.handle
        );
    }
    println!("\nall three recovery layers held the determinism contract ✔");
    Ok(())
}
