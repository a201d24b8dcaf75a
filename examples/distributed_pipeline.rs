//! Distributed pipeline: the same middleware, a real wire underneath.
//!
//! Everything else in this workspace drains the engine's emissions into
//! the analytic overlay simulator. This demo swaps the transport under
//! the seam (`gasf_net::Transport`) for the `gasf-wire` length-prefixed
//! TCP transport and runs a whole deployment *inside one process*:
//! subscriber workers on threads, real localhost sockets between them,
//! per-peer connection multiplexing, and the distributed-equivalence
//! verdict at the end — every subscriber node received a stream
//! **byte-identical** to the in-process reference run, while per-link
//! bandwidth stays observable on both sides of the seam.
//!
//! For the multi-OS-process version of the same deployment, use the
//! control binary:
//!
//! ```text
//! cargo run --release -p gasf-wire --bin gasfctl -- \
//!     smoke examples/layouts/local3.toml --run-dir /tmp/gasf-local3
//! ```
//!
//! ```text
//! cargo run --release --example distributed_pipeline
//! ```

use gasf::wire::layout::HostLayout;
use gasf::wire::tcp::WireConfig;
use gasf::wire::worker::{run_source, run_subscriber};
use std::time::Duration;

const LAYOUT: &str = include_str!("layouts/local3.toml");

fn main() {
    let layout = HostLayout::from_toml(LAYOUT).expect("bundled layout parses");
    println!(
        "deployment {:?}: {} processes, {} overlay nodes, {} tuples",
        layout.name,
        layout.processes.len(),
        layout.total_nodes(),
        layout.workload.tuples,
    );

    let run_dir = std::env::temp_dir().join(format!("gasf-distributed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);

    // Subscriber workers: normally their own OS processes (gasfctl
    // spawns them); threads keep the demo self-contained. The protocol
    // between them is real TCP either way.
    let mut workers = Vec::new();
    for sub in layout.subscribers() {
        let (layout, id, dir) = (layout.clone(), sub.id, run_dir.clone());
        workers.push(std::thread::spawn(move || {
            run_subscriber(&layout, id, &dir, Duration::from_secs(120))
        }));
    }

    // The source: reference digest run, overlay baseline, then the wire
    // run + status collection + digest comparison.
    let outcome = run_source(&layout, &run_dir, WireConfig::default()).expect("deployment runs");
    for w in workers {
        w.join().expect("subscriber thread").expect("subscriber ok");
    }

    println!();
    println!(
        "wire transport: {} emission sends, {} bytes",
        outcome.wire_messages, outcome.wire_bytes
    );
    for link in &outcome.wire_links {
        println!("  {link}");
    }
    println!(
        "overlay baseline: {} bytes over {} simulated links",
        outcome.overlay_bytes,
        outcome.overlay_links.len()
    );

    println!();
    println!("per-node streams (count x stream hash), reference vs received:");
    for report in &outcome.received {
        for d in &report.per_node {
            let r = outcome.reference.get(&d.node).copied().unwrap_or_default();
            println!(
                "  node {} @ process {}: {} x {:016x}  |  {} x {:016x}",
                d.node, report.process, r.count, r.hash, d.count, d.hash
            );
        }
    }

    println!();
    assert!(outcome.equivalent, "mismatches: {:?}", outcome.mismatches);
    println!("EQUIVALENT: every subscriber node saw a byte-identical stream.");
    println!("full report: {}", run_dir.join("report.txt").display());
}
