//! Subscriber churn: the live subscription control plane end to end.
//!
//! **Paper scenario:** the paper's premise is a *group* of subscribers
//! whose filters overlap — and its §4.8/§6.2 regrouping discussion
//! assumes membership that changes over time. A production system serving
//! millions of users is defined by churn: apps join mid-stream, greedy
//! consumers appear and must be isolated, requirements get retuned. This
//! demo drives one NAMOS buoy source through four phases *without ever
//! tearing the deployment down*: (1) two modest dashboards stream
//! steadily; (2) a greedy "raw-feed" app joins live and bloats the
//! multicast traffic; (3) `Middleware::regroup(BySelectivity)` isolates
//! it into its own engine at an epoch boundary (in-flight candidate sets
//! drain first); (4) one dashboard retunes its filter live and the greedy
//! app finally unsubscribes — its node leaves the Scribe tree, its
//! delivery stats survive in the report.
//!
//! **Knobs exercised:** `Middleware::{subscribe, unsubscribe,
//! resubscribe, regroup}` after `deploy()`, `SubscriptionHandle`-keyed
//! reports, `gasf::GroupingStrategy` via the facade re-export, and the
//! per-phase overlay byte accounting that shows the bandwidth recovered.
//!
//! ```text
//! cargo run --release --example subscriber_churn
//! ```

use gasf::GroupingStrategy;
use gasf_core::prelude::*;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{Middleware, SolarError};
use gasf_sources::NamosBuoy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = NamosBuoy::new().tuples(4_000).seed(11).generate();
    let s = trace.stats("tmpr4").expect("buoy attr").mean_abs_delta;
    let tuples = trace.tuples();
    println!(
        "subscriber churn over one live deployment ({} tuples)\n",
        tuples.len()
    );

    let mut mw = Middleware::new(Overlay::new(Topology::ring(9).build()));
    let src = mw.register_source("buoy", NodeId(0), trace.schema().clone())?;
    let dash1 = mw.subscribe(
        "dash1",
        NodeId(2),
        src,
        FilterSpec::delta("tmpr4", s * 3.0, s * 1.4),
    )?;
    let _dash2 = mw.subscribe(
        "dash2",
        NodeId(4),
        src,
        FilterSpec::delta("tmpr4", s * 2.5, s * 1.2),
    )?;
    mw.deploy()?;

    let mut phase_start_bytes = 0u64;
    let mut phase = |mw: &Middleware, label: &str, n_tuples: usize| -> f64 {
        let bytes = mw.overlay().total_bytes() - phase_start_bytes;
        phase_start_bytes = mw.overlay().total_bytes();
        let per_tuple = bytes as f64 / n_tuples as f64;
        println!("  {label:<44} {per_tuple:>8.1} bytes/tuple on the wire");
        per_tuple
    };

    // --- phase 1: steady state ------------------------------------
    mw.pipeline(src)?.push_batch(tuples[..1_000].to_vec())?;
    phase(&mw, "phase 1: two modest dashboards", 1_000);

    // --- phase 2: a greedy subscriber joins live --------------------
    let greedy = mw.subscribe(
        "raw-feed",
        NodeId(7),
        src,
        FilterSpec::delta("tmpr4", s * 0.3, s * 0.05),
    )?;
    mw.pipeline(src)?
        .push_batch(tuples[1_000..2_000].to_vec())?;
    let before = phase(&mw, "phase 2: greedy `raw-feed` joined mid-stream", 1_000);

    // --- phase 3: isolate it via live regrouping --------------------
    let parts = mw.regroup(src, GroupingStrategy::BySelectivity { isolate_above: 0.5 })?;
    println!(
        "  regroup(BySelectivity): {} engine part(s), greedy isolated: {}",
        parts.len(),
        parts.iter().any(|p| p == &vec![greedy]),
    );
    mw.pipeline(src)?
        .push_batch(tuples[2_000..3_000].to_vec())?;
    let isolated = phase(&mw, "phase 3: after BySelectivity regroup", 1_000);
    println!(
        "    -> regrouping recovered {:.0}% of the per-tuple bandwidth",
        (1.0 - isolated / before) * 100.0
    );

    // --- phase 4: retune one app, drop the greedy one ---------------
    mw.resubscribe(dash1, FilterSpec::delta("tmpr4", s * 5.0, s * 2.4))?;
    mw.unsubscribe(greedy)?;
    mw.pipeline(src)?.push_batch(tuples[3_000..].to_vec())?;
    mw.finish(src)?;
    let calm = phase(&mw, "phase 4: dash1 retuned, raw-feed gone", 1_000);
    println!(
        "    -> unsubscribe + retune recovered {:.0}% vs the churn peak",
        (1.0 - calm / before) * 100.0
    );

    // --- the report follows the subscriptions ----------------------
    let report = mw.report(src)?;
    println!(
        "\n  engine lifetime: {} inputs, {} outputs (O/I {:.3}), {} multicast messages",
        report.engine.input_tuples,
        report.engine.output_tuples,
        report.engine.oi_ratio(),
        report.messages
    );
    for app in &report.per_app {
        println!(
            "  {:<10} {:<9} {:>6} tuples delivered, mean e2e {:>7}",
            app.name,
            if app.active { "(live)" } else { "(left)" },
            app.tuples,
            app.mean_e2e_latency
        );
    }
    let gone = report
        .per_app
        .iter()
        .find(|a| a.handle == greedy)
        .expect("stats keyed by handle survive unsubscribe");
    assert!(!gone.active && gone.tuples > 0);

    // churn on an unknown handle still fails loudly
    assert!(matches!(
        mw.unsubscribe(greedy),
        Err(SolarError::NotSubscribed(_))
    ));
    println!("\n  one deployment, four rosters, zero teardowns.");
    Ok(())
}
