//! The million-subscriber soak harness (§1's millions-of-users claim).
//!
//! The paper's north-star is "heavy traffic from millions of users"
//! served cheaply because applications state quality slack the system
//! may exploit under pressure. This module proves that end-to-end
//! instead of inferring it from per-layer timings: one [`run_soak`] drives
//! the **sharded + distributed path** — a [`Middleware`] over a 1024-node
//! grid overlay with worker shards, a bounded ingress
//! ([`CreditGate`](gasf_solar::CreditGate)) and a quality-aware
//! [`Shedder`](gasf_solar::Shedder) — under ≥10⁶ synthetic
//! subscriptions, subscription churn and an injected forwarder fault,
//! and reports:
//!
//! * **p50/p99 delivery latency** from the per-source
//!   [`Histogram`](gasf_core::metrics::Histogram) (fixed-footprint, so a
//!   million subscribers cost at most a few thousand counters, not
//!   gigabytes of samples; quantiles within 1.6 %), and
//! * **bytes saved vs. naive multicast** — the overlay's measured wire
//!   bytes against the no-sharing baseline that unicasts *every* input
//!   tuple to *every* subscriber along underlay shortest paths.
//!
//! The stream runs through three deterministic pressure phases:
//!
//! 1. **calm** — credits replenished to capacity before every batch;
//!    the shedder sees only full admissions and never moves;
//! 2. **pressure** — a starvation schedule grants only a trickle, so
//!    every batch needs several partial (`Throttled`) pushes; sustained
//!    throttling climbs the degradation ladder and retunes every
//!    subscription that declared [`ShedHeadroom`] — inside its slack,
//!    counted, reversible;
//! 3. **recovery** — the tail of the trace arrives through the
//!    *connector seam* ([`ArrivalReplay`] driven by
//!    [`Middleware::ingest`] under [`GrantPolicy::Adaptive`]); calm
//!    admissions restore every degraded subscription to rung 0.
//!
//! `GASF_BENCH_SMOKE=1` selects the 10⁴-subscription smoke sizing used
//! by CI ([`SoakConfig::from_env`]); the one full [`SoakConfig::million`]
//! run on record is in `docs/ARCHITECTURE.md`'s "soak layer" bullet
//! (single-vCPU caveat — wall-clock there is one core doing the work of
//! a cluster).

use gasf_core::batch::TupleBatch;
use gasf_core::engine::{Algorithm, OutputStrategy};
use gasf_core::quality::FilterSpec;
use gasf_core::schema::Schema;
use gasf_core::shed::ShedHeadroom;
use gasf_net::{NodeId, Overlay, Topology};
use gasf_solar::{
    GrantPolicy, IngestOptions, Middleware, MiddlewareConfig, Offer, ShedConfig, SolarError,
    SourceId, SubscriptionHandle,
};
use gasf_sources::{ArrivalReplay, NamosBuoy, Trace};
use std::sync::Arc;

/// Sizing and pressure schedule for one soak run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakConfig {
    /// Synthetic subscriptions installed before deploy.
    pub subscriptions: usize,
    /// Input tuples streamed through the source.
    pub tuples: usize,
    /// Overlay grid dimensions (`w × h` nodes; node 0 hosts the source).
    pub grid: (usize, usize),
    /// Worker shards per filter group (the sharded path).
    pub parallelism: usize,
    /// Distinct filter-spec combos the subscriptions cycle through.
    pub spec_combos: usize,
    /// Ingress credit-gate capacity (rows).
    pub ingress_capacity: u64,
    /// Rows per pushed batch.
    pub batch_rows: usize,
    /// Credits granted per throttled retry during the pressure phase.
    pub pressure_credits: u64,
    /// Batches between churn ticks (0 disables churn).
    pub churn_every: usize,
    /// Whether to fail (and later recover) a forwarder node mid-stream.
    pub inject_fault: bool,
    /// Trace generator seed.
    pub seed: u64,
}

impl SoakConfig {
    /// The full run: one million subscribers on a 32×32 grid.
    pub fn million() -> Self {
        SoakConfig {
            subscriptions: 1_000_000,
            tuples: 192,
            grid: (32, 32),
            parallelism: 2,
            spec_combos: 64,
            ingress_capacity: 16,
            batch_rows: 8,
            pressure_credits: 1,
            churn_every: 6,
            inject_fault: true,
            seed: 1,
        }
    }

    /// CI smoke sizing: 10⁴ subscribers, same schedule shape.
    pub fn smoke() -> Self {
        SoakConfig {
            subscriptions: 10_000,
            grid: (16, 16),
            ..Self::million()
        }
    }

    /// [`smoke`](Self::smoke) under `GASF_BENCH_SMOKE=1`, else
    /// [`million`](Self::million). `GASF_SOAK_SUBS=<n>` overrides the
    /// subscription count on either base — the knob for scaling probes
    /// between the two canonical sizes.
    pub fn from_env() -> Self {
        let mut cfg = if std::env::var_os("GASF_BENCH_SMOKE").is_some() {
            Self::smoke()
        } else {
            Self::million()
        };
        if let Some(n) = std::env::var("GASF_SOAK_SUBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            cfg.subscriptions = n.max(1);
        }
        cfg
    }

    /// The shedder policy the run deploys with: quick to climb under the
    /// starvation schedule, a few calm admissions to descend one rung.
    /// The trigger must sit below the throttles one starved batch
    /// produces (`batch_rows` at one credit per retry), because the
    /// final retry of every batch admits fully and resets the streak.
    pub fn shed_config(&self) -> ShedConfig {
        ShedConfig {
            trigger: 4,
            recover: 4,
            max_rung: 2,
        }
    }

    fn nodes(&self) -> usize {
        self.grid.0 * self.grid.1
    }

    /// Overlay nodes reserved as pure forwarders (no subscribers), so a
    /// fault can hit a load-bearing interior node without killing a
    /// subscriber: the two underlay neighbours of the source corner.
    fn reserved(&self) -> [u32; 2] {
        [1, self.grid.0 as u32]
    }

    fn spec(&self, combo: usize, scale: f64) -> FilterSpec {
        let delta = scale * (1.5 + 0.25 * (combo % 8) as f64);
        let slack = delta * (0.15 + 0.08 * ((combo / 8) % 4) as f64);
        let spec = FilterSpec::delta("tmpr4", delta, slack);
        // Half the roster declares shedding headroom; the other half is
        // a control population the shedder must never touch.
        if combo.is_multiple_of(2) {
            spec.with_shed_headroom(ShedHeadroom::rungs(1 + (combo % 3) as u8))
        } else {
            spec
        }
    }

    /// The subscriber node for subscription `i`: round-robin over every
    /// non-source, non-reserved node.
    fn node_for(&self, i: usize) -> NodeId {
        let reserved = self.reserved();
        let usable: u32 = self.nodes() as u32 - 1 - reserved.len() as u32;
        let mut n = 1 + (i as u32 % usable);
        for r in reserved {
            if n >= r {
                n += 1;
            }
        }
        NodeId(n)
    }
}

/// Everything one soak run measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakOutcome {
    /// Subscriptions installed before deploy (excludes churn joiners).
    pub subscriptions: usize,
    /// Input tuples streamed.
    pub input_tuples: u64,
    /// Per-subscription deliveries recorded (histogram samples).
    pub deliveries: u64,
    /// Median end-to-end delivery latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile end-to-end delivery latency, microseconds.
    pub p99_us: u64,
    /// Maximum end-to-end delivery latency, microseconds.
    pub max_us: u64,
    /// Bytes that actually crossed overlay links (shared trees).
    pub actual_bytes: u64,
    /// Bytes the naive baseline would spend: every input tuple unicast
    /// from the source to every subscriber along underlay shortest
    /// paths, headers included, no filtering, no tree sharing.
    pub naive_bytes: u64,
    /// Throttled admissions observed by the ingress gate.
    pub throttled: u64,
    /// Tuples dropped after the degradation ladder was exhausted.
    pub shed_dropped: u64,
    /// Per-subscription degradations applied under pressure.
    pub degrade_ops: u64,
    /// Per-subscription restorations applied after pressure cleared.
    pub restore_ops: u64,
    /// Shedder rung when the stream finished (0 = fully restored).
    pub final_rung: u8,
    /// Churn operations performed (each = join + retune + leave).
    pub churn_ops: u64,
    /// Faults injected (forwarder node failed and later recovered).
    pub faults: u64,
    /// Scribe tree repairs (re-grafts + re-roots) the faults triggered.
    pub repairs: u64,
}

impl SoakOutcome {
    /// Wire bytes the group-aware path saved over naive multicast.
    pub fn bytes_saved(&self) -> u64 {
        self.naive_bytes.saturating_sub(self.actual_bytes)
    }

    /// Saved fraction of the naive baseline, in `[0, 1]`.
    pub fn savings_ratio(&self) -> f64 {
        if self.naive_bytes == 0 {
            return 0.0;
        }
        self.bytes_saved() as f64 / self.naive_bytes as f64
    }

    /// Panics unless the run shows every property the soak exists to
    /// prove — the CI smoke gate.
    pub fn assert_sane(&self) {
        assert!(self.deliveries > 0, "soak delivered nothing");
        assert!(self.p50_us > 0, "p50 latency missing");
        assert!(
            self.p99_us >= self.p50_us,
            "p99 {} < p50 {}",
            self.p99_us,
            self.p50_us
        );
        assert!(self.max_us >= self.p99_us, "max below p99");
        assert!(
            self.actual_bytes > 0 && self.naive_bytes > self.actual_bytes,
            "no bytes saved: naive {} vs actual {}",
            self.naive_bytes,
            self.actual_bytes
        );
        assert!(self.throttled > 0, "pressure phase never throttled");
        assert!(
            self.degrade_ops > 0,
            "pressure never degraded a headroom subscription"
        );
        // Exact degrade/restore symmetry only holds on a frozen roster;
        // churn adds/retunes/removes headroom subscriptions mid-ladder,
        // so the counts may differ — but calm must restore *something*
        // and must walk the source all the way back to rung 0.
        assert!(self.restore_ops > 0, "calm never restored a subscription");
        assert_eq!(self.final_rung, 0, "shedder not restored after calm");
    }

    /// The outcome as one flat JSON object (hand-rolled — the workspace
    /// serde is a shim), in the shape of the full run recorded in
    /// `docs/ARCHITECTURE.md`'s "soak layer" bullet.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"subscriptions\": {}, \"input_tuples\": {}, \"deliveries\": {}, ",
                "\"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, ",
                "\"actual_bytes\": {}, \"naive_bytes\": {}, \"bytes_saved\": {}, ",
                "\"savings_ratio\": {:.4}, \"throttled\": {}, \"shed_dropped\": {}, ",
                "\"degrade_ops\": {}, \"restore_ops\": {}, \"final_rung\": {}, ",
                "\"churn_ops\": {}, \"faults\": {}, \"repairs\": {}}}"
            ),
            self.subscriptions,
            self.input_tuples,
            self.deliveries,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.actual_bytes,
            self.naive_bytes,
            self.bytes_saved(),
            self.savings_ratio(),
            self.throttled,
            self.shed_dropped,
            self.degrade_ops,
            self.restore_ops,
            self.final_rung,
            self.churn_ops,
            self.faults,
            self.repairs,
        )
    }
}

/// Wire bytes of the no-sharing baseline: every input tuple unicast to
/// every subscriber along underlay shortest paths. Charged exactly like
/// [`Overlay`] unicasts — `(payload + header) × hops` per message —
/// but computed analytically (hop counts per node × subscriber counts),
/// since actually sending `tuples × subscriptions` messages is the
/// point of *not* having multicast.
fn naive_multicast_bytes(
    topology: &Topology,
    src: NodeId,
    sub_nodes: &[u64],
    tuples: u64,
    msg_bytes: u64,
) -> u64 {
    let mut hop_weighted = 0u64;
    for (idx, &count) in sub_nodes.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let hops = topology
            .path(src, NodeId(idx as u32))
            .map(|p| p.len() as u64 - 1)
            .unwrap_or(0);
        hop_weighted += hops * count;
    }
    tuples * msg_bytes * hop_weighted
}

struct SoakRig {
    mw: Middleware,
    src: SourceId,
    schema: Schema,
    handles: Vec<SubscriptionHandle>,
    scale: f64,
    naive_bytes: u64,
}

fn build_rig(cfg: &SoakConfig, trace: &Trace) -> Result<SoakRig, SolarError> {
    let (w, h) = cfg.grid;
    let topology = Topology::grid(w, h).build();
    let overlay = Overlay::new(topology);
    let header = gasf_net::multicast::HEADER_BYTES as u64;
    let mut mw = Middleware::with_config(
        overlay,
        MiddlewareConfig {
            algorithm: Algorithm::RegionGreedy,
            strategy: OutputStrategy::Earliest,
            parallelism: cfg.parallelism,
            ingress_capacity: Some(cfg.ingress_capacity),
            shedding: Some(cfg.shed_config()),
            ..MiddlewareConfig::default()
        },
    );
    let schema = trace.schema().clone();
    let src = mw.register_source("soak", NodeId(0), schema.clone())?;
    let scale = trace
        .stats("tmpr4")
        .expect("NAMOS trace has tmpr4")
        .mean_abs_delta;

    let mut handles = Vec::with_capacity(cfg.subscriptions);
    let mut sub_nodes = vec![0u64; cfg.nodes()];
    for i in 0..cfg.subscriptions {
        let node = cfg.node_for(i);
        let spec = cfg.spec(i % cfg.spec_combos.max(1), scale);
        handles.push(mw.subscribe(format!("app{i}"), node, src, spec)?);
        sub_nodes[node.index()] += 1;
    }
    mw.deploy()?;

    let msg_bytes = trace.tuples()[0].wire_size() as u64 + header;
    let naive_bytes = naive_multicast_bytes(
        mw.overlay().topology(),
        NodeId(0),
        &sub_nodes,
        trace.tuples().len() as u64,
        msg_bytes,
    );
    Ok(SoakRig {
        mw,
        src,
        schema,
        handles,
        scale,
        naive_bytes,
    })
}

/// Runs one soak to completion.
///
/// # Panics
/// Panics on middleware errors — the soak configuration is static and a
/// failure is a harness bug, exactly what the soak exists to surface.
pub fn run_soak(cfg: &SoakConfig) -> SoakOutcome {
    let started = std::time::Instant::now();
    let progress = |msg: &str| {
        eprintln!("soak: [{:7.1}s] {msg}", started.elapsed().as_secs_f64());
    };
    let trace = NamosBuoy::new()
        .tuples(cfg.tuples)
        .seed(cfg.seed)
        .generate();
    let mut rig = build_rig(cfg, &trace).expect("soak rig must build");
    progress("rig deployed");
    let batches: Vec<TupleBatch> = trace.batches(cfg.batch_rows);
    let total = batches.len();
    let pressure_from = total / 3;
    let recover_from = 2 * total / 3;
    let fault_at = pressure_from + (recover_from - pressure_from) / 2;
    // The victim is a reserved forwarder (no subscribers live there) that
    // neighbours the source corner, so it is load-bearing by construction.
    let victim = NodeId(cfg.reserved()[0]);

    let mut churn_ops = 0u64;
    let mut faults = 0u64;
    let mut joiner: Option<SubscriptionHandle> = None;
    let mut recover_tail: Vec<gasf_core::tuple::Tuple> = Vec::new();

    for (b, batch) in batches.into_iter().enumerate() {
        if b >= recover_from {
            // Phase 3 streams through the connector seam below.
            recover_tail.extend(batch.materialize());
            continue;
        }
        if b % 4 == 0 {
            progress(&format!(
                "batch {b}/{total} ({})",
                if b < pressure_from {
                    "calm"
                } else {
                    "pressure"
                }
            ));
        }
        let calm = b < pressure_from;
        if calm {
            rig.mw
                .grant_credits(rig.src, cfg.ingress_capacity)
                .expect("grant");
        }
        let arc = Arc::new(batch);
        let mut row = 0usize;
        while row < arc.rows() {
            let (advanced, outcome) = rig
                .mw
                .pipeline(rig.src)
                .and_then(|mut p| p.offer(Offer::Batch(&arc), row))
                .expect("soak push");
            row += advanced;
            if !outcome.is_accepted() {
                // The pressure schedule: a trickle of credits, so the
                // batch finishes only through repeated partial pushes
                // and the shedder sees a sustained throttle streak.
                rig.mw
                    .grant_credits(rig.src, cfg.pressure_credits.max(1))
                    .expect("grant");
            }
        }

        if cfg.inject_fault && b == fault_at && faults == 0 {
            rig.mw.fail_node(victim).expect("victim is a forwarder");
            faults += 1;
        }

        if cfg.churn_every > 0 && b > 0 && b % cfg.churn_every == 0 {
            // One churn tick: the previous joiner leaves, a new app
            // joins, and one standing subscription retunes — all live,
            // mid-stream, at the engines' next safe point.
            if let Some(h) = joiner.take() {
                rig.mw.unsubscribe(h).expect("joiner leaves");
            }
            let i = churn_ops as usize;
            joiner = Some(
                rig.mw
                    .subscribe(
                        format!("churn{i}"),
                        cfg.node_for(i * 7919),
                        rig.src,
                        cfg.spec(i % cfg.spec_combos.max(1), rig.scale),
                    )
                    .expect("joiner subscribes"),
            );
            let standing = rig.handles[(i * 104729) % rig.handles.len()];
            rig.mw
                .resubscribe(
                    standing,
                    cfg.spec((i + 1) % cfg.spec_combos.max(1), rig.scale),
                )
                .expect("standing retunes");
            churn_ops += 1;
        }
    }

    if faults > 0 {
        rig.mw.recover_node(victim).expect("victim revives");
    }

    // Phase 3: the tail arrives through the connector seam — a replay
    // connector driven by the ingest loop under adaptive credit grants.
    // Calm, full admissions walk the shedder back down to rung 0.
    progress("recovery tail (connector ingest + finish)");
    rig.mw
        .grant_credits(rig.src, cfg.ingress_capacity)
        .expect("grant");
    let mut tail = ArrivalReplay::new(rig.schema.clone(), recover_tail);
    rig.mw
        .ingest(
            rig.src,
            &mut tail,
            IngestOptions {
                max_rows: cfg.batch_rows,
                grant: GrantPolicy::Adaptive,
                finish: true,
            },
        )
        .expect("soak ingest tail");

    progress("stream finished, collecting report");
    let report = rig.mw.report(rig.src).expect("soak report");
    let hist = rig.mw.latency_histogram(rig.src).expect("soak histogram");
    let flow = rig.mw.flow_monitor(rig.src).expect("soak flow");
    SoakOutcome {
        subscriptions: cfg.subscriptions,
        input_tuples: cfg.tuples as u64,
        deliveries: hist.count(),
        p50_us: hist.quantile(0.5),
        p99_us: hist.quantile(0.99),
        max_us: hist.max(),
        actual_bytes: report.network_bytes,
        naive_bytes: rig.naive_bytes,
        throttled: flow.throttled(),
        shed_dropped: flow.shed_dropped(),
        degrade_ops: flow.degrade_ops(),
        restore_ops: flow.restore_ops(),
        final_rung: rig.mw.shed_rung(rig.src).expect("soak rung"),
        churn_ops,
        faults,
        repairs: rig.mw.overlay().repairs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SoakConfig {
        SoakConfig {
            subscriptions: 400,
            grid: (8, 8),
            ..SoakConfig::million()
        }
    }

    #[test]
    fn tiny_soak_is_sane() {
        let out = run_soak(&tiny());
        out.assert_sane();
        assert_eq!(out.faults, 1);
        assert!(out.churn_ops > 0);
        assert_eq!(out.subscriptions, 400);
    }

    #[test]
    fn fault_free_soak_reports_no_repairs_from_faults() {
        let out = run_soak(&SoakConfig {
            inject_fault: false,
            ..tiny()
        });
        out.assert_sane();
        assert_eq!(out.faults, 0);
    }

    #[test]
    fn outcome_json_carries_every_field() {
        let out = run_soak(&SoakConfig {
            subscriptions: 120,
            tuples: 96,
            grid: (4, 4),
            churn_every: 0,
            inject_fault: false,
            ..SoakConfig::million()
        });
        let json = out.to_json();
        for key in [
            "subscriptions",
            "p50_us",
            "p99_us",
            "bytes_saved",
            "savings_ratio",
            "degrade_ops",
            "restore_ops",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn node_for_skips_source_and_reserved_forwarders() {
        let cfg = tiny();
        let reserved = [1u32, cfg.grid.0 as u32];
        for i in 0..500 {
            let n = cfg.node_for(i);
            assert_ne!(n.index(), 0, "source node got a subscriber");
            assert!(
                !reserved.contains(&(n.index() as u32)),
                "reserved forwarder {n:?} got a subscriber"
            );
            assert!(n.index() < cfg.nodes());
        }
    }
}
