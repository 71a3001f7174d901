//! The metric registry: every name the benchmark emits, with its unit, its
//! better direction and (end-to-end only) its regression bound. The same
//! tables are written out in `BENCHMARK.json`; a unit test keeps the two
//! in step.

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer, from the traced run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: higher, bound }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> PerLayer {
    PerLayer { name, unit, higher_is_better: higher }
}

/// Every workload emits every one of these, untraced. An "op" is one
/// simulated minute (`Simulation::step`) on the simulator workloads and one
/// relayed frame on `wire_relay`. README.md has the glossary.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("op_p50_us", "us", false, 0.25),
    e2e("peak_bytes_per_peer", "B", false, 0.20),
    e2e("allocs_per_op", "count", false, 0.10),
    e2e("query_success_rate", "ratio", true, 0.08),
    e2e("good_kept_rate", "ratio", true, 0.12),
    e2e("attacker_cut_rate", "ratio", true, 0.10),
    e2e("first_cut_tick", "tick", false, 0.05),
];

/// Every workload emits every one of these, traced; a metric of a layer the
/// workload does not run reads 0 there.
pub const PER_LAYER: [PerLayer; 54] = [
    // set-up -> setup_s
    layer("topology.generate_ms", "ms", false),
    layer("workload.catalog_ms", "ms", false),
    layer("sim.new_ms", "ms", false),
    layer("attack.apply_ms", "ms", false),
    layer("sim.warmup_ms", "ms", false),
    // sim -> ops_per_s, op_p50_us
    layer("sim.step.samples", "count", true),
    layer("sim.step.p50_ms", "ms", false),
    layer("sim.step.tail_pct", "%", true),
    layer("sim.step.tail_ms", "ms", false),
    layer("sim.step.max_ms", "ms", false),
    layer("sim.engine.self_ms_per_tick", "ms", false),
    layer("sim.engine.share", "ratio", false),
    layer("sim.flood.hops_per_tick", "count", true),
    layer("sim.flood.kernel_ns_per_hop", "ns", false),
    layer("sim.churn.mutations_per_tick", "count", false),
    layer("sim.step.transient_bytes_per_tick", "B", false),
    layer("sim.pool.t2_speedup", "ratio", true),
    layer("sim.finish_ms", "ms", false),
    layer("sim.agents_connected_share", "ratio", false),
    // police -> ops_per_s on judge_20k
    layer("police.on_tick.ms_per_tick", "ms", false),
    layer("police.on_tick.tail_ms", "ms", false),
    layer("police.on_tick.share", "ratio", false),
    layer("police.hooks.ms_per_tick", "ms", false),
    layer("police.judgments_per_tick", "count", false),
    layer("police.cuts_per_judgment", "ratio", true),
    layer("police.control_msgs_per_tick", "count", false),
    layer("police.transitions_per_tick", "count", false),
    layer("police.state_entries_per_peer", "count", false),
    layer("police.exchange.kernel_ms", "ms", false),
    layer("police.indicator.kernel_ns", "ns", false),
    // sketch -> good_kept_rate, attacker_cut_rate on churn_sketch_10k
    layer("sketch.items_per_tick", "count", false),
    layer("sketch.max_excess", "count", false),
    layer("sketch.state_bytes", "B", false),
    // snapshot -> no gated metric
    layer("snapshot.save_ms", "ms", false),
    layer("snapshot.restore_ms", "ms", false),
    layer("snapshot.bytes_per_peer", "B", false),
    layer("snapshot.hash_ms", "ms", false),
    // protocol, servent -> ops_per_s on wire_relay
    layer("protocol.encode_ns", "ns", false),
    layer("protocol.decode_ns", "ns", false),
    layer("protocol.seen_offer_ns", "ns", false),
    layer("servent.handle_frame_ns", "ns", false),
    layer("servent.on_minute_us", "us", false),
    layer("servent.harness.frames_per_s", "1/s", true),
    // wire -> ops_per_s, op_p50_us on wire_relay
    layer("wire.transport_ns_per_frame", "ns", false),
    layer("wire.relay.samples", "count", true),
    layer("wire.relay.tail_pct", "%", true),
    layer("wire.relay.tail_us", "us", false),
    layer("wire.relay.w256_p50_us", "us", false),
    layer("wire.frames_dropped", "count", false),
    layer("wire.frames_unroutable", "count", false),
    layer("wire.codec_disconnects", "count", false),
    layer("wire.first_cut_wall_ms", "ms", false),
    layer("wire.setup.connect_ms", "ms", false),
    // tracing itself
    layer("trace.overhead_pct", "%", false),
];

/// Unit of a registered metric name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Named values of one run, in emission order.
#[derive(Debug, Default, Clone)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unregistered metric {name}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Every per-layer name at 0, so a workload only sets the layers it runs.
    pub fn per_layer_zeros() -> Self {
        Values(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

/// `BENCHMARK.json`, rendered from the tables above and the workload list:
/// `ddp-benchmark manifest > BENCHMARK.json` at the repository root.
pub fn manifest() -> String {
    use crate::workloads::{NOMINAL_SECONDS, WHY, WORKLOADS};
    use ddp_metrics::json_escape;
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let rows = |lines: Vec<String>| format!("[\n    {}\n  ]", lines.join(",\n    "));
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "crates/bench/src/bin/ddp-benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let workloads = WORKLOADS
        .iter()
        .zip(WHY)
        .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{}\"}}", json_escape(why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"crates/bench/src/bin/ddp-benchmark\"],\n  \
         \"run_seconds\": {NOMINAL_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}",
        command.map(|c| format!("\"{c}\"")).join(", "),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}
