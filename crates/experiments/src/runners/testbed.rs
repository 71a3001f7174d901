//! Sim-vs-wire cross-validation on the multi-process testbed.
//!
//! Runs the *same* topology and attack three ways and puts the detection and
//! traffic numbers side by side:
//!
//! 1. **sim** — the in-memory [`Harness`] (one process, virtual time);
//! 2. **wire** — a mesh of real `ddp-servent` processes over loopback TCP,
//!    undisturbed;
//! 3. **wire+chaos** — the same mesh with a good neighbor of the attacker
//!    SIGKILL'd mid-run and a good-good edge severed mid-frame through a
//!    chaos proxy.
//!
//! The state machine is identical in all three, so detection (first cut of
//! the attacker, how many buddies cut it, isolation) must agree; the wire
//! rows additionally prove the supervised runtime survives process death and
//! torn sockets without hanging. Needs the `ddp-servent` binary on disk
//! (`cargo build --release -p ddp-servent`, or `DDP_SERVENT_BIN`).

use crate::options::ExpOptions;
use crate::output::Table;
use ddp_servent::{Harness, HarnessConfig, ServentRole};
use ddp_testbed::{MeshReport, MeshSpec, NodeSpec, WireMesh};
use ddp_topology::{DynamicGraph, NodeId, TopologyConfig, TopologyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub(super) const ATTACK_QPM: u32 = 1_500;
const QUERY_RATE_QPM: f64 = 2.0;
const CATALOG_SIZE: usize = 50;
const ITEMS_PER_PEER: usize = 8;
/// The one flooding agent of the wire runners' mesh, and what it does.
pub(super) const ATTACKER: NodeId = NodeId(4);
const AGENT: ServentRole =
    ServentRole::FloodingAgent { rate_qpm: ATTACK_QPM, respond_reports: true };

/// What both wire runners (`testbed`, `soak`) start from: a BA m = 2 overlay
/// with one flooding agent, and the two chaos targets in it.
pub(super) struct WireSetup {
    pub graph: DynamicGraph,
    /// The undisturbed mesh over `graph`.
    pub spec: MeshSpec,
    /// The attacker's highest-id good neighbor: a buddy that will cut it.
    pub victim: u32,
    /// A good-good edge touching neither the attacker nor the victim.
    pub calm_edge: (u32, u32),
}

pub(super) fn wire_setup(
    n: usize,
    minutes: u64,
    tick_ms: u64,
    seed: u64,
    out_dir: PathBuf,
) -> Result<WireSetup, String> {
    let graph = TopologyConfig { n, model: TopologyModel::BarabasiAlbert { m: 2 } }
        .generate(&mut StdRng::seed_from_u64(seed));
    let edges: Vec<(u32, u32)> = graph.edges().map(|(u, v)| (u.0, v.0)).collect();
    let nodes = (0..n as u32)
        .map(|id| NodeSpec { id, role: if id == ATTACKER.0 { AGENT } else { ServentRole::Good } })
        .collect();
    let victim = graph
        .neighbors(ATTACKER)
        .iter()
        .map(|h| h.peer.0)
        .filter(|&p| p != ATTACKER.0)
        .max()
        .ok_or("attacker has no neighbors in the generated graph")?;
    let calm_edge = edges
        .iter()
        .copied()
        .find(|&(u, v)| ![u, v].iter().any(|&x| x == ATTACKER.0 || x == victim))
        .ok_or("no good-good edge away from the attacker and the victim")?;
    let spec = MeshSpec {
        nodes,
        edges,
        proxied_edges: vec![],
        minutes,
        tick_ms,
        seed,
        query_rate_qpm: QUERY_RATE_QPM,
        out_dir,
        checkpoint_every: None,
    };
    Ok(WireSetup { graph, spec, victim, calm_edge })
}

struct RunRow {
    mode: &'static str,
    first_cut_s: Option<u64>,
    cutters: usize,
    isolated: bool,
    issued: u64,
    frames: u64,
    bytes: u64,
    dropped: u64,
    completed: String,
    wall_s: f64,
}

/// The shared catalog, identical to the one `ddp-servent --catalog-size 50`
/// builds for itself.
fn catalog() -> Vec<String> {
    (0..CATALOG_SIZE).map(|i| format!("item-{i:03}")).collect()
}

fn sim_row(
    graph: &ddp_topology::DynamicGraph,
    attacker: NodeId,
    role: ServentRole,
    minutes: u64,
    seed: u64,
) -> RunRow {
    let cfg = HarnessConfig {
        catalog: catalog(),
        items_per_peer: ITEMS_PER_PEER,
        query_rate_qpm: QUERY_RATE_QPM,
        ..HarnessConfig::default()
    };
    let started = Instant::now();
    let mut h = Harness::new(graph, &[(attacker, role)], cfg, seed);
    h.run_minutes(minutes);
    let isolated = h.servents[attacker.index()].neighbors().is_empty();
    let report = h.report();
    let cuts: Vec<&(u64, NodeId, NodeId)> =
        report.cuts.iter().filter(|&&(_, _, s)| s == attacker).collect();
    let mut observers: Vec<NodeId> = cuts.iter().map(|&&(_, o, _)| o).collect();
    observers.sort();
    observers.dedup();
    RunRow {
        mode: "sim",
        first_cut_s: cuts.iter().map(|&&(t, _, _)| t).min(),
        cutters: observers.len(),
        isolated,
        issued: report.issued as u64,
        frames: report.frames,
        bytes: report.bytes,
        dropped: report.frames_dropped,
        completed: format!("{n}/{n}", n = graph.node_count()),
        wall_s: started.elapsed().as_secs_f64(),
    }
}

fn wire_row(mode: &'static str, n: usize, attacker: u32, report: &MeshReport) -> RunRow {
    let conn = report.total_conn();
    let (issued, _resolved) = report.totals();
    RunRow {
        mode,
        first_cut_s: report.first_cut_of(attacker),
        cutters: report.cuts_of(attacker),
        isolated: report.isolated(attacker),
        issued,
        frames: conn.frames_sent,
        bytes: conn.bytes_sent,
        dropped: conn.frames_dropped,
        completed: format!("{}/{n}", report.summaries.len()),
        wall_s: report.wall.as_secs_f64(),
    }
}

/// Sim-vs-wire cross-validation table. `Err` carries a human-readable reason
/// (typically: the `ddp-servent` binary is not built).
pub fn testbed(opts: &ExpOptions) -> Result<Table, String> {
    let (n, minutes, tick_ms) = if opts.smoke { (10usize, 3u64, 30u64) } else { (16, 4, 40) };
    let attacker = ATTACKER;
    // Chaos targets: SIGKILL the victim (its reports vanish mid-run;
    // assume-zero must absorb that), and sever the calm edge.
    let out_base = std::env::temp_dir().join(format!("ddp-testbed-{}", std::process::id()));
    let WireSetup { graph, spec: base_spec, victim, calm_edge: severed } =
        wire_setup(n, minutes, tick_ms, opts.seed, out_base.join("wire"))?;

    let mut rows = vec![sim_row(&graph, attacker, AGENT, minutes, opts.seed)];

    // Undisturbed wire mesh.
    let mesh = WireMesh::launch(base_spec.clone()).map_err(|e| format!("launch wire mesh: {e}"))?;
    let wire = mesh.collect();
    if !wire.hung.is_empty() {
        return Err(format!("wire mesh hung: servents {:?}", wire.hung));
    }
    rows.push(wire_row("wire", n, attacker.0, &wire));

    // Chaos wire mesh: same spec, proxied severable edge, scheduled faults.
    let mut chaos_spec = base_spec;
    chaos_spec.proxied_edges = vec![severed];
    chaos_spec.out_dir = out_base.join("chaos");
    let mut mesh = WireMesh::launch(chaos_spec).map_err(|e| format!("launch chaos mesh: {e}"))?;
    // Protocol second t lands at roughly grace(500ms) + t*tick_ms wall time.
    std::thread::sleep(Duration::from_millis(700 + 60 * tick_ms));
    mesh.kill(victim).map_err(|e| format!("SIGKILL servent {victim}: {e}"))?;
    std::thread::sleep(Duration::from_millis(20 * tick_ms));
    mesh.sever(severed, true).map_err(|e| format!("sever {severed:?}: {e}"))?;
    let chaos = mesh.collect();
    if !chaos.hung.is_empty() {
        return Err(format!("chaos mesh hung: servents {:?}", chaos.hung));
    }
    rows.push(wire_row("wire+chaos", n, attacker.0, &chaos));

    // Acceptance checks: detection must hold in every mode.
    for (mode, report) in [("wire", &wire), ("wire+chaos", &chaos)] {
        if report.first_cut_of(attacker.0).is_none() {
            return Err(format!("{mode}: attacker was never cut"));
        }
        if !report.isolated(attacker.0) {
            return Err(format!("{mode}: attacker not isolated among survivors"));
        }
    }

    let _ = std::fs::remove_dir_all(&out_base);
    Ok(Table::from_columns(
        "testbed_crossval",
        format!(
            "Sim vs wire cross-validation — n={n}, BA m=2, attacker {attacker} at \
             {ATTACK_QPM} qpm, {minutes} min, tick {tick_ms} ms \
             (chaos: SIGKILL servent {victim} @t~60s, sever edge \
             {severed:?} mid-frame @t~80s)"
        ),
        &rows,
        &[
            ("mode", |r| r.mode.to_string()),
            ("first_cut_s", |r| r.first_cut_s.map_or_else(|| "-".into(), |t| t.to_string())),
            ("cutters", |r| r.cutters.to_string()),
            ("attacker_isolated", |r| if r.isolated { "yes" } else { "NO" }.to_string()),
            ("issued", |r| r.issued.to_string()),
            ("frames", |r| r.frames.to_string()),
            ("bytes", |r| r.bytes.to_string()),
            ("frames_dropped", |r| r.dropped.to_string()),
            ("completed", |r| r.completed.clone()),
            ("wall_s", |r| format!("{:.1}", r.wall_s)),
        ],
    ))
}
