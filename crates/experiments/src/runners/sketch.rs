//! `sketch` — paired exact-vs-sketch sweep over sketch geometry × overlay
//! size × attacker rate.
//!
//! Every cell runs the *same* seeded simulation twice: once under the exact
//! per-neighbor counters and once under the count-min monitor, then compares
//! monitor-state memory and cut outcomes. The quantity the sweep pins is the
//! memory/accuracy trade: how many bytes the sketch saves at a given overlay
//! size, and what that costs in missed attacker cuts and spurious good-peer
//! cuts. Both come from the realized overestimates: on a suspect's own link
//! an excess can only raise suspicion, but on the Buddy Group's claims it
//! pulls the General Indicator toward innocence, so under-provisioned widths
//! lose the best-connected attackers first (DESIGN.md, "indicator
//! compression"). Emits `BENCH_sketch.json`.

use crate::bench_report::{self, BenchCell, Field, Value};
use crate::output::{f, Column, Table};
use crate::scenario::{ExpOptions, Scenario};
use ddp_police::{DdPolice, DdPoliceConfig, MonitorBackend, SketchParams, SketchStats};
use ddp_sim::RunResult;
use ddp_sketch::exact_state_bytes;
use ddp_topology::NodeId;
use std::collections::BTreeSet;
use std::time::Instant;

/// One measured grid cell: a paired exact/sketch run at one configuration.
#[derive(Debug, Clone)]
pub struct SketchCell {
    /// Overlay size.
    pub peers: usize,
    /// Flooding-agent count.
    pub agents: usize,
    /// Attacker generation capability, queries/minute.
    pub attacker_rate_qpm: u32,
    /// Ticks (protocol minutes) both runs execute.
    pub ticks: usize,
    /// Flood TTL both runs use (4 at bench scale; 2 at ≥50k peers, where a
    /// TTL-4 flood saturates the overlay — see `flood_ttl`).
    pub ttl: u8,
    /// Count-min width exponent (width = 2^width_log2 columns per row).
    pub width_log2: u8,
    /// Count-min depth (rows).
    pub depth: u8,
    /// Backend label of the sketch run (e.g. `sketch(w=2^12,d=4)`).
    pub monitor_backend: String,
    /// Monitor-state bytes the exact backend pays (2 u32 per directed
    /// half-edge of the exact run's final overlay).
    pub exact_state_bytes: u64,
    /// Monitor-state bytes the sketch backend pays (the count-min arena).
    pub sketch_state_bytes: u64,
    /// exact / sketch — how many times smaller the sketch state is.
    pub memory_ratio: f64,
    /// Wall-clock of the sketch run's step loop, seconds.
    pub elapsed_secs: f64,
    /// Sketch-run step-loop throughput.
    pub ticks_per_sec: f64,
    /// Distinct attackers cut by the exact run.
    pub attackers_cut_exact: u64,
    /// Distinct attackers cut by the sketch run.
    pub attackers_cut_sketch: u64,
    /// Attackers the exact run cut that the sketch run did not — the
    /// accuracy headline. Nonzero when excess on the Buddy Group's claims
    /// compresses an attacker's indicator below the cut threshold.
    pub missed_cuts: u64,
    /// Good peers the sketch run cut that the exact run did not — the
    /// false-positive tax of the overestimates.
    pub extra_good_cuts: u64,
    /// Largest per-tick ingest `N` seen by the sketch run.
    pub items_max: u64,
    /// Worst realized estimate excess over the whole sketch run.
    pub max_excess: u64,
    /// The a-priori εN bound at the largest tick (ε = e / width).
    pub epsilon_n: f64,
}

impl BenchCell for SketchCell {
    const SCHEMA: &'static str = "ddp-bench-sketch/v2";
    const GENERATED_BY: &'static str = "ddp-experiments sketch";
    const FILE: &'static str = "BENCH_sketch.json";
    const FIELDS: &'static [Field<Self>] = &[
        ("peers", |c| Value::U64(c.peers as u64)),
        ("agents", |c| Value::U64(c.agents as u64)),
        ("attacker_rate_qpm", |c| Value::U64(c.attacker_rate_qpm as u64)),
        ("ticks", |c| Value::U64(c.ticks as u64)),
        ("ttl", |c| Value::U64(c.ttl as u64)),
        ("width_log2", |c| Value::U64(c.width_log2 as u64)),
        ("depth", |c| Value::U64(c.depth as u64)),
        ("monitor_backend", |c| Value::Str(&c.monitor_backend)),
        ("exact_state_bytes", |c| Value::U64(c.exact_state_bytes)),
        ("sketch_state_bytes", |c| Value::U64(c.sketch_state_bytes)),
        ("memory_ratio", |c| Value::F64(c.memory_ratio)),
        ("elapsed_secs", |c| Value::F64(c.elapsed_secs)),
        ("ticks_per_sec", |c| Value::F64(c.ticks_per_sec)),
        ("attackers_cut_exact", |c| Value::U64(c.attackers_cut_exact)),
        ("attackers_cut_sketch", |c| Value::U64(c.attackers_cut_sketch)),
        ("missed_cuts", |c| Value::U64(c.missed_cuts)),
        ("extra_good_cuts", |c| Value::U64(c.extra_good_cuts)),
        ("items_max", |c| Value::U64(c.items_max)),
        ("max_excess", |c| Value::U64(c.max_excess)),
        ("epsilon_n", |c| Value::F64(c.epsilon_n)),
    ];
    const TABLE: (&'static str, &'static str) =
        ("sketch", "Sketch sweep: monitor memory vs cut accuracy (exact-paired runs)");
    const COLUMNS: &'static [Column<Self>] = &[
        ("peers", |c| c.peers.to_string()),
        ("agents", |c| c.agents.to_string()),
        ("rate_qpm", |c| c.attacker_rate_qpm.to_string()),
        ("w", |c| format!("2^{}", c.width_log2)),
        ("d", |c| c.depth.to_string()),
        ("mem_ratio", |c| f(c.memory_ratio, 1)),
        ("cut_exact", |c| c.attackers_cut_exact.to_string()),
        ("cut_sketch", |c| c.attackers_cut_sketch.to_string()),
        ("missed", |c| c.missed_cuts.to_string()),
        ("extra_good", |c| c.extra_good_cuts.to_string()),
        ("max_excess", |c| c.max_excess.to_string()),
    ];
}

/// Cut outcome of one run, split by ground truth.
struct CutSets {
    attackers: BTreeSet<u32>,
    good: BTreeSet<u32>,
}

fn cut_sets(result: &RunResult) -> CutSets {
    let mut attackers = BTreeSet::new();
    let mut good = BTreeSet::new();
    for rec in &result.cut_log {
        if rec.suspect_was_attacker {
            attackers.insert(rec.suspect.0);
        } else {
            good.insert(rec.suspect.0);
        }
    }
    CutSets { attackers, good }
}

/// Outcome of a single run under one backend. `state_bytes` is what that
/// backend's monitor pays: the exact per-half-edge counters of the final
/// overlay, or the sketch's count-min arena.
struct RunOutcome {
    result: RunResult,
    state_bytes: u64,
    stats: SketchStats,
    epsilon_n: f64,
    elapsed_secs: f64,
}

/// Flood TTL for a cell: the default 4 at bench scale, 2 at ≥50k peers.
/// At 100k peers a TTL-4 flood multiplies every query into thousands of
/// hops, and the count-min window's per-edge collision excess scales with
/// that total; the paper's own scaling argument (§2.3) caps flood reach on
/// large overlays, and TTL 2 keeps the monitored stream within the regime
/// where a ≤¼-memory sketch preserves every exact cut.
pub fn flood_ttl(peers: usize) -> u8 {
    if peers >= 50_000 {
        2
    } else {
        4
    }
}

/// Build, attack, and step one simulation under `monitor`; the same
/// `(seed, peers, agents)` triple yields the identical topology, attack
/// plan, and workload under both backends, so cut-set differences are
/// attributable to the monitor alone.
fn run_once(
    peers: usize,
    agents: usize,
    attacker_rate_qpm: u32,
    ticks: usize,
    monitor: MonitorBackend,
    seed: u64,
) -> RunOutcome {
    let scenario = Scenario::builder()
        .peers(peers)
        .attackers(agents)
        .seed(seed)
        .sim(|s| {
            s.attacker_rate_qpm = attacker_rate_qpm;
            s.ttl = flood_ttl(peers);
        })
        .build();
    let police_cfg = DdPoliceConfig { monitor, ..DdPoliceConfig::default() };
    let mut sim = scenario.build_sim_with(DdPolice::new(police_cfg, peers));
    let start = Instant::now();
    for _ in 0..ticks {
        sim.step();
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    let (state_bytes, stats, epsilon_n) = match sim.defense().sketch_monitor() {
        Some(m) => {
            let stats = sim.defense().sketch_stats();
            // ε = e / width, at the heaviest tick's N.
            let eps = if m.items_this_tick() > 0 { m.epsilon_n() } else { 0.0 };
            let eps_at_max = if stats.max_items_run > 0 && m.items_this_tick() > 0 {
                eps * stats.max_items_run as f64 / m.items_this_tick() as f64
            } else {
                eps
            };
            (m.state_bytes() as u64, stats, eps_at_max)
        }
        None => {
            let half_edges: usize = (0..sim.overlay().node_count())
                .map(|u| sim.overlay().degree(NodeId(u as u32)))
                .sum();
            (exact_state_bytes(half_edges) as u64, SketchStats::default(), 0.0)
        }
    };
    let result = sim.finish();
    RunOutcome { result, state_bytes, stats, epsilon_n, elapsed_secs }
}

/// Measure one cell: the exact run, the sketch run, and their comparison.
pub fn measure_sketch_cell(
    peers: usize,
    agents: usize,
    attacker_rate_qpm: u32,
    ticks: usize,
    width_log2: u8,
    depth: u8,
    seed: u64,
) -> SketchCell {
    let params = SketchParams { width_log2, depth, salt: SketchParams::default().salt ^ seed };
    let backend = MonitorBackend::Sketch(params);
    let exact = run_once(peers, agents, attacker_rate_qpm, ticks, MonitorBackend::Exact, seed);
    let sketch = run_once(peers, agents, attacker_rate_qpm, ticks, backend, seed);
    let exact_cuts = cut_sets(&exact.result);
    let sketch_cuts = cut_sets(&sketch.result);
    let missed_cuts = exact_cuts.attackers.difference(&sketch_cuts.attackers).count() as u64;
    let extra_good_cuts = sketch_cuts.good.difference(&exact_cuts.good).count() as u64;
    let safe_elapsed = sketch.elapsed_secs.max(1e-9);
    SketchCell {
        peers,
        agents,
        attacker_rate_qpm,
        ticks,
        ttl: flood_ttl(peers),
        width_log2,
        depth,
        monitor_backend: backend.label(),
        exact_state_bytes: exact.state_bytes,
        sketch_state_bytes: sketch.state_bytes,
        memory_ratio: exact.state_bytes as f64 / sketch.state_bytes as f64,
        elapsed_secs: sketch.elapsed_secs,
        ticks_per_sec: ticks as f64 / safe_elapsed,
        attackers_cut_exact: exact_cuts.attackers.len() as u64,
        attackers_cut_sketch: sketch_cuts.attackers.len() as u64,
        missed_cuts,
        extra_good_cuts,
        items_max: sketch.stats.max_items_run,
        max_excess: sketch.stats.max_excess_run as u64,
        epsilon_n: sketch.epsilon_n,
    }
}

/// The sweep grid: `(peers, agents, attacker_rate_qpm, ticks, width_log2,
/// depth)`. The smoke grid is two cells: a small overlay that detects
/// and cuts within the run (exercising the comparison end to end), and the
/// 100k-peer cell the memory-ratio acceptance is pinned on. The full grid
/// adds a geometry sweep (width × depth at fixed workload, isolating the
/// accuracy knob), a population sweep, and an attacker-rate sweep.
pub fn sketch_grid(smoke: bool) -> Vec<(usize, usize, u32, usize, u8, u8)> {
    // The 100k cell runs the paper's §2.3 attacker capability (20,000
    // queries/minute): at overlay scale the count-min window holds every
    // forwarded hop, so per-edge collision excess is of the order of a good
    // edge's forwarding load — the attacker signal must sit well above it,
    // which is exactly the regime the paper's threat model describes. A
    // wide geometry (2^16 × 4) keeps that excess small at 4.6× less memory
    // than the exact arena.
    let smoke_cells = vec![(800, 8, 1_500, 8, 12, 4), (100_000, 100, 20_000, 4, 16, 4)];
    if smoke {
        return smoke_cells;
    }
    let mut grid = Vec::new();
    // Geometry sweep: accuracy as a function of width × depth.
    for w in [10u8, 12, 16] {
        for d in [2u8, 4] {
            grid.push((2_000, 20, 1_500, 8, w, d));
        }
    }
    // Population sweep at the default geometry.
    grid.push((500, 5, 1_500, 8, 12, 4));
    grid.push((10_000, 100, 20_000, 4, 13, 4));
    // Attacker-rate sweep: detection parity across the threshold range.
    for rate in [800u32, 3_000, 20_000] {
        grid.push((2_000, 20, rate, 8, 12, 4));
    }
    grid.extend(smoke_cells);
    grid
}

/// Run the sweep, publish `BENCH_sketch.json` (validated always, written for
/// the full grid), and return the human-readable table. Exits non-zero when
/// the emitted document fails its own schema or when the smoke acceptance
/// (≥4× memory saving at the largest cell with zero missed cuts) does not
/// hold.
pub fn sketch(opts: &ExpOptions) -> Table {
    let cells: Vec<SketchCell> = sketch_grid(opts.smoke)
        .into_iter()
        .map(|(peers, agents, rate, ticks, w, d)| {
            eprintln!("[sketch] measuring peers={peers} agents={agents} rate={rate} w=2^{w} d={d}");
            measure_sketch_cell(peers, agents, rate, ticks, w, d, opts.seed)
        })
        .collect();
    // The acceptance gate the smoke run is pinned on: at the largest overlay,
    // the sketch must be at least 4× smaller than exact and miss no cuts.
    if let Some(big) = cells.iter().rfind(|c| c.peers >= 100_000) {
        if big.memory_ratio < 4.0 || big.missed_cuts != 0 {
            eprintln!(
                "[sketch] FATAL: acceptance failed at peers={}: memory_ratio={:.1} (need ≥4), \
                 missed_cuts={} (need 0); cut_exact={} cut_sketch={} extra_good={} \
                 max_excess={} items_max={}",
                big.peers,
                big.memory_ratio,
                big.missed_cuts,
                big.attackers_cut_exact,
                big.attackers_cut_sketch,
                big.extra_good_cuts,
                big.max_excess,
                big.items_max
            );
            std::process::exit(2);
        }
    }
    bench_report::publish(&cells, opts.seed, opts.smoke);
    bench_report::table(&cells, opts.smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cell_pairs_end_to_end() {
        let cell = measure_sketch_cell(400, 4, 1_500, 6, 12, 4, 42);
        assert_eq!(cell.peers, 400);
        assert!(cell.exact_state_bytes > 0, "overlay must have edges");
        assert!(cell.sketch_state_bytes > 0, "sketch run must report its state");
        assert!(cell.items_max > 0, "sketch must have ingested traffic");
        assert_eq!(cell.missed_cuts, 0, "a 2^12 x 4 sketch misses no cut at 400 peers");
    }

    #[test]
    fn paired_runs_share_ground_truth() {
        // Same seed through both backends: the attacker population (and so
        // the maximum cuttable set) is identical, which is what makes the
        // missed/extra comparison meaningful.
        let a = measure_sketch_cell(400, 4, 1_500, 4, 12, 4, 7);
        let b = measure_sketch_cell(400, 4, 1_500, 4, 12, 4, 7);
        assert_eq!(a.attackers_cut_exact, b.attackers_cut_exact, "runs are deterministic");
        assert_eq!(a.attackers_cut_sketch, b.attackers_cut_sketch);
        assert_eq!(a.sketch_state_bytes, b.sketch_state_bytes);
    }
}
