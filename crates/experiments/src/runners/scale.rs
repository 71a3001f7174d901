//! `scale` — throughput sweep over overlay size × attacker fraction.
//!
//! Reports ticks/sec, queries-processed/sec, and a peak-RSS proxy (heap
//! high-water mark from the binary's counting allocator) for the DD-POLICE
//! engine at paper defaults, and emits the machine-readable
//! `BENCH_scale.json` that tracks the perf trajectory PR-over-PR.
//!
//! Construction (topology generation, catalog sampling) is excluded from the
//! timed region: the number the sweep pins is steady-state ticks/sec of the
//! step loop, which is what every other experiment pays per data point.

use crate::bench_report::{self, BenchCell, Field, Value};
use crate::options::ExpOptions;
use crate::output::{f, Column, Table};
use ddp_metrics::CountingAlloc;
use ddp_oracle::{DefenseKind, Scenario};
use ddp_police::DdPoliceConfig;
use std::time::{Duration, Instant};

/// One measured grid cell.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Overlay size.
    pub peers: usize,
    /// Attacker fraction of the population.
    pub attacker_fraction: f64,
    /// Resulting agent count.
    pub agents: usize,
    /// Ticks in the timed step loop.
    pub ticks: usize,
    /// Worker-pool width the engine ran with (1 = serial).
    pub threads: usize,
    /// Wall-clock of the step loop, seconds.
    pub elapsed_secs: f64,
    /// Step-loop throughput.
    pub ticks_per_sec: f64,
    /// Query transmissions processed per wall-clock second.
    pub queries_per_sec: f64,
    /// Total query-hop transmissions over the timed region.
    pub query_hops_total: u64,
    /// Heap high-water mark over construction + step loop (0 when the binary
    /// has no counting allocator installed).
    pub peak_alloc_bytes: u64,
    /// Allocation calls during the step loop (0 without an allocator).
    pub step_allocations: u64,
    /// Run sanity: mean success rate (detects a silently-broken engine).
    pub success_rate_mean: f64,
    /// Run sanity: attacker disconnections performed.
    pub attackers_cut: u64,
}

impl BenchCell for ScaleCell {
    const SCHEMA: &'static str = "ddp-bench-scale/v2";
    const GENERATED_BY: &'static str = "ddp-experiments scale";
    const FILE: &'static str = "BENCH_scale.json";
    const FIELDS: &'static [Field<Self>] = &[
        ("peers", |c| Value::U64(c.peers as u64)),
        ("attacker_fraction", |c| Value::F64(c.attacker_fraction)),
        ("agents", |c| Value::U64(c.agents as u64)),
        ("ticks", |c| Value::U64(c.ticks as u64)),
        ("threads", |c| Value::U64(c.threads as u64)),
        ("elapsed_secs", |c| Value::F64(c.elapsed_secs)),
        ("ticks_per_sec", |c| Value::F64(c.ticks_per_sec)),
        ("queries_per_sec", |c| Value::F64(c.queries_per_sec)),
        ("query_hops_total", |c| Value::U64(c.query_hops_total)),
        ("peak_alloc_bytes", |c| Value::U64(c.peak_alloc_bytes)),
        ("step_allocations", |c| Value::U64(c.step_allocations)),
        ("success_rate_mean", |c| Value::F64(c.success_rate_mean)),
        ("attackers_cut", |c| Value::U64(c.attackers_cut)),
    ];
    const TABLE: (&'static str, &'static str) =
        ("scale", "Scale sweep: step-loop throughput (DD-POLICE defaults)");
    const COLUMNS: &'static [Column<Self>] = &[
        ("peers", |c| c.peers.to_string()),
        ("attack%", |c| format!("{:.0}%", c.attacker_fraction * 100.0)),
        ("agents", |c| c.agents.to_string()),
        ("ticks", |c| c.ticks.to_string()),
        ("threads", |c| c.threads.to_string()),
        ("ticks/sec", |c| f(c.ticks_per_sec, 3)),
        ("queries/sec", |c| f(c.queries_per_sec, 0)),
        ("peak_heap_MiB", |c| f(c.peak_alloc_bytes as f64 / (1024.0 * 1024.0), 1)),
    ];
}

/// Measure one cell: build a DD-POLICE-defended simulation, time the step
/// loop, and collect throughput + allocation numbers.
pub fn measure_cell(
    peers: usize,
    attacker_fraction: f64,
    ticks: usize,
    threads: usize,
    seed: u64,
    alloc: Option<&'static CountingAlloc>,
) -> ScaleCell {
    let agents = ((peers as f64 * attacker_fraction).round() as usize).min(peers / 2);
    if let Some(a) = alloc {
        a.reset();
    }
    let defense = DefenseKind::DdPolice(DdPoliceConfig::default());
    let cell = ExpOptions { peers, agents, ..ExpOptions::default() };
    let mut sim = Scenario { defense, seed, ..cell.scenario() }.build_police();
    sim.set_threads(threads);
    let allocs_before = alloc.map(|a| a.allocations() as u64).unwrap_or(0);
    let start = Instant::now();
    for _ in 0..ticks {
        sim.step();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let step_allocations = alloc.map(|a| a.allocations() as u64 - allocs_before).unwrap_or(0);
    let peak_alloc_bytes = alloc.map(|a| a.peak_bytes() as u64).unwrap_or(0);
    let (step, police) = (sim.phase_times(), sim.defense().phase_times());
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / step.ticks.max(1) as f64;
    eprintln!(
        "[scale]   ms/tick: churn {:.2} | emissions {:.2} | flood {:.2} | utilization {:.2} | \
         defense {:.2} (exchange {:.2}, judge {:.2}, replay {:.2})",
        ms(step.churn),
        ms(step.emission_build),
        ms(step.flood),
        ms(step.utilization),
        ms(step.defense),
        ms(police.exchange),
        ms(police.judge),
        ms(police.replay),
    );
    let result = sim.finish();
    let query_hops_total: u64 = result.series.traffic.values.iter().map(|&v| v as u64).sum();
    let safe_elapsed = elapsed.max(1e-9);
    ScaleCell {
        peers,
        attacker_fraction,
        agents,
        ticks,
        threads,
        elapsed_secs: elapsed,
        ticks_per_sec: ticks as f64 / safe_elapsed,
        queries_per_sec: query_hops_total as f64 / safe_elapsed,
        query_hops_total,
        peak_alloc_bytes,
        step_allocations,
        success_rate_mean: result.summary.success_rate_mean,
        attackers_cut: result.summary.attackers_cut,
    }
}

/// The sweep grid: `(peers, attacker_fraction, ticks, threads)`. Tick counts
/// shrink with overlay size so the full sweep stays minutes, not hours;
/// throughput is per-tick steady state, so few ticks suffice at large n.
/// The 100k and 1M cells sweep worker widths 1/2/4/8 — the thread-scaling
/// trajectory the parallel tick engine is pinned on. The smoke grid runs a
/// single small cell at `threads` (the CLI `--threads` value), so CI can
/// exercise the parallel path end to end cheaply.
pub fn scale_grid(smoke: bool, threads: usize) -> Vec<(usize, f64, usize, usize)> {
    if smoke {
        return vec![(300, 0.05, 2, threads)];
    }
    let mut grid = vec![(2_000, 0.05, 10, 1), (8_000, 0.05, 5, 1), (10_000, 0.05, 4, 1)];
    for w in [1usize, 2, 4, 8] {
        grid.push((100_000, 0.05, 2, w));
    }
    for w in [1usize, 2, 4, 8] {
        grid.push((1_000_000, 0.05, 1, w));
    }
    grid
}

/// Run the sweep, publish `BENCH_scale.json` (validated always, written for
/// the full grid), and return the human-readable table.
pub fn scale(opts: &ExpOptions, alloc: Option<&'static CountingAlloc>) -> Table {
    let cells: Vec<ScaleCell> = scale_grid(opts.smoke, opts.threads)
        .into_iter()
        .map(|(peers, frac, ticks, threads)| {
            eprintln!(
                "[scale] measuring peers={peers} attackers={:.0}% ticks={ticks} threads={threads}",
                frac * 100.0
            );
            measure_cell(peers, frac, ticks, threads, opts.seed, alloc)
        })
        .collect();
    bench_report::publish(&cells, opts.seed, opts.smoke);
    bench_report::table(&cells, opts.smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cell_measures_end_to_end() {
        let cell = measure_cell(300, 0.05, 2, 1, 42, None);
        assert_eq!(cell.peers, 300);
        assert_eq!(cell.agents, 15);
        assert_eq!(cell.ticks, 2);
        assert_eq!(cell.threads, 1);
        assert!(cell.ticks_per_sec > 0.0);
        assert!(cell.query_hops_total > 0, "floods must move traffic");
        assert!(cell.success_rate_mean > 0.0);
    }

    #[test]
    fn parallel_smoke_cell_matches_serial_results() {
        // The bench path itself must honor byte-identity: same seed, same
        // cell, different widths — identical simulation outcomes.
        let serial = measure_cell(300, 0.05, 2, 1, 42, None);
        let parallel = measure_cell(300, 0.05, 2, 4, 42, None);
        assert_eq!(parallel.threads, 4);
        assert_eq!(serial.query_hops_total, parallel.query_hops_total);
        assert_eq!(serial.success_rate_mean.to_bits(), parallel.success_rate_mean.to_bits());
        assert_eq!(serial.attackers_cut, parallel.attackers_cut);
    }
}
