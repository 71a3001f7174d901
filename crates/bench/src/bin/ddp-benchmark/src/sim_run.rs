//! The three simulator workloads: set-up, the timed window, the traced twin
//! and the output checks.

use crate::kernels;
use crate::metrics::Values;
use crate::shim::{self, Police, Shim, TickProbe};
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::Recorder;
use crate::workloads::{SimWorkload, ATTACK_SEED_TAG};
use crate::{Failure, RunOutput};
use ddp_attack::AttackPlan;
use ddp_metrics::CountingAlloc;
use ddp_police::DdPolice;
use ddp_sim::Simulation;
use ddp_workload::ContentCatalog;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// How many ticks of a traced window a bare twin of the same seed steps
/// alongside, for the shim-inertness check.
const PAIRED_TICKS: usize = 10;

/// When each stage of one set-up began and ended.
#[derive(Debug, Clone, Copy)]
struct BuildTimes {
    start: Instant,
    built: Instant,
    attacked: Instant,
    warm: Instant,
}

impl BuildTimes {
    fn new_ms(&self) -> f64 {
        (self.built - self.start).as_secs_f64() * 1e3
    }
    fn apply_ms(&self) -> f64 {
        (self.attacked - self.built).as_secs_f64() * 1e3
    }
    fn warmup_ms(&self) -> f64 {
        (self.warm - self.attacked).as_secs_f64() * 1e3
    }
    fn total_s(&self) -> f64 {
        (self.warm - self.start).as_secs_f64()
    }
}

/// One timed `Simulation::step`.
#[derive(Debug, Clone, Copy)]
struct TickSample {
    start: Instant,
    wall_ns: u64,
    allocs: u64,
    /// Heap high-water of the step above the live size it started from.
    transient_bytes: u64,
    probe: TickProbe,
}

/// Build the workload's simulation around `wrap(police)`: construct, place
/// the agents, step the warm-up ticks. Everything `setup_s` covers.
fn build<D: Police>(
    w: &SimWorkload,
    seed: u64,
    wrap: impl FnOnce(DdPolice) -> D,
) -> (Simulation<D>, BuildTimes) {
    let start = Instant::now();
    let police = DdPolice::new(w.police, w.peers());
    let mut sim = Simulation::new(w.sim.clone(), wrap(police), seed);
    sim.set_threads(1);
    let built = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed ^ ATTACK_SEED_TAG);
    AttackPlan::new(w.agents).apply(&mut sim, &mut rng);
    let attacked = Instant::now();
    for _ in 0..w.warmup_ticks {
        sim.step();
    }
    (sim, BuildTimes { start, built, attacked, warm: Instant::now() })
}

/// Step once, measuring wall time and heap traffic around the call only.
/// `peak` carries the run's heap high-water across the per-step resets.
fn step_timed<D: Police>(
    sim: &mut Simulation<D>,
    alloc: &CountingAlloc,
    peak: &mut usize,
) -> TickSample {
    *peak = (*peak).max(alloc.peak_bytes());
    alloc.reset();
    let live = alloc.current_bytes();
    let start = Instant::now();
    sim.step();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let allocs = alloc.allocations() as u64;
    let step_peak = alloc.peak_bytes();
    *peak = (*peak).max(step_peak);
    TickSample {
        start,
        wall_ns,
        allocs,
        transient_bytes: step_peak.saturating_sub(live) as u64,
        probe: sim.defense_mut().take_probe(),
    }
}

/// One failure per tick of the window `[from, from + len)` whose recorded
/// series values break an output check: a non-finite value, or no flood hop.
fn check_ticks<D: Police>(
    sim: &Simulation<D>,
    from: usize,
    len: usize,
    failures: &mut Vec<Failure>,
) {
    let s = sim.series();
    for i in from..from + len {
        let row = [
            s.success_rate.values[i],
            s.response_time.values[i],
            s.traffic.values[i],
            s.control_traffic.values[i],
            s.drop_rate.values[i],
        ];
        let hops = s.traffic.values[i] - s.control_traffic.values[i];
        if row.iter().any(|v| !v.is_finite()) || hops <= 0.0 {
            failures.push(Failure::new(
                1,
                format!("tick {}: series {row:?} not finite or without flood hops", i + 1),
            ));
        }
    }
}

/// What the inertness check compares between the bare and the wrapped run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    cut_log_len: usize,
    verdict_log_len: usize,
    /// Bit patterns of success rate, traffic and control traffic per tick.
    series_bits: Vec<[u64; 3]>,
}

pub fn fingerprint<D: Police>(sim: &Simulation<D>) -> Fingerprint {
    let s = sim.series();
    Fingerprint {
        cut_log_len: sim.cut_log().len(),
        verdict_log_len: sim.verdict_log().len(),
        series_bits: (0..s.len())
            .map(|i| {
                [
                    s.success_rate.values[i].to_bits(),
                    s.traffic.values[i].to_bits(),
                    s.control_traffic.values[i].to_bits(),
                ]
            })
            .collect(),
    }
}

/// One failure per disagreement between two fingerprints taken at the same
/// tick. None means the shim was inert.
pub fn check_inert(bare: &Fingerprint, wrapped: &Fingerprint, failures: &mut Vec<Failure>) {
    if bare.series_bits.len() != wrapped.series_bits.len() {
        failures.push(Failure::new(1, "shim: series lengths differ"));
    }
    for (i, (a, b)) in bare.series_bits.iter().zip(&wrapped.series_bits).enumerate() {
        if a != b {
            failures.push(Failure::new(1, format!("shim: tick {} series bits differ", i + 1)));
        }
    }
    if bare.cut_log_len != wrapped.cut_log_len {
        let what = format!("shim: cut_log {} vs {}", bare.cut_log_len, wrapped.cut_log_len);
        failures.push(Failure::new(1, what));
    }
    if bare.verdict_log_len != wrapped.verdict_log_len {
        let what =
            format!("shim: verdict_log {} vs {}", bare.verdict_log_len, wrapped.verdict_log_len);
        failures.push(Failure::new(1, what));
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(w: &SimWorkload, seed: u64, alloc: &'static CountingAlloc) -> RunOutput {
    let mut failures = Vec::new();
    // Set-up replays first; each is dropped before the next starts, so the
    // heap high-water below belongs to one simulation.
    let mut setups = Vec::with_capacity(w.setup_repeats);
    for _ in 1..w.setup_repeats {
        setups.push(build(w, seed, |p| p).1.total_s());
    }
    alloc.reset();
    let (mut sim, times) = build(w, seed, |p| p);
    setups.push(times.total_s());
    let mut peak = alloc.peak_bytes();

    let samples: Vec<TickSample> =
        (0..w.timed_ticks).map(|_| step_timed(&mut sim, alloc, &mut peak)).collect();

    check_ticks(&sim, w.warmup_ticks, w.timed_ticks, &mut failures);
    let first_cut = sim.cut_log().iter().find(|c| c.suspect_was_attacker).map(|c| c.tick);
    if first_cut.is_none() {
        failures.push(Failure::new(1, "no agent was ever cut"));
    }
    let joins = sim.session_stats().joins;
    let result = sim.finish();
    let window = w.warmup_ticks..w.warmup_ticks + w.timed_ticks;
    let walls_s: Vec<f64> = samples.iter().map(|s| s.wall_ns as f64 / 1e9).collect();
    let walls_us: Vec<f64> = samples.iter().map(|s| s.wall_ns as f64 / 1e3).collect();
    // Good peers that ever existed: the initial ones plus session arrivals.
    let good_seen = (w.peers() - w.agents) as f64 + joins as f64;

    let mut m = Values::default();
    m.set("setup_s", median(&setups));
    m.set("ops_per_s", w.timed_ticks as f64 / walls_s.iter().sum::<f64>());
    m.set("op_p50_us", median(&walls_us));
    m.set("peak_bytes_per_peer", peak as f64 / w.peers() as f64);
    m.set(
        "allocs_per_op",
        samples.iter().map(|s| s.allocs).sum::<u64>() as f64 / w.timed_ticks as f64,
    );
    m.set("query_success_rate", mean(result.series.success_rate.values[window].iter().copied()));
    m.set("good_kept_rate", 1.0 - result.summary.errors.false_negative as f64 / good_seen);
    m.set("attacker_cut_rate", 1.0 - result.summary.attackers_never_cut as f64 / w.agents as f64);
    m.set("first_cut_tick", f64::from(first_cut.unwrap_or(result.summary.ticks as u32 + 1)));
    RunOutput {
        workload: w.name,
        seed,
        traced: false,
        attempted: w.timed_ticks as u64,
        failures,
        metrics: m,
        counts: vec![
            ("peers", w.peers() as u64),
            ("warmup_ticks", w.warmup_ticks as u64),
            ("timed_ticks", w.timed_ticks as u64),
            ("setup_samples", setups.len() as u64),
        ],
        threads: 1,
    }
}

/// The traced run: every per-layer metric. The wrapped simulation runs the
/// whole window; a bare twin of the same seed steps the first
/// [`PAIRED_TICKS`] alongside it.
pub fn run_traced(w: &SimWorkload, seed: u64, alloc: &'static CountingAlloc) -> RunOutput {
    let mut failures = Vec::new();
    let mut m = Values::per_layer_zeros();
    let mut rec = Recorder::new(w.name);
    let epoch = rec.epoch();
    let at = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let run_span = rec.begin("run", None);

    // Set-up, with the two generators `Simulation::new` calls replayed in
    // isolation first (their results are dropped; `sim.new` runs them again).
    let setup_span = rec.begin("setup", Some(run_span));
    let (_, generate_ms) = rec.scope("topology.generate", Some(setup_span), || {
        w.sim.topology.generate(&mut StdRng::seed_from_u64(seed))
    });
    let (_, catalog_ms) = rec.scope("workload.catalog", Some(setup_span), || {
        ContentCatalog::generate(w.peers(), &w.sim.content, &mut StdRng::seed_from_u64(seed))
    });
    let (mut traced, times) = build(w, seed, |p| {
        let mut shim = Shim::new(p, epoch);
        shim.police_mut().set_tracing(true);
        shim
    });
    rec.record("sim.new", at(times.start), at(times.built), Some(setup_span));
    rec.record("attack.apply", at(times.built), at(times.attacked), Some(setup_span));
    rec.record("warmup", at(times.attacked), at(times.warm), Some(setup_span));
    rec.end(setup_span);
    // What the warm-up left in the probe and the judgment trace is not the
    // window's.
    traced.defense_mut().take_probe();
    traced.defense_mut().police_mut().take_trace();
    m.set("topology.generate_ms", generate_ms);
    m.set("workload.catalog_ms", catalog_ms);
    m.set("sim.new_ms", times.new_ms());
    m.set("attack.apply_ms", times.apply_ms());
    m.set("sim.warmup_ms", times.warmup_ms());

    let (mut bare, _) = build(w, seed, |p| p);

    // The window.
    let paired = PAIRED_TICKS.min(w.timed_ticks);
    let mut peak = 0usize;
    let mut samples = Vec::with_capacity(w.timed_ticks);
    let mut judgments = 0u64;
    let mut sketch_items = 0u64;
    let mut paired_print = None;
    for i in 0..w.timed_ticks {
        if i < paired {
            bare.step();
        }
        let s = step_timed(&mut traced, alloc, &mut peak);
        let police = traced.defense_mut().police_mut();
        judgments += police.take_trace().len() as u64;
        sketch_items += police.sketch_stats().items_last_tick;
        let tick_span =
            rec.record(&format!("tick[{i}]"), at(s.start), at(s.start) + s.wall_ns, Some(run_span));
        let p = s.probe;
        rec.record(
            "police.on_tick",
            p.on_tick_start_ns,
            p.on_tick_start_ns + p.on_tick_ns,
            Some(tick_span),
        );
        // One aggregated span per tick: anchored at the first hook call, as
        // long as all hook calls of the tick together.
        rec.record(
            "police.hooks",
            p.hooks_start_ns,
            p.hooks_start_ns + p.hooks_ns,
            Some(tick_span),
        );
        samples.push(s);
        if i + 1 == paired {
            paired_print = Some(fingerprint(&traced));
        }
    }

    // Output checks.
    check_ticks(&traced, w.warmup_ticks, w.timed_ticks, &mut failures);
    let paired_print = paired_print.expect("a window has at least one tick");
    check_inert(&fingerprint(&bare), &paired_print, &mut failures);

    // Per-tick layer metrics.
    let n = samples.len() as f64;
    let wall_ms: Vec<f64> = samples.iter().map(|s| s.wall_ns as f64 / 1e6).collect();
    let on_tick_ms: Vec<f64> = samples.iter().map(|s| s.probe.on_tick_ns as f64 / 1e6).collect();
    let hooks_ms: f64 = samples.iter().map(|s| s.probe.hooks_ns as f64 / 1e6).sum();
    let wall_total: f64 = wall_ms.iter().sum();
    let on_tick_total: f64 = on_tick_ms.iter().sum();
    // A layer's self time is its span minus its children.
    let engine_self = wall_total - on_tick_total - hooks_ms;
    let tail = tail_percentile(samples.len());
    let wall_sorted = sorted(&wall_ms);
    m.set("sim.step.samples", n);
    m.set("sim.step.p50_ms", percentile(&wall_sorted, 50.0));
    m.set("sim.step.tail_pct", tail);
    m.set("sim.step.tail_ms", percentile(&wall_sorted, tail));
    m.set("sim.step.max_ms", wall_sorted.last().copied().unwrap_or(0.0));
    m.set("sim.engine.self_ms_per_tick", engine_self / n);
    m.set("sim.engine.share", engine_self / wall_total);
    m.set("police.on_tick.ms_per_tick", on_tick_total / n);
    m.set("police.on_tick.tail_ms", percentile(&sorted(&on_tick_ms), tail));
    m.set("police.on_tick.share", on_tick_total / wall_total);
    m.set("police.hooks.ms_per_tick", hooks_ms / n);
    m.set(
        "sim.churn.mutations_per_tick",
        samples.iter().map(|s| s.probe.mutations).sum::<u64>() as f64 / n,
    );
    m.set(
        "sim.step.transient_bytes_per_tick",
        samples.iter().map(|s| s.transient_bytes).sum::<u64>() as f64 / n,
    );
    // What the shim's own clock reads cost inside the timed steps. (Timing a
    // bare twin against the traced one cannot resolve it: at 100 000 peers
    // two simulations of one seed differ by five percent either way.)
    let shim_calls: u64 = samples.iter().map(|s| s.probe.calls).sum();
    m.set(
        "trace.overhead_pct",
        shim_calls as f64 * shim::call_cost_ns() / 1e6 / wall_total * 100.0,
    );

    // Counts over the window, from the simulation's own logs.
    let window = w.warmup_ticks..w.warmup_ticks + w.timed_ticks;
    let series = traced.series();
    m.set(
        "sim.flood.hops_per_tick",
        mean(window.clone().map(|i| series.traffic.values[i] - series.control_traffic.values[i])),
    );
    m.set(
        "police.control_msgs_per_tick",
        mean(series.control_traffic.values[window].iter().copied()),
    );
    let in_window = |tick: u32| tick as usize > w.warmup_ticks;
    let cuts = traced.cut_log().iter().filter(|c| in_window(c.tick)).count() as f64;
    let transitions = traced.verdict_log().iter().filter(|t| in_window(t.tick)).count() as f64;
    m.set("police.judgments_per_tick", judgments as f64 / n);
    m.set("police.cuts_per_judgment", cuts / judgments.max(1) as f64);
    m.set("police.transitions_per_tick", transitions / n);
    let police = traced.defense().police();
    let (entries, snapshots) = police.state_footprint();
    m.set("police.state_entries_per_peer", (entries + snapshots) as f64 / w.peers() as f64);
    m.set("sketch.items_per_tick", sketch_items as f64 / n);
    m.set("sketch.max_excess", f64::from(police.sketch_stats().max_excess_run));
    m.set("sketch.state_bytes", police.sketch_monitor().map_or(0, |s| s.state_bytes()) as f64);
    let agents = traced.attackers();
    let connected = agents.iter().filter(|&&a| traced.overlay().degree(a) > 0).count();
    m.set("sim.agents_connected_share", connected as f64 / agents.len().max(1) as f64);

    // Kernels replayed on the workload's own overlay.
    m.set("sim.flood.kernel_ns_per_hop", kernels::flood_ns_per_hop(&traced, seed));
    m.set("police.exchange.kernel_ms", kernels::exchange_ms(&traced, w.police.exchange));
    m.set("police.indicator.kernel_ns", kernels::indicator_ns(seed));

    // Snapshot: the price of --checkpoint-every and enable_hash_trace, on
    // the bare twin; a fresh simulation must restore to the same hash.
    let t = Instant::now();
    let saved = bare.save_snapshot();
    m.set("snapshot.save_ms", ms_since(t));
    let t = Instant::now();
    let hash = bare.state_hash();
    m.set("snapshot.hash_ms", ms_since(t));
    let mut restored = Simulation::new(w.sim.clone(), DdPolice::new(w.police, w.peers()), seed);
    match saved {
        Ok(bytes) => {
            m.set("snapshot.bytes_per_peer", bytes.len() as f64 / w.peers() as f64);
            let t = Instant::now();
            let outcome = restored.restore_snapshot(&bytes);
            m.set("snapshot.restore_ms", ms_since(t));
            if outcome.is_err() || restored.state_hash() != hash {
                let what = format!("snapshot did not restore to the saved state: {outcome:?}");
                failures.push(Failure::new(1, what));
            }
        }
        Err(e) => failures.push(Failure::new(1, format!("snapshot save failed: {e}"))),
    }

    // Worker pool: the restored copy at two threads against the bare twin
    // at one, same ticks, same final state.
    let pool_ticks = (w.timed_ticks / 10).max(2);
    restored.set_threads(2);
    let (mut one_ns, mut two_ns) = (0u64, 0u64);
    for _ in 0..pool_ticks {
        one_ns += step_timed(&mut bare, alloc, &mut peak).wall_ns;
        two_ns += step_timed(&mut restored, alloc, &mut peak).wall_ns;
    }
    m.set("sim.pool.t2_speedup", one_ns as f64 / two_ns as f64);
    if bare.state_hash() != restored.state_hash() {
        failures.push(Failure::new(1, "two worker threads diverged from one"));
    }

    let t = Instant::now();
    black_box(traced.finish());
    m.set("sim.finish_ms", ms_since(t));

    rec.end(run_span);
    if let Err(e) = rec.write_jsonl() {
        failures.push(Failure::new(1, format!("spans not written: {e}")));
    }
    RunOutput {
        workload: w.name,
        seed,
        traced: true,
        attempted: w.timed_ticks as u64,
        failures,
        metrics: m,
        counts: vec![
            ("peers", w.peers() as u64),
            ("warmup_ticks", w.warmup_ticks as u64),
            ("timed_ticks", w.timed_ticks as u64),
            ("paired_ticks", paired as u64),
            ("pool_ticks", pool_ticks as u64),
            ("spans", rec.spans().len() as u64),
        ],
        threads: 2,
    }
}
