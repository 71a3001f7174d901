//! Lockstep differential runner: the optimized engine and the naive oracle
//! side by side, state-compared after **every** tick.
//!
//! Both twins are instantiated from the same [`ScenarioSpec`], so topology,
//! workload, attack wiring, churn, and fault dice are identical as long as
//! the two defenses take the same actions — which is exactly the property
//! under test. The first observable difference is reported as a
//! [`Divergence`] with the tick and a description of the mismatched facet;
//! the comparison stops there because the twins' RNG streams split the
//! moment their actions differ.

use crate::model::OracleDdPolice;
use crate::spec::ScenarioSpec;
use ddp_police::DdPolice;
use ddp_sim::{Simulation, Tick};
use ddp_topology::NodeId;

/// The first observable difference between the engine and the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Tick at which the twins first disagreed.
    pub tick: Tick,
    /// Human-readable description of the mismatched facet.
    pub what: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tick {}: {}", self.tick, self.what)
    }
}

/// Success statistics, for fuzz-run reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockstepStats {
    /// Ticks executed in lockstep.
    pub ticks: u32,
    /// `(g, s)` judgments compared (1-ulp).
    pub judgments: usize,
    /// Defensive cuts both twins agreed on.
    pub cuts: usize,
}

/// `a` and `b` equal within 1 unit in the last place. `±0` compare equal;
/// NaNs only match NaNs (a NaN disagreement is a real divergence).
fn ulp_eq(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    let (ia, ib) = (a.to_bits() as i64, b.to_bits() as i64);
    if (ia < 0) != (ib < 0) {
        return false;
    }
    ia.abs_diff(ib) <= 1
}

/// Sorted undirected edge list of a simulation's overlay.
fn edge_set<D: ddp_sim::Defense>(sim: &Simulation<D>) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = sim
        .overlay()
        .graph()
        .edges()
        .map(|(u, v)| if u.0 <= v.0 { (u.0, v.0) } else { (v.0, u.0) })
        .collect();
    edges.sort_unstable();
    edges
}

/// Run `spec` on the engine and the oracle in lockstep, comparing all
/// observable defense state after every tick. `Err` carries the first
/// divergence found.
pub fn run_lockstep(spec: &ScenarioSpec) -> Result<LockstepStats, Divergence> {
    let mut engine = spec.instantiate(DdPolice::new(spec.police_config(), spec.peers));
    engine.defense_mut().set_tracing(true);
    let mut oracle = spec.instantiate(OracleDdPolice::new(spec.police_config()));

    let mut stats = LockstepStats::default();
    for _ in 0..spec.ticks {
        engine.step();
        oracle.step();
        stats.ticks += 1;
        stats.judgments += compare_tick(&mut engine, &mut oracle)?;
    }
    stats.cuts = engine.cut_log().len();
    Ok(stats)
}

/// Run `spec` on two copies of the optimized engine — one serial, one
/// sharded over `threads` worker threads — and compare them tick for tick:
/// the per-tick state hash (FNV-1a over the complete snapshot payload, so
/// every serialized byte of overlay, workload, defense, metrics, and RNG
/// state is covered), the drained judgment traces (bit-exact, not 1-ulp:
/// same engine on both sides), and the final run results.
pub fn run_parallel_lockstep(
    spec: &ScenarioSpec,
    threads: usize,
) -> Result<LockstepStats, Divergence> {
    let build = || {
        let mut sim = spec.instantiate(DdPolice::new(spec.police_config(), spec.peers));
        sim.defense_mut().set_tracing(true);
        sim.enable_hash_trace();
        sim
    };
    let mut serial = build();
    let mut parallel = build();
    parallel.set_threads(threads);

    let mut stats = LockstepStats::default();
    for _ in 0..spec.ticks {
        serial.step();
        parallel.step();
        stats.ticks += 1;
        let tick = serial.tick();
        let diverged = |what: String| Divergence { tick, what };
        let (hs, hp) = (serial.state_hash(), parallel.state_hash());
        if hs != hp {
            return Err(diverged(format!(
                "state hash differs at {threads} threads: serial {hs:#018x} vs parallel {hp:#018x}"
            )));
        }
        let serial_trace = serial.defense_mut().take_trace();
        let parallel_trace = parallel.defense_mut().take_trace();
        if serial_trace != parallel_trace {
            return Err(diverged(format!(
                "judgment traces differ at {threads} threads: serial {} vs parallel {} entries",
                serial_trace.len(),
                parallel_trace.len()
            )));
        }
        stats.judgments += serial_trace.len();
    }
    if serial.hash_trace() != parallel.hash_trace() {
        return Err(Divergence {
            tick: serial.tick(),
            what: "recorded hash series differ despite per-tick equality".into(),
        });
    }
    stats.cuts = serial.cut_log().len();
    let (a, b) = (serial.finish(), parallel.finish());
    if a.summary != b.summary || a.series != b.series || a.cut_log != b.cut_log {
        return Err(Divergence {
            tick: spec.ticks,
            what: format!(
                "final results differ at {threads} threads: serial {:?} vs parallel {:?}",
                a.summary, b.summary
            ),
        });
    }
    Ok(stats)
}

/// Like [`run_lockstep`], but the engine twin is torn down mid-run: at the
/// start of tick `snapshot_tick + 1` it is serialized, a **fresh** engine is
/// built from the spec and restored from those bytes, and the lockstep
/// continues on the replacement. The oracle never notices — any state the
/// snapshot fails to carry (RNG positions, mailboxes, verdict clocks,
/// exchange views, quantile estimators) surfaces as an ordinary
/// [`Divergence`] on the very next compared tick. A snapshot/restore failure
/// is reported as a divergence at the snapshot tick.
pub fn run_lockstep_with_restore(
    spec: &ScenarioSpec,
    snapshot_tick: Tick,
) -> Result<LockstepStats, Divergence> {
    let build_engine = || {
        let mut e = spec.instantiate(DdPolice::new(spec.police_config(), spec.peers));
        e.defense_mut().set_tracing(true);
        e
    };
    let mut engine = build_engine();
    let mut oracle = spec.instantiate(OracleDdPolice::new(spec.police_config()));

    let mut stats = LockstepStats::default();
    for _ in 0..spec.ticks {
        if engine.tick() == snapshot_tick {
            let snap = |what: String| Divergence { tick: snapshot_tick, what };
            let bytes =
                engine.save_snapshot().map_err(|e| snap(format!("snapshot save failed: {e}")))?;
            let mut fresh = build_engine();
            fresh
                .restore_snapshot(&bytes)
                .map_err(|e| snap(format!("snapshot restore failed: {e}")))?;
            engine = fresh;
        }
        engine.step();
        oracle.step();
        stats.ticks += 1;
        stats.judgments += compare_tick(&mut engine, &mut oracle)?;
    }
    stats.cuts = engine.cut_log().len();
    Ok(stats)
}

/// One post-tick comparison sweep. Returns the number of judgments checked.
fn compare_tick(
    engine: &mut Simulation<DdPolice>,
    oracle: &mut Simulation<OracleDdPolice>,
) -> Result<usize, Divergence> {
    let tick = engine.tick();
    let diverged = |what: String| Divergence { tick, what };

    if oracle.tick() != tick {
        return Err(diverged(format!("tick counters differ: oracle at {}", oracle.tick())));
    }

    // Judgment traces: the tentpole's 1-ulp indicator equivalence.
    let engine_trace = engine.defense_mut().take_trace();
    let oracle_trace = oracle.defense_mut().take_trace();
    if engine_trace.len() != oracle_trace.len() {
        return Err(diverged(format!(
            "judgment counts differ: engine {} vs oracle {} (engine {:?} / oracle {:?})",
            engine_trace.len(),
            oracle_trace.len(),
            engine_trace.iter().map(|t| (t.observer.0, t.suspect.0)).collect::<Vec<_>>(),
            oracle_trace.iter().map(|t| (t.observer.0, t.suspect.0)).collect::<Vec<_>>(),
        )));
    }
    for (e, o) in engine_trace.iter().zip(&oracle_trace) {
        if (e.tick, e.observer, e.suspect) != (o.tick, o.observer, o.suspect) {
            return Err(diverged(format!("judgment order differs: engine {e:?} vs oracle {o:?}")));
        }
        if !ulp_eq(e.g, o.g) || !ulp_eq(e.s, o.s) {
            return Err(diverged(format!(
                "indicators differ for observer {} judging {}: engine g={:?} s={:?} vs oracle g={:?} s={:?}",
                e.observer.0, e.suspect.0, e.g, e.s, o.g, o.s
            )));
        }
    }

    // Population and membership.
    let n = engine.node_count();
    if oracle.node_count() != n {
        return Err(diverged(format!(
            "node counts differ: engine {n} vs oracle {}",
            oracle.node_count()
        )));
    }
    for i in 0..n {
        let node = NodeId::from_index(i);
        if engine.is_online(node) != oracle.is_online(node) {
            return Err(diverged(format!(
                "online flag differs for node {i}: engine {} vs oracle {}",
                engine.is_online(node),
                oracle.is_online(node)
            )));
        }
    }

    // Overlay structure (cuts, churn rewires, probes — all defense-driven).
    let engine_edges = edge_set(engine);
    let oracle_edges = edge_set(oracle);
    if engine_edges != oracle_edges {
        let only_e: Vec<_> = engine_edges.iter().filter(|e| !oracle_edges.contains(e)).collect();
        let only_o: Vec<_> = oracle_edges.iter().filter(|e| !engine_edges.contains(e)).collect();
        return Err(diverged(format!(
            "edge sets differ: engine-only {only_e:?}, oracle-only {only_o:?}"
        )));
    }

    // Verdict lifecycle state, per observer, in the engine's vocabulary.
    for i in 0..n {
        let node = NodeId::from_index(i);
        let engine_entries = engine.defense().verdicts().entries_of(node);
        let oracle_entries = oracle.defense().entries_of(node);
        if engine_entries != oracle_entries {
            return Err(diverged(format!(
                "verdict entries differ for observer {i}: engine {engine_entries:?} vs oracle {oracle_entries:?}"
            )));
        }
    }

    // Exchange views.
    let engine_snaps: Vec<(u32, u32, Vec<NodeId>, Tick)> = engine
        .defense()
        .exchange()
        .all_snapshots()
        .into_iter()
        .map(|(i, j, s)| (i, j, s.members.to_vec(), s.taken_at))
        .collect();
    let oracle_snaps = oracle.defense().snapshots_canonical();
    if engine_snaps != oracle_snaps {
        let describe = |snaps: &[(u32, u32, Vec<NodeId>, Tick)]| -> Vec<(u32, u32, usize, Tick)> {
            snaps.iter().map(|(i, j, m, t)| (*i, *j, m.len(), *t)).collect()
        };
        return Err(diverged(format!(
            "exchange views differ: engine {:?} vs oracle {:?}",
            describe(&engine_snaps),
            describe(&oracle_snaps)
        )));
    }

    // Action ledgers.
    if engine.cut_log() != oracle.cut_log() {
        return Err(diverged(format!(
            "cut logs differ: engine {:?} vs oracle {:?}",
            engine.cut_log(),
            oracle.cut_log()
        )));
    }
    if engine.verdict_log() != oracle.verdict_log() {
        let engine_tail: Vec<_> = engine.verdict_log().iter().rev().take(6).collect();
        let oracle_tail: Vec<_> = oracle.verdict_log().iter().rev().take(6).collect();
        return Err(diverged(format!(
            "verdict ledgers differ: engine tail {engine_tail:?} vs oracle tail {oracle_tail:?}"
        )));
    }
    if engine.whitewash_log() != oracle.whitewash_log() {
        return Err(diverged(format!(
            "whitewash logs differ: engine {:?} vs oracle {:?}",
            engine.whitewash_log(),
            oracle.whitewash_log()
        )));
    }
    if engine.session_stats() != oracle.session_stats() {
        return Err(diverged(format!(
            "session stats differ: engine {:?} vs oracle {:?}",
            engine.session_stats(),
            oracle.session_stats()
        )));
    }

    // Output series, bit-for-bit (to_bits: NaN-safe, ±0-strict — an honest
    // superset of the 1-ulp indicator comparison because every series value
    // is either a count or a deterministic function of identical state).
    let series = [
        ("success_rate", &engine.series().success_rate, &oracle.series().success_rate),
        ("response_time", &engine.series().response_time, &oracle.series().response_time),
        ("traffic", &engine.series().traffic, &oracle.series().traffic),
        ("control_traffic", &engine.series().control_traffic, &oracle.series().control_traffic),
        ("drop_rate", &engine.series().drop_rate, &oracle.series().drop_rate),
    ];
    for (name, e, o) in series {
        if e.values.len() != o.values.len() {
            return Err(diverged(format!(
                "series {name} lengths differ: engine {} vs oracle {}",
                e.values.len(),
                o.values.len()
            )));
        }
        for (idx, (a, b)) in e.values.iter().zip(&o.values).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(diverged(format!(
                    "series {name}[{idx}] differs: engine {a:?} vs oracle {b:?}"
                )));
            }
        }
    }

    Ok(engine_trace.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_comparison_semantics() {
        assert!(ulp_eq(1.0, 1.0));
        assert!(ulp_eq(0.0, -0.0));
        assert!(ulp_eq(1.0, f64::from_bits(1.0f64.to_bits() + 1)));
        assert!(!ulp_eq(1.0, f64::from_bits(1.0f64.to_bits() + 2)));
        assert!(!ulp_eq(1e-300, -1e-300), "sign flip is never 1 ulp");
        assert!(ulp_eq(f64::NAN, f64::NAN));
        assert!(!ulp_eq(f64::NAN, 0.0));
    }

    #[test]
    fn default_scenario_runs_clean() {
        let spec = ScenarioSpec::default();
        let stats = run_lockstep(&spec).unwrap_or_else(|d| panic!("diverged: {d}"));
        assert_eq!(stats.ticks, spec.ticks);
        assert!(stats.judgments > 0, "a flooded overlay must produce judgments");
    }

    /// The nastiest spec the snapshot has to survive: faulty control plane
    /// (in-flight mail), churn + whitewashing (free lists, dwell counters,
    /// grown slots), readmission + TTL sweep (verdict clocks), and hysteresis
    /// (Watching histories) — all live at once.
    fn adversarial_spec() -> ScenarioSpec {
        ScenarioSpec {
            peers: 60,
            ticks: 14,
            seed: 7,
            agents: 5,
            loss: 0.1,
            delay_prob: 0.2,
            delay_ticks: 2,
            crash_prob: 0.02,
            churn: true,
            whitewash_dwell: 2,
            whitewash_quiet: 1,
            hys_required: 2,
            hys_window: 3,
            readmission: true,
            suspect_ttl: 6,
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn restore_mid_lockstep_is_invisible_to_the_oracle() {
        let spec = adversarial_spec();
        // The reference run must be clean before the restore variant means
        // anything.
        run_lockstep(&spec).unwrap_or_else(|d| panic!("reference diverged: {d}"));
        // Adversarially chosen boundary: tick 5 sits after the first cuts
        // and whitewash dwells begin but before readmission probes fire, so
        // every clock is mid-flight. Sweep a few neighbors of it too.
        for snapshot_tick in [1, 5, spec.ticks - 1] {
            let stats = run_lockstep_with_restore(&spec, snapshot_tick)
                .unwrap_or_else(|d| panic!("diverged after restore at {snapshot_tick}: {d}"));
            assert_eq!(stats.ticks, spec.ticks);
        }
    }
}
