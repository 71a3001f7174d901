//! Tests of the harness itself, each at 400 peers so the suite takes
//! seconds. They check that the benchmark measures what it says, never a
//! number.

use crate::json::{parse, Value};
use crate::metrics::{manifest, END_TO_END, PER_LAYER};
use crate::shim::{Police, Shim};
use crate::sim_run::{check_inert, fingerprint};
use crate::workloads::{sim_workload, SimWorkload, ATTACK_SEED_TAG, WORKLOADS};
use crate::{run_one, RunOutput};
use ddp_attack::AttackPlan;
use ddp_police::DdPolice;
use ddp_sim::Simulation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Divisor that brings each simulator workload down to 400 peers.
fn tiny_divisor(workload: &str) -> u64 {
    match workload {
        "flood_100k" => 250,
        "judge_20k" => 50,
        "churn_sketch_10k" => 25,
        _ => 250,
    }
}

fn tiny(workload: &str) -> SimWorkload {
    let w = sim_workload(workload, 16, tiny_divisor(workload)).expect("a simulator workload");
    assert_eq!(w.peers(), 400);
    w
}

fn simulation<D: Police>(
    w: &SimWorkload,
    seed: u64,
    wrap: impl FnOnce(DdPolice) -> D,
) -> Simulation<D> {
    let mut sim = Simulation::new(w.sim.clone(), wrap(DdPolice::new(w.police, w.peers())), seed);
    AttackPlan::new(w.agents).apply(&mut sim, &mut StdRng::seed_from_u64(seed ^ ATTACK_SEED_TAG));
    sim
}

fn hash_after_three_ticks(w: &SimWorkload, seed: u64) -> u64 {
    let mut sim = simulation(w, seed, |p| p);
    for _ in 0..3 {
        sim.step();
    }
    sim.state_hash()
}

#[test]
fn workloads_are_a_function_of_the_seed() {
    for name in &WORKLOADS[..3] {
        let w = tiny(name);
        assert_eq!(
            hash_after_three_ticks(&w, 7),
            hash_after_three_ticks(&w, 7),
            "{name}: same seed"
        );
        assert_ne!(
            hash_after_three_ticks(&w, 7),
            hash_after_three_ticks(&w, 8),
            "{name}: other seed"
        );
    }
}

/// Twelve ticks of the churn workload, bare and wrapped; returns the
/// failures the inertness check reports.
fn inertness_failures(drop_edge_removed: bool) -> usize {
    let w = tiny("churn_sketch_10k");
    let mut bare = simulation(&w, 11, |p| p);
    let mut wrapped = simulation(&w, 11, |p| {
        let mut shim = Shim::new(p, Instant::now());
        shim.drop_edge_removed = drop_edge_removed;
        shim
    });
    for _ in 0..12 {
        bare.step();
        wrapped.step();
    }
    let mut failures = Vec::new();
    check_inert(&fingerprint(&bare), &fingerprint(&wrapped), &mut failures);
    failures.len()
}

#[test]
fn the_shim_is_inert_and_the_check_catches_one_that_is_not() {
    assert_eq!(inertness_failures(false), 0, "a forwarding shim changes nothing");
    assert!(inertness_failures(true) > 0, "a shim that drops on_edge_removed must be caught");
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list of named entries")
        .iter()
        .map(|e| e.get("name").and_then(Value::as_str).expect("every entry has a name").to_string())
        .collect()
}

fn emitted(out: &RunOutput) -> Vec<String> {
    out.metrics.0.iter().map(|(n, _)| n.to_string()).collect()
}

fn committed_manifest() -> Value {
    // The package lives four directories below the repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_is_the_rendered_registry() {
    let rendered = parse(&manifest()).expect("the rendered manifest parses");
    assert_eq!(committed_manifest(), rendered, "regenerate with `ddp-benchmark manifest`");
    let fields: Vec<&str> =
        rendered.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(fields, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
}

#[test]
fn every_workload_emits_exactly_the_names_in_benchmark_json() {
    let doc = committed_manifest();
    assert_eq!(names(doc.get("workloads").expect("workloads")), WORKLOADS);
    let end_to_end = names(doc.get("end_to_end").expect("end_to_end"));
    let per_layer = names(doc.get("per_layer").expect("per_layer"));
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for workload in WORKLOADS {
        let divisor = tiny_divisor(workload);
        let untraced = run_one(workload, 3, 16, false, divisor).expect("a known workload");
        assert_eq!(emitted(&untraced), end_to_end, "{workload} untraced");
        assert!(untraced.failures.is_empty(), "{workload}: {:?}", untraced.failures);
        assert!(
            untraced.metrics.0.iter().all(|&(_, v)| v.is_finite() && v != 0.0),
            "{workload}: {:?}",
            untraced.metrics
        );
        let traced = run_one(workload, 3, 16, true, divisor).expect("a known workload");
        assert_eq!(emitted(&traced), per_layer, "{workload} traced");
        assert!(traced.failures.is_empty(), "{workload}: {:?}", traced.failures);
    }
}
