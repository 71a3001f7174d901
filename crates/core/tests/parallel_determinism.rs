//! Serial-vs-parallel differential suite (the tentpole's pin).
//!
//! The sharded tick engine claims byte-identity: a run at any worker count
//! produces the same per-tick state hash (FNV-1a over the complete snapshot
//! payload), the same judgment trace, and the same final results as the
//! serial engine. This suite sweeps the shared scenario matrix
//! ([`ddp_oracle::scenario_matrix`]) across worker counts and asserts
//! exactly that. The `unordered-reduction` mutant in
//! `tests/mutants/catalogue.txt` merges the shards in reverse and must fail
//! `busy_spec_is_thread_invariant`.

use ddp_oracle::{run_parallel_lockstep, scenario_matrix, ScenarioSpec};

/// Worker counts under test. 2 = minimal sharding, 4 = the CI target width;
/// both exceed this container's single hardware core on purpose — identity
/// must hold regardless of how the OS schedules the workers.
const WIDTHS: [usize; 2] = [2, 4];

#[test]
fn full_matrix_is_thread_invariant() {
    for (label, spec) in scenario_matrix() {
        for threads in WIDTHS {
            if let Err(d) = run_parallel_lockstep(&spec, threads) {
                panic!(
                    "{label}: parallel run diverged from serial at {threads} threads: {d}\nspec:\n{}",
                    spec.to_json()
                );
            }
        }
    }
}

#[test]
fn thread_count_one_is_the_serial_engine() {
    // Width 1 must take the serial path bit for bit — no partitioning
    // overhead is allowed to leak into observable state.
    for (label, spec) in scenario_matrix() {
        if let Err(d) = run_parallel_lockstep(&spec, 1) {
            panic!("{label}: width-1 twin diverged: {d}");
        }
    }
}

#[test]
fn random_specs_are_thread_invariant() {
    for fuzz_seed in 0..12 {
        let spec = ScenarioSpec::random(fuzz_seed);
        for threads in WIDTHS {
            if let Err(d) = run_parallel_lockstep(&spec, threads) {
                panic!(
                    "fuzz seed {fuzz_seed} diverged at {threads} threads: {d}\nspec:\n{}",
                    spec.to_json()
                );
            }
        }
    }
}

/// A scenario busy enough that several partitions judge observers of the
/// same suspects every tick: the reduction order visibly decides who pays
/// each suspect's `k(k-1)` exchange charge and the cut/reconnect ordering.
fn busy_spec() -> ScenarioSpec {
    ScenarioSpec {
        peers: 120,
        agents: 6,
        readmission: true,
        hys_window: 2,
        hys_required: 2,
        ticks: 12,
        ..ScenarioSpec::default()
    }
}

#[test]
fn busy_spec_is_thread_invariant() {
    // The scenario where the reduction order is most visible: a merge of the
    // shards' outcomes in any order but the canonical one shows here first.
    let spec = busy_spec();
    for threads in [1, 2, 4] {
        if let Err(d) = run_parallel_lockstep(&spec, threads) {
            panic!("busy spec diverged from serial at {threads} threads: {d}");
        }
    }
}
