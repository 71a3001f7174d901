//! Workspace-level differential checks: the optimized engine against the
//! naive reference oracle, plus replay of every committed reproducer under
//! `tests/repro/`.
//!
//! The deep per-feature suite lives in `crates/core/tests/`; this file is
//! the facade-level guarantee that `cargo test -q` at the repo root always
//! exercises the oracle equivalence and that committed reproducers stay
//! replayable as the engine evolves.

use ddpolice::oracle::{run_lockstep, ScenarioSpec};

#[test]
fn engine_matches_oracle_on_seeded_scenarios() {
    for fuzz_seed in 100..115 {
        let spec = ScenarioSpec::random(fuzz_seed);
        if let Err(d) = run_lockstep(&spec) {
            panic!("fuzz seed {fuzz_seed} diverged at {d}\nspec:\n{}", spec.to_json());
        }
    }
}

#[test]
fn committed_reproducers_replay_exactly() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/repro");
    let mut replayed = 0;
    for entry in std::fs::read_dir(dir).expect("tests/repro exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable reproducer");
        let spec = ScenarioSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        // Specs round-trip bit-exactly, so a hand-edited file that drifted
        // from canonical form is re-serialized identically.
        assert_eq!(
            ScenarioSpec::from_json(&spec.to_json()).unwrap(),
            spec,
            "{} lost information in a round trip",
            path.display()
        );
        // Every reproducer documents a divergence that must stay fixed.
        if let Err(d) = run_lockstep(&spec) {
            panic!("{} regressed: {d}", path.display());
        }
        replayed += 1;
    }
    assert!(replayed >= 1, "no reproducers found in {dir}");
}
