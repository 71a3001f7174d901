//! Differential suite: the optimized [`DdPolice`](ddp_police::DdPolice)
//! engine against the naive paper transcription in `ddp-oracle`, feature by
//! feature.
//!
//! The scenario shapes live in [`ddp_oracle::scenario_matrix`] — one spec
//! per engine subsystem — and every harness (this oracle lockstep, the
//! serial-vs-parallel suite, the snapshot-restore sweep) consumes the same
//! list, so a scenario added there is covered by all of them. Each matrix
//! entry asserts full-state lockstep equivalence (judgment traces within
//! 1 ulp, verdict entries, exchange views, overlay edges, cut/verdict
//! ledgers, output series) after every tick. That the lockstep catches a
//! broken engine is proved by the mutants in `tests/mutants/catalogue.txt`
//! that name these tests.

use ddp_oracle::{run_lockstep, scenario_matrix, ScenarioSpec};

/// Assert a scenario runs clean, with a readable divergence on failure.
fn assert_clean(label: &str, spec: ScenarioSpec) {
    match run_lockstep(&spec) {
        Ok(stats) => {
            assert_eq!(stats.ticks, spec.ticks, "{label}: truncated run");
        }
        Err(d) => panic!("{label}: engine diverged from oracle at {d}\nspec:\n{}", spec.to_json()),
    }
}

#[test]
fn full_matrix_runs_clean() {
    let matrix = scenario_matrix();
    assert!(matrix.len() >= 20, "matrix shrank to {} scenarios", matrix.len());
    for (label, spec) in matrix {
        assert_clean(label, spec);
    }
}

#[test]
fn matrix_covers_both_judgment_paths() {
    // The matrix must keep exercising the fast path (plain Sum, no clamp,
    // inert faults) and the slow path (clamping / robust aggregation /
    // fault dice), or the lockstep sweep silently loses a subsystem.
    let matrix = scenario_matrix();
    let fast = matrix
        .iter()
        .filter(|(_, s)| s.aggregation == 0 && !s.clamp_reports && s.loss == 0.0)
        .count();
    let slow = matrix
        .iter()
        .filter(|(_, s)| s.aggregation != 0 || s.clamp_reports || s.loss > 0.0)
        .count();
    assert!(fast >= 5, "only {fast} fast-path scenarios");
    assert!(slow >= 5, "only {slow} slow-path scenarios");
}

#[test]
fn seeded_random_sweep() {
    for fuzz_seed in 0..25 {
        let spec = ScenarioSpec::random(fuzz_seed);
        if let Err(d) = run_lockstep(&spec) {
            panic!("fuzz seed {fuzz_seed} diverged at {d}\nspec:\n{}", spec.to_json());
        }
    }
}

/// The 300-peer scenario families the golden digests in
/// `differential_inertness.rs` pin, and the default-config families the
/// verdict ledger audits run, each seed of each family in lockstep with the
/// oracle: baseline flooders and a faulty control plane under churn, a
/// shielding or framing coalition with padded lists against the hardened
/// config, the paper's defaults across seeds, under churn and with lying
/// reporters.
fn reference_families() -> Vec<(&'static str, ScenarioSpec)> {
    let mut families = Vec::new();
    for (i, seed) in [11u64, 42, 137, 2024, 77_777].into_iter().enumerate() {
        let base =
            ScenarioSpec { peers: 300, seed, churn: true, ticks: 8, ..ScenarioSpec::default() };
        families.push(("baseline", ScenarioSpec { agents: 10, ..base.clone() }));
        let faulty = ScenarioSpec {
            agents: 12,
            cheat: (i % 4) as u8,
            inflate: 3.0,
            loss: 0.15,
            delay_prob: 0.3,
            crash_prob: 0.01,
            ..base.clone()
        };
        families.push(("faulty", faulty));
        let collusion = ScenarioSpec {
            agents: 8,
            collusion: 1 + (i % 2) as u8,
            shield_deflate: 0.05,
            frame_inflate: 40.0,
            lists: 3,
            clamp_reports: true,
            radius: 2,
            hys_required: 2,
            hys_window: 3,
            readmission: true,
            ticks: 10,
            ..base
        };
        families.push(("collusion", collusion));
    }
    let paper = ScenarioSpec { agents: 2, ticks: 8, ..ScenarioSpec::default() };
    for seed in [1, 7, 23, 42, 99] {
        families.push(("default config", ScenarioSpec { peers: 300, seed, ..paper.clone() }));
    }
    for (seed, cheat) in [(3, 0), (42, 3)] {
        let spec =
            ScenarioSpec { peers: 250, seed, cheat, churn: true, ticks: 10, ..paper.clone() };
        families.push(("default config under churn", spec));
    }
    for (cheat, inflate) in [(1, 50.0), (2, 50.0)] {
        let spec = ScenarioSpec { peers: 260, seed: 13, cheat, inflate, ..paper.clone() };
        families.push(("default config, lying reporters", spec));
    }
    families
}

#[test]
fn reference_families_run_clean() {
    for (label, spec) in reference_families() {
        assert_clean(label, spec);
    }
}

/// Inflating cheaters under per-link clamping: only the per-member judgment
/// step clamps a member's claim at the link's capacity, so a judgment that
/// took the shared-sum step here would split from the oracle at once.
#[test]
fn clamped_inflating_cheaters_run_clean() {
    for seed in 0..3 {
        let spec = ScenarioSpec {
            seed,
            agents: 5,
            cheat: 1,
            inflate: 80.0,
            clamp_reports: true,
            ..ScenarioSpec::default()
        };
        assert_clean("clamped inflating cheaters", spec);
    }
}
