//! `fuzz` — the differential fuzz campaign: seeded random scenarios through
//! the engine/oracle lockstep harness (`ddp-oracle`).
//!
//! Every scenario runs the optimized `DdPolice` engine and the naive paper
//! transcription side by side, comparing all observable defense state after
//! every tick. A clean campaign prints a coverage summary; the first
//! divergence is shrunk to a minimal spec, written as a replayable JSON
//! reproducer under `tests/repro/`, and fails the process — CI treats any
//! divergence as a broken engine optimization.

use super::par_map;
use crate::options::ExpOptions;
use crate::output::Table;
use ddp_oracle::{run_lockstep, shrink, ScenarioSpec};

/// Scenarios in a `--smoke` campaign (the acceptance floor is 50).
pub const FUZZ_SMOKE_SCENARIOS: u64 = 60;

/// Scenarios in a full campaign.
const FUZZ_FULL_SCENARIOS: u64 = 500;

/// Lockstep runs the shrinker may spend minimizing one divergence.
const SHRINK_BUDGET: usize = 400;

/// The fuzz-seed range a campaign covers: contiguous from the base seed, so
/// `--seed` selects a reproducible slice of the scenario space.
pub fn fuzz_seed_range(opts: &ExpOptions) -> std::ops::Range<u64> {
    let count = if opts.smoke { FUZZ_SMOKE_SCENARIOS } else { FUZZ_FULL_SCENARIOS };
    let base = opts.seed.wrapping_mul(0x1_0000); // seeds 41/42 never overlap
    base..base.wrapping_add(count)
}

/// Run the campaign. On divergence: shrink, write the reproducer, exit 1.
pub fn fuzz(opts: &ExpOptions) -> Table {
    let seeds: Vec<u64> = fuzz_seed_range(opts).collect();
    eprintln!("[fuzz] running {} seeded scenarios in lockstep", seeds.len());

    let outcomes = par_map(&seeds, |_, &fuzz_seed| {
        let spec = ScenarioSpec::random(fuzz_seed);
        let outcome = run_lockstep(&spec);
        (fuzz_seed, spec, outcome)
    });

    // Handle the first divergence (by seed order, for determinism).
    if let Some((fuzz_seed, spec, Err(d))) = outcomes
        .iter()
        .find(|(_, _, outcome)| outcome.is_err())
        .map(|(s, spec, o)| (*s, spec.clone(), o.clone()))
    {
        eprintln!("[fuzz] DIVERGENCE at fuzz seed {fuzz_seed}: {d}");
        eprintln!("[fuzz] shrinking (budget {SHRINK_BUDGET} lockstep runs)...");
        let repro = shrink(&spec, SHRINK_BUDGET, run_lockstep)
            .expect("a spec that just diverged must diverge again under the same harness");
        eprintln!(
            "[fuzz] shrunk after {} runs to peers={} ticks={} agents={}: {}",
            repro.runs, repro.spec.peers, repro.spec.ticks, repro.spec.agents, repro.divergence
        );
        let json = repro.spec.to_json();
        let path = format!("tests/repro/fuzz_{fuzz_seed}.json");
        match std::fs::create_dir_all("tests/repro").and_then(|()| std::fs::write(&path, &json)) {
            Ok(()) => eprintln!("[fuzz] wrote reproducer {path} — commit it with the fix"),
            Err(e) => eprintln!("[fuzz] could not write {path} ({e}); reproducer spec:\n{json}"),
        }
        // Engine state one tick *before* the divergence, next to the JSON:
        // restore it and single-step straight into the failing tick instead
        // of replaying the whole run under a debugger.
        if repro.divergence.tick > 1 {
            let snap_path = format!("tests/repro/fuzz_{fuzz_seed}.snap");
            let mut engine = repro.spec.scenario().build_police();
            engine.defense_mut().set_tracing(true);
            while engine.tick() + 1 < repro.divergence.tick {
                engine.step();
            }
            match engine.write_snapshot_file(std::path::Path::new(&snap_path)) {
                Ok(()) => eprintln!(
                    "[fuzz] wrote pre-divergence snapshot {snap_path} (tick {})",
                    engine.tick()
                ),
                Err(e) => eprintln!("[fuzz] could not write {snap_path}: {e}"),
            }
        }
        std::process::exit(1);
    }

    // Clean campaign: coverage summary so a weak generator is visible.
    let mut ticks = 0u64;
    let mut judgments = 0u64;
    let mut cuts = 0u64;
    let (mut with_faults, mut with_churn, mut with_collusion, mut with_whitewash) =
        (0u64, 0u64, 0u64, 0u64);
    for (_, spec, outcome) in &outcomes {
        let stats = outcome.as_ref().expect("divergences handled above");
        ticks += u64::from(stats.ticks);
        judgments += stats.judgments as u64;
        cuts += stats.cuts as u64;
        with_faults += u64::from(spec.loss > 0.0 || spec.delay_prob > 0.0 || spec.crash_prob > 0.0);
        with_churn += u64::from(spec.churn || spec.session_mean > 0.0);
        with_collusion += u64::from(spec.collusion != 0);
        with_whitewash += u64::from(spec.whitewash_dwell > 0);
    }

    Table::from_rows(
        if opts.smoke { "fuzz_smoke" } else { "fuzz" },
        "Differential fuzz: optimized engine vs naive oracle, lockstep state equality",
        &[
            "scenarios",
            "divergences",
            "ticks",
            "judgments",
            "cuts",
            "faulty",
            "churning",
            "colluding",
            "whitewashing",
        ],
        [vec![
            outcomes.len().to_string(),
            "0".to_string(),
            ticks.to_string(),
            judgments.to_string(),
            cuts.to_string(),
            with_faults.to_string(),
            with_churn.to_string(),
            with_collusion.to_string(),
            with_whitewash.to_string(),
        ]],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_range_meets_the_acceptance_floor() {
        let opts = ExpOptions { smoke: true, ..ExpOptions::default() };
        assert!(fuzz_seed_range(&opts).count() >= 50);
    }

    #[test]
    fn seed_ranges_are_disjoint_across_base_seeds() {
        let a = fuzz_seed_range(&ExpOptions { seed: 41, smoke: false, ..ExpOptions::default() });
        let b = fuzz_seed_range(&ExpOptions { seed: 42, smoke: false, ..ExpOptions::default() });
        assert!(a.end <= b.start || b.end <= a.start);
    }

    #[test]
    fn a_slice_of_the_smoke_campaign_runs_clean() {
        let opts = ExpOptions { smoke: true, ..ExpOptions::default() };
        for fuzz_seed in fuzz_seed_range(&opts).take(5) {
            let spec = ScenarioSpec::random(fuzz_seed);
            if let Err(d) = run_lockstep(&spec) {
                panic!("fuzz seed {fuzz_seed} diverged at {d}\nspec:\n{}", spec.to_json());
            }
        }
    }
}
