//! Scenario shrinking: reduce a diverging [`ScenarioSpec`] to a minimal
//! replayable reproducer.
//!
//! Greedy descent: each round proposes a fixed set of simplifying mutations
//! (truncate ticks to the divergence point, halve the population, drop the
//! attack, disable churn / sessions / whitewash / collusion, reset each
//! cheating, lying and coalition factor, make the fault plane inert, reset
//! protocol knobs to paper defaults) and keeps any mutation under which the
//! check *still reports a divergence*. The loop re-runs until a full round
//! changes nothing, so the result is locally minimal: every remaining
//! deviation from the default spec is necessary to reproduce the bug. The
//! check is a deterministic function of the spec —
//! [`run_lockstep`](crate::harness::run_lockstep) for the fuzz campaign — so
//! the reproducer is exact: same spec, same divergence, forever.

use crate::harness::Divergence;
use crate::spec::ScenarioSpec;

/// A shrunk reproducer: the minimal spec plus the divergence it still
/// triggers.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrunkRepro {
    /// The minimized scenario.
    pub spec: ScenarioSpec,
    /// The divergence the minimized scenario reproduces.
    pub divergence: Divergence,
    /// Checks spent shrinking (the search budget actually used).
    pub runs: usize,
}

/// All single-step simplifications of `spec`, most aggressive first.
fn candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let defaults = ScenarioSpec::default();
    let mut out = Vec::new();
    let mut push = |mutated: ScenarioSpec| {
        if mutated != *spec {
            out.push(mutated);
        }
    };
    if spec.ticks > 1 {
        push(ScenarioSpec { ticks: spec.ticks / 2, ..spec.clone() });
        push(ScenarioSpec { ticks: spec.ticks - 1, ..spec.clone() });
    }
    if spec.peers > 8 {
        push(ScenarioSpec { peers: (spec.peers / 2).max(8), ..spec.clone() });
        push(ScenarioSpec { peers: spec.peers - 1, ..spec.clone() });
    }
    if spec.agents > 0 {
        push(ScenarioSpec { agents: spec.agents / 2, ..spec.clone() });
    }
    push(ScenarioSpec { cheat: 0, ..spec.clone() });
    push(ScenarioSpec { inflate: defaults.inflate, ..spec.clone() });
    push(ScenarioSpec { deflate: defaults.deflate, ..spec.clone() });
    push(ScenarioSpec { lists: 0, ..spec.clone() });
    push(ScenarioSpec { pad_extra: defaults.pad_extra, ..spec.clone() });
    push(ScenarioSpec {
        loss: 0.0,
        delay_prob: 0.0,
        delay_ticks: defaults.delay_ticks,
        crash_prob: 0.0,
        ..spec.clone()
    });
    push(ScenarioSpec { collusion: 0, ..spec.clone() });
    push(ScenarioSpec { shield_deflate: defaults.shield_deflate, ..spec.clone() });
    push(ScenarioSpec { frame_fraction: defaults.frame_fraction, ..spec.clone() });
    push(ScenarioSpec { frame_inflate: defaults.frame_inflate, ..spec.clone() });
    push(ScenarioSpec { churn: false, ..spec.clone() });
    push(ScenarioSpec { session_mean: 0.0, ..spec.clone() });
    push(ScenarioSpec { whitewash_dwell: 0, whitewash_quiet: 0, ..spec.clone() });
    push(ScenarioSpec { cut_threshold: defaults.cut_threshold, ..spec.clone() });
    push(ScenarioSpec { exchange_minutes: defaults.exchange_minutes, ..spec.clone() });
    push(ScenarioSpec { radius: defaults.radius, ..spec.clone() });
    push(ScenarioSpec { verify_lists: defaults.verify_lists, ..spec.clone() });
    push(ScenarioSpec { clamp_reports: false, ..spec.clone() });
    push(ScenarioSpec { aggregation: 0, trim: defaults.trim, ..spec.clone() });
    push(ScenarioSpec { hys_required: 1, hys_window: 1, ..spec.clone() });
    push(ScenarioSpec { readmission: false, ..spec.clone() });
    push(ScenarioSpec { suspect_ttl: u32::MAX, ..spec.clone() });
    out
}

/// Shrink a scenario under which `check` reports a divergence. `spec` must
/// diverge (the caller has already seen it fail); if it unexpectedly passes,
/// `None`.
///
/// `max_runs` bounds the total number of `check` calls spent searching —
/// shrinking is best-effort and the pre-shrink spec is always a valid
/// reproducer, so running out of budget just yields a bigger one.
pub fn shrink<T>(
    spec: &ScenarioSpec,
    max_runs: usize,
    check: impl Fn(&ScenarioSpec) -> Result<T, Divergence>,
) -> Option<ShrunkRepro> {
    let mut divergence = check(spec).err()?;
    let mut runs = 1usize;
    let mut best = spec.clone();
    // The scenario past the first divergence is dead weight.
    best.ticks = best.ticks.min(divergence.tick);

    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if runs >= max_runs {
                return Some(ShrunkRepro { spec: best, divergence, runs });
            }
            runs += 1;
            if let Err(d) = check(&candidate) {
                best = candidate;
                best.ticks = best.ticks.min(d.tick);
                divergence = d;
                improved = true;
                break; // restart the round from the new, smaller spec
            }
        }
        if !improved {
            return Some(ShrunkRepro { spec: best, divergence, runs });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_spec_yields_none() {
        assert!(shrink(&ScenarioSpec::default(), 50, crate::run_lockstep).is_none());
    }

    /// A planted divergence: any spec with the clamp on and at least one
    /// agent diverges, at tick 3 or at its last tick if it runs fewer.
    fn clamp_with_an_agent(spec: &ScenarioSpec) -> Result<(), Divergence> {
        if spec.clamp_reports && spec.agents >= 1 {
            return Err(Divergence { tick: spec.ticks.min(3), what: "planted".into() });
        }
        Ok(())
    }

    #[test]
    fn shrinking_keeps_exactly_the_knobs_the_divergence_needs() {
        // The six factor knobs `random` never varies start off their
        // defaults too: none of them matters to the planted divergence.
        let start = ScenarioSpec {
            clamp_reports: true,
            agents: 5,
            inflate: 7.0,
            deflate: 0.5,
            pad_extra: 9,
            shield_deflate: 0.3,
            frame_fraction: 0.1,
            frame_inflate: 9.0,
            ..ScenarioSpec::random(11)
        };
        assert!(start.peers > 8 && start.ticks > 3, "the start must have room to shrink");
        let repro = shrink(&start, 400, clamp_with_an_agent).expect("the start diverges");
        assert!(repro.spec.ticks <= 3, "cut at the divergence: {}", repro.spec.to_json());
        let minimal = ScenarioSpec {
            peers: 8,
            ticks: repro.spec.ticks,
            seed: start.seed,
            agents: 1,
            clamp_reports: true,
            ..ScenarioSpec::default()
        };
        assert_eq!(repro.spec, minimal, "shrunk to {}", repro.spec.to_json());
        assert_eq!(Err(repro.divergence), clamp_with_an_agent(&repro.spec));
    }

    #[test]
    fn candidates_always_simplify_something() {
        let spec = ScenarioSpec::random(3);
        for c in candidates(&spec) {
            assert_ne!(c, spec, "a candidate must differ from its parent");
        }
        // A fully minimal spec generates no self-candidates that re-expand.
        let minimal = ScenarioSpec { peers: 8, ticks: 1, agents: 0, ..ScenarioSpec::default() };
        for c in candidates(&minimal) {
            assert!(c.peers <= minimal.peers && c.ticks <= minimal.ticks);
        }
    }
}
