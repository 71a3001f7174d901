//! Detection-parity differential suite: the sketch monitor backend against
//! the exact per-neighbor counters over the shared oracle scenario matrix.
//!
//! Count-min estimates are overestimate-only (proven by the `ddp-sketch`
//! error-bound suite), so a sketch-backed DD-POLICE can only be *more*
//! suspicious than the exact one — never hide traffic. A cut/no-cut
//! disagreement therefore needs a judgment whose indicator sat close enough
//! to `CT` that the bounded estimate excess could flip it. "Close enough" is
//! not a tuned fudge factor: each of the ≤ `2k−1` counter terms feeding an
//! indicator is off by at most the run's realized worst excess `E`, so
//! `|Δg| ≤ ((k + (k−1)·k) · E)/(k·q) = k·E/q` and likewise `|Δs| ≤ k·E/q`.
//! A scenario with a disagreement but *no* judgment within that band of
//! `CT` (in either run, for any suspect) is a parity violation.
//!
//! The `sketch-undercount-600` and `sketch-undercount-all` mutants in
//! `tests/mutants/catalogue.txt` break the overestimate-only invariant this
//! tolerance derivation rests on; the matrix test must report the missed
//! cuts they cause as violations, not absorb them as borderline.

use ddp_oracle::{scenario_matrix, DefenseKind, ScenarioSpec};
use ddp_police::{DdPoliceConfig, JudgmentTrace, MonitorBackend, SketchParams, SketchStats};
use std::collections::BTreeSet;

/// Generous geometry for ≤ 80-peer matrix scenarios: at width 2^12 the
/// realized excess is usually zero and the borderline band collapses.
const WIDTH_LOG2: u8 = 12;
const DEPTH: u8 = 4;

fn sketch_backend(spec: &ScenarioSpec) -> MonitorBackend {
    MonitorBackend::Sketch(SketchParams {
        width_log2: WIDTH_LOG2,
        depth: DEPTH,
        salt: SketchParams::default().salt ^ spec.seed,
    })
}

struct BackendRun {
    cuts: BTreeSet<u32>,
    traces: Vec<JudgmentTrace>,
    stats: SketchStats,
}

fn run_backend(spec: &ScenarioSpec, monitor: MonitorBackend) -> BackendRun {
    let mut scenario = spec.scenario();
    if let DefenseKind::DdPolice(cfg) = &mut scenario.defense {
        cfg.monitor = monitor;
    }
    let mut sim = scenario.build_police();
    sim.defense_mut().set_tracing(true);
    let mut traces = Vec::new();
    for _ in 0..spec.ticks {
        sim.step();
        traces.extend(sim.defense_mut().take_trace());
    }
    let stats = sim.defense().sketch_stats();
    let result = sim.finish();
    let cuts = result.cut_log.iter().map(|r| r.suspect.0).collect();
    BackendRun { cuts, traces, stats }
}

/// The proven indicator-shift bound for this run: `k · E / q`, with `k` the
/// largest Buddy-Group size the ingest saw and `E` the realized worst
/// per-edge overestimate.
fn borderline_tolerance(cfg: &DdPoliceConfig, stats: &SketchStats) -> f64 {
    stats.max_degree_run.max(1) as f64 * stats.max_excess_run as f64 / cfg.q_qpm as f64
}

enum Parity {
    Agree,
    Borderline,
    Violation(String),
}

/// Run both backends on `spec` and classify the outcome.
fn check_parity(spec: &ScenarioSpec) -> Parity {
    let exact = run_backend(spec, MonitorBackend::Exact);
    let sketch = run_backend(spec, sketch_backend(spec));
    if exact.cuts == sketch.cuts {
        return Parity::Agree;
    }
    let disagreeing: BTreeSet<u32> =
        exact.cuts.symmetric_difference(&sketch.cuts).copied().collect();
    let DefenseKind::DdPolice(cfg) = spec.scenario().defense else {
        unreachable!("a spec deploys DD-POLICE")
    };
    let tol = borderline_tolerance(&cfg, &sketch.stats);
    let ct = cfg.cut_threshold;
    let in_band = |t: &JudgmentTrace| (t.g - ct).abs() <= tol || (t.s - ct).abs() <= tol;

    // A suspect the exact run never judged reached the warning threshold
    // only through estimate excess — the warning gate's margin is not
    // observable from traces, so such a disagreement is borderline by
    // construction (and can only add scrutiny, never remove it).
    let exact_judged: BTreeSet<u32> = exact.traces.iter().map(|t| t.suspect.0).collect();
    let unjudged_disagreement = disagreeing.iter().any(|s| !exact_judged.contains(s));
    if unjudged_disagreement
        || exact.traces.iter().any(in_band)
        || sketch.traces.iter().any(in_band)
    {
        return Parity::Borderline;
    }
    Parity::Violation(format!(
        "cut sets differ on {disagreeing:?} (exact {:?} vs sketch {:?}) with no judgment within \
         {tol:.3} of CT={ct} in either run — outside the proven excess bound",
        exact.cuts, sketch.cuts
    ))
}

#[test]
fn matrix_verdicts_agree_outside_the_borderline_band() {
    let matrix = scenario_matrix();
    let mut agreed = 0usize;
    let mut violations = Vec::new();
    for (label, spec) in &matrix {
        match check_parity(spec) {
            Parity::Agree => agreed += 1,
            Parity::Borderline => {}
            Parity::Violation(why) => {
                violations.push(format!("{label}: {why}\nspec:\n{}", spec.to_json()))
            }
        }
    }
    assert!(violations.is_empty(), "detection parity broken:\n{}", violations.join("\n\n"));
    // Teeth against over-classification: if most of the matrix were
    // "borderline" the agreement requirement would be vacuous.
    assert!(
        agreed * 2 >= matrix.len(),
        "only {agreed}/{} scenarios agreed outright — the borderline band absorbs too much",
        matrix.len()
    );
}

#[test]
fn seeded_random_specs_hold_parity() {
    for fuzz_seed in 0..15 {
        let spec = ScenarioSpec::random(fuzz_seed);
        if let Parity::Violation(why) = check_parity(&spec) {
            panic!("fuzz seed {fuzz_seed}: {why}\nspec:\n{}", spec.to_json());
        }
    }
}
