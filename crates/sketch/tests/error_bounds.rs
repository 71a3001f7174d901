//! Error-bound property tests: the count-min sketch against a `HashMap`
//! shadow model, plus the classical count-min guarantee measured over
//! seeded trials.
//!
//! The detection-parity suite in `ddp-police` leans on two analytic facts:
//!
//! 1. **Overestimate-only.** A count-min estimate is never below the true
//!    count, so the sketch never hides a link's traffic (missed cuts come
//!    from indicator compression, not undercounting).
//! 2. **Bounded excess.** For width `w = 2^b` the per-key overestimate
//!    exceeds `εN` with `ε = e/w` (N = items in the window) with probability
//!    at most `e^-depth` — the bound the parity suite's borderline tolerance
//!    is derived from.
//!
//! `tests/mutants/catalogue.txt` holds the mutant that makes the monitor
//! undercount; `monitor_estimates_never_undercount` is the test that must
//! reject it.

use ddp_sketch::{edge_key, CountMinSketch, SketchMonitor, SketchParams};
use proptest::prelude::*;
use std::collections::HashMap;

/// Deterministic splitmix64 — the tests are seeded trials, not sampled ones.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Count-min is overestimate-only: for every key in the stream the
    /// estimate is at least the `HashMap` shadow's true sum, at every
    /// geometry and salt.
    #[test]
    fn cms_never_undercounts(
        stream in proptest::collection::vec((0u64..200, 1u32..50), 1..400),
        width_log2 in 4u8..9,
        depth in 1u8..5,
        salt in proptest::prelude::any::<u64>(),
    ) {
        let mut cms = CountMinSketch::new(width_log2, depth, salt);
        let mut truth: HashMap<u64, u32> = HashMap::new();
        for &(key, count) in &stream {
            cms.record(key, count);
            *truth.entry(key).or_insert(0) += count;
        }
        for (&key, &t) in &truth {
            prop_assert!(
                cms.estimate(key) >= t,
                "undercount: key {key} true {t} est {}",
                cms.estimate(key)
            );
        }
    }

    /// Window rotation (`advance_window`) reshuffles the row hashes but
    /// never breaks overestimate-only within the new window.
    #[test]
    fn cms_overestimates_after_rotation(
        stream in proptest::collection::vec((0u64..100, 1u32..20), 1..200),
        windows in 1u64..5,
    ) {
        let mut cms = CountMinSketch::new(6, 3, 7);
        for _ in 0..windows {
            cms.clear();
            cms.advance_window();
        }
        let mut truth: HashMap<u64, u32> = HashMap::new();
        for &(key, count) in &stream {
            cms.record(key, count);
            *truth.entry(key).or_insert(0) += count;
        }
        for (&key, &t) in &truth {
            prop_assert!(cms.estimate(key) >= t);
        }
    }
}

/// Count the monitor's overestimate-only violations against a shadow.
fn undercount_violations(mon: &SketchMonitor, truth: &HashMap<(u32, u32), u32>) -> usize {
    truth.iter().filter(|(&(s, d), &t)| mon.estimate(s, d) < t).count()
}

/// Feed a deterministic flow mix into a monitor and its shadow.
fn seeded_flows(mon: &mut SketchMonitor, rng: &mut u64, n: usize) -> HashMap<(u32, u32), u32> {
    let mut truth: HashMap<(u32, u32), u32> = HashMap::new();
    for _ in 0..n {
        let src = (splitmix(rng) % 40) as u32;
        let dst = (splitmix(rng) % 40) as u32;
        let count = (splitmix(rng) % 8 + 1) as u32;
        mon.record_flow(src, dst, count);
        *truth.entry((src, dst)).or_insert(0) += count;
    }
    truth
}

#[test]
fn monitor_estimates_never_undercount() {
    let mut rng = 0x5eed;
    let mut mon =
        SketchMonitor::new(SketchParams { width_log2: 8, depth: 3, ..SketchParams::default() });
    mon.begin_tick();
    let truth = seeded_flows(&mut mon, &mut rng, 2000);
    assert_eq!(undercount_violations(&mon, &truth), 0);
}

/// The classical count-min bound, measured: over seeded trials, the fraction
/// of (key, trial) samples whose excess exceeds `εN` (ε = e/width) must stay
/// within the stated `e^-depth` confidence. Conservative update makes the
/// realized failure rate far lower; the assertion still uses the analytic
/// bound so the test pins the guarantee, not the implementation's slack.
#[test]
fn cms_excess_within_epsilon_n_at_stated_confidence() {
    const WIDTH_LOG2: u8 = 6; // deliberately tight: 64 cells vs ~500 keys
    const DEPTH: u8 = 2;
    const TRIALS: u64 = 60;
    const ITEMS: usize = 4000;
    let width = 1usize << WIDTH_LOG2;
    let allowed_fraction = (-(DEPTH as f64)).exp();

    let (mut samples, mut failures) = (0usize, 0usize);
    let mut worst_ratio = 0.0f64;
    for trial in 0..TRIALS {
        let mut rng = 0xe440 + trial;
        let mut cms = CountMinSketch::new(WIDTH_LOG2, DEPTH, splitmix(&mut rng));
        let mut truth: HashMap<u64, u32> = HashMap::new();
        let mut n: u64 = 0;
        for _ in 0..ITEMS {
            // Zipf-ish key mix: squaring the draw skews mass onto low keys.
            let draw = splitmix(&mut rng) % 500;
            let key = edge_key((draw * draw / 500) as u32, (draw % 7) as u32);
            let count = (splitmix(&mut rng) % 6 + 1) as u32;
            cms.record(key, count);
            *truth.entry(key).or_insert(0) += count;
            n += count as u64;
        }
        let eps_n = std::f64::consts::E * n as f64 / width as f64;
        for (&key, &t) in &truth {
            let excess = (cms.estimate(key) - t) as f64;
            samples += 1;
            if excess > eps_n {
                failures += 1;
            }
            worst_ratio = worst_ratio.max(excess / eps_n);
        }
    }
    let realized = failures as f64 / samples as f64;
    assert!(
        realized <= allowed_fraction,
        "εN bound broken: {failures}/{samples} samples over the bound \
         (realized {realized:.4} > allowed {allowed_fraction:.4}, worst excess/εN {worst_ratio:.2})"
    );
}

/// Teeth for the bound test: shrink the claimed ε below what the geometry
/// delivers and the same measurement must overflow the confidence budget,
/// proving the measurement can reject a sketch that is worse than claimed.
#[test]
fn epsilon_bound_measurement_has_teeth() {
    const WIDTH_LOG2: u8 = 6;
    const DEPTH: u8 = 1; // single row: plain CMS, maximal collisions
    let width = 1usize << WIDTH_LOG2;
    let allowed_fraction = (-(DEPTH as f64)).exp(); // e^-1 ≈ 0.368

    let (mut samples, mut failures) = (0usize, 0usize);
    for trial in 0..20u64 {
        let mut rng = 0xbad0 + trial;
        let mut cms = CountMinSketch::new(WIDTH_LOG2, DEPTH, splitmix(&mut rng));
        let mut truth: HashMap<u64, u32> = HashMap::new();
        let mut n: u64 = 0;
        for _ in 0..4000 {
            let key = splitmix(&mut rng) % 500;
            cms.record(key, 1);
            *truth.entry(key).or_insert(0) += 1;
            n += 1;
        }
        // A mutant that *claims* a 64x tighter ε than its width provides.
        let claimed_eps_n = std::f64::consts::E * n as f64 / (width * 64) as f64;
        for (&key, &t) in &truth {
            samples += 1;
            if (cms.estimate(key) - t) as f64 > claimed_eps_n {
                failures += 1;
            }
        }
    }
    let realized = failures as f64 / samples as f64;
    assert!(
        realized > allowed_fraction,
        "measurement failed to reject a 64x-overclaimed ε ({realized:.4} <= {allowed_fraction:.4})"
    );
}
