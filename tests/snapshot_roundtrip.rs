//! Whole-engine snapshot/resume properties, driven by random scenarios.
//!
//! The oracle crate already proves a restored engine is *observationally*
//! equivalent under lockstep comparison; these tests attack the remaining
//! claims from the outside, through the facade:
//!
//! * **Bit-exact resume** — for random [`ScenarioSpec`]s (faults, churn,
//!   whitewashing, collusion, every protocol knob) and a random snapshot
//!   tick, snapshot → fresh engine → restore → run-to-end produces the
//!   same summary, series, cut log, verdict log, and session stats as the
//!   uninterrupted run, bit for bit.
//! * **File round-trip** — the same property through `write_snapshot_file`
//!   / `resume_from_file`, i.e. including the crash-safe container.
//! * **Corruption handling** — truncated, bit-flipped, and mislabeled
//!   snapshot files come back as the right typed [`SnapshotError`], never a
//!   panic, and a snapshot never restores into an engine with a different
//!   configuration.

use ddpolice::oracle::ScenarioSpec;
use ddpolice::police::DdPolice;
use ddpolice::sim::Simulation;
use ddpolice::snapshot::SnapshotError;
use proptest::prelude::*;
use std::path::PathBuf;

fn build(spec: &ScenarioSpec) -> Simulation<DdPolice> {
    spec.instantiate(DdPolice::new(spec.police_config(), spec.peers))
}

/// Run `sim` up to the spec's tick count and finish it.
fn run_to_end(mut sim: Simulation<DdPolice>, ticks: u32) -> ddpolice::sim::RunResult {
    while sim.tick() < ticks {
        sim.step();
    }
    sim.finish()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddp-snap-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.snap"))
}

/// One snapshot written to disk, for the corruption tests.
fn written_snapshot(tag: &str) -> (ScenarioSpec, PathBuf) {
    let spec = ScenarioSpec::random(7);
    let mut sim = build(&spec);
    for _ in 0..3 {
        sim.step();
    }
    let path = scratch(tag);
    sim.write_snapshot_file(&path).unwrap();
    (spec, path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// In-memory snapshot/restore at a random tick is invisible to every
    /// output channel of the engine.
    #[test]
    fn resume_is_bit_exact_for_random_scenarios(
        fuzz_seed in any::<u64>(),
        cut_pct in 0u32..100,
    ) {
        let spec = ScenarioSpec::random(fuzz_seed);
        // Snapshot somewhere strictly inside the run.
        let snapshot_tick = 1 + (spec.ticks - 2) * cut_pct / 100;

        // Uninterrupted reference.
        let reference = run_to_end(build(&spec), spec.ticks);

        // Interrupted twin: run to the snapshot tick, serialize, restore
        // into a *fresh* engine, and let the replacement finish the run.
        let mut first = build(&spec);
        while first.tick() < snapshot_tick {
            first.step();
        }
        let bytes = first.save_snapshot().unwrap();
        let stats_at_cut = first.session_stats();
        drop(first);
        let mut resumed = build(&spec);
        resumed.restore_snapshot(&bytes).unwrap();
        prop_assert_eq!(resumed.tick(), snapshot_tick);
        let vlog = resumed.verdict_log().to_vec();
        prop_assert_eq!(resumed.session_stats(), stats_at_cut);
        let outcome = run_to_end(resumed, spec.ticks);

        prop_assert_eq!(&outcome.summary, &reference.summary);
        prop_assert_eq!(&outcome.series, &reference.series);
        prop_assert_eq!(&outcome.cut_log, &reference.cut_log);
        prop_assert_eq!(&outcome.verdict_log, &reference.verdict_log);
        // The restored mid-run state must also be self-consistent: the
        // verdict log at the boundary is a prefix of the final one.
        prop_assert!(vlog.len() <= outcome.verdict_log.len());
        prop_assert_eq!(&outcome.verdict_log[..vlog.len()], &vlog[..]);
    }

    /// The same property through the crash-safe file container.
    #[test]
    fn file_round_trip_is_bit_exact(fuzz_seed in any::<u64>()) {
        let spec = ScenarioSpec::random(fuzz_seed);
        let snapshot_tick = spec.ticks / 2;
        let path = scratch(&format!("prop-{fuzz_seed:016x}"));

        let reference = run_to_end(build(&spec), spec.ticks);

        let mut first = build(&spec);
        while first.tick() < snapshot_tick {
            first.step();
        }
        first.write_snapshot_file(&path).unwrap();
        drop(first);
        let mut resumed = build(&spec);
        resumed.resume_from_file(&path).unwrap();
        let outcome = run_to_end(resumed, spec.ticks);
        let _ = std::fs::remove_file(&path);

        prop_assert_eq!(&outcome.summary, &reference.summary);
        prop_assert_eq!(&outcome.series, &reference.series);
        prop_assert_eq!(&outcome.cut_log, &reference.cut_log);
    }
}

#[test]
fn snapshot_crosses_worker_counts_bit_exact() {
    // Worker count is an execution detail, never state: a snapshot written
    // mid-run under the parallel engine must be byte-identical to one
    // written serially, and must resume bit-exact at *any other* width.
    let spec = ScenarioSpec {
        peers: 100,
        agents: 5,
        readmission: true,
        hys_window: 2,
        hys_required: 2,
        ticks: 12,
        ..ScenarioSpec::default()
    };
    let snapshot_tick = 5;

    // Serial reference: per-tick hashes plus the uninterrupted outcome.
    let mut reference = build(&spec);
    reference.enable_hash_trace();
    while reference.tick() < spec.ticks {
        reference.step();
    }
    let reference_hashes = reference.hash_trace().to_vec();
    let reference = reference.finish();

    // Writers at both widths produce the same bytes.
    let write_at = |threads: usize| {
        let mut sim = build(&spec);
        sim.set_threads(threads);
        while sim.tick() < snapshot_tick {
            sim.step();
        }
        sim.save_snapshot().unwrap()
    };
    let serial_bytes = write_at(1);
    let parallel_bytes = write_at(4);
    assert_eq!(
        serial_bytes, parallel_bytes,
        "snapshot bytes must not depend on the writer's worker count"
    );

    // Resume the parallel-written snapshot at several different widths;
    // every continuation must match the serial reference tick for tick.
    for resume_threads in [1usize, 2, 8] {
        let mut resumed = build(&spec);
        resumed.restore_snapshot(&parallel_bytes).unwrap();
        resumed.set_threads(resume_threads);
        let mut hashes = Vec::new();
        while resumed.tick() < spec.ticks {
            resumed.step();
            hashes.push(resumed.state_hash());
        }
        assert_eq!(
            &reference_hashes[snapshot_tick as usize..],
            &hashes[..],
            "post-resume hash trail diverged at {resume_threads} threads"
        );
        let outcome = resumed.finish();
        assert_eq!(outcome.summary, reference.summary);
        assert_eq!(outcome.series, reference.series);
        assert_eq!(outcome.cut_log, reference.cut_log);
        assert_eq!(outcome.verdict_log, reference.verdict_log);
    }
}

#[test]
fn truncated_snapshot_is_a_typed_error() {
    let (spec, path) = written_snapshot("truncated");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
    let err = build(&spec).resume_from_file(&path).unwrap_err();
    assert!(matches!(err, SnapshotError::Truncated { .. }), "expected Truncated, got: {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flip_is_a_checksum_mismatch() {
    let (spec, path) = written_snapshot("bitflip");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let err = build(&spec).resume_from_file(&path).unwrap_err();
    assert!(
        matches!(err, SnapshotError::ChecksumMismatch { .. }),
        "expected ChecksumMismatch, got: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn foreign_file_is_a_bad_magic_error() {
    let (spec, path) = written_snapshot("magic");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    let err = build(&spec).resume_from_file(&path).unwrap_err();
    assert!(matches!(err, SnapshotError::BadMagic { .. }), "expected BadMagic, got: {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_refuses_an_engine_with_a_different_config() {
    let (_, path) = written_snapshot("context");
    // Same construction path, different scenario: peers/seed/knobs differ,
    // so the context fingerprint cannot match.
    let other = ScenarioSpec::random(8);
    let err = build(&other).resume_from_file(&path).unwrap_err();
    assert!(
        matches!(err, SnapshotError::ContextMismatch { .. }),
        "expected ContextMismatch, got: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corruption_is_detected_before_the_engine_is_touched() {
    let (spec, path) = written_snapshot("survivor");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let mut sim = build(&spec);
    assert!(sim.resume_from_file(&path).is_err());
    // Container validation (checksum, magic, context) runs before any engine
    // mutation, so after a corrupt-file rejection the engine still runs from
    // tick 0 and matches a clean twin exactly.
    let clean = run_to_end(build(&spec), spec.ticks);
    let survivor = run_to_end(sim, spec.ticks);
    assert_eq!(survivor.summary, clean.summary);
    assert_eq!(survivor.series, clean.series);
    let _ = std::fs::remove_file(&path);
}
