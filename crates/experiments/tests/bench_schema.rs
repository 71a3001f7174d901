//! Golden-fixture pin for the three `BENCH_*.json` schemas.
//!
//! `bench_report::render` is the only writer of the bench artifacts; this
//! file pins its exact byte layout on fixed fake cells of every cell type, so
//! no schema can drift silently between PRs (the trajectories are diffed
//! across commits), and checks that the shared validator accepts what the
//! writer emits and rejects drift. Regenerate after an intentional change
//! with:
//!
//! ```text
//! DDP_BLESS=1 cargo test -p ddp-experiments --test bench_schema
//! ```
//!
//! That the *committed* artifacts still validate is the tier-1 check in the
//! repository root's `tests/bench_artifacts.rs`.

use ddp_experiments::bench_report::{render, validate, BenchCell};
use ddp_experiments::runners::{ChurnCell, ScaleCell, SketchCell};

/// The whole pin for one cell type: golden bytes, validator agreement, and
/// validator teeth.
fn pin<C: BenchCell>(fixture: &str, cells: &[C]) {
    let rendered = render(cells, 42);
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    if std::env::var_os("DDP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{rendered}\n")).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with DDP_BLESS=1", path.display())
    });
    assert_eq!(rendered, golden.trim_end(), "{} drifted from its schema fixture", C::FILE);

    // The validator the `--smoke` CI jobs run must accept the writer's
    // output, so the two cannot drift apart either.
    validate::<C>(&rendered).unwrap();

    let last_key = C::FIELDS.last().unwrap().0;
    let renamed = rendered.replace(&format!("\"{last_key}\":"), "\"renamed\":");
    assert!(validate::<C>(&renamed).is_err(), "a renamed key must be rejected");
    let dropped_once = rendered.replacen(&format!("\"{last_key}\":"), "\"renamed\":", 1);
    assert!(validate::<C>(&dropped_once).is_err(), "a key missing from one cell must be rejected");
    let retagged = rendered.replace(C::SCHEMA, "ddp-bench-other/v0");
    assert!(validate::<C>(&retagged).is_err(), "a foreign schema tag must be rejected");
    assert!(validate::<C>(&render::<C>(&[], 42)).is_err(), "an empty grid must be rejected");
    assert!(validate::<C>(&rendered[..rendered.len() - 1]).is_err(), "truncation must be rejected");
}

#[test]
fn bench_scale_json_matches_golden_fixture() {
    pin(
        "bench_scale.golden.json",
        &[
            ScaleCell {
                peers: 2000,
                attacker_fraction: 0.05,
                agents: 100,
                ticks: 10,
                threads: 1,
                elapsed_secs: 1.25,
                ticks_per_sec: 8.0,
                queries_per_sec: 250000.0,
                query_hops_total: 312500,
                peak_alloc_bytes: 8 << 20,
                step_allocations: 12345,
                success_rate_mean: 0.875,
                attackers_cut: 90,
            },
            ScaleCell {
                peers: 100000,
                attacker_fraction: 0.01,
                agents: 1000,
                ticks: 2,
                threads: 4,
                elapsed_secs: 40.5,
                ticks_per_sec: 0.04938271,
                queries_per_sec: 1500000.25,
                query_hops_total: 60750010,
                peak_alloc_bytes: 512 << 20,
                step_allocations: 987654,
                success_rate_mean: 0.5,
                attackers_cut: 4321,
            },
        ],
    );
}

#[test]
fn bench_sketch_json_matches_golden_fixture() {
    pin(
        "bench_sketch.golden.json",
        &[
            SketchCell {
                peers: 2000,
                agents: 20,
                attacker_rate_qpm: 1500,
                ticks: 8,
                ttl: 4,
                width_log2: 12,
                depth: 4,
                monitor_backend: "sketch".into(),
                exact_state_bytes: 96_000,
                sketch_state_bytes: 67_584,
                memory_ratio: 1.420455,
                elapsed_secs: 2.5,
                ticks_per_sec: 3.2,
                attackers_cut_exact: 20,
                attackers_cut_sketch: 19,
                missed_cuts: 1,
                extra_good_cuts: 148,
                items_max: 1_250_000,
                max_excess: 1015,
                epsilon_n: 830.2,
            },
            SketchCell {
                peers: 100_000,
                agents: 100,
                attacker_rate_qpm: 20_000,
                ticks: 4,
                ttl: 2,
                width_log2: 16,
                depth: 4,
                monitor_backend: "sketch".into(),
                exact_state_bytes: 4_800_000,
                sketch_state_bytes: 1_065_000,
                memory_ratio: 4.507042,
                elapsed_secs: 120.0,
                ticks_per_sec: 0.033333,
                attackers_cut_exact: 100,
                attackers_cut_sketch: 100,
                missed_cuts: 0,
                extra_good_cuts: 74,
                items_max: 9_000_000,
                max_excess: 1185,
                epsilon_n: 373.4,
            },
        ],
    );
}

#[test]
fn bench_churn_json_matches_golden_fixture() {
    pin(
        "bench_churn.golden.json",
        &[
            ChurnCell {
                peers: 2000,
                ticks: 30,
                agents: 100,
                mean_session_ticks: 10.0,
                session_model: "exponential".into(),
                dwell_ticks: 1,
                readmission: false,
                joins: 5980.0,
                departures: 5940.0,
                rebirths: 120.5,
                detection_latency: 3.75,
                redetected: 101.0,
                redetection_latency: 4.25,
                redetection_rate: 0.838174,
                cuts_total: 1450.0,
                wrongful_cut_rate: 0.0310344,
                residual_damage: 0.042,
            },
            ChurnCell {
                peers: 2000,
                ticks: 30,
                agents: 100,
                mean_session_ticks: 5.0,
                session_model: "lognormal".into(),
                dwell_ticks: 3,
                readmission: true,
                joins: 11875.0,
                departures: 11800.0,
                rebirths: 85.0,
                detection_latency: 4.1,
                redetected: 60.0,
                redetection_latency: 6.5,
                redetection_rate: 0.705882,
                cuts_total: 2100.5,
                wrongful_cut_rate: 0.051,
                residual_damage: 0.0975,
            },
        ],
    );
}
