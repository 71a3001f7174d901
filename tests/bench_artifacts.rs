//! Tier-1 guard for the committed measurement artifacts.
//!
//! `BENCH_scale.json`, `BENCH_sketch.json` and `BENCH_churn.json` at the
//! repository root are the rows every speed and quality claim points at.
//! Each must exist and validate against the schema its cell type declares
//! today — a schema change that forgets to regenerate an artifact, or a
//! deleted artifact, fails here. Three file reads, no simulation. (The exact
//! byte layout is pinned by `crates/experiments/tests/bench_schema.rs`.)

use ddpolice::experiments::bench_report::{validate, BenchCell};
use ddpolice::experiments::runners::{ChurnCell, ScaleCell, SketchCell};

fn committed_artifact_validates<C: BenchCell>() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(C::FILE);
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed {} is missing: {e}", path.display()));
    validate::<C>(&doc).unwrap_or_else(|e| panic!("committed {} is invalid: {e}", C::FILE));
}

#[test]
fn bench_scale_json_is_committed_and_schema_valid() {
    committed_artifact_validates::<ScaleCell>();
}

#[test]
fn bench_sketch_json_is_committed_and_schema_valid() {
    committed_artifact_validates::<SketchCell>();
}

#[test]
fn bench_churn_json_is_committed_and_schema_valid() {
    committed_artifact_validates::<ChurnCell>();
}
