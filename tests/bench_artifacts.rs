//! Tier-1 guard for the committed measurement artifacts.
//!
//! `BENCH_scale.json`, `BENCH_sketch.json` and `BENCH_churn.json` at the
//! repository root are the rows every speed and quality claim points at.
//! Each must exist and validate against the schema its cell type declares
//! today — a schema change that forgets to regenerate an artifact, or a
//! deleted artifact, fails here. File reads only, no simulation. (The exact
//! byte layout is pinned by `crates/experiments/tests/bench_schema.rs`.)

use ddpolice::experiments::bench_report::{validate, BenchCell};
use ddpolice::experiments::runners::{ChurnCell, ScaleCell, SketchCell};

fn committed<C: BenchCell>() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(C::FILE);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed {} is missing: {e}", path.display()))
}

fn committed_artifact_validates<C: BenchCell>() {
    validate::<C>(&committed::<C>())
        .unwrap_or_else(|e| panic!("committed {} is invalid: {e}", C::FILE));
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

/// A sketch row's `memory_ratio` is its own `exact_state_bytes /
/// sketch_state_bytes`. The writer prints the shortest decimal that reads
/// back as the same f64, so the two sides must be equal, not merely close.
#[test]
fn bench_sketch_memory_ratio_is_its_own_byte_ratio() {
    let doc = committed::<SketchCell>();
    let field = |cell: &str, key: &str| -> f64 {
        let key = format!("\"{key}\":");
        let at = cell.find(&key).unwrap_or_else(|| panic!("a cell has no {key}")) + key.len();
        let value = cell[at..].split([',', '}']).next().unwrap();
        value.parse().unwrap_or_else(|e| panic!("{key} {value}: {e}"))
    };
    let cells: Vec<&str> = doc.split('{').skip(2).collect();
    assert!(!cells.is_empty(), "{} has no cells", SketchCell::FILE);
    for (i, cell) in cells.iter().enumerate() {
        let exact = field(cell, "exact_state_bytes");
        let sketch = field(cell, "sketch_state_bytes");
        let ratio = field(cell, "memory_ratio");
        assert_eq!(ratio, exact / sketch, "cell {i}: memory_ratio vs {exact} / {sketch}");
    }
}
