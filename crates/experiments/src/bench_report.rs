//! The `BENCH_*.json` format: one renderer, one validator, one writer.
//!
//! `scale`, `sketch` and `churn` each commit a machine-readable measurement
//! artifact at the repository root. A cell type implements [`BenchCell`] —
//! schema id, `generated_by`, file name, **one** ordered field list and, for
//! the printed form, one column list beside it — and everything else is
//! derived from those here: the rendered bytes (pinned by golden fixtures),
//! the key set, the structural validation, the console/CSV table, and the
//! write-or-exit step every runner ends with.

use crate::output::{Column, Table};
use ddp_metrics::{json_array, JsonObj};
use std::path::Path;

/// One field value of a cell, in the three shapes the artifacts use.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// Unsigned integer (counts, bytes).
    U64(u64),
    /// Float, rendered with shortest round-trip precision.
    F64(f64),
    /// String literal.
    Str(&'a str),
}

/// A cell field: its JSON key and how to read it off the cell.
pub type Field<C> = (&'static str, fn(&C) -> Value<'_>);

/// A measured grid cell that is committed as a `BENCH_*.json` row.
pub trait BenchCell: Sized + 'static {
    /// Schema identifier embedded in the document; bump on any field change.
    const SCHEMA: &'static str;
    /// The command that regenerates the artifact.
    const GENERATED_BY: &'static str;
    /// Artifact file name, relative to the repository root.
    const FILE: &'static str;
    /// Every field of a cell object, in emission order (the schema).
    const FIELDS: &'static [Field<Self>];
    /// Name (also the CSV file stem; a smoke grid's gets `_smoke` appended)
    /// and title of the printed table.
    const TABLE: (&'static str, &'static str);
    /// The printed table's columns, left to right.
    const COLUMNS: &'static [Column<Self>];
}

/// Opening of the cells array; everything after it is cell objects.
const CELLS_OPEN: &str = "\"cells\":[";

/// Render the sweep results as the committed document (no trailing newline).
pub fn render<C: BenchCell>(cells: &[C], seed: u64) -> String {
    let cell = |c: &C| {
        C::FIELDS
            .iter()
            .fold(JsonObj::new(), |obj, (key, get)| match get(c) {
                Value::U64(v) => obj.u64(key, v),
                Value::F64(v) => obj.f64(key, v),
                Value::Str(v) => obj.str(key, v),
            })
            .finish()
    };
    JsonObj::new()
        .str("schema", C::SCHEMA)
        .str("generated_by", C::GENERATED_BY)
        .u64("seed", seed)
        .raw("cells", &json_array(cells.iter().map(cell)))
        .finish()
}

/// The sweep results as the human-readable table: one row per cell.
pub fn table<C: BenchCell>(cells: &[C], smoke: bool) -> Table {
    let (name, title) = C::TABLE;
    let name = format!("{name}{}", if smoke { "_smoke" } else { "" });
    Table::from_columns(name, title, cells, C::COLUMNS)
}

/// Structural validation of a document against `C`'s schema: schema tag,
/// balanced nesting, and every cell carrying every key. (The workspace has
/// no JSON parser; this is the check CI and the committed artifacts rely
/// on.) Measured values are deliberately not judged here — acceptance gates
/// on the numbers belong to the runner that measured them.
pub fn validate<C: BenchCell>(doc: &str) -> Result<(), String> {
    let doc = doc.trim();
    if !doc.starts_with(&format!("{{\"schema\":\"{}\"", C::SCHEMA)) {
        return Err(format!("document does not start with the {} schema tag", C::SCHEMA));
    }
    if doc.matches('{').count() != doc.matches('}').count()
        || doc.matches('[').count() != doc.matches(']').count()
    {
        return Err("unbalanced braces/brackets".into());
    }
    let Some(cells_at) = doc.find(CELLS_OPEN) else {
        return Err("missing cells array".into());
    };
    let cells = &doc[cells_at + CELLS_OPEN.len()..];
    let first_key = C::FIELDS[0].0;
    let n_cells = cells.matches(&format!("{{\"{first_key}\":")).count();
    if n_cells == 0 {
        return Err("cells array contains no cell objects".into());
    }
    for (key, _) in C::FIELDS {
        let found = cells.matches(&format!("\"{key}\":")).count();
        if found != n_cells {
            return Err(format!("key {key} present in {found}/{n_cells} cells"));
        }
    }
    Ok(())
}

/// Render and validate; write to `path` unless this is a smoke grid (a 1–2
/// cell document must never replace the committed full-grid artifact).
/// Returns whether the file was written.
fn publish_to<C: BenchCell>(
    path: &Path,
    cells: &[C],
    seed: u64,
    smoke: bool,
) -> Result<bool, String> {
    let doc = render(cells, seed);
    // A document that fails its own schema must never be committed; the CI
    // smoke runs rely on this to catch emission drift.
    validate::<C>(&doc).map_err(|e| format!("emitted {} failed validation: {e}", C::FILE))?;
    if smoke {
        return Ok(false);
    }
    std::fs::write(path, format!("{doc}\n"))
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    Ok(true)
}

/// The step every bench runner ends with: validate the document and write
/// `C::FILE` into the current directory. A `--smoke` grid is validated but
/// not written. Exits 2 on a schema failure or a write error.
pub fn publish<C: BenchCell>(cells: &[C], seed: u64, smoke: bool) {
    match publish_to(Path::new(C::FILE), cells, seed, smoke) {
        Ok(true) => println!("[bench] wrote {}", C::FILE),
        Ok(false) => println!("[bench] {} validated (smoke grid: not written)", C::FILE),
        Err(e) => {
            eprintln!("[bench] FATAL: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        peers: u64,
        label: &'static str,
    }

    impl BenchCell for Probe {
        const SCHEMA: &'static str = "ddp-bench-probe/v1";
        const GENERATED_BY: &'static str = "unit test";
        const FILE: &'static str = "BENCH_probe.json";
        const FIELDS: &'static [Field<Self>] =
            &[("peers", |c| Value::U64(c.peers)), ("label", |c| Value::Str(c.label))];
        const TABLE: (&'static str, &'static str) = ("probe", "Probe sweep");
        const COLUMNS: &'static [Column<Self>] =
            &[("n", |c| c.peers.to_string()), ("which", |c| c.label.to_string())];
    }

    #[test]
    fn table_has_one_row_per_cell_and_marks_a_smoke_grid() {
        let cells = [Probe { peers: 3, label: "a" }, Probe { peers: 5, label: "b" }];
        let t = table(&cells, true);
        assert_eq!((t.name.as_str(), t.title.as_str()), ("probe_smoke", "Probe sweep"));
        assert_eq!(t.to_csv(), "n,which\n3,a\n5,b\n");
        assert_eq!(table(&cells, false).name, "probe");
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ddp-bench-report-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn full_grid_is_written_and_smoke_grid_is_not() {
        let dir = scratch_dir("write");
        let path = dir.join(Probe::FILE);
        let cells = [Probe { peers: 3, label: "a" }];
        assert_eq!(publish_to(&path, &cells, 42, true), Ok(false));
        assert!(!path.exists(), "a smoke grid must leave the artifact alone");
        assert_eq!(publish_to(&path, &cells, 42, false), Ok(true));
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, format!("{}\n", render(&cells, 42)));
        validate::<Probe>(&written).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_failure_and_empty_grid_are_errors() {
        let dir = scratch_dir("fail");
        let missing = dir.join("no-such-dir").join(Probe::FILE);
        let err = publish_to(&missing, &[Probe { peers: 3, label: "a" }], 42, false).unwrap_err();
        assert!(err.contains("could not write"), "{err}");
        let err = publish_to::<Probe>(&dir.join(Probe::FILE), &[], 42, false).unwrap_err();
        assert!(err.contains("failed validation"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
