//! Tabular output: aligned stdout rendering and CSV export.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A file-output failure that names the offending path — the one thing a
/// user staring at a failed overnight campaign actually needs to know.
#[derive(Debug)]
pub struct OutputError {
    /// What failed: `"create directory"` or `"write"`.
    pub op: &'static str,
    /// The path that could not be created/written.
    pub path: PathBuf,
    /// Underlying OS error.
    pub source: std::io::Error,
}

impl std::fmt::Display for OutputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "could not {} {}: {}", self.op, self.path.display(), self.source)
    }
}

impl std::error::Error for OutputError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Create `dir` (and parents) and write `bytes` to `dir/<name>`; a failure
/// names the path it tripped on.
fn write_into(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, OutputError> {
    let failed = |op, path: &Path| {
        let path = path.to_path_buf();
        move |source| OutputError { op, path, source }
    };
    std::fs::create_dir_all(dir).map_err(failed("create directory", dir))?;
    let path = dir.join(name);
    std::fs::write(&path, bytes).map_err(failed("write", &path))?;
    Ok(path)
}

/// Create `dir` (and parents) and prove it is writable by round-tripping a
/// probe file. Runners call this *before* hours of simulation so an
/// unwritable output directory fails in milliseconds, not at the final
/// write.
pub fn ensure_writable_dir(dir: &Path) -> Result<(), OutputError> {
    let probe = write_into(dir, ".ddp-write-probe", b"probe")?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// A column of a table over typed cells: its header and how to format the
/// cell, stated together so the two cannot drift apart.
pub type Column<T> = (&'static str, fn(&T) -> String);

/// A named table of string cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Identifier, e.g. `fig9_traffic_cost` (also the CSV file stem).
    pub name: String,
    /// Human title, e.g. "Figure 9: average traffic cost".
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(name: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            name: name.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A table of `rows` (the shape a sweep's `par_map` returns).
    pub fn from_rows(
        name: impl Into<String>,
        title: impl Into<String>,
        headers: &[&str],
        rows: impl IntoIterator<Item = Vec<String>>,
    ) -> Self {
        let mut t = Table::new(name, title, headers);
        rows.into_iter().for_each(|row| t.push_row(row));
        t
    }

    /// A table with one row per item and one column per `columns` entry.
    pub fn from_columns<T>(
        name: impl Into<String>,
        title: impl Into<String>,
        items: &[T],
        columns: &[Column<T>],
    ) -> Self {
        let headers: Vec<&str> = columns.iter().map(|(header, _)| *header).collect();
        let row = |item| columns.iter().map(|(_, show)| show(item)).collect();
        Table::from_rows(name, title, &headers, items.iter().map(row))
    }

    /// Append a row (must match the header arity).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch in {}", self.name);
        self.rows.push(row);
    }

    /// Render to an aligned text block.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// CSV encoding (quotes cells containing separators).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Write `<dir>/<name>.csv`. Failures name the path they tripped on.
    pub fn write_csv(&self, dir: &Path) -> Result<PathBuf, OutputError> {
        write_into(dir, &format!("{}.csv", self.name), self.to_csv().as_bytes())
    }
}

/// Format a float with `d` decimals.
pub fn f(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

/// Format a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// How tables and `BENCH_*.json` spell a switch.
pub fn on_off(flag: bool) -> &'static str {
    if flag {
        "on"
    } else {
        "off"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", "Test table", &["a", "long_header", "c"]);
        t.push_row(vec!["1".into(), "2".into(), "3".into()]);
        t.push_row(vec!["10".into(), "x".into(), "hello".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        assert!(r.contains("Test table"));
        assert!(r.contains("long_header"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
    }

    #[test]
    fn csv_roundtrip_simple() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,long_header,c");
        assert_eq!(lines[1], "1,2,3");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("q", "Q", &["x"]);
        t.push_row(vec!["a,b".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", "T", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("ddp_test_csv");
        let path = sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,long_header,c"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn float_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.4567), "45.7%");
    }

    #[test]
    fn write_csv_failure_names_the_offending_path() {
        // A directory cannot be created below a regular file.
        let file = std::env::temp_dir().join(format!("ddp_not_a_dir_{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let below = file.join("sub");
        let err = sample().write_csv(&below).unwrap_err();
        assert_eq!(err.op, "create directory");
        assert_eq!(err.path, below);
        assert!(err.to_string().contains(&below.display().to_string()));
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn ensure_writable_dir_probes_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("ddp_probe_{}", std::process::id()));
        ensure_writable_dir(&dir).unwrap();
        assert!(dir.is_dir());
        assert!(!dir.join(".ddp-write-probe").exists(), "probe must be removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ensure_writable_dir_rejects_unwritable_target() {
        let file = std::env::temp_dir().join(format!("ddp_probe_file_{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let err = ensure_writable_dir(&file.join("sub")).unwrap_err();
        assert_eq!(err.op, "create directory");
        let _ = std::fs::remove_file(&file);
    }
}
