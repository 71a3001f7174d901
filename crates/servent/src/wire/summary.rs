//! Per-servent run summary: the file a `ddp-servent` process writes on
//! graceful exit and the testbed collector reads back.
//!
//! The format is a versioned, TAB-separated key/value text file — trivially
//! greppable, order-stable, and append-proof (a truncated file fails to
//! parse because the `end` sentinel is missing, which is exactly what the
//! collector wants to detect after a SIGKILL).

use ddp_metrics::ConnCounters;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Magic first line (bump the version when the schema changes).
pub const SUMMARY_MAGIC: &str = "ddp-wire-summary v1";

/// Everything one servent process reports about its run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireSummary {
    pub id: u32,
    /// `"good"` or `"agent"`.
    pub role: String,
    pub protocol_secs: u64,
    /// Queries issued (Good role).
    pub issued: u64,
    /// Queries that got at least one hit.
    pub resolved: u64,
    pub conn: ConnCounters,
    /// Defensive disconnections: (protocol second, suspect id).
    pub cuts: Vec<(u64, u32)>,
    /// Concluded investigations: (second, suspect, g, s, cut).
    pub verdicts: Vec<(u64, u32, f64, f64, bool)>,
    /// Overlay neighbors at the end of the run.
    pub neighbors_final: Vec<u32>,
    /// Restart generation: 0 = cold start, incremented on every successful
    /// resume-from-checkpoint. Carried on the `end` sentinel line so the
    /// testbed collector can chain summaries from successive incarnations.
    pub generation: u32,
    /// Why a requested resume degraded to a cold start: the
    /// `SnapshotError` variant name (`"ChecksumMismatch"`, `"Truncated"`,
    /// ...), or empty when the resume succeeded / was never requested.
    pub resume_error: String,
}

/// Typed, path-naming I/O error for summary files.
#[derive(Debug)]
pub enum WireIoError {
    /// The underlying filesystem operation failed.
    Io { op: &'static str, path: PathBuf, source: std::io::Error },
    /// The file exists but does not parse as a summary.
    Parse { path: PathBuf, line: usize, reason: String },
}

impl std::fmt::Display for WireIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireIoError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            WireIoError::Parse { path, line, reason } => {
                write!(f, "parse {}:{line}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for WireIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireIoError::Io { source, .. } => Some(source),
            WireIoError::Parse { .. } => None,
        }
    }
}

fn parse_generation(raw: &str) -> Result<u32, String> {
    raw.parse::<u32>().map_err(|e| format!("end sentinel generation: bad integer `{raw}`: {e}"))
}

impl WireSummary {
    /// Serialize to the text format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(SUMMARY_MAGIC);
        s.push('\n');
        s.push_str(&format!("id\t{}\n", self.id));
        s.push_str(&format!("role\t{}\n", self.role));
        s.push_str(&format!("protocol_secs\t{}\n", self.protocol_secs));
        s.push_str(&format!("issued\t{}\n", self.issued));
        s.push_str(&format!("resolved\t{}\n", self.resolved));
        for (name, value) in self.conn.fields() {
            s.push_str(&format!("{name}\t{value}\n"));
        }
        for &(t, suspect) in &self.cuts {
            s.push_str(&format!("cut\t{t}\t{suspect}\n"));
        }
        for &(t, suspect, g, si, bad) in &self.verdicts {
            s.push_str(&format!("verdict\t{t}\t{suspect}\t{g:.6}\t{si:.6}\t{}\n", u8::from(bad)));
        }
        let neigh: Vec<String> = self.neighbors_final.iter().map(u32::to_string).collect();
        s.push_str(&format!("neighbors_final\t{}\n", neigh.join(",")));
        if !self.resume_error.is_empty() {
            s.push_str(&format!("resume_error\t{}\n", self.resume_error));
        }
        // The generation rides on the sentinel itself: a truncated file can
        // neither claim completion nor misattribute its incarnation.
        s.push_str(&format!("end\t{}\n", self.generation));
        s
    }

    /// Parse the text format. `path` is used only for error naming; pass
    /// `"<memory>"` when parsing a buffer.
    pub fn from_reader<R: BufRead>(reader: R, path: &Path) -> Result<WireSummary, WireIoError> {
        let perr = |line: usize, reason: String| WireIoError::Parse {
            path: path.to_path_buf(),
            line,
            reason,
        };
        let mut out = WireSummary::default();
        let mut saw_magic = false;
        let mut saw_end = false;
        for (idx, line) in reader.lines().enumerate() {
            let lineno = idx + 1;
            let line = line.map_err(|e| WireIoError::Io {
                op: "read",
                path: path.to_path_buf(),
                source: e,
            })?;
            if idx == 0 {
                if line != SUMMARY_MAGIC {
                    return Err(perr(1, format!("expected `{SUMMARY_MAGIC}`, got `{line}`")));
                }
                saw_magic = true;
                continue;
            }
            if line == "end" || line.starts_with("end\t") {
                // Bare `end` (pre-generation writers) parses as generation 0.
                if let Some(rest) = line.strip_prefix("end\t") {
                    out.generation =
                        parse_generation(rest).map_err(|reason| perr(lineno, reason))?;
                }
                saw_end = true;
                break;
            }
            let mut parts = line.split('\t');
            let key = parts.next().unwrap_or("");
            let fields: Vec<&str> = parts.collect();
            let one = |what: &str| -> Result<&str, WireIoError> {
                fields
                    .first()
                    .copied()
                    .ok_or_else(|| perr(lineno, format!("{what}: missing value")))
            };
            let parse_u64 = |s: &str, what: &str| -> Result<u64, WireIoError> {
                s.parse::<u64>()
                    .map_err(|e| perr(lineno, format!("{what}: bad integer `{s}`: {e}")))
            };
            match key {
                "id" => out.id = parse_u64(one("id")?, "id")? as u32,
                "role" => out.role = one("role")?.to_string(),
                "protocol_secs" => {
                    out.protocol_secs = parse_u64(one("protocol_secs")?, "protocol_secs")?
                }
                "issued" => out.issued = parse_u64(one("issued")?, "issued")?,
                "resolved" => out.resolved = parse_u64(one("resolved")?, "resolved")?,
                "cut" => {
                    if fields.len() != 2 {
                        return Err(perr(
                            lineno,
                            format!("cut: want 2 fields, got {}", fields.len()),
                        ));
                    }
                    out.cuts.push((
                        parse_u64(fields[0], "cut time")?,
                        parse_u64(fields[1], "cut suspect")? as u32,
                    ));
                }
                "verdict" => {
                    if fields.len() != 5 {
                        return Err(perr(
                            lineno,
                            format!("verdict: want 5 fields, got {}", fields.len()),
                        ));
                    }
                    let g = fields[2].parse::<f64>().map_err(|e| {
                        perr(lineno, format!("verdict g: bad float `{}`: {e}", fields[2]))
                    })?;
                    let si = fields[3].parse::<f64>().map_err(|e| {
                        perr(lineno, format!("verdict s: bad float `{}`: {e}", fields[3]))
                    })?;
                    out.verdicts.push((
                        parse_u64(fields[0], "verdict time")?,
                        parse_u64(fields[1], "verdict suspect")? as u32,
                        g,
                        si,
                        fields[4] == "1",
                    ));
                }
                "neighbors_final" => {
                    let raw = fields.first().copied().unwrap_or("");
                    if !raw.is_empty() {
                        for part in raw.split(',') {
                            out.neighbors_final.push(parse_u64(part, "neighbors_final")? as u32);
                        }
                    }
                }
                "resume_error" => out.resume_error = one("resume_error")?.to_string(),
                _ => {
                    // Counter fields route through ConnCounters; unknown keys
                    // are skipped for forward compatibility.
                    if let Ok(v) = parse_u64(one(key)?, key) {
                        let _ = out.conn.set_field(key, v);
                    }
                }
            }
        }
        if !saw_magic {
            return Err(perr(1, "empty file".into()));
        }
        if !saw_end {
            return Err(perr(0, "missing `end` sentinel (truncated summary?)".into()));
        }
        Ok(out)
    }

    /// Write atomically (temp file + rename) so the collector never reads a
    /// half-written summary. Creates the parent directory if needed — the
    /// failure is a typed [`WireIoError`], mirroring how `write_snapshot`
    /// reports its staging errors.
    pub fn write_file(&self, path: &Path) -> Result<(), WireIoError> {
        fn io(op: &'static str, p: &Path, e: std::io::Error) -> WireIoError {
            WireIoError::Io { op, path: p.to_path_buf(), source: e }
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io("create_dir", parent, e))?;
            }
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io("create", &tmp, e))?;
            f.write_all(self.to_text().as_bytes()).map_err(|e| io("write", &tmp, e))?;
            f.sync_all().map_err(|e| io("sync", &tmp, e))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| io("rename", path, e))
    }

    /// Read a summary file.
    pub fn read_file(path: &Path) -> Result<WireSummary, WireIoError> {
        let f = std::fs::File::open(path).map_err(|e| WireIoError::Io {
            op: "open",
            path: path.to_path_buf(),
            source: e,
        })?;
        WireSummary::from_reader(BufReader::new(f), path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WireSummary {
        let conn = ConnCounters {
            dials_ok: 3,
            frames_sent: 1_234,
            frames_dropped: 7,
            ..ConnCounters::default()
        };
        WireSummary {
            id: 4,
            role: "agent".into(),
            protocol_secs: 240,
            issued: 0,
            resolved: 0,
            conn,
            cuts: vec![(110, 9)],
            verdicts: vec![(110, 9, 25.5, 24.25, true), (170, 9, 0.5, 0.25, false)],
            neighbors_final: vec![1, 2, 7],
            generation: 2,
            resume_error: String::new(),
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let s = sample();
        let text = s.to_text();
        let back =
            WireSummary::from_reader(text.as_bytes(), Path::new("<memory>")).expect("parses");
        assert_eq!(s, back);
    }

    #[test]
    fn empty_neighbor_list_roundtrips() {
        let mut s = sample();
        s.neighbors_final.clear();
        let back = WireSummary::from_reader(s.to_text().as_bytes(), Path::new("<memory>"))
            .expect("parses");
        assert_eq!(back.neighbors_final, Vec::<u32>::new());
    }

    #[test]
    fn truncated_summary_is_rejected_with_the_path_named() {
        let s = sample();
        let text = s.to_text();
        let cut = &text[..text.rfind("end\t").unwrap()]; // chop the `end` sentinel
        let err = WireSummary::from_reader(cut.as_bytes(), Path::new("victim.summary"))
            .expect_err("truncation must fail");
        let msg = err.to_string();
        assert!(msg.contains("victim.summary"), "error names the path: {msg}");
        assert!(msg.contains("end"), "error names the missing sentinel: {msg}");
    }

    #[test]
    fn generation_rides_the_end_sentinel() {
        let s = sample();
        let text = s.to_text();
        assert!(text.ends_with("end\t2\n"), "sentinel carries the generation: {text}");
        let back =
            WireSummary::from_reader(text.as_bytes(), Path::new("<memory>")).expect("parses");
        assert_eq!(back.generation, 2);
        // Pre-generation writers emitted a bare `end`: still generation 0.
        let legacy = text.replace("end\t2", "end");
        let back =
            WireSummary::from_reader(legacy.as_bytes(), Path::new("<memory>")).expect("parses");
        assert_eq!(back.generation, 0);
    }

    #[test]
    fn resume_error_roundtrips_and_defaults_empty() {
        let mut s = sample();
        s.resume_error = "ChecksumMismatch".into();
        let back = WireSummary::from_reader(s.to_text().as_bytes(), Path::new("<memory>"))
            .expect("parses");
        assert_eq!(back.resume_error, "ChecksumMismatch");
        assert!(!sample().to_text().contains("resume_error"), "empty field is omitted");
    }

    #[test]
    fn file_roundtrip_via_temp_rename() {
        // The parent directory does not exist: write_file creates it through
        // its typed error path (no raw unwrap anywhere in the helper).
        let dir = std::env::temp_dir()
            .join(format!("ddp-wire-summary-test-{}", std::process::id()))
            .join("nested");
        let path = dir.join("s4.summary");
        let s = sample();
        s.write_file(&path).expect("write creates the parent directory");
        let back = WireSummary::read_file(&path).expect("read");
        assert_eq!(s, back);
        assert!(!path.with_extension("tmp").exists(), "temp file renamed away");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn unwritable_parent_is_a_typed_create_dir_error() {
        // A path whose parent cannot be created (a file stands in the way)
        // must surface as WireIoError::Io{op:"create_dir"} — never a panic.
        let base = std::env::temp_dir().join(format!("ddp-wire-flat-{}", std::process::id()));
        std::fs::write(&base, b"not a directory").unwrap();
        let path = base.join("sub").join("s1.summary");
        let err = sample().write_file(&path).expect_err("must fail");
        match &err {
            WireIoError::Io { op, .. } => assert_eq!(*op, "create_dir", "got {err}"),
            other => panic!("expected Io error, got {other}"),
        }
        let _ = std::fs::remove_file(&base);
    }

    #[test]
    fn missing_file_error_names_the_operation_and_path() {
        let err = WireSummary::read_file(Path::new("/no/such/ddp-summary")).expect_err("must fail");
        let msg = err.to_string();
        assert!(msg.starts_with("open "), "op named: {msg}");
        assert!(msg.contains("/no/such/ddp-summary"), "path named: {msg}");
    }
}
