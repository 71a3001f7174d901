//! In-memory span recorder for the traced run. Spans are recorded from the
//! benchmark's own files, around its calls into each layer; nothing inside
//! the repository's crates is instrumented.

use ddp_metrics::JsonObj;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// One recorded interval. `parent` is the index of the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Spans of one workload run, all sharing the workload id.
pub struct Recorder {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Self {
        Recorder { workload, epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorder's time origin, so other clocks can share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Open a span starting now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent)
    }

    /// Close span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Add a finished span with explicit bounds.
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent });
        self.spans.len() - 1
    }

    /// Run `f` inside a span named `name`; returns its result and duration
    /// in milliseconds.
    pub fn scope<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        (out, (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line to
    /// `target/ddp-benchmark/<workload>.spans.jsonl` under the current
    /// directory; returns the path.
    pub fn write_jsonl(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("target").join("ddp-benchmark");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.spans.jsonl", self.workload));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut line = JsonObj::new()
                .str("workload", self.workload)
                .u64("id", id as u64)
                .str("name", &s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns);
            line = match s.parent {
                Some(p) => line.u64("parent", p as u64),
                None => line.raw("parent", "null"),
            };
            writeln!(out, "{}", line.finish())?;
        }
        out.flush()?;
        Ok(path)
    }
}
