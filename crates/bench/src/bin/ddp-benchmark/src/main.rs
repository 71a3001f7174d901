//! `ddp-benchmark` — one benchmark for the simulator, the defense and the
//! wire servent. See README.md in this directory for the metric glossary,
//! the workloads and how to read `compare`.
//!
//! ```text
//! ddp-benchmark run [--workload W] [--trace 0|1] [--seed N] [--seconds S] [--runs R] [--quick]
//! ddp-benchmark compare A.json B.json
//! ddp-benchmark manifest            # prints BENCHMARK.json from the metric registry
//! ```

mod affinity;
mod compare;
mod json;
mod kernels;
mod metrics;
mod shim;
mod sim_run;
mod stats;
mod trace;
mod wire_run;
mod workloads;

use ddp_metrics::{json_array, CountingAlloc, JsonObj};
use metrics::{unit_of, Values};
use std::process::{Command, ExitCode};
use workloads::{sim_workload, wire_plan, NOMINAL_SECONDS, QUICK_DIVISOR, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Schema tag of the document `run` prints and `compare` reads.
pub const SCHEMA: &str = "ddp-benchmark/v1";

/// An output check that did not hold, and how many operations it spoils.
#[derive(Debug, Clone)]
pub struct Failure {
    pub ops: u64,
    pub what: String,
}

impl Failure {
    pub fn new(ops: u64, what: impl Into<String>) -> Self {
        Failure { ops, what: what.into() }
    }
}

fn json_bool(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted: timed ticks, or frames sent.
    pub attempted: u64,
    pub failures: Vec<Failure>,
    pub metrics: Values,
    /// Tick, frame and sample counts behind the metrics.
    pub counts: Vec<(&'static str, u64)>,
    /// Most threads any measured configuration of the run kept busy.
    pub threads: usize,
}

impl RunOutput {
    pub fn failed(&self) -> u64 {
        self.failures.iter().map(|f| f.ops).sum()
    }

    fn metrics_json(&self) -> String {
        let mut obj = JsonObj::new();
        for &(name, value) in &self.metrics.0 {
            let unit = unit_of(name).expect("only registered metrics are set");
            obj = obj.raw(name, &JsonObj::new().f64("value", value).str("unit", unit).finish());
        }
        obj.finish()
    }

    /// The four-key object the benchmark driver reads from the last line.
    fn driver_line(&self) -> String {
        JsonObj::new()
            .raw("correct", json_bool(self.failures.is_empty()))
            .u64("attempted", self.attempted)
            .u64("failed", self.failed())
            .raw("metrics", &self.metrics_json())
            .finish()
    }

    fn document_entry(&self, cores: usize) -> String {
        let mut counts = JsonObj::new();
        for &(name, n) in &self.counts {
            counts = counts.u64(name, n);
        }
        JsonObj::new()
            .str("workload", self.workload)
            .u64("seed", self.seed)
            .u64("trace", u64::from(self.traced))
            .raw("correct", json_bool(self.failures.is_empty()))
            .u64("attempted", self.attempted)
            .u64("failed", self.failed())
            .raw(
                "failures",
                &json_array(
                    self.failures
                        .iter()
                        .map(|f| format!("\"{}\"", ddp_metrics::json_escape(&f.what))),
                ),
            )
            .u64("threads", self.threads as u64)
            .raw("oversubscribed", json_bool(self.threads > cores))
            .raw("counts", &counts.finish())
            .raw("metrics", &self.metrics_json())
            .finish()
    }

    fn print_table(&self) {
        eprintln!(
            "== {} seed={} {} attempted={} failed={}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed()
        );
        for &(name, value) in &self.metrics.0 {
            eprintln!("  {name:<36} {value:>18.4} {}", unit_of(name).unwrap_or(""));
        }
        for &(name, n) in &self.counts {
            eprintln!("  # {name} = {n}");
        }
        for f in &self.failures {
            eprintln!("  ! {} ({} ops)", f.what, f.ops);
        }
    }
}

/// Run one workload once, at full scale (`divisor` 1) or a reduced one.
fn run_one(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    divisor: u64,
) -> Option<RunOutput> {
    if let Some(w) = sim_workload(workload, seconds, divisor) {
        return Some(if traced {
            sim_run::run_traced(&w, seed, &ALLOC)
        } else {
            sim_run::run_untraced(&w, seed, &ALLOC)
        });
    }
    (workload == "wire_relay")
        .then(|| wire_run::run(&wire_plan(seconds, divisor), seed, traced, &ALLOC))
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    // Keep git from walking above the current directory: the benchmark
    // reads nothing outside its checkout.
    let ceiling = std::env::current_dir().ok().and_then(|d| d.parent().map(|p| p.to_path_buf()));
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(c) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", c);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

struct RunArgs {
    workloads: Vec<String>,
    traces: Vec<bool>,
    seed: u64,
    seconds: u64,
    runs: u64,
    quick: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        traces: vec![false, true],
        seed: 1,
        seconds: NOMINAL_SECONDS,
        runs: 1,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a whole number"));
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}; one of {WORKLOADS:?}"));
                }
                parsed.workloads = vec![value.clone()];
            }
            "--trace" => {
                parsed.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => {
                parsed.seconds = number()?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err(format!("--seconds {value}: expected 1 to 60"));
                }
            }
            "--runs" => {
                parsed.runs = number()?;
                if !(1..=100).contains(&parsed.runs) {
                    return Err(format!("--runs {value}: expected 1 to 100"));
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(parsed)
}

/// `run`: every requested workload, `--runs` untraced runs on consecutive
/// seeds and one traced run on the first seed. Prints the document on
/// standard output; when exactly one run was asked for, its four-key driver
/// object follows as the last line.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = first_line_of("git", &["rev-parse", "HEAD"]);
    let rustc = first_line_of("rustc", &["-V"]);
    eprintln!(
        "ddp-benchmark: seed={} seconds={} scale={} cores={cores} commit={commit} {rustc}",
        a.seed,
        a.seconds,
        if a.quick { "quick" } else { "full" }
    );
    eprintln!(
        "ddp-benchmark: wire_relay traffic crosses the host's loopback interface, not a link"
    );
    let mut outputs = Vec::new();
    for workload in &a.workloads {
        for &traced in &a.traces {
            let runs = if traced { 1 } else { a.runs };
            for k in 0..runs {
                let divisor = if a.quick { QUICK_DIVISOR } else { 1 };
                let out = run_one(workload, a.seed + k, a.seconds, traced, divisor)
                    .expect("workload names were checked while parsing");
                out.print_table();
                outputs.push(out);
            }
        }
    }
    let provenance = JsonObj::new()
        .u64("available_parallelism", cores as u64)
        .str("commit", &commit)
        .str("rustc", &rustc)
        .u64("seed", a.seed)
        .u64("seconds", a.seconds)
        .u64("sim_threads", 1)
        .str("wire_path", "loopback")
        .finish();
    let document = JsonObj::new()
        .str("schema", SCHEMA)
        .str("scale", if a.quick { "quick" } else { "full" })
        .raw("provenance", &provenance)
        .raw("runs", &json_array(outputs.iter().map(|o| o.document_entry(cores))))
        .finish();
    println!("{document}");
    if let [only] = outputs.as_slice() {
        println!("{}", only.driver_line());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::compare(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            println!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: ddp-benchmark run [--workload W] [--trace 0|1] [--seed N] [--seconds S] \
                  [--runs R] [--quick] | ddp-benchmark compare A.json B.json | ddp-benchmark manifest"
            .to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ddp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
