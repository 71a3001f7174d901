//! `ddp-experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! ddp-experiments <command> [--peers N] [--ticks N] [--seed N] [--agents N]
//!                           [--replicates N] [--csv DIR] [--paper-scale]
//!                           [--threads N]
//! ```
//!
//! [`COMMANDS`] is the one list of subcommands: dispatch, what `all` runs and
//! the command list `--help` prints are all read off it.
//!
//! Sweeps fan their grid cells out over `ddp_sim::pool` at the host's
//! available parallelism; `--threads` is the tick engine's width inside the
//! timed `scale` cells. Tables are byte-identical at every width of either.

use ddp_experiments::runners::{self as r, emit};
use ddp_experiments::{ensure_writable_dir, ExpOptions, Table};
use ddp_metrics::CountingAlloc;
use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;

// Peak-heap proxy read by the `scale` runner; counting wrapper around the
// system allocator, negligible overhead for every other command.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// What a subcommand produces: its tables in emission order, or why it failed.
type Tables = Result<Vec<Table>, String>;

/// A subcommand: name, whether `all` runs it, its `--help` line, and the run.
type Command = (&'static str, bool, &'static str, fn(&ExpOptions) -> Tables);

/// Every subcommand, in the order `--help` lists and `all` runs them. The
/// single-figure commands a combined sweep covers (`consequences`, `ct`) and
/// the commands that write artifacts, spawn processes or gate CI stay out of
/// `all` and are run by name.
const COMMANDS: &[Command] = &[
    ("table1", true, "Neighbor_Traffic wire layout (Table 1)", |_| one(r::table1())),
    ("fig2", true, "indicator worked example (Figure 2)", |_| one(r::fig2())),
    ("fig5", true, "queries sent vs processed, one-peer testbed (§2.3)", |_| one(r::fig5())),
    ("fig6", true, "drop rate vs query density, one-peer testbed (§2.3)", |_| one(r::fig6())),
    ("fig9", false, "traffic cost vs agents (§3.6)", |o| one(r::fig9(&r::agent_sweep(o)))),
    ("fig10", false, "response time vs agents (§3.6)", |o| one(r::fig10(&r::agent_sweep(o)))),
    ("fig11", false, "success rate vs agents (§3.6)", |o| one(r::fig11(&r::agent_sweep(o)))),
    ("consequences", true, "figures 9-11 from one sweep", |o| Ok(r::consequences(o))),
    ("fig12", true, "damage rate over time per cut threshold", |o| one(r::fig12(o))),
    ("fig13", false, "errors vs cut threshold", |o| one(r::fig13(&r::ct_sweep(o, &r::CT_GRID)))),
    ("fig14", false, "recovery vs cut threshold", |o| one(r::fig14(&r::ct_sweep(o, &r::CT_GRID)))),
    ("ct", true, "figures 13-14 from one sweep", |o| {
        let rows = r::ct_sweep(o, &r::CT_GRID);
        Ok(vec![r::fig13(&rows), r::fig14(&rows)])
    }),
    ("exchange", true, "neighbor-list exchange policy study (§3.7.1)", |o| one(r::exchange(o))),
    ("cheating", true, "report-cheating strategies (§3.4)", |o| one(r::cheating(o))),
    ("resilience", true, "lossy/delayed control plane sweep (extension)", |o| {
        one(r::resilience(o))
    }),
    ("collusion", true, "report-cheating coalitions, then readmission (extension)", |o| {
        Ok(vec![r::collusion(o), r::readmission(o)])
    }),
    ("ablations", true, "the seven design-choice ablations", |o| {
        Ok(vec![
            r::ablate_warning(o),
            r::ablate_radius(o),
            r::ablate_forwarding(o),
            r::ablate_rejoin(o),
            r::ablate_clamp(o),
            r::ablate_lists(o),
            r::ablate_topology(o),
        ])
    }),
    ("structured", true, "flooding overlay vs Chord-like DHT (§5 future work)", |o| {
        one(r::structured(o))
    }),
    ("scale", false, "throughput vs overlay size; writes BENCH_scale.json", |o| {
        one(r::scale(o, Some(&ALLOC)))
    }),
    ("sketch", false, "exact-vs-sketch monitor sweep; writes BENCH_sketch.json", |o| {
        one(r::sketch(o))
    }),
    ("churn", false, "session churn x whitewashing; writes BENCH_churn.json", |o| one(r::churn(o))),
    ("fuzz", false, "differential fuzz: engine vs naive reference oracle", |o| one(r::fuzz(o))),
    ("testbed", false, "sim-vs-wire cross-validation on a servent mesh", |o| {
        r::testbed(o).and_then(one)
    }),
    ("soak", false, "crash-recovery chaos soak on the wire mesh", |o| r::soak(o).and_then(one)),
];

/// The command that runs every [`COMMANDS`] entry marked for it.
const ALL: &str = "all";

fn one(table: Table) -> Tables {
    Ok(vec![table])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(command) = args.first() else {
        return Err("no command; usage: ddp-experiments <command> [options]; see --help".into());
    };
    if ["--help", "-h", "help"].contains(&command.as_str()) {
        println!("{}", help());
        return Ok(());
    }
    let opts = parse_options(&args[1..])?;

    // Fail fast on unwritable output/checkpoint directories — before hours
    // of simulation, not after.
    for dir in [&opts.csv_dir, &opts.checkpoint_dir].into_iter().flatten() {
        ensure_writable_dir(dir)?;
    }
    run_command(command, &opts)
}

/// Run `command` (or, for `all`, every command marked for it) and emit its
/// tables; stops at the first failed command or failed CSV write.
fn run_command(command: &str, opts: &ExpOptions) -> Result<(), Box<dyn Error>> {
    let selected: Vec<&Command> = COMMANDS
        .iter()
        .filter(|(name, in_all, ..)| if command == ALL { *in_all } else { *name == command })
        .collect();
    if selected.is_empty() {
        return Err(format!("unknown command `{command}`; see --help").into());
    }
    for (name, _, _, run) in selected {
        for table in run(opts).map_err(|e| format!("{name}: {e}"))? {
            emit(&table, opts)?;
        }
    }
    Ok(())
}

/// `--help`: the command list is [`COMMANDS`], the rest is [`HELP`]'s prose.
fn help() -> String {
    let mut commands = String::new();
    for (name, in_all, about, _) in COMMANDS {
        commands += &format!("  {} {name:<13}{about}\n", if *in_all { '*' } else { ' ' });
    }
    commands += &format!("    {ALL:<13}every command marked *, in this order");
    HELP.replace("{commands}", &commands)
}

const HELP: &str = "\
ddp-experiments — regenerate every table and figure of
\"Defending P2Ps from Overlay Flooding-based DDoS\" (ICPP 2007).

usage: ddp-experiments <command> [options]

commands (* = part of `all`; the others are run by name: single figures of a
combined sweep, or commands that write BENCH_*.json, spawn servent processes
or gate CI):
{commands}

Sweeps run their grid cells in parallel on every available core; results
are collected in grid order, so output does not depend on the core count.

scale sweeps overlay size × attacker fraction, reporting ticks/sec,
queries/sec, and a peak-heap proxy, and writes BENCH_scale.json.

sketch runs every cell twice — exact counters vs the count-min monitor,
same seed — and reports monitor-state memory ratio, missed attacker
cuts, and spurious good-peer cuts, writing BENCH_sketch.json. --smoke runs
the small cell plus the 100k-peer memory-acceptance cell (which must hit
>=4x memory at zero missed cuts, or the run fails).

fuzz runs seeded random scenarios through the engine/oracle differential
harness; on divergence it shrinks the scenario, writes a replayable JSON
reproducer under tests/repro/, and exits nonzero.

churn sweeps session-model churn (arrival rate × session-length
distribution) × whitewash dwell × readmission policy, reporting detection
and re-detection latency, wrongful-cut rate, and residual damage, and
writes BENCH_churn.json.

options:
  --peers N        overlay size (default 2000)
  --ticks N        simulated minutes per run (default 30)
  --seed N         base seed (default 42)
  --agents N       DDoS agents for fixed-attack experiments (default 100)
  --replicates N   averaged seeds per configuration (default 1)
  --csv DIR        also write each table as DIR/<name>.csv
  --paper-scale    shorthand for --peers 20000 (the paper's §3.5 setting)
  --smoke          (scale/sketch/churn/fuzz/testbed/soak) reduced grid that just
                   validates the pipeline; BENCH_*.json is checked, not written
  --threads N      (scale) tick-engine worker count (default 1; results are
                   byte-identical at every width, only wall clock changes)

testbed runs the sim-vs-wire cross-validation: the same topology and attack
through the in-memory simulator, a mesh of real ddp-servent processes over
loopback TCP, and the same mesh with a SIGKILL'd servent and a socket
severed mid-frame. Needs the ddp-servent binary (same profile, or set
DDP_SERVENT_BIN). --smoke shrinks it to 10 servents x 3 minutes.

soak runs the crash-recovery continuity proof: a chaos-free wire mesh for
the baseline first-cut time, then the same mesh with checkpointing under a
seeded chaos schedule — the servent that cut the attacker is SIGKILL'd
after the cut and restarted from its checkpoint (it must still have the
attacker cut: no readmission-from-amnesia), and a bit-flipped checkpoint
must degrade to a logged cold start. Needs the ddp-servent binary, like
testbed.

checkpointing (currently honored by ct/fig12/fig13/fig14):
  --checkpoint-every N   snapshot full engine state every N ticks (default 0 = off)
  --checkpoint-dir DIR   where .snap files go (default: --csv dir, else .)
  --resume               resume interrupted runs from their checkpoints

A checkpointed run produces bit-identical tables to an uncheckpointed one;
kill it at any point (even kill -9) and rerun the same command with
--resume to fast-forward each run from its last checkpoint. Missing or
corrupt checkpoints are ignored with a warning and that run restarts from
tick 0 — the numbers never change either way.
";

fn parse_options(args: &[String]) -> Result<ExpOptions, String> {
    let mut opts = ExpOptions::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<usize>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--peers" => opts.peers = number(value()?)?,
            "--ticks" => opts.ticks = number(value()?)?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--agents" => opts.agents = number(value()?)?,
            "--replicates" => opts.replicates = number(value()?)?,
            "--csv" => opts.csv_dir = Some(PathBuf::from(value()?)),
            "--paper-scale" => opts.peers = 20_000,
            "--smoke" => opts.smoke = true,
            "--checkpoint-every" => opts.checkpoint_every = number(value()?)?,
            "--checkpoint-dir" => opts.checkpoint_dir = Some(PathBuf::from(value()?)),
            "--resume" => opts.resume = true,
            "--threads" => opts.threads = number(value()?)?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    // A sweep over zero replicates or zero ticks would print a complete,
    // plausible-looking table of zeros.
    for (flag, value) in
        [("--threads", opts.threads), ("--replicates", opts.replicates), ("--ticks", opts.ticks)]
    {
        if value == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
    }
    if opts.agents * 2 > opts.peers {
        return Err(format!(
            "--agents {} is more than half of --peers {}; the paper's agents are a small minority",
            opts.agents, opts.peers
        ));
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpOptions, String> {
        parse_options(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn zero_replicates_and_zero_ticks_are_rejected_by_name() {
        // Either would print a full table of fabricated zeros and exit 0.
        for flag in ["--replicates", "--ticks", "--threads"] {
            let err = parse(&[flag, "0"]).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(parse(&[flag, "1"]).is_ok());
        }
        let err = parse(&["--peers", "100", "--agents", "51"]).unwrap_err();
        assert!(err.contains("--agents"), "{err}");
    }

    #[test]
    fn command_names_are_unique_and_all_is_the_sum_of_its_parts() {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate command name");
        assert!(!names.contains(&ALL));
        let text = help();
        for name in names {
            assert!(text.contains(&format!(" {name} ")), "--help omits {name}");
        }
        assert!(run_command("no-such-command", &ExpOptions::default()).is_err());
    }

    #[test]
    fn a_failed_csv_write_stops_the_command_loop() {
        // The directory became unwritable after the up-front probe: here, a
        // regular file where it should be.
        let file = std::env::temp_dir().join(format!("ddp_main_not_a_dir_{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let opts = ExpOptions { csv_dir: Some(file.clone()), ..ExpOptions::default() };
        let err = run_command("table1", &opts).unwrap_err().to_string();
        assert!(err.contains(&file.display().to_string()), "{err}");
        run_command("table1", &ExpOptions::default()).expect("stdout only");
        let _ = std::fs::remove_file(&file);
    }
}
