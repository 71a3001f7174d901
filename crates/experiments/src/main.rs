//! `ddp-experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! ddp-experiments <command> [--peers N] [--ticks N] [--seed N] [--agents N]
//!                           [--replicates N] [--csv DIR] [--paper-scale]
//!                           [--threads N]
//!
//! commands:
//!   table1      Neighbor_Traffic wire layout (Table 1)
//!   fig2        indicator worked example (Figure 2)
//!   fig5 fig6   single-peer capacity testbed (§2.3)
//!   fig9 fig10 fig11   attack-impact sweeps (§3.6)
//!   consequences       figures 9-11 from one sweep
//!   fig12       damage rate over time per cut threshold
//!   fig13 fig14 errors / recovery time vs cut threshold
//!   ct          figures 13-14 from one sweep
//!   exchange    neighbor-list exchange policy study (§3.7.1)
//!   cheating    report-cheating strategies (§3.4)
//!   resilience  lossy/delayed control plane sweep (extension)
//!   collusion   coordinated report-cheating coalitions sweep (extension)
//!   ablations   design-choice ablations
//!   structured  flooding overlay vs Chord-like DHT (§5 future work)
//!   all         every command above, one run each
//!
//!   not part of `all` (they write artifacts, spawn processes or gate CI):
//!   scale       throughput sweep over overlay size × attacker fraction
//!   sketch      exact-vs-sketch monitor memory/accuracy sweep
//!   churn       session-model churn × whitewashing attackers (extension)
//!   fuzz        differential fuzz: engine vs naive reference oracle
//!   testbed     sim-vs-wire cross-validation on a servent mesh
//!   soak        crash-recovery chaos soak on the wire mesh
//! ```
//!
//! Sweeps fan their grid cells out over `ddp_sim::pool` at the host's
//! available parallelism; `--threads` is the tick engine's width inside the
//! timed `scale` cells. Tables are byte-identical at every width of either.

use ddp_experiments::runners::{self, emit};
use ddp_experiments::{ensure_writable_dir, ExpOptions};
use ddp_metrics::CountingAlloc;
use std::path::PathBuf;
use std::process::ExitCode;

// Peak-heap proxy read by the `scale` runner; counting wrapper around the
// system allocator, negligible overhead for every other command.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("usage: ddp-experiments <command> [options]; see --help");
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" || command == "help" {
        println!("{}", HELP);
        return ExitCode::SUCCESS;
    }
    let opts = match parse_options(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Fail fast on unwritable output/checkpoint directories — before hours
    // of simulation, not after.
    for dir in [&opts.csv_dir, &opts.checkpoint_dir].into_iter().flatten() {
        if let Err(e) = ensure_writable_dir(dir) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    match command.as_str() {
        "table1" => emit(&runners::table1(), &opts),
        "fig2" => emit(&runners::fig2(), &opts),
        "fig5" => emit(&runners::fig5(), &opts),
        "fig6" => emit(&runners::fig6(), &opts),
        "fig9" => emit(&runners::fig9(&runners::agent_sweep(&opts)), &opts),
        "fig10" => emit(&runners::fig10(&runners::agent_sweep(&opts)), &opts),
        "fig11" => emit(&runners::fig11(&runners::agent_sweep(&opts)), &opts),
        "consequences" => {
            for t in runners::consequences(&opts) {
                emit(&t, &opts);
            }
        }
        "fig12" => emit(&runners::fig12(&opts), &opts),
        "fig13" => emit(&runners::fig13(&runners::ct_sweep(&opts, &runners::CT_GRID)), &opts),
        "fig14" => emit(&runners::fig14(&runners::ct_sweep(&opts, &runners::CT_GRID)), &opts),
        "ct" => {
            let rows = runners::ct_sweep(&opts, &runners::CT_GRID);
            emit(&runners::fig13(&rows), &opts);
            emit(&runners::fig14(&rows), &opts);
        }
        "exchange" => emit(&runners::exchange(&opts), &opts),
        "scale" => emit(&runners::scale(&opts, Some(&ALLOC)), &opts),
        "sketch" => emit(&runners::sketch(&opts), &opts),
        "churn" => emit(&runners::churn(&opts), &opts),
        "fuzz" => emit(&runners::fuzz(&opts), &opts),
        "structured" => emit(&runners::structured(&opts), &opts),
        "testbed" => match runners::testbed(&opts) {
            Ok(t) => emit(&t, &opts),
            Err(e) => {
                eprintln!("testbed: {e}");
                return ExitCode::FAILURE;
            }
        },
        "soak" => match runners::soak(&opts) {
            Ok(t) => emit(&t, &opts),
            Err(e) => {
                eprintln!("soak: {e}");
                return ExitCode::FAILURE;
            }
        },
        "cheating" => emit(&runners::cheating(&opts), &opts),
        "resilience" => emit(&runners::resilience(&opts), &opts),
        "collusion" => {
            emit(&runners::collusion(&opts), &opts);
            emit(&runners::readmission(&opts), &opts);
        }
        "ablations" => {
            emit(&runners::ablate_warning(&opts), &opts);
            emit(&runners::ablate_radius(&opts), &opts);
            emit(&runners::ablate_forwarding(&opts), &opts);
            emit(&runners::ablate_rejoin(&opts), &opts);
            emit(&runners::ablate_clamp(&opts), &opts);
            emit(&runners::ablate_lists(&opts), &opts);
            emit(&runners::ablate_topology(&opts), &opts);
        }
        "all" => {
            emit(&runners::table1(), &opts);
            emit(&runners::fig2(), &opts);
            emit(&runners::fig5(), &opts);
            emit(&runners::fig6(), &opts);
            for t in runners::consequences(&opts) {
                emit(&t, &opts);
            }
            emit(&runners::fig12(&opts), &opts);
            let rows = runners::ct_sweep(&opts, &runners::CT_GRID);
            emit(&runners::fig13(&rows), &opts);
            emit(&runners::fig14(&rows), &opts);
            emit(&runners::exchange(&opts), &opts);
            emit(&runners::cheating(&opts), &opts);
            emit(&runners::resilience(&opts), &opts);
            emit(&runners::collusion(&opts), &opts);
            emit(&runners::readmission(&opts), &opts);
            emit(&runners::ablate_warning(&opts), &opts);
            emit(&runners::ablate_radius(&opts), &opts);
            emit(&runners::ablate_forwarding(&opts), &opts);
            emit(&runners::ablate_rejoin(&opts), &opts);
            emit(&runners::ablate_clamp(&opts), &opts);
            emit(&runners::ablate_lists(&opts), &opts);
            emit(&runners::ablate_topology(&opts), &opts);
            emit(&runners::structured(&opts), &opts);
        }
        other => {
            eprintln!("unknown command `{other}`; see --help");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

const HELP: &str = "\
ddp-experiments — regenerate every table and figure of
\"Defending P2Ps from Overlay Flooding-based DDoS\" (ICPP 2007).

usage: ddp-experiments <command> [options]

commands:
  table1 fig2 fig5 fig6 fig9 fig10 fig11 consequences
  fig12 fig13 fig14 ct exchange cheating resilience collusion ablations
  structured
  all      every command above, one run each
  scale sketch churn fuzz testbed soak
           not part of `all`: they write BENCH_*.json, spawn servent
           processes or gate CI, and are run by name

Sweeps run their grid cells in parallel on every available core; results
are collected in grid order, so output does not depend on the core count.

scale sweeps overlay size × attacker fraction, reporting ticks/sec,
queries/sec, and a peak-heap proxy, and writes BENCH_scale.json.

sketch runs every cell twice — exact counters vs the count-min/space-saving
monitor, same seed — and reports monitor-state memory ratio, missed attacker
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
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--peers" => opts.peers = take(&mut i)?.parse().map_err(|e| format!("--peers: {e}"))?,
            "--ticks" => opts.ticks = take(&mut i)?.parse().map_err(|e| format!("--ticks: {e}"))?,
            "--seed" => opts.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--agents" => {
                opts.agents = take(&mut i)?.parse().map_err(|e| format!("--agents: {e}"))?
            }
            "--replicates" => {
                opts.replicates = take(&mut i)?.parse().map_err(|e| format!("--replicates: {e}"))?
            }
            "--csv" => opts.csv_dir = Some(PathBuf::from(take(&mut i)?)),
            "--paper-scale" => opts.peers = 20_000,
            "--smoke" => opts.smoke = true,
            "--checkpoint-every" => {
                opts.checkpoint_every =
                    take(&mut i)?.parse().map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            "--checkpoint-dir" => opts.checkpoint_dir = Some(PathBuf::from(take(&mut i)?)),
            "--resume" => opts.resume = true,
            "--threads" => {
                opts.threads = take(&mut i)?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if opts.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if opts.agents * 2 > opts.peers {
        return Err(format!(
            "--agents {} is more than half of --peers {}; the paper's agents are a small minority",
            opts.agents, opts.peers
        ));
    }
    Ok(opts)
}
