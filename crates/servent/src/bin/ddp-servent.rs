//! `ddp-servent` — one DD-POLICE servent as a real networked process.
//!
//! Speaks the 23-byte Gnutella wire format over TCP (one `poll(2)` loop over
//! `std::net` sockets, no async runtime). Launched in fleets by the
//! `ddp-testbed` chaos driver; runs standalone too:
//!
//! ```text
//! ddp-servent --id 0 --listen 127.0.0.1:7000 \
//!   --peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002 \
//!   --neighbors 1,2 --role good --minutes 3 --tick-ms 50 \
//!   --seed 42 --out /tmp/s0.summary
//! ```
//!
//! On graceful completion the process writes a [`WireSummary`] file (atomic
//! temp+rename); a SIGKILL'd process leaves no summary, which is exactly
//! the signal the collector uses to tell crash from hang.

use ddp_servent::wire::{config_fingerprint, CheckpointSpec, WireConfig, WireServent, WireSummary};
use ddp_servent::{Servent, ServentConfig, ServentRole};
use ddp_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::process::ExitCode;

const USAGE: &str = "\
ddp-servent --id N --listen ADDR --peers id=addr[,id=addr...] --neighbors id[,id...]
            [--role good|agent] [--rate-qpm N] [--respond-reports]
            [--minutes N] [--tick-ms N] [--seed N] [--query-rate-qpm F]
            [--catalog-size N] [--items-per-peer N] [--out FILE]
            [--resume-dir DIR] [--checkpoint-every N]

Crash recovery: --resume-dir names a directory of DDPSNAP1 checkpoints
(s<id>.snap). On start the servent resumes from its checkpoint when one
exists and matches this configuration; a corrupt, truncated, or foreign
checkpoint is logged and the servent cold-starts instead. Checkpoints are
written every --checkpoint-every protocol seconds (default 30 when
--resume-dir is given).";

struct Args {
    id: u32,
    listen: SocketAddr,
    peers: HashMap<u32, SocketAddr>,
    neighbors: Vec<u32>,
    role: ServentRole,
    minutes: u64,
    tick_ms: u64,
    seed: u64,
    query_rate_qpm: f64,
    catalog_size: usize,
    items_per_peer: usize,
    out: Option<String>,
    resume_dir: Option<String>,
    checkpoint_every: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut id: Option<u32> = None;
    let mut listen: Option<SocketAddr> = None;
    let mut peers: HashMap<u32, SocketAddr> = HashMap::new();
    let mut neighbors: Vec<u32> = Vec::new();
    let mut role_name = String::from("good");
    let mut rate_qpm: u32 = 1_500;
    let mut respond_reports = false;
    let mut minutes: u64 = 4;
    let mut tick_ms: u64 = 50;
    let mut seed: u64 = 42;
    let mut query_rate_qpm: f64 = 2.0;
    let mut catalog_size: usize = 50;
    let mut items_per_peer: usize = 8;
    let mut out: Option<String> = None;
    let mut resume_dir: Option<String> = None;
    let mut checkpoint_every: u64 = 30;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--id" => id = Some(value(&mut i, flag)?.parse().map_err(|e| format!("--id: {e}"))?),
            "--listen" => {
                listen = Some(value(&mut i, flag)?.parse().map_err(|e| format!("--listen: {e}"))?)
            }
            "--peers" => {
                for pair in value(&mut i, flag)?.split(',').filter(|s| !s.is_empty()) {
                    let (pid, addr) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("--peers: `{pair}` is not id=addr"))?;
                    peers.insert(
                        pid.parse().map_err(|e| format!("--peers id `{pid}`: {e}"))?,
                        addr.parse().map_err(|e| format!("--peers addr `{addr}`: {e}"))?,
                    );
                }
            }
            "--neighbors" => {
                for part in value(&mut i, flag)?.split(',').filter(|s| !s.is_empty()) {
                    neighbors.push(part.parse().map_err(|e| format!("--neighbors `{part}`: {e}"))?);
                }
            }
            "--role" => role_name = value(&mut i, flag)?,
            "--rate-qpm" => {
                rate_qpm = value(&mut i, flag)?.parse().map_err(|e| format!("--rate-qpm: {e}"))?
            }
            "--respond-reports" => respond_reports = true,
            "--minutes" => {
                minutes = value(&mut i, flag)?.parse().map_err(|e| format!("--minutes: {e}"))?
            }
            "--tick-ms" => {
                tick_ms = value(&mut i, flag)?.parse().map_err(|e| format!("--tick-ms: {e}"))?
            }
            "--seed" => seed = value(&mut i, flag)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--query-rate-qpm" => {
                query_rate_qpm =
                    value(&mut i, flag)?.parse().map_err(|e| format!("--query-rate-qpm: {e}"))?
            }
            "--catalog-size" => {
                catalog_size =
                    value(&mut i, flag)?.parse().map_err(|e| format!("--catalog-size: {e}"))?
            }
            "--items-per-peer" => {
                items_per_peer =
                    value(&mut i, flag)?.parse().map_err(|e| format!("--items-per-peer: {e}"))?
            }
            "--out" => out = Some(value(&mut i, flag)?),
            "--resume-dir" => resume_dir = Some(value(&mut i, flag)?),
            "--checkpoint-every" => {
                checkpoint_every =
                    value(&mut i, flag)?.parse().map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    let id = id.ok_or("--id is required")?;
    let listen = listen.ok_or("--listen is required")?;
    let role = match role_name.as_str() {
        "good" => ServentRole::Good,
        "agent" => ServentRole::FloodingAgent { rate_qpm, respond_reports },
        other => return Err(format!("--role must be good|agent, got `{other}`")),
    };
    Ok(Args {
        id,
        listen,
        peers,
        neighbors,
        role,
        minutes,
        tick_ms,
        seed,
        query_rate_qpm,
        catalog_size,
        items_per_peer,
        out,
        resume_dir,
        checkpoint_every,
    })
}

/// Canonical role string for the checkpoint config fingerprint — every knob
/// that changes the role's behavior participates.
fn role_fingerprint_name(role: ServentRole) -> String {
    match role {
        ServentRole::Good => "good".into(),
        ServentRole::FloodingAgent { rate_qpm, respond_reports } => {
            format!("agent:{rate_qpm}:{}", u8::from(respond_reports))
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ddp-servent: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let catalog: Vec<String> = (0..args.catalog_size).map(|i| format!("item-{i:03}")).collect();
    let mut cfg = ServentConfig::default();
    if matches!(args.role, ServentRole::Good) && !catalog.is_empty() {
        // Per-process library draw; seed folded with the id so every peer
        // shares a different slice of the catalog, reproducibly.
        let mut lib_rng =
            StdRng::seed_from_u64(args.seed ^ (args.id as u64).wrapping_mul(0x9e37_79b9));
        cfg.library = (0..args.items_per_peer)
            .map(|_| catalog[lib_rng.gen_range(0..catalog.len())].clone())
            .collect();
    }
    let servent = Servent::new(NodeId(args.id), args.role, cfg);
    let listener = match TcpListener::bind(args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ddp-servent: bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let wire_cfg = WireConfig { tick_ms: args.tick_ms, ..WireConfig::default() };
    let mut wire = match WireServent::new(
        servent,
        listener,
        args.peers,
        &args.neighbors,
        wire_cfg,
        catalog,
        args.query_rate_qpm,
        // Distinct RNG stream per process: jitter never synchronizes.
        args.seed ^ ((args.id as u64) << 32),
    ) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("ddp-servent: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut resume_error = String::new();
    if let Some(dir) = &args.resume_dir {
        let context = config_fingerprint(
            args.id,
            &role_fingerprint_name(args.role),
            args.minutes,
            args.seed,
            args.query_rate_qpm,
            args.catalog_size,
            args.items_per_peer,
            &args.neighbors,
        );
        wire.set_checkpointing(CheckpointSpec {
            dir: std::path::PathBuf::from(dir),
            every_ticks: args.checkpoint_every,
            context,
        });
        match wire.try_resume() {
            Ok(Some(tick)) => eprintln!(
                "ddp-servent: servent {} resumed at tick {tick} (generation {})",
                args.id,
                wire.generation()
            ),
            Ok(None) => eprintln!("ddp-servent: servent {}: no checkpoint, cold start", args.id),
            Err(e) => {
                resume_error = e.kind().to_string();
                eprintln!(
                    "ddp-servent: servent {}: checkpoint rejected ({e}); cold start",
                    args.id
                );
            }
        }
    }
    let report = wire.run(args.minutes);

    let s = &wire.servent;
    let summary = WireSummary {
        id: args.id,
        role: match args.role {
            ServentRole::Good => "good".into(),
            ServentRole::FloodingAgent { .. } => "agent".into(),
        },
        protocol_secs: report.protocol_secs,
        issued: report.issued,
        resolved: s.hits.len() as u64,
        conn: report.conn,
        cuts: s.cut_log.iter().map(|&(t, p)| (t, p.0)).collect(),
        verdicts: s.verdict_log.iter().map(|&(t, p, g, si, b)| (t, p.0, g, si, b)).collect(),
        neighbors_final: s.neighbors().iter().map(|p| p.0).collect(),
        generation: report.generation,
        resume_error,
    };
    if let Some(path) = &args.out {
        if let Err(e) = summary.write_file(std::path::Path::new(path)) {
            eprintln!("ddp-servent: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        print!("{}", summary.to_text());
    }
    ExitCode::SUCCESS
}
