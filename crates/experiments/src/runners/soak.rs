//! Chaos soak: crash-recovery continuity on the wire.
//!
//! Three phases over the same topology and attack:
//!
//! 1. **wire-baseline** — an undisturbed mesh of real `ddp-servent`
//!    processes; its first-cut time anchors the continuity bound.
//! 2. **wire-soak** — the same mesh with checkpointing on, soaked under a
//!    seeded [`ChaosSchedule`] (a spare servent SIGKILL'd and restarted,
//!    proxied edges severed/stalled and healed), and the decisive fault:
//!    the victim — the attacker's buddy that cut it — is SIGKILL'd *after*
//!    the cut and restarted from its checkpoint. Detection must survive the
//!    crash: the resumed victim still has the attacker cut (at its original
//!    pre-crash time — restored state, not re-detection) and never
//!    readmits it.
//! 3. **corrupt-resume** — a servent pointed at a bit-flipped checkpoint
//!    must degrade to a logged cold start (`resume_error` names the
//!    [`SnapshotError`](ddp_snapshot::SnapshotError) variant), not panic.
//!
//! Needs the `ddp-servent` binary (same profile, or `DDP_SERVENT_BIN`).

use super::testbed::{wire_setup, WireSetup, ATTACKER, ATTACK_QPM};
use crate::output::Table;
use crate::scenario::ExpOptions;
use ddp_servent::wire::WireSummary;
use ddp_testbed::{locate_servent_bin, ChaosPlan, ChaosSchedule, WireMesh};
use std::path::Path;
use std::time::{Duration, Instant};

/// Protocol second the victim is killed at. Detection needs two report
/// rounds (~t=110); killing well after that guarantees the cut is in the
/// victim's checkpoint history when it dies.
const KILL_TICK: u64 = 150;
/// Continuity bound: first cut under chaos may not drift further than this
/// from the chaos-free run (protocol seconds).
const MAX_CUT_DELTA_S: u64 = 60;

struct SoakRow {
    phase: &'static str,
    first_cut_s: Option<u64>,
    cut_delta_s: Option<i64>,
    victim_generation: Option<u32>,
    victim_cut_intact: &'static str,
    resume_error: String,
    completed: String,
    wall_s: f64,
}

/// Launch one standalone servent against a deliberately corrupted
/// checkpoint and report how it degraded. `src_snap` is a real checkpoint
/// from the soak mesh; one payload byte is flipped before the servent sees
/// it.
fn corrupt_resume(
    id: u32,
    src_snap: &Path,
    out_dir: &Path,
    seed: u64,
) -> Result<(WireSummary, f64), String> {
    let ckpt_dir = out_dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir)
        .map_err(|e| format!("create {}: {e}", ckpt_dir.display()))?;
    let mut bytes =
        std::fs::read(src_snap).map_err(|e| format!("read {}: {e}", src_snap.display()))?;
    if bytes.len() < 16 {
        return Err(format!("checkpoint {} is implausibly small", src_snap.display()));
    }
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40; // one flipped bit, deep in the payload
    let snap = ckpt_dir.join(format!("s{id}.snap"));
    std::fs::write(&snap, &bytes).map_err(|e| format!("write {}: {e}", snap.display()))?;

    let bin = locate_servent_bin().map_err(|e| e.to_string())?;
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("reserve port: {e}"))?;
    let summary_path = out_dir.join("summary");
    let stderr_path = out_dir.join("stderr");
    let started = Instant::now();
    let mut child = std::process::Command::new(&bin)
        .args([
            "--id",
            &id.to_string(),
            "--listen",
            &addr.to_string(),
            "--peers",
            &format!("{id}={addr}"),
            "--neighbors",
            "",
            "--role",
            "good",
            "--minutes",
            "0",
            "--tick-ms",
            "10",
            "--seed",
            &seed.to_string(),
            "--checkpoint-every",
            "0",
        ])
        .arg("--resume-dir")
        .arg(&ckpt_dir)
        .arg("--out")
        .arg(&summary_path)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(
            std::fs::File::create(&stderr_path)
                .map_err(|e| format!("create {}: {e}", stderr_path.display()))?,
        )
        .spawn()
        .map_err(|e| format!("spawn corrupt-resume servent: {e}"))?;

    // Bounded reap: a panic-free degrade is the whole point, but a hang must
    // fail the soak, not wedge it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("corrupt-resume servent hung past 30s".into());
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if !status.success() {
        return Err(format!("corrupt-resume servent exited with {status} (not a clean degrade)"));
    }
    let summary = WireSummary::read_file(&summary_path).map_err(|e| e.to_string())?;
    Ok((summary, started.elapsed().as_secs_f64()))
}

/// Crash-recovery soak table. `Err` carries a human-readable reason
/// (typically: the `ddp-servent` binary is not built, or a continuity
/// assertion failed).
pub fn soak(opts: &ExpOptions) -> Result<Table, String> {
    let (n, minutes, tick_ms, ckpt_every) =
        if opts.smoke { (10usize, 3u64, 30u64, 20u64) } else { (16, 4, 40, 25) };
    let attacker = ATTACKER;
    // The victim will cut the attacker, and then gets killed for knowing too
    // much; the calm edge takes the sever/stall disturbances.
    let out_base = std::env::temp_dir().join(format!("ddp-soak-{}", std::process::id()));
    let WireSetup { graph, spec: base_spec, victim, calm_edge: disturbed } =
        wire_setup(n, minutes, tick_ms, opts.seed, out_base.join("baseline"))?;
    // A spare good servent (not the victim, not touching the attacker or the
    // disturbed edge) for an extra kill+restart cycle, when one exists.
    let attacker_adj: Vec<u32> = graph.neighbors(attacker).iter().map(|h| h.peer.0).collect();
    let spare = (0..n as u32).find(|&id| {
        id != attacker.0
            && id != victim
            && !attacker_adj.contains(&id)
            && id != disturbed.0
            && id != disturbed.1
    });

    // Phase 1: chaos-free anchor.
    let mesh = WireMesh::launch(base_spec.clone()).map_err(|e| format!("launch baseline: {e}"))?;
    let baseline = mesh.collect();
    if !baseline.hung.is_empty() {
        return Err(format!("baseline mesh hung: servents {:?}", baseline.hung));
    }
    let base_cut = baseline
        .first_cut_of(attacker.0)
        .ok_or("baseline: attacker was never cut — nothing to measure continuity against")?;
    let mut rows = vec![SoakRow {
        phase: "wire-baseline",
        first_cut_s: Some(base_cut),
        cut_delta_s: None,
        victim_generation: baseline.summaries.get(&victim).map(|s| s.generation),
        victim_cut_intact: "-",
        resume_error: String::new(),
        completed: format!("{}/{n}", baseline.summaries.len()),
        wall_s: baseline.wall.as_secs_f64(),
    }];

    // Phase 2: the soak. Checkpointing on, seeded chaos in the window
    // before the decisive kill, then kill-after-cut and supervised restart.
    let mut soak_spec = base_spec;
    soak_spec.proxied_edges = vec![disturbed];
    soak_spec.out_dir = out_base.join("soak");
    soak_spec.checkpoint_every = Some(ckpt_every);
    let soak_dir = soak_spec.out_dir.clone();
    let mut mesh = WireMesh::launch(soak_spec).map_err(|e| format!("launch soak mesh: {e}"))?;

    // Protocol second t lands at roughly grace(500ms) + t*tick_ms wall time.
    let kill_at = Duration::from_millis(700 + KILL_TICK * tick_ms);
    let plan = ChaosPlan {
        kill_targets: spare.into_iter().collect(),
        proxied_edges: vec![disturbed],
        budget: kill_at.saturating_sub(Duration::from_millis(500)),
        kill_cycles: 1,
        disturbances: 2,
    };
    let schedule = ChaosSchedule::generate(opts.seed, &plan);
    let soak_started = Instant::now();
    for line in schedule.run(&mut mesh) {
        eprintln!("[soak] {line}");
    }
    let elapsed = soak_started.elapsed();
    if kill_at > elapsed {
        std::thread::sleep(kill_at - elapsed);
    }
    mesh.kill(victim).map_err(|e| format!("SIGKILL victim {victim}: {e}"))?;
    std::thread::sleep(Duration::from_millis(15 * tick_ms));
    let incarnation = mesh.restart(victim).map_err(|e| format!("restart victim {victim}: {e}"))?;
    eprintln!("[soak] victim {victim} restarted as incarnation {incarnation}");
    let soak = mesh.collect();
    if !soak.hung.is_empty() {
        return Err(format!("soak mesh hung: servents {:?}", soak.hung));
    }

    let soak_cut = soak.first_cut_of(attacker.0).ok_or("soak: attacker was never cut")?;
    let delta = soak_cut as i64 - base_cut as i64;
    let victim_summary = soak
        .summaries
        .get(&victim)
        .ok_or_else(|| format!("soak: restarted victim {victim} wrote no summary"))?;
    let victim_cut_at =
        victim_summary.cuts.iter().find(|&&(_, who)| who == attacker.0).map(|&(t, _)| t);
    let cut_intact = victim_cut_at.is_some_and(|t| t <= KILL_TICK)
        && !victim_summary.neighbors_final.contains(&attacker.0);
    rows.push(SoakRow {
        phase: "wire-soak",
        first_cut_s: Some(soak_cut),
        cut_delta_s: Some(delta),
        victim_generation: Some(victim_summary.generation),
        victim_cut_intact: if cut_intact { "yes" } else { "NO" },
        resume_error: victim_summary.resume_error.clone(),
        completed: format!("{}/{n}", soak.summaries.len()),
        wall_s: soak.wall.as_secs_f64(),
    });

    // Phase 3: a bit-flipped checkpoint must degrade to a logged cold start.
    let victim_snap = soak_dir.join("ckpt").join(format!("s{victim}.snap"));
    let (corrupt_summary, corrupt_wall) =
        corrupt_resume(victim, &victim_snap, &out_base.join("corrupt"), opts.seed)?;
    rows.push(SoakRow {
        phase: "corrupt-resume",
        first_cut_s: None,
        cut_delta_s: None,
        victim_generation: Some(corrupt_summary.generation),
        victim_cut_intact: "-",
        resume_error: corrupt_summary.resume_error.clone(),
        completed: "1/1".into(),
        wall_s: corrupt_wall,
    });

    // Acceptance: detection continuity across the crash.
    if victim_summary.generation == 0 {
        return Err(format!(
            "victim {victim} reports generation 0 — it cold-started instead of resuming \
             (resume_error: {:?})",
            victim_summary.resume_error
        ));
    }
    if !victim_summary.resume_error.is_empty() {
        return Err(format!(
            "victim {victim} resumed but logged resume_error {:?}",
            victim_summary.resume_error
        ));
    }
    if !cut_intact {
        return Err(format!(
            "no readmission-from-amnesia violated: resumed victim {victim} does not carry its \
             pre-crash cut of attacker {} (cut at {victim_cut_at:?}, neighbors_final {:?})",
            attacker.0, victim_summary.neighbors_final
        ));
    }
    if !soak.isolated(attacker.0) {
        return Err("soak: attacker not isolated among survivors".into());
    }
    if delta.unsigned_abs() > MAX_CUT_DELTA_S {
        return Err(format!(
            "continuity bound violated: first cut drifted {delta}s under chaos \
             (baseline {base_cut}s, soak {soak_cut}s, bound ±{MAX_CUT_DELTA_S}s)"
        ));
    }
    if corrupt_summary.resume_error != "ChecksumMismatch" {
        return Err(format!(
            "corrupt checkpoint surfaced resume_error {:?}, expected \"ChecksumMismatch\"",
            corrupt_summary.resume_error
        ));
    }
    if corrupt_summary.generation != 0 {
        return Err(format!(
            "corrupt checkpoint yielded generation {} — a cold start must be generation 0",
            corrupt_summary.generation
        ));
    }

    let _ = std::fs::remove_dir_all(&out_base);
    Ok(Table::from_columns(
        "soak_continuity",
        format!(
            "Crash-recovery soak — n={n}, BA m=2, attacker {attacker} at {ATTACK_QPM} qpm, \
             {minutes} min, tick {tick_ms} ms, checkpoint every {ckpt_every}s \
             (victim {victim} SIGKILL'd @t~{KILL_TICK}s after cutting the attacker, then \
             restarted from its checkpoint; spare {spare:?} cycled; edge {disturbed:?} \
             disturbed; continuity bound ±{MAX_CUT_DELTA_S}s)"
        ),
        &rows,
        &[
            ("phase", |r| r.phase.to_string()),
            ("first_cut_s", |r| r.first_cut_s.map_or_else(|| "-".into(), |t| t.to_string())),
            ("cut_delta_s", |r| r.cut_delta_s.map_or_else(|| "-".into(), |d| d.to_string())),
            ("victim_gen", |r| r.victim_generation.map_or_else(|| "-".into(), |g| g.to_string())),
            ("victim_cut_intact", |r| r.victim_cut_intact.to_string()),
            ("resume_error", |r| {
                if r.resume_error.is_empty() {
                    "-".into()
                } else {
                    r.resume_error.clone()
                }
            }),
            ("completed", |r| r.completed.clone()),
            ("wall_s", |r| format!("{:.1}", r.wall_s)),
        ],
    ))
}
