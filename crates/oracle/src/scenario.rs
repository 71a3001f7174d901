//! [`Scenario`] — the one description of a simulation run: engine config,
//! defense, attack plan, list lying, length and seed.
//!
//! Every table of `ddp-experiments` and every fuzz and lockstep twin is built
//! by [`Scenario::build_sim_with`], the only place a simulation is constructed
//! and an attack plan applied. The same `(seed, peers, attack)` therefore puts
//! the same agents on the same peers in every runner and in both twins.

use ddp_attack::{AttackPlan, CollusionPlan, WhitewashPlan};
use ddp_metrics::recovery::{recovery_time, RecoveryThresholds};
use ddp_metrics::{damage_rate, TimeSeries};
use ddp_police::{DdPolice, DdPoliceConfig, NaiveRateLimit};
use ddp_sim::{
    Defense, ForwardingPolicy, ListBehavior, NoDefense, RunResult, SimConfig, Simulation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Which defense a scenario deploys.
#[derive(Debug, Clone, PartialEq)]
pub enum DefenseKind {
    /// Plain Gnutella, no protection.
    None,
    /// Local-only rate limiting (the Figure 1 strawman).
    NaiveRateLimit { threshold_qpm: u32 },
    /// DD-POLICE with the given configuration
    /// ([`DdPoliceConfig::with_cut_threshold`] for the paper's defaults).
    DdPolice(DdPoliceConfig),
    /// No detector, but fair per-link capacity sharing at saturated peers
    /// (the Daswani & Garcia-Molina-style survival baseline, paper's \[21\]).
    FairShare,
}

impl DefenseKind {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            DefenseKind::None => "none".into(),
            DefenseKind::NaiveRateLimit { .. } => "naive-limit".into(),
            DefenseKind::DdPolice(c) => format!("dd-police(CT={})", c.cut_threshold),
            DefenseKind::FairShare => "fair-share".into(),
        }
    }
}

/// The attack a scenario mounts: one of `ddp_attack`'s plans.
#[derive(Debug, Clone, PartialEq)]
pub enum Attack {
    /// No agents.
    None,
    /// Random flooding agents (§3.6).
    Flood(AttackPlan),
    /// Flooding agents that rejoin under a fresh identity once isolated.
    Whitewash(WhitewashPlan),
    /// A coordinated report-cheating coalition.
    Collusion(CollusionPlan),
}

/// A fully specified run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Engine configuration.
    pub sim: SimConfig,
    /// Deployed defense.
    pub defense: DefenseKind,
    /// Who attacks, and how.
    pub attack: Attack,
    /// How agents answer the neighbor-list exchange (§3.1).
    pub lists: ListBehavior,
    /// Simulated minutes.
    pub ticks: usize,
    /// Master seed (all randomness derives from it).
    pub seed: u64,
}

impl Default for Scenario {
    /// The paper's defaults: 2,000 peers, no defense, no agents, 30 minutes.
    fn default() -> Self {
        Scenario {
            sim: SimConfig::default(),
            defense: DefenseKind::None,
            attack: Attack::None,
            lists: ListBehavior::Truthful,
            ticks: 30,
            seed: 42,
        }
    }
}

/// Crash-safe checkpointing of a scenario's runs. Outputs are bit-identical
/// with and without it: resuming replays the exact state an uninterrupted run
/// would hold at the checkpoint tick, and a missing/corrupt/foreign
/// checkpoint simply degrades to a full rerun from tick 0 (with a warning — a
/// campaign must never die, or produce different numbers, because a
/// checkpoint file did). Checkpoint *write* failures likewise warn and
/// continue.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Directory + basename, no extension: [`Scenario::run`] keeps
    /// `<stem>.snap`, [`Scenario::run_with_damage`] `<stem>-defended.snap`
    /// for the attacked run and `<stem>-baseline.snap` for its twin.
    pub stem: PathBuf,
    /// Atomically write the full engine state every this many ticks (0 =
    /// never).
    pub every: usize,
    /// Fast-forward from a valid checkpoint when one is present.
    pub resume: bool,
}

impl Checkpoint {
    fn file(&self, suffix: &str) -> PathBuf {
        let mut name = self.stem.file_name().map(|s| s.to_os_string()).unwrap_or_default();
        name.push(suffix);
        name.push(".snap");
        self.stem.with_file_name(name)
    }
}

impl Scenario {
    /// The fully wired simulation at tick 0 — the exact engine `run`
    /// executes, exposed so checkpoint/resume can rebuild an identical
    /// starting state before fast-forwarding from a snapshot.
    pub fn build_sim(&self) -> Simulation<Box<dyn Defense>> {
        self.build_sim_with(match self.defense {
            DefenseKind::None | DefenseKind::FairShare => Box::new(NoDefense) as Box<dyn Defense>,
            DefenseKind::NaiveRateLimit { threshold_qpm } => {
                Box::new(NaiveRateLimit::new(threshold_qpm))
            }
            DefenseKind::DdPolice(cfg) => Box::new(DdPolice::new(cfg, self.sim.peers())),
        })
    }

    /// [`Scenario::build_sim`] keeping DD-POLICE's concrete type (the
    /// lockstep twins and the bench runners read its traces, phase timers and
    /// monitor). Panics unless the scenario deploys DD-POLICE.
    pub fn build_police(&self) -> Simulation<DdPolice> {
        let DefenseKind::DdPolice(cfg) = self.defense else {
            panic!("{} is not DD-POLICE", self.defense.label());
        };
        self.build_sim_with(DdPolice::new(cfg, self.sim.peers()))
    }

    /// [`Scenario::build_sim`] around a defense the caller built (the
    /// oracle twin, or a plan the caller applies on a stream of its own):
    /// the one place a simulation is constructed and an attack applied.
    /// Agents — plain and whitewashing alike — are placed from the seed's
    /// placement stream, a coalition from its collusion stream.
    pub fn build_sim_with<D: Defense>(&self, defense: D) -> Simulation<D> {
        let mut cfg = self.sim.clone();
        if self.defense == DefenseKind::FairShare {
            cfg.forwarding = ForwardingPolicy::FairShare;
        }
        let mut sim = Simulation::new(cfg, defense, self.seed);
        let placement = || StdRng::seed_from_u64(self.seed ^ 0xdd05_ee1f);
        let agents = match &self.attack {
            Attack::None => Vec::new(),
            Attack::Flood(plan) => plan.apply(&mut sim, &mut placement()),
            Attack::Whitewash(plan) => plan.apply(&mut sim, &mut placement()),
            Attack::Collusion(plan) => {
                let mut stream = StdRng::seed_from_u64(self.seed ^ 0xc011_0de5);
                plan.apply(&mut sim, &mut stream).colluders
            }
        };
        if self.lists != ListBehavior::Truthful {
            for a in agents {
                sim.set_list_behavior(a, self.lists);
            }
        }
        sim
    }

    /// Run the scenario, checkpointing as `checkpoint` says.
    pub fn run(&self, checkpoint: Option<&Checkpoint>) -> RunResult {
        self.run_as(checkpoint, "")
    }

    /// Run with `suffix` appended to the checkpoint file's name.
    fn run_as(&self, checkpoint: Option<&Checkpoint>, suffix: &str) -> RunResult {
        let (file, every, resume) = match checkpoint {
            Some(c) => (c.file(suffix), c.every, c.resume),
            None => (PathBuf::new(), 0, false),
        };
        let mut sim = self.build_sim();
        if resume && file.exists() {
            match sim.resume_from_file(&file) {
                Ok(()) => {
                    eprintln!("[checkpoint] resumed {} at tick {}", file.display(), sim.tick())
                }
                Err(e) => {
                    eprintln!(
                        "[checkpoint] ignoring {} (rerunning from tick 0): {e}",
                        file.display()
                    );
                    sim = self.build_sim();
                }
            }
        }
        while (sim.tick() as usize) < self.ticks {
            sim.step();
            let t = sim.tick() as usize;
            if every > 0 && t.is_multiple_of(every) && t < self.ticks {
                if let Err(e) = sim.write_snapshot_file(&file) {
                    eprintln!("[checkpoint] could not write {} at tick {t}: {e}", file.display());
                }
            }
        }
        sim.finish()
    }

    /// Run the scenario *and* its paired no-attack baseline (same seed, same
    /// topology, no agents, no defense), yielding the damage-rate series
    /// `D(t) = (S(t) − S'(t)) / S(t)` of §3.7.2.
    pub fn run_with_damage(&self, checkpoint: Option<&Checkpoint>) -> DamageReport {
        let baseline =
            Scenario { defense: DefenseKind::None, attack: Attack::None, ..self.clone() }
                .run_as(checkpoint, "-baseline");
        let attacked = self.run_as(checkpoint, "-defended");
        let damage = damage_series(
            &attacked.series.success_rate.values,
            &baseline.series.success_rate.values,
        );
        let recovery = recovery_time(&damage, RecoveryThresholds::default());
        DamageReport { attacked, baseline, damage, recovery_ticks: recovery }
    }
}

/// `D(t)` per tick of an attacked run's success-rate series against its
/// baseline's (a tick the baseline lacks counts as full success).
pub fn damage_series(attacked: &[f64], baseline: &[f64]) -> TimeSeries {
    let mut damage = TimeSeries::new("damage_rate");
    for (t, &s1) in attacked.iter().enumerate() {
        damage.push(damage_rate(baseline.get(t).copied().unwrap_or(1.0), s1));
    }
    damage
}

/// Mean of a damage series over the stabilized last quarter of the run.
pub fn stable_damage(damage: &TimeSeries) -> f64 {
    damage.tail_mean((damage.len() / 4).max(1))
}

/// An attacked run paired with its no-attack baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DamageReport {
    pub attacked: RunResult,
    pub baseline: RunResult,
    /// `D(t)` per tick.
    pub damage: TimeSeries,
    /// §3.7.2 damage recovery time (ticks), if an episode occurred and
    /// completed.
    pub recovery_ticks: Option<usize>,
}

impl DamageReport {
    /// Mean damage over the stabilized last quarter of the run.
    pub fn stable_damage(&self) -> f64 {
        stable_damage(&self.damage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_topology::TopologyConfig;

    /// `agents` honest flooders against `defense` on a 200-peer overlay.
    fn small(agents: usize, defense: DefenseKind, ticks: usize, churn: bool) -> Scenario {
        Scenario {
            sim: SimConfig {
                topology: TopologyConfig { n: 200, ..TopologyConfig::default() },
                churn,
                ..SimConfig::default()
            },
            defense,
            attack: Attack::Flood(AttackPlan::new(agents)),
            ticks,
            ..Scenario::default()
        }
    }

    fn police() -> DefenseKind {
        DefenseKind::DdPolice(DdPoliceConfig::with_cut_threshold(5.0))
    }

    #[test]
    fn labels_name_the_defense() {
        assert_eq!(police().label(), "dd-police(CT=5)");
        assert_eq!(DefenseKind::DdPolice(DdPoliceConfig::default()).label(), "dd-police(CT=5)");
        assert_eq!(DefenseKind::NaiveRateLimit { threshold_qpm: 9 }.label(), "naive-limit");
    }

    #[test]
    fn small_scenario_runs_end_to_end() {
        let report = small(3, police(), 5, false).run(None);
        assert_eq!(report.summary.ticks, 5);
        assert!(report.summary.attackers_cut > 0);
    }

    #[test]
    fn damage_report_pairs_baseline_and_attack() {
        let dr = small(10, DefenseKind::None, 6, false).run_with_damage(None);
        assert_eq!(dr.damage.len(), 6);
        assert!(
            dr.stable_damage() > 0.3,
            "10 undefended agents on 200 peers must hurt: {}",
            dr.stable_damage()
        );
        assert!(dr.baseline.summary.success_rate_mean > dr.attacked.summary.success_rate_mean);
    }

    #[test]
    fn fair_share_scenario_uses_fair_forwarding() {
        let scenario = small(5, DefenseKind::FairShare, 3, false);
        assert_eq!(scenario.build_sim().config().forwarding, ForwardingPolicy::FairShare);
        assert_eq!(scenario.defense.label(), "fair-share");
        assert_eq!(scenario.run(None).summary.ticks, 3);
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let mk = || Scenario { seed: 77, ..small(5, police(), 4, true) }.run(None);
        let (a, b) = (mk(), mk());
        assert_eq!(a.series.success_rate, b.series.success_rate);
        assert_eq!(a.summary, b.summary);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ddp-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The scenario the checkpoint tests run, keeping `dir/<name>*.snap`.
    fn checkpointable() -> Scenario {
        Scenario { seed: 11, ..small(5, police(), 8, true) }
    }

    #[test]
    fn checkpointed_run_is_bit_identical_to_plain_run() {
        let dir = scratch_dir("plain");
        let s = checkpointable();
        let every_3 = Checkpoint { stem: dir.join("run"), every: 3, resume: false };
        assert_eq!(s.run(None), s.run(Some(&every_3)));
        assert!(dir.join("run.snap").exists(), "periodic checkpoint must have been written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_mid_run_checkpoint_matches_uninterrupted_run() {
        let dir = scratch_dir("resume");
        let s = checkpointable();
        // Simulate a crash: run only to tick 5, leaving the tick-3 checkpoint.
        let mut partial = s.build_sim();
        while (partial.tick() as usize) < 5 {
            partial.step();
            if partial.tick() == 3 {
                partial.write_snapshot_file(&dir.join("run.snap")).unwrap();
            }
        }
        drop(partial);
        let resumed = s.run(Some(&Checkpoint { stem: dir.join("run"), every: 3, resume: true }));
        assert_eq!(s.run(None), resumed, "resume must reproduce the uninterrupted run bit-for-bit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_full_rerun() {
        let dir = scratch_dir("corrupt");
        let s = checkpointable();
        std::fs::write(dir.join("run.snap"), b"not a snapshot").unwrap();
        let resume = Checkpoint { stem: dir.join("run"), every: 0, resume: true };
        assert_eq!(
            s.run(None),
            s.run(Some(&resume)),
            "a corrupt checkpoint must not change the numbers"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_damage_pair_matches_plain_pair() {
        let dir = scratch_dir("damage");
        let s = checkpointable();
        let every_4 = Checkpoint { stem: dir.join("pair"), every: 4, resume: false };
        assert_eq!(s.run_with_damage(None), s.run_with_damage(Some(&every_4)));
        assert!(dir.join("pair-defended.snap").exists());
        assert!(dir.join("pair-baseline.snap").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
