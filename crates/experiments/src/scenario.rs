//! High-level scenario builder: topology + workload + attack + defense in
//! one declarative value, runnable with one call.

use ddp_attack::{AttackPlan, CheatStrategy};
use ddp_metrics::recovery::{recovery_time, RecoveryThresholds};
use ddp_metrics::summary::{RunSeries, RunSummary};
use ddp_metrics::{damage_rate, TimeSeries};
use ddp_police::{DdPolice, DdPoliceConfig, NaiveRateLimit};
use ddp_sim::{
    CutRecord, Defense, FaultConfig, ForwardingPolicy, ListBehavior, NoDefense, SimConfig,
    Simulation,
};
use ddp_topology::{TopologyConfig, TopologyModel};
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
    /// DD-POLICE with the paper's defaults and the given cut threshold.
    DdPolice { cut_threshold: f64 },
    /// DD-POLICE with a fully custom configuration.
    DdPoliceFull(DdPoliceConfig),
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
            DefenseKind::DdPolice { cut_threshold } => format!("dd-police(CT={cut_threshold})"),
            DefenseKind::DdPoliceFull(c) => format!("dd-police(CT={})", c.cut_threshold),
            DefenseKind::FairShare => "fair-share".into(),
        }
    }
}

/// A fully specified experiment run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Engine configuration.
    pub sim: SimConfig,
    /// Deployed defense.
    pub defense: DefenseKind,
    /// Number of DDoS agents.
    pub agents: usize,
    /// How agents answer report requests (§3.4).
    pub cheat: CheatStrategy,
    /// How agents answer the neighbor-list exchange (§3.1).
    pub lists: ListBehavior,
    /// Simulated minutes.
    pub ticks: usize,
    /// Master seed (all randomness derives from it).
    pub seed: u64,
    /// Crash-safe checkpointing of the runs (`None` = off).
    pub checkpoint: Option<Checkpoint>,
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
    /// Start building a scenario from the paper's defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Instantiate the fully wired simulation at tick 0 — the exact engine
    /// `run` executes, exposed so checkpoint/resume can rebuild an identical
    /// starting state before fast-forwarding from a snapshot.
    pub fn build_sim(&self) -> Simulation<Box<dyn Defense>> {
        let n = self.sim.peers();
        self.build_sim_with(match &self.defense {
            DefenseKind::None | DefenseKind::FairShare => Box::new(NoDefense) as Box<dyn Defense>,
            DefenseKind::NaiveRateLimit { threshold_qpm } => {
                Box::new(NaiveRateLimit::new(*threshold_qpm))
            }
            DefenseKind::DdPolice { cut_threshold } => {
                Box::new(DdPolice::new(DdPoliceConfig::with_cut_threshold(*cut_threshold), n))
            }
            DefenseKind::DdPoliceFull(cfg) => Box::new(DdPolice::new(*cfg, n)),
        })
    }

    /// [`Scenario::build_sim`] around a defense the caller built, keeping its
    /// concrete type (the bench runners read `DdPolice`'s phase timers and
    /// sketch monitor off the finished run). The one place a simulation is
    /// constructed and agents are placed: the same `(seed, peers, agents)`
    /// puts the same agents on the same peers in every runner.
    pub fn build_sim_with<D: Defense>(&self, defense: D) -> Simulation<D> {
        let mut sim_cfg = self.sim.clone();
        if self.defense == DefenseKind::FairShare {
            sim_cfg.forwarding = ForwardingPolicy::FairShare;
        }
        let mut sim = Simulation::new(sim_cfg, defense, self.seed);
        if self.agents > 0 {
            let plan = AttackPlan::new(self.agents).with_cheat(self.cheat);
            for a in plan.apply(&mut sim, &mut self.placement_rng()) {
                sim.set_list_behavior(a, self.lists);
            }
        }
        sim
    }

    /// The stream agents are placed from. A runner with an attack plan of
    /// its own (whitewashing) builds with zero agents and applies the plan
    /// on this stream, so its agents sit where the plain scenario's would.
    pub(crate) fn placement_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ 0xdd05_ee1f)
    }

    /// Run the scenario, checkpointing as [`Scenario::checkpoint`] says.
    pub fn run(&self) -> ScenarioReport {
        self.run_as("")
    }

    /// Run with `suffix` appended to the checkpoint file's name.
    fn run_as(&self, suffix: &str) -> ScenarioReport {
        let (file, every, resume) = match &self.checkpoint {
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
        let result = sim.finish();
        ScenarioReport {
            defense: self.defense.label(),
            summary: result.summary,
            series: result.series,
            cut_log: result.cut_log,
        }
    }

    /// Run the scenario *and* its paired no-attack baseline (same seed, same
    /// topology, no agents, no defense), yielding the damage-rate series
    /// `D(t) = (S(t) − S'(t)) / S(t)` of §3.7.2.
    pub fn run_with_damage(&self) -> DamageReport {
        let baseline =
            Scenario { defense: DefenseKind::None, agents: 0, ..self.clone() }.run_as("-baseline");
        let attacked = self.run_as("-defended");
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
pub(crate) fn damage_series(attacked: &[f64], baseline: &[f64]) -> TimeSeries {
    let mut damage = TimeSeries::new("damage_rate");
    for (t, &s1) in attacked.iter().enumerate() {
        damage.push(damage_rate(baseline.get(t).copied().unwrap_or(1.0), s1));
    }
    damage
}

/// Mean of a damage series over the stabilized last quarter of the run.
pub(crate) fn stable_damage(damage: &TimeSeries) -> f64 {
    damage.tail_mean((damage.len() / 4).max(1))
}

/// Builder for [`Scenario`]: the scenario so far, starting from the paper's
/// defaults.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder(Scenario);

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder(Scenario {
            sim: SimConfig::default(),
            defense: DefenseKind::None,
            agents: 0,
            cheat: CheatStrategy::Honest,
            lists: ListBehavior::Truthful,
            ticks: 30,
            seed: 42,
            checkpoint: None,
        })
    }
}

impl ScenarioBuilder {
    /// Overlay size, on the paper's flat Gnutella topology.
    pub fn peers(self, n: usize) -> Self {
        let flat = TopologyConfig { n, model: TopologyModel::BarabasiAlbert { m: 3 } };
        self.sim(|s| s.topology = flat)
    }

    /// Simulated minutes.
    pub fn ticks(mut self, t: usize) -> Self {
        self.0.ticks = t;
        self
    }

    /// Number of DDoS agents.
    pub fn attackers(mut self, k: usize) -> Self {
        self.0.agents = k;
        self
    }

    /// Agents' report-cheating strategy.
    pub fn cheat(mut self, c: CheatStrategy) -> Self {
        self.0.cheat = c;
        self
    }

    /// Agents' neighbor-list lying strategy.
    pub fn lists(mut self, l: ListBehavior) -> Self {
        self.0.lists = l;
        self
    }

    /// Deployed defense.
    pub fn defense(mut self, d: DefenseKind) -> Self {
        self.0.defense = d;
        self
    }

    /// Master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.0.seed = s;
        self
    }

    /// Enable/disable churn.
    pub fn churn(self, on: bool) -> Self {
        self.sim(|s| s.churn = on)
    }

    /// Control-plane fault injection (lossy/delayed protocol messages,
    /// crash-restarting peers).
    pub fn faults(self, f: FaultConfig) -> Self {
        self.sim(|s| s.faults = f)
    }

    /// Edit the engine config in place (whatever has no method of its own).
    pub fn sim(mut self, edit: impl FnOnce(&mut SimConfig)) -> Self {
        edit(&mut self.0.sim);
        self
    }

    /// Checkpoint the runs (see [`ExpOptions::checkpoint`]).
    pub fn checkpoint(mut self, c: Option<Checkpoint>) -> Self {
        self.0.checkpoint = c;
        self
    }

    /// Finalize.
    pub fn build(self) -> Scenario {
        self.0
    }
}

/// Result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Defense label.
    pub defense: String,
    /// Whole-run aggregates.
    pub summary: RunSummary,
    /// Per-tick series.
    pub series: RunSeries,
    /// Every defensive disconnection, in order (detection-latency analysis).
    pub cut_log: Vec<CutRecord>,
}

/// An attacked run paired with its no-attack baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DamageReport {
    pub attacked: ScenarioReport,
    pub baseline: ScenarioReport,
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

/// Common options every experiment runner takes.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Overlay size (default 2,000; `--paper-scale` selects 20,000).
    pub peers: usize,
    /// Simulated minutes per run.
    pub ticks: usize,
    /// Base seed; replicate seeds derive from it.
    pub seed: u64,
    /// Number of agents for fixed-attack experiments (paper: 100).
    pub agents: usize,
    /// Replicates averaged per configuration.
    pub replicates: usize,
    /// Where to write CSVs (none = stdout only).
    pub csv_dir: Option<PathBuf>,
    /// Reduced validation run. Runners with an expensive full grid (`scale`,
    /// `churn`, `fuzz`) read this directly; new runners inherit the flag
    /// with no per-runner plumbing.
    pub smoke: bool,
    /// Write a full engine checkpoint every N ticks (0 = off).
    pub checkpoint_every: usize,
    /// Where checkpoint files go (default: alongside the CSVs, or the
    /// current directory when no `--out` is given).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume interrupted runs from their checkpoints when present.
    pub resume: bool,
    /// Worker-pool width for the tick engine (1 = serial). The engine is
    /// byte-deterministic across widths, so this only changes wall clock.
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            peers: 2_000,
            ticks: 30,
            seed: 42,
            agents: 100,
            replicates: 1,
            csv_dir: None,
            smoke: false,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: false,
            threads: 1,
        }
    }
}

impl ExpOptions {
    /// Seed for replicate `r` of configuration index `c`.
    pub fn seed_for(&self, c: usize, r: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((c as u64) << 32)
            .wrapping_add(r as u64)
    }

    /// A scenario builder already carrying `peers`, `ticks` and `agents`, so
    /// a runner states only what its cell varies.
    pub fn scenario(&self) -> ScenarioBuilder {
        Scenario::builder().peers(self.peers).ticks(self.ticks).attackers(self.agents)
    }

    /// Mean over the replicates of the `fields` of what `run(replicate)`
    /// measures: each field is summed in replicate order and divided once;
    /// everything else in the result is the last replicate's. The cell picks
    /// its own seed pairing with [`ExpOptions::seed_for`]. `replicates` is at
    /// least 1 (the CLI rejects 0).
    pub fn mean_fields<T, const K: usize>(
        &self,
        mut run: impl FnMut(usize) -> T,
        fields: impl Fn(&mut T) -> [&mut f64; K],
    ) -> T {
        let mut sum = [0.0; K];
        let mut last = None;
        for r in 0..self.replicates {
            let one = last.insert(run(r));
            for (sum, x) in sum.iter_mut().zip(fields(one)) {
                *sum += *x;
            }
        }
        let mut mean = last.expect("at least one replicate");
        for (x, sum) in fields(&mut mean).into_iter().zip(sum) {
            *x = sum / self.replicates as f64;
        }
        mean
    }

    /// [`ExpOptions::mean_fields`] of a plain row of numbers.
    pub fn mean_over<const K: usize>(&self, run: impl FnMut(usize) -> [f64; K]) -> [f64; K] {
        self.mean_fields(run, <[f64; K]>::each_mut)
    }

    /// Checkpointing for a named unit of work as the command line asked for
    /// it, or `None` when it is off.
    pub fn checkpoint(&self, name: &str) -> Option<Checkpoint> {
        let stem = self.checkpoint_stem(name)?;
        Some(Checkpoint { stem, every: self.checkpoint_every, resume: self.resume })
    }

    /// Checkpoint stem (directory + basename, no extension) for a named unit
    /// of work, or `None` when checkpointing is off. The directory defaults
    /// to the CSV output directory, then the current directory.
    pub fn checkpoint_stem(&self, name: &str) -> Option<PathBuf> {
        if self.checkpoint_every == 0 {
            return None;
        }
        let dir = self
            .checkpoint_dir
            .clone()
            .or_else(|| self.csv_dir.clone())
            .unwrap_or_else(|| PathBuf::from("."));
        Some(dir.join(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_requested_scenario() {
        let s = Scenario::builder()
            .peers(500)
            .ticks(10)
            .attackers(7)
            .defense(DefenseKind::DdPolice { cut_threshold: 5.0 })
            .seed(1)
            .build();
        assert_eq!(s.sim.peers(), 500);
        assert_eq!(s.agents, 7);
        assert_eq!(s.ticks, 10);
        assert_eq!(s.defense.label(), "dd-police(CT=5)");
    }

    #[test]
    fn small_scenario_runs_end_to_end() {
        let report = Scenario::builder()
            .peers(200)
            .ticks(5)
            .attackers(3)
            .defense(DefenseKind::DdPolice { cut_threshold: 5.0 })
            .churn(false)
            .build()
            .run();
        assert_eq!(report.summary.ticks, 5);
        assert!(report.summary.attackers_cut > 0);
    }

    #[test]
    fn damage_report_pairs_baseline_and_attack() {
        let dr = Scenario::builder()
            .peers(200)
            .ticks(6)
            .attackers(10)
            .defense(DefenseKind::None)
            .churn(false)
            .build()
            .run_with_damage();
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
        // Smoke: runs and labels correctly.
        let report = Scenario::builder()
            .peers(200)
            .ticks(3)
            .attackers(5)
            .defense(DefenseKind::FairShare)
            .churn(false)
            .build()
            .run();
        assert_eq!(report.defense, "fair-share");
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let mk = || {
            Scenario::builder()
                .peers(200)
                .ticks(4)
                .attackers(5)
                .defense(DefenseKind::DdPolice { cut_threshold: 5.0 })
                .seed(77)
                .build()
                .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.series.success_rate, b.series.success_rate);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn replicate_seeds_differ() {
        let o = ExpOptions::default();
        assert_ne!(o.seed_for(0, 0), o.seed_for(0, 1));
        assert_ne!(o.seed_for(0, 0), o.seed_for(1, 0));
    }

    #[test]
    fn checkpoint_stem_resolution() {
        let mut o = ExpOptions::default();
        assert_eq!(o.checkpoint_stem("ct5_r0"), None, "off by default");
        o.checkpoint_every = 3;
        assert_eq!(o.checkpoint_stem("x"), Some(PathBuf::from("./x")));
        o.csv_dir = Some(PathBuf::from("out"));
        assert_eq!(o.checkpoint_stem("x"), Some(PathBuf::from("out/x")));
        o.checkpoint_dir = Some(PathBuf::from("ckpt"));
        assert_eq!(o.checkpoint_stem("x"), Some(PathBuf::from("ckpt/x")));
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ddp-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The scenario the checkpoint tests run, keeping `dir/<name>*.snap`.
    fn checkpointable_scenario(stem: PathBuf, every: usize, resume: bool) -> Scenario {
        Scenario::builder()
            .peers(200)
            .ticks(8)
            .attackers(5)
            .defense(DefenseKind::DdPolice { cut_threshold: 5.0 })
            .seed(11)
            .checkpoint(Some(Checkpoint { stem, every, resume }))
            .build()
    }

    fn plain(s: &Scenario) -> Scenario {
        Scenario { checkpoint: None, ..s.clone() }
    }

    #[test]
    fn checkpointed_run_is_bit_identical_to_plain_run() {
        let dir = scratch_dir("plain");
        let s = checkpointable_scenario(dir.join("run"), 3, false);
        assert_eq!(plain(&s).run(), s.run());
        assert!(dir.join("run.snap").exists(), "periodic checkpoint must have been written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_mid_run_checkpoint_matches_uninterrupted_run() {
        let dir = scratch_dir("resume");
        let s = checkpointable_scenario(dir.join("run"), 3, true);
        // Simulate a crash: run only to tick 5, leaving the tick-3 checkpoint.
        let mut partial = s.build_sim();
        while (partial.tick() as usize) < 5 {
            partial.step();
            if partial.tick() == 3 {
                partial.write_snapshot_file(&dir.join("run.snap")).unwrap();
            }
        }
        drop(partial);
        let resumed = s.run();
        assert_eq!(
            plain(&s).run(),
            resumed,
            "resume must reproduce the uninterrupted run bit-for-bit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_full_rerun() {
        let dir = scratch_dir("corrupt");
        let s = checkpointable_scenario(dir.join("run"), 0, true);
        std::fs::write(dir.join("run.snap"), b"not a snapshot").unwrap();
        assert_eq!(plain(&s).run(), s.run(), "a corrupt checkpoint must not change the numbers");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_damage_pair_matches_plain_pair() {
        let dir = scratch_dir("damage");
        let s = checkpointable_scenario(dir.join("pair"), 4, false);
        assert_eq!(plain(&s).run_with_damage(), s.run_with_damage());
        assert!(dir.join("pair-defended.snap").exists());
        assert!(dir.join("pair-baseline.snap").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mean_over_sums_in_replicate_order_and_divides_once() {
        let o = ExpOptions { replicates: 3, ..ExpOptions::default() };
        let mut seen = Vec::new();
        let [a, b] = o.mean_over(|r| {
            seen.push(r);
            [0.1 * (r + 1) as f64, 1.0]
        });
        assert_eq!(seen, [0, 1, 2]);
        assert_eq!(a.to_bits(), ((0.0 + 0.1 + 0.2 + 0.1 * 3.0) / 3.0f64).to_bits());
        assert_eq!(b, 1.0);
    }
}
