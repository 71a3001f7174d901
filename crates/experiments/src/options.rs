//! The options every runner takes from the command line, and the
//! [`Scenario`] they describe.

use ddp_attack::AttackPlan;
use ddp_oracle::{Attack, Checkpoint, Scenario};
use ddp_sim::SimConfig;
use ddp_topology::TopologyConfig;
use std::path::PathBuf;

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

    /// `peers` on the paper's flat topology, `ticks` minutes and `agents`
    /// honest flooding agents: a runner writes `Scenario { .., ..opts.scenario() }`
    /// with only what its cell varies.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            sim: SimConfig {
                topology: TopologyConfig { n: self.peers, ..TopologyConfig::default() },
                ..SimConfig::default()
            },
            attack: Attack::Flood(AttackPlan::new(self.agents)),
            ticks: self.ticks,
            ..Scenario::default()
        }
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
    /// it, or `None` when it is off. The stem's directory defaults to the
    /// CSV output directory, then the current directory.
    pub fn checkpoint(&self, name: &str) -> Option<Checkpoint> {
        if self.checkpoint_every == 0 {
            return None;
        }
        let dir = self.checkpoint_dir.as_ref().or(self.csv_dir.as_ref());
        Some(Checkpoint {
            stem: dir.map_or_else(|| PathBuf::from("."), PathBuf::clone).join(name),
            every: self.checkpoint_every,
            resume: self.resume,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_seeds_differ() {
        let o = ExpOptions::default();
        assert_ne!(o.seed_for(0, 0), o.seed_for(0, 1));
        assert_ne!(o.seed_for(0, 0), o.seed_for(1, 0));
    }

    #[test]
    fn checkpoint_stem_resolution() {
        let mut o = ExpOptions::default();
        assert_eq!(o.checkpoint("ct5_r0"), None, "off by default");
        o.checkpoint_every = 3;
        let stem = |o: &ExpOptions| o.checkpoint("x").map(|c| c.stem);
        assert_eq!(stem(&o), Some(PathBuf::from("./x")));
        o.csv_dir = Some(PathBuf::from("out"));
        assert_eq!(stem(&o), Some(PathBuf::from("out/x")));
        o.checkpoint_dir = Some(PathBuf::from("ckpt"));
        assert_eq!(stem(&o), Some(PathBuf::from("ckpt/x")));
        o.resume = true;
        let ckpt = Checkpoint { stem: PathBuf::from("ckpt/x"), every: 3, resume: true };
        assert_eq!(o.checkpoint("x"), Some(ckpt));
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
