//! Differential inertness: the optimized engine against golden digests.
//!
//! Every layout and scheduling optimization of the engine must be a pure
//! refactor — tick for tick, bit for bit. FNV-1a digests of whole
//! `RunResult`s (series, summary, cut log, verdict log), captured on the
//! engine before its CSR/dense hot-path refactor, are embedded as constants
//! for the baseline / faulty / collusion scenario families across five
//! seeds. The same families run in lockstep with the `ddp-oracle` model in
//! `oracle_differential.rs`, which catches an engine that drifts from the
//! paper; these digests catch an engine that drifts from itself.
//! Re-capture (only for an *intentional* behavior change) with:
//!
//! ```text
//! cargo test -p ddp-police --test differential_inertness \
//!     -- --ignored print_golden_digests --nocapture
//! ```

use ddp_police::{DdPolice, DdPoliceConfig};
use ddp_sim::{FaultConfig, ListBehavior, ReportBehavior, RunResult, SimConfig, Simulation};
use ddp_topology::{NodeId, TopologyConfig, TopologyModel};

// --- Scenario families ------------------------------------------------------

const N: usize = 300;
const SEEDS: [u64; 5] = [11, 42, 137, 2024, 77_777];

#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// Paper defaults under churn: honest attackers, reliable transport.
    Baseline,
    /// Lossy + delayed control plane, crash-restarts, mixed report cheats.
    Faulty,
    /// Colluding coalition (shielding + framing + padded lists) against a
    /// hardened config: clamped reports, 2-of-3 hysteresis, readmission on,
    /// radius-2 cross-verification.
    Collusion,
}

impl Scenario {
    const ALL: [Scenario; 3] = [Scenario::Baseline, Scenario::Faulty, Scenario::Collusion];

    fn name(self) -> &'static str {
        match self {
            Scenario::Baseline => "baseline",
            Scenario::Faulty => "faulty",
            Scenario::Collusion => "collusion",
        }
    }

    fn sim_config(self) -> SimConfig {
        let mut cfg = SimConfig {
            topology: TopologyConfig { n: N, model: TopologyModel::BarabasiAlbert { m: 3 } },
            ..SimConfig::default()
        };
        if matches!(self, Scenario::Faulty) {
            cfg.faults =
                FaultConfig { loss: 0.15, delay_prob: 0.3, delay_ticks: 1, crash_prob: 0.01 };
        }
        cfg
    }

    fn police_config(self) -> DdPoliceConfig {
        match self {
            Scenario::Baseline | Scenario::Faulty => DdPoliceConfig::default(),
            Scenario::Collusion => DdPoliceConfig {
                clamp_reports_to_link: true,
                radius: 2,
                hysteresis: ddp_police::Hysteresis { required: 2, window: 3 },
                readmission: ddp_police::ReadmissionPolicy {
                    enabled: true,
                    base_backoff_ticks: 2,
                    max_backoff_ticks: 8,
                    probation_ticks: 2,
                },
                ..DdPoliceConfig::default()
            },
        }
    }

    /// Attacker placement is a pure function of the scenario, so every run
    /// of it sees the exact same cast.
    fn cast(self, sim: &mut Simulation<DdPolice>) {
        match self {
            Scenario::Baseline => {
                for k in 0..10u32 {
                    sim.make_attacker(NodeId(k * 29 + 3), ReportBehavior::Honest);
                }
            }
            Scenario::Faulty => {
                for k in 0..12u32 {
                    let id = NodeId(k * 23 + 5);
                    let behavior = match k % 4 {
                        0 => ReportBehavior::Honest,
                        1 => ReportBehavior::Silent,
                        2 => ReportBehavior::Deflate(0.02),
                        _ => ReportBehavior::Inflate(3.0),
                    };
                    sim.make_attacker(id, behavior);
                }
            }
            Scenario::Collusion => {
                let victim = NodeId(200);
                for k in 0..8u32 {
                    let id = NodeId(k * 31 + 7);
                    let behavior = if k % 3 == 0 {
                        ReportBehavior::FrameVictim { victim, inflate: 40.0 }
                    } else {
                        ReportBehavior::ShieldColluders { factor: 0.05 }
                    };
                    sim.make_attacker(id, behavior);
                    if k % 2 == 0 {
                        sim.set_list_behavior(id, ListBehavior::PadFake { extra: 4 });
                    }
                }
            }
        }
    }

    fn ticks(self) -> usize {
        match self {
            Scenario::Baseline | Scenario::Faulty => 8,
            Scenario::Collusion => 10,
        }
    }

    fn run_crate(self, seed: u64) -> RunResult {
        let mut sim =
            Simulation::new(self.sim_config(), DdPolice::new(self.police_config(), N), seed);
        self.cast(&mut sim);
        sim.run(self.ticks())
    }
}

// --- Golden digests ---------------------------------------------------------

/// FNV-1a over the full `Debug` rendering of the result. Rust's `{:?}` for
/// floats is shortest-roundtrip, so two results digest equal iff they are
/// bit-for-bit equal; `RunResult` contains no hash-ordered containers, so the
/// rendering is deterministic.
fn digest_run(result: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{result:?}").bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digests of the pre-refactor engine, one per (scenario, seed), in
/// `Scenario::ALL` × `SEEDS` order. Captured with `print_golden_digests`.
const GOLDEN_DIGESTS: [[u64; 5]; 3] = [
    [
        0xab0d5f5a0e07bf51,
        0xd502a19eacd87e50,
        0x44b166205be3fcc4,
        0x10e4dd574f5dbc5e,
        0x483399d7ffb3f8d8,
    ], // baseline
    [
        0xc815bf248b336ea6,
        0xb2df0224fe9d94a0,
        0x04fe9355cccc8c79,
        0x395a0dbc0106b192,
        0x71eb622a5a361aab,
    ], // faulty
    [
        0x5314cb8fcd53ba2a,
        0x7fadc17722b7ec08,
        0x8db22cf1ed82a465,
        0x801017c530aa2ce8,
        0x1271a5decc80a09a,
    ], // collusion
];

#[test]
#[ignore = "digest capture helper; run with --ignored --nocapture to re-bless"]
fn print_golden_digests() {
    for scenario in Scenario::ALL {
        let digests: Vec<String> = SEEDS
            .iter()
            .map(|&seed| format!("0x{:016x}", digest_run(&scenario.run_crate(seed))))
            .collect();
        println!("    [{}], // {}", digests.join(", "), scenario.name());
    }
}

// --- The pins ---------------------------------------------------------------

#[test]
fn golden_digests_pin_pre_refactor_behavior() {
    for (s_idx, scenario) in Scenario::ALL.iter().enumerate() {
        for (d_idx, &seed) in SEEDS.iter().enumerate() {
            let got = digest_run(&scenario.run_crate(seed));
            let want = GOLDEN_DIGESTS[s_idx][d_idx];
            assert_eq!(
                got,
                want,
                "{} seed {seed}: engine output drifted from the pre-refactor golden \
                 digest (got 0x{got:016x}); if the change is intentional, re-bless via \
                 print_golden_digests",
                scenario.name()
            );
        }
    }
}

#[test]
fn scenarios_exercise_the_interesting_paths() {
    // Sanity that the pins cover real behavior, not empty runs: the
    // baseline must cut attackers, the faulty transport must actually
    // misbehave, and the collusion scenario must drive the verdict
    // lifecycle (quarantines and probes).
    let base = Scenario::Baseline.run_crate(42);
    assert!(base.summary.attackers_cut > 0, "baseline scenario never cut anyone");
    assert!(!base.verdict_log.is_empty(), "baseline scenario logged no verdicts");

    let faulty = Scenario::Faulty.run_crate(42);
    let r = &faulty.summary.resilience;
    assert!(
        r.lists_lost + r.lists_delayed + r.reports_stale_used + r.reports_assumed_zero > 0,
        "faulty scenario injected no transport faults"
    );

    let mut saw_lifecycle = false;
    for seed in SEEDS {
        let coll = Scenario::Collusion.run_crate(seed);
        if coll.summary.verdicts.quarantines > 0 || coll.summary.verdicts.readmission_probes > 0 {
            saw_lifecycle = true;
            break;
        }
    }
    assert!(saw_lifecycle, "collusion scenario never entered the readmission lifecycle");
}
