//! Tier-1 churn pin: a mid-size session-churn run whose whole state
//! trajectory is frozen in a fixture.
//!
//! The frozen differential digests in `crates/core/tests` only cover
//! zero-churn runs, so nothing in tier-1 used to notice a change that alters
//! what the defense does when peers leave, crash and have their slots
//! recycled. This test runs 1 500 peers under the session model with the
//! sketch monitor, hysteresis, readmission and the suspect TTL all on —
//! every per-identity store is created, expired and swept — and compares the
//! per-tick [`Simulation::state_hash`] trace and the final snapshot digest
//! against `tests/fixtures/churn_pin.txt`.
//!
//! The fixture was recorded at the commit *before* the per-departure sweeps
//! of `ExchangeState` / `VerdictMachine` were replaced by holder indexes
//! (`DDP_BLESS=1 cargo test --test churn_pin` there), so a pass here is the
//! proof that change is bit-identical under churn. Re-bless only for a change
//! that is meant to alter simulation behaviour.
//!
//! Three scenarios, each at worker widths 1 and 2. `reliable` takes the
//! shared-sum judgment step, so width 2 shards it and the parallel exchange
//! refresh must reproduce the serial trajectory. `lossy` adds message loss
//! and delay, so the per-member step and late neighbor-list mail run; that
//! step is one whole-range shard at any width. `robust` adds the link clamp,
//! trimmed-mean aggregation and radius-2 cross-verification on top of loss.
//! The `robust` section was recorded at the commit *before* the serial and
//! sharded judgment loops were merged into one driver and appended to the
//! fixture; the `reliable` and `lossy` lines above it are the originals.

use ddpolice::attack::AttackPlan;
use ddpolice::police::{
    AggregationPolicy, DdPolice, DdPoliceConfig, Hysteresis, MonitorBackend, ReadmissionPolicy,
    SketchParams,
};
use ddpolice::sim::{FaultConfig, SessionConfig, SimConfig, Simulation};
use ddpolice::snapshot::fnv1a64;
use ddpolice::topology::{TopologyConfig, TopologyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;

const PEERS: usize = 1_500;
const TICKS: usize = 30;
const SEED: u64 = 7;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/churn_pin.txt")
}

/// `(name, transport faults, police config)`; [`run`] lays the pin's fixed
/// monitor, hysteresis, readmission and TTL settings over the police config.
fn scenarios() -> [(&'static str, FaultConfig, DdPoliceConfig); 3] {
    let paper = DdPoliceConfig::default();
    [
        ("reliable", FaultConfig::default(), paper),
        (
            "lossy",
            FaultConfig { loss: 0.05, delay_prob: 0.1, delay_ticks: 1, ..FaultConfig::default() },
            paper,
        ),
        (
            "robust",
            FaultConfig { loss: 0.1, ..FaultConfig::default() },
            DdPoliceConfig {
                clamp_reports_to_link: true,
                aggregation: AggregationPolicy::TrimmedMean { trim: 0.2 },
                radius: 2,
                ..paper
            },
        ),
    ]
}

/// Run one scenario and render it the way the fixture stores it: one
/// `<scenario> <tick> <state hash>` line per tick, then the snapshot digest.
fn run(name: &str, faults: FaultConfig, police: DdPoliceConfig, threads: usize) -> String {
    let sim_cfg = SimConfig {
        topology: TopologyConfig { n: PEERS, model: TopologyModel::BarabasiAlbert { m: 3 } },
        ttl: 3,
        attacker_rejoin_delay_ticks: 3,
        faults,
        session: Some(SessionConfig::steady_state(PEERS, 12.0)),
        ..SimConfig::default()
    };
    let police_cfg = DdPoliceConfig {
        monitor: MonitorBackend::Sketch(SketchParams::default()),
        hysteresis: Hysteresis { required: 2, window: 3 },
        readmission: ReadmissionPolicy {
            enabled: true,
            base_backoff_ticks: 2,
            max_backoff_ticks: 16,
            probation_ticks: 2,
        },
        suspect_ttl_ticks: 6,
        ..police
    };
    let mut sim = Simulation::new(sim_cfg, DdPolice::new(police_cfg, PEERS), SEED);
    AttackPlan::new(PEERS / 20).apply(&mut sim, &mut StdRng::seed_from_u64(SEED ^ 0xdd05_ee1f));
    sim.set_threads(threads);
    sim.enable_hash_trace();
    for _ in 0..TICKS {
        sim.step();
    }
    let stats = sim.session_stats();
    assert!(
        stats.leaves > 500 && stats.crashes > 150 && stats.joins > 1_000,
        "{name}: the pin must actually churn: {stats:?}"
    );
    let (verdicts, snapshots) = sim.defense().state_footprint();
    assert!(verdicts > 0 && snapshots > 0, "{name}: both per-identity stores must be live");

    let mut out = String::new();
    for (i, h) in sim.hash_trace().iter().enumerate() {
        writeln!(out, "{name} {} {h:016x}", i + 1).unwrap();
    }
    let digest = fnv1a64(&sim.save_snapshot().expect("dd-police supports snapshots"));
    writeln!(out, "{name} snapshot {digest:016x}").unwrap();
    out
}

#[test]
fn churn_trajectory_matches_the_pre_index_fixture() {
    let path = fixture_path();
    if std::env::var_os("DDP_BLESS").is_some() {
        let recorded: String = scenarios()
            .into_iter()
            .map(|(name, faults, police)| run(name, faults, police, 1))
            .collect();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, recorded).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with DDP_BLESS=1", path.display())
    });
    for (name, faults, police) in scenarios() {
        let want: Vec<&str> = golden.lines().filter(|l| l.starts_with(name)).collect();
        assert_eq!(want.len(), TICKS + 1, "fixture has no complete `{name}` section");
        for threads in [1, 2] {
            let got = run(name, faults.clone(), police, threads);
            for (g, w) in got.lines().zip(&want) {
                assert_eq!(g, *w, "first divergence from the fixture, threads={threads}");
            }
        }
    }
}
