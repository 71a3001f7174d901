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
//! Two scenarios: `reliable` runs at worker widths 1 and 2 (the parallel
//! exchange refresh and the sharded judgment fast path must reproduce the
//! serial trajectory), `lossy` adds message loss and delay so the serial slow
//! path and late neighbor-list mail run too.

use ddpolice::attack::AttackPlan;
use ddpolice::police::{
    DdPolice, DdPoliceConfig, Hysteresis, MonitorBackend, ReadmissionPolicy, SketchParams,
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

fn scenarios() -> [(&'static str, FaultConfig, &'static [usize]); 2] {
    [
        ("reliable", FaultConfig::default(), &[1, 2]),
        (
            "lossy",
            FaultConfig { loss: 0.05, delay_prob: 0.1, delay_ticks: 1, ..FaultConfig::default() },
            &[1],
        ),
    ]
}

/// Run one scenario and render it the way the fixture stores it: one
/// `<scenario> <tick> <state hash>` line per tick, then the snapshot digest.
fn run(name: &str, faults: FaultConfig, threads: usize) -> String {
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
        ..DdPoliceConfig::default()
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
        let recorded: String =
            scenarios().into_iter().map(|(name, faults, _)| run(name, faults, 1)).collect();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, recorded).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with DDP_BLESS=1", path.display())
    });
    for (name, faults, widths) in scenarios() {
        let want: Vec<&str> = golden.lines().filter(|l| l.starts_with(name)).collect();
        assert_eq!(want.len(), TICKS + 1, "fixture has no complete `{name}` section");
        for &threads in widths {
            let got = run(name, faults.clone(), threads);
            for (g, w) in got.lines().zip(&want) {
                assert_eq!(g, *w, "first divergence from the fixture, threads={threads}");
            }
        }
    }
}
