//! Tier-1 allocation gate: a warmed tick allocates a small constant, not
//! O(peers).
//!
//! `CountingAlloc` is this test binary's global allocator. A no-churn
//! `DdPoliceConfig::default()` run is warmed — a handful of agents attack,
//! are judged and cut, and every buffer grows to its working size — then each
//! further `Simulation::step` is counted on its own. The default exchange
//! period is two minutes, so the window holds refresh ticks (every peer
//! announces its list to every neighbor) and non-refresh ticks alike, and the
//! same bound must hold at 1 000 and at 4 000 peers: whatever a tick
//! allocates, it is not per peer. (Before announcements were shared buffers a
//! refresh tick made more than one `Vec` per online peer.)
//!
//! Everything runs in one `#[test]`: the counter is process-wide, and a
//! second test thread would be counted too.

use ddpolice::attack::AttackPlan;
use ddpolice::metrics::CountingAlloc;
use ddpolice::police::{DdPolice, DdPoliceConfig};
use ddpolice::sim::{SimConfig, Simulation};
use ddpolice::topology::{TopologyConfig, TopologyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Most allocations one warmed `step` may make, at any overlay size.
/// Calibrated once: the busiest counted tick made 56 (1 000 peers, where a
/// half-cut agent is still being judged), a quiet one makes 17.
const MAX_ALLOCS_PER_STEP: usize = 128;
const AGENTS: usize = 8;
const WARMUP_TICKS: usize = 16;
const COUNTED_TICKS: usize = 8;

fn allocations_per_step(peers: usize) -> Vec<usize> {
    let cfg = SimConfig {
        topology: TopologyConfig { n: peers, model: TopologyModel::BarabasiAlbert { m: 3 } },
        churn: false,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, DdPolice::new(DdPoliceConfig::default(), peers), 7);
    AttackPlan::new(AGENTS).apply(&mut sim, &mut StdRng::seed_from_u64(11));
    for _ in 0..WARMUP_TICKS {
        sim.step();
    }
    assert!(!sim.cut_log().is_empty(), "the warm-up must have exercised judgments and cuts");
    (0..COUNTED_TICKS)
        .map(|_| {
            let before = ALLOC.allocations();
            sim.step();
            ALLOC.allocations() - before
        })
        .collect()
}

#[test]
fn a_warmed_step_allocates_a_small_constant_at_any_size() {
    for peers in [1_000, 4_000] {
        let counts = allocations_per_step(peers);
        assert!(
            counts.iter().all(|&c| c <= MAX_ALLOCS_PER_STEP),
            "{peers} peers: allocations per step {counts:?}, bound {MAX_ALLOCS_PER_STEP}"
        );
    }
}
