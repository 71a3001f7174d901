//! Tier-1 memory gate: what DD-POLICE holds follows the live overlay, not the
//! length of the run.
//!
//! `CountingAlloc` is this test binary's global allocator. A BA (m = 3)
//! overlay is attacked by 5 % agents that reconnect three ticks after each
//! cut, so suspects keep arriving for the whole run. The police's heap is
//! read at tick 20 and at tick 60 by swapping the defense out of the
//! simulation through `defense_mut()` and counting what dropping it frees.
//! Per peer it must stay under one bound at two overlay sizes and at one and
//! two worker threads, and tick 60 may hold at most 5 % more than tick 20:
//! state that is kept for every suspect ever judged grows with the run and
//! fails one or the other.
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

/// Most police heap bytes per peer at either reading, at any size and width.
/// Calibrated once: the change that bounded the per-tick memo by one tick
/// reads 510–620 here; the memo it replaced, which kept every suspect ever
/// judged, read 850–1 190.
const MAX_POLICE_BYTES_PER_PEER: f64 = 700.0;
/// Most the tick-60 reading may exceed the tick-20 one, as a ratio.
const MAX_GROWTH: f64 = 1.05;
const EARLY_TICK: usize = 20;
const LATE_TICK: usize = 60;

/// The police's heap bytes per peer after `ticks` steps.
fn police_bytes_per_peer(peers: usize, threads: usize, ticks: usize) -> f64 {
    let cfg = SimConfig {
        topology: TopologyConfig { n: peers, model: TopologyModel::BarabasiAlbert { m: 3 } },
        churn: false,
        attacker_rejoin_delay_ticks: 3,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, DdPolice::new(DdPoliceConfig::default(), peers), 7);
    sim.set_threads(threads);
    AttackPlan::new(peers / 20).apply(&mut sim, &mut StdRng::seed_from_u64(11));
    for _ in 0..ticks {
        sim.step();
    }
    assert!(!sim.cut_log().is_empty(), "the run must have judged and cut agents");
    let placeholder = DdPolice::new(DdPoliceConfig::default(), 0);
    let before = ALLOC.current_bytes();
    drop(std::mem::replace(sim.defense_mut(), placeholder));
    (before - ALLOC.current_bytes()) as f64 / peers as f64
}

#[test]
fn police_memory_is_bounded_by_the_overlay_not_the_run() {
    for peers in [1_000, 3_000] {
        for threads in [1, 2] {
            let early = police_bytes_per_peer(peers, threads, EARLY_TICK);
            let late = police_bytes_per_peer(peers, threads, LATE_TICK);
            let cell = format!(
                "{peers} peers, width {threads}: {early:.0} B/peer at tick {EARLY_TICK}, \
                 {late:.0} at tick {LATE_TICK}"
            );
            eprintln!("{cell}");
            assert!(
                early.max(late) <= MAX_POLICE_BYTES_PER_PEER,
                "{cell}; bound {MAX_POLICE_BYTES_PER_PEER}"
            );
            assert!(late <= MAX_GROWTH * early, "{cell}; growth bound {MAX_GROWTH}x");
        }
    }
}
