//! Determinism guarantees of the sketch monitor backend: bit-identical
//! snapshot round-trips mid-run and thread-count invariance of the sharded
//! tick engine, both with the count-min monitor active.
//!
//! The sketch adds real state to the engine (counter matrix, window epoch,
//! ingest tally), all of it ingested serially before judgment — so the
//! engine's two strongest claims must keep holding with the backend
//! enabled: a snapshot taken mid-run restores to the identical future, and
//! the parallel fast path is byte-identical to serial at every worker
//! width. The `unordered-reduction-sketch` mutant in
//! `tests/mutants/catalogue.txt` must fail the width sweep.

use ddp_police::verdict::{Hysteresis, ReadmissionPolicy};
use ddp_police::{DdPolice, DdPoliceConfig, MonitorBackend, SketchParams};
use ddp_sim::{ReportBehavior, SimConfig, Simulation};
use ddp_topology::{NodeId, TopologyConfig, TopologyModel};

const PEERS: usize = 200;
const TICKS: usize = 12;

/// Full lifecycle config (hysteresis + readmission) on the sketch backend,
/// so the snapshot and the reduction both carry live verdict clocks *and*
/// sketch state. A small width keeps collisions (and therefore
/// excess-driven judgments) in play.
fn sketch_cfg() -> DdPoliceConfig {
    DdPoliceConfig {
        monitor: MonitorBackend::Sketch(SketchParams {
            width_log2: 8,
            depth: 3,
            ..SketchParams::default()
        }),
        hysteresis: Hysteresis { required: 2, window: 3 },
        readmission: ReadmissionPolicy {
            enabled: true,
            base_backoff_ticks: 2,
            max_backoff_ticks: 16,
            probation_ticks: 2,
        },
        ..DdPoliceConfig::default()
    }
}

fn sketch_sim(seed: u64) -> Simulation<DdPolice> {
    let cfg = SimConfig {
        topology: TopologyConfig { n: PEERS, model: TopologyModel::BarabasiAlbert { m: 3 } },
        churn: false,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(cfg, DdPolice::new(sketch_cfg(), PEERS), seed);
    for a in [5u32, 77, 123] {
        sim.make_attacker(NodeId(a), ReportBehavior::Honest);
    }
    sim
}

#[test]
fn snapshot_roundtrip_mid_run_is_bit_identical_with_sketch() {
    let mut reference = sketch_sim(42);
    for _ in 0..TICKS {
        reference.step();
    }

    // Snapshot at tick 5: hysteresis histories, lifecycle clocks, the CMS
    // counter matrix, and the rotated window epoch are all live here.
    let mut writer = sketch_sim(42);
    for _ in 0..5 {
        writer.step();
    }
    let bytes = writer.save_snapshot().unwrap();
    let mut resumed = sketch_sim(42);
    resumed.restore_snapshot(&bytes).unwrap();

    // Bit-identity: re-serializing the restored state reproduces the
    // snapshot byte for byte (window epoch included — a restore that reset
    // the rotation schedule would differ here and then diverge on hashing).
    assert_eq!(bytes, resumed.save_snapshot().unwrap(), "restore → save is not the identity");

    let a = resumed.defense().sketch_monitor().expect("sketch active after restore");
    let b = writer.defense().sketch_monitor().unwrap();
    assert_eq!(a.window(), b.window(), "window epoch lost in the round trip");

    for _ in 0..(TICKS - 5) {
        resumed.step();
    }
    let a = reference.finish();
    let b = resumed.finish();
    assert_eq!(a.series, b.series);
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.cut_log, b.cut_log);
}

#[test]
fn parallel_widths_are_identical_with_sketch() {
    // Serial baseline, then widths 1, 2, 4: identical per-tick state hash,
    // judgment trace, and final results. Width 1 must be the serial engine
    // bit for bit; 2 and 4 cross the reduction.
    let serial = {
        let mut sim = sketch_sim(42);
        sim.defense_mut().set_tracing(true);
        sim.enable_hash_trace();
        let mut traces = Vec::new();
        for _ in 0..TICKS {
            sim.step();
            traces.push(sim.defense_mut().take_trace());
        }
        (sim.hash_trace().to_vec(), traces, sim.finish())
    };
    for threads in [1usize, 2, 4] {
        let mut sim = sketch_sim(42);
        sim.defense_mut().set_tracing(true);
        sim.enable_hash_trace();
        sim.set_threads(threads);
        let mut traces = Vec::new();
        for _ in 0..TICKS {
            sim.step();
            traces.push(sim.defense_mut().take_trace());
        }
        assert_eq!(serial.0, sim.hash_trace(), "state hash diverged at threads={threads}");
        assert_eq!(serial.1, traces, "judgment trace diverged at threads={threads}");
        let res = sim.finish();
        assert_eq!(serial.2.series, res.series, "series diverged at threads={threads}");
        assert_eq!(serial.2.summary, res.summary);
        assert_eq!(serial.2.cut_log, res.cut_log);
    }
}
