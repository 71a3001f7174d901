//! The frozen workload definitions. Every number a later issue refers to
//! lives here, inside the benchmark's own directory, so a change to the
//! repository cannot silently change what the benchmark runs.

use ddp_police::{
    AggregationPolicy, DdPoliceConfig, ExchangePolicy, Hysteresis, MonitorBackend,
    ReadmissionPolicy, SketchParams,
};
use ddp_sim::{FaultConfig, SessionConfig, SimConfig};
use ddp_topology::{TopologyConfig, TopologyModel};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["flood_100k", "judge_20k", "churn_sketch_10k", "wire_relay"];

/// Why each workload was chosen, with the layer shares measured on the
/// 2-core host the benchmark was defined on (`BENCHMARK.json` carries these
/// lines; README.md has the long form).
pub const WHY: [&str; 4] = [
    "100k peers, TTL 4, 5% agents, default police: the engine's batch flood over a ~200 MB working \
     set is 64-69% of a tick (police on_tick 31-35%), so flood, emission and allocation work shows \
     here",
    "20k peers with every fast-path precondition off (loss, clamp, trimmed mean, hysteresis, \
     readmission): DdPolice::on_tick is 87-88% of a tick, the engine 11-13% - the mirror of \
     flood_100k",
    "10k peers under session churn with the sketch monitor: the overlay is written, not only read; \
     churn hooks are 61-64% of a tick, on_tick 23-25%, engine 14%; the cell where detection quality \
     shows",
    "one WireServent on loopback TCP between a flooding and a receiving neighbour, all on one CPU: \
     the only workload crossing reader, event channel, handle_frame, SendQueue and writer; no \
     simulator runs",
];

/// `--seconds` value the tick counts below were sized for (the
/// `run_seconds` of `BENCHMARK.json`). Other values scale every count
/// proportionally, never below the floors.
pub const NOMINAL_SECONDS: u64 = 16;

/// `--quick` divides peers, tick and frame counts by this. (The unit tests
/// divide further, to 400 peers.) A divisor of 1 is the full scale.
pub const QUICK_DIVISOR: u64 = 20;

/// Stream tag XORed into the run seed for agent placement — the value the
/// scale runner has always used, so `flood_100k` is the ROADMAP 100k cell.
pub const ATTACK_SEED_TAG: u64 = 0xdd05_ee1f;

/// One simulator workload: configuration plus the measured window.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    pub name: &'static str,
    pub sim: SimConfig,
    pub police: DdPoliceConfig,
    pub agents: usize,
    /// Ticks stepped before timing starts (part of `setup_s`).
    pub warmup_ticks: usize,
    /// Ticks in the timed window of an untraced run.
    pub timed_ticks: usize,
    /// How often set-up is repeated; `setup_s` is the median.
    pub setup_repeats: usize,
}

impl SimWorkload {
    pub fn peers(&self) -> usize {
        self.sim.topology.n
    }
}

/// `base` ticks at [`NOMINAL_SECONDS`], scaled to `seconds` and divided by
/// `divisor`, never below `floor` (full scale) or 3 (reduced scales).
fn scaled_ticks(base: u64, floor: u64, seconds: u64, divisor: u64) -> usize {
    let scaled = (base * seconds).div_ceil(NOMINAL_SECONDS);
    (if divisor == 1 { scaled.max(floor) } else { (scaled / divisor).max(3) }) as usize
}

fn ba3(n: usize) -> TopologyConfig {
    TopologyConfig { n, model: TopologyModel::BarabasiAlbert { m: 3 } }
}

/// Build the named simulator workload; `None` for `wire_relay` and unknown
/// names. `divisor` shrinks peers and ticks: 1 is the full scale.
pub fn sim_workload(name: &str, seconds: u64, divisor: u64) -> Option<SimWorkload> {
    match name {
        "flood_100k" => {
            let n = 100_000 / divisor as usize;
            Some(SimWorkload {
                name: "flood_100k",
                sim: SimConfig {
                    topology: ba3(n),
                    ttl: 4,
                    churn: false,
                    attacker_rejoin_delay_ticks: 3,
                    ..SimConfig::default()
                },
                police: DdPoliceConfig::default(),
                agents: n / 20,
                warmup_ticks: 5,
                timed_ticks: scaled_ticks(40, 40, seconds, divisor),
                setup_repeats: 2,
            })
        }
        "judge_20k" => {
            let n = 20_000 / divisor as usize;
            Some(SimWorkload {
                name: "judge_20k",
                sim: SimConfig {
                    topology: ba3(n),
                    ttl: 3,
                    churn: false,
                    attacker_rejoin_delay_ticks: 3,
                    faults: FaultConfig { loss: 0.1, ..FaultConfig::default() },
                    ..SimConfig::default()
                },
                police: DdPoliceConfig {
                    clamp_reports_to_link: true,
                    aggregation: AggregationPolicy::TrimmedMean { trim: 0.2 },
                    hysteresis: Hysteresis { required: 2, window: 3 },
                    readmission: ReadmissionPolicy {
                        enabled: true,
                        ..ReadmissionPolicy::default()
                    },
                    exchange: ExchangePolicy::Periodic { minutes: 1 },
                    ..DdPoliceConfig::default()
                },
                agents: n / 10,
                warmup_ticks: 5,
                timed_ticks: scaled_ticks(100, 100, seconds, divisor),
                setup_repeats: 3,
            })
        }
        "churn_sketch_10k" => {
            let n = 10_000 / divisor as usize;
            Some(SimWorkload {
                name: "churn_sketch_10k",
                sim: SimConfig {
                    topology: ba3(n),
                    ttl: 4,
                    attacker_rejoin_delay_ticks: 3,
                    faults: FaultConfig { loss: 0.05, ..FaultConfig::default() },
                    session: Some(SessionConfig::steady_state(n, 30.0)),
                    ..SimConfig::default()
                },
                police: DdPoliceConfig {
                    monitor: MonitorBackend::Sketch(SketchParams::default()),
                    ..DdPoliceConfig::default()
                },
                agents: n / 20,
                warmup_ticks: 10,
                timed_ticks: scaled_ticks(110, 100, seconds, divisor),
                setup_repeats: 2,
            })
        }
        _ => None,
    }
}

/// `wire_relay`: how many frames each phase relays and how long the servent
/// is told to live. Frame counts are fixed per `--seconds`, like tick counts.
#[derive(Debug, Clone)]
pub struct WirePlan {
    /// Frames relayed during set-up, before anything is timed.
    pub warmup_frames: u64,
    /// Phase A: frames at window 1 (unloaded relay latency).
    pub a_frames: u64,
    /// Phase B: frames at `window` (saturation).
    pub b_frames: u64,
    /// Window of phase B; below the servent's `send_queue_frames` (1 024),
    /// so its drop-oldest queue never has to drop.
    pub window: u64,
    /// Wall milliseconds per protocol second for phases A and B. The servent
    /// runs one protocol minute, so this fixes how long it lives; no minute
    /// boundary (and so no judgment) falls inside A or B.
    pub ab_tick_ms: u64,
    /// Phase C (flood until `Bye 0x0bad`): tick length and minutes to live.
    pub c_tick_ms: u64,
    pub c_minutes: u64,
    /// Warm-up frames of phase C's servent: under the 500-per-minute warning
    /// threshold, so only the flood can trip it.
    pub c_warmup_frames: u64,
    /// Extra set-ups, besides the measured one, for the `setup_s` median.
    pub setup_replays: usize,
    /// Sizes of the traced run's socket-free replays.
    pub kernel_frames: usize,
    pub harness_servents: usize,
    pub harness_minutes: u64,
}

/// Frames per second this host relayed when the plan was sized, at window 1
/// and at window 256. Only used to turn `--seconds` into frame counts.
const NOMINAL_A_FPS: u64 = 30_000;
const NOMINAL_B_FPS: u64 = 200_000;

pub fn wire_plan(seconds: u64, div: u64) -> WirePlan {
    // An eighth of `seconds` at window 1 and three eighths at window 256;
    // the servent lives six eighths, so a host half as fast still finishes
    // before the servent's last protocol second.
    let a_frames = (NOMINAL_A_FPS * seconds / 8 / div).max(200);
    let b_frames = (NOMINAL_B_FPS * seconds * 3 / 8 / div).max(2_000);
    WirePlan {
        warmup_frames: 2_000 / div,
        a_frames,
        b_frames,
        window: 256,
        ab_tick_ms: (seconds * 750 / div).div_ceil(60).max(10),
        c_tick_ms: 10,
        c_minutes: 2,
        c_warmup_frames: 100,
        setup_replays: if div == 1 { 4 } else { 2 },
        kernel_frames: 200_000 / div as usize,
        harness_servents: 64,
        harness_minutes: if div == 1 { 3 } else { 1 },
    }
}
