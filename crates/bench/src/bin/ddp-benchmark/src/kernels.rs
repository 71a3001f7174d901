//! Isolated replays of single public functions, timed from outside. Each
//! feeds one layer's kernel the kind of input the workload gives it, with
//! nothing else running, so a per-layer change shows here undiluted.

use crate::stats::median;
use bytes::Bytes;
use ddp_metrics::TrafficAccumulator;
use ddp_police::exchange::ExchangeState;
use ddp_police::indicator::{general_indicator, is_bad, single_indicator};
use ddp_police::ExchangePolicy;
use ddp_protocol::{decode_message, encode_message, Guid, Message, Payload, Query, SeenTable};
use ddp_servent::{Harness, HarnessConfig, Servent, ServentConfig, ServentRole};
use ddp_sim::flood::{FirstHop, FloodEnv};
use ddp_sim::{Defense, FloodEngine, ListBehavior, Simulation, TickObservation};
use ddp_topology::{NodeId, TopologyConfig, TopologyModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Count-1 floods and attack bursts per flood-kernel round.
const FLOODS: usize = 64;
const BURSTS: usize = 8;
const BURST_COUNT: u32 = 20_000;
/// Rounds a kernel is repeated; the median round is reported.
const ROUNDS: usize = 5;

/// The smallest realistic Query: TTL 3, 10-byte criteria, 36 bytes framed.
pub fn query_message(seq: u64) -> Message {
    Message::new(
        Guid::derived(0, seq),
        3,
        Payload::Query(Query { min_speed: 0, criteria: "bench-0123".into() }),
    )
}

fn online_flags<D: Defense>(sim: &Simulation<D>) -> Vec<bool> {
    (0..sim.node_count()).map(|i| sim.is_online(NodeId::from_index(i))).collect()
}

/// `FloodEngine::flood` on a clone of the simulation's overlay: nanoseconds
/// per flood hop (hops are count-weighted, as in the engine's own traffic
/// series), over [`FLOODS`] good-peer floods and [`BURSTS`] attack bursts.
pub fn flood_ns_per_hop<D: Defense>(sim: &Simulation<D>, seed: u64) -> f64 {
    let mut overlay = sim.overlay().clone();
    let n = overlay.node_count();
    let online = online_flags(sim);
    let capacity = vec![sim.config().good_capacity_qpm; n];
    let prev_util = vec![0f32; n];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf100_d5ee_d000_0001);
    let origins: Vec<NodeId> = std::iter::repeat_with(|| NodeId::from_index(rng.gen_range(0..n)))
        .filter(|&v| online[v.index()] && overlay.degree(v) > 0)
        .take(FLOODS + BURSTS)
        .collect();
    let mut engine = FloodEngine::new(n);
    let ttl = sim.config().ttl;
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        overlay.reset_tick_counters();
        let mut node_used = vec![0u32; n];
        let mut traffic = TrafficAccumulator::default();
        let mut env = FloodEnv {
            node_used: &mut node_used,
            capacity: &capacity,
            online: &online,
            prev_util: &prev_util,
            traffic: &mut traffic,
            policy: sim.config().forwarding,
            fair_share_factor: sim.config().fair_share_factor,
            hop_latency_secs: sim.config().hop_latency_secs,
            proc_delay_secs: sim.config().proc_delay_secs,
        };
        let start = Instant::now();
        for (i, &origin) in origins.iter().enumerate() {
            let first_hop = if i < FLOODS {
                FirstHop::All { count: 1 }
            } else {
                FirstHop::Single { slot: 0, count: BURST_COUNT }
            };
            black_box(engine.flood(&mut overlay, origin, first_hop, ttl, None, &mut env));
        }
        let ns = start.elapsed().as_nanos() as f64;
        rounds.push(ns / traffic.query_hops.max(1) as f64);
    }
    median(&rounds)
}

/// One full neighbor-list refresh (`ExchangeState::on_tick` at a tick where
/// the periodic policy fires) over the simulation's overlay, milliseconds.
pub fn exchange_ms<D: Defense>(sim: &Simulation<D>, policy: ExchangePolicy) -> f64 {
    let n = sim.node_count();
    let online = online_flags(sim);
    let roles: Vec<_> = (0..n).map(|i| sim.role(NodeId::from_index(i))).collect();
    let runs_defense: Vec<bool> =
        roles.iter().zip(&online).map(|(r, &on)| on && !r.is_attacker()).collect();
    let report_behavior: Vec<_> = roles.iter().map(|r| r.report_behavior()).collect();
    let list_behavior = vec![ListBehavior::Truthful; n];
    let obs = TickObservation {
        tick: 1,
        overlay: sim.overlay(),
        online: &online,
        runs_defense: &runs_defense,
        report_behavior: &report_behavior,
        list_behavior: &list_behavior,
        faults: None,
    };
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut exchange = ExchangeState::new(n);
            let start = Instant::now();
            black_box(exchange.on_tick(policy, &obs));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&rounds)
}

/// Both indicators plus the threshold test, nanoseconds per judgment.
pub fn indicator_ns(seed: u64) -> f64 {
    const INPUTS: usize = 1 << 12;
    const PASSES: usize = 64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1d1c_a702);
    let inputs: Vec<(f64, f64, usize, f64)> = (0..INPUTS)
        .map(|_| {
            (
                f64::from(rng.gen_range(0..40_000u32)),
                f64::from(rng.gen_range(0..4_000u32)),
                rng.gen_range(1..12usize),
                f64::from(rng.gen_range(0..20_000u32)),
            )
        })
        .collect();
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            let mut bad = 0u32;
            for _ in 0..PASSES {
                for &(out_of, into, k, to_observer) in black_box(&inputs) {
                    let g = general_indicator(out_of, into, k, 100);
                    let s = single_indicator(to_observer, into, 100);
                    bad += u32::from(is_bad(g, s, 5.0));
                }
            }
            black_box(bad);
            start.elapsed().as_nanos() as f64 / (INPUTS * PASSES) as f64
        })
        .collect();
    median(&rounds)
}

/// Per-frame costs of the layers under the wire runtime, no sockets.
pub struct ServentKernels {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub seen_offer_ns: f64,
    pub handle_frame_ns: f64,
    pub on_minute_us: f64,
}

/// Encode, decode, duplicate suppression, and a bare `Servent` with the
/// `wire_relay` neighbours (0 and 2) fed the same frames the source sends.
pub fn servent_kernels(frames: usize) -> ServentKernels {
    let per = |start: Instant| start.elapsed().as_nanos() as f64 / frames as f64;
    let messages: Vec<Message> = (0..frames as u64).map(query_message).collect();

    let start = Instant::now();
    let encoded: Vec<Bytes> = messages.iter().map(encode_message).collect();
    let encode_ns = per(start);

    let start = Instant::now();
    for frame in &encoded {
        let mut cursor = frame.clone();
        black_box(decode_message(&mut cursor).expect("frames this benchmark encoded"));
    }
    let decode_ns = per(start);

    let mut seen = SeenTable::new(600);
    let start = Instant::now();
    for m in &messages {
        black_box(seen.offer(m.header.guid, 0, 1));
    }
    let seen_offer_ns = per(start);

    let mut servent = Servent::new(NodeId(1), ServentRole::Good, ServentConfig::default());
    servent.connect(NodeId(0));
    servent.connect(NodeId(2));
    let mut out = Vec::new();
    let start = Instant::now();
    for frame in &encoded {
        servent.handle_frame(NodeId(0), frame.clone(), 1, &mut out);
        out.clear();
    }
    let handle_frame_ns = per(start);

    let minutes: Vec<f64> = (1..=32u64)
        .map(|minute| {
            let start = Instant::now();
            servent.on_minute(minute * 60, minute, &mut out);
            out.clear();
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    ServentKernels {
        encode_ns,
        decode_ns,
        seen_offer_ns,
        handle_frame_ns,
        on_minute_us: median(&minutes),
    }
}

/// The same state machine without threads or sockets: 64 servents on the
/// in-memory harness, one 1 500-qpm agent, `minutes` protocol minutes.
/// Frames the harness network carried per wall second.
pub fn harness_frames_per_s(seed: u64, servents: usize, minutes: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4a12_e550);
    let graph = TopologyConfig { n: servents, model: TopologyModel::BarabasiAlbert { m: 3 } }
        .generate(&mut rng);
    let agent = NodeId::from_index(rng.gen_range(0..servents));
    let role = ServentRole::FloodingAgent { rate_qpm: 1_500, respond_reports: true };
    let mut harness = Harness::new(&graph, &[(agent, role)], HarnessConfig::default(), seed);
    let start = Instant::now();
    harness.run_minutes(minutes);
    harness.report().frames as f64 / start.elapsed().as_secs_f64()
}
