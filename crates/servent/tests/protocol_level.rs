//! End-to-end protocol-level tests: full servents over encoded frames.

use ddp_police::{AggregationPolicy, DdPoliceConfig};
use ddp_protocol::{
    encode_message, Guid, Message, NeighborList, NeighborTraffic, Payload, PeerAddr, Query,
};
use ddp_servent::servent::Outbox;
use ddp_servent::{Harness, HarnessConfig, Servent, ServentConfig, ServentRole};
use ddp_topology::{DynamicGraph, NodeId, TopologyConfig, TopologyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph(n: usize, seed: u64) -> DynamicGraph {
    TopologyConfig { n, model: TopologyModel::BarabasiAlbert { m: 3 } }
        .generate(&mut StdRng::seed_from_u64(seed))
}

fn agent(rate_qpm: u32) -> ServentRole {
    ServentRole::FloodingAgent { rate_qpm, respond_reports: true }
}

#[test]
fn searches_resolve_over_the_wire() {
    let g = graph(30, 1);
    let mut h = Harness::new(&g, &[], HarnessConfig::default(), 7);
    h.run_minutes(3);
    let r = h.report();
    assert!(r.issued > 20, "expected a real workload, issued {}", r.issued);
    let rate = r.resolved as f64 / r.issued as f64;
    assert!(rate > 0.6, "resolution rate {rate} ({} / {})", r.resolved, r.issued);
    // Round trips through a TTL-5 flood with 1 s hops stay in seconds.
    assert!(
        r.mean_latency_secs >= 2.0 && r.mean_latency_secs <= 12.0,
        "mean latency {}",
        r.mean_latency_secs
    );
    assert!(r.cuts.is_empty(), "no attackers, no cuts: {:?}", r.cuts);
}

#[test]
fn flooding_agent_is_disconnected_by_every_neighbor() {
    let g = graph(30, 2);
    let attacker = NodeId(4);
    let degree = g.degree(attacker);
    assert!(degree >= 3);
    let mut h = Harness::new(&g, &[(attacker, agent(1_500))], HarnessConfig::default(), 9);
    h.run_minutes(4);
    let r = h.report();
    let cut_by: Vec<NodeId> =
        r.cuts.iter().filter(|&&(_, _, s)| s == attacker).map(|&(_, o, _)| o).collect();
    assert!(
        cut_by.len() >= degree.saturating_sub(1),
        "attacker (degree {degree}) only cut by {cut_by:?}"
    );
    assert!(h.servents[attacker.index()].neighbors().is_empty(), "attacker fully isolated");
    // Detection happened within the protocol's own latency budget:
    // one minute of counting + 50 s of report collection + slack.
    let first_cut = r.cuts.iter().find(|&&(_, _, s)| s == attacker).unwrap().0;
    assert!(first_cut <= 3 * 60 + 55, "first cut at {first_cut}s");
}

#[test]
fn innocent_forwarders_survive_the_investigation() {
    let g = graph(30, 3);
    let attacker = NodeId(4);
    let mut h = Harness::new(&g, &[(attacker, agent(1_500))], HarnessConfig::default(), 11);
    h.run_minutes(4);
    let r = h.report();
    let wrongly_cut: Vec<_> = r.cuts.iter().filter(|&&(_, _, s)| s != attacker).collect();
    // A handful of post-isolation wrongful cuts is the paper's own §3.4
    // consequence: the freshly isolated agent stops reporting, so the
    // forwarders that carried its traffic briefly lose their exculpatory
    // evidence ("peer m could be treated as a bad peer and be
    // disconnected"). They must stay a small minority.
    assert!(
        wrongly_cut.len() <= 6,
        "too many innocent peers cut at protocol level: {wrongly_cut:?}"
    );
}

#[test]
fn silent_agent_is_still_isolated() {
    let g = graph(30, 4);
    let attacker = NodeId(6);
    let role = ServentRole::FloodingAgent { rate_qpm: 1_500, respond_reports: false };
    let mut h = Harness::new(&g, &[(attacker, role)], HarnessConfig::default(), 13);
    h.run_minutes(5);
    assert!(
        h.servents[attacker.index()].neighbors().is_empty(),
        "refusing lists and reports must not shield the agent; still connected to {:?}",
        h.servents[attacker.index()].neighbors()
    );
}

#[test]
fn service_recovers_after_the_cut() {
    let g = graph(40, 5);
    let attacker = NodeId(2);
    let mut h = Harness::new(&g, &[(attacker, agent(1_500))], HarnessConfig::default(), 17);
    // Minute 1-4: attack + detection.
    h.run_minutes(4);
    let during = h.report();
    // Minutes 5-8: attacker is gone; compare resolution of fresh queries.
    h.run_minutes(4);
    let after = h.report();
    let late_issued = after.issued - during.issued;
    let late_resolved = after.resolved - during.resolved;
    assert!(late_issued > 10);
    let late_rate = late_resolved as f64 / late_issued as f64;
    assert!(late_rate > 0.5, "post-recovery resolution {late_rate}");
}

#[test]
fn runs_are_deterministic() {
    let g = graph(25, 6);
    let mk = || {
        let mut h = Harness::new(&g, &[(NodeId(3), agent(1_200))], HarnessConfig::default(), 21);
        h.run_minutes(3);
        h.report()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b);
}

#[test]
fn wire_volume_is_dominated_by_the_attack() {
    let g = graph(30, 7);
    let quiet = {
        let mut h = Harness::new(&g, &[], HarnessConfig::default(), 23);
        h.run_minutes(2);
        h.report()
    };
    let attacked = {
        let mut h = Harness::new(&g, &[(NodeId(4), agent(1_500))], HarnessConfig::default(), 23);
        h.run_minutes(2);
        h.report()
    };
    assert!(
        attacked.frames > quiet.frames * 3,
        "attack frames {} vs quiet {}",
        attacked.frames,
        quiet.frames
    );
    assert!(attacked.bytes > quiet.bytes * 3);
}

#[test]
fn per_minute_counters_match_the_wire() {
    // Two peers, one query: the receiver's In counter sees exactly one.
    let mut g = DynamicGraph::new(2);
    g.add_edge(NodeId(0), NodeId(1));
    let cfg = HarnessConfig {
        query_rate_qpm: 0.0, // no background noise
        ..HarnessConfig::default()
    };
    let mut h = Harness::new(&g, &[], cfg, 1);
    let mut out = Vec::new();
    h.servents[0].issue_query("item-001", 0, &mut out);
    for (to, frame) in out {
        h.network.send(0, NodeId(0), to, frame);
    }
    h.run_minutes(1);
    let (out0, in0) = h.servents[1].prev_minute_counters(NodeId(0)).unwrap();
    assert_eq!(out0, 0, "peer 1 sent nothing to 0 as a Query");
    assert_eq!(in0, 1, "peer 1 received exactly the one query");
}

#[test]
fn servent_config_defaults_are_paper_faithful() {
    let c = ServentConfig::default();
    assert_eq!(c.report_deadline_secs, 50);
    assert_eq!(c.police.warning_threshold_qpm, 500);
    assert_eq!(c.police.cut_threshold, 5.0);
}

#[test]
fn bg_liveness_pings_flow_and_refresh() {
    // A quiet overlay still exchanges BG pings: members that stay silent get
    // probed each minute, and their pongs keep them in the report pool.
    let g = graph(20, 8);
    let cfg = HarnessConfig { query_rate_qpm: 0.2, ..HarnessConfig::default() };
    let mut h = Harness::new(&g, &[], cfg, 31);
    h.run_minutes(3);
    let r = h.report();
    // Pings/pongs happened (frames well beyond the handful of queries).
    assert!(r.frames > r.issued as u64 * 10, "{} frames for {} queries", r.frames, r.issued);
    assert!(r.cuts.is_empty());
}

/// Servent 0 investigates its neighbor 1, a good peer that merely forwards:
/// members 2..=5 each pushed 200 queries into it and it relayed 800 to the
/// observer and 600 to each of them, so honest reports explain all of its
/// output. Member 5 frames it by claiming 50x the queries it really received.
/// Returns the observer after its investigation deadline.
fn framed_forwarder_judged_under(aggregation: AggregationPolicy) -> Servent {
    let (suspect, liar) = (NodeId(1), NodeId(5));
    let cfg = ServentConfig {
        police: DdPoliceConfig { aggregation, ..DdPoliceConfig::default() },
        ..ServentConfig::default()
    };
    let mut observer = Servent::new(NodeId(0), ServentRole::Good, cfg);
    observer.connect(suspect);
    let mut out = Outbox::new();
    let mut seq = 0u64;
    let mut deliver = |s: &mut Servent, from: NodeId, now: u64, payload: Payload| {
        seq += 1;
        let frame = encode_message(&Message::new(Guid::derived(from.0, seq), 1, payload));
        s.handle_frame(from, frame, now, &mut out);
    };
    let group = (0..=5).filter(|&i| i != suspect.0).map(PeerAddr::from_node_index).collect();
    deliver(&mut observer, suspect, 1, Payload::NeighborList(NeighborList { neighbors: group }));
    for i in 0..800u64 {
        let query = Query { min_speed: 0, criteria: format!("relayed-{i}") };
        deliver(&mut observer, suspect, 2 + i % 50, Payload::Query(query));
    }
    observer.on_minute(60, 1, &mut Outbox::new());
    for m in 2..=5 {
        let report = NeighborTraffic {
            source_ip: PeerAddr::from_node_index(m).ip,
            suspect_ip: PeerAddr::from_node_index(suspect.0).ip,
            timestamp: 65,
            outgoing_queries: 200,
            incoming_queries: if NodeId(m) == liar { 50 * 600 } else { 600 },
        };
        deliver(&mut observer, NodeId(m), 65, Payload::NeighborTraffic(report));
    }
    for now in 61..=111 {
        observer.on_second(now, &mut Outbox::new());
    }
    assert_eq!(observer.verdict_log.len(), 1, "exactly one investigation concluded");
    observer
}

#[test]
fn aggregation_policy_reaches_the_wire_judgment() {
    let suspect = NodeId(1);
    let summed = framed_forwarder_judged_under(AggregationPolicy::Sum);
    let (_, who, g, s, cut) = summed.verdict_log[0];
    assert_eq!(who, suspect);
    assert!(cut && g > 50.0 && s == 0.0, "one inflated claim convicts under Sum: g={g} s={s}");
    assert_eq!(summed.cut_log, vec![(110, suspect)]);
    assert!(!summed.is_neighbor(suspect));

    let median = framed_forwarder_judged_under(AggregationPolicy::Median);
    let (_, _, g, s, cut) = median.verdict_log[0];
    assert!(!cut && g < 1.0 && s == 0.0, "the median ignores the lone outlier: g={g} s={s}");
    assert!(median.cut_log.is_empty() && median.is_neighbor(suspect));
}
