//! Property test: the dense per-peer exchange views against a `HashMap`
//! shadow model.
//!
//! [`ExchangeState`] stores each peer's knowledge of its neighbors' lists in
//! short dense `Vec<(neighbor, Snapshot)>` rows whose member lists are handles
//! to one shared buffer per announcement (reused from the previous
//! announcement when the list did not change), and skips per-copy transport
//! transmission entirely when the fault plane can neither lose, delay, nor
//! crash anything. The shadow here replays the *naive* semantics — one
//! `HashMap<(viewer, announcer), (members, taken_at, ..)>` with a private copy
//! of the members per receiver, every copy pushed through
//! `FaultPlane::transmit_list` — on a twin fault plane built from the same
//! seed, so the dice agree draw-for-draw. After every op the dense views, the
//! returned message counts, and the full resilience accounting of both planes
//! must match exactly. Because the shadow's copies are private, a shared
//! buffer rewritten or wrongly reused for a changed list shows as a receiver
//! that missed the newer announcement (loss, delay, reset) no longer reading
//! what it was sent. The shadow also remembers which entries came straight
//! from a refresh: all such receivers of one announcement must hold the very
//! same buffer.
//!
//! The same op sequences pin the announcer → viewers **holder index** that
//! `forget_about` walks instead of every view: after every op — stores and
//! late-list applies inside a tick, `forget_edge`, `reset_peer`,
//! `forget_about`, the sharded refresh at widths 1/2/4, a save → load round
//! trip — `holders_of` must equal the brute-force transpose of the views.
//! `reset_peer_unlists_its_holders` pins the one leak no view shows; the
//! `reset-leaks-holders` mutant in `tests/mutants/catalogue.txt` must fail it.

use ddp_police::exchange::ExchangeState;
use ddp_police::ExchangePolicy;
use ddp_sim::{
    FaultConfig, FaultPlane, ListBehavior, Overlay, ReportBehavior, Tick, TickObservation,
};
use ddp_topology::{DynamicGraph, NodeId};
use ddp_workload::BandwidthClass;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const N: usize = 8;

/// `(viewer, announcer)` → `(members, taken_at, shared)`. `shared` is set on
/// entries a refresh delivered and cleared for late mail and across a save →
/// load, which hold buffers of their own.
type Shadow = HashMap<(u32, u32), (Vec<NodeId>, Tick, bool)>;

#[derive(Debug, Clone)]
enum Op {
    /// Advance one tick and run the exchange on both models, the dense one
    /// at this worker width (widths above 1 shard the refresh, lossy or not).
    Tick(usize),
    AddEdge(u32, u32),
    RemoveEdge(u32, u32),
    /// Peer restart: its accumulated views are wiped.
    ResetPeer(u32),
    /// The identity departed for good: everyone's snapshot of it is dropped.
    ForgetAbout(u32),
    /// Serialize the dense state and continue on the reloaded copy (the
    /// holder index is not in the bytes; `load_state` rebuilds it).
    SaveLoad,
    ToggleOnline(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let n = N as u32;
    prop_oneof![
        5 => prop_oneof![Just(1usize), Just(2), Just(4)].prop_map(Op::Tick),
        3 => (0..n, 0..n).prop_map(|(u, v)| Op::AddEdge(u, v)),
        2 => (0..n, 0..n).prop_map(|(u, v)| Op::RemoveEdge(u, v)),
        1 => (0..n).prop_map(Op::ResetPeer),
        1 => (0..n).prop_map(Op::ForgetAbout),
        1 => Just(Op::SaveLoad),
        1 => (0..n).prop_map(Op::ToggleOnline),
    ]
}

fn fault_strategy() -> impl Strategy<Value = FaultConfig> {
    prop_oneof![
        Just(FaultConfig::default()), // inert: exercises the reliable fast path
        Just(FaultConfig { loss: 0.4, ..FaultConfig::default() }),
        Just(FaultConfig { delay_prob: 0.6, delay_ticks: 1, ..FaultConfig::default() }),
        Just(FaultConfig { loss: 0.2, delay_prob: 0.3, delay_ticks: 2, ..FaultConfig::default() }),
    ]
}

fn policy_strategy() -> impl Strategy<Value = ExchangePolicy> {
    prop_oneof![
        (1u32..4).prop_map(|minutes| ExchangePolicy::Periodic { minutes }),
        Just(ExchangePolicy::EventDriven),
    ]
}

/// The naive replay of one exchange tick over the shadow map. Mirrors
/// `ExchangeState::on_tick`'s faulty branch unconditionally: matured mail
/// first (newer-only, still-adjacent, receiver online), then per-copy
/// transmission of every announcement.
#[allow(clippy::too_many_arguments)]
fn shadow_tick(
    map: &mut Shadow,
    pending_event_msgs: &mut u64,
    plane: &FaultPlane,
    obs: &TickObservation<'_>,
    policy: ExchangePolicy,
) -> u64 {
    let mut msgs = std::mem::take(pending_event_msgs);
    for i_idx in 0..obs.overlay.node_count() {
        let i = NodeId::from_index(i_idx);
        for (announcer, members, sent_at) in plane.take_matured_lists(obs.tick, i) {
            if !obs.online[i_idx] || !obs.overlay.contains_edge(i, announcer) {
                continue;
            }
            let newer = map.get(&(i.0, announcer.0)).is_none_or(|&(_, at, _)| at < sent_at);
            if newer {
                map.insert((i.0, announcer.0), (members, sent_at, false));
                plane.note_late_list_applied();
            }
        }
    }
    let refresh = match policy {
        ExchangePolicy::Periodic { minutes } => {
            obs.tick.wrapping_sub(1).is_multiple_of(minutes.max(1))
        }
        ExchangePolicy::EventDriven => true,
    };
    if !refresh {
        return msgs;
    }
    let periodic = matches!(policy, ExchangePolicy::Periodic { .. });
    for j_idx in 0..obs.overlay.node_count() {
        if !obs.online[j_idx] {
            continue;
        }
        let j = NodeId::from_index(j_idx);
        if matches!(obs.report_behavior[j_idx], ReportBehavior::Silent) {
            continue;
        }
        let Some(members) = obs.frozen().announced_list(j) else { continue };
        for h in obs.overlay.neighbors(j) {
            if periodic {
                msgs += 1;
            }
            if let Some(delivered) = plane.transmit_list(obs.tick, j, h.peer, &members) {
                map.insert((h.peer.0, j.0), (delivered, obs.tick, true));
            }
        }
    }
    msgs
}

/// Where the holder index disagrees with the brute-force transpose of the
/// views (`None` = exact): for every announcer `j`, `holders_of(j)` must be
/// exactly the viewers `i` with `snapshot(i, j)`, each listed once.
fn holder_index_divergence(ex: &ExchangeState) -> Option<String> {
    for j in 0..N as u32 {
        let mut listed = ex.holders_of(NodeId(j)).to_vec();
        listed.sort_unstable();
        let holding: Vec<u32> =
            (0..N as u32).filter(|&i| ex.snapshot(NodeId(i), NodeId(j)).is_some()).collect();
        if listed != holding {
            return Some(format!("holders_of({j}) = {listed:?}, but {holding:?} hold a snapshot"));
        }
    }
    None
}

/// `reset_peer` must unlist the viewer from every announcer it held: a leak
/// there changes no view, so only the index check can see it.
#[test]
fn reset_peer_unlists_its_holders() {
    let mut g = DynamicGraph::new(N);
    g.add_edge(NodeId(0), NodeId(1));
    g.add_edge(NodeId(1), NodeId(2));
    let overlay = Overlay::new(g, &[BandwidthClass::Ethernet; N]);
    let obs = TickObservation {
        tick: 1,
        overlay: &overlay,
        online: &[true; N],
        runs_defense: &[true; N],
        report_behavior: &[ReportBehavior::Honest; N],
        list_behavior: &[ListBehavior::Truthful; N],
        faults: None,
    };
    let mut ex = ExchangeState::new(N);
    ex.on_tick(ExchangePolicy::Periodic { minutes: 1 }, &obs);
    assert_eq!(holder_index_divergence(&ex), None);
    ex.reset_peer(NodeId(1));
    assert!(ex.snapshot(NodeId(1), NodeId(0)).is_none(), "the view itself is wiped");
    assert_eq!(holder_index_divergence(&ex), None, "and so is its trace in the index");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary interleavings of ticks, adjacency churn, peer resets, and
    /// online toggles keep the dense views identical — members, announcement
    /// ticks, message counts, and fault accounting — to the naive map model,
    /// across every policy and fault mix.
    #[test]
    fn dense_views_match_hashmap_shadow(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        initial_edges in proptest::collection::vec((0..N as u32, 0..N as u32), 0..12),
        cfg in fault_strategy(),
        policy in policy_strategy(),
        silent_peer in 0..N as u32,
        padded_peer in 0..N as u32,
        seed in any::<u64>(),
    ) {
        let mut g = DynamicGraph::new(N);
        for &(u, v) in &initial_edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        let mut overlay = Overlay::new(g, &[BandwidthClass::Ethernet; N]);
        let mut online = vec![true; N];
        let runs = vec![true; N];
        let mut behavior = vec![ReportBehavior::Honest; N];
        behavior[silent_peer as usize] = ReportBehavior::Silent;
        let mut lists = vec![ListBehavior::Truthful; N];
        lists[padded_peer as usize] = ListBehavior::PadFake { extra: 2 };

        // Twin planes: same config, same seed — identical dice, separate
        // mailboxes and accounting.
        let plane_dense = FaultPlane::new(cfg.clone(), seed);
        let plane_shadow = FaultPlane::new(cfg, seed);

        let mut ex = ExchangeState::new(N);
        let mut shadow = Shadow::new();
        let mut shadow_pending = 0u64;
        let mut tick: Tick = 0;

        for op in ops {
            match op {
                Op::Tick(width) => {
                    tick += 1;
                    plane_dense.begin_tick(tick);
                    plane_shadow.begin_tick(tick);
                    let obs_dense = TickObservation {
                        tick,
                        overlay: &overlay,
                        online: &online,
                        runs_defense: &runs,
                        report_behavior: &behavior,
                        list_behavior: &lists,
                        faults: Some(&plane_dense),
                    };
                    let got = ex.on_tick_with_threads(policy, &obs_dense, width);
                    let obs_shadow = TickObservation {
                        faults: Some(&plane_shadow),
                        ..obs_dense
                    };
                    let want = shadow_tick(
                        &mut shadow, &mut shadow_pending, &plane_shadow, &obs_shadow, policy,
                    );
                    prop_assert_eq!(got, want, "message counts diverged at tick {}", tick);
                }
                Op::AddEdge(u, v) => {
                    if overlay.add_edge(NodeId(u), NodeId(v)) {
                        let (du, dv) = (overlay.degree(NodeId(u)), overlay.degree(NodeId(v)));
                        ex.on_adjacency_event(policy, du, dv);
                        if policy == ExchangePolicy::EventDriven {
                            shadow_pending += (du + dv) as u64;
                        }
                    }
                }
                Op::RemoveEdge(u, v) => {
                    if overlay.remove_edge(NodeId(u), NodeId(v)) {
                        ex.forget_edge(NodeId(u), NodeId(v));
                        shadow.remove(&(u, v));
                        shadow.remove(&(v, u));
                        let (du, dv) = (overlay.degree(NodeId(u)), overlay.degree(NodeId(v)));
                        ex.on_adjacency_event(policy, du, dv);
                        if policy == ExchangePolicy::EventDriven {
                            shadow_pending += (du + dv) as u64;
                        }
                    }
                }
                Op::ResetPeer(u) => {
                    ex.reset_peer(NodeId(u));
                    shadow.retain(|&(viewer, _), _| viewer != u);
                }
                Op::ForgetAbout(u) => {
                    ex.forget_about(NodeId(u));
                    shadow.retain(|&(_, announcer), _| announcer != u);
                }
                Op::SaveLoad => {
                    let mut enc = ddp_snapshot::Enc::new();
                    ex.save_state(&mut enc);
                    let bytes = enc.into_bytes();
                    ex = ExchangeState::load_state(&mut ddp_snapshot::Dec::new(&bytes))
                        .expect("a state just saved loads");
                    shadow.values_mut().for_each(|entry| entry.2 = false);
                }
                Op::ToggleOnline(u) => {
                    online[u as usize] = !online[u as usize];
                }
            }
            prop_assert_eq!(holder_index_divergence(&ex), None);

            // Snapshot-for-snapshot agreement over the full pair grid.
            for i in 0..N as u32 {
                for j in 0..N as u32 {
                    let dense = ex.snapshot(NodeId(i), NodeId(j));
                    let model = shadow.get(&(i, j));
                    match (dense, model) {
                        (None, None) => {}
                        (Some(s), Some((members, taken_at, _))) => {
                            prop_assert_eq!(&s.members[..], &members[..], "members for ({}, {})", i, j);
                            prop_assert_eq!(s.taken_at, *taken_at, "taken_at for ({}, {})", i, j);
                        }
                        (dense, model) => {
                            prop_assert!(
                                false,
                                "snapshot presence diverged for ({}, {}): dense={:?} model={:?}",
                                i, j, dense, model
                            );
                        }
                    }
                }
            }

            // One announcement, one buffer: everyone a refresh at tick `t`
            // delivered announcer `j`'s list to holds the same allocation.
            for j in 0..N as u32 {
                let mut first_at: HashMap<Tick, u32> = HashMap::new();
                for i in 0..N as u32 {
                    let Some(&(_, taken_at, true)) = shadow.get(&(i, j)) else { continue };
                    let first = *first_at.entry(taken_at).or_insert(i);
                    let held = |viewer| &ex.snapshot(NodeId(viewer), NodeId(j)).unwrap().members;
                    prop_assert!(
                        Arc::ptr_eq(held(first), held(i)),
                        "peers {} and {} hold separate copies of {}'s tick-{} announcement",
                        first, i, j, taken_at
                    );
                }
            }
        }
        // The bulk `lists_sent` accounting of the inert fast path must equal
        // the per-copy accounting of the naive replay, and on faulty planes
        // the loss/delay/late counters must agree draw-for-draw.
        prop_assert_eq!(plane_dense.stats(), plane_shadow.stats());
    }
}
