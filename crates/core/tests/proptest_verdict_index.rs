//! Property test: the `VerdictMachine`'s suspect → observers index against
//! the brute-force transpose of its entries — the twin of the holder-index
//! check in `proptest_exchange_dense.rs`.
//!
//! `forget_suspect` visits only the observers the index lists, so the index
//! must be *exact* after every mutation: entries are created by `judged` and
//! `note_list_missing`, dropped by `judged` (cut, or nothing worth
//! remembering), `below_warning`, `expire_probations`, `expire_stale`,
//! `forget_edge`, `reset_observer` and `forget_suspect`, and re-derived by
//! `load_state`. Random op sequences drive two machines in lockstep, every
//! per-observer op routed through [`VerdictMachine::shards`] and the shards'
//! edit logs replayed in partition order, exactly as a tick does: `serial` in
//! one shard over all observers, `sharded` in 2 or 4. After every op both must
//! hold the same entries and both indexes must equal the transpose.
//!
//! Each observer's entries are one row kept strictly ascending by suspect id
//! (lookups binary-search it, and the snapshot writes it as it is), so after
//! every op each row must also be strictly ascending and save → load → save
//! must give identical bytes.

use ddp_police::verdict::VerdictShard;
use ddp_police::{Hysteresis, ReadmissionPolicy, VerdictMachine};
use ddp_sim::{Actions, Tick};
use ddp_topology::NodeId;
use proptest::prelude::*;

const N: usize = 8;

/// An operation on one observer's state — the set a [`VerdictShard`] offers.
#[derive(Debug, Clone, Copy)]
enum ObserverOp {
    Judged { suspect: u32, over_ct: bool },
    NoteListMissing { suspect: u32 },
    NoteListOk { suspect: u32 },
    BelowWarning { suspect: u32 },
    FireProbes,
    ExpireProbations,
    ExpireStale { ttl: Tick },
}

#[derive(Debug, Clone)]
enum Op {
    /// Per-observer ops, run in one shard session of this width on the
    /// sharded twin and of width 1 on the serial one (so a shard's edit log
    /// spans several calls).
    Burst(usize, Vec<(u32, ObserverOp)>),
    AdvanceTick,
    ToggleOnline(u32),
    ForgetEdge(u32, u32),
    ResetObserver(u32),
    ForgetSuspect(u32),
    SaveLoad,
}

fn observer_op_strategy() -> impl Strategy<Value = (u32, ObserverOp)> {
    let n = N as u32;
    let op = prop_oneof![
        6 => (0..n, any::<bool>())
            .prop_map(|(suspect, over_ct)| ObserverOp::Judged { suspect, over_ct }),
        2 => (0..n).prop_map(|suspect| ObserverOp::NoteListMissing { suspect }),
        1 => (0..n).prop_map(|suspect| ObserverOp::NoteListOk { suspect }),
        2 => (0..n).prop_map(|suspect| ObserverOp::BelowWarning { suspect }),
        2 => Just(ObserverOp::FireProbes),
        2 => Just(ObserverOp::ExpireProbations),
        1 => (0u32..4).prop_map(|ttl| ObserverOp::ExpireStale { ttl }),
    ];
    (0..n, op)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let n = N as u32;
    prop_oneof![
        8 => (
            prop_oneof![Just(2usize), Just(4)],
            proptest::collection::vec(observer_op_strategy(), 1..10),
        )
            .prop_map(|(width, ops)| Op::Burst(width, ops)),
        3 => Just(Op::AdvanceTick),
        1 => (0..n).prop_map(Op::ToggleOnline),
        2 => (0..n, 0..n).prop_map(|(u, v)| Op::ForgetEdge(u, v)),
        1 => (0..n).prop_map(Op::ResetObserver),
        2 => (0..n).prop_map(Op::ForgetSuspect),
        1 => Just(Op::SaveLoad),
    ]
}

/// The policies and clock every op of a case runs under.
#[derive(Debug, Clone, Copy)]
struct Ctx {
    tick: Tick,
    hysteresis: Hysteresis,
    readmission: ReadmissionPolicy,
}

/// Apply one per-observer op to the shard holding `observer`.
fn apply_observer_op(
    shard: &mut VerdictShard<'_>,
    observer: NodeId,
    op: ObserverOp,
    ctx: Ctx,
    online: &[bool],
    actions: &mut Actions,
) {
    match op {
        ObserverOp::Judged { suspect, over_ct } => {
            shard.judged(
                observer,
                NodeId(suspect),
                over_ct,
                ctx.tick,
                ctx.hysteresis,
                ctx.readmission,
                actions,
            );
        }
        ObserverOp::NoteListMissing { suspect } => {
            shard.note_list_missing(observer, NodeId(suspect));
        }
        ObserverOp::NoteListOk { suspect } => shard.note_list_ok(observer, NodeId(suspect)),
        ObserverOp::BelowWarning { suspect } => shard.below_warning(observer, NodeId(suspect)),
        ObserverOp::FireProbes => shard.fire_probes(observer, ctx.tick, ctx.readmission, actions),
        ObserverOp::ExpireProbations => shard.expire_probations(observer, ctx.tick, actions),
        ObserverOp::ExpireStale { ttl } => {
            shard.expire_stale(observer, ctx.tick, ttl, online);
        }
    }
}

/// Run `ops` through one shard session of `width` even partitions, then
/// replay the shards' index-edit logs in partition order.
fn apply_sharded(
    m: &mut VerdictMachine,
    width: usize,
    ops: &[(u32, ObserverOp)],
    ctx: Ctx,
    online: &[bool],
) {
    let step = N / width;
    let bounds: Vec<usize> = (0..=width).map(|p| p * step).collect();
    let mut actions = Actions::default();
    let mut shards = m.shards(&bounds);
    for &(observer, op) in ops {
        let shard = &mut shards[observer as usize / step];
        apply_observer_op(shard, NodeId(observer), op, ctx, online, &mut actions);
    }
    let logs: Vec<_> = shards.into_iter().map(VerdictShard::into_index_edits).collect();
    for log in logs {
        m.replay_index_edits(log);
    }
}

/// Where the index disagrees with the brute-force transpose of the entries
/// (`None` = exact).
fn index_divergence(m: &VerdictMachine) -> Option<String> {
    let mut listed_total = 0;
    for s in 0..N as u32 {
        let mut listed = m.holders_of(NodeId(s)).to_vec();
        listed.sort_unstable();
        let holding: Vec<u32> =
            (0..N as u32).filter(|&o| m.entry(NodeId(o), NodeId(s)).is_some()).collect();
        if listed != holding {
            return Some(format!("holders_of({s}) = {listed:?}, but {holding:?} hold an entry"));
        }
        if m.entries_about(NodeId(s)) != holding.len() {
            return Some(format!("entries_about({s}) miscounts {holding:?}"));
        }
        listed_total += listed.len();
    }
    (listed_total != m.total_entries())
        .then(|| format!("{listed_total} listed, {} entries", m.total_entries()))
}

fn saved(m: &VerdictMachine) -> Vec<u8> {
    let mut enc = ddp_snapshot::Enc::new();
    m.save_state(&mut enc);
    enc.into_bytes()
}

/// Where a row is out of order or save → load → save changes a byte
/// (`None` = neither).
fn row_divergence(m: &VerdictMachine) -> Option<String> {
    for o in 0..N as u32 {
        let row = m.entries_of(NodeId(o));
        if let Some(w) = row.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Some(format!("observer {o}'s row has {} before {}", w[0].0, w[1].0));
        }
    }
    let bytes = saved(m);
    match VerdictMachine::load_state(&mut ddp_snapshot::Dec::new(&bytes)) {
        Ok(back) => (saved(&back) != bytes).then(|| "save → load → save moved a byte".into()),
        Err(e) => Some(format!("a state just saved does not load: {e:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn index_equals_transpose_serial_and_sharded(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        two_of_three in any::<bool>(),
        readmit in any::<bool>(),
        backoff in 1u32..3,
    ) {
        let mut ctx = Ctx {
            tick: 1,
            hysteresis: if two_of_three {
                Hysteresis { required: 2, window: 3 }
            } else {
                Hysteresis::default()
            },
            readmission: ReadmissionPolicy {
                enabled: readmit,
                base_backoff_ticks: backoff,
                max_backoff_ticks: 8,
                probation_ticks: 2,
            },
        };
        let mut online = vec![true; N];
        let mut serial = VerdictMachine::new(N);
        let mut sharded = VerdictMachine::new(N);

        for op in ops {
            match op {
                Op::Burst(width, ops) => {
                    apply_sharded(&mut serial, 1, &ops, ctx, &online);
                    apply_sharded(&mut sharded, width, &ops, ctx, &online);
                }
                Op::AdvanceTick => ctx.tick += 1,
                Op::ToggleOnline(u) => online[u as usize] = !online[u as usize],
                Op::ForgetEdge(u, v) => {
                    serial.forget_edge(NodeId(u), NodeId(v));
                    sharded.forget_edge(NodeId(u), NodeId(v));
                }
                Op::ResetObserver(u) => {
                    serial.reset_observer(NodeId(u));
                    sharded.reset_observer(NodeId(u));
                }
                Op::ForgetSuspect(u) => {
                    serial.forget_suspect(NodeId(u));
                    sharded.forget_suspect(NodeId(u));
                    prop_assert_eq!(serial.entries_about(NodeId(u)), 0);
                }
                Op::SaveLoad => {
                    for m in [&mut serial, &mut sharded] {
                        let bytes = saved(m);
                        *m = VerdictMachine::load_state(&mut ddp_snapshot::Dec::new(&bytes))
                            .expect("a state just saved loads");
                    }
                }
            }
            prop_assert_eq!(index_divergence(&serial), None, "serial machine");
            prop_assert_eq!(index_divergence(&sharded), None, "sharded machine");
            prop_assert_eq!(row_divergence(&serial), None, "serial machine");
            prop_assert_eq!(row_divergence(&sharded), None, "sharded machine");
            for o in 0..N as u32 {
                prop_assert_eq!(
                    serial.entries_of(NodeId(o)),
                    sharded.entries_of(NodeId(o)),
                    "observer {} diverged between the serial and shard paths", o
                );
            }
        }
    }
}
