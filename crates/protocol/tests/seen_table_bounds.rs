//! Bound and exactness property tests for the two-generation [`SeenTable`]
//! against a `HashMap` shadow, in the style of
//! `crates/sketch/tests/error_bounds.rs`.
//!
//! The shadow is the unbounded table the servent used to have: one entry per
//! GUID, removed by `sweep` once older than the horizon. The bounded table
//! may forget a GUID early (a rotation discards the older generation whole),
//! never remember one wrongly, so the shadow follows the table's verdicts:
//! whenever the table answers `Fresh`, the shadow records that sighting as
//! the GUID's first. What is then checked, after every operation of a random
//! offer / advance-and-sweep / route sequence on a table small enough to
//! rotate many times:
//!
//! * (a) `Duplicate` only for a GUID the shadow holds live, and
//!   `reverse_route` only ever names the shadow's first sender;
//! * (b) the newest `capacity / 2` live GUIDs all read `Duplicate` and route
//!   to their exact first sender;
//! * (c) residents ≤ capacity and heap bytes ≤ `max_heap_bytes`, which is
//!   48 bytes per GUID of capacity;
//! * (d) `snapshot_entries` → `from_entries` → `snapshot_entries` is the
//!   identity, for two rebuilt tables (each draws its own hash keys);
//! * while `evicted_live()` reads 0 the table and the shadow agree on every
//!   verdict — forgetting early is never silent.
//!
//! Planted mutants, each run once by hand and recorded in CHANGES.md: with
//! the expiry check on lookup removed, (a) fails; with rotation never
//! firing, (c) fails.

use ddp_protocol::routing::Offer;
use ddp_protocol::{Guid, SeenTable};
use proptest::prelude::*;
use std::collections::HashMap;

const HORIZON: u64 = 10;

#[derive(Debug, Clone, Copy)]
enum Op {
    Offer {
        key: u64,
        from: u32,
    },
    /// Time moves on by this much, then `sweep(now)`.
    Advance(u64),
    Route {
        key: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u64..48, 0u32..5).prop_map(|(key, from)| Op::Offer { key, from }),
        1 => (0u64..8).prop_map(Op::Advance),
        2 => (0u64..48).prop_map(|key| Op::Route { key }),
    ]
}

/// The shadow's record of one GUID: its first sender, when, and the rank of
/// that sighting among all `Fresh` verdicts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct First {
    from: u32,
    seen_at: u64,
    rank: u64,
}

fn guid(key: u64) -> Guid {
    Guid::derived(1, key)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bounded_table_is_exact_about_what_it_holds(
        ops in proptest::collection::vec(arb_op(), 1..400),
        capacity in 2usize..24,
    ) {
        let mut table = SeenTable::with_capacity(HORIZON, capacity);
        let capacity = table.capacity();
        let mut shadow: HashMap<u64, First> = HashMap::new();
        let (mut now, mut rank) = (0u64, 0u64);
        for op in ops {
            match op {
                Op::Offer { key, from } => {
                    let held = shadow.get(&key).copied();
                    match table.offer(guid(key), from, now) {
                        Offer::Duplicate => prop_assert!(
                            held.is_some(),
                            "Duplicate for key {key} at {now}, which the shadow does not hold"
                        ),
                        Offer::Fresh => {
                            prop_assert!(
                                held.is_none() || table.evicted_live() > 0,
                                "key {key} forgotten inside its horizon with evicted_live() == 0"
                            );
                            rank += 1;
                            shadow.insert(key, First { from, seen_at: now, rank });
                        }
                    }
                }
                Op::Advance(by) => {
                    now += by;
                    table.sweep(now);
                    shadow.retain(|_, first| now - first.seen_at <= HORIZON);
                }
                Op::Route { key } => {
                    if let Some(from) = table.reverse_route(&guid(key)) {
                        prop_assert_eq!(Some(from), shadow.get(&key).map(|f| f.from));
                    }
                }
            }
            // (b) the newest half of the live GUIDs is resident and exact.
            let mut newest: Vec<(&u64, &First)> = shadow.iter().collect();
            newest.sort_unstable_by_key(|(_, first)| std::cmp::Reverse(first.rank));
            for (&key, first) in newest.into_iter().take(capacity / 2) {
                prop_assert_eq!(table.reverse_route(&guid(key)), Some(first.from));
                prop_assert_eq!(table.offer(guid(key), 99, now), Offer::Duplicate);
            }
            // (c) bounded whatever the sequence.
            prop_assert!(table.residents() <= capacity);
            prop_assert!(table.heap_bytes() <= table.max_heap_bytes());
            prop_assert!(table.len() <= shadow.len());
        }
        // (d) a checkpoint is exact about every entry and survives a round
        // trip through two tables with hash keys of their own.
        let snapshot = table.snapshot_entries();
        prop_assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0), "sorted, one entry per GUID");
        let by_guid: HashMap<Guid, First> = shadow.iter().map(|(&k, &f)| (guid(k), f)).collect();
        for &(g, from, seen_at) in &snapshot {
            let first = by_guid.get(&g);
            prop_assert_eq!(Some((from, seen_at)), first.map(|f| (f.from, f.seen_at)));
        }
        for _ in 0..2 {
            let rebuilt = SeenTable::from_entries(HORIZON, snapshot.iter().copied());
            prop_assert_eq!(&rebuilt.snapshot_entries(), &snapshot);
        }
    }
}

#[test]
fn stated_heap_bound_is_48_bytes_per_guid_of_capacity() {
    for capacity in [16, 1 << 10, SeenTable::DEFAULT_CAPACITY] {
        assert_eq!(SeenTable::with_capacity(HORIZON, capacity).max_heap_bytes(), capacity * 48);
    }
    assert_eq!(SeenTable::new(600).capacity(), 131_072);
    assert_eq!(SeenTable::new(600).heap_bytes(), 0, "an idle table owns no heap");
}

/// A checkpoint written by the unbounded table can hold far more GUIDs than
/// the bounded one does: loading it keeps the most recently seen.
#[test]
fn an_oversized_checkpoint_loads_keeping_the_newest() {
    let capacity = SeenTable::DEFAULT_CAPACITY as u64;
    let total = 3 * capacity;
    // Checkpoints are sorted by GUID, not by time.
    let mut entries: Vec<(Guid, u32, u64)> =
        (0..total).map(|i| (guid(i), (i % 7) as u32, i / 1_000)).collect();
    entries.sort_unstable_by_key(|&(g, ..)| g);
    let table = SeenTable::from_entries(600, entries);
    assert_eq!(table.residents() as u64, capacity);
    assert!(table.heap_bytes() <= table.max_heap_bytes());
    // Entries of one second are ordered by GUID, so only whole seconds are
    // certain: everything seen after the cut-off second is there, nothing
    // seen before it is.
    let cutoff = (total - capacity) / 1_000;
    for i in (0..total).step_by(97) {
        let route = table.reverse_route(&guid(i));
        match (i / 1_000).cmp(&cutoff) {
            std::cmp::Ordering::Greater => assert_eq!(route, Some((i % 7) as u32), "entry {i}"),
            std::cmp::Ordering::Less => assert_eq!(route, None, "entry {i}"),
            std::cmp::Ordering::Equal => {}
        }
    }
}
