//! Metamorphic properties of the §2 indicators.
//!
//! Four relations the formulas must satisfy for *any* inputs, not just the
//! paper's worked example:
//!
//! 1. **Permutation invariance** — a Buddy Group is a set; reordering the
//!    member reports cannot change `g` or `s` by a single bit. (The engine
//!    relies on this when it caches per-suspect sums in CSR order.)
//! 2. **Linearity in `q0`** — a suspect that originates twice the queries
//!    scores twice the indicator; superposition holds to 1 ulp (one
//!    correctly-rounded division is the only inexact step).
//! 3. **The Figure 2 identity** — under full forwarding with self-origin
//!    `q0`, both indicators equal `q0 / q` *bit-exactly*, for every group
//!    size `k >= 2`, not just the figure's `k = 3`: the integer sums are
//!    exact in f64 and IEEE division rounds the same rational value the
//!    same way on both sides.
//! 4. **A group of one** — the judgment kernel fed an empty member list is
//!    bit-exactly the own-counters closed form (`k = 1`, nobody else's
//!    input to subtract) under every aggregation policy: the judgment of a
//!    suspect that never announced a list needs no branch of its own.

use ddp_police::indicator::{general_indicator, is_bad, judge, single_indicator};
use ddp_police::{aggregate_group_traffic, group_traffic_sums, AggregationPolicy, DdPoliceConfig};
use ddp_sim::TrafficReport;
use proptest::prelude::*;

fn report(sent: u32, received: u32) -> TrafficReport {
    TrafficReport { sent_to_suspect: sent, received_from_suspect: received }
}

/// Equal within one unit in the last place.
fn ulp_eq(a: f64, b: f64) -> bool {
    a == b
        || (a.is_sign_positive() == b.is_sign_positive() && a.to_bits().abs_diff(b.to_bits()) <= 1)
}

/// The Figure 2 "full forwarding" model, generalized: suspect `j` has the
/// `k` members as its neighbors, originates `q0` queries itself, and
/// forwards every query received from one member to all the others. Returns
/// `(g, s_for_member_0)`.
fn figure2_indicators(q0: u32, member_inputs: &[u32], q: u32) -> (f64, f64) {
    let k = member_inputs.len();
    let total_in: u64 = member_inputs.iter().map(|&v| u64::from(v)).sum();
    // out_i = q0 + sum of every *other* member's input.
    let out_of = |i: usize| u64::from(q0) + total_in - u64::from(member_inputs[i]);
    let sum_out: u64 = (0..k).map(out_of).sum();
    let g = general_indicator(sum_out as f64, total_in as f64, k, q);
    let s = single_indicator(out_of(0) as f64, (total_in - u64::from(member_inputs[0])) as f64, q);
    (g, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Relation 1: member order is invisible. Reports are permuted by
    /// sorting on generated keys (an arbitrary permutation), and the sums
    /// and both indicators must agree bit-for-bit — integer-valued f64
    /// addition below 2^53 is exact, hence order-independent.
    #[test]
    fn indicators_invariant_under_member_permutation(
        own in (0u32..50_000, 0u32..50_000),
        members in prop::collection::vec((0u32..50_000, 0u32..50_000, any::<u64>()), 0..16),
        q in 1u32..2_000,
    ) {
        let original: Vec<Option<TrafficReport>> =
            members.iter().map(|&(s, r, _)| Some(report(s, r))).collect();
        let mut keyed: Vec<&(u32, u32, u64)> = members.iter().collect();
        keyed.sort_by_key(|&&(_, _, key)| key);
        let permuted: Vec<Option<TrafficReport>> =
            keyed.iter().map(|&&(s, r, _)| Some(report(s, r))).collect();

        let own = report(own.0, own.1);
        let (out_a, into_a) = group_traffic_sums(own, &original);
        let (out_b, into_b) = group_traffic_sums(own, &permuted);
        prop_assert_eq!(out_a.to_bits(), out_b.to_bits());
        prop_assert_eq!(into_a.to_bits(), into_b.to_bits());

        let k = members.len() + 1;
        prop_assert_eq!(
            general_indicator(out_a, into_a, k, q).to_bits(),
            general_indicator(out_b, into_b, k, q).to_bits()
        );
        let own_in = own.received_from_suspect as f64;
        let except_own = |into: f64| into - own.sent_to_suspect as f64;
        prop_assert_eq!(
            single_indicator(own_in, except_own(into_a), q).to_bits(),
            single_indicator(own_in, except_own(into_b), q).to_bits()
        );
    }

    /// Relation 2: superposition in the origination rate. Two suspects
    /// originating `a` and `b` on top of the same forwarded load score
    /// indicators summing (to 1 ulp) to the indicator of one suspect
    /// originating `a + b` — the indicator measures origination linearly.
    #[test]
    fn figure2_indicators_linear_in_q0(
        a in 0u32..1_000_000,
        b in 0u32..1_000_000,
        member_inputs in prop::collection::vec(0u32..50_000, 2..10),
        q in 1u32..2_000,
    ) {
        // Forwarded load contributes identically to all three scenarios and
        // cancels in the indicators, so only the origins need relating.
        let zeros = vec![0u32; member_inputs.len()];
        let (g_a, s_a) = figure2_indicators(a, &zeros, q);
        let (g_b, s_b) = figure2_indicators(b, &zeros, q);
        let (g_ab, s_ab) = figure2_indicators(a + b, &member_inputs, q);
        let (g_fwd, s_fwd) = figure2_indicators(0, &member_inputs, q);
        prop_assert_eq!(g_fwd.to_bits(), 0f64.to_bits(), "pure forwarding scores zero");
        prop_assert_eq!(s_fwd.to_bits(), 0f64.to_bits(), "pure forwarding scores zero");
        prop_assert!(
            ulp_eq(g_ab, g_a + g_b),
            "g({}) = {g_ab:?} but g({a}) + g({b}) = {:?}", a + b, g_a + g_b
        );
        prop_assert!(
            ulp_eq(s_ab, s_a + s_b),
            "s({}) = {s_ab:?} but s({a}) + s({b}) = {:?}", a + b, s_a + s_b
        );
    }

    /// Relation 3: the Figure 2 identity `g = s = q0 / q`, bit-exact, for
    /// arbitrary group size `k >= 2` and arbitrary member inputs — the
    /// figure's `k = 3, q = 10` table is one point of this surface.
    #[test]
    fn figure2_identity_holds_for_any_group_size(
        q0 in 0u32..20_000_000,
        member_inputs in prop::collection::vec(0u32..1_000_000, 2..12),
        q in 1u32..100_000,
    ) {
        let (g, s) = figure2_indicators(q0, &member_inputs, q);
        let expected = q0 as f64 / q as f64;
        prop_assert_eq!(
            g.to_bits(), expected.to_bits(),
            "g = {g:?}, q0/q = {expected:?} (k = {})", member_inputs.len()
        );
        prop_assert_eq!(
            s.to_bits(), expected.to_bits(),
            "s = {s:?}, q0/q = {expected:?} (k = {})", member_inputs.len()
        );
    }

    /// Relation 4: with no other member, every policy's sums are the
    /// observer's own counters, and the kernel reproduces
    /// `g = general_indicator(recv, sent, 1, q)`, `s = single_indicator(recv,
    /// 0, q)` to the bit — over the whole `u32` counter range, `q = 0`
    /// included.
    #[test]
    fn empty_member_list_is_the_own_counters_closed_form(
        sent in any::<u32>(),
        recv in any::<u32>(),
        q in 0u32..100_000,
        ct_tenths in 0u32..1_000,
        trim_percent in 0u32..50,
    ) {
        let own = report(sent, recv);
        let (ct, trim) = (ct_tenths as f64 / 10.0, trim_percent as f64 / 100.0);
        let cfg = DdPoliceConfig { q_qpm: q, cut_threshold: ct, ..DdPoliceConfig::default() };
        let want_g = general_indicator(recv as f64, sent as f64, 1, q);
        let want_s = single_indicator(recv as f64, 0.0, q);
        for policy in [
            AggregationPolicy::Sum,
            AggregationPolicy::Median,
            AggregationPolicy::TrimmedMean { trim },
        ] {
            let (sum_out, sum_in) = aggregate_group_traffic(own, &[], policy);
            let (g, s, over_ct) = judge(own, sum_out, sum_in, 1, &cfg);
            prop_assert_eq!(g.to_bits(), want_g.to_bits(), "g under {:?}", policy);
            prop_assert_eq!(s.to_bits(), want_s.to_bits(), "s under {:?}", policy);
            prop_assert_eq!(over_ct, is_bad(want_g, want_s, ct));
        }
    }
}

/// The paper's own numbers (Figure 2: k = 3, q = 10, member inputs
/// 40/70/25), pinned as a spot check of the generalized model above.
#[test]
fn figure2_worked_example_is_a_point_of_the_identity() {
    for q0 in [5, 100, 5_000, 20_000] {
        let (g, s) = figure2_indicators(q0, &[40, 70, 25], 10);
        assert_eq!(g, q0 as f64 / 10.0);
        assert_eq!(s, q0 as f64 / 10.0);
    }
}
