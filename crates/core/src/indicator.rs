//! The General and Single indicators (Definitions 2.1–2.3).
//!
//! Both estimate `q0 / q` — the suspect's *issue* rate (not forward rate)
//! relative to the good-peer bound `q` — from per-link volume counts alone,
//! which is what lets DD-POLICE tell a flooding attacker from an innocent
//! peer that merely forwards a lot (Figure 1).

use crate::config::DdPoliceConfig;
use ddp_sim::TrafficReport;

/// Definition 2.1 — the **General Indicator** of suspect `j` at time `t`:
///
/// ```
/// use ddp_police::indicator::{general_indicator, is_bad};
///
/// // An agent issuing 20,000/min over 4 links, with light inbound traffic:
/// let g = general_indicator(4.0 * 20_000.0, 400.0, 4, 100);
/// assert!(g > 190.0 && is_bad(g, 0.0, 5.0));
///
/// // An innocent forwarder's output is explained by its input:
/// let g = general_indicator(3.0 * 1_000.0, 1_000.0, 3, 100);
/// assert!(!is_bad(g, 0.0, 5.0));
/// ```
///
/// ```text
/// g(j,t) = ( Σ_m Q_{j→m}(t) − (k−1) · Σ_m Q_{m→j}(t) ) / (k · q)
/// ```
///
/// where `m` ranges over `j`'s `k` neighbors, `Q_{a→b}` is the query volume
/// from `a` to `b` in the last minute, and `q` is the good-peer issue bound.
///
/// Intuition (the paper's Figure 2 example): with no duplicate suppression,
/// `j` sends each neighbor its own `q0` issued queries plus everything it
/// received from the *other* `k−1` neighbors, so the first sum is
/// `k·q0 + (k−1)·Σ_in`, and subtracting `(k−1)·Σ_in` isolates `k·q0`.
pub fn general_indicator(sum_out_of_suspect: f64, sum_into_suspect: f64, k: usize, q: u32) -> f64 {
    if k == 0 || q == 0 {
        return 0.0;
    }
    (sum_out_of_suspect - (k as f64 - 1.0) * sum_into_suspect) / (k as f64 * q as f64)
}

/// Definition 2.2 — the **Single Indicator** of suspect `j` measured by its
/// neighbor `i`:
///
/// ```text
/// s(j,t,i) = ( Q_{j→i}(t) − Σ_{m≠i} Q_{m→j}(t) ) / q
/// ```
///
/// Everything `j` sent to `i` beyond what `j` received from its *other*
/// neighbors must have been issued by `j` itself.
pub fn single_indicator(
    q_suspect_to_observer: f64,
    sum_into_suspect_except_observer: f64,
    q: u32,
) -> f64 {
    if q == 0 {
        return 0.0;
    }
    (q_suspect_to_observer - sum_into_suspect_except_observer) / q as f64
}

/// Definition 2.3 — classification: `j` is bad iff either indicator exceeds
/// the threshold (the paper's definition uses 1; deployments use the cut
/// threshold `CT`, studied in §3.7.2).
pub fn is_bad(g: f64, s: f64, cut_threshold: f64) -> bool {
    g > cut_threshold || s > cut_threshold
}

/// One judgment: `(g, s, over CT?)` for a suspect, from the judging peer's
/// `own` counters on their shared link and the Buddy Group's combined claims
/// (`own` included, `k` members counting the judging peer). The simulator's
/// judgment loop and the wire servent both end here.
///
/// A group of one (`k = 1`, the sums just `own`) is the own-counters-only
/// judgment of a suspect that never announced a list: nobody else's input
/// explains any of its output, so `g = s = Q_{j→i} / q`.
pub fn judge(
    own: TrafficReport,
    sum_out_of_suspect: f64,
    sum_into_suspect: f64,
    k: usize,
    cfg: &DdPoliceConfig,
) -> (f64, f64, bool) {
    let g = general_indicator(sum_out_of_suspect, sum_into_suspect, k, cfg.q_qpm);
    let s = single_indicator(
        own.received_from_suspect as f64,
        sum_into_suspect - own.sent_to_suspect as f64,
        cfg.q_qpm,
    );
    (g, s, is_bad(g, s, cfg.cut_threshold))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 worked example: peer j with k = 3 neighbors
    /// issues q0 queries and receives q1, q2, q3; with no duplication and
    /// full forwarding, both indicators evaluate to exactly q0 / q.
    #[test]
    fn figure_2_worked_example() {
        let q = 10u32;
        let (q0, q1, q2, q3) = (5_000.0, 40.0, 70.0, 25.0);
        let k = 3usize;
        // j sends to each neighbor: its own q0 plus the other two inputs.
        let out_1 = q0 + q2 + q3; // to the neighbor that sent q1
        let out_2 = q0 + q1 + q3;
        let out_3 = q0 + q1 + q2;
        let sum_out = out_1 + out_2 + out_3;
        let sum_in = q1 + q2 + q3;
        let g = general_indicator(sum_out, sum_in, k, q);
        assert!((g - q0 / q as f64).abs() < 1e-9, "g = {g}, want {}", q0 / q as f64);

        // Observer i is the neighbor that contributed q1: j sent it q0+q2+q3,
        // and the other neighbors sent j q2+q3.
        let s = single_indicator(out_1, q2 + q3, q);
        assert!((s - q0 / q as f64).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn good_peer_is_below_unity() {
        // A good peer issuing q0 <= q yields indicators <= 1 (Definition 2.3).
        let q = 10u32;
        let q0 = 8.0;
        let (q1, q2) = (300.0, 200.0);
        let k = 2usize;
        let sum_out = (q0 + q2) + (q0 + q1);
        let sum_in = q1 + q2;
        let g = general_indicator(sum_out, sum_in, k, q);
        assert!(g <= 1.0, "g = {g}");
        assert!(!is_bad(g, 0.0, 1.0));
    }

    #[test]
    fn attacker_explodes_the_indicator() {
        // Figure 1 / §3.5: an attacker issues 20,000/min.
        let q = 10u32;
        let q0 = 20_000.0;
        let k = 4usize;
        let inputs = 100.0 * k as f64;
        let sum_out = k as f64 * q0 + (k as f64 - 1.0) * inputs;
        let g = general_indicator(sum_out, inputs, k, q);
        assert!((g - 2_000.0).abs() < 1e-9);
        assert!(is_bad(g, 0.0, 5.0));
    }

    #[test]
    fn forwarder_of_attack_traffic_is_exonerated() {
        // A good peer m forwarding an attacker's 20,000 looks heavy on the
        // wire, but its inputs explain its outputs: g stays ~q0/q.
        let q = 10u32;
        let q0 = 5.0; // m's own queries
        let attack_in = 20_000.0;
        let k = 3usize;
        let other_in = 50.0;
        let sum_in = attack_in + other_in + 0.0;
        // m floods everything it received (minus per-link echo) plus its own.
        let out_to_attacker = q0 + other_in;
        let out_to_b = q0 + attack_in + 0.0;
        let out_to_c = q0 + attack_in + other_in;
        let sum_out = out_to_attacker + out_to_b + out_to_c;
        let g = general_indicator(sum_out, sum_in, k, q);
        assert!(g < 5.0, "forwarder must stay under CT: g = {g}");
        assert!(g > 0.0);
    }

    #[test]
    fn single_indicator_subtracts_other_inputs() {
        let s = single_indicator(1_000.0, 990.0, 10);
        assert!((s - 1.0).abs() < 1e-9);
        let s = single_indicator(20_000.0, 500.0, 10);
        assert!(s > 1_000.0);
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        assert_eq!(general_indicator(100.0, 50.0, 0, 10), 0.0);
        assert_eq!(general_indicator(100.0, 50.0, 3, 0), 0.0);
        assert_eq!(single_indicator(100.0, 50.0, 0), 0.0);
    }

    #[test]
    fn negative_indicators_never_trigger() {
        // Measurement distortion can push indicators negative; that must
        // never classify as bad.
        let g = general_indicator(100.0, 5_000.0, 4, 10);
        assert!(g < 0.0);
        assert!(!is_bad(g, g, 3.0));
        // Definition 2.3 cuts on an indicator that *exceeds* the threshold.
        assert!(!is_bad(5.0, 5.0, 5.0));
        assert!(is_bad(5.5, 0.0, 5.0));
        assert!(is_bad(0.0, 5.5, 5.0));
    }
}
