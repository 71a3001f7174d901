//! DD-POLICE parameters.

use crate::exchange::ExchangePolicy;
use crate::verdict::{AggregationPolicy, Hysteresis, ReadmissionPolicy};
pub use ddp_sketch::{MonitorBackend, SketchParams};

/// All protocol parameters, defaulted to the values §3.7 settles on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdPoliceConfig {
    /// Cut threshold `CT`: disconnect when an indicator exceeds it. §3.7.2:
    /// "Comprehensively considering the performance of DD-POLICE, we choose
    /// CT = 5" (false judgment is minimal for CT within 5–7).
    pub cut_threshold: f64,
    /// Warning threshold in queries/min. §3.3: "Suppose we define the
    /// warning threshold as 500 queries per minute."
    pub warning_threshold_qpm: u32,
    /// `q` of Definitions 2.1–2.3: the indicator normalizer in queries/min.
    /// The paper's constant is partially garbled in the available text
    /// ("we set q=1…"); we read it as **100**, the value that makes the
    /// evaluation coherent: with q = 100 the cut-threshold grid 1..12 of
    /// Figures 13/14 straddles both the distortion magnitudes that wrongly
    /// convict good forwarders (≈ one saturated input source, ~1,000 q/min)
    /// and the observable rates of link-capped dial-up agents (~840 q/min),
    /// reproducing the paper's error tradeoff. (With q = 10, every
    /// interesting indicator value lands far above CT = 12 and the sweep
    /// would be flat.)
    pub q_qpm: u32,
    /// Neighbor-list exchange policy. §3.7.1: periodic every 2 minutes.
    pub exchange: ExchangePolicy,
    /// Buddy-Group radius `r`. The paper evaluates `r = 1` and sketches
    /// `r > 1`; with `r >= 2` an observer cross-verifies the suspect's list
    /// with the suspect's own neighbors, which de-stales the membership view.
    pub radius: u8,
    /// Consecutive suspicious ticks after which a suspect that never
    /// produced a neighbor list is judged from the observer's own counters
    /// alone (a peer refusing the exchange step cannot hide forever).
    pub missing_list_grace: u8,
    /// §3.1's consistency check: before using a Buddy-Group member, confirm
    /// with the member that it really is the suspect's neighbor. Stops the
    /// *list-padding* evasion (phantom members raise `k` and deflate the
    /// General Indicator). On by default — the paper prescribes it.
    pub verify_lists: bool,
    /// Hardening beyond the paper: clamp a member's claimed
    /// `Q_{m→suspect}` at the physical capacity of the `m → suspect` link.
    /// Counters the *collusive inflation* attack our reproduction uncovered
    /// (a fellow agent vouches for the suspect by claiming impossible input
    /// volumes; §3.4's Case 1 analysis assumed a lone agent). Off by default
    /// — the paper's protocol does not clamp.
    pub clamp_reports_to_link: bool,
    /// On a lossy transport: how many ticks a *late* `Neighbor_Traffic`
    /// reply stays usable. A delayed reply that matures within this window
    /// still answers the lookup (with stale counters); older ones are
    /// discarded and §3.4's assume-zero rule applies. Irrelevant on the
    /// reliable transport the paper assumes.
    pub report_timeout_ticks: u32,
    /// On a lossy transport: bounded retry budget per report lookup. After a
    /// transport-faulted request/reply the observer re-requests at most this
    /// many times within the tick (each retry charged one control message)
    /// before falling back to late replies and then assume-zero. Refusals
    /// (silent or offline peers) are never retried — that is a protocol
    /// answer, not a transport failure.
    pub max_report_retries: u32,
    /// W-of-K confirmation windows before a cut. Default 1-of-1: the
    /// paper's single-window verdict, bit-identical to the pre-hysteresis
    /// protocol.
    pub hysteresis: Hysteresis,
    /// How the Buddy Group's traffic claims are combined. Default
    /// [`AggregationPolicy::Sum`]: the paper's sum-with-assume-zero.
    pub aggregation: AggregationPolicy,
    /// Quarantine/probation lifecycle after a cut. Disabled by default: the
    /// paper's disconnect is permanent.
    pub readmission: ReadmissionPolicy,
    /// Garbage-collection horizon for verdict state, in ticks. Under churn a
    /// suspect can leave before its lifecycle clocks mature; without a sweep
    /// those entries (and entries about long-departed identities) accumulate
    /// forever. When set, each observer drops (a) `Watching` entries about
    /// offline suspects, (b) matured quarantine/probation clocks whose
    /// suspect is gone, and (c) online entries whose deadline is more than
    /// this many ticks overdue. `u32::MAX` (the default) disables the sweep
    /// — the paper's static-membership behavior, byte-identical to before
    /// the field existed.
    pub suspect_ttl_ticks: u32,
    /// Which traffic-monitor backend judgments read their per-neighbor
    /// query counts from. [`MonitorBackend::Exact`] (the default) reads the
    /// overlay's exact counters, tick-for-tick identical to before the
    /// field existed; [`MonitorBackend::Sketch`] reads count-min estimates
    /// (overestimate-only; excess on the Buddy Group's claims can still
    /// hide a well-connected flooder, see DESIGN.md "indicator
    /// compression"). Note this field feeds the snapshot config
    /// digest through `Debug`, so checkpoints refuse to resume under a
    /// different backend.
    pub monitor: MonitorBackend,
}

impl Default for DdPoliceConfig {
    fn default() -> Self {
        DdPoliceConfig {
            cut_threshold: 5.0,
            warning_threshold_qpm: 500,
            q_qpm: 100,
            exchange: ExchangePolicy::default(),
            radius: 1,
            missing_list_grace: 2,
            verify_lists: true,
            clamp_reports_to_link: false,
            report_timeout_ticks: 2,
            max_report_retries: 1,
            hysteresis: Hysteresis::default(),
            aggregation: AggregationPolicy::default(),
            readmission: ReadmissionPolicy::default(),
            suspect_ttl_ticks: u32::MAX,
            monitor: MonitorBackend::Exact,
        }
    }
}

impl DdPoliceConfig {
    /// Config with a specific cut threshold (the Figure 12–14 sweeps).
    pub fn with_cut_threshold(ct: f64) -> Self {
        DdPoliceConfig { cut_threshold: ct, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DdPoliceConfig::default();
        assert_eq!(c.cut_threshold, 5.0);
        assert_eq!(c.warning_threshold_qpm, 500);
        assert_eq!(c.q_qpm, 100);
        assert_eq!(c.exchange, ExchangePolicy::Periodic { minutes: 2 });
        assert_eq!(c.radius, 1);
    }

    #[test]
    fn with_cut_threshold_overrides_only_ct() {
        let c = DdPoliceConfig::with_cut_threshold(7.0);
        assert_eq!(c.cut_threshold, 7.0);
        assert_eq!(c.warning_threshold_qpm, 500);
    }

    #[test]
    fn fault_tolerance_defaults_are_bounded() {
        let c = DdPoliceConfig::default();
        assert_eq!(c.report_timeout_ticks, 2);
        assert_eq!(c.max_report_retries, 1);
    }

    #[test]
    fn verdict_defaults_reproduce_the_paper() {
        let c = DdPoliceConfig::default();
        assert_eq!(c.hysteresis, Hysteresis { required: 1, window: 1 });
        assert_eq!(c.aggregation, AggregationPolicy::Sum);
        assert!(!c.readmission.enabled, "the paper's cut is permanent");
        assert_eq!(c.suspect_ttl_ticks, u32::MAX, "expiry sweep is opt-in");
    }
}
