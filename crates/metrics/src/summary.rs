//! Whole-run summary, the unit the experiment harness tabulates.

use crate::jsonio::JsonObj;
use crate::{DetectionErrors, ResilienceSummary, TimeSeries, VerdictSummary};
use serde::{Deserialize, Serialize};

/// Aggregated results of one simulation run.
///
/// `Debug` is hand-written (not derived) so the default `monitor_backend:
/// None` renders *nothing*: the frozen differential digests hash
/// `format!("{result:?}")`, and exact-backend runs must keep producing the
/// exact bytes they produced before the field existed.
#[derive(Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunSummary {
    /// Mean `S(t)` over the run (fraction, 0..=1).
    pub success_rate_mean: f64,
    /// `S(t)` over the last quarter of the run (stabilized value).
    pub success_rate_stable: f64,
    /// Mean response time of successful queries, seconds.
    pub response_time_mean_secs: f64,
    /// 95th-percentile response time of successful queries, seconds
    /// (streaming P² estimate; 0 when the producer does not track it).
    pub response_p95_secs: f64,
    /// Mean total message transmissions per tick.
    pub traffic_per_tick: f64,
    /// Mean defense control messages per tick.
    pub control_per_tick: f64,
    /// Mean drop fraction.
    pub drop_rate_mean: f64,
    /// Detection errors accumulated over the run.
    pub errors: DetectionErrors,
    /// Number of attacker disconnection events.
    pub attackers_cut: u64,
    /// Attackers that were never disconnected even once during the run.
    pub attackers_never_cut: u64,
    /// Number of good-peer disconnection events (defense mistakes).
    pub good_peers_cut: u64,
    /// Control-plane fault / assume-zero accounting (all zeros outside the
    /// fault-injected runs; populated by the engine's fault plane).
    pub resilience: ResilienceSummary,
    /// Verdict-lifecycle accounting (all zeros for defenses that never
    /// transition anyone; populated by the engine's verdict ledger).
    pub verdicts: VerdictSummary,
    /// Traffic-monitor backend label (e.g. `"sketch(w=2^16,d=4)"`),
    /// stamped by the engine from the defense so BENCH rows and summaries
    /// are attributable per backend. `None` means the exact default and is
    /// omitted from both `Debug` and JSON renderings — byte-compatible with
    /// summaries written before the field existed.
    pub monitor_backend: Option<String>,
    /// Ticks simulated.
    pub ticks: usize,
}

impl std::fmt::Debug for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("RunSummary");
        d.field("success_rate_mean", &self.success_rate_mean)
            .field("success_rate_stable", &self.success_rate_stable)
            .field("response_time_mean_secs", &self.response_time_mean_secs)
            .field("response_p95_secs", &self.response_p95_secs)
            .field("traffic_per_tick", &self.traffic_per_tick)
            .field("control_per_tick", &self.control_per_tick)
            .field("drop_rate_mean", &self.drop_rate_mean)
            .field("errors", &self.errors)
            .field("attackers_cut", &self.attackers_cut)
            .field("attackers_never_cut", &self.attackers_never_cut)
            .field("good_peers_cut", &self.good_peers_cut)
            .field("resilience", &self.resilience)
            .field("verdicts", &self.verdicts);
        if let Some(backend) = &self.monitor_backend {
            d.field("monitor_backend", backend);
        }
        d.field("ticks", &self.ticks).finish()
    }
}

impl RunSummary {
    /// Compact JSON rendering with a fixed field order (the schema contract;
    /// pinned byte-for-byte by a golden-fixture test). The `serde` shim in
    /// this workspace is inert, so this is the canonical serialization.
    pub fn to_json(&self) -> String {
        let errors = JsonObj::new()
            .u64("false_negative", self.errors.false_negative)
            .u64("false_positive", self.errors.false_positive)
            .finish();
        let r = &self.resilience;
        let resilience = JsonObj::new()
            .u64("reports_requested", r.reports_requested)
            .u64("reports_fresh", r.reports_fresh)
            .u64("reports_stale_used", r.reports_stale_used)
            .u64("reports_refused", r.reports_refused)
            .u64("reports_assumed_zero", r.reports_assumed_zero)
            .u64("report_retries", r.report_retries)
            .u64("lists_sent", r.lists_sent)
            .u64("lists_lost", r.lists_lost)
            .u64("lists_delayed", r.lists_delayed)
            .u64("lists_late_applied", r.lists_late_applied)
            .u64("crash_restarts", r.crash_restarts)
            .f64("snapshot_age_mean", r.mean_snapshot_age())
            .finish();
        let v = &self.verdicts;
        let verdicts = JsonObj::new()
            .u64("transitions", v.transitions)
            .u64("cuts", v.cuts)
            .u64("quarantines", v.quarantines)
            .u64("readmission_probes", v.readmission_probes)
            .u64("readmissions", v.readmissions)
            .u64("recuts", v.recuts)
            .u64("wrongful_cuts", v.wrongful_cuts)
            .u64("wrongful_cut_ticks_total", v.wrongful_cut_ticks_total)
            .f64("wrongful_cut_ticks_mean", v.wrongful_cut_ticks_mean)
            .f64("readmission_latency_mean_ticks", v.readmission_latency_mean_ticks)
            .finish();
        let mut obj = JsonObj::new()
            .str("schema", "ddp-run-summary/v1")
            .f64("success_rate_mean", self.success_rate_mean)
            .f64("success_rate_stable", self.success_rate_stable)
            .f64("response_time_mean_secs", self.response_time_mean_secs)
            .f64("response_p95_secs", self.response_p95_secs)
            .f64("traffic_per_tick", self.traffic_per_tick)
            .f64("control_per_tick", self.control_per_tick)
            .f64("drop_rate_mean", self.drop_rate_mean)
            .raw("errors", &errors)
            .u64("attackers_cut", self.attackers_cut)
            .u64("attackers_never_cut", self.attackers_never_cut)
            .u64("good_peers_cut", self.good_peers_cut)
            .raw("resilience", &resilience)
            .raw("verdicts", &verdicts);
        // Omitted (not null) for the exact default: the v1 schema bytes are
        // pinned by a golden fixture and must stay reproducible.
        if let Some(backend) = &self.monitor_backend {
            obj = obj.str("monitor_backend", backend);
        }
        obj.u64("ticks", self.ticks as u64).finish()
    }
}

/// The per-tick series of one run, for time-resolved figures (Figure 12).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunSeries {
    pub success_rate: TimeSeries,
    pub response_time: TimeSeries,
    pub traffic: TimeSeries,
    pub control_traffic: TimeSeries,
    pub drop_rate: TimeSeries,
}

impl RunSeries {
    /// Create empty, named series.
    pub fn new() -> Self {
        RunSeries {
            success_rate: TimeSeries::new("success_rate"),
            response_time: TimeSeries::new("response_time_secs"),
            traffic: TimeSeries::new("traffic_msgs"),
            control_traffic: TimeSeries::new("control_msgs"),
            drop_rate: TimeSeries::new("drop_rate"),
        }
    }

    /// Ticks recorded.
    pub fn len(&self) -> usize {
        self.success_rate.len()
    }

    /// Whether nothing is recorded yet.
    pub fn is_empty(&self) -> bool {
        self.success_rate.is_empty()
    }

    /// Summarize the series (errors and cut counts supplied by the engine).
    pub fn summarize(
        &self,
        errors: DetectionErrors,
        attackers_cut: u64,
        good_peers_cut: u64,
    ) -> RunSummary {
        let ticks = self.len();
        let stable_window = (ticks / 4).max(1);
        RunSummary {
            success_rate_mean: self.success_rate.mean(),
            success_rate_stable: self.success_rate.tail_mean(stable_window),
            response_time_mean_secs: self.response_time.mean(),
            response_p95_secs: 0.0,
            traffic_per_tick: self.traffic.mean(),
            control_per_tick: self.control_traffic.mean(),
            drop_rate_mean: self.drop_rate.mean(),
            errors,
            attackers_cut,
            attackers_never_cut: 0,
            good_peers_cut,
            resilience: ResilienceSummary::default(),
            verdicts: VerdictSummary::default(),
            monitor_backend: None,
            ticks,
        }
    }
}

impl ddp_snapshot::Snapshottable for RunSeries {
    fn save(&self, enc: &mut ddp_snapshot::Enc) {
        enc.put(&self.success_rate);
        enc.put(&self.response_time);
        enc.put(&self.traffic);
        enc.put(&self.control_traffic);
        enc.put(&self.drop_rate);
    }

    fn load(dec: &mut ddp_snapshot::Dec<'_>) -> Result<Self, ddp_snapshot::SnapshotError> {
        Ok(RunSeries {
            success_rate: dec.get()?,
            response_time: dec.get()?,
            traffic: dec.get()?,
            control_traffic: dec.get()?,
            drop_rate: dec.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_uses_tail_for_stable_rate() {
        let mut s = RunSeries::new();
        for v in [0.2, 0.2, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9] {
            s.success_rate.push(v);
            s.response_time.push(1.0);
            s.traffic.push(100.0);
            s.control_traffic.push(5.0);
            s.drop_rate.push(0.0);
        }
        let sum = s.summarize(DetectionErrors::default(), 2, 1);
        assert!(sum.success_rate_stable > sum.success_rate_mean);
        assert_eq!(sum.attackers_cut, 2);
        assert_eq!(sum.good_peers_cut, 1);
        assert_eq!(sum.ticks, 8);
    }

    #[test]
    fn empty_series_summary_is_default_like() {
        let s = RunSeries::new();
        let sum = s.summarize(DetectionErrors::default(), 0, 0);
        assert_eq!(sum.ticks, 0);
        assert_eq!(sum.success_rate_mean, 0.0);
    }
}

/// Mean and a 95% confidence half-width over replicate samples (normal
/// approximation; for the small replicate counts experiments use, treat the
/// interval as indicative, not exact).
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
    let half = 1.96 * (var / n as f64).sqrt();
    (mean, half)
}

#[cfg(test)]
mod ci_tests {
    use super::mean_ci95;

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
        assert_eq!(mean_ci95(&[3.5]), (3.5, 0.0));
    }

    #[test]
    fn constant_samples_have_zero_width() {
        let (m, h) = mean_ci95(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(m, 2.0);
        assert_eq!(h, 0.0);
    }

    #[test]
    fn spread_widens_the_interval() {
        let (_, tight) = mean_ci95(&[10.0, 10.1, 9.9, 10.0]);
        let (_, wide) = mean_ci95(&[5.0, 15.0, 2.0, 18.0]);
        assert!(wide > tight);
    }
}
