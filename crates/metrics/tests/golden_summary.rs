//! Golden-fixture pin for the `RunSummary` JSON schema.
//!
//! The workspace has no real serde, so `RunSummary::to_json` *is* the schema.
//! This test compares the rendered bytes of a fully-populated summary against
//! a committed fixture; any field rename, reorder, or format change fails.
//! To regenerate after an intentional schema change:
//!
//! ```text
//! DDP_BLESS=1 cargo test -p ddp-metrics --test golden_summary
//! ```

use ddp_metrics::{DetectionErrors, ResilienceSummary, RunSummary, VerdictSummary};

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/run_summary.golden.json")
}

/// A summary with every field non-default, so a dropped field can't hide.
fn populated_summary() -> RunSummary {
    let mut resilience = ResilienceSummary {
        reports_requested: 10,
        reports_fresh: 7,
        reports_stale_used: 1,
        reports_refused: 1,
        reports_assumed_zero: 1,
        report_retries: 3,
        lists_sent: 40,
        lists_lost: 4,
        lists_delayed: 2,
        lists_late_applied: 1,
        crash_restarts: 1,
        ..Default::default()
    };
    resilience.snapshot_age.record(0.0);
    resilience.snapshot_age.record(2.0);
    RunSummary {
        success_rate_mean: 0.875,
        success_rate_stable: 0.9,
        response_time_mean_secs: 1.5,
        response_p95_secs: 3.25,
        traffic_per_tick: 1024.0,
        control_per_tick: 36.5,
        drop_rate_mean: 0.0625,
        errors: DetectionErrors { false_negative: 2, false_positive: 1 },
        attackers_cut: 5,
        attackers_never_cut: 1,
        good_peers_cut: 2,
        resilience,
        verdicts: VerdictSummary {
            transitions: 12,
            cuts: 5,
            quarantines: 5,
            readmission_probes: 2,
            readmissions: 1,
            recuts: 1,
            wrongful_cuts: 2,
            wrongful_cut_ticks_total: 6,
            wrongful_cut_ticks_mean: 3.0,
            readmission_latency_mean_ticks: 4.5,
        },
        monitor_backend: None,
        ticks: 30,
    }
}

#[test]
fn run_summary_json_matches_golden_fixture() {
    let rendered = populated_summary().to_json();
    let path = fixture_path();
    if std::env::var_os("DDP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{rendered}\n")).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with DDP_BLESS=1", path.display())
    });
    assert_eq!(
        rendered,
        golden.trim_end(),
        "RunSummary::to_json drifted from the committed schema fixture"
    );
}

#[test]
fn run_summary_json_is_parseable_shape() {
    // Cheap structural sanity independent of the fixture: balanced braces,
    // all top-level keys present in declaration order.
    let s = populated_summary().to_json();
    assert!(s.starts_with('{') && s.ends_with('}'));
    assert_eq!(s.matches('{').count(), s.matches('}').count());
    let keys = [
        "\"schema\":",
        "\"success_rate_mean\":",
        "\"success_rate_stable\":",
        "\"response_time_mean_secs\":",
        "\"response_p95_secs\":",
        "\"traffic_per_tick\":",
        "\"control_per_tick\":",
        "\"drop_rate_mean\":",
        "\"errors\":",
        "\"attackers_cut\":",
        "\"attackers_never_cut\":",
        "\"good_peers_cut\":",
        "\"resilience\":",
        "\"verdicts\":",
        "\"ticks\":",
    ];
    let mut last = 0;
    for k in keys {
        let pos = s.find(k).unwrap_or_else(|| panic!("missing key {k}"));
        assert!(pos > last || last == 0, "key {k} out of order");
        last = pos;
    }
    // Default summary must serialize too (all-zero path, NaN-free).
    let d = RunSummary::default().to_json();
    assert!(d.contains("\"ticks\":0"));
}

#[test]
fn monitor_backend_is_omitted_when_none_and_attributable_when_some() {
    // None (the exact default) renders byte-identically to pre-field
    // summaries — neither JSON nor Debug may mention it, or the frozen
    // differential digests and this file's golden fixture would shift.
    let none = populated_summary();
    assert!(!none.to_json().contains("monitor_backend"));
    assert!(!format!("{none:?}").contains("monitor_backend"));

    let mut tagged = populated_summary();
    tagged.monitor_backend = Some("sketch(w=2^16,d=4)".into());
    let json = tagged.to_json();
    assert!(
        json.contains("\"monitor_backend\":\"sketch(w=2^16,d=4)\""),
        "sketch rows must be attributable: {json}"
    );
    // Field order contract: after verdicts, before ticks.
    let pos = json.find("\"monitor_backend\":").unwrap();
    assert!(pos > json.find("\"verdicts\":").unwrap());
    assert!(pos < json.find("\"ticks\":").unwrap());
    assert!(format!("{tagged:?}").contains("monitor_backend: \"sketch(w=2^16,d=4)\""));
}
