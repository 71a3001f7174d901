//! Tier-1 servent pin: one attacked in-memory mesh whose every frame, cut
//! and checkpoint byte is frozen in a fixture.
//!
//! 24 servents on a fixed Barabási–Albert overlay, one 1 500 q/min flooding
//! agent, four protocol minutes over a bounded network. The fixture
//! `tests/fixtures/servent_pin.txt` holds the [`HarnessReport`] (queries
//! issued and resolved, every cut with its second, frames and bytes carried,
//! frames shed) and, per servent, `fnv1a64` of its `save_state` bytes at
//! each minute boundary. The test also restores every final state into a
//! fresh servent and requires the same bytes back.
//!
//! The fixture was recorded at the commit *before* the servent's admission
//! rule, announcement, counters and state codec were each reduced to one
//! place (`DDP_BLESS=1 cargo test --test servent_pin` there), so a pass is
//! the proof that rewrite moved no frame, no cut and no checkpoint byte.
//! Re-bless only for a change that is meant to alter what a servent sends,
//! decides or persists.
//!
//! One such change rode along with the rewrite: a disconnect now takes the
//! peer's report-suppression clock and scheduled reports with it, and
//! liveness rows are kept for Buddy-Group peers only. Both remove rows from
//! checkpoints, so from the first cut (second 110) on, the servents that
//! held such rows hash differently. The fixture was left as recorded;
//! `tests/fixtures/servent_pin_moved.txt` lists the 34 `state` lines that
//! fix moved, recorded with it, and a line there stands in for the fixture
//! line of the same minute and servent. Every report line and the other 62
//! state lines are still the pre-rewrite recording.

use ddpolice::servent::{
    Harness, HarnessConfig, HarnessReport, Servent, ServentConfig, ServentRole,
};
use ddpolice::snapshot::{fnv1a64, Dec, Enc};
use ddpolice::topology::{NodeId, TopologyConfig, TopologyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;

const SERVENTS: usize = 24;
const MINUTES: u64 = 4;
const SEED: u64 = 19;
const AGENT: NodeId = NodeId(15);
/// Frames in flight before the network sheds the oldest: below the agent's
/// flood, so `frames_dropped` is part of what the fixture pins.
const NETWORK_CAPACITY: usize = 7_500;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// What a line is about: everything before its last field.
fn key(line: &str) -> &str {
    line.rsplit_once(' ').map_or(line, |(key, _)| key)
}

fn state_bytes(s: &Servent) -> Vec<u8> {
    let mut enc = Enc::new();
    s.save_state(&mut enc);
    enc.into_bytes()
}

/// Run the scenario and render it the way the fixture stores it: one
/// `state <minute> <servent> <hash>` line per servent per minute boundary,
/// then the report. Returns the harness for the checks that need no fixture.
fn run() -> (String, Harness) {
    let graph = TopologyConfig { n: SERVENTS, model: TopologyModel::BarabasiAlbert { m: 3 } }
        .generate(&mut StdRng::seed_from_u64(SEED));
    let role = ServentRole::FloodingAgent { rate_qpm: 1_500, respond_reports: true };
    let cfg =
        HarnessConfig { network_capacity: Some(NETWORK_CAPACITY), ..HarnessConfig::default() };
    let mut harness = Harness::new(&graph, &[(AGENT, role)], cfg, SEED);
    let mut out = String::new();
    for minute in 1..=MINUTES {
        harness.run_minutes(1);
        for s in &harness.servents {
            writeln!(out, "state {minute} {} {:016x}", s.id.0, fnv1a64(&state_bytes(s))).unwrap();
        }
    }
    let HarnessReport { issued, resolved, mean_latency_secs, cuts, frames, bytes, frames_dropped } =
        harness.report();
    writeln!(out, "issued {issued}").unwrap();
    writeln!(out, "resolved {resolved}").unwrap();
    writeln!(out, "mean_latency_secs {mean_latency_secs:?}").unwrap();
    for (second, observer, suspect) in cuts {
        writeln!(out, "cut {second} {} {}", observer.0, suspect.0).unwrap();
    }
    writeln!(out, "frames {frames}").unwrap();
    writeln!(out, "bytes {bytes}").unwrap();
    writeln!(out, "frames_dropped {frames_dropped}").unwrap();
    (out, harness)
}

#[test]
fn attacked_mesh_matches_the_pre_rewrite_fixture() {
    let path = fixture_path("servent_pin.txt");
    let moved_path = fixture_path("servent_pin_moved.txt");
    let (got, harness) = run();

    // The scenario must exercise what it pins, whatever the fixture says.
    let report = harness.report();
    assert!(report.frames_dropped > 0, "the network bound must bite");
    assert!(report.resolved > 0, "searches must resolve");
    assert!(report.cuts.iter().any(|&(_, _, suspect)| suspect == AGENT), "the agent must be cut");
    assert!(harness.servents[AGENT.index()].neighbors().is_empty(), "the agent ends isolated");

    // save → restore into a fresh servent → save gives the same bytes.
    for s in &harness.servents {
        let bytes = state_bytes(s);
        let mut fresh = Servent::new(s.id, s.role(), ServentConfig::default());
        let mut dec = Dec::new(&bytes);
        fresh.restore_state(&mut dec).expect("a state this build wrote restores");
        dec.finish().expect("state fully consumed");
        assert_eq!(bytes, state_bytes(&fresh), "servent {}: save→restore→save", s.id.0);
    }

    if std::env::var_os("DDP_BLESS").is_some() {
        // A new recording is whole: nothing stands in for any of its lines.
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        let _ = std::fs::remove_file(&moved_path);
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with DDP_BLESS=1", path.display())
    });
    let moved = std::fs::read_to_string(&moved_path).unwrap_or_default();
    for line in moved.lines() {
        assert!(golden.lines().any(|w| key(w) == key(line)), "`{line}` replaces no fixture line");
    }
    assert_eq!(got.lines().count(), golden.lines().count(), "fixture and run differ in length");
    for (g, w) in got.lines().zip(golden.lines()) {
        let w = moved.lines().find(|m| key(m) == key(w)).unwrap_or(w);
        assert_eq!(g, w, "first divergence from the fixture");
    }
}
