//! [`ScenarioSpec`] — a flat, replayable description of one differential
//! fuzz scenario.
//!
//! Every knob the harness varies is a scalar, so a spec serializes to a
//! single flat JSON object (hand-rolled — the workspace has no JSON
//! dependency) and shrinks by mutating one field at a time. The spec's
//! [`Scenario`] builds the optimized engine and the naive oracle from the
//! same seed, so any observable difference between the twins is the
//! defense's fault, not the scenario's.

use crate::scenario::{Attack, DefenseKind, Scenario};
use ddp_attack::{AttackPlan, CheatFactors, CheatStrategy, CollusionPlan, WhitewashPlan};
use ddp_police::exchange::ExchangePolicy;
use ddp_police::{AggregationPolicy, DdPoliceConfig, Hysteresis, ReadmissionPolicy};
use ddp_sim::{FaultConfig, ListBehavior, SessionConfig, SimConfig};
use ddp_topology::{TopologyConfig, TopologyModel};

/// One fuzz scenario: topology + attack wiring + fault plane + protocol
/// knobs, all scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Peers in the Barabási–Albert (m = 3) starting overlay.
    pub peers: usize,
    /// Ticks to run in lockstep.
    pub ticks: u32,
    /// Master seed: engine RNG, oracle RNG, and attack selection all derive
    /// from it identically.
    pub seed: u64,
    /// Plain flooding agents (ignored when a collusion mode is set).
    pub agents: usize,
    /// Cheat strategy for plain agents: 0 Honest, 1 InflateSent,
    /// 2 DeflateSent, 3 Silent.
    pub cheat: u8,
    /// Inflation factor for `cheat == 1`.
    pub inflate: f64,
    /// Deflation factor for `cheat == 2`.
    pub deflate: f64,
    /// List behavior applied to every agent: 0 Truthful, 1 Omit, 2 Refuse,
    /// 3 PadFake.
    pub lists: u8,
    /// Phantom members per announcement for `lists == 3`.
    pub pad_extra: u8,
    /// Control-plane loss probability.
    pub loss: f64,
    /// Control-plane delay probability.
    pub delay_prob: f64,
    /// Delay length in ticks when a message is delayed.
    pub delay_ticks: u32,
    /// Per-node crash-restart probability per tick.
    pub crash_prob: f64,
    /// Collusion mode: 0 none, 1 shield (adjacent cluster), 2 frame.
    pub collusion: u8,
    /// Shield mode: fellow-colluder deflation factor.
    pub shield_deflate: f64,
    /// Frame mode: fraction of the victim's neighbors compromised.
    pub frame_fraction: f64,
    /// Frame mode: inflation factor against the victim.
    pub frame_inflate: f64,
    /// Legacy fixed-slot churn on/off.
    pub churn: bool,
    /// Session model mean lifetime in minutes; `0.0` disables the session
    /// model.
    pub session_mean: f64,
    /// Whitewashing: rebirth dwell in ticks; `0` disables whitewashing.
    pub whitewash_dwell: u32,
    /// Whitewashing: post-rejoin quiet period in ticks.
    pub whitewash_quiet: u32,
    /// Protocol `CT`.
    pub cut_threshold: f64,
    /// Exchange period in minutes; `0` selects the event-driven policy.
    pub exchange_minutes: u32,
    /// Buddy-Group radius.
    pub radius: u8,
    /// §3.1 membership verification on/off.
    pub verify_lists: bool,
    /// Clamp claimed traffic at link capacity on/off.
    pub clamp_reports: bool,
    /// Aggregation: 0 Sum, 1 Median, 2 TrimmedMean.
    pub aggregation: u8,
    /// Trim fraction for `aggregation == 2`.
    pub trim: f64,
    /// Hysteresis: required over-CT windows.
    pub hys_required: u8,
    /// Hysteresis: window length.
    pub hys_window: u8,
    /// Readmission lifecycle on/off (engine defaults for the clocks).
    pub readmission: bool,
    /// Verdict-state TTL in ticks; `u32::MAX` disables the sweep.
    pub suspect_ttl: u32,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            peers: 48,
            ticks: 10,
            seed: 1,
            agents: 3,
            cheat: 0,
            inflate: 50.0,
            deflate: 0.02,
            lists: 0,
            pad_extra: 4,
            loss: 0.0,
            delay_prob: 0.0,
            delay_ticks: 1,
            crash_prob: 0.0,
            collusion: 0,
            shield_deflate: 0.02,
            frame_fraction: 0.6,
            frame_inflate: 50.0,
            churn: false,
            session_mean: 0.0,
            whitewash_dwell: 0,
            whitewash_quiet: 0,
            cut_threshold: 5.0,
            exchange_minutes: 2,
            radius: 1,
            verify_lists: true,
            clamp_reports: false,
            aggregation: 0,
            trim: 0.2,
            hys_required: 1,
            hys_window: 1,
            readmission: false,
            suspect_ttl: u32::MAX,
        }
    }
}

/// SplitMix64 step — the spec generator's only entropy source (`Date::now`
/// has no place in a replayable fuzzer).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(state) % (hi - lo + 1)
}

fn chance(state: &mut u64, prob_percent: u64) -> bool {
    pick(state, 0, 99) < prob_percent
}

impl ScenarioSpec {
    /// A random scenario derived deterministically from `fuzz_seed`. Biased
    /// toward the paper's defaults (most knobs stay put per scenario) so
    /// single-feature interactions stay likely while the tail still covers
    /// feature products.
    pub fn random(fuzz_seed: u64) -> Self {
        let mut st = fuzz_seed ^ 0x0dd5_ca1e_0dd5_ca1e;
        // Warm the stream so consecutive seeds decorrelate.
        let _ = splitmix64(&mut st);
        let mut spec = ScenarioSpec {
            peers: pick(&mut st, 24, 80) as usize,
            ticks: pick(&mut st, 6, 16) as u32,
            seed: splitmix64(&mut st),
            agents: pick(&mut st, 0, 6) as usize,
            ..ScenarioSpec::default()
        };
        spec.cheat = pick(&mut st, 0, 3) as u8;
        if chance(&mut st, 40) {
            spec.lists = pick(&mut st, 0, 3) as u8;
        }
        if chance(&mut st, 40) {
            spec.loss = pick(&mut st, 1, 30) as f64 / 100.0;
            spec.delay_prob = pick(&mut st, 0, 30) as f64 / 100.0;
            spec.delay_ticks = pick(&mut st, 1, 3) as u32;
        }
        if chance(&mut st, 20) {
            spec.crash_prob = pick(&mut st, 1, 5) as f64 / 100.0;
        }
        if chance(&mut st, 25) {
            spec.collusion = pick(&mut st, 1, 2) as u8;
        }
        spec.churn = chance(&mut st, 30);
        if chance(&mut st, 20) {
            spec.session_mean = pick(&mut st, 4, 20) as f64;
        }
        if chance(&mut st, 15) {
            spec.whitewash_dwell = pick(&mut st, 1, 3) as u32;
            spec.whitewash_quiet = pick(&mut st, 0, 2) as u32;
        }
        if chance(&mut st, 30) {
            spec.cut_threshold = pick(&mut st, 1, 12) as f64;
        }
        if chance(&mut st, 25) {
            spec.exchange_minutes = pick(&mut st, 0, 3) as u32;
        }
        if chance(&mut st, 20) {
            spec.radius = 2;
        }
        spec.verify_lists = chance(&mut st, 80);
        spec.clamp_reports = chance(&mut st, 25);
        if chance(&mut st, 25) {
            spec.aggregation = pick(&mut st, 1, 2) as u8;
            spec.trim = pick(&mut st, 0, 40) as f64 / 100.0;
        }
        if chance(&mut st, 25) {
            spec.hys_window = pick(&mut st, 1, 4) as u8;
            spec.hys_required = pick(&mut st, 1, spec.hys_window as u64) as u8;
        }
        spec.readmission = chance(&mut st, 25);
        if chance(&mut st, 20) {
            spec.suspect_ttl = pick(&mut st, 2, 8) as u32;
        }
        spec
    }

    /// The run this spec describes. Every twin is built from it by
    /// [`Scenario::build_sim_with`], so both receive identical agent
    /// selections, collusion clusters, and whitewash arming.
    pub fn scenario(&self) -> Scenario {
        let cheat = match self.cheat {
            0 => CheatStrategy::Honest,
            1 => CheatStrategy::InflateSent,
            2 => CheatStrategy::DeflateSent,
            _ => CheatStrategy::Silent,
        };
        let attack = if self.whitewash_dwell > 0 {
            Attack::Whitewash(
                WhitewashPlan::new(self.agents, self.whitewash_dwell)
                    .with_quiet(self.whitewash_quiet)
                    .with_cheat(cheat),
            )
        } else if self.collusion == 1 {
            Attack::Collusion(CollusionPlan::shield(self.agents.max(1), self.shield_deflate))
        } else if self.collusion == 2 {
            Attack::Collusion(CollusionPlan::frame(self.frame_fraction, self.frame_inflate))
        } else {
            Attack::Flood(
                AttackPlan::new(self.agents)
                    .with_cheat(cheat)
                    .with_factors(CheatFactors { inflate: self.inflate, deflate: self.deflate }),
            )
        };
        let police = DdPoliceConfig {
            cut_threshold: self.cut_threshold,
            exchange: if self.exchange_minutes == 0 {
                ExchangePolicy::EventDriven
            } else {
                ExchangePolicy::Periodic { minutes: self.exchange_minutes }
            },
            radius: self.radius,
            verify_lists: self.verify_lists,
            clamp_reports_to_link: self.clamp_reports,
            aggregation: match self.aggregation {
                0 => AggregationPolicy::Sum,
                1 => AggregationPolicy::Median,
                _ => AggregationPolicy::TrimmedMean { trim: self.trim },
            },
            hysteresis: Hysteresis { required: self.hys_required, window: self.hys_window },
            readmission: ReadmissionPolicy {
                enabled: self.readmission,
                ..ReadmissionPolicy::default()
            },
            suspect_ttl_ticks: self.suspect_ttl,
            ..DdPoliceConfig::default()
        };
        Scenario {
            sim: SimConfig {
                topology: TopologyConfig {
                    n: self.peers,
                    model: TopologyModel::BarabasiAlbert { m: 3 },
                },
                churn: self.churn,
                faults: FaultConfig {
                    loss: self.loss,
                    delay_prob: self.delay_prob,
                    delay_ticks: self.delay_ticks,
                    crash_prob: self.crash_prob,
                },
                session: (self.session_mean > 0.0)
                    .then(|| SessionConfig::steady_state(self.peers, self.session_mean)),
                ..SimConfig::default()
            },
            defense: DefenseKind::DdPolice(police),
            attack,
            lists: match self.lists {
                0 => ListBehavior::Truthful,
                1 => ListBehavior::Omit,
                2 => ListBehavior::Refuse,
                _ => ListBehavior::PadFake { extra: self.pad_extra },
            },
            ticks: self.ticks as usize,
            seed: self.seed,
        }
    }
}

impl ScenarioSpec {
    /// Refuse an enum-coded knob past its last code: `scenario` would read
    /// it as some other variant and replay a different run without a word.
    fn check_codes(&self) -> Result<(), String> {
        for (field, code, last) in [
            ("cheat", self.cheat, 3),
            ("lists", self.lists, 3),
            ("collusion", self.collusion, 2),
            ("aggregation", self.aggregation, 2),
        ] {
            if code > last {
                return Err(format!("{field}: {code} is outside its range 0..={last}"));
            }
        }
        Ok(())
    }
}

/// `to_json` and `from_json` over one list of the spec's fields, so the two
/// cannot drift apart: each field is the flat JSON key of its own name,
/// written with `{:?}` (an `f64` in its shortest round-trip form) and read
/// back at the field's own type.
macro_rules! flat_json {
    ($($field:ident),* $(,)?) => {
        impl ScenarioSpec {
            /// Serialize to a flat JSON object, one key per field.
            pub fn to_json(&self) -> String {
                let pairs = [$(format!("  \"{}\": {:?}", stringify!($field), self.$field)),*];
                format!("{{\n{}\n}}\n", pairs.join(",\n"))
            }

            /// Parse a flat JSON object produced by [`Self::to_json`] (or
            /// edited by hand — key order and whitespace are free). Unknown
            /// keys, repeated keys and values out of their field's range are
            /// errors, so a typo cannot silently replay a different scenario.
            pub fn from_json(text: &str) -> Result<Self, String> {
                let mut spec = ScenarioSpec::default();
                let inner = text
                    .trim()
                    .strip_prefix('{')
                    .and_then(|t| t.strip_suffix('}'))
                    .ok_or("not a JSON object")?;
                let mut seen = Vec::new();
                for part in inner.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                    let (key, value) =
                        part.split_once(':').ok_or_else(|| format!("bad pair {part:?}"))?;
                    let (key, value) = (key.trim().trim_matches('"'), value.trim());
                    if seen.contains(&key) {
                        return Err(format!("repeated key {key:?}"));
                    }
                    seen.push(key);
                    match key {
                        $(stringify!($field) => {
                            spec.$field = value.parse().map_err(|e| format!("{key}: {e}"))?
                        })*
                        other => return Err(format!("unknown key {other:?}")),
                    }
                }
                spec.check_codes()?;
                Ok(spec)
            }
        }
    };
}

flat_json!(
    peers,
    ticks,
    seed,
    agents,
    cheat,
    inflate,
    deflate,
    lists,
    pad_extra,
    loss,
    delay_prob,
    delay_ticks,
    crash_prob,
    collusion,
    shield_deflate,
    frame_fraction,
    frame_inflate,
    churn,
    session_mean,
    whitewash_dwell,
    whitewash_quiet,
    cut_threshold,
    exchange_minutes,
    radius,
    verify_lists,
    clamp_reports,
    aggregation,
    trim,
    hys_required,
    hys_window,
    readmission,
    suspect_ttl,
);

/// The named scenario matrix: one spec per engine subsystem, the same shapes
/// the engine-vs-oracle differential suite pins. Every differential harness
/// (oracle lockstep, serial-vs-parallel, snapshot-restore) sweeps this list
/// so a new subsystem added here is automatically covered by all of them.
pub fn scenario_matrix() -> Vec<(&'static str, ScenarioSpec)> {
    let base = ScenarioSpec::default;
    let mut m: Vec<(&'static str, ScenarioSpec)> = vec![
        ("default flooders", ScenarioSpec { agents: 4, ..base() }),
        ("quiet overlay", ScenarioSpec { agents: 0, ..base() }),
        (
            "faulty transport",
            ScenarioSpec {
                agents: 4,
                loss: 0.2,
                delay_prob: 0.2,
                delay_ticks: 2,
                ticks: 12,
                ..base()
            },
        ),
        ("crash restarts", ScenarioSpec { agents: 3, crash_prob: 0.05, ticks: 12, ..base() }),
        ("shield coalition", ScenarioSpec { agents: 4, collusion: 1, ..base() }),
        ("framing coalition", ScenarioSpec { collusion: 2, frame_fraction: 0.8, ..base() }),
        ("legacy churn", ScenarioSpec { agents: 4, churn: true, ticks: 14, ..base() }),
        ("session model", ScenarioSpec { agents: 4, session_mean: 6.0, ticks: 14, ..base() }),
        (
            "whitewashing",
            ScenarioSpec { agents: 4, whitewash_dwell: 2, whitewash_quiet: 1, ticks: 14, ..base() },
        ),
        ("hysteresis", ScenarioSpec { agents: 4, hys_window: 3, hys_required: 2, ..base() }),
        ("readmission", ScenarioSpec { agents: 4, readmission: true, ticks: 16, ..base() }),
        (
            "ttl sweep",
            ScenarioSpec { agents: 4, suspect_ttl: 3, session_mean: 6.0, ticks: 14, ..base() },
        ),
        (
            "event-driven exchange",
            ScenarioSpec { agents: 4, exchange_minutes: 0, churn: true, ..base() },
        ),
        ("radius 2", ScenarioSpec { agents: 4, radius: 2, ..base() }),
        (
            "clamp on (slow path)",
            ScenarioSpec { agents: 4, cheat: 1, clamp_reports: true, ..base() },
        ),
        (
            "kitchen sink",
            ScenarioSpec {
                agents: 5,
                cheat: 1,
                lists: 3,
                pad_extra: 3,
                loss: 0.15,
                delay_prob: 0.15,
                crash_prob: 0.03,
                churn: true,
                session_mean: 8.0,
                readmission: true,
                suspect_ttl: 5,
                hys_window: 2,
                hys_required: 2,
                aggregation: 2,
                trim: 0.25,
                ticks: 16,
                ..base()
            },
        ),
    ];
    for cheat in 1..=3u8 {
        m.push(("cheating reporters", ScenarioSpec { agents: 4, cheat, ..base() }));
    }
    for lists in 1..=3u8 {
        m.push(("lying announcers", ScenarioSpec { agents: 4, lists, pad_extra: 5, ..base() }));
    }
    for (aggregation, trim) in [(1u8, 0.0), (2, 0.2), (2, 0.45)] {
        m.push((
            "robust aggregation",
            ScenarioSpec { agents: 4, cheat: 1, aggregation, trim, ..base() },
        ));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_exactly() {
        for fuzz_seed in 0..50 {
            let spec = ScenarioSpec::random(fuzz_seed);
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json).expect("own output parses");
            assert_eq!(back, spec, "roundtrip drift for fuzz seed {fuzz_seed}:\n{json}");
        }
    }

    #[test]
    fn json_roundtrips_extreme_scalars() {
        let spec = ScenarioSpec {
            seed: u64::MAX,
            suspect_ttl: u32::MAX,
            loss: 0.1 + 0.2, // not exactly 0.3; must survive the round trip
            ..ScenarioSpec::default()
        };
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.loss.to_bits(), spec.loss.to_bits());
    }

    #[test]
    fn the_committed_reproducer_is_what_to_json_writes() {
        let file = include_str!("../../../tests/repro/per_link_clamp.json");
        assert_eq!(ScenarioSpec::from_json(file).unwrap().to_json(), file);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(ScenarioSpec::from_json("{\"peerz\": 10}").is_err());
        assert!(ScenarioSpec::from_json("nonsense").is_err());
    }

    #[test]
    fn out_of_range_integers_are_rejected() {
        for json in [
            "{\"cheat\": 256}",
            "{\"radius\": 257}",
            "{\"ticks\": 4294967296}",
            "{\"pad_extra\": -1}",
        ] {
            assert!(ScenarioSpec::from_json(json).is_err(), "{json} must not parse");
        }
        let max = ScenarioSpec::from_json("{\"radius\": 255, \"ticks\": 4294967295}").unwrap();
        assert_eq!((max.radius, max.ticks), (u8::MAX, u32::MAX));
    }

    /// `from_json` accepts each enum-coded knob up to its last code and
    /// refuses the next, naming the field's range.
    fn assert_codes_end_at(field: &str, last: u8) {
        let json = |code: u32| format!("{{\"{field}\": {code}}}");
        assert!(ScenarioSpec::from_json(&json(u32::from(last))).is_ok(), "{field} {last}");
        for code in [u32::from(last) + 1, 255] {
            let want = format!("{field}: {code} is outside its range 0..={last}");
            assert_eq!(ScenarioSpec::from_json(&json(code)), Err(want));
        }
    }

    #[test]
    fn cheat_codes_end_at_silent() {
        assert_codes_end_at("cheat", 3);
    }

    #[test]
    fn list_codes_end_at_pad_fake() {
        assert_codes_end_at("lists", 3);
    }

    #[test]
    fn collusion_codes_end_at_frame() {
        assert_codes_end_at("collusion", 2);
    }

    #[test]
    fn aggregation_codes_end_at_trimmed_mean() {
        assert_codes_end_at("aggregation", 2);
    }

    #[test]
    fn repeated_keys_are_rejected() {
        let err = ScenarioSpec::from_json("{\"agents\": 3, \"peers\": 20, \"agents\": 5}");
        assert_eq!(err, Err("repeated key \"agents\"".to_string()));
    }

    #[test]
    fn random_specs_are_deterministic_and_varied() {
        assert_eq!(ScenarioSpec::random(7), ScenarioSpec::random(7));
        let distinct: std::collections::HashSet<String> =
            (0..50).map(|s| ScenarioSpec::random(s).to_json()).collect();
        assert!(distinct.len() >= 45, "only {} distinct specs in 50", distinct.len());
        for s in 0..50 {
            let spec = ScenarioSpec::random(s);
            assert!(spec.scenario().sim.validate().is_ok(), "seed {s} generates invalid config");
        }
    }

    #[test]
    fn both_twins_receive_identical_attack_wiring() {
        let spec = ScenarioSpec { agents: 4, cheat: 1, ..ScenarioSpec::default() };
        let a = spec.scenario().build_sim_with(ddp_sim::NoDefense);
        let b = spec.scenario().build_sim_with(ddp_sim::NoDefense);
        assert_eq!(a.attackers(), b.attackers());
    }
}
