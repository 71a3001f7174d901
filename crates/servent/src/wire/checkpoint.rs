//! Crash-recovery checkpointing for the wire runtime.
//!
//! A wire servent's defense evidence — per-neighbor traffic counters, open
//! investigations, the cut log — accumulates over protocol minutes; a crash
//! that resets it hands a flooding attacker a fresh detection window. The
//! runtime therefore periodically persists its defense-relevant state into a
//! `DDPSNAP1` container (`ddp-snapshot`'s temp+fsync+rename writer: a
//! `kill -9` mid-write leaves the previous checkpoint, never a torn file),
//! and a restarted process restores it before tick processing begins.
//!
//! What is persisted: the [`Servent`] state machine (counters, seen table,
//! investigations, verdict/cut logs, suppression clocks), the protocol
//! clock, the query-issuance RNG stream, the issued-query tally, the restart
//! generation, and the set of abandoned peers (so a cut attacker is not
//! re-dialed — or re-admitted — from amnesia). What is not: transport state
//! (sockets, send queues, dial backoff), which is rebuilt by re-dialing the
//! address book, and identity/config, which come from the command line and
//! are cross-checked via the container's context fingerprint.

use crate::servent::Servent;
use ddp_snapshot::{fnv1a64, Dec, Enc, SnapshotError};
use std::path::{Path, PathBuf};

/// Bumped whenever the wire payload layout below changes.
const WIRE_STATE_VERSION: u8 = 1;

/// Where, how often, and under which config fingerprint to checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Directory holding `s<id>.snap` (shared by a whole mesh).
    pub dir: PathBuf,
    /// Write a checkpoint every this many protocol seconds (0 = never).
    pub every_ticks: u64,
    /// Config fingerprint stored as the container context; see
    /// [`config_fingerprint`].
    pub context: u64,
}

/// The checkpoint file for servent `id` under `dir`.
pub fn snap_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("s{id}.snap"))
}

/// Fingerprint of everything that must match between the run that wrote a
/// checkpoint and the run trying to resume it. Deliberately *excludes*
/// `tick_ms` (time compression is a harness knob, not protocol state) and
/// the address book's socket addresses (a supervisor may relaunch peers on
/// the same ids behind new ports/proxies).
#[allow(clippy::too_many_arguments)]
pub fn config_fingerprint(
    id: u32,
    role: &str,
    minutes: u64,
    seed: u64,
    query_rate_qpm: f64,
    catalog_size: usize,
    items_per_peer: usize,
    overlay: &[u32],
) -> u64 {
    let mut neighbors: Vec<u32> = overlay.to_vec();
    neighbors.sort_unstable();
    let canon = format!(
        "ddp-wire-ckpt v1 id={id} role={role} minutes={minutes} seed={seed} \
         qpm={query_rate_qpm} catalog={catalog_size} items={items_per_peer} \
         overlay={neighbors:?}"
    );
    fnv1a64(canon.as_bytes())
}

/// Runtime state restored from a checkpoint (the servent state machine is
/// restored in place by [`decode_payload`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoredRun {
    /// First tick the resumed run must execute (the checkpointed tick + 1).
    pub next_tick: u64,
    /// Restart generation of the *previous* incarnation; the resumed run is
    /// `generation + 1`.
    pub generation: u32,
    /// Queries issued before the crash.
    pub issued: u64,
    /// xoshiro256** word state of the query-issuance RNG.
    pub rng: [u64; 4],
    /// Peers whose supervision had ended (we cut them, they cut us, or they
    /// died); a resumed servent must never re-dial or re-accept them.
    pub abandoned: Vec<u32>,
}

/// Serialize one checkpoint payload: runtime header plus the full servent
/// state. `abandoned` must be sorted by the caller for deterministic bytes.
pub fn encode_payload(
    tick: u64,
    generation: u32,
    issued: u64,
    rng: [u64; 4],
    abandoned: &[u32],
    servent: &Servent,
) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u8(WIRE_STATE_VERSION);
    enc.u64(tick);
    enc.u32(generation);
    enc.u64(issued);
    for word in rng {
        enc.u64(word);
    }
    enc.slice(abandoned);
    servent.save_state(&mut enc);
    enc.into_bytes()
}

/// Decode a checkpoint payload, restoring the servent state machine in
/// place. On error the servent may retain its pre-call state but the caller
/// must treat the resume as failed (cold start).
pub fn decode_payload(payload: &[u8], servent: &mut Servent) -> Result<RestoredRun, SnapshotError> {
    let mut dec = Dec::new(payload);
    let version = dec.u8()?;
    if version != WIRE_STATE_VERSION {
        return Err(SnapshotError::Unsupported { what: "wire checkpoint version" });
    }
    let tick = dec.u64()?;
    let generation = dec.u32()?;
    let issued = dec.u64()?;
    let mut rng = [0u64; 4];
    for word in rng.iter_mut() {
        *word = dec.u64()?;
    }
    let abandoned = dec.get()?;
    servent.restore_state(&mut dec)?;
    dec.finish()?;
    Ok(RestoredRun { next_tick: tick + 1, generation, issued, rng, abandoned })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servent::{ServentConfig, ServentRole};
    use ddp_topology::NodeId;

    fn servent() -> Servent {
        let mut s = Servent::new(NodeId(2), ServentRole::Good, ServentConfig::default());
        s.connect(NodeId(1));
        s.connect(NodeId(5));
        s
    }

    #[test]
    fn payload_roundtrip() {
        let original = servent();
        let bytes = encode_payload(119, 2, 7, [1, 2, 3, 4], &[9, 11], &original);
        let mut restored = Servent::new(NodeId(2), ServentRole::Good, ServentConfig::default());
        let run = decode_payload(&bytes, &mut restored).expect("valid payload");
        assert_eq!(
            run,
            RestoredRun {
                next_tick: 120,
                generation: 2,
                issued: 7,
                rng: [1, 2, 3, 4],
                abandoned: vec![9, 11],
            }
        );
        assert_eq!(restored.neighbors(), original.neighbors());
    }

    #[test]
    fn fingerprint_is_sensitive_to_config_not_neighbor_order() {
        let base = config_fingerprint(3, "good", 4, 42, 2.0, 64, 3, &[1, 2, 9]);
        // Recorded before the monitor-label parameter went: a canon string
        // that changes orphans every checkpoint already on disk.
        assert_eq!(base, 0x7c42_8411_68e4_4516);
        let shuffled = config_fingerprint(3, "good", 4, 42, 2.0, 64, 3, &[9, 1, 2]);
        assert_eq!(base, shuffled, "overlay order is canonicalized");
        assert_ne!(base, config_fingerprint(4, "good", 4, 42, 2.0, 64, 3, &[1, 2, 9]));
        assert_ne!(base, config_fingerprint(3, "flood:1500:1", 4, 42, 2.0, 64, 3, &[1, 2, 9]));
        assert_ne!(base, config_fingerprint(3, "good", 4, 43, 2.0, 64, 3, &[1, 2, 9]));
    }

    #[test]
    fn future_version_is_unsupported() {
        let mut bytes = encode_payload(0, 0, 0, [0; 4], &[], &servent());
        bytes[0] = WIRE_STATE_VERSION + 1;
        let mut s = servent();
        assert!(matches!(decode_payload(&bytes, &mut s), Err(SnapshotError::Unsupported { .. })));
    }

    #[test]
    fn truncated_payload_is_typed_error() {
        let bytes = encode_payload(60, 1, 3, [5; 4], &[4], &servent());
        let mut s = servent();
        assert!(decode_payload(&bytes[..bytes.len() - 2], &mut s).is_err());
    }
}
