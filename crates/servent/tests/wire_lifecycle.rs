//! Connection-lifecycle edge cases for the supervised wire runtime:
//! handshake deadlines, backoff capping, half-open peers,
//! drain-on-shutdown, lost-frame accounting, hostile bytes in the middle of
//! a read, and checkpoint-resume failure modes. Everything here
//! runs over real loopback sockets and finishes in a few seconds — no
//! ignored tests.

use bytes::Bytes;
use ddp_protocol::{decode_message, encode_message, Guid, Message, NeighborTraffic, Payload, Ping};
use ddp_servent::wire::backoff::Backoff;
use ddp_servent::wire::checkpoint::encode_payload;
use ddp_servent::wire::conn::{accept_hello, dial, spawn_writer, ConnEvent, SendQueue, WireStats};
use ddp_servent::wire::{snap_path, CheckpointSpec, HandshakeError, WireConfig, WireServent};
use ddp_servent::{Servent, ServentConfig, ServentRole};
use ddp_snapshot::{write_snapshot, SnapshotError};
use ddp_topology::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A listener that accepts connections but never says hello.
fn mute_listener() -> (std::net::SocketAddr, TcpListener) {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    (addr, l)
}

#[test]
fn handshake_against_a_mute_peer_times_out() {
    let (addr, listener) = mute_listener();
    // Keep the socket open but silent: accept in the background, hold it.
    let holder = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
    let started = Instant::now();
    let err = dial(addr, 7, 7000, 500, 300).expect_err("mute peer must not handshake");
    assert!(matches!(err, HandshakeError::Timeout), "got {err:?}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "timeout must honor the deadline, took {:?}",
        started.elapsed()
    );
    drop(holder.join());
}

#[test]
fn handshake_rejects_garbage_magic() {
    let (addr, listener) = mute_listener();
    let h = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        use std::io::Write as _;
        let _ = s.write_all(b"HTTP/1.1 200 OK\r\n\r\nsixteen bytes pad");
        s
    });
    let err = dial(addr, 7, 7000, 500, 500).expect_err("garbage hello must fail");
    assert!(matches!(err, HandshakeError::BadMagic), "got {err:?}");
    drop(h.join());
}

#[test]
fn backoff_is_capped_and_deterministic() {
    let b = Backoff { base_ms: 100, cap_ms: 3_000 };
    let mut rng = StdRng::seed_from_u64(1);
    let mut prev_max = 0u64;
    for attempt in 0..64 {
        let d = b.delay_ms(attempt, &mut rng);
        assert!(d <= 3_000, "attempt {attempt}: delay {d} above cap");
        assert!(d >= 1, "attempt {attempt}: delay must be positive");
        prev_max = prev_max.max(d);
    }
    // Far attempts saturate at the cap's jitter band [cap/2, cap].
    let mut rng = StdRng::seed_from_u64(2);
    for attempt in 60..70 {
        let d = b.delay_ms(attempt, &mut rng);
        assert!((1_500..=3_000).contains(&d), "saturated attempt {attempt}: {d}");
    }
    assert!(prev_max <= 3_000);
    // Same seed, same sequence: reconnect schedules are reproducible.
    let (mut r1, mut r2) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
    for attempt in 0..16 {
        assert_eq!(b.delay_ms(attempt, &mut r1), b.delay_ms(attempt, &mut r2));
    }
}

/// A half-open peer — in the address book, accepts TCP, never handshakes —
/// must cost bounded dial attempts (handshake failures + capped backoff),
/// never a link, and never block the protocol run from completing.
#[test]
fn half_open_peer_does_not_stall_the_run() {
    let (mute_addr, mute) = mute_listener();
    // Service the mute listener forever: accept and hold, saying nothing.
    std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = mute.accept() {
            held.push(s);
        }
    });

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut book = HashMap::new();
    book.insert(2u32, mute_addr);
    let servent = Servent::new(NodeId(1), ServentRole::Good, ServentConfig::default());
    let cfg = WireConfig {
        tick_ms: 20,
        connect_timeout_ms: 200,
        handshake_timeout_ms: 100,
        reconnect_base_ms: 50,
        reconnect_cap_ms: 200,
        connect_grace_ms: 100,
        drain_timeout_ms: 300,
        ..WireConfig::default()
    };
    let mut ws = WireServent::new(
        servent,
        listener,
        book,
        &[2], // overlay neighbor that will never complete a handshake
        cfg,
        vec!["item".into()],
        0.0,
        7,
    )
    .unwrap();
    let started = Instant::now();
    let report = ws.run(1); // one protocol minute, compressed
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "half-open peer stalled the run: {:?}",
        started.elapsed()
    );
    assert_eq!(report.protocol_secs, 60);
    assert!(
        report.conn.handshake_failures >= 2,
        "supervisor should have retried the half-open peer: {:?}",
        report.conn
    );
    assert_eq!(report.conn.dials_ok, 0, "no handshake ever completed");
    assert_eq!(report.conn.frames_sent, 0, "no link, nothing sent");
}

/// Drain-on-shutdown: every Neighbor_Traffic frame queued before `finish()`
/// reaches the peer's socket before the writer closes it.
#[test]
fn finish_flushes_queued_neighbor_traffic_before_close() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reader = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut all = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => all.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("reader: {e}"),
            }
        }
        all
    });

    let stream = TcpStream::connect(addr).unwrap();
    let queue = Arc::new(SendQueue::new(1_024));
    let stats = Arc::new(WireStats::default());
    let (tx, rx) = mpsc::sync_channel::<ConnEvent>(64);
    let writer = spawn_writer(stream, 9, 1, queue.clone(), tx, stats.clone(), 1_000);

    const N: usize = 50;
    for i in 0..N {
        let msg = Message::new(
            Guid::derived(9, i as u64),
            1,
            Payload::NeighborTraffic(NeighborTraffic {
                source_ip: std::net::Ipv4Addr::new(10, 0, 0, 9),
                suspect_ip: std::net::Ipv4Addr::new(10, 0, 0, 4),
                timestamp: i as u32,
                outgoing_queries: 1_500,
                incoming_queries: 3,
            }),
        );
        assert_eq!(queue.push(ddp_protocol::encode_message(&msg)), 0, "no eviction");
    }
    queue.finish(); // graceful: drain everything, then close

    writer.join().unwrap();
    let bytes = reader.join().unwrap();

    // The peer got every queued frame, whole, in order.
    let mut buf = Bytes::from(bytes);
    let mut got = 0usize;
    while !buf.is_empty() {
        let msg = decode_message(&mut buf).expect("whole frames only");
        match msg.payload {
            Payload::NeighborTraffic(nt) => {
                assert_eq!(nt.timestamp as usize, got, "frames in order");
                got += 1;
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }
    assert_eq!(got, N, "drain must flush the entire queue before closing");
    assert_eq!(queue.dropped(), 0);
    // The writer reported a graceful close, not an error.
    let ev = rx.recv_timeout(Duration::from_secs(1)).unwrap();
    match ev {
        ConnEvent::Closed { reason, .. } => {
            assert!(
                matches!(reason, ddp_servent::wire::CloseReason::Drained),
                "expected Drained, got {reason:?}"
            )
        }
        other => panic!("expected Closed, got {other:?}"),
    }
}

/// A peer that resets the connection mid-stream loses frames: the batch in
/// the writer's hand when `write_all` fails and the backlog behind it. Every
/// frame pushed must still end in exactly one of `frames_sent` and
/// `frames_dropped`.
#[test]
fn a_reset_mid_stream_leaves_every_pushed_frame_sent_or_dropped() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Read a little, then close with the rest unread: the kernel answers
    // what arrives afterwards with a reset.
    let peer = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut some = [0u8; 64];
        s.read_exact(&mut some).unwrap();
    });

    let stream = TcpStream::connect(addr).unwrap();
    let queue = Arc::new(SendQueue::new(1_024));
    let stats = Arc::new(WireStats::default());
    let (tx, rx) = mpsc::sync_channel::<ConnEvent>(64);
    let writer = spawn_writer(stream, 9, 1, queue.clone(), tx, stats.clone(), 1_000);

    let frame = encode_message(&Message::new(Guid::derived(9, 0), 1, Payload::Ping(Ping)));
    let give_up = Instant::now() + Duration::from_secs(10);
    let mut pushed = 0u64;
    let closed = loop {
        // Like the core: what a push evicts or refuses is counted dropped.
        for _ in 0..200 {
            stats.frames_dropped.fetch_add(queue.push(frame.clone()), Ordering::Relaxed);
            pushed += 1;
        }
        match rx.recv_timeout(Duration::from_millis(2)) {
            Ok(ConnEvent::Closed { reason, .. }) => break reason,
            Ok(other) => panic!("expected Closed, got {other:?}"),
            Err(_) => assert!(Instant::now() < give_up, "the writer never noticed the reset"),
        }
    };
    writer.join().unwrap();
    peer.join().unwrap();
    assert!(
        matches!(closed, ddp_servent::wire::CloseReason::WriteFailed(_)),
        "expected WriteFailed, got {closed:?}"
    );
    // Like the core on `Closed`: retire the queue, count what it still held.
    stats.frames_dropped.fetch_add(queue.abort(), Ordering::Relaxed);
    let c = stats.counters();
    assert!(
        c.frames_sent > 0 && c.frames_dropped > 0,
        "some frames got out, some were lost: {c:?}"
    );
    assert_eq!(c.frames_sent + c.frames_dropped, pushed, "{c:?}");
    assert_eq!(c.bytes_sent, c.frames_sent * frame.len() as u64);
}

/// Hostile bytes in the middle of a read: nothing from that read reaches the
/// state machine, everything from earlier reads did, the link closes as one
/// codec disconnect, and the servent never dials the peer again.
#[test]
fn an_offense_mid_read_delivers_nothing_from_it_and_is_never_redialed() {
    // The test is overlay neighbor 2 of servent 1, which owns the dialing.
    let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer_addr = peer_listener.local_addr().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let servent = Servent::new(NodeId(1), ServentRole::Good, ServentConfig::default());
    let cfg = WireConfig {
        tick_ms: 20,
        reconnect_base_ms: 20,
        reconnect_cap_ms: 50,
        connect_grace_ms: 100,
        drain_timeout_ms: 300,
        ..WireConfig::default()
    };
    let book = HashMap::from([(2u32, peer_addr)]);
    let mut ws = WireServent::new(servent, listener, book, &[2], cfg, Vec::new(), 0.0, 7).unwrap();
    let running = std::thread::spawn(move || ws.run(1));

    let (accepted, _) = peer_listener.accept().unwrap();
    let (mut link, servent_id, _) = accept_hello(accepted, 2, peer_addr.port(), 1_000).unwrap();
    assert_eq!(servent_id, 1);
    link.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let ping = |seq| encode_message(&Message::new(Guid::derived(2, seq), 1, Payload::Ping(Ping)));

    // Read one: a Ping on its own. Its Pong (same GUID) proves delivery, and
    // that the servent has taken the read before the next one is written.
    link.write_all(&ping(1)).unwrap();
    // Read two, one segment: a Ping, a frame of unknown kind, another Ping.
    let mut hostile = ping(3).to_vec();
    hostile[16] = 0x42;
    let offense = [&ping(2)[..], &hostile[..], &ping(4)[..]].concat();
    let mut sent_offense = false;
    let mut pongs = Vec::new();
    let mut inbound = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match link.read(&mut chunk) {
            Ok(0) => break, // the servent closed the link
            Ok(n) => inbound.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("the link was never closed: {e}"),
        }
        let mut buf = Bytes::from(std::mem::take(&mut inbound));
        while let Ok(msg) = decode_message(&mut buf) {
            if matches!(msg.payload, Payload::Pong(_)) {
                pongs.push(msg.header.guid);
            }
        }
        inbound = buf.to_vec();
        if !sent_offense && pongs.contains(&Guid::derived(2, 1)) {
            link.write_all(&offense).unwrap();
            sent_offense = true;
        }
    }
    assert_eq!(pongs, vec![Guid::derived(2, 1)], "only the earlier read's Ping was answered");

    // No second connection for the rest of the protocol minute.
    peer_listener.set_nonblocking(true).unwrap();
    let report = running.join().unwrap();
    assert!(
        peer_listener.accept().is_err(),
        "the servent dialed a peer it had cut for hostile bytes"
    );
    assert_eq!(report.conn.codec_disconnects, 1);
    assert_eq!(report.conn.dials_ok, 1);
    assert_eq!(report.conn.reconnects, 0);
    assert_eq!(report.conn.frames_received, 1, "frames of the offending read are not counted in");
}

// --- checkpoint-resume failure modes -------------------------------------
//
// A damaged or foreign checkpoint must degrade to a *logged cold start*
// with the right `SnapshotError` variant — never a panic, and the run
// still completes end to end.

/// A standalone servent (no peers) with checkpointing pointed at `dir`.
fn loner_with_checkpointing(dir: &Path, context: u64) -> WireServent {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let servent = Servent::new(NodeId(1), ServentRole::Good, ServentConfig::default());
    let cfg = WireConfig {
        tick_ms: 5,
        connect_grace_ms: 20,
        drain_timeout_ms: 50,
        ..WireConfig::default()
    };
    let mut ws =
        WireServent::new(servent, listener, HashMap::new(), &[], cfg, vec!["item".into()], 0.0, 7)
            .unwrap();
    ws.set_checkpointing(CheckpointSpec { dir: dir.to_path_buf(), every_ticks: 10, context });
    ws
}

/// Write a well-formed checkpoint for servent 1 at tick 42 under `context`.
fn plant_checkpoint(dir: &Path, context: u64) {
    std::fs::create_dir_all(dir).unwrap();
    let donor = Servent::new(NodeId(1), ServentRole::Good, ServentConfig::default());
    let payload = encode_payload(42, 0, 5, [1, 2, 3, 4], &[], &donor);
    write_snapshot(&snap_path(dir, 1), context, &payload).unwrap();
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ddp-lifecycle-{}-{name}", std::process::id()))
}

#[test]
fn valid_checkpoint_resumes_and_the_run_completes() {
    let dir = scratch_dir("valid");
    plant_checkpoint(&dir, 0xC0FFEE);
    let mut ws = loner_with_checkpointing(&dir, 0xC0FFEE);
    let resumed = ws.try_resume().expect("well-formed checkpoint must resume");
    assert_eq!(resumed, Some(43), "resume restarts at the tick after the checkpoint");
    assert_eq!(ws.generation(), 1);
    let report = ws.run(0);
    assert_eq!(report.generation, 1);
    assert_eq!(report.conn.resumes, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_is_a_typed_cold_start() {
    let dir = scratch_dir("truncated");
    plant_checkpoint(&dir, 7);
    let path = snap_path(&dir, 1);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let mut ws = loner_with_checkpointing(&dir, 7);
    let err = ws.try_resume().expect_err("a truncated checkpoint must be rejected");
    assert_eq!(err.kind(), "Truncated", "got {err:?}");
    // The rejection is a cold start, not a crash: the run still completes.
    assert_eq!(ws.generation(), 0);
    let report = ws.run(0);
    assert_eq!(report.generation, 0);
    assert_eq!(report.conn.resumes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_bit_is_a_checksum_mismatch_cold_start() {
    let dir = scratch_dir("bitflip");
    plant_checkpoint(&dir, 7);
    let path = snap_path(&dir, 1);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let mut ws = loner_with_checkpointing(&dir, 7);
    let err = ws.try_resume().expect_err("a bit-flipped checkpoint must be rejected");
    assert_eq!(err.kind(), "ChecksumMismatch", "got {err:?}");
    assert_eq!(ws.generation(), 0);
    let report = ws.run(0);
    assert_eq!(report.generation, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_config_checkpoint_is_a_context_mismatch_cold_start() {
    let dir = scratch_dir("foreign");
    plant_checkpoint(&dir, 111);
    let mut ws = loner_with_checkpointing(&dir, 222);
    let err = ws.try_resume().expect_err("a foreign-config checkpoint must be rejected");
    match err {
        SnapshotError::ContextMismatch { expected, found } => {
            assert_eq!(expected, 222);
            assert_eq!(found, 111);
        }
        other => panic!("expected ContextMismatch, got {other:?}"),
    }
    assert_eq!(ws.generation(), 0);
    let report = ws.run(0);
    assert_eq!(report.generation, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
