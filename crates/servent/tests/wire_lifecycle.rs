//! Connection-lifecycle edge cases for the supervised wire runtime:
//! handshake deadlines, backoff capping, half-open peers,
//! drain-on-shutdown, lost-frame accounting, a stalled link, hostile bytes
//! in the middle of a read, and checkpoint-resume failure modes. Everything here
//! runs over real loopback sockets and finishes in a few seconds — no
//! ignored tests.

use bytes::Bytes;
use ddp_metrics::ConnCounters;
use ddp_protocol::{
    decode_message, encode_message, Guid, Message, NeighborTraffic, Payload, Ping, Query,
};
use ddp_servent::wire::backoff::Backoff;
use ddp_servent::wire::checkpoint::encode_payload;
use ddp_servent::wire::conn::{accept_hello, dial};
use ddp_servent::wire::poll::{poll, PollFd, POLLOUT};
use ddp_servent::wire::{
    snap_path, CheckpointSpec, CloseReason, Conn, HandshakeError, WireConfig, WireServent,
};
use ddp_servent::{Servent, ServentConfig, ServentRole};
use ddp_snapshot::{write_snapshot, SnapshotError};
use ddp_topology::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
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

/// Write `conn`'s queue as the runtime's loop does, a pass whenever `poll`
/// finds the socket writable, until the link is over.
fn write_until_closed(conn: &mut Conn, c: &mut ConnCounters) -> CloseReason {
    loop {
        if let Some(reason) = conn.write(Instant::now(), Duration::from_secs(1), c) {
            return reason;
        }
        poll(&mut [PollFd::new(conn.fd(), POLLOUT)], Duration::from_millis(50)).unwrap();
    }
}

/// A loopback connection: ours, and the peer's end as `peer` gets it.
fn socket_pair<T: Send + 'static>(
    peer: impl FnOnce(TcpStream) -> T + Send + 'static,
) -> (TcpStream, std::thread::JoinHandle<T>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || peer(listener.accept().unwrap().0));
    (TcpStream::connect(addr).unwrap(), peer)
}

/// Everything `s` receives until EOF.
fn read_to_eof(mut s: TcpStream) -> Vec<u8> {
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut all = Vec::new();
    s.read_to_end(&mut all).expect("EOF within the timeout");
    all
}

/// Drain-on-shutdown: every Neighbor_Traffic frame queued before `finish()`
/// reaches the peer's socket before the link closes it.
#[test]
fn finish_flushes_queued_neighbor_traffic_before_close() {
    let (stream, reader) = socket_pair(read_to_eof);
    let mut conn = Conn::new(stream, 1_024).unwrap();
    let mut c = ConnCounters::default();

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
        assert_eq!(conn.queue.push(ddp_protocol::encode_message(&msg)), 0, "no eviction");
    }
    conn.queue.finish(); // graceful: drain everything, then close

    // The link reported a graceful close, not an error.
    let reason = write_until_closed(&mut conn, &mut c);
    assert_eq!(reason, CloseReason::Drained);
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
    assert_eq!(conn.queue.abort(), 0);
    assert_eq!((c.frames_sent, c.frames_dropped), (N as u64, 0));
}

/// A finished queue that the socket cannot take at once is written over
/// as many passes as it needs: the socket closes after its last byte, not
/// when the queue is finished.
#[test]
fn a_drain_longer_than_the_socket_buffers_closes_after_the_last_frame() {
    let (start_reading, go) = mpsc::channel::<()>();
    let (stream, reader) = socket_pair(move |s| {
        go.recv().unwrap();
        read_to_eof(s)
    });
    let mut conn = Conn::new(stream, 1_024).unwrap();
    let mut c = ConnCounters::default();
    let query = Query { min_speed: 0, criteria: "q".repeat(1_000) };
    let frame = encode_message(&Message::new(Guid::derived(9, 0), 3, Payload::Query(query)));
    // Queue and write until the peer, who reads nothing yet, leaves bytes
    // queued: its socket buffers are full.
    let mut pushed = 0u64;
    while conn.queue.is_empty() {
        for _ in 0..64 {
            assert_eq!(conn.queue.push(frame.clone()), 0, "no eviction");
            pushed += 1;
        }
        assert_eq!(conn.write(Instant::now(), Duration::from_secs(5), &mut c), None);
        assert!(pushed < 100_000, "the socket never filled");
    }
    conn.queue.finish();
    assert_eq!(conn.write(Instant::now(), Duration::from_secs(5), &mut c), None, "bytes wait");
    start_reading.send(()).unwrap();
    assert_eq!(write_until_closed(&mut conn, &mut c), CloseReason::Drained);
    let got = reader.join().unwrap();
    assert_eq!(got.len() as u64, pushed * frame.len() as u64, "every frame arrived");
    assert!(got.chunks(frame.len()).all(|f| f == &frame[..]));
    assert_eq!((c.frames_sent, c.frames_dropped), (pushed, 0));
}

/// A peer that resets the connection mid-stream loses frames: the batch in
/// hand when a write fails and the backlog behind it. Every frame pushed
/// must still end in exactly one of `frames_sent` and `frames_dropped`.
#[test]
fn a_reset_mid_stream_leaves_every_pushed_frame_sent_or_dropped() {
    // Read a little, then close with the rest unread: the kernel answers
    // what arrives afterwards with a reset.
    let (stream, peer) = socket_pair(|mut s| {
        let mut some = [0u8; 64];
        s.read_exact(&mut some).unwrap();
    });
    let mut conn = Conn::new(stream, 1_024).unwrap();
    let mut c = ConnCounters::default();

    let frame = encode_message(&Message::new(Guid::derived(9, 0), 1, Payload::Ping(Ping)));
    let give_up = Instant::now() + Duration::from_secs(10);
    let mut pushed = 0u64;
    let closed = loop {
        // Like the core: what a push evicts or refuses is counted dropped.
        for _ in 0..200 {
            c.frames_dropped += conn.queue.push(frame.clone());
            pushed += 1;
        }
        if let Some(reason) = conn.write(Instant::now(), Duration::from_secs(1), &mut c) {
            break reason;
        }
        poll(&mut [PollFd::new(conn.fd(), POLLOUT)], Duration::from_millis(2)).unwrap();
        assert!(Instant::now() < give_up, "the writer never noticed the reset");
    };
    peer.join().unwrap();
    assert!(matches!(closed, CloseReason::WriteFailed(_)), "expected WriteFailed, got {closed:?}");
    // Like the core on a close: retire the queue, count what it still held.
    c.frames_dropped += conn.queue.abort();
    assert!(
        c.frames_sent > 0 && c.frames_dropped > 0,
        "some frames got out, some were lost: {c:?}"
    );
    assert_eq!(c.frames_sent + c.frames_dropped, pushed, "{c:?}");
    assert_eq!(c.bytes_sent, c.frames_sent * frame.len() as u64);
}

/// Reads `stream` into `buf` and returns every whole frame in it.
fn frames_in(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Vec<Message> {
    let mut chunk = [0u8; 64 * 1024];
    let n = stream.read(&mut chunk).expect("the servent keeps the link up");
    assert!(n > 0, "the servent closed the link");
    buf.extend_from_slice(&chunk[..n]);
    let mut rest = Bytes::from(std::mem::take(buf));
    let mut out = Vec::new();
    while let Ok(msg) = decode_message(&mut rest) {
        out.push(msg);
    }
    *buf = rest.to_vec();
    out
}

/// One neighbour that never reads stalls only its own link. A source's
/// Queries keep reaching the sink, in order, while the stalled link's socket
/// buffers fill; the stalled link closes once its bytes have made no
/// progress for `write_timeout_ms`, and every frame routed to any link ends
/// sent or dropped.
///
/// The flood must end before the stalled link's timeout can: once its
/// socket is full, what the flood still routes to it is a backlog, and the
/// timeout runs from the last byte the socket took. A socket may take a
/// last chunk when the kernel grows its buffer, so the stalled peer waits
/// four timeouts before it looks.
#[test]
fn a_stalled_link_never_stalls_the_others() {
    const SOURCE: u32 = 1;
    const SINK: u32 = 2;
    const STALLED: u32 = 3;
    /// What each neighbour is sent at minute 0: a neighbor list and a receipt.
    const MINUTE_ZERO: u64 = 2;
    const QUERIES: u64 = 2_000;
    const WINDOW: u64 = 64;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let servent = Servent::new(NodeId(10), ServentRole::Good, ServentConfig::default());
    let cfg = WireConfig {
        tick_ms: 10_000,
        write_timeout_ms: 1_000,
        connect_grace_ms: 300,
        drain_timeout_ms: 500,
        ..WireConfig::default()
    };
    let overlay = [SOURCE, SINK, STALLED];
    let mut ws =
        WireServent::new(servent, listener, HashMap::new(), &overlay, cfg, Vec::new(), 0.0, 7)
            .unwrap();
    let started = Instant::now();
    let running = std::thread::spawn(move || ws.run(0));
    let protocol_end = started + Duration::from_millis(300 + 10_000);
    let connect = |id| dial(addr, id, 0, 1_000, 1_000).unwrap().0;
    let (mut source, mut sink, mut stalled) = (connect(SOURCE), connect(SINK), connect(STALLED));
    for s in [&source, &sink] {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    }
    let (mut source_buf, mut sink_buf) = (Vec::new(), Vec::new());
    let mut source_got = 0;
    while source_got < MINUTE_ZERO {
        source_got += frames_in(&mut source, &mut source_buf).len() as u64;
    }

    // 4 KB Queries, closed loop through the sink: 8 MB each to the sink and
    // to the stalled link, whose socket buffers hold about 4 MB (Linux's
    // default `tcp_wmem` maximum and an unread receive buffer).
    let query = |seq| {
        let q = Query { min_speed: 0, criteria: "s".repeat(4_000) };
        encode_message(&Message::new(Guid::derived(SOURCE, seq), 3, Payload::Query(q)))
    };
    let (mut sent, mut relayed, mut sink_other) = (0u64, 0u64, 0u64);
    while relayed < QUERIES {
        while sent < QUERIES && sent - relayed < WINDOW {
            source.write_all(&query(sent)).unwrap();
            sent += 1;
        }
        for msg in frames_in(&mut sink, &mut sink_buf) {
            match msg.payload {
                Payload::Query(_) => {
                    assert_eq!(msg.header.guid, Guid::derived(SOURCE, relayed), "in order");
                    assert_eq!(msg.header.ttl, 2);
                    relayed += 1;
                }
                _ => sink_other += 1,
            }
        }
    }
    assert_eq!(sink_other, MINUTE_ZERO);

    // The stalled link is given up while the servent still runs: its peer
    // reads what reached its socket, then EOF.
    std::thread::sleep(Duration::from_millis(4_000));
    stalled.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut stalled_got = Vec::new();
    stalled.read_to_end(&mut stalled_got).expect("the servent closed the stalled link");
    assert!(Instant::now() < protocol_end, "closed by the stall, not the shutdown");
    assert!(stalled_got.len() < (MINUTE_ZERO + QUERIES) as usize * query(0).len());

    drop((source, sink, stalled));
    let c = running.join().unwrap().conn;
    assert_eq!(c.frames_received, QUERIES);
    assert_eq!(c.frames_unroutable, 0);
    assert!(c.frames_dropped > 0, "the stalled link lost frames: {c:?}");
    // Minute 0 to all three, and each Query to the sink and the stalled link.
    assert_eq!(c.frames_sent + c.frames_dropped, 3 * MINUTE_ZERO + 2 * QUERIES, "{c:?}");
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
