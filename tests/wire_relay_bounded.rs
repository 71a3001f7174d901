//! Tier-1 gate on the wire: a flooded servent relays every frame, in
//! bounded memory, at a small constant of allocations per frame.
//!
//! One in-process `WireServent` (peer 1, overlay `[0, 2]`) listens on
//! loopback; the test is both of its neighbours. Peer 0 sends 300 000
//! Queries, every GUID fresh, never more than 256 unrelayed; peer 2 receives
//! what the servent forwards. Each frame must arrive exactly once, in order,
//! with its TTL one lower and its hop count one higher, and no Query may
//! come back to the source. `CountingAlloc` is this binary's global
//! allocator: the process's heap high-water must stay under 16 MiB (the
//! seen-GUID table is bounded; an unbounded one holds 300 000 GUIDs in about
//! 26 MB) and the relay may allocate at most once per four frames. A
//! relayed Query goes on as the bytes it arrived in, and a frame this small
//! lives inside its `Bytes`, so what is left is one vector per read (the
//! event's frames) plus buffers reused across frames (the send batch).
//! Copying each frame to the heap made it 1.04, decoding and re-encoding
//! each frame 2.04, one `write` and one channel event per frame 12.
//!
//! Nothing here asserts on wall time. The servent lives a fixed twelve
//! seconds, which is what the test takes; a host too slow to relay the
//! frames in that time fails with the count it reached.
//!
//! Everything runs in one `#[test]`: the counter is process-wide, and a
//! second test thread would be counted too.

use ddpolice::metrics::CountingAlloc;
use ddpolice::protocol::{encode_message, Guid, Message, Payload, Query, HEADER_LEN};
use ddpolice::servent::wire::conn::dial;
use ddpolice::servent::wire::{WireConfig, WireServent};
use ddpolice::servent::{Servent, ServentConfig, ServentRole};
use ddpolice::topology::NodeId;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const SOURCE: u32 = 0;
const SERVENT: u32 = 1;
const SINK: u32 = 2;
const FRAMES: u64 = 300_000;
const WINDOW: u64 = 256;
const MAX_HEAP_BYTES: usize = 16 << 20;
const MAX_ALLOCS_PER_FRAME: f64 = 0.25;
/// Byte 16 of the header is the payload kind.
const KIND_AT: usize = 16;
const KIND_QUERY: u8 = 0x80;
/// Probe GUIDs come from a sequence range the relay never reaches.
const PROBE_BASE: u64 = 1 << 40;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The Query the source sends for `seq` and the one the sink must then get.
struct Frames {
    sent: Vec<u8>,
    relayed: Vec<u8>,
}

impl Frames {
    fn new() -> Self {
        let query = Payload::Query(Query { min_speed: 0, criteria: "bounded-01".into() });
        let msg = Message::new(Guid::ZERO, 3, query);
        let header = msg.header.forwarded().expect("TTL 3 forwards");
        assert_eq!((header.ttl, header.hops), (2, 1));
        let relayed = Message { header, payload: msg.payload.clone() };
        Frames { sent: encode_message(&msg).to_vec(), relayed: encode_message(&relayed).to_vec() }
    }

    fn push_sent(&self, seq: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&Guid::derived(SOURCE, seq).0);
        out.extend_from_slice(&self.sent[16..]);
    }

    fn is_relayed(&self, seq: u64, frame: &[u8]) -> bool {
        frame.len() == self.relayed.len()
            && frame[..16] == Guid::derived(SOURCE, seq).0
            && frame[16..] == self.relayed[16..]
    }
}

/// Splits a byte stream into frames without allocating per frame.
struct Deframer {
    buf: Vec<u8>,
    filled: usize,
}

impl Deframer {
    fn new() -> Self {
        Deframer { buf: vec![0; 1 << 16], filled: 0 }
    }

    /// Read once and hand every complete frame to `on_frame`. `Ok(false)` on
    /// end of stream; a timeout is `Ok(true)` with no frames.
    fn read_from(
        &mut self,
        stream: &mut TcpStream,
        mut on_frame: impl FnMut(&[u8]),
    ) -> std::io::Result<bool> {
        use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        match stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => self.filled += n,
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(e) => return Err(e),
        }
        let mut at = 0;
        while self.filled - at >= HEADER_LEN {
            let len: [u8; 4] = self.buf[at + HEADER_LEN - 4..at + HEADER_LEN].try_into().unwrap();
            let total = HEADER_LEN + u32::from_le_bytes(len) as usize;
            if self.filled - at < total {
                break;
            }
            on_frame(&self.buf[at..at + total]);
            at += total;
        }
        self.buf.copy_within(at..self.filled, 0);
        self.filled -= at;
        Ok(true)
    }
}

fn connect(addr: std::net::SocketAddr, id: u32) -> TcpStream {
    let (stream, peer, _) =
        dial(addr, id, 0, 1_000, 1_000).expect("the servent accepts its neighbour");
    assert_eq!(peer, SERVENT);
    stream
}

#[test]
fn a_flooded_servent_relays_every_frame_in_bounded_memory() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let servent = Servent::new(NodeId(SERVENT), ServentRole::Good, ServentConfig::default());
    // One protocol minute of 200 ms seconds: no minute boundary, and so no
    // judgment of the flooding source, falls inside the relay.
    let cfg = WireConfig { tick_ms: 200, ..WireConfig::default() };
    let overlay = [SOURCE, SINK];
    let mut wire =
        WireServent::new(servent, listener, HashMap::new(), &overlay, cfg, Vec::new(), 0.0, 7)
            .unwrap();
    let running = std::thread::spawn(move || wire.run(1));
    let mut source = connect(addr, SOURCE);
    let mut sink = connect(addr, SINK);
    let frames = Frames::new();

    // The servent installs a link a moment after the handshake returns, and
    // until the sink's is in, what the source sends has nowhere to go. Probe
    // with single frames until one comes through; the links are FIFO, so
    // every earlier probe has by then arrived or been discarded.
    sink.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    let mut deframer = Deframer::new();
    let mut batch = Vec::with_capacity(frames.sent.len() * 64);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut probe = 0;
    'probing: loop {
        assert!(Instant::now() < deadline, "the servent relayed no probe in five seconds");
        batch.clear();
        frames.push_sent(PROBE_BASE + probe, &mut batch);
        source.write_all(&batch).unwrap();
        let guid = Guid::derived(SOURCE, PROBE_BASE + probe).0;
        let retry_at = Instant::now() + Duration::from_millis(100);
        while Instant::now() < retry_at {
            let mut arrived = false;
            deframer.read_from(&mut sink, |frame| arrived |= frame[..16] == guid).unwrap();
            if arrived {
                break 'probing;
            }
        }
        probe += 1;
    }

    let received = AtomicU64::new(0);
    let broken = AtomicBool::new(false);
    let allocs_before = ALLOC.allocations();
    let (sent, wrong) = std::thread::scope(|scope| {
        let (frames, received, broken) = (&frames, &received, &broken);
        let source_thread = std::thread::current();
        let sink_thread = scope.spawn(move || {
            let (mut next, mut wrong) = (0u64, 0u64);
            let give_up = Instant::now() + IO_TIMEOUT;
            while next < FRAMES && Instant::now() < give_up {
                let alive = deframer.read_from(&mut sink, |frame| {
                    if frame[KIND_AT] != KIND_QUERY {
                        return; // the servent's own lists and receipts
                    }
                    wrong += u64::from(!frames.is_relayed(next, frame));
                    next += 1;
                });
                // Release: the source reads `received` to decide what to send.
                received.store(next, Ordering::Release);
                source_thread.unpark();
                if !matches!(alive, Ok(true)) {
                    break;
                }
            }
            broken.store(next < FRAMES, Ordering::Release);
            source_thread.unpark();
            wrong
        });
        let give_up = Instant::now() + IO_TIMEOUT;
        let mut next = 0u64;
        while next < FRAMES && !broken.load(Ordering::Acquire) && Instant::now() < give_up {
            let room = WINDOW - (next - received.load(Ordering::Acquire));
            if room == 0 {
                std::thread::park_timeout(Duration::from_millis(20));
                continue;
            }
            let count = room.min(FRAMES - next).min(64);
            batch.clear();
            for seq in next..next + count {
                frames.push_sent(seq, &mut batch);
            }
            if source.write_all(&batch).is_err() {
                break;
            }
            next += count;
        }
        (next, sink_thread.join().expect("the sink thread does not panic"))
    });
    let allocs = ALLOC.allocations() - allocs_before;
    let peak = ALLOC.peak_bytes();
    let received = received.load(Ordering::Acquire);

    // Whatever is waiting on the source's socket: lists and receipts are the
    // servent's to send, a Query would be an echo.
    let mut echoed = 0u64;
    source.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let mut deframer = Deframer::new();
    loop {
        let (before, mut frames_read) = (deframer.filled, 0);
        let alive = deframer.read_from(&mut source, |frame| {
            frames_read += 1;
            echoed += u64::from(frame[KIND_AT] == KIND_QUERY);
        });
        if !matches!(alive, Ok(true)) || (frames_read == 0 && deframer.filled == before) {
            break;
        }
    }
    drop(source);
    let report = running.join().expect("the servent thread does not panic");

    assert_eq!(sent, FRAMES, "the source stopped early (the servent lives twelve seconds)");
    assert_eq!(received, FRAMES, "frames sent but never relayed to the sink");
    assert_eq!(wrong, 0, "frames arrived altered, duplicated or out of order");
    assert_eq!(echoed, 0, "queries came back to the source");
    assert_eq!(report.conn.frames_dropped, 0, "{:?}", report.conn);
    assert_eq!(report.conn.codec_disconnects, 0, "{:?}", report.conn);
    assert!(
        peak <= MAX_HEAP_BYTES,
        "heap high-water {peak} B is over {MAX_HEAP_BYTES} B: something grows with the flood"
    );
    let per_frame = allocs as f64 / FRAMES as f64;
    println!("{per_frame:.4} allocations per relayed frame, heap high-water {peak} B");
    assert!(
        per_frame <= MAX_ALLOCS_PER_FRAME,
        "{per_frame:.2} allocations per relayed frame, bound {MAX_ALLOCS_PER_FRAME}"
    );
}
