//! `wire_relay`: one in-process `WireServent` on loopback TCP, with the
//! benchmark playing its two overlay neighbours — peer 0 floods, peer 2
//! receives what the servent relays. Closed loop: the source never has more
//! than a window of frames unrelayed. Traffic crosses the host's loopback
//! interface, never a link: no number here measures a network. The servent's
//! threads and the benchmark's share one CPU under `SCHED_BATCH` (see
//! `affinity.rs`).

use crate::affinity::pin_to_one_cpu;
use crate::kernels::{self, query_message};
use crate::metrics::Values;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::Recorder;
use crate::workloads::WirePlan;
use crate::{Failure, RunOutput};
use bytes::Bytes;
use ddp_metrics::{ConnCounters, CountingAlloc};
use ddp_protocol::{
    decode_message, encode_message, Bye, Guid, Message, NeighborList, Payload, PeerAddr,
};
use ddp_servent::wire::conn::dial;
use ddp_servent::wire::{WireConfig, WireServent};
use ddp_servent::{Servent, ServentConfig, ServentRole};
use ddp_topology::NodeId;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

const SERVENT: u32 = 1;
const SOURCE: u32 = 0;
const SINK: u32 = 2;
/// Header offsets of the 23-byte wire format.
const KIND_AT: usize = 16;
const LEN_AT: usize = 19;
const HEADER_LEN: usize = 23;
const KIND_QUERY: u8 = 0x80;
/// Phase B is sent and timed in this many equal segments; the relay rate is
/// the median segment's, so a stretch that another tenant of the host
/// disturbed does not count while it is shorter than half the phase.
const B_SEGMENTS: u64 = 8;
/// A traced run stamps one frame in this many of phase B ...
const B_STAMP_EVERY: u64 = 16;
/// ... and records one `wire.relay` span per this many stamped frames.
const SPAN_EVERY: u64 = 64;
/// Phase C floods this many frames per protocol second (1 500 per minute).
const FLOOD_PER_SEC: u64 = 25;

/// A servent running on its own thread.
struct Running {
    addr: SocketAddr,
    /// When `run` was called; protocol second 0 is `connect_grace_ms` later.
    spawned: Instant,
    handle: JoinHandle<ServentEnd>,
}

struct ServentEnd {
    conn: ConnCounters,
    cuts: Vec<(u64, NodeId)>,
}

/// Peer 1, `Good`, default servent config, empty address book, overlay
/// `[0, 2]`, listening on an ephemeral loopback port.
fn launch(tick_ms: u64, minutes: u64, seed: u64) -> std::io::Result<Running> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let servent = Servent::new(NodeId(SERVENT), ServentRole::Good, ServentConfig::default());
    let cfg = WireConfig { tick_ms, ..WireConfig::default() };
    let mut wire = WireServent::new(
        servent,
        listener,
        HashMap::new(),
        &[SOURCE, SINK],
        cfg,
        Vec::new(),
        0.0,
        seed,
    )?;
    let spawned = Instant::now();
    let handle = std::thread::Builder::new().name("bench-servent".into()).spawn(move || {
        let report = wire.run(minutes);
        ServentEnd { conn: report.conn, cuts: wire.servent.cut_log.clone() }
    })?;
    Ok(Running { addr, spawned, handle })
}

fn connect(addr: SocketAddr, id: u32) -> Result<TcpStream, String> {
    let defaults = WireConfig::default();
    dial(addr, id, 0, defaults.connect_timeout_ms, defaults.handshake_timeout_ms)
        .map(|(stream, ..)| stream)
        .map_err(|e| format!("peer {id} could not dial the servent: {e}"))
}

/// The frame the source sends for sequence number `seq`, and the frame the
/// sink must then receive (TTL one lower, hops one higher).
struct Frames {
    sent: Vec<u8>,
    relayed: Vec<u8>,
}

impl Frames {
    fn new() -> Self {
        let msg = query_message(0);
        let header = msg.header.forwarded().expect("TTL 3 forwards");
        let relayed = Message { header, payload: msg.payload.clone() };
        Frames { sent: encode_message(&msg).to_vec(), relayed: encode_message(&relayed).to_vec() }
    }

    fn len(&self) -> usize {
        self.sent.len()
    }

    /// Append the frame for `seq` to `out`.
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

    /// Read once from `stream` and hand every complete frame to `on_frame`.
    /// `Ok(false)` on end of stream; a timeout is `Ok(true)` with no frames.
    fn read_from(
        &mut self,
        stream: &mut TcpStream,
        mut on_frame: impl FnMut(&[u8]),
    ) -> std::io::Result<bool> {
        let n = match stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                0
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        self.filled += n;
        let mut at = 0;
        while self.filled - at >= HEADER_LEN {
            let len_bytes: [u8; 4] =
                self.buf[at + LEN_AT..at + HEADER_LEN].try_into().expect("four length bytes");
            let total = HEADER_LEN + u32::from_le_bytes(len_bytes) as usize;
            if total > self.buf.len() {
                return Err(std::io::Error::other("frame larger than the read buffer"));
            }
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

/// State the two load threads share.
struct Shared {
    /// Frames the sink has received in order so far.
    received: AtomicU64,
    /// Set by the sink when the stream ended or a frame was wrong.
    broken: AtomicBool,
    /// Tells the sink to stop once it has received this many frames.
    expect: AtomicU64,
}

/// What the sink saw.
#[derive(Default)]
struct SinkLog {
    /// Receive time of frame `seq - first_stamped`, ns since the epoch.
    recv_ns: Vec<u64>,
    wrong: u64,
}

/// Receive relayed frames in order until `expect` frames have arrived (or
/// the stream breaks), stamping the receive time of every frame `stamp`
/// selects and waking `source` after each read.
fn sink_loop(
    mut stream: TcpStream,
    frames: &Frames,
    shared: &Shared,
    source: &Thread,
    epoch: Instant,
    stamp: impl Fn(u64) -> bool,
    stamps: usize,
) -> SinkLog {
    let mut log = SinkLog::default();
    // Room for every stamp, like the sender's: no reallocation while timing.
    log.recv_ns.reserve(stamps);
    let mut deframer = Deframer::new();
    let mut next = 0u64;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    while next < shared.expect.load(Ordering::Acquire) {
        let alive = deframer.read_from(&mut stream, |frame| {
            if frame[KIND_AT] != KIND_QUERY {
                return; // the servent's own lists and receipts
            }
            if !frames.is_relayed(next, frame) {
                log.wrong += 1;
            }
            if stamp(next) {
                log.recv_ns.push(epoch.elapsed().as_nanos() as u64);
            }
            next += 1;
        });
        // Release: the source reads `received` to decide what it may send.
        shared.received.store(next, Ordering::Release);
        source.unpark();
        if !matches!(alive, Ok(true)) {
            shared.broken.store(true, Ordering::Release);
            source.unpark();
            break;
        }
    }
    log
}

/// The source's side of phases A and B.
struct Sender<'a, S: Fn(u64) -> bool> {
    stream: &'a mut TcpStream,
    frames: &'a Frames,
    shared: &'a Shared,
    epoch: Instant,
    /// Stop sending here: the servent is about to reach its last second.
    deadline: Instant,
    stamp: S,
    /// Send time of every stamped frame, ns since the epoch.
    sent_ns: Vec<u64>,
}

impl<S: Fn(u64) -> bool> Sender<'_, S> {
    /// Send frames `[from, to)` keeping at most `window` unrelayed, then
    /// wait for the tail to arrive; returns the number sent.
    fn send(&mut self, (from, to): (u64, u64), window: u64) -> std::io::Result<u64> {
        let received = || self.shared.received.load(Ordering::Acquire);
        let stalled =
            || self.shared.broken.load(Ordering::Acquire) || Instant::now() >= self.deadline;
        let mut batch = Vec::with_capacity(self.frames.len() * 64);
        let mut next = from;
        while next < to {
            let room = window.saturating_sub(next - received());
            if room == 0 {
                if stalled() {
                    break;
                }
                std::thread::park_timeout(Duration::from_millis(20));
                continue;
            }
            let count = room.min(to - next).min(64);
            batch.clear();
            let now = self.epoch.elapsed().as_nanos() as u64;
            for seq in next..next + count {
                self.frames.push_sent(seq, &mut batch);
                if (self.stamp)(seq) {
                    self.sent_ns.push(now);
                }
            }
            self.stream.write_all(&batch)?;
            next += count;
        }
        while received() < next && !stalled() {
            std::thread::park_timeout(Duration::from_millis(20));
        }
        Ok(next - from)
    }
}

/// Read what is waiting on the source's socket until it has been quiet for
/// 30 ms. Returns how many frames were Queries (none may come back).
fn drain_source(stream: &mut TcpStream) -> u64 {
    let mut deframer = Deframer::new();
    let mut queries = 0;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(30)));
    loop {
        let before = deframer.filled;
        let mut got = 0;
        let alive = deframer.read_from(stream, |frame| {
            got += 1;
            queries += u64::from(frame[KIND_AT] == KIND_QUERY);
        });
        if !matches!(alive, Ok(true)) || (got == 0 && deframer.filled == before) {
            return queries;
        }
    }
}

/// A servent with both neighbours connected and the warm-up relayed.
struct Session {
    running: Running,
    source: TcpStream,
    sink: TcpStream,
    /// Launch to last warm-up frame received, seconds.
    setup_s: f64,
    /// Launch to both handshakes done, milliseconds.
    connect_ms: f64,
}

/// One set-up: launch, connect both neighbours, wait until the servent
/// relays, then relay `warmup` frames at window 16. Set-up sequence numbers
/// lie far above the timed ones.
fn set_up(tick_ms: u64, minutes: u64, warmup: u64, seed: u64) -> Result<Session, String> {
    let start = Instant::now();
    let running = launch(tick_ms, minutes, seed).map_err(|e| format!("launch failed: {e}"))?;
    let mut source = connect(running.addr, SOURCE)?;
    let mut sink = connect(running.addr, SINK)?;
    let connect_ms = start.elapsed().as_secs_f64() * 1e3;
    sink.set_read_timeout(Some(Duration::from_millis(20))).map_err(|e| e.to_string())?;
    let frames = Frames::new();
    let base = 1u64 << 40;
    let mut batch = Vec::new();
    let mut deframer = Deframer::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    let late = || format!("the servent relayed no probe within {:?}", deadline - start);

    // The servent installs a link a moment after the handshake returns;
    // until the sink's is in, what the source sends is unroutable. Probe
    // with single frames until one comes through. Both links are FIFO, so
    // once a probe arrives every earlier one has arrived or was dropped.
    let mut seq = 0u64;
    'probe: loop {
        if Instant::now() >= deadline {
            return Err(late());
        }
        batch.clear();
        frames.push_sent(base + seq, &mut batch);
        source.write_all(&batch).map_err(|e| e.to_string())?;
        let guid = Guid::derived(SOURCE, base + seq).0;
        let retry_at = Instant::now() + Duration::from_millis(100);
        while Instant::now() < retry_at {
            let mut arrived = false;
            deframer
                .read_from(&mut sink, |frame| arrived |= frame[..16] == guid)
                .map_err(|e| e.to_string())?;
            if arrived {
                break 'probe;
            }
        }
        seq += 1;
    }

    // Warm-up proper, at window 16: from here on nothing may be lost.
    let first = seq + 1;
    let (mut sent, mut got) = (0u64, 0u64);
    while got < warmup {
        if Instant::now() >= deadline {
            return Err(format!("warm-up relayed {got} of {warmup} frames"));
        }
        let count = (16 - (sent - got)).min(warmup - sent);
        if count > 0 {
            batch.clear();
            for i in sent..sent + count {
                frames.push_sent(base + first + i, &mut batch);
            }
            source.write_all(&batch).map_err(|e| e.to_string())?;
            sent += count;
        }
        deframer
            .read_from(&mut sink, |frame| got += u64::from(frame[KIND_AT] == KIND_QUERY))
            .map_err(|e| e.to_string())?;
    }
    Ok(Session { running, source, sink, setup_s: start.elapsed().as_secs_f64(), connect_ms })
}

fn join(running: Running, failures: &mut Vec<Failure>) -> Option<ServentEnd> {
    let end = running.handle.join().ok();
    if end.is_none() {
        failures.push(Failure::new(1, "the servent thread panicked"));
    }
    end
}

/// Phase C: a fresh servent at `c_tick_ms`; the source announces
/// `NeighborList [1]`, floods 1 500 queries per protocol minute from
/// protocol second 0 and waits for `Bye 0x0bad`. Returns the wall time from
/// flood start to the Bye, in milliseconds.
fn first_cut(plan: &WirePlan, seed: u64, failures: &mut Vec<Failure>) -> Option<f64> {
    let session = match set_up(plan.c_tick_ms, plan.c_minutes, plan.c_warmup_frames, seed) {
        Ok(s) => s,
        Err(e) => {
            failures.push(Failure::new(1, format!("phase C: {e}")));
            return None;
        }
    };
    let Session { running, mut source, mut sink, .. } = session;
    // The sink only has to keep reading, so the servent's writer never stalls.
    let stop = Arc::new(AtomicBool::new(false));
    let sink_stop = stop.clone();
    let drain = std::thread::spawn(move || {
        let mut deframer = Deframer::new();
        while !sink_stop.load(Ordering::Acquire) {
            if !matches!(deframer.read_from(&mut sink, |_| {}), Ok(true)) {
                break;
            }
        }
    });

    let list = NeighborList { neighbors: vec![PeerAddr::from_node_index(SERVENT)] };
    let announce =
        encode_message(&Message::new(Guid::derived(SOURCE, 0), 1, Payload::NeighborList(list)));
    let grace = Duration::from_millis(WireConfig::default().connect_grace_ms);
    let flood_start = running.spawned + grace;
    let tick = Duration::from_millis(plan.c_tick_ms);
    let give_up = flood_start + tick * (plan.c_minutes * 60 + 30) as u32;
    let frames = Frames::new();
    let mut cut_ms = None;
    let flood = (|| -> std::io::Result<()> {
        source.write_all(&announce)?;
        std::thread::sleep(flood_start.saturating_duration_since(Instant::now()));
        let mut deframer = Deframer::new();
        let mut batch = Vec::new();
        let mut seq = 1u64 << 41;
        let mut second = 0u32;
        while cut_ms.is_none() && Instant::now() < give_up {
            batch.clear();
            for _ in 0..FLOOD_PER_SEC {
                frames.push_sent(seq, &mut batch);
                seq += 1;
            }
            source.write_all(&batch)?;
            second += 1;
            // Read until the next protocol second is due.
            let next_send = flood_start + tick * second;
            while cut_ms.is_none() {
                let left = next_send.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                source.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
                let alive = deframer.read_from(&mut source, |frame| {
                    let mut cursor = Bytes::from(frame.to_vec());
                    if let Ok(Message { payload: Payload::Bye(bye), .. }) =
                        decode_message(&mut cursor)
                    {
                        if bye.code == Bye::CODE_DDOS_SUSPECT {
                            cut_ms = Some(flood_start.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                })?;
                if !alive {
                    return Ok(());
                }
            }
        }
        Ok(())
    })();
    // A write may fail right after the cut, when the servent closes the link.
    if let (Err(e), None) = (&flood, cut_ms) {
        failures.push(Failure::new(1, format!("phase C source I/O: {e}")));
    }
    drop(source);
    stop.store(true, Ordering::Release);
    let _ = drain.join();
    let end = join(running, failures);
    if cut_ms.is_none() {
        failures.push(Failure::new(1, "phase C ended without Bye 0x0bad from the servent"));
    }
    if let Some(end) = end {
        if !end.cuts.iter().any(|&(_, peer)| peer == NodeId(SOURCE)) {
            failures.push(Failure::new(1, "the servent's cut log does not name the source"));
        }
        if end.cuts.iter().any(|&(_, peer)| peer == NodeId(SINK)) {
            failures.push(Failure::new(1, SINK_CUT));
        }
    }
    cut_ms
}

const SINK_CUT: &str = "the servent cut the sink, a good neighbour";

/// What one stamp costs a load thread (a clock read and a push), nanoseconds:
/// the median of five rounds.
fn stamp_cost_ns(epoch: Instant) -> f64 {
    const STAMPS: usize = 100_000;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let mut stamps = Vec::with_capacity(STAMPS);
            let start = Instant::now();
            for _ in 0..STAMPS {
                stamps.push(epoch.elapsed().as_nanos() as u64);
            }
            std::hint::black_box(&stamps);
            start.elapsed().as_nanos() as f64 / STAMPS as f64
        })
        .collect();
    median(&rounds)
}

/// What phases A and B measured.
#[derive(Default)]
struct Relay {
    sent_a: u64,
    sent_b: u64,
    b_allocs: u64,
    /// Frames and wall seconds of each of phase B's segments.
    segments: Vec<(u64, f64)>,
    /// Relay latency of the stamped frames of each phase, microseconds.
    a_latency_us: Vec<f64>,
    b_latency_us: Vec<f64>,
    conn: Option<ConnCounters>,
}

/// Phases A and B on a connected session. Phase A stamps every frame; phase
/// B stamps one frame in [`B_STAMP_EVERY`], and only in a traced run.
fn relay(
    plan: &WirePlan,
    session: Session,
    traced: bool,
    alloc: &CountingAlloc,
    rec: &mut Recorder,
    run_span: usize,
    failures: &mut Vec<Failure>,
) -> Relay {
    let Session { running, mut source, sink, .. } = session;
    let mut out = Relay::default();
    let frames = Frames::new();
    let (a, b) = (plan.a_frames, plan.b_frames);
    let segment = (b / B_SEGMENTS).max(1);
    let stamp = move |seq: u64| seq < a || (traced && seq.is_multiple_of(B_STAMP_EVERY));
    let stamps = (a + if traced { b / B_STAMP_EVERY + 1 } else { 0 }) as usize;
    let shared = Shared {
        received: AtomicU64::new(0),
        broken: AtomicBool::new(false),
        expect: AtomicU64::new(a + b),
    };
    let grace = Duration::from_millis(WireConfig::default().connect_grace_ms);
    let mut sender = Sender {
        stream: &mut source,
        frames: &frames,
        shared: &shared,
        epoch: rec.epoch(),
        // The servent stops at protocol second 60.
        deadline: running.spawned + grace + Duration::from_millis(plan.ab_tick_ms * 58),
        stamp,
        sent_ns: Vec::with_capacity(stamps),
    };
    let source_thread = std::thread::current();
    let epoch = rec.epoch();
    let sink_log = std::thread::scope(|scope| {
        let (frames, shared, source_thread) = (&frames, &shared, &source_thread);
        let sink_thread = scope
            .spawn(move || sink_loop(sink, frames, shared, source_thread, epoch, stamp, stamps));
        let sending = (|| -> std::io::Result<()> {
            out.sent_a = sender.send((0, a), 1)?;
            let allocs_before = alloc.allocations();
            for k in 0..B_SEGMENTS {
                let from = a + segment * k;
                let to = if k + 1 == B_SEGMENTS { a + b } else { from + segment };
                let t = Instant::now();
                let sent = sender.send((from, to), plan.window)?;
                out.sent_b += sent;
                out.segments.push((sent, t.elapsed().as_secs_f64()));
            }
            // Saturating: the unit tests share the allocator across threads.
            out.b_allocs = alloc.allocations().saturating_sub(allocs_before) as u64;
            Ok(())
        })();
        if let Err(e) = sending {
            failures.push(Failure::new(1, format!("source I/O: {e}")));
        }
        // What was not sent will never arrive: release the sink.
        shared.expect.store(out.sent_a + out.sent_b, Ordering::Release);
        sink_thread.join().expect("the sink thread does not panic")
    });

    let sent = out.sent_a + out.sent_b;
    let received = shared.received.load(Ordering::Acquire);
    if sent < a + b {
        let what =
            format!("only {sent} of {} planned frames fit before the servent's last second", a + b);
        failures.push(Failure::new(1, what));
    }
    if received < sent {
        failures.push(Failure::new(sent - received, "frames sent but never relayed to the sink"));
    }
    if sink_log.wrong > 0 {
        failures.push(Failure::new(sink_log.wrong, "frames arrived altered or out of order"));
    }
    let sent_ns = sender.sent_ns;
    let echoed = drain_source(&mut source);
    if echoed > 0 {
        failures.push(Failure::new(echoed, "queries came back to the source"));
    }
    drop(source);
    out.conn = join(running, failures).map(|end| end.conn);

    // Stamps are in sequence order on both sides.
    for (i, (&s, &r)) in sent_ns.iter().zip(&sink_log.recv_ns).enumerate() {
        let latency_us = r.saturating_sub(s) as f64 / 1e3;
        if (i as u64) < out.sent_a {
            out.a_latency_us.push(latency_us);
        } else {
            out.b_latency_us.push(latency_us);
        }
        if traced && (i as u64).is_multiple_of(SPAN_EVERY) {
            rec.record("wire.relay", s, r, Some(run_span));
        }
    }
    out
}

/// Run `wire_relay`. Untraced: the end-to-end metrics. Traced: the
/// per-layer metrics.
pub fn run(plan: &WirePlan, seed: u64, traced: bool, alloc: &'static CountingAlloc) -> RunOutput {
    // Every thread below is spawned from this one and inherits its one CPU
    // and its scheduling policy.
    let pinned = pin_to_one_cpu();
    let mut failures = Vec::new();
    let mut setups = Vec::new();
    let mut rec = Recorder::new("wire_relay");
    let run_span = rec.begin("run", None);

    // Set-up replays: servents told to stop at protocol second 0.
    for _ in 0..plan.setup_replays {
        match set_up(plan.c_tick_ms, 0, plan.warmup_frames, seed) {
            Ok(Session { running, source, sink, setup_s, .. }) => {
                setups.push(setup_s);
                drop((source, sink));
                join(running, &mut failures);
            }
            Err(e) => failures.push(Failure::new(1, format!("set-up replay: {e}"))),
        }
    }

    alloc.reset();
    let setup_span = rec.begin("setup", Some(run_span));
    let session = set_up(plan.ab_tick_ms, 1, plan.warmup_frames, seed);
    rec.end(setup_span);
    let mut connect_ms = 0.0;
    let relayed = match session {
        Ok(session) => {
            setups.push(session.setup_s);
            connect_ms = session.connect_ms;
            relay(plan, session, traced, alloc, &mut rec, run_span, &mut failures)
        }
        Err(e) => {
            failures.push(Failure::new(1, e));
            Relay::default()
        }
    };
    let cut_ms = first_cut(plan, seed, &mut failures);
    let peak = alloc.peak_bytes();
    rec.end(run_span);

    let attempted = (relayed.sent_a + relayed.sent_b).max(1);
    let rates: Vec<f64> = relayed.segments.iter().map(|&(n, s)| n as f64 / s.max(1e-9)).collect();
    let relayed_per_s = median(&rates);
    let a_sorted = sorted(&relayed.a_latency_us);
    let mut m;
    if traced {
        m = Values::per_layer_zeros();
        let k = kernels::servent_kernels(plan.kernel_frames);
        m.set("protocol.encode_ns", k.encode_ns);
        m.set("protocol.decode_ns", k.decode_ns);
        m.set("protocol.seen_offer_ns", k.seen_offer_ns);
        m.set("servent.handle_frame_ns", k.handle_frame_ns);
        m.set("servent.on_minute_us", k.on_minute_us);
        m.set(
            "servent.harness.frames_per_s",
            kernels::harness_frames_per_s(seed, plan.harness_servents, plan.harness_minutes),
        );
        // What a reactor change can remove: everything a relayed frame
        // costs at saturation beyond the state machine itself.
        m.set("wire.transport_ns_per_frame", 1e9 / relayed_per_s.max(1e-9) - k.handle_frame_ns);
        let tail = tail_percentile(a_sorted.len());
        m.set("wire.relay.samples", a_sorted.len() as f64);
        m.set("wire.relay.tail_pct", tail);
        m.set("wire.relay.tail_us", percentile(&a_sorted, tail));
        m.set("wire.relay.w256_p50_us", median(&relayed.b_latency_us));
        if let Some(c) = relayed.conn {
            m.set("wire.frames_dropped", c.frames_dropped as f64);
            m.set("wire.frames_unroutable", c.frames_unroutable as f64);
            m.set("wire.codec_disconnects", c.codec_disconnects as f64);
        }
        m.set("wire.first_cut_wall_ms", cut_ms.unwrap_or(0.0));
        m.set("wire.setup.connect_ms", connect_ms);
        // What stamping costs phase B: source and sink each stamp a frame,
        // on the CPU they share with the servent. (Phase B itself cannot
        // show it: its segments differ by 5 % as the servent's tables grow
        // and rehash.)
        let stamps = 2.0 * relayed.b_latency_us.len() as f64;
        let b_seconds: f64 = relayed.segments.iter().map(|&(_, s)| s).sum();
        m.set(
            "trace.overhead_pct",
            stamps * stamp_cost_ns(rec.epoch()) / 1e9 / b_seconds.max(1e-9) * 100.0,
        );
        if let Err(e) = rec.write_jsonl() {
            failures.push(Failure::new(1, format!("spans not written: {e}")));
        }
    } else {
        m = Values::default();
        let failed_frames: u64 = failures.iter().map(|f| f.ops).sum::<u64>().min(attempted);
        m.set("setup_s", median(&setups));
        m.set("ops_per_s", relayed_per_s);
        m.set("op_p50_us", percentile(&a_sorted, 50.0));
        // One servent: the heap high-water of set-up and all three phases.
        m.set("peak_bytes_per_peer", peak as f64);
        m.set("allocs_per_op", relayed.b_allocs as f64 / relayed.sent_b.max(1) as f64);
        m.set("query_success_rate", (attempted - failed_frames) as f64 / attempted as f64);
        // One good neighbour (the sink) and one agent (the source).
        let sink_cut = failures.iter().any(|f| f.what == SINK_CUT);
        m.set("good_kept_rate", if sink_cut { 0.0 } else { 1.0 });
        m.set("attacker_cut_rate", if cut_ms.is_some() { 1.0 } else { 0.0 });
        // Protocol minutes from flood start to the Bye.
        let ticks = cut_ms.map(|ms| ms / plan.c_tick_ms as f64 / 60.0);
        m.set("first_cut_tick", ticks.unwrap_or(plan.c_minutes as f64 + 1.0));
    }
    RunOutput {
        workload: "wire_relay",
        seed,
        traced,
        attempted,
        failures,
        metrics: m,
        counts: vec![
            ("frames_window_1", relayed.sent_a),
            ("frames_window_256", relayed.sent_b),
            ("latency_samples", a_sorted.len() as u64),
            ("setup_samples", setups.len() as u64),
            ("spans", rec.spans().len() as u64),
            ("one_cpu_sched_batch", u64::from(pinned.is_some())),
        ],
        // Servent core, acceptor, two readers, two writers, and the
        // benchmark's source and sink.
        threads: 8,
    }
}
