//! Socket-level connection plumbing: handshake, bounded send queues, and
//! the per-connection reader/writer threads.
//!
//! Ownership model (one supervised connection):
//!
//! * the **core loop** owns the canonical [`TcpStream`] and the
//!   [`SendQueue`] handle; it is the only thread that decides a link's fate;
//! * the **reader thread** owns a clone of the stream, reassembles and
//!   checks frames through [`FrameBuffer`](super::framing::FrameBuffer), and
//!   reports the frames of each read as one event, and closures, to the
//!   core over the bounded event channel (blocking on a full channel is
//!   deliberate — it extends TCP backpressure into the process instead of
//!   buffering without bound);
//! * the **writer thread** owns another clone, drains the bounded
//!   [`SendQueue`] (drop-oldest under overflow, every eviction counted) a
//!   batch per `write`, and shuts the socket down when the queue is finished
//!   — which is how both graceful drain and cut-after-Bye terminate a link.
//!
//! Every frame given to a [`SendQueue`] ends in exactly one of
//! `WireStats::frames_sent` and `WireStats::frames_dropped`: the writer
//! counts what it wrote and what a failed write lost, and whoever evicts or
//! abandons queued frames is told how many and counts those.

use super::framing::FrameBuffer;
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Leading magic of the connection hello.
pub const HELLO_MAGIC: [u8; 8] = *b"DDPWIRE1";
/// Hello length: magic + node id (u32 LE) + listen port (u16 LE) + reserved.
pub const HELLO_LEN: usize = 16;

/// Why a handshake failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// TCP connect failed or timed out.
    Connect(String),
    /// The hello did not arrive within the deadline (half-open peer).
    Timeout,
    /// Socket error mid-handshake.
    Io(String),
    /// The first 8 bytes were not [`HELLO_MAGIC`] — not a DD-POLICE wire
    /// peer (or a hostile probe).
    BadMagic,
    /// The far side claims our own node id.
    SelfConnect,
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Connect(e) => write!(f, "connect failed: {e}"),
            HandshakeError::Timeout => write!(f, "handshake deadline exceeded"),
            HandshakeError::Io(e) => write!(f, "handshake I/O error: {e}"),
            HandshakeError::BadMagic => write!(f, "bad hello magic"),
            HandshakeError::SelfConnect => write!(f, "peer claims our own id"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Encode our hello.
pub fn encode_hello(id: u32, listen_port: u16) -> [u8; HELLO_LEN] {
    let mut out = [0u8; HELLO_LEN];
    out[..8].copy_from_slice(&HELLO_MAGIC);
    out[8..12].copy_from_slice(&id.to_le_bytes());
    out[12..14].copy_from_slice(&listen_port.to_le_bytes());
    out
}

/// Decode a peer hello: `(peer_id, peer_listen_port)`.
pub fn decode_hello(raw: &[u8; HELLO_LEN]) -> Result<(u32, u16), HandshakeError> {
    if raw[..8] != HELLO_MAGIC {
        return Err(HandshakeError::BadMagic);
    }
    let id = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]);
    let port = u16::from_le_bytes([raw[12], raw[13]]);
    Ok((id, port))
}

fn io_or_timeout(e: std::io::Error) -> HandshakeError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HandshakeError::Timeout,
        _ => HandshakeError::Io(e.to_string()),
    }
}

fn exchange_hello(
    stream: &mut TcpStream,
    my_id: u32,
    my_port: u16,
    timeout_ms: u64,
    send_first: bool,
) -> Result<(u32, u16), HandshakeError> {
    let deadline = Duration::from_millis(timeout_ms.max(1));
    stream.set_read_timeout(Some(deadline)).map_err(|e| HandshakeError::Io(e.to_string()))?;
    stream.set_write_timeout(Some(deadline)).map_err(|e| HandshakeError::Io(e.to_string()))?;
    let mut theirs = [0u8; HELLO_LEN];
    if send_first {
        stream.write_all(&encode_hello(my_id, my_port)).map_err(io_or_timeout)?;
        stream.read_exact(&mut theirs).map_err(io_or_timeout)?;
    } else {
        stream.read_exact(&mut theirs).map_err(io_or_timeout)?;
        stream.write_all(&encode_hello(my_id, my_port)).map_err(io_or_timeout)?;
    }
    let (peer_id, peer_port) = decode_hello(&theirs)?;
    if peer_id == my_id {
        return Err(HandshakeError::SelfConnect);
    }
    Ok((peer_id, peer_port))
}

/// Dial `addr` and run the hello exchange (dialer speaks first). Returns the
/// connected stream and the peer's claimed `(id, listen_port)`.
pub fn dial(
    addr: SocketAddr,
    my_id: u32,
    my_port: u16,
    connect_timeout_ms: u64,
    handshake_timeout_ms: u64,
) -> Result<(TcpStream, u32, u16), HandshakeError> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_millis(connect_timeout_ms.max(1)))
            .map_err(|e| HandshakeError::Connect(e.to_string()))?;
    let _ = stream.set_nodelay(true);
    let (peer_id, peer_port) =
        exchange_hello(&mut stream, my_id, my_port, handshake_timeout_ms, true)?;
    Ok((stream, peer_id, peer_port))
}

/// Complete the hello exchange on an accepted socket (acceptor answers).
pub fn accept_hello(
    mut stream: TcpStream,
    my_id: u32,
    my_port: u16,
    handshake_timeout_ms: u64,
) -> Result<(TcpStream, u32, u16), HandshakeError> {
    let _ = stream.set_nodelay(true);
    let (peer_id, peer_port) =
        exchange_hello(&mut stream, my_id, my_port, handshake_timeout_ms, false)?;
    Ok((stream, peer_id, peer_port))
}

/// Shared atomic telemetry for one wire servent (all connections).
#[derive(Debug, Default)]
pub struct WireStats {
    pub dials_ok: AtomicU64,
    pub dials_failed: AtomicU64,
    pub accepts: AtomicU64,
    pub handshake_failures: AtomicU64,
    pub reconnects: AtomicU64,
    pub idle_closes: AtomicU64,
    pub codec_disconnects: AtomicU64,
    pub frames_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub frames_received: AtomicU64,
    pub bytes_received: AtomicU64,
    pub frames_dropped: AtomicU64,
    pub frames_unroutable: AtomicU64,
    pub checkpoints_written: AtomicU64,
    pub checkpoint_failures: AtomicU64,
    pub resumes: AtomicU64,
}

impl WireStats {
    /// Snapshot into the plain metrics struct.
    pub fn counters(&self) -> ddp_metrics::ConnCounters {
        ddp_metrics::ConnCounters {
            dials_ok: self.dials_ok.load(Ordering::Relaxed),
            dials_failed: self.dials_failed.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            handshake_failures: self.handshake_failures.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            idle_closes: self.idle_closes.load(Ordering::Relaxed),
            codec_disconnects: self.codec_disconnects.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            frames_unroutable: self.frames_unroutable.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
        }
    }
}

/// Bounded frame queue between the core loop and one writer thread.
///
/// Backpressure policy: **drop-oldest** — when the queue is full the oldest
/// queued frame is evicted (and counted) to admit the new one, so the
/// freshest control traffic survives a flood and memory stays bounded.
#[derive(Debug)]
pub struct SendQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    capacity: usize,
}

#[derive(Debug, Default)]
struct QueueInner {
    frames: VecDeque<Bytes>,
    /// No more pushes; writer drains what is left, then exits.
    finished: bool,
    /// Hard stop: writer exits immediately, remaining frames abandoned.
    aborted: bool,
    dropped: u64,
}

/// Most bytes the writer takes from the queue for one `write` (one frame is
/// always taken, whatever its size).
pub const MAX_BATCH_BYTES: usize = 64 * 1024;

impl SendQueue {
    /// Queue holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        SendQueue {
            inner: Mutex::new(QueueInner::default()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue a frame. Returns the number of frames evicted to make room
    /// (0 or 1). Pushing to a finished queue drops the frame (counted).
    pub fn push(&self, frame: Bytes) -> u64 {
        let mut q = self.inner.lock().expect("send queue poisoned");
        if q.finished || q.aborted {
            q.dropped += 1;
            return 1;
        }
        let mut evicted = 0;
        if q.frames.len() >= self.capacity {
            q.frames.pop_front();
            q.dropped += 1;
            evicted = 1;
        }
        q.frames.push_back(frame);
        // The writer only ever waits on an empty queue.
        if q.frames.len() == 1 {
            self.cv.notify_one();
        }
        evicted
    }

    /// Writer side: wait up to `timeout` for a frame, then move every frame
    /// already queued, in order, into `batch` (cleared first) — as many as
    /// fit in [`MAX_BATCH_BYTES`], and at least one. Nothing is waited for
    /// once the first frame is there, so a lone frame leaves as soon as it
    /// would have alone.
    pub fn take_batch(&self, timeout: Duration, batch: &mut Vec<u8>) -> Taken {
        batch.clear();
        let mut q = self.inner.lock().expect("send queue poisoned");
        loop {
            if q.aborted {
                return Taken::Closed;
            }
            if !q.frames.is_empty() {
                break;
            }
            if q.finished {
                return Taken::Closed;
            }
            let (guard, res) = self.cv.wait_timeout(q, timeout).expect("send queue poisoned");
            q = guard;
            if res.timed_out() && q.frames.is_empty() && !q.finished && !q.aborted {
                return Taken::Idle;
            }
        }
        let mut frames = 0;
        while let Some(next) = q.frames.front() {
            if frames > 0 && batch.len() + next.len() > MAX_BATCH_BYTES {
                break;
            }
            batch.extend_from_slice(next);
            q.frames.pop_front();
            frames += 1;
        }
        Taken::Frames(frames)
    }

    /// Close for new pushes; the writer drains the backlog then exits.
    pub fn finish(&self) {
        let mut q = self.inner.lock().expect("send queue poisoned");
        q.finished = true;
        self.cv.notify_all();
    }

    /// Hard-stop the writer, abandoning queued frames. Returns how many were
    /// abandoned by this call, for the caller to count as dropped.
    pub fn abort(&self) -> u64 {
        let mut q = self.inner.lock().expect("send queue poisoned");
        q.aborted = true;
        let abandoned = q.frames.len() as u64;
        q.dropped += abandoned;
        q.frames.clear();
        self.cv.notify_all();
        abandoned
    }

    /// Frames waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("send queue poisoned").frames.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total frames evicted/abandoned so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("send queue poisoned").dropped
    }
}

/// Outcome of a [`SendQueue::take_batch`].
#[derive(Debug, PartialEq, Eq)]
pub enum Taken {
    /// This many whole frames are in the batch buffer, to be written.
    Frames(u64),
    /// Timed out with nothing queued; poll liveness and try again.
    Idle,
    /// Queue finished/aborted; writer should exit.
    Closed,
}

/// Events the connection threads report to the core loop.
#[derive(Debug)]
pub enum ConnEvent {
    /// The checked inbound frames of one read from `peer` on connection
    /// `conn_gen`, each whole and in its own buffer, in arrival order (never
    /// empty).
    Frames { peer: u32, conn_gen: u64, frames: Vec<Bytes> },
    /// Connection `conn_gen` to `peer` is gone.
    Closed { peer: u32, conn_gen: u64, reason: CloseReason },
    /// An accepted socket finished its handshake.
    Accepted { stream: TcpStream, peer_id: u32, peer_port: u16 },
    /// An outbound dial attempt finished.
    DialDone { peer: u32, result: Result<TcpStream, HandshakeError> },
}

/// Why a live connection ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloseReason {
    /// Clean EOF from the peer.
    Eof,
    /// The peer sent bytes the codec rejects — hostile or corrupt.
    Codec(String),
    /// Socket I/O error (reset, broken pipe, severed mid-frame).
    Io(String),
    /// The write side failed or timed out.
    WriteFailed(String),
    /// Writer drained a finished queue (graceful close).
    Drained,
}

/// Spawn the reader thread for an established connection.
///
/// Reads with `read_timeout_ms` granularity so the `shutdown` flag is
/// honored promptly; every complete frame is checked in place before it is
/// copied out and reported, and the frames one read completed travel as one
/// event. A codec error reports `Closed(Codec)` and stops reading — hostile
/// bytes disconnect, never panic.
pub fn spawn_reader(
    stream: TcpStream,
    peer: u32,
    conn_gen: u64,
    tx: SyncSender<ConnEvent>,
    stats: Arc<WireStats>,
    shutdown: Arc<AtomicBool>,
    read_timeout_ms: u64,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("ddp-read-{peer}"))
        .spawn(move || {
            let _ = stream.set_read_timeout(Some(Duration::from_millis(read_timeout_ms.max(1))));
            let mut stream = stream;
            let mut fb = FrameBuffer::new();
            let mut chunk = [0u8; 8192];
            let close = |reason: CloseReason, tx: &SyncSender<ConnEvent>| {
                let _ = tx.send(ConnEvent::Closed { peer, conn_gen, reason });
            };
            loop {
                if shutdown.load(Ordering::Relaxed) {
                    return; // core is tearing everything down; no event needed
                }
                match stream.read(&mut chunk) {
                    Ok(0) => return close(CloseReason::Eof, &tx),
                    Ok(n) => {
                        stats.bytes_received.fetch_add(n as u64, Ordering::Relaxed);
                        match fb.push(&chunk[..n]) {
                            Ok(frames) if frames.is_empty() => {}
                            Ok(frames) => {
                                let count = frames.len() as u64;
                                stats.frames_received.fetch_add(count, Ordering::Relaxed);
                                if tx.send(ConnEvent::Frames { peer, conn_gen, frames }).is_err() {
                                    return; // core gone
                                }
                            }
                            Err(e) => {
                                let _ = stream.shutdown(Shutdown::Both);
                                return close(CloseReason::Codec(e.to_string()), &tx);
                            }
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return close(CloseReason::Io(e.to_string()), &tx),
                }
            }
        })
        .expect("spawn reader thread")
}

/// Spawn the writer thread for an established connection.
///
/// Drains the queue until it is finished (then shuts the socket down — the
/// graceful-drain path) or a write fails, one `write_all` per batch of
/// already-queued frames. Frames and bytes written land in `stats` as sent;
/// the frames of a failed write and the backlog behind it as dropped.
pub fn spawn_writer(
    stream: TcpStream,
    peer: u32,
    conn_gen: u64,
    queue: Arc<SendQueue>,
    tx: SyncSender<ConnEvent>,
    stats: Arc<WireStats>,
    write_timeout_ms: u64,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("ddp-write-{peer}"))
        .spawn(move || {
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_millis(write_timeout_ms.max(1))));
            let mut batch = Vec::new();
            let reason = loop {
                match queue.take_batch(Duration::from_millis(200), &mut batch) {
                    Taken::Frames(frames) => match stream.write_all(&batch) {
                        Ok(()) => {
                            stats.frames_sent.fetch_add(frames, Ordering::Relaxed);
                            stats.bytes_sent.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        }
                        Err(e) => {
                            // How much of the batch the peer got is unknown:
                            // all of it counts as lost, with the backlog.
                            let lost = frames + queue.abort();
                            stats.frames_dropped.fetch_add(lost, Ordering::Relaxed);
                            break CloseReason::WriteFailed(e.to_string());
                        }
                    },
                    Taken::Idle => continue,
                    // Graceful: everything queued has been written (or the
                    // link was aborted).
                    Taken::Closed => break CloseReason::Drained,
                }
            };
            // Closing the socket wakes the peer's reader with EOF.
            let _ = stream.shutdown(Shutdown::Both);
            let _ = tx.send(ConnEvent::Closed { peer, conn_gen, reason });
        })
        .expect("spawn writer thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let raw = encode_hello(42, 6346);
        assert_eq!(decode_hello(&raw).unwrap(), (42, 6346));
    }

    #[test]
    fn hello_rejects_foreign_magic() {
        let mut raw = encode_hello(1, 1);
        raw[0] = b'X';
        assert_eq!(decode_hello(&raw), Err(HandshakeError::BadMagic));
    }

    fn take(q: &SendQueue) -> (Taken, Vec<u8>) {
        let mut batch = Vec::new();
        let taken = q.take_batch(Duration::from_millis(1), &mut batch);
        (taken, batch)
    }

    #[test]
    fn queue_drop_oldest_under_overflow() {
        let q = SendQueue::new(3);
        for i in 0..5u8 {
            q.push(Bytes::from(vec![i]));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.dropped(), 2);
        // Oldest two were evicted; 2,3,4 remain in order, and leave as one
        // batch.
        assert_eq!(take(&q), (Taken::Frames(3), vec![2, 3, 4]));
    }

    #[test]
    fn a_batch_is_whole_frames_within_the_byte_cap_and_never_empty() {
        let q = SendQueue::new(8);
        let big = vec![7u8; MAX_BATCH_BYTES - 10];
        q.push(Bytes::from(vec![1u8; 8]));
        q.push(Bytes::from(big.clone()));
        q.push(Bytes::from(vec![2u8; 8]));
        q.push(Bytes::from(vec![3u8; MAX_BATCH_BYTES + 23]));
        // 8 + (cap - 10) fits; the next 8 would not.
        let (taken, batch) = take(&q);
        assert_eq!((taken, batch.len()), (Taken::Frames(2), MAX_BATCH_BYTES - 2));
        assert_eq!(take(&q), (Taken::Frames(1), vec![2u8; 8]));
        // A frame over the cap still goes, alone.
        assert_eq!(take(&q), (Taken::Frames(1), vec![3u8; MAX_BATCH_BYTES + 23]));
        assert_eq!(take(&q).0, Taken::Idle);
    }

    #[test]
    fn finished_queue_drains_then_closes() {
        let q = SendQueue::new(8);
        q.push(Bytes::from_static(b"a"));
        q.push(Bytes::from_static(b"b"));
        q.finish();
        assert_eq!(take(&q), (Taken::Frames(2), b"ab".to_vec()));
        assert_eq!(take(&q).0, Taken::Closed);
        // Late pushes are refused and counted.
        assert_eq!(q.push(Bytes::from_static(b"late")), 1);
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn aborted_queue_abandons_and_counts_the_backlog() {
        let q = SendQueue::new(8);
        q.push(Bytes::from_static(b"a"));
        q.push(Bytes::from_static(b"b"));
        assert_eq!(q.abort(), 2);
        assert_eq!(take(&q).0, Taken::Closed);
        assert_eq!(q.dropped(), 2);
        assert_eq!(q.abort(), 0, "a backlog is only ever reported once");
    }

    #[test]
    fn empty_unfinished_queue_reports_idle() {
        let q = SendQueue::new(2);
        assert_eq!(take(&q).0, Taken::Idle);
    }
}
