//! Socket-level connection plumbing: the handshake, and the one live
//! connection ([`Conn`]) with its bounded send queue ([`SendQueue`]).
//!
//! The thread that runs the core loop owns every live connection; nothing
//! here is shared or locked. A [`Conn`] is one nonblocking socket, the
//! [`FrameBuffer`] its inbound bytes are reassembled and checked in, and the
//! queue of what is owed to the peer. The loop calls [`Conn::read`] once per
//! pass when `poll` says the socket is readable, and [`Conn::write`] on
//! every pass: the queue's frames go out a batch of at most
//! [`MAX_BATCH_BYTES`] at a time, and what a full socket does not take waits
//! for the next pass.
//!
//! Every frame given to a [`SendQueue`] ends in exactly one of
//! `ConnCounters::frames_sent` and `ConnCounters::frames_dropped`: the queue
//! counts a batch sent once all of it is written, and whoever evicts or
//! abandons queued frames (a push, [`SendQueue::abort`]) is told how many and
//! counts those. The handshake runs on short-lived threads, blocking with
//! deadlines, before the socket becomes a [`Conn`].

use super::framing::FrameBuffer;
use bytes::Bytes;
use ddp_metrics::ConnCounters;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

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

/// Bounded frame queue of one link, and the batch being written from it.
///
/// Backpressure policy: **drop-oldest** — when the queue is full the oldest
/// queued frame is evicted (and counted) to admit the new one, so the
/// freshest control traffic survives a flood and memory stays bounded.
#[derive(Debug)]
pub struct SendQueue {
    frames: VecDeque<Bytes>,
    capacity: usize,
    /// Whole frames taken from `frames`, being written.
    batch: Vec<u8>,
    /// How many frames `batch` holds, until all of it is written.
    batch_frames: u64,
    /// Bytes of `batch` already written.
    written: usize,
    /// No more pushes; what is queued is written, then the link closes.
    finished: bool,
}

/// Most bytes taken from the queue for one batch (one frame is always
/// taken, whatever its size).
pub const MAX_BATCH_BYTES: usize = 64 * 1024;

impl SendQueue {
    /// Queue holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        SendQueue {
            frames: VecDeque::new(),
            capacity: capacity.max(1),
            batch: Vec::new(),
            batch_frames: 0,
            written: 0,
            finished: false,
        }
    }

    /// Enqueue a frame. Returns the number of frames evicted to make room
    /// (0 or 1). Pushing to a finished queue drops the frame (counted).
    pub fn push(&mut self, frame: Bytes) -> u64 {
        if self.finished {
            return 1;
        }
        let mut evicted = 0;
        if self.frames.len() >= self.capacity {
            self.frames.pop_front();
            evicted = 1;
        }
        self.frames.push_back(frame);
        evicted
    }

    /// Close for new pushes; what is queued is still written.
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// Whether [`finish`](Self::finish) or [`abort`](Self::abort) was called.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Whether nothing is left to write.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty() && self.written == self.batch.len()
    }

    /// Give up on everything not yet written, the batch in hand included,
    /// and refuse later pushes. Returns how many frames were abandoned by
    /// this call, for the caller to count as dropped.
    pub fn abort(&mut self) -> u64 {
        let abandoned = self.frames.len() as u64 + self.batch_frames;
        self.frames.clear();
        self.batch.clear();
        (self.batch_frames, self.written) = (0, 0);
        self.finished = true;
        abandoned
    }

    /// Write queued frames to `out` until all are written, `out` would
    /// block, or it takes only part of a write. A batch counts in `c` as
    /// sent — its frames and its bytes — once its last byte is written.
    /// Returns the number of bytes written.
    pub fn write_to(&mut self, out: &mut impl Write, c: &mut ConnCounters) -> io::Result<usize> {
        let mut wrote = 0;
        loop {
            if self.written == self.batch.len() && !self.fill_batch() {
                return Ok(wrote);
            }
            let left = self.batch.len() - self.written;
            match out.write(&self.batch[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    wrote += n;
                    self.written += n;
                    if n < left {
                        return Ok(wrote); // the socket is full
                    }
                    c.frames_sent += self.batch_frames;
                    c.bytes_sent += self.batch.len() as u64;
                    self.batch_frames = 0;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(wrote),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Move every queued frame, in order, into the batch — as many as fit
    /// in [`MAX_BATCH_BYTES`], and at least one. Returns whether there was
    /// one to take.
    fn fill_batch(&mut self) -> bool {
        self.batch.clear();
        self.written = 0;
        while let Some(next) = self.frames.front() {
            if self.batch_frames > 0 && self.batch.len() + next.len() > MAX_BATCH_BYTES {
                break;
            }
            self.batch.extend_from_slice(next);
            self.frames.pop_front();
            self.batch_frames += 1;
        }
        self.batch_frames > 0
    }
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
    /// A write failed, or the queued bytes made no progress for the write
    /// timeout.
    WriteFailed(String),
    /// A finished queue was written out (graceful close).
    Drained,
}

/// One live, handshaken connection: a nonblocking socket, its inbound
/// reassembly and its outbound queue.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    inbound: FrameBuffer,
    /// What is owed to the peer.
    pub queue: SendQueue,
    /// Since when the queued bytes have made no progress.
    stalled_since: Option<Instant>,
}

impl Conn {
    /// Take over a handshaken `stream`, with a send queue of
    /// `queue_frames` frames.
    pub fn new(stream: TcpStream, queue_frames: usize) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbound: FrameBuffer::new(),
            queue: SendQueue::new(queue_frames),
            stalled_since: None,
        })
    }

    /// The socket, for `poll`.
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// One `read` of up to `chunk.len()` bytes: every frame it completes is
    /// checked and appended to `frames`. Nothing to read is not an error. A
    /// codec offense shuts the socket down and appends nothing — hostile
    /// bytes disconnect, never panic.
    pub fn read(
        &mut self,
        chunk: &mut [u8],
        frames: &mut Vec<Bytes>,
        c: &mut ConnCounters,
    ) -> Result<(), CloseReason> {
        match self.stream.read(chunk) {
            Ok(0) => Err(CloseReason::Eof),
            Ok(n) => {
                c.bytes_received += n as u64;
                let before = frames.len();
                match self.inbound.push(&chunk[..n], frames) {
                    Ok(()) => {
                        c.frames_received += (frames.len() - before) as u64;
                        Ok(())
                    }
                    Err(e) => {
                        let _ = self.stream.shutdown(Shutdown::Both);
                        Err(CloseReason::Codec(e.to_string()))
                    }
                }
            }
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) =>
            {
                Ok(())
            }
            Err(e) => Err(CloseReason::Io(e.to_string())),
        }
    }

    /// Write what is queued, as far as the socket takes it, and say whether
    /// the link is over: `Drained` once a finished queue is written out (the
    /// socket is then shut down, which is how a Bye and the shutdown drain
    /// end a link), `WriteFailed` on a write error or when the queued bytes
    /// have made no progress for `timeout`. Frames left behind stay queued
    /// for whoever retires the link to count.
    pub fn write(
        &mut self,
        now: Instant,
        timeout: Duration,
        c: &mut ConnCounters,
    ) -> Option<CloseReason> {
        match self.queue.write_to(&mut self.stream, c) {
            Ok(0) => {}
            Ok(_) => self.stalled_since = Some(now),
            Err(e) => return Some(self.close(CloseReason::WriteFailed(e.to_string()))),
        }
        if self.queue.is_finished() && self.queue.is_empty() {
            return Some(self.close(CloseReason::Drained));
        }
        if self.queue.is_empty() {
            self.stalled_since = None;
            return None;
        }
        let since = *self.stalled_since.get_or_insert(now);
        if now.duration_since(since) >= timeout {
            let stalled = format!("no write progress for {timeout:?}");
            return Some(self.close(CloseReason::WriteFailed(stalled)));
        }
        None
    }

    /// When [`write`](Self::write) closes the link if the queued bytes make
    /// no progress before; `None` while nothing is queued.
    pub fn write_deadline(&self, timeout: Duration) -> Option<Instant> {
        self.stalled_since.map(|since| since + timeout)
    }

    fn close(&mut self, reason: CloseReason) -> CloseReason {
        // Closing the socket wakes the peer's reader with EOF.
        let _ = self.stream.shutdown(Shutdown::Both);
        reason
    }
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

    /// A writer that takes at most `room` more bytes, then would block.
    #[derive(Default)]
    struct Socket {
        got: Vec<u8>,
        room: usize,
        writes: usize,
    }

    impl Write for Socket {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.room);
            self.got.extend_from_slice(&buf[..n]);
            self.room -= n;
            self.writes += 1;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Write everything `q` holds to an unbounded socket: the bytes, and
    /// the number of `write` calls.
    fn drain(q: &mut SendQueue, c: &mut ConnCounters) -> (Vec<u8>, usize) {
        let mut socket = Socket { room: usize::MAX, ..Socket::default() };
        q.write_to(&mut socket, c).unwrap();
        assert!(q.is_empty());
        (socket.got, socket.writes)
    }

    #[test]
    fn queue_drop_oldest_under_overflow() {
        let mut q = SendQueue::new(3);
        let evicted: u64 = (0..5u8).map(|i| q.push(Bytes::from(vec![i]))).sum();
        assert_eq!(evicted, 2);
        // Oldest two were evicted; 2,3,4 remain in order, and leave as one
        // batch.
        let mut c = ConnCounters::default();
        assert_eq!(drain(&mut q, &mut c), (vec![2, 3, 4], 1));
        assert_eq!((c.frames_sent, c.bytes_sent), (3, 3));
    }

    #[test]
    fn a_batch_is_whole_frames_within_the_byte_cap_and_never_empty() {
        let mut q = SendQueue::new(8);
        q.push(Bytes::from(vec![1u8; 8]));
        q.push(Bytes::from(vec![7u8; MAX_BATCH_BYTES - 10]));
        q.push(Bytes::from(vec![2u8; 8]));
        q.push(Bytes::from(vec![3u8; MAX_BATCH_BYTES + 23]));
        // 8 + (cap - 10) fits; the next 8 would not. A frame over the cap
        // still goes, alone. Given room for exactly one batch at a time,
        // each batch is one write.
        let mut socket = Socket::default();
        let mut c = ConnCounters::default();
        let mut passes = Vec::new();
        for room in [MAX_BATCH_BYTES - 2, 8, MAX_BATCH_BYTES + 23] {
            socket.room = room;
            q.write_to(&mut socket, &mut c).unwrap();
            passes.push((socket.writes, c.frames_sent, socket.got.len()));
        }
        let cap = MAX_BATCH_BYTES;
        assert_eq!(passes, [(1, 2, cap - 2), (2, 3, cap + 6), (3, 4, 2 * cap + 29)]);
        assert!(q.is_empty());
    }

    /// A batch the socket takes only part of counts nothing sent until its
    /// last byte is written; the part written is never written again.
    #[test]
    fn a_partly_written_batch_is_not_sent_until_its_last_byte() {
        let mut q = SendQueue::new(8);
        for i in 0..4u8 {
            q.push(Bytes::from(vec![i; 10]));
        }
        let mut socket = Socket { room: 25, ..Socket::default() };
        let mut c = ConnCounters::default();
        assert_eq!(q.write_to(&mut socket, &mut c).unwrap(), 25);
        assert_eq!((c.frames_sent, c.bytes_sent), (0, 0));
        assert!(!q.is_empty());
        socket.room = 100;
        assert_eq!(q.write_to(&mut socket, &mut c).unwrap(), 15);
        assert_eq!((c.frames_sent, c.bytes_sent), (4, 40));
        let expected: Vec<u8> = (0..4u8).flat_map(|i| [i; 10]).collect();
        assert_eq!(socket.got, expected);
        // Nothing to abandon once the batch is out.
        assert_eq!(q.abort(), 0);
    }

    #[test]
    fn finished_queue_drains_then_refuses() {
        let mut q = SendQueue::new(8);
        q.push(Bytes::from_static(b"a"));
        q.push(Bytes::from_static(b"b"));
        q.finish();
        let mut c = ConnCounters::default();
        assert_eq!(drain(&mut q, &mut c), (b"ab".to_vec(), 1));
        assert!(q.is_finished() && q.is_empty());
        // Late pushes are refused and counted.
        assert_eq!(q.push(Bytes::from_static(b"late")), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn aborted_queue_abandons_and_counts_the_backlog_and_the_batch_in_hand() {
        let mut q = SendQueue::new(8);
        for frame in [b"ab", b"cd", b"ef"] {
            q.push(Bytes::from_static(frame));
        }
        let mut socket = Socket { room: 1, ..Socket::default() };
        let mut c = ConnCounters::default();
        q.write_to(&mut socket, &mut c).unwrap();
        assert_eq!(q.abort(), 3, "the half-written batch is lost whole");
        assert!(q.is_empty() && q.is_finished());
        assert_eq!(q.abort(), 0, "a backlog is only ever reported once");
        assert_eq!(q.push(Bytes::from_static(b"late")), 1);
    }

    #[test]
    fn an_empty_queue_writes_nothing() {
        let mut q = SendQueue::new(2);
        let mut socket = Socket { room: usize::MAX, ..Socket::default() };
        assert_eq!(q.write_to(&mut socket, &mut ConnCounters::default()).unwrap(), 0);
        assert_eq!(socket.writes, 0);
    }
}
