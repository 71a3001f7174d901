//! The socket runtime: one [`Servent`] state machine driven by real TCP
//! connections, on one thread.
//!
//! The thread that calls [`WireServent::run`] owns the state machine, the
//! link table, every live socket and every supervision decision (see
//! DESIGN.md "Wire deployment"). It runs one loop over `poll(2)` that
//! watches the listener, every link and a waker, and sleeps until the next
//! protocol tick or the nearest write deadline, whichever is sooner. Each
//! pass reads once from every readable link, hands the frames straight to
//! `Servent::handle_frame` and routes what it sends at once, then writes
//! every link's queued frames as far as its socket takes them
//! ([`Conn::write`]). Dials and inbound hellos run on short-lived threads,
//! so a slow or mute peer never blocks the loop; each hands its handshaken
//! socket back over a channel and wakes the loop through the waker.
//!
//! Protocol time is decoupled from wall time: tick `t` (one protocol second)
//! fires at `start + t * tick_ms`, so a whole four-minute experiment runs in
//! seconds of wall clock while timeouts keep their protocol-relative
//! meaning.

use super::backoff::Backoff;
use super::checkpoint::{self, CheckpointSpec};
use super::conn::{self, CloseReason, Conn, HandshakeError};
use super::poll::{poll, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::servent::{Outbox, Servent, ServentRole};
use bytes::Bytes;
use ddp_metrics::ConnCounters;
use ddp_protocol::{PayloadKind, KIND_AT};
use ddp_snapshot::SnapshotError;
use ddp_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most bytes one read takes from a socket.
const READ_CHUNK: usize = 8 * 1024;

/// Knobs of the socket runtime. All timeouts that supervise *protocol*
/// behavior are in ticks (protocol seconds) so they scale with time
/// compression; transport-level deadlines are wall milliseconds.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Wall milliseconds per protocol second.
    pub tick_ms: u64,
    /// TCP connect deadline, wall ms.
    pub connect_timeout_ms: u64,
    /// Hello exchange deadline, wall ms (half-open peers die here).
    pub handshake_timeout_ms: u64,
    /// Longest a link's queued bytes may make no progress, wall ms (a
    /// stalled peer trips this).
    pub write_timeout_ms: u64,
    /// Close a link heard from nothing for this many ticks; the silent
    /// neighbor then feeds the assume-zero report path.
    pub idle_timeout_ticks: u64,
    /// Logically disconnect an overlay neighbor whose transport has been
    /// down this long (SIGKILL'd process, unreachable host).
    pub peer_death_ticks: u64,
    /// Reconnect backoff base, wall ms.
    pub reconnect_base_ms: u64,
    /// Reconnect backoff cap, wall ms.
    pub reconnect_cap_ms: u64,
    /// Bounded send-queue capacity, frames (drop-oldest beyond).
    pub send_queue_frames: usize,
    /// Wall-clock budget for the graceful drain at shutdown.
    pub drain_timeout_ms: u64,
    /// Wall-clock head start for establishing the initial overlay links
    /// before protocol tick 0.
    pub connect_grace_ms: u64,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            tick_ms: 50,
            connect_timeout_ms: 1_000,
            handshake_timeout_ms: 1_000,
            write_timeout_ms: 1_000,
            idle_timeout_ticks: 180,
            peer_death_ticks: 300,
            reconnect_base_ms: 100,
            reconnect_cap_ms: 3_000,
            send_queue_frames: 1_024,
            drain_timeout_ms: 2_000,
            connect_grace_ms: 500,
        }
    }
}

/// End-of-run transport telemetry (the state machine's own logs live on the
/// [`Servent`] the runtime hands back).
#[derive(Debug, Clone)]
pub struct WireRunReport {
    /// Protocol seconds the run covered.
    pub protocol_secs: u64,
    /// Queries issued by this servent (Good role only).
    pub issued: u64,
    /// Connection-lifecycle counters.
    pub conn: ConnCounters,
    /// Restart generation: 0 for a cold start, previous generation + 1
    /// after a successful resume-from-checkpoint.
    pub generation: u32,
}

/// One live transport connection.
struct Link {
    /// The socket and its queues. A finished queue means a Bye went out:
    /// the link closes once it is written, and supervision is abandoned —
    /// do not reconnect to a peer we cut.
    conn: Conn,
    last_heard_tick: u64,
}

/// Supervision state for one peer (outlives any individual connection).
struct Sup {
    /// Overlay neighbor (reconnect proactively, peer-death applies) versus
    /// Buddy-Group direct link (dialed on demand, dropped when idle).
    overlay: bool,
    /// Consecutive failed/lost connections since the last success.
    attempts: u32,
    next_dial_at: Option<Instant>,
    dialing: bool,
    /// Frames waiting for a transport, bounded like a send queue.
    pending: VecDeque<Bytes>,
    /// Supervision is over: we cut them, they cut us, or they died.
    abandoned: bool,
    ever_connected: bool,
    /// Last tick a connection to this peer existed (for peer-death).
    last_link_tick: u64,
}

impl Sup {
    fn new(overlay: bool) -> Self {
        Sup {
            overlay,
            attempts: 0,
            next_dial_at: None,
            dialing: false,
            pending: VecDeque::new(),
            abandoned: false,
            ever_connected: false,
            last_link_tick: 0,
        }
    }
}

/// What a handshake thread hands back to the loop.
enum Hello {
    /// An accepted socket's hello exchange finished: the socket and the
    /// peer's claimed `(id, listen_port)`, or why not.
    Accepted(Result<(TcpStream, u32, u16), HandshakeError>),
    /// A dial to `peer` finished.
    Dialed { peer: u32, result: Result<TcpStream, HandshakeError> },
}

/// The channel from the handshake threads to the loop, and the socket pair
/// that wakes the loop when something arrives on it.
struct Hellos {
    tx: Sender<Hello>,
    rx: Receiver<Hello>,
    /// Polled by the loop.
    wake_rx: UnixStream,
    /// Written, one byte a hello, by the threads.
    wake_tx: Arc<UnixStream>,
}

impl Hellos {
    fn new() -> std::io::Result<Self> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let (tx, rx) = channel();
        Ok(Hellos { tx, rx, wake_rx, wake_tx: Arc::new(wake_tx) })
    }

    /// Run `handshake` on a thread of its own and hand its result to the
    /// loop.
    fn spawn(&self, handshake: impl FnOnce() -> Hello + Send + 'static) {
        let (tx, wake) = (self.tx.clone(), self.wake_tx.clone());
        std::thread::spawn(move || {
            if tx.send(handshake()).is_ok() {
                // A full waker is already awake.
                let _ = (&*wake).write(&[1]);
            }
        });
    }
}

/// A [`Servent`] bound to a real TCP listener.
pub struct WireServent {
    /// The protocol state machine (read its logs after [`run`](Self::run)).
    pub servent: Servent,
    my_id: u32,
    listen_port: u16,
    listener: TcpListener,
    cfg: WireConfig,
    backoff: Backoff,
    /// peer id -> transport address (driver-provided; hello fills gaps).
    book: HashMap<u32, SocketAddr>,
    links: HashMap<u32, Link>,
    sups: HashMap<u32, Sup>,
    counters: ConnCounters,
    hellos: Hellos,
    /// An `accept` failed this tick; the listener is left alone until the
    /// next.
    accept_paused: bool,
    rng: StdRng,
    catalog: Vec<String>,
    query_rate_qpm: f64,
    issued: u64,
    /// The state machine's outbound frames on their way to `route`; kept so
    /// its allocation is made once.
    outbox: Outbox,
    /// The frames of the read being handled, likewise kept.
    inbox: Vec<Bytes>,
    /// The one read buffer of every link.
    chunk: Vec<u8>,
    /// The poll set of a pass: the waker, the listener, then one entry per
    /// link, whose peer is in `polled` two places earlier.
    fds: Vec<PollFd>,
    polled: Vec<u32>,
    /// Periodic crash-recovery checkpointing (None = disabled).
    checkpoint: Option<CheckpointSpec>,
    /// Restart generation (0 = cold start; bumped by a successful resume).
    generation: u32,
    /// First tick [`run`](Self::run) executes (nonzero after a resume).
    start_tick: u64,
}

impl WireServent {
    /// Bind the servent to `listener`. `overlay` lists overlay neighbors
    /// (the servent connects them logically up front, exactly like the
    /// in-memory harness, and supervises their transports); `book` maps
    /// every reachable peer id to an address — Buddy-Group members are
    /// dialed from it on demand.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mut servent: Servent,
        listener: TcpListener,
        book: HashMap<u32, SocketAddr>,
        overlay: &[u32],
        cfg: WireConfig,
        catalog: Vec<String>,
        query_rate_qpm: f64,
        seed: u64,
    ) -> std::io::Result<Self> {
        let listen_port = listener.local_addr()?.port();
        listener.set_nonblocking(true)?;
        let my_id = servent.id.0;
        let mut sups = HashMap::new();
        for &peer in overlay {
            servent.connect(NodeId(peer));
            sups.insert(peer, Sup::new(true));
        }
        Ok(WireServent {
            servent,
            my_id,
            listen_port,
            listener,
            backoff: Backoff { base_ms: cfg.reconnect_base_ms, cap_ms: cfg.reconnect_cap_ms },
            cfg,
            book,
            links: HashMap::new(),
            sups,
            counters: ConnCounters::default(),
            hellos: Hellos::new()?,
            accept_paused: false,
            rng: StdRng::seed_from_u64(seed),
            catalog,
            query_rate_qpm,
            issued: 0,
            outbox: Outbox::new(),
            inbox: Vec::new(),
            chunk: vec![0; READ_CHUNK],
            fds: Vec::new(),
            polled: Vec::new(),
            checkpoint: None,
            generation: 0,
            start_tick: 0,
        })
    }

    /// Enable periodic checkpointing under `spec` (call before
    /// [`run`](Self::run)).
    pub fn set_checkpointing(&mut self, spec: CheckpointSpec) {
        self.checkpoint = Some(spec);
    }

    /// Restart generation: 0 until a successful [`try_resume`](Self::try_resume).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Attempt to resume from the checkpoint configured via
    /// [`set_checkpointing`](Self::set_checkpointing).
    ///
    /// Returns `Ok(None)` when no checkpoint file exists (a plain cold
    /// start), `Ok(Some(next_tick))` after restoring state, and a typed
    /// [`SnapshotError`] for anything invalid — truncated or bit-flipped
    /// container, foreign config fingerprint, undecodable payload. The
    /// caller logs the error and proceeds with a cold start; this method
    /// never panics on hostile input and leaves the runtime cold-start-clean
    /// on failure.
    pub fn try_resume(&mut self) -> Result<Option<u64>, SnapshotError> {
        let Some(spec) = self.checkpoint.clone() else { return Ok(None) };
        let path = checkpoint::snap_path(&spec.dir, self.my_id);
        if !path.exists() {
            return Ok(None);
        }
        let (found, payload) = ddp_snapshot::read_snapshot(&path)?;
        if found != spec.context {
            return Err(SnapshotError::ContextMismatch { expected: spec.context, found });
        }
        let run = checkpoint::decode_payload(&payload, &mut self.servent)?;
        self.start_tick = run.next_tick;
        self.generation = run.generation + 1;
        self.issued = run.issued;
        self.rng = StdRng::from_state(run.rng);
        for peer in run.abandoned {
            self.sups.entry(peer).or_insert_with(|| Sup::new(false)).abandoned = true;
        }
        // The restored protocol clock is ahead of every transport timestamp;
        // give surviving supervision a full death horizon from here instead
        // of judging peers against pre-crash zeros.
        for sup in self.sups.values_mut() {
            if !sup.abandoned {
                sup.last_link_tick = self.start_tick;
            }
        }
        self.counters.resumes += 1;
        Ok(Some(self.start_tick))
    }

    /// Write one checkpoint: protocol clock, RNG stream, issuance tally,
    /// abandoned-peer set, and the full servent defense state. Failures are
    /// counted, not fatal — a missed checkpoint costs recovery freshness,
    /// not uptime.
    fn write_checkpoint(&mut self, tick: u64) {
        let Some(spec) = &self.checkpoint else { return };
        let mut abandoned: Vec<u32> =
            self.sups.iter().filter(|(_, s)| s.abandoned).map(|(&p, _)| p).collect();
        abandoned.sort_unstable();
        let payload = checkpoint::encode_payload(
            tick,
            self.generation,
            self.issued,
            self.rng.state(),
            &abandoned,
            &self.servent,
        );
        let path = checkpoint::snap_path(&spec.dir, self.my_id);
        match ddp_snapshot::write_snapshot(&path, spec.context, &payload) {
            Ok(()) => self.counters.checkpoints_written += 1,
            Err(e) => {
                self.counters.checkpoint_failures += 1;
                eprintln!("servent {}: checkpoint write failed: {e}", self.my_id);
            }
        }
    }

    /// Whether this side owns (re)dialing the link to `peer`: overlay links
    /// are dialed by the lower id; direct links by whoever has frames.
    fn i_dial(&self, peer: u32, sup: &Sup) -> bool {
        if sup.overlay {
            self.my_id < peer
        } else {
            !sup.pending.is_empty()
        }
    }

    /// Drive the servent for `minutes` protocol minutes, then drain.
    pub fn run(&mut self, minutes: u64) -> WireRunReport {
        let total_secs = minutes * 60;
        // Connection grace: dial the overlay links we own before tick 0 so
        // minute 0 counts over (mostly) live links — the harness's links
        // exist from t=0 too.
        self.sweep_dials();
        let grace_end = Instant::now() + Duration::from_millis(self.cfg.connect_grace_ms);
        let start_tick = self.start_tick;
        self.pump_until(grace_end, start_tick, false);

        let start = Instant::now();
        for t in start_tick..=total_secs {
            self.do_tick(t);
            let deadline = start + Duration::from_millis((t + 1 - start_tick) * self.cfg.tick_ms);
            self.pump_until(deadline, t, false);
        }

        // Graceful drain: stop pushing, write out every queue, then close.
        for link in self.links.values_mut() {
            link.conn.queue.finish();
        }
        let drain_end = Instant::now() + Duration::from_millis(self.cfg.drain_timeout_ms);
        self.pump_until(drain_end, total_secs, true);
        let undrained: Vec<u32> = self.links.keys().copied().collect();
        for peer in undrained {
            self.retire_link(peer);
        }
        // A hello still in flight finds no one to hand its socket to.
        (self.hellos.tx, self.hellos.rx) = channel();

        WireRunReport {
            protocol_secs: total_secs,
            issued: self.issued,
            conn: self.counters,
            generation: self.generation,
        }
    }

    /// Run loop passes until `deadline` (or, `draining`, until every link
    /// is closed). A pass writes every queue as far as its socket takes it,
    /// then waits in `poll` until a socket is ready, a write deadline passes
    /// or `deadline` comes, takes the finished handshakes, reads once from
    /// each readable link and accepts what waits on the listener. While
    /// `draining`, what is read is counted and discarded, no connection is
    /// accepted and no hello is installed.
    fn pump_until(&mut self, deadline: Instant, tick: u64, draining: bool) {
        let write_timeout = Duration::from_millis(self.cfg.write_timeout_ms);
        loop {
            let now = Instant::now();
            let mut closed = Vec::new();
            for (&peer, link) in &mut self.links {
                if let Some(reason) = link.conn.write(now, write_timeout, &mut self.counters) {
                    closed.push((peer, reason));
                }
            }
            for (peer, reason) in closed {
                self.on_closed(peer, reason, draining);
            }
            if now >= deadline || (draining && self.links.is_empty()) {
                return;
            }
            let wake_at = self
                .links
                .values()
                .filter_map(|l| l.conn.write_deadline(write_timeout))
                .fold(deadline, Instant::min);
            self.fds.clear();
            self.polled.clear();
            self.fds.push(PollFd::new(self.hellos.wake_rx.as_raw_fd(), POLLIN));
            let accepting = if draining || self.accept_paused { 0 } else { POLLIN };
            self.fds.push(PollFd::new(self.listener.as_raw_fd(), accepting));
            for (&peer, link) in &self.links {
                let out = if link.conn.queue.is_empty() { 0 } else { POLLOUT };
                self.fds.push(PollFd::new(link.conn.fd(), POLLIN | out));
                self.polled.push(peer);
            }
            if let Err(e) = poll(&mut self.fds, wake_at.saturating_duration_since(now)) {
                eprintln!("servent {}: poll failed: {e}", self.my_id);
                std::thread::sleep(Duration::from_millis(10));
            }
            // New links first: a frame read in this pass may be for one.
            if self.fds[0].revents != 0 {
                self.take_hellos(tick, draining);
            }
            for i in 2..self.fds.len() {
                if self.fds[i].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                    self.read_link(self.polled[i - 2], tick, draining);
                }
            }
            if self.fds[1].revents & POLLIN != 0 {
                self.accept_all();
            }
        }
    }

    /// One read from `peer`'s link; its frames go to the state machine one
    /// by one, in order, and what the machine sends is routed at once.
    fn read_link(&mut self, peer: u32, tick: u64, draining: bool) {
        let Some(link) = self.links.get_mut(&peer) else { return };
        let mut frames = std::mem::take(&mut self.inbox);
        let read = link.conn.read(&mut self.chunk, &mut frames, &mut self.counters);
        if !frames.is_empty() && !draining {
            link.last_heard_tick = tick;
            if let Some(sup) = self.sups.get_mut(&peer) {
                sup.last_link_tick = tick;
            }
            let from = NodeId(peer);
            let mut outbox = std::mem::take(&mut self.outbox);
            for frame in frames.drain(..) {
                let is_bye = frame.get(KIND_AT) == Some(&(PayloadKind::Bye as u8));
                // The state machine decides admission, frame by frame.
                self.servent.handle_frame(from, frame, tick, &mut outbox);
                if is_bye {
                    // The peer cut us: the state machine already dropped the
                    // neighbor; retire the transport too, once what is owed
                    // to it has been queued.
                    self.flush(&mut outbox);
                    self.abandon(peer);
                    if let Some(link) = self.links.get_mut(&peer) {
                        link.conn.queue.finish();
                    }
                }
            }
            self.flush(&mut outbox);
            self.outbox = outbox;
        }
        frames.clear();
        self.inbox = frames;
        if let Err(reason) = read {
            self.on_closed(peer, reason, draining);
        }
    }

    /// `peer`'s link is over: retire it and decide what supervision does.
    fn on_closed(&mut self, peer: u32, reason: CloseReason, draining: bool) {
        let bye_sent = self.retire_link(peer);
        if draining {
            return;
        }
        if matches!(reason, CloseReason::Codec(_)) {
            self.counters.codec_disconnects += 1;
            // Hostile bytes: treat like a cut — no reconnect.
            self.abandon(peer);
            return;
        }
        if bye_sent {
            return; // intentional close; supervision already over
        }
        self.schedule_redial(peer);
    }

    /// Take every waiting connection off the listener and run its hello on
    /// a thread of its own, so a dialer that connects and then stalls costs
    /// only that thread.
    fn accept_all(&mut self) {
        let (my_id, my_port) = (self.my_id, self.listen_port);
        let ht = self.cfg.handshake_timeout_ms;
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) => {
                    // Out of descriptors, say, the connection stays in the
                    // backlog and the listener readable: try again at the
                    // next tick instead of spinning on it.
                    self.accept_paused = e.kind() != std::io::ErrorKind::WouldBlock;
                    return;
                }
            };
            self.hellos.spawn(move || {
                let hello = stream
                    .set_nonblocking(false)
                    .map_err(|e| HandshakeError::Io(e.to_string()))
                    .and_then(|()| conn::accept_hello(stream, my_id, my_port, ht));
                Hello::Accepted(hello)
            });
        }
    }

    /// Install what the handshake threads handed back.
    fn take_hellos(&mut self, tick: u64, draining: bool) {
        let mut wakes = [0u8; 64];
        while matches!((&self.hellos.wake_rx).read(&mut wakes), Ok(n) if n > 0) {}
        while let Ok(hello) = self.hellos.rx.try_recv() {
            match hello {
                Hello::Accepted(Err(_)) => self.counters.handshake_failures += 1,
                _ if draining => {} // too late for a new link
                Hello::Accepted(Ok((stream, peer_id, peer_port))) => {
                    self.counters.accepts += 1;
                    // Learn addresses from the hello, but never overwrite the
                    // driver-provided book — chaos proxies route through it.
                    if let Ok(peer_sock) = stream.peer_addr() {
                        self.book
                            .entry(peer_id)
                            .or_insert_with(|| SocketAddr::new(peer_sock.ip(), peer_port));
                    }
                    if self.sups.get(&peer_id).is_some_and(|s| s.abandoned) {
                        // We cut this peer (or it died); refuse the transport.
                        continue;
                    }
                    self.install_link(peer_id, stream, false, tick);
                }
                Hello::Dialed { peer, result } => {
                    if let Some(sup) = self.sups.get_mut(&peer) {
                        sup.dialing = false;
                    }
                    match result {
                        Ok(stream) => {
                            self.counters.dials_ok += 1;
                            if !self.sups.get(&peer).is_some_and(|s| s.abandoned) {
                                self.install_link(peer, stream, true, tick);
                            }
                        }
                        Err(e) => {
                            self.counters.dials_failed += 1;
                            if !matches!(e, HandshakeError::Connect(_)) {
                                // TCP worked but the hello did not: half-open
                                // or hostile listener.
                                self.counters.handshake_failures += 1;
                            }
                            self.schedule_redial(peer);
                        }
                    }
                }
            }
        }
    }

    /// Take `peer`'s connection out of service and close it, counting the
    /// frames still queued as dropped. Returns whether the link was closing
    /// on purpose (a Bye went through it). The link must exist.
    fn retire_link(&mut self, peer: u32) -> bool {
        let mut link = self.links.remove(&peer).expect("caller checked the link exists");
        let bye_sent = link.conn.queue.is_finished();
        self.counters.frames_dropped += link.conn.queue.abort();
        bye_sent
    }

    /// Put a handshaken connection into service (tie-breaking duplicates:
    /// the connection dialed by the lower id wins).
    fn install_link(&mut self, peer: u32, stream: TcpStream, dialed_by_me: bool, tick: u64) {
        if self.links.contains_key(&peer) {
            let new_dialer = if dialed_by_me { self.my_id } else { peer };
            let old_dialer = if dialed_by_me { peer } else { self.my_id };
            if new_dialer > old_dialer {
                return; // keep the existing connection, drop the new socket
            }
            self.retire_link(peer);
        }
        let Ok(mut conn) = Conn::new(stream, self.cfg.send_queue_frames) else { return };
        let sup = self.sups.entry(peer).or_insert_with(|| Sup::new(false));
        sup.attempts = 0;
        sup.next_dial_at = None;
        sup.last_link_tick = tick;
        if sup.ever_connected {
            self.counters.reconnects += 1;
        }
        sup.ever_connected = true;
        for frame in sup.pending.drain(..) {
            self.counters.frames_dropped += conn.queue.push(frame);
        }
        let was_new_overlay = sup.overlay && !self.servent.is_neighbor(NodeId(peer));
        self.links.insert(peer, Link { conn, last_heard_tick: tick });
        if was_new_overlay {
            // A supervised overlay link (re)appeared after the state machine
            // had given the peer up: reattach and re-announce the list.
            self.servent.connect(NodeId(peer));
            self.drive(|servent, out| servent.announce_neighbor_list(out));
        }
    }

    /// Supervision is over for `peer`; queued frames are accounted dropped.
    fn abandon(&mut self, peer: u32) {
        if let Some(sup) = self.sups.get_mut(&peer) {
            sup.abandoned = true;
            sup.next_dial_at = None;
            self.counters.frames_dropped += sup.pending.len() as u64;
            sup.pending.clear();
        }
    }

    fn schedule_redial(&mut self, peer: u32) {
        let Some(sup) = self.sups.get(&peer) else { return };
        if sup.abandoned || sup.dialing || !self.i_dial(peer, sup) {
            return;
        }
        let delay = self.backoff.delay_ms(sup.attempts, &mut self.rng);
        let sup = self.sups.get_mut(&peer).expect("looked up above");
        sup.attempts = sup.attempts.saturating_add(1);
        sup.next_dial_at = Some(Instant::now() + Duration::from_millis(delay));
    }

    /// Route one outbound frame: live link, else pending + dial, else count
    /// it unroutable.
    fn route(&mut self, to: u32, frame: Bytes) {
        let is_bye = frame.get(KIND_AT) == Some(&(PayloadKind::Bye as u8));
        if let Some(link) = self.links.get_mut(&to) {
            // A finished queue (a Bye went out) refuses the frame.
            self.counters.frames_dropped += link.conn.queue.push(frame);
            if is_bye {
                // Flush everything queued (the Bye last), then close; never
                // dial this peer again.
                link.conn.queue.finish();
                self.abandon(to);
            }
            return;
        }
        if is_bye {
            // Cutting a peer we have no transport to: nothing to flush.
            self.abandon(to);
            self.counters.frames_dropped += 1;
            return;
        }
        if !self.book.contains_key(&to) {
            self.counters.frames_unroutable += 1;
            return;
        }
        let cap = self.cfg.send_queue_frames;
        let sup = self.sups.entry(to).or_insert_with(|| Sup::new(false));
        if sup.abandoned {
            self.counters.frames_dropped += 1;
            return;
        }
        if sup.pending.len() >= cap {
            sup.pending.pop_front();
            self.counters.frames_dropped += 1;
        }
        sup.pending.push_back(frame);
        if !sup.dialing && sup.next_dial_at.is_none() {
            sup.next_dial_at = Some(Instant::now());
        }
        self.sweep_dials();
    }

    /// Route everything in `outbox`, leaving it empty.
    fn flush(&mut self, outbox: &mut Outbox) {
        for (to, frame) in outbox.drain(..) {
            self.route(to.0, frame);
        }
    }

    /// Run one step of the state machine and route what it sends.
    fn drive(&mut self, step: impl FnOnce(&mut Servent, &mut Outbox)) {
        let mut outbox = std::mem::take(&mut self.outbox);
        step(&mut self.servent, &mut outbox);
        self.flush(&mut outbox);
        self.outbox = outbox;
    }

    /// Start every dial that is due and not already in flight.
    fn sweep_dials(&mut self) {
        let now = Instant::now();
        let due: Vec<(u32, SocketAddr)> = self
            .sups
            .iter()
            .filter(|(peer, sup)| {
                !sup.abandoned
                    && !sup.dialing
                    && !self.links.contains_key(peer)
                    && (sup.next_dial_at.is_some_and(|at| at <= now)
                        || (sup.next_dial_at.is_none() && self.i_dial(**peer, sup)))
            })
            .filter_map(|(&peer, _)| self.book.get(&peer).map(|&a| (peer, a)))
            .collect();
        for (peer, addr) in due {
            let sup = self.sups.get_mut(&peer).expect("listed above");
            sup.dialing = true;
            sup.next_dial_at = None;
            let (my_id, my_port) = (self.my_id, self.listen_port);
            let (ct, ht) = (self.cfg.connect_timeout_ms, self.cfg.handshake_timeout_ms);
            self.hellos.spawn(move || {
                let result =
                    conn::dial(addr, my_id, my_port, ct, ht).and_then(|(stream, peer_id, _)| {
                        if peer_id == peer {
                            Ok(stream)
                        } else {
                            Err(HandshakeError::Io(format!(
                                "dialed peer {peer}, got hello from {peer_id}"
                            )))
                        }
                    });
                Hello::Dialed { peer, result }
            });
        }
    }

    /// One protocol second. Mirrors the in-memory harness's step order:
    /// (deliveries happen continuously between ticks), query issuance,
    /// `on_second`, then the minute boundary.
    fn do_tick(&mut self, t: u64) {
        self.accept_paused = false;
        if t > 0 {
            if matches!(self.servent.role(), ServentRole::Good)
                && !self.catalog.is_empty()
                && self.rng.gen::<f64>() < self.query_rate_qpm / 60.0
            {
                let target = self.catalog[self.rng.gen_range(0..self.catalog.len())].clone();
                self.drive(|servent, out| servent.issue_query(&target, t, out));
                self.issued += 1;
            }
            self.drive(|servent, out| servent.on_second(t, out));
        }
        if t.is_multiple_of(60) {
            self.drive(|servent, out| servent.on_minute(t, t / 60, out));
        }
        self.supervise(t);
        let due = self.checkpoint.as_ref().is_some_and(|s| {
            s.every_ticks > 0 && t > self.start_tick && t.is_multiple_of(s.every_ticks)
        });
        if due {
            self.write_checkpoint(t);
        }
    }

    /// Periodic supervision: idle closes, peer-death, due redials.
    fn supervise(&mut self, t: u64) {
        // Idle links: nothing heard for the horizon — close and (if owned)
        // redial. The silent peer's reports go assume-zero upstream.
        let idle: Vec<u32> = self
            .links
            .iter()
            .filter(|(_, l)| {
                !l.conn.queue.is_finished()
                    && t.saturating_sub(l.last_heard_tick) > self.cfg.idle_timeout_ticks
            })
            .map(|(&p, _)| p)
            .collect();
        for peer in idle {
            self.counters.idle_closes += 1;
            self.retire_link(peer);
            self.schedule_redial(peer);
        }
        // Peer death: a supervised overlay transport that has stayed down
        // past the horizon. The state machine drops the neighbor (its
        // counters stop mattering) and the membership change is announced.
        let dead: Vec<u32> = self
            .sups
            .iter()
            .filter(|(peer, sup)| {
                sup.overlay
                    && !sup.abandoned
                    && !self.links.contains_key(peer)
                    && t.saturating_sub(sup.last_link_tick) > self.cfg.peer_death_ticks
            })
            .map(|(&p, _)| p)
            .collect();
        for peer in dead {
            self.abandon(peer);
            self.servent.disconnect(NodeId(peer));
            self.drive(|servent, out| servent.announce_neighbor_list(out));
        }
        self.sweep_dials();
    }
}
