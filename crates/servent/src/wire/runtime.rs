//! The threaded socket runtime: one [`Servent`] state machine driven by real
//! TCP connections.
//!
//! Thread model (see DESIGN.md "Wire deployment"):
//!
//! * **core loop** (the thread that calls [`WireServent::run`]) — owns the
//!   state machine, the link table, and all supervision decisions; receives
//!   every read's frames and every close/dial/accept event over one
//!   bounded channel ([`EVENT_CHANNEL_READS`]);
//! * **acceptor** — nonblocking `accept` poll; hands each socket to a
//!   one-shot handshake thread so a slow-lorising dialer cannot stall the
//!   listen queue;
//! * **per-connection reader/writer** — see [`super::conn`];
//! * **one-shot dial threads** — a dial in progress never blocks the tick.
//!
//! Protocol time is decoupled from wall time: tick `t` (one protocol second)
//! fires at `start + t * tick_ms`, so a whole four-minute experiment runs in
//! seconds of wall clock while timeouts keep their protocol-relative
//! meaning.

use super::backoff::Backoff;
use super::checkpoint::{self, CheckpointSpec};
use super::conn::{self, CloseReason, ConnEvent, HandshakeError, SendQueue, WireStats};
use crate::servent::{Outbox, Servent, ServentRole};
use bytes::Bytes;
use ddp_metrics::ConnCounters;
use ddp_protocol::{PayloadKind, KIND_AT};
use ddp_snapshot::SnapshotError;
use ddp_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Events the channel between the connection threads and the core holds
/// before a sender blocks. A reader's event is the frames of one read (at
/// most 8 KiB of small frames, and the one frame of up to 64 KiB it may
/// have completed), each a `Bytes` of its own, so what can sit between the
/// readers and the core is bounded in bytes — under 6 MB, see DESIGN.md —
/// whatever the frame sizes; beyond it the readers stop reading and TCP
/// backpressure reaches the senders.
pub const EVENT_CHANNEL_READS: usize = 64;

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
    /// Reader poll granularity, wall ms.
    pub read_timeout_ms: u64,
    /// Deadline of one `write` — a batch of queued frames — wall ms (a
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
            read_timeout_ms: 50,
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
    /// Generation tag: events from a replaced connection carry a stale gen
    /// and are ignored.
    gen: u64,
    queue: Arc<SendQueue>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
    last_heard_tick: u64,
    /// A Bye is queued; the writer flushes and closes, and supervision is
    /// abandoned — do not reconnect to a peer we cut.
    close_after_drain: bool,
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

/// A [`Servent`] bound to a real TCP listener.
pub struct WireServent {
    /// The protocol state machine (read its logs after [`run`](Self::run)).
    pub servent: Servent,
    my_id: u32,
    listen_port: u16,
    listener: Option<TcpListener>,
    cfg: WireConfig,
    backoff: Backoff,
    /// peer id -> transport address (driver-provided; hello fills gaps).
    book: HashMap<u32, SocketAddr>,
    links: HashMap<u32, Link>,
    sups: HashMap<u32, Sup>,
    gen_counter: u64,
    stats: Arc<WireStats>,
    shutdown: Arc<AtomicBool>,
    rng: StdRng,
    catalog: Vec<String>,
    query_rate_qpm: f64,
    issued: u64,
    /// Joined at shutdown: threads of replaced/closed connections.
    graveyard: Vec<JoinHandle<()>>,
    /// The state machine's outbound frames on their way to `route`; kept so
    /// its allocation is made once.
    outbox: Outbox,
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
            listener: Some(listener),
            backoff: Backoff { base_ms: cfg.reconnect_base_ms, cap_ms: cfg.reconnect_cap_ms },
            cfg,
            book,
            links: HashMap::new(),
            sups,
            gen_counter: 0,
            stats: Arc::new(WireStats::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
            rng: StdRng::seed_from_u64(seed),
            catalog,
            query_rate_qpm,
            issued: 0,
            graveyard: Vec::new(),
            outbox: Outbox::new(),
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
        self.stats.resumes.fetch_add(1, Ordering::Relaxed);
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
            Ok(()) => {
                self.stats.checkpoints_written.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.stats.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
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
        let (tx, rx) = sync_channel::<ConnEvent>(EVENT_CHANNEL_READS);
        let acceptor = self.spawn_acceptor(tx.clone());

        // Connection grace: dial the overlay links we own before tick 0 so
        // minute 0 counts over (mostly) live links — the harness's links
        // exist from t=0 too.
        self.sweep_dials(tx.clone());
        let grace_end = Instant::now() + Duration::from_millis(self.cfg.connect_grace_ms);
        let start_tick = self.start_tick;
        self.pump_events_until(&rx, &tx, grace_end, start_tick);

        let start = Instant::now();
        for t in start_tick..=total_secs {
            self.do_tick(t, &tx);
            let deadline = start + Duration::from_millis((t + 1 - start_tick) * self.cfg.tick_ms);
            self.pump_events_until(&rx, &tx, deadline, t);
        }

        // Graceful drain: stop pushing, let writers flush their queues.
        for link in self.links.values() {
            link.queue.finish();
        }
        let drain_end = Instant::now() + Duration::from_millis(self.cfg.drain_timeout_ms);
        while !self.links.is_empty() && Instant::now() < drain_end {
            let left = drain_end.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left.max(Duration::from_millis(1))) {
                Ok(ConnEvent::Closed { peer, conn_gen, .. }) => {
                    if self.links.get(&peer).is_some_and(|l| l.gen == conn_gen) {
                        self.retire_link(peer);
                    }
                }
                Ok(_) => {} // late frames/dials: no longer relevant
                Err(_) => break,
            }
        }
        self.shutdown.store(true, Ordering::Relaxed);
        let undrained: Vec<u32> = self.links.keys().copied().collect();
        for peer in undrained {
            self.retire_link(peer);
        }
        // Unblock any thread parked on a full event channel, then join.
        drop(tx);
        drop(rx);
        for h in self.graveyard.drain(..) {
            let _ = h.join();
        }
        let _ = acceptor.join();

        WireRunReport {
            protocol_secs: total_secs,
            issued: self.issued,
            conn: self.stats.counters(),
            generation: self.generation,
        }
    }

    /// Process connection events until `deadline`.
    fn pump_events_until(
        &mut self,
        rx: &std::sync::mpsc::Receiver<ConnEvent>,
        tx: &SyncSender<ConnEvent>,
        deadline: Instant,
        cur_tick: u64,
    ) {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(ev) => self.handle_event(ev, tx, cur_tick),
                Err(RecvTimeoutError::Timeout) => return,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    fn handle_event(&mut self, ev: ConnEvent, tx: &SyncSender<ConnEvent>, cur_tick: u64) {
        match ev {
            ConnEvent::Accepted { stream, peer_id, peer_port } => {
                self.stats.accepts.fetch_add(1, Ordering::Relaxed);
                // Learn addresses from the hello, but never overwrite the
                // driver-provided book — chaos proxies route through it.
                if let Ok(peer_sock) = stream.peer_addr() {
                    self.book
                        .entry(peer_id)
                        .or_insert_with(|| SocketAddr::new(peer_sock.ip(), peer_port));
                }
                if self.sups.get(&peer_id).is_some_and(|s| s.abandoned) {
                    // We cut this peer (or it died); refuse the transport.
                    return;
                }
                self.install_link(peer_id, stream, false, tx, cur_tick);
            }
            ConnEvent::DialDone { peer, result } => {
                if let Some(sup) = self.sups.get_mut(&peer) {
                    sup.dialing = false;
                }
                match result {
                    Ok(stream) => {
                        self.stats.dials_ok.fetch_add(1, Ordering::Relaxed);
                        if self.sups.get(&peer).is_some_and(|s| s.abandoned) {
                            return;
                        }
                        self.install_link(peer, stream, true, tx, cur_tick);
                    }
                    Err(e) => {
                        self.stats.dials_failed.fetch_add(1, Ordering::Relaxed);
                        if !matches!(e, HandshakeError::Connect(_)) {
                            // TCP worked but the hello did not: half-open or
                            // hostile listener.
                            self.stats.handshake_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        self.schedule_redial(peer);
                    }
                }
            }
            ConnEvent::Frames { peer, conn_gen, frames } => {
                let live = self.links.get_mut(&peer).filter(|l| l.gen == conn_gen);
                let Some(link) = live else { return };
                link.last_heard_tick = cur_tick;
                if let Some(sup) = self.sups.get_mut(&peer) {
                    sup.last_link_tick = cur_tick;
                }
                let from = NodeId(peer);
                let mut outbox = std::mem::take(&mut self.outbox);
                for frame in frames {
                    let is_bye = frame.get(KIND_AT) == Some(&(PayloadKind::Bye as u8));
                    // The state machine decides admission, frame by frame.
                    self.servent.handle_frame(from, frame, cur_tick, &mut outbox);
                    if is_bye {
                        // The peer cut us: the state machine already dropped
                        // the neighbor; retire the transport too, once what
                        // is owed to it has been queued.
                        self.flush(&mut outbox, tx);
                        self.abandon(peer);
                        if let Some(link) = self.links.get_mut(&peer) {
                            link.close_after_drain = true;
                            link.queue.finish();
                        }
                    }
                }
                self.flush(&mut outbox, tx);
                self.outbox = outbox;
            }
            ConnEvent::Closed { peer, conn_gen, reason } => {
                let stale = self.links.get(&peer).is_none_or(|l| l.gen != conn_gen);
                if stale {
                    return;
                }
                let close_after_drain = self.retire_link(peer);
                if matches!(reason, CloseReason::Codec(_)) {
                    self.stats.codec_disconnects.fetch_add(1, Ordering::Relaxed);
                    // Hostile bytes: treat like a cut — no reconnect.
                    self.abandon(peer);
                    return;
                }
                if close_after_drain {
                    return; // intentional close; supervision already over
                }
                self.schedule_redial(peer);
            }
        }
    }

    /// Take `peer`'s connection out of service: stop its writer, count the
    /// frames still queued as dropped, keep the threads for the final join.
    /// Returns whether the link was closing on purpose (a Bye went through
    /// it). The link must exist.
    fn retire_link(&mut self, peer: u32) -> bool {
        let link = self.links.remove(&peer).expect("caller checked the link exists");
        self.stats.frames_dropped.fetch_add(link.queue.abort(), Ordering::Relaxed);
        self.graveyard.push(link.reader);
        self.graveyard.push(link.writer);
        link.close_after_drain
    }

    /// Put a handshaken connection into service (tie-breaking duplicates:
    /// the connection dialed by the lower id wins).
    fn install_link(
        &mut self,
        peer: u32,
        stream: TcpStream,
        dialed_by_me: bool,
        tx: &SyncSender<ConnEvent>,
        cur_tick: u64,
    ) {
        if self.links.contains_key(&peer) {
            let new_dialer = if dialed_by_me { self.my_id } else { peer };
            let old_dialer = if dialed_by_me { peer } else { self.my_id };
            if new_dialer > old_dialer {
                return; // keep the existing connection, drop the new socket
            }
            self.retire_link(peer);
        }
        let Ok(read_half) = stream.try_clone() else { return };
        self.gen_counter += 1;
        let gen = self.gen_counter;
        let queue = Arc::new(SendQueue::new(self.cfg.send_queue_frames));
        let reader = conn::spawn_reader(
            read_half,
            peer,
            gen,
            tx.clone(),
            self.stats.clone(),
            self.shutdown.clone(),
            self.cfg.read_timeout_ms,
        );
        let writer = conn::spawn_writer(
            stream,
            peer,
            gen,
            queue.clone(),
            tx.clone(),
            self.stats.clone(),
            self.cfg.write_timeout_ms,
        );
        let sup = self.sups.entry(peer).or_insert_with(|| Sup::new(false));
        sup.attempts = 0;
        sup.next_dial_at = None;
        sup.last_link_tick = cur_tick;
        if sup.ever_connected {
            self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        sup.ever_connected = true;
        let backlog: Vec<Bytes> = sup.pending.drain(..).collect();
        let was_new_overlay = sup.overlay && !self.servent.is_neighbor(NodeId(peer));
        self.links.insert(
            peer,
            Link {
                gen,
                queue: queue.clone(),
                reader,
                writer,
                last_heard_tick: cur_tick,
                close_after_drain: false,
            },
        );
        for frame in backlog {
            let evicted = queue.push(frame);
            self.stats.frames_dropped.fetch_add(evicted, Ordering::Relaxed);
        }
        if was_new_overlay {
            // A supervised overlay link (re)appeared after the state machine
            // had given the peer up: reattach and re-announce the list.
            self.servent.connect(NodeId(peer));
            self.drive(tx, |servent, out| servent.announce_neighbor_list(out));
        }
    }

    /// Supervision is over for `peer`; queued frames are accounted dropped.
    fn abandon(&mut self, peer: u32) {
        if let Some(sup) = self.sups.get_mut(&peer) {
            sup.abandoned = true;
            sup.next_dial_at = None;
            self.stats.frames_dropped.fetch_add(sup.pending.len() as u64, Ordering::Relaxed);
            sup.pending.clear();
        }
    }

    fn schedule_redial(&mut self, peer: u32) {
        let Some(sup) = self.sups.get_mut(&peer) else { return };
        if sup.abandoned || sup.dialing {
            return;
        }
        let responsible = if sup.overlay { self.my_id < peer } else { !sup.pending.is_empty() };
        if !responsible {
            return;
        }
        let delay = self.backoff.delay_ms(sup.attempts, &mut self.rng);
        sup.attempts = sup.attempts.saturating_add(1);
        sup.next_dial_at = Some(Instant::now() + Duration::from_millis(delay));
    }

    /// Route one outbound frame: live link, else pending + dial, else count
    /// it unroutable.
    fn route(&mut self, to: u32, frame: Bytes, tx: &SyncSender<ConnEvent>) {
        // The kind byte follows the 16-byte GUID.
        let is_bye = frame.get(16) == Some(&(PayloadKind::Bye as u8));
        if let Some(link) = self.links.get_mut(&to) {
            if link.close_after_drain {
                self.stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let evicted = link.queue.push(frame);
            self.stats.frames_dropped.fetch_add(evicted, Ordering::Relaxed);
            if is_bye {
                // Flush everything queued (the Bye last), then close; never
                // dial this peer again.
                link.close_after_drain = true;
                link.queue.finish();
                self.abandon(to);
            }
            return;
        }
        if is_bye {
            // Cutting a peer we have no transport to: nothing to flush.
            self.abandon(to);
            self.stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if !self.book.contains_key(&to) {
            self.stats.frames_unroutable.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let cap = self.cfg.send_queue_frames;
        let sup = self.sups.entry(to).or_insert_with(|| Sup::new(false));
        if sup.abandoned {
            self.stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if sup.pending.len() >= cap {
            sup.pending.pop_front();
            self.stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
        }
        sup.pending.push_back(frame);
        if !sup.dialing && sup.next_dial_at.is_none() {
            sup.next_dial_at = Some(Instant::now());
        }
        self.sweep_dials(tx.clone());
    }

    /// Route everything in `outbox`, leaving it empty.
    fn flush(&mut self, outbox: &mut Outbox, tx: &SyncSender<ConnEvent>) {
        for (to, frame) in outbox.drain(..) {
            self.route(to.0, frame, tx);
        }
    }

    /// Run one step of the state machine and route what it sends.
    fn drive(&mut self, tx: &SyncSender<ConnEvent>, step: impl FnOnce(&mut Servent, &mut Outbox)) {
        let mut outbox = std::mem::take(&mut self.outbox);
        step(&mut self.servent, &mut outbox);
        self.flush(&mut outbox, tx);
        self.outbox = outbox;
    }

    /// Start every dial that is due and not already in flight.
    fn sweep_dials(&mut self, tx: SyncSender<ConnEvent>) {
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
            let tx = tx.clone();
            let (my_id, my_port) = (self.my_id, self.listen_port);
            let (ct, ht) = (self.cfg.connect_timeout_ms, self.cfg.handshake_timeout_ms);
            std::thread::spawn(move || {
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
                let _ = tx.send(ConnEvent::DialDone { peer, result });
            });
        }
    }

    /// One protocol second. Mirrors the in-memory harness's step order:
    /// (deliveries happen continuously between ticks), query issuance,
    /// `on_second`, then the minute boundary.
    fn do_tick(&mut self, t: u64, tx: &SyncSender<ConnEvent>) {
        if t > 0 {
            if matches!(self.servent.role(), ServentRole::Good)
                && !self.catalog.is_empty()
                && self.rng.gen::<f64>() < self.query_rate_qpm / 60.0
            {
                let target = self.catalog[self.rng.gen_range(0..self.catalog.len())].clone();
                self.drive(tx, |servent, out| servent.issue_query(&target, t, out));
                self.issued += 1;
            }
            self.drive(tx, |servent, out| servent.on_second(t, out));
        }
        if t.is_multiple_of(60) {
            self.drive(tx, |servent, out| servent.on_minute(t, t / 60, out));
        }
        self.supervise(t, tx);
        let due = self.checkpoint.as_ref().is_some_and(|s| {
            s.every_ticks > 0 && t > self.start_tick && t.is_multiple_of(s.every_ticks)
        });
        if due {
            self.write_checkpoint(t);
        }
    }

    /// Periodic supervision: idle closes, peer-death, due redials.
    fn supervise(&mut self, t: u64, tx: &SyncSender<ConnEvent>) {
        // Idle links: nothing heard for the horizon — close and (if owned)
        // redial. The silent peer's reports go assume-zero upstream.
        let idle: Vec<u32> = self
            .links
            .iter()
            .filter(|(_, l)| {
                !l.close_after_drain
                    && t.saturating_sub(l.last_heard_tick) > self.cfg.idle_timeout_ticks
            })
            .map(|(&p, _)| p)
            .collect();
        for peer in idle {
            self.stats.idle_closes.fetch_add(1, Ordering::Relaxed);
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
            self.drive(tx, |servent, out| servent.announce_neighbor_list(out));
        }
        self.sweep_dials(tx.clone());
    }

    fn spawn_acceptor(&mut self, tx: SyncSender<ConnEvent>) -> JoinHandle<()> {
        let listener = self.listener.take().expect("run called once");
        listener.set_nonblocking(true).expect("nonblocking listener");
        let stats = self.stats.clone();
        let shutdown = self.shutdown.clone();
        let (my_id, my_port) = (self.my_id, self.listen_port);
        let ht = self.cfg.handshake_timeout_ms;
        std::thread::Builder::new()
            .name(format!("ddp-accept-{my_id}"))
            .spawn(move || loop {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        // One-shot handshake thread: a dialer that connects
                        // and then stalls only costs its own thread, not the
                        // accept loop.
                        let _ = stream.set_nonblocking(false);
                        let tx = tx.clone();
                        let stats = stats.clone();
                        std::thread::spawn(move || {
                            match conn::accept_hello(stream, my_id, my_port, ht) {
                                Ok((s, peer_id, peer_port)) => {
                                    let _ = tx.send(ConnEvent::Accepted {
                                        stream: s,
                                        peer_id,
                                        peer_port,
                                    });
                                }
                                Err(_) => {
                                    stats.handshake_failures.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        });
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            })
            .expect("spawn acceptor thread")
    }
}
