//! The peer state machine.

use bytes::Bytes;
use ddp_police::{
    aggregate_group_traffic, indicator, DdPoliceConfig, MonitorBackend, TrafficReport,
};
use ddp_protocol::routing::Offer;
use ddp_protocol::{
    decode_frame, encode_message, Bye, Guid, Header, Message, NeighborList, NeighborTraffic,
    Payload, PeerAddr, Pong, Query, QueryHit, QueryHitResult, Receipt, SeenTable,
};
use ddp_sketch::SketchMonitor;
use ddp_topology::NodeId;
use std::collections::{BTreeMap, HashMap};

/// What kind of peer this servent is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServentRole {
    /// A regular peer: searches, forwards, polices.
    Good,
    /// A DDoS agent: floods `rate_qpm` distinct queries per minute per
    /// neighbor; does not police. When `respond_reports` is false it also
    /// refuses `Neighbor_Traffic` and list exchanges (§3.4's choice 3).
    FloodingAgent { rate_qpm: u32, respond_reports: bool },
}

/// Servent configuration.
#[derive(Debug, Clone)]
pub struct ServentConfig {
    /// DD-POLICE parameters (thresholds, exchange period, q, CT).
    pub police: DdPoliceConfig,
    /// Query TTL.
    pub ttl: u8,
    /// Seconds an investigation waits for reports ("waiting for another 50
    /// seconds", §3.3).
    pub report_deadline_secs: u64,
    /// Strings this servent shares (query criteria it answers).
    pub library: Vec<String>,
}

impl Default for ServentConfig {
    fn default() -> Self {
        ServentConfig {
            police: DdPoliceConfig::default(),
            ttl: 5,
            report_deadline_secs: 50,
            library: Vec::new(),
        }
    }
}

/// Per-neighbor link state.
#[derive(Debug, Clone, Default)]
struct LinkState {
    /// Queries sent to this neighbor in the current minute (wire count).
    out_cur: u32,
    /// *Fresh* (non-duplicate) queries received from this neighbor in the
    /// current minute — the receiver-side `In_query` the indicators need.
    in_cur: u32,
    /// Finalized previous-minute counters (the reporting window).
    out_prev: u32,
    in_prev: u32,
    /// The neighbor's latest receipt: how many fresh queries *it* accepted
    /// from us last minute (the trustworthy-when-honest `Q_{me→them}`).
    receipt_prev: u32,
    /// Last neighbor list announced by this neighbor.
    announced: Option<Vec<NodeId>>,
}

/// An open Buddy-Group investigation of one suspect.
#[derive(Debug, Clone)]
struct Investigation {
    deadline: u64,
    members: Vec<NodeId>,
    /// member -> (Q_{m→suspect}, Q_{suspect→m}) as reported.
    reports: HashMap<u32, (u32, u32)>,
}

/// Outbound frames produced by one handler call.
pub type Outbox = Vec<(NodeId, Bytes)>;

/// A complete DD-POLICE servent.
#[derive(Debug)]
pub struct Servent {
    pub id: NodeId,
    addr: PeerAddr,
    role: ServentRole,
    cfg: ServentConfig,
    links: BTreeMap<u32, LinkState>,
    seen: SeenTable,
    guid_seq: u64,
    /// GUIDs of queries this servent issued, with issue time.
    issued: HashMap<Guid, u64>,
    /// Resolved queries: issue time -> first-hit latency (secs).
    pub hits: Vec<(u64, u64)>,
    investigations: BTreeMap<u32, Investigation>,
    /// suspect -> last time we broadcast a Neighbor_Traffic about it.
    last_nt: HashMap<u32, u64>,
    /// Peers this servent defensively disconnected, with time.
    pub cut_log: Vec<(u64, NodeId)>,
    /// Missing-list grace bookkeeping per suspect.
    missing_list_strikes: HashMap<u32, u8>,
    /// Every concluded investigation: (second, suspect, g, s, cut).
    pub verdict_log: Vec<(u64, NodeId, f64, f64, bool)>,
    /// Scheduled Neighbor_Traffic broadcasts: (due, suspect, members).
    /// Deferred a couple of seconds so the current minute's receipts land
    /// before the reports that quote them.
    pending_nt: Vec<(u64, NodeId, Vec<NodeId>)>,
    /// Buddy-Group liveness (§3.1: "A peer ping members within the same BG
    /// periodically to make sure that other members are online"): last time
    /// we heard anything from each known member.
    member_last_seen: HashMap<u32, u64>,
    /// Sketch traffic monitor when `cfg.police.monitor` selects the sketch
    /// backend; `None` under the exact default (per-link counters, exactly
    /// the pre-backend behavior). When active, the live-minute counting goes
    /// through the count-min window instead of `out_cur`/`in_cur`, and the
    /// minute rollover materializes `out_prev`/`in_prev` from estimates —
    /// every downstream consumer (receipts, suspicion scan, reports) then
    /// reads estimates without knowing the backend changed.
    monitor: Option<SketchMonitor>,
}

impl Servent {
    /// New servent with the given role and config.
    pub fn new(id: NodeId, role: ServentRole, cfg: ServentConfig) -> Self {
        let monitor = match cfg.police.monitor {
            MonitorBackend::Exact => None,
            MonitorBackend::Sketch(params) => Some(SketchMonitor::new(params)),
        };
        Servent {
            id,
            addr: PeerAddr::from_node_index(id.0),
            role,
            cfg,
            links: BTreeMap::new(),
            seen: SeenTable::new(600),
            guid_seq: 0,
            issued: HashMap::new(),
            hits: Vec::new(),
            investigations: BTreeMap::new(),
            last_nt: HashMap::new(),
            cut_log: Vec::new(),
            missing_list_strikes: HashMap::new(),
            verdict_log: Vec::new(),
            pending_nt: Vec::new(),
            member_last_seen: HashMap::new(),
            monitor,
        }
    }

    /// The active monitor-backend label (`""` for exact) — run attribution.
    pub fn monitor_backend(&self) -> String {
        match self.cfg.police.monitor {
            MonitorBackend::Exact => String::new(),
            backend => backend.label(),
        }
    }

    /// The servent's role.
    pub fn role(&self) -> ServentRole {
        self.role
    }

    /// Current neighbors.
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.links.keys().map(|&k| NodeId(k)).collect()
    }

    /// Whether `peer` is a neighbor.
    pub fn is_neighbor(&self, peer: NodeId) -> bool {
        self.links.contains_key(&peer.0)
    }

    /// Attach a neighbor (handshake done out of band).
    pub fn connect(&mut self, peer: NodeId) {
        self.links.entry(peer.0).or_default();
    }

    /// Detach a neighbor locally (the far side is told via Bye elsewhere).
    pub fn disconnect(&mut self, peer: NodeId) {
        self.links.remove(&peer.0);
        self.investigations.remove(&peer.0);
        self.missing_list_strikes.remove(&peer.0);
        // The heavy-hitter slot (and its bucket) dies with the link.
        if let Some(m) = self.monitor.as_mut() {
            m.forget_sender(peer.0);
        }
    }

    /// Send the current neighbor list to every neighbor, immediately.
    ///
    /// The in-memory harness announces by running `on_minute(0, 0)` at build
    /// time; transports where links come up (or back) asynchronously call
    /// this when overlay membership changes so Buddy Groups re-form without
    /// waiting for the next exchange period. Respects the role's
    /// announcement policy (a stonewalling agent stays silent).
    pub fn announce_neighbor_list(&mut self, out: &mut Outbox) {
        let announces = match self.role {
            ServentRole::Good => true,
            ServentRole::FloodingAgent { respond_reports, .. } => respond_reports,
        };
        if !announces {
            return;
        }
        let list = NeighborList {
            neighbors: self.neighbors().iter().map(|p| PeerAddr::from_node_index(p.0)).collect(),
        };
        let msg = Message::new(self.next_guid(), 1, Payload::NeighborList(list));
        let frame = self.frame(&msg);
        for peer in self.neighbors() {
            out.push((peer, frame.clone()));
        }
    }

    fn next_guid(&mut self) -> Guid {
        self.guid_seq += 1;
        Guid::derived(self.id.0, self.guid_seq)
    }

    fn frame(&self, msg: &Message) -> Bytes {
        encode_message(msg)
    }

    fn send_query_to(&mut self, to: NodeId, msg: &Message, out: &mut Outbox) {
        if let Some(link) = self.links.get_mut(&to.0) {
            match self.monitor.as_mut() {
                Some(m) => m.record_flow(self.id.0, to.0, 1),
                None => link.out_cur += 1,
            }
            out.push((to, encode_message(msg)));
        }
    }

    /// Send one query to every neighbor but `except`: encoded once, the
    /// buffer copied for all receivers but the last, which takes it.
    fn flood_query(&mut self, msg: &Message, except: Option<NodeId>, out: &mut Outbox) {
        let mut frame = encode_message(msg);
        let me = self.id.0;
        let mut receivers =
            self.links.iter_mut().filter(|(&peer, _)| Some(NodeId(peer)) != except).peekable();
        while let Some((&peer, link)) = receivers.next() {
            match self.monitor.as_mut() {
                Some(m) => m.record_flow(me, peer, 1),
                None => link.out_cur += 1,
            }
            let copy =
                if receivers.peek().is_some() { frame.clone() } else { std::mem::take(&mut frame) };
            out.push((NodeId(peer), copy));
        }
    }

    /// Issue one search for `criteria`, flooding all neighbors.
    pub fn issue_query(&mut self, criteria: &str, now: u64, out: &mut Outbox) {
        let guid = self.next_guid();
        self.issued.insert(guid, now);
        // Mark our own query as seen so echoes die here.
        self.seen.offer(guid, self.id.0, now);
        let msg = Message::new(
            guid,
            self.cfg.ttl,
            Payload::Query(Query { min_speed: 0, criteria: criteria.into() }),
        );
        self.flood_query(&msg, None, out);
    }

    /// One wall-clock second: attackers emit their flood share; everyone
    /// concludes investigations whose deadline passed.
    pub fn on_second(&mut self, now: u64, out: &mut Outbox) {
        if let ServentRole::FloodingAgent { rate_qpm, .. } = self.role {
            let per_second = (rate_qpm / 60).max(1);
            for peer in self.neighbors() {
                for _ in 0..per_second {
                    let guid = self.next_guid();
                    self.seen.offer(guid, self.id.0, now);
                    let msg = Message::new(
                        guid,
                        self.cfg.ttl,
                        Payload::Query(Query {
                            min_speed: 0,
                            criteria: format!("bogus-{}", self.guid_seq),
                        }),
                    );
                    self.send_query_to(peer, &msg, out);
                }
            }
        }
        // Drain deferred Neighbor_Traffic broadcasts.
        let due: Vec<(u64, NodeId, Vec<NodeId>)> = {
            let (ready, later): (Vec<_>, Vec<_>) =
                std::mem::take(&mut self.pending_nt).into_iter().partition(|&(t, ..)| now >= t);
            self.pending_nt = later;
            ready
        };
        for (_, suspect, members) in due {
            self.broadcast_nt(suspect, &members, now, out);
        }
        self.conclude_due_investigations(now, out);
        self.seen.sweep(now);
    }

    /// Minute boundary: finalize counters, run the DD-POLICE steps.
    pub fn on_minute(&mut self, now: u64, minute: u64, out: &mut Outbox) {
        match self.monitor.as_mut() {
            None => {
                for link in self.links.values_mut() {
                    link.out_prev = link.out_cur;
                    link.in_prev = link.in_cur;
                    link.out_cur = 0;
                    link.in_cur = 0;
                }
            }
            Some(m) => {
                // Materialize the closing minute from the sketch window
                // (overestimate-only: a flooder cannot hide in an estimate
                // that never reads low), feed each sender's aggregate to the
                // heavy-hitter table, then open the next window — which also
                // drains the sustained-rate buckets by the warning budget.
                let me = self.id.0;
                for (&peer, link) in self.links.iter_mut() {
                    link.out_prev = m.estimate(me, peer);
                    link.in_prev = m.estimate(peer, me);
                    link.out_cur = 0;
                    link.in_cur = 0;
                    m.note_sender_total(peer, link.in_prev as u64);
                }
                m.begin_tick(self.cfg.police.warning_threshold_qpm as u64);
            }
        }
        let polices = matches!(self.role, ServentRole::Good);
        let announces = match self.role {
            ServentRole::Good => true,
            ServentRole::FloodingAgent { respond_reports, .. } => respond_reports,
        };
        // Neighbor-list exchange (§3.1) on the periodic schedule.
        let period = match self.cfg.police.exchange {
            ddp_police::ExchangePolicy::Periodic { minutes } => minutes.max(1) as u64,
            ddp_police::ExchangePolicy::EventDriven => 1,
        };
        if announces && minute.is_multiple_of(period) {
            let list = NeighborList {
                neighbors: self
                    .neighbors()
                    .iter()
                    .map(|p| PeerAddr::from_node_index(p.0))
                    .collect(),
            };
            let msg = Message::new(self.next_guid(), 1, Payload::NeighborList(list));
            let frame = self.frame(&msg);
            for peer in self.neighbors() {
                out.push((peer, frame.clone()));
            }
        }
        // Per-link receipts (every minute): tell each neighbor how many
        // fresh queries we accepted from it. Receiver-side counting is what
        // lets Buddy Groups discount an attacker's own echoes.
        if announces {
            for peer in self.neighbors() {
                let fresh = self.links.get(&peer.0).map_or(0, |l| l.in_prev);
                let r = Receipt {
                    subject_ip: PeerAddr::from_node_index(peer.0).ip,
                    fresh_queries: fresh,
                };
                let msg = Message::new(self.next_guid(), 1, Payload::Receipt(r));
                out.push((peer, self.frame(&msg)));
            }
        }
        if !polices {
            return;
        }
        // BG liveness pings (§3.1): probe Buddy-Group members we have not
        // heard from this minute. Their Pong (or any other frame) refreshes
        // `member_last_seen`; members silent past the staleness horizon are
        // excluded from report collection (they count as assume-zero anyway,
        // but we stop spending messages on them).
        let mut to_ping: Vec<NodeId> = Vec::new();
        for link in self.links.values() {
            if let Some(members) = &link.announced {
                for &m in members {
                    if m == self.id {
                        continue;
                    }
                    let stale = self
                        .member_last_seen
                        .get(&m.0)
                        .is_none_or(|&t| now.saturating_sub(t) >= 60);
                    if stale && !to_ping.contains(&m) {
                        to_ping.push(m);
                    }
                }
            }
        }
        for m in to_ping {
            let ping = Message::new(self.next_guid(), 1, Payload::Ping(ddp_protocol::Ping));
            out.push((m, self.frame(&ping)));
        }
        // Suspicion scan (§3.3) over the finalized minute.
        let suspects: Vec<NodeId> = self
            .links
            .iter()
            .filter(|(_, l)| l.in_prev > self.cfg.police.warning_threshold_qpm)
            .map(|(&k, _)| NodeId(k))
            .collect();
        for suspect in suspects {
            self.open_investigation(suspect, now, out);
        }
    }

    fn open_investigation(&mut self, suspect: NodeId, now: u64, _out: &mut Outbox) {
        if self.investigations.contains_key(&suspect.0) {
            return;
        }
        let members: Vec<NodeId> =
            match self.links.get(&suspect.0).and_then(|l| l.announced.clone()) {
                Some(list) => {
                    self.missing_list_strikes.remove(&suspect.0);
                    list
                }
                None => {
                    // No list yet: wait out the grace period, then judge solo.
                    let strikes = self.missing_list_strikes.entry(suspect.0).or_insert(0);
                    *strikes = strikes.saturating_add(1);
                    if *strikes < self.cfg.police.missing_list_grace {
                        return;
                    }
                    vec![self.id]
                }
            };
        self.investigations.insert(
            suspect.0,
            Investigation {
                deadline: now + self.cfg.report_deadline_secs,
                members: members.clone(),
                reports: HashMap::new(),
            },
        );
        // Deferred so this minute's receipts arrive before the reports.
        self.pending_nt.push((now + 2, suspect, members));
    }

    /// Send our Neighbor_Traffic report about `suspect` to the other Buddy
    /// Group members (50-second suppression).
    fn broadcast_nt(&mut self, suspect: NodeId, members: &[NodeId], now: u64, out: &mut Outbox) {
        if let Some(&last) = self.last_nt.get(&suspect.0) {
            if now.saturating_sub(last) < 50 {
                return;
            }
        }
        self.last_nt.insert(suspect.0, now);
        let Some(link) = self.links.get(&suspect.0) else { return };
        // Members not heard from in over three minutes are treated as
        // offline (BG ping failures) and skipped.
        let horizon = 180u64;
        let nt = NeighborTraffic {
            source_ip: self.addr.ip,
            suspect_ip: PeerAddr::from_node_index(suspect.0).ip,
            timestamp: now as u32,
            // Out_query(suspect): the suspect's receipt for our traffic —
            // receiver-measured, duplicate-filtered (0 if it never receipts).
            outgoing_queries: link.receipt_prev,
            // In_query(suspect): our own fresh count from the suspect.
            incoming_queries: link.in_prev,
        };
        let msg = Message::new(self.next_guid(), 1, Payload::NeighborTraffic(nt));
        let frame = self.frame(&msg);
        for &m in members {
            if m == self.id {
                continue;
            }
            let dead =
                self.member_last_seen.get(&m.0).is_some_and(|&t| now.saturating_sub(t) > horizon)
                    && now > horizon;
            if !dead {
                out.push((m, frame.clone()));
            }
        }
    }

    fn conclude_due_investigations(&mut self, now: u64, out: &mut Outbox) {
        let due: Vec<u32> = self
            .investigations
            .iter()
            .filter(|(_, inv)| now >= inv.deadline)
            .map(|(&k, _)| k)
            .collect();
        for suspect_key in due {
            let inv = self.investigations.remove(&suspect_key).expect("just listed");
            let suspect = NodeId(suspect_key);
            let Some(link) = self.links.get(&suspect_key) else { continue };
            // Own counters plus one claim per other member; missing => 0.
            // Q_{me→j} uses the suspect's receipt (its fresh-In from us);
            // a suspect that issues no receipts forfeits the discount.
            let own = TrafficReport {
                sent_to_suspect: link.receipt_prev,
                received_from_suspect: link.in_prev,
            };
            let reports: Vec<Option<TrafficReport>> = inv
                .members
                .iter()
                .filter(|&&m| m != self.id)
                .map(|m| {
                    inv.reports.get(&m.0).map(|&(m_to_j, j_to_m)| TrafficReport {
                        sent_to_suspect: m_to_j,
                        received_from_suspect: j_to_m,
                    })
                })
                .collect();
            let police = &self.cfg.police;
            let (sum_out, sum_in) = aggregate_group_traffic(own, &reports, police.aggregation);
            let (g, s, bad) = indicator::judge(own, sum_out, sum_in, reports.len() + 1, police);
            self.verdict_log.push((now, suspect, g, s, bad));
            if bad {
                let bye = Message::new(
                    self.next_guid(),
                    1,
                    Payload::Bye(Bye {
                        code: Bye::CODE_DDOS_SUSPECT,
                        reason: format!("g={g:.1} s={s:.1} exceeded CT"),
                    }),
                );
                out.push((suspect, self.frame(&bye)));
                self.disconnect(suspect);
                self.cut_log.push((now, suspect));
            }
        }
    }

    /// Handle one inbound frame. Unknown/undecodable frames are dropped (a
    /// real servent closes the connection; the harness has no byte errors).
    pub fn handle_frame(&mut self, from: NodeId, frame: Bytes, now: u64, out: &mut Outbox) {
        let Ok((msg, _)) = decode_frame(&frame) else { return };
        self.handle_message(from, msg, now, out);
    }

    /// Handle one inbound message that has already been decoded (the wire
    /// runtime's readers validate by decoding, and hand the result on).
    pub fn handle_message(&mut self, from: NodeId, msg: Message, now: u64, out: &mut Outbox) {
        self.member_last_seen.insert(from.0, now);
        let Message { header, payload } = msg;
        match payload {
            Payload::Query(q) => self.handle_query(from, header, q, now, out),
            Payload::QueryHit(qh) => self.handle_hit(header, qh, now, out),
            Payload::Ping(_) => {
                let pong = Message::new(
                    header.guid,
                    1,
                    Payload::Pong(Pong {
                        addr: self.addr,
                        shared_files: self.cfg.library.len() as u32,
                        shared_kb: 0,
                    }),
                );
                out.push((from, self.frame(&pong)));
            }
            Payload::Pong(_) => {}
            Payload::NeighborList(nl) => {
                if let Some(link) = self.links.get_mut(&from.0) {
                    link.announced =
                        Some(nl.neighbors.iter().map(|a| NodeId(a.node_index())).collect());
                }
            }
            Payload::NeighborTraffic(nt) => self.handle_nt(from, nt, now, out),
            Payload::Receipt(r) => {
                if let Some(link) = self.links.get_mut(&from.0) {
                    link.receipt_prev = r.fresh_queries;
                }
            }
            Payload::Bye(_) => self.disconnect(from),
        }
    }

    fn handle_query(&mut self, from: NodeId, header: Header, q: Query, now: u64, out: &mut Outbox) {
        if !self.links.contains_key(&from.0) {
            return;
        }
        if self.seen.offer(header.guid, from.0, now) == Offer::Duplicate {
            return; // duplicates are dropped *and excluded from In_query*
        }
        match self.monitor.as_mut() {
            Some(m) => m.record_flow(from.0, self.id.0, 1),
            None => {
                if let Some(link) = self.links.get_mut(&from.0) {
                    link.in_cur += 1;
                }
            }
        }
        // Local lookup: answer with a QueryHit routed back to `from`.
        if self.cfg.library.iter().any(|item| item == &q.criteria) {
            let hit = Message::new(
                header.guid,
                header.hops.saturating_add(2),
                Payload::QueryHit(QueryHit {
                    addr: self.addr,
                    speed_kbps: 1_000,
                    results: vec![QueryHitResult {
                        file_index: 0,
                        file_size: 1,
                        file_name: q.criteria.clone(),
                    }],
                    servent_id: *Guid::derived(self.id.0, 0).as_bytes(),
                }),
            );
            out.push((from, self.frame(&hit)));
        }
        // Forward with decremented TTL to all other neighbors.
        if let Some(header) = header.forwarded() {
            self.flood_query(&Message { header, payload: Payload::Query(q) }, Some(from), out);
        }
    }

    fn handle_hit(&mut self, header: Header, qh: QueryHit, now: u64, out: &mut Outbox) {
        if let Some(issued_at) = self.issued.remove(&header.guid) {
            self.hits.push((issued_at, now - issued_at));
            return;
        }
        // Route back along the inverse path.
        if let Some(back) = self.seen.reverse_route(&header.guid) {
            let to = NodeId(back);
            if self.is_neighbor(to) {
                let fwd = Message { header, payload: Payload::QueryHit(qh) };
                out.push((to, self.frame(&fwd)));
            }
        }
    }

    fn handle_nt(&mut self, from: NodeId, nt: NeighborTraffic, now: u64, _out: &mut Outbox) {
        let suspect = NodeId(PeerAddr { ip: nt.suspect_ip, port: 0 }.node_index());
        // Record the report if we are investigating this suspect.
        if let Some(inv) = self.investigations.get_mut(&suspect.0) {
            if inv.members.contains(&from) {
                inv.reports.insert(from.0, (nt.outgoing_queries, nt.incoming_queries));
            }
        }
        // §3.3: "On receiving a Neighbor_Traffic message, a peer in the BG
        // will check whether it has sent a Neighbor_Traffic message to other
        // members in this BG in past 50 seconds. If not, it will send such a
        // message to other members."
        let responds = match self.role {
            ServentRole::Good => true,
            ServentRole::FloodingAgent { respond_reports, .. } => respond_reports,
        };
        if responds && self.is_neighbor(suspect) {
            let members = self
                .links
                .get(&suspect.0)
                .and_then(|l| l.announced.clone())
                .unwrap_or_else(|| vec![from]);
            self.pending_nt.push((now + 2, suspect, members));
        }
    }

    /// Previous-minute (Out, In) counters for a neighbor — test telemetry.
    pub fn prev_minute_counters(&self, peer: NodeId) -> Option<(u32, u32)> {
        self.links.get(&peer.0).map(|l| (l.out_prev, l.in_prev))
    }
}

// ---------------------------------------------------------------------------
// Checkpointing: the defense-relevant mutable state, nothing else.
//
// Identity and configuration (id, addr, role, cfg) are deliberately NOT
// serialized — a resumed servent rebuilds them from its command line, and the
// snapshot container's context fingerprint rejects a checkpoint written under
// a different configuration. What *is* persisted is everything an attacker
// would love to see reset: per-neighbor In/Out counters and receipts, the
// duplicate-suppression table, open investigations and their reports, the
// cut/verdict logs, and the report-suppression clocks.
// ---------------------------------------------------------------------------

use ddp_snapshot::{Dec, Enc, SnapshotError};

/// Bumped whenever the layout below changes; a mismatch is a typed error so
/// an old checkpoint degrades to a cold start instead of misparsing.
const SERVENT_STATE_VERSION: u8 = 1;

fn enc_guid(enc: &mut Enc, g: &Guid) {
    for &b in g.as_bytes() {
        enc.u8(b);
    }
}

fn dec_guid(dec: &mut Dec) -> Result<Guid, SnapshotError> {
    let mut bytes = [0u8; 16];
    for b in bytes.iter_mut() {
        *b = dec.u8()?;
    }
    Ok(Guid(bytes))
}

/// Serialize a `HashMap` deterministically: sorted by key so identical state
/// always produces identical bytes (the snapshot suite hashes payloads).
fn sorted<K: Ord + Copy, V: Clone>(map: &HashMap<K, V>) -> Vec<(K, V)> {
    let mut v: Vec<(K, V)> = map.iter().map(|(&k, val)| (k, val.clone())).collect();
    v.sort_unstable_by_key(|&(k, _)| k);
    v
}

impl Servent {
    /// Append this servent's mutable defense state to `enc`.
    pub fn save_state(&self, enc: &mut Enc) {
        enc.u8(SERVENT_STATE_VERSION);
        enc.usize(self.links.len());
        for (&peer, l) in &self.links {
            enc.u32(peer);
            enc.u32(l.out_cur);
            enc.u32(l.in_cur);
            enc.u32(l.out_prev);
            enc.u32(l.in_prev);
            enc.u32(l.receipt_prev);
            match &l.announced {
                None => enc.bool(false),
                Some(list) => {
                    enc.bool(true);
                    enc.usize(list.len());
                    for n in list {
                        enc.u32(n.0);
                    }
                }
            }
        }
        enc.u64(self.seen.horizon());
        let seen = self.seen.snapshot_entries();
        enc.usize(seen.len());
        for (guid, from, seen_at) in &seen {
            enc_guid(enc, guid);
            enc.u32(*from);
            enc.u64(*seen_at);
        }
        enc.u64(self.guid_seq);
        let issued = {
            let mut v: Vec<(Guid, u64)> = self.issued.iter().map(|(&g, &t)| (g, t)).collect();
            v.sort_unstable_by_key(|&(g, _)| g);
            v
        };
        enc.usize(issued.len());
        for (guid, at) in &issued {
            enc_guid(enc, guid);
            enc.u64(*at);
        }
        enc.usize(self.hits.len());
        for &(at, latency) in &self.hits {
            enc.u64(at);
            enc.u64(latency);
        }
        enc.usize(self.investigations.len());
        for (&suspect, inv) in &self.investigations {
            enc.u32(suspect);
            enc.u64(inv.deadline);
            enc.usize(inv.members.len());
            for m in &inv.members {
                enc.u32(m.0);
            }
            let reports = sorted(&inv.reports);
            enc.usize(reports.len());
            for (member, (m_to_j, j_to_m)) in &reports {
                enc.u32(*member);
                enc.u32(*m_to_j);
                enc.u32(*j_to_m);
            }
        }
        let last_nt = sorted(&self.last_nt);
        enc.usize(last_nt.len());
        for (suspect, at) in &last_nt {
            enc.u32(*suspect);
            enc.u64(*at);
        }
        enc.usize(self.cut_log.len());
        for &(at, peer) in &self.cut_log {
            enc.u64(at);
            enc.u32(peer.0);
        }
        let strikes = sorted(&self.missing_list_strikes);
        enc.usize(strikes.len());
        for (suspect, n) in &strikes {
            enc.u32(*suspect);
            enc.u8(*n);
        }
        enc.usize(self.verdict_log.len());
        for &(at, suspect, g, s, cut) in &self.verdict_log {
            enc.u64(at);
            enc.u32(suspect.0);
            enc.f64(g);
            enc.f64(s);
            enc.bool(cut);
        }
        enc.usize(self.pending_nt.len());
        for (due, suspect, members) in &self.pending_nt {
            enc.u64(*due);
            enc.u32(suspect.0);
            enc.usize(members.len());
            for m in members {
                enc.u32(m.0);
            }
        }
        let seen_members = sorted(&self.member_last_seen);
        enc.usize(seen_members.len());
        for (member, at) in &seen_members {
            enc.u32(*member);
            enc.u64(*at);
        }
        // Present iff the config selects the sketch backend — and the wire
        // checkpoint's config fingerprint covers the backend label, so a
        // reader always agrees with the writer about this section existing.
        if let Some(m) = &self.monitor {
            ddp_snapshot::Snapshottable::save(m, enc);
        }
    }

    /// Replace this servent's mutable defense state with one written by
    /// [`Servent::save_state`]. Identity/config fields are untouched. On any
    /// decode error the servent is left unchanged (everything is staged in
    /// locals before the final assignment).
    pub fn restore_state(&mut self, dec: &mut Dec) -> Result<(), SnapshotError> {
        let version = dec.u8()?;
        if version != SERVENT_STATE_VERSION {
            return Err(SnapshotError::Unsupported { what: "servent state version" });
        }
        let mut links = BTreeMap::new();
        for _ in 0..dec.len("links")? {
            let peer = dec.u32()?;
            let mut l = LinkState {
                out_cur: dec.u32()?,
                in_cur: dec.u32()?,
                out_prev: dec.u32()?,
                in_prev: dec.u32()?,
                receipt_prev: dec.u32()?,
                announced: None,
            };
            if dec.bool()? {
                let mut list = Vec::new();
                for _ in 0..dec.len("announced list")? {
                    list.push(NodeId(dec.u32()?));
                }
                l.announced = Some(list);
            }
            links.insert(peer, l);
        }
        let horizon = dec.u64()?;
        let mut seen_entries = Vec::new();
        for _ in 0..dec.len("seen table")? {
            let guid = dec_guid(dec)?;
            let from = dec.u32()?;
            let seen_at = dec.u64()?;
            seen_entries.push((guid, from, seen_at));
        }
        let guid_seq = dec.u64()?;
        let mut issued = HashMap::new();
        for _ in 0..dec.len("issued queries")? {
            let guid = dec_guid(dec)?;
            let at = dec.u64()?;
            issued.insert(guid, at);
        }
        let mut hits = Vec::new();
        for _ in 0..dec.len("hits")? {
            let at = dec.u64()?;
            let latency = dec.u64()?;
            hits.push((at, latency));
        }
        let mut investigations = BTreeMap::new();
        for _ in 0..dec.len("investigations")? {
            let suspect = dec.u32()?;
            let deadline = dec.u64()?;
            let mut members = Vec::new();
            for _ in 0..dec.len("investigation members")? {
                members.push(NodeId(dec.u32()?));
            }
            let mut reports = HashMap::new();
            for _ in 0..dec.len("investigation reports")? {
                let member = dec.u32()?;
                let m_to_j = dec.u32()?;
                let j_to_m = dec.u32()?;
                reports.insert(member, (m_to_j, j_to_m));
            }
            investigations.insert(suspect, Investigation { deadline, members, reports });
        }
        let mut last_nt = HashMap::new();
        for _ in 0..dec.len("nt suppression clocks")? {
            let suspect = dec.u32()?;
            let at = dec.u64()?;
            last_nt.insert(suspect, at);
        }
        let mut cut_log = Vec::new();
        for _ in 0..dec.len("cut log")? {
            let at = dec.u64()?;
            let peer = dec.u32()?;
            cut_log.push((at, NodeId(peer)));
        }
        let mut missing_list_strikes = HashMap::new();
        for _ in 0..dec.len("missing-list strikes")? {
            let suspect = dec.u32()?;
            let n = dec.u8()?;
            missing_list_strikes.insert(suspect, n);
        }
        let mut verdict_log = Vec::new();
        for _ in 0..dec.len("verdict log")? {
            let at = dec.u64()?;
            let suspect = dec.u32()?;
            let g = dec.f64()?;
            let s = dec.f64()?;
            let cut = dec.bool()?;
            verdict_log.push((at, NodeId(suspect), g, s, cut));
        }
        let mut pending_nt = Vec::new();
        for _ in 0..dec.len("pending nt broadcasts")? {
            let due = dec.u64()?;
            let suspect = dec.u32()?;
            let mut members = Vec::new();
            for _ in 0..dec.len("pending nt members")? {
                members.push(NodeId(dec.u32()?));
            }
            pending_nt.push((due, NodeId(suspect), members));
        }
        let mut member_last_seen = HashMap::new();
        for _ in 0..dec.len("member liveness")? {
            let member = dec.u32()?;
            let at = dec.u64()?;
            member_last_seen.insert(member, at);
        }
        // Staged like everything above: restore into a fresh monitor so a
        // decode error leaves `self` untouched.
        let monitor = match &self.monitor {
            None => None,
            Some(live) => {
                let mut fresh = SketchMonitor::new(live.params());
                fresh.restore_into(dec)?;
                Some(fresh)
            }
        };
        self.links = links;
        self.seen = SeenTable::from_entries(horizon, seen_entries);
        self.guid_seq = guid_seq;
        self.issued = issued;
        self.hits = hits;
        self.investigations = investigations;
        self.last_nt = last_nt;
        self.cut_log = cut_log;
        self.missing_list_strikes = missing_list_strikes;
        self.verdict_log = verdict_log;
        self.pending_nt = pending_nt;
        self.member_last_seen = member_last_seen;
        self.monitor = monitor;
        Ok(())
    }
}

#[cfg(test)]
mod state_tests {
    use super::*;

    fn busy_servent() -> Servent {
        let mut s = Servent::new(NodeId(3), ServentRole::Good, ServentConfig::default());
        let mut out = Outbox::new();
        for p in [1u32, 2, 7] {
            s.connect(NodeId(p));
        }
        s.issue_query("alpha", 5, &mut out);
        s.handle_frame(
            NodeId(1),
            encode_message(&Message::new(
                Guid::derived(1, 1),
                3,
                Payload::Query(Query { min_speed: 0, criteria: "beta".into() }),
            )),
            6,
            &mut out,
        );
        s.on_minute(60, 1, &mut out);
        s.on_second(61, &mut out);
        s.cut_log.push((61, NodeId(9)));
        s.verdict_log.push((61, NodeId(9), 12.0, 3.0, true));
        s
    }

    fn state_bytes(s: &Servent) -> Vec<u8> {
        let mut enc = Enc::new();
        s.save_state(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn state_roundtrip_is_bit_identical() {
        let original = busy_servent();
        let bytes = state_bytes(&original);
        let mut restored = Servent::new(NodeId(3), ServentRole::Good, ServentConfig::default());
        let mut dec = Dec::new(&bytes);
        restored.restore_state(&mut dec).expect("valid state restores");
        dec.finish().expect("payload fully consumed");
        assert_eq!(bytes, state_bytes(&restored), "save→load→save is bit-identical");
        assert_eq!(original.neighbors(), restored.neighbors());
        assert_eq!(original.cut_log, restored.cut_log);
    }

    #[test]
    fn truncated_state_is_typed_error_not_panic() {
        let bytes = state_bytes(&busy_servent());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut s = Servent::new(NodeId(3), ServentRole::Good, ServentConfig::default());
            let mut dec = Dec::new(&bytes[..cut]);
            assert!(s.restore_state(&mut dec).is_err(), "truncation at {cut} must error");
        }
    }

    #[test]
    fn future_state_version_is_unsupported() {
        let mut bytes = state_bytes(&busy_servent());
        bytes[0] = SERVENT_STATE_VERSION + 1;
        let mut s = Servent::new(NodeId(3), ServentRole::Good, ServentConfig::default());
        let mut dec = Dec::new(&bytes);
        assert!(matches!(s.restore_state(&mut dec), Err(SnapshotError::Unsupported { .. })));
    }
}
