//! The peer state machine.

use bytes::Bytes;
use ddp_police::{aggregate_group_traffic, indicator, DdPoliceConfig, TrafficReport};
use ddp_protocol::routing::Offer;
use ddp_protocol::{
    check_frame, encode_message, forward_frame, Bye, Guid, Header, Message, NeighborList,
    NeighborTraffic, Payload, PayloadKind, PeerAddr, Pong, Query, QueryHit, QueryHitResult,
    QueryRef, Receipt, SeenTable, HEADER_LEN,
};
use ddp_snapshot::{Dec, Enc, SnapshotError, Snapshottable};
use ddp_topology::NodeId;
use std::collections::BTreeMap;

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
    /// DD-POLICE parameters. The servent judges with the shared `(g, s)`
    /// kernel but has no `VerdictMachine`, so it reads only part of them:
    ///
    /// | field | on the wire |
    /// |---|---|
    /// | `cut_threshold`, `q_qpm` | honoured (`indicator::judge`) |
    /// | `warning_threshold_qpm` | honoured (suspicion scan) |
    /// | `exchange` | honoured (announcement period; event-driven means every minute) |
    /// | `missing_list_grace` | honoured |
    /// | `aggregation` | honoured (`aggregate_group_traffic`) |
    /// | `hysteresis`, `readmission`, `suspect_ttl_ticks` | ignored: one window convicts and a cut is permanent |
    /// | `radius`, `verify_lists`, `clamp_reports_to_link` | ignored: a Buddy Group is the suspect's list as announced |
    /// | `report_timeout_ticks`, `max_report_retries` | ignored: `report_deadline_secs` is the one deadline |
    /// | `monitor` | ignored: every link keeps the two exact counters |
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
    /// Last neighbor list announced by this neighbor, as peer ids.
    announced: Option<Vec<u32>>,
}

/// An open Buddy-Group investigation of one suspect.
#[derive(Debug, Clone)]
struct Investigation {
    deadline: u64,
    /// Peer ids of the Buddy Group, this servent included.
    members: Vec<u32>,
    /// member -> (Q_{m→suspect}, Q_{suspect→m}) as reported.
    reports: BTreeMap<u32, (u32, u32)>,
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
    /// GUID bytes of queries this servent issued, with issue time.
    issued: BTreeMap<[u8; 16], u64>,
    /// Resolved queries: issue time -> first-hit latency (secs).
    pub hits: Vec<(u64, u64)>,
    investigations: BTreeMap<u32, Investigation>,
    /// suspect -> last time we broadcast a Neighbor_Traffic about it.
    last_nt: BTreeMap<u32, u64>,
    /// Peers this servent defensively disconnected, with time.
    pub cut_log: Vec<(u64, NodeId)>,
    /// Missing-list grace bookkeeping per suspect.
    missing_list_strikes: BTreeMap<u32, u8>,
    /// Every concluded investigation: (second, suspect, g, s, cut).
    pub verdict_log: Vec<(u64, NodeId, f64, f64, bool)>,
    /// Scheduled Neighbor_Traffic broadcasts: (due, suspect, members).
    /// Deferred a couple of seconds so the current minute's receipts land
    /// before the reports that quote them.
    pending_nt: Vec<(u64, u32, Vec<u32>)>,
    /// Buddy-Group liveness (§3.1: "A peer ping members within the same BG
    /// periodically to make sure that other members are online"): last time
    /// we heard anything from each known member.
    member_last_seen: BTreeMap<u32, u64>,
}

impl Servent {
    /// New servent with the given role and config.
    pub fn new(id: NodeId, role: ServentRole, cfg: ServentConfig) -> Self {
        Servent {
            id,
            addr: PeerAddr::from_node_index(id.0),
            role,
            cfg,
            links: BTreeMap::new(),
            seen: SeenTable::new(600),
            guid_seq: 0,
            issued: BTreeMap::new(),
            hits: Vec::new(),
            investigations: BTreeMap::new(),
            last_nt: BTreeMap::new(),
            cut_log: Vec::new(),
            missing_list_strikes: BTreeMap::new(),
            verdict_log: Vec::new(),
            pending_nt: Vec::new(),
            member_last_seen: BTreeMap::new(),
        }
    }

    /// Whether this role takes part in the control plane: announces its
    /// neighbor list, issues receipts and answers `Neighbor_Traffic`. Only a
    /// stonewalling agent does not.
    fn answers_control(&self) -> bool {
        match self.role {
            ServentRole::Good => true,
            ServentRole::FloodingAgent { respond_reports, .. } => respond_reports,
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

    /// Attach a neighbor (handshake done out of band). A servent that has
    /// [`NeighborList::MAX_NEIGHBORS`] neighbors attaches no more: its list
    /// must fit in one frame its peers accept.
    pub fn connect(&mut self, peer: NodeId) {
        if self.links.len() < NeighborList::MAX_NEIGHBORS {
            self.links.entry(peer.0).or_default();
        }
    }

    /// Detach a neighbor locally (the far side is told via Bye elsewhere).
    /// Everything kept about it as a suspect goes with the link.
    pub fn disconnect(&mut self, peer: NodeId) {
        self.links.remove(&peer.0);
        self.investigations.remove(&peer.0);
        self.missing_list_strikes.remove(&peer.0);
        self.last_nt.remove(&peer.0);
        self.pending_nt.retain(|&(_, suspect, _)| suspect != peer.0);
    }

    /// Whether `id` is on some neighbor's announced list: with the neighbors
    /// themselves, the only peers this servent ever pings or reports to.
    fn on_an_announced_list(links: &BTreeMap<u32, LinkState>, id: u32) -> bool {
        links.values().any(|l| l.announced.as_ref().is_some_and(|list| list.contains(&id)))
    }

    /// Send the current neighbor list to every neighbor, immediately.
    ///
    /// `on_minute` calls this on the exchange period (the in-memory harness
    /// runs `on_minute(0, 0)` at build time); transports where links come up
    /// (or back) asynchronously call it when overlay membership changes so
    /// Buddy Groups re-form without waiting for the next period. Respects the
    /// role's announcement policy (a stonewalling agent stays silent).
    pub fn announce_neighbor_list(&mut self, out: &mut Outbox) {
        if !self.answers_control() {
            return;
        }
        let frame = self.neighbor_list_frame();
        for peer in self.neighbors() {
            out.push((peer, frame.clone()));
        }
    }

    /// The current neighbor list as one frame, under a fresh GUID.
    fn neighbor_list_frame(&mut self) -> Bytes {
        let list = NeighborList {
            neighbors: self.neighbors().iter().map(|p| PeerAddr::from_node_index(p.0)).collect(),
        };
        let msg = Message::new(self.next_guid(), 1, Payload::NeighborList(list));
        self.frame(&msg)
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
            link.out_cur += 1;
            out.push((to, encode_message(msg)));
        }
    }

    /// Send one encoded query to every neighbor but `except`.
    fn flood_query(&mut self, frame: Bytes, except: Option<NodeId>, out: &mut Outbox) {
        for (&peer, link) in self.links.iter_mut().filter(|(&peer, _)| Some(NodeId(peer)) != except)
        {
            link.out_cur += 1;
            out.push((NodeId(peer), frame.clone()));
        }
    }

    /// Issue one search for `criteria`, flooding all neighbors.
    pub fn issue_query(&mut self, criteria: &str, now: u64, out: &mut Outbox) {
        let guid = self.next_guid();
        self.issued.insert(guid.0, now);
        // Mark our own query as seen so echoes die here.
        self.seen.offer(guid, self.id.0, now);
        let msg = Message::new(
            guid,
            self.cfg.ttl,
            Payload::Query(Query { min_speed: 0, criteria: criteria.into() }),
        );
        self.flood_query(encode_message(&msg), None, out);
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
        let due: Vec<(u64, u32, Vec<u32>)> = {
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
        // Liveness is kept for Buddy-Group peers only; lists and links change.
        let links = &self.links;
        self.member_last_seen
            .retain(|id, _| links.contains_key(id) || Self::on_an_announced_list(links, *id));
        for link in self.links.values_mut() {
            link.out_prev = link.out_cur;
            link.in_prev = link.in_cur;
            link.out_cur = 0;
            link.in_cur = 0;
        }
        // Neighbor-list exchange (§3.1) on the periodic schedule.
        let period = match self.cfg.police.exchange {
            ddp_police::ExchangePolicy::Periodic { minutes } => minutes.max(1) as u64,
            ddp_police::ExchangePolicy::EventDriven => 1,
        };
        if minute.is_multiple_of(period) {
            self.announce_neighbor_list(out);
        }
        // Per-link receipts (every minute): tell each neighbor how many
        // fresh queries we accepted from it. Receiver-side counting is what
        // lets Buddy Groups discount an attacker's own echoes.
        if self.answers_control() {
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
        if !matches!(self.role, ServentRole::Good) {
            return; // agents do not police
        }
        // BG liveness pings (§3.1): probe Buddy-Group members we have not
        // heard from this minute. Their Pong (or any other frame) refreshes
        // `member_last_seen`; members silent past the staleness horizon are
        // excluded from report collection (they count as assume-zero anyway,
        // but we stop spending messages on them).
        let mut to_ping: Vec<u32> = Vec::new();
        for link in self.links.values() {
            if let Some(members) = &link.announced {
                for &m in members {
                    if m == self.id.0 {
                        continue;
                    }
                    let stale =
                        self.member_last_seen.get(&m).is_none_or(|&t| now.saturating_sub(t) >= 60);
                    if stale && !to_ping.contains(&m) {
                        to_ping.push(m);
                    }
                }
            }
        }
        for m in to_ping {
            let ping = Message::new(self.next_guid(), 1, Payload::Ping(ddp_protocol::Ping));
            out.push((NodeId(m), self.frame(&ping)));
        }
        // Suspicion scan (§3.3) over the finalized minute.
        let suspects: Vec<u32> = self
            .links
            .iter()
            .filter(|(_, l)| l.in_prev > self.cfg.police.warning_threshold_qpm)
            .map(|(&k, _)| k)
            .collect();
        for suspect in suspects {
            self.open_investigation(suspect, now);
        }
    }

    fn open_investigation(&mut self, suspect: u32, now: u64) {
        if self.investigations.contains_key(&suspect) {
            return;
        }
        let members: Vec<u32> = match self.links.get(&suspect).and_then(|l| l.announced.clone()) {
            Some(list) => {
                self.missing_list_strikes.remove(&suspect);
                list
            }
            None => {
                // No list yet: wait out the grace period, then judge solo.
                let strikes = self.missing_list_strikes.entry(suspect).or_insert(0);
                *strikes = strikes.saturating_add(1);
                if *strikes < self.cfg.police.missing_list_grace {
                    return;
                }
                vec![self.id.0]
            }
        };
        self.investigations.insert(
            suspect,
            Investigation {
                deadline: now + self.cfg.report_deadline_secs,
                members: members.clone(),
                reports: BTreeMap::new(),
            },
        );
        // Deferred so this minute's receipts arrive before the reports.
        self.pending_nt.push((now + 2, suspect, members));
    }

    /// Send our Neighbor_Traffic report about `suspect` to the other Buddy
    /// Group members (50-second suppression).
    fn broadcast_nt(&mut self, suspect: u32, members: &[u32], now: u64, out: &mut Outbox) {
        if let Some(&last) = self.last_nt.get(&suspect) {
            if now.saturating_sub(last) < 50 {
                return;
            }
        }
        self.last_nt.insert(suspect, now);
        let Some(link) = self.links.get(&suspect) else { return };
        // Members not heard from in over three minutes are treated as
        // offline (BG ping failures) and skipped.
        let horizon = 180u64;
        let nt = NeighborTraffic {
            source_ip: self.addr.ip,
            suspect_ip: PeerAddr::from_node_index(suspect).ip,
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
            if m == self.id.0 {
                continue;
            }
            let dead =
                self.member_last_seen.get(&m).is_some_and(|&t| now.saturating_sub(t) > horizon)
                    && now > horizon;
            if !dead {
                out.push((NodeId(m), frame.clone()));
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
                .filter(|&&m| m != self.id.0)
                .map(|m| {
                    inv.reports.get(m).map(|&(m_to_j, j_to_m)| TrafficReport {
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

    /// Handle one inbound frame: exactly one message, as encoded. A frame
    /// that does not check, or that has bytes past its header's length, is
    /// dropped (the wire runtime's readers already disconnect a peer whose
    /// bytes do not check; the harness has no byte errors).
    ///
    /// Admission is decided here, per frame, before liveness or any counter
    /// is touched: overlay traffic needs a neighbor link. Bye must land on the
    /// peer being cut, and `Neighbor_Traffic` and the BG liveness Ping/Pong
    /// travel over *direct* connections between Buddy-Group members, who
    /// learned each other's addresses from the exchanged lists and are
    /// generally not overlay neighbors.
    pub fn handle_frame(&mut self, from: NodeId, frame: Bytes, now: u64, out: &mut Outbox) {
        let Ok((header, len)) = check_frame(&frame) else { return };
        if len != frame.len() {
            return;
        }
        let direct = matches!(
            header.kind,
            PayloadKind::Bye | PayloadKind::NeighborTraffic | PayloadKind::Ping | PayloadKind::Pong
        );
        let linked = self.links.contains_key(&from.0);
        if !direct && !linked {
            return;
        }
        // Direct kinds are admitted from anyone, and a hello id is whatever
        // the sender says it is: a stranger must not leave a row behind.
        if linked || Self::on_an_announced_list(&self.links, from.0) {
            self.member_last_seen.insert(from.0, now);
        }
        if header.kind == PayloadKind::Query {
            return self.handle_query(from, header, frame, now, out);
        }
        let Ok(payload) = Payload::decode(header.kind, &mut &frame[HEADER_LEN..]) else { return };
        match payload {
            Payload::Query(_) => {} // relayed as bytes, above
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
                    link.announced = Some(nl.neighbors.iter().map(PeerAddr::node_index).collect());
                }
            }
            Payload::NeighborTraffic(nt) => self.handle_nt(from.0, nt, now),
            Payload::Receipt(r) => {
                if let Some(link) = self.links.get_mut(&from.0) {
                    link.receipt_prev = r.fresh_queries;
                }
            }
            Payload::Bye(_) => self.disconnect(from),
        }
    }

    /// A fresh Query is answered from the library and relayed as the bytes it
    /// arrived in, with only its TTL and hop count rewritten.
    fn handle_query(
        &mut self,
        from: NodeId,
        header: Header,
        mut frame: Bytes,
        now: u64,
        out: &mut Outbox,
    ) {
        if self.seen.offer(header.guid, from.0, now) == Offer::Duplicate {
            return; // duplicates are dropped *and excluded from In_query*
        }
        if let Some(link) = self.links.get_mut(&from.0) {
            link.in_cur += 1;
        }
        let Ok(q) = QueryRef::read(&mut &frame[HEADER_LEN..]) else { return };
        // Local lookup: answer with a QueryHit routed back to `from`.
        if self.cfg.library.iter().any(|item| item == q.criteria) {
            let hit = Message::new(
                header.guid,
                header.hops.saturating_add(2),
                Payload::QueryHit(QueryHit {
                    addr: self.addr,
                    speed_kbps: 1_000,
                    results: vec![QueryHitResult {
                        file_index: 0,
                        file_size: 1,
                        file_name: q.criteria.to_owned(),
                    }],
                    servent_id: *Guid::derived(self.id.0, 0).as_bytes(),
                }),
            );
            out.push((from, self.frame(&hit)));
        }
        // Forward with decremented TTL to all other neighbors.
        if forward_frame(frame.make_mut()) {
            self.flood_query(frame, Some(from), out);
        }
    }

    fn handle_hit(&mut self, header: Header, qh: QueryHit, now: u64, out: &mut Outbox) {
        if let Some(issued_at) = self.issued.remove(&header.guid.0) {
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

    fn handle_nt(&mut self, from: u32, nt: NeighborTraffic, now: u64) {
        let suspect = PeerAddr { ip: nt.suspect_ip, port: 0 }.node_index();
        // Record the report if we are investigating this suspect.
        if let Some(inv) = self.investigations.get_mut(&suspect) {
            if inv.members.contains(&from) {
                inv.reports.insert(from, (nt.outgoing_queries, nt.incoming_queries));
            }
        }
        // §3.3: "On receiving a Neighbor_Traffic message, a peer in the BG
        // will check whether it has sent a Neighbor_Traffic message to other
        // members in this BG in past 50 seconds. If not, it will send such a
        // message to other members."
        if !self.answers_control() {
            return;
        }
        if let Some(link) = self.links.get(&suspect) {
            let members = link.announced.clone().unwrap_or_else(|| vec![from]);
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

/// Bumped whenever the layout below changes; a mismatch is a typed error so
/// an old checkpoint degrades to a cold start instead of misparsing.
const SERVENT_STATE_VERSION: u8 = 1;

impl Snapshottable for LinkState {
    fn save(&self, enc: &mut Enc) {
        enc.put(&self.out_cur);
        enc.put(&self.in_cur);
        enc.put(&self.out_prev);
        enc.put(&self.in_prev);
        enc.put(&self.receipt_prev);
        enc.put(&self.announced);
    }
    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(LinkState {
            out_cur: dec.get()?,
            in_cur: dec.get()?,
            out_prev: dec.get()?,
            in_prev: dec.get()?,
            receipt_prev: dec.get()?,
            announced: dec.get()?,
        })
    }
}

impl Snapshottable for Investigation {
    fn save(&self, enc: &mut Enc) {
        enc.put(&self.deadline);
        enc.put(&self.members);
        enc.put(&self.reports);
    }
    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(Investigation { deadline: dec.get()?, members: dec.get()?, reports: dec.get()? })
    }
}

impl Servent {
    /// Append this servent's mutable defense state to `enc`. Maps are
    /// written in key order and the seen table sorted by GUID, so identical
    /// state always produces identical bytes.
    pub fn save_state(&self, enc: &mut Enc) {
        enc.u8(SERVENT_STATE_VERSION);
        enc.put(&self.links);
        enc.u64(self.seen.horizon());
        let seen: Vec<([u8; 16], u32, u64)> =
            self.seen.snapshot_entries().into_iter().map(|(g, from, at)| (g.0, from, at)).collect();
        enc.put(&seen);
        enc.put(&self.guid_seq);
        enc.put(&self.issued);
        enc.put(&self.hits);
        enc.put(&self.investigations);
        enc.put(&self.last_nt);
        let cuts: Vec<(u64, u32)> = self.cut_log.iter().map(|&(at, p)| (at, p.0)).collect();
        enc.put(&cuts);
        enc.put(&self.missing_list_strikes);
        let verdicts: Vec<(u64, u32, f64, f64, bool)> =
            self.verdict_log.iter().map(|&(at, p, g, s, cut)| (at, p.0, g, s, cut)).collect();
        enc.put(&verdicts);
        enc.put(&self.pending_nt);
        enc.put(&self.member_last_seen);
    }

    /// Replace this servent's mutable defense state with one written by
    /// [`Servent::save_state`]. Identity/config fields are untouched. On any
    /// decode error the servent is left unchanged (everything is staged in
    /// locals before the final assignment).
    pub fn restore_state(&mut self, dec: &mut Dec) -> Result<(), SnapshotError> {
        if dec.u8()? != SERVENT_STATE_VERSION {
            return Err(SnapshotError::Unsupported { what: "servent state version" });
        }
        let links: BTreeMap<u32, LinkState> = dec.get()?;
        if links.len() > NeighborList::MAX_NEIGHBORS {
            return Err(SnapshotError::Corrupt { what: "servent links over the list cap" });
        }
        let horizon = dec.u64()?;
        let seen: Vec<([u8; 16], u32, u64)> = dec.get()?;
        let guid_seq = dec.get()?;
        let issued = dec.get()?;
        let hits = dec.get()?;
        let investigations = dec.get()?;
        let last_nt = dec.get()?;
        let cuts: Vec<(u64, u32)> = dec.get()?;
        let missing_list_strikes = dec.get()?;
        let verdicts: Vec<(u64, u32, f64, f64, bool)> = dec.get()?;
        let pending_nt = dec.get()?;
        let member_last_seen = dec.get()?;
        self.links = links;
        self.seen = SeenTable::from_entries(
            horizon,
            seen.into_iter().map(|(g, from, at)| (Guid(g), from, at)),
        );
        self.guid_seq = guid_seq;
        self.issued = issued;
        self.hits = hits;
        self.investigations = investigations;
        self.last_nt = last_nt;
        self.cut_log = cuts.into_iter().map(|(at, p)| (at, NodeId(p))).collect();
        self.missing_list_strikes = missing_list_strikes;
        self.verdict_log =
            verdicts.into_iter().map(|(at, p, g, s, cut)| (at, NodeId(p), g, s, cut)).collect();
        self.pending_nt = pending_nt;
        self.member_last_seen = member_last_seen;
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

    pub(super) fn state_bytes(s: &Servent) -> Vec<u8> {
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

    /// A checkpoint cannot bring back more neighbors than `connect` admits.
    #[test]
    fn restore_refuses_links_over_the_list_cap() {
        let mut over = Servent::new(NodeId(0), ServentRole::Good, ServentConfig::default());
        over.links = (1..=NeighborList::MAX_NEIGHBORS as u32 + 1)
            .map(|p| (p, LinkState::default()))
            .collect();
        let bytes = state_bytes(&over);
        let mut s = busy_servent();
        let before = state_bytes(&s);
        assert_eq!(
            s.restore_state(&mut Dec::new(&bytes)).err().map(|e| e.to_string()),
            Some(SnapshotError::Corrupt { what: "servent links over the list cap" }.to_string())
        );
        assert_eq!(state_bytes(&s), before, "a refused restore leaves the servent as it was");
    }

    #[test]
    fn strangers_and_cut_peers_leave_no_state_behind() {
        let mut s = Servent::new(NodeId(3), ServentRole::Good, ServentConfig::default());
        let mut out = Outbox::new();
        let mut seq = 0u64;
        let mut deliver = |s: &mut Servent, from: u32, now: u64, payload: Payload| {
            seq += 1;
            let frame = encode_message(&Message::new(Guid::derived(from, seq), 3, payload));
            s.handle_frame(NodeId(from), frame, now, &mut out);
            out.clear();
        };
        // Neighbor 1 announces the Buddy Group [3, 8] and floods.
        s.connect(NodeId(1));
        s.connect(NodeId(2));
        let group = [3, 8].map(PeerAddr::from_node_index).to_vec();
        deliver(&mut s, 1, 1, Payload::NeighborList(NeighborList { neighbors: group }));
        for i in 0..600 {
            let query = Query { min_speed: 0, criteria: format!("flood-{i}") };
            deliver(&mut s, 1, 2 + i % 50, Payload::Query(query));
        }
        s.on_minute(60, 1, &mut Outbox::new());
        s.on_second(62, &mut Outbox::new());
        assert!(s.investigations.contains_key(&1) && s.last_nt.contains_key(&1));
        let before = state_bytes(&s);

        // 10 000 hello ids nobody announced each send one Ping ...
        for stranger in 1_000..11_000 {
            deliver(&mut s, stranger, 64, Payload::Ping(ddp_protocol::Ping));
        }
        assert_eq!(state_bytes(&s), before, "a stranger's Ping leaves no row");
        // ... member 8 reports just before the deadline, and the cut lands.
        let report = NeighborTraffic {
            source_ip: PeerAddr::from_node_index(8).ip,
            suspect_ip: PeerAddr::from_node_index(1).ip,
            timestamp: 109,
            outgoing_queries: 0,
            incoming_queries: 0,
        };
        deliver(&mut s, 8, 109, Payload::NeighborTraffic(report));
        assert_eq!(s.pending_nt.len(), 1, "the report schedules an answer");
        s.on_second(110, &mut Outbox::new());
        assert_eq!(s.cut_log, vec![(110, NodeId(1))]);
        assert!(s.last_nt.is_empty() && s.pending_nt.is_empty(), "suspect rows go with the link");
        s.on_minute(120, 2, &mut Outbox::new());
        assert!(s.member_last_seen.is_empty(), "nobody left to ping or report to");
        assert!(state_bytes(&s).len() <= before.len(), "the flood and the cut left nothing behind");
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

#[cfg(test)]
mod admission_tests {
    use super::state_tests::state_bytes;
    use super::*;
    use ddp_protocol::Ping;

    const NEIGHBOR: NodeId = NodeId(2);
    /// On neighbor 1's announced list — a Buddy-Group member this servent
    /// pings and reports to — but not an overlay neighbor.
    const STRANGER: NodeId = NodeId(7);

    /// Servent 0 with neighbors 1 and 2, neighbor 1's list `[0, 2, 7]`, and
    /// one query of its own in flight under `Guid::derived(0, 1)`.
    fn servent() -> Servent {
        let mut s = Servent::new(NodeId(0), ServentRole::Good, ServentConfig::default());
        let mut out = Outbox::new();
        s.connect(NodeId(1));
        s.connect(NEIGHBOR);
        let list = NeighborList { neighbors: [0, 2, 7].map(PeerAddr::from_node_index).to_vec() };
        let announce = Message::new(Guid::derived(1, 1), 1, Payload::NeighborList(list));
        s.handle_frame(NodeId(1), encode_message(&announce), 1, &mut out);
        s.issue_query("alpha", 2, &mut out);
        s
    }

    #[test]
    fn overlay_kinds_need_a_link_and_direct_kinds_do_not() {
        let own_query = Guid::derived(0, 1);
        let addr = PeerAddr::from_node_index(7);
        let hit = QueryHit { addr, speed_kbps: 1, results: Vec::new(), servent_id: [7; 16] };
        let report = NeighborTraffic {
            source_ip: addr.ip,
            suspect_ip: PeerAddr::from_node_index(1).ip,
            timestamp: 3,
            outgoing_queries: 10,
            incoming_queries: 20,
        };
        // (payload, whether it runs direct — admitted from anyone).
        let table = [
            (Payload::Ping(Ping), true),
            (Payload::Pong(Pong { addr, shared_files: 0, shared_kb: 0 }), true),
            (Payload::Bye(Bye { code: 0, reason: String::new() }), true),
            (Payload::NeighborTraffic(report), true),
            (Payload::Query(Query { min_speed: 0, criteria: "beta".into() }), false),
            (Payload::QueryHit(hit), false),
            (Payload::NeighborList(NeighborList { neighbors: vec![addr] }), false),
            (Payload::Receipt(Receipt { subject_ip: addr.ip, fresh_queries: 9 }), false),
        ];
        for (payload, direct) in table {
            for (from, linked) in [(NEIGHBOR, true), (STRANGER, false)] {
                let mut s = servent();
                let before = state_bytes(&s);
                // A QueryHit answers the servent's own query.
                let guid = match payload {
                    Payload::QueryHit(_) => own_query,
                    _ => Guid::derived(from.0, 9),
                };
                let mut out = Outbox::new();
                let frame = encode_message(&Message::new(guid, 3, payload.clone()));
                s.handle_frame(from, frame, 5, &mut out);
                // Every admitted message at least refreshes the sender's
                // liveness; a refused one leaves no trace at all.
                let acted = !out.is_empty() || state_bytes(&s) != before;
                assert_eq!(acted, direct || linked, "{payload:?} from {from:?}");
                if matches!(payload, Payload::QueryHit(_)) {
                    assert_eq!(s.hits.len(), usize::from(linked), "a stranger's hit must not land");
                }
            }
        }
    }
}

#[cfg(test)]
mod relay_tests {
    use super::*;

    /// Servent 0 with neighbors 1, 2 and 3 and an empty library.
    fn servent() -> Servent {
        let mut s = Servent::new(NodeId(0), ServentRole::Good, ServentConfig::default());
        for p in 1..=3 {
            s.connect(NodeId(p));
        }
        s
    }

    fn query(guid: Guid, ttl: u8, hops: u8) -> Message {
        let payload = Payload::Query(Query { min_speed: 3, criteria: "relay-me".into() });
        Message {
            header: Header { ttl, hops, ..Message::new(guid, ttl, payload.clone()).header },
            payload,
        }
    }

    /// For every TTL and hop count, a fresh Query goes on to each other
    /// neighbor as exactly the frame the forwarding rule encodes, and a
    /// Query with TTL 1 goes nowhere.
    #[test]
    fn a_relayed_query_is_the_forwarded_encoding() {
        let mut s = servent();
        let mut seq = 0;
        for ttl in 1..=u8::MAX {
            for hops in 0..=u8::MAX {
                seq += 1;
                let Message { header, payload } = query(Guid::derived(1, seq), ttl, hops);
                let mut out = Outbox::new();
                let frame = encode_message(&Message { header, payload: payload.clone() });
                s.handle_frame(NodeId(1), frame, 5, &mut out);
                let want = match header.forwarded() {
                    Some(header) => {
                        let relayed = encode_message(&Message { header, payload });
                        vec![(NodeId(2), relayed.clone()), (NodeId(3), relayed)]
                    }
                    None => Vec::new(),
                };
                assert_eq!(out, want, "ttl {ttl} hops {hops}");
            }
        }
        s.on_minute(60, 1, &mut Outbox::new());
        let fresh = u32::from(u8::MAX) * 256;
        assert_eq!(s.prev_minute_counters(NodeId(1)), Some((0, fresh)), "every one was fresh");
    }

    /// A servent offered one neighbor more than a list can carry keeps
    /// [`NeighborList::MAX_NEIGHBORS`], and every frame an announcing minute
    /// builds is one its peers accept. The announcement is one 64 KiB frame
    /// that every neighbor's copy shares.
    #[test]
    fn a_servent_at_the_neighbor_cap_sends_only_frames_its_peers_accept() {
        let mut s = Servent::new(NodeId(0), ServentRole::Good, ServentConfig::default());
        let offered = NeighborList::MAX_NEIGHBORS as u32 + 1;
        for p in 1..=offered {
            s.connect(NodeId(p));
        }
        assert_eq!(s.neighbors().len(), NeighborList::MAX_NEIGHBORS);
        assert!(!s.is_neighbor(NodeId(offered)), "the one over the cap is not attached");
        // The default exchange period is two minutes.
        let mut out = Outbox::new();
        s.on_minute(120, 2, &mut out);
        let mut lists = Vec::new();
        for (to, frame) in &out {
            // One check per buffer: the list frames share one.
            if lists.last() == Some(&frame.as_ptr()) {
                lists.push(frame.as_ptr());
                continue;
            }
            let (header, used) = check_frame(frame).expect("a frame its peers accept");
            assert_eq!(used, frame.len(), "to {to:?}");
            if header.kind == PayloadKind::NeighborList {
                lists.push(frame.as_ptr());
            }
        }
        assert_eq!(out.len(), 2 * NeighborList::MAX_NEIGHBORS, "a list and a receipt each");
        assert_eq!(lists.len(), NeighborList::MAX_NEIGHBORS);
        assert!(lists.iter().all(|&p| p == lists[0]), "one buffer for every list frame");
    }

    /// A frame with bytes past its header's length is not one message: it
    /// is dropped, never relayed with those bytes.
    #[test]
    fn bytes_past_the_header_length_are_never_relayed() {
        let mut s = servent();
        let mut frame = encode_message(&query(Guid::derived(1, 1), 4, 0)).to_vec();
        frame.extend_from_slice(b"smuggled");
        let mut out = Outbox::new();
        s.handle_frame(NodeId(1), Bytes::from(frame), 5, &mut out);
        assert!(out.is_empty(), "{out:?}");
        s.on_minute(60, 1, &mut Outbox::new());
        assert_eq!(s.prev_minute_counters(NodeId(1)), Some((0, 0)), "nothing was counted");
    }
}
