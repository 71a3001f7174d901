//! Drives a population of servents second-by-second over the in-memory
//! network.

use crate::network::InMemNetwork;
use crate::servent::{Outbox, Servent, ServentConfig, ServentRole};
use ddp_topology::{DynamicGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Base servent configuration (library filled per peer by the harness).
    pub servent: ServentConfig,
    /// Distinct shareable strings; each peer gets a few, queries target them.
    pub catalog: Vec<String>,
    /// Items each good peer shares.
    pub items_per_peer: usize,
    /// Mean queries per good peer per minute.
    pub query_rate_qpm: f64,
    /// One-way frame latency, seconds.
    pub latency_secs: u64,
    /// Bound on frames in flight (`None` = unbounded, the historical
    /// default). Under a flood the bound sheds the oldest frames and counts
    /// them, like the wire runtime's send queues.
    pub network_capacity: Option<usize>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            servent: ServentConfig::default(),
            catalog: (0..50).map(|i| format!("item-{i:03}")).collect(),
            items_per_peer: 8,
            query_rate_qpm: 2.0,
            latency_secs: 1,
            network_capacity: None,
        }
    }
}

/// End-of-run telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessReport {
    /// Queries issued by good peers.
    pub issued: usize,
    /// Queries that received at least one hit.
    pub resolved: usize,
    /// Mean seconds to the first hit.
    pub mean_latency_secs: f64,
    /// Every defensive disconnection: (second, observer, suspect).
    pub cuts: Vec<(u64, NodeId, NodeId)>,
    /// Total frames the network carried.
    pub frames: u64,
    /// Total bytes the network carried.
    pub bytes: u64,
    /// Frames the bounded network shed (0 when unbounded).
    pub frames_dropped: u64,
}

/// The protocol-level test harness.
///
/// ```
/// use ddp_servent::{Harness, HarnessConfig, ServentRole};
/// use ddp_topology::{NodeId, TopologyConfig, TopologyModel};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let graph = TopologyConfig { n: 12, model: TopologyModel::BarabasiAlbert { m: 2 } }
///     .generate(&mut StdRng::seed_from_u64(1));
/// let agent = (NodeId(3), ServentRole::FloodingAgent { rate_qpm: 900, respond_reports: true });
/// let mut h = Harness::new(&graph, &[agent], HarnessConfig::default(), 5);
/// h.run_minutes(3);
/// assert!(h.servents[3].neighbors().is_empty(), "the agent ends isolated");
/// ```
pub struct Harness {
    pub servents: Vec<Servent>,
    pub network: InMemNetwork,
    cfg: HarnessConfig,
    rng: StdRng,
    now: u64,
    issued: usize,
}

impl Harness {
    /// Build servents over `graph`, compromising `attackers` with the given
    /// role parameters.
    pub fn new(
        graph: &DynamicGraph,
        attackers: &[(NodeId, ServentRole)],
        cfg: HarnessConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = graph.node_count();
        let mut servents: Vec<Servent> = (0..n)
            .map(|i| {
                let id = NodeId::from_index(i);
                let role = attackers
                    .iter()
                    .find(|(a, _)| *a == id)
                    .map(|&(_, r)| r)
                    .unwrap_or(ServentRole::Good);
                let mut sc = cfg.servent.clone();
                if matches!(role, ServentRole::Good) && !cfg.catalog.is_empty() {
                    sc.library = (0..cfg.items_per_peer)
                        .map(|_| cfg.catalog[rng.gen_range(0..cfg.catalog.len())].clone())
                        .collect();
                }
                Servent::new(id, role, sc)
            })
            .collect();
        for (u, servent) in servents.iter_mut().enumerate() {
            for h in graph.neighbors(NodeId::from_index(u)) {
                servent.connect(h.peer);
            }
        }
        let network = match cfg.network_capacity {
            Some(cap) => InMemNetwork::bounded(cfg.latency_secs, cap),
            None => InMemNetwork::new(cfg.latency_secs),
        };
        let mut harness = Harness { servents, network, cfg, rng, now: 0, issued: 0 };
        // Connect-time neighbor-list exchange: "a joining peer creates its
        // BG membership after its first neighbor list exchanging operation"
        // (§3.1) — servents announce immediately on connecting, so Buddy
        // Groups exist before the first suspicion can strike.
        for i in 0..harness.servents.len() {
            let mut outbox = Outbox::new();
            harness.servents[i].on_minute(0, 0, &mut outbox);
            harness.flush(NodeId::from_index(i), outbox);
        }
        harness
    }

    /// Current simulated second.
    pub fn now(&self) -> u64 {
        self.now
    }

    fn flush(&mut self, from: NodeId, outbox: Outbox) {
        for (to, frame) in outbox {
            self.network.send(self.now, from, to, frame);
        }
    }

    /// Advance one second: deliver frames, drive per-second behavior, and on
    /// minute boundaries run the DD-POLICE steps.
    pub fn step_second(&mut self) {
        self.now += 1;
        // Deliver due frames.
        for (from, to, frame) in self.network.deliveries(self.now) {
            let mut outbox = Outbox::new();
            if let Some(s) = self.servents.get_mut(to.index()) {
                s.handle_frame(from, frame, self.now, &mut outbox);
            }
            self.flush(to, outbox);
        }
        // Good peers issue queries (Poisson approximated per second).
        let per_second = self.cfg.query_rate_qpm / 60.0;
        for i in 0..self.servents.len() {
            if !matches!(self.servents[i].role(), ServentRole::Good) {
                continue;
            }
            if self.rng.gen::<f64>() < per_second {
                let target =
                    self.cfg.catalog[self.rng.gen_range(0..self.cfg.catalog.len())].clone();
                let mut outbox = Outbox::new();
                self.servents[i].issue_query(&target, self.now, &mut outbox);
                self.issued += 1;
                self.flush(NodeId::from_index(i), outbox);
            }
        }
        // Per-second behavior (attack emission, investigation deadlines).
        for i in 0..self.servents.len() {
            let mut outbox = Outbox::new();
            self.servents[i].on_second(self.now, &mut outbox);
            self.flush(NodeId::from_index(i), outbox);
        }
        // Minute boundary.
        if self.now.is_multiple_of(60) {
            let minute = self.now / 60;
            for i in 0..self.servents.len() {
                let mut outbox = Outbox::new();
                self.servents[i].on_minute(self.now, minute, &mut outbox);
                self.flush(NodeId::from_index(i), outbox);
            }
        }
    }

    /// Run `minutes` of simulated time.
    pub fn run_minutes(&mut self, minutes: u64) {
        for _ in 0..minutes * 60 {
            self.step_second();
        }
    }

    /// Summarize.
    pub fn report(&self) -> HarnessReport {
        let mut resolved = 0usize;
        let mut latency_sum = 0u64;
        let mut cuts = Vec::new();
        for s in &self.servents {
            resolved += s.hits.len();
            latency_sum += s.hits.iter().map(|&(_, l)| l).sum::<u64>();
            for &(t, suspect) in &s.cut_log {
                cuts.push((t, s.id, suspect));
            }
        }
        cuts.sort_unstable_by_key(|&(t, ..)| t);
        HarnessReport {
            issued: self.issued,
            resolved,
            mean_latency_secs: if resolved == 0 {
                0.0
            } else {
                latency_sum as f64 / resolved as f64
            },
            cuts,
            frames: self.network.frames_sent,
            bytes: self.network.bytes_sent,
            frames_dropped: self.network.frames_dropped,
        }
    }
}
