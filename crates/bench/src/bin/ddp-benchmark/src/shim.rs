//! A forwarding [`Defense`] that times every call the engine makes into
//! DD-POLICE. This is how the benchmark measures the police layer from
//! outside: `Simulation::step` is timed by the caller, the shim times the
//! defense calls inside it, and the difference is the engine's self time.

use ddp_police::DdPolice;
use ddp_sim::{Actions, Defense, TickObservation};
use ddp_snapshot::{Dec, Enc, SnapshotError};
use ddp_topology::NodeId;
use std::cell::Cell;
use std::time::Instant;

/// What the shim saw during one `Simulation::step`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickProbe {
    /// Start of `on_tick`, nanoseconds since the shim's epoch.
    pub on_tick_start_ns: u64,
    /// Time inside `on_tick`.
    pub on_tick_ns: u64,
    /// Start of the first hook call of the tick.
    pub hooks_start_ns: u64,
    /// Time inside every other hook, summed.
    pub hooks_ns: u64,
    /// Overlay/peer mutations the engine reported (edge added/removed, peer
    /// reset/departed, slots grown) — `forbids_link` queries are timed but
    /// are not mutations.
    pub mutations: u64,
    /// Calls the shim timed, `on_tick` included: what tracing itself costs
    /// is this many times [`call_cost_ns`].
    pub calls: u64,
}

/// Access to the wrapped police and to the per-tick probe, implemented by
/// the bare [`DdPolice`] (untraced runs; the probe stays zero) and by the
/// [`Shim`] (traced runs), so one runner drives both.
pub trait Police: Defense {
    fn police(&self) -> &DdPolice;
    fn police_mut(&mut self) -> &mut DdPolice;
    /// The probe accumulated since the last call; resets it.
    fn take_probe(&mut self) -> TickProbe;
}

impl Police for DdPolice {
    fn police(&self) -> &DdPolice {
        self
    }
    fn police_mut(&mut self) -> &mut DdPolice {
        self
    }
    fn take_probe(&mut self) -> TickProbe {
        TickProbe::default()
    }
}

/// See the module docs.
pub struct Shim {
    inner: DdPolice,
    epoch: Instant,
    probe: Cell<TickProbe>,
    /// Planted mutant for the inertness check's own test: swallow
    /// `on_edge_removed` instead of forwarding it.
    #[cfg(test)]
    pub drop_edge_removed: bool,
}

impl Shim {
    /// Wrap `inner`; probe timestamps count from `epoch`.
    pub fn new(inner: DdPolice, epoch: Instant) -> Self {
        Shim {
            inner,
            epoch,
            probe: Cell::new(TickProbe::default()),
            #[cfg(test)]
            drop_edge_removed: false,
        }
    }
}

/// Run hook `f`, adding its duration (and, for a mutation, its count) to
/// `probe`. A free function over the two fields it needs, so callers can
/// lend `Shim::inner` to `f` at the same time.
fn timed<T>(probe: &Cell<TickProbe>, epoch: Instant, mutation: bool, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let spent = start.elapsed().as_nanos() as u64;
    let mut p = probe.get();
    if p.hooks_ns == 0 && p.mutations == 0 {
        p.hooks_start_ns = start.duration_since(epoch).as_nanos() as u64;
    }
    p.hooks_ns += spent;
    p.mutations += u64::from(mutation);
    p.calls += 1;
    probe.set(p);
    out
}

/// What one timed call costs beyond the call it wraps (two clock reads and
/// the probe update), nanoseconds: the median of five rounds over an empty
/// hook.
pub fn call_cost_ns() -> f64 {
    const CALLS: u32 = 100_000;
    let probe = Cell::new(TickProbe::default());
    let epoch = Instant::now();
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                timed(&probe, epoch, false, || std::hint::black_box(()));
            }
            start.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    crate::stats::median(&rounds)
}

impl Police for Shim {
    fn police(&self) -> &DdPolice {
        &self.inner
    }
    fn police_mut(&mut self) -> &mut DdPolice {
        &mut self.inner
    }
    fn take_probe(&mut self) -> TickProbe {
        self.probe.take()
    }
}

impl Defense for Shim {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_tick(&mut self, obs: &TickObservation<'_>, actions: &mut Actions) {
        let start = Instant::now();
        self.inner.on_tick(obs, actions);
        let p = self.probe.get_mut();
        p.on_tick_ns += start.elapsed().as_nanos() as u64;
        p.on_tick_start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        p.calls += 1;
    }

    fn set_parallelism(&mut self, threads: usize) {
        self.inner.set_parallelism(threads)
    }

    fn on_peer_reset(&mut self, node: NodeId) {
        timed(&self.probe, self.epoch, true, || self.inner.on_peer_reset(node))
    }

    fn on_edge_added(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        timed(&self.probe, self.epoch, true, || self.inner.on_edge_added(u, v, deg_u, deg_v))
    }

    fn on_edge_removed(&mut self, u: NodeId, v: NodeId, deg_u: usize, deg_v: usize) {
        #[cfg(test)]
        if self.drop_edge_removed {
            return;
        }
        timed(&self.probe, self.epoch, true, || self.inner.on_edge_removed(u, v, deg_u, deg_v))
    }

    fn on_peer_departed(&mut self, node: NodeId) {
        timed(&self.probe, self.epoch, true, || self.inner.on_peer_departed(node))
    }

    fn on_nodes_grown(&mut self, n: usize) {
        timed(&self.probe, self.epoch, true, || self.inner.on_nodes_grown(n))
    }

    fn forbids_link(&self, u: NodeId, v: NodeId) -> bool {
        timed(&self.probe, self.epoch, false, || self.inner.forbids_link(u, v))
    }

    fn monitor_backend(&self) -> Option<String> {
        self.inner.monitor_backend()
    }

    fn snapshot_support(&self) -> bool {
        self.inner.snapshot_support()
    }

    fn save_state(&self, enc: &mut Enc) {
        self.inner.save_state(enc)
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
        self.inner.restore_state(dec)
    }
}
