//! `ddp-sketch` — approximate traffic monitoring for DD-POLICE.
//!
//! The paper's exact defense keeps one `[sent, accepted]` counter pair per
//! directed half-edge: O(E) memory and an O(E) per-minute reset. This crate
//! provides the ALBUS-style probabilistic alternative (PAPERS.md, arXiv
//! 2306.14328) behind the pluggable `TrafficMonitor` backend selection: one
//! [`CountMinSketch`] of per-neighbor query counts keyed by directed edge,
//! with *conservative update*, wrapped as the per-minute [`SketchMonitor`].
//!
//! Estimates never undercount (`estimate ≥ true`), and the classic bound
//! caps the excess at `εN` per query with `ε = e / width` at confidence
//! `1 − e^-depth` over the tick's `N` ingested queries. An overestimate can
//! still cost a cut: the General Indicator subtracts the Buddy Group's
//! claims, so excess on those claims pulls a suspect's indicator toward
//! innocence (DESIGN.md, "indicator compression").
//!
//! Everything is deterministic from [`SketchParams`] (hash salts derive from
//! `salt`, which callers seed from the run seed) and [`Snapshottable`], so
//! checkpoint/resume and the parallel tick engine's per-tick state hash stay
//! bit-identical across worker counts.

use ddp_snapshot::{Dec, Enc, SnapshotError, Snapshottable};

/// Geometry and seeding of the sketch backend. `Copy` so it can live inside
/// `DdPoliceConfig` (whose `Debug` rendering feeds the snapshot config
/// digest — changing any field refuses foreign checkpoints, as intended).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchParams {
    /// log2 of the count-min width (columns per row). Width 2^16 × depth 4
    /// × 4-byte counters ≈ 1 MiB — vs ~4.8 MiB of exact per-edge counters
    /// at 100k peers (BA m=3).
    pub width_log2: u8,
    /// Count-min depth (independent rows; failure probability `e^-depth`).
    pub depth: u8,
    /// Hash-salt seed. Callers pass the run seed so the whole monitor is a
    /// pure function of it; two runs with equal seeds collide identically.
    pub salt: u64,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams { width_log2: 12, depth: 4, salt: 0xddb5_eed5_a11b_05ed }
    }
}

/// Which traffic-monitor backend the defense reads its per-neighbor query
/// counts from. `Exact` is the default and is tick-for-tick inert: the
/// defense reads the overlay's exact counters exactly as it always has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorBackend {
    /// The paper's exact per-neighbor `In_query`/`Out_query` counters.
    #[default]
    Exact,
    /// A count-min sketch over directed edges ([`SketchMonitor`]).
    Sketch(SketchParams),
}

impl MonitorBackend {
    /// Stable human-readable label for summaries and BENCH rows.
    pub fn label(&self) -> String {
        match self {
            MonitorBackend::Exact => "exact".into(),
            MonitorBackend::Sketch(p) => format!("sketch(w=2^{},d={})", p.width_log2, p.depth),
        }
    }
}

/// SplitMix64 finalizer — the workspace's standard cheap mixer.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The directed-edge key `src → dst` the count-min sketch counts under.
#[inline]
pub fn edge_key(src: u32, dst: u32) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// Count-min sketch with conservative update over `u32` counters.
///
/// Conservative update only raises each row cell to `estimate + count`, the
/// least value consistent with the stream — realized overestimates shrink by
/// an order of magnitude on skewed (flood-dominated) streams while the
/// overestimate-only invariant is preserved: every row cell still
/// upper-bounds every key hashed into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMinSketch {
    width_mask: u32,
    depth: u8,
    /// The configured salt (row seeds also fold in the window epoch).
    salt: u64,
    /// Monotonic window counter; each window re-keys every row, so two keys
    /// that collide in one window almost surely part ways in the next.
    /// Without this, a heavy cell-mate masks the same victim key *every*
    /// window — a persistent, not transient, estimation error.
    epoch: u64,
    /// Per-row hash seeds, derived from `salt` and `epoch`.
    seeds: Vec<u64>,
    /// `depth` rows of `width` counters, flattened row-major.
    cells: Vec<u32>,
}

impl CountMinSketch {
    /// A zeroed sketch of `2^width_log2 × depth` cells.
    pub fn new(width_log2: u8, depth: u8, salt: u64) -> Self {
        let width = 1usize << width_log2;
        let depth = depth.max(1);
        let mut cms = CountMinSketch {
            width_mask: (width - 1) as u32,
            depth,
            salt,
            epoch: 0,
            seeds: vec![0; depth as usize],
            cells: vec![0; width * depth as usize],
        };
        cms.reseed();
        cms
    }

    fn reseed(&mut self) {
        for (r, s) in self.seeds.iter_mut().enumerate() {
            *s = mix64(self.salt ^ mix64(self.epoch).rotate_left(17) ^ mix64(r as u64 + 1));
        }
    }

    /// Advance to the next window: re-key every row. Callers clear the
    /// counters separately ([`clear`](Self::clear)); the split keeps both
    /// operations individually testable.
    pub fn advance_window(&mut self) {
        self.set_window(self.epoch.wrapping_add(1));
    }

    /// Jump to a specific window epoch (snapshot restore).
    pub fn set_window(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.reseed();
    }

    /// The current window epoch.
    pub fn window(&self) -> u64 {
        self.epoch
    }

    /// Number of columns per row.
    pub fn width(&self) -> usize {
        self.width_mask as usize + 1
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    #[inline]
    fn cell_index(&self, row: usize, key: u64) -> usize {
        let h = mix64(key ^ self.seeds[row]);
        row * self.width() + (h as u32 & self.width_mask) as usize
    }

    /// Add `count` occurrences of `key` (conservative update).
    #[inline]
    pub fn record(&mut self, key: u64, count: u32) {
        let target = self.estimate(key).saturating_add(count);
        for row in 0..self.depth as usize {
            let i = self.cell_index(row, key);
            if self.cells[i] < target {
                self.cells[i] = target;
            }
        }
    }

    /// Point estimate: the minimum over rows, never below the true count.
    #[inline]
    pub fn estimate(&self, key: u64) -> u32 {
        let mut est = u32::MAX;
        for row in 0..self.depth as usize {
            est = est.min(self.cells[self.cell_index(row, key)]);
        }
        est
    }

    /// Zero every counter — the per-minute window reset. O(width × depth),
    /// independent of the overlay's edge count.
    pub fn clear(&mut self) {
        self.cells.fill(0);
    }

    /// Bytes of counter state (the memory the backend actually pays for).
    pub fn state_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<u32>()
    }
}

/// The sketch `TrafficMonitor` backend: one pooled count-min arena over
/// directed-edge keys (the fleet's aggregate sketch capacity — per-peer
/// isolation would only change *which* keys collide, not the εN bound over
/// the pooled stream), cleared and re-keyed every one-minute window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchMonitor {
    cms: CountMinSketch,
    /// Queries ingested this tick (the `N` of the εN error bound).
    items_tick: u64,
}

impl SketchMonitor {
    /// A fresh monitor with zeroed state.
    pub fn new(params: SketchParams) -> Self {
        SketchMonitor {
            cms: CountMinSketch::new(params.width_log2, params.depth, params.salt),
            items_tick: 0,
        }
    }

    /// Open a new one-minute window: clear the count-min counters, re-key
    /// the rows for the new window (so any key masked by a heavy cell-mate
    /// this window almost surely escapes it next window), and zero the
    /// ingest tally.
    pub fn begin_tick(&mut self) {
        self.cms.clear();
        self.cms.advance_window();
        self.items_tick = 0;
    }

    /// Ingest `count` accepted queries on the directed edge `src → dst`.
    #[inline]
    pub fn record_flow(&mut self, src: u32, dst: u32, count: u32) {
        self.cms.record(edge_key(src, dst), count);
        self.items_tick += count as u64;
    }

    /// Estimated accepted queries on `src → dst` this tick (≥ true count).
    #[inline]
    pub fn estimate(&self, src: u32, dst: u32) -> u32 {
        self.cms.estimate(edge_key(src, dst))
    }

    /// Queries ingested this tick (the εN bound's `N`).
    pub fn items_this_tick(&self) -> u64 {
        self.items_tick
    }

    /// The count-min window epoch currently folded into the row hashes.
    pub fn window(&self) -> u64 {
        self.cms.window()
    }

    /// The proven per-query overestimate bound for this geometry over the
    /// current tick's stream: `εN = e · N / width`, at confidence
    /// `1 − e^-depth` per query.
    pub fn epsilon_n(&self) -> f64 {
        std::f64::consts::E * self.items_tick as f64 / self.cms.width() as f64
    }

    /// Bytes of monitor state: the count-min arena. Compare against
    /// [`exact_state_bytes`].
    pub fn state_bytes(&self) -> usize {
        self.cms.state_bytes()
    }
}

/// Bytes the exact backend pays for the same job: one `[sent, accepted]`
/// `u32` pair per directed half-edge in the overlay arena.
pub fn exact_state_bytes(directed_half_edges: usize) -> usize {
    directed_half_edges * 2 * std::mem::size_of::<u32>()
}

impl Snapshottable for SketchMonitor {
    /// Geometry is owned by the config (whose digest the defense already
    /// embeds), so only the mutable state is serialized — in declaration
    /// order, so the engine's per-tick state hash covers every bit of it.
    fn save(&self, enc: &mut Enc) {
        enc.put(&self.cms.cells);
        enc.u64(self.cms.epoch);
        enc.u64(self.items_tick);
    }
    fn load(_dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Err(SnapshotError::Unsupported {
            what: "SketchMonitor::load — use restore_into (geometry comes from config)",
        })
    }
}

impl SketchMonitor {
    /// Restore state saved by [`Snapshottable::save`] into a monitor built
    /// from the same [`SketchParams`]. A cell-count mismatch means the
    /// snapshot came from a different geometry and is refused.
    pub fn restore_into(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapshotError> {
        let cells: Vec<u32> = dec.get()?;
        if cells.len() != self.cms.cells.len() {
            return Err(SnapshotError::ContextMismatch {
                expected: self.cms.cells.len() as u64,
                found: cells.len() as u64,
            });
        }
        self.cms.cells = cells;
        self.cms.set_window(dec.u64()?);
        self.items_tick = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_never_undercounts() {
        let mut cms = CountMinSketch::new(6, 3, 7); // tiny: collisions certain
        let mut truth = std::collections::HashMap::new();
        let mut st = 99u64;
        for _ in 0..2_000 {
            let key = mix64(st) % 300;
            st = st.wrapping_add(1);
            let c = (mix64(st) % 50) as u32 + 1;
            st = st.wrapping_add(1);
            cms.record(key, c);
            *truth.entry(key).or_insert(0u64) += c as u64;
        }
        for (&k, &t) in &truth {
            assert!(
                cms.estimate(k) as u64 >= t,
                "undercount: key {k} true {t} est {}",
                cms.estimate(k)
            );
        }
    }

    #[test]
    fn conservative_update_never_exceeds_plain_and_beats_it_on_collisions() {
        // A plain count-min adds every count to every row; conservative
        // update raises each row cell only as far as the key's new estimate.
        let mut cms = CountMinSketch::new(4, 3, 11); // 16 columns: collisions certain
        let mut plain = vec![0u32; cms.cells.len()];
        let mut st = 5u64;
        for _ in 0..600 {
            let key = mix64(st) % 60;
            let count = (mix64(st + 1) % 20) as u32 + 1;
            st += 2;
            cms.record(key, count);
            for row in 0..cms.depth() {
                plain[cms.cell_index(row, key)] += count;
            }
        }
        let plain_estimate =
            |key| (0..cms.depth()).map(|row| plain[cms.cell_index(row, key)]).min().unwrap();
        let mut tighter = 0;
        for key in 0..60 {
            assert!(cms.estimate(key) <= plain_estimate(key), "key {key} above plain count-min");
            tighter += usize::from(cms.estimate(key) < plain_estimate(key));
        }
        assert!(tighter > 0, "conservative update tightened no estimate");
    }

    #[test]
    fn a_key_masked_in_one_window_escapes_in_a_later_one() {
        // One row of 16 columns: a victim sharing its cell with a heavy key
        // reads as heavy this window; re-keying must part them soon.
        let mut cms = CountMinSketch::new(4, 1, 9);
        let heavy = 0u64;
        let victim = (1..).find(|&k| cms.cell_index(0, k) == cms.cell_index(0, heavy)).unwrap();
        let masked = |cms: &mut CountMinSketch| {
            cms.clear();
            cms.record(heavy, 1_000);
            cms.estimate(victim) >= 1_000
        };
        assert!(masked(&mut cms));
        let escaped = (0..8).any(|_| {
            cms.advance_window();
            !masked(&mut cms)
        });
        assert!(escaped, "the victim stayed masked for 8 windows: the rows are never re-keyed");
    }

    #[test]
    fn clear_zeroes_the_window() {
        let mut cms = CountMinSketch::new(8, 4, 1);
        cms.record(42, 1000);
        assert!(cms.estimate(42) >= 1000);
        cms.clear();
        assert_eq!(cms.estimate(42), 0);
    }

    #[test]
    fn same_salt_same_cells_different_salt_different_hashing() {
        let mut a = CountMinSketch::new(8, 4, 5);
        let mut b = CountMinSketch::new(8, 4, 5);
        let mut c = CountMinSketch::new(8, 4, 6);
        for k in 0..500u64 {
            a.record(k, 3);
            b.record(k, 3);
            c.record(k, 3);
        }
        assert_eq!(a, b, "same salt must be bit-identical");
        assert_ne!(a.cells, c.cells, "different salt must hash differently");
    }

    #[test]
    fn monitor_snapshot_roundtrip_is_bit_identical() {
        let p = SketchParams { width_log2: 8, depth: 3, salt: 404 };
        let mut m = SketchMonitor::new(p);
        m.begin_tick();
        for i in 0..200u32 {
            m.record_flow(i % 40, (i + 1) % 40, i + 1);
        }
        let mut enc = Enc::new();
        enc.put(&m);
        let mut back = SketchMonitor::new(p);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        back.restore_into(&mut dec).expect("restore");
        dec.finish().expect("no trailing bytes");
        assert_eq!(m, back);
        // And the restored monitor re-serializes to the same bytes.
        let mut enc2 = Enc::new();
        enc2.put(&back);
        assert_eq!(bytes, enc2.into_bytes());
    }

    #[test]
    fn monitor_refuses_foreign_geometry() {
        let mut m = SketchMonitor::new(SketchParams { width_log2: 8, depth: 3, salt: 1 });
        m.record_flow(1, 2, 3);
        let mut enc = Enc::new();
        enc.put(&m);
        let bytes = enc.into_bytes();
        let mut other = SketchMonitor::new(SketchParams { width_log2: 9, depth: 3, salt: 1 });
        let err = other.restore_into(&mut Dec::new(&bytes)).expect_err("must refuse");
        assert!(matches!(err, SnapshotError::ContextMismatch { .. }), "got {err:?}");
    }

    #[test]
    fn backend_labels_are_stable() {
        assert_eq!(MonitorBackend::Exact.label(), "exact");
        let p = SketchParams { width_log2: 16, depth: 2, ..SketchParams::default() };
        assert_eq!(MonitorBackend::Sketch(p).label(), "sketch(w=2^16,d=2)");
    }

    #[test]
    fn memory_ratio_at_scale_favors_the_sketch() {
        // 100k peers, BA m=3: ~300k edges, ~600k directed half-edges.
        let exact = exact_state_bytes(600_000);
        let sketch =
            SketchMonitor::new(SketchParams { width_log2: 16, depth: 4, salt: 0 }).state_bytes();
        assert!(exact >= 4 * sketch, "exact {exact} must be ≥4× sketch {sketch} at 100k peers");
    }
}
