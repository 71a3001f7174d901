//! Duplicate suppression and reverse-path routing.
//!
//! Gnutella's forwarding rule (cited in §2.2 of the paper): "a query message
//! will be dropped if the query message has visited the peer before", and
//! query hits are "only delivered to the neighbor along the inverse path of
//! the search path". Both behaviours hang off a per-peer table of recently
//! seen GUIDs.

use crate::guid::Guid;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Per-peer table of recently seen message GUIDs, bounded in memory.
///
/// Each entry remembers which neighbor the message first arrived from (for
/// reverse-path routing) and when it was seen (for expiry). Entries older
/// than `horizon` time units stop answering once [`SeenTable::sweep`] has
/// been told the time.
///
/// The table holds at most `capacity` GUIDs (131 072 from [`SeenTable::new`])
/// however fast a neighbor sends fresh ones. It is two generations of an
/// open-addressed index over a dense entry list: a fresh GUID goes into the
/// current generation, and when that holds `capacity / 2` the older
/// generation is discarded whole and the two swap roles. Hence:
///
/// * a GUID is compared by all 16 bytes, so `Duplicate` and `reverse_route`
///   are never wrong about a GUID that is resident;
/// * the newest `capacity / 2` distinct GUIDs are always resident. A GUID
///   rotated out before its horizon reads `Fresh` again — the message is
///   re-forwarded, to die by TTL — and a hit for it finds no route.
///   [`SeenTable::evicted_live`] counts the rotations that did this;
/// * which GUIDs are resident depends on the sequence of `offer` and `sweep`
///   calls alone, never on the hash keys, so checkpoints repeat exactly;
/// * memory grows on demand, to at most [`SeenTable::max_heap_bytes`]: 48
///   bytes per GUID of `capacity`, 6 MiB at the default.
///
/// The index hash is std's SipHash with keys drawn per table: GUIDs are
/// chosen by whoever sends the message.
///
/// ```
/// use ddp_protocol::{Guid, SeenTable};
/// use ddp_protocol::routing::Offer;
///
/// let mut seen = SeenTable::new(600);
/// let guid = Guid::derived(7, 1);
/// assert_eq!(seen.offer(guid, 3, 0), Offer::Fresh);     // process & forward
/// assert_eq!(seen.offer(guid, 9, 1), Offer::Duplicate); // "visited before"
/// assert_eq!(seen.reverse_route(&guid), Some(3));       // hits go back via 3
/// ```
#[derive(Debug, Clone)]
pub struct SeenTable {
    /// Receives fresh GUIDs.
    current: Generation,
    /// The generation filled before `current`; only read until discarded.
    previous: Generation,
    /// GUIDs one generation holds: half the table's capacity.
    half: usize,
    horizon: u64,
    /// Entries seen before this time have expired (set by `sweep`).
    live_from: u64,
    keys: RandomState,
    evicted_live: u64,
}

#[derive(Debug, Clone, Copy)]
struct SeenEntry {
    guid: Guid,
    seen_at: u64,
    from: u32,
}

/// One generation: entries in arrival order, found through an open-addressed
/// index with linear probing at a load of at most one half.
#[derive(Debug, Clone, Default)]
struct Generation {
    entries: Vec<SeenEntry>,
    /// Power-of-two table of `hash << 32 | position + 1`, 0 for an empty
    /// slot, where `hash` is the upper half of the GUID's SipHash: its low
    /// bits are the home slot, all of it is compared before the entry is.
    index: Vec<u64>,
    /// Latest `seen_at` of any entry.
    newest: u64,
}

/// Outcome of offering a message to the seen table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// First sighting: the message should be processed and forwarded.
    Fresh,
    /// Already seen: the message must be dropped (duplicate suppression).
    Duplicate,
}

impl Generation {
    /// Index slots of a generation holding its first entries.
    const MIN_SLOTS: usize = 16;

    fn find(&self, guid: &Guid, hash: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut slot = (hash >> 32) as usize & mask;
        loop {
            let word = self.index[slot];
            if word == 0 {
                return None;
            }
            if word >> 32 == hash >> 32 {
                let at = (word as u32 - 1) as usize;
                if self.entries[at].guid == *guid {
                    return Some(at);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Append an entry for a GUID that `find` does not find. `half` is the
    /// most entries this generation is ever given.
    fn insert(&mut self, entry: SeenEntry, hash: u64, half: usize) {
        if (self.entries.len() + 1) * 2 > self.index.len() {
            let slots = (self.index.len() * 2).max(Self::MIN_SLOTS);
            let old = std::mem::replace(&mut self.index, vec![0; slots]);
            for word in old.into_iter().filter(|&w| w != 0) {
                Self::place(&mut self.index, word);
            }
        }
        if self.entries.len() == self.entries.capacity() {
            // Double, but never past what the generation can hold.
            let room = half.saturating_sub(self.entries.len());
            self.entries.reserve_exact(self.entries.len().max(Self::MIN_SLOTS / 2).min(room));
        }
        self.entries.push(entry);
        self.newest = self.newest.max(entry.seen_at);
        Self::place(&mut self.index, (hash >> 32 << 32) | self.entries.len() as u64);
    }

    /// Store `word` in the first free slot from its home.
    fn place(index: &mut [u64], word: u64) {
        let mask = index.len() - 1;
        let mut slot = (word >> 32) as usize & mask;
        while index[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        index[slot] = word;
    }

    /// Empty the generation, leaving it the index and entry room of `like`
    /// (a generation that just filled), so refilling it never regrows.
    fn reset_like(&mut self, like: &Generation) {
        self.entries.clear();
        self.entries.reserve_exact(like.entries.len());
        if self.index.len() == like.index.len() {
            self.index.fill(0);
        } else {
            self.index = vec![0; like.index.len()];
        }
        self.newest = 0;
    }

    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<SeenEntry>()
            + self.index.capacity() * std::mem::size_of::<u64>()
    }
}

impl SeenTable {
    /// GUIDs a table from [`SeenTable::new`] holds: twice the 60 000 a peer
    /// sees per 600 s horizon when all 20 000 peers of the paper's overlay
    /// issue 0.3 queries a minute, which also leaves a 20 000 q/min agent
    /// its two minutes before the cut without displacing them.
    pub const DEFAULT_CAPACITY: usize = 131_072;

    /// Create a table that remembers GUIDs for `horizon` time units, at most
    /// [`SeenTable::DEFAULT_CAPACITY`] of them.
    pub fn new(horizon: u64) -> Self {
        Self::with_capacity(horizon, Self::DEFAULT_CAPACITY)
    }

    /// A table holding at most `capacity` GUIDs (rounded down to even, at
    /// least 2). For tests, which need rotation to happen after a handful of
    /// offers; everything else uses [`SeenTable::new`].
    pub fn with_capacity(horizon: u64, capacity: usize) -> Self {
        let half = (capacity / 2).max(1);
        assert!(half < u32::MAX as usize, "index words hold 32-bit positions");
        SeenTable {
            current: Generation::default(),
            previous: Generation::default(),
            half,
            horizon,
            live_from: 0,
            keys: RandomState::new(),
            evicted_live: 0,
        }
    }

    fn hash(&self, guid: &Guid) -> u64 {
        let mut hasher = self.keys.build_hasher();
        hasher.write(guid.as_bytes());
        hasher.finish()
    }

    /// Offer a message GUID arriving from neighbor `from` at time `now`.
    pub fn offer(&mut self, guid: Guid, from: u32, now: u64) -> Offer {
        let hash = self.hash(&guid);
        if let Some(at) = self.current.find(&guid, hash) {
            let entry = &mut self.current.entries[at];
            if entry.seen_at >= self.live_from {
                return Offer::Duplicate;
            }
            // Expired where it sits: a first sighting again.
            (entry.from, entry.seen_at) = (from, now);
            self.current.newest = self.current.newest.max(now);
            return Offer::Fresh;
        }
        if let Some(at) = self.previous.find(&guid, hash) {
            if self.previous.entries[at].seen_at >= self.live_from {
                return Offer::Duplicate;
            }
            // Expired: the newer entry made below is found first from now on.
        }
        if self.current.entries.len() == self.half {
            self.rotate();
        }
        self.current.insert(SeenEntry { guid, seen_at: now, from }, hash, self.half);
        Offer::Fresh
    }

    /// The current generation is full: discard the previous one and start a
    /// new current generation in its storage.
    fn rotate(&mut self) {
        let discarded = &self.previous;
        if !discarded.entries.is_empty() && discarded.newest >= self.live_from {
            self.evicted_live += 1;
        }
        std::mem::swap(&mut self.current, &mut self.previous);
        self.current.reset_like(&self.previous);
    }

    fn live(&self, guid: &Guid) -> Option<&SeenEntry> {
        let hash = self.hash(guid);
        let entry = match self.current.find(guid, hash) {
            Some(at) => &self.current.entries[at],
            None => &self.previous.entries[self.previous.find(guid, hash)?],
        };
        (entry.seen_at >= self.live_from).then_some(entry)
    }

    /// The neighbor a hit for `guid` must be routed back to, if the query
    /// was seen, has not expired and is still resident.
    pub fn reverse_route(&self, guid: &Guid) -> Option<u32> {
        self.live(guid).map(|e| e.from)
    }

    /// Expire entries older than the horizon at time `now`: O(1), the
    /// entries are checked against the time when they are next looked up.
    pub fn sweep(&mut self, now: u64) {
        self.live_from = self.live_from.max(now.saturating_sub(self.horizon));
    }

    /// The expiry horizon this table was built with.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Most GUIDs the table holds at once.
    pub fn capacity(&self) -> usize {
        self.half * 2
    }

    /// GUIDs held right now, expired ones included.
    pub fn residents(&self) -> usize {
        self.current.entries.len() + self.previous.entries.len()
    }

    /// Rotations that discarded a generation with an unexpired entry in it.
    /// Nonzero means the table is too small for the traffic it sees: some
    /// GUID was forgotten inside its horizon.
    pub fn evicted_live(&self) -> u64 {
        self.evicted_live
    }

    /// Heap bytes the table owns right now.
    pub fn heap_bytes(&self) -> usize {
        self.current.heap_bytes() + self.previous.heap_bytes()
    }

    /// The most [`SeenTable::heap_bytes`] can ever read: per generation, its
    /// entries and an index of at least twice as many slots.
    pub fn max_heap_bytes(&self) -> usize {
        let slots = (self.half * 2).next_power_of_two().max(Generation::MIN_SLOTS);
        2 * (self.half * std::mem::size_of::<SeenEntry>() + slots * std::mem::size_of::<u64>())
    }

    fn live_entries(&self) -> impl Iterator<Item = &SeenEntry> {
        // A GUID that expired in `previous` and was seen again sits in both
        // generations; only the newer copy is live.
        let live_from = self.live_from;
        self.previous
            .entries
            .iter()
            .chain(&self.current.entries)
            .filter(move |e| e.seen_at >= live_from)
    }

    /// Checkpoint view: every live entry as `(guid, from, seen_at)`, sorted
    /// by GUID so the serialization does not depend on arrival order or on
    /// the hash keys.
    pub fn snapshot_entries(&self) -> Vec<(Guid, u32, u64)> {
        let mut v: Vec<(Guid, u32, u64)> =
            self.live_entries().map(|e| (e.guid, e.from, e.seen_at)).collect();
        v.sort_unstable_by_key(|&(g, ..)| g);
        v
    }

    /// Rebuild a table from a checkpoint produced by
    /// [`SeenTable::snapshot_entries`]. Of two entries for one GUID the
    /// earlier seen wins, matching [`SeenTable::offer`] semantics. A
    /// checkpoint with more entries than the table holds (one written before
    /// the table was bounded) keeps the most recently seen.
    pub fn from_entries(horizon: u64, entries: impl IntoIterator<Item = (Guid, u32, u64)>) -> Self {
        let mut t = SeenTable::new(horizon);
        let mut entries: Vec<(Guid, u32, u64)> = entries.into_iter().collect();
        // Oldest first, so generations fill in the order the GUIDs were seen.
        entries.sort_by_key(|&(guid, _, seen_at)| (seen_at, guid));
        for (guid, from, seen_at) in entries {
            t.offer(guid, from, seen_at);
        }
        t
    }

    /// Number of live entries. Counts them one by one: for tests and
    /// diagnostics, not for the frame path.
    pub fn len(&self) -> usize {
        self.live_entries().count()
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_offer_is_fresh_then_duplicate() {
        let mut t = SeenTable::new(10);
        let g = Guid::derived(1, 1);
        assert_eq!(t.offer(g, 5, 0), Offer::Fresh);
        assert_eq!(t.offer(g, 6, 1), Offer::Duplicate);
        assert_eq!(t.offer(g, 5, 2), Offer::Duplicate);
    }

    #[test]
    fn reverse_route_points_to_first_sender() {
        let mut t = SeenTable::new(10);
        let g = Guid::derived(2, 2);
        t.offer(g, 7, 0);
        t.offer(g, 9, 0); // duplicate via another neighbor: route unchanged
        assert_eq!(t.reverse_route(&g), Some(7));
        assert_eq!(t.reverse_route(&Guid::derived(3, 3)), None);
    }

    #[test]
    fn sweep_expires_old_entries() {
        let mut t = SeenTable::new(5);
        let old = Guid::derived(1, 0);
        let new = Guid::derived(1, 1);
        t.offer(old, 1, 0);
        t.offer(new, 2, 4);
        t.sweep(7);
        assert_eq!(t.reverse_route(&old), None, "entry from t=0 expired at t=7");
        assert_eq!(t.reverse_route(&new), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn swept_guid_can_be_offered_fresh_again() {
        let mut t = SeenTable::new(1);
        let g = Guid::derived(4, 4);
        t.offer(g, 1, 0);
        t.sweep(10);
        assert_eq!(t.offer(g, 2, 10), Offer::Fresh);
        assert_eq!(t.reverse_route(&g), Some(2));
    }

    #[test]
    fn a_full_table_forgets_its_older_generation_and_says_so() {
        let mut t = SeenTable::with_capacity(100, 4);
        let g = |i| Guid::derived(5, i);
        for i in 0..4 {
            assert_eq!(t.offer(g(i), 1, 0), Offer::Fresh);
        }
        assert_eq!((t.residents(), t.evicted_live()), (4, 0));
        // The fifth fresh GUID discards the two oldest, both still live.
        assert_eq!(t.offer(g(4), 1, 0), Offer::Fresh);
        assert_eq!((t.residents(), t.evicted_live()), (3, 1));
        assert_eq!(t.reverse_route(&g(0)), None);
        assert_eq!(t.offer(g(1), 2, 1), Offer::Fresh, "forgotten early: forwarded again");
        assert_eq!(t.offer(g(3), 2, 1), Offer::Duplicate, "the newest half is always held");
        // Once the horizon has passed, discarding costs nothing.
        t.sweep(500);
        for i in 10..14 {
            t.offer(g(i), 1, 500);
        }
        assert_eq!(t.evicted_live(), 1, "only expired entries were discarded since");
    }

    #[test]
    fn empty_table() {
        let t = SeenTable::new(3);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
