//! Flat segmented storage for per-node variable-length rows.
//!
//! The simulator keeps one short, mutable row per node — adjacency half-edges
//! in [`crate::DynamicGraph`], per-edge traffic counters in the overlay. The
//! obvious `Vec<Vec<T>>` pays one heap allocation and one pointer chase per
//! row, which is exactly what the flooding hot loop cannot afford at 10⁵
//! nodes. A [`SegVec`] packs every row into one flat arena with per-row
//! `(base, len, cap)` bookkeeping:
//!
//! * `slice(i)` / `slice_mut(i)` are a single bounds-checked subslice of one
//!   contiguous allocation — rows of neighboring nodes share cache lines;
//! * `push(i, v)` appends in headroom; when a row is full it relocates to the
//!   arena tail with doubled capacity (`max(4, 2·cap)`), abandoning the old
//!   slot;
//! * `swap_remove(i, slot)` evolves slots *exactly* like `Vec::swap_remove` —
//!   callers that mirror removals across two `SegVec`s (graph + counters)
//!   stay aligned positionally;
//! * `replace_row(i, items)` rewrites a whole row — in place when the items
//!   fit its capacity, else in an exact-fit slot at the arena tail;
//! * abandoned capacity is tracked and the arena is compacted in row order
//!   once more than half of a non-trivial arena is waste, so long churny runs
//!   cannot leak the arena unboundedly.
//!
//! Rows never observe compaction or relocation: all addressing goes through
//! `base[i]`, and `&[T]` borrows cannot be held across mutation.

/// Flat arena of `n` independently growable rows of `T`.
#[derive(Debug, Clone)]
pub struct SegVec<T: Copy> {
    flat: Vec<T>,
    base: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    /// Arena slots abandoned by relocations, pending compaction.
    wasted: usize,
    /// Value used to pad fresh headroom (never observable through `slice`).
    fill: T,
}

impl<T: Copy> SegVec<T> {
    /// `n` empty rows. `fill` pads unused headroom slots.
    pub fn new(n: usize, fill: T) -> Self {
        SegVec {
            flat: Vec::new(),
            base: vec![0; n],
            len: vec![0; n],
            cap: vec![0; n],
            wasted: 0,
            fill,
        }
    }

    /// Rows laid out back-to-back with `cap == len`, each row holding
    /// `lens[i]` copies of `fill` — the bulk constructor for mirrors whose
    /// geometry is known up front.
    pub fn from_lens(lens: &[usize], fill: T) -> Self {
        let total: usize = lens.iter().sum();
        let mut base = Vec::with_capacity(lens.len());
        let mut at = 0u32;
        for &l in lens {
            base.push(at);
            at += l as u32;
        }
        SegVec {
            flat: vec![fill; total],
            base,
            len: lens.iter().map(|&l| l as u32).collect(),
            cap: lens.iter().map(|&l| l as u32).collect(),
            wasted: 0,
            fill,
        }
    }

    /// Make room for `additional` more arena slots without reallocating —
    /// for callers that know the total size of the rows they are about to
    /// write.
    pub fn reserve_arena(&mut self, additional: usize) {
        self.flat.reserve_exact(additional);
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.len.len()
    }

    /// Length of row `i`.
    #[inline]
    pub fn len_of(&self, i: usize) -> usize {
        self.len[i] as usize
    }

    /// Arena offset of row `i` (valid until the next mutation).
    #[inline]
    pub fn base_of(&self, i: usize) -> usize {
        self.base[i] as usize
    }

    /// The whole arena, including headroom padding — for bulk resets only.
    #[inline]
    pub fn flat_mut(&mut self) -> &mut [T] {
        &mut self.flat
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn slice(&self, i: usize) -> &[T] {
        let b = self.base[i] as usize;
        &self.flat[b..b + self.len[i] as usize]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn slice_mut(&mut self, i: usize) -> &mut [T] {
        let b = self.base[i] as usize;
        let l = self.len[i] as usize;
        &mut self.flat[b..b + l]
    }

    /// Element `slot` of row `i`.
    #[inline]
    pub fn get(&self, i: usize, slot: usize) -> T {
        debug_assert!(slot < self.len[i] as usize);
        self.flat[self.base[i] as usize + slot]
    }

    /// Overwrite element `slot` of row `i`.
    #[inline]
    pub fn set(&mut self, i: usize, slot: usize, v: T) {
        debug_assert!(slot < self.len[i] as usize);
        self.flat[self.base[i] as usize + slot] = v;
    }

    /// Append an empty row.
    pub fn push_row(&mut self) {
        self.base.push(0);
        self.len.push(0);
        self.cap.push(0);
    }

    /// Append `v` to row `i`, relocating the row to the arena tail (with
    /// doubled capacity) when its headroom is exhausted.
    pub fn push(&mut self, i: usize, v: T) {
        if self.len[i] == self.cap[i] {
            self.relocate(i);
        }
        self.flat[self.base[i] as usize + self.len[i] as usize] = v;
        self.len[i] += 1;
    }

    /// Replace the whole of row `i` with `items`: in place when they fit the
    /// row's capacity, otherwise in a fresh exact-fit slot at the arena tail
    /// (the old slot is abandoned like a relocation's).
    pub fn replace_row(&mut self, i: usize, items: &[T]) {
        if items.len() <= self.cap[i] as usize {
            let b = self.base[i] as usize;
            self.flat[b..b + items.len()].copy_from_slice(items);
            self.len[i] = items.len() as u32;
            return;
        }
        self.wasted += self.cap[i] as usize;
        self.base[i] = self.flat.len() as u32;
        self.len[i] = items.len() as u32;
        self.cap[i] = items.len() as u32;
        self.flat.extend_from_slice(items);
        self.compact_if_wasteful();
    }

    /// Remove and return element `slot` of row `i`, moving the row's last
    /// element into its place — identical slot evolution to
    /// `Vec::swap_remove`.
    pub fn swap_remove(&mut self, i: usize, slot: usize) -> T {
        let b = self.base[i] as usize;
        let last = self.len[i] as usize - 1;
        debug_assert!(slot <= last);
        let out = self.flat[b + slot];
        self.flat[b + slot] = self.flat[b + last];
        self.len[i] = last as u32;
        out
    }

    /// Remove and return the last element of row `i`, if any.
    pub fn pop(&mut self, i: usize) -> Option<T> {
        if self.len[i] == 0 {
            return None;
        }
        self.len[i] -= 1;
        Some(self.flat[self.base[i] as usize + self.len[i] as usize])
    }

    /// Overwrite every arena slot (live and padding) with `v` — the O(arena)
    /// bulk reset used for per-tick counters.
    pub fn fill_all(&mut self, v: T) {
        self.flat.fill(v);
    }

    /// Arena slots currently abandoned (diagnostics / tests).
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// Arena length including headroom and waste (diagnostics / tests).
    pub fn arena_len(&self) -> usize {
        self.flat.len()
    }

    fn relocate(&mut self, i: usize) {
        let old_base = self.base[i] as usize;
        let old_cap = self.cap[i] as usize;
        let live = self.len[i] as usize;
        let new_cap = (old_cap * 2).max(4);
        let new_base = self.flat.len();
        self.flat.resize(new_base + new_cap, self.fill);
        self.flat.copy_within(old_base..old_base + live, new_base);
        self.base[i] = new_base as u32;
        self.cap[i] = new_cap as u32;
        self.wasted += old_cap;
        self.compact_if_wasteful();
    }

    fn compact_if_wasteful(&mut self) {
        if self.wasted > self.flat.len() / 2 && self.flat.len() > 1024 {
            self.compact();
        }
    }

    /// Rebuild the arena in row order with `cap == len`, dropping all waste
    /// and headroom.
    fn compact(&mut self) {
        let total: usize = self.len.iter().map(|&l| l as usize).sum();
        let mut flat = Vec::with_capacity(total);
        for i in 0..self.rows() {
            let b = self.base[i] as usize;
            let l = self.len[i] as usize;
            self.base[i] = flat.len() as u32;
            self.cap[i] = l as u32;
            flat.extend_from_slice(&self.flat[b..b + l]);
        }
        self.flat = flat;
        self.wasted = 0;
    }
}

impl<T: Copy + Default> Default for SegVec<T> {
    fn default() -> Self {
        SegVec::new(0, T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_slice_roundtrip() {
        let mut s = SegVec::new(3, 0u32);
        s.push(1, 10);
        s.push(1, 11);
        s.push(0, 7);
        assert_eq!(s.slice(0), &[7]);
        assert_eq!(s.slice(1), &[10, 11]);
        assert_eq!(s.slice(2), &[] as &[u32]);
        assert_eq!(s.len_of(1), 2);
    }

    #[test]
    fn swap_remove_matches_vec_semantics() {
        // Drive a SegVec row and a plain Vec through the same op sequence;
        // every intermediate state must agree slot-for-slot.
        let mut s = SegVec::new(1, 0u32);
        let mut model: Vec<u32> = Vec::new();
        for v in 0..10u32 {
            s.push(0, v);
            model.push(v);
        }
        for slot in [3usize, 0, 5, 5, 0] {
            assert_eq!(s.swap_remove(0, slot), model.swap_remove(slot));
            assert_eq!(s.slice(0), model.as_slice());
        }
        assert_eq!(s.pop(0), model.pop());
        assert_eq!(s.slice(0), model.as_slice());
    }

    #[test]
    fn relocation_preserves_contents_and_counts_waste() {
        let mut s = SegVec::new(2, 0u32);
        for v in 0..4u32 {
            s.push(0, v);
        }
        assert_eq!(s.wasted(), 0, "first relocation abandons a zero-cap row");
        s.push(0, 4); // forces 4 -> 8 relocation, abandoning 4 slots
        assert_eq!(s.slice(0), &[0, 1, 2, 3, 4]);
        assert_eq!(s.wasted(), 4);
        // Row 1 stays untouched.
        s.push(1, 99);
        assert_eq!(s.slice(1), &[99]);
    }

    #[test]
    fn compaction_fires_and_preserves_rows() {
        // Grow a few rows far enough that relocations push waste past half
        // of a >1024-slot arena, then verify contents survived compaction.
        let mut s = SegVec::new(4, 0u32);
        for round in 0..600u32 {
            for i in 0..4 {
                s.push(i, round * 10 + i as u32);
            }
        }
        assert!(s.wasted() < s.arena_len() / 2 || s.arena_len() <= 1024);
        for i in 0..4 {
            assert_eq!(s.len_of(i), 600);
            assert_eq!(s.get(i, 599), 5990 + i as u32);
            assert_eq!(s.get(i, 0), i as u32);
        }
    }

    #[test]
    fn from_lens_lays_rows_back_to_back() {
        let s = SegVec::from_lens(&[2, 0, 3], 9u8);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.slice(0), &[9, 9]);
        assert_eq!(s.slice(1), &[] as &[u8]);
        assert_eq!(s.slice(2), &[9, 9, 9]);
        assert_eq!(s.base_of(2), 2);
        assert_eq!(s.arena_len(), 5);
    }

    #[test]
    fn fill_all_resets_every_live_slot() {
        let mut s = SegVec::from_lens(&[2, 2], 1u32);
        s.set(0, 1, 42);
        s.set(1, 0, 7);
        s.fill_all(0);
        assert_eq!(s.slice(0), &[0, 0]);
        assert_eq!(s.slice(1), &[0, 0]);
    }

    #[test]
    fn replace_row_rewrites_in_place_or_at_the_tail() {
        let mut s = SegVec::new(2, 0u32);
        s.replace_row(0, &[1, 2, 3]);
        s.replace_row(1, &[9]);
        assert_eq!((s.arena_len(), s.wasted()), (4, 0), "exact fit, back to back");
        s.replace_row(0, &[7, 8]); // fits: same slot, shorter
        assert_eq!((s.slice(0), s.base_of(0), s.arena_len()), (&[7, 8][..], 0, 4));
        s.replace_row(0, &[4, 5, 6]); // the slot kept its capacity of 3
        assert_eq!((s.slice(0), s.base_of(0)), (&[4, 5, 6][..], 0));
        s.replace_row(1, &[1, 2]); // outgrows capacity 1: moves to the tail
        assert_eq!((s.slice(1), s.base_of(1), s.wasted()), (&[1, 2][..], 4, 1));
        assert_eq!(s.slice(0), &[4, 5, 6], "other rows never notice");
        s.push(1, 3); // pushes still relocate with doubling after a replace
        assert_eq!(s.slice(1), &[1, 2, 3]);
    }

    #[test]
    fn push_row_appends_an_empty_row() {
        let mut s = SegVec::new(1, 0u32);
        s.push(0, 5);
        s.push_row();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.len_of(1), 0);
        s.push(1, 6);
        assert_eq!(s.slice(1), &[6]);
        assert_eq!(s.slice(0), &[5]);
    }
}
