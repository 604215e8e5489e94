//! Flat simulation arenas: pooled per-run state + dense step multisets.
//!
//! The simulators' hot path used to spread its mutable state over
//! growable `Vec`s allocated per run and `BTreeMap` time-multisets
//! rebalanced per apply/undo. [`SimArena`] gathers every recyclable
//! buffer — the load surface, its occupancy/overload bit rows, the
//! visit stamps, pooled hop vectors and the dense [`StepCounts`]
//! multisets — into one parts-bin that survives across runs, so a
//! steady-state candidate check allocates nothing.
//!
//! Two building blocks live here:
//!
//! - [`BitRows`]: `FixedBitSet`-style `u64`-word occupancy rows, one
//!   row per time step and one bit per interned link (the
//!   berkeley-emulation-engine `NetworkPorts` busy-bitmap idiom).
//!   The ledger keeps one row set for "cell is loaded" and one for
//!   "cell is overloaded", so sweeping the surface for congestion
//!   events or load series skips empty words instead of scanning
//!   every cell.
//! - [`StepCounts`]: a dense multiset of time steps (counts indexed by
//!   `t − base` plus a presence bitset and cached min/max), replacing
//!   the `BTreeMap<TimeStep, usize>` multisets that backed
//!   `sched_times` / `loop_times` / `blackhole_times` / the ledger's
//!   overload index. `inc`/`dec` are O(1) amortized, and the verdict
//!   queries — "any entry ≤ t?", "largest entry?" — are O(1) reads of
//!   the cached extremes.
//!
//! The arena also keeps a byte high-water mark over everything it has
//! ever owned, surfaced through `timenet.simulate` spans and the
//! engine's `PlanReport` for capacity planning.
// Dense indexed state is the module's whole point: every index below
// is minted from a `t − base` offset or a link id that construction
// bounds-checked.
#![allow(clippy::indexing_slicing)]

use crate::incremental::HopRec;
use chronus_net::{Capacity, TimeStep};

/// Word width of the occupancy rows.
const WORD_BITS: usize = u64::BITS as usize;

/// `FixedBitSet`-style bit matrix: `rows × cols` bits packed into
/// `u64` words, row-major. Rows are time steps, columns are interned
/// links; the ledger keeps one instance for "cell loaded" and one for
/// "cell overloaded" so surface sweeps touch only non-empty words.
#[derive(Clone, Debug, Default)]
pub(crate) struct BitRows {
    words: Vec<u64>,
    words_per_row: usize,
}

impl BitRows {
    /// Re-initializes for `cols` columns, recycling the word storage.
    pub fn reset(&mut self, cols: usize) {
        self.words.clear();
        self.words_per_row = cols.div_ceil(WORD_BITS);
    }

    /// Grows to at least `rows` rows (new rows all-zero).
    pub fn ensure_rows(&mut self, rows: usize) {
        let needed = rows * self.words_per_row;
        if needed > self.words.len() {
            self.words.resize(needed, 0);
        }
    }

    #[inline]
    pub fn set(&mut self, row: usize, col: usize) {
        self.words[row * self.words_per_row + col / WORD_BITS] |= 1u64 << (col % WORD_BITS);
    }

    #[inline]
    pub fn clear(&mut self, row: usize, col: usize) {
        self.words[row * self.words_per_row + col / WORD_BITS] &= !(1u64 << (col % WORD_BITS));
    }

    /// Calls `f(col)` for every set column of `row`, ascending, via
    /// word-at-a-time trailing-zeros scans.
    #[inline]
    pub fn for_each_set(&self, row: usize, mut f: impl FnMut(usize)) {
        let start = row * self.words_per_row;
        if start >= self.words.len() {
            return;
        }
        for (wi, &word) in self.words[start..start + self.words_per_row]
            .iter()
            .enumerate()
        {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * WORD_BITS + bit);
                w &= w - 1;
            }
        }
    }

    /// Number of words currently allocated (the occupancy-row size
    /// counter surfaced in traces).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    fn byte_size(&self) -> u64 {
        (self.words.capacity() * std::mem::size_of::<u64>()) as u64
    }

    fn take_storage(&mut self) -> Vec<u64> {
        self.words_per_row = 0;
        std::mem::take(&mut self.words)
    }

    fn with_storage(mut storage: Vec<u64>) -> Self {
        storage.clear();
        BitRows {
            words: storage,
            words_per_row: 0,
        }
    }
}

/// Sentinel meaning "no index cached".
const NO_IDX: usize = usize::MAX;

/// Dense multiset of time steps: counts indexed by `t − base`, a
/// presence bitset over the same indices, and cached min/max set
/// indices. Replaces the `BTreeMap<TimeStep, usize>` multisets on the
/// simulators' hot path: `inc` is O(1), `dec` is O(1) amortized (an
/// extreme falling to zero triggers a word scan toward the other
/// extreme), and the two queries the verdict path needs —
/// [`StepCounts::any_at_or_before`] and [`StepCounts::max`] — are
/// O(1) reads.
#[derive(Clone, Debug)]
pub(crate) struct StepCounts {
    base: TimeStep,
    counts: Vec<u32>,
    words: Vec<u64>,
    total: u64,
    min_idx: usize,
    max_idx: usize,
}

impl Default for StepCounts {
    fn default() -> Self {
        StepCounts {
            base: 0,
            counts: Vec::new(),
            words: Vec::new(),
            total: 0,
            min_idx: NO_IDX,
            max_idx: NO_IDX,
        }
    }
}

impl StepCounts {
    /// Empties the multiset, keeping storage.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.words.clear();
        self.total = 0;
        self.min_idx = NO_IDX;
        self.max_idx = NO_IDX;
    }

    /// `true` when no entry is present.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Index of step `t`, growing (and if needed re-basing) storage.
    fn index_for(&mut self, t: TimeStep) -> usize {
        if self.counts.is_empty() {
            self.base = t;
        }
        if t < self.base {
            // Grow at the front with doubling slack so repeated low
            // inserts amortize; word-aligned so set bits shift by
            // whole words.
            let shift = (self.base - t) as usize;
            let moved = shift.max(self.counts.len()).max(8).div_ceil(WORD_BITS) * WORD_BITS;
            self.counts.splice(0..0, std::iter::repeat_n(0, moved));
            self.words
                .splice(0..0, std::iter::repeat_n(0, moved / WORD_BITS));
            self.base -= moved as TimeStep;
            if self.min_idx != NO_IDX {
                self.min_idx += moved;
                self.max_idx += moved;
            }
        }
        let idx = (t - self.base) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        let w = idx / WORD_BITS;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        idx
    }

    /// Adds one occurrence of `t`.
    pub fn inc(&mut self, t: TimeStep) {
        let idx = self.index_for(t);
        self.counts[idx] += 1;
        self.words[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
        self.total += 1;
        if self.min_idx == NO_IDX || idx < self.min_idx {
            self.min_idx = idx;
        }
        if self.max_idx == NO_IDX || idx > self.max_idx {
            self.max_idx = idx;
        }
    }

    /// Removes one occurrence of `t`.
    pub fn dec(&mut self, t: TimeStep) {
        debug_assert!(
            t >= self.base && ((t - self.base) as usize) < self.counts.len(),
            "StepCounts out of sync"
        );
        let idx = (t - self.base) as usize;
        let cell = &mut self.counts[idx];
        debug_assert!(*cell > 0, "StepCounts out of sync");
        *cell -= 1;
        self.total -= 1;
        if *cell == 0 {
            self.words[idx / WORD_BITS] &= !(1u64 << (idx % WORD_BITS));
            if self.total == 0 {
                self.min_idx = NO_IDX;
                self.max_idx = NO_IDX;
            } else {
                if idx == self.min_idx {
                    self.min_idx = self.scan_up(idx);
                }
                if idx == self.max_idx {
                    self.max_idx = self.scan_down(idx);
                }
            }
        }
    }

    /// First set index at or above `from` (some set bit must exist).
    fn scan_up(&self, from: usize) -> usize {
        let mut w = from / WORD_BITS;
        let mut word = self.words[w] & !((1u64 << (from % WORD_BITS)) - 1);
        loop {
            if word != 0 {
                return w * WORD_BITS + (word.trailing_zeros() as usize);
            }
            w += 1;
            debug_assert!(w < self.words.len(), "StepCounts min scan ran off");
            word = self.words[w];
        }
    }

    /// Last set index at or below `from` (some set bit must exist).
    fn scan_down(&self, from: usize) -> usize {
        let mut w = from / WORD_BITS;
        let shift = from % WORD_BITS;
        let mut word = if shift == WORD_BITS - 1 {
            self.words[w]
        } else {
            self.words[w] & ((1u64 << (shift + 1)) - 1)
        };
        loop {
            if word != 0 {
                return w * WORD_BITS + (WORD_BITS - 1 - (word.leading_zeros() as usize));
            }
            debug_assert!(w > 0, "StepCounts max scan ran off");
            w -= 1;
            word = self.words[w];
        }
    }

    /// `true` iff some entry is ≤ `t` — O(1).
    pub fn any_at_or_before(&self, t: TimeStep) -> bool {
        self.total > 0 && self.base + (self.min_idx as TimeStep) <= t
    }

    /// The largest entry, if any — O(1).
    pub fn max(&self) -> Option<TimeStep> {
        (self.total > 0).then(|| self.base + (self.max_idx as TimeStep))
    }

    fn byte_size(&self) -> u64 {
        (self.counts.capacity() * std::mem::size_of::<u32>()
            + self.words.capacity() * std::mem::size_of::<u64>()) as u64
    }
}

/// The recyclable flat storage behind one simulator run: load surface,
/// occupancy/overload bit rows, visit stamps, pooled hop vectors and
/// the dense step multisets. The engine lends one arena to each
/// planning thread; every simulator construction drains it and every
/// teardown refills it, so the steady state allocates nothing and the arena's
/// byte high-water mark bounds the planner's per-thread memory.
#[derive(Debug, Default)]
pub struct SimArena {
    pub(crate) loads: Vec<Capacity>,
    pub(crate) occ: BitRows,
    pub(crate) over: BitRows,
    pub(crate) stamps: Vec<u64>,
    pub(crate) hop_bufs: Vec<Vec<HopRec>>,
    pub(crate) step_counts: Vec<StepCounts>,
    hwm_bytes: u64,
    occ_words: u64,
}

impl SimArena {
    /// Pops a pooled hop vector (empty), or a fresh one.
    pub(crate) fn take_hops(&mut self) -> Vec<HopRec> {
        let mut v = self.hop_bufs.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Pops a pooled step multiset (empty), or a fresh one.
    pub(crate) fn take_step_counts(&mut self) -> StepCounts {
        let mut s = self.step_counts.pop().unwrap_or_default();
        s.clear();
        s
    }

    /// Takes the occupancy row set, reset for `cols` columns.
    pub(crate) fn take_occ(&mut self, cols: usize) -> BitRows {
        let mut rows = BitRows::with_storage(self.occ.take_storage());
        rows.reset(cols);
        rows
    }

    /// Takes the overload row set, reset for `cols` columns.
    pub(crate) fn take_over(&mut self, cols: usize) -> BitRows {
        let mut rows = BitRows::with_storage(self.over.take_storage());
        rows.reset(cols);
        rows
    }

    /// Returns a step multiset to the pool, noting its size.
    pub(crate) fn put_step_counts(&mut self, s: StepCounts) {
        self.note_bytes(s.byte_size());
        self.step_counts.push(s);
    }

    /// Returns a hop vector to the pool. O(1) — this runs on the
    /// apply/undo hot path; byte accounting happens at teardown via
    /// [`SimArena::note_bytes`].
    pub(crate) fn put_hops(&mut self, mut v: Vec<HopRec>) {
        v.clear();
        self.hop_bufs.push(v);
    }

    /// Returns the occupancy/overload rows, noting sizes and the
    /// occupancy-word counter.
    pub(crate) fn put_rows(&mut self, occ: BitRows, over: BitRows) {
        self.occ_words = (occ.word_count() + over.word_count()) as u64;
        self.note_bytes(occ.byte_size() + over.byte_size());
        self.occ = occ;
        self.over = over;
    }

    /// Folds `bytes` plus the arena-resident buffers into the
    /// high-water mark.
    pub(crate) fn note_bytes(&mut self, bytes: u64) {
        let resident = ((self.loads.capacity() * std::mem::size_of::<Capacity>()
            + self.stamps.capacity() * std::mem::size_of::<u64>()) as u64)
            + self
                .hop_bufs
                .iter()
                .map(|v| (v.capacity() * std::mem::size_of::<HopRec>()) as u64)
                .sum::<u64>()
            + self
                .step_counts
                .iter()
                .map(StepCounts::byte_size)
                .sum::<u64>();
        self.hwm_bytes = self.hwm_bytes.max(resident + bytes);
    }

    /// Byte high-water mark over everything this arena has owned.
    pub fn high_water_bytes(&self) -> u64 {
        self.hwm_bytes
    }

    /// Occupancy words (`u64`s across both bit-row sets) the last run
    /// returned — the dense footprint of the load surface's bitmap.
    pub fn occupancy_words(&self) -> u64 {
        self.occ_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counts_multiset_semantics() {
        let mut s = StepCounts::default();
        assert!(s.is_empty());
        assert!(!s.any_at_or_before(100));
        assert_eq!(s.max(), None);

        s.inc(5);
        s.inc(5);
        s.inc(9);
        assert!(!s.is_empty());
        assert_eq!(s.max(), Some(9));
        assert!(s.any_at_or_before(5));
        assert!(!s.any_at_or_before(4));

        s.dec(5);
        assert!(s.any_at_or_before(5), "one occurrence of 5 remains");
        s.dec(5);
        assert!(!s.any_at_or_before(8));
        assert!(s.any_at_or_before(9));
        assert_eq!(s.max(), Some(9));
        s.dec(9);
        assert!(s.is_empty());
        assert_eq!(s.max(), None);
    }

    #[test]
    fn step_counts_negative_and_rebase() {
        let mut s = StepCounts::default();
        s.inc(3);
        s.inc(-7); // forces a front re-base
        assert!(s.any_at_or_before(-7));
        assert!(!s.any_at_or_before(-8));
        assert_eq!(s.max(), Some(3));
        s.inc(-200);
        assert_eq!(s.max(), Some(3));
        assert!(s.any_at_or_before(-200));
        s.dec(-200);
        s.dec(-7);
        assert!(s.any_at_or_before(3));
        assert!(!s.any_at_or_before(2));
        s.dec(3);
        assert!(s.is_empty());
    }

    #[test]
    fn step_counts_extreme_rescans_cross_words() {
        let mut s = StepCounts::default();
        // Entries far apart so min/max live in different words.
        for t in [0, 70, 140, 700] {
            s.inc(t);
        }
        s.dec(0);
        assert!(!s.any_at_or_before(69));
        assert!(s.any_at_or_before(70));
        s.dec(700);
        assert_eq!(s.max(), Some(140));
        s.dec(140);
        assert_eq!(s.max(), Some(70));
        s.dec(70);
        assert!(s.is_empty());
    }

    #[test]
    fn step_counts_matches_btreemap_reference() {
        use std::collections::BTreeMap;
        // Deterministic pseudo-random op sequence.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut dense = StepCounts::default();
        let mut reference: BTreeMap<TimeStep, usize> = BTreeMap::new();
        for _ in 0..4000 {
            let t = (next() % 301) as TimeStep - 100;
            if next() % 3 != 0 || reference.is_empty() {
                dense.inc(t);
                *reference.entry(t).or_insert(0) += 1;
            } else {
                // Remove a random present key.
                let keys: Vec<TimeStep> = reference.keys().copied().collect();
                let k = keys[(next() as usize) % keys.len()];
                dense.dec(k);
                match reference.get_mut(&k) {
                    Some(n) if *n > 1 => *n -= 1,
                    _ => {
                        reference.remove(&k);
                    }
                }
            }
            let probe = (next() % 301) as TimeStep - 100;
            assert_eq!(
                dense.any_at_or_before(probe),
                reference.range(..=probe).next().is_some(),
                "any_at_or_before({probe}) diverged"
            );
            assert_eq!(
                dense.max(),
                reference.keys().next_back().copied(),
                "max diverged"
            );
            assert_eq!(dense.is_empty(), reference.is_empty());
        }
    }

    #[test]
    fn bit_rows_set_clear_scan() {
        let mut rows = BitRows::default();
        rows.reset(130); // 3 words per row
        rows.ensure_rows(4);
        rows.set(0, 0);
        rows.set(0, 64);
        rows.set(0, 129);
        rows.set(3, 7);
        let mut seen = Vec::new();
        rows.for_each_set(0, |c| seen.push(c));
        assert_eq!(seen, vec![0, 64, 129]);
        rows.clear(0, 64);
        seen.clear();
        rows.for_each_set(0, |c| seen.push(c));
        assert_eq!(seen, vec![0, 129]);
        seen.clear();
        rows.for_each_set(2, |c| seen.push(c));
        assert!(seen.is_empty());
        seen.clear();
        rows.for_each_set(3, |c| seen.push(c));
        assert_eq!(seen, vec![7]);
        assert_eq!(rows.word_count(), 12);
    }

    #[test]
    fn arena_pools_round_trip_and_track_high_water() {
        let mut arena = SimArena::default();
        assert_eq!(arena.high_water_bytes(), 0);
        let mut hops = arena.take_hops();
        hops.reserve(64);
        arena.put_hops(hops);
        arena.note_bytes(0);
        assert!(arena.high_water_bytes() >= 64 * std::mem::size_of::<HopRec>() as u64);
        let hwm = arena.high_water_bytes();
        let h2 = arena.take_hops();
        assert!(h2.capacity() >= 64, "pooled buffer is recycled");
        arena.put_hops(h2);
        assert_eq!(arena.high_water_bytes(), hwm, "high-water is monotone");

        let mut sc = arena.take_step_counts();
        sc.inc(4);
        arena.put_step_counts(sc);
        let sc2 = arena.take_step_counts();
        assert!(sc2.is_empty(), "recycled multiset comes back empty");
        arena.put_step_counts(sc2);

        let mut occ = arena.take_occ(100);
        occ.ensure_rows(10);
        occ.set(2, 99);
        let over = arena.take_over(100);
        arena.put_rows(occ, over);
        assert!(arena.occupancy_words() >= 20);
    }
}
