//! Update identities and the window slab.
//!
//! BAR Gossip streams *updates*: each round the broadcaster releases a
//! batch, and every update must reach a node within `lifetime` rounds of
//! its release to be useful (frames of a video stream). A node's holdings
//! are therefore a *sliding window* of per-release-round bitmasks.
//!
//! Every window advances in lockstep, so the simulators keep them all in
//! one [`WindowSlab`]: a single `Vec<u64>` of `rows × lifetime` masks
//! with one shared geometry — the oldest live release round, the number
//! of live rounds, and `head`, the physical slot of the oldest round in
//! every row. A row is a ring of `lifetime` slots; its live rounds are
//! walked as at most two contiguous runs (`head..lifetime`, then
//! `0..head`), like `VecDeque::as_slices`, so no mask access pays a `%`.
//! Two rows of one slab always cover the same release rounds: alignment
//! is a property of the slab, not of the rows.
//!
//! Advancing expires the oldest round of every row at once. Its physical
//! slot is the one the new round takes, so callers [`WindowSlab::take`]
//! the expiring mask of every row that may hold anything (for delivery
//! accounting), and the slot is zero and ready when
//! [`WindowSlab::advance`] bumps `head`. A row nobody has written to is
//! all zero, which is what an empty window advanced in lockstep holds.
//!
//! Beside the masks the slab keeps one *occupancy bit* per row (1M rows
//! take 128 KB, which stays in cache where the masks do not). Every write
//! sets it — an insert, a union from a source that holds something — and
//! [`WindowSlab::clear_row`] clears it. The invariant is one-way: **a
//! clear bit means the row is all zero**. A set bit promises nothing: it
//! stays set when expiry empties a row, and then the kernels fall back to
//! reading the masks. `is_empty`, `missing_from`, `missing_in_age_band`,
//! `wanted_from_into`, `union` and `take` answer for a clear row without
//! touching its masks, so a row nobody wrote to (a fresh flash-crowd node)
//! costs a bit test, not a random cache miss, in every exchange it takes
//! part in and in every advance. Where every row holds something the bits
//! are pure overhead: one fetch and test per kernel call.

use netsim::Round;
use std::ops::Range;

/// A single update's identity: the round it was released in and its slot
/// within that round's batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UpdateId {
    /// Release round.
    pub round: Round,
    /// Slot within the round's batch (`0..updates_per_round`).
    pub slot: u32,
}

impl std::fmt::Display for UpdateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}.{}", self.round, self.slot)
    }
}

/// The maximum batch size a window supports (one `u64` mask per round).
pub const MAX_UPDATES_PER_ROUND: u32 = 64;

/// Lockstep sliding windows of live-update holdings, one row each.
///
/// Masks are indexed by release round; the window covers the most recent
/// `lifetime` release rounds. Updates outside the window have expired
/// and are dropped.
///
/// ```
/// use bar_gossip::update::{UpdateId, WindowSlab};
/// let mut w = WindowSlab::new(2, 10, 3); // 2 rows, 10 updates/round, lifetime 3
/// w.advance(0);
/// w.insert(1, UpdateId { round: 0, slot: 4 });
/// assert!(w.row(1).contains(UpdateId { round: 0, slot: 4 }));
/// assert_eq!(w.row(0).missing_from(w.row(1)), 1);
/// w.advance(1);
/// w.advance(2);
/// let (expiring, slot) = w.expiring().expect("three live rounds");
/// assert_eq!(expiring, 0);
/// assert_eq!(w.take(1, slot), 1 << 4);
/// w.advance(3); // round 0 expires
/// assert!(!w.row(1).contains(UpdateId { round: 0, slot: 4 }));
/// ```
#[derive(Debug, Clone)]
pub struct WindowSlab {
    /// `rows × lifetime` masks; row `r` owns `r*lifetime..(r+1)*lifetime`.
    masks: Vec<u64>,
    /// One bit per row, bit `r % 64` of word `r / 64`; clear means row
    /// `r` is all zero (set means nothing either way).
    occupied: Vec<u64>,
    per_round: u32,
    lifetime: usize,
    /// Release round of the oldest live mask.
    start: Round,
    /// Live release rounds (`lifetime` once the window is full).
    len: usize,
    /// Physical slot of the oldest live round, in every row.
    head: usize,
}

impl WindowSlab {
    /// `rows` empty windows for batches of `per_round` updates with the
    /// given `lifetime` in rounds.
    ///
    /// # Panics
    ///
    /// Panics if `per_round` is 0 or exceeds [`MAX_UPDATES_PER_ROUND`], or
    /// if `lifetime` is 0.
    pub fn new(rows: usize, per_round: u32, lifetime: u32) -> Self {
        assert!(
            (1..=MAX_UPDATES_PER_ROUND).contains(&per_round),
            "per_round must be in 1..={MAX_UPDATES_PER_ROUND}"
        );
        assert!(lifetime > 0, "lifetime must be positive");
        WindowSlab {
            masks: vec![0; rows * lifetime as usize],
            occupied: vec![0; rows.div_ceil(64)],
            per_round,
            lifetime: lifetime as usize,
            start: 0,
            len: 0,
            head: 0,
        }
    }

    /// Release round of the oldest live mask (0 before any expiry).
    pub fn start(&self) -> Round {
        self.start
    }

    /// The release round the next [`WindowSlab::advance`] expires and
    /// the physical slot it recycles, once the window is full.
    pub fn expiring(&self) -> Option<(Round, usize)> {
        (self.len == self.lifetime).then_some((self.start, self.head))
    }

    /// Whether `row`'s occupancy bit is set (if not, the row is all
    /// zero).
    #[inline]
    fn occupied(&self, row: usize) -> bool {
        self.occupied[row / 64] & (1 << (row % 64)) != 0
    }

    /// Set `row`'s occupancy bit (before writing to its masks).
    #[inline]
    fn occupy(&mut self, row: usize) {
        self.occupied[row / 64] |= 1 << (row % 64);
    }

    /// Read and zero `row`'s mask at physical `slot` (from
    /// [`WindowSlab::expiring`]). An unoccupied row answers 0 without a
    /// read, and a zero mask is not written back, so rows nobody wrote to
    /// stay on untouched pages. The occupancy bit stays set even if this
    /// empties the row: clearing it would mean rescanning the row.
    // lint: hot-loop
    #[inline]
    pub fn take(&mut self, row: usize, slot: usize) -> u64 {
        if !self.occupied(row) {
            return 0;
        }
        let mask = &mut self.masks[row * self.lifetime + slot];
        let taken = *mask;
        if taken != 0 {
            *mask = 0;
        }
        taken
    }

    /// Open release round `round`. Once the window is full, the oldest
    /// round expires and its slot becomes the new round's: every row
    /// must hold zero there by now, so callers [`WindowSlab::take`] it
    /// from each row that may hold anything first.
    ///
    /// # Panics
    ///
    /// Panics if rounds are advanced out of order (they run sequentially
    /// from 0).
    pub fn advance(&mut self, round: Round) {
        let expected = self.start + self.len as Round;
        assert_eq!(
            round, expected,
            "advance({round}) out of order, expected {expected}"
        );
        if self.len < self.lifetime {
            // Slots `len..lifetime` have never been written.
            self.len += 1;
            return;
        }
        debug_assert!(
            self.masks
                .iter()
                .skip(self.head)
                .step_by(self.lifetime)
                .all(|&m| m == 0),
            "an expiring slot was not taken before the advance"
        );
        self.head += 1;
        if self.head == self.lifetime {
            self.head = 0;
        }
        self.start += 1;
    }

    /// Read-only view of `row`.
    #[inline]
    pub fn row(&self, row: usize) -> WindowRow<'_> {
        let base = row * self.lifetime;
        WindowRow {
            slab: self,
            masks: &self.masks[base..base + self.lifetime],
            occupied: self.occupied(row),
        }
    }

    /// Physical slot of release round `round`, if it is live.
    #[inline]
    fn slot_of(&self, round: Round) -> Option<usize> {
        let idx = round.checked_sub(self.start)? as usize;
        if idx >= self.len {
            return None;
        }
        let slot = self.head + idx;
        Some(if slot >= self.lifetime {
            slot - self.lifetime
        } else {
            slot
        })
    }

    /// Physical slots of the live rounds aged `min_age..=max_age` at
    /// `now` (the newest round has age 0), oldest first, as two
    /// contiguous runs of the ring (the second is empty unless the band
    /// wraps), each with the release round of its first slot.
    #[inline]
    fn band(&self, now: Round, min_age: u32, max_age: u32) -> [(Round, Range<usize>); 2] {
        // Live index `i` (release round `start + i`) has age `oldest - i`.
        let oldest = now - self.start;
        let lo = oldest
            .saturating_sub(Round::from(max_age))
            .min(self.len as Round) as usize;
        let hi = match oldest.checked_sub(Round::from(min_age)) {
            Some(newest) => (newest + 1).min(self.len as Round) as usize,
            None => 0,
        }
        .max(lo);
        let first = self.head + lo;
        let (first, end) = if first >= self.lifetime {
            (first - self.lifetime, first - self.lifetime + (hi - lo))
        } else {
            (first, first + (hi - lo))
        };
        let start = self.start + lo as Round;
        if end <= self.lifetime {
            [(start, first..end), (start, 0..0)]
        } else {
            let wrapped = (self.lifetime - first) as Round;
            [
                (start, first..self.lifetime),
                (start + wrapped, 0..end - self.lifetime),
            ]
        }
    }

    /// Insert a live update into `row`; returns `true` if newly
    /// inserted, `false` if already held or expired (expired inserts are
    /// ignored).
    ///
    /// # Panics
    ///
    /// Panics if `id.slot >= per_round`.
    // lint: hot-loop
    #[inline]
    pub fn insert(&mut self, row: usize, id: UpdateId) -> bool {
        assert!(id.slot < self.per_round, "slot {} out of range", id.slot);
        let Some(slot) = self.slot_of(id.round) else {
            return false;
        };
        self.occupy(row);
        let mask = &mut self.masks[row * self.lifetime + slot];
        let bit = 1u64 << id.slot;
        let had = *mask & bit != 0;
        *mask |= bit;
        !had
    }

    /// Union row `src` into row `dst` (pooled attacker knowledge and
    /// out-of-band deliveries). A no-op from an unoccupied source.
    // lint: hot-loop
    pub fn union(&mut self, dst: usize, src: usize) {
        if dst == src || !self.occupied(src) {
            return;
        }
        self.occupy(dst);
        let l = self.lifetime;
        let (d, s) = if dst < src {
            let (lo, hi) = self.masks.split_at_mut(src * l);
            (&mut lo[dst * l..(dst + 1) * l], &hi[..l])
        } else {
            let (lo, hi) = self.masks.split_at_mut(dst * l);
            (&mut hi[..l], &lo[src * l..(src + 1) * l])
        };
        for (mine, theirs) in d.iter_mut().zip(s) {
            *mine |= theirs;
        }
    }

    /// Drop every update `row` holds; the row stays aligned with the
    /// slab (a crash's state loss, the pool's per-round rebuild).
    pub fn clear_row(&mut self, row: usize) {
        if !self.occupied(row) {
            return; // all zero already
        }
        self.occupied[row / 64] &= !(1 << (row % 64));
        let base = row * self.lifetime;
        self.masks[base..base + self.lifetime].fill(0);
    }
}

/// A read-only view of one [`WindowSlab`] row. The set operations take a
/// second row of the *same* slab, which is what makes them aligned.
#[derive(Debug, Clone, Copy)]
pub struct WindowRow<'a> {
    slab: &'a WindowSlab,
    masks: &'a [u64],
    /// The row's occupancy bit: if `false`, every mask is zero and the
    /// kernels answer without reading `masks`.
    occupied: bool,
}

impl<'a> WindowRow<'a> {
    /// Release round of the oldest live mask.
    pub fn start(self) -> Round {
        self.slab.start
    }

    /// Updates per release round.
    pub fn per_round(self) -> u32 {
        self.slab.per_round
    }

    /// Raw mask for a release round (`None` if outside the window).
    #[inline]
    pub fn mask(self, round: Round) -> Option<u64> {
        self.slab.slot_of(round).map(|s| self.masks[s])
    }

    /// Membership test (expired updates are never contained).
    pub fn contains(self, id: UpdateId) -> bool {
        id.slot < self.slab.per_round
            && self.mask(id.round).is_some_and(|m| m & (1 << id.slot) != 0)
    }

    /// Number of live updates held.
    pub fn len(self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Every live round's release round and mask, oldest first.
    pub fn live(self) -> impl Iterator<Item = (Round, u64)> + 'a {
        // The newest live round has age 0.
        let newest = (self.slab.start + self.slab.len as Round).saturating_sub(1);
        let [(a0, a), (b0, b)] = self.slab.band(newest, 0, u32::MAX);
        let masks = self.masks;
        (a0..)
            .zip(masks[a].iter().copied())
            .chain((b0..).zip(masks[b].iter().copied()))
    }

    /// The row's occupancy bit. `false` guarantees the row holds
    /// nothing; `true` guarantees nothing (expiry may have emptied it).
    pub fn is_occupied(self) -> bool {
        self.occupied
    }

    /// `true` if no update is held: a bit test for an unoccupied row,
    /// else a scan. Slots outside the live rounds are always zero, so the
    /// scan covers the whole row.
    #[inline]
    pub fn is_empty(self) -> bool {
        !self.occupied || self.masks.iter().all(|&m| m == 0)
    }

    /// Panics unless `other` is a row of the same slab: only then do its
    /// rounds line up with these.
    #[inline]
    fn check_aligned(self, other: WindowRow<'a>) {
        assert!(
            std::ptr::eq(self.slab, other.slab),
            "rows of different slabs are not aligned"
        );
    }

    /// The masks of this row and `other` for the live rounds aged
    /// `min_age..=max_age` at `now`, oldest first, as at most two
    /// contiguous runs, each with the release round of its first mask.
    #[inline]
    fn band(
        self,
        other: WindowRow<'a>,
        now: Round,
        min_age: u32,
        max_age: u32,
    ) -> impl Iterator<Item = (Round, &'a [u64], &'a [u64])> {
        self.check_aligned(other);
        let (mine, theirs) = (self.masks, other.masks);
        self.slab
            .band(now, min_age, max_age)
            .into_iter()
            .map(move |(first, run)| (first, &mine[run.clone()], &theirs[run]))
    }

    /// Number of live updates in `other` that this row lacks. Slots
    /// outside the live rounds are zero in every row, so the count runs
    /// over the whole row, in physical order.
    ///
    /// # Panics
    ///
    /// Panics if `other` is a row of a different slab.
    // lint: hot-loop
    #[inline]
    pub fn missing_from(self, other: WindowRow<'a>) -> usize {
        self.check_aligned(other);
        if !other.occupied {
            return 0;
        }
        if !self.occupied {
            return other.len();
        }
        self.masks
            .iter()
            .zip(other.masks)
            .map(|(&m, &t)| (t & !m).count_ones() as usize)
            .sum()
    }

    /// The oldest `limit` updates in `other` that this row lacks,
    /// restricted to updates of age `min_age..=max_age` (age in rounds
    /// relative to `now`, where the newest round has age 0), into `out`
    /// (cleared first, so hot loops reuse one buffer).
    ///
    /// "Oldest first" models nodes prioritising updates closest to
    /// expiry.
    // lint: hot-loop
    pub fn wanted_from_into(
        self,
        other: WindowRow<'a>,
        now: Round,
        limit: usize,
        min_age: u32,
        max_age: u32,
        out: &mut Vec<UpdateId>,
    ) {
        out.clear();
        if limit == 0 || !other.occupied {
            return;
        }
        for (first, mine, theirs) in self.band(other, now, min_age, max_age) {
            for (i, (&m, &t)) in mine.iter().zip(theirs).enumerate() {
                let round = first + i as Round;
                let mut want = t & !m;
                while want != 0 {
                    out.push(UpdateId {
                        round,
                        slot: want.trailing_zeros(),
                    });
                    if out.len() == limit {
                        return;
                    }
                    want &= want - 1;
                }
            }
        }
    }

    /// Count of updates in `other` missing from this row within the age
    /// band `min_age..=max_age`. An unoccupied row lacks all of `other`'s
    /// band, so only `other` is read.
    // lint: hot-loop
    pub fn missing_in_age_band(
        self,
        other: WindowRow<'a>,
        now: Round,
        min_age: u32,
        max_age: u32,
    ) -> usize {
        if !self.occupied {
            self.check_aligned(other);
            let mut n = 0;
            for (_, run) in self.slab.band(now, min_age, max_age) {
                n += other.masks[run]
                    .iter()
                    .map(|m| m.count_ones() as usize)
                    .sum::<usize>();
            }
            return n;
        }
        self.band(other, now, min_age, max_age)
            .flat_map(|(_, mine, theirs)| mine.iter().zip(theirs))
            .map(|(&m, &t)| (t & !m).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rows` windows advanced through round `upto`, expiring nothing
    /// held (the rows are empty until a test inserts).
    fn slab(rows: usize, per_round: u32, lifetime: u32, upto: Round) -> WindowSlab {
        let mut w = WindowSlab::new(rows, per_round, lifetime);
        for t in 0..=upto {
            advance(&mut w, t);
        }
        w
    }

    /// Advance every row, returning each row's expired mask.
    fn advance(w: &mut WindowSlab, t: Round) -> Option<(Round, Vec<u64>)> {
        let expired = w.expiring().map(|(r, slot)| {
            let rows = w.masks.len() / w.lifetime;
            (r, (0..rows).map(|i| w.take(i, slot)).collect())
        });
        w.advance(t);
        expired
    }

    #[test]
    fn insert_contains_roundtrip() {
        let mut w = slab(1, 10, 3, 0);
        let id = UpdateId { round: 0, slot: 7 };
        assert!(w.insert(0, id));
        assert!(!w.insert(0, id));
        assert!(w.row(0).contains(id));
        assert!(!w.row(0).contains(UpdateId { round: 0, slot: 8 }));
        assert_eq!(w.row(0).len(), 1);
    }

    #[test]
    fn advance_expires_oldest() {
        let mut w = slab(1, 4, 2, 1);
        w.insert(0, UpdateId { round: 0, slot: 1 });
        w.insert(0, UpdateId { round: 1, slot: 2 });
        let expired = advance(&mut w, 2);
        assert_eq!(expired, Some((0, vec![0b10])));
        assert!(!w.row(0).contains(UpdateId { round: 0, slot: 1 }));
        assert!(w.row(0).contains(UpdateId { round: 1, slot: 2 }));
        assert_eq!(w.start(), 1);
    }

    #[test]
    fn ring_wraps_in_release_order() {
        // Past several wraps, the live masks still come out oldest first
        // and the recycled slot starts empty.
        let mut w = slab(2, 8, 3, 6); // live rounds 4..=6, head mid-ring
        for r in 4..=6u64 {
            w.insert(
                1,
                UpdateId {
                    round: r,
                    slot: r as u32,
                },
            );
        }
        let mut out = Vec::new();
        w.row(0)
            .wanted_from_into(w.row(1), 6, 10, 0, u32::MAX, &mut out);
        let rounds: Vec<Round> = out.iter().map(|u| u.round).collect();
        assert_eq!(rounds, vec![4, 5, 6]);
        assert_eq!(advance(&mut w, 7), Some((4, vec![0, 1 << 4])));
        assert_eq!(w.row(1).mask(7), Some(0), "the new round starts empty");
        assert_eq!(w.row(1).len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn advance_must_be_sequential() {
        let mut w = WindowSlab::new(1, 4, 2);
        w.advance(1);
    }

    #[test]
    fn expired_insert_is_ignored() {
        let mut w = slab(1, 4, 2, 3);
        assert!(!w.insert(0, UpdateId { round: 0, slot: 0 }));
        assert!(!w.row(0).contains(UpdateId { round: 0, slot: 0 }));
        assert_eq!(w.row(0).mask(0), None);
    }

    #[test]
    #[should_panic(expected = "slot")]
    fn insert_validates_slot() {
        let mut w = slab(1, 4, 2, 0);
        w.insert(0, UpdateId { round: 0, slot: 4 });
    }

    #[test]
    fn missing_from_counts() {
        let mut w = slab(2, 8, 2, 1);
        w.insert(1, UpdateId { round: 0, slot: 0 });
        w.insert(1, UpdateId { round: 1, slot: 3 });
        w.insert(0, UpdateId { round: 1, slot: 3 });
        assert_eq!(w.row(0).missing_from(w.row(1)), 1);
        assert_eq!(w.row(1).missing_from(w.row(0)), 0);
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn rows_of_different_slabs_panic() {
        let a = slab(1, 8, 2, 1);
        let b = slab(1, 8, 2, 2);
        let _ = a.row(0).missing_from(b.row(0));
    }

    #[test]
    fn wanted_from_is_oldest_first_and_limited() {
        let mut w = slab(2, 8, 4, 3); // live rounds 0..=3, now = 3
        for (r, s) in [(0u64, 1u32), (1, 2), (2, 3), (3, 4)] {
            w.insert(1, UpdateId { round: r, slot: s });
        }
        let want = |w: &WindowSlab, limit, min_age, max_age| {
            let mut out = Vec::new();
            w.row(0)
                .wanted_from_into(w.row(1), 3, limit, min_age, max_age, &mut out);
            out
        };
        assert_eq!(
            want(&w, 10, 0, u32::MAX),
            vec![
                UpdateId { round: 0, slot: 1 },
                UpdateId { round: 1, slot: 2 },
                UpdateId { round: 2, slot: 3 },
                UpdateId { round: 3, slot: 4 },
            ]
        );
        let limited = want(&w, 2, 0, u32::MAX);
        assert_eq!(limited.len(), 2);
        assert_eq!(limited[0].round, 0);
        // Age bands: only "old" updates (age >= 2) => rounds 0 and 1.
        let old = want(&w, 10, 2, u32::MAX);
        assert_eq!(old.len(), 2);
        assert!(old.iter().all(|u| u.round <= 1));
        // Only "recent" (age <= 1) => rounds 2 and 3.
        let recent = want(&w, 10, 0, 1);
        assert_eq!(recent.len(), 2);
        assert!(recent.iter().all(|u| u.round >= 2));
        w.insert(0, UpdateId { round: 0, slot: 1 });
        assert_eq!(want(&w, 10, 0, u32::MAX).len(), 3);
    }

    #[test]
    fn wanted_from_into_reuses_buffer_and_clears() {
        let mut w = slab(2, 8, 4, 3);
        w.insert(1, UpdateId { round: 1, slot: 2 });
        let mut buf = vec![UpdateId { round: 0, slot: 0 }; 5]; // stale content
        w.row(0)
            .wanted_from_into(w.row(1), 3, 10, 0, u32::MAX, &mut buf);
        assert_eq!(buf, vec![UpdateId { round: 1, slot: 2 }]);
    }

    #[test]
    fn clear_row_keeps_alignment() {
        let mut w = slab(2, 8, 3, 4);
        w.insert(0, UpdateId { round: 3, slot: 1 });
        w.insert(1, UpdateId { round: 3, slot: 2 });
        let start = w.start();
        w.clear_row(0);
        assert!(w.row(0).is_empty());
        assert_eq!(w.row(1).len(), 1, "other rows untouched");
        assert_eq!(w.start(), start, "clear preserves window alignment");
        assert!(w.insert(0, UpdateId { round: 4, slot: 0 }), "still usable");
        advance(&mut w, 5); // alignment intact: sequential advance still works
    }

    #[test]
    fn missing_in_age_band_matches_wanted() {
        let mut w = slab(2, 8, 4, 3);
        for (r, s) in [(0u64, 1u32), (2, 3)] {
            w.insert(1, UpdateId { round: r, slot: s });
        }
        let (a, b) = (w.row(0), w.row(1));
        assert_eq!(a.missing_in_age_band(b, 3, 2, u32::MAX), 1);
        assert_eq!(a.missing_in_age_band(b, 3, 0, 1), 1);
        assert_eq!(a.missing_in_age_band(b, 3, 0, u32::MAX), 2);
    }

    #[test]
    fn union_merges() {
        let mut w = slab(2, 8, 2, 1);
        w.insert(0, UpdateId { round: 0, slot: 0 });
        w.insert(1, UpdateId { round: 1, slot: 1 });
        w.union(0, 1);
        assert_eq!(w.row(0).len(), 2);
        assert!(w.row(0).contains(UpdateId { round: 1, slot: 1 }));
        w.union(1, 0);
        assert_eq!(w.row(1).len(), 2, "union works in both directions");
    }

    #[test]
    fn union_from_an_empty_source_leaves_the_destination_clear() {
        let mut w = slab(3, 8, 2, 1);
        w.union(0, 1);
        assert!(!w.row(0).is_occupied(), "nothing was written");
        assert!(w.row(0).is_empty());
        // A held source occupies the destination, an empty one not.
        w.insert(2, UpdateId { round: 1, slot: 5 });
        w.union(0, 2);
        assert!(w.row(0).is_occupied());
        w.union(1, 0);
        w.union(1, 2);
        assert_eq!(w.row(1).len(), 1);
        w.clear_row(2);
        w.union(2, 1);
        assert_eq!(w.row(2).mask(1), Some(1 << 5));
    }

    #[test]
    fn clear_row_clears_the_occupancy_bit() {
        let mut w = slab(2, 8, 3, 2);
        assert!(!w.row(0).is_occupied(), "a new row is unoccupied");
        w.insert(0, UpdateId { round: 2, slot: 3 });
        assert!(w.row(0).is_occupied());
        w.clear_row(0);
        assert!(!w.row(0).is_occupied());
        assert!(w.row(0).is_empty());
        assert_eq!(w.row(0).mask(2), Some(0));
        // Clearing an unoccupied row is a no-op.
        w.clear_row(1);
        assert!(!w.row(1).is_occupied());
        // An expired insert writes nothing, so it occupies nothing.
        assert!(!w.insert(1, UpdateId { round: 9, slot: 0 }));
        assert!(!w.row(1).is_occupied());
    }

    #[test]
    fn row_emptied_by_expiry_keeps_its_bit_and_answers_correctly() {
        let mut w = slab(2, 8, 2, 1);
        w.insert(0, UpdateId { round: 0, slot: 1 });
        w.insert(1, UpdateId { round: 1, slot: 2 });
        assert_eq!(advance(&mut w, 2), Some((0, vec![0b10, 0])));
        let (a, b) = (w.row(0), w.row(1));
        assert!(a.is_occupied(), "expiry does not rescan the row");
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        assert_eq!(a.missing_from(b), 1);
        assert_eq!(b.missing_from(a), 0);
        assert_eq!(a.missing_in_age_band(b, 2, 0, u32::MAX), 1);
        assert_eq!(b.missing_in_age_band(a, 2, 0, u32::MAX), 0);
        let mut out = Vec::new();
        b.wanted_from_into(a, 2, 10, 0, u32::MAX, &mut out);
        assert!(out.is_empty());
        a.wanted_from_into(b, 2, 10, 0, u32::MAX, &mut out);
        assert_eq!(out, vec![UpdateId { round: 1, slot: 2 }]);
        // Its masks are zero, so taking its next expiry reads 0.
        assert_eq!(advance(&mut w, 3), Some((1, vec![0, 1 << 2])));
    }

    #[test]
    fn unoccupied_rows_answer_without_their_masks() {
        // Row 0 unoccupied, row 1 holding three updates in two rounds.
        let mut w = slab(2, 8, 3, 2);
        for (round, slot) in [(0u64, 0u32), (0, 1), (2, 7)] {
            w.insert(1, UpdateId { round, slot });
        }
        let (a, b) = (w.row(0), w.row(1));
        assert!(!a.is_occupied() && b.is_occupied());
        assert_eq!(a.missing_from(b), 3);
        assert_eq!(b.missing_from(a), 0);
        assert_eq!(a.missing_in_age_band(b, 2, 2, u32::MAX), 2);
        assert_eq!(a.missing_in_age_band(b, 2, 0, 1), 1);
        assert_eq!(b.missing_in_age_band(a, 2, 0, u32::MAX), 0);
        let mut out = vec![UpdateId { round: 0, slot: 0 }];
        b.wanted_from_into(a, 2, 10, 0, u32::MAX, &mut out);
        assert!(out.is_empty(), "the buffer is cleared");
        assert_eq!(w.take(0, 0), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", UpdateId { round: 3, slot: 1 }), "u3.1");
    }

    #[test]
    #[should_panic(expected = "per_round")]
    fn per_round_validated() {
        WindowSlab::new(1, 65, 2);
    }

    #[test]
    fn window_shorter_than_lifetime_keeps_everything() {
        let mut w = WindowSlab::new(1, 4, 5);
        for t in 0..3 {
            assert_eq!(advance(&mut w, t), None);
        }
        assert_eq!(w.start(), 0);
    }
}
