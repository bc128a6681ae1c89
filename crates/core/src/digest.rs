//! Digest-exchange primitives: the summaries a digest-first gossip
//! round trades before transferring only the diff.
//!
//! Full-window exchange ships every update a peer holds, so a
//! lotus-eater's silent withholding is visible the moment a transfer
//! round comes up short. The realistic protocol shape at scale is
//! *advertise-then-transfer*: peers first swap a cheap summary of what
//! they hold, then request and ship only the difference. Bandwidth
//! scales with the diff — and withholding becomes undetectable until
//! the transfer leg, which is exactly the surface the
//! advertise-then-withhold (`poison`) attack exploits: advertise a
//! truthful digest, then selectively fail to deliver what was asked.
//!
//! Two summary shapes are provided:
//!
//! * [`BloomDigest`] — a fixed-size bloom filter over packed update
//!   ids. Probabilistic: never a false negative, false positives at a
//!   rate set by the bits/hashes/load trade-off
//!   ([`BloomDigest::expected_fp_rate`]). False positives read as
//!   *advertised-but-undelivered* on the wire, which is what gives a
//!   low-rate poisoner plausible deniability.
//! * [`region_hash`] — an exact order-free hash of one region's
//!   membership mask. Peers compare per-region hashes and exchange the
//!   raw masks only for regions that differ: zero false positives, so
//!   an audit of undelivered ids has perfect precision.
//!
//! A simulator that needs many advertisements of one live window does
//! not have to build a filter per advertisement: [`BloomIndex`] inverts
//! the window's probe positions once and then answers
//! [`BloomDigest::contains`] for any held subset exactly, at the cost of
//! the probes alone.
//!
//! Hashing is deterministic splitmix ([`netsim::rng::split_mix64`])
//! with fixed internal seeds — the same ids produce the same digest on
//! every machine and thread count, which the determinism gate relies
//! on. Probe and insert are allocation-free; the only allocation is the
//! word vector at construction.

use netsim::rng::split_mix64;

/// Domain-separation seed for the first bloom probe stream.
const BLOOM_SEED_A: u64 = 0x6c6f_7475_735f_6469; // "lotus_di"
/// Domain-separation seed for the second bloom probe stream.
const BLOOM_SEED_B: u64 = 0x6765_7374_5f62_6c6f; // "gest_blo"
/// Domain-separation seed for [`region_hash`].
const REGION_SEED: u64 = 0x7265_6769_6f6e_5f68; // "region_h"

/// A fixed-size bloom filter over packed `u64` update ids.
///
/// Each key sets or tests its [`bloom_positions`], so a probe costs two
/// splitmix mixes regardless of `hashes`. Membership never
/// false-negatives; [`BloomDigest::expected_fp_rate`] estimates the
/// false-positive rate from the realized fill ratio.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomDigest {
    words: Vec<u64>,
    bits: u32,
    hashes: u32,
    inserted: u32,
}

impl BloomDigest {
    /// An empty digest of `bits` filter bits probed `hashes` times per
    /// key.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `hashes` is zero (configs are validated
    /// upstream; this is the last line of defense).
    pub fn new(bits: u32, hashes: u32) -> Self {
        assert!(bits > 0, "bloom digest wants at least one bit");
        assert!(hashes > 0, "bloom digest wants at least one hash");
        BloomDigest {
            words: vec![0; (bits as usize).div_ceil(64)],
            bits,
            hashes,
            inserted: 0,
        }
    }

    /// Filter width in bits (the `digest_bits` knob).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Probes per key (the `digest_hashes` knob).
    pub fn hashes(&self) -> u32 {
        self.hashes
    }

    /// Keys inserted since the last [`BloomDigest::clear`].
    pub fn inserted(&self) -> u32 {
        self.inserted
    }

    /// Size of this digest on the wire, in bytes.
    pub fn size_bytes(&self) -> u64 {
        filter_bytes(self.bits)
    }

    /// Reset to empty without releasing the word storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.inserted = 0;
    }

    /// The bit positions this digest probes for `key`.
    #[inline]
    pub fn positions(&self, key: u64) -> BloomPositions {
        bloom_positions(self.bits, self.hashes, key)
    }

    /// Insert a packed update id.
    // lint: hot-loop
    #[inline]
    pub fn insert(&mut self, key: u64) {
        for bit in self.positions(key) {
            self.words[bit / 64] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Whether `key` may be in the set. `true` for every inserted key
    /// (no false negatives); spuriously `true` for an absent key at the
    /// false-positive rate.
    // lint: hot-loop
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.positions(key)
            .all(|bit| self.words[bit / 64] & (1u64 << (bit % 64)) != 0)
    }

    /// Fraction of filter bits currently set.
    pub fn fill_ratio(&self) -> f64 {
        // Tail bits beyond `bits` in the last word are never set, so a
        // straight popcount over the words is exact.
        let set: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        f64::from(set) / f64::from(self.bits)
    }

    /// Expected false-positive rate at the current fill: a probe of an
    /// absent key hits `hashes` independent set bits with probability
    /// `fill_ratio ^ hashes`.
    pub fn expected_fp_rate(&self) -> f64 {
        self.fill_ratio().powi(self.hashes as i32)
    }
}

/// Wire size of a `bits`-bit filter, in bytes.
fn filter_bytes(bits: u32) -> u64 {
    u64::from(bits).div_ceil(8)
}

/// The `hashes` bit positions a `bits`-bit bloom filter probes for
/// `key` — the one definition of the hash, shared by [`BloomDigest`]
/// and [`BloomIndex`].
///
/// Double hashing (Kirsch–Mitzenmacher): two splitmix streams `h1` and
/// `h2 | 1` give position `i` as `h1 + i·h2 mod bits`. Positions may
/// repeat for one key.
#[inline]
pub fn bloom_positions(bits: u32, hashes: u32, key: u64) -> BloomPositions {
    BloomPositions {
        h1: split_mix64(key ^ BLOOM_SEED_A),
        h2: split_mix64(key ^ BLOOM_SEED_B) | 1,
        i: 0,
        hashes: u64::from(hashes),
        bits: u64::from(bits),
    }
}

/// Iterator over one key's probe positions ([`bloom_positions`]).
#[derive(Clone, Debug)]
pub struct BloomPositions {
    h1: u64,
    h2: u64,
    i: u64,
    hashes: u64,
    bits: u64,
}

impl Iterator for BloomPositions {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.i == self.hashes {
            return None;
        }
        let bit = self.h1.wrapping_add(self.i.wrapping_mul(self.h2)) % self.bits;
        self.i += 1;
        Some(bit as usize)
    }
}

/// An inverted bloom index over one live window of packed ids
/// (`region * 64 + slot`): it answers [`BloomDigest::contains`] for a
/// filter built from *any* held subset of the window, without building
/// the filter.
///
/// Built once per window ([`BloomIndex::rebuild`]), it holds every live
/// id's probe positions sorted by bit, and for each `(id, probe i)` the
/// range of live ids whose probes share that bit. A filter built from a
/// held set `S` contains `key` exactly when `S` holds `key` (no false
/// negatives) or every probe bit of `key` is shared by some id `S`
/// holds ([`BloomIndex::contains`]). A probe therefore costs at most
/// `hashes` short range scans, independent of how many ids `S` holds.
/// An id with a *private* bit, one no other live id sets, is positive
/// only if held, so [`BloomIndex::positives`] settles held ids and
/// unheld private ones a whole region at a time and scans only the
/// rest. Memory is O(live ids × hashes) and independent of the filter
/// width.
#[derive(Clone, Debug)]
pub struct BloomIndex {
    bits: u32,
    hashes: u32,
    /// First region of the indexed window.
    base: u64,
    /// Live slot mask per region, from `base`.
    live: Vec<u64>,
    /// Live ids in the regions before each region: the rank of its
    /// first live slot.
    before: Vec<u32>,
    /// Per region, the live ids with a *private* probe bit that no other
    /// live id sets: such an id probes positive only if it is held.
    private: Vec<u64>,
    /// Window position `(region - base) * 64 + slot` of each live id,
    /// by rank.
    at: Vec<u32>,
    /// `bit << 32 | (rank * hashes + i)` per probe, sorted by bit.
    pairs: Vec<u64>,
    /// Window position of each sorted probe's id: ids sharing a bit sit
    /// in one contiguous range.
    members: Vec<u32>,
    /// Per `rank * hashes + i`: the `members` range sharing that probe's
    /// bit.
    spans: Vec<(u32, u32)>,
}

impl BloomIndex {
    /// An empty index for `bits`-bit, `hashes`-probe filters, with
    /// capacity for windows of up to `regions` regions and `ids` live
    /// ids, so rebuilding within those bounds never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `hashes` is zero.
    pub fn new(bits: u32, hashes: u32, regions: usize, ids: usize) -> Self {
        assert!(bits > 0, "bloom index wants at least one bit");
        assert!(hashes > 0, "bloom index wants at least one hash");
        let probes = ids * hashes as usize;
        BloomIndex {
            bits,
            hashes,
            base: 0,
            live: Vec::with_capacity(regions),
            before: Vec::with_capacity(regions),
            private: Vec::with_capacity(regions),
            at: Vec::with_capacity(ids),
            pairs: Vec::with_capacity(probes),
            members: Vec::with_capacity(probes),
            spans: Vec::with_capacity(probes),
        }
    }

    /// First region of the indexed window.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Wire size of the filter this index answers for, in bytes.
    pub fn size_bytes(&self) -> u64 {
        filter_bytes(self.bits)
    }

    /// Index the window whose region `base + j` has live slot mask
    /// `live[j]`.
    // lint: hot-loop
    pub fn rebuild(&mut self, base: u64, live: impl IntoIterator<Item = u64>) {
        self.base = base;
        self.live.clear();
        self.before.clear();
        self.private.clear();
        self.at.clear();
        self.pairs.clear();
        let k = self.hashes;
        let mut rank = 0u32;
        for (off, mask) in live.into_iter().enumerate() {
            self.live.push(mask);
            self.before.push(rank);
            self.private.push(0);
            let mut rest = mask;
            while rest != 0 {
                let slot = rest.trailing_zeros();
                rest &= rest - 1;
                self.at.push(((off as u32) << 6) | slot);
                let key = ((base + off as u64) << 6) | u64::from(slot);
                for (i, bit) in bloom_positions(self.bits, k, key).enumerate() {
                    self.pairs
                        .push(((bit as u64) << 32) | u64::from(rank * k + i as u32));
                }
                rank += 1;
            }
        }
        // Window positions and probe numbers are packed into `u32`s.
        assert!(
            self.live.len() < 1 << 26 && self.pairs.len() <= u32::MAX as usize,
            "window too large to index"
        );
        self.pairs.sort_unstable();
        self.members.clear();
        self.spans.clear();
        self.spans.resize(self.pairs.len(), (0, 0));
        let mut lo = 0;
        while lo < self.pairs.len() {
            let bit = self.pairs[lo] >> 32;
            let hi = lo + self.pairs[lo..].partition_point(|&p| p >> 32 == bit);
            for &pair in &self.pairs[lo..hi] {
                let probe = pair as u32 as usize;
                self.members.push(self.at[probe / k as usize]);
                self.spans[probe] = (lo as u32, hi as u32);
            }
            let owner = self.members[lo];
            if self.members[lo..hi].iter().all(|&at| at == owner) {
                self.private[(owner >> 6) as usize] |= 1u64 << (owner & 63);
            }
            lo = hi;
        }
    }

    /// Exactly `BloomDigest::contains(key)` on a `bits`-bit,
    /// `hashes`-probe filter holding the ids of `held`, where `held[j]`
    /// is the held slot mask of region `base + j`.
    ///
    /// `key` must be a live id of the indexed window, `held` must cover
    /// every indexed region, and it must hold only live ids (an id
    /// outside the window sets filter bits the index cannot see).
    #[inline]
    pub fn contains(&self, key: u64, held: &[u64]) -> bool {
        self.positives(key >> 6, 1u64 << (key & 63), held) != 0
    }

    /// The slots of `candidates`, live slots of `region`, whose ids
    /// [`BloomIndex::contains`] answers `true` for. Word-parallel for
    /// held ids (always positive) and for unheld ids with a private bit
    /// (always negative); one probe per id for the rest.
    // lint: hot-loop
    #[inline]
    pub fn positives(&self, region: u64, candidates: u64, held: &[u64]) -> u64 {
        let off = (region - self.base) as usize;
        let live = self.live[off];
        debug_assert!(
            candidates & !live == 0,
            "region {region}: candidates {candidates:#x} not live"
        );
        let mut hits = candidates & held[off];
        let mut rest = candidates & !held[off] & !self.private[off];
        while rest != 0 {
            let slot = rest.trailing_zeros();
            rest &= rest - 1;
            let rank = self.before[off] + (live & ((1u64 << slot) - 1)).count_ones();
            let first = rank as usize * self.hashes as usize;
            let covered =
                self.spans[first..first + self.hashes as usize]
                    .iter()
                    .all(|&(lo, hi)| {
                        self.members[lo as usize..hi as usize]
                            .iter()
                            .any(|&at| held[(at >> 6) as usize] & (1u64 << (at & 63)) != 0)
                    });
            if covered {
                hits |= 1u64 << slot;
            }
        }
        hits
    }
}

/// Exact order-free summary of one region's membership mask: equal
/// masks hash equal, different masks hash different (up to a 64-bit
/// splitmix collision). Peers compare per-region hashes and exchange
/// raw masks only for regions whose hashes differ — the exact
/// (zero-false-positive) alternative to [`BloomDigest`].
#[inline]
pub fn region_hash(region: u64, mask: u64) -> u64 {
    split_mix64(split_mix64(region ^ REGION_SEED) ^ mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_are_always_found() {
        let mut d = BloomDigest::new(256, 4);
        for key in 0..64u64 {
            d.insert(key * 977);
        }
        for key in 0..64u64 {
            assert!(d.contains(key * 977));
        }
        assert_eq!(d.inserted(), 64);
    }

    #[test]
    fn clear_resets_to_empty_without_reallocating() {
        let mut d = BloomDigest::new(128, 3);
        d.insert(7);
        assert!(d.contains(7));
        d.clear();
        assert!(!d.contains(7));
        assert_eq!(d.inserted(), 0);
        assert_eq!(d.fill_ratio(), 0.0);
    }

    #[test]
    fn digests_are_deterministic_and_order_free() {
        let mut a = BloomDigest::new(512, 5);
        let mut b = BloomDigest::new(512, 5);
        for key in 0..40u64 {
            a.insert(key);
        }
        for key in (0..40u64).rev() {
            b.insert(key);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn fill_and_fp_estimates_behave() {
        let mut d = BloomDigest::new(1024, 4);
        assert_eq!(d.expected_fp_rate(), 0.0);
        for key in 0..100u64 {
            d.insert(key);
        }
        assert!(d.fill_ratio() > 0.0 && d.fill_ratio() < 1.0);
        assert!(d.expected_fp_rate() < d.fill_ratio());
        assert_eq!(d.size_bytes(), 128);
        assert_eq!(BloomDigest::new(100, 2).size_bytes(), 13);
    }

    #[test]
    fn non_multiple_of_64_widths_stay_in_range() {
        let mut d = BloomDigest::new(67, 8);
        for key in 0..200u64 {
            d.insert(key);
            assert!(d.contains(key));
        }
        assert!(d.fill_ratio() <= 1.0);
    }

    #[test]
    fn index_rebuilds_within_its_reserved_capacity() {
        // A full 10-region x 64-slot window at 16 hashes: the largest
        // window the capacity was reserved for must not reallocate.
        let mut index = BloomIndex::new(64, 16, 10, 640);
        let caps = |ix: &BloomIndex| {
            [
                ix.live.capacity(),
                ix.before.capacity(),
                ix.private.capacity(),
                ix.at.capacity(),
                ix.pairs.capacity(),
                ix.members.capacity(),
                ix.spans.capacity(),
            ]
        };
        let reserved = caps(&index);
        for base in [0, 1 << 30, 7] {
            index.rebuild(base, [u64::MAX; 10]);
            assert_eq!(caps(&index), reserved);
            assert_eq!(index.members.len(), 640 * 16);
        }
        let held = [u64::MAX; 10];
        assert!(index.contains((7 << 6) | 3, &held));
    }

    #[test]
    fn region_hash_separates_masks_and_regions() {
        assert_eq!(region_hash(3, 0b1011), region_hash(3, 0b1011));
        assert_ne!(region_hash(3, 0b1011), region_hash(3, 0b1010));
        assert_ne!(region_hash(3, 0b1011), region_hash(4, 0b1011));
        assert_ne!(region_hash(0, 0), region_hash(1, 0));
    }
}
