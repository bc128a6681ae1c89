//! Property tests for the digest-exchange primitives
//! ([`lotus_core::digest`]), on the dependency-free
//! [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! Across ~200 generated (bits, hashes, load) configurations each, the
//! suite pins the two guarantees the digest gossip substrate builds on:
//!
//! * **no false negatives** — every inserted id probes positive, at any
//!   width/probe-count/load, so a truthful digest can never cause an
//!   honest peer to skip an update it actually needs (the keystone
//!   delivery-equivalence golden in `lotus-bench` rides on this);
//! * **bounded false positives** — the measured false-positive rate on
//!   fresh keys stays within a small multiple of the fill-ratio
//!   estimate [`BloomDigest::expected_fp_rate`], which is what makes
//!   `digest_fp_rate` a meaningful deniability floor for the
//!   advertise-then-withhold attacker;
//! * the exact [`region_hash`] variant separates distinct masks and
//!   regions (zero false positives by construction);
//! * **index equivalence** — [`BloomIndex`] answers every probe (one id
//!   at a time, or a region's candidates at once) exactly as a
//!   [`BloomDigest`] built from the same held set, at any width
//!   (non-multiples of 64 included), probe count, window shape and
//!   load, saturated filters included; and the exposed
//!   [`bloom_positions`] are the bits `insert` sets and `contains`
//!   tests.

use lotus_core::digest::{bloom_positions, region_hash, BloomDigest, BloomIndex};
use lotus_core::proptest_lite::{check, Draw};

/// Draw a digest configuration plus a key load.
fn draw_config(d: &mut Draw) -> (u32, u32, u64, usize) {
    let bits = d.int("bits", 64, 4096) as u32;
    let hashes = d.int("hashes", 1, 8) as u32;
    let base = d.rng("key-base").next_u64() >> 1;
    let load = d.int("load", 1, 300) as usize;
    (bits, hashes, base, load)
}

#[test]
fn inserted_keys_never_false_negative() {
    check("digest::no_false_negatives", 200, |d| {
        let (bits, hashes, base, load) = draw_config(d);
        let mut digest = BloomDigest::new(bits, hashes);
        for i in 0..load as u64 {
            digest.insert(base + i);
        }
        for i in 0..load as u64 {
            if !digest.contains(base + i) {
                return Err(format!(
                    "key {i} of {load} lost in a {bits}-bit/{hashes}-hash digest"
                ));
            }
        }
        Ok(())
    });
}

#[test]
fn false_positive_rate_stays_within_the_fill_estimate() {
    check("digest::fp_rate_bounded", 200, |d| {
        let (bits, hashes, base, load) = draw_config(d);
        let mut digest = BloomDigest::new(bits, hashes);
        for i in 0..load as u64 {
            digest.insert(base + i);
        }
        // Probe keys disjoint from the inserted range by construction.
        let probes = 2000u64;
        let fresh = base + 1_000_000;
        let hits = (0..probes).filter(|j| digest.contains(fresh + j)).count();
        let measured = hits as f64 / probes as f64;
        let expected = digest.expected_fp_rate();
        // Generous envelope: fill^hashes is the per-probe hit chance,
        // so 2000 probes concentrate well inside 2.5x + 2% slack; an
        // overloaded filter (fill -> 1) passes trivially.
        if measured > 2.5 * expected + 0.02 {
            return Err(format!(
                "measured fp {measured} vs expected {expected} \
                 (bits={bits} hashes={hashes} load={load})"
            ));
        }
        Ok(())
    });
}

#[test]
fn digest_is_a_pure_function_of_its_key_set() {
    check("digest::order_free_and_resettable", 200, |d| {
        let (bits, hashes, base, load) = draw_config(d);
        let mut forward = BloomDigest::new(bits, hashes);
        let mut reverse = BloomDigest::new(bits, hashes);
        for i in 0..load as u64 {
            forward.insert(base + i);
        }
        for i in (0..load as u64).rev() {
            reverse.insert(base + i);
        }
        if forward != reverse {
            return Err("insertion order changed the digest".into());
        }
        // clear + reinsert lands on the same digest as fresh.
        reverse.clear();
        for i in 0..load as u64 {
            reverse.insert(base + i);
        }
        if forward != reverse {
            return Err("clear + reinsert diverged from a fresh digest".into());
        }
        Ok(())
    });
}

#[test]
fn region_hash_is_exact_on_generated_masks() {
    check("digest::region_hash_exact", 200, |d| {
        let region = d.int("region", 0, 1 << 20) as u64;
        let mask = d.rng("mask").next_u64();
        let flip = d.int("flip", 0, 63) as u64;
        if region_hash(region, mask) != region_hash(region, mask) {
            return Err("region hash is not deterministic".into());
        }
        if region_hash(region, mask) == region_hash(region, mask ^ (1 << flip)) {
            return Err(format!("mask flip at bit {flip} not separated"));
        }
        if region_hash(region, mask) == region_hash(region + 1, mask) {
            return Err("adjacent regions collide".into());
        }
        Ok(())
    });
}

/// Draw one live window: `(base region, live slot mask per region)`.
fn draw_window(d: &mut Draw, label: &str) -> (u64, Vec<u64>) {
    let regions = d.int("regions", 1, 12) as usize;
    let per_round = d.int("per_round", 1, 64) as u32;
    let density = d.ratio("live_density");
    let base = d.int("base_region", 0, 1 << 40) as u64;
    let mut rng = d.rng(label);
    let live = (0..regions)
        .map(|_| {
            (0..per_round)
                .filter(|_| rng.chance(density))
                .fold(0u64, |m, slot| m | (1 << slot))
        })
        .collect();
    (base, live)
}

#[test]
fn bloom_index_answers_like_a_filter_built_from_the_held_set() {
    check("digest::index_equivalence", 300, |d| {
        let bits = d.int("bits", 64, 4096) as u32;
        let hashes = d.int("hashes", 1, 16) as u32;
        // One index rebuilt over two windows: reuse must leave no trace
        // of the earlier window.
        let mut index = BloomIndex::new(bits, hashes, 12, 12 * 64);
        for pass in ["first", "second"] {
            let (base, live) = draw_window(d, pass);
            index.rebuild(base, live.iter().copied());
            if index.base() != base {
                return Err(format!("{pass}: base {} != {base}", index.base()));
            }
            let held_share = d.ratio("held_share");
            let mut rng = d.rng("held");
            let held: Vec<u64> = live
                .iter()
                .map(|&m| {
                    (0..64)
                        .filter(|&slot| m & (1 << slot) != 0 && rng.chance(held_share))
                        .fold(0u64, |acc, slot| acc | (1 << slot))
                })
                .collect();
            let mut filter = BloomDigest::new(bits, hashes);
            let ids = |masks: &[u64]| -> Vec<u64> {
                masks
                    .iter()
                    .enumerate()
                    .flat_map(|(off, &m)| {
                        (0..64u64)
                            .filter(move |&slot| m & (1 << slot) != 0)
                            .map(move |slot| ((base + off as u64) << 6) | slot)
                    })
                    .collect()
            };
            for key in ids(&held) {
                filter.insert(key);
            }
            for key in ids(&live) {
                let (want, got) = (filter.contains(key), index.contains(key, &held));
                if want != got {
                    return Err(format!(
                        "{pass}: key {key}: filter says {want}, index says {got} \
                         (bits={bits} hashes={hashes} fill={:.3})",
                        filter.fill_ratio()
                    ));
                }
            }
            // The word-parallel form agrees with the filter on every
            // region, for the whole live mask and for a random subset.
            let mut subset = d.rng("subset");
            for (off, &m) in live.iter().enumerate() {
                let region = base + off as u64;
                let want = (0..64u64)
                    .filter(|&slot| m & (1 << slot) != 0 && filter.contains((region << 6) | slot))
                    .fold(0u64, |acc, slot| acc | (1 << slot));
                let some = m & subset.next_u64();
                let got = index.positives(region, m, &held);
                let got_some = index.positives(region, some, &held);
                if got != want || got_some != want & some {
                    return Err(format!(
                        "{pass}: region {region}: filter {want:#x}, index {got:#x} \
                         / {got_some:#x} on subset {some:#x}"
                    ));
                }
            }
        }
        Ok(())
    });
}

#[test]
fn exposed_positions_are_what_insert_sets_and_contains_tests() {
    check("digest::positions_agree", 200, |d| {
        let (bits, hashes, base, load) = draw_config(d);
        let mut digest = BloomDigest::new(bits, hashes);
        let mut set = vec![false; bits as usize];
        for key in base..base + load as u64 {
            let positions: Vec<usize> = digest.positions(key).collect();
            if positions.len() != hashes as usize || positions.iter().any(|&b| b >= bits as usize) {
                return Err(format!(
                    "key {key}: positions {positions:?} for {bits}/{hashes}"
                ));
            }
            if !bloom_positions(bits, hashes, key).eq(positions.iter().copied()) {
                return Err(format!("key {key}: method and free fn disagree"));
            }
            for b in positions {
                set[b] = true;
            }
            digest.insert(key);
        }
        let ones = set.iter().filter(|&&b| b).count();
        if (digest.fill_ratio() * f64::from(bits)).round() as usize != ones {
            return Err(format!(
                "insert set {} bits, positions say {ones}",
                digest.fill_ratio() * f64::from(bits)
            ));
        }
        let fresh = base + 1_000_000;
        for key in fresh..fresh + 500 {
            let expected = digest.positions(key).all(|b| set[b]);
            if digest.contains(key) != expected {
                return Err(format!("key {key}: contains disagrees with its positions"));
            }
        }
        Ok(())
    });
}
