//! Property tests for [`DetRng::chance_mask`], on the dependency-free
//! [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! The bulk kernel's contract is *equivalence*, not distribution: for
//! any seed, `p` and eligibility mask it must set exactly the bits the
//! per-bit [`DetRng::chance`] loop would set, and leave the generator
//! in exactly the state that loop leaves. Pinned here over generated
//! widths (including ones that are not multiples of 64 and empty
//! masks), the degenerate probabilities, and forced high-word ties —
//! the one case where the kernel reads a draw's low word.

use lotus_core::proptest_lite::{check, Draw};
use netsim::rng::DetRng;

/// The reference: one `chance` call per set bit, ascending.
fn serial(rng: &mut DetRng, p: f64, eligible: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; eligible.len()];
    for (o, &e) in out.iter_mut().zip(eligible) {
        for b in 0..64 {
            if e >> b & 1 == 1 && rng.chance(p) {
                *o |= 1 << b;
            }
        }
    }
    out
}

/// Compare a kernel result with the reference's bits and final state.
fn agree(bulk: (&[u64], &DetRng), reference: (&[u64], &DetRng), what: &str) -> Result<(), String> {
    if bulk.0 != reference.0 {
        return Err(format!(
            "{what}: bits differ\n  bulk   {:x?}\n  serial {:x?}",
            bulk.0, reference.0
        ));
    }
    if bulk.1 != reference.1 {
        return Err(format!("{what}: final generator state differs"));
    }
    Ok(())
}

/// An eligibility mask of `width` bits at the drawn density (bits at or
/// above `width` clear), in `width.div_ceil(64)` words. One mask in four
/// is full, so whole-word runs of 64 draws are covered too.
fn mask(d: &mut Draw, width: usize) -> Vec<u64> {
    let density = match d.int("full", 0, 3) {
        0 => 1.0,
        _ => d.ratio("density"),
    };
    let mut rng = d.rng("mask");
    let mut words = vec![0u64; width.div_ceil(64)];
    for i in 0..width {
        if rng.chance(density) {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

/// The probabilities the kernel special-cases, then arbitrary ones.
fn probability(d: &mut Draw) -> f64 {
    match d.int("p_kind", 0, 9) {
        0 => 0.0,
        1 => 1.0,
        2 => -0.25,
        3 => 1.5,
        4 => 1e-9,
        5 => 0.999,
        6 => f64::NAN,
        7 => f64::MIN_POSITIVE,
        _ => d.ratio("p"),
    }
}

#[test]
fn chance_mask_equals_the_chance_sequence() {
    check("chance_mask == chance loop", 400, |d| {
        let seed = d.int("seed", 0, i64::MAX) as u64;
        let width = d.int("width", 0, 300) as usize;
        let eligible = mask(d, width);
        let p = probability(d);
        // Prime the stream so masks start at arbitrary positions, and
        // run two masks back to back so the second starts mid-stream.
        let skip = d.int("skip", 0, 9);
        let mut bulk = DetRng::seed_from(seed);
        for _ in 0..skip {
            bulk.next_u32();
        }
        let mut reference = bulk.clone();
        for pass in ["first mask", "second mask"] {
            let mut out = vec![!0u64; eligible.len()]; // stale bits must go
            bulk.chance_mask(p, &eligible, &mut out);
            let expected = serial(&mut reference, p, &eligible);
            agree((&out, &bulk), (&expected, &reference), pass)?;
        }
        Ok(())
    });
}

#[test]
fn forced_high_word_ties_take_the_low_word_path() {
    check("chance_mask ties", 300, |d| {
        let seed = d.int("seed", 0, i64::MAX) as u64;
        let width = d.int("width", 1, 200) as usize;
        let mut eligible = mask(d, width);
        eligible[0] |= 1; // at least one draw, so draw 0 exists
        let rank = d.int("rank", 0, 63) as u32;
        let tied = (rank as u64).min(u64::from(
            eligible.iter().map(|w| w.count_ones()).sum::<u32>() - 1,
        ));
        // Peek draw `tied`'s two words and build the cut from them.
        let start = DetRng::seed_from(seed);
        let mut peek = start.clone();
        for _ in 0..tied {
            peek.next_u64();
        }
        let hi = peek.next_u32();
        let lo_bits = peek.next_u32() >> 11;
        let cut_lo = match d.int("cut_lo", 0, 3) {
            0 => 0,           // tie always fails
            1 => lo_bits,     // equal low word: fails (strict <)
            2 => lo_bits + 1, // just above: succeeds
            _ => d.int("lo", 0, (1 << 21) - 1) as u32,
        };
        let cut = (u64::from(hi) << 21) + u64::from(cut_lo);
        if cut == 0 || cut >= 1 << 53 {
            return Ok(()); // p would be degenerate: no draw to tie
        }
        // Half a unit below the cut, where it is representable: the
        // same integer cut after rounding up, but not after rounding
        // down.
        let below = d.int("below", 0, 1) == 1 && cut < 1 << 52;
        let scaled = if below { cut as f64 - 0.5 } else { cut as f64 };
        let p = scaled / (1u64 << 53) as f64;
        let mut bulk = start.clone();
        let mut reference = start;
        let mut out = vec![0u64; eligible.len()];
        bulk.chance_mask(p, &eligible, &mut out);
        let expected = serial(&mut reference, p, &eligible);
        agree((&out, &bulk), (&expected, &reference), "forced tie")
    });
}

#[test]
fn the_equivalence_check_catches_mutations() {
    // A property that cannot fail proves nothing: each mutation of a
    // correct kernel result — one flipped outcome, one extra or one
    // missing generator step — must be reported.
    check("mutations are caught", 200, |d| {
        let seed = d.int("seed", 0, i64::MAX) as u64;
        let width = d.int("width", 1, 260) as usize;
        let mut eligible = mask(d, width);
        eligible[0] |= 1;
        let p = d.ratio("p").clamp(0.01, 0.99);
        let mut bulk = DetRng::seed_from(seed);
        let mut reference = bulk.clone();
        let mut out = vec![0u64; eligible.len()];
        bulk.chance_mask(p, &eligible, &mut out);
        let expected = serial(&mut reference, p, &eligible);
        agree((&out, &bulk), (&expected, &reference), "unmutated")?;

        let set: Vec<usize> = (0..width)
            .filter(|&i| eligible[i / 64] >> (i % 64) & 1 == 1)
            .collect();
        let flip = set[d.int("flip", 0, set.len() as i64 - 1) as usize];
        let mut flipped = out.clone();
        flipped[flip / 64] ^= 1 << (flip % 64);
        let mut stepped = bulk.clone();
        stepped.next_u32();
        let mut short = DetRng::seed_from(seed);
        serial(&mut short, p, &eligible[..eligible.len() - 1]);
        let mutants = [
            (
                "flipped outcome",
                agree((&flipped, &bulk), (&expected, &reference), ""),
            ),
            (
                "extra step",
                agree((&out, &stepped), (&expected, &reference), ""),
            ),
            (
                "missing draws",
                agree((&out, &short), (&expected, &reference), ""),
            ),
        ];
        for (name, verdict) in mutants {
            let missing_draws_is_noop =
                name == "missing draws" && eligible.last().is_some_and(|&w| w == 0);
            if verdict.is_ok() && !missing_draws_is_noop {
                return Err(format!("mutant {name:?} survived"));
            }
        }
        Ok(())
    });
}
