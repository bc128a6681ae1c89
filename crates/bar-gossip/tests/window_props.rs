//! Property tests for the window slab and the exchange kernels on its
//! rows, on the dependency-free
//! [`proptest_lite`](lotus_core::proptest_lite) harness.
//!
//! * **Window model.** Random sequences of advance, insert, crash-clear,
//!   engage and union (from any row, so also from never-written, cleared
//!   and expired-empty ones) over a few rows are checked against a naive
//!   model: one `BTreeSet<UpdateId>` per row, pruned to the live rounds
//!   on every advance. As in the simulator, only engaged rows are written
//!   and only their expiring masks are taken; a row that was never
//!   engaged must read as an empty window in lockstep. After every
//!   operation each row must keep the occupancy invariant (a clear bit
//!   means its masks are all zero) and agree with its set on `contains`,
//!   `len`, `is_empty` and its live masks in release order, and every
//!   ordered pair of rows on `missing_from`, `missing_in_age_band` and
//!   `wanted_from_into` (oldest first, at most `limit`, inside the age
//!   band). Pairs cover every mix of occupied, unoccupied and
//!   expired-empty rows, so the kernels' bit-test answers are checked
//!   against the same model as their mask scans.
//! * **Exchange invariants.** A balanced exchange never trades more than
//!   one-for-one plus the unbalanced defense's single extra, honours the
//!   rate cap and only moves useful, available updates; a push pays
//!   exactly one item (useful or junk) per recent update taken.

use bar_gossip::exchange::{
    balanced_exchange_into, optimistic_push_into, BalancedOutcome, PushOutcome,
};
use bar_gossip::update::{UpdateId, WindowRow, WindowSlab};
use lotus_core::proptest_lite::{check, Draw};
use netsim::Round;
use std::collections::BTreeSet;

/// The model's answer for `wanted_from_into`: `theirs \ mine` inside the
/// age band, oldest first, cut at `limit`.
fn model_wanted(
    mine: &BTreeSet<UpdateId>,
    theirs: &BTreeSet<UpdateId>,
    now: Round,
    limit: usize,
    min_age: u32,
    max_age: u32,
) -> Vec<UpdateId> {
    theirs
        .difference(mine)
        .filter(|u| (min_age..=max_age).contains(&((now - u.round) as u32)))
        .take(limit)
        .copied()
        .collect()
}

/// Check every query of every row (and ordered row pair) against the
/// model, once rounds `..next` have been advanced.
fn agree(
    w: &WindowSlab,
    model: &[BTreeSet<UpdateId>],
    next: Round,
    per_round: u32,
    d: &mut Draw,
) -> Result<(), String> {
    let live = if next == 0 { 0..0 } else { w.start()..next };
    let now = next.saturating_sub(1);
    for (i, set) in model.iter().enumerate() {
        let row = w.row(i);
        if row.len() != set.len() {
            return Err(format!("row {i}: len {} vs model {}", row.len(), set.len()));
        }
        let masks: Vec<(Round, u64)> = row.live().collect();
        let want: Vec<(Round, u64)> = live
            .clone()
            .map(|r| {
                let mask = set
                    .iter()
                    .filter(|u| u.round == r)
                    .fold(0u64, |m, u| m | 1 << u.slot);
                (r, mask)
            })
            .collect();
        if masks != want {
            return Err(format!("row {i}: live masks {masks:?} vs model {want:?}"));
        }
        if !row.is_occupied() && masks.iter().any(|&(_, m)| m != 0) {
            return Err(format!("row {i}: clear occupancy bit over masks {masks:?}"));
        }
        if row.is_empty() != set.is_empty() {
            return Err(format!(
                "row {i}: is_empty {} vs model {}",
                row.is_empty(),
                set.is_empty()
            ));
        }
        // Every slot of every live round, plus the round just expired.
        for round in w.start().saturating_sub(1)..=now {
            for slot in 0..per_round {
                let id = UpdateId { round, slot };
                let want = live.contains(&round) && set.contains(&id);
                if row.contains(id) != want {
                    return Err(format!("row {i}: contains({id}) should be {want}"));
                }
            }
        }
    }
    let mut out = Vec::new();
    for (a, mine) in model.iter().enumerate() {
        for (b, theirs) in model.iter().enumerate() {
            let (ra, rb): (WindowRow<'_>, WindowRow<'_>) = (w.row(a), w.row(b));
            let missing = theirs.difference(mine).count();
            if ra.missing_from(rb) != missing {
                return Err(format!(
                    "missing_from({a} <- {b}): {} vs model {missing}",
                    ra.missing_from(rb)
                ));
            }
            let min_age = d.int("min_age", 0, 6) as u32;
            let max_age = match d.int("max_age", 0, 7) {
                7 => u32::MAX,
                m => m as u32,
            };
            let limit = d.int("limit", 0, 12) as usize;
            let band = model_wanted(mine, theirs, now, usize::MAX, min_age, max_age).len();
            let got = ra.missing_in_age_band(rb, now, min_age, max_age);
            if got != band {
                return Err(format!(
                    "missing_in_age_band({a} <- {b}, ages {min_age}..={max_age}): {got} vs model {band}"
                ));
            }
            ra.wanted_from_into(rb, now, limit, min_age, max_age, &mut out);
            let want = model_wanted(mine, theirs, now, limit, min_age, max_age);
            if out != want {
                return Err(format!(
                    "wanted_from_into({a} <- {b}, limit {limit}, ages {min_age}..={max_age}): \
                     {out:?} vs model {want:?}"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn slab_rows_match_a_set_per_row_model() {
    check("window slab == BTreeSet model", 300, |d| {
        let rows = d.int("rows", 2, 4) as usize;
        let per_round = d.int("per_round", 1, 12) as u32;
        let lifetime = d.int("lifetime", 1, 6) as u32;
        let ops = d.int("ops", 1, 60);
        let mut w = WindowSlab::new(rows, per_round, lifetime);
        let mut model: Vec<BTreeSet<UpdateId>> = vec![BTreeSet::new(); rows];
        // Row 0 is engaged from the start; the others wait to be engaged
        // like flash-crowd nodes, and must stay empty in lockstep.
        let mut engaged = vec![false; rows];
        engaged[0] = true;
        let mut next: Round = 0;
        for _ in 0..ops {
            match d.int("op", 0, 5) {
                // Advance (twice as likely as each other op).
                0 | 1 => {
                    if let Some((expiring, slot)) = w.expiring() {
                        for (i, set) in model.iter_mut().enumerate() {
                            if !engaged[i] {
                                continue;
                            }
                            let mask = w.take(i, slot);
                            let want = set
                                .iter()
                                .filter(|u| u.round == expiring)
                                .fold(0u64, |m, u| m | 1 << u.slot);
                            if mask != want {
                                return Err(format!(
                                    "row {i}: expired mask {mask:#b} vs model {want:#b}"
                                ));
                            }
                            set.retain(|u| u.round != expiring);
                        }
                    }
                    w.advance(next);
                    next += 1;
                }
                // Insert into an engaged row, sometimes an expired or
                // not-yet-released round (both ignored).
                2 => {
                    let i = d.int("row", 0, rows as i64 - 1) as usize;
                    let back = d.int("back", -1, i64::from(lifetime) + 1);
                    let slot = d.int("slot", 0, i64::from(per_round) - 1) as u32;
                    if !engaged[i] || next == 0 {
                        continue;
                    }
                    let now = next - 1;
                    let Some(round) = now.checked_add_signed(-back) else {
                        continue;
                    };
                    let id = UpdateId { round, slot };
                    let live = round >= w.start() && round <= now;
                    let want = live && model[i].insert(id);
                    if w.insert(i, id) != want {
                        return Err(format!("row {i}: insert({id}) should return {want}"));
                    }
                }
                // Crash: the row loses everything, stays aligned.
                3 => {
                    let i = d.int("row", 0, rows as i64 - 1) as usize;
                    w.clear_row(i);
                    model[i].clear();
                    if w.row(i).is_occupied() {
                        return Err(format!("row {i}: clear_row left its bit set"));
                    }
                }
                // Engage a waiting row: it must be the empty window.
                4 => {
                    let i = d.int("row", 0, rows as i64 - 1) as usize;
                    if !engaged[i] {
                        if w.row(i).is_occupied() || !w.row(i).is_empty() {
                            return Err(format!("row {i} was written before engaging"));
                        }
                        engaged[i] = true;
                    }
                }
                // Union into an engaged row from any row: a waiting row
                // is the empty window, so that union must write nothing.
                _ => {
                    let dst = d.int("dst", 0, rows as i64 - 1) as usize;
                    let src = d.int("src", 0, rows as i64 - 1) as usize;
                    if engaged[dst] {
                        let was = w.row(dst).is_occupied();
                        let src_clear = !w.row(src).is_occupied();
                        w.union(dst, src);
                        let src_set = model[src].clone();
                        model[dst].extend(src_set);
                        if src_clear && w.row(dst).is_occupied() != was {
                            return Err(format!(
                                "union({dst} <- {src}) from a clear row changed the bit"
                            ));
                        }
                    }
                }
            }
            agree(&w, &model, next, per_round, d)?;
        }
        Ok(())
    });
}

/// Two aligned rows at round `now`, filled from draws.
fn random_pair(d: &mut Draw, now: Round) -> WindowSlab {
    let mut w = WindowSlab::new(2, 16, (now + 1) as u32);
    for t in 0..=now {
        w.advance(t);
    }
    for row in 0..2 {
        for _ in 0..d.int("items", 0, 40) {
            let round = d.int("round", 0, now as i64) as Round;
            let slot = d.int("slot", 0, 15) as u32;
            w.insert(row, UpdateId { round, slot });
        }
    }
    w
}

#[test]
fn balanced_exchange_invariants() {
    check("balanced exchange invariants", 300, |d| {
        let w = random_pair(d, 5);
        let (a, b) = (w.row(0), w.row(1));
        let unbalanced = d.int("unbalanced", 0, 1) == 1;
        let cap = match d.int("cap", 0, 4) {
            0 => None,
            c => Some(c as u32),
        };
        let mut out = BalancedOutcome::default();
        balanced_exchange_into(a, b, 5, unbalanced, cap, &mut out);
        let (gi, gr) = (out.to_initiator.len(), out.to_responder.len());
        // Never exceeds one-for-one plus the defense's single extra.
        if gi > gr + 1 || gr > gi + 1 {
            return Err(format!("asymmetric trade {gi} vs {gr}"));
        }
        // Without the defense the cap is the only source of asymmetry.
        if !unbalanced && cap.is_none() && gi != gr {
            return Err(format!(
                "unbalanced trade {gi} vs {gr} with the defense off"
            ));
        }
        if let Some(c) = cap {
            if gi > c as usize || gr > c as usize {
                return Err(format!("trade {gi}/{gr} exceeds the cap {c}"));
            }
        }
        // Transfers are genuinely useful and available.
        for u in &out.to_initiator {
            if !b.contains(*u) || a.contains(*u) {
                return Err(format!("{u} is not useful to the initiator"));
            }
        }
        for u in &out.to_responder {
            if !a.contains(*u) || b.contains(*u) {
                return Err(format!("{u} is not useful to the responder"));
            }
        }
        Ok(())
    });
}

#[test]
fn push_invariants() {
    check("optimistic push invariants", 300, |d| {
        let w = random_pair(d, 5);
        let (a, b) = (w.row(0), w.row(1));
        let push_size = d.int("push_size", 1, 5) as u32;
        let mut out = PushOutcome::default();
        optimistic_push_into(a, b, 5, push_size, 3, 1, None, &mut out);
        if out.to_responder.len() > push_size as usize {
            return Err(format!(
                "{} taken, push size {push_size}",
                out.to_responder.len()
            ));
        }
        // Payment is exact: useful + junk == taken.
        let paid = out.useful_to_initiator.len() + out.junk_to_initiator as usize;
        if paid != out.to_responder.len() {
            return Err(format!("paid {paid} for {} taken", out.to_responder.len()));
        }
        for u in &out.to_responder {
            // Only useful recents are offered.
            if !a.contains(*u) || b.contains(*u) || 5 - u.round > 1 {
                return Err(format!("{u} is not a useful recent update"));
            }
        }
        for u in &out.useful_to_initiator {
            // Only useful old updates are requested.
            if !b.contains(*u) || a.contains(*u) || 5 - u.round < 3 {
                return Err(format!("{u} is not a useful old update"));
            }
        }
        Ok(())
    });
}
