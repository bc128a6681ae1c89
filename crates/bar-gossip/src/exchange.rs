//! The two gossip sub-protocols: balanced exchange and optimistic push.
//!
//! These are pure functions from a pair of window rows (of one
//! [`WindowSlab`](crate::update::WindowSlab)) to a transfer plan; the
//! simulator applies the plan, meters bandwidth and runs the
//! excess-service check. Keeping them pure makes the exchange arithmetic
//! directly testable — including the properties the attack relies on:
//!
//! * a **balanced exchange** transfers `min(needs)` in each direction, so
//!   a satiated partner (needs 0) yields a useless exchange;
//! * an **optimistic push** moves at most `push_size` recent updates to
//!   the responder and an equal number of items (old updates the initiator
//!   needs, topped up with junk) back, so a rational node with no missing
//!   old updates never initiates one.

use crate::update::{UpdateId, WindowRow};
use netsim::Round;

/// Transfer plan of a balanced exchange.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BalancedOutcome {
    /// Updates the initiator receives.
    pub to_initiator: Vec<UpdateId>,
    /// Updates the responder receives.
    pub to_responder: Vec<UpdateId>,
}

impl BalancedOutcome {
    /// `true` if nothing moves.
    pub fn is_empty(&self) -> bool {
        self.to_initiator.is_empty() && self.to_responder.is_empty()
    }
}

/// Compute a balanced exchange between `initiator` and `responder` at
/// round `now`, into a caller-owned outcome (buffers cleared first, so
/// per-round hot loops reuse the allocations).
///
/// Both sides hand over as many live updates as possible one-for-one
/// (oldest — closest to expiry — first). With `unbalanced` (the Figure 3
/// defense) a node receiving at least one update is willing to give one
/// extra, so the needier side receives `min + 1` where available.
/// `rate_limit` caps each direction (the X9 defense).
// lint: hot-loop
pub fn balanced_exchange_into(
    initiator: WindowRow<'_>,
    responder: WindowRow<'_>,
    now: Round,
    unbalanced: bool,
    rate_limit: Option<u32>,
    out: &mut BalancedOutcome,
) {
    let cap = rate_limit.map_or(usize::MAX, |c| c as usize);
    if initiator.is_empty() {
        // The initiator has nothing to give, so it receives nothing
        // either — without reading the responder's row (at flash-crowd
        // scale most initiators are fresh, and a fresh row answers
        // `is_empty` from its occupancy bit, without reading itself).
        out.to_initiator.clear();
        out.to_responder.clear();
        return;
    }
    // m: what the initiator could receive; n: what the responder could.
    let m = initiator.missing_from(responder);
    let n = responder.missing_from(initiator);
    let k = m.min(n);
    let (mut recv_i, mut recv_r) = (k, k);
    if unbalanced && k >= 1 {
        // The side that needs more receives one extra: its partner is
        // willing to give recv+1 since it receives at least one.
        if m > n {
            recv_i = (k + 1).min(m);
        } else if n > m {
            recv_r = (k + 1).min(n);
        }
    }
    recv_i = recv_i.min(cap);
    recv_r = recv_r.min(cap);
    initiator.wanted_from_into(responder, now, recv_i, 0, u32::MAX, &mut out.to_initiator);
    responder.wanted_from_into(initiator, now, recv_r, 0, u32::MAX, &mut out.to_responder);
}

/// Transfer plan of an optimistic push.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PushOutcome {
    /// Old updates the initiator receives (what it initiated the push
    /// for).
    pub useful_to_initiator: Vec<UpdateId>,
    /// Recent updates the responder takes from the initiator's offer.
    pub to_responder: Vec<UpdateId>,
    /// Junk items the responder pays when it lacks enough old updates.
    pub junk_to_initiator: u32,
}

impl PushOutcome {
    /// `true` if nothing moves.
    pub fn is_empty(&self) -> bool {
        self.to_responder.is_empty()
    }
}

/// Compute an optimistic push initiated by `initiator` toward `responder`.
///
/// The initiator offers its *recent* updates (age ≤ `recent_age`) and asks
/// for *old* ones it is missing (age ≥ `old_age`). The responder takes up
/// to `push_size` of the offered recents it lacks, paying one item per
/// update taken: old updates the initiator needs while it has them, junk
/// after that. If the responder wants nothing, nothing happens. The push
/// is *optimistic* because the initiator may be paid entirely in junk.
/// The outcome's buffers are cleared first, so hot loops reuse them.
#[allow(clippy::too_many_arguments)]
// lint: hot-loop
pub fn optimistic_push_into(
    initiator: WindowRow<'_>,
    responder: WindowRow<'_>,
    now: Round,
    push_size: u32,
    old_age: u32,
    recent_age: u32,
    rate_limit: Option<u32>,
    out: &mut PushOutcome,
) {
    let cap = rate_limit.map_or(usize::MAX, |c| c as usize);
    let take = (push_size as usize).min(cap);
    // Recents the responder lacks, from the initiator's offer. An empty
    // initiator offers nothing; the responder's row is not even read.
    out.to_responder.clear();
    if !initiator.is_empty() {
        responder.wanted_from_into(initiator, now, take, 0, recent_age, &mut out.to_responder);
    }
    if out.to_responder.is_empty() {
        out.useful_to_initiator.clear();
        out.junk_to_initiator = 0;
        return;
    }
    // The responder pays one item per update taken: old updates first.
    let owed = out.to_responder.len();
    initiator.wanted_from_into(
        responder,
        now,
        owed.min(cap),
        old_age,
        u32::MAX,
        &mut out.useful_to_initiator,
    );
    out.junk_to_initiator = (owed - out.useful_to_initiator.len()) as u32;
}

/// Whether the initiator has any reason to start an optimistic push: it is
/// rational to initiate only when missing old (soon-expiring) updates.
pub fn wants_push(
    node: WindowRow<'_>,
    reference_full: WindowRow<'_>,
    now: Round,
    old_age: u32,
) -> bool {
    node.missing_in_age_band(reference_full, now, old_age, u32::MAX) > 0
}

/// The excess-service test used by the report-and-evict defense: a peer
/// that *gives* more useful updates than it *receives* plus `slack` (and
/// beyond what the sub-protocol could legitimately produce) is providing
/// excessive service.
///
/// Only two parties observe the transfer counts, which is why the paper
/// needs *obedient* receivers to file the report — a rational beneficiary
/// stays quiet.
pub fn is_excessive_service(given: usize, received: usize, slack: u32) -> bool {
    given > received + slack as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::WindowSlab;

    /// Two aligned windows at `now` (row 0 the initiator, row 1 the
    /// responder), holding the given ids.
    fn pair(now: Round, a: &[(u64, u32)], b: &[(u64, u32)]) -> (WindowSlab, Round) {
        let mut w = WindowSlab::new(2, 16, 8);
        for t in 0..=now {
            if let Some((_, slot)) = w.expiring() {
                w.take(0, slot);
                w.take(1, slot);
            }
            w.advance(t);
        }
        for (row, ids) in [a, b].into_iter().enumerate() {
            for &(round, slot) in ids {
                w.insert(row, UpdateId { round, slot });
            }
        }
        (w, now)
    }

    fn balanced(w: &WindowSlab, now: Round, unbalanced: bool, cap: Option<u32>) -> BalancedOutcome {
        let mut out = BalancedOutcome::default();
        balanced_exchange_into(w.row(0), w.row(1), now, unbalanced, cap, &mut out);
        out
    }

    fn push(w: &WindowSlab, now: Round, push_size: u32, cap: Option<u32>) -> PushOutcome {
        let mut out = PushOutcome::default();
        optimistic_push_into(w.row(0), w.row(1), now, push_size, 4, 1, cap, &mut out);
        out
    }

    #[test]
    fn balanced_exchange_is_one_for_one() {
        // Initiator lacks 3, responder lacks 1 => 1 each way.
        let (w, now) = pair(3, &[(0, 0)], &[(1, 0), (1, 1), (2, 0)]);
        let out = balanced(&w, now, false, None);
        assert_eq!(out.to_initiator.len(), 1);
        assert_eq!(out.to_responder.len(), 1);
        assert_eq!(
            out.to_initiator[0],
            UpdateId { round: 1, slot: 0 },
            "oldest first"
        );
        assert_eq!(out.to_responder[0], UpdateId { round: 0, slot: 0 });
    }

    #[test]
    fn balanced_exchange_with_satiated_partner_is_useless() {
        // Responder holds a superset: it needs nothing, so nothing moves.
        let (w, now) = pair(2, &[(0, 0)], &[(0, 0), (1, 0), (1, 1)]);
        let out = balanced(&w, now, false, None);
        assert!(
            out.is_empty(),
            "the satiation effect: no mutual need, no trade"
        );
    }

    #[test]
    fn unbalanced_exchange_gives_one_extra_to_needier_side() {
        let (w, now) = pair(3, &[(0, 0)], &[(1, 0), (1, 1), (2, 0)]);
        let out = balanced(&w, now, true, None);
        assert_eq!(out.to_initiator.len(), 2, "initiator needed 3, gets min+1");
        assert_eq!(out.to_responder.len(), 1);
    }

    #[test]
    fn unbalanced_does_not_create_service_from_nothing() {
        // Responder needs nothing => receives 0 => unwilling to give even
        // one: unbalanced exchanges only help under *partial* satiation.
        let (w, now) = pair(2, &[(0, 0)], &[(0, 0), (1, 0)]);
        let out = balanced(&w, now, true, None);
        assert!(out.is_empty());
    }

    #[test]
    fn unbalanced_symmetric_needs_stay_balanced() {
        let (w, now) = pair(2, &[(0, 0), (0, 1)], &[(1, 0), (1, 1)]);
        let out = balanced(&w, now, true, None);
        assert_eq!(out.to_initiator.len(), 2);
        assert_eq!(out.to_responder.len(), 2);
    }

    #[test]
    fn rate_limit_caps_both_directions() {
        let (w, now) = pair(4, &[(0, 0), (0, 1), (0, 2)], &[(1, 0), (1, 1), (1, 2)]);
        let out = balanced(&w, now, false, Some(2));
        assert_eq!(out.to_initiator.len(), 2);
        assert_eq!(out.to_responder.len(), 2);
    }

    #[test]
    fn push_moves_recents_for_olds() {
        // now = 7, old_age 4, recent_age 1.
        // Initiator has recents (7,0),(7,1) and misses old (0,0),(1,0)
        // which the responder has.
        let (w, now) = pair(7, &[(7, 0), (7, 1)], &[(0, 0), (1, 0)]);
        let out = push(&w, now, 2, None);
        assert_eq!(out.to_responder.len(), 2, "responder takes both recents");
        assert_eq!(
            out.useful_to_initiator,
            vec![
                UpdateId { round: 0, slot: 0 },
                UpdateId { round: 1, slot: 0 }
            ]
        );
        assert_eq!(out.junk_to_initiator, 0);
    }

    #[test]
    fn push_size_caps_transfer() {
        let (w, now) = pair(
            7,
            &[(7, 0), (7, 1), (7, 2), (6, 0)],
            &[(0, 0), (0, 1), (0, 2), (0, 3)],
        );
        let out = push(&w, now, 2, None);
        assert_eq!(out.to_responder.len(), 2);
        assert_eq!(out.useful_to_initiator.len(), 2, "pays one-for-one");
    }

    #[test]
    fn push_pays_junk_when_responder_lacks_olds() {
        let (w, now) = pair(7, &[(7, 0), (7, 1)], &[(0, 0)]);
        let out = push(&w, now, 2, None);
        assert_eq!(out.to_responder.len(), 2);
        assert_eq!(out.useful_to_initiator.len(), 1);
        assert_eq!(out.junk_to_initiator, 1, "short one old update => junk");
    }

    #[test]
    fn push_noop_when_responder_wants_nothing() {
        // Responder already has the initiator's recents.
        let (w, now) = pair(7, &[(7, 0)], &[(7, 0), (0, 0)]);
        let out = push(&w, now, 2, None);
        assert!(out.is_empty());
        assert_eq!(out.junk_to_initiator, 0);
    }

    #[test]
    fn push_only_offers_recent_updates() {
        // Initiator's only update is old; responder lacks it but it is not
        // offerable in a push.
        let (w, now) = pair(7, &[(0, 5)], &[(1, 0)]);
        let out = push(&w, now, 2, None);
        assert!(out.is_empty());
    }

    #[test]
    fn push_rate_limited() {
        let (w, now) = pair(7, &[(7, 0), (7, 1), (7, 2)], &[(0, 0), (0, 1), (0, 2)]);
        let out = push(&w, now, 3, Some(1));
        assert_eq!(out.to_responder.len(), 1);
        assert!(out.useful_to_initiator.len() <= 1);
    }

    #[test]
    fn push_into_reuses_outcome_buffers() {
        // A stale outcome from an earlier push must not leak into a no-op.
        let (w, now) = pair(7, &[(7, 0), (7, 1)], &[(0, 0)]);
        let mut out = PushOutcome::default();
        optimistic_push_into(w.row(0), w.row(1), now, 2, 4, 1, None, &mut out);
        assert_eq!(out.junk_to_initiator, 1);
        optimistic_push_into(w.row(1), w.row(0), now, 2, 4, 1, None, &mut out);
        assert!(out.is_empty());
        assert!(out.useful_to_initiator.is_empty());
        assert_eq!(out.junk_to_initiator, 0);
    }

    #[test]
    fn wants_push_only_when_missing_old() {
        let (w, now) = pair(7, &[(7, 0)], &[(0, 0), (7, 0)]);
        assert!(
            wants_push(w.row(0), w.row(1), now, 4),
            "missing (0,0) which is old"
        );
        let (w2, now2) = pair(7, &[(0, 0)], &[(0, 0), (7, 1)]);
        assert!(
            !wants_push(w2.row(0), w2.row(1), now2, 4),
            "only missing a recent update: no push"
        );
    }

    #[test]
    fn excess_service_detector() {
        assert!(!is_excessive_service(3, 3, 1), "balanced is fine");
        assert!(
            !is_excessive_service(4, 3, 1),
            "one extra tolerated (unbalanced defense)"
        );
        assert!(is_excessive_service(5, 3, 1), "gift of 2 extra flagged");
        assert!(is_excessive_service(50, 0, 1), "attacker gift flagged");
        assert!(!is_excessive_service(0, 0, 1));
    }

    #[test]
    fn honest_exchanges_never_trigger_excess_detector() {
        // Property-style check over a few window shapes: the balanced
        // exchange (with and without the unbalanced defense) never gives
        // more than received + 1.
        type Holdings = [(u64, u32)];
        let shapes: &[(&Holdings, &Holdings)] = &[
            (&[(0, 0)], &[(1, 0), (1, 1), (2, 0)]),
            (&[], &[(1, 0), (2, 0)]),
            (&[(0, 0), (0, 1), (1, 2)], &[(2, 0)]),
            (&[(0, 0)], &[(0, 0)]),
        ];
        for &(ha, hb) in shapes {
            let (w, now) = pair(3, ha, hb);
            for unb in [false, true] {
                let out = balanced(&w, now, unb, None);
                assert!(!is_excessive_service(
                    out.to_initiator.len(),
                    out.to_responder.len(),
                    1
                ));
                assert!(!is_excessive_service(
                    out.to_responder.len(),
                    out.to_initiator.len(),
                    1
                ));
            }
        }
    }
}
