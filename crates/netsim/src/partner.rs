//! Verifiable pseudorandom partner selection.
//!
//! BAR Gossip removes partner choice from the nodes: in each round, the
//! partner a node may initiate an exchange with is determined by a
//! pseudorandom function of the round number and the node's identity that
//! other nodes can verify. This stops rational nodes from cherry-picking
//! partners — and it also means a lotus-eater attacker cannot steer his
//! interactions toward the nodes he wants to satiate; he can only exploit
//! the interactions the schedule gives him (this is exactly why the *trade*
//! variant of the attack needs far more nodes than the *ideal* variant —
//! Figure 1 of the paper).
//!
//! The real protocol derives the choice from signatures; we use a seeded
//! hash, which preserves the property the simulation cares about: the
//! schedule is a deterministic, uniform-looking function outside any node's
//! control.

use crate::rng::{mix_label, split_mix64};
use crate::{NodeId, Round};

/// The sub-protocol an interaction belongs to. Each protocol has an
/// independent partner schedule, mirroring BAR Gossip where balanced
/// exchanges and optimistic pushes are initiated separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// One-for-one balanced exchange.
    BalancedExchange,
    /// Optimistic push (recent updates for old updates or junk).
    OptimisticPush,
    /// Any other interaction class a simulator wants scheduled.
    Other(u16),
}

impl Protocol {
    pub(crate) fn tag(self) -> u64 {
        match self {
            Protocol::BalancedExchange => 1,
            Protocol::OptimisticPush => 2,
            Protocol::Other(k) => 0x1_0000 + u64::from(k),
        }
    }
}

/// Deterministic partner schedule over `n` nodes.
///
/// ```
/// use netsim::partner::{PartnerSchedule, Protocol};
/// use netsim::NodeId;
///
/// let sched = PartnerSchedule::new(42, 250);
/// let p = sched.partner_of(NodeId(3), 7, Protocol::BalancedExchange);
/// assert_ne!(p, NodeId(3)); // never yourself
/// // Anyone can recompute (verify) the choice:
/// assert_eq!(p, sched.partner_of(NodeId(3), 7, Protocol::BalancedExchange));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartnerSchedule {
    seed: u64,
    n: u32,
}

impl PartnerSchedule {
    /// Create a schedule for `n` nodes from a session seed.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (there would be nobody to interact with).
    pub fn new(seed: u64, n: u32) -> Self {
        assert!(n >= 2, "a partner schedule needs at least two nodes");
        PartnerSchedule {
            seed: split_mix64(seed ^ mix_label("partner-schedule")),
            n,
        }
    }

    /// Number of nodes covered by the schedule.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// The mixed session seed (for the plan module's hoisted planner).
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedules always cover at least two nodes.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The partner `node` initiates with in `round` under `proto`.
    ///
    /// Uniform over all nodes except `node` itself; deterministic in
    /// `(seed, round, node, proto)`.
    pub fn partner_of(&self, node: NodeId, round: Round, proto: Protocol) -> NodeId {
        let mut h = self.seed;
        h = split_mix64(h ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = split_mix64(h ^ u64::from(node.0).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        h = split_mix64(h ^ proto.tag());
        // Unbiased choice among the n-1 others: draw in 0..n-1 and skip self.
        let m = u64::from(self.n - 1);
        let threshold = m.wrapping_neg() % m;
        let mut draw = h;
        let r = loop {
            if draw >= threshold {
                break draw % m;
            }
            draw = split_mix64(draw);
        } as u32;
        if r >= node.0 {
            NodeId(r + 1)
        } else {
            NodeId(r)
        }
    }

    /// All initiations for a round under `proto`: `(initiator, partner)`
    /// pairs in node order.
    pub fn round_pairs(
        &self,
        round: Round,
        proto: Protocol,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        NodeId::all(self.n).map(move |v| (v, self.partner_of(v, round, proto)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_selects_self() {
        let s = PartnerSchedule::new(7, 50);
        for round in 0..20 {
            for v in NodeId::all(50) {
                assert_ne!(s.partner_of(v, round, Protocol::BalancedExchange), v);
                assert_ne!(s.partner_of(v, round, Protocol::OptimisticPush), v);
            }
        }
    }

    #[test]
    fn deterministic_and_verifiable() {
        let a = PartnerSchedule::new(1, 10);
        let b = PartnerSchedule::new(1, 10);
        for round in 0..10 {
            for v in NodeId::all(10) {
                assert_eq!(
                    a.partner_of(v, round, Protocol::BalancedExchange),
                    b.partner_of(v, round, Protocol::BalancedExchange)
                );
            }
        }
    }

    #[test]
    fn protocols_have_independent_schedules() {
        let s = PartnerSchedule::new(3, 100);
        let mut same = 0;
        for v in NodeId::all(100) {
            if s.partner_of(v, 0, Protocol::BalancedExchange)
                == s.partner_of(v, 0, Protocol::OptimisticPush)
            {
                same += 1;
            }
        }
        // Expected collisions: 100/99 ≈ 1.
        assert!(same < 10, "schedules look correlated: {same} collisions");
    }

    #[test]
    fn two_node_schedule_always_pairs_them() {
        let s = PartnerSchedule::new(9, 2);
        for round in 0..5 {
            assert_eq!(
                s.partner_of(NodeId(0), round, Protocol::BalancedExchange),
                NodeId(1)
            );
            assert_eq!(
                s.partner_of(NodeId(1), round, Protocol::BalancedExchange),
                NodeId(0)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_tiny_schedules() {
        PartnerSchedule::new(0, 1);
    }

    #[test]
    fn partner_distribution_roughly_uniform() {
        let s = PartnerSchedule::new(11, 20);
        let mut counts = [0u32; 20];
        for round in 0..4000 {
            counts[s
                .partner_of(NodeId(0), round, Protocol::BalancedExchange)
                .index()] += 1;
        }
        assert_eq!(counts[0], 0, "never self");
        // Expect ~210 per other node.
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!((130..300).contains(&c), "node {i} chosen {c} times");
        }
    }

    #[test]
    fn round_pairs_covers_all_initiators() {
        let s = PartnerSchedule::new(13, 8);
        let pairs: Vec<_> = s.round_pairs(5, Protocol::OptimisticPush).collect();
        assert_eq!(pairs.len(), 8);
        for (i, (init, partner)) in pairs.iter().enumerate() {
            assert_eq!(init.index(), i);
            assert_ne!(init, partner);
        }
    }

    #[test]
    fn other_protocols_distinct() {
        let s = PartnerSchedule::new(17, 40);
        let a = s.partner_of(NodeId(5), 1, Protocol::Other(0));
        let b = s.partner_of(NodeId(5), 1, Protocol::Other(1));
        let c = s.partner_of(NodeId(5), 2, Protocol::Other(0));
        // They *can* coincide, but all three equal would be suspicious.
        assert!(!(a == b && b == c), "Other(k) schedules look degenerate");
    }
}
