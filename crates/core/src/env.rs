//! The substrate environment: churn, faults, attack timing and the
//! silence cut-off, wired once for every scheduled substrate.
//!
//! The paper's claim is cross-substrate — a targeted attacker satiates
//! chosen nodes in BitTorrent, BAR Gossip and scrip systems alike — so
//! every substrate must meet the attack under the same membership
//! dynamics, the same faults and the same attack timing. [`Env`] owns
//! those layers and the order they meet in:
//!
//! 1. [`Env::new`] forks the membership, fault, adaptive-schedule and
//!    masquerade streams from the substrate's root rng (forking never
//!    advances the parent, so the environment is stream-invisible to
//!    the protocol), applies each node's [`Role`] and only then
//!    withdraws the flash crowd, so exempt roles are never held back;
//! 2. [`Env::begin_round`] advances membership, then faults, and hands
//!    back the nodes that just crashed — the substrate wipes their
//!    state before anything observes it;
//! 3. [`Env::decide`] steps the schedule. It answers the
//!    environment's own metrics (presence, the cut-off's false-cut
//!    rate) itself and asks the substrate only for delivery metrics,
//!    and only on rounds the schedule needs one.
//!
//! The substrate keeps everything protocol-specific: which nodes hold
//! which role, what a crash wipes, and how delivery is counted.
//!
//! [`Quorum`] is the distinct-accuser strike count behind both quorum
//! defenses: the environment's silence cut-off, and BAR Gossip's
//! report-and-evict.
//!
//! # Hot-loop invariants
//!
//! [`Env::begin_round`], [`Env::decide`] and [`Quorum::strike`] never
//! allocate, and draw nothing under the default configuration (no churn,
//! no faults, always-on schedule), so default runs are bit-identical to
//! runs without an environment at all.

use crate::bitset::BitSet;
use crate::faults::{CutStats, FaultCounters, FaultPlan, FaultState};
use crate::population::{ArrivalProcess, ChurnProfile, Population};
use crate::schedule::{AttackSchedule, MetricKey, ScheduleState};
use netsim::rng::DetRng;
use netsim::Round;

/// The environment axes of a run, as a substrate's config carries them.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnvSpec {
    /// Departure/rejoin churn.
    pub churn: ChurnProfile,
    /// Flash-crowd arrivals.
    pub arrival: ArrivalProcess,
    /// Injected faults.
    pub faults: FaultPlan,
    /// When the attack is on.
    pub schedule: AttackSchedule,
    /// Distinct accusers that cut a node off on silence; `None` leaves
    /// the cut-off defense off.
    pub cutoff: Option<u32>,
}

/// How the environment treats one node for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Churns, crashes, and may be held back for a flash crowd.
    Honest,
    /// An attacker node: churns and crashes like anyone but is present
    /// from round 0 (a flash crowd is an honest phenomenon). Never files
    /// a silence strike, and counts as an attacker in the cut-off's
    /// statistics.
    Attacker,
    /// Never departs, never crashes, never held back: origin seeds and
    /// attacker infrastructure a substrate cannot lose.
    Protected,
    /// Churns, but never crashes: a node whose state loss would destroy
    /// the content outright (the rare-token holder).
    CrashExempt,
}

/// The per-run environment a substrate embeds (see the module docs).
///
/// ```
/// use lotus_core::env::{Env, EnvSpec, Role};
/// use lotus_core::faults::FaultPlan;
/// use lotus_core::population::ChurnSpec;
/// use lotus_core::schedule::AttackSchedule;
/// use netsim::rng::DetRng;
///
/// let spec = EnvSpec {
///     churn: ChurnSpec::new(0.1, 0.5).into(),
///     faults: FaultPlan::parse("crash:0.1:0.5").unwrap(),
///     schedule: AttackSchedule::at(3),
///     ..EnvSpec::default()
/// };
/// let mut env = Env::new(8, spec, &DetRng::seed_from(7), |i| {
///     if i == 0 { Role::Protected } else { Role::Honest }
/// });
/// for t in 0..10 {
///     // The substrate wipes these nodes' state before the schedule step.
///     let crashed = env.begin_round(t);
///     assert!(!crashed.contains(0), "the protected node never crashes");
///     assert_eq!(env.decide(t, |_| None), t >= 3);
///     assert!(env.is_live(0), "nor does it leave");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Env {
    population: Population,
    faults: FaultState,
    schedule: ScheduleState,
    /// Whether the schedule has the attack on this round.
    attack_active: bool,
    /// Fault-masquerading attackers' silence draws; `chance(0.0)` draws
    /// nothing, so on a perfect network a masquerader is bit-for-bit
    /// honest.
    masq_rng: DetRng,
    /// The silence cut-off defense.
    cutoff: Quorum,
    /// Attacker nodes; filled only while the cut-off is on, whose
    /// bookkeeping is its only reader.
    attackers: BitSet,
    /// The cut-off's outcome so far.
    cuts: CutStats,
}

impl Env {
    /// The environment of `n` nodes under `spec`, forking its streams
    /// from `rng` (the substrate's root stream) and treating node `i` as
    /// `role(i)`.
    pub fn new(n: usize, spec: EnvSpec, rng: &DetRng, role: impl Fn(usize) -> Role) -> Env {
        let mut population = Population::new(n, spec.churn, rng.fork("population"));
        let mut faults = FaultState::new(n, spec.faults, rng);
        let cutoff = Quorum::new(n, spec.cutoff);
        let mut attackers = BitSet::new(if cutoff.is_on() { n } else { 0 });
        for i in 0..n {
            match role(i) {
                Role::Honest => {}
                Role::Attacker => {
                    population.exempt_arrival(i);
                    if cutoff.is_on() {
                        attackers.insert(i);
                    }
                }
                Role::Protected => {
                    population.protect(i);
                    faults.exempt(i);
                }
                Role::CrashExempt => faults.exempt(i),
            }
        }
        population.set_arrival(spec.arrival);
        let cuts = CutStats {
            honest: (n - attackers.len()) as u32,
            attackers: attackers.len() as u32,
            ..CutStats::default()
        };
        Env {
            population,
            faults,
            schedule: ScheduleState::seeded(spec.schedule, rng.fork("adaptive")),
            attack_active: false,
            masq_rng: rng.fork("masquerade"),
            cutoff,
            attackers,
            cuts,
        }
    }

    /// Membership.
    #[inline]
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Fault state.
    #[inline]
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Fault state, for message fates and partition bookkeeping.
    #[inline]
    pub fn faults_mut(&mut self) -> &mut FaultState {
        &mut self.faults
    }

    /// The attack-timing stepper (rotation phase, adaptive arm trace).
    #[inline]
    pub fn schedule(&self) -> &ScheduleState {
        &self.schedule
    }

    /// Whether the schedule has the attack on this round. While off,
    /// attacker nodes cooperate.
    #[inline]
    pub fn attack_active(&self) -> bool {
        self.attack_active
    }

    /// Advance membership, then faults, into round `t`. Returns the
    /// nodes that crashed this round: the substrate wipes their state
    /// before calling [`Env::decide`], so the schedule observes the
    /// post-crash system.
    // lint: hot-loop
    pub fn begin_round(&mut self, t: Round) -> &BitSet {
        self.population.begin_round(t);
        self.faults.begin_round(t);
        self.faults.just_crashed()
    }

    /// Step the schedule for round `t` and return whether the attack is
    /// on. Presence and the cut-off's false-cut rate are answered here;
    /// `observe` answers the substrate's delivery metrics from its
    /// running counters, and is called only when the schedule asks.
    // lint: hot-loop
    pub fn decide(&mut self, t: Round, observe: impl FnOnce(MetricKey) -> Option<f64>) -> bool {
        let observed = self.schedule.needs_observation().and_then(|key| match key {
            MetricKey::PresentFraction => Some(self.population.present_fraction()),
            MetricKey::FalseCutRate => self.cutoff.is_on().then(|| self.cuts.false_cut_rate()),
            MetricKey::OverallDelivery | MetricKey::TargetedService => observe(key),
        });
        self.attack_active = self.schedule.is_active(t, observed);
        self.attack_active
    }

    /// Whether `node` takes part this round: present, up and not cut off.
    #[inline]
    pub fn is_live(&self, node: usize) -> bool {
        self.population.is_present(node)
            && !self.faults.is_down(node)
            && !self.cutoff.contains(node)
    }

    /// Load the live set into `mask` word-parallel: present ∧ ¬down ∧
    /// ¬cut.
    pub fn live_into(&self, mask: &mut BitSet) {
        mask.copy_from(self.population.present());
        mask.subtract(self.faults.down_mask());
        self.cutoff.exclude_from(mask);
    }

    /// Whether a masquerading attacker's send goes silent: one draw at
    /// the round's ambient silence rate
    /// ([`FaultState::ambient_silence_rate`], which folds expected
    /// partition blocking in while an epoch is open, so the defections
    /// track real ambient silence). The caller decides whether the
    /// sender masquerades; nothing is drawn while the attack is off.
    #[inline]
    pub fn masquerade_silent(&mut self) -> bool {
        self.attack_active && self.masq_rng.chance(self.faults.ambient_silence_rate())
    }

    /// The silence cut-off: `observer` expected a delivery from
    /// `partner` and got nothing. One strike per distinct accuser;
    /// attacker nodes never file (a masquerading defector wants less
    /// scrutiny, not more). Returns whether this strike cut `partner`
    /// off. A no-op while the defense is off.
    // lint: hot-loop
    pub fn note_silence(&mut self, observer: usize, partner: usize) -> bool {
        if !self.cutoff.is_on() || self.attackers.contains(observer) {
            return false;
        }
        if !self.cutoff.strike(observer, partner) {
            return false;
        }
        if self.attackers.contains(partner) {
            self.cuts.cut_attacker += 1;
        } else {
            self.cuts.cut_honest += 1;
        }
        true
    }

    /// The cut-off's outcome; `None` while the defense is off, so
    /// defense-free reports carry no cut fields.
    pub fn cut_stats(&self) -> Option<CutStats> {
        self.cutoff.is_on().then_some(self.cuts)
    }

    /// The fault counters; `None` while the fault plan is inactive, so
    /// fault-free reports carry no fault fields.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.faults.is_active().then(|| self.faults.counters())
    }
}

/// Distinct-accuser strikes with a removal quorum: once `threshold`
/// distinct accusers have struck a node, it is removed for good.
///
/// The per-node accuser sets cost `n²` bits, so they exist only while
/// the defense is on; [`Quorum::new`] with no threshold allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct Quorum {
    threshold: Option<u32>,
    /// Distinct accusers per node (empty while off).
    accusers: Vec<BitSet>,
    /// Removed nodes (an empty universe while off).
    removed: BitSet,
}

impl Quorum {
    /// A quorum over `n` nodes removing a node at `threshold` distinct
    /// accusers; `None` is the off state.
    pub fn new(n: usize, threshold: Option<u32>) -> Quorum {
        let n = if threshold.is_some() { n } else { 0 };
        Quorum {
            threshold,
            accusers: vec![BitSet::new(n); n],
            removed: BitSet::new(n),
        }
    }

    /// Whether the defense is on.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.threshold.is_some()
    }

    /// Whether `node` has been removed.
    #[inline]
    pub fn contains(&self, node: usize) -> bool {
        self.is_on() && self.removed.contains(node)
    }

    /// Nodes removed so far.
    pub fn removed_count(&self) -> usize {
        self.removed.len()
    }

    /// Drop every removed node from `mask`.
    pub fn exclude_from(&self, mask: &mut BitSet) {
        if self.is_on() {
            mask.subtract(&self.removed);
        }
    }

    /// `accuser` strikes `accused`. A repeat accuser counts once.
    /// Returns `true` exactly once per node: on the strike that brings
    /// its distinct accusers to the quorum. Always `false` while off.
    // lint: hot-loop
    pub fn strike(&mut self, accuser: usize, accused: usize) -> bool {
        let Some(threshold) = self.threshold else {
            return false;
        };
        let set = &mut self.accusers[accused];
        set.insert(accuser) && set.len() as u32 >= threshold && self.removed.insert(accused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_accusers_count_once() {
        let mut q = Quorum::new(4, Some(2));
        assert!(!q.strike(1, 0));
        assert!(!q.strike(1, 0), "the same accuser again is no second vote");
        assert!(!q.contains(0));
        assert!(
            q.strike(2, 0),
            "a second distinct accuser reaches the quorum"
        );
        assert!(q.contains(0));
    }

    #[test]
    fn crossing_the_quorum_reports_exactly_once() {
        let mut q = Quorum::new(5, Some(2));
        let crossings = [1, 2, 3, 4, 2]
            .iter()
            .filter(|&&accuser| q.strike(accuser, 0))
            .count();
        assert_eq!(crossings, 1);
        assert_eq!(q.removed_count(), 1);
        let mut mask = BitSet::full(5);
        q.exclude_from(&mut mask);
        assert!(!mask.contains(0) && mask.contains(1));
    }

    #[test]
    fn the_off_state_never_removes() {
        let mut q = Quorum::new(5, None);
        assert!(!q.is_on());
        assert!(!q.strike(1, 0));
        assert!(!q.contains(0));
        let mut mask = BitSet::full(5);
        q.exclude_from(&mut mask);
        assert!(mask.is_full());
    }

    #[test]
    fn cutoff_accounting_skips_attacker_accusers() {
        let spec = EnvSpec {
            cutoff: Some(1),
            ..EnvSpec::default()
        };
        let mut env = Env::new(4, spec, &DetRng::seed_from(1), |i| {
            if i == 3 {
                Role::Attacker
            } else {
                Role::Honest
            }
        });
        assert!(!env.note_silence(3, 0), "attackers never file");
        assert!(env.note_silence(0, 3));
        assert!(env.note_silence(0, 1));
        assert!(!env.is_live(3) && !env.is_live(1) && env.is_live(0));
        let cuts = env.cut_stats().expect("the cut-off is on");
        assert_eq!((cuts.cut_attacker, cuts.cut_honest), (1, 1));
        assert_eq!((cuts.attackers, cuts.honest), (1, 3));
    }

    #[test]
    fn the_environment_answers_its_own_metrics() {
        let spec = EnvSpec {
            schedule: AttackSchedule::when_below(MetricKey::PresentFraction, 0.5),
            ..EnvSpec::default()
        };
        let mut env = Env::new(4, spec, &DetRng::seed_from(1), |_| Role::Honest);
        env.begin_round(0);
        let active = env.decide(0, |key| panic!("{key:?} is the environment's to answer"));
        assert!(!active, "everyone is present");
    }
}
