//! A reputation economy — §1's other indirect-reciprocity system.
//!
//! "In indirect reciprocity systems, such as reputation systems and scrip
//! systems, peers need to perform service for others often enough to
//! maintain a good reputation or supply of money. If an attacker can
//! ensure that a peer maintains a good reputation … despite any requests
//! the peer makes, then that peer will no longer provide service."
//!
//! The model: each agent holds a non-negative reputation score that
//! **decays** multiplicatively every round (old behaviour matters less).
//! Serving a request earns one point; an agent *volunteers* only while its
//! score is below its threshold (reputation-satiated agents rest); a
//! requester whose score has fallen below the access bar is denied
//! service. The attacker satiates targets by injecting fake praise
//! (sybil feedback) every round.
//!
//! The contrast with scrip is the point of experiment X14: scrip is
//! **conserved**, so satiating a fraction `φ` needs `φ·n·k` of an `m·n`
//! supply — a hard wall. Reputation is *minted* by feedback, so the
//! attacker faces only a **linear maintenance cost** (`≈ k·(1-δ)` fake
//! points per target per round against decay `δ`) and no wall at all.
//! Faster decay raises his bill but hurts honest agents too.

use lotus_core::bitset::BitSet;
use lotus_core::satiation::{Feedable, Satiable};
use netsim::rng::DetRng;
use netsim::round::RoundSim;
use netsim::{NodeId, Round};

/// Configuration of a reputation-economy run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReputationConfig {
    /// Number of agents.
    pub agents: u32,
    /// Multiplicative per-round reputation decay (0 < δ ≤ 1).
    pub decay: f64,
    /// Volunteer only while reputation < threshold.
    pub threshold: f64,
    /// Requests from agents below this score are denied.
    pub access_bar: f64,
    /// Initial reputation per agent.
    pub initial: f64,
    /// Probability an agent is available to serve in a round.
    pub availability: f64,
    /// Requests served per round (the workload; reputation minting scales
    /// with it, so it balances the decay drain).
    pub requests_per_round: u32,
    /// Measured rounds.
    pub rounds: u64,
    /// Warm-up rounds excluded from measurement.
    pub warmup: u64,
}

impl Default for ReputationConfig {
    fn default() -> Self {
        ReputationConfig {
            agents: 100,
            decay: 0.95,
            threshold: 4.0,
            access_bar: 0.2,
            initial: 1.0,
            availability: 0.5,
            requests_per_round: 10,
            rounds: 20_000,
            warmup: 2_000,
        }
    }
}

/// Errors from [`ReputationConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ReputationConfigError {
    /// Fewer than two agents.
    TooFewAgents(u32),
    /// Decay outside `(0, 1]`.
    BadDecay(f64),
    /// Threshold must be positive and finite.
    BadThreshold(f64),
    /// Initial reputation must be non-negative and finite.
    BadInitial(f64),
    /// Access bar must be non-negative and finite.
    BadAccessBar(f64),
    /// Availability outside `[0, 1]`.
    BadAvailability(f64),
    /// No measured rounds.
    ZeroRounds,
    /// No requests per round.
    ZeroRequests,
}

impl std::fmt::Display for ReputationConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReputationConfigError::TooFewAgents(n) => {
                write!(f, "need at least 2 agents, got {n}")
            }
            ReputationConfigError::BadDecay(d) => write!(f, "decay {d} outside (0, 1]"),
            ReputationConfigError::BadThreshold(t) => {
                write!(f, "threshold {t} must be positive and finite")
            }
            ReputationConfigError::BadInitial(r) => {
                write!(f, "initial reputation {r} must be non-negative and finite")
            }
            ReputationConfigError::BadAccessBar(b) => {
                write!(f, "access bar {b} must be non-negative and finite")
            }
            ReputationConfigError::BadAvailability(a) => {
                write!(f, "availability {a} outside [0, 1]")
            }
            ReputationConfigError::ZeroRounds => write!(f, "need at least one measured round"),
            ReputationConfigError::ZeroRequests => {
                write!(f, "need at least one request per round")
            }
        }
    }
}

impl std::error::Error for ReputationConfigError {}

impl ReputationConfig {
    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ReputationConfigError> {
        if self.agents < 2 {
            return Err(ReputationConfigError::TooFewAgents(self.agents));
        }
        if !(self.decay > 0.0 && self.decay <= 1.0) {
            return Err(ReputationConfigError::BadDecay(self.decay));
        }
        // Written so NaN fails every check: a NaN threshold would make
        // every `reputation < threshold` test false and silently stop
        // all service.
        if !(self.threshold > 0.0 && self.threshold.is_finite()) {
            return Err(ReputationConfigError::BadThreshold(self.threshold));
        }
        if !(self.initial >= 0.0 && self.initial.is_finite()) {
            return Err(ReputationConfigError::BadInitial(self.initial));
        }
        if !(self.access_bar >= 0.0 && self.access_bar.is_finite()) {
            return Err(ReputationConfigError::BadAccessBar(self.access_bar));
        }
        if !(0.0..=1.0).contains(&self.availability) {
            return Err(ReputationConfigError::BadAvailability(self.availability));
        }
        if self.rounds == 0 {
            return Err(ReputationConfigError::ZeroRounds);
        }
        if self.requests_per_round == 0 {
            return Err(ReputationConfigError::ZeroRequests);
        }
        Ok(())
    }
}

/// The reputation-inflation attack: keep a fraction of agents at their
/// thresholds with fake praise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReputationAttack {
    /// No attacker.
    None,
    /// Top a random fraction of agents up to threshold every round.
    Inflate {
        /// Fraction of agents targeted.
        target_fraction: f64,
    },
}

/// Final report of a reputation-economy run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReputationReport {
    /// Rounds executed.
    pub rounds: Round,
    /// Fraction of measured requests served.
    pub service_rate: f64,
    /// Fraction denied because the requester was below the access bar.
    pub denied_rate: f64,
    /// Fraction failed for lack of volunteers.
    pub no_volunteer_rate: f64,
    /// Fraction of target-round samples where the target was satiated
    /// (`None` without an attack).
    pub target_satiation: Option<f64>,
    /// Mean fake reputation the attacker injected per round — his
    /// maintenance bill (zero without an attack).
    pub attacker_cost_per_round: f64,
}

/// The reputation-economy simulator.
///
/// ```
/// use scrip_economy::reputation::{
///     ReputationAttack, ReputationConfig, ReputationSim,
/// };
///
/// let cfg = ReputationConfig {
///     agents: 50,
///     rounds: 3_000,
///     warmup: 300,
///     ..ReputationConfig::default()
/// };
/// let report = ReputationSim::new(cfg, ReputationAttack::None, 7).run_to_report();
/// assert!(report.service_rate > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct ReputationSim {
    cfg: ReputationConfig,
    attack: ReputationAttack,
    reputation: Vec<f64>,
    targeted: Vec<bool>,
    served: Vec<u64>,
    rng: DetRng,
    round: Round,
    requests: u64,
    served_count: u64,
    denied: u64,
    no_volunteer: u64,
    target_satiated: u64,
    target_samples: u64,
    injected: f64,
    /// Nodes fed by the Observation 3.1 harness: re-topped after decay
    /// each round ("sufficiently rapidly").
    fed: std::collections::BTreeSet<usize>,
    /// Agents below their threshold — the ones willing to volunteer.
    /// Rebuilt after each round's decay and top-ups; within the round a
    /// served volunteer's bit clears once its reputation reaches the
    /// threshold (reputation only rises between rebuilds).
    below: BitSet,
    /// Every agent: the eligible set of the availability draw, with the
    /// requester's bit cleared for the duration of its request.
    peers: BitSet,
    /// The request's volunteers: available ∧ below threshold.
    volunteers: BitSet,
}

impl ReputationSim {
    /// Build a simulator, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: ReputationConfig, attack: ReputationAttack, seed: u64) -> Self {
        cfg.validate().expect("invalid ReputationConfig");
        let rng = DetRng::seed_from(seed).fork("reputation");
        let n = cfg.agents as usize;
        let mut targeted = vec![false; n];
        if let ReputationAttack::Inflate { target_fraction } = attack {
            let k = ((n as f64) * target_fraction.clamp(0.0, 1.0)).round() as usize;
            for i in rng.fork("targets").sample_indices(n, k.min(n)) {
                targeted[i] = true;
            }
        }
        ReputationSim {
            reputation: vec![cfg.initial; n],
            targeted,
            served: vec![0; n],
            rng,
            round: 0,
            requests: 0,
            served_count: 0,
            denied: 0,
            no_volunteer: 0,
            target_satiated: 0,
            target_samples: 0,
            injected: 0.0,
            fed: std::collections::BTreeSet::new(),
            below: BitSet::new(n),
            peers: BitSet::full(n),
            volunteers: BitSet::new(n),
            cfg,
            attack,
        }
    }

    /// Current reputation of `agent`.
    pub fn reputation(&self, agent: NodeId) -> f64 {
        self.reputation[agent.index()]
    }

    /// Whether `agent` is an attack target.
    pub fn is_targeted(&self, agent: NodeId) -> bool {
        self.targeted[agent.index()]
    }

    fn measured(&self) -> bool {
        self.round >= self.cfg.warmup
    }

    /// Run the configured horizon and produce the report.
    pub fn run_to_report(mut self) -> ReputationReport {
        let total = self.cfg.warmup + self.cfg.rounds;
        while self.round < total {
            let t = self.round;
            self.round(t);
        }
        self.report()
    }

    /// Snapshot the report so far.
    pub fn report(&self) -> ReputationReport {
        let req = self.requests.max(1) as f64;
        let measured_rounds = self.round.saturating_sub(self.cfg.warmup).max(1) as f64;
        ReputationReport {
            rounds: self.round,
            service_rate: self.served_count as f64 / req,
            denied_rate: self.denied as f64 / req,
            no_volunteer_rate: self.no_volunteer as f64 / req,
            target_satiation: if self.target_samples == 0 {
                None
            } else {
                Some(self.target_satiated as f64 / self.target_samples as f64)
            },
            attacker_cost_per_round: self.injected / measured_rounds,
        }
    }
}

impl lotus_core::scenario::Scenario for ReputationSim {
    type Config = ReputationConfig;
    type Attack = ReputationAttack;
    type Report = ReputationReport;
    const NAME: &'static str = "reputation";

    fn build(cfg: ReputationConfig, attack: ReputationAttack, seed: u64) -> Self {
        ReputationSim::new(cfg, attack, seed)
    }

    fn step(&mut self) -> lotus_core::scenario::StepOutcome {
        lotus_core::scenario::step_round(self, |s| s.round >= s.cfg.warmup + s.cfg.rounds)
    }

    fn report(&self) -> ReputationReport {
        ReputationSim::report(self)
    }
}

impl lotus_core::scenario::Summarize for ReputationReport {
    /// Common vocabulary for the reputation economy, mirroring the scrip
    /// summary so the two satiation currencies compare directly.
    fn summarize(&self) -> lotus_core::scenario::ScenarioReport {
        lotus_core::scenario::ScenarioReport::new(
            "reputation",
            self.rounds,
            self.service_rate,
            self.target_satiation.unwrap_or(0.0),
            self.service_rate > 0.5,
        )
        .with_metric("service_rate", self.service_rate)
        .with_metric("denied_rate", self.denied_rate)
        .with_metric("no_volunteer_rate", self.no_volunteer_rate)
        .with_metric("attacker_cost_per_round", self.attacker_cost_per_round)
        // 0.0 when the attack has no targets, so fraction sweeps that
        // include the no-attack point stay total.
        .with_metric("target_satiation", self.target_satiation.unwrap_or(0.0))
    }
}

impl RoundSim for ReputationSim {
    // lint: hot-loop
    fn round(&mut self, t: Round) {
        debug_assert_eq!(t, self.round, "rounds must be sequential");
        let n = self.reputation.len();
        let measured = self.measured();

        // Decay: old reputation fades.
        for r in self.reputation.iter_mut() {
            *r *= self.cfg.decay;
        }

        // Attack: fake praise tops targets up to their thresholds.
        if matches!(self.attack, ReputationAttack::Inflate { .. }) {
            for i in 0..n {
                if self.targeted[i] && self.reputation[i] < self.cfg.threshold {
                    let need = self.cfg.threshold - self.reputation[i];
                    self.reputation[i] = self.cfg.threshold;
                    if measured {
                        self.injected += need;
                    }
                }
            }
        }
        // Observation 3.1 harness: fed nodes are re-topped after decay.
        if !self.fed.is_empty() {
            let fed = std::mem::take(&mut self.fed);
            for i in fed {
                if self.reputation[i] < self.cfg.threshold {
                    self.reputation[i] = self.cfg.threshold;
                }
            }
        }

        self.below.clear();
        for (i, &r) in self.reputation.iter().enumerate() {
            if r < self.cfg.threshold {
                self.below.insert(i);
            }
        }

        // The round's requests, served one at a time (reputation earned by
        // an early request can satiate a volunteer out of a later one).
        let mut rng = self.rng.fork_idx("round", t);
        for _ in 0..self.cfg.requests_per_round {
            let requester = rng.index(n);
            if measured {
                self.requests += 1;
            }
            if self.reputation[requester] < self.cfg.access_bar {
                if measured {
                    self.denied += 1;
                }
                continue;
            }
            // One availability flip per other agent, ascending — drawn
            // whatever its reputation — then a uniform pick among the
            // available agents below threshold.
            self.peers.remove(requester);
            self.volunteers
                .sample_from(&self.peers, self.cfg.availability, &mut rng);
            self.peers.insert(requester);
            self.volunteers.intersect_with(&self.below);
            let count = self.volunteers.len();
            if count > 0 {
                let p = self.volunteers.nth(rng.index(count)).expect("count > 0");
                self.reputation[p] += 1.0; // service earns reputation
                if self.reputation[p] >= self.cfg.threshold {
                    self.below.remove(p);
                }
                self.served[p] += 1;
                if measured {
                    self.served_count += 1;
                }
            } else if measured {
                self.no_volunteer += 1;
            }
        }

        // Satiation sampling.
        if measured {
            for i in 0..n {
                if self.targeted[i] {
                    self.target_samples += 1;
                    if self.reputation[i] >= self.cfg.threshold {
                        self.target_satiated += 1;
                    }
                }
            }
        }
        self.round = t + 1;
    }

    fn rounds_run(&self) -> Round {
        self.round
    }
}

impl Satiable for ReputationSim {
    fn node_count(&self) -> u32 {
        self.reputation.len() as u32
    }

    /// Reputation-satiated: banked enough reputation to rest.
    fn is_satiated(&self, node: NodeId) -> bool {
        self.reputation[node.index()] >= self.cfg.threshold
    }

    fn service_provided(&self, node: NodeId) -> u64 {
        self.served[node.index()]
    }
}

impl Feedable for ReputationSim {
    /// Inject enough fake praise to satiate the node now — and keep it
    /// satiated through the coming round's decay ("sufficiently rapidly").
    fn feed_fully(&mut self, node: NodeId) {
        let r = &mut self.reputation[node.index()];
        if *r < self.cfg.threshold {
            *r = self.cfg.threshold;
        }
        self.fed.insert(node.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_core::satiation::observation_3_1;

    fn quick_cfg() -> ReputationConfig {
        ReputationConfig {
            agents: 60,
            rounds: 2_000,
            warmup: 200,
            ..ReputationConfig::default()
        }
    }

    #[test]
    fn healthy_reputation_economy_serves() {
        let report = ReputationSim::new(quick_cfg(), ReputationAttack::None, 1).run_to_report();
        assert!(report.service_rate > 0.9, "service {}", report.service_rate);
        assert_eq!(report.attacker_cost_per_round, 0.0);
        assert!(report.target_satiation.is_none());
    }

    #[test]
    fn validation_catches_bad_parameters() {
        for (mutate, _name) in [
            (
                Box::new(|c: &mut ReputationConfig| c.agents = 1) as Box<dyn Fn(&mut _)>,
                "agents",
            ),
            (Box::new(|c: &mut ReputationConfig| c.decay = 0.0), "decay"),
            (
                Box::new(|c: &mut ReputationConfig| c.decay = 1.5),
                "decay hi",
            ),
            (
                Box::new(|c: &mut ReputationConfig| c.threshold = 0.0),
                "threshold",
            ),
            (
                Box::new(|c: &mut ReputationConfig| c.availability = -0.1),
                "avail",
            ),
            (Box::new(|c: &mut ReputationConfig| c.rounds = 0), "rounds"),
        ] {
            let mut cfg = quick_cfg();
            mutate(&mut cfg);
            assert!(cfg.validate().is_err());
            assert!(!format!("{}", cfg.validate().unwrap_err()).is_empty());
        }
    }

    #[test]
    fn validation_rejects_non_finite_and_negative_scores() {
        let bad = |mutate: fn(&mut ReputationConfig)| {
            let mut cfg = quick_cfg();
            mutate(&mut cfg);
            cfg.validate().unwrap_err()
        };
        use ReputationConfigError as E;
        assert!(matches!(bad(|c| c.threshold = f64::NAN), E::BadThreshold(t) if t.is_nan()));
        assert_eq!(
            bad(|c| c.threshold = f64::INFINITY),
            E::BadThreshold(f64::INFINITY)
        );
        assert_eq!(bad(|c| c.initial = -1.0), E::BadInitial(-1.0));
        assert!(matches!(bad(|c| c.initial = f64::NAN), E::BadInitial(r) if r.is_nan()));
        assert_eq!(
            bad(|c| c.initial = f64::INFINITY),
            E::BadInitial(f64::INFINITY)
        );
        assert_eq!(bad(|c| c.access_bar = -0.1), E::BadAccessBar(-0.1));
        assert!(matches!(bad(|c| c.access_bar = f64::NAN), E::BadAccessBar(b) if b.is_nan()));
        assert_eq!(
            bad(|c| c.access_bar = f64::INFINITY),
            E::BadAccessBar(f64::INFINITY)
        );
        assert_eq!(bad(|c| c.rounds = 0), E::ZeroRounds);
        assert_eq!(bad(|c| c.requests_per_round = 0), E::ZeroRequests);
        assert_eq!(
            E::ZeroRequests.to_string(),
            "need at least one request per round"
        );
        // The boundaries themselves stay valid.
        let mut edge = quick_cfg();
        edge.initial = 0.0;
        edge.access_bar = 0.0;
        assert_eq!(edge.validate(), Ok(()));
    }

    #[test]
    fn inflation_attack_satiates_targets_at_linear_cost() {
        let attack = ReputationAttack::Inflate {
            target_fraction: 0.3,
        };
        let report = ReputationSim::new(quick_cfg(), attack, 2).run_to_report();
        let sat = report.target_satiation.expect("targets exist");
        assert!(sat > 0.95, "inflation keeps targets satiated: {sat}");
        // Maintenance ≈ k·(1-δ) per target per round: 18 targets × 4 × 0.05
        // (slightly less in practice: targets also earn a little before
        // satiating fully at warm-up's edge).
        let expected = 18.0 * 4.0 * 0.05;
        assert!(
            report.attacker_cost_per_round > expected * 0.5
                && report.attacker_cost_per_round < expected * 1.5,
            "cost {} vs expected ~{expected}",
            report.attacker_cost_per_round
        );
    }

    #[test]
    fn no_hard_cap_unlike_scrip() {
        // Even targeting 90% of agents, reputation inflation succeeds —
        // there is no conserved supply to run out of. (Contrast with the
        // scrip test `money_supply_bounds_satiable_fraction`, where the
        // same coverage is impossible.) The attacker's bill merely grows
        // linearly with the target count.
        let at = |frac| {
            ReputationSim::new(
                quick_cfg(),
                ReputationAttack::Inflate {
                    target_fraction: frac,
                },
                3,
            )
            .run_to_report()
        };
        let small = at(0.3);
        let large = at(0.9);
        assert!(
            large.target_satiation.unwrap() > 0.95,
            "no supply wall stops the attacker: {:?}",
            large.target_satiation
        );
        let ratio = large.attacker_cost_per_round / small.attacker_cost_per_round;
        assert!(
            (2.0..4.5).contains(&ratio),
            "cost grows ~linearly in targets (3x targets), got ratio {ratio}"
        );
    }

    #[test]
    fn faster_decay_raises_the_attackers_bill() {
        let attack = ReputationAttack::Inflate {
            target_fraction: 0.3,
        };
        let slow = ReputationSim::new(
            ReputationConfig {
                decay: 0.99,
                ..quick_cfg()
            },
            attack,
            4,
        )
        .run_to_report();
        let fast = ReputationSim::new(
            ReputationConfig {
                decay: 0.80,
                ..quick_cfg()
            },
            attack,
            4,
        )
        .run_to_report();
        assert!(
            fast.attacker_cost_per_round > slow.attacker_cost_per_round * 2.0,
            "decay is the defense knob: {} vs {}",
            fast.attacker_cost_per_round,
            slow.attacker_cost_per_round
        );
    }

    #[test]
    fn observation_3_1_holds_here_too() {
        let mut sim = ReputationSim::new(quick_cfg(), ReputationAttack::None, 5);
        let report = observation_3_1(&mut sim, NodeId(7), 200);
        assert!(
            report.holds,
            "a reputation-satiated agent never volunteers: {report:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let attack = ReputationAttack::Inflate {
            target_fraction: 0.2,
        };
        let a = ReputationSim::new(quick_cfg(), attack, 9).run_to_report();
        let b = ReputationSim::new(quick_cfg(), attack, 9).run_to_report();
        assert_eq!(a, b);
    }

    #[test]
    fn reputation_never_negative() {
        let mut sim = ReputationSim::new(quick_cfg(), ReputationAttack::None, 6);
        for t in 0..2_000 {
            sim.round(t);
            for i in 0..60 {
                assert!(sim.reputation(NodeId(i)) >= 0.0);
            }
        }
    }
}
