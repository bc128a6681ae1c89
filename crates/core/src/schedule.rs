//! Attack schedules: *when* the lotus-eater strikes, as a first-class,
//! cross-substrate dimension.
//!
//! The lotus-eater attack is fundamentally about timing: attackers behave
//! well, then abruptly stop participating, and may oscillate or re-defect
//! to keep the system off balance (§2: "By changing who is satiated over
//! time, the attacker could even make the service intermittently unusable
//! for all nodes"). Every substrate used to hard-code its own onset and
//! rotation logic; this module factors the timing dimension out:
//!
//! * [`Trigger`] — when the attack turns on: immediately ([`Trigger::Always`]),
//!   at a fixed round ([`Trigger::AtRound`]), inside a window
//!   ([`Trigger::Window`]), oscillating ([`Trigger::Periodic`]), or when an
//!   observed [`ScenarioReport`](crate::scenario::ScenarioReport) metric
//!   crosses a threshold ([`Trigger::MetricThreshold`] — the adaptive
//!   "strike when the system looks healthy" attacker);
//! * [`AttackSchedule`] — a trigger plus an optional target-rotation
//!   period, `Copy`, parseable from the `lotus-bench --schedule` grammar;
//! * [`ScheduleState`] — the deterministic per-run stepper every sim's
//!   environment ([`crate::env::Env`]) embeds; one `is_active` call per
//!   round decides the phase (dormant/cooperate vs defect);
//! * [`rotating_window`] — the shared rotation arithmetic that used to be
//!   copied into `RotatingSatiation` and the BAR Gossip simulator.
//!
//! # Hot-loop allocation invariants
//!
//! [`ScheduleState::is_active`] and [`rotating_window`] never allocate and
//! never draw randomness: the schedule is a pure function of the round
//! index, the latch bit and (for metric triggers, only while unlatched)
//! one observed metric the caller computes from its own counters. Sims
//! must keep their metric observation allocation-free too — every
//! substrate derives the canonical metrics from running counters, not
//! from a full report. The default [`AttackSchedule::always`] schedule is
//! observation-free and reproduces pre-schedule behaviour bit-identically
//! per seed (the golden tests in `crates/bench/tests/schedule_golden.rs`
//! are the guardrail).

use netsim::Round;

/// The canonical [`ScenarioReport`](crate::scenario::ScenarioReport)
/// metrics a [`Trigger::MetricThreshold`] may observe.
///
/// Restricting triggers to the canonical vocabulary keeps
/// [`AttackSchedule`] `Copy` (no metric-name strings) and makes the same
/// schedule meaningful against every substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKey {
    /// Service delivered to the honest population (`overall_delivery`).
    OverallDelivery,
    /// Service enjoyed by the attacker's targets (`targeted_service`).
    TargetedService,
    /// The fraction of the population currently present
    /// (`present_fraction`, from
    /// [`Population::present_fraction`](crate::population::Population::present_fraction)).
    /// Lets a schedule key on membership dynamics — e.g. `presence-above`
    /// strikes the instant a flash crowd lands, `presence-below` waits
    /// for churn to thin the honest pool. Unlike the delivery metrics
    /// this is live membership state, not a report metric.
    PresentFraction,
    /// The fraction of honest nodes a cut-off defense has wrongly cut so
    /// far (`false_cut_rate`). Only substrates running such a defense
    /// can answer it (from their cut counters, allocation-free); others
    /// report no observation. Lets schedules and defense-side bandits
    /// key on collateral damage — e.g. `falsecut-above` backs a defense
    /// off once it starts cutting everyone.
    FalseCutRate,
}

impl MetricKey {
    /// The metric's name in the common report vocabulary (for
    /// [`MetricKey::PresentFraction`], the observation's own name — the
    /// value is live membership state, not a report metric).
    pub fn name(self) -> &'static str {
        match self {
            MetricKey::OverallDelivery => "overall_delivery",
            MetricKey::TargetedService => "targeted_service",
            MetricKey::PresentFraction => "present_fraction",
            MetricKey::FalseCutRate => "false_cut_rate",
        }
    }
}

/// When an attack is *on*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Active from round 0 (the default; pre-schedule behaviour).
    Always,
    /// Dormant until `round`, active from then on.
    AtRound(Round),
    /// Active only for rounds in `[from, until)`.
    Window {
        /// First active round.
        from: Round,
        /// First round after the attack stops.
        until: Round,
    },
    /// Oscillating: of every `period` rounds, the first `active_rounds`
    /// are on, the rest off — the re-defecting lotus-eater.
    Periodic {
        /// Cycle length in rounds (must be positive).
        period: Round,
        /// Active rounds at the start of each cycle.
        active_rounds: Round,
    },
    /// Dormant until the observed metric crosses a threshold, then active
    /// forever (the trigger latches). `above == true` fires when the
    /// metric is `>= value` — the patient attacker that waits for the
    /// system to look healthy before defecting.
    MetricThreshold {
        /// Which canonical metric to observe.
        metric: MetricKey,
        /// Threshold value.
        value: f64,
        /// Fire on `metric >= value` (else on `metric <= value`).
        above: bool,
    },
}

/// A complete attack timing specification: trigger plus optional target
/// rotation, plus — since the adaptive-attacker layer — an optional
/// closed-loop bandit policy that overrides the open-loop trigger.
///
/// ```
/// use lotus_core::schedule::{AttackSchedule, ScheduleState};
///
/// // On for 5 rounds of every 10, starting dormant-free at round 0.
/// let sched = AttackSchedule::oscillating(10, 5);
/// let mut state = ScheduleState::new(sched);
/// assert!(state.is_active(0, None));
/// assert!(state.is_active(4, None));
/// assert!(!state.is_active(5, None));
/// assert!(state.is_active(10, None));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackSchedule {
    /// When the attack is on (ignored while `adaptive` is set: the
    /// bandit's arm owns the activity switch then).
    pub trigger: Trigger,
    /// Rotate the target set every this many rounds while attacking
    /// (`None` keeps the set fixed). The rotation phase at round `t` is
    /// `t / period`; [`rotating_window`] turns a phase into a target
    /// slice. Under an adaptive policy the period equals the policy's
    /// phase length and the phase is the policy's sliding-arm counter.
    pub rotation: Option<Round>,
    /// Closed-loop arm selection
    /// ([`AdaptiveSpec`](crate::adaptive::AdaptiveSpec)): when set, a
    /// bandit chooses the cooperate/defect/rotate behaviour each phase
    /// from observed damage and the open-loop `trigger` is ignored.
    pub adaptive: Option<crate::adaptive::AdaptiveSpec>,
}

impl Default for AttackSchedule {
    fn default() -> Self {
        AttackSchedule::always()
    }
}

impl AttackSchedule {
    /// The default schedule: attack from round 0, fixed targets. Runs
    /// under this schedule are bit-identical to pre-schedule behaviour.
    pub fn always() -> Self {
        AttackSchedule {
            trigger: Trigger::Always,
            rotation: None,
            adaptive: None,
        }
    }

    /// Dormant until `round`, then active forever.
    pub fn at(round: Round) -> Self {
        AttackSchedule {
            trigger: Trigger::AtRound(round),
            rotation: None,
            adaptive: None,
        }
    }

    /// Active only during `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn window(from: Round, until: Round) -> Self {
        assert!(until > from, "schedule window must be non-empty");
        AttackSchedule {
            trigger: Trigger::Window { from, until },
            rotation: None,
            adaptive: None,
        }
    }

    /// Oscillating: on for the first `active_rounds` of every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `active_rounds` is not in `1..=period`.
    pub fn oscillating(period: Round, active_rounds: Round) -> Self {
        assert!(period > 0, "oscillation period must be positive");
        assert!(
            active_rounds > 0 && active_rounds <= period,
            "active rounds must be in 1..=period"
        );
        AttackSchedule {
            trigger: Trigger::Periodic {
                period,
                active_rounds,
            },
            rotation: None,
            adaptive: None,
        }
    }

    /// Dormant until `metric >= value` is observed, then active forever.
    pub fn when_above(metric: MetricKey, value: f64) -> Self {
        AttackSchedule {
            trigger: Trigger::MetricThreshold {
                metric,
                value,
                above: true,
            },
            rotation: None,
            adaptive: None,
        }
    }

    /// Dormant until `metric <= value` is observed, then active forever.
    pub fn when_below(metric: MetricKey, value: f64) -> Self {
        AttackSchedule {
            trigger: Trigger::MetricThreshold {
                metric,
                value,
                above: false,
            },
            rotation: None,
            adaptive: None,
        }
    }

    /// Rotate the target set every `period` rounds (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn with_rotation(mut self, period: Round) -> Self {
        assert!(period > 0, "rotation period must be positive");
        self.rotation = Some(period);
        self
    }

    /// Re-plan the attack each phase with a bandit policy (builder
    /// style): the open-loop trigger is superseded, and — when the
    /// policy can play a window-sliding arm — the rotation period
    /// becomes the policy's phase length so substrates re-aim their
    /// target window exactly at phase boundaries, through the same
    /// rotation switch static schedules use.
    pub fn with_adaptive(mut self, spec: crate::adaptive::AdaptiveSpec) -> Self {
        self.adaptive = Some(spec);
        self.rotation = if spec.can_rotate() {
            Some(spec.phase_len)
        } else {
            None
        };
        self
    }

    /// Whether this is the observation-free default.
    pub fn is_always(&self) -> bool {
        self.trigger == Trigger::Always && self.adaptive.is_none()
    }

    /// Parse the `lotus-bench --schedule` grammar:
    ///
    /// ```text
    /// always                     active from round 0 (default)
    /// at:<round>                 dormant until <round>
    /// window:<from>:<until>      active during [from, until)
    /// periodic:<period>:<active> on for <active> of every <period> rounds
    /// delivery-above:<x>         latch on once overall_delivery >= x
    /// delivery-below:<x>         latch on once overall_delivery <= x
    /// targeted-above:<x>         latch on once targeted_service >= x
    /// targeted-below:<x>         latch on once targeted_service <= x
    /// presence-above:<x>         latch on once present_fraction >= x
    ///                            (strike when the flash crowd lands)
    /// presence-below:<x>         latch on once present_fraction <= x
    ///                            (strike when churn thins the pool)
    /// falsecut-above:<x>         latch on once false_cut_rate >= x
    ///                            (react once the defense cuts everyone)
    /// falsecut-below:<x>         latch on once false_cut_rate <= x
    /// ```
    ///
    /// Rotation stays a separate per-substrate knob (`rotation_period` /
    /// `period`) so existing presets keep working.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn parse(spec: &str) -> Result<AttackSchedule, String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or_default();
        let mut num = |what: &str| -> Result<u64, String> {
            parts
                .next()
                .ok_or_else(|| format!("schedule {spec:?}: missing {what}"))?
                .parse::<u64>()
                .map_err(|_| format!("schedule {spec:?}: {what} is not an integer"))
        };
        let sched = match head {
            "always" => AttackSchedule::always(),
            "at" => AttackSchedule::at(num("round")?),
            "window" => {
                let from = num("start round")?;
                let until = num("end round")?;
                if until <= from {
                    return Err(format!("schedule {spec:?}: empty window"));
                }
                AttackSchedule::window(from, until)
            }
            "periodic" => {
                let period = num("period")?;
                let active = num("active rounds")?;
                if period == 0 || active == 0 || active > period {
                    return Err(format!(
                        "schedule {spec:?}: need 1 <= active <= period with period > 0"
                    ));
                }
                AttackSchedule::oscillating(period, active)
            }
            key @ ("delivery-above" | "delivery-below" | "targeted-above" | "targeted-below"
            | "presence-above" | "presence-below" | "falsecut-above" | "falsecut-below") => {
                let value = parts
                    .next()
                    .ok_or_else(|| format!("schedule {spec:?}: missing threshold"))?
                    .parse::<f64>()
                    .map_err(|_| format!("schedule {spec:?}: threshold is not a number"))?;
                let metric = if key.starts_with("delivery") {
                    MetricKey::OverallDelivery
                } else if key.starts_with("presence") {
                    MetricKey::PresentFraction
                } else if key.starts_with("falsecut") {
                    MetricKey::FalseCutRate
                } else {
                    MetricKey::TargetedService
                };
                if key.ends_with("above") {
                    AttackSchedule::when_above(metric, value)
                } else {
                    AttackSchedule::when_below(metric, value)
                }
            }
            other => {
                return Err(format!(
                    "unknown schedule {other:?} (always | at:<r> | window:<a>:<b> | \
                     periodic:<p>:<a> | delivery-above:<x> | delivery-below:<x> | \
                     targeted-above:<x> | targeted-below:<x> | presence-above:<x> | \
                     presence-below:<x> | falsecut-above:<x> | falsecut-below:<x>)"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("schedule {spec:?}: trailing fields"));
        }
        Ok(sched)
    }
}

/// The deterministic per-run schedule stepper a simulator embeds.
///
/// One [`ScheduleState::is_active`] call per round decides the phase. For
/// open-loop schedules the only mutable state is the metric-trigger
/// latch; with an adaptive policy the state additionally carries the
/// bandit's learning state — either way, cloning a sim clones its
/// schedule position exactly (replay-safe).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleState {
    spec: AttackSchedule,
    /// Metric triggers latch: once fired they stay fired.
    latched: bool,
    /// The bandit stepper, when `spec.adaptive` is set.
    /// Boxed: the bandit's learning state is ~20x the open-loop state,
    /// and almost every schedule ever stepped is open-loop.
    adaptive: Option<Box<crate::adaptive::AdaptivePolicy>>,
}

impl ScheduleState {
    /// Start stepping `spec` from round 0.
    ///
    /// An adaptive spec needs exploration randomness; this constructor
    /// seeds it from a fixed stream, so two runs differing only in their
    /// master seed would explore identically. The substrate environment
    /// ([`crate::env::Env`]) uses [`ScheduleState::seeded`] with a
    /// dedicated fork of the substrate's rng instead; `new` is for
    /// schedule-only contexts (tests, the always-on defaults) and
    /// non-adaptive specs, where the two constructors coincide.
    pub fn new(spec: AttackSchedule) -> Self {
        ScheduleState::seeded(spec, netsim::rng::DetRng::seed_from(0).fork("adaptive"))
    }

    /// Start stepping `spec` from round 0, drawing any adaptive-policy
    /// exploration randomness from `rng` (pass a dedicated fork, e.g.
    /// `sim_rng.fork("adaptive")`, so honest-path streams stay
    /// bit-identical whether or not the attacker adapts).
    pub fn seeded(spec: AttackSchedule, rng: netsim::rng::DetRng) -> Self {
        ScheduleState {
            spec,
            latched: false,
            adaptive: spec
                .adaptive
                .map(|a| Box::new(crate::adaptive::AdaptivePolicy::new(a, rng))),
        }
    }

    /// The schedule being stepped.
    pub fn spec(&self) -> &AttackSchedule {
        &self.spec
    }

    /// The adaptive policy's per-phase arm trace, when the schedule runs
    /// one (the `lotus-bench --arm-trace` payload).
    pub fn arm_trace(&self) -> Option<&[crate::adaptive::TraceEntry]> {
        self.adaptive.as_ref().map(|p| p.trace())
    }

    /// Which canonical metric the caller must observe *this round*, if
    /// any. `None` for every non-metric trigger and once a metric trigger
    /// has latched — so the default schedule never asks for observations
    /// and stays entirely out of the hot loop. Learning adaptive policies
    /// observe their reward metric every round; fixed-arm policies, like
    /// static triggers, never ask.
    pub fn needs_observation(&self) -> Option<MetricKey> {
        if let Some(policy) = &self.adaptive {
            let spec = policy.spec();
            return spec.needs_observation().then_some(spec.metric);
        }
        match self.spec.trigger {
            Trigger::MetricThreshold { metric, .. } if !self.latched => Some(metric),
            _ => None,
        }
    }

    /// Whether the attack is on in round `t`. For metric triggers the
    /// caller passes the metric value [`Self::needs_observation`] asked
    /// for, computed allocation-free from its own counters — or `None`
    /// when the metric has no data yet (e.g. delivery before the first
    /// measured expiry). A `None` observation never latches: an
    /// unmeasured metric is *absent*, not zero, so `delivery-below`
    /// triggers wait for real degradation instead of firing on the empty
    /// counters of round 0. Under an adaptive policy the same
    /// observation is the bandit's reward signal and the chosen arm
    /// decides activity. Never allocates (the bandit's once-per-phase
    /// trace entry aside).
    // lint: hot-loop
    pub fn is_active(&mut self, t: Round, observed: Option<f64>) -> bool {
        if let Some(policy) = &mut self.adaptive {
            return policy.step(t, observed);
        }
        match self.spec.trigger {
            Trigger::Always => true,
            Trigger::AtRound(r) => t >= r,
            Trigger::Window { from, until } => t >= from && t < until,
            Trigger::Periodic {
                period,
                active_rounds,
            } => t % period < active_rounds,
            Trigger::MetricThreshold { value, above, .. } => {
                if !self.latched {
                    if let Some(v) = observed {
                        let fired = if above { v >= value } else { v <= value };
                        if fired {
                            self.latched = true;
                        }
                    }
                }
                self.latched
            }
        }
    }

    /// The rotation phase at round `t` (`None` without rotation). Feed it
    /// to [`rotating_window`] to obtain the round's target slice. Static
    /// schedules rotate on the clock (`t / period`); adaptive ones rotate
    /// when the bandit plays a window-sliding arm, so the phase is the
    /// policy's sliding-arm counter.
    pub fn rotation_phase(&self, t: Round) -> Option<u64> {
        self.spec.rotation?;
        Some(match &self.adaptive {
            Some(policy) => policy.rotation_phase(),
            None => t / self.spec.rotation.expect("checked above"),
        })
    }
}

/// The shared canonical-metric observation for sims that account
/// delivery in per-class counters (`delivered`/`totals` indexed
/// isolated = 0, satiated = 1, attacker = 2 — the layout both gossip
/// substrates use). Returns `None` while the honest population has no
/// measured samples yet, so metric triggers do not mistake empty
/// counters for zero delivery. Allocation-free.
pub fn class_delivery_observation(
    delivered: &[u64; 3],
    totals: &[u64; 3],
    key: MetricKey,
) -> Option<f64> {
    let frac = |d: u64, t: u64| {
        if t == 0 {
            None
        } else {
            Some(d as f64 / t as f64)
        }
    };
    match key {
        MetricKey::OverallDelivery => frac(delivered[0] + delivered[1], totals[0] + totals[1]),
        MetricKey::TargetedService => frac(delivered[1], totals[1]),
        // Not delivery: the substrate environment answers these.
        MetricKey::PresentFraction | MetricKey::FalseCutRate => None,
    }
}

/// The shared rotation arithmetic: the indices (into a population of `n`)
/// targeted during rotation `phase`, a `k`-wide window sliding `k` steps
/// per phase. This is exactly the math `RotatingSatiation` and the BAR
/// Gossip rotation used to duplicate. Allocation-free; yields nothing
/// when `k == 0` or `n == 0`.
pub fn rotating_window(phase: u64, k: usize, n: usize) -> impl Iterator<Item = usize> {
    let start = if n == 0 {
        0
    } else {
        (phase as usize).wrapping_mul(k) % n
    };
    (0..if n == 0 { 0 } else { k }).map(move |i| (start + i) % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_is_always_on() {
        let mut s = ScheduleState::new(AttackSchedule::always());
        assert!(s.needs_observation().is_none());
        for t in 0..50 {
            assert!(s.is_active(t, None));
        }
    }

    #[test]
    fn at_round_turns_on_once() {
        let mut s = ScheduleState::new(AttackSchedule::at(10));
        assert!(!s.is_active(9, None));
        assert!(s.is_active(10, None));
        assert!(s.is_active(999, None));
    }

    #[test]
    fn window_turns_off_again() {
        let mut s = ScheduleState::new(AttackSchedule::window(5, 8));
        let on: Vec<Round> = (0..12).filter(|&t| s.is_active(t, None)).collect();
        assert_eq!(on, vec![5, 6, 7]);
    }

    #[test]
    fn periodic_oscillates() {
        let mut s = ScheduleState::new(AttackSchedule::oscillating(6, 2));
        let on: Vec<Round> = (0..13).filter(|&t| s.is_active(t, None)).collect();
        assert_eq!(on, vec![0, 1, 6, 7, 12]);
    }

    #[test]
    fn metric_trigger_latches() {
        let mut s = ScheduleState::new(AttackSchedule::when_above(MetricKey::OverallDelivery, 0.9));
        assert_eq!(s.needs_observation(), Some(MetricKey::OverallDelivery));
        assert!(!s.is_active(0, Some(0.5)));
        assert!(!s.is_active(1, None), "no observation, no latch");
        assert!(s.is_active(2, Some(0.95)), "fires on crossing");
        assert!(
            s.needs_observation().is_none(),
            "latched: no more observation"
        );
        assert!(
            s.is_active(3, Some(0.1)),
            "latch holds even if metric drops"
        );
    }

    #[test]
    fn no_data_observation_never_latches_below_triggers() {
        // An unmeasured metric is absent, not zero: a delivery-below
        // trigger must not fire while the caller reports None.
        let mut s = ScheduleState::new(AttackSchedule::when_below(MetricKey::OverallDelivery, 0.5));
        for t in 0..10 {
            assert!(!s.is_active(t, None), "no data, no latch");
        }
        assert!(s.is_active(10, Some(0.4)), "real degradation fires");
    }

    #[test]
    fn class_delivery_observation_handles_empty_counters() {
        let empty = class_delivery_observation(&[0; 3], &[0; 3], MetricKey::OverallDelivery);
        assert_eq!(empty, None, "no measured samples: no observation");
        let d = [30, 10, 0];
        let t = [40, 10, 0];
        assert_eq!(
            class_delivery_observation(&d, &t, MetricKey::OverallDelivery),
            Some(0.8)
        );
        assert_eq!(
            class_delivery_observation(&d, &t, MetricKey::TargetedService),
            Some(1.0)
        );
        assert_eq!(
            class_delivery_observation(&[5, 0, 0], &[10, 0, 0], MetricKey::TargetedService),
            None,
            "no satiated-set samples yet"
        );
    }

    #[test]
    fn metric_below_trigger() {
        let mut s = ScheduleState::new(AttackSchedule::when_below(MetricKey::TargetedService, 0.2));
        assert!(!s.is_active(0, Some(0.5)));
        assert!(s.is_active(1, Some(0.1)));
    }

    #[test]
    fn rotation_phase_and_window() {
        let s = ScheduleState::new(AttackSchedule::always().with_rotation(10));
        assert_eq!(s.rotation_phase(0), Some(0));
        assert_eq!(s.rotation_phase(19), Some(1));
        assert_eq!(
            ScheduleState::new(AttackSchedule::always()).rotation_phase(5),
            None
        );
        let w: Vec<usize> = rotating_window(1, 3, 10).collect();
        assert_eq!(w, vec![3, 4, 5]);
        let wrap: Vec<usize> = rotating_window(3, 3, 10).collect();
        assert_eq!(wrap, vec![9, 0, 1]);
        assert_eq!(rotating_window(5, 0, 10).count(), 0);
        assert_eq!(rotating_window(5, 3, 0).count(), 0);
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        assert_eq!(
            AttackSchedule::parse("always").unwrap(),
            AttackSchedule::always()
        );
        assert_eq!(
            AttackSchedule::parse("at:40").unwrap(),
            AttackSchedule::at(40)
        );
        assert_eq!(
            AttackSchedule::parse("window:5:9").unwrap(),
            AttackSchedule::window(5, 9)
        );
        assert_eq!(
            AttackSchedule::parse("periodic:20:10").unwrap(),
            AttackSchedule::oscillating(20, 10)
        );
        assert_eq!(
            AttackSchedule::parse("delivery-above:0.93").unwrap(),
            AttackSchedule::when_above(MetricKey::OverallDelivery, 0.93)
        );
        assert_eq!(
            AttackSchedule::parse("targeted-below:0.5").unwrap(),
            AttackSchedule::when_below(MetricKey::TargetedService, 0.5)
        );
        assert_eq!(
            AttackSchedule::parse("presence-above:0.95").unwrap(),
            AttackSchedule::when_above(MetricKey::PresentFraction, 0.95)
        );
        assert_eq!(
            AttackSchedule::parse("presence-below:0.6").unwrap(),
            AttackSchedule::when_below(MetricKey::PresentFraction, 0.6)
        );
        assert_eq!(
            AttackSchedule::parse("falsecut-above:0.1").unwrap(),
            AttackSchedule::when_above(MetricKey::FalseCutRate, 0.1)
        );
        assert_eq!(
            AttackSchedule::parse("falsecut-below:0.01").unwrap(),
            AttackSchedule::when_below(MetricKey::FalseCutRate, 0.01)
        );
    }

    #[test]
    fn presence_trigger_latches_on_membership() {
        // The flash-crowd striker: dormant while the crowd is outside,
        // latched the round the presence fraction crosses the bar.
        let mut s = ScheduleState::new(AttackSchedule::when_above(MetricKey::PresentFraction, 0.9));
        assert_eq!(s.needs_observation(), Some(MetricKey::PresentFraction));
        assert!(!s.is_active(0, Some(0.6)));
        assert!(s.is_active(1, Some(0.95)), "crowd landed: attack on");
        assert!(s.is_active(2, Some(0.3)), "latch holds through departures");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "sometimes",
            "at",
            "at:x",
            "window:5:5",
            "window:9:5",
            "periodic:0:0",
            "periodic:5:6",
            "delivery-above:high",
            "always:extra",
        ] {
            assert!(AttackSchedule::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_rotation_rejected() {
        let _ = AttackSchedule::always().with_rotation(0);
    }

    #[test]
    fn metric_key_names_match_report_vocabulary() {
        use crate::scenario::ScenarioReport;
        let r = ScenarioReport::new("x", 1, 0.25, 0.75, false);
        assert_eq!(r.metric(MetricKey::OverallDelivery.name()), Some(0.25));
        assert_eq!(r.metric(MetricKey::TargetedService.name()), Some(0.75));
    }
}
