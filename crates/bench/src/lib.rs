//! `lotus-bench` — the figure/table regeneration harness.
//!
//! The heart of the crate is the unified runner: [`registry`] maps every
//! substrate to a named [`ScenarioSpec`](registry::ScenarioSpec) driven
//! through the `lotus_core::scenario` API, and [`runner`] is the single
//! CLI (`lotus-bench --scenario ... --attack ...`) that sweeps any of
//! them. Every paper artifact is a named preset over that CLI:
//! `lotus-bench --preset NAME` with `table1`, `fig1`, `fig2`, `fig3` for
//! the paper's quantitative evaluation and `ext_*` for the experiments
//! that measure its §1/§3/§4 analytical claims (see EXPERIMENTS.md).
//!
//! Every preset accepts `--quick` (fewer seeds and sweep points) so CI
//! can smoke-test it, plus every other runner flag (`--seeds`, `--format
//! json`, extra `--param`s), and prints the blocks the harness promises:
//! a CSV of the series, an ASCII rendering of the figure, and — where
//! paper values exist — a paper-vs-measured crossover table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod preset;
pub mod registry;
pub mod runner;
pub mod timing;

use bar_gossip::{AttackKind, AttackPlan, BarGossipConfig, BarGossipSim};
use lotus_core::sweep::{sweep_fraction, SweepConfig};
use netsim::metrics::Series;

/// Sweep fidelity, selected by the `--quick` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Full sweep: paper-quality resolution (default).
    Full,
    /// Smoke-test sweep for CI.
    Quick,
}

impl Fidelity {
    /// Seeds to average over.
    pub fn seeds(self) -> usize {
        match self {
            Fidelity::Full => 5,
            Fidelity::Quick => 2,
        }
    }

    /// Points on the attacker-fraction axis over `[lo, hi]`.
    pub fn grid(self, lo: f64, hi: f64) -> Vec<f64> {
        let points = match self {
            Fidelity::Full => 21,
            Fidelity::Quick => 7,
        };
        lotus_core::sweep::grid(lo, hi, points)
    }

    /// Timed iterations per scenario in `--bench` mode.
    pub fn bench_iters(self) -> u32 {
        match self {
            Fidelity::Full => 12,
            Fidelity::Quick => 3,
        }
    }

    /// Untimed warmup runs per scenario in `--bench` mode.
    pub fn bench_warmup(self) -> u32 {
        match self {
            Fidelity::Full => 3,
            Fidelity::Quick => 1,
        }
    }
}

/// Run one attack curve over attacker fractions for a BAR Gossip config:
/// y = mean isolated-node delivery.
pub fn attack_curve(
    label: impl Into<String>,
    kind: AttackKind,
    cfg: &BarGossipConfig,
    xs: &[f64],
    sweep: &SweepConfig,
) -> Series {
    let cfg = cfg.clone();
    sweep_fraction(label, xs, sweep, move |x, seed| {
        let plan = match kind {
            AttackKind::None => AttackPlan::none(),
            AttackKind::Crash => AttackPlan::crash(x),
            AttackKind::IdealLotusEater => {
                AttackPlan::ideal_lotus_eater(x, AttackPlan::PAPER_SATIATE_FRACTION)
            }
            AttackKind::TradeLotusEater => {
                AttackPlan::trade_lotus_eater(x, AttackPlan::PAPER_SATIATE_FRACTION)
            }
            AttackKind::Masquerade => AttackPlan::masquerade(x),
            // Full-strength withholding; use the registry's
            // `poison_rate` param for graded curves.
            AttackKind::Poison => AttackPlan::poison(x, 1.0),
        };
        BarGossipSim::new(cfg.clone(), plan, seed)
            .run_to_report()
            .isolated_delivery()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_parameters() {
        assert_eq!(Fidelity::Full.seeds(), 5);
        assert_eq!(Fidelity::Quick.seeds(), 2);
        assert_eq!(Fidelity::Quick.grid(0.0, 1.0).len(), 7);
        assert_eq!(Fidelity::Full.grid(0.0, 1.0).len(), 21);
    }

    #[test]
    fn attack_curve_produces_points() {
        let cfg = BarGossipConfig::builder()
            .nodes(40)
            .updates_per_round(4)
            .copies_seeded(5)
            .rounds(10)
            .warmup_rounds(5)
            .build()
            .unwrap();
        let sweep = SweepConfig {
            seeds: vec![1],
            threads: 2,
        };
        let s = attack_curve("crash", AttackKind::Crash, &cfg, &[0.0, 0.5], &sweep);
        assert_eq!(s.points.len(), 2);
        assert!(s.points[0].1 >= s.points[1].1, "crash hurts");
    }
}
