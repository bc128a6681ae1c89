//! Shared reporting vocabulary: usability thresholds and crossover records.
//!
//! BAR Gossip's evaluation uses a hard usability rule — "nodes need to
//! receive more than 93% of the updates for the stream to be usable" — and
//! the paper's headline numbers are the attacker fractions at which each
//! attack first drives isolated nodes below that line. This module carries
//! that vocabulary so every experiment reports the same way.

use netsim::metrics::Series;

/// A service-usability threshold on a `[0, 1]` delivery metric.
///
/// ```
/// use lotus_core::report::UsabilityThreshold;
/// let u = UsabilityThreshold::BAR_GOSSIP;
/// assert!(u.usable(0.95));
/// assert!(!u.usable(0.90));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsabilityThreshold(pub f64);

impl UsabilityThreshold {
    /// The BAR Gossip streaming threshold from the paper: > 93 %.
    pub const BAR_GOSSIP: UsabilityThreshold = UsabilityThreshold(0.93);

    /// Whether a delivery fraction clears the threshold.
    pub fn usable(self, delivered: f64) -> bool {
        delivered > self.0
    }

    /// The smallest attacker fraction at which `curve` first drops to or
    /// below the threshold (interpolated), i.e. the attack's *break point*.
    pub fn break_point(self, curve: &Series) -> Option<f64> {
        curve.crossover_below(self.0)
    }
}

impl Default for UsabilityThreshold {
    fn default() -> Self {
        UsabilityThreshold::BAR_GOSSIP
    }
}

/// A paper-vs-measured record for one experiment curve, as written into
/// EXPERIMENTS.md by the bench presets.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverRecord {
    /// Curve label (e.g. `"Trade lotus-eater attack"`).
    pub label: String,
    /// The crossover fraction the paper reports, if it reports one.
    pub paper: Option<f64>,
    /// The crossover fraction we measured, if the curve crosses.
    pub measured: Option<f64>,
}

impl CrossoverRecord {
    /// Build a record by extracting the measured break point from a curve.
    pub fn from_curve(curve: &Series, threshold: UsabilityThreshold, paper: Option<f64>) -> Self {
        CrossoverRecord {
            label: curve.label.clone(),
            paper,
            measured: threshold.break_point(curve),
        }
    }

    /// `true` when both values exist and the measured break point is
    /// within `tol` (absolute) of the paper's.
    pub fn matches_paper(&self, tol: f64) -> bool {
        match (self.paper, self.measured) {
            (Some(p), Some(m)) => (p - m).abs() <= tol,
            _ => false,
        }
    }
}

impl std::fmt::Display for CrossoverRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "-".to_string(),
        };
        write!(
            f,
            "{}: paper {} / measured {}",
            self.label,
            fmt_opt(self.paper),
            fmt_opt(self.measured)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn falling_curve() -> Series {
        let mut s = Series::new("Trade lotus-eater attack");
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            s.push(x, 1.0 - x * x); // crosses 0.93 near x = 0.2646
        }
        s
    }

    #[test]
    fn threshold_semantics_are_strict() {
        let u = UsabilityThreshold::BAR_GOSSIP;
        assert!(!u.usable(0.93), "paper says strictly more than 93%");
        assert!(u.usable(0.9301));
    }

    #[test]
    fn break_point_extraction() {
        let u = UsabilityThreshold::BAR_GOSSIP;
        let x = u.break_point(&falling_curve()).unwrap();
        assert!((x - 0.2646).abs() < 0.02, "got {x}");
    }

    #[test]
    fn record_matches_within_tolerance() {
        let rec = CrossoverRecord::from_curve(
            &falling_curve(),
            UsabilityThreshold::BAR_GOSSIP,
            Some(0.22),
        );
        assert!(rec.matches_paper(0.10));
        assert!(!rec.matches_paper(0.01));
    }

    #[test]
    fn record_without_crossing() {
        let mut flat = Series::new("no attack");
        flat.push(0.0, 1.0);
        flat.push(1.0, 0.99);
        let rec = CrossoverRecord::from_curve(&flat, UsabilityThreshold::BAR_GOSSIP, None);
        assert_eq!(rec.measured, None);
        assert!(!rec.matches_paper(1.0));
        assert_eq!(format!("{rec}"), "no attack: paper - / measured -");
    }

    #[test]
    fn display_formats_values() {
        let rec = CrossoverRecord {
            label: "x".into(),
            paper: Some(0.42),
            measured: Some(0.4321),
        };
        assert_eq!(format!("{rec}"), "x: paper 0.420 / measured 0.432");
    }

    #[test]
    fn default_is_bar_gossip() {
        assert_eq!(UsabilityThreshold::default(), UsabilityThreshold(0.93));
    }
}
