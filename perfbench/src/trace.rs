//! Spans, self time and order statistics.
//!
//! The benchmark records one span around each call it makes into a
//! layer of the program. Spans are kept in memory and written out when
//! the run ends; per-layer numbers are computed from them here.

use std::fmt::Write;

/// What a span wraps. The layer is the part of the name before the dot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One repetition of the figure, from the first call to the table.
    Rep,
    /// `runner::parse_args`.
    RunnerParse,
    /// Crossover extraction and figure assembly.
    RunnerFold,
    /// `runner::render_figure`.
    RunnerRender,
    /// `ScenarioRegistry::standard`.
    RegistryNew,
    /// `ScenarioRegistry::build`.
    RegistryBuild,
    /// One `sweep_fraction` call.
    Sweep,
    /// One `(x, seed)` job inside a sweep.
    SweepJob,
    /// `DynScenario::step_dyn`.
    SimStep,
    /// `DynScenario::report_dyn`.
    Report,
}

impl Kind {
    /// Span name, `layer.call`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Rep => "bench.rep",
            Kind::RunnerParse => "runner.parse",
            Kind::RunnerFold => "runner.fold",
            Kind::RunnerRender => "runner.render",
            Kind::RegistryNew => "registry.new",
            Kind::RegistryBuild => "registry.build",
            Kind::Sweep => "sweep.call",
            Kind::SweepJob => "sweep.job",
            Kind::SimStep => "sim.step",
            Kind::Report => "report.call",
        }
    }

    /// The layer (module) the span belongs to.
    pub fn layer(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("span names are layer.call")]
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call: nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span wraps.
    pub kind: Kind,
    /// Index of the causing span in the same list, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Wall-clock self time of every span, in ns.
///
/// A span's self time is the part of its interval that none of its child
/// spans cover: parent minus covered children. Where several spans have
/// no active child at the same instant (two sweep workers each inside a
/// step), that instant is split evenly between them, so the self times of
/// all spans sum to the wall time the root spans cover. In a run without
/// concurrency the split never happens and this is exactly the parent's
/// duration minus the union of its children's intervals.
///
/// Parents must precede their children in `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    // (time, order, index): ends sort before starts at the same instant,
    // children end before and start after their parents.
    let mut events: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start, 1, i as i64, i));
        events.push((s.end, 0, -(i as i64), i));
    }
    events.sort_unstable();
    let mut own = vec![0.0f64; spans.len()];
    let mut active = vec![false; spans.len()];
    let mut busy_children = vec![0u32; spans.len()];
    let mut leaves: Vec<usize> = Vec::new();
    let mut last = events.first().map_or(0, |e| e.0);
    for &(t, is_start, _, i) in &events {
        if t > last && !leaves.is_empty() {
            let share = (t - last) as f64 / leaves.len() as f64;
            for &l in &leaves {
                own[l] += share;
            }
        }
        last = t;
        let parent = spans[i].parent as usize;
        let has_parent = spans[i].parent != NO_PARENT && active[parent];
        if is_start == 1 {
            active[i] = true;
            leaves.push(i);
            if has_parent {
                busy_children[parent] += 1;
                if busy_children[parent] == 1 {
                    leaves.retain(|&l| l != parent);
                }
            }
        } else {
            active[i] = false;
            leaves.retain(|&l| l != i);
            if has_parent {
                busy_children[parent] -= 1;
                if busy_children[parent] == 0 {
                    leaves.push(parent);
                }
            }
        }
    }
    own
}

/// The highest of p50, p90, p99 and p99.9 that has at least ten samples
/// above it, as `(percentile, rank)`; `None` below ten samples.
pub fn tail_rank(n: usize) -> Option<(f64, usize)> {
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        let rank = nearest_rank(n, p / 100.0)?;
        (n - 1 - rank >= 10).then_some((p, rank))
    })
}

/// Nearest-rank index of quantile `q` in `n` sorted samples.
pub fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    (n > 0).then(|| (((n - 1) as f64 * q).round() as usize).min(n - 1))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Whether `name` fits the metric-name grammar `[A-Za-z0-9_.-]+` and
/// starts with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Spans as tab-separated lines: `index parent name start_ns end_ns`
/// (`parent` is `-` for a root).
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::from("index\tparent\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}",
            s.kind.name(),
            s.start,
            s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: u32, start: u64, end: u64) -> Span {
        Span {
            kind,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        // rep [0,100) with parse [0,10), sweep [10,90) holding two
        // sequential jobs [20,40) and [50,80), render [90,100).
        let spans = [
            span(Kind::Rep, NO_PARENT, 0, 100),
            span(Kind::RunnerParse, 0, 0, 10),
            span(Kind::Sweep, 0, 10, 90),
            span(Kind::SweepJob, 2, 20, 40),
            span(Kind::SweepJob, 2, 50, 80),
            span(Kind::RunnerRender, 0, 90, 100),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![0.0, 10.0, 30.0, 20.0, 30.0, 10.0]);
        assert_eq!(own.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_split() {
        // Two workers: jobs [10,60) and [30,80) under sweep [0,100).
        let spans = [
            span(Kind::Sweep, NO_PARENT, 0, 100),
            span(Kind::SweepJob, 0, 10, 60),
            span(Kind::SweepJob, 0, 30, 80),
        ];
        let own = self_times(&spans);
        // Sweep keeps what no job covers: 100 - |[10,80)| = 30.
        assert_eq!(own[0], 30.0);
        // [30,60) is shared: each job gets half of it.
        assert_eq!(own[1], 20.0 + 15.0);
        assert_eq!(own[2], 20.0 + 15.0);
        assert_eq!(own.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn nested_children_at_shared_instants() {
        // A step starting and ending with its job.
        let spans = [
            span(Kind::SweepJob, NO_PARENT, 0, 10),
            span(Kind::SimStep, 0, 0, 10),
        ];
        assert_eq!(self_times(&spans), vec![0.0, 10.0]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_above_it() {
        assert_eq!(tail_rank(9), None);
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(21), Some((50.0, 10)));
        assert_eq!(tail_rank(100), Some((90.0, 89)));
        assert_eq!(tail_rank(110), Some((90.0, 98)));
        assert_eq!(tail_rank(1000), Some((99.0, 989)));
        assert_eq!(tail_rank(1100), Some((99.0, 1088)));
        assert_eq!(tail_rank(20000), Some((99.9, 19979)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["wall_s", "sim.step_p50_us", "a-b.c_9", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "q\"uote",
            "slash/",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_span_name_is_a_metric_prefix() {
        for k in [
            Kind::Rep,
            Kind::RunnerParse,
            Kind::RunnerFold,
            Kind::RunnerRender,
            Kind::RegistryNew,
            Kind::RegistryBuild,
            Kind::Sweep,
            Kind::SweepJob,
            Kind::SimStep,
            Kind::Report,
        ] {
            assert!(valid_metric_name(k.name()));
            assert!(k.name().starts_with(k.layer()));
        }
    }
}
