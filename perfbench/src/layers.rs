//! Per-layer metrics from the spans of traced repetitions.

use std::collections::BTreeMap;

use lotus_bench::timing::StepTimings;

use crate::trace::{median, nearest_rank, self_times, tail_rank, Kind, Span};

/// The layers whose self times must account for the traced wall time,
/// with the metric each one's self time is reported as.
pub const LAYERS: [(&str, &str); 5] = [
    ("runner", "runner.self_s"),
    ("registry", "registry.self_s"),
    ("sweep", "sweep.self_s"),
    ("sim", "sim.self_s"),
    ("report", "report.self_s"),
];

/// Per-layer numbers over the traced repetitions of one run.
#[derive(Debug, Default)]
pub struct LayerStats {
    per_rep: BTreeMap<&'static str, Vec<f64>>,
    build_ns: Vec<u64>,
    step_ns: Vec<u64>,
    report_ns: Vec<u64>,
}

fn s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

impl LayerStats {
    /// Fold in one traced repetition run on `workers` sweep threads.
    pub fn add_rep(&mut self, spans: &[Span], workers: usize) {
        let own = self_times(spans);
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        for layer in LAYERS.iter().map(|l| l.0).chain(["bench"]) {
            m.insert(layer, 0.0);
        }
        let (mut sweep_wall, mut busy, mut slowest) = (0u64, 0u64, 0u64);
        let (mut builds, mut steps, mut jobs) = (0u64, 0u64, 0u64);
        let (mut build_sum, mut step_sum, mut report_sum) = (0u64, 0u64, 0u64);
        let (mut parse, mut render, mut wall) = (0u64, 0u64, 0u64);
        for (span, own_ns) in spans.iter().zip(&own) {
            *m.get_mut(span.kind.layer()).expect("known layer") += own_ns * 1e-9;
            let d = span.dur();
            match span.kind {
                Kind::Rep => wall += d,
                Kind::RunnerParse => parse += d,
                Kind::RunnerRender => render += d,
                Kind::RegistryBuild => {
                    builds += 1;
                    build_sum += d;
                    self.build_ns.push(d);
                }
                Kind::Sweep => sweep_wall += d,
                Kind::SweepJob => {
                    jobs += 1;
                    busy += d;
                    slowest = slowest.max(d);
                }
                Kind::SimStep => {
                    steps += 1;
                    step_sum += d;
                    self.step_ns.push(d);
                }
                Kind::Report => {
                    report_sum += d;
                    self.report_ns.push(d);
                }
                Kind::RunnerFold | Kind::RegistryNew => {}
            }
        }
        let capacity = workers as f64 * s(sweep_wall);
        let accounted: f64 = LAYERS.iter().map(|(l, _)| m[l]).sum();
        let mut put = |k: &'static str, v: f64| {
            self.per_rep.entry(k).or_default().push(v);
        };
        for (layer, key) in LAYERS {
            put(key, m[layer]);
        }
        put("trace.wall_s", s(wall));
        put("trace.accounted_share", accounted / s(wall));
        put("runner.parse_s", s(parse));
        put("runner.render_s", s(render));
        put("registry.builds", builds as f64);
        put("registry.build_s", s(build_sum));
        put("sim.steps", steps as f64);
        put("sim.step_s", s(step_sum));
        put("report.s", s(report_sum));
        put("sweep.jobs", jobs as f64);
        put("sweep.wall_s", s(sweep_wall));
        put("sweep.busy_s", s(busy));
        put("sweep.idle_s", capacity - s(busy));
        put("sweep.slowest_job_s", s(slowest));
        put("sweep.efficiency", s(busy) / capacity);
    }

    /// Traced repetitions folded in.
    fn reps(&self) -> usize {
        self.per_rep.get("trace.wall_s").map_or(0, Vec::len)
    }

    /// Medians over repetitions, plus order statistics over the pooled
    /// build, step and report samples.
    pub fn metrics(&mut self) -> BTreeMap<&'static str, f64> {
        let reps = self.reps().max(1) as f64;
        let mut out: BTreeMap<&'static str, f64> =
            self.per_rep.iter().map(|(k, v)| (*k, median(v))).collect();
        let us = |ns: u64| ns as f64 * 1e-3;
        let p50 = |v: &mut Vec<u64>| {
            v.sort_unstable();
            nearest_rank(v.len(), 0.5).map_or(0.0, |r| us(v[r]))
        };
        out.insert("registry.build_p50_us", p50(&mut self.build_ns));
        out.insert("report.p50_us", p50(&mut self.report_ns));
        let n = self.step_ns.len();
        out.insert("sim.step_samples", n as f64);
        if let Some(t) = StepTimings::from_samples(&mut self.step_ns) {
            // `from_samples` sorted the samples in place.
            out.insert("sim.step_p50_us", us(t.all.median_ns));
            let (pct, rank) = tail_rank(n).unwrap_or((100.0, n - 1));
            out.insert("sim.step_tail_pct", pct);
            out.insert("sim.step_tail_us", us(self.step_ns[rank]));
            let (burst_n, burst_ns) = t
                .burst
                .map_or((0, 0), |b| (b.samples, b.mean_ns * b.samples));
            out.insert("sim.burst_steps", burst_n as f64 / reps);
            out.insert("sim.burst_step_s", s(burst_ns) / reps);
        }
        out
    }
}
