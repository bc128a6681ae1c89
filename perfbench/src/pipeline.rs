//! One repetition of a workload: the figure pipeline from argument
//! parsing to the rendered table, driven through the public API only.
//!
//! The same code runs untraced and traced; tracing only adds a span
//! around each call into a layer, so the two must render the same bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};
use lotus_bench::runner::{parse_args, render_figure, Figure, Options};
use lotus_core::report::{CrossoverRecord, UsabilityThreshold};
use lotus_core::scenario::{DynScenario, ScenarioReport};
use lotus_core::sweep::{sweep_fraction, SweepConfig};

use crate::trace::{Kind, Span, NO_PARENT};
use crate::workload::Workload;

/// Exact counts folded from the run reports of one repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// `step_dyn` calls.
    pub steps: u64,
    /// Steps times the run's node count.
    pub node_rounds: u64,
    /// Sum of `digest_requests`.
    pub digest_requests: f64,
    /// Sum of `digest_bytes_on_wire`.
    pub digest_bytes_on_wire: f64,
    /// Sum of `digest_withheld`.
    pub digest_withheld: f64,
    /// Sum of `digest_fp_rate` over runs that report it.
    pub digest_fp_rate_sum: f64,
    /// Runs that report `digest_fp_rate`.
    pub digest_runs: u64,
    /// Sum of `faults_dropped`.
    pub faults_dropped: f64,
}

impl Counts {
    fn add_run(&mut self, report: &ScenarioReport, steps: u64, nodes: u64) {
        let m = |k: &str| report.metric(k).unwrap_or(0.0);
        self.steps += steps;
        self.node_rounds += steps * nodes;
        self.digest_requests += m("digest_requests");
        self.digest_bytes_on_wire += m("digest_bytes_on_wire");
        self.digest_withheld += m("digest_withheld");
        if let Some(fp) = report.metric("digest_fp_rate") {
            self.digest_fp_rate_sum += fp;
            self.digest_runs += 1;
        }
        self.faults_dropped += m("faults_dropped");
    }

    /// Mean false-positive rate over the runs that have a digest.
    pub fn digest_fp_rate(&self) -> f64 {
        if self.digest_runs == 0 {
            0.0
        } else {
            self.digest_fp_rate_sum / self.digest_runs as f64
        }
    }
}

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep {
    /// The rendered figure.
    pub rendered: String,
    /// First call to rendered table, ns.
    pub wall_ns: u64,
    /// First call to the first `step_dyn`, ns.
    pub setup_ns: u64,
    /// Jobs attempted.
    pub jobs: u64,
    /// One message per failed job.
    pub failures: Vec<String>,
    /// Report counts.
    pub counts: Counts,
    /// Spans (empty when untraced); parents precede children.
    pub spans: Vec<Span>,
}

/// Span sink shared by the sweep workers; a no-op when tracing is off.
struct Sink {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Sink {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, kind: Kind, parent: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span sink poisoned");
        spans.push(Span {
            kind,
            parent,
            start,
            end: start,
        });
        (spans.len() - 1) as u32
    }

    fn close(&self, idx: u32) {
        if self.on {
            let end = self.now();
            self.spans.lock().expect("span sink poisoned")[idx as usize].end = end;
        }
    }

    fn span<T>(&self, kind: Kind, parent: u32, f: impl FnOnce() -> T) -> T {
        let idx = self.open(kind, parent);
        let out = f();
        self.close(idx);
        out
    }

    /// Append a job's spans: entry 0 is the job span, whose parent is
    /// already an index into the sink; the others point into `local`.
    fn merge(&self, local: Vec<Span>) {
        if local.is_empty() {
            return;
        }
        let mut spans = self.spans.lock().expect("span sink poisoned");
        let base = spans.len() as u32;
        spans.extend(local.into_iter().enumerate().map(|(i, mut s)| {
            if i > 0 {
                s.parent += base;
            }
            s
        }));
    }
}

/// A job's spans, kept on the worker and merged once the job ends. Every
/// span is a child of the job span, which goes in at index 0 last.
struct JobSpans<'a> {
    sink: &'a Sink,
    spans: Vec<Span>,
}

impl JobSpans<'_> {
    fn span<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> T {
        if !self.sink.on {
            return f();
        }
        let start = self.sink.now();
        let out = f();
        let end = self.sink.now();
        self.spans.push(Span {
            kind,
            parent: 0,
            start,
            end,
        });
        out
    }
}

/// Whether a report metric is a rate that must lie in `[0, 1]`.
fn is_rate(key: &str) -> bool {
    key == "targeted_service"
        || ["_delivery", "_rate", "_satiation", "_fraction", "_share"]
            .iter()
            .any(|suffix| key.ends_with(suffix))
}

/// Check a finished run's report: every metric finite, every rate in
/// `[0, 1]`, and the plotted metric present. Returns the plotted value.
fn check_report(report: &ScenarioReport, metric: &str) -> Result<f64, String> {
    for key in report.metric_keys() {
        let v = report.metric(key).expect("listed keys resolve");
        if !v.is_finite() {
            return Err(format!("metric {key} is {v}"));
        }
        if is_rate(key) && !(0.0..=1.0).contains(&v) {
            return Err(format!("rate {key} = {v} is outside [0, 1]"));
        }
    }
    report
        .metric(metric)
        .ok_or_else(|| format!("no metric {metric:?}"))
}

/// One curve of a figure with the runner's defaults applied.
#[derive(Debug)]
pub struct Curve {
    /// Scenario the curve runs.
    pub scenario: String,
    /// Attack name.
    pub attack: String,
    /// Plotted report metric.
    pub metric: String,
    /// Global parameters overlaid with the curve's own.
    pub params: Params,
    /// Series label.
    pub label: String,
    /// Paper break point for the crossover table, when listed.
    pub paper: Option<Option<f64>>,
}

/// Resolve every curve of `opts` the way `runner::evaluate` does.
///
/// # Errors
///
/// A curve without a scenario, or with one the registry does not know.
pub fn resolve_curves(opts: &Options, registry: &ScenarioRegistry) -> Result<Vec<Curve>, String> {
    opts.curves
        .iter()
        .map(|c| {
            let scenario = c
                .scenario
                .clone()
                .or_else(|| opts.scenario.clone())
                .ok_or("curve has no scenario")?;
            let spec = registry
                .get(&scenario)
                .ok_or_else(|| format!("unknown scenario {scenario:?}"))?;
            let label = c.label.clone().unwrap_or_else(|| match c.scenario {
                Some(_) => format!("{scenario}: {}", c.attack),
                None => c.attack.clone(),
            });
            Ok(Curve {
                metric: c
                    .metric
                    .clone()
                    .or_else(|| opts.metric.clone())
                    .unwrap_or_else(|| spec.default_metric.to_string()),
                params: opts.params.merged_with(&c.params),
                attack: c.attack.clone(),
                paper: c.paper,
                label,
                scenario,
            })
        })
        .collect()
}

/// Run the workload's figure once over `seeds`.
///
/// # Errors
///
/// A workload whose arguments or scenario names do not resolve; failed
/// jobs are not errors but are listed in [`Rep::failures`].
pub fn run_rep(
    w: &Workload,
    seeds: &[u64],
    threads: (usize, Option<usize>),
    traced: bool,
    epoch: Instant,
) -> Result<Rep, String> {
    let sink = Sink {
        on: traced,
        epoch,
        spans: Mutex::new(Vec::new()),
    };
    let first_step: OnceLock<Instant> = OnceLock::new();
    let counts = Mutex::new(Counts::default());
    let failures = Mutex::new(Vec::new());
    let mut jobs = 0u64;

    let start = Instant::now();
    let rep = sink.open(Kind::Rep, NO_PARENT);
    let args = w.args(threads.1);
    let opts = sink.span(Kind::RunnerParse, rep, || parse_args(&args))?;
    let registry = sink.span(Kind::RegistryNew, rep, ScenarioRegistry::standard);
    let xs = opts.x_values.clone().ok_or("workload has no x values")?;
    let sweep_cfg = SweepConfig {
        seeds: seeds.to_vec(),
        threads: threads.0,
    };
    let mut figure = Figure {
        scenario: String::new(),
        series: Vec::new(),
        metrics: Vec::new(),
        crossovers: Vec::new(),
        xs: xs.clone(),
        seeds: seeds.len(),
        sweep: opts.sweep.clone(),
        arm_traces: Vec::new(),
    };
    for curve in resolve_curves(&opts, &registry)? {
        let scenario = curve.scenario.as_str();
        let params = &curve.params;
        let metric = curve.metric;
        if figure.scenario.is_empty() {
            figure.scenario = curve.scenario.clone();
        }
        jobs += (xs.len() * seeds.len()) as u64;
        let sweep = sink.open(Kind::Sweep, rep);
        let series = sweep_fraction(curve.label, &xs, &sweep_cfg, |x, seed| {
            let mut local = JobSpans {
                sink: &sink,
                spans: Vec::new(),
            };
            let job_start = if sink.on { sink.now() } else { 0 };
            let req = RunRequest::new(x, seed, &curve.attack, &opts.sweep, params);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut sim: Box<dyn DynScenario> =
                    local.span(Kind::RegistryBuild, || registry.build(scenario, &req))?;
                first_step.get_or_init(Instant::now);
                let mut steps = 0u64;
                loop {
                    steps += 1;
                    if local.span(Kind::SimStep, || sim.step_dyn()).is_done() {
                        break;
                    }
                }
                let report = local.span(Kind::Report, || sim.report_dyn());
                let y = check_report(&report, &metric)?;
                counts.lock().expect("counts poisoned").add_run(
                    &report,
                    steps,
                    u64::from(w.probe.universe),
                );
                Ok::<f64, String>(y)
            }))
            .unwrap_or_else(|_| Err("panicked".to_string()));
            if sink.on {
                local.spans.insert(
                    0,
                    Span {
                        kind: Kind::SweepJob,
                        parent: sweep,
                        start: job_start,
                        end: sink.now(),
                    },
                );
                sink.merge(local.spans);
            }
            outcome.unwrap_or_else(|e| {
                failures.lock().expect("failures poisoned").push(format!(
                    "{scenario} {} x={x} seed={seed}: {e}",
                    curve.attack
                ));
                f64::NAN
            })
        });
        sink.close(sweep);
        sink.span(Kind::RunnerFold, rep, || {
            if let Some(paper) = curve.paper {
                figure.crossovers.push(CrossoverRecord::from_curve(
                    &series,
                    UsabilityThreshold(opts.threshold),
                    paper,
                ));
            }
            figure.series.push(series);
            figure.metrics.push(metric);
        });
    }
    let rendered = sink.span(Kind::RunnerRender, rep, || render_figure(&figure, &opts));
    sink.close(rep);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let setup_ns = first_step
        .get()
        .map_or(wall_ns, |t| t.duration_since(start).as_nanos() as u64);
    Ok(Rep {
        rendered,
        wall_ns,
        setup_ns,
        jobs,
        failures: failures.into_inner().expect("failures poisoned"),
        counts: counts.into_inner().expect("counts poisoned"),
        spans: sink.spans.into_inner().expect("span sink poisoned"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::self_times;
    use crate::workload::{ProbeSizes, WORKLOADS};

    const TINY: Workload = Workload {
        name: "tiny",
        scenario: "bar-gossip",
        title: "tiny",
        curves: &["crash,paper=0.42", "trade"],
        params: &[
            "nodes=40",
            "updates_per_round=4",
            "copies_seeded=5",
            "rounds=10",
            "warmup_rounds=5",
        ],
        xs: "0,0.5",
        seeds_per_point: 2,
        sweep_threads: 2,
        run_threads: Some(1),
        probe: ProbeSizes {
            active: 40,
            universe: 40,
            ..WORKLOADS[0].probe
        },
    };

    #[test]
    fn traced_and_untraced_runs_render_the_same_bytes() {
        let epoch = Instant::now();
        let seeds = TINY.sim_seeds(3);
        let threads = TINY.threads(2);
        let plain = run_rep(&TINY, &seeds, threads, false, epoch).expect("tiny runs");
        let traced = run_rep(&TINY, &seeds, threads, true, epoch).expect("tiny runs");
        assert_eq!(plain.rendered, traced.rendered);
        assert_eq!(plain.counts, traced.counts);
        assert_eq!((plain.jobs, plain.failures.len()), (8, 0));
        assert!(plain.spans.is_empty());

        let spans = &traced.spans;
        for (i, s) in spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                let p = spans[s.parent as usize];
                assert!((s.parent as usize) < i, "parents precede children");
                assert!(p.start <= s.start && s.end <= p.end, "children nest");
            }
        }
        let count = |k: Kind| spans.iter().filter(|s| s.kind == k).count() as u64;
        assert_eq!(count(Kind::SweepJob), 8);
        assert_eq!(count(Kind::RegistryBuild), 8);
        assert_eq!(count(Kind::SimStep), traced.counts.steps);
        let wall = spans[0].dur() as f64;
        let own: f64 = self_times(spans).iter().sum();
        assert!(
            (own - wall).abs() < 1.0,
            "self times {own} cover the wall {wall}"
        );
    }

    #[test]
    fn renders_what_the_runner_renders() {
        // The runner's own seeds are 1..=n; given those, the benchmark's
        // pipeline must print the runner's bytes.
        let ours =
            run_rep(&TINY, &[1, 2], TINY.threads(2), false, Instant::now()).expect("tiny runs");
        let runner =
            lotus_bench::runner::run_args(&TINY.args(TINY.run_threads)).expect("runner runs");
        assert_eq!(ours.rendered, runner);
    }

    #[test]
    fn broken_reports_fail_the_invariants() {
        let ok = ScenarioReport::new("x", 1, 0.5, 1.0, true).with_metric("gini", 3.0);
        assert_eq!(check_report(&ok, "overall_delivery"), Ok(0.5));
        assert!(check_report(&ok, "missing").is_err());
        let out_of_range = ScenarioReport::new("x", 1, 1.5, 1.0, true);
        assert!(check_report(&out_of_range, "overall_delivery").is_err());
        let not_finite = ok.clone().with_metric("gini", f64::NAN);
        assert!(check_report(&not_finite, "gini").is_err());
        let bad_rate = ok.with_metric("digest_fp_rate", -0.1);
        assert!(check_report(&bad_rate, "overall_delivery").is_err());
    }
}
