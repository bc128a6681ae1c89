//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process: a canonical repetition at the
//! default seed, checked against `digests.txt`, then timed repetitions of
//! the seed's job list for `S` seconds. Prints a provenance record and,
//! as the last line, the result object. `perfbench --digest NAME` prints
//! the rendered output's digest at the default seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lotus_bench::registry::ScenarioRegistry;
use lotus_bench::runner::parse_args;
use lotus_core::scenario::{json_number, json_string};
use perfbench::layers::LayerStats;
use perfbench::machine::{cores, cpu_model, cpu_seconds, fnv64, peak_rss_mib, reference_kernel_ms};
use perfbench::pipeline::{resolve_curves, run_rep, Counts, Rep};
use perfbench::trace::{median, spans_tsv, Span};
use perfbench::workload::{find, Workload, DEFAULT_SEED};
use perfbench::{probes, END_TO_END, PER_LAYER};

/// Timed repetitions (pairs, when traced) a run makes however short.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--rev TEXT] [--out DIR]\n       perfbench --digest NAME";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rev: String,
    out: String,
    digest_only: bool,
}

fn parse_cli(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        rev: "unknown".to_string(),
        out: ".bench_out".to_string(),
        digest_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--digest" => {
                args.workload = value()?.clone();
                args.digest_only = true;
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--rev" => args.rev = value()?.clone(),
            "--out" => args.out = value()?.clone(),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

/// The checked-in digest of a workload's default-seed output.
fn expected_digest(workload: &str) -> Option<&'static str> {
    include_str!("../digests.txt")
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload)
        .map(|(_, d)| d.trim())
}

/// The job list as parsed by the runner: scenario, attack, metric and
/// parameters of every curve, the x grid and the simulation seeds.
fn job_list_json(
    w: &Workload,
    run_threads: Option<usize>,
    seeds: &[u64],
) -> Result<String, String> {
    let opts = parse_args(&w.args(run_threads))?;
    let mut out = String::from("{\"curves\":[");
    for (i, c) in resolve_curves(&opts, &ScenarioRegistry::standard())?
        .iter()
        .enumerate()
    {
        let params: Vec<String> = c
            .params
            .keys()
            .map(|k| {
                format!(
                    "{}:{}",
                    json_string(k),
                    json_string(c.params.get(k).unwrap_or(""))
                )
            })
            .collect();
        let _ = write!(
            out,
            "{}{{\"scenario\":{},\"attack\":{},\"metric\":{},\"params\":{{{}}}}}",
            if i > 0 { "," } else { "" },
            json_string(&c.scenario),
            json_string(&c.attack),
            json_string(&c.metric),
            params.join(",")
        );
    }
    let xs: Vec<String> = opts
        .x_values
        .unwrap_or_default()
        .into_iter()
        .map(json_number)
        .collect();
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    let _ = write!(
        out,
        "],\"xs\":[{}],\"seeds\":[{}]}}",
        xs.join(","),
        seeds.join(",")
    );
    Ok(out)
}

fn metrics_json(values: &BTreeMap<&str, f64>, table: &[(&str, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for &(name, unit) in table {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        parts.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_string(name),
            json_number(v),
            json_string(unit)
        ));
    }
    Ok(format!("{{{}}}", parts.join(",")))
}

/// Everything the timed loop accumulates.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    mismatches: u64,
    reference: Option<String>,
    counts: Counts,
}

impl Tally {
    fn add(&mut self, rep: &Rep) {
        self.attempted += rep.jobs;
        self.failures.extend(rep.failures.iter().cloned());
        self.counts = rep.counts;
        match &self.reference {
            None => self.reference = Some(rep.rendered.clone()),
            Some(r) if *r != rep.rendered => self.mismatches += 1,
            Some(_) => {}
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = find(&args.workload).ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let machine_cores = cores();
    let threads = w.threads(machine_cores);
    let epoch = Instant::now();

    // Warm-up and output check: the default seed's job list must render
    // the checked-in bytes.
    let canonical = run_rep(w, &w.sim_seeds(DEFAULT_SEED), threads, false, epoch)?;
    let digest = fnv64(canonical.rendered.as_bytes());
    if args.digest_only {
        println!("{} {digest}", w.name);
        return Ok(true);
    }
    let digest_ok = expected_digest(w.name) == Some(digest.as_str());

    let seeds = w.sim_seeds(args.seed);
    let mut tally = Tally {
        attempted: canonical.jobs,
        failures: canonical.failures.clone(),
        reference: (args.seed == DEFAULT_SEED).then(|| canonical.rendered.clone()),
        ..Tally::default()
    };
    let (mut walls, mut setups, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = LayerStats::default();
    // Every traced repetition runs the same jobs; the first one's spans
    // are written out.
    let mut first_spans: Option<Vec<Span>> = None;
    let budget = Duration::from_secs(args.seconds);
    let cpu_start = cpu_seconds().ok_or("cannot read /proc/self/stat")?;
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed() < budget {
        let rep = run_rep(w, &seeds, threads, false, epoch)?;
        tally.add(&rep);
        walls.push(rep.wall_ns as f64 * 1e-9);
        setups.push(rep.setup_ns as f64 * 1e-9);
        if args.trace {
            let traced = run_rep(w, &seeds, threads, true, epoch)?;
            tally.add(&traced);
            traced_walls.push(traced.wall_ns as f64 * 1e-9);
            layers.add_rep(&traced.spans, threads.0);
            first_spans.get_or_insert(traced.spans);
        }
    }
    let cpu_s =
        (cpu_seconds().ok_or("cannot read /proc/self/stat")? - cpu_start) / walls.len() as f64;
    let failed = tally.failures.len() as u64;
    let correct = digest_ok && tally.mismatches == 0 && failed == 0;

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let table = if args.trace {
        values.extend(layers.metrics());
        let c = &tally.counts;
        values.insert("sim.node_rounds", c.node_rounds as f64);
        values.insert(
            "sim.ns_per_node_round",
            values["sim.step_s"] * 1e9 / c.node_rounds.max(1) as f64,
        );
        values.insert("digest.requests", c.digest_requests);
        values.insert("digest.bytes_on_wire", c.digest_bytes_on_wire);
        values.insert("digest.withheld", c.digest_withheld);
        values.insert("digest.fp_rate", c.digest_fp_rate());
        values.insert("faults.dropped", c.faults_dropped);
        values.extend(probes::run(&w.probe, threads.1.unwrap_or(1))?);
        values.insert(
            "trace.overhead_share",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        values.insert("trace.reps", traced_walls.len() as f64);
        values.insert(
            "bench.failed_share",
            failed as f64 / tally.attempted.max(1) as f64,
        );
        PER_LAYER
    } else {
        values.insert("wall_s", median(&walls));
        values.insert("setup_s", median(&setups));
        values.insert("cpu_s", cpu_s);
        values.insert(
            "peak_rss_mb",
            peak_rss_mib().ok_or("cannot read /proc/self/status")?,
        );
        END_TO_END
    };
    let metrics = metrics_json(&values, table)?;

    let samples: Vec<String> = walls.iter().map(|&v| json_number(v)).collect();
    let failures: Vec<String> = tally
        .failures
        .iter()
        .take(5)
        .map(|f| json_string(f))
        .collect();
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"rev\":{},\
         \"threads\":{{\"sweep\":{},\"run\":{}}},\
         \"machine\":{{\"nproc\":{},\"cpu\":{},\"reference_kernel_ms\":{}}},\
         \"jobs\":{},\"output_digest\":{},\"digest_ok\":{},\"mismatches\":{},\
         \"reps\":{},\"wall_samples_s\":[{}],\"failures\":[{}],\"metrics\":{}}}",
        json_string(w.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(&args.rev),
        threads.0,
        threads.1.map_or("null".to_string(), |n| n.to_string()),
        machine_cores,
        json_string(&cpu_model()),
        json_number(reference_kernel_ms()),
        job_list_json(w, threads.1, &seeds)?,
        json_string(&digest),
        digest_ok,
        tally.mismatches,
        walls.len(),
        samples.join(","),
        failures.join(","),
        metrics
    );
    println!("{record}");
    let out = std::path::Path::new(&args.out);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let tag = format!("{}-trace{}", w.name, u8::from(args.trace));
    let write = |name: String, body: &str| {
        std::fs::write(out.join(&name), body).map_err(|e| format!("cannot write {name}: {e}"))
    };
    write(format!("record-{tag}.json"), &record)?;
    if args.trace {
        write(
            format!("spans-{}.tsv", w.name),
            &spans_tsv(first_spans.as_deref().unwrap_or_default()),
        )?;
    }
    if !digest_ok {
        eprintln!(
            "perfbench: {} rendered digest {digest}, expected {:?}",
            w.name,
            expected_digest(w.name)
        );
    }
    for f in &tally.failures {
        eprintln!("perfbench: failed run: {f}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics}}}",
        tally.attempted
    );
    Ok(correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_cli(&argv).and_then(|a| run(&a)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
