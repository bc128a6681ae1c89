//! Kernel probes: outside-in per-call costs of single layers, timed by
//! calling their public entry points at the workload's own sizes.
//!
//! These numbers say what one call costs from the outside; they are not
//! a split of the end-to-end time (the spans give that).

use std::hint::black_box;
use std::time::Instant;

use lotus_core::digest::BloomDigest;
use lotus_core::faults::{FaultPlan, FaultState};
use lotus_core::pool::WorkerPool;
use lotus_core::population::{ArrivalProcess, ChurnProfile, ChurnSpec, Population};
use netsim::partner::{PartnerSchedule, Protocol};
use netsim::plan::{ExchangePlan, PairPlanner, READY};
use netsim::rng::DetRng;
use netsim::NodeId;

use crate::trace::median;
use crate::workload::{split_mix64, ProbeSizes};

/// Median over `reps` timings of `f`, in ns, divided by `per`.
fn time_ns(reps: usize, per: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&samples)
}

/// Fill `plan` (pre-sized to `n`) in `pool.threads()` equal chunks.
fn fill_partitioned(pool: &WorkerPool, planner: &PairPlanner, plan: &mut ExchangePlan, n: u32) {
    let chunks = pool.threads() as u32;
    let bounds: Vec<u32> = (0..=chunks)
        .map(|k| n / chunks * k + (n % chunks).min(k))
        .collect();
    let sizes: Vec<usize> = bounds.windows(2).map(|b| (b[1] - b[0]) as usize).collect();
    pool.run_partitioned(plan.entries_mut(), &sizes, |k, chunk| {
        planner.fill((bounds[k]..bounds[k + 1]).map(NodeId), |_, _| READY, chunk);
    });
}

/// Run every probe; `(metric, value)` pairs.
///
/// # Errors
///
/// A fault plan in the workload table that does not parse.
pub fn run(p: &ProbeSizes, run_threads: usize) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();

    // digest: rebuild one advertisement, then probe it (half hits).
    let ids: Vec<u64> = (0..u64::from(p.window)).map(split_mix64).collect();
    let queries: Vec<u64> = (0..2 * u64::from(p.window)).map(split_mix64).collect();
    let mut bloom = BloomDigest::new(p.digest_bits, p.digest_hashes);
    let rounds = 20_000u64;
    out.push((
        "digest.rebuild_ns_per_id",
        time_ns(5, rounds * u64::from(p.window), || {
            for _ in 0..rounds {
                bloom.clear();
                for &id in &ids {
                    bloom.insert(black_box(id));
                }
            }
        }),
    ));
    out.push((
        "digest.probe_ns",
        time_ns(5, rounds * queries.len() as u64, || {
            let mut hits = 0u32;
            for _ in 0..rounds {
                for &q in &queries {
                    hits += u32::from(bloom.contains(black_box(q)));
                }
            }
            black_box(hits);
        }),
    ));

    // plan: one round's pair plan over the active nodes, then its shuffle.
    let planner = PartnerSchedule::new(7, p.active).planner(3, Protocol::BalancedExchange);
    let mut plan = ExchangePlan::new();
    plan.reset(p.active as usize);
    let plans = (1_000_000 / u64::from(p.active)).max(1);
    let pairs = plans * u64::from(p.active);
    out.push((
        "plan.fill_ns_per_pair",
        time_ns(5, pairs, || {
            for _ in 0..plans {
                planner.fill(NodeId::all(p.active), |_, _| READY, plan.entries_mut());
            }
        }),
    ));
    let mut rng = DetRng::seed_from(5);
    out.push((
        "plan.shuffle_ns_per_pair",
        time_ns(5, pairs, || {
            for _ in 0..plans {
                plan.shuffle(&mut rng);
            }
        }),
    ));

    // pool: bare dispatch, and a million-pair plan fill at 1 vs the
    // workload's thread count.
    let pool = WorkerPool::new(run_threads.max(1));
    let mut slots = vec![0u64; pool.threads()];
    let ones = vec![1usize; pool.threads()];
    // A sequential call costs nanoseconds, a spawning one tens of µs.
    let dispatches = if pool.threads() == 1 { 1000 } else { 10 };
    out.push((
        "pool.dispatch_us",
        time_ns(50, dispatches * 1000, || {
            for _ in 0..dispatches {
                pool.run_partitioned(&mut slots, &ones, |k, c| c[0] = black_box(k as u64));
            }
        }),
    ));
    let million = 1_000_000u32;
    let big = PartnerSchedule::new(7, million).planner(3, Protocol::BalancedExchange);
    let mut big_plan = ExchangePlan::new();
    big_plan.reset(million as usize);
    let seq = time_ns(5, 1_000_000, || {
        fill_partitioned(&WorkerPool::sequential(), &big, &mut big_plan, million);
    });
    let par = time_ns(5, 1_000_000, || {
        fill_partitioned(&pool, &big, &mut big_plan, million);
    });
    out.push(("pool.fill_1m_ms", par));
    out.push(("pool.speedup", seq / par));

    // faults: the workload's plan over its universe.
    let plan_faults = if p.faults == "none" {
        FaultPlan::none()
    } else {
        FaultPlan::parse(p.faults)?
    };
    let n = p.universe as usize;
    let mut faults = FaultState::new(n, plan_faults, &DetRng::seed_from(11));
    let calls = 200_000u64;
    let mut t = 0u64;
    out.push((
        "faults.begin_round_ns",
        time_ns(5, 1000, || {
            for _ in 0..1000 {
                t += 1;
                faults.begin_round(t);
            }
        }),
    ));
    out.push((
        "faults.fate_ns",
        time_ns(5, calls, || {
            for i in 0..calls as usize {
                black_box(faults.fate(i % n, (i * 7 + 1) % n));
            }
        }),
    ));

    // population: build, the flash-crowd round, and a steady round.
    let profile = p.churn.map_or(ChurnProfile::none(), |(leave, rejoin)| {
        ChurnProfile::uniform(ChurnSpec::new(leave, rejoin))
    });
    let build = || Population::new(n, profile, DetRng::seed_from(13));
    let builds = (1_000_000 / n as u64).max(1);
    out.push((
        "population.build_ms",
        time_ns(5, builds * 1_000_000, || {
            for _ in 0..builds {
                black_box(build());
            }
        }),
    ));
    // Without a flash crowd the "burst" round is an ordinary one, timed
    // over many calls so the figure keeps its digits.
    let (burst_round, burst_size, calls) = p.burst.map_or((1, 0, 1000), |(r, n)| (r, n, 1));
    let bursts: Vec<f64> = (0..3)
        .map(|_| {
            let mut pop = build();
            if burst_size > 0 {
                pop.set_arrival(ArrivalProcess::Burst {
                    round: burst_round,
                    size: burst_size,
                    period: None,
                });
            }
            for r in 0..burst_round {
                pop.begin_round(r);
            }
            let t = Instant::now();
            for r in burst_round..burst_round + calls {
                pop.begin_round(r);
            }
            t.elapsed().as_nanos() as f64 * 1e-6 / calls as f64
        })
        .collect();
    out.push(("population.burst_round_ms", median(&bursts)));
    let mut pop = build();
    let mut r = 0u64;
    let steady = (100_000 / n as u64).max(10);
    out.push((
        "population.begin_round_ns",
        time_ns(5, steady, || {
            for _ in 0..steady {
                r += 1;
                pop.begin_round(r);
            }
        }),
    ));
    Ok(out)
}
