//! The benchmark's workloads: fixed batch job lists of `(curve, x, seed)`.
//!
//! Each workload is one figure a user of the repository waits for, sized
//! so that a repetition takes about a second on a 2-core box. The load
//! is closed: a repetition is the whole job list, run to its rendered
//! table, and the next repetition starts only when it is done.

/// The seed whose rendered output is pinned by `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Sizes the kernel probes run at, taken from the workload's own config.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizes {
    /// Bloom digest width in bits.
    pub digest_bits: u32,
    /// Bloom probes per id.
    pub digest_hashes: u32,
    /// Ids live in one advertisement (updates per round x lifetime).
    pub window: u32,
    /// Nodes present in a steady round.
    pub active: u32,
    /// Nodes in the universe, present or not (the node count of a run).
    pub universe: u32,
    /// Flash crowd `(round, size)`, if the workload has one.
    pub burst: Option<(u64, u32)>,
    /// Churn `(leave, rejoin)` per round, if any curve churns.
    pub churn: Option<(f64, f64)>,
    /// Fault plan of the faulted curve (`"none"` when nothing is faulted).
    pub faults: &'static str,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Default scenario of the curves.
    pub scenario: &'static str,
    /// Figure title.
    pub title: &'static str,
    /// `--curve` values, in figure order.
    pub curves: &'static [&'static str],
    /// Global `--param key=value` pairs.
    pub params: &'static [&'static str],
    /// The x grid (`--x-values`).
    pub xs: &'static str,
    /// Simulation seeds per x value.
    pub seeds_per_point: usize,
    /// Sweep worker threads.
    pub sweep_threads: usize,
    /// Intra-run worker threads (`--run-threads`); `None` for substrates
    /// without an intra-run pool.
    pub run_threads: Option<usize>,
    /// Kernel probe sizes.
    pub probe: ProbeSizes,
}

const TABLE1: ProbeSizes = ProbeSizes {
    digest_bits: 1024,
    digest_hashes: 4,
    window: 100,
    active: 250,
    universe: 250,
    burst: None,
    churn: None,
    faults: "none",
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    // The paper's Figure 1: what a reader waits for. Step loop and sweep
    // fan-out carry it; the digest leg and the worker pool are bypassed.
    Workload {
        name: "fig1-sweep",
        scenario: "bar-gossip",
        title: "FIGURE 1 — Three attacks on BAR Gossip",
        curves: &[
            "crash,label=Crash attack,paper=0.42",
            "ideal,label=Ideal lotus-eater attack,paper=0.04",
            "trade,label=Trade lotus-eater attack,paper=0.22",
        ],
        params: &[
            "nodes=250",
            "updates_per_round=10",
            "update_lifetime=10",
            "copies_seeded=12",
            "push_size=2",
        ],
        xs: "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
        seeds_per_point: 3,
        sweep_threads: 2,
        run_threads: Some(1),
        probe: TABLE1,
    },
    // X20's attack mix on the digest substrate: bloom rebuild and probe,
    // the fault layer and the silence cut-off do the work fig1 never does.
    Workload {
        name: "digest-x20",
        scenario: "bar-gossip-digest",
        title: "X20 — Digest gossip: advertise-then-withhold",
        curves: &[
            "none,label=no attack",
            "poison,poison_rate=0.15,label=poison: withhold 15% (deniable)",
            "poison,audit=0.02,cutoff=3,label=poison vs digest audit (cutoff 3)",
            "masquerade,faults=loss:0.05,cutoff=3,label=masquerade over 5% loss (cutoff 3)",
        ],
        params: &["nodes=250", "digest_bits=1024", "digest_hashes=4"],
        xs: "0,0.2,0.4,0.6",
        seeds_per_point: 3,
        sweep_threads: 1,
        run_threads: Some(2),
        probe: ProbeSizes {
            faults: "loss:0.05",
            ..TABLE1
        },
    },
    // The registered million-node config: 10k active nodes, then a 990k
    // flash crowd at round 9. Setup, the burst round, the 1M report fold
    // and peak memory dominate; the only workload where the pool engages.
    Workload {
        name: "scale-1m",
        scenario: "bar-gossip-1m",
        title: "bar-gossip-1m — 990k flash crowd at round 9",
        curves: &["none,label=no attack"],
        params: &[],
        xs: "0",
        seeds_per_point: 1,
        sweep_threads: 1,
        run_threads: Some(2),
        probe: ProbeSizes {
            window: 16,
            active: 10_000,
            universe: 1_000_000,
            burst: Some((9, 990_000)),
            ..TABLE1
        },
    },
    // Hundreds of thousands of ~6 µs rounds: per-round fixed overhead, on
    // the only workload that reaches the scrip crate and reputation.
    Workload {
        name: "scrip-economy",
        scenario: "scrip",
        title: "Scrip economy — lotus-eater, retainer, churn, reputation",
        curves: &[
            "lotus-eater,money_per_agent=2,label=lotus-eater (m=2 k=5)",
            "retainer,money_per_agent=2,endowment=0.5,metric=service_rate,label=retainer: service rate",
            "lotus-eater,money_per_agent=2,churn_leave=0.01,label=lotus-eater under 1% churn",
            "inflate,scenario=reputation,label=reputation: inflate",
        ],
        params: &["agents=100", "threshold=5", "rounds=4000", "warmup=400"],
        xs: "0.1,0.3,0.5,0.7",
        seeds_per_point: 3,
        sweep_threads: 1,
        run_threads: None,
        probe: ProbeSizes {
            active: 100,
            universe: 100,
            churn: Some((0.01, 0.25)),
            ..TABLE1
        },
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One splitmix64 round.
pub fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The simulation seeds of a repetition, derived from the seed
    /// argument (the program only ever sees the derived list).
    pub fn sim_seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.seeds_per_point as u64)
            .map(|i| split_mix64(seed ^ split_mix64(i + 1)) >> 1)
            .collect()
    }

    /// Sweep and run thread counts, each capped at the machine's cores.
    pub fn threads(&self, cores: usize) -> (usize, Option<usize>) {
        let cap = |n: usize| n.min(cores.max(1));
        (cap(self.sweep_threads), self.run_threads.map(cap))
    }

    /// The runner arguments of the figure (seeds are passed separately,
    /// as an explicit list, so only their count appears here).
    pub fn args(&self, run_threads: Option<usize>) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "--scenario".into(),
            self.scenario.into(),
            "--title".into(),
            self.title.into(),
            "--x-values".into(),
            self.xs.into(),
            "--seeds".into(),
            self.seeds_per_point.to_string(),
        ];
        for p in self.params {
            args.push("--param".into());
            args.push((*p).into());
        }
        if let Some(n) = run_threads {
            args.push("--run-threads".into());
            args.push(n.to_string());
        }
        for c in self.curves {
            args.push("--curve".into());
            args.push((*c).into());
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_args_parse() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            let opts = lotus_bench::runner::parse_args(&w.args(w.run_threads))
                .expect("workload arguments parse");
            assert_eq!(opts.curves.len(), w.curves.len());
        }
    }

    #[test]
    fn seeds_depend_on_the_seed_argument_only() {
        let w = find("fig1-sweep").expect("registered");
        assert_eq!(w.sim_seeds(7), w.sim_seeds(7));
        assert_ne!(w.sim_seeds(7), w.sim_seeds(8));
        assert_eq!(w.sim_seeds(7).len(), w.seeds_per_point);
    }
}
