//! Multi-shard goldens for the bar-gossip window path.
//!
//! `bar-gossip-1m`'s flash crowd lands on the run's final round, so its
//! pinned output never sees a crowd node's window expire. These rows run
//! a 5000-node population (five 1024-index shards) whose 4000-node crowd
//! lands at round 5, inside the measured window: engaging the crowd,
//! advancing its windows in lockstep, exchanging with it and folding its
//! expiries into the report all show in the output.
//!
//! `window_golden.txt` holds one row per run: scenario, attack, extra
//! parameters (`-` for none) and the FNV-1a 64 digest of the run's full
//! report as JSON (`ScenarioReport::to_json`). A changed byte fails the
//! row and prints the report.

use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};

/// 64-bit FNV-1a of `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Parameters every row shares. With warm-up 1 and lifetime 3, release
/// round 1 expires at round 4, so the crowd engages after one measured
/// expiry and its unusable-round counters start from a nonzero count.
/// Seeding 500 copies (half the nodes before the crowd lands, a tenth
/// after) keeps delivery off the floor, so a wrong transfer moves the
/// numbers.
const BASE: &[(&str, &str)] = &[
    ("nodes", "5000"),
    ("arrival", "burst:5:4000"),
    ("rounds", "8"),
    ("warmup_rounds", "1"),
    ("update_lifetime", "3"),
    ("updates_per_round", "4"),
    ("copies_seeded", "500"),
];

/// Attack intensity of every row: 500 attackers, all present from round
/// 0 (the crowd is honest).
const FRACTION: f64 = 0.1;
const SEED: u64 = 1;

/// The full JSON report of one row's run.
fn report(scenario: &str, attack: &str, extra: &str) -> String {
    let mut params = Params::new();
    for (k, v) in BASE {
        params.set(*k, *v);
    }
    for kv in extra.split(',').filter(|kv| *kv != "-") {
        let (k, v) = kv.split_once('=').expect("extra params are key=value");
        params.set(k, v);
    }
    let req = RunRequest::new(FRACTION, SEED, attack, "fraction", &params);
    ScenarioRegistry::standard()
        .run(scenario, &req)
        .unwrap_or_else(|e| panic!("{scenario}/{attack} {extra}: {e}"))
        .to_json()
}

#[test]
fn multi_shard_flash_crowd_reports_are_pinned() {
    let mut rows = 0;
    let mut failures = Vec::new();
    for line in include_str!("window_golden.txt").lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let [scenario, attack, extra, hex] = line.split_whitespace().collect::<Vec<_>>()[..] else {
            panic!("malformed golden row: {line}");
        };
        rows += 1;
        let json = report(scenario, attack, extra);
        let got = format!("{:016x}", fnv64(json.as_bytes()));
        if got != hex {
            failures.push(format!(
                "{scenario} {attack} {extra}: pinned {hex}, got {got}\n  {json}"
            ));
        }
    }
    assert_eq!(rows, 6, "every pinned row must run");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
