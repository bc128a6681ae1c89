//! Golden reports for the scrip and reputation volunteer scans.
//!
//! Both scans draw one availability coin flip per eligible agent per
//! request, so any change to which agents draw, in what order, or how a
//! flip is decided shows up here as a drifted report. The fixtures were
//! generated by the per-agent `DetRng::chance` loops and pin the paths
//! the older goldens leave dark:
//!
//! * scrip under a live partition plus crashes — the eligible set loses
//!   crashed agents and every cross-cell link, and
//!   `faults_partition_blocked` must count each blocked link once;
//! * scrip with altruists under the retainer attack, with special
//!   requests on — free pools, the special-provider filter and the
//!   attacker's bid all feed the outcome;
//! * reputation at the X14 benchmark size, ten requests per round.

use lotus_core::faults::FaultPlan;
use lotus_core::scenario::Summarize;
use netsim::round::RoundSim;
use netsim::NodeId;
use scrip_economy::reputation::{ReputationAttack, ReputationConfig, ReputationSim};
use scrip_economy::{ScripAttack, ScripConfig, ScripSim};

/// FNV-1a over per-agent end state: the report's rates can hide which
/// volunteer a pick landed on, the ledger cannot.
fn fold(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x100_0000_01b3)
    })
}

/// The run's summary JSON plus a fold of every agent's final balance.
fn scrip_run(cfg: ScripConfig, attack: ScripAttack, seed: u64) -> (String, u64) {
    let total = cfg.warmup + cfg.rounds;
    let n = cfg.agents;
    let mut sim = ScripSim::new(cfg, attack, seed);
    for t in 0..total {
        sim.round(t);
    }
    let ledger = fold((0..n).map(|i| sim.money(NodeId(i))));
    (sim.report().summarize().to_json(), ledger)
}

#[test]
fn scrip_under_partition_and_crashes_is_pinned() {
    let faults = FaultPlan::parse("partition:100:400:0.4/crash:0.01:0.2").unwrap();
    let cfg = ScripConfig::builder()
        .agents(70)
        .money_per_agent(2)
        .threshold(5)
        .rounds(800)
        .warmup(100)
        .faults(faults)
        .build()
        .unwrap();
    let (json, ledger) = scrip_run(cfg, ScripAttack::lotus_eater(0.3, 0.25), 1);
    assert!(
        !json.contains("\"faults_partition_blocked\":0,"),
        "the fixture must block some links: {json}"
    );
    assert_eq!(json, PARTITION_CRASH_JSON);
    assert_eq!(ledger, PARTITION_CRASH_LEDGER);
}

#[test]
fn scrip_altruists_under_retainer_with_special_requests_is_pinned() {
    let cfg = ScripConfig::builder()
        .agents(60)
        .money_per_agent(2)
        .threshold(5)
        .altruists(10)
        .special_service(20, 0.2)
        .rounds(1_500)
        .warmup(150)
        .build()
        .unwrap();
    let (json, ledger) = scrip_run(cfg, ScripAttack::retainer(0.1), 2);
    assert_eq!(json, ALTRUIST_RETAINER_JSON);
    assert_eq!(ledger, ALTRUIST_RETAINER_LEDGER);
}

#[test]
fn reputation_at_x14_size_is_pinned() {
    let cfg = ReputationConfig {
        agents: 100,
        threshold: 5.0,
        rounds: 4_000,
        warmup: 400,
        ..ReputationConfig::default()
    };
    let attack = ReputationAttack::Inflate {
        target_fraction: 0.3,
    };
    let total = cfg.warmup + cfg.rounds;
    let mut sim = ReputationSim::new(cfg, attack, 3);
    for t in 0..total {
        sim.round(t);
    }
    let scores = fold((0..100).map(|i| sim.reputation(NodeId(i)).to_bits()));
    assert_eq!(sim.report().summarize().to_json(), REPUTATION_X14_JSON);
    assert_eq!(scores, REPUTATION_X14_SCORES);
}

const PARTITION_CRASH_JSON: &str = r#"{"scenario":"scrip","rounds":900,"overall_delivery":0.3373015873015873,"targeted_service":0.9864285714285714,"usable":false,"attacker_money":35,"fail_broke_rate":0.6626984126984127,"fail_faulted_rate":0,"fail_no_volunteer_rate":0,"faults_crashes":624,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":12518,"free_rate":0,"gini":0.7,"mean_satiated_fraction":0.295928571428574,"mean_threshold":5,"paid_rate":0.3373015873015873,"service_rate":0.3373015873015873,"special_service_rate":1,"target_satiation":0.9864285714285714,"total_money":140}"#;
const PARTITION_CRASH_LEDGER: u64 = 995621326629998138;
const ALTRUIST_RETAINER_JSON: &str = r#"{"scenario":"scrip","rounds":1650,"overall_delivery":0.8346666666666667,"targeted_service":0.9198333333333333,"usable":true,"attacker_money":1,"fail_broke_rate":0.07933333333333334,"fail_no_volunteer_rate":0.086,"free_rate":0.7926666666666666,"gini":0.5068376068376068,"mean_satiated_fraction":0.3679333333333236,"mean_threshold":5,"paid_rate":0.042,"service_rate":0.8346666666666667,"special_service_rate":0.19805194805194806,"target_satiation":0.9198333333333333,"total_money":120}"#;
const ALTRUIST_RETAINER_LEDGER: u64 = 4366191829814443832;
const REPUTATION_X14_JSON: &str = r#"{"scenario":"reputation","rounds":4400,"overall_delivery":0.9998,"targeted_service":1,"usable":true,"attacker_cost_per_round":7.5,"denied_rate":0.0002,"no_volunteer_rate":0,"service_rate":0.9998,"target_satiation":1}"#;
const REPUTATION_X14_SCORES: u64 = 18260755582197203821;
