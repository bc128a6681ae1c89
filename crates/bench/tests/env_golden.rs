//! Combined-axis goldens for the substrate environment
//! (`lotus_core::env`): churn, state-losing crashes and a metric-threshold
//! schedule at once, on every scheduled substrate.
//!
//! The churn, fault and schedule suites each pin one axis. What they do
//! not pin is the order the axes meet in within a round — membership,
//! then faults, then the substrate's crash state loss, then the
//! schedule's observation — which is exactly what the environment owns.
//! Each fixture here runs a `delivery-below:`/`presence-below:` trigger
//! that latches mid-run, so a change to what the schedule observes, or
//! when, moves the latch round and the report. The fixtures were
//! generated before the environment existed, from the substrates' own
//! hand-wired rounds.

use lotus_bench::registry::{Params, RunRequest, ScenarioRegistry};

struct Golden {
    scenario: &'static str,
    attack: &'static str,
    fraction: f64,
    params: &'static [(&'static str, &'static str)],
    json: &'static str,
}

const GOLDENS: &[Golden] = &[
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        fraction: 0.3,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
            ("churn_leave", "0.05"),
            ("churn_rejoin", "0.4"),
            ("faults", "crash:0.02:0.3"),
            ("schedule", "delivery-below:0.97"),
        ],
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.7814285714285715,"targeted_service":0.8325,"usable":false,"attacker_coverage":1,"evicted_fraction":0,"evictions":0,"faults_crashes":22,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":0,"isolated_delivery":0.7133333333333334,"junk_fraction":0.05521472392638037,"mean_attacker_upload":115.86666666666666,"mean_honest_upload":62.114285714285714,"min_node_delivery":0.05,"nodes_ever_unusable":0.4857142857142857,"satiated_delivery":0.8325,"unusable_node_rounds":0.26857142857142857}"#,
    },
    Golden {
        scenario: "scrip-gossip",
        attack: "trade",
        fraction: 0.3,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
            ("churn_leave", "0.05"),
            ("churn_rejoin", "0.4"),
            ("faults", "crash:0.02:0.3"),
            ("schedule", "delivery-below:0.96"),
        ],
        json: r#"{"scenario":"scrip-gossip","rounds":25,"overall_delivery":0.9192857142857143,"targeted_service":0.99,"usable":false,"broke_rate":0.010416666666666666,"faults_crashes":26,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":0,"isolated_delivery":0.825,"refusal_rate":0.002232142857142857,"satiated_delivery":0.99,"total_money":2000}"#,
    },
    Golden {
        scenario: "scrip",
        attack: "lotus-eater",
        fraction: 0.3,
        params: &[
            ("agents", "40"),
            ("rounds", "600"),
            ("warmup", "100"),
            ("churn_leave", "0.02"),
            ("churn_rejoin", "0.3"),
            ("faults", "crash:0.01:0.2"),
            ("schedule", "presence-below:0.84"),
        ],
        json: r#"{"scenario":"scrip","rounds":700,"overall_delivery":0.30671506352087113,"targeted_service":0.9113888888888889,"usable":false,"attacker_money":33,"fail_broke_rate":0.6932849364791288,"fail_faulted_rate":0,"fail_no_volunteer_rate":0,"faults_crashes":270,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":0,"free_rate":0,"gini":0.7058510638297872,"mean_satiated_fraction":0.2734166666666683,"mean_threshold":4,"paid_rate":0.30671506352087113,"service_rate":0.30671506352087113,"special_service_rate":1,"target_satiation":0.9113888888888889,"total_money":80}"#,
    },
    Golden {
        scenario: "bittorrent",
        attack: "satiate",
        fraction: 0.3,
        params: &[
            ("leechers", "15"),
            ("pieces", "16"),
            ("churn_leave", "0.05"),
            ("churn_rejoin", "0.5"),
            ("faults", "crash:0.03:0.3"),
            ("schedule", "presence-below:0.9"),
        ],
        json: r#"{"scenario":"bittorrent","rounds":33,"overall_delivery":1,"targeted_service":1,"usable":true,"attacker_upload":88,"duplicates":142,"faults_crashes":6,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":0,"honest_upload":317,"mean_completion":7.133333333333334,"mean_completion_nontargeted":8.9,"mean_completion_targeted":3.6,"p95_completion_nontargeted":22.099999999999977}"#,
    },
    Golden {
        scenario: "token",
        attack: "random-fraction",
        fraction: 0.3,
        params: &[
            ("nodes", "24"),
            ("copies", "20"),
            ("rounds", "40"),
            ("churn_leave", "0.08"),
            ("churn_rejoin", "0.25"),
            ("faults", "crash:0.03:0.3"),
            ("schedule", "delivery-below:0.6"),
        ],
        json: r#"{"scenario":"token","rounds":40,"overall_delivery":0.6184210526315789,"targeted_service":1,"usable":false,"all_satiated_at":-1,"attacked_nodes":5,"faults_crashes":28,"faults_delayed":0,"faults_dropped":0,"faults_duplicated":0,"faults_partition_blocked":0,"final_satiated_fraction":0.5833333333333334,"mean_coverage":0.6979166666666666,"min_coverage":0,"token0_reach":0.7083333333333334,"untouched_mean_coverage":0.6184210526315789,"untouched_satisfied":0.47368421052631576}"#,
    },
    // Every bar-gossip defense the environment wires at once: the
    // silence cut-off and report-and-evict quorums under a masquerading
    // attacker, who draws its silence at the round's ambient rate.
    Golden {
        scenario: "bar-gossip",
        attack: "masquerade",
        fraction: 0.25,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
            ("churn_leave", "0.05"),
            ("churn_rejoin", "0.4"),
            ("faults", "loss:0.1/crash:0.02:0.3"),
            ("cutoff", "3"),
            ("report_obedient", "0.5"),
            ("report_quorum", "2"),
        ],
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.7628378378378379,"targeted_service":0,"usable":false,"attacker_coverage":0,"attacker_cut_rate":0.6923076923076923,"cut_precision":0.5625,"cut_recall":0.6923076923076923,"evicted_fraction":0,"evictions":0,"false_cut_rate":0.1891891891891892,"faults_crashes":22,"faults_delayed":0,"faults_dropped":171,"faults_duplicated":0,"faults_partition_blocked":0,"isolated_delivery":0.7628378378378379,"junk_fraction":0.0629546726357023,"mean_attacker_upload":56.30769230769231,"mean_honest_upload":76.8108108108108,"min_node_delivery":0.1,"nodes_ever_unusable":0.4864864864864865,"satiated_delivery":0,"unusable_node_rounds":0.2918918918918919}"#,
    },
    // The report quorum's strike path: a gifting trade attacker is
    // reported for excess service and evicted, next to the cut-off.
    Golden {
        scenario: "bar-gossip",
        attack: "trade",
        fraction: 0.3,
        params: &[
            ("copies_seeded", "5"),
            ("nodes", "50"),
            ("rounds", "10"),
            ("updates_per_round", "4"),
            ("warmup_rounds", "5"),
            ("faults", "loss:0.1"),
            ("cutoff", "3"),
            ("report_obedient", "0.5"),
            ("report_quorum", "2"),
        ],
        json: r#"{"scenario":"bar-gossip","rounds":25,"overall_delivery":0.9207142857142857,"targeted_service":0.90125,"usable":true,"attacker_coverage":0.425,"attacker_cut_rate":0,"cut_precision":0,"cut_recall":0,"evicted_fraction":0.9333333333333333,"evictions":14,"false_cut_rate":0.34285714285714286,"faults_crashes":0,"faults_delayed":0,"faults_dropped":134,"faults_duplicated":0,"faults_partition_blocked":0,"isolated_delivery":0.9466666666666667,"junk_fraction":0.04892643435410067,"mean_attacker_upload":25.933333333333334,"mean_honest_upload":70.05714285714286,"min_node_delivery":0.15,"nodes_ever_unusable":0.3142857142857143,"satiated_delivery":0.90125,"unusable_node_rounds":0.12571428571428572}"#,
    },
];

fn run_case(g: &Golden, schedule: Option<&str>) -> String {
    let reg = ScenarioRegistry::standard();
    let mut p = Params::new();
    for (k, v) in g.params {
        p.set(*k, *v);
    }
    if let Some(s) = schedule {
        p.set("schedule", s);
    }
    let req = RunRequest::new(g.fraction, 1, g.attack, "fraction", &p);
    reg.run(g.scenario, &req)
        .unwrap_or_else(|e| panic!("{} {}: {e}", g.scenario, g.attack))
        .to_json()
}

#[test]
fn combined_axis_reports_are_pinned() {
    let drifted: Vec<String> = GOLDENS
        .iter()
        .filter_map(|g| {
            let got = run_case(g, None);
            (got != g.json).then(|| format!("{} / {}: {got}", g.scenario, g.attack))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "combined-axis reports drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn threshold_schedules_latch_mid_run() {
    // A fixture whose trigger fired at round 0, or never, would pin the
    // static-schedule path instead of the observation order: each
    // scheduled fixture must differ from both always-on and never-on.
    for g in GOLDENS {
        let Some(&(_, spec)) = g.params.iter().find(|(k, _)| *k == "schedule") else {
            continue;
        };
        let never = format!("{}:-1", spec.split(':').next().unwrap());
        let pinned = run_case(g, None);
        assert_ne!(
            pinned,
            run_case(g, Some("always")),
            "{}: latched at round 0",
            g.scenario
        );
        assert_ne!(
            pinned,
            run_case(g, Some(&never)),
            "{}: never latched",
            g.scenario
        );
    }
}
