//! Smoke tests: the figure presets run end-to-end through the
//! `lotus-bench` binary in `--quick` mode and print the blocks the
//! harness promises (CSV, chart, conclusions).
//!
//! Only the light presets are exercised here — the full sweeps live in
//! `results/` and EXPERIMENTS.md.

use std::process::Command;

fn run_quick(preset: &str) -> String {
    run_runner(&["--preset", preset, "--quick"])
}

#[test]
fn table1_prints_the_paper_parameters() {
    let out = run_quick("table1");
    for needle in [
        "TABLE 1",
        "Number of Nodes       | 250",
        "Updates per Round     | 10",
        "Update Lifetime (rds) | 10",
        "Copies Seeded         | 12",
        "Opt. Push Size (upd)  | 2",
    ] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
}

#[test]
fn ext_rare_prints_series_and_conclusion() {
    let out = run_quick("ext_rare");
    assert!(out.contains("series,x,y"), "CSV block missing");
    assert!(out.contains("no attack"), "clean series missing");
    assert!(
        out.contains("rare-holder satiation attack"),
        "attack series missing"
    );
    assert!(out.contains("spreading"), "conclusion missing");
}

#[test]
fn ext_coding_shows_the_collapse_at_zero_redundancy() {
    let out = run_quick("ext_coding");
    assert!(
        out.contains("rare-token attack,0.0000,0.0000"),
        "collect-all must be fully denied:\n{out}"
    );
    assert!(out.contains("Avalanche"), "conclusion missing");
}

fn run_runner(args: &[&str]) -> String {
    let bin = env!("CARGO_BIN_EXE_lotus-bench");
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "lotus-bench {args:?} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("runner prints UTF-8")
}

#[test]
fn runner_lists_every_registered_scenario() {
    let out = run_runner(&["--list"]);
    for name in [
        "bar-gossip",
        "bar-gossip-digest",
        "scrip",
        "bittorrent",
        "token",
        "scrip-gossip",
        "reputation",
    ] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn runner_list_documents_attacks_and_schedule_churn_axes() {
    let out = run_runner(&["--list"]);
    // Per-scenario attacks are enumerated with their doc lines, not just
    // names, so presets are discoverable from the CLI alone.
    for needle in [
        "trade — trade lotus-eater: in-protocol give-everything",
        "satiate — attacker peers upload generously, but only to their targets",
        "rotating — rotate the satiated fraction every `period` rounds",
    ] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
    // The schedule/churn axes appear for every substrate config that
    // takes them (bar-gossip three times: the paper scale, the digest
    // substrate and the 1M scale).
    assert_eq!(
        out.matches("schedule: --schedule always|at:<r>").count(),
        7,
        "seven scenario configs advertise the schedule axis:\n{out}"
    );
    assert_eq!(
        out.matches("churn:   --churn <leave>[:<rejoin>]").count(),
        7,
        "seven scenario configs advertise the churn axis:\n{out}"
    );
    // The runner help documents the flags themselves.
    let help = run_runner(&["--help"]);
    assert!(help.contains("--schedule SPEC"), "{help}");
    assert!(help.contains("--churn L[:R]"), "{help}");
}

#[test]
fn runner_schedule_and_churn_flags_run_end_to_end() {
    let base = [
        "--scenario",
        "bar-gossip",
        "--attack",
        "trade",
        "--format",
        "json",
        "--quick",
        "--seeds",
        "1",
        "--x-values",
        "0.3",
        "--param",
        "nodes=50",
        "--param",
        "rounds=8",
        "--param",
        "warmup_rounds=4",
        "--param",
        "updates_per_round=4",
        "--param",
        "copies_seeded=5",
    ];
    let mut scheduled = base.to_vec();
    scheduled.extend(["--schedule", "periodic:6:3", "--churn", "0.05:0.5"]);
    let out = run_runner(&scheduled);
    assert!(out.contains("\"points\":[[0.3,"), "no points in:\n{out}");

    // Malformed specs fail at parse time with status 2.
    for bad in [
        ["--schedule", "sometimes"],
        ["--schedule", "periodic:0:0"],
        ["--churn", "1.5"],
    ] {
        let mut args = base.to_vec();
        args.extend(bad);
        let status = Command::new(env!("CARGO_BIN_EXE_lotus-bench"))
            .args(&args)
            .output()
            .expect("runner launches")
            .status;
        assert_eq!(status.code(), Some(2), "{bad:?} should be rejected");
    }
}

#[test]
fn oscillating_and_churn_presets_run_in_quick_mode() {
    let osc = run_quick("ext_oscillating");
    assert!(osc.contains("Oscillating lotus-eater"), "{osc}");
    assert!(osc.contains("oscillating trade attack"), "{osc}");
    let churn = run_quick("ext_churn");
    assert!(churn.contains("Churn-gossip"), "{churn}");
    assert!(churn.contains("trade attack at 22%"), "{churn}");
}

#[test]
fn adaptive_preset_runs_in_quick_mode_and_prints_arm_traces() {
    // X17 at full scale is a long sweep; shrink it through the ordinary
    // pass-through arguments (every preset accepts them).
    let out = run_runner(&[
        "--preset",
        "ext_adaptive",
        "--quick",
        "--seeds",
        "1",
        "--x-values",
        "0,0.5",
        "--param",
        "nodes=60",
        "--param",
        "rounds=60",
    ]);
    assert!(out.contains("Adaptive bandit attackers"), "{out}");
    assert!(out.contains("adaptive epsilon-greedy"), "{out}");
    assert!(out.contains("Arm trace — adaptive UCB1"), "{out}");
    assert!(out.contains("dormant("), "init sweep visible:\n{out}");
}

#[test]
fn runner_emits_json_for_the_acceptance_invocation() {
    // The ISSUE-1 acceptance CLI (scaled down so CI stays fast).
    let out = run_runner(&[
        "--scenario",
        "bar-gossip",
        "--attack",
        "trade",
        "--format",
        "json",
        "--quick",
        "--seeds",
        "1",
        "--x-values",
        "0,0.3",
        "--param",
        "nodes=50",
        "--param",
        "rounds=8",
        "--param",
        "warmup_rounds=4",
        "--param",
        "updates_per_round=4",
        "--param",
        "copies_seeded=5",
    ]);
    assert!(
        out.starts_with('{') && out.trim_end().ends_with('}'),
        "not JSON:\n{out}"
    );
    assert!(out.contains("\"scenario\":\"bar-gossip\""));
    assert!(out.contains("\"metric\":\"isolated_delivery\""));
    assert!(out.contains("\"points\":[[0,"));
}

/// Extract the number following `"<key>":` at the first occurrence after
/// `from` in a JSON string (enough structure-checking for a smoke test
/// without a JSON dependency).
fn json_u64_after(json: &str, from: usize, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json[from..]
        .find(&needle)
        .unwrap_or_else(|| panic!("missing {needle} in:\n{json}"))
        + from
        + needle.len();
    json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("bad number for {key}: {e}"))
}

#[test]
fn bench_mode_emits_wellformed_json_with_nonzero_timings() {
    // The ISSUE-2 acceptance invocation (tiny iteration counts for CI).
    let out = run_runner(&[
        "--bench",
        "--scenario",
        "bar-gossip",
        "--format",
        "json",
        "--bench-iters",
        "2",
        "--bench-warmup",
        "1",
        "--param",
        "rounds=6",
        "--param",
        "warmup_rounds=3",
        "--param",
        "update_lifetime=4",
        "--param",
        "nodes=40",
    ]);
    let json = out.trim_end();
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "not JSON:\n{json}"
    );
    // Stable schema keys.
    for key in [
        "\"bench\":true",
        "\"unix_time\":",
        "\"warmup\":1",
        "\"iters\":2",
        "\"seeds\":1",
        "\"scenarios\":[",
        "\"scenario\":\"bar-gossip\"",
        "\"attack\":\"none\"",
        "\"steps_per_run\":",
        "\"run_ns\":{",
        "\"step_ns\":{",
        "\"min\":",
        "\"median\":",
        "\"p90\":",
        "\"mean\":",
        "\"samples\":",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    // Nonzero timings and sane sample counts.
    let steps = json_u64_after(json, 0, "steps_per_run");
    assert_eq!(steps, 13, "3 warmup + 6 measured + 4 drain rounds");
    let run_at = json.find("\"run_ns\"").expect("run_ns present");
    assert!(
        json_u64_after(json, run_at, "min") > 0,
        "a run takes measurable time:\n{json}"
    );
    assert_eq!(json_u64_after(json, run_at, "samples"), 2);
    let step_at = json.find("\"step_ns\"").expect("step_ns present");
    assert!(json_u64_after(json, step_at, "min") > 0);
    assert_eq!(json_u64_after(json, step_at, "samples"), 26, "2 runs x 13");
}

#[test]
fn bench_mode_covers_every_scenario_by_default() {
    let out = run_runner(&[
        "--bench",
        "--quick",
        "--bench-iters",
        "1",
        "--bench-warmup",
        "0",
        "--format",
        "json",
    ]);
    for name in [
        "\"scenario\":\"bar-gossip\"",
        "\"scenario\":\"bar-gossip-digest\"",
        "\"scenario\":\"scrip\"",
        "\"scenario\":\"bittorrent\"",
        "\"scenario\":\"token\"",
        "\"scenario\":\"scrip-gossip\"",
        "\"scenario\":\"reputation\"",
    ] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn runner_rejects_unknown_scenarios_with_status_2() {
    let bin = env!("CARGO_BIN_EXE_lotus-bench");
    let out = Command::new(bin)
        .args([
            "--scenario",
            "no-such-substrate",
            "--attack",
            "none",
            "--quick",
        ])
        .output()
        .expect("launches");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));
}

#[test]
fn runner_rejects_unknown_presets_with_status_2_and_lists_them() {
    let out = Command::new(env!("CARGO_BIN_EXE_lotus-bench"))
        .args(["--preset", "fig4", "--quick"])
        .output()
        .expect("launches");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown preset \"fig4\""), "{stderr}");
    for name in ["table1", "fig1", "fig3", "ext_altruism", "ext_digest"] {
        assert!(stderr.contains(name), "missing {name} in:\n{stderr}");
    }
}
