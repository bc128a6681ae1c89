//! The figure presets behind `lotus-bench --preset NAME`.
//!
//! Each paper artifact (Table 1, Figures 1–3) and each extension
//! experiment (X1–X20) is one entry: the runner argv of its figures, the
//! prose printed under each, and what `--quick` changes. EXPERIMENTS.md
//! maps every entry to the paper claim it measures.
//!
//! The caller's other arguments follow the preset argv, so `--quick`,
//! `--seeds`, `--format json`, extra `--param`s and extra `--curve`s act
//! on a preset exactly as on a hand-written invocation. Prose lines are
//! left out of JSON output.

use crate::registry::{RunRequest, ScenarioRegistry};
use crate::runner::{parse_args, run_options, Format};
use bar_gossip::BarGossipConfig;
use netsim::table::Table;

/// The runner arguments of one figure.
type Argv = &'static [&'static str];
/// The lines printed under one figure's table output.
type Epilogue = &'static [&'static str];

/// One named preset.
pub(crate) struct Preset {
    /// The name `--preset` takes.
    name: &'static str,
    /// The figures, run and printed in turn. Empty for `table1`, which
    /// prints the Table-1 parameters instead and ignores its arguments.
    figures: &'static [(Argv, Epilogue)],
    /// `--param`s that replace the argv's under `--quick`.
    quick: &'static [&'static str],
    /// For fig1/fig2: the ideal attacker's fraction and the share of the
    /// updates (in percent) the paper says it holds there. Printed as a
    /// line under the table, probed at the figure's merged `--param`s.
    coverage: Option<(f64, u32)>,
}

/// Every preset, in EXPERIMENTS.md order.
#[rustfmt::skip]
const PRESETS: &[Preset] = &[
    // The defaults of the `bar-gossip` crate are the paper's parameters.
    Preset { name: "table1", figures: &[], quick: &[], coverage: None },
    // Paper break points on the 93% usability line: crash 0.42, ideal 0.04, trade 0.22.
    Preset {
        name: "fig1",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "FIGURE 1 — Three attacks on BAR Gossip",
            "--curve", "crash,label=Crash attack,paper=0.42",
            "--curve", "ideal,label=Ideal lotus-eater attack,paper=0.04",
            "--curve", "trade,label=Trade lotus-eater attack,paper=0.22",
            "--fraction-grid", "0:1",
        ], &[])],
        quick: &[],
        coverage: Some((0.04, 39)),
    },
    // A larger push makes pushers more altruistic: they give more at the risk of receiving junk.
    Preset {
        name: "fig2",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "FIGURE 2 — Larger push size (10) reduces effectiveness",
            "--param", "push_size=10",
            "--curve", "crash,label=Crash attack,paper=-",
            "--curve", "ideal,label=Ideal lotus-eater attack,paper=0.15",
            "--curve", "trade,label=Trade lotus-eater attack,paper=0.40",
            "--fraction-grid", "0:1",
        ], &[])],
        quick: &[],
        coverage: Some((0.15, 85)),
    },
    // An unbalanced exchange gives one extra update when it receives at least one.
    Preset {
        name: "fig3",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "FIGURE 3 — Obedient nodes reduce effectiveness (trade attack)",
            "--fraction-grid", "0:0.7",
            "--curve", "trade,push_size=2,unbalanced=0,label=Push size 2 balanced,paper=0.22",
            "--curve", "trade,push_size=2,unbalanced=1,label=Push size 2 unbalanced,paper=-",
            "--curve", "trade,push_size=4,unbalanced=0,label=Push size 4 balanced,paper=-",
            "--curve", "trade,push_size=4,unbalanced=1,label=Push size 4 unbalanced,paper=0.33",
        ], &[
            "Paper: the combination of both changes raises the required fraction by almost 50%.",
        ])],
        quick: &[],
        coverage: None,
    },
    // X1: satiated nodes still answer with probability a, so coverage creeps back.
    Preset {
        name: "ext_altruism",
        figures: &[(&[
            "--scenario", "token",
            "--title", "X1 — Altruism restores coverage under mass satiation (token model)",
            "--sweep", "altruism",
            "--fraction-grid", "0:0.5",
            "--x-label", "altruism probability a",
            "--y-label", "mean final coverage of untouched nodes",
            "--metric", "untouched_mean_coverage",
            "--param", "graph=er",
            "--param", "er_p=0.08",
            "--param", "nodes=80",
            "--param", "tokens=24",
            "--param", "contacts_per_round=1",
            "--param", "rounds=150",
            "--curve", "none,label=no attack",
            "--curve", "random-fraction,fraction=0.5,label=attacked (50% satiated every round)",
        ], &[
            "Paper §3: a > 0 guarantees eventual global satiation; altruism is the mitigation.",
        ])],
        quick: &["rounds=60"],
        coverage: None,
    },
    // X2: token 0 lives only at node 0 (top left); the column-6 cut keeps it from the right half.
    Preset {
        name: "ext_cut",
        figures: &[(&[
            "--scenario", "token",
            "--title", "X2 — Cut attacks on structured graphs (token model, 8x12)",
            "--x-values", "0.0833",
            "--x-label", "fraction of nodes satiated (one grid column = 8 of 96)",
            "--y-label", "mean coverage (untouched nodes)",
            "--metric", "untouched_mean_coverage",
            "--param", "tokens=12",
            "--param", "allocation=rare",
            "--param", "copies=4",
            "--param", "rounds=300",
            "--curve", "cut-column,graph=grid,rows=8,cols=12,cut_col=6,label=grid column cut satiated",
            "--curve", "random-fraction,graph=grid,rows=8,cols=12,label=grid same budget random",
            "--curve", "random-fraction,graph=er,er_p=0.05,nodes=96,label=erdos-renyi same budget random",
        ], &[
            "Paper §3: a cheap cut (one grid column, 8 nodes) denies the far side",
            "the rare token forever; random graphs and random targeting resist.",
        ])],
        quick: &["rounds=120"],
        coverage: None,
    },
    // X3: the attacker satiates at most two holders a round.
    Preset {
        name: "ext_rare",
        figures: &[(&[
            "--scenario", "token",
            "--title", "X3 — Rare-token denial: attacker satiates every holder (token model)",
            "--sweep", "rare_holders",
            "--x-values", "1,2,3,4,6,8",
            "--x-label", "initial holders of the rare token",
            "--y-label", "fraction of nodes that ever obtain it",
            "--metric", "token0_reach",
            "--param", "nodes=60",
            "--param", "tokens=10",
            "--param", "allocation=rare-spread",
            "--param", "copies=4",
            "--param", "rounds=120",
            "--curve", "none,label=no attack",
            "--curve", "rare-holders,budget=2,label=rare-holder satiation attack (budget 2/round)",
        ], &[
            "Paper §3: one rare holder is silenced for the cost of satiating one node;",
            "once holders outnumber the attacker's budget the token escapes — spreading",
            "the initial allocation is the defense.",
        ])],
        quick: &[],
        coverage: None,
    },
    // X4: the attacker is endowed with all the money, its best case.
    Preset {
        name: "ext_scrip_supply",
        figures: &[(&[
            "--scenario", "scrip",
            "--title", "X4 — The money supply caps the satiable fraction (scrip system)",
            "--fraction-grid", "0.05:0.9",
            "--x-label", "fraction of agents targeted",
            "--y-label", "achieved target satiation",
            "--metric", "target_satiation",
            "--param", "agents=100",
            "--param", "threshold=5",
            "--param", "endowment=1.0",
            "--param", "rounds=20000",
            "--param", "warmup=2000",
            "--curve", "lotus-eater,money_per_agent=1,label=money per agent m = 1 (threshold k = 5)",
            "--curve", "lotus-eater,money_per_agent=2,label=money per agent m = 2 (threshold k = 5)",
            "--curve", "lotus-eater,money_per_agent=4,label=money per agent m = 4 (threshold k = 5)",
        ], &[
            "Satiating a fraction f of agents locks ~f*n*k scrip; only m*n exists, so",
            "satiation collapses beyond f ~ m/k (0.2, 0.4, 0.8 for these series).",
        ])],
        quick: &["rounds=4000", "warmup=400"],
        coverage: None,
    },
    // X5: with adaptive thresholds, free altruist service erodes the value of money.
    Preset {
        name: "ext_scrip_altruists",
        figures: &[(&[
            "--scenario", "scrip",
            "--title", "X5 — Altruists crash an adaptive scrip economy",
            "--sweep", "altruists",
            "--x-values", "0,5,10,20,30,40,60,80",
            "--x-label", "number of altruists (of 100 agents)",
            "--y-label", "service rate / mean threshold",
            "--param", "agents=100",
            "--param", "money_per_agent=3",
            "--param", "threshold=4",
            "--param", "availability=0.25",
            "--param", "rounds=60000",
            "--param", "warmup=15000",
            "--curve", "none,adaptive_thresholds=0,metric=service_rate,label=service rate (fixed thresholds)",
            "--curve", "none,adaptive_thresholds=1,metric=service_rate,label=service rate (adaptive thresholds)",
            "--curve", "none,adaptive_thresholds=1,metric=mean_threshold,label=mean threshold (adaptive)",
        ], &[
            "The crash: middling altruist counts erode thresholds (paid market dies)",
            "while altruist capacity cannot yet cover demand.",
        ])],
        quick: &["rounds=12000", "warmup=3000"],
        coverage: None,
    },
    // X6: satiated targets finish early and leave; a third of the leechers are targeted.
    Preset {
        name: "ext_bittorrent",
        figures: &[(&[
            "--scenario", "bittorrent",
            "--title", "X6 — Satiation attack on a BitTorrent swarm (40 leechers, 33% targeted)",
            "--sweep", "attacker_peers",
            "--x-values", "0,1,2,4,6,8,12",
            "--x-label", "attacker peers (8 upload slots each)",
            "--y-label", "mean completion round",
            "--param", "leechers=40",
            "--param", "origin_seeds=1",
            "--param", "pieces=48",
            "--param", "max_rounds=1500",
            "--param", "fraction=0.33",
            "--param", "attacker_slots=8",
            "--curve", "satiate,metric=mean_completion_nontargeted,label=non-targeted leechers",
            "--curve", "satiate,metric=mean_completion_targeted,label=targeted leechers",
        ], &[
            "Targets finish early (satiated); non-targets are barely hurt — often helped —",
            "because the attacker's own upload capacity joins the swarm (paper §1).",
        ])],
        quick: &[],
        coverage: None,
    },
    // X7: a deliberately minimal attacker (one peer, two slots) satiates the rarest pieces' holders.
    Preset {
        name: "ext_rarest_first",
        figures: &[(&[
            "--scenario", "bittorrent",
            "--title", "X7 — Rare-piece satiation vs piece-selection policy (40 leechers, 96 pieces)",
            "--x-values", "0,0.125,0.25,0.375,0.5",
            "--x-label", "fraction of leechers targeted (rare-piece holders)",
            "--y-label", "completion round of non-targeted leechers",
            "--param", "leechers=40",
            "--param", "origin_seeds=1",
            "--param", "pieces=96",
            "--param", "unchoke_slots=3",
            "--param", "max_rounds=3000",
            "--param", "attacker_peers=1",
            "--param", "attacker_slots=2",
            "--param", "target_policy=rare",
            "--curve", "satiate,piece_policy=rarest,metric=mean_completion_nontargeted,label=rarest-first: mean completion",
            "--curve", "satiate,piece_policy=rarest,metric=p95_completion_nontargeted,label=rarest-first: p95 completion",
            "--curve", "satiate,piece_policy=random,metric=mean_completion_nontargeted,label=uniform-random: mean completion",
            "--curve", "satiate,piece_policy=random,metric=p95_completion_nontargeted,label=uniform-random: p95 completion",
        ], &[
            "Clean swarm: rarest-first beats random (piece diversity keeps leechers",
            "trading). Attacked: neither policy develops a last-pieces problem — the",
            "origin seed re-replicates rarity and early departures free its capacity.",
            "The paper's conclusion holds: this attack variant does not pay (§1, §4).",
        ])],
        quick: &[],
        coverage: None,
    },
    // X8: the trade attack at 30%, well above its break point; signed exchange records are the evidence.
    Preset {
        name: "ext_reporting",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "X8 — Report-and-evict defense vs obedient fraction (quorum 3)",
            "--sweep", "report_obedient",
            "--fraction-grid", "0:1",
            "--x-label", "fraction of honest nodes that are obedient reporters",
            "--y-label", "isolated delivery / evicted fraction",
            "--param", "fraction=0.30",
            "--param", "report_quorum=3",
            "--param", "report_excess_slack=1",
            "--curve", "trade,label=isolated delivery (trade attack at 30%)",
            "--curve", "trade,metric=evicted_fraction,label=fraction of attackers evicted",
        ], &[
            "A modest pool of obedient nodes suffices to evict every trade attacker",
            "(signed exchange records are the evidence) and restore usability.",
        ])],
        quick: &[],
        coverage: None,
    },
    // X9: a flat per-exchange cap; the attacker's many small exchanges slip under it.
    Preset {
        name: "ext_rate_limit",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "X9 — Per-interaction rate limit vs attacks (cap in updates/exchange)",
            "--sweep", "rate_limit",
            "--x-values", "1,2,3,5,8,16,32",
            "--x-label", "rate limit (updates per interaction; 32 = unbounded)",
            "--y-label", "isolated delivery",
            "--curve", "none,label=no attack (defense cost)",
            "--curve", "trade,fraction=0.30,label=trade attack at 30%",
            "--curve", "ideal,fraction=0.10,label=ideal attack at 10% (bypasses protocol)",
        ], &[
            "Negative result, as the paper anticipates (§5 open problem): a flat",
            "per-interaction cap hurts honest exchanges more than the attacker, and",
            "cannot touch the out-of-band ideal attack. Effective rate limiting must",
            "discriminate excess service — which is what report-and-evict (X8) does.",
        ])],
        quick: &[],
        coverage: None,
    },
    // X10: Avalanche-style coding; a node needs any 16 - redundancy of the 16 coded tokens.
    Preset {
        name: "ext_coding",
        figures: &[(&[
            "--scenario", "token",
            "--title", "X10 — Coding defense: need (16 - redundancy) of 16 coded tokens",
            "--sweep", "redundancy",
            "--x-values", "0,1,2,4,6,8",
            "--x-label", "redundancy (extra coded tokens)",
            "--y-label", "fraction of untouched nodes satisfied",
            "--metric", "untouched_satisfied",
            "--param", "nodes=60",
            "--param", "tokens=16",
            "--param", "allocation=rare",
            "--param", "copies=4",
            "--param", "rounds=100",
            "--curve", "none,label=no attack",
            "--curve", "rare-holders,label=rare-token attack",
        ], &[
            "Redundancy 0 = collect-all: denying the one rare token denies everyone.",
            "Any redundancy >= 1 makes the rare token skippable (paper §4, Avalanche).",
        ])],
        quick: &[],
        coverage: None,
    },
    // X11: periods below the update lifetime heal rotated-in nodes before their gaps expire.
    Preset {
        name: "ext_rotation",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "X11 — Rotating satiation (trade attack at 30%, Table-1 system)",
            "--sweep", "rotation_period",
            "--x-values", "0,40,20,10,5,2",
            "--x-label", "rotation period in rounds (0 = static satiated set)",
            "--y-label", "fraction / delivery",
            "--param", "rounds=60",
            "--param", "fraction=0.30",
            "--curve", "trade,metric=nodes_ever_unusable,label=honest nodes ever unusable",
            "--curve", "trade,metric=unusable_node_rounds,label=unusable node-round samples",
            "--curve", "trade,metric=min_node_delivery,label=min whole-run node delivery",
        ], &[
            "Static: only the isolated 30% ever suffer. Slow rotation (period >= the",
            "update lifetime): everyone takes a turn being isolated — intermittent",
            "unusability for all, as §2 predicts. Fast rotation backfires: the",
            "attacker refills rotated-in nodes before their missed updates expire,",
            "involuntarily becoming an altruist — the satiated set must stay isolated",
            "longer than a lifetime for the outage to register.",
        ])],
        quick: &[],
        coverage: None,
    },
    // X12: purchases at one scrip per update replace the balanced exchange's double coincidence of wants.
    Preset {
        name: "ext_scrip_gossip",
        figures: &[(&[
            "--title", "X12 — Scrip-mediated gossip resists the trade lotus-eater attack",
            "--fraction-grid", "0:0.6",
            "--y-label", "isolated delivery",
            "--metric", "isolated_delivery",
            "--curve", "trade,scenario=bar-gossip,label=vanilla BAR Gossip (trade attack)",
            "--curve", "trade,scenario=scrip-gossip,label=scrip gossip (same attack)",
        ], &[
            "Update gifts cannot silence a seller that still wants income; to silence",
            "it the attacker must hold its *balance* at threshold — and the fixed",
            "money supply caps how many nodes he can hold there (X4). The paper's §4",
            "suggestion checks out.",
        ])],
        quick: &[],
        coverage: None,
    },
    // X13: the cut is planned by BFS layers; a failed plan on the control degrades to no attack.
    Preset {
        name: "ext_sensor",
        figures: &[(&[
            "--scenario", "token",
            "--title", "X13 — Power-saving sensors under a planned cut attack (120 nodes)",
            "--x-values", "0.1",
            "--x-label", "fraction satiated by the random-budget control",
            "--y-label", "mean coverage (untouched nodes)",
            "--metric", "untouched_mean_coverage",
            "--param", "nodes=120",
            "--param", "tokens=12",
            "--param", "allocation=rare",
            "--param", "copies=5",
            "--param", "rounds=250",
            "--curve", "cut-plan,graph=geometric,radius=0.17,label=geometric field: planned spatial cut",
            "--curve", "random-fraction,graph=geometric,radius=0.17,label=geometric field: same budget random",
            "--curve", "cut-plan,graph=er,er_p=0.045,label=erdos-renyi control: planned cut",
        ], &[
            "Geometric radio fields expose cheap spatial cuts; the same satiation",
            "budget spent randomly does far less damage (§1, §3).",
        ])],
        quick: &[],
        coverage: None,
    },
    // X14: reputation is minted by feedback, so holding targets costs a bill, not a share of a fixed supply.
    Preset {
        name: "ext_reputation",
        figures: &[(&[
            "--title", "X14 — Satiation currencies: conserved scrip vs minted reputation",
            "--x-values", "0.1,0.2,0.3,0.45,0.6,0.75,0.9",
            "--x-label", "fraction of agents targeted",
            "--y-label", "achieved satiation / attacker bill per round",
            "--param", "agents=100",
            "--param", "threshold=5",
            "--param", "rounds=20000",
            "--param", "warmup=2000",
            "--curve", "lotus-eater,scenario=scrip,money_per_agent=2,endowment=1.0,metric=target_satiation,\
                        label=scrip: achieved satiation (m=2 k=5)",
            "--curve", "inflate,scenario=reputation,metric=target_satiation,label=reputation: achieved satiation (k=5)",
            "--curve", "inflate,scenario=reputation,metric=attacker_cost_per_round,label=reputation: attacker bill / round",
        ], &[
            "Scrip hits the supply wall past phi ~ m/k = 0.4; reputation never does —",
            "the attacker's only constraint is a bill growing linearly in targets",
            "(k(1-delta) fake points per target per round). Conservation is what makes",
            "'making satiation hard' (§4) a *hard* guarantee.",
        ])],
        quick: &["rounds=4000", "warmup=400"],
        coverage: None,
    },
    // X15: on for 10 rounds of every 20, one update lifetime of defection and one of cooperation.
    Preset {
        name: "ext_oscillating",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "X15 — Oscillating lotus-eater (periodic:20:10 vs always-on)",
            "--param", "rounds=60",
            "--y-label", "isolated delivery at expiry",
            "--curve", "trade,label=always-on trade attack",
            "--curve", "trade,schedule=periodic:20:10,label=oscillating trade attack",
            "--curve", "trade,schedule=periodic:20:10,metric=nodes_ever_unusable,label=oscillating: nodes ever unusable",
            "--curve", "none,label=no attack",
        ], &[
            "The oscillating attacker trades sustained pressure for periodic",
            "shocks: isolated delivery recovers partway during each cooperate",
            "phase, but every re-defection dips it again — the nodes-ever-",
            "unusable curve shows the intermittent outages spreading across",
            "the population even where mean delivery looks tolerable.",
        ])],
        quick: &[],
        coverage: None,
    },
    // X16: 22% is the paper's break-even trade attacker; departed nodes rejoin at 0.25 a round.
    Preset {
        name: "ext_churn",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "X16 — Churn-gossip (delivery vs per-round departure rate)",
            "--sweep", "churn_leave",
            "--x-values", "0,0.005,0.01,0.02,0.05,0.1",
            "--x-label", "per-round departure probability (rejoin at 0.25/round)",
            "--y-label", "delivery at expiry",
            "--param", "rounds=60",
            "--param", "fraction=0.22",
            "--curve", "none,label=no attack",
            "--curve", "trade,label=trade attack at 22%",
            "--curve", "trade,metric=isolated_delivery,label=trade at 22%: isolated nodes",
        ], &[
            "Churn alone degrades delivery gracefully — absent nodes miss",
            "updates but the seeding spread covers the rest. Under the trade",
            "attack the same churn bites much harder: the isolated nodes'",
            "curve drops through the 93% usability bar at departure rates the",
            "clean system shrugs off, because the attacker already removed",
            "the satiated set from the honest exchange pool.",
        ])],
        quick: &[],
        coverage: None,
    },
    // X17: the bandits re-plan every 10 rounds against always-on and X15's static schedule.
    Preset {
        name: "ext_adaptive",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "X17 — Adaptive bandit attackers vs static schedules",
            "--param", "rounds=120",
            "--y-label", "isolated delivery at expiry",
            "--arm-trace",
            "--curve", "trade,label=always-on trade attack",
            "--curve", "trade,schedule=periodic:20:10,label=static oscillating (20:10)",
            "--curve", "trade,adaptive=epsilon-greedy:10:0.1,label=adaptive epsilon-greedy",
            "--curve", "trade,adaptive=ucb:10:0.5,label=adaptive UCB1",
            "--curve", "none,label=no attack",
        ], &[
            "The bandit spends its first four phases sweeping the arms, then",
            "concentrates on whichever defection pattern the observed damage",
            "rewards — on BAR Gossip that is defect/rotate-heavy play that",
            "tracks the always-on attack while spending cooperate phases",
            "rebuilding stock. The arm traces above show the learned schedule",
            "per curve; sweep adaptive_epsilon or adaptive_phase to study how",
            "exploration and commitment length trade off against damage.",
        ])],
        quick: &[],
        coverage: None,
    },
    // X18: 75 empty nodes (30% of the system) land at round 20 on gossip, 15 leechers at round 10 on the swarm.
    Preset {
        name: "ext_flashcrowd",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "X18 — Flash crowds vs the lotus-eater (burst arrivals on two substrates)",
            "--x-values", "0,0.05,0.11,0.17,0.22,0.28,0.33",
            "--x-label", "attacker fraction",
            "--y-label", "isolated delivery (gossip) / rounds to complete (swarm)",
            "--curve", "trade,rounds=60,label=gossip: trade (closed)",
            "--curve", "trade,rounds=60,arrival=burst:20:75,label=gossip: trade + crowd@20",
            "--curve", "trade,rounds=60,arrival=burst:20:75,schedule=presence-above:0.99,\
                        label=gossip: strike when the crowd lands",
            "--curve", "none,rounds=60,arrival=burst:20:75,label=gossip: crowd only",
            "--curve", "satiate,scenario=bittorrent,arrival=burst:10:15,label=swarm: satiate + crowd@10",
            "--curve", "none,scenario=bittorrent,arrival=burst:10:15,label=swarm: crowd only",
        ], &[
            "The gossip crowd costs ~2 points of isolated delivery on its",
            "own; under the trade attack the loss is superadditive and the",
            "93% usability bar falls at smaller attacker fractions than the",
            "closed sweep predicts — newcomers depend on exactly the",
            "exchange partners the attacker silenced. The presence-triggered",
            "variant cooperates until the crowd lands, then defects into the",
            "spike. On the swarm the sign flips: the satiation attacker's",
            "upload capacity absorbs the crowd's demand, so nontargeted",
            "completion *improves* with attacker fraction — the attack",
            "masks the crowd (and the crowd masks the attack).",
        ])],
        quick: &[],
        coverage: None,
    },
    // X19: masqueraders at 20% go silent at exactly the ambient loss rate; silence cut-off quorum 3.
    Preset {
        name: "ext_faults",
        figures: &[(&[
            "--scenario", "bar-gossip",
            "--title", "X19 — Faults and plausible deniability (cutoff quorum 3)",
            "--sweep", "fault_loss",
            "--x-values", "0,0.05,0.1,0.2,0.3",
            "--x-label", "per-delivery message-loss probability",
            "--y-label", "delivery / cut rate",
            "--param", "rounds=60",
            "--param", "fraction=0.2",
            "--param", "cutoff=3",
            "--curve", "none,label=bar-gossip: clean delivery",
            "--curve", "masquerade,label=bar-gossip: delivery vs masquerade at 20%",
            "--curve", "none,metric=false_cut_rate,label=bar-gossip: honest false-cut rate",
            "--curve", "masquerade,metric=attacker_cut_rate,label=bar-gossip: masquerader cut rate",
            "--curve", "none,scenario=scrip-gossip,label=scrip-gossip: clean delivery",
            "--curve", "masquerade,scenario=scrip-gossip,metric=attacker_cut_rate,\
                        label=scrip-gossip: masquerader cut rate",
        ], &[
            "Faults degrade both substrates gracefully: delivery slides with",
            "the loss rate, no cliff. The defense-side story is the sharp one:",
            "at zero loss the masquerader is perfectly deniable (it never",
            "defects) and nobody is cut; at moderate loss the cutoff catches",
            "masqueraders faster than honest unlucky nodes; as loss climbs the",
            "honest false-cut rate converges toward the masquerader cut rate",
            "and the defense's precision collapses — plausible deniability,",
            "quantified.",
        ])],
        quick: &[],
        coverage: None,
    },
    // X20 plots delivery; X20b re-runs three of its curves for the attempted bytes on the wire.
    Preset {
        name: "ext_digest",
        figures: &[(&[
            "--scenario", "bar-gossip-digest",
            "--title", "X20 — Digest gossip: advertise-then-withhold vs the classic attacks",
            "--x-values", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
            "--x-label", "attacker fraction",
            "--y-label", "isolated-node delivery",
            "--param", "rounds=60",
            "--curve", "none,label=no attack",
            "--curve", "trade,label=trade lotus-eater",
            "--curve", "masquerade,faults=loss:0.05,cutoff=3,label=masquerade over 5% loss (cutoff 3)",
            "--curve", "poison,label=poison: withhold every request",
            "--curve", "poison,poison_rate=0.15,label=poison: withhold 15% (deniable)",
            "--curve", "poison,audit=0.02,cutoff=3,label=poison vs digest audit (cutoff 3)",
        ], &[
            "Gossip redundancy absorbs withholding: any honest partner fills",
            "the diff, so the full-rate poisoner needs near-majority control",
            "before isolated delivery cliffs — and at 15% withholding it is",
            "both harmless and statistically hidden under the digest's own",
            "false positives. Auditing advertised-but-undelivered ids arms the",
            "silence cut-off against exactly this: the full-rate poisoner is",
            "cut early and delivery recovers.",
        ]), (&[
            "--scenario", "bar-gossip-digest",
            "--title", "X20b — Bytes on the wire under the digest round",
            "--x-values", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
            "--x-label", "attacker fraction",
            "--y-label", "attempted bytes on the wire",
            "--param", "rounds=60",
            "--curve", "none,metric=digest_bytes_on_wire,label=bytes: no attack",
            "--curve", "trade,metric=digest_bytes_on_wire,label=bytes: trade lotus-eater",
            "--curve", "poison,metric=digest_bytes_on_wire,label=bytes: poison (rate 1.0)",
        ], &[
            "The transfer leg dominates the byte bill, so wire cost tracks",
            "useful work: the poisoner's withholding *saves* bytes while it",
            "starves delivery (defection is cheaper than cooperation), and",
            "trade's gifts ride outside the digest legs entirely. Digest",
            "advertisements themselves are a flat, tunable overhead",
            "(digest_bits/8 per exchange each way).",
        ])],
        quick: &[],
        coverage: None,
    },
];

/// The preset named `name`.
///
/// # Errors
///
/// An unknown name, with the list of valid ones.
pub(crate) fn find(name: &str) -> Result<&'static Preset, String> {
    PRESETS.iter().find(|p| p.name == name).ok_or_else(|| {
        let names: Vec<&str> = PRESETS.iter().map(|p| p.name).collect();
        format!("unknown preset {name:?}; presets: {}", names.join(", "))
    })
}

impl Preset {
    /// Run every figure with `rest` (the caller's other arguments)
    /// after its argv, and print each one's prose under it.
    ///
    /// # Errors
    ///
    /// Parse, validation and configuration errors, as from
    /// [`run_args`](crate::runner::run_args).
    pub(crate) fn run(&self, rest: &[String]) -> Result<String, String> {
        use std::fmt::Write;
        if self.figures.is_empty() {
            return Ok(render_table1());
        }
        let quick: &[&str] = if rest.iter().any(|a| a == "--quick") {
            self.quick
        } else {
            &[]
        };
        let mut out = String::new();
        for (argv, epilogue) in self.figures {
            let args: Vec<String> = argv
                .iter()
                .copied()
                .chain(quick.iter().flat_map(|p| ["--param", p]))
                .map(String::from)
                .chain(rest.iter().cloned())
                .collect();
            let opts = parse_args(&args)?;
            out.push_str(&run_options(&opts)?);
            if opts.format == Format::Json {
                continue;
            }
            for line in *epilogue {
                let _ = writeln!(out, "{line}");
            }
            if let Some((x, paper_pct)) = self.coverage {
                let req = RunRequest::new(x, 1, "ideal", "fraction", &opts.params);
                let report = ScenarioRegistry::standard().run("bar-gossip", &req)?;
                let coverage = report
                    .metric("attacker_coverage")
                    .ok_or("bar-gossip reports no attacker_coverage")?;
                let _ = writeln!(
                    out,
                    "Ideal attacker at {:.0}% control holds {:.1}% of updates (paper: ~{paper_pct}%)",
                    x * 100.0,
                    coverage * 100.0
                );
            }
        }
        Ok(out)
    }
}

/// The paper's Table 1, as carried by [`BarGossipConfig::default`].
fn render_table1() -> String {
    let cfg = BarGossipConfig::default();
    let mut t = Table::new(vec!["Parameter", "Value"]);
    t.row(vec!["Number of Nodes".into(), cfg.nodes.to_string()]);
    t.row(vec![
        "Updates per Round".into(),
        cfg.updates_per_round.to_string(),
    ]);
    t.row(vec![
        "Update Lifetime (rds)".into(),
        cfg.update_lifetime.to_string(),
    ]);
    t.row(vec!["Copies Seeded".into(), cfg.copies_seeded.to_string()]);
    t.row(vec![
        "Opt. Push Size (upd)".into(),
        cfg.push_size.to_string(),
    ]);
    format!(
        "# TABLE 1 — Simulation Parameters\n\n{}\nEvaluation horizon: {} warm-up + {} measured + {} drain rounds; usability threshold {}\n",
        t.render(),
        cfg.warmup_rounds,
        cfg.rounds,
        cfg.update_lifetime,
        cfg.usability_threshold
    )
}

#[cfg(test)]
mod tests {
    use crate::registry::{Params, RunRequest, ScenarioRegistry};
    use crate::runner::run_args;

    /// The last line of quick fig2, with one extra `--param` if given.
    fn fig2_coverage_line(param: Option<&str>) -> String {
        let mut args = vec![
            "--preset",
            "fig2",
            "--quick",
            "--seeds",
            "1",
            "--x-values",
            "0",
        ];
        if let Some(p) = param {
            args.extend(["--param", p]);
        }
        let args: Vec<String> = args.into_iter().map(String::from).collect();
        let out = run_args(&args).expect("fig2 runs");
        out.lines().last().expect("output").to_string()
    }

    #[test]
    fn coverage_line_is_probed_at_the_merged_params() {
        let params = Params::new().with("push_size", "10").with("nodes", "60");
        let req = RunRequest::new(0.15, 1, "ideal", "fraction", &params);
        let report = ScenarioRegistry::standard()
            .run("bar-gossip", &req)
            .expect("probe runs");
        let expected = format!(
            "Ideal attacker at 15% control holds {:.1}% of updates (paper: ~85%)",
            report.metric("attacker_coverage").expect("coverage") * 100.0
        );
        let line = fig2_coverage_line(Some("nodes=60"));
        assert_eq!(line, expected);
        assert_ne!(line, fig2_coverage_line(None), "the 250-node probe differs");
    }
}
