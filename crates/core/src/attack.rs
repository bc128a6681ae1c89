//! Attacker strategies for the token-collecting model.
//!
//! §3 of the paper assumes an attacker that, at the start of every round,
//! chooses a subset of nodes and hands each all the tokens. Which subset to
//! choose is the strategic question, and the paper walks through the
//! options parameter by parameter: cuts exploiting the graph `G`, rare
//! tokens exploiting the allocation `f`, and mass satiation to depress the
//! effective trade-opportunity budget `c`. Each of those is a strategy
//! here; the bench presets sweep them (experiments X1–X3, X10).

use crate::token::SystemView;
use netsim::rng::DetRng;
use netsim::NodeId;

/// A strategy choosing which nodes to satiate each round.
///
/// Implementations are consulted at the start of every round with a
/// read-only [`SystemView`]; every returned node receives the full token
/// set before gossip begins.
pub trait Attacker {
    /// Append this round's targets to `out`.
    ///
    /// The caller owns (and clears) the buffer, so a per-round consult
    /// costs no allocation once the buffer has grown to its steady-state
    /// size — the contract the zero-alloc-per-step regression suite
    /// holds every simulator to.
    fn targets_into(&mut self, view: &SystemView<'_>, rng: &mut DetRng, out: &mut Vec<NodeId>);

    /// Nodes to satiate at the start of this round, as a fresh vector.
    ///
    /// Allocating convenience over [`Attacker::targets_into`] for tests
    /// and one-shot call sites; hot loops keep a scratch buffer instead.
    fn targets(&mut self, view: &SystemView<'_>, rng: &mut DetRng) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.targets_into(view, rng, &mut out);
        out
    }

    /// Human-readable strategy name for reports.
    fn label(&self) -> &'static str {
        "attack"
    }
}

/// The null attacker: never satiates anyone. The baseline for every sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoAttack;

impl Attacker for NoAttack {
    fn targets_into(&mut self, _view: &SystemView<'_>, _rng: &mut DetRng, _out: &mut Vec<NodeId>) {}

    fn label(&self) -> &'static str {
        "no attack"
    }
}

/// Satiate a fixed random fraction of all nodes, chosen once in round 0
/// and re-satiated every round (the paper's mass-satiation attack on the
/// trade-opportunity budget `c`).
#[derive(Debug, Clone, PartialEq)]
pub struct SatiateRandomFraction {
    fraction: f64,
    chosen: Option<Vec<NodeId>>,
}

impl SatiateRandomFraction {
    /// Target `fraction` (clamped to `[0, 1]`) of all nodes.
    pub fn new(fraction: f64) -> Self {
        SatiateRandomFraction {
            fraction: fraction.clamp(0.0, 1.0),
            chosen: None,
        }
    }

    /// The chosen target set (after the first round).
    pub fn chosen(&self) -> Option<&[NodeId]> {
        self.chosen.as_deref()
    }
}

impl Attacker for SatiateRandomFraction {
    fn targets_into(&mut self, view: &SystemView<'_>, rng: &mut DetRng, out: &mut Vec<NodeId>) {
        if self.chosen.is_none() {
            let n = view.graph.len() as usize;
            let k = ((n as f64) * self.fraction).round() as usize;
            let picks = rng
                .sample_indices(n, k.min(n))
                .into_iter()
                .map(|i| NodeId(i as u32))
                .collect();
            self.chosen = Some(picks);
        }
        out.extend_from_slice(self.chosen.as_deref().unwrap_or_default());
    }

    fn label(&self) -> &'static str {
        "satiate random fraction"
    }
}

/// Satiate an explicit node set every round — used for graph-cut attacks
/// where the set is a vertex cut of `G` (paper §3: "the attacker can
/// partition the graph with relatively little cost by removing any set of
/// nodes that constitutes a cut").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatiateCut {
    cut: Vec<NodeId>,
}

impl SatiateCut {
    /// Satiate exactly `cut` every round.
    pub fn new(cut: Vec<NodeId>) -> Self {
        SatiateCut { cut }
    }

    /// The vertical column `col` of a `rows × cols` grid — the canonical
    /// cheap cut of a grid graph (cost `rows` nodes splits the system).
    pub fn grid_column(rows: u32, cols: u32, col: u32) -> Self {
        assert!(col < cols, "column {col} out of range for {cols} columns");
        let cut = (0..rows).map(|r| NodeId(r * cols + col)).collect();
        SatiateCut { cut }
    }

    /// Plan a cut on an arbitrary graph with the BFS-layer heuristic
    /// ([`netsim::graph::Graph::layered_cut`]), as an attacker exploring
    /// the topology from `src` would. Returns `None` where no cheap
    /// layered cut exists (e.g. dense random graphs — which is exactly why
    /// they resist this attack, §3).
    pub fn plan(graph: &netsim::graph::Graph, src: NodeId) -> Option<Self> {
        graph.layered_cut(src).map(SatiateCut::new)
    }

    /// The satiated node set.
    pub fn cut(&self) -> &[NodeId] {
        &self.cut
    }

    /// Whether this set actually cuts `graph` (sanity check for
    /// experiments).
    pub fn is_cut_of(&self, graph: &netsim::graph::Graph) -> bool {
        let mut removed = vec![false; graph.len() as usize];
        for n in &self.cut {
            removed[n.index()] = true;
        }
        graph.is_vertex_cut(&removed)
    }
}

impl Attacker for SatiateCut {
    fn targets_into(&mut self, _view: &SystemView<'_>, _rng: &mut DetRng, out: &mut Vec<NodeId>) {
        out.extend_from_slice(&self.cut);
    }

    fn label(&self) -> &'static str {
        "satiate cut"
    }
}

/// Satiate every current holder of one token, every round — the
/// rare-token denial attack (paper §3: "an attacker can deny the entire
/// system access to that token for the cost of satiating one node").
///
/// Satiating a holder does not *remove* the token, but with `a = 0` a
/// satiated holder never responds, so the token stops spreading; if all
/// holders are satiated before they pass it on, the rest of the system
/// never completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatiateRareHolders {
    token: usize,
}

impl SatiateRareHolders {
    /// Target the holders of `token` (conventionally token 0 under
    /// [`crate::token::Allocation::RareToken`]).
    pub fn new(token: usize) -> Self {
        SatiateRareHolders { token }
    }
}

impl Attacker for SatiateRareHolders {
    fn targets_into(&mut self, view: &SystemView<'_>, _rng: &mut DetRng, out: &mut Vec<NodeId>) {
        for (i, h) in view.holdings.iter().enumerate() {
            if h.contains(self.token) {
                out.push(NodeId(i as u32));
            }
        }
    }

    fn label(&self) -> &'static str {
        "satiate rare-token holders"
    }
}

/// Rotate satiation across the population: each `period` rounds a
/// different `fraction`-sized slice is satiated. The paper: "By changing
/// who is satiated over time, the attacker could even make the service
/// intermittently unusable for all nodes."
///
/// This is now a thin alias over the shared timing layer: the rotation
/// arithmetic lives in [`crate::schedule::rotating_window`] and the
/// period in an [`AttackSchedule`](crate::schedule::AttackSchedule) — the
/// same machinery every substrate's scheduled attacks step.
#[derive(Debug, Clone, PartialEq)]
pub struct RotatingSatiation {
    fraction: f64,
    schedule: crate::schedule::ScheduleState,
}

impl RotatingSatiation {
    /// Satiate a rotating `fraction` of nodes, advancing every `period`
    /// rounds.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(fraction: f64, period: u64) -> Self {
        assert!(period > 0, "rotation period must be positive");
        RotatingSatiation {
            fraction: fraction.clamp(0.0, 1.0),
            schedule: crate::schedule::ScheduleState::new(
                crate::schedule::AttackSchedule::always().with_rotation(period),
            ),
        }
    }
}

impl Attacker for RotatingSatiation {
    fn targets_into(&mut self, view: &SystemView<'_>, _rng: &mut DetRng, out: &mut Vec<NodeId>) {
        let n = view.graph.len() as usize;
        let k = ((n as f64) * self.fraction).round() as usize;
        if k == 0 {
            return;
        }
        let phase = self
            .schedule
            .rotation_phase(view.round)
            .expect("rotating satiation always has a rotation period");
        out.extend(crate::schedule::rotating_window(phase, k, n).map(|i| NodeId(i as u32)));
    }

    fn label(&self) -> &'static str {
        "rotating satiation"
    }
}

/// Wrap any strategy with a per-round budget: at most `budget` nodes get
/// satiated per round (attackers in real systems have finite bandwidth —
/// the paper's "sufficiently rapidly" qualifier made scarce).
#[derive(Debug, Clone)]
pub struct BudgetedAttacker<A> {
    inner: A,
    budget: usize,
    /// Total satiations actually performed.
    spent: u64,
}

impl<A: Attacker> BudgetedAttacker<A> {
    /// Limit `inner` to `budget` satiations per round.
    pub fn new(inner: A, budget: usize) -> Self {
        BudgetedAttacker {
            inner,
            budget,
            spent: 0,
        }
    }

    /// Total satiations performed so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: Attacker> Attacker for BudgetedAttacker<A> {
    fn targets_into(&mut self, view: &SystemView<'_>, rng: &mut DetRng, out: &mut Vec<NodeId>) {
        // Truncate only what the inner strategy appended this round: the
        // buffer may already carry another attacker's targets.
        let start = out.len();
        self.inner.targets_into(view, rng, out);
        out.truncate(start + self.budget);
        self.spent += (out.len() - start) as u64;
    }

    fn label(&self) -> &'static str {
        "budgeted attacker"
    }
}

/// A cloneable, data-carrying attacker specification for the unified
/// [`Scenario`](crate::scenario::Scenario) API.
///
/// The concrete strategies above are what analyses use directly; scenario
/// configs need an attack value that is `Clone` (sweeps re-build the
/// scenario per seed) and nameable without generics. `TokenAttack` wraps
/// each strategy — including its mutable state — behind one enum and
/// delegates [`Attacker`].
///
/// ```
/// use lotus_core::attack::{Attacker, TokenAttack};
/// let mut a = TokenAttack::random_fraction(0.5);
/// assert_eq!(a.label(), "satiate random fraction");
/// let b = a.clone(); // specs clone freely, state and all
/// assert_eq!(format!("{b:?}"), format!("{a:?}"));
/// ```
#[derive(Debug, Clone)]
pub enum TokenAttack {
    /// No attack ([`NoAttack`]).
    None(NoAttack),
    /// Mass satiation of a random fraction ([`SatiateRandomFraction`]).
    RandomFraction(SatiateRandomFraction),
    /// Satiate a vertex cut ([`SatiateCut`]).
    Cut(SatiateCut),
    /// Satiate the holders of one token ([`SatiateRareHolders`]).
    RareHolders(SatiateRareHolders),
    /// Rotate the satiated set over time ([`RotatingSatiation`]).
    Rotating(RotatingSatiation),
    /// Budget-limit any of the above ([`BudgetedAttacker`]).
    Budgeted(Box<BudgetedAttacker<TokenAttack>>),
}

impl TokenAttack {
    /// The null attack.
    pub fn none() -> Self {
        TokenAttack::None(NoAttack)
    }

    /// Satiate a random `fraction` of all nodes, fixed at first use.
    pub fn random_fraction(fraction: f64) -> Self {
        TokenAttack::RandomFraction(SatiateRandomFraction::new(fraction))
    }

    /// Satiate an explicit cut.
    pub fn cut(cut: SatiateCut) -> Self {
        TokenAttack::Cut(cut)
    }

    /// Satiate every current holder of `token`.
    pub fn rare_holders(token: usize) -> Self {
        TokenAttack::RareHolders(SatiateRareHolders::new(token))
    }

    /// Rotate a satiated `fraction` every `period` rounds.
    pub fn rotating(fraction: f64, period: u64) -> Self {
        TokenAttack::Rotating(RotatingSatiation::new(fraction, period))
    }

    /// Limit `self` to `budget` satiations per round.
    pub fn budgeted(self, budget: usize) -> Self {
        TokenAttack::Budgeted(Box::new(BudgetedAttacker::new(self, budget)))
    }
}

impl Attacker for TokenAttack {
    fn targets_into(&mut self, view: &SystemView<'_>, rng: &mut DetRng, out: &mut Vec<NodeId>) {
        match self {
            TokenAttack::None(a) => a.targets_into(view, rng, out),
            TokenAttack::RandomFraction(a) => a.targets_into(view, rng, out),
            TokenAttack::Cut(a) => a.targets_into(view, rng, out),
            TokenAttack::RareHolders(a) => a.targets_into(view, rng, out),
            TokenAttack::Rotating(a) => a.targets_into(view, rng, out),
            TokenAttack::Budgeted(a) => a.targets_into(view, rng, out),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            TokenAttack::None(a) => a.label(),
            TokenAttack::RandomFraction(a) => a.label(),
            TokenAttack::Cut(a) => a.label(),
            TokenAttack::RareHolders(a) => a.label(),
            TokenAttack::Rotating(a) => a.label(),
            TokenAttack::Budgeted(a) => a.label(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{Allocation, SatFunction, TokenSystem, TokenSystemConfig};
    use netsim::graph::Graph;

    fn complete_system(n: u32, tokens: usize, seed: u64) -> TokenSystem {
        let cfg = TokenSystemConfig::builder(Graph::complete(n))
            .tokens(tokens)
            .allocation(Allocation::UniformCopies { copies: 2 })
            .build()
            .unwrap();
        TokenSystem::new(cfg, seed)
    }

    #[test]
    fn no_attack_is_empty() {
        let sys = complete_system(8, 4, 0);
        let mut rng = DetRng::seed_from(0);
        assert!(NoAttack.targets(&sys.view(), &mut rng).is_empty());
        assert_eq!(NoAttack.label(), "no attack");
    }

    #[test]
    fn random_fraction_is_stable_across_rounds() {
        let sys = complete_system(20, 4, 1);
        let mut rng = DetRng::seed_from(5);
        let mut a = SatiateRandomFraction::new(0.25);
        let t1 = a.targets(&sys.view(), &mut rng);
        let t2 = a.targets(&sys.view(), &mut rng);
        assert_eq!(t1.len(), 5);
        assert_eq!(t1, t2, "target set chosen once");
        assert_eq!(a.chosen().unwrap(), &t1[..]);
    }

    #[test]
    fn random_fraction_clamps() {
        let sys = complete_system(10, 4, 1);
        let mut rng = DetRng::seed_from(5);
        assert!(SatiateRandomFraction::new(-0.5)
            .targets(&sys.view(), &mut rng)
            .is_empty());
        assert_eq!(
            SatiateRandomFraction::new(7.0)
                .targets(&sys.view(), &mut rng)
                .len(),
            10
        );
    }

    #[test]
    fn grid_column_is_a_cut() {
        let g = Graph::grid(5, 7, false);
        let cut = SatiateCut::grid_column(5, 7, 3);
        assert_eq!(cut.cut().len(), 5);
        assert!(cut.is_cut_of(&g));
        // Column 0 removes the border; survivors remain connected.
        let border = SatiateCut::grid_column(5, 7, 0);
        assert!(!border.is_cut_of(&g));
    }

    #[test]
    fn planned_cut_works_on_grids_not_on_dense_graphs() {
        let grid = Graph::grid(6, 10, false);
        let cut = SatiateCut::plan(&grid, NodeId(0)).expect("grid has a cheap cut");
        assert!(cut.is_cut_of(&grid));
        assert!(cut.cut().len() <= 10);
        let dense = Graph::complete(12);
        assert!(SatiateCut::plan(&dense, NodeId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn grid_column_bounds_checked() {
        SatiateCut::grid_column(5, 7, 7);
    }

    #[test]
    fn rare_holders_tracks_spread() {
        let cfg = TokenSystemConfig::builder(Graph::complete(10))
            .tokens(3)
            .allocation(Allocation::RareToken {
                holder: NodeId(4),
                copies: 3,
            })
            .build()
            .unwrap();
        let sys = TokenSystem::new(cfg, 2);
        let mut rng = DetRng::seed_from(0);
        let mut a = SatiateRareHolders::new(0);
        assert_eq!(a.targets(&sys.view(), &mut rng), vec![NodeId(4)]);
    }

    #[test]
    fn rotating_satiation_rotates() {
        let sys = complete_system(10, 4, 3);
        let mut rng = DetRng::seed_from(0);
        let mut a = RotatingSatiation::new(0.3, 1);
        let t0 = a.targets(&sys.view(), &mut rng);
        assert_eq!(t0, vec![NodeId(0), NodeId(1), NodeId(2)]);
        // Advance the system's round counter by running gossip.
        let mut sys = sys;
        use netsim::round::RoundSim;
        sys.round(0);
        let t1 = a.targets(&sys.view(), &mut rng);
        assert_eq!(t1, vec![NodeId(3), NodeId(4), NodeId(5)]);
    }

    #[test]
    fn rotating_zero_fraction_empty() {
        let sys = complete_system(10, 4, 3);
        let mut rng = DetRng::seed_from(0);
        let mut a = RotatingSatiation::new(0.0, 2);
        assert!(a.targets(&sys.view(), &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn rotating_zero_period_panics() {
        RotatingSatiation::new(0.5, 0);
    }

    #[test]
    fn budgeted_attacker_truncates_and_counts() {
        let sys = complete_system(20, 4, 1);
        let mut rng = DetRng::seed_from(5);
        let mut a = BudgetedAttacker::new(SatiateRandomFraction::new(0.5), 3);
        let t = a.targets(&sys.view(), &mut rng);
        assert_eq!(t.len(), 3);
        assert_eq!(a.spent(), 3);
        let _ = a.targets(&sys.view(), &mut rng);
        assert_eq!(a.spent(), 6);
        assert_eq!(a.inner().chosen().unwrap().len(), 10);
    }

    #[test]
    fn cut_attack_starves_far_side() {
        // 4x8 grid; cut column 4; token 0 lives only on the left side.
        let g = Graph::grid(4, 8, false);
        let mut lists: Vec<Vec<NodeId>> = Vec::new();
        // token 0: only at node (0,0); tokens 1..4: spread on both sides.
        lists.push(vec![NodeId(0)]);
        for t in 1..4u32 {
            lists.push(vec![NodeId(t), NodeId(31 - t)]);
        }
        let cfg = TokenSystemConfig::builder(g)
            .tokens(4)
            .allocation(Allocation::Explicit(lists))
            .sat(SatFunction::CollectAll)
            .build()
            .unwrap();
        let mut sys = TokenSystem::new(cfg, 7);
        let mut attack = SatiateCut::grid_column(4, 8, 4);
        let report = sys.run(&mut attack, 200);
        // Right side of the cut (columns 5..8) never gets token 0.
        let mut right_missing = 0;
        for r in 0..4u32 {
            for c in 5..8u32 {
                let v = NodeId(r * 8 + c);
                if !sys.holdings(v).contains(0) {
                    right_missing += 1;
                }
            }
        }
        assert_eq!(right_missing, 12, "no right-side node can obtain token 0");
        assert!(report.all_satiated_at.is_none());
    }
}
