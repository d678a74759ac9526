//! Deterministic CFG reduction: shrink a graph before it ever hits a
//! kernel.
//!
//! Every optimisation downstream of extraction lowers the per-node or
//! per-nonzero cost; this stage lowers `n` and `nnz` themselves. Three
//! strategies are provided, all deterministic functions of the input
//! graph (no randomness, no iteration-order dependence) and all
//! **idempotent** — reducing an already-reduced graph is a no-op:
//!
//! * [`ReduceStrategy::Chain`] — collapse maximal single-in/single-out
//!   basic-block chains into supernodes. Straight-line code dominates
//!   real CFGs, so this is the cheapest large win.
//! * [`ReduceStrategy::Prune`] — iteratively drop low-information
//!   degree-1 leaf blocks (few instructions), folding their attribute
//!   mass into the unique neighbour.
//! * [`ReduceStrategy::Coarsen`] — Weisfeiler–Lehman supernode
//!   coarsening: hash 1-hop neighbourhoods for `rounds` rounds and
//!   contract same-colour partitions, repeated until stable. Fewer
//!   rounds ⇒ coarser colours ⇒ smaller graphs.
//!
//! # Attribute semantics
//!
//! Merged supernodes sum every Table I count channel of their members
//! (instruction counts are extensive quantities), then recompute
//! `Offspring` (channel 9) from the reduced structure — it is defined
//! as the vertex out-degree, which reduction changes. Attribute mass is
//! therefore conserved exactly on all channels except `Offspring`;
//! [`ReduceStrategy::Prune`] keeps isolated zero-degree vertices alive
//! precisely because there is no neighbour to fold their mass into.
//!
//! # Determinism contract
//!
//! Vertex numbering of the reduced graph is derived solely from
//! original vertex indices (groups are ordered by their minimum member
//! index; the entry block's group is always vertex 0), and
//! [`crate::DiGraph`] keeps adjacency canonical, so the same input
//! always produces the bitwise-identical reduced ACFG on every worker
//! count and batching mode.

use crate::acfg::{Acfg, Attribute, NUM_ATTRIBUTES};
use crate::digraph::DiGraph;
use magic_tensor::Tensor;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Default WL refinement rounds for `coarsen` when no level is given.
pub const DEFAULT_COARSEN_ROUNDS: usize = 2;

/// Blocks with at most this many total instructions are "low
/// information" for [`ReduceStrategy::Prune`]. Chosen from the mskcfg
/// size histogram: the bottom decile of blocks carries ≤ 4
/// instructions, typically jump-pads and padding.
pub const PRUNE_MAX_INSTRUCTIONS: f32 = 4.0;

/// A graph-reduction strategy, selected with `--reduce` on the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReduceStrategy {
    /// Leave graphs untouched (the default).
    #[default]
    None,
    /// Collapse maximal single-in/single-out chains into supernodes.
    Chain,
    /// Drop low-information degree-1 leaves, folding attributes inward.
    Prune,
    /// WL-colour coarsening with the given refinement round count.
    Coarsen {
        /// WL refinement rounds per contraction pass (≥ 1). Fewer
        /// rounds merge more aggressively.
        rounds: usize,
    },
}

impl ReduceStrategy {
    /// Parses a `--reduce` argument: `none`, `chain`, `prune`,
    /// `coarsen` or `coarsen:<rounds>`.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceParseError`] for unknown names or a bad level.
    pub fn parse(s: &str) -> Result<Self, ReduceParseError> {
        match s {
            "none" => Ok(ReduceStrategy::None),
            "chain" => Ok(ReduceStrategy::Chain),
            "prune" => Ok(ReduceStrategy::Prune),
            "coarsen" => Ok(ReduceStrategy::Coarsen { rounds: DEFAULT_COARSEN_ROUNDS }),
            other => {
                if let Some(level) = other.strip_prefix("coarsen:") {
                    match level.parse::<usize>() {
                        Ok(rounds) if rounds >= 1 => Ok(ReduceStrategy::Coarsen { rounds }),
                        _ => Err(ReduceParseError { input: s.to_string() }),
                    }
                } else {
                    Err(ReduceParseError { input: s.to_string() })
                }
            }
        }
    }

    /// Canonical name, used in cache fingerprints, manifests and model
    /// checkpoints. `parse(name())` round-trips.
    pub fn name(&self) -> String {
        match self {
            ReduceStrategy::None => "none".to_string(),
            ReduceStrategy::Chain => "chain".to_string(),
            ReduceStrategy::Prune => "prune".to_string(),
            ReduceStrategy::Coarsen { rounds } => format!("coarsen:{rounds}"),
        }
    }

    /// Whether this strategy changes graphs at all.
    pub fn is_none(&self) -> bool {
        matches!(self, ReduceStrategy::None)
    }

    /// Applies the strategy, returning the reduced ACFG.
    pub fn apply(&self, acfg: &Acfg) -> Acfg {
        self.apply_with_report(acfg).0
    }

    /// Applies the strategy and reports how much structure was removed.
    ///
    /// Every non-`none` application emits a
    /// [`magic_obs::stage::REDUCE_APPLY`] span (with before/after node
    /// and edge fields) plus the
    /// [`magic_obs::stage::C_REDUCE_NODES_REMOVED`] /
    /// [`magic_obs::stage::C_REDUCE_EDGES_REMOVED`] counters.
    pub fn apply_with_report(&self, acfg: &Acfg) -> (Acfg, ReduceReport) {
        if self.is_none() {
            let report = ReduceReport {
                nodes_before: acfg.vertex_count(),
                edges_before: acfg.edge_count(),
                nodes_after: acfg.vertex_count(),
                edges_after: acfg.edge_count(),
            };
            return (acfg.clone(), report);
        }
        let before = (acfg.vertex_count(), acfg.edge_count());
        let reduced = {
            let _span = magic_obs::span_fields(
                magic_obs::stage::REDUCE_APPLY,
                &[("nodes_before", before.0 as f64), ("edges_before", before.1 as f64)],
            );
            match self {
                ReduceStrategy::None => unreachable!("handled above"),
                ReduceStrategy::Chain => collapse_chains(acfg),
                ReduceStrategy::Prune => prune_leaves(acfg),
                ReduceStrategy::Coarsen { rounds } => coarsen_fixpoint(acfg, *rounds),
            }
        };
        let report = ReduceReport {
            nodes_before: before.0,
            edges_before: before.1,
            nodes_after: reduced.vertex_count(),
            edges_after: reduced.edge_count(),
        };
        magic_obs::counter(
            magic_obs::stage::C_REDUCE_NODES_REMOVED,
            report.nodes_removed() as f64,
        );
        magic_obs::counter(
            magic_obs::stage::C_REDUCE_EDGES_REMOVED,
            report.edges_removed() as f64,
        );
        (reduced, report)
    }
}

impl fmt::Display for ReduceStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Error from [`ReduceStrategy::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceParseError {
    input: String,
}

impl fmt::Display for ReduceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid reduce strategy '{}': expected none|chain|prune|coarsen[:rounds]",
            self.input
        )
    }
}

impl Error for ReduceParseError {}

/// Structure removed by one [`ReduceStrategy::apply_with_report`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReduceReport {
    /// Vertices before reduction.
    pub nodes_before: usize,
    /// Edges before reduction.
    pub edges_before: usize,
    /// Vertices after reduction.
    pub nodes_after: usize,
    /// Edges after reduction.
    pub edges_after: usize,
}

impl ReduceReport {
    /// Vertices removed.
    pub fn nodes_removed(&self) -> usize {
        self.nodes_before - self.nodes_after
    }

    /// Edges removed.
    pub fn edges_removed(&self) -> usize {
        self.edges_before.saturating_sub(self.edges_after)
    }
}

/// Builds the reduced ACFG from a `vertex → group id` assignment where
/// group ids are "minimum original member index". Groups are renumbered
/// by ascending id, so the entry's group (which always contains vertex
/// 0) becomes vertex 0. Count channels sum over members; `Offspring` is
/// recomputed from the reduced out-degree. `keep_self_loop[g]` forces a
/// self-loop on a contracted group that swallowed a cycle, which both
/// records the loop structurally and blocks the group from chain-merging
/// on a second pass (idempotence).
fn contract(
    acfg: &Acfg,
    group_of: &[usize],
    keep_self_loop: impl Fn(usize, usize) -> bool,
) -> Acfg {
    let n = acfg.vertex_count();
    let mut ids: Vec<usize> = group_of.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let mut new_index = vec![usize::MAX; n];
    for (new, &id) in ids.iter().enumerate() {
        new_index[id] = new;
    }
    let renum = |v: usize| new_index[group_of[v]];

    let mut graph = DiGraph::new(ids.len());
    for (u, v) in acfg.graph().edges() {
        let (gu, gv) = (renum(u), renum(v));
        if gu != gv || keep_self_loop(u, v) {
            graph.add_edge(gu, gv);
        }
    }

    let mut attributes = Tensor::zeros([ids.len(), NUM_ATTRIBUTES]);
    for v in 0..n {
        let g = renum(v);
        let row = acfg.attributes().row(v);
        for (c, &x) in row.iter().enumerate() {
            let cur = attributes.get2(g, c);
            attributes.set2(g, c, cur + x);
        }
    }
    for g in 0..ids.len() {
        attributes.set2(g, Attribute::Offspring as usize, graph.out_degree(g) as f32);
    }
    Acfg::new(graph, attributes)
}

/// Linear-chain collapse. Vertex `v` merges into its unique predecessor
/// `u` when `out(u) == 1`, `in(v) == 1`, `u ≠ v` and `v` is not the
/// entry block. Merge links form chains (and, in pathological graphs,
/// pure cycles, which contract to a single vertex); each vertex's group
/// is its chain head. Internal non-merge edges (a tail closing a cycle
/// back to its head) become a supernode self-loop — that self-loop
/// raises the supernode's in- and out-degree above 1, which is what
/// makes the pass idempotent.
fn collapse_chains(acfg: &Acfg) -> Acfg {
    let g = acfg.graph();
    let n = g.vertex_count();
    if n == 0 {
        return acfg.clone();
    }
    let in_deg = g.in_degrees();
    // pred[v] = u when v merges into u.
    let mut pred = vec![usize::MAX; n];
    for u in 0..n {
        if g.out_degree(u) == 1 {
            let v = g.successors(u)[0];
            if v != 0 && v != u && in_deg[v] == 1 {
                pred[v] = u;
            }
        }
    }
    // Chain head of every vertex, walking merge links backwards. A walk
    // that revisits itself found a pure merge cycle; its head is the
    // minimum member index (deterministic and entry-safe, since vertex
    // 0 never has a merge predecessor).
    let mut head = vec![usize::MAX; n];
    for start in 0..n {
        if head[start] != usize::MAX {
            continue;
        }
        let mut path = vec![start];
        let mut v = start;
        let h = loop {
            let u = pred[v];
            if u == usize::MAX {
                break v;
            }
            if head[u] != usize::MAX {
                break head[u];
            }
            if let Some(pos) = path.iter().position(|&p| p == u) {
                break *path[pos..].iter().min().unwrap().min(&u);
            }
            path.push(u);
            v = u;
        };
        for p in path {
            head[p] = h;
        }
    }
    contract(acfg, &head, |u, v| pred[v] != u)
}

/// Degree/leaf pruning to a fixpoint: repeatedly remove non-entry
/// vertices with exactly one incident edge (a sink leaf or an orphan
/// source) whose `TotalInstructions` is at most
/// [`PRUNE_MAX_INSTRUCTIONS`], folding the removed row into the unique
/// neighbour. Isolated vertices are kept (there is nowhere to fold
/// their mass). Running to a fixpoint makes the pass idempotent.
fn prune_leaves(acfg: &Acfg) -> Acfg {
    let mut current = acfg.clone();
    loop {
        let g = current.graph();
        let n = g.vertex_count();
        let in_deg = g.in_degrees();
        // fold_into[v] = unique neighbour for prunable v.
        let mut fold_into = vec![usize::MAX; n];
        for v in 1..n {
            let small = current.attribute(v, Attribute::TotalInstructions)
                <= PRUNE_MAX_INSTRUCTIONS;
            if !small || g.has_edge(v, v) {
                continue;
            }
            if g.out_degree(v) == 0 && in_deg[v] == 1 {
                // Sink leaf: fold into its unique predecessor.
                let u = (0..n).find(|&u| g.has_edge(u, v)).expect("in-degree 1");
                fold_into[v] = u;
            } else if in_deg[v] == 0 && g.out_degree(v) == 1 {
                // Orphan source: fold into its unique successor.
                fold_into[v] = g.successors(v)[0];
            }
        }
        // A fold target must itself survive this round, otherwise two
        // mutually-prunable vertices would drop each other's mass.
        for v in 0..n {
            if fold_into[v] != usize::MAX && fold_into[fold_into[v]] != usize::MAX {
                fold_into[v] = usize::MAX;
            }
        }
        if fold_into.iter().all(|&f| f == usize::MAX) {
            return current;
        }
        let group_of: Vec<usize> =
            (0..n).map(|v| if fold_into[v] == usize::MAX { v } else { fold_into[v] }).collect();
        current = contract(&current, &group_of, |u, v| u == v);
    }
}

/// One WL coarsening pass: `rounds` rounds of colour refinement from
/// uniform initial colours, then contraction of same-colour groups.
/// Returns `None` when every vertex has a distinct colour (contraction
/// would be the identity).
fn coarsen_once(acfg: &Acfg, rounds: usize) -> Option<Acfg> {
    let g = acfg.graph();
    let n = g.vertex_count();
    if n == 0 {
        return None;
    }
    // Nonzero seed colour: zero is absorbing under the WL hash's
    // multiplicative mixing and would glue the whole graph together.
    let mut colors = vec![1u64; n];
    for _ in 0..rounds {
        colors = g.wl_refine(&colors);
    }
    // Group id = minimum vertex index with this colour.
    let mut first_with: HashMap<u64, usize> = HashMap::new();
    for (v, &color) in colors.iter().enumerate() {
        first_with.entry(color).or_insert(v);
    }
    if first_with.len() == n {
        return None;
    }
    let group_of: Vec<usize> = (0..n).map(|v| first_with[&colors[v]]).collect();
    // An edge between two same-colour vertices is real structure; keep
    // it as a supernode self-loop (original self-loops too).
    Some(contract(acfg, &group_of, |_, _| true))
}

/// WL coarsening iterated until contraction is the identity, which
/// makes the whole strategy idempotent: the fixpoint condition is a
/// property of the graph alone, so a second application terminates
/// immediately.
fn coarsen_fixpoint(acfg: &Acfg, rounds: usize) -> Acfg {
    let mut current = acfg.clone();
    while let Some(next) = coarsen_once(&current, rounds) {
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ACFG whose `TotalInstructions`/`InstructionsInVertex` are 1 and
    /// all other hand-set channels 0 (Offspring filled from structure).
    fn acfg_with(n: usize, edges: &[(usize, usize)]) -> Acfg {
        let g = DiGraph::from_edges(n, edges.iter().copied());
        let mut attrs = Tensor::zeros([n, NUM_ATTRIBUTES]);
        for v in 0..n {
            attrs.set2(v, Attribute::TotalInstructions as usize, 1.0);
            attrs.set2(v, Attribute::InstructionsInVertex as usize, 1.0);
            attrs.set2(v, Attribute::Offspring as usize, g.out_degree(v) as f32);
        }
        Acfg::new(g, attrs)
    }

    fn total_instructions(acfg: &Acfg) -> f32 {
        (0..acfg.vertex_count())
            .map(|v| acfg.attribute(v, Attribute::TotalInstructions))
            .sum()
    }

    #[test]
    fn parse_roundtrips_canonical_names() {
        for s in ["none", "chain", "prune", "coarsen:1", "coarsen:3"] {
            let strat = ReduceStrategy::parse(s).unwrap();
            assert_eq!(strat.name(), s);
        }
        assert_eq!(
            ReduceStrategy::parse("coarsen").unwrap(),
            ReduceStrategy::Coarsen { rounds: DEFAULT_COARSEN_ROUNDS }
        );
        assert!(ReduceStrategy::parse("coarsen:0").is_err());
        assert!(ReduceStrategy::parse("squash").is_err());
        assert!(ReduceStrategy::parse("").is_err());
    }

    #[test]
    fn chain_collapses_straight_line_to_one_vertex() {
        // 0→1→2→3 with a side leaf 0→4: the 1-2-3 chain collapses.
        let acfg = acfg_with(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]);
        let (reduced, report) = ReduceStrategy::Chain.apply_with_report(&acfg);
        assert_eq!(report.nodes_removed(), 2, "1,2,3 merge into one supernode");
        assert_eq!(reduced.vertex_count(), 3);
        // Entry keeps index 0 and its two branches.
        assert_eq!(reduced.graph().out_degree(0), 2);
        assert_eq!(total_instructions(&reduced), 5.0);
        // The supernode carries the whole chain's instruction mass.
        let supernode = (1..3)
            .find(|&v| reduced.attribute(v, Attribute::TotalInstructions) == 3.0)
            .expect("one supernode holds the chain");
        assert_eq!(reduced.attribute(supernode, Attribute::Offspring), 0.0);
    }

    #[test]
    fn chain_preserves_entry_at_vertex_zero() {
        // Pure chain 0→1→2 contracts entirely into the entry.
        let acfg = acfg_with(3, &[(0, 1), (1, 2)]);
        let reduced = ReduceStrategy::Chain.apply(&acfg);
        assert_eq!(reduced.vertex_count(), 1);
        assert_eq!(reduced.attribute(0, Attribute::TotalInstructions), 3.0);
        assert_eq!(reduced.attribute(0, Attribute::Offspring), 0.0);
    }

    #[test]
    fn chain_keeps_cycle_as_self_loop() {
        // 0→1, 1→2, 2→3, 3→2: the 2↔3 loop contracts with a self-loop.
        let acfg = acfg_with(4, &[(0, 1), (1, 2), (2, 3), (3, 2)]);
        let reduced = ReduceStrategy::Chain.apply(&acfg);
        let n = reduced.vertex_count();
        let has_loop = (0..n).any(|v| reduced.graph().has_edge(v, v));
        assert!(has_loop, "cycle structure survives as a self-loop");
        // Idempotent despite the loop merge.
        let again = ReduceStrategy::Chain.apply(&reduced);
        assert_eq!(again, reduced);
    }

    #[test]
    fn chain_preserves_reachability() {
        let acfg = acfg_with(
            7,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 3)],
        );
        assert_eq!(acfg.graph().reachable_from_entry(), 7);
        let reduced = ReduceStrategy::Chain.apply(&acfg);
        assert_eq!(
            reduced.graph().reachable_from_entry(),
            reduced.vertex_count(),
            "everything reachable before stays reachable after"
        );
    }

    #[test]
    fn prune_folds_leaf_mass_into_neighbour() {
        // 0→1, 0→2 where 2 is a tiny leaf; 1 is kept (has the branch).
        let acfg = acfg_with(3, &[(0, 1), (0, 2)]);
        let (reduced, report) = ReduceStrategy::Prune.apply_with_report(&acfg);
        assert_eq!(report.nodes_after, 1, "both tiny leaves fold into the entry");
        assert_eq!(total_instructions(&reduced), 3.0, "mass conserved");
    }

    #[test]
    fn prune_keeps_large_leaves() {
        let mut acfg = acfg_with(2, &[(0, 1)]);
        // Make the leaf "informative": more instructions than the bar.
        let mut attrs = acfg.attributes().clone();
        attrs.set2(1, Attribute::TotalInstructions as usize, PRUNE_MAX_INSTRUCTIONS + 1.0);
        acfg = Acfg::new(acfg.graph().clone(), attrs);
        let reduced = ReduceStrategy::Prune.apply(&acfg);
        assert_eq!(reduced.vertex_count(), 2, "leaf above threshold survives");
    }

    #[test]
    fn coarsen_merges_isomorphic_leaves() {
        // A fan: 0 → {1,2,3}, all leaves identical under 2-round WL.
        let acfg = acfg_with(4, &[(0, 1), (0, 2), (0, 3)]);
        let (reduced, report) = ReduceStrategy::Coarsen { rounds: 2 }.apply_with_report(&acfg);
        assert_eq!(reduced.vertex_count(), 2, "the three leaves share a colour");
        assert_eq!(report.nodes_removed(), 2);
        assert_eq!(total_instructions(&reduced), 4.0);
        // Entry is still vertex 0.
        assert_eq!(reduced.graph().out_degree(0), 1);
    }

    #[test]
    fn all_strategies_are_idempotent() {
        let acfg = acfg_with(
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 1), (0, 4), (4, 5), (4, 6), (6, 7), (7, 7)],
        );
        for strat in [
            ReduceStrategy::None,
            ReduceStrategy::Chain,
            ReduceStrategy::Prune,
            ReduceStrategy::Coarsen { rounds: 1 },
            ReduceStrategy::Coarsen { rounds: 2 },
        ] {
            let once = strat.apply(&acfg);
            let twice = strat.apply(&once);
            assert_eq!(twice, once, "{strat} must be idempotent");
        }
    }

    #[test]
    fn offspring_matches_reduced_out_degree() {
        let acfg = acfg_with(5, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]);
        for strat in
            [ReduceStrategy::Chain, ReduceStrategy::Prune, ReduceStrategy::Coarsen { rounds: 2 }]
        {
            let reduced = strat.apply(&acfg);
            for v in 0..reduced.vertex_count() {
                assert_eq!(
                    reduced.attribute(v, Attribute::Offspring),
                    reduced.graph().out_degree(v) as f32,
                    "{strat}: Offspring is recomputed from structure"
                );
            }
        }
    }

    #[test]
    fn none_is_identity_and_reports_zero() {
        let acfg = acfg_with(3, &[(0, 1), (1, 2)]);
        let (reduced, report) = ReduceStrategy::None.apply_with_report(&acfg);
        assert_eq!(reduced, acfg);
        assert_eq!(report.nodes_removed(), 0);
        assert_eq!(report.edges_removed(), 0);
    }

    #[test]
    fn empty_graph_reduces_to_empty() {
        let acfg = acfg_with(0, &[]);
        for strat in
            [ReduceStrategy::Chain, ReduceStrategy::Prune, ReduceStrategy::Coarsen { rounds: 2 }]
        {
            assert_eq!(strat.apply(&acfg).vertex_count(), 0);
        }
    }
}
