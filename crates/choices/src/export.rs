//! Exporting a saturated e-graph as a choice-annotated AIG.
//!
//! Instead of extracting *one* design from the e-graph, the exporter
//! materializes, for every live e-class, up to K structurally distinct
//! representatives ranked by a configurable cost. The representatives of a
//! class all realize the class function over the *canonical* representatives
//! of their child classes, which makes every alternative automatically
//! acyclic at the node level; class-level acyclicity (what a choice-aware cut
//! enumerator needs) is guaranteed by only admitting alternatives whose child
//! classes sit strictly lower in the representative DAG.

use crate::network::filter_ordering;
use crate::{ChoiceAig, ChoiceClass, ChoiceError};
use aig::{Aig, Lit};
use egraph::{EGraph, Id, Language};
use fxhash::{FxHashMap, FxHashSet};

/// The Boolean interpretation of one e-node, with child e-class ids.
///
/// The exporter is generic over the e-graph language; a language opts in by
/// implementing [`BoolNode`] and mapping each operator onto this shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolExpr {
    /// A Boolean constant.
    Const(bool),
    /// Primary input `i`.
    Var(u32),
    /// Negation of a class.
    Not(Id),
    /// Conjunction of two classes.
    And(Id, Id),
    /// Disjunction of two classes.
    Or(Id, Id),
}

impl BoolExpr {
    /// The child class slots of this operator (`None` for unused slots).
    pub fn children(&self) -> [Option<Id>; 2] {
        match *self {
            BoolExpr::Const(_) | BoolExpr::Var(_) => [None, None],
            BoolExpr::Not(c) => [Some(c), None],
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => [Some(a), Some(b)],
        }
    }

    /// Rewrites every child class id with `f` (used to canonicalize children
    /// against an e-graph's union-find).
    pub fn map_children(self, mut f: impl FnMut(Id) -> Id) -> Self {
        match self {
            BoolExpr::Const(_) | BoolExpr::Var(_) => self,
            BoolExpr::Not(c) => BoolExpr::Not(f(c)),
            BoolExpr::And(a, b) => BoolExpr::And(f(a), f(b)),
            BoolExpr::Or(a, b) => BoolExpr::Or(f(a), f(b)),
        }
    }
}

/// An e-graph language whose nodes can be interpreted as Boolean operators.
pub trait BoolNode: Language {
    /// The Boolean reading of this e-node, or `None` if the operator has no
    /// Boolean interpretation (such nodes are skipped by the exporter).
    fn as_bool(&self) -> Option<BoolExpr>;
}

/// The structural cost ranking choice representatives within a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChoiceCost {
    /// Gate count of the realization tree (AND/OR count 1, inverters are
    /// free edge attributes).
    #[default]
    Size,
    /// Gate depth of the realization.
    Depth,
}

/// Configuration of the e-graph → choice-network export.
#[derive(Debug, Clone)]
pub struct ChoiceConfig {
    /// Maximum members per class, representative included. `1` disables
    /// choices (the export degenerates to greedy extraction).
    pub max_choices: usize,
    /// Cost ranking the members.
    pub cost: ChoiceCost,
}

impl Default for ChoiceConfig {
    fn default() -> Self {
        ChoiceConfig {
            max_choices: 4,
            cost: ChoiceCost::Size,
        }
    }
}

/// Statistics of one export run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportStats {
    /// Classes reachable from the roots through representatives and admitted
    /// alternatives.
    pub live_classes: usize,
    /// Choice classes that survived with at least one alternative.
    pub classes: usize,
    /// Total admitted alternatives.
    pub alternatives: usize,
    /// Candidate alternatives rejected (height rule, duplicates after
    /// structural hashing, representative conflicts, ordering filter).
    pub rejected: usize,
}

fn expr_cost(
    expr: &BoolExpr,
    kind: ChoiceCost,
    child_cost: impl Fn(Id) -> Option<u64>,
) -> Option<u64> {
    let gate = match expr {
        BoolExpr::And(..) | BoolExpr::Or(..) => 1u64,
        BoolExpr::Not(_) | BoolExpr::Const(_) | BoolExpr::Var(_) => 0,
    };
    let mut combined = 0u64;
    for child in expr.children().into_iter().flatten() {
        let c = child_cost(child)?;
        combined = match kind {
            ChoiceCost::Size => combined.saturating_add(c),
            ChoiceCost::Depth => combined.max(c),
        };
    }
    Some(combined.saturating_add(gate))
}

/// A per-class selection driving the choice export: the representative
/// realization (`best`) and its cost (`costs`) for every realizable class.
///
/// Produced either by the exporter's own greedy sweep (the one
/// [`egraph_to_choices`] runs) or by an external extraction engine whose
/// per-class choices are translated to [`BoolExpr`]s — the dependency
/// inversion that lets alternative extractors shape which class members a
/// [`ChoiceAig`] keeps without this crate knowing about them.
#[derive(Debug, Clone, Default)]
pub struct ClassSelection {
    /// The selected realization per class, children canonicalized.
    pub best: FxHashMap<Id, BoolExpr>,
    /// The per-class cost ranking used to order choice members; classes
    /// missing here are treated as unrealizable.
    pub costs: FxHashMap<Id, u64>,
}

/// The exporter's default per-class selection: a greedy bottom-up sweep to
/// the least-fixpoint cost under `config.cost` (the same selection a
/// choice-free extraction would make).
fn greedy_class_selection<L: BoolNode>(
    egraph: &EGraph<L>,
    config: &ChoiceConfig,
) -> ClassSelection {
    let ids = egraph.class_ids_sorted();
    let mut costs: FxHashMap<Id, u64> = FxHashMap::default();
    let mut best: FxHashMap<Id, BoolExpr> = FxHashMap::default();
    let mut changed = true;
    while changed {
        changed = false;
        for &cid in &ids {
            for node in &egraph.class(cid).nodes {
                let Some(expr) = node.as_bool() else { continue };
                let expr = expr.map_children(|c| egraph.find(c));
                let Some(cost) = expr_cost(&expr, config.cost, |c| costs.get(&c).copied()) else {
                    continue;
                };
                if costs.get(&cid).is_none_or(|&prev| cost < prev) {
                    costs.insert(cid, cost);
                    best.insert(cid, expr);
                    changed = true;
                }
            }
        }
    }
    ClassSelection { best, costs }
}

/// Exports a saturated (rebuilt) e-graph as a [`ChoiceAig`].
///
/// `roots` are the output classes (one per output name); `Var(i)` maps to
/// `input_names[i]`. The representative of every class is its cheapest
/// realization under `config.cost` (the same greedy bottom-up selection a
/// choice-free extraction would make), and up to `config.max_choices - 1`
/// alternatives per class ride along for the mapper. To let a different
/// extraction engine pick the representatives, use
/// [`egraph_to_choices_with_selection`].
///
/// # Errors
/// Returns a [`ChoiceError`] if a root class has no realizable term, a
/// variable index is out of range, or the roots and output names disagree in
/// length.
pub fn egraph_to_choices<L: BoolNode>(
    egraph: &EGraph<L>,
    roots: &[Id],
    input_names: &[String],
    output_names: &[String],
    name: &str,
    config: &ChoiceConfig,
) -> Result<(ChoiceAig, ExportStats), ChoiceError> {
    let selection = greedy_class_selection(egraph, config);
    egraph_to_choices_with_selection(
        egraph,
        roots,
        input_names,
        output_names,
        name,
        config,
        &selection,
    )
}

/// Exports a saturated e-graph as a [`ChoiceAig`] around an externally
/// chosen per-class selection: `selection.best` supplies every class
/// representative (an extraction engine's choices), `selection.costs` ranks
/// the alternatives riding along.
///
/// # Errors
/// In addition to the [`egraph_to_choices`] errors, returns
/// [`ChoiceError::NoSelection`] when the selection is incomplete (a
/// representative references a class without one) or cyclic — external
/// selections are not trusted to be well-formed.
#[allow(clippy::too_many_arguments)]
pub fn egraph_to_choices_with_selection<L: BoolNode>(
    egraph: &EGraph<L>,
    roots: &[Id],
    input_names: &[String],
    output_names: &[String],
    name: &str,
    config: &ChoiceConfig,
    selection: &ClassSelection,
) -> Result<(ChoiceAig, ExportStats), ChoiceError> {
    if roots.len() != output_names.len() {
        return Err(ChoiceError::NoSelection(format!(
            "{} roots but {} output names",
            roots.len(),
            output_names.len()
        )));
    }
    let best = &selection.best;
    let costs = &selection.costs;
    for &root in roots {
        let root = egraph.find(root);
        if !costs.contains_key(&root) || !best.contains_key(&root) {
            return Err(ChoiceError::NoSelection(format!(
                "root class {root} has no realizable term"
            )));
        }
    }

    // ------------------------------------------------------------------
    // Pass 2: heights over the representative DAG. `h` strictly increases
    // along every representative edge (including through `Not`), so "all
    // child classes strictly lower" certifies class-level acyclicity. The
    // walk is defensive (two-color DFS): an external selection that is
    // incomplete or cyclic surfaces as a typed error instead of an index
    // panic or an unbounded loop.
    // ------------------------------------------------------------------
    let mut heights: FxHashMap<Id, u64> = FxHashMap::default();
    let mut visiting: FxHashSet<Id> = FxHashSet::default();
    for &start in best.keys() {
        if heights.contains_key(&start) {
            continue;
        }
        let mut stack: Vec<(Id, bool)> = vec![(start, false)];
        while let Some((top, ready)) = stack.pop() {
            if heights.contains_key(&top) {
                continue;
            }
            let Some(expr) = best.get(&top) else {
                return Err(ChoiceError::NoSelection(format!(
                    "selection is incomplete: class {top} has no selected member"
                )));
            };
            if ready {
                let mut max_child = 0u64;
                for child in expr.children().into_iter().flatten() {
                    max_child = max_child.max(heights.get(&child).copied().unwrap_or(0));
                }
                let h = match expr {
                    BoolExpr::Const(_) | BoolExpr::Var(_) => 0,
                    _ => 1 + max_child,
                };
                heights.insert(top, h);
                visiting.remove(&top);
            } else {
                if !visiting.insert(top) {
                    return Err(ChoiceError::NoSelection(format!(
                        "selection is cyclic through class {top}"
                    )));
                }
                stack.push((top, true));
                for child in expr.children().into_iter().flatten() {
                    if !heights.contains_key(&child) {
                        if visiting.contains(&child) {
                            return Err(ChoiceError::NoSelection(format!(
                                "selection is cyclic through class {child}"
                            )));
                        }
                        stack.push((child, false));
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Pass 3: admitted alternatives per class, then the live-class closure.
    // ------------------------------------------------------------------
    let mut stats = ExportStats::default();
    let alternatives_of = |cid: Id, stats: &mut ExportStats| -> Vec<BoolExpr> {
        if config.max_choices <= 1 {
            return Vec::new();
        }
        let h = heights[&cid];
        let chosen = best[&cid];
        let mut ranked: Vec<(u64, usize, BoolExpr)> = Vec::new();
        for (pos, node) in egraph.class(cid).nodes.iter().enumerate() {
            let Some(expr) = node.as_bool() else { continue };
            let expr = expr.map_children(|c| egraph.find(c));
            if expr == chosen {
                continue;
            }
            if matches!(expr, BoolExpr::Const(_) | BoolExpr::Var(_)) {
                continue; // a leaf alternative cannot be a mapped structure
            }
            let Some(cost) = expr_cost(&expr, config.cost, |c| costs.get(&c).copied()) else {
                continue;
            };
            // Cycle safety: every child class must sit strictly below this
            // class in the representative DAG.
            let admissible = expr
                .children()
                .into_iter()
                .flatten()
                .all(|c| heights.get(&c).is_some_and(|&ch| ch < h));
            if admissible {
                ranked.push((cost, pos, expr));
            } else {
                stats.rejected += 1;
            }
        }
        ranked.sort_by_key(|&(cost, pos, _)| (cost, pos));
        ranked.truncate(config.max_choices - 1);
        ranked.into_iter().map(|(_, _, expr)| expr).collect()
    };

    let mut live: FxHashMap<Id, Vec<BoolExpr>> = FxHashMap::default();
    let mut worklist: Vec<Id> = roots.iter().map(|&r| egraph.find(r)).collect();
    while let Some(cid) = worklist.pop() {
        if live.contains_key(&cid) {
            continue;
        }
        let alts = alternatives_of(cid, &mut stats);
        for child in best[&cid]
            .children()
            .into_iter()
            .flatten()
            .chain(alts.iter().flat_map(|a| a.children().into_iter().flatten()))
        {
            if !live.contains_key(&child) {
                worklist.push(child);
            }
        }
        live.insert(cid, alts);
    }
    stats.live_classes = live.len();

    // ------------------------------------------------------------------
    // Pass 4: build the network class by class in (height, id) order, so all
    // members of a class exist before any fanout of its representative.
    // ------------------------------------------------------------------
    let mut order: Vec<Id> = live.keys().copied().collect();
    order.sort_unstable_by_key(|id| (heights[id], id.0));

    let mut aig = Aig::new(name.to_string());
    let inputs: Vec<Lit> = input_names
        .iter()
        .map(|n| aig.add_input(n.clone()))
        .collect();
    let mut repr_lit: FxHashMap<Id, Lit> = FxHashMap::default();
    let mut classes: Vec<ChoiceClass> = Vec::new();

    let build = |expr: &BoolExpr,
                 aig: &mut Aig,
                 repr_lit: &FxHashMap<Id, Lit>|
     -> Result<Lit, ChoiceError> {
        Ok(match *expr {
            BoolExpr::Const(b) => {
                if b {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                }
            }
            BoolExpr::Var(i) => *inputs.get(i as usize).ok_or_else(|| {
                ChoiceError::UnknownInput(format!("variable x{i} but only {} inputs", inputs.len()))
            })?,
            BoolExpr::Not(c) => repr_lit[&c].not(),
            BoolExpr::And(a, b) => {
                let (la, lb) = (repr_lit[&a], repr_lit[&b]);
                aig.and(la, lb)
            }
            BoolExpr::Or(a, b) => {
                let (la, lb) = (repr_lit[&a], repr_lit[&b]);
                aig.or(la, lb)
            }
        })
    };

    let mut registered: FxHashSet<aig::NodeId> = FxHashSet::default();
    for cid in order {
        // Alternatives are realized *before* the representative so the
        // representative ends up with the topologically last node of its
        // class (the ordering invariant): every cut any member contributes
        // then only reaches nodes below the representative.
        let mut alt_lits: Vec<Lit> = Vec::new();
        for alt in &live[&cid] {
            alt_lits.push(build(alt, &mut aig, &repr_lit)?);
        }
        let repr = build(&best[&cid], &mut aig, &repr_lit)?;
        repr_lit.insert(cid, repr);
        if alt_lits.is_empty() || !aig.node(repr.node()).is_and() {
            stats.rejected += alt_lits.len();
            continue;
        }
        if registered.contains(&repr.node()) {
            // An aliasing representative (e.g. a `Not`-rooted class) shares
            // its node with an earlier class; that node already carries
            // choices, so this class's alternatives are dropped.
            stats.rejected += alt_lits.len();
            continue;
        }
        let mut members: Vec<Lit> = vec![repr];
        for lit in alt_lits {
            let duplicate =
                !aig.node(lit.node()).is_and() || members.iter().any(|m| m.node() == lit.node());
            if duplicate {
                stats.rejected += 1;
            } else {
                members.push(lit);
            }
        }
        if members.len() >= 2 {
            registered.insert(repr.node());
            classes.push(ChoiceClass { members });
        }
    }

    for (&root, output_name) in roots.iter().zip(output_names) {
        let root = egraph.find(root);
        let lit = repr_lit[&root];
        aig.add_output(lit, output_name.clone());
    }

    let (classes, dropped) = filter_ordering(classes);
    stats.rejected += dropped;
    for class in &classes {
        stats.classes += 1;
        stats.alternatives += class.alternatives().len();
    }
    let network = ChoiceAig::new(aig, classes)?;
    Ok((network, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph::{RecExpr, SymbolLang};

    /// `SymbolLang` terms over `&`, `|`, `!`, `xN`, `true`/`false` read as
    /// Boolean circuits, which lets the tests drive the exporter without a
    /// dedicated language.
    impl BoolNode for SymbolLang {
        fn as_bool(&self) -> Option<BoolExpr> {
            let children = self.children();
            match (self.op_str().as_str(), children.len()) {
                ("&", 2) => Some(BoolExpr::And(children[0], children[1])),
                ("|", 2) => Some(BoolExpr::Or(children[0], children[1])),
                ("!", 1) => Some(BoolExpr::Not(children[0])),
                ("true", 0) => Some(BoolExpr::Const(true)),
                ("false", 0) => Some(BoolExpr::Const(false)),
                (var, 0) if var.starts_with('x') => var[1..].parse().ok().map(BoolExpr::Var),
                _ => None,
            }
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("x{i}")).collect()
    }

    fn export(
        egraph: &EGraph<SymbolLang>,
        roots: &[Id],
        num_inputs: usize,
        config: &ChoiceConfig,
    ) -> (ChoiceAig, ExportStats) {
        egraph_to_choices(
            egraph,
            roots,
            &names(num_inputs),
            &["f".to_string()],
            "test",
            config,
        )
        .unwrap()
    }

    fn saturate(exprs: &[&str]) -> (EGraph<SymbolLang>, Id) {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let mut root = None;
        for text in exprs {
            let expr: RecExpr<SymbolLang> = text.parse().unwrap();
            let id = eg.add_expr(&expr);
            match root {
                None => root = Some(id),
                Some(r) => {
                    eg.union(r, id);
                }
            }
        }
        eg.rebuild();
        let root = root.unwrap();
        (eg, root)
    }

    #[test]
    fn exports_equivalent_alternatives() {
        // Two shapes of the same function in one class.
        let (eg, root) = saturate(&["(| (& x0 x1) x2)", "(& (| x0 x2) (| x1 x2))"]);
        let (choices, stats) = export(&eg, &[eg.find(root)], 3, &ChoiceConfig::default());
        assert_eq!(stats.classes, 1, "stats: {stats:?}");
        assert!(choices.num_alternatives() >= 1);
        let report = crate::audit_choices(&choices, audit::AuditLevel::Paranoid);
        assert!(report.is_clean(), "{report}");
        // The representative network computes the function.
        let repr = choices.repr_network();
        for p in 0..8usize {
            let bits = [(p & 1) != 0, (p & 2) != 0, (p & 4) != 0];
            let expected = (bits[0] && bits[1]) || bits[2];
            assert_eq!(repr.evaluate(&bits), vec![expected], "pattern {p}");
        }
    }

    #[test]
    fn max_choices_one_disables_choices() {
        let (eg, root) = saturate(&["(| (& x0 x1) x2)", "(& (| x0 x2) (| x1 x2))"]);
        let config = ChoiceConfig {
            max_choices: 1,
            ..ChoiceConfig::default()
        };
        let (choices, stats) = export(&eg, &[eg.find(root)], 3, &config);
        assert_eq!(choices.num_classes(), 0);
        assert_eq!(stats.alternatives, 0);
    }

    #[test]
    fn representative_is_the_cheapest_member() {
        // The SOP form has 3 gates, the POS form 3 gates as well, but after
        // adding a deliberately bigger 4-gate shape the representative must
        // not be that one.
        let (eg, root) = saturate(&[
            "(| (& x0 x1) x2)",
            "(| x2 (& x0 (& x1 x1)))", // extra gate
        ]);
        let (choices, _) = export(&eg, &[eg.find(root)], 3, &ChoiceConfig::default());
        // Greedy representative realization: 2 ANDs + 1 OR = 3 AIG nodes at
        // most for the SOP shape.
        assert!(choices.repr_network().num_ands() <= 3);
    }

    #[test]
    fn missing_root_is_an_error() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        // A class with only a non-Boolean operator cannot be realized.
        let expr: RecExpr<SymbolLang> = "(foo x0)".parse().unwrap();
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let err = egraph_to_choices(
            &eg,
            &[eg.find(root)],
            &names(1),
            &["f".to_string()],
            "t",
            &ChoiceConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ChoiceError::NoSelection(_)));
    }

    #[test]
    fn variable_out_of_range_is_an_error() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let expr: RecExpr<SymbolLang> = "(& x0 x9)".parse().unwrap();
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let err = egraph_to_choices(
            &eg,
            &[eg.find(root)],
            &names(1),
            &["f".to_string()],
            "t",
            &ChoiceConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ChoiceError::UnknownInput(_)));
    }

    #[test]
    fn external_selection_matches_inline_greedy() {
        let (eg, root) = saturate(&["(| (& x0 x1) x2)", "(& (| x0 x2) (| x1 x2))"]);
        let config = ChoiceConfig::default();
        let selection = greedy_class_selection(&eg, &config);
        let a = export(&eg, &[eg.find(root)], 3, &config);
        let b = egraph_to_choices_with_selection(
            &eg,
            &[eg.find(root)],
            &names(3),
            &["f".to_string()],
            "test",
            &config,
            &selection,
        )
        .unwrap();
        assert_eq!(a.0.classes(), b.0.classes());
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn incomplete_external_selection_is_an_error() {
        let (eg, root) = saturate(&["(& x0 x1)"]);
        let root = eg.find(root);
        // A selection whose root member references a class with no selection.
        let mut selection = greedy_class_selection(&eg, &ChoiceConfig::default());
        let child = selection.best[&root]
            .children()
            .into_iter()
            .flatten()
            .next()
            .unwrap();
        selection.best.remove(&child);
        let err = egraph_to_choices_with_selection(
            &eg,
            &[root],
            &names(2),
            &["f".to_string()],
            "test",
            &ChoiceConfig::default(),
            &selection,
        )
        .unwrap_err();
        assert!(matches!(err, ChoiceError::NoSelection(_)), "{err}");
    }

    #[test]
    fn cyclic_external_selection_is_an_error() {
        let (eg, root) = saturate(&["(& x0 x1)"]);
        let root = eg.find(root);
        // Hand-build a cyclic "selection": the root realizes as Not(root).
        let mut selection = ClassSelection::default();
        selection.best.insert(root, BoolExpr::Not(root));
        selection.costs.insert(root, 1);
        let err = egraph_to_choices_with_selection(
            &eg,
            &[root],
            &names(2),
            &["f".to_string()],
            "test",
            &ChoiceConfig::default(),
            &selection,
        )
        .unwrap_err();
        assert!(matches!(err, ChoiceError::NoSelection(_)), "{err}");
        assert!(err.to_string().contains("cyclic"), "{err}");
    }

    #[test]
    fn export_is_deterministic() {
        let (eg, root) = saturate(&[
            "(| (& x0 x1) (& x2 x3))",
            "(| (& x2 x3) (& x0 x1))",
            "(& (| x0 x2) (& (| x0 x3) (& (| x1 x2) (| x1 x3))))",
        ]);
        let a = export(&eg, &[eg.find(root)], 4, &ChoiceConfig::default());
        let b = export(&eg, &[eg.find(root)], 4, &ChoiceConfig::default());
        assert_eq!(a.0.aig().num_nodes(), b.0.aig().num_nodes());
        assert_eq!(a.0.classes(), b.0.classes());
        assert_eq!(a.1, b.1);
    }
}
