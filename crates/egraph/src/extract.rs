//! Cost-based extraction of a best term from an e-graph.
//!
//! The [`Extractor`] implements the standard greedy bottom-up algorithm: it
//! computes, for every e-class, the cheapest e-node whose children already
//! have known costs, iterating to a fixpoint. E-morphic replaces this with a
//! simulated-annealing extractor (in the `emorphic` crate) but uses this
//! greedy pass to produce initial solutions.

use crate::{EGraph, Id, Language, RecExpr};
use fxhash::FxHashMap;
use std::fmt::Debug;

/// A cost function over e-nodes.
///
/// `costs` gives access to the (already computed) cost of each child class.
pub trait CostFunction<L: Language> {
    /// The cost type; must be totally ordered for the classes being compared.
    type Cost: PartialOrd + Clone + Debug;

    /// Computes the cost of `enode` given a lookup for child-class costs.
    fn cost<C>(&mut self, enode: &L, costs: C) -> Self::Cost
    where
        C: FnMut(Id) -> Self::Cost;
}

/// Term size (number of nodes, counting shared nodes once per use).
#[derive(Debug, Clone, Copy, Default)]
pub struct AstSize;

impl<L: Language> CostFunction<L> for AstSize {
    type Cost = u64;

    fn cost<C>(&mut self, enode: &L, mut costs: C) -> u64
    where
        C: FnMut(Id) -> u64,
    {
        enode
            .children()
            .iter()
            .fold(1u64, |acc, &c| acc.saturating_add(costs(c)))
    }
}

/// Term depth (longest path from the root to a leaf).
#[derive(Debug, Clone, Copy, Default)]
pub struct AstDepth;

impl<L: Language> CostFunction<L> for AstDepth {
    type Cost = u64;

    fn cost<C>(&mut self, enode: &L, mut costs: C) -> u64
    where
        C: FnMut(Id) -> u64,
    {
        1 + enode
            .children()
            .iter()
            .map(|&c| costs(c))
            .max()
            .unwrap_or(0)
    }
}

/// Errors produced while materializing a [`DagSelection`] into a term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionError {
    /// A class reachable from the requested root has no selected node.
    Missing(Id),
    /// The selection is cyclic: following it from the given class never
    /// reaches the leaves.
    Cyclic(Id),
}

impl std::fmt::Display for SelectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectionError::Missing(id) => write!(f, "no selection for class {id}"),
            SelectionError::Cyclic(id) => {
                write!(f, "cyclic selection detected at class {id}")
            }
        }
    }
}

impl std::error::Error for SelectionError {}

/// A concrete choice of one e-node per e-class — the result of extraction in
/// DAG form, which E-morphic converts directly back into a circuit.
#[derive(Debug, Clone)]
pub struct DagSelection<L> {
    /// Chosen representative e-node for each (canonical) class id.
    pub choices: FxHashMap<Id, L>,
}

impl<L: Language> DagSelection<L> {
    /// Returns the chosen node for a class, if any.
    pub fn node(&self, id: Id) -> Option<&L> {
        self.choices.get(&id)
    }

    /// Overrides the chosen node for a class.
    pub fn set(&mut self, id: Id, node: L) {
        self.choices.insert(id, node);
    }

    /// Builds the term rooted at `root` following the selection.
    ///
    /// # Panics
    /// Panics if a reachable class has no selection or the selection is
    /// cyclic; [`DagSelection::try_to_recexpr`] reports the same conditions
    /// as a typed [`SelectionError`] instead.
    // The panic is the documented contract; `try_to_recexpr` is the
    // non-panicking form.
    #[allow(clippy::panic)]
    pub fn to_recexpr(&self, egraph: &EGraph<L>, root: Id) -> RecExpr<L> {
        self.try_to_recexpr(egraph, root)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one walk over a selection: an iterative post-order fold from
    /// `roots`.
    ///
    /// Roots are taken in order and a node's children left to right; every
    /// canonical class reachable under the selection is visited exactly once,
    /// after all of its children, and `visit(node, child_values)` receives
    /// its chosen node with the values already computed for the node's
    /// children, in child order. Returns the values of the roots, in root
    /// order. The stack is explicit, so a selection of any depth walks on a
    /// thread of any stack size.
    ///
    /// # Errors
    /// [`SelectionError::Missing`] names the first class the walk reaches
    /// that has no selected node; [`SelectionError::Cyclic`] names the class
    /// an edge re-enters while the walk is still below it.
    pub fn try_fold<T: Clone>(
        &self,
        egraph: &EGraph<L>,
        roots: &[Id],
        mut visit: impl FnMut(&L, &[T]) -> T,
    ) -> Result<Vec<T>, SelectionError> {
        // Two colours: `None` marks an open class (entered, children not all
        // done), `Some` a finished one; an edge into an open class is a cycle.
        let mut memo: FxHashMap<Id, Option<T>> = FxHashMap::default();
        // Open classes, outermost first: (class, its chosen node, where its
        // children's values start in `values`).
        let mut stack: Vec<(Id, &L, usize)> = Vec::new();
        // The values of the roots finished so far, then those of the finished
        // children of each open class in turn — so an open class's next child
        // is the one past the values it has collected.
        let mut values: Vec<T> = Vec::new();
        for &root in roots {
            self.enter(egraph.find(root), &mut memo, &mut stack, &mut values)?;
            while let Some(&(id, node, base)) = stack.last() {
                if let Some(&child) = node.children().get(values.len() - base) {
                    self.enter(egraph.find(child), &mut memo, &mut stack, &mut values)?;
                } else {
                    let value = visit(node, &values[base..]);
                    values.truncate(base);
                    values.push(value.clone());
                    memo.insert(id, Some(value));
                    stack.pop();
                }
            }
        }
        Ok(values)
    }

    /// One edge of [`DagSelection::try_fold`] into `id`: hands over the value
    /// of a finished class, opens a new one.
    fn enter<'a, T: Clone>(
        &'a self,
        id: Id,
        memo: &mut FxHashMap<Id, Option<T>>,
        stack: &mut Vec<(Id, &'a L, usize)>,
        values: &mut Vec<T>,
    ) -> Result<(), SelectionError> {
        match memo.get(&id) {
            Some(Some(value)) => values.push(value.clone()),
            Some(None) => return Err(SelectionError::Cyclic(id)),
            None => {
                let node = self.choices.get(&id).ok_or(SelectionError::Missing(id))?;
                memo.insert(id, None);
                stack.push((id, node, values.len()));
            }
        }
        Ok(())
    }

    /// Builds the term rooted at `root`, reporting missing or cyclic
    /// selections as a typed error instead of panicking.
    ///
    /// # Errors
    /// Returns a [`SelectionError`] if a reachable class has no selected
    /// node or the selection is cyclic.
    pub fn try_to_recexpr(
        &self,
        egraph: &EGraph<L>,
        root: Id,
    ) -> Result<RecExpr<L>, SelectionError> {
        let mut expr = RecExpr::default();
        self.try_fold(egraph, &[root], |node, children: &[Id]| {
            let mut position = 0;
            expr.add(node.map_children(|_| {
                position += 1;
                children[position - 1]
            }))
        })?;
        Ok(expr)
    }

    /// Number of distinct classes reachable from `roots` under the selection
    /// (the DAG size of the extracted circuit). A reachable class without a
    /// selected node is a typed [`SelectionError`], never a zero-cost leaf
    /// (which would let an engine bug masquerade as an excellent extraction).
    ///
    /// # Errors
    /// Returns [`SelectionError::Missing`] if a reachable class has no
    /// selected node, or [`SelectionError::Cyclic`] if the selection loops.
    pub fn try_dag_size(&self, egraph: &EGraph<L>, roots: &[Id]) -> Result<usize, SelectionError> {
        let mut size = 0;
        self.try_fold(egraph, roots, |_, _: &[()]| size += 1)?;
        Ok(size)
    }

    /// Longest path (in chosen nodes) from any root to a leaf. Incomplete
    /// and cyclic selections are typed [`SelectionError`]s, never folded into
    /// a too-small depth.
    ///
    /// # Errors
    /// Returns [`SelectionError::Missing`] if a reachable class has no
    /// selected node, or [`SelectionError::Cyclic`] if the selection loops.
    pub fn try_depth(&self, egraph: &EGraph<L>, roots: &[Id]) -> Result<usize, SelectionError> {
        let depths = self.try_fold(egraph, roots, |_, children: &[usize]| {
            1 + children.iter().copied().max().unwrap_or(0)
        })?;
        Ok(depths.into_iter().max().unwrap_or(0))
    }
}

/// Greedy bottom-up extractor: computes the cheapest representative of every
/// e-class under a [`CostFunction`].
pub struct Extractor<'a, L: Language, CF: CostFunction<L>> {
    egraph: &'a EGraph<L>,
    costs: FxHashMap<Id, (CF::Cost, L)>,
}

impl<'a, L: Language, CF: CostFunction<L>> Extractor<'a, L, CF> {
    /// Computes best costs for every class of a (rebuilt) e-graph.
    pub fn new(egraph: &'a EGraph<L>, mut cost_fn: CF) -> Self {
        let mut costs: FxHashMap<Id, (CF::Cost, L)> = FxHashMap::default();
        // Fixpoint: keep sweeping until no class improves. Each sweep only
        // evaluates nodes whose children all have costs.
        let mut changed = true;
        while changed {
            changed = false;
            for class in egraph.classes() {
                for node in &class.nodes {
                    let ready = node
                        .children()
                        .iter()
                        .all(|&c| costs.contains_key(&egraph.find(c)));
                    if !ready {
                        continue;
                    }
                    let cost = cost_fn.cost(node, |c| costs[&egraph.find(c)].0.clone());
                    match costs.get(&class.id) {
                        Some((best, _)) if *best <= cost => {}
                        _ => {
                            costs.insert(class.id, (cost, node.clone()));
                            changed = true;
                        }
                    }
                }
            }
        }
        Extractor { egraph, costs }
    }

    /// Returns the best cost of a class, if one was computed.
    pub fn find_best_cost(&self, id: Id) -> Option<CF::Cost> {
        self.costs
            .get(&self.egraph.find(id))
            .map(|(c, _)| c.clone())
    }

    /// Returns the chosen (cheapest) node of a class.
    ///
    /// # Panics
    /// Panics if the class is unreachable from any leaf (no finite cost).
    pub fn find_best_node(&self, id: Id) -> &L {
        &self.costs[&self.egraph.find(id)].1
    }

    /// Extracts the best term rooted at `root`.
    ///
    /// # Panics
    /// Panics if no finite-cost term exists for `root`.
    pub fn find_best(&self, root: Id) -> (CF::Cost, RecExpr<L>) {
        let root = self.egraph.find(root);
        let cost = self.costs[&root].0.clone();
        let expr = self.selection().to_recexpr(self.egraph, root);
        (cost, expr)
    }

    /// Returns the whole per-class selection (for DAG-style reconstruction).
    pub fn selection(&self) -> DagSelection<L> {
        let choices = self
            .costs
            .iter()
            .map(|(&id, (_, node))| (id, node.clone()))
            .collect();
        DagSelection { choices }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rewrite, Runner, SymbolLang};

    #[test]
    fn ast_size_picks_smallest_equivalent() {
        let expr: RecExpr<SymbolLang> = "(+ (* a 1) 0)".parse().unwrap();
        let rules = vec![
            Rewrite::parse("mul-one", "(* ?x 1)", "?x").unwrap(),
            Rewrite::parse("add-zero", "(+ ?x 0)", "?x").unwrap(),
        ];
        let runner = Runner::default().with_expr(&expr).run(&rules);
        let ex = Extractor::new(&runner.egraph, AstSize);
        let (cost, best) = ex.find_best(runner.roots[0]);
        assert_eq!(best.to_string(), "a");
        assert_eq!(cost, 1);
    }

    #[test]
    fn ast_depth_prefers_balanced_form() {
        // (+ (+ (+ a b) c) d) can be rebalanced to depth 3 via associativity.
        let expr: RecExpr<SymbolLang> = "(+ (+ (+ a b) c) d)".parse().unwrap();
        let rules = vec![
            Rewrite::parse("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
            Rewrite::parse("assoc-rev", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
            Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
        ];
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(6)
            .run(&rules);
        let size_before: u64 = {
            let ex = Extractor::new(&runner.egraph, AstDepth);
            ex.find_best_cost(runner.roots[0]).unwrap()
        };
        // Depth 4 flat chain must improve to at most... the balanced tree has
        // depth 3 (leaves count as depth 1).
        assert!(size_before <= 4);
        assert!(size_before >= 3);
    }

    #[test]
    fn extractor_covers_all_reachable_classes() {
        let expr: RecExpr<SymbolLang> = "(f (g a) (h b c))".parse().unwrap();
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        for id in eg.class_ids() {
            assert!(ex.find_best_cost(id).is_some(), "class {id} missing cost");
        }
        let (cost, best) = ex.find_best(root);
        assert_eq!(cost, 6);
        assert_eq!(best.to_string(), "(f (g a) (h b c))");
    }

    #[test]
    fn selection_builds_dag_metrics() {
        let expr: RecExpr<SymbolLang> = "(+ (* a b) (* a b))".parse().unwrap();
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        let sel = ex.selection();
        // Classes: a, b, (* a b), (+ ..): 4 distinct.
        assert_eq!(sel.try_dag_size(&eg, &[root]), Ok(4));
        assert_eq!(sel.try_depth(&eg, &[root]), Ok(3));
        let expr_back = sel.to_recexpr(&eg, root);
        assert_eq!(expr_back.to_string(), "(+ (* a b) (* a b))");
    }

    #[test]
    fn fold_visits_each_class_once_children_first_left_to_right() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let root = eg.add_expr(&"(+ (* a b) (- b (* a b)))".parse().unwrap());
        let other = eg.add_expr(&"(- b (* a b))".parse().unwrap());
        eg.rebuild();
        let sel = Extractor::new(&eg, AstSize).selection();
        let mut order = Vec::new();
        let sizes = sel
            .try_fold(&eg, &[root, other, root], |node, children: &[u64]| {
                order.push(node.op_str());
                1 + children.iter().sum::<u64>()
            })
            .unwrap();
        // `b` and `(* a b)` are shared and the second and third roots were
        // already walked: five visits, yet every root reports its tree size.
        assert_eq!(order, ["a", "b", "*", "-", "+"]);
        assert_eq!(sizes, [9, 5, 9]);
    }

    #[test]
    fn fold_names_the_class_a_cycle_re_enters() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = eg.add(SymbolLang::leaf("a"));
        let f = eg.add(SymbolLang::new("f", vec![a]));
        let g = eg.add(SymbolLang::new("g", vec![f]));
        eg.rebuild();
        // g -> f -> g under the selection; `a` is never reached.
        let mut choices = FxHashMap::default();
        choices.insert(g, SymbolLang::new("g", vec![f]));
        choices.insert(f, SymbolLang::new("f", vec![g]));
        let sel = DagSelection { choices };
        assert_eq!(sel.try_dag_size(&eg, &[g]), Err(SelectionError::Cyclic(g)));
        assert_eq!(sel.try_depth(&eg, &[f]), Err(SelectionError::Cyclic(f)));
    }

    #[test]
    fn missing_selection_is_a_typed_error() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = eg.add(SymbolLang::leaf("a"));
        let f = eg.add(SymbolLang::new("f", vec![a]));
        eg.rebuild();
        let root = eg.find(f);
        let mut choices = FxHashMap::default();
        choices.insert(root, SymbolLang::new("f", vec![a]));
        // The child class `a` has no selection.
        let sel = DagSelection { choices };
        let err = sel.try_to_recexpr(&eg, root).unwrap_err();
        assert_eq!(err, SelectionError::Missing(eg.find(a)));
    }

    #[test]
    fn cyclic_selection_is_a_typed_error() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = eg.add(SymbolLang::leaf("a"));
        let f = eg.add(SymbolLang::new("f", vec![a]));
        eg.union(a, f);
        eg.rebuild();
        let root = eg.find(f);
        // Select the `f`-node for its own (merged) class: f = f(f(...)).
        let mut choices = FxHashMap::default();
        choices.insert(root, SymbolLang::new("f", vec![root]));
        let sel = DagSelection { choices };
        let err = sel.try_to_recexpr(&eg, root).unwrap_err();
        assert!(matches!(err, SelectionError::Cyclic(_)));
    }

    #[test]
    fn selection_override_changes_result() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let a = eg.add(SymbolLang::leaf("a"));
        let b = eg.add(SymbolLang::leaf("b"));
        eg.union(a, b);
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        let mut sel = ex.selection();
        let class = eg.find(a);
        sel.set(class, SymbolLang::leaf("b"));
        let expr = sel.to_recexpr(&eg, class);
        assert_eq!(expr.to_string(), "b");
    }
}
