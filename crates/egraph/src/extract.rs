//! DAG selections: one chosen e-node per e-class, the form in which
//! E-morphic extracts and converts straight back into a circuit.
//!
//! The engines that pick the nodes live in the `emorphic` crate; this module
//! holds the selection itself and [`DagSelection::try_fold`], the one walk
//! every reader of a selection is written in.

use crate::{EGraph, Id, Language, RecExpr};
use fxhash::FxHashMap;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    /// Selects the first node of every class.
    fn first_nodes(eg: &EGraph<SymbolLang>) -> DagSelection<SymbolLang> {
        let choices = eg.classes().map(|c| (c.id, c.nodes[0].clone())).collect();
        DagSelection { choices }
    }

    #[test]
    fn selection_builds_dag_metrics() {
        let expr: RecExpr<SymbolLang> = "(+ (* a b) (* a b))".parse().unwrap();
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let sel = first_nodes(&eg);
        // Classes: a, b, (* a b), (+ ..): 4 distinct.
        assert_eq!(sel.try_dag_size(&eg, &[root]), Ok(4));
        assert_eq!(sel.try_depth(&eg, &[root]), Ok(3));
        let expr_back = sel.try_to_recexpr(&eg, root).unwrap();
        assert_eq!(expr_back.to_string(), "(+ (* a b) (* a b))");
    }

    #[test]
    fn fold_visits_each_class_once_children_first_left_to_right() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let root = eg.add_expr(&"(+ (* a b) (- b (* a b)))".parse().unwrap());
        let other = eg.add_expr(&"(- b (* a b))".parse().unwrap());
        eg.rebuild();
        let sel = first_nodes(&eg);
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
        let class = eg.find(a);
        let mut sel = first_nodes(&eg);
        sel.set(class, SymbolLang::leaf("a"));
        assert_eq!(sel.try_to_recexpr(&eg, class).unwrap().to_string(), "a");
        sel.set(class, SymbolLang::leaf("b"));
        let expr = sel.try_to_recexpr(&eg, class).unwrap();
        assert_eq!(expr.to_string(), "b");
    }
}
