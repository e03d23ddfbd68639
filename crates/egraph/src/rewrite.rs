//! Rewrite rules: a named left-hand-side pattern and a right-hand-side
//! pattern, applied non-destructively by adding equalities to the e-graph.

use crate::{EGraph, FromOp, Language, ParseError, Pattern, SearchMatches};

/// A rewrite rule `lhs => rhs`.
///
/// Applying a rewrite never removes information: for every match of `lhs`,
/// the instantiated `rhs` is added to the e-graph and unioned with the
/// matched class (the essence of equality saturation).
#[derive(Debug, Clone)]
pub struct Rewrite<L> {
    /// Human-readable rule name (used in reports).
    pub name: String,
    /// The pattern to search for.
    pub lhs: Pattern<L>,
    /// The pattern to instantiate and union with each match, compiled
    /// against `lhs`'s variable slots (see [`Rewrite::parse`]).
    pub rhs: Pattern<L>,
}

impl<L: FromOp> Rewrite<L> {
    /// Parses a rewrite from s-expression pattern strings.
    ///
    /// # Errors
    /// Returns a [`ParseError`] if either side fails to parse or if the
    /// right-hand side uses a variable not bound on the left-hand side.
    pub fn parse(name: impl Into<String>, lhs: &str, rhs: &str) -> Result<Self, ParseError> {
        let name = name.into();
        let lhs: Pattern<L> = lhs.parse()?;
        // Compiling the right-hand side against the left-hand side's slots
        // is also what rejects a variable the left-hand side does not bind.
        let rhs = Pattern::parse_scoped(rhs, Some(&lhs.vars()))
            .map_err(|ParseError(e)| ParseError(format!("rewrite '{name}': rhs: {e}")))?;
        Ok(Rewrite { name, lhs, rhs })
    }
}

impl<L: Language> Rewrite<L> {
    /// Searches the left-hand side over the whole e-graph.
    pub fn search(&self, egraph: &EGraph<L>, match_limit: usize) -> Vec<SearchMatches> {
        self.lhs.search(egraph, match_limit)
    }

    /// Applies the rewrite to previously found matches. Returns the number of
    /// unions that actually changed the e-graph.
    pub fn apply(&self, egraph: &mut EGraph<L>, matches: &[SearchMatches]) -> usize {
        let mut changed = 0;
        for m in matches {
            for subst in &m.substs {
                let new_id = self.rhs.apply_one(egraph, subst);
                let (_, did) = egraph.union(m.eclass, new_id);
                if did {
                    changed += 1;
                }
            }
        }
        changed
    }

    /// Convenience: search then apply in one step.
    pub fn run(&self, egraph: &mut EGraph<L>, match_limit: usize) -> usize {
        let matches = self.search(egraph, match_limit);
        self.apply(egraph, &matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RecExpr, SymbolLang};

    #[test]
    fn parse_checks_rhs_variables() {
        assert!(Rewrite::<SymbolLang>::parse("ok", "(+ ?a ?b)", "(+ ?b ?a)").is_ok());
        assert!(Rewrite::<SymbolLang>::parse("bad", "(+ ?a ?b)", "(+ ?a ?c)").is_err());
        assert!(Rewrite::<SymbolLang>::parse("bad-lhs", "(+ ?a", "(+ ?a ?a)").is_err());
    }

    #[test]
    fn commutativity_merges_classes() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let ab: RecExpr<SymbolLang> = "(+ a b)".parse().unwrap();
        let ba: RecExpr<SymbolLang> = "(+ b a)".parse().unwrap();
        let r_ab = eg.add_expr(&ab);
        let r_ba = eg.add_expr(&ba);
        eg.rebuild();
        assert!(!eg.same(r_ab, r_ba));

        let comm = Rewrite::<SymbolLang>::parse("comm", "(+ ?x ?y)", "(+ ?y ?x)").unwrap();
        comm.run(&mut eg, usize::MAX);
        eg.rebuild();
        assert!(eg.same(r_ab, r_ba));
        crate::egraph::assert_audit_clean(&eg);
    }

    #[test]
    fn rewriting_is_non_destructive() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let expr: RecExpr<SymbolLang> = "(* a 1)".parse().unwrap();
        let root = eg.add_expr(&expr);
        eg.rebuild();
        let nodes_before = eg.total_nodes();
        let identity = Rewrite::<SymbolLang>::parse("mul-one", "(* ?x 1)", "?x").unwrap();
        identity.run(&mut eg, usize::MAX);
        eg.rebuild();
        // The original (* a 1) node is still present...
        assert!(eg.total_nodes() >= nodes_before - 1);
        // ...and the root class now also contains the leaf `a`.
        let a = eg.lookup(&SymbolLang::leaf("a")).unwrap();
        assert!(eg.same(root, a));
    }

    #[test]
    fn apply_reports_zero_when_saturated() {
        let mut eg: EGraph<SymbolLang> = EGraph::new();
        let expr: RecExpr<SymbolLang> = "(+ a b)".parse().unwrap();
        eg.add_expr(&expr);
        eg.rebuild();
        let comm = Rewrite::<SymbolLang>::parse("comm", "(+ ?x ?y)", "(+ ?y ?x)").unwrap();
        assert!(comm.run(&mut eg, usize::MAX) > 0);
        eg.rebuild();
        // Second application discovers nothing new.
        assert_eq!(comm.run(&mut eg, usize::MAX), 0);
    }
}
